//! `regbal serve`: the resident allocation server (stdio or TCP), the
//! seeded trace generator, the trace replay with its chaos harness, and
//! the concurrent-connection gate.

use crate::{run_cli, Args, Command, Flag};
use regbal_eval::Json;
use regbal_serve::{ServeConfig, TraceFile};
use regbal_workloads::{Arrival, TraceConfig};
use std::fmt::Write as _;

pub(crate) const COMMAND: Command = Command {
    name: "serve",
    flags: &[
        Flag::Switch("--stdio"),
        Flag::Value("--listen"),
        Flag::Value("--gen-trace"),
        Flag::Value("--replay"),
        Flag::Value("--check-concurrent"),
        Flag::Value("--workers"),
        Flag::Value("--queue-cap"),
        Flag::Value("--cache-cap"),
        Flag::Value("--trajectory-cap"),
        Flag::Value("--cache-dir"),
        Flag::Value("--cache-dir-cap"),
        Flag::Value("--deadline-ms"),
        Flag::Value("--shutdown-token"),
        Flag::Value("--faults"),
        Flag::Value("--max-conns"),
        Flag::Switch("--metrics"),
        Flag::Value("--requests"),
        Flag::Value("--seed"),
        Flag::Value("--arrival"),
        Flag::Value("--mean-gap-us"),
        Flag::Value("--packets"),
        Flag::Value("--lines"),
        Flag::Value("--passes"),
        Flag::Switch("--verify"),
        Flag::Switch("--sanitize"),
        Flag::Value("--responses"),
        Flag::Value("--out"),
        Flag::Value("--clients"),
    ],
    files: false,
    main: serve,
};

/// The options that pick `regbal serve`'s mode; exactly one is given.
const MODES: [&str; 5] = [
    "--stdio",
    "--listen",
    "--gen-trace",
    "--replay",
    "--check-concurrent",
];

/// The `regbal serve` subcommand: the resident allocation server
/// (stdio or TCP), the seeded trace generator, the trace replay, and
/// the concurrent-connection gate.
fn serve(args: &Args, out: &mut String) -> Result<(), String> {
    let mut server = ServeConfig::default();
    args.set("--workers", &mut server.workers)?;
    args.set("--queue-cap", &mut server.queue_cap)?;
    args.set("--cache-cap", &mut server.cache_cap)?;
    args.set("--trajectory-cap", &mut server.trajectory_cap)?;
    server.cache_dir = args.raw("--cache-dir").map(String::from);
    args.set("--cache-dir-cap", &mut server.cache_dir_cap)?;
    args.set("--deadline-ms", &mut server.deadline_ms)?;
    server.shutdown_token = args.raw("--shutdown-token").map(String::from);
    if let Some(spec) = args.raw("--faults") {
        let plan = regbal_serve::FaultPlan::parse_spec(spec)?;
        server.faults = Some(std::sync::Arc::new(plan));
    }
    args.set("--max-conns", &mut server.max_conns)?;
    let mut trace_config = TraceConfig::default();
    args.set("--requests", &mut trace_config.requests)?;
    args.set("--seed", &mut trace_config.seed)?;
    if let Some(arrival) = args.raw("--arrival") {
        trace_config.arrival = Arrival::parse(arrival)?;
    }
    args.set("--mean-gap-us", &mut trace_config.mean_gap_us)?;
    args.set("--packets", &mut trace_config.packets)?;
    let lines_path = args.raw("--lines");
    let passes = args.get("--passes")?.unwrap_or(2usize);
    let verify = args.has("--verify");
    let sanitize = args.has("--sanitize");
    let metrics_summary = args.has("--metrics");
    let clients = args.get("--clients")?.unwrap_or(3usize);
    let responses_path = args.raw("--responses");
    let out_path = args.raw("--out");

    let mut modes = args.opts.iter().filter(|(name, _)| MODES.contains(name));
    let (mode, path) = match (modes.next(), modes.next()) {
        (Some((mode, path)), None) => (*mode, path.as_deref().unwrap_or_default()),
        (Some(_), Some(_)) => {
            return Err(
                "pick exactly one of --stdio, --listen, --gen-trace, --replay, --check-concurrent"
                    .into(),
            )
        }
        (None, _) => {
            return Err(
                "pick one of --stdio, --listen, --gen-trace, --replay, --check-concurrent".into(),
            )
        }
    };
    match mode {
        "--stdio" => {
            // Responses go straight to the process stdout so the mode
            // is usable in a pipeline; `out` stays empty. The metrics
            // summary goes to stderr for the same reason.
            let stdin = std::io::stdin();
            let stdout = std::io::stdout();
            let mut cache = server
                .open_cache()
                .map_err(|e| format!("--cache-dir: {e}"))?;
            let metrics = regbal_serve::ServeMetrics::default();
            regbal_serve::serve_lines_metered(stdin, stdout, &server, &mut cache, &metrics)
                .map_err(|e| format!("stdio transport: {e}"))?;
            if metrics_summary {
                eprint!("{}", metrics.snapshot().summary(&metrics.connections()));
            }
            Ok(())
        }
        "--listen" => {
            let addr = path;
            let mut announce = std::io::stderr();
            let metrics = regbal_serve::ServeMetrics::default();
            regbal_serve::serve_tcp_metered(addr, &server, &mut announce, &metrics)
                .map_err(|e| format!("{addr}: {e}"))?;
            if metrics_summary {
                eprint!("{}", metrics.snapshot().summary(&metrics.connections()));
            }
            Ok(())
        }
        "--gen-trace" => {
            let file = TraceFile::generate(&trace_config);
            std::fs::write(path, file.to_json().pretty())
                .map_err(|e| format!("{path}: {e}"))?;
            let _ = writeln!(
                out,
                "wrote {path} ({} requests, seed {}, {} arrival, {} packets/thread)",
                file.requests.len(),
                file.seed,
                file.arrival.name(),
                file.packets
            );
            if let Some(lines_path) = lines_path {
                let wire = regbal_serve::materialize(&file.requests, file.packets);
                let mut text = String::new();
                for (i, req) in wire.iter().enumerate() {
                    let _ = writeln!(
                        text,
                        "{}",
                        regbal_serve::request_line(i as u64, req, false)
                    );
                }
                std::fs::write(lines_path, text).map_err(|e| format!("{lines_path}: {e}"))?;
                let _ = writeln!(out, "wrote {lines_path} (ready-to-pipe request lines)");
            }
            Ok(())
        }
        "--replay" => {
            if out_path.is_some() && server.faults.is_none() {
                return Err(
                    "--out writes the chaos report (regbal-serve-chaos/1) and needs --faults"
                        .into(),
                );
            }
            let text = std::fs::read_to_string(path).map_err(|e| format!("{path}: {e}"))?;
            let trace = TraceFile::from_text(&text).map_err(|e| format!("{path}: {e}"))?;
            if server.faults.is_some() {
                // An armed fault plane turns replay into the chaos
                // harness: multi-session replay under injected faults,
                // baseline document identity, and a healing pass.
                let report = regbal_serve::chaos_replay(&trace, &server)?;
                let _ = writeln!(
                    out,
                    "chaos: {} request(s) all answered across {} session(s): \
                     {} injected disconnect(s), {} torn line(s) answered in-band, {} timeout(s)",
                    report.requests,
                    report.sessions,
                    report.disconnects,
                    report.partials,
                    report.timeouts
                );
                let _ = writeln!(out, "chaos: faults fired: {}", report.fault_summary);
                let _ = writeln!(
                    out,
                    "chaos: healing pass served the baseline documents ({} response(s))",
                    report.heal_responses.len()
                );
                if let Some(responses_path) = responses_path {
                    let mut text = String::new();
                    for line in &report.heal_responses {
                        text.push_str(line);
                        text.push('\n');
                    }
                    std::fs::write(responses_path, text)
                        .map_err(|e| format!("{responses_path}: {e}"))?;
                    let _ = writeln!(out, "wrote {responses_path}");
                }
                if let Some(out_path) = out_path {
                    let doc = regbal_serve::chaos_json(&report);
                    std::fs::write(out_path, doc.pretty())
                        .map_err(|e| format!("{out_path}: {e}"))?;
                    let _ = writeln!(out, "wrote {out_path}");
                }
                if verify {
                    let checked = verify_against_oneshot(&trace, &report.heal_responses)?;
                    let _ = writeln!(
                        out,
                        "verify: {checked} distinct request(s) byte-identical to one-shot \
                         `regbal alloc --json` after healing"
                    );
                }
                if sanitize {
                    let (checked, skipped) = regbal_serve::sanitize_check(&trace)?;
                    let _ = writeln!(
                        out,
                        "sanitize: {checked} allocation(s) replayed on the simulator with 0 violations ({skipped} infeasible skipped)"
                    );
                }
                check_cache_dir_cap(&server, out)?;
                return Ok(());
            }
            let metrics = regbal_serve::ServeMetrics::default();
            let reports = regbal_serve::replay(&trace, &server, passes.max(1), &metrics)?;
            for (i, r) in reports.iter().enumerate() {
                let _ = writeln!(
                    out,
                    "pass {i} ({}): {} requests, {} hit(s), {} miss(es)",
                    if i == 0 { "cold" } else { "warm" },
                    trace.requests.len(),
                    r.hits,
                    r.misses
                );
            }
            if let Some(responses_path) = responses_path {
                let mut text = String::new();
                for r in &reports {
                    for line in &r.responses {
                        text.push_str(line);
                        text.push('\n');
                    }
                }
                std::fs::write(responses_path, text)
                    .map_err(|e| format!("{responses_path}: {e}"))?;
                let _ = writeln!(out, "wrote {responses_path}");
            }
            if metrics_summary {
                let _ = write!(out, "{}", metrics.snapshot().summary(&metrics.connections()));
            }
            if verify {
                let checked = verify_against_oneshot(&trace, &reports[0].responses)?;
                let _ = writeln!(
                    out,
                    "verify: {checked} distinct request(s) byte-identical to one-shot `regbal alloc --json`"
                );
            }
            if sanitize {
                let (checked, skipped) = regbal_serve::sanitize_check(&trace)?;
                let _ = writeln!(
                    out,
                    "sanitize: {checked} allocation(s) replayed on the simulator with 0 violations ({skipped} infeasible skipped)"
                );
            }
            check_cache_dir_cap(&server, out)?;
            Ok(())
        }
        // --check-concurrent
        _ => {
            let text = std::fs::read_to_string(path).map_err(|e| format!("{path}: {e}"))?;
            let trace = TraceFile::from_text(&text).map_err(|e| format!("{path}: {e}"))?;
            check_concurrent(&trace, &server, clients.max(1), metrics_summary, out)
        }
    }
}

/// When a replay ran with both `--cache-dir` and `--cache-dir-cap`,
/// audits the directory after the fact: the GC must have held the
/// store's on-disk footprint at or under the cap. The bytes are
/// re-counted from the filesystem, not taken from the store's own
/// accounting.
fn check_cache_dir_cap(server: &ServeConfig, out: &mut String) -> Result<(), String> {
    let (Some(dir), cap) = (&server.cache_dir, server.cache_dir_cap) else {
        return Ok(());
    };
    if cap == 0 {
        return Ok(());
    }
    let mut bytes = 0u64;
    for tier in ["responses", "modules"] {
        let tier_dir = std::path::Path::new(dir).join(tier);
        let entries = match std::fs::read_dir(&tier_dir) {
            Ok(entries) => entries,
            Err(_) => continue,
        };
        for entry in entries.flatten() {
            if let Ok(meta) = entry.metadata() {
                if meta.is_file() {
                    bytes += meta.len();
                }
            }
        }
    }
    if bytes > cap {
        return Err(format!(
            "--cache-dir-cap: {dir} holds {bytes} byte(s), over the {cap}-byte cap — GC failed"
        ));
    }
    let _ = writeln!(out, "gc: {dir} holds {bytes} of {cap} byte(s) allowed");
    Ok(())
}

/// The `--check-concurrent` gate: partitions the trace's kernels
/// across `clients` disjoint TCP clients (distinct kernels have
/// distinct content hashes, so no client's cache keys overlap
/// another's), serves them all at once against one shared server, and
/// demands each client's transcript be byte-identical to serving its
/// script alone over a fresh single-connection server. With a
/// `--cache-dir` it then restarts the server over the populated store
/// and demands the first repeated request answer `"cached": true`.
fn check_concurrent(
    trace: &TraceFile,
    server: &ServeConfig,
    clients: usize,
    metrics_summary: bool,
    out: &mut String,
) -> Result<(), String> {
    use std::io::{BufRead, BufReader, Write as IoWrite};

    let wire = regbal_serve::materialize(&trace.requests, trace.packets);
    // Partition by kernel so each client's content hashes are disjoint
    // from every other client's.
    let mut kernels: Vec<&str> = Vec::new();
    for req in &wire {
        if !kernels.contains(&req.kernel.name()) {
            kernels.push(req.kernel.name());
        }
    }
    if kernels.len() < clients {
        return Err(format!(
            "check-concurrent: the trace has {} distinct kernel(s) but --clients {} \
             needs at least that many for disjoint partitions — generate a larger trace",
            kernels.len(),
            clients
        ));
    }
    let mut scripts: Vec<Vec<String>> = vec![Vec::new(); clients];
    for req in &wire {
        let k = kernels
            .iter()
            .position(|n| *n == req.kernel.name())
            .expect("kernel was just collected");
        let script = &mut scripts[k % clients];
        let id = script.len() as u64;
        script.push(regbal_serve::request_line(id, req, false));
    }

    // Sequential baselines: each script alone against a fresh
    // memory-only server (the shared run starts cold too, so the
    // `cached` flags line up).
    let solo_config = ServeConfig {
        cache_dir: None,
        ..server.clone()
    };
    let mut baselines: Vec<Vec<String>> = Vec::with_capacity(clients);
    for script in &scripts {
        let mut cache = solo_config
            .open_cache()
            .expect("a memory-only cache cannot fail to open");
        let input = script.join("\n").into_bytes();
        let mut output = Vec::new();
        regbal_serve::serve_lines(&input[..], &mut output, &solo_config, &mut cache)
            .map_err(|e| format!("check-concurrent baseline: {e}"))?;
        baselines.push(
            String::from_utf8_lossy(&output)
                .lines()
                .map(str::to_string)
                .collect(),
        );
    }

    // The concurrent run: all clients at once over one shared server.
    let listener = std::net::TcpListener::bind("127.0.0.1:0")
        .map_err(|e| format!("check-concurrent: bind: {e}"))?;
    let addr = listener
        .local_addr()
        .map_err(|e| format!("check-concurrent: local_addr: {e}"))?;
    let metrics = regbal_serve::ServeMetrics::default();
    let transcripts: Vec<Result<Vec<String>, String>> = std::thread::scope(|scope| {
        let server_thread = {
            let metrics = &metrics;
            scope.spawn(move || {
                let mut log = std::io::sink();
                regbal_serve::serve_listener(listener, server, &mut log, metrics)
            })
        };
        let handles: Vec<_> = scripts
            .iter()
            .map(|script| {
                scope.spawn(move || -> Result<Vec<String>, String> {
                    let mut stream = std::net::TcpStream::connect(addr)
                        .map_err(|e| format!("connect: {e}"))?;
                    for line in script {
                        writeln!(stream, "{line}").map_err(|e| format!("send: {e}"))?;
                    }
                    stream
                        .shutdown(std::net::Shutdown::Write)
                        .map_err(|e| format!("half-close: {e}"))?;
                    let mut reader = BufReader::new(stream);
                    let mut responses = Vec::with_capacity(script.len());
                    for i in 0..script.len() {
                        let mut line = String::new();
                        match reader.read_line(&mut line) {
                            Ok(0) => return Err(format!("server closed before response {i}")),
                            Ok(_) => responses.push(line.trim_end().to_string()),
                            Err(e) => return Err(format!("response {i}: {e}")),
                        }
                    }
                    Ok(responses)
                })
            })
            .collect();
        let transcripts: Vec<_> = handles
            .into_iter()
            .map(|h| h.join().expect("client thread panicked"))
            .collect();
        // All clients are done — shut the server down from a control
        // connection and let it drain.
        let shutdown = (|| -> Result<(), String> {
            let mut control = std::net::TcpStream::connect(addr)
                .map_err(|e| format!("shutdown connect: {e}"))?;
            writeln!(control, r#"{{"id": "bye", "kind": "shutdown"}}"#)
                .map_err(|e| format!("shutdown send: {e}"))?;
            let mut ack = String::new();
            BufReader::new(control)
                .read_line(&mut ack)
                .map_err(|e| format!("shutdown ack: {e}"))?;
            let ack = regbal_eval::json::parse(ack.trim_end())
                .map_err(|e| format!("shutdown ack was not JSON: {e}"))?;
            if ack.get("ok").and_then(Json::as_bool) != Some(true) {
                return Err(format!("unexpected shutdown ack: {}", ack.compact()));
            }
            Ok(())
        })();
        let served = server_thread
            .join()
            .expect("server thread panicked")
            .map_err(|e| format!("check-concurrent server: {e}"));
        if let Err(e) = shutdown.and(served) {
            return vec![Err(e)];
        }
        transcripts
    });

    for (i, (transcript, baseline)) in transcripts.iter().zip(&baselines).enumerate() {
        let transcript = transcript
            .as_ref()
            .map_err(|e| format!("check-concurrent client {i}: {e}"))?;
        if transcript != baseline {
            let at = transcript
                .iter()
                .zip(baseline)
                .position(|(a, b)| a != b)
                .unwrap_or(baseline.len().min(transcript.len()));
            return Err(format!(
                "check-concurrent: client {i}'s transcript diverged from sequential \
                 service at response {at}:\nconcurrent: {:?}\nsequential: {:?}",
                transcript.get(at),
                baseline.get(at)
            ));
        }
    }
    let _ = writeln!(
        out,
        "check-concurrent: {} client(s), {} request(s): every transcript byte-identical to sequential service",
        clients,
        wire.len()
    );

    // Restart-warm: a brand-new server over the populated store must
    // answer the very first repeated request from cache.
    if server.cache_dir.is_some() {
        let mut cache = server
            .open_cache()
            .map_err(|e| format!("check-concurrent restart: {e}"))?;
        let first = scripts
            .iter()
            .find_map(|s| s.first())
            .ok_or("check-concurrent: the trace produced no requests")?;
        let input = format!("{first}\n").into_bytes();
        let mut output = Vec::new();
        regbal_serve::serve_lines(&input[..], &mut output, server, &mut cache)
            .map_err(|e| format!("check-concurrent restart: {e}"))?;
        let line = String::from_utf8_lossy(&output);
        let doc = regbal_eval::json::parse(line.trim_end())
            .map_err(|e| format!("check-concurrent restart: bad response: {e}"))?;
        if doc.get("cached").and_then(Json::as_bool) != Some(true) {
            return Err(format!(
                "check-concurrent: the restarted server missed on its first repeated \
                 request — the on-disk cache did not survive: {}",
                doc.compact()
            ));
        }
        let _ = writeln!(
            out,
            "check-concurrent: restarted server answered warm from the cache dir"
        );
    }
    if metrics_summary {
        let _ = write!(out, "{}", metrics.snapshot().summary(&metrics.connections()));
    }
    Ok(())
}

/// Replays each distinct cold-pass response through the one-shot
/// `regbal alloc --json` path and demands byte identity: served
/// documents must match the CLI's stdout, served errors the CLI's
/// error message.
fn verify_against_oneshot(trace: &TraceFile, responses: &[String]) -> Result<usize, String> {
    let wire = regbal_serve::materialize(&trace.requests, trace.packets);
    if wire.len() != responses.len() {
        return Err(format!(
            "verify: {} responses for {} requests",
            responses.len(),
            wire.len()
        ));
    }
    let mut seen = std::collections::HashSet::new();
    let mut checked = 0usize;
    for (req, line) in wire.iter().zip(responses) {
        if !seen.insert((req.hash, req.nthd, req.nreg, req.strategy)) {
            continue;
        }
        let doc = regbal_eval::json::parse(line)
            .map_err(|e| format!("verify: response is not JSON: {e}"))?;
        let served = match (doc.get("alloc"), doc.get("error")) {
            (Some(alloc), _) => Ok(alloc.pretty()),
            (None, Some(error)) => Err(error
                .get("message")
                .and_then(Json::as_str)
                .unwrap_or_default()
                .to_string()),
            (None, None) => return Err(format!("verify: malformed response: {line}")),
        };
        let file = std::env::temp_dir().join(format!(
            "regbal-verify-{}-{:016x}.rba",
            std::process::id(),
            req.hash
        ));
        let file = file.to_string_lossy().into_owned();
        std::fs::write(&file, &req.text).map_err(|e| format!("{file}: {e}"))?;
        let mut args: Vec<String> = vec!["alloc".into(), "--json".into()];
        args.extend(req.strategy.cli_flags().iter().map(|s| s.to_string()));
        args.push("--nreg".into());
        args.push(req.nreg.to_string());
        args.extend((0..req.nthd).map(|_| file.clone()));
        let mut one_shot = String::new();
        let direct = match run_cli(&args, &mut one_shot) {
            Ok(()) => Ok(one_shot),
            Err(message) => Err(message),
        };
        let _ = std::fs::remove_file(&file);
        let matches = match (&served, &direct) {
            // The CLI appends one newline to the pretty document.
            (Ok(s), Ok(d)) => format!("{s}\n") == *d,
            (Err(s), Err(d)) => s == d,
            _ => false,
        };
        if !matches {
            return Err(format!(
                "verify: served response diverged from one-shot for {} nthd {} nreg {} {}:\nserved: {:?}\none-shot: {:?}",
                req.kernel.name(),
                req.nthd,
                req.nreg,
                req.strategy.name(),
                served,
                direct
            ));
        }
        checked += 1;
    }
    Ok(checked)
}
