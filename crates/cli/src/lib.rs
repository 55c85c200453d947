//! Command-line driver for the `regbal` allocator.
//!
//! The binary is `regbal`; every subcommand reads programs in the
//! textual assembly syntax of `regbal-ir` (one or more `func` blocks per
//! file; each function becomes one hardware thread, in order):
//!
//! ```text
//! regbal analyze  prog.rba                 # analyses + §5 bounds
//! regbal alloc    --nreg 64 t0.rba t1.rba  # balance threads, print code
//! regbal alloc    --nreg 64 --spill ...    # spill when sharing can't fit
//! regbal alloc    --nreg 64 --ladder ...   # degrade down the ladder, never fail
//! regbal run      --cycles 100000 a.rba    # simulate, print statistics
//! regbal eval     --smoke                  # strategy sweep -> BENCH_EVAL.json
//! regbal serve    --stdio                  # resident allocation server
//! regbal serve    --replay trace.json      # benchmark a server on a trace
//! ```
//!
//! The driver logic lives in this library so it can be tested without
//! spawning processes; [`run_cli`] takes the argument vector and an
//! output sink and returns the process exit code.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

use regbal_analysis::ProgramInfo;
use regbal_core::{
    allocate_threads_stats, estimate_bounds, force_min_bounds, EngineConfig, EngineStats,
    HybridAllocation,
};
use regbal_eval::{
    run_device_eval, run_eval, validate_json, CellStatus, DeviceEvalConfig, EvalConfig, Json,
};
use regbal_ir::{parse_module, Func};
use regbal_serve::{ReplayConfig, ServeConfig, ServeStrategy, TraceFile, Verdict};
use regbal_sim::{SanitizerConfig, SimConfig, Simulator, StopWhen};
use regbal_workloads::{Arrival, TraceConfig};
use std::fmt::Write as _;

/// Runs the CLI with `args` (excluding the program name), writing
/// human-readable output to `out`.
///
/// # Errors
///
/// Returns a user-facing message on bad usage, unparsable input or an
/// allocation failure; the caller maps it to a non-zero exit code.
pub fn run_cli(args: &[String], out: &mut String) -> Result<(), String> {
    let mut it = args.iter();
    match it.next().map(String::as_str) {
        Some("analyze") => analyze(&collect_files(it)?, out),
        Some("alloc") => alloc(args[1..].to_vec(), out),
        Some("run") => run(args[1..].to_vec(), out),
        Some("eval") => eval(args[1..].to_vec(), out),
        Some("device") => device(args[1..].to_vec(), out),
        Some("serve") => serve(args[1..].to_vec(), out),
        Some("fuzz") => fuzz(args[1..].to_vec(), out),
        Some("dot") => dot(args[1..].to_vec(), out),
        Some("help") | None => {
            out.push_str(USAGE);
            Ok(())
        }
        Some(other) => Err(format!("unknown command `{other}`\n{USAGE}")),
    }
}

const USAGE: &str = "\
regbal — cross-thread register allocation for network processors

USAGE:
  regbal analyze <files...>                   per-function analyses and bounds
  regbal alloc [OPTS] <files...>              allocate threads, print physical code
      --nreg <N>       register file size (default 128)
      --spill          fall back to spilling when sharing cannot fit
      --ladder         never fail: walk the degradation ladder
                       balanced -> balanced-spill -> fixed-partition ->
                       spill-all, reporting every forced transition
      --min            squeeze each thread to its (MinPR, MinR) bound
      --stats          print engine statistics (iterations, candidate
                       cache hits, per-phase wall time); with --json,
                       adds the wall-clock `engine` member to the
                       otherwise deterministic document
      --quiet          summary only, no code
      --json           machine-readable allocation summary (JSON, no code)
  regbal run [OPTS] <files...>                simulate the threads
      --cycles <N>     cycle budget (default 1000000)
      --iterations <N> stop when all threads did N iterations
      --trace <N>      keep and print the first N scheduler events
      --sanitize       arm the register-clobber sanitizer; any violation
                       (cross-thread clobber, foreign-bank write) is an
                       error, uninitialized reads are warnings
  regbal eval [OPTS]                          traffic-driven strategy evaluation
      --smoke          fast sweep (fewer packets, two file sizes)
      --packets <N>    packets per thread (default 64; 12 with --smoke)
      --nreg <LIST>    comma-separated register-file sizes to sweep
      --out <FILE>     where to write the report (default BENCH_EVAL.json)
      --validate <F>   validate an existing report instead of running
      --sanitize       instrument every measured run with the clobber
                       sanitizer; any report fails the sweep
      --workers <N>    shard the sweep over N worker threads (default:
                       the machine's cores; 1 = serial). Any count
                       produces a byte-identical report
      --timing         record wall-clock timing in the report (on for
                       the full sweep, off with --smoke)
  regbal device [OPTS]                        device-scale scenario family: a
                                              command processor feeding 4/16/64
                                              worker PUs, run under the
                                              reference slice loop and the
                                              event core; fails on any report
                                              divergence, digest mismatch or
                                              sanitizer finding
      --smoke          4- and 16-PU scenarios only (the CI gate)
      --nreg <N>       register file for the Ladder-compiled build (default 64)
      --cycles <N>     cycle budget per run (default 20000000)
      --seed <N>       packet-generator seed (default 53710)
      --sanitize       arm the clobber sanitizer on the compiled runs;
                       any violation fails the family
      --out <FILE>     also write the machine-readable report
                       (regbal-device/2 JSON)
  regbal serve [MODE] [OPTS]                  resident allocation server
                                              (line-delimited JSON requests,
                                              regbal-serve/2; responses are
                                              byte-identical to
                                              `regbal alloc --json`)
    modes (exactly one):
      --stdio          serve requests on stdin, responses on stdout
      --listen <ADDR>  serve concurrent TCP connections over one shared
                       persistent cache (e.g. 127.0.0.1:7421); shutdown
                       drains: in-flight requests finish, acks go last
      --gen-trace <F>  write a seeded regbal-trace/1 workload file
      --replay <F>     replay a trace file against a fresh resident
                       server, reporting per-pass latency and cache
                       behaviour; a cache miss on any warm pass is an
                       error
      --check-concurrent <F>  split the trace's kernels across N TCP
                       clients, serve them concurrently, and demand each
                       client's transcript be byte-identical to serving
                       it alone; with --cache-dir also proves a
                       restarted server answers warm
    server options (--stdio, --listen, --replay, --check-concurrent):
      --workers <N>    worker threads per request wave (default 1; any
                       count produces byte-identical responses)
      --queue-cap <N>  bounded admission queue (default 256)
      --cache-cap <N>  response-cache entries (default 4096)
      --trajectory-cap <N>  resident module trajectories (default 256)
      --cache-dir <D>  content-addressed on-disk cache: outcomes and
                       modules persist across restarts; corrupt entries
                       degrade to cold misses
      --cache-dir-cap <BYTES>  byte cap on the on-disk cache (default
                       0 = unbounded): after each store, least-recently-
                       accessed entries are deleted until it fits
      --deadline-ms <N>  per-request deadline (default 0 = none): a
                       request still queued when it expires answers an
                       in-band `timeout` error instead of being computed
      --shutdown-token <T>  require `\"token\": \"<T>\"` on shutdown
                       requests; others get an in-band `unauthorized`
                       error and the server keeps serving
      --faults <SPEC>  arm the deterministic fault-injection plane
                       (chaos testing): comma-separated key=value with
                       seed=<N>, stall_ms=<N>, and a per-mille rate per
                       site (write_fail, write_short, rename_fail,
                       read_corrupt, disconnect, reader_stall,
                       write_err); with --replay this runs the chaos
                       harness instead: multi-session replay under
                       injected faults, every admitted request must be
                       answered with the fault-free baseline document,
                       then a fault-free healing pass over the surviving
                       cache dir must serve the baseline again
      --max-conns <N>  concurrent TCP connections admitted (default
                       unlimited); extra connections get one in-band
                       `overloaded` error line
      --metrics        print the backpressure summary (queue high-water,
                       admission wait p50/p99, deferred/rejected,
                       per-connection totals) when the server exits
    trace generation (--gen-trace):
      --requests <N>   requests to generate (default 100)
      --seed <N>       trace seed (default 990951)
      --arrival <A>    uniform|bursty (default uniform)
      --mean-gap-us <N>  mean inter-arrival gap (default 500)
      --packets <N>    packets per thread in the kernels (default 4)
      --lines <F>      also write ready-to-pipe request lines
    replay (--replay):
      --passes <N>     passes over the trace (default 2; pass 1 cold)
      --window <N>     requests in flight (default 1)
      --paced          honour the trace's arrival times
      --verify         re-run every distinct request through the
                       one-shot `regbal alloc --json` path and demand
                       byte-identical documents
      --sanitize       re-run every distinct allocation on the
                       simulator with the clobber sanitizer armed
      --responses <F>  write every pass's response lines
      --out <F>        write the regbal-serve-bench/2 report
    concurrency check (--check-concurrent):
      --clients <N>    TCP clients to interleave (default 3)
  regbal fuzz [OPTS]                          time-budgeted stress-fuzz walk:
                                              seeded adversarial bundles
                                              through the full ladder contract
                                              (no panics, confined validated
                                              rewrites, preserved semantics,
                                              sanitizer-clean, no hangs)
      --seconds <N>    time budget in seconds (default 5; at least one
                       case always runs)
      --start-seed <N> first index of the deterministic case walk
                       (default 0)
      --cases <N>      run exactly N cases instead of a time budget
      --archive <F>    append every failing case line to F for replay
                       by tests/fuzz_regressions.rs (the committed
                       corpus is tests/fuzz_regressions.txt); each case
                       is deterministically minimized first (fewer
                       threads, smaller file, simpler class — while the
                       failure still reproduces)
      --minimize <F>   re-minimize every case line of archive F in
                       place (comments are preserved); no fuzz walk
  regbal dot [--ig] <files...>                Graphviz output (CFG, or the
                                              interference graph with --ig)
  regbal help                                 this text
";

fn collect_files<'a>(it: impl Iterator<Item = &'a String>) -> Result<Vec<String>, String> {
    let files: Vec<String> = it.cloned().collect();
    if files.is_empty() {
        return Err(format!("expected at least one input file\n{USAGE}"));
    }
    Ok(files)
}

/// Loads every function from every file, in order, then resolves
/// subroutines the way the server does ([`regbal_serve::inline_roots`]):
/// functions that are `call`ed by others are treated as subroutines and
/// inlined; the remaining root functions become the hardware threads.
fn load(files: &[String]) -> Result<Vec<Func>, String> {
    let mut module = Vec::new();
    for path in files {
        let src = std::fs::read_to_string(path).map_err(|e| format!("{path}: {e}"))?;
        let parsed = parse_module(&src).map_err(|e| format!("{path}: {e}"))?;
        if parsed.is_empty() {
            return Err(format!("{path}: no functions found"));
        }
        module.extend(parsed);
    }
    regbal_serve::inline_roots(&module)
}

fn analyze(files: &[String], out: &mut String) -> Result<(), String> {
    for func in load(files)? {
        let info = ProgramInfo::compute(&func);
        let est = estimate_bounds(&info);
        let boundary = info.boundary.count();
        let _ = writeln!(out, "function `{}`:", func.name);
        let _ = writeln!(
            out,
            "  instructions      {} ({} context switches, {:.0}%)",
            func.num_insts(),
            func.num_ctx_insts(),
            100.0 * func.num_ctx_insts() as f64 / func.num_insts() as f64
        );
        let _ = writeln!(
            out,
            "  live ranges       {} ({} boundary, {} internal)",
            info.num_vregs(),
            boundary,
            info.num_vregs() - boundary
        );
        let _ = writeln!(
            out,
            "  non-switch regions {} (avg {:.1} points)",
            info.nsr.num_regions(),
            info.nsr.avg_size()
        );
        let _ = writeln!(
            out,
            "  bounds            MinPR={} MinR={} MaxPR={} MaxR={}",
            est.bounds.min_pr, est.bounds.min_r, est.bounds.max_pr, est.bounds.max_r
        );
    }
    Ok(())
}

fn alloc(args: Vec<String>, out: &mut String) -> Result<(), String> {
    let mut nreg = 128usize;
    let mut spill = false;
    let mut ladder = false;
    let mut min = false;
    let mut quiet = false;
    let mut stats = false;
    let mut json = false;
    let mut files = Vec::new();
    let mut it = args.into_iter();
    while let Some(a) = it.next() {
        match a.as_str() {
            "--nreg" => {
                nreg = it
                    .next()
                    .ok_or("--nreg needs a value")?
                    .parse()
                    .map_err(|e| format!("--nreg: {e}"))?;
            }
            "--spill" => spill = true,
            "--ladder" => ladder = true,
            "--min" => min = true,
            "--quiet" => quiet = true,
            "--stats" => stats = true,
            "--json" => json = true,
            f if !f.starts_with('-') => files.push(f.to_string()),
            other => return Err(format!("unknown option `{other}`\n{USAGE}")),
        }
    }
    if json && min {
        return Err("--json cannot be combined with --min".into());
    }
    if ladder && (spill || min) {
        return Err("--ladder subsumes --spill and cannot be combined with --min".into());
    }
    let funcs = load(&files)?;

    if min {
        for func in &funcs {
            let t = force_min_bounds(func).map_err(|e| format!("{}: {e}", func.name))?;
            let _ = writeln!(
                out,
                "`{}`: PR={} R={} with {} move(s)",
                func.name,
                t.pr(),
                t.pr() + t.sr(),
                t.moves()
            );
        }
        return Ok(());
    }

    let strategy = if ladder {
        ServeStrategy::Ladder
    } else if spill {
        ServeStrategy::BalancedSpill
    } else {
        ServeStrategy::Balanced
    };
    // Only the balanced engine reports statistics, so `--stats` calls it
    // directly; every other allocation goes through the server's one
    // strategy dispatch.
    let (verdict, engine) = if stats && strategy == ServeStrategy::Balanced {
        let (alloc, engine) = allocate_threads_stats(&funcs, nreg, EngineConfig::default())
            .map_err(|e| e.to_string())?;
        (Verdict::Balanced(alloc), Some(engine))
    } else {
        let verdict = regbal_serve::allocate(&funcs, nreg, strategy).map_err(|f| f.message)?;
        (verdict, None)
    };
    if json {
        let mut doc = regbal_serve::verdict_doc(&funcs, nreg, &verdict);
        // The engine member carries wall-clock timings, so it would
        // break the document's determinism (and the serve cache's
        // byte-identity contract); it is opt-in via --stats.
        if let (Some(engine), Json::Obj(members)) = (&engine, &mut doc) {
            members.push(("engine".into(), engine_json(engine)));
        }
        let _ = writeln!(out, "{}", doc.pretty());
        return Ok(());
    }
    for (i, (t, f)) in verdict.thread_summaries().iter().zip(&funcs).enumerate() {
        let _ = write!(
            out,
            "thread {i} `{}`: PR={} SR={} moves={}",
            f.name, t.pr, t.sr, t.moves
        );
        let _ = match strategy {
            ServeStrategy::Balanced => writeln!(out),
            _ => writeln!(out, " spills={}", t.spills),
        };
    }
    let _ = match &verdict {
        Verdict::Balanced(alloc) | Verdict::Spill(HybridAllocation { alloc, .. }) => {
            writeln!(
                out,
                "demand {} of {nreg} registers (SGR={})",
                alloc.total_registers(),
                alloc.sgr()
            )
        }
        Verdict::Ladder(result) => {
            for d in &result.degradations {
                let _ = writeln!(out, "degraded: {d}");
            }
            writeln!(
                out,
                "demand {} of {nreg} registers (rung `{}`, {} degradation(s))",
                result.registers_used(),
                result.step,
                result.degraded_count()
            )
        }
    };
    if let Some(engine) = &engine {
        out.push_str(&format_stats(engine));
    }
    if !quiet {
        let (physical, _) = verdict.compiled(&funcs).map_err(|e| e.to_string())?;
        for f in &physical {
            let _ = writeln!(out, "\n{f}");
        }
    }
    Ok(())
}

/// The optional `engine` member of the `regbal alloc --json` document
/// (`--stats --json`); the document skeleton itself lives in
/// [`regbal_serve::alloc_doc`] so the server provably prints the same
/// bytes.
fn engine_json(stats: &EngineStats) -> Json {
    let us = |d: std::time::Duration| d.as_secs_f64() * 1e6;
    Json::Obj(vec![
        ("iterations".into(), Json::uint(stats.iterations as u64)),
        ("evaluated".into(), Json::uint(stats.evaluated as u64)),
        ("cached".into(), Json::uint(stats.cached as u64)),
        ("memoized".into(), Json::Bool(EngineConfig::default().memoize)),
        ("init_us".into(), Json::float(us(stats.init))),
        ("search_us".into(), Json::float(us(stats.search))),
        ("verify_us".into(), Json::float(us(stats.verify))),
        ("total_us".into(), Json::float(us(stats.total))),
    ])
}

/// The `regbal eval` subcommand: run the strategy-evaluation sweep and
/// write `BENCH_EVAL.json`, or validate an existing report.
fn eval(args: Vec<String>, out: &mut String) -> Result<(), String> {
    let mut smoke = false;
    let mut sanitize = false;
    let mut timing = false;
    let mut out_path = "BENCH_EVAL.json".to_string();
    let mut packets: Option<u32> = None;
    let mut workers: Option<usize> = None;
    let mut nreg_sweep: Option<Vec<usize>> = None;
    let mut validate_path: Option<String> = None;
    let mut it = args.into_iter();
    while let Some(a) = it.next() {
        match a.as_str() {
            "--smoke" => smoke = true,
            "--sanitize" => sanitize = true,
            "--timing" => timing = true,
            "--workers" => {
                workers = Some(
                    it.next()
                        .ok_or("--workers needs a value")?
                        .parse()
                        .map_err(|e| format!("--workers: {e}"))?,
                );
            }
            "--out" => out_path = it.next().ok_or("--out needs a value")?,
            "--packets" => {
                packets = Some(
                    it.next()
                        .ok_or("--packets needs a value")?
                        .parse()
                        .map_err(|e| format!("--packets: {e}"))?,
                );
            }
            "--nreg" => {
                let list = it.next().ok_or("--nreg needs a value")?;
                nreg_sweep = Some(
                    list.split(',')
                        .map(|n| n.trim().parse().map_err(|e| format!("--nreg `{n}`: {e}")))
                        .collect::<Result<_, _>>()?,
                );
            }
            "--validate" => validate_path = Some(it.next().ok_or("--validate needs a value")?),
            other => return Err(format!("unknown option `{other}`\n{USAGE}")),
        }
    }

    if let Some(path) = validate_path {
        let text = std::fs::read_to_string(&path).map_err(|e| format!("{path}: {e}"))?;
        let doc = regbal_eval::json::parse(&text).map_err(|e| format!("{path}: {e}"))?;
        let summary = validate_json(&doc).map_err(|e| format!("{path}: {e}"))?;
        let _ = writeln!(out, "{path}: OK ({summary})");
        return Ok(());
    }

    let mut config = if smoke { EvalConfig::smoke() } else { EvalConfig::full() };
    if let Some(p) = packets {
        config.packets = p;
    }
    if let Some(sweep) = nreg_sweep {
        config.nreg_sweep = sweep;
    }
    if let Some(w) = workers {
        config.workers = w;
    }
    config.sanitize = sanitize;
    config.timing |= timing;
    let report = run_eval(&config);

    // A compact throughput table per scenario: rows are strategies,
    // columns the swept register-file sizes.
    for scenario in &report.scenarios {
        let _ = writeln!(
            out,
            "{} ({}){}",
            scenario.name,
            scenario.description,
            if scenario.register_hungry { " [hungry]" } else { "" }
        );
        for strategy in &report.strategies {
            let cells: Vec<String> = report
                .nreg_sweep
                .iter()
                .map(|&nreg| match scenario.cell(strategy, nreg) {
                    Some(c) if c.status == CellStatus::Ok => format!(
                        "{nreg}: {:.2}{}",
                        c.throughput_ipkc,
                        if c.checksum_ok { "" } else { " BAD-CHECKSUM" }
                    ),
                    Some(_) | None => format!("{nreg}: -"),
                })
                .collect();
            let _ = writeln!(out, "  {strategy:>15}  {}", cells.join("  "));
        }
    }
    let text = report.to_json_string();
    std::fs::write(&out_path, text + "\n").map_err(|e| format!("{out_path}: {e}"))?;
    let _ = writeln!(
        out,
        "wrote {out_path} ({} scenarios x {} strategies x {} sizes, {} packets/thread)",
        report.scenarios.len(),
        report.strategies.len(),
        report.nreg_sweep.len(),
        report.packets
    );
    if let Some(t) = &report.timing {
        let _ = writeln!(
            out,
            "timing: {} worker(s) on {} thread(s), {:.1} ms wall",
            t.workers, t.threads, t.wall_ms
        );
    }
    if sanitize {
        let (violations, warnings) = report
            .scenarios
            .iter()
            .flat_map(|s| &s.cells)
            .fold((0usize, 0usize), |(v, w), c| {
                (v + c.sanitizer_violations, w + c.sanitizer_warnings)
            });
        let _ = writeln!(
            out,
            "sanitizer: {violations} violation(s), {warnings} warning(s) across the sweep"
        );
        if violations + warnings > 0 {
            return Err(format!(
                "sanitizer reported {violations} violation(s) and {warnings} warning(s)"
            ));
        }
    }
    Ok(())
}

/// The `regbal device` subcommand: run the device scenario family
/// (command processor + worker PUs) under both chip cores and
/// check report identity, digest correctness and sanitizer silence.
fn device(args: Vec<String>, out: &mut String) -> Result<(), String> {
    let mut smoke = false;
    let mut sanitize = false;
    let mut out_path: Option<String> = None;
    let mut nreg: Option<usize> = None;
    let mut cycles: Option<u64> = None;
    let mut seed: Option<u64> = None;
    let mut it = args.into_iter();
    while let Some(a) = it.next() {
        match a.as_str() {
            "--smoke" => smoke = true,
            "--sanitize" => sanitize = true,
            "--out" => out_path = Some(it.next().ok_or("--out needs a value")?),
            "--nreg" => {
                nreg = Some(
                    it.next()
                        .ok_or("--nreg needs a value")?
                        .parse()
                        .map_err(|e| format!("--nreg: {e}"))?,
                );
            }
            "--cycles" => {
                cycles = Some(
                    it.next()
                        .ok_or("--cycles needs a value")?
                        .parse()
                        .map_err(|e| format!("--cycles: {e}"))?,
                );
            }
            "--seed" => {
                seed = Some(
                    it.next()
                        .ok_or("--seed needs a value")?
                        .parse()
                        .map_err(|e| format!("--seed: {e}"))?,
                );
            }
            other => return Err(format!("unknown option `{other}`\n{USAGE}")),
        }
    }

    let mut config = if smoke {
        DeviceEvalConfig::smoke()
    } else {
        DeviceEvalConfig::full()
    };
    if let Some(n) = nreg {
        config.nreg = n;
    }
    if let Some(c) = cycles {
        config.cycle_budget = c;
    }
    if let Some(s) = seed {
        config.seed = s;
    }
    config.sanitize = sanitize;
    let report = run_device_eval(&config);

    for s in &report.scenarios {
        let gate = |ok: bool| if ok { "ok" } else { "FAIL" };
        let _ = writeln!(
            out,
            "{}: {} worker PU(s), {} ring(s), {} packet(s)",
            s.name, s.pus, s.rings, s.packets
        );
        let _ = writeln!(
            out,
            "  reference    {:>9} cycles  digest {:08x} ({})",
            s.reference.cycles,
            s.reference.digest,
            gate(s.reference.digest == s.expected_digest && s.reference.halted)
        );
        let _ = writeln!(
            out,
            "  event        reports identical: {}",
            gate(s.event_identical)
        );
        let _ = writeln!(
            out,
            "  ladder@{:<3}   {:>9} cycles  digest {:08x} ({}), {} sanitizer finding(s), limits {:?}",
            config.nreg,
            s.physical.cycles,
            s.physical.digest,
            gate(s.physical.digest == s.expected_digest
                && s.physical.halted
                && s.physical.sanitizer_violations == 0),
            s.physical.sanitizer_violations,
            s.physical_limits.iter().take(4).collect::<Vec<_>>()
        );
    }
    if let Some(path) = out_path {
        std::fs::write(&path, report.to_json().pretty() + "\n")
            .map_err(|e| format!("{path}: {e}"))?;
        let _ = writeln!(out, "wrote {path}");
    }
    if report.ok() {
        let _ = writeln!(out, "device family OK ({} scenario(s))", report.scenarios.len());
        Ok(())
    } else {
        Err("device family FAILED: report divergence, digest mismatch, stall or sanitizer finding".into())
    }
}

/// The `regbal serve` subcommand: the resident allocation server
/// (stdio or TCP), the seeded trace generator, and the trace-replay
/// benchmark client.
fn serve(args: Vec<String>, out: &mut String) -> Result<(), String> {
    enum Mode {
        Stdio,
        Listen(String),
        GenTrace(String),
        Replay(String),
        CheckConcurrent(String),
    }
    let mut mode: Option<Mode> = None;
    let mut server = ServeConfig::default();
    let mut trace_config = TraceConfig::default();
    let mut lines_path: Option<String> = None;
    let mut passes = 2usize;
    let mut window = 1usize;
    let mut paced = false;
    let mut verify = false;
    let mut sanitize = false;
    let mut metrics_summary = false;
    let mut clients = 3usize;
    let mut responses_path: Option<String> = None;
    let mut out_path: Option<String> = None;
    let set_mode = |m: Mode, current: &mut Option<Mode>| -> Result<(), String> {
        if current.is_some() {
            return Err(
                "pick exactly one of --stdio, --listen, --gen-trace, --replay, --check-concurrent"
                    .into(),
            );
        }
        *current = Some(m);
        Ok(())
    };
    fn parse<T: std::str::FromStr>(what: &str, v: String) -> Result<T, String>
    where
        T::Err: std::fmt::Display,
    {
        v.parse().map_err(|e| format!("{what}: {e}"))
    }
    let mut it = args.into_iter();
    while let Some(a) = it.next() {
        let mut value = |what: &str| it.next().ok_or(format!("{what} needs a value"));
        match a.as_str() {
            "--stdio" => set_mode(Mode::Stdio, &mut mode)?,
            "--listen" => {
                let addr = value("--listen")?;
                set_mode(Mode::Listen(addr), &mut mode)?;
            }
            "--gen-trace" => {
                let path = value("--gen-trace")?;
                set_mode(Mode::GenTrace(path), &mut mode)?;
            }
            "--replay" => {
                let path = value("--replay")?;
                set_mode(Mode::Replay(path), &mut mode)?;
            }
            "--check-concurrent" => {
                let path = value("--check-concurrent")?;
                set_mode(Mode::CheckConcurrent(path), &mut mode)?;
            }
            "--workers" => server.workers = parse("--workers", value("--workers")?)?,
            "--queue-cap" => server.queue_cap = parse("--queue-cap", value("--queue-cap")?)?,
            "--cache-cap" => server.cache_cap = parse("--cache-cap", value("--cache-cap")?)?,
            "--trajectory-cap" => {
                server.trajectory_cap = parse("--trajectory-cap", value("--trajectory-cap")?)?;
            }
            "--cache-dir" => server.cache_dir = Some(value("--cache-dir")?),
            "--cache-dir-cap" => {
                server.cache_dir_cap = parse("--cache-dir-cap", value("--cache-dir-cap")?)?;
            }
            "--deadline-ms" => {
                server.deadline_ms = parse("--deadline-ms", value("--deadline-ms")?)?;
            }
            "--shutdown-token" => server.shutdown_token = Some(value("--shutdown-token")?),
            "--faults" => {
                let plan = regbal_serve::FaultPlan::parse_spec(&value("--faults")?)?;
                server.faults = Some(std::sync::Arc::new(plan));
            }
            "--max-conns" => server.max_conns = parse("--max-conns", value("--max-conns")?)?,
            "--metrics" => metrics_summary = true,
            "--clients" => clients = parse("--clients", value("--clients")?)?,
            "--requests" => trace_config.requests = parse("--requests", value("--requests")?)?,
            "--seed" => trace_config.seed = parse("--seed", value("--seed")?)?,
            "--arrival" => trace_config.arrival = Arrival::parse(&value("--arrival")?)?,
            "--mean-gap-us" => {
                trace_config.mean_gap_us = parse("--mean-gap-us", value("--mean-gap-us")?)?;
            }
            "--packets" => trace_config.packets = parse("--packets", value("--packets")?)?,
            "--lines" => lines_path = Some(value("--lines")?),
            "--passes" => passes = parse("--passes", value("--passes")?)?,
            "--window" => window = parse("--window", value("--window")?)?,
            "--paced" => paced = true,
            "--verify" => verify = true,
            "--sanitize" => sanitize = true,
            "--responses" => responses_path = Some(value("--responses")?),
            "--out" => out_path = Some(value("--out")?),
            other => return Err(format!("unknown option `{other}`\n{USAGE}")),
        }
    }

    match mode.ok_or("pick one of --stdio, --listen, --gen-trace, --replay, --check-concurrent")? {
        Mode::Stdio => {
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
        Mode::Listen(addr) => {
            let mut announce = std::io::stderr();
            let metrics = regbal_serve::ServeMetrics::default();
            regbal_serve::serve_tcp_metered(&addr, &server, &mut announce, &metrics)
                .map_err(|e| format!("{addr}: {e}"))?;
            if metrics_summary {
                eprint!("{}", metrics.snapshot().summary(&metrics.connections()));
            }
            Ok(())
        }
        Mode::GenTrace(path) => {
            let file = TraceFile::generate(&trace_config);
            std::fs::write(&path, file.to_json().pretty())
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
                std::fs::write(&lines_path, text).map_err(|e| format!("{lines_path}: {e}"))?;
                let _ = writeln!(out, "wrote {lines_path} (ready-to-pipe request lines)");
            }
            Ok(())
        }
        Mode::Replay(path) => {
            let text = std::fs::read_to_string(&path).map_err(|e| format!("{path}: {e}"))?;
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
                    std::fs::write(&responses_path, text)
                        .map_err(|e| format!("{responses_path}: {e}"))?;
                    let _ = writeln!(out, "wrote {responses_path}");
                }
                if let Some(out_path) = out_path {
                    let doc = regbal_serve::chaos_json(&report);
                    std::fs::write(&out_path, doc.pretty())
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
            let config = ReplayConfig {
                serve: server,
                passes: passes.max(1),
                window,
                paced,
            };
            let metrics = regbal_serve::ServeMetrics::default();
            let reports = regbal_serve::replay_with_metrics(&trace, &config, &metrics)?;
            for (i, r) in reports.iter().enumerate() {
                let _ = writeln!(
                    out,
                    "pass {i} ({}): {} requests in {} us, p50 {} us, p99 {} us, {:.0} req/s, {} hit(s), {} miss(es)",
                    if i == 0 { "cold" } else { "warm" },
                    trace.requests.len(),
                    r.wall_us,
                    r.p50_us,
                    r.p99_us,
                    r.rps,
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
                std::fs::write(&responses_path, text)
                    .map_err(|e| format!("{responses_path}: {e}"))?;
                let _ = writeln!(out, "wrote {responses_path}");
            }
            if let Some(out_path) = out_path {
                let doc = Json::Obj(vec![
                    ("schema".into(), Json::str("regbal-serve-bench/2")),
                    ("trace".into(), Json::str(path.clone())),
                    ("requests".into(), Json::uint(trace.requests.len() as u64)),
                    ("workers".into(), Json::uint(config.serve.workers as u64)),
                    ("window".into(), Json::uint(window as u64)),
                    (
                        "passes".into(),
                        Json::Arr(reports.iter().map(regbal_serve::pass_json).collect()),
                    ),
                    ("metrics".into(), metrics.snapshot().to_json()),
                ]);
                std::fs::write(&out_path, doc.pretty()).map_err(|e| format!("{out_path}: {e}"))?;
                let _ = writeln!(out, "wrote {out_path}");
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
            check_cache_dir_cap(&config.serve, out)?;
            Ok(())
        }
        Mode::CheckConcurrent(path) => {
            let text = std::fs::read_to_string(&path).map_err(|e| format!("{path}: {e}"))?;
            let trace = TraceFile::from_text(&text).map_err(|e| format!("{path}: {e}"))?;
            check_concurrent(&trace, &server, clients.max(1), metrics_summary, out)
        }
    }
}

/// The `regbal fuzz` subcommand: walks the deterministic stress-fuzz
/// case sequence ([`regbal::fuzz::FuzzCase::from_index`]) under a time
/// or case budget, checking every case against the full ladder
/// contract. Failing cases are minimized, reported, and appended to
/// `--archive` for permanent replay; any failure makes the run exit
/// non-zero. `--minimize <file>` skips the walk and re-minimizes an
/// existing archive in place instead.
fn fuzz(args: Vec<String>, out: &mut String) -> Result<(), String> {
    let mut seconds = 5u64;
    let mut start = 0u64;
    let mut cases: Option<u64> = None;
    let mut archive: Option<String> = None;
    let mut reminimize: Option<String> = None;
    let mut it = args.into_iter();
    while let Some(a) = it.next() {
        let mut value = |what: &str| it.next().ok_or(format!("{what} needs a value"));
        match a.as_str() {
            "--seconds" => {
                seconds = value("--seconds")?
                    .parse()
                    .map_err(|e| format!("--seconds: {e}"))?;
            }
            "--start-seed" => {
                start = value("--start-seed")?
                    .parse()
                    .map_err(|e| format!("--start-seed: {e}"))?;
            }
            "--cases" => {
                cases = Some(
                    value("--cases")?
                        .parse()
                        .map_err(|e| format!("--cases: {e}"))?,
                );
            }
            "--archive" => archive = Some(value("--archive")?),
            "--minimize" => reminimize = Some(value("--minimize")?),
            other => return Err(format!("unknown option `{other}`\n{USAGE}")),
        }
    }
    if let Some(path) = reminimize {
        return minimize_archive(&path, out);
    }
    let started = std::time::Instant::now();
    let budget = std::time::Duration::from_secs(seconds);
    let mut checked = 0u64;
    let mut failures: Vec<(String, String, String)> = Vec::new();
    let mut index = start;
    loop {
        let done = match cases {
            Some(n) => checked >= n,
            None => checked > 0 && started.elapsed() >= budget,
        };
        if done {
            break;
        }
        let case = regbal::fuzz::FuzzCase::from_index(index);
        if let Err(e) = case.check() {
            let _ = writeln!(out, "FAIL {}: {e}", case.line());
            let min = case.minimize();
            if min.line() != case.line() {
                let _ = writeln!(out, "  minimized to {}", min.line());
            }
            failures.push((case.line(), min.line(), e));
        }
        checked += 1;
        index += 1;
    }
    if let Some(path) = &archive {
        if !failures.is_empty() {
            let mut text = String::new();
            for (found, line, error) in &failures {
                let _ = writeln!(text, "# {error}");
                if found != line {
                    let _ = writeln!(text, "# found as {found}");
                }
                let _ = writeln!(text, "{line}");
            }
            use std::io::Write as IoWrite;
            let mut file = std::fs::OpenOptions::new()
                .create(true)
                .append(true)
                .open(path)
                .map_err(|e| format!("{path}: {e}"))?;
            file.write_all(text.as_bytes())
                .map_err(|e| format!("{path}: {e}"))?;
            let _ = writeln!(out, "archived {} failing case(s) to {path}", failures.len());
        }
    }
    let _ = writeln!(
        out,
        "fuzz: {checked} case(s) from index {start} in {:.1}s, {} failure(s)",
        started.elapsed().as_secs_f64(),
        failures.len()
    );
    if failures.is_empty() {
        Ok(())
    } else {
        Err(format!(
            "fuzz: {} of {checked} case(s) violated the ladder contract",
            failures.len()
        ))
    }
}

/// `regbal fuzz --minimize <file>`: re-runs the deterministic minimizer
/// over every case line of an existing archive and rewrites the file in
/// place. Comment lines survive untouched; a case that now passes its
/// contract (or is already minimal) is kept verbatim, so re-minimizing
/// a healthy corpus is the identity.
fn minimize_archive(path: &str, out: &mut String) -> Result<(), String> {
    let text = std::fs::read_to_string(path).map_err(|e| format!("{path}: {e}"))?;
    let mut rewritten = String::new();
    let mut seen = 0usize;
    let mut shrunk = 0usize;
    for raw in text.lines() {
        let line = raw.trim();
        if line.is_empty() || line.starts_with('#') {
            let _ = writeln!(rewritten, "{raw}");
            continue;
        }
        let case = regbal::fuzz::FuzzCase::parse(line).map_err(|e| format!("{path}: {line}: {e}"))?;
        let min = case.minimize();
        seen += 1;
        if min.line() != line {
            shrunk += 1;
            let _ = writeln!(out, "{line}  ->  {}", min.line());
        }
        let _ = writeln!(rewritten, "{}", min.line());
    }
    if rewritten != text {
        std::fs::write(path, rewritten).map_err(|e| format!("{path}: {e}"))?;
    }
    let _ = writeln!(out, "minimize: {seen} case(s) in {path}, {shrunk} shrunk");
    Ok(())
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

fn format_stats(stats: &EngineStats) -> String {
    let mut s = String::new();
    let _ = writeln!(
        s,
        "engine: {} iteration(s), {} candidate(s) evaluated, {} from cache",
        stats.iterations, stats.evaluated, stats.cached
    );
    let us = |d: std::time::Duration| d.as_secs_f64() * 1e6;
    let _ = writeln!(
        s,
        "engine: init {:.1}us, search {:.1}us, verify {:.1}us, total {:.1}us",
        us(stats.init),
        us(stats.search),
        us(stats.verify),
        us(stats.total)
    );
    s
}

fn run(args: Vec<String>, out: &mut String) -> Result<(), String> {
    let mut cycles = 1_000_000u64;
    let mut iterations: Option<u64> = None;
    let mut trace: Option<usize> = None;
    let mut sanitize = false;
    let mut files = Vec::new();
    let mut it = args.into_iter();
    while let Some(a) = it.next() {
        match a.as_str() {
            "--sanitize" => sanitize = true,
            "--trace" => {
                trace = Some(
                    it.next()
                        .ok_or("--trace needs a value")?
                        .parse()
                        .map_err(|e| format!("--trace: {e}"))?,
                );
            }
            "--cycles" => {
                cycles = it
                    .next()
                    .ok_or("--cycles needs a value")?
                    .parse()
                    .map_err(|e| format!("--cycles: {e}"))?;
            }
            "--iterations" => {
                iterations = Some(
                    it.next()
                        .ok_or("--iterations needs a value")?
                        .parse()
                        .map_err(|e| format!("--iterations: {e}"))?,
                );
            }
            f if !f.starts_with('-') => files.push(f.to_string()),
            other => return Err(format!("unknown option `{other}`\n{USAGE}")),
        }
    }
    let funcs = load(&files)?;
    let mut sim = Simulator::new(SimConfig::default());
    if let Some(n) = trace {
        sim.enable_trace(n);
    }
    if sanitize {
        // No bank layout is known for hand-written input: bank checks
        // are skipped, clobber and uninitialized-read checks run.
        sim.enable_sanitizer(SanitizerConfig::default());
    }
    for f in &funcs {
        sim.add_thread(f.clone());
    }
    let stop = match iterations {
        Some(n) => StopWhen::Iterations(n),
        None => StopWhen::Cycles(cycles),
    };
    let report = sim.run(stop);
    let _ = writeln!(out, "cycles: {} (idle {})", report.cycles, report.idle_cycles);
    for (i, t) in report.threads.iter().enumerate() {
        let _ = writeln!(
            out,
            "thread {i} `{}`: {} instructions, {} iterations, {} switches, {:.0}% busy{}{}",
            funcs[i].name,
            t.instructions,
            t.iterations,
            t.ctx_switches,
            100.0 * t.busy_cycles as f64 / report.cycles.max(1) as f64,
            if t.halted { ", halted" } else { "" },
            if t.cycles_per_iteration.is_finite() {
                format!(", {:.0} cycles/iteration", t.cycles_per_iteration)
            } else {
                String::new()
            }
        );
    }
    if !report.violations.is_empty() {
        let _ = writeln!(out, "REGISTER-SAFETY VIOLATIONS: {}", report.violations.len());
    }
    let sanitizer_violations = report.sanitizer_violations().count();
    if !report.sanitizer.is_empty() {
        let _ = writeln!(
            out,
            "sanitizer: {} violation(s), {} warning(s)",
            sanitizer_violations,
            report.sanitizer.len() - sanitizer_violations
        );
        for r in &report.sanitizer {
            let _ = writeln!(out, "  {r}");
        }
        if report.sanitizer_dropped > 0 {
            let _ = writeln!(
                out,
                "  ({} further report(s) dropped)",
                report.sanitizer_dropped
            );
        }
    }
    for event in sim.trace() {
        let _ = writeln!(out, "{event:?}");
    }
    if report.trace_dropped > 0 {
        let _ = writeln!(
            out,
            "({} trace event(s) dropped; raise --trace to keep more)",
            report.trace_dropped
        );
    }
    if let Some(err) = &report.error {
        return Err(err.to_string());
    }
    if sanitizer_violations > 0 {
        return Err(format!(
            "sanitizer reported {sanitizer_violations} violation(s)"
        ));
    }
    Ok(())
}

fn dot(args: Vec<String>, out: &mut String) -> Result<(), String> {
    let mut interference = false;
    let mut files = Vec::new();
    for a in args {
        match a.as_str() {
            "--ig" => interference = true,
            f if !f.starts_with('-') => files.push(f.to_string()),
            other => return Err(format!("unknown option `{other}`
{USAGE}")),
        }
    }
    for func in load(&files)? {
        if interference {
            let info = ProgramInfo::compute(&func);
            let gig = regbal_igraph::build_gig(&info);
            let labels: Vec<String> = (0..info.num_vregs())
                .map(|v| {
                    if info.boundary.contains(v) {
                        format!("v{v}*")
                    } else {
                        format!("v{v}")
                    }
                })
                .collect();
            let est = estimate_bounds(&info);
            out.push_str(&gig.to_dot(&func.name, &labels, Some(&est.coloring)));
        } else {
            out.push_str(&func.to_dot());
        }
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    fn write_temp(name: &str, content: &str) -> String {
        let path = std::env::temp_dir().join(format!("regbal-cli-{}-{name}", std::process::id()));
        std::fs::write(&path, content).unwrap();
        path.to_string_lossy().into_owned()
    }

    const PROG: &str = "func t {\nbb0:\n v0 = mov 64\n v1 = load sram[v0+0]\n v1 = add v1, 1\n store sram[v0+0], v1\n iter_end\n halt\n}";

    #[test]
    fn help_prints_usage() {
        let mut out = String::new();
        run_cli(&[], &mut out).unwrap();
        assert!(out.contains("USAGE"));
        let mut out = String::new();
        run_cli(&["help".into()], &mut out).unwrap();
        assert!(out.contains("alloc"));
    }

    #[test]
    fn unknown_command_errors() {
        let mut out = String::new();
        let err = run_cli(&["frobnicate".into()], &mut out).unwrap_err();
        assert!(err.contains("unknown command"));
    }

    #[test]
    fn device_has_no_os_threads_option() {
        let mut out = String::new();
        let args = ["device", "--os-threads", "4"].map(String::from);
        let err = run_cli(&args, &mut out).unwrap_err();
        assert!(err.contains("unknown option `--os-threads`"), "{err}");
    }

    #[test]
    fn analyze_reports_bounds() {
        let path = write_temp("analyze.rba", PROG);
        let mut out = String::new();
        run_cli(&["analyze".into(), path], &mut out).unwrap();
        assert!(out.contains("function `t`"), "{out}");
        assert!(out.contains("MinPR="), "{out}");
    }

    #[test]
    fn alloc_prints_physical_code() {
        let path = write_temp("alloc.rba", PROG);
        let mut out = String::new();
        run_cli(
            &["alloc".into(), "--nreg".into(), "8".into(), path],
            &mut out,
        )
        .unwrap();
        assert!(out.contains("PR="), "{out}");
        assert!(out.contains("r0"), "{out}");
        assert!(!out.contains("v0"), "no virtual registers left: {out}");
    }

    #[test]
    fn alloc_quiet_suppresses_code() {
        let path = write_temp("quiet.rba", PROG);
        let mut out = String::new();
        run_cli(
            &["alloc".into(), "--quiet".into(), path],
            &mut out,
        )
        .unwrap();
        assert!(out.contains("demand"), "{out}");
        assert!(!out.contains("bb0:"), "{out}");
    }

    #[test]
    fn alloc_stats_prints_engine_counters() {
        let path = write_temp("stats.rba", PROG);
        let mut out = String::new();
        run_cli(
            &["alloc".into(), "--stats".into(), "--quiet".into(), path],
            &mut out,
        )
        .unwrap();
        assert!(out.contains("candidate(s) evaluated"), "{out}");
        assert!(out.contains("total"), "{out}");
        assert!(!out.contains("naive engine"), "{out}");
    }

    #[test]
    fn alloc_min_reports_moves() {
        let path = write_temp("min.rba", PROG);
        let mut out = String::new();
        run_cli(&["alloc".into(), "--min".into(), path], &mut out).unwrap();
        assert!(out.contains("move(s)"), "{out}");
    }

    #[test]
    fn alloc_infeasible_is_an_error_and_spill_rescues_it() {
        // Two hungry threads cannot share 4 registers...
        let hungry = "func h {\nbb0:\n v0 = mov 1\n v1 = mov 2\n v2 = mov 3\n ctx\n v3 = add v0, v1\n v3 = add v3, v2\n store scratch[v3+0], v3\n halt\n}";
        let p0 = write_temp("h0.rba", hungry);
        let p1 = write_temp("h1.rba", hungry);
        let mut out = String::new();
        let err = run_cli(
            &["alloc".into(), "--nreg".into(), "4".into(), p0.clone(), p1.clone()],
            &mut out,
        )
        .unwrap_err();
        assert!(err.contains("cannot fit"), "{err}");
        // ...unless spilling is allowed.
        let mut out = String::new();
        run_cli(
            &[
                "alloc".into(),
                "--nreg".into(),
                "4".into(),
                "--spill".into(),
                "--quiet".into(),
                p0,
                p1,
            ],
            &mut out,
        )
        .unwrap();
        assert!(out.contains("spills="), "{out}");
    }

    #[test]
    fn alloc_json_emits_the_shared_schema() {
        let path = write_temp("json.rba", PROG);
        let mut out = String::new();
        run_cli(
            &["alloc".into(), "--json".into(), "--nreg".into(), "8".into(), path.clone()],
            &mut out,
        )
        .unwrap();
        let doc = regbal_eval::json::parse(&out).expect("valid JSON");
        assert_eq!(
            doc.get("schema").and_then(regbal_eval::Json::as_str),
            Some("regbal-alloc/1")
        );
        assert_eq!(
            doc.get("strategy").and_then(regbal_eval::Json::as_str),
            Some("balanced")
        );
        assert_eq!(doc.get("nreg").and_then(|n| n.as_u64()), Some(8));
        let threads = doc.get("threads").and_then(regbal_eval::Json::as_arr).unwrap();
        assert_eq!(threads.len(), 1);
        for key in ["name", "pr", "sr", "moves", "spills"] {
            assert!(threads[0].get(key).is_some(), "thread object has `{key}`");
        }
        assert!(
            doc.get("engine").is_none(),
            "the default document is deterministic — engine timings are opt-in"
        );
        assert!(!out.contains("bb0:"), "no code with --json: {out}");

        // --stats opts the wall-clock engine member back in.
        let mut out = String::new();
        run_cli(
            &[
                "alloc".into(),
                "--json".into(),
                "--stats".into(),
                "--nreg".into(),
                "8".into(),
                path.clone(),
            ],
            &mut out,
        )
        .unwrap();
        let doc = regbal_eval::json::parse(&out).unwrap();
        let engine = doc.get("engine").expect("--stats adds engine");
        assert!(engine.get("total_us").is_some());

        // The spill variant uses the same thread schema, no engine.
        let mut out = String::new();
        run_cli(
            &[
                "alloc".into(),
                "--json".into(),
                "--spill".into(),
                "--nreg".into(),
                "8".into(),
                path,
            ],
            &mut out,
        )
        .unwrap();
        let doc = regbal_eval::json::parse(&out).unwrap();
        assert_eq!(
            doc.get("strategy").and_then(regbal_eval::Json::as_str),
            Some("balanced-spill")
        );
        assert!(doc.get("engine").is_none());
    }

    #[test]
    fn alloc_ladder_succeeds_where_plain_alloc_fails() {
        let hungry = "func h {\nbb0:\n v0 = mov 1\n v1 = mov 2\n v2 = mov 3\n ctx\n v3 = add v0, v1\n v3 = add v3, v2\n store scratch[v3+0], v3\n halt\n}";
        let p0 = write_temp("lad0.rba", hungry);
        let p1 = write_temp("lad1.rba", hungry);
        let args = |extra: &[&str]| -> Vec<String> {
            ["alloc", "--nreg", "4", "--ladder"]
                .iter()
                .copied()
                .chain(extra.iter().copied())
                .map(String::from)
                .chain([p0.clone(), p1.clone()])
                .collect()
        };
        let mut out = String::new();
        run_cli(&args(&["--quiet"]), &mut out).unwrap();
        assert!(
            out.contains("degraded: balanced -> balanced-scratch"),
            "{out}"
        );
        assert!(out.contains("rung `"), "{out}");
        assert!(!out.contains("rung `balanced`"), "a fallback rung settled: {out}");

        let mut out = String::new();
        run_cli(&args(&["--json"]), &mut out).unwrap();
        let doc = regbal_eval::json::parse(&out).expect("valid JSON");
        assert_eq!(
            doc.get("strategy").and_then(regbal_eval::Json::as_str),
            Some("ladder")
        );
        let ladder = doc.get("ladder").expect("ladder member");
        assert!(ladder.get("degraded").and_then(|v| v.as_u64()).unwrap() >= 1);
        let degradations = ladder
            .get("degradations")
            .and_then(regbal_eval::Json::as_arr)
            .unwrap();
        assert!(!degradations.is_empty());
        for d in degradations {
            for key in ["from", "to", "code", "reason"] {
                assert!(d.get(key).is_some(), "degradation object has `{key}`");
            }
        }
    }

    #[test]
    fn alloc_ladder_is_quiet_about_a_clean_fit() {
        let path = write_temp("lad-clean.rba", PROG);
        let mut out = String::new();
        run_cli(
            &["alloc".into(), "--ladder".into(), "--quiet".into(), path],
            &mut out,
        )
        .unwrap();
        assert!(out.contains("rung `balanced`, 0 degradation(s)"), "{out}");
        assert!(!out.contains("degraded:"), "{out}");
    }

    #[test]
    fn alloc_ladder_rejects_conflicting_flags() {
        let err = run_cli(
            &["alloc".into(), "--ladder".into(), "--spill".into()],
            &mut String::new(),
        )
        .unwrap_err();
        assert!(err.contains("--ladder"), "{err}");
        let err = run_cli(
            &["alloc".into(), "--ladder".into(), "--min".into()],
            &mut String::new(),
        )
        .unwrap_err();
        assert!(err.contains("--ladder"), "{err}");
    }

    #[test]
    fn alloc_json_rejects_min() {
        let err = run_cli(
            &["alloc".into(), "--json".into(), "--min".into()],
            &mut String::new(),
        )
        .unwrap_err();
        assert!(err.contains("--json"), "{err}");
    }

    #[test]
    fn run_simulates_and_reports() {
        let path = write_temp("run.rba", PROG);
        let mut out = String::new();
        run_cli(
            &["run".into(), "--cycles".into(), "10000".into(), path],
            &mut out,
        )
        .unwrap();
        assert!(out.contains("cycles:"), "{out}");
        assert!(out.contains("halted"), "{out}");
    }

    #[test]
    fn run_sanitize_flags_a_cross_thread_clobber() {
        // Thread `a` parks 41 in r0 across the `ctx`; thread `b`
        // overwrites r0 while `a` is switched out.
        let a = write_temp(
            "san-a.rba",
            "func a {\nbb0:\n r0 = mov 41\n ctx\n r1 = add r0, 1\n store scratch[r1+0], r1\n halt\n}",
        );
        let b = write_temp(
            "san-b.rba",
            "func b {\nbb0:\n r0 = mov 7\n store scratch[r0+8], r0\n halt\n}",
        );
        let mut out = String::new();
        let err = run_cli(
            &["run".into(), "--sanitize".into(), a.clone(), b.clone()],
            &mut out,
        )
        .unwrap_err();
        assert!(err.contains("violation"), "{err}");
        assert!(out.contains("clobber: r0"), "{out}");

        // Without --sanitize the same program runs silently.
        let mut out = String::new();
        run_cli(&["run".into(), a, b], &mut out).unwrap();
        assert!(!out.contains("sanitizer"), "{out}");
    }

    #[test]
    fn run_sanitize_warns_on_uninitialized_reads_without_failing() {
        let path = write_temp(
            "san-uninit.rba",
            "func u {\nbb0:\n r1 = add r5, 1\n store scratch[r1+0], r1\n halt\n}",
        );
        let mut out = String::new();
        run_cli(&["run".into(), "--sanitize".into(), path], &mut out).unwrap();
        assert!(out.contains("1 warning(s)"), "{out}");
        assert!(out.contains("never-written"), "{out}");
    }

    #[test]
    fn fuzz_runs_a_fixed_case_budget_deterministically() {
        let mut out = String::new();
        run_cli(
            &[
                "fuzz".into(),
                "--cases".into(),
                "3".into(),
                "--start-seed".into(),
                "6".into(),
            ],
            &mut out,
        )
        .unwrap();
        assert!(out.contains("3 case(s) from index 6"), "{out}");
        assert!(out.contains("0 failure(s)"), "{out}");
    }

    #[test]
    fn fuzz_minimize_rewrites_an_archive_and_keeps_comments() {
        // A healthy corpus (every case passes its contract) re-minimizes
        // to itself: the minimizer never touches a passing case.
        let corpus = "# pinned starter case\nseed=16294208416658607535 class=csb-dense threads=2 nreg=8\n";
        let path = write_temp("fuzz-min.txt", corpus);
        let mut out = String::new();
        run_cli(&["fuzz".into(), "--minimize".into(), path.clone()], &mut out).unwrap();
        assert!(out.contains("1 case(s)"), "{out}");
        assert!(out.contains("0 shrunk"), "{out}");
        let after = std::fs::read_to_string(&path).unwrap();
        assert_eq!(after, corpus, "identity re-minimization must not rewrite");
    }

    #[test]
    fn fuzz_minimize_rejects_a_malformed_archive_line() {
        let path = write_temp("fuzz-min-bad.txt", "seed=1 class=warp threads=2 nreg=8\n");
        let err = run_cli(
            &["fuzz".into(), "--minimize".into(), path],
            &mut String::new(),
        )
        .unwrap_err();
        assert!(err.contains("class"), "{err}");
    }

    #[test]
    fn missing_file_errors_cleanly() {
        let mut out = String::new();
        let err = run_cli(
            &["analyze".into(), "/nonexistent/x.rba".into()],
            &mut out,
        )
        .unwrap_err();
        assert!(err.contains("/nonexistent/x.rba"));
    }

    #[test]
    fn bad_option_value_errors() {
        let err = run_cli(
            &["alloc".into(), "--nreg".into(), "lots".into()],
            &mut String::new(),
        )
        .unwrap_err();
        assert!(err.contains("--nreg"));
    }
}

#[cfg(test)]
mod serve_tests {
    use super::*;

    fn temp(name: &str) -> String {
        std::env::temp_dir()
            .join(format!("regbal-cli-serve-{}-{name}", std::process::id()))
            .to_string_lossy()
            .into_owned()
    }

    #[test]
    fn serve_requires_exactly_one_mode() {
        let err = run_cli(&["serve".into()], &mut String::new()).unwrap_err();
        assert!(err.contains("--stdio"), "{err}");
        let err = run_cli(
            &["serve".into(), "--stdio".into(), "--replay".into(), "x".into()],
            &mut String::new(),
        )
        .unwrap_err();
        assert!(err.contains("exactly one"), "{err}");
    }

    #[test]
    fn gen_trace_writes_a_round_tripping_file_and_request_lines() {
        let trace_path = temp("trace.json");
        let lines_path = temp("lines.txt");
        let mut out = String::new();
        run_cli(
            &[
                "serve".into(),
                "--gen-trace".into(),
                trace_path.clone(),
                "--requests".into(),
                "10".into(),
                "--seed".into(),
                "7".into(),
                "--arrival".into(),
                "bursty".into(),
                "--lines".into(),
                lines_path.clone(),
            ],
            &mut out,
        )
        .unwrap();
        assert!(out.contains("10 requests"), "{out}");
        let text = std::fs::read_to_string(&trace_path).unwrap();
        let trace = TraceFile::from_text(&text).unwrap();
        assert_eq!(trace.requests.len(), 10);
        assert_eq!(trace.seed, 7);
        let lines = std::fs::read_to_string(&lines_path).unwrap();
        assert_eq!(lines.lines().count(), 10);
        for line in lines.lines() {
            match regbal_serve::parse_request(line) {
                regbal_serve::Request::Alloc(Ok(_)) => {}
                other => panic!("generated line did not parse: {other:?}"),
            }
        }
    }

    #[test]
    fn replay_reports_passes_verifies_and_writes_artifacts() {
        let trace_path = temp("replay-trace.json");
        run_cli(
            &[
                "serve".into(),
                "--gen-trace".into(),
                trace_path.clone(),
                "--requests".into(),
                "6".into(),
            ],
            &mut String::new(),
        )
        .unwrap();
        let responses_path = temp("responses.txt");
        let bench_path = temp("bench.json");
        let mut out = String::new();
        run_cli(
            &[
                "serve".into(),
                "--replay".into(),
                trace_path,
                "--passes".into(),
                "2".into(),
                "--workers".into(),
                "2".into(),
                "--verify".into(),
                "--responses".into(),
                responses_path.clone(),
                "--out".into(),
                bench_path.clone(),
            ],
            &mut out,
        )
        .unwrap();
        assert!(out.contains("pass 0 (cold)"), "{out}");
        assert!(out.contains("pass 1 (warm)"), "{out}");
        assert!(out.contains("0 miss(es)"), "warm pass all hits: {out}");
        assert!(out.contains("byte-identical to one-shot"), "{out}");
        let responses = std::fs::read_to_string(&responses_path).unwrap();
        assert_eq!(responses.lines().count(), 12, "6 requests x 2 passes");
        let bench = regbal_eval::json::parse(&std::fs::read_to_string(&bench_path).unwrap()).unwrap();
        assert_eq!(
            bench.get("schema").and_then(Json::as_str),
            Some("regbal-serve-bench/2")
        );
        assert_eq!(
            bench.get("passes").and_then(Json::as_arr).map(<[Json]>::len),
            Some(2)
        );
        let metrics = bench.get("metrics").expect("the /2 report carries metrics");
        assert!(metrics.get("queue_depth_high_water").and_then(Json::as_u64).is_some());
        assert!(metrics.get("pool_tasks").and_then(Json::as_u64).is_some());
    }

    #[test]
    fn replay_with_faults_runs_the_chaos_harness_and_audits_the_cap() {
        let dir = std::env::temp_dir().join(format!("regbal-cli-chaos-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).unwrap();
        let trace_path = dir.join("trace.json");
        let cache_dir = dir.join("cache");
        let chaos_path = dir.join("chaos.json");
        run_cli(
            &[
                "serve".into(),
                "--gen-trace".into(),
                trace_path.to_string_lossy().into_owned(),
                "--requests".into(),
                "8".into(),
            ],
            &mut String::new(),
        )
        .unwrap();
        let mut out = String::new();
        run_cli(
            &[
                "serve".into(),
                "--replay".into(),
                trace_path.to_string_lossy().into_owned(),
                "--faults".into(),
                "seed=5,write_fail=250,read_corrupt=250,disconnect=200".into(),
                "--cache-dir".into(),
                cache_dir.to_string_lossy().into_owned(),
                "--cache-dir-cap".into(),
                "1000000".into(),
                "--verify".into(),
                "--out".into(),
                chaos_path.to_string_lossy().into_owned(),
            ],
            &mut out,
        )
        .unwrap();
        assert!(out.contains("all answered"), "{out}");
        assert!(out.contains("healing pass served the baseline"), "{out}");
        assert!(out.contains("byte-identical to one-shot"), "{out}");
        assert!(out.contains("gc:"), "the cap audit must report: {out}");
        let doc =
            regbal_eval::json::parse(&std::fs::read_to_string(&chaos_path).unwrap()).unwrap();
        assert_eq!(
            doc.get("schema").and_then(Json::as_str),
            Some("regbal-serve-chaos/1")
        );
        assert_eq!(doc.get("answered").and_then(Json::as_u64), Some(8));
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn check_concurrent_passes_and_restarts_warm() {
        let dir = std::env::temp_dir().join(format!("regbal-cli-chk-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        let trace_path = dir.join("trace.json");
        let cache_dir = dir.join("cache");
        std::fs::create_dir_all(&dir).unwrap();
        let mut out = String::new();
        run_cli(
            &[
                "serve".into(),
                "--gen-trace".into(),
                trace_path.to_string_lossy().into_owned(),
                "--requests".into(),
                "18".into(),
                "--seed".into(),
                "7".into(),
            ],
            &mut out,
        )
        .unwrap();
        let mut out = String::new();
        run_cli(
            &[
                "serve".into(),
                "--check-concurrent".into(),
                trace_path.to_string_lossy().into_owned(),
                "--clients".into(),
                "3".into(),
                "--workers".into(),
                "2".into(),
                "--cache-dir".into(),
                cache_dir.to_string_lossy().into_owned(),
                "--metrics".into(),
            ],
            &mut out,
        )
        .unwrap();
        assert!(
            out.contains("byte-identical to sequential service"),
            "{out}"
        );
        assert!(out.contains("restarted server answered warm"), "{out}");
        assert!(out.contains("queue high-water"), "{out}");
        let _ = std::fs::remove_dir_all(&dir);
    }
}

#[cfg(test)]
mod subroutine_tests {
    use super::*;

    #[test]
    fn subroutines_are_inlined_and_roots_become_threads() {
        let src = "
func rx {
bb0:
    v0 = mov 64
    call checksum
    store scratch[v0+0], v1
    halt
}
func tx {
bb0:
    v0 = mov 128
    call checksum
    store scratch[v0+0], v1
    halt
}
func checksum {
bb0:
    v1 = load sram[v0+0]
    v1 = add v1, 7
    halt
}";
        let path = std::env::temp_dir().join(format!("regbal-cli-sub-{}.rba", std::process::id()));
        std::fs::write(&path, src).unwrap();
        let mut out = String::new();
        run_cli(
            &["analyze".into(), path.to_string_lossy().into_owned()],
            &mut out,
        )
        .unwrap();
        assert!(out.contains("function `rx`"), "{out}");
        assert!(out.contains("function `tx`"), "{out}");
        assert!(!out.contains("function `checksum`"), "subroutine inlined: {out}");
    }
}

#[cfg(test)]
mod dot_and_trace_tests {
    use super::*;

    const PROG2: &str = "func t {\nbb0:\n v0 = mov 64\n v1 = load sram[v0+0]\n ctx\n store sram[v0+0], v1\n iter_end\n halt\n}";

    fn temp(name: &str) -> String {
        let path = std::env::temp_dir().join(format!("regbal-cli2-{}-{name}", std::process::id()));
        std::fs::write(&path, PROG2).unwrap();
        path.to_string_lossy().into_owned()
    }

    #[test]
    fn dot_cfg_output() {
        let path = temp("cfg.rba");
        let mut out = String::new();
        run_cli(&["dot".into(), path], &mut out).unwrap();
        assert!(out.starts_with("digraph"), "{out}");
        assert!(out.contains("bb0"), "{out}");
    }

    #[test]
    fn dot_interference_output() {
        let path = temp("ig.rba");
        let mut out = String::new();
        run_cli(&["dot".into(), "--ig".into(), path], &mut out).unwrap();
        assert!(out.starts_with("graph"), "{out}");
        assert!(out.contains("v0*"), "boundary marker: {out}");
    }

    #[test]
    fn run_trace_prints_events() {
        let path = temp("trace.rba");
        let mut out = String::new();
        run_cli(
            &["run".into(), "--trace".into(), "16".into(), path],
            &mut out,
        )
        .unwrap();
        assert!(out.contains("Switch"), "{out}");
        assert!(out.contains("MemIssue"), "{out}");
    }

    #[test]
    fn run_reports_dropped_trace_events() {
        let path = temp("drop.rba");
        let mut out = String::new();
        run_cli(
            &["run".into(), "--trace".into(), "1".into(), path],
            &mut out,
        )
        .unwrap();
        assert!(out.contains("dropped"), "{out}");
    }
}

#[cfg(test)]
mod eval_tests {
    use super::*;

    fn temp_report(name: &str) -> String {
        std::env::temp_dir()
            .join(format!("regbal-cli-eval-{}-{name}.json", std::process::id()))
            .to_string_lossy()
            .into_owned()
    }

    #[test]
    fn eval_smoke_writes_a_validating_report() {
        let path = temp_report("smoke");
        let mut out = String::new();
        run_cli(
            &[
                "eval".into(),
                "--smoke".into(),
                "--packets".into(),
                "2".into(),
                "--out".into(),
                path.clone(),
            ],
            &mut out,
        )
        .unwrap();
        assert!(out.contains("wrote"), "{out}");
        assert!(out.contains("fixed-partition"), "{out}");

        let mut out = String::new();
        run_cli(&["eval".into(), "--validate".into(), path], &mut out).unwrap();
        assert!(out.contains("OK"), "{out}");
    }

    #[test]
    fn eval_sanitize_smoke_is_clean_and_round_trips() {
        let path = temp_report("sanitize");
        let mut out = String::new();
        run_cli(
            &[
                "eval".into(),
                "--smoke".into(),
                "--sanitize".into(),
                "--packets".into(),
                "2".into(),
                "--nreg".into(),
                "48".into(),
                "--out".into(),
                path.clone(),
            ],
            &mut out,
        )
        .unwrap();
        assert!(
            out.contains("sanitizer: 0 violation(s), 0 warning(s)"),
            "{out}"
        );
        let text = std::fs::read_to_string(&path).unwrap();
        assert!(text.contains("\"sanitizer_violations\""), "{text}");

        let mut out = String::new();
        run_cli(&["eval".into(), "--validate".into(), path], &mut out).unwrap();
        assert!(out.contains("OK"), "{out}");
    }

    #[test]
    fn eval_validate_rejects_garbage() {
        let path = temp_report("garbage");
        std::fs::write(&path, "{\"schema\": \"something-else\"}").unwrap();
        let err = run_cli(
            &["eval".into(), "--validate".into(), path],
            &mut String::new(),
        )
        .unwrap_err();
        assert!(err.contains("schema"), "{err}");
    }

    #[test]
    fn eval_rejects_bad_nreg_list() {
        let err = run_cli(
            &["eval".into(), "--nreg".into(), "48,many".into()],
            &mut String::new(),
        )
        .unwrap_err();
        assert!(err.contains("--nreg"), "{err}");
    }
}
