//! The two serving workloads.
//!
//! * `serve-cold` — rounds of a seeded trace, each against a fresh
//!   in-process server over an empty `--cache-dir`: the allocator
//!   pipeline and the disk *writes* do the work.
//! * `serve-warm` — restarts of a fresh server over a directory the
//!   set-up populated: pass 0 of each restart is answered from disk
//!   (*reads*), the later passes from memory, so protocol parsing,
//!   hashing, the cache tiers and JSON framing do the work and the
//!   allocator is bypassed.
//!
//! The load is a closed loop — one client keeps [`WINDOW`] requests in
//! flight, because build jobs wait for their reply — over the server's
//! own in-process pipe transport.

use crate::layers;
use crate::metrics::{self, Run, VERDICT_CODES};
use crate::timing::Timing;
use crate::trace::Tracer;
use crate::Args;
use regbal_core::verify;
use regbal_eval::{json, Json};
use regbal_ir::{inline_module, parse_module, Func, Inst};
use regbal_serve::oneshot::AllocFailure;
use regbal_serve::proto::{self, Source};
use regbal_serve::replay::{pipe, PipeReader, PipeWriter};
use regbal_serve::{
    content_hash, hash_hex, materialize, parse_request, request_line, serve_lines_metered,
    verdict_doc, DiskRead, DiskStore, MaterializedRequest, Outcome, Request, ResponseKey,
    ServeConfig, ServeEnd, ServeMetrics, ServeStrategy, TraceFile, Verdict, SCHEMA,
};
use regbal_workloads::TraceConfig;
use std::collections::{HashMap, HashSet, VecDeque};
use std::io::{BufRead, BufReader, Write};
use std::path::Path;
use std::sync::Arc;
use std::time::{Duration, Instant};

/// Requests per round (one generated trace).
const REQUESTS: usize = 200;

/// Requests per round at `--smoke` size.
const SMOKE_REQUESTS: usize = 16;

/// Requests kept in flight by the one client.
const WINDOW: usize = 2;

/// Server pool workers: one per CPU of the two-CPU reference machine.
const WORKERS: usize = 2;

/// Passes per warm restart: pass 0 from disk, the rest from memory.
const WARM_PASSES: usize = 6;

/// Set-ups per run; `setup_s` is their median.
const SETUPS: usize = 3;

/// Rounds replayed by the traced `serve-cold` run, each untraced and
/// traced.
const TRACE_ROUNDS: u64 = 2;

/// Restarts replayed by the traced `serve-warm` run, each untraced and
/// traced.
const TRACE_RESTARTS: u64 = 10;

/// How long the client runs before it pauses to probe the machine.
const SEGMENT: Duration = Duration::from_millis(100);

/// Seed of the fixed warm-up trace.
const WARMUP_SEED: u64 = 0x5E70_0000_0000;

/// One round's generated requests in wire form.
struct Inputs {
    wire: Vec<MaterializedRequest>,
    /// Each request line with its leading `{"id":<id>` cut off, so the
    /// loop only prepends an id.
    tails: Vec<String>,
}

fn inputs(seed: u64, requests: usize) -> Inputs {
    let trace = TraceFile::generate(&TraceConfig {
        requests,
        seed,
        ..TraceConfig::default()
    });
    let wire = materialize(&trace.requests, trace.packets);
    let tails = wire
        .iter()
        .map(|req| {
            request_line(0, req, false)
                .strip_prefix("{\"id\":0")
                .expect("request lines start with their id")
                .to_string()
        })
        .collect();
    Inputs { wire, tails }
}

fn fingerprint(inputs: &Inputs) -> u64 {
    inputs.tails.iter().fold(metrics::FNV_START, |h, tail| {
        metrics::fnv(h, tail.as_bytes())
    })
}

fn key(req: &MaterializedRequest) -> ResponseKey {
    (req.hash, req.nthd, req.nreg, req.strategy)
}

fn server_config(dir: &Path) -> ServeConfig {
    ServeConfig {
        workers: WORKERS,
        cache_dir: Some(dir.to_string_lossy().into_owned()),
        ..ServeConfig::default()
    }
}

/// One pass of a session over its inputs.
struct Pass {
    /// Id of the pass's first request (ids run consecutively).
    first_id: u64,
    /// Client latency per request, in request order.
    latencies_ms: Vec<f64>,
    /// From the first request sent to the last response read.
    wall: Duration,
    /// Response lines in request order.
    lines: Vec<String>,
    /// Response-cache misses during the pass.
    misses: u64,
}

/// One server lifetime: its passes and its final `stats` member.
struct Session {
    passes: Vec<Pass>,
    stats: Json,
}

/// Starts a server over `config`, replays `inputs` for `passes` passes
/// through it, and shuts it down. With `timing`, the client pauses
/// every [`SEGMENT`] once nothing is in flight and records the segment.
fn session(
    config: &ServeConfig,
    inputs: &Inputs,
    passes: usize,
    metrics: &ServeMetrics,
    tracer: &mut Tracer,
    timing: Option<&mut Timing>,
) -> Result<Session, String> {
    let (request_tx, request_rx) = pipe();
    let (response_tx, response_rx) = pipe();
    std::thread::scope(|scope| {
        let server = scope.spawn(move || -> std::io::Result<ServeEnd> {
            let mut cache = config.open_cache()?;
            serve_lines_metered(request_rx, response_tx, config, &mut cache, metrics)
        });
        // drive() owns both pipe ends, so any early return closes the
        // request pipe and the server sees end of input.
        let session = drive(request_tx, response_rx, inputs, passes, tracer, timing);
        match server
            .join()
            .map_err(|_| "server thread panicked".to_string())?
        {
            Ok(ServeEnd::Shutdown) => session,
            Ok(ServeEnd::Eof) => session.and(Err("server ended before shutdown".to_string())),
            Err(e) => Err(format!("server transport error: {e}")),
        }
    })
}

fn drive(
    mut tx: PipeWriter,
    rx: PipeReader,
    inputs: &Inputs,
    passes: usize,
    tracer: &mut Tracer,
    mut timing: Option<&mut Timing>,
) -> Result<Session, String> {
    let mut responses = BufReader::new(rx);
    let mut read_line = |what: &str| -> Result<String, String> {
        let mut line = String::new();
        match responses.read_line(&mut line) {
            Ok(0) => Err(format!("server closed while awaiting {what}")),
            Ok(_) => Ok(line.trim_end().to_string()),
            Err(e) => Err(format!("reading {what}: {e}")),
        }
    };
    let mut send = |line: &str| {
        tx.write_all(line.as_bytes())
            .map_err(|e| format!("sending a request: {e}"))
    };
    let n = inputs.tails.len();
    let mut out = Vec::with_capacity(passes);
    let mut seen = 0;
    let mut stats = Json::Null;
    let mut id = 0u64;
    for _ in 0..passes {
        let first_id = id;
        let mut latencies_ms = Vec::with_capacity(n);
        let mut lines = Vec::with_capacity(n);
        let mut in_flight: VecDeque<(u64, Instant)> = VecDeque::with_capacity(WINDOW);
        let mut next = 0;
        let mut wall = Duration::ZERO;
        // The open segment: its start and the index of its first latency.
        let mut segment = (Instant::now(), 0);
        let mut last_done = segment.0;
        while lines.len() < n {
            let pausing = timing.is_some() && segment.0.elapsed() >= SEGMENT;
            if pausing && in_flight.is_empty() {
                wall += last_done - segment.0;
                if let Some(timing) = timing.as_deref_mut() {
                    timing.segment(last_done - segment.0, &latencies_ms[segment.1..]);
                }
                segment = (Instant::now(), latencies_ms.len());
                last_done = segment.0;
                continue;
            }
            while !pausing && in_flight.len() < WINDOW && next < n {
                send(&format!("{{\"id\":{id}{}\n", inputs.tails[next]))?;
                in_flight.push_back((id, Instant::now()));
                id += 1;
                next += 1;
            }
            let line = read_line("a response")?;
            last_done = Instant::now();
            let (request, issued) = in_flight.pop_front().expect("a response implies a request");
            latencies_ms.push(last_done.duration_since(issued).as_secs_f64() * 1e3);
            tracer.root("serve.request", issued, last_done, request);
            lines.push(line);
        }
        wall += last_done - segment.0;
        if let Some(timing) = timing.as_deref_mut() {
            timing.segment(last_done - segment.0, &latencies_ms[segment.1..]);
        }
        send("{\"id\":\"stats\",\"kind\":\"stats\",\"metrics\":true}\n")?;
        let doc = json::parse(&read_line("stats")?).map_err(|e| format!("stats: {e}"))?;
        stats = doc
            .get("stats")
            .cloned()
            .ok_or("the stats response has no `stats` member")?;
        let misses = counter(&stats, "misses")?;
        out.push(Pass {
            first_id,
            latencies_ms,
            wall,
            lines,
            misses: misses - seen,
        });
        seen = misses;
    }
    send("{\"id\":\"bye\",\"kind\":\"shutdown\"}\n")?;
    let ack = json::parse(&read_line("the shutdown ack")?).map_err(|e| format!("ack: {e}"))?;
    if ack.get("ok").and_then(Json::as_bool) != Some(true) {
        return Err(format!("unexpected shutdown ack: {}", ack.compact()));
    }
    Ok(Session { passes: out, stats })
}

fn counter(stats: &Json, name: &str) -> Result<u64, String> {
    stats
        .get(name)
        .and_then(Json::as_u64)
        .ok_or_else(|| format!("stats is missing `{name}`"))
}

/// The answer part of a response line: everything from its `alloc` or
/// `error` member on (the members before it are the schema, id, hash
/// and `cached` flag, none of which can contain either name).
fn answer(line: &str) -> Option<&str> {
    line.find(",\"alloc\":")
        .or_else(|| line.find(",\"error\":"))
        .map(|at| &line[at + 1..])
}

/// Checks every response of a pass against its request. The first
/// answer to each request key is parsed and judged; every later answer
/// to the same key — in any pass, round or restart — must repeat it
/// byte for byte.
fn check_pass(
    pass: &Pass,
    inputs: &Inputs,
    answers: &mut HashMap<ResponseKey, String>,
    run: &mut Run,
) {
    for (i, (line, req)) in pass.lines.iter().zip(&inputs.wire).enumerate() {
        let id = pass.first_id + i as u64;
        let prefix = format!("{{\"schema\":\"{SCHEMA}\",\"id\":{id},");
        let Some(body) = answer(line).filter(|_| line.starts_with(&prefix)) else {
            run.wrong(format!(
                "response {id} does not answer request {id}: {}",
                clip(line)
            ));
            continue;
        };
        match answers.get(&key(req)) {
            Some(known) if known == body => continue,
            Some(_) => {
                run.wrong(format!(
                    "response {id} differs from an earlier answer to the same request"
                ));
                continue;
            }
            None => {}
        }
        match judge(body, req) {
            Ok(()) => {
                answers.insert(key(req), body.to_string());
            }
            Err(Judged::Failed) => run.failed += 1,
            Err(Judged::Wrong(why)) => run.wrong(format!("response {id}: {why}")),
        }
    }
}

enum Judged {
    /// A transport, protocol, timeout or internal error: a failed
    /// operation, not a wrong answer.
    Failed,
    /// An answer that breaks the contract.
    Wrong(String),
}

/// A served answer is correct when it is a `regbal-alloc/1` document
/// for the requested budget and strategy whose demand fits the file, or
/// an allocator verdict error.
fn judge(body: &str, req: &MaterializedRequest) -> Result<(), Judged> {
    let doc = json::parse(&format!("{{{body}"))
        .map_err(|e| Judged::Wrong(format!("answer is not JSON: {e}")))?;
    if let Some(error) = doc.get("error") {
        return match error.get("code").and_then(Json::as_str) {
            Some(code) if VERDICT_CODES.contains(&code) => Ok(()),
            _ => Err(Judged::Failed),
        };
    }
    let alloc = doc.get("alloc").ok_or(Judged::Failed)?;
    let field = |name: &str| alloc.get(name).and_then(Json::as_u64);
    let demand = field("demand").unwrap_or(u64::MAX);
    if alloc.get("schema").and_then(Json::as_str) != Some("regbal-alloc/1")
        || alloc.get("strategy").and_then(Json::as_str) != Some(req.strategy.name())
        || field("nreg") != Some(req.nreg as u64)
        || demand > req.nreg as u64
    {
        return Err(Judged::Wrong(format!(
            "not a fitting {} allocation at nreg {}",
            req.strategy.name(),
            req.nreg
        )));
    }
    Ok(())
}

fn clip(line: &str) -> &str {
    &line[..line.len().min(160)]
}

fn remove(dir: &Path) {
    let _ = std::fs::remove_dir_all(dir);
}

fn requests(args: &Args) -> usize {
    if args.smoke {
        SMOKE_REQUESTS
    } else {
        REQUESTS
    }
}

/// One set-up of `serve-cold`: a short warm-up round on a fixed trace of
/// its own, so lazy initialisation and allocator growth finish before
/// timing and every seed's set-up does the same work.
fn warm_up(args: &Args, work: &Path, run: &mut Run) -> Result<(), String> {
    let dir = work.join("warm-up");
    let warmup = inputs(WARMUP_SEED, requests(args) / 4);
    let served = serve_once(&dir, &warmup, &mut HashMap::new(), run);
    remove(&dir);
    served
}

/// Serves `inputs` once through a fresh server over `dir`, untimed (a
/// set-up), and checks the answers; here a failed request is a wrong
/// output.
fn serve_once(
    dir: &Path,
    inputs: &Inputs,
    answers: &mut HashMap<ResponseKey, String>,
    run: &mut Run,
) -> Result<(), String> {
    let s = replay(dir, inputs, 1, None)?;
    let mut check = Run::default();
    check_pass(&s.passes[0], inputs, answers, &mut check);
    run.wrong.extend(check.wrong);
    if check.failed > 0 {
        run.wrong(format!("{} set-up request(s) failed", check.failed));
    }
    Ok(())
}

/// One session as a timed stretch.
fn timed_session(
    timing: &mut Timing,
    dir: &Path,
    inputs: &Inputs,
    passes: usize,
) -> Result<Session, String> {
    timing.stretch(|timing| {
        let metrics = ServeMetrics::default();
        let config = server_config(dir);
        session(
            &config,
            inputs,
            passes,
            &metrics,
            &mut Tracer::off(),
            Some(timing),
        )
    })
}

/// `serve-cold`, timed.
pub fn cold(args: &Args, work: &Path) -> Result<Run, String> {
    let mut run = Run {
        inputs: fingerprint(&inputs(args.seed, requests(args))),
        ..Run::default()
    };
    let mut timing = Timing::new(WORKERS);
    for _ in 0..SETUPS {
        timing.setup(|| warm_up(args, work, &mut run))?;
    }
    let mut answers = HashMap::new();
    let started = Instant::now();
    let mut round = 0u64;
    while round == 0 || (!args.smoke && started.elapsed().as_secs_f64() < args.seconds) {
        let inputs = inputs(args.seed.wrapping_add(round), requests(args));
        let dir = work.join(format!("cold-{round}"));
        let s = timed_session(&mut timing, &dir, &inputs, 1)?;
        remove(&dir);
        let pass = &s.passes[0];
        if pass.misses == 0 {
            run.wrong(format!("cold round {round} never missed the cache"));
        }
        run.attempted += pass.lines.len() as u64;
        check_pass(pass, &inputs, &mut answers, &mut run);
        round += 1;
    }
    timing.finish(&mut run);
    Ok(run)
}

/// Checks one warm restart: every pass answered entirely from the cache
/// tiers, pass 0 from disk.
fn check_restart(
    s: &Session,
    inputs: &Inputs,
    answers: &mut HashMap<ResponseKey, String>,
    run: &mut Run,
) {
    for (p, pass) in s.passes.iter().enumerate() {
        if pass.misses != 0 {
            run.wrong(format!(
                "warm pass {p} missed the cache {} time(s)",
                pass.misses
            ));
        }
        check_pass(pass, inputs, answers, run);
    }
    if s.stats.get("disk_hits").and_then(Json::as_u64).unwrap_or(0) == 0 {
        run.wrong("a restarted server answered nothing from disk");
    }
}

/// `serve-warm`, timed.
pub fn warm(args: &Args, work: &Path) -> Result<Run, String> {
    let inputs = inputs(args.seed, requests(args));
    let mut run = Run {
        inputs: fingerprint(&inputs),
        ..Run::default()
    };
    let mut answers = HashMap::new();
    let dir = work.join("warm");
    let mut timing = Timing::new(WORKERS);
    for _ in 0..SETUPS {
        remove(&dir);
        timing.setup(|| serve_once(&dir, &inputs, &mut answers, &mut run))?;
    }
    let passes = if args.smoke { 2 } else { WARM_PASSES };
    let started = Instant::now();
    let mut restarts = 0;
    while restarts == 0 || (!args.smoke && started.elapsed().as_secs_f64() < args.seconds) {
        let s = timed_session(&mut timing, &dir, &inputs, passes)?;
        run.attempted += s.passes.iter().map(|p| p.lines.len() as u64).sum::<u64>();
        check_restart(&s, &inputs, &mut answers, &mut run);
        restarts += 1;
    }
    timing.finish(&mut run);
    Ok(run)
}

/// Sums the deterministic cache counters of traced sessions and keeps
/// the shared wall-clock metrics they recorded into.
#[derive(Default)]
struct Counters {
    hits: u64,
    misses: u64,
    descents: u64,
    descent_reuses: u64,
    disk_hits: u64,
    disk_writes: u64,
    disk_retries: u64,
}

impl Counters {
    fn add(&mut self, stats: &Json) -> Result<(), String> {
        self.hits += counter(stats, "hits")?;
        self.misses += counter(stats, "misses")?;
        self.descents += counter(stats, "descents")?;
        self.descent_reuses += counter(stats, "descent_reuses")?;
        self.disk_hits += counter(stats, "disk_hits")?;
        self.disk_writes += counter(stats, "disk_writes")?;
        self.disk_retries += counter(stats, "disk_retries")?;
        Ok(())
    }

    fn report(&self, metrics: &ServeMetrics, run: &mut Run) {
        let ratio = |a: u64, b: u64| if b == 0 { 0.0 } else { a as f64 / b as f64 };
        run.set("serve.hit_ratio", ratio(self.hits, self.hits + self.misses));
        run.set(
            "serve.descent_reuse_ratio",
            ratio(self.descent_reuses, self.misses),
        );
        run.set("serve.descents", self.descents as f64);
        run.set("serve.disk_hits", self.disk_hits as f64);
        run.set("serve.disk_writes", self.disk_writes as f64);
        run.set("serve.disk_retries", self.disk_retries as f64);
        let snapshot = metrics.snapshot();
        run.set(
            "serve.admission_wait_p50_us",
            snapshot.admission_wait_p50_us as f64,
        );
        run.set(
            "serve.admission_wait_p99_us",
            snapshot.admission_wait_p99_us as f64,
        );
        run.set(
            "serve.queue_depth_high_water",
            snapshot.queue_depth_high_water as f64,
        );
        run.set(
            "serve.pool_mean_wave",
            ratio(snapshot.pool_tasks, snapshot.pool_waves),
        );
    }
}

/// One replay of `inputs` through a fresh server over `dir`: with
/// `traced`, one client span per request into its tracer and the server's
/// metrics into its metrics; otherwise with tracing off.
fn replay(
    dir: &Path,
    inputs: &Inputs,
    passes: usize,
    traced: Option<(&ServeMetrics, &mut Tracer)>,
) -> Result<Session, String> {
    let config = server_config(dir);
    match traced {
        Some((metrics, tracer)) => session(&config, inputs, passes, metrics, tracer, None),
        None => session(
            &config,
            inputs,
            passes,
            &ServeMetrics::default(),
            &mut Tracer::off(),
            None,
        ),
    }
}

/// The traced `serve-cold` run: [`TRACE_ROUNDS`] rounds, each replayed
/// once untraced and once with a client span per request (alternating
/// which goes first), then every distinct request pushed through the
/// layer calls in pipeline order and checked byte for byte against the
/// served answer.
pub fn cold_traced(args: &Args, work: &Path) -> Result<(Run, Tracer), String> {
    let mut run = Run {
        inputs: fingerprint(&inputs(args.seed, requests(args))),
        ..Run::default()
    };
    warm_up(args, work, &mut run)?;
    let rounds = if args.smoke { 1 } else { TRACE_ROUNDS };
    let metrics = ServeMetrics::default();
    let mut tracer = Tracer::new();
    let mut counters = Counters::default();
    let mut walls = [Duration::ZERO; 2];
    let mut answers = HashMap::new();
    let mut served = Vec::new();
    for round in 0..rounds {
        let inputs = inputs(args.seed.wrapping_add(round), requests(args));
        for traced in [round % 2 == 1, round % 2 == 0] {
            let dir = work.join(format!("trace-{round}-{traced}"));
            let s = replay(&dir, &inputs, 1, traced.then_some((&metrics, &mut tracer)))?;
            remove(&dir);
            walls[usize::from(traced)] += s.passes[0].wall;
            run.attempted += s.passes[0].lines.len() as u64;
            check_pass(&s.passes[0], &inputs, &mut answers, &mut run);
            if traced {
                counters.add(&s.stats)?;
            }
        }
        served.push(inputs);
    }
    counters.report(&metrics, &mut run);
    run.set("trace.overhead_pct", overhead_pct(walls));

    let dir = work.join("pipeline");
    let store = DiskStore::open(&dir).map_err(|e| format!("opening {}: {e}", dir.display()))?;
    let mut distinct = HashSet::new();
    for inputs in &served {
        for (i, (req, tail)) in inputs.wire.iter().zip(&inputs.tails).enumerate() {
            if !distinct.insert(key(req)) {
                continue;
            }
            tracer.set_request(i as u64);
            let line = format!("{{\"id\":{i}{tail}");
            let emitted = cold_pipeline(&mut tracer, &line, &store, &mut run)?;
            check_identical(&emitted, req, &answers, &mut run);
        }
    }
    remove(&dir);
    layers::report(&tracer, &mut run);
    let closure = tracer.closure("serve.pipeline");
    run.set(
        "serve.unattributed_us",
        closure.unattributed.as_secs_f64() * 1e6,
    );
    layers::closure_check(&mut run, "serve.pipeline", closure, !args.smoke);
    Ok((run, tracer))
}

fn overhead_pct(walls: [Duration; 2]) -> f64 {
    100.0 * (walls[1].as_secs_f64() / walls[0].as_secs_f64().max(1e-9) - 1.0)
}

/// The emitted answer must equal the served one byte for byte.
fn check_identical(
    emitted: &str,
    req: &MaterializedRequest,
    answers: &HashMap<ResponseKey, String>,
    run: &mut Run,
) {
    match answers.get(&key(req)) {
        Some(served) if served == emitted => {}
        Some(_) => run.wrong(format!(
            "served answer for {} nthd {} nreg {} {} differs from the one-shot pipeline",
            req.kernel.name(),
            req.nthd,
            req.nreg,
            req.strategy.name()
        )),
        None => run.wrong("a traced request has no served answer to compare"),
    }
}

/// A finished allocation as the server caches it.
fn outcome(result: Result<Json, AllocFailure>) -> Outcome {
    match result {
        Ok(doc) => Outcome::Doc(Arc::new(doc)),
        Err(f) => Outcome::Fail {
            code: f.code.to_string(),
            message: f.message,
        },
    }
}

/// The response line the server frames for an outcome.
fn frame(id: Json, hash: u64, outcome: &Outcome) -> String {
    let answer = match outcome {
        Outcome::Doc(doc) => ("alloc".to_string(), doc.as_ref().clone()),
        Outcome::Fail { code, message } => {
            ("error".to_string(), proto::error_json(code, message, None))
        }
        Outcome::Parse { message, at } => (
            "error".to_string(),
            proto::error_json("parse-error", message, (*at != (0, 0)).then_some(*at)),
        ),
    };
    proto::response(vec![
        ("id".to_string(), id),
        ("hash".to_string(), Json::str(hash_hex(hash))),
        ("cached".to_string(), Json::Bool(false)),
        answer,
    ])
    .compact()
}

fn same_outcome(a: &Outcome, b: &Outcome) -> bool {
    match (a, b) {
        (Outcome::Doc(x), Outcome::Doc(y)) => x.compact() == y.compact(),
        (
            Outcome::Fail { code, message },
            Outcome::Fail {
                code: code2,
                message: message2,
            },
        ) => code == code2 && message == message2,
        _ => false,
    }
}

/// One distinct request through the layer calls the cold path makes,
/// in pipeline order, each in its own span; returns the answer part of
/// the framed response.
fn cold_pipeline(
    t: &mut Tracer,
    line: &str,
    store: &DiskStore,
    run: &mut Run,
) -> Result<String, String> {
    t.span("serve.pipeline", |t| {
        let Request::Alloc(Ok(req)) = t.span("serve.proto_parse", |_| parse_request(line)) else {
            return Err(format!("a generated request did not parse: {}", clip(line)));
        };
        let Source::Text(text) = &req.source else {
            return Err("a generated request carries no module text".to_string());
        };
        let hash = t.span("serve.content_hash", |_| content_hash(text));
        let module = t
            .span("ir.parse", |_| parse_module(text))
            .map_err(|e| format!("a generated module did not parse: {e}"))?;
        run.add(
            "ir.insts",
            module.iter().map(|f| f.iter_insts().count() as f64).sum(),
        );
        let roots = t.span("ir.inline", |_| inline_roots(&module))?;
        layers::analyse(t, &roots, run);
        let funcs = regbal_serve::replicate(&roots, req.nthd);
        let verdict = allocate(t, &funcs, req.nreg, req.strategy, run);
        if let Ok(verdict) = &verdict {
            t.span("core.rewrite", |_| verdict.compiled(&funcs))
                .map_err(|e| format!("rewriting a served allocation failed: {e}"))?;
            t.span("core.verify", |_| check_verdict(verdict, req.nreg))?;
        }
        let (line, outcome) = t.span("serve.json_emit", |_| {
            let outcome = outcome(verdict.map(|v| verdict_doc(&funcs, req.nreg, &v)));
            (frame(req.id.clone(), hash, &outcome), outcome)
        });
        let key = req.key();
        if !t.span("serve.store_write", |_| {
            store.store_response(&key, &outcome)
        }) {
            return Err("the pipeline's disk store refused a write".to_string());
        }
        match t.span("serve.store_read", |_| store.load_response(&key)) {
            DiskRead::Hit(read) if same_outcome(&read, &outcome) => {}
            _ => run.wrong("a stored answer did not read back identically"),
        }
        tally(&line, &outcome, run);
        answer(&line)
            .map(str::to_string)
            .ok_or_else(|| "the framed response has no answer".to_string())
    })
}

/// Counts an answer's document bytes, moves, spills and verdict errors.
fn tally(line: &str, outcome: &Outcome, run: &mut Run) {
    run.add("serve.doc_bytes", line.len() as f64);
    match outcome {
        Outcome::Doc(doc) => {
            for thread in doc.get("threads").and_then(Json::as_arr).unwrap_or(&[]) {
                let field =
                    |name: &str| thread.get(name).and_then(Json::as_u64).unwrap_or(0) as f64;
                run.add("core.moves_total", field("moves"));
                run.add("core.spills_total", field("spills"));
            }
        }
        Outcome::Fail { code, .. } => match layers::error_metric(code) {
            Some(name) => run.add(name, 1.0),
            None => run.wrong(format!("allocation failed with non-verdict code `{code}`")),
        },
        Outcome::Parse { message, .. } => {
            run.wrong(format!("a generated module failed to load: {message}"))
        }
    }
}

/// The threads of a module after subroutine inlining — the roots
/// nothing calls, as the server loads them.
fn inline_roots(module: &[Func]) -> Result<Vec<Func>, String> {
    let called: HashSet<&str> = module
        .iter()
        .flat_map(|f| f.iter_insts())
        .filter_map(|(_, _, inst)| match inst {
            Inst::Call { callee } => Some(callee.as_str()),
            _ => None,
        })
        .collect();
    module
        .iter()
        .filter(|f| !called.contains(f.name.as_str()))
        .map(|f| inline_module(module, &f.name).map_err(|e| format!("inlining {}: {e}", f.name)))
        .collect()
}

/// The allocation call of one strategy, in its span. The balanced
/// strategy goes through `allocate_threads_stats` (what
/// `allocate_threads` calls) so the engine's own phase split becomes
/// child spans.
fn allocate(
    t: &mut Tracer,
    funcs: &[Func],
    nreg: usize,
    strategy: ServeStrategy,
    run: &mut Run,
) -> Result<Verdict, AllocFailure> {
    match strategy {
        ServeStrategy::Balanced => layers::engine(t, funcs, nreg, run)
            .map(Verdict::Balanced)
            .map_err(|e| AllocFailure {
                code: e.code(),
                message: e.to_string(),
            }),
        ServeStrategy::BalancedSpill => t.span("core.spill", |_| {
            regbal_serve::allocate(funcs, nreg, strategy)
        }),
        ServeStrategy::Ladder => t.span("core.ladder", |_| {
            regbal_serve::allocate(funcs, nreg, strategy)
        }),
    }
}

/// Re-runs the static safety verifier over a verdict's balanced part.
fn check_verdict(verdict: &Verdict, nreg: usize) -> Result<(), String> {
    let alloc = match verdict {
        Verdict::Balanced(alloc) => alloc,
        Verdict::Spill(hybrid) => &hybrid.alloc,
        Verdict::Ladder(ladder) => match ladder.balanced_alloc() {
            Some(alloc) => alloc,
            None => return Ok(()),
        },
    };
    let threads: Vec<_> = alloc.threads.iter().map(|t| t.alloc.clone()).collect();
    verify::check_threads(&threads, nreg)
        .map_err(|e| format!("a served allocation fails verification: {e}"))
}

/// The traced `serve-warm` run: a populated directory, [`TRACE_RESTARTS`]
/// restarts untraced and traced (alternating), then every distinct
/// request through the warm path's layer calls — parse, hash, disk
/// read, framing — checked against the served answer and against a
/// one-shot allocation.
pub fn warm_traced(args: &Args, work: &Path) -> Result<(Run, Tracer), String> {
    let inputs = inputs(args.seed, requests(args));
    let mut run = Run {
        inputs: fingerprint(&inputs),
        ..Run::default()
    };
    let mut answers = HashMap::new();
    let dir = work.join("warm");
    serve_once(&dir, &inputs, &mut answers, &mut run)?;
    let metrics = ServeMetrics::default();
    let mut tracer = Tracer::new();
    let mut counters = Counters::default();
    let mut walls = [Duration::ZERO; 2];
    let mut restart_ms = Vec::new();
    let restarts = if args.smoke { 1 } else { TRACE_RESTARTS };
    let passes = if args.smoke { 2 } else { WARM_PASSES };
    for restart in 0..restarts {
        for traced in [restart % 2 == 1, restart % 2 == 0] {
            let s = replay(
                &dir,
                &inputs,
                passes,
                traced.then_some((&metrics, &mut tracer)),
            )?;
            for pass in &s.passes {
                walls[usize::from(traced)] += pass.wall;
                run.attempted += pass.lines.len() as u64;
            }
            check_restart(&s, &inputs, &mut answers, &mut run);
            if traced {
                counters.add(&s.stats)?;
                restart_ms.extend_from_slice(&s.passes[0].latencies_ms);
            }
        }
    }
    counters.report(&metrics, &mut run);
    run.set("trace.overhead_pct", overhead_pct(walls));
    run.set("serve.restart_p50_ms", metrics::median(&restart_ms));

    let store = DiskStore::open(&dir).map_err(|e| format!("opening {}: {e}", dir.display()))?;
    let mut distinct = HashSet::new();
    for (i, (req, tail)) in inputs.wire.iter().zip(&inputs.tails).enumerate() {
        if !distinct.insert(key(req)) {
            continue;
        }
        tracer.set_request(i as u64);
        let line = format!("{{\"id\":{i}{tail}");
        let emitted = tracer.span("serve.pipeline", |t| {
            let Request::Alloc(Ok(parsed)) = t.span("serve.proto_parse", |_| parse_request(&line))
            else {
                return Err(format!(
                    "a generated request did not parse: {}",
                    clip(&line)
                ));
            };
            let Source::Text(text) = &parsed.source else {
                return Err("a generated request carries no module text".to_string());
            };
            let hash = t.span("serve.content_hash", |_| content_hash(text));
            let DiskRead::Hit(outcome) =
                t.span("serve.store_read", |_| store.load_response(&parsed.key()))
            else {
                return Err(format!(
                    "request {i} is missing from the populated directory"
                ));
            };
            let line = t.span("serve.json_emit", |_| {
                frame(parsed.id.clone(), hash, &outcome)
            });
            Ok((line, outcome))
        });
        let (line, outcome) = emitted?;
        tally(&line, &outcome, &mut run);
        let body = answer(&line).unwrap_or_default();
        check_identical(body, req, &answers, &mut run);
        if body != one_shot(req, Json::uint(i as u64)) {
            run.wrong(format!(
                "the disk answer to request {i} differs from a one-shot allocation"
            ));
        }
    }
    remove(&dir);
    layers::report(&tracer, &mut run);
    let closure = tracer.closure("serve.pipeline");
    run.set(
        "serve.unattributed_us",
        closure.unattributed.as_secs_f64() * 1e6,
    );
    Ok((run, tracer))
}

/// The answer part of the response the one-shot allocator gives for
/// `req`.
fn one_shot(req: &MaterializedRequest, id: Json) -> String {
    let outcome = match regbal_serve::load_module(&req.text) {
        Ok(roots) => {
            let funcs = regbal_serve::replicate(&roots, req.nthd);
            outcome(
                regbal_serve::allocate(&funcs, req.nreg, req.strategy)
                    .map(|verdict| verdict_doc(&funcs, req.nreg, &verdict)),
            )
        }
        Err(e) => Outcome::Parse {
            message: e.to_string(),
            at: (0, 0),
        },
    };
    let framed = frame(id, req.hash, &outcome);
    answer(&framed).unwrap_or_default().to_string()
}
