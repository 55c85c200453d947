//! The trace-replay client: one pipelined session that feeds a
//! resident server over in-process pipes and collects its transcript,
//! pass by pass.
//!
//! Pass 0 is the *cold* pass (every distinct key is a miss); later
//! passes replay the identical request stream and must be served
//! entirely from the persistent cache — a miss on a warm pass is a
//! correctness failure, not a performance blip, and replay reports it
//! as an error. The optional sanitizer pass re-runs every distinct
//! allocation's rewritten program on the simulator with the register
//! sanitizer armed.
//!
//! [`chaos_replay`] is the adversarial sibling: it drives the same
//! trace against a server armed with a seeded [`FaultPlan`] — disk
//! faults inside the server, mid-line client disconnects injected by
//! the replay client itself — across as many sessions as the faults
//! force, and enforces the fault plane's end-to-end invariant: every
//! admitted request is answered, every answer matches the fault-free
//! baseline (timeout errors excepted and counted), and a final
//! fault-free healing pass over the surviving `--cache-dir` still
//! serves the baseline documents.

use crate::faults::FaultSite;
use crate::metrics::ServeMetrics;
use crate::oneshot::{self, ServeStrategy};
use crate::server::{serve_lines_metered, ServeConfig};
use crate::trace::{self, MaterializedRequest, TraceFile};
use regbal_eval::{json, Json};
use regbal_sim::{SimConfig, Simulator, StopWhen};
use std::collections::VecDeque;
use std::io::{BufRead, BufReader, Read, Write};
use std::sync::{Arc, Condvar, Mutex};

// ---------------------------------------------------------------------
// An in-process byte pipe (the transport between client and server).

#[derive(Default)]
struct PipeState {
    buf: VecDeque<u8>,
    closed: bool,
}

#[derive(Default)]
struct PipeInner {
    state: Mutex<PipeState>,
    ready: Condvar,
}

/// The write end; dropping it signals EOF to the read end.
pub struct PipeWriter(Arc<PipeInner>);

/// The read end; blocks until bytes arrive or the writer drops.
pub struct PipeReader(Arc<PipeInner>);

/// An in-process unidirectional byte pipe.
pub fn pipe() -> (PipeWriter, PipeReader) {
    let inner = Arc::new(PipeInner::default());
    (PipeWriter(inner.clone()), PipeReader(inner))
}

impl Write for PipeWriter {
    fn write(&mut self, bytes: &[u8]) -> std::io::Result<usize> {
        let mut state = self.0.state.lock().expect("pipe lock poisoned");
        state.buf.extend(bytes);
        self.0.ready.notify_all();
        Ok(bytes.len())
    }

    fn flush(&mut self) -> std::io::Result<()> {
        Ok(())
    }
}

impl Drop for PipeWriter {
    fn drop(&mut self) {
        self.0.state.lock().expect("pipe lock poisoned").closed = true;
        self.0.ready.notify_all();
    }
}

impl Read for PipeReader {
    fn read(&mut self, out: &mut [u8]) -> std::io::Result<usize> {
        let mut state = self.0.state.lock().expect("pipe lock poisoned");
        while state.buf.is_empty() && !state.closed {
            state = self.0.ready.wait(state).expect("pipe lock poisoned");
        }
        let n = state.buf.len().min(out.len());
        for slot in out.iter_mut().take(n) {
            *slot = state.buf.pop_front().expect("n is bounded by the buffer length");
        }
        Ok(n)
    }
}

// ---------------------------------------------------------------------
// The replay session.

/// One pass's cache behaviour and transcript.
#[derive(Debug, Clone)]
pub struct PassReport {
    /// Response-cache hits this pass.
    pub hits: u64,
    /// Response-cache misses this pass.
    pub misses: u64,
    /// The raw response lines, in request order (byte-comparable
    /// across runs and worker counts).
    pub responses: Vec<String>,
}

/// Replays `trace` `passes` times against a fresh resident server over
/// one persistent cache, returning one report per pass.
///
/// The replay is one pipelined session: every pass's requests, each
/// pass followed by a `stats` probe, then a `shutdown`, are written at
/// once, and the whole transcript is read back when the server exits.
/// The server still answers in request order, so the transcript is the
/// one a request-at-a-time client would read. Each pass's hits and
/// misses are the difference between its probe and the one before.
/// The server's backpressure metrics (queue depth, admission waits,
/// pool activity) are recorded into `metrics`.
///
/// # Errors
///
/// Transport failures, a server that ends before acknowledging the
/// shutdown, or — the warm-pass contract — any cache miss on a pass
/// after the first.
pub fn replay(
    trace: &TraceFile,
    config: &ServeConfig,
    passes: usize,
    metrics: &ServeMetrics,
) -> Result<Vec<PassReport>, String> {
    let wire = trace::materialize(&trace.requests, trace.packets);
    // open_cache attaches the on-disk store when the config names a
    // cache directory — replayed traffic then warms a persistent cache
    // that outlives this server.
    let mut cache = config
        .open_cache()
        .map_err(|e| format!("opening the cache: {e}"))?;
    let transcript = session(config, &mut cache, metrics, |w| {
        let mut id = 0u64;
        for _ in 0..passes {
            for req in &wire {
                let _ = writeln!(w, "{}", trace::request_line(id, req, false));
                id += 1;
            }
            let _ = writeln!(w, r#"{{"id": "stats", "kind": "stats"}}"#);
        }
        let _ = writeln!(w, r#"{{"id": "bye", "kind": "shutdown"}}"#);
    })?;

    let mut lines = transcript.into_iter();
    let mut reports = Vec::with_capacity(passes);
    let mut seen = (0u64, 0u64); // cumulative (hits, misses)
    for pass in 0..passes {
        let responses: Vec<String> = lines.by_ref().take(wire.len()).collect();
        let stats_line = lines.next().ok_or("server closed while awaiting stats")?;
        let stats =
            json::parse(&stats_line).map_err(|e| format!("stats response was not JSON: {e}"))?;
        let stats = stats
            .get("stats")
            .ok_or("stats response had no `stats` member")?;
        let counter = |name: &str| {
            stats
                .get(name)
                .and_then(Json::as_u64)
                .ok_or_else(|| format!("stats is missing `{name}`"))
        };
        let (hits_total, misses_total) = (counter("hits")?, counter("misses")?);
        let (hits, misses) = (hits_total - seen.0, misses_total - seen.1);
        seen = (hits_total, misses_total);
        if pass > 0 && misses != 0 {
            return Err(format!(
                "warm pass {pass} missed the cache {misses} times — \
                 the persistent cache is not serving replayed requests"
            ));
        }
        reports.push(PassReport {
            hits,
            misses,
            responses,
        });
    }
    let ack = lines
        .next()
        .ok_or("server closed while awaiting the shutdown ack")?;
    let ack = json::parse(&ack).map_err(|e| format!("bad shutdown ack: {e}"))?;
    if ack.get("ok").and_then(Json::as_bool) != Some(true) {
        return Err(format!("unexpected shutdown ack: {}", ack.compact()));
    }
    Ok(reports)
}

// ---------------------------------------------------------------------
// Chaos replay: the fault plane's end-to-end gate.

/// What a chaos replay observed (see [`chaos_replay`]).
#[derive(Debug, Clone)]
pub struct ChaosReport {
    /// Trace requests replayed.
    pub requests: usize,
    /// Client sessions it took to answer them all (each injected
    /// disconnect ends a session; the next one resumes).
    pub sessions: usize,
    /// Full-line requests answered (always equals `requests` on
    /// success — a shortfall is an error, not a report).
    pub answered: usize,
    /// Mid-line client disconnects the plan injected.
    pub disconnects: u64,
    /// Torn half-lines the server admitted at EOF and answered with a
    /// structured `bad-json` error (one per disconnect that left
    /// bytes on the wire).
    pub partials: usize,
    /// Requests answered with an in-band `timeout` error (deadline
    /// expiries under injected reader stalls).
    pub timeouts: u64,
    /// The armed plan's per-site fire counts, human-readable.
    pub fault_summary: String,
    /// The chaos cache's final `stats` document (deterministic
    /// counters plus disk retry/GC totals).
    pub stats: Json,
    /// The healing pass's response lines in trace order: a fault-free
    /// server over the surviving `--cache-dir` (or the baseline
    /// transcript when the cache is memory-only). Feed these to
    /// `--verify`.
    pub heal_responses: Vec<String>,
}

/// Serves one in-process session: `client` writes request bytes into
/// the server's stdin and returns (dropping the write end — a client
/// that vanishes mid-line is just a closure that returns early); every
/// response line is collected until the server drains and exits.
fn session<F>(
    config: &ServeConfig,
    cache: &mut crate::cache::ServeCache,
    metrics: &ServeMetrics,
    client: F,
) -> Result<Vec<String>, String>
where
    F: FnOnce(&mut PipeWriter),
{
    let (mut request_tx, request_rx) = pipe();
    let (response_tx, response_rx) = pipe();
    std::thread::scope(|scope| {
        let server = scope
            .spawn(|| serve_lines_metered(request_rx, response_tx, config, cache, metrics));
        client(&mut request_tx);
        drop(request_tx);
        let mut lines = Vec::new();
        for line in BufReader::new(response_rx).lines() {
            lines.push(line.map_err(|e| format!("reading responses: {e}"))?);
        }
        match server.join().expect("server thread panicked") {
            Ok(_) => Ok(lines),
            Err(e) => Err(format!("server transport error: {e}")),
        }
    })
}

/// Strips a response line to its comparable document (the `alloc` or
/// `error` member) and the error code, if any.
fn response_doc(line: &str) -> Result<(String, Option<String>), String> {
    let doc = json::parse(line).map_err(|e| format!("response was not JSON: {e}"))?;
    let code = doc
        .get("error")
        .and_then(|e| e.get("code"))
        .and_then(Json::as_str)
        .map(str::to_string);
    let body = doc
        .get("alloc")
        .map(Json::pretty)
        .or_else(|| doc.get("error").map(Json::pretty))
        .ok_or_else(|| format!("response had neither alloc nor error: {line}"))?;
    Ok((body, code))
}

/// Replays `trace` against a server armed with `config.faults`,
/// enforcing the fault plane's invariant end to end.
///
/// Three phases:
///
/// 1. **Baseline** — a fault-free, memory-only server answers the whole
///    trace once; its stripped documents are the ground truth.
/// 2. **Chaos** — one persistent cache built from the faulted config
///    serves the trace across as many client sessions as the plan
///    forces. The client injects its own [`FaultSite::ClientDisconnect`]
///    faults by writing half a request line and vanishing; the torn
///    line is admitted at EOF and must be answered `bad-json`, and the
///    cut request is resent (fresh id) next session. Every full-line
///    answer must match the baseline document — except in-band
///    `timeout` errors, which are counted, not compared.
/// 3. **Healing** — when the config names a `--cache-dir`, a fresh
///    fault-free server over the surviving directory serves the whole
///    trace in one session; its documents must again equal the
///    baseline (corrupt or torn disk entries degrade to recomputed
///    misses, never to wrong answers).
///
/// # Errors
///
/// A missing fault plan, any admitted request left unanswered, any
/// non-timeout divergence from the baseline, a torn line answered with
/// anything but `bad-json`, a session loop that stops making progress,
/// or a healing pass that diverges.
pub fn chaos_replay(trace: &TraceFile, config: &ServeConfig) -> Result<ChaosReport, String> {
    let plan = config
        .faults
        .clone()
        .ok_or("chaos replay needs a fault plan (--faults) in the server config")?;
    let wire = trace::materialize(&trace.requests, trace.packets);

    // Phase 1: the fault-free baseline over a fresh memory-only cache.
    let mut base_config = config.clone();
    base_config.faults = None;
    base_config.deadline_ms = 0;
    base_config.cache_dir = None;
    base_config.cache_dir_cap = 0;
    let mut base_cache = base_config
        .open_cache()
        .map_err(|e| format!("opening the baseline cache: {e}"))?;
    let baseline = session(&base_config, &mut base_cache, &ServeMetrics::default(), |w| {
        for (i, req) in wire.iter().enumerate() {
            let _ = writeln!(w, "{}", trace::request_line(i as u64, req, false));
        }
    })?;
    if baseline.len() != wire.len() {
        return Err(format!(
            "baseline answered {} of {} requests",
            baseline.len(),
            wire.len()
        ));
    }
    let base_docs: Vec<String> = baseline
        .iter()
        .map(|line| response_doc(line).map(|(body, _)| body))
        .collect::<Result<_, _>>()?;

    // Phase 2: the chaos run — one persistent cache, many sessions.
    let mut cache = config
        .open_cache()
        .map_err(|e| format!("opening the chaos cache: {e}"))?;
    let metrics = ServeMetrics::default();
    let mut next = 0usize;
    let mut next_id = wire.len() as u64;
    let mut sessions = 0usize;
    let mut disconnects = 0u64;
    let mut partials = 0usize;
    let mut answered = 0usize;
    let mut timeouts = 0u64;
    // A plan that always disconnects would never advance: after a
    // zero-progress session the first request is sent without
    // consulting the plan, so every session answers at least one.
    let mut force_first = false;
    let session_cap = wire.len() * 2 + 8;
    while next < wire.len() {
        sessions += 1;
        if sessions > session_cap {
            return Err(format!(
                "chaos replay exceeded {session_cap} sessions with requests still unanswered"
            ));
        }
        let start = next;
        let mut sent_full: Vec<usize> = Vec::new();
        let mut cut = false;
        let responses = session(config, &mut cache, &metrics, |w| {
            for (i, req) in wire.iter().enumerate().skip(start) {
                let line = trace::request_line(next_id, req, false);
                next_id += 1;
                let consult = !force_first || i > start;
                if consult && plan.fire(FaultSite::ClientDisconnect) {
                    // The client vanishes mid-line: half the bytes, no
                    // newline, write end dropped. The server admits the
                    // torn prefix at EOF and must still answer it.
                    let bytes = line.as_bytes();
                    let _ = w.write_all(&bytes[..bytes.len() / 2]);
                    disconnects += 1;
                    cut = true;
                    return;
                }
                let _ = writeln!(w, "{line}");
                sent_full.push(i);
            }
        })?;
        let expected = sent_full.len() + usize::from(cut);
        if responses.len() != expected {
            return Err(format!(
                "session {sessions}: {expected} admitted request(s) but {} response(s) — \
                 an admitted request went unanswered",
                responses.len()
            ));
        }
        for (k, wi) in sent_full.iter().enumerate() {
            let (body, code) = response_doc(&responses[k])?;
            if code.as_deref() == Some("timeout") {
                timeouts += 1;
            } else if body != base_docs[*wi] {
                return Err(format!(
                    "request {wi}: chaos response diverged from the fault-free baseline"
                ));
            }
            answered += 1;
        }
        if cut {
            partials += 1;
            let (_, code) = response_doc(&responses[expected - 1])?;
            if code.as_deref() != Some("bad-json") {
                return Err(format!(
                    "session {sessions}: the torn half-line was answered with {code:?}, \
                     expected a bad-json error"
                ));
            }
        }
        force_first = sent_full.is_empty() && cut;
        next = start + sent_full.len();
    }
    let stats = cache.stats_json();
    drop(cache);

    // Phase 3: the healing pass over whatever the chaos run left on
    // disk — faults disarmed, one session, baseline documents required.
    let heal_responses = if config.cache_dir.is_some() {
        let mut heal_config = config.clone();
        heal_config.faults = None;
        heal_config.deadline_ms = 0;
        let mut heal_cache = heal_config
            .open_cache()
            .map_err(|e| format!("reopening the cache dir to heal: {e}"))?;
        let healed = session(&heal_config, &mut heal_cache, &ServeMetrics::default(), |w| {
            for (i, req) in wire.iter().enumerate() {
                let _ = writeln!(w, "{}", trace::request_line(i as u64, req, false));
            }
        })?;
        if healed.len() != wire.len() {
            return Err(format!(
                "healing pass answered {} of {} requests",
                healed.len(),
                wire.len()
            ));
        }
        for (i, line) in healed.iter().enumerate() {
            let (body, _) = response_doc(line)?;
            if body != base_docs[i] {
                return Err(format!(
                    "healed response {i} diverged from the fault-free baseline"
                ));
            }
        }
        healed
    } else {
        baseline
    };

    Ok(ChaosReport {
        requests: wire.len(),
        sessions,
        answered,
        disconnects,
        partials,
        timeouts,
        fault_summary: plan.summary(),
        stats,
        heal_responses,
    })
}

/// The `regbal-serve-chaos/1` document summarising a chaos replay (for
/// `--out`).
pub fn chaos_json(report: &ChaosReport) -> Json {
    Json::Obj(vec![
        ("schema".into(), Json::str("regbal-serve-chaos/1")),
        ("requests".into(), Json::uint(report.requests as u64)),
        ("answered".into(), Json::uint(report.answered as u64)),
        ("sessions".into(), Json::uint(report.sessions as u64)),
        ("disconnects".into(), Json::uint(report.disconnects)),
        ("partials".into(), Json::uint(report.partials as u64)),
        ("timeouts".into(), Json::uint(report.timeouts)),
        ("faults".into(), Json::str(&report.fault_summary)),
        ("stats".into(), report.stats.clone()),
    ])
}

// ---------------------------------------------------------------------
// The sanitizer pass.

/// Re-runs every distinct successful allocation of the trace on the
/// simulator with the register sanitizer armed: the rewritten programs
/// execute `packets` iterations per thread over prepared packet
/// memory, and any cross-partition register touch is a violation.
///
/// Returns `(programs checked, infeasible requests skipped)`.
///
/// # Errors
///
/// The first program with sanitizer violations (or one that fails to
/// rewrite).
pub fn sanitize_check(trace: &TraceFile) -> Result<(usize, usize), String> {
    let wire = trace::materialize(&trace.requests, trace.packets);
    let mut distinct: Vec<&MaterializedRequest> = Vec::new();
    let mut keys: std::collections::HashSet<(u64, usize, usize, ServeStrategy)> =
        std::collections::HashSet::new();
    for req in &wire {
        if keys.insert((req.hash, req.nthd, req.nreg, req.strategy)) {
            distinct.push(req);
        }
    }
    let mut checked = 0usize;
    let mut skipped = 0usize;
    for req in distinct {
        let name = || {
            format!(
                "{} nthd {} nreg {} {}",
                req.kernel.name(),
                req.nthd,
                req.nreg,
                req.strategy.name()
            )
        };
        let roots = oneshot::load_module(&req.text)
            .map_err(|e| format!("{}: failed to load: {e:?}", name()))?;
        let funcs = oneshot::replicate(&roots, req.nthd);
        let verdict = match oneshot::allocate(&funcs, req.nreg, req.strategy) {
            Ok(v) => v,
            Err(_) => {
                // Infeasible under this budget — the server answers
                // with a structured error; nothing to simulate.
                skipped += 1;
                continue;
            }
        };
        let (rewritten, sanitizer) = verdict
            .compiled(&funcs)
            .map_err(|e| format!("{}: rewrite failed: {e}", name()))?;
        let mut sim = Simulator::new(SimConfig::default());
        // The trace builds every kernel at slot 0, so all replicas
        // read the slot-0 packet region; prepare it once.
        req.kernel
            .prepare(sim.memory_mut(), 0, trace.packets, trace.seed);
        for func in rewritten {
            sim.add_thread(func);
        }
        sim.enable_sanitizer(sanitizer);
        let report = sim.run(StopWhen::Iterations(u64::from(trace.packets)));
        let violations = report.sanitizer_violations().count();
        if violations != 0 {
            return Err(format!(
                "{}: {} sanitizer violation(s) under replay",
                name(),
                violations
            ));
        }
        checked += 1;
    }
    Ok((checked, skipped))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::faults::FaultPlan;
    use regbal_workloads::TraceConfig;

    fn small_trace() -> TraceFile {
        TraceFile::generate(&TraceConfig {
            requests: 12,
            nreg_bounds: (32, 64),
            ..TraceConfig::default()
        })
    }

    #[test]
    fn pipes_carry_lines_and_signal_eof() {
        let (mut w, r) = pipe();
        writeln!(w, "hello").unwrap();
        drop(w);
        let mut lines = BufReader::new(r).lines();
        assert_eq!(lines.next().unwrap().unwrap(), "hello");
        assert!(lines.next().is_none());
    }

    #[test]
    fn warm_passes_are_all_hits_and_transcripts_repeat() {
        let trace = small_trace();
        let config = ServeConfig::default();
        let reports = replay(&trace, &config, 2, &ServeMetrics::default()).unwrap();
        assert_eq!(reports.len(), 2);
        assert_eq!(reports[1].misses, 0, "pass 2 must be all hits");
        assert_eq!(reports[1].hits as usize, trace.requests.len());
        assert!(reports[0].misses > 0, "pass 1 must actually work");
        // Identical request stream, identical documents — only the
        // ids and cached flags may differ between passes.
        let strip = |line: &str| {
            let doc = json::parse(line).unwrap();
            doc.get("alloc").map(Json::pretty).unwrap_or_else(|| {
                doc.get("error").expect("alloc or error").pretty()
            })
        };
        let cold: Vec<String> = reports[0].responses.iter().map(|l| strip(l)).collect();
        let warm: Vec<String> = reports[1].responses.iter().map(|l| strip(l)).collect();
        assert_eq!(cold, warm);
    }

    #[test]
    fn worker_counts_do_not_change_response_bytes() {
        let trace = small_trace();
        let run = |workers: usize| {
            let config = ServeConfig {
                workers,
                ..ServeConfig::default()
            };
            replay(&trace, &config, 1, &ServeMetrics::default()).unwrap()[0]
                .responses
                .clone()
        };
        assert_eq!(run(1), run(4));
    }

    #[test]
    fn a_replay_over_a_cache_dir_restarts_warm() {
        let dir = std::env::temp_dir().join(format!(
            "regbal-replay-test-{}-warm",
            std::process::id()
        ));
        let _ = std::fs::remove_dir_all(&dir);
        let trace = small_trace();
        let config = ServeConfig {
            cache_dir: Some(dir.to_string_lossy().into_owned()),
            ..ServeConfig::default()
        };
        let cold = replay(&trace, &config, 1, &ServeMetrics::default()).unwrap();
        assert!(cold[0].misses > 0, "the first replay must populate the store");
        // A second replay is a fresh server over the same directory:
        // its *first* pass must already be all hits, byte-identically.
        let metrics = ServeMetrics::default();
        let warm = replay(&trace, &config, 1, &metrics).unwrap();
        assert_eq!(
            warm[0].misses, 0,
            "the restarted server should answer entirely from disk"
        );
        assert_eq!(cold[0].responses.len(), warm[0].responses.len());
        let strip = |line: &str| {
            let doc = json::parse(line).unwrap();
            doc.get("alloc").map(Json::pretty).unwrap_or_else(|| {
                doc.get("error").expect("alloc or error").pretty()
            })
        };
        let cold_docs: Vec<String> = cold[0].responses.iter().map(|l| strip(l)).collect();
        let warm_docs: Vec<String> = warm[0].responses.iter().map(|l| strip(l)).collect();
        assert_eq!(cold_docs, warm_docs, "reloaded documents diverged");
        assert!(metrics.snapshot().wait_samples > 0, "admissions were measured");
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn a_chaos_replay_answers_everything_and_heals() {
        let dir = std::env::temp_dir().join(format!(
            "regbal-replay-test-{}-chaos",
            std::process::id()
        ));
        let _ = std::fs::remove_dir_all(&dir);
        let trace = small_trace();
        let plan = FaultPlan::parse_spec(
            "seed=11,write_fail=200,write_short=150,read_corrupt=200,disconnect=250",
        )
        .unwrap();
        let config = ServeConfig {
            cache_dir: Some(dir.to_string_lossy().into_owned()),
            faults: Some(std::sync::Arc::new(plan)),
            ..ServeConfig::default()
        };
        let report = chaos_replay(&trace, &config).unwrap();
        assert_eq!(report.requests, trace.requests.len());
        assert_eq!(report.answered, report.requests, "every request is answered");
        assert!(
            report.disconnects > 0,
            "a 250‰ disconnect rate over 12 requests should fire: {}",
            report.fault_summary
        );
        assert_eq!(report.sessions, 1 + report.disconnects as usize);
        assert_eq!(report.heal_responses.len(), report.requests);
        let doc = chaos_json(&report);
        assert_eq!(
            doc.get("schema").and_then(Json::as_str),
            Some("regbal-serve-chaos/1")
        );
        assert_eq!(
            doc.get("answered").and_then(Json::as_u64),
            Some(report.requests as u64)
        );
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn a_relentless_disconnector_cannot_stall_chaos_replay() {
        // disconnect=1000‰ cuts every consulted request; only the
        // zero-progress guard (force-send after an empty session)
        // lets the replay finish.
        let trace = TraceFile::generate(&TraceConfig {
            requests: 5,
            nreg_bounds: (32, 64),
            ..TraceConfig::default()
        });
        let plan = FaultPlan::parse_spec("seed=3,disconnect=1000").unwrap();
        let config = ServeConfig {
            faults: Some(std::sync::Arc::new(plan)),
            ..ServeConfig::default()
        };
        let report = chaos_replay(&trace, &config).unwrap();
        assert_eq!(report.answered, report.requests);
        assert_eq!(report.partials, report.disconnects as usize);
        assert!(report.sessions <= trace.requests.len() * 2 + 8);
    }

    #[test]
    fn sanitizer_finds_no_violations_in_served_allocations() {
        let trace = TraceFile::generate(&TraceConfig {
            requests: 6,
            packets: 2,
            nreg_bounds: (48, 96),
            ..TraceConfig::default()
        });
        let (checked, _skipped) = sanitize_check(&trace).unwrap();
        assert!(checked > 0, "the sanitizer pass must actually run programs");
    }
}
