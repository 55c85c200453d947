//! The resident server loop: bounded admission, wave dispatch over the
//! work-stealing pool, deterministic in-order responses — over one byte
//! stream ([`serve_lines`]) or many concurrent TCP connections
//! ([`serve_listener`], [`serve_tcp_metered`]).
//!
//! Both transports run one reader function and one dispatcher. A reader
//! thread per connection splits request lines off its transport, parses
//! and content-hashes each at admission, and feeds one **bounded** queue
//! (a [`std::sync::mpsc`] sync channel — a full queue back-pressures the
//! transport instead of buffering unboundedly; the measured wait is the
//! admission-wait metric). The dispatcher owns every connection's write
//! half. It drains whatever is queued into a *wave*, resolves cache
//! hits serially in admission order, shards the misses across the
//! work-stealing pool ([`regbal_eval::pool::shard_metered`]), then
//! writes every response in admission order. Because all cache mutation
//! is serial and the workers only race on each trajectory's
//! [`regbal_eval::SweepColumn`] — whose verdicts equal dedicated runs
//! in any order — the response stream is byte-identical at any worker
//! count.
//!
//! A byte stream is connection 0, its write half installed before its
//! reader starts. The TCP server adds one accept thread, which hands
//! each connection's write half to the dispatcher and starts its
//! reader. Each wave is **fair-interleaved** before resolution —
//! grouped by connection with every connection's own order intact,
//! then taken one request per connection per round — so a bursty
//! neighbour cannot occupy an entire wave; on one connection that is
//! the identity. Per-connection response order is still per-connection
//! request order, and for workloads whose cache keys do not overlap
//! another connection's, each connection's transcript is byte-identical
//! to serving it alone (overlapping keys still serve identical
//! *documents* — only the `cached` flags can differ, because one
//! connection's miss becomes the other's hit).
//!
//! The transports differ in one policy: what a failure ends. A byte
//! stream's read or write error ends the session and is returned. A
//! socket that fails mid-request is logged and dropped, and the
//! listener keeps accepting. `shutdown` drains: reading stops (and a
//! TCP server stops accepting), every request admitted before the drain
//! completes is answered, and the shutdown ack(s) go last — unless the
//! server requires a `--shutdown-token` and the request's token does
//! not match, in which case the reply is an in-band `unauthorized`
//! error and serving continues. With `--deadline-ms` set, a request
//! still queued past its deadline is answered with an in-band
//! `timeout` error instead of being computed.

use crate::cache::{column_outcome, Outcome, ServeCache};
use crate::faults::{FaultPlan, FaultSite};
use crate::metrics::ServeMetrics;
use crate::proto::{self, AllocRequest, ProtoError, Request, Source};
use crate::store::DiskStore;
use regbal_eval::{pool, Json, SweepColumn};
use std::borrow::Cow;
use std::collections::{HashMap, VecDeque};
use std::io::{BufRead, BufReader, BufWriter, ErrorKind, Read, Write};
use std::net::{TcpListener, TcpStream};
use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use std::sync::mpsc::{sync_channel, Receiver, SyncSender, TrySendError};
use std::sync::Arc;
use std::time::Instant;

/// Server knobs.
#[derive(Debug, Clone)]
pub struct ServeConfig {
    /// Worker threads sharding each wave's misses (1 = serial; any
    /// count produces byte-identical responses).
    pub workers: usize,
    /// Admission-queue bound: requests in flight between the readers
    /// and the dispatcher before the transport blocks.
    pub queue_cap: usize,
    /// Response-cache capacity (finished outcomes).
    pub cache_cap: usize,
    /// Trajectory-cache capacity (loaded modules and their lazy spill
    /// trajectories).
    pub trajectory_cap: usize,
    /// Content-addressed on-disk cache directory: admitted modules and
    /// finished outcomes are written through, and a restarted server
    /// over the same directory answers warm. `None` = memory only.
    pub cache_dir: Option<String>,
    /// Concurrent TCP connections admitted (0 = unlimited). A
    /// connection beyond the cap is answered with one in-band
    /// `overloaded` error line and closed.
    pub max_conns: usize,
    /// Byte cap on the on-disk cache (0 = unbounded). Once exceeded,
    /// least-recently-accessed entries are deleted after each store.
    pub cache_dir_cap: u64,
    /// Per-request deadline, milliseconds (0 = none): a request still
    /// queued when its deadline expires is answered with an in-band
    /// `timeout` error instead of being dispatched. The clock starts
    /// when the reader parses the line.
    pub deadline_ms: u64,
    /// When set, `shutdown` requests must carry a matching `token`
    /// member; otherwise they get an in-band `unauthorized` error and
    /// serving continues.
    pub shutdown_token: Option<String>,
    /// The seeded fault-injection plane (chaos testing only). `None`
    /// in production: every fault site then compiles down to a skipped
    /// `Option` check.
    pub faults: Option<Arc<FaultPlan>>,
}

impl Default for ServeConfig {
    fn default() -> ServeConfig {
        ServeConfig {
            workers: 1,
            queue_cap: 256,
            cache_cap: 4096,
            trajectory_cap: 256,
            cache_dir: None,
            max_conns: 0,
            cache_dir_cap: 0,
            deadline_ms: 0,
            shutdown_token: None,
            faults: None,
        }
    }
}

impl ServeConfig {
    /// Builds the persistent cache this config describes, attaching
    /// the on-disk store when `cache_dir` is set.
    ///
    /// # Errors
    ///
    /// Only a cache directory that cannot be created.
    pub fn open_cache(&self) -> std::io::Result<ServeCache> {
        let cache = ServeCache::new(self.cache_cap, self.trajectory_cap);
        match &self.cache_dir {
            Some(dir) => {
                let mut store = DiskStore::open(std::path::Path::new(dir))?;
                if let Some(plan) = &self.faults {
                    store = store.with_faults(plan.clone());
                }
                if self.cache_dir_cap > 0 {
                    store = store.with_cap(self.cache_dir_cap);
                }
                Ok(cache.with_store(store))
            }
            None => Ok(cache),
        }
    }

    /// Whether `token` authorizes a `shutdown` under this config: any
    /// token when none is required, an exact match otherwise.
    fn shutdown_authorized(&self, token: &Option<String>) -> bool {
        match &self.shutdown_token {
            None => true,
            Some(want) => token.as_deref() == Some(want.as_str()),
        }
    }
}

/// TCP reader poll interval, milliseconds: how often an idle connection
/// checks for drain (bounds shutdown latency).
const READ_TIMEOUT_MS: u64 = 25;

/// What ended a serving loop.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ServeEnd {
    /// The input reached end-of-file.
    Eof,
    /// A `shutdown` request was acknowledged.
    Shutdown,
}

/// One flattened alloc unit of a wave, remembering which response line
/// (and which batch element) it belongs to.
struct Unit {
    request: Result<AllocRequest, ProtoError>,
    resolution: Resolution,
}

enum Resolution {
    /// Admission failed; the error is ready.
    Error,
    /// Served from the response cache.
    Hit(Outcome),
    /// Duplicate of an earlier unit in the same wave (by flat index);
    /// shares its computation and reports `cached: true`.
    Dup(usize),
    /// Needs computation on the pool (index into the compute list).
    Compute(usize),
    /// Resolved during admission without compute (load failures,
    /// unknown hashes).
    Ready(Outcome),
}

struct ComputeItem {
    column: Arc<SweepColumn>,
    nreg: usize,
    strategy: crate::oneshot::ServeStrategy,
}

fn alloc_response_body(unit: &Unit, outcomes: &[Outcome], units: &[Unit]) -> Vec<(String, Json)> {
    match &unit.request {
        Err(e) => vec![
            ("id".into(), e.id.clone()),
            ("error".into(), proto::error_json(&e.code, &e.message, e.at)),
        ],
        Ok(req) => {
            let (outcome, cached) = match &unit.resolution {
                Resolution::Hit(o) => (o.clone(), true),
                Resolution::Ready(o) => (o.clone(), false),
                Resolution::Compute(i) => (outcomes[*i].clone(), false),
                Resolution::Dup(flat) => match &units[*flat].resolution {
                    Resolution::Compute(i) => (outcomes[*i].clone(), true),
                    Resolution::Ready(o) => (o.clone(), true),
                    _ => unreachable!("a dup always points at a computing unit"),
                },
                Resolution::Error => unreachable!("errors carry no request"),
            };
            let mut body = vec![
                ("id".into(), req.id.clone()),
                ("hash".into(), Json::str(proto::hash_hex(req.hash))),
                ("cached".into(), Json::Bool(cached)),
            ];
            match outcome {
                Outcome::Doc(doc) => body.push(("alloc".into(), doc.as_ref().clone())),
                Outcome::Fail { code, message } => {
                    body.push(("error".into(), proto::error_json(&code, &message, None)));
                }
                Outcome::Parse { message, at } => {
                    let at = (at != (0, 0)).then_some(at);
                    body.push(("error".into(), proto::error_json("parse-error", &message, at)));
                }
            }
            body
        }
    }
}

/// Resolves one wave of `(connection, request, admission time)` tuples
/// in wave order — hits and ready errors serially, misses sharded
/// across the pool — and returns one framed response line per request,
/// tagged with its connection and in wave order. This is the single
/// code path every transport shares, which is what makes a
/// connection's transcript independent of how many neighbours it had.
///
/// With `deadline_ms` set, a request whose admission stamp is already
/// past the deadline is answered with an in-band `timeout` error for
/// every alloc unit it carries — never computed, never cached (the
/// deterministic alloc counters see only dispatched work).
fn resolve_wave(
    wave: &[(u64, Request, Instant)],
    config: &ServeConfig,
    cache: &mut ServeCache,
    metrics: Option<&ServeMetrics>,
) -> Vec<(u64, String)> {
    if wave.is_empty() {
        return Vec::new();
    }
    let deadline = (config.deadline_ms > 0)
        .then(|| std::time::Duration::from_millis(config.deadline_ms));
    // Flatten the wave into alloc units (batch elements inline), and
    // resolve each serially in wave order: cache hit, in-wave
    // duplicate, ready error, or a pool job.
    let mut units: Vec<Unit> = Vec::new();
    let mut compute: Vec<ComputeItem> = Vec::new();
    let mut wave_keys: HashMap<crate::cache::ResponseKey, usize> = HashMap::new();
    // (connection, batch id, #units, is_batch)
    let mut spans: Vec<(u64, Json, usize, bool)> = Vec::new();
    for (conn, request, admitted) in wave {
        cache.count_request();
        let (id, subs, is_batch) = match request {
            Request::Alloc(r) => (Json::Null, std::slice::from_ref(r), false),
            Request::Batch { id, requests } => (id.clone(), requests.as_slice(), true),
            Request::Stats { .. } | Request::Shutdown { .. } => {
                unreachable!("controls never enter a wave")
            }
        };
        spans.push((*conn, id, subs.len(), is_batch));
        let expired = deadline.is_some_and(|d| admitted.elapsed() >= d);
        if expired {
            // The whole request times out as a unit (a batch's elements
            // all waited the same queue time).
            for sub in subs {
                let resolution = match sub {
                    Err(_) => Resolution::Error,
                    Ok(_) => {
                        if let Some(m) = metrics {
                            m.note_timeout();
                        }
                        Resolution::Ready(Outcome::Fail {
                            code: "timeout".into(),
                            message: format!(
                                "request exceeded its {}ms deadline before dispatch",
                                config.deadline_ms
                            ),
                        })
                    }
                };
                units.push(Unit {
                    request: sub.clone(),
                    resolution,
                });
            }
            continue;
        }
        for sub in subs {
            let resolution = match sub {
                Err(_) => Resolution::Error,
                Ok(req) => {
                    cache.count_alloc(req.hash);
                    let key = req.key();
                    if let Some(outcome) = cache.lookup(&key) {
                        Resolution::Hit(outcome)
                    } else if let Some(&flat) = wave_keys.get(&key) {
                        cache.counters.hits += 1;
                        cache.counters.misses -= 1; // the lookup above counted a miss
                        Resolution::Dup(flat)
                    } else {
                        wave_keys.insert(key, units.len());
                        let column = match (&req.source, cache.trajectory(req.hash, req.nthd))
                        {
                            (_, Some(t)) => Some(t),
                            (Source::Text(text), None) => {
                                match cache.admit_trajectory(req.hash, req.nthd, text) {
                                    Ok(t) => Some(t),
                                    Err(outcome) => {
                                        cache.store(key, outcome.clone());
                                        units.push(Unit {
                                            request: sub.clone(),
                                            resolution: Resolution::Ready(outcome),
                                        });
                                        continue;
                                    }
                                }
                            }
                            (Source::HashOnly, None) => None,
                        };
                        match column {
                            Some(column) => {
                                compute.push(ComputeItem {
                                    column,
                                    nreg: req.nreg,
                                    strategy: req.strategy,
                                });
                                Resolution::Compute(compute.len() - 1)
                            }
                            None => Resolution::Ready(Outcome::Fail {
                                code: "unknown-hash".into(),
                                message: format!(
                                    "no resident module for hash {} at nthd {} — resend with `func`",
                                    proto::hash_hex(req.hash),
                                    req.nthd
                                ),
                            }),
                        }
                    }
                }
            };
            units.push(Unit {
                request: sub.clone(),
                resolution,
            });
        }
    }

    // The parallel phase: shard the misses across the pool. Workers
    // race only on the trajectories' columns, so a module's analyses
    // and spill rounds are computed once and shared.
    let meter = metrics.map(|m| &m.pool);
    let outcomes = pool::shard_metered(compute.len(), config.workers, meter, |i| {
        let item = &compute[i];
        column_outcome(&item.column, item.nreg, item.strategy)
    });

    // Serial epilogue in admission order: publish fresh outcomes to
    // the cache, then frame each response line.
    for unit in &units {
        if let (Ok(req), Resolution::Compute(i)) = (&unit.request, &unit.resolution) {
            cache.store(req.key(), outcomes[*i].clone());
        }
    }
    let mut lines = Vec::with_capacity(spans.len());
    let mut flat = 0usize;
    for (conn, batch_id, count, is_batch) in spans {
        let doc = if is_batch {
            let subs: Vec<Json> = units[flat..flat + count]
                .iter()
                .map(|u| Json::Obj(alloc_response_body(u, &outcomes, &units)))
                .collect();
            proto::response(vec![
                ("id".into(), batch_id),
                ("batch".into(), Json::Arr(subs)),
            ])
        } else {
            proto::response(alloc_response_body(&units[flat], &outcomes, &units))
        };
        lines.push((conn, doc.compact()));
        flat += count;
    }
    lines
}

/// Reorders one wave for fair admission: items are grouped by
/// connection (each connection's own order preserved — that is what
/// keeps per-connection transcripts byte-identical) and interleaved
/// one per connection per round, connections in first-appearance
/// order. Strict FIFO would let one bursty connection occupy an entire
/// wave; round-robin bounds any connection's queue-jump to one request
/// per round, the serving-layer analogue of the paper's balanced
/// register shares.
fn fair_interleave<T>(items: Vec<T>, conn_of: impl Fn(&T) -> u64) -> Vec<T> {
    let mut groups: Vec<(u64, VecDeque<T>)> = Vec::new();
    for item in items {
        let conn = conn_of(&item);
        match groups.iter_mut().find(|(c, _)| *c == conn) {
            Some((_, q)) => q.push_back(item),
            None => groups.push((conn, VecDeque::from([item]))),
        }
    }
    let mut out: Vec<T> = Vec::new();
    while !groups.is_empty() {
        groups.retain_mut(|(_, q)| {
            if let Some(item) = q.pop_front() {
                out.push(item);
            }
            !q.is_empty()
        });
    }
    out
}

/// The `stats` response line, with the wall-clock metrics member only
/// when asked for (those numbers are non-deterministic; plain `stats`
/// transcripts stay byte-comparable).
fn stats_line(id: Json, cache: &ServeCache, metrics: Option<&ServeMetrics>) -> String {
    let mut body = vec![("id".into(), id), ("stats".into(), cache.stats_json())];
    if let Some(metrics) = metrics {
        body.push(("metrics".into(), metrics.snapshot().to_json()));
    }
    proto::response(body).compact()
}

/// The `shutdown` ack line.
fn ack_line(id: Json) -> String {
    proto::response(vec![("id".into(), id), ("ok".into(), Json::Bool(true))]).compact()
}

/// Sends one admitted request into the bounded queue, measuring the
/// admission wait (and whether the first attempt found the queue
/// full). Returns `false` when the dispatcher is gone.
fn admit<T>(
    tx: &SyncSender<T>,
    value: T,
    metrics: &ServeMetrics,
    conn: u64,
) -> bool {
    let started = Instant::now();
    let value = match tx.try_send(value) {
        Ok(()) => {
            metrics.note_admitted(conn, started.elapsed().as_micros() as u64, false);
            return true;
        }
        Err(TrySendError::Full(value)) => value,
        Err(TrySendError::Disconnected(_)) => return false,
    };
    match tx.send(value) {
        Ok(()) => {
            metrics.note_admitted(conn, started.elapsed().as_micros() as u64, true);
            true
        }
        Err(_) => false,
    }
}

/// One request line as text, for both transports. Valid UTF-8 — every
/// well-formed request — is borrowed after the fast check; anything
/// else is converted lossily, so the line is still answered in band
/// (as `bad-json`). `String::from_utf8_lossy` alone checks byte by
/// byte, many times slower on a request kilobytes long.
fn line_text(bytes: &[u8]) -> Cow<'_, str> {
    match std::str::from_utf8(bytes) {
        Ok(text) => Cow::Borrowed(text),
        Err(_) => String::from_utf8_lossy(bytes),
    }
}

/// One admission-queue event from a reader thread or the accept loop.
enum Event {
    /// A new socket connection: the dispatcher takes ownership of the
    /// write half. Always precedes the connection's first `Request`. (A
    /// byte stream's write half is installed before its reader starts.)
    Open { conn: u64, stream: TcpStream },
    /// One parsed request line, stamped at parse time (the deadline
    /// clock).
    Request {
        conn: u64,
        request: Request,
        at: Instant,
    },
    /// The connection reached EOF (or its reader stopped for drain).
    Closed { conn: u64 },
    /// The connection's read failed; the transport's policy decides
    /// whether that ends the session or drops only the connection.
    ReadError { conn: u64, error: std::io::Error },
}

/// One connection's reader, for both transports: splits request lines
/// off `input`, parses and stamps each, and admits it. Returns when the
/// connection ends (EOF, a read error, a forwarded shutdown) or, on a
/// socket, when the server drains.
///
/// `drain` is a socket's stop flag. A socket reads under a timeout, and
/// each idle tick checks the flag. A byte stream (`None`) never times
/// out, so for it a would-block or timed-out read is an error like any
/// other.
fn read_requests(
    conn: u64,
    input: impl Read,
    tx: &SyncSender<Event>,
    drain: Option<&AtomicBool>,
    config: &ServeConfig,
    metrics: &ServeMetrics,
) {
    // One reused buffer, and no copy of a valid line.
    let mut reader = BufReader::new(input);
    let mut buf = Vec::new();
    loop {
        match reader.read_until(b'\n', &mut buf) {
            Ok(0) if buf.is_empty() => break,
            Ok(_) => {}
            // An idle tick. A failed `read_until` leaves every byte it
            // consumed in `buf`, so the next read appends to a partly
            // received line instead of losing it.
            Err(e)
                if drain.is_some()
                    && matches!(e.kind(), ErrorKind::WouldBlock | ErrorKind::TimedOut) =>
            {
                if drain.is_some_and(|stop| stop.load(Ordering::SeqCst)) {
                    break;
                }
                continue;
            }
            Err(error) => {
                let _ = tx.send(Event::ReadError { conn, error });
                return;
            }
        }
        // A full line, or an unterminated last one at EOF. That one is
        // answered too (in all likelihood with `bad-json`, to a peer
        // that may be gone).
        let line = match buf.strip_suffix(b"\n") {
            Some(l) => l.strip_suffix(b"\r").unwrap_or(l),
            None => &buf,
        };
        let line = line_text(line);
        if !line.trim().is_empty() {
            let request = proto::parse_request(&line);
            // The deadline clock starts here — before any injected
            // stall and before the admission wait, so both count
            // against it.
            let at = Instant::now();
            if let Some(plan) = &config.faults {
                if plan.fire(FaultSite::ReaderStall) {
                    std::thread::sleep(std::time::Duration::from_millis(plan.stall_ms()));
                }
            }
            // Stop reading once an *authorized* shutdown is forwarded:
            // this thread must not keep blocking on a transport the
            // client may hold open. An unauthorized shutdown is
            // answered in band and reading goes on.
            let last = matches!(&request, Request::Shutdown { token, .. }
                if config.shutdown_authorized(token));
            if !admit(tx, Event::Request { conn, request, at }, metrics, conn) || last {
                break;
            }
        }
        buf.clear();
    }
    let _ = tx.send(Event::Closed { conn });
}

/// Serves one connection: reads request lines from `input` until EOF
/// or a `shutdown` request, writing one response line per request (in
/// request order) to `output`. The cache outlives the call — pass the
/// same [`ServeCache`] again to keep serving warm.
///
/// # Errors
///
/// Only transport failures: an unreadable input or unwritable output.
/// Malformed requests are answered in-band and never end the loop.
pub fn serve_lines<R: Read + Send, W: Write>(
    input: R,
    output: W,
    config: &ServeConfig,
    cache: &mut ServeCache,
) -> std::io::Result<ServeEnd> {
    serve_lines_metered(input, output, config, cache, &ServeMetrics::default())
}

/// [`serve_lines`], recording admission waits, queue depth and pool
/// activity into `metrics`.
///
/// The byte stream is connection 0 of the same dispatcher the TCP
/// server runs; its failures end the session instead of dropping a
/// connection.
///
/// # Errors
///
/// Only transport failures, exactly as [`serve_lines`].
pub fn serve_lines_metered<R: Read + Send, W: Write>(
    input: R,
    output: W,
    config: &ServeConfig,
    cache: &mut ServeCache,
    metrics: &ServeMetrics,
) -> std::io::Result<ServeEnd> {
    let (tx, rx) = sync_channel::<Event>(config.queue_cap.max(1));
    let conns = HashMap::from([(0, Conn::new(Box::new(output)))]);
    std::thread::scope(|scope| {
        scope.spawn(move || read_requests(0, input, &tx, None, config, metrics));
        let end = dispatch(&rx, conns, Transport::Stream, config, cache, metrics);
        drop(rx); // unblock a reader waiting on a full queue
        end
    })
}

/// The in-band response to a `shutdown` whose token did not match.
fn unauthorized_line(id: Json) -> String {
    proto::response(vec![
        ("id".into(), id),
        (
            "error".into(),
            proto::error_json(
                "unauthorized",
                "shutdown requires a valid `token` on this server",
                None,
            ),
        ),
    ])
    .compact()
}

/// What a transport failure ends — the one way the transports differ.
enum Transport<'a> {
    /// One byte stream is the whole session: its read or write error
    /// ends the session and is returned.
    Stream,
    /// Sockets are connections among many: an error is logged to `log`
    /// and drops only its connection, and an authorized `shutdown` sets
    /// `stop` and wakes the accept loop on `local`.
    Sockets {
        stop: &'a AtomicBool,
        local: std::net::SocketAddr,
        log: &'a mut dyn Write,
    },
}

/// One connection's write half, as the dispatcher owns it.
struct Conn<'w> {
    writer: BufWriter<Box<dyn Write + 'w>>,
    /// A write already failed; further responses are discarded.
    dead: bool,
    /// Written since the last flush.
    touched: bool,
}

impl<'w> Conn<'w> {
    fn new(writer: Box<dyn Write + 'w>) -> Conn<'w> {
        Conn {
            writer: BufWriter::new(writer),
            dead: false,
            touched: false,
        }
    }
}

/// The dispatcher's connection table and the policy its failures
/// follow.
struct Writers<'a> {
    conns: HashMap<u64, Conn<'a>>,
    transport: Transport<'a>,
    faults: Option<&'a FaultPlan>,
    metrics: &'a ServeMetrics,
}

impl Writers<'_> {
    /// Writes one response line to `conn`. The dispatcher-write fault
    /// site fires here, on sockets only: an injected failure behaves
    /// exactly like a peer that vanished mid-write.
    fn write(&mut self, conn: u64, line: &str) -> std::io::Result<()> {
        let Some(state) = self.conns.get_mut(&conn).filter(|state| !state.dead) else {
            return Ok(()); // dropped, or closed and reaped
        };
        let injected = matches!(self.transport, Transport::Sockets { .. })
            && self
                .faults
                .is_some_and(|plan| plan.fire(FaultSite::DispatcherWriteFail));
        let written = if injected {
            Err(std::io::Error::other("injected fault"))
        } else {
            writeln!(state.writer, "{line}")
        };
        match written {
            Ok(()) => {
                state.touched = true;
                self.metrics.note_response(conn);
                Ok(())
            }
            Err(e) => self.fail(conn, "write", e),
        }
    }

    /// Flushes every connection written since its last flush.
    fn flush(&mut self) -> std::io::Result<()> {
        let mut failed = Vec::new();
        for (&conn, state) in self.conns.iter_mut().filter(|(_, s)| s.touched && !s.dead) {
            state.touched = false;
            if let Err(e) = state.writer.flush() {
                failed.push((conn, e));
            }
        }
        for (conn, e) in failed {
            self.fail(conn, "write", e)?;
        }
        Ok(())
    }

    /// A failed `op` on `conn`, under the transport's policy: a byte
    /// stream returns the error; a socket logs it and drops `conn`.
    fn fail(&mut self, conn: u64, op: &str, error: std::io::Error) -> std::io::Result<()> {
        let Transport::Sockets { log, .. } = &mut self.transport else {
            return Err(error);
        };
        if let Some(state) = self.conns.get_mut(&conn) {
            state.dead = true;
        }
        self.metrics.note_dropped();
        let _ = writeln!(
            log,
            "conn {conn}: {op} failed ({error}); dropping connection"
        );
        Ok(())
    }
}

/// The one dispatcher, for both transports: waves in global admission
/// order, responses routed per connection, and `shutdown` acks owed
/// until every producer is gone. Returns [`ServeEnd::Shutdown`] exactly
/// when an ack was written.
fn dispatch<'a>(
    rx: &Receiver<Event>,
    conns: HashMap<u64, Conn<'a>>,
    transport: Transport<'a>,
    config: &'a ServeConfig,
    cache: &mut ServeCache,
    metrics: &'a ServeMetrics,
) -> std::io::Result<ServeEnd> {
    let mut writers = Writers {
        conns,
        transport,
        faults: config.faults.as_deref(),
        metrics,
    };
    // Shutdown acks owed, in admission order; answered after drain.
    let mut acks: Vec<(u64, Json)> = Vec::new();
    loop {
        let mut wave: Vec<(u64, Request, Instant)> = Vec::new();
        let mut control: Option<(u64, Request)> = None;
        // Connections whose reader ended this iteration, with the read
        // error that ended it. Reaping is deferred to the end of the
        // iteration: per-connection FIFO admission means every request
        // of the connection is in (or before) this wave, so its
        // responses are written first.
        let mut ended: Vec<(u64, Option<std::io::Error>)> = Vec::new();
        let mut disconnected = false;
        {
            // Returns true once a control request ends the wave.
            let mut handle = |event: Event| -> bool {
                match event {
                    Event::Open { conn, stream } => {
                        writers.conns.insert(conn, Conn::new(Box::new(stream)));
                    }
                    Event::Closed { conn } => ended.push((conn, None)),
                    Event::ReadError { conn, error } => ended.push((conn, Some(error))),
                    Event::Request { conn, request, at } => {
                        metrics.note_dequeued();
                        match request {
                            c @ (Request::Stats { .. } | Request::Shutdown { .. }) => {
                                control = Some((conn, c));
                                return true;
                            }
                            other => wave.push((conn, other, at)),
                        }
                    }
                }
                false
            };
            // Block for one event, then drain the queue into a wave,
            // stopping at the first control request so stats and
            // shutdown observe every earlier allocation.
            let mut done = match rx.recv() {
                Ok(event) => handle(event),
                // Every producer is gone: the drain is complete.
                Err(_) => {
                    disconnected = true;
                    true
                }
            };
            while !done {
                match rx.try_recv() {
                    Ok(event) => done = handle(event),
                    Err(_) => break,
                }
            }
        }

        // Fair admission: interleave the wave one request per
        // connection per round (per-connection order intact), so a
        // bursty neighbour cannot occupy an entire wave.
        let wave = fair_interleave(wave, |(conn, _, _)| *conn);
        for (conn, line) in resolve_wave(&wave, config, cache, Some(metrics)) {
            writers.write(conn, &line)?;
        }
        writers.flush()?;

        match control {
            Some((conn, Request::Stats { id, metrics: want })) => {
                cache.count_request();
                writers.write(conn, &stats_line(id, cache, want.then_some(metrics)))?;
                writers.flush()?;
            }
            Some((conn, Request::Shutdown { id, token })) => {
                cache.count_request();
                if !config.shutdown_authorized(&token) {
                    writers.write(conn, &unauthorized_line(id))?;
                    writers.flush()?;
                } else {
                    // Keep serving: every request admitted before the
                    // readers stop still gets its response, and the ack
                    // comes after all of them.
                    if let Transport::Sockets { stop, local, .. } = &writers.transport {
                        if acks.is_empty() {
                            stop.store(true, Ordering::SeqCst);
                            wake_accept(*local);
                        }
                    }
                    acks.push((conn, id));
                }
            }
            _ => {}
        }

        // Reap ended connections — except those still owed a shutdown
        // ack, whose write half must survive until after the drain.
        for (conn, error) in ended {
            if let Some(error) = error {
                writers.fail(conn, "read", error)?;
            }
            if !acks.iter().any(|(c, _)| *c == conn) {
                writers.conns.remove(&conn);
            }
        }
        if disconnected {
            break;
        }
    }
    // Drain complete: the acks are the last lines their connections
    // ever see.
    let end = if acks.is_empty() {
        ServeEnd::Eof
    } else {
        ServeEnd::Shutdown
    };
    for (conn, id) in acks {
        writers.write(conn, &ack_line(id))?;
    }
    writers.flush()?;
    Ok(end)
}

// ---------------------------------------------------------------------
// The concurrent TCP server.

/// The accept loop: admit connections (up to `max_conns`), hand the
/// write half to the dispatcher, spawn a reader per connection.
fn accept_loop<'scope>(
    scope: &'scope std::thread::Scope<'scope, '_>,
    listener: &'scope TcpListener,
    tx: SyncSender<Event>,
    stop: &'scope AtomicBool,
    config: &'scope ServeConfig,
    metrics: &'scope ServeMetrics,
) {
    let active = Arc::new(AtomicUsize::new(0));
    let mut next_conn = 0u64;
    for stream in listener.incoming() {
        if stop.load(Ordering::SeqCst) {
            break;
        }
        let mut stream = match stream {
            Ok(s) => s,
            // Transient accept failures (e.g. a connection reset
            // between accept and here) must not kill the listener.
            Err(_) => continue,
        };
        if config.max_conns > 0 && active.load(Ordering::SeqCst) >= config.max_conns {
            metrics.note_rejected();
            let line = proto::response(vec![(
                "error".into(),
                proto::error_json(
                    "overloaded",
                    &format!("server is at its connection cap ({})", config.max_conns),
                    None,
                ),
            )]);
            let _ = writeln!(stream, "{}", line.compact());
            continue; // dropping `stream` closes it
        }
        let writer = match stream.try_clone() {
            Ok(w) => w,
            Err(_) => {
                metrics.note_dropped();
                continue;
            }
        };
        if stream
            .set_read_timeout(Some(std::time::Duration::from_millis(READ_TIMEOUT_MS)))
            .is_err()
        {
            metrics.note_dropped();
            continue;
        }
        let conn = next_conn;
        next_conn += 1;
        metrics.note_connection();
        active.fetch_add(1, Ordering::SeqCst);
        // The Open event is sent *before* the reader exists, so the
        // dispatcher always owns the writer by the time the first
        // request of this connection reaches it.
        if tx.send(Event::Open { conn, stream: writer }).is_err() {
            break;
        }
        let reader_tx = tx.clone();
        let active = active.clone();
        scope.spawn(move || {
            read_requests(conn, &stream, &reader_tx, Some(stop), config, metrics);
            active.fetch_sub(1, Ordering::SeqCst);
        });
    }
    // Dropping our `tx` lets the dispatcher observe full drain: the
    // channel disconnects once every reader is gone too.
}

/// Unblocks the accept loop after the stop flag is set, by connecting
/// to the listener once. The woken loop observes the flag and exits
/// before treating the wake-up as a real connection.
fn wake_accept(local: std::net::SocketAddr) {
    let _ = TcpStream::connect(local);
}

/// Serves concurrent TCP connections from `listener` over one shared
/// persistent cache, until some connection issues `shutdown` (which
/// drains: accepting stops, every admitted request is answered, acks
/// go last). Per-connection read and write failures are logged to
/// `log` and drop only that connection.
///
/// # Errors
///
/// Only a cache directory that cannot be created, or a listener whose
/// local address cannot be read.
pub fn serve_listener(
    listener: TcpListener,
    config: &ServeConfig,
    log: &mut dyn Write,
    metrics: &ServeMetrics,
) -> std::io::Result<()> {
    let mut cache = config.open_cache()?;
    let local = listener.local_addr()?;
    let stop = AtomicBool::new(false);
    let (tx, rx) = sync_channel::<Event>(config.queue_cap.max(1));
    std::thread::scope(|scope| {
        {
            let stop = &stop;
            let listener = &listener;
            let metrics = &*metrics;
            scope.spawn(move || accept_loop(scope, listener, tx, stop, config, metrics));
        }
        let sockets = Transport::Sockets {
            stop: &stop,
            local,
            log,
        };
        let end = dispatch(&rx, HashMap::new(), sockets, config, &mut cache, metrics);
        // Belt and braces: the dispatcher only returns after a drain
        // (or a dead accept loop), but make the stop unconditional so
        // the scope's implicit joins below can never hang.
        stop.store(true, Ordering::SeqCst);
        wake_accept(local);
        drop(rx);
        end.map(|_| ())
    })
}

/// Serves TCP connections on `addr` — concurrently, over one shared
/// persistent cache — until a connection issues `shutdown`, recording
/// backpressure metrics into `metrics`. Announces readiness with one
/// `listening <addr>` line on `announce`; dropped connections are
/// logged to the same writer.
///
/// # Errors
///
/// Bind failures, an unwritable announce stream, or an unusable
/// `cache_dir`.
pub fn serve_tcp_metered(
    addr: &str,
    config: &ServeConfig,
    announce: &mut dyn Write,
    metrics: &ServeMetrics,
) -> std::io::Result<()> {
    let listener = TcpListener::bind(addr)?;
    writeln!(announce, "listening {}", listener.local_addr()?)?;
    announce.flush()?;
    serve_listener(listener, config, announce, metrics)
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::net::Shutdown;

    const PROG: &str = "func t {\nbb0:\n v0 = mov 64\n v1 = load sram[v0+0]\n v1 = add v1, 1\n store sram[v0+0], v1\n iter_end\n halt\n}";

    fn fresh_cache(config: &ServeConfig) -> ServeCache {
        ServeCache::new(config.cache_cap, config.trajectory_cap)
    }

    fn serve_script(lines: &[String], config: &ServeConfig, cache: &mut ServeCache) -> Vec<Json> {
        let input = lines.join("\n").into_bytes();
        let mut output = Vec::new();
        serve_lines(&input[..], &mut output, config, cache).unwrap();
        String::from_utf8(output)
            .unwrap()
            .lines()
            .map(|l| regbal_eval::json::parse(l).expect("every response line is JSON"))
            .collect()
    }

    fn alloc_line(id: u64, nreg: usize, strategy: &str) -> String {
        let func = Json::str(PROG).compact();
        format!(
            r#"{{"id": {id}, "kind": "alloc", "func": {func}, "nthd": 2, "nreg": {nreg}, "strategy": "{strategy}"}}"#
        )
    }

    /// A distinct module per tag: same shape, different function name,
    /// hence a different content hash (disjoint cache keys).
    fn tagged_prog(tag: &str) -> String {
        PROG.replace("func t ", &format!("func t{tag} "))
    }

    fn tagged_alloc_line(tag: &str, id: u64, nreg: usize) -> String {
        let func = Json::str(tagged_prog(tag)).compact();
        format!(
            r#"{{"id": {id}, "kind": "alloc", "func": {func}, "nthd": 2, "nreg": {nreg}, "strategy": "balanced"}}"#
        )
    }

    #[test]
    fn repeated_requests_hit_the_cache_with_identical_documents() {
        let config = ServeConfig::default();
        let mut cache = fresh_cache(&config);
        let lines = vec![
            alloc_line(1, 8, "balanced"),
            alloc_line(2, 8, "balanced"),
            r#"{"id": 3, "kind": "stats"}"#.to_string(),
        ];
        let responses = serve_script(&lines, &config, &mut cache);
        assert_eq!(responses.len(), 3);
        for r in &responses[..2] {
            assert_eq!(r.get("schema").and_then(Json::as_str), Some("regbal-serve/2"));
            assert!(r.get("alloc").is_some(), "{r:?}");
        }
        assert_eq!(responses[1].get("cached").and_then(Json::as_bool), Some(true));
        assert_eq!(
            responses[0].get("alloc").unwrap().pretty(),
            responses[1].get("alloc").unwrap().pretty(),
            "a cache hit replays the identical document"
        );
        let stats = responses[2].get("stats").unwrap();
        assert_eq!(stats.get("hits").and_then(Json::as_u64), Some(1));
        assert_eq!(stats.get("misses").and_then(Json::as_u64), Some(1));
        assert_eq!(stats.get("distinct_functions").and_then(Json::as_u64), Some(1));
        // Plain stats responses never carry the wall-clock metrics.
        assert!(responses[2].get("metrics").is_none());
        // The hash is echoed on both responses, identically.
        assert_eq!(responses[0].get("hash"), responses[1].get("hash"));
    }

    #[test]
    fn stats_with_metrics_carries_the_backpressure_member() {
        let config = ServeConfig::default();
        let mut cache = fresh_cache(&config);
        let lines = vec![
            alloc_line(1, 8, "balanced"),
            r#"{"id": 2, "kind": "stats", "metrics": true}"#.to_string(),
        ];
        let responses = serve_script(&lines, &config, &mut cache);
        let metrics = responses[1].get("metrics").expect("metrics member");
        assert!(metrics.get("queue_depth_high_water").and_then(Json::as_u64).is_some());
        assert!(metrics.get("admission_wait_p50_us").and_then(Json::as_u64).is_some());
        assert!(metrics.get("admission_wait_p99_us").and_then(Json::as_u64).is_some());
        assert_eq!(metrics.get("pool_waves").and_then(Json::as_u64), Some(1));
        assert_eq!(metrics.get("pool_tasks").and_then(Json::as_u64), Some(1));
    }

    #[test]
    fn hash_only_requests_reuse_the_resident_trajectory() {
        let config = ServeConfig::default();
        let mut cache = fresh_cache(&config);
        let first = serve_script(&[alloc_line(1, 8, "balanced")], &config, &mut cache);
        let hash = first[0].get("hash").and_then(Json::as_str).unwrap().to_string();
        // A new budget for a known module, content-addressed: no func
        // text on the wire, served from the resident descent.
        let line = format!(
            r#"{{"id": 2, "kind": "alloc", "hash": "{hash}", "nthd": 2, "nreg": 32, "strategy": "balanced"}}"#
        );
        let responses = serve_script(
            &[line, r#"{"id": 3, "kind": "stats"}"#.to_string()],
            &config,
            &mut cache,
        );
        assert!(responses[0].get("alloc").is_some(), "{:?}", responses[0]);
        assert_eq!(responses[0].get("cached").and_then(Json::as_bool), Some(false));
        let stats = responses[1].get("stats").unwrap();
        assert_eq!(stats.get("descent_reuses").and_then(Json::as_u64), Some(1));
        // An unknown hash is a clean in-band error.
        let responses = serve_script(
            &[r#"{"id": 4, "kind": "alloc", "hash": "00000000000000ff"}"#.to_string()],
            &config,
            &mut cache,
        );
        let error = responses[0].get("error").unwrap();
        assert_eq!(error.get("code").and_then(Json::as_str), Some("unknown-hash"));
    }

    #[test]
    fn malformed_lines_answer_in_band_and_serving_continues() {
        let config = ServeConfig::default();
        let mut cache = fresh_cache(&config);
        let bad_func = Json::str("func t {\nbb0:\n v0 = frob 1\n}").compact();
        let lines = vec![
            "this is not json".to_string(),
            format!(r#"{{"id": 2, "kind": "alloc", "func": {bad_func}}}"#),
            alloc_line(3, 32, "balanced"),
        ];
        let responses = serve_script(&lines, &config, &mut cache);
        assert_eq!(responses.len(), 3);
        let e0 = responses[0].get("error").unwrap();
        assert_eq!(e0.get("code").and_then(Json::as_str), Some("bad-json"));
        let e1 = responses[1].get("error").unwrap();
        assert_eq!(e1.get("code").and_then(Json::as_str), Some("parse-error"));
        assert_eq!(e1.get("line").and_then(Json::as_u64), Some(3));
        assert!(e1.get("col").and_then(Json::as_u64).is_some());
        assert!(responses[2].get("alloc").is_some(), "the server kept serving");
    }

    #[test]
    fn infeasible_allocations_return_stable_codes_and_cache() {
        let config = ServeConfig::default();
        let mut cache = fresh_cache(&config);
        let hungry = "func h {\nbb0:\n v0 = mov 1\n v1 = mov 2\n v2 = mov 3\n ctx\n v3 = add v0, v1\n v3 = add v3, v2\n store scratch[v3+0], v3\n halt\n}";
        let func = Json::str(hungry).compact();
        let line = |id: u64, strategy: &str| {
            format!(
                r#"{{"id": {id}, "kind": "alloc", "func": {func}, "nthd": 2, "nreg": 4, "strategy": "{strategy}"}}"#
            )
        };
        let responses = serve_script(
            &[line(1, "balanced"), line(2, "balanced"), line(3, "ladder")],
            &config,
            &mut cache,
        );
        let error = responses[0].get("error").unwrap();
        assert_eq!(error.get("code").and_then(Json::as_str), Some("infeasible"));
        assert!(error
            .get("message")
            .and_then(Json::as_str)
            .unwrap()
            .contains("cannot fit"));
        // Failures are cached too.
        assert_eq!(responses[1].get("cached").and_then(Json::as_bool), Some(true));
        // The ladder rescues the same module in the same session.
        assert!(responses[2].get("alloc").is_some());
    }

    #[test]
    fn batches_answer_as_one_line_and_share_the_wave() {
        let config = ServeConfig {
            workers: 4,
            ..ServeConfig::default()
        };
        let mut cache = fresh_cache(&config);
        let func = Json::str(PROG).compact();
        let batch = format!(
            r#"{{"id": 1, "kind": "batch", "requests": [{{"id": 2, "func": {func}, "nthd": 2, "nreg": 8}}, {{"id": 3, "func": {func}, "nthd": 2, "nreg": 32}}, {{"id": 4, "func": {func}, "nthd": 2, "nreg": 8}}, {{"id": 5}}]}}"#
        );
        let responses = serve_script(&[batch], &config, &mut cache);
        assert_eq!(responses.len(), 1);
        let subs = responses[0].get("batch").and_then(Json::as_arr).unwrap();
        assert_eq!(subs.len(), 4);
        assert!(subs[0].get("alloc").is_some());
        assert!(subs[1].get("alloc").is_some());
        // The duplicate element shares the first element's computation.
        assert_eq!(subs[2].get("cached").and_then(Json::as_bool), Some(true));
        assert_eq!(
            subs[0].get("alloc").unwrap().pretty(),
            subs[2].get("alloc").unwrap().pretty()
        );
        assert_eq!(
            subs[3].get("error").unwrap().get("code").and_then(Json::as_str),
            Some("bad-request")
        );
    }

    #[test]
    fn responses_are_byte_identical_at_any_worker_count() {
        let lines: Vec<String> = (0..6)
            .map(|i| alloc_line(i, [8, 32, 8][i as usize % 3], ["balanced", "ladder"][i as usize % 2]))
            .chain([r#"{"id": 99, "kind": "stats"}"#.to_string()])
            .collect();
        let mut transcripts = Vec::new();
        for workers in [1, 4] {
            let config = ServeConfig {
                workers,
                ..ServeConfig::default()
            };
            let mut cache = fresh_cache(&config);
            let input = lines.join("\n").into_bytes();
            let mut output = Vec::new();
            serve_lines(&input[..], &mut output, &config, &mut cache).unwrap();
            transcripts.push(output);
        }
        assert_eq!(
            transcripts[0], transcripts[1],
            "worker count leaked into the response bytes"
        );
    }

    #[test]
    fn shutdown_acknowledges_and_ends_the_loop() {
        let config = ServeConfig::default();
        let mut cache = fresh_cache(&config);
        let input = format!(
            "{}\n{}\n{}\n",
            alloc_line(1, 32, "balanced"),
            r#"{"id": 2, "kind": "shutdown"}"#,
            alloc_line(3, 32, "balanced"), // never served
        )
        .into_bytes();
        let mut output = Vec::new();
        let end = serve_lines(&input[..], &mut output, &config, &mut cache).unwrap();
        assert_eq!(end, ServeEnd::Shutdown);
        let lines: Vec<&str> = std::str::from_utf8(&output).unwrap().lines().collect();
        assert_eq!(lines.len(), 2, "{lines:?}");
        let ack = regbal_eval::json::parse(lines[1]).unwrap();
        assert_eq!(ack.get("ok").and_then(Json::as_bool), Some(true));
    }

    #[test]
    fn an_invalid_utf8_line_is_answered_in_band() {
        let config = ServeConfig::default();
        let mut cache = fresh_cache(&config);
        let input =
            b"{\"id\": 0, \"kind\": \"stats\"}\n\xff\xfe bad\n{\"id\": 1, \"kind\": \"stats\"}\n";
        let mut output = Vec::new();
        let end = serve_lines(&input[..], &mut output, &config, &mut cache).unwrap();
        assert_eq!(end, ServeEnd::Eof);
        let lines: Vec<Json> = std::str::from_utf8(&output)
            .unwrap()
            .lines()
            .map(|l| regbal_eval::json::parse(l).unwrap())
            .collect();
        assert_eq!(lines.len(), 3, "{lines:?}");
        let code = |doc: &Json| {
            doc.get("error")
                .and_then(|e| e.get("code"))
                .and_then(Json::as_str)
                .map(str::to_string)
        };
        assert_eq!(code(&lines[1]).as_deref(), Some("bad-json"));
        assert!(lines[2].get("stats").is_some(), "serving continued");
    }

    #[test]
    fn a_byte_stream_transport_failure_ends_the_session_with_its_error() {
        /// Yields its bytes, then fails every read.
        struct Unplugged<'a>(&'a [u8]);
        impl Read for Unplugged<'_> {
            fn read(&mut self, buf: &mut [u8]) -> std::io::Result<usize> {
                if self.0.is_empty() {
                    return Err(std::io::Error::other("unplugged"));
                }
                self.0.read(buf)
            }
        }
        /// Fails every write.
        struct Unwritable;
        impl Write for Unwritable {
            fn write(&mut self, _: &[u8]) -> std::io::Result<usize> {
                Err(std::io::Error::new(ErrorKind::BrokenPipe, "closed"))
            }
            fn flush(&mut self) -> std::io::Result<()> {
                Ok(())
            }
        }
        let config = ServeConfig::default();
        let stats = b"{\"id\": 1, \"kind\": \"stats\"}\n";
        let mut cache = fresh_cache(&config);
        let read = serve_lines(Unplugged(stats), Vec::new(), &config, &mut cache);
        assert_eq!(read.unwrap_err().to_string(), "unplugged");
        let mut cache = fresh_cache(&config);
        let written = serve_lines(&stats[..], Unwritable, &config, &mut cache);
        assert_eq!(written.unwrap_err().kind(), ErrorKind::BrokenPipe);
    }

    #[test]
    fn eviction_pressure_is_counted() {
        let config = ServeConfig {
            cache_cap: 1,
            ..ServeConfig::default()
        };
        let mut cache = fresh_cache(&config);
        // A control request after each alloc pins the wave boundaries,
        // so the eviction sequence is exact: store 8, store 32 (evict
        // 8), re-miss 8 (evict 32).
        let stats_line = r#"{"id": 0, "kind": "stats"}"#.to_string();
        let lines = vec![
            alloc_line(1, 8, "balanced"),
            stats_line.clone(),
            alloc_line(2, 32, "balanced"),
            stats_line.clone(),
            alloc_line(3, 8, "balanced"), // evicted above, recomputed
            stats_line,
        ];
        let responses = serve_script(&lines, &config, &mut cache);
        let stats = responses[5].get("stats").unwrap();
        assert_eq!(stats.get("evictions").and_then(Json::as_u64), Some(2));
        assert_eq!(stats.get("misses").and_then(Json::as_u64), Some(3));
        assert_eq!(stats.get("entries").and_then(Json::as_u64), Some(1));
        assert_eq!(responses[4].get("cached").and_then(Json::as_bool), Some(false));
    }

    #[test]
    fn fair_interleave_round_robins_and_preserves_per_conn_order() {
        // Connection 7 bursts four requests; 8 and 9 send one each.
        let wave = vec![(7u64, "a1"), (7, "a2"), (7, "a3"), (8, "b1"), (7, "a4"), (9, "c1")];
        let fair = fair_interleave(wave, |(c, _)| *c);
        assert_eq!(
            fair,
            vec![(7, "a1"), (8, "b1"), (9, "c1"), (7, "a2"), (7, "a3"), (7, "a4")]
        );
        // Degenerate cases: empty, and a single connection is FIFO.
        assert!(fair_interleave(Vec::<(u64, u8)>::new(), |(c, _)| *c).is_empty());
        let solo = vec![(1u64, 1), (1, 2), (1, 3)];
        assert_eq!(fair_interleave(solo.clone(), |(c, _)| *c), solo);
    }

    #[test]
    fn unauthorized_shutdowns_answer_in_band_and_serving_continues() {
        let config = ServeConfig {
            shutdown_token: Some("s3cret".into()),
            ..ServeConfig::default()
        };
        let mut cache = fresh_cache(&config);
        let lines = [
            alloc_line(1, 32, "balanced"),
            r#"{"id": 2, "kind": "shutdown"}"#.to_string(),
            r#"{"id": 3, "kind": "shutdown", "token": "wrong"}"#.to_string(),
            alloc_line(4, 32, "balanced"),
            r#"{"id": 5, "kind": "shutdown", "token": "s3cret"}"#.to_string(),
        ];
        let input = lines.join("\n").into_bytes();
        let mut output = Vec::new();
        let end = serve_lines(&input[..], &mut output, &config, &mut cache).unwrap();
        assert_eq!(end, ServeEnd::Shutdown);
        let responses: Vec<Json> = String::from_utf8(output)
            .unwrap()
            .lines()
            .map(|l| regbal_eval::json::parse(l).unwrap())
            .collect();
        assert_eq!(responses.len(), 5, "{responses:?}");
        assert!(responses[0].get("alloc").is_some());
        for r in &responses[1..3] {
            assert_eq!(
                r.get("error").and_then(|e| e.get("code")).and_then(Json::as_str),
                Some("unauthorized"),
                "{r:?}"
            );
        }
        assert!(
            responses[3].get("alloc").is_some(),
            "serving ended on an unauthorized shutdown"
        );
        assert_eq!(responses[4].get("ok").and_then(Json::as_bool), Some(true));
    }

    #[test]
    fn expired_requests_time_out_in_band_and_are_not_cached() {
        // An injected reader stall makes the first request provably
        // older than the deadline by the time the dispatcher sees it.
        let plan = Arc::new(
            FaultPlan::seeded(7)
                .with_exact(FaultSite::ReaderStall, &[0])
                .with_stall_ms(80),
        );
        let config = ServeConfig {
            deadline_ms: 20,
            faults: Some(plan),
            ..ServeConfig::default()
        };
        let mut cache = fresh_cache(&config);
        let metrics = ServeMetrics::default();
        let lines = [
            alloc_line(1, 32, "balanced"),
            alloc_line(2, 32, "balanced"),
            r#"{"id": 3, "kind": "stats"}"#.to_string(),
        ];
        let input = lines.join("\n").into_bytes();
        let mut output = Vec::new();
        serve_lines_metered(&input[..], &mut output, &config, &mut cache, &metrics).unwrap();
        let responses: Vec<Json> = String::from_utf8(output)
            .unwrap()
            .lines()
            .map(|l| regbal_eval::json::parse(l).unwrap())
            .collect();
        assert_eq!(responses.len(), 3);
        let error = responses[0].get("error").expect("a timeout error");
        assert_eq!(error.get("code").and_then(Json::as_str), Some("timeout"));
        assert!(error
            .get("message")
            .and_then(Json::as_str)
            .unwrap()
            .contains("20ms deadline"));
        // The identical second request (stamped after the stall) is
        // computed fresh — the timeout was never cached.
        assert!(responses[1].get("alloc").is_some(), "{:?}", responses[1]);
        assert_eq!(responses[1].get("cached").and_then(Json::as_bool), Some(false));
        let stats = responses[2].get("stats").unwrap();
        // Only the served request touched the alloc counters.
        assert_eq!(stats.get("allocs").and_then(Json::as_u64), Some(1));
        assert_eq!(stats.get("misses").and_then(Json::as_u64), Some(1));
        assert_eq!(metrics.snapshot().timeouts, 1);
    }

    // -----------------------------------------------------------------
    // The concurrent TCP server.

    /// Starts a server on an ephemeral port in a background thread.
    /// Returns the address and the join handle (which yields the
    /// serve result and the log).
    fn spawn_server(
        config: ServeConfig,
    ) -> (
        std::net::SocketAddr,
        std::thread::JoinHandle<(std::io::Result<()>, String)>,
    ) {
        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        let addr = listener.local_addr().unwrap();
        let handle = std::thread::spawn(move || {
            let metrics = ServeMetrics::default();
            let mut log = Vec::new();
            let result = serve_listener(listener, &config, &mut log, &metrics);
            (result, String::from_utf8_lossy(&log).into_owned())
        });
        (addr, handle)
    }

    /// Sends `lines` over one TCP connection (half-closing the write
    /// side after the last line) and reads `expect` response lines.
    fn tcp_client(addr: std::net::SocketAddr, lines: &[String], expect: usize) -> Vec<String> {
        let mut stream = TcpStream::connect(addr).unwrap();
        for line in lines {
            writeln!(stream, "{line}").unwrap();
        }
        stream.shutdown(Shutdown::Write).unwrap();
        let mut reader = BufReader::new(stream);
        (0..expect)
            .map(|i| {
                let mut line = String::new();
                reader.read_line(&mut line).unwrap_or_else(|e| {
                    panic!("response {i}: {e}");
                });
                assert!(!line.is_empty(), "server closed before response {i}");
                line.trim_end().to_string()
            })
            .collect()
    }

    /// Sends `bytes` over one TCP connection in writes of `chunk` bytes,
    /// `pause` apart, half-closes, and returns every byte sent back.
    fn tcp_bytes(
        addr: std::net::SocketAddr,
        bytes: &[u8],
        chunk: usize,
        pause: std::time::Duration,
    ) -> Vec<u8> {
        let mut stream = TcpStream::connect(addr).unwrap();
        for part in bytes.chunks(chunk) {
            stream.write_all(part).unwrap();
            std::thread::sleep(pause);
        }
        stream.shutdown(Shutdown::Write).unwrap();
        let mut back = Vec::new();
        stream.read_to_end(&mut back).unwrap();
        back
    }

    fn send_shutdown(addr: std::net::SocketAddr) {
        let lines = [r#"{"id": "bye", "kind": "shutdown"}"#.to_string()];
        let responses = tcp_client(addr, &lines, 1);
        let ack = regbal_eval::json::parse(&responses[0]).unwrap();
        assert_eq!(ack.get("ok").and_then(Json::as_bool), Some(true), "{responses:?}");
    }

    #[test]
    fn concurrent_disjoint_clients_see_their_solo_transcripts() {
        let config = ServeConfig {
            workers: 2,
            ..ServeConfig::default()
        };
        let (addr, server) = spawn_server(config.clone());
        let tags = ["a", "b", "c"];
        let scripts: Vec<Vec<String>> = tags
            .iter()
            .map(|tag| {
                (0..4)
                    .map(|i| tagged_alloc_line(tag, i, [8, 32, 8, 32][i as usize]))
                    .collect()
            })
            .collect();
        // Solo baselines: each client's script against a fresh
        // single-connection server.
        let solos: Vec<Vec<String>> = scripts
            .iter()
            .map(|script| {
                let mut cache = fresh_cache(&config);
                let input = script.join("\n").into_bytes();
                let mut output = Vec::new();
                serve_lines(&input[..], &mut output, &config, &mut cache).unwrap();
                String::from_utf8(output)
                    .unwrap()
                    .lines()
                    .map(str::to_string)
                    .collect()
            })
            .collect();
        // All three clients at once against one shared server.
        let transcripts: Vec<Vec<String>> = std::thread::scope(|scope| {
            let handles: Vec<_> = scripts
                .iter()
                .map(|script| scope.spawn(move || tcp_client(addr, script, script.len())))
                .collect();
            handles.into_iter().map(|h| h.join().unwrap()).collect()
        });
        for (i, (concurrent, solo)) in transcripts.iter().zip(&solos).enumerate() {
            assert_eq!(
                concurrent, solo,
                "client {i}: concurrent transcript diverged from solo service"
            );
        }
        send_shutdown(addr);
        let (result, _log) = server.join().unwrap();
        result.unwrap();
    }

    #[test]
    fn a_client_disconnecting_mid_request_does_not_kill_the_listener() {
        let (addr, server) = spawn_server(ServeConfig::default());
        // A client that sends half a request line and vanishes.
        {
            let mut stream = TcpStream::connect(addr).unwrap();
            stream
                .write_all(br#"{"id": 1, "kind": "alloc", "func": "fu"#)
                .unwrap();
            // Dropping the stream closes the socket mid-line.
        }
        // The listener must still serve a healthy connection.
        let lines = [alloc_line(2, 32, "balanced")];
        let responses = tcp_client(addr, &lines, 1);
        let doc = regbal_eval::json::parse(&responses[0]).unwrap();
        assert!(doc.get("alloc").is_some(), "{responses:?}");
        send_shutdown(addr);
        let (result, _log) = server.join().unwrap();
        result.unwrap();
    }

    #[test]
    fn shutdown_drains_other_connections_before_acking() {
        let (addr, server) = spawn_server(ServeConfig::default());
        // Client B: two allocs, write side closed — its lines are all
        // at its reader before the drain can begin.
        let mut b = TcpStream::connect(addr).unwrap();
        writeln!(b, "{}", tagged_alloc_line("b", 1, 8)).unwrap();
        writeln!(b, "{}", tagged_alloc_line("b", 2, 32)).unwrap();
        b.shutdown(Shutdown::Write).unwrap();
        let mut b_reader = BufReader::new(b);
        // B's first response proves both lines were admitted before we
        // let client A shut the server down.
        let mut b1 = String::new();
        b_reader.read_line(&mut b1).unwrap();
        assert!(
            regbal_eval::json::parse(b1.trim_end()).unwrap().get("alloc").is_some(),
            "{b1:?}"
        );

        // Client A: one alloc, then shutdown. Drain must answer A's
        // alloc and B's remaining alloc before the ack.
        let a_lines = [
            tagged_alloc_line("a", 1, 8),
            r#"{"id": "bye", "kind": "shutdown"}"#.to_string(),
        ];
        let a_responses = tcp_client(addr, &a_lines, 2);
        assert!(
            regbal_eval::json::parse(&a_responses[0]).unwrap().get("alloc").is_some(),
            "{a_responses:?}"
        );
        let ack = regbal_eval::json::parse(&a_responses[1]).unwrap();
        assert_eq!(ack.get("ok").and_then(Json::as_bool), Some(true));

        // B's second response arrived despite the shutdown coming from
        // another connection.
        let mut b2 = String::new();
        b_reader.read_line(&mut b2).unwrap();
        assert!(
            regbal_eval::json::parse(b2.trim_end()).unwrap().get("alloc").is_some(),
            "drain dropped an admitted request: {b2:?}"
        );
        let (result, _log) = server.join().unwrap();
        result.unwrap();
    }

    #[test]
    fn the_connection_cap_rejects_in_band_and_recovers() {
        let (addr, server) = spawn_server(ServeConfig {
            max_conns: 1,
            ..ServeConfig::default()
        });
        let error_code = |line: &str| {
            regbal_eval::json::parse(line.trim_end())
                .ok()?
                .get("error")?
                .get("code")?
                .as_str()
                .map(str::to_string)
        };
        // Occupy the only slot, and prove the accept loop admitted it
        // with a round trip on the held connection.
        let mut held = TcpStream::connect(addr).unwrap();
        writeln!(held, "{}", alloc_line(1, 32, "balanced")).unwrap();
        let mut held_reader = BufReader::new(held.try_clone().unwrap());
        let mut line = String::new();
        held_reader.read_line(&mut line).unwrap();
        let doc = regbal_eval::json::parse(line.trim_end()).unwrap();
        assert!(doc.get("alloc").is_some(), "{line}");
        let mut second = TcpStream::connect(addr).unwrap();
        let mut line = String::new();
        BufReader::new(&mut second).read_line(&mut line).unwrap();
        assert_eq!(error_code(&line).as_deref(), Some("overloaded"));
        // Dropping the held connection frees the slot once its reader
        // sees EOF. Until then new connections are still turned away:
        // retry those (a refused connection may also show up as a
        // reset, since its requests were never read), a bounded number
        // of times. The admitted connection also carries the shutdown,
        // so no third connection races this one's release.
        drop(second);
        drop(held_reader);
        drop(held);
        let attempt = || -> Option<Vec<String>> {
            let mut stream = TcpStream::connect(addr).ok()?;
            writeln!(stream, "{}", alloc_line(2, 32, "balanced")).ok()?;
            writeln!(stream, r#"{{"id": "bye", "kind": "shutdown"}}"#).ok()?;
            stream.shutdown(Shutdown::Write).ok()?;
            BufReader::new(stream)
                .lines()
                .collect::<Result<_, _>>()
                .ok()
        };
        let mut answer = None;
        for _ in 0..500 {
            match attempt() {
                Some(lines) if lines.first().is_some_and(|l| error_code(l).is_none()) => {
                    answer = Some(lines);
                    break;
                }
                Some(lines) if !lines.is_empty() => {
                    assert_eq!(
                        error_code(&lines[0]).as_deref(),
                        Some("overloaded"),
                        "{lines:?}"
                    );
                }
                _ => {}
            }
            std::thread::sleep(std::time::Duration::from_millis(10));
        }
        let lines = answer.expect("the freed slot never admitted a connection");
        assert_eq!(lines.len(), 2, "{lines:?}");
        let doc = regbal_eval::json::parse(&lines[0]).unwrap();
        assert!(doc.get("alloc").is_some(), "{lines:?}");
        let ack = regbal_eval::json::parse(&lines[1]).unwrap();
        assert_eq!(
            ack.get("ok").and_then(Json::as_bool),
            Some(true),
            "{lines:?}"
        );
        let (result, _log) = server.join().unwrap();
        result.unwrap();
    }

    #[test]
    fn a_token_gated_tcp_server_rejects_and_then_obeys_shutdown() {
        let (addr, server) = spawn_server(ServeConfig {
            shutdown_token: Some("s3cret".into()),
            ..ServeConfig::default()
        });
        let lines = [
            r#"{"id": 1, "kind": "shutdown"}"#.to_string(),
            alloc_line(2, 32, "balanced"),
            r#"{"id": 3, "kind": "shutdown", "token": "s3cret"}"#.to_string(),
        ];
        let responses = tcp_client(addr, &lines, 3);
        let unauthorized = regbal_eval::json::parse(&responses[0]).unwrap();
        assert_eq!(
            unauthorized
                .get("error")
                .and_then(|e| e.get("code"))
                .and_then(Json::as_str),
            Some("unauthorized")
        );
        assert!(
            regbal_eval::json::parse(&responses[1]).unwrap().get("alloc").is_some(),
            "the rejected shutdown must not stop service: {responses:?}"
        );
        let ack = regbal_eval::json::parse(&responses[2]).unwrap();
        assert_eq!(ack.get("ok").and_then(Json::as_bool), Some(true));
        let (result, _log) = server.join().unwrap();
        result.unwrap();
    }

    #[test]
    fn an_injected_dispatcher_write_failure_drops_only_that_connection() {
        let plan = Arc::new(FaultPlan::seeded(11).with_exact(FaultSite::DispatcherWriteFail, &[0]));
        let (addr, server) = spawn_server(ServeConfig {
            faults: Some(plan.clone()),
            ..ServeConfig::default()
        });
        // Victim: its one response hits the injected write failure, so
        // it sees EOF instead of a line.
        {
            let mut stream = TcpStream::connect(addr).unwrap();
            writeln!(stream, "{}", alloc_line(1, 32, "balanced")).unwrap();
            stream.shutdown(Shutdown::Write).unwrap();
            let mut line = String::new();
            BufReader::new(stream).read_line(&mut line).unwrap();
            assert!(line.is_empty(), "the dropped connection still got: {line:?}");
        }
        // The server survives and serves the next connection normally.
        let responses = tcp_client(addr, &[alloc_line(2, 32, "balanced")], 1);
        assert!(regbal_eval::json::parse(&responses[0]).unwrap().get("alloc").is_some());
        assert_eq!(plan.fired_count(FaultSite::DispatcherWriteFail), 1);
        send_shutdown(addr);
        let (result, log) = server.join().unwrap();
        result.unwrap();
        assert!(log.contains("injected fault"), "{log:?}");
    }

    #[test]
    fn a_byte_stream_and_a_socket_serve_one_script_identically() {
        let script = [
            format!("{}\r\n", alloc_line(1, 32, "balanced")).into_bytes(),
            b"\n   \t \r\n{\"id\": 2, \"kind\": \"stats\"}\n".to_vec(),
            b"\xff\xfe bad\r\n{\"id\": 3, \"kind\": \"alloc\", \"nreg\": }\n".to_vec(),
            b"{\"id\": 4, \"kind\": \"shutdown\", \"token\": \"wrong\"}\n".to_vec(),
            format!("{}\n", alloc_line(5, 8, "balanced")).into_bytes(),
            b"{\"id\": 6, \"kind\": \"stats\"}\n".to_vec(),
            // An unterminated last line.
            b"{\"id\": 7, \"kind\": \"alloc\", \"func\": \"fu".to_vec(),
        ]
        .concat();
        // A plan that never fires but counts the reader-stall site's
        // calls: one per non-blank line, the torn last line included.
        let config = |plan: &Arc<FaultPlan>| ServeConfig {
            shutdown_token: Some("s3cret".into()),
            faults: Some(plan.clone()),
            ..ServeConfig::default()
        };
        let counting =
            || Arc::new(FaultPlan::seeded(7).with_exact(FaultSite::ReaderStall, &[u64::MAX]));
        let plan = counting();
        let mut cache = fresh_cache(&config(&plan));
        let mut stream = Vec::new();
        let end = serve_lines(&script[..], &mut stream, &config(&plan), &mut cache).unwrap();
        assert_eq!(end, ServeEnd::Eof);
        assert_eq!(plan.summary(), "seed 7 | reader_stall 0/8");
        assert_eq!(String::from_utf8_lossy(&stream).lines().count(), 8);

        let plan = counting();
        let (addr, server) = spawn_server(config(&plan));
        let socket = tcp_bytes(addr, &script, script.len(), std::time::Duration::ZERO);
        // Read before the shutdown connection, which consults the site
        // too.
        assert_eq!(plan.summary(), "seed 7 | reader_stall 0/8");
        let bye = [r#"{"id": "bye", "kind": "shutdown", "token": "s3cret"}"#.to_string()];
        tcp_client(addr, &bye, 1);
        let (result, _log) = server.join().unwrap();
        result.unwrap();
        assert_eq!(
            String::from_utf8_lossy(&socket),
            String::from_utf8_lossy(&stream),
            "the transports' transcripts diverged"
        );
    }

    #[test]
    fn a_line_split_across_read_timeouts_is_not_lost() {
        let (addr, server) = spawn_server(ServeConfig::default());
        // 9-byte writes three read timeouts apart: every line spans
        // several idle ticks.
        let script = b"{\"id\": 1, \"kind\": \"stats\"}\n{\"id\": 2, \"kind\": \"shutdown\"}\n";
        let gap = std::time::Duration::from_millis(3 * READ_TIMEOUT_MS);
        let back = tcp_bytes(addr, script, 9, gap);
        let lines: Vec<Json> = String::from_utf8_lossy(&back)
            .lines()
            .map(|l| regbal_eval::json::parse(l).unwrap())
            .collect();
        assert_eq!(lines.len(), 2, "{lines:?}");
        assert_eq!(lines[0].get("id").and_then(Json::as_u64), Some(1));
        assert!(lines[0].get("stats").is_some(), "{lines:?}");
        assert_eq!(lines[1].get("id").and_then(Json::as_u64), Some(2));
        assert_eq!(lines[1].get("ok").and_then(Json::as_bool), Some(true));
        let (result, _log) = server.join().unwrap();
        result.unwrap();
    }

    /// A scratch cache directory, wiped at the start of the test.
    fn temp_cache_dir(tag: &str) -> std::path::PathBuf {
        let dir = std::env::temp_dir().join(format!(
            "regbal-serve-test-{}-{tag}",
            std::process::id()
        ));
        let _ = std::fs::remove_dir_all(&dir);
        dir
    }

    #[test]
    fn a_restarted_server_over_the_same_cache_dir_answers_warm() {
        let dir = temp_cache_dir("restart");
        let config = ServeConfig {
            cache_dir: Some(dir.to_string_lossy().into_owned()),
            ..ServeConfig::default()
        };
        // First server: a cold miss, persisted through to disk.
        let mut cache = config.open_cache().unwrap();
        let cold = serve_script(&[alloc_line(1, 8, "balanced")], &config, &mut cache);
        assert_eq!(cold[0].get("cached").and_then(Json::as_bool), Some(false));
        drop(cache);
        // Second server: a brand-new cache over the same directory
        // answers the repeated request warm, byte-identically.
        let mut cache = config.open_cache().unwrap();
        let warm = serve_script(
            &[
                alloc_line(1, 8, "balanced"),
                r#"{"id": 2, "kind": "stats"}"#.to_string(),
            ],
            &config,
            &mut cache,
        );
        assert_eq!(
            warm[0].get("cached").and_then(Json::as_bool),
            Some(true),
            "the restarted server missed: {:?}",
            warm[0]
        );
        assert_eq!(
            cold[0].get("alloc").unwrap().pretty(),
            warm[0].get("alloc").unwrap().pretty(),
            "the reloaded document diverged from the computed one"
        );
        let stats = warm[1].get("stats").unwrap();
        assert_eq!(stats.get("disk_hits").and_then(Json::as_u64), Some(1));
        // A hash-only request at a new budget also works across the
        // restart: the module text itself was persisted.
        let hash = cold[0].get("hash").and_then(Json::as_str).unwrap();
        let mut cache = config.open_cache().unwrap();
        let line = format!(
            r#"{{"id": 3, "kind": "alloc", "hash": "{hash}", "nthd": 2, "nreg": 32, "strategy": "balanced"}}"#
        );
        let hashed = serve_script(&[line], &config, &mut cache);
        assert!(
            hashed[0].get("alloc").is_some(),
            "the persisted module was not reloaded: {:?}",
            hashed[0]
        );
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn corrupt_disk_entries_degrade_to_cold_misses_in_service() {
        let dir = temp_cache_dir("corrupt");
        let config = ServeConfig {
            cache_dir: Some(dir.to_string_lossy().into_owned()),
            ..ServeConfig::default()
        };
        let mut cache = config.open_cache().unwrap();
        let cold = serve_script(&[alloc_line(1, 8, "balanced")], &config, &mut cache);
        drop(cache);
        // Flip bytes in every persisted response entry.
        let responses_dir = dir.join("responses");
        let mut clobbered = 0;
        for entry in std::fs::read_dir(&responses_dir).unwrap() {
            let path = entry.unwrap().path();
            let mut bytes = std::fs::read(&path).unwrap();
            let mid = bytes.len() / 2;
            bytes[mid] ^= 0xFF;
            std::fs::write(&path, bytes).unwrap();
            clobbered += 1;
        }
        assert!(clobbered > 0, "nothing was persisted to corrupt");
        // The restarted server recomputes instead of erroring, counts
        // the corruption, and heals the entry on the write-through.
        let mut cache = config.open_cache().unwrap();
        let recomputed = serve_script(
            &[
                alloc_line(1, 8, "balanced"),
                r#"{"id": 2, "kind": "stats"}"#.to_string(),
            ],
            &config,
            &mut cache,
        );
        assert_eq!(
            recomputed[0].get("cached").and_then(Json::as_bool),
            Some(false),
            "a corrupt entry must read as a cold miss"
        );
        assert_eq!(
            cold[0].get("alloc").unwrap().pretty(),
            recomputed[0].get("alloc").unwrap().pretty()
        );
        let stats = recomputed[1].get("stats").unwrap();
        assert!(
            stats.get("disk_corrupt").and_then(Json::as_u64).unwrap() >= 1,
            "corruption went uncounted: {stats:?}"
        );
        // Third run: the healed entry serves warm again.
        let mut cache = config.open_cache().unwrap();
        let healed = serve_script(&[alloc_line(1, 8, "balanced")], &config, &mut cache);
        assert_eq!(healed[0].get("cached").and_then(Json::as_bool), Some(true));
        let _ = std::fs::remove_dir_all(&dir);
    }
}
