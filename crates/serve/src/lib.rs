//! `regbal-serve`: a resident allocation server with a persistent
//! cross-request cache.
//!
//! The one-shot `regbal alloc` pipeline re-parses, re-analyses and
//! re-searches from scratch on every invocation, which dominates
//! end-to-end latency when a fleet of build jobs recompiles the same
//! kernels under drifting register budgets. This crate keeps the
//! allocator resident: clients speak a line-delimited JSON protocol
//! (`regbal-serve/2`) over stdio or TCP — concurrently, N connections
//! sharing one cache, one pool and one on-disk store when
//! `--cache-dir` is set — requests are admitted through
//! a bounded queue and sharded across the eval crate's work-stealing
//! pool, and results persist in a two-tier LRU cache — finished
//! response documents keyed `(content hash, Nthd, Nreg, strategy)`,
//! and per-module lazy *spill trajectories* keyed `(content hash,
//! Nthd)` so one trajectory answers every register budget — descending
//! only as far as a request needs — and feeds the degradation ladder.
//!
//! Responses are byte-identical to `regbal alloc --json` and to each
//! other at any worker count: all cache mutation happens serially in
//! admission order on the dispatcher, and workers only race on a
//! trajectory's lock, behind which every verdict equals a dedicated
//! run whatever order the budgets arrive in.
//!
//! Module map:
//!
//! * [`proto`] — the wire protocol: request parsing, content hashing,
//!   structured errors.
//! * [`oneshot`] — the module loader, the one strategy dispatch (over
//!   a module's cached trajectory for served requests, over a fresh
//!   one for the one-shot path) and the `regbal-alloc/1` document
//!   builders, all shared with `regbal-cli`.
//! * [`cache`] — the persistent response and trajectory tiers.
//! * [`store`] — the content-addressed on-disk cache behind
//!   `--cache-dir` (corrupt entries degrade to cold misses;
//!   size-capped access-ordered GC under `--cache-dir-cap`).
//! * [`faults`] — the deterministic seeded fault-injection plane
//!   (`FaultPlan`): short/failed writes, corrupt reads, client
//!   disconnects, reader stalls and dispatcher write errors at exact
//!   seeded points, for the chaos gates.
//! * [`metrics`] — wall-clock backpressure counters: queue depth,
//!   admission waits, deferred/rejected, per-connection totals.
//! * [`server`] — admission, one reader function and one wave
//!   dispatcher for both transports (a byte stream is connection 0; a
//!   socket listener adds concurrent connections and drain-on-shutdown),
//!   and the policy that sets what a transport failure ends.
//! * [`trace`] — materialising generated traces into request lines and
//!   the `regbal-trace/1` file format.
//! * [`replay`](mod@replay) — the pipelined trace-replay session, the chaos
//!   harness, and the sanitizer pass.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod cache;
pub mod faults;
pub mod metrics;
pub mod oneshot;
pub mod proto;
pub mod replay;
pub mod server;
pub mod store;
pub mod trace;

pub use cache::{Outcome, ResponseKey, ServeCache};
pub use faults::{FaultPlan, FaultSite};
pub use metrics::{ConnCounters, MetricsSnapshot, ServeMetrics};
pub use oneshot::{
    alloc_doc, allocate, inline_roots, load_module, replicate, verdict_doc, ServeStrategy, Verdict,
};
pub use proto::{content_hash, hash_hex, parse_request, Request, SCHEMA};
pub use replay::{chaos_json, chaos_replay, replay, sanitize_check, ChaosReport, PassReport};
pub use server::{
    serve_lines, serve_lines_metered, serve_listener, serve_tcp_metered, ServeConfig, ServeEnd,
};
pub use store::{DiskRead, DiskStore};
pub use trace::{kernel_text, materialize, request_line, MaterializedRequest, TraceFile};
