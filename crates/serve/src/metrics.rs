//! Backpressure and observability counters for the resident server.
//!
//! The determinism contract splits the server's numbers in two. Cache
//! counters (hits, misses, descents) are functions of the admitted
//! request stream and live in [`crate::cache::Counters`] — they are
//! byte-identical at any worker count and appear in every `stats`
//! response. Everything in this module is *wall-clock shaped*: queue
//! depths, admission waits, deferred sends, connection churn. Those
//! numbers depend on scheduling and arrival timing, so they are kept
//! out of the default `stats` response (transcripts stay comparable)
//! and surfaced only on request (`{"kind": "stats", "metrics": true}`)
//! or on exit (`--metrics`).
//!
//! Admission wait is measured on the reader threads: the time from a
//! parsed request line to its acceptance by the bounded queue. Under
//! light load it is ~0; once the wave pipeline saturates, the queue
//! fills, `try_send` fails (a *deferred* admission) and the reader
//! blocks — exactly the paper's shared-pool contention, measured at
//! the serving layer. Waits are recorded into a bounded **reservoir**
//! of [`ServeMetrics::MAX_SAMPLES`] samples (Algorithm R with a fixed
//! seed, so the kept set is a deterministic function of the admission
//! sequence): once the buffer fills, each new wait *replaces* a random
//! slot with probability `cap/n` instead of being dropped, so the
//! p50/p99 of a long run reflect the whole run, not its first minutes.

use regbal_eval::Json;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Mutex;

/// Per-connection counters, reported in the `--metrics` exit summary.
#[derive(Debug, Default, Clone)]
pub struct ConnCounters {
    /// Request lines admitted from this connection.
    pub requests: u64,
    /// Response lines written to this connection.
    pub responses: u64,
    /// Admissions that found the queue full and blocked.
    pub deferred: u64,
    /// Largest single admission wait, microseconds.
    pub max_wait_us: u64,
}

/// Shared wall-clock metrics for one server instance. All methods take
/// `&self`; reader threads, the accept loop and the dispatcher all
/// write concurrently.
#[derive(Debug, Default)]
pub struct ServeMetrics {
    /// Requests currently sitting in the admission queue.
    queue_depth: AtomicU64,
    /// High-water mark of `queue_depth`.
    queue_high_water: AtomicU64,
    /// Admissions that found the queue full and blocked the transport.
    deferred: AtomicU64,
    /// Connections refused at accept time (`--max-conns`).
    rejected: AtomicU64,
    /// Connections accepted over the server's lifetime.
    connections: AtomicU64,
    /// Connections dropped on a read or write error (logged, served
    /// around — never fatal).
    dropped: AtomicU64,
    /// Admission-wait reservoir, microseconds (bounded; see
    /// [`ServeMetrics::MAX_SAMPLES`]).
    waits: Mutex<Vec<u64>>,
    /// Total admission waits observed (including those the reservoir
    /// replaced or declined — the `n` of Algorithm R).
    waits_total: AtomicU64,
    /// Requests answered with an in-band `timeout` error because they
    /// exceeded `--deadline-ms` before dispatch.
    timeouts: AtomicU64,
    /// Waves dispatched to the work-stealing pool.
    pool_waves: AtomicU64,
    /// Tasks (cache misses) the pool computed across all waves.
    pool_tasks: AtomicU64,
    /// Largest single wave, in tasks (high-water mark).
    pool_max_wave: AtomicU64,
    /// Per-connection counters, keyed by connection id.
    conns: Mutex<Vec<(u64, ConnCounters)>>,
}

/// A point-in-time summary of [`ServeMetrics`].
#[derive(Debug, Clone)]
pub struct MetricsSnapshot {
    /// High-water mark of the admission queue depth.
    pub queue_depth_high_water: u64,
    /// Median admission wait, microseconds (nearest rank).
    pub admission_wait_p50_us: u64,
    /// 99th-percentile admission wait, microseconds (nearest rank).
    pub admission_wait_p99_us: u64,
    /// Admissions that found the queue full and blocked.
    pub deferred: u64,
    /// Connections refused at accept time.
    pub rejected: u64,
    /// Connections accepted.
    pub connections: u64,
    /// Connections dropped on IO errors.
    pub dropped: u64,
    /// Requests answered with an in-band `timeout` error.
    pub timeouts: u64,
    /// Admission waits observed (the reservoir summarises all of them).
    pub wait_samples: u64,
    /// Pool waves dispatched.
    pub pool_waves: u64,
    /// Pool tasks computed.
    pub pool_tasks: u64,
    /// Largest single pool wave, in tasks.
    pub pool_max_wave: u64,
}

/// The fixed seed behind the sampling reservoir: the kept sample set
/// is a pure function of the observation sequence, so two identical
/// runs report identical percentiles.
const RESERVOIR_SEED: u64 = 0x5eed_ba1a_9ce0_11e5;

/// One step of deterministic reservoir sampling (Algorithm R): `value`
/// is observation number `n` (0-based). While the buffer is below
/// `cap` it is simply kept; afterwards it replaces a pseudorandom slot
/// with probability `cap / (n + 1)`, giving every observation of the
/// stream an equal chance of being in the final sample.
pub fn reservoir_insert(buf: &mut Vec<u64>, cap: usize, n: u64, value: u64) {
    if buf.len() < cap {
        buf.push(value);
        return;
    }
    let j = crate::faults::splitmix64(RESERVOIR_SEED ^ n) % (n + 1);
    if (j as usize) < cap {
        buf[j as usize] = value;
    }
}

/// Nearest-rank percentile of a **sorted** sample.
pub fn percentile(sorted: &[u64], p: f64) -> u64 {
    if sorted.is_empty() {
        return 0;
    }
    let rank = ((p / 100.0) * sorted.len() as f64).ceil() as usize;
    sorted[rank.clamp(1, sorted.len()) - 1]
}

impl ServeMetrics {
    /// Admission-wait reservoir capacity; bounds memory under
    /// unbounded traffic while keeping an unbiased sample of the whole
    /// run.
    pub const MAX_SAMPLES: usize = 1 << 16;

    /// Records one admission: the measured queue wait and whether the
    /// first `try_send` found the queue full.
    pub fn note_admitted(&self, conn: u64, wait_us: u64, was_deferred: bool) {
        let depth = self.queue_depth.fetch_add(1, Ordering::Relaxed) + 1;
        self.queue_high_water.fetch_max(depth, Ordering::Relaxed);
        if was_deferred {
            self.deferred.fetch_add(1, Ordering::Relaxed);
        }
        {
            let n = self.waits_total.fetch_add(1, Ordering::Relaxed);
            let mut waits = self.waits.lock().expect("metrics lock poisoned");
            reservoir_insert(&mut waits, Self::MAX_SAMPLES, n, wait_us);
        }
        let mut conns = self.conns.lock().expect("metrics lock poisoned");
        let counters = match conns.iter_mut().find(|(id, _)| *id == conn) {
            Some((_, counters)) => counters,
            None => {
                conns.push((conn, ConnCounters::default()));
                &mut conns.last_mut().expect("just pushed").1
            }
        };
        counters.requests += 1;
        counters.deferred += u64::from(was_deferred);
        counters.max_wait_us = counters.max_wait_us.max(wait_us);
    }

    /// Records the dispatcher taking one request off the queue.
    pub fn note_dequeued(&self) {
        // Saturating: an Open/Closed control event never incremented.
        let _ = self
            .queue_depth
            .fetch_update(Ordering::Relaxed, Ordering::Relaxed, |d| {
                Some(d.saturating_sub(1))
            });
    }

    /// Records one response line written to `conn`.
    pub fn note_response(&self, conn: u64) {
        let mut conns = self.conns.lock().expect("metrics lock poisoned");
        if let Some((_, counters)) = conns.iter_mut().find(|(id, _)| *id == conn) {
            counters.responses += 1;
        }
    }

    /// Records an accepted connection.
    pub fn note_connection(&self) {
        self.connections.fetch_add(1, Ordering::Relaxed);
    }

    /// Records a connection refused at accept time.
    pub fn note_rejected(&self) {
        self.rejected.fetch_add(1, Ordering::Relaxed);
    }

    /// Records a connection dropped on an IO error.
    pub fn note_dropped(&self) {
        self.dropped.fetch_add(1, Ordering::Relaxed);
    }

    /// Records a request answered with an in-band `timeout` error.
    pub fn note_timeout(&self) {
        self.timeouts.fetch_add(1, Ordering::Relaxed);
    }

    /// Records one wave dispatched to the pool with `tasks` misses to
    /// compute (a wave of hits only counts with 0 tasks).
    pub fn note_wave(&self, tasks: usize) {
        self.pool_waves.fetch_add(1, Ordering::Relaxed);
        self.pool_tasks.fetch_add(tasks as u64, Ordering::Relaxed);
        self.pool_max_wave
            .fetch_max(tasks as u64, Ordering::Relaxed);
    }

    /// The current summary.
    pub fn snapshot(&self) -> MetricsSnapshot {
        let mut waits = self
            .waits
            .lock()
            .expect("metrics lock poisoned")
            .clone();
        waits.sort_unstable();
        MetricsSnapshot {
            queue_depth_high_water: self.queue_high_water.load(Ordering::Relaxed),
            admission_wait_p50_us: percentile(&waits, 50.0),
            admission_wait_p99_us: percentile(&waits, 99.0),
            deferred: self.deferred.load(Ordering::Relaxed),
            rejected: self.rejected.load(Ordering::Relaxed),
            connections: self.connections.load(Ordering::Relaxed),
            dropped: self.dropped.load(Ordering::Relaxed),
            timeouts: self.timeouts.load(Ordering::Relaxed),
            wait_samples: self.waits_total.load(Ordering::Relaxed),
            pool_waves: self.pool_waves.load(Ordering::Relaxed),
            pool_tasks: self.pool_tasks.load(Ordering::Relaxed),
            pool_max_wave: self.pool_max_wave.load(Ordering::Relaxed),
        }
    }

    /// The per-connection counters, in connection-id order.
    pub fn connections(&self) -> Vec<(u64, ConnCounters)> {
        let mut conns = self
            .conns
            .lock()
            .expect("metrics lock poisoned")
            .clone();
        conns.sort_by_key(|(id, _)| *id);
        conns
    }
}

impl MetricsSnapshot {
    /// The `metrics` member of an extended `stats` response (and of
    /// the bench report).
    pub fn to_json(&self) -> Json {
        Json::Obj(vec![
            (
                "queue_depth_high_water".into(),
                Json::uint(self.queue_depth_high_water),
            ),
            (
                "admission_wait_p50_us".into(),
                Json::uint(self.admission_wait_p50_us),
            ),
            (
                "admission_wait_p99_us".into(),
                Json::uint(self.admission_wait_p99_us),
            ),
            ("deferred".into(), Json::uint(self.deferred)),
            ("rejected".into(), Json::uint(self.rejected)),
            ("connections".into(), Json::uint(self.connections)),
            ("dropped".into(), Json::uint(self.dropped)),
            ("timeouts".into(), Json::uint(self.timeouts)),
            ("wait_samples".into(), Json::uint(self.wait_samples)),
            ("pool_waves".into(), Json::uint(self.pool_waves)),
            ("pool_tasks".into(), Json::uint(self.pool_tasks)),
            ("pool_max_wave".into(), Json::uint(self.pool_max_wave)),
        ])
    }

    /// The human-readable `--metrics` exit summary.
    pub fn summary(&self, conns: &[(u64, ConnCounters)]) -> String {
        let mut out = format!(
            "metrics: queue high-water {} | admission wait p50 {} us p99 {} us \
             ({} sample(s)) | {} deferred, {} rejected, {} timeout(s) | \
             {} connection(s), {} dropped | \
             pool: {} wave(s), {} task(s), max wave {}\n",
            self.queue_depth_high_water,
            self.admission_wait_p50_us,
            self.admission_wait_p99_us,
            self.wait_samples,
            self.deferred,
            self.rejected,
            self.timeouts,
            self.connections,
            self.dropped,
            self.pool_waves,
            self.pool_tasks,
            self.pool_max_wave,
        );
        for (id, c) in conns {
            out.push_str(&format!(
                "  conn {id}: {} request(s), {} response(s), {} deferred, max wait {} us\n",
                c.requests, c.responses, c.deferred, c.max_wait_us
            ));
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn queue_depth_tracks_a_high_water_mark() {
        let m = ServeMetrics::default();
        m.note_admitted(0, 5, false);
        m.note_admitted(0, 10, true);
        m.note_admitted(1, 0, false);
        m.note_dequeued();
        m.note_admitted(1, 2, false);
        let snap = m.snapshot();
        assert_eq!(snap.queue_depth_high_water, 3);
        assert_eq!(snap.deferred, 1);
        assert_eq!(snap.wait_samples, 4);
        assert_eq!(snap.admission_wait_p99_us, 10);
        let conns = m.connections();
        assert_eq!(conns.len(), 2);
        assert_eq!(conns[0].1.requests, 2);
        assert_eq!(conns[0].1.max_wait_us, 10);
        assert_eq!(conns[1].1.requests, 2);
    }

    #[test]
    fn dequeue_saturates_at_zero() {
        let m = ServeMetrics::default();
        m.note_dequeued();
        m.note_admitted(0, 0, false);
        assert_eq!(m.snapshot().queue_depth_high_water, 1);
    }

    #[test]
    fn snapshots_render_as_json_and_summary() {
        let m = ServeMetrics::default();
        m.note_connection();
        m.note_rejected();
        m.note_admitted(7, 42, true);
        m.note_response(7);
        let snap = m.snapshot();
        let doc = snap.to_json();
        assert_eq!(doc.get("connections").and_then(Json::as_u64), Some(1));
        assert_eq!(doc.get("rejected").and_then(Json::as_u64), Some(1));
        assert_eq!(doc.get("deferred").and_then(Json::as_u64), Some(1));
        let text = snap.summary(&m.connections());
        assert!(text.contains("queue high-water 1"));
        assert!(text.contains("conn 7: 1 request(s), 1 response(s)"));
    }

    #[test]
    fn the_reservoir_is_deterministic_and_covers_the_whole_stream() {
        // Two identical streams produce identical reservoirs.
        let stream: Vec<u64> = (0..1000).collect();
        let mut a = Vec::new();
        let mut b = Vec::new();
        for (n, &v) in stream.iter().enumerate() {
            reservoir_insert(&mut a, 64, n as u64, v);
            reservoir_insert(&mut b, 64, n as u64, v);
        }
        assert_eq!(a, b);
        assert_eq!(a.len(), 64);
        // The old buffer stopped at the first 64 observations; the
        // reservoir must have replaced some of them with later ones.
        assert!(
            a.iter().any(|&v| v >= 64),
            "reservoir never sampled past the startup window"
        );
        // And it never invents values outside the stream.
        assert!(a.iter().all(|&v| v < 1000));
    }

    #[test]
    fn long_runs_report_honest_tail_latency() {
        // A stream whose waits *grow* over time: the startup-biased
        // buffer would report a tiny p99; the reservoir must not.
        let m = ServeMetrics::default();
        let total = ServeMetrics::MAX_SAMPLES as u64 * 2;
        for n in 0..total {
            m.note_admitted(0, n, false);
            m.note_dequeued();
        }
        let snap = m.snapshot();
        assert_eq!(snap.wait_samples, total);
        assert!(
            snap.admission_wait_p99_us > ServeMetrics::MAX_SAMPLES as u64,
            "p99 {} stuck in the startup window",
            snap.admission_wait_p99_us
        );
    }

    #[test]
    fn waves_count_their_tasks_and_high_water() {
        let m = ServeMetrics::default();
        m.note_wave(5);
        m.note_wave(11);
        m.note_wave(0);
        let snap = m.snapshot();
        assert_eq!(
            (snap.pool_waves, snap.pool_tasks, snap.pool_max_wave),
            (3, 16, 11)
        );
    }

    #[test]
    fn timeouts_are_counted_and_rendered() {
        let m = ServeMetrics::default();
        m.note_timeout();
        m.note_timeout();
        let snap = m.snapshot();
        assert_eq!(snap.timeouts, 2);
        assert_eq!(snap.to_json().get("timeouts").and_then(Json::as_u64), Some(2));
        assert!(snap.summary(&[]).contains("2 timeout(s)"));
    }

    #[test]
    fn percentiles_use_nearest_rank() {
        let sorted: Vec<u64> = (1..=100).collect();
        assert_eq!(percentile(&sorted, 50.0), 50);
        assert_eq!(percentile(&sorted, 99.0), 99);
        assert_eq!(percentile(&[7], 99.0), 7);
        assert_eq!(percentile(&[], 50.0), 0);
    }
}
