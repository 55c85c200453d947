//! The work-stealing worker pool behind the sharded sweep — and, since
//! the allocation server landed, behind every batch of server requests.
//!
//! The shape is deliberately minimal: `total` independent tasks indexed
//! `0..total`, a shared atomic cursor the workers steal indices from,
//! and a positional merge — the engine's own loop,
//! [`regbal_core::steal_map`]. Tasks differ wildly in cost (a cache hit
//! returns instantly, a cold ladder descent burns a whole engine
//! search), so static striping would idle workers; the cursor keeps
//! every worker busy until the range is drained. Because the merge is
//! positional — never arrival-ordered — the output vector is identical
//! at any worker count whenever `compute` itself is deterministic.

use std::sync::atomic::{AtomicU64, Ordering};

/// Cumulative pool counters, shared by every [`shard_metered`] call
/// that names the same meter. All fields are monotonic and updated
/// with relaxed atomics — the meter observes the pool, it never
/// synchronises it — so identical task streams produce identical
/// counter totals at any worker count.
#[derive(Debug, Default)]
pub struct PoolMeter {
    /// `shard` calls metered (one per dispatched wave/sweep).
    pub shards: AtomicU64,
    /// Tasks computed across all metered calls.
    pub tasks: AtomicU64,
    /// Largest single metered call, in tasks (high-water mark).
    pub max_shard: AtomicU64,
}

impl PoolMeter {
    /// Records one `shard` call over `total` tasks.
    fn note(&self, total: usize) {
        self.shards.fetch_add(1, Ordering::Relaxed);
        self.tasks.fetch_add(total as u64, Ordering::Relaxed);
        self.max_shard
            .fetch_max(total as u64, Ordering::Relaxed);
    }

    /// A consistent-enough snapshot: `(shards, tasks, max_shard)`.
    pub fn snapshot(&self) -> (u64, u64, u64) {
        (
            self.shards.load(Ordering::Relaxed),
            self.tasks.load(Ordering::Relaxed),
            self.max_shard.load(Ordering::Relaxed),
        )
    }
}

/// Runs `compute(0..total)` across `threads` workers
/// ([`regbal_core::steal_map`]), returning the results in index order.
/// A panic inside `compute` propagates to the caller (the eval sweep
/// catches per-cell panics *inside* its compute closure, so anything
/// escaping here is a harness bug).
pub fn shard<T: Send>(
    total: usize,
    threads: usize,
    compute: impl Fn(usize) -> T + Sync,
) -> Vec<T> {
    shard_metered(total, threads, None, compute)
}

/// [`shard`], recording the call in `meter` when one is given. The
/// meter only counts — results and ordering are unaffected.
pub fn shard_metered<T: Send>(
    total: usize,
    threads: usize,
    meter: Option<&PoolMeter>,
    compute: impl Fn(usize) -> T + Sync,
) -> Vec<T> {
    if let Some(meter) = meter {
        meter.note(total);
    }
    regbal_core::steal_map(total, threads, compute)
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::{AtomicUsize, Ordering};

    #[test]
    fn results_land_in_index_order_at_any_width() {
        let serial = shard(17, 1, |i| i * i);
        for threads in [2, 4, 9, 32] {
            assert_eq!(shard(17, threads, |i| i * i), serial);
        }
        assert_eq!(shard(0, 4, |i| i), Vec::<usize>::new());
        assert_eq!(shard(1, 4, |i| i + 1), vec![1]);
    }

    #[test]
    fn the_meter_counts_shards_tasks_and_high_water() {
        let meter = PoolMeter::default();
        shard_metered(5, 2, Some(&meter), |i| i);
        shard_metered(11, 4, Some(&meter), |i| i);
        shard_metered(0, 1, Some(&meter), |i| i);
        assert_eq!(meter.snapshot(), (3, 16, 11));
        // A metered run returns exactly what an unmetered one does.
        assert_eq!(shard_metered(9, 3, Some(&meter), |i| i * 2), shard(9, 3, |i| i * 2));
    }

    #[test]
    fn every_index_is_computed_exactly_once() {
        let calls = AtomicUsize::new(0);
        let out = shard(100, 7, |i| {
            calls.fetch_add(1, Ordering::Relaxed);
            i
        });
        assert_eq!(calls.load(Ordering::Relaxed), 100);
        assert_eq!(out, (0..100).collect::<Vec<_>>());
    }
}
