//! The server's persistent cross-request caches.
//!
//! Two bounded LRU tiers (both built on [`regbal_eval::Lru`]) survive
//! across requests, connections and replay passes:
//!
//! * **responses** — keyed `(content hash, Nthd, Nreg, strategy)`,
//!   holding finished outcomes (the `regbal-alloc/1` document, or a
//!   cached failure). A hit answers without touching the allocator.
//! * **trajectories** — keyed `(content hash, Nthd)`, holding the
//!   loaded thread programs plus their [`SweepColumn`]: one lazy
//!   [`regbal_core::SpillTrajectory`] (balanced, and hybrid at the
//!   one-shot default spill base) — the same column type the eval
//!   sweep caches per `(scenario, PU)`. The greedy descent never
//!   consults the register-file size while choosing steps, and the
//!   spill picks never read it, so one trajectory answers **every**
//!   `Nreg`: a request at a new budget for a known module descends
//!   only as far as that budget needs, from the analyses and rounds
//!   the module already holds, instead of re-searching from scratch.
//!   Every request allocates through the one strategy dispatch the
//!   one-shot path uses too ([`crate::oneshot::allocate`]), over this
//!   column instead of a fresh one, with one column lookup: the
//!   balanced verdict, the hybrid verdict, or the ladder's walk on the
//!   column's trajectory ([`SweepColumn::ladder`]), whose balanced rung
//!   reads the balanced side and both spilling rungs the hybrid side
//!   (the scratch rung replays its picks).
//!
//! All map mutation happens on the dispatcher thread (deterministic
//! hit/miss/eviction accounting); worker threads only race on the
//! trajectories' columns, whose lock serialises them (a ladder request
//! holds it for its whole walk), so a module's analyses and spill
//! rounds are computed once and shared.

use crate::oneshot::{self, ServeStrategy};
use crate::store::{DiskRead, DiskStore};
use regbal_eval::{Json, Lru, SweepColumn};
use regbal_ir::Func;
use std::collections::HashSet;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

/// The response-cache key: content hash, replica count, register-file
/// size, strategy.
pub type ResponseKey = (u64, usize, usize, ServeStrategy);

/// A finished outcome, cheap to replay from the cache.
#[derive(Debug, Clone)]
pub enum Outcome {
    /// The `regbal-alloc/1` document of a successful allocation.
    Doc(Arc<Json>),
    /// An allocation failure (negative caching: the engine's verdicts
    /// are deterministic, so failures replay like successes).
    Fail {
        /// Stable [`regbal_core::AllocError::code`].
        code: String,
        /// The CLI-identical message.
        message: String,
    },
    /// The module text failed to parse.
    Parse {
        /// The `regbal-ir` message.
        message: String,
        /// Line/column into the `func` text (0,0 for structural module
        /// errors that have no position).
        at: (usize, usize),
    },
}

/// One module's loaded programs plus its lazy spill trajectory. Shared
/// by `Arc` with the worker pool.
#[derive(Debug)]
pub struct Trajectory {
    /// The replicated thread programs (roots × `nthd`).
    pub funcs: Vec<Func>,
    column: SweepColumn,
}

impl Trajectory {
    /// Computes the outcome for one request against this trajectory:
    /// allocate under `strategy` from the column, build the
    /// CLI-identical document. Runs on a worker thread; only the
    /// column is shared state.
    pub fn outcome(&self, nreg: usize, strategy: ServeStrategy) -> Outcome {
        match oneshot::verdict(&self.column, &self.funcs, nreg, strategy) {
            Ok(verdict) => {
                Outcome::Doc(Arc::new(oneshot::verdict_doc(&self.funcs, nreg, &verdict)))
            }
            Err(failure) => Outcome::Fail {
                code: failure.code.into(),
                message: failure.message,
            },
        }
    }
}

/// Deterministic cache counters, exposed by the `stats` request.
#[derive(Debug, Default)]
pub struct Counters {
    /// Top-level request lines admitted (any kind).
    pub requests: u64,
    /// Individual alloc units processed (batch elements counted).
    pub allocs: u64,
    /// Response-cache hits (including duplicates within one wave,
    /// which are served from the wave's own computation).
    pub hits: u64,
    /// Response-cache misses.
    pub misses: u64,
    /// Response-cache evictions.
    pub evictions: u64,
    /// Trajectory-cache evictions.
    pub trajectory_evictions: u64,
    /// Trajectory sides started: each resident module's column counts
    /// its balanced side on the first request that balances and its
    /// hybrid side on the first that spills (a balanced-spill request,
    /// or a ladder request that reaches a spilling rung), whatever
    /// `Nreg` asks — so at most two per trajectory admitted. Re-descents
    /// and round rebuilds inside a trajectory are not counted: how many
    /// there are depends on which racing worker reaches the column
    /// first. The total is a function of the admitted request set, the
    /// same at any worker count (monotonic; shared with every column).
    pub descents: Arc<AtomicU64>,
    /// Alloc misses that reused an already-resident trajectory
    /// instead of loading the module afresh.
    pub descent_reuses: u64,
    /// Distinct content hashes admitted.
    pub distinct: HashSet<u64>,
    /// Memory misses answered from the on-disk store (responses or
    /// modules); each is also counted as a `hits` — a warm answer is a
    /// warm answer, wherever it came from.
    pub disk_hits: u64,
    /// Corrupt or truncated disk entries degraded to cold misses.
    pub disk_corrupt: u64,
    /// Entries persisted to disk.
    pub disk_writes: u64,
    /// Disk writes that failed after every retry (logged, never fatal).
    pub disk_write_errors: u64,
    /// Disk-write retries attempted (a write that lands on retry `k`
    /// counts `k` here and one `disk_writes`).
    pub disk_retries: u64,
}

/// The bounded, deterministic retry schedule for transient disk-write
/// failures: one attempt plus one retry per entry, sleeping the listed
/// milliseconds before each retry. Short and fixed — the disk tier is
/// an accelerator, so after the schedule is exhausted the write is
/// simply dropped (a future cold miss), never an error.
pub const WRITE_BACKOFF_MS: [u64; 2] = [1, 4];

/// Runs `write` up to `1 + WRITE_BACKOFF_MS.len()` times, sleeping the
/// schedule between attempts and counting retries into `retries`.
fn retry_write(retries: &mut u64, mut write: impl FnMut() -> bool) -> bool {
    if write() {
        return true;
    }
    for ms in WRITE_BACKOFF_MS {
        std::thread::sleep(std::time::Duration::from_millis(ms));
        *retries += 1;
        if write() {
            return true;
        }
    }
    false
}

/// The persistent cross-request cache: both LRU tiers plus counters.
/// Owned by the dispatcher; outlives connections.
pub struct ServeCache {
    responses: Lru<ResponseKey, Outcome>,
    trajectories: Lru<(u64, usize), Arc<Trajectory>>,
    store: Option<DiskStore>,
    /// The counters (dispatcher-updated, except `descents`).
    pub counters: Counters,
}

impl ServeCache {
    /// A fresh cache: `cache_cap` response entries, `trajectory_cap`
    /// trajectories.
    pub fn new(cache_cap: usize, trajectory_cap: usize) -> ServeCache {
        ServeCache {
            responses: Lru::new(cache_cap),
            trajectories: Lru::new(trajectory_cap),
            store: None,
            counters: Counters::default(),
        }
    }

    /// Attaches a content-addressed on-disk store: memory misses probe
    /// the disk before being declared cold, and every admitted module
    /// text and finished outcome is written through — so a restarted
    /// server over the same directory answers warm.
    pub fn with_store(mut self, store: DiskStore) -> ServeCache {
        self.store = Some(store);
        self
    }

    /// Response-cache lookup, counting a hit on success. A memory miss
    /// probes the disk store (when attached); a verified disk entry is
    /// promoted into the memory tier and counts as a hit, a corrupt or
    /// truncated one degrades to a cold miss with a counter bump.
    pub fn lookup(&mut self, key: &ResponseKey) -> Option<Outcome> {
        if let Some(outcome) = self.responses.get(key) {
            self.counters.hits += 1;
            return Some(outcome.clone());
        }
        if let Some(store) = &self.store {
            match store.load_response(key) {
                DiskRead::Hit(outcome) => {
                    self.counters.hits += 1;
                    self.counters.disk_hits += 1;
                    if self.responses.insert(*key, outcome.clone()).is_some() {
                        self.counters.evictions += 1;
                    }
                    return Some(outcome);
                }
                DiskRead::Corrupt => self.counters.disk_corrupt += 1,
                DiskRead::Miss => {}
            }
        }
        self.counters.misses += 1;
        None
    }

    /// Stores a computed outcome, counting any eviction, and writes it
    /// through to the disk store when one is attached (retrying
    /// transient write failures on the [`WRITE_BACKOFF_MS`] schedule).
    pub fn store(&mut self, key: ResponseKey, outcome: Outcome) {
        if let Some(store) = &self.store {
            if retry_write(&mut self.counters.disk_retries, || {
                store.store_response(&key, &outcome)
            }) {
                self.counters.disk_writes += 1;
            } else {
                self.counters.disk_write_errors += 1;
            }
        }
        if self.responses.insert(key, outcome).is_some() {
            self.counters.evictions += 1;
        }
    }

    /// The resident trajectory for `(hash, nthd)`, if any (counts a
    /// descent reuse — the caller only asks after a response miss).
    /// When the memory tier misses but the disk store holds a verified
    /// module text under `hash`, the trajectory is rebuilt from it (the
    /// allocator is deterministic, so a rebuilt trajectory serves the
    /// same bytes the original did).
    pub fn trajectory(&mut self, hash: u64, nthd: usize) -> Option<Arc<Trajectory>> {
        let t = self.trajectories.get(&(hash, nthd)).cloned();
        if t.is_some() {
            self.counters.descent_reuses += 1;
            return t;
        }
        let text = match &self.store {
            Some(store) => match store.load_module(hash) {
                DiskRead::Hit(text) => text,
                DiskRead::Corrupt => {
                    self.counters.disk_corrupt += 1;
                    return None;
                }
                DiskRead::Miss => return None,
            },
            None => return None,
        };
        match self.admit_trajectory(hash, nthd, &text) {
            Ok(t) => {
                self.counters.disk_hits += 1;
                Some(t)
            }
            // A verified module that no longer loads (e.g. written by
            // a newer grammar) degrades to a miss, never an error.
            Err(_) => {
                self.counters.disk_corrupt += 1;
                None
            }
        }
    }

    /// Loads `text` as a module, replicates it `nthd` times and admits
    /// the trajectory. Load failures come back as a ready [`Outcome`]
    /// (and are *not* admitted — `Err` is cached at the response tier
    /// by the caller instead).
    ///
    /// # Errors
    ///
    /// The ready error outcome for an unloadable module.
    pub fn admit_trajectory(
        &mut self,
        hash: u64,
        nthd: usize,
        text: &str,
    ) -> Result<Arc<Trajectory>, Outcome> {
        let roots = oneshot::load_module(text).map_err(|e| match e {
            oneshot::LoadError::Parse(p) => Outcome::Parse {
                message: p.to_string(),
                at: (p.line, p.col),
            },
            oneshot::LoadError::Module(m) => Outcome::Parse {
                message: m,
                at: (0, 0),
            },
        })?;
        let funcs = oneshot::replicate(&roots, nthd);
        let traj = Arc::new(Trajectory {
            column: SweepColumn::new(self.counters.descents.clone()),
            funcs,
        });
        if let Some(store) = &self.store {
            if retry_write(&mut self.counters.disk_retries, || {
                store.store_module(hash, text)
            }) {
                self.counters.disk_writes += 1;
            } else {
                self.counters.disk_write_errors += 1;
            }
        }
        if self
            .trajectories
            .insert((hash, nthd), traj.clone())
            .is_some()
        {
            self.counters.trajectory_evictions += 1;
        }
        Ok(traj)
    }

    /// Records one admitted top-level request.
    pub fn count_request(&mut self) {
        self.counters.requests += 1;
    }

    /// Records one alloc unit and its content hash.
    pub fn count_alloc(&mut self, hash: u64) {
        self.counters.allocs += 1;
        self.counters.distinct.insert(hash);
    }

    /// The `stats` member of a stats response. The `disk_bytes` and
    /// `gc_*` members come straight from the capped store (all zero
    /// when uncapped or memory-only); everything else is the
    /// deterministic [`Counters`] set.
    pub fn stats_json(&self) -> Json {
        let c = &self.counters;
        let disk_bytes = self.store.as_ref().map(DiskStore::bytes).unwrap_or(0);
        let (gc_evictions, gc_evicted_bytes) = self
            .store
            .as_ref()
            .map(DiskStore::gc_counters)
            .unwrap_or((0, 0));
        Json::Obj(vec![
            ("requests".into(), Json::uint(c.requests)),
            ("allocs".into(), Json::uint(c.allocs)),
            ("hits".into(), Json::uint(c.hits)),
            ("misses".into(), Json::uint(c.misses)),
            ("evictions".into(), Json::uint(c.evictions)),
            ("entries".into(), Json::uint(self.responses.len() as u64)),
            ("cache_cap".into(), Json::uint(self.responses.cap() as u64)),
            (
                "trajectories".into(),
                Json::uint(self.trajectories.len() as u64),
            ),
            (
                "trajectory_evictions".into(),
                Json::uint(c.trajectory_evictions),
            ),
            (
                "descents".into(),
                Json::uint(c.descents.load(Ordering::Relaxed)),
            ),
            ("descent_reuses".into(), Json::uint(c.descent_reuses)),
            (
                "distinct_functions".into(),
                Json::uint(c.distinct.len() as u64),
            ),
            ("disk_hits".into(), Json::uint(c.disk_hits)),
            ("disk_corrupt".into(), Json::uint(c.disk_corrupt)),
            ("disk_writes".into(), Json::uint(c.disk_writes)),
            (
                "disk_write_errors".into(),
                Json::uint(c.disk_write_errors),
            ),
            ("disk_retries".into(), Json::uint(c.disk_retries)),
            ("disk_bytes".into(), Json::uint(disk_bytes)),
            ("gc_evictions".into(), Json::uint(gc_evictions)),
            (
                "gc_evicted_bytes".into(),
                Json::uint(gc_evicted_bytes),
            ),
        ])
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::proto::content_hash;

    const PROG: &str = "func t {\nbb0:\n v0 = mov 64\n v1 = load sram[v0+0]\n v1 = add v1, 1\n store sram[v0+0], v1\n iter_end\n halt\n}";

    fn cache() -> ServeCache {
        ServeCache::new(4096, 64)
    }

    /// One trajectory per module serves every budget and strategy, on
    /// a former sweep size or between them, and every served document
    /// is the one a fresh one-shot run builds.
    #[test]
    fn one_descent_serves_every_swept_budget_and_strategy() {
        let mut cache = cache();
        let h = content_hash(PROG);
        let traj = cache.admit_trajectory(h, 2, PROG).unwrap();
        let descents = cache.counters.descents.clone();
        for nreg in [32, 8, 13, 16, 3] {
            for strategy in [
                ServeStrategy::Balanced,
                ServeStrategy::BalancedSpill,
                ServeStrategy::Ladder,
            ] {
                let outcome = traj.outcome(nreg, strategy);
                let direct = oneshot::allocate(&traj.funcs, nreg, strategy)
                    .map(|v| oneshot::verdict_doc(&traj.funcs, nreg, &v));
                match (outcome, direct) {
                    (Outcome::Doc(doc), Ok(want)) => {
                        assert_eq!(doc.get("nreg").and_then(Json::as_u64), Some(nreg as u64));
                        assert_eq!(doc.pretty(), want.pretty(), "{strategy:?}@{nreg}");
                    }
                    (Outcome::Fail { message, .. }, Err(e)) => {
                        assert_eq!(message, e.message, "{strategy:?}@{nreg}");
                    }
                    (a, b) => panic!("{strategy:?}@{nreg}: served {a:?} vs direct {b:?}"),
                }
            }
        }
        // Fifteen requests, two trajectory sides (balanced + hybrid):
        // the trajectory answered every budget and the ladder's rungs
        // read it instead of searching afresh.
        assert_eq!(descents.load(Ordering::Relaxed), 2);
    }

    /// Served verdicts equal fresh one-target runs whatever order the
    /// budgets arrive in: the hungry module spills below 12 registers,
    /// so later, larger budgets resolve in rounds the trajectory has
    /// already passed.
    #[test]
    fn trajectory_verdicts_match_dedicated_one_shot_runs() {
        let mut cache = ServeCache::new(16, 16);
        let traj = cache.admit_trajectory(content_hash(HOT), 2, HOT).unwrap();
        for nreg in [4, 32, 8, 20, 6, 9, 8] {
            for strategy in [
                ServeStrategy::Balanced,
                ServeStrategy::BalancedSpill,
                ServeStrategy::Ladder,
            ] {
                let served = traj.outcome(nreg, strategy);
                let direct = oneshot::allocate(&traj.funcs, nreg, strategy)
                    .map(|v| oneshot::verdict_doc(&traj.funcs, nreg, &v));
                match (served, direct) {
                    (Outcome::Doc(a), Ok(b)) => {
                        assert_eq!(a.pretty(), b.pretty(), "{strategy:?}@{nreg} diverged");
                    }
                    (Outcome::Fail { message, .. }, Err(e)) => {
                        assert_eq!(message, e.message);
                    }
                    (a, b) => panic!("{strategy:?}@{nreg}: served {a:?} vs direct {b:?}"),
                }
            }
        }
    }

    /// A resident module asked far more distinct budgets than its
    /// trajectory memoizes, twice over, answers each like one-shot
    /// allocation — evicted budgets too — and starts no side twice.
    #[test]
    fn ever_new_budgets_on_one_module_match_one_shot() {
        let mut cache = ServeCache::new(16, 16);
        let traj = cache.admit_trajectory(content_hash(HOT), 2, HOT).unwrap();
        let budgets: Vec<usize> = (1..=100).chain((1..=100).rev()).collect();
        for nreg in budgets {
            for strategy in [ServeStrategy::Balanced, ServeStrategy::BalancedSpill] {
                let served = traj.outcome(nreg, strategy);
                let direct = oneshot::allocate(&traj.funcs, nreg, strategy)
                    .map(|v| oneshot::verdict_doc(&traj.funcs, nreg, &v));
                match (served, direct) {
                    (Outcome::Doc(a), Ok(b)) => {
                        assert_eq!(a.pretty(), b.pretty(), "{strategy:?}@{nreg}");
                    }
                    (Outcome::Fail { message, .. }, Err(e)) => {
                        assert_eq!(message, e.message, "{strategy:?}@{nreg}");
                    }
                    (a, b) => panic!("{strategy:?}@{nreg}: served {a:?} vs direct {b:?}"),
                }
            }
        }
        assert_eq!(cache.counters.descents.load(Ordering::Relaxed), 2);
    }

    /// Five co-live values across a switch: two copies cannot share
    /// eight registers, so the ladder settles on its scratch rung.
    const HOT: &str = "func hot {\nbb0:\n v0 = mov 1\n v1 = mov 2\n v2 = mov 3\n v3 = mov 4\n v4 = mov 5\n ctx\n v5 = add v0, v1\n v5 = add v5, v2\n v5 = add v5, v3\n v5 = add v5, v4\n store scratch[v5+0], v5\n halt\n}";

    /// Every rung of a served ladder reads the column: a walk that
    /// settles on balanced-scratch starts the trajectory's balanced
    /// side and its hybrid side (which the scratch rung replays) and
    /// nothing else, and still answers exactly what one-shot
    /// allocation does.
    #[test]
    fn the_ladder_scratch_rung_is_seeded_from_the_hybrid_descent() {
        let mut cache = ServeCache::new(16, 16);
        let traj = cache.admit_trajectory(content_hash(HOT), 2, HOT).unwrap();
        let served = traj.outcome(8, ServeStrategy::Ladder);
        let direct = oneshot::allocate(&traj.funcs, 8, ServeStrategy::Ladder).unwrap();
        let oneshot::Verdict::Ladder(ladder) = &direct else {
            panic!("a ladder request yields a ladder verdict");
        };
        assert_eq!(ladder.step, regbal_core::LadderStep::BalancedScratch);
        let Outcome::Doc(doc) = served else {
            panic!("the served ladder failed: {served:?}");
        };
        assert_eq!(
            doc.pretty(),
            oneshot::verdict_doc(&traj.funcs, 8, &direct).pretty()
        );
        assert_eq!(
            cache.counters.descents.load(Ordering::Relaxed),
            2,
            "balanced + hybrid"
        );
    }

    #[test]
    fn response_tier_counts_hits_misses_and_evictions() {
        let mut cache = ServeCache::new(1, 16);
        let key_a: ResponseKey = (1, 1, 32, ServeStrategy::Balanced);
        let key_b: ResponseKey = (2, 1, 32, ServeStrategy::Balanced);
        assert!(cache.lookup(&key_a).is_none());
        cache.store(
            key_a,
            Outcome::Fail {
                code: "infeasible".into(),
                message: "m".into(),
            },
        );
        assert!(cache.lookup(&key_a).is_some());
        // Capacity one: a second key evicts the first.
        cache.store(
            key_b,
            Outcome::Fail {
                code: "infeasible".into(),
                message: "m".into(),
            },
        );
        assert!(cache.lookup(&key_a).is_none());
        assert_eq!(cache.counters.hits, 1);
        assert_eq!(cache.counters.misses, 2);
        assert_eq!(cache.counters.evictions, 1);
    }

    #[test]
    fn retry_write_follows_the_bounded_schedule() {
        // Succeeds on the final retry: all retries counted, write lands.
        let mut retries = 0;
        let mut calls = 0;
        assert!(retry_write(&mut retries, || {
            calls += 1;
            calls == 1 + WRITE_BACKOFF_MS.len()
        }));
        assert_eq!(retries, WRITE_BACKOFF_MS.len() as u64);
        // Never succeeds: bounded attempts, reported failed.
        let mut retries = 0;
        let mut calls = 0;
        assert!(!retry_write(&mut retries, || {
            calls += 1;
            false
        }));
        assert_eq!(calls, 1 + WRITE_BACKOFF_MS.len());
        assert_eq!(retries, WRITE_BACKOFF_MS.len() as u64);
        // First-try success never sleeps or counts.
        let mut retries = 0;
        assert!(retry_write(&mut retries, || true));
        assert_eq!(retries, 0);
    }

    #[test]
    fn transient_write_faults_are_healed_by_retry() {
        use crate::faults::{FaultPlan, FaultSite};
        use crate::store::DiskStore;
        let dir = std::env::temp_dir().join(format!(
            "regbal-cache-retry-{}",
            std::process::id()
        ));
        let _ = std::fs::remove_dir_all(&dir);
        // The first write attempt fails; the retry (call index 1) lands.
        let plan = Arc::new(FaultPlan::seeded(3).with_exact(FaultSite::DiskWriteFail, &[0]));
        let store = DiskStore::open(&dir).unwrap().with_faults(plan);
        let mut cache = ServeCache::new(16, 16).with_store(store);
        let key: ResponseKey = (7, 1, 32, ServeStrategy::Balanced);
        cache.store(
            key,
            Outcome::Fail {
                code: "infeasible".into(),
                message: "m".into(),
            },
        );
        assert_eq!(cache.counters.disk_writes, 1);
        assert_eq!(cache.counters.disk_write_errors, 0);
        assert_eq!(cache.counters.disk_retries, 1);
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn unloadable_modules_become_parse_outcomes() {
        let mut cache = cache();
        let bad = "func t {\nbb0:\n v0 = frob 1\n}";
        match cache.admit_trajectory(content_hash(bad), 1, bad) {
            Err(Outcome::Parse { at, .. }) => assert_eq!(at.0, 3),
            other => panic!("expected a parse outcome: {other:?}"),
        }
        match cache.admit_trajectory(content_hash(""), 1, "") {
            Err(Outcome::Parse { message, at }) => {
                assert_eq!(message, "no functions found");
                assert_eq!(at, (0, 0));
            }
            other => panic!("expected a module outcome: {other:?}"),
        }
    }
}
