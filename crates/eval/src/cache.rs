//! The per-(scenario, PU) compiled-allocation cache.
//!
//! Within one sweep the same PU thread set is allocated repeatedly: the
//! `balanced` strategy's cell, round 0 of the `balanced-spill` hybrid,
//! and the ladder's first rung all run the *same* deterministic engine
//! search on the *same* inputs — and the `balanced-scratch` strategy and
//! the ladder's spilling rungs are all read from the hybrid's one spill
//! trajectory ([`regbal_core::SpillTrajectory::scratch`] replays its
//! picks into the scratchpad). On top of that, the engine's greedy
//! descent never consults the register-file size while choosing steps,
//! and the hybrid's spill picks never read it either, so one lazy
//! [`regbal_core::SpillTrajectory`] answers the balanced and the hybrid
//! verdict — and the scratch replay and the fallback ladder's walk
//! built on them — at *every* `Nreg`.
//!
//! This cache therefore stores one [`SweepColumn`] per
//! `(scenario index, pu)` ([`AllocCache::column`]), built with the PU's
//! thread set and spill base: within a scenario both are fixed and the
//! engine config is the default everywhere, so the key pins every input
//! of the search, and a lookup at any `Nreg` is answered from the
//! column's one trajectory. The allocation server keeps one column per
//! resident module for the same reason.
//!
//! Sharing is behaviour-preserving by construction: the engine is
//! deterministic and the trajectory returns bit-identical verdicts to
//! dedicated per-size runs, in any query order (proven by the core
//! crate's equivalence tests). The sharded sweep's workers therefore
//! produce byte-identical reports with the cache on or off, at any
//! worker count.
//!
//! A fresh column's first lookup is a dedicated run. That is how the
//! uncached callers allocate — [`crate::Strategy::compile`] and the
//! server's one-shot path, each over a fresh column — so they run the
//! very code the cached sweep runs.

use regbal_core::{
    AllocError, EngineConfig, HybridAllocation, LadderAllocation, LadderError, LadderStep,
    MultiAllocation, ScratchParams, SpillTrajectory,
};
use regbal_ir::Func;
use regbal_sim::SanitizerConfig;
use std::collections::HashMap;
use std::hash::Hash;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex, OnceLock, PoisonError};

/// One fixed thread set's lazy [`SpillTrajectory`] at one spill base,
/// behind a lock. Each lookup resolves only the size it asks, from the
/// trajectory, which memoizes recent verdicts per side. Callers racing
/// on one column block on its lock, so a verdict the trajectory still
/// holds is computed once.
///
/// A balanced, hybrid or scratch lookup holds the lock for its own
/// verdict. A ladder lookup holds it for the whole walk: the rung plan,
/// both balancing verdicts, the scratch replay, and — only after both
/// spilling rungs have failed, since the plan always orders the Chaitin
/// rungs after balanced-spill — the Chaitin rungs.
#[derive(Debug)]
pub struct SweepColumn {
    funcs: Vec<Func>,
    spill_base: i64,
    descents: Arc<AtomicU64>,
    state: Mutex<ColumnState>,
}

/// What a column has computed so far.
#[derive(Debug, Default)]
struct ColumnState {
    trajectory: Option<SpillTrajectory>,
    balanced_started: bool,
    hybrid_started: bool,
}

impl SweepColumn {
    /// An empty column over `funcs`, with thread `t`'s memory spill
    /// slots from `spill_base + t·0x1000`, counting into `descents` each
    /// side of its trajectory — balanced and hybrid — the first time it
    /// is asked.
    pub fn new(funcs: &[Func], spill_base: i64, descents: Arc<AtomicU64>) -> SweepColumn {
        SweepColumn {
            funcs: funcs.to_vec(),
            spill_base,
            descents,
            state: Mutex::default(),
        }
    }

    /// The thread programs the column allocates.
    pub fn funcs(&self) -> &[Func] {
        &self.funcs
    }

    /// `query` run on the column's trajectory, under the column's lock.
    /// The query returns its answer with the sides it asked —
    /// `[balanced, hybrid]` — and each side is counted on its first
    /// ask. A panic in an allocation poisons the lock and may
    /// leave the trajectory half-updated, so the recovered state drops
    /// it (each verdict is then computed afresh, identically); the
    /// started flags stay, and the column is still counted once per
    /// side.
    fn query<T>(&self, query: impl FnOnce(&mut SpillTrajectory) -> (T, [bool; 2])) -> T {
        let mut state = self.state.lock().unwrap_or_else(|poisoned| {
            let mut state = poisoned.into_inner();
            state.trajectory = None;
            self.state.clear_poison();
            state
        });
        let state = &mut *state;
        let trajectory = state.trajectory.get_or_insert_with(|| {
            SpillTrajectory::new(&self.funcs, EngineConfig::default(), self.spill_base)
        });
        let (answer, [balanced, hybrid]) = query(trajectory);
        for (asked, started) in [
            (balanced, &mut state.balanced_started),
            (hybrid, &mut state.hybrid_started),
        ] {
            if asked && !std::mem::replace(started, true) {
                self.descents.fetch_add(1, Ordering::Relaxed);
            }
        }
        answer
    }

    /// The balanced-engine verdict at `nreg` registers — bit-identical
    /// to a dedicated [`regbal_core::allocate_threads`] run.
    ///
    /// # Errors
    ///
    /// The engine's own verdict — [`AllocError::Infeasible`] and
    /// friends are cached and replayed like successes.
    pub fn balanced(&self, nreg: usize) -> Result<MultiAllocation, AllocError> {
        self.query(|trajectory| {
            let verdict = trajectory.balanced(&[nreg]).pop();
            (verdict.expect("one verdict per target"), [true, false])
        })
    }

    /// The hybrid (balancing + last-resort spilling) verdict at `nreg`
    /// registers — bit-identical to a fresh trajectory's
    /// [`SpillTrajectory::hybrid`]. Its round 0 is the trajectory's
    /// balanced side, so a column that answered a balanced verdict at a
    /// size still held in its memo never descends for it twice.
    ///
    /// # Errors
    ///
    /// The hybrid allocator's own verdict.
    pub fn hybrid(&self, nreg: usize) -> Result<HybridAllocation, AllocError> {
        self.query(|trajectory| {
            let verdict = trajectory.hybrid(&[nreg]).pop();
            (verdict.expect("one verdict per target"), [false, true])
        })
    }

    /// [`SweepColumn::hybrid`]'s verdict with its picks replayed into
    /// the scratchpad tier `scratch` ([`SpillTrajectory::scratch`]).
    ///
    /// # Errors
    ///
    /// The hybrid allocator's own verdict.
    pub fn scratch(
        &self,
        nreg: usize,
        scratch: &ScratchParams,
    ) -> Result<HybridAllocation, AllocError> {
        self.query(|trajectory| {
            let verdict = trajectory.scratch(&[nreg], scratch).pop();
            (verdict.expect("one verdict per target"), [false, true])
        })
    }

    /// The fallback ladder's walk at `nreg` registers with the
    /// scratchpad tier `scratch` ([`SpillTrajectory::ladder`]) —
    /// bit-identical to a walk on a fresh trajectory. It always asks
    /// the balanced side, and the hybrid side only when its trail
    /// reaches a spilling rung.
    ///
    /// # Errors
    ///
    /// The ladder's own [`LadderError`] when every rung fails.
    pub fn ladder(
        &self,
        nreg: usize,
        scratch: &ScratchParams,
    ) -> Result<LadderAllocation, LadderError> {
        self.query(|trajectory| {
            let walk = trajectory.ladder(nreg, scratch);
            let trail = match &walk {
                Ok(alloc) => &alloc.degradations,
                Err(error) => &error.degradations,
            };
            let spilled = trail.iter().any(|d| {
                matches!(
                    d.to,
                    LadderStep::BalancedScratch | LadderStep::BalancedSpill
                )
            });
            (walk, [true, spilled])
        })
    }
}

/// Shared allocation verdicts of one evaluation run. Cloning the
/// stored results is cheap relative to the searches they replace; the
/// map locks are held only to fetch a column, never during allocation,
/// so concurrent workers computing *different* columns don't serialise
/// (workers racing on the *same* column share its trajectory).
pub struct AllocCache {
    columns: Mutex<HashMap<(usize, usize), Arc<SweepColumn>>>,
    /// Trajectory sides started across every column.
    descents: Arc<AtomicU64>,
}

impl AllocCache {
    /// A fresh cache. The `Nreg` sweep it is given is not read: every
    /// column resolves only the sizes it is asked, so a cache over any
    /// sweep — or none, the uncached callers' choice — allocates the
    /// same way.
    pub fn new(_sweep: Vec<usize>) -> AllocCache {
        AllocCache {
            columns: Mutex::default(),
            descents: Arc::default(),
        }
    }

    /// The column of PU `pu` in the suite's scenario `scenario`,
    /// created empty over `funcs` at `spill_base` on first sight (the
    /// key pins both). Every strategy reads its verdicts from it:
    /// `balanced` the balanced side, `balanced-spill` and
    /// `balanced-scratch` the hybrid side (the latter through
    /// [`SweepColumn::scratch`]), and the ladder its walk.
    pub fn column(
        &self,
        scenario: usize,
        pu: usize,
        funcs: &[Func],
        spill_base: i64,
    ) -> Arc<SweepColumn> {
        self.columns
            .lock()
            .unwrap_or_else(PoisonError::into_inner)
            .entry((scenario, pu))
            .or_insert_with(|| Arc::new(SweepColumn::new(funcs, spill_base, self.descents.clone())))
            .clone()
    }

    /// Number of spill-cost models computed so far: one per column
    /// whose hybrid side started, which computes its threads' costs
    /// once for every (strategy, nreg) cell that reads it.
    pub fn cost_computes(&self) -> usize {
        self.columns
            .lock()
            .unwrap_or_else(PoisonError::into_inner)
            .values()
            .filter(|column| {
                column
                    .state
                    .lock()
                    .unwrap_or_else(PoisonError::into_inner)
                    .hybrid_started
            })
            .count()
    }
}

/// Everything that determines a chip run's outcome besides the (fixed,
/// per-scenario) workloads: the physical binaries, the sanitizer
/// layouts, and the per-PU degradation counts. Two cells with equal
/// keys — e.g. `balanced` and `balanced-spill` at a size needing no
/// spills, or one strategy across every size it compiles identically
/// for — run the exact same deterministic simulation.
#[derive(Clone, PartialEq)]
pub struct SimKey {
    /// The physical-register binaries, per PU then thread slot.
    pub funcs: Vec<Vec<Func>>,
    /// `None` when sanitizing is off: the layouts then never reach the
    /// chip, so keying on them would only split otherwise-identical
    /// runs.
    pub sanitizers: Option<Vec<SanitizerConfig>>,
    /// Per-PU ladder-descent counts stamped into the run reports.
    pub degraded: Vec<u64>,
}

/// One shared run slot. `None` records a timeout (the run not halting
/// is just as deterministic as any other outcome).
pub type SimSlot<V> = Arc<OnceLock<Option<Arc<V>>>>;

/// One scenario's run slots, scanned linearly on lookup.
type SimShard<V> = Vec<(SimKey, SimSlot<V>)>;

/// Deduplicates chip runs across a sweep's cells, partitioned by
/// scenario (the workloads, an input of the run, are fixed per
/// scenario). Entries are scanned linearly — a scenario produces only
/// a handful of distinct binaries — and `Func` equality bails on the
/// first differing instruction. Behaviour-preserving for the same
/// reason as [`AllocCache`]: the simulator is deterministic, so a hit
/// replays exactly what recomputation would produce. Generic over the
/// run-digest type so the report pipeline keeps its digest private.
pub struct SimCache<V> {
    map: Mutex<HashMap<usize, SimShard<V>>>,
}

impl<V> Default for SimCache<V> {
    fn default() -> Self {
        SimCache {
            map: Mutex::default(),
        }
    }
}

impl<V> SimCache<V> {
    /// The shared slot of `key` within `scenario`, creating it empty on
    /// first sight. Callers race on the slot's [`OnceLock`], so exactly
    /// one of them runs the simulation.
    pub fn slot(&self, scenario: usize, key: &SimKey) -> SimSlot<V> {
        let mut map = self.map.lock().unwrap_or_else(PoisonError::into_inner);
        let entries = map.entry(scenario).or_default();
        if let Some((_, slot)) = entries.iter().find(|(k, _)| k == key) {
            return slot.clone();
        }
        let slot = SimSlot::default();
        entries.push((key.clone(), slot.clone()));
        slot
    }
}

/// A bounded map with least-recently-used eviction — the primitive
/// under the allocation server's persistent cross-request caches.
///
/// Recency is tracked with a monotonic touch counter per entry: `get`
/// and `insert` stamp the entry with the next tick, and an insert into
/// a full map evicts the entry with the oldest stamp. Lookups are
/// `O(1)`; only the eviction scan is linear in the capacity, and it
/// runs at most once per insert. Deterministic by construction — the
/// eviction order depends only on the operation sequence.
#[derive(Debug)]
pub struct Lru<K, V> {
    cap: usize,
    tick: u64,
    map: HashMap<K, (V, u64)>,
}

impl<K: Eq + Hash + Clone, V> Lru<K, V> {
    /// An empty cache holding at most `cap` entries (`cap` = 0 caches
    /// nothing: every insert immediately evicts the entry it just
    /// added, so the map never grows).
    pub fn new(cap: usize) -> Lru<K, V> {
        Lru {
            cap,
            tick: 0,
            map: HashMap::new(),
        }
    }

    /// Entries currently held.
    pub fn len(&self) -> usize {
        self.map.len()
    }

    /// Whether the cache is empty.
    pub fn is_empty(&self) -> bool {
        self.map.is_empty()
    }

    /// The configured capacity.
    pub fn cap(&self) -> usize {
        self.cap
    }

    /// Looks `key` up and, on a hit, marks it most recently used.
    pub fn get(&mut self, key: &K) -> Option<&V> {
        self.tick += 1;
        let tick = self.tick;
        match self.map.get_mut(key) {
            Some((value, stamp)) => {
                *stamp = tick;
                Some(&*value)
            }
            None => None,
        }
    }

    /// Inserts (or refreshes) `key`, returning the entry evicted to
    /// make room, if any. Re-inserting an existing key refreshes its
    /// recency and never evicts.
    pub fn insert(&mut self, key: K, value: V) -> Option<(K, V)> {
        self.tick += 1;
        let tick = self.tick;
        if let Some(slot) = self.map.get_mut(&key) {
            *slot = (value, tick);
            return None;
        }
        self.map.insert(key, (value, tick));
        if self.map.len() <= self.cap {
            return None;
        }
        let oldest = self
            .map
            .iter()
            .min_by_key(|(_, (_, stamp))| *stamp)
            .map(|(k, _)| k.clone())?;
        self.map
            .remove_entry(&oldest)
            .map(|(k, (v, _))| (k, v))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::strategy::{BalancedSpill, CompileCtx, Ladder, Strategy};
    use regbal_core::allocate_threads;
    use regbal_ir::parse_func;

    /// A dedicated one-target hybrid run with slots above `spill_base`.
    fn hybrid_at(
        funcs: &[Func],
        nreg: usize,
        spill_base: i64,
    ) -> Result<HybridAllocation, AllocError> {
        SpillTrajectory::new(funcs, EngineConfig::default(), spill_base)
            .hybrid(&[nreg])
            .pop()
            .unwrap()
    }

    fn hot() -> Func {
        parse_func(
            "func hot {\nbb0:\n v0 = mov 1\n v1 = mov 2\n v2 = mov 3\n v3 = mov 4\n v4 = mov 5\n ctx\n v5 = add v0, v1\n v5 = add v5, v2\n v5 = add v5, v3\n v5 = add v5, v4\n store scratch[v5+0], v5\n halt\n}",
        )
        .unwrap()
    }

    #[test]
    fn cached_verdicts_match_direct_computation() {
        let funcs = vec![hot(), hot()];
        let cache = AllocCache::new(vec![8, 32]);
        let direct = allocate_threads(&funcs, 32).unwrap();
        let cached = cache.column(0, 0, &funcs, 0x8_0000).balanced(32).unwrap();
        assert_eq!(direct.total_registers(), cached.total_registers());
        // Errors replay identically too.
        let e1 = cache
            .column(0, 0, &funcs, 0x8_0000)
            .balanced(8)
            .unwrap_err();
        let e2 = cache
            .column(0, 0, &funcs, 0x8_0000)
            .balanced(8)
            .unwrap_err();
        assert_eq!(e1, e2);
        // The hybrid path rescues the infeasible size, seeded by the
        // cached balanced failure.
        let h = cache.column(0, 0, &funcs, 0x8_0000).hybrid(8).unwrap();
        assert!(h.spills.iter().sum::<usize>() > 0);
        let plain = hybrid_at(&funcs, 8, 0x8_0000).unwrap();
        assert_eq!(h.funcs, plain.funcs);
        assert_eq!(h.spills, plain.spills);
        // Sizes outside the sweep are answered from the same column.
        let off = cache.column(0, 0, &funcs, 0x8_0000).balanced(16);
        assert_eq!(
            format!("{off:?}"),
            format!("{:?}", allocate_threads(&funcs, 16))
        );
        let off_h = cache.column(0, 0, &funcs, 0x8_0000).hybrid(3);
        assert_eq!(
            format!("{off_h:?}"),
            format!("{:?}", hybrid_at(&funcs, 3, 0x8_0000))
        );
    }

    /// Same function set, different (Nthd, Nreg, strategy): every axis
    /// must reach a distinct verdict — nothing may alias across keys.
    #[test]
    fn alloc_cache_keys_are_distinct_per_axis() {
        let sweep = vec![8, 24, 32];
        let cache = AllocCache::new(sweep.clone());
        let two = vec![hot(), hot()];
        let four = vec![hot(), hot(), hot(), hot()];

        // Nreg axis: the same column answers each size with its own
        // verdict (8 is infeasible for four threads, 32 fits).
        assert!(cache.column(0, 0, &four, 0x8_0000).balanced(8).is_err());
        assert!(cache.column(0, 0, &four, 0x8_0000).balanced(32).is_ok());

        // Nthd axis: the same (scenario, pu) key must never be reused
        // across different function sets — distinct groups get distinct
        // keys, and their verdicts differ.
        let a = cache.column(0, 1, &two, 0x8_0000).balanced(32).unwrap();
        let b = cache.column(1, 1, &four, 0x8_0000).balanced(32).unwrap();
        assert_eq!(a.threads.len(), 2);
        assert_eq!(b.threads.len(), 4);

        // Strategy axis: balanced and hybrid verdicts of one key live
        // in separate tables; at a size where balancing fails, the
        // hybrid entry still answers with spills.
        let e = cache.column(2, 0, &four, 0x8_0000).balanced(8).unwrap_err();
        let h = cache.column(2, 0, &four, 0x8_0000).hybrid(8).unwrap();
        assert_eq!(e.code(), "infeasible");
        assert!(h.spills.iter().sum::<usize>() > 0);
    }

    /// One trajectory answers every size of the column: the first
    /// lookup of each kind starts its side, and every other size, on the
    /// sweep or off it, is answered from it with the verdict of a
    /// fresh one-target run.
    #[test]
    fn sweep_descents_are_computed_once_and_reused() {
        let sweep = vec![8, 16, 24, 32];
        let cache = AllocCache::new(sweep.clone());
        let funcs = vec![hot(), hot()];
        let first = cache.column(0, 0, &funcs, 0x8_0000).balanced(32).unwrap();
        assert_eq!(cache.descents.load(Ordering::Relaxed), 1);
        for nreg in sweep.iter().copied().chain([12, 5, 40]) {
            let replayed = cache.column(0, 0, &funcs, 0x8_0000).balanced(nreg);
            assert_eq!(
                format!("{replayed:?}"),
                format!("{:?}", allocate_threads(&funcs, nreg)),
                "size {nreg} must replay the trajectory verdict"
            );
        }
        let again = cache.column(0, 0, &funcs, 0x8_0000).balanced(32).unwrap();
        assert_eq!(first.total_registers(), again.total_registers());
        // The hybrid side reuses the balanced one as its round 0, and
        // off-sweep sizes start nothing new.
        for nreg in [8, 3, 12, 1, 40] {
            let served = cache.column(0, 0, &funcs, 0x8_0000).hybrid(nreg);
            assert_eq!(
                format!("{served:?}"),
                format!("{:?}", hybrid_at(&funcs, nreg, 0x8_0000)),
                "hybrid size {nreg}"
            );
        }
        assert_eq!(cache.descents.load(Ordering::Relaxed), 2);
    }

    /// SimCache key distinctness: binaries, sanitizer layouts and
    /// degradation counts each split entries; scenarios partition them.
    #[test]
    fn sim_cache_distinguishes_funcs_sanitizers_and_scenarios() {
        let cache: SimCache<u32> = SimCache::default();
        let base = SimKey {
            funcs: vec![vec![hot()]],
            sanitizers: None,
            degraded: vec![0],
        };
        let slot_a = cache.slot(0, &base);
        slot_a.get_or_init(|| Some(Arc::new(1)));
        // Same key, same scenario: the same slot (and its value) again.
        assert_eq!(
            cache.slot(0, &base).get().and_then(|v| v.as_deref()),
            Some(&1)
        );
        // Same key, different scenario: a fresh slot.
        assert!(cache.slot(1, &base).get().is_none());
        // Different degradation count: a fresh slot.
        let degraded = SimKey {
            degraded: vec![2],
            ..base.clone()
        };
        assert!(cache.slot(0, &degraded).get().is_none());
        // Sanitizer layouts split otherwise-identical runs.
        let sanitized = SimKey {
            sanitizers: Some(vec![SanitizerConfig::default()]),
            ..base.clone()
        };
        assert!(cache.slot(0, &sanitized).get().is_none());
    }

    /// The LRU contract under the smallest interesting capacity: each
    /// insert evicts the previous resident, and `get` refreshes
    /// recency so the touched entry survives the next insert.
    #[test]
    fn capacity_one_lru_evicts_in_recency_order() {
        let mut lru: Lru<&str, u32> = Lru::new(1);
        assert!(lru.is_empty());
        assert_eq!(lru.insert("a", 1), None);
        assert_eq!(lru.get(&"a"), Some(&1));
        // A second key evicts the only resident.
        assert_eq!(lru.insert("b", 2), Some(("a", 1)));
        assert_eq!(lru.get(&"a"), None);
        assert_eq!(lru.len(), 1);
        // Re-inserting the resident refreshes it without evicting.
        assert_eq!(lru.insert("b", 3), None);
        assert_eq!(lru.get(&"b"), Some(&3));
        assert_eq!(lru.insert("c", 4), Some(("b", 3)));
    }

    /// Eviction order at a wider capacity: the least recently *used*
    /// entry goes first, not the least recently inserted.
    #[test]
    fn lru_eviction_follows_touches_not_insertion() {
        let mut lru: Lru<u32, &str> = Lru::new(2);
        lru.insert(1, "one");
        lru.insert(2, "two");
        // Touch 1 so 2 becomes the oldest.
        assert_eq!(lru.get(&1), Some(&"one"));
        assert_eq!(lru.insert(3, "three"), Some((2, "two")));
        assert_eq!(lru.get(&1), Some(&"one"));
        assert_eq!(lru.get(&3), Some(&"three"));
        assert_eq!(lru.cap(), 2);
        // Capacity 0 caches nothing.
        let mut none: Lru<u32, u32> = Lru::new(0);
        assert_eq!(none.insert(7, 7), Some((7, 7)));
        assert!(none.is_empty());
    }

    /// The scratch tier as the strategies compile it: the column's
    /// hybrid verdict with its picks replayed into the scratchpad.
    fn scratch(
        cache: &AllocCache,
        key: (usize, usize, usize),
        funcs: &[Func],
        spill_base: i64,
        params: ScratchParams,
    ) -> Result<HybridAllocation, AllocError> {
        cache
            .column(key.0, key.1, funcs, spill_base)
            .scratch(key.2, &params)
    }

    /// One spill-cost computation per (scenario, PU) column — when its
    /// hybrid side starts — however many (strategy, nreg) cells ask.
    #[test]
    fn spill_costs_are_computed_once_per_column() {
        let funcs = vec![hot(), hot()];
        let cache = AllocCache::new(vec![8, 16, 32]);
        assert_eq!(cache.cost_computes(), 0);
        let sp = ScratchParams {
            base: 0,
            capacity: 4,
        };
        for &n in &[8, 16, 32] {
            let _ = scratch(&cache, (0, 0, n), &funcs, 0x8_0000, sp);
            let _ = scratch(&cache, (0, 0, n), &funcs, 0x8_0000, sp);
        }
        assert_eq!(
            cache.cost_computes(),
            1,
            "one model per column, not one per cell"
        );
        // A different column pays exactly once more.
        let _ = scratch(&cache, (0, 1, 8), &funcs, 0xB_0000, sp);
        assert_eq!(cache.cost_computes(), 2);
        // A column that only balanced computes no costs.
        let _ = cache.column(0, 2, &funcs, 0x8_0000).balanced(8);
        assert_eq!(cache.cost_computes(), 2);
        // Ladder compiles through one context: a walk that settles on
        // balanced starts its column's balanced side only and computes
        // no costs; one that degrades to a spilling rung starts the
        // hybrid side once, and a later `balanced-spill` compile on the
        // column starts nothing more.
        let ctx = CompileCtx {
            cache: &cache,
            scenario: 1,
        };
        let descents = || cache.descents.load(Ordering::Relaxed);
        let before = descents();
        let clean = Ladder.compile_cached(&funcs, 32, 0, &ctx).unwrap();
        assert_eq!(clean.degraded, 0);
        assert_eq!((descents(), cache.cost_computes()), (before + 1, 2));
        let degraded = Ladder.compile_cached(&funcs, 8, 0, &ctx).unwrap();
        assert!(degraded.spills() > 0);
        assert_eq!((descents(), cache.cost_computes()), (before + 2, 3));
        BalancedSpill.compile_cached(&funcs, 8, 0, &ctx).unwrap();
        assert_eq!((descents(), cache.cost_computes()), (before + 2, 3));
    }

    #[test]
    fn scratch_verdicts_match_dedicated_runs() {
        let funcs = vec![hot(), hot()];
        let cache = AllocCache::new(vec![8]);
        let sp = ScratchParams {
            base: 0x40,
            capacity: 4,
        };
        let cached = scratch(&cache, (0, 0, 8), &funcs, 0x8_0000, sp).unwrap();
        let direct = SpillTrajectory::new(&funcs, EngineConfig::default(), 0x8_0000)
            .scratch(&[8], &sp)
            .pop()
            .unwrap()
            .unwrap();
        assert_eq!(cached.funcs, direct.funcs);
        assert_eq!(cached.scratch_spills, direct.scratch_spills);
        assert!(cached.scratch_spills.iter().sum::<usize>() > 0);
        // A zero-capacity scratchpad degrades to the plain hybrid,
        // bit for bit.
        let zero = scratch(
            &cache,
            (1, 0, 8),
            &funcs,
            0x8_0000,
            ScratchParams {
                base: 0x40,
                capacity: 0,
            },
        )
        .unwrap();
        let hybrid = cache.column(1, 0, &funcs, 0x8_0000).hybrid(8).unwrap();
        assert_eq!(zero.funcs, hybrid.funcs);
        assert_eq!(zero.spills, hybrid.spills);
    }

    #[test]
    fn concurrent_lookups_share_one_computation() {
        let funcs = vec![hot(), hot()];
        let cache = AllocCache::new(vec![32]);
        let regs: Vec<usize> = std::thread::scope(|s| {
            (0..4)
                .map(|_| {
                    let cache = &cache;
                    let funcs = &funcs;
                    s.spawn(move || {
                        cache
                            .column(1, 0, funcs, 0x8_0000)
                            .balanced(32)
                            .unwrap()
                            .total_registers()
                    })
                })
                .collect::<Vec<_>>()
                .into_iter()
                .map(|h| h.join().unwrap())
                .collect()
        });
        assert!(regs.windows(2).all(|w| w[0] == w[1]));
    }
}
