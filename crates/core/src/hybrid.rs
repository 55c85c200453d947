//! Hybrid allocation: balancing first, spilling only as a last resort.
//!
//! The paper's allocator reports failure when even maximal sharing and
//! splitting cannot fit `Σ PRᵢ + max SRᵢ` into the register file. A
//! production compiler must still emit code, so this module closes the
//! loop the way the paper's cost model suggests: spill the *cheapest*
//! live range of the *most demanding* thread (turning one register of
//! pressure into a handful of memory operations), then retry the
//! balancing allocator — the opposite priority of the stock compiler,
//! which spills before it ever considers sharing.
//!
//! "Cheapest" is the static [`SpillCosts`] model of `regbal-analysis`:
//! loop-depth-weighted occurrence counts with a deterministic
//! register-id tie-break. The scratchpad tier ([`ScratchParams`]) packs
//! the earliest — hence cheapest — evictions into a small fast shared
//! store before the overflow falls back to ~20-cycle memory (the RegDem
//! idea applied to a multithreaded NPU). It is a post-pass over a plain
//! result ([`HybridAllocation::with_scratch`]): no decision of the loop
//! can see where a slot lives, so the loop always spills to memory.

use crate::alloc::ThreadAlloc;
use crate::bounds::Bounds;
use crate::chaitin::insert_spill_code;
use crate::engine::{
    below_floor, demand_floor, initial_state, initial_threads, par_map, sweep_from, EngineConfig,
    MultiAllocation, ThreadResult, ThreadSummary,
};
use crate::error::AllocError;
use regbal_analysis::{ProgramInfo, SpillCosts};
use regbal_igraph::build_gig;
use regbal_ir::{Func, MemSpace, VReg};

/// The scratchpad spill tier: a small fast shared store the cheapest
/// spills are packed into before the overflow falls back to memory.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ScratchParams {
    /// Base byte address of this thread group's scratchpad spill area.
    pub base: i64,
    /// Capacity in 32-bit words shared by the whole group; slots are
    /// handed out in eviction order, so the cheapest spills land here.
    pub capacity: usize,
}

/// One spill decision of the hybrid loop, in eviction order.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SpillPick {
    /// The thread spilled from.
    pub thread: usize,
    /// The virtual register evicted.
    pub vreg: u32,
    /// Its static spill cost ([`SpillCosts`]).
    pub cost: u64,
    /// Whether the slot landed in the scratchpad tier (`false`: memory).
    pub to_scratch: bool,
}

/// Result of [`allocate_threads_with_spill`].
#[derive(Debug, Clone)]
pub struct HybridAllocation {
    /// The thread programs actually allocated — the inputs plus any
    /// spill code (still over virtual registers).
    pub funcs: Vec<Func>,
    /// The balancing allocation of those programs.
    pub alloc: MultiAllocation,
    /// Number of live ranges spilled per thread.
    pub spills: Vec<usize>,
    /// How many of each thread's spills live in the scratchpad tier
    /// (all zero unless made by [`HybridAllocation::with_scratch`]).
    pub scratch_spills: Vec<usize>,
    /// Every spill decision in eviction order, with its cost.
    pub picks: Vec<SpillPick>,
}

impl HybridAllocation {
    /// Rewrites every thread to physical registers.
    pub fn rewrite(&self) -> Vec<Func> {
        self.alloc.rewrite_funcs(&self.funcs)
    }

    /// Per-thread `(PR, SR, moves, spills)` accounting.
    pub fn thread_summaries(&self) -> Vec<ThreadSummary> {
        self.alloc
            .thread_summaries()
            .into_iter()
            .zip(&self.spills)
            .map(|(t, &spills)| ThreadSummary { spills, ..t })
            .collect()
    }

    /// The same allocation with the scratchpad tier: the picks are
    /// replayed in eviction order over `funcs` — the unmodified
    /// programs this result was allocated from, with spill slots above
    /// `spill_base` — packing the first `scratch.capacity` of them into
    /// scratchpad words from `scratch.base` and numbering the overflow's
    /// memory slots exactly as the plain loop numbers its own.
    ///
    /// The allocation is reused unchanged. That is exact: every load
    /// and store is a context switch whatever its memory space, and
    /// spill code has the same shape and registers for any slot, so the
    /// loop would have picked the same victims and reached the same
    /// balancing verdict with the scratch slots in place.
    pub fn with_scratch(
        &self,
        funcs: &[Func],
        spill_base: i64,
        scratch: &ScratchParams,
    ) -> HybridAllocation {
        let mut state = SpillState::new(funcs, spill_base, Some(scratch));
        for pick in &self.picks {
            state.spill(pick.thread, VReg(pick.vreg), pick.cost);
        }
        state.allocation(self.alloc.clone())
    }
}

/// Maximum spill rounds before giving up.
const MAX_SPILL_ROUNDS: usize = 64;

/// Memory space used for hybrid spill slots.
const SPILL_SPACE: MemSpace = MemSpace::Sram;

/// Base address of the hybrid spill area (per-thread areas are spaced
/// a page apart). Public so callers that must reproduce
/// [`allocate_threads_with_spill`] byte-for-byte through
/// [`allocate_threads_with_spill_sweep`] — or share one spill-sweep
/// trajectory between the hybrid and the ladder's balanced-spill rung,
/// which packs from the equal [`crate::DEFAULT_LADDER_SPILL_BASE`] —
/// can name the default.
pub const DEFAULT_SPILL_BASE: i64 = 0x7_8000;

/// Allocates like [`allocate_threads`], but when the demand cannot be
/// reduced to `nreg` by sharing and splitting alone, spills live ranges
/// (cheapest first, from the thread with the highest residual demand)
/// until it fits. Spill slots live above [`DEFAULT_SPILL_BASE`] and the
/// engine runs with its default configuration; the one-target
/// [`allocate_threads_with_spill_sweep`] takes both explicitly.
///
/// # Errors
///
/// Returns [`AllocError::SpillDiverged`] if the demand still does not
/// fit after a bounded number of spill rounds.
pub fn allocate_threads_with_spill(
    funcs: &[Func],
    nreg: usize,
) -> Result<HybridAllocation, AllocError> {
    allocate_threads_with_spill_sweep(
        funcs,
        &[nreg],
        DEFAULT_SPILL_BASE,
        EngineConfig::default(),
        None,
    )
    .pop()
    .expect("one verdict per target")
}

/// Hybrid allocation of one thread group against *several* register-file
/// sizes at once. Which range spills in round `r` depends only on the
/// spill-augmented programs — never on `nreg` — so every target shares
/// one spill trajectory: each peels off at the first round whose
/// balancing verdict is no longer [`AllocError::Infeasible`], receiving
/// exactly the result a dedicated one-target run would produce, while
/// the expensive balancing search per round is paid once via
/// [`crate::allocate_threads_sweep`].
///
/// Spill slots live above `spill_base`, with per-thread areas `0x1000`
/// bytes apart. Callers that allocate several thread groups over one
/// shared memory — e.g. the PUs of a `regbal-sim` `Chip` — must give
/// each group a disjoint base or their spill slots would alias. The
/// balancing retries run under `config`, so they inherit the caller's
/// iteration budget (the degradation ladder threads its budget through
/// here) and propagate any budget error of the engine (e.g.
/// [`AllocError::IterationCapHit`]).
///
/// `first`, when given, must hold one balancing verdict per target for
/// the *unmodified* `funcs` under the same `config` (e.g. a cached
/// sweep, or an earlier ladder rung's verdict); it replaces round 0's
/// search. The engine is deterministic, so reusing the verdict is
/// behaviour-preserving — it only skips the most expensive search of
/// the loop.
///
/// The returned vector has one verdict per target, in input order;
/// failures are reported per target exactly as the single-target entry
/// points do.
///
/// The spill costs are computed once, from the *unmodified* `funcs`:
/// the costs of original, not-yet-spilled registers are unaffected by
/// spill code inserted for other registers.
pub fn allocate_threads_with_spill_sweep(
    funcs: &[Func],
    targets: &[usize],
    spill_base: i64,
    config: EngineConfig,
    first: Option<&[Result<MultiAllocation, AllocError>]>,
) -> Vec<Result<HybridAllocation, AllocError>> {
    if let Some(seeds) = first {
        assert_eq!(
            seeds.len(),
            targets.len(),
            "one round-0 seed per swept target"
        );
    }
    let costs: Vec<SpillCosts> = funcs.iter().map(SpillCosts::compute).collect();
    let mut state = SpillState::new(funcs, spill_base, None);
    // Each thread's analyses, filled on first need and then refreshed
    // only for the thread that spilled: spilling cannot change the
    // other threads' programs.
    let mut analyses: Vec<Analysis> = Vec::new();

    let mut results: Vec<Option<Result<HybridAllocation, AllocError>>> =
        targets.iter().map(|_| None).collect();
    let mut pending: Vec<usize> = (0..targets.len()).collect();

    for round in 0..MAX_SPILL_ROUNDS {
        let verdicts: Vec<Result<MultiAllocation, AllocError>> = match (round, first) {
            (0, Some(seeds)) => pending.iter().map(|&i| seeds[i].clone()).collect(),
            _ => {
                let pending_targets: Vec<usize> =
                    pending.iter().map(|&i| targets[i]).collect();
                balance_round(&mut analyses, &state.work, &pending_targets, config)
            }
        };
        let mut still = Vec::with_capacity(pending.len());
        for (&i, verdict) in pending.iter().zip(verdicts) {
            match verdict {
                Ok(alloc) => results[i] = Some(Ok(state.allocation(alloc))),
                Err(AllocError::Infeasible { .. }) => still.push(i),
                Err(other) => results[i] = Some(Err(other)),
            }
        }
        pending = still;
        if pending.is_empty() {
            break;
        }
        if analyses.is_empty() {
            analyses = par_map(&state.work, config.parallel, |f| Analysis {
                info: ProgramInfo::compute(f),
                start: None,
            });
        }
        let pressure: Vec<usize> = analyses.iter().map(|a| a.info.pressure.regp_max).collect();
        let t = most_demanding_thread(&pressure);
        let Some(v) = spill_candidate(&analyses[t].info, &state.already[t], &costs[t]) else {
            break;
        };
        state.spill(t, v, costs[t].cost(v.0));
        analyses[t] = Analysis {
            info: ProgramInfo::compute(&state.work[t]),
            start: None,
        };
    }
    let rounds = state.rounds();
    for &i in &pending {
        results[i] = Some(Err(AllocError::SpillDiverged { rounds }));
    }
    results
        .into_iter()
        .map(|r| r.expect("every target resolved"))
        .collect()
}

/// The spill-augmented programs and the record of every eviction so
/// far. The one place that knows the slot policy: the loop spills with
/// no scratchpad, [`HybridAllocation::with_scratch`] replays its picks
/// with one.
struct SpillState<'a> {
    work: Vec<Func>,
    spills: Vec<usize>,
    scratch_spills: Vec<usize>,
    picks: Vec<SpillPick>,
    /// Per thread, which original registers are already spilled.
    already: Vec<Vec<bool>>,
    next_slot: Vec<i64>,
    spad_used: usize,
    spill_base: i64,
    scratch: Option<&'a ScratchParams>,
}

impl<'a> SpillState<'a> {
    fn new(funcs: &[Func], spill_base: i64, scratch: Option<&'a ScratchParams>) -> Self {
        SpillState {
            work: funcs.to_vec(),
            spills: vec![0; funcs.len()],
            scratch_spills: vec![0; funcs.len()],
            picks: Vec::new(),
            already: funcs
                .iter()
                .map(|f| vec![false; f.num_vregs as usize])
                .collect(),
            next_slot: vec![0; funcs.len()],
            spad_used: 0,
            spill_base,
            scratch,
        }
    }

    /// Spills `v` of thread `t`, whose static cost is `cost`: to the
    /// next scratchpad word while capacity lasts, else to the thread's
    /// next memory slot.
    fn spill(&mut self, t: usize, v: VReg, cost: u64) {
        let (slot, space, to_scratch) = match self.scratch {
            Some(sp) if self.spad_used < sp.capacity => {
                let slot = sp.base + (self.spad_used as i64) * 4;
                self.spad_used += 1;
                (slot, MemSpace::Spad, true)
            }
            _ => {
                let slot = self.spill_base + (t as i64) * 0x1000 + self.next_slot[t];
                self.next_slot[t] += 4;
                (slot, SPILL_SPACE, false)
            }
        };
        self.already[t][v.index()] = true;
        insert_spill_code(&mut self.work[t], v, slot, space);
        self.spills[t] += 1;
        self.scratch_spills[t] += usize::from(to_scratch);
        self.picks.push(SpillPick {
            thread: t,
            vreg: v.0,
            cost,
            to_scratch,
        });
    }

    /// Spill rounds taken so far.
    fn rounds(&self) -> usize {
        self.spills.iter().sum()
    }

    /// The hybrid result of a balancing allocation of the current
    /// programs.
    fn allocation(&self, alloc: MultiAllocation) -> HybridAllocation {
        HybridAllocation {
            funcs: self.work.clone(),
            alloc,
            spills: self.spills.clone(),
            scratch_spills: self.scratch_spills.clone(),
            picks: self.picks.clone(),
        }
    }
}

/// One thread's analyses, kept across spill rounds.
struct Analysis {
    info: ProgramInfo,
    /// The engine's initial state over `info`, built on the first round
    /// that descends.
    start: Option<(Bounds, ThreadAlloc)>,
}

/// One round's balancing verdicts for `targets` — each exactly what
/// [`crate::allocate_threads_sweep`] over `work` returns. A round whose demand
/// floor exceeds every target resolves from the analyses alone; any
/// other descends from the kept initial states, building only the
/// missing ones.
fn balance_round(
    analyses: &mut Vec<Analysis>,
    work: &[Func],
    targets: &[usize],
    config: EngineConfig,
) -> Vec<Result<MultiAllocation, AllocError>> {
    if analyses.is_empty() {
        *analyses = initial_threads(work, config.parallel)
            .into_iter()
            .map(|t| Analysis {
                info: t.info,
                start: Some((t.bounds, t.alloc)),
            })
            .collect();
    }
    let floor = demand_floor(
        &analyses
            .iter()
            .map(|a| (a.info.pressure.min_pr(), a.info.pressure.min_r()))
            .collect::<Vec<_>>(),
    );
    if targets.iter().all(|&t| floor > t) {
        return targets
            .iter()
            .map(|&t| Err(below_floor(config.max_iterations, floor, t)))
            .collect();
    }
    let missing: Vec<usize> = (0..analyses.len())
        .filter(|&t| analyses[t].start.is_none())
        .collect();
    let built = par_map(&missing, config.parallel, |&t| {
        initial_state(&analyses[t].info)
    });
    for (t, start) in missing.into_iter().zip(built) {
        analyses[t].start = Some(start);
    }
    let threads = analyses
        .iter()
        .map(|a| {
            let (bounds, alloc) = a.start.clone().expect("every start state built");
            ThreadResult {
                info: a.info.clone(),
                bounds,
                alloc,
            }
        })
        .collect();
    sweep_from(threads, targets, config).0
}

/// The thread whose register floor is highest — the one whose pressure
/// must come down for the machine-wide demand to shrink. Ties pick the
/// *last* maximal thread, matching `Iterator::max_by_key`.
fn most_demanding_thread(pressure: &[usize]) -> usize {
    let mut best = 0;
    for (i, &p) in pressure.iter().enumerate() {
        if p >= pressure[best] {
            best = i;
        }
    }
    best
}

/// The cheapest eviction per unit of pressure relief: Chaitin's spill
/// metric with the static cost model ([`SpillCosts`]:
/// loop-depth-weighted occurrence counts) as the numerator and the
/// range's interference degree in the *current* program (analysed as
/// `info`) as the denominator. A raw-cost order ignores how much
/// pressure an eviction actually relieves and can grind through dozens
/// of useless spills on clique-heavy programs; dividing by degree keeps
/// the loop convergent while still serving the cheapest ranges first.
/// Ties fall back to the deterministic `(cost, register id)` key.
fn spill_candidate(info: &ProgramInfo, already: &[bool], costs: &SpillCosts) -> Option<VReg> {
    let gig = build_gig(info);
    let nv = info.num_vregs();
    // Only original ranges: spill temporaries (v >= already.len()) and
    // already-spilled ranges cannot relieve pressure further. A zero
    // cost means the register has no occurrences — nothing to spill.
    (0..nv.min(already.len()))
        .filter(|&v| !already[v] && costs.cost(v as u32) > 0 && gig.degree(v) > 0)
        .min_by(|&a, &b| {
            // cost(a)/deg(a) < cost(b)/deg(b), cross-multiplied to stay
            // in exact integer arithmetic.
            let ra = costs.cost(a as u32) as u128 * gig.degree(b) as u128;
            let rb = costs.cost(b as u32) as u128 * gig.degree(a) as u128;
            ra.cmp(&rb)
                .then_with(|| costs.key(a as u32).cmp(&costs.key(b as u32)))
        })
        .map(|v| VReg(v as u32))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::engine::{
        allocate_threads, allocate_threads_sweep, allocate_threads_with, IterationBudget,
    };
    use regbal_ir::parse_func;

    /// A function with five co-live values across a switch.
    fn hot() -> Func {
        parse_func(
            "
func hot {
bb0:
    v0 = mov 1
    v1 = mov 2
    v2 = mov 3
    v3 = mov 4
    v4 = mov 5
    ctx
    v5 = add v0, v1
    v5 = add v5, v2
    v5 = add v5, v3
    v5 = add v5, v4
    store scratch[v5+0], v5
    halt
}",
        )
        .unwrap()
    }

    #[test]
    fn falls_back_to_spilling_when_sharing_cannot_fit() {
        let funcs = vec![hot(), hot()];
        // MinPR is 5 per thread: 2×5 > 8, so pure balancing must fail...
        assert!(allocate_threads(&funcs, 8).is_err());
        // ...but the hybrid fits by spilling.
        let hybrid = allocate_threads_with_spill(&funcs, 8).unwrap();
        assert!(hybrid.spills.iter().sum::<usize>() > 0);
        assert!(hybrid.alloc.total_registers() <= 8);
        let physical = hybrid.rewrite();
        assert_eq!(physical.len(), 2);
        for f in &physical {
            f.validate().unwrap();
            assert!(f.num_ctx_insts() > hot().num_ctx_insts(), "spill traffic");
        }
    }

    #[test]
    fn no_spills_when_sharing_suffices() {
        let funcs = vec![hot(), hot()];
        let hybrid = allocate_threads_with_spill(&funcs, 32).unwrap();
        assert_eq!(hybrid.spills, vec![0, 0]);
        assert_eq!(hybrid.funcs[0], hot(), "programs untouched");
    }

    /// One target of the spill sweep at an explicit base and engine,
    /// round 0 seeded with `first` when given.
    fn spill_at(
        funcs: &[Func],
        nreg: usize,
        spill_base: i64,
        first: Option<Result<MultiAllocation, AllocError>>,
    ) -> Result<HybridAllocation, AllocError> {
        let seeds = first.map(|verdict| vec![verdict]);
        allocate_threads_with_spill_sweep(
            funcs,
            &[nreg],
            spill_base,
            EngineConfig::default(),
            seeds.as_deref(),
        )
        .pop()
        .unwrap()
    }

    #[test]
    fn explicit_spill_base_relocates_slots() {
        let funcs = vec![hot(), hot()];
        let a = spill_at(&funcs, 8, 0x1_0000, None).unwrap();
        let b = spill_at(&funcs, 8, 0x2_0000, None).unwrap();
        // Same spill decisions, different slot addresses.
        assert_eq!(a.spills, b.spills);
        assert!(a.spills.iter().sum::<usize>() > 0);
        assert_ne!(a.funcs, b.funcs, "spill addresses must move with the base");
        // The default entry point keeps its historical area.
        let d = allocate_threads_with_spill(&funcs, 8).unwrap();
        assert_eq!(d.spills, a.spills);
    }

    #[test]
    fn seeded_round_zero_matches_the_unseeded_loop() {
        let funcs = vec![hot(), hot()];
        let verdict = allocate_threads_with(&funcs, 8, EngineConfig::default());
        assert!(verdict.is_err());
        let seeded = spill_at(&funcs, 8, DEFAULT_SPILL_BASE, Some(verdict)).unwrap();
        let plain = allocate_threads_with_spill(&funcs, 8).unwrap();
        assert_eq!(seeded.funcs, plain.funcs);
        assert_eq!(seeded.spills, plain.spills);
        // Seeding with a success short-circuits without touching code.
        let ok = allocate_threads_with(&funcs, 32, EngineConfig::default());
        let seeded_ok = spill_at(&funcs, 32, DEFAULT_SPILL_BASE, Some(ok)).unwrap();
        assert_eq!(seeded_ok.spills, vec![0, 0]);
        assert_eq!(seeded_ok.funcs[0], hot());
    }

    /// The shared spill trajectory must hand every swept size the exact
    /// verdict of a dedicated run: same spill code, same counts, same
    /// allocation, same error payloads — across sizes that need no
    /// spills, some spills, and sizes that diverge entirely.
    #[test]
    fn spill_sweep_matches_independent_runs() {
        let funcs = vec![hot(), hot()];
        let targets = [32usize, 8, 1, 12, 8, 2];
        let swept = allocate_threads_with_spill_sweep(
            &funcs,
            &targets,
            DEFAULT_SPILL_BASE,
            EngineConfig::default(),
            None,
        );
        for (&t, got) in targets.iter().zip(&swept) {
            let solo = allocate_threads_with_spill(&funcs, t);
            match (got, &solo) {
                (Ok(a), Ok(b)) => {
                    assert_eq!(a.funcs, b.funcs, "nreg={t}");
                    assert_eq!(a.spills, b.spills, "nreg={t}");
                    assert_eq!(
                        format!("{:?}", a.alloc.threads),
                        format!("{:?}", b.alloc.threads),
                        "nreg={t}"
                    );
                }
                (Err(a), Err(b)) => assert_eq!(a, b, "nreg={t}"),
                other => panic!("verdict kind diverged at nreg={t}: {other:?}"),
            }
        }
        // Seeding round 0 from a balanced sweep is behaviour-preserving.
        let seeds = allocate_threads_sweep(&funcs, &targets, EngineConfig::default());
        let seeded = allocate_threads_with_spill_sweep(
            &funcs,
            &targets,
            DEFAULT_SPILL_BASE,
            EngineConfig::default(),
            Some(&seeds),
        );
        for ((&t, a), b) in targets.iter().zip(&swept).zip(&seeded) {
            assert_eq!(
                format!("{a:?}"),
                format!("{b:?}"),
                "seeded sweep diverged at nreg={t}"
            );
        }
    }

    #[test]
    fn impossible_budget_still_errors() {
        let funcs = vec![hot()];
        // One register cannot hold a base address and a value at once.
        let err = allocate_threads_with_spill(&funcs, 1).unwrap_err();
        assert!(matches!(err, AllocError::SpillDiverged { .. }), "{err}");
    }

    #[test]
    fn eviction_order_is_ascending_cost_per_thread() {
        let funcs = vec![hot(), hot()];
        let hybrid = allocate_threads_with_spill(&funcs, 8).unwrap();
        assert!(hybrid.picks.len() >= 2, "need several picks to order");
        for t in 0..funcs.len() {
            let costs: Vec<u64> = hybrid
                .picks
                .iter()
                .filter(|p| p.thread == t)
                .map(|p| p.cost)
                .collect();
            assert!(
                costs.windows(2).all(|w| w[0] <= w[1]),
                "thread {t} evictions not cost-ordered: {costs:?}"
            );
        }
        assert!(hybrid.picks.iter().all(|p| p.cost > 0));
        assert_eq!(hybrid.scratch_spills, vec![0, 0], "no scratch tier");
    }

    fn scratch(capacity: usize) -> ScratchParams {
        ScratchParams {
            base: 0x100,
            capacity,
        }
    }

    /// Zero-capacity scratchpad must degrade bit-identically to the
    /// plain spill loop: same code, same slots, same allocation.
    #[test]
    fn zero_capacity_scratch_matches_plain_spill_bit_for_bit() {
        let funcs = vec![hot(), hot()];
        let plain = allocate_threads_with_spill(&funcs, 8).unwrap();
        let zero = plain.with_scratch(&funcs, DEFAULT_SPILL_BASE, &scratch(0));
        assert_eq!(plain.funcs, zero.funcs);
        assert_eq!(plain.spills, zero.spills);
        assert_eq!(zero.scratch_spills, vec![0, 0]);
        assert_eq!(
            format!("{:?}", plain.alloc.threads),
            format!("{:?}", zero.alloc.threads)
        );
    }

    /// With capacity exactly equal to the spill count, every spill
    /// packs into the scratchpad and the slots are dense from the base.
    #[test]
    fn exactly_full_packing_uses_every_slot_and_no_memory() {
        let funcs = vec![hot(), hot()];
        let plain = allocate_threads_with_spill(&funcs, 8).unwrap();
        let n: usize = plain.spills.iter().sum();
        assert!(n > 0);
        let full = plain.with_scratch(&funcs, DEFAULT_SPILL_BASE, &scratch(n));
        assert_eq!(full.spills, plain.spills, "same spill decisions");
        assert_eq!(full.scratch_spills.iter().sum::<usize>(), n);
        assert!(full.picks.iter().all(|p| p.to_scratch));
        // Every spill slot is a dense Spad word at base + 4k (the slot
        // address is the immediate moved into the store's base
        // register); no spill store targets any other space.
        let mut spad_slots = std::collections::BTreeSet::new();
        for f in &full.funcs {
            for (_, block) in f.iter_blocks() {
                for (k, inst) in block.insts.iter().enumerate() {
                    let regbal_ir::Inst::Store { space, base, .. } = inst else {
                        continue;
                    };
                    // `hot()`'s own store targets Scratch; spill stores
                    // may only target the spad here, never SRAM.
                    assert_ne!(*space, SPILL_SPACE, "no memory-tier spill stores");
                    if *space != MemSpace::Spad {
                        continue;
                    }
                    let addr_mov = &block.insts[k - 1];
                    if let regbal_ir::Inst::Un {
                        dst,
                        src: regbal_ir::Operand::Imm(slot),
                        ..
                    } = addr_mov
                    {
                        assert_eq!(dst, base);
                        spad_slots.insert(*slot);
                    } else {
                        panic!("spill store not preceded by its address mov");
                    }
                }
            }
        }
        assert_eq!(
            spad_slots,
            (0..n as i64).map(|k| 0x100 + 4 * k).collect(),
            "dense packing from the base"
        );
    }

    /// With less capacity than spills, the scratchpad takes the
    /// cheapest (earliest) evictions and the overflow goes to memory
    /// in the same cost order the plain loop uses.
    #[test]
    fn overflow_respects_the_cost_model() {
        let funcs = vec![hot(), hot()];
        let plain = allocate_threads_with_spill(&funcs, 8).unwrap();
        let n: usize = plain.spills.iter().sum();
        assert!(n >= 2, "need an overflow to observe");
        let cap = 1;
        let part = plain.with_scratch(&funcs, DEFAULT_SPILL_BASE, &scratch(cap));
        assert_eq!(part.spills, plain.spills, "same spill decisions");
        assert_eq!(part.scratch_spills.iter().sum::<usize>(), cap);
        // The scratch-resident picks are exactly the first `cap`
        // evictions — the cheapest under the per-round cost order.
        assert!(part.picks[..cap].iter().all(|p| p.to_scratch));
        assert!(part.picks[cap..].iter().all(|p| !p.to_scratch));
        let max_scratch = part.picks[..cap].iter().map(|p| p.cost).max().unwrap();
        let same_thread_overflow: Vec<u64> = part.picks[cap..]
            .iter()
            .filter(|p| p.thread == part.picks[0].thread)
            .map(|p| p.cost)
            .collect();
        assert!(
            same_thread_overflow.iter().all(|&c| c >= max_scratch),
            "overflow spills must not be cheaper than the packed ones: \
             {max_scratch} vs {same_thread_overflow:?}"
        );
    }

    /// Several values live across every one of four switches.
    fn csb_dense() -> Func {
        parse_func(
            "
func dense {
bb0:
    v0 = mov 1
    v1 = mov 2
    v2 = mov 3
    v3 = mov 4
    ctx
    v4 = add v0, v1
    ctx
    v5 = add v2, v3
    ctx
    v6 = add v4, v5
    ctx
    v7 = add v6, v0
    store scratch[v7+0], v1
    store scratch[v3+0], v2
    halt
}",
        )
        .unwrap()
    }

    /// The spill loop without kept state, with the scratchpad slot
    /// policy applied while it spills: every round descends over all
    /// programs through [`allocate_threads_sweep`] and recomputes each
    /// analysis for the pressure and the candidate.
    fn recomputing_spill_sweep(
        funcs: &[Func],
        targets: &[usize],
        config: EngineConfig,
        first: Option<&[Result<MultiAllocation, AllocError>]>,
        scratch: Option<&ScratchParams>,
    ) -> Vec<Result<HybridAllocation, AllocError>> {
        let costs: Vec<SpillCosts> = funcs.iter().map(SpillCosts::compute).collect();
        let mut state = SpillState::new(funcs, DEFAULT_SPILL_BASE, scratch);
        let mut results: Vec<Option<Result<HybridAllocation, AllocError>>> =
            targets.iter().map(|_| None).collect();
        let mut pending: Vec<usize> = (0..targets.len()).collect();
        for round in 0..MAX_SPILL_ROUNDS {
            let verdicts = match (round, first) {
                (0, Some(seeds)) => pending.iter().map(|&i| seeds[i].clone()).collect(),
                _ => {
                    let pending_targets: Vec<usize> = pending.iter().map(|&i| targets[i]).collect();
                    allocate_threads_sweep(&state.work, &pending_targets, config)
                }
            };
            let mut still = Vec::new();
            for (&i, verdict) in pending.iter().zip(verdicts) {
                match verdict {
                    Ok(alloc) => results[i] = Some(Ok(state.allocation(alloc))),
                    Err(AllocError::Infeasible { .. }) => still.push(i),
                    Err(other) => results[i] = Some(Err(other)),
                }
            }
            pending = still;
            if pending.is_empty() {
                break;
            }
            let pressure: Vec<usize> = state
                .work
                .iter()
                .map(|f| ProgramInfo::compute(f).pressure.regp_max)
                .collect();
            let t = most_demanding_thread(&pressure);
            let info = ProgramInfo::compute(&state.work[t]);
            let Some(v) = spill_candidate(&info, &state.already[t], &costs[t]) else {
                break;
            };
            state.spill(t, v, costs[t].cost(v.0));
        }
        let rounds = state.rounds();
        results
            .into_iter()
            .map(|r| r.unwrap_or(Err(AllocError::SpillDiverged { rounds })))
            .collect()
    }

    /// Keeping each thread's analyses and initial state across rounds,
    /// and resolving floor-only rounds without a descent, changes no
    /// verdict: across iteration budgets, seeded and unseeded round 0,
    /// the scratchpad tier's settings, and targets below the floor,
    /// that spill and then fit, and that diverge.
    #[test]
    fn kept_state_loop_matches_the_recomputing_reference() {
        let funcs = vec![hot(), csb_dense(), hot()];
        let targets = [1usize, 4, 8, 11, 14, 20, 32];
        // Round-0 seeds from the default engine: under a starved budget
        // their `Infeasible` verdicts still lead to floor-only rounds.
        let seeds = allocate_threads_sweep(&funcs, &targets, EngineConfig::default());
        let mut kinds = std::collections::BTreeSet::new();
        for budget in [
            IterationBudget::Adaptive,
            IterationBudget::Fixed(0),
            IterationBudget::Fixed(1),
            IterationBudget::Fixed(4),
            IterationBudget::Unbounded,
        ] {
            let config = EngineConfig {
                max_iterations: budget,
                ..EngineConfig::default()
            };
            for first in [None, Some(seeds.as_slice())] {
                let plain = allocate_threads_with_spill_sweep(
                    &funcs,
                    &targets,
                    DEFAULT_SPILL_BASE,
                    config,
                    first,
                );
                for params in [None, Some(scratch(0)), Some(scratch(2))] {
                    let got = replayed(&plain, &funcs, params.as_ref());
                    let want =
                        recomputing_spill_sweep(&funcs, &targets, config, first, params.as_ref());
                    assert_eq!(
                        format!("{got:?}"),
                        format!("{want:?}"),
                        "{budget:?}, seeded: {}, scratch: {params:?}",
                        first.is_some()
                    );
                    kinds.extend(got.iter().map(|v| match v {
                        Ok(h) if h.picks.is_empty() => "fit",
                        Ok(_) => "spilled-then-fit",
                        Err(AllocError::SpillDiverged { .. }) => "spill-diverged",
                        Err(AllocError::IterationCapHit { .. }) => "iteration-cap",
                        Err(_) => "other",
                    }));
                }
            }
        }
        assert_eq!(
            kinds.into_iter().collect::<Vec<_>>(),
            ["fit", "iteration-cap", "spill-diverged", "spilled-then-fit"]
        );
    }

    /// `plain`'s verdicts with `scratch`, when given, applied by the
    /// replay post-pass.
    fn replayed(
        plain: &[Result<HybridAllocation, AllocError>],
        funcs: &[Func],
        scratch: Option<&ScratchParams>,
    ) -> Vec<Result<HybridAllocation, AllocError>> {
        plain
            .iter()
            .map(|verdict| match (verdict, scratch) {
                (Ok(h), Some(sp)) => Ok(h.with_scratch(funcs, DEFAULT_SPILL_BASE, sp)),
                (other, _) => other.clone(),
            })
            .collect()
    }

    /// The replay oracle over one corpus: for every thread group, with
    /// an unseeded and a seeded round 0, the plain sweep followed by
    /// [`HybridAllocation::with_scratch`] must be `Debug`-identical to
    /// the reference loop spilling into the scratchpad as it goes, at
    /// every capacity and every target in `targets`. Returns how many
    /// verdicts of each kind were compared.
    fn assert_replay_matches_scratch_loop(
        groups: &[(String, Vec<Func>)],
        targets: &[usize],
    ) -> std::collections::BTreeMap<&'static str, usize> {
        let config = EngineConfig::default();
        let mut kinds = std::collections::BTreeMap::new();
        for (name, funcs) in groups {
            let seeds = allocate_threads_sweep(funcs, targets, config);
            for first in [None, Some(seeds.as_slice())] {
                let plain = allocate_threads_with_spill_sweep(
                    funcs,
                    targets,
                    DEFAULT_SPILL_BASE,
                    config,
                    first,
                );
                for capacity in [0, 1, 3, 16] {
                    let params = scratch(capacity);
                    let got = replayed(&plain, funcs, Some(&params));
                    let want =
                        recomputing_spill_sweep(funcs, targets, config, first, Some(&params));
                    for ((&nreg, g), w) in targets.iter().zip(&got).zip(&want) {
                        assert_eq!(
                            format!("{g:?}"),
                            format!("{w:?}"),
                            "{name} nreg={nreg} capacity={capacity} seeded={}",
                            first.is_some()
                        );
                        let kind = match g {
                            Ok(h) if h.picks.iter().any(|p| p.to_scratch) => "scratch-resident",
                            Ok(h) if h.picks.is_empty() => "fit",
                            Ok(_) => "memory-only",
                            Err(AllocError::SpillDiverged { .. }) => "spill-diverged",
                            Err(AllocError::Infeasible { .. }) => "below-floor",
                            Err(_) => "other-error",
                        };
                        *kinds.entry(kind).or_insert(0) += 1;
                    }
                }
            }
        }
        kinds
    }

    /// The stress bundles of the replay oracle: every class, for each
    /// seed in `seeds` and each thread count in `threads`.
    fn stress_groups(seeds: std::ops::Range<u64>, threads: &[usize]) -> Vec<(String, Vec<Func>)> {
        use regbal_workloads::stress::{stress_bundle, StressConfig};
        let mut groups = Vec::new();
        for seed in seeds {
            for (class, config) in [
                ("csb_dense", StressConfig::csb_dense()),
                ("clique", StressConfig::clique()),
                ("mixed", StressConfig::mixed()),
            ] {
                for &n in threads {
                    groups.push((
                        format!("{class} seed={seed} threads={n}"),
                        stress_bundle(seed, n, config),
                    ));
                }
            }
        }
        groups
    }

    /// The scratchpad tier is exactly a replay of the plain picks: on
    /// the fixtures and a slice of the stress corpus, from Nreg 1 (where
    /// the loop diverges or stops below the floor) up to sizes that fit
    /// without spilling.
    #[test]
    fn scratch_replay_matches_the_scratch_aware_loop() {
        let mut groups = vec![
            ("hot x2".to_string(), vec![hot(), hot()]),
            ("hot dense hot".to_string(), vec![hot(), csb_dense(), hot()]),
        ];
        // Every class at two threads; the four-thread groups of the
        // wider classes take seconds each in a debug build, so only
        // `csb_dense` runs at four here (the ignored test covers all).
        groups.extend(stress_groups(0..1, &[2]));
        groups.extend(
            stress_groups(0..1, &[4])
                .into_iter()
                .filter(|(name, _)| name.starts_with("csb_dense")),
        );
        let targets: Vec<usize> = (1..=24).step_by(3).chain([32]).collect();
        let kinds = assert_replay_matches_scratch_loop(&groups, &targets);
        for kind in ["fit", "scratch-resident", "memory-only", "spill-diverged"] {
            assert!(kinds.contains_key(kind), "no {kind} verdict: {kinds:?}");
        }
    }

    /// The full-corpus replay property: seeds 0–23 of every stress
    /// class, 2 and 4 threads, Nreg 1–40. Slow (run in release with
    /// `cargo test --release -p regbal-core -- --ignored`).
    #[test]
    #[ignore]
    fn scratch_replay_matches_the_scratch_aware_loop_on_the_full_corpus() {
        let targets: Vec<usize> = (1..=40).collect();
        let kinds = assert_replay_matches_scratch_loop(&stress_groups(0..24, &[2, 4]), &targets);
        for kind in ["fit", "scratch-resident", "memory-only", "spill-diverged"] {
            assert!(kinds.contains_key(kind), "no {kind} verdict: {kinds:?}");
        }
    }
}
