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
//! result ([`SpillTrajectory::scratch`]): no decision of the loop can
//! see where a slot lives, so the loop always spills to memory.
//!
//! One thread group's loop is one lazy [`SpillTrajectory`], built with
//! the programs, the engine configuration and the spill base. Each of
//! its queries — [`SpillTrajectory::balanced`],
//! [`SpillTrajectory::hybrid`], [`SpillTrajectory::scratch`] and the
//! fallback ladder's [`SpillTrajectory::ladder`] — takes one `nreg` and
//! returns one verdict. A size runs the engine's one-size descent, the
//! one [`crate::allocate_threads_stats`] runs, from the start states
//! the trajectory keeps for the round it resolves in.

use crate::alloc::ThreadAlloc;
use crate::bounds::Bounds;
use crate::chaitin::insert_spill_code;
use crate::engine::{
    demand_floor, descend, initial_state, initial_threads, par_map, EngineConfig, IterationBudget,
    MultiAllocation, ThreadResult, ThreadSummary,
};
use crate::error::AllocError;
use regbal_analysis::{ProgramInfo, SpillCosts};
use regbal_igraph::build_gig;
use regbal_ir::{Func, MemSpace, VReg};
use std::collections::BTreeMap;
use std::sync::Arc;

/// Default scratchpad capacity of the balanced-scratch rung, in 32-bit
/// words shared by the whole thread group.
pub const DEFAULT_SCRATCH_CAPACITY: usize = 16;

/// The scratchpad spill tier: a small fast shared store the cheapest
/// spills are packed into before the overflow falls back to memory.
/// Callers allocating several thread groups over one scratchpad must
/// give each a disjoint area.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ScratchParams {
    /// Base byte address of this thread group's scratchpad spill area
    /// ([`MemSpace::Spad`]).
    pub base: i64,
    /// Capacity in 32-bit words shared by the whole group; slots are
    /// handed out in eviction order, so the cheapest spills land here.
    /// Zero drops the fallback ladder's balanced-scratch rung.
    pub capacity: usize,
}

impl Default for ScratchParams {
    /// [`DEFAULT_SCRATCH_CAPACITY`] words from address 0.
    fn default() -> Self {
        ScratchParams {
            base: 0,
            capacity: DEFAULT_SCRATCH_CAPACITY,
        }
    }
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
    /// (all zero unless made by [`SpillTrajectory::scratch`]).
    pub scratch_spills: Vec<usize>,
    /// Every spill decision in eviction order, with its cost.
    pub picks: Vec<SpillPick>,
}

impl HybridAllocation {
    /// A balancing allocation of the unmodified `funcs`, as the hybrid
    /// result with no spills that round 0 of the spill loop returns.
    pub(crate) fn unspilled(funcs: &[Func], alloc: MultiAllocation) -> HybridAllocation {
        HybridAllocation {
            funcs: funcs.to_vec(),
            alloc,
            spills: vec![0; funcs.len()],
            scratch_spills: vec![0; funcs.len()],
            picks: Vec::new(),
        }
    }

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
}

/// Maximum spill rounds before giving up.
const MAX_SPILL_ROUNDS: usize = 64;

/// Memory space of every memory spill slot, the hybrid loop's and the
/// ladder's Chaitin rungs' alike.
pub(crate) const SPILL_SPACE: MemSpace = MemSpace::Sram;

/// Base address of the spill area of the one-shot entry points,
/// [`allocate_threads_with_spill`] and [`crate::allocate_ladder`]
/// (per-thread areas are spaced a page apart). Public so callers that
/// must reproduce them byte-for-byte through a [`SpillTrajectory`] can
/// name it.
pub const DEFAULT_SPILL_BASE: i64 = 0x7_8000;

/// Allocates like [`crate::allocate_threads`], but when the demand
/// cannot be reduced to `nreg` by sharing and splitting alone, spills
/// live ranges (cheapest first, from the thread with the highest
/// residual demand) until it fits. Spill slots live above
/// [`DEFAULT_SPILL_BASE`] and the engine runs with its default
/// configuration; a [`SpillTrajectory`] takes both explicitly.
///
/// # Errors
///
/// Returns [`AllocError::SpillDiverged`] if the demand still does not
/// fit after a bounded number of spill rounds.
pub fn allocate_threads_with_spill(
    funcs: &[Func],
    nreg: usize,
) -> Result<HybridAllocation, AllocError> {
    SpillTrajectory::new(funcs, EngineConfig::default(), DEFAULT_SPILL_BASE).hybrid(nreg)
}

/// The most register-file sizes a trajectory memoizes per side.
const MEMO_SIZES: usize = 32;

/// Verdicts by register-file size, at most [`MEMO_SIZES`] of them. A
/// full memo evicts the size farthest from the one it takes in, so a
/// client asking ever new sizes cannot grow a trajectory without bound;
/// an evicted size is resolved again, identically, when asked again.
#[derive(Debug)]
struct Memo<V>(BTreeMap<usize, V>);

impl<V: Clone> Memo<V> {
    /// The memoized verdict at `nreg`, if any.
    fn get(&self, nreg: usize) -> Option<V> {
        self.0.get(&nreg).cloned()
    }

    /// Memoizes `verdict` at `nreg`, a size not memoized, first
    /// evicting the size farthest from it when the memo is full.
    fn insert(&mut self, nreg: usize, verdict: V) {
        if self.0.len() == MEMO_SIZES {
            let (&lo, _) = self.0.first_key_value().expect("a full memo");
            let (&hi, _) = self.0.last_key_value().expect("a full memo");
            let far = if nreg.abs_diff(lo) >= nreg.abs_diff(hi) {
                lo
            } else {
                hi
            };
            self.0.remove(&far);
        }
        self.0.insert(nreg, verdict);
    }
}

/// The hybrid spill loop of one thread group as one lazy trajectory
/// that answers the balanced and the hybrid verdict at every
/// register-file size, asked in any order and any number of times.
/// Each answer is exactly what a dedicated one-size run returns.
///
/// It is built with everything that fixes its answers — the programs,
/// the engine configuration and the spill base — and each query takes
/// one size and returns one verdict.
///
/// The greedy descent reads `nreg` only to decide where to stop, and
/// which range spills in round `r` depends only on the spill-augmented
/// programs, never on `nreg`. So every size walks the same sequence of
/// spill rounds and takes the first round whose balancing verdict is
/// not [`AllocError::Infeasible`]; the balanced verdict is round 0's.
/// The trajectory builds rounds only as deep as the sizes asked so far
/// need. Per round it remembers a bound — the demand below which the
/// round's descent is known to end `Infeasible` (the round's demand
/// floor, raised by every `Infeasible` verdict's `needed`) — and a size
/// below it moves on to the next round without a descent.
///
/// Each size not memoized runs its own descent, from the kept start
/// states of the round it resolves in; what the sizes share is the
/// analyses, the start states, the rounds and their bounds. It keeps
/// the input programs, round 0's analyses and engine start
/// states (every descent of round 0 starts there), the deepest round
/// reached with its programs, analyses and spill bookkeeping, each
/// round's bound, and a bounded memo of recent verdicts per side. A
/// size that resolves in an earlier round rebuilds that round for the
/// query: the spill picks before it are replayed over the inputs and
/// only the threads they touched are analysed again. A thread's
/// analysis is shared by `Arc` between the rounds it is unchanged in
/// and with every allocation built over it.
///
/// The spill costs are computed once, from the *unmodified* programs:
/// the costs of original, not-yet-spilled registers are unaffected by
/// spill code inserted for other registers.
#[derive(Debug)]
pub struct SpillTrajectory {
    funcs: Arc<[Func]>,
    config: EngineConfig,
    /// Where the memory spill slots live: thread `t`'s from
    /// `spill_base + t·0x1000`.
    spill_base: i64,
    /// Round 0's analyses and start states; empty until first needed.
    first: Vec<Analysis>,
    /// Recent balanced verdicts: round 0's.
    balanced: Memo<Result<MultiAllocation, AllocError>>,
    /// Recent hybrid verdicts.
    hybrid: Memo<Result<HybridAllocation, AllocError>>,
    /// Each thread's spill costs; empty until the first hybrid query.
    costs: Vec<SpillCosts>,
    /// The deepest spill round reached; `None` until the first hybrid
    /// query.
    deep: Option<Round>,
    /// Per round reached, the demand below which its descent is known
    /// to end [`AllocError::Infeasible`].
    bounds: Vec<usize>,
    /// The spill count the loop gives up at, once the round after the
    /// deepest is known not to exist.
    diverged: Option<usize>,
}

impl SpillTrajectory {
    /// A trajectory over `funcs` under `config`, with thread `t`'s
    /// memory spill slots from `spill_base + t·0x1000`. Nothing is
    /// computed until the first query. An `Arc<[Func]>` is shared, not
    /// copied, so a caller that keeps the programs too holds one copy.
    pub fn new(
        funcs: impl Into<Arc<[Func]>>,
        config: EngineConfig,
        spill_base: i64,
    ) -> SpillTrajectory {
        SpillTrajectory {
            funcs: funcs.into(),
            config,
            spill_base,
            first: Vec::new(),
            balanced: Memo(BTreeMap::new()),
            hybrid: Memo(BTreeMap::new()),
            costs: Vec::new(),
            deep: None,
            bounds: Vec::new(),
            diverged: None,
        }
    }

    /// The balancing verdict at `nreg` registers — bit-identical to a
    /// dedicated [`crate::allocate_threads_stats`] run under this
    /// trajectory's config. A size not memoized descends from round 0's
    /// start states.
    ///
    /// # Errors
    ///
    /// The engine's own verdict, memoized like a success.
    pub fn balanced(&mut self, nreg: usize) -> Result<MultiAllocation, AllocError> {
        if let Some(verdict) = self.balanced.get(nreg) {
            return verdict;
        }
        let config = self.config;
        let verdict = balance_round(self.first(), nreg, config);
        self.balanced.insert(nreg, verdict.clone());
        verdict
    }

    /// The hybrid verdict at `nreg` registers — bit-identical to a
    /// fresh trajectory's, which is what [`allocate_threads_with_spill`]
    /// runs at the default base and config. A size not memoized walks
    /// the rounds from round 0; a round past the deepest is built by
    /// one more spill.
    ///
    /// # Errors
    ///
    /// [`AllocError::SpillDiverged`] when the loop gives up before the
    /// demand fits, or the balancing verdict that ended the walk.
    pub fn hybrid(&mut self, nreg: usize) -> Result<HybridAllocation, AllocError> {
        if let Some(verdict) = self.hybrid.get(nreg) {
            return verdict;
        }
        self.start_hybrid();
        let verdict = self.walk_rounds(nreg);
        self.hybrid.insert(nreg, verdict.clone());
        verdict
    }

    /// The hybrid verdict at `nreg` registers with the scratchpad tier:
    /// the picks are replayed in eviction order over the input
    /// programs, packing the first `scratch.capacity` of them into
    /// scratchpad words from `scratch.base` and numbering the overflow's
    /// memory slots exactly as the plain loop numbers its own.
    ///
    /// The plain verdict's allocation is reused unchanged. That is
    /// exact: every load and store is a context switch whatever its
    /// memory space, and spill code has the same shape and registers
    /// for any slot, so the loop would have picked the same victims and
    /// reached the same balancing verdict with the scratch slots in
    /// place.
    ///
    /// # Errors
    ///
    /// As [`SpillTrajectory::hybrid`].
    pub fn scratch(
        &mut self,
        nreg: usize,
        scratch: &ScratchParams,
    ) -> Result<HybridAllocation, AllocError> {
        let plain = self.hybrid(nreg)?;
        Ok(
            SpillState::replay(&self.funcs, self.spill_base, Some(*scratch), &plain.picks)
                .allocation(plain.alloc),
        )
    }

    /// The input programs.
    pub(crate) fn funcs(&self) -> &Arc<[Func]> {
        &self.funcs
    }

    /// The engine configuration every descent runs under.
    pub(crate) fn config(&self) -> EngineConfig {
        self.config
    }

    /// The base of the memory spill area.
    pub(crate) fn spill_base(&self) -> i64 {
        self.spill_base
    }

    /// Each thread's `RegPmax` in round 0 — the unmodified programs —
    /// read from round 0's analyses.
    pub(crate) fn first_pressures(&mut self) -> Vec<usize> {
        self.first()
            .iter()
            .map(|a| a.info.pressure.regp_max)
            .collect()
    }

    /// The hybrid verdict at `nreg`, walking the rounds from round 0
    /// until one resolves it. A round whose bound exceeds `nreg` is
    /// passed without a descent.
    fn walk_rounds(&mut self, nreg: usize) -> Result<HybridAllocation, AllocError> {
        let mut round = 0;
        loop {
            if nreg >= self.bounds[round] {
                if let Some(verdict) = self.resolve_round(round, nreg) {
                    return verdict;
                }
            }
            if round == self.bounds.len() - 1 && !self.extend() {
                let rounds = self
                    .diverged
                    .expect("a trajectory that cannot extend has diverged");
                return Err(AllocError::SpillDiverged { rounds });
            }
            round += 1;
        }
    }

    /// Round 0's analyses, built on first need.
    fn first(&mut self) -> &mut Vec<Analysis> {
        if self.first.is_empty() {
            self.first = initial_threads(&self.funcs, self.config.parallel)
                .into_iter()
                .map(|t| Analysis {
                    info: t.info,
                    start: Some(Arc::new((t.bounds, t.alloc))),
                })
                .collect();
        }
        &mut self.first
    }

    /// Round 0 of the spill loop, on the first hybrid query.
    fn start_hybrid(&mut self) {
        if self.deep.is_none() {
            let analyses = self.first().clone();
            self.bounds = vec![floor_bound(&analyses, self.config)];
            self.costs = self.funcs.iter().map(SpillCosts::compute).collect();
            self.deep = Some(Round {
                state: SpillState::new(&self.funcs, self.spill_base, None),
                analyses,
            });
        }
    }

    /// The hybrid verdict at `nreg` in round `round`, `None` when the
    /// round's descent ends [`AllocError::Infeasible`] there (the walk
    /// moves on, and the round's bound rises to the verdict's
    /// `needed`). Round 0 answers from the balanced side; a later round
    /// before the deepest is rebuilt for the query.
    fn resolve_round(
        &mut self,
        round: usize,
        nreg: usize,
    ) -> Option<Result<HybridAllocation, AllocError>> {
        let verdict = if round == 0 {
            self.balanced(nreg)
                .map(|alloc| HybridAllocation::unspilled(&self.funcs, alloc))
        } else if round < self.bounds.len() - 1 {
            let mut rebuilt = self.rebuild(round);
            balance_round(&mut rebuilt.analyses, nreg, self.config)
                .map(|alloc| rebuilt.state.allocation(alloc))
        } else {
            let deep = self.deep.as_mut().expect("hybrid started");
            balance_round(&mut deep.analyses, nreg, self.config)
                .map(|alloc| deep.state.allocation(alloc))
        };
        match verdict {
            Err(AllocError::Infeasible { needed, .. }) => {
                let bound = &mut self.bounds[round];
                *bound = (*bound).max(needed);
                None
            }
            verdict => Some(verdict),
        }
    }

    /// Round `round` (before the deepest) rebuilt from the inputs: the
    /// picks before it replayed, and only the threads they touched
    /// analysed again.
    fn rebuild(&self, round: usize) -> Round {
        let deep = self.deep.as_ref().expect("hybrid started");
        let state = SpillState::replay(
            &self.funcs,
            self.spill_base,
            None,
            &deep.state.picks[..round],
        );
        let touched: Vec<usize> = (0..self.funcs.len())
            .filter(|&t| state.spills[t] > 0)
            .collect();
        let infos = par_map(&touched, self.config.parallel, |&t| {
            ProgramInfo::compute(&state.work[t])
        });
        let mut analyses = self.first.clone();
        for (t, info) in touched.into_iter().zip(infos) {
            analyses[t] = Analysis::of(info);
        }
        Round { state, analyses }
    }

    /// Builds the round after the deepest by one more spill: the
    /// cheapest range of the most demanding thread. Returns `false`, and
    /// records the spill count the loop reports, when the loop gives up
    /// instead — no range is left to spill, or the round would be one
    /// past [`MAX_SPILL_ROUNDS`].
    fn extend(&mut self) -> bool {
        if self.diverged.is_some() {
            return false;
        }
        let deep = self.deep.as_mut().expect("hybrid started");
        let pressure: Vec<usize> = deep
            .analyses
            .iter()
            .map(|a| a.info.pressure.regp_max)
            .collect();
        let t = most_demanding_thread(&pressure);
        let spilled = deep.state.rounds();
        let Some(v) = spill_candidate(
            &deep.analyses[t].info,
            &deep.state.already[t],
            &self.costs[t],
        ) else {
            self.diverged = Some(spilled);
            return false;
        };
        if spilled + 1 == MAX_SPILL_ROUNDS {
            self.diverged = Some(MAX_SPILL_ROUNDS);
            return false;
        }
        deep.state.spill(t, v, self.costs[t].cost(v.0));
        deep.analyses[t] = Analysis::of(ProgramInfo::compute(&deep.state.work[t]));
        self.bounds.push(floor_bound(&deep.analyses, self.config));
        true
    }
}

/// The spill-augmented programs and the record of every eviction so
/// far. The one place that knows the slot policy: the loop spills with
/// no scratchpad, [`SpillTrajectory::scratch`] replays its picks with
/// one.
#[derive(Debug)]
struct SpillState {
    work: Vec<Func>,
    spills: Vec<usize>,
    scratch_spills: Vec<usize>,
    picks: Vec<SpillPick>,
    /// Per thread, which original registers are already spilled.
    already: Vec<Vec<bool>>,
    next_slot: Vec<i64>,
    spad_used: usize,
    spill_base: i64,
    scratch: Option<ScratchParams>,
}

impl SpillState {
    fn new(funcs: &[Func], spill_base: i64, scratch: Option<ScratchParams>) -> Self {
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

    /// The state after spilling `picks`, in order, from `funcs`.
    fn replay(
        funcs: &[Func],
        spill_base: i64,
        scratch: Option<ScratchParams>,
        picks: &[SpillPick],
    ) -> Self {
        let mut state = SpillState::new(funcs, spill_base, scratch);
        for pick in picks {
            state.spill(pick.thread, VReg(pick.vreg), pick.cost);
        }
        state
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

/// One spill round: its programs and spill bookkeeping, and each
/// thread's analyses.
#[derive(Debug)]
struct Round {
    state: SpillState,
    analyses: Vec<Analysis>,
}

/// One thread's analyses in one spill round.
#[derive(Debug, Clone)]
struct Analysis {
    info: Arc<ProgramInfo>,
    /// The engine's initial state over `info`, built on the round's
    /// first descent.
    start: Option<Arc<(Bounds, ThreadAlloc)>>,
}

impl Analysis {
    fn of(info: ProgramInfo) -> Analysis {
        Analysis {
            info: Arc::new(info),
            start: None,
        }
    }
}

/// The bound a round starts with: below its threads' demand floor
/// every descent ends `Infeasible` — unless a zero budget reports
/// [`AllocError::IterationCapHit`] there instead.
fn floor_bound(analyses: &[Analysis], config: EngineConfig) -> usize {
    if config.max_iterations == IterationBudget::Fixed(0) {
        0
    } else {
        demand_floor(
            &analyses
                .iter()
                .map(|a| (a.info.pressure.min_pr(), a.info.pressure.min_r()))
                .collect::<Vec<_>>(),
        )
    }
}

/// One round's balancing verdict at `nreg` — exactly what
/// [`crate::allocate_threads_stats`] over the round's programs returns:
/// a descent from the kept initial states, building only the missing
/// ones.
fn balance_round(
    analyses: &mut [Analysis],
    nreg: usize,
    config: EngineConfig,
) -> Result<MultiAllocation, AllocError> {
    let missing: Vec<usize> = (0..analyses.len())
        .filter(|&t| analyses[t].start.is_none())
        .collect();
    let built = par_map(&missing, config.parallel, |&t| {
        initial_state(&analyses[t].info)
    });
    for (t, start) in missing.into_iter().zip(built) {
        analyses[t].start = Some(Arc::new(start));
    }
    let threads = analyses
        .iter()
        .map(|a| {
            let (bounds, alloc) = a.start.as_deref().expect("every start state built");
            ThreadResult {
                info: a.info.clone(),
                bounds: *bounds,
                alloc: alloc.clone(),
            }
        })
        .collect();
    descend(threads, nreg, config).map(|(alloc, _)| alloc)
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
    use crate::engine::{allocate_threads, allocate_threads_stats};
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

    /// One target of the spill sweep at an explicit base.
    fn spill_at(
        funcs: &[Func],
        nreg: usize,
        spill_base: i64,
    ) -> Result<HybridAllocation, AllocError> {
        SpillTrajectory::new(funcs, EngineConfig::default(), spill_base).hybrid(nreg)
    }

    #[test]
    fn explicit_spill_base_relocates_slots() {
        let funcs = vec![hot(), hot()];
        let a = spill_at(&funcs, 8, 0x1_0000).unwrap();
        let b = spill_at(&funcs, 8, 0x2_0000).unwrap();
        // Same spill decisions, different slot addresses.
        assert_eq!(a.spills, b.spills);
        assert!(a.spills.iter().sum::<usize>() > 0);
        assert_ne!(a.funcs, b.funcs, "spill addresses must move with the base");
        // The default entry point keeps its historical area.
        let d = allocate_threads_with_spill(&funcs, 8).unwrap();
        assert_eq!(d.spills, a.spills);
    }

    /// A client asking ever new sizes grows no memo past
    /// [`MEMO_SIZES`], and a size asked again after its eviction gets
    /// the fresh run's verdict.
    #[test]
    fn memos_stay_bounded_under_ever_new_sizes() {
        let funcs = [hot(), hot()];
        let fresh =
            || SpillTrajectory::new(&funcs[..], EngineConfig::default(), DEFAULT_SPILL_BASE);
        let mut traj = fresh();
        let sizes: Vec<usize> = (1..=3 * MEMO_SIZES).collect();
        for &n in sizes.iter().chain(&sizes) {
            let _ = traj.balanced(n);
            let _ = traj.hybrid(n);
            assert!(traj.balanced.0.len() <= MEMO_SIZES, "nreg={n}");
            assert!(traj.hybrid.0.len() <= MEMO_SIZES, "nreg={n}");
        }
        for n in [1, 8, 2 * MEMO_SIZES, 3 * MEMO_SIZES] {
            assert_eq!(
                format!("{:?}", traj.balanced(n)),
                format!("{:?}", fresh().balanced(n)),
                "nreg={n}"
            );
            assert_eq!(
                format!("{:?}", traj.hybrid(n)),
                format!("{:?}", fresh().hybrid(n)),
                "nreg={n}"
            );
        }
    }

    /// A trajectory whose round 0 was resolved by balanced queries
    /// spills exactly like a fresh loop, and the verdicts it reuses
    /// are the dedicated balanced runs'.
    #[test]
    fn seeded_round_zero_matches_the_unseeded_loop() {
        let funcs = vec![hot(), hot()];
        let mut traj =
            SpillTrajectory::new(&funcs[..], EngineConfig::default(), DEFAULT_SPILL_BASE);
        let balanced = [8, 32].map(|nreg| traj.balanced(nreg));
        for (nreg, verdict) in [8, 32].into_iter().zip(&balanced) {
            let solo =
                allocate_threads_stats(&funcs, nreg, EngineConfig::default()).map(|(a, _)| a);
            assert_eq!(format!("{verdict:?}"), format!("{solo:?}"));
        }
        assert!(balanced[0].is_err());
        let plain = allocate_threads_with_spill(&funcs, 8).unwrap();
        let spilled = traj.hybrid(8).unwrap();
        assert_eq!(spilled.funcs, plain.funcs);
        assert_eq!(spilled.spills, plain.spills);
        // A size round 0 fits is answered without touching code.
        let fit = traj.hybrid(32).unwrap();
        assert_eq!(fit.spills, vec![0, 0]);
        assert_eq!(fit.funcs[0], hot());
    }

    /// The shared spill trajectory must hand every swept size the exact
    /// verdict of a dedicated run: same spill code, same counts, same
    /// allocation, same error payloads — across sizes that need no
    /// spills, some spills, and sizes that diverge entirely.
    #[test]
    fn spill_sweep_matches_independent_runs() {
        let funcs = vec![hot(), hot()];
        let targets = [32usize, 8, 1, 12, 8, 2];
        let swept = hybrid_at_each(
            &mut trajectory(&funcs, &targets, EngineConfig::default(), false),
            &targets,
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
        // Answering round 0 from balanced queries is behaviour-preserving.
        let seeded = hybrid_at_each(
            &mut trajectory(&funcs, &targets, EngineConfig::default(), true),
            &targets,
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

    /// The hybrid verdict at `nreg` registers with a `capacity`-word
    /// scratchpad, at the default spill base and config.
    fn scratched(funcs: &[Func], nreg: usize, capacity: usize) -> HybridAllocation {
        SpillTrajectory::new(funcs, EngineConfig::default(), DEFAULT_SPILL_BASE)
            .scratch(nreg, &scratch(capacity))
            .unwrap()
    }

    /// Zero-capacity scratchpad must degrade bit-identically to the
    /// plain spill loop: same code, same slots, same allocation.
    #[test]
    fn zero_capacity_scratch_matches_plain_spill_bit_for_bit() {
        let funcs = vec![hot(), hot()];
        let plain = allocate_threads_with_spill(&funcs, 8).unwrap();
        let zero = scratched(&funcs, 8, 0);
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
        let full = scratched(&funcs, 8, n);
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
        let part = scratched(&funcs, 8, cap);
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

    /// A trajectory at the default spill base whose round 0 balanced
    /// queries at `targets` resolved first when `seeded`.
    fn trajectory(
        funcs: &[Func],
        targets: &[usize],
        config: EngineConfig,
        seeded: bool,
    ) -> SpillTrajectory {
        let mut traj = SpillTrajectory::new(funcs, config, DEFAULT_SPILL_BASE);
        if seeded {
            for &nreg in targets {
                let _ = traj.balanced(nreg);
            }
        }
        traj
    }

    /// `traj`'s hybrid verdict at each of `targets`, asked in order.
    fn hybrid_at_each(
        traj: &mut SpillTrajectory,
        targets: &[usize],
    ) -> Vec<Result<HybridAllocation, AllocError>> {
        targets.iter().map(|&nreg| traj.hybrid(nreg)).collect()
    }

    /// `traj`'s scratch replay at each of `targets`, asked in order.
    fn scratch_at_each(
        traj: &mut SpillTrajectory,
        targets: &[usize],
        params: &ScratchParams,
    ) -> Vec<Result<HybridAllocation, AllocError>> {
        targets
            .iter()
            .map(|&nreg| traj.scratch(nreg, params))
            .collect()
    }

    /// The spill loop without kept state, with the scratchpad slot
    /// policy applied while it spills: every round runs one dedicated
    /// [`allocate_threads_stats`] per pending size, from fresh analyses,
    /// and recomputes each analysis for the pressure and the candidate.
    fn recomputing_spill_sweep(
        funcs: &[Func],
        targets: &[usize],
        config: EngineConfig,
        scratch: Option<&ScratchParams>,
    ) -> Vec<Result<HybridAllocation, AllocError>> {
        let costs: Vec<SpillCosts> = funcs.iter().map(SpillCosts::compute).collect();
        let mut state = SpillState::new(funcs, DEFAULT_SPILL_BASE, scratch.copied());
        let mut results: Vec<Option<Result<HybridAllocation, AllocError>>> =
            targets.iter().map(|_| None).collect();
        let mut pending: Vec<usize> = (0..targets.len()).collect();
        for _ in 0..MAX_SPILL_ROUNDS {
            let mut still = Vec::new();
            for &i in &pending {
                match allocate_threads_stats(&state.work, targets[i], config) {
                    Ok((alloc, _)) => results[i] = Some(Ok(state.allocation(alloc))),
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
    /// verdict: across iteration budgets, a fresh trajectory and one
    /// whose round 0 balanced queries resolved first, the scratchpad
    /// tier's settings, and targets below the floor, that spill and
    /// then fit, and that diverge.
    #[test]
    fn kept_state_loop_matches_the_recomputing_reference() {
        let funcs = vec![hot(), csb_dense(), hot()];
        let targets = [1usize, 4, 8, 11, 14, 20, 32];
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
            let params = [None, Some(scratch(0)), Some(scratch(2))];
            let wants = params
                .map(|params| recomputing_spill_sweep(&funcs, &targets, config, params.as_ref()));
            for seeded in [false, true] {
                let mut traj = trajectory(&funcs, &targets, config, seeded);
                for (params, want) in params.iter().zip(&wants) {
                    let got = match params {
                        None => hybrid_at_each(&mut traj, &targets),
                        Some(params) => scratch_at_each(&mut traj, &targets, params),
                    };
                    assert_eq!(
                        format!("{got:?}"),
                        format!("{want:?}"),
                        "{budget:?}, seeded: {seeded}, scratch: {params:?}"
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

    /// The replay oracle over one corpus: for every thread group, with
    /// a fresh trajectory and one whose round 0 balanced queries
    /// resolved first, the plain sweep replayed by
    /// [`SpillTrajectory::scratch`] must be `Debug`-identical to
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
            let capacities = [0, 1, 3, 16];
            let wants = capacities.map(|capacity| {
                recomputing_spill_sweep(funcs, targets, config, Some(&scratch(capacity)))
            });
            for seeded in [false, true] {
                let mut traj = trajectory(funcs, targets, config, seeded);
                for (&capacity, want) in capacities.iter().zip(&wants) {
                    let got = scratch_at_each(&mut traj, targets, &scratch(capacity));
                    for ((&nreg, g), w) in targets.iter().zip(&got).zip(want) {
                        assert_eq!(
                            format!("{g:?}"),
                            format!("{w:?}"),
                            "{name} nreg={nreg} capacity={capacity} seeded={seeded}"
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

    /// splitmix64: the test orders' deterministic generator.
    fn splitmix(state: &mut u64) -> u64 {
        *state = state.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = *state;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// The orders a trajectory is asked `sizes` in: ascending,
    /// descending, shuffled, and a random walk that repeats sizes.
    fn orders(sizes: &[usize], seed: u64) -> [Vec<usize>; 4] {
        let mut ascending = sizes.to_vec();
        ascending.sort_unstable();
        let descending = ascending.iter().rev().copied().collect();
        let mut state = seed;
        let mut shuffled = ascending.clone();
        for i in (1..shuffled.len()).rev() {
            shuffled.swap(i, (splitmix(&mut state) % (i as u64 + 1)) as usize);
        }
        let mut at = ascending.len() / 2;
        let walk = (0..2 * ascending.len())
            .map(|_| {
                at = (at + (splitmix(&mut state) % 7) as usize)
                    .saturating_sub(3)
                    .min(ascending.len() - 1);
                ascending[at]
            })
            .collect();
        [ascending, descending, shuffled, walk]
    }

    /// The order-independence oracle over one corpus: for every thread
    /// group and budget, one trajectory per order of [`orders`] is asked
    /// the hybrid and the balanced verdict at each size — hybrid first
    /// in the odd orders — and then, at every `ladder_every`-th size,
    /// the default ladder's walk; every answer's `Debug` text must
    /// equal, by digest, a fresh trajectory's asked that size alone.
    /// Returns how many fresh verdicts of each kind were compared, with
    /// `rebuilt` counting the spilled answers that came from a round
    /// before the deepest, `partitioned` the walks settled on a Chaitin
    /// rung and `retried` the walks that retried a starved rung.
    fn assert_order_independent(
        groups: &[(String, Vec<Func>)],
        sizes: &[usize],
        budgets: &[IterationBudget],
        ladder_every: usize,
    ) -> std::collections::BTreeMap<&'static str, usize> {
        use crate::ladder::LadderOutcome;
        let mut kinds = std::collections::BTreeMap::new();
        for (g, (name, funcs)) in groups.iter().enumerate() {
            for &budget in budgets {
                let config = EngineConfig {
                    max_iterations: budget,
                    ..EngineConfig::default()
                };
                let mut fresh = std::collections::BTreeMap::new();
                for &n in sizes {
                    let fresh_traj =
                        || SpillTrajectory::new(&funcs[..], config, DEFAULT_SPILL_BASE);
                    let balanced = fresh_traj().balanced(n);
                    let hybrid = fresh_traj().hybrid(n);
                    for kind in [
                        verdict_kind(&balanced),
                        verdict_kind(&hybrid.clone().map(|h| h.alloc)),
                    ] {
                        *kinds.entry(kind).or_insert(0) += 1;
                    }
                    if matches!(&hybrid, Ok(h) if !h.picks.is_empty()) {
                        *kinds.entry("spilled").or_insert(0) += 1;
                    }
                    let walk = (n % ladder_every == 0)
                        .then(|| fresh_traj().ladder(n, &ScratchParams::default()));
                    if let Some(walk) = &walk {
                        let retries = match walk {
                            Ok(a) => &a.retries,
                            Err(e) => &e.retries,
                        };
                        if !retries.is_empty() {
                            *kinds.entry("retried").or_insert(0) += 1;
                        }
                        if matches!(walk, Ok(a) if matches!(a.outcome, LadderOutcome::Partitioned(_)))
                        {
                            *kinds.entry("partitioned").or_insert(0) += 1;
                        }
                    }
                    fresh.insert(
                        n,
                        (
                            debug_digest(&balanced),
                            debug_digest(&hybrid),
                            walk.map(|w| debug_digest(&w)),
                        ),
                    );
                }
                for (k, order) in orders(sizes, g as u64).into_iter().enumerate() {
                    let mut traj = SpillTrajectory::new(&funcs[..], config, DEFAULT_SPILL_BASE);
                    for &n in &order {
                        let what = format!("{name} {budget:?} order {k} nreg={n}");
                        let ask_balanced = |traj: &mut SpillTrajectory| {
                            let balanced = traj.balanced(n);
                            assert_eq!(debug_digest(&balanced), fresh[&n].0, "{what}");
                        };
                        if k % 2 == 0 {
                            ask_balanced(&mut traj);
                        }
                        let depth = traj.bounds.len().saturating_sub(1);
                        let hybrid = traj.hybrid(n);
                        if matches!(&hybrid, Ok(h) if !h.picks.is_empty() && h.picks.len() < depth)
                        {
                            *kinds.entry("rebuilt").or_insert(0) += 1;
                        }
                        assert_eq!(debug_digest(&hybrid), fresh[&n].1, "{what}");
                        if k % 2 == 1 {
                            ask_balanced(&mut traj);
                        }
                        if let Some(want) = fresh[&n].2 {
                            let walk = traj.ladder(n, &ScratchParams::default());
                            assert_eq!(debug_digest(&walk), want, "{what} ladder");
                        }
                    }
                }
            }
        }
        kinds
    }

    /// An FNV-1a digest of `value`'s `Debug` text, streamed: a verdict's
    /// text carries every thread's analysis and runs to megabytes.
    fn debug_digest(value: &impl std::fmt::Debug) -> u64 {
        struct Fnv(u64);
        impl std::fmt::Write for Fnv {
            fn write_str(&mut self, s: &str) -> std::fmt::Result {
                for b in s.bytes() {
                    self.0 = (self.0 ^ u64::from(b)).wrapping_mul(0x0100_0000_01b3);
                }
                Ok(())
            }
        }
        let mut digest = Fnv(0xcbf2_9ce4_8422_2325);
        std::fmt::Write::write_fmt(&mut digest, format_args!("{value:?}")).unwrap();
        digest.0
    }

    /// A verdict's kind, for the corpus tallies.
    fn verdict_kind(verdict: &Result<MultiAllocation, AllocError>) -> &'static str {
        match verdict {
            Ok(_) => "fit",
            Err(AllocError::Infeasible { .. }) => "infeasible",
            Err(AllocError::IterationCapHit { .. }) => "iteration-cap",
            Err(AllocError::SpillDiverged { .. }) => "spill-diverged",
            Err(_) => "other",
        }
    }

    /// The kernels of the suite, each as a group of `threads` copies.
    fn kernel_groups(
        kernels: &[regbal_workloads::Kernel],
        threads: &[usize],
    ) -> Vec<(String, Vec<Func>)> {
        let mut groups = Vec::new();
        for &kernel in kernels {
            for &n in threads {
                groups.push((
                    format!("{} x{n}", kernel.name()),
                    (0..n).map(|slot| kernel.build(slot, 4)).collect(),
                ));
            }
        }
        groups
    }

    /// One trajectory answers every size exactly as a fresh one asked
    /// that size alone, whatever order the sizes arrive in — including
    /// sizes resolved in a round before the deepest, which the
    /// trajectory rebuilds — under the default budget and small fixed
    /// ones.
    #[test]
    fn trajectory_answers_every_size_in_any_order() {
        let mut groups = vec![
            ("hot x2".to_string(), vec![hot(), hot()]),
            ("hot dense hot".to_string(), vec![hot(), csb_dense(), hot()]),
        ];
        // The cheapest stress class; the others take seconds each in a
        // debug build (the ignored test covers them).
        groups.extend(
            stress_groups(0..1, &[2])
                .into_iter()
                .filter(|(name, _)| name.starts_with("csb_dense")),
        );
        // Every size up to 24, so each `Infeasible` verdict's `needed`
        // that a later size can equal is asked too.
        let sizes: Vec<usize> = (1..=24).chain([30, 40, 64, 140]).collect();
        let budgets = [
            IterationBudget::Adaptive,
            IterationBudget::Fixed(0),
            IterationBudget::Fixed(2),
        ];
        let mut kinds = assert_order_independent(&groups, &sizes, &budgets, 1);
        // A kernel whose descent stalls above its demand floor, so a
        // round's bound rises past the floor.
        let drr = kernel_groups(&[regbal_workloads::Kernel::Drr], &[2]);
        for (kind, n) in assert_order_independent(&drr, &sizes, &[IterationBudget::Adaptive], 1) {
            *kinds.entry(kind).or_insert(0) += n;
        }
        for kind in [
            "fit",
            "infeasible",
            "iteration-cap",
            "spill-diverged",
            "spilled",
            "rebuilt",
            "partitioned",
        ] {
            assert!(kinds.contains_key(kind), "no {kind} verdict: {kinds:?}");
        }
    }

    /// The order-independence property over the suite's 11 kernels and
    /// stress seeds 0–3, at 2 and 4 threads, Nreg 1–140, with the
    /// ladder's walk at every even size. Slow (run in release with
    /// `cargo test --release -p regbal-core -- --ignored`).
    #[test]
    #[ignore]
    fn trajectory_answers_every_size_in_any_order_on_the_full_corpus() {
        let mut groups = kernel_groups(&regbal_workloads::Kernel::ALL, &[2, 4]);
        groups.extend(stress_groups(0..4, &[2, 4]));
        let sizes: Vec<usize> = (1..=140).collect();
        let budgets = [
            IterationBudget::Adaptive,
            IterationBudget::Fixed(1),
            IterationBudget::Fixed(8),
        ];
        let kinds = assert_order_independent(&groups, &sizes, &budgets, 2);
        for kind in [
            "fit",
            "infeasible",
            "iteration-cap",
            "spill-diverged",
            "spilled",
            "rebuilt",
            "partitioned",
            "retried",
        ] {
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
