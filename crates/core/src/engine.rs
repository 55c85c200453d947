//! The inter-thread register allocator (paper §6, Fig. 8) and the
//! single-thread reduction drivers used by the evaluation.
//!
//! Starting from each thread's upper-bound estimate, the greedy loop
//! repeatedly reduces the total demand `Σ PRᵢ + max SRᵢ` by one
//! register, always taking the direction of smallest move-insertion
//! cost:
//!
//! * reduce `PRᵢ` of one thread (direct gain of one register), or
//! * reduce `SRᵢ` of **every** thread at the current maximum (gain of
//!   one on the shared-register term).
//!
//! Each candidate's cost is evaluated by running the intra-thread
//! allocator on a scratch copy — the encapsulation the paper's framework
//! (Fig. 6) prescribes.
//!
//! # Engine
//!
//! A candidate is a pure function of a small part of the engine state:
//! the Reduce-SR trial of thread *i* depends only on thread *i*'s own
//! allocation, and its Reduce-PR trial depends only on its own
//! allocation plus `max SRⱼ (j ≠ i)` (written `m_others` below) — the
//! objective `Σ PRᵢ + max SRᵢ` contributed by the *other* threads is an
//! additive constant that cancels out of every comparison. The engine
//! exploits this two ways (see [`EngineConfig`]):
//!
//! * **memoization** — candidates survive across greedy iterations and
//!   are recomputed only for the threads whose allocation changed in the
//!   last committed step, or whose `m_others` shifted;
//! * **parallel evaluation** — cache misses of one iteration are
//!   independent and are evaluated concurrently with
//!   [`std::thread::scope`].
//!
//! Candidates are deterministic and the (sequential) selection keeps the
//! naive evaluation order and strict `<` tie-breaking, so every
//! configuration produces bit-identical allocations; the naive
//! configuration ([`EngineConfig::naive`]) is kept for differential
//! tests and benchmarks. [`allocate_threads_stats`] additionally reports
//! an [`EngineStats`] with iteration/candidate counters and phase
//! timings.
//!
//! Each allocation is one descent to one register-file size. The spill
//! trajectory ([`crate::SpillTrajectory`]) runs the same descent, one
//! size per query, from start states it keeps across queries.

use crate::alloc::ThreadAlloc;
use crate::bounds::{estimate_bounds, Bounds};
use crate::error::AllocError;
use crate::livemap::LiveMap;
use crate::rewrite::Layout;
use regbal_analysis::ProgramInfo;
use regbal_ir::Func;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

/// Final allocation of one thread.
#[derive(Debug, Clone)]
pub struct ThreadResult {
    /// The analysis bundle of the thread's program, shared by every
    /// snapshot of a descent (and by every spill round the thread's
    /// program is unchanged in).
    pub info: Arc<ProgramInfo>,
    /// The paper's §5 bounds for the thread.
    pub bounds: Bounds,
    /// The final intra-thread allocation state.
    pub alloc: ThreadAlloc,
}

impl ThreadResult {
    /// Private registers assigned (`PRᵢ`).
    pub fn pr(&self) -> usize {
        self.alloc.pr()
    }

    /// Shared registers needed (`SRᵢ`).
    pub fn sr(&self) -> usize {
        self.alloc.sr()
    }

    /// Move instructions the allocation inserts.
    pub fn moves(&self) -> usize {
        self.alloc.moves()
    }
}

/// Per-thread accounting of an allocation, in the shape the paper's
/// tables use.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ThreadSummary {
    /// Private registers (bank size for partitioned outcomes).
    pub pr: usize,
    /// Shared registers (zero for partitioned outcomes).
    pub sr: usize,
    /// Split-live-range move instructions inserted.
    pub moves: usize,
    /// Live ranges spilled to memory.
    pub spills: usize,
}

/// The result of [`allocate_threads`]: one [`ThreadResult`] per thread
/// plus the machine-wide accounting.
#[derive(Debug, Clone)]
pub struct MultiAllocation {
    /// Per-thread results, in input order.
    pub threads: Vec<ThreadResult>,
    /// Size of the register file allocated against.
    pub nreg: usize,
}

impl MultiAllocation {
    /// The number of globally shared registers (`SGR = max SRᵢ`).
    pub fn sgr(&self) -> usize {
        self.threads.iter().map(ThreadResult::sr).max().unwrap_or(0)
    }

    /// Total physical registers consumed: `Σ PRᵢ + SGR`.
    pub fn total_registers(&self) -> usize {
        self.threads.iter().map(ThreadResult::pr).sum::<usize>() + self.sgr()
    }

    /// Per-thread `(PR, SR, moves, spills)` accounting; balancing
    /// alone spills nothing.
    pub fn thread_summaries(&self) -> Vec<ThreadSummary> {
        self.threads
            .iter()
            .map(|t| ThreadSummary {
                pr: t.pr(),
                sr: t.sr(),
                moves: t.moves(),
                spills: 0,
            })
            .collect()
    }

    /// The physical register layout: disjoint private banks per thread
    /// followed by the shared bank.
    pub fn layout(&self) -> Layout {
        Layout::new(
            &self
                .threads
                .iter()
                .map(|t| (t.pr(), t.sr()))
                .collect::<Vec<_>>(),
            self.nreg,
        )
    }

    /// Rewrites every thread's function to physical registers,
    /// materialising the split-live-range moves.
    ///
    /// # Panics
    ///
    /// Panics if `funcs` are not the functions the allocation was
    /// computed from (see [`MultiAllocation::try_rewrite_funcs`] for
    /// the panic-free variant).
    pub fn rewrite_funcs(&self, funcs: &[Func]) -> Vec<Func> {
        self.try_rewrite_funcs(funcs)
            .expect("allocation must belong to the rewritten functions")
    }

    /// Panic-free [`MultiAllocation::rewrite_funcs`]: returns
    /// [`AllocError::InvalidAllocation`] when `funcs` are not the
    /// functions the allocation was computed from.
    ///
    /// # Errors
    ///
    /// Returns [`AllocError::InvalidAllocation`] on any mismatch
    /// between the allocation and `funcs`.
    pub fn try_rewrite_funcs(&self, funcs: &[Func]) -> Result<Vec<Func>, AllocError> {
        if funcs.len() != self.threads.len() {
            return Err(AllocError::InvalidAllocation {
                reason: format!(
                    "allocation covers {} threads, got {} functions",
                    self.threads.len(),
                    funcs.len()
                ),
            });
        }
        let layout = self.layout();
        funcs
            .iter()
            .zip(&self.threads)
            .enumerate()
            .map(|(i, (f, t))| {
                crate::rewrite::try_rewrite_thread(
                    f,
                    &t.info,
                    &t.alloc,
                    &layout.color_map(i, &t.alloc),
                )
            })
            .collect()
    }

    /// The fragment-ownership map of the allocation: which vreg
    /// fragments each thread placed in each physical register, as
    /// `(thread, register, label)` triples with labels like `"v3#0"`
    /// (fragment 0 of `v3`) or `"v1#0,v4#2"` when several fragments of
    /// a thread share the register.
    ///
    /// The triples are plain data so the simulator (which this crate
    /// does not depend on) can consume them — they feed the dynamic
    /// sanitizer's diagnostics, labeling both sides of a clobber with
    /// the allocator's intent.
    pub fn fragment_tags(&self) -> Vec<(usize, u32, String)> {
        let layout = self.layout();
        let mut map: std::collections::BTreeMap<(usize, u32), Vec<String>> =
            std::collections::BTreeMap::new();
        for (i, t) in self.threads.iter().enumerate() {
            let color_map = layout.color_map(i, &t.alloc);
            let mut next_fragment: std::collections::HashMap<regbal_ir::VReg, usize> =
                std::collections::HashMap::new();
            for id in t.alloc.node_ids() {
                let v = t.alloc.node_vreg(id);
                let ordinal = next_fragment.entry(v).or_insert(0);
                let label = format!("{v}#{ordinal}");
                *ordinal += 1;
                let preg = color_map[&t.alloc.node_color(id)];
                map.entry((i, preg.0)).or_default().push(label);
            }
        }
        map.into_iter()
            .map(|((t, r), labels)| (t, r, labels.join(",")))
            .collect()
    }
}

/// Builds the initial (upper-bound) allocation state for one function.
pub(crate) fn initial_thread(func: &Func) -> ThreadResult {
    let info = Arc::new(ProgramInfo::compute(func));
    let (bounds, alloc) = initial_state(&info);
    ThreadResult {
        info,
        bounds,
        alloc,
    }
}

/// The bounds and upper-bound allocation state [`initial_thread`]
/// derives from an already computed analysis bundle.
pub(crate) fn initial_state(info: &ProgramInfo) -> (Bounds, ThreadAlloc) {
    let est = estimate_bounds(info);
    let live = Arc::new(LiveMap::compute(info));
    let alloc = ThreadAlloc::new(live, &est.coloring, est.bounds.max_pr, est.bounds.max_r);
    (est.bounds, alloc)
}

/// The demand floor `max_j (Σ_{i≠j} MinPRᵢ + MinRⱼ)` over each
/// thread's `(MinPR, MinR)`. Every reachable state keeps `PRᵢ ≥ MinPRᵢ`
/// and `PRᵢ + SRᵢ ≥ MinRᵢ` per thread, so the objective
/// `Σ PRᵢ + max SRᵢ` never drops below it.
pub(crate) fn demand_floor(mins: &[(usize, usize)]) -> usize {
    let sum_min_pr: usize = mins.iter().map(|&(min_pr, _)| min_pr).sum();
    mins.iter()
        .map(|&(min_pr, min_r)| sum_min_pr - min_pr + min_r)
        .max()
        .unwrap_or(0)
}

/// Ceiling (and former global value) of the iteration budget. The
/// objective strictly decreases every committed step, so real workloads
/// finish in far fewer iterations; the cap is the deterministic
/// backstop the degradation ladder relies on.
pub const DEFAULT_ITERATION_CAP: usize = 100_000;

/// Floor of the adaptive iteration budget: even a tiny program gets at
/// least this many committed steps before the engine gives up.
pub const MIN_ITERATION_CAP: usize = 256;

/// How many committed steps each unit of program size
/// (live ranges × threads) buys under [`IterationBudget::Adaptive`].
pub const ADAPTIVE_CAP_FACTOR: usize = 16;

/// The iteration budget of the greedy loop (see
/// [`EngineConfig::max_iterations`]).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum IterationBudget {
    /// Scale the cap with program size: `ranges × threads ×`
    /// [`ADAPTIVE_CAP_FACTOR`], clamped to
    /// `[`[`MIN_ITERATION_CAP`]`, `[`DEFAULT_ITERATION_CAP`]`]`, where
    /// `ranges` is the total live-range (node) count over all threads.
    /// Tiny programs fail fast; large ones are never starved below the
    /// old global default's reach (the committed-step count is bounded
    /// by the initial demand surplus, itself at most `ranges`).
    Adaptive,
    /// An explicit cap in committed steps.
    Fixed(usize),
    /// No budget (the loop still terminates: the objective is strictly
    /// decreasing).
    Unbounded,
}

impl IterationBudget {
    /// Resolves the budget against a program of `ranges` total live
    /// ranges across `threads` threads. `None` means unbounded.
    pub fn resolve(self, ranges: usize, threads: usize) -> Option<usize> {
        match self {
            IterationBudget::Adaptive => Some(
                ranges
                    .saturating_mul(threads)
                    .saturating_mul(ADAPTIVE_CAP_FACTOR)
                    .clamp(MIN_ITERATION_CAP, DEFAULT_ITERATION_CAP),
            ),
            IterationBudget::Fixed(cap) => Some(cap),
            IterationBudget::Unbounded => None,
        }
    }
}

/// Tuning knobs of the greedy engine. Every configuration produces
/// bit-identical allocations; the knobs only trade work for speed —
/// except `max_iterations`, which bounds the search and turns an
/// over-budget run into [`AllocError::IterationCapHit`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct EngineConfig {
    /// Keep candidates across iterations, recomputing only the threads
    /// whose allocation (or `m_others`) changed since the last step.
    pub memoize: bool,
    /// Evaluate the candidates of one iteration (and the initial bound
    /// estimates) concurrently with [`std::thread::scope`].
    pub parallel: bool,
    /// Budget of committed reduction steps before the engine gives up
    /// with [`AllocError::IterationCapHit`]. The default
    /// ([`IterationBudget::Adaptive`]) scales with program size; a
    /// [`IterationBudget::Fixed`] cap is the explicit override. A run
    /// that stays under its cap is bit-identical to the unbounded run.
    pub max_iterations: IterationBudget,
}

impl Default for EngineConfig {
    fn default() -> Self {
        EngineConfig {
            memoize: true,
            parallel: true,
            max_iterations: IterationBudget::Adaptive,
        }
    }
}

impl EngineConfig {
    /// The reference configuration: every candidate recomputed serially
    /// on every iteration. Kept as the oracle of the differential tests
    /// that hold the memoized and parallel engines to it.
    pub fn naive() -> Self {
        EngineConfig {
            memoize: false,
            parallel: false,
            max_iterations: IterationBudget::Adaptive,
        }
    }

    /// The default engine without an iteration budget — the reference
    /// side of the capped-vs-uncapped differential tests.
    pub fn uncapped() -> Self {
        EngineConfig {
            max_iterations: IterationBudget::Unbounded,
            ..EngineConfig::default()
        }
    }
}

/// Counters and phase timings reported by [`allocate_threads_stats`].
#[derive(Debug, Clone, Default)]
pub struct EngineStats {
    /// Greedy iterations (committed steps) of the search loop.
    pub iterations: usize,
    /// Candidates evaluated by running the intra-thread allocator on a
    /// scratch copy.
    pub evaluated: usize,
    /// Candidates served from the memo cache instead.
    pub cached: usize,
    /// Time spent computing per-thread analyses and initial bounds.
    pub init: Duration,
    /// Time spent in the greedy search loop.
    pub search: Duration,
    /// Time spent in the final safety verification.
    pub verify: Duration,
    /// End-to-end wall time of the allocation.
    pub total: Duration,
}

/// One memo slot: `None` = not computed for the current allocation;
/// `Some(inner)` = computed, where `inner = None` records "no feasible
/// improving trial" and otherwise carries the trial and its move cost.
type Candidate = Option<(ThreadAlloc, isize)>;

/// Per-thread candidate memo. A thread's Reduce-SR candidate depends
/// only on its own allocation; its Reduce-PR candidate additionally
/// depends on `m_others`, which is stored alongside and checked on
/// lookup (so a shift of the shared maximum invalidates implicitly).
struct CandidateCache {
    private: Vec<Option<(usize, Candidate)>>,
    shared: Vec<Option<Candidate>>,
}

impl CandidateCache {
    fn new(n: usize) -> Self {
        CandidateCache {
            private: vec![None; n],
            shared: vec![None; n],
        }
    }

    /// Forgets both candidates of `i` — called when `i`'s allocation
    /// changes.
    fn invalidate(&mut self, i: usize) {
        self.private[i] = None;
        self.shared[i] = None;
    }

    fn clear(&mut self) {
        for i in 0..self.private.len() {
            self.invalidate(i);
        }
    }
}

/// The Reduce-PR candidate of one thread: demote the cheapest private
/// color to shared, chasing objective-neutral demotions with shared
/// eliminations on the same thread (a compound step). Pure in
/// `(t.alloc, t.bounds, m_others)`.
///
/// `m_others` is the maximum `SRⱼ` over the *other* threads; the
/// objective delta of the trial is
/// `(trial.pr + max(m_others, trial.sr)) - (t.pr + max(m_others, t.sr))`
/// because every other term of `Σ PRᵢ + max SRᵢ` is untouched. Returns
/// `None` unless the trial strictly reduces the objective.
fn private_candidate(t: &ThreadResult, m_others: usize) -> Candidate {
    if t.pr() <= t.bounds.min_pr {
        return None;
    }
    let mut trial = t.alloc.clone();
    let mut cost = trial.reduce_private()?;
    let before = t.pr() + t.sr().max(m_others);
    while trial.pr() + trial.sr().max(m_others) >= before
        && trial.sr() > 0
        && trial.pr() + trial.sr() > t.bounds.min_r
    {
        match trial.reduce_shared() {
            Some(c) => cost += c,
            None => break,
        }
    }
    if trial.pr() + trial.sr().max(m_others) >= before {
        return None;
    }
    Some((trial, cost))
}

/// The Reduce-SR candidate of one thread: eliminate one shared color.
/// Pure in `(t.alloc, t.bounds)`.
fn shared_candidate(t: &ThreadResult) -> Candidate {
    if !can_reduce_shared(t) {
        return None;
    }
    let mut trial = t.alloc.clone();
    let cost = trial.reduce_shared()?;
    Some((trial, cost))
}

/// A cache miss to evaluate this iteration.
#[derive(Clone, Copy)]
enum Job {
    Private { thread: usize, m_others: usize },
    Shared { thread: usize },
}

fn worker_count(parallel: bool, njobs: usize) -> usize {
    if !parallel {
        return 1;
    }
    std::thread::available_parallelism()
        .map(std::num::NonZeroUsize::get)
        .unwrap_or(1)
        .min(njobs)
}

/// Maps `f` over `items`, concurrently when `parallel` and worthwhile.
/// Results are positionally aligned with `items`; every caller maps a
/// deterministic function, so the schedule cannot affect the outcome.
pub(crate) fn par_map<T: Sync, R: Send>(
    items: &[T],
    parallel: bool,
    f: impl Fn(&T) -> R + Sync,
) -> Vec<R> {
    steal_map(items.len(), worker_count(parallel, items.len()), |k| {
        f(&items[k])
    })
}

/// Runs `compute(0..total)` across `workers` scoped OS threads stealing
/// indices from a shared atomic cursor, returning the results in index
/// order. Tasks may differ wildly in cost; the cursor keeps every
/// worker busy until the range is drained, and the positional merge
/// makes the output identical at any worker count whenever `compute`
/// is deterministic.
///
/// `workers <= 1` (or a single task) runs the plain serial loop in the
/// calling thread — same closure, so the paths cannot diverge. Workers
/// are clamped to `total`; a panic inside `compute` propagates to the
/// caller.
pub fn steal_map<R: Send>(
    total: usize,
    workers: usize,
    compute: impl Fn(usize) -> R + Sync,
) -> Vec<R> {
    if workers <= 1 || total <= 1 {
        return (0..total).map(compute).collect();
    }
    let mut results: Vec<Option<R>> = (0..total).map(|_| None).collect();
    let next = AtomicUsize::new(0);
    std::thread::scope(|s| {
        let handles: Vec<_> = (0..workers.min(total))
            .map(|_| {
                let (next, compute) = (&next, &compute);
                s.spawn(move || {
                    let mut out = Vec::new();
                    loop {
                        let k = next.fetch_add(1, Ordering::Relaxed);
                        if k >= total {
                            break;
                        }
                        out.push((k, compute(k)));
                    }
                    out
                })
            })
            .collect();
        for h in handles {
            for (k, r) in h.join().expect("a work-stealing worker panicked") {
                results[k] = Some(r);
            }
        }
    });
    results
        .into_iter()
        .map(|r| r.expect("every index computed"))
        .collect()
}

/// Evaluates `jobs` against the current `threads`; results are
/// positionally aligned with `jobs`.
fn run_jobs(threads: &[ThreadResult], jobs: &[Job], parallel: bool) -> Vec<Candidate> {
    par_map(jobs, parallel, |job| match *job {
        Job::Private { thread, m_others } => private_candidate(&threads[thread], m_others),
        Job::Shared { thread } => shared_candidate(&threads[thread]),
    })
}

/// Builds the initial allocation state of every thread, concurrently
/// when configured (the per-thread analyses are independent).
pub(crate) fn initial_threads(funcs: &[Func], parallel: bool) -> Vec<ThreadResult> {
    par_map(funcs, parallel, initial_thread)
}

/// Allocates registers for `Nthd = funcs.len()` threads sharing `nreg`
/// physical registers (asymmetric register allocation, paper Fig. 8),
/// with the default (memoized, parallel) engine.
///
/// # Errors
///
/// Returns [`AllocError::Infeasible`] when the demand cannot be reduced
/// to fit: every thread is at its lower bound or stuck.
pub fn allocate_threads(funcs: &[Func], nreg: usize) -> Result<MultiAllocation, AllocError> {
    allocate_threads_stats(funcs, nreg, EngineConfig::default()).map(|(alloc, _)| alloc)
}

/// [`allocate_threads`] with an explicit [`EngineConfig`], additionally
/// reporting [`EngineStats`].
///
/// # Errors
///
/// As [`allocate_threads`].
pub fn allocate_threads_stats(
    funcs: &[Func],
    nreg: usize,
    config: EngineConfig,
) -> Result<(MultiAllocation, EngineStats), AllocError> {
    let start = Instant::now();
    let threads = initial_threads(funcs, config.parallel);
    let init = start.elapsed();
    let (alloc, mut stats) = descend(threads, nreg, config)?;
    stats.init = init;
    stats.total = start.elapsed();
    Ok((alloc, stats))
}

/// The greedy descent from the given initial states ([`initial_thread`]
/// of each function) to the first state whose demand fits `nreg`
/// registers, verified. The returned stats cover the descent alone:
/// `init` is zero.
pub(crate) fn descend(
    mut threads: Vec<ThreadResult>,
    nreg: usize,
    config: EngineConfig,
) -> Result<(MultiAllocation, EngineStats), AllocError> {
    let search_start = Instant::now();
    let mut stats = EngineStats::default();
    let n = threads.len();
    let ranges: usize = threads.iter().map(|t| t.alloc.node_ids().count()).sum();
    let budget = config.max_iterations.resolve(ranges, n);
    let floor = demand_floor(
        &threads
            .iter()
            .map(|t| (t.bounds.min_pr, t.bounds.min_r))
            .collect::<Vec<_>>(),
    );
    let mut cache = CandidateCache::new(n);
    loop {
        // One aggregate pass yields everything each candidate's
        // objective test needs: `m_others(i)` is `second_sr` when `i` is
        // the unique maximum holder and `max_sr` otherwise.
        let mut sum_pr = 0usize;
        let mut max_sr = 0usize;
        let mut at_max = 0usize;
        let mut second_sr = 0usize;
        for t in &threads {
            sum_pr += t.pr();
            let sr = t.sr();
            if sr > max_sr {
                second_sr = max_sr;
                max_sr = sr;
                at_max = 1;
            } else if sr == max_sr {
                at_max += 1;
            } else if sr > second_sr {
                second_sr = sr;
            }
        }
        let total = sum_pr + max_sr;
        if total <= nreg {
            let verify_start = Instant::now();
            crate::verify::check_threads(
                &threads.iter().map(|t| t.alloc.clone()).collect::<Vec<_>>(),
                nreg,
            )
            .map_err(|e| AllocError::InvalidAllocation {
                reason: e.to_string(),
            })?;
            stats.verify = verify_start.elapsed();
            stats.search = search_start.elapsed().saturating_sub(stats.verify);
            stats.total = search_start.elapsed();
            return Ok((MultiAllocation { threads, nreg }, stats));
        }
        if let Some(cap) = budget {
            if stats.iterations >= cap {
                return Err(AllocError::IterationCapHit {
                    iterations: stats.iterations,
                    cap,
                });
            }
        }
        // Below the demand floor the file is provably out of reach: the
        // first pass resolves it, without burning the budget on an
        // exhaustive descent (a zero budget reports its cap first).
        if floor > nreg {
            return Err(AllocError::Infeasible {
                needed: floor,
                available: nreg,
            });
        }
        stats.iterations += 1;

        let holders: Vec<usize> = if max_sr > 0 {
            threads
                .iter()
                .enumerate()
                .filter(|(_, t)| t.sr() == max_sr)
                .map(|(i, _)| i)
                .collect()
        } else {
            Vec::new()
        };

        // Collect the cache misses; a private entry computed under a
        // different `m_others` no longer answers the current question.
        let mut jobs: Vec<Job> = Vec::new();
        for (i, t) in threads.iter().enumerate() {
            let m_others = if t.sr() == max_sr && at_max == 1 {
                second_sr
            } else {
                max_sr
            };
            match &cache.private[i] {
                Some((cached_m, _)) if *cached_m == m_others => stats.cached += 1,
                _ => jobs.push(Job::Private {
                    thread: i,
                    m_others,
                }),
            }
        }
        for &i in &holders {
            if cache.shared[i].is_some() {
                stats.cached += 1;
            } else {
                jobs.push(Job::Shared { thread: i });
            }
        }
        stats.evaluated += jobs.len();

        for (job, cand) in jobs.iter().zip(run_jobs(&threads, &jobs, config.parallel)) {
            match *job {
                Job::Private { thread, m_others } => {
                    cache.private[thread] = Some((m_others, cand));
                }
                Job::Shared { thread } => cache.shared[thread] = Some(cand),
            }
        }

        // Sequential selection in the fixed order (threads by index,
        // then the shared-maximum step) with strict `<` tie-breaking:
        // identical choices to the naive engine by construction.
        enum Step {
            Private(usize),
            SharedMax,
        }
        let mut best: Option<(Step, isize)> = None;
        for (i, entry) in cache.private.iter().enumerate() {
            if let Some((_, Some((_, cost)))) = entry {
                if best.as_ref().is_none_or(|&(_, c)| *cost < c) {
                    best = Some((Step::Private(i), *cost));
                }
            }
        }
        if !holders.is_empty() {
            // Reducing the shared maximum takes *every* holder down one
            // shared color; the step exists only if all of them can.
            let mut cost = 0isize;
            let mut feasible = true;
            for &i in &holders {
                match &cache.shared[i] {
                    Some(Some((_, c))) => cost += c,
                    _ => {
                        feasible = false;
                        break;
                    }
                }
            }
            if feasible && best.as_ref().is_none_or(|&(_, c)| cost < c) {
                best = Some((Step::SharedMax, cost));
            }
        }

        match best {
            Some((Step::Private(i), _)) => {
                let (_, cand) = cache.private[i].take().expect("selected entry present");
                threads[i].alloc = cand.expect("selected candidate feasible").0;
                cache.invalidate(i);
            }
            Some((Step::SharedMax, _)) => {
                for &i in &holders {
                    let cand = cache.shared[i].take().expect("selected entry present");
                    threads[i].alloc = cand.expect("selected candidate feasible").0;
                    cache.invalidate(i);
                }
            }
            // No feasible step anywhere: the file is out of reach from
            // here, short by the current demand.
            None => {
                return Err(AllocError::Infeasible {
                    needed: total,
                    available: nreg,
                })
            }
        }
        if !config.memoize {
            cache.clear();
        }
    }
}

fn can_reduce_private(t: &ThreadResult) -> bool {
    t.pr() > t.bounds.min_pr
}

fn can_reduce_shared(t: &ThreadResult) -> bool {
    t.sr() > 0 && t.pr() + t.sr() > t.bounds.min_r
}

/// Reduces a single thread's registers as long as reductions are free
/// (zero inserted moves), preferring private reductions. This is the
/// stopping rule of the paper's Figure 14 evaluation: "the algorithm
/// continues until the cost returned is non-zero".
pub fn zero_cost_frontier(func: &Func) -> ThreadResult {
    let mut t = initial_thread(func);
    loop {
        if can_reduce_private(&t) {
            let mut trial = t.alloc.clone();
            if let Some(delta) = trial.reduce_private() {
                if delta <= 0 {
                    t.alloc = trial;
                    continue;
                }
            }
        }
        if can_reduce_shared(&t) {
            let mut trial = t.alloc.clone();
            if let Some(delta) = trial.reduce_shared() {
                if delta <= 0 {
                    t.alloc = trial;
                    continue;
                }
            }
        }
        return t;
    }
}

/// Forces a thread all the way down to its lower bounds
/// (`PR = MinPR`, `R = MinR`), counting the moves this costs — the
/// paper's Table 2 "extreme case".
///
/// # Errors
///
/// Returns [`AllocError::TargetUnreachable`] if a reduction step gets
/// stuck before the bound (the residual is reported in the error).
pub fn force_min_bounds(func: &Func) -> Result<ThreadResult, AllocError> {
    let mut t = initial_thread(func);
    // Demote private colors down to MinPR first (R is preserved: the
    // demoted colors become shared), then eliminate shared colors down
    // to MinR.
    loop {
        let pr_excess = t.pr() > t.bounds.min_pr;
        let r_excess = t.pr() + t.sr() > t.bounds.min_r;
        if !pr_excess && !r_excess {
            break;
        }
        if pr_excess && t.alloc.reduce_private().is_some() {
            continue;
        }
        if r_excess && t.sr() > 0 && t.alloc.reduce_shared().is_some() {
            continue;
        }
        return Err(AllocError::TargetUnreachable {
            thread: 0,
            pr: t.pr(),
            r: t.pr() + t.sr(),
        });
    }
    Ok(t)
}

#[cfg(test)]
mod tests {
    use super::*;
    use regbal_ir::parse_func;

    fn hungry() -> Func {
        parse_func(
            "func h {\nbb0:\n v0 = mov 1\n v1 = mov 2\n v2 = mov 3\n ctx\n v3 = add v0, v1\n v3 = add v3, v2\n store scratch[v3+0], v3\n halt\n}",
        )
        .unwrap()
    }

    fn lean() -> Func {
        parse_func(
            "func l {\nbb0:\n v0 = mov 7\n ctx\n v1 = add v0, 1\n store scratch[v1+0], v1\n halt\n}",
        )
        .unwrap()
    }

    /// A loop whose boundary live ranges form an odd cycle (circular
    /// arcs around the back edge) plus a universal counter: the BIG
    /// needs 4 colors but every single CSB only carries 3 live values,
    /// so `MaxPR = 4 > MinPR = 3` and the greedy loop has real work.
    fn odd_cycle() -> Func {
        parse_func(
            "func c5 {\nbb0:\n v9 = mov 10\n v4 = mov 44\n jump bb1\nbb1:\n v0 = mov 5\n ctx\n store scratch[v4+0], v4\n v1 = mov 1\n ctx\n store scratch[v0+0], v0\n v2 = mov 2\n ctx\n store scratch[v1+0], v1\n v3 = mov 3\n ctx\n store scratch[v2+0], v2\n v4 = mov 4\n ctx\n store scratch[v3+0], v3\n v9 = sub v9, 1\n bne v9, 0, bb1, bb2\nbb2:\n halt\n}",
        )
        .unwrap()
    }

    #[test]
    fn allocates_within_budget_and_verifies() {
        let funcs = vec![hungry(), lean()];
        let alloc = allocate_threads(&funcs, 8).unwrap();
        assert!(alloc.total_registers() <= 8);
        assert_eq!(alloc.threads.len(), 2);
        crate::verify::check_threads(
            &alloc.threads.iter().map(|t| t.alloc.clone()).collect::<Vec<_>>(),
            8,
        )
        .unwrap();
    }

    #[test]
    fn hungry_thread_gets_more_registers() {
        let funcs = vec![hungry(), lean()];
        let alloc = allocate_threads(&funcs, 12).unwrap();
        let (h, l) = (&alloc.threads[0], &alloc.threads[1]);
        assert!(h.pr() + h.sr() > l.pr() + l.sr());
    }

    #[test]
    fn sgr_is_the_maximum_shared_count() {
        let funcs = vec![hungry(), lean(), lean()];
        let alloc = allocate_threads(&funcs, 16).unwrap();
        let max_sr = alloc.threads.iter().map(ThreadResult::sr).max().unwrap();
        assert_eq!(alloc.sgr(), max_sr);
        let sum_pr: usize = alloc.threads.iter().map(ThreadResult::pr).sum();
        assert_eq!(alloc.total_registers(), sum_pr + max_sr);
    }

    #[test]
    fn layout_matches_allocation() {
        let funcs = vec![hungry(), lean()];
        let alloc = allocate_threads(&funcs, 10).unwrap();
        let layout = alloc.layout();
        assert_eq!(
            layout.private_range(0).len(),
            alloc.threads[0].pr(),
        );
        assert_eq!(layout.shared_range().len(), alloc.sgr());
        // Banks are disjoint and within the file.
        assert!(layout.shared_range().end as usize <= 10);
    }

    #[test]
    fn infeasible_reports_residual_demand() {
        let funcs = vec![hungry(), hungry(), hungry()];
        match allocate_threads(&funcs, 6) {
            Err(AllocError::Infeasible { needed, available }) => {
                assert_eq!(available, 6);
                assert!(needed > 6);
            }
            other => panic!("expected infeasible, got {other:?}"),
        }
    }

    #[test]
    fn zero_cost_frontier_is_move_free_and_minimal_ish() {
        let t = zero_cost_frontier(&hungry());
        assert_eq!(t.moves(), 0);
        assert!(t.pr() >= t.bounds.min_pr);
        assert!(t.pr() + t.sr() >= t.bounds.min_r);
    }

    #[test]
    fn force_min_reaches_the_bounds() {
        let t = force_min_bounds(&hungry()).unwrap();
        assert_eq!(t.pr(), t.bounds.min_pr);
        assert_eq!(t.pr() + t.sr(), t.bounds.min_r);
        crate::verify::check_thread(&t.alloc).unwrap();
    }

    #[test]
    fn single_thread_gets_whole_file() {
        let funcs = vec![lean()];
        let alloc = allocate_threads(&funcs, 128).unwrap();
        assert!(alloc.total_registers() <= 128);
        assert_eq!(alloc.nreg, 128);
        let rewritten = alloc.rewrite_funcs(&funcs);
        assert_eq!(rewritten[0].num_vregs, 0);
    }

    #[test]
    fn empty_program_allocates_trivially() {
        let f = parse_func("func e {\nbb0:\n halt\n}").unwrap();
        let alloc = allocate_threads(std::slice::from_ref(&f), 4).unwrap();
        assert_eq!(alloc.total_registers(), 0);
        let out = alloc.rewrite_funcs(&[f]);
        assert_eq!(out[0].num_insts(), 1);
    }

    /// All four engine configurations on the same inputs.
    fn config_matrix() -> [EngineConfig; 4] {
        [
            EngineConfig::naive(),
            EngineConfig {
                memoize: true,
                parallel: false,
                ..EngineConfig::default()
            },
            EngineConfig {
                memoize: false,
                parallel: true,
                ..EngineConfig::default()
            },
            EngineConfig::default(),
        ]
    }

    fn per_thread(alloc: &MultiAllocation) -> Vec<(usize, usize, usize)> {
        alloc
            .threads
            .iter()
            .map(|t| (t.pr(), t.sr(), t.moves()))
            .collect()
    }

    #[test]
    fn all_configs_produce_identical_allocations() {
        let funcs = vec![odd_cycle(), hungry(), lean(), odd_cycle()];
        for nreg in [8, 10, 12, 16, 24] {
            let reference =
                allocate_threads_stats(&funcs, nreg, EngineConfig::naive()).map(|(a, _)| a);
            for config in config_matrix() {
                let got = allocate_threads_stats(&funcs, nreg, config).map(|(a, _)| a);
                match (&reference, &got) {
                    (Ok(a), Ok(b)) => {
                        assert_eq!(per_thread(a), per_thread(b), "{config:?} nreg={nreg}");
                        assert_eq!(
                            a.total_registers(),
                            b.total_registers(),
                            "{config:?} nreg={nreg}"
                        );
                    }
                    (Err(ea), Err(eb)) => assert_eq!(ea, eb, "{config:?} nreg={nreg}"),
                    _ => panic!("{config:?} nreg={nreg}: {reference:?} vs {got:?}"),
                }
            }
        }
    }

    #[test]
    fn memoized_engine_reports_cache_hits() {
        let funcs = vec![odd_cycle(), odd_cycle(), odd_cycle(), odd_cycle()];
        let config = EngineConfig {
            memoize: true,
            parallel: false,
            ..EngineConfig::default()
        };
        let (_, memo) = allocate_threads_stats(&funcs, 12, config).unwrap();
        let (_, naive) = allocate_threads_stats(&funcs, 12, EngineConfig::naive()).unwrap();
        assert_eq!(memo.iterations, naive.iterations);
        assert_eq!(naive.cached, 0, "naive engine never hits the cache");
        assert!(memo.iterations > 1, "workload too small to exercise the cache");
        assert!(memo.cached > 0, "stats: {memo:?}");
        assert!(
            memo.evaluated < naive.evaluated,
            "memoized {} vs naive {}",
            memo.evaluated,
            naive.evaluated
        );
        // Together they cover exactly the work the naive engine does.
        assert_eq!(memo.evaluated + memo.cached, naive.evaluated);
    }

    #[test]
    fn capped_engine_matches_uncapped_when_the_cap_is_not_hit() {
        let funcs = vec![odd_cycle(), odd_cycle(), odd_cycle(), odd_cycle()];
        let (reference, stats) =
            allocate_threads_stats(&funcs, 12, EngineConfig::uncapped()).unwrap();
        assert!(stats.iterations > 0, "workload too small to exercise the cap");
        let exact = EngineConfig {
            max_iterations: IterationBudget::Fixed(stats.iterations),
            ..EngineConfig::default()
        };
        let (capped, capped_stats) = allocate_threads_stats(&funcs, 12, exact).unwrap();
        assert_eq!(capped_stats.iterations, stats.iterations);
        assert_eq!(per_thread(&reference), per_thread(&capped));
    }

    #[test]
    fn exhausted_cap_reports_iteration_cap_hit() {
        let funcs = vec![odd_cycle(), odd_cycle(), odd_cycle(), odd_cycle()];
        let (_, stats) = allocate_threads_stats(&funcs, 12, EngineConfig::uncapped()).unwrap();
        assert!(stats.iterations > 1);
        let starved = EngineConfig {
            max_iterations: IterationBudget::Fixed(stats.iterations - 1),
            ..EngineConfig::default()
        };
        match allocate_threads_stats(&funcs, 12, starved).map(|(a, _)| a) {
            Err(AllocError::IterationCapHit { iterations, cap }) => {
                assert_eq!(cap, stats.iterations - 1);
                assert_eq!(iterations, cap);
            }
            other => panic!("expected IterationCapHit, got {other:?}"),
        }
    }

    #[test]
    fn adaptive_budget_scales_with_program_size() {
        // Tiny programs clamp to the floor, huge ones to the ceiling,
        // and mid-size ones scale linearly in ranges × threads.
        assert_eq!(
            IterationBudget::Adaptive.resolve(0, 0),
            Some(MIN_ITERATION_CAP)
        );
        assert_eq!(
            IterationBudget::Adaptive.resolve(3, 2),
            Some(MIN_ITERATION_CAP)
        );
        assert_eq!(
            IterationBudget::Adaptive.resolve(100, 4),
            Some(100 * 4 * ADAPTIVE_CAP_FACTOR)
        );
        assert_eq!(
            IterationBudget::Adaptive.resolve(usize::MAX, 8),
            Some(DEFAULT_ITERATION_CAP)
        );
        assert_eq!(IterationBudget::Fixed(7).resolve(100, 4), Some(7));
        assert_eq!(IterationBudget::Unbounded.resolve(100, 4), None);
    }

    #[test]
    fn infeasible_bound_matches_the_exhaustive_search_verdict() {
        // Three hungry threads against 6 registers are hopeless; the
        // demand floor fires on the first iteration and the reported
        // residual is exactly `max_j (Σ_{i≠j} MinPRᵢ + MinRⱼ)`.
        let funcs = vec![hungry(), hungry(), hungry()];
        let bounds: Vec<_> = funcs
            .iter()
            .map(|f| estimate_bounds(&ProgramInfo::compute(f)).bounds)
            .collect();
        let sum_min_pr: usize = bounds.iter().map(|b| b.min_pr).sum();
        let floor = bounds
            .iter()
            .map(|b| sum_min_pr - b.min_pr + b.min_r)
            .max()
            .unwrap();
        assert!(floor > 6);
        match allocate_threads_stats(&funcs, 6, EngineConfig::default()).map(|(a, _)| a) {
            Err(AllocError::Infeasible { needed, available }) => {
                assert_eq!(available, 6);
                assert_eq!(needed, floor);
            }
            other => panic!("expected infeasible, got {other:?}"),
        }
        // And a budget of zero still reports the cap, not the bound:
        // the ladder's starved-budget semantics depend on that order.
        let starved = EngineConfig {
            max_iterations: IterationBudget::Fixed(0),
            ..EngineConfig::default()
        };
        match allocate_threads_stats(&funcs, 6, starved).map(|(a, _)| a) {
            Err(AllocError::IterationCapHit { cap: 0, .. }) => {}
            other => panic!("expected IterationCapHit, got {other:?}"),
        }
    }

    #[test]
    fn stats_report_nonzero_phase_times() {
        let funcs = vec![hungry(), lean()];
        let (alloc, stats) =
            allocate_threads_stats(&funcs, 8, EngineConfig::default()).unwrap();
        assert!(alloc.total_registers() <= 8);
        assert!(stats.total >= stats.search);
        assert!(stats.total > Duration::ZERO);
        // The phases are disjoint parts of the run, and the initial
        // states are timed apart from the descent that starts from them.
        assert!(
            stats.init + stats.search + stats.verify <= stats.total,
            "{stats:?}"
        );
        assert!(stats.init > Duration::ZERO, "{stats:?}");
    }

    /// One trajectory asked every size in turn must give each the
    /// verdict a dedicated run would: same allocation bits on success,
    /// same error payload on failure. The sizes span the feasible
    /// range, the infeasible floor, and duplicate and unsorted sizes.
    #[test]
    fn sweep_matches_independent_runs_bit_for_bit() {
        let funcs = vec![odd_cycle(), hungry(), lean()];
        let mut trajectory = crate::SpillTrajectory::new(
            &funcs[..],
            EngineConfig::default(),
            crate::DEFAULT_SPILL_BASE,
        );
        for t in [128, 6, 32, 8, 32, 5, 0, 200, 10] {
            let got = trajectory.balanced(t);
            let solo = allocate_threads_stats(&funcs, t, EngineConfig::default()).map(|(a, _)| a);
            assert_eq!(
                format!("{got:?}"),
                format!("{solo:?}"),
                "trajectory verdict diverged from the dedicated run at nreg={t}"
            );
        }
    }

    #[test]
    fn results_land_in_index_order_at_any_width() {
        let serial = steal_map(17, 1, |i| i * i);
        for workers in [2, 4, 9, 32] {
            assert_eq!(steal_map(17, workers, |i| i * i), serial);
        }
        assert_eq!(steal_map(0, 4, |i| i), Vec::<usize>::new());
        assert_eq!(steal_map(1, 4, |i| i + 1), vec![1]);
    }

    #[test]
    fn every_index_is_computed_exactly_once() {
        let calls = AtomicUsize::new(0);
        let out = steal_map(100, 7, |i| {
            calls.fetch_add(1, Ordering::Relaxed);
            i
        });
        assert_eq!(calls.load(Ordering::Relaxed), 100);
        assert_eq!(out, (0..100).collect::<Vec<_>>());
    }

    /// A cap-bounded trajectory resolves each size exactly like a
    /// cap-bounded single run, including a zero budget (cap before
    /// floor) and a cap that lands mid-descent so some sizes succeed
    /// while tighter ones cap out.
    #[test]
    fn sweep_honors_iteration_caps_per_target() {
        let funcs = vec![odd_cycle(), hungry(), lean()];
        for cap in [0usize, 1, 2, 100] {
            let config = EngineConfig {
                max_iterations: IterationBudget::Fixed(cap),
                ..EngineConfig::default()
            };
            let mut trajectory =
                crate::SpillTrajectory::new(&funcs[..], config, crate::DEFAULT_SPILL_BASE);
            for t in 4..=40 {
                let got = trajectory.balanced(t);
                let solo = allocate_threads_stats(&funcs, t, config).map(|(a, _)| a);
                assert_eq!(
                    format!("{got:?}"),
                    format!("{solo:?}"),
                    "cap={cap} nreg={t}"
                );
            }
        }
    }
}

