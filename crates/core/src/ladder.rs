//! Graceful degradation: the cost-aware allocation fallback ladder.
//!
//! The paper's allocator reports failure when balancing cannot fit
//! `Σ PRᵢ + max SRᵢ` into the register file; a production compiler must
//! still emit *something*. This module walks a ladder of strategies,
//! from the paper's balanced allocator down to spilling every value,
//! recording each forced transition as a [`Degradation`] so callers
//! can tell a clean allocation from a degraded one:
//!
//! 1. **balanced** — the inter-thread greedy engine
//!    ([`crate::allocate_threads`]), no spills;
//! 2. **balanced-scratch** — balancing plus spilling, with the cheapest
//!    evictions packed into a small fast shared scratchpad and the
//!    overflow sent to memory (the balanced-spill verdict replayed
//!    through [`SpillTrajectory::scratch`]);
//! 3. **balanced-spill** — balancing plus last-resort spilling, all
//!    slots in memory ([`crate::allocate_threads_with_spill`]);
//! 4. **fixed-partition** — the stock compiler's model: each thread gets
//!    a private bank of `Nreg / Nthd` registers and a Chaitin allocator
//!    ([`chaitin::partition`]);
//! 5. **spill-all** — every original value lives in memory; only
//!    instruction-local temporaries occupy registers, so the same
//!    fixed partition converges immediately.
//!
//! The walk is *cost-aware*: before trying anything, the ladder builds
//! a [`PlannedRung`] plan that prices each rung with a static estimate
//! of the spill traffic it would add (excess register pressure times
//! the tier's latency) and sorts the rungs cheapest-first, with ties
//! keeping the canonical order above. Statically infeasible rungs — a
//! scratchpad of zero capacity — are dropped from the plan entirely,
//! so a zero-capacity configuration reproduces the classic four-rung
//! ladder bit for bit. Within a spilling rung, candidates are evicted
//! in ascending static-cost order ([`regbal_analysis::SpillCosts`])
//! and every pick's cost is recorded in the trail
//! ([`LadderAllocation::spill_picks`]).
//!
//! The walk is a query of the thread group's [`SpillTrajectory`]
//! ([`SpillTrajectory::ladder`]): the plan is priced from round 0's
//! analyses, the balanced rung reads the trajectory's balanced side,
//! and both spilling rungs read its hybrid side. No decision of the
//! spill loop can see where a slot lives, so the scratch rung replays
//! the hybrid verdict's picks into the scratchpad, and a failed
//! balanced-scratch rung means balanced-spill fails with the same
//! error, at no extra cost.
//!
//! Every rung is bounded: the balancing rungs inherit the trajectory's
//! [`EngineConfig::max_iterations`] budget, the Chaitin rungs carry
//! their own round caps. When a balancing rung fails with
//! [`AllocError::IterationCapHit`] — a starved budget, not a proof of
//! infeasibility — the ladder retries that rung once with a doubled
//! (still bounded) budget, on a trajectory of its own, before
//! descending, recording the attempt as a [`RungRetry`]. A rung fails
//! with a structured [`AllocError`] — never a panic — and the ladder
//! either returns the first rung that works (with the trail of
//! [`Degradation`]s and [`RungRetry`]s that led there) or a
//! [`LadderError`] carrying the full trail plus the final error.

use crate::chaitin::{self, Partition, THREAD_STRIDE};
use crate::engine::{EngineConfig, IterationBudget, MultiAllocation, ThreadSummary};
use crate::error::{AllocError, Degradation, LadderStep, RungRetry};
use crate::hybrid::{
    HybridAllocation, ScratchParams, SpillPick, SpillTrajectory, DEFAULT_SPILL_BASE, SPILL_SPACE,
};
use regbal_ir::{Func, VReg};

/// Byte stride between the spill areas of consecutive ladder rungs.
const RUNG_STRIDE: i64 = 0x1_0000;

/// Per-access latency (cycles) the rung plan charges a scratchpad slot.
const SCRATCH_EST_LATENCY: u64 = 4;

/// Per-access latency (cycles) the rung plan charges a memory slot.
const MEM_EST_LATENCY: u64 = 20;

/// The spill area base of one rung on a trajectory whose spill base is
/// `spill_base`. The balanced rung never spills, so the spilling rungs
/// pack from the base: a full ladder occupies exactly `3 * RUNG_STRIDE`
/// bytes above it, and callers allocating several thread groups over
/// one memory (e.g. per-PU) must give each trajectory a disjoint base.
/// The two balanced-spill rungs share the trajectory's own area — only
/// one rung's output ever executes, and the scratch rung's memory
/// overflow uses the same slot numbering as the plain spill rung (that
/// is what makes a zero-capacity scratchpad bit-identical to
/// balanced-spill).
fn rung_base(spill_base: i64, step: LadderStep) -> i64 {
    let rung = match step {
        LadderStep::Balanced | LadderStep::BalancedScratch | LadderStep::BalancedSpill => 0,
        LadderStep::FixedPartition => 1,
        LadderStep::SpillAll => 2,
    };
    spill_base + rung * RUNG_STRIDE
}

/// One rung of the cost-aware plan: the order the ladder will try it
/// in, plus the static cost estimate that put it there.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct PlannedRung {
    /// The rung.
    pub step: LadderStep,
    /// Estimated cycles of spill traffic the rung would add: excess
    /// register pressure times the latency of the tier its slots live
    /// in (zero for the spill-free balanced rung).
    pub estimate: u64,
}

/// Prices every statically feasible rung of `funcs`, whose threads'
/// `RegPmax` are `pressures`, with `scratch_capacity` scratchpad words,
/// and orders them cheapest first; ties keep the canonical
/// top-to-bottom ladder order. The balanced rung is never skipped (its
/// estimate is zero — it adds no spill code), and the plan always ends
/// with at least one guaranteed-to-terminate Chaitin rung, so the walk
/// cannot run dry.
fn plan_rungs(
    pressures: &[usize],
    funcs: &[Func],
    nreg: usize,
    scratch_capacity: usize,
) -> Vec<PlannedRung> {
    let total: u64 = pressures.iter().map(|&p| p as u64).sum();
    let excess = total.saturating_sub(nreg as u64);
    let nthd = funcs.len().max(1);
    let k = (nreg / nthd) as u64;
    let cap = scratch_capacity as u64;
    let scratch_est = excess.min(cap).saturating_mul(SCRATCH_EST_LATENCY)
        + excess.saturating_sub(cap).saturating_mul(MEM_EST_LATENCY);
    let spill_est = excess.saturating_mul(MEM_EST_LATENCY);
    let partition_est = pressures
        .iter()
        .map(|&p| (p as u64).saturating_sub(k))
        .sum::<u64>()
        .saturating_mul(MEM_EST_LATENCY);
    let spill_all_est = funcs
        .iter()
        .map(|f| f.num_vregs as u64)
        .sum::<u64>()
        .saturating_mul(MEM_EST_LATENCY);
    let mut plan = vec![PlannedRung {
        step: LadderStep::Balanced,
        estimate: 0,
    }];
    if scratch_capacity > 0 {
        plan.push(PlannedRung {
            step: LadderStep::BalancedScratch,
            estimate: scratch_est,
        });
    }
    plan.push(PlannedRung {
        step: LadderStep::BalancedSpill,
        estimate: spill_est,
    });
    plan.push(PlannedRung {
        step: LadderStep::FixedPartition,
        estimate: partition_est,
    });
    plan.push(PlannedRung {
        step: LadderStep::SpillAll,
        estimate: spill_all_est,
    });
    plan.sort_by_key(|r| (r.estimate, r.step));
    plan
}

/// How the ladder ultimately allocated the threads.
#[derive(Debug, Clone)]
pub enum LadderOutcome {
    /// A balancing rung succeeded: balanced (no spills and no picks),
    /// balanced-scratch or balanced-spill — the
    /// [`LadderAllocation::step`] distinguishes them, and
    /// [`HybridAllocation::scratch_spills`] says which slots landed in
    /// the scratchpad tier.
    Balanced(HybridAllocation),
    /// Per-thread Chaitin allocation over fixed `Nreg / Nthd` banks
    /// ([`chaitin::partition`]; the fixed-partition and spill-all rungs
    /// both produce this shape, the [`LadderAllocation::step`]
    /// distinguishes them).
    Partitioned(Partition),
}

/// A successful walk down the ladder: the first rung that produced a
/// verified allocation, plus the trail of degradations that led there.
#[derive(Debug, Clone)]
pub struct LadderAllocation {
    /// Size of the register file allocated against.
    pub nreg: usize,
    /// The rung that finally succeeded.
    pub step: LadderStep,
    /// The cost-aware plan that ordered the walk: every statically
    /// feasible rung with its estimate, cheapest first.
    pub plan: Vec<PlannedRung>,
    /// Forced transitions, in order (empty for a clean balanced run).
    pub degradations: Vec<Degradation>,
    /// Same-rung budget retries attempted along the way, in order.
    pub retries: Vec<RungRetry>,
    /// The allocation itself.
    pub outcome: LadderOutcome,
}

impl LadderAllocation {
    /// Number of forced fallback transitions (`0` means the primary
    /// balanced strategy succeeded directly).
    pub fn degraded_count(&self) -> usize {
        self.degradations.len()
    }

    /// The balancing allocation, when the ladder stopped on a
    /// balanced rung (used e.g. to derive sanitizer ownership maps).
    pub fn balanced_alloc(&self) -> Option<&MultiAllocation> {
        match &self.outcome {
            LadderOutcome::Balanced(h) => Some(&h.alloc),
            LadderOutcome::Partitioned(_) => None,
        }
    }

    /// Per-thread count of spill slots living in the scratchpad tier
    /// (all zero unless the balanced-scratch rung won).
    pub fn scratch_spills(&self) -> Vec<usize> {
        match &self.outcome {
            LadderOutcome::Balanced(h) => h.scratch_spills.clone(),
            LadderOutcome::Partitioned(p) => vec![0; p.funcs.len()],
        }
    }

    /// Every spill decision of the winning rung in eviction order,
    /// each with the static cost that chose it (empty for spill-free
    /// and partitioned outcomes, whose Chaitin spills are not
    /// cost-ordered).
    pub fn spill_picks(&self) -> &[SpillPick] {
        match &self.outcome {
            LadderOutcome::Balanced(h) => &h.picks,
            LadderOutcome::Partitioned(_) => &[],
        }
    }

    /// Physical registers consumed by the allocation.
    pub fn registers_used(&self) -> usize {
        match &self.outcome {
            LadderOutcome::Balanced(h) => h.alloc.total_registers(),
            LadderOutcome::Partitioned(p) => p.registers_used(),
        }
    }

    /// Per-thread `(PR, SR, moves, spills)` accounting.
    pub fn thread_summaries(&self) -> Vec<ThreadSummary> {
        match &self.outcome {
            LadderOutcome::Balanced(h) => h.thread_summaries(),
            LadderOutcome::Partitioned(p) => p.thread_summaries(),
        }
    }

    /// Rewrites every thread to physical registers.
    ///
    /// # Errors
    ///
    /// Returns [`AllocError::InvalidAllocation`] if the stored
    /// allocation does not match its own programs (an internal
    /// invariant violation — surfaced as an error, not a panic).
    pub fn rewrite(&self) -> Result<Vec<Func>, AllocError> {
        match &self.outcome {
            LadderOutcome::Balanced(h) => h.alloc.try_rewrite_funcs(&h.funcs),
            LadderOutcome::Partitioned(p) => Ok(p.funcs.clone()),
        }
    }
}

/// The ladder ran out of rungs: every strategy failed. Carries the full
/// degradation trail and the last rung's error.
#[derive(Debug, Clone)]
pub struct LadderError {
    /// The transitions that were attempted, in order.
    pub degradations: Vec<Degradation>,
    /// Same-rung budget retries attempted along the way, in order.
    pub retries: Vec<RungRetry>,
    /// The error of the final rung.
    pub error: AllocError,
}

impl std::fmt::Display for LadderError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "all ladder rungs failed: {}", self.error)?;
        for d in &self.degradations {
            write!(f, "; {d}")?;
        }
        Ok(())
    }
}

impl std::error::Error for LadderError {}

/// Allocates `funcs` over `nreg` registers, degrading gracefully
/// through the fallback ladder: a walk on a fresh trajectory under the
/// default engine configuration with spill slots above
/// [`DEFAULT_SPILL_BASE`], and the default [`ScratchParams`].
///
/// # Errors
///
/// Returns [`LadderError`] only when every rung fails (e.g. a register
/// file too small to hold even spill-address temporaries).
pub fn allocate_ladder(funcs: &[Func], nreg: usize) -> Result<LadderAllocation, LadderError> {
    SpillTrajectory::new(funcs, EngineConfig::default(), DEFAULT_SPILL_BASE)
        .ladder(nreg, &ScratchParams::default())
}

impl SpillTrajectory {
    /// Walks the fallback ladder at `nreg` registers with the
    /// balanced-scratch rung's scratchpad tier `scratch`, reading every
    /// balancing rung from this trajectory: the plan is priced from
    /// round 0's analyses, the balanced rung is
    /// [`SpillTrajectory::balanced`], balanced-scratch is
    /// [`SpillTrajectory::scratch`] and balanced-spill is
    /// [`SpillTrajectory::hybrid`]. A walk on a used trajectory returns
    /// exactly what one on a fresh trajectory does; it just skips the
    /// verdicts already memoized.
    ///
    /// A rung starved by the iteration budget is retried on a fresh
    /// trajectory with the doubled budget, one per distinct doubled
    /// budget and walk, so this trajectory never sees that budget.
    ///
    /// # Errors
    ///
    /// Returns [`LadderError`] when every rung fails.
    pub fn ladder(
        &mut self,
        nreg: usize,
        scratch: &ScratchParams,
    ) -> Result<LadderAllocation, LadderError> {
        let plan = plan_rungs(
            &self.first_pressures(),
            self.funcs(),
            nreg,
            scratch.capacity,
        );
        let mut retried: Vec<(usize, SpillTrajectory)> = Vec::new();
        let mut degradations: Vec<Degradation> = Vec::new();
        let mut retries: Vec<RungRetry> = Vec::new();
        let mut idx = 0;
        loop {
            let step = plan[idx].step;
            // Partial-rung retry: a starved budget is not a proof of
            // infeasibility, so before descending, re-run the rung once
            // with a doubled (still bounded) budget. A cap of zero is the
            // ladder's own "skip the balanced rungs" idiom and is honored
            // as-is.
            let result = match self.rung(nreg, scratch, step) {
                Err(AllocError::IterationCapHit { cap, .. })
                    if cap > 0
                        && matches!(
                            step,
                            LadderStep::Balanced
                                | LadderStep::BalancedScratch
                                | LadderStep::BalancedSpill
                        ) =>
                {
                    let retry_cap = cap.saturating_mul(2);
                    let pos = match retried.iter().position(|(c, _)| *c == retry_cap) {
                        Some(pos) => pos,
                        None => {
                            let engine = EngineConfig {
                                max_iterations: IterationBudget::Fixed(retry_cap),
                                ..self.config()
                            };
                            let trajectory = SpillTrajectory::new(
                                self.funcs().clone(),
                                engine,
                                self.spill_base(),
                            );
                            retried.push((retry_cap, trajectory));
                            retried.len() - 1
                        }
                    };
                    let result = retried[pos].1.rung(nreg, scratch, step);
                    retries.push(RungRetry {
                        step,
                        cap,
                        retry_cap,
                        recovered: result.is_ok(),
                    });
                    result
                }
                other => other,
            };
            match result {
                Ok(outcome) => {
                    return Ok(LadderAllocation {
                        nreg,
                        step,
                        plan,
                        degradations,
                        retries,
                        outcome,
                    })
                }
                Err(error) => {
                    idx += 1;
                    match plan.get(idx) {
                        Some(next) => {
                            degradations.push(Degradation {
                                from: step,
                                to: next.step,
                                reason: error,
                            });
                        }
                        None => {
                            return Err(LadderError {
                                degradations,
                                retries,
                                error,
                            })
                        }
                    }
                }
            }
        }
    }

    /// Runs one rung of the ladder on this trajectory.
    fn rung(
        &mut self,
        nreg: usize,
        scratch: &ScratchParams,
        step: LadderStep,
    ) -> Result<LadderOutcome, AllocError> {
        let base = rung_base(self.spill_base(), step);
        let hybrid = match step {
            LadderStep::Balanced => {
                let alloc = self.balanced(nreg)?;
                HybridAllocation::unspilled(self.funcs(), alloc)
            }
            LadderStep::BalancedScratch => self.scratch(nreg, scratch)?,
            LadderStep::BalancedSpill => self.hybrid(nreg)?,
            LadderStep::FixedPartition => {
                return chaitin::partition(self.funcs(), nreg, base + THREAD_STRIDE / 2)
                    .map(LadderOutcome::Partitioned)
            }
            LadderStep::SpillAll => {
                return spill_all(self.funcs(), nreg, base).map(LadderOutcome::Partitioned)
            }
        };
        Ok(LadderOutcome::Balanced(hybrid))
    }
}

/// The spill-all rung: every original value of thread `t` lives in its
/// own slot of the lower half of the thread's area, `base + t·0x1000`,
/// and the fixed partition allocates what is left, its residual Chaitin
/// spills in the upper half.
fn spill_all(funcs: &[Func], nreg: usize, base: i64) -> Result<Partition, AllocError> {
    let evicted: Vec<Func> = funcs
        .iter()
        .enumerate()
        .map(|(t, func)| {
            let area = base + (t as i64) * THREAD_STRIDE;
            let mut work = func.clone();
            for v in 0..func.num_vregs {
                chaitin::insert_spill_code(&mut work, VReg(v), area + (v as i64) * 4, SPILL_SPACE);
            }
            work
        })
        .collect();
    let mut partition = chaitin::partition(&evicted, nreg, base + THREAD_STRIDE / 2)?;
    for (spills, func) in partition.spills.iter_mut().zip(funcs) {
        *spills += func.num_vregs as usize;
    }
    Ok(partition)
}

#[cfg(test)]
mod tests {
    use super::*;
    use regbal_analysis::ProgramInfo;
    use regbal_ir::{parse_func, Reg};

    fn easy() -> Func {
        parse_func(
            "func e {\nbb0:\n v0 = mov 1\n ctx\n v1 = add v0, 1\n store scratch[v1+0], v0\n halt\n}",
        )
        .unwrap()
    }

    /// Five co-live values across a switch — MinPR 5 per thread.
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
    fn clean_run_stays_on_the_top_rung() {
        let funcs = vec![easy(), easy()];
        let a = allocate_ladder(&funcs, 16).unwrap();
        assert_eq!(a.step, LadderStep::Balanced);
        assert_eq!(a.degraded_count(), 0);
        assert!(a.registers_used() <= 16);
        let physical = a.rewrite().unwrap();
        for f in &physical {
            f.validate().unwrap();
        }
        let sums = a.thread_summaries();
        assert_eq!(sums.len(), 2);
        assert!(sums.iter().all(|s| s.spills == 0));
    }

    #[test]
    fn infeasible_budget_degrades_to_the_scratch_rung() {
        let funcs = vec![hot(), hot()];
        // 2 × MinPR = 10 > 8: balancing alone cannot fit, and the
        // scratchpad tier is the next-cheapest rung.
        let a = allocate_ladder(&funcs, 8).unwrap();
        assert_eq!(a.step, LadderStep::BalancedScratch);
        assert_eq!(a.degraded_count(), 1);
        assert_eq!(a.degradations[0].from, LadderStep::Balanced);
        assert_eq!(a.degradations[0].to, LadderStep::BalancedScratch);
        assert!(matches!(
            a.degradations[0].reason,
            AllocError::Infeasible { .. }
        ));
        assert!(a.thread_summaries().iter().any(|s| s.spills > 0));
        // Few spills, generous default capacity: every slot is fast.
        assert!(a.scratch_spills().iter().sum::<usize>() > 0);
        assert!(a.spill_picks().iter().all(|p| p.to_scratch));
        for f in a.rewrite().unwrap() {
            f.validate().unwrap();
        }
    }

    #[test]
    fn zero_capacity_config_reproduces_the_four_rung_ladder() {
        let funcs = [hot(), hot()];
        let scratch = ScratchParams {
            capacity: 0,
            ..ScratchParams::default()
        };
        let a = SpillTrajectory::new(&funcs[..], EngineConfig::default(), DEFAULT_SPILL_BASE)
            .ladder(8, &scratch)
            .unwrap();
        assert_eq!(a.step, LadderStep::BalancedSpill);
        assert_eq!(a.degradations[0].to, LadderStep::BalancedSpill);
        assert!(a.plan.iter().all(|r| r.step != LadderStep::BalancedScratch));
        assert!(a.scratch_spills().iter().all(|&s| s == 0));
        for f in a.rewrite().unwrap() {
            f.validate().unwrap();
        }
    }

    #[test]
    fn the_plan_prices_rungs_and_orders_cheapest_first() {
        let funcs = vec![hot(), hot()];
        let a = allocate_ladder(&funcs, 8).unwrap();
        // Every rung planned, cheapest first, canonical order on ties.
        assert_eq!(a.plan.len(), 5);
        assert_eq!(a.plan[0].step, LadderStep::Balanced);
        assert_eq!(a.plan[0].estimate, 0);
        for w in a.plan.windows(2) {
            assert!((w[0].estimate, w[0].step) <= (w[1].estimate, w[1].step));
        }
        // The excess pressure fits the default scratch capacity, so
        // the scratch tier is priced at 4 cycles a slot against 20
        // for memory.
        let excess: u64 = funcs
            .iter()
            .map(|f| ProgramInfo::compute(f).pressure.regp_max as u64)
            .sum::<u64>()
            - 8;
        assert!(excess > 0 && excess <= crate::DEFAULT_SCRATCH_CAPACITY as u64);
        let est = |step: LadderStep| a.plan.iter().find(|r| r.step == step).unwrap().estimate;
        assert_eq!(est(LadderStep::BalancedScratch), excess * 4);
        assert_eq!(est(LadderStep::BalancedSpill), excess * 20);
        assert!(est(LadderStep::BalancedScratch) < est(LadderStep::BalancedSpill));
    }

    #[test]
    fn starved_iteration_budget_falls_through_to_partitioning() {
        let funcs = vec![hot(), hot()];
        let engine = EngineConfig {
            max_iterations: IterationBudget::Fixed(0),
            ..EngineConfig::default()
        };
        // A file just below the zero-work demand forces reduction
        // steps; cap 0 starves both balanced rungs, while Chaitin
        // doesn't iterate the greedy engine and still delivers.
        let zero_work = allocate_ladder(&funcs, 64).unwrap();
        let nreg = zero_work.registers_used() - 1;
        let a = SpillTrajectory::new(&funcs[..], engine, DEFAULT_SPILL_BASE)
            .ladder(nreg, &ScratchParams::default())
            .unwrap();
        assert_eq!(a.step, LadderStep::FixedPartition);
        assert_eq!(a.degraded_count(), 3);
        assert!(a
            .degradations
            .iter()
            .all(|d| matches!(d.reason, AllocError::IterationCapHit { .. })));
        // A zero budget is the deliberate "skip the balanced rungs"
        // idiom: doubling zero is still zero, so no retry is recorded.
        assert!(a.retries.is_empty());
        let LadderOutcome::Partitioned(p) = &a.outcome else {
            panic!("partitioned outcome expected");
        };
        assert_eq!(p.k, nreg / funcs.len());
        for (f, bank) in a.rewrite().unwrap().iter().zip(p.banks()) {
            f.validate().unwrap();
            assert!(f
                .regs()
                .all(|r| matches!(r, Reg::Phys(q) if bank.contains(&q.0))));
        }
    }

    /// A loop whose boundary live ranges form an odd cycle plus a
    /// universal counter (`MaxPR > MinPR`): the greedy loop has real
    /// reduction work to do, so iteration budgets actually bind.
    fn odd_cycle() -> Func {
        parse_func(
            "func c5 {\nbb0:\n v9 = mov 10\n v4 = mov 44\n jump bb1\nbb1:\n v0 = mov 5\n ctx\n store scratch[v4+0], v4\n v1 = mov 1\n ctx\n store scratch[v0+0], v0\n v2 = mov 2\n ctx\n store scratch[v1+0], v1\n v3 = mov 3\n ctx\n store scratch[v2+0], v2\n v4 = mov 4\n ctx\n store scratch[v3+0], v3\n v9 = sub v9, 1\n bne v9, 0, bb1, bb2\nbb2:\n halt\n}",
        )
        .unwrap()
    }

    /// A register-file size where balancing `funcs` succeeds but needs
    /// at least `min_iters` committed reduction steps, plus that
    /// step count.
    fn feasible_size_with_work(funcs: &[Func], min_iters: usize) -> (usize, usize) {
        use crate::engine::allocate_threads_stats;
        for nreg in (8..=64).rev() {
            if let Ok((_, stats)) = allocate_threads_stats(funcs, nreg, EngineConfig::uncapped())
            {
                if stats.iterations >= min_iters {
                    return (nreg, stats.iterations);
                }
            }
        }
        panic!("no feasible size with >= {min_iters} iterations");
    }

    #[test]
    fn a_starved_budget_recovers_via_the_doubled_retry() {
        let funcs = vec![odd_cycle(), odd_cycle(), odd_cycle(), odd_cycle()];
        let (nreg, iters) = feasible_size_with_work(&funcs, 2);
        // Half the needed budget starves the first attempt; the
        // doubled retry covers the full descent, so the ladder settles
        // on the top rung with no degradations — only a retry record.
        let cap = iters.div_ceil(2);
        let engine = EngineConfig {
            max_iterations: IterationBudget::Fixed(cap),
            ..EngineConfig::default()
        };
        let a = SpillTrajectory::new(&funcs[..], engine, DEFAULT_SPILL_BASE)
            .ladder(nreg, &ScratchParams::default())
            .unwrap();
        assert_eq!(a.step, LadderStep::Balanced);
        assert_eq!(a.degraded_count(), 0);
        assert_eq!(
            a.retries,
            vec![RungRetry {
                step: LadderStep::Balanced,
                cap,
                retry_cap: cap * 2,
                recovered: true,
            }]
        );
    }

    #[test]
    fn an_unrecoverable_budget_retries_each_balanced_rung_once() {
        let funcs = vec![odd_cycle(), odd_cycle(), odd_cycle(), odd_cycle()];
        let (nreg, iters) = feasible_size_with_work(&funcs, 3);
        assert!(iters > 2);
        // A budget of one starves both attempts of all three balanced
        // rungs (the doubled retry cap of two is still below the
        // need), so the ladder descends to partitioning with three
        // failed retries on record, and the degradation reasons carry
        // the retry cap.
        let engine = EngineConfig {
            max_iterations: IterationBudget::Fixed(1),
            ..EngineConfig::default()
        };
        let a = SpillTrajectory::new(&funcs[..], engine, DEFAULT_SPILL_BASE)
            .ladder(nreg, &ScratchParams::default())
            .unwrap();
        assert_eq!(a.step, LadderStep::FixedPartition);
        assert_eq!(
            a.retries
                .iter()
                .map(|r| (r.step, r.cap, r.retry_cap, r.recovered))
                .collect::<Vec<_>>(),
            vec![
                (LadderStep::Balanced, 1, 2, false),
                (LadderStep::BalancedScratch, 1, 2, false),
                (LadderStep::BalancedSpill, 1, 2, false),
            ]
        );
        assert!(a
            .degradations
            .iter()
            .take(3)
            .all(|d| matches!(d.reason, AllocError::IterationCapHit { cap: 2, .. })));
    }

    #[test]
    fn a_walk_on_a_used_trajectory_reproduces_a_fresh_walk() {
        let funcs = vec![hot(), hot()];
        // Infeasible for pure balancing at 8 registers: the ladder
        // lands on balanced-scratch either way.
        let plain = allocate_ladder(&funcs, 8).unwrap();
        assert_eq!(plain.step, LadderStep::BalancedScratch);
        let mut used =
            SpillTrajectory::new(&funcs[..], EngineConfig::default(), DEFAULT_SPILL_BASE);
        let _ = used.balanced(8);
        let _ = used.hybrid(8);
        let seeded = used.ladder(8, &ScratchParams::default()).unwrap();
        assert_eq!(seeded.step, plain.step);
        assert_eq!(seeded.degraded_count(), plain.degraded_count());
        assert_eq!(seeded.rewrite().unwrap(), plain.rewrite().unwrap());
    }

    #[test]
    fn spill_all_rung_evicts_everything_and_verifies() {
        let funcs = vec![hot(), hot()];
        let p = spill_all(
            &funcs,
            16,
            rung_base(DEFAULT_SPILL_BASE, LadderStep::SpillAll),
        )
        .unwrap();
        assert_eq!(p.k, 8);
        // Every original value was evicted.
        assert!(p.spills.iter().all(|&s| s >= hot().num_vregs as usize));
        for (f, bank) in p.funcs.iter().zip(p.banks()) {
            f.validate().unwrap();
            assert!(f
                .regs()
                .all(|r| matches!(r, Reg::Phys(q) if bank.contains(&q.0))));
        }
    }

    #[test]
    fn exhausted_ladder_reports_the_full_trail() {
        let funcs = vec![hot(), hot()];
        // One register per thread cannot even hold a spill address plus
        // a value: every rung fails.
        let err = allocate_ladder(&funcs, 2).unwrap_err();
        assert_eq!(err.degradations.len(), 4);
        let steps: Vec<_> = err.degradations.iter().map(|d| (d.from, d.to)).collect();
        assert_eq!(
            steps,
            vec![
                (LadderStep::Balanced, LadderStep::BalancedScratch),
                (LadderStep::BalancedScratch, LadderStep::BalancedSpill),
                (LadderStep::BalancedSpill, LadderStep::FixedPartition),
                (LadderStep::FixedPartition, LadderStep::SpillAll),
            ]
        );
        let text = err.to_string();
        assert!(text.contains("all ladder rungs failed"), "{text}");
    }

    #[test]
    fn spilling_rung_areas_are_disjoint_and_packed() {
        let base = DEFAULT_SPILL_BASE;
        let bases: Vec<i64> = [
            LadderStep::BalancedSpill,
            LadderStep::FixedPartition,
            LadderStep::SpillAll,
        ]
        .iter()
        .map(|&s| rung_base(base, s))
        .collect();
        for w in bases.windows(2) {
            assert_eq!(w[1] - w[0], RUNG_STRIDE);
        }
        assert_eq!(bases[0], base, "first spilling rung packs at the base");
        // The scratch rung's memory overflow shares the plain spill
        // rung's area (only one rung's output ever executes), keeping
        // the ladder's footprint at three strides.
        assert_eq!(
            rung_base(base, LadderStep::BalancedScratch),
            rung_base(base, LadderStep::BalancedSpill)
        );
    }
}
