//! Pluggable allocation strategies behind one [`Strategy`] trait.
//!
//! Each strategy takes the virtual-register thread programs of one PU
//! and a register-file size, and produces physical-register code plus
//! per-thread allocation statistics:
//!
//! * [`FixedPartition`] — the paper's stock-compiler baseline
//!   ([`regbal_core::chaitin::partition`]): the file is split into
//!   `Nreg / Nthd` equal private banks (32 each on the IXP1200's 128)
//!   and each thread is allocated independently with the Chaitin
//!   spiller.
//! * [`Balanced`] — the paper's contribution (Figs. 8/10 via
//!   [`regbal_core::allocate_threads`]): private/shared balancing with
//!   live-range splitting, no spilling; reports infeasibility when even
//!   maximal sharing cannot fit.
//! * [`BalancedSpill`] — the hybrid
//!   ([`regbal_core::SpillTrajectory::hybrid`] at the PU's spill
//!   base): balancing first, spilling the cheapest ranges of the
//!   most demanding thread only when sharing alone cannot fit.
//! * [`BalancedScratch`] — the hybrid with the scratchpad spill tier
//!   (the `balanced-spill` verdict replayed through
//!   [`regbal_core::SpillTrajectory::scratch`]): the cheapest
//!   spills are packed into a small per-PU area of the fast shared
//!   scratchpad ([`regbal_ir::MemSpace::Spad`], ~4 cycles) and only the
//!   overflow pays full memory latency.
//! * [`Ladder`] — the graceful-degradation pipeline
//!   ([`regbal_core::SpillTrajectory::ladder`]): never reports
//!   infeasibility while any fallback rung can still deliver; each
//!   forced transition is counted in [`CompiledPu::degraded`].
//!
//! Each strategy maps itself to allocator calls in one place,
//! [`Strategy::compile_cached`], making one lookup on its PU's column
//! of the sweep's [`AllocCache`] ([`AllocCache::column`], built over
//! the PU's threads at the PU's spill base): the balanced verdict, the
//! hybrid verdict, its scratch replay, or the ladder's walk.
//! [`Strategy::compile`] runs that same code over an empty cache, where
//! every lookup is a dedicated run.

use crate::cache::{AllocCache, SweepColumn};
use regbal_core::chaitin::{self, Partition};
use regbal_core::{
    Degradation, HybridAllocation, LadderAllocation, LadderOutcome, LadderStep, MultiAllocation,
    RungRetry, ScratchParams, ThreadSummary, DEFAULT_SCRATCH_CAPACITY,
};
use regbal_ir::Func;
use regbal_sim::SanitizerConfig;
use std::sync::Arc;

/// Spill area of the fixed-partition baseline (per compiled thread,
/// `0x1000` bytes apart; below the per-PU balancing areas and above the
/// workload tables).
const FIXED_SPILL_BASE: i64 = 0x6_0000;

/// Base of the per-PU spill region shared by the balancing strategies:
/// a PU's column is built at its base, so the hybrid
/// (`balanced-spill`) spills directly there, and the ladder packs its
/// spilling rungs from there too. The ladder's balanced-spill rung
/// therefore produces byte-identical code to the `balanced-spill`
/// strategy on the same PU, and the sweep's allocation cache shares
/// one hybrid verdict between the two.
const PU_SPILL_BASE: i64 = 0x8_0000;

/// Bytes of spill region reserved per PU. A full ladder packs its
/// three spilling rungs into `0x3_0000` bytes (`0x1_0000` each), so two
/// PUs end at `0xE_0000`, below the 1 MiB SRAM ceiling.
const PU_SPILL_STRIDE: i64 = 0x3_0000;

/// The spill region base of one PU (shared by `balanced-spill`,
/// `balanced-scratch` and the ladder; see [`PU_SPILL_BASE`]).
fn pu_spill_base(pu: usize) -> i64 {
    PU_SPILL_BASE + (pu as i64) * PU_SPILL_STRIDE
}

/// Bytes of scratchpad reserved per PU. The default capacity of
/// [`DEFAULT_SCRATCH_CAPACITY`] words needs 64 bytes; the stride
/// leaves headroom and keeps the areas page-aligned within the 16 KiB
/// default scratchpad.
const PU_SPAD_STRIDE: i64 = 0x100;

/// The scratchpad spill area of one PU (shared by `balanced-scratch`
/// and the ladder's balanced-scratch rung, so the rung compiles exactly
/// what the strategy compiles on the same PU).
fn pu_spad_base(pu: usize) -> i64 {
    (pu as i64) * PU_SPAD_STRIDE
}

/// The scratchpad tier of one PU's spilling strategies.
fn pu_scratch_params(pu: usize) -> ScratchParams {
    ScratchParams {
        base: pu_spad_base(pu),
        capacity: DEFAULT_SCRATCH_CAPACITY,
    }
}

/// The column of PU `pu` of the sweep in `ctx`: the PU's threads at
/// the PU's spill base.
fn pu_column(ctx: &CompileCtx<'_>, funcs: &[Func], pu: usize) -> Arc<SweepColumn> {
    ctx.cache.column(ctx.scenario, pu, funcs, pu_spill_base(pu))
}

/// The ladder trail of one PU's compilation: which rung settled, the
/// forced transitions that led there, and any same-rung budget
/// retries. Only the [`Ladder`] strategy records one; it feeds the
/// per-PU degradation telemetry of `BENCH_EVAL.json` and the CLI's
/// `regbal alloc --ladder --json` output.
#[derive(Debug, Clone, PartialEq)]
pub struct PuLadderTrail {
    /// The rung that finally delivered code.
    pub step: LadderStep,
    /// Forced transitions, in order (empty for a clean balanced run).
    pub degradations: Vec<Degradation>,
    /// Same-rung budget retries, in order.
    pub retries: Vec<RungRetry>,
}

impl From<&LadderAllocation> for PuLadderTrail {
    fn from(alloc: &LadderAllocation) -> PuLadderTrail {
        PuLadderTrail {
            step: alloc.step,
            degradations: alloc.degradations.clone(),
            retries: alloc.retries.clone(),
        }
    }
}

/// The physical-register programs of one PU plus their statistics.
#[derive(Debug, Clone)]
pub struct CompiledPu {
    /// One physical-register function per thread, in input order.
    pub funcs: Vec<Func>,
    /// Per-thread allocation statistics (for the fixed partition, `pr`
    /// is the bank size and `sr` is 0).
    pub threads: Vec<ThreadSummary>,
    /// Physical registers the allocation consumes
    /// (`Σ PRᵢ + max SRᵢ`, or the whole partition for the baseline).
    pub registers_used: usize,
    /// The bank layout and fragment ownership the strategy promises,
    /// ready to arm the simulator's register-clobber sanitizer.
    pub sanitizer: SanitizerConfig,
    /// Fallback-ladder transitions taken to produce this code (always
    /// 0 for the single-rung strategies; the [`Ladder`] strategy
    /// reports its [`regbal_core::LadderAllocation::degraded_count`]).
    pub degraded: usize,
    /// The full per-PU ladder trail (settled rung, degradation
    /// reasons, retries) — `None` for the single-rung strategies.
    pub ladder: Option<PuLadderTrail>,
    /// How many of the PU's spill slots live in the fast scratchpad
    /// tier (a subset of [`CompiledPu::spills`]; zero for strategies
    /// without the tier).
    pub scratch_spills: usize,
}

impl CompiledPu {
    /// Total moves across the PU's threads.
    pub fn moves(&self) -> usize {
        self.threads.iter().map(|t| t.moves).sum()
    }

    /// Total spilled ranges across the PU's threads.
    pub fn spills(&self) -> usize {
        self.threads.iter().map(|t| t.spills).sum()
    }
}

/// The sanitizer configuration of a balancing allocation: the bank
/// layout straight from the [`MultiAllocation`] plus its
/// fragment-ownership tags. Public because the allocation server arms
/// the same layouts when it verifies served code under simulation.
pub fn balanced_sanitizer(alloc: &MultiAllocation) -> SanitizerConfig {
    let layout = alloc.layout();
    let mut cfg = SanitizerConfig::with_layout(
        (0..alloc.threads.len())
            .map(|t| layout.private_range(t))
            .collect(),
        Some(layout.shared_range()),
    );
    for (t, r, label) in alloc.fragment_tags() {
        cfg.fragments.insert((t, r), label);
    }
    cfg
}

/// The shared state a sweep hands to [`Strategy::compile_cached`]: the
/// allocation cache plus the scenario's index in the suite (the cache
/// key component that distinguishes identical `(pu, nreg)` pairs of
/// different scenarios).
pub struct CompileCtx<'a> {
    /// Allocation verdicts shared across the sweep's cells.
    pub cache: &'a AllocCache,
    /// Index of the scenario being compiled within its suite.
    pub scenario: usize,
}

/// An allocation strategy the harness can evaluate. `Sync` so the
/// sharded sweep can drive one strategy object from many workers
/// (every shipped strategy is a stateless unit struct).
pub trait Strategy: Sync {
    /// Stable identifier used in reports (`fixed-partition`,
    /// `balanced`, `balanced-spill`).
    fn name(&self) -> &'static str;

    /// Compiles the threads of processing unit `pu` against a register
    /// file of `nreg` registers, reading every allocation verdict from
    /// the sweep's shared cache in `ctx`. Must return exactly what a run
    /// over an empty cache returns — caching is a speedup, never a
    /// behaviour change.
    ///
    /// # Errors
    ///
    /// Returns a human-readable reason when the strategy cannot produce
    /// code at this file size (e.g. balancing alone is infeasible).
    fn compile_cached(
        &self,
        funcs: &[Func],
        nreg: usize,
        pu: usize,
        ctx: &CompileCtx<'_>,
    ) -> Result<CompiledPu, String>;

    /// [`Strategy::compile_cached`] over an empty cache: every verdict
    /// is a dedicated run.
    ///
    /// # Errors
    ///
    /// As [`Strategy::compile_cached`].
    fn compile(&self, funcs: &[Func], nreg: usize, pu: usize) -> Result<CompiledPu, String> {
        let ctx = CompileCtx {
            cache: &AllocCache::new(Vec::new()),
            scenario: 0,
        };
        self.compile_cached(funcs, nreg, pu, &ctx)
    }
}

/// The paper's baseline: fixed `Nreg / Nthd` private banks, Chaitin
/// spilling within each (32 registers per thread at `Nreg` = 128).
#[derive(Debug, Clone, Copy, Default)]
pub struct FixedPartition;

/// The paper's balancing allocator (no spilling).
#[derive(Debug, Clone, Copy, Default)]
pub struct Balanced;

/// Balancing with last-resort spilling.
#[derive(Debug, Clone, Copy, Default)]
pub struct BalancedSpill;

impl Strategy for FixedPartition {
    fn name(&self) -> &'static str {
        "fixed-partition"
    }

    fn compile_cached(
        &self,
        funcs: &[Func],
        nreg: usize,
        pu: usize,
        _ctx: &CompileCtx<'_>,
    ) -> Result<CompiledPu, String> {
        let spill_base = FIXED_SPILL_BASE + ((pu * funcs.len()) as i64) * 0x1000;
        let partition = chaitin::partition(funcs, nreg, spill_base).map_err(|e| e.to_string())?;
        Ok(CompiledPu {
            sanitizer: partition_sanitizer(&partition),
            threads: partition.thread_summaries(),
            registers_used: partition.k * partition.funcs.len(),
            funcs: partition.funcs,
            degraded: 0,
            ladder: None,
            scratch_spills: 0,
        })
    }
}

/// The sanitizer configuration of a fixed partition: each thread's
/// equal private bank, nothing shared.
fn partition_sanitizer(partition: &Partition) -> SanitizerConfig {
    SanitizerConfig::with_layout(partition.banks(), None)
}

/// Packages a balanced-engine allocation as a [`CompiledPu`].
fn balanced_pu(alloc: &MultiAllocation, funcs: &[Func]) -> CompiledPu {
    CompiledPu {
        sanitizer: balanced_sanitizer(alloc),
        funcs: alloc.rewrite_funcs(funcs),
        threads: alloc.thread_summaries(),
        registers_used: alloc.total_registers(),
        degraded: 0,
        ladder: None,
        scratch_spills: 0,
    }
}

/// Packages a hybrid allocation as a [`CompiledPu`].
fn hybrid_pu(hybrid: &HybridAllocation) -> CompiledPu {
    CompiledPu {
        sanitizer: balanced_sanitizer(&hybrid.alloc),
        funcs: hybrid.rewrite(),
        threads: hybrid.thread_summaries(),
        registers_used: hybrid.alloc.total_registers(),
        degraded: 0,
        ladder: None,
        scratch_spills: hybrid.scratch_spills.iter().sum(),
    }
}

impl Strategy for Balanced {
    fn name(&self) -> &'static str {
        "balanced"
    }

    fn compile_cached(
        &self,
        funcs: &[Func],
        nreg: usize,
        pu: usize,
        ctx: &CompileCtx<'_>,
    ) -> Result<CompiledPu, String> {
        let alloc = pu_column(ctx, funcs, pu)
            .balanced(nreg)
            .map_err(|e| e.to_string())?;
        Ok(balanced_pu(&alloc, funcs))
    }
}

impl Strategy for BalancedSpill {
    fn name(&self) -> &'static str {
        "balanced-spill"
    }

    fn compile_cached(
        &self,
        funcs: &[Func],
        nreg: usize,
        pu: usize,
        ctx: &CompileCtx<'_>,
    ) -> Result<CompiledPu, String> {
        let hybrid = pu_column(ctx, funcs, pu)
            .hybrid(nreg)
            .map_err(|e| e.to_string())?;
        Ok(hybrid_pu(&hybrid))
    }
}

/// Balancing with the scratchpad spill tier: the cheapest spills land
/// in the PU's fast scratchpad area, the overflow in memory.
#[derive(Debug, Clone, Copy, Default)]
pub struct BalancedScratch;

impl Strategy for BalancedScratch {
    fn name(&self) -> &'static str {
        "balanced-scratch"
    }

    fn compile_cached(
        &self,
        funcs: &[Func],
        nreg: usize,
        pu: usize,
        ctx: &CompileCtx<'_>,
    ) -> Result<CompiledPu, String> {
        let hybrid = pu_column(ctx, funcs, pu)
            .scratch(nreg, &pu_scratch_params(pu))
            .map_err(|e| e.to_string())?;
        Ok(hybrid_pu(&hybrid))
    }
}

/// The graceful-degradation pipeline: balanced, then the cheapest
/// feasible spilling rung (cost-aware), down to spill-all.
#[derive(Debug, Clone, Copy, Default)]
pub struct Ladder;

/// The sanitizer configuration of a settled ladder allocation: the
/// balanced layout when any balancing rung delivered, the equal-bank
/// partition when the ladder fell to a Chaitin rung. Public for the
/// same reason as [`balanced_sanitizer`].
pub fn ladder_sanitizer(alloc: &LadderAllocation) -> SanitizerConfig {
    match &alloc.outcome {
        LadderOutcome::Balanced(hybrid) => balanced_sanitizer(&hybrid.alloc),
        LadderOutcome::Partitioned(partition) => partition_sanitizer(partition),
    }
}

/// Packages a settled ladder allocation as a [`CompiledPu`].
fn ladder_pu(alloc: &LadderAllocation) -> Result<CompiledPu, String> {
    Ok(CompiledPu {
        funcs: alloc.rewrite().map_err(|e| e.to_string())?,
        registers_used: alloc.registers_used(),
        threads: alloc.thread_summaries(),
        sanitizer: ladder_sanitizer(alloc),
        degraded: alloc.degraded_count(),
        ladder: Some(PuLadderTrail::from(alloc)),
        scratch_spills: alloc.scratch_spills().iter().sum(),
    })
}

impl Strategy for Ladder {
    fn name(&self) -> &'static str {
        "ladder"
    }

    fn compile_cached(
        &self,
        funcs: &[Func],
        nreg: usize,
        pu: usize,
        ctx: &CompileCtx<'_>,
    ) -> Result<CompiledPu, String> {
        let alloc = pu_column(ctx, funcs, pu)
            .ladder(nreg, &pu_scratch_params(pu))
            .map_err(|e| e.to_string())?;
        ladder_pu(&alloc)
    }
}

/// The strategies of the study, in report order.
pub fn all_strategies() -> Vec<Box<dyn Strategy>> {
    vec![
        Box::new(FixedPartition),
        Box::new(Balanced),
        Box::new(BalancedSpill),
        Box::new(BalancedScratch),
        Box::new(Ladder),
    ]
}

#[cfg(test)]
mod tests {
    use super::*;
    use regbal_workloads::{Kernel, Workload};

    fn pu_funcs() -> Vec<Func> {
        [Kernel::Md5, Kernel::Md5, Kernel::Fir2dim, Kernel::Fir2dim]
            .iter()
            .enumerate()
            .map(|(slot, &k)| Workload::new(k, slot, 4).func)
            .collect()
    }

    #[test]
    fn fixed_partition_spills_hungry_kernels_in_a_tight_file() {
        let funcs = pu_funcs();
        // 12 registers per thread: md5 (RegPmax 14) must spill.
        let c = FixedPartition.compile(&funcs, 48, 0).unwrap();
        assert!(c.spills() > 0, "md5 must spill at 12 regs/thread");
        assert_eq!(c.moves(), 0);
        assert_eq!(c.registers_used, 48);
        // 32 per thread: nothing spills.
        let wide = FixedPartition.compile(&funcs, 128, 0).unwrap();
        assert_eq!(wide.spills(), 0);
    }

    #[test]
    fn balanced_fits_where_the_partition_spills() {
        let funcs = pu_funcs();
        let c = Balanced.compile(&funcs, 48, 0).unwrap();
        assert_eq!(c.spills(), 0);
        assert!(c.registers_used <= 48);
        for f in &c.funcs {
            f.validate().unwrap();
        }
    }

    #[test]
    fn balanced_reports_infeasibility_and_hybrid_rescues_it() {
        let funcs = pu_funcs();
        let err = Balanced.compile(&funcs, 32, 0).unwrap_err();
        assert!(err.contains("cannot fit"), "{err}");
        let c = BalancedSpill.compile(&funcs, 32, 0).unwrap();
        assert!(c.spills() > 0);
        assert!(c.registers_used <= 32);
    }

    #[test]
    fn compiled_sanitizer_configs_describe_the_banks() {
        let funcs = pu_funcs();
        let fixed = FixedPartition.compile(&funcs, 128, 0).unwrap();
        assert_eq!(fixed.sanitizer.private_ranges.len(), 4);
        assert_eq!(fixed.sanitizer.private_ranges[1], 32..64);
        assert!(fixed.sanitizer.shared_range.is_none());
        assert!(fixed.sanitizer.fragments.is_empty());

        let balanced = Balanced.compile(&funcs, 48, 0).unwrap();
        assert_eq!(balanced.sanitizer.private_ranges.len(), 4);
        assert!(balanced.sanitizer.shared_range.is_some());
        assert!(
            !balanced.sanitizer.fragments.is_empty(),
            "fragment tags must ride along for diagnostics"
        );
    }

    #[test]
    fn ladder_is_clean_where_balanced_fits() {
        let funcs = pu_funcs();
        let ladder = Ladder.compile(&funcs, 48, 0).unwrap();
        assert_eq!(ladder.degraded, 0, "no fallback needed at 48");
        let balanced = Balanced.compile(&funcs, 48, 0).unwrap();
        assert_eq!(ladder.threads, balanced.threads, "top rung IS balanced");
        assert_eq!(ladder.funcs, balanced.funcs);
    }

    #[test]
    fn ladder_degrades_instead_of_failing() {
        let funcs = pu_funcs();
        // Balanced alone is infeasible at 32 — the ladder reports a
        // degradation, never an error.
        assert!(Balanced.compile(&funcs, 32, 0).is_err());
        let c = Ladder.compile(&funcs, 32, 0).unwrap();
        assert!(c.degraded >= 1, "must record the forced transition");
        assert!(c.spills() > 0);
        assert!(c.registers_used <= 32);
        for f in &c.funcs {
            f.validate().unwrap();
        }
    }

    #[test]
    fn ladder_spill_areas_differ_per_pu() {
        let funcs = pu_funcs();
        let a = Ladder.compile(&funcs, 32, 0).unwrap();
        let b = Ladder.compile(&funcs, 32, 1).unwrap();
        assert_eq!(a.degraded, b.degraded);
        assert_ne!(a.funcs, b.funcs, "spill addresses must differ across PUs");
    }

    #[test]
    fn all_strategies_include_the_ladder() {
        let names: Vec<&str> = all_strategies().iter().map(|s| s.name()).collect();
        assert_eq!(
            names,
            [
                "fixed-partition",
                "balanced",
                "balanced-spill",
                "balanced-scratch",
                "ladder"
            ]
        );
    }

    #[test]
    fn balanced_scratch_packs_the_cheapest_spills_into_the_scratchpad() {
        let funcs = pu_funcs();
        // Balancing alone is infeasible at 32: both hybrids spill the
        // same ranges, but the scratch tier serves the cheapest from
        // the fast store.
        let spill = BalancedSpill.compile(&funcs, 32, 0).unwrap();
        let scratch = BalancedScratch.compile(&funcs, 32, 0).unwrap();
        assert_eq!(scratch.spills(), spill.spills(), "same eviction decisions");
        assert!(scratch.scratch_spills > 0, "some slots must go fast");
        assert!(scratch.scratch_spills <= scratch.spills());
        assert_eq!(spill.scratch_spills, 0);
        assert!(scratch.registers_used <= 32);
        for f in &scratch.funcs {
            f.validate().unwrap();
        }
        // Scratchpad areas differ per PU, like the memory spill areas.
        let other = BalancedScratch.compile(&funcs, 32, 1).unwrap();
        assert_ne!(scratch.funcs, other.funcs);
    }

    /// The ladder's balancing rungs read the same column, at the same
    /// spill base and scratchpad area, as the single-rung strategies: at
    /// Nreg 32, wherever a scenario's ladder settles on balanced-scratch
    /// (or balanced), it compiles exactly what `balanced-scratch` (or
    /// `balanced`) compiles on that PU.
    #[test]
    fn the_ladder_compiles_what_the_strategy_of_its_rung_compiles() {
        use crate::scenario::scenarios;
        for scenario in scenarios() {
            let mut scratch_pus = 0;
            for (pu, workloads) in scenario.workloads(4).iter().enumerate() {
                let funcs: Vec<Func> = workloads.iter().map(|w| w.func.clone()).collect();
                let ladder = Ladder.compile(&funcs, 32, pu).unwrap();
                let step = ladder.ladder.as_ref().unwrap().step;
                let rung = match step {
                    LadderStep::Balanced => Balanced.compile(&funcs, 32, pu),
                    LadderStep::BalancedScratch => {
                        scratch_pus += 1;
                        BalancedScratch.compile(&funcs, 32, pu)
                    }
                    other => panic!("{} PU{pu}: settled on {other:?}", scenario.name),
                }
                .unwrap();
                let what = format!("{} PU{pu} {step:?}", scenario.name);
                assert_eq!(ladder.funcs, rung.funcs, "{what}");
                assert_eq!(ladder.threads, rung.threads, "{what}");
                assert_eq!(ladder.registers_used, rung.registers_used, "{what}");
                assert_eq!(ladder.scratch_spills, rung.scratch_spills, "{what}");
            }
            assert!(
                scratch_pus > 0,
                "{}: no PU settles on balanced-scratch",
                scenario.name
            );
        }
    }

    #[test]
    fn hybrid_spill_areas_differ_per_pu() {
        let funcs = pu_funcs();
        let a = BalancedSpill.compile(&funcs, 32, 0).unwrap();
        let b = BalancedSpill.compile(&funcs, 32, 1).unwrap();
        assert_eq!(a.spills(), b.spills());
        assert_ne!(a.funcs, b.funcs, "spill addresses must differ across PUs");
    }
}
