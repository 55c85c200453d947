//! Adversarial stress suite for the allocation fallback ladder.
//!
//! A corpus of 200+ seeded random functions — context-switch-saturated,
//! clique-heavy, and loop-carried — is pushed through
//! [`regbal_core::allocate_ladder`] at register files down to `Nreg=8`.
//! The contract under test:
//!
//! * the pipeline never panics: every request either allocates
//!   (possibly after recorded [`Degradation`]s) or returns a structured
//!   [`LadderError`] carrying the full trail;
//! * every successful allocation rewrites to fully physical, validated
//!   code confined to the register file;
//! * degraded code is semantics-preserving (memory snapshots equal the
//!   virtual-register reference) and sanitizer-clean;
//! * every run terminates within a fixed cycle budget.
//!
//! The file also holds the capped-vs-uncapped engine differential
//! property: the deterministic iteration budget is a pure restriction —
//! invisible when not hit, a structured `IterationCapHit` when starved.

mod common;

use proptest::prelude::*;
use regbal_core::{
    allocate_ladder, allocate_threads_stats, allocate_threads_with, AllocError, EngineConfig,
    IterationBudget, LadderConfig, LadderStep, SpillTrajectory,
};
use regbal_ir::{Func, MemSpace, Reg, Terminator};
use regbal_sim::{SanitizerConfig, SimConfig, Simulator, StopWhen};
use regbal_workloads::stress::{stress_bundle, StressConfig, STRESS_SLOT_BYTES};

/// Cycle budget for one stress bundle; generously above what any
/// generated program needs, so hitting it means a hang.
const CYCLE_BUDGET: u64 = 2_000_000;

/// Runs `funcs` as threads to completion and snapshots each thread's
/// scratch window; also reports clobber-class sanitizer violations when
/// instrumented.
fn run_snapshot(funcs: &[Func], sanitize: bool) -> (Vec<Vec<u8>>, usize) {
    let mut sim = Simulator::new(SimConfig::default());
    if sanitize {
        sim.enable_sanitizer(SanitizerConfig::default());
    }
    for f in funcs {
        sim.add_thread(f.clone());
    }
    let report = sim.run(StopWhen::Cycles(CYCLE_BUDGET));
    assert!(
        report.threads.iter().all(|t| t.halted),
        "a thread failed to terminate within {CYCLE_BUDGET} cycles"
    );
    let snaps = (0..funcs.len())
        .map(|t| {
            sim.memory()
                .read_bytes(MemSpace::Scratch, t as u32 * STRESS_SLOT_BYTES, 0x240)
        })
        .collect();
    (snaps, report.sanitizer_violations().count())
}

/// Every register in `f` must be physical and inside the file.
fn assert_confined(f: &Func, nreg: usize) {
    assert_eq!(f.max_vreg(), None, "`{}` still has virtual registers", f.name);
    let check = |r: Reg| {
        if let Reg::Phys(p) = r {
            assert!(
                (p.0 as usize) < nreg,
                "`{}` uses r{} outside a {nreg}-register file",
                f.name,
                p.0
            );
        }
    };
    for (_, _, inst) in f.iter_insts() {
        inst.defs().for_each(check);
        inst.uses().for_each(check);
    }
    for b in &f.blocks {
        if let Terminator::Branch { lhs, rhs, .. } = &b.term {
            check(*lhs);
            if let regbal_ir::Operand::Reg(r) = rhs {
                check(*r);
            }
        }
    }
}

/// Aggregate evidence from one corpus class.
#[derive(Default)]
struct CorpusStats {
    funcs: usize,
    degraded_allocations: usize,
    degradations: usize,
    structured_failures: usize,
    settled: std::collections::BTreeMap<&'static str, usize>,
}

/// Pushes one bundle through the ladder and checks the full contract.
/// The engine gets a deliberately tight iteration budget: on hopeless
/// rungs the corpus is adversarial enough to grind for a long time, and
/// falling through on `IterationCapHit` is precisely the behaviour the
/// ladder exists to provide.
fn exercise(funcs: &[Func], nreg: usize, stats: &mut CorpusStats) {
    stats.funcs += funcs.len();
    let engine = EngineConfig {
        max_iterations: IterationBudget::Fixed(500),
        ..EngineConfig::default()
    };
    let result = std::panic::catch_unwind(|| {
        SpillTrajectory::new(funcs, engine).ladder(nreg, &LadderConfig::default())
    })
    .expect("the allocation pipeline must never panic");
    let alloc = match result {
        Ok(alloc) => alloc,
        Err(err) => {
            // Even total failure is structured: the trail covers every
            // rung down to spill-all, and the terminal error survives.
            stats.structured_failures += 1;
            assert_eq!(err.degradations.len(), 4, "full trail: {err}");
            assert_eq!(err.degradations[0].from, LadderStep::Balanced);
            assert_eq!(err.degradations[3].to, LadderStep::SpillAll);
            return;
        }
    };
    *stats.settled.entry(alloc.step.name()).or_default() += 1;
    // Budget retries are bookkept consistently: every retry doubles a
    // non-zero cap, and a recovered retry means the ladder never
    // degraded *past* that rung.
    for r in &alloc.retries {
        assert!(r.cap > 0, "retry of a zero budget: {r:?}");
        assert_eq!(r.retry_cap, r.cap * 2, "retry must double the budget");
        if r.recovered {
            assert!(alloc.step <= r.step, "recovered rung {r:?} yet settled lower");
        }
    }
    if alloc.degraded_count() > 0 {
        stats.degraded_allocations += 1;
        stats.degradations += alloc.degraded_count();
        assert_eq!(alloc.degradations[0].from, LadderStep::Balanced);
        assert_eq!(
            alloc.degradations.last().unwrap().to,
            alloc.step,
            "the trail ends at the settled rung"
        );
    }
    let physical = alloc.rewrite().expect("a settled ladder result rewrites");
    assert_eq!(physical.len(), funcs.len());
    for f in &physical {
        f.validate().expect("rewritten function is structurally valid");
        assert_confined(f, nreg);
    }
    // Degraded code must still be *correct* code: byte-identical
    // observable memory and zero clobber-class sanitizer reports.
    let (reference, _) = run_snapshot(funcs, false);
    let (compiled, violations) = run_snapshot(&physical, true);
    assert_eq!(reference, compiled, "degraded rewrite changed semantics");
    assert_eq!(violations, 0, "degraded rewrite clobbered a register");
}

/// Class (a): small CSB-saturated programs, two threads sharing the
/// paper's tightest file. The balanced rung is hopeless here; the
/// ladder must degrade, not die.
#[test]
fn csb_dense_corpus_survives_nreg_8() {
    let mut stats = CorpusStats::default();
    for seed in 0..40u64 {
        let funcs = stress_bundle(seed, 2, StressConfig::csb_dense());
        exercise(&funcs, 8, &mut stats);
    }
    assert_eq!(stats.funcs, 80);
    assert!(
        stats.degraded_allocations > 0,
        "an adversarial corpus at Nreg=8 must force degradations: {:?}",
        stats.settled
    );
}

/// Class (b): wide interference cliques, two threads on twelve
/// registers — each thread's clique alone would fill the file.
#[test]
fn clique_corpus_survives_nreg_12() {
    let mut stats = CorpusStats::default();
    for seed in 100..136u64 {
        let funcs = stress_bundle(seed, 2, StressConfig::clique());
        exercise(&funcs, 12, &mut stats);
    }
    assert_eq!(stats.funcs, 72);
    assert!(
        stats.degraded_allocations > 0,
        "12-wide cliques cannot balance into 12 registers: {:?}",
        stats.settled
    );
}

/// Class (c): loop-carried mixed programs swept across tight and
/// comfortable files — the same bundle must survive everywhere.
#[test]
fn mixed_loop_corpus_survives_a_file_sweep() {
    let mut stats = CorpusStats::default();
    for seed in 200..226u64 {
        let funcs = stress_bundle(seed, 2, StressConfig::mixed());
        for nreg in [12, 24] {
            exercise(&funcs, nreg, &mut stats);
        }
        stats.funcs -= funcs.len(); // count distinct functions once
    }
    assert_eq!(stats.funcs, 52);
    assert!(
        stats.settled.contains_key("balanced")
            || stats.settled.contains_key("balanced-spill"),
        "comfortable files should settle high on the ladder: {:?}",
        stats.settled
    );
}

/// The observable outcome of one engine run, for bit-exact comparison.
fn fingerprint(
    alloc: &regbal_core::MultiAllocation,
) -> (Vec<(usize, usize, usize)>, usize) {
    (
        alloc
            .threads
            .iter()
            .map(|t| (t.pr(), t.sr(), t.moves()))
            .collect(),
        alloc.total_registers(),
    )
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// The iteration budget is a pure restriction of the engine
    /// (satellite of the degradation work): with a cap at least as
    /// large as the iterations actually needed, the allocation is
    /// bit-identical to the uncapped run; with a cap strictly below,
    /// the failure is a structured `IterationCapHit` — never a panic,
    /// never a silently different allocation.
    #[test]
    fn capped_engine_is_a_pure_restriction(seed in any::<u64>()) {
        let funcs = stress_bundle(seed, 3, StressConfig::mixed());
        // A file one short of the threads' unreduced demand forces at
        // least one greedy reduction step on most seeds.
        let Ok(relaxed) = allocate_ladder(&funcs, 256) else { return Ok(()) };
        let nreg = relaxed.registers_used().saturating_sub(1).max(3);

        let uncapped = allocate_threads_stats(&funcs, nreg, EngineConfig::uncapped());
        let Ok((reference, stats)) = uncapped else {
            // Infeasible is fine here; the ladder corpus above covers it.
            return Ok(());
        };
        let exact_cap = EngineConfig {
            max_iterations: IterationBudget::Fixed(stats.iterations),
            ..EngineConfig::default()
        };
        let capped = allocate_threads_with(&funcs, nreg, exact_cap)
            .expect("a cap of exactly the needed iterations must not fire");
        prop_assert_eq!(fingerprint(&reference), fingerprint(&capped));

        if stats.iterations > 0 {
            let starved = EngineConfig {
                max_iterations: IterationBudget::Fixed(stats.iterations - 1),
                ..EngineConfig::default()
            };
            let err = allocate_threads_with(&funcs, nreg, starved)
                .expect_err("a cap below the needed iterations must fire");
            prop_assert!(
                matches!(err, AllocError::IterationCapHit { cap, .. } if cap + 1 == stats.iterations),
                "unexpected error: {err}"
            );
        }
    }
}
