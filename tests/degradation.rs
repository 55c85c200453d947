//! Adversarial stress suite for the allocation fallback ladder.
//!
//! A corpus of 200+ seeded random functions — context-switch-saturated,
//! clique-heavy, and loop-carried — is pushed through the fallback
//! ladder at register files down to `Nreg=8`, each bundle checked
//! against the ladder contract of [`regbal::fuzz::check_ladder`] (the
//! one the `regbal fuzz` walk enforces):
//!
//! * the pipeline never panics: every request either allocates
//!   (possibly after recorded [`regbal_core::Degradation`]s) or returns
//!   a structured [`regbal_core::LadderError`] carrying the full trail;
//! * budget retries and degradation trails are bookkept consistently;
//! * every successful allocation rewrites to fully physical, validated
//!   code confined to the register file;
//! * degraded code is semantics-preserving (memory snapshots equal the
//!   virtual-register reference) and sanitizer-clean;
//! * every run terminates within a fixed cycle budget.
//!
//! Each corpus class then tallies what the ladder returned, to show the
//! corpus really forces degradations.
//!
//! The file also holds the capped-vs-uncapped engine differential
//! property: the deterministic iteration budget is a pure restriction —
//! invisible when not hit, a structured `IterationCapHit` when starved.

use proptest::prelude::*;
use regbal::fuzz::check_ladder;
use regbal_core::{
    allocate_ladder, allocate_threads_stats, AllocError, EngineConfig, IterationBudget,
};
use regbal_ir::Func;
use regbal_workloads::stress::{stress_bundle, StressConfig};

/// Aggregate evidence from one corpus class.
#[derive(Default)]
struct CorpusStats {
    funcs: usize,
    degraded_allocations: usize,
    degradations: usize,
    structured_failures: usize,
    settled: std::collections::BTreeMap<&'static str, usize>,
}

impl CorpusStats {
    /// Checks one bundle against the ladder contract at `nreg`
    /// registers and tallies what the ladder returned.
    fn check(&mut self, funcs: &[Func], nreg: usize, seed: u64) {
        let verdict =
            check_ladder(funcs, nreg).unwrap_or_else(|e| panic!("seed {seed} at Nreg {nreg}: {e}"));
        self.funcs += funcs.len();
        match verdict {
            Err(_) => self.structured_failures += 1,
            Ok(alloc) => {
                *self.settled.entry(alloc.step.name()).or_default() += 1;
                if alloc.degraded_count() > 0 {
                    self.degraded_allocations += 1;
                    self.degradations += alloc.degraded_count();
                }
            }
        }
    }
}

/// Class (a): small CSB-saturated programs, two threads sharing the
/// paper's tightest file. The balanced rung is hopeless here; the
/// ladder must degrade, not die.
#[test]
fn csb_dense_corpus_survives_nreg_8() {
    let mut stats = CorpusStats::default();
    for seed in 0..40u64 {
        let funcs = stress_bundle(seed, 2, StressConfig::csb_dense());
        stats.check(&funcs, 8, seed);
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
        stats.check(&funcs, 12, seed);
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
            stats.check(&funcs, nreg, seed);
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
        let (capped, _) = allocate_threads_stats(&funcs, nreg, exact_cap)
            .expect("a cap of exactly the needed iterations must not fire");
        prop_assert_eq!(fingerprint(&reference), fingerprint(&capped));

        if stats.iterations > 0 {
            let starved = EngineConfig {
                max_iterations: IterationBudget::Fixed(stats.iterations - 1),
                ..EngineConfig::default()
            };
            let err = allocate_threads_stats(&funcs, nreg, starved)
                .expect_err("a cap below the needed iterations must fire");
            prop_assert!(
                matches!(err, AllocError::IterationCapHit { cap, .. } if cap + 1 == stats.iterations),
                "unexpected error: {err}"
            );
        }
    }
}
