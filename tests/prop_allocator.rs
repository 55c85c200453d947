//! Property tests: for arbitrary structured programs, the allocators
//! must produce verified, semantics-preserving code.

mod common;

use common::gen::{random_program, GenConfig};
use proptest::prelude::*;
use regbal_core::chaitin::partition;
use regbal_core::{
    allocate_sra, allocate_threads_stats, estimate_bounds, force_min_bounds, EngineConfig,
    MultiAllocation,
};
use regbal_analysis::ProgramInfo;
use regbal_ir::{Func, MemSpace};
use regbal_sim::{SimConfig, Simulator, StopWhen};

const SLOT_STRIDE: u32 = 0x400;

/// Runs `funcs` as threads and snapshots each thread's memory window.
fn run_snapshot(funcs: &[Func]) -> Vec<Vec<u8>> {
    let mut sim = Simulator::new(SimConfig::default());
    for f in funcs {
        sim.add_thread(f.clone());
    }
    let report = sim.run(StopWhen::Iterations(u64::MAX));
    assert!(report.threads.iter().all(|t| t.halted), "must terminate");
    (0..funcs.len())
        .map(|t| sim.memory().read_bytes(MemSpace::Scratch, t as u32 * SLOT_STRIDE, 0x240))
        .collect()
}

fn variants(seed: u64, config: GenConfig, n: usize) -> Vec<Func> {
    (0..n)
        .map(|slot| random_program(seed, slot as u32 * SLOT_STRIDE, config))
        .collect()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// SRA end to end: allocate four structurally identical threads,
    /// rewrite, and compare memory output with the reference run.
    #[test]
    fn sra_preserves_semantics(seed in any::<u64>()) {
        let config = GenConfig::default();
        let funcs = variants(seed, config, 4);
        let est = estimate_bounds(&ProgramInfo::compute(&funcs[0]));
        // A file tight enough to force sharing but guaranteed feasible.
        let nreg = 4 * est.bounds.max_pr + (est.bounds.max_r - est.bounds.max_pr);
        let sra = allocate_sra(&funcs[0], 4, nreg).expect("trivially feasible");
        let physical = sra.to_multi().rewrite_funcs(&funcs);
        prop_assert_eq!(run_snapshot(&funcs), run_snapshot(&physical));
    }

    /// Squeezing to the minimum bound still preserves semantics, with
    /// every invariant checked.
    #[test]
    fn min_bound_allocation_preserves_semantics(seed in any::<u64>()) {
        let config = GenConfig { blocks: 4, pool: 6, block_len: 6, outer_loop: false };
        let funcs = variants(seed, config, 2);
        let t = match force_min_bounds(&funcs[0]) {
            Ok(t) => t,
            Err(_) => return Ok(()), // stuck reductions are allowed, not wrong
        };
        regbal_core::verify::check_thread(&t.alloc).expect("verified");
        let multi = regbal_core::MultiAllocation {
            threads: vec![t.clone(), t],
            nreg: 256,
        };
        let physical = multi.rewrite_funcs(&funcs);
        prop_assert_eq!(run_snapshot(&funcs), run_snapshot(&physical));
    }

    /// The Chaitin baseline with a tiny bank spills but stays correct.
    #[test]
    fn chaitin_with_spills_preserves_semantics(seed in any::<u64>()) {
        let config = GenConfig { blocks: 4, pool: 7, block_len: 6, outer_loop: false };
        let funcs = variants(seed, config, 2);
        let physical = partition(&funcs, 10, 0x1_0000).expect("k=5 converges").funcs;
        prop_assert_eq!(run_snapshot(&funcs), run_snapshot(&physical));
    }

    /// Bound ordering invariants hold for arbitrary programs.
    #[test]
    fn bounds_are_ordered(seed in any::<u64>()) {
        let f = random_program(seed, 0, GenConfig::default());
        let b = estimate_bounds(&ProgramInfo::compute(&f)).bounds;
        prop_assert!(b.min_pr <= b.max_pr);
        prop_assert!(b.min_r <= b.max_r);
        prop_assert!(b.max_pr <= b.max_r);
        prop_assert!(b.min_pr <= b.min_r);
    }

    /// The reduction engine's outputs always pass the independent
    /// verifier, at every step of the zero-cost frontier walk.
    #[test]
    fn frontier_is_always_verified(seed in any::<u64>()) {
        let f = random_program(seed, 0, GenConfig { blocks: 4, pool: 6, block_len: 6, outer_loop: false });
        let t = regbal_core::zero_cost_frontier(&f);
        regbal_core::verify::check_thread(&t.alloc).expect("verified");
        prop_assert_eq!(t.moves(), 0, "the frontier is move-free by definition");
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// Looped programs: every pool value is loop-carried (live around
    /// the back edge), so splits land on back edges — the hardest
    /// rewrite path. Semantics must still be exact.
    #[test]
    fn looped_sra_preserves_semantics(seed in any::<u64>()) {
        let config = GenConfig { blocks: 4, pool: 6, block_len: 6, outer_loop: true };
        let funcs = variants(seed, config, 2);
        let est = estimate_bounds(&ProgramInfo::compute(&funcs[0]));
        let nreg = 2 * est.bounds.max_pr + (est.bounds.max_r - est.bounds.max_pr);
        let sra = allocate_sra(&funcs[0], 2, nreg).expect("trivially feasible");
        let physical = sra.to_multi().rewrite_funcs(&funcs);
        prop_assert_eq!(run_snapshot(&funcs), run_snapshot(&physical));
    }

    /// Looped programs squeezed to the minimum bound (forcing back-edge
    /// moves) stay correct.
    #[test]
    fn looped_min_bound_preserves_semantics(seed in any::<u64>()) {
        let config = GenConfig { blocks: 3, pool: 5, block_len: 5, outer_loop: true };
        let funcs = variants(seed, config, 2);
        let t = match force_min_bounds(&funcs[0]) {
            Ok(t) => t,
            Err(_) => return Ok(()),
        };
        regbal_core::verify::check_thread(&t.alloc).expect("verified");
        let multi = regbal_core::MultiAllocation {
            threads: vec![t.clone(), t],
            nreg: 256,
        };
        let physical = multi.rewrite_funcs(&funcs);
        prop_assert_eq!(run_snapshot(&funcs), run_snapshot(&physical));
    }

    /// The hybrid spill fallback on random programs with a tiny file.
    #[test]
    fn hybrid_spill_preserves_semantics(seed in any::<u64>()) {
        let config = GenConfig { blocks: 3, pool: 6, block_len: 5, outer_loop: true };
        let funcs = variants(seed, config, 2);
        let Ok(hybrid) = regbal_core::allocate_threads_with_spill(&funcs, 10) else {
            return Ok(()); // genuinely impossible budgets may remain
        };
        let physical = hybrid.rewrite();
        prop_assert_eq!(run_snapshot(&hybrid.funcs), run_snapshot(&physical));
        // The observable outputs of the spilled programs equal the
        // originals' too (spilling is semantics-preserving).
        prop_assert_eq!(run_snapshot(&funcs), run_snapshot(&hybrid.funcs));
    }
}

/// The observable outcome of one engine run, for bit-exact comparison.
fn fingerprint(alloc: &MultiAllocation) -> (Vec<(usize, usize, usize)>, usize) {
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

    /// The memoized and parallel engines are bit-identical to the naive
    /// engine: same per-thread (PR, SR, moves), same total, and the
    /// same error on infeasible budgets — across heterogeneous random
    /// multi-thread programs and a sweep of register budgets chosen to
    /// force real greedy iterations.
    #[test]
    fn memoized_engine_matches_naive(seed in any::<u64>()) {
        let config = GenConfig { blocks: 4, pool: 6, block_len: 6, outer_loop: false };
        // Heterogeneous threads: a different derived seed per thread.
        let funcs: Vec<Func> = (0..4)
            .map(|t| {
                let tseed = seed ^ (t as u64 + 1).wrapping_mul(0x9E37_79B9_7F4A_7C15);
                random_program(tseed, t as u32 * SLOT_STRIDE, config)
            })
            .collect();
        let bounds: Vec<_> = funcs
            .iter()
            .map(|f| estimate_bounds(&ProgramInfo::compute(f)).bounds)
            .collect();
        // The engine starts at the upper bounds; budgets below that
        // demand drive the greedy loop, down into infeasible territory.
        let upper = bounds.iter().map(|b| b.max_pr).sum::<usize>()
            + bounds.iter().map(|b| b.max_r - b.max_pr).max().unwrap_or(0);
        let lower = bounds.iter().map(|b| b.min_pr).sum::<usize>();
        let budgets = [
            lower.max(1),
            (lower + upper) / 2,
            upper.saturating_sub(1),
            upper,
        ];
        let fast_configs = [
            EngineConfig { memoize: true, parallel: false, ..EngineConfig::default() },
            EngineConfig::default(),
        ];
        for nreg in budgets {
            let naive =
                allocate_threads_stats(&funcs, nreg, EngineConfig::naive()).map(|(a, _)| a);
            for cfg in fast_configs {
                let fast = allocate_threads_stats(&funcs, nreg, cfg).map(|(a, _)| a);
                match (&naive, &fast) {
                    (Ok(a), Ok(b)) => {
                        prop_assert_eq!(
                            fingerprint(a), fingerprint(b),
                            "allocations diverge: {:?} nreg={}", cfg, nreg
                        );
                    }
                    (Err(ea), Err(eb)) => {
                        prop_assert_eq!(ea, eb, "errors diverge: {:?} nreg={}", cfg, nreg);
                    }
                    _ => prop_assert!(
                        false,
                        "feasibility diverges at {:?} nreg={}: naive={:?} fast={:?}",
                        cfg, nreg, naive.is_ok(), fast.is_ok()
                    ),
                }
            }
        }
    }

    /// Same differential on loop-carried programs (back-edge splits are
    /// the costliest candidates, exercising cost tie-breaks).
    #[test]
    fn memoized_engine_matches_naive_looped(seed in any::<u64>()) {
        let config = GenConfig { blocks: 3, pool: 5, block_len: 5, outer_loop: true };
        let funcs: Vec<Func> = (0..3)
            .map(|t| {
                let tseed = seed ^ (t as u64 + 1).wrapping_mul(0x9E37_79B9_7F4A_7C15);
                random_program(tseed, t as u32 * SLOT_STRIDE, config)
            })
            .collect();
        let bounds: Vec<_> = funcs
            .iter()
            .map(|f| estimate_bounds(&ProgramInfo::compute(f)).bounds)
            .collect();
        let upper = bounds.iter().map(|b| b.max_pr).sum::<usize>()
            + bounds.iter().map(|b| b.max_r - b.max_pr).max().unwrap_or(0);
        for nreg in [upper.saturating_sub(3), upper.saturating_sub(1)] {
            let naive = allocate_threads_stats(&funcs, nreg.max(1), EngineConfig::naive())
                .map(|(a, _)| a);
            let fast = allocate_threads_stats(&funcs, nreg.max(1), EngineConfig::default())
                .map(|(a, _)| a);
            match (&naive, &fast) {
                (Ok(a), Ok(b)) => prop_assert_eq!(fingerprint(a), fingerprint(b)),
                (Err(ea), Err(eb)) => prop_assert_eq!(ea, eb),
                _ => prop_assert!(false, "feasibility diverges at nreg={}", nreg),
            }
        }
    }
}
