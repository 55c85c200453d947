//! `regbal-eval` — the traffic-driven evaluation harness reproducing
//! the paper's throughput study (§9).
//!
//! The harness composes the rest of the workspace end to end:
//!
//! 1. [`scenario`] — named thread mixes, four threads per PU, built
//!    from the [`regbal_workloads`] kernels (the paper's S1–S3 plus a
//!    lean control and a two-PU pipeline);
//! 2. [`strategy`] — the allocation strategies under test behind one
//!    [`Strategy`] trait: the fixed `Nreg/Nthd` partition with Chaitin
//!    spilling (the stock-compiler baseline), the balancing allocator,
//!    balancing with last-resort spilling, balancing that packs the
//!    cheapest spills into a shared per-PU scratchpad
//!    ([`BalancedScratch`]), and the degradation ladder that falls
//!    back through those rungs instead of failing;
//! 3. [`report`] — the pipeline ([`run_eval`]) drives the compiled
//!    code on a multi-PU [`regbal_sim::Chip`] under packet traffic,
//!    sweeping the register-file size 32 → 128, and validates each run
//!    against a virtual-register reference (byte-identical output
//!    regions) before recording throughput. The (scenario × strategy
//!    × size) grid is sharded across a work-stealing worker pool
//!    ([`EvalConfig::workers`]) with one lazy allocation trajectory
//!    per (scenario, PU) ([`cache`]) and chip-run dedup; cells land in
//!    positional slots, so the merged report is byte-identical at any
//!    worker count;
//! 4. [`json`] — a small self-contained JSON model (the build
//!    environment is offline, so no serde) used to serialise the
//!    [`EvalReport`] to `BENCH_EVAL.json` and to parse it back for
//!    validation ([`validate_json`]).
//!
//! ```no_run
//! use regbal_eval::{run_eval, validate_json, EvalConfig};
//!
//! let report = run_eval(&EvalConfig::smoke());
//! let text = report.to_json_string();
//! let doc = regbal_eval::json::parse(&text)?;
//! println!("{}", validate_json(&doc)?);
//! # Ok::<(), Box<dyn std::error::Error>>(())
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod cache;
pub mod device;
pub mod json;
pub mod report;
pub mod scenario;
pub mod strategy;

pub use cache::{AllocCache, Lru, SimCache, SimKey, SweepColumn};
pub use device::{
    compile_program, device_scenarios, occupancy_limit, reference_program, run_device,
    run_device_eval, run_device_scenario, DeviceEvalConfig, DeviceEvalReport, DeviceOutcome,
    DeviceProgram, DeviceScenario, DeviceScenarioReport,
};
pub use json::Json;
pub use report::{
    ladder_trail_json, run_eval, run_eval_on, thread_alloc_json, validate_json, CellReport,
    CellStatus, EvalConfig, EvalReport, EvalTiming, ScenarioReport, ThreadReport,
};
pub use scenario::{scenarios, Scenario, THREADS_PER_PU};
pub use strategy::{
    all_strategies, balanced_sanitizer, ladder_sanitizer, Balanced, BalancedScratch,
    BalancedSpill, CompileCtx, CompiledPu, FixedPartition, Ladder, PuLadderTrail, Strategy,
};

#[cfg(test)]
mod tests {
    use super::*;

    /// The ISSUE acceptance path: a smoke sweep covers ≥3 scenarios ×
    /// 3 strategies with checksum-validated runs, serialises, parses
    /// back and validates — including the paper's headline (balanced ≥
    /// fixed partition on a register-hungry mix at the widest file).
    #[test]
    fn smoke_eval_round_trips_and_validates() {
        let config = EvalConfig {
            packets: 4,
            nreg_sweep: vec![48, 128],
            ..EvalConfig::smoke()
        };
        let report = run_eval(&config);
        assert!(report.scenarios.len() >= 3);
        assert_eq!(report.strategies.len(), 5);

        let text = report.to_json_string();
        let doc = json::parse(&text).expect("report serialises to valid JSON");
        let summary = validate_json(&doc).expect("smoke report validates");
        assert!(summary.contains("validated"), "{summary}");
    }

    /// Every shipped strategy survives an instrumented sweep with zero
    /// clobber-class sanitizer reports, and the instrumented document
    /// carries (and validates with) the sanitizer counters.
    #[test]
    fn sanitized_sweep_is_clobber_free() {
        let config = EvalConfig {
            packets: 2,
            nreg_sweep: vec![48],
            sanitize: true,
            ..EvalConfig::smoke()
        };
        let report = run_eval(&config);
        for s in &report.scenarios {
            for c in s.cells.iter().filter(|c| c.status == CellStatus::Ok) {
                assert!(c.sanitized);
                assert_eq!(
                    c.sanitizer_violations, 0,
                    "{}: {}@{} reported clobbers",
                    s.name, c.strategy, c.nreg
                );
            }
        }
        let text = report.to_json_string();
        assert!(text.contains("\"sanitizer_violations\""));
        let doc = json::parse(&text).expect("instrumented report serialises");
        validate_json(&doc).expect("instrumented report validates");
    }

    /// At the tight end of the sweep the fixed partition must spill a
    /// hungry kernel while balancing fits move-free — so balanced
    /// throughput strictly wins on at least one hungry scenario.
    #[test]
    fn balanced_beats_fixed_partition_in_a_tight_file() {
        let config = EvalConfig {
            packets: 4,
            nreg_sweep: vec![48],
            ..EvalConfig::smoke()
        };
        let report = run_eval(&config);
        let mut strict_win = false;
        for s in report.scenarios.iter().filter(|s| s.register_hungry) {
            let (Some(fixed), Some(balanced)) =
                (s.cell("fixed-partition", 48), s.cell("balanced", 48))
            else {
                continue;
            };
            if fixed.status != CellStatus::Ok || balanced.status != CellStatus::Ok {
                continue;
            }
            assert!(balanced.checksum_ok, "{}: balanced output diverged", s.name);
            assert!(fixed.checksum_ok, "{}: fixed output diverged", s.name);
            if fixed.spills > 0 && balanced.throughput_ipkc > fixed.throughput_ipkc {
                strict_win = true;
            }
        }
        assert!(
            strict_win,
            "expected a hungry scenario where spilling costs the fixed partition throughput"
        );
    }
}
