//! Benchmark harness reproducing the paper's evaluation (§9).
//!
//! Each experiment has a data-producing function here and a binary that
//! prints it as a table:
//!
//! | Paper artifact | Function | Binary |
//! |---|---|---|
//! | Table 1 (benchmark statics) | [`table1`] | `table1` |
//! | Figure 14 (SRA register counts) | [`figure14`] | `figure14` |
//! | Table 2 (moves at minimum registers) | [`table2`] | `table2` |
//! | Table 3 (ARA scenarios) | [`table3`] | `table3` |
//! | Ablations (ours) | [`ablation_direction`], [`ablation_cost_curve`] | `ablation` |
//! | §9 throughput study | `regbal_eval::run_eval` | `regbal eval` (writes `BENCH_EVAL.json`) |
//!
//! Absolute numbers differ from the paper (our substrate is a scaled
//! simulator, not the IXP1200 workbench); the *shape* — who wins, by
//! roughly what factor — is the reproduction target. See
//! `EXPERIMENTS.md` at the repository root.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod experiments;
pub mod table;

pub use experiments::{
    ablation_cost_curve, ablation_direction, ablation_sweep, figure14, table1, table2, table3,
    CostCurvePoint, DirectionPolicy, Fig14Row, Scenario, SweepPoint, Table1Row, Table2Row,
    Table3Row, ThreadOutcome, SCENARIOS,
};
