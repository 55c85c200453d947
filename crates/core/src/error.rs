//! Allocator error taxonomy and the degradation-ladder vocabulary.
//!
//! Every failure of the allocation pipeline is a machine-readable
//! [`AllocError`]; nothing in the library crates panics on adversarial
//! input. The fallback ladder ([`crate::allocate_ladder`]) walks the
//! [`LadderStep`] rungs and records each forced transition as a
//! [`Degradation`], so callers (CLI, eval harness, simulator reports)
//! can surface *why* the primary strategy was abandoned.

use std::fmt;

/// Failure of a register-allocation request.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum AllocError {
    /// The combined demand `Σ PRᵢ + max SRᵢ` cannot be reduced to fit
    /// the register file: every remaining reduction step is blocked by
    /// the per-thread lower bounds or by stuck recoloring.
    Infeasible {
        /// Registers still demanded when the allocator got stuck.
        needed: usize,
        /// Registers physically available.
        available: usize,
    },
    /// A reduction toward an explicitly requested bound got stuck before
    /// reaching it.
    TargetUnreachable {
        /// Thread index that could not be reduced further.
        thread: usize,
        /// Private registers reached.
        pr: usize,
        /// Total registers reached.
        r: usize,
    },
    /// The Chaitin baseline could not converge (pathological spill
    /// cascade).
    SpillDiverged {
        /// Number of spill rounds attempted.
        rounds: usize,
    },
    /// The greedy reduction loop exhausted its deterministic iteration
    /// budget before the demand fit the file.
    IterationCapHit {
        /// Committed reduction steps before the budget ran out.
        iterations: usize,
        /// The configured budget.
        cap: usize,
    },
    /// A recolor-repair walk (vacating a color by recoloring its
    /// neighbourhood) exceeded its work budget without converging.
    RecolorDiverged {
        /// Thread whose repair diverged.
        thread: usize,
        /// Recoloring steps attempted before giving up.
        steps: usize,
    },
    /// Conflict repair ran out of room: more interfering fragments than
    /// the palette (or the repair budget) can absorb.
    ConflictOverflow {
        /// Thread whose conflicts could not be repaired.
        thread: usize,
        /// Interfering fragments competing for the palette.
        conflicts: usize,
        /// Colors (or repair steps) available.
        limit: usize,
    },
    /// A finished allocation failed the post-hoc safety verifier — an
    /// internal bug surfaced as data instead of a panic.
    InvalidAllocation {
        /// The verifier's diagnosis.
        reason: String,
    },
}

impl AllocError {
    /// A short, stable, machine-readable reason code (used as the
    /// `code` field of JSON reports).
    pub fn code(&self) -> &'static str {
        match self {
            AllocError::Infeasible { .. } => "infeasible",
            AllocError::TargetUnreachable { .. } => "target-unreachable",
            AllocError::SpillDiverged { .. } => "spill-diverged",
            AllocError::IterationCapHit { .. } => "iteration-cap",
            AllocError::RecolorDiverged { .. } => "recolor-diverged",
            AllocError::ConflictOverflow { .. } => "conflict-overflow",
            AllocError::InvalidAllocation { .. } => "invalid-allocation",
        }
    }
}

impl fmt::Display for AllocError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            AllocError::Infeasible { needed, available } => write!(
                f,
                "register demand of {needed} cannot fit in {available} physical registers"
            ),
            AllocError::TargetUnreachable { thread, pr, r } => write!(
                f,
                "thread {thread} stuck at PR={pr}, R={r} before reaching the requested bound"
            ),
            AllocError::SpillDiverged { rounds } => {
                write!(f, "spilling failed to converge after {rounds} rounds")
            }
            AllocError::IterationCapHit { iterations, cap } => write!(
                f,
                "iteration budget of {cap} exhausted after {iterations} reduction steps"
            ),
            AllocError::RecolorDiverged { thread, steps } => write!(
                f,
                "thread {thread}: recolor repair diverged after {steps} steps"
            ),
            AllocError::ConflictOverflow {
                thread,
                conflicts,
                limit,
            } => write!(
                f,
                "thread {thread}: {conflicts} conflicting fragments overflow a limit of {limit}"
            ),
            AllocError::InvalidAllocation { reason } => {
                write!(f, "allocation failed verification: {reason}")
            }
        }
    }
}

impl std::error::Error for AllocError {}

/// One rung of the fallback ladder, from the paper's balancing
/// allocator down to the guaranteed-to-terminate spill-everything
/// rewrite.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub enum LadderStep {
    /// The paper's inter-thread balancing allocator (Fig. 8), no
    /// spilling.
    Balanced,
    /// Balancing plus spilling of the cheapest ranges of the most
    /// demanding thread, with the cheapest spills packed into the
    /// fast shared scratchpad (the RegDem-style tier) and the
    /// overflow sent to memory.
    BalancedScratch,
    /// Balancing plus last-resort spilling of the cheapest ranges of
    /// the most demanding thread, all spills to memory.
    BalancedSpill,
    /// The stock-compiler baseline: equal `Nreg / Nthd` private banks,
    /// Chaitin spilling within each.
    FixedPartition,
    /// The terminal rung: every original live range is pre-spilled to
    /// memory, leaving only instruction-local temporaries to color.
    SpillAll,
}

impl LadderStep {
    /// Stable identifier used in reports.
    pub fn name(self) -> &'static str {
        match self {
            LadderStep::Balanced => "balanced",
            LadderStep::BalancedScratch => "balanced-scratch",
            LadderStep::BalancedSpill => "balanced-spill",
            LadderStep::FixedPartition => "fixed-partition",
            LadderStep::SpillAll => "spill-all",
        }
    }
}

impl fmt::Display for LadderStep {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.name())
    }
}

/// A same-rung retry: rung `step` exhausted its iteration budget
/// (`cap`), so the ladder re-ran it once with a doubled — still
/// bounded — budget (`retry_cap`) before considering a descent.
/// Recorded whether or not the retry `recovered` the rung.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct RungRetry {
    /// The rung that was retried.
    pub step: LadderStep,
    /// The budget the first attempt exhausted.
    pub cap: usize,
    /// The doubled budget of the retry.
    pub retry_cap: usize,
    /// Whether the retry succeeded (`true` keeps the ladder on `step`).
    pub recovered: bool,
}

impl fmt::Display for RungRetry {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "{}: retried {} -> {} ({})",
            self.step,
            self.cap,
            self.retry_cap,
            if self.recovered { "recovered" } else { "failed" }
        )
    }
}

/// A checked transition down the fallback ladder: rung `from` failed
/// with `reason`, so the pipeline fell back to rung `to`.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Degradation {
    /// The rung that failed.
    pub from: LadderStep,
    /// The rung tried next.
    pub to: LadderStep,
    /// Why `from` failed.
    pub reason: AllocError,
}

impl fmt::Display for Degradation {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{} -> {}: {}", self.from, self.to, self.reason)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn display_messages() {
        let e = AllocError::Infeasible {
            needed: 40,
            available: 32,
        };
        assert!(e.to_string().contains("40"));
        assert!(e.to_string().contains("32"));
        let e = AllocError::TargetUnreachable {
            thread: 1,
            pr: 3,
            r: 5,
        };
        assert!(e.to_string().contains("PR=3"));
        let e = AllocError::SpillDiverged { rounds: 9 };
        assert!(e.to_string().contains('9'));
        let e = AllocError::IterationCapHit {
            iterations: 17,
            cap: 17,
        };
        assert!(e.to_string().contains("17"));
        let e = AllocError::RecolorDiverged { thread: 2, steps: 96 };
        assert!(e.to_string().contains("96"));
        let e = AllocError::ConflictOverflow {
            thread: 0,
            conflicts: 9,
            limit: 4,
        };
        assert!(e.to_string().contains("overflow"));
        let e = AllocError::InvalidAllocation {
            reason: "palette overlap".into(),
        };
        assert!(e.to_string().contains("palette overlap"));
    }

    #[test]
    fn codes_are_stable_and_distinct() {
        let all = [
            AllocError::Infeasible { needed: 1, available: 0 }.code(),
            AllocError::TargetUnreachable { thread: 0, pr: 0, r: 0 }.code(),
            AllocError::SpillDiverged { rounds: 0 }.code(),
            AllocError::IterationCapHit { iterations: 0, cap: 0 }.code(),
            AllocError::RecolorDiverged { thread: 0, steps: 0 }.code(),
            AllocError::ConflictOverflow { thread: 0, conflicts: 0, limit: 0 }.code(),
            AllocError::InvalidAllocation { reason: String::new() }.code(),
        ];
        let unique: std::collections::BTreeSet<_> = all.iter().collect();
        assert_eq!(unique.len(), all.len());
    }

    /// The derived `Ord` runs down the ladder, top rung first;
    /// `plan_rungs` breaks ties between equally cheap rungs by it.
    #[test]
    fn ladder_walks_to_the_bottom() {
        let mut steps = [
            LadderStep::SpillAll,
            LadderStep::BalancedSpill,
            LadderStep::Balanced,
            LadderStep::FixedPartition,
            LadderStep::BalancedScratch,
        ];
        steps.sort();
        assert_eq!(
            steps.map(LadderStep::name),
            [
                "balanced",
                "balanced-scratch",
                "balanced-spill",
                "fixed-partition",
                "spill-all"
            ]
        );
    }

    #[test]
    fn degradation_displays_the_transition() {
        let d = Degradation {
            from: LadderStep::Balanced,
            to: LadderStep::BalancedSpill,
            reason: AllocError::Infeasible { needed: 9, available: 8 },
        };
        let s = d.to_string();
        assert!(s.contains("balanced -> balanced-spill"), "{s}");
        assert!(s.contains("cannot fit"), "{s}");
    }
}
