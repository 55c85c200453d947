//! Symmetric register allocation (paper §8).
//!
//! When all `Nthd` threads run the same program, the feasibility
//! condition collapses to `Nthd · PR + SR ≤ Nreg`. The solution space is
//! a one-dimensional frontier of `(PR, SR)` pairs, so the allocator
//! simply walks it greedily: a private reduction gains `Nthd` registers
//! on the left-hand side, a shared reduction gains one.

use crate::alloc::ThreadAlloc;
use crate::bounds::Bounds;
use crate::engine::{initial_thread, MultiAllocation, ThreadResult};
use crate::error::AllocError;
use regbal_ir::Func;

/// Result of a symmetric allocation: one allocation state shared by all
/// threads.
#[derive(Debug, Clone)]
pub struct SraAllocation {
    /// The common per-thread result.
    pub thread: ThreadResult,
    /// Number of threads the allocation serves.
    pub nthd: usize,
    /// Register-file size the allocation fits in.
    pub nreg: usize,
}

impl SraAllocation {
    /// Private registers per thread.
    pub fn pr(&self) -> usize {
        self.thread.pr()
    }

    /// Shared registers (also `SGR`, since all threads are equal).
    pub fn sr(&self) -> usize {
        self.thread.sr()
    }

    /// Move instructions inserted per thread.
    pub fn moves(&self) -> usize {
        self.thread.moves()
    }

    /// Total demand `Nthd · PR + SR`.
    pub fn total_registers(&self) -> usize {
        self.nthd * self.pr() + self.sr()
    }

    /// The thread's §5 bounds.
    pub fn bounds(&self) -> Bounds {
        self.thread.bounds
    }

    /// Expands to a [`MultiAllocation`] with `Nthd` identical threads
    /// (e.g. for rewriting and simulation).
    pub fn to_multi(&self) -> MultiAllocation {
        MultiAllocation {
            threads: vec![self.thread.clone(); self.nthd],
            nreg: self.nreg,
        }
    }
}

/// Allocates registers for `nthd` copies of `func` sharing `nreg`
/// physical registers.
///
/// # Errors
///
/// Returns [`AllocError::Infeasible`] when `Nthd · PR + SR` cannot be
/// brought below `nreg`.
///
/// # Example
///
/// ```
/// use regbal_core::allocate_sra;
///
/// let f = regbal_ir::parse_func(
///     "func f {\nbb0:\n v0 = mov 1\n ctx\n v1 = add v0, 1\n store scratch[v1+0], v0\n halt\n}",
/// )?;
/// let sra = allocate_sra(&f, 4, 16).expect("fits");
/// assert!(4 * sra.pr() + sra.sr() <= 16);
/// # Ok::<(), regbal_ir::ParseError>(())
/// ```
pub fn allocate_sra(func: &Func, nthd: usize, nreg: usize) -> Result<SraAllocation, AllocError> {
    assert!(nthd > 0, "need at least one thread");
    let mut t = initial_thread(func);
    loop {
        let total = nthd * t.pr() + t.sr();
        if total <= nreg {
            break;
        }
        // Evaluate both directions; compare cost per register gained.
        // (A demotion keeps R: it frees `nthd` private slots for one
        // extra shared register, a net gain of `nthd - 1`.)
        let can_pr = t.pr() > t.bounds.min_pr;
        let can_sr = t.sr() > 0 && t.pr() + t.sr() > t.bounds.min_r;
        let pr_cost = if can_pr { peek(&t.alloc, true) } else { None };
        let sr_cost = if can_sr { peek(&t.alloc, false) } else { None };
        let choose_private = match (pr_cost, sr_cost) {
            (Some(p), Some(s)) => {
                // Normalise by gain: PR frees `nthd` registers at once.
                (p as f64) / nthd as f64 <= s as f64
            }
            (Some(_), None) => true,
            (None, Some(_)) => false,
            (None, None) => {
                return Err(AllocError::Infeasible {
                    needed: total,
                    available: nreg,
                })
            }
        };
        if choose_private {
            t.alloc.reduce_private().expect("peek succeeded");
        } else {
            t.alloc.reduce_shared().expect("peek succeeded");
        }
    }
    crate::verify::check_thread(&t.alloc).expect("SRA produced an invalid allocation");
    Ok(SraAllocation {
        thread: t,
        nthd,
        nreg,
    })
}

/// Exhaustive symmetric allocation (paper §8: "due to the shrunk
/// solution space ... we can actually traverse all the possible PRs and
/// SRs to find the best solution"): every feasible `(PR, SR)` target
/// with `Nthd·PR + SR ≤ Nreg` is reached by reductions from the upper
/// bound, and the cheapest (fewest moves; ties broken by fewer total
/// registers) wins.
///
/// # Errors
///
/// Returns [`AllocError::Infeasible`] when no target fits.
pub fn allocate_sra_exhaustive(
    func: &Func,
    nthd: usize,
    nreg: usize,
) -> Result<SraAllocation, AllocError> {
    assert!(nthd > 0, "need at least one thread");
    let start = initial_thread(func);
    let b = start.bounds;
    let mut best: Option<(ThreadResult, usize)> = None;

    for pr in (b.min_pr..=b.max_pr).rev() {
        // Reaching private target `pr` costs the same regardless of the
        // shared target, so reduce PR first, then walk SR downward and
        // record every feasible stop.
        let mut t = start.clone();
        let mut ok = true;
        while t.pr() > pr {
            if t.alloc.reduce_private().is_none() {
                ok = false;
                break;
            }
        }
        if !ok {
            continue;
        }
        loop {
            let total = nthd * t.pr() + t.sr();
            if total <= nreg {
                let moves = t.moves();
                let better = match &best {
                    None => true,
                    Some((bt, bm)) => {
                        moves < *bm
                            || (moves == *bm && total < nthd * bt.pr() + bt.sr())
                    }
                };
                if better {
                    best = Some((t.clone(), moves));
                }
            }
            if t.sr() == 0 || t.pr() + t.sr() <= b.min_r {
                break;
            }
            if t.alloc.reduce_shared().is_none() {
                break;
            }
        }
    }
    match best {
        Some((thread, _)) => {
            crate::verify::check_thread(&thread.alloc).expect("exhaustive SRA must verify");
            Ok(SraAllocation { thread, nthd, nreg })
        }
        None => Err(AllocError::Infeasible {
            needed: nthd * b.min_pr + (b.min_r - b.min_pr),
            available: nreg,
        }),
    }
}

/// Walks the zero-cost frontier for the symmetric case: keep taking
/// reductions that insert no moves (private preferred — it counts
/// `Nthd`-fold), then stop. These are the (PR, SR) bars of the paper's
/// Figure 14.
pub fn sra_zero_cost_frontier(func: &Func, nthd: usize) -> SraAllocation {
    let t = crate::engine::zero_cost_frontier(func);
    let nreg = nthd * t.pr() + t.sr();
    SraAllocation {
        thread: t,
        nthd,
        nreg,
    }
}

fn peek(alloc: &ThreadAlloc, private: bool) -> Option<isize> {
    if private {
        alloc.peek_reduce_private()
    } else {
        alloc.peek_reduce_shared()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use regbal_ir::parse_func;

    fn sample() -> Func {
        parse_func(
            "func s {\nbb0:\n v0 = mov 1\n v1 = mov 2\n ctx\n v2 = add v0, v1\n v3 = add v2, v0\n store scratch[v3+0], v3\n halt\n}",
        )
        .unwrap()
    }

    #[test]
    fn symmetric_condition_holds() {
        let sra = allocate_sra(&sample(), 4, 32).unwrap();
        assert!(4 * sra.pr() + sra.sr() <= 32);
        assert_eq!(sra.total_registers(), 4 * sra.pr() + sra.sr());
        assert_eq!(sra.nthd, 4);
    }

    #[test]
    fn to_multi_replicates_threads() {
        let sra = allocate_sra(&sample(), 3, 32).unwrap();
        let multi = sra.to_multi();
        assert_eq!(multi.threads.len(), 3);
        for t in &multi.threads {
            assert_eq!(t.pr(), sra.pr());
            assert_eq!(t.sr(), sra.sr());
        }
        assert_eq!(multi.sgr(), sra.sr());
    }

    #[test]
    fn tight_file_forces_private_reduction() {
        let generous = allocate_sra(&sample(), 4, 64).unwrap();
        let floor = generous.bounds().min_pr * 4 + generous.bounds().min_r
            - generous.bounds().min_pr;
        let tight = allocate_sra(&sample(), 4, floor.max(8)).unwrap();
        assert!(tight.pr() <= generous.pr());
        assert!(tight.total_registers() <= floor.max(8));
    }

    #[test]
    fn infeasible_when_below_floor() {
        let err = allocate_sra(&sample(), 4, 4).unwrap_err();
        assert!(matches!(err, AllocError::Infeasible { .. }));
    }

    #[test]
    fn frontier_reports_zero_moves() {
        let sra = sra_zero_cost_frontier(&sample(), 4);
        assert_eq!(sra.moves(), 0);
        assert!(sra.pr() <= sra.bounds().max_pr);
    }

    #[test]
    #[should_panic(expected = "at least one thread")]
    fn zero_threads_panics() {
        let _ = allocate_sra(&sample(), 0, 32);
    }

    #[test]
    fn exhaustive_never_beats_the_budget_and_never_loses_to_greedy() {
        for nreg in [8, 12, 16, 32] {
            let greedy = allocate_sra(&sample(), 4, nreg);
            let exact = allocate_sra_exhaustive(&sample(), 4, nreg);
            match (greedy, exact) {
                (Ok(g), Ok(e)) => {
                    assert!(e.total_registers() <= nreg);
                    assert!(
                        e.moves() <= g.moves(),
                        "nreg={nreg}: exhaustive {} vs greedy {}",
                        e.moves(),
                        g.moves()
                    );
                }
                (Err(_), Err(_)) => {}
                (g, e) => panic!("feasibility disagreement at nreg={nreg}: {g:?} vs {e:?}"),
            }
        }
    }

    #[test]
    fn exhaustive_infeasible_below_floor() {
        assert!(matches!(
            allocate_sra_exhaustive(&sample(), 4, 3),
            Err(AllocError::Infeasible { .. })
        ));
    }
}
