//! Cross-thread register allocation for multithreaded network
//! processors — the primary contribution of Zhuang & Pande, *Balancing
//! Register Allocation Across Threads for a Multithreaded Network
//! Processor* (PLDI 2004).
//!
//! # What it does
//!
//! `Nthd` threads share one register file of `Nreg` registers. Context
//! switches save only the PC, so a value live across a switch must sit in
//! a register *private* to its thread; values dead at every switch may
//! use registers *shared* by all threads. This crate:
//!
//! 1. estimates per-thread register bounds ([`Bounds`], paper §5);
//! 2. balances registers across threads with the greedy inter-thread
//!    allocator ([`allocate_threads`], paper Fig. 8), which repeatedly
//!    asks the intra-thread allocator ([`ThreadAlloc`], paper Fig. 10)
//!    to give up one private or shared register at the cost of
//!    live-range-splitting `mov` instructions;
//! 3. handles the symmetric special case ([`allocate_sra`], paper §8);
//! 4. provides a classic Chaitin-style spilling allocator as the
//!    baseline the paper compares against ([`chaitin::partition`]);
//! 5. rewrites programs to physical registers ([`MultiAllocation::rewrite_funcs`])
//!    and statically verifies every safety invariant ([`verify`]).
//!
//! # Example
//!
//! ```
//! use regbal_ir::parse_func;
//! use regbal_core::allocate_threads;
//!
//! let thread = parse_func(
//!     "func t {\nbb0:\n v0 = mov 256\n v1 = load sram[v0+0]\n v2 = add v1, 1\n store sram[v0+4], v2\n iter_end\n jump bb0\n}",
//! )?;
//! // Four copies of the thread must fit in 16 physical registers.
//! let funcs = vec![thread.clone(), thread.clone(), thread.clone(), thread];
//! let allocation = allocate_threads(&funcs, 16).expect("feasible");
//! assert!(allocation.total_registers() <= 16);
//! let physical = allocation.rewrite_funcs(&funcs);
//! assert_eq!(physical.len(), 4);
//! # Ok::<(), regbal_ir::ParseError>(())
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod alloc;
mod bounds;
pub mod chaitin;
mod engine;
mod error;
mod hybrid;
mod half;
mod ladder;
mod livemap;
mod rewrite;
mod sra;
pub mod verify;

pub use alloc::{NodeId, ThreadAlloc};
pub use bounds::{estimate_bounds, Bounds};
pub use engine::{
    allocate_threads, allocate_threads_stats, force_min_bounds,
    steal_map, zero_cost_frontier, EngineConfig, EngineStats, IterationBudget, MultiAllocation,
    ThreadResult, ThreadSummary, ADAPTIVE_CAP_FACTOR, DEFAULT_ITERATION_CAP, MIN_ITERATION_CAP,
};
pub use error::{AllocError, Degradation, LadderStep, RungRetry};
pub use half::HalfPoint;
pub use hybrid::{
    allocate_threads_with_spill, HybridAllocation, ScratchParams, SpillPick, SpillTrajectory,
    DEFAULT_SCRATCH_CAPACITY, DEFAULT_SPILL_BASE,
};
pub use ladder::{
    allocate_ladder, LadderAllocation, LadderError, LadderOutcome, PlannedRung,
};
pub use livemap::LiveMap;
pub use rewrite::{rewrite_thread, try_rewrite_thread, Layout};
pub use sra::{allocate_sra, allocate_sra_exhaustive, sra_zero_cost_frontier, SraAllocation};
