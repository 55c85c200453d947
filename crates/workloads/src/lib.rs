//! Network-processing benchmark kernels for the `regbal` evaluation.
//!
//! The paper evaluates on 11 benchmarks drawn from CommBench, NetBench,
//! Intel example code and the WRAPS scheduler. Those sources are IXP
//! microcode and C that we cannot ship, so this crate provides
//! **behaviourally equivalent kernels built directly in `regbal` IR**:
//! each processes a stream of synthetic packets in an infinite-style
//! main loop (bounded by a packet count for simulation), touches memory
//! through context-switching `load`/`store` operations at a realistic
//! ~10 % CTX density, and reproduces the *register-pressure profile*
//! that drives the paper's results — `md5` and the `wraps` pair are
//! register-hungry (performance-critical in the scenarios), `fir2dim`
//! and the forwarding kernels are lean.
//!
//! Every kernel writes a running checksum of its work to scratch memory,
//! so a simulation can be validated end to end: the physical-register
//! build must produce byte-identical output to the virtual-register
//! reference build.
//!
//! The suite and its pressure profiles (RegPmax / RegPCSBmax are the
//! paper's `MinR` / `MinPR`; see the `table1` binary in `regbal-bench`
//! for live numbers):
//!
//! | kernel | origin (paper) | character |
//! |---|---|---|
//! | `md5` | NetBench | burst-fed digest; private-hungry, critical |
//! | `fir2dim` | CommBench/DSPstone | 2-D filter; lean, memory-bound |
//! | `frag` | CommBench (paper Fig. 4) | checksum loop + fragment headers |
//! | `crc` | CommBench | rolling shift-xor checksum |
//! | `drr` | CommBench | deficit round robin, queue RMW, Fig. 9 pattern |
//! | `reed` | CommBench | table-driven parity, CSB-dense |
//! | `url` | NetBench | payload pattern match, branch-heavy |
//! | `l2l3fwd-rx/tx` | Intel example code | forwarding with next-hop table and rings |
//! | `wraps-rx/tx` | paper ref. \[18\] | credit scheduler; internal-hungry, critical |
//!
//! # Example
//!
//! ```
//! use regbal_workloads::{Kernel, Workload};
//! use regbal_sim::{SimConfig, Simulator, StopWhen};
//!
//! let w = Workload::new(Kernel::Crc, 0, 8);
//! let mut sim = Simulator::new(SimConfig::default());
//! w.prepare(sim.memory_mut(), 42);
//! sim.add_thread(w.func.clone());
//! let report = sim.run(StopWhen::Iterations(8));
//! assert_eq!(report.threads[0].iterations, 8);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod device;
mod kernels;
mod layout;
mod packet;
pub mod stress;
pub mod trace;

pub use device::{build_worker, expected_total_digest, packet_digest};
pub use kernels::Kernel;
pub use layout::Bases;
pub use packet::fill_packets;
pub use stress::{stress_bundle, stress_program, StressConfig};
pub use trace::{generate_trace, Arrival, TraceConfig, TraceRequest, TRACE_STRATEGIES};

use regbal_ir::Func;
use regbal_sim::Memory;

/// A ready-to-run benchmark instance: one kernel bound to a memory
/// *slot* (so several threads can run the same kernel on disjoint
/// buffers) and a packet count.
#[derive(Debug, Clone)]
pub struct Workload {
    /// Which kernel this is.
    pub kernel: Kernel,
    /// The memory slot the kernel's buffers live in.
    pub slot: usize,
    /// Packets processed before the thread halts (= main-loop
    /// iterations).
    pub packets: u32,
    /// The program over virtual registers.
    pub func: Func,
}

impl Workload {
    /// Builds the kernel program for `slot`, processing `packets`
    /// packets.
    pub fn new(kernel: Kernel, slot: usize, packets: u32) -> Workload {
        Workload {
            kernel,
            slot,
            packets,
            func: kernel.build(slot, packets),
        }
    }

    /// Fills the workload's input buffers and tables with seeded,
    /// deterministic data.
    pub fn prepare(&self, mem: &mut Memory, seed: u64) {
        self.kernel.prepare(mem, self.slot, self.packets, seed);
    }

    /// The scratch-memory region holding the kernel's observable output
    /// (`(address, length in bytes)`), for end-to-end comparison of two
    /// simulation runs.
    pub fn output_region(&self) -> (u32, usize) {
        let b = Bases::for_slot(self.slot);
        (b.out, layout::OUT_REGION_BYTES)
    }
}
