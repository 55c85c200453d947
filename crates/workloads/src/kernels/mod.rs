//! The 11 benchmark kernels and their shared scaffolding.

mod crc;
mod drr;
mod fir2dim;
mod frag;
mod l2l3fwd;
mod md5;
mod reed;
mod url;
mod wraps;

use crate::layout::{Bases, PKT_STRIDE};
use crate::packet::fill_packets;
use regbal_ir::{BlockId, Cond, Func, FuncBuilder, MemSpace, Operand, VReg};
use regbal_sim::Memory;

/// The benchmark kernels of the evaluation (paper Table 1's suite,
/// rebuilt; `l2l3fwd` and `wraps` appear as separate receive/send
/// programs, as in the paper's scenarios).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Kernel {
    /// MD5-style message digest (NetBench) — register-hungry,
    /// performance-critical in scenarios 1 and 2.
    Md5,
    /// 2-D FIR filter (DSPstone/CommBench flavour) — lean, tolerant.
    Fir2dim,
    /// IP fragmentation + checksum (CommBench; the paper's Fig. 4
    /// running example).
    Frag,
    /// CRC-style rolling checksum over packet payloads (CommBench).
    Crc,
    /// Deficit-round-robin scheduler (CommBench `drr`).
    Drr,
    /// Reed-Solomon-style table-driven parity encoder (CommBench).
    Reed,
    /// URL/pattern matching over payload bytes (NetBench `url`).
    Url,
    /// Layer-2/3 forwarding, receive side (Intel example code).
    L2l3fwdRx,
    /// Layer-2/3 forwarding, send side (Intel example code).
    L2l3fwdTx,
    /// WRAPS packet scheduler, receive side (paper ref. \[18\]) —
    /// register-hungry, performance-critical in scenario 3.
    WrapsRx,
    /// WRAPS packet scheduler, send side.
    WrapsTx,
}

impl Kernel {
    /// All kernels, in Table-1 order.
    pub const ALL: [Kernel; 11] = [
        Kernel::Md5,
        Kernel::Fir2dim,
        Kernel::Frag,
        Kernel::Crc,
        Kernel::Drr,
        Kernel::Reed,
        Kernel::Url,
        Kernel::L2l3fwdRx,
        Kernel::L2l3fwdTx,
        Kernel::WrapsRx,
        Kernel::WrapsTx,
    ];

    /// The benchmark's display name.
    pub fn name(self) -> &'static str {
        match self {
            Kernel::Md5 => "md5",
            Kernel::Fir2dim => "fir2dim",
            Kernel::Frag => "frag",
            Kernel::Crc => "crc",
            Kernel::Drr => "drr",
            Kernel::Reed => "reed",
            Kernel::Url => "url",
            Kernel::L2l3fwdRx => "l2l3fwd-rx",
            Kernel::L2l3fwdTx => "l2l3fwd-tx",
            Kernel::WrapsRx => "wraps-rx",
            Kernel::WrapsTx => "wraps-tx",
        }
    }

    /// Builds the kernel program over virtual registers for memory
    /// `slot`, processing `packets` packets before halting.
    pub fn build(self, slot: usize, packets: u32) -> Func {
        let shell = Shell::new(self.name(), slot, packets);
        let f = match self {
            Kernel::Md5 => md5::build(shell),
            Kernel::Fir2dim => fir2dim::build(shell),
            Kernel::Frag => frag::build(shell),
            Kernel::Crc => crc::build(shell),
            Kernel::Drr => drr::build(shell),
            Kernel::Reed => reed::build(shell),
            Kernel::Url => url::build(shell),
            Kernel::L2l3fwdRx => l2l3fwd::build_rx(shell),
            Kernel::L2l3fwdTx => l2l3fwd::build_tx(shell),
            Kernel::WrapsRx => wraps::build_rx(shell),
            Kernel::WrapsTx => wraps::build_tx(shell),
        };
        debug_assert!(f.validate().is_ok());
        f
    }

    /// Fills the kernel's input packets and tables for `slot`. At most
    /// 1024 packets are materialised — long steady-state timing runs
    /// wrap around the buffer.
    pub fn prepare(self, mem: &mut Memory, slot: usize, packets: u32, seed: u64) {
        let b = Bases::for_slot(slot);
        fill_packets(mem, b.pkt, packets.min(1024), seed ^ (slot as u64) << 8);
        match self {
            Kernel::Drr => drr::prepare_tables(mem, b),
            Kernel::Reed => reed::prepare_tables(mem, b),
            Kernel::Url => url::prepare_tables(mem, b),
            Kernel::L2l3fwdRx | Kernel::L2l3fwdTx => l2l3fwd::prepare_tables(mem, b),
            Kernel::WrapsRx | Kernel::WrapsTx => wraps::prepare_tables(mem, b),
            _ => {}
        }
    }
}

/// Scaffolding shared by every kernel: the packet main loop with a
/// per-packet body, pointer/counter maintenance, an accumulated output
/// checksum and the `iter_end` marker.
pub(crate) struct Shell {
    /// The function under construction.
    pub b: FuncBuilder,
    /// Current packet address (SDRAM), advanced each iteration.
    pub pkt: VReg,
    /// Output base (scratch).
    pub out: VReg,
    /// Table base (SRAM).
    pub table: VReg,
    /// Running output checksum, stored per iteration.
    pub csum: VReg,
    /// Remaining packet count.
    counter: VReg,
    /// The per-packet body block (current block after `new`).
    body: BlockId,
    exit: BlockId,
}

impl Shell {
    /// Opens the shell: emits the preamble and positions the builder at
    /// the top of the per-packet body.
    pub fn new(name: &str, slot: usize, packets: u32) -> Shell {
        let bases = Bases::for_slot(slot);
        let mut b = FuncBuilder::new(name);
        let body = b.new_block();
        let exit = b.new_block();
        let pkt = b.imm(bases.pkt as i64);
        let out = b.imm(bases.out as i64);
        let table = b.imm(bases.table as i64);
        let csum = b.imm(0x1357);
        let counter = b.imm(packets.max(1) as i64);
        b.jump(body);
        b.switch_to(body);
        Shell {
            b,
            pkt,
            out,
            table,
            csum,
            counter,
            body,
            exit,
        }
    }

    /// Mixes a value into the running output checksum (2 instructions).
    pub fn absorb(&mut self, value: VReg) {
        let rot = rotl(&mut self.b, self.csum, 5);
        self.b.mov_to(self.csum, rot);
        self.b.xor_to(self.csum, self.csum, value);
    }

    /// Closes the shell: stores the checksum, advances the packet
    /// pointer, decrements the counter, marks the iteration and loops;
    /// the exit block stores the final checksum and halts. Consumes the
    /// shell and returns the finished function.
    ///
    /// # Panics
    ///
    /// Panics if the assembled function is invalid (a kernel bug).
    pub fn finish(mut self) -> Func {
        let Shell {
            ref mut b,
            pkt,
            out,
            csum,
            counter,
            body,
            exit,
            ..
        } = self;
        b.store(MemSpace::Scratch, out, 0, csum);
        b.add_to(pkt, pkt, Operand::Imm(PKT_STRIDE as i64));
        b.sub_to(counter, counter, Operand::Imm(1));
        b.iter_end();
        b.branch(Cond::Ne, counter, Operand::Imm(0), body, exit);
        b.switch_to(exit);
        b.store(MemSpace::Scratch, out, 4, csum);
        b.halt();
        self.b.build().expect("kernel builder produced invalid IR")
    }
}

/// Emits a rotate-left by constant (3 instructions).
pub(crate) fn rotl(b: &mut FuncBuilder, x: VReg, s: i64) -> VReg {
    let hi = b.shl(x, Operand::Imm(s & 31));
    let lo = b.shr(x, Operand::Imm((32 - s) & 31));
    b.or(hi, lo)
}

#[cfg(test)]
mod tests {
    use super::*;
    use regbal_sim::{SimConfig, Simulator, StopWhen};

    #[test]
    fn all_kernels_build_valid_functions() {
        for k in Kernel::ALL {
            let f = k.build(0, 4);
            f.validate().unwrap_or_else(|e| panic!("{}: {e}", k.name()));
            assert!(f.num_insts() > 20, "{} too small", k.name());
            assert!(f.num_ctx_insts() >= 2, "{} needs CSBs", k.name());
        }
    }

    #[test]
    fn all_kernels_run_and_produce_output() {
        for k in Kernel::ALL {
            let w = crate::Workload::new(k, 0, 3);
            let mut sim = Simulator::new(SimConfig::default());
            w.prepare(sim.memory_mut(), 11);
            sim.add_thread(w.func.clone());
            let r = sim.run(StopWhen::Cycles(5_000_000));
            assert!(r.threads[0].halted, "{} did not halt", k.name());
            assert_eq!(r.threads[0].iterations, 3, "{}", k.name());
            let (addr, _) = w.output_region();
            let csum = sim.memory().read_word(regbal_ir::MemSpace::Scratch, addr + 4);
            assert_ne!(csum, 0, "{} produced no checksum", k.name());
        }
    }

    #[test]
    fn kernels_are_deterministic() {
        for k in [Kernel::Md5, Kernel::Drr, Kernel::WrapsRx] {
            let run = || {
                let w = crate::Workload::new(k, 0, 4);
                let mut sim = Simulator::new(SimConfig::default());
                w.prepare(sim.memory_mut(), 99);
                sim.add_thread(w.func.clone());
                sim.run(StopWhen::Cycles(5_000_000));
                let (addr, len) = w.output_region();
                sim.memory().read_bytes(regbal_ir::MemSpace::Scratch, addr, len)
            };
            assert_eq!(run(), run(), "{}", k.name());
        }
    }

    #[test]
    fn seeds_change_output() {
        let w = crate::Workload::new(Kernel::Crc, 0, 4);
        let run = |seed| {
            let mut sim = Simulator::new(SimConfig::default());
            w.prepare(sim.memory_mut(), seed);
            sim.add_thread(w.func.clone());
            sim.run(StopWhen::Cycles(5_000_000));
            let (addr, len) = w.output_region();
            sim.memory().read_bytes(regbal_ir::MemSpace::Scratch, addr, len)
        };
        assert_ne!(run(1), run(2));
    }

    #[test]
    fn pressure_profile_matches_paper_roles() {
        use regbal_analysis::ProgramInfo;
        let pressure = |k: Kernel| {
            ProgramInfo::compute(&k.build(0, 8)).pressure.regp_max
        };
        // The performance-critical kernels must need far more registers
        // than the lean ones — that imbalance drives the whole paper.
        assert!(pressure(Kernel::Md5) >= 13, "md5: {}", pressure(Kernel::Md5));
        assert!(
            pressure(Kernel::WrapsRx) >= 15,
            "wraps-rx: {}",
            pressure(Kernel::WrapsRx)
        );
        assert!(
            pressure(Kernel::Fir2dim) <= 12,
            "fir2dim: {}",
            pressure(Kernel::Fir2dim)
        );
        assert!(pressure(Kernel::Crc) <= 12, "crc: {}", pressure(Kernel::Crc));
    }

    #[test]
    fn ctx_density_is_realistic() {
        // Paper: roughly 10% of instructions are CTX instructions.
        for k in Kernel::ALL {
            let f = k.build(0, 8);
            let density = f.num_ctx_insts() as f64 / f.num_insts() as f64;
            assert!(
                (0.01..0.35).contains(&density),
                "{}: ctx density {density:.2}",
                k.name()
            );
        }
    }

    #[test]
    fn slots_do_not_collide() {
        // Two instances of the same kernel in different slots must not
        // disturb each other's output.
        let solo = {
            let w = crate::Workload::new(Kernel::Frag, 0, 3);
            let mut sim = Simulator::new(SimConfig::default());
            w.prepare(sim.memory_mut(), 5);
            sim.add_thread(w.func.clone());
            sim.run(StopWhen::Cycles(5_000_000));
            let (addr, len) = w.output_region();
            sim.memory().read_bytes(regbal_ir::MemSpace::Scratch, addr, len)
        };
        let duo = {
            let w0 = crate::Workload::new(Kernel::Frag, 0, 3);
            let w1 = crate::Workload::new(Kernel::Frag, 1, 3);
            let mut sim = Simulator::new(SimConfig::default());
            w0.prepare(sim.memory_mut(), 5);
            w1.prepare(sim.memory_mut(), 6);
            sim.add_thread(w0.func.clone());
            sim.add_thread(w1.func.clone());
            sim.run(StopWhen::Cycles(5_000_000));
            let (addr, len) = w0.output_region();
            sim.memory().read_bytes(regbal_ir::MemSpace::Scratch, addr, len)
        };
        assert_eq!(solo, duo);
    }
}
