//! The device layer: a command processor feeding packet work onto a
//! farm of worker PUs, as in the paper's Figure 2(a) ("some PUs are in
//! charge of getting packets from the input ports; some handle packet
//! processing").
//!
//! A [`Device`] is a [`Chip`] with a fixed shared-memory protocol:
//!
//! * PU 0 runs the **command processor** (CP) — an ordinary simulated
//!   program, built by [`DeviceSpec::command_processor`], that admits
//!   packet ids from the line-rate generator's SDRAM buffer onto
//!   per-worker-thread descriptor rings in SRAM. Admission to a ring is
//!   gated on its *depth limit*, a host-computed word derived from the
//!   worker PU's register-file occupancy (the better the allocation,
//!   the more headroom the PU is trusted with) and the ring's queue
//!   capacity — the admission-scheduling shape of cyclotron's command
//!   processor.
//! * PUs `1..=spec.pus` run **worker threads**, one descriptor ring per
//!   thread. A ring has a single producer (the CP writes `head`) and a
//!   single consumer (the owning thread writes `tail`), so the protocol
//!   needs no atomics beyond the simulator's globally-ordered memory
//!   steps. Workers pop packet ids, read the packet from SDRAM, fold a
//!   digest, and publish per-ring digest/count words to scratch when
//!   the CP raises the per-ring stop flag and the ring is drained.
//!
//! The worker *programs* are supplied by the caller (the eval layer
//! compiles them through a register-allocation strategy; see
//! `regbal-workloads`' device kernel for the reference body), keeping
//! this crate workload- and allocator-agnostic.
//!
//! Because every digest is a pure function of the packet id and bytes,
//! and the published words are folded with wrapping adds, the *global*
//! digest ([`Device::total_digest`]) is independent of which thread
//! processed which packet — comparable across allocations even though
//! timing (and so packet distribution) differs. Within one allocation,
//! reports are bit-identical across the chip cores.

use crate::chip::Chip;
use crate::config::SimConfig;
use crate::machine::RunReport;
use regbal_ir::{BinOp, Cond, Func, FuncBuilder, MemSpace};

/// Hard cap on descriptor rings (worker threads) per device; sizes the
/// SRAM control arrays.
pub const MAX_RINGS: usize = 256;

/// SRAM byte base of the per-ring `head` words (CP-written, monotone
/// admission counts).
pub const HEADS_BASE: u32 = 0x0000;
/// SRAM byte base of the per-ring `tail` words (worker-written,
/// monotone completion counts).
pub const TAILS_BASE: u32 = 0x1000;
/// SRAM byte base of the per-ring stop flags (CP raises after the last
/// admission).
pub const STOPS_BASE: u32 = 0x2000;
/// SRAM byte base of the per-ring depth limits (host-written before the
/// run; the CP's occupancy gate).
pub const LIMITS_BASE: u32 = 0x3000;
/// SRAM byte base of the ring slot arrays (`queue_capacity` words per
/// ring).
pub const RINGS_BASE: u32 = 0x1_0000;

/// Scratch byte base of the per-ring digest words workers publish.
pub const DIGEST_BASE: u32 = 0x0000;
/// Scratch byte base of the per-ring processed-packet counts.
pub const COUNT_BASE: u32 = 0x1000;

/// SDRAM byte base of the packet buffer and the log2 of the per-packet
/// stride (matches `regbal-workloads`' 64-byte synthetic frames).
pub const PKT_BASE: u32 = 0;
/// log2 of the packet stride in SDRAM.
pub const PKT_SHIFT: u32 = 6;

/// SRAM size of the device chip: large enough that the allocator's
/// per-PU spill regions (`0x8_0000 + pu * 0x3_0000`) stay disjoint up
/// to 64 worker PUs instead of wrapping into each other.
pub const DEVICE_SRAM_SIZE: usize = 16 << 20;

/// Shape of a device: worker-PU count, threads (rings) per worker, ring
/// capacity and the packet workload.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct DeviceSpec {
    /// Worker PUs (the command processor adds one more, PU 0).
    pub pus: usize,
    /// Worker threads per PU — each owns one descriptor ring.
    pub threads_per_pu: usize,
    /// Slots per ring; must be a power of two.
    pub queue_capacity: u32,
    /// Packets the generator offers and the CP admits.
    pub packets: u32,
}

impl DeviceSpec {
    /// Total descriptor rings (= worker threads).
    pub fn rings(&self) -> usize {
        self.pus * self.threads_per_pu
    }

    /// The ring owned by worker PU `pu` (0-based, excluding the CP),
    /// thread `thread`.
    pub fn ring(&self, pu: usize, thread: usize) -> usize {
        pu * self.threads_per_pu + thread
    }

    /// Checks the spec against the memory map.
    ///
    /// # Panics
    ///
    /// Panics when a field is out of range (zero sizes, a non-power-of-
    /// two queue, more rings than [`MAX_RINGS`], or a packet buffer
    /// that exceeds SDRAM).
    pub fn validate(&self) {
        assert!(self.pus >= 1, "a device has at least one worker PU");
        assert!(self.threads_per_pu >= 1, "workers need at least one thread");
        assert!(
            self.queue_capacity.is_power_of_two() && self.queue_capacity >= 2,
            "queue capacity must be a power of two >= 2"
        );
        assert!(self.rings() <= MAX_RINGS, "too many rings for the map");
        assert!(self.packets >= 1, "admit at least one packet");
        let pkt_bytes = (self.packets as usize) << PKT_SHIFT;
        let config = self.sim_config();
        assert!(pkt_bytes <= config.sdram_size, "packet buffer exceeds SDRAM");
        assert!(
            RINGS_BASE as usize + MAX_RINGS * (self.queue_capacity as usize) * 4
                <= 0x6_0000,
            "ring slots would overlap the allocator spill area"
        );
    }

    /// The chip configuration for this device (default latencies, the
    /// enlarged [`DEVICE_SRAM_SIZE`]).
    pub fn sim_config(&self) -> SimConfig {
        SimConfig {
            sram_size: DEVICE_SRAM_SIZE,
            ..SimConfig::default()
        }
    }

    /// Builds the command processor's program (virtual registers).
    ///
    /// The CP round-robins over the rings; a ring whose depth
    /// (`head - tail`) has reached its limit is skipped. An admission
    /// writes the next packet id into the ring and republishes `head`
    /// (one `iter_end` per admission, so the CP's iteration count is
    /// the admitted-packet count). After the last admission it raises
    /// every stop flag and halts. Its poll loop *is* the line rate:
    /// two-to-three SRAM reads per probe bound how fast packets can
    /// enter the device.
    pub fn command_processor(&self) -> Func {
        let rings = self.rings() as i64;
        let qmask = i64::from(self.queue_capacity - 1);
        let qshift = i64::from(self.queue_capacity.trailing_zeros());
        let mut b = FuncBuilder::new("cp");
        let check = b.new_block();
        let poll = b.new_block();
        let admit = b.new_block();
        let bump = b.new_block();
        let wrap = b.new_block();
        let fin_init = b.new_block();
        let fin_loop = b.new_block();
        let done = b.new_block();

        let remaining = b.imm(i64::from(self.packets));
        let cursor = b.imm(0);
        let nextid = b.imm(0);
        b.jump(check);

        b.switch_to(check);
        b.branch(Cond::Eq, remaining, 0, fin_init, poll);

        b.switch_to(poll);
        let a = b.shl(cursor, 2);
        let head = b.load(MemSpace::Sram, a, i64::from(HEADS_BASE));
        let tail = b.load(MemSpace::Sram, a, i64::from(TAILS_BASE));
        let depth = b.sub(head, tail);
        let limit = b.load(MemSpace::Sram, a, i64::from(LIMITS_BASE));
        let room = b.bin(BinOp::SetLtU, depth, limit);
        b.branch(Cond::Eq, room, 0, bump, admit);

        b.switch_to(admit);
        let slot = b.and(head, qmask);
        let ring_words = b.shl(cursor, qshift);
        let word = b.add(ring_words, slot);
        let byte = b.shl(word, 2);
        b.store(MemSpace::Sram, byte, i64::from(RINGS_BASE), nextid);
        let h1 = b.add(head, 1);
        b.store(MemSpace::Sram, a, i64::from(HEADS_BASE), h1);
        b.add_to(nextid, nextid, 1);
        b.sub_to(remaining, remaining, 1);
        b.iter_end();
        b.jump(bump);

        b.switch_to(bump);
        b.add_to(cursor, cursor, 1);
        let more = b.bin(BinOp::SetLtU, cursor, rings);
        b.branch(Cond::Eq, more, 0, wrap, check);

        b.switch_to(wrap);
        b.mov_to(cursor, 0);
        b.jump(check);

        b.switch_to(fin_init);
        let i = b.imm(0);
        b.jump(fin_loop);

        b.switch_to(fin_loop);
        let addr = b.shl(i, 2);
        let one = b.imm(1);
        b.store(MemSpace::Sram, addr, i64::from(STOPS_BASE), one);
        b.add_to(i, i, 1);
        let m2 = b.bin(BinOp::SetLtU, i, rings);
        b.branch(Cond::Ne, m2, 0, fin_loop, done);

        b.switch_to(done);
        b.halt();

        b.build().expect("command processor is well-formed")
    }
}

/// Which chip core advances the device.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ChipCore {
    /// The slice-interleaved reference loop at the given granularity
    /// (1 for the interleaving the event core is identical to).
    Reference {
        /// Slice length in cycles.
        granularity: u64,
    },
    /// The serial event-driven core.
    Event,
}

/// A chip wired with the device memory protocol.
#[derive(Debug)]
pub struct Device {
    spec: DeviceSpec,
    chip: Chip,
}

impl Device {
    /// Creates the device chip: `spec.pus + 1` PUs over the device
    /// memory map, every ring's depth limit defaulted to the full
    /// queue capacity. No programs are installed yet — see
    /// [`add_cp`](Self::add_cp) and [`add_worker`](Self::add_worker).
    ///
    /// # Panics
    ///
    /// Panics if the spec fails [`DeviceSpec::validate`].
    pub fn new(spec: DeviceSpec) -> Device {
        spec.validate();
        let chip = Chip::new(spec.sim_config(), spec.pus + 1);
        let mut device = Device { spec, chip };
        for ring in 0..device.spec.rings() {
            device.set_depth_limit(ring, device.spec.queue_capacity);
        }
        device
    }

    /// The device's shape.
    pub fn spec(&self) -> &DeviceSpec {
        &self.spec
    }

    /// Installs the command processor's program on PU 0.
    pub fn add_cp(&mut self, func: Func) {
        self.chip.add_thread(0, func);
    }

    /// Installs one worker thread on worker PU `pu` (0-based; chip
    /// PU `pu + 1`). Threads must be added in ring order — the `t`-th
    /// call for a PU owns ring `spec.ring(pu, t)`.
    pub fn add_worker(&mut self, pu: usize, func: Func) {
        assert!(pu < self.spec.pus, "worker PU out of range");
        self.chip.add_thread(pu + 1, func);
    }

    /// Sets ring `ring`'s admission depth limit (clamped to the queue
    /// capacity; a limit of 0 would starve the ring and is raised
    /// to 1).
    pub fn set_depth_limit(&mut self, ring: usize, limit: u32) {
        assert!(ring < self.spec.rings(), "ring out of range");
        let limit = limit.clamp(1, self.spec.queue_capacity);
        self.chip
            .memory_mut()
            .write_word(MemSpace::Sram, LIMITS_BASE + 4 * ring as u32, limit);
    }

    /// The underlying chip (for sanitizers, traces, PU statistics).
    pub fn chip(&self) -> &Chip {
        &self.chip
    }

    /// Mutable access to the underlying chip.
    pub fn chip_mut(&mut self) -> &mut Chip {
        &mut self.chip
    }

    /// Runs the device to `cycles` under the selected core.
    pub fn run(&mut self, core: ChipCore, cycles: u64) -> Vec<RunReport> {
        match core {
            ChipCore::Reference { granularity } => self.chip.run(cycles, granularity),
            ChipCore::Event => self.chip.run_event(cycles),
        }
    }

    /// Whether every PU (CP included) halted — a run that exhausted its
    /// cycle budget instead has unreliable digests.
    pub fn all_halted(&self) -> bool {
        (0..self.spec.pus + 1).all(|pu| self.chip.pu(pu).all_halted())
    }

    /// Ring `ring`'s published digest word.
    pub fn ring_digest(&self, ring: usize) -> u32 {
        self.chip
            .memory()
            .read_word(MemSpace::Scratch, DIGEST_BASE + 4 * ring as u32)
    }

    /// Packets ring `ring`'s worker processed.
    pub fn ring_processed(&self, ring: usize) -> u32 {
        self.chip
            .memory()
            .read_word(MemSpace::Scratch, COUNT_BASE + 4 * ring as u32)
    }

    /// The order-insensitive global digest: the wrapping sum of every
    /// ring's digest. Equal across allocations of the same workload
    /// (packet distribution may differ; the fold commutes).
    pub fn total_digest(&self) -> u32 {
        (0..self.spec.rings()).fold(0u32, |acc, r| acc.wrapping_add(self.ring_digest(r)))
    }

    /// Total packets processed across all rings (must equal
    /// `spec.packets` after a complete run).
    pub fn total_processed(&self) -> u64 {
        (0..self.spec.rings())
            .map(|r| u64::from(self.ring_processed(r)))
            .sum()
    }

    /// Per-PU reports without advancing the simulation.
    pub fn reports(&self) -> Vec<RunReport> {
        (0..self.spec.pus + 1)
            .map(|pu| self.chip.pu(pu).report())
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn cp_program_validates() {
        let spec = DeviceSpec {
            pus: 2,
            threads_per_pu: 2,
            queue_capacity: 4,
            packets: 8,
        };
        spec.validate();
        let cp = spec.command_processor();
        assert!(cp.validate().is_ok());
        assert_eq!(spec.rings(), 4);
        assert_eq!(spec.ring(1, 1), 3);
    }

    #[test]
    #[should_panic(expected = "power of two")]
    fn bad_queue_capacity_rejected() {
        DeviceSpec {
            pus: 1,
            threads_per_pu: 1,
            queue_capacity: 3,
            packets: 1,
        }
        .validate();
    }

    #[test]
    fn depth_limits_clamp() {
        let spec = DeviceSpec {
            pus: 1,
            threads_per_pu: 1,
            queue_capacity: 8,
            packets: 1,
        };
        let mut d = Device::new(spec);
        d.set_depth_limit(0, 0);
        assert_eq!(d.chip().memory().read_word(MemSpace::Sram, LIMITS_BASE), 1);
        d.set_depth_limit(0, 99);
        assert_eq!(d.chip().memory().read_word(MemSpace::Sram, LIMITS_BASE), 8);
    }
}
