//! A multi-PU chip: several micro-engines sharing the off-chip
//! memories, as in the paper's Figure 2(a) pipeline ("typically, some
//! PUs are in charge of getting packets from the input ports; some
//! handle packet processing and some are for output ports").
//!
//! Each PU has its own register file, threads and clock; the PUs share
//! the scratch/SRAM/SDRAM memories and so can pass packets through
//! queues.
//!
//! Two cores advance the chip:
//!
//! * [`Chip::run`] — the reference slice interleaving: a timestamp
//!   min-heap picks the PU with the smallest local clock and advances
//!   it one `granularity`-cycle slice, so a store on one PU is visible
//!   to the others within at most one slice.
//! * [`Chip::run_event`] — the event-driven core: each PU runs in a
//!   *batch* to its next shared-memory instruction (or the cycle
//!   horizon) and only those memory steps are globally ordered, by
//!   `(local clock, PU index)`. Everything between two memory steps is
//!   PU-local, so the heap merge keeps reports bit-identical to
//!   `run(cycles, 1)` (see DESIGN.md §7 for the argument).

use crate::config::SimConfig;
use crate::machine::{PuEvent, RunReport, SimError, Simulator, StopWhen};
use crate::mem::Memory;
use crate::sanitizer::SanitizerConfig;
use regbal_ir::Func;
use std::cmp::Reverse;
use std::collections::binary_heap::{BinaryHeap, PeekMut};

/// A chip of several processing units over shared memories.
#[derive(Debug)]
pub struct Chip {
    memory: Memory,
    pus: Vec<Simulator>,
}

impl Chip {
    /// Creates a chip with `num_pus` processing units, all using
    /// `config` (the per-PU memory sizes of the config determine the
    /// shared memory).
    pub fn new(config: SimConfig, num_pus: usize) -> Chip {
        assert!(num_pus >= 1, "a chip has at least one PU");
        let memory = Memory::new(
            config.scratch_size,
            config.sram_size,
            config.sdram_size,
            config.spad_size,
        );
        // The PUs run against the shared memory only; give them empty
        // private memories so a device-scale chip (64 PUs over a
        // 16 MiB SRAM) does not allocate one dead copy per PU.
        let pu_config = SimConfig {
            scratch_size: 0,
            sram_size: 0,
            sdram_size: 0,
            spad_size: 0,
            ..config
        };
        Chip {
            memory,
            pus: (0..num_pus)
                .map(|_| Simulator::new(pu_config.clone()))
                .collect(),
        }
    }

    /// Number of processing units.
    pub fn num_pus(&self) -> usize {
        self.pus.len()
    }

    /// Adds a thread to processing unit `pu`. Returns the thread index
    /// within that PU.
    ///
    /// # Panics
    ///
    /// Panics if `pu` is out of range or the function is invalid.
    pub fn add_thread(&mut self, pu: usize, func: Func) -> usize {
        self.pus[pu].add_thread(func)
    }

    /// The shared memories.
    pub fn memory(&self) -> &Memory {
        &self.memory
    }

    /// Mutable access to the shared memories.
    pub fn memory_mut(&mut self) -> &mut Memory {
        &mut self.memory
    }

    /// A processing unit (for per-PU statistics and traces).
    pub fn pu(&self, pu: usize) -> &Simulator {
        &self.pus[pu]
    }

    /// Mutable access to a processing unit (e.g. to enable tracing).
    pub fn pu_mut(&mut self, pu: usize) -> &mut Simulator {
        &mut self.pus[pu]
    }

    /// Enables the register-clobber sanitizer on processing unit `pu`
    /// (each PU has its own register file, so each needs the layout of
    /// the allocation it runs).
    pub fn enable_sanitizer(&mut self, pu: usize, config: SanitizerConfig) {
        self.pus[pu].enable_sanitizer(config);
    }

    /// The first structured error across the PUs (with the PU index),
    /// if any run hit one.
    pub fn error(&self) -> Option<(usize, &SimError)> {
        self.pus
            .iter()
            .enumerate()
            .find_map(|(i, p)| p.error().map(|e| (i, e)))
    }

    /// Runs every PU until each reaches `cycles` on its local clock (or
    /// halts). PUs are interleaved in slices of `granularity` cycles:
    /// a store on one PU is visible to the others within at most one
    /// slice. Returns the per-PU reports.
    ///
    /// A `(local clock, PU index)` min-heap picks the next PU, so one
    /// slice costs `O(log P)` instead of an `O(P)` rescan; the pick
    /// order — smallest clock, lowest index on ties — is unchanged.
    pub fn run(&mut self, cycles: u64, granularity: u64) -> Vec<RunReport> {
        let step = granularity.max(1);
        let mut heap: BinaryHeap<Reverse<(u64, usize)>> = self
            .pus
            .iter()
            .enumerate()
            .filter(|(_, p)| !p.all_halted() && p.now() < cycles)
            .map(|(idx, p)| Reverse((p.now(), idx)))
            .collect();
        // Advance the PU that is furthest behind, one slice at a time.
        // Keys are exact (only a PU's own slice moves its clock), so
        // the top entry is never stale; it is re-keyed in place, one
        // sift per slice, and popped only once its PU is done.
        while let Some(mut top) = heap.peek_mut() {
            let Reverse((_, idx)) = *top;
            let target = (self.pus[idx].now() + step).min(cycles);
            self.pus[idx].run_slice(&mut self.memory, StopWhen::Cycles(target));
            let p = &self.pus[idx];
            if !p.all_halted() && p.now() < cycles {
                *top = Reverse((p.now(), idx));
            } else {
                PeekMut::pop(top);
            }
        }
        self.pus.iter().map(Simulator::report).collect()
    }

    /// Runs every PU to `cycles` with the serial event-driven core.
    ///
    /// Each PU executes in batches bounded by its shared-memory
    /// instructions; the heap orders those memory steps by
    /// `(local clock, PU index)`, exactly the order the reference
    /// granularity-1 interleaving issues them in. The reports (and the
    /// shared-memory contents) are therefore bit-identical to
    /// `run(cycles, 1)` — while the scheduler pays one heap sift per
    /// memory *event* instead of one scan per *cycle*.
    pub fn run_event(&mut self, cycles: u64) -> Vec<RunReport> {
        let stop = StopWhen::Cycles(cycles);
        let mut heap: BinaryHeap<Reverse<(u64, usize)>> = BinaryHeap::new();
        for (idx, pu) in self.pus.iter_mut().enumerate() {
            if let PuEvent::Mem { at } = pu.run_to_event(stop) {
                heap.push(Reverse((at, idx)));
            }
        }
        // Each PU is in the heap at most once, so keys are unique and
        // re-keying the top in place pops in the same order as a pop
        // followed by a push.
        while let Some(mut top) = heap.peek_mut() {
            let Reverse((_, idx)) = *top;
            match self.pus[idx].run_through_event(&mut self.memory, stop) {
                PuEvent::Mem { at } => *top = Reverse((at, idx)),
                PuEvent::Done => {
                    PeekMut::pop(top);
                }
            }
        }
        self.pus.iter().map(Simulator::report).collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use regbal_ir::{parse_func, MemSpace};

    /// Producer PU fills a ring in SRAM; consumer PU on another
    /// micro-engine drains it — the paper's pipeline shape.
    #[test]
    fn two_pu_pipeline_passes_packets() {
        let producer = parse_func(
            "
func producer {
bb0:
    v0 = mov 512
    v1 = mov 8
    v2 = mov 100
    jump push
push:
    v3 = load sram[v0+0]       ; head
    store sram[v3+64], v2      ; slot (head is 512.. offsets)
    v3 = add v3, 4
    store sram[v0+0], v3       ; publish head
    v2 = add v2, 10
    v1 = sub v1, 1
    iter_end
    bne v1, 0, push, done
done:
    halt
}",
        )
        .unwrap();
        let consumer = parse_func(
            "
func consumer {
bb0:
    v0 = mov 512
    v1 = mov 8
    v2 = mov 0
    jump wait
wait:
    v3 = load sram[v0+0]       ; head
    v4 = load sram[v0+4]       ; tail
    beq v3, v4, wait, pop
pop:
    v5 = load sram[v4+64]
    v2 = add v2, v5
    v4 = add v4, 4
    store sram[v0+4], v4
    store scratch[v0+0], v2    ; publish sum
    v1 = sub v1, 1
    iter_end
    bne v1, 0, wait, done
done:
    halt
}",
        )
        .unwrap();
        // head/tail start at 512 (ring slots at 576+).
        let mut chip = Chip::new(SimConfig::default(), 2);
        chip.memory_mut().write_word(MemSpace::Sram, 512, 512);
        chip.memory_mut().write_word(MemSpace::Sram, 516, 512);
        chip.add_thread(0, producer);
        chip.add_thread(1, consumer);
        let reports = chip.run(2_000_000, 16);
        assert_eq!(reports.len(), 2);
        assert!(chip.pu(0).all_halted(), "producer finished");
        assert!(chip.pu(1).all_halted(), "consumer finished");
        // Sum of 100, 110, ..., 170 = 1080.
        assert_eq!(chip.memory().read_word(MemSpace::Scratch, 512), 1080);
    }

    #[test]
    fn single_pu_chip_matches_simulator() {
        let f = parse_func(
            "func t {\nbb0:\n v0 = mov 64\n v1 = load sram[v0+0]\n v1 = add v1, 1\n store scratch[v0+0], v1\n halt\n}",
        )
        .unwrap();
        let mut chip = Chip::new(SimConfig::default(), 1);
        chip.memory_mut().write_word(MemSpace::Sram, 64, 41);
        chip.add_thread(0, f.clone());
        chip.run(100_000, 8);
        assert_eq!(chip.memory().read_word(MemSpace::Scratch, 64), 42);

        let mut solo = Simulator::new(SimConfig::default());
        solo.memory_mut().write_word(MemSpace::Sram, 64, 41);
        solo.add_thread(f);
        solo.run(StopWhen::Cycles(100_000));
        assert_eq!(solo.memory().read_word(MemSpace::Scratch, 64), 42);
    }

    #[test]
    #[should_panic(expected = "at least one PU")]
    fn zero_pus_panics() {
        Chip::new(SimConfig::default(), 0);
    }

    /// The producer/consumer pipeline, parameterized so the equivalence
    /// tests can build identical chips for every core.
    fn pipeline_chip() -> Chip {
        let producer = parse_func(
            "func producer {\nbb0:\n v0 = mov 512\n v1 = mov 8\n v2 = mov 100\n jump push\npush:\n v3 = load sram[v0+0]\n store sram[v3+64], v2\n v3 = add v3, 4\n store sram[v0+0], v3\n v2 = add v2, 10\n v1 = sub v1, 1\n iter_end\n bne v1, 0, push, done\ndone:\n halt\n}",
        )
        .unwrap();
        let consumer = parse_func(
            "func consumer {\nbb0:\n v0 = mov 512\n v1 = mov 8\n v2 = mov 0\n jump wait\nwait:\n v3 = load sram[v0+0]\n v4 = load sram[v0+4]\n beq v3, v4, wait, pop\npop:\n v5 = load sram[v4+64]\n v2 = add v2, v5\n v4 = add v4, 4\n store sram[v0+4], v4\n store scratch[v0+0], v2\n v1 = sub v1, 1\n iter_end\n bne v1, 0, wait, done\ndone:\n halt\n}",
        )
        .unwrap();
        let mut chip = Chip::new(SimConfig::default(), 3);
        chip.memory_mut().write_word(MemSpace::Sram, 512, 512);
        chip.memory_mut().write_word(MemSpace::Sram, 516, 512);
        chip.add_thread(0, producer);
        chip.add_thread(1, consumer);
        // PU 2 halts immediately: the halted-PU edge case rides along.
        chip.add_thread(2, parse_func("func idle {\nbb0:\n halt\n}").unwrap());
        chip
    }

    #[test]
    fn event_core_matches_reference_interleaving() {
        let mut reference = pipeline_chip();
        let expected = reference.run(2_000_000, 1);

        let mut event = pipeline_chip();
        let got = event.run_event(2_000_000);
        assert_eq!(expected, got, "event core diverged");
        assert_eq!(
            reference.memory().read_bytes(MemSpace::Scratch, 0, 1024),
            event.memory().read_bytes(MemSpace::Scratch, 0, 1024)
        );
        assert_eq!(
            reference.memory().read_bytes(MemSpace::Sram, 0, 2048),
            event.memory().read_bytes(MemSpace::Sram, 0, 2048)
        );
        assert_eq!(
            event.memory().read_word(MemSpace::Scratch, 512),
            1080,
            "pipeline sum survives the event core"
        );
    }

    #[test]
    fn heap_slice_loop_matches_old_rescan_semantics() {
        // Coarser slices must still produce the documented pipeline
        // result (the committed BENCH_EVAL numbers ran at 64).
        for granularity in [1u64, 16, 64] {
            let mut chip = pipeline_chip();
            chip.run(2_000_000, granularity);
            assert_eq!(chip.memory().read_word(MemSpace::Scratch, 512), 1080);
        }
    }

    #[test]
    fn event_core_handles_unstarted_and_budgeted_pus() {
        // One spinning PU (never halts, hits the cycle horizon) plus a
        // PU with no threads at all.
        let spin = parse_func("func spin {\nbb0:\n nop\n jump bb0\n}").unwrap();
        let build = || {
            let mut chip = Chip::new(SimConfig::default(), 2);
            chip.add_thread(0, spin.clone());
            chip
        };
        let mut a = build();
        let ra = a.run(5_000, 1);
        let mut b = build();
        let rb = b.run_event(5_000);
        assert_eq!(ra, rb);
        assert!(ra[0].cycles >= 5_000);
        assert_eq!(ra[1].cycles, 0);
    }
}
