//! The simulator allocates nothing per event: running the same device
//! further (more loads, stores, context switches and scheduler slices)
//! must not make a single extra heap allocation.
//!
//! A counting global allocator counts the allocations each thread makes
//! (per thread, so the harness's other test threads do not disturb the
//! count). The same `device-4` build runs to two cycle horizons, both
//! before it drains, under the event core and under the reference slice
//! loop; the allocations made inside the run call must be equal at both
//! horizons. What remains is per run, not per event: the final reports
//! and the chip core's PU heap.

use regbal_eval::{device_scenarios, reference_program};
use regbal_sim::device::{ChipCore, PKT_BASE};
use regbal_sim::Device;
use regbal_workloads::fill_packets;
use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

struct Counting;

thread_local! {
    static ALLOCATIONS: Cell<u64> = const { Cell::new(0) };
}

fn count_one() {
    // `try_with`: allocations during thread teardown go uncounted.
    let _ = ALLOCATIONS.try_with(|c| c.set(c.get() + 1));
}

// SAFETY: every method forwards to `System` unchanged; the counter is a
// const-initialized thread-local `Cell` that never allocates.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        count_one();
        System.alloc(layout)
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        count_one();
        System.alloc_zeroed(layout)
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        count_one();
        System.realloc(ptr, layout, new_size)
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout)
    }
}

#[global_allocator]
static GLOBAL: Counting = Counting;

fn allocations() -> u64 {
    ALLOCATIONS.with(Cell::get)
}

/// Builds the virtual-register `device-4`, runs it to `cycles` under
/// `core`, and returns the allocations made inside the run call with
/// the chip cycles it reached.
fn run_counted(core: ChipCore, cycles: u64) -> (u64, u64) {
    let spec = device_scenarios()
        .into_iter()
        .find(|s| s.name == "device-4")
        .expect("the device-4 scenario")
        .spec;
    let program = reference_program(&spec);
    let mut device = Device::new(spec);
    fill_packets(device.chip_mut().memory_mut(), PKT_BASE, spec.packets, 5);
    device.add_cp(program.cp);
    for (pu, funcs) in program.workers.into_iter().enumerate() {
        for func in funcs {
            device.add_worker(pu, func);
        }
    }
    let before = allocations();
    let reports = device.run(core, cycles);
    let made = allocations() - before;
    assert!(
        !device.all_halted(),
        "{core:?} drained before {cycles} cycles"
    );
    let reached = reports.iter().map(|r| r.cycles).max().unwrap_or(0);
    (made, reached)
}

#[test]
fn running_further_allocates_nothing_more() {
    for core in [
        ChipCore::Event,
        ChipCore::Reference { granularity: 1 },
        ChipCore::Reference { granularity: 64 },
    ] {
        let (short, short_cycles) = run_counted(core, 8_000);
        let (long, long_cycles) = run_counted(core, 40_000);
        assert!(
            long_cycles >= 4 * short_cycles,
            "{core:?}: the longer run must do more work ({short_cycles} vs {long_cycles} cycles)"
        );
        assert_eq!(
            short, long,
            "{core:?}: {short} allocations to {short_cycles} cycles, {long} to {long_cycles}"
        );
    }
}
