//! End-to-end tests of the Chaitin spilling baseline (the fixed
//! 32-register-partition compiler the paper compares against), plus the
//! head-to-head behaviour the paper's Table 3 rests on: under a tight
//! partition the baseline spills (extra context switches), while the
//! balancing allocator stays spill-free.

mod common;

use common::{run_reference, run_threads, slot_variants};
use regbal_core::chaitin::partition;
use regbal_ir::{Func, MemSpace};
use regbal_sim::{SimConfig, Simulator, StopWhen};
use regbal_workloads::{Kernel, Workload};

const PACKETS: u32 = 4;

/// First spill slot of thread 0; thread `t` spills from
/// `SPILL_BASE + t·0x1000`, above every slot's SRAM tables.
const SPILL_BASE: i64 = 0x4_0000;

fn funcs_of(workloads: &[Workload]) -> Vec<Func> {
    workloads.iter().map(|w| w.func.clone()).collect()
}

fn chaitin_roundtrip(kernel: Kernel, k: usize) {
    let workloads = slot_variants(kernel, 4, PACKETS);
    let physical = partition(&funcs_of(&workloads), 4 * k, SPILL_BASE)
        .unwrap_or_else(|e| panic!("{} k={k}: {e}", kernel.name()))
        .funcs;

    let config = SimConfig {
        private_ranges: (0..4u32).map(|t| t * k as u32..(t + 1) * k as u32).collect(),
        ..SimConfig::default()
    };
    let (ref_out, _) = run_reference(&workloads, PACKETS as u64);
    let (phys_out, report) = run_threads(&physical, &workloads, PACKETS as u64, config);
    assert!(report.violations.is_empty(), "{}", kernel.name());
    assert_eq!(ref_out, phys_out, "{} k={k}", kernel.name());
}

#[test]
fn baseline_all_kernels_at_32() {
    for k in Kernel::ALL {
        chaitin_roundtrip(k, 32);
    }
}

#[test]
fn baseline_md5_with_spills() {
    // A 12-register partition forces md5 to spill; results must still
    // be exact.
    chaitin_roundtrip(Kernel::Md5, 12);
}

#[test]
fn baseline_wraps_with_spills() {
    chaitin_roundtrip(Kernel::WrapsRx, 12);
}

/// The paper's core performance mechanism: spilling inflates context
/// switches (each spill op is a memory access), while the balancing
/// allocator keeps the CTX count at the spill-free level and pays only
/// cheap moves.
#[test]
fn spills_inflate_ctx_count_sharing_does_not() {
    let w = Workload::new(Kernel::Md5, 0, PACKETS);
    let base_ctx = w.func.num_ctx_insts();

    let spilled = partition(std::slice::from_ref(&w.func), 12, SPILL_BASE).unwrap();
    assert!(
        spilled.spills[0] > 0,
        "12 registers must force md5 to spill"
    );
    assert!(
        spilled.funcs[0].num_ctx_insts() > base_ctx,
        "spill code adds context switches"
    );

    let funcs = vec![w.func.clone(); 4];
    let shared = regbal_core::allocate_threads(&funcs, 4 * 16).expect("sharing fits 64 registers");
    let rewritten = shared.rewrite_funcs(&funcs);
    assert_eq!(
        rewritten[0].num_ctx_insts(),
        base_ctx,
        "the balancing allocator never spills here"
    );
    // It may pay some moves instead, which are 1-cycle ALU ops.
    assert!(rewritten[0].num_insts() >= w.func.num_insts());
}

/// Spill slots must not leak between threads: two spilled threads with
/// disjoint spill areas stay correct.
#[test]
fn spill_areas_are_disjoint() {
    let w0 = Workload::new(Kernel::Md5, 0, 2);
    let w1 = Workload::new(Kernel::Md5, 1, 2);
    let workloads = vec![w0, w1];
    let physical = partition(&funcs_of(&workloads), 24, SPILL_BASE)
        .unwrap()
        .funcs;
    let (ref_out, _) = run_reference(&workloads, 2);
    let (phys_out, report) = run_threads(&physical, &workloads, 2, SimConfig::default());
    assert!(report.violations.is_empty());
    assert_eq!(ref_out, phys_out);
}

/// The spill areas live in SRAM clear of every kernel table: four
/// spilling md5 threads leave the SRAM below the spill base exactly as
/// the virtual-register reference leaves it, and each thread's spill
/// stores land in its own `0x1000`-byte area (pre-filled with a marker
/// byte the stores overwrite).
#[test]
fn spill_base_clear_of_tables() {
    const MARK: u8 = 0xA5;
    let workloads = slot_variants(Kernel::Md5, 4, 2);
    let funcs = funcs_of(&workloads);
    let baseline = partition(&funcs, 48, SPILL_BASE).unwrap();
    assert!(
        baseline.spills.iter().all(|&s| s > 0),
        "md5 spills at 12 registers"
    );
    let areas = SPILL_BASE as usize..SPILL_BASE as usize + 4 * 0x1000;
    let sram = |funcs: &[Func]| {
        let mut sim = Simulator::new(SimConfig::default());
        for w in &workloads {
            w.prepare(sim.memory_mut(), 0xBEEF + w.slot as u64);
        }
        sim.memory_mut()
            .write_bytes(MemSpace::Sram, SPILL_BASE as u32, &vec![MARK; areas.len()]);
        for f in funcs {
            sim.add_thread(f.clone());
        }
        let report = sim.run(StopWhen::Iterations(u64::MAX));
        assert!(report.threads.iter().all(|t| t.halted));
        sim.memory().read_bytes(MemSpace::Sram, 0, areas.end)
    };
    let (reference, spilled) = (sram(&funcs), sram(&baseline.funcs));
    assert!(
        reference[..areas.start] == spilled[..areas.start],
        "spill code wrote below its base"
    );
    assert!(reference[areas.clone()].iter().all(|&b| b == MARK));
    for (t, area) in spilled[areas].chunks(0x1000).enumerate() {
        assert!(
            area.iter().any(|&b| b != MARK),
            "thread {t} spilled outside its area"
        );
    }
}
