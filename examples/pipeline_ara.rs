//! A realistic asymmetric scenario: an IP-forwarding pipeline sharing a
//! micro-engine with two MD5 digest threads (the paper's scenario 2).
//!
//! Compares the fixed-partition spilling baseline against the balancing
//! allocator, measuring steady-state cycles per packet in the
//! cycle-accurate simulator.
//!
//! Run with `cargo run --release --example pipeline_ara`.

use regbal_core::allocate_threads;
use regbal_core::chaitin::partition;
use regbal_ir::Func;
use regbal_sim::{SimConfig, Simulator, StopWhen};
use regbal_workloads::{Kernel, Workload};

const NREG: usize = 48; // scaled register file: 12 per thread baseline
const WINDOW: u64 = 300_000;

fn main() {
    let kernels = [Kernel::L2l3fwdRx, Kernel::L2l3fwdTx, Kernel::Md5, Kernel::Md5];
    let workloads: Vec<Workload> = kernels
        .iter()
        .enumerate()
        .map(|(slot, &k)| Workload::new(k, slot, 1 << 20))
        .collect();
    let funcs: Vec<Func> = workloads.iter().map(|w| w.func.clone()).collect();

    // Baseline: every thread gets a fixed NREG/4 bank and spills.
    let spill = partition(&funcs, NREG, 0x7_0000).expect("baseline allocates").funcs;

    // Ours: balance the whole file across the four threads.
    let alloc = allocate_threads(&funcs, NREG).expect("balancing fits");
    let share = alloc.rewrite_funcs(&funcs);

    println!("thread allocation (balancing allocator):");
    for (i, t) in alloc.threads.iter().enumerate() {
        println!(
            "  {:12} PR={:2} SR={:2} moves={}",
            kernels[i].name(),
            t.pr(),
            t.sr(),
            t.moves()
        );
    }

    let measure = |fs: &[Func]| -> Vec<f64> {
        let mut sim = Simulator::new(SimConfig::default());
        for w in &workloads {
            w.prepare(sim.memory_mut(), 1234 + w.slot as u64);
        }
        for f in fs {
            sim.add_thread(f.clone());
        }
        let report = sim.run(StopWhen::Cycles(WINDOW));
        assert!(report.violations.is_empty());
        report.threads.iter().map(|t| t.cycles_per_iteration).collect()
    };

    let cpi_spill = measure(&spill);
    let cpi_share = measure(&share);
    println!("\nsteady-state cycles per packet ({}k-cycle window):", WINDOW / 1000);
    println!("  {:12} {:>10} {:>10} {:>9}", "thread", "spilling", "sharing", "speedup");
    for i in 0..4 {
        println!(
            "  {:12} {:>10.0} {:>10.0} {:>8.1}%",
            kernels[i].name(),
            cpi_spill[i],
            cpi_share[i],
            100.0 * (1.0 - cpi_share[i] / cpi_spill[i])
        );
    }
    println!("\nthe digest threads speed up because their spill traffic is gone;");
    println!("the forwarding threads pay only a slight scheduling cost.");
}
