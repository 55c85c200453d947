//! Event-driven chip core vs the reference interleaving, end to end:
//! the event core must reproduce the granularity-1 slice loop's per-PU
//! reports **exactly** — cycles, per-thread statistics, traces and
//! memory — on cross-PU handshakes, CSB-dense benchmark kernels,
//! devices with halted and empty PUs, and a full packet device.

use regbal_ir::{parse_func, Func, MemSpace};
use regbal_sim::device::{ChipCore, PKT_BASE};
use regbal_sim::{Chip, Device, DeviceSpec, RunReport, SimConfig};
use regbal_workloads::{build_worker, expected_total_digest, fill_packets, Kernel, Workload};

/// A producer that bumps a shared SRAM head and a consumer that spins
/// on it — every iteration is a cross-PU store-then-load handshake, so
/// any batch that runs past a store another PU should have seen first
/// diverges immediately.
fn handshake_stages() -> Vec<Func> {
    let rx = parse_func(
        "
func rx {
bb0:
    v0 = mov 512
    v1 = mov 24
    v2 = mov 3
    jump push
push:
    v3 = load sram[v0+0]
    store sram[v3+64], v2
    v3 = add v3, 4
    store sram[v0+0], v3
    v2 = mul v2, 3
    v2 = and v2, 255
    v1 = sub v1, 1
    iter_end
    bne v1, 0, push, done
done:
    halt
}",
    )
    .unwrap();
    let tx = parse_func(
        "
func tx {
bb0:
    v0 = mov 512
    v1 = mov 24
    v2 = mov 0
    jump wait
wait:
    v3 = load sram[v0+0]
    v4 = load sram[v0+4]
    beq v3, v4, wait, pop
pop:
    v5 = load sram[v4+64]
    v2 = add v2, v5
    v4 = add v4, 4
    store sram[v0+4], v4
    store scratch[v0+0], v2
    v1 = sub v1, 1
    iter_end
    bne v1, 0, wait, done
done:
    halt
}",
    )
    .unwrap();
    vec![rx, tx]
}

fn handshake_chip() -> Chip {
    let mut chip = Chip::new(SimConfig::default(), 2);
    chip.memory_mut().write_word(MemSpace::Sram, 512, 512);
    chip.memory_mut().write_word(MemSpace::Sram, 516, 512);
    for (pu, f) in handshake_stages().into_iter().enumerate() {
        chip.add_thread(pu, f);
    }
    chip
}

/// Runs the same chip construction under the reference loop and the
/// event core, asserting the event core's reports and memory equal the
/// reference's.
fn assert_cores_identical(build: impl Fn() -> Chip, cycles: u64) -> Vec<RunReport> {
    let mut reference = build();
    let ref_reports = reference.run(cycles, 1);

    let mut event = build();
    let event_reports = event.run_event(cycles);
    assert_eq!(
        event_reports, ref_reports,
        "event core diverged from the reference interleaving"
    );
    for space in [MemSpace::Scratch, MemSpace::Sram] {
        assert_eq!(
            event.memory().read_bytes(space, 0, 4096),
            reference.memory().read_bytes(space, 0, 4096),
            "{space:?} diverged"
        );
    }
    ref_reports
}

/// Cross-PU store visibility: the flow-controlled handshake forces a
/// batch boundary at every shared store/load pair.
#[test]
fn cross_pu_handshake_is_identical_across_cores() {
    let reports = assert_cores_identical(handshake_chip, 3_000_000);
    assert!(reports.iter().all(|r| r.threads.iter().all(|t| t.halted)));
}

/// The handshake under a cycle budget that strands both PUs mid-flight:
/// partial progress must also be identical (batches stop exactly at the
/// budget in every core).
#[test]
fn truncated_run_is_identical_across_cores() {
    for budget in [0, 1, 97, 1_000, 14_401] {
        assert_cores_identical(handshake_chip, budget);
    }
}

/// CSB-dense pipelines: benchmark kernels whose main loops context
/// switch every few instructions (`reed` is the suite's CSB-heaviest;
/// `md5` carries bursts; `drr` does read-modify-write chains), four
/// threads per PU across three PUs.
#[test]
fn csb_heavy_kernels_are_identical_across_cores() {
    let build = || {
        let mut chip = Chip::new(SimConfig::default(), 3);
        let mut slot = 0;
        for (pu, kernel) in [Kernel::Reed, Kernel::Md5, Kernel::Drr].into_iter().enumerate() {
            for _ in 0..4 {
                let w = Workload::new(kernel, slot, 6);
                w.prepare(chip.memory_mut(), 1234 + slot as u64);
                chip.add_thread(pu, w.func.clone());
                slot += 1;
            }
        }
        chip
    };
    let reports = assert_cores_identical(build, 4_000_000);
    assert!(reports.iter().all(|r| r.threads.iter().all(|t| t.halted)));
}

/// Halted-PU edges: a PU that halts on its first instruction, a PU with
/// no threads at all, and a live spinner must coexist in the heap
/// without the dead PUs disturbing the schedule.
#[test]
fn halted_and_empty_pus_are_identical_across_cores() {
    let build = || {
        let mut chip = Chip::new(SimConfig::default(), 3);
        chip.add_thread(0, parse_func("func dead {\nbb0:\n halt\n}").unwrap());
        // PU 1 left without threads.
        chip.add_thread(
            2,
            parse_func(
                "func spin {\nbb0:\n v0 = mov 64\n jump l\nl:\n v1 = load sram[v0+0]\n v1 = add v1, 1\n store sram[v0+0], v1\n iter_end\n jump l\n}",
            )
            .unwrap(),
        );
        chip
    };
    assert_cores_identical(build, 20_000);
}

/// The full device — command processor, 8 worker PUs, 16 rings — is
/// byte-identical across the reference loop and the event core, and
/// drains every packet to the model digest.
#[test]
fn device_reports_identical_across_cores() {
    let spec = DeviceSpec {
        pus: 8,
        threads_per_pu: 2,
        queue_capacity: 4,
        packets: 96,
    };
    let run = |core: ChipCore| {
        let mut device = Device::new(spec);
        fill_packets(device.chip_mut().memory_mut(), PKT_BASE, spec.packets, 11);
        device.add_cp(spec.command_processor());
        for pu in 0..spec.pus {
            for t in 0..spec.threads_per_pu {
                device.add_worker(pu, build_worker(&spec, spec.ring(pu, t)));
            }
        }
        let reports = device.run(core, 10_000_000);
        assert!(device.all_halted(), "device must drain");
        (reports, device.total_digest(), device.total_processed())
    };
    let expected = {
        let mut probe =
            regbal_sim::Memory::new(0, 0, spec.sim_config().sdram_size, 0);
        fill_packets(&mut probe, PKT_BASE, spec.packets, 11);
        expected_total_digest(&probe, spec.packets)
    };

    let reference = run(ChipCore::Reference { granularity: 1 });
    assert_eq!(reference.1, expected, "device digest must match the model");
    assert_eq!(reference.2, u64::from(spec.packets));
    assert_eq!(run(ChipCore::Event), reference);
}
