//! Golden simulator reports: everything the simulator reports over a
//! fixed corpus, compared byte for byte with
//! `tests/golden/sim_reports.txt`.
//!
//! Each line is one run of one case under one core. It carries FNV-1a
//! digests of the `{:?}` of every PU's [`RunReport`] (all fields), of
//! every PU's trace (bounded, so long runs pin `trace_dropped` too) and
//! of the case's output memory, plus the readable cycle and drop
//! counts. The corpus:
//!
//! * the 11 benchmark kernels, four virtual-register threads on one PU,
//!   under the reference slice loop at granularity 1 and 64 and under
//!   the event core;
//! * two kernel mixes compiled through the fallback ladder at a
//!   register-file size that spills, run with the sanitizer armed;
//! * the virtual-register `device-4` and `device-16` packet devices
//!   (command processor plus ring workers) on both cores;
//! * the sanitizer's diagnostic shapes — shared-register clobber,
//!   scratchpad clobber, uninitialized read (in an instruction and in
//!   a branch), foreign private write — and an unlowered call, on a
//!   lone PU.
//!
//! `tests/event_core.rs` compares the two cores with each other; both
//! share the per-instruction interpreter, so only a file like this one
//! catches a change to what that interpreter computes. After an
//! intentional change, regenerate the file with
//! `REGBAL_BLESS=1 cargo test --test sim_golden` and review the diff.

use regbal_core::{EngineConfig, LadderStep, ScratchParams, SpillTrajectory, DEFAULT_SPILL_BASE};
use regbal_eval::{device_scenarios, ladder_sanitizer, reference_program};
use regbal_ir::{parse_func, parse_module, Func, MemSpace};
use regbal_sim::device::{ChipCore, PKT_BASE};
use regbal_sim::{
    Chip, Device, Memory, RunReport, SanitizerConfig, SimConfig, Simulator, StopWhen,
};
use regbal_workloads::{fill_packets, Kernel, Workload};
use std::fmt::Write as _;
use std::ops::Range;

const GOLDEN: &str = concat!(env!("CARGO_MANIFEST_DIR"), "/tests/golden/sim_reports.txt");

/// Trace events kept per PU: small enough that every long case drops
/// some, so the drop count is pinned along with the kept prefix.
const TRACE_CAPACITY: usize = 48;

/// Packets per kernel thread.
const PACKETS: u32 = 3;

/// Cycle horizon of the kernel and mix chips (every thread drains well
/// before it).
const KERNEL_CYCLES: u64 = 2_000_000;

/// The cores every chip case runs under.
const CORES: [ChipCore; 3] = [
    ChipCore::Reference { granularity: 1 },
    ChipCore::Reference { granularity: 64 },
    ChipCore::Event,
];

/// 64-bit FNV-1a.
fn fnv1a(bytes: &[u8]) -> u64 {
    bytes.iter().fold(0xcbf2_9ce4_8422_2325, |h, &b| {
        (h ^ u64::from(b)).wrapping_mul(0x0100_0000_01b3)
    })
}

fn core_name(core: ChipCore) -> String {
    match core {
        ChipCore::Reference { granularity } => format!("slice{granularity}"),
        ChipCore::Event => "event".to_string(),
    }
}

/// The golden line of one finished run: the reports, the traces, the
/// output bytes.
fn line(case: &str, core: &str, reports: &[RunReport], traces: &[String], output: &[u8]) -> String {
    let mut debug = String::new();
    for r in reports {
        writeln!(debug, "{r:?}").unwrap();
    }
    format!(
        "{case} {core} cycles={} dropped={} sanitizer={} errors={} reports={:016x} traces={:016x} memory={:016x}",
        reports.iter().map(|r| r.cycles).max().unwrap_or(0),
        reports.iter().map(|r| r.trace_dropped).sum::<u64>(),
        reports.iter().map(|r| r.sanitizer.len()).sum::<usize>(),
        reports.iter().filter(|r| r.error.is_some()).count(),
        fnv1a(debug.as_bytes()),
        fnv1a(traces.concat().as_bytes()),
        fnv1a(output),
    )
}

fn chip_traces(chip: &Chip) -> Vec<String> {
    (0..chip.num_pus())
        .map(|pu| format!("{:?}\n", chip.pu(pu).trace()))
        .collect()
}

fn run_chip(chip: &mut Chip, core: ChipCore, cycles: u64) -> Vec<RunReport> {
    match core {
        ChipCore::Reference { granularity } => chip.run(cycles, granularity),
        ChipCore::Event => chip.run_event(cycles),
    }
}

/// A one-PU chip running `funcs` as the threads of `workloads`' slots
/// (their inputs prepared), with tracing and optionally the sanitizer.
fn kernel_chip(
    workloads: &[Workload],
    funcs: &[Func],
    sanitizer: Option<&SanitizerConfig>,
) -> Chip {
    let mut chip = Chip::new(SimConfig::default(), 1);
    for w in workloads {
        w.prepare(chip.memory_mut(), 1000 + w.slot as u64);
    }
    chip.pu_mut(0).enable_trace(TRACE_CAPACITY);
    if let Some(cfg) = sanitizer {
        chip.enable_sanitizer(0, cfg.clone());
    }
    for f in funcs {
        chip.add_thread(0, f.clone());
    }
    chip
}

/// The concatenated output regions of `workloads`.
fn outputs(memory: &Memory, workloads: &[Workload]) -> Vec<u8> {
    workloads
        .iter()
        .flat_map(|w| {
            let (addr, len) = w.output_region();
            memory.read_bytes(MemSpace::Scratch, addr, len)
        })
        .collect()
}

/// Runs a kernel-group chip under every core.
fn kernel_lines(
    lines: &mut Vec<String>,
    case: &str,
    workloads: &[Workload],
    funcs: &[Func],
    sanitizer: Option<&SanitizerConfig>,
) {
    for core in CORES {
        let mut chip = kernel_chip(workloads, funcs, sanitizer);
        let reports = run_chip(&mut chip, core, KERNEL_CYCLES);
        assert!(
            reports.iter().all(|r| r.threads.iter().all(|t| t.halted)),
            "{case} must drain"
        );
        lines.push(line(
            case,
            &core_name(core),
            &reports,
            &chip_traces(&chip),
            &outputs(chip.memory(), workloads),
        ));
    }
}

/// The kernel mixes, the register-file size each is compiled at and
/// the ladder's scratchpad capacity: the first settles on the
/// scratchpad rung (spad spill traffic), the second, with no
/// scratchpad, on the memory spill rung (SRAM spill traffic).
const MIXES: [(&str, [Kernel; 4], usize, usize); 2] = [
    (
        "mix-md5-wraps",
        [Kernel::Md5, Kernel::WrapsRx, Kernel::WrapsTx, Kernel::Crc],
        32,
        16,
    ),
    (
        "mix-reed-drr",
        [Kernel::Reed, Kernel::Drr, Kernel::Url, Kernel::Frag],
        16,
        0,
    ),
];

fn mix_workloads(kernels: &[Kernel]) -> Vec<Workload> {
    kernels
        .iter()
        .enumerate()
        .map(|(slot, &k)| Workload::new(k, slot, PACKETS))
        .collect()
}

/// Cycle horizon of a device run that drains.
const DEVICE_CYCLES: u64 = 10_000_000;

/// Runs the virtual-register build of the device family's scenario
/// `name` to `cycles` under `cores`; a run that the horizon does not
/// cut short must drain.
fn device_lines(lines: &mut Vec<String>, name: &str, cycles: u64, cores: &[ChipCore]) {
    let spec = device_scenarios()
        .into_iter()
        .find(|s| s.name == name)
        .expect("a device scenario")
        .spec;
    let program = reference_program(&spec);
    for &core in cores {
        let mut device = Device::new(spec);
        fill_packets(device.chip_mut().memory_mut(), PKT_BASE, spec.packets, 7);
        device.add_cp(program.cp.clone());
        for (pu, funcs) in program.workers.iter().enumerate() {
            for func in funcs {
                device.add_worker(pu, func.clone());
            }
        }
        for pu in 0..=spec.pus {
            device.chip_mut().pu_mut(pu).enable_trace(TRACE_CAPACITY);
        }
        let reports = device.run(core, cycles);
        let full = cycles == DEVICE_CYCLES;
        assert_eq!(device.all_halted(), full, "{name} at {cycles}");
        let memory = device.chip().memory();
        let mut output = memory.read_bytes(MemSpace::Scratch, 0, 0x2000);
        output.extend(memory.read_bytes(MemSpace::Sram, 0, 0x4000));
        let case = if full {
            name.to_string()
        } else {
            format!("{name}/{cycles}")
        };
        lines.push(line(
            &case,
            &core_name(core),
            &reports,
            &chip_traces(device.chip()),
            &output,
        ));
    }
}

/// A lone-PU case: its threads, the watchdog's private banks and the
/// sanitizer layout.
type Shape = (&'static str, Vec<Func>, Vec<Range<u32>>, SanitizerConfig);

/// The sanitizer's diagnostic shapes and an unlowered call: two-thread
/// programs on a lone PU with the given watchdog banks and sanitizer.
fn shape_cases() -> Vec<Shape> {
    let p = |src: &str| parse_func(src).unwrap();
    let mut clobber = SanitizerConfig::with_layout(std::iter::once(0..4).collect(), Some(4..8));
    clobber.fragments.insert((0, 4), "v0#0".into());
    clobber.fragments.insert((1, 4), "v7#0".into());
    let module = parse_module(
        "func main {\nbb0:\n nop\n call helper\n halt\n}\nfunc helper {\nbb0:\n nop\n halt\n}",
    )
    .unwrap();
    let main = module.iter().find(|f| f.name == "main").unwrap().clone();
    vec![
        (
            "shared-clobber",
            vec![
                p("func a {\nbb0:\n r4 = mov 5\n ctx\n r5 = mov 0\n store scratch[r5+0], r4\n halt\n}"),
                p("func b {\nbb0:\n r4 = mov 99\n halt\n}"),
            ],
            vec![],
            clobber,
        ),
        (
            "spad-clobber",
            vec![
                p("func a {\nbb0:\n r1 = mov 256\n r2 = mov 5\n store spad[r1+0], r2\n ctx\n \
                   r3 = load spad[r1+0]\n r4 = mov 0\n store scratch[r4+0], r3\n halt\n}"),
                p("func b {\nbb0:\n r11 = mov 256\n r12 = mov 99\n store spad[r11+0], r12\n halt\n}"),
            ],
            vec![],
            SanitizerConfig::default(),
        ),
        (
            "uninitialized-read",
            vec![p(
                "func t {\nbb0:\n r1 = add r5, 7\n r2 = mov 0\n store scratch[r2+0], r1\n halt\n}",
            )],
            vec![],
            SanitizerConfig::default(),
        ),
        (
            // The finding is at a terminator: pins the branch's `Pc`.
            "uninitialized-branch",
            vec![p(
                "func t {\nbb0:\n r1 = mov 1\n bne r6, r1, bb1, bb1\nbb1:\n halt\n}",
            )],
            vec![],
            SanitizerConfig::default(),
        ),
        (
            "foreign-private-write",
            vec![
                p("func a {\nbb0:\n r2 = mov 5\n ctx\n r3 = mov 0\n store scratch[r3+0], r2\n halt\n}"),
                p("func b {\nbb0:\n r2 = mov 99\n halt\n}"),
            ],
            vec![0..8, 8..16],
            SanitizerConfig::with_layout(vec![0..8, 8..16], None),
        ),
        (
            "unlowered-call",
            vec![
                main,
                p("func good {\nbb0:\n v0 = mov 8\n v1 = mov 4\n store scratch[v1+0], v0\n halt\n}"),
            ],
            vec![],
            SanitizerConfig::default(),
        ),
    ]
}

/// Every golden line of the corpus, in a fixed order.
fn golden_lines() -> Vec<String> {
    let mut lines = Vec::new();
    for kernel in Kernel::ALL {
        let workloads: Vec<Workload> = (0..4)
            .map(|slot| Workload::new(kernel, slot, PACKETS))
            .collect();
        let funcs: Vec<Func> = workloads.iter().map(|w| w.func.clone()).collect();
        kernel_lines(&mut lines, kernel.name(), &workloads, &funcs, None);
    }
    for (case, kernels, nreg, scratch_capacity) in MIXES {
        let workloads = mix_workloads(&kernels);
        let virt: Vec<Func> = workloads.iter().map(|w| w.func.clone()).collect();
        let scratch = ScratchParams {
            capacity: scratch_capacity,
            ..ScratchParams::default()
        };
        let alloc = SpillTrajectory::new(&virt[..], EngineConfig::default(), DEFAULT_SPILL_BASE)
            .ladder(nreg, &scratch)
            .expect("the ladder settles");
        assert!(
            matches!(
                alloc.step,
                LadderStep::BalancedScratch | LadderStep::BalancedSpill
            ),
            "{case} must spill at Nreg {nreg}, settled on {:?}",
            alloc.step
        );
        let funcs = alloc.rewrite().expect("a settled ladder rewrites");
        let sanitizer = ladder_sanitizer(&alloc);
        kernel_lines(
            &mut lines,
            &format!("{case}@{nreg}:{:?}", alloc.step),
            &workloads,
            &funcs,
            Some(&sanitizer),
        );
    }
    let both = [ChipCore::Reference { granularity: 1 }, ChipCore::Event];
    device_lines(&mut lines, "device-4", DEVICE_CYCLES, &both);
    device_lines(&mut lines, "device-16", DEVICE_CYCLES, &both);
    // Cut short mid-flight: every core must stop each PU at the same
    // point of its horizon.
    device_lines(&mut lines, "device-4", 20_011, &CORES);
    // The iteration stop condition of a lone PU.
    let workloads: Vec<Workload> = (0..4)
        .map(|slot| Workload::new(Kernel::Crc, slot, PACKETS))
        .collect();
    let mut sim = Simulator::new(SimConfig::default());
    sim.enable_trace(TRACE_CAPACITY);
    for w in &workloads {
        w.prepare(sim.memory_mut(), 1000 + w.slot as u64);
        sim.add_thread(w.func.clone());
    }
    let report = sim.run(StopWhen::Iterations(2));
    let trace = format!("{:?}\n", sim.trace());
    lines.push(line(
        "crc-iterations",
        "solo",
        &[report],
        &[trace],
        &outputs(sim.memory(), &workloads),
    ));
    for (case, funcs, private_ranges, sanitizer) in shape_cases() {
        let mut sim = Simulator::new(SimConfig {
            private_ranges,
            ..SimConfig::default()
        });
        sim.enable_trace(TRACE_CAPACITY);
        sim.enable_sanitizer(sanitizer);
        for f in funcs {
            sim.add_thread(f);
        }
        let report = sim.run(StopWhen::Cycles(10_000));
        let trace = format!("{:?}\n", sim.trace());
        let output = sim.memory().read_bytes(MemSpace::Scratch, 0, 64);
        lines.push(line(case, "solo", &[report], &[trace], &output));
    }
    lines
}

#[test]
fn sim_reports_match_the_golden_file() {
    let lines = golden_lines();
    let text = lines.join("\n") + "\n";

    // The corpus must keep reaching what it exists to pin: dropped
    // trace events, sanitizer findings and a structured error.
    assert!(
        lines.iter().any(|l| !l.contains(" dropped=0 ")),
        "no trace drops"
    );
    assert!(
        lines.iter().any(|l| !l.contains(" sanitizer=0 ")),
        "no findings"
    );
    assert!(
        lines.iter().any(|l| l.contains(" errors=1 ")),
        "no structured error"
    );

    if std::env::var_os("REGBAL_BLESS").is_some() {
        std::fs::create_dir_all(std::path::Path::new(GOLDEN).parent().unwrap()).unwrap();
        std::fs::write(GOLDEN, &text).unwrap();
        return;
    }
    let golden = std::fs::read_to_string(GOLDEN)
        .unwrap_or_else(|e| panic!("{GOLDEN}: {e} (regenerate with REGBAL_BLESS=1)"));
    if golden != text {
        let first = golden
            .lines()
            .zip(text.lines())
            .position(|(a, b)| a != b)
            .unwrap_or(golden.lines().count().min(text.lines().count()));
        panic!(
            "simulator reports diverge from {GOLDEN} at line {}:\n  golden: {}\n  now:    {}",
            first + 1,
            golden.lines().nth(first).unwrap_or("<end of file>"),
            text.lines().nth(first).unwrap_or("<end of output>"),
        );
    }
}
