//! The `device-64` workload: the 64-PU packet device compiled once by
//! the degradation ladder at Nreg 64 (set-up), then run repeatedly on
//! the serial event core — the simulator-bound workload, with no
//! allocation in its timed part.

use crate::layers;
use crate::metrics::{self, Run};
use crate::timing::Timing;
use crate::trace::Tracer;
use crate::Args;
use regbal_eval::{
    compile_program, device_scenarios, run_device, DeviceOutcome, DeviceProgram, Ladder,
};
use regbal_sim::device::PKT_BASE;
use regbal_sim::{ChipCore, DeviceSpec, Memory};
use regbal_workloads::{expected_total_digest, fill_packets};
use std::time::{Duration, Instant};

/// Register-file size the device is compiled for.
const NREG: usize = 64;

/// Cycle budget of one run; every run halts far below it.
const BUDGET: u64 = 20_000_000;

/// Set-ups per run; `setup_s` is their median.
const SETUPS: usize = 3;

/// Device runs of the traced pass, each untraced and traced.
const TRACE_RUNS: usize = 2;

/// The 64-PU scenario (4 PUs at `--smoke` size).
fn spec(args: &Args) -> Result<DeviceSpec, String> {
    let name = if args.smoke { "device-4" } else { "device-64" };
    device_scenarios()
        .into_iter()
        .find(|s| s.name == name)
        .map(|s| s.spec)
        .ok_or_else(|| format!("no `{name}` device scenario"))
}

/// The seeded packet buffer's host-model digest, and a fingerprint of
/// the buffer itself.
fn expected(spec: &DeviceSpec, seed: u64) -> (u32, u64) {
    let mut memory = Memory::new(0, 0, spec.sim_config().sdram_size, 0);
    fill_packets(&mut memory, PKT_BASE, spec.packets, seed);
    let bytes = memory.read_bytes(
        regbal_ir::MemSpace::Sdram,
        PKT_BASE,
        spec.packets as usize * 64,
    );
    (
        expected_total_digest(&memory, spec.packets),
        metrics::fnv(metrics::FNV_START, &bytes),
    )
}

/// Runs the device once, checking the model's end-to-end invariants.
fn run_once(
    spec: &DeviceSpec,
    program: &DeviceProgram,
    seed: u64,
    sanitize: bool,
    digest: u32,
    run: &mut Run,
) -> DeviceOutcome {
    let outcome = run_device(spec, program, ChipCore::Event, BUDGET, seed, sanitize);
    if !outcome.halted {
        run.failed += 1;
    } else if outcome.processed != u64::from(spec.packets) || outcome.digest != digest {
        run.wrong(format!(
            "device run processed {} of {} packets with digest {:08x}, expected {digest:08x}",
            outcome.processed, spec.packets, outcome.digest
        ));
    }
    if outcome.sanitizer_violations > 0 {
        run.wrong(format!(
            "{} sanitizer violation(s)",
            outcome.sanitizer_violations
        ));
    }
    outcome
}

/// Checks that a run repeats the first run's cycle count exactly.
fn same_cycles(first: &mut Option<u64>, outcome: &DeviceOutcome, run: &mut Run) {
    match first {
        Some(cycles) if *cycles != outcome.cycles => {
            run.wrong(format!(
                "a device run took {} cycles, the first {cycles}",
                outcome.cycles
            ));
        }
        Some(_) => {}
        None => *first = Some(outcome.cycles),
    }
}

fn compile(spec: &DeviceSpec) -> Result<DeviceProgram, String> {
    compile_program(spec, &Ladder, NREG)
}

/// `device-64`, timed.
pub fn device(args: &Args) -> Result<Run, String> {
    let spec = spec(args)?;
    let (digest, inputs) = expected(&spec, args.seed);
    let mut run = Run {
        inputs,
        ..Run::default()
    };
    // The serial event core keeps one thread busy.
    let mut timing = Timing::new(1);
    let mut program = None;
    for _ in 0..SETUPS {
        program = Some(timing.setup(|| compile(&spec))?);
    }
    let program = program.expect("at least one set-up");
    let mut first = None;
    let started = Instant::now();
    while run.attempted == 0 || (!args.smoke && started.elapsed().as_secs_f64() < args.seconds) {
        let outcome = timing.stretch(|timing| {
            let t = Instant::now();
            let outcome = run_once(&spec, &program, args.seed, false, digest, &mut run);
            let wall = t.elapsed();
            timing.segment(wall, &[wall.as_secs_f64() * 1e3]);
            Ok(outcome)
        })?;
        run.attempted += 1;
        same_cycles(&mut first, &outcome, &mut run);
    }
    timing.finish(&mut run);
    Ok(run)
}

/// The traced `device-64` run: the compile in its span, one sanitized
/// run, then [`TRACE_RUNS`] runs each untraced and traced (alternating
/// which goes first).
pub fn device_traced(args: &Args) -> Result<(Run, Tracer), String> {
    let spec = spec(args)?;
    let (digest, inputs) = expected(&spec, args.seed);
    let mut run = Run {
        inputs,
        ..Run::default()
    };
    let mut tracer = Tracer::new();
    let program = tracer.span("eval.compile.ladder", |_| compile(&spec))?;
    let mut first = None;
    let sanitized = run_once(&spec, &program, args.seed, true, digest, &mut run);
    same_cycles(&mut first, &sanitized, &mut run);
    let mut walls = [Duration::ZERO; 2];
    for i in 0..TRACE_RUNS {
        for traced in [i % 2 == 1, i % 2 == 0] {
            tracer.set_request(i as u64);
            let started = Instant::now();
            let outcome = if traced {
                tracer.span("sim.device_run", |_| {
                    run_once(&spec, &program, args.seed, false, digest, &mut run)
                })
            } else {
                run_once(&spec, &program, args.seed, false, digest, &mut run)
            };
            walls[usize::from(traced)] += started.elapsed();
            run.attempted += 1;
            same_cycles(&mut first, &outcome, &mut run);
            if traced {
                run.add("sim.cycles", outcome.cycles as f64);
                let ctx: u64 = outcome
                    .reports
                    .iter()
                    .flat_map(|r| &r.threads)
                    .map(|t| t.ctx_switches)
                    .sum();
                run.add("sim.ctx_switches", ctx as f64);
            }
        }
    }
    run.set(
        "trace.overhead_pct",
        100.0 * (walls[1].as_secs_f64() / walls[0].as_secs_f64() - 1.0),
    );
    layers::report(&tracer, &mut run);
    Ok((run, tracer))
}
