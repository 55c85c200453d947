//! The `eval-sweep` workload: full `run_eval` sweeps of the throughput
//! study (5 scenarios × 5 strategies × Nreg 32..128, 64 packets) on two
//! workers — the heterogeneous-mix, spill-heavy use of the allocator
//! (Chaitin, hybrid, scratchpad, ladder) plus the simulator.

use crate::layers;
use crate::metrics::{self, Run};
use crate::timing::Timing;
use crate::trace::Tracer;
use crate::Args;
use regbal_core::chaitin::{self, ChaitinConfig};
use regbal_core::{allocate_ladder, allocate_threads_with_spill};
use regbal_eval::{
    all_strategies, json, run_eval, scenarios, validate_json, AllocCache, CellReport, CellStatus,
    CompileCtx, CompiledPu, EvalConfig, EvalReport, Strategy,
};
use regbal_ir::{Func, MemSpace};
use regbal_sim::{Chip, SimConfig};
use regbal_workloads::{Bases, Workload};
use std::time::Instant;

/// Sweep workers: one per CPU of the two-CPU reference machine.
const WORKERS: usize = 2;

/// Set-ups per run; `setup_s` is their median.
const SETUPS: usize = 3;

/// The timed sweep. Cell timing is on: each cell's wall time is one
/// latency sample.
fn config(args: &Args) -> EvalConfig {
    let full = EvalConfig {
        workers: WORKERS,
        timing: true,
        seed: args.seed,
        ..EvalConfig::full()
    };
    if args.smoke {
        EvalConfig {
            packets: 4,
            nreg_sweep: vec![48, 128],
            ..full
        }
    } else {
        full
    }
}

/// The set-up: a small sweep over the same suite that faults in the
/// code paths and allocator arenas before timing.
fn warmup(args: &Args) -> EvalConfig {
    EvalConfig {
        packets: 4,
        nreg_sweep: vec![48, 128],
        timing: false,
        ..config(args)
    }
}

/// Bytes hashed from the start of each slot's packet buffer.
const FINGERPRINT_BYTES: usize = 1024;

/// A fingerprint of the packet streams the seed generates for every
/// scenario's memory slots.
fn fingerprint(config: &EvalConfig) -> u64 {
    let mut hash = metrics::FNV_START;
    for scenario in scenarios() {
        let sim = SimConfig::default();
        let mut memory = regbal_sim::Memory::new(
            sim.scratch_size,
            sim.sram_size,
            sim.sdram_size,
            sim.spad_size,
        );
        for w in scenario.workloads(config.packets).iter().flatten() {
            w.prepare(&mut memory, config.seed + w.slot as u64);
            let base = Bases::for_slot(w.slot).pkt;
            hash = metrics::fnv(
                hash,
                &memory.read_bytes(MemSpace::Sdram, base, FINGERPRINT_BYTES),
            );
        }
    }
    hash
}

/// What every sweep must reproduce exactly: per cell, its status and
/// simulated results.
type CellDigest = (String, usize, String, u64, u64, usize, usize);

fn digest(cell: &CellReport) -> CellDigest {
    (
        cell.strategy.clone(),
        cell.nreg,
        format!("{:?}", cell.status),
        cell.cycles,
        cell.throughput_ipkc.to_bits(),
        cell.moves,
        cell.spills,
    )
}

/// Checks one sweep's report: the document validates, every measured
/// cell matches its virtual-register reference and ran clean, and the
/// cells repeat `expected` (the run's first sweep) exactly.
fn check(report: &EvalReport, expected: &mut Option<Vec<CellDigest>>, run: &mut Run) {
    match json::parse(&report.to_json_string()).and_then(|doc| validate_json(&doc)) {
        Ok(_) => {}
        Err(e) => run.wrong(format!("the sweep report does not validate: {e}")),
    }
    let mut digests = Vec::new();
    for scenario in &report.scenarios {
        for cell in &scenario.cells {
            match &cell.status {
                CellStatus::Ok if !cell.checksum_ok => run.wrong(format!(
                    "{} {}@{}: output differs from the reference run",
                    scenario.name, cell.strategy, cell.nreg
                )),
                CellStatus::Ok if cell.violations + cell.sanitizer_violations > 0 => {
                    run.wrong(format!(
                        "{} {}@{}: register-safety violations",
                        scenario.name, cell.strategy, cell.nreg
                    ))
                }
                CellStatus::Error(_) | CellStatus::Timeout => run.failed += 1,
                _ => {}
            }
            digests.push(digest(cell));
        }
    }
    match expected {
        Some(first) if *first != digests => {
            run.wrong("a sweep's cells differ from the run's first sweep")
        }
        Some(_) => {}
        None => *expected = Some(digests),
    }
}

/// `eval-sweep`, timed.
pub fn sweep(args: &Args) -> Result<Run, String> {
    let config = config(args);
    let mut run = Run {
        inputs: fingerprint(&config),
        ..Run::default()
    };
    let mut timing = Timing::new(WORKERS);
    let mut warm = None;
    for _ in 0..SETUPS {
        let report = timing.setup(|| Ok(run_eval(&warmup(args))))?;
        check(&report, &mut warm, &mut run);
    }
    let mut expected = None;
    let started = Instant::now();
    let mut sweeps = 0;
    while sweeps == 0 || (!args.smoke && started.elapsed().as_secs_f64() < args.seconds) {
        let report = timing.stretch(|timing| {
            let t = Instant::now();
            let report = run_eval(&config);
            let wall = t.elapsed();
            let cells = report.scenarios.iter().flat_map(|s| &s.cells);
            let latencies = cells
                .map(|c| c.elapsed_ms.ok_or("timed sweeps record cell times"))
                .collect::<Result<Vec<f64>, _>>()?;
            timing.segment(wall, &latencies);
            Ok(report)
        })?;
        run.attempted += report
            .scenarios
            .iter()
            .map(|s| s.cells.len() as u64)
            .sum::<u64>();
        check(&report, &mut expected, &mut run);
        sweeps += 1;
    }
    timing.finish(&mut run);
    Ok(run)
}

/// A finished chip run, as `run_eval` digests it.
struct ChipRun {
    output: Vec<u8>,
    cycles: u64,
    iterations: u64,
    ctx_switches: u64,
}

/// One chip run of `pu_funcs` over the scenario's prepared memory — the
/// calls `run_eval` makes for a reference or a cell. `None` when a
/// thread does not halt within the budget.
fn chip_run(
    pu_funcs: &[Vec<Func>],
    workloads: &[Vec<Workload>],
    config: &EvalConfig,
    degraded: &[u64],
) -> Option<ChipRun> {
    let mut chip = Chip::new(SimConfig::default(), pu_funcs.len());
    for (pu, &count) in degraded.iter().enumerate() {
        chip.pu_mut(pu).note_degraded(count);
    }
    for w in workloads.iter().flatten() {
        w.prepare(chip.memory_mut(), config.seed + w.slot as u64);
    }
    for (pu, funcs) in pu_funcs.iter().enumerate() {
        for f in funcs {
            chip.add_thread(pu, f.clone());
        }
    }
    let reports = chip.run(config.cycle_budget, config.granularity);
    if !(0..chip.num_pus()).all(|pu| chip.pu(pu).all_halted()) {
        return None;
    }
    let mut output = Vec::new();
    for w in workloads.iter().flatten() {
        let (addr, len) = w.output_region();
        output.extend(chip.memory().read_bytes(MemSpace::Scratch, addr, len));
    }
    let threads = || reports.iter().flat_map(|r| &r.threads);
    Some(ChipRun {
        output,
        cycles: reports.iter().map(|r| r.cycles).max().unwrap_or(0),
        iterations: threads().map(|t| t.iterations).sum(),
        ctx_switches: threads().map(|t| t.ctx_switches).sum(),
    })
}

fn pu_funcs(workloads: &[Vec<Workload>]) -> Vec<Vec<Func>> {
    workloads
        .iter()
        .map(|pu| pu.iter().map(|w| w.func.clone()).collect())
        .collect()
}

/// What the traced drive computed for one cell.
enum Cell {
    Infeasible(String),
    Timeout,
    Ran {
        compiled: Vec<CompiledPu>,
        run: ChipRun,
    },
}

/// One cell as `run_eval` computes it: compile every PU through the
/// strategy with the sweep's shared cache, then run the chip.
fn cell(
    t: &mut Tracer,
    strategy: &dyn Strategy,
    nreg: usize,
    ctx: &CompileCtx<'_>,
    workloads: &[Vec<Workload>],
    config: &EvalConfig,
) -> Cell {
    let mut compiled = Vec::with_capacity(workloads.len());
    for (pu, funcs) in pu_funcs(workloads).iter().enumerate() {
        let span = format!("eval.compile.{}", strategy.name());
        match t.span(span, |_| strategy.compile_cached(funcs, nreg, pu, ctx)) {
            Ok(c) => compiled.push(c),
            Err(reason) => return Cell::Infeasible(format!("PU{pu}: {reason}")),
        }
    }
    let funcs: Vec<Vec<Func>> = compiled.iter().map(|c| c.funcs.clone()).collect();
    let degraded: Vec<u64> = compiled.iter().map(|c| c.degraded as u64).collect();
    match t.span("sim.cell_run", |_| {
        chip_run(&funcs, workloads, config, &degraded)
    }) {
        Some(run) => Cell::Ran { compiled, run },
        None => Cell::Timeout,
    }
}

/// Whether the traced drive's cell reproduces the sweep's.
fn same_cell(cell: &Cell, expected: &CellReport, reference: &[u8]) -> bool {
    match cell {
        Cell::Infeasible(why) => expected.status == CellStatus::Infeasible(why.clone()),
        Cell::Timeout => expected.status == CellStatus::Timeout,
        Cell::Ran { compiled, run } => {
            let ipkc = run.iterations as f64 * 1000.0 / run.cycles.max(1) as f64;
            expected.status == CellStatus::Ok
                && expected.cycles == run.cycles
                && expected.throughput_ipkc.to_bits() == ipkc.to_bits()
                && expected.checksum_ok == (run.output == reference)
                && expected.moves == compiled.iter().map(CompiledPu::moves).sum::<usize>()
                && expected.spills == compiled.iter().map(CompiledPu::spills).sum::<usize>()
        }
    }
}

/// The calls `run_eval` makes, serially in canonical order, with a
/// fresh compile cache: per scenario its workloads and reference run,
/// then every strategy × Nreg cell. Each cell must reproduce the
/// untraced sweep's `report`.
fn drive(
    t: &mut Tracer,
    config: &EvalConfig,
    report: &EvalReport,
    run: &mut Run,
) -> Result<(), String> {
    let cache = AllocCache::new(config.nreg_sweep.clone());
    let strategies = all_strategies();
    let mut index = 0u64;
    for (si, (scenario, expected)) in scenarios().iter().zip(&report.scenarios).enumerate() {
        t.set_request(index);
        t.span("eval.scenario", |t| -> Result<(), String> {
            let workloads = t.span("eval.workloads", |_| scenario.workloads(config.packets));
            let virtual_funcs = pu_funcs(&workloads);
            let reference = t
                .span("sim.reference_run", |_| {
                    chip_run(&virtual_funcs, &workloads, config, &[])
                })
                .ok_or_else(|| format!("{}: the reference run did not halt", scenario.name))?;
            run.add("sim.cycles", reference.cycles as f64);
            run.add("sim.ctx_switches", reference.ctx_switches as f64);
            let ctx = CompileCtx {
                cache: &cache,
                scenario: si,
            };
            for strategy in &strategies {
                for &nreg in &config.nreg_sweep {
                    t.set_request(index);
                    index += 1;
                    let cell = t.span("eval.cell", |t| {
                        cell(t, strategy.as_ref(), nreg, &ctx, &workloads, config)
                    });
                    if let Cell::Ran { run: chip, .. } = &cell {
                        run.add("sim.cycles", chip.cycles as f64);
                        run.add("sim.ctx_switches", chip.ctx_switches as f64);
                    }
                    let reproduced = expected
                        .cell(strategy.name(), nreg)
                        .is_some_and(|e| same_cell(&cell, e, &reference.output));
                    if !reproduced {
                        run.wrong(format!(
                            "{} {}@{nreg}: the traced drive differs from run_eval",
                            scenario.name,
                            strategy.name()
                        ));
                    }
                }
            }
            Ok(())
        })?;
    }
    run.set("eval.cost_computes", cache.cost_computes() as f64);
    Ok(())
}

/// The allocator layers under the sweep's strategies, uncached: per
/// scenario PU, analysis and bounds of its threads, then at every Nreg
/// the engine, the hybrid spiller, the ladder and the fixed-partition
/// Chaitin baseline.
fn probe(t: &mut Tracer, config: &EvalConfig, run: &mut Run) {
    let mut index = 0u64;
    for scenario in scenarios() {
        for funcs in pu_funcs(&scenario.workloads(config.packets)) {
            t.set_request(index);
            index += 1;
            t.span("core.probe", |t| {
                run.add(
                    "ir.insts",
                    funcs.iter().map(|f| f.iter_insts().count() as f64).sum(),
                );
                layers::analyse(t, &funcs, run);
                for &nreg in &config.nreg_sweep {
                    let _ = layers::engine(t, &funcs, nreg, run);
                    let _ = t.span("core.spill", |_| allocate_threads_with_spill(&funcs, nreg));
                    let _ = t.span("core.ladder", |_| allocate_ladder(&funcs, nreg));
                    t.span("core.chaitin", |_| {
                        let k = nreg / funcs.len();
                        for (i, f) in funcs.iter().enumerate() {
                            let bank = ChaitinConfig {
                                k,
                                phys_base: (i * k) as u32,
                                spill_space: MemSpace::Sram,
                                spill_base: 0x1_0000 + i as i64 * 0x1000,
                            };
                            let _ = chaitin::allocate(f, &bank);
                        }
                    });
                }
            });
        }
    }
}

/// Allocation quality of a sweep: the geometric mean of throughput
/// over measured cells, total moves and spills, failed cells.
fn quality(report: &EvalReport, run: &mut Run) {
    let cells = || report.scenarios.iter().flat_map(|s| &s.cells);
    let ok: Vec<f64> = cells()
        .filter(|c| c.status == CellStatus::Ok && c.throughput_ipkc > 0.0)
        .map(|c| c.throughput_ipkc.ln())
        .collect();
    if !ok.is_empty() {
        run.set(
            "eval.ipkc_geomean",
            (ok.iter().sum::<f64>() / ok.len() as f64).exp(),
        );
    }
    run.set("core.moves_total", cells().map(|c| c.moves as f64).sum());
    run.set("core.spills_total", cells().map(|c| c.spills as f64).sum());
    let failed = cells().filter(|c| matches!(c.status, CellStatus::Error(_) | CellStatus::Timeout));
    run.set("eval.cells_failed", failed.count() as f64);
}

/// The traced `eval-sweep` run: one untimed `run_eval` sweep as the
/// reference, the serial drive untraced and traced (the difference is
/// the tracing overhead; the traced one must reproduce the sweep cell
/// for cell), then the allocator probes.
pub fn sweep_traced(args: &Args) -> Result<(Run, Tracer), String> {
    let config = config(args);
    let mut run = Run {
        inputs: fingerprint(&config),
        ..Run::default()
    };
    let report = run_eval(&config);
    check(&report, &mut None, &mut run);
    run.attempted = report.scenarios.iter().map(|s| s.cells.len() as u64).sum();
    quality(&report, &mut run);

    let started = Instant::now();
    let mut untraced = Run::default();
    drive(&mut Tracer::off(), &config, &report, &mut untraced)?;
    let untraced_wall = started.elapsed();
    run.wrong.extend(untraced.wrong);

    let mut tracer = Tracer::new();
    let started = Instant::now();
    drive(&mut tracer, &config, &report, &mut run)?;
    let traced_wall = started.elapsed();
    run.set(
        "trace.overhead_pct",
        100.0 * (traced_wall.as_secs_f64() / untraced_wall.as_secs_f64() - 1.0),
    );
    let cells = tracer.closure("eval.cell");
    let scenarios = tracer.closure("eval.scenario");
    run.set(
        "eval.unattributed_ms",
        (cells.unattributed + scenarios.unattributed).as_secs_f64() * 1e3,
    );
    layers::closure_check(&mut run, "eval.cell", cells, !args.smoke);
    layers::closure_check(&mut run, "eval.scenario", scenarios, !args.smoke);

    probe(&mut tracer, &config, &mut run);
    layers::report(&tracer, &mut run);
    Ok((run, tracer))
}
