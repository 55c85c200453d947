//! The evaluation pipeline and its structured report.
//!
//! For every scenario × strategy × register-file-size cell the harness
//! compiles the scenario's threads, drives them on a multi-PU
//! [`Chip`] under `fill_packets` traffic until every thread has
//! processed its packets, and records throughput, per-thread behaviour
//! and a checksum validation: the compiled run's output regions must be
//! byte-identical to a virtual-register reference run of the same
//! scenario. The result serialises to `BENCH_EVAL.json` (schema
//! documented in `EXPERIMENTS.md`) and parses back for CI validation.
//!
//! # Sharding
//!
//! The sweep's cells are independent, so [`run_eval`] shards them over
//! a bounded worker pool ([`EvalConfig::workers`]): workers steal
//! cell indices from a shared atomic counter, compute each cell in
//! isolation (panics stay confined to their cell), and deposit the
//! result in the cell's canonical positional slot. Because the merge
//! is positional — never arrival-ordered — and the allocation engine
//! is deterministic, the assembled report is **byte-identical** to a
//! serial run for the same configuration and seed, at any worker
//! count.
//!
//! # Sharing work across cells
//!
//! Every sweep shares allocation verdicts between strategies whose
//! searches overlap (balanced / balanced-spill / ladder on the same PU
//! — one lazy trajectory per PU answers every `Nreg`, [`AllocCache`])
//! and chip runs between cells whose compiled binaries are identical
//! ([`SimCache`]). Both are behaviour-preserving: engine and simulator
//! are deterministic, so the report is byte-identical to compiling and
//! running every cell on its own.

use crate::cache::{AllocCache, SimCache, SimKey};
use crate::json::Json;
use crate::scenario::{scenarios, Scenario};
use crate::strategy::{all_strategies, CompileCtx, CompiledPu, PuLadderTrail, Strategy};
use regbal_ir::{Func, MemSpace};
use regbal_sim::{Chip, RunReport, SanitizerConfig, SimConfig};
use regbal_workloads::Workload;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::{Arc, OnceLock};
use std::time::Instant;

/// Configuration of one evaluation run.
#[derive(Debug, Clone)]
pub struct EvalConfig {
    /// Packets each thread processes (= main-loop iterations).
    pub packets: u32,
    /// Register-file sizes to sweep.
    pub nreg_sweep: Vec<usize>,
    /// Chip interleaving slice in cycles (cross-PU memory visibility).
    pub granularity: u64,
    /// Per-PU cycle budget; a run that exceeds it is reported as a
    /// timeout, not a hang.
    pub cycle_budget: u64,
    /// Seed for the packet generator (per-slot seeds derive from it).
    pub seed: u64,
    /// Arm the register-clobber sanitizer on every measured run. Off by
    /// default: instrumented runs are for correctness sweeps, not for
    /// the throughput numbers.
    pub sanitize: bool,
    /// Worker threads sharding the sweep's cells. `1` (or `0`) runs the
    /// plain serial loop in the calling thread; any count produces a
    /// byte-identical report.
    pub workers: usize,
    /// Record wall-clock timing: per-cell `elapsed_ms` and a run-level
    /// `timing` member in the JSON document. Timing members are the
    /// one non-deterministic part of the report, so configurations
    /// used for byte-equality checks keep this off.
    pub timing: bool,
}

/// The machine's available parallelism, `1` when it cannot be probed.
pub fn default_workers() -> usize {
    std::thread::available_parallelism().map_or(1, usize::from)
}

impl EvalConfig {
    /// The full study: the paper's sweep from 8 to 32 registers per
    /// thread (`Nreg` 32 → 128), sharded over the machine's cores with
    /// wall-clock timing recorded.
    pub fn full() -> EvalConfig {
        EvalConfig {
            packets: 64,
            nreg_sweep: vec![32, 48, 64, 96, 128],
            granularity: 64,
            cycle_budget: 40_000_000,
            seed: 0xE7A1,
            sanitize: false,
            workers: default_workers(),
            timing: true,
        }
    }

    /// A fast configuration for CI: the tight end (48: the fixed
    /// partition spills, balancing fits) and the paper's 128. Timing is
    /// off so smoke reports are byte-stable across runs and worker
    /// counts (CI compares them with `cmp`).
    pub fn smoke() -> EvalConfig {
        EvalConfig {
            packets: 12,
            nreg_sweep: vec![48, 128],
            timing: false,
            ..EvalConfig::full()
        }
    }
}

/// Why a cell has no measurement.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum CellStatus {
    /// Compiled, ran to completion, output compared.
    Ok,
    /// The strategy could not produce code at this file size.
    Infeasible(String),
    /// The compiled code did not finish within the cycle budget.
    Timeout,
    /// Compilation or simulation panicked (or the reference run failed);
    /// the sweep continues and the cell records the failure instead of
    /// aborting the whole evaluation.
    Error(String),
}

/// Per-thread record of one measured cell.
#[derive(Debug, Clone)]
pub struct ThreadReport {
    /// Kernel name.
    pub kernel: String,
    /// Processing unit the thread ran on.
    pub pu: usize,
    /// Private registers.
    pub pr: usize,
    /// Shared registers.
    pub sr: usize,
    /// Split moves inserted.
    pub moves: usize,
    /// Ranges spilled.
    pub spills: usize,
    /// Main-loop iterations completed.
    pub iterations: u64,
    /// Context switches taken.
    pub ctx_switches: u64,
    /// Fraction of the run the thread held its PU.
    pub occupancy: f64,
    /// Cycles per iteration (`∞` encodes as `null`).
    pub cycles_per_iteration: f64,
}

/// One scenario × strategy × `Nreg` measurement.
#[derive(Debug, Clone)]
pub struct CellReport {
    /// Strategy name.
    pub strategy: String,
    /// Register-file size per PU.
    pub nreg: usize,
    /// Outcome.
    pub status: CellStatus,
    /// Completed iterations per thousand cycles, summed over threads
    /// (the run's packet throughput).
    pub throughput_ipkc: f64,
    /// Wall-clock cycles of the slowest PU.
    pub cycles: u64,
    /// Whether the output regions matched the reference run exactly.
    pub checksum_ok: bool,
    /// Register-safety violations observed (must be 0).
    pub violations: usize,
    /// Whether the run was sanitizer-instrumented.
    pub sanitized: bool,
    /// Clobber-class sanitizer reports (shared-register clobbers and
    /// foreign private-bank writes; must be 0). Only meaningful when
    /// [`CellReport::sanitized`].
    pub sanitizer_violations: usize,
    /// Warning-class sanitizer reports (uninitialized-register reads).
    /// Only meaningful when [`CellReport::sanitized`].
    pub sanitizer_warnings: usize,
    /// Physical registers consumed (max over PUs).
    pub registers_used: usize,
    /// Total split moves.
    pub moves: usize,
    /// Total spilled ranges.
    pub spills: usize,
    /// Of [`CellReport::spills`], how many landed in the shared
    /// scratchpad rather than memory (non-zero only for
    /// `balanced-scratch` and `ladder` cells that settled on the
    /// scratch rung).
    pub scratch_spills: usize,
    /// Ladder rungs descended across all PUs (0 for every strategy
    /// except `ladder`, and for `ladder` runs that stayed balanced).
    pub degraded_count: usize,
    /// Per-PU ladder trails `(pu, trail)`, in PU order: the settled
    /// rung, the forced transitions and the budget retries of each
    /// processing unit. Empty for the single-rung strategies.
    pub ladder: Vec<(usize, PuLadderTrail)>,
    /// Wall-clock milliseconds spent compiling and measuring this cell
    /// (`None` unless [`EvalConfig::timing`]).
    pub elapsed_ms: Option<f64>,
    /// Per-thread details (empty unless `status` is [`CellStatus::Ok`]).
    pub threads: Vec<ThreadReport>,
}

/// All cells of one scenario.
#[derive(Debug, Clone)]
pub struct ScenarioReport {
    /// Scenario identifier.
    pub name: String,
    /// Human description.
    pub description: String,
    /// Whether the paper's headline applies (hungry critical threads).
    pub register_hungry: bool,
    /// Number of PUs.
    pub num_pus: usize,
    /// Kernel names in thread order.
    pub kernels: Vec<String>,
    /// The measurement cells, strategy-major then `Nreg`-ascending.
    pub cells: Vec<CellReport>,
}

impl ScenarioReport {
    /// The cell of `strategy` at `nreg`, if present.
    pub fn cell(&self, strategy: &str, nreg: usize) -> Option<&CellReport> {
        self.cells
            .iter()
            .find(|c| c.strategy == strategy && c.nreg == nreg)
    }
}

/// Wall-clock statistics of one evaluation run (present only when
/// [`EvalConfig::timing`]).
#[derive(Debug, Clone)]
pub struct EvalTiming {
    /// Workers the sweep was sharded over (the requested shard width).
    pub workers: usize,
    /// OS threads actually spawned: `workers` clamped to the machine's
    /// available parallelism — extra threads on a CPU-bound sweep only
    /// add scheduling contention, and the merge is positional, so the
    /// clamp cannot change a single output byte.
    pub threads: usize,
    /// Wall-clock milliseconds of the whole sweep.
    pub wall_ms: f64,
}

/// The whole study.
#[derive(Debug, Clone)]
pub struct EvalReport {
    /// Packets per thread.
    pub packets: u32,
    /// The swept register-file sizes.
    pub nreg_sweep: Vec<usize>,
    /// Strategy names, in report order.
    pub strategies: Vec<String>,
    /// Per-scenario results.
    pub scenarios: Vec<ScenarioReport>,
    /// Wall-clock statistics (`None` unless [`EvalConfig::timing`]).
    pub timing: Option<EvalTiming>,
}

/// Runs the full evaluation pipeline over the built-in scenario suite.
pub fn run_eval(config: &EvalConfig) -> EvalReport {
    run_eval_on(config, &scenarios())
}

/// Runs the pipeline over an explicit scenario list (the built-in suite
/// is [`scenarios`]).
pub fn run_eval_on(config: &EvalConfig, suite: &[Scenario]) -> EvalReport {
    run_eval_with(config, suite, &all_strategies())
}

/// Per-scenario state shared by the sweep's workers. The reference run
/// is computed lazily, exactly once, by whichever worker first needs
/// the scenario — serial and sharded sweeps therefore run the same
/// reference exactly once each.
struct ScenarioCtx<'a> {
    scenario: &'a Scenario,
    workloads: Vec<Vec<Workload>>,
    reference: OnceLock<Result<Vec<u8>, String>>,
}

/// The scenario's virtual-register reference output, or why there is
/// none. A broken reference poisons every cell of this scenario with
/// an error record; the remaining scenarios still get measured.
fn reference_output(ctx: &ScenarioCtx<'_>, config: &EvalConfig) -> Result<Vec<u8>, String> {
    let funcs: Vec<Vec<Func>> = ctx
        .workloads
        .iter()
        .map(|pu| pu.iter().map(|w| w.func.clone()).collect())
        .collect();
    match catch_unwind(AssertUnwindSafe(|| {
        run_chip(&funcs, &ctx.workloads, config, None, &[])
    })) {
        Ok(Some(run)) => Ok(run.output),
        Ok(None) => Err("reference run did not halt within the cycle budget".to_string()),
        Err(payload) => Err(format!("reference run panicked: {}", panic_message(&*payload))),
    }
}

/// Runs the pipeline over explicit scenarios *and* strategies — the
/// sharded tentpole. Cells are indexed canonically
/// (`(scenario · |strategies| + strategy) · |sweep| + size`); workers
/// claim indices from a shared atomic counter and fill positional
/// slots, so reassembly is in canonical order no matter which worker
/// finished which cell when. With [`EvalConfig::timing`] off the
/// document is byte-identical at any worker count.
pub fn run_eval_with(
    config: &EvalConfig,
    suite: &[Scenario],
    strategies: &[Box<dyn Strategy>],
) -> EvalReport {
    let workers = config.workers.max(1);
    // Extra threads beyond the machine's parallelism cannot speed up a
    // CPU-bound sweep — they only add scheduling contention — and the
    // positional merge makes the output independent of the thread
    // count, so the clamp is free.
    let threads = workers.min(default_workers());
    run_eval_threads(config, suite, strategies, workers, threads, true)
}

/// [`run_eval_with`] with an explicit OS-thread count — the tests use
/// this to drive the scoped-thread merge path even on machines whose
/// available parallelism would clamp it away — and a switch for the
/// cross-cell caches: with `cached` off every cell compiles through
/// [`Strategy::compile`] and runs its own chip, the reference the
/// cached sweep must reproduce byte for byte.
fn run_eval_threads(
    config: &EvalConfig,
    suite: &[Scenario],
    strategies: &[Box<dyn Strategy>],
    workers: usize,
    threads: usize,
    cached: bool,
) -> EvalReport {
    let started = Instant::now();
    let cache = AllocCache::new(Vec::new());
    let sim_cache: SimCache<ChipRun> = SimCache::default();
    let ctxs: Vec<ScenarioCtx<'_>> = suite
        .iter()
        .map(|s| ScenarioCtx {
            scenario: s,
            workloads: s.workloads(config.packets),
            reference: OnceLock::new(),
        })
        .collect();
    let nstrat = strategies.len();
    let nsizes = config.nreg_sweep.len();
    let total = suite.len() * nstrat * nsizes;

    // One cell, by canonical index. Both the serial and the sharded
    // path run exactly this closure, so they cannot diverge.
    let compute = |idx: usize| -> CellReport {
        let ctx = &ctxs[idx / (nstrat * nsizes)];
        let strategy = strategies[(idx / nsizes) % nstrat].as_ref();
        let nreg = config.nreg_sweep[idx % nsizes];
        let cell_start = config.timing.then(Instant::now);
        let compile_ctx = cached.then(|| CompileCtx {
            cache: &cache,
            scenario: idx / (nstrat * nsizes),
        });
        let mut cell = match ctx.reference.get_or_init(|| reference_output(ctx, config)) {
            Ok(output) => run_cell(
                ctx.scenario,
                strategy,
                nreg,
                &ctx.workloads,
                output,
                config,
                compile_ctx.as_ref().map(|c| (c, &sim_cache)),
            ),
            Err(why) => {
                let mut cell = blank_cell(strategy, nreg, config);
                cell.status = CellStatus::Error(why.clone());
                cell
            }
        };
        cell.elapsed_ms = cell_start.map(|t| t.elapsed().as_secs_f64() * 1000.0);
        cell
    };

    // Work stealing over a shared cursor ([`regbal_core::steal_map`]):
    // cells differ wildly in cost (a timeout burns the whole cycle
    // budget, an infeasible cell returns instantly), so static striping
    // would idle workers, and the positional merge keeps the report
    // byte-identical at any worker count.
    let mut cells = regbal_core::steal_map(total, threads, compute).into_iter();

    let scenario_reports = ctxs
        .iter()
        .map(|ctx| ScenarioReport {
            name: ctx.scenario.name.to_string(),
            description: ctx.scenario.description.to_string(),
            register_hungry: ctx.scenario.register_hungry,
            num_pus: ctx.scenario.pus.len(),
            kernels: ctx
                .workloads
                .iter()
                .flatten()
                .map(|w| w.kernel.name().to_string())
                .collect(),
            cells: cells.by_ref().take(nstrat * nsizes).collect(),
        })
        .collect();
    EvalReport {
        packets: config.packets,
        nreg_sweep: config.nreg_sweep.clone(),
        strategies: strategies.iter().map(|s| s.name().to_string()).collect(),
        scenarios: scenario_reports,
        timing: config.timing.then(|| EvalTiming {
            workers,
            threads: threads.min(total.max(1)),
            wall_ms: started.elapsed().as_secs_f64() * 1000.0,
        }),
    }
}

/// The string a panic unwound with, for error records.
fn panic_message(payload: &(dyn std::any::Any + Send)) -> String {
    payload
        .downcast_ref::<&str>()
        .map(|s| (*s).to_string())
        .or_else(|| payload.downcast_ref::<String>().cloned())
        .unwrap_or_else(|| "non-string panic payload".into())
}

/// A cell skeleton with no measurement yet.
fn blank_cell(strategy: &dyn Strategy, nreg: usize, config: &EvalConfig) -> CellReport {
    CellReport {
        strategy: strategy.name().to_string(),
        nreg,
        status: CellStatus::Ok,
        throughput_ipkc: 0.0,
        cycles: 0,
        checksum_ok: false,
        violations: 0,
        sanitized: config.sanitize,
        sanitizer_violations: 0,
        sanitizer_warnings: 0,
        registers_used: 0,
        moves: 0,
        spills: 0,
        scratch_spills: 0,
        degraded_count: 0,
        ladder: Vec::new(),
        elapsed_ms: None,
        threads: Vec::new(),
    }
}

fn run_cell(
    scenario: &Scenario,
    strategy: &dyn Strategy,
    nreg: usize,
    workloads: &[Vec<Workload>],
    reference_output: &[u8],
    config: &EvalConfig,
    caches: Option<(&CompileCtx<'_>, &SimCache<ChipRun>)>,
) -> CellReport {
    let mut cell = blank_cell(strategy, nreg, config);

    // Compile every PU; a structured failure marks the whole cell
    // infeasible, a panic marks it errored — either way the sweep
    // continues with the next cell.
    let mut compiled: Vec<CompiledPu> = Vec::with_capacity(workloads.len());
    for (pu, pu_workloads) in workloads.iter().enumerate() {
        let funcs: Vec<Func> = pu_workloads.iter().map(|w| w.func.clone()).collect();
        match catch_unwind(AssertUnwindSafe(|| match caches {
            Some((ctx, _)) => strategy.compile_cached(&funcs, nreg, pu, ctx),
            None => strategy.compile(&funcs, nreg, pu),
        })) {
            Ok(Ok(c)) => compiled.push(c),
            Ok(Err(reason)) => {
                cell.status = CellStatus::Infeasible(format!("PU{pu}: {reason}"));
                return cell;
            }
            Err(payload) => {
                cell.status = CellStatus::Error(format!(
                    "PU{pu}: compile panicked: {}",
                    panic_message(&*payload)
                ));
                return cell;
            }
        }
    }
    cell.registers_used = compiled.iter().map(|c| c.registers_used).max().unwrap_or(0);
    cell.moves = compiled.iter().map(CompiledPu::moves).sum();
    cell.spills = compiled.iter().map(CompiledPu::spills).sum();
    cell.scratch_spills = compiled.iter().map(|c| c.scratch_spills).sum();
    cell.degraded_count = compiled.iter().map(|c| c.degraded).sum();
    cell.ladder = compiled
        .iter()
        .enumerate()
        .filter_map(|(pu, c)| c.ladder.clone().map(|trail| (pu, trail)))
        .collect();

    let key = SimKey {
        funcs: compiled.iter().map(|c| c.funcs.clone()).collect(),
        sanitizers: config
            .sanitize
            .then(|| compiled.iter().map(|c| c.sanitizer.clone()).collect()),
        degraded: compiled.iter().map(|c| c.degraded as u64).collect(),
    };
    let chip_run = || {
        run_chip(
            &key.funcs,
            workloads,
            config,
            key.sanitizers.as_deref(),
            &key.degraded,
        )
        .map(Arc::new)
    };
    let run = match catch_unwind(AssertUnwindSafe(|| match caches {
        Some((ctx, sim)) => sim.slot(ctx.scenario, &key).get_or_init(chip_run).clone(),
        None => chip_run(),
    })) {
        Ok(Some(run)) => run,
        Ok(None) => {
            cell.status = CellStatus::Timeout;
            return cell;
        }
        Err(payload) => {
            cell.status =
                CellStatus::Error(format!("run panicked: {}", panic_message(&*payload)));
            return cell;
        }
    };
    cell.cycles = run.cycles;
    cell.throughput_ipkc = run.throughput_ipkc();
    cell.checksum_ok = run.output == reference_output;
    cell.violations = run.violations;
    cell.sanitizer_violations = run.sanitizer_violations;
    cell.sanitizer_warnings = run.sanitizer_warnings;
    cell.threads = scenario
        .pus
        .iter()
        .enumerate()
        .flat_map(|(pu, kernels)| {
            let report = &run.reports[pu];
            let code = &compiled[pu];
            kernels
                .iter()
                .enumerate()
                .map(move |(t, &kernel)| ThreadReport {
                    kernel: kernel.name().to_string(),
                    pu,
                    pr: code.threads[t].pr,
                    sr: code.threads[t].sr,
                    moves: code.threads[t].moves,
                    spills: code.threads[t].spills,
                    iterations: report.threads[t].iterations,
                    ctx_switches: report.threads[t].ctx_switches,
                    occupancy: report.threads[t].busy_cycles as f64
                        / report.cycles.max(1) as f64,
                    cycles_per_iteration: report.threads[t].cycles_per_iteration,
                })
                .collect::<Vec<_>>()
        })
        .collect();
    cell
}

/// A completed chip run: concatenated output regions (thread order) and
/// the digested statistics.
struct ChipRun {
    output: Vec<u8>,
    reports: Vec<RunReport>,
    cycles: u64,
    violations: usize,
    sanitizer_violations: usize,
    sanitizer_warnings: usize,
    iterations: u64,
}

impl ChipRun {
    fn throughput_ipkc(&self) -> f64 {
        self.iterations as f64 * 1000.0 / self.cycles.max(1) as f64
    }
}

/// Runs one function set on a chip with the scenario's PU topology;
/// `None` when a thread fails to halt within the budget. `degraded`
/// holds per-PU ladder-descent counts to stamp into the run reports
/// (empty for reference runs and non-ladder strategies).
fn run_chip(
    pu_funcs: &[Vec<Func>],
    workloads: &[Vec<Workload>],
    config: &EvalConfig,
    sanitizers: Option<&[SanitizerConfig]>,
    degraded: &[u64],
) -> Option<ChipRun> {
    let mut chip = Chip::new(SimConfig::default(), pu_funcs.len());
    if let Some(configs) = sanitizers {
        for (pu, cfg) in configs.iter().enumerate() {
            chip.enable_sanitizer(pu, cfg.clone());
        }
    }
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
    Some(ChipRun {
        output,
        cycles: reports.iter().map(|r| r.cycles).max().unwrap_or(0),
        violations: reports.iter().map(|r| r.violations.len()).sum(),
        sanitizer_violations: reports
            .iter()
            .map(|r| r.sanitizer_violations().count())
            .sum(),
        sanitizer_warnings: reports
            .iter()
            .map(|r| r.sanitizer.iter().filter(|s| !s.is_violation()).count())
            .sum(),
        iterations: reports
            .iter()
            .flat_map(|r| r.threads.iter().map(|t| t.iterations))
            .sum(),
        reports,
    })
}

/// The shared per-thread allocation-summary schema: the same keys are
/// emitted by `regbal alloc --json`, so external tooling reads one
/// format everywhere.
pub fn thread_alloc_json(
    name: &str,
    pr: usize,
    sr: usize,
    moves: usize,
    spills: usize,
) -> Json {
    Json::Obj(vec![
        ("name".into(), Json::str(name)),
        ("pr".into(), Json::uint(pr as u64)),
        ("sr".into(), Json::uint(sr as u64)),
        ("moves".into(), Json::uint(moves as u64)),
        ("spills".into(), Json::uint(spills as u64)),
    ])
}

/// The shared ladder-trail schema: the settled rung, the recorded
/// trail of forced transitions with stable machine-readable reason
/// codes ([`regbal_core::AllocError::code`]), and any same-rung budget
/// retries. The same keys are emitted by `regbal alloc --ladder
/// --json` and by the per-PU `ladder` entries of `BENCH_EVAL.json`.
pub fn ladder_trail_json(trail: &PuLadderTrail) -> Json {
    Json::Obj(vec![
        ("step".into(), Json::str(trail.step.name())),
        (
            "degraded".into(),
            Json::uint(trail.degradations.len() as u64),
        ),
        (
            "degradations".into(),
            Json::Arr(
                trail
                    .degradations
                    .iter()
                    .map(|d| {
                        Json::Obj(vec![
                            ("from".into(), Json::str(d.from.name())),
                            ("to".into(), Json::str(d.to.name())),
                            ("code".into(), Json::str(d.reason.code())),
                            ("reason".into(), Json::str(d.reason.to_string())),
                        ])
                    })
                    .collect(),
            ),
        ),
        (
            "retries".into(),
            Json::Arr(
                trail
                    .retries
                    .iter()
                    .map(|r| {
                        Json::Obj(vec![
                            ("step".into(), Json::str(r.step.name())),
                            ("cap".into(), Json::uint(r.cap as u64)),
                            ("retry_cap".into(), Json::uint(r.retry_cap as u64)),
                            ("recovered".into(), Json::Bool(r.recovered)),
                        ])
                    })
                    .collect(),
            ),
        ),
    ])
}

impl EvalReport {
    /// Serialises the report (the `BENCH_EVAL.json` document).
    pub fn to_json(&self) -> Json {
        let mut doc = Json::Obj(vec![
            ("schema".into(), Json::str("regbal-eval/1")),
            ("packets".into(), Json::uint(self.packets as u64)),
            (
                "nreg_sweep".into(),
                Json::Arr(self.nreg_sweep.iter().map(|&n| Json::uint(n as u64)).collect()),
            ),
            (
                "strategies".into(),
                Json::Arr(self.strategies.iter().map(Json::str).collect()),
            ),
            (
                "scenarios".into(),
                Json::Arr(self.scenarios.iter().map(ScenarioReport::to_json).collect()),
            ),
        ]);
        if let Some(timing) = &self.timing {
            let Json::Obj(members) = &mut doc else {
                unreachable!("the report document is an object");
            };
            members.push((
                "timing".into(),
                Json::Obj(vec![
                    ("workers".into(), Json::uint(timing.workers as u64)),
                    ("threads".into(), Json::uint(timing.threads as u64)),
                    ("wall_ms".into(), Json::float(timing.wall_ms)),
                ]),
            ));
        }
        doc
    }

    /// The serialised document text.
    pub fn to_json_string(&self) -> String {
        self.to_json().pretty()
    }
}

impl ScenarioReport {
    fn to_json(&self) -> Json {
        Json::Obj(vec![
            ("name".into(), Json::str(&self.name)),
            ("description".into(), Json::str(&self.description)),
            ("register_hungry".into(), Json::Bool(self.register_hungry)),
            ("num_pus".into(), Json::uint(self.num_pus as u64)),
            (
                "kernels".into(),
                Json::Arr(self.kernels.iter().map(Json::str).collect()),
            ),
            (
                "cells".into(),
                Json::Arr(self.cells.iter().map(CellReport::to_json).collect()),
            ),
        ])
    }
}

impl CellReport {
    fn to_json(&self) -> Json {
        let (status, reason) = match &self.status {
            CellStatus::Ok => ("ok", None),
            CellStatus::Infeasible(why) => ("infeasible", Some(why.clone())),
            CellStatus::Timeout => ("timeout", None),
            CellStatus::Error(why) => ("error", Some(why.clone())),
        };
        let mut members = vec![
            ("strategy".into(), Json::str(&self.strategy)),
            ("nreg".into(), Json::uint(self.nreg as u64)),
            ("status".into(), Json::str(status)),
        ];
        if let Some(reason) = reason {
            members.push(("reason".into(), Json::str(reason)));
        }
        if self.status == CellStatus::Ok {
            members.extend([
                (
                    "throughput_ipkc".into(),
                    Json::float(self.throughput_ipkc),
                ),
                ("cycles".into(), Json::uint(self.cycles)),
                ("checksum_ok".into(), Json::Bool(self.checksum_ok)),
                ("violations".into(), Json::uint(self.violations as u64)),
            ]);
            if self.sanitized {
                members.extend([
                    (
                        "sanitizer_violations".into(),
                        Json::uint(self.sanitizer_violations as u64),
                    ),
                    (
                        "sanitizer_warnings".into(),
                        Json::uint(self.sanitizer_warnings as u64),
                    ),
                ]);
            }
            members.extend([
                (
                    "registers_used".into(),
                    Json::uint(self.registers_used as u64),
                ),
                ("moves".into(), Json::uint(self.moves as u64)),
                ("spills".into(), Json::uint(self.spills as u64)),
                (
                    "scratch_spills".into(),
                    Json::uint(self.scratch_spills as u64),
                ),
                (
                    "degraded_count".into(),
                    Json::uint(self.degraded_count as u64),
                ),
            ]);
            if !self.ladder.is_empty() {
                members.push((
                    "ladder".into(),
                    Json::Arr(
                        self.ladder
                            .iter()
                            .map(|(pu, trail)| {
                                let Json::Obj(mut entry) = ladder_trail_json(trail) else {
                                    unreachable!("ladder_trail_json returns an object");
                                };
                                entry.insert(0, ("pu".into(), Json::uint(*pu as u64)));
                                Json::Obj(entry)
                            })
                            .collect(),
                    ),
                ));
            }
            members.push((
                "threads".into(),
                Json::Arr(self.threads.iter().map(ThreadReport::to_json).collect()),
            ));
        }
        if let Some(ms) = self.elapsed_ms {
            members.push(("elapsed_ms".into(), Json::float(ms)));
        }
        Json::Obj(members)
    }
}

impl ThreadReport {
    fn to_json(&self) -> Json {
        let Json::Obj(mut members) =
            thread_alloc_json(&self.kernel, self.pr, self.sr, self.moves, self.spills)
        else {
            unreachable!("thread_alloc_json returns an object");
        };
        members.insert(1, ("pu".into(), Json::uint(self.pu as u64)));
        members.extend([
            ("iterations".into(), Json::uint(self.iterations)),
            ("ctx_switches".into(), Json::uint(self.ctx_switches)),
            ("occupancy".into(), Json::float(self.occupancy)),
            (
                "cycles_per_iteration".into(),
                Json::float(self.cycles_per_iteration),
            ),
        ]);
        Json::Obj(members)
    }
}

/// Validates a parsed `BENCH_EVAL.json` document: schema shape, full
/// scenario × strategy × `Nreg` coverage, all checksums green, no
/// safety violations, a `degraded_count` on every measured cell,
/// no `error` cells (a cell that panicked is recorded in the document
/// but fails validation, with its reason in the message), every
/// scenario × strategy feasible somewhere in the sweep, and the
/// paper's qualitative result — on a register-hungry scenario,
/// `balanced` throughput at the largest file must be at least
/// `fixed-partition`'s.
///
/// Scratchpad accounting is checked on every measured cell that
/// carries it: `scratch_spills` can never exceed `spills`, and only
/// the `balanced-scratch` strategy and the `ladder` (whose scratch
/// rung is the same allocator) may route spills to the scratchpad.
///
/// # Errors
///
/// Returns the first violated property.
pub fn validate_json(doc: &Json) -> Result<String, String> {
    let schema = doc
        .get("schema")
        .and_then(Json::as_str)
        .ok_or("missing `schema`")?;
    if schema != "regbal-eval/1" {
        return Err(format!("unknown schema `{schema}`"));
    }
    let sweep: Vec<u64> = doc
        .get("nreg_sweep")
        .and_then(Json::as_arr)
        .ok_or("missing `nreg_sweep`")?
        .iter()
        .map(|v| v.as_u64().ok_or("non-numeric nreg"))
        .collect::<Result<_, _>>()?;
    let strategies: Vec<&str> = doc
        .get("strategies")
        .and_then(Json::as_arr)
        .ok_or("missing `strategies`")?
        .iter()
        .map(|v| v.as_str().ok_or("non-string strategy"))
        .collect::<Result<_, _>>()?;
    let scenario_docs = doc
        .get("scenarios")
        .and_then(Json::as_arr)
        .ok_or("missing `scenarios`")?;
    if scenario_docs.len() < 3 {
        return Err(format!("only {} scenarios; need at least 3", scenario_docs.len()));
    }
    if strategies.len() < 3 {
        return Err(format!("only {} strategies; need 3", strategies.len()));
    }

    let mut ok_cells = 0usize;
    let mut hungry_headline = false;
    for sdoc in scenario_docs {
        let name = sdoc.get("name").and_then(Json::as_str).ok_or("scenario without name")?;
        let cells = sdoc
            .get("cells")
            .and_then(Json::as_arr)
            .ok_or_else(|| format!("{name}: missing cells"))?;
        let find = |strategy: &str, nreg: u64| -> Option<&Json> {
            cells.iter().find(|c| {
                c.get("strategy").and_then(Json::as_str) == Some(strategy)
                    && c.get("nreg").and_then(|n| n.as_u64()) == Some(nreg)
            })
        };
        for &strategy in &strategies {
            let mut feasible_somewhere = false;
            for &nreg in &sweep {
                let cell = find(strategy, nreg)
                    .ok_or_else(|| format!("{name}: missing cell {strategy}@{nreg}"))?;
                let status = cell
                    .get("status")
                    .and_then(Json::as_str)
                    .ok_or_else(|| format!("{name}: cell {strategy}@{nreg} without status"))?;
                match status {
                    "ok" => {
                        feasible_somewhere = true;
                        ok_cells += 1;
                        if cell.get("checksum_ok").and_then(Json::as_bool) != Some(true) {
                            return Err(format!("{name}: {strategy}@{nreg} failed checksum"));
                        }
                        if cell.get("violations").and_then(|v| v.as_u64()) != Some(0) {
                            return Err(format!("{name}: {strategy}@{nreg} had violations"));
                        }
                        // Instrumented documents must be clobber-free.
                        if let Some(s) = cell.get("sanitizer_violations") {
                            if s.as_u64() != Some(0) {
                                return Err(format!(
                                    "{name}: {strategy}@{nreg} had sanitizer violations"
                                ));
                            }
                        }
                        let degraded_count = cell
                            .get("degraded_count")
                            .and_then(|v| v.as_u64())
                            .ok_or_else(|| {
                                format!("{name}: {strategy}@{nreg} missing degraded_count")
                            })?;
                        // Scratchpad accounting: a subset of the spill
                        // total, and zero outside the scratch-capable
                        // strategies.
                        if let Some(scratch) =
                            cell.get("scratch_spills").and_then(|v| v.as_u64())
                        {
                            let spills = cell
                                .get("spills")
                                .and_then(|v| v.as_u64())
                                .ok_or_else(|| {
                                    format!("{name}: {strategy}@{nreg} missing spills")
                                })?;
                            if scratch > spills {
                                return Err(format!(
                                    "{name}: {strategy}@{nreg} scratch_spills ({scratch}) \
                                     exceed spills ({spills})"
                                ));
                            }
                            if scratch > 0
                                && strategy != "balanced-scratch"
                                && strategy != "ladder"
                            {
                                return Err(format!(
                                    "{name}: {strategy}@{nreg} routed {scratch} spill(s) \
                                     to the scratchpad without a scratch rung"
                                ));
                            }
                        }
                        // Ladder cells carry the per-PU trail, and its
                        // degradations must add up to the cell total.
                        if strategy == "ladder" {
                            let entries = cell
                                .get("ladder")
                                .and_then(Json::as_arr)
                                .ok_or_else(|| {
                                    format!("{name}: {strategy}@{nreg} missing ladder trail")
                                })?;
                            let mut total = 0u64;
                            for entry in entries {
                                entry.get("pu").and_then(|v| v.as_u64()).ok_or_else(|| {
                                    format!("{name}: {strategy}@{nreg} trail entry without pu")
                                })?;
                                entry.get("step").and_then(Json::as_str).ok_or_else(|| {
                                    format!("{name}: {strategy}@{nreg} trail entry without step")
                                })?;
                                total += entry
                                    .get("degraded")
                                    .and_then(|v| v.as_u64())
                                    .ok_or_else(|| {
                                        format!(
                                            "{name}: {strategy}@{nreg} trail entry without degraded"
                                        )
                                    })?;
                            }
                            if total != degraded_count {
                                return Err(format!(
                                    "{name}: {strategy}@{nreg} trail degradations ({total}) \
                                     disagree with degraded_count ({degraded_count})"
                                ));
                            }
                        }
                    }
                    "infeasible" => {}
                    "error" => {
                        let why = cell
                            .get("reason")
                            .and_then(Json::as_str)
                            .unwrap_or("no reason recorded");
                        return Err(format!("{name}: {strategy}@{nreg} errored: {why}"));
                    }
                    other => return Err(format!("{name}: {strategy}@{nreg} status `{other}`")),
                }
                // Timed documents stamp non-negative wall-clock costs.
                if let Some(ms) = cell.get("elapsed_ms") {
                    let ms = ms.as_f64().ok_or_else(|| {
                        format!("{name}: {strategy}@{nreg} non-numeric elapsed_ms")
                    })?;
                    if !ms.is_finite() || ms < 0.0 {
                        return Err(format!(
                            "{name}: {strategy}@{nreg} invalid elapsed_ms {ms}"
                        ));
                    }
                }
            }
            if !feasible_somewhere {
                return Err(format!("{name}: `{strategy}` never feasible in the sweep"));
            }
        }
        // The paper's qualitative headline at the widest file.
        if sdoc.get("register_hungry").and_then(Json::as_bool) == Some(true) {
            let top = *sweep.iter().max().ok_or("empty sweep")?;
            let tp = |strategy: &str| -> Option<f64> {
                find(strategy, top)?.get("throughput_ipkc")?.as_f64()
            };
            if let (Some(balanced), Some(fixed)) = (tp("balanced"), tp("fixed-partition")) {
                if balanced >= fixed {
                    hungry_headline = true;
                }
            }
        }
    }
    if !hungry_headline {
        return Err(
            "no register-hungry scenario where balanced >= fixed-partition at the largest file"
                .into(),
        );
    }
    if let Some(timing) = doc.get("timing") {
        let workers = timing
            .get("workers")
            .and_then(|v| v.as_u64())
            .ok_or("timing without workers")?;
        if workers == 0 {
            return Err("timing reports zero workers".into());
        }
        let threads = timing
            .get("threads")
            .and_then(|v| v.as_u64())
            .ok_or("timing without threads")?;
        if threads == 0 || threads > workers {
            return Err(format!("invalid thread count {threads} for {workers} workers"));
        }
        let wall = timing
            .get("wall_ms")
            .and_then(Json::as_f64)
            .ok_or("timing without wall_ms")?;
        if !wall.is_finite() || wall < 0.0 {
            return Err(format!("invalid wall_ms {wall}"));
        }
    }
    Ok(format!(
        "{} scenarios x {} strategies x {} sizes: {ok_cells} validated cells, headline holds",
        scenario_docs.len(),
        strategies.len(),
        sweep.len()
    ))
}

#[cfg(test)]
mod tests {
    use super::*;

    /// A strategy that dies the way a buggy allocator would.
    struct Panicky;

    impl Strategy for Panicky {
        fn name(&self) -> &'static str {
            "panicky"
        }

        fn compile_cached(
            &self,
            _: &[Func],
            _: usize,
            _: usize,
            _: &CompileCtx<'_>,
        ) -> Result<CompiledPu, String> {
            panic!("boom at compile time");
        }
    }

    #[test]
    fn a_panicking_strategy_marks_the_cell_errored() {
        let config = EvalConfig {
            packets: 2,
            nreg_sweep: vec![48],
            ..EvalConfig::smoke()
        };
        let suite = scenarios();
        let scenario = &suite[0];
        let workloads = scenario.workloads(config.packets);
        let cell = run_cell(scenario, &Panicky, 48, &workloads, &[], &config, None);
        let CellStatus::Error(why) = &cell.status else {
            panic!("expected an error cell, got {:?}", cell.status);
        };
        assert!(why.contains("boom"), "reason carries the panic message: {why}");
        // The record serialises with the failure, keeping the document
        // parseable, but validation rejects it with the reason.
        let text = cell.to_json().pretty();
        assert!(text.contains("\"status\": \"error\""));
        assert!(text.contains("boom at compile time"));
    }

    #[test]
    fn a_dead_reference_run_errors_the_scenario_but_not_the_sweep() {
        // A 10-cycle budget kills the virtual-register reference run;
        // every cell of the scenario must carry an error record instead
        // of the harness aborting.
        let config = EvalConfig {
            packets: 2,
            nreg_sweep: vec![48],
            cycle_budget: 10,
            ..EvalConfig::smoke()
        };
        let suite = scenarios();
        let report = run_eval_on(&config, &suite[..3]);
        assert_eq!(report.scenarios.len(), 3);
        for scenario in &report.scenarios {
            assert!(!scenario.cells.is_empty());
            for cell in &scenario.cells {
                assert!(
                    matches!(&cell.status, CellStatus::Error(why) if why.contains("reference")),
                    "expected reference-failure error, got {:?}",
                    cell.status
                );
            }
        }
        // The poisoned document still serialises and parses; validation
        // reports the first errored cell.
        let doc = crate::json::parse(&report.to_json_string()).expect("document parses");
        let err = validate_json(&doc).expect_err("error cells must fail validation");
        assert!(err.contains("errored"), "{err}");
    }

    /// The deterministic-merge guarantee of the tentpole: the same
    /// configuration produces a byte-identical document serially, at
    /// any worker count, and with the compile cache on or off.
    #[test]
    fn sharded_sweeps_are_byte_identical_at_any_worker_count() {
        let base = EvalConfig {
            packets: 2,
            nreg_sweep: vec![48, 128],
            ..EvalConfig::smoke()
        };
        let suite = scenarios();
        let suite = &suite[..3];
        let serial_uncached = run_eval_threads(
            &EvalConfig {
                workers: 1,
                ..base.clone()
            },
            suite,
            &all_strategies(),
            1,
            1,
            false,
        )
        .to_json_string();
        for workers in [1usize, 4, 8] {
            // Drive the scoped-thread merge path directly: the public
            // entry point clamps threads to the machine's parallelism,
            // which on a small CI box would reduce every case to the
            // serial path and test nothing.
            let sharded = run_eval_threads(
                &EvalConfig {
                    workers,
                    ..base.clone()
                },
                suite,
                &all_strategies(),
                workers,
                workers,
                true,
            )
            .to_json_string();
            assert_eq!(
                serial_uncached, sharded,
                "cached sweep at {workers} workers diverged from the serial baseline"
            );
        }
    }

    /// A strategy that panics only in one deterministic cell of the
    /// grid, to prove worker-level fault isolation.
    struct PanickyAt {
        nreg: usize,
    }

    impl Strategy for PanickyAt {
        fn name(&self) -> &'static str {
            "panicky-at"
        }

        fn compile_cached(
            &self,
            _: &[Func],
            nreg: usize,
            pu: usize,
            _: &CompileCtx<'_>,
        ) -> Result<CompiledPu, String> {
            assert!(
                nreg != self.nreg || pu != 0,
                "injected fault at nreg={nreg}"
            );
            Err("never feasible elsewhere".into())
        }
    }

    /// Panic injection under sharding: the poisoned cell is recorded as
    /// an error, every sibling cell — including the same strategy at
    /// other file sizes and other strategies in the same scenarios —
    /// still gets measured by the surviving workers.
    #[test]
    fn a_poisoned_cell_dies_alone_in_a_sharded_sweep() {
        let config = EvalConfig {
            packets: 2,
            nreg_sweep: vec![48, 128],
            workers: 4,
            ..EvalConfig::smoke()
        };
        let suite = scenarios();
        let strategies: Vec<Box<dyn Strategy>> = vec![
            Box::new(crate::strategy::Balanced),
            Box::new(PanickyAt { nreg: 48 }),
        ];
        let report = run_eval_threads(&config, &suite[..3], &strategies, 4, 4, true);
        assert_eq!(report.scenarios.len(), 3);
        for s in &report.scenarios {
            let poisoned = s.cell("panicky-at", 48).expect("poisoned cell present");
            assert!(
                matches!(&poisoned.status, CellStatus::Error(why) if why.contains("injected fault")),
                "expected the injected panic, got {:?}",
                poisoned.status
            );
            let sibling = s.cell("panicky-at", 128).expect("sibling cell present");
            assert!(
                matches!(sibling.status, CellStatus::Infeasible(_)),
                "sibling cell of the panicking strategy still measured: {:?}",
                sibling.status
            );
            for nreg in [48, 128] {
                let balanced = s.cell("balanced", nreg).expect("balanced cell present");
                assert!(
                    !matches!(balanced.status, CellStatus::Error(_)),
                    "a poisoned cell must not spill into other strategies: {:?}",
                    balanced.status
                );
            }
        }
    }

    /// Timing knobs surface in the document — and only there: a timed
    /// run carries run-level and per-cell wall-clock members that
    /// validate, an untimed run omits them entirely.
    #[test]
    fn timing_members_appear_exactly_when_requested() {
        let config = EvalConfig {
            packets: 2,
            nreg_sweep: vec![48],
            timing: true,
            workers: 2,
            ..EvalConfig::smoke()
        };
        let suite = scenarios();
        let report = run_eval_on(&config, &suite[..3]);
        let timing = report.timing.as_ref().expect("timed run records timing");
        assert_eq!(timing.workers, 2);
        assert!(timing.threads >= 1 && timing.threads <= 2);
        assert!(timing.wall_ms >= 0.0);
        let text = report.to_json_string();
        assert!(text.contains("\"timing\""));
        assert!(text.contains("\"elapsed_ms\""));
        let doc = crate::json::parse(&text).expect("timed document parses");
        validate_json(&doc).expect("timed document validates");

        let untimed = run_eval_on(
            &EvalConfig {
                timing: false,
                ..config
            },
            &suite[..3],
        );
        assert!(untimed.timing.is_none());
        let text = untimed.to_json_string();
        assert!(!text.contains("\"timing\""));
        assert!(!text.contains("\"elapsed_ms\""));
    }
}
