//! The `device` eval scenario family: command-processor-fed packet
//! devices at 4/16/64 worker PUs (see `regbal_sim::device`).
//!
//! Each scenario runs three gates:
//!
//! 1. **Core identity** — the virtual-register device under the
//!    reference granularity-1 slice loop and the event core must
//!    produce *equal* per-PU [`RunReport`]s (field-for-field,
//!    trace/violation/idle included).
//! 2. **Model check** — the device's order-insensitive global digest
//!    must equal the host-side fold
//!    ([`regbal_workloads::expected_total_digest`]), and every offered
//!    packet must be processed.
//! 3. **Allocation check** — the Ladder-compiled (physical-register)
//!    device, admission-gated by register-file occupancy, must
//!    reproduce the same global digest with zero sanitizer violations.
//!
//! Gate 3 compares *digests*, not reports: a different allocation has
//! different timing, so packets distribute differently over threads —
//! only the commutative global fold is allocation-invariant.

use crate::json::Json;
use crate::strategy::{Ladder, Strategy};
use regbal_ir::Func;
use regbal_sim::device::{ChipCore, PKT_BASE};
use regbal_sim::sanitizer::SanitizerConfig;
use regbal_sim::{Device, DeviceSpec, RunReport};
use regbal_workloads::{build_worker, expected_total_digest, fill_packets};

/// A named device shape in the family.
#[derive(Debug, Clone)]
pub struct DeviceScenario {
    /// Scenario name (`device-<pus>`).
    pub name: String,
    /// The device shape.
    pub spec: DeviceSpec,
}

/// The device scenario family: 4, 16 and 64 worker PUs, four worker
/// threads (rings) per PU, eight-slot rings.
pub fn device_scenarios() -> Vec<DeviceScenario> {
    [(4usize, 192u32), (16, 384), (64, 768)]
        .into_iter()
        .map(|(pus, packets)| DeviceScenario {
            name: format!("device-{pus}"),
            spec: DeviceSpec {
                pus,
                threads_per_pu: 4,
                queue_capacity: 8,
                packets,
            },
        })
        .collect()
}

/// Everything needed to instantiate one device run: programs, per-ring
/// admission limits and the per-chip-PU sanitizer/degradation stamps.
#[derive(Debug, Clone)]
pub struct DeviceProgram {
    /// The command processor (chip PU 0).
    pub cp: Func,
    /// Worker programs, `workers[pu][thread]` in ring order.
    pub workers: Vec<Vec<Func>>,
    /// Per-ring admission depth limits.
    pub limits: Vec<u32>,
    /// Per-chip-PU sanitizer layouts (physical builds only).
    pub sanitizers: Option<Vec<SanitizerConfig>>,
    /// Per-chip-PU ladder-descent counts.
    pub degraded: Vec<u64>,
    /// Per-chip-PU physical registers consumed (0 for virtual builds).
    pub registers_used: Vec<usize>,
}

/// The virtual-register build: the reference semantics, full-capacity
/// admission limits.
pub fn reference_program(spec: &DeviceSpec) -> DeviceProgram {
    let workers = (0..spec.pus)
        .map(|pu| {
            (0..spec.threads_per_pu)
                .map(|t| build_worker(spec, spec.ring(pu, t)))
                .collect()
        })
        .collect();
    DeviceProgram {
        cp: spec.command_processor(),
        workers,
        limits: vec![spec.queue_capacity; spec.rings()],
        sanitizers: None,
        degraded: vec![0; spec.pus + 1],
        registers_used: vec![0; spec.pus + 1],
    }
}

/// The admission policy: a ring on a PU whose code consumes `used` of
/// `nreg` physical registers may hold
/// `clamp(capacity * (nreg - used) / nreg, 1, capacity)` packets —
/// heavier register-file occupancy means shallower queues, coupling
/// admission to allocation quality (cyclotron's occupancy gate at
/// packet granularity).
pub fn occupancy_limit(capacity: u32, nreg: usize, used: usize) -> u32 {
    let free = nreg.saturating_sub(used) as u64;
    let limit = u64::from(capacity) * free / nreg.max(1) as u64;
    (limit as u32).clamp(1, capacity)
}

/// Compiles the device through a register-allocation strategy at
/// `nreg`, deriving each ring's admission limit from its PU's
/// register-file occupancy.
///
/// # Errors
///
/// Propagates the strategy's failure message (the Ladder never fails).
pub fn compile_program(
    spec: &DeviceSpec,
    strategy: &dyn Strategy,
    nreg: usize,
) -> Result<DeviceProgram, String> {
    let reference = reference_program(spec);
    let cp = strategy.compile(std::slice::from_ref(&reference.cp), nreg, 0)?;
    let mut workers = Vec::with_capacity(spec.pus);
    let mut limits = Vec::with_capacity(spec.rings());
    let mut sanitizers = vec![cp.sanitizer.clone()];
    let mut degraded = vec![cp.degraded as u64];
    let mut registers_used = vec![cp.registers_used];
    for pu in 0..spec.pus {
        let compiled = strategy.compile(&reference.workers[pu], nreg, pu + 1)?;
        let limit = occupancy_limit(spec.queue_capacity, nreg, compiled.registers_used);
        limits.extend(std::iter::repeat_n(limit, spec.threads_per_pu));
        sanitizers.push(compiled.sanitizer.clone());
        degraded.push(compiled.degraded as u64);
        registers_used.push(compiled.registers_used);
        workers.push(compiled.funcs);
    }
    Ok(DeviceProgram {
        cp: cp.funcs.into_iter().next().expect("one CP thread"),
        workers,
        limits,
        sanitizers: Some(sanitizers),
        degraded,
        registers_used,
    })
}

/// Digest of one device run.
#[derive(Debug, Clone)]
pub struct DeviceOutcome {
    /// Per-PU reports (CP first).
    pub reports: Vec<RunReport>,
    /// The global wrapping-sum digest.
    pub digest: u32,
    /// Packets processed across all rings.
    pub processed: u64,
    /// Wall-clock cycles (max over PUs).
    pub cycles: u64,
    /// Whether every PU halted within the budget.
    pub halted: bool,
    /// Sanitizer violations across all PUs.
    pub sanitizer_violations: usize,
}

/// Instantiates and runs one device: fills the packet buffer from
/// `seed`, applies the program's limits/sanitizers, runs `core` to
/// `cycle_budget`.
pub fn run_device(
    spec: &DeviceSpec,
    program: &DeviceProgram,
    core: ChipCore,
    cycle_budget: u64,
    seed: u64,
    sanitize: bool,
) -> DeviceOutcome {
    let mut device = Device::new(*spec);
    fill_packets(device.chip_mut().memory_mut(), PKT_BASE, spec.packets, seed);
    for (ring, &limit) in program.limits.iter().enumerate() {
        device.set_depth_limit(ring, limit);
    }
    if sanitize {
        if let Some(configs) = &program.sanitizers {
            for (pu, config) in configs.iter().enumerate() {
                device.chip_mut().enable_sanitizer(pu, config.clone());
            }
        }
    }
    for (pu, &count) in program.degraded.iter().enumerate() {
        device.chip_mut().pu_mut(pu).note_degraded(count);
    }
    device.add_cp(program.cp.clone());
    for (pu, funcs) in program.workers.iter().enumerate() {
        for func in funcs {
            device.add_worker(pu, func.clone());
        }
    }
    let reports = device.run(core, cycle_budget);
    DeviceOutcome {
        digest: device.total_digest(),
        processed: device.total_processed(),
        cycles: reports.iter().map(|r| r.cycles).max().unwrap_or(0),
        halted: device.all_halted(),
        sanitizer_violations: reports
            .iter()
            .map(|r| r.sanitizer_violations().count())
            .sum(),
        reports,
    }
}

/// Configuration of a device-family evaluation.
#[derive(Debug, Clone)]
pub struct DeviceEvalConfig {
    /// Register-file size for the physical build.
    pub nreg: usize,
    /// Cycle budget per run.
    pub cycle_budget: u64,
    /// Packet-generator seed.
    pub seed: u64,
    /// Arm the register-clobber sanitizer on the physical runs.
    pub sanitize: bool,
    /// Restrict to the 4- and 16-PU scenarios.
    pub smoke: bool,
}

impl DeviceEvalConfig {
    /// The full family (4/16/64 PUs).
    pub fn full() -> DeviceEvalConfig {
        DeviceEvalConfig {
            nreg: 64,
            cycle_budget: 20_000_000,
            seed: 0xD1CE,
            sanitize: false,
            smoke: false,
        }
    }

    /// The CI subset: 4 and 16 PUs.
    pub fn smoke() -> DeviceEvalConfig {
        DeviceEvalConfig {
            smoke: true,
            ..DeviceEvalConfig::full()
        }
    }
}

/// One scenario's results.
#[derive(Debug, Clone)]
pub struct DeviceScenarioReport {
    /// Scenario name.
    pub name: String,
    /// Worker PUs.
    pub pus: usize,
    /// Descriptor rings.
    pub rings: usize,
    /// Packets offered.
    pub packets: u32,
    /// Host-model digest of the packet buffer.
    pub expected_digest: u32,
    /// Reference-core run of the virtual-register build.
    pub reference: DeviceOutcome,
    /// Serial event core reports equal the reference's.
    pub event_identical: bool,
    /// Event-core run of the Ladder-compiled build.
    pub physical: DeviceOutcome,
    /// Ring admission limits of the physical build.
    pub physical_limits: Vec<u32>,
    /// Physical registers used per chip PU (CP first).
    pub registers_used: Vec<usize>,
}

impl DeviceScenarioReport {
    /// Whether every gate of this scenario passed.
    pub fn ok(&self) -> bool {
        self.event_identical
            && self.reference.halted
            && self.reference.digest == self.expected_digest
            && self.reference.processed == u64::from(self.packets)
            && self.physical.halted
            && self.physical.digest == self.expected_digest
            && self.physical.processed == u64::from(self.packets)
            && self.physical.sanitizer_violations == 0
            && self.physical.reports.iter().all(|r| r.error.is_none())
            && self.reference.reports.iter().all(|r| r.error.is_none())
    }
}

/// The family report.
#[derive(Debug, Clone)]
pub struct DeviceEvalReport {
    /// The configuration that produced it.
    pub config: DeviceEvalConfig,
    /// Per-scenario results.
    pub scenarios: Vec<DeviceScenarioReport>,
}

impl DeviceEvalReport {
    /// Whether every scenario passed every gate.
    pub fn ok(&self) -> bool {
        self.scenarios.iter().all(DeviceScenarioReport::ok)
    }

    /// The machine-readable report (`regbal-device/2`).
    pub fn to_json(&self) -> Json {
        Json::Obj(vec![
            ("schema".into(), Json::str("regbal-device/2")),
            ("nreg".into(), Json::uint(self.config.nreg as u64)),
            ("seed".into(), Json::uint(self.config.seed)),
            ("sanitize".into(), Json::Bool(self.config.sanitize)),
            (
                "scenarios".into(),
                Json::Arr(self.scenarios.iter().map(scenario_json).collect()),
            ),
            ("ok".into(), Json::Bool(self.ok())),
        ])
    }
}

fn scenario_json(s: &DeviceScenarioReport) -> Json {
    let outcome = |o: &DeviceOutcome| {
        Json::Obj(vec![
            ("cycles".into(), Json::uint(o.cycles)),
            ("digest".into(), Json::uint(u64::from(o.digest))),
            ("processed".into(), Json::uint(o.processed)),
            ("halted".into(), Json::Bool(o.halted)),
            (
                "sanitizer_violations".into(),
                Json::uint(o.sanitizer_violations as u64),
            ),
            (
                "throughput_ppkc".into(),
                Json::float(o.processed as f64 * 1000.0 / o.cycles.max(1) as f64),
            ),
        ])
    };
    Json::Obj(vec![
        ("name".into(), Json::str(&s.name)),
        ("pus".into(), Json::uint(s.pus as u64)),
        ("rings".into(), Json::uint(s.rings as u64)),
        ("packets".into(), Json::uint(u64::from(s.packets))),
        (
            "expected_digest".into(),
            Json::uint(u64::from(s.expected_digest)),
        ),
        ("reference".into(), outcome(&s.reference)),
        ("event_identical".into(), Json::Bool(s.event_identical)),
        ("physical".into(), outcome(&s.physical)),
        (
            "physical_limits".into(),
            Json::Arr(
                s.physical_limits
                    .iter()
                    .map(|&l| Json::uint(u64::from(l)))
                    .collect(),
            ),
        ),
        (
            "registers_used".into(),
            Json::Arr(
                s.registers_used
                    .iter()
                    .map(|&r| Json::uint(r as u64))
                    .collect(),
            ),
        ),
        ("ok".into(), Json::Bool(s.ok())),
    ])
}

/// Runs one scenario through all three gates.
pub fn run_device_scenario(
    scenario: &DeviceScenario,
    config: &DeviceEvalConfig,
) -> DeviceScenarioReport {
    let spec = &scenario.spec;
    let reference = reference_program(spec);
    // Host-model digest over the same seeded buffer the runs use.
    let expected_digest = {
        let mut probe = regbal_sim::Memory::new(0, 0, spec.sim_config().sdram_size, 0);
        fill_packets(&mut probe, PKT_BASE, spec.packets, config.seed);
        expected_total_digest(&probe, spec.packets)
    };
    let ref_run = run_device(
        spec,
        &reference,
        ChipCore::Reference { granularity: 1 },
        config.cycle_budget,
        config.seed,
        false,
    );
    let event_run = run_device(
        spec,
        &reference,
        ChipCore::Event,
        config.cycle_budget,
        config.seed,
        false,
    );
    let physical_program = compile_program(spec, &Ladder, config.nreg)
        .expect("the Ladder strategy never fails");
    let physical = run_device(
        spec,
        &physical_program,
        ChipCore::Event,
        config.cycle_budget,
        config.seed,
        config.sanitize,
    );
    DeviceScenarioReport {
        name: scenario.name.clone(),
        pus: spec.pus,
        rings: spec.rings(),
        packets: spec.packets,
        expected_digest,
        event_identical: event_run.reports == ref_run.reports,
        reference: ref_run,
        physical,
        physical_limits: physical_program.limits.clone(),
        registers_used: physical_program.registers_used.clone(),
    }
}

/// Runs the device family under `config`.
pub fn run_device_eval(config: &DeviceEvalConfig) -> DeviceEvalReport {
    let scenarios = device_scenarios();
    let selected = scenarios
        .iter()
        .filter(|s| !config.smoke || s.spec.pus <= 16)
        .collect::<Vec<_>>();
    DeviceEvalReport {
        config: config.clone(),
        scenarios: selected
            .into_iter()
            .map(|s| run_device_scenario(s, config))
            .collect(),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn occupancy_limit_is_monotone_and_clamped() {
        assert_eq!(occupancy_limit(8, 64, 0), 8);
        assert_eq!(occupancy_limit(8, 64, 64), 1);
        assert_eq!(occupancy_limit(8, 64, 100), 1);
        let mut last = u32::MAX;
        for used in 0..=64 {
            let l = occupancy_limit(8, 64, used);
            assert!(l <= last && (1..=8).contains(&l));
            last = l;
        }
    }

    /// A small end-to-end scenario through all three gates.
    #[test]
    fn small_device_scenario_passes_all_gates() {
        let scenario = DeviceScenario {
            name: "device-2".into(),
            spec: DeviceSpec {
                pus: 2,
                threads_per_pu: 2,
                queue_capacity: 4,
                packets: 32,
            },
        };
        let config = DeviceEvalConfig {
            sanitize: true,
            ..DeviceEvalConfig::smoke()
        };
        let report = run_device_scenario(&scenario, &config);
        assert!(report.event_identical, "event core diverged");
        assert_eq!(report.reference.digest, report.expected_digest);
        assert_eq!(report.physical.digest, report.expected_digest);
        assert_eq!(report.physical.processed, 32);
        assert_eq!(report.physical.sanitizer_violations, 0);
        assert!(report.ok());

        // The `regbal-device/2` members of the document.
        let doc = DeviceEvalReport {
            config,
            scenarios: vec![report],
        }
        .to_json();
        let cell = &doc.get("scenarios").and_then(Json::as_arr).unwrap()[0];
        assert_eq!(
            doc.get("schema").and_then(Json::as_str),
            Some("regbal-device/2")
        );
        assert_eq!(
            cell.get("event_identical").and_then(Json::as_bool),
            Some(true)
        );
        assert!(doc.get("os_threads").is_none());
        assert!(cell.get("threads_identical").is_none());
    }
}
