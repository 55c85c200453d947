//! The benchmark's contract, at `--smoke` size: every workload prints
//! exactly the metrics `BENCHMARK.json` lists, with their units, as the
//! last line of a successful run; the seed changes the generated inputs;
//! and a repeated seed reproduces the deterministic quality counts.

use regbal_eval::{json, Json};
use regbal_serve::{
    allocate, kernel_text, load_module, materialize, replicate, ServeStrategy, TraceFile,
};
use regbal_workloads::{Kernel, TraceConfig};
use std::path::PathBuf;
use std::process::Command;

/// Counts that depend only on the inputs, never on timing.
const DETERMINISTIC: [&str; 4] = [
    "sim.cycles",
    "eval.ipkc_geomean",
    "core.moves_total",
    "core.spills_total",
];

fn benchmark_json() -> Json {
    let path = PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("../BENCHMARK.json");
    let text = std::fs::read_to_string(&path).expect("BENCHMARK.json is readable");
    json::parse(&text).expect("BENCHMARK.json is JSON")
}

/// `(name, unit)` of every metric in one section of `BENCHMARK.json`.
fn listed(section: &str) -> Vec<(String, String)> {
    benchmark_json()
        .get(section)
        .and_then(Json::as_arr)
        .expect("section present")
        .iter()
        .map(|m| {
            let field = |k: &str| {
                m.get(k)
                    .and_then(Json::as_str)
                    .expect("name and unit")
                    .to_string()
            };
            (field("name"), field("unit"))
        })
        .collect()
}

/// One smoke run's output.
struct Output {
    inputs: String,
    metrics: Vec<(String, String, f64)>,
}

impl Output {
    fn value(&self, name: &str) -> f64 {
        self.metrics
            .iter()
            .find(|m| m.0 == name)
            .unwrap_or_else(|| panic!("no metric `{name}`"))
            .2
    }
}

fn smoke(workload: &str, seed: u64, trace: bool) -> Output {
    let dir = PathBuf::from(env!("CARGO_TARGET_TMPDIR")).join(format!("{workload}-{seed}-{trace}"));
    std::fs::create_dir_all(&dir).expect("scratch dir");
    let out = Command::new(env!("CARGO_BIN_EXE_regbal-benchmark"))
        .current_dir(&dir)
        .args([
            "--workload",
            workload,
            "--seed",
            &seed.to_string(),
            "--seconds",
            "0",
        ])
        .args(["--trace", if trace { "1" } else { "0" }, "--smoke"])
        .output()
        .expect("the benchmark runs");
    let stdout = String::from_utf8(out.stdout).expect("UTF-8 output");
    assert!(
        out.status.success(),
        "{workload} seed {seed} trace {trace} failed:\n{stdout}\n{}",
        String::from_utf8_lossy(&out.stderr)
    );
    let last = stdout.lines().last().expect("some output");
    let result = json::parse(last).expect("the last line is JSON");
    let keys: Vec<&str> = match &result {
        Json::Obj(members) => members.iter().map(|(k, _)| k.as_str()).collect(),
        _ => panic!("the result is an object"),
    };
    assert_eq!(keys, ["correct", "attempted", "failed", "metrics"]);
    assert_eq!(
        result.get("correct").and_then(Json::as_bool),
        Some(true),
        "{stdout}"
    );
    assert_eq!(result.get("failed").and_then(Json::as_u64), Some(0));
    assert!(result.get("attempted").and_then(Json::as_u64).unwrap_or(0) >= 1);
    let Some(Json::Obj(metrics)) = result.get("metrics") else {
        panic!("metrics is an object");
    };
    let metrics = metrics
        .iter()
        .map(|(name, m)| {
            let unit = m
                .get("unit")
                .and_then(Json::as_str)
                .expect("unit")
                .to_string();
            (
                name.clone(),
                unit,
                m.get("value").and_then(Json::as_f64).expect("value"),
            )
        })
        .collect();
    let inputs = stdout
        .lines()
        .find_map(|l| l.strip_prefix("inputs "))
        .expect("an inputs line")
        .to_string();
    Output { inputs, metrics }
}

fn names_and_units(output: &Output) -> Vec<(String, String)> {
    output
        .metrics
        .iter()
        .map(|(n, u, _)| (n.clone(), u.clone()))
        .collect()
}

/// The whole contract for one workload.
fn contract(workload: &str) {
    let timed = smoke(workload, 1, false);
    assert_eq!(
        names_and_units(&timed),
        listed("end_to_end"),
        "{workload}: end-to-end metrics"
    );
    for (name, _, value) in &timed.metrics {
        assert!(
            *value > 0.0,
            "{workload}: end-to-end metric {name} reads {value}"
        );
    }
    let traced = smoke(workload, 1, true);
    assert_eq!(
        names_and_units(&traced),
        listed("per_layer"),
        "{workload}: per-layer metrics"
    );
    assert_eq!(
        timed.inputs, traced.inputs,
        "{workload}: one seed, one input set"
    );

    let again = smoke(workload, 1, true);
    for name in DETERMINISTIC {
        assert_eq!(
            traced.value(name),
            again.value(name),
            "{workload}: {name} does not repeat"
        );
    }
    let other = smoke(workload, 2, true);
    assert_ne!(
        traced.inputs, other.inputs,
        "{workload}: the seed does not change the inputs"
    );
}

#[test]
fn benchmark_json_lists_the_four_workloads() {
    let names: Vec<String> = benchmark_json()
        .get("workloads")
        .and_then(Json::as_arr)
        .expect("workloads")
        .iter()
        .map(|w| {
            w.get("name")
                .and_then(Json::as_str)
                .expect("name")
                .to_string()
        })
        .collect();
    assert_eq!(
        names,
        ["serve-cold", "serve-warm", "eval-sweep", "device-64"]
    );
}

#[test]
fn serve_cold_contract() {
    contract("serve-cold");
}

#[test]
fn serve_warm_contract() {
    contract("serve-warm");
}

#[test]
fn eval_sweep_contract() {
    contract("eval-sweep");
}

#[test]
fn device_64_contract() {
    contract("device-64");
}

/// The spill-diverged verdict the serve-cold trace at seed 2005 draws
/// (balanced-spill on four `wraps-rx` threads at Nreg 32) is what the
/// one-shot allocator answers too: a correct verdict, not a failure.
#[test]
fn spill_diverged_is_a_one_shot_verdict() {
    let trace = TraceFile::generate(&TraceConfig {
        requests: 200,
        seed: 2005,
        ..TraceConfig::default()
    });
    let drawn = materialize(&trace.requests, trace.packets)
        .into_iter()
        .any(|r| {
            r.kernel == Kernel::WrapsRx
                && r.nthd == 4
                && r.nreg == 32
                && r.strategy == ServeStrategy::BalancedSpill
        });
    assert!(
        drawn,
        "seed 2005 draws balanced-spill on 4x wraps-rx at Nreg 32"
    );
    let roots =
        load_module(&kernel_text(Kernel::WrapsRx, trace.packets)).expect("the kernel loads");
    let verdict = allocate(&replicate(&roots, 4), 32, ServeStrategy::BalancedSpill);
    assert_eq!(verdict.err().map(|f| f.code), Some("spill-diverged"));
}
