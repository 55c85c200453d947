//! `regbal-benchmark`: one end-to-end and per-layer benchmark of the
//! regbal allocator, its server, its evaluation sweep and its device
//! simulator. See `README.md` for the workloads, metrics and commands.
//!
//! ```text
//! regbal-benchmark --workload <name> --seed <n> --seconds <s> [--trace 0|1] [--smoke] [--record <file>]
//! regbal-benchmark compare <runs.jsonl> [<runs.jsonl>]
//! ```
//!
//! A run prints one `name value unit` line per metric and, as its last
//! line, one JSON result object; it exits 1 on any wrong output. Scratch
//! files go under `.bench_work/` in the working directory.

mod compare;
mod device;
mod eval;
mod heap;
mod layers;
mod metrics;
mod serve;
mod timing;
mod trace;

#[global_allocator]
static ALLOCATOR: heap::Counting = heap::Counting;

use metrics::Run;
use std::io::Write as _;
use std::path::{Path, PathBuf};

/// The workloads, in `BENCHMARK.json` order.
const WORKLOADS: [&str; 4] = ["serve-cold", "serve-warm", "eval-sweep", "device-64"];

/// Scratch directory, relative to the working directory.
const WORK_DIR: &str = ".bench_work";

/// Parsed command line of a measuring run.
#[derive(Debug, Clone)]
pub struct Args {
    /// Workload name.
    pub workload: String,
    /// Input seed.
    pub seed: u64,
    /// How long the timed part runs, in seconds.
    pub seconds: f64,
    /// Run the traced pass instead of the timed one.
    pub trace: bool,
    /// Shrink every workload to the contract test's size.
    pub smoke: bool,
    /// Append the result, tagged with workload and seed, to this file.
    pub record: Option<PathBuf>,
}

fn parse_args(args: &[String]) -> Result<Args, String> {
    let mut workload = None;
    let mut seed = None;
    let mut seconds = None;
    let mut trace = false;
    let mut smoke = false;
    let mut record = None;
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        let mut value = || it.next().ok_or_else(|| format!("`{flag}` needs a value"));
        match flag.as_str() {
            "--workload" => workload = Some(value()?.clone()),
            "--seed" => {
                seed = Some(
                    value()?
                        .parse::<u64>()
                        .map_err(|e| format!("--seed: {e}"))?,
                )
            }
            "--seconds" => {
                let s: f64 = value()?.parse().map_err(|e| format!("--seconds: {e}"))?;
                if !(s.is_finite() && s >= 0.0) {
                    return Err("--seconds must be a non-negative number".into());
                }
                seconds = Some(s);
            }
            "--trace" => {
                trace = match value()?.as_str() {
                    "0" => false,
                    "1" => true,
                    other => return Err(format!("--trace takes 0 or 1, not `{other}`")),
                }
            }
            "--smoke" => smoke = true,
            "--record" => record = Some(PathBuf::from(value()?)),
            other => return Err(format!("unknown argument `{other}`")),
        }
    }
    let workload = workload.ok_or("--workload is required")?;
    if !WORKLOADS.contains(&workload.as_str()) {
        return Err(format!(
            "unknown workload `{workload}` ({})",
            WORKLOADS.join("|")
        ));
    }
    Ok(Args {
        workload,
        seed: seed.ok_or("--seed is required")?,
        seconds: seconds.ok_or("--seconds is required")?,
        trace,
        smoke,
        record,
    })
}

/// Runs one workload in `work`; the traced pass also returns its spans.
fn measure(args: &Args, work: &Path) -> Result<(Run, Option<trace::Tracer>), String> {
    let traced = |r: Result<(Run, trace::Tracer), String>| r.map(|(run, t)| (run, Some(t)));
    match (args.workload.as_str(), args.trace) {
        ("serve-cold", false) => serve::cold(args, work).map(|r| (r, None)),
        ("serve-cold", true) => traced(serve::cold_traced(args, work)),
        ("serve-warm", false) => serve::warm(args, work).map(|r| (r, None)),
        ("serve-warm", true) => traced(serve::warm_traced(args, work)),
        ("eval-sweep", false) => eval::sweep(args).map(|r| (r, None)),
        ("eval-sweep", true) => traced(eval::sweep_traced(args)),
        ("device-64", false) => device::device(args).map(|r| (r, None)),
        ("device-64", true) => traced(device::device_traced(args)),
        (other, _) => Err(format!("unknown workload `{other}`")),
    }
}

/// Measures, prints and records one run; returns whether every output
/// was correct.
fn bench(args: &Args) -> Result<bool, String> {
    let root = PathBuf::from(WORK_DIR);
    let work = root.join(format!("{}-{}", args.workload, std::process::id()));
    std::fs::create_dir_all(&work).map_err(|e| format!("creating {}: {e}", work.display()))?;
    let measured = measure(args, &work);
    let _ = std::fs::remove_dir_all(&work);
    let (run, tracer) = measured?;
    if let Some(tracer) = &tracer {
        print!("{}", tracer.table());
        let path = root.join(format!("spans-{}-{}.json", args.workload, args.seed));
        std::fs::write(&path, tracer.to_json())
            .map_err(|e| format!("writing {}: {e}", path.display()))?;
        println!("spans written to {}", path.display());
    }
    let result = run.print(args.trace)?;
    if let Some(path) = &args.record {
        let line = format!(
            "{{\"workload\": \"{}\", \"seed\": {}, \"trace\": {}, \"result\": {result}}}\n",
            args.workload,
            args.seed,
            u8::from(args.trace)
        );
        std::fs::OpenOptions::new()
            .create(true)
            .append(true)
            .open(path)
            .and_then(|mut f| f.write_all(line.as_bytes()))
            .map_err(|e| format!("appending to {}: {e}", path.display()))?;
    }
    Ok(run.wrong.is_empty())
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let outcome = match args.first().map(String::as_str) {
        Some("compare") => compare::compare(&args[1..]),
        _ => parse_args(&args).and_then(|a| bench(&a)),
    };
    match outcome {
        Ok(true) => {}
        Ok(false) => std::process::exit(1),
        Err(e) => {
            eprintln!("regbal-benchmark: {e}");
            std::process::exit(2);
        }
    }
}
