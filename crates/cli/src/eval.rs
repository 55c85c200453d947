//! `regbal eval`: the traffic-driven strategy sweep behind
//! `BENCH_EVAL.json`, and its validator.

use crate::{Args, Command, Flag};
use regbal_eval::{run_eval, validate_json, CellStatus, EvalConfig};
use std::fmt::Write as _;

pub(crate) const COMMAND: Command = Command {
    name: "eval",
    flags: &[
        Flag::Switch("--smoke"),
        Flag::Value("--packets"),
        Flag::Value("--nreg"),
        Flag::Value("--out"),
        Flag::Value("--validate"),
        Flag::Switch("--sanitize"),
        Flag::Value("--workers"),
        Flag::Switch("--timing"),
    ],
    files: false,
    main: eval,
};

/// The `regbal eval` subcommand: run the strategy-evaluation sweep and
/// write `BENCH_EVAL.json`, or validate an existing report.
fn eval(args: &Args, out: &mut String) -> Result<(), String> {
    let smoke = args.has("--smoke");
    let sanitize = args.has("--sanitize");
    let timing = args.has("--timing");
    let out_path = args.raw("--out").unwrap_or("BENCH_EVAL.json");
    let packets: Option<u32> = args.get("--packets")?;
    let workers: Option<usize> = args.get("--workers")?;
    let nreg_sweep: Option<Vec<usize>> = args
        .raw("--nreg")
        .map(|list| {
            list.split(',')
                .map(|n| n.trim().parse().map_err(|e| format!("--nreg `{n}`: {e}")))
                .collect()
        })
        .transpose()?;
    let validate_path = args.raw("--validate");

    if let Some(path) = validate_path {
        let text = std::fs::read_to_string(path).map_err(|e| format!("{path}: {e}"))?;
        let doc = regbal_eval::json::parse(&text).map_err(|e| format!("{path}: {e}"))?;
        let summary = validate_json(&doc).map_err(|e| format!("{path}: {e}"))?;
        let _ = writeln!(out, "{path}: OK ({summary})");
        return Ok(());
    }

    let mut config = if smoke { EvalConfig::smoke() } else { EvalConfig::full() };
    if let Some(p) = packets {
        config.packets = p;
    }
    if let Some(sweep) = nreg_sweep {
        config.nreg_sweep = sweep;
    }
    if let Some(w) = workers {
        config.workers = w;
    }
    config.sanitize = sanitize;
    config.timing |= timing;
    let report = run_eval(&config);

    // A compact throughput table per scenario: rows are strategies,
    // columns the swept register-file sizes.
    for scenario in &report.scenarios {
        let _ = writeln!(
            out,
            "{} ({}){}",
            scenario.name,
            scenario.description,
            if scenario.register_hungry { " [hungry]" } else { "" }
        );
        for strategy in &report.strategies {
            let cells: Vec<String> = report
                .nreg_sweep
                .iter()
                .map(|&nreg| match scenario.cell(strategy, nreg) {
                    Some(c) if c.status == CellStatus::Ok => format!(
                        "{nreg}: {:.2}{}",
                        c.throughput_ipkc,
                        if c.checksum_ok { "" } else { " BAD-CHECKSUM" }
                    ),
                    Some(_) | None => format!("{nreg}: -"),
                })
                .collect();
            let _ = writeln!(out, "  {strategy:>15}  {}", cells.join("  "));
        }
    }
    let text = report.to_json_string();
    std::fs::write(out_path, text + "\n").map_err(|e| format!("{out_path}: {e}"))?;
    let _ = writeln!(
        out,
        "wrote {out_path} ({} scenarios x {} strategies x {} sizes, {} packets/thread)",
        report.scenarios.len(),
        report.strategies.len(),
        report.nreg_sweep.len(),
        report.packets
    );
    if let Some(t) = &report.timing {
        let _ = writeln!(
            out,
            "timing: {} worker(s) on {} thread(s), {:.1} ms wall",
            t.workers, t.threads, t.wall_ms
        );
    }
    if sanitize {
        let (violations, warnings) = report
            .scenarios
            .iter()
            .flat_map(|s| &s.cells)
            .fold((0usize, 0usize), |(v, w), c| {
                (v + c.sanitizer_violations, w + c.sanitizer_warnings)
            });
        let _ = writeln!(
            out,
            "sanitizer: {violations} violation(s), {warnings} warning(s) across the sweep"
        );
        if violations + warnings > 0 {
            return Err(format!(
                "sanitizer reported {violations} violation(s) and {warnings} warning(s)"
            ));
        }
    }
    Ok(())
}
