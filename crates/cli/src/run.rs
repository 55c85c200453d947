//! `regbal run`: simulate the threads on one PU and print their
//! statistics.

use crate::{load, Args, Command, Flag};
use regbal_sim::{SanitizerConfig, SimConfig, Simulator, StopWhen};
use std::fmt::Write as _;

pub(crate) const COMMAND: Command = Command {
    name: "run",
    flags: &[
        Flag::Value("--cycles"),
        Flag::Value("--iterations"),
        Flag::Value("--trace"),
        Flag::Switch("--sanitize"),
    ],
    files: true,
    main: run,
};

fn run(args: &Args, out: &mut String) -> Result<(), String> {
    let cycles = args.get("--cycles")?.unwrap_or(1_000_000u64);
    let iterations: Option<u64> = args.get("--iterations")?;
    let trace: Option<usize> = args.get("--trace")?;
    let sanitize = args.has("--sanitize");
    let funcs = load(&args.files)?;
    let mut sim = Simulator::new(SimConfig::default());
    if let Some(n) = trace {
        sim.enable_trace(n);
    }
    if sanitize {
        // No bank layout is known for hand-written input: bank checks
        // are skipped, clobber and uninitialized-read checks run.
        sim.enable_sanitizer(SanitizerConfig::default());
    }
    for f in &funcs {
        sim.add_thread(f.clone());
    }
    let stop = match iterations {
        Some(n) => StopWhen::Iterations(n),
        None => StopWhen::Cycles(cycles),
    };
    let report = sim.run(stop);
    let _ = writeln!(out, "cycles: {} (idle {})", report.cycles, report.idle_cycles);
    for (i, t) in report.threads.iter().enumerate() {
        let _ = writeln!(
            out,
            "thread {i} `{}`: {} instructions, {} iterations, {} switches, {:.0}% busy{}{}",
            funcs[i].name,
            t.instructions,
            t.iterations,
            t.ctx_switches,
            100.0 * t.busy_cycles as f64 / report.cycles.max(1) as f64,
            if t.halted { ", halted" } else { "" },
            if t.cycles_per_iteration.is_finite() {
                format!(", {:.0} cycles/iteration", t.cycles_per_iteration)
            } else {
                String::new()
            }
        );
    }
    if !report.violations.is_empty() {
        let _ = writeln!(out, "REGISTER-SAFETY VIOLATIONS: {}", report.violations.len());
    }
    let sanitizer_violations = report.sanitizer_violations().count();
    if !report.sanitizer.is_empty() {
        let _ = writeln!(
            out,
            "sanitizer: {} violation(s), {} warning(s)",
            sanitizer_violations,
            report.sanitizer.len() - sanitizer_violations
        );
        for r in &report.sanitizer {
            let _ = writeln!(out, "  {r}");
        }
        if report.sanitizer_dropped > 0 {
            let _ = writeln!(
                out,
                "  ({} further report(s) dropped)",
                report.sanitizer_dropped
            );
        }
    }
    for event in sim.trace() {
        let _ = writeln!(out, "{event:?}");
    }
    if report.trace_dropped > 0 {
        let _ = writeln!(
            out,
            "({} trace event(s) dropped; raise --trace to keep more)",
            report.trace_dropped
        );
    }
    if let Some(err) = &report.error {
        return Err(err.to_string());
    }
    if sanitizer_violations > 0 {
        return Err(format!(
            "sanitizer reported {sanitizer_violations} violation(s)"
        ));
    }
    Ok(())
}
