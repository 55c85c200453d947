//! `regbal device`: the device-scale scenario family under both chip
//! cores.

use crate::{Args, Command, Flag};
use regbal_eval::{run_device_eval, DeviceEvalConfig};
use std::fmt::Write as _;

pub(crate) const COMMAND: Command = Command {
    name: "device",
    flags: &[
        Flag::Switch("--smoke"),
        Flag::Value("--nreg"),
        Flag::Value("--cycles"),
        Flag::Value("--seed"),
        Flag::Switch("--sanitize"),
        Flag::Value("--out"),
    ],
    files: false,
    main: device,
};

/// The `regbal device` subcommand: run the device scenario family
/// (command processor + worker PUs) under both chip cores and
/// check report identity, digest correctness and sanitizer silence.
fn device(args: &Args, out: &mut String) -> Result<(), String> {
    let smoke = args.has("--smoke");
    let sanitize = args.has("--sanitize");
    let out_path = args.raw("--out");
    let nreg: Option<usize> = args.get("--nreg")?;
    let cycles: Option<u64> = args.get("--cycles")?;
    let seed: Option<u64> = args.get("--seed")?;

    let mut config = if smoke {
        DeviceEvalConfig::smoke()
    } else {
        DeviceEvalConfig::full()
    };
    if let Some(n) = nreg {
        config.nreg = n;
    }
    if let Some(c) = cycles {
        config.cycle_budget = c;
    }
    if let Some(s) = seed {
        config.seed = s;
    }
    config.sanitize = sanitize;
    let report = run_device_eval(&config);

    for s in &report.scenarios {
        let gate = |ok: bool| if ok { "ok" } else { "FAIL" };
        let _ = writeln!(
            out,
            "{}: {} worker PU(s), {} ring(s), {} packet(s)",
            s.name, s.pus, s.rings, s.packets
        );
        let _ = writeln!(
            out,
            "  reference    {:>9} cycles  digest {:08x} ({})",
            s.reference.cycles,
            s.reference.digest,
            gate(s.reference.digest == s.expected_digest && s.reference.halted)
        );
        let _ = writeln!(
            out,
            "  event        reports identical: {}",
            gate(s.event_identical)
        );
        let _ = writeln!(
            out,
            "  ladder@{:<3}   {:>9} cycles  digest {:08x} ({}), {} sanitizer finding(s), limits {:?}",
            config.nreg,
            s.physical.cycles,
            s.physical.digest,
            gate(s.physical.digest == s.expected_digest
                && s.physical.halted
                && s.physical.sanitizer_violations == 0),
            s.physical.sanitizer_violations,
            s.physical_limits.iter().take(4).collect::<Vec<_>>()
        );
    }
    if let Some(path) = out_path {
        std::fs::write(path, report.to_json().pretty() + "\n")
            .map_err(|e| format!("{path}: {e}"))?;
        let _ = writeln!(out, "wrote {path}");
    }
    if report.ok() {
        let _ = writeln!(out, "device family OK ({} scenario(s))", report.scenarios.len());
        Ok(())
    } else {
        Err("device family FAILED: report divergence, digest mismatch, stall or sanitizer finding".into())
    }
}
