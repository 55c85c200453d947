//! `regbal fuzz`: the time-budgeted stress-fuzz walk over the ladder
//! contract, and the archive minimizer.

use crate::{Args, Command, Flag};
use std::fmt::Write as _;

pub(crate) const COMMAND: Command = Command {
    name: "fuzz",
    flags: &[
        Flag::Value("--seconds"),
        Flag::Value("--start-seed"),
        Flag::Value("--cases"),
        Flag::Value("--archive"),
        Flag::Value("--minimize"),
    ],
    files: false,
    main: fuzz,
};

/// The `regbal fuzz` subcommand: walks the deterministic stress-fuzz
/// case sequence ([`regbal::fuzz::FuzzCase::from_index`]) under a time
/// or case budget, checking every case against the full ladder
/// contract. Failing cases are minimized, reported, and appended to
/// `--archive` for permanent replay; any failure makes the run exit
/// non-zero. `--minimize <file>` skips the walk and re-minimizes an
/// existing archive in place instead.
fn fuzz(args: &Args, out: &mut String) -> Result<(), String> {
    let seconds = args.get("--seconds")?.unwrap_or(5u64);
    let start = args.get("--start-seed")?.unwrap_or(0u64);
    let cases: Option<u64> = args.get("--cases")?;
    let archive = args.raw("--archive");
    if let Some(path) = args.raw("--minimize") {
        return minimize_archive(path, out);
    }
    let started = std::time::Instant::now();
    let budget = std::time::Duration::from_secs(seconds);
    let mut checked = 0u64;
    let mut failures: Vec<(String, String, String)> = Vec::new();
    let mut index = start;
    loop {
        let done = match cases {
            Some(n) => checked >= n,
            None => checked > 0 && started.elapsed() >= budget,
        };
        if done {
            break;
        }
        let case = regbal::fuzz::FuzzCase::from_index(index);
        if let Err(e) = case.check() {
            let _ = writeln!(out, "FAIL {}: {e}", case.line());
            let min = case.minimize();
            if min.line() != case.line() {
                let _ = writeln!(out, "  minimized to {}", min.line());
            }
            failures.push((case.line(), min.line(), e));
        }
        checked += 1;
        index += 1;
    }
    if let Some(path) = archive {
        if !failures.is_empty() {
            let mut text = String::new();
            for (found, line, error) in &failures {
                let _ = writeln!(text, "# {error}");
                if found != line {
                    let _ = writeln!(text, "# found as {found}");
                }
                let _ = writeln!(text, "{line}");
            }
            use std::io::Write as IoWrite;
            let mut file = std::fs::OpenOptions::new()
                .create(true)
                .append(true)
                .open(path)
                .map_err(|e| format!("{path}: {e}"))?;
            file.write_all(text.as_bytes())
                .map_err(|e| format!("{path}: {e}"))?;
            let _ = writeln!(out, "archived {} failing case(s) to {path}", failures.len());
        }
    }
    let _ = writeln!(
        out,
        "fuzz: {checked} case(s) from index {start} in {:.1}s, {} failure(s)",
        started.elapsed().as_secs_f64(),
        failures.len()
    );
    if failures.is_empty() {
        Ok(())
    } else {
        Err(format!(
            "fuzz: {} of {checked} case(s) violated the ladder contract",
            failures.len()
        ))
    }
}

/// `regbal fuzz --minimize <file>`: re-runs the deterministic minimizer
/// over every case line of an existing archive and rewrites the file in
/// place. Comment lines survive untouched; a case that now passes its
/// contract (or is already minimal) is kept verbatim, so re-minimizing
/// a healthy corpus is the identity.
fn minimize_archive(path: &str, out: &mut String) -> Result<(), String> {
    let text = std::fs::read_to_string(path).map_err(|e| format!("{path}: {e}"))?;
    let mut rewritten = String::new();
    let mut seen = 0usize;
    let mut shrunk = 0usize;
    for raw in text.lines() {
        let line = raw.trim();
        if line.is_empty() || line.starts_with('#') {
            let _ = writeln!(rewritten, "{raw}");
            continue;
        }
        let case = regbal::fuzz::FuzzCase::parse(line).map_err(|e| format!("{path}: {line}: {e}"))?;
        let min = case.minimize();
        seen += 1;
        if min.line() != line {
            shrunk += 1;
            let _ = writeln!(out, "{line}  ->  {}", min.line());
        }
        let _ = writeln!(rewritten, "{}", min.line());
    }
    if rewritten != text {
        std::fs::write(path, rewritten).map_err(|e| format!("{path}: {e}"))?;
    }
    let _ = writeln!(out, "minimize: {seen} case(s) in {path}, {shrunk} shrunk");
    Ok(())
}
