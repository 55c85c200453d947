//! `regbal alloc`: balance the threads' registers and print the
//! physical code, the summary, or the `regbal-alloc/1` document.

use crate::{load, Args, Command, Flag};
use regbal_core::{
    allocate_threads_stats, force_min_bounds, EngineConfig, EngineStats, HybridAllocation,
};
use regbal_eval::Json;
use regbal_serve::{ServeStrategy, Verdict};
use std::fmt::Write as _;

pub(crate) const COMMAND: Command = Command {
    name: "alloc",
    flags: &[
        Flag::Value("--nreg"),
        Flag::Switch("--spill"),
        Flag::Switch("--ladder"),
        Flag::Switch("--min"),
        Flag::Switch("--stats"),
        Flag::Switch("--quiet"),
        Flag::Switch("--json"),
    ],
    files: true,
    main: alloc,
};

fn alloc(args: &Args, out: &mut String) -> Result<(), String> {
    let nreg = args.get("--nreg")?.unwrap_or(128usize);
    let spill = args.has("--spill");
    let ladder = args.has("--ladder");
    let min = args.has("--min");
    let quiet = args.has("--quiet");
    let stats = args.has("--stats");
    let json = args.has("--json");
    if json && min {
        return Err("--json cannot be combined with --min".into());
    }
    if ladder && (spill || min) {
        return Err("--ladder subsumes --spill and cannot be combined with --min".into());
    }
    let funcs = load(&args.files)?;

    if min {
        for func in &funcs {
            let t = force_min_bounds(func).map_err(|e| format!("{}: {e}", func.name))?;
            let _ = writeln!(
                out,
                "`{}`: PR={} R={} with {} move(s)",
                func.name,
                t.pr(),
                t.pr() + t.sr(),
                t.moves()
            );
        }
        return Ok(());
    }

    let strategy = if ladder {
        ServeStrategy::Ladder
    } else if spill {
        ServeStrategy::BalancedSpill
    } else {
        ServeStrategy::Balanced
    };
    // Only the balanced engine reports statistics, so `--stats` calls it
    // directly; every other allocation goes through the server's one
    // strategy dispatch.
    let (verdict, engine) = if stats && strategy == ServeStrategy::Balanced {
        let (alloc, engine) = allocate_threads_stats(&funcs, nreg, EngineConfig::default())
            .map_err(|e| e.to_string())?;
        (Verdict::Balanced(alloc), Some(engine))
    } else {
        let verdict = regbal_serve::allocate(&funcs, nreg, strategy).map_err(|f| f.message)?;
        (verdict, None)
    };
    if json {
        let mut doc = regbal_serve::verdict_doc(&funcs, nreg, &verdict);
        // The engine member carries wall-clock timings, so it would
        // break the document's determinism (and the serve cache's
        // byte-identity contract); it is opt-in via --stats.
        if let (Some(engine), Json::Obj(members)) = (&engine, &mut doc) {
            members.push(("engine".into(), engine_json(engine)));
        }
        let _ = writeln!(out, "{}", doc.pretty());
        return Ok(());
    }
    for (i, (t, f)) in verdict.thread_summaries().iter().zip(&funcs).enumerate() {
        let _ = write!(
            out,
            "thread {i} `{}`: PR={} SR={} moves={}",
            f.name, t.pr, t.sr, t.moves
        );
        let _ = match strategy {
            ServeStrategy::Balanced => writeln!(out),
            _ => writeln!(out, " spills={}", t.spills),
        };
    }
    let _ = match &verdict {
        Verdict::Balanced(alloc) | Verdict::Spill(HybridAllocation { alloc, .. }) => {
            writeln!(
                out,
                "demand {} of {nreg} registers (SGR={})",
                alloc.total_registers(),
                alloc.sgr()
            )
        }
        Verdict::Ladder(result) => {
            for d in &result.degradations {
                let _ = writeln!(out, "degraded: {d}");
            }
            writeln!(
                out,
                "demand {} of {nreg} registers (rung `{}`, {} degradation(s))",
                result.registers_used(),
                result.step,
                result.degraded_count()
            )
        }
    };
    if let Some(engine) = &engine {
        out.push_str(&format_stats(engine));
    }
    if !quiet {
        let (physical, _) = verdict.compiled(&funcs).map_err(|e| e.to_string())?;
        for f in &physical {
            let _ = writeln!(out, "\n{f}");
        }
    }
    Ok(())
}

/// The optional `engine` member of the `regbal alloc --json` document
/// (`--stats --json`); the document skeleton itself lives in
/// [`regbal_serve::alloc_doc`] so the server provably prints the same
/// bytes.
fn engine_json(stats: &EngineStats) -> Json {
    let us = |d: std::time::Duration| d.as_secs_f64() * 1e6;
    Json::Obj(vec![
        ("iterations".into(), Json::uint(stats.iterations as u64)),
        ("evaluated".into(), Json::uint(stats.evaluated as u64)),
        ("cached".into(), Json::uint(stats.cached as u64)),
        ("memoized".into(), Json::Bool(EngineConfig::default().memoize)),
        ("init_us".into(), Json::float(us(stats.init))),
        ("search_us".into(), Json::float(us(stats.search))),
        ("verify_us".into(), Json::float(us(stats.verify))),
        ("total_us".into(), Json::float(us(stats.total))),
    ])
}

fn format_stats(stats: &EngineStats) -> String {
    let mut s = String::new();
    let _ = writeln!(
        s,
        "engine: {} iteration(s), {} candidate(s) evaluated, {} from cache",
        stats.iterations, stats.evaluated, stats.cached
    );
    let us = |d: std::time::Duration| d.as_secs_f64() * 1e6;
    let _ = writeln!(
        s,
        "engine: init {:.1}us, search {:.1}us, verify {:.1}us, total {:.1}us",
        us(stats.init),
        us(stats.search),
        us(stats.verify),
        us(stats.total)
    );
    s
}
