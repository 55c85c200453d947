//! `regbal analyze` and `regbal dot`: read-only views of a program —
//! its analyses and §5 bounds, or its CFG and interference graph.

use crate::{load, Args, Command, Flag, USAGE};
use regbal_analysis::ProgramInfo;
use regbal_core::estimate_bounds;
use std::fmt::Write as _;

/// `regbal analyze`, which takes no options: every argument is an
/// input file.
pub(crate) fn analyze(files: &[String], out: &mut String) -> Result<(), String> {
    if files.is_empty() {
        return Err(format!("expected at least one input file\n{USAGE}"));
    }
    for func in load(files)? {
        let info = ProgramInfo::compute(&func);
        let est = estimate_bounds(&info);
        let boundary = info.boundary.count();
        let _ = writeln!(out, "function `{}`:", func.name);
        let _ = writeln!(
            out,
            "  instructions      {} ({} context switches, {:.0}%)",
            func.num_insts(),
            func.num_ctx_insts(),
            100.0 * func.num_ctx_insts() as f64 / func.num_insts() as f64
        );
        let _ = writeln!(
            out,
            "  live ranges       {} ({} boundary, {} internal)",
            info.num_vregs(),
            boundary,
            info.num_vregs() - boundary
        );
        let _ = writeln!(
            out,
            "  non-switch regions {} (avg {:.1} points)",
            info.nsr.num_regions(),
            info.nsr.avg_size()
        );
        let _ = writeln!(
            out,
            "  bounds            MinPR={} MinR={} MaxPR={} MaxR={}",
            est.bounds.min_pr, est.bounds.min_r, est.bounds.max_pr, est.bounds.max_r
        );
    }
    Ok(())
}

pub(crate) const DOT: Command = Command {
    name: "dot",
    flags: &[Flag::Switch("--ig")],
    files: true,
    main: dot,
};

fn dot(args: &Args, out: &mut String) -> Result<(), String> {
    let interference = args.has("--ig");
    for func in load(&args.files)? {
        if interference {
            let info = ProgramInfo::compute(&func);
            let gig = regbal_igraph::build_gig(&info);
            let labels: Vec<String> = (0..info.num_vregs())
                .map(|v| {
                    if info.boundary.contains(v) {
                        format!("v{v}*")
                    } else {
                        format!("v{v}")
                    }
                })
                .collect();
            let est = estimate_bounds(&info);
            out.push_str(&gig.to_dot(&func.name, &labels, Some(&est.coloring)));
        } else {
            out.push_str(&func.to_dot());
        }
    }
    Ok(())
}
