//! Layer calls shared by the traced passes, each made inside its span,
//! and the reduction of a finished trace to per-layer metrics.

use crate::metrics::{Run, PER_LAYER};
use crate::trace::{Closure, Tracer};
use regbal_analysis::ProgramInfo;
use regbal_core::{
    allocate_threads_stats, estimate_bounds, AllocError, EngineConfig, MultiAllocation,
};
use regbal_igraph::{build_big, build_gig, build_iigs};
use regbal_ir::Func;
use std::time::Duration;

/// The closure check's floor: the children of every pipeline span must
/// account for at least this share of its time.
pub const CLOSURE_FLOOR: f64 = 0.95;

/// Analysis, interference-graph construction and bound estimation for
/// each thread program, one span per layer.
pub fn analyse(t: &mut Tracer, funcs: &[Func], run: &mut Run) {
    let infos: Vec<ProgramInfo> = t.span("analysis.program_info", |_| {
        funcs.iter().map(ProgramInfo::compute).collect()
    });
    let edges: usize = t.span("igraph.build", |_| {
        infos
            .iter()
            .map(|info| {
                let gig = build_gig(info);
                build_big(info);
                build_iigs(info, &gig);
                gig.num_edges()
            })
            .sum()
    });
    run.add("igraph.gig_edges", edges as f64);
    t.span("core.bounds", |_| {
        for info in &infos {
            estimate_bounds(info);
        }
    });
}

/// The default engine through `allocate_threads_stats` (what
/// `allocate_threads` calls), in a `core.engine` span whose children are
/// the engine's own init / descent / verify split.
pub fn engine(
    t: &mut Tracer,
    funcs: &[Func],
    nreg: usize,
    run: &mut Run,
) -> Result<MultiAllocation, AllocError> {
    t.span("core.engine", |t| {
        let (alloc, stats) = allocate_threads_stats(funcs, nreg, EngineConfig::default())?;
        t.record("core.engine_init", Duration::ZERO, stats.init);
        t.record("core.descent", stats.init, stats.search);
        t.record(
            "core.engine_verify",
            stats.init + stats.search,
            stats.verify,
        );
        run.add("core.iterations", stats.iterations as f64);
        run.add("core.candidates_evaluated", stats.evaluated as f64);
        run.add("core.candidates_cached", stats.cached as f64);
        Ok(alloc)
    })
}

/// Span names behind the per-layer time metrics, with the factor from
/// milliseconds to the metric's unit.
const SPAN_METRICS: &[(&str, &str, f64)] = &[
    ("ir.parse_ms", "ir.parse", 1.0),
    ("ir.inline_ms", "ir.inline", 1.0),
    ("analysis.program_info_ms", "analysis.program_info", 1.0),
    ("igraph.build_ms", "igraph.build", 1.0),
    ("core.bounds_ms", "core.bounds", 1.0),
    ("core.engine_init_ms", "core.engine_init", 1.0),
    ("core.descent_ms", "core.descent", 1.0),
    ("core.engine_verify_ms", "core.engine_verify", 1.0),
    ("core.spill_ms", "core.spill", 1.0),
    ("core.ladder_ms", "core.ladder", 1.0),
    ("core.chaitin_ms", "core.chaitin", 1.0),
    ("core.rewrite_ms", "core.rewrite", 1.0),
    ("core.verify_ms", "core.verify", 1.0),
    (
        "eval.compile_ms.fixed-partition",
        "eval.compile.fixed-partition",
        1.0,
    ),
    ("eval.compile_ms.balanced", "eval.compile.balanced", 1.0),
    (
        "eval.compile_ms.balanced-spill",
        "eval.compile.balanced-spill",
        1.0,
    ),
    (
        "eval.compile_ms.balanced-scratch",
        "eval.compile.balanced-scratch",
        1.0,
    ),
    ("eval.compile_ms.ladder", "eval.compile.ladder", 1.0),
    ("sim.reference_run_ms", "sim.reference_run", 1.0),
    ("sim.cell_run_ms", "sim.cell_run", 1.0),
    ("sim.device_run_ms", "sim.device_run", 1.0),
    ("serve.proto_parse_us", "serve.proto_parse", 1e3),
    ("serve.content_hash_us", "serve.content_hash", 1e3),
    ("serve.json_emit_us", "serve.json_emit", 1e3),
    ("serve.store_write_us", "serve.store_write", 1e3),
    ("serve.store_read_us", "serve.store_read", 1e3),
];

/// The simulator spans, whose summed self time prices `sim.cycles`.
const SIM_SPANS: [&str; 3] = ["sim.reference_run", "sim.cell_run", "sim.device_run"];

/// Sets every per-layer metric a finished trace determines.
pub fn report(t: &Tracer, run: &mut Run) {
    let layers = t.layers();
    let ms = |span: &str| {
        layers
            .get(span)
            .map_or(0.0, |l| l.self_time.as_secs_f64() * 1e3)
    };
    for &(metric, span, scale) in SPAN_METRICS {
        run.set(metric, ms(span) * scale);
    }
    let evaluated = run
        .values
        .get("core.candidates_evaluated")
        .copied()
        .unwrap_or(0.0);
    let cached = run
        .values
        .get("core.candidates_cached")
        .copied()
        .unwrap_or(0.0);
    if evaluated + cached > 0.0 {
        run.set("core.memo_hit_ratio", cached / (evaluated + cached));
    }
    let sim_ms: f64 = SIM_SPANS.iter().map(|span| ms(span)).sum();
    let cycles = run.values.get("sim.cycles").copied().unwrap_or(0.0);
    if sim_ms > 0.0 {
        run.set("sim.mcycles_per_s", cycles / 1e6 / (sim_ms / 1e3));
    }
}

/// The per-layer metric counting allocator verdicts with `code`.
pub fn error_metric(code: &str) -> Option<&'static str> {
    PER_LAYER
        .iter()
        .map(|m| m.0)
        .find(|name| name.strip_prefix("core.alloc_errors.") == Some(code))
}

/// Prints the closure check over the spans named `name` and, when
/// `enforce`d, marks the run wrong if the children leave more than the
/// floor unattributed. At `--smoke` size the spans last microseconds, so
/// one preemption between two child calls can break the floor; there the
/// check is only printed.
pub fn closure_check(run: &mut Run, name: &str, closure: Closure, enforce: bool) {
    let coverage = closure.coverage();
    println!(
        "closure {name}: {} span(s), children cover {:.2}% (unattributed {:.3} ms, worst single span {:.2}%)",
        closure.spans,
        coverage * 100.0,
        closure.unattributed.as_secs_f64() * 1e3,
        closure.min_coverage * 100.0
    );
    if enforce && coverage < CLOSURE_FLOOR {
        run.wrong(format!(
            "closure check: children of `{name}` cover {:.2}%, below {:.0}%",
            coverage * 100.0,
            CLOSURE_FLOOR * 100.0
        ));
    }
}
