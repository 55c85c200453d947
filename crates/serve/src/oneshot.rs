//! One-shot-equivalent allocation: the server-side reproduction of
//! `regbal alloc --json`.
//!
//! The protocol's contract is that a served `alloc` member is
//! **byte-identical** (when pretty-printed) to what the one-shot CLI
//! prints for the same module, thread count, register-file size and
//! strategy. To keep that promise structural rather than coincidental,
//! this module owns the loader, the one strategy dispatch and the
//! document builders, and the CLI delegates to all three: a served
//! request allocates through `verdict`, one lookup on its module's
//! cached [`SweepColumn`] (the balanced verdict, the hybrid verdict or
//! the ladder's walk), and [`allocate`] — the one-shot path — runs the
//! same function over a fresh column, whose lookups are dedicated runs
//! under the default configurations. Both kinds of column are built at
//! [`DEFAULT_SPILL_BASE`], so every spilling strategy reads one hybrid
//! verdict per size.

use regbal_core::{
    AllocError, HybridAllocation, LadderAllocation, MultiAllocation, ScratchParams, ThreadSummary,
    DEFAULT_SPILL_BASE,
};
use regbal_eval::{
    balanced_sanitizer, ladder_sanitizer, ladder_trail_json, thread_alloc_json, Json,
    PuLadderTrail, SweepColumn,
};
use regbal_ir::{inline_module, parse_module, Func, Inst, ParseError};
use regbal_sim::SanitizerConfig;
use std::collections::HashSet;
use std::sync::Arc;

/// The allocation strategies the server speaks — the one-shot
/// `regbal alloc` modes.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum ServeStrategy {
    /// Pure balancing (`regbal alloc`).
    Balanced,
    /// Balancing with last-resort spilling (`--spill`).
    BalancedSpill,
    /// The degradation ladder (`--ladder`).
    Ladder,
}

impl ServeStrategy {
    /// The wire name (matches [`regbal_workloads::TRACE_STRATEGIES`]).
    pub fn name(self) -> &'static str {
        match self {
            ServeStrategy::Balanced => "balanced",
            ServeStrategy::BalancedSpill => "balanced-spill",
            ServeStrategy::Ladder => "ladder",
        }
    }

    /// Parses a wire name.
    ///
    /// # Errors
    ///
    /// Returns a user-facing message naming the unknown strategy.
    pub fn parse(s: &str) -> Result<ServeStrategy, String> {
        match s {
            "balanced" => Ok(ServeStrategy::Balanced),
            "balanced-spill" => Ok(ServeStrategy::BalancedSpill),
            "ladder" => Ok(ServeStrategy::Ladder),
            other => Err(format!(
                "unknown strategy `{other}` (balanced|balanced-spill|ladder)"
            )),
        }
    }

    /// The `regbal alloc` flags reproducing this strategy one-shot.
    pub fn cli_flags(self) -> &'static [&'static str] {
        match self {
            ServeStrategy::Balanced => &[],
            ServeStrategy::BalancedSpill => &["--spill"],
            ServeStrategy::Ladder => &["--ladder"],
        }
    }
}

/// Why a module could not be loaded.
#[derive(Debug, Clone, PartialEq)]
pub enum LoadError {
    /// The source text failed to parse; carries the `regbal-ir`
    /// error with its line/column.
    Parse(ParseError),
    /// Structurally unusable (empty module, no thread entry point, or
    /// a subroutine-inlining failure).
    Module(String),
}

impl std::fmt::Display for LoadError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            LoadError::Parse(e) => write!(f, "{e}"),
            LoadError::Module(m) => write!(f, "{m}"),
        }
    }
}

/// Loads a module exactly the way the CLI loads one input file:
/// parse every function, then keep the [`inline_roots`] as the
/// hardware threads.
///
/// # Errors
///
/// [`LoadError::Parse`] with the `regbal-ir` line/column, or
/// [`LoadError::Module`] for an empty module, a module where every
/// function is called (no entry point), or an inlining failure.
pub fn load_module(text: &str) -> Result<Vec<Func>, LoadError> {
    let module = parse_module(text).map_err(LoadError::Parse)?;
    if module.is_empty() {
        return Err(LoadError::Module("no functions found".into()));
    }
    inline_roots(&module).map_err(LoadError::Module)
}

/// The hardware threads of a parsed module: the functions no other
/// function `call`s, in order, each with its subroutines inlined.
///
/// # Errors
///
/// A user-facing message when every function is called by another (no
/// thread entry point) or an inlining fails.
pub fn inline_roots(module: &[Func]) -> Result<Vec<Func>, String> {
    let called: HashSet<&str> = module
        .iter()
        .flat_map(|f| f.iter_insts())
        .filter_map(|(_, _, i)| match i {
            Inst::Call { callee } => Some(callee.as_str()),
            _ => None,
        })
        .collect();
    let roots: Vec<&Func> = module
        .iter()
        .filter(|f| !called.contains(f.name.as_str()))
        .collect();
    if roots.is_empty() {
        return Err("every function is called by another; no thread entry point".into());
    }
    roots
        .iter()
        .map(|f| inline_module(module, &f.name).map_err(|e| e.to_string()))
        .collect()
}

/// Replicates a module's root threads `nthd` times — the equivalent of
/// listing the same input file `nthd` times on the `regbal alloc`
/// command line (whole-module groups repeat in order).
pub fn replicate(roots: &[Func], nthd: usize) -> Vec<Func> {
    let mut funcs = Vec::with_capacity(roots.len() * nthd.max(1));
    for _ in 0..nthd.max(1) {
        funcs.extend(roots.iter().cloned());
    }
    funcs
}

/// An allocation failure in wire form: the stable
/// [`regbal_core::AllocError::code`] and the exact message the
/// one-shot CLI would print.
#[derive(Debug, Clone, PartialEq)]
pub struct AllocFailure {
    /// Stable machine-readable code.
    pub code: &'static str,
    /// The CLI-identical message.
    pub message: String,
}

/// A successful allocation under one of the served strategies.
#[derive(Debug, Clone)]
pub enum Verdict {
    /// Pure balancing.
    Balanced(MultiAllocation),
    /// Balancing with last-resort spilling.
    Spill(HybridAllocation),
    /// A settled degradation-ladder walk.
    Ladder(Box<LadderAllocation>),
}

/// Allocates `funcs` the way the one-shot CLI does: the server's
/// strategy dispatch over a fresh column at [`DEFAULT_SPILL_BASE`], so
/// every verdict is a dedicated run under the default configurations
/// (and thus the default spill base, so spill code is byte-identical
/// too).
///
/// # Errors
///
/// [`AllocFailure`] carrying the CLI-identical message and stable code.
pub fn allocate(
    funcs: &[Func],
    nreg: usize,
    strategy: ServeStrategy,
) -> Result<Verdict, AllocFailure> {
    let column = SweepColumn::new(funcs, DEFAULT_SPILL_BASE, Arc::default());
    verdict(&column, nreg, strategy)
}

/// Allocates the column's threads under `strategy` with one lookup on
/// `column` — the one place a served strategy maps to allocator calls:
/// its balanced verdict, its hybrid verdict, or the ladder's walk on
/// its trajectory with the default [`ScratchParams`]. The walk's
/// balanced rung reads the trajectory's balanced side and both
/// spilling rungs its hybrid side, which the `balanced-spill` lookup
/// reads too.
pub(crate) fn verdict(
    column: &SweepColumn,
    nreg: usize,
    strategy: ServeStrategy,
) -> Result<Verdict, AllocFailure> {
    let failure = |e: AllocError| AllocFailure {
        code: e.code(),
        message: e.to_string(),
    };
    match strategy {
        ServeStrategy::Balanced => column
            .balanced(nreg)
            .map(Verdict::Balanced)
            .map_err(failure),
        ServeStrategy::BalancedSpill => column.hybrid(nreg).map(Verdict::Spill).map_err(failure),
        ServeStrategy::Ladder => column
            .ladder(nreg, &ScratchParams::default())
            .map(|l| Verdict::Ladder(Box::new(l)))
            .map_err(|e| AllocFailure {
                code: e.error.code(),
                message: e.to_string(),
            }),
    }
}

/// The shared skeleton of every `regbal-alloc/1` document, in the
/// exact member order `regbal alloc --json` prints.
pub fn alloc_doc(
    strategy: &str,
    nreg: usize,
    demand: usize,
    sgr: usize,
    threads: Vec<Json>,
) -> Json {
    Json::Obj(vec![
        ("schema".into(), Json::str("regbal-alloc/1")),
        ("strategy".into(), Json::str(strategy)),
        ("nreg".into(), Json::uint(nreg as u64)),
        ("demand".into(), Json::uint(demand as u64)),
        ("sgr".into(), Json::uint(sgr as u64)),
        ("threads".into(), Json::Arr(threads)),
    ])
}

/// Builds the `regbal-alloc/1` document for a verdict — byte-identical
/// (pretty-printed) to the one-shot `regbal alloc --json` output for
/// the same inputs.
pub fn verdict_doc(funcs: &[Func], nreg: usize, verdict: &Verdict) -> Json {
    let (strategy, demand, sgr) = match verdict {
        Verdict::Balanced(alloc) => ("balanced", alloc.total_registers(), alloc.sgr()),
        Verdict::Spill(h) => ("balanced-spill", h.alloc.total_registers(), h.alloc.sgr()),
        Verdict::Ladder(l) => (
            "ladder",
            l.registers_used(),
            l.balanced_alloc().map_or(0, MultiAllocation::sgr),
        ),
    };
    let threads = verdict
        .thread_summaries()
        .iter()
        .zip(funcs)
        .map(|(t, f)| thread_alloc_json(&f.name, t.pr, t.sr, t.moves, t.spills))
        .collect();
    let mut doc = alloc_doc(strategy, nreg, demand, sgr, threads);
    if let (Verdict::Ladder(l), Json::Obj(members)) = (verdict, &mut doc) {
        members.push((
            "ladder".into(),
            ladder_trail_json(&PuLadderTrail::from(l.as_ref())),
        ));
    }
    doc
}

impl Verdict {
    /// Per-thread `(PR, SR, moves, spills)` accounting.
    pub fn thread_summaries(&self) -> Vec<ThreadSummary> {
        match self {
            Verdict::Balanced(alloc) => alloc.thread_summaries(),
            Verdict::Spill(h) => h.thread_summaries(),
            Verdict::Ladder(l) => l.thread_summaries(),
        }
    }

    /// The physical-register programs plus the sanitizer layout that
    /// knows which registers each thread owns — everything a
    /// clobber-instrumented validation run needs.
    ///
    /// # Errors
    ///
    /// [`AllocError::InvalidAllocation`] if the stored allocation does
    /// not match its own programs (an internal invariant violation).
    pub fn compiled(&self, funcs: &[Func]) -> Result<(Vec<Func>, SanitizerConfig), AllocError> {
        match self {
            Verdict::Balanced(alloc) => Ok((
                alloc.try_rewrite_funcs(funcs)?,
                balanced_sanitizer(alloc),
            )),
            Verdict::Spill(h) => Ok((
                h.alloc.try_rewrite_funcs(&h.funcs)?,
                balanced_sanitizer(&h.alloc),
            )),
            Verdict::Ladder(l) => {
                Ok((l.rewrite()?, ladder_sanitizer(l)))
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    const PROG: &str = "func t {\nbb0:\n v0 = mov 64\n v1 = load sram[v0+0]\n v1 = add v1, 1\n store sram[v0+0], v1\n iter_end\n halt\n}";

    #[test]
    fn load_module_inlines_and_replicates_like_the_cli() {
        let roots = load_module(PROG).unwrap();
        assert_eq!(roots.len(), 1);
        assert_eq!(roots[0].name, "t");
        let four = replicate(&roots, 4);
        assert_eq!(four.len(), 4);
        assert!(four.iter().all(|f| f.name == "t"));

        let sub = "func rx {\nbb0:\n v0 = mov 64\n call checksum\n store scratch[v0+0], v1\n halt\n}\nfunc checksum {\nbb0:\n v1 = load sram[v0+0]\n v1 = add v1, 7\n halt\n}";
        let roots = load_module(sub).unwrap();
        assert_eq!(roots.len(), 1, "subroutines are inlined away");
        assert_eq!(roots[0].name, "rx");
    }

    #[test]
    fn load_errors_carry_parse_positions_and_messages() {
        match load_module("func t {\nbb0:\n v0 = frob 1\n}").unwrap_err() {
            LoadError::Parse(e) => {
                assert_eq!(e.line, 3);
                assert!(e.col >= 1);
            }
            other => panic!("expected a parse error: {other:?}"),
        }
        assert_eq!(
            load_module("").unwrap_err(),
            LoadError::Module("no functions found".into())
        );
    }

    #[test]
    fn verdict_docs_follow_the_alloc_schema() {
        let funcs = replicate(&load_module(PROG).unwrap(), 2);
        for (strategy, name) in [
            (ServeStrategy::Balanced, "balanced"),
            (ServeStrategy::BalancedSpill, "balanced-spill"),
            (ServeStrategy::Ladder, "ladder"),
        ] {
            let verdict = allocate(&funcs, 8, strategy).unwrap();
            let doc = verdict_doc(&funcs, 8, &verdict);
            let keys: Vec<&str> = match &doc {
                Json::Obj(m) => m.iter().map(|(k, _)| k.as_str()).collect(),
                _ => panic!("object expected"),
            };
            assert_eq!(&keys[..6], &["schema", "strategy", "nreg", "demand", "sgr", "threads"]);
            assert_eq!(doc.get("strategy").and_then(Json::as_str), Some(name));
            assert_eq!(doc.get("nreg").and_then(Json::as_u64), Some(8));
            let threads = doc.get("threads").and_then(Json::as_arr).unwrap();
            assert_eq!(threads.len(), 2);
            assert_eq!(doc.get("ladder").is_some(), strategy == ServeStrategy::Ladder);
            // The doc survives its own compact framing.
            let reparsed = regbal_eval::json::parse(&doc.compact()).unwrap();
            assert_eq!(reparsed, doc);
        }
    }

    #[test]
    fn failures_carry_the_cli_message_and_stable_code() {
        // Two hungry threads cannot share 4 registers without spilling.
        let hungry = "func h {\nbb0:\n v0 = mov 1\n v1 = mov 2\n v2 = mov 3\n ctx\n v3 = add v0, v1\n v3 = add v3, v2\n store scratch[v3+0], v3\n halt\n}";
        let funcs = replicate(&load_module(hungry).unwrap(), 2);
        let err = allocate(&funcs, 4, ServeStrategy::Balanced).unwrap_err();
        assert_eq!(err.code, "infeasible");
        assert!(err.message.contains("cannot fit"), "{}", err.message);
        // The spilling strategies rescue the same inputs.
        assert!(allocate(&funcs, 4, ServeStrategy::BalancedSpill).is_ok());
        assert!(allocate(&funcs, 4, ServeStrategy::Ladder).is_ok());
    }

    #[test]
    fn compiled_verdicts_rewrite_to_physical_registers() {
        let funcs = replicate(&load_module(PROG).unwrap(), 2);
        for strategy in [
            ServeStrategy::Balanced,
            ServeStrategy::BalancedSpill,
            ServeStrategy::Ladder,
        ] {
            let verdict = allocate(&funcs, 8, strategy).unwrap();
            let (physical, _sanitizer) = verdict.compiled(&funcs).unwrap();
            assert_eq!(physical.len(), 2);
            for f in &physical {
                assert!(!format!("{f}").contains("v0"), "virtual register left over");
            }
        }
    }
}
