//! Golden ladder trails: the complete decision record of the fallback
//! ladder over a fixed corpus, compared byte for byte with
//! `tests/golden/ladder_trails.txt`.
//!
//! Each line is one ladder walk on a fresh trajectory: the settled
//! rung, the cost-aware plan, every degradation and budget retry, the
//! spill picks (`Debug`), and an FNV-1a digest of the printed physical
//! code — or, for an exhausted ladder, the trail and the final error.
//! The corpus is the `hot()`-style fixtures of the unit tests plus
//! seeded stress bundles, at every `Nreg` from 2 up to the first size
//! the default engine settles on `balanced`, under the default engine
//! and under a one-step iteration budget (which starves every balancing
//! rung and exercises the doubled-budget retries).
//!
//! The existing ladder tests check the *shape* of these trails; this
//! one pins their exact content, so a refactor of how the rungs are
//! computed cannot change a single recorded verdict. After an
//! intentional change, regenerate the file with
//! `REGBAL_BLESS=1 cargo test --test ladder_trails` and review the diff.

use regbal_core::{EngineConfig, IterationBudget, LadderConfig, LadderStep, SpillTrajectory};
use regbal_ir::{parse_func, Func};
use regbal_workloads::stress::{stress_bundle, StressConfig};
use std::fmt::Write as _;

const GOLDEN: &str = concat!(
    env!("CARGO_MANIFEST_DIR"),
    "/tests/golden/ladder_trails.txt"
);

/// The largest register file any case is tried at; every corpus entry
/// settles on `balanced` well below it.
const MAX_NREG: usize = 64;

/// Five co-live values across a switch: `MinPR` 5 per thread.
fn hot() -> Func {
    parse_func(
        "func hot {\nbb0:\n v0 = mov 1\n v1 = mov 2\n v2 = mov 3\n v3 = mov 4\n v4 = mov 5\n ctx\n v5 = add v0, v1\n v5 = add v5, v2\n v5 = add v5, v3\n v5 = add v5, v4\n store scratch[v5+0], v5\n halt\n}",
    )
    .unwrap()
}

/// Several values live across every one of four switches.
fn dense() -> Func {
    parse_func(
        "func dense {\nbb0:\n v0 = mov 1\n v1 = mov 2\n v2 = mov 3\n v3 = mov 4\n ctx\n v4 = add v0, v1\n ctx\n v5 = add v2, v3\n ctx\n v6 = add v4, v5\n ctx\n v7 = add v6, v0\n store scratch[v7+0], v1\n store scratch[v3+0], v2\n halt\n}",
    )
    .unwrap()
}

/// A loop whose boundary ranges form an odd cycle plus a universal
/// counter: the greedy loop has real reduction work, so a one-step
/// budget binds even where balancing fits.
fn odd_cycle() -> Func {
    parse_func(
        "func c5 {\nbb0:\n v9 = mov 10\n v4 = mov 44\n jump bb1\nbb1:\n v0 = mov 5\n ctx\n store scratch[v4+0], v4\n v1 = mov 1\n ctx\n store scratch[v0+0], v0\n v2 = mov 2\n ctx\n store scratch[v1+0], v1\n v3 = mov 3\n ctx\n store scratch[v2+0], v2\n v4 = mov 4\n ctx\n store scratch[v3+0], v3\n v9 = sub v9, 1\n bne v9, 0, bb1, bb2\nbb2:\n halt\n}",
    )
    .unwrap()
}

/// The named thread groups of the corpus.
fn corpus() -> Vec<(String, Vec<Func>)> {
    let mut cases = vec![
        ("hot-x2".to_string(), vec![hot(), hot()]),
        ("hot-dense-hot".to_string(), vec![hot(), dense(), hot()]),
        ("dense-x2".to_string(), vec![dense(), dense()]),
        ("odd-cycle-x4".to_string(), vec![odd_cycle(); 4]),
    ];
    // (class, seed, threads): every stress class at two threads and at
    // a wider group, sized so the whole file renders in seconds.
    for (name, config, seed, threads) in [
        ("csb_dense", StressConfig::csb_dense(), 0, 2),
        ("csb_dense", StressConfig::csb_dense(), 1, 2),
        ("csb_dense", StressConfig::csb_dense(), 2, 4),
        ("clique", StressConfig::clique(), 1, 2),
        ("clique", StressConfig::clique(), 2, 3),
        ("mixed", StressConfig::mixed(), 0, 2),
        ("mixed", StressConfig::mixed(), 2, 4),
    ] {
        cases.push((
            format!("{name}-s{seed}-t{threads}"),
            stress_bundle(seed, threads, config),
        ));
    }
    cases
}

/// 64-bit FNV-1a.
fn fnv1a(bytes: &[u8]) -> u64 {
    bytes.iter().fold(0xcbf2_9ce4_8422_2325, |h, &b| {
        (h ^ u64::from(b)).wrapping_mul(0x0100_0000_01b3)
    })
}

/// Renders one ladder walk under the engine's iteration `budget` as its
/// golden line, returning the settled rung alongside (`None` for an
/// exhausted ladder).
fn render(
    case: &str,
    funcs: &[Func],
    nreg: usize,
    budget: IterationBudget,
    config: &LadderConfig,
) -> (String, Option<LadderStep>) {
    let name = match budget {
        IterationBudget::Fixed(cap) => format!("fixed{cap}"),
        other => format!("{other:?}").to_lowercase(),
    };
    let mut line = format!("{case} cap{} {name} nreg={nreg}", config.scratch_capacity);
    let engine = EngineConfig {
        max_iterations: budget,
        ..EngineConfig::default()
    };
    match SpillTrajectory::new(funcs, engine).ladder(nreg, config) {
        Ok(a) => {
            let mut code = String::new();
            for f in a.rewrite().expect("a settled ladder rewrites") {
                writeln!(code, "{f}").unwrap();
            }
            write!(
                line,
                " step={:?} plan={:?} degradations={:?} retries={:?} picks={:?} code={:016x}",
                a.step,
                a.plan,
                a.degradations,
                a.retries,
                a.spill_picks(),
                fnv1a(code.as_bytes())
            )
            .unwrap();
            (line, Some(a.step))
        }
        Err(e) => {
            write!(
                line,
                " exhausted degradations={:?} retries={:?} error={:?}",
                e.degradations, e.retries, e.error
            )
            .unwrap();
            (line, None)
        }
    }
}

/// Every golden line of the corpus, in a fixed order.
fn trails() -> Vec<String> {
    let default = LadderConfig::default();
    let adaptive = EngineConfig::default().max_iterations;
    let starved = IterationBudget::Fixed(1);
    // A two-word scratchpad: larger spill sets overflow into memory,
    // so the scratch rung's mixed slot numbering is pinned too.
    let small = LadderConfig {
        scratch_capacity: 2,
        ..LadderConfig::default()
    };
    // No scratchpad: the four-rung ladder, where balanced-spill is the
    // first spilling rung.
    let zero = LadderConfig {
        scratch_capacity: 0,
        ..LadderConfig::default()
    };
    let mut lines = Vec::new();
    for (case, funcs) in corpus() {
        for nreg in 2..=MAX_NREG {
            let (line, step) = render(&case, &funcs, nreg, adaptive, &default);
            lines.push(line);
            lines.push(render(&case, &funcs, nreg, starved, &default).0);
            lines.push(render(&case, &funcs, nreg, adaptive, &small).0);
            lines.push(render(&case, &funcs, nreg, adaptive, &zero).0);
            if step == Some(LadderStep::Balanced) {
                break;
            }
            assert!(nreg < MAX_NREG, "{case} never settles on balanced");
        }
    }
    lines
}

#[test]
fn ladder_trails_match_the_golden_file() {
    let lines = trails();
    let text = lines.join("\n") + "\n";

    // The corpus must reach the trails this file exists to pin: a
    // failed scratch rung followed by a spill rung failing with the
    // same error, and budget retries on both spilling rungs.
    let has = |needle: &str| lines.iter().any(|l| l.contains(needle));
    assert!(
        lines.iter().any(|l| same_error_on_both_spilling_rungs(l)),
        "no case where both spilling rungs fail with one error"
    );
    assert!(
        lines
            .iter()
            .any(|l| l.contains("step: BalancedScratch, cap")
                && l.contains("step: BalancedSpill, cap")),
        "no case with retries on both spilling rungs"
    );
    assert!(
        has("step=BalancedScratch"),
        "no case settles on the scratch rung"
    );
    assert!(
        has("step=BalancedSpill"),
        "no case settles on the spill rung"
    );
    assert!(has("to_scratch: false"), "no memory-resident pick");
    assert!(has(" exhausted "), "no exhausted ladder");

    if std::env::var_os("REGBAL_BLESS").is_some() {
        std::fs::create_dir_all(std::path::Path::new(GOLDEN).parent().unwrap()).unwrap();
        std::fs::write(GOLDEN, &text).unwrap();
        return;
    }
    let golden = std::fs::read_to_string(GOLDEN)
        .unwrap_or_else(|e| panic!("{GOLDEN}: {e} (regenerate with REGBAL_BLESS=1)"));
    if golden != text {
        let first = golden
            .lines()
            .zip(text.lines())
            .position(|(a, b)| a != b)
            .unwrap_or(golden.lines().count().min(text.lines().count()));
        panic!(
            "ladder trails diverge from {GOLDEN} at line {}:\n  golden: {}\n  now:    {}",
            first + 1,
            golden.lines().nth(first).unwrap_or("<end of file>"),
            text.lines().nth(first).unwrap_or("<end of output>"),
        );
    }
}

/// Whether `line` records a balanced-scratch degradation and a
/// balanced-spill degradation with the same reason.
fn same_error_on_both_spilling_rungs(line: &str) -> bool {
    let reason = |from: &str| {
        let at = line.find(&format!("from: {from}, "))?;
        let rest = &line[at..];
        let start = rest.find("reason: ")? + "reason: ".len();
        let end = rest[start..].find(" }")? + start;
        Some(rest[start..end].to_string())
    };
    matches!(
        (reason("BalancedScratch"), reason("BalancedSpill")),
        (Some(a), Some(b)) if a == b
    )
}
