//! Golden serve transcripts: every response line the resident server
//! writes for two fixed request traces, pinned by an FNV-1a digest per
//! line in `tests/golden/serve_transcripts.txt`.
//!
//! The traces are served in-process through [`serve_lines`], each at
//! one and at four workers, over a fresh memory-only cache:
//!
//! * `ci` — the 100-request trace `./ci.sh` generates (the default
//!   [`TraceConfig`]), sent twice in one session, so the second pass is
//!   answered from the response cache;
//! * `low` — a trace whose budgets drift over Nreg 8–64, so most
//!   requests sit between the sizes a module's descent is usually asked
//!   for, and many of them spill or fail.
//!
//! Each trace ends with a `stats` request, so the session's
//! deterministic counters are pinned too: response hits, misses and
//! evictions, resident trajectories, trajectory sides started
//! (`descents`), `descent_reuses` and `distinct_functions`.
//!
//! A line's digest covers the whole response: the allocation document,
//! an error's code and message, and the `cached` flag. A refactor of
//! how the server reaches its verdicts, or of how it keeps a module's
//! trajectory, therefore cannot change one served byte or one counter
//! without failing here. After an intentional change,
//! regenerate the file with
//! `REGBAL_BLESS=1 cargo test -p regbal-serve --test serve_golden` and
//! review the diff.

use regbal_serve::{materialize, request_line, serve_lines, ServeConfig, TraceFile};
use regbal_workloads::TraceConfig;
use std::fmt::Write as _;

const GOLDEN: &str = concat!(
    env!("CARGO_MANIFEST_DIR"),
    "/tests/golden/serve_transcripts.txt"
);

/// 64-bit FNV-1a.
fn fnv1a(bytes: &[u8]) -> u64 {
    bytes.iter().fold(0xcbf2_9ce4_8422_2325, |h, &b| {
        (h ^ u64::from(b)).wrapping_mul(0x0100_0000_01b3)
    })
}

/// The request that ends every session: the server's counters.
const STATS: &str = r#"{"id":"stats","kind":"stats"}"#;

/// The request lines of a generated trace, `passes` times over, then
/// [`STATS`].
fn trace_lines(config: &TraceConfig, passes: usize) -> Vec<String> {
    let trace = TraceFile::generate(config);
    let requests = materialize(&trace.requests, trace.packets);
    let once: Vec<String> = requests
        .iter()
        .enumerate()
        .map(|(i, req)| request_line(i as u64, req, false))
        .collect();
    (0..passes)
        .flat_map(|_| once.iter().cloned())
        .chain([STATS.to_string()])
        .collect()
}

/// The named traces of the golden file.
fn traces() -> Vec<(&'static str, Vec<String>)> {
    let low = TraceConfig {
        requests: 24,
        seed: 3,
        nreg_bounds: (8, 64),
        ..TraceConfig::default()
    };
    vec![
        ("ci", trace_lines(&TraceConfig::default(), 2)),
        ("low", trace_lines(&low, 1)),
    ]
}

/// The response lines of one session over `lines` at `workers`.
fn serve(lines: &[String], workers: usize) -> Vec<String> {
    let config = ServeConfig {
        workers,
        ..ServeConfig::default()
    };
    let mut cache = config.open_cache().expect("a memory-only cache opens");
    let input = lines.join("\n") + "\n";
    let mut output = Vec::new();
    serve_lines(input.as_bytes(), &mut output, &config, &mut cache).expect("in-memory transport");
    String::from_utf8(output)
        .expect("responses are UTF-8")
        .lines()
        .map(String::from)
        .collect()
}

#[test]
fn served_transcripts_match_the_golden_file() {
    let mut text = String::new();
    let mut outcomes = std::collections::BTreeSet::new();
    for (name, lines) in traces() {
        let serial = serve(&lines, 1);
        assert_eq!(
            serial.len(),
            lines.len(),
            "{name}: one response per request"
        );
        assert_eq!(
            serve(&lines, 4),
            serial,
            "{name}: the transcript depends on the worker count"
        );
        for (i, line) in serial.iter().enumerate() {
            writeln!(text, "{name} {i} {:016x}", fnv1a(line.as_bytes())).unwrap();
            for kind in [
                "\"alloc\":{",
                "\"code\":\"infeasible\"",
                "\"code\":\"spill-diverged\"",
                "\"cached\":true",
            ] {
                if line.contains(kind) {
                    outcomes.insert(kind);
                }
            }
        }
    }
    // The traces must reach what this file exists to pin: successes,
    // failures a spilling strategy cannot rescue, and cache hits.
    assert_eq!(
        outcomes.len(),
        4,
        "the traces no longer reach every outcome: {outcomes:?}"
    );
    if std::env::var_os("REGBAL_BLESS").is_some() {
        std::fs::write(GOLDEN, &text).expect("write the golden file");
        return;
    }
    let golden = std::fs::read_to_string(GOLDEN).expect("golden file present");
    for (n, (got, want)) in text.lines().zip(golden.lines()).enumerate() {
        assert_eq!(got, want, "first divergent response, golden line {}", n + 1);
    }
    assert_eq!(
        text.lines().count(),
        golden.lines().count(),
        "response count changed"
    );
}
