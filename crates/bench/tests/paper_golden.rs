//! Golden paper outputs: the tables and figure the experiment binaries
//! print, and the sweep and device documents `regbal` writes, compared
//! byte for byte with `tests/golden/paper.txt`.
//!
//! The file holds one section per oracle:
//!
//! * the exact stdout of the `table1`, `table2`, `figure14`, `table3`
//!   and `ablation` binaries;
//! * the FNV-1a digest of the documents written by
//!   `regbal eval --smoke`, `regbal eval --smoke --sanitize` and
//!   `regbal device --sanitize --out` (run in-process through
//!   [`regbal_cli::run_cli`]).
//!
//! A second test holds `EXPERIMENTS.md` to the same file: every fenced
//! block under its Table 1, Figure 14, Table 2, Table 3 and Ablations
//! headings must be a contiguous run of lines of that binary's section.
//!
//! Table 3 and the `fixed-partition` cells of the sweep run the
//! fixed-partition Chaitin baseline, so this file pins its every
//! output. After an intentional change, regenerate the file with
//! `REGBAL_BLESS=1 cargo test -p regbal-bench --test paper_golden` and
//! review the diff.

use regbal_cli::run_cli;
use std::path::Path;
use std::process::Command;

const GOLDEN: &str = concat!(env!("CARGO_MANIFEST_DIR"), "/tests/golden/paper.txt");
const EXPERIMENTS: &str = concat!(env!("CARGO_MANIFEST_DIR"), "/../../EXPERIMENTS.md");

/// The `EXPERIMENTS.md` headings whose blocks quote a binary, by the
/// heading's prefix.
const QUOTED: [(&str, &str); 5] = [
    ("## Table 1 ", "table1"),
    ("## Figure 14 ", "figure14"),
    ("## Table 2 ", "table2"),
    ("## Table 3 ", "table3"),
    ("## Ablations ", "ablation"),
];

/// 64-bit FNV-1a.
fn fnv1a(bytes: &[u8]) -> u64 {
    bytes.iter().fold(0xcbf2_9ce4_8422_2325, |h, &b| {
        (h ^ u64::from(b)).wrapping_mul(0x0100_0000_01b3)
    })
}

/// The stdout of one experiment binary.
fn stdout_of(bin: &str) -> String {
    let out = Command::new(bin)
        .output()
        .unwrap_or_else(|e| panic!("{bin}: {e}"));
    assert!(
        out.status.success(),
        "{bin} failed: {}",
        String::from_utf8_lossy(&out.stderr)
    );
    String::from_utf8(out.stdout).expect("tables are UTF-8")
}

/// The digest of the document one `regbal` call writes to `--out`.
fn document_digest(dir: &Path, name: &str, args: &[&str]) -> String {
    let path = dir.join(format!("{name}.json"));
    let mut argv: Vec<String> = args.iter().map(|a| a.to_string()).collect();
    argv.push("--out".into());
    argv.push(path.to_string_lossy().into_owned());
    let mut out = String::new();
    run_cli(&argv, &mut out).unwrap_or_else(|e| panic!("regbal {}: {e}", args.join(" ")));
    let doc = std::fs::read(&path).unwrap_or_else(|e| panic!("{}: {e}", path.display()));
    format!("{:016x}\n", fnv1a(&doc))
}

/// Every section of the golden file as `(oracle, text)`, in file order.
fn sections() -> Vec<(&'static str, String)> {
    let dir = std::env::temp_dir().join(format!("regbal-paper-golden-{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    let sections = vec![
        ("table1", stdout_of(env!("CARGO_BIN_EXE_table1"))),
        ("table2", stdout_of(env!("CARGO_BIN_EXE_table2"))),
        ("figure14", stdout_of(env!("CARGO_BIN_EXE_figure14"))),
        ("table3", stdout_of(env!("CARGO_BIN_EXE_table3"))),
        ("ablation", stdout_of(env!("CARGO_BIN_EXE_ablation"))),
        (
            "eval --smoke",
            document_digest(&dir, "smoke", &["eval", "--smoke"]),
        ),
        (
            "eval --smoke --sanitize",
            document_digest(&dir, "sanitize", &["eval", "--smoke", "--sanitize"]),
        ),
        (
            "device --sanitize",
            document_digest(&dir, "device", &["device", "--sanitize"]),
        ),
    ];
    let _ = std::fs::remove_dir_all(&dir);
    sections
}

/// The golden file's text: each section under a `== <oracle> ==` line.
fn render(sections: &[(&str, String)]) -> String {
    sections
        .iter()
        .map(|(name, text)| format!("== {name} ==\n{text}"))
        .collect()
}

/// Splits a golden file back into its sections.
fn parse(text: &str) -> Vec<(String, String)> {
    let mut sections: Vec<(String, String)> = Vec::new();
    for line in text.split_inclusive('\n') {
        let header = line
            .strip_prefix("== ")
            .and_then(|l| l.trim_end().strip_suffix(" =="));
        match (header, sections.last_mut()) {
            (Some(name), _) => sections.push((name.to_string(), String::new())),
            (None, Some((_, body))) => body.push_str(line),
            (None, None) => panic!("{GOLDEN}: text before the first section"),
        }
    }
    sections
}

#[test]
fn paper_outputs_match_the_golden_file() {
    let now = sections();
    if std::env::var_os("REGBAL_BLESS").is_some() {
        std::fs::create_dir_all(Path::new(GOLDEN).parent().unwrap()).unwrap();
        std::fs::write(GOLDEN, render(&now)).unwrap();
        return;
    }
    let golden = std::fs::read_to_string(GOLDEN)
        .unwrap_or_else(|e| panic!("{GOLDEN}: {e} (regenerate with REGBAL_BLESS=1)"));
    let golden = parse(&golden);
    let names = |s: &[(String, String)]| s.iter().map(|(n, _)| n.clone()).collect::<Vec<_>>();
    let now: Vec<(String, String)> = now.into_iter().map(|(n, t)| (n.to_string(), t)).collect();
    assert_eq!(names(&golden), names(&now), "{GOLDEN}: the oracles differ");
    for ((name, want), (_, got)) in golden.iter().zip(&now) {
        if want != got {
            let first = want
                .lines()
                .zip(got.lines())
                .position(|(a, b)| a != b)
                .unwrap_or(want.lines().count().min(got.lines().count()));
            panic!(
                "`{name}` diverges from {GOLDEN} at its line {}:\n  golden: {}\n  now:    {}",
                first + 1,
                want.lines().nth(first).unwrap_or("<end of section>"),
                got.lines().nth(first).unwrap_or("<end of output>"),
            );
        }
    }
}

/// The fenced blocks of a Markdown text as `(heading, lines)`, where
/// `heading` is the closest `#` or `##` heading above the block.
fn fenced_blocks(text: &str) -> Vec<(&str, Vec<&str>)> {
    let mut blocks = Vec::new();
    let mut heading = "";
    let mut open: Option<Vec<&str>> = None;
    for line in text.lines() {
        match open.as_mut() {
            Some(_) if line.starts_with("```") => {
                blocks.push((heading, open.take().unwrap()));
            }
            Some(block) => block.push(line),
            None if line.starts_with("```") => open = Some(Vec::new()),
            None if line.starts_with("# ") || line.starts_with("## ") => heading = line,
            None => {}
        }
    }
    assert!(open.is_none(), "{EXPERIMENTS}: unclosed code fence");
    blocks
}

#[test]
fn experiments_md_blocks_are_the_binaries_stdout() {
    let golden = std::fs::read_to_string(GOLDEN).unwrap_or_else(|e| panic!("{GOLDEN}: {e}"));
    let golden = parse(&golden);
    let doc = std::fs::read_to_string(EXPERIMENTS).unwrap_or_else(|e| panic!("{EXPERIMENTS}: {e}"));
    let blocks = fenced_blocks(&doc);
    for (prefix, bin) in QUOTED {
        let (_, stdout) = golden
            .iter()
            .find(|(name, _)| name == bin)
            .unwrap_or_else(|| panic!("{GOLDEN}: no `{bin}` section"));
        let stdout: Vec<&str> = stdout.lines().collect();
        let quoted: Vec<&Vec<&str>> = blocks
            .iter()
            .filter(|(heading, _)| heading.starts_with(prefix))
            .map(|(_, lines)| lines)
            .collect();
        assert!(
            !quoted.is_empty(),
            "{EXPERIMENTS}: no block under `{prefix}…`"
        );
        for block in quoted {
            assert!(
                !block.is_empty() && stdout.windows(block.len()).any(|run| run == &block[..]),
                "{EXPERIMENTS}: a block under `{prefix}…` is not a run of `{bin}`'s stdout:\n{}",
                block.join("\n")
            );
        }
    }
}
