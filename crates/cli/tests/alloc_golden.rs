//! Golden `regbal alloc` outputs: every strategy over a fixed corpus,
//! compared byte for byte with `tests/golden/alloc.txt`.
//!
//! Each line is one (group, strategy, `Nreg`) case: the FNV-1a digest
//! of the `--json` document and the digest of the text output (summary
//! and physical code), or the error message a failing allocation
//! reports. The corpus is two copies of each of the eleven kernels
//! (`regbal_serve::kernel_text`) and two mixed four-thread groups, at
//! register-file sizes from where balancing fails to where it fits.
//!
//! The server answers with the same documents (`regbal serve --verify`
//! compares the two), so this file also pins what a served request
//! returns. After an intentional change, regenerate it with
//! `REGBAL_BLESS=1 cargo test -p regbal-cli --test alloc_golden` and
//! review the diff.

use regbal_cli::run_cli;
use regbal_serve::kernel_text;
use regbal_workloads::Kernel;
use std::path::Path;

const GOLDEN: &str = concat!(env!("CARGO_MANIFEST_DIR"), "/tests/golden/alloc.txt");

/// Packets per thread in the kernels' main loops.
const PACKETS: u32 = 4;

/// The sizes tried for two copies of one kernel: every pair fails to
/// balance at 8 and balances at 24.
const PAIR_NREGS: [usize; 4] = [8, 14, 20, 24];

/// The sizes tried for a mixed four-thread group: both fail to balance
/// at 16 and balance at 40.
const MIXED_NREGS: [usize; 3] = [16, 28, 40];

/// The `regbal alloc` strategy flags, named as in the wire protocol.
const STRATEGIES: [(&str, &[&str]); 3] = [
    ("balanced", &[]),
    ("balanced-spill", &["--spill"]),
    ("ladder", &["--ladder"]),
];

/// 64-bit FNV-1a.
fn fnv1a(bytes: &[u8]) -> u64 {
    bytes.iter().fold(0xcbf2_9ce4_8422_2325, |h, &b| {
        (h ^ u64::from(b)).wrapping_mul(0x0100_0000_01b3)
    })
}

/// The named thread groups, each as the input files of one call,
/// written into `dir`.
fn corpus(dir: &Path) -> Vec<(String, Vec<String>, &'static [usize])> {
    std::fs::create_dir_all(dir).unwrap();
    let file = |kernel: Kernel| {
        let path = dir.join(format!("{}.rba", kernel.name()));
        std::fs::write(&path, kernel_text(kernel, PACKETS)).unwrap();
        path.to_string_lossy().into_owned()
    };
    let mut groups: Vec<(String, Vec<String>, &'static [usize])> = Kernel::ALL
        .iter()
        .map(|&k| {
            (
                format!("{}-x2", k.name()),
                vec![file(k); 2],
                &PAIR_NREGS[..],
            )
        })
        .collect();
    for kernels in [
        [Kernel::Md5, Kernel::Fir2dim, Kernel::Frag, Kernel::Crc],
        [
            Kernel::WrapsRx,
            Kernel::WrapsTx,
            Kernel::L2l3fwdRx,
            Kernel::L2l3fwdTx,
        ],
    ] {
        let name = kernels.map(Kernel::name).join("+");
        groups.push((name, kernels.map(file).to_vec(), &MIXED_NREGS[..]));
    }
    groups
}

/// One `regbal alloc` call: the digest of its output, or its error.
fn outcome(args: &[String]) -> String {
    let mut out = String::new();
    match run_cli(args, &mut out) {
        Ok(()) => format!("{:016x}", fnv1a(out.as_bytes())),
        Err(e) => format!("error {e:?}"),
    }
}

/// The golden lines of one group, in a fixed order.
fn group_lines(group: &str, files: &[String], nregs: &[usize]) -> Vec<String> {
    let mut lines = Vec::new();
    for &nreg in nregs {
        for (strategy, flags) in STRATEGIES {
            let mut args: Vec<String> = vec!["alloc".into(), "--nreg".into(), nreg.to_string()];
            args.extend(flags.iter().map(|f| f.to_string()));
            args.extend(files.iter().cloned());
            let text = outcome(&args);
            args.push("--json".into());
            let json = outcome(&args);
            lines.push(format!(
                "{group} {strategy} nreg={nreg} json={json} text={text}"
            ));
        }
    }
    lines
}

/// Every golden line of the corpus, in a fixed order. The groups are
/// independent, so each renders on its own thread.
fn lines(dir: &Path) -> Vec<String> {
    let corpus = corpus(dir);
    std::thread::scope(|s| {
        let groups: Vec<_> = corpus
            .iter()
            .map(|(group, files, nregs)| s.spawn(move || group_lines(group, files, nregs)))
            .collect();
        groups
            .into_iter()
            .flat_map(|g| g.join().expect("a group renders"))
            .collect()
    })
}

#[test]
fn alloc_outputs_match_the_golden_file() {
    let dir = std::env::temp_dir().join(format!("regbal-alloc-golden-{}", std::process::id()));
    let lines = lines(&dir);
    let _ = std::fs::remove_dir_all(&dir);
    let text = lines.join("\n") + "\n";

    // The corpus must span the verdicts this file exists to pin.
    let has = |strategy: &str, fails: bool| {
        lines
            .iter()
            .any(|l| l.contains(&format!(" {strategy} ")) && l.contains("json=error") == fails)
    };
    for strategy in ["balanced", "balanced-spill"] {
        assert!(has(strategy, true), "no failing {strategy} case");
        assert!(has(strategy, false), "no successful {strategy} case");
    }
    assert!(!has("ladder", true), "the ladder must never fail here");

    if std::env::var_os("REGBAL_BLESS").is_some() {
        std::fs::create_dir_all(Path::new(GOLDEN).parent().unwrap()).unwrap();
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
            "alloc outputs diverge from {GOLDEN} at line {}:\n  golden: {}\n  now:    {}",
            first + 1,
            golden.lines().nth(first).unwrap_or("<end of file>"),
            text.lines().nth(first).unwrap_or("<end of output>"),
        );
    }
}
