//! Command-line driver for the `regbal` allocator.
//!
//! The binary is `regbal`; every subcommand reads programs in the
//! textual assembly syntax of `regbal-ir` (one or more `func` blocks per
//! file; each function becomes one hardware thread, in order):
//!
//! ```text
//! regbal analyze  prog.rba                 # analyses + §5 bounds
//! regbal alloc    --nreg 64 t0.rba t1.rba  # balance threads, print code
//! regbal alloc    --nreg 64 --spill ...    # spill when sharing can't fit
//! regbal alloc    --nreg 64 --ladder ...   # degrade down the ladder, never fail
//! regbal run      --cycles 100000 a.rba    # simulate, print statistics
//! regbal eval     --smoke                  # strategy sweep -> BENCH_EVAL.json
//! regbal serve    --stdio                  # resident allocation server
//! regbal serve    --replay trace.json      # replay a trace against a server
//! ```
//!
//! The driver logic lives in this library so it can be tested without
//! spawning processes; [`run_cli`] takes the argument vector and an
//! output sink and returns the process exit code. Each subcommand has
//! its own module and declares its options once, in a flag table; one
//! parser reads every subcommand's command line.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod alloc;
mod analyze;
mod device;
mod eval;
mod fuzz;
mod run;
mod serve;

use regbal_ir::{parse_module, Func};
use std::str::FromStr;

/// Every subcommand that takes options. `analyze` takes none: every
/// argument is an input file.
const COMMANDS: [Command; 7] = [
    alloc::COMMAND,
    run::COMMAND,
    eval::COMMAND,
    device::COMMAND,
    serve::COMMAND,
    fuzz::COMMAND,
    analyze::DOT,
];

/// Runs the CLI with `args` (excluding the program name), writing
/// human-readable output to `out`.
///
/// # Errors
///
/// Returns a user-facing message on bad usage, unparsable input or an
/// allocation failure; the caller maps it to a non-zero exit code.
pub fn run_cli(args: &[String], out: &mut String) -> Result<(), String> {
    match args.first().map(String::as_str) {
        Some("analyze") => analyze::analyze(&args[1..], out),
        Some("help") | None => {
            out.push_str(USAGE);
            Ok(())
        }
        Some(name) => match COMMANDS.iter().find(|c| c.name == name) {
            Some(command) => (command.main)(&Args::parse(&args[1..], command)?, out),
            None => Err(format!("unknown command `{name}`\n{USAGE}")),
        },
    }
}

const USAGE: &str = "\
regbal — cross-thread register allocation for network processors

USAGE:
  regbal analyze <files...>                   per-function analyses and bounds
  regbal alloc [OPTS] <files...>              allocate threads, print physical code
      --nreg <N>       register file size (default 128)
      --spill          fall back to spilling when sharing cannot fit
      --ladder         never fail: walk the degradation ladder's five
                       rungs (balanced, balanced-scratch, balanced-spill,
                       fixed-partition, spill-all) cheapest first by a
                       static spill-traffic estimate, reporting every
                       forced transition
      --min            squeeze each thread to its (MinPR, MinR) bound
      --stats          print engine statistics (iterations, candidate
                       cache hits, per-phase wall time); with --json,
                       adds the wall-clock `engine` member to the
                       otherwise deterministic document
      --quiet          summary only, no code
      --json           machine-readable allocation summary (JSON, no code)
  regbal run [OPTS] <files...>                simulate the threads
      --cycles <N>     cycle budget (default 1000000)
      --iterations <N> stop when all threads did N iterations
      --trace <N>      keep and print the first N scheduler events
      --sanitize       arm the register-clobber sanitizer; any violation
                       (cross-thread clobber, foreign-bank write) is an
                       error, uninitialized reads are warnings
  regbal eval [OPTS]                          traffic-driven strategy evaluation
      --smoke          fast sweep (fewer packets, two file sizes)
      --packets <N>    packets per thread (default 64; 12 with --smoke)
      --nreg <LIST>    comma-separated register-file sizes to sweep
      --out <FILE>     where to write the report (default BENCH_EVAL.json)
      --validate <F>   validate an existing report instead of running
      --sanitize       instrument every measured run with the clobber
                       sanitizer; any report fails the sweep
      --workers <N>    shard the sweep over N worker threads (default:
                       the machine's cores; 1 = serial). Any count
                       produces a byte-identical report
      --timing         record wall-clock timing in the report (on for
                       the full sweep, off with --smoke)
  regbal device [OPTS]                        device-scale scenario family: a
                                              command processor feeding 4/16/64
                                              worker PUs, run under the
                                              reference slice loop and the
                                              event core; fails on any report
                                              divergence, digest mismatch or
                                              sanitizer finding
      --smoke          4- and 16-PU scenarios only (the CI gate)
      --nreg <N>       register file for the Ladder-compiled build (default 64)
      --cycles <N>     cycle budget per run (default 20000000)
      --seed <N>       packet-generator seed (default 53710)
      --sanitize       arm the clobber sanitizer on the compiled runs;
                       any violation fails the family
      --out <FILE>     also write the machine-readable report
                       (regbal-device/2 JSON)
  regbal serve [MODE] [OPTS]                  resident allocation server
                                              (line-delimited JSON requests,
                                              regbal-serve/2; responses are
                                              byte-identical to
                                              `regbal alloc --json`)
    modes (exactly one):
      --stdio          serve requests on stdin, responses on stdout
      --listen <ADDR>  serve concurrent TCP connections over one shared
                       persistent cache (e.g. 127.0.0.1:7421); shutdown
                       drains: in-flight requests finish, acks go last
      --gen-trace <F>  write a seeded regbal-trace/1 workload file
      --replay <F>     replay a trace file against a fresh resident
                       server in one pipelined session, reporting each
                       pass's cache hits and misses; a cache miss on any
                       warm pass is an error
      --check-concurrent <F>  split the trace's kernels across N TCP
                       clients, serve them concurrently, and demand each
                       client's transcript be byte-identical to serving
                       it alone; with --cache-dir also proves a
                       restarted server answers warm
    server options (--stdio, --listen, --replay, --check-concurrent):
      --workers <N>    worker threads per request wave (default 1; any
                       count produces byte-identical responses)
      --queue-cap <N>  bounded admission queue (default 256)
      --cache-cap <N>  response-cache entries (default 4096)
      --trajectory-cap <N>  resident module trajectories (default 256)
      --cache-dir <D>  content-addressed on-disk cache: outcomes and
                       modules persist across restarts; corrupt entries
                       degrade to cold misses
      --cache-dir-cap <BYTES>  byte cap on the on-disk cache (default
                       0 = unbounded): after each store, least-recently-
                       accessed entries are deleted until it fits
      --deadline-ms <N>  per-request deadline (default 0 = none): a
                       request still queued when it expires answers an
                       in-band `timeout` error instead of being computed
      --shutdown-token <T>  require `\"token\": \"<T>\"` on shutdown
                       requests; others get an in-band `unauthorized`
                       error and the server keeps serving
      --faults <SPEC>  arm the deterministic fault-injection plane
                       (chaos testing): comma-separated key=value with
                       seed=<N>, stall_ms=<N>, and a per-mille rate per
                       site (write_fail, write_short, rename_fail,
                       read_corrupt, disconnect, reader_stall,
                       write_err); with --replay this runs the chaos
                       harness instead: multi-session replay under
                       injected faults, every admitted request must be
                       answered with the fault-free baseline document,
                       then a fault-free healing pass over the surviving
                       cache dir must serve the baseline again
      --max-conns <N>  concurrent TCP connections admitted (default
                       unlimited); extra connections get one in-band
                       `overloaded` error line
      --metrics        print the backpressure summary (queue high-water,
                       admission wait p50/p99, deferred/rejected,
                       per-connection totals) when the server exits
    trace generation (--gen-trace):
      --requests <N>   requests to generate (default 100)
      --seed <N>       trace seed (default 990951)
      --arrival <A>    uniform|bursty (default uniform)
      --mean-gap-us <N>  mean inter-arrival gap (default 500)
      --packets <N>    packets per thread in the kernels (default 4)
      --lines <F>      also write ready-to-pipe request lines
    replay (--replay):
      --passes <N>     passes over the trace (default 2; pass 1 cold)
      --verify         re-run every distinct request through the
                       one-shot `regbal alloc --json` path and demand
                       byte-identical documents
      --sanitize       re-run every distinct allocation on the
                       simulator with the clobber sanitizer armed
      --responses <F>  write every pass's response lines
      --out <F>        with --faults, write the regbal-serve-chaos/1
                       report
    concurrency check (--check-concurrent):
      --clients <N>    TCP clients to interleave (default 3)
  regbal fuzz [OPTS]                          time-budgeted stress-fuzz walk:
                                              seeded adversarial bundles
                                              through the full ladder contract
                                              (no panics, confined validated
                                              rewrites, preserved semantics,
                                              sanitizer-clean, no hangs)
      --seconds <N>    time budget in seconds (default 5; at least one
                       case always runs)
      --start-seed <N> first index of the deterministic case walk
                       (default 0)
      --cases <N>      run exactly N cases instead of a time budget
      --archive <F>    append every failing case line to F for replay
                       by tests/fuzz_regressions.rs (the committed
                       corpus is tests/fuzz_regressions.txt); each case
                       is deterministically minimized first (fewer
                       threads, smaller file, simpler class — while the
                       failure still reproduces)
      --minimize <F>   re-minimize every case line of archive F in
                       place (comments are preserved); no fuzz walk
  regbal dot [--ig] <files...>                Graphviz output (CFG, or the
                                              interference graph with --ig)
  regbal help                                 this text
";

/// Loads every function from every file, in order, then resolves
/// subroutines the way the server does ([`regbal_serve::inline_roots`]):
/// functions that are `call`ed by others are treated as subroutines and
/// inlined; the remaining root functions become the hardware threads.
fn load(files: &[String]) -> Result<Vec<Func>, String> {
    let mut module = Vec::new();
    for path in files {
        let src = std::fs::read_to_string(path).map_err(|e| format!("{path}: {e}"))?;
        let parsed = parse_module(&src).map_err(|e| format!("{path}: {e}"))?;
        if parsed.is_empty() {
            return Err(format!("{path}: no functions found"));
        }
        module.extend(parsed);
    }
    regbal_serve::inline_roots(&module)
}

/// One entry of a subcommand's flag table.
#[derive(Clone, Copy)]
enum Flag {
    /// An option that is given or not, such as `--quiet`.
    Switch(&'static str),
    /// An option whose value is the next argument, such as `--nreg 8`.
    Value(&'static str),
}

impl Flag {
    fn name(self) -> &'static str {
        match self {
            Flag::Switch(name) | Flag::Value(name) => name,
        }
    }
}

/// A subcommand: its name, its flag table, whether its bare arguments
/// are input files (otherwise each is an unknown option), and its body.
struct Command {
    name: &'static str,
    flags: &'static [Flag],
    files: bool,
    main: fn(&Args, &mut String) -> Result<(), String>,
}

/// One subcommand's parsed command line.
struct Args {
    /// The options given, in order; a switch carries no value.
    opts: Vec<(&'static str, Option<String>)>,
    /// The bare arguments, when the subcommand takes input files.
    files: Vec<String>,
}

impl Args {
    /// Splits `args` by `command`'s flag table.
    fn parse(args: &[String], command: &Command) -> Result<Args, String> {
        let mut parsed = Args {
            opts: Vec::new(),
            files: Vec::new(),
        };
        let mut it = args.iter();
        while let Some(arg) = it.next() {
            match command.flags.iter().find(|f| f.name() == arg) {
                Some(Flag::Switch(name)) => parsed.opts.push((name, None)),
                Some(Flag::Value(name)) => {
                    let value = it.next().ok_or_else(|| format!("{name} needs a value"))?;
                    parsed.opts.push((name, Some(value.clone())));
                }
                None if command.files && !arg.starts_with('-') => parsed.files.push(arg.clone()),
                None => return Err(format!("unknown option `{arg}`\n{USAGE}")),
            }
        }
        Ok(parsed)
    }

    /// Whether the switch `name` was given.
    fn has(&self, name: &str) -> bool {
        self.opts.iter().any(|(n, _)| *n == name)
    }

    /// Every value given for `name`, in order.
    fn values<'a>(&'a self, name: &'a str) -> impl Iterator<Item = &'a str> {
        self.opts
            .iter()
            .filter(move |(n, _)| *n == name)
            .filter_map(|(_, v)| v.as_deref())
    }

    /// The last value given for `name`, unparsed: for text, and for
    /// values with a syntax of their own.
    fn raw<'a>(&'a self, name: &'a str) -> Option<&'a str> {
        self.values(name).last()
    }

    /// The last value given for `name`, parsed; every value given must
    /// parse (`--nreg: invalid digit found in string`).
    fn get<T: FromStr>(&self, name: &str) -> Result<Option<T>, String>
    where
        T::Err: std::fmt::Display,
    {
        self.values(name).try_fold(None, |_, v| {
            v.parse().map(Some).map_err(|e| format!("{name}: {e}"))
        })
    }

    /// Overwrites `slot` with [`Args::get`]'s value, when one was given.
    fn set<T: FromStr>(&self, name: &str, slot: &mut T) -> Result<(), String>
    where
        T::Err: std::fmt::Display,
    {
        if let Some(value) = self.get(name)? {
            *slot = value;
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn write_temp(name: &str, content: &str) -> String {
        let path = std::env::temp_dir().join(format!("regbal-cli-{}-{name}", std::process::id()));
        std::fs::write(&path, content).unwrap();
        path.to_string_lossy().into_owned()
    }

    const PROG: &str = "func t {\nbb0:\n v0 = mov 64\n v1 = load sram[v0+0]\n v1 = add v1, 1\n store sram[v0+0], v1\n iter_end\n halt\n}";

    #[test]
    fn help_prints_usage() {
        let mut out = String::new();
        run_cli(&[], &mut out).unwrap();
        assert!(out.contains("USAGE"));
        let mut out = String::new();
        run_cli(&["help".into()], &mut out).unwrap();
        assert!(out.contains("alloc"));
    }

    #[test]
    fn unknown_command_errors() {
        let mut out = String::new();
        let err = run_cli(&["frobnicate".into()], &mut out).unwrap_err();
        assert!(err.contains("unknown command"));
    }

    #[test]
    fn device_has_no_os_threads_option() {
        let mut out = String::new();
        let args = ["device", "--os-threads", "4"].map(String::from);
        let err = run_cli(&args, &mut out).unwrap_err();
        assert!(err.contains("unknown option `--os-threads`"), "{err}");
    }

    #[test]
    fn analyze_reports_bounds() {
        let path = write_temp("analyze.rba", PROG);
        let mut out = String::new();
        run_cli(&["analyze".into(), path], &mut out).unwrap();
        assert!(out.contains("function `t`"), "{out}");
        assert!(out.contains("MinPR="), "{out}");
    }

    #[test]
    fn alloc_prints_physical_code() {
        let path = write_temp("alloc.rba", PROG);
        let mut out = String::new();
        run_cli(
            &["alloc".into(), "--nreg".into(), "8".into(), path],
            &mut out,
        )
        .unwrap();
        assert!(out.contains("PR="), "{out}");
        assert!(out.contains("r0"), "{out}");
        assert!(!out.contains("v0"), "no virtual registers left: {out}");
    }

    #[test]
    fn alloc_quiet_suppresses_code() {
        let path = write_temp("quiet.rba", PROG);
        let mut out = String::new();
        run_cli(
            &["alloc".into(), "--quiet".into(), path],
            &mut out,
        )
        .unwrap();
        assert!(out.contains("demand"), "{out}");
        assert!(!out.contains("bb0:"), "{out}");
    }

    #[test]
    fn alloc_stats_prints_engine_counters() {
        let path = write_temp("stats.rba", PROG);
        let mut out = String::new();
        run_cli(
            &["alloc".into(), "--stats".into(), "--quiet".into(), path],
            &mut out,
        )
        .unwrap();
        assert!(out.contains("candidate(s) evaluated"), "{out}");
        assert!(out.contains("total"), "{out}");
        assert!(!out.contains("naive engine"), "{out}");
    }

    #[test]
    fn alloc_min_reports_moves() {
        let path = write_temp("min.rba", PROG);
        let mut out = String::new();
        run_cli(&["alloc".into(), "--min".into(), path], &mut out).unwrap();
        assert!(out.contains("move(s)"), "{out}");
    }

    #[test]
    fn alloc_infeasible_is_an_error_and_spill_rescues_it() {
        // Two hungry threads cannot share 4 registers...
        let hungry = "func h {\nbb0:\n v0 = mov 1\n v1 = mov 2\n v2 = mov 3\n ctx\n v3 = add v0, v1\n v3 = add v3, v2\n store scratch[v3+0], v3\n halt\n}";
        let p0 = write_temp("h0.rba", hungry);
        let p1 = write_temp("h1.rba", hungry);
        let mut out = String::new();
        let err = run_cli(
            &["alloc".into(), "--nreg".into(), "4".into(), p0.clone(), p1.clone()],
            &mut out,
        )
        .unwrap_err();
        assert!(err.contains("cannot fit"), "{err}");
        // ...unless spilling is allowed.
        let mut out = String::new();
        run_cli(
            &[
                "alloc".into(),
                "--nreg".into(),
                "4".into(),
                "--spill".into(),
                "--quiet".into(),
                p0,
                p1,
            ],
            &mut out,
        )
        .unwrap();
        assert!(out.contains("spills="), "{out}");
    }

    #[test]
    fn alloc_json_emits_the_shared_schema() {
        let path = write_temp("json.rba", PROG);
        let mut out = String::new();
        run_cli(
            &["alloc".into(), "--json".into(), "--nreg".into(), "8".into(), path.clone()],
            &mut out,
        )
        .unwrap();
        let doc = regbal_eval::json::parse(&out).expect("valid JSON");
        assert_eq!(
            doc.get("schema").and_then(regbal_eval::Json::as_str),
            Some("regbal-alloc/1")
        );
        assert_eq!(
            doc.get("strategy").and_then(regbal_eval::Json::as_str),
            Some("balanced")
        );
        assert_eq!(doc.get("nreg").and_then(|n| n.as_u64()), Some(8));
        let threads = doc.get("threads").and_then(regbal_eval::Json::as_arr).unwrap();
        assert_eq!(threads.len(), 1);
        for key in ["name", "pr", "sr", "moves", "spills"] {
            assert!(threads[0].get(key).is_some(), "thread object has `{key}`");
        }
        assert!(
            doc.get("engine").is_none(),
            "the default document is deterministic — engine timings are opt-in"
        );
        assert!(!out.contains("bb0:"), "no code with --json: {out}");

        // --stats opts the wall-clock engine member back in.
        let mut out = String::new();
        run_cli(
            &[
                "alloc".into(),
                "--json".into(),
                "--stats".into(),
                "--nreg".into(),
                "8".into(),
                path.clone(),
            ],
            &mut out,
        )
        .unwrap();
        let doc = regbal_eval::json::parse(&out).unwrap();
        let engine = doc.get("engine").expect("--stats adds engine");
        assert!(engine.get("total_us").is_some());

        // The spill variant uses the same thread schema, no engine.
        let mut out = String::new();
        run_cli(
            &[
                "alloc".into(),
                "--json".into(),
                "--spill".into(),
                "--nreg".into(),
                "8".into(),
                path,
            ],
            &mut out,
        )
        .unwrap();
        let doc = regbal_eval::json::parse(&out).unwrap();
        assert_eq!(
            doc.get("strategy").and_then(regbal_eval::Json::as_str),
            Some("balanced-spill")
        );
        assert!(doc.get("engine").is_none());
    }

    #[test]
    fn alloc_ladder_succeeds_where_plain_alloc_fails() {
        let hungry = "func h {\nbb0:\n v0 = mov 1\n v1 = mov 2\n v2 = mov 3\n ctx\n v3 = add v0, v1\n v3 = add v3, v2\n store scratch[v3+0], v3\n halt\n}";
        let p0 = write_temp("lad0.rba", hungry);
        let p1 = write_temp("lad1.rba", hungry);
        let args = |extra: &[&str]| -> Vec<String> {
            ["alloc", "--nreg", "4", "--ladder"]
                .iter()
                .copied()
                .chain(extra.iter().copied())
                .map(String::from)
                .chain([p0.clone(), p1.clone()])
                .collect()
        };
        let mut out = String::new();
        run_cli(&args(&["--quiet"]), &mut out).unwrap();
        assert!(
            out.contains("degraded: balanced -> balanced-scratch"),
            "{out}"
        );
        assert!(out.contains("rung `"), "{out}");
        assert!(!out.contains("rung `balanced`"), "a fallback rung settled: {out}");

        let mut out = String::new();
        run_cli(&args(&["--json"]), &mut out).unwrap();
        let doc = regbal_eval::json::parse(&out).expect("valid JSON");
        assert_eq!(
            doc.get("strategy").and_then(regbal_eval::Json::as_str),
            Some("ladder")
        );
        let ladder = doc.get("ladder").expect("ladder member");
        assert!(ladder.get("degraded").and_then(|v| v.as_u64()).unwrap() >= 1);
        let degradations = ladder
            .get("degradations")
            .and_then(regbal_eval::Json::as_arr)
            .unwrap();
        assert!(!degradations.is_empty());
        for d in degradations {
            for key in ["from", "to", "code", "reason"] {
                assert!(d.get(key).is_some(), "degradation object has `{key}`");
            }
        }
    }

    #[test]
    fn alloc_ladder_is_quiet_about_a_clean_fit() {
        let path = write_temp("lad-clean.rba", PROG);
        let mut out = String::new();
        run_cli(
            &["alloc".into(), "--ladder".into(), "--quiet".into(), path],
            &mut out,
        )
        .unwrap();
        assert!(out.contains("rung `balanced`, 0 degradation(s)"), "{out}");
        assert!(!out.contains("degraded:"), "{out}");
    }

    #[test]
    fn alloc_ladder_rejects_conflicting_flags() {
        let err = run_cli(
            &["alloc".into(), "--ladder".into(), "--spill".into()],
            &mut String::new(),
        )
        .unwrap_err();
        assert!(err.contains("--ladder"), "{err}");
        let err = run_cli(
            &["alloc".into(), "--ladder".into(), "--min".into()],
            &mut String::new(),
        )
        .unwrap_err();
        assert!(err.contains("--ladder"), "{err}");
    }

    #[test]
    fn alloc_json_rejects_min() {
        let err = run_cli(
            &["alloc".into(), "--json".into(), "--min".into()],
            &mut String::new(),
        )
        .unwrap_err();
        assert!(err.contains("--json"), "{err}");
    }

    #[test]
    fn run_simulates_and_reports() {
        let path = write_temp("run.rba", PROG);
        let mut out = String::new();
        run_cli(
            &["run".into(), "--cycles".into(), "10000".into(), path],
            &mut out,
        )
        .unwrap();
        assert!(out.contains("cycles:"), "{out}");
        assert!(out.contains("halted"), "{out}");
    }

    #[test]
    fn run_sanitize_flags_a_cross_thread_clobber() {
        // Thread `a` parks 41 in r0 across the `ctx`; thread `b`
        // overwrites r0 while `a` is switched out.
        let a = write_temp(
            "san-a.rba",
            "func a {\nbb0:\n r0 = mov 41\n ctx\n r1 = add r0, 1\n store scratch[r1+0], r1\n halt\n}",
        );
        let b = write_temp(
            "san-b.rba",
            "func b {\nbb0:\n r0 = mov 7\n store scratch[r0+8], r0\n halt\n}",
        );
        let mut out = String::new();
        let err = run_cli(
            &["run".into(), "--sanitize".into(), a.clone(), b.clone()],
            &mut out,
        )
        .unwrap_err();
        assert!(err.contains("violation"), "{err}");
        assert!(out.contains("clobber: r0"), "{out}");

        // Without --sanitize the same program runs silently.
        let mut out = String::new();
        run_cli(&["run".into(), a, b], &mut out).unwrap();
        assert!(!out.contains("sanitizer"), "{out}");
    }

    #[test]
    fn run_sanitize_warns_on_uninitialized_reads_without_failing() {
        let path = write_temp(
            "san-uninit.rba",
            "func u {\nbb0:\n r1 = add r5, 1\n store scratch[r1+0], r1\n halt\n}",
        );
        let mut out = String::new();
        run_cli(&["run".into(), "--sanitize".into(), path], &mut out).unwrap();
        assert!(out.contains("1 warning(s)"), "{out}");
        assert!(out.contains("never-written"), "{out}");
    }

    #[test]
    fn fuzz_runs_a_fixed_case_budget_deterministically() {
        let mut out = String::new();
        run_cli(
            &[
                "fuzz".into(),
                "--cases".into(),
                "3".into(),
                "--start-seed".into(),
                "6".into(),
            ],
            &mut out,
        )
        .unwrap();
        assert!(out.contains("3 case(s) from index 6"), "{out}");
        assert!(out.contains("0 failure(s)"), "{out}");
    }

    #[test]
    fn fuzz_minimize_rewrites_an_archive_and_keeps_comments() {
        // A healthy corpus (every case passes its contract) re-minimizes
        // to itself: the minimizer never touches a passing case.
        let corpus = "# pinned starter case\nseed=16294208416658607535 class=csb-dense threads=2 nreg=8\n";
        let path = write_temp("fuzz-min.txt", corpus);
        let mut out = String::new();
        run_cli(&["fuzz".into(), "--minimize".into(), path.clone()], &mut out).unwrap();
        assert!(out.contains("1 case(s)"), "{out}");
        assert!(out.contains("0 shrunk"), "{out}");
        let after = std::fs::read_to_string(&path).unwrap();
        assert_eq!(after, corpus, "identity re-minimization must not rewrite");
    }

    #[test]
    fn fuzz_minimize_rejects_a_malformed_archive_line() {
        let path = write_temp("fuzz-min-bad.txt", "seed=1 class=warp threads=2 nreg=8\n");
        let err = run_cli(
            &["fuzz".into(), "--minimize".into(), path],
            &mut String::new(),
        )
        .unwrap_err();
        assert!(err.contains("class"), "{err}");
    }

    #[test]
    fn missing_file_errors_cleanly() {
        let mut out = String::new();
        let err = run_cli(
            &["analyze".into(), "/nonexistent/x.rba".into()],
            &mut out,
        )
        .unwrap_err();
        assert!(err.contains("/nonexistent/x.rba"));
    }

    #[test]
    fn bad_option_value_errors() {
        let err = run_cli(
            &["alloc".into(), "--nreg".into(), "lots".into()],
            &mut String::new(),
        )
        .unwrap_err();
        assert!(err.contains("--nreg"));
    }

    #[test]
    fn option_errors_name_the_option() {
        let err = |args: &[&str]| {
            let args: Vec<String> = args.iter().map(|a| a.to_string()).collect();
            run_cli(&args, &mut String::new()).unwrap_err()
        };
        assert_eq!(err(&["run", "--cycles"]), "--cycles needs a value");
        assert_eq!(
            err(&["fuzz", "--cases", "3", "--cases", "x"]),
            "--cases: invalid digit found in string"
        );
        assert_eq!(
            err(&["eval", "report.json"]),
            format!("unknown option `report.json`\n{USAGE}")
        );
        assert_eq!(
            err(&["dot", "--cfg"]),
            format!("unknown option `--cfg`\n{USAGE}")
        );
    }

    /// Each subcommand's flag table and its USAGE block name the same
    /// options: every table entry appears in the block, and every
    /// option line of the block (one whose first word is `--…`) names
    /// a table entry.
    #[test]
    fn flag_tables_match_usage() {
        for command in &COMMANDS {
            let header = format!("\n  regbal {} ", command.name);
            let start = USAGE.find(&header).expect("the command has a USAGE block") + 1;
            let block = &USAGE[start..];
            let block = &block[..block.find("\n  regbal ").unwrap()];
            let table: Vec<&str> = command.flags.iter().map(|f| f.name()).collect();
            let words: Vec<&str> = block
                .split(|c: char| c.is_whitespace() || "[](),`".contains(c))
                .collect();
            for name in &table {
                assert!(
                    words.contains(name),
                    "`regbal {}`: {name} is missing from USAGE",
                    command.name
                );
            }
            for line in block.lines() {
                if let Some(word) = line
                    .split_whitespace()
                    .next()
                    .filter(|w| w.starts_with("--"))
                {
                    assert!(
                        table.contains(&word),
                        "`regbal {}`: USAGE documents {word}, which the flag table lacks",
                        command.name
                    );
                }
            }
        }
    }
}

#[cfg(test)]
mod serve_tests {
    use super::*;
    use regbal_eval::Json;
    use regbal_serve::TraceFile;

    fn temp(name: &str) -> String {
        std::env::temp_dir()
            .join(format!("regbal-cli-serve-{}-{name}", std::process::id()))
            .to_string_lossy()
            .into_owned()
    }

    #[test]
    fn serve_requires_exactly_one_mode() {
        let err = run_cli(&["serve".into()], &mut String::new()).unwrap_err();
        assert!(err.contains("--stdio"), "{err}");
        let err = run_cli(
            &["serve".into(), "--stdio".into(), "--replay".into(), "x".into()],
            &mut String::new(),
        )
        .unwrap_err();
        assert!(err.contains("exactly one"), "{err}");
    }

    #[test]
    fn gen_trace_writes_a_round_tripping_file_and_request_lines() {
        let trace_path = temp("trace.json");
        let lines_path = temp("lines.txt");
        let mut out = String::new();
        run_cli(
            &[
                "serve".into(),
                "--gen-trace".into(),
                trace_path.clone(),
                "--requests".into(),
                "10".into(),
                "--seed".into(),
                "7".into(),
                "--arrival".into(),
                "bursty".into(),
                "--lines".into(),
                lines_path.clone(),
            ],
            &mut out,
        )
        .unwrap();
        assert!(out.contains("10 requests"), "{out}");
        let text = std::fs::read_to_string(&trace_path).unwrap();
        let trace = TraceFile::from_text(&text).unwrap();
        assert_eq!(trace.requests.len(), 10);
        assert_eq!(trace.seed, 7);
        let lines = std::fs::read_to_string(&lines_path).unwrap();
        assert_eq!(lines.lines().count(), 10);
        for line in lines.lines() {
            match regbal_serve::parse_request(line) {
                regbal_serve::Request::Alloc(Ok(_)) => {}
                other => panic!("generated line did not parse: {other:?}"),
            }
        }
    }

    #[test]
    fn replay_reports_passes_verifies_and_writes_artifacts() {
        let trace_path = temp("replay-trace.json");
        run_cli(
            &[
                "serve".into(),
                "--gen-trace".into(),
                trace_path.clone(),
                "--requests".into(),
                "6".into(),
            ],
            &mut String::new(),
        )
        .unwrap();
        let responses_path = temp("responses.txt");
        let mut out = String::new();
        run_cli(
            &[
                "serve".into(),
                "--replay".into(),
                trace_path,
                "--passes".into(),
                "2".into(),
                "--workers".into(),
                "2".into(),
                "--verify".into(),
                "--responses".into(),
                responses_path.clone(),
            ],
            &mut out,
        )
        .unwrap();
        assert!(out.contains("pass 0 (cold)"), "{out}");
        assert!(out.contains("pass 1 (warm)"), "{out}");
        assert!(out.contains("0 miss(es)"), "warm pass all hits: {out}");
        assert!(out.contains("byte-identical to one-shot"), "{out}");
        let responses = std::fs::read_to_string(&responses_path).unwrap();
        assert_eq!(responses.lines().count(), 12, "6 requests x 2 passes");
    }

    #[test]
    fn replay_has_no_timing_options_and_out_needs_faults() {
        for option in ["--window", "--paced"] {
            let err = run_cli(
                &["serve".into(), "--replay".into(), "x".into(), option.into()],
                &mut String::new(),
            )
            .unwrap_err();
            assert!(err.starts_with(&format!("unknown option `{option}`")), "{err}");
        }
        let err = run_cli(
            &["serve".into(), "--replay".into(), "x".into(), "--out".into(), "y".into()],
            &mut String::new(),
        )
        .unwrap_err();
        assert!(err.contains("--faults"), "{err}");
    }

    #[test]
    fn replay_with_faults_runs_the_chaos_harness_and_audits_the_cap() {
        let dir = std::env::temp_dir().join(format!("regbal-cli-chaos-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).unwrap();
        let trace_path = dir.join("trace.json");
        let cache_dir = dir.join("cache");
        let chaos_path = dir.join("chaos.json");
        run_cli(
            &[
                "serve".into(),
                "--gen-trace".into(),
                trace_path.to_string_lossy().into_owned(),
                "--requests".into(),
                "8".into(),
            ],
            &mut String::new(),
        )
        .unwrap();
        let mut out = String::new();
        run_cli(
            &[
                "serve".into(),
                "--replay".into(),
                trace_path.to_string_lossy().into_owned(),
                "--faults".into(),
                "seed=5,write_fail=250,read_corrupt=250,disconnect=200".into(),
                "--cache-dir".into(),
                cache_dir.to_string_lossy().into_owned(),
                "--cache-dir-cap".into(),
                "1000000".into(),
                "--verify".into(),
                "--out".into(),
                chaos_path.to_string_lossy().into_owned(),
            ],
            &mut out,
        )
        .unwrap();
        assert!(out.contains("all answered"), "{out}");
        assert!(out.contains("healing pass served the baseline"), "{out}");
        assert!(out.contains("byte-identical to one-shot"), "{out}");
        assert!(out.contains("gc:"), "the cap audit must report: {out}");
        let doc =
            regbal_eval::json::parse(&std::fs::read_to_string(&chaos_path).unwrap()).unwrap();
        assert_eq!(
            doc.get("schema").and_then(Json::as_str),
            Some("regbal-serve-chaos/1")
        );
        assert_eq!(doc.get("answered").and_then(Json::as_u64), Some(8));
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn check_concurrent_passes_and_restarts_warm() {
        let dir = std::env::temp_dir().join(format!("regbal-cli-chk-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        let trace_path = dir.join("trace.json");
        let cache_dir = dir.join("cache");
        std::fs::create_dir_all(&dir).unwrap();
        let mut out = String::new();
        run_cli(
            &[
                "serve".into(),
                "--gen-trace".into(),
                trace_path.to_string_lossy().into_owned(),
                "--requests".into(),
                "18".into(),
                "--seed".into(),
                "7".into(),
            ],
            &mut out,
        )
        .unwrap();
        let mut out = String::new();
        run_cli(
            &[
                "serve".into(),
                "--check-concurrent".into(),
                trace_path.to_string_lossy().into_owned(),
                "--clients".into(),
                "3".into(),
                "--workers".into(),
                "2".into(),
                "--cache-dir".into(),
                cache_dir.to_string_lossy().into_owned(),
                "--metrics".into(),
            ],
            &mut out,
        )
        .unwrap();
        assert!(
            out.contains("byte-identical to sequential service"),
            "{out}"
        );
        assert!(out.contains("restarted server answered warm"), "{out}");
        assert!(out.contains("queue high-water"), "{out}");
        let _ = std::fs::remove_dir_all(&dir);
    }
}

#[cfg(test)]
mod subroutine_tests {
    use super::*;

    #[test]
    fn subroutines_are_inlined_and_roots_become_threads() {
        let src = "
func rx {
bb0:
    v0 = mov 64
    call checksum
    store scratch[v0+0], v1
    halt
}
func tx {
bb0:
    v0 = mov 128
    call checksum
    store scratch[v0+0], v1
    halt
}
func checksum {
bb0:
    v1 = load sram[v0+0]
    v1 = add v1, 7
    halt
}";
        let path = std::env::temp_dir().join(format!("regbal-cli-sub-{}.rba", std::process::id()));
        std::fs::write(&path, src).unwrap();
        let mut out = String::new();
        run_cli(
            &["analyze".into(), path.to_string_lossy().into_owned()],
            &mut out,
        )
        .unwrap();
        assert!(out.contains("function `rx`"), "{out}");
        assert!(out.contains("function `tx`"), "{out}");
        assert!(!out.contains("function `checksum`"), "subroutine inlined: {out}");
    }
}

#[cfg(test)]
mod dot_and_trace_tests {
    use super::*;

    const PROG2: &str = "func t {\nbb0:\n v0 = mov 64\n v1 = load sram[v0+0]\n ctx\n store sram[v0+0], v1\n iter_end\n halt\n}";

    fn temp(name: &str) -> String {
        let path = std::env::temp_dir().join(format!("regbal-cli2-{}-{name}", std::process::id()));
        std::fs::write(&path, PROG2).unwrap();
        path.to_string_lossy().into_owned()
    }

    #[test]
    fn dot_cfg_output() {
        let path = temp("cfg.rba");
        let mut out = String::new();
        run_cli(&["dot".into(), path], &mut out).unwrap();
        assert!(out.starts_with("digraph"), "{out}");
        assert!(out.contains("bb0"), "{out}");
    }

    #[test]
    fn dot_interference_output() {
        let path = temp("ig.rba");
        let mut out = String::new();
        run_cli(&["dot".into(), "--ig".into(), path], &mut out).unwrap();
        assert!(out.starts_with("graph"), "{out}");
        assert!(out.contains("v0*"), "boundary marker: {out}");
    }

    #[test]
    fn run_trace_prints_events() {
        let path = temp("trace.rba");
        let mut out = String::new();
        run_cli(
            &["run".into(), "--trace".into(), "16".into(), path],
            &mut out,
        )
        .unwrap();
        assert!(out.contains("Switch"), "{out}");
        assert!(out.contains("MemIssue"), "{out}");
    }

    #[test]
    fn run_reports_dropped_trace_events() {
        let path = temp("drop.rba");
        let mut out = String::new();
        run_cli(
            &["run".into(), "--trace".into(), "1".into(), path],
            &mut out,
        )
        .unwrap();
        assert!(out.contains("dropped"), "{out}");
    }
}

#[cfg(test)]
mod eval_tests {
    use super::*;

    fn temp_report(name: &str) -> String {
        std::env::temp_dir()
            .join(format!("regbal-cli-eval-{}-{name}.json", std::process::id()))
            .to_string_lossy()
            .into_owned()
    }

    #[test]
    fn eval_smoke_writes_a_validating_report() {
        let path = temp_report("smoke");
        let mut out = String::new();
        run_cli(
            &[
                "eval".into(),
                "--smoke".into(),
                "--packets".into(),
                "2".into(),
                "--out".into(),
                path.clone(),
            ],
            &mut out,
        )
        .unwrap();
        assert!(out.contains("wrote"), "{out}");
        assert!(out.contains("fixed-partition"), "{out}");

        let mut out = String::new();
        run_cli(&["eval".into(), "--validate".into(), path], &mut out).unwrap();
        assert!(out.contains("OK"), "{out}");
    }

    #[test]
    fn eval_sanitize_smoke_is_clean_and_round_trips() {
        let path = temp_report("sanitize");
        let mut out = String::new();
        run_cli(
            &[
                "eval".into(),
                "--smoke".into(),
                "--sanitize".into(),
                "--packets".into(),
                "2".into(),
                "--nreg".into(),
                "48".into(),
                "--out".into(),
                path.clone(),
            ],
            &mut out,
        )
        .unwrap();
        assert!(
            out.contains("sanitizer: 0 violation(s), 0 warning(s)"),
            "{out}"
        );
        let text = std::fs::read_to_string(&path).unwrap();
        assert!(text.contains("\"sanitizer_violations\""), "{text}");

        let mut out = String::new();
        run_cli(&["eval".into(), "--validate".into(), path], &mut out).unwrap();
        assert!(out.contains("OK"), "{out}");
    }

    #[test]
    fn eval_validate_rejects_garbage() {
        let path = temp_report("garbage");
        std::fs::write(&path, "{\"schema\": \"something-else\"}").unwrap();
        let err = run_cli(
            &["eval".into(), "--validate".into(), path],
            &mut String::new(),
        )
        .unwrap_err();
        assert!(err.contains("schema"), "{err}");
    }

    #[test]
    fn eval_rejects_bad_nreg_list() {
        let err = run_cli(
            &["eval".into(), "--nreg".into(), "48,many".into()],
            &mut String::new(),
        )
        .unwrap_err();
        assert!(err.contains("--nreg"), "{err}");
    }
}
