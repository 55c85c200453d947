//! Seeded stress-fuzz cases over the allocation ladder.
//!
//! [`check_ladder`] is the ladder contract: the pipeline never panics,
//! a total failure is structured (the full trail down to spill-all),
//! budget retries are bookkept consistently, the trail of a success
//! ends at its settled rung, every success rewrites to validated
//! physical code confined to the file, degraded code is
//! semantics-preserving (memory snapshots equal the virtual-register
//! reference) and sanitizer-clean, and every simulated run terminates
//! within a fixed cycle budget. The committed degradation corpus
//! (`tests/degradation.rs`) and the fuzz walk both enforce it.
//!
//! One [`FuzzCase`] names an adversarial program bundle (a
//! [`regbal_workloads::stress`] class, a seed, a thread count) and a
//! register file, and [`FuzzCase::check`] pushes it through
//! [`check_ladder`].
//!
//! The `regbal fuzz` subcommand walks [`FuzzCase::from_index`] under a
//! time budget; any failing case is archived as its [`FuzzCase::line`]
//! in `tests/fuzz_regressions.txt`, which `tests/fuzz_regressions.rs`
//! replays on every CI run — a failure found once stays fixed.

use regbal_core::{
    EngineConfig, IterationBudget, LadderAllocation, LadderConfig, LadderError, LadderStep,
    SpillTrajectory,
};
use regbal_ir::{Func, MemSpace, Reg};
use regbal_sim::{SanitizerConfig, SimConfig, Simulator, StopWhen};
use regbal_workloads::stress::{stress_bundle, StressConfig, STRESS_SLOT_BYTES};

/// Cycle budget for one simulated bundle; generously above what any
/// generated program needs, so hitting it means a hang.
const CYCLE_BUDGET: u64 = 2_000_000;

/// The deliberately tight iteration budget: hopeless rungs must fall
/// through on `IterationCapHit`, not grind.
const ITERATION_CAP: usize = 500;

/// The register files the index walk sweeps.
const NREG_SWEEP: [usize; 4] = [8, 12, 16, 24];

/// The stress corpus class of one case.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FuzzClass {
    /// Context-switch-saturated small programs.
    CsbDense,
    /// Wide interference cliques.
    Clique,
    /// Loop-carried mixed programs.
    Mixed,
}

impl FuzzClass {
    /// The stable spelling used in archive lines.
    pub fn name(self) -> &'static str {
        match self {
            FuzzClass::CsbDense => "csb-dense",
            FuzzClass::Clique => "clique",
            FuzzClass::Mixed => "mixed",
        }
    }

    fn config(self) -> StressConfig {
        match self {
            FuzzClass::CsbDense => StressConfig::csb_dense(),
            FuzzClass::Clique => StressConfig::clique(),
            FuzzClass::Mixed => StressConfig::mixed(),
        }
    }

    fn parse(name: &str) -> Result<FuzzClass, String> {
        match name {
            "csb-dense" => Ok(FuzzClass::CsbDense),
            "clique" => Ok(FuzzClass::Clique),
            "mixed" => Ok(FuzzClass::Mixed),
            other => Err(format!("unknown fuzz class `{other}`")),
        }
    }

    /// The next-simpler class the minimizer steps toward (mixed →
    /// clique → csb-dense → done): each step strips one generator
    /// feature, so a failure that survives is easier to read.
    fn simpler(self) -> Option<FuzzClass> {
        match self {
            FuzzClass::Mixed => Some(FuzzClass::Clique),
            FuzzClass::Clique => Some(FuzzClass::CsbDense),
            FuzzClass::CsbDense => None,
        }
    }
}

/// One reproducible fuzz case: a seeded stress bundle and the register
/// file it is allocated into.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct FuzzCase {
    /// Generator seed for the bundle.
    pub seed: u64,
    /// Which stress corpus class to generate.
    pub class: FuzzClass,
    /// Threads in the bundle.
    pub threads: usize,
    /// Register-file size the ladder must survive.
    pub nreg: usize,
}

impl FuzzCase {
    /// The `i`-th case of the deterministic fuzz walk: the seed is a
    /// mixed function of the index, and class, thread count and
    /// register file cycle through their small domains so every
    /// combination recurs forever.
    pub fn from_index(i: u64) -> FuzzCase {
        let class = match i % 3 {
            0 => FuzzClass::CsbDense,
            1 => FuzzClass::Clique,
            _ => FuzzClass::Mixed,
        };
        FuzzCase {
            // splitmix64's mix rounds: consecutive indices land on
            // unrelated generator seeds.
            seed: {
                let mut x = i.wrapping_add(0x9E37_79B9_7F4A_7C15);
                x = (x ^ (x >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
                x = (x ^ (x >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
                x ^ (x >> 31)
            },
            class,
            threads: 2 + (i / 3 % 2) as usize,
            nreg: NREG_SWEEP[(i / 6 % NREG_SWEEP.len() as u64) as usize],
        }
    }

    /// The archive line: `seed=<s> class=<c> threads=<t> nreg=<n>`.
    pub fn line(&self) -> String {
        format!(
            "seed={} class={} threads={} nreg={}",
            self.seed,
            self.class.name(),
            self.threads,
            self.nreg
        )
    }

    /// Parses an archive line written by [`FuzzCase::line`].
    ///
    /// # Errors
    ///
    /// A malformed pair, an unknown key or class, or a missing field.
    pub fn parse(line: &str) -> Result<FuzzCase, String> {
        let (mut seed, mut class, mut threads, mut nreg) = (None, None, None, None);
        for pair in line.split_whitespace() {
            let (key, value) = pair
                .split_once('=')
                .ok_or_else(|| format!("fuzz case `{pair}` is not key=value"))?;
            match key {
                "seed" => seed = Some(value.parse().map_err(|e| format!("seed: {e}"))?),
                "class" => class = Some(FuzzClass::parse(value)?),
                "threads" => threads = Some(value.parse().map_err(|e| format!("threads: {e}"))?),
                "nreg" => nreg = Some(value.parse().map_err(|e| format!("nreg: {e}"))?),
                other => return Err(format!("unknown fuzz key `{other}`")),
            }
        }
        Ok(FuzzCase {
            seed: seed.ok_or("fuzz case is missing `seed`")?,
            class: class.ok_or("fuzz case is missing `class`")?,
            threads: threads.ok_or("fuzz case is missing `threads`")?,
            nreg: nreg.ok_or("fuzz case is missing `nreg`")?,
        })
    }

    /// Generates the bundle and checks the full ladder contract
    /// ([`check_ladder`]).
    ///
    /// # Errors
    ///
    /// As [`check_ladder`].
    pub fn check(&self) -> Result<(), String> {
        let funcs = stress_bundle(self.seed, self.threads, self.class.config());
        check_ladder(&funcs, self.nreg).map(|_| ())
    }

    /// Deterministically shrinks a failing case before it is archived:
    /// at each step the candidates are, in order, one fewer thread,
    /// the next-smaller register file of [`NREG_SWEEP`], and the
    /// next-simpler stress class; the first candidate whose
    /// [`FuzzCase::check`] still fails is accepted, and the walk
    /// repeats until no candidate reproduces the failure. A case that
    /// already passes is returned unchanged (there is nothing to
    /// shrink). The order is fixed and every probe is a deterministic
    /// replay, so minimization itself is reproducible.
    pub fn minimize(&self) -> FuzzCase {
        let mut cur = *self;
        if cur.check().is_ok() {
            return cur;
        }
        loop {
            let mut candidates: Vec<FuzzCase> = Vec::new();
            if cur.threads > 1 {
                candidates.push(FuzzCase {
                    threads: cur.threads - 1,
                    ..cur
                });
            }
            if let Some(&smaller) = NREG_SWEEP.iter().rev().find(|&&n| n < cur.nreg) {
                candidates.push(FuzzCase {
                    nreg: smaller,
                    ..cur
                });
            }
            if let Some(class) = cur.class.simpler() {
                candidates.push(FuzzCase { class, ..cur });
            }
            match candidates.into_iter().find(|c| c.check().is_err()) {
                Some(next) => cur = next,
                None => return cur,
            }
        }
    }
}

/// Walks the fallback ladder for `funcs` at `nreg` registers, under the
/// deliberately tight iteration budget, and checks the ladder contract
/// on what it returns (see the module documentation).
///
/// Returns the ladder's own result once it passed: the settled
/// allocation, or the structured total failure.
///
/// # Errors
///
/// A human-readable description of the first violated property:
/// a panic anywhere in the pipeline, an unstructured failure, an
/// inconsistent retry or trail, an unconfined or invalid rewrite, a
/// semantics change, a sanitizer violation, or a simulated hang.
pub fn check_ladder(
    funcs: &[Func],
    nreg: usize,
) -> Result<Result<LadderAllocation, LadderError>, String> {
    let engine = EngineConfig {
        max_iterations: IterationBudget::Fixed(ITERATION_CAP),
        ..EngineConfig::default()
    };
    let result = std::panic::catch_unwind(|| {
        SpillTrajectory::new(funcs, engine).ladder(nreg, &LadderConfig::default())
    })
    .map_err(|_| "the allocation pipeline panicked".to_string())?;
    let alloc = match result {
        Ok(alloc) => alloc,
        Err(err) => {
            // Even total failure must be structured: a full trail
            // across every planned rung with the terminal error
            // attached.
            if err.degradations.len() != 4 {
                return Err(format!("truncated degradation trail: {err}"));
            }
            if err.degradations[0].from != LadderStep::Balanced
                || err.degradations[3].to != LadderStep::SpillAll
            {
                return Err(format!("misordered degradation trail: {err}"));
            }
            return Ok(Err(err));
        }
    };
    // Every retry doubles a non-zero cap, and a recovered retry means
    // the ladder never degraded past that rung.
    for r in &alloc.retries {
        if r.cap == 0 || r.retry_cap != r.cap * 2 {
            return Err(format!("a retry must double a non-zero budget: {r:?}"));
        }
        if r.recovered && alloc.step > r.step {
            return Err(format!(
                "recovered rung {r:?} yet settled on `{}`",
                alloc.step.name()
            ));
        }
    }
    if let Some(last) = alloc.degradations.last() {
        if alloc.degradations[0].from != LadderStep::Balanced {
            return Err("the degradation trail does not start at `balanced`".into());
        }
        if last.to != alloc.step {
            return Err(format!(
                "the trail ends at `{}` but the ladder settled on `{}`",
                last.to.name(),
                alloc.step.name()
            ));
        }
    }
    let physical = alloc
        .rewrite()
        .map_err(|e| format!("a settled ladder result failed to rewrite: {e}"))?;
    if physical.len() != funcs.len() {
        return Err(format!(
            "{} threads rewrote to {} programs",
            funcs.len(),
            physical.len()
        ));
    }
    for f in &physical {
        f.validate()
            .map_err(|e| format!("`{}`: invalid rewrite: {e}", f.name))?;
        confined(f, nreg)?;
    }
    let (reference, _) = run_snapshot(funcs, false)?;
    let (compiled, violations) = run_snapshot(&physical, true)?;
    if reference != compiled {
        return Err("the rewrite changed observable memory".into());
    }
    if violations != 0 {
        return Err(format!("{violations} clobber-class sanitizer violation(s)"));
    }
    Ok(Ok(alloc))
}

/// Every register in `f` must be physical and inside the file.
fn confined(f: &Func, nreg: usize) -> Result<(), String> {
    f.regs().try_for_each(|r| match r {
        Reg::Virt(_) => Err(format!("`{}` still has virtual registers", f.name)),
        Reg::Phys(p) if p.0 as usize >= nreg => Err(format!(
            "`{}` uses r{} outside a {nreg}-register file",
            f.name, p.0
        )),
        Reg::Phys(_) => Ok(()),
    })
}

/// Runs `funcs` as threads to completion and snapshots each thread's
/// scratch window; also counts clobber-class sanitizer violations when
/// instrumented.
fn run_snapshot(funcs: &[Func], sanitize: bool) -> Result<(Vec<Vec<u8>>, usize), String> {
    let mut sim = Simulator::new(SimConfig::default());
    if sanitize {
        sim.enable_sanitizer(SanitizerConfig::default());
    }
    for f in funcs {
        sim.add_thread(f.clone());
    }
    let report = sim.run(StopWhen::Cycles(CYCLE_BUDGET));
    if !report.threads.iter().all(|t| t.halted) {
        return Err(format!(
            "a thread failed to terminate within {CYCLE_BUDGET} cycles"
        ));
    }
    let snaps = (0..funcs.len())
        .map(|t| {
            sim.memory()
                .read_bytes(MemSpace::Scratch, t as u32 * STRESS_SLOT_BYTES, 0x240)
        })
        .collect();
    Ok((snaps, report.sanitizer_violations().count()))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn the_index_walk_is_deterministic_and_covers_the_domains() {
        let a = FuzzCase::from_index(42);
        let b = FuzzCase::from_index(42);
        assert_eq!(a, b);
        let classes: std::collections::BTreeSet<&str> =
            (0..24).map(|i| FuzzCase::from_index(i).class.name()).collect();
        assert_eq!(classes.len(), 3, "all three classes appear");
        let files: std::collections::BTreeSet<usize> =
            (0..24).map(|i| FuzzCase::from_index(i).nreg).collect();
        assert_eq!(files.len(), NREG_SWEEP.len(), "the whole file sweep appears");
    }

    #[test]
    fn archive_lines_round_trip() {
        for i in [0, 7, 100] {
            let case = FuzzCase::from_index(i);
            assert_eq!(FuzzCase::parse(&case.line()).unwrap(), case);
        }
        assert!(FuzzCase::parse("seed=1 class=nope threads=2 nreg=8").is_err());
        assert!(FuzzCase::parse("seed=1 threads=2 nreg=8").is_err());
    }

    #[test]
    fn a_known_case_passes_its_own_contract() {
        FuzzCase::from_index(0).check().unwrap();
    }

    #[test]
    fn minimizing_a_passing_case_is_the_identity() {
        let case = FuzzCase::from_index(0);
        assert_eq!(case.minimize(), case, "nothing to shrink");
    }

    #[test]
    fn minimization_is_deterministic_and_only_steps_down() {
        // Whatever check() says about these cases, two minimization
        // runs must agree, and the result never grows on any axis.
        for i in [1, 5, 9] {
            let case = FuzzCase::from_index(i);
            let a = case.minimize();
            let b = case.minimize();
            assert_eq!(a, b);
            assert!(a.threads <= case.threads);
            assert!(a.nreg <= case.nreg);
            assert_eq!(a.seed, case.seed, "the seed is never touched");
        }
    }
}
