//! The deterministic, seeded fault-injection plane.
//!
//! A [`FaultPlan`] is threaded behind a cheap `Option<Arc<_>>` into the
//! disk store, the server's reader and dispatcher loops, and the chaos
//! replay client. Each injection point names a [`FaultSite`]; on every
//! pass through the point the component asks [`FaultPlan::fire`], which
//! decides **deterministically** from `(seed, site, call index)` whether
//! the fault triggers. Two trigger mechanisms compose:
//!
//! * a per-mille *rate* per site, hashed from the seed and the site's
//!   own monotonically increasing call counter (so a given seed always
//!   faults the same calls, in the same order, no matter the wall
//!   clock); and
//! * an *exact* call-index list per site, for tests that need, say,
//!   "fail the first disk write and only the first".
//!
//! With no plan attached (`None`), every injection point is a single
//! branch on an `Option` — the hardened server runs byte-identically to
//! the unhardened one, which the CI replay gates keep proving.
//!
//! The plan is intentionally *not* a model of real failure statistics;
//! it is a reproducible adversary. The invariant it exists to enforce
//! end-to-end (see the chaos replay harness in
//! [`crate::replay`](mod@crate::replay)): under any seeded plan, every
//! admitted request is answered — a document or a structured in-band
//! error — and the server never deadlocks or exits non-zero for a
//! client-side fault.

use std::sync::atomic::{AtomicU64, Ordering};

/// Where a fault can be injected.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FaultSite {
    /// A disk write that fails before any byte lands.
    DiskWriteFail,
    /// A disk write that lands truncated (a torn entry under the final
    /// name; the next read must see it as corrupt, never as a hit).
    DiskWriteShort,
    /// The temp-file rename that makes a write atomic fails; the temp
    /// file is cleaned up and the write is reported failed.
    DiskRenameFail,
    /// A disk read returns frame bytes with one byte flipped, so the
    /// checksum path — not this module — must catch the corruption.
    DiskReadCorrupt,
    /// The client vanishes mid-line (used by the chaos replay client,
    /// which cuts its own connection halfway through a request line).
    ClientDisconnect,
    /// A reader thread stalls for [`FaultPlan::stall_ms`] between
    /// parsing a request and admitting it (a slow or wedged client).
    ReaderStall,
    /// The dispatcher's write to a connection fails; the connection is
    /// dropped and served around, never the server.
    DispatcherWriteFail,
}

/// Number of distinct fault sites.
pub const SITE_COUNT: usize = 7;

/// All sites, in [`FaultSite`] index order.
pub const SITES: [FaultSite; SITE_COUNT] = [
    FaultSite::DiskWriteFail,
    FaultSite::DiskWriteShort,
    FaultSite::DiskRenameFail,
    FaultSite::DiskReadCorrupt,
    FaultSite::ClientDisconnect,
    FaultSite::ReaderStall,
    FaultSite::DispatcherWriteFail,
];

impl FaultSite {
    fn index(self) -> usize {
        match self {
            FaultSite::DiskWriteFail => 0,
            FaultSite::DiskWriteShort => 1,
            FaultSite::DiskRenameFail => 2,
            FaultSite::DiskReadCorrupt => 3,
            FaultSite::ClientDisconnect => 4,
            FaultSite::ReaderStall => 5,
            FaultSite::DispatcherWriteFail => 6,
        }
    }

    /// The site's spec key (and display name).
    pub fn name(self) -> &'static str {
        match self {
            FaultSite::DiskWriteFail => "write_fail",
            FaultSite::DiskWriteShort => "write_short",
            FaultSite::DiskRenameFail => "rename_fail",
            FaultSite::DiskReadCorrupt => "read_corrupt",
            FaultSite::ClientDisconnect => "disconnect",
            FaultSite::ReaderStall => "reader_stall",
            FaultSite::DispatcherWriteFail => "write_err",
        }
    }
}

/// The splitmix64 finalizer: a cheap, well-mixed 64-bit hash used for
/// every deterministic per-index decision in the fault plane (and for
/// the metrics reservoir sampler).
pub fn splitmix64(mut x: u64) -> u64 {
    x = x.wrapping_add(0x9e37_79b9_7f4a_7c15);
    x = (x ^ (x >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    x = (x ^ (x >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    x ^ (x >> 31)
}

/// A seeded fault schedule. Cheap to share (`Arc`), interior-mutable
/// only through atomics, deterministic given each site's call sequence.
#[derive(Debug)]
pub struct FaultPlan {
    seed: u64,
    stall_ms: u64,
    /// Per-mille trigger rate per site (0 = never by rate).
    rates: [u16; SITE_COUNT],
    /// Explicit call indices that always trigger, per site.
    exact: [Vec<u64>; SITE_COUNT],
    /// Calls seen per site (the per-site index counter).
    calls: [AtomicU64; SITE_COUNT],
    /// Faults actually fired per site.
    fired: [AtomicU64; SITE_COUNT],
}

impl FaultPlan {
    /// A plan with the given seed and no faults armed. Arm sites with
    /// [`FaultPlan::with_rate`] / [`FaultPlan::with_exact`].
    pub fn seeded(seed: u64) -> FaultPlan {
        FaultPlan {
            seed,
            stall_ms: 10,
            rates: [0; SITE_COUNT],
            exact: Default::default(),
            calls: Default::default(),
            fired: Default::default(),
        }
    }

    /// Arms `site` at `per_mille` out of 1000 calls (clamped to 1000).
    pub fn with_rate(mut self, site: FaultSite, per_mille: u16) -> FaultPlan {
        self.rates[site.index()] = per_mille.min(1000);
        self
    }

    /// Arms exactly the given call indices of `site` (0-based, in
    /// addition to any rate).
    pub fn with_exact(mut self, site: FaultSite, indices: &[u64]) -> FaultPlan {
        self.exact[site.index()].extend_from_slice(indices);
        self
    }

    /// Sets the reader-stall duration.
    pub fn with_stall_ms(mut self, ms: u64) -> FaultPlan {
        self.stall_ms = ms;
        self
    }

    /// How long a fired [`FaultSite::ReaderStall`] sleeps.
    pub fn stall_ms(&self) -> u64 {
        self.stall_ms
    }

    /// Whether any site is armed at all.
    pub fn armed(&self) -> bool {
        self.rates.iter().any(|&r| r > 0) || self.exact.iter().any(|e| !e.is_empty())
    }

    /// One pass through an injection point: bumps the site's call
    /// counter and decides — purely from the seed, the site and the
    /// call index — whether the fault fires this time.
    pub fn fire(&self, site: FaultSite) -> bool {
        let s = site.index();
        let i = self.calls[s].fetch_add(1, Ordering::Relaxed);
        let hit = self.exact[s].contains(&i)
            || (self.rates[s] > 0
                && splitmix64(self.seed ^ ((s as u64 + 1) << 56) ^ i) % 1000
                    < u64::from(self.rates[s]));
        if hit {
            self.fired[s].fetch_add(1, Ordering::Relaxed);
        }
        hit
    }

    /// Faults fired at `site` so far.
    pub fn fired_count(&self, site: FaultSite) -> u64 {
        self.fired[site.index()].load(Ordering::Relaxed)
    }

    /// Total faults fired across all sites.
    pub fn fired_total(&self) -> u64 {
        self.fired.iter().map(|f| f.load(Ordering::Relaxed)).sum()
    }

    /// The plan's seed.
    pub fn seed(&self) -> u64 {
        self.seed
    }

    /// A one-line human summary: `site fired/calls` per armed site.
    pub fn summary(&self) -> String {
        let mut parts = vec![format!("seed {}", self.seed)];
        for site in SITES {
            let s = site.index();
            let calls = self.calls[s].load(Ordering::Relaxed);
            let fired = self.fired[s].load(Ordering::Relaxed);
            if self.rates[s] > 0 || !self.exact[s].is_empty() || fired > 0 {
                parts.push(format!("{} {fired}/{calls}", site.name()));
            }
        }
        parts.join(" | ")
    }

    /// Parses a `--faults` spec: comma-separated `key=value` pairs.
    /// Keys: `seed`, `stall_ms`, and one per site (`write_fail`,
    /// `write_short`, `rename_fail`, `read_corrupt`, `disconnect`,
    /// `reader_stall`, `write_err`), each a per-mille rate in 0..=1000.
    ///
    /// # Errors
    ///
    /// An unknown key or an unparsable value.
    pub fn parse_spec(spec: &str) -> Result<FaultPlan, String> {
        let mut plan = FaultPlan::seeded(1);
        for pair in spec.split(',') {
            let pair = pair.trim();
            if pair.is_empty() {
                continue;
            }
            let (key, value) = pair
                .split_once('=')
                .ok_or_else(|| format!("fault spec `{pair}` is not key=value"))?;
            let n: u64 = value
                .trim()
                .parse()
                .map_err(|e| format!("fault spec `{pair}`: {e}"))?;
            match key.trim() {
                "seed" => plan.seed = n,
                "stall_ms" => plan.stall_ms = n,
                key => {
                    let site = SITES
                        .into_iter()
                        .find(|s| s.name() == key)
                        .ok_or_else(|| format!("unknown fault site `{key}`"))?;
                    if n > 1000 {
                        return Err(format!("fault rate `{pair}` exceeds 1000 per mille"));
                    }
                    plan.rates[site.index()] = n as u16;
                }
            }
        }
        Ok(plan)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fire_is_deterministic_per_seed_and_index() {
        let decisions = |seed: u64| -> Vec<bool> {
            let plan = FaultPlan::seeded(seed).with_rate(FaultSite::DiskWriteFail, 300);
            (0..64).map(|_| plan.fire(FaultSite::DiskWriteFail)).collect()
        };
        assert_eq!(decisions(7), decisions(7), "same seed, same schedule");
        assert_ne!(decisions(7), decisions(8), "different seeds diverge");
        let fired = decisions(7).iter().filter(|&&b| b).count();
        assert!((5..=25).contains(&fired), "300/1000 over 64 calls: {fired}");
    }

    #[test]
    fn sites_count_independently() {
        let plan = FaultPlan::seeded(3)
            .with_exact(FaultSite::DiskWriteFail, &[0, 2])
            .with_rate(FaultSite::ReaderStall, 1000);
        assert!(plan.fire(FaultSite::DiskWriteFail)); // call 0: exact
        assert!(!plan.fire(FaultSite::DiskWriteFail)); // call 1
        assert!(plan.fire(FaultSite::DiskWriteFail)); // call 2: exact
        assert!(plan.fire(FaultSite::ReaderStall)); // rate 1000 always fires
        assert_eq!(plan.fired_count(FaultSite::DiskWriteFail), 2);
        assert_eq!(plan.fired_count(FaultSite::ReaderStall), 1);
        assert_eq!(plan.fired_total(), 3);
        assert_eq!(plan.fired_count(FaultSite::DiskReadCorrupt), 0);
    }

    #[test]
    fn specs_parse_and_reject_garbage() {
        let plan =
            FaultPlan::parse_spec("seed=42, write_fail=200, disconnect=50, stall_ms=5").unwrap();
        assert_eq!(plan.seed(), 42);
        assert_eq!(plan.stall_ms(), 5);
        assert!(plan.armed());
        assert_eq!(plan.rates[FaultSite::DiskWriteFail.index()], 200);
        assert_eq!(plan.rates[FaultSite::ClientDisconnect.index()], 50);
        assert!(FaultPlan::parse_spec("frobnicate=1").is_err());
        assert!(FaultPlan::parse_spec("write_fail").is_err());
        assert!(FaultPlan::parse_spec("write_fail=2000").is_err());
        assert!(FaultPlan::parse_spec("seed=nope").is_err());
        assert!(!FaultPlan::parse_spec("seed=9").unwrap().armed());
    }

    #[test]
    fn summaries_name_armed_sites() {
        let plan = FaultPlan::seeded(11).with_exact(FaultSite::DiskRenameFail, &[0]);
        let _ = plan.fire(FaultSite::DiskRenameFail);
        let text = plan.summary();
        assert!(text.contains("seed 11"), "{text}");
        assert!(text.contains("rename_fail 1/1"), "{text}");
        assert!(!text.contains("disconnect"), "{text}");
    }

    #[test]
    fn splitmix_matches_published_vectors() {
        // Reference values from the splitmix64 test vectors
        // (seed 1234567 advanced by the golden-ratio increment).
        assert_eq!(splitmix64(0), 0xe220a8397b1dcdaf);
        assert_ne!(splitmix64(1), splitmix64(2));
    }
}
