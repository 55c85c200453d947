//! Timed segments, scaled to the reference machine's speed.
//!
//! The two-CPU machine this benchmark is tuned on changes speed under
//! its neighbours' load: in bursts of a second or two everything on it
//! runs up to twice as slow, and its quiet speed drifts by a tenth over
//! minutes. Raw wall times of one workload then spread by 10–30 % across
//! runs minutes apart, more than any bound worth enforcing.
//!
//! So every timed segment — about a tenth of a second of requests, a
//! sweep, a device run, a set-up — is bracketed by calibration probes: a
//! fixed kernel owned by the benchmark (it calls no library code, so no
//! change under test can speed it up) runs on as many threads as the
//! workload keeps busy, and the segment's times are multiplied by
//! [`REFERENCE_PROBE_MS`] over the mean probe time before and after it. Reported times are therefore "at
//! reference speed": what the segment would have taken on the quiet
//! machine. The raw figures are printed beside them.
//!
//! The kernel is integer, branchy and cache-resident, like the
//! interpreter, allocator and server code it stands in for. A
//! memory-bound walk over 4 MiB was tried first: the neighbours' cache
//! and memory traffic slowed it far more than the workloads, and scaling
//! by it widened the spread of `serve-warm` and `device-64`. The thread
//! count matters too: two probe threads slow each other the way two busy
//! workload threads do, so a one-thread workload scaled by a two-thread
//! probe spread about four times wider than with a one-thread probe.
//!
//! The memory metric is the heap a timed stretch (a server lifetime, a
//! sweep, a device run) needs above what the run held before it, as the
//! median over the run's stretches.

use crate::heap;
use crate::metrics::{self, Run};
use std::time::{Duration, Instant};

/// The probe's time on the quiet reference machine, in milliseconds.
pub const REFERENCE_PROBE_MS: f64 = 3.5;

/// Words each probe walks: 16 KiB, inside the first-level cache.
const PROBE_WORDS: usize = 1 << 12;

/// Steps per probe.
const PROBE_STEPS: u32 = 500_000;

/// The calibration kernel: a xorshift walk of dependent read-modify-writes
/// over `words`, taking a data-dependent branch at every step.
fn kernel(words: &mut [u32]) -> u32 {
    let mask = words.len() - 1;
    let mut x: u64 = 0x9E37_79B9_7F4A_7C15;
    let mut acc = 0u32;
    for step in 0..PROBE_STEPS {
        x ^= x << 13;
        x ^= x >> 7;
        x ^= x << 17;
        let i = x as usize & mask;
        if words[i] & 1 == 0 {
            acc = acc.wrapping_add(words[i] ^ step);
        } else {
            acc ^= acc.rotate_left(3).wrapping_add(step);
        }
        words[i] = acc.rotate_left(5);
    }
    acc
}

/// One probe buffer per probe thread.
struct Probe {
    buffers: Vec<Vec<u32>>,
}

impl Probe {
    fn new(threads: usize) -> Probe {
        let mut probe = Probe {
            buffers: vec![vec![1; PROBE_WORDS]; threads],
        };
        probe.run();
        probe
    }

    /// Runs the kernel once on each probe thread in parallel; the mean
    /// time in ms.
    fn run(&mut self) -> f64 {
        let times: Vec<f64> = std::thread::scope(|scope| {
            let handles: Vec<_> = self
                .buffers
                .iter_mut()
                .map(|words| {
                    scope.spawn(move || {
                        let started = Instant::now();
                        std::hint::black_box(kernel(std::hint::black_box(words)));
                        started.elapsed().as_secs_f64() * 1e3
                    })
                })
                .collect();
            handles
                .into_iter()
                .map(|h| h.join().expect("a probe thread panicked"))
                .collect()
        });
        times.iter().sum::<f64>() / times.len() as f64
    }
}

/// The timed part of a run: set-ups and segments, each scaled to the
/// reference speed, plus the heap each stretch needed.
pub struct Timing {
    probe: Probe,
    last_probe: f64,
    probes: Vec<f64>,
    setups: Vec<f64>,
    latencies: Vec<f64>,
    raw_latencies: Vec<f64>,
    wall: f64,
    raw_wall: f64,
    heaps: Vec<f64>,
}

impl Timing {
    /// Starts timing with a first probe, probing on `threads` threads:
    /// as many as the workload keeps busy.
    pub fn new(threads: usize) -> Timing {
        let mut probe = Probe::new(threads);
        let last_probe = probe.run();
        Timing {
            probe,
            last_probe,
            probes: vec![last_probe],
            setups: Vec::new(),
            latencies: Vec::new(),
            raw_latencies: Vec::new(),
            wall: 0.0,
            raw_wall: 0.0,
            heaps: Vec::new(),
        }
    }

    /// Probes again; the scale factor for the time since the last probe.
    fn factor(&mut self) -> f64 {
        let probe = self.probe.run();
        let factor = REFERENCE_PROBE_MS / ((self.last_probe + probe) / 2.0);
        self.last_probe = probe;
        self.probes.push(probe);
        factor
    }

    /// Times one set-up.
    ///
    /// # Errors
    ///
    /// Whatever `setup` returns.
    pub fn setup<T>(&mut self, setup: impl FnOnce() -> Result<T, String>) -> Result<T, String> {
        let started = Instant::now();
        let out = setup()?;
        let raw = started.elapsed().as_secs_f64();
        let factor = self.factor();
        self.setups.push(raw * factor);
        Ok(out)
    }

    /// Records one timed segment — the operations since the last probe,
    /// their summed wall time and each one's latency in milliseconds —
    /// and probes again. Nothing may be in flight.
    pub fn segment(&mut self, wall: Duration, latencies: &[f64]) {
        let factor = self.factor();
        self.raw_wall += wall.as_secs_f64();
        self.wall += wall.as_secs_f64() * factor;
        self.latencies.extend(latencies.iter().map(|l| l * factor));
        self.raw_latencies.extend_from_slice(latencies);
    }

    /// Runs one timed stretch (a server lifetime, a sweep, a device run)
    /// that records its own segments, and notes the heap it needed.
    ///
    /// # Errors
    ///
    /// Whatever `stretch` returns.
    pub fn stretch<T>(
        &mut self,
        stretch: impl FnOnce(&mut Timing) -> Result<T, String>,
    ) -> Result<T, String> {
        let base = heap::reset_peak();
        let out = stretch(self)?;
        self.heaps.push(heap::peak_above_mb(base));
        Ok(out)
    }

    /// Sets every end-to-end metric and prints the raw figures and the
    /// machine's measured speed beside them.
    pub fn finish(mut self, run: &mut Run) {
        let ops = self.latencies.len();
        let p99 = metrics::sorted_percentile(&mut self.latencies, 99.0);
        let beyond = self.latencies.iter().filter(|&&l| l > p99).count();
        let raw_p50 = metrics::sorted_percentile(&mut self.raw_latencies, 50.0);
        let raw_p99 = metrics::percentile(&self.raw_latencies, 99.0);
        println!(
            "operations {ops} ({beyond} above p99); raw p50 {raw_p50:.6} ms, p99 {raw_p99:.6} ms, {:.6}/s",
            ops as f64 / self.raw_wall
        );
        let probes = self.probes.len();
        let median_probe = metrics::sorted_percentile(&mut self.probes, 50.0);
        println!(
            "calibration: {probes} probes, median {median_probe:.3} ms, min {:.3}, max {:.3} (reference {REFERENCE_PROBE_MS} ms)",
            self.probes[0],
            self.probes[probes - 1]
        );
        run.set("setup_s", metrics::median(&self.setups));
        run.set("latency_p50_ms", metrics::percentile(&self.latencies, 50.0));
        run.set("latency_p99_ms", p99);
        run.set("throughput_per_s", ops as f64 / self.wall);
        run.set("peak_heap_mb", metrics::median(&self.heaps));
    }
}
