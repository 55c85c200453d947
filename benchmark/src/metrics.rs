//! The benchmark's metric table, its result line, and the small
//! measurement helpers every workload shares.
//!
//! The tables are the metric names and units the benchmark prints;
//! `BENCHMARK.json` at the repository root must list the same metrics
//! (the contract test checks it) and adds their directions and bounds.

use std::collections::BTreeMap;

/// One metric of a table: its name and unit. Directions and bounds
/// live in `BENCHMARK.json`, which `compare` reads.
pub type MetricDef = (&'static str, &'static str);

/// What a user of each workload sees, measured with tracing off. Every
/// workload reports every metric; an "operation" is a client request
/// (serve workloads), one sweep cell (`eval-sweep`) or one device run
/// (`device-64`).
pub const END_TO_END: &[MetricDef] = &[
    ("setup_s", "s"),
    ("latency_p50_ms", "ms"),
    ("latency_p99_ms", "ms"),
    ("throughput_per_s", "1/s"),
    ("peak_heap_mb", "MB"),
];

/// The layer breakdown of the traced run. Every workload reports every
/// metric; a layer the workload never calls reads 0. Time metrics are
/// the layer's total self time over the traced pass.
pub const PER_LAYER: &[MetricDef] = &[
    ("ir.parse_ms", "ms"),
    ("ir.inline_ms", "ms"),
    ("ir.insts", "count"),
    ("analysis.program_info_ms", "ms"),
    ("igraph.build_ms", "ms"),
    ("igraph.gig_edges", "count"),
    ("core.bounds_ms", "ms"),
    ("core.engine_init_ms", "ms"),
    ("core.descent_ms", "ms"),
    ("core.engine_verify_ms", "ms"),
    ("core.iterations", "count"),
    ("core.memo_hit_ratio", "ratio"),
    ("core.spill_ms", "ms"),
    ("core.ladder_ms", "ms"),
    ("core.chaitin_ms", "ms"),
    ("core.rewrite_ms", "ms"),
    ("core.verify_ms", "ms"),
    ("core.alloc_errors.infeasible", "count"),
    ("core.alloc_errors.target-unreachable", "count"),
    ("core.alloc_errors.spill-diverged", "count"),
    ("core.alloc_errors.iteration-cap", "count"),
    ("core.alloc_errors.recolor-diverged", "count"),
    ("core.alloc_errors.conflict-overflow", "count"),
    ("core.moves_total", "count"),
    ("core.spills_total", "count"),
    ("eval.compile_ms.fixed-partition", "ms"),
    ("eval.compile_ms.balanced", "ms"),
    ("eval.compile_ms.balanced-spill", "ms"),
    ("eval.compile_ms.balanced-scratch", "ms"),
    ("eval.compile_ms.ladder", "ms"),
    ("eval.cost_computes", "count"),
    ("eval.cells_failed", "count"),
    ("eval.ipkc_geomean", "ipkc"),
    ("eval.unattributed_ms", "ms"),
    ("sim.reference_run_ms", "ms"),
    ("sim.cell_run_ms", "ms"),
    ("sim.device_run_ms", "ms"),
    ("sim.ctx_switches", "count"),
    ("sim.cycles", "count"),
    ("sim.mcycles_per_s", "Mcycle/s"),
    ("serve.proto_parse_us", "us"),
    ("serve.content_hash_us", "us"),
    ("serve.json_emit_us", "us"),
    ("serve.doc_bytes", "bytes"),
    ("serve.store_write_us", "us"),
    ("serve.store_read_us", "us"),
    ("serve.hit_ratio", "ratio"),
    ("serve.descent_reuse_ratio", "ratio"),
    ("serve.descents", "count"),
    ("serve.disk_hits", "count"),
    ("serve.disk_writes", "count"),
    ("serve.disk_retries", "count"),
    ("serve.admission_wait_p50_us", "us"),
    ("serve.admission_wait_p99_us", "us"),
    ("serve.queue_depth_high_water", "count"),
    ("serve.pool_mean_wave", "tasks"),
    ("serve.restart_p50_ms", "ms"),
    ("serve.unattributed_us", "us"),
    ("trace.overhead_pct", "%"),
];

/// The allocator verdict codes that are correct answers to a request
/// (the budget really is too small for the strategy), as opposed to
/// transport, protocol or internal failures.
pub const VERDICT_CODES: [&str; 6] = [
    "infeasible",
    "target-unreachable",
    "spill-diverged",
    "iteration-cap",
    "recolor-diverged",
    "conflict-overflow",
];

/// What one workload run measured.
#[derive(Debug, Default)]
pub struct Run {
    /// Timed operations attempted.
    pub attempted: u64,
    /// Operations that failed (transport, protocol, timeout or
    /// internal errors — never allocator verdicts).
    pub failed: u64,
    /// Wrong outputs, one line each; any entry makes the run incorrect.
    pub wrong: Vec<String>,
    /// Measured values by metric name.
    pub values: BTreeMap<&'static str, f64>,
    /// A fingerprint of the generated inputs (changes with the seed).
    pub inputs: u64,
}

impl Run {
    /// Records a metric value.
    pub fn set(&mut self, name: &'static str, value: f64) {
        self.values.insert(name, value);
    }

    /// Adds to a metric value (starting from 0).
    pub fn add(&mut self, name: &'static str, value: f64) {
        *self.values.entry(name).or_insert(0.0) += value;
    }

    /// Records a wrong output.
    pub fn wrong(&mut self, why: impl Into<String>) {
        self.wrong.push(why.into());
    }

    /// Prints one `name value unit` line per end-to-end metric (per-layer
    /// with `per_layer`), then the result object as the last line of
    /// standard output, and returns that object. Per-layer metrics a
    /// workload never touched read 0.
    ///
    /// # Errors
    ///
    /// An end-to-end metric the workload did not measure, or a value
    /// that is not a finite number.
    pub fn print(&self, per_layer: bool) -> Result<String, String> {
        let table = if per_layer { PER_LAYER } else { END_TO_END };
        let mut members = Vec::with_capacity(table.len());
        for &(name, unit) in table {
            let value = match self.values.get(name) {
                Some(&v) => v,
                None if per_layer => 0.0,
                None => return Err(format!("metric `{name}` was not measured")),
            };
            if !value.is_finite() {
                return Err(format!("metric `{name}` is not finite ({value})"));
            }
            println!("{name} {value} {unit}");
            // `f64`'s Display prints every digit of the shortest
            // round-trip form and never an exponent: a valid JSON number.
            members.push(format!(
                "\"{name}\": {{\"value\": {value}, \"unit\": \"{unit}\"}}"
            ));
        }
        for why in &self.wrong {
            println!("wrong: {why}");
        }
        println!("inputs {:016x}", self.inputs);
        let result = format!(
            "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
            self.wrong.is_empty(),
            self.attempted,
            self.failed,
            members.join(", ")
        );
        println!("{result}");
        Ok(result)
    }
}

/// Nearest-rank percentile of a sorted sample (0 when empty).
pub fn percentile(sorted: &[f64], p: f64) -> f64 {
    if sorted.is_empty() {
        return 0.0;
    }
    let rank = ((p / 100.0) * sorted.len() as f64).ceil() as usize;
    sorted[rank.clamp(1, sorted.len()) - 1]
}

/// Sorts a sample in place and returns its nearest-rank percentile.
pub fn sorted_percentile(sample: &mut [f64], p: f64) -> f64 {
    sample.sort_by(f64::total_cmp);
    percentile(sample, p)
}

/// The median of a sample (nearest rank).
pub fn median(sample: &[f64]) -> f64 {
    let mut sorted = sample.to_vec();
    sorted_percentile(&mut sorted, 50.0)
}

/// 64-bit FNV-1a, for input fingerprints.
pub fn fnv(hash: u64, bytes: &[u8]) -> u64 {
    bytes.iter().fold(hash, |h, &b| {
        (h ^ u64::from(b)).wrapping_mul(0x0000_0100_0000_01b3)
    })
}

/// The FNV-1a offset basis.
pub const FNV_START: u64 = 0xcbf2_9ce4_8422_2325;

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn percentiles_use_nearest_rank() {
        let sorted: Vec<f64> = (1..=100).map(f64::from).collect();
        assert_eq!(percentile(&sorted, 50.0), 50.0);
        assert_eq!(percentile(&sorted, 99.0), 99.0);
        assert_eq!(percentile(&[7.0], 99.0), 7.0);
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
    }

    #[test]
    fn metric_names_are_unique() {
        let mut names: Vec<&str> = END_TO_END.iter().chain(PER_LAYER).map(|m| m.0).collect();
        names.sort_unstable();
        let before = names.len();
        names.dedup();
        assert_eq!(before, names.len());
    }
}
