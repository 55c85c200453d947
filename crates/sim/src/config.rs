//! Simulator configuration.

use regbal_ir::MemSpace;
use std::ops::Range;

/// Timing and sizing parameters of the simulated micro-engine.
///
/// Defaults follow the paper's cost model: 1-cycle ALU, 1-cycle context
/// switch, "at least 20 cycles" per memory access (§1.1). Scratchpad is
/// the cheapest space, SDRAM the most expensive.
#[derive(Debug, Clone)]
pub struct SimConfig {
    /// Latency in cycles of a scratchpad access.
    pub scratch_latency: u64,
    /// Latency in cycles of an SRAM access.
    pub sram_latency: u64,
    /// Latency in cycles of an SDRAM access.
    pub sdram_latency: u64,
    /// Latency in cycles of a spill-scratchpad (spad) access. The spad
    /// is a small per-PU-cluster register-speed store (RegDem-style):
    /// far cheaper than any DRAM-class space.
    pub spad_latency: u64,
    /// Extra cycles consumed when the PU switches to a different thread.
    pub ctx_switch_cost: u64,
    /// Scratchpad size in bytes.
    pub scratch_size: usize,
    /// SRAM size in bytes.
    pub sram_size: usize,
    /// SDRAM size in bytes.
    pub sdram_size: usize,
    /// Spill-scratchpad size in bytes.
    pub spad_size: usize,
    /// Global cycle budget; the run stops when it is exhausted.
    pub max_cycles: u64,
    /// Per-thread private physical-register banks for the safety
    /// watchdog: a write by thread `i` into the bank of thread `j ≠ i`
    /// is recorded as a [`crate::Violation`]. Empty disables the check.
    pub private_ranges: Vec<Range<u32>>,
}

impl Default for SimConfig {
    fn default() -> Self {
        SimConfig {
            scratch_latency: 20,
            sram_latency: 60,
            sdram_latency: 150,
            spad_latency: 4,
            ctx_switch_cost: 1,
            scratch_size: 64 << 10,
            sram_size: 1 << 20,
            sdram_size: 4 << 20,
            spad_size: 16 << 10,
            max_cycles: 50_000_000,
            private_ranges: Vec::new(),
        }
    }
}

impl SimConfig {
    /// The latency of an access to `space`.
    pub fn latency(&self, space: MemSpace) -> u64 {
        match space {
            MemSpace::Scratch => self.scratch_latency,
            MemSpace::Sram => self.sram_latency,
            MemSpace::Sdram => self.sdram_latency,
            MemSpace::Spad => self.spad_latency,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn defaults_match_paper_cost_model() {
        let c = SimConfig::default();
        assert!(c.sram_latency >= 20, "paper: at least 20 cycles");
        assert!(c.sdram_latency > c.sram_latency);
        assert!(c.scratch_latency < c.sram_latency);
        assert!(
            c.spad_latency < c.scratch_latency,
            "the spill spad must beat every memory-class space"
        );
        assert_eq!(c.ctx_switch_cost, 1, "paper: 1-cycle context switch");
        assert_eq!(c.latency(MemSpace::Sram), c.sram_latency);
        assert_eq!(c.latency(MemSpace::Scratch), c.scratch_latency);
        assert_eq!(c.latency(MemSpace::Sdram), c.sdram_latency);
        assert_eq!(c.latency(MemSpace::Spad), c.spad_latency);
    }
}
