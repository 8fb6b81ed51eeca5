//! Memory-system statistics.
//!
//! The paper's no-fault validation compares "the statistical results
//! provided by the simulator" between GemFI and unmodified gem5; these
//! counters are that surface for the memory side.

use gemfi_isa::{PredecodeStats, SuperblockStats};
use std::fmt;

/// Hit/miss counters for one cache.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct CacheStats {
    /// Accesses that hit.
    pub hits: u64,
    /// Accesses that missed.
    pub misses: u64,
    /// Dirty lines written back on eviction.
    pub writebacks: u64,
}

impl CacheStats {
    /// Total accesses.
    pub fn accesses(&self) -> u64 {
        self.hits + self.misses
    }

    /// Miss ratio in `[0, 1]`; zero when there were no accesses.
    pub fn miss_ratio(&self) -> f64 {
        if self.accesses() == 0 {
            0.0
        } else {
            self.misses as f64 / self.accesses() as f64
        }
    }
}

impl fmt::Display for CacheStats {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "hits={} misses={} writebacks={} miss_ratio={:.4}",
            self.hits,
            self.misses,
            self.writebacks,
            self.miss_ratio()
        )
    }
}

/// Aggregate statistics of the whole memory system.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct MemStats {
    /// L1 instruction cache.
    pub l1i: CacheStats,
    /// L1 data cache.
    pub l1d: CacheStats,
    /// Unified L2.
    pub l2: CacheStats,
    /// Accesses that reached DRAM.
    pub dram_accesses: u64,
    /// Predecoded-instruction cache counters (all zero when disabled).
    pub predecode: PredecodeStats,
    /// Superblock translation cache counters (all zero when disabled).
    pub superblock: SuperblockStats,
}

impl fmt::Display for MemStats {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(f, "l1i: {}", self.l1i)?;
        writeln!(f, "l1d: {}", self.l1d)?;
        writeln!(f, "l2:  {}", self.l2)?;
        writeln!(f, "dram accesses: {}", self.dram_accesses)?;
        writeln!(
            f,
            "predecode: hits={} misses={} invalidations={} hit_ratio={:.4}",
            self.predecode.hits,
            self.predecode.misses,
            self.predecode.invalidations,
            self.predecode.hit_ratio()
        )?;
        write!(
            f,
            "superblock: built={} hits={} misses={} uops={} invalidations={} \
             untranslatable={} budget_fallbacks={} watch_fallbacks={}",
            self.superblock.blocks_built,
            self.superblock.hits,
            self.superblock.misses,
            self.superblock.uops_executed,
            self.superblock.invalidations,
            self.superblock.untranslatable,
            self.superblock.budget_fallbacks,
            self.superblock.watch_fallbacks
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn miss_ratio_handles_zero_accesses() {
        assert_eq!(CacheStats::default().miss_ratio(), 0.0);
        let s = CacheStats { hits: 3, misses: 1, writebacks: 0 };
        assert_eq!(s.miss_ratio(), 0.25);
        assert_eq!(s.accesses(), 4);
    }
}
