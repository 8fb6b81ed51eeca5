//! Memory-system configuration.

use crate::cache::CacheConfig;

/// Configuration of the guest's memory system. Every field is machine
/// state the checkpoint codec writes; host-side derived state (predecoded
/// instructions, superblock translations, page sharing) has no switch here.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct MemConfig {
    /// Physical memory size in bytes.
    pub phys_size: usize,
    /// L1 instruction cache geometry.
    pub l1i: CacheConfig,
    /// L1 data cache geometry.
    pub l1d: CacheConfig,
    /// Unified L2 geometry.
    pub l2: CacheConfig,
    /// DRAM access latency in ticks.
    pub dram_latency: u64,
}

impl Default for MemConfig {
    /// The Sec. IV system: split 32 KiB L1s, a unified 1 MiB L2, and a
    /// conventional 64 MiB of guest DRAM.
    fn default() -> MemConfig {
        MemConfig {
            phys_size: 64 << 20,
            l1i: CacheConfig { size: 32 << 10, ways: 2, line: 64, hit_latency: 1 },
            l1d: CacheConfig { size: 32 << 10, ways: 2, line: 64, hit_latency: 2 },
            l2: CacheConfig { size: 1 << 20, ways: 8, line: 64, hit_latency: 12 },
            dram_latency: 80,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn default_geometry_is_consistent() {
        let c = MemConfig::default();
        assert!(c.l1i.sets() > 0);
        assert!(c.l1d.sets() > 0);
        assert!(c.l2.sets() > 0);
        assert!(c.dram_latency > c.l2.hit_latency);
    }
}
