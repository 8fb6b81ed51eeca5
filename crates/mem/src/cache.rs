//! Set-associative tag cache with LRU replacement.

use crate::cow::Block;
use crate::stats::CacheStats;

/// Geometry and latency of one cache level.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct CacheConfig {
    /// Total capacity in bytes.
    pub size: usize,
    /// Associativity (ways per set).
    pub ways: usize,
    /// Line size in bytes (power of two).
    pub line: usize,
    /// Hit latency in ticks.
    pub hit_latency: u64,
}

/// Most lines one cache level may hold: 2^20, 64× the default L2's 16 384.
/// Each line costs 24 bytes of tag array, so a geometry read from a file
/// can make [`Cache::new`] allocate at most 24 MiB.
const MAX_LINES: usize = 1 << 20;

/// Lines per copy-on-write chunk of the line array: whole sets, a power of
/// two of them, so a set never straddles two chunks (a set wider than this
/// is one chunk). 64 lines are 1.5 KiB, and the default L2 is 256 chunks.
const CHUNK_LINES: usize = 64;

/// Longest latency, in ticks, any one cache level or DRAM may declare:
/// 2^20, about 13 000× the default DRAM latency of 80. An access sums at
/// most three of them (L1 + L2 + DRAM), and the CPU models add that sum to
/// a `u64` tick clock, so the bound keeps every such sum far from overflow
/// for any tick a watchdog-bounded run can reach.
pub(crate) const MAX_LATENCY: u64 = 1 << 20;

impl CacheConfig {
    /// Number of sets implied by the geometry.
    pub fn sets(&self) -> usize {
        self.size / (self.ways * self.line)
    }

    /// Checks that the geometry describes a cache [`Cache::new`] can build.
    ///
    /// # Errors
    ///
    /// The first inconsistency: a non-power-of-two line size, more than
    /// `MAX_LINES` lines, no whole set, a capacity the sets do not tile, or
    /// a hit latency above `MAX_LATENCY`.
    pub fn validate(&self) -> Result<(), &'static str> {
        if self.hit_latency > MAX_LATENCY {
            return Err("hit latency must fit the latency limit");
        }
        if !self.line.is_power_of_two() {
            return Err("line size must be a power of two");
        }
        let lines = self.size / self.line;
        if lines > MAX_LINES {
            return Err("capacity must fit the line limit");
        }
        if self.ways == 0 || lines < self.ways {
            return Err("capacity must hold at least one set");
        }
        if !lines.is_multiple_of(self.ways) || !self.size.is_multiple_of(self.line) {
            return Err("geometry must tile the capacity exactly");
        }
        Ok(())
    }
}

#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
struct Line {
    tag: u64,
    valid: bool,
    dirty: bool,
    /// Monotonic use stamp for LRU.
    lru: u64,
}

/// The result of a cache lookup-and-fill operation.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct CacheAccess {
    /// Whether the access hit.
    pub hit: bool,
    /// Whether a dirty victim had to be written back.
    pub writeback: bool,
    /// The way index the line occupies after the access (hit way, or the
    /// way the fill allocated). Cache-array fault lesions target this slot.
    pub way: u32,
}

/// One level of a write-back, write-allocate set-associative cache.
///
/// The cache tracks tags only; data is always read from / written to the
/// physical memory. That keeps functional state in one place (important for
/// fault injection on memory transactions) while the cache contributes
/// timing and the hit/miss statistics the paper's validation compares.
///
/// The line array is cut into copy-on-write chunks of whole sets: a clone
/// shares them, and the first access to a chunk after a clone copies it. A cold cache holds no array at all, so
/// building or resetting one costs a table of chunk handles.
#[derive(Debug)]
pub struct Cache {
    config: CacheConfig,
    /// `log2(line)` — the line size is asserted to be a power of two.
    line_shift: u32,
    /// `sets - 1` when the set count is a power of two (the common case);
    /// indexing then needs no division on the fetch/load critical path.
    set_mask: Option<u64>,
    /// Number of sets (`config.sets()` without its division).
    sets: usize,
    /// `log2` of the sets in one chunk.
    chunk_shift: u32,
    chunks: Vec<Block<Line>>,
    clock: u64,
    stats: CacheStats,
}

impl Cache {
    /// Builds a cache with the given geometry.
    ///
    /// # Panics
    ///
    /// Panics if [`CacheConfig::validate`] rejects the geometry.
    pub fn new(config: CacheConfig) -> Cache {
        if let Err(why) = config.validate() {
            panic!("invalid cache geometry: {why}");
        }
        let sets = config.sets();
        let chunk_sets = (CHUNK_LINES / config.ways).max(1);
        // The largest power of two of sets that fits a chunk.
        let chunk_shift = chunk_sets.ilog2();
        Cache {
            config,
            line_shift: config.line.trailing_zeros(),
            set_mask: sets.is_power_of_two().then(|| sets as u64 - 1),
            sets,
            chunk_shift,
            chunks: (0..sets.div_ceil(1 << chunk_shift)).map(|_| Block::Cold).collect(),
            clock: 0,
            stats: CacheStats::default(),
        }
    }

    /// Lines in chunk `c`: whole sets, fewer in a last partial chunk.
    #[inline]
    fn chunk_lines(&self, c: usize) -> usize {
        (self.sets - (c << self.chunk_shift)).min(1 << self.chunk_shift) * self.config.ways
    }

    /// The cache geometry.
    pub fn config(&self) -> &CacheConfig {
        &self.config
    }

    /// Statistics accumulated so far.
    pub fn stats(&self) -> &CacheStats {
        &self.stats
    }

    #[inline]
    fn set_index(&self, addr: u64) -> usize {
        let block = addr >> self.line_shift;
        match self.set_mask {
            Some(mask) => (block & mask) as usize,
            None => (block % self.config.sets() as u64) as usize,
        }
    }

    #[inline]
    fn tag(&self, addr: u64) -> u64 {
        let block = addr >> self.line_shift;
        match self.set_mask {
            Some(mask) => block >> (mask + 1).trailing_zeros(),
            None => block / self.config.sets() as u64,
        }
    }

    /// Performs an access: on a miss the line is allocated, evicting the LRU
    /// way (reporting whether the victim was dirty). `write` marks the line
    /// dirty (write-back policy).
    pub fn access(&mut self, addr: u64, write: bool) -> CacheAccess {
        self.clock += 1;
        let set = self.set_index(addr);
        let tag = self.tag(addr);
        let chunk = set >> self.chunk_shift;
        let len = self.chunk_lines(chunk);
        let lines = self.chunks[chunk].get_mut(len);
        let base = (set & ((1 << self.chunk_shift) - 1)) * self.config.ways;
        let ways = &mut lines[base..base + self.config.ways];

        if let Some((way, line)) =
            ways.iter_mut().enumerate().find(|(_, l)| l.valid && l.tag == tag)
        {
            line.lru = self.clock;
            line.dirty |= write;
            self.stats.hits += 1;
            return CacheAccess { hit: true, writeback: false, way: way as u32 };
        }

        self.stats.misses += 1;
        // Infallible: associativity is a host config invariant (>= 1 way),
        // not guest-corruptible state.
        #[allow(clippy::expect_used)]
        let (way, victim) = ways
            .iter_mut()
            .enumerate()
            .min_by_key(|(_, l)| if l.valid { l.lru } else { 0 })
            .expect("ways > 0");
        let writeback = victim.valid && victim.dirty;
        if writeback {
            self.stats.writebacks += 1;
        }
        *victim = Line { tag, valid: true, dirty: write, lru: self.clock };
        CacheAccess { hit: false, writeback, way: way as u32 }
    }

    /// Set index of `addr` (public so cache-array lesions can be targeted).
    #[inline]
    pub fn set_of(&self, addr: u64) -> u64 {
        self.set_index(addr) as u64
    }

    /// Tag of `addr`.
    #[inline]
    pub fn tag_of(&self, addr: u64) -> u64 {
        self.tag(addr)
    }

    /// Base address of the line identified by `(set, tag)` — the inverse of
    /// [`Cache::set_of`]/[`Cache::tag_of`]. Wrapping arithmetic: a
    /// fault-corrupted tag may put the reconstructed address anywhere, and
    /// an out-of-range result must stay a contained wrong-address, not an
    /// overflow abort.
    #[inline]
    pub fn line_addr(&self, set: u64, tag: u64) -> u64 {
        tag.wrapping_mul(self.config.sets() as u64).wrapping_add(set) << self.line_shift
    }

    /// Byte offset of `addr` within its line.
    #[inline]
    pub fn line_offset(&self, addr: u64) -> u64 {
        addr & ((self.config.line as u64) - 1)
    }

    /// Invalidates everything (used when restoring checkpoints taken with a
    /// different CPU model, mirroring gem5's cache-cold switch).
    /// Every chunk goes cold, so this is O(chunks), not O(lines).
    pub fn invalidate_all(&mut self) {
        self.chunks.fill_with(|| Block::Cold);
    }

    /// Returns the cache to its freshly-built state: lines, LRU clock, and
    /// statistics — exactly what [`Cache::new`] with the same geometry
    /// produces. Stronger than [`Cache::invalidate_all`], which keeps the
    /// clock and counters.
    pub fn reset_cold(&mut self) {
        self.invalidate_all();
        self.clock = 0;
        self.stats = CacheStats::default();
    }

    /// Bytes this cache holds that `base` does not share: its chunk table
    /// and every chunk whose storage is not `base`'s chunk at that index.
    pub(crate) fn unshared_bytes(&self, base: &Cache) -> usize {
        let shared = |i: usize, chunk: &Block<Line>| {
            base.chunks.get(i).is_some_and(|b| chunk.shares_storage_with(b))
        };
        let chunks = self.chunks.iter().enumerate().filter(|&(i, c)| !shared(i, c));
        std::mem::size_of_val(&self.chunks[..]) + chunks.map(|(_, c)| c.bytes()).sum::<usize>()
    }
}

impl Clone for Cache {
    /// Shares every chunk with the clone; neither copies a chunk until it
    /// next accesses it.
    fn clone(&self) -> Cache {
        Cache {
            config: self.config,
            line_shift: self.line_shift,
            set_mask: self.set_mask,
            sets: self.sets,
            chunk_shift: self.chunk_shift,
            chunks: self.chunks.iter().map(Block::share).collect(),
            clock: self.clock,
            stats: self.stats,
        }
    }
}

impl PartialEq for Cache {
    /// Equal geometry, clock, statistics and lines; how the lines are
    /// shared is representation, not state.
    fn eq(&self, other: &Cache) -> bool {
        let cold = |lines: &[Line]| lines.iter().all(|l| *l == Line::default());
        self.config == other.config
            && self.clock == other.clock
            && self.stats == other.stats
            && self.chunks.iter().zip(&other.chunks).all(|(a, b)| match (a.get(), b.get()) {
                (Some(a), Some(b)) => a == b,
                (Some(lines), None) | (None, Some(lines)) => cold(lines),
                (None, None) => true,
            })
    }
}

impl Eq for Cache {}

#[cfg(test)]
mod tests {
    use super::*;

    fn tiny() -> Cache {
        // 2 sets x 2 ways x 16-byte lines.
        Cache::new(CacheConfig { size: 64, ways: 2, line: 16, hit_latency: 1 })
    }

    #[test]
    fn first_access_misses_then_hits() {
        let mut c = tiny();
        assert!(!c.access(0x100, false).hit);
        assert!(c.access(0x100, false).hit);
        assert!(c.access(0x10f, false).hit, "same line");
        assert!(!c.access(0x110, false).hit, "next line");
        assert_eq!(c.stats().hits, 2);
        assert_eq!(c.stats().misses, 2);
    }

    #[test]
    fn lru_evicts_least_recently_used() {
        let mut c = tiny();
        // Three lines mapping to set 0 (line=16, sets=2 → set = (addr/16) % 2).
        let a = 0x000;
        let b = 0x020;
        let d = 0x040;
        c.access(a, false);
        c.access(b, false);
        c.access(a, false); // a most recent
        assert!(!c.access(d, false).hit); // evicts b
        assert!(c.access(a, false).hit);
        assert!(!c.access(b, false).hit);
    }

    #[test]
    fn dirty_eviction_reports_writeback() {
        let mut c = tiny();
        c.access(0x000, true); // dirty
        c.access(0x020, false);
        let acc = c.access(0x040, false); // evicts dirty 0x000
        assert!(acc.writeback);
        assert_eq!(c.stats().writebacks, 1);
    }

    #[test]
    fn invalidate_all_forgets_lines() {
        let mut c = tiny();
        c.access(0x0, false);
        c.invalidate_all();
        assert!(!c.access(0x0, false).hit);
    }

    #[test]
    #[should_panic(expected = "geometry")]
    fn bad_geometry_panics() {
        Cache::new(CacheConfig { size: 100, ways: 2, line: 16, hit_latency: 1 });
    }

    #[test]
    fn set_tag_line_addr_roundtrip() {
        let c = tiny();
        for addr in [0x0u64, 0x10, 0x25, 0x133, 0xffff] {
            let base = c.line_addr(c.set_of(addr), c.tag_of(addr));
            assert_eq!(base + c.line_offset(addr), addr);
        }
    }

    #[test]
    fn access_reports_resident_way() {
        let mut c = tiny();
        let a = c.access(0x000, false);
        assert_eq!(a.way, 0, "a cold set fills way 0 first (lesion tests rely on this)");
        let b = c.access(0x020, false); // same set, other way
        assert_ne!(a.way, b.way);
        assert_eq!(c.access(0x000, false).way, a.way, "hit reports the resident way");
    }
}
