//! The memory hierarchy: L1I/L1D → unified L2 → DRAM over [`PhysMem`].

use crate::cache::Cache;
use crate::config::MemConfig;
use crate::lesion::{CacheLesion, CacheLevel, LesionKind};
use crate::phys::PhysMem;
use crate::stats::MemStats;
use crate::Ticks;
use gemfi_isa::superblock::{translate, SbMemory};
use gemfi_isa::{Instr, PredecodeCache, Superblock, SuperblockCache, Trap};
use std::sync::Arc;

/// Which port an access uses (instruction or data side).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum AccessKind {
    /// Instruction fetch (L1I).
    Fetch,
    /// Data read (L1D).
    Read,
    /// Data write (L1D).
    Write,
}

/// Where one access landed in the hierarchy: the (set, way) slot it
/// occupies at L1, and at L2 when the L1 missed. Cache-array lesions match
/// against this path.
#[derive(Debug, Clone, Copy)]
struct AccessPath {
    kind: AccessKind,
    l1_set: u64,
    l1_way: u32,
    l2: Option<(u64, u32)>,
}

/// The complete memory system of one simulated machine.
///
/// *Timed* accessors (`fetch`, `read_*`, `write_*`) walk the cache hierarchy
/// and return the data together with the access latency in ticks. The
/// `*_functional` accessors bypass timing entirely — they are used by the
/// program loader, the kernel substrate's bookkeeping, checkpoint capture,
/// and host-side output extraction, none of which exist on the simulated
/// timeline.
#[derive(Debug, Clone, PartialEq)]
pub struct MemorySystem {
    config: MemConfig,
    phys: PhysMem,
    l1i: Cache,
    l1d: Cache,
    l2: Cache,
    dram_accesses: u64,
    /// Predecoded-instruction cache (derived state, never serialized). Lives
    /// in the memory system so every store path — timed, functional, and
    /// bulk — can invalidate overlapping entries.
    predecode: PredecodeCache,
    /// Superblock translation cache (derived state, never serialized). Same
    /// residency rule as `predecode`: every store path invalidates
    /// overlapping translations, and any lesion on the fetch path refuses
    /// lookups and installs.
    superblocks: SuperblockCache,
    /// Planted cache-array lesions (fault state, never serialized: restore
    /// rebuilds lesion-free, and forks clone the machine before any fault
    /// fires). A lesion survives `invalidate_caches` — it damages the
    /// array, not the lines resident in it.
    lesions: Vec<CacheLesion>,
}

impl MemorySystem {
    /// Builds the hierarchy described by `config`.
    pub fn new(config: MemConfig) -> MemorySystem {
        MemorySystem {
            phys: PhysMem::new(config.phys_size),
            l1i: Cache::new(config.l1i),
            l1d: Cache::new(config.l1d),
            l2: Cache::new(config.l2),
            dram_accesses: 0,
            predecode: PredecodeCache::default(),
            superblocks: SuperblockCache::default(),
            lesions: Vec::new(),
            config,
        }
    }

    /// The configuration this system was built with.
    pub fn config(&self) -> &MemConfig {
        &self.config
    }

    /// Walks the hierarchy for timing; returns the access latency together
    /// with the (set, way) slots the access landed on at each level.
    fn walk(&mut self, addr: u64, kind: AccessKind) -> (Ticks, AccessPath) {
        let write = matches!(kind, AccessKind::Write);
        let (l1, l1_lat) = match kind {
            AccessKind::Fetch => (&mut self.l1i, self.config.l1i.hit_latency),
            AccessKind::Read | AccessKind::Write => (&mut self.l1d, self.config.l1d.hit_latency),
        };
        let a1 = l1.access(addr, write);
        let l1_set = l1.set_of(addr);
        let mut path = AccessPath { kind, l1_set, l1_way: a1.way, l2: None };
        let mut lat = l1_lat;
        if a1.hit {
            return (lat, path);
        }
        // L1 miss: consult L2 (the fill, not the CPU write, owns the line).
        let a2 = self.l2.access(addr, a1.writeback);
        path.l2 = Some((self.l2.set_of(addr), a2.way));
        lat += self.config.l2.hit_latency;
        if !a2.hit {
            self.dram_accesses += 1;
            lat += self.config.dram_latency;
            if a2.writeback {
                // Dirty L2 victim drains to DRAM; modelled as an extra DRAM
                // occupancy but off the critical path of this access.
                self.dram_accesses += 1;
            }
        }
        (lat, path)
    }

    /// Walks the hierarchy for timing only (fault-free fast path).
    fn latency(&mut self, addr: u64, kind: AccessKind) -> Ticks {
        self.walk(addr, kind).0
    }

    /// Plants a cache-array lesion (a fired memory-hierarchy fault). The
    /// lesion corrupts every access landing on the damaged slot until its
    /// `remaining` budget runs out (`u64::MAX` = stuck-at, never heals).
    pub fn plant_lesion(&mut self, lesion: CacheLesion) {
        self.lesions.push(lesion);
    }

    /// The currently active cache-array lesions.
    pub fn lesions(&self) -> &[CacheLesion] {
        &self.lesions
    }

    /// Whether any active lesion sits in an array that serves instruction
    /// fetches (L1I or L2). While true, the predecode cache is bypassed and
    /// installs are refused: predecode entries must only ever hold true
    /// memory words, and a lesioned fetch path can corrupt them.
    fn fetch_lesioned(&self) -> bool {
        self.lesions.iter().any(|l| l.level.serves_fetch())
    }

    /// The tag cache modelling `level`.
    fn cache_at(&self, level: CacheLevel) -> &Cache {
        match level {
            CacheLevel::L1I => &self.l1i,
            CacheLevel::L1D => &self.l1d,
            CacheLevel::L2 => &self.l2,
        }
    }

    /// The (set, way) slot this access occupies at `level`, if it reached
    /// that level at all.
    fn path_slot(level: CacheLevel, path: &AccessPath) -> Option<(u64, u32)> {
        match (level, path.kind) {
            (CacheLevel::L1I, AccessKind::Fetch) => Some((path.l1_set, path.l1_way)),
            (CacheLevel::L1D, AccessKind::Read | AccessKind::Write) => {
                Some((path.l1_set, path.l1_way))
            }
            (CacheLevel::L2, _) => path.l2,
            _ => None,
        }
    }

    /// Burns one corrupting application off lesion `i`. Returns `true` when
    /// the lesion healed and was removed (so the caller re-checks index `i`).
    fn consume_lesion(&mut self, i: usize) -> bool {
        let l = &mut self.lesions[i];
        if l.remaining != u64::MAX {
            l.remaining = l.remaining.saturating_sub(1);
            if l.remaining == 0 {
                self.lesions.remove(i);
                return true;
            }
        }
        false
    }

    /// Applies active lesions to a value served through `path`. Data
    /// lesions transform the value; tag lesions make the slot answer for
    /// the aliased line, so the read serves physical memory at the aliased
    /// address instead (wrong-data reads — an unmapped alias falls back to
    /// the true value, never a sim abort). `width` is the access width in
    /// bytes.
    fn lesioned_read(&mut self, addr: u64, value: u64, width: u32, path: &AccessPath) -> u64 {
        let mut v = value;
        let mut i = 0;
        while i < self.lesions.len() {
            let l = self.lesions[i];
            let slot = Self::path_slot(l.level, path);
            let sets = self.cache_at(l.level).config().sets() as u64;
            let applied = match slot {
                Some((set, way)) if l.covers(set, way, sets) => match l.kind {
                    LesionKind::Data => {
                        v = l.effect.apply(v);
                        true
                    }
                    LesionKind::Tag => {
                        let cache = self.cache_at(l.level);
                        let alias_tag = l.effect.apply(cache.tag_of(addr));
                        let alias = cache.line_addr(set, alias_tag) | cache.line_offset(addr);
                        let aliased = match width {
                            4 => self.phys.read_u32(alias, 0).ok().map(u64::from),
                            _ => self.phys.read_u64(alias, 0).ok(),
                        };
                        match aliased {
                            Some(x) => {
                                v = x;
                                true
                            }
                            None => false,
                        }
                    }
                },
                _ => false,
            };
            if applied && self.consume_lesion(i) {
                continue; // healed and removed: the next lesion now sits at `i`
            }
            i += 1;
        }
        v
    }

    /// Applies active *data* lesions to a value stored through `path`,
    /// corrupting the backing store in place (write-through damage). Tag
    /// lesions are read-side only: they redirect what the slot answers, not
    /// what the CPU wrote.
    fn lesioned_store(&mut self, addr: u64, value: u64, width: u32, path: &AccessPath) {
        let mut v = value;
        let mut changed = false;
        let mut i = 0;
        while i < self.lesions.len() {
            let l = self.lesions[i];
            let slot = Self::path_slot(l.level, path);
            let sets = self.cache_at(l.level).config().sets() as u64;
            let applied = matches!(
                (slot, l.kind),
                (Some((set, way)), LesionKind::Data) if l.covers(set, way, sets)
            );
            if applied {
                v = l.effect.apply(v);
                changed = true;
                if self.consume_lesion(i) {
                    continue;
                }
            }
            i += 1;
        }
        if changed {
            // The original (uncorrupted) write already validated the
            // address and invalidated overlapping predecode entries, so the
            // corrupting re-write cannot fail or leave a stale decode.
            let _ = match width {
                4 => self.phys.write_u32(addr, v as u32, 0),
                _ => self.phys.write_u64(addr, v, 0),
            };
        }
    }

    /// Timed instruction fetch.
    ///
    /// # Errors
    ///
    /// [`Trap::UnmappedAccess`] / [`Trap::MisalignedAccess`].
    pub fn fetch(&mut self, pc: u64) -> Result<(u32, Ticks), Trap> {
        let word = self.phys.read_u32(pc, pc)?;
        if self.lesions.is_empty() {
            let lat = self.latency(pc, AccessKind::Fetch);
            return Ok((word, lat));
        }
        let (lat, path) = self.walk(pc, AccessKind::Fetch);
        let word = self.lesioned_read(pc, u64::from(word), 4, &path) as u32;
        Ok((word, lat))
    }

    /// Timed instruction fetch through the predecode cache.
    ///
    /// On a predecode hit the raw word comes from the cached entry (store
    /// invalidation keeps it coherent with physical memory) together with
    /// the cached decode; on a miss the word is read from physical memory
    /// and the decode slot is `None`. Either way the L1I/L2 hierarchy is
    /// walked for timing, so the cache-level statistics the paper's
    /// validation compares do not depend on what the predecode cache holds.
    ///
    /// # Errors
    ///
    /// [`Trap::UnmappedAccess`] / [`Trap::MisalignedAccess`].
    pub fn fetch_predecoded(&mut self, pc: u64) -> Result<(u32, Option<Instr>, Ticks), Trap> {
        // While a lesion sits on the fetch path (L1I/L2), the predecode
        // cache is bypassed entirely: a cached entry would serve the stale
        // true word instead of the damaged array's corruption.
        let lesioned = self.fetch_lesioned();
        if !lesioned {
            if let Some((raw, instr)) = self.predecode.lookup(pc) {
                let lat = self.latency(pc, AccessKind::Fetch);
                return Ok((raw, Some(instr), lat));
            }
        }
        let word = self.phys.read_u32(pc, pc)?;
        let (lat, path) = self.walk(pc, AccessKind::Fetch);
        let word =
            if lesioned { self.lesioned_read(pc, u64::from(word), 4, &path) as u32 } else { word };
        Ok((word, None, lat))
    }

    /// Installs a decode into the predecode cache. `raw` must be the word
    /// as read from memory — never a fault-corrupted variant; installs are
    /// therefore refused while a lesion sits on the fetch path.
    #[inline]
    pub fn install_predecoded(&mut self, pc: u64, raw: u32, instr: Instr) {
        if self.fetch_lesioned() {
            return;
        }
        self.predecode.install(pc, raw, instr);
    }

    /// Untimed, uncounted predecode lookup for speculative peeks.
    #[inline]
    pub fn peek_predecoded(&self, pc: u64) -> Option<Instr> {
        self.predecode.peek(pc)
    }

    /// Drops all predecoded entries and their counters (derived-state reset
    /// on checkpoint capture/restore and CPU-model switch).
    pub fn clear_predecode(&mut self) {
        self.predecode.clear();
    }

    /// Drops all superblock translations and their counters (derived-state
    /// reset on checkpoint capture/restore and CPU-model switch, and when
    /// `Machine::set_superblock` switches block execution off).
    pub fn clear_superblocks(&mut self) {
        self.superblocks.clear();
    }

    /// The superblock starting exactly at `pc`, translating and installing
    /// it on a miss. Refuses (`None`) while any cache lesion is planted
    /// (block execution skips the hierarchy walk entirely, so *no* lesioned
    /// path — fetch or data — may be live), or when the head instruction
    /// cannot be translated.
    ///
    /// Translation fetches functionally: like predecode installs, building
    /// host-side derived state must not perturb cache stats or timing.
    pub fn superblock_at(&mut self, pc: u64) -> Option<Arc<Superblock>> {
        if !self.lesions.is_empty() {
            return None;
        }
        if let Some(block) = self.superblocks.lookup(pc) {
            return Some(block);
        }
        let phys = &self.phys;
        match translate(pc, |addr| phys.read_u32(addr, 0).ok()) {
            Some(block) => Some(self.superblocks.install(block)),
            None => {
                self.superblocks.note_untranslatable();
                None
            }
        }
    }

    /// Notes micro-ops committed through superblock execution.
    pub fn note_superblock_run(&mut self, uops: u64) {
        self.superblocks.note_executed(uops);
    }

    /// Notes a cached superblock skipped because it did not fit the
    /// sprint's remaining tick or event budget.
    pub fn note_superblock_fallback(&mut self) {
        self.superblocks.note_budget_fallback();
    }

    /// Timed 64-bit data read.
    ///
    /// # Errors
    ///
    /// [`Trap::UnmappedAccess`] / [`Trap::MisalignedAccess`].
    pub fn read_u64(&mut self, addr: u64, pc: u64) -> Result<(u64, Ticks), Trap> {
        let v = self.phys.read_u64(addr, pc)?;
        if self.lesions.is_empty() {
            let lat = self.latency(addr, AccessKind::Read);
            return Ok((v, lat));
        }
        let (lat, path) = self.walk(addr, AccessKind::Read);
        let v = self.lesioned_read(addr, v, 8, &path);
        Ok((v, lat))
    }

    /// Timed 32-bit data read.
    ///
    /// # Errors
    ///
    /// [`Trap::UnmappedAccess`] / [`Trap::MisalignedAccess`].
    pub fn read_u32(&mut self, addr: u64, pc: u64) -> Result<(u32, Ticks), Trap> {
        let v = self.phys.read_u32(addr, pc)?;
        if self.lesions.is_empty() {
            let lat = self.latency(addr, AccessKind::Read);
            return Ok((v, lat));
        }
        let (lat, path) = self.walk(addr, AccessKind::Read);
        let v = self.lesioned_read(addr, u64::from(v), 4, &path) as u32;
        Ok((v, lat))
    }

    /// Timed 64-bit data write.
    ///
    /// # Errors
    ///
    /// [`Trap::UnmappedAccess`] / [`Trap::MisalignedAccess`].
    pub fn write_u64(&mut self, addr: u64, value: u64, pc: u64) -> Result<Ticks, Trap> {
        self.phys.write_u64(addr, value, pc)?;
        self.predecode.invalidate_range(addr, 8);
        self.superblocks.invalidate_range(addr, 8);
        if self.lesions.is_empty() {
            return Ok(self.latency(addr, AccessKind::Write));
        }
        let (lat, path) = self.walk(addr, AccessKind::Write);
        self.lesioned_store(addr, value, 8, &path);
        Ok(lat)
    }

    /// Timed 32-bit data write.
    ///
    /// # Errors
    ///
    /// [`Trap::UnmappedAccess`] / [`Trap::MisalignedAccess`].
    pub fn write_u32(&mut self, addr: u64, value: u32, pc: u64) -> Result<Ticks, Trap> {
        self.phys.write_u32(addr, value, pc)?;
        self.predecode.invalidate_range(addr, 4);
        self.superblocks.invalidate_range(addr, 4);
        if self.lesions.is_empty() {
            return Ok(self.latency(addr, AccessKind::Write));
        }
        let (lat, path) = self.walk(addr, AccessKind::Write);
        self.lesioned_store(addr, u64::from(value), 4, &path);
        Ok(lat)
    }

    /// Untimed 64-bit read (loader/extraction side).
    ///
    /// # Errors
    ///
    /// [`Trap::UnmappedAccess`] / [`Trap::MisalignedAccess`].
    pub fn read_u64_functional(&self, addr: u64) -> Result<u64, Trap> {
        self.phys.read_u64(addr, 0)
    }

    /// Untimed 64-bit write (loader side).
    ///
    /// # Errors
    ///
    /// [`Trap::UnmappedAccess`] / [`Trap::MisalignedAccess`].
    pub fn write_u64_functional(&mut self, addr: u64, value: u64) -> Result<(), Trap> {
        self.phys.write_u64(addr, value, 0)?;
        self.predecode.invalidate_range(addr, 8);
        self.superblocks.invalidate_range(addr, 8);
        Ok(())
    }

    /// Untimed 32-bit read.
    ///
    /// # Errors
    ///
    /// [`Trap::UnmappedAccess`] / [`Trap::MisalignedAccess`].
    pub fn read_u32_functional(&self, addr: u64) -> Result<u32, Trap> {
        self.phys.read_u32(addr, 0)
    }

    /// Untimed 32-bit write.
    ///
    /// # Errors
    ///
    /// [`Trap::UnmappedAccess`] / [`Trap::MisalignedAccess`].
    pub fn write_u32_functional(&mut self, addr: u64, value: u32) -> Result<(), Trap> {
        self.phys.write_u32(addr, value, 0)?;
        self.predecode.invalidate_range(addr, 4);
        self.superblocks.invalidate_range(addr, 4);
        Ok(())
    }

    /// Untimed bulk write (program loader).
    ///
    /// # Errors
    ///
    /// [`Trap::UnmappedAccess`] when the range does not fit.
    pub fn write_slice(&mut self, addr: u64, data: &[u8]) -> Result<(), Trap> {
        self.phys.write_slice(addr, data)?;
        self.predecode.invalidate_range(addr, data.len() as u64);
        self.superblocks.invalidate_range(addr, data.len() as u64);
        Ok(())
    }

    /// Untimed bulk read (output extraction). Returns an owned buffer: the
    /// paged backing store cannot lend a contiguous borrow across page
    /// boundaries.
    ///
    /// # Errors
    ///
    /// [`Trap::UnmappedAccess`] when the range does not fit.
    pub fn read_slice(&self, addr: u64, len: usize) -> Result<Vec<u8>, Trap> {
        self.phys.read_slice(addr, len)
    }

    /// Diagnostic: `(privately owned, total)` physical pages — the CoW
    /// dirty-page footprint relative to any snapshot siblings.
    pub fn page_footprint(&self) -> (usize, usize) {
        (self.phys.owned_pages(), self.phys.total_pages())
    }

    /// Diagnostic: physical pages this memory still shares frame-for-frame
    /// with `other` — e.g. a forked suffix against the trunk it forked from.
    /// See [`crate::PhysMem::shared_pages_with`].
    pub fn shared_pages_with(&self, other: &MemorySystem) -> usize {
        self.phys.shared_pages_with(&other.phys)
    }

    /// Physical memory size in bytes.
    pub fn size(&self) -> u64 {
        self.phys.size()
    }

    /// Aggregate statistics of every level.
    pub fn stats(&self) -> MemStats {
        MemStats {
            l1i: *self.l1i.stats(),
            l1d: *self.l1d.stats(),
            l2: *self.l2.stats(),
            dram_accesses: self.dram_accesses,
            predecode: self.predecode.stats(),
            superblock: self.superblocks.stats(),
        }
    }

    /// Invalidates all cache levels (checkpoint restore starts cache-cold).
    pub fn invalidate_caches(&mut self) {
        self.l1i.invalidate_all();
        self.l1d.invalidate_all();
        self.l2.invalidate_all();
    }

    /// Returns every cache level (tags, LRU clocks, statistics) and the DRAM
    /// counter to the freshly-built state — exactly what decoding a
    /// serialized image produces. Checkpoint capture and restore call this
    /// so an in-process checkpoint behaves identically to one that
    /// round-tripped through bytes: the image deliberately carries no cache
    /// state, so the in-memory object must not either. Without it, the warm
    /// capture-time tag state leaks into restored runs — and since fast
    /// paths that legitimately skip the hierarchy walk (superblock
    /// execution) leave different warm state than stepped runs, restored
    /// detailed-model timing would depend on host-side knobs.
    pub fn reset_caches(&mut self) {
        self.l1i.reset_cold();
        self.l1d.reset_cold();
        self.l2.reset_cold();
        self.dram_accesses = 0;
    }
}

/// The memory surface superblock micro-ops execute against: direct
/// physical loads and stores, no hierarchy walk. Only reachable while the
/// machine is dormant on the atomic model with no lesions planted
/// (`Machine::sprint` gates it; `superblock_at` refuses otherwise) — and
/// the atomic model charges one tick per committed instruction regardless
/// of memory latency, so skipping the walk is tick-invisible. Cache
/// hit/miss counters diverge from the stepped run, exactly like the
/// original substrate's KVM-style fast-forward; they are diagnostics, never
/// serialized, and never part of outcome classification.
impl SbMemory for MemorySystem {
    fn load_u64(&mut self, addr: u64, pc: u64) -> Result<u64, Trap> {
        self.phys.read_u64(addr, pc)
    }

    fn load_u32(&mut self, addr: u64, pc: u64) -> Result<u32, Trap> {
        self.phys.read_u32(addr, pc)
    }

    fn store_u64(&mut self, addr: u64, value: u64, pc: u64) -> Result<(), Trap> {
        self.phys.write_u64(addr, value, pc)?;
        self.predecode.invalidate_range(addr, 8);
        self.superblocks.invalidate_range(addr, 8);
        Ok(())
    }

    fn store_u32(&mut self, addr: u64, value: u32, pc: u64) -> Result<(), Trap> {
        self.phys.write_u32(addr, value, pc)?;
        self.predecode.invalidate_range(addr, 4);
        self.superblocks.invalidate_range(addr, 4);
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn cold_access_pays_dram_then_hits_l1() {
        let mut m = MemorySystem::new(MemConfig::default());
        m.write_u64_functional(0x2000, 7).unwrap();
        let (_, cold) = m.read_u64(0x2000, 0).unwrap();
        let (_, warm) = m.read_u64(0x2000, 0).unwrap();
        assert!(cold > warm);
        assert_eq!(warm, m.config().l1d.hit_latency);
        assert_eq!(m.stats().dram_accesses, 1);
    }

    #[test]
    fn fetch_uses_instruction_port() {
        let mut m = MemorySystem::new(MemConfig::default());
        m.fetch(0x1000).unwrap();
        assert_eq!(m.stats().l1i.accesses(), 1);
        assert_eq!(m.stats().l1d.accesses(), 0);
    }

    #[test]
    fn functional_accesses_do_not_touch_stats() {
        let mut m = MemorySystem::new(MemConfig::default());
        m.write_u64_functional(0x40, 1).unwrap();
        m.read_u64_functional(0x40).unwrap();
        let s = m.stats();
        assert_eq!(s.l1d.accesses() + s.l1i.accesses() + s.l2.accesses(), 0);
    }

    #[test]
    fn l2_absorbs_l1_misses() {
        let mut m = MemorySystem::new(MemConfig::default());
        // Touch, then invalidate L1s only by touching lots of conflicting
        // lines; simpler: invalidate everything and touch again — then L2
        // also misses. Instead verify the first miss registers in L2.
        m.read_u64(0x3000, 0).unwrap();
        assert_eq!(m.stats().l2.misses, 1);
        m.read_u64(0x3000, 0).unwrap();
        assert_eq!(m.stats().l2.accesses(), 1, "L1 hit must not reach L2");
    }

    #[test]
    fn predecoded_fetch_hits_after_install_and_skips_decode() {
        use gemfi_isa::{decode, RawInstr};
        let mut m = MemorySystem::new(MemConfig::default());
        let i = gemfi_isa::Instr::Br { ra: gemfi_isa::IntReg::new(31).unwrap(), disp: 0 };
        let word = gemfi_isa::encode(&i).0;
        m.write_u32_functional(0x4000, word).unwrap();
        let (raw, cached, _) = m.fetch_predecoded(0x4000).unwrap();
        assert_eq!(raw, word);
        assert!(cached.is_none(), "cold fetch misses");
        m.install_predecoded(0x4000, raw, decode(RawInstr(raw)).unwrap());
        let (raw2, cached2, _) = m.fetch_predecoded(0x4000).unwrap();
        assert_eq!(raw2, word);
        assert_eq!(cached2, Some(i));
        let s = m.stats().predecode;
        assert_eq!((s.hits, s.misses), (1, 1));
    }

    #[test]
    fn predecoded_fetch_walks_l1i_like_plain_fetch() {
        let mut a = MemorySystem::new(MemConfig::default());
        let mut b = MemorySystem::new(MemConfig::default());
        let i = gemfi_isa::Instr::Br { ra: gemfi_isa::IntReg::new(31).unwrap(), disp: 0 };
        for m in [&mut a, &mut b] {
            m.write_u32_functional(0x4000, gemfi_isa::encode(&i).0).unwrap();
        }
        b.install_predecoded(0x4000, gemfi_isa::encode(&i).0, i);
        for _ in 0..3 {
            let (_, lat_a) = a.fetch(0x4000).unwrap();
            let (_, _, lat_b) = b.fetch_predecoded(0x4000).unwrap();
            assert_eq!(lat_a, lat_b, "predecode must not change fetch timing");
        }
        assert_eq!(a.stats().l1i, b.stats().l1i);
    }

    #[test]
    fn every_store_path_invalidates_cached_decodes() {
        let i = gemfi_isa::Instr::Br { ra: gemfi_isa::IntReg::new(31).unwrap(), disp: 0 };
        let word = gemfi_isa::encode(&i).0;
        let stores: [&dyn Fn(&mut MemorySystem); 5] = [
            &|m| {
                m.write_u32(0x4000, 0, 0).unwrap();
            },
            &|m| {
                m.write_u64(0x4000, 0, 0).unwrap();
            },
            &|m| m.write_u32_functional(0x4000, 0).unwrap(),
            &|m| m.write_u64_functional(0x4000, 0).unwrap(),
            &|m| m.write_slice(0x3ffe, &[0; 8]).unwrap(),
        ];
        for store in stores {
            let mut m = MemorySystem::new(MemConfig::default());
            m.write_u32_functional(0x4000, word).unwrap();
            m.install_predecoded(0x4000, word, i);
            assert_eq!(m.peek_predecoded(0x4000), Some(i));
            store(&mut m);
            assert_eq!(m.peek_predecoded(0x4000), None, "store must invalidate");
        }
    }

    /// A two-instruction straight-line block (`addq; br`) at `addr`.
    fn put_block(m: &mut MemorySystem, addr: u64) {
        let add = gemfi_isa::Instr::IntOp {
            func: gemfi_isa::opcode::IntFunc::Addq,
            ra: gemfi_isa::IntReg::new(1).unwrap(),
            rb: gemfi_isa::Operand::Lit(1),
            rc: gemfi_isa::IntReg::new(1).unwrap(),
        };
        let br = gemfi_isa::Instr::Br { ra: gemfi_isa::IntReg::new(31).unwrap(), disp: 0 };
        m.write_u32_functional(addr, gemfi_isa::encode(&add).0).unwrap();
        m.write_u32_functional(addr + 4, gemfi_isa::encode(&br).0).unwrap();
    }

    #[test]
    fn superblock_translates_installs_and_hits() {
        let mut m = MemorySystem::new(MemConfig::default());
        put_block(&mut m, 0x4000);
        let b = m.superblock_at(0x4000).expect("translates");
        assert_eq!((b.start(), b.len()), (0x4000, 2));
        m.superblock_at(0x4000).expect("hit");
        let s = m.stats().superblock;
        assert_eq!((s.blocks_built, s.hits, s.misses), (1, 1, 1));
    }

    #[test]
    fn every_store_path_invalidates_superblocks() {
        let stores: [&dyn Fn(&mut MemorySystem); 6] = [
            &|m| {
                m.write_u32(0x4004, 0, 0).unwrap();
            },
            &|m| {
                m.write_u64(0x4000, 0, 0).unwrap();
            },
            &|m| m.write_u32_functional(0x4004, 0).unwrap(),
            &|m| m.write_u64_functional(0x4000, 0).unwrap(),
            &|m| m.write_slice(0x3ffe, &[0; 8]).unwrap(),
            &|m| SbMemory::store_u32(m, 0x4004, 0, 0).unwrap(),
        ];
        for store in stores {
            let mut m = MemorySystem::new(MemConfig::default());
            put_block(&mut m, 0x4000);
            m.superblock_at(0x4000).expect("translates");
            store(&mut m);
            assert_eq!(
                m.stats().superblock.invalidations,
                1,
                "store must drop the overlapping block"
            );
            // A re-lookup retranslates from the patched bytes (all stores
            // zeroed at least one instruction word, so the stale two-op
            // block can never be served again).
            if let Some(b) = m.superblock_at(0x4000) {
                assert!(b.len() < 2, "stale block must not survive the store");
            }
        }
    }

    #[test]
    fn superblocks_refuse_while_any_lesion_is_planted() {
        use crate::lesion::{LesionEffect, LesionTarget};
        let mut m = MemorySystem::new(MemConfig::default());
        put_block(&mut m, 0x4000);
        m.superblock_at(0x4000).expect("translates while healthy");
        // A *data*-side lesion must also refuse: block execution skips the
        // hierarchy walk entirely, so no lesioned path may be live.
        m.plant_lesion(CacheLesion {
            level: CacheLevel::L1D,
            target: LesionTarget::Line { set: 0, way: 0 },
            kind: LesionKind::Data,
            effect: LesionEffect { xor_mask: 1, ..LesionEffect::default() },
            remaining: u64::MAX,
        });
        assert!(m.superblock_at(0x4000).is_none(), "lesioned machine refuses");
        // One lesioned read burns the single-application budget; once the
        // lesion heals, blocks are served again.
        let mut l = m.lesions()[0];
        l.remaining = 1;
        m.lesions.clear();
        m.plant_lesion(l);
        m.read_u64(0, 0).unwrap();
        assert!(m.lesions().is_empty(), "transient lesion healed");
        assert!(m.superblock_at(0x4000).is_some(), "healed machine serves again");
    }

    #[test]
    fn clear_superblocks_drops_translations_and_counters() {
        let mut m = MemorySystem::new(MemConfig::default());
        put_block(&mut m, 0x4000);
        m.superblock_at(0x4000).expect("translates");
        m.clear_superblocks();
        assert_eq!(m.stats().superblock, gemfi_isa::SuperblockStats::default());
        let b = m.superblock_at(0x4000).expect("retranslates after clear");
        assert_eq!(b.len(), 2);
    }

    #[test]
    fn clear_predecode_drops_entries_and_counters() {
        let mut m = MemorySystem::new(MemConfig::default());
        let i = gemfi_isa::Instr::Br { ra: gemfi_isa::IntReg::new(31).unwrap(), disp: 0 };
        let word = gemfi_isa::encode(&i).0;
        m.write_u32_functional(0x4000, word).unwrap();
        m.install_predecoded(0x4000, word, i);
        m.fetch_predecoded(0x4000).unwrap();
        m.clear_predecode();
        assert_eq!(m.peek_predecoded(0x4000), None);
        assert_eq!(m.stats().predecode, gemfi_isa::PredecodeStats::default());
    }

    #[test]
    fn unmapped_timed_access_traps_without_stats() {
        let mut m = MemorySystem::new(MemConfig::default());
        let size = m.size();
        assert!(m.read_u64(size, 0x77).is_err());
        assert_eq!(m.stats().l1d.accesses(), 0);
    }

    use crate::lesion::{CacheLesion, CacheLevel, LesionEffect, LesionKind, LesionTarget};

    fn data_lesion(level: CacheLevel, set: u32, way: u32, remaining: u64) -> CacheLesion {
        CacheLesion {
            level,
            target: LesionTarget::Line { set, way },
            kind: LesionKind::Data,
            effect: LesionEffect { xor_mask: 1, ..LesionEffect::default() },
            remaining,
        }
    }

    #[test]
    fn data_lesion_corrupts_reads_then_heals() {
        let mut m = MemorySystem::new(MemConfig::default());
        m.write_u64_functional(0x2000, 0x40).unwrap();
        let set = 0x2000 >> 6 & 0xff; // default L1D: 64 B lines, 256 sets
        m.plant_lesion(data_lesion(CacheLevel::L1D, set as u32, 0, 2));
        // A cold set fills way 0 first, so both reads land on the lesion.
        assert_eq!(m.read_u64(0x2000, 0).unwrap().0, 0x41);
        assert_eq!(m.read_u64(0x2000, 0).unwrap().0, 0x41);
        assert!(m.lesions().is_empty(), "transient lesion heals after its budget");
        assert_eq!(m.read_u64(0x2000, 0).unwrap().0, 0x40);
    }

    #[test]
    fn stuck_at_lesion_never_heals_and_corrupts_stores() {
        let mut m = MemorySystem::new(MemConfig::default());
        let set = (0x3000u64 >> 6 & 0xff) as u32;
        m.plant_lesion(data_lesion(CacheLevel::L1D, set, 0, u64::MAX));
        m.write_u64(0x3000, 0x10, 0).unwrap();
        // The store went through the damaged slot: the backing store holds
        // the corrupted value even for functional (untimed) readers.
        assert_eq!(m.read_u64_functional(0x3000).unwrap(), 0x11);
        assert_eq!(m.lesions().len(), 1);
    }

    #[test]
    fn way_lesion_covers_every_set_of_the_level() {
        let mut m = MemorySystem::new(MemConfig::default());
        m.write_u64_functional(0x1000, 5).unwrap();
        m.write_u64_functional(0x8000, 9).unwrap();
        m.plant_lesion(CacheLesion {
            level: CacheLevel::L1D,
            target: LesionTarget::Way { way: 0 },
            kind: LesionKind::Data,
            effect: LesionEffect { set_mask: u64::MAX, set_value: 0, xor_mask: 0 },
            remaining: u64::MAX,
        });
        assert_eq!(m.read_u64(0x1000, 0).unwrap().0, 0, "stuck-at-zero way");
        assert_eq!(m.read_u64(0x8000, 0).unwrap().0, 0, "different set, same way");
    }

    #[test]
    fn tag_lesion_serves_the_aliased_line() {
        let mut m = MemorySystem::new(MemConfig::default());
        // Two addresses in the same L1D set whose tags differ by exactly
        // bit 0 (set stride = 256 sets * 64 B = 16 KiB).
        let a = 0x2000u64;
        let alias = a + (256 << 6);
        m.write_u64_functional(a, 0xaaaa).unwrap();
        m.write_u64_functional(alias, 0xbbbb).unwrap();
        let set = (a >> 6 & 0xff) as u32;
        m.plant_lesion(CacheLesion {
            level: CacheLevel::L1D,
            target: LesionTarget::Line { set, way: 0 },
            kind: LesionKind::Tag,
            effect: LesionEffect { xor_mask: 1, ..LesionEffect::default() },
            remaining: u64::MAX,
        });
        // Dirty the line, then read it back: the damaged tag answers for
        // the aliased line — wrong data, not an abort.
        m.write_u64(a, 0xcccc, 0).unwrap();
        assert_eq!(m.read_u64(a, 0).unwrap().0, 0xbbbb);
    }

    #[test]
    fn tag_lesion_with_unmapped_alias_falls_back_to_true_value() {
        let mut m = MemorySystem::new(MemConfig::default());
        m.write_u64_functional(0x2000, 0x77).unwrap();
        m.plant_lesion(CacheLesion {
            level: CacheLevel::L1D,
            target: LesionTarget::Line { set: (0x2000 >> 6 & 0xff) as u32, way: 0 },
            kind: LesionKind::Tag,
            // Flipping a high tag bit aliases far outside physical memory.
            effect: LesionEffect { xor_mask: 1 << 40, ..LesionEffect::default() },
            remaining: u64::MAX,
        });
        assert_eq!(m.read_u64(0x2000, 0).unwrap().0, 0x77, "unmapped alias is contained");
    }

    #[test]
    fn fetch_lesion_bypasses_predecode_and_refuses_installs() {
        use gemfi_isa::{decode, RawInstr};
        let mut m = MemorySystem::new(MemConfig::default());
        let i = gemfi_isa::Instr::Br { ra: gemfi_isa::IntReg::new(31).unwrap(), disp: 0 };
        let word = gemfi_isa::encode(&i).0;
        m.write_u32_functional(0x4000, word).unwrap();
        m.plant_lesion(CacheLesion {
            level: CacheLevel::L1I,
            target: LesionTarget::Way { way: 0 },
            kind: LesionKind::Data,
            effect: LesionEffect { xor_mask: 1 << 26, ..LesionEffect::default() },
            remaining: u64::MAX,
        });
        let (raw, cached, _) = m.fetch_predecoded(0x4000).unwrap();
        assert_eq!(cached, None, "lesioned fetch path must not serve predecode");
        assert_eq!(raw, word ^ (1 << 26), "the damaged array corrupts the fetch");
        // Installs are refused while the fetch path is lesioned — neither a
        // corrupted decode nor even the true word may land.
        if let Ok(instr) = decode(RawInstr(raw)) {
            m.install_predecoded(0x4000, raw, instr);
        }
        m.install_predecoded(0x4000, word, i);
        assert_eq!(m.peek_predecoded(0x4000), None);
        // An entry installed *before* the lesion holds a true word: it may
        // stay resident (it is bypassed while the lesion is active).
        let mut pre = MemorySystem::new(MemConfig::default());
        pre.write_u32_functional(0x4000, word).unwrap();
        pre.install_predecoded(0x4000, word, i);
        pre.plant_lesion(CacheLesion {
            level: CacheLevel::L2,
            target: LesionTarget::Way { way: 0 },
            kind: LesionKind::Data,
            effect: LesionEffect { xor_mask: 1 << 26, ..LesionEffect::default() },
            remaining: u64::MAX,
        });
        let (_, cached, _) = pre.fetch_predecoded(0x4000).unwrap();
        assert_eq!(cached, None, "resident true-word entry is bypassed, not served");
        assert_eq!(pre.peek_predecoded(0x4000), Some(i));
        // An L1D-only lesion leaves the fetch path (and predecode) alone.
        let mut d = MemorySystem::new(MemConfig::default());
        d.write_u32_functional(0x4000, word).unwrap();
        d.plant_lesion(data_lesion(CacheLevel::L1D, 0, 0, u64::MAX));
        d.install_predecoded(0x4000, word, i);
        let (raw, cached, _) = d.fetch_predecoded(0x4000).unwrap();
        assert_eq!((raw, cached), (word, Some(i)));
    }

    #[test]
    fn lesions_survive_cache_invalidation() {
        let mut m = MemorySystem::new(MemConfig::default());
        m.plant_lesion(data_lesion(CacheLevel::L2, 3, 1, u64::MAX));
        m.invalidate_caches();
        assert_eq!(m.lesions().len(), 1, "lesions damage the array, not the lines");
    }
}
