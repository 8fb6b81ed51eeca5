//! Predecoded-instruction cache.
//!
//! gem5 keeps a per-CPU cache of decoded instructions so the functional hot
//! loop does not re-crack the raw 32-bit word on every step; GemFI's
//! fast-forward methodology (Sec. III-D) makes that loop the dominant cost
//! of a campaign, so this reproduction does the same. The cache is
//! **derived state** and must stay architecturally invisible:
//!
//! * stores to a cached word invalidate the entry (self-modifying code,
//!   including the kernel boot stub written at runtime);
//! * a fetch- or decode-stage fault that changes the raw word bypasses the
//!   cache entirely — the corrupted word is decoded fresh and the corrupted
//!   decode is never installed;
//! * the cache is dropped on checkpoint save/restore and CPU-model switch,
//!   and never enters the serialized checkpoint image.
//!
//! Entries remember the *raw* word alongside the decoded [`Instr`]: the
//! injection hooks operate on raw bits, so the fast path re-runs the hooks
//! on the remembered word and only uses the cached decode when the hooks
//! left it untouched.

use crate::instr::Instr;

/// Default number of direct-mapped entries (power of two). At one entry per
/// instruction word this spans 32 KiB of text — larger than any guest in the
/// workload suite, so steady-state hit rates are effectively 100 %.
pub const DEFAULT_PREDECODE_ENTRIES: usize = 8192;

/// Hit/miss/invalidation counters for the predecode cache, surfaced through
/// `MemStats`/`SimStats`.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct PredecodeStats {
    /// Fetches served from a cached decode.
    pub hits: u64,
    /// Fetches that had to decode (and installed the result).
    pub misses: u64,
    /// Entries dropped because a store overlapped their word.
    pub invalidations: u64,
}

impl PredecodeStats {
    /// Total lookups.
    pub fn accesses(&self) -> u64 {
        self.hits + self.misses
    }

    /// Hit ratio in `[0, 1]`; zero when there were no lookups.
    pub fn hit_ratio(&self) -> f64 {
        if self.accesses() == 0 {
            0.0
        } else {
            self.hits as f64 / self.accesses() as f64
        }
    }
}

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
struct Entry {
    pc: u64,
    raw: u32,
    instr: Instr,
}

/// A direct-mapped cache of decoded instructions keyed by physical
/// instruction address.
#[derive(Debug, Clone, PartialEq)]
pub struct PredecodeCache {
    mask: u64,
    entries: Vec<Option<Entry>>,
    stats: PredecodeStats,
}

impl Default for PredecodeCache {
    /// A cache with [`DEFAULT_PREDECODE_ENTRIES`] slots.
    fn default() -> PredecodeCache {
        PredecodeCache::with_entries(DEFAULT_PREDECODE_ENTRIES)
    }
}

impl PredecodeCache {
    /// A cache with `entries` slots (rounded up to a power of two).
    pub fn with_entries(entries: usize) -> PredecodeCache {
        let entries = entries.next_power_of_two().max(1);
        PredecodeCache {
            mask: (entries - 1) as u64,
            entries: vec![None; entries],
            stats: PredecodeStats::default(),
        }
    }

    /// Counter snapshot.
    pub fn stats(&self) -> PredecodeStats {
        self.stats
    }

    #[inline]
    fn index(&self, pc: u64) -> usize {
        ((pc >> 2) & self.mask) as usize
    }

    /// Fast-path lookup: the raw word and decode cached for `pc`, bumping
    /// the hit/miss counters. Returns `None` on a miss.
    #[inline]
    pub fn lookup(&mut self, pc: u64) -> Option<(u32, Instr)> {
        let idx = self.index(pc);
        match self.entries[idx] {
            Some(e) if e.pc == pc => {
                self.stats.hits += 1;
                Some((e.raw, e.instr))
            }
            _ => {
                self.stats.misses += 1;
                None
            }
        }
    }

    /// Untimed, uncounted lookup for speculative peeks (branch predictors,
    /// interlock checks) that must not perturb the statistics surface.
    #[inline]
    pub fn peek(&self, pc: u64) -> Option<Instr> {
        match self.entries[self.index(pc)] {
            Some(e) if e.pc == pc => Some(e.instr),
            _ => None,
        }
    }

    /// Installs a decode for `pc`. `raw` must be the uncorrupted word as
    /// read from memory — callers are responsible for never installing a
    /// fault-corrupted decode.
    #[inline]
    pub fn install(&mut self, pc: u64, raw: u32, instr: Instr) {
        let idx = self.index(pc);
        self.entries[idx] = Some(Entry { pc, raw, instr });
    }

    /// Drops every entry whose word overlaps `[addr, addr + len)` — called
    /// on every store so self-modifying code always refetches.
    pub fn invalidate_range(&mut self, addr: u64, len: u64) {
        if len == 0 {
            return;
        }
        let bytes = (self.entries.len() as u64) * 4;
        if len >= bytes {
            // A bulk write larger than the cache span: wipe wholesale.
            for slot in &mut self.entries {
                if slot.take().is_some() {
                    self.stats.invalidations += 1;
                }
            }
            return;
        }
        let first = addr & !3;
        let mut word = first;
        while word < addr + len {
            let idx = self.index(word);
            if matches!(self.entries[idx], Some(e) if e.pc == word) {
                self.entries[idx] = None;
                self.stats.invalidations += 1;
            }
            word += 4;
        }
    }

    /// Drops every entry *and* the counters: the derived-state reset used on
    /// checkpoint capture/restore and CPU-model switch.
    pub fn clear(&mut self) {
        for slot in &mut self.entries {
            *slot = None;
        }
        self.stats = PredecodeStats::default();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::format::RawInstr;
    use crate::instr::{decode, encode, Instr};
    use crate::opcode::IntFunc;
    use crate::regs::IntReg;
    use crate::Operand;

    fn addq() -> Instr {
        Instr::IntOp {
            func: IntFunc::Addq,
            ra: IntReg::new(1).unwrap(),
            rb: Operand::Reg(IntReg::new(2).unwrap()),
            rc: IntReg::new(3).unwrap(),
        }
    }

    #[test]
    fn install_then_lookup_hits() {
        let mut c = PredecodeCache::with_entries(16);
        let i = addq();
        let raw = encode(&i).0;
        assert!(c.lookup(0x1000).is_none());
        c.install(0x1000, raw, i);
        assert_eq!(c.lookup(0x1000), Some((raw, i)));
        assert_eq!(c.stats(), PredecodeStats { hits: 1, misses: 1, invalidations: 0 });
    }

    #[test]
    fn aliasing_pc_evicts_and_misses() {
        let mut c = PredecodeCache::with_entries(16);
        let i = addq();
        let raw = encode(&i).0;
        c.install(0x1000, raw, i);
        // 16 entries × 4 bytes: +64 aliases to the same slot.
        c.install(0x1000 + 64, raw, i);
        assert!(c.lookup(0x1000).is_none(), "aliased install must evict");
        assert_eq!(c.lookup(0x1000 + 64), Some((raw, i)));
    }

    #[test]
    fn store_invalidates_overlapping_words() {
        let mut c = PredecodeCache::with_entries(16);
        let i = addq();
        let raw = encode(&i).0;
        c.install(0x1000, raw, i);
        c.install(0x1004, raw, i);
        c.install(0x1008, raw, i);
        // An 8-byte store over 0x1004 kills words 0x1004 and 0x1008 but
        // leaves 0x1000 cached.
        c.invalidate_range(0x1004, 8);
        assert!(c.peek(0x1004).is_none());
        assert!(c.peek(0x1008).is_none());
        assert!(c.peek(0x1000).is_some());
        assert_eq!(c.stats().invalidations, 2);
    }

    #[test]
    fn unaligned_store_invalidates_the_containing_word() {
        let mut c = PredecodeCache::with_entries(16);
        let i = addq();
        c.install(0x1000, encode(&i).0, i);
        c.invalidate_range(0x1003, 1);
        assert!(c.peek(0x1000).is_none());
    }

    #[test]
    fn bulk_write_wipes_everything() {
        let mut c = PredecodeCache::with_entries(16);
        let i = addq();
        c.install(0x1000, encode(&i).0, i);
        c.install(0x2004, encode(&i).0, i);
        c.invalidate_range(0, 1 << 20);
        assert!(c.peek(0x1000).is_none());
        assert!(c.peek(0x2004).is_none());
        assert_eq!(c.stats().invalidations, 2);
    }

    #[test]
    fn clear_resets_entries_and_counters() {
        let mut c = PredecodeCache::with_entries(16);
        let i = addq();
        c.install(0x1000, encode(&i).0, i);
        c.lookup(0x1000);
        c.clear();
        assert!(c.peek(0x1000).is_none());
        assert_eq!(c.stats(), PredecodeStats::default());
    }

    #[test]
    fn cached_raw_word_round_trips_through_decode() {
        let mut c = PredecodeCache::default();
        let i = addq();
        let raw = encode(&i).0;
        c.install(0x3000, raw, i);
        let (cached_raw, cached) = c.lookup(0x3000).unwrap();
        assert_eq!(decode(RawInstr(cached_raw)).unwrap(), cached);
    }

    #[test]
    fn hit_ratio_is_well_defined() {
        assert_eq!(PredecodeStats::default().hit_ratio(), 0.0);
        let s = PredecodeStats { hits: 3, misses: 1, invalidations: 0 };
        assert_eq!(s.hit_ratio(), 0.75);
        assert_eq!(s.accesses(), 4);
    }
}
