//! Seeded lockstep property tests. The paged copy-on-write [`PhysMem`]
//! must be observationally identical to a flat `Vec<u8>` store — same
//! bytes, same traps, same serialized image — across thousands of mixed
//! operations, snapshots, and snapshot mutations, within one page-table
//! leaf and across several. A second property holds the page-walking
//! checkpoint codec of [`MemorySystem`] to the flat image codec: same
//! bytes out, same memory back. A third holds a [`Cache`], whose line
//! array is shared copy-on-write in chunks, and its clones to a flat
//! deep-copied reference cache: same hits, fill ways, writebacks and
//! statistics, and no clone's accesses ever showing in another.
//!
//! The flat reference models here reimplement the pre-paging and
//! pre-chunking semantics independently (bounds checked against the true
//! size, natural alignment, little-endian words; one LRU stamp per line),
//! so a divergence means the shared store changed guest-visible or timing
//! behavior, not that the test drifted with it.

use gemfi_isa::codec::{ByteReader, ByteWriter, Codec};
use gemfi_isa::Trap;
use gemfi_mem::{
    decode_image, encode_image, Cache, CacheConfig, CacheStats, MemConfig, MemorySystem, PhysMem,
    PAGE_SIZE,
};

/// SplitMix64 — the workspace is offline, so the test carries its own
/// tiny deterministic generator (same algorithm the campaign crate uses).
struct SplitMix64(u64);

impl SplitMix64 {
    fn next(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^ (z >> 31)
    }

    fn below(&mut self, bound: u64) -> u64 {
        self.next() % bound
    }
}

/// The flat reference: the old `Vec<u8>`-backed implementation's semantics,
/// restated from scratch.
#[derive(Clone, PartialEq)]
struct FlatRef {
    bytes: Vec<u8>,
}

impl FlatRef {
    fn new(size: usize) -> FlatRef {
        FlatRef { bytes: vec![0; size] }
    }

    fn check(&self, addr: u64, width: u64, pc: u64) -> Result<usize, Trap> {
        if !addr.is_multiple_of(width) {
            return Err(Trap::MisalignedAccess { addr, pc });
        }
        match addr.checked_add(width) {
            Some(end) if end <= self.bytes.len() as u64 => Ok(addr as usize),
            _ => Err(Trap::UnmappedAccess { addr, pc }),
        }
    }

    fn read(&self, addr: u64, width: u64, pc: u64) -> Result<u64, Trap> {
        let i = self.check(addr, width, pc)?;
        let mut le = [0u8; 8];
        le[..width as usize].copy_from_slice(&self.bytes[i..i + width as usize]);
        Ok(u64::from_le_bytes(le))
    }

    fn write(&mut self, addr: u64, width: u64, value: u64, pc: u64) -> Result<(), Trap> {
        let i = self.check(addr, width, pc)?;
        self.bytes[i..i + width as usize].copy_from_slice(&value.to_le_bytes()[..width as usize]);
        Ok(())
    }

    fn check_range(&self, addr: u64, len: usize) -> Result<usize, Trap> {
        match addr.checked_add(len as u64) {
            Some(end) if end <= self.bytes.len() as u64 => Ok(addr as usize),
            _ => Err(Trap::UnmappedAccess { addr, pc: 0 }),
        }
    }

    fn read_slice(&self, addr: u64, len: usize) -> Result<Vec<u8>, Trap> {
        let i = self.check_range(addr, len)?;
        Ok(self.bytes[i..i + len].to_vec())
    }

    fn write_slice(&mut self, addr: u64, data: &[u8]) -> Result<(), Trap> {
        let i = self.check_range(addr, data.len())?;
        self.bytes[i..i + data.len()].copy_from_slice(data);
        Ok(())
    }
}

/// Reads by width, dispatching to the paged store's typed accessors.
fn paged_read(m: &PhysMem, addr: u64, width: u64, pc: u64) -> Result<u64, Trap> {
    match width {
        1 => m.read_u8(addr, pc).map(u64::from),
        4 => m.read_u32(addr, pc).map(u64::from),
        _ => m.read_u64(addr, pc),
    }
}

fn paged_write(m: &mut PhysMem, addr: u64, width: u64, value: u64, pc: u64) -> Result<(), Trap> {
    match width {
        1 => m.write_u8(addr, value as u8, pc),
        4 => m.write_u32(addr, value as u32, pc),
        _ => m.write_u64(addr, value, pc),
    }
}

fn serialized_image(bytes: &[u8]) -> Vec<u8> {
    let mut w = ByteWriter::new();
    encode_image(bytes, &mut w);
    w.into_bytes()
}

fn assert_identical(paged: &PhysMem, flat: &FlatRef, context: &str) {
    let bytes = paged.read_slice(0, paged.size() as usize).unwrap();
    assert_eq!(bytes, flat.bytes, "byte divergence: {context}");
    assert_eq!(
        serialized_image(&bytes),
        serialized_image(&flat.bytes),
        "serialized image divergence: {context}"
    );
}

/// Addresses are drawn to land in-bounds, near page boundaries, misaligned,
/// and past the end, so every trap edge gets exercised.
fn pick_addr(rng: &mut SplitMix64, size: u64) -> u64 {
    match rng.below(8) {
        // Past-the-end and far out of range.
        0 => size + rng.below(64),
        1 => u64::MAX - rng.below(16),
        // Hugging a page boundary (straddles for slices, aligns for words).
        2 | 3 => {
            let page = rng.below(size.div_ceil(PAGE_SIZE as u64) + 1);
            (page * PAGE_SIZE as u64).saturating_add(rng.below(32)).saturating_sub(16)
        }
        // Anywhere (any alignment).
        _ => rng.below(size),
    }
}

fn run_lockstep(seed: u64, size: usize, ops: usize) {
    let mut rng = SplitMix64(seed);
    let mut paged = PhysMem::new(size);
    let mut flat = FlatRef::new(size);
    // Live snapshots: (paged clone, flat clone, op index at capture).
    let mut snaps: Vec<(PhysMem, FlatRef, usize)> = Vec::new();

    for op in 0..ops {
        match rng.below(100) {
            // Word traffic (the CPU's path) — dominant.
            0..=54 => {
                let width = [1u64, 4, 8][rng.below(3) as usize];
                let addr = pick_addr(&mut rng, size as u64);
                let pc = rng.below(1 << 20);
                if rng.below(2) == 0 {
                    let value = rng.next();
                    assert_eq!(
                        paged_write(&mut paged, addr, width, value, pc),
                        flat.write(addr, width, value, pc),
                        "write w={width} addr={addr:#x} op={op}"
                    );
                } else {
                    assert_eq!(
                        paged_read(&paged, addr, width, pc),
                        flat.read(addr, width, pc),
                        "read w={width} addr={addr:#x} op={op}"
                    );
                }
            }
            // Bulk slices crossing page boundaries (loader/checkpoint path).
            55..=79 => {
                let addr = pick_addr(&mut rng, size as u64);
                let len = rng.below(2 * PAGE_SIZE as u64 + 7) as usize;
                if rng.below(2) == 0 {
                    // Mix all-zero chunks in to hit the pristine-page skip.
                    let data: Vec<u8> = if rng.below(4) == 0 {
                        vec![0; len]
                    } else {
                        (0..len).map(|_| rng.next() as u8).collect()
                    };
                    assert_eq!(
                        paged.write_slice(addr, &data),
                        flat.write_slice(addr, &data),
                        "write_slice addr={addr:#x} len={len} op={op}"
                    );
                } else {
                    assert_eq!(
                        paged.read_slice(addr, len),
                        flat.read_slice(addr, len),
                        "read_slice addr={addr:#x} len={len} op={op}"
                    );
                }
            }
            // Snapshot: clone both models.
            80..=89 => {
                if snaps.len() < 8 {
                    snaps.push((paged.clone(), flat.clone(), op));
                }
            }
            // Mutate a snapshot, or audit one against its flat twin. Writes
            // into old snapshots are exactly the checkpoint-fan-out pattern:
            // they must never bleed into the live store or other snapshots.
            _ => {
                if snaps.is_empty() {
                    continue;
                }
                let i = rng.below(snaps.len() as u64) as usize;
                if rng.below(2) == 0 {
                    let addr = rng.below(size as u64 - 8) & !7;
                    let value = rng.next();
                    let (sp, sf, _) = &mut snaps[i];
                    sp.write_u64(addr, value, 0).unwrap();
                    sf.write(addr, 8, value, 0).unwrap();
                } else {
                    let (sp, sf, at) = &snaps[i];
                    assert_identical(sp, sf, &format!("snapshot taken at op {at}, now op {op}"));
                }
            }
        }
    }

    assert_identical(&paged, &flat, "final state");
    for (sp, sf, at) in &snaps {
        assert_identical(sp, sf, &format!("snapshot taken at op {at}, at end"));
    }
}

#[test]
fn paged_cow_store_matches_flat_reference() {
    // A non-page-multiple size: the last page is partially mapped, so the
    // "bounds are the true size" rule is under test throughout.
    for seed in [1, 2, 0xdead_beef, 0xcafe_f00d, 0x6765_6d66_6921] {
        run_lockstep(seed, 4 * PAGE_SIZE + 100, 4_000);
    }
}

/// Page-table entries per leaf (the store's 4 KiB leaves of 8-byte
/// entries).
const LEAF_PAGES: usize = 512;

#[test]
fn paged_cow_store_matches_flat_reference_across_page_table_leaves() {
    // Two whole leaves and a third cut short, its last page partial:
    // writes, slices and snapshots cross leaf edges and copy leaves.
    for seed in [3, 0x1eaf] {
        run_lockstep(seed, (2 * LEAF_PAGES + 3) * PAGE_SIZE + 100, 600);
    }
}

/// The image codec's shortest zero-run record: runs one byte shorter are
/// stored inside literals.
const MIN_RUN: u64 = 32;
const PAGE: u64 = PAGE_SIZE as u64;

/// Writes one nonzero byte (the bytes that bound the zero runs below).
fn mark(m: &mut MemorySystem, addr: u64, rng: &mut SplitMix64) {
    m.write_slice(addr, &[1 + rng.below(255) as u8]).unwrap();
}

/// `MemorySystem::encode` walks pages and `MemorySystem::decode` streams
/// records into them; both must agree with the flat codec over the whole
/// extent.
fn assert_page_codec_matches_flat(m: &MemorySystem, context: &str) {
    let size = m.size() as usize;
    let image = m.read_slice(0, size).unwrap();
    let mut flat = ByteWriter::new();
    encode_image(&image, &mut flat);
    let flat = flat.into_bytes();
    // The configuration header comes first; a fresh memory of the same
    // configuration writes the same one.
    let bytes = m.to_bytes();
    let fresh = MemorySystem::new(*m.config()).to_bytes();
    let mut zeros = ByteWriter::new();
    encode_image(&vec![0; size], &mut zeros);
    let header = fresh.len() - zeros.len();
    assert_eq!(bytes[..header], fresh[..header], "header: {context}");
    assert_eq!(bytes[header..], flat[..], "image: {context}");

    let streamed = MemorySystem::from_bytes(&bytes).unwrap();
    let decoded = decode_image(&mut ByteReader::new(&flat)).unwrap();
    assert_eq!(decoded, image, "flat decode: {context}");
    let mut bulk = MemorySystem::new(*m.config());
    bulk.write_slice(0, &decoded).unwrap();
    assert_eq!(streamed, bulk, "streamed decode: {context}");
    assert_eq!(streamed.page_footprint(), bulk.page_footprint(), "pages: {context}");
    assert_eq!(streamed.read_slice(0, size).unwrap(), image, "bytes: {context}");
}

#[test]
fn page_walking_checkpoint_codec_matches_the_flat_image_codec() {
    let mut rng = SplitMix64(0x5eed_c0de);
    for case in 0..400 {
        // Most sizes are not a multiple of the page size: the last page is
        // cut short in the image.
        let size = match case % 4 {
            0 => 6 * PAGE,
            _ => 5 * PAGE + 1 + rng.below(PAGE - 1),
        };
        let config = MemConfig { phys_size: size as usize, ..MemConfig::default() };
        let mut m = MemorySystem::new(config);
        let mut ops = Vec::new();
        for _ in 0..rng.below(10) {
            let op = rng.below(6);
            ops.push(op);
            match op {
                // A zero run of MIN_RUN − 1, MIN_RUN or MIN_RUN + 1 bytes
                // straddling a page edge, bounded by nonzero bytes.
                0 => {
                    let edge = PAGE * (1 + rng.below(size / PAGE));
                    let run = MIN_RUN - 1 + rng.below(3);
                    let start = edge - 1 - rng.below(run - 1);
                    let end = start + run;
                    if start > 0 && end < size {
                        mark(&mut m, start - 1, &mut rng);
                        m.write_slice(start, &vec![0; run as usize]).unwrap();
                        mark(&mut m, end, &mut rng);
                    }
                }
                // A page dirtied and written back to zero: it is owned,
                // yet must encode like an untouched one.
                1 => {
                    let page = rng.below(size.div_ceil(PAGE));
                    let at = page * PAGE;
                    let len = (size - at).min(PAGE) as usize;
                    let junk: Vec<u8> = (0..len).map(|_| rng.next() as u8).collect();
                    m.write_slice(at, &junk).unwrap();
                    m.write_slice(at, &vec![0; len]).unwrap();
                }
                // A leading zero run just shorter than, equal to or longer
                // than a record.
                2 => mark(&mut m, MIN_RUN - 1 + rng.below(3), &mut rng),
                // The same at the end.
                3 => mark(&mut m, size - MIN_RUN - rng.below(3), &mut rng),
                // Nonzero bytes on both sides of the image's edges.
                4 => {
                    mark(&mut m, rng.below(2), &mut rng);
                    mark(&mut m, size - 1 - rng.below(2), &mut rng);
                }
                // A burst of bytes with short and long zero gaps.
                _ => {
                    let len = rng.below(2 * PAGE) as usize;
                    let at = rng.below(size - len as u64);
                    let data: Vec<u8> = (0..len)
                        .map(|_| if rng.below(3) == 0 { rng.next() as u8 } else { 0 })
                        .collect();
                    m.write_slice(at, &data).unwrap();
                }
            }
        }
        assert_page_codec_matches_flat(&m, &format!("case {case}, size {size}, ops {ops:?}"));
    }
}

/// One line of the flat reference cache.
#[derive(Clone, Copy, Default, PartialEq)]
struct RefLine {
    tag: u64,
    valid: bool,
    dirty: bool,
    lru: u64,
}

/// The flat reference cache: one `Vec` of lines, set-major, deep-copied
/// by `clone` — the pre-chunking array restated from scratch.
#[derive(Clone)]
struct RefCache {
    config: CacheConfig,
    lines: Vec<RefLine>,
    clock: u64,
    stats: CacheStats,
}

impl RefCache {
    fn new(config: CacheConfig) -> RefCache {
        let lines = config.size / config.line;
        RefCache {
            config,
            lines: vec![RefLine::default(); lines],
            clock: 0,
            stats: CacheStats::default(),
        }
    }

    /// `(hit, writeback, way)`, as [`Cache::access`] reports them.
    fn access(&mut self, addr: u64, write: bool) -> (bool, bool, u32) {
        self.clock += 1;
        let sets = self.config.sets() as u64;
        let block = addr / self.config.line as u64;
        let (set, tag) = ((block % sets) as usize, block / sets);
        let ways = &mut self.lines[set * self.config.ways..(set + 1) * self.config.ways];
        if let Some(way) = ways.iter().position(|l| l.valid && l.tag == tag) {
            ways[way].lru = self.clock;
            ways[way].dirty |= write;
            self.stats.hits += 1;
            return (true, false, way as u32);
        }
        self.stats.misses += 1;
        // The victim: an invalid way first (the lowest), else the least
        // recently used.
        let mut way = 0;
        for (w, l) in ways.iter().enumerate() {
            let key = |l: &RefLine| if l.valid { l.lru } else { 0 };
            if key(l) < key(&ways[way]) {
                way = w;
            }
        }
        let writeback = ways[way].valid && ways[way].dirty;
        self.stats.writebacks += u64::from(writeback);
        ways[way] = RefLine { tag, valid: true, dirty: write, lru: self.clock };
        (false, writeback, way as u32)
    }

    fn invalidate_all(&mut self) {
        self.lines.fill(RefLine::default());
    }

    fn reset_cold(&mut self) {
        self.invalidate_all();
        self.clock = 0;
        self.stats = CacheStats::default();
    }
}

fn cache_access(c: &mut Cache, addr: u64, write: bool) -> (bool, bool, u32) {
    let a = c.access(addr, write);
    (a.hit, a.writeback, a.way)
}

/// Proves a cache holds its reference's whole state, on throwaway clones
/// of both (a probe moves LRU stamps): every resident line hits in its
/// reference way (tags), then filling each set with fresh tags evicts in
/// the reference's order and writes back exactly its dirty lines (LRU
/// stamps and dirty bits).
fn assert_same_cache(cache: &Cache, reference: &RefCache, context: &str) {
    assert_eq!(cache.stats(), &reference.stats, "stats: {context}");
    let (mut c, mut r) = (cache.clone(), reference.clone());
    let config = reference.config;
    let resident: Vec<(usize, u64)> = (0..config.sets())
        .flat_map(|set| {
            let ways = &reference.lines[set * config.ways..(set + 1) * config.ways];
            ways.iter().filter(|l| l.valid).map(move |l| (set, l.tag)).collect::<Vec<_>>()
        })
        .collect();
    for (set, tag) in resident {
        let addr = c.line_addr(set as u64, tag);
        let got = cache_access(&mut c, addr, false);
        assert_eq!(got, r.access(addr, false), "resident line {addr:#x}: {context}");
        assert!(got.0, "resident line {addr:#x} misses: {context}");
    }
    for set in 0..config.sets() as u64 {
        for i in 0..config.ways as u64 {
            let addr = c.line_addr(set, 1 << 40 | i);
            assert_eq!(cache_access(&mut c, addr, false), r.access(addr, false), "{context}");
        }
    }
    assert_eq!(c.stats(), &r.stats, "probe stats: {context}");
}

/// Addresses over a footprint a few times the cache's, so hits, misses,
/// evictions and dirty writebacks all occur.
fn pick_line(rng: &mut SplitMix64, config: &CacheConfig) -> u64 {
    rng.below(3 * config.size as u64)
}

fn run_cache_lockstep(seed: u64, config: CacheConfig) {
    let mut rng = SplitMix64(seed);
    let mut live = Cache::new(config);
    let mut reference = RefCache::new(config);
    // Never cloned: the same accesses as `live`, with no sharing at all.
    let mut twin = Cache::new(config);
    // Live clones: (cache clone, reference clone, op index at capture).
    let mut snaps: Vec<(Cache, RefCache, usize)> = Vec::new();

    for op in 0..3_000 {
        match rng.below(100) {
            // Reads and writes: hits, fills, dirtying, evictions.
            0..=69 => {
                let (addr, write) = (pick_line(&mut rng, &config), rng.below(3) == 0);
                let got = cache_access(&mut live, addr, write);
                assert_eq!(got, reference.access(addr, write), "access {addr:#x} op={op}");
                assert_eq!(got, cache_access(&mut twin, addr, write), "twin op={op}");
            }
            70..=71 => {
                live.invalidate_all();
                reference.invalidate_all();
                twin.invalidate_all();
            }
            72 => {
                live.reset_cold();
                reference.reset_cold();
                twin.reset_cold();
            }
            73..=82 => {
                if snaps.len() < 8 {
                    snaps.push((live.clone(), reference.clone(), op));
                }
            }
            // Drive, reset or audit a clone: its accesses are exactly the
            // fork pattern and must never show in the live cache or in
            // another clone.
            _ => {
                if snaps.is_empty() {
                    continue;
                }
                let i = rng.below(snaps.len() as u64) as usize;
                let (sc, sr, at) = &mut snaps[i];
                match rng.below(4) {
                    0 | 1 => {
                        for _ in 0..rng.below(40) {
                            let (addr, write) = (pick_line(&mut rng, &config), rng.below(2) == 0);
                            let got = cache_access(sc, addr, write);
                            assert_eq!(got, sr.access(addr, write), "clone of op {at}, op={op}");
                        }
                    }
                    2 => {
                        sc.reset_cold();
                        sr.reset_cold();
                    }
                    _ => assert_same_cache(sc, sr, &format!("clone of op {at}, now op {op}")),
                }
            }
        }
        if op % 97 == 0 {
            assert_same_cache(&live, &reference, &format!("live at op {op}"));
            assert!(live == twin, "a shared cache equals its unshared twin at op {op}");
        }
    }
    assert_same_cache(&live, &reference, "live at end");
    assert!(live == twin, "a shared cache equals its unshared twin at end");
    for (sc, sr, at) in &snaps {
        assert_same_cache(sc, sr, &format!("clone of op {at}, at end"));
    }
}

#[test]
fn cow_cache_matches_a_deep_copied_reference() {
    let geometries = [
        // 64 sets of 2 ways: 32 sets a chunk, two chunks.
        CacheConfig { size: 64 * 2 * 16, ways: 2, line: 16, hit_latency: 1 },
        // 40 sets of 4 ways: not a power of two, so the last of the three
        // 16-set chunks is cut short and indexing divides.
        CacheConfig { size: 40 * 4 * 32, ways: 4, line: 32, hit_latency: 1 },
        // 3 sets of 128 ways: a set wider than a chunk is a chunk.
        CacheConfig { size: 3 * 128 * 16, ways: 128, line: 16, hit_latency: 1 },
        // The default L1 geometry: 256 sets of 2 ways, eight chunks.
        MemConfig::default().l1d,
    ];
    for (g, config) in geometries.into_iter().enumerate() {
        for seed in [1, 0xc0de] {
            run_cache_lockstep(seed ^ (g as u64) << 32, config);
        }
    }
}
