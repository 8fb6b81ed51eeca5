//! Seeded lockstep property test: the paged copy-on-write [`PhysMem`] must
//! be observationally identical to a flat `Vec<u8>` store — same bytes,
//! same traps, same serialized image — across thousands of mixed
//! operations, snapshots, and snapshot mutations.
//!
//! The flat reference model here reimplements the pre-paging semantics
//! independently (bounds checked against the true size, natural alignment,
//! little-endian words), so a divergence means the paged store changed
//! guest-visible behavior, not that the test drifted with it.

use gemfi_isa::codec::ByteWriter;
use gemfi_isa::Trap;
use gemfi_mem::{encode_image, PhysMem, PAGE_SIZE};

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

fn run_lockstep(seed: u64) {
    // A non-page-multiple size: the last page is partially mapped, so the
    // "bounds are the true size" rule is under test throughout.
    const SIZE: usize = 4 * PAGE_SIZE + 100;
    let mut rng = SplitMix64(seed);
    let mut paged = PhysMem::new(SIZE);
    let mut flat = FlatRef::new(SIZE);
    // Live snapshots: (paged clone, flat clone, op index at capture).
    let mut snaps: Vec<(PhysMem, FlatRef, usize)> = Vec::new();

    for op in 0..4_000 {
        match rng.below(100) {
            // Word traffic (the CPU's path) — dominant.
            0..=54 => {
                let width = [1u64, 4, 8][rng.below(3) as usize];
                let addr = pick_addr(&mut rng, SIZE as u64);
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
                let addr = pick_addr(&mut rng, SIZE as u64);
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
                    let addr = rng.below(SIZE as u64 - 8) & !7;
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
    for seed in [1, 2, 0xdead_beef, 0xcafe_f00d, 0x6765_6d66_6921] {
        run_lockstep(seed);
    }
}
