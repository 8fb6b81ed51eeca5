//! Physical memory backing store — a paged, copy-on-write page table.
//!
//! Guest memory is carved into 4 KiB pages, each behind an [`Arc`], and the
//! page table into leaves of `LEAF_PAGES` entries, each a copy-on-write
//! block (`crate::cow`). Cloning a [`PhysMem`] therefore copies one
//! handle per leaf, and a clone's writes copy just the leaves and pages
//! they dirty ([`Arc::make_mut`] for a page) — fork-style semantics, which
//! is what makes checkpoint fan-out O(dirty pages) instead of O(memory
//! size): thousands of experiments can restore from one shared snapshot
//! and each pays only for the working set it actually touches. A page
//! nothing has written yet is an empty table entry, and a leaf nothing has
//! written a cold one: reads of either see a `static` zero page, the first
//! write materializes it, and cloning, comparing or encoding it touches no
//! refcount and reads no frame. A freshly allocated guest costs a table of
//! cold leaves, not an image, and only the pages a machine touched cost
//! anything afterwards.
//!
//! The paging is invisible to the architecture: all accesses are
//! bounds-checked against the configured size (*not* the page-rounded
//! size), so touching an address outside it raises [`Trap::UnmappedAccess`]
//! exactly as the flat implementation did — corrupted base registers and
//! displacements still become the paper's segmentation-fault crashes.
//! Multi-byte accesses require natural alignment, which also guarantees a
//! `u32`/`u64` access never straddles a page; only the bulk slice
//! operations walk page boundaries.

use crate::cow::Block;
use gemfi_isa::Trap;
use std::sync::Arc;

/// Page size in bytes. 4 KiB balances snapshot granularity (copy cost per
/// dirtied page) against page-table size (entries per GiB).
pub const PAGE_SIZE: usize = 4096;
const PAGE_SHIFT: u32 = PAGE_SIZE.trailing_zeros();

/// Page-table entries per leaf: 512 entries of 8 bytes are 4 KiB, and 64 MiB
/// of guest memory is 32 leaves.
const LEAF_PAGES: usize = 512;
const LEAF_SHIFT: u32 = LEAF_PAGES.trailing_zeros();

/// One page of guest memory.
#[derive(Clone, PartialEq, Eq)]
struct Page([u8; PAGE_SIZE]);

/// What every untouched page reads as.
static ZERO_PAGE: Page = Page([0; PAGE_SIZE]);

/// Byte-addressable guest physical memory (paged, copy-on-write).
///
/// `clone()` is O(leaves) — the snapshot operation behind cheap checkpoint
/// restores and forks.
pub struct PhysMem {
    /// The page table's leaves; a `None` entry is a page nothing has
    /// written, and a cold leaf holds only such pages: they read as
    /// [`ZERO_PAGE`].
    leaves: Vec<Block<Option<Arc<Page>>>>,
    /// Page-table entries over all leaves.
    pages: usize,
    size: u64,
}

impl PhysMem {
    /// Allocates `size` bytes of zeroed memory (O(leaves): every page
    /// starts untouched).
    pub fn new(size: usize) -> PhysMem {
        let pages = size.div_ceil(PAGE_SIZE);
        let leaves = (0..pages.div_ceil(LEAF_PAGES)).map(|_| Block::Cold).collect();
        PhysMem { leaves, pages, size: size as u64 }
    }

    /// Every page-table entry in page order (`None` for an untouched page).
    fn entries(&self) -> impl Iterator<Item = Option<&Arc<Page>>> + '_ {
        self.leaves.iter().enumerate().flat_map(move |(li, leaf)| {
            let len = self.leaf_len(li);
            (0..len).map(move |i| leaf.get().and_then(|entries| entries[i].as_ref()))
        })
    }

    /// Entries in leaf `li`: [`LEAF_PAGES`], fewer in a last partial leaf.
    #[inline]
    fn leaf_len(&self, li: usize) -> usize {
        (self.pages - (li << LEAF_SHIFT)).min(LEAF_PAGES)
    }

    /// Memory size in bytes.
    pub fn size(&self) -> u64 {
        self.size
    }

    /// Pages this instance owns privately (written, and not shared with
    /// any snapshot sibling). Diagnostic only.
    pub fn owned_pages(&self) -> usize {
        self.leaves
            .iter()
            .filter(|leaf| leaf.is_sole())
            .filter_map(Block::get)
            .flatten()
            .flatten()
            .filter(|p| Arc::strong_count(p) == 1)
            .count()
    }

    /// Total pages in the page table.
    pub fn total_pages(&self) -> usize {
        self.pages
    }

    /// Pages whose frames this instance shares with `other` (the same `Arc`
    /// at the same page index, or untouched in both). This is the
    /// station footprint question — how much of a fork's memory is still
    /// the station's — so untouched zero pages count too:
    /// sharing is sharing, whatever the frame holds. Diagnostic only, like
    /// [`PhysMem::owned_pages`].
    pub fn shared_pages_with(&self, other: &PhysMem) -> usize {
        self.entries()
            .zip(other.entries())
            .filter(|(a, b)| match (a, b) {
                (None, None) => true,
                (Some(a), Some(b)) => Arc::ptr_eq(a, b),
                _ => false,
            })
            .count()
    }

    /// Bytes this memory holds that `base` does not share: its leaf table,
    /// every leaf whose storage differs from `base`'s, and every page frame
    /// that is not `base`'s frame at the same index.
    pub(crate) fn unshared_bytes(&self, base: &PhysMem) -> usize {
        let table = std::mem::size_of_val(&self.leaves[..]);
        let leaves = self.leaves.iter().enumerate().map(|(li, leaf)| {
            let theirs = base.leaves.get(li);
            if theirs.is_some_and(|b| leaf.shares_storage_with(b)) {
                return 0;
            }
            let frames = leaf.get().map_or(0, |entries| {
                let base_entries = theirs.and_then(Block::get);
                let shared = |i: usize, page: &Arc<Page>| {
                    base_entries
                        .and_then(|b| b.get(i)?.as_ref())
                        .is_some_and(|b| Arc::ptr_eq(b, page))
                };
                let frame = |(i, page): (usize, &Option<Arc<Page>>)| {
                    page.as_ref().filter(|page| !shared(i, page)).map_or(0, |_| PAGE_SIZE)
                };
                entries.iter().enumerate().map(frame).sum()
            });
            leaf.bytes() + frames
        });
        table + leaves.sum::<usize>()
    }

    /// The pages in address order, each cut to the configured size: `None`
    /// for an untouched page, which holds only zeros. The checkpoint
    /// encoder walks this instead of reading the whole extent.
    pub(crate) fn page_slices(&self) -> impl Iterator<Item = (usize, Option<&[u8]>)> + '_ {
        let size = self.size as usize;
        self.entries().enumerate().map(move |(pi, page)| {
            let len = (size - pi * PAGE_SIZE).min(PAGE_SIZE);
            (len, page.map(|p| &p.0[..len]))
        })
    }

    fn check(&self, addr: u64, width: u64, pc: u64) -> Result<usize, Trap> {
        if !addr.is_multiple_of(width) {
            return Err(Trap::MisalignedAccess { addr, pc });
        }
        if addr.checked_add(width).is_none_or(|end| end > self.size) {
            return Err(Trap::UnmappedAccess { addr, pc });
        }
        Ok(addr as usize)
    }

    /// Splits a checked address into page index and offset. Natural
    /// alignment means a width-≤-`PAGE_SIZE` access at an aligned address
    /// stays inside one page.
    #[inline]
    fn locate(i: usize) -> (usize, usize) {
        (i >> PAGE_SHIFT, i & (PAGE_SIZE - 1))
    }

    /// The table entry of page `pi`; `None` for an untouched page.
    #[inline]
    fn entry(&self, pi: usize) -> Option<&Arc<Page>> {
        self.leaves[pi >> LEAF_SHIFT].get()?[pi & (LEAF_PAGES - 1)].as_ref()
    }

    #[inline]
    fn page(&self, pi: usize) -> &[u8; PAGE_SIZE] {
        &self.entry(pi).map_or(&ZERO_PAGE, |p| p).0
    }

    /// The page for writing: an untouched page materializes, a shared one
    /// is copied, and so is a shared leaf on the way to it.
    #[inline]
    fn page_mut(&mut self, pi: usize) -> &mut [u8; PAGE_SIZE] {
        let li = pi >> LEAF_SHIFT;
        let len = self.leaf_len(li);
        let entry = &mut self.leaves[li].get_mut(len)[pi & (LEAF_PAGES - 1)];
        let page = entry.get_or_insert_with(|| Arc::new(ZERO_PAGE.clone()));
        &mut Arc::make_mut(page).0
    }

    /// Reads one byte.
    ///
    /// # Errors
    ///
    /// [`Trap::UnmappedAccess`] when out of bounds.
    pub fn read_u8(&self, addr: u64, pc: u64) -> Result<u8, Trap> {
        let (pi, off) = Self::locate(self.check(addr, 1, pc)?);
        Ok(self.page(pi)[off])
    }

    /// Writes one byte.
    ///
    /// # Errors
    ///
    /// [`Trap::UnmappedAccess`] when out of bounds.
    pub fn write_u8(&mut self, addr: u64, value: u8, pc: u64) -> Result<(), Trap> {
        let (pi, off) = Self::locate(self.check(addr, 1, pc)?);
        self.page_mut(pi)[off] = value;
        Ok(())
    }

    /// Reads a little-endian 32-bit word.
    ///
    /// # Errors
    ///
    /// [`Trap::UnmappedAccess`] / [`Trap::MisalignedAccess`].
    pub fn read_u32(&self, addr: u64, pc: u64) -> Result<u32, Trap> {
        let (pi, off) = Self::locate(self.check(addr, 4, pc)?);
        // Infallible: check() proved the aligned 4-byte window is in bounds,
        // so the slice is exactly 4 bytes and never crosses a page.
        #[allow(clippy::unwrap_used)]
        Ok(u32::from_le_bytes(self.page(pi)[off..off + 4].try_into().unwrap()))
    }

    /// Writes a little-endian 32-bit word.
    ///
    /// # Errors
    ///
    /// [`Trap::UnmappedAccess`] / [`Trap::MisalignedAccess`].
    pub fn write_u32(&mut self, addr: u64, value: u32, pc: u64) -> Result<(), Trap> {
        let (pi, off) = Self::locate(self.check(addr, 4, pc)?);
        self.page_mut(pi)[off..off + 4].copy_from_slice(&value.to_le_bytes());
        Ok(())
    }

    /// Reads a little-endian 64-bit word.
    ///
    /// # Errors
    ///
    /// [`Trap::UnmappedAccess`] / [`Trap::MisalignedAccess`].
    pub fn read_u64(&self, addr: u64, pc: u64) -> Result<u64, Trap> {
        let (pi, off) = Self::locate(self.check(addr, 8, pc)?);
        // Infallible: check() proved the aligned 8-byte window is in bounds,
        // so the slice is exactly 8 bytes and never crosses a page.
        #[allow(clippy::unwrap_used)]
        Ok(u64::from_le_bytes(self.page(pi)[off..off + 8].try_into().unwrap()))
    }

    /// Writes a little-endian 64-bit word.
    ///
    /// # Errors
    ///
    /// [`Trap::UnmappedAccess`] / [`Trap::MisalignedAccess`].
    pub fn write_u64(&mut self, addr: u64, value: u64, pc: u64) -> Result<(), Trap> {
        let (pi, off) = Self::locate(self.check(addr, 8, pc)?);
        self.page_mut(pi)[off..off + 8].copy_from_slice(&value.to_le_bytes());
        Ok(())
    }

    fn check_range(&self, addr: u64, len: usize) -> Result<(), Trap> {
        if addr.checked_add(len as u64).is_none_or(|end| end > self.size) {
            return Err(Trap::UnmappedAccess { addr, pc: 0 });
        }
        Ok(())
    }

    /// Copies a byte slice into memory (host-side loader use), walking page
    /// boundaries. Zero chunks aimed at still-untouched pages are skipped
    /// without materializing them, so bulk-loading a sparse image — the
    /// checkpoint decode path — materializes only its nonzero pages.
    ///
    /// # Errors
    ///
    /// [`Trap::UnmappedAccess`] when the range does not fit.
    pub fn write_slice(&mut self, addr: u64, data: &[u8]) -> Result<(), Trap> {
        self.check_range(addr, data.len())?;
        let (mut pi, mut off) = Self::locate(addr as usize);
        let mut data = data;
        while !data.is_empty() {
            let n = data.len().min(PAGE_SIZE - off);
            let (chunk, rest) = data.split_at(n);
            if !(self.entry(pi).is_none() && chunk.iter().all(|&b| b == 0)) {
                self.page_mut(pi)[off..off + n].copy_from_slice(chunk);
            }
            data = rest;
            pi += 1;
            off = 0;
        }
        Ok(())
    }

    /// Reads a byte range out of memory (host-side extraction use). The
    /// range may cross page boundaries, so the bytes are materialized into
    /// an owned buffer.
    ///
    /// # Errors
    ///
    /// [`Trap::UnmappedAccess`] when the range does not fit.
    pub fn read_slice(&self, addr: u64, len: usize) -> Result<Vec<u8>, Trap> {
        self.check_range(addr, len)?;
        let mut out = Vec::with_capacity(len);
        let (mut pi, mut off) = Self::locate(addr as usize);
        while out.len() < len {
            let n = (len - out.len()).min(PAGE_SIZE - off);
            out.extend_from_slice(&self.page(pi)[off..off + n]);
            pi += 1;
            off = 0;
        }
        Ok(out)
    }
}

impl Clone for PhysMem {
    /// Shares every leaf with the clone (a leaf this memory wrote since it
    /// was last cloned is copied once, into shared storage).
    fn clone(&self) -> PhysMem {
        PhysMem {
            leaves: self.leaves.iter().map(Block::share).collect(),
            pages: self.pages,
            size: self.size,
        }
    }
}

impl PartialEq for PhysMem {
    /// Logical byte equality (page sharing is a representation detail, not
    /// state).
    fn eq(&self, other: &PhysMem) -> bool {
        self.size == other.size
            && self.entries().zip(other.entries()).all(|(a, b)| match (a, b) {
                (Some(a), Some(b)) => Arc::ptr_eq(a, b) || a.0 == b.0,
                (Some(p), None) | (None, Some(p)) => p.0 == ZERO_PAGE.0,
                (None, None) => true,
            })
    }
}

impl Eq for PhysMem {}

impl std::fmt::Debug for PhysMem {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("PhysMem")
            .field("size", &self.size)
            .field("pages", &self.pages)
            .field("owned_pages", &self.owned_pages())
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn rw_roundtrip_all_widths() {
        let mut m = PhysMem::new(4096);
        m.write_u8(1, 0xab, 0).unwrap();
        assert_eq!(m.read_u8(1, 0).unwrap(), 0xab);
        m.write_u32(4, 0xdead_beef, 0).unwrap();
        assert_eq!(m.read_u32(4, 0).unwrap(), 0xdead_beef);
        m.write_u64(8, u64::MAX - 1, 0).unwrap();
        assert_eq!(m.read_u64(8, 0).unwrap(), u64::MAX - 1);
    }

    #[test]
    fn little_endian_layout() {
        let mut m = PhysMem::new(64);
        m.write_u64(0, 0x0102_0304_0506_0708, 0).unwrap();
        assert_eq!(m.read_u8(0, 0).unwrap(), 0x08);
        assert_eq!(m.read_u8(7, 0).unwrap(), 0x01);
        assert_eq!(m.read_u32(0, 0).unwrap(), 0x0506_0708);
    }

    #[test]
    fn out_of_bounds_traps_unmapped() {
        let mut m = PhysMem::new(16);
        assert!(matches!(m.read_u64(16, 5), Err(Trap::UnmappedAccess { addr: 16, pc: 5 })));
        assert!(matches!(m.write_u32(16, 0, 0), Err(Trap::UnmappedAccess { .. })));
        assert!(matches!(m.read_u8(u64::MAX, 0), Err(Trap::UnmappedAccess { .. })));
    }

    #[test]
    fn bounds_are_the_true_size_not_the_page_rounding() {
        // 16 bytes occupy one 4 KiB page, but byte 16 is still unmapped.
        let mut m = PhysMem::new(16);
        assert_eq!(m.total_pages(), 1);
        assert!(m.write_u8(15, 1, 0).is_ok());
        assert!(matches!(m.write_u8(16, 1, 0), Err(Trap::UnmappedAccess { addr: 16, .. })));
        assert!(matches!(m.read_slice(10, 7), Err(Trap::UnmappedAccess { .. })));
    }

    #[test]
    fn misalignment_traps() {
        let m = PhysMem::new(64);
        assert!(matches!(m.read_u64(4, 0), Err(Trap::MisalignedAccess { addr: 4, .. })));
        assert!(matches!(m.read_u32(2, 0), Err(Trap::MisalignedAccess { .. })));
    }

    #[test]
    fn slice_io() {
        let mut m = PhysMem::new(64);
        m.write_slice(10, &[1, 2, 3]).unwrap();
        assert_eq!(m.read_slice(10, 3).unwrap(), &[1, 2, 3]);
        assert!(m.write_slice(62, &[0; 4]).is_err());
        assert!(m.read_slice(62, 4).is_err());
    }

    #[test]
    fn slice_io_across_page_boundaries() {
        let mut m = PhysMem::new(4 * PAGE_SIZE);
        let data: Vec<u8> = (0..2 * PAGE_SIZE + 100).map(|i| (i % 251) as u8).collect();
        m.write_slice(PAGE_SIZE as u64 - 50, &data).unwrap();
        assert_eq!(m.read_slice(PAGE_SIZE as u64 - 50, data.len()).unwrap(), data);
        // Word accesses around the boundary still see the slice's bytes.
        assert_eq!(m.read_u8(PAGE_SIZE as u64, 0).unwrap(), data[50]);
    }

    #[test]
    fn fresh_memory_owns_no_pages() {
        let m = PhysMem::new(1 << 20);
        assert_eq!(m.owned_pages(), 0, "untouched memory owns no frame");
        assert!(m.read_slice(0, 1 << 20).unwrap().iter().all(|&b| b == 0));
    }

    #[test]
    fn clone_is_shared_until_written() {
        let mut a = PhysMem::new(8 * PAGE_SIZE);
        a.write_u64(0, 7, 0).unwrap();
        a.write_u64(4 * PAGE_SIZE as u64, 9, 0).unwrap();
        let mut b = a.clone();
        assert_eq!(a.owned_pages(), 0, "snapshot shares every page");
        assert_eq!(b.owned_pages(), 0);
        // Writing through the clone dirties exactly one page of it …
        b.write_u64(0, 100, 0).unwrap();
        assert_eq!(b.owned_pages(), 1);
        assert_eq!(a.owned_pages(), 1, "… and leaves the original sole owner of its twin");
        // … and the original still sees its own data.
        assert_eq!(a.read_u64(0, 0).unwrap(), 7);
        assert_eq!(b.read_u64(0, 0).unwrap(), 100);
        assert_eq!(b.read_u64(4 * PAGE_SIZE as u64, 0).unwrap(), 9);
        assert_eq!(a, a.clone());
        assert_ne!(a, b);
    }

    #[test]
    fn shared_pages_shrink_as_a_fork_dirties_its_suffix() {
        let mut a = PhysMem::new(8 * PAGE_SIZE);
        a.write_u64(0, 7, 0).unwrap();
        let mut b = a.clone();
        assert_eq!(a.shared_pages_with(&b), 8, "a fresh fork shares its whole table");
        b.write_u64(0, 1, 0).unwrap();
        b.write_u64(3 * PAGE_SIZE as u64, 2, 0).unwrap();
        assert_eq!(a.shared_pages_with(&b), 6, "each dirtied page leaves the shared set");
        assert_eq!(b.shared_pages_with(&a), 6, "the count is symmetric");
        // Two unrelated allocations still share their pristine zero pages.
        let c = PhysMem::new(8 * PAGE_SIZE);
        let d = PhysMem::new(8 * PAGE_SIZE);
        assert_eq!(c.shared_pages_with(&d), 8);
    }

    #[test]
    fn a_page_written_back_to_zero_equals_an_untouched_one() {
        let fresh = PhysMem::new(2 * PAGE_SIZE);
        let mut m = fresh.clone();
        m.write_u64(PAGE_SIZE as u64, 5, 0).unwrap();
        assert_ne!(m, fresh);
        m.write_u64(PAGE_SIZE as u64, 0, 0).unwrap();
        assert_eq!(m.owned_pages(), 1, "the page stays materialized");
        assert_eq!(m, fresh, "equality is logical");
        assert_eq!(fresh, m);
        assert_eq!(m.shared_pages_with(&fresh), 1, "only the untouched page is shared");
    }

    #[test]
    fn zero_writes_to_pristine_pages_stay_shared() {
        let mut m = PhysMem::new(4 * PAGE_SIZE);
        m.write_slice(0, &vec![0u8; 3 * PAGE_SIZE]).unwrap();
        assert_eq!(m.owned_pages(), 0, "all-zero bulk writes must not materialize pages");
        let mut data = vec![0u8; 2 * PAGE_SIZE];
        data[PAGE_SIZE + 7] = 3;
        m.write_slice(0, &data).unwrap();
        assert_eq!(m.owned_pages(), 1, "only the page with a nonzero byte materializes");
        assert_eq!(m.read_u8(PAGE_SIZE as u64 + 7, 0).unwrap(), 3);
    }
}
