//! Physical memory backing store — a paged, copy-on-write page table.
//!
//! Guest memory is carved into 4 KiB pages, each behind an [`Arc`]. Cloning
//! a [`PhysMem`] therefore copies only the page *table* (one `Arc` bump per
//! page), and a clone's writes copy just the pages they dirty
//! ([`Arc::make_mut`]) — fork-style semantics, which is what makes
//! checkpoint fan-out O(dirty pages) instead of O(memory size): thousands
//! of experiments can restore from one shared snapshot and each pays only
//! for the working set it actually touches. Untouched memory additionally
//! shares one process-wide zero page, so a freshly allocated guest costs a
//! page table, not an image.
//!
//! The paging is invisible to the architecture: all accesses are
//! bounds-checked against the configured size (*not* the page-rounded
//! size), so touching an address outside it raises [`Trap::UnmappedAccess`]
//! exactly as the flat implementation did — corrupted base registers and
//! displacements still become the paper's segmentation-fault crashes.
//! Multi-byte accesses require natural alignment, which also guarantees a
//! `u32`/`u64` access never straddles a page; only the bulk slice
//! operations walk page boundaries.

use gemfi_isa::Trap;
use std::sync::{Arc, OnceLock};

/// Page size in bytes. 4 KiB balances snapshot granularity (copy cost per
/// dirtied page) against page-table size (entries per GiB).
pub const PAGE_SIZE: usize = 4096;
const PAGE_SHIFT: u32 = PAGE_SIZE.trailing_zeros();

/// One page of guest memory.
#[derive(Clone, PartialEq, Eq)]
struct Page([u8; PAGE_SIZE]);

impl Page {
    fn zeroed() -> Page {
        Page([0; PAGE_SIZE])
    }
}

/// The process-wide shared all-zeros page backing untouched memory.
fn zero_page() -> &'static Arc<Page> {
    static ZERO: OnceLock<Arc<Page>> = OnceLock::new();
    ZERO.get_or_init(|| Arc::new(Page::zeroed()))
}

/// Byte-addressable guest physical memory (paged, copy-on-write).
///
/// `clone()` is O(page-table) — the snapshot operation behind cheap
/// checkpoint restores and forks.
#[derive(Clone)]
pub struct PhysMem {
    pages: Vec<Arc<Page>>,
    size: u64,
}

impl PhysMem {
    /// Allocates `size` bytes of zeroed memory (O(page-table): every page
    /// starts as the shared zero page).
    pub fn new(size: usize) -> PhysMem {
        let pages = size.div_ceil(PAGE_SIZE);
        PhysMem { pages: vec![Arc::clone(zero_page()); pages], size: size as u64 }
    }

    /// Memory size in bytes.
    pub fn size(&self) -> u64 {
        self.size
    }

    /// Pages this instance owns privately (dirtied relative to the shared
    /// zero page and any snapshot siblings). Diagnostic only.
    pub fn owned_pages(&self) -> usize {
        self.pages
            .iter()
            .filter(|p| !Arc::ptr_eq(p, zero_page()) && Arc::strong_count(p) == 1)
            .count()
    }

    /// Total pages in the page table.
    pub fn total_pages(&self) -> usize {
        self.pages.len()
    }

    /// Pages whose frames this instance shares with `other` (the same `Arc`
    /// at the same page index). This is the fork-at-injection footprint
    /// question — how much of a forked suffix's memory is still the trunk's
    /// — so pristine zero pages count too: sharing is sharing, whatever the
    /// frame holds. Diagnostic only, like [`PhysMem::owned_pages`].
    pub fn shared_pages_with(&self, other: &PhysMem) -> usize {
        self.pages.iter().zip(&other.pages).filter(|(a, b)| Arc::ptr_eq(a, b)).count()
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

    #[inline]
    fn page_mut(&mut self, pi: usize) -> &mut [u8; PAGE_SIZE] {
        &mut Arc::make_mut(&mut self.pages[pi]).0
    }

    /// Reads one byte.
    ///
    /// # Errors
    ///
    /// [`Trap::UnmappedAccess`] when out of bounds.
    pub fn read_u8(&self, addr: u64, pc: u64) -> Result<u8, Trap> {
        let (pi, off) = Self::locate(self.check(addr, 1, pc)?);
        Ok(self.pages[pi].0[off])
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
        Ok(u32::from_le_bytes(self.pages[pi].0[off..off + 4].try_into().unwrap()))
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
        Ok(u64::from_le_bytes(self.pages[pi].0[off..off + 8].try_into().unwrap()))
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
    /// boundaries. Zero chunks aimed at still-pristine (shared-zero) pages
    /// are skipped without dirtying them, so bulk-loading a sparse image —
    /// the checkpoint decode path — materializes only its nonzero pages.
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
            let pristine = Arc::ptr_eq(&self.pages[pi], zero_page());
            if !(pristine && chunk.iter().all(|&b| b == 0)) {
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
            out.extend_from_slice(&self.pages[pi].0[off..off + n]);
            pi += 1;
            off = 0;
        }
        Ok(out)
    }
}

impl PartialEq for PhysMem {
    /// Logical byte equality (page sharing is a representation detail, not
    /// state).
    fn eq(&self, other: &PhysMem) -> bool {
        self.size == other.size
            && self.pages.iter().zip(&other.pages).all(|(a, b)| Arc::ptr_eq(a, b) || a.0 == b.0)
    }
}

impl Eq for PhysMem {}

impl std::fmt::Debug for PhysMem {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("PhysMem")
            .field("size", &self.size)
            .field("pages", &self.pages.len())
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
        assert_eq!(m.owned_pages(), 0, "untouched memory shares the zero page");
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
