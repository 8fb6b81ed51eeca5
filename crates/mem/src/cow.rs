//! Copy-on-write blocks: the unit a memory system shares with its clones.
//!
//! A cache's line array and the page table are cut into [`Block`]s. Cloning
//! a block copies a handle, not the block, and the first write through
//! either copy makes that copy private. Who owns a block is plain state,
//! the variant: writing a private block costs no atomic operation, unlike
//! `Arc::make_mut`, which would put a compare-and-swap on every cache hit.
//! Becoming shared is decided at clone time instead: the clone gets a
//! shared copy of every private block of its parent (clone takes `&self`,
//! so the parent keeps its private blocks, which it alone still writes).

use std::sync::Arc;

/// One block of `E`s, shared copy-on-write between clones.
#[derive(Debug)]
pub(crate) enum Block<E> {
    /// Every element at its default, as a cold cache or an untouched leaf
    /// of the page table starts: no storage behind it and nothing to
    /// count, like the zero page.
    Cold,
    /// Written since the last clone: this instance's alone, written in
    /// place.
    Own(Box<[E]>),
    /// Possibly shared with clones: the first write copies it.
    Shared(Arc<[E]>),
}

impl<E: Clone + Default> Block<E> {
    /// The elements, `None` for a cold block.
    #[inline]
    pub(crate) fn get(&self) -> Option<&[E]> {
        match self {
            Block::Cold => None,
            Block::Own(elems) => Some(elems),
            Block::Shared(elems) => Some(elems),
        }
    }

    /// The elements for writing. A private block is returned as it is; a
    /// cold block materializes `len` elements and a shared one is copied
    /// first.
    #[inline]
    pub(crate) fn get_mut(&mut self, len: usize) -> &mut [E] {
        if !matches!(self, Block::Own(_)) {
            self.make_own(len);
        }
        match self {
            Block::Own(elems) => elems,
            _ => unreachable!("the block was just made private"),
        }
    }

    #[cold]
    fn make_own(&mut self, len: usize) {
        let elems = match self {
            Block::Shared(elems) => Box::from(&elems[..]),
            _ => vec![E::default(); len].into_boxed_slice(),
        };
        *self = Block::Own(elems);
    }

    /// The clone's copy of this block: a handle to the same storage. A
    /// private block is copied once into shared storage for the clone.
    pub(crate) fn share(&self) -> Block<E> {
        match self {
            Block::Cold => Block::Cold,
            Block::Own(elems) => Block::Shared(Arc::from(&elems[..])),
            Block::Shared(elems) => Block::Shared(Arc::clone(elems)),
        }
    }

    /// Whether this block and `other` are the same storage (or both cold),
    /// so neither pays for it over the other.
    pub(crate) fn shares_storage_with(&self, other: &Block<E>) -> bool {
        match (self, other) {
            (Block::Cold, Block::Cold) => true,
            (Block::Shared(a), Block::Shared(b)) => Arc::ptr_eq(a, b),
            _ => false,
        }
    }

    /// Whether this instance alone holds the block's storage: a private
    /// block, or a shared one whose clones have all been dropped.
    pub(crate) fn is_sole(&self) -> bool {
        match self {
            Block::Cold => false,
            Block::Own(_) => true,
            Block::Shared(elems) => Arc::strong_count(elems) == 1,
        }
    }

    /// Bytes of storage behind the block (none for a cold block).
    pub(crate) fn bytes(&self) -> usize {
        self.get().map_or(0, std::mem::size_of_val)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn a_clone_shares_until_either_side_writes() {
        let mut a: Block<u64> = Block::Cold;
        assert_eq!(a.get(), None);
        a.get_mut(4)[1] = 7;
        let mut b = a.share();
        assert!(matches!(a, Block::Own(_)), "the parent keeps writing in place");
        assert_eq!(b.get(), Some(&[0, 7, 0, 0][..]));
        let c = b.share();
        assert!(b.shares_storage_with(&c) && !b.is_sole());
        b.get_mut(4)[0] = 1;
        assert!(!b.shares_storage_with(&c) && b.is_sole());
        assert_eq!(c.get(), Some(&[0, 7, 0, 0][..]), "a write never shows in a sibling");
        assert_eq!(a.get(), Some(&[0, 7, 0, 0][..]));
        assert_eq!(b.get(), Some(&[1, 7, 0, 0][..]));
        assert_eq!(b.bytes(), 32);
        assert!(Block::<u64>::Cold.shares_storage_with(&Block::Cold));
    }
}
