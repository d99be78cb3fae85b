//! Sparse PC-indexed slot table behind the predecode and superblock
//! caches.
//!
//! One slot per word-aligned PC, stored in 64-byte chunks (32 slots)
//! that are allocated on their first insert. A 512-byte memory page maps
//! to its eight chunk pointers, and the page table itself is allocated
//! on the first insert too, so an empty table costs one empty `Vec` and
//! a cache costs the chunks of code actually run, not the address space.

use crate::mem::{PAGE_COUNT, PAGE_SHIFT};

/// Log2 of the chunk size (64 bytes of code per chunk).
const CHUNK_SHIFT: u32 = 6;

/// Slots per chunk: one per word-aligned PC.
const SLOTS_PER_CHUNK: usize = 1 << (CHUNK_SHIFT - 1);

/// Chunks per memory page.
const CHUNKS_PER_PAGE: usize = 1 << (PAGE_SHIFT - CHUNK_SHIFT);

type Chunk<T> = [T; SLOTS_PER_CHUNK];

type Page<T> = [Option<Box<Chunk<T>>>; CHUNKS_PER_PAGE];

/// The table: `pages` is empty until the first insert, then holds one
/// entry per memory page.
#[derive(Debug, Clone)]
pub(crate) struct PcTable<T> {
    pages: Vec<Option<Box<Page<T>>>>,
}

impl<T> Default for PcTable<T> {
    fn default() -> PcTable<T> {
        PcTable { pages: Vec::new() }
    }
}

/// The `(page, chunk, slot)` indices of `pc`.
fn index(pc: u16) -> (usize, usize, usize) {
    let pc = pc as usize;
    (
        pc >> PAGE_SHIFT,
        (pc >> CHUNK_SHIFT) & (CHUNKS_PER_PAGE - 1),
        (pc >> 1) & (SLOTS_PER_CHUNK - 1),
    )
}

impl<T: Default> PcTable<T> {
    /// The slot of `pc`, or `None` when its chunk was never allocated.
    #[cfg(test)]
    pub(crate) fn get(&self, pc: u16) -> Option<&T> {
        let (page, chunk, slot) = index(pc);
        let chunk = self.pages.get(page)?.as_ref()?[chunk].as_ref()?;
        Some(&chunk[slot])
    }

    /// The slot of `pc`, or `None` when its chunk was never allocated.
    #[inline]
    pub(crate) fn get_mut(&mut self, pc: u16) -> Option<&mut T> {
        let (page, chunk, slot) = index(pc);
        let chunk = self.pages.get_mut(page)?.as_mut()?[chunk].as_mut()?;
        Some(&mut chunk[slot])
    }

    /// The slot of `pc`, allocating its chunk (of default slots) on
    /// first use.
    pub(crate) fn slot(&mut self, pc: u16) -> &mut T {
        let (page, chunk, slot) = index(pc);
        if self.pages.is_empty() {
            self.pages.resize_with(PAGE_COUNT, || None);
        }
        let page =
            self.pages[page].get_or_insert_with(|| Box::new([const { None }; CHUNKS_PER_PAGE]));
        let chunk =
            page[chunk].get_or_insert_with(|| Box::new(std::array::from_fn(|_| T::default())));
        &mut chunk[slot]
    }

    /// Every slot of every allocated chunk.
    pub(crate) fn slots(&self) -> impl Iterator<Item = &T> {
        self.pages
            .iter()
            .flatten()
            .flat_map(|page| page.iter().flatten())
            .flat_map(|chunk| chunk.iter())
    }

    /// Number of allocated chunks.
    #[cfg(test)]
    pub(crate) fn resident_chunks(&self) -> usize {
        self.pages
            .iter()
            .flatten()
            .map(|page| page.iter().flatten().count())
            .sum()
    }

    /// Frees every chunk and the page table.
    pub(crate) fn clear(&mut self) {
        self.pages = Vec::new();
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn chunks_allocate_on_first_insert_only() {
        let mut table: PcTable<u8> = PcTable::default();
        assert!(table.get(0xE000).is_none());
        assert_eq!(table.resident_chunks(), 0);
        *table.slot(0xE000) = 1;
        *table.slot(0xE03E) = 2; // last slot of the same chunk
        assert_eq!(table.resident_chunks(), 1);
        assert_eq!(table.get(0xE03E), Some(&2));
        // 0xE040 starts the next chunk: resident only once written.
        assert!(table.get(0xE040).is_none());
        *table.slot(0xE040) = 3;
        assert_eq!(table.resident_chunks(), 2);
        assert_eq!(table.slots().filter(|&&v| v != 0).count(), 3);
        // The last slot of the address space is the last of its chunk.
        *table.slot(0xFFFE) = 4;
        assert_eq!(table.get(0xFFFE), Some(&4));
        assert_eq!(table.get(0xFFFC), Some(&0));
        assert_eq!(table.resident_chunks(), 3);
        table.clear();
        assert_eq!(table.resident_chunks(), 0);
        assert!(table.get(0xE000).is_none());
    }
}
