//! The sparse page index behind [`Memory`](crate::mem::Memory) and the
//! page level of the PC-indexed cache tables: a map from a 512-byte page
//! number to a value that stores only the pages that exist.
//!
//! A 128-bit residency mask has one bit per page of the 64 KiB space,
//! and an exact-size boxed slice holds the resident pages' values in
//! page order. A page's value therefore sits at its *rank*: the number
//! of resident pages below it, one bit count of a mask word. An empty
//! index costs its 32 inline bytes and no heap; each resident page
//! costs one slice entry. Nothing is stored for an absent page, and
//! reaching a resident one is a bit test, a count and one index into
//! the slice.

use crate::mem::PAGE_COUNT;

const _: () = assert!(PAGE_COUNT == 128, "the residency mask holds 128 pages");

/// `x.count_ones()`, quicker for a word of at most two set bits: two
/// bit clears and a test. A device holds a few pages, so the masked
/// word a rank counts is nearly always that sparse, and the baseline
/// x86-64 target has no population-count instruction: `count_ones`
/// there is a dozen dependent operations on every memory access.
#[inline]
fn sparse_count(x: u64) -> usize {
    let rest = x & x.wrapping_sub(1);
    if rest & rest.wrapping_sub(1) == 0 {
        (x != 0) as usize + (rest != 0) as usize
    } else {
        x.count_ones() as usize
    }
}

/// Page number → value, for the pages that exist.
#[derive(Debug, Clone)]
pub(crate) struct PageIndex<T> {
    /// Bit `p % 64` of word `p / 64` is set when page `p` is resident.
    /// Two words rather than one `u128`, which would force 16-byte
    /// alignment on every struct that holds an index.
    resident: [u64; 2],
    /// The resident pages' values, in page order.
    values: Box<[T]>,
}

impl<T> Default for PageIndex<T> {
    fn default() -> PageIndex<T> {
        PageIndex {
            resident: [0; 2],
            values: Box::default(),
        }
    }
}

impl<T> PageIndex<T> {
    /// Resident pages below `page`: the slot of `page`'s value. One
    /// 64-bit count either way: the pages below `page` in the low word,
    /// or all pages less those at or above `page` in the high word.
    #[inline]
    fn rank(&self, page: usize) -> usize {
        let bit = page & 63;
        if page < 64 {
            sparse_count(self.resident[0] & ((1 << bit) - 1))
        } else {
            self.values.len() - sparse_count(self.resident[1] >> bit)
        }
    }

    /// True when `page` holds a value.
    #[inline]
    fn resident(&self, page: usize) -> bool {
        self.resident[page >> 6] >> (page & 63) & 1 != 0
    }

    /// The value of `page`, if it is resident.
    #[inline]
    pub(crate) fn get(&self, page: usize) -> Option<&T> {
        debug_assert!(page < PAGE_COUNT);
        self.resident(page).then(|| &self.values[self.rank(page)])
    }

    /// The value of `page` for an update, if it is resident.
    #[inline]
    pub(crate) fn get_mut(&mut self, page: usize) -> Option<&mut T> {
        debug_assert!(page < PAGE_COUNT);
        if !self.resident(page) {
            return None;
        }
        let at = self.rank(page);
        Some(&mut self.values[at])
    }

    /// The value of `page`, inserting `make()` first if it is absent.
    #[inline]
    pub(crate) fn get_or_insert_with(&mut self, page: usize, make: impl FnOnce() -> T) -> &mut T {
        debug_assert!(page < PAGE_COUNT);
        let at = self.rank(page);
        if !self.resident(page) {
            self.insert(page, at, make());
        }
        &mut self.values[at]
    }

    /// Makes `page` resident with `value` at slot `at`, keeping the
    /// slice exactly as long as the number of resident pages.
    #[cold]
    fn insert(&mut self, page: usize, at: usize, value: T) {
        let mut values = std::mem::take(&mut self.values).into_vec();
        values.reserve_exact(1);
        values.insert(at, value);
        self.values = values.into_boxed_slice();
        self.resident[page >> 6] |= 1 << (page & 63);
    }

    /// The resident pages' values, in page order.
    pub(crate) fn values(&self) -> impl Iterator<Item = &T> {
        self.values.iter()
    }

    /// Number of resident pages.
    pub(crate) fn len(&self) -> usize {
        self.values.len()
    }

    /// Drops every value and frees the slice.
    pub(crate) fn clear(&mut self) {
        *self = PageIndex::default();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::mem::{MemRegion, Memory, PAGE_SHIFT, PAGE_SIZE};
    use crate::pctable::PcTable;
    use proptest::prelude::*;
    use std::collections::{BTreeMap, BTreeSet};

    proptest! {
        /// The sparse count is `count_ones` on any word: the sparse
        /// words of its fast path (up to two bits set, as shifted
        /// masks are) and dense ones alike.
        #[test]
        fn sparse_count_is_count_ones(
            bits in proptest::collection::vec(0u32..64, 0..4),
            dense in any::<u64>(),
            shift in 0u32..64,
        ) {
            let sparse = bits.iter().fold(0u64, |x, &b| x | 1 << b);
            for x in [sparse, dense, dense >> shift, sparse >> shift] {
                prop_assert_eq!(sparse_count(x), x.count_ones() as usize, "{:#x}", x);
            }
        }
    }

    #[test]
    fn values_sit_at_their_rank_in_page_order() {
        let mut index: PageIndex<u8> = PageIndex::default();
        assert!(index.get(0).is_none() && index.get(127).is_none());
        for page in [70, 0, 127, 63, 64, 1] {
            index.get_or_insert_with(page, || page as u8);
        }
        assert_eq!(index.len(), 6);
        assert_eq!(
            index.values().copied().collect::<Vec<_>>(),
            [0, 1, 63, 64, 70, 127]
        );
        for page in 0..PAGE_COUNT {
            let want = [0, 1, 63, 64, 70, 127].contains(&page);
            assert_eq!(index.get(page), want.then_some(&(page as u8)), "{page}");
        }
        // A second insert of a resident page keeps its value.
        assert_eq!(*index.get_or_insert_with(64, || 0), 64);
        *index.get_mut(127).unwrap() = 9;
        assert_eq!(index.get(127), Some(&9));
        assert!(index.get_mut(2).is_none(), "get_mut inserts nothing");
        assert_eq!(index.len(), 6);
        index.clear();
        assert_eq!((index.len(), index.get(0)), (0, None));
    }

    /// The operations of the model differential: [`PcTable`] inserts,
    /// updates and clears, and [`Memory`] reads and every write path.
    #[derive(Debug, Clone)]
    enum Op {
        Insert(u16, u32),
        Update(u16, u32),
        Clear,
        ReadByte(u16),
        ReadWord(u16),
        WriteByte(u16, u8),
        WriteWord(u16, u16),
        Load(u16, Vec<u8>),
        Fill(MemRegion, u8),
    }

    /// Slots per 64-byte chunk of a [`PcTable`].
    const CHUNK_SLOTS: usize = 32;

    /// What both sparse structures should hold, as ordered maps of the
    /// pages and chunks written so far: each written page's bytes and
    /// generation, and each inserted chunk's slots by its base address.
    #[derive(Default)]
    struct Model {
        pages: BTreeMap<usize, ([u8; PAGE_SIZE], u64)>,
        chunks: BTreeMap<u16, [u32; CHUNK_SLOTS]>,
    }

    impl Model {
        /// Writes `data` from `start` as one write operation: each page
        /// it touches is allocated and its generation bumped once.
        fn write(&mut self, start: u16, data: &[u8]) {
            let mut touched = BTreeSet::new();
            for (i, &byte) in data.iter().enumerate() {
                let addr = start as usize + i;
                let page = self
                    .pages
                    .entry(addr >> PAGE_SHIFT)
                    .or_insert(([0; PAGE_SIZE], 0));
                page.0[addr & (PAGE_SIZE - 1)] = byte;
                touched.insert(addr >> PAGE_SHIFT);
            }
            for page in touched {
                self.pages.get_mut(&page).unwrap().1 += 1;
            }
        }

        fn byte(&self, addr: u16) -> u8 {
            let addr = addr as usize;
            self.pages
                .get(&(addr >> PAGE_SHIFT))
                .map_or(0, |page| page.0[addr & (PAGE_SIZE - 1)])
        }

        /// The slot of `pc` while its chunk is allocated.
        fn slot(&self, pc: u16) -> Option<u32> {
            let (chunk, slot) = chunk_of(pc);
            Some(self.chunks.get(&chunk)?[slot])
        }
    }

    /// The base address of `pc`'s chunk and `pc`'s slot in it.
    fn chunk_of(pc: u16) -> (u16, usize) {
        (pc & !63, (pc as usize >> 1) % CHUNK_SLOTS)
    }

    /// Pages most operations land on: the first two and the last two
    /// of the space, and one in the middle.
    const HOT_PAGES: [u16; 5] = [0, 1, 0x40, 0x7E, 0x7F];

    /// An address on an edge most of the time: a page's first or last
    /// word, a chunk's first or last word, or a chunk's last byte;
    /// otherwise anywhere in the page. Five pages in eight are hot, the
    /// rest anywhere, so many operations meet never-written pages.
    fn edge_addr() -> impl Strategy<Value = u16> {
        (
            0..8usize,
            0..PAGE_COUNT as u16,
            0u8..6,
            0u16..8,
            any::<u16>(),
        )
            .prop_map(|(hot, anywhere, kind, chunk, offset)| {
                let page = HOT_PAGES.get(hot).copied().unwrap_or(anywhere) << PAGE_SHIFT;
                let chunk = page | chunk << 6;
                match kind {
                    0 => page,
                    1 => page | (PAGE_SIZE as u16 - 2),
                    2 => chunk,
                    3 => chunk | 62,
                    4 => chunk | 63,
                    _ => page | (offset & (PAGE_SIZE as u16 - 1)),
                }
            })
    }

    fn op() -> impl Strategy<Value = Op> {
        prop_oneof![
            (edge_addr(), any::<u32>()).prop_map(|(pc, v)| Op::Insert(pc, v)),
            (edge_addr(), any::<u32>()).prop_map(|(pc, v)| Op::Update(pc, v)),
            Just(Op::Clear),
            edge_addr().prop_map(Op::ReadByte),
            edge_addr().prop_map(Op::ReadWord),
            (edge_addr(), any::<u8>()).prop_map(|(a, v)| Op::WriteByte(a, v)),
            (edge_addr(), any::<u16>()).prop_map(|(a, v)| Op::WriteWord(a, v)),
            (edge_addr(), proptest::collection::vec(any::<u8>(), 0..700)).prop_map(
                |(a, mut data)| {
                    data.truncate(0x1_0000 - a as usize);
                    Op::Load(a, data)
                }
            ),
            (edge_addr(), 1u32..1100, any::<u8>()).prop_map(|(start, len, v)| {
                let len = len.min(0x1_0000 - start as u32);
                Op::Fill(MemRegion::with_len(start, len), v)
            }),
        ]
    }

    /// Applies `op` to the structures and the model, checking that the
    /// reads it makes agree.
    fn apply(
        mem: &mut Memory,
        table: &mut PcTable<u32>,
        model: &mut Model,
        op: &Op,
    ) -> Result<(), String> {
        match *op {
            Op::Insert(pc, v) => {
                *table.slot(pc) = v;
                let (chunk, slot) = chunk_of(pc);
                model.chunks.entry(chunk).or_insert([0; CHUNK_SLOTS])[slot] = v;
            }
            Op::Update(pc, v) => {
                let (chunk, slot) = chunk_of(pc);
                let got = table.get_mut(pc).map(|got| *got = v);
                let want = model.chunks.get_mut(&chunk).map(|want| want[slot] = v);
                if got != want {
                    return Err(format!("residency of the slot at {pc:#06x}"));
                }
            }
            Op::Clear => {
                table.clear();
                model.chunks.clear();
            }
            Op::ReadByte(a) => {
                if mem.read_byte(a) != model.byte(a) {
                    return Err(format!("read_byte at {a:#06x}"));
                }
            }
            Op::ReadWord(a) => {
                let want = u16::from_le_bytes([model.byte(a & !1), model.byte(a | 1)]);
                if mem.read_word(a) != want {
                    return Err(format!("read_word at {a:#06x}"));
                }
            }
            Op::WriteByte(a, v) => {
                mem.write_byte(a, v);
                model.write(a, &[v]);
            }
            Op::WriteWord(a, v) => {
                mem.write_word(a, v);
                model.write(a & !1, &v.to_le_bytes());
            }
            Op::Load(a, ref data) => {
                mem.load(a, data);
                model.write(a, data);
            }
            Op::Fill(region, v) => {
                mem.fill(region, v);
                model.write(region.start(), &vec![v; region.len() as usize]);
            }
        }
        Ok(())
    }

    /// Every page's bytes, generation and residency, and every
    /// allocated chunk's slots in page order, against the model; and
    /// the slots around `probe`, resident or not.
    fn agrees(mem: &Memory, table: &PcTable<u32>, model: &Model, probe: u16) -> Result<(), String> {
        for page in 0..PAGE_COUNT {
            let base = (page << PAGE_SHIFT) as u16;
            let (bytes, generation) = model
                .pages
                .get(&page)
                .copied()
                .unwrap_or(([0; PAGE_SIZE], 0));
            if *mem.slice(MemRegion::with_len(base, PAGE_SIZE as u32)) != bytes {
                return Err(format!("bytes of page {base:#06x}"));
            }
            if mem.page_generation(base) != generation {
                return Err(format!("generation of page {base:#06x}"));
            }
        }
        if mem.resident_pages() != model.pages.len() {
            return Err("resident pages".into());
        }
        if table.resident_chunks() != model.chunks.len()
            || !table
                .slots()
                .copied()
                .eq(model.chunks.values().flatten().copied())
        {
            return Err("allocated chunks".into());
        }
        for pc in [
            probe,
            probe.wrapping_sub(2),
            probe.wrapping_add(2),
            0,
            0xFFFE,
        ] {
            if table.get(pc).copied() != model.slot(pc) {
                return Err(format!("slot at {pc:#06x}"));
            }
        }
        Ok(())
    }

    proptest! {
        /// The sparse index behind both [`Memory`] and [`PcTable`]
        /// against ordered-map models, over random operations on the
        /// first and last pages, on chunk and page edges and on pages
        /// never written: after every operation each page's bytes and
        /// generation, the number of resident pages and every allocated
        /// chunk's slots agree, and slots next to the operation read as
        /// the model's (absent where it holds no chunk).
        #[test]
        fn sparse_index_matches_ordered_map_models(ops in proptest::collection::vec(op(), 1..32)) {
            let (mut mem, mut table) = (Memory::new(), PcTable::default());
            let mut model = Model::default();
            for op in &ops {
                let probe = match *op {
                    Op::Insert(a, _) | Op::Update(a, _) | Op::ReadByte(a) | Op::ReadWord(a)
                    | Op::WriteByte(a, _) | Op::WriteWord(a, _) | Op::Load(a, _) => a,
                    Op::Fill(region, _) => region.start(),
                    Op::Clear => 0xFE00,
                };
                let checked = apply(&mut mem, &mut table, &mut model, op)
                    .and_then(|()| agrees(&mem, &table, &model, probe));
                prop_assert!(checked.is_ok(), "{:?} after {:?}", checked, op);
            }
        }
    }
}
