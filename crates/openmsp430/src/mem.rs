//! Sparse 64 KiB memory with MSP430 little-endian word semantics, plus
//! the [`MemRegion`] type used throughout the monitors to describe
//! address ranges such as `ER`, `OR`, the key region and the IVT.

use std::borrow::Cow;
use std::fmt;

/// An inclusive address range `[start, end]` within the 64 KiB space.
///
/// All of the paper's security properties are phrased over membership of
/// bus addresses in such regions (e.g. `Daddr ∈ IVT`).
///
/// # Examples
///
/// ```
/// use openmsp430::mem::MemRegion;
///
/// let ivt = MemRegion::new(0xFFE0, 0xFFFF);
/// assert!(ivt.contains(0xFFFE));
/// assert!(!ivt.contains(0xFFDF));
/// assert_eq!(ivt.len(), 32);
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct MemRegion {
    start: u16,
    end: u16,
}

impl MemRegion {
    /// Creates a region from inclusive bounds.
    ///
    /// # Panics
    ///
    /// Panics if `start > end`.
    pub fn new(start: u16, end: u16) -> MemRegion {
        assert!(start <= end, "invalid region: {start:#06x}..={end:#06x}");
        MemRegion { start, end }
    }

    /// Creates a region from a base address and a length in bytes.
    ///
    /// # Panics
    ///
    /// Panics if the region is empty or overflows the address space.
    pub fn with_len(start: u16, len: u32) -> MemRegion {
        assert!(len > 0, "empty region");
        let end = start as u32 + len - 1;
        assert!(end <= 0xFFFF, "region overflows address space");
        MemRegion::new(start, end as u16)
    }

    /// First address in the region.
    pub fn start(&self) -> u16 {
        self.start
    }

    /// Last address in the region (inclusive).
    pub fn end(&self) -> u16 {
        self.end
    }

    /// Number of bytes covered.
    pub fn len(&self) -> u32 {
        (self.end - self.start) as u32 + 1
    }

    /// Regions are never empty; provided for API completeness.
    pub fn is_empty(&self) -> bool {
        false
    }

    /// True if `addr` falls within the region.
    pub fn contains(&self, addr: u16) -> bool {
        addr >= self.start && addr <= self.end
    }

    /// True if a `byte`- or word-sized access at `addr` touches the region.
    pub fn touches(&self, addr: u16, byte: bool) -> bool {
        self.contains(addr) || (!byte && self.contains(addr.wrapping_add(1)))
    }

    /// True if the two regions share any address.
    pub fn overlaps(&self, other: &MemRegion) -> bool {
        self.start <= other.end && other.start <= self.end
    }

    /// True if `other` is entirely inside `self`.
    pub fn contains_region(&self, other: &MemRegion) -> bool {
        self.start <= other.start && other.end <= self.end
    }

    /// Iterates over every address in the region.
    pub fn iter(&self) -> impl Iterator<Item = u16> + '_ {
        self.start..=self.end
    }
}

impl fmt::Display for MemRegion {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "[{:#06x}, {:#06x}]", self.start, self.end)
    }
}

/// Log2 of the page size (512 bytes per page).
pub(crate) const PAGE_SHIFT: u32 = 9;

/// Bytes per page.
const PAGE_SIZE: usize = 1 << PAGE_SHIFT;

/// Number of pages covering the 64 KiB space.
pub(crate) const PAGE_COUNT: usize = 0x1_0000 >> PAGE_SHIFT;

/// The page an address belongs to.
pub(crate) fn page_of(addr: u16) -> usize {
    (addr >> PAGE_SHIFT) as usize
}

type Page = [u8; PAGE_SIZE];

/// What every page reads as until its first write.
static ZERO_PAGE: Page = [0; PAGE_SIZE];

/// Splits the `len` bytes from `start` into per-page runs of
/// `(page, offset within the page, run length)`.
fn page_runs(start: usize, len: usize) -> impl Iterator<Item = (usize, usize, usize)> {
    let end = start + len;
    let mut at = start;
    std::iter::from_fn(move || {
        (at < end).then(|| {
            let (page, off) = (at >> PAGE_SHIFT, at & (PAGE_SIZE - 1));
            let run = (PAGE_SIZE - off).min(end - at);
            at += run;
            (page, off, run)
        })
    })
}

/// Sparse byte-addressable 64 KiB memory.
///
/// The space is 128 pages of 512 bytes, each allocated on its first
/// write: a page nobody has written reads as zeroes from one shared
/// static zero page, so a device costs the memory its program, stack
/// and data actually touch, not the whole address space.
///
/// Word accesses are little-endian and force-aligned: bit 0 of the address
/// is ignored, as on the real MSP430 bus. An aligned word never straddles
/// a page.
///
/// Every write bumps a per-page generation counter, which the
/// predecoded-instruction cache uses to notice *any* mutation of code
/// it has cached — CPU stores, DMA transfers and direct host-side
/// `load`/`write_*` calls alike — without scanning memory.
///
/// [`Memory::slice`] borrows a region that lies in one page and copies
/// only a region that spans pages; [`Memory::snapshot`] always copies.
///
/// # Examples
///
/// ```
/// use openmsp430::mem::Memory;
///
/// let mut mem = Memory::new();
/// mem.write_word(0x0200, 0xBEEF);
/// assert_eq!(mem.read_byte(0x0200), 0xEF);
/// assert_eq!(mem.read_byte(0x0201), 0xBE);
/// assert_eq!(mem.read_word(0x0201), 0xBEEF); // alignment forced
/// assert_eq!(mem.read_word(0x4000), 0); // never written
/// ```
#[derive(Clone)]
pub struct Memory {
    pages: Box<[Option<Box<Page>>; PAGE_COUNT]>,
    page_gen: Box<[u64; PAGE_COUNT]>,
}

impl Default for Memory {
    fn default() -> Memory {
        Memory::new()
    }
}

impl fmt::Debug for Memory {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("Memory")
            .field("resident_pages", &self.pages.iter().flatten().count())
            .finish()
    }
}

impl Memory {
    /// Creates a zero-filled memory; no page is allocated yet.
    pub fn new() -> Memory {
        Memory {
            pages: Box::new([const { None }; PAGE_COUNT]),
            page_gen: Box::new([0; PAGE_COUNT]),
        }
    }

    /// The write generation of the page containing `addr`: bumped by every
    /// write into that 512-byte page, whatever the master. Cache
    /// consistency checks compare snapshots of this counter.
    pub(crate) fn page_generation(&self, addr: u16) -> u64 {
        self.page_gen[page_of(addr)]
    }

    /// The bytes of page `page`, the zero page if it was never written.
    #[inline]
    fn page(&self, page: usize) -> &Page {
        self.pages[page].as_deref().unwrap_or(&ZERO_PAGE)
    }

    /// The bytes of page `page` for a write, allocated on first use.
    /// The caller bumps the page's generation.
    #[inline]
    fn page_mut(&mut self, page: usize) -> &mut Page {
        self.pages[page].get_or_insert_with(|| Box::new([0; PAGE_SIZE]))
    }

    /// Reads one byte.
    #[inline]
    pub fn read_byte(&self, addr: u16) -> u8 {
        self.page(page_of(addr))[addr as usize & (PAGE_SIZE - 1)]
    }

    /// Writes one byte.
    pub fn write_byte(&mut self, addr: u16, val: u8) {
        let page = page_of(addr);
        self.page_mut(page)[addr as usize & (PAGE_SIZE - 1)] = val;
        self.page_gen[page] += 1;
    }

    /// Reads a little-endian word; the address is aligned down.
    #[inline]
    pub fn read_word(&self, addr: u16) -> u16 {
        let off = addr as usize & (PAGE_SIZE - 2);
        let page = self.page(page_of(addr));
        u16::from_le_bytes([page[off], page[off + 1]])
    }

    /// Writes a little-endian word; the address is aligned down.
    pub fn write_word(&mut self, addr: u16, val: u16) {
        let (page, off) = (page_of(addr), addr as usize & (PAGE_SIZE - 2));
        self.page_mut(page)[off..off + 2].copy_from_slice(&val.to_le_bytes());
        self.page_gen[page] += 1;
    }

    /// Generic read used by the execution engine.
    pub fn read(&self, addr: u16, byte: bool) -> u16 {
        if byte {
            self.read_byte(addr) as u16
        } else {
            self.read_word(addr)
        }
    }

    /// Generic write used by the execution engine.
    pub fn write(&mut self, addr: u16, val: u16, byte: bool) {
        if byte {
            self.write_byte(addr, val as u8);
        } else {
            self.write_word(addr, val);
        }
    }

    /// Copies `data` into memory starting at `addr`, bumping each touched
    /// page's generation once.
    ///
    /// # Panics
    ///
    /// Panics if the slice would run past the end of the address space.
    pub fn load(&mut self, addr: u16, data: &[u8]) {
        assert!(
            addr as usize + data.len() <= 0x1_0000,
            "load overflows memory"
        );
        let mut rest = data;
        for (page, off, run) in page_runs(addr as usize, data.len()) {
            let (head, tail) = rest.split_at(run);
            self.page_mut(page)[off..off + run].copy_from_slice(head);
            self.page_gen[page] += 1;
            rest = tail;
        }
    }

    /// Returns a copy of the bytes in `region`.
    pub fn snapshot(&self, region: MemRegion) -> Vec<u8> {
        let mut out = Vec::with_capacity(region.len() as usize);
        for (page, off, run) in page_runs(region.start() as usize, region.len() as usize) {
            out.extend_from_slice(&self.page(page)[off..off + run]);
        }
        out
    }

    /// The bytes in `region`: borrowed when the region lies in one page,
    /// copied when it spans pages.
    pub fn slice(&self, region: MemRegion) -> Cow<'_, [u8]> {
        let (start, end) = (region.start(), region.end());
        if page_of(start) == page_of(end) {
            let off = start as usize & (PAGE_SIZE - 1);
            Cow::Borrowed(&self.page(page_of(start))[off..=off + (end - start) as usize])
        } else {
            Cow::Owned(self.snapshot(region))
        }
    }

    /// Fills `region` with a byte value, bumping each touched page's
    /// generation once.
    pub fn fill(&mut self, region: MemRegion, val: u8) {
        for (page, off, run) in page_runs(region.start() as usize, region.len() as usize) {
            self.page_mut(page)[off..off + run].fill(val);
            self.page_gen[page] += 1;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    #[test]
    fn word_is_little_endian() {
        let mut m = Memory::new();
        m.write_word(0x0200, 0x1234);
        assert_eq!(m.read_byte(0x0200), 0x34);
        assert_eq!(m.read_byte(0x0201), 0x12);
    }

    #[test]
    fn word_access_aligns_down() {
        let mut m = Memory::new();
        m.write_word(0x0203, 0xABCD);
        assert_eq!(m.read_word(0x0202), 0xABCD);
        assert_eq!(m.read_word(0x0203), 0xABCD);
    }

    #[test]
    fn load_and_snapshot() {
        let mut m = Memory::new();
        m.load(0xE000, &[1, 2, 3, 4]);
        assert_eq!(m.snapshot(MemRegion::new(0xE000, 0xE003)), vec![1, 2, 3, 4]);
    }

    #[test]
    fn region_membership() {
        let r = MemRegion::new(0x1000, 0x10FF);
        assert!(r.contains(0x1000));
        assert!(r.contains(0x10FF));
        assert!(!r.contains(0x0FFF));
        assert!(!r.contains(0x1100));
        assert!(r.touches(0x10FF, true));
        assert!(r.touches(0x0FFF, false));
        assert!(!r.touches(0x0FFF, true));
    }

    #[test]
    fn region_overlap_and_containment() {
        let a = MemRegion::new(0x1000, 0x1FFF);
        let b = MemRegion::new(0x1800, 0x2800);
        let c = MemRegion::new(0x1100, 0x1200);
        assert!(a.overlaps(&b));
        assert!(b.overlaps(&a));
        assert!(a.contains_region(&c));
        assert!(!a.contains_region(&b));
        assert!(!c.overlaps(&MemRegion::new(0x1201, 0x1300)));
    }

    #[test]
    fn region_len_and_display() {
        let r = MemRegion::new(0xFFE0, 0xFFFF);
        assert_eq!(r.len(), 32);
        assert_eq!(r.to_string(), "[0xffe0, 0xffff]");
        assert_eq!(MemRegion::new(0, 0xFFFF).len(), 0x1_0000);
    }

    #[test]
    fn with_len_constructor() {
        let r = MemRegion::with_len(0xFFE0, 32);
        assert_eq!(r.end(), 0xFFFF);
    }

    #[test]
    #[should_panic(expected = "region overflows")]
    fn with_len_overflow_panics() {
        let _ = MemRegion::with_len(0xFFF0, 32);
    }

    #[test]
    fn page_generation_tracks_every_write_path() {
        let mut m = Memory::new();
        let g0 = m.page_generation(0xE000);
        m.write_byte(0xE000, 1);
        m.write_word(0xE010, 2);
        m.load(0xE020, &[1, 2, 3]);
        m.fill(MemRegion::new(0xE030, 0xE03F), 0xAA);
        assert_eq!(m.page_generation(0xE000), g0 + 4);
        assert_eq!(
            m.page_generation(0x0200),
            0,
            "untouched pages keep their generation"
        );
        // Reads never bump.
        let g1 = m.page_generation(0xE000);
        let _ = m.read_word(0xE000);
        assert_eq!(m.page_generation(0xE000), g1);
    }

    #[test]
    fn memory_byte_write_does_not_disturb_neighbour() {
        let mut m = Memory::new();
        m.write_word(0x0300, 0xFFFF);
        m.write_byte(0x0300, 0x00);
        assert_eq!(m.read_word(0x0300), 0xFF00);
    }

    /// The flat reference the paged [`Memory`] is checked against: one
    /// 64 KiB array plus a generation counter per page, bumped exactly
    /// as documented (once per write op per page; once per touched page
    /// for `load`/`fill`).
    struct FlatModel {
        bytes: Vec<u8>,
        gen: [u64; PAGE_COUNT],
    }

    /// One operation of the differential.
    #[derive(Debug, Clone)]
    enum Op {
        ReadByte(u16),
        ReadWord(u16),
        WriteByte(u16, u8),
        WriteWord(u16, u16),
        Load(u16, Vec<u8>),
        Fill(MemRegion, u8),
        Slice(MemRegion),
        Snapshot(MemRegion),
    }

    /// Applies `op` to both memories, checking that reads agree.
    fn apply(mem: &mut Memory, flat: &mut FlatModel, op: &Op) -> Result<(), String> {
        let bytes = |r: &MemRegion| flat.bytes[r.start() as usize..=r.end() as usize].to_vec();
        match *op {
            Op::ReadByte(a) => {
                let want = flat.bytes[a as usize];
                (mem.read_byte(a) == want)
                    .then_some(())
                    .ok_or("read_byte")?;
            }
            Op::ReadWord(a) => {
                let lo = (a & !1) as usize;
                let want = u16::from_le_bytes([flat.bytes[lo], flat.bytes[lo + 1]]);
                (mem.read_word(a) == want)
                    .then_some(())
                    .ok_or("read_word")?;
            }
            Op::WriteByte(a, v) => {
                mem.write_byte(a, v);
                flat.bytes[a as usize] = v;
                flat.gen[page_of(a)] += 1;
            }
            Op::WriteWord(a, v) => {
                mem.write_word(a, v);
                let lo = (a & !1) as usize;
                flat.bytes[lo..lo + 2].copy_from_slice(&v.to_le_bytes());
                flat.gen[page_of(a)] += 1;
            }
            Op::Load(a, ref data) => {
                mem.load(a, data);
                let start = a as usize;
                flat.bytes[start..start + data.len()].copy_from_slice(data);
                if !data.is_empty() {
                    for page in page_of(a)..=page_of((start + data.len() - 1) as u16) {
                        flat.gen[page] += 1;
                    }
                }
            }
            Op::Fill(r, v) => {
                mem.fill(r, v);
                flat.bytes[r.start() as usize..=r.end() as usize].fill(v);
                for page in page_of(r.start())..=page_of(r.end()) {
                    flat.gen[page] += 1;
                }
            }
            Op::Slice(r) => {
                let got = mem.slice(r);
                (*got == bytes(&r)[..]).then_some(()).ok_or("slice bytes")?;
                let one_page = page_of(r.start()) == page_of(r.end());
                let borrowed = matches!(got, Cow::Borrowed(_));
                (borrowed == one_page)
                    .then_some(())
                    .ok_or("slice copies only across pages")?;
            }
            Op::Snapshot(r) => {
                (mem.snapshot(r) == bytes(&r))
                    .then_some(())
                    .ok_or("snapshot")?;
            }
        }
        Ok(())
    }

    /// Every byte, generation and page residency of `mem` against the
    /// model: a page is allocated exactly when some write touched it.
    fn agrees(mem: &Memory, flat: &FlatModel) -> Result<(), String> {
        for page in 0..PAGE_COUNT {
            let want = &flat.bytes[page << PAGE_SHIFT..(page + 1) << PAGE_SHIFT];
            if mem.page(page)[..] != *want {
                return Err(format!("bytes of page {page}"));
            }
            if mem.page_gen[page] != flat.gen[page] {
                return Err(format!("generation of page {page}"));
            }
            if mem.pages[page].is_some() != (flat.gen[page] > 0) {
                return Err(format!("residency of page {page}"));
            }
        }
        Ok(())
    }

    /// Pages most operations land on, so that they meet: the first
    /// two, two in the middle and the last two of the space.
    const HOT_PAGES: [u16; 6] = [0, 1, 0x70, 0x71, 0x7E, 0x7F];

    /// An address on a page edge most of the time: a page's first or
    /// second byte or its last two bytes; otherwise anywhere in the page.
    /// Three pages in four are hot; the rest are anywhere.
    fn edge_addr() -> impl Strategy<Value = u16> {
        (0..8usize, 0..PAGE_COUNT as u16, 0u8..6, any::<u16>()).prop_map(
            |(hot, anywhere, kind, offset)| {
                let page = HOT_PAGES.get(hot).copied().unwrap_or(anywhere);
                let base = page << PAGE_SHIFT;
                match kind {
                    0 => base,
                    1 => base | 1,
                    2 => base | (PAGE_SIZE as u16 - 2),
                    3 => base | (PAGE_SIZE as u16 - 1),
                    _ => base | (offset & (PAGE_SIZE as u16 - 1)),
                }
            },
        )
    }

    /// A region from an edge address, up to three pages long.
    fn region() -> impl Strategy<Value = MemRegion> {
        (edge_addr(), 1u32..1100)
            .prop_map(|(start, len)| MemRegion::with_len(start, len.min(0x1_0000 - start as u32)))
    }

    fn op() -> impl Strategy<Value = Op> {
        prop_oneof![
            edge_addr().prop_map(Op::ReadByte),
            edge_addr().prop_map(Op::ReadWord),
            (edge_addr(), any::<u8>()).prop_map(|(a, v)| Op::WriteByte(a, v)),
            (edge_addr(), any::<u16>()).prop_map(|(a, v)| Op::WriteWord(a, v)),
            (edge_addr(), proptest::collection::vec(any::<u8>(), 0..1100)).prop_map(
                |(a, mut data)| {
                    data.truncate(0x1_0000 - a as usize);
                    Op::Load(a, data)
                }
            ),
            (region(), any::<u8>()).prop_map(|(r, v)| Op::Fill(r, v)),
            region().prop_map(Op::Slice),
            region().prop_map(Op::Snapshot),
        ]
    }

    proptest! {
        /// The paged memory against the flat model over random
        /// operation sequences on page edges: after every operation,
        /// every byte, every page generation and every page's residency
        /// agree, and reads, slices and snapshots (within one page,
        /// across pages and on never-written pages) return the model's
        /// bytes.
        #[test]
        fn paged_memory_matches_flat_model(ops in proptest::collection::vec(op(), 1..24)) {
            let mut mem = Memory::new();
            let mut flat = FlatModel { bytes: vec![0; 0x1_0000], gen: [0; PAGE_COUNT] };
            for op in &ops {
                let checked = apply(&mut mem, &mut flat, op).and_then(|()| agrees(&mem, &flat));
                prop_assert!(checked.is_ok(), "{:?} after {:?}", checked, op);
            }
        }
    }
}
