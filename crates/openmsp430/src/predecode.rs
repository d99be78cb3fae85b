//! Lazily built, generation-validated predecoded-instruction cache.
//!
//! Re-decoding every instruction through closure-based bus reads is the
//! single hottest cost of [`crate::mcu::Mcu::step`]. This cache stores the
//! decoded form (plus the raw words, so fetch bus traffic can still be
//! reported to the monitors bit-for-bit) per word-aligned PC, in the
//! sparse [`PcTable`]: 64-byte chunks of 32 slots, each allocated on the
//! first fetch inside it.
//!
//! Consistency does not rely on callers remembering to invalidate: every
//! entry snapshots the [`Memory`] write generations of the page(s) its
//! encoded bytes occupy, and a hit is honoured only while those
//! generations are unchanged. Self-modifying code, DMA into code, and
//! host-side `mem.load`/`write_*` calls all bump the page generation and
//! therefore force a re-decode — see the invalidation tests in
//! `tests/simulator_behavior.rs`.
//!
//! Fetches that would touch MMIO (a peripheral range or a hardware cell)
//! are never cached: those reads can have side effects or return
//! hardware-owned values, so the caller falls back to the closure-decoding
//! path for them.

use crate::decode::decode;
use crate::isa::Instr;
use crate::mem::{page_of, Memory};
use crate::pctable::PcTable;
use crate::superblock::CacheStats;

/// A predecoded instruction: the decoded form plus the raw words it was
/// decoded from, so the per-step fetch accesses can be replayed into the
/// signal log without touching the bus.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) struct CachedInstr {
    /// The decoded instruction.
    pub instr: Instr,
    /// Encoded size in bytes (2, 4 or 6).
    pub size: u16,
    /// The `size / 2` words at `pc`, `pc+2`, `pc+4`.
    pub words: [u16; 3],
}

#[derive(Debug, Clone, Copy)]
struct Slot {
    entry: CachedInstr,
    /// Generation of the page holding the first encoded word.
    gen_first: u64,
    /// Generation of the page holding the last encoded word.
    gen_last: u64,
}

/// The PC-indexed cache. Chunks of 32 slots (64 bytes of code)
/// materialize on first fetch, so memory cost scales with the amount of
/// code actually executed, not the address space — a fleet of thousands
/// of simulated devices stays cheap. Its counters go to the
/// [`CacheStats`] the caller passes, which the MCU shares with the
/// superblock tier.
#[derive(Debug, Clone, Default)]
pub(crate) struct DecodeCache {
    slots: PcTable<Option<Slot>>,
}

impl DecodeCache {
    /// Returns the predecoded instruction at `pc`, decoding and caching it
    /// on a miss or a stale generation. Returns `None` when any of the
    /// instruction's encoded bytes fall on MMIO (`is_mmio`): such fetches
    /// must go through the live bus.
    pub(crate) fn lookup(
        &mut self,
        pc: u16,
        mem: &Memory,
        is_mmio: impl Fn(u16) -> bool,
        stats: &mut CacheStats,
    ) -> Option<CachedInstr> {
        if let Some(Some(slot)) = self.slots.get_mut(pc) {
            // Both generations were read together: an entry within one
            // page needs only the first compared.
            let last = pc.wrapping_add(slot.entry.size - 2);
            if slot.gen_first == mem.page_generation(pc)
                && (page_of(last) == page_of(pc) || slot.gen_last == mem.page_generation(last))
            {
                stats.hits += 1;
                return Some(slot.entry);
            }
            stats.invalidations += 1;
        }
        stats.misses += 1;

        // Miss (or stale): decode straight from memory, recording the
        // fetched words.
        let mut words = [0u16; 3];
        let mut fetched = 0usize;
        let d = decode(
            |addr| {
                let w = mem.read_word(addr);
                if fetched < words.len() {
                    words[fetched] = w;
                    fetched += 1;
                }
                w
            },
            pc,
        );

        for i in 0..d.size / 2 {
            let a = pc.wrapping_add(2 * i);
            if is_mmio(a) || is_mmio(a.wrapping_add(1)) {
                return None;
            }
        }

        let entry = CachedInstr {
            instr: d.instr,
            size: d.size,
            words,
        };
        *self.slots.slot(pc) = Some(Slot {
            entry,
            gen_first: mem.page_generation(pc),
            gen_last: mem.page_generation(pc.wrapping_add(d.size - 2)),
        });
        Some(entry)
    }

    /// Number of 64-byte slot chunks currently materialized
    /// (diagnostics).
    #[cfg(test)]
    pub(crate) fn resident_chunks(&self) -> usize {
        self.slots.resident_chunks()
    }

    /// Drops every cached slot. Used when the MMIO topology changes
    /// (new peripheral / hardware cell), which can turn previously
    /// cacheable fetches into live-bus ones.
    pub(crate) fn clear(&mut self) {
        self.slots.clear();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::isa::{Operand, TwoOp};
    use crate::regs::Reg;

    fn never_mmio(_: u16) -> bool {
        false
    }

    #[test]
    fn caches_and_replays_decoded_words() {
        let mut mem = Memory::new();
        // mov #0x1234, r5
        mem.write_word(0xE000, 0x4035);
        mem.write_word(0xE002, 0x1234);
        let (mut cache, mut stats) = (DecodeCache::default(), CacheStats::default());
        let a = cache.lookup(0xE000, &mem, never_mmio, &mut stats).unwrap();
        assert_eq!(a.size, 4);
        assert_eq!(a.words[..2], [0x4035, 0x1234]);
        assert_eq!(
            a.instr,
            Instr::Two {
                op: TwoOp::Mov,
                byte: false,
                src: Operand::Immediate(0x1234),
                dst: Operand::Reg(Reg::r(5)),
            }
        );
        // Second lookup is a pure hit (same entry, one resident chunk).
        let b = cache.lookup(0xE000, &mem, never_mmio, &mut stats).unwrap();
        assert_eq!(a, b);
        assert_eq!(cache.resident_chunks(), 1);
    }

    #[test]
    fn stale_generation_forces_redecode() {
        let mut mem = Memory::new();
        mem.write_word(0xE000, 0x4035);
        mem.write_word(0xE002, 0x1234);
        let (mut cache, mut stats) = (DecodeCache::default(), CacheStats::default());
        let _ = cache.lookup(0xE000, &mem, never_mmio, &mut stats).unwrap();
        // Overwrite the immediate word: same page, new generation.
        mem.write_word(0xE002, 0xBEEF);
        let b = cache.lookup(0xE000, &mem, never_mmio, &mut stats).unwrap();
        assert_eq!(b.words[1], 0xBEEF);
        assert_eq!(
            b.instr,
            Instr::Two {
                op: TwoOp::Mov,
                byte: false,
                src: Operand::Immediate(0xBEEF),
                dst: Operand::Reg(Reg::r(5)),
            }
        );
    }

    #[test]
    fn unrelated_page_writes_keep_entries_hot() {
        let mut mem = Memory::new();
        mem.write_word(0xE000, 0x3FFF); // jmp $
        let (mut cache, mut stats) = (DecodeCache::default(), CacheStats::default());
        let a = cache.lookup(0xE000, &mem, never_mmio, &mut stats).unwrap();
        mem.write_word(0x0200, 0xAAAA); // data page, not the code page
        let b = cache.lookup(0xE000, &mem, never_mmio, &mut stats).unwrap();
        assert_eq!(a, b);
    }

    #[test]
    fn mmio_fetches_are_never_cached() {
        let mut mem = Memory::new();
        mem.write_word(0x0190, 0x4303); // would decode, but lives on MMIO
        let (mut cache, mut stats) = (DecodeCache::default(), CacheStats::default());
        assert!(cache
            .lookup(0x0190, &mem, |a| a == 0x0190, &mut stats)
            .is_none());
        assert_eq!(cache.resident_chunks(), 0, "no chunk for an uncached fetch");
    }

    #[test]
    fn instruction_straddling_page_boundary_validates_both_pages() {
        let mut mem = Memory::new();
        // Place `mov #imm, r5` so its extension word is on the next page:
        // pages are 512 bytes, so 0xE1FE/0xE200 straddle.
        mem.write_word(0xE1FE, 0x4035);
        mem.write_word(0xE200, 0x1234);
        let (mut cache, mut stats) = (DecodeCache::default(), CacheStats::default());
        let a = cache.lookup(0xE1FE, &mem, never_mmio, &mut stats).unwrap();
        assert_eq!(a.words[1], 0x1234);
        // A write into the *second* page alone must still invalidate.
        mem.write_word(0xE200, 0x5678);
        let b = cache.lookup(0xE1FE, &mem, never_mmio, &mut stats).unwrap();
        assert_eq!(b.words[1], 0x5678);
    }

    #[test]
    fn instruction_straddling_chunk_edge_caches_hits_and_invalidates() {
        let mut mem = Memory::new();
        // `mov #imm, r5` at the last word of the 64-byte chunk
        // 0xE000..=0xE03F: its extension word opens the next chunk.
        mem.write_word(0xE03E, 0x4035);
        mem.write_word(0xE040, 0x1234);
        let (mut cache, mut stats) = (DecodeCache::default(), CacheStats::default());
        let a = cache.lookup(0xE03E, &mem, never_mmio, &mut stats).unwrap();
        assert_eq!((a.size, a.words[1]), (4, 0x1234));
        // Slots are keyed by the first word: one chunk holds the entry.
        assert_eq!(cache.resident_chunks(), 1);
        assert_eq!(cache.lookup(0xE03E, &mem, never_mmio, &mut stats), Some(a));
        assert_eq!((stats.hits, stats.misses), (1, 1));
        // A write to the extension word, in the next chunk, invalidates.
        mem.write_word(0xE040, 0x5678);
        let b = cache.lookup(0xE03E, &mem, never_mmio, &mut stats).unwrap();
        assert_eq!(b.words[1], 0x5678);
        assert_eq!(stats.invalidations, 1);
    }
}
