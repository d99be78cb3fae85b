//! Superblock trace cache: straight-line runs of predecoded
//! instructions chained from a basic-block entry PC and executed by a
//! single dispatch, without re-entering `Mcu::step_into` per
//! instruction.
//!
//! A superblock is terminated by anything that can redirect control or
//! change interrupt visibility — branches, calls, returns, writes to
//! `PC`/`SR`, illegal encodings — by MMIO-touching fetches (never
//! cached, mirroring the predecode cache), and by a length cap.
//! Validity is pinned to the same 512-byte page write-generations the
//! predecode cache uses: a block records every `(page, generation)`
//! pair its encoded bytes live in, and any write to those pages
//! (CPU store, DMA, host poke) retires it. IRQ-window boundaries are
//! not baked into the trace; the executor polls interrupt lines at
//! every step boundary and bails out to the per-step path whenever a
//! serviceable vector appears.
//!
//! A block is one exact-size object. It holds at most
//! [`MAX_BLOCK_LEN`] contiguous steps of at most 6 bytes, so its bytes
//! lie in at most two pages, and it stores both `(page, generation)`
//! pairs inline. Its steps are chained in a stack buffer and stored at
//! their exact length, so a block costs its `Arc` and one step slice.

use crate::bus::{Master, MemAccess};
use crate::isa::{Instr, OneOp, Operand};
use crate::layout::MemLayout;
use crate::mem::{MemRegion, Memory, PAGE_SHIFT};
use crate::pctable::PcTable;
use crate::regs::Reg;
use std::sync::Arc;

/// Longest trace a single superblock may hold. Long enough to swallow
/// unrolled straight-line attestation code, short enough that a build
/// wasted by early invalidation stays cheap.
pub const MAX_BLOCK_LEN: usize = 64;

const _: () = assert!(
    MAX_BLOCK_LEN * 6 <= 1 << PAGE_SHIFT,
    "a block's bytes must fit in two pages"
);

/// One predecoded instruction inside a superblock, with everything the
/// executor needs precomputed: the expected PC, the decoded form, and
/// whether any fetch word overlaps the attestation key (the
/// `R_en ∧ key` wire fires on fetches too).
#[derive(Debug, Clone, Copy)]
pub struct TraceStep {
    /// PC this step must execute at.
    pub pc: u16,
    /// Decoded instruction.
    pub instr: Instr,
    /// Encoded size in bytes (2, 4, or 6).
    pub size: u16,
    /// True when any fetch word of this instruction touches the key
    /// region (folded once when the trace is built: interior steps
    /// replay no fetch traffic).
    pub fetch_ren_key: bool,
}

/// A straight-line trace plus the page generations it was decoded
/// under. An *empty* block (no steps) is the cached "don't try" marker
/// for entry PCs whose fetch touches MMIO; it is always valid.
#[derive(Debug)]
pub struct Superblock {
    /// The chained steps, entry first.
    pub steps: Box<[TraceStep]>,
    /// The `(page base address, generation)` pairs of the first and the
    /// last byte the steps were decoded from: one page twice unless the
    /// steps straddle a page edge. `None` for an empty block.
    pub pages: Option<[(u16, u64); 2]>,
}

impl Superblock {
    /// A block of `steps`, contiguous from the entry as the builder
    /// chains them, stamped with the generations of the pages they lie
    /// in.
    pub(crate) fn new(steps: &[TraceStep], mem: &Memory) -> Superblock {
        let stamp = |addr: u16| {
            (
                addr & !((1u16 << PAGE_SHIFT) - 1),
                mem.page_generation(addr),
            )
        };
        let pages = steps.first().zip(steps.last()).map(|(first, last)| {
            let end = last.pc.wrapping_add(last.size - 1);
            [stamp(first.pc), stamp(end)]
        });
        Superblock {
            steps: steps.into(),
            pages,
        }
    }

    /// True while every covered page still has the generation the
    /// block was built under.
    #[inline]
    pub(crate) fn valid(&self, mem: &Memory) -> bool {
        let fresh = |(addr, gen): (u16, u64)| mem.page_generation(addr) == gen;
        match self.pages {
            None => true,
            Some([first, last]) => fresh(first) && (last.0 == first.0 || fresh(last)),
        }
    }
}

/// True when `instr` must end a superblock: anything that can redirect
/// control flow or rewrite `SR` (GIE/CPUOFF visibility). The predicate
/// is a heuristic for *building* — correctness never depends on it,
/// because the executor re-checks the PC against the trace and polls
/// halt/IRQ state at every boundary.
pub fn terminates_block(instr: &Instr) -> bool {
    fn writes_pc_or_sr(op: &Operand) -> bool {
        matches!(op, Operand::Reg(Reg::PC) | Operand::Reg(Reg::SR))
    }
    match instr {
        Instr::Jump { .. } | Instr::Illegal(_) => true,
        Instr::One { op, opnd, .. } => match op {
            OneOp::Call | OneOp::Reti => true,
            // Read-modify-write one-ops: terminate on PC/SR destinations
            // and on literal operands (the CPU latches a fault there).
            OneOp::Rrc | OneOp::Swpb | OneOp::Rra | OneOp::Sxt => {
                writes_pc_or_sr(opnd) || matches!(opnd, Operand::Immediate(_) | Operand::Const(_))
            }
            OneOp::Push => false,
        },
        Instr::Two { dst, .. } => writes_pc_or_sr(dst),
    }
}

/// Counters for one cache tier (predecode slots or superblocks).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct CacheStats {
    /// Lookups satisfied by a still-valid entry.
    pub hits: u64,
    /// Lookups that had to (re)build.
    pub misses: u64,
    /// Entries found stale (page generation moved) at lookup.
    pub invalidations: u64,
    /// Superblocks constructed.
    pub blocks_built: u64,
    /// Superblocks discarded — stale at lookup or swept by a cache
    /// clear (MMIO topology change, predecode toggle).
    pub blocks_retired: u64,
}

impl CacheStats {
    /// Field-wise sum, for totalling the counters of several devices.
    pub fn merge(self, other: CacheStats) -> CacheStats {
        CacheStats {
            hits: self.hits + other.hits,
            misses: self.misses + other.misses,
            invalidations: self.invalidations + other.invalidations,
            blocks_built: self.blocks_built + other.blocks_built,
            blocks_retired: self.blocks_retired + other.blocks_retired,
        }
    }
}

/// PC-indexed store of superblocks keyed by entry PC, in the same
/// sparse [`PcTable`] as the predecode cache: 64-byte chunks of 32
/// entry slots, each allocated on the first block built inside it.
/// Blocks are held behind `Arc` so the executor can run a trace without
/// borrowing the cache (`Device` stays `Send` for the fleet's prover
/// threads). Its counters go to the [`CacheStats`] the caller passes,
/// which the MCU shares with the predecode tier.
#[derive(Debug, Default)]
pub(crate) struct BlockCache {
    blocks: PcTable<Option<Arc<Superblock>>>,
}

impl BlockCache {
    /// Returns the still-valid block at `pc`, counting hit/miss and
    /// retiring stale entries in place.
    pub(crate) fn get(
        &mut self,
        pc: u16,
        mem: &Memory,
        stats: &mut CacheStats,
    ) -> Option<Arc<Superblock>> {
        if let Some(slot) = self.blocks.get_mut(pc) {
            if let Some(block) = slot {
                if block.valid(mem) {
                    stats.hits += 1;
                    return Some(Arc::clone(block));
                }
                stats.invalidations += 1;
                stats.blocks_retired += 1;
                *slot = None;
            }
        }
        stats.misses += 1;
        None
    }

    /// Stores a freshly built block at `pc`.
    pub(crate) fn insert(&mut self, pc: u16, block: Arc<Superblock>, stats: &mut CacheStats) {
        let slot = self.blocks.slot(pc);
        debug_assert!(slot.is_none());
        *slot = Some(block);
        stats.blocks_built += 1;
    }

    /// Drops every block, counting each resident one as retired. Used
    /// on MMIO topology changes and when predecoding is switched off.
    pub(crate) fn clear(&mut self, stats: &mut CacheStats) {
        stats.blocks_retired += self.blocks.slots().flatten().count() as u64;
        self.blocks.clear();
    }

    /// True when the 64-byte chunk holding `addr` was never allocated.
    #[cfg(test)]
    pub(crate) fn chunk_empty(&self, addr: u16) -> bool {
        self.blocks.get(addr).is_none()
    }
}

/// Configuration for one `Mcu::run_superblock` burst.
#[derive(Debug, Clone, Copy)]
pub struct SbConfig {
    /// Maximum number of steps to execute.
    pub budget: u64,
    /// Stop (before executing) when the PC reaches this address.
    pub stop_pc: Option<u16>,
    /// Hardware cell rewritten with the observer's `exec` level after
    /// every interior step (the device's EXEC flag).
    pub exec_cell: Option<u16>,
}

/// Observer verdict for one interior step.
#[derive(Debug, Clone, Copy, Default)]
pub struct StepCtl {
    /// Level to drive onto `SbConfig::exec_cell`.
    pub exec: bool,
    /// Abort the burst after this step (monitor-requested reset).
    pub stop: bool,
}

/// Why a `run_superblock` burst returned.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SbExit {
    /// The step budget was consumed.
    Budget,
    /// The PC reached `SbConfig::stop_pc` at a step boundary.
    StopPc,
    /// The next step cannot run inside a trace (serviceable interrupt,
    /// halted/idle CPU, MMIO-touching fetch, predecode disabled):
    /// execute exactly one `step_into` and come back.
    NeedStep,
    /// The observer requested a stop (monitor reset).
    ObserverStop,
    /// The executed step reported a CPU fault.
    Fault,
}

/// The monitor-observable wires of one step as one bitset: the
/// vocabulary the security monitors are written and model-checked over,
/// one bit per wire (`vrased::props` pairs each bit with its
/// proposition name). [`WireSummary::fold`] raises the access wires;
/// the PC-comparison wires are derived from the PC by the observer,
/// which owns the `ER` and SW-Att geometry.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq, Hash)]
pub struct Wires(pub u32);

impl Wires {
    /// Interrupt service began this step.
    pub const IRQ: Wires = Wires(1 << 0);
    /// The step latched a CPU fault.
    pub const FAULT: Wires = Wires(1 << 1);
    /// At least one DMA operation landed (`DMAen`).
    pub const DMA_ACTIVE: Wires = Wires(1 << 2);
    /// A CPU read or fetch touched the key region.
    pub const REN_KEY: Wires = Wires(1 << 3);
    /// A DMA access touched the key region.
    pub const DMA_KEY: Wires = Wires(1 << 4);
    /// A CPU write touched the IVT (`Wen ∧ Daddr ∈ IVT`).
    pub const WEN_IVT: Wires = Wires(1 << 5);
    /// A DMA access touched the IVT (`DMAen ∧ DMAaddr ∈ IVT`).
    pub const DMA_IVT: Wires = Wires(1 << 6);
    /// A CPU write touched the output region.
    pub const WEN_OR: Wires = Wires(1 << 7);
    /// A DMA access touched the output region.
    pub const DMA_OR: Wires = Wires(1 << 8);
    /// A CPU write touched the execution region.
    pub const WEN_ER: Wires = Wires(1 << 9);
    /// A DMA access touched the execution region.
    pub const DMA_ER: Wires = Wires(1 << 10);
    /// `PC ∈ SW-Att`.
    pub const PC_IN_SWATT: Wires = Wires(1 << 11);
    /// `PC` at the SW-Att entry point.
    pub const PC_AT_SWATT_MIN: Wires = Wires(1 << 12);
    /// `PC` at the SW-Att exit point.
    pub const PC_AT_SWATT_MAX: Wires = Wires(1 << 13);
    /// `PC ∈ ER`.
    pub const PC_IN_ER: Wires = Wires(1 << 14);
    /// `PC = ERmin` (the legal entry).
    pub const PC_AT_ERMIN: Wires = Wires(1 << 15);
    /// `PC = ERmax` (the legal exit instruction).
    pub const PC_AT_EREXIT: Wires = Wires(1 << 16);

    /// The union of `wires`, usable in a `const`.
    pub const fn union(wires: &[Wires]) -> Wires {
        let (mut bits, mut i) = (0, 0);
        while i < wires.len() {
            bits |= wires[i].0;
            i += 1;
        }
        Wires(bits)
    }

    /// True when every wire of `w` is set.
    #[inline]
    pub const fn contains(self, w: Wires) -> bool {
        self.0 & w.0 == w.0
    }

    /// `self` when `on`, no wire otherwise.
    #[inline]
    pub const fn when(self, on: bool) -> Wires {
        Wires(self.0 * on as u32)
    }

    /// Deposits the low bits of `bits` into the wires of this mask,
    /// lowest first: bit `k` of `bits` drives the mask's `k`-th lowest
    /// wire. A model-checking valuation over a mask's wire names, listed
    /// in bit order, decodes to its wires this way.
    pub fn deposit(self, bits: u32) -> Wires {
        let (mut mask, mut out) = (self.0, 0);
        for k in 0..self.0.count_ones() {
            let low = mask & mask.wrapping_neg();
            out |= low * (bits >> k & 1);
            mask ^= low;
        }
        Wires(out)
    }
}

impl std::ops::BitOr for Wires {
    type Output = Wires;

    #[inline]
    fn bitor(self, other: Wires) -> Wires {
        Wires(self.0 | other.0)
    }
}

impl std::ops::BitOrAssign for Wires {
    #[inline]
    fn bitor_assign(&mut self, other: Wires) {
        self.0 |= other.0;
    }
}

/// One superblock-interior step as the observer sees it, and the
/// accumulator of [`WireSummary::fold`]. Interrupt servicing never
/// happens inside a trace, so [`Wires::IRQ`] stays low; the
/// PC-comparison wires are derived from `pc` by the observer.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct WireSummary {
    /// Step index (after the step executed), for violation logs.
    pub step: u64,
    /// PC the step executed at.
    pub pc: u16,
    /// The fault and access wires.
    pub wires: Wires,
}

impl WireSummary {
    /// Folds one bus access into the access wires — the one fold behind
    /// the superblock bus, the DMA drain and the per-step wire
    /// extraction. CPU reads and fetches raise `REN_KEY`; CPU writes the
    /// `WEN_*` wires; any DMA access `DMA_ACTIVE` and the `DMA_*` wires.
    /// A word access touches a region through either byte. With `er`
    /// `None` (no execution region configured) the ER wires stay low.
    // Inline across crates: `PropCtx::wires_of` folds every logged access.
    #[inline]
    pub fn fold(&mut self, layout: &MemLayout, er: Option<MemRegion>, a: &MemAccess) {
        let touches = |r: MemRegion| r.touches(a.addr, a.byte);
        self.wires |= match a.master {
            Master::Cpu if a.write => {
                Wires::WEN_IVT.when(touches(layout.ivt))
                    | Wires::WEN_OR.when(touches(layout.or))
                    | Wires::WEN_ER.when(er.is_some_and(touches))
            }
            Master::Cpu => Wires::REN_KEY.when(touches(layout.key)),
            Master::Dma => {
                Wires::DMA_ACTIVE
                    | Wires::DMA_KEY.when(touches(layout.key))
                    | Wires::DMA_IVT.when(touches(layout.ivt))
                    | Wires::DMA_OR.when(touches(layout.or))
                    | Wires::DMA_ER.when(er.is_some_and(touches))
            }
        };
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::isa::Cond;

    #[test]
    fn terminators_cover_control_flow() {
        assert!(terminates_block(&Instr::Jump {
            cond: Cond::Always,
            offset: -1,
        }));
        assert!(terminates_block(&Instr::Illegal(0xFFFF)));
        assert!(terminates_block(&Instr::One {
            op: OneOp::Call,
            byte: false,
            opnd: Operand::Immediate(0xE000),
        }));
        assert!(terminates_block(&Instr::One {
            op: OneOp::Reti,
            byte: false,
            opnd: Operand::Reg(Reg::PC),
        }));
        // mov #1, r15 — plain straight-line data move.
        assert!(!terminates_block(&Instr::Two {
            op: crate::isa::TwoOp::Mov,
            byte: false,
            src: Operand::Immediate(1),
            dst: Operand::Reg(Reg::r(15)),
        }));
        // mov #x, pc — computed branch.
        assert!(terminates_block(&Instr::Two {
            op: crate::isa::TwoOp::Mov,
            byte: false,
            src: Operand::Immediate(0xE000),
            dst: Operand::Reg(Reg::PC),
        }));
        // bis #CPUOFF, sr — sleeps the CPU.
        assert!(terminates_block(&Instr::Two {
            op: crate::isa::TwoOp::Bis,
            byte: false,
            src: Operand::Const(16),
            dst: Operand::Reg(Reg::SR),
        }));
        // rra #4 — literal RMW operand latches a fault.
        assert!(terminates_block(&Instr::One {
            op: OneOp::Rra,
            byte: false,
            opnd: Operand::Const(4),
        }));
        // push r15 stays in the trace.
        assert!(!terminates_block(&Instr::One {
            op: OneOp::Push,
            byte: false,
            opnd: Operand::Reg(Reg::r(15)),
        }));
    }

    #[test]
    fn deposit_fills_the_mask_lowest_wire_first() {
        let mask = Wires::union(&[Wires::FAULT, Wires::WEN_IVT, Wires::PC_AT_EREXIT]);
        assert_eq!(mask.deposit(0b000), Wires::default());
        assert_eq!(mask.deposit(0b001), Wires::FAULT);
        assert_eq!(mask.deposit(0b110), Wires::WEN_IVT | Wires::PC_AT_EREXIT);
        assert_eq!(mask.deposit(!0), mask);
    }

    /// A straight-line step of `size` bytes at `pc`.
    fn step(pc: u16, size: u16) -> TraceStep {
        TraceStep {
            pc,
            instr: Instr::Illegal(0),
            size,
            fetch_ren_key: false,
        }
    }

    /// The contiguous steps of `sizes` from `entry`.
    fn chain(entry: u16, sizes: &[u16]) -> Vec<TraceStep> {
        let mut pc = entry;
        sizes
            .iter()
            .map(|&size| {
                let s = step(pc, size);
                pc = pc.wrapping_add(size);
                s
            })
            .collect()
    }

    #[test]
    fn block_cache_counts_and_clears() {
        let mem = Memory::new();
        let (mut cache, mut stats) = (BlockCache::default(), CacheStats::default());
        assert!(cache.get(0xE000, &mem, &mut stats).is_none());
        assert!(cache.chunk_empty(0xE000), "a miss allocates nothing");
        let empty = Superblock::new(&[], &mem);
        assert!(empty.pages.is_none() && empty.steps.is_empty());
        cache.insert(0xE000, Arc::new(empty), &mut stats);
        assert!(cache.get(0xE000, &mem, &mut stats).is_some());
        assert_eq!((stats.hits, stats.misses, stats.blocks_built), (1, 1, 1));
        assert!(
            !cache.chunk_empty(0xE03E),
            "the insert allocated 0xE000's chunk"
        );
        assert!(cache.chunk_empty(0xE040), "and only that chunk");
        cache.clear(&mut stats);
        assert_eq!(stats.blocks_retired, 1);
        assert!(cache.chunk_empty(0xE000));
        // Stats survive the clear.
        assert_eq!(stats.hits, 1);
    }

    #[test]
    fn stale_page_generation_retires_block() {
        let mut mem = Memory::new();
        let (mut cache, mut stats) = (BlockCache::default(), CacheStats::default());
        let block = Superblock::new(&chain(0xE000, &[4]), &mem);
        assert_eq!(block.pages, Some([(0xE000, 0); 2]));
        cache.insert(0xE000, Arc::new(block), &mut stats);
        assert!(cache.get(0xE000, &mem, &mut stats).is_some());
        mem.write(0xE002, 0xBEEF, false);
        assert!(cache.get(0xE000, &mem, &mut stats).is_none());
        assert_eq!(stats.invalidations, 1);
        assert_eq!(stats.blocks_retired, 1);
    }

    #[test]
    fn a_block_straddling_a_page_edge_is_retired_by_either_page() {
        // Three steps from 0xE1F8: the last, 0xE1FE..=0xE203, opens the
        // page at 0xE200. The edge between 0xFFFE and 0x0000 wraps the
        // address space the same way.
        for (entry, second) in [(0xE1F8u16, 0xE200u16), (0xFFF8, 0x0000)] {
            let first = entry & !0x1FF;
            for written in [first, second] {
                let mut mem = Memory::new();
                mem.write_word(first, 1);
                let (mut cache, mut stats) = (BlockCache::default(), CacheStats::default());
                let block = Superblock::new(&chain(entry, &[2, 4, 6]), &mem);
                assert_eq!(block.steps.len(), 3);
                assert_eq!(block.pages, Some([(first, 1), (second, 0)]));
                cache.insert(entry, Arc::new(block), &mut stats);
                // A write to a third page leaves the block valid.
                mem.write_word(first.wrapping_sub(0x200), 1);
                assert!(cache.get(entry, &mem, &mut stats).is_some());
                mem.write_word(written, 2);
                assert!(
                    cache.get(entry, &mem, &mut stats).is_none(),
                    "a write at {written:#06x} retires the block at {entry:#06x}"
                );
                assert_eq!((stats.invalidations, stats.blocks_retired), (1, 1));
            }
        }
    }
}
