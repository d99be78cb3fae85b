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

use crate::bus::{Master, MemAccess};
use crate::isa::{Instr, OneOp, Operand};
use crate::layout::MemLayout;
use crate::mem::{MemRegion, Memory, PAGE_SHIFT};
use crate::regs::Reg;
use std::sync::Arc;

/// Longest trace a single superblock may hold. Long enough to swallow
/// unrolled straight-line attestation code, short enough that a build
/// wasted by early invalidation stays cheap.
pub const MAX_BLOCK_LEN: usize = 64;

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
    pub steps: Vec<TraceStep>,
    /// Deduplicated `(page base address, generation)` pairs covering
    /// every byte the steps were decoded from.
    pub pages: Vec<(u16, u64)>,
}

impl Superblock {
    /// True while every covered page still has the generation the
    /// block was built under.
    pub(crate) fn valid(&self, mem: &Memory) -> bool {
        self.pages
            .iter()
            .all(|&(addr, gen)| mem.page_generation(addr) == gen)
    }

    /// Records the page(s) covering `[addr, addr + len)` in `pages`.
    pub(crate) fn cover(pages: &mut Vec<(u16, u64)>, mem: &Memory, addr: u16, len: u16) {
        let last = addr.wrapping_add(len.wrapping_sub(1));
        for a in [addr, last] {
            let base = a & !((1u16 << PAGE_SHIFT) - 1);
            if !pages.iter().any(|&(b, _)| b == base) {
                pages.push((base, mem.page_generation(a)));
            }
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
    /// Field-wise sum, for merging the predecode and superblock tiers.
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

const BLOCKS_PER_PAGE: usize = 1 << (PAGE_SHIFT - 1);
const BLOCK_PAGES: usize = 0x1_0000 >> PAGE_SHIFT;

type BlockPage = [Option<Arc<Superblock>>; BLOCKS_PER_PAGE];

/// Page-indexed store of superblocks keyed by entry PC, mirroring the
/// predecode cache's layout. Blocks are held behind `Arc` so the
/// executor can run a trace without borrowing the cache (`Device`
/// stays `Send` for the fleet's prover threads).
#[derive(Debug, Default)]
pub(crate) struct BlockCache {
    pages: Vec<Option<Box<BlockPage>>>,
    stats: CacheStats,
}

impl BlockCache {
    pub(crate) fn new() -> BlockCache {
        BlockCache {
            pages: Vec::new(),
            stats: CacheStats::default(),
        }
    }

    fn slot_of(pc: u16) -> (usize, usize) {
        let word = (pc >> 1) as usize;
        (word / BLOCKS_PER_PAGE, word % BLOCKS_PER_PAGE)
    }

    /// Returns the still-valid block at `pc`, counting hit/miss and
    /// retiring stale entries in place.
    pub(crate) fn get(&mut self, pc: u16, mem: &Memory) -> Option<Arc<Superblock>> {
        let (page, slot) = Self::slot_of(pc);
        if let Some(Some(p)) = self.pages.get_mut(page) {
            if let Some(block) = &p[slot] {
                if block.valid(mem) {
                    self.stats.hits += 1;
                    return Some(Arc::clone(block));
                }
                self.stats.invalidations += 1;
                self.stats.blocks_retired += 1;
                p[slot] = None;
            }
        }
        self.stats.misses += 1;
        None
    }

    /// Stores a freshly built block at `pc`.
    pub(crate) fn insert(&mut self, pc: u16, block: Arc<Superblock>) {
        let (page, slot) = Self::slot_of(pc);
        if self.pages.len() <= page {
            self.pages.resize_with(BLOCK_PAGES, || None);
        }
        let p = self.pages[page].get_or_insert_with(|| Box::new(std::array::from_fn(|_| None)));
        debug_assert!(p[slot].is_none());
        p[slot] = Some(block);
        self.stats.blocks_built += 1;
    }

    /// Drops every block, preserving counters (each resident block is
    /// counted as retired). Used on MMIO topology changes and when
    /// predecoding is switched off.
    pub(crate) fn clear(&mut self) {
        for page in self.pages.iter_mut().flatten() {
            for slot in page.iter_mut() {
                if slot.take().is_some() {
                    self.stats.blocks_retired += 1;
                }
            }
        }
        self.pages.clear();
    }

    pub(crate) fn stats(&self) -> CacheStats {
        self.stats
    }

    /// True when `page_of(addr)` holds no blocks (page never populated).
    #[cfg(test)]
    pub(crate) fn page_empty(&self, addr: u16) -> bool {
        let idx = crate::mem::page_of(addr);
        !matches!(self.pages.get(idx), Some(Some(_)))
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

/// The monitor-observable wires of one superblock-interior step, and
/// the accumulator of [`WireSummary::fold`]. Interrupt servicing never
/// happens inside a trace, so there is no `irq` field; the
/// PC-comparison wires are derived from `pc` by the observer (which
/// owns the ER layout).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct WireSummary {
    /// Step index (after the step executed), for violation logs.
    pub step: u64,
    /// PC the step executed at.
    pub pc: u16,
    /// The step latched a CPU fault.
    pub fault: bool,
    /// At least one DMA operation landed.
    pub dma_active: bool,
    /// A CPU read or fetch touched the key region.
    pub ren_key: bool,
    /// A DMA access touched the key region.
    pub dma_key: bool,
    /// A CPU write touched the IVT.
    pub wen_ivt: bool,
    /// A DMA access touched the IVT.
    pub dma_ivt: bool,
    /// A CPU write touched the output region.
    pub wen_or: bool,
    /// A DMA access touched the output region.
    pub dma_or: bool,
    /// A CPU write touched the execution region.
    pub wen_er: bool,
    /// A DMA access touched the execution region.
    pub dma_er: bool,
}

impl WireSummary {
    /// Folds one bus access into the access wires — the one fold behind
    /// the superblock bus, the DMA drain and the per-step wire
    /// extraction. CPU reads and fetches raise `ren_key`; CPU writes the
    /// `wen_*` wires; any DMA access `dma_active` and the `dma_*` wires.
    /// A word access touches a region through either byte. With `er`
    /// `None` (no execution region configured) the ER wires stay low.
    // Inline across crates: `WireImage::of` folds every logged access.
    #[inline]
    pub fn fold(&mut self, layout: &MemLayout, er: Option<MemRegion>, a: &MemAccess) {
        let touches = |r: MemRegion| r.touches(a.addr, a.byte);
        match a.master {
            Master::Cpu if a.write => {
                self.wen_ivt |= touches(layout.ivt);
                self.wen_or |= touches(layout.or);
                self.wen_er |= er.is_some_and(touches);
            }
            Master::Cpu => self.ren_key |= touches(layout.key),
            Master::Dma => {
                self.dma_active = true;
                self.dma_key |= touches(layout.key);
                self.dma_ivt |= touches(layout.ivt);
                self.dma_or |= touches(layout.or);
                self.dma_er |= er.is_some_and(touches);
            }
        }
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
    fn block_cache_counts_and_clears() {
        let mem = Memory::new();
        let mut cache = BlockCache::new();
        assert!(cache.get(0xE000, &mem).is_none());
        cache.insert(
            0xE000,
            Arc::new(Superblock {
                steps: Vec::new(),
                pages: Vec::new(),
            }),
        );
        assert!(cache.get(0xE000, &mem).is_some());
        let s = cache.stats();
        assert_eq!((s.hits, s.misses, s.blocks_built), (1, 1, 1));
        cache.clear();
        assert_eq!(cache.stats().blocks_retired, 1);
        assert!(cache.page_empty(0xE000));
        // Stats survive the clear.
        assert_eq!(cache.stats().hits, 1);
    }

    #[test]
    fn stale_page_generation_retires_block() {
        let mut mem = Memory::new();
        let mut cache = BlockCache::new();
        let mut pages = Vec::new();
        Superblock::cover(&mut pages, &mem, 0xE000, 4);
        cache.insert(
            0xE000,
            Arc::new(Superblock {
                steps: Vec::new(),
                pages,
            }),
        );
        assert!(cache.get(0xE000, &mem).is_some());
        mem.write(0xE002, 0xBEEF, false);
        assert!(cache.get(0xE000, &mem).is_none());
        let s = cache.stats();
        assert_eq!(s.invalidations, 1);
        assert_eq!(s.blocks_retired, 1);
    }
}
