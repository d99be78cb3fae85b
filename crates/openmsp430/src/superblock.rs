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
use crate::pctable::PcTable;
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

/// PC-indexed store of superblocks keyed by entry PC, in the same
/// sparse [`PcTable`] as the predecode cache: 64-byte chunks of 32
/// entry slots, each allocated on the first block built inside it.
/// Blocks are held behind `Arc` so the executor can run a trace without
/// borrowing the cache (`Device` stays `Send` for the fleet's prover
/// threads).
#[derive(Debug, Default)]
pub(crate) struct BlockCache {
    blocks: PcTable<Option<Arc<Superblock>>>,
    stats: CacheStats,
}

impl BlockCache {
    /// Returns the still-valid block at `pc`, counting hit/miss and
    /// retiring stale entries in place.
    pub(crate) fn get(&mut self, pc: u16, mem: &Memory) -> Option<Arc<Superblock>> {
        if let Some(slot) = self.blocks.get_mut(pc) {
            if let Some(block) = slot {
                if block.valid(mem) {
                    self.stats.hits += 1;
                    return Some(Arc::clone(block));
                }
                self.stats.invalidations += 1;
                self.stats.blocks_retired += 1;
                *slot = None;
            }
        }
        self.stats.misses += 1;
        None
    }

    /// Stores a freshly built block at `pc`.
    pub(crate) fn insert(&mut self, pc: u16, block: Arc<Superblock>) {
        let slot = self.blocks.slot(pc);
        debug_assert!(slot.is_none());
        *slot = Some(block);
        self.stats.blocks_built += 1;
    }

    /// Drops every block, preserving counters (each resident block is
    /// counted as retired). Used on MMIO topology changes and when
    /// predecoding is switched off.
    pub(crate) fn clear(&mut self) {
        self.stats.blocks_retired += self.blocks.slots().flatten().count() as u64;
        self.blocks.clear();
    }

    pub(crate) fn stats(&self) -> CacheStats {
        self.stats
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

    #[test]
    fn block_cache_counts_and_clears() {
        let mem = Memory::new();
        let mut cache = BlockCache::default();
        assert!(cache.get(0xE000, &mem).is_none());
        assert!(cache.chunk_empty(0xE000), "a miss allocates nothing");
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
        assert!(
            !cache.chunk_empty(0xE03E),
            "the insert allocated 0xE000's chunk"
        );
        assert!(cache.chunk_empty(0xE040), "and only that chunk");
        cache.clear();
        assert_eq!(cache.stats().blocks_retired, 1);
        assert!(cache.chunk_empty(0xE000));
        // Stats survive the clear.
        assert_eq!(cache.stats().hits, 1);
    }

    #[test]
    fn stale_page_generation_retires_block() {
        let mut mem = Memory::new();
        let mut cache = BlockCache::default();
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
