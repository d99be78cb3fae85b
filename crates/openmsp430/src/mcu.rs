//! The MCU top level: CPU + memory + peripherals + DMA + interrupt
//! controller, producing one [`Signals`] bundle per step for hardware
//! monitors to observe.

use crate::bus::{Bus, Master, MemAccess};
use crate::cpu::{Cpu, IVT_VECTORS};
use crate::layout::MemLayout;
use crate::mem::{MemRegion, Memory};
use crate::periph::{DmaOp, Peripheral};
use crate::predecode::DecodeCache;
use crate::signals::Signals;
use crate::superblock::{
    terminates_block, BlockCache, CacheStats, SbConfig, SbExit, StepCtl, Superblock, TraceStep,
    WireSummary, Wires, MAX_BLOCK_LEN,
};
use std::sync::Arc;

/// Hardware-owned MMIO word cell (e.g. the `EXEC` flag): readable by
/// software, writes silently ignored (only the owning hardware module may
/// change it via [`Mcu::set_hw_cell`]).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
struct HwCell {
    addr: u16,
    value: u16,
}

/// A peripheral's MMIO extent, indexed for sorted-range lookup:
/// `(start, end, index into periphs)`.
type PeriphRange = (u16, u16, usize);

/// Sorted-range lookup: the peripheral (by `periphs` index) answering
/// `addr`, if any. Ranges are sorted by start and non-overlapping
/// (enforced by [`Mcu::add_peripheral`]), so the predecessor by start is
/// the only candidate.
fn periph_lookup(ranges: &[PeriphRange], addr: u16) -> Option<usize> {
    let i = ranges.partition_point(|r| r.0 <= addr);
    let &(_, end, idx) = ranges.get(i.checked_sub(1)?)?;
    (addr <= end).then_some(idx)
}

/// Sorted lookup of a hardware cell by its word-aligned address.
fn hw_cell_lookup(cells: &[HwCell], addr: u16) -> Option<usize> {
    cells.binary_search_by_key(&(addr & !1), |c| c.addr).ok()
}

/// A complete simulated MCU.
///
/// # Examples
///
/// ```
/// use openmsp430::mcu::Mcu;
/// use openmsp430::layout::MemLayout;
///
/// let mut mcu = Mcu::new(MemLayout::default());
/// // Program: mov #0xBEEF, &0x0200 ; jmp $-0 (spin)
/// mcu.mem.write_word(0xE000, 0x40B2);
/// mcu.mem.write_word(0xE002, 0xBEEF);
/// mcu.mem.write_word(0xE004, 0x0200);
/// mcu.mem.write_word(0xE006, 0x3FFF); // jmp -1 (self)
/// mcu.mem.write_word(0xFFFE, 0xE000); // reset vector
/// mcu.reset();
/// mcu.step();
/// assert_eq!(mcu.mem.read_word(0x0200), 0xBEEF);
/// ```
pub struct Mcu {
    /// The CPU core.
    pub cpu: Cpu,
    /// Sparse paged memory (flash + RAM); MMIO ranges are intercepted by
    /// peripherals and hardware cells.
    pub mem: Memory,
    /// The memory map.
    pub layout: MemLayout,
    periphs: Vec<Box<dyn Peripheral>>,
    /// Kept sorted by MMIO start for sorted-range lookup.
    periph_ranges: Vec<PeriphRange>,
    /// Peripheral indices by capability, snapshotted at attach time so
    /// the per-step polling loops only visit peripherals that can answer.
    irq_periphs: Vec<usize>,
    dma_periphs: Vec<usize>,
    tick_periphs: Vec<usize>,
    /// Kept sorted by address for binary-search lookup.
    hw_cells: Vec<HwCell>,
    decode_cache: DecodeCache,
    block_cache: BlockCache,
    /// The counters of both cache tiers, which are only ever read
    /// merged.
    cache_stats: CacheStats,
    predecode_enabled: bool,
    cycle: u64,
    step_idx: u64,
    pending_irq: u16,
    injected_dma: Vec<DmaOp>,
    dma_scratch: Vec<DmaOp>,
}

impl std::fmt::Debug for Mcu {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Mcu")
            .field("cycle", &self.cycle)
            .field("step", &self.step_idx)
            .field("pc", &self.cpu.regs.pc())
            .field("periphs", &self.periphs.len())
            .finish()
    }
}

/// The non-maskable interrupt vector (serviced regardless of `GIE`).
pub const NMI_VECTOR: u8 = 14;

/// Where a routed bus access is reported: the per-step access log, or
/// a superblock step's wire fold. Statically dispatched through
/// [`McuBus`] and [`Mcu::end_step`].
trait Recorder {
    fn record(&mut self, layout: &MemLayout, a: MemAccess);
}

impl Recorder for Vec<MemAccess> {
    fn record(&mut self, _: &MemLayout, a: MemAccess) {
        self.push(a);
    }
}

/// A superblock step's access wires, folded as the accesses happen,
/// against the layout's `ER`.
#[derive(Default)]
struct WireFold {
    wires: WireSummary,
    /// Anything was written (superblock dirtiness, not a monitor wire).
    wrote: bool,
}

impl Recorder for WireFold {
    // A burst reports every bus access here, and the generic
    // `run_superblock` is compiled in the observer's crate: with a plain
    // `#[inline]` hint the call stayed out of line there.
    #[inline(always)]
    fn record(&mut self, layout: &MemLayout, a: MemAccess) {
        self.wrote |= a.write;
        self.wires.fold(layout, Some(layout.er), &a);
    }
}

/// The CPU's bus: hardware cell, then peripheral, then flat memory, with
/// hardware-cell writes dropped. Every access — a dropped write
/// included, so monitors still observe the attempt — goes to `rec`.
struct McuBus<'a, R> {
    mem: &'a mut Memory,
    periphs: &'a mut [Box<dyn Peripheral>],
    periph_ranges: &'a [PeriphRange],
    hw_cells: &'a [HwCell],
    layout: &'a MemLayout,
    rec: &'a mut R,
}

impl<R: Recorder> Bus for McuBus<'_, R> {
    fn read(&mut self, addr: u16, byte: bool, fetch: bool) -> u16 {
        let value = if let Some(i) = hw_cell_lookup(self.hw_cells, addr) {
            let word = self.hw_cells[i].value;
            match (byte, addr & 1) {
                (false, _) => word,
                (true, 0) => word & 0xFF,
                (true, _) => word >> 8,
            }
        } else if let Some(i) = periph_lookup(self.periph_ranges, addr) {
            self.periphs[i].read(addr, byte)
        } else {
            self.mem.read(addr, byte)
        };
        let access = MemAccess {
            addr,
            value,
            byte,
            write: false,
            fetch,
            master: Master::Cpu,
        };
        self.rec.record(self.layout, access);
        value
    }

    fn write(&mut self, addr: u16, val: u16, byte: bool) {
        if hw_cell_lookup(self.hw_cells, addr).is_some() {
            // Hardware-owned: software writes are dropped.
        } else if let Some(i) = periph_lookup(self.periph_ranges, addr) {
            self.periphs[i].write(addr, val, byte);
        } else {
            self.mem.write(addr, val, byte);
        }
        self.rec
            .record(self.layout, MemAccess::write(addr, val, byte));
    }
}

impl Mcu {
    /// Creates an MCU with the given memory map and no peripherals.
    pub fn new(layout: MemLayout) -> Mcu {
        Mcu {
            cpu: Cpu::new(),
            mem: Memory::new(),
            layout,
            periphs: Vec::new(),
            periph_ranges: Vec::new(),
            irq_periphs: Vec::new(),
            dma_periphs: Vec::new(),
            tick_periphs: Vec::new(),
            hw_cells: Vec::new(),
            decode_cache: DecodeCache::default(),
            block_cache: BlockCache::default(),
            cache_stats: CacheStats::default(),
            predecode_enabled: true,
            cycle: 0,
            step_idx: 0,
            pending_irq: 0,
            injected_dma: Vec::new(),
            dma_scratch: Vec::new(),
        }
    }

    /// Attaches a peripheral.
    ///
    /// # Panics
    ///
    /// Panics if its MMIO range overlaps an existing peripheral.
    pub fn add_peripheral(&mut self, p: Box<dyn Peripheral>) {
        let mmio = p.mmio();
        assert!(
            self.periphs.iter().all(|q| !q.mmio().overlaps(&mmio)),
            "peripheral MMIO ranges overlap"
        );
        let index = self.periphs.len();
        if p.raises_irqs() {
            self.irq_periphs.push(index);
        }
        if p.masters_dma() {
            self.dma_periphs.push(index);
        }
        if p.advances_time() {
            self.tick_periphs.push(index);
        }
        self.periphs.push(p);
        let entry = (mmio.start(), mmio.end(), index);
        let at = self.periph_ranges.partition_point(|r| r.0 < entry.0);
        self.periph_ranges.insert(at, entry);
        // The MMIO topology changed: entries cached before this range
        // existed may now shadow it, so start over.
        self.decode_cache.clear();
        self.block_cache.clear(&mut self.cache_stats);
    }

    /// Declares a hardware-owned MMIO word at `addr` (software read-only).
    ///
    /// # Panics
    ///
    /// Panics if `addr` is odd or a cell already exists there.
    pub fn add_hw_cell(&mut self, addr: u16, value: u16) {
        assert_eq!(addr & 1, 0, "hardware cells are word aligned");
        match self.hw_cells.binary_search_by_key(&addr, |c| c.addr) {
            Ok(_) => panic!("duplicate hardware cell at {addr:#06x}"),
            Err(at) => self.hw_cells.insert(at, HwCell { addr, value }),
        }
        // The MMIO topology changed: drop any decode cached over it.
        self.decode_cache.clear();
        self.block_cache.clear(&mut self.cache_stats);
    }

    /// Updates a hardware-owned cell (monitor-side write).
    pub fn set_hw_cell(&mut self, addr: u16, value: u16) {
        if let Ok(i) = self.hw_cells.binary_search_by_key(&addr, |c| c.addr) {
            self.hw_cells[i].value = value;
        }
    }

    /// Reads a hardware-owned cell.
    pub fn hw_cell(&self, addr: u16) -> Option<u16> {
        self.hw_cells
            .binary_search_by_key(&addr, |c| c.addr)
            .ok()
            .map(|i| self.hw_cells[i].value)
    }

    /// Enables or disables the predecoded-instruction cache (on by
    /// default). With it off, every step decodes through live bus reads —
    /// the legacy pipeline, kept selectable for ablation benchmarks and
    /// differential tests; both paths produce identical [`Signals`].
    pub fn set_predecode(&mut self, on: bool) {
        self.predecode_enabled = on;
        if !on {
            // Superblocks are built from predecoded entries; with the
            // cache off there is no trace tier either.
            self.block_cache.clear(&mut self.cache_stats);
        }
    }

    /// Eagerly predecodes every word-aligned address in `region` (e.g. the
    /// freshly loaded flash image), so the first pass over the code runs
    /// from the cache. Purely a warm-up: the cache also fills lazily on
    /// first fetch, and stays consistent under any later write via the
    /// memory write-generation check.
    pub fn predecode(&mut self, region: MemRegion) {
        if !self.predecode_enabled {
            return;
        }
        let mut addr = region.start() & !1;
        while region.contains(addr) {
            self.cached_instr(addr);
            match addr.checked_add(2) {
                Some(next) => addr = next,
                None => break,
            }
        }
    }

    /// Cache lookup/fill for the instruction at `pc`; `None` when the
    /// encoding touches MMIO (hardware cells or peripheral ranges).
    fn cached_instr(&mut self, pc: u16) -> Option<crate::predecode::CachedInstr> {
        let (hw_cells, periph_ranges) = (&self.hw_cells, &self.periph_ranges);
        let is_mmio = |addr| {
            hw_cell_lookup(hw_cells, addr).is_some() || periph_lookup(periph_ranges, addr).is_some()
        };
        self.decode_cache
            .lookup(pc, &self.mem, is_mmio, &mut self.cache_stats)
    }

    /// Borrows a concrete peripheral by type.
    pub fn periph<P: Peripheral>(&self) -> Option<&P> {
        self.periphs
            .iter()
            .find_map(|p| p.as_any().downcast_ref::<P>())
    }

    /// Mutably borrows a concrete peripheral by type.
    pub fn periph_mut<P: Peripheral>(&mut self) -> Option<&mut P> {
        self.periphs
            .iter_mut()
            .find_map(|p| p.as_any_mut().downcast_mut::<P>())
    }

    /// Asserts an external interrupt line (level-triggered until serviced).
    ///
    /// # Panics
    ///
    /// Panics if `vector >= 16`.
    pub fn raise_irq(&mut self, vector: u8) {
        assert!(vector < IVT_VECTORS, "vector out of range");
        self.pending_irq |= 1 << vector;
    }

    /// Queues a DMA operation performed by an external bus master on the
    /// next step (used to model the adversary's DMA capability).
    pub fn inject_dma(&mut self, op: DmaOp) {
        self.injected_dma.push(op);
    }

    /// Total cycles elapsed.
    pub fn cycles(&self) -> u64 {
        self.cycle
    }

    /// Charges `cycles` of non-CPU time (e.g. a ROM routine modelled
    /// natively) to the cycle counter, ticking peripherals accordingly.
    pub fn charge_cycles(&mut self, cycles: u64) {
        for &i in &self.tick_periphs {
            self.periphs[i].tick(cycles);
        }
        self.cycle += cycles;
    }

    /// Total steps executed.
    pub fn steps(&self) -> u64 {
        self.step_idx
    }

    /// True when some interrupt line is pending (pre-gating).
    pub fn irq_pending(&self) -> bool {
        self.pending_irq != 0
    }

    /// Hardware reset: CPU (PC from the reset vector), peripherals and
    /// pending interrupt state. Memory and cycle counters are preserved.
    pub fn reset(&mut self) {
        let mut log = Vec::new();
        let (cpu, mut bus) = self.cpu_and_bus(&mut log);
        cpu.reset(&mut bus);
        self.cpu.regs.set_sp(self.layout.stack_top);
        for p in &mut self.periphs {
            p.reset();
        }
        self.pending_irq = 0;
        self.injected_dma.clear();
    }

    /// The CPU and its bus over this MCU's memory map, reporting every
    /// access to `rec`.
    fn cpu_and_bus<'a, R>(&'a mut self, rec: &'a mut R) -> (&'a mut Cpu, McuBus<'a, R>) {
        let bus = McuBus {
            mem: &mut self.mem,
            periphs: &mut self.periphs,
            periph_ranges: &self.periph_ranges,
            hw_cells: &self.hw_cells,
            layout: &self.layout,
            rec,
        };
        (&mut self.cpu, bus)
    }

    /// Interrupt lines: peripheral flags are level signals re-evaluated
    /// each step (the latch lives in each peripheral's IFG register, as
    /// on real silicon); externally raised lines stay pending until
    /// serviced.
    fn irq_lines(&self) -> u16 {
        let mut lines = self.pending_irq;
        for &i in &self.irq_periphs {
            lines |= self.periphs[i].irq_lines();
        }
        lines
    }

    fn select_vector(&self, lines: u16) -> Option<u8> {
        if self.cpu.is_halted() {
            return None;
        }
        if lines & (1 << NMI_VECTOR) != 0 {
            return Some(NMI_VECTOR);
        }
        if !self.cpu.regs.gie() {
            return None;
        }
        let maskable = lines & !(1 << NMI_VECTOR);
        if maskable == 0 {
            None
        } else {
            Some(15 - maskable.leading_zeros() as u8)
        }
    }

    /// Executes one step (one instruction, interrupt entry or idle cycle)
    /// and returns the observed signals.
    ///
    /// Thin compatibility wrapper over [`Mcu::step_into`]: allocates a
    /// fresh [`Signals`] per call. Hot loops should hold one `Signals` and
    /// call `step_into` so the per-step access log reuses its buffer.
    pub fn step(&mut self) -> Signals {
        let mut signals = Signals::default();
        self.step_into(&mut signals);
        signals
    }

    /// Executes one step, writing the observed signals into `out`.
    ///
    /// `out.accesses` is cleared and refilled in place — across a steady
    /// workload its capacity stabilizes and stepping performs no heap
    /// allocation. The produced `Signals` are bit-for-bit identical to
    /// [`Mcu::step`]'s (which is this method plus an allocation), whether
    /// the instruction came from the predecode cache or a live fetch.
    pub fn step_into(&mut self, out: &mut Signals) {
        let lines = self.irq_lines();
        let irq_pending = lines != 0;
        let vector = self.select_vector(lines);

        out.accesses.clear();

        // Predecode stage: only when this step will actually fetch an
        // instruction (not halted / interrupt entry / low-power idle).
        // The cache replays the fetch bus traffic into the access log so
        // monitors observe exactly what a live fetch would have shown.
        let pc = self.cpu.regs.pc();
        let predecoded = if self.predecode_enabled
            && vector.is_none()
            && !self.cpu.is_halted()
            && !self.cpu.regs.cpu_off()
        {
            self.cached_instr(pc)
        } else {
            None
        };
        if let Some(entry) = &predecoded {
            for i in 0..entry.size / 2 {
                out.accesses.push(MemAccess::fetch(
                    pc.wrapping_add(2 * i),
                    entry.words[i as usize],
                ));
            }
        }

        let step_out = {
            let (cpu, mut bus) = self.cpu_and_bus(&mut out.accesses);
            match predecoded {
                Some(e) => cpu.step_predecoded(&mut bus, vector, e.instr, e.size),
                None => cpu.step(&mut bus, vector),
            }
        };

        if let Some(v) = step_out.serviced_irq {
            self.pending_irq &= !(1u16 << v);
            for p in &mut self.periphs {
                p.ack_irq(v);
            }
        }

        self.end_step(step_out.cycles, &mut out.accesses);

        out.cycle = self.cycle;
        out.step = self.step_idx;
        out.pc = step_out.pc_before;
        out.pc_next = step_out.pc_after;
        out.irq = step_out.serviced_irq.is_some();
        out.irq_vector = step_out.serviced_irq;
        out.irq_pending = irq_pending;
        out.gie = self.cpu.regs.gie();
        out.cpu_off = self.cpu.regs.cpu_off();
        out.idle = step_out.idle;
        out.fault = step_out.fault;
    }

    /// Merged statistics of the predecode and superblock caches.
    pub fn cache_stats(&self) -> CacheStats {
        self.cache_stats
    }

    /// Ends a step: drains its DMA — injected operations first, then
    /// each DMA-mastering peripheral's, each performed on memory and
    /// reported to `rec` as its read and its write — then advances the
    /// peripherals and counters by the step's `cycles`.
    fn end_step(&mut self, cycles: u64, rec: &mut impl Recorder) {
        self.dma_scratch.clear();
        self.dma_scratch.append(&mut self.injected_dma);
        for &i in &self.dma_periphs {
            self.dma_scratch.extend(self.periphs[i].dma_ops());
        }
        // Most steps move no DMA, and an empty `Drain` still costs a
        // burst step a few percent.
        if !self.dma_scratch.is_empty() {
            for op in self.dma_scratch.drain(..) {
                let value = self.mem.read(op.src, op.byte);
                self.mem.write(op.dst, value, op.byte);
                for (addr, write) in [(op.src, false), (op.dst, true)] {
                    let access = MemAccess {
                        addr,
                        value,
                        byte: op.byte,
                        write,
                        fetch: false,
                        master: Master::Dma,
                    };
                    rec.record(&self.layout, access);
                }
            }
        }
        for &i in &self.tick_periphs {
            self.periphs[i].tick(cycles);
        }
        self.cycle += cycles;
        self.step_idx += 1;
    }

    /// Why a burst must return before the step at the current PC, if it
    /// must: budget spent, stop PC reached, or a step no trace can run
    /// (predecoding off, halted or sleeping CPU, serviceable interrupt —
    /// post-GIE/NMI gating).
    // Inline: `run_superblock` is generic, so it is compiled in the
    // caller's crate, where this would otherwise stay a call per step.
    #[inline]
    fn boundary_exit(&self, cfg: &SbConfig, done: u64) -> Option<SbExit> {
        if done >= cfg.budget {
            return Some(SbExit::Budget);
        }
        if cfg.stop_pc == Some(self.cpu.regs.pc()) {
            return Some(SbExit::StopPc);
        }
        if !self.predecode_enabled || self.cpu.is_halted() || self.cpu.regs.cpu_off() {
            return Some(SbExit::NeedStep);
        }
        let lines = self.irq_lines();
        (lines != 0 && self.select_vector(lines).is_some()).then_some(SbExit::NeedStep)
    }

    /// The superblock entered at `pc`, built (and cached) on a miss.
    fn superblock_at(&mut self, pc: u16) -> Arc<Superblock> {
        if let Some(block) = self.block_cache.get(pc, &self.mem, &mut self.cache_stats) {
            return block;
        }
        let block = Arc::new(self.build_superblock(pc));
        self.block_cache
            .insert(pc, Arc::clone(&block), &mut self.cache_stats);
        block
    }

    /// Chains predecoded instructions from `entry` until a terminator,
    /// an MMIO-touching fetch, or the length cap. An empty block marks
    /// an entry whose own fetch touches MMIO ("always take the per-step
    /// path here"). The steps are chained in a stack buffer, so the
    /// block stores them at their exact length.
    fn build_superblock(&mut self, entry: u16) -> Superblock {
        let pad = TraceStep {
            pc: entry,
            instr: crate::isa::Instr::Illegal(0),
            size: 2,
            fetch_ren_key: false,
        };
        let mut steps = [pad; MAX_BLOCK_LEN];
        let mut len = 0;
        let mut pc = entry;
        while len < MAX_BLOCK_LEN {
            let Some(e) = self.cached_instr(pc) else {
                break;
            };
            let mut fetch = WireFold::default();
            for i in 0..e.size / 2 {
                let word = MemAccess::fetch(pc.wrapping_add(2 * i), e.words[i as usize]);
                fetch.record(&self.layout, word);
            }
            steps[len] = TraceStep {
                pc,
                instr: e.instr,
                size: e.size,
                fetch_ren_key: fetch.wires.wires.contains(Wires::REN_KEY),
            };
            len += 1;
            if terminates_block(&e.instr) {
                break;
            }
            pc = pc.wrapping_add(e.size);
            if pc == entry {
                break; // wrapped the whole address space
            }
        }
        Superblock::new(&steps[..len], &self.mem)
    }

    /// Executes up to `cfg.budget` steps through the superblock tier,
    /// calling `obs` once per executed step with its [`WireSummary`]:
    /// every access wire, folded as the accesses happen. Callers that
    /// need full [`Signals`] (trace or waveform capture) step with
    /// [`Mcu::step_into`] instead.
    ///
    /// Interior steps never service interrupts: the executor polls the
    /// interrupt lines at every step boundary and returns
    /// [`SbExit::NeedStep`] as soon as a serviceable vector appears (or
    /// the CPU is halted/idle, or the next fetch touches MMIO, or
    /// predecoding is off). The caller must then execute exactly one
    /// [`Mcu::step_into`] before re-entering. After every step `obs`'s
    /// `exec` level is written to `cfg.exec_cell` — the monitor-side
    /// EXEC flag update the per-step path performs via `set_hw_cell`.
    ///
    /// Returns the number of steps executed and the exit reason.
    pub fn run_superblock(
        &mut self,
        cfg: &SbConfig,
        mut obs: impl FnMut(&WireSummary) -> StepCtl,
    ) -> (u64, SbExit) {
        let mut done: u64 = 0;
        // The EXEC cell is level-driven: rewriting it only on a level
        // change keeps the (rare) transition exact and drops a per-step
        // binary search from the burst loop.
        let mut exec_level: Option<u16> = None;
        'outer: loop {
            if let Some(exit) = self.boundary_exit(cfg, done) {
                return (done, exit);
            }
            let entry = self.cpu.regs.pc();
            let block = self.superblock_at(entry);
            if block.steps.is_empty() {
                return (done, SbExit::NeedStep);
            }
            let mut idx = 0usize;
            loop {
                let ts = &block.steps[idx];
                if ts.pc != self.cpu.regs.pc() {
                    // Defensive: the trace no longer matches reality
                    // (should be unreachable; terminators end blocks).
                    continue 'outer;
                }
                let (ctl, faulted, dirty) = self.sb_step(ts, &mut obs);
                done += 1;
                if let Some(cell) = cfg.exec_cell {
                    let level = ctl.exec as u16;
                    if exec_level != Some(level) {
                        self.set_hw_cell(cell, level);
                        exec_level = Some(level);
                    }
                }
                if ctl.stop {
                    return (done, SbExit::ObserverStop);
                }
                if faulted {
                    return (done, SbExit::Fault);
                }
                if self.cpu.is_halted() {
                    // A latched fault the StepOut did not report (e.g. a
                    // literal RMW operand): fall back so the per-step
                    // path emits the same trailing idle-fault step.
                    return (done, SbExit::NeedStep);
                }
                if dirty && !block.valid(&self.mem) {
                    continue 'outer; // self-modifying code / DMA into code
                }
                idx += 1;
                if idx == block.steps.len() {
                    if self.cpu.regs.pc() != entry {
                        continue 'outer;
                    }
                    // Tight loop back to the entry (e.g. `jmp $`):
                    // re-run the trace without another cache lookup.
                    idx = 0;
                }
                if let Some(exit) = self.boundary_exit(cfg, done) {
                    return (done, exit);
                }
            }
        }
    }

    /// One superblock-interior step: execute through the bus with the
    /// wire fold behind it, end the step (DMA, peripherals, counters),
    /// and hand the observer the step's [`WireSummary`]. Returns the
    /// observer's verdict, whether the CPU faulted, and whether anything
    /// was written.
    fn sb_step(
        &mut self,
        ts: &TraceStep,
        obs: &mut impl FnMut(&WireSummary) -> StepCtl,
    ) -> (StepCtl, bool, bool) {
        let mut fold = WireFold::default();
        let step_out = {
            let (cpu, mut bus) = self.cpu_and_bus(&mut fold);
            cpu.step_predecoded(&mut bus, None, ts.instr, ts.size)
        };
        self.end_step(step_out.cycles, &mut fold);
        let faulted = step_out.fault.is_some();
        let wires = WireSummary {
            step: self.step_idx,
            pc: ts.pc,
            wires: fold.wires.wires
                | Wires::FAULT.when(faulted)
                | Wires::REN_KEY.when(ts.fetch_ren_key),
        };
        (obs(&wires), faulted, fold.wrote)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::cpu::vector_addr;
    use crate::mem::MemRegion;
    use proptest::prelude::*;

    fn program(mcu: &mut Mcu, org: u16, words: &[u16]) {
        let mut addr = org;
        for w in words {
            mcu.mem.write_word(addr, *w);
            addr += 2;
        }
        mcu.mem.write_word(0xFFFE, org);
        mcu.reset();
    }

    #[test]
    fn runs_simple_program() {
        let mut mcu = Mcu::new(MemLayout::default());
        // mov #0x1234, r4 ; mov r4, &0x0200 ; jmp self
        program(&mut mcu, 0xE000, &[0x4034, 0x1234, 0x4482, 0x0200, 0x3FFF]);
        mcu.step();
        mcu.step();
        assert_eq!(mcu.mem.read_word(0x0200), 0x1234);
        let s = mcu.step(); // spin jump
        assert_eq!(s.pc, 0xE008);
        assert_eq!(s.pc_next, 0xE008);
    }

    #[test]
    fn hw_cell_is_read_only_for_software() {
        let mut mcu = Mcu::new(MemLayout::default());
        mcu.add_hw_cell(0x0190, 1);
        // mov &0x0190, r4 ; mov #0, &0x0190 ; jmp self
        program(&mut mcu, 0xE000, &[0x4214, 0x0190, 0x4382, 0x0190, 0x3FFF]);
        mcu.step();
        assert_eq!(mcu.cpu.regs.get(crate::regs::Reg::r(4)), 1);
        let s = mcu.step();
        assert!(
            s.cpu_write_in(MemRegion::new(0x0190, 0x0191)),
            "write attempt is visible"
        );
        assert_eq!(mcu.hw_cell(0x0190), Some(1), "but the cell is unchanged");
    }

    #[test]
    fn interrupt_serviced_when_gie_set() {
        let mut mcu = Mcu::new(MemLayout::default());
        // main: bis #8, sr (GIE, via constant generator) ; jmp self
        program(&mut mcu, 0xE000, &[0xD232, 0x3FFF]);
        // isr at 0xF000: reti
        mcu.mem.write_word(0xF000, 0x1300);
        mcu.mem.write_word(vector_addr(9), 0xF000);
        mcu.step(); // set GIE
        mcu.raise_irq(9);
        let s = mcu.step();
        assert!(s.irq);
        assert_eq!(s.irq_vector, Some(9));
        assert_eq!(mcu.cpu.regs.pc(), 0xF000);
        let s = mcu.step(); // reti
        assert_eq!(s.pc_next, 0xE002);
        assert!(!mcu.irq_pending());
    }

    #[test]
    fn interrupt_masked_without_gie() {
        let mut mcu = Mcu::new(MemLayout::default());
        program(&mut mcu, 0xE000, &[0x3FFF]); // jmp self
        mcu.raise_irq(9);
        let s = mcu.step();
        assert!(!s.irq);
        assert!(s.irq_pending);
        assert_eq!(mcu.cpu.regs.pc(), 0xE000);
    }

    #[test]
    fn nmi_ignores_gie() {
        let mut mcu = Mcu::new(MemLayout::default());
        program(&mut mcu, 0xE000, &[0x3FFF]);
        mcu.mem.write_word(0xF100, 0x1300);
        mcu.mem.write_word(vector_addr(NMI_VECTOR), 0xF100);
        mcu.raise_irq(NMI_VECTOR);
        let s = mcu.step();
        assert!(s.irq);
        assert_eq!(s.irq_vector, Some(NMI_VECTOR));
    }

    #[test]
    fn priority_highest_vector_first() {
        let mut mcu = Mcu::new(MemLayout::default());
        program(&mut mcu, 0xE000, &[0xD232, 0x3FFF]);
        mcu.mem.write_word(0xF000, 0x1300);
        mcu.mem.write_word(0xF100, 0x1300);
        mcu.mem.write_word(vector_addr(3), 0xF000);
        mcu.mem.write_word(vector_addr(9), 0xF100);
        mcu.step();
        mcu.raise_irq(3);
        mcu.raise_irq(9);
        let s = mcu.step();
        assert_eq!(s.irq_vector, Some(9), "higher vector has priority");
    }

    #[test]
    fn injected_dma_appears_as_dma_master() {
        let mut mcu = Mcu::new(MemLayout::default());
        program(&mut mcu, 0xE000, &[0x3FFF]);
        mcu.mem.write_word(0x0400, 0xAA55);
        mcu.inject_dma(DmaOp {
            src: 0x0400,
            dst: 0xFFE4,
            byte: false,
        });
        let s = mcu.step();
        assert!(s.dma_write_in(MemRegion::new(0xFFE0, 0xFFFF)));
        assert_eq!(mcu.mem.read_word(0xFFE4), 0xAA55);
    }

    /// A word-register MMIO scratch peripheral for bus-routing tests.
    struct ScratchPeriph {
        mmio: MemRegion,
        regs: [u16; 8],
    }

    impl ScratchPeriph {
        fn over(mmio: MemRegion) -> ScratchPeriph {
            ScratchPeriph { mmio, regs: [0; 8] }
        }

        fn slot(&self, addr: u16) -> usize {
            ((addr - self.mmio.start()) / 2) as usize % self.regs.len()
        }
    }

    impl crate::periph::Peripheral for ScratchPeriph {
        fn name(&self) -> &'static str {
            "scratch"
        }

        fn mmio(&self) -> MemRegion {
            self.mmio
        }

        fn read(&mut self, addr: u16, _byte: bool) -> u16 {
            self.regs[self.slot(addr)]
        }

        fn write(&mut self, addr: u16, val: u16, _byte: bool) {
            let slot = self.slot(addr);
            self.regs[slot] = val;
        }

        fn tick(&mut self, _cycles: u64) {}

        fn reset(&mut self) {
            self.regs = [0; 8];
        }

        fn as_any(&self) -> &dyn std::any::Any {
            self
        }

        fn as_any_mut(&mut self) -> &mut dyn std::any::Any {
            self
        }
    }

    #[test]
    fn sorted_bus_lookup_routes_across_many_ranges() {
        // Peripherals and cells registered out of address order must
        // still route exactly, via the sorted-range index.
        let mut mcu = Mcu::new(MemLayout::default());
        mcu.add_peripheral(Box::new(ScratchPeriph::over(MemRegion::new(
            0x0120, 0x012F,
        ))));
        mcu.add_peripheral(Box::new(ScratchPeriph::over(MemRegion::new(
            0x0100, 0x010F,
        ))));
        mcu.add_peripheral(Box::new(ScratchPeriph::over(MemRegion::new(
            0x0140, 0x014F,
        ))));
        mcu.add_hw_cell(0x0192, 0xBEEF);
        mcu.add_hw_cell(0x0190, 0xCAFE);

        // mov #0x1111, &0x0102 ; mov &0x0190, r4 ; mov &0x0141, r5 ; jmp $
        program(
            &mut mcu,
            0xE000,
            &[
                0x40B2, 0x1111, 0x0102, // periph write (middle range)
                0x4214, 0x0190, // hw cell read
                0x4215, 0x0141, // periph read (odd addr inside last range)
                0x3FFF,
            ],
        );
        mcu.step();
        mcu.step();
        mcu.step();
        assert_eq!(mcu.cpu.regs.get(crate::regs::Reg::r(4)), 0xCAFE);
        assert_eq!(mcu.cpu.regs.get(crate::regs::Reg::r(5)), 0);
        assert_eq!(mcu.hw_cell(0x0192), Some(0xBEEF));
        // Gaps between ranges fall through to flat memory.
        mcu.mem.write_word(0x0130, 0xA5A5);
        assert_eq!(mcu.mem.read_word(0x0130), 0xA5A5);
    }

    #[test]
    fn hw_cell_takes_precedence_over_overlapping_peripheral() {
        // A hardware cell may sit inside a peripheral's MMIO window (the
        // EXEC flag lives in SFR space); the cell must win on both reads
        // and write suppression, while the rest of the window still
        // belongs to the peripheral.
        let mut mcu = Mcu::new(MemLayout::default());
        mcu.add_peripheral(Box::new(ScratchPeriph::over(MemRegion::new(
            0x0100, 0x010F,
        ))));
        mcu.add_hw_cell(0x0104, 0x7777);

        // mov &0x0104, r4      ; reads the cell, not the peripheral
        // mov #0x2222, &0x0104 ; dropped by the cell, not seen by periph
        // mov #0x3333, &0x0106 ; lands in the peripheral
        // jmp $
        program(
            &mut mcu,
            0xE000,
            &[
                0x4214, 0x0104, //
                0x40B2, 0x2222, 0x0104, //
                0x40B2, 0x3333, 0x0106, //
                0x3FFF,
            ],
        );
        mcu.step();
        assert_eq!(mcu.cpu.regs.get(crate::regs::Reg::r(4)), 0x7777);
        let s = mcu.step();
        assert!(
            s.cpu_write_in(MemRegion::new(0x0104, 0x0105)),
            "the write attempt is still observable"
        );
        assert_eq!(mcu.hw_cell(0x0104), Some(0x7777), "cell unchanged");
        mcu.step();
        let p: &ScratchPeriph = mcu.periph().unwrap();
        assert_eq!(p.regs[p.slot(0x0106)], 0x3333);
        assert_eq!(
            p.regs[p.slot(0x0104)],
            0,
            "the cell-shadowed word never reached the peripheral"
        );
    }

    #[test]
    fn mmio_topology_change_drops_cached_decodes() {
        // Cache an instruction, then map a hardware cell over its
        // address: the next fetch must route through the cell (a live
        // fetch would), not replay the stale raw-memory decode.
        let mut mcu = Mcu::new(MemLayout::default());
        program(&mut mcu, 0xE000, &[0x3FFF]); // jmp $
        mcu.step();
        mcu.step();
        assert_eq!(mcu.cpu.regs.pc(), 0xE000);
        mcu.add_hw_cell(0xE000, 0x4324); // now reads as `mov #2, r4`
        mcu.step();
        assert_eq!(mcu.cpu.regs.get(crate::regs::Reg::r(4)), 2);
        assert_eq!(mcu.cpu.regs.pc(), 0xE002);
    }

    #[test]
    fn step_into_reuses_the_access_buffer() {
        let mut mcu = Mcu::new(MemLayout::default());
        program(&mut mcu, 0xE000, &[0x4034, 0x1234, 0x3FFF]);
        let mut signals = Signals::default();
        mcu.step_into(&mut signals);
        let cap = signals.accesses.capacity();
        assert!(cap > 0);
        for _ in 0..1000 {
            mcu.step_into(&mut signals);
        }
        assert_eq!(
            signals.accesses.capacity(),
            cap,
            "steady-state stepping must not regrow the log"
        );
    }

    #[test]
    fn predecode_on_and_off_produce_identical_signals() {
        let words = [0x4034u16, 0x1234, 0x4482, 0x0200, 0xD232, 0x3FFF];
        let mut cached = Mcu::new(MemLayout::default());
        let mut fetched = Mcu::new(MemLayout::default());
        fetched.set_predecode(false);
        program(&mut cached, 0xE000, &words);
        program(&mut fetched, 0xE000, &words);
        cached.predecode(MemRegion::new(0xE000, 0xE00B));
        for _ in 0..32 {
            assert_eq!(cached.step(), fetched.step());
        }
        assert!(cached.decode_cache.resident_chunks() > 0);
        assert_eq!(fetched.decode_cache.resident_chunks(), 0);
    }

    #[test]
    fn cycles_accumulate() {
        let mut mcu = Mcu::new(MemLayout::default());
        program(&mut mcu, 0xE000, &[0x4034, 0x1234, 0x3FFF]); // mov #imm, r4 (2cy); jmp (2cy)
        mcu.step();
        assert_eq!(mcu.cycles(), 2);
        mcu.step();
        assert_eq!(mcu.cycles(), 4);
    }

    /// The wires the superblock executor must report for one step,
    /// derived from that step's per-step `Signals` through the
    /// per-predicate `Signals` queries, independently of the fold.
    fn reference_wires(layout: &MemLayout, s: &Signals) -> WireSummary {
        let wires = [
            (Wires::FAULT, s.fault.is_some()),
            (Wires::DMA_ACTIVE, s.dma_active()),
            (
                Wires::REN_KEY,
                s.cpu_read_in(layout.key) || s.fetch_in(layout.key),
            ),
            (Wires::DMA_KEY, s.dma_in(layout.key)),
            (Wires::WEN_IVT, s.cpu_write_in(layout.ivt)),
            (Wires::DMA_IVT, s.dma_in(layout.ivt)),
            (Wires::WEN_OR, s.cpu_write_in(layout.or)),
            (Wires::DMA_OR, s.dma_in(layout.or)),
            (Wires::WEN_ER, s.cpu_write_in(layout.er)),
            (Wires::DMA_ER, s.dma_in(layout.er)),
        ];
        WireSummary {
            step: s.step,
            pc: s.pc,
            wires: wires
                .iter()
                .fold(Wires::default(), |acc, &(w, on)| acc | w.when(on)),
        }
    }

    /// Accesses of every kind (CPU read, fetch and write, DMA read and
    /// write; byte and word) whose address is, most of the time, on an
    /// edge of the key, IVT, `OR` or `ER` region of `layout`: its first
    /// or last byte, or the byte just outside either end (a word there
    /// straddles the edge).
    fn edge_access(layout: MemLayout) -> impl Strategy<Value = MemAccess> {
        let mut edges = Vec::new();
        for r in [layout.key, layout.ivt, layout.or, layout.er] {
            let (start, end) = (r.start(), r.end());
            edges.extend([start.wrapping_sub(1), start, end, end.wrapping_add(1)]);
        }
        let picks = 0..edges.len() + 4;
        (picks, any::<u16>(), 0u8..5, any::<bool>()).prop_map(move |(pick, addr, kind, byte)| {
            MemAccess {
                addr: edges.get(pick).copied().unwrap_or(addr),
                value: 0,
                byte,
                write: kind == 2 || kind == 4,
                fetch: kind == 1,
                master: if kind >= 3 { Master::Dma } else { Master::Cpu },
            }
        })
    }

    proptest! {
        /// The one access-wire fold against the per-predicate reference,
        /// over random access logs, with and without an `ER`.
        #[test]
        fn wire_fold_matches_the_signal_predicates(
            accesses in proptest::collection::vec(edge_access(MemLayout::default()), 0..6),
        ) {
            let layout = MemLayout::default();
            let signals = Signals { accesses, ..Signals::default() };
            let (mut with_er, mut without_er) = (WireSummary::default(), WireSummary::default());
            for a in &signals.accesses {
                with_er.fold(&layout, Some(layout.er), a);
                without_er.fold(&layout, None, a);
            }
            let expect = reference_wires(&layout, &signals);
            prop_assert_eq!(with_er, expect);
            let er_wires = Wires::WEN_ER | Wires::DMA_ER;
            let no_er = WireSummary { wires: Wires(expect.wires.0 & !er_wires.0), ..expect };
            prop_assert_eq!(without_er, no_er);
        }
    }

    /// Runs `steps` steps through the per-step pipeline, returning each
    /// step's reference wires.
    fn run_per_step(mcu: &mut Mcu, steps: u64) -> Vec<WireSummary> {
        (0..steps)
            .map(|_| {
                let s = mcu.step();
                reference_wires(&mcu.layout, &s)
            })
            .collect()
    }

    /// Drives `mcu` for `steps` steps through the superblock tier,
    /// collecting each interior step's summary and the reference wires
    /// of every `NeedStep` fallback step.
    fn run_superblocked(mcu: &mut Mcu, steps: u64) -> Vec<WireSummary> {
        let mut collected = Vec::new();
        let mut remaining = steps;
        while remaining > 0 {
            let cfg = SbConfig {
                budget: remaining,
                stop_pc: None,
                exec_cell: None,
            };
            let (done, exit) = mcu.run_superblock(&cfg, |w| {
                collected.push(*w);
                StepCtl::default()
            });
            remaining -= done;
            match exit {
                SbExit::Budget => break,
                SbExit::NeedStep => {
                    let s = mcu.step();
                    collected.push(reference_wires(&mcu.layout, &s));
                    remaining -= 1;
                }
                other => panic!("unexpected exit {other:?}"),
            }
        }
        collected
    }

    #[test]
    fn superblock_and_per_step_signals_are_bit_identical() {
        // GIE on, a store, a spin loop; an interrupt arrives mid-way and
        // the ISR returns — every step's index, PC, fault flag and wires
        // must match the per-step pipeline, including the interrupt
        // entry the superblock tier hands back to `step_into`.
        let words = [0x4034u16, 0x1234, 0x4482, 0x0200, 0xD232, 0x3FFF];
        let mut stepped = Mcu::new(MemLayout::default());
        let mut blocked = Mcu::new(MemLayout::default());
        for mcu in [&mut stepped, &mut blocked] {
            program(mcu, 0xE000, &words);
            mcu.mem.write_word(0xF000, 0x1300); // isr: reti
            mcu.mem.write_word(vector_addr(9), 0xF000);
            mcu.reset();
            mcu.raise_irq(9);
        }
        let expect = run_per_step(&mut stepped, 64);
        let got = run_superblocked(&mut blocked, 64);
        assert_eq!(expect.len(), got.len());
        for (i, (a, b)) in expect.iter().zip(&got).enumerate() {
            assert_eq!(a, b, "step {i}");
        }
        assert_eq!(stepped.cpu.regs, blocked.cpu.regs);
        assert_eq!(stepped.cycles(), blocked.cycles());
        assert_eq!(blocked.mem.read_word(0x0200), 0x1234);
    }

    #[test]
    fn superblock_survives_self_modifying_code() {
        // The second instruction rewrites the *fourth* one (same block)
        // from `mov #1, r5` to `mov #2, r5`: the block must retire
        // mid-trace and the rebuilt trace must execute the new bytes —
        // identically to the per-step pipeline.
        let words = [
            0x4034u16, 0x1234, // mov #0x1234, r4
            0x40B2, 0x4325, 0xE00A, // mov #0x4325 ("mov #2, r5"), &0xE00A
            0x4315, // mov #1, r5  (overwritten before it runs)
            0x3FFF, // jmp $
        ];
        let mut stepped = Mcu::new(MemLayout::default());
        let mut blocked = Mcu::new(MemLayout::default());
        program(&mut stepped, 0xE000, &words);
        program(&mut blocked, 0xE000, &words);
        let expect = run_per_step(&mut stepped, 16);
        let got = run_superblocked(&mut blocked, 16);
        assert_eq!(expect, got);
        assert_eq!(blocked.cpu.regs, stepped.cpu.regs);
        assert_eq!(blocked.cpu.regs.get(crate::regs::Reg::r(5)), 2);
        assert!(blocked.cache_stats().invalidations > 0);
    }

    #[test]
    fn stop_pc_and_exec_cell_are_honoured() {
        let words = [0x4034u16, 0x1234, 0x4315, 0x3FFF];
        let mut mcu = Mcu::new(MemLayout::default());
        mcu.add_hw_cell(0x0190, 0);
        program(&mut mcu, 0xE000, &words);
        let cfg = SbConfig {
            budget: 100,
            stop_pc: Some(0xE006),
            exec_cell: Some(0x0190),
        };
        let (done, exit) = mcu.run_superblock(&cfg, |_| StepCtl {
            exec: true,
            stop: false,
        });
        assert_eq!(exit, SbExit::StopPc);
        assert_eq!(done, 2);
        assert_eq!(mcu.cpu.regs.pc(), 0xE006);
        assert_eq!(
            mcu.hw_cell(0x0190),
            Some(1),
            "observer's exec level applied"
        );
    }

    #[test]
    fn cache_stats_count_hits_misses_and_invalidations() {
        let mut mcu = Mcu::new(MemLayout::default());
        program(&mut mcu, 0xE000, &[0x4315, 0x3FFE]); // mov #1, r5 ; jmp $-2
        let zero = mcu.cache_stats();
        assert_eq!(zero, CacheStats::default());
        let _ = run_superblocked(&mut mcu, 50);
        let built = mcu.cache_stats();
        assert!(built.blocks_built >= 1, "{built:?}");
        assert!(built.misses >= 1, "{built:?}");
        // A second burst re-enters through the cache (the first one sat
        // inside the trace's loop-back, which needs no lookup at all).
        let _ = run_superblocked(&mut mcu, 10);
        let warm = mcu.cache_stats();
        assert!(warm.hits > 0, "re-entry hits the block cache: {warm:?}");
        assert_eq!(warm.blocks_built, built.blocks_built, "{warm:?}");
        // Host poke into the code page: both tiers must invalidate.
        mcu.mem.write_word(0xE000, 0x4325); // now `mov #2, r5`
        let _ = run_superblocked(&mut mcu, 10);
        let after = mcu.cache_stats();
        assert!(after.invalidations > warm.invalidations, "{after:?}");
        assert!(after.blocks_retired > warm.blocks_retired, "{after:?}");
        assert_eq!(mcu.cpu.regs.get(crate::regs::Reg::r(5)), 2);
    }

    #[test]
    fn dma_into_code_retires_the_running_block() {
        // mov #1, r5 ; jmp $-2 — a two-instruction loop whose first
        // instruction gets rewritten by DMA mid-flight.
        let words = [0x4315u16, 0x3FFE];
        let mut stepped = Mcu::new(MemLayout::default());
        let mut blocked = Mcu::new(MemLayout::default());
        for mcu in [&mut stepped, &mut blocked] {
            program(mcu, 0xE000, words.as_slice());
            mcu.mem.write_word(0x0400, 0x4335); // "mov #-1, r5"
        }
        let a = run_per_step(&mut stepped, 4);
        let b = run_superblocked(&mut blocked, 4);
        assert_eq!(a, b);
        for mcu in [&mut stepped, &mut blocked] {
            mcu.inject_dma(DmaOp {
                src: 0x0400,
                dst: 0xE000,
                byte: false,
            });
        }
        let a = run_per_step(&mut stepped, 8);
        let b = run_superblocked(&mut blocked, 8);
        assert_eq!(a, b);
        assert!(
            a.iter().any(|w| w.wires.contains(Wires::DMA_ACTIVE)),
            "the DMA step is observed"
        );
        assert_eq!(stepped.cpu.regs.get(crate::regs::Reg::r(5)), 0xFFFF);
        assert_eq!(blocked.cpu.regs.get(crate::regs::Reg::r(5)), 0xFFFF);
        assert_eq!(stepped.mem.read_word(0xE000), blocked.mem.read_word(0xE000));
    }
}
