//! Canonical proposition names over the MCU wires, shared by every
//! security monitor (VRASED, APEX, ASAP) for both runtime trace checking
//! and model checking.
//!
//! The paper's LTL formulas quantify over wire-level atomic propositions
//! such as `PC ∈ ER`, `irq`, `Wen ∧ Daddr ∈ IVT`. This module fixes one
//! name per proposition and provides the conversion from a simulation
//! step's [`Signals`] to the set of names that hold in it.

use openmsp430::layout::MemLayout;
use openmsp430::mem::MemRegion;
use openmsp430::signals::Signals;
use openmsp430::superblock::WireSummary;
use std::collections::BTreeSet;

/// Proposition names.
pub mod names {
    /// Interrupt service began this step.
    pub const IRQ: &str = "irq";
    /// Some enabled interrupt line is pending.
    pub const IRQ_PENDING: &str = "irq_pending";
    /// Global interrupt enable.
    pub const GIE: &str = "gie";
    /// CPU idling in a low-power mode.
    pub const CPU_OFF: &str = "cpu_off";
    /// `PC ∈ ER`.
    pub const PC_IN_ER: &str = "pc_in_er";
    /// `PC = ERmin` (the legal entry).
    pub const PC_AT_ERMIN: &str = "pc_at_ermin";
    /// `PC = ERmax` (the legal exit instruction).
    pub const PC_AT_EREXIT: &str = "pc_at_erexit";
    /// `PC ∈ SW-Att` ROM.
    pub const PC_IN_SWATT: &str = "pc_in_swatt";
    /// `PC` at the SW-Att entry point.
    pub const PC_AT_SWATT_MIN: &str = "pc_at_swatt_min";
    /// `PC` at the SW-Att exit point (its conceptual final `ret`).
    pub const PC_AT_SWATT_MAX: &str = "pc_at_swatt_max";
    /// CPU read (or fetch) touching the key region.
    pub const REN_KEY: &str = "ren_key";
    /// DMA touching the key region.
    pub const DMA_KEY: &str = "dma_key";
    /// CPU write into `ER`.
    pub const WEN_ER: &str = "wen_er";
    /// DMA touching `ER`.
    pub const DMA_ER: &str = "dma_er";
    /// CPU write into `OR`.
    pub const WEN_OR: &str = "wen_or";
    /// DMA touching `OR`.
    pub const DMA_OR: &str = "dma_or";
    /// CPU write into the IVT (`Wen ∧ Daddr ∈ IVT`).
    pub const WEN_IVT: &str = "wen_ivt";
    /// DMA touching the IVT (`DMAen ∧ DMAaddr ∈ IVT`).
    pub const DMA_IVT: &str = "dma_ivt";
    /// Any DMA activity (`DMAen`).
    pub const DMA_ACTIVE: &str = "dma_active";
    /// CPU write into the SW-Att ROM region.
    pub const WEN_SWATT: &str = "wen_swatt";
    /// CPU fault this step.
    pub const FAULT: &str = "fault";
    /// The `EXEC` flag (monitor output).
    pub const EXEC: &str = "exec";
    /// Monitor reset request (monitor output).
    pub const RESET: &str = "reset";
}

/// `ER` geometry needed to evaluate the `ER`-relative propositions.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ErInfo {
    /// `ERmin` — legal entry address.
    pub min: u16,
    /// `ERmax` — legal exit instruction address.
    pub exit: u16,
    /// Full byte range of `ER`.
    pub region: MemRegion,
}

/// Context for converting signals to propositions.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct PropCtx {
    /// The device memory map.
    pub layout: MemLayout,
    /// `ER` geometry, when a PoX session is configured.
    pub er: Option<ErInfo>,
}

impl PropCtx {
    /// Context with no `ER` configured (plain VRASED attestation).
    pub fn new(layout: MemLayout) -> PropCtx {
        PropCtx { layout, er: None }
    }

    /// Context with `ER` geometry.
    pub fn with_er(layout: MemLayout, er: ErInfo) -> PropCtx {
        PropCtx {
            layout,
            er: Some(er),
        }
    }

    /// Converts one simulation step into the set of proposition names
    /// that hold in it.
    pub fn props_of(&self, s: &Signals) -> BTreeSet<String> {
        let mut out = BTreeSet::new();
        let mut add = |name: &str, cond: bool| {
            if cond {
                out.insert(name.to_string());
            }
        };
        let l = &self.layout;
        add(names::IRQ, s.irq);
        add(names::IRQ_PENDING, s.irq_pending);
        add(names::GIE, s.gie);
        add(names::CPU_OFF, s.cpu_off);
        add(names::FAULT, s.fault.is_some());
        add(names::PC_IN_SWATT, l.swatt.contains(s.pc));
        add(names::PC_AT_SWATT_MIN, s.pc == l.swatt.start());
        add(names::PC_AT_SWATT_MAX, s.pc == l.swatt.end() & !1);
        add(names::REN_KEY, s.cpu_read_in(l.key) || s.fetch_in(l.key));
        add(names::DMA_KEY, s.dma_in(l.key));
        add(names::WEN_IVT, s.cpu_write_in(l.ivt));
        add(names::DMA_IVT, s.dma_in(l.ivt));
        add(names::DMA_ACTIVE, s.dma_active());
        add(names::WEN_SWATT, s.cpu_write_in(l.swatt));
        add(names::WEN_OR, s.cpu_write_in(l.or));
        add(names::DMA_OR, s.dma_in(l.or));
        if let Some(er) = &self.er {
            add(names::PC_IN_ER, er.region.contains(s.pc));
            add(names::PC_AT_ERMIN, s.pc == er.min);
            add(names::PC_AT_EREXIT, s.pc == er.exit);
            add(names::WEN_ER, s.cpu_write_in(er.region));
            add(names::DMA_ER, s.dma_in(er.region));
        }
        out
    }
}

/// One step's security-relevant wires as plain booleans, extracted in a
/// **single pass** over the packed access log.
///
/// This is the allocation-free sibling of [`PropCtx::props_of`]: the
/// proposition-set conversion allocates a `BTreeSet<String>` per step and
/// is meant for trace capture and conformance checking; `WireImage` is
/// what the runtime monitor stack evaluates every step. Field names
/// mirror the [`names`] constants one for one.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct WireImage {
    /// Interrupt service began this step.
    pub irq: bool,
    /// CPU fault this step.
    pub fault: bool,
    /// Any DMA activity (`DMAen`).
    pub dma_active: bool,
    /// CPU read (or fetch) touching the key region.
    pub ren_key: bool,
    /// DMA touching the key region.
    pub dma_key: bool,
    /// CPU write into the IVT.
    pub wen_ivt: bool,
    /// DMA touching the IVT.
    pub dma_ivt: bool,
    /// CPU write into `OR`.
    pub wen_or: bool,
    /// DMA touching `OR`.
    pub dma_or: bool,
    /// CPU write into `ER`.
    pub wen_er: bool,
    /// DMA touching `ER`.
    pub dma_er: bool,
    /// `PC ∈ SW-Att`.
    pub pc_in_swatt: bool,
    /// `PC` at the SW-Att entry point.
    pub pc_at_swatt_min: bool,
    /// `PC` at the SW-Att exit point.
    pub pc_at_swatt_max: bool,
    /// `PC ∈ ER` (false when no `ER` is configured).
    pub pc_in_er: bool,
    /// `PC = ERmin`.
    pub pc_at_ermin: bool,
    /// `PC = ERmax`.
    pub pc_at_erexit: bool,
}

impl WireImage {
    /// Extracts the wires for one step: one pass of
    /// [`WireSummary::fold`] over the access log, against `ctx.er`.
    pub fn of(ctx: &PropCtx, s: &Signals) -> WireImage {
        let mut wires = WireSummary {
            step: s.step,
            pc: s.pc,
            fault: s.fault.is_some(),
            ..WireSummary::default()
        };
        let er = ctx.er.map(|e| e.region);
        for a in &s.accesses {
            wires.fold(&ctx.layout, er, a);
        }
        WireImage {
            irq: s.irq,
            ..WireImage::of_summary(ctx, &wires)
        }
    }

    /// Extracts the wires from a superblock-interior step: the access
    /// wires come straight from the summary, the PC-comparison wires are
    /// derived from its `pc` (the ER ones only when `ctx` has an `ER`).
    /// Interior steps never service interrupts, so `irq` is false.
    pub fn of_summary(ctx: &PropCtx, s: &WireSummary) -> WireImage {
        let l = &ctx.layout;
        let mut w = WireImage {
            irq: false,
            fault: s.fault,
            dma_active: s.dma_active,
            ren_key: s.ren_key,
            dma_key: s.dma_key,
            wen_ivt: s.wen_ivt,
            dma_ivt: s.dma_ivt,
            wen_or: s.wen_or,
            dma_or: s.dma_or,
            wen_er: s.wen_er,
            dma_er: s.dma_er,
            pc_in_swatt: l.swatt.contains(s.pc),
            pc_at_swatt_min: s.pc == l.swatt.start(),
            pc_at_swatt_max: s.pc == l.swatt.end() & !1,
            ..WireImage::default()
        };
        if let Some(er) = &ctx.er {
            w.pc_in_er = er.region.contains(s.pc);
            w.pc_at_ermin = s.pc == er.min;
            w.pc_at_erexit = s.pc == er.exit;
        }
        w
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use openmsp430::bus::{Master, MemAccess};

    fn base_signals() -> Signals {
        Signals {
            cycle: 1,
            step: 1,
            pc: 0xE000,
            pc_next: 0xE002,
            irq: false,
            irq_vector: None,
            irq_pending: false,
            gie: true,
            cpu_off: false,
            idle: false,
            accesses: vec![],
            fault: None,
        }
    }

    #[test]
    fn er_props() {
        let layout = MemLayout::default();
        let er = ErInfo {
            min: 0xE000,
            exit: 0xE010,
            region: MemRegion::new(0xE000, 0xE0FF),
        };
        let ctx = PropCtx::with_er(layout, er);
        let s = base_signals();
        let p = ctx.props_of(&s);
        assert!(p.contains(names::PC_IN_ER));
        assert!(p.contains(names::PC_AT_ERMIN));
        assert!(!p.contains(names::PC_AT_EREXIT));
        assert!(p.contains(names::GIE));
    }

    #[test]
    fn without_er_no_er_props() {
        let ctx = PropCtx::new(MemLayout::default());
        let p = ctx.props_of(&base_signals());
        assert!(!p.contains(names::PC_IN_ER));
    }

    #[test]
    fn key_and_ivt_access_props() {
        let layout = MemLayout::default();
        let ctx = PropCtx::new(layout);
        let mut s = base_signals();
        s.accesses
            .push(MemAccess::read(layout.key.start(), 0, true));
        s.accesses
            .push(MemAccess::write(layout.ivt.start(), 0xF000, false));
        let p = ctx.props_of(&s);
        assert!(p.contains(names::REN_KEY));
        assert!(p.contains(names::WEN_IVT));
        assert!(!p.contains(names::DMA_IVT));
    }

    fn assert_wires_match_props(ctx: &PropCtx, s: &Signals) {
        let w = WireImage::of(ctx, s);
        let p = ctx.props_of(s);
        let pairs = [
            (w.irq, names::IRQ),
            (w.fault, names::FAULT),
            (w.dma_active, names::DMA_ACTIVE),
            (w.ren_key, names::REN_KEY),
            (w.dma_key, names::DMA_KEY),
            (w.wen_ivt, names::WEN_IVT),
            (w.dma_ivt, names::DMA_IVT),
            (w.wen_or, names::WEN_OR),
            (w.dma_or, names::DMA_OR),
            (w.wen_er, names::WEN_ER),
            (w.dma_er, names::DMA_ER),
            (w.pc_in_swatt, names::PC_IN_SWATT),
            (w.pc_at_swatt_min, names::PC_AT_SWATT_MIN),
            (w.pc_at_swatt_max, names::PC_AT_SWATT_MAX),
            (w.pc_in_er, names::PC_IN_ER),
            (w.pc_at_ermin, names::PC_AT_ERMIN),
            (w.pc_at_erexit, names::PC_AT_EREXIT),
        ];
        for (wire, name) in pairs {
            assert_eq!(wire, p.contains(name), "wire `{name}` disagrees");
        }
    }

    #[test]
    fn wire_image_agrees_with_props_of() {
        let layout = MemLayout::default();
        let er = ErInfo {
            min: 0xE000,
            exit: 0xE010,
            region: MemRegion::new(0xE000, 0xE0FF),
        };
        for ctx in [PropCtx::with_er(layout, er), PropCtx::new(layout)] {
            let mut s = base_signals();
            assert_wires_match_props(&ctx, &s);

            s.accesses
                .push(MemAccess::read(layout.key.start(), 0, true));
            s.accesses.push(MemAccess::fetch(layout.key.start(), 0));
            s.accesses
                .push(MemAccess::write(layout.ivt.start(), 0xF000, false));
            s.accesses
                .push(MemAccess::write(layout.or.start(), 1, true));
            s.accesses.push(MemAccess::write(0xE004, 0x4343, false));
            assert_wires_match_props(&ctx, &s);

            for dma_target in [
                layout.key.start(),
                layout.ivt.start(),
                layout.or.start(),
                0xE008,
            ] {
                s.accesses.push(MemAccess {
                    addr: dma_target,
                    value: 0,
                    byte: false,
                    write: true,
                    fetch: false,
                    master: Master::Dma,
                });
            }
            s.irq = true;
            s.pc = layout.swatt.start();
            assert_wires_match_props(&ctx, &s);

            s.pc = 0xE010;
            s.fault = Some(openmsp430::cpu::CpuFault::IllegalInstruction {
                pc: 0xE010,
                word: 0,
            });
            assert_wires_match_props(&ctx, &s);
        }
    }

    #[test]
    fn swatt_props() {
        let layout = MemLayout::default();
        let ctx = PropCtx::new(layout);
        let mut s = base_signals();
        s.pc = layout.swatt.start();
        let p = ctx.props_of(&s);
        assert!(p.contains(names::PC_IN_SWATT));
        assert!(p.contains(names::PC_AT_SWATT_MIN));
    }
}
