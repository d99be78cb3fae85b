//! Canonical proposition names over the MCU wires, shared by every
//! security monitor (VRASED, APEX, ASAP) for both runtime trace checking
//! and model checking.
//!
//! The paper's LTL formulas quantify over wire-level atomic propositions
//! such as `PC ∈ ER`, `irq`, `Wen ∧ Daddr ∈ IVT`. This module fixes one
//! name per proposition, pairs each monitor wire's [`Wires`] bit with
//! its name ([`WIRES`]), and converts a simulation step to the set of
//! names that hold in it ([`PropCtx::props_of`]) and to the wires the
//! monitors clock on ([`PropCtx::wires_of`]).

use openmsp430::layout::MemLayout;
use openmsp430::mem::MemRegion;
use openmsp430::signals::Signals;
use openmsp430::superblock::{WireSummary, Wires};
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

/// Every [`Wires`] bit with its proposition name, in bit order: the one
/// place a bit meets a name.
pub const WIRES: [(Wires, &str); 17] = [
    (Wires::IRQ, names::IRQ),
    (Wires::FAULT, names::FAULT),
    (Wires::DMA_ACTIVE, names::DMA_ACTIVE),
    (Wires::REN_KEY, names::REN_KEY),
    (Wires::DMA_KEY, names::DMA_KEY),
    (Wires::WEN_IVT, names::WEN_IVT),
    (Wires::DMA_IVT, names::DMA_IVT),
    (Wires::WEN_OR, names::WEN_OR),
    (Wires::DMA_OR, names::DMA_OR),
    (Wires::WEN_ER, names::WEN_ER),
    (Wires::DMA_ER, names::DMA_ER),
    (Wires::PC_IN_SWATT, names::PC_IN_SWATT),
    (Wires::PC_AT_SWATT_MIN, names::PC_AT_SWATT_MIN),
    (Wires::PC_AT_SWATT_MAX, names::PC_AT_SWATT_MAX),
    (Wires::PC_IN_ER, names::PC_IN_ER),
    (Wires::PC_AT_ERMIN, names::PC_AT_ERMIN),
    (Wires::PC_AT_EREXIT, names::PC_AT_EREXIT),
];

/// The names of the wires in `w`, in bit order. For a monitor's input
/// mask this is its model-checking alphabet: bit `k` of a valuation
/// over these names is the mask's `k`-th wire ([`Wires::deposit`]).
pub fn wire_names(w: Wires) -> Vec<String> {
    WIRES
        .iter()
        .filter(|&&(bit, _)| w.contains(bit))
        .map(|&(_, name)| name.to_string())
        .collect()
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

    /// Extracts the wires the monitors clock on for one step: one pass
    /// of [`WireSummary::fold`] over the access log against `self.er`,
    /// plus `irq`, the fault and the PC wires ([`PropCtx::summary_wires`]).
    ///
    /// This is the allocation-free sibling of [`PropCtx::props_of`],
    /// which allocates a `BTreeSet<String>` per step and serves trace
    /// capture and conformance checking.
    pub fn wires_of(&self, s: &Signals) -> Wires {
        let mut sum = WireSummary {
            pc: s.pc,
            wires: Wires::IRQ.when(s.irq) | Wires::FAULT.when(s.fault.is_some()),
            ..WireSummary::default()
        };
        let er = self.er.map(|e| e.region);
        for a in &s.accesses {
            sum.fold(&self.layout, er, a);
        }
        self.summary_wires(&sum)
    }

    /// The wires of a superblock-interior step: the summary's fault and
    /// access wires, with the PC-comparison wires of its `pc` ORed in
    /// (the ER ones only when an `ER` is configured).
    pub fn summary_wires(&self, s: &WireSummary) -> Wires {
        let l = &self.layout;
        let mut w = s.wires
            | Wires::PC_IN_SWATT.when(l.swatt.contains(s.pc))
            | Wires::PC_AT_SWATT_MIN.when(s.pc == l.swatt.start())
            | Wires::PC_AT_SWATT_MAX.when(s.pc == l.swatt.end() & !1);
        if let Some(er) = &self.er {
            w |= Wires::PC_IN_ER.when(er.region.contains(s.pc))
                | Wires::PC_AT_ERMIN.when(s.pc == er.min)
                | Wires::PC_AT_EREXIT.when(s.pc == er.exit);
        }
        w
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use openmsp430::bus::{Master, MemAccess};
    use openmsp430::cpu::CpuFault;
    use proptest::prelude::*;

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

    #[test]
    fn wire_table_is_in_bit_order() {
        for (k, (bit, _)) in WIRES.iter().enumerate() {
            assert_eq!(*bit, Wires(1 << k));
        }
    }

    /// Addresses on an edge of `region`: its first or last byte, or the
    /// byte just outside either end (a word there straddles the edge).
    fn edges(region: MemRegion) -> [u16; 4] {
        let (start, end) = (region.start(), region.end());
        [start.wrapping_sub(1), start, end, end.wrapping_add(1)]
    }

    /// The test `ER`: a window inside the default program region.
    fn er() -> ErInfo {
        ErInfo {
            min: 0xE000,
            exit: 0xE010,
            region: MemRegion::new(0xE000, 0xE0FF),
        }
    }

    /// PCs that sit on an `ER` or SW-Att comparison, or one word off
    /// it, most of the time; any PC otherwise.
    fn pc() -> impl Strategy<Value = u16> {
        let layout = MemLayout::default();
        let mut pcs = vec![
            er().min,
            er().exit,
            layout.swatt.start(),
            layout.swatt.end() & !1,
        ];
        pcs.extend(edges(er().region));
        pcs.extend(edges(layout.swatt));
        let near: Vec<u16> = pcs
            .iter()
            .flat_map(|&p| [p.wrapping_sub(2), p, p.wrapping_add(2)])
            .collect();
        (0..near.len() + 4, any::<u16>())
            .prop_map(move |(pick, pc)| near.get(pick).copied().unwrap_or(pc))
    }

    /// Accesses of every kind (CPU read, fetch and write, DMA read and
    /// write; byte and word), most of the time on an edge of the key,
    /// IVT, `OR`, SW-Att or `ER` region.
    fn access() -> impl Strategy<Value = MemAccess> {
        let l = MemLayout::default();
        let addrs: Vec<u16> = [l.key, l.ivt, l.or, l.swatt, er().region]
            .into_iter()
            .flat_map(edges)
            .collect();
        (0..addrs.len() + 4, any::<u16>(), 0u8..5, any::<bool>()).prop_map(
            move |(pick, addr, kind, byte)| MemAccess {
                addr: addrs.get(pick).copied().unwrap_or(addr),
                value: 0,
                byte,
                write: kind == 2 || kind == 4,
                fetch: kind == 1,
                master: if kind >= 3 { Master::Dma } else { Master::Cpu },
            },
        )
    }

    proptest! {
        /// The extracted wires name exactly the wire propositions that
        /// `props_of` derives from the same step, with and without `ER`.
        #[test]
        fn wires_agree_with_props_of(
            pc in pc(),
            irq in any::<bool>(),
            fault in any::<bool>(),
            accesses in proptest::collection::vec(access(), 0..6),
            with_er in any::<bool>(),
        ) {
            let layout = MemLayout::default();
            let ctx = PropCtx { layout, er: with_er.then(er) };
            let s = Signals {
                pc,
                irq,
                fault: fault.then_some(CpuFault::IllegalInstruction { pc, word: 0 }),
                accesses,
                ..base_signals()
            };
            let mut props = ctx.props_of(&s);
            props.retain(|p| WIRES.iter().any(|&(_, name)| name == p));
            let wires: BTreeSet<String> = wire_names(ctx.wires_of(&s)).into_iter().collect();
            prop_assert_eq!(wires, props);
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
