//! The hardware-monitor interface: the contract between the MCU and the
//! VRASED/APEX/ASAP `HW-Mod` modules of Fig. 2.
//!
//! A monitor is a small synchronous FSM clocked once per execution step
//! with the wires it samples. It can drive the `EXEC` wire (APEX/ASAP)
//! and/or request a hard MCU reset (VRASED's response to a key-access or
//! atomicity violation). Monitors never mutate machine state directly —
//! they are pure observers plus output wires, exactly like their Verilog
//! counterparts. The monitors themselves live in the `vrased`,
//! `apex-pox` and `asap` crates; this module holds what the simulator
//! needs to know about them: which wires they sample ([`ObservesWires`],
//! [`WireSet`]), so the superblock executor can skip computing the rest.

/// Two monitors composed statically, clocked with the same wires — the
/// software analogue of instantiating both Verilog modules against the
/// same CPU wires.
///
/// Nesting `Compose` builds a whole monitor stack as one concrete type,
/// so a device can clock its `HW-Mod` without `dyn` dispatch or per-step
/// allocation: `Compose(Compose(key_guard, atomicity), exec_monitor)`.
/// Its [`ObservesWires`] impl unions the children's wire sets.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct Compose<A, B>(pub A, pub B);

/// A set of monitor-observable wires, one bit per `WireImage`-style
/// boolean. Monitors declare the wires they sample via
/// [`ObservesWires`]; the superblock executor skips computing wires
/// outside the composed set on elided interior steps.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct WireSet(pub u32);

impl WireSet {
    /// The empty set: no monitor observes anything.
    pub const NONE: WireSet = WireSet(0);

    /// An interrupt was serviced this step.
    pub const IRQ: WireSet = WireSet(1 << 0);
    /// The CPU latched a fault this step.
    pub const FAULT: WireSet = WireSet(1 << 1);
    /// At least one DMA operation landed this step.
    pub const DMA_ACTIVE: WireSet = WireSet(1 << 2);
    /// A CPU read (or fetch) touched the attestation key.
    pub const REN_KEY: WireSet = WireSet(1 << 3);
    /// A DMA access touched the attestation key.
    pub const DMA_KEY: WireSet = WireSet(1 << 4);
    /// A CPU write touched the interrupt vector table.
    pub const WEN_IVT: WireSet = WireSet(1 << 5);
    /// A DMA access touched the interrupt vector table.
    pub const DMA_IVT: WireSet = WireSet(1 << 6);
    /// A CPU write touched the output region.
    pub const WEN_OR: WireSet = WireSet(1 << 7);
    /// A DMA access touched the output region.
    pub const DMA_OR: WireSet = WireSet(1 << 8);
    /// A CPU write touched the execution region.
    pub const WEN_ER: WireSet = WireSet(1 << 9);
    /// A DMA access touched the execution region.
    pub const DMA_ER: WireSet = WireSet(1 << 10);
    /// PC is inside the SW-Att (attestation code) region.
    pub const PC_IN_SWATT: WireSet = WireSet(1 << 11);
    /// PC is at the first SW-Att instruction.
    pub const PC_AT_SWATT_MIN: WireSet = WireSet(1 << 12);
    /// PC is at the legal SW-Att exit.
    pub const PC_AT_SWATT_MAX: WireSet = WireSet(1 << 13);
    /// PC is inside the execution region.
    pub const PC_IN_ER: WireSet = WireSet(1 << 14);
    /// PC is at ERmin.
    pub const PC_AT_ERMIN: WireSet = WireSet(1 << 15);
    /// PC is at the legal ER exit.
    pub const PC_AT_EREXIT: WireSet = WireSet(1 << 16);

    /// Every wire (the conservative "observe it all" set).
    pub const ALL: WireSet = WireSet((1 << 17) - 1);

    /// Set union (usable in const contexts, e.g. `ObservesWires` impls).
    pub const fn union(self, other: WireSet) -> WireSet {
        WireSet(self.0 | other.0)
    }

    /// True when every wire in `other` is in `self`.
    pub const fn contains(self, other: WireSet) -> bool {
        self.0 & other.0 == other.0
    }
}

/// Build-time declaration of which wires a monitor samples. `Compose`
/// unions its children, so a whole static monitor stack yields one
/// const set — the basis for monitor-aware dead-signal elision.
pub trait ObservesWires {
    /// Every wire this monitor's kernel can read.
    const OBSERVES: WireSet;
}

impl<A: ObservesWires, B: ObservesWires> ObservesWires for Compose<A, B> {
    const OBSERVES: WireSet = A::OBSERVES.union(B::OBSERVES);
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn wire_set_union_and_contains() {
        let a = WireSet::REN_KEY.union(WireSet::DMA_KEY);
        assert!(a.contains(WireSet::REN_KEY));
        assert!(a.contains(WireSet::DMA_KEY));
        assert!(!a.contains(WireSet::IRQ));
        assert!(a.contains(WireSet::NONE));

        struct M1;
        struct M2;
        impl ObservesWires for M1 {
            const OBSERVES: WireSet = WireSet::IRQ;
        }
        impl ObservesWires for M2 {
            const OBSERVES: WireSet = WireSet::FAULT.union(WireSet::DMA_ACTIVE);
        }
        assert_eq!(
            <Compose<M1, M2>>::OBSERVES,
            WireSet::IRQ
                .union(WireSet::FAULT)
                .union(WireSet::DMA_ACTIVE)
        );
    }
}
