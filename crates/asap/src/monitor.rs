//! The ASAP hardware monitor: the paper's core contribution.
//!
//! ASAP modifies APEX in exactly two ways (§4.2):
//!
//! 1. **LTL 3 is removed** — the `EXEC` kernel runs with
//!    `check_irq = false`, so an interrupt no longer invalidates the
//!    proof. Control-flow integrity is preserved by the boundary rules:
//!    a trusted ISR linked *inside* `ER` keeps the PC inside `ER`
//!    (Fig. 5(a)); an untrusted ISR forces the PC outside and LTL 1
//!    clears `EXEC` (Fig. 5(b)).
//! 2. **\[AP1\] is added** — the two-state FSM of Fig. 3 ([`IvtGuard`])
//!    clears `EXEC` on any CPU or DMA write to the IVT (LTL 4) and
//!    re-arms only when execution restarts at `ERmin`.
//!
//! The composite monitor drives the device's `EXEC` wire as the
//! conjunction of both parts, and its property suite (P18–P21) includes
//! the paper's key theorem: *authorized interrupts preserve `EXEC`*.
//!
//! The device clocks [`AsapMonitor`] through `step_wires`; the model
//! checker explores the same value through its [`MonitorFsm`] impl.
//! [`IvtGuard`] is the Fig. 3 FSM on its own, model-checked against
//! \[AP1\]'s properties (P18–P20).

use apex_pox::monitor::{exec_kernel, ApexMonitor, ExecState};
use ltl_mc::formula::Ltl;
use ltl_mc::fsm::{InputVal, MonitorFsm};
use ltl_mc::mc::Property;
use openmsp430::superblock::Wires;
use vrased::hw::WireStep;
use vrased::props::{names, wire_names};

fn p(name: &str) -> Ltl {
    Ltl::prop(name)
}

/// The Fig. 3 FSM: `Run` ⇄ `NotExec`. A CPU or DMA write into the IVT
/// (`Wen ∧ Daddr ∈ IVT`, `DMAen ∧ DMAaddr ∈ IVT`) leaves `Run`; `PC =
/// ERmin` with no such write re-arms it.
///
/// `true` is the `Run` state. The output is the guard's contribution to
/// the `EXEC` wire — `0` while in `NotExec`.
pub fn ivt_kernel(run: bool, w: Wires) -> bool {
    let write = w.contains(Wires::WEN_IVT) || w.contains(Wires::DMA_IVT);
    if run {
        !write
    } else {
        w.contains(Wires::PC_AT_ERMIN) && !write
    }
}

/// The standalone IVT-immutability guard (\[AP1\]).
///
/// `IvtGuard::default()` starts in `NotExec`, where it stays until the
/// first `ERmin` entry (matching the power-on value `EXEC = 0`).
#[derive(Debug, Clone, Default, PartialEq)]
pub struct IvtGuard {
    run: bool,
}

impl IvtGuard {
    /// The wires the kernel reads: its model-checking alphabet.
    pub const INPUTS: Wires = Wires::union(&[Wires::WEN_IVT, Wires::DMA_IVT, Wires::PC_AT_ERMIN]);

    /// Current state (`true` = `Run`).
    pub fn running(&self) -> bool {
        self.run
    }

    /// The \[AP1\] property set (P18–P20): LTL 4 plus the re-arm
    /// discipline of the Fig. 3 FSM.
    pub fn properties() -> Vec<Property> {
        let write = || p(names::WEN_IVT).or(p(names::DMA_IVT));
        vec![
            Property::new(
                "P18 LTL4 [AP1]: G(wen_ivt | dma_ivt -> !exec)",
                write().implies(p(names::EXEC).not()).globally(),
            ),
            Property::new(
                "P19 re-arm only at ERmin: G(!exec & !X pc_at_ermin -> !X exec)",
                p(names::EXEC)
                    .not()
                    .and(p(names::PC_AT_ERMIN).next().not())
                    .implies(p(names::EXEC).not().next())
                    .globally(),
            ),
            Property::new(
                "P20 Fig.3 re-arm: G(!exec & X pc_at_ermin & !X(wen_ivt|dma_ivt) -> X exec)",
                p(names::EXEC)
                    .not()
                    .and(p(names::PC_AT_ERMIN).next())
                    .and(write().next().not())
                    .implies(p(names::EXEC).next())
                    .globally(),
            ),
        ]
    }
}

impl MonitorFsm for IvtGuard {
    type State = bool;

    fn initial(&self) -> bool {
        false
    }

    fn inputs(&self) -> Vec<String> {
        wire_names(IvtGuard::INPUTS)
    }

    fn outputs(&self) -> Vec<String> {
        vec![names::EXEC.into()]
    }

    fn step(&self, state: &bool, inputs: &InputVal<'_>) -> bool {
        ivt_kernel(*state, IvtGuard::INPUTS.deposit(inputs.bits()))
    }

    fn output(&self, state: &bool, inputs: &InputVal<'_>, name: &str) -> bool {
        assert_eq!(name, names::EXEC);
        <IvtGuard as MonitorFsm>::step(self, state, inputs)
    }
}

/// Composite register state of the ASAP monitor.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default)]
pub struct AsapState {
    /// The relaxed APEX kernel registers.
    pub exec: ExecState,
    /// The Fig. 3 guard state (`true` = `Run`).
    pub ivt_run: bool,
}

/// The complete ASAP monitor: the APEX kernel without LTL 3, conjoined
/// with the \[AP1\] IVT guard.
///
/// `AsapMonitor::default()` is the power-on state (`EXEC = 0`): the
/// value the device clocks and the model checker explores alike.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct AsapMonitor {
    state: AsapState,
}

impl AsapMonitor {
    /// The wires the composite reads: its model-checking alphabet. The
    /// APEX kernel's wires minus `irq`, which the relaxed kernel provably
    /// ignores (that is the point of the paper), plus the IVT guard's.
    pub const INPUTS: Wires = Wires((ApexMonitor::INPUTS.0 & !Wires::IRQ.0) | IvtGuard::INPUTS.0);

    /// The composite `EXEC` level.
    pub fn exec(&self) -> bool {
        self.state.exec.exec && self.state.ivt_run
    }

    /// One composite kernel step.
    pub fn kernel(s: AsapState, w: Wires) -> AsapState {
        AsapState {
            exec: exec_kernel(s.exec, w, false),
            ivt_run: ivt_kernel(s.ivt_run, w),
        }
    }

    /// The violation message the device records when the composite
    /// `EXEC` falls.
    pub const EXEC_CLEARED: &'static str = "ASAP: EXEC cleared";

    /// One clock of the composite (relaxed `EXEC` kernel +
    /// \[AP1\] guard) on one step's wires. The returned wire is the
    /// composite `EXEC`; the edge reports it falling.
    pub fn step_wires(&mut self, w: Wires) -> WireStep {
        let before = self.exec();
        self.state = AsapMonitor::kernel(self.state, w);
        WireStep {
            wire: self.exec(),
            raised: before && !self.exec(),
        }
    }

    /// Static environment invariants (region membership and DMA
    /// activity implications).
    pub fn env_constraint(v: &InputVal<'_>) -> bool {
        (!v.get(names::PC_AT_ERMIN) || v.get(names::PC_IN_ER))
            && (!v.get(names::PC_AT_EREXIT) || v.get(names::PC_IN_ER))
            && (!v.get(names::DMA_ER) || v.get(names::DMA_ACTIVE))
            && (!v.get(names::DMA_OR) || v.get(names::DMA_ACTIVE))
            && (!v.get(names::DMA_IVT) || v.get(names::DMA_ACTIVE))
    }

    /// The composite-suite property (P21): the paper's central theorem —
    /// while the PC stays inside `ER` and no memory/DMA/fault/IVT
    /// violation occurs, `EXEC` is preserved **even across interrupts**.
    pub fn properties() -> Vec<Property> {
        let violation_next = Ltl::any([
            p(names::WEN_ER),
            p(names::DMA_ER),
            p(names::DMA_ACTIVE),
            p(names::FAULT),
            p(names::WEN_IVT),
            p(names::DMA_IVT),
            p(names::DMA_OR),
        ])
        .next();
        vec![Property::new(
            "P21 ASAP preservation: G(exec & pc_in_er & X pc_in_er & !X(violations) -> X exec)",
            p(names::EXEC)
                .and(p(names::PC_IN_ER))
                .and(p(names::PC_IN_ER).next())
                .and(violation_next.not())
                .implies(p(names::EXEC).next())
                .globally(),
        )]
    }
}

impl MonitorFsm for AsapMonitor {
    type State = AsapState;

    fn initial(&self) -> AsapState {
        AsapState::default()
    }

    fn inputs(&self) -> Vec<String> {
        wire_names(AsapMonitor::INPUTS)
    }

    fn outputs(&self) -> Vec<String> {
        vec![names::EXEC.into()]
    }

    fn step(&self, state: &AsapState, inputs: &InputVal<'_>) -> AsapState {
        AsapMonitor::kernel(*state, AsapMonitor::INPUTS.deposit(inputs.bits()))
    }

    fn output(&self, state: &AsapState, inputs: &InputVal<'_>, name: &str) -> bool {
        assert_eq!(name, names::EXEC);
        let next = <AsapMonitor as MonitorFsm>::step(self, state, inputs);
        next.exec.exec && next.ivt_run
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ltl_mc::fsm::{kripke_of, kripke_of_constrained};
    use ltl_mc::mc::check_suite;

    #[test]
    fn fig3_fsm_transitions() {
        // Run --write--> NotExec
        assert!(!ivt_kernel(true, Wires::WEN_IVT));
        assert!(!ivt_kernel(true, Wires::DMA_IVT));
        // Run --otherwise--> Run
        assert!(ivt_kernel(true, Wires::default()));
        // NotExec --ERmin & no write--> Run
        assert!(ivt_kernel(false, Wires::PC_AT_ERMIN));
        // NotExec --ERmin & write--> NotExec (write wins)
        assert!(!ivt_kernel(false, Wires::PC_AT_ERMIN | Wires::WEN_IVT));
        // NotExec --otherwise--> NotExec
        assert!(!ivt_kernel(false, Wires::default()));
    }

    #[test]
    fn ivt_guard_suite_model_checks() {
        let k = kripke_of(&IvtGuard::default());
        let rows = check_suite(&k, &IvtGuard::properties());
        assert_eq!(rows.len(), 3);
        for row in &rows {
            assert!(
                row.result.holds,
                "{} failed: {:?}",
                row.name, row.result.counterexample
            );
        }
    }

    #[test]
    fn composite_preserves_exec_across_interrupts() {
        // The Fig. 5(a) story at kernel level.
        let s0 = AsapState::default();
        let s1 = AsapMonitor::kernel(s0, Wires::PC_IN_ER | Wires::PC_AT_ERMIN);
        assert!(s1.exec.exec && s1.ivt_run);
        // Interrupt: PC jumps to the in-ER ISR (pc stays in ER).
        let s2 = AsapMonitor::kernel(s1, Wires::PC_IN_ER | Wires::IRQ);
        assert!(
            s2.exec.exec && s2.ivt_run,
            "authorized interrupt preserves EXEC"
        );
    }

    #[test]
    fn composite_kills_exec_on_ivt_write() {
        let s0 = AsapState::default();
        let s1 = AsapMonitor::kernel(s0, Wires::PC_IN_ER | Wires::PC_AT_ERMIN);
        let s2 = AsapMonitor::kernel(s1, Wires::PC_IN_ER | Wires::WEN_IVT);
        assert!(s2.exec.exec, "the APEX part does not see IVT writes");
        assert!(!s2.ivt_run, "but [AP1] does");
    }

    #[test]
    fn composite_suite_model_checks() {
        let k = kripke_of_constrained(&AsapMonitor::default(), AsapMonitor::env_constraint);
        let rows = check_suite(&k, &AsapMonitor::properties());
        for row in &rows {
            assert!(
                row.result.holds,
                "{} failed: {:?}",
                row.name, row.result.counterexample
            );
        }
    }

    #[test]
    fn composite_ltl4_model_checks() {
        // P18 over the composite EXEC wire (not just the guard's).
        let k = kripke_of_constrained(&AsapMonitor::default(), AsapMonitor::env_constraint);
        let ltl4 = ltl_mc::mc::Property::new(
            "LTL4 over composite",
            p(names::WEN_IVT)
                .or(p(names::DMA_IVT))
                .implies(p(names::EXEC).not())
                .globally(),
        );
        let rows = check_suite(&k, &[ltl4]);
        assert!(rows[0].result.holds, "{:?}", rows[0].result.counterexample);
    }
}
