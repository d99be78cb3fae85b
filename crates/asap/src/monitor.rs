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

use apex_pox::monitor::{exec_kernel, ExecState};
use ltl_mc::formula::Ltl;
use ltl_mc::fsm::{InputVal, MonitorFsm};
use ltl_mc::mc::Property;
use vrased::hw::WireStep;
use vrased::props::{names, WireImage};

fn p(name: &str) -> Ltl {
    Ltl::prop(name)
}

/// Inputs of the IVT-guard kernel (LTL 4 / Fig. 3).
#[derive(Debug, Clone, Copy, Default)]
pub struct IvtIn {
    /// CPU write into the IVT (`Wen ∧ Daddr ∈ IVT`).
    pub wen_ivt: bool,
    /// DMA into the IVT (`DMAen ∧ DMAaddr ∈ IVT`).
    pub dma_ivt: bool,
    /// `PC = ERmin` (restart re-arms the guard).
    pub pc_at_ermin: bool,
}

/// The Fig. 3 FSM: `Run` ⇄ `NotExec`.
///
/// `true` is the `Run` state. The output is the guard's contribution to
/// the `EXEC` wire — `0` while in `NotExec`.
pub fn ivt_kernel(run: bool, i: IvtIn) -> bool {
    let write = i.wen_ivt || i.dma_ivt;
    if run {
        !write
    } else {
        i.pc_at_ermin && !write
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
        vec![
            names::WEN_IVT.into(),
            names::DMA_IVT.into(),
            names::PC_AT_ERMIN.into(),
        ]
    }

    fn outputs(&self) -> Vec<String> {
        vec![names::EXEC.into()]
    }

    fn step(&self, state: &bool, inputs: &InputVal<'_>) -> bool {
        ivt_kernel(
            *state,
            IvtIn {
                wen_ivt: inputs.get(names::WEN_IVT),
                dma_ivt: inputs.get(names::DMA_IVT),
                pc_at_ermin: inputs.get(names::PC_AT_ERMIN),
            },
        )
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
    /// The composite `EXEC` level.
    pub fn exec(&self) -> bool {
        self.state.exec.exec && self.state.ivt_run
    }

    /// One composite kernel step.
    pub fn kernel(s: AsapState, exec_in: apex_pox::ExecIn, ivt_in: IvtIn) -> AsapState {
        AsapState {
            exec: exec_kernel(s.exec, exec_in, false),
            ivt_run: ivt_kernel(s.ivt_run, ivt_in),
        }
    }

    /// The violation message the device records when the composite
    /// `EXEC` falls.
    pub const EXEC_CLEARED: &'static str = "ASAP: EXEC cleared";

    /// One clock of the composite (relaxed `EXEC` kernel +
    /// \[AP1\] guard) against a pre-extracted [`WireImage`]. The returned
    /// wire is the composite `EXEC`; the edge reports it falling.
    pub fn step_wires(&mut self, w: &WireImage) -> WireStep {
        let ivt_in = IvtIn {
            wen_ivt: w.wen_ivt,
            dma_ivt: w.dma_ivt,
            pc_at_ermin: w.pc_at_ermin,
        };
        let before = self.exec();
        self.state = AsapMonitor::kernel(self.state, apex_pox::ExecIn::from_wires(w), ivt_in);
        WireStep {
            wire: self.exec(),
            raised: before && !self.exec(),
        }
    }

    /// Input wires of the composite monitor. `irq` is omitted: the ASAP
    /// kernel provably ignores it (that is the point of the paper), so
    /// the quotient is exact.
    pub fn input_names() -> Vec<String> {
        vec![
            names::PC_IN_ER.into(),
            names::PC_AT_ERMIN.into(),
            names::PC_AT_EREXIT.into(),
            names::WEN_ER.into(),
            names::DMA_ER.into(),
            names::WEN_OR.into(),
            names::DMA_OR.into(),
            names::DMA_ACTIVE.into(),
            names::FAULT.into(),
            names::WEN_IVT.into(),
            names::DMA_IVT.into(),
        ]
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
        AsapMonitor::input_names()
    }

    fn outputs(&self) -> Vec<String> {
        vec![names::EXEC.into()]
    }

    fn step(&self, state: &AsapState, inputs: &InputVal<'_>) -> AsapState {
        let exec_in = apex_pox::ExecIn {
            pc_in_er: inputs.get(names::PC_IN_ER),
            pc_at_ermin: inputs.get(names::PC_AT_ERMIN),
            pc_at_erexit: inputs.get(names::PC_AT_EREXIT),
            irq: false,
            wen_er: inputs.get(names::WEN_ER),
            dma_er: inputs.get(names::DMA_ER),
            wen_or: inputs.get(names::WEN_OR),
            dma_or: inputs.get(names::DMA_OR),
            dma_active: inputs.get(names::DMA_ACTIVE),
            fault: inputs.get(names::FAULT),
        };
        let ivt_in = IvtIn {
            wen_ivt: inputs.get(names::WEN_IVT),
            dma_ivt: inputs.get(names::DMA_IVT),
            pc_at_ermin: inputs.get(names::PC_AT_ERMIN),
        };
        AsapMonitor::kernel(*state, exec_in, ivt_in)
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
        assert!(!ivt_kernel(
            true,
            IvtIn {
                wen_ivt: true,
                ..Default::default()
            }
        ));
        assert!(!ivt_kernel(
            true,
            IvtIn {
                dma_ivt: true,
                ..Default::default()
            }
        ));
        // Run --otherwise--> Run
        assert!(ivt_kernel(true, IvtIn::default()));
        // NotExec --ERmin & no write--> Run
        assert!(ivt_kernel(
            false,
            IvtIn {
                pc_at_ermin: true,
                ..Default::default()
            }
        ));
        // NotExec --ERmin & write--> NotExec (write wins)
        assert!(!ivt_kernel(
            false,
            IvtIn {
                pc_at_ermin: true,
                wen_ivt: true,
                ..Default::default()
            }
        ));
        // NotExec --otherwise--> NotExec
        assert!(!ivt_kernel(false, IvtIn::default()));
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
        let enter = apex_pox::ExecIn {
            pc_in_er: true,
            pc_at_ermin: true,
            ..Default::default()
        };
        let arm = IvtIn {
            pc_at_ermin: true,
            ..Default::default()
        };
        let s1 = AsapMonitor::kernel(s0, enter, arm);
        assert!(s1.exec.exec && s1.ivt_run);
        // Interrupt: PC jumps to the in-ER ISR (pc stays in ER).
        let isr = apex_pox::ExecIn {
            pc_in_er: true,
            irq: true,
            ..Default::default()
        };
        let s2 = AsapMonitor::kernel(s1, isr, IvtIn::default());
        assert!(
            s2.exec.exec && s2.ivt_run,
            "authorized interrupt preserves EXEC"
        );
    }

    #[test]
    fn composite_kills_exec_on_ivt_write() {
        let s0 = AsapState::default();
        let enter = apex_pox::ExecIn {
            pc_in_er: true,
            pc_at_ermin: true,
            ..Default::default()
        };
        let arm = IvtIn {
            pc_at_ermin: true,
            ..Default::default()
        };
        let s1 = AsapMonitor::kernel(s0, enter, arm);
        let s2 = AsapMonitor::kernel(
            s1,
            apex_pox::ExecIn {
                pc_in_er: true,
                ..Default::default()
            },
            IvtIn {
                wen_ivt: true,
                ..Default::default()
            },
        );
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
