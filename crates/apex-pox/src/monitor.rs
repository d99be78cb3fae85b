//! The APEX `EXEC`-flag hardware monitor.
//!
//! `EXEC` is a 1-bit flag that no software can write (§2.3). The monitor
//! sets it when execution (re)starts at `ERmin` and clears it on any
//! event that would invalidate the proof:
//!
//! * leaving `ER` other than from `ERmax` (LTL 1);
//! * entering `ER` other than at `ERmin` (LTL 2);
//! * an interrupt during execution (LTL 3 — **APEX only**; ASAP removes
//!   exactly this rule and compensates with \[AP1\]/\[AP2\]);
//! * a write to `ER` by CPU or DMA (`ER` immutability);
//! * a write to `OR` by anything but the executing `ER` code;
//! * DMA activity or a CPU fault during execution.
//!
//! The kernel is pure. [`ApexMonitor`] clocks it for the device through
//! `step_wires`, and the same value is a model-checkable
//! [`ltl_mc::MonitorFsm`] (the same transition code in both roles).

use ltl_mc::formula::Ltl;
use ltl_mc::fsm::{InputVal, MonitorFsm};
use ltl_mc::mc::Property;
use vrased::hw::WireStep;
use vrased::props::{names, WireImage};

fn p(name: &str) -> Ltl {
    Ltl::prop(name)
}

/// Inputs of the `EXEC` kernel for one step.
#[derive(Debug, Clone, Copy, Default)]
pub struct ExecIn {
    /// `PC ∈ ER`.
    pub pc_in_er: bool,
    /// `PC = ERmin`.
    pub pc_at_ermin: bool,
    /// `PC = ERmax` (legal exit instruction).
    pub pc_at_erexit: bool,
    /// Interrupt service began this step.
    pub irq: bool,
    /// CPU write into `ER`.
    pub wen_er: bool,
    /// DMA touched `ER`.
    pub dma_er: bool,
    /// CPU write into `OR`.
    pub wen_or: bool,
    /// DMA touched `OR`.
    pub dma_or: bool,
    /// Any DMA activity.
    pub dma_active: bool,
    /// CPU fault this step.
    pub fault: bool,
}

/// Register state of the `EXEC` monitor.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default)]
pub struct ExecState {
    /// The `EXEC` flag.
    pub exec: bool,
    /// Execution window open: entered at `ERmin`, not yet legally exited.
    pub active: bool,
    /// `PC ∈ ER` on the previous step.
    pub prev_in_er: bool,
    /// `PC = ERmax` on the previous step.
    pub prev_at_exit: bool,
}

/// One clock of the `EXEC` kernel.
///
/// `check_irq` selects APEX behaviour (LTL 3 enforced) vs ASAP behaviour
/// (interrupts allowed as long as the PC stays inside `ER`).
pub fn exec_kernel(s: ExecState, i: ExecIn, check_irq: bool) -> ExecState {
    let mut exec = s.exec;
    let mut active = s.active;

    // (Re)entry at ERmin from outside the region opens a fresh proof
    // window and raises EXEC.
    if i.pc_at_ermin && !s.prev_in_er {
        exec = true;
        active = true;
    }

    // Boundary rules (LTL 1 / LTL 2).
    if i.pc_in_er && !s.prev_in_er && !i.pc_at_ermin {
        // Entered ER in the middle.
        exec = false;
        active = false;
    }
    if !i.pc_in_er && s.prev_in_er {
        if s.prev_at_exit {
            // Legal completion: window closes, EXEC keeps its value.
            active = false;
        } else {
            exec = false;
            active = false;
        }
    }

    // Rules during the execution window.
    if active && i.pc_in_er {
        if check_irq && i.irq {
            exec = false; // LTL 3 (APEX only)
        }
        if i.dma_active {
            exec = false;
        }
        if i.fault {
            exec = false;
        }
    }

    // Memory immutability (from execution start until attestation).
    if i.wen_er || i.dma_er {
        exec = false;
    }
    if (i.wen_or && !i.pc_in_er) || i.dma_or {
        exec = false;
    }

    ExecState {
        exec,
        active,
        prev_in_er: i.pc_in_er,
        prev_at_exit: i.pc_at_erexit,
    }
}

impl ExecIn {
    /// The kernel inputs from an already-extracted [`WireImage`].
    pub fn from_wires(w: &WireImage) -> ExecIn {
        ExecIn {
            pc_in_er: w.pc_in_er,
            pc_at_ermin: w.pc_at_ermin,
            pc_at_erexit: w.pc_at_erexit,
            irq: w.irq,
            wen_er: w.wen_er,
            dma_er: w.dma_er,
            wen_or: w.wen_or,
            dma_or: w.dma_or,
            dma_active: w.dma_active,
            fault: w.fault,
        }
    }
}

/// The APEX `EXEC` monitor (LTL 3 enforced).
///
/// `ApexMonitor::default()` is the power-on state (`EXEC = 0`): the
/// value the device clocks and the model checker explores alike.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct ApexMonitor {
    state: ExecState,
}

impl ApexMonitor {
    /// Current `EXEC` level.
    pub fn exec(&self) -> bool {
        self.state.exec
    }

    /// The violation message the device records when `EXEC` falls.
    pub const EXEC_CLEARED: &'static str = "APEX: EXEC cleared";

    /// One clock of the `EXEC` kernel (LTL 3 enforced) against
    /// a pre-extracted [`WireImage`]. The returned wire is `EXEC`; the
    /// edge reports `EXEC` falling this step.
    pub fn step_wires(&mut self, w: &WireImage) -> WireStep {
        let before = self.state.exec;
        self.state = exec_kernel(self.state, ExecIn::from_wires(w), true);
        WireStep {
            wire: self.state.exec,
            raised: before && !self.state.exec,
        }
    }

    /// The input wire names shared by APEX- and ASAP-mode monitors.
    pub fn input_names() -> Vec<String> {
        vec![
            names::PC_IN_ER.into(),
            names::PC_AT_ERMIN.into(),
            names::PC_AT_EREXIT.into(),
            names::IRQ.into(),
            names::WEN_ER.into(),
            names::DMA_ER.into(),
            names::WEN_OR.into(),
            names::DMA_OR.into(),
            names::DMA_ACTIVE.into(),
            names::FAULT.into(),
        ]
    }

    /// Decodes kernel inputs from a model-checking valuation.
    pub fn inputs_from_val(v: &InputVal<'_>) -> ExecIn {
        ExecIn {
            pc_in_er: v.get(names::PC_IN_ER),
            pc_at_ermin: v.get(names::PC_AT_ERMIN),
            pc_at_erexit: v.get(names::PC_AT_EREXIT),
            irq: v.get(names::IRQ),
            wen_er: v.get(names::WEN_ER),
            dma_er: v.get(names::DMA_ER),
            wen_or: v.get(names::WEN_OR),
            dma_or: v.get(names::DMA_OR),
            dma_active: v.get(names::DMA_ACTIVE),
            fault: v.get(names::FAULT),
        }
    }

    /// Static environment invariants: the entry/exit addresses are inside
    /// `ER`; DMA into `ER`/`OR` implies DMA activity.
    pub fn env_constraint(v: &InputVal<'_>) -> bool {
        (!v.get(names::PC_AT_ERMIN) || v.get(names::PC_IN_ER))
            && (!v.get(names::PC_AT_EREXIT) || v.get(names::PC_IN_ER))
            && (!v.get(names::DMA_ER) || v.get(names::DMA_ACTIVE))
            && (!v.get(names::DMA_OR) || v.get(names::DMA_ACTIVE))
    }

    /// The APEX property sub-suite (P09–P17): LTLs 1–3 of the paper plus
    /// the immutability and flag-discipline invariants inherited from
    /// APEX's verification.
    pub fn properties() -> Vec<Property> {
        let mut props = shared_exec_properties();
        props.insert(
            2,
            Property::new(
                "P11 LTL3 irq kills EXEC: G(pc_in_er & irq -> !exec)",
                p(names::PC_IN_ER)
                    .and(p(names::IRQ))
                    .implies(p(names::EXEC).not())
                    .globally(),
            ),
        );
        props
    }
}

/// The properties shared by the APEX and ASAP `EXEC` monitors
/// (everything except the irq rule).
pub fn shared_exec_properties() -> Vec<Property> {
    vec![
        Property::new(
            "P09 LTL1 exit only at ERmax: G(pc_in_er & X !pc_in_er -> pc_at_erexit | !X exec)",
            p(names::PC_IN_ER)
                .and(p(names::PC_IN_ER).not().next())
                .implies(p(names::PC_AT_EREXIT).or(p(names::EXEC).not().next()))
                .globally(),
        ),
        Property::new(
            "P10 LTL2 entry only at ERmin: G(!pc_in_er & X pc_in_er -> X pc_at_ermin | !X exec)",
            p(names::PC_IN_ER)
                .not()
                .and(p(names::PC_IN_ER).next())
                .implies(p(names::PC_AT_ERMIN).next().or(p(names::EXEC).not().next()))
                .globally(),
        ),
        Property::new(
            "P12 ER immutability: G(wen_er | dma_er -> !exec)",
            p(names::WEN_ER)
                .or(p(names::DMA_ER))
                .implies(p(names::EXEC).not())
                .globally(),
        ),
        Property::new(
            "P13 OR protection: G((wen_or & !pc_in_er) | dma_or -> !exec)",
            p(names::WEN_OR)
                .and(p(names::PC_IN_ER).not())
                .or(p(names::DMA_OR))
                .implies(p(names::EXEC).not())
                .globally(),
        ),
        Property::new(
            "P14 no DMA during execution: G(pc_in_er & dma_active -> !exec)",
            p(names::PC_IN_ER)
                .and(p(names::DMA_ACTIVE))
                .implies(p(names::EXEC).not())
                .globally(),
        ),
        Property::new(
            "P15 no completion via fault: G(pc_in_er & fault -> !exec)",
            p(names::PC_IN_ER)
                .and(p(names::FAULT))
                .implies(p(names::EXEC).not())
                .globally(),
        ),
        Property::new(
            "P16 EXEC rises only at ERmin: G(!exec & X exec -> X pc_at_ermin)",
            p(names::EXEC)
                .not()
                .and(p(names::EXEC).next())
                .implies(p(names::PC_AT_ERMIN).next())
                .globally(),
        ),
        Property::new(
            "P17 power-on: exec -> pc_at_ermin (initial state)",
            p(names::EXEC).implies(p(names::PC_AT_ERMIN)),
        ),
    ]
}

impl MonitorFsm for ApexMonitor {
    type State = ExecState;

    fn initial(&self) -> ExecState {
        ExecState::default()
    }

    fn inputs(&self) -> Vec<String> {
        ApexMonitor::input_names()
    }

    fn outputs(&self) -> Vec<String> {
        vec![names::EXEC.into()]
    }

    fn step(&self, state: &ExecState, inputs: &InputVal<'_>) -> ExecState {
        exec_kernel(*state, ApexMonitor::inputs_from_val(inputs), true)
    }

    fn output(&self, state: &ExecState, inputs: &InputVal<'_>, name: &str) -> bool {
        assert_eq!(name, names::EXEC);
        exec_kernel(*state, ApexMonitor::inputs_from_val(inputs), true).exec
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ltl_mc::fsm::kripke_of_constrained;
    use ltl_mc::mc::check_suite;

    fn step(s: ExecState, i: ExecIn) -> ExecState {
        exec_kernel(s, i, true)
    }

    #[test]
    fn honest_execution_sets_and_keeps_exec() {
        let s0 = ExecState::default();
        // Enter at ERmin.
        let s1 = step(
            s0,
            ExecIn {
                pc_in_er: true,
                pc_at_ermin: true,
                ..Default::default()
            },
        );
        assert!(s1.exec && s1.active);
        // Run inside ER.
        let s2 = step(
            s1,
            ExecIn {
                pc_in_er: true,
                ..Default::default()
            },
        );
        assert!(s2.exec);
        // Reach the exit instruction.
        let s3 = step(
            s2,
            ExecIn {
                pc_in_er: true,
                pc_at_erexit: true,
                ..Default::default()
            },
        );
        assert!(s3.exec);
        // Leave from the exit.
        let s4 = step(s3, ExecIn::default());
        assert!(s4.exec, "legal completion preserves EXEC");
        assert!(!s4.active);
    }

    #[test]
    fn early_exit_clears_exec() {
        let s0 = ExecState::default();
        let s1 = step(
            s0,
            ExecIn {
                pc_in_er: true,
                pc_at_ermin: true,
                ..Default::default()
            },
        );
        let s2 = step(s1, ExecIn::default()); // left without touching ERmax
        assert!(!s2.exec);
    }

    #[test]
    fn mid_entry_clears_exec() {
        let s0 = ExecState::default();
        let s1 = step(
            s0,
            ExecIn {
                pc_in_er: true,
                ..Default::default()
            },
        );
        assert!(!s1.exec);
    }

    #[test]
    fn irq_during_execution_clears_exec_in_apex_mode() {
        let s0 = ExecState::default();
        let s1 = step(
            s0,
            ExecIn {
                pc_in_er: true,
                pc_at_ermin: true,
                ..Default::default()
            },
        );
        let s2 = step(
            s1,
            ExecIn {
                pc_in_er: true,
                irq: true,
                ..Default::default()
            },
        );
        assert!(!s2.exec, "Fig. 5(c): any irq kills EXEC under APEX");
    }

    #[test]
    fn irq_preserved_in_asap_mode_when_pc_stays() {
        let s0 = ExecState::default();
        let s1 = exec_kernel(
            s0,
            ExecIn {
                pc_in_er: true,
                pc_at_ermin: true,
                ..Default::default()
            },
            false,
        );
        let s2 = exec_kernel(
            s1,
            ExecIn {
                pc_in_er: true,
                irq: true,
                ..Default::default()
            },
            false,
        );
        assert!(s2.exec, "Fig. 5(a): in-ER ISR keeps EXEC under ASAP");
        // ISR located outside ER: the next step shows PC outside.
        let s3 = exec_kernel(s2, ExecIn::default(), false);
        assert!(!s3.exec, "Fig. 5(b): PC leaving ER kills EXEC under ASAP");
    }

    #[test]
    fn er_write_clears_exec_even_after_completion() {
        let s0 = ExecState::default();
        let s1 = step(
            s0,
            ExecIn {
                pc_in_er: true,
                pc_at_ermin: true,
                ..Default::default()
            },
        );
        let s2 = step(
            s1,
            ExecIn {
                pc_in_er: true,
                pc_at_erexit: true,
                ..Default::default()
            },
        );
        let s3 = step(s2, ExecIn::default());
        assert!(s3.exec);
        let s4 = step(
            s3,
            ExecIn {
                wen_er: true,
                ..Default::default()
            },
        );
        assert!(!s4.exec, "post-execution ER tamper invalidates the proof");
    }

    #[test]
    fn or_write_by_er_code_is_legal() {
        let s0 = ExecState::default();
        let s1 = step(
            s0,
            ExecIn {
                pc_in_er: true,
                pc_at_ermin: true,
                ..Default::default()
            },
        );
        let s2 = step(
            s1,
            ExecIn {
                pc_in_er: true,
                wen_or: true,
                ..Default::default()
            },
        );
        assert!(
            s2.exec,
            "ER code writing its own output region is the point of OR"
        );
        let s3 = step(
            s2,
            ExecIn {
                pc_in_er: true,
                pc_at_erexit: true,
                ..Default::default()
            },
        );
        let s4 = step(
            s3,
            ExecIn {
                wen_or: true,
                ..Default::default()
            },
        );
        assert!(
            !s4.exec,
            "untrusted code writing OR afterwards is a violation"
        );
    }

    #[test]
    fn dma_during_execution_clears_exec() {
        let s0 = ExecState::default();
        let s1 = step(
            s0,
            ExecIn {
                pc_in_er: true,
                pc_at_ermin: true,
                ..Default::default()
            },
        );
        let s2 = step(
            s1,
            ExecIn {
                pc_in_er: true,
                dma_active: true,
                ..Default::default()
            },
        );
        assert!(!s2.exec);
    }

    #[test]
    fn reentry_at_ermin_rearms() {
        let s0 = ExecState::default();
        let s1 = step(
            s0,
            ExecIn {
                pc_in_er: true,
                pc_at_ermin: true,
                ..Default::default()
            },
        );
        let s2 = step(
            s1,
            ExecIn {
                pc_in_er: true,
                irq: true,
                ..Default::default()
            },
        );
        assert!(!s2.exec);
        let s3 = step(s2, ExecIn::default()); // pc leaves (already invalid)
        let s4 = step(
            s3,
            ExecIn {
                pc_in_er: true,
                pc_at_ermin: true,
                ..Default::default()
            },
        );
        assert!(s4.exec, "restarting from ERmin re-arms the proof");
    }

    #[test]
    fn apex_suite_model_checks() {
        let k = kripke_of_constrained(&ApexMonitor::default(), ApexMonitor::env_constraint);
        let rows = check_suite(&k, &ApexMonitor::properties());
        assert_eq!(rows.len(), 9);
        for row in &rows {
            assert!(
                row.result.holds,
                "{} failed: {:?}",
                row.name, row.result.counterexample
            );
        }
    }
}
