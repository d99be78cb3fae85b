//! Property-based conformance: each monitor FSM, driven by *random*
//! input sequences, produces output traces that satisfy its own LTL
//! specifications under finite-trace semantics.
//!
//! This is the random-stimulus counterpart of the exhaustive model
//! check in `asap::properties::verify_all` — same kernels, same
//! formulas, independent evaluation path (`ltl_mc::trace` instead of
//! the Büchi/product machinery).

use apex_pox::monitor::{exec_kernel, ApexMonitor, ExecState};
use asap::monitor::{ivt_kernel, IvtGuard};
use ltl_mc::formula::Ltl;
use ltl_mc::trace::Trace;
use openmsp430::Wires;
use proptest::prelude::*;
use vrased::hw::{AtomicityState, KeyGuard, SwAttAtomicity};
use vrased::props::names;

fn state_set(props: &[(&str, bool)]) -> std::collections::BTreeSet<String> {
    props
        .iter()
        .filter(|(_, v)| *v)
        .map(|(n, _)| n.to_string())
        .collect()
}

/// Finite-trace conformance for monitor specs: `G ψ` obligations that
/// peek at the next state (`X …`) are only judged at positions that
/// *have* a next state — the standard weak reading for runtime
/// verification of safety monitors (an execution cut mid-obligation is
/// not a violation).
fn conforms(trace: &Trace, f: &Ltl) -> bool {
    match f {
        Ltl::G(inner) => (0..trace.len().saturating_sub(1)).all(|i| trace.satisfies_at(inner, i)),
        _ => trace.satisfies(f),
    }
}

proptest! {
    /// KeyGuard traces satisfy P01–P03.
    #[test]
    fn key_guard_traces_conform(
        seq in proptest::collection::vec((any::<bool>(), any::<bool>(), any::<bool>()), 1..40)
    ) {
        let mut violated = false;
        let mut trace = Trace::new();
        for (ren_key, dma_key, pc_in_swatt) in seq {
            violated = KeyGuard::kernel(
                violated,
                Wires::REN_KEY.when(ren_key)
                    | Wires::DMA_KEY.when(dma_key)
                    | Wires::PC_IN_SWATT.when(pc_in_swatt),
            );
            trace.push_state(state_set(&[
                (names::REN_KEY, ren_key),
                (names::DMA_KEY, dma_key),
                (names::PC_IN_SWATT, pc_in_swatt),
                (names::RESET, violated),
            ]));
        }
        for prop in KeyGuard::properties() {
            prop_assert!(
                conforms(&trace, &prop.formula),
                "{} violated on random trace", prop.name
            );
        }
    }

    /// SW-Att atomicity traces satisfy P04–P08 (under the static env
    /// invariants: entry/exit points lie inside the region).
    #[test]
    fn atomicity_traces_conform(
        seq in proptest::collection::vec(
            (0u8..3, any::<bool>(), any::<bool>()), 1..40)
    ) {
        let mut s = AtomicityState::default();
        let mut trace = Trace::new();
        for (pos, irq, dma) in seq {
            // pos: 0 = outside, 1 = at entry, 2 = inside (mid).
            let pc_in_swatt = pos != 0;
            let pc_at_min = pos == 1;
            // Exit-point visits are modelled as a fourth position; fold
            // pos==2 into "sometimes at max" via irq bit reuse keeps the
            // space small but still covers the exit rule via pos cycling.
            let pc_at_max = pos == 2 && dma; // arbitrary but env-consistent
            s = SwAttAtomicity::kernel(
                s,
                Wires::PC_IN_SWATT.when(pc_in_swatt)
                    | Wires::PC_AT_SWATT_MIN.when(pc_at_min)
                    | Wires::PC_AT_SWATT_MAX.when(pc_at_max)
                    | Wires::IRQ.when(irq)
                    | Wires::DMA_ACTIVE.when(dma),
            );
            trace.push_state(state_set(&[
                (names::PC_IN_SWATT, pc_in_swatt),
                (names::PC_AT_SWATT_MIN, pc_at_min),
                (names::PC_AT_SWATT_MAX, pc_at_max),
                (names::IRQ, irq),
                (names::DMA_ACTIVE, dma),
                (names::RESET, s.violated),
            ]));
        }
        for prop in SwAttAtomicity::properties() {
            prop_assert!(
                conforms(&trace, &prop.formula),
                "{} violated on random trace", prop.name
            );
        }
    }

    /// APEX EXEC-monitor traces satisfy the full P09–P17 suite on random
    /// (env-consistent) stimulus.
    #[test]
    fn apex_exec_traces_conform(
        seq in proptest::collection::vec(
            (0u8..4, any::<bool>(), 0u8..8, any::<bool>(), any::<bool>()), 1..60)
    ) {
        let mut s = ExecState::default();
        let mut trace = Trace::new();
        for (pos, irq, mem_bits, dma_active, fault) in seq {
            // pos: 0 outside, 1 at ERmin, 2 mid-ER, 3 at ERexit.
            let pc_in_er = pos != 0;
            let pc_at_ermin = pos == 1;
            let pc_at_erexit = pos == 3;
            let wen_er = mem_bits & 1 != 0;
            let dma_er = mem_bits & 2 != 0 && dma_active;
            let wen_or = mem_bits & 4 != 0;
            let dma_or = mem_bits & 2 != 0 && dma_active; // shares the dma bit
            let w = Wires::PC_IN_ER.when(pc_in_er)
                | Wires::PC_AT_ERMIN.when(pc_at_ermin)
                | Wires::PC_AT_EREXIT.when(pc_at_erexit)
                | Wires::IRQ.when(irq)
                | Wires::WEN_ER.when(wen_er)
                | Wires::DMA_ER.when(dma_er)
                | Wires::WEN_OR.when(wen_or)
                | Wires::DMA_OR.when(dma_or)
                | Wires::DMA_ACTIVE.when(dma_active)
                | Wires::FAULT.when(fault);
            s = exec_kernel(s, w, true);
            trace.push_state(state_set(&[
                (names::PC_IN_ER, pc_in_er),
                (names::PC_AT_ERMIN, pc_at_ermin),
                (names::PC_AT_EREXIT, pc_at_erexit),
                (names::IRQ, irq),
                (names::WEN_ER, wen_er),
                (names::DMA_ER, dma_er),
                (names::WEN_OR, wen_or),
                (names::DMA_OR, dma_or),
                (names::DMA_ACTIVE, dma_active),
                (names::FAULT, fault),
                (names::EXEC, s.exec),
            ]));
        }
        for prop in ApexMonitor::properties() {
            prop_assert!(
                conforms(&trace, &prop.formula),
                "{} violated on random trace", prop.name
            );
        }
    }

    /// IVT-guard traces satisfy P18–P20 (LTL 4 and the Fig. 3 re-arm
    /// discipline).
    #[test]
    fn ivt_guard_traces_conform(
        seq in proptest::collection::vec((any::<bool>(), any::<bool>(), any::<bool>()), 1..40)
    ) {
        let mut run = false;
        let mut trace = Trace::new();
        for (wen_ivt, dma_ivt, pc_at_ermin) in seq {
            run = ivt_kernel(
                run,
                Wires::WEN_IVT.when(wen_ivt)
                    | Wires::DMA_IVT.when(dma_ivt)
                    | Wires::PC_AT_ERMIN.when(pc_at_ermin),
            );
            trace.push_state(state_set(&[
                (names::WEN_IVT, wen_ivt),
                (names::DMA_IVT, dma_ivt),
                (names::PC_AT_ERMIN, pc_at_ermin),
                (names::EXEC, run),
            ]));
        }
        for prop in IvtGuard::properties() {
            prop_assert!(
                conforms(&trace, &prop.formula),
                "{} violated on random trace", prop.name
            );
        }
    }

    /// Differential ASAP-vs-APEX theorem on random traces: whenever the
    /// two kernels disagree on EXEC, (1) APEX is the lower one, and
    /// (2) an interrupt occurred inside ER somewhere earlier.
    #[test]
    fn asap_only_diverges_on_interrupts(
        seq in proptest::collection::vec((0u8..4, any::<bool>()), 1..60)
    ) {
        let mut apex = ExecState::default();
        let mut asap = ExecState::default();
        let mut irq_in_er_seen = false;
        for (pos, irq) in seq {
            let w = Wires::PC_IN_ER.when(pos != 0)
                | Wires::PC_AT_ERMIN.when(pos == 1)
                | Wires::PC_AT_EREXIT.when(pos == 3)
                | Wires::IRQ.when(irq);
            // Track the irq-in-window condition APEX punishes.
            apex = exec_kernel(apex, w, true);
            asap = exec_kernel(asap, w, false);
            if pos != 0 && irq {
                irq_in_er_seen = true;
            }
            if apex.exec != asap.exec {
                prop_assert!(asap.exec && !apex.exec, "ASAP is never stricter than APEX");
                prop_assert!(irq_in_er_seen, "divergence requires an in-ER interrupt");
            }
        }
    }
}
