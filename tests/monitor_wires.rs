//! The monitor that runs is the monitor that is model-checked.
//!
//! The device clocks each monitor through `step_wires` with one step's
//! [`Wires`]; `asap::properties::verify_all` model-checks the same type
//! through its [`MonitorFsm`] impl, whose alphabet is the names of the
//! monitor's `INPUTS` mask. This suite walks every FSM state reachable
//! from `initial()` under the monitor's environment constraint, drives a
//! runtime monitor to that state along a witness input path, and then,
//! for every admissible valuation of the declared inputs, checks that
//!
//! * the valuation decodes to the wires it names,
//! * `step_wires` yields the output wire and violation edge that
//!   `MonitorFsm::step`/`output` define,
//! * every path to one FSM state leaves the runtime monitor in one
//!   state, and
//! * flipping any wire outside `INPUTS` changes neither that result nor
//!   the monitor's next state, so the model checker sees every wire the
//!   runtime monitor can react to. For ASAP this covers `irq`, which its
//!   `INPUTS` leaves out but `step_wires` reads.

use apex_pox::monitor::ApexMonitor;
use asap::monitor::AsapMonitor;
use ltl_mc::fsm::{InputVal, MonitorFsm};
use openmsp430::Wires;
use std::collections::{HashMap, VecDeque};
use vrased::hw::{KeyGuard, SwAttAtomicity, WireStep};
use vrased::props::{wire_names, WIRES};

/// A monitor as the device runs it: built by `Default`, clocked by
/// `step_wires` on the wires of its `INPUTS` alphabet.
trait Runtime: MonitorFsm + Clone + Default + PartialEq + std::fmt::Debug {
    const INPUTS: Wires;
    fn clock(&mut self, w: Wires) -> WireStep;
}

macro_rules! runtime {
    ($($m:ty),*) => {$(
        impl Runtime for $m {
            const INPUTS: Wires = <$m>::INPUTS;

            fn clock(&mut self, w: Wires) -> WireStep {
                self.step_wires(w)
            }
        }
    )*};
}

runtime!(KeyGuard, SwAttAtomicity, ApexMonitor, AsapMonitor);

/// Walks every reachable FSM state of `M` and checks the runtime clock
/// against the model at each. `falling` says which edge is the
/// violation: `EXEC` falling (PoX monitors) or `reset` rising (VRASED
/// guards). Returns the number of states visited.
fn check<M: Runtime>(constraint: impl Fn(&InputVal<'_>) -> bool, falling: bool) -> usize {
    let fsm = M::default();
    let inputs = fsm.inputs();
    let outputs = fsm.outputs();
    assert_eq!(outputs.len(), 1, "one output wire");
    let out_name = &outputs[0];
    assert_eq!(inputs, wire_names(M::INPUTS), "the alphabet is INPUTS");

    let valuations: Vec<u32> = (0..1u32 << inputs.len())
        .filter(|&bits| constraint(&InputVal::new(&inputs, bits)))
        .collect();

    // Every reached FSM state maps to the runtime monitor that reached
    // it; the queue holds (state, witness path, output on the edge in).
    let mut runtimes = HashMap::from([(fsm.initial(), M::default())]);
    let mut queue = VecDeque::from([(fsm.initial(), Vec::<u32>::new(), false)]);
    while let Some((state, path, prev_out)) = queue.pop_front() {
        let runtime = runtimes[&state].clone();
        for &bits in &valuations {
            let v = InputVal::new(&inputs, bits);
            let next = fsm.step(&state, &v);
            let out = fsm.output(&state, &v, out_name);
            let raised = if falling {
                prev_out && !out
            } else {
                out && !prev_out
            };

            let w = M::INPUTS.deposit(bits);
            assert_eq!(wire_names(w), v.true_names());
            let mut stepped = runtime.clone();
            let got = stepped.clock(w);
            assert_eq!(
                got,
                WireStep { wire: out, raised },
                "{out_name} after {path:?} under {:?}",
                v.true_names()
            );

            for (bit, name) in WIRES {
                if M::INPUTS.contains(bit) {
                    continue;
                }
                let flipped = Wires(w.0 ^ bit.0);
                let mut other = runtime.clone();
                assert_eq!(
                    other.clock(flipped),
                    got,
                    "`{name}`, outside the alphabet, changed the output after {path:?}"
                );
                assert_eq!(
                    other, stepped,
                    "`{name}`, outside the alphabet, changed the state after {path:?}"
                );
            }

            match runtimes.get(&next) {
                Some(known) => assert_eq!(
                    &stepped, known,
                    "one FSM state, two runtime states, after {path:?}"
                ),
                None => {
                    let mut longer = path.clone();
                    longer.push(bits);
                    runtimes.insert(next.clone(), stepped);
                    queue.push_back((next, longer, out));
                }
            }
        }
    }
    runtimes.len()
}

#[test]
fn key_guard_runs_as_model_checked() {
    assert_eq!(check::<KeyGuard>(|_| true, false), 2);
}

#[test]
fn atomicity_runs_as_model_checked() {
    assert_eq!(
        check::<SwAttAtomicity>(SwAttAtomicity::env_constraint, false),
        6
    );
}

#[test]
fn apex_monitor_runs_as_model_checked() {
    assert_eq!(check::<ApexMonitor>(ApexMonitor::env_constraint, true), 8);
}

#[test]
fn asap_monitor_runs_as_model_checked() {
    assert_eq!(check::<AsapMonitor>(AsapMonitor::env_constraint, true), 16);
}
