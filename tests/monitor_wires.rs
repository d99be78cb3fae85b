//! The monitor that runs is the monitor that is model-checked.
//!
//! The device clocks each monitor through `step_wires` with a
//! [`WireImage`]; `asap::properties::verify_all` model-checks the same
//! type through its [`MonitorFsm`] impl. This suite walks every FSM state
//! reachable from `initial()` under the monitor's environment constraint,
//! drives a runtime monitor to that state along a witness input path,
//! and then, for every admissible valuation of the declared inputs,
//! checks that
//!
//! * `step_wires` yields the output wire and violation edge that
//!   `MonitorFsm::step`/`output` define,
//! * every path to one FSM state leaves the runtime monitor in one
//!   state, and
//! * flipping any wire outside the monitor's alphabet (its
//!   `MonitorFsm::inputs()`) changes neither that result nor the
//!   monitor's next state, so the model checker sees every wire the
//!   runtime monitor can react to. For ASAP this covers `irq`, which
//!   its FSM leaves out of its alphabet but `step_wires` reads.

use apex_pox::monitor::ApexMonitor;
use asap::monitor::AsapMonitor;
use ltl_mc::fsm::{InputVal, MonitorFsm};
use std::collections::{HashMap, HashSet, VecDeque};
use vrased::hw::{KeyGuard, SwAttAtomicity, WireStep};
use vrased::props::{names, WireImage};

/// Every `WireImage` field, by proposition name.
const WIRES: [&str; 17] = [
    names::IRQ,
    names::FAULT,
    names::DMA_ACTIVE,
    names::REN_KEY,
    names::DMA_KEY,
    names::WEN_IVT,
    names::DMA_IVT,
    names::WEN_OR,
    names::DMA_OR,
    names::WEN_ER,
    names::DMA_ER,
    names::PC_IN_SWATT,
    names::PC_AT_SWATT_MIN,
    names::PC_AT_SWATT_MAX,
    names::PC_IN_ER,
    names::PC_AT_ERMIN,
    names::PC_AT_EREXIT,
];

/// The `WireImage` field named `name`.
fn field<'a>(w: &'a mut WireImage, name: &str) -> &'a mut bool {
    match name {
        names::IRQ => &mut w.irq,
        names::FAULT => &mut w.fault,
        names::DMA_ACTIVE => &mut w.dma_active,
        names::REN_KEY => &mut w.ren_key,
        names::DMA_KEY => &mut w.dma_key,
        names::WEN_IVT => &mut w.wen_ivt,
        names::DMA_IVT => &mut w.dma_ivt,
        names::WEN_OR => &mut w.wen_or,
        names::DMA_OR => &mut w.dma_or,
        names::WEN_ER => &mut w.wen_er,
        names::DMA_ER => &mut w.dma_er,
        names::PC_IN_SWATT => &mut w.pc_in_swatt,
        names::PC_AT_SWATT_MIN => &mut w.pc_at_swatt_min,
        names::PC_AT_SWATT_MAX => &mut w.pc_at_swatt_max,
        names::PC_IN_ER => &mut w.pc_in_er,
        names::PC_AT_ERMIN => &mut w.pc_at_ermin,
        names::PC_AT_EREXIT => &mut w.pc_at_erexit,
        other => panic!("no wire named `{other}`"),
    }
}

/// The image with exactly the valuation's true inputs set.
fn image(v: &InputVal<'_>) -> WireImage {
    let mut w = WireImage::default();
    for name in v.true_names() {
        *field(&mut w, name) = true;
    }
    w
}

/// A monitor as the device runs it: built by `Default`, clocked by
/// `step_wires`.
trait Runtime: MonitorFsm + Clone + Default + PartialEq + std::fmt::Debug {
    fn clock(&mut self, w: &WireImage) -> WireStep;
}

macro_rules! runtime {
    ($($m:ty),*) => {$(
        impl Runtime for $m {
            fn clock(&mut self, w: &WireImage) -> WireStep {
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
    let alphabet: HashSet<&str> = inputs.iter().map(String::as_str).collect();

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

            let w = image(&v);
            let mut stepped = runtime.clone();
            let got = stepped.clock(&w);
            assert_eq!(
                got,
                WireStep { wire: out, raised },
                "{out_name} after {path:?} under {:?}",
                v.true_names()
            );

            for name in WIRES {
                if alphabet.contains(name) {
                    continue;
                }
                let mut flipped = w;
                *field(&mut flipped, name) ^= true;
                let mut other = runtime.clone();
                assert_eq!(
                    other.clock(&flipped),
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
