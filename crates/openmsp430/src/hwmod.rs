//! The hardware-monitor interface: the contract between the MCU and the
//! VRASED/APEX/ASAP `HW-Mod` modules of Fig. 2.
//!
//! A monitor is a small synchronous FSM clocked once per execution step
//! with the wires it samples. It can drive the `EXEC` wire (APEX/ASAP)
//! and/or request a hard MCU reset (VRASED's response to a key-access or
//! atomicity violation). Monitors never mutate machine state directly —
//! they are pure observers plus output wires, exactly like their Verilog
//! counterparts. The monitors themselves live in the `vrased`,
//! `apex-pox` and `asap` crates; this module holds the static
//! composition that stacks them.

/// Two monitors composed statically, clocked with the same wires — the
/// software analogue of instantiating both Verilog modules against the
/// same CPU wires.
///
/// Nesting `Compose` builds a whole monitor stack as one concrete type,
/// so a device can clock its `HW-Mod` without `dyn` dispatch or per-step
/// allocation: `Compose(Compose(key_guard, atomicity), exec_monitor)`.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct Compose<A, B>(pub A, pub B);
