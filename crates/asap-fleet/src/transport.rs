//! The in-process prover fabric: frames in, responses out, no sockets.
//!
//! [`Loopback`] wires request frames straight into simulated
//! [`Device`]s: the zero-latency reference that
//! [`FleetVerifier::run_round`](crate::FleetVerifier::run_round) drives
//! lock-step, for tests, scenarios and benchmarks. Waiting, deadlines
//! and verdicts all live in the sans-IO
//! [`RoundEngine`](crate::RoundEngine); provers in other processes or
//! hosts are served over sockets by [`FleetRuntime`](crate::FleetRuntime)
//! instead.

use crate::idhash::IdMap;
use crate::DeviceId;
use apex_pox::wire::Envelope;
use asap::Device;

/// An in-memory prover fabric backed by real simulated devices.
///
/// [`exchange`](Loopback::exchange) unwraps a request frame, dispatches
/// it to the owned [`Device`]'s [`attest_bytes`](Device::attest_bytes),
/// and re-envelopes the response — exactly the work a network stack
/// plus the prover's UART shim would do, minus the latency.
#[derive(Default)]
pub struct Loopback {
    devices: IdMap<DeviceId, Device>,
}

impl Loopback {
    /// An empty loopback fabric.
    pub fn new() -> Loopback {
        Loopback::default()
    }

    /// Attaches a device under `id`, replacing any previous occupant.
    pub fn attach(&mut self, id: DeviceId, device: Device) {
        self.devices.insert(id, device);
    }

    /// One synchronous exchange: the device's response to `frame`, if
    /// it answers. A device that is not attached, a frame addressed to
    /// somebody else, or a request the device refuses yields `None` —
    /// loss, never a forged frame, so the engine's deadline charges the
    /// device [`NoResponse`](crate::FleetError::NoResponse).
    pub fn exchange(&mut self, device: DeviceId, frame: &[u8]) -> Option<Vec<u8>> {
        let (addressee, payload) = Envelope::parse(frame).ok()?;
        // A prover ignores frames addressed to somebody else.
        if addressee != device.0 {
            return None;
        }
        let prover = self.devices.get_mut(&device)?;
        let response = prover.attest_bytes(payload).ok()?;
        Some(Envelope::wrap(device.0, response).to_bytes())
    }
}
