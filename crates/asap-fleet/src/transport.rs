//! How request frames reach provers and response frames come back.
//!
//! A transport is a **non-blocking byte pump**: [`send`] puts one
//! enveloped frame on the wire, [`try_recv`] returns a received frame
//! if one is available *right now*. Nothing here blocks on a device —
//! waiting, deadlines and verdicts all live in the sans-IO
//! [`RoundEngine`](crate::RoundEngine), which any transport drives by
//! pumping frames in and ticking logical time.
//!
//! The in-process [`Loopback`] wires frames straight into simulated
//! [`Device`]s: the zero-latency reference that
//! [`FleetVerifier::run_round`](crate::FleetVerifier::run_round) drives
//! lock-step, for tests, scenarios and benchmarks. Provers in other
//! processes or hosts are served over sockets by
//! [`FleetRuntime`](crate::FleetRuntime) instead.
//!
//! [`send`]: Transport::send
//! [`try_recv`]: Transport::try_recv

use crate::DeviceId;
use apex_pox::wire::Envelope;
use asap::Device;
use std::collections::{HashMap, VecDeque};

/// A non-blocking frame pump between the verifier and its provers.
pub trait Transport {
    /// Puts one enveloped request frame on the wire towards `device`.
    /// Delivery is best-effort: a transport reports loss by the
    /// response simply never appearing in [`try_recv`], never by
    /// forging frames — the engine's deadline then charges the device
    /// [`NoResponse`](crate::FleetError::NoResponse).
    ///
    /// [`try_recv`]: Transport::try_recv
    fn send(&mut self, device: DeviceId, frame: &[u8]);

    /// The next received enveloped response frame, if one is available
    /// right now; `None` means "nothing yet", and the driver should
    /// `tick` the engine.
    fn try_recv(&mut self) -> Option<Vec<u8>>;
}

/// An in-memory transport backed by real simulated devices.
///
/// [`send`](Transport::send) unwraps the frame, dispatches it to the
/// owned [`Device`]'s [`attest_bytes`](Device::attest_bytes), and
/// queues the re-enveloped response for [`try_recv`](Transport::try_recv)
/// — exactly the work a network stack plus the prover's UART shim
/// would do, minus the latency.
#[derive(Default)]
pub struct Loopback {
    devices: HashMap<DeviceId, Device>,
    inbox: VecDeque<Vec<u8>>,
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

    /// The attached device, for scenario setup (running it to its done
    /// loop, pressing buttons, tampering with memory).
    pub fn device_mut(&mut self, id: DeviceId) -> Option<&mut Device> {
        self.devices.get_mut(&id)
    }

    /// Number of attached devices.
    pub fn len(&self) -> usize {
        self.devices.len()
    }

    /// True when no devices are attached.
    pub fn is_empty(&self) -> bool {
        self.devices.is_empty()
    }

    /// One synchronous exchange, bypassing the receive queue: the
    /// device's response to `frame`, if it answers. A convenience for
    /// tests and scenario priming that need a specific device's frame
    /// in hand; round driving goes through [`Transport`].
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

impl Transport for Loopback {
    fn send(&mut self, device: DeviceId, frame: &[u8]) {
        if let Some(response) = self.exchange(device, frame) {
            self.inbox.push_back(response);
        }
    }

    fn try_recv(&mut self) -> Option<Vec<u8>> {
        self.inbox.pop_front()
    }
}
