//! Fleet-level failures, layered over [`asap::AsapError`].
//!
//! A fleet round can fail in ways a single session cannot: a frame can
//! be unattributable, a device can be unknown or have no challenge
//! outstanding, a response can simply never arrive. Those are
//! [`FleetError`] variants of their own; a session that *concluded* and
//! was judged invalid keeps its precise per-session reason inside
//! [`FleetError::Rejected`].

use crate::DeviceId;
use apex_pox::wire::WireError;
use asap::AsapError;
use std::error::Error;
use std::fmt;

/// Everything that can go wrong for one device in a fleet round.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum FleetError {
    /// [`FleetVerifier::register`](crate::FleetVerifier::register) was
    /// called twice for the same device.
    DuplicateDevice(DeviceId),
    /// The device id is not enrolled in the fleet.
    UnknownDevice(DeviceId),
    /// Evidence arrived for a device with no challenge outstanding —
    /// the replay shape at fleet level: the session it answered was
    /// already concluded (or never begun).
    NoSession(DeviceId),
    /// The device was challenged this round but no response frame came
    /// back before the round concluded.
    NoResponse(DeviceId),
    /// The device was removed from the fleet while its round was in
    /// flight ([`FleetVerifier::remove`](crate::FleetVerifier::remove)):
    /// the round resolves it immediately with this verdict — never
    /// leaving it to dangle to a `NoResponse` deadline — via
    /// [`RoundEngine::sync_membership`](crate::RoundEngine::sync_membership).
    Evicted(DeviceId),
    /// [`FleetRuntime::wait_round`](crate::FleetRuntime::wait_round)
    /// was handed a ticket that was never issued, or whose report was
    /// already collected.
    UnknownTicket(u64),
    /// The envelope itself failed to decode, so the frame cannot be
    /// attributed to any device.
    Frame(WireError),
    /// The session concluded and the evidence was judged invalid; the
    /// inner error is the per-session verdict (`BadMac`, `Wire`,
    /// `NotExecuted`, …).
    Rejected(AsapError),
}

impl fmt::Display for FleetError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            FleetError::DuplicateDevice(id) => write!(f, "device {id} is already enrolled"),
            FleetError::UnknownDevice(id) => write!(f, "device {id} is not enrolled"),
            FleetError::NoSession(id) => {
                write!(f, "device {id} has no challenge outstanding")
            }
            FleetError::NoResponse(id) => {
                write!(f, "device {id} never answered this round's challenge")
            }
            FleetError::Evicted(id) => {
                write!(f, "device {id} was evicted before its round resolved")
            }
            FleetError::UnknownTicket(ticket) => {
                write!(f, "round ticket {ticket} is not in flight")
            }
            FleetError::Frame(e) => write!(f, "unattributable frame: {e}"),
            FleetError::Rejected(e) => write!(f, "evidence rejected: {e}"),
        }
    }
}

impl Error for FleetError {
    fn source(&self) -> Option<&(dyn Error + 'static)> {
        match self {
            FleetError::Frame(e) => Some(e),
            FleetError::Rejected(e) => Some(e),
            _ => None,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn displays_name_the_device() {
        let id = DeviceId(42);
        for e in [
            FleetError::DuplicateDevice(id),
            FleetError::UnknownDevice(id),
            FleetError::NoSession(id),
            FleetError::NoResponse(id),
            FleetError::Evicted(id),
        ] {
            assert!(e.to_string().contains("42"), "{e}");
        }
    }

    #[test]
    fn unknown_ticket_names_the_ticket_not_a_device() {
        let e = FleetError::UnknownTicket(7);
        assert_eq!(e.to_string(), "round ticket 7 is not in flight");
    }
}
