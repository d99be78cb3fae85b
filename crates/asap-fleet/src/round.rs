//! Per-round results: one verdict per frame/challenged device.

use crate::error::FleetError;
use crate::DeviceId;
use asap::Attested;
use std::fmt;

/// The verdict for one device (or one unattributable frame) in a round.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct RoundOutcome {
    /// The device the outcome belongs to; `None` when the frame's
    /// envelope did not decode, so no attribution was possible.
    pub device: Option<DeviceId>,
    /// The verdict: authenticated outputs, or why not.
    pub result: Result<Attested, FleetError>,
}

/// Everything a round produced: the report of
/// [`RoundEngine::into_report`](crate::RoundEngine::into_report), and so
/// of every driver over the engine.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct RoundReport {
    /// One entry per response frame, plus one `NoResponse` entry per
    /// challenged-but-silent device.
    pub outcomes: Vec<RoundOutcome>,
}

impl RoundReport {
    /// Number of devices whose proof of execution verified.
    pub fn verified(&self) -> usize {
        self.outcomes.iter().filter(|o| o.result.is_ok()).count()
    }

    /// Number of outcomes that did not verify, for any reason.
    pub fn rejected(&self) -> usize {
        self.outcomes.len() - self.verified()
    }

    /// Number of challenged devices that never answered — charged
    /// [`FleetError::NoResponse`] by deadline expiry, a hangup of their
    /// only connection, or the round being cut short.
    pub fn no_response(&self) -> usize {
        self.outcomes
            .iter()
            .filter(|o| matches!(o.result, Err(FleetError::NoResponse(_))))
            .count()
    }

    /// The full outcome recorded for `id`, if any — the lookup callers
    /// used to hand-roll as a linear scan over [`outcomes`]. When a
    /// device settled more than once (say, a late frame after its
    /// deadline verdict), the *first* outcome — the round's verdict —
    /// is returned.
    ///
    /// [`outcomes`]: RoundReport::outcomes
    pub fn outcome_for(&self, id: DeviceId) -> Option<&RoundOutcome> {
        self.outcomes.iter().find(|o| o.device == Some(id))
    }

    /// The verdict recorded for `id`, if any.
    pub fn of(&self, id: DeviceId) -> Option<&Result<Attested, FleetError>> {
        self.outcome_for(id).map(|o| &o.result)
    }
}

impl fmt::Display for RoundReport {
    /// The round at a glance, counters included — what a fleet
    /// operator's log line should say:
    /// `round: 5 outcomes, 3 verified, 2 rejected (1 no response)`.
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "round: {} outcomes, {} verified, {} rejected ({} no response)",
            self.outcomes.len(),
            self.verified(),
            self.rejected(),
            self.no_response()
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use apex_pox::wire::WireError;
    use asap::AsapError;

    fn verified(id: u64) -> RoundOutcome {
        RoundOutcome {
            device: Some(DeviceId(id)),
            result: Ok(Attested {
                output: vec![id as u8],
                ivt: None,
            }),
        }
    }

    fn rejected(id: u64, reason: AsapError) -> RoundOutcome {
        RoundOutcome {
            device: Some(DeviceId(id)),
            result: Err(FleetError::Rejected(reason)),
        }
    }

    #[test]
    fn tallies_partition_the_round() {
        let report = RoundReport {
            outcomes: vec![
                verified(1),
                rejected(2, AsapError::BadMac),
                rejected(3, AsapError::NotExecuted),
                RoundOutcome {
                    device: None,
                    result: Err(FleetError::Frame(WireError::BadMagic)),
                },
                RoundOutcome {
                    device: Some(DeviceId(4)),
                    result: Err(FleetError::NoResponse(DeviceId(4))),
                },
            ],
        };
        assert_eq!(report.verified(), 1);
        assert_eq!(report.rejected(), 4);
        assert_eq!(report.no_response(), 1);
        assert_eq!(report.verified() + report.rejected(), report.outcomes.len());
        assert!(report.of(DeviceId(1)).unwrap().is_ok());
        assert!(report.of(DeviceId(9)).is_none());
        assert_eq!(
            report.to_string(),
            "round: 5 outcomes, 1 verified, 4 rejected (1 no response)"
        );
    }

    #[test]
    fn outcome_for_finds_devices_not_frames() {
        let report = RoundReport {
            outcomes: vec![
                verified(1),
                RoundOutcome {
                    device: None,
                    result: Err(FleetError::Frame(WireError::BadMagic)),
                },
                rejected(2, AsapError::BadMac),
            ],
        };
        assert_eq!(report.outcome_for(DeviceId(1)), Some(&verified(1)));
        assert_eq!(
            report.outcome_for(DeviceId(2)),
            Some(&rejected(2, AsapError::BadMac))
        );
        assert_eq!(report.outcome_for(DeviceId(3)), None, "unlisted device");
        // `of` is the result view of the same lookup.
        assert_eq!(
            report.of(DeviceId(2)),
            Some(&report.outcome_for(DeviceId(2)).unwrap().result)
        );
    }

    #[test]
    fn outcome_for_returns_the_first_settlement() {
        // A device can settle twice when a frame limps in after its
        // deadline verdict; the round's verdict is the first entry.
        let report = RoundReport {
            outcomes: vec![
                RoundOutcome {
                    device: Some(DeviceId(5)),
                    result: Err(FleetError::NoResponse(DeviceId(5))),
                },
                RoundOutcome {
                    device: Some(DeviceId(5)),
                    result: Err(FleetError::NoSession(DeviceId(5))),
                },
            ],
        };
        assert_eq!(
            report.outcome_for(DeviceId(5)).unwrap().result,
            Err(FleetError::NoResponse(DeviceId(5)))
        );
    }
}
