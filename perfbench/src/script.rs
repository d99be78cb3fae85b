//! The seeded fault script of the `fleet-churn` workload and the
//! checker that holds every epoch's report to it.
//!
//! The prover threads corrupt a seeded share of their responses; the
//! main thread replays the same script to know, before an epoch is
//! submitted, exactly which verdict each challenged device must get.

use asap::{AsapError, Attested};
use asap_fleet::{DeviceId, FleetError, RoundReport};
use std::collections::HashMap;

/// Responses per thousand whose MAC byte is flipped.
const FLIP_MAC_PER_MILLE: u64 = 50;
/// Responses per thousand whose message header is garbled.
const GARBLE_PER_MILLE: u64 = 20;

/// What a prover does to one response.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Fault {
    /// Sends the response as computed.
    Honest,
    /// Flips the last MAC byte: the evidence decodes and fails its MAC.
    FlipMac,
    /// Garbles the wrapped message's magic: the envelope still names
    /// the device, the evidence fails to decode.
    GarbleHeader,
}

impl Fault {
    /// Applies the fault to an encoded `PoxResponse`.
    pub fn apply(self, response: &mut [u8]) {
        match self {
            Fault::Honest => {}
            Fault::FlipMac => {
                if let Some(last) = response.last_mut() {
                    *last ^= 0x01;
                }
            }
            Fault::GarbleHeader => {
                if let Some(first) = response.first_mut() {
                    *first ^= 0xFF;
                }
            }
        }
    }

    /// Whether `result` is the verdict a correct verifier reaches for
    /// a response carrying this fault.
    pub fn expects(self, result: &Result<Attested, FleetError>) -> bool {
        match self {
            Fault::Honest => result.is_ok(),
            Fault::FlipMac => result == &Err(FleetError::Rejected(AsapError::BadMac)),
            Fault::GarbleHeader => {
                matches!(result, Err(FleetError::Rejected(AsapError::Wire(_))))
            }
        }
    }
}

/// splitmix64's finalizer: a well-mixed hash of one word.
fn mix(mut x: u64) -> u64 {
    x = x.wrapping_add(0x9E37_79B9_7F4A_7C15);
    x = (x ^ (x >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    x = (x ^ (x >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    x ^ (x >> 31)
}

/// The per-(device, challenge) fault assignment for one seed.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct FaultScript {
    seed: u64,
}

impl FaultScript {
    /// The script for `seed`.
    pub fn new(seed: u64) -> FaultScript {
        FaultScript { seed }
    }

    /// The fault applied to device `id`'s response to its `nth`
    /// challenge (counting from zero).
    pub fn fault(&self, id: DeviceId, nth: u64) -> Fault {
        let roll = mix(self.seed ^ mix(id.0) ^ mix(nth ^ 0xC0FF_EE00)) % 1000;
        if roll < FLIP_MAC_PER_MILLE {
            Fault::FlipMac
        } else if roll < FLIP_MAC_PER_MILLE + GARBLE_PER_MILLE {
            Fault::GarbleHeader
        } else {
            Fault::Honest
        }
    }
}

/// Verdicts held against what they should be: one epoch's against
/// its script, or the sum over a run.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct EpochCheck {
    /// Devices challenged.
    pub attempted: usize,
    /// Challenged devices whose verdict differs from the script, plus
    /// outcomes for devices the epoch never challenged.
    pub failed: usize,
    /// Verdicts `Verified`.
    pub verified: usize,
    /// Verdicts rejected with `BadMac`.
    pub bad_mac: usize,
    /// Verdicts rejected because the evidence did not decode.
    pub frame: usize,
}

impl EpochCheck {
    /// Field-wise sum.
    pub fn add(&mut self, other: EpochCheck) {
        self.attempted += other.attempted;
        self.failed += other.failed;
        self.verified += other.verified;
        self.bad_mac += other.bad_mac;
        self.frame += other.frame;
    }
}

/// Checks `report` against the scripted faults of the devices the
/// epoch challenged: each must have exactly the scripted verdict, and
/// the report must hold no other outcome.
pub fn check_epoch(expected: &[(DeviceId, Fault)], report: &RoundReport) -> EpochCheck {
    let mut check = EpochCheck {
        attempted: expected.len(),
        ..EpochCheck::default()
    };
    // Each device's first outcome, as `RoundReport::of` finds it, in
    // one pass: a lookup per device would make the check quadratic.
    let mut outcomes = HashMap::with_capacity(report.outcomes.len());
    for outcome in &report.outcomes {
        if let Some(id) = outcome.device {
            outcomes.entry(id).or_insert(&outcome.result);
        }
    }
    for &(id, fault) in expected {
        match outcomes.get(&id) {
            Some(result) if fault.expects(result) => match fault {
                Fault::Honest => check.verified += 1,
                Fault::FlipMac => check.bad_mac += 1,
                Fault::GarbleHeader => check.frame += 1,
            },
            _ => check.failed += 1,
        }
    }
    check.failed += report.outcomes.len().abs_diff(expected.len());
    check
}

#[cfg(test)]
mod tests {
    use super::*;
    use apex_pox::wire::WireError;
    use asap_fleet::RoundOutcome;

    fn outcome(id: u64, result: Result<Attested, FleetError>) -> RoundOutcome {
        RoundOutcome {
            device: Some(DeviceId(id)),
            result,
        }
    }

    fn attested() -> Attested {
        Attested {
            output: vec![0x5A],
            ivt: None,
        }
    }

    #[test]
    fn script_is_seeded_and_near_its_rates() {
        let a = FaultScript::new(1);
        let b = FaultScript::new(1);
        let c = FaultScript::new(2);
        let draws = |s: &FaultScript| -> Vec<Fault> {
            (0..2000)
                .map(|i| s.fault(DeviceId(i % 100), i / 100))
                .collect()
        };
        assert_eq!(draws(&a), draws(&b));
        assert_ne!(draws(&a), draws(&c));
        let all: Vec<Fault> = (0..100_000).map(|i| a.fault(DeviceId(i), 0)).collect();
        let flips = all.iter().filter(|&&f| f == Fault::FlipMac).count();
        let garbles = all.iter().filter(|&&f| f == Fault::GarbleHeader).count();
        assert!((4_500..5_500).contains(&flips), "{flips}");
        assert!((1_600..2_400).contains(&garbles), "{garbles}");
    }

    #[test]
    fn faults_corrupt_the_bytes_they_name() {
        let mut r = vec![b'P', b'X', 0, 7];
        Fault::FlipMac.apply(&mut r);
        assert_eq!(r, vec![b'P', b'X', 0, 6]);
        Fault::GarbleHeader.apply(&mut r);
        assert_eq!(r[0], b'P' ^ 0xFF);
        Fault::Honest.apply(&mut r);
        assert_eq!(r[1..], [b'X', 0, 6]);
    }

    #[test]
    fn exact_script_passes() {
        let expected = [
            (DeviceId(1), Fault::Honest),
            (DeviceId(2), Fault::FlipMac),
            (DeviceId(3), Fault::GarbleHeader),
        ];
        let report = RoundReport {
            outcomes: vec![
                outcome(1, Ok(attested())),
                outcome(2, Err(FleetError::Rejected(AsapError::BadMac))),
                outcome(
                    3,
                    Err(FleetError::Rejected(AsapError::Wire(WireError::BadMagic))),
                ),
            ],
        };
        let check = check_epoch(&expected, &report);
        assert_eq!(
            check,
            EpochCheck {
                attempted: 3,
                failed: 0,
                verified: 1,
                bad_mac: 1,
                frame: 1
            }
        );
    }

    #[test]
    fn wrong_missing_and_extra_verdicts_fail() {
        let expected = [(DeviceId(1), Fault::Honest), (DeviceId(2), Fault::FlipMac)];
        // Device 1 rejected instead of verified; device 2 missing; an
        // unattributable frame nobody was owed.
        let report = RoundReport {
            outcomes: vec![
                outcome(1, Err(FleetError::Rejected(AsapError::BadMac))),
                RoundOutcome {
                    device: None,
                    result: Err(FleetError::Frame(WireError::BadMagic)),
                },
                outcome(9, Err(FleetError::NoSession(DeviceId(9)))),
            ],
        };
        let check = check_epoch(&expected, &report);
        assert_eq!(check.attempted, 2);
        assert_eq!(check.failed, 2 + 1, "two wrong verdicts, one extra outcome");
        assert_eq!(check.verified + check.bad_mac + check.frame, 0);
    }
}
