//! Property tests for the fleet session registry and round engine.
//!
//! Three invariants, exercised over random device subsets, response
//! orderings, loss patterns and event schedules:
//!
//! 1. **no cross-verification** — evidence produced by device A never
//!    verifies as device B, no matter how frames are re-addressed or
//!    reordered;
//! 2. **no session leaks** — however a round ends (all answered, some
//!    dropped, everything re-addressed), the in-flight session count
//!    returns to exactly zero;
//! 3. **determinism** — the sans-IO engine is a pure function of its
//!    event schedule: identical schedules yield identical
//!    `RoundReport`s, and dropped responses resolve to `NoResponse`
//!    purely via `tick` on logical time.

use asap::{programs, Device, PoxMode, VerifierSpec};
use asap_bench::fleet::{cross_address, DetRng};
use asap_fleet::{
    DeviceId, FleetError, FleetVerifier, LogicalTime, Loopback, RoundConfig, RoundEngine,
    RoundReport,
};
use msp430_tools::link::Image;
use proptest::prelude::*;
use std::sync::OnceLock;

fn image() -> &'static Image {
    static IMAGE: OnceLock<Image> = OnceLock::new();
    IMAGE.get_or_init(|| programs::fig4_authorized().unwrap())
}

/// An all-ASAP fleet of `n` honestly-executed devices, keys derived
/// from the device id.
fn fleet_of(n: usize) -> (FleetVerifier, Loopback, Vec<DeviceId>) {
    let fleet = FleetVerifier::new();
    let mut fabric = Loopback::new();
    let ids: Vec<DeviceId> = (1..=n as u64).map(DeviceId).collect();
    for &id in &ids {
        let key = [b"prop-key-".as_slice(), &id.0.to_le_bytes()].concat();
        let mut device = Device::builder(image()).key(&key).build().unwrap();
        assert!(device.run_until_pc(programs::done_pc(), 10_000));
        fabric.attach(id, device);
        fleet
            .register(
                id,
                &key,
                VerifierSpec::from_image(image())
                    .unwrap()
                    .mode(PoxMode::Asap),
            )
            .unwrap();
    }
    (fleet, fabric, ids)
}

/// Seed-driven Fisher–Yates, via the harness's shared helpers.
fn shuffle<T>(items: &mut [T], seed: u64) {
    asap_bench::fleet::shuffle(items, &mut DetRng::new(seed));
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(8))]

    /// Any subset of devices, challenged together and answered in any
    /// order, all verify — and the registry drains to zero.
    #[test]
    fn shuffled_subset_rounds_verify_and_drain(
        n in 2usize..6,
        subset_bits in any::<u32>(),
        order_seed in any::<u64>(),
    ) {
        let (fleet, mut fabric, ids) = fleet_of(n);
        let mut subset: Vec<DeviceId> = ids
            .iter()
            .enumerate()
            .filter(|(i, _)| subset_bits >> i & 1 == 1)
            .map(|(_, &id)| id)
            .collect();
        if subset.is_empty() {
            subset = ids.clone();
        }

        let requests = fleet.begin_round(&subset).unwrap();
        prop_assert_eq!(fleet.in_flight(), subset.len());
        let mut responses: Vec<Vec<u8>> = requests
            .iter()
            .map(|(id, req)| fabric.exchange(*id, req).unwrap())
            .collect();
        shuffle(&mut responses, order_seed);

        let report = fleet.conclude_round(&subset, &responses);
        prop_assert_eq!(report.verified(), subset.len());
        prop_assert_eq!(report.rejected(), 0);
        prop_assert_eq!(fleet.in_flight(), 0, "registry leaked a session");
    }

    /// Rotating every response to the *next* device's id makes every
    /// verdict a rejection: evidence never crosses devices, whatever
    /// the subset or rotation.
    #[test]
    fn readdressed_evidence_never_cross_verifies(
        n in 2usize..6,
        order_seed in any::<u64>(),
    ) {
        let (fleet, mut fabric, ids) = fleet_of(n);
        let requests = fleet.begin_round(&ids).unwrap();
        let honest: Vec<Vec<u8>> = requests
            .iter()
            .map(|(id, req)| fabric.exchange(*id, req).unwrap())
            .collect();
        // Device i's session receives device (i+1)'s evidence.
        let mut forged: Vec<Vec<u8>> = (0..honest.len())
            .map(|i| cross_address(&honest[i], &honest[(i + 1) % honest.len()]))
            .collect();
        shuffle(&mut forged, order_seed);

        let report = fleet.conclude_round(&ids, &forged);
        prop_assert_eq!(report.verified(), 0, "evidence crossed devices");
        for id in ids {
            prop_assert_eq!(
                report.of(id),
                Some(&Err(FleetError::Rejected(asap::AsapError::BadMac))),
                "device {} must reject foreign evidence", id
            );
        }
        prop_assert_eq!(fleet.in_flight(), 0);
    }

    /// Whatever subset of responses gets lost, lost devices are charged
    /// NoResponse, the rest verify, and nothing stays in flight.
    #[test]
    fn partial_loss_drains_the_registry(
        n in 2usize..6,
        loss_bits in any::<u32>(),
    ) {
        let (fleet, mut fabric, ids) = fleet_of(n);
        let requests = fleet.begin_round(&ids).unwrap();
        let delivered: Vec<Vec<u8>> = requests
            .iter()
            .enumerate()
            .filter(|(i, _)| loss_bits >> i & 1 == 0)
            .map(|(_, (id, req))| fabric.exchange(*id, req).unwrap())
            .collect();

        let report = fleet.conclude_round(&ids, &delivered);
        prop_assert_eq!(report.verified(), delivered.len());
        prop_assert_eq!(report.no_response(), ids.len() - delivered.len());
        prop_assert_eq!(fleet.in_flight(), 0, "dropped sessions leaked");
    }

    /// The engine is a pure state machine: replaying the *identical*
    /// event schedule against a freshly built (but identically keyed)
    /// fleet yields the identical `RoundReport`, and every device the
    /// schedule silences resolves to `NoResponse` purely because a
    /// `tick` crossed its deadline — no clocks, no sleeps, no I/O.
    #[test]
    fn identical_event_schedules_yield_identical_reports(
        n in 2usize..6,
        answer_bits in any::<u32>(),
        tick_seed in any::<u64>(),
    ) {
        const DEADLINE: u64 = 16;
        let run = || -> (Vec<DeviceId>, RoundReport) {
            let (fleet, mut fabric, ids) = fleet_of(n);
            let mut engine = RoundEngine::begin(
                &fleet,
                &ids,
                RoundConfig::new(LogicalTime(0), DEADLINE),
            )
            .unwrap();
            // The schedule: answering devices deliver at a seed-drawn
            // tick before the deadline; the rest stay silent forever.
            let mut rng = DetRng::new(tick_seed);
            let mut events: Vec<(u64, Vec<u8>)> = Vec::new();
            let mut i = 0usize;
            while let Some((id, request)) = engine.poll_transmit() {
                if answer_bits >> i & 1 == 1 {
                    let frame = fabric.exchange(id, request).unwrap();
                    events.push((rng.next_u64() % DEADLINE, frame));
                }
                i += 1;
            }
            events.sort_by_key(|e| e.0);
            let mut next = 0;
            for now in 0..=DEADLINE {
                while next < events.len() && events[next].0 == now {
                    engine.frame_received(&events[next].1);
                    next += 1;
                }
                engine.tick(LogicalTime(now));
            }
            assert!(engine.is_settled());
            (ids, engine.into_report())
        };

        let (ids, first) = run();
        let (_, second) = run();
        prop_assert_eq!(&first, &second, "identical schedules must replay identically");

        for (i, &id) in ids.iter().enumerate() {
            if answer_bits >> i & 1 == 1 {
                prop_assert!(
                    first.of(id).unwrap().is_ok(),
                    "device {} answered in time and must verify", id
                );
            } else {
                prop_assert_eq!(
                    first.of(id),
                    Some(&Err(FleetError::NoResponse(id))),
                    "device {} was silenced and must expire via tick", id
                );
            }
        }
    }

    /// Back-to-back rounds on one fleet: each round issues fresh
    /// challenges (request frames differ round to round) and drains.
    #[test]
    fn successive_rounds_use_fresh_challenges(n in 2usize..5) {
        let (fleet, mut fabric, ids) = fleet_of(n);
        let first = fleet.begin_round(&ids).unwrap();
        let responses: Vec<Vec<u8>> = first
            .iter()
            .map(|(id, req)| fabric.exchange(*id, req).unwrap())
            .collect();
        prop_assert_eq!(fleet.conclude_round(&ids, &responses).verified(), n);

        let second = fleet.begin_round(&ids).unwrap();
        for ((id, old), (_, new)) in first.iter().zip(second.iter()) {
            prop_assert_ne!(old, new, "device {} got a recycled challenge", id);
        }
        // Abandon round two cleanly.
        let report = fleet.conclude_round(&ids, &[]);
        prop_assert_eq!(report.no_response(), n);
        prop_assert_eq!(fleet.in_flight(), 0);
    }
}
