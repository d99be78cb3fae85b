//! Fleet-scale scenario suite: 200- and 1000-device rounds, mixed
//! honest/adversarial behaviours, *exact* deterministic verdict counts.
//!
//! The point of asserting exact counts (not just "some rejections") is
//! that detection must work at fleet scale: every attack class is
//! caught for every device it was scripted on, every honest device
//! verifies, and no verdict bleeds across devices. Two fixed seeds run
//! the same assertions over two different fleet layouts (mode
//! assignment, scenario interleaving, per-device keys and the delivery
//! schedule all derive from the seed).
//!
//! Since the harness became an event schedule over the sans-IO
//! `RoundEngine`, rounds also exercise the asynchronous edge the paper
//! cares about: responses arrive interleaved out of challenge order,
//! late devices answer on the last in-time tick, and silent devices
//! expire purely via logical ticks.

use apex_pox::wire::WireError;
use asap::device::PoxMode;
use asap::AsapError;
use asap_bench::fleet::{Scenario, ScenarioHarness, ScenarioMix};
use asap_fleet::FleetError;

/// 200 devices: 100 honest, 30 replaying, 20 corrupted in transit,
/// 20 mis-binding (10 swap pairs), 10 late-but-in-time, 10 silent,
/// 5 hanging up mid-round (indistinguishable from silence on loopback),
/// 3 evicted mid-round, 2 reconnect-storming (honest on loopback).
const MIX: ScenarioMix = ScenarioMix {
    honest: 100,
    replay: 30,
    bit_flip: 20,
    mis_bind: 20,
    late: 10,
    dropped: 10,
    hangup: 5,
    evict: 3,
    reconnect: 2,
};

fn assert_exact_verdicts(seed: u64) {
    let mut harness = ScenarioHarness::build(seed, &MIX);
    assert_eq!(harness.device_count(), 200);
    let report = harness.run_round();

    // Every device got a verdict, and none was misjudged.
    assert_eq!(report.entries.len(), 200);
    assert!(
        report.misjudged().is_empty(),
        "seed {seed}: misjudged devices: {:#?}",
        report.misjudged()
    );

    // Exact per-scenario counts, by the precise error variant.
    assert_eq!(report.count(Scenario::Honest, Result::is_ok), 100);
    assert_eq!(
        report.count(Scenario::LateResponse, Result::is_ok),
        10,
        "late but before the deadline still verifies"
    );
    assert_eq!(
        report.count(Scenario::ReplayedEvidence, |r| {
            r == &Err(FleetError::Rejected(AsapError::BadMac))
        }),
        30,
        "replayed evidence is bound to the superseded challenge"
    );
    assert_eq!(
        report.count(Scenario::BitFlippedFrame, |r| {
            r == &Err(FleetError::Rejected(AsapError::Wire(WireError::BadMagic)))
        }),
        20,
        "a corrupted payload is a framing defect, not a MAC surprise"
    );
    assert_eq!(
        report.count(Scenario::WrongDeviceEvidence, |r| {
            r == &Err(FleetError::Rejected(AsapError::BadMac))
        }),
        20,
        "another device's evidence fails this device's key and challenge"
    );
    assert_eq!(
        report.count(Scenario::DroppedResponse, |r| {
            matches!(r, Err(FleetError::NoResponse(_)))
        }),
        10
    );
    assert_eq!(
        report.count(Scenario::MidRoundHangup, |r| {
            matches!(r, Err(FleetError::NoResponse(_)))
        }),
        5,
        "on loopback a hangup degenerates to a dropped response"
    );
    assert_eq!(
        report.count(Scenario::EvictMidRound, |r| {
            matches!(r, Err(FleetError::Evicted(_)))
        }),
        3,
        "mid-round eviction is a typed verdict, never NoResponse limbo"
    );
    assert_eq!(
        report.count(Scenario::ReconnectStorm, Result::is_ok),
        2,
        "a device that answered before reconnecting stays verified"
    );

    // Totals partition: the honest (on-time, late or reconnecting)
    // verify, nobody else.
    assert_eq!(report.verified(), 112);

    // The fleet genuinely mixes architectures, and honest devices of
    // *both* architectures verified.
    for mode in [PoxMode::Apex, PoxMode::Asap] {
        assert!(
            report
                .entries
                .iter()
                .any(|e| e.mode == mode && e.scenario == Scenario::Honest && e.result.is_ok()),
            "seed {seed}: no verified honest {mode:?} device in the mix"
        );
    }

    // And the round left nothing behind.
    assert_eq!(harness.fleet().in_flight(), 0, "sessions leaked");
}

#[test]
fn two_hundred_device_round_seed_a() {
    assert_exact_verdicts(0xA5A5_0001);
}

#[test]
fn two_hundred_device_round_seed_b() {
    assert_exact_verdicts(0x5A5A_0002);
}

/// 1000 devices in one round — the scale the zero-allocation predecoded
/// step pipeline buys: every device is a *real* simulated MCU run to
/// completion, and the round still asserts exact per-scenario verdict
/// counts (no sampling, no tolerance).
#[test]
fn thousand_device_round_stays_exact() {
    const BIG: ScenarioMix = ScenarioMix {
        honest: 540,
        replay: 120,
        bit_flip: 100,
        mis_bind: 100,
        late: 60,
        dropped: 60,
        hangup: 20,
        evict: 0,
        reconnect: 0,
    };
    let mut harness = ScenarioHarness::build(0x1000_0003, &BIG);
    assert_eq!(harness.device_count(), 1000);
    let report = harness.run_round();

    assert_eq!(report.entries.len(), 1000);
    assert!(
        report.misjudged().is_empty(),
        "misjudged devices: {:#?}",
        report.misjudged()
    );
    assert_eq!(report.count(Scenario::Honest, Result::is_ok), 540);
    assert_eq!(report.count(Scenario::LateResponse, Result::is_ok), 60);
    assert_eq!(
        report.count(Scenario::ReplayedEvidence, |r| {
            r == &Err(FleetError::Rejected(AsapError::BadMac))
        }),
        120
    );
    assert_eq!(
        report.count(Scenario::BitFlippedFrame, |r| {
            r == &Err(FleetError::Rejected(AsapError::Wire(WireError::BadMagic)))
        }),
        100
    );
    assert_eq!(
        report.count(Scenario::WrongDeviceEvidence, |r| {
            r == &Err(FleetError::Rejected(AsapError::BadMac))
        }),
        100
    );
    assert_eq!(
        report.count(Scenario::DroppedResponse, |r| {
            matches!(r, Err(FleetError::NoResponse(_)))
        }),
        60
    );
    assert_eq!(
        report.count(Scenario::MidRoundHangup, |r| {
            matches!(r, Err(FleetError::NoResponse(_)))
        }),
        20
    );
    assert_eq!(report.verified(), 600);
    assert_eq!(harness.fleet().in_flight(), 0, "sessions leaked");
}

#[test]
fn consecutive_rounds_stay_exact() {
    // The same fleet, challenged twice: counters advance, stale state
    // from round one must not perturb round two's verdicts — and the
    // delivery schedule redraws each round, so the interleaving
    // differs while the verdicts must not.
    let mut harness = ScenarioHarness::build(
        7,
        &ScenarioMix {
            honest: 20,
            replay: 4,
            bit_flip: 4,
            mis_bind: 4,
            late: 4,
            dropped: 4,
            hangup: 4,
            // Re-rounding an evicted device is a different test: a
            // consecutive-round fleet keeps its membership.
            evict: 0,
            reconnect: 1,
        },
    );
    for round in 0..2 {
        let report = harness.run_round();
        assert!(
            report.misjudged().is_empty(),
            "round {round}: {:#?}",
            report.misjudged()
        );
        assert_eq!(report.verified(), 25, "round {round}");
        assert_eq!(harness.fleet().in_flight(), 0, "round {round}");
    }
}

#[test]
fn all_late_round_verifies_on_the_deadline_edge() {
    // Every device answers on the last in-time tick: the engine's
    // deadline arithmetic must not eat a single one of them.
    let mut harness = ScenarioHarness::build(
        21,
        &ScenarioMix {
            late: 30,
            ..ScenarioMix::default()
        },
    );
    let report = harness.run_round();
    assert!(report.misjudged().is_empty(), "{:#?}", report.misjudged());
    assert_eq!(report.verified(), 30);
    assert_eq!(harness.fleet().in_flight(), 0);
}

#[test]
fn late_devices_beat_dropped_devices_exactly() {
    // Late and dropped devices look identical until the last tick; the
    // engine must split them exactly — late verifies, dropped expires —
    // across several seeds (i.e. several interleavings).
    for seed in [1u64, 2, 3, 4] {
        let mut harness = ScenarioHarness::build(
            seed,
            &ScenarioMix {
                late: 8,
                dropped: 8,
                ..ScenarioMix::default()
            },
        );
        let report = harness.run_round();
        assert!(
            report.misjudged().is_empty(),
            "seed {seed}: {:#?}",
            report.misjudged()
        );
        assert_eq!(report.count(Scenario::LateResponse, Result::is_ok), 8);
        assert_eq!(
            report.count(Scenario::DroppedResponse, |r| matches!(
                r,
                Err(FleetError::NoResponse(_))
            )),
            8,
            "seed {seed}"
        );
        assert_eq!(harness.fleet().in_flight(), 0);
    }
}

/// Out-of-order delivery, driven by hand against the raw engine:
/// responses are fed back in exactly *reversed* challenge order, and
/// every device must still verify — the engine never assumes frames
/// arrive in the order challenges went out.
#[test]
fn reversed_delivery_order_verifies_every_device() {
    use asap::{programs, Device, VerifierSpec};
    use asap_fleet::{DeviceId, FleetVerifier, LogicalTime, Loopback, RoundConfig, RoundEngine};

    let image = programs::fig4_authorized().unwrap();
    let fleet = FleetVerifier::new();
    let mut fabric = Loopback::new();
    let ids: Vec<DeviceId> = (1..=6).map(DeviceId).collect();
    for &id in &ids {
        let key = id.0.to_le_bytes();
        let mut device = Device::builder(&image).key(&key).build().unwrap();
        assert!(device.run_until_pc(programs::done_pc(), 10_000));
        fabric.attach(id, device);
        fleet
            .register(
                id,
                &key,
                VerifierSpec::from_image(&image)
                    .unwrap()
                    .mode(PoxMode::Asap),
            )
            .unwrap();
    }

    let mut engine =
        RoundEngine::begin(&fleet, &ids, RoundConfig::new(LogicalTime(0), 10)).unwrap();
    let mut responses = Vec::new();
    while let Some((id, request)) = engine.poll_transmit() {
        responses.push(fabric.exchange(id, request).unwrap());
    }
    // Device 6 answers first, device 1 last, one tick apart.
    for (t, frame) in responses.iter().rev().enumerate() {
        engine.tick(LogicalTime(t as u64));
        engine.frame_received(frame);
    }
    assert!(engine.is_settled());
    let report = engine.into_report();
    assert_eq!(report.verified(), 6);
    // Outcomes settled in delivery order, not challenge order.
    assert_eq!(report.outcomes[0].device, Some(DeviceId(6)));
    assert_eq!(report.outcomes[5].device, Some(DeviceId(1)));
    assert_eq!(fleet.in_flight(), 0);
}
