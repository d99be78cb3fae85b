//! The fleet runtime as a gateway under load: hundreds of *concurrent*
//! prover connections into one `FleetRuntime`, every scripted behaviour
//! in the scenario matrix playing out as real bytes on real sockets —
//! and still exact, per-variant verdict counts.
//!
//! Two fabrics run the same 500-device matrix: one Unix socketpair per
//! device (adopted into a detached runtime) and real TCP (every device
//! dials an ephemeral loopback listener). On top of the matrix, the
//! direct tests pin down the socket behaviours: routing by hello,
//! multi-device connections, connections that outlive rounds, mid-round
//! hangups and poisoned framing resolving to `NoResponse`
//! *immediately*, never-connected devices expiring by deadline, and
//! routing across reactors.

use asap::{programs, AsapError, PoxMode, VerifierSpec};
use asap_bench::fleet::{
    host_gateway_provers, GatewayTransport, Scenario, ScenarioHarness, ScenarioMix,
};
use asap_fleet::{DeviceId, FleetError, FleetRuntime, FleetVerifier, NoListener};
use std::os::unix::net::UnixStream;
use std::sync::Arc;
use std::time::{Duration, Instant};

/// A runtime fed through socketpairs.
type Runtime = FleetRuntime<NoListener<UnixStream>>;

/// 500 devices, every behaviour represented: 350 honest, 40 replaying,
/// 30 corrupted in transit, 30 mis-binding (15 swap pairs), 20
/// late-but-in-time, 10 silent, 10 hanging up mid-round, 6 evicted
/// mid-round, 4 reconnect-storming (answer, hang up, redial).
const MIX: ScenarioMix = ScenarioMix {
    honest: 350,
    replay: 40,
    bit_flip: 30,
    mis_bind: 30,
    late: 20,
    dropped: 10,
    hangup: 10,
    evict: 6,
    reconnect: 4,
};

/// The wall-clock response budget: silent devices expire when it runs
/// out, late devices answer after a quarter of it. Generous enough
/// that an honest device can never miss it on a loaded CI box.
const BUDGET: Duration = Duration::from_millis(1500);

fn assert_exact_gateway_verdicts(transport: GatewayTransport, seed: u64) {
    let mut harness = ScenarioHarness::build(seed, &MIX);
    assert_eq!(harness.device_count(), 500);
    let report = harness.run_round_runtime(1, transport, BUDGET).report;

    assert_eq!(report.entries.len(), 500);
    assert!(
        report.misjudged().is_empty(),
        "{transport:?}: misjudged devices: {:#?}",
        report.misjudged()
    );

    assert_eq!(report.count(Scenario::Honest, Result::is_ok), 350);
    assert_eq!(
        report.count(Scenario::LateResponse, Result::is_ok),
        20,
        "late but within the budget still verifies"
    );
    assert_eq!(
        report.count(Scenario::ReplayedEvidence, |r| {
            r == &Err(FleetError::Rejected(AsapError::BadMac))
        }),
        40
    );
    assert_eq!(
        report.count(Scenario::BitFlippedFrame, |r| {
            matches!(r, Err(FleetError::Rejected(AsapError::Wire(_))))
        }),
        30
    );
    assert_eq!(
        report.count(Scenario::WrongDeviceEvidence, |r| {
            r == &Err(FleetError::Rejected(AsapError::BadMac))
        }),
        30
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
        10,
        "a severed connection is charged NoResponse"
    );
    assert_eq!(
        report.count(Scenario::EvictMidRound, |r| {
            matches!(r, Err(FleetError::Evicted(_)))
        }),
        6,
        "mid-round eviction resolves as a typed Evicted verdict"
    );
    assert_eq!(
        report.count(Scenario::ReconnectStorm, Result::is_ok),
        4,
        "evidence precedes the FIN: reconnecting devices stay verified"
    );
    assert_eq!(report.verified(), 374);
    assert_eq!(harness.fleet().in_flight(), 0, "sessions leaked");
}

#[test]
fn five_hundred_connections_over_socketpairs_stay_exact() {
    assert_exact_gateway_verdicts(GatewayTransport::Socketpair, 0x6A7E_0001);
}

#[test]
fn five_hundred_connections_over_tcp_stay_exact() {
    assert_exact_gateway_verdicts(GatewayTransport::Tcp, 0x6A7E_0002);
}

#[test]
fn hangups_settle_immediately_not_by_deadline() {
    // No silent devices in the mix, so nothing waits for the budget:
    // the round should settle as soon as the hangups are observed —
    // far inside a deliberately enormous budget.
    let mix = ScenarioMix {
        honest: 6,
        hangup: 4,
        ..ScenarioMix::default()
    };
    let mut harness = ScenarioHarness::build(0x6A7E_0003, &mix);
    let started = Instant::now();
    let report = harness
        .run_round_runtime(1, GatewayTransport::Socketpair, Duration::from_secs(30))
        .report;
    assert!(
        started.elapsed() < Duration::from_secs(10),
        "hangups must settle the round early, not at the 30 s deadline"
    );
    assert!(report.misjudged().is_empty(), "{:#?}", report.misjudged());
    assert_eq!(report.verified(), 6);
    assert_eq!(harness.fleet().in_flight(), 0);
}

fn key_for(id: DeviceId) -> Vec<u8> {
    format!("gateway-key-{id}").into_bytes()
}

/// Enrolls `ids` into a fresh fleet (verifier side).
fn fleet_for(ids: &[DeviceId]) -> Arc<FleetVerifier> {
    let image = programs::fig4_authorized().unwrap();
    let fleet = Arc::new(FleetVerifier::new());
    for &id in ids {
        fleet
            .register(
                id,
                &key_for(id),
                VerifierSpec::from_image(&image)
                    .unwrap()
                    .mode(PoxMode::Asap),
            )
            .unwrap();
    }
    fleet
}

/// A runtime over `fleet` with one socketpair adopted (onto reactor 0);
/// returns the runtime and the prover end.
fn runtime_with_peer(fleet: &Arc<FleetVerifier>, reactors: usize) -> (Runtime, UnixStream) {
    let mut runtime = FleetRuntime::detached(Arc::clone(fleet), reactors, 1);
    let (runtime_end, prover_end) = UnixStream::pair().unwrap();
    runtime.adopt(runtime_end).unwrap();
    (runtime, prover_end)
}

/// Connections reaped so far, across reactors.
fn dropped_connections(runtime: &Runtime) -> u64 {
    runtime
        .reactor_stats()
        .iter()
        .map(|s| s.dropped_connections)
        .sum()
}

#[test]
fn one_connection_may_host_many_devices() {
    // Devices are routed by their hellos, not pinned to a transport:
    // ten devices share one socketpair behind a threaded prover host.
    let ids: Vec<DeviceId> = (1..=10).map(DeviceId).collect();
    let fleet = fleet_for(&ids);
    let (mut runtime, prover_end) = runtime_with_peer(&fleet, 1);

    let host_ids = ids.clone();
    let host = std::thread::spawn(move || {
        host_gateway_provers(prover_end, &host_ids, key_for, &[], || ())
    });

    let report = runtime.run_round(&ids, Duration::from_secs(5)).unwrap();
    assert_eq!(report.verified(), ids.len(), "{report}");
    assert_eq!(runtime.connections(), 1);
    assert_eq!(runtime.routed_devices(), 10);
    assert_eq!(fleet.in_flight(), 0);

    drop(runtime); // hang up: the prover host sees EOF and returns
    host.join().unwrap();
}

#[test]
fn connections_and_routes_survive_across_rounds() {
    let ids: Vec<DeviceId> = (1..=3).map(DeviceId).collect();
    let fleet = fleet_for(&ids);
    let (mut runtime, prover_end) = runtime_with_peer(&fleet, 1);

    let host_ids = ids.clone();
    let host = std::thread::spawn(move || {
        host_gateway_provers(prover_end, &host_ids, key_for, &[], || ())
    });

    for round in 0..3 {
        let report = runtime.run_round(&ids, Duration::from_secs(5)).unwrap();
        assert_eq!(report.verified(), ids.len(), "round {round}: {report}");
        assert_eq!(fleet.in_flight(), 0, "round {round}");
    }
    assert_eq!(
        runtime.accepted_connections(),
        1,
        "one connection served every round"
    );

    drop(runtime);
    host.join().unwrap();
}

#[test]
fn unconnected_devices_expire_by_deadline_alone() {
    // Device 2 is enrolled but never dials in: its challenge stays
    // parked and it must be charged NoResponse when the budget runs
    // out — without stalling device 1.
    let ids: Vec<DeviceId> = (1..=2).map(DeviceId).collect();
    let fleet = fleet_for(&ids);
    let (mut runtime, prover_end) = runtime_with_peer(&fleet, 1);

    let connected = vec![DeviceId(1)];
    let host = std::thread::spawn(move || {
        host_gateway_provers(prover_end, &connected, key_for, &[], || ())
    });

    let report = runtime.run_round(&ids, Duration::from_millis(400)).unwrap();
    assert!(report.of(DeviceId(1)).unwrap().is_ok());
    assert_eq!(
        report.of(DeviceId(2)),
        Some(&Err(FleetError::NoResponse(DeviceId(2))))
    );
    assert_eq!(report.no_response(), 1);
    assert_eq!(fleet.in_flight(), 0);

    drop(runtime);
    host.join().unwrap();
}

#[test]
fn prover_announcing_after_the_round_started_still_verifies() {
    // The device's connection is unknown when its challenge is issued:
    // the frame parks, the late hello reveals the route, and the
    // challenge is delivered then.
    let ids = vec![DeviceId(7)];
    let fleet = fleet_for(&ids);
    let (mut runtime, prover_end) = runtime_with_peer(&fleet, 1);

    let host_ids = ids.clone();
    let host = std::thread::spawn(move || {
        std::thread::sleep(Duration::from_millis(150)); // round is running
        host_gateway_provers(prover_end, &host_ids, key_for, &[], || ());
    });

    let report = runtime.run_round(&ids, Duration::from_secs(5)).unwrap();
    assert!(report.of(DeviceId(7)).unwrap().is_ok(), "{report}");
    assert_eq!(fleet.in_flight(), 0);

    drop(runtime);
    host.join().unwrap();
}

#[test]
fn foreign_hello_hijack_cannot_falsify_a_verdict() {
    use apex_pox::wire::{frame_stream, Envelope, StreamDeframer};
    use asap::{programs, Device, PoxMode};
    use std::io::{Read, Write};

    // Device 1 is honestly connected on B and slow to answer. A second
    // connection A announces device 1's id (hellos are unauthenticated
    // routing metadata) and hangs up. The hijacked route must NOT let
    // A's death settle device 1 as NoResponse: its challenge traveled
    // on B, and its eventual honest answer must still verify.
    let ids = vec![DeviceId(1)];
    let fleet = fleet_for(&ids);
    let (mut runtime, mut b_prover) = runtime_with_peer(&fleet, 1);
    b_prover
        .set_read_timeout(Some(Duration::from_secs(10)))
        .unwrap();
    b_prover
        .write_all(&frame_stream(&Envelope::wrap(1, Vec::new()).to_bytes()))
        .unwrap();

    let ticket = runtime.submit_round(&ids, Duration::from_secs(10)).unwrap();

    // Wait until device 1's challenge lands on B.
    let mut deframer = StreamDeframer::new();
    let challenge = loop {
        if let Some(frame) = deframer.next_frame().unwrap() {
            break frame;
        }
        let mut chunk = [0u8; 4096];
        let n = b_prover.read(&mut chunk).expect("challenge arrives on B");
        deframer.extend(&chunk[..n]);
    };

    // The hijack: connection A claims device 1, then dies. A's hello
    // moves device 1's route onto A and A's death forgets it, so the
    // route map empties exactly when the reactor has reaped A.
    let (a_runtime, mut a_prover) = UnixStream::pair().unwrap();
    runtime.adopt(a_runtime).unwrap();
    a_prover
        .write_all(&frame_stream(&Envelope::wrap(1, Vec::new()).to_bytes()))
        .unwrap();
    drop(a_prover);
    while runtime.routed_devices() != 0 {
        std::thread::sleep(Duration::from_millis(1));
    }
    assert!(
        fleet.session_pending(DeviceId(1)),
        "device 1 must still be awaited"
    );

    // Device 1 finally answers, honestly, on B.
    let image = programs::fig4_authorized().unwrap();
    let mut device = Device::builder(&image)
        .mode(PoxMode::Asap)
        .key(&key_for(DeviceId(1)))
        .build()
        .unwrap();
    device.run_steps(6);
    device.set_button(0, true);
    assert!(device.run_until_pc(programs::done_pc(), 10_000));
    let payload = Envelope::from_bytes(challenge).unwrap().payload;
    let response = device.attest_bytes(&payload).unwrap();
    b_prover
        .write_all(&frame_stream(&Envelope::wrap(1, response).to_bytes()))
        .unwrap();

    let report = runtime.wait_round(ticket).unwrap();
    assert!(
        report.of(DeviceId(1)).unwrap().is_ok(),
        "hijacked route must not deny the verdict: {report}"
    );
    assert_eq!(fleet.in_flight(), 0);
}

#[test]
fn hello_floods_past_the_route_cap_drop_the_connection() {
    use apex_pox::wire::{frame_stream, Envelope};
    use asap_fleet::MAX_ROUTED_PER_CONN;
    use std::io::Write;

    // One connection announces far more device ids than any honest
    // host plausibly carries: the runtime must drop it instead of
    // letting the route map grow without bound.
    let ids = vec![DeviceId(1)];
    let fleet = fleet_for(&ids);
    let (mut runtime, prover_end) = runtime_with_peer(&fleet, 1);

    let flooder = std::thread::spawn(move || {
        let mut prover_end = prover_end;
        for fake in 0..(MAX_ROUTED_PER_CONN as u64 + 64) {
            if prover_end
                .write_all(&frame_stream(
                    &Envelope::wrap(fake + 10, Vec::new()).to_bytes(),
                ))
                .is_err()
            {
                return; // dropped mid-flood: exactly the point
            }
        }
    });

    let report = runtime.run_round(&ids, Duration::from_millis(300)).unwrap();
    flooder.join().unwrap();
    assert_eq!(dropped_connections(&runtime), 1, "flooder must be dropped");
    assert!(
        runtime.routed_devices() <= MAX_ROUTED_PER_CONN,
        "route map stays bounded, got {}",
        runtime.routed_devices()
    );
    // Device 1 never actually connected; it expires by deadline.
    assert_eq!(
        report.of(DeviceId(1)),
        Some(&Err(FleetError::NoResponse(DeviceId(1))))
    );
    assert_eq!(fleet.in_flight(), 0);
}

#[test]
fn submillisecond_budget_does_not_expire_the_round_at_birth() {
    // Regression: a budget under one millisecond used to truncate to a
    // zero-tick deadline. Budgets now round up to at least one tick
    // (pinned at the engine level by the crate's
    // `submillisecond_budget_rounds_up_to_one_tick`); over sockets, the
    // one-tick deadline must still expire a silent peer.
    let ids = vec![DeviceId(1)];
    let fleet = fleet_for(&ids);
    let (mut runtime, _prover_end) = runtime_with_peer(&fleet, 1); // silent peer

    let report = runtime.run_round(&ids, Duration::from_micros(500)).unwrap();
    assert_eq!(
        report.of(DeviceId(1)),
        Some(&Err(FleetError::NoResponse(DeviceId(1))))
    );
    assert_eq!(fleet.in_flight(), 0);
}

/// The first enrolled id whose challenge is owned by `want` when the
/// round is sharded over `reactors` reactor threads.
fn id_with_affinity(want: usize, reactors: usize) -> DeviceId {
    let fleet = FleetVerifier::new();
    (1u64..)
        .map(DeviceId)
        .find(|&id| fleet.reactor_of(id, reactors) == want)
        .unwrap()
}

#[test]
fn multi_reactor_matrix_stays_exact() {
    // The full 500-device scenario matrix through a 4-reactor runtime:
    // the verdicts must be exactly those of the single-reactor runtime
    // and the loopback schedule.
    let mut harness = ScenarioHarness::build(0x6A7E_0007, &MIX);
    let run = harness.run_round_runtime(4, GatewayTransport::Socketpair, BUDGET);

    assert_eq!(run.report.entries.len(), 500);
    assert!(
        run.report.misjudged().is_empty(),
        "misjudged devices: {:#?}",
        run.report.misjudged()
    );
    assert_eq!(run.report.verified(), 374);
    assert_eq!(
        run.raw.outcomes.len(),
        500,
        "every challenged device settles"
    );
    assert_eq!(run.reactor_stats.len(), 4);
    assert_eq!(
        run.reactor_stats
            .iter()
            .map(|s| s.last_round_outcomes)
            .sum::<usize>(),
        500,
        "every outcome is attributed to exactly one reactor"
    );
    assert!(
        run.reactor_stats.iter().all(|s| s.last_round_outcomes > 0),
        "shard affinity spreads 500 devices over every reactor: {:?}",
        run.reactor_stats
    );
    assert_eq!(harness.fleet().in_flight(), 0, "sessions leaked");
}

#[test]
fn multi_reactor_report_is_identical_across_reactor_counts() {
    // The merge step canonicalizes outcome order, so the same scripted
    // fleet must produce a byte-for-byte identical RoundReport no
    // matter how many reactors the round is sharded over — challenge
    // nonces are per-device counters, so identically-built harnesses
    // issue identical challenges.
    let mix = ScenarioMix {
        honest: 24,
        replay: 8,
        bit_flip: 4,
        dropped: 4,
        hangup: 4,
        ..ScenarioMix::default()
    };
    let reports: Vec<_> = [1usize, 2, 4]
        .into_iter()
        .map(|reactors| {
            let mut harness = ScenarioHarness::build(0x6A7E_0008, &mix);
            let run = harness.run_round_runtime(
                reactors,
                GatewayTransport::Socketpair,
                Duration::from_millis(500),
            );
            assert!(
                run.report.misjudged().is_empty(),
                "{reactors} reactors: {:#?}",
                run.report.misjudged()
            );
            run.raw
        })
        .collect();
    assert_eq!(
        reports[0], reports[1],
        "1-reactor and 2-reactor rounds must merge to the same report"
    );
    assert_eq!(
        reports[1], reports[2],
        "2-reactor and 4-reactor rounds must merge to the same report"
    );
}

#[test]
fn hello_on_one_reactor_reaches_a_challenge_owned_by_another() {
    // The device's challenge is owned by reactor 1 (by shard
    // affinity), but its connection lands on reactor 0 (first adopt,
    // round-robin). The hello must route across reactors: reactor 0
    // records the route, the owner re-chases its parked challenge
    // through the mailbox, and the evidence travels back the same way.
    let id = id_with_affinity(1, 2);
    let ids = vec![id];
    let fleet = fleet_for(&ids);
    let (mut runtime, prover_end) = runtime_with_peer(&fleet, 2); // reactor 0

    let host_ids = ids.clone();
    let host = std::thread::spawn(move || {
        host_gateway_provers(prover_end, &host_ids, key_for, &[], || ())
    });

    // Round 1: the route is learned mid-round from the hello.
    let report = runtime.run_round(&ids, Duration::from_secs(5)).unwrap();
    assert!(report.of(id).unwrap().is_ok(), "round 1: {report}");

    // Round 2: the route is already known, so the owner forwards the
    // fresh challenge to the other reactor's connection directly.
    let report = runtime.run_round(&ids, Duration::from_secs(5)).unwrap();
    assert!(report.of(id).unwrap().is_ok(), "round 2: {report}");
    assert_eq!(runtime.routed_devices(), 1);
    assert_eq!(fleet.in_flight(), 0);

    drop(runtime); // hang up: the prover host sees EOF and returns
    host.join().unwrap();
}

#[test]
fn hangup_on_one_reactor_leaves_the_other_reactors_verdicts_intact() {
    use apex_pox::wire::{frame_stream, Envelope, StreamDeframer};
    use std::io::{Read, Write};

    // Device `honest` lives on reactor 0, device `quitter` on reactor
    // 1 — both by shard affinity AND connection placement. The quitter
    // reads its challenge and severs the connection. That must charge
    // it NoResponse promptly (not at the 30 s deadline) without
    // touching the honest device's verdict on the other reactor.
    let honest = id_with_affinity(0, 2);
    let quitter = id_with_affinity(1, 2);
    let ids = vec![honest, quitter];
    let fleet = fleet_for(&ids);
    let (mut runtime, h_prover) = runtime_with_peer(&fleet, 2); // reactor 0
    let (q_runtime, mut q_prover) = UnixStream::pair().unwrap();
    runtime.adopt(q_runtime).unwrap(); // reactor 1

    let host_ids = vec![honest];
    let host =
        std::thread::spawn(move || host_gateway_provers(h_prover, &host_ids, key_for, &[], || ()));
    let quit = std::thread::spawn(move || {
        q_prover
            .set_read_timeout(Some(Duration::from_millis(20)))
            .unwrap();
        q_prover
            .write_all(&frame_stream(
                &Envelope::wrap(quitter.0, Vec::new()).to_bytes(),
            ))
            .unwrap();
        // Wait for the challenge, then hang up without answering.
        let mut deframer = StreamDeframer::new();
        let mut chunk = [0u8; 4096];
        loop {
            if let Ok(Some(_)) = deframer.next_frame() {
                return; // drop q_prover: the scripted hangup
            }
            if let Ok(n) = q_prover.read(&mut chunk) {
                deframer.extend(&chunk[..n]);
            }
        }
    });

    let started = Instant::now();
    let report = runtime.run_round(&ids, Duration::from_secs(30)).unwrap();
    assert!(
        started.elapsed() < Duration::from_secs(10),
        "one reactor's hangup must not hold the round to the 30 s deadline"
    );
    assert!(
        report.of(honest).unwrap().is_ok(),
        "the hangup must not corrupt the other reactor's verdict: {report}"
    );
    assert_eq!(
        report.of(quitter),
        Some(&Err(FleetError::NoResponse(quitter)))
    );
    assert_eq!(dropped_connections(&runtime), 1);
    assert_eq!(fleet.in_flight(), 0);

    quit.join().unwrap();
    drop(runtime);
    host.join().unwrap();
}

#[test]
fn oversized_frame_poisons_the_connection_and_charges_no_response() {
    use apex_pox::wire::{frame_stream, Envelope, MAX_FRAME_LEN};
    use std::io::{Read, Write};

    let ids = vec![DeviceId(1)];
    let fleet = fleet_for(&ids);
    let (mut runtime, mut prover_end) = runtime_with_peer(&fleet, 1);

    // The prover announces itself honestly, takes its challenge, then
    // turns hostile: a length prefix over the bound, which no deframer
    // can recover from. (Poisoning before the challenge is delivered
    // would only drop an idle connection, leaving the device to expire
    // by deadline.)
    prover_end
        .write_all(&frame_stream(&Envelope::wrap(1, Vec::new()).to_bytes()))
        .unwrap();
    let started = Instant::now();
    let ticket = runtime.submit_round(&ids, Duration::from_secs(30)).unwrap();
    prover_end
        .set_read_timeout(Some(Duration::from_secs(10)))
        .unwrap();
    let mut first = [0u8; 1];
    prover_end
        .read_exact(&mut first)
        .expect("the challenge reaches the prover");
    prover_end
        .write_all(&(MAX_FRAME_LEN + 1).to_le_bytes())
        .unwrap();
    prover_end.write_all(&[0u8; 64]).unwrap();

    let report = runtime.wait_round(ticket).unwrap();
    assert!(
        started.elapsed() < Duration::from_secs(10),
        "the sticky framing error must settle the round early"
    );
    assert_eq!(
        report.of(DeviceId(1)),
        Some(&Err(FleetError::NoResponse(DeviceId(1))))
    );
    assert_eq!(dropped_connections(&runtime), 1);
    assert_eq!(runtime.connections(), 0);
    assert_eq!(fleet.in_flight(), 0);
}
