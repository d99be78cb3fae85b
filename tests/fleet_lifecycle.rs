//! The fleet lifecycle subsystem end to end: epoch-sampled partial
//! rounds over real sockets, churn (join/leave/rekey/reconnect)
//! landing mid-round, and the determinism pins the subsystem promises —
//! a parked challenge racing an eviction resolves to one exact outcome
//! at 1, 2 and 4 reactors, and an identical seeded churn schedule
//! produces a byte-identical `RoundReport` however many reactors the
//! round is sharded over.

use apex_pox::wire::{frame_stream, Envelope};
use asap::{programs, PoxMode, VerifierSpec};
use asap_bench::fleet::{GatewayTransport, Scenario, ScenarioHarness, ScenarioMix};
use asap_fleet::{
    DeviceId, DeviceState, EpochPlan, FleetDirectory, FleetError, FleetRuntime, FleetVerifier,
    LifecycleConfig, NoListener, RoundReport,
};
use std::collections::HashMap;
use std::io::Write;
use std::os::unix::net::UnixStream;
use std::sync::mpsc;
use std::sync::Arc;
use std::time::Duration;

/// Wall-clock budget per epoch round: generous enough that honest
/// provers never miss it on a loaded CI box.
const BUDGET: Duration = Duration::from_millis(1500);

fn key_for(id: DeviceId) -> Vec<u8> {
    format!("lifecycle-key-{id}").into_bytes()
}

fn shared_spec() -> Arc<VerifierSpec> {
    let image = programs::fig4_authorized().unwrap();
    Arc::new(
        VerifierSpec::from_image(&image)
            .unwrap()
            .mode(PoxMode::Asap),
    )
}

/// A runtime fed through socketpairs.
type Runtime = FleetRuntime<NoListener<UnixStream>>;

/// A one-reactor runtime over `fleet` with one socketpair adopted;
/// returns the runtime and the prover end.
fn runtime_with_peer(fleet: Arc<FleetVerifier>, reactors: usize) -> (Runtime, UnixStream) {
    let mut runtime = FleetRuntime::detached(fleet, reactors, 1);
    let (runtime_end, prover_end) = UnixStream::pair().unwrap();
    runtime.adopt(runtime_end).unwrap();
    (runtime, prover_end)
}

/// One epoch through the runtime, via the directory's own driver.
fn run_epoch(dir: &FleetDirectory, runtime: &mut Runtime) -> (EpochPlan, RoundReport) {
    dir.run_epochs_runtime(runtime, 1, BUDGET)
        .unwrap()
        .pop()
        .unwrap()
}

/// A directory with devices `1..=n` enrolled (still `Joining` until the
/// first epoch boundary).
fn directory_of(n: u64, config: LifecycleConfig) -> FleetDirectory {
    let dir = FleetDirectory::new(config);
    let spec = shared_spec();
    for raw in 1..=n {
        dir.join_shared(DeviceId(raw), &key_for(DeviceId(raw)), Arc::clone(&spec))
            .unwrap();
    }
    dir
}

/// Epoch-sampled rounds over a real socket: a fleet larger than the
/// cohort is attested a partial round at a time, every cohort verifies
/// in full, and one rotation cycle covers every device exactly once —
/// while the runtime's hello routes persist across epochs.
#[test]
fn epoch_rounds_attest_the_rotation_over_a_gateway() {
    const FLEET: u64 = 12;
    const COHORT: usize = 4;
    let dir = directory_of(FLEET, LifecycleConfig::new().cohort(COHORT).seed(5));

    let (mut runtime, prover_end) = runtime_with_peer(dir.fleet_arc(), 1);
    let all: Vec<DeviceId> = (1..=FLEET).map(DeviceId).collect();

    let (ready_tx, ready_rx) = mpsc::channel();
    std::thread::scope(|scope| {
        scope.spawn(|| {
            asap_bench::fleet::host_gateway_provers(prover_end, &all, key_for, &[], move || {
                ready_tx.send(()).unwrap()
            });
        });
        ready_rx.recv().unwrap();

        let mut attested: HashMap<DeviceId, usize> = HashMap::new();
        for epoch in 1..=(FLEET as usize / COHORT) {
            let (plan, report) = run_epoch(&dir, &mut runtime);
            assert_eq!(plan.epoch, epoch as u64);
            assert_eq!(plan.cohort.len(), COHORT, "partial rounds, never the fleet");
            assert_eq!(report.verified(), COHORT, "epoch {epoch}: {report:?}");
            for id in plan.cohort {
                *attested.entry(id).or_default() += 1;
            }
        }
        assert_eq!(attested.len(), FLEET as usize);
        assert!(
            attested.values().all(|&n| n == 1),
            "one cycle attests every device exactly once: {attested:?}"
        );
        assert_eq!(dir.fleet().in_flight(), 0);
        // Dropping the runtime hangs up the prover host's connection,
        // letting its serve loop (and thread) finish.
        drop(runtime);
    });
}

/// Churn composing with hello-routing: a device that announced itself
/// before enrolling is counted as an unknown-device hello, joins
/// mid-cycle, is challenged in the very next epoch over its existing
/// route — and a device that leaves is never challenged again even
/// though its prover stays connected.
#[test]
fn churn_between_epochs_respects_joins_and_leaves() {
    const FLEET: u64 = 4;
    let late = DeviceId(99);
    let dir = directory_of(FLEET, LifecycleConfig::new().cohort(8).seed(2));

    let (mut runtime, prover_end) = runtime_with_peer(dir.fleet_arc(), 1);
    // The prover host serves devices 1..=4 AND 99 — announcing 99's
    // hello before the verifier has ever heard of it.
    let mut hosted: Vec<DeviceId> = (1..=FLEET).map(DeviceId).collect();
    hosted.push(late);

    let (ready_tx, ready_rx) = mpsc::channel();
    std::thread::scope(|scope| {
        scope.spawn(|| {
            asap_bench::fleet::host_gateway_provers(prover_end, &hosted, key_for, &[], move || {
                ready_tx.send(()).unwrap()
            });
        });
        ready_rx.recv().unwrap();

        // Epoch 1: the four enrolled devices verify; 99's hello routes
        // silently but is counted against the registry.
        let (plan, report) = run_epoch(&dir, &mut runtime);
        assert_eq!(plan.cohort.len(), 4);
        assert_eq!(report.verified(), 4);
        let unknown: u64 = runtime
            .reactor_stats()
            .iter()
            .map(|s| s.unknown_device_hellos)
            .sum();
        assert_eq!(
            unknown, 1,
            "a never-enrolled hello routes but must not go uncounted"
        );

        // Mid-cycle churn: 2 leaves, 99 joins (over its parked route).
        assert!(dir.leave(DeviceId(2)));
        dir.join_shared(late, &key_for(late), shared_spec())
            .unwrap();

        // Epoch 2: 99 is challenged over the route its hello recorded
        // last epoch; 2 is gone for good.
        let (plan, report) = run_epoch(&dir, &mut runtime);
        assert!(
            plan.cohort.contains(&late),
            "joined → challenged next epoch"
        );
        assert!(!plan.cohort.contains(&DeviceId(2)));
        assert!(matches!(report.of(late), Some(&Ok(_))));
        assert_eq!(report.verified(), 4, "three rotation devices + 99");

        assert_eq!(dir.state_of(DeviceId(2)), Some(DeviceState::Evicted));
        assert_eq!(dir.state_of(late), Some(DeviceState::Active));
        drop(runtime);
    });
}

/// A staged rekey across an epoch boundary: the device keeps verifying
/// before and after, because the directory applies the key exactly at
/// the boundary and the prover host was built with the same final key.
#[test]
fn rekey_applies_at_the_boundary_and_the_device_keeps_verifying() {
    let id = DeviceId(1);
    let dir = FleetDirectory::new(LifecycleConfig::new().cohort(4).seed(9));
    // Enrolled under a provisional key; the prover only ever knew the
    // final key, so the device can only verify *after* the rekey lands.
    dir.join(
        id,
        b"provisional-key",
        VerifierSpec::from_image(&programs::fig4_authorized().unwrap())
            .unwrap()
            .mode(PoxMode::Asap),
    )
    .unwrap();

    let (mut runtime, prover_end) = runtime_with_peer(dir.fleet_arc(), 1);

    let (ready_tx, ready_rx) = mpsc::channel();
    std::thread::scope(|scope| {
        scope.spawn(|| {
            asap_bench::fleet::host_gateway_provers(prover_end, &[id], key_for, &[], move || {
                ready_tx.send(()).unwrap()
            });
        });
        ready_rx.recv().unwrap();

        // Epoch 1: the key mismatch rejects the honest device.
        let (_, report) = run_epoch(&dir, &mut runtime);
        assert!(matches!(report.of(id), Some(&Err(FleetError::Rejected(_)))));

        // Stage the real key; it applies at the next boundary.
        assert!(dir.rekey(id, &key_for(id)));
        assert_eq!(dir.state_of(id), Some(DeviceState::Rekeying));

        let (plan, report) = run_epoch(&dir, &mut runtime);
        assert!(plan.cohort.contains(&id));
        assert!(matches!(report.of(id), Some(&Ok(_))));
        assert_eq!(dir.state_of(id), Some(DeviceState::Active));
        drop(runtime);
    });
}

/// Satellite pin: a **parked challenge racing device removal**. The
/// device never hellos (its challenge parks), then is evicted
/// mid-round. The exact outcome — `Err(Evicted)`, never `NoResponse`
/// limbo, never a stall to the deadline — must be identical at 1, 2
/// and 4 reactors, and the raw reports byte-identical.
#[test]
fn parked_challenge_racing_eviction_is_deterministic_across_reactor_counts() {
    let ghost = DeviceId(99);

    let run = |reactors: usize| -> asap_fleet::RoundReport {
        let image = programs::fig4_authorized().unwrap();
        let fleet = Arc::new(FleetVerifier::new());
        let honest: Vec<DeviceId> = (1..=4).map(DeviceId).collect();
        for &id in &honest {
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
            .register(
                ghost,
                &key_for(ghost),
                VerifierSpec::from_image(&image)
                    .unwrap()
                    .mode(PoxMode::Asap),
            )
            .unwrap();

        let (mut runtime, prover_end) = runtime_with_peer(Arc::clone(&fleet), reactors);

        let (ready_tx, ready_rx) = mpsc::channel();
        let mut ids = honest.clone();
        ids.push(ghost);
        let fleet_ref = &fleet;
        let report = std::thread::scope(|scope| {
            scope.spawn(|| {
                // Only the honest four ever hello: the ghost's
                // challenge has nowhere to go and parks.
                asap_bench::fleet::host_gateway_provers(
                    prover_end,
                    &honest,
                    key_for,
                    &[],
                    move || ready_tx.send(()).unwrap(),
                );
            });
            ready_rx.recv().unwrap();
            scope.spawn(move || {
                // The eviction lands mid-round, well before the budget.
                std::thread::sleep(Duration::from_millis(120));
                assert!(fleet_ref.remove(ghost));
            });
            let report = runtime.run_round(&ids, Duration::from_millis(800)).unwrap();
            drop(runtime);
            report
        });

        assert_eq!(
            report.of(ghost),
            Some(&Err(FleetError::Evicted(ghost))),
            "{reactors} reactors: a parked challenge must resolve by \
             eviction, not expire into NoResponse"
        );
        assert_eq!(report.verified(), 4, "{reactors} reactors");
        assert_eq!(fleet.in_flight(), 0, "{reactors} reactors");
        report
    };

    let reports: Vec<_> = [1usize, 2, 4].into_iter().map(run).collect();
    assert_eq!(reports[0], reports[1], "1 vs 2 reactors");
    assert_eq!(reports[0], reports[2], "1 vs 4 reactors");
}

/// Acceptance pin: an identical seeded churn schedule — evictions,
/// reconnect storms, hangups, drops and honest traffic — produces a
/// **byte-identical** `RoundReport` at 1, 2 and 4 reactors.
#[test]
fn seeded_churn_schedule_is_byte_identical_across_reactor_counts() {
    let mix = ScenarioMix {
        honest: 20,
        replay: 4,
        bit_flip: 4,
        late: 4,
        dropped: 4,
        hangup: 4,
        evict: 4,
        reconnect: 4,
        ..ScenarioMix::default()
    };
    let reports: Vec<_> = [1usize, 2, 4]
        .into_iter()
        .map(|reactors| {
            let mut harness = ScenarioHarness::build(0x11FE_C7C1, &mix);
            let run = harness.run_round_runtime(
                reactors,
                GatewayTransport::Socketpair,
                Duration::from_millis(800),
            );
            assert!(
                run.report.misjudged().is_empty(),
                "{reactors} reactors: {:#?}",
                run.report.misjudged()
            );
            assert_eq!(
                run.report.count(Scenario::EvictMidRound, |r| matches!(
                    r,
                    Err(FleetError::Evicted(_))
                )),
                4,
                "{reactors} reactors"
            );
            assert_eq!(
                run.report.count(Scenario::ReconnectStorm, Result::is_ok),
                4,
                "{reactors} reactors"
            );
            run.raw
        })
        .collect();
    assert_eq!(reports[0], reports[1], "1 vs 2 reactors");
    assert_eq!(reports[0], reports[2], "1 vs 4 reactors");
}

/// The unknown-device hello stat on a sharded runtime: each reactor
/// counts the never-enrolled hellos it read, surfaced per reactor via
/// `reactor_stats()`.
#[test]
fn unknown_hellos_are_counted_on_reactor_stats() {
    let id = DeviceId(1);
    let fleet = Arc::new(FleetVerifier::new());
    fleet
        .register(
            id,
            &key_for(id),
            VerifierSpec::from_image(&programs::fig4_authorized().unwrap())
                .unwrap()
                .mode(PoxMode::Asap),
        )
        .unwrap();

    let (mut runtime, prover_end) = runtime_with_peer(fleet, 2);

    let (ready_tx, ready_rx) = mpsc::channel();
    std::thread::scope(|scope| {
        scope.spawn(|| {
            let mut stream = prover_end;
            // Two hellos nobody enrolled, then the real device's round.
            for ghost in [777u64, 778] {
                stream
                    .write_all(&frame_stream(&Envelope::wrap(ghost, Vec::new()).to_bytes()))
                    .unwrap();
            }
            asap_bench::fleet::host_gateway_provers(stream, &[id], key_for, &[], move || {
                ready_tx.send(()).unwrap()
            });
        });
        ready_rx.recv().unwrap();
        let report = runtime.run_round(&[id], BUDGET).unwrap();
        assert_eq!(report.verified(), 1);
        let unknown: u64 = runtime
            .reactor_stats()
            .iter()
            .map(|s| s.unknown_device_hellos)
            .sum();
        assert_eq!(unknown, 2, "both ghost hellos counted, none judged");
        drop(runtime);
    });
}

/// The shard table is fixed at `SHARD_COUNT` on both layers — the raw
/// `FleetVerifier` and the `FleetDirectory` that owns one — so a
/// directory's fleet splits devices across reactors exactly as a bare
/// registry does.
#[test]
fn directory_fleet_splits_devices_like_a_bare_registry() {
    let dir = FleetDirectory::new(LifecycleConfig::new());
    let bare = FleetVerifier::new();
    for raw in 0..256u64 {
        let id = DeviceId(raw);
        assert_eq!(dir.fleet().shard_of(id), bare.shard_of(id));
        for reactors in [1usize, 2, 4] {
            assert_eq!(
                dir.fleet().reactor_of(id, reactors),
                bare.shard_of(id) % reactors
            );
        }
    }
}

/// Joins landing mid-round never reroute the round: a 3-reactor
/// runtime (a reactor count that does not divide `SHARD_COUNT`) has its
/// cohort's challenges out when 16,400 devices join, and only then do
/// the cohort's provers hello. Every device's reactor is a function of
/// its id alone, so each hello reaches the reactor holding its
/// challenge and the whole cohort verifies.
#[test]
fn mid_round_joins_keep_every_verdict_at_three_reactors() {
    const COHORT: u64 = 48;
    const JOINERS: u64 = 16_400;
    let dir = directory_of(COHORT, LifecycleConfig::new().cohort(COHORT as usize));
    let plan = dir.begin_epoch();
    assert_eq!(plan.cohort.len(), COHORT as usize);
    let (mut runtime, prover_end) = runtime_with_peer(dir.fleet_arc(), 3);

    let (built_tx, built_rx) = mpsc::channel();
    let (release_tx, release_rx) = mpsc::channel::<()>();
    let report = std::thread::scope(|scope| {
        let hosted = plan.cohort.clone();
        scope.spawn(move || {
            asap_bench::fleet::host_gateway_provers(prover_end, &hosted, key_for, &[], move || {
                // Devices are booted; hold every hello until the joins
                // have landed.
                built_tx.send(()).unwrap();
                release_rx.recv().unwrap();
            });
        });
        built_rx.recv().unwrap();
        let ticket = runtime.submit_round(&plan.cohort, BUDGET).unwrap();
        let spec = shared_spec();
        for raw in 1_000..1_000 + JOINERS {
            let id = DeviceId(raw);
            dir.join_shared(id, &key_for(id), Arc::clone(&spec))
                .unwrap();
        }
        release_tx.send(()).unwrap();
        let report = runtime.wait_round(ticket).unwrap();
        drop(runtime);
        report
    });

    assert_eq!(report.verified(), COHORT as usize, "{report}");
    assert_eq!(dir.fleet().device_count(), (COHORT + JOINERS) as usize);
    assert_eq!(dir.fleet().in_flight(), 0);
}
