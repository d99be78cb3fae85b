//! The persistent fleet runtime end to end: reactors that park between
//! rounds instead of being re-spawned and nap instead of spinning while
//! a round is idle, pipelined epochs with byte-identical per-epoch
//! reports across every reactor count *and* pipeline depth, and verdict
//! attribution under churn with several epochs in flight.

use apex_pox::wire::{frame_stream, Envelope};
use asap::{programs, PoxMode, VerifierSpec};
use asap_bench::fleet::host_gateway_provers;
use asap_fleet::{
    DeviceId, EpochPlan, FleetDirectory, FleetError, FleetRuntime, FleetVerifier, GatewayConn,
    LifecycleConfig, NoListener, RoundReport,
};
use std::collections::VecDeque;
use std::net::TcpStream;
use std::os::unix::net::UnixStream;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::mpsc;
use std::sync::Arc;
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

/// Wall-clock budget per round: generous enough that honest provers
/// never miss it on a loaded CI box.
const BUDGET: Duration = Duration::from_millis(1500);

fn key_for(id: DeviceId) -> Vec<u8> {
    format!("runtime-key-{id}").into_bytes()
}

fn shared_spec() -> Arc<VerifierSpec> {
    let image = programs::fig4_authorized().unwrap();
    Arc::new(
        VerifierSpec::from_image(&image)
            .unwrap()
            .mode(PoxMode::Asap),
    )
}

/// Enrolls `ids` into a fresh shared registry.
fn fleet_of(ids: &[DeviceId]) -> Arc<FleetVerifier> {
    let fleet = FleetVerifier::new();
    let spec = shared_spec();
    for &id in ids {
        fleet
            .register_shared(id, &key_for(id), Arc::clone(&spec))
            .unwrap();
    }
    Arc::new(fleet)
}

/// Hosts provers for `ids` on the far end of a stream, on its own
/// thread (devices are built inside the thread; they are not `Send`).
fn spawn_host<S: std::io::Read + std::io::Write + Send + 'static>(
    stream: S,
    ids: Vec<DeviceId>,
    silent: Vec<DeviceId>,
) -> JoinHandle<()> {
    std::thread::spawn(move || host_gateway_provers(stream, &ids, key_for, &silent, || ()))
}

/// Polls until the registry holds an open session for `id` — the
/// gate that makes mid-round churn injection deterministic: once the
/// challenge is out, an eviction can only resolve as `Evicted`.
fn wait_session_pending(fleet: &FleetVerifier, id: DeviceId) {
    let start = Instant::now();
    while !fleet.session_pending(id) {
        assert!(
            start.elapsed() < Duration::from_secs(5),
            "challenge for {id} never issued"
        );
        std::thread::yield_now();
    }
}

/// The headline shape: one runtime, one connection, many rounds. The
/// reactors park between rounds and the adopted connection survives
/// them all.
#[test]
fn persistent_runtime_reuses_connections_across_rounds() {
    let ids: Vec<DeviceId> = (1..=6).map(DeviceId).collect();
    let fleet = fleet_of(&ids);

    let mut runtime: FleetRuntime<NoListener<UnixStream>> =
        FleetRuntime::detached(Arc::clone(&fleet), 2, 1);
    assert_eq!(runtime.reactors(), 2);
    assert_eq!(runtime.depth(), 1);

    let (gw_end, prover_end) = UnixStream::pair().unwrap();
    runtime.adopt(gw_end).unwrap();
    let host = spawn_host(prover_end, ids.clone(), Vec::new());

    for round in 1..=5 {
        let report = runtime.run_round(&ids, BUDGET).unwrap();
        assert_eq!(report.verified(), ids.len(), "round {round}: {report}");
        assert_eq!(runtime.in_flight_epochs(), 0);
    }
    assert_eq!(
        runtime.accepted_connections(),
        1,
        "five rounds, one connection: nothing was re-dialed or re-adopted"
    );
    assert_eq!(fleet.in_flight(), 0, "sessions leaked");

    drop(runtime);
    host.join().unwrap();
}

/// A prover connection that announces its devices once and then stays
/// silent: every later read finds nothing. Counts every read.
struct SilentConn {
    hellos: Vec<u8>,
    reads: Arc<AtomicUsize>,
}

impl std::io::Read for SilentConn {
    fn read(&mut self, buf: &mut [u8]) -> std::io::Result<usize> {
        self.reads.fetch_add(1, Ordering::Relaxed);
        if self.hellos.is_empty() {
            return Err(std::io::ErrorKind::WouldBlock.into());
        }
        let n = self.hellos.len().min(buf.len());
        buf[..n].copy_from_slice(&self.hellos[..n]);
        self.hellos.drain(..n);
        Ok(n)
    }
}

impl std::io::Write for SilentConn {
    fn write(&mut self, buf: &[u8]) -> std::io::Result<usize> {
        Ok(buf.len())
    }
    fn flush(&mut self) -> std::io::Result<()> {
        Ok(())
    }
}

impl GatewayConn for SilentConn {
    fn prepare(&mut self) -> std::io::Result<()> {
        Ok(())
    }
}

/// Pacing regression: with an epoch in flight against a prover that
/// never answers, a reactor naps for as long as it has been idle, up
/// to 250 µs, instead of yielding and re-reading the socket in a loop.
/// Over the round's 50 ms window that is at most a few reads per
/// millisecond. The bound is only an upper limit, so a slow host reads
/// less and passes; a reactor that spins through its first idle
/// millisecond reads the socket thousands of times and fails.
#[test]
fn an_idle_reactor_naps_instead_of_rereading_its_sockets() {
    let ids = [DeviceId(1)];
    let fleet = fleet_of(&ids);
    let mut runtime: FleetRuntime<NoListener<SilentConn>> =
        FleetRuntime::detached(Arc::clone(&fleet), 1, 1);
    let reads = Arc::new(AtomicUsize::new(0));
    runtime
        .adopt(SilentConn {
            hellos: frame_stream(&Envelope::wrap(ids[0].0, Vec::new()).to_bytes()),
            reads: Arc::clone(&reads),
        })
        .unwrap();

    let started = Instant::now();
    let report = runtime.run_round(&ids, Duration::from_millis(50)).unwrap();
    let window = started.elapsed();
    let reads = reads.load(Ordering::Relaxed);
    assert_eq!(report.outcomes.len(), 1);
    assert_eq!(
        report.outcomes[0].result,
        Err(FleetError::NoResponse(ids[0]))
    );
    // Naps double from 10 µs up to 250 µs: a handful of short ones,
    // then at most one sweep (one read of the silent socket) per
    // 250 µs. Allow one per 200 µs plus slack for the hello and the
    // sweeps around the round's start and end.
    let bound = 16 + window.as_micros() as usize / 200;
    assert!(
        reads <= bound,
        "{reads} reads in {window:?} (bound {bound}): the reactor spins instead of napping"
    );
}

/// Submitting an unknown device issues nothing, and a ticket that was
/// never issued errors instead of hanging.
#[test]
fn unknown_devices_and_tickets_are_rejected() {
    let ids: Vec<DeviceId> = (1..=2).map(DeviceId).collect();
    let fleet = fleet_of(&ids);
    let mut runtime: FleetRuntime<NoListener<UnixStream>> =
        FleetRuntime::detached(Arc::clone(&fleet), 1, 2);

    let stranger = DeviceId(99);
    assert_eq!(
        runtime.submit_round(&[ids[0], stranger], BUDGET),
        Err(FleetError::UnknownDevice(stranger))
    );
    assert_eq!(runtime.in_flight_epochs(), 0, "no partial submission");
    assert!(runtime.wait_round(7).is_err(), "ticket 7 was never issued");
    assert_eq!(
        fleet.in_flight(),
        0,
        "validation failed before any challenge"
    );
}

/// Depth 2 genuinely overlaps: epoch B, submitted behind an epoch A
/// that is stuck waiting out a silent device's deadline, settles well
/// before A's budget expires — then A expires on schedule.
#[test]
fn pipelined_epochs_overlap_in_flight() {
    let ids: Vec<DeviceId> = (1..=8).map(DeviceId).collect();
    let cohort_a: Vec<DeviceId> = ids[..4].to_vec();
    let cohort_b: Vec<DeviceId> = ids[4..].to_vec();
    let silent = cohort_a[3];

    let fleet = fleet_of(&ids);
    let mut runtime: FleetRuntime<NoListener<UnixStream>> =
        FleetRuntime::detached(Arc::clone(&fleet), 2, 2);
    let (gw_end, prover_end) = UnixStream::pair().unwrap();
    runtime.adopt(gw_end).unwrap();
    let host = spawn_host(prover_end, ids.clone(), vec![silent]);

    let started = Instant::now();
    let ticket_a = runtime.submit_round(&cohort_a, BUDGET).unwrap();
    let ticket_b = runtime.submit_round(&cohort_b, BUDGET).unwrap();
    assert_eq!(runtime.in_flight_epochs(), 2);

    let report_b = runtime.wait_round(ticket_b).unwrap();
    let overlap = started.elapsed();
    assert_eq!(report_b.verified(), cohort_b.len(), "{report_b}");
    assert!(
        overlap < BUDGET,
        "epoch B settled in {overlap:?} — behind A's deadline, not pipelined"
    );

    let report_a = runtime.wait_round(ticket_a).unwrap();
    assert!(
        started.elapsed() >= BUDGET,
        "the silent device only expires at A's deadline"
    );
    assert_eq!(report_a.verified(), 3);
    assert!(
        matches!(report_a.of(silent), Some(Err(FleetError::NoResponse(_)))),
        "{report_a:?}"
    );
    drop(runtime);
    host.join().unwrap();
}

/// One run of the determinism matrix: a seeded directory over 24
/// devices, epochs driven through a runtime at the given reactor count
/// and pipeline depth, with churn injected at fixed points in the
/// submission schedule — the evictee leaves mid-flight of the first
/// epoch that challenges it.
fn churned_epochs(
    reactors: usize,
    depth: usize,
    epochs: usize,
    evictee: DeviceId,
    dropped: DeviceId,
) -> Vec<(EpochPlan, RoundReport)> {
    const FLEET: u64 = 24;
    let dir = FleetDirectory::new(
        LifecycleConfig::new()
            .cohort(6)
            .seed(0x6A7E_0010)
            .pipeline_window(4),
    );
    let spec = shared_spec();
    let all: Vec<DeviceId> = (1..=FLEET).map(DeviceId).collect();
    for &id in &all {
        dir.join_shared(id, &key_for(id), Arc::clone(&spec))
            .unwrap();
    }
    let fleet = dir.fleet_arc();

    let mut runtime: FleetRuntime<NoListener<UnixStream>> =
        FleetRuntime::detached(Arc::clone(&fleet), reactors, depth);
    let (gw_end, prover_end) = UnixStream::pair().unwrap();
    runtime.adopt(gw_end).unwrap();
    let host = spawn_host(prover_end, all, vec![evictee, dropped]);

    let window = depth.min(4);
    let mut in_flight: VecDeque<(EpochPlan, u64)> = VecDeque::new();
    let mut out = Vec::with_capacity(epochs);
    let mut submitted = 0usize;
    let mut evicted = false;
    while out.len() < epochs {
        while in_flight.len() < window && submitted < epochs {
            let plan = dir.begin_epoch();
            let ticket = runtime.submit_round(&plan.cohort, BUDGET).unwrap();
            let hits_evictee = plan.cohort.contains(&evictee);
            in_flight.push_back((plan, ticket));
            submitted += 1;
            // Churn lands at the same point in the *submission*
            // schedule in every run: once the evictee's challenge is
            // out, it leaves — mid-flight, possibly with several other
            // epochs in the window.
            if !evicted && hits_evictee {
                wait_session_pending(&fleet, evictee);
                assert!(dir.leave(evictee));
                evicted = true;
            }
        }
        let (plan, ticket) = in_flight.pop_front().expect("window is at least one");
        let report = runtime.wait_round(ticket).unwrap();
        out.push((plan, report));
    }
    assert!(evicted, "the rotation never drew the evictee");
    drop(runtime);
    host.join().unwrap();
    out
}

/// The tentpole determinism pin: the same seeded churn schedule yields
/// **byte-identical per-epoch reports** at pipeline depth 1, 2 and 4
/// across 1, 2 and 4 reactors — nine runs, one answer. The evicted
/// device is charged `Evicted` in exactly one epoch, the dropped
/// device expires as `NoResponse` wherever it is drawn, and everyone
/// else verifies.
#[test]
fn pipelined_epoch_reports_are_identical_across_depths_and_reactors() {
    const EPOCHS: usize = 6;
    let evictee = DeviceId(5);
    let dropped = DeviceId(11);

    let reference = churned_epochs(1, 1, EPOCHS, evictee, dropped);
    assert_eq!(reference.len(), EPOCHS);

    let evicted_in: Vec<u64> = reference
        .iter()
        .filter(|(_, r)| matches!(r.of(evictee), Some(Err(FleetError::Evicted(_)))))
        .map(|(p, _)| p.epoch)
        .collect();
    assert_eq!(
        evicted_in.len(),
        1,
        "the eviction is charged to exactly one epoch: {evicted_in:?}"
    );
    for (plan, report) in &reference {
        for &id in &plan.cohort {
            match report.of(id) {
                Some(Ok(_)) => assert!(id != evictee && id != dropped),
                Some(Err(FleetError::Evicted(_))) => assert_eq!(id, evictee),
                Some(Err(FleetError::NoResponse(_))) => assert_eq!(id, dropped),
                other => panic!("epoch {}: {id} settled as {other:?}", plan.epoch),
            }
        }
    }

    for reactors in [1usize, 2, 4] {
        for depth in [1usize, 2, 4] {
            if (reactors, depth) == (1, 1) {
                continue; // the reference itself
            }
            let run = churned_epochs(reactors, depth, EPOCHS, evictee, dropped);
            assert_eq!(
                run, reference,
                "reports diverged at {reactors} reactors, depth {depth}"
            );
        }
    }
}

/// An eviction landing while two epochs are in flight resolves in the
/// single epoch that was awaiting the device — the other epoch's
/// report carries no trace of it.
#[test]
fn eviction_with_two_epochs_in_flight_charges_exactly_one() {
    let ids: Vec<DeviceId> = (1..=8).map(DeviceId).collect();
    let cohort_a: Vec<DeviceId> = ids[..4].to_vec();
    let cohort_b: Vec<DeviceId> = ids[4..].to_vec();
    let victim = cohort_a[3];

    let fleet = fleet_of(&ids);
    let mut runtime: FleetRuntime<NoListener<UnixStream>> =
        FleetRuntime::detached(Arc::clone(&fleet), 2, 2);
    let (gw_end, prover_end) = UnixStream::pair().unwrap();
    runtime.adopt(gw_end).unwrap();
    let host = spawn_host(prover_end, ids.clone(), vec![victim]);

    let ticket_a = runtime.submit_round(&cohort_a, BUDGET).unwrap();
    wait_session_pending(&fleet, victim);
    let ticket_b = runtime.submit_round(&cohort_b, BUDGET).unwrap();
    assert_eq!(runtime.in_flight_epochs(), 2);
    fleet.remove(victim);

    let report_a = runtime.wait_round(ticket_a).unwrap();
    assert_eq!(report_a.outcomes.len(), cohort_a.len());
    assert_eq!(report_a.of(victim), Some(&Err(FleetError::Evicted(victim))));
    assert_eq!(report_a.verified(), 3);

    let report_b = runtime.wait_round(ticket_b).unwrap();
    assert_eq!(report_b.outcomes.len(), cohort_b.len());
    assert!(
        report_b.outcome_for(victim).is_none(),
        "the eviction must not leak into the overlapping epoch: {report_b:?}"
    );
    assert_eq!(report_b.verified(), cohort_b.len());

    drop(runtime);
    host.join().unwrap();
}

/// The TCP face of the runtime: bind an ephemeral listener, let the
/// driver's wait loops accept the dialing prover host, and drive
/// multiple rounds over the one accepted connection.
#[test]
fn runtime_accepts_tcp_connections_while_driving_rounds() {
    let ids: Vec<DeviceId> = (1..=6).map(DeviceId).collect();
    let fleet = fleet_of(&ids);
    let mut runtime = FleetRuntime::bind_tcp("127.0.0.1:0", Arc::clone(&fleet), 2, 1).unwrap();
    let addr = runtime.listener().unwrap().local_addr().unwrap();

    let hosted = ids.clone();
    let host = std::thread::spawn(move || {
        let stream = TcpStream::connect(addr).unwrap();
        host_gateway_provers(stream, &hosted, key_for, &[], || ());
    });

    for round in 1..=3 {
        let report = runtime.run_round(&ids, BUDGET).unwrap();
        assert_eq!(report.verified(), ids.len(), "round {round}: {report}");
    }
    assert_eq!(runtime.accepted_connections(), 1);
    drop(runtime);
    host.join().unwrap();
}

/// The directory's pipelined driver: `run_epochs_runtime` keeps
/// `min(depth, pipeline_window)` epochs in flight, cohorts in the
/// window never overlap, and every epoch verifies in full.
#[test]
fn directory_drives_pipelined_epochs_through_the_runtime() {
    const FLEET: u64 = 12;
    let dir = FleetDirectory::new(LifecycleConfig::new().cohort(4).seed(9).pipeline_window(2));
    let spec = shared_spec();
    let all: Vec<DeviceId> = (1..=FLEET).map(DeviceId).collect();
    for &id in &all {
        dir.join_shared(id, &key_for(id), Arc::clone(&spec))
            .unwrap();
    }
    let fleet = dir.fleet_arc();

    let mut runtime: FleetRuntime<NoListener<UnixStream>> =
        FleetRuntime::detached(Arc::clone(&fleet), 2, 2);
    let (gw_end, prover_end) = UnixStream::pair().unwrap();
    runtime.adopt(gw_end).unwrap();
    let (ready_tx, ready_rx) = mpsc::channel();
    let hosted = all.clone();
    let host = std::thread::spawn(move || {
        host_gateway_provers(prover_end, &hosted, key_for, &[], move || {
            ready_tx.send(()).unwrap()
        });
    });
    ready_rx.recv().unwrap();

    let epochs = dir.run_epochs_runtime(&mut runtime, 6, BUDGET).unwrap();
    assert_eq!(epochs.len(), 6);
    for window in epochs.windows(2) {
        let (ref a, _) = window[0];
        let (ref b, _) = window[1];
        assert!(
            a.cohort.iter().all(|id| !b.cohort.contains(id)),
            "in-flight cohorts must be disjoint: {a:?} vs {b:?}"
        );
    }
    for (plan, report) in &epochs {
        assert_eq!(
            report.verified(),
            plan.cohort.len(),
            "epoch {}: {report}",
            plan.epoch
        );
    }
    drop(runtime);
    host.join().unwrap();
}
