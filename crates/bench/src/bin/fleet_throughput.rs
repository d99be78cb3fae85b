//! Fleet throughput: sessions/sec vs device count, lock-step loopback
//! and the socket runtime.
//!
//! Builds an all-honest fleet of N simulated devices (each one a real
//! OpenMSP430 run to completion), then times a full batched PoX round —
//! challenge issuance, delivery, SW-Att attestation, evidence
//! conclusion — and records the results into `BENCH_fleet.json`.
//!
//! Series, all through the same sans-IO `RoundEngine`:
//!
//! * **loopback** — frames wired straight into in-process devices by
//!   the lock-step reference driver: the pure verifier-side cost;
//! * **runtime** — the same frames over real socketpairs into one
//!   `FleetRuntime`: a devices × connections × reactors sweep, one
//!   prover-host thread per connection, so the delta against loopback
//!   is framing, hello routing, per-connection write queues and the
//!   reactor loop — or, on a multi-core host, the reactors' parallel
//!   speedup;
//! * **sustained** — ≥30 consecutive rounds through one runtime
//!   (optionally with one seeded leave/re-join per round), recording
//!   the post-soak RSS ceiling;
//! * **lifecycle** — the memory-diet series: 10k-, 100k- and 1M-device
//!   fleets enrolled through a `FleetDirectory` under one shared spec,
//!   epoch-sampled partial rounds driven over loopback, `VmRSS`
//!   recorded at enrollment (full run only).
//!
//! Device construction and execution are *not* timed: the measured
//! quantity is verifier-side round throughput, which is what a
//! production fleet service would scale on.
//!
//! Environment knobs:
//!
//! * `FLEET_SMOKE=1` — one loopback round plus one small runtime point
//!   at 1 and 2 reactors, for the CI fleet runtime step (which compares
//!   both against the checked-in baseline);
//! * `LIFECYCLE_SMOKE=1` — one mid-scale (10k-device) lifecycle
//!   enrollment + epoch series recording RSS, for the CI lifecycle
//!   step;
//! * `SOAK_SMOKE=1` — one bounded sustained run (30 rounds through a
//!   runtime with one seeded leave/re-join per round), for the CI soak
//!   step;
//! * `FLEET_DEVICES=a,b,c` — explicit device-count series (loopback,
//!   plus runtime rows at 8 connections × 1 and 4 reactors).

use asap::{programs, Device, PoxMode, VerifierSpec};
use asap_bench::fleet::{device_key, host_gateway_provers, ScenarioHarness, ScenarioMix};
use asap_fleet::{
    DeviceId, FleetDirectory, FleetRuntime, FleetVerifier, LifecycleConfig, Loopback, NoListener,
    XorShift64,
};
use std::os::unix::net::UnixStream;
use std::sync::Arc;
use std::time::{Duration, Instant};

struct Row {
    transport: &'static str,
    devices: usize,
    /// Concurrent connections carrying the round; `None` where the
    /// notion does not apply (loopback, lifecycle).
    connections: Option<usize>,
    /// Reactor threads sharding the round loop; `None` where there is
    /// no runtime at all.
    reactors: Option<usize>,
    /// Outcomes contributed by each reactor in the last timed round —
    /// the shard-affinity balance at a glance.
    per_reactor: Option<Vec<usize>>,
    /// Epoch cohort size for `lifecycle` rows — the partial-round bound
    /// that keeps a sweep from walking the whole fleet.
    cohort: Option<usize>,
    /// Epochs driven for `lifecycle` rows.
    epochs: Option<usize>,
    /// Resident set size right after the fleet was enrolled, for
    /// `lifecycle` rows — the memory-diet number the 100k–1M series
    /// exists to pin.
    rss_bytes: Option<u64>,
    /// Sessions concluded `Verified` across the timed span; equal to
    /// `devices` everywhere except `lifecycle` rows, where it is
    /// `cohort × epochs`.
    verified: usize,
    build_secs: f64,
    round_secs: f64,
    sessions_per_sec: f64,
}

/// Resident set size of this process, from `/proc/self/status`
/// (`VmRSS`). `None` off Linux or if the field moves.
fn rss_bytes() -> Option<u64> {
    let status = std::fs::read_to_string("/proc/self/status").ok()?;
    let line = status.lines().find(|l| l.starts_with("VmRSS:"))?;
    let kib: u64 = line.split_whitespace().nth(1)?.parse().ok()?;
    Some(kib * 1024)
}

/// Enrolls `ids` under their seed-derived keys (verifier side only).
fn enroll(ids: &[DeviceId], seed: u64) -> FleetVerifier {
    let image = programs::fig4_authorized().expect("image links");
    let fleet = FleetVerifier::new();
    for &id in ids {
        fleet
            .register(
                id,
                &device_key(seed, id),
                VerifierSpec::from_image(&image)
                    .expect("spec derives")
                    .mode(PoxMode::Asap),
            )
            .expect("ids are unique");
    }
    fleet
}

fn measure_loopback(devices: usize, seed: u64) -> Row {
    let t0 = Instant::now();
    let mut harness = ScenarioHarness::build(seed, &ScenarioMix::honest(devices));
    let build_secs = t0.elapsed().as_secs_f64();

    // Best of three rounds: a single round at small device counts is
    // dominated by scheduler noise, and the CI regression gate
    // (`ci/check_fleet_regression.py`) needs a stable loopback number.
    let mut round_secs = f64::INFINITY;
    for _ in 0..3 {
        let t1 = Instant::now();
        let report = harness.run_round();
        round_secs = round_secs.min(t1.elapsed().as_secs_f64());

        assert_eq!(
            report.verified(),
            devices,
            "an all-honest round must verify every device"
        );
        assert_eq!(
            harness.fleet().in_flight(),
            0,
            "rounds must not leak sessions"
        );
    }
    Row {
        transport: "loopback",
        devices,
        connections: None,
        reactors: None,
        per_reactor: None,
        cohort: None,
        epochs: None,
        rss_bytes: None,
        verified: devices,
        build_secs,
        round_secs,
        sessions_per_sec: devices as f64 / round_secs.max(f64::EPSILON),
    }
}

/// One point of the runtime sweep: `devices` honest provers behind
/// `connections` socketpairs (one prover-host thread each) into a
/// `FleetRuntime` sharded over `reactors` reactor threads. One untimed
/// warm-up round records the hello routes; the row is the best of the
/// next three.
fn measure_runtime(devices: usize, connections: usize, reactors: usize, seed: u64) -> Row {
    let ids: Vec<DeviceId> = (1..=devices as u64).map(DeviceId).collect();

    let t0 = Instant::now();
    let fleet = Arc::new(enroll(&ids, seed));
    let mut runtime: FleetRuntime<NoListener<UnixStream>> =
        FleetRuntime::detached(Arc::clone(&fleet), reactors, 1);
    let hosts = spawn_hosts(&mut runtime, &ids, connections, seed);
    let build_secs = t0.elapsed().as_secs_f64();

    let budget = Duration::from_secs(30);
    let warm = runtime.run_round(&ids, budget).expect("warm-up round runs");
    assert_eq!(warm.verified(), devices, "warm-up must verify in full");
    let mut round_secs = f64::INFINITY;
    for _ in 0..3 {
        let t1 = Instant::now();
        let report = runtime.run_round(&ids, budget).expect("round runs");
        round_secs = round_secs.min(t1.elapsed().as_secs_f64());

        assert_eq!(
            report.verified(),
            devices,
            "an all-honest runtime round must verify every device: {report}"
        );
        assert_eq!(fleet.in_flight(), 0, "rounds must not leak sessions");
    }
    let per_reactor: Vec<usize> = runtime
        .reactor_stats()
        .iter()
        .map(|s| s.last_round_outcomes)
        .collect();
    let connections = hosts.len();
    drop(runtime); // hang up every connection: the hosts see EOF
    for host in hosts {
        host.join().expect("prover host exits");
    }

    Row {
        transport: "runtime",
        devices,
        connections: Some(connections),
        reactors: Some(reactors),
        per_reactor: Some(per_reactor),
        cohort: None,
        epochs: None,
        rss_bytes: None,
        verified: devices,
        build_secs,
        round_secs,
        sessions_per_sec: devices as f64 / round_secs.max(f64::EPSILON),
    }
}

/// Hosts `ids` behind `connections` socketpairs adopted into `runtime`,
/// one prover-host thread per connection, and returns once every host
/// has built its devices. With fewer devices than requested
/// connections, chunking yields fewer (but never more) hosts.
fn spawn_hosts(
    runtime: &mut FleetRuntime<NoListener<UnixStream>>,
    ids: &[DeviceId],
    connections: usize,
    seed: u64,
) -> Vec<std::thread::JoinHandle<()>> {
    let (ready_tx, ready_rx) = std::sync::mpsc::channel();
    let hosts: Vec<_> = ids
        .chunks(ids.len().div_ceil(connections))
        .map(|chunk| {
            let (runtime_end, prover_end) = UnixStream::pair().expect("socketpair");
            runtime.adopt(runtime_end).expect("adopt runtime end");
            let host_ids = chunk.to_vec();
            let ready_tx = ready_tx.clone();
            std::thread::spawn(move || {
                host_gateway_provers(
                    prover_end,
                    &host_ids,
                    |id| device_key(seed, id),
                    &[],
                    move || ready_tx.send(()).expect("bench main thread waits"),
                );
            })
        })
        .collect();
    for _ in 0..hosts.len() {
        ready_rx.recv().expect("prover host builds its fleet");
    }
    hosts
}

/// The sustained series: `rounds` consecutive full-fleet rounds driven
/// through **one** [`FleetRuntime`] — reactors parked between rounds,
/// connections adopted once, every reactor concluding its own evidence:
/// the number a continuous-attestation deployment actually sustains.
///
/// With `churn`, every round is preceded by one seeded leave (the
/// victim re-enrolls after the round settles), so the soak also covers
/// registry mutation under a live runtime. `rss_bytes` is sampled
/// after the last round — the soak memory ceiling: a leak per round
/// (an unfreed deframer, an engine that never returns its buffers)
/// shows up here multiplied by `rounds`.
fn measure_sustained(
    devices: usize,
    connections: usize,
    reactors: usize,
    rounds: usize,
    churn: bool,
    seed: u64,
) -> Row {
    let ids: Vec<DeviceId> = (1..=devices as u64).map(DeviceId).collect();
    let image = programs::fig4_authorized().expect("image links");
    let spec = Arc::new(
        VerifierSpec::from_image(&image)
            .expect("spec derives")
            .mode(PoxMode::Asap),
    );

    let t0 = Instant::now();
    let fleet = Arc::new(enroll(&ids, seed));
    let mut runtime: FleetRuntime<NoListener<UnixStream>> =
        FleetRuntime::detached(Arc::clone(&fleet), reactors, 1);
    let hosts = spawn_hosts(&mut runtime, &ids, connections, seed);
    let connections = hosts.len();
    let build_secs = t0.elapsed().as_secs_f64();

    // Warm the runtime: first-contact hellos, route recording and the
    // initial allocations happen here, outside the timed span — the
    // sustained number is the steady state.
    for _ in 0..3 {
        let report = runtime
            .run_round(&ids, Duration::from_secs(30))
            .expect("warmup round runs");
        assert_eq!(report.verified(), devices, "warmup must verify in full");
    }

    let mut rng = XorShift64::new(seed | 1);
    let mut verified = 0usize;
    let t1 = Instant::now();
    for _ in 0..rounds {
        if churn {
            let victim = ids[rng.below(devices as u64) as usize];
            fleet.remove(victim);
            let cohort: Vec<DeviceId> = ids.iter().copied().filter(|&id| id != victim).collect();
            let report = runtime
                .run_round(&cohort, Duration::from_secs(30))
                .expect("churned round runs");
            assert_eq!(
                report.verified(),
                devices - 1,
                "every still-enrolled device must verify"
            );
            verified += report.verified();
            fleet
                .register_shared(victim, &device_key(seed, victim), Arc::clone(&spec))
                .expect("the victim re-enrolls");
        } else {
            let report = runtime
                .run_round(&ids, Duration::from_secs(30))
                .expect("sustained round runs");
            assert_eq!(
                report.verified(),
                devices,
                "an all-honest sustained round must verify every device"
            );
            verified += report.verified();
        }
        assert_eq!(fleet.in_flight(), 0, "rounds must not leak sessions");
    }
    let round_secs = t1.elapsed().as_secs_f64();
    let rss = rss_bytes();
    assert_eq!(
        runtime.accepted_connections() as usize,
        connections,
        "the sustained span must never re-dial"
    );
    drop(runtime); // hang up every connection: the hosts see EOF
    for host in hosts {
        host.join().expect("prover host exits");
    }

    Row {
        transport: "sustained",
        devices,
        connections: Some(connections),
        reactors: Some(reactors),
        per_reactor: None,
        cohort: None,
        epochs: Some(rounds),
        rss_bytes: rss,
        verified,
        build_secs,
        round_secs,
        sessions_per_sec: verified as f64 / round_secs.max(f64::EPSILON),
    }
}

/// The lifecycle scale point: a fleet of `devices` enrolled through a
/// [`FleetDirectory`] under one shared `Arc<VerifierSpec>` (the
/// memory-diet enrollment path), then `epochs` epoch-sampled partial
/// rounds of `cohort` devices each driven over loopback.
///
/// Real simulated MCUs are materialized *only* for each epoch's cohort:
/// at ~64 KiB of memory image per device, instantiating the whole
/// fleet would measure the bench's memory, not the verifier's. The row
/// records `VmRSS` right after enrollment — the registry footprint the
/// 100k–1M series exists to pin — and sessions/sec over the driven
/// cohorts.
fn measure_lifecycle(devices: usize, cohort: usize, epochs: usize, seed: u64) -> Row {
    let image = programs::fig4_authorized().expect("image links");
    let spec = Arc::new(
        VerifierSpec::from_image(&image)
            .expect("spec derives")
            .mode(PoxMode::Asap),
    );

    let t0 = Instant::now();
    let dir = FleetDirectory::new(LifecycleConfig::new().cohort(cohort).seed(seed));
    for raw in 1..=devices as u64 {
        let id = DeviceId(raw);
        dir.join_shared(id, &device_key(seed, id), Arc::clone(&spec))
            .expect("ids are unique");
    }
    let build_secs = t0.elapsed().as_secs_f64();
    let rss = rss_bytes();

    let mut round_secs = 0.0;
    let mut verified = 0;
    for _ in 0..epochs {
        let plan = dir.begin_epoch();
        assert_eq!(plan.cohort.len(), cohort, "partial rounds, never the fleet");
        let mut fabric = Loopback::new();
        for &id in &plan.cohort {
            let mut device = Device::builder(&image)
                .key(&device_key(seed, id))
                .build()
                .expect("device builds");
            assert!(device.run_until_pc(programs::done_pc(), 10_000));
            fabric.attach(id, device);
        }
        let t1 = Instant::now();
        let report = dir
            .fleet()
            .run_round(&plan.cohort, &mut fabric)
            .expect("epoch round runs");
        round_secs += t1.elapsed().as_secs_f64();
        assert_eq!(
            report.verified(),
            plan.cohort.len(),
            "an all-honest cohort must verify in full"
        );
        assert_eq!(
            dir.fleet().in_flight(),
            0,
            "epoch rounds must not leak sessions"
        );
        verified += report.verified();
    }

    Row {
        transport: "lifecycle",
        devices,
        connections: None,
        reactors: None,
        per_reactor: None,
        cohort: Some(cohort),
        epochs: Some(epochs),
        rss_bytes: rss,
        verified,
        build_secs,
        round_secs,
        sessions_per_sec: verified as f64 / round_secs.max(f64::EPSILON),
    }
}

fn main() {
    let explicit: Option<Vec<usize>> = std::env::var("FLEET_DEVICES").ok().map(|list| {
        list.split(',')
            .map(|s| s.trim().parse().expect("FLEET_DEVICES: usize list"))
            .collect()
    });
    let fleet_smoke = std::env::var("FLEET_SMOKE").is_ok();
    let lifecycle_smoke = std::env::var("LIFECYCLE_SMOKE").is_ok();
    let soak_smoke = std::env::var("SOAK_SMOKE").is_ok();

    type Sweep = (
        Vec<usize>,
        // Runtime points: devices × connections × reactors.
        Vec<(usize, usize, usize)>,
        Vec<(usize, usize, usize)>,
        // Sustained runs: devices × connections × reactors × rounds ×
        // seeded-churn.
        Vec<(usize, usize, usize, usize, bool)>,
    );
    let (loopback_counts, runtime_points, lifecycle_runs, sustained_runs): Sweep = match &explicit {
        Some(counts) => (
            counts.clone(),
            counts
                .iter()
                .flat_map(|&n| [(n, 8, 1), (n, 8, 4)])
                .collect(),
            vec![],
            vec![],
        ),
        None if fleet_smoke => (vec![100], vec![(100, 8, 1), (100, 8, 2)], vec![], vec![]),
        // One mid-scale lifecycle point for the CI lifecycle step:
        // big enough that the registry footprint dominates RSS, small
        // enough to stay in smoke-test time.
        None if lifecycle_smoke => (vec![], vec![], vec![(10_000, 512, 2)], vec![]),
        // The CI soak point: 30 consecutive rounds through one runtime
        // with one seeded leave/re-join per round — bounded
        // wall-clock, gated on both steady-state throughput and the
        // soak RSS ceiling.
        None if soak_smoke => (vec![], vec![], vec![], vec![(100, 4, 2, 30, true)]),
        None => (
            vec![100, 250, 500],
            vec![
                // Scaling devices at a fixed fan-in…
                (100, 8, 1),
                (250, 8, 1),
                // …then fan-in at the full fleet…
                (500, 1, 1),
                (500, 8, 1),
                (500, 32, 1),
                // …then the reactor counts that matter on multi-core.
                (500, 8, 2),
                (500, 8, 4),
                (1000, 16, 4),
            ],
            // The lifecycle memory-diet series: devices × cohort ×
            // epochs, RSS recorded at enrollment. The 1M row is a smoke
            // point — one epoch, small cohort — pinning that enrollment
            // and epoch scheduling stay tractable at the paper's fleet
            // scale.
            vec![(10_000, 512, 2), (100_000, 1024, 2), (1_000_000, 256, 1)],
            // The sustained series: the steady-state point mirrors the
            // 500-device/8-connection runtime row, and the churn point
            // is the full-sweep twin of the CI soak step.
            vec![(500, 8, 1, 30, false), (100, 4, 2, 30, true)],
        ),
    };

    println!(
        "{:<13} {:<8} {:<6} {:<8} {:>12} {:>12} {:>16}",
        "transport", "devices", "conns", "reactors", "build (s)", "round (s)", "sessions/sec"
    );
    // Lifecycle rows run first: their RSS figure is only meaningful on
    // a heap the other sweeps haven't already grown and freed into.
    let mut rows: Vec<Row> = lifecycle_runs
        .iter()
        .map(|&(n, c, e)| measure_lifecycle(n, c, e, 0xA5A5))
        .collect();
    rows.extend(loopback_counts.iter().map(|&n| measure_loopback(n, 0xA5A5)));
    rows.extend(
        runtime_points
            .iter()
            .map(|&(n, c, r)| measure_runtime(n, c, r, 0xA5A5)),
    );
    rows.extend(
        sustained_runs
            .iter()
            .map(|&(n, c, r, rounds, churn)| measure_sustained(n, c, r, rounds, churn, 0xA5A5)),
    );
    for r in &rows {
        println!(
            "{:<13} {:<8} {:<6} {:<8} {:>12.3} {:>12.3} {:>16.1}{}",
            r.transport,
            r.devices,
            r.connections
                .or(r.cohort)
                .map_or("-".into(), |c| c.to_string()),
            r.reactors.map_or("-".into(), |n| n.to_string()),
            r.build_secs,
            r.round_secs,
            r.sessions_per_sec,
            r.rss_bytes.map_or(String::new(), |b| format!(
                "  rss {:.1} MiB",
                b as f64 / (1024.0 * 1024.0)
            ))
        );
    }

    // The host's parallelism travels with the numbers: a 4-reactor row
    // measured on one core is mailbox overhead, not speedup.
    let parallelism = std::thread::available_parallelism().map_or(1, |n| n.get());
    let mut json = String::from("{\n  \"bench\": \"fleet_throughput\",\n");
    json.push_str(&format!("  \"parallelism\": {parallelism},\n"));
    json.push_str("  \"rounds\": [\n");
    for (i, r) in rows.iter().enumerate() {
        let connections = r
            .connections
            .map_or(String::new(), |c| format!("\"connections\": {c}, "));
        let reactors = r
            .reactors
            .map_or(String::new(), |n| format!("\"reactors\": {n}, "));
        let per_reactor = r.per_reactor.as_ref().map_or(String::new(), |shares| {
            let list: Vec<String> = shares.iter().map(|s| s.to_string()).collect();
            format!("\"per_reactor\": [{}], ", list.join(", "))
        });
        let cohort = r
            .cohort
            .map_or(String::new(), |c| format!("\"cohort\": {c}, "));
        let epochs = r
            .epochs
            .map_or(String::new(), |e| format!("\"epochs\": {e}, "));
        let rss = r
            .rss_bytes
            .map_or(String::new(), |b| format!("\"rss_bytes\": {b}, "));
        json.push_str(&format!(
            "    {{\"transport\": \"{}\", \"devices\": {}, {}{}{}{}{}{}\"build_secs\": {:.6}, \
             \"round_secs\": {:.6}, \"sessions_per_sec\": {:.1}, \"verified\": {}}}{}\n",
            r.transport,
            r.devices,
            connections,
            reactors,
            per_reactor,
            cohort,
            epochs,
            rss,
            r.build_secs,
            r.round_secs,
            r.sessions_per_sec,
            r.verified,
            if i + 1 < rows.len() { "," } else { "" }
        ));
    }
    json.push_str("  ]\n}\n");
    std::fs::write("BENCH_fleet.json", &json).expect("write BENCH_fleet.json");
    println!("\nwrote BENCH_fleet.json");
}
