//! The two fleet workloads: `fleet-steady` and `fleet-churn`.
//!
//! Both drive one persistent [`FleetRuntime`] (one reactor) over two
//! host-local socketpairs. Behind each socketpair one prover thread
//! owns its half of the fleet as real simulated fig4 ASAP devices, run
//! to their done loop at set-up, and answers every challenge with
//! `Device::attest_bytes`. The simulator executes nothing while the
//! rounds are timed: each session is MAC, wire and reactor work.

use crate::live::{Live, LiveStats};
use crate::procfs;
use crate::script::{check_epoch, EpochCheck, Fault, FaultScript};
use crate::trace::Tracer;
use apex_pox::wire::Envelope;
use asap::{programs, Device, PoxMode, VerifierSpec};
use asap_fleet::{
    announce_devices, serve_frames, DeviceId, DeviceState, FleetDirectory, FleetRuntime,
    FleetVerifier, GatewayConn, LifecycleConfig, NoListener,
};
use msp430_tools::link::Image;
use pox_crypto::sha256;
use std::collections::{HashMap, VecDeque};
use std::io::{Read, Write};
use std::os::unix::net::UnixStream;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::mpsc;
use std::sync::Arc;
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

/// Devices attested by every `fleet-steady` round.
pub const STEADY_DEVICES: u64 = 500;
/// Devices enrolled in the `fleet-churn` directory.
pub const CHURN_DEVICES: u64 = 2_000;
/// Devices per `fleet-churn` epoch.
pub const CHURN_COHORT: usize = 250;
/// Epochs `fleet-churn` keeps in flight (directory window and runtime
/// depth alike).
pub const CHURN_DEPTH: usize = 2;
/// Socketpair connections, each served by one prover thread.
pub const CONNECTIONS: usize = 2;
/// Devices kept out of the fleet at once: a leaver re-joins once this
/// many have left after it, so a leave and a join land every epoch.
const LEAVER_LAG: usize = 8;
/// Round deadline: far beyond any round's duration, so no verdict ever
/// comes from a timer.
const BUDGET: Duration = Duration::from_secs(30);

type Runtime = FleetRuntime<NoListener<CountedStream>>;

/// `read` and `write` calls made on the verifier's socket ends.
#[derive(Debug, Default)]
struct SyscallCounts {
    reads: AtomicU64,
    writes: AtomicU64,
}

impl SyscallCounts {
    fn snapshot(&self) -> (u64, u64) {
        (
            self.reads.load(Ordering::Relaxed),
            self.writes.load(Ordering::Relaxed),
        )
    }
}

/// The verifier end of a socketpair, counting the `read` and `write`
/// calls the runtime makes on it: each is one syscall, including those
/// that find the socket not ready. (`/proc/<tid>/io`'s `syscr`/`syscw`
/// miss them: std reads and writes sockets with `recv`/`send`.)
struct CountedStream {
    stream: UnixStream,
    counts: Arc<SyscallCounts>,
}

impl Read for CountedStream {
    fn read(&mut self, buf: &mut [u8]) -> std::io::Result<usize> {
        self.counts.reads.fetch_add(1, Ordering::Relaxed);
        self.stream.read(buf)
    }
}

impl Write for CountedStream {
    fn write(&mut self, buf: &[u8]) -> std::io::Result<usize> {
        self.counts.writes.fetch_add(1, Ordering::Relaxed);
        self.stream.write(buf)
    }

    fn flush(&mut self) -> std::io::Result<()> {
        self.stream.flush()
    }
}

impl GatewayConn for CountedStream {
    fn prepare(&mut self) -> std::io::Result<()> {
        self.stream.set_nonblocking(true)
    }
}

/// The per-device key both sides derive: the first 16 bytes of
/// `SHA-256(seed ‖ id)`.
pub fn device_key(seed: u64, id: DeviceId) -> Vec<u8> {
    let mut input = [0u8; 16];
    input[..8].copy_from_slice(&seed.to_le_bytes());
    input[8..].copy_from_slice(&id.0.to_le_bytes());
    sha256::digest(&input)[..16].to_vec()
}

/// A fig4 ASAP device as the fleet deploys it: booted, interrupted by
/// the button mid-`ER`, and run to its done loop.
pub fn boot_fig4(image: &Image, key: &[u8]) -> Device {
    let mut device = Device::builder(image)
        .mode(PoxMode::Asap)
        .key(key)
        .build()
        .expect("fig4 device builds");
    device.run_steps(6);
    device.set_button(0, true);
    assert!(
        device.run_until_pc(programs::done_pc(), 10_000),
        "fig4 device reaches its done loop"
    );
    device
}

/// The fig4 verifier spec, shared by every enrolled device.
pub fn fig4_spec() -> Arc<VerifierSpec> {
    let image = programs::fig4_authorized().expect("fig4 image links");
    Arc::new(
        VerifierSpec::from_image(&image)
            .expect("fig4 spec derives")
            .mode(PoxMode::Asap),
    )
}

/// The prover threads behind the runtime's connections.
struct Provers {
    handles: Vec<JoinHandle<()>>,
    tids: Vec<u64>,
}

impl Provers {
    /// Splits `ids` over [`CONNECTIONS`] socketpairs adopted by
    /// `runtime`, one prover thread each, and waits until every thread
    /// has built its devices and recorded its tid. Each thread answers
    /// challenges with [`serve_frames`], the repository's prover loop,
    /// applying the fault script to its devices' responses.
    fn spawn(
        runtime: &mut Runtime,
        counts: &Arc<SyscallCounts>,
        ids: &[DeviceId],
        seed: u64,
        script: Option<FaultScript>,
    ) -> Provers {
        let (ready_tx, ready_rx) = mpsc::channel();
        let handles: Vec<_> = ids
            .chunks(ids.len().div_ceil(CONNECTIONS))
            .map(|chunk| {
                let (verifier_end, mut prover_end) = UnixStream::pair().expect("socketpair");
                runtime
                    .adopt(CountedStream {
                        stream: verifier_end,
                        counts: Arc::clone(counts),
                    })
                    .expect("runtime adopts");
                let ids = chunk.to_vec();
                let ready = ready_tx.clone();
                std::thread::spawn(move || {
                    let image = programs::fig4_authorized().expect("fig4 image links");
                    // Device, responses served so far (the fault
                    // script's index).
                    let mut devices: HashMap<DeviceId, (Device, u64)> = ids
                        .iter()
                        .map(|&id| (id, (boot_fig4(&image, &device_key(seed, id)), 0)))
                        .collect();
                    ready
                        .send(procfs::current_tid().unwrap_or(0))
                        .expect("the main thread waits for readiness");
                    if announce_devices(&mut prover_end, &ids).is_err() {
                        return;
                    }
                    serve_frames(prover_end, |id, envelope| {
                        let (device, served) = devices.get_mut(&id)?;
                        let mut response = device.attest_bytes(&envelope.payload).ok()?;
                        if let Some(script) = script {
                            script.fault(id, *served).apply(&mut response);
                        }
                        *served += 1;
                        Some(Envelope::wrap(id.0, response).to_bytes())
                    });
                })
            })
            .collect();
        let tids = (0..handles.len())
            .map(|_| ready_rx.recv().expect("prover thread starts"))
            .collect();
        Provers { handles, tids }
    }

    fn join(self) {
        for handle in self.handles {
            handle.join().expect("prover thread never panics");
        }
    }
}

/// Which fleet workload.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Kind {
    /// 500 honest devices, whole-fleet rounds back to back.
    Steady,
    /// A 2,000-device directory, pipelined cohort epochs, churn and
    /// scripted faults.
    Churn,
}

/// The churn workload's membership state and script replay.
struct Churn {
    dir: FleetDirectory,
    spec: Arc<VerifierSpec>,
    script: FaultScript,
    rng: u64,
    leavers: VecDeque<DeviceId>,
    /// Challenges each device has received (indexed by id).
    challenged: Vec<u64>,
}

/// An epoch submitted and not yet reported.
struct InFlight {
    ticket: u64,
    submitted: Instant,
    expected: Vec<(DeviceId, Fault)>,
}

/// A set-up fleet workload, ready to measure.
pub struct FleetSeries {
    kind: Kind,
    seed: u64,
    ids: Vec<DeviceId>,
    runtime: Runtime,
    provers: Provers,
    syscalls: Arc<SyscallCounts>,
    churn: Option<Churn>,
    /// Devices verified per steady round, all honest.
    steady_expected: Vec<(DeviceId, Fault)>,
    next_round: u64,
    /// Warm-up verdicts, charged to the first run.
    warm_up: EpochCheck,
}

impl FleetSeries {
    /// Enrolls the fleet, starts the runtime and the prover threads,
    /// and warms up (first-contact hellos, route recording, initial
    /// allocations) so measurement starts in the steady state.
    pub fn setup(kind: Kind, seed: u64) -> FleetSeries {
        let spec = fig4_spec();
        let n = match kind {
            Kind::Steady => STEADY_DEVICES,
            Kind::Churn => CHURN_DEVICES,
        };
        let ids: Vec<DeviceId> = (1..=n).map(DeviceId).collect();
        let (fleet, churn) = match kind {
            Kind::Steady => {
                let fleet = Arc::new(FleetVerifier::new());
                for &id in &ids {
                    fleet
                        .register_shared(id, &device_key(seed, id), Arc::clone(&spec))
                        .expect("ids are unique");
                }
                (fleet, None)
            }
            Kind::Churn => {
                let dir = FleetDirectory::new(
                    LifecycleConfig::new()
                        .cohort(CHURN_COHORT)
                        .seed(seed)
                        .pipeline_window(CHURN_DEPTH),
                );
                for &id in &ids {
                    dir.join_shared(id, &device_key(seed, id), Arc::clone(&spec))
                        .expect("ids are unique");
                }
                let fleet = dir.fleet_arc();
                let churn = Churn {
                    dir,
                    spec,
                    script: FaultScript::new(seed),
                    rng: seed | 1,
                    leavers: VecDeque::new(),
                    challenged: vec![0; n as usize + 1],
                };
                (fleet, Some(churn))
            }
        };
        let depth = match kind {
            Kind::Steady => 1,
            Kind::Churn => CHURN_DEPTH,
        };
        let mut runtime = FleetRuntime::detached(fleet, 1, depth);
        let script = churn.as_ref().map(|c| c.script);
        let syscalls = Arc::new(SyscallCounts::default());
        let provers = Provers::spawn(&mut runtime, &syscalls, &ids, seed, script);
        let steady_expected = match kind {
            Kind::Steady => ids.iter().map(|&id| (id, Fault::Honest)).collect(),
            Kind::Churn => Vec::new(),
        };
        let mut series = FleetSeries {
            kind,
            seed,
            ids,
            runtime,
            provers,
            syscalls,
            churn,
            steady_expected,
            next_round: 0,
            warm_up: EpochCheck::default(),
        };
        // Warm-up: three whole-fleet rounds, or one full rotation of
        // the churn directory. Verdicts are checked all the same.
        let mut warm = Live::start(&[]);
        let mut off = Tracer::new(Instant::now(), false);
        match kind {
            Kind::Steady => {
                for _ in 0..3 {
                    series.steady_round(&mut warm, &mut off);
                }
            }
            Kind::Churn => {
                let rotation = (CHURN_DEVICES as usize).div_ceil(CHURN_COHORT);
                series.churn_epochs(None, Some(rotation), &mut warm, &mut off);
            }
        }
        series.warm_up = warm.check;
        series
    }

    /// The MAC-conclusion pool size of the runtime's registry.
    pub fn mac_pool(&self) -> usize {
        self.runtime.fleet().parallelism()
    }

    /// Tids of the prover threads.
    pub fn prover_tids(&self) -> Vec<u64> {
        self.provers.tids.clone()
    }

    /// Measures for `seconds` of closed-loop rounds (or epochs).
    pub fn run(&mut self, seconds: f64, tracer: &mut Tracer) -> LiveStats {
        let deadline = Instant::now() + Duration::from_secs_f64(seconds);
        let (reads, writes) = self.syscalls.snapshot();
        let mut live = Live::start(&self.provers.tids);
        live.check = std::mem::take(&mut self.warm_up);
        match self.kind {
            Kind::Steady => {
                while Instant::now() < deadline {
                    self.steady_round(&mut live, tracer);
                }
            }
            Kind::Churn => self.churn_epochs(Some(deadline), None, &mut live, tracer),
        }
        let mut stats = live.finish();
        let (reads_after, writes_after) = self.syscalls.snapshot();
        stats.socket_reads = reads_after - reads;
        stats.socket_writes = writes_after - writes;
        stats
    }

    /// Shuts the runtime down (the provers see EOF) and waits for the
    /// prover threads.
    pub fn finish(self) {
        let FleetSeries {
            runtime, provers, ..
        } = self;
        drop(runtime);
        provers.join();
    }

    fn steady_round(&mut self, live: &mut Live, tracer: &mut Tracer) {
        let round = self.next_round;
        self.next_round += 1;
        let n = self.ids.len() as u64;
        let span = tracer.enter("fleet.round", Some(round));
        let issued = Instant::now();
        let report = tracer
            .span("runtime.run_round", None, n, || {
                self.runtime.run_round(&self.ids, BUDGET)
            })
            .expect("every device is enrolled");
        let completed = Instant::now();
        tracer.exit(span, n);
        let check = check_epoch(&self.steady_expected, &report);
        live.check.add(check);
        live.completed(issued, completed, check.attempted as u64);
    }

    /// The churn closed loop: keeps [`CHURN_DEPTH`] epochs in flight
    /// until `deadline` passes or `epochs` have been submitted, then
    /// drains. Before each submission one seeded device outside every
    /// in-flight cohort leaves and the oldest leaver re-joins.
    fn churn_epochs(
        &mut self,
        deadline: Option<Instant>,
        epochs: Option<usize>,
        live: &mut Live,
        tracer: &mut Tracer,
    ) {
        let churn = self.churn.as_mut().expect("churn workload");
        let mut inflight: VecDeque<InFlight> = VecDeque::new();
        let mut submitted = 0usize;
        loop {
            let stop = deadline.is_some_and(|d| Instant::now() >= d)
                || epochs.is_some_and(|e| submitted >= e);
            if inflight.len() == CHURN_DEPTH || (stop && !inflight.is_empty()) {
                let done = inflight.pop_front().expect("an epoch is in flight");
                let report = tracer
                    .span("runtime.wait_round", Some(done.ticket), 1, || {
                        self.runtime.wait_round(done.ticket)
                    })
                    .expect("epoch settles");
                let completed = Instant::now();
                let sessions = done.expected.len() as u64;
                tracer.record(
                    "fleet.epoch",
                    done.submitted,
                    completed,
                    Some(done.ticket),
                    sessions,
                );
                live.check.add(check_epoch(&done.expected, &report));
                live.completed(done.submitted, completed, sessions);
                continue;
            }
            if stop {
                break;
            }
            let ticket_hint = Some(self.next_round);
            churn.leave_and_rejoin(self.seed, &self.ids, &inflight, ticket_hint, tracer);
            let plan = tracer.span("lifecycle.begin_epoch", ticket_hint, 1, || {
                churn.dir.begin_epoch()
            });
            let expected: Vec<(DeviceId, Fault)> = plan
                .cohort
                .iter()
                .map(|&id| {
                    let nth = &mut churn.challenged[id.0 as usize];
                    *nth += 1;
                    (id, churn.script.fault(id, *nth - 1))
                })
                .collect();
            let submitted_at = Instant::now();
            let ticket = tracer
                .span(
                    "runtime.submit_round",
                    ticket_hint,
                    plan.cohort.len() as u64,
                    || self.runtime.submit_round(&plan.cohort, BUDGET),
                )
                .expect("cohorts hold enrolled devices only");
            self.next_round = ticket + 1;
            inflight.push_back(InFlight {
                ticket,
                submitted: submitted_at,
                expected,
            });
            submitted += 1;
        }
    }
}

impl Churn {
    /// One seeded leave of an active device that no in-flight epoch
    /// challenged, then the re-join of the oldest leaver once
    /// [`LEAVER_LAG`] devices are out.
    ///
    /// Leaves must avoid in-flight cohorts: a device removed between
    /// `submit_round` and its reactor beginning the epoch fails that
    /// whole epoch with `UnknownDevice`.
    fn leave_and_rejoin(
        &mut self,
        seed: u64,
        ids: &[DeviceId],
        inflight: &VecDeque<InFlight>,
        round: Option<u64>,
        tracer: &mut Tracer,
    ) {
        let in_flight = |id: DeviceId| {
            inflight
                .iter()
                .any(|f| f.expected.iter().any(|&(d, _)| d == id))
        };
        let leaver = (0..1_000).find_map(|_| {
            let id = ids[(xorshift(&mut self.rng) % ids.len() as u64) as usize];
            (self.dir.state_of(id) == Some(DeviceState::Active) && !in_flight(id)).then_some(id)
        });
        if let Some(id) = leaver {
            let left = tracer.span("lifecycle.leave", round, 1, || self.dir.leave(id));
            if left {
                self.leavers.push_back(id);
            }
        }
        if self.leavers.len() > LEAVER_LAG {
            let back = self.leavers.pop_front().expect("queue is non-empty");
            let key = device_key(seed, back);
            tracer
                .span("lifecycle.join", round, 1, || {
                    self.dir.join_shared(back, &key, Arc::clone(&self.spec))
                })
                .expect("a leaver re-joins");
        }
    }
}

/// xorshift64*: the churn schedule's generator.
fn xorshift(state: &mut u64) -> u64 {
    let mut x = *state;
    x ^= x >> 12;
    x ^= x << 25;
    x ^= x >> 27;
    *state = x;
    x.wrapping_mul(0x2545_F491_4F6C_DD1D)
}
