//! Deterministic multi-device scenario harness.
//!
//! Drives N simulated provers through a mixed population of behaviours
//! — honest devices, replayed evidence, bit-flipped frames, evidence
//! smuggled under the wrong device id, late responses, dropped
//! responses — against one [`FleetVerifier`], under a mixed APEX/ASAP
//! fleet.
//!
//! A round is an **event schedule** over the sans-IO
//! [`RoundEngine`](asap_fleet::RoundEngine): every response frame is
//! assigned a delivery tick drawn from the seed, deliveries interleave
//! out of challenge order, late devices answer on the last tick before
//! the round deadline, and silent devices expire purely via `tick` —
//! shapes the old blocking one-exchange-per-device API could not
//! represent at all.
//!
//! Everything is derived from a caller-supplied seed through the
//! workspace's xorshift generator: device keys, mode assignment, the scenario
//! shuffle and the delivery schedule. There is **no wall-clock input
//! anywhere**, so a (seed, mix) pair replays the identical fleet, byte
//! for byte, on every run — the property the exact-verdict-count
//! assertions in `tests/fleet_scenarios.rs` rely on.

use apex_pox::wire::{frame_stream, Envelope, StreamDeframer};
use asap::device::PoxMode;
use asap::{programs, AsapError, Attested, Device, VerifierSpec};
use asap_fleet::{
    pump_read, DeviceId, FleetError, FleetRuntime, FleetVerifier, GatewayConn, GatewayListener,
    LogicalTime, Loopback, ReactorStats, ReadPump, RoundConfig, RoundEngine, RoundReport,
    WritePump, WriteQueue, XorShift64,
};
use pox_crypto::sha256;
use std::collections::HashMap;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

/// Offset of the envelope payload inside an envelope frame — the
/// fixed framing the codec itself declares.
const ENVELOPE_PAYLOAD_AT: usize = apex_pox::wire::ENVELOPE_OVERHEAD as usize;

/// Logical ticks one harness round spans: devices that have not
/// answered when the engine ticks to this instant are charged
/// [`FleetError::NoResponse`]. Late devices answer on tick
/// `ROUND_DEADLINE - 1`, the last one still in time.
pub const ROUND_DEADLINE: u64 = 8;

/// The harness's only source of "randomness": the workspace's
/// [`XorShift64`] over a whitened seed.
#[derive(Debug, Clone)]
pub struct DetRng(XorShift64);

impl DetRng {
    /// A generator for `seed`, whitened by XOR with the golden-ratio
    /// constant. Any value is accepted: the one seed that whitens to
    /// the xorshift zero fixpoint is remapped by the generator.
    pub fn new(seed: u64) -> DetRng {
        DetRng(XorShift64::new(seed ^ 0x9E37_79B9_7F4A_7C15))
    }

    /// The next raw 64-bit value.
    pub fn next_u64(&mut self) -> u64 {
        self.0.next_u64()
    }

    /// Uniform value in `0..n` (`n > 0`).
    pub fn below(&mut self, n: usize) -> usize {
        self.0.below(n as u64) as usize
    }

    /// A fair coin.
    pub fn coin(&mut self) -> bool {
        self.next_u64() & 1 == 1
    }
}

/// What one simulated device does to its round transcript.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Scenario {
    /// Runs, attests, delivers its evidence untouched.
    Honest,
    /// Delivers evidence bound to an earlier, superseded challenge.
    ReplayedEvidence,
    /// Delivers its evidence with a corrupted payload byte.
    BitFlippedFrame,
    /// Delivers another device's evidence under its own id.
    WrongDeviceEvidence,
    /// Answers honestly, but only on the last tick before the round
    /// deadline — late, yet still in time, so it must verify.
    LateResponse,
    /// Never answers the challenge.
    DroppedResponse,
    /// Receives its challenge, then severs its connection without
    /// answering — the crashed-prover shape. Over sockets the hangup
    /// is observed directly and the device is charged
    /// [`FleetError::NoResponse`] on the spot; over loopback (which has
    /// no connection to sever) it degenerates to a dropped response and
    /// expires by deadline. Either way the verdict is `NoResponse`.
    MidRoundHangup,
    /// Is removed from the fleet while its round is in flight — the
    /// churn shape. The harness evicts the device (registry removal,
    /// as [`FleetDirectory::leave`](asap_fleet::FleetDirectory::leave)
    /// does) partway through the round while the prover stays silent;
    /// membership sync must resolve it as [`FleetError::Evicted`] —
    /// deterministically, at any reactor count, never `NoResponse`
    /// limbo.
    EvictMidRound,
    /// Answers honestly, then hangs up and immediately redials with a
    /// fresh hello — the reconnect-storm shape. Its evidence bytes
    /// precede the FIN in stream order, so the device settles before
    /// the dead connection could charge it: the verdict is verified,
    /// deterministically, and the re-hello moves its route without
    /// disturbing the settled round. Over loopback (no connections) it
    /// degenerates to an honest response.
    ReconnectStorm,
}

/// How many devices of each behaviour to simulate.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct ScenarioMix {
    /// Honest devices.
    pub honest: usize,
    /// Devices replaying stale evidence.
    pub replay: usize,
    /// Devices whose response frame gets a bit flipped in transit.
    pub bit_flip: usize,
    /// Devices delivering a partner's evidence (must be even: they
    /// swap pairwise).
    pub mis_bind: usize,
    /// Devices answering honestly on the round's last in-time tick.
    pub late: usize,
    /// Devices that never respond.
    pub dropped: usize,
    /// Devices that hang up mid-round after receiving their challenge.
    pub hangup: usize,
    /// Devices evicted from the fleet mid-round while staying silent.
    pub evict: usize,
    /// Devices that answer, hang up and redial with a fresh hello.
    pub reconnect: usize,
}

impl ScenarioMix {
    /// An all-honest fleet of `n` devices (the throughput workload).
    pub fn honest(n: usize) -> ScenarioMix {
        ScenarioMix {
            honest: n,
            ..ScenarioMix::default()
        }
    }

    /// Total number of simulated devices.
    pub fn total(&self) -> usize {
        self.honest
            + self.replay
            + self.bit_flip
            + self.mis_bind
            + self.late
            + self.dropped
            + self.hangup
            + self.evict
            + self.reconnect
    }
}

/// One device's verdict, tagged with what the device actually did.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ScenarioEntry {
    /// The device.
    pub device: DeviceId,
    /// The PoX architecture it runs.
    pub mode: PoxMode,
    /// Its scripted behaviour.
    pub scenario: Scenario,
    /// The fleet verifier's verdict.
    pub result: Result<Attested, FleetError>,
}

/// The outcome of one harness round.
#[derive(Debug, Clone, Default)]
pub struct ScenarioReport {
    /// One entry per simulated device.
    pub entries: Vec<ScenarioEntry>,
}

impl ScenarioReport {
    /// Number of devices scripted as `scenario` whose result satisfies
    /// `pred`.
    pub fn count(
        &self,
        scenario: Scenario,
        pred: impl Fn(&Result<Attested, FleetError>) -> bool,
    ) -> usize {
        self.entries
            .iter()
            .filter(|e| e.scenario == scenario && pred(&e.result))
            .count()
    }

    /// Number of verified devices, regardless of scenario.
    pub fn verified(&self) -> usize {
        self.entries.iter().filter(|e| e.result.is_ok()).count()
    }

    /// The entries whose verdict differs from [`expected_verdict`] for
    /// their scenario. Empty on a correct verifier.
    pub fn misjudged(&self) -> Vec<&ScenarioEntry> {
        self.entries
            .iter()
            .filter(|e| !expected_verdict(e.scenario, e.device)(&e.result))
            .collect()
    }
}

/// The verdict a correct fleet verifier must reach for `scenario`, as a
/// predicate over the device's result.
pub fn expected_verdict(
    scenario: Scenario,
    device: DeviceId,
) -> impl Fn(&Result<Attested, FleetError>) -> bool {
    move |result| match scenario {
        Scenario::Honest | Scenario::LateResponse => result.is_ok(),
        Scenario::ReplayedEvidence | Scenario::WrongDeviceEvidence => {
            result == &Err(FleetError::Rejected(AsapError::BadMac))
        }
        Scenario::BitFlippedFrame => {
            matches!(result, Err(FleetError::Rejected(AsapError::Wire(_))))
        }
        Scenario::DroppedResponse | Scenario::MidRoundHangup => {
            result == &Err(FleetError::NoResponse(device))
        }
        Scenario::EvictMidRound => result == &Err(FleetError::Evicted(device)),
        Scenario::ReconnectStorm => result.is_ok(),
    }
}

/// The harness: a [`FleetVerifier`], a [`Loopback`] fabric of real
/// simulated devices, a seeded per-device behaviour script, and the
/// generator that keeps drawing each round's delivery schedule.
pub struct ScenarioHarness {
    fleet: Arc<FleetVerifier>,
    fabric: Loopback,
    plans: Vec<(DeviceId, PoxMode, Scenario)>,
    rng: DetRng,
}

impl ScenarioHarness {
    /// Builds the fleet: one simulated MCU per planned device, each run
    /// to completion (ASAP devices take a mid-`ER` button interrupt,
    /// APEX devices run undisturbed, so every device is *honestly
    /// executed* — the attacks are on the transcript, not the code).
    ///
    /// Per-device keys are derived from `(seed, id)`; modes and the
    /// scenario order are drawn from the same seed.
    ///
    /// # Panics
    ///
    /// When `mix.mis_bind` is odd (mis-binding devices swap evidence
    /// pairwise) or the image fails to build a device.
    pub fn build(seed: u64, mix: &ScenarioMix) -> ScenarioHarness {
        assert!(
            mix.mis_bind.is_multiple_of(2),
            "mis-binding devices swap evidence pairwise: count must be even"
        );
        let mut rng = DetRng::new(seed);
        let image = programs::fig4_authorized().expect("fig4 image links");

        // Lay out the behaviours, then shuffle them across device ids
        // so scenarios interleave instead of forming contiguous runs.
        let mut scenarios = Vec::with_capacity(mix.total());
        for (scenario, n) in [
            (Scenario::Honest, mix.honest),
            (Scenario::ReplayedEvidence, mix.replay),
            (Scenario::BitFlippedFrame, mix.bit_flip),
            (Scenario::WrongDeviceEvidence, mix.mis_bind),
            (Scenario::LateResponse, mix.late),
            (Scenario::DroppedResponse, mix.dropped),
            (Scenario::MidRoundHangup, mix.hangup),
            (Scenario::EvictMidRound, mix.evict),
            (Scenario::ReconnectStorm, mix.reconnect),
        ] {
            scenarios.extend(std::iter::repeat_n(scenario, n));
        }
        shuffle(&mut scenarios, &mut rng);

        let fleet = Arc::new(FleetVerifier::new());
        let mut fabric = Loopback::new();
        let mut plans = Vec::with_capacity(scenarios.len());
        // Mis-binding devices swap evidence pairwise; a cross-mode swap
        // would be caught by the IVT-shape check (Missing/UnexpectedIvt)
        // before the MAC, so pin each pair to one mode to make the
        // verdict exactly BadMac — the mis-binding signal.
        let mut misbind_pair_mode: Option<PoxMode> = None;
        for (i, scenario) in scenarios.into_iter().enumerate() {
            let id = DeviceId(i as u64 + 1);
            let drawn = if rng.coin() {
                PoxMode::Asap
            } else {
                PoxMode::Apex
            };
            let mode = if scenario == Scenario::WrongDeviceEvidence {
                match misbind_pair_mode.take() {
                    Some(m) => m,
                    None => {
                        misbind_pair_mode = Some(drawn);
                        drawn
                    }
                }
            } else {
                drawn
            };
            let key = device_key(seed, id);

            let mut device = Device::builder(&image)
                .mode(mode)
                .key(&key)
                .build()
                .expect("device builds");
            device.run_steps(6);
            if mode == PoxMode::Asap {
                device.set_button(0, true);
            }
            assert!(
                device.run_until_pc(programs::done_pc(), 10_000),
                "device {id} must reach its done loop"
            );
            fabric.attach(id, device);
            fleet
                .register(
                    id,
                    &key,
                    VerifierSpec::from_image(&image)
                        .expect("spec derives")
                        .mode(mode),
                )
                .expect("ids are unique");
            plans.push((id, mode, scenario));
        }
        ScenarioHarness {
            fleet,
            fabric,
            plans,
            rng,
        }
    }

    /// The fleet verifier under test.
    pub fn fleet(&self) -> &FleetVerifier {
        &self.fleet
    }

    /// Number of simulated devices.
    pub fn device_count(&self) -> usize {
        self.plans.len()
    }

    /// Runs one full batched round as an event schedule over the
    /// sans-IO [`RoundEngine`], applying each device's scripted
    /// behaviour to its transcript, and returns the tagged verdicts.
    ///
    /// The schedule: every delivered frame gets a seed-drawn tick in
    /// `0..ROUND_DEADLINE - 1` (so deliveries interleave out of
    /// challenge order), late devices deliver on tick
    /// `ROUND_DEADLINE - 1`, dropped devices never deliver and expire
    /// when the engine ticks to [`ROUND_DEADLINE`]. Purely logical
    /// time: no sleeps, no clocks, replayable byte for byte.
    pub fn run_round(&mut self) -> ScenarioReport {
        let stale = self.prime_stale();
        let ids: Vec<DeviceId> = self.plans.iter().map(|p| p.0).collect();
        let mut engine = RoundEngine::begin(
            &self.fleet,
            &ids,
            RoundConfig::new(LogicalTime(0), ROUND_DEADLINE),
        )
        .expect("all registered");

        // Drain the engine's request frames (challenge order == plan
        // order) and script each device's response frame, if any.
        let mut requests: Vec<(DeviceId, Vec<u8>)> = Vec::with_capacity(self.plans.len());
        while let Some(tx) = engine.poll_transmit() {
            requests.push(tx);
        }
        let mut frames: Vec<Option<Vec<u8>>> = Vec::with_capacity(requests.len());
        let mut swap_pending: Option<usize> = None;
        for (i, (id, request)) in requests.iter().enumerate() {
            match self.plans[i].2 {
                // Loopback has no connections: a reconnect storm
                // degenerates to its honest answer.
                Scenario::Honest | Scenario::LateResponse | Scenario::ReconnectStorm => {
                    frames.push(Some(
                        self.fabric.exchange(*id, request).expect("honest response"),
                    ));
                }
                Scenario::ReplayedEvidence => frames.push(Some(stale[id].clone())),
                Scenario::BitFlippedFrame => {
                    let mut frame = self.fabric.exchange(*id, request).expect("honest response");
                    frame[ENVELOPE_PAYLOAD_AT] ^= 0x01; // corrupt the inner magic
                    frames.push(Some(frame));
                }
                Scenario::WrongDeviceEvidence => {
                    // Pair up: the second of each pair swaps payloads
                    // with the first, each re-addressed as the other.
                    let frame = self.fabric.exchange(*id, request).expect("honest response");
                    frames.push(Some(frame));
                    match swap_pending.take() {
                        None => swap_pending = Some(frames.len() - 1),
                        Some(first) => {
                            let second = frames.len() - 1;
                            let (a, b) = (
                                cross_address(
                                    frames[first].as_deref().unwrap(),
                                    frames[second].as_deref().unwrap(),
                                ),
                                cross_address(
                                    frames[second].as_deref().unwrap(),
                                    frames[first].as_deref().unwrap(),
                                ),
                            );
                            frames[first] = Some(a);
                            frames[second] = Some(b);
                        }
                    }
                }
                // Loopback has no connection to sever: a mid-round
                // hangup is indistinguishable from silence here.
                // Evicted devices are silent too — their verdict comes
                // from the membership sync, not a frame.
                Scenario::DroppedResponse | Scenario::MidRoundHangup | Scenario::EvictMidRound => {
                    frames.push(None)
                }
            }
        }
        assert!(swap_pending.is_none(), "mis-binding devices come in pairs");

        // Assign delivery ticks, shuffle so same-tick deliveries also
        // interleave, then play the schedule into the engine.
        let mut events: Vec<(u64, Vec<u8>)> = Vec::new();
        for (i, frame) in frames.into_iter().enumerate() {
            let Some(frame) = frame else { continue };
            let tick = match self.plans[i].2 {
                Scenario::LateResponse => ROUND_DEADLINE - 1,
                _ => self.rng.below((ROUND_DEADLINE - 1) as usize) as u64,
            };
            events.push((tick, frame));
        }
        shuffle(&mut events, &mut self.rng);
        events.sort_by_key(|e| e.0); // stable: keeps the shuffle within each tick

        // Evictions land halfway through the schedule: the registry
        // entries vanish and the engine's next membership sync charges
        // the devices `Evicted`, exactly as a churn feed would mid-round.
        let evicted: Vec<DeviceId> = self
            .plans
            .iter()
            .filter(|p| p.2 == Scenario::EvictMidRound)
            .map(|p| p.0)
            .collect();

        let mut next = 0;
        for now in 0..=ROUND_DEADLINE {
            if now == ROUND_DEADLINE / 2 && !evicted.is_empty() {
                for &id in &evicted {
                    self.fleet.remove(id);
                }
                engine.sync_membership();
            }
            while next < events.len() && events[next].0 == now {
                engine.frame_received(&events[next].1);
                next += 1;
            }
            engine.tick(LogicalTime(now));
        }
        let report = engine.into_report();
        self.tagged(&report)
    }

    /// Runs one full scripted round **over real sockets**: every device
    /// gets its own connection into a fresh [`FleetRuntime`] sharded
    /// over `reactors` reactor threads, and the whole scenario matrix —
    /// honest, replayed, bit-flipped, cross-addressed, late, dropped,
    /// mid-round hangups, evictions, reconnect storms — plays out as
    /// actual bytes on actual file descriptors, with the same expected
    /// verdicts as the loopback schedule.
    ///
    /// The runtime's round runs on a scoped verifier thread while
    /// *this* thread services every prover-side socket — announcing
    /// hellos, answering challenges per the script, hanging up where
    /// scripted (the loopback fabric holds simulated
    /// [`Device`](apex_pox::Device)s, which are not `Send`). Late
    /// devices answer after a quarter of `budget`; dropped devices stay
    /// silently connected and expire when `budget` runs out, so a mix
    /// with dropped devices makes the round last the full budget. The
    /// raw [`RoundReport`]'s outcome order is canonical — the
    /// determinism tests compare raw reports across reactor counts.
    ///
    /// # Panics
    ///
    /// On socket-layer failures, or when a scripted exchange fails.
    pub fn run_round_runtime(
        &mut self,
        reactors: usize,
        transport: GatewayTransport,
        budget: Duration,
    ) -> RuntimeRun {
        let fleet = Arc::clone(&self.fleet);
        match transport {
            GatewayTransport::Socketpair => {
                let mut runtime = FleetRuntime::detached(fleet, reactors, 1);
                let peers: Vec<(DeviceId, std::os::unix::net::UnixStream)> = self
                    .plans
                    .iter()
                    .map(|&(id, _, _)| {
                        let (runtime_end, prover_end) =
                            std::os::unix::net::UnixStream::pair().expect("socketpair");
                        runtime.adopt(runtime_end).expect("adopt runtime end");
                        (id, prover_end)
                    })
                    .collect();
                // A socketpair cannot be redialed: reconnect storms
                // degenerate to answer-then-hangup.
                self.runtime_round(&mut runtime, peers, budget, None)
            }
            GatewayTransport::Tcp => {
                let mut runtime = FleetRuntime::bind_tcp("127.0.0.1:0", fleet, reactors, 1)
                    .expect("bind ephemeral listener");
                let addr = runtime
                    .listener()
                    .expect("own listener")
                    .local_addr()
                    .expect("listener addr");
                let mut peers = Vec::with_capacity(self.plans.len());
                // Dial in bounded bursts, draining the accept queue in
                // between, so the listener backlog never overflows.
                for chunk in self.plans.chunks(64) {
                    for &(id, _, _) in chunk {
                        peers.push((id, std::net::TcpStream::connect(addr).expect("connect")));
                    }
                    runtime.accept_pending();
                }
                while runtime.accepted_connections() < peers.len() as u64 {
                    if runtime.accept_pending() == 0 {
                        std::thread::yield_now();
                    }
                }
                // Reconnect storms redial the listener; the runtime
                // accepts the fresh connections mid-round.
                let redial: Option<Box<dyn FnMut() -> Option<std::net::TcpStream>>> =
                    Some(Box::new(move || std::net::TcpStream::connect(addr).ok()));
                self.runtime_round(&mut runtime, peers, budget, redial)
            }
        }
    }

    /// The shared round loop behind [`Self::run_round_runtime`]: one
    /// scripted prover peer per connection, serviced strictly without
    /// blocking on this thread while the runtime drives the round on a
    /// scoped one.
    fn runtime_round<L: GatewayListener + Send>(
        &mut self,
        runtime: &mut FleetRuntime<L>,
        peers: Vec<(DeviceId, L::Conn)>,
        budget: Duration,
        redial: Option<Box<dyn FnMut() -> Option<L::Conn>>>,
    ) -> RuntimeRun
    where
        L::Conn: Send + 'static,
    {
        let stale = self.prime_stale();
        let mut pool = ProverPool::new(&self.plans, peers, stale, budget, redial);

        let ids: Vec<DeviceId> = self.plans.iter().map(|p| p.0).collect();
        let fleet: &FleetVerifier = &self.fleet;
        let fabric = &mut self.fabric;

        let done = AtomicBool::new(false);
        let done = &done;
        let (raw, reactor_stats) = std::thread::scope(|scope| {
            let verifier = scope.spawn(move || {
                let report = runtime.run_round(&ids, budget);
                done.store(true, Ordering::Release);
                (report, runtime.reactor_stats())
            });
            while !done.load(Ordering::Acquire) {
                // Scripted churn lands beside the round, exactly as a
                // lifecycle feed would: registry removal now, engine
                // sync on the reactors' next sweep.
                for id in pool.due_evictions() {
                    fleet.remove(id);
                }
                pool.service(fabric);
                std::thread::sleep(Duration::from_micros(200));
            }
            let (report, stats) = verifier.join().expect("verifier thread never panics");
            (report.expect("all registered"), stats)
        });
        RuntimeRun {
            report: self.tagged(&raw),
            raw,
            reactor_stats,
        }
    }

    /// Replaying devices first obtain evidence for a challenge that
    /// the scored round will supersede.
    fn prime_stale(&mut self) -> HashMap<DeviceId, Vec<u8>> {
        let mut stale: HashMap<DeviceId, Vec<u8>> = HashMap::new();
        for &(id, _, scenario) in &self.plans {
            if scenario == Scenario::ReplayedEvidence {
                let req = self.fleet.begin(id).expect("registered");
                let resp = self.fabric.exchange(id, &req).expect("loopback answers");
                stale.insert(id, resp);
            }
        }
        stale
    }

    /// Tags a raw round report with each device's scripted scenario,
    /// defaulting unreported devices to `NoResponse`.
    fn tagged(&self, report: &RoundReport) -> ScenarioReport {
        let entries = self
            .plans
            .iter()
            .map(|&(id, mode, scenario)| ScenarioEntry {
                device: id,
                mode,
                scenario,
                result: report
                    .of(id)
                    .cloned()
                    .unwrap_or(Err(FleetError::NoResponse(id))),
            })
            .collect();
        ScenarioReport { entries }
    }
}

/// Everything a scripted socket round yields: the scenario verdicts,
/// the raw canonically-merged report (what the determinism tests
/// compare across reactor counts), and a per-reactor breakdown
/// snapshot taken right after the round.
pub struct RuntimeRun {
    /// Per-device verdicts tagged with their scripted scenario.
    pub report: ScenarioReport,
    /// The canonical merged round report, outcome order independent of
    /// reactor interleaving.
    pub raw: RoundReport,
    /// One entry per reactor: connections, drops, outcome share.
    pub reactor_stats: Vec<ReactorStats>,
}

/// One scripted prover behind its own connection.
struct Prover<C> {
    id: DeviceId,
    scenario: Scenario,
    /// `None` once the prover hung up (scripted or observed).
    stream: Option<C>,
    deframer: StreamDeframer,
    outbox: WriteQueue,
    /// Reconnect-storm script: sever as soon as the outbox drains (the
    /// evidence bytes are then on the wire ahead of the FIN), redial.
    sever_after_drain: bool,
}

/// The hello: an empty-payload envelope announcing which device lives
/// behind this connection.
fn hello_outbox(id: DeviceId) -> WriteQueue {
    let mut outbox = WriteQueue::default();
    assert!(outbox.enqueue(&frame_stream(&Envelope::wrap(id.0, Vec::new()).to_bytes())));
    outbox
}

/// The prover side of a scripted socket round: every device's
/// connection, serviced strictly without blocking so one thread can
/// interleave the whole fleet. Scripting (replay, bit-flip, mis-bind,
/// late, hangup) lives here so rounds at every reactor count replay
/// byte-identical behaviour.
struct ProverPool<C> {
    provers: Vec<Prover<C>>,
    /// Pre-round evidence for replaying devices.
    stale: HashMap<DeviceId, Vec<u8>>,
    /// Mis-binding partners, paired in plan order.
    partner: HashMap<DeviceId, DeviceId>,
    index_of: HashMap<DeviceId, usize>,
    /// Honest frames of mis-binding devices, waiting for partners.
    swap_bank: HashMap<DeviceId, Vec<u8>>,
    /// (prover index, response frame) held back until `late_at`.
    late_pending: Vec<(usize, Vec<u8>)>,
    /// Devices scripted for mid-round eviction, drained (once) into
    /// the driver via [`ProverPool::due_evictions`] at `evict_at`.
    evict_ids: Vec<DeviceId>,
    /// Dials a fresh connection to the runtime for reconnect-storm
    /// redials; `None` on fabrics that cannot dial (socketpairs), where
    /// the storm degenerates to answer-then-hangup.
    redial: Option<Box<dyn FnMut() -> Option<C>>>,
    started: Instant,
    late_at: Duration,
    evict_at: Duration,
}

impl<C: GatewayConn> ProverPool<C> {
    fn new(
        plans: &[(DeviceId, PoxMode, Scenario)],
        peers: Vec<(DeviceId, C)>,
        stale: HashMap<DeviceId, Vec<u8>>,
        budget: Duration,
        redial: Option<Box<dyn FnMut() -> Option<C>>>,
    ) -> Self {
        // Mis-binding devices swap evidence pairwise, in plan order.
        let mut partner: HashMap<DeviceId, DeviceId> = HashMap::new();
        let mut half: Option<DeviceId> = None;
        for &(id, _, scenario) in plans {
            if scenario == Scenario::WrongDeviceEvidence {
                match half.take() {
                    None => half = Some(id),
                    Some(first) => {
                        partner.insert(first, id);
                        partner.insert(id, first);
                    }
                }
            }
        }
        assert!(half.is_none(), "mis-binding devices come in pairs");

        let scenario_of: HashMap<DeviceId, Scenario> =
            plans.iter().map(|&(id, _, s)| (id, s)).collect();
        let index_of: HashMap<DeviceId, usize> = peers
            .iter()
            .enumerate()
            .map(|(i, &(id, _))| (id, i))
            .collect();
        let provers: Vec<Prover<C>> = peers
            .into_iter()
            .map(|(id, mut stream)| {
                stream.prepare().expect("nonblocking prover stream");
                Prover {
                    id,
                    scenario: scenario_of[&id],
                    stream: Some(stream),
                    deframer: StreamDeframer::new(),
                    outbox: hello_outbox(id),
                    sever_after_drain: false,
                }
            })
            .collect();

        let evict_ids: Vec<DeviceId> = plans
            .iter()
            .filter(|&&(_, _, s)| s == Scenario::EvictMidRound)
            .map(|&(id, _, _)| id)
            .collect();

        ProverPool {
            provers,
            stale,
            partner,
            index_of,
            swap_bank: HashMap::new(),
            late_pending: Vec::new(),
            evict_ids,
            redial,
            started: Instant::now(),
            late_at: budget / 4,
            evict_at: budget / 4,
        }
    }

    /// The devices due for their scripted mid-round eviction: empty
    /// until a quarter of the budget has elapsed, then handed over
    /// exactly once. The *driver* performs the actual
    /// [`FleetVerifier::remove`] — the pool only keeps time, mirroring
    /// a churn feed arriving beside the round.
    fn due_evictions(&mut self) -> Vec<DeviceId> {
        if self.evict_ids.is_empty() || self.started.elapsed() < self.evict_at {
            return Vec::new();
        }
        std::mem::take(&mut self.evict_ids)
    }

    /// One non-blocking sweep over every prover: release due late
    /// frames, answer freshly-read challenges per the script, flush
    /// outboxes.
    fn service(&mut self, fabric: &mut Loopback) {
        if self.started.elapsed() >= self.late_at && !self.late_pending.is_empty() {
            for (idx, frame) in self.late_pending.drain(..) {
                assert!(
                    self.provers[idx].outbox.enqueue(&frame_stream(&frame)),
                    "late frame fits an empty queue"
                );
            }
        }

        for idx in 0..self.provers.len() {
            loop {
                let prover = &mut self.provers[idx];
                let Some(stream) = prover.stream.as_mut() else {
                    break;
                };
                match prover.deframer.next_frame() {
                    Ok(Some(request)) => {
                        let id = prover.id;
                        match prover.scenario {
                            Scenario::Honest => {
                                let resp = fabric.exchange(id, &request).expect("honest response");
                                assert!(self.provers[idx].outbox.enqueue(&frame_stream(&resp)));
                            }
                            Scenario::LateResponse => {
                                let resp = fabric.exchange(id, &request).expect("honest response");
                                self.late_pending.push((idx, resp));
                            }
                            Scenario::ReplayedEvidence => {
                                let frame = self.stale[&id].clone();
                                assert!(self.provers[idx].outbox.enqueue(&frame_stream(&frame)));
                            }
                            Scenario::BitFlippedFrame => {
                                let mut resp =
                                    fabric.exchange(id, &request).expect("honest response");
                                resp[ENVELOPE_PAYLOAD_AT] ^= 0x01; // corrupt the inner magic
                                assert!(self.provers[idx].outbox.enqueue(&frame_stream(&resp)));
                            }
                            Scenario::WrongDeviceEvidence => {
                                let resp = fabric.exchange(id, &request).expect("honest response");
                                let pid = self.partner[&id];
                                match self.swap_bank.remove(&pid) {
                                    // Both halves ready: each device
                                    // sends the *other's* payload
                                    // under its own id, on its own
                                    // connection.
                                    Some(partner_resp) => {
                                        let mine = cross_address(&resp, &partner_resp);
                                        let theirs = cross_address(&partner_resp, &resp);
                                        assert!(self.provers[idx]
                                            .outbox
                                            .enqueue(&frame_stream(&mine)));
                                        let pidx = self.index_of[&pid];
                                        assert!(self.provers[pidx]
                                            .outbox
                                            .enqueue(&frame_stream(&theirs)));
                                    }
                                    None => {
                                        self.swap_bank.insert(id, resp);
                                    }
                                }
                            }
                            // Evicted devices stay silently connected:
                            // their verdict comes from membership sync,
                            // never from this socket.
                            Scenario::DroppedResponse | Scenario::EvictMidRound => {}
                            Scenario::MidRoundHangup => {
                                // Challenge received: sever the
                                // connection without answering.
                                self.provers[idx].stream = None;
                            }
                            Scenario::ReconnectStorm => {
                                // Answer honestly, then hang up the
                                // moment the evidence is on the wire
                                // and dial straight back in.
                                let resp = fabric.exchange(id, &request).expect("honest response");
                                let prover = &mut self.provers[idx];
                                assert!(prover.outbox.enqueue(&frame_stream(&resp)));
                                prover.sever_after_drain = true;
                            }
                        }
                    }
                    Ok(None) => match pump_read(stream, &mut prover.deframer) {
                        ReadPump::Bytes(_) => {}
                        ReadPump::Idle => break,
                        ReadPump::Closed | ReadPump::Broken => {
                            prover.stream = None;
                            break;
                        }
                    },
                    Err(_) => {
                        prover.stream = None;
                        break;
                    }
                }
            }
            let prover = &mut self.provers[idx];
            if let Some(stream) = prover.stream.as_mut() {
                match prover.outbox.flush(stream) {
                    WritePump::Drained => {
                        if prover.sever_after_drain {
                            // The evidence bytes precede this FIN in
                            // stream order, so the device settles
                            // before the hangup could charge it.
                            prover.sever_after_drain = false;
                            prover.stream = None;
                            if let Some(dial) = self.redial.as_mut() {
                                if let Some(mut fresh) = dial() {
                                    fresh.prepare().expect("nonblocking prover stream");
                                    let prover = &mut self.provers[idx];
                                    prover.stream = Some(fresh);
                                    prover.deframer = StreamDeframer::new();
                                    prover.outbox = hello_outbox(prover.id);
                                }
                            }
                        }
                    }
                    WritePump::Blocked(_) => {}
                    WritePump::Closed | WritePump::Broken => prover.stream = None,
                }
            }
        }
    }
}

/// Which socket fabric a scripted runtime round runs over.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum GatewayTransport {
    /// One Unix socketpair per device, adopted into a detached runtime
    /// — no listener, no ports, maximum connection count.
    Socketpair,
    /// Real TCP: every device dials the runtime's ephemeral loopback
    /// listener, exercising accept and `TCP_NODELAY` configuration.
    Tcp,
}

/// A prover host for the runtime: builds one honestly-run ASAP device
/// per id (keys from `key_for`, a mid-`ER` button interrupt, run to its
/// done loop), calls `ready`, **announces** the devices with hello
/// frames so the runtime learns to route their challenges here, then
/// serves attestation frames on `stream` via
/// [`asap_fleet::serve_frames`] until the peer hangs up. Devices in
/// `silent` are built but never answer — the shape of a crashed or
/// partitioned prover.
///
/// Meant to run in its own thread (it models another process): the
/// socket integration tests, examples and the `fleet_throughput`
/// runtime series all host their fleets behind it, so the prover-side
/// loop exists in exactly one place. `ready` lets a bench separate
/// device construction from the timed round.
///
/// # Panics
///
/// When the image fails to link or a device fails to build/run.
pub fn host_gateway_provers<S: std::io::Read + std::io::Write>(
    mut stream: S,
    ids: &[DeviceId],
    key_for: impl Fn(DeviceId) -> Vec<u8>,
    silent: &[DeviceId],
    ready: impl FnOnce(),
) {
    let image = programs::fig4_authorized().expect("image links");
    let mut devices: HashMap<DeviceId, Device> = ids
        .iter()
        .map(|&id| {
            let mut device = Device::builder(&image)
                .mode(PoxMode::Asap)
                .key(&key_for(id))
                .build()
                .expect("device builds");
            device.run_steps(6);
            device.set_button(0, true); // async event mid-ER: ASAP shrugs
            assert!(
                device.run_until_pc(programs::done_pc(), 10_000),
                "device {id} must reach its done loop"
            );
            (id, device)
        })
        .collect();
    ready();
    if asap_fleet::announce_devices(&mut stream, ids).is_err() {
        return; // the runtime is already gone
    }
    let silent = silent.to_vec();
    asap_fleet::serve_frames(stream, move |id, envelope| {
        if silent.contains(&id) {
            return None;
        }
        let response = devices.get_mut(&id)?.attest_bytes(&envelope.payload).ok()?;
        Some(Envelope::wrap(id.0, response).to_bytes())
    });
}

/// The per-device key: first 16 bytes of `SHA-256(seed ‖ id)`. Public
/// so out-of-process prover hosts (the socket bench, examples) can
/// derive the same keys the harness enrolls.
pub fn device_key(seed: u64, id: DeviceId) -> Vec<u8> {
    let mut input = [0u8; 16];
    input[..8].copy_from_slice(&seed.to_le_bytes());
    input[8..].copy_from_slice(&id.0.to_le_bytes());
    sha256::digest(&input)[..16].to_vec()
}

/// Deterministic in-place Fisher–Yates driven by `rng`.
pub fn shuffle<T>(items: &mut [T], rng: &mut DetRng) {
    for i in (1..items.len()).rev() {
        items.swap(i, rng.below(i + 1));
    }
}

/// `donor`'s payload re-enveloped under `addressee`'s device id — the
/// mis-binding forgery shape, shared with the property suites so the
/// envelope layout is encoded in exactly one place.
///
/// # Panics
///
/// When either frame is not a well-formed envelope.
pub fn cross_address(addressee: &[u8], donor: &[u8]) -> Vec<u8> {
    let to = Envelope::from_bytes(addressee).expect("well-formed frame");
    let from = Envelope::from_bytes(donor).expect("well-formed frame");
    Envelope::wrap(to.device_id, from.payload).to_bytes()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn rng_is_deterministic_and_spread() {
        let (mut a, mut b) = (DetRng::new(7), DetRng::new(7));
        let xs: Vec<u64> = (0..8).map(|_| a.next_u64()).collect();
        let ys: Vec<u64> = (0..8).map(|_| b.next_u64()).collect();
        assert_eq!(xs, ys);
        assert!(xs.windows(2).any(|w| w[0] != w[1]));
    }

    #[test]
    fn rng_has_no_dead_seed() {
        // The whitening constant XORs its own value to zero, which is
        // the xorshift fixpoint; the remap must keep the stream alive.
        let mut rng = DetRng::new(0x9E37_79B9_7F4A_7C15);
        assert!((0..8).any(|_| rng.next_u64() != 0));
    }

    #[test]
    fn small_mixed_round_reaches_exact_verdicts() {
        let mix = ScenarioMix {
            honest: 4,
            replay: 2,
            bit_flip: 2,
            mis_bind: 2,
            late: 2,
            dropped: 2,
            hangup: 2,
            evict: 2,
            reconnect: 2,
        };
        let mut harness = ScenarioHarness::build(11, &mix);
        let report = harness.run_round();
        assert!(report.misjudged().is_empty(), "{:?}", report.misjudged());
        assert_eq!(
            report.verified(),
            8,
            "honest + late-but-in-time + reconnect (loopback: honest)"
        );
        assert_eq!(
            report.count(Scenario::EvictMidRound, |r| matches!(
                r,
                Err(FleetError::Evicted(_))
            )),
            2,
            "mid-round eviction is a typed verdict, not NoResponse limbo"
        );
        assert_eq!(harness.fleet().in_flight(), 0);
    }

    #[test]
    fn same_seed_same_fleet_same_verdicts() {
        let mix = ScenarioMix {
            honest: 3,
            replay: 1,
            bit_flip: 1,
            mis_bind: 2,
            late: 1,
            dropped: 1,
            hangup: 1,
            evict: 1,
            reconnect: 1,
        };
        let a = ScenarioHarness::build(99, &mix).run_round();
        let b = ScenarioHarness::build(99, &mix).run_round();
        assert_eq!(a.entries, b.entries);
    }
}
