//! The fleet runtime: the one socket driver. Reactor threads and the
//! accept supervisor, owned **across** rounds.
//!
//! A [`FleetRuntime`] owns a listening socket (or none, for socketpair
//! fabrics fed through [`adopt`](FleetRuntime::adopt)) plus every
//! accepted prover connection, and judges them all through sans-IO
//! [`RoundEngine`](crate::RoundEngine)s. It pays its setup cost once:
//!
//! * **Persistent reactors.** Each reactor thread ([`crate::reactor`])
//!   is spawned at construction, owns its connection slab for life, and
//!   *parks* on its mail inbox between rounds. A round arrives as a
//!   `Begin` descriptor over the same channel that carries cross-reactor
//!   mail; per-round scratch — deframers, write queues, the inbound
//!   evidence batch, the transmit staging buffer, the cohort partition
//!   vectors — is reused, not reallocated.
//! * **Inline conclusion.** Each reactor concludes the evidence its
//!   sweep gathered itself, in input order, straight into the awaiting
//!   engine. Its devices live in registry shards no other reactor
//!   touches, so the runtime's parallelism is its reactor count, and no
//!   round spawns or wakes another thread.
//! * **Pacing.** While epochs are in flight, a sweep that made no
//!   progress is followed by a nap on the reactor's inbox, as long as
//!   the reactor has already been idle, clamped to 10–250 µs
//!   (`NAP_MIN`, `NAP_MAX`). A reactor that just saw progress thus
//!   re-sweeps within tens of microseconds, overshooting the end of a
//!   prover's burst by at most one short nap, while a silent fleet
//!   costs a few sweeps per millisecond instead of a spinning core.
//!   Mail ends a nap at once; sockets cannot, because a
//!   [`GatewayConn`] exposes no readiness to wait on.
//! * **Accept supervision.** The runtime owns the listener; the driver
//!   thread accepts and hands off connections round-robin whenever it
//!   waits on epoch completions.
//!
//! Wall-clock budgets map onto engine ticks via
//! [`RoundConfig::realtime`](crate::RoundConfig::realtime): the clock
//! lives in the reactors, the engines only ever see logical time.
//!
//! # Pipelined epochs
//!
//! [`submit_round`](FleetRuntime::submit_round) returns a ticket
//! without waiting for settlement, so a scheduler can keep up to
//! [`depth`](FleetRuntime::depth) epochs in flight: epoch N+1's
//! challenges go out while epoch N's stragglers drain toward their
//! deadlines. Each reactor multiplexes the in-flight epochs in its one
//! sweep loop — separate engines, separate round clocks, one connection
//! slab. Per-epoch reports stay byte-identical across reactor counts
//! *and* pipeline depths because every outcome is charged to the epoch
//! that challenged its device (cohorts in flight are disjoint — see
//! [`LifecycleConfig::pipeline_window`](crate::LifecycleConfig)), and
//! the per-reactor partials merge canonically.
//!
//! Verdict attribution under churn follows the engines: an eviction
//! landing while several epochs are in flight settles as
//! [`FleetError::Evicted`] in the single epoch that was awaiting the
//! device, and nowhere else — including a leave that lands after
//! [`submit_round`](FleetRuntime::submit_round) but before a reactor
//! began the epoch.

use crate::error::FleetError;
use crate::reactor::{
    merge_reports, ReactorMsg, ReactorRun, ReactorState, ReactorStats, RoundStart, Route,
};
use crate::registry::FleetVerifier;
use crate::round::RoundReport;
use crate::DeviceId;
use std::collections::{HashMap, HashSet, VecDeque};
use std::io::{self, ErrorKind, Read, Write};
use std::marker::PhantomData;
use std::net::{TcpListener, TcpStream};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::mpsc::{self, Receiver, Sender};
use std::sync::{Arc, Mutex};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

/// A peer byte stream the runtime can service without ever blocking on
/// it.
pub trait GatewayConn: Read + Write {
    /// Puts the stream into non-blocking mode (and applies any
    /// transport-specific tuning, like `TCP_NODELAY`). Called once when
    /// the connection enters the runtime.
    ///
    /// # Errors
    ///
    /// Any configure error from the socket layer.
    fn prepare(&mut self) -> io::Result<()>;
}

impl GatewayConn for TcpStream {
    fn prepare(&mut self) -> io::Result<()> {
        self.set_nonblocking(true)?;
        // Challenges and evidence are small back-to-back frames; Nagle
        // + delayed ACKs would add ~40 ms per exchange.
        self.set_nodelay(true)
    }
}

#[cfg(unix)]
impl GatewayConn for std::os::unix::net::UnixStream {
    fn prepare(&mut self) -> io::Result<()> {
        self.set_nonblocking(true)
    }
}

/// A listening socket the runtime can poll without blocking.
pub trait GatewayListener {
    /// The accepted connection type.
    type Conn: GatewayConn;

    /// Puts the listener into non-blocking mode. Called once when the
    /// runtime takes ownership.
    ///
    /// # Errors
    ///
    /// Any configure error from the socket layer.
    fn prepare(&mut self) -> io::Result<()>;

    /// Accepts one pending connection, or `None` when nobody is
    /// waiting right now.
    ///
    /// # Errors
    ///
    /// Any accept error other than "no connection pending".
    fn poll_accept(&mut self) -> io::Result<Option<Self::Conn>>;
}

/// The accept outcome both std listeners share: a pending connection,
/// "nobody waiting", or a real error.
fn accepted<C, A>(result: io::Result<(C, A)>) -> io::Result<Option<C>> {
    match result {
        Ok((conn, _)) => Ok(Some(conn)),
        Err(e) if matches!(e.kind(), ErrorKind::WouldBlock | ErrorKind::Interrupted) => Ok(None),
        Err(e) => Err(e),
    }
}

impl GatewayListener for TcpListener {
    type Conn = TcpStream;

    fn prepare(&mut self) -> io::Result<()> {
        self.set_nonblocking(true)
    }

    fn poll_accept(&mut self) -> io::Result<Option<TcpStream>> {
        accepted(self.accept())
    }
}

#[cfg(unix)]
impl GatewayListener for std::os::unix::net::UnixListener {
    type Conn = std::os::unix::net::UnixStream;

    fn prepare(&mut self) -> io::Result<()> {
        self.set_nonblocking(true)
    }

    fn poll_accept(&mut self) -> io::Result<Option<Self::Conn>> {
        accepted(self.accept())
    }
}

/// The "nobody ever dials in" listener, for runtimes fed purely through
/// [`FleetRuntime::adopt`] — socketpair fabrics in tests and benches.
pub struct NoListener<C>(PhantomData<C>);

impl<C: GatewayConn> GatewayListener for NoListener<C> {
    type Conn = C;

    fn prepare(&mut self) -> io::Result<()> {
        Ok(())
    }

    fn poll_accept(&mut self) -> io::Result<Option<C>> {
        Ok(None)
    }
}

/// The shortest idle nap: a reactor that just saw progress re-sweeps
/// this soon.
const NAP_MIN: Duration = Duration::from_micros(10);

/// The longest idle nap, and so the most a silent socket's first bytes
/// wait for a sweep.
const NAP_MAX: Duration = Duration::from_micros(250);

/// One epoch's completion, mailed from a reactor to the driver: the
/// reactor's partial report, its cohort partition for recycling, and a
/// stats snapshot.
struct EpochDone {
    reactor: usize,
    epoch: u64,
    report: RoundReport,
    cohort: Vec<DeviceId>,
    stats: ReactorStats,
}

/// An epoch submitted but not yet merged: the canonical challenge
/// order plus the per-reactor partial results as they arrive.
struct PendingEpoch {
    epoch: u64,
    order: Vec<DeviceId>,
    partials: Vec<Option<RoundReport>>,
    received: usize,
}

impl PendingEpoch {
    fn complete(&self) -> bool {
        self.received == self.partials.len()
    }
}

/// The long-lived socket driver of a fleet. See the [module
/// docs](self) for the architecture; construction is
/// [`over`](FleetRuntime::over) / [`detached`](FleetRuntime::detached)
/// / [`bind_tcp`](FleetRuntime::bind_tcp), driving is
/// [`run_round`](FleetRuntime::run_round) for the drop-in serial shape
/// or [`submit_round`](FleetRuntime::submit_round) +
/// [`wait_round`](FleetRuntime::wait_round) for pipelined epochs.
///
/// Dropping the runtime shuts everything down: reactors are told to
/// exit and every thread is joined.
pub struct FleetRuntime<L: GatewayListener>
where
    L::Conn: Send + 'static,
{
    fleet: Arc<FleetVerifier>,
    listener: Option<L>,
    mates: Vec<Sender<ReactorMsg<L::Conn>>>,
    reactor_handles: Vec<JoinHandle<()>>,
    done_rx: Receiver<EpochDone>,
    route: Arc<Mutex<HashMap<DeviceId, Route>>>,
    next_reactor: usize,
    accepted_total: u64,
    accept_errors: u64,
    /// Bound on in-flight epochs; `submit_round` blocks (supervising
    /// accepts) once the window is full.
    depth: usize,
    next_epoch: u64,
    /// Epochs submitted anywhere but not yet fully reported, shared
    /// with every reactor: a reactor may only park on its inbox while
    /// this is zero — its connections can carry *another* reactor's
    /// challenges and responses, so finishing its own partition is not
    /// license to stop servicing sockets.
    live_epochs: Arc<AtomicUsize>,
    pending: VecDeque<PendingEpoch>,
    merged: HashMap<u64, RoundReport>,
    stats: Vec<ReactorStats>,
    /// Cohort partition vectors handed back by finished epochs, reused
    /// by the next submission.
    partition_pool: Vec<Vec<DeviceId>>,
}

impl FleetRuntime<TcpListener> {
    /// Binds a TCP listener and builds a persistent runtime over
    /// `reactors` reactor threads with pipeline window `depth`.
    ///
    /// # Errors
    ///
    /// Any bind/configure error from the socket layer.
    pub fn bind_tcp(
        addr: impl std::net::ToSocketAddrs,
        fleet: Arc<FleetVerifier>,
        reactors: usize,
        depth: usize,
    ) -> io::Result<FleetRuntime<TcpListener>> {
        FleetRuntime::over(TcpListener::bind(addr)?, fleet, reactors, depth)
    }
}

impl<C: GatewayConn + Send + 'static> FleetRuntime<NoListener<C>> {
    /// A runtime with no listening socket: every connection enters via
    /// [`adopt`](FleetRuntime::adopt). The vehicle for socketpair
    /// fabrics in tests and benches.
    pub fn detached(
        fleet: Arc<FleetVerifier>,
        reactors: usize,
        depth: usize,
    ) -> FleetRuntime<NoListener<C>> {
        FleetRuntime::build(None, fleet, reactors, depth)
    }
}

impl<L: GatewayListener> FleetRuntime<L>
where
    L::Conn: Send + 'static,
{
    /// Takes ownership of a listening socket (switched to non-blocking
    /// mode) and builds a persistent runtime over `reactors` reactor
    /// threads with pipeline window `depth` (both clamped to ≥ 1).
    ///
    /// # Errors
    ///
    /// Any configure error from the socket layer.
    pub fn over(
        mut listener: L,
        fleet: Arc<FleetVerifier>,
        reactors: usize,
        depth: usize,
    ) -> io::Result<FleetRuntime<L>> {
        listener.prepare()?;
        Ok(FleetRuntime::build(Some(listener), fleet, reactors, depth))
    }

    fn build(
        listener: Option<L>,
        fleet: Arc<FleetVerifier>,
        reactors: usize,
        depth: usize,
    ) -> FleetRuntime<L> {
        let reactors = reactors.max(1);
        let depth = depth.max(1);
        let route = Arc::new(Mutex::new(HashMap::new()));
        let (done_tx, done_rx) = mpsc::channel();
        let (mates, inboxes): (Vec<Sender<ReactorMsg<L::Conn>>>, Vec<_>) =
            (0..reactors).map(|_| mpsc::channel()).unzip();

        let live_epochs = Arc::new(AtomicUsize::new(0));
        let reactor_handles = inboxes
            .into_iter()
            .enumerate()
            .map(|(me, inbox)| {
                let fleet = Arc::clone(&fleet);
                let route = Arc::clone(&route);
                let mates = mates.clone();
                let done = done_tx.clone();
                let live = Arc::clone(&live_epochs);
                std::thread::spawn(move || {
                    run_reactor_persistent(
                        me, reactors, &fleet, &route, &mates, &inbox, &done, &live,
                    );
                })
            })
            .collect();

        FleetRuntime {
            fleet,
            listener,
            mates,
            reactor_handles,
            done_rx,
            route,
            next_reactor: 0,
            accepted_total: 0,
            accept_errors: 0,
            depth,
            next_epoch: 0,
            live_epochs,
            pending: VecDeque::new(),
            merged: HashMap::new(),
            stats: vec![ReactorStats::default(); reactors],
            partition_pool: Vec::new(),
        }
    }

    /// The shared registry this runtime serves.
    pub fn fleet(&self) -> &Arc<FleetVerifier> {
        &self.fleet
    }

    /// The owned listener, for callers that need its identity — say,
    /// the ephemeral port a `bind_tcp("127.0.0.1:0", …)` runtime landed
    /// on.
    pub fn listener(&self) -> Option<&L> {
        self.listener.as_ref()
    }

    /// Number of persistent reactor threads.
    pub fn reactors(&self) -> usize {
        self.mates.len()
    }

    /// The pipeline window: how many epochs may be in flight at once.
    pub fn depth(&self) -> usize {
        self.depth
    }

    /// Epochs submitted but not yet fully reported.
    pub fn in_flight_epochs(&self) -> usize {
        self.pending.len()
    }

    /// Number of devices with a known connection.
    pub fn routed_devices(&self) -> usize {
        self.route.lock().unwrap().len()
    }

    /// Connections accepted or adopted so far.
    pub fn accepted_connections(&self) -> u64 {
        self.accepted_total
    }

    /// Accept attempts that failed with an error.
    pub fn accept_errors(&self) -> u64 {
        self.accept_errors
    }

    /// Per-reactor counters as of each reactor's most recent epoch
    /// completion (reactors own their slabs, so live counters would
    /// mean cross-thread locking on the hot path).
    pub fn reactor_stats(&self) -> Vec<ReactorStats> {
        self.stats.clone()
    }

    /// Live connections across all reactors, as of each reactor's most
    /// recent epoch completion.
    pub fn connections(&self) -> usize {
        self.stats.iter().map(|s| s.connections).sum()
    }

    /// Hands the runtime an already-connected stream (switched to
    /// non-blocking mode), assigned to the next reactor round-robin.
    /// Safe mid-epoch: the reactor adopts it on its next sweep.
    ///
    /// # Errors
    ///
    /// Any configure error from the socket layer.
    pub fn adopt(&mut self, mut conn: L::Conn) -> io::Result<()> {
        conn.prepare()?;
        self.accepted_total += 1;
        let _ = self.mates[self.next_reactor].send(ReactorMsg::Conn(conn));
        self.next_reactor = (self.next_reactor + 1) % self.mates.len();
        Ok(())
    }

    /// Accepts every connection currently waiting on the listener.
    /// Returns how many entered the runtime. The wait loops accept
    /// continuously; calling this directly is only needed to pre-accept
    /// before the first round.
    pub fn accept_pending(&mut self) -> usize {
        let mut accepted = 0;
        while let Some(listener) = self.listener.as_mut() {
            match listener.poll_accept() {
                Ok(Some(conn)) => match self.adopt(conn) {
                    Ok(()) => accepted += 1,
                    Err(_) => self.accept_errors += 1,
                },
                Ok(None) => break,
                Err(_) => {
                    self.accept_errors += 1;
                    break;
                }
            }
        }
        accepted
    }

    /// Submits one epoch round over `ids` and returns its ticket
    /// without waiting for settlement. When the pipeline window is
    /// already full, blocks — supervising accepts — until the oldest
    /// in-flight epoch completes.
    ///
    /// # Errors
    ///
    /// [`FleetError::UnknownDevice`] when an id is not enrolled (no
    /// challenge is issued, nothing is submitted).
    pub fn submit_round(&mut self, ids: &[DeviceId], budget: Duration) -> Result<u64, FleetError> {
        // Validate and dedupe globally before any challenge is issued.
        let mut seen = HashSet::new();
        let mut order = Vec::new();
        for &id in ids {
            if !self.fleet.is_registered(id) {
                return Err(FleetError::UnknownDevice(id));
            }
            if seen.insert(id) {
                order.push(id);
            }
        }

        while self.pending.len() >= self.depth {
            self.pump(true);
        }

        let n = self.mates.len();
        let mut partitions: Vec<Vec<DeviceId>> = (0..n)
            .map(|_| {
                let mut p = self.partition_pool.pop().unwrap_or_default();
                p.clear();
                p
            })
            .collect();
        for &id in &order {
            partitions[self.fleet.reactor_of(id, n)].push(id);
        }

        let epoch = self.next_epoch;
        self.next_epoch += 1;
        // Raised before any Begin is mailed, so no reactor can observe
        // its own empty partition settle and park while a sibling's
        // partition still needs this reactor's sockets.
        self.live_epochs.fetch_add(1, Ordering::Release);
        let started = Instant::now();
        for (mate, partition) in self.mates.iter().zip(partitions) {
            let _ = mate.send(ReactorMsg::Begin(RoundStart {
                epoch,
                partition,
                budget,
                started,
            }));
        }
        self.pending.push_back(PendingEpoch {
            epoch,
            order,
            partials: (0..n).map(|_| None).collect(),
            received: 0,
        });
        Ok(epoch)
    }

    /// Blocks — supervising accepts — until the epoch behind `ticket`
    /// has settled on every reactor, then merges its partial reports
    /// canonically (challenge order first, leftovers grouped by reactor
    /// index).
    ///
    /// Completions are cached, so tickets may be awaited in any order.
    ///
    /// # Errors
    ///
    /// [`FleetError::UnknownDevice`] for a ticket never submitted (or
    /// already collected).
    pub fn wait_round(&mut self, ticket: u64) -> Result<RoundReport, FleetError> {
        loop {
            if let Some(report) = self.merged.remove(&ticket) {
                return Ok(report);
            }
            if !self.pending.iter().any(|p| p.epoch == ticket) {
                return Err(FleetError::UnknownDevice(DeviceId(ticket)));
            }
            self.pump(true);
        }
    }

    /// Submits one round and waits for its report — the serial,
    /// depth-agnostic way to drive the runtime.
    ///
    /// # Errors
    ///
    /// [`FleetError::UnknownDevice`] when an id is not enrolled.
    pub fn run_round(
        &mut self,
        ids: &[DeviceId],
        budget: Duration,
    ) -> Result<RoundReport, FleetError> {
        let ticket = self.submit_round(ids, budget)?;
        self.wait_round(ticket)
    }

    /// One supervision step: accept pending connections, absorb every
    /// epoch completion the reactors have mailed, and merge any epoch
    /// that is now fully reported. With `block`, sleeps in the done
    /// channel until *something* arrives — never spins: on a loaded
    /// (or single-core) host, a busy-waiting driver steals exactly the
    /// cycles the reactors need to finish the epoch it is waiting for.
    fn pump(&mut self, block: bool) {
        loop {
            let mut progressed = self.accept_pending() > 0;
            while let Ok(done) = self.done_rx.try_recv() {
                progressed = true;
                self.absorb_done(done);
            }
            self.merge_completed();
            if !block || progressed {
                return;
            }
            if self.listener.is_some() {
                // Accepts need supervising too: sleep in short slices,
                // sweeping the listener between them.
                match self.done_rx.recv_timeout(Duration::from_millis(1)) {
                    Ok(done) => {
                        self.absorb_done(done);
                        self.merge_completed();
                        return;
                    }
                    Err(mpsc::RecvTimeoutError::Timeout) => continue,
                    Err(mpsc::RecvTimeoutError::Disconnected) => return,
                }
            } else {
                // Nothing to accept: block outright. The reactors hold
                // the sending half for the runtime's whole life, and a
                // blocked wait here always has an epoch in flight
                // (`pending` non-empty), whose deadline bounds the
                // recv.
                match self.done_rx.recv() {
                    Ok(done) => {
                        self.absorb_done(done);
                        self.merge_completed();
                        return;
                    }
                    Err(_) => return,
                }
            }
        }
    }

    fn absorb_done(&mut self, done: EpochDone) {
        self.stats[done.reactor] = done.stats;
        if !done.cohort.is_empty() || done.cohort.capacity() > 0 {
            self.partition_pool.push(done.cohort);
        }
        if let Some(p) = self.pending.iter_mut().find(|p| p.epoch == done.epoch) {
            if p.partials[done.reactor].is_none() {
                p.received += 1;
                if p.complete() {
                    self.live_epochs.fetch_sub(1, Ordering::Release);
                }
            }
            p.partials[done.reactor] = Some(done.report);
        }
    }

    /// Merges every fully-reported epoch into the `merged` cache, in
    /// whatever order they completed (a deep pipeline may settle a
    /// later epoch first), so `wait_round(ticket)` terminates.
    fn merge_completed(&mut self) {
        let mut i = 0;
        while i < self.pending.len() {
            if self.pending[i].complete() {
                let p = self.pending.remove(i).expect("index in bounds");
                self.merged.insert(p.epoch, Self::merge_epoch(p));
            } else {
                i += 1;
            }
        }
    }

    fn merge_epoch(p: PendingEpoch) -> RoundReport {
        let reports = p
            .partials
            .into_iter()
            .map(|partial| partial.expect("complete epochs have every partial"))
            .collect();
        merge_reports(&p.order, reports)
    }
}

impl<L: GatewayListener> Drop for FleetRuntime<L>
where
    L::Conn: Send + 'static,
{
    fn drop(&mut self) {
        for mate in &self.mates {
            let _ = mate.send(ReactorMsg::Shutdown);
        }
        self.mates.clear();
        for handle in self.reactor_handles.drain(..) {
            let _ = handle.join();
        }
    }
}

/// One persistent reactor thread: park on the inbox between epochs,
/// multiplex every in-flight epoch while there are any, and mail each
/// finished epoch's partial report to the driver.
///
/// Parking is gated on the *fleet-wide* `live` epoch count, not this
/// reactor's own: a connection adopted here can carry challenges and
/// responses for devices owned by a sibling reactor, so this reactor
/// must keep sweeping its sockets until every in-flight epoch — not
/// just its own partition — has reported.
#[allow(clippy::too_many_arguments)]
fn run_reactor_persistent<C: GatewayConn>(
    me: usize,
    reactors: usize,
    fleet: &Arc<FleetVerifier>,
    route: &Arc<Mutex<HashMap<DeviceId, Route>>>,
    mates: &[Sender<ReactorMsg<C>>],
    inbox: &Receiver<ReactorMsg<C>>,
    done: &Sender<EpochDone>,
    live: &Arc<AtomicUsize>,
) {
    let mut state: ReactorState<C> = ReactorState::new();
    let mut run = ReactorRun::new(me, reactors, fleet, &mut state, route, mates);

    let mut last_progress = Instant::now();
    loop {
        if run.engines.is_empty()
            && run.pending_begins.is_empty()
            && !run.shutdown
            && live.load(Ordering::Acquire) == 0
        {
            // Park between rounds: the thread sleeps in `recv` until
            // the driver mails a round, a connection, or a shutdown.
            // Every submission mails a Begin to every reactor, so a
            // parked reactor always wakes when the fleet goes live.
            match inbox.recv() {
                Ok(msg) => run.absorb(msg),
                Err(_) => return, // the runtime is gone
            }
            last_progress = Instant::now();
        }
        run.progressed = false;
        run.drain_inbox(inbox);
        if run.shutdown {
            return;
        }
        run.start_pending_epochs();
        run.pump_transmits();
        run.sweep_reads();
        run.conclude_inbound();
        run.apply_charges();
        run.sync_membership_all();
        run.sweep_writes_and_reap();
        run.tick_all();
        for (epoch, report, cohort) in run.harvest_settled() {
            let _ = done.send(EpochDone {
                reactor: me,
                epoch,
                report,
                cohort,
                stats: run.state.stats(),
            });
        }
        // Pace even with no local engines: the fleet is live (otherwise
        // we would have parked above), so this reactor is only lending
        // its sockets to siblings.
        if run.progressed {
            last_progress = Instant::now();
        } else {
            // Nap as long as we have been idle, on the inbox rather
            // than in a sleep: sockets can only be polled, but mail
            // (above all the next epoch's `Begin`) must not wait out
            // the nap.
            let nap = last_progress.elapsed().clamp(NAP_MIN, NAP_MAX);
            match inbox.recv_timeout(nap) {
                Ok(msg) => {
                    run.absorb(msg);
                    last_progress = Instant::now();
                }
                Err(mpsc::RecvTimeoutError::Timeout) => {}
                Err(mpsc::RecvTimeoutError::Disconnected) => return,
            }
        }
    }
}
