//! The reactor threads of a [`FleetRuntime`](crate::FleetRuntime):
//! each one owns a slab of prover connections and its partition of
//! every in-flight epoch, and the per-reactor partial reports merge
//! into one canonical [`RoundReport`].
//!
//! * **Reactors.** Each reactor thread owns a disjoint slab of
//!   connections (accepted sockets are handed off round-robin) *and* a
//!   disjoint partition of each epoch's challenged devices — its own
//!   [`RoundEngine`] per epoch over the already-sharded
//!   [`FleetVerifier`] registry. Device→reactor affinity rides the
//!   registry shard hash ([`FleetVerifier::reactor_of`]), so two
//!   reactors never conclude into the same registry shard.
//! * **Connections.** Every accepted prover connection gets its own
//!   deframer and bounded [`WriteQueue`](crate::WriteQueue), and is
//!   serviced strictly without blocking: a partial write leaves bytes
//!   queued (`WouldBlock` is backpressure, never a wedged loop), and a
//!   connection that hangs up, breaks, overflows its write queue,
//!   floods the route map past [`MAX_ROUTED_PER_CONN`], or poisons its
//!   deframer with an oversized frame is dropped.
//!
//! # Routing and hellos
//!
//! Devices are **not pinned to a connection**: every inbound
//! [`Envelope`] names a device id, and the reactors remember "frames
//! from device *d* arrived on connection *c*" (last arrival wins) in
//! one shared route map. An envelope with an **empty payload** is a
//! *hello*: routing information only, recorded and never judged —
//! [`announce_devices`](crate::announce_devices) sends one per hosted
//! device right after connecting. Challenges for devices with no known
//! connection are parked until a hello (or any frame) reveals one; a
//! device that never connects simply expires at its deadline.
//!
//! A dropped connection charges every device whose challenge was
//! *delivered* on it and is still awaited
//! [`FleetError::NoResponse`](crate::FleetError::NoResponse) on the
//! spot, because its path to the verifier is gone. Charging keys on
//! the delivery record rather than the (hello-controlled, last-wins)
//! route map, so a connection cannot falsify the verdict of a device
//! it never carried by announcing that device's id and hanging up.
//!
//! # Cross-reactor routing
//!
//! A device's *connection* may be serviced by a different reactor than
//! the one that owns its *round state* — hellos route devices to
//! whatever connection they dial in on, while affinity is a pure hash.
//! The two reactors cooperate over per-reactor inboxes
//! (unbounded mpsc channels):
//!
//! * the device's owner sends the framed challenge to the connection's
//!   reactor (`Deliver`), which queues it on the peer's write queue and
//!   records the delivery for hangup charging;
//! * the connection's reactor forwards inbound evidence frames to the
//!   owner (`Evidence`), which concludes them in its own engine;
//! * a newly revealed route (`Routed`), a failed delivery (`Park`) and
//!   a dead connection that carried a delivered challenge (`Charge`)
//!   travel the same way, so parked-challenge delivery and
//!   hangup-equals-`NoResponse` semantics survive the sharding.
//!
//! Frames whose envelope does not decode carry no device id and are
//! judged by whichever reactor read them.
//!
//! # Determinism
//!
//! Each partial report is settlement-ordered, which depends on I/O
//! interleaving across threads. The merge therefore re-canonicalizes:
//! outcomes for challenged devices are emitted in **challenge order**
//! (the deduplicated input id order, each device's outcomes in its
//! owner's local order), followed by outcomes that belong to no
//! challenged device — unattributable frames and unsolicited evidence —
//! grouped by reactor index. Rounds in which each device settles once
//! (the common case: one response or one expiry per challenge) produce
//! a report that is byte-for-byte independent of the reactor count and
//! of thread interleaving.
//!
//! The wall-clock budget maps onto engine ticks via
//! [`RoundConfig::realtime`] — rounded **up** to whole milliseconds,
//! never below one tick — with every reactor sharing the epoch's round
//! clock.

use crate::engine::{LogicalTime, RoundConfig, RoundEngine};
use crate::registry::FleetVerifier;
use crate::round::{RoundOutcome, RoundReport};
use crate::runtime::GatewayConn;
use crate::stream::{pump_read, ReadPump, WritePump, WriteQueue};
use crate::DeviceId;
use apex_pox::wire::{frame_stream, Envelope, StreamDeframer};
use std::collections::{HashMap, HashSet};
use std::sync::mpsc::{Receiver, Sender};
use std::sync::Mutex;
use std::time::{Duration, Instant};

/// One accepted prover connection: its stream, receive framing state,
/// and bounded transmit queue.
pub(crate) struct Peer<C> {
    pub(crate) stream: C,
    pub(crate) deframer: StreamDeframer,
    pub(crate) outbox: WriteQueue,
    /// Devices currently routed to this connection, bounded by
    /// [`MAX_ROUTED_PER_CONN`] so a hostile peer cannot grow the route
    /// map without bound by announcing fabricated ids.
    pub(crate) routed: usize,
    /// Set when the connection must be reaped: EOF, I/O error, a
    /// poisoned deframer, an overflowing write queue, or a route flood.
    pub(crate) dead: bool,
}

impl<C: GatewayConn> Peer<C> {
    pub(crate) fn new(stream: C) -> Peer<C> {
        Peer {
            stream,
            deframer: StreamDeframer::new(),
            outbox: WriteQueue::default(),
            routed: 0,
            dead: false,
        }
    }
}

/// How many devices one connection may claim to host. Real prover
/// hosts carrying thousands of devices fit comfortably; a peer
/// streaming fabricated hellos to bloat the route map is dropped when
/// it crosses the bound.
pub const MAX_ROUTED_PER_CONN: usize = 4096;

/// Where a device was last heard from: which reactor services the
/// connection, and the connection's slot in that reactor's slab.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) struct Route {
    pub(crate) reactor: usize,
    pub(crate) slot: usize,
}

/// Cross-reactor mail. Every variant is fire-and-forget: a message to a
/// reactor that already stopped is simply dropped.
pub(crate) enum ReactorMsg<C> {
    /// A freshly accepted connection, handed off by the supervisor.
    Conn(C),
    /// Owner → connection reactor: queue this framed challenge on the
    /// connection at `slot` (re-checked against the live route, so a
    /// challenge in flight during a re-route is bounced back rather
    /// than delivered to a stranger).
    Deliver {
        device: DeviceId,
        slot: usize,
        framed: Vec<u8>,
    },
    /// Connection reactor → owner: delivery failed; re-park (or chase
    /// the fresher route) if the device is still awaited.
    Park { device: DeviceId, framed: Vec<u8> },
    /// Connection reactor → owner: an evidence frame for one of the
    /// owner's devices.
    Evidence(Vec<u8>),
    /// Connection reactor → owner: the device just revealed (or moved)
    /// its route; a parked challenge can be delivered now.
    Routed(DeviceId),
    /// Connection reactor → owner: a dead connection carried this
    /// device's delivered challenge — charge it
    /// [`FleetError::NoResponse`](crate::FleetError::NoResponse).
    Charge(DeviceId),
    /// The route that pointed at this reactor's `slot` moved to another
    /// connection; drop one from the slot's flood counter.
    Unroute { slot: usize },
    /// Runtime → reactor: begin this epoch's round over the reactor's
    /// partition.
    Begin(RoundStart),
    /// Runtime → reactor: exit the thread.
    Shutdown,
}

/// One epoch's round descriptor, mailed to a persistent reactor by
/// [`FleetRuntime`](crate::FleetRuntime).
pub(crate) struct RoundStart {
    pub(crate) epoch: u64,
    pub(crate) partition: Vec<DeviceId>,
    pub(crate) budget: Duration,
    /// The shared round clock, stamped once by the submitter so every
    /// reactor maps the wall-clock budget onto the same tick origin.
    pub(crate) started: Instant,
}

/// One in-flight epoch inside a reactor: its engine plus the clock the
/// budget is measured against. A reactor multiplexes several of these
/// when epochs are pipelined.
pub(crate) struct EpochRun<'run> {
    pub(crate) epoch: u64,
    pub(crate) engine: RoundEngine<'run>,
    pub(crate) started: Instant,
    /// The partition this epoch was begun over, handed back to the
    /// runtime with the finished report so the driver can recycle the
    /// allocation for a later epoch.
    pub(crate) cohort: Vec<DeviceId>,
}

/// One reactor's persistent half: its connection slab and per-epoch
/// routing residue, owned by the reactor thread for life.
pub(crate) struct ReactorState<C> {
    pub(crate) conns: Vec<Option<Peer<C>>>,
    /// Framed challenges for owned devices with no usable route yet,
    /// at most one per device (a re-challenge supersedes the session),
    /// pruned when the epoch that parked them finishes.
    pub(crate) parked: HashMap<DeviceId, Vec<u8>>,
    /// Which local slot each device's challenge was actually sent on —
    /// hangup charging keys on this, never on the (hello-controlled,
    /// last-wins) route map. Pruned like `parked`.
    pub(crate) delivered: HashMap<DeviceId, usize>,
    pub(crate) dropped_total: u64,
    /// Hello frames this reactor read for devices the registry has
    /// never enrolled ([`ReactorStats::unknown_device_hellos`]).
    pub(crate) unknown_hellos: u64,
    /// Outcomes this reactor's partial report contributed last round.
    pub(crate) last_outcomes: usize,
}

impl<C: GatewayConn> ReactorState<C> {
    pub(crate) fn new() -> ReactorState<C> {
        ReactorState {
            conns: Vec::new(),
            parked: HashMap::new(),
            delivered: HashMap::new(),
            dropped_total: 0,
            unknown_hellos: 0,
            last_outcomes: 0,
        }
    }

    /// Slots a prepared connection into the slab, reusing holes.
    pub(crate) fn adopt(&mut self, conn: C) {
        let peer = Peer::new(conn);
        match self.conns.iter().position(Option::is_none) {
            Some(slot) => self.conns[slot] = Some(peer),
            None => self.conns.push(Some(peer)),
        }
    }

    fn connections(&self) -> usize {
        self.conns.iter().filter(|c| c.is_some()).count()
    }

    /// Point-in-time counters, snapshotted into every epoch completion
    /// message so the runtime driver can serve
    /// [`ReactorStats`] without reaching into reactor threads.
    pub(crate) fn stats(&self) -> ReactorStats {
        ReactorStats {
            connections: self.connections(),
            dropped_connections: self.dropped_total,
            unknown_device_hellos: self.unknown_hellos,
            last_round_outcomes: self.last_outcomes,
        }
    }
}

/// A point-in-time view of one reactor, for operators and benches.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct ReactorStats {
    /// Live connections in this reactor's slab.
    pub connections: usize,
    /// Connections this reactor has reaped so far.
    pub dropped_connections: u64,
    /// Hello frames this reactor read for devices the registry has
    /// never enrolled — the `UnknownDevice` signal for announcements,
    /// which route silently but must not go uncounted.
    pub unknown_device_hellos: u64,
    /// Outcomes this reactor's partial report contributed to the last
    /// round (its share of the merged report).
    pub last_round_outcomes: usize,
}

/// Folds per-reactor partial reports into one canonical report:
/// challenged devices in challenge order (each device's outcomes in its
/// owner's local order), then everything unattributable or unsolicited,
/// grouped by reactor index.
pub(crate) fn merge_reports(order: &[DeviceId], reports: Vec<RoundReport>) -> RoundReport {
    let challenged: HashSet<DeviceId> = order.iter().copied().collect();
    let mut buckets: Vec<HashMap<DeviceId, Vec<RoundOutcome>>> = Vec::new();
    let mut leftovers: Vec<RoundOutcome> = Vec::new();
    for report in reports {
        let mut bucket: HashMap<DeviceId, Vec<RoundOutcome>> = HashMap::new();
        for outcome in report.outcomes {
            match outcome.device {
                Some(id) if challenged.contains(&id) => bucket.entry(id).or_default().push(outcome),
                _ => leftovers.push(outcome),
            }
        }
        buckets.push(bucket);
    }
    let mut outcomes = Vec::new();
    for id in order {
        for bucket in &mut buckets {
            if let Some(settled) = bucket.remove(id) {
                outcomes.extend(settled);
            }
        }
    }
    outcomes.append(&mut leftovers);
    RoundReport { outcomes }
}

/// One reactor mid-flight: its persistent state plus every in-flight
/// epoch's engine (up to the runtime's pipeline depth), the shared
/// inbound batch and channel ends.
pub(crate) struct ReactorRun<'run, C: GatewayConn> {
    pub(crate) me: usize,
    pub(crate) reactors: usize,
    pub(crate) fleet: &'run FleetVerifier,
    pub(crate) state: &'run mut ReactorState<C>,
    pub(crate) route: &'run Mutex<HashMap<DeviceId, Route>>,
    pub(crate) mates: &'run [Sender<ReactorMsg<C>>],
    /// In-flight epochs, oldest first. Verdicts that belong to no
    /// awaited device (unsolicited evidence, unattributable frames)
    /// are charged to the oldest epoch, which is the only epoch when
    /// rounds are not pipelined.
    pub(crate) engines: Vec<EpochRun<'run>>,
    /// Evidence gathered this sweep (local reads + forwarded mail),
    /// concluded as one batch on the MAC pool.
    pub(crate) inbound: Vec<Vec<u8>>,
    /// Mailed `Charge`s, applied only *after* the sweep's evidence
    /// batch concludes: a mate's channel delivers evidence before the
    /// hangup charge (stream order), and the charge must not outrun the
    /// evidence just because conclusion is batched.
    pub(crate) pending_charges: Vec<DeviceId>,
    /// Round descriptors mailed by the runtime, begun at the top of the
    /// next sweep.
    pub(crate) pending_begins: Vec<RoundStart>,
    /// Set when the runtime mails [`ReactorMsg::Shutdown`].
    pub(crate) shutdown: bool,
    /// Reused transmit staging: drained engine challenges awaiting
    /// routing, so pumping allocates nothing in the steady state.
    tx_scratch: Vec<(DeviceId, Vec<u8>)>,
    pub(crate) workers: usize,
    pub(crate) progressed: bool,
}

impl<'run, C: GatewayConn> ReactorRun<'run, C> {
    pub(crate) fn new(
        me: usize,
        reactors: usize,
        fleet: &'run FleetVerifier,
        state: &'run mut ReactorState<C>,
        route: &'run Mutex<HashMap<DeviceId, Route>>,
        mates: &'run [Sender<ReactorMsg<C>>],
        workers: usize,
    ) -> ReactorRun<'run, C> {
        ReactorRun {
            me,
            reactors,
            fleet,
            state,
            route,
            mates,
            engines: Vec::new(),
            inbound: Vec::new(),
            pending_charges: Vec::new(),
            pending_begins: Vec::new(),
            shutdown: false,
            tx_scratch: Vec::new(),
            workers,
            progressed: false,
        }
    }

    fn owner_of(&self, id: DeviceId) -> usize {
        self.fleet.reactor_of(id, self.reactors)
    }

    /// The in-flight epoch (index into `engines`) still awaiting `id`,
    /// oldest first. Pipelined cohorts are disjoint, so at most one
    /// epoch can await any device.
    fn epoch_awaiting(&self, id: DeviceId) -> Option<usize> {
        self.engines.iter().position(|e| e.engine.is_awaiting(id))
    }

    /// True when any in-flight epoch still awaits `id`.
    fn awaited(&self, id: DeviceId) -> bool {
        self.epoch_awaiting(id).is_some()
    }

    /// Begins every runtime-mailed epoch, oldest submission first.
    pub(crate) fn start_pending_epochs(&mut self) {
        for start in std::mem::take(&mut self.pending_begins) {
            self.progressed = true;
            let config = RoundConfig::realtime(start.budget);
            let engine = match RoundEngine::begin(self.fleet, &start.partition, config) {
                Ok(engine) => engine,
                // `begin` only fails on an unenrolled id: a cohort
                // device left between submission and this begin.
                Err(_) => self.begin_without_leavers(&start.partition, config),
            };
            self.engines.push(EpochRun {
                epoch: start.epoch,
                engine,
                started: start.started,
                cohort: start.partition,
            });
        }
    }

    /// Begins `partition` minus the devices no longer enrolled, and
    /// settles each of those as
    /// [`FleetError::Evicted`](crate::FleetError::Evicted) in this
    /// epoch — the verdict a leave landing one sweep later would have
    /// drawn from membership sync. Retries while leaves keep racing the
    /// begin; each retry sees at least one more leaver, so it ends.
    fn begin_without_leavers(
        &self,
        partition: &[DeviceId],
        config: RoundConfig,
    ) -> RoundEngine<'run> {
        loop {
            let (enrolled, left): (Vec<DeviceId>, Vec<DeviceId>) = partition
                .iter()
                .partition(|&&id| self.fleet.is_registered(id));
            if let Ok(mut engine) = RoundEngine::begin(self.fleet, &enrolled, config) {
                for id in left {
                    engine.settle_evicted(id);
                }
                return engine;
            }
        }
    }

    /// Ticks every in-flight epoch against its own round clock.
    pub(crate) fn tick_all(&mut self) {
        for e in &mut self.engines {
            e.engine
                .tick(LogicalTime(e.started.elapsed().as_millis() as u64));
        }
    }

    /// Sweeps eviction churn into every in-flight epoch: the epoch that
    /// awaits the evicted device settles it as `Evicted`; epochs that
    /// never challenged it are untouched — churn is charged to exactly
    /// one epoch.
    pub(crate) fn sync_membership_all(&mut self) {
        for e in &mut self.engines {
            self.progressed |= e.engine.sync_membership() > 0;
        }
    }

    /// Pops every settled epoch (oldest first), finishing its report
    /// and pruning parked/delivered residue no surviving epoch awaits.
    pub(crate) fn harvest_settled(&mut self) -> Vec<(u64, RoundReport, Vec<DeviceId>)> {
        if self.engines.iter().all(|e| !e.engine.is_settled()) {
            return Vec::new();
        }
        let mut done = Vec::new();
        let mut i = 0;
        while i < self.engines.len() {
            if self.engines[i].engine.is_settled() {
                let e = self.engines.remove(i);
                let report = e.engine.into_report();
                self.state.last_outcomes = report.outcomes.len();
                done.push((e.epoch, report, e.cohort));
            } else {
                i += 1;
            }
        }
        let engines = &self.engines;
        let still_awaited = |id: &DeviceId| engines.iter().any(|e| e.engine.is_awaiting(*id));
        self.state.parked.retain(|id, _| still_awaited(id));
        self.state.delivered.retain(|id, _| still_awaited(id));
        self.progressed = true;
        done
    }

    /// Fire-and-forget mail: a send to a reactor that already returned
    /// is dropped.
    fn send(&self, to: usize, msg: ReactorMsg<C>) {
        let _ = self.mates[to].send(msg);
    }

    fn current_route(&self, device: DeviceId) -> Option<Route> {
        self.route.lock().unwrap().get(&device).copied()
    }

    /// Drains every in-flight epoch's outbound challenges: queued
    /// locally when the route is ours, mailed to the owning reactor
    /// when not, parked when the device has no route yet.
    pub(crate) fn pump_transmits(&mut self) {
        let mut staged = std::mem::take(&mut self.tx_scratch);
        for e in &mut self.engines {
            while let Some((device, frame)) = e.engine.poll_transmit() {
                staged.push((device, frame_stream(&frame)));
            }
        }
        for (device, framed) in staged.drain(..) {
            self.progressed = true;
            match self.current_route(device) {
                Some(r) if r.reactor == self.me => self.deliver_on(device, r.slot, framed),
                Some(r) => self.send(
                    r.reactor,
                    ReactorMsg::Deliver {
                        device,
                        slot: r.slot,
                        framed,
                    },
                ),
                None => {
                    self.state.parked.insert(device, framed);
                }
            }
        }
        self.tx_scratch = staged;
    }

    /// Queues a framed challenge on the local connection at `slot`. On
    /// failure the challenge goes back to the device's owner — inline
    /// when that is us, by mail otherwise.
    fn deliver_on(&mut self, device: DeviceId, slot: usize, framed: Vec<u8>) {
        let enqueued = match self.state.conns.get_mut(slot).and_then(Option::as_mut) {
            Some(peer) if !peer.dead => {
                if peer.outbox.enqueue(&framed) {
                    true
                } else {
                    peer.dead = true; // not draining: wedged or hostile
                    false
                }
            }
            _ => false,
        };
        if enqueued {
            self.state.delivered.insert(device, slot);
        } else if self.owner_of(device) == self.me {
            self.repark(device, framed);
        } else {
            self.send(self.owner_of(device), ReactorMsg::Park { device, framed });
        }
    }

    /// Owner-side failed-delivery handling: chase a fresher route once,
    /// else park until the device reveals one. Re-checking the route
    /// here closes the race where `Park` (from the old connection's
    /// reactor) arrives after `Routed` (from the new one) — the parked
    /// map alone would strand the challenge until the deadline.
    fn repark(&mut self, device: DeviceId, framed: Vec<u8>) {
        debug_assert_eq!(self.owner_of(device), self.me, "repark is owner-side");
        if !self.awaited(device) {
            return; // already settled; the challenge is moot
        }
        match self.current_route(device) {
            Some(r) if r.reactor != self.me => {
                self.send(
                    r.reactor,
                    ReactorMsg::Deliver {
                        device,
                        slot: r.slot,
                        framed,
                    },
                );
            }
            Some(r)
                if self
                    .state
                    .conns
                    .get(r.slot)
                    .and_then(Option::as_ref)
                    .is_some_and(|p| !p.dead) =>
            {
                // A live local route (possibly a different connection
                // than the one that just failed). Recursion is bounded:
                // a second failure marks this connection dead, and the
                // next repark falls through to parking.
                self.deliver_on(device, r.slot, framed);
            }
            _ => {
                self.state.parked.insert(device, framed);
            }
        }
    }

    pub(crate) fn drain_inbox(&mut self, inbox: &Receiver<ReactorMsg<C>>) {
        while let Ok(msg) = inbox.try_recv() {
            self.absorb(msg);
        }
    }

    /// Handles one piece of mail. Separated from
    /// [`drain_inbox`](Self::drain_inbox) so the persistent runtime
    /// loop can block on its inbox while parked between epochs and feed
    /// the wake-up message through the same path.
    pub(crate) fn absorb(&mut self, msg: ReactorMsg<C>) {
        {
            self.progressed = true;
            match msg {
                ReactorMsg::Conn(conn) => self.state.adopt(conn),
                ReactorMsg::Begin(start) => self.pending_begins.push(start),
                ReactorMsg::Shutdown => self.shutdown = true,
                ReactorMsg::Deliver {
                    device,
                    slot,
                    framed,
                } => {
                    let here = Route {
                        reactor: self.me,
                        slot,
                    };
                    if self.current_route(device) == Some(here) {
                        self.deliver_on(device, slot, framed);
                    } else if self.owner_of(device) == self.me {
                        // Stale: the device re-routed while the
                        // challenge was in the mail.
                        self.repark(device, framed);
                    } else {
                        self.send(self.owner_of(device), ReactorMsg::Park { device, framed });
                    }
                }
                ReactorMsg::Park { device, framed } => self.repark(device, framed),
                ReactorMsg::Evidence(frame) => self.inbound.push(frame),
                ReactorMsg::Routed(device) => {
                    if let Some(framed) = self.state.parked.remove(&device) {
                        self.repark(device, framed); // chases the fresh route
                    }
                }
                ReactorMsg::Charge(device) => {
                    self.pending_charges.push(device);
                }
                ReactorMsg::Unroute { slot } => {
                    if let Some(peer) = self.state.conns.get_mut(slot).and_then(Option::as_mut) {
                        peer.routed = peer.routed.saturating_sub(1);
                    }
                }
            }
        }
    }

    /// Records "device `id` was heard on local `slot`" in the shared
    /// route map, maintains the flood counters across reactors, and
    /// triggers parked-challenge delivery on a route change.
    fn record_route(&mut self, id: DeviceId, slot: usize) {
        let here = Route {
            reactor: self.me,
            slot,
        };
        let previous = self.route.lock().unwrap().insert(id, here);
        if previous == Some(here) {
            return; // nothing moved
        }
        match previous {
            Some(prev) if prev.reactor == self.me => {
                if let Some(peer) = self.state.conns.get_mut(prev.slot).and_then(Option::as_mut) {
                    peer.routed = peer.routed.saturating_sub(1);
                }
            }
            Some(prev) => self.send(prev.reactor, ReactorMsg::Unroute { slot: prev.slot }),
            None => {}
        }
        let peer = self.state.conns[slot].as_mut().expect("live peer");
        peer.routed += 1;
        if peer.routed > MAX_ROUTED_PER_CONN {
            peer.dead = true;
        }
        if self.owner_of(id) == self.me {
            if let Some(framed) = self.state.parked.remove(&id) {
                self.deliver_on(id, slot, framed);
            }
        } else {
            self.send(self.owner_of(id), ReactorMsg::Routed(id));
        }
    }

    /// Pumps every local connection's receive side: drains complete
    /// frames, records routes, and sorts evidence — owned devices into
    /// the local batch, others into the owner's mail, unattributable
    /// frames judged here.
    pub(crate) fn sweep_reads(&mut self) {
        for slot in 0..self.state.conns.len() {
            if self.state.conns[slot].is_none() {
                continue;
            }
            loop {
                let peer = self.state.conns[slot].as_mut().expect("slot checked live");
                if peer.dead {
                    break;
                }
                match peer.deframer.next_frame() {
                    Ok(Some(frame)) => {
                        self.progressed = true;
                        match Envelope::from_bytes(&frame) {
                            Ok(envelope) => {
                                let id = DeviceId(envelope.device_id);
                                self.record_route(id, slot);
                                // A hello (empty payload) is routing
                                // information only.
                                if envelope.payload.is_empty() {
                                    if !self.fleet.is_registered(id) {
                                        self.state.unknown_hellos += 1;
                                    }
                                } else if self.owner_of(id) == self.me {
                                    self.inbound.push(frame);
                                } else {
                                    self.send(self.owner_of(id), ReactorMsg::Evidence(frame));
                                }
                            }
                            // Unattributable: judged by whoever read it.
                            Err(_) => self.inbound.push(frame),
                        }
                    }
                    Ok(None) => match pump_read(&mut peer.stream, &mut peer.deframer) {
                        ReadPump::Bytes(_) => self.progressed = true,
                        ReadPump::Idle => break,
                        ReadPump::Closed | ReadPump::Broken => {
                            peer.dead = true;
                            break;
                        }
                    },
                    // Oversized length prefix: framing is lost for good.
                    Err(_) => {
                        peer.dead = true;
                        break;
                    }
                }
            }
        }
    }

    /// Concludes the sweep's gathered evidence as one batch (on the
    /// runtime's MAC pool when it is big enough) and feeds each verdict
    /// to the epoch awaiting its device. Verdicts that belong to no
    /// awaited device (unsolicited evidence, unattributable frames)
    /// land in the oldest in-flight epoch. The inbound buffer comes
    /// back cleared for the next sweep.
    pub(crate) fn conclude_inbound(&mut self) {
        if self.inbound.is_empty() {
            return;
        }
        self.progressed = true;
        let frames = std::mem::take(&mut self.inbound);
        let (verdicts, recycled) = self.fleet.conclude_batch_pooled(frames, self.workers);
        self.inbound = recycled;
        for (device, result) in verdicts {
            let target = device.and_then(|id| self.epoch_awaiting(id)).unwrap_or(0);
            if let Some(e) = self.engines.get_mut(target) {
                e.engine.outcome_received(device, result);
            }
        }
    }

    /// Applies the sweep's mailed hangup charges. Runs after
    /// [`conclude_inbound`](Self::conclude_inbound) so a device whose
    /// evidence arrived ahead of its connection's FIN settles on the
    /// evidence — the charge then finds it settled and does nothing.
    pub(crate) fn apply_charges(&mut self) {
        for device in std::mem::take(&mut self.pending_charges) {
            if let Some(i) = self.epoch_awaiting(device) {
                self.engines[i].engine.charge_no_response(device);
            }
        }
    }

    /// Flushes local write queues, then reaps dead connections: their
    /// routes are forgotten fleet-wide, and every device whose
    /// challenge was *delivered* on them is charged `NoResponse` — at
    /// its owner, by mail when the owner is another reactor.
    pub(crate) fn sweep_writes_and_reap(&mut self) {
        for slot in 0..self.state.conns.len() {
            let Some(peer) = self.state.conns[slot].as_mut() else {
                continue;
            };
            if !peer.dead {
                match peer.outbox.flush(&mut peer.stream) {
                    WritePump::Drained => {}
                    WritePump::Blocked(wrote) => self.progressed |= wrote > 0,
                    WritePump::Closed | WritePump::Broken => peer.dead = true,
                }
            }
            if peer.dead {
                self.progressed = true;
                self.state.conns[slot] = None;
                self.state.dropped_total += 1;
                self.route
                    .lock()
                    .unwrap()
                    .retain(|_, r| !(r.reactor == self.me && r.slot == slot));
                let mut carried: Vec<DeviceId> = self
                    .state
                    .delivered
                    .iter()
                    .filter(|&(_, &s)| s == slot)
                    .map(|(&id, _)| id)
                    .collect();
                // Stable charge order regardless of map iteration.
                carried.sort_unstable();
                for id in carried {
                    self.state.delivered.remove(&id);
                    if self.owner_of(id) == self.me {
                        if let Some(i) = self.epoch_awaiting(id) {
                            self.engines[i].engine.charge_no_response(id);
                        }
                    } else {
                        self.send(self.owner_of(id), ReactorMsg::Charge(id));
                    }
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::FleetError;
    use asap::VerifierSpec;
    use std::os::unix::net::UnixStream;
    use std::sync::Arc;

    /// Regression: a cohort device that left between `submit_round`
    /// and its reactor's begin used to fail the whole epoch with
    /// `UnknownDevice`. The rest of the cohort is now challenged, the
    /// leaver settles as `Evicted` in that epoch, and the merged report
    /// is the same at every reactor count.
    #[test]
    fn leave_before_begin_settles_evicted_not_a_failed_epoch() {
        let image = asap::programs::fig4_authorized().unwrap();
        let spec = Arc::new(VerifierSpec::from_image(&image).unwrap());
        let order: Vec<DeviceId> = (1..=8).map(DeviceId).collect();
        let gone = DeviceId(5);

        let merged: Vec<RoundReport> = [1usize, 2, 4]
            .into_iter()
            .map(|reactors| {
                let fleet = FleetVerifier::new();
                for &id in &order {
                    fleet.register_shared(id, b"k", Arc::clone(&spec)).unwrap();
                }
                // The cohort passed submission; then one device left.
                assert!(fleet.remove(gone));

                let route = Mutex::new(HashMap::new());
                let (mates, _inboxes): (Vec<Sender<ReactorMsg<UnixStream>>>, Vec<_>) =
                    (0..reactors).map(|_| std::sync::mpsc::channel()).unzip();
                let partials = (0..reactors)
                    .map(|me| {
                        let mut state = ReactorState::new();
                        let mut run =
                            ReactorRun::new(me, reactors, &fleet, &mut state, &route, &mates, 1);
                        run.pending_begins.push(RoundStart {
                            epoch: 0,
                            partition: order
                                .iter()
                                .copied()
                                .filter(|&id| fleet.reactor_of(id, reactors) == me)
                                .collect(),
                            budget: Duration::from_secs(1),
                            started: Instant::now(),
                        });
                        run.start_pending_epochs();
                        assert_eq!(run.engines.len(), 1, "the epoch begins");
                        // Nobody answers: the rest expire at the end.
                        let epoch = run.engines.pop().unwrap();
                        epoch.engine.into_report()
                    })
                    .collect();
                let report = merge_reports(&order, partials);
                assert_eq!(fleet.in_flight(), 0, "{reactors} reactors");
                report
            })
            .collect();

        let expected: Vec<RoundOutcome> = order
            .iter()
            .map(|&id| RoundOutcome {
                device: Some(id),
                result: Err(if id == gone {
                    FleetError::Evicted(id)
                } else {
                    FleetError::NoResponse(id)
                }),
            })
            .collect();
        assert_eq!(merged[0].outcomes, expected);
        assert_eq!(merged[0], merged[1], "1 vs 2 reactors");
        assert_eq!(merged[0], merged[2], "1 vs 4 reactors");
    }
}
