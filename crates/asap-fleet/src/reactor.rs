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
//!   deframer and bounded [`WriteQueue`], and is
//!   serviced strictly without blocking: a partial write leaves bytes
//!   queued (`WouldBlock` is backpressure, never a wedged loop), and a
//!   connection that hangs up, breaks, overflows its write queue,
//!   floods the route map past [`MAX_ROUTED_PER_CONN`], or poisons its
//!   deframer with an oversized frame is dropped.
//!
//! # The per-frame datapath
//!
//! Each sweep reads every connection until a read comes back shorter
//! than [`READ_CHUNK`] (the socket is drained; the rest waits for the
//! next sweep) and decodes each frame's envelope **once**, borrowing it
//! from the deframer: the payload of owned evidence is appended to one
//! per-sweep byte arena, which the reactor reuses; nothing else copies
//! it. After the reads, the reactor concludes the sweep's evidence
//! itself, frame by frame in input order, straight into the epoch
//! awaiting each device. Outbound, every epoch's
//! challenges are borrowed from its engine
//! ([`RoundEngine::poll_transmit`]), length-prefixed into one reused
//! staging buffer, their routes read under one route-map lock per
//! sweep, and queued from there. Only parking a challenge and
//! mailing one to another reactor allocate. Round bookkeeping is O(1)
//! per outcome: "which epoch awaits this device" is a set lookup per
//! in-flight epoch.
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
//! * the connection's reactor forwards each inbound evidence payload,
//!   already decoded, to the owner (`Evidence`), which concludes it in
//!   its own engine;
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
use crate::idhash::IdMap;
use crate::registry::{EvidenceBatch, FleetVerifier};
use crate::round::{RoundOutcome, RoundReport};
use crate::runtime::GatewayConn;
use crate::stream::{pump_read, ReadPump, WritePump, WriteQueue};
use crate::DeviceId;
use apex_pox::wire::{frame_stream_into, Envelope, StreamDeframer, READ_CHUNK};
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

/// The route map every reactor shares: device → where it was last
/// heard. Unlike the maps keyed by enrolled or challenged ids, its keys
/// come from hellos that any peer can send, so it keeps std's keyed
/// SipHash, whose bucket spread holds against chosen keys.
#[allow(clippy::disallowed_types)] // peer-chosen keys: SipHash on purpose
pub(crate) type RouteMap = std::collections::HashMap<DeviceId, Route>;

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
    /// Connection reactor → owner: an evidence payload for one of the
    /// owner's devices, its envelope already decoded.
    Evidence { device: DeviceId, payload: Vec<u8> },
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
/// challenged devices in challenge order (each device's outcomes by
/// reactor index, then in that reactor's local order), then everything
/// unattributable or unsolicited, grouped by reactor index.
///
/// One id→position map and one stable sort by position, where every
/// leftover takes the position past the last challenge. The outcomes
/// enter the sort reactor by reactor, so stability alone keeps equal
/// positions in (reactor, local) order.
pub(crate) fn merge_reports(order: &[DeviceId], reports: Vec<RoundReport>) -> RoundReport {
    let mut position: IdMap<DeviceId, usize> =
        IdMap::with_capacity_and_hasher(order.len(), Default::default());
    for (at, &id) in order.iter().enumerate() {
        position.entry(id).or_insert(at);
    }
    let leftover = order.len();
    let mut keyed: Vec<(usize, RoundOutcome)> =
        Vec::with_capacity(reports.iter().map(|r| r.outcomes.len()).sum());
    for outcome in reports.into_iter().flat_map(|r| r.outcomes) {
        let at = outcome
            .device
            .and_then(|id| position.get(&id).copied())
            .unwrap_or(leftover);
        keyed.push((at, outcome));
    }
    keyed.sort_by_key(|&(at, _)| at);
    RoundReport {
        outcomes: keyed.into_iter().map(|(_, outcome)| outcome).collect(),
    }
}

/// One reactor, owned by its thread for life: the connection slab,
/// every in-flight epoch's engine (up to the runtime's pipeline depth),
/// the routing residue those epochs leave, the shared inbound batch and
/// the channel ends.
pub(crate) struct ReactorRun<'run, C: GatewayConn> {
    pub(crate) me: usize,
    pub(crate) reactors: usize,
    pub(crate) fleet: &'run FleetVerifier,
    pub(crate) route: &'run Mutex<RouteMap>,
    pub(crate) mates: &'run [Sender<ReactorMsg<C>>],
    pub(crate) conns: Vec<Option<Peer<C>>>,
    /// Framed challenges for owned devices with no usable route yet,
    /// at most one per device (a re-challenge supersedes the session),
    /// pruned when the epoch that parked them finishes.
    pub(crate) parked: IdMap<DeviceId, Vec<u8>>,
    /// Which local slot each device's challenge was actually sent on —
    /// hangup charging keys on this, never on the (hello-controlled,
    /// last-wins) route map. Pruned like `parked`.
    pub(crate) delivered: IdMap<DeviceId, usize>,
    pub(crate) dropped_total: u64,
    /// Hello frames this reactor read for devices the registry has
    /// never enrolled ([`ReactorStats::unknown_device_hellos`]).
    pub(crate) unknown_hellos: u64,
    /// Outcomes this reactor's partial report contributed last round.
    pub(crate) last_outcomes: usize,
    /// In-flight epochs, oldest first. Verdicts that belong to no
    /// awaited device (unsolicited evidence, unattributable frames)
    /// are charged to the oldest epoch, which is the only epoch when
    /// rounds are not pipelined.
    pub(crate) engines: Vec<EpochRun<'run>>,
    /// Evidence gathered this sweep (local reads + forwarded mail),
    /// each frame decoded once, concluded in input order after the
    /// reads.
    pub(crate) inbound: EvidenceBatch,
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
    /// Reused transmit staging: drained engine challenges, length
    /// prefix included, packed end to end and awaiting routing ...
    tx_bytes: Vec<u8>,
    /// ... as `(device, route, start, end)` spans into `tx_bytes`, so
    /// pumping allocates nothing in the steady state.
    tx_spans: Vec<(DeviceId, Option<Route>, usize, usize)>,
    pub(crate) progressed: bool,
}

impl<'run, C: GatewayConn> ReactorRun<'run, C> {
    pub(crate) fn new(
        me: usize,
        reactors: usize,
        fleet: &'run FleetVerifier,
        route: &'run Mutex<RouteMap>,
        mates: &'run [Sender<ReactorMsg<C>>],
    ) -> ReactorRun<'run, C> {
        ReactorRun {
            me,
            reactors,
            fleet,
            route,
            mates,
            conns: Vec::new(),
            parked: IdMap::default(),
            delivered: IdMap::default(),
            dropped_total: 0,
            unknown_hellos: 0,
            last_outcomes: 0,
            engines: Vec::new(),
            inbound: EvidenceBatch::default(),
            pending_charges: Vec::new(),
            pending_begins: Vec::new(),
            shutdown: false,
            tx_bytes: Vec::new(),
            tx_spans: Vec::new(),
            progressed: false,
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

    /// Point-in-time counters, snapshotted into every epoch completion
    /// message so the runtime driver can serve
    /// [`ReactorStats`] without reaching into reactor threads.
    pub(crate) fn stats(&self) -> ReactorStats {
        ReactorStats {
            connections: self.conns.iter().filter(|c| c.is_some()).count(),
            dropped_connections: self.dropped_total,
            unknown_device_hellos: self.unknown_hellos,
            last_round_outcomes: self.last_outcomes,
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
            // `submit_round` validated the partition; a device that left
            // since settles as `Evicted` in this epoch.
            let engine = RoundEngine::begin_settling_leavers(self.fleet, &start.partition, config);
            self.engines.push(EpochRun {
                epoch: start.epoch,
                engine,
                started: start.started,
                cohort: start.partition,
            });
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
                self.last_outcomes = report.outcomes.len();
                done.push((e.epoch, report, e.cohort));
            } else {
                i += 1;
            }
        }
        let engines = &self.engines;
        let still_awaited = |id: &DeviceId| engines.iter().any(|e| e.engine.is_awaiting(*id));
        self.parked.retain(|id, _| still_awaited(id));
        self.delivered.retain(|id, _| still_awaited(id));
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
    /// when not, parked when the device has no route yet. Every
    /// challenge's route is read under one route-map lock, taken at the
    /// first challenge and released before any is delivered.
    pub(crate) fn pump_transmits(&mut self) {
        let mut bytes = std::mem::take(&mut self.tx_bytes);
        let mut spans = std::mem::take(&mut self.tx_spans);
        let mut routes = None;
        for e in &mut self.engines {
            while let Some((device, frame)) = e.engine.poll_transmit() {
                let routes = routes.get_or_insert_with(|| self.route.lock().unwrap());
                let start = bytes.len();
                frame_stream_into(&mut bytes, frame);
                spans.push((device, routes.get(&device).copied(), start, bytes.len()));
            }
        }
        drop(routes);
        for &(device, route, start, end) in &spans {
            self.progressed = true;
            let framed = &bytes[start..end];
            match route {
                Some(r) if r.reactor == self.me => self.deliver_on(device, r.slot, framed),
                Some(r) => self.send(
                    r.reactor,
                    ReactorMsg::Deliver {
                        device,
                        slot: r.slot,
                        framed: framed.to_vec(),
                    },
                ),
                None => {
                    self.parked.insert(device, framed.to_vec());
                }
            }
        }
        bytes.clear();
        spans.clear();
        self.tx_bytes = bytes;
        self.tx_spans = spans;
    }

    /// Queues a framed challenge on the local connection at `slot`. On
    /// failure the challenge [bounces](Self::bounce) to the device's
    /// owner.
    fn deliver_on(&mut self, device: DeviceId, slot: usize, framed: &[u8]) {
        let enqueued = match self.conns.get_mut(slot).and_then(Option::as_mut) {
            Some(peer) if !peer.dead => {
                if peer.outbox.enqueue(framed) {
                    true
                } else {
                    peer.dead = true; // not draining: wedged or hostile
                    false
                }
            }
            _ => false,
        };
        if enqueued {
            self.delivered.insert(device, slot);
        } else {
            self.bounce(device, framed);
        }
    }

    /// Hands a challenge that could not be delivered here back to its
    /// device's owner: [`repark`](Self::repark)ed inline when that is
    /// us, mailed as `Park` otherwise. A challenge that arrived owned
    /// by mail is mailed on without a copy.
    fn bounce<F: AsRef<[u8]> + Into<Vec<u8>>>(&mut self, device: DeviceId, framed: F) {
        let owner = self.owner_of(device);
        if owner == self.me {
            self.repark(device, framed.as_ref());
        } else {
            let framed = framed.into();
            self.send(owner, ReactorMsg::Park { device, framed });
        }
    }

    /// Owner-side failed-delivery handling: chase a fresher route once,
    /// else park until the device reveals one. Re-checking the route
    /// here closes the race where `Park` (from the old connection's
    /// reactor) arrives after `Routed` (from the new one) — the parked
    /// map alone would strand the challenge until the deadline.
    fn repark(&mut self, device: DeviceId, framed: &[u8]) {
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
                        framed: framed.to_vec(),
                    },
                );
            }
            Some(r)
                if self
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
                self.parked.insert(device, framed.to_vec());
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
        self.progressed = true;
        match msg {
            ReactorMsg::Conn(conn) => self.adopt(conn),
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
                    self.deliver_on(device, slot, &framed);
                } else {
                    // Stale: the device re-routed while the
                    // challenge was in the mail.
                    self.bounce(device, framed);
                }
            }
            ReactorMsg::Park { device, framed } => self.repark(device, &framed),
            ReactorMsg::Evidence { device, payload } => self.inbound.push(device, &payload),
            ReactorMsg::Routed(device) => {
                if let Some(framed) = self.parked.remove(&device) {
                    self.repark(device, &framed); // chases the fresh route
                }
            }
            ReactorMsg::Charge(device) => {
                self.pending_charges.push(device);
            }
            ReactorMsg::Unroute { slot } => {
                if let Some(peer) = self.conns.get_mut(slot).and_then(Option::as_mut) {
                    peer.routed = peer.routed.saturating_sub(1);
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
                if let Some(peer) = self.conns.get_mut(prev.slot).and_then(Option::as_mut) {
                    peer.routed = peer.routed.saturating_sub(1);
                }
            }
            Some(prev) => self.send(prev.reactor, ReactorMsg::Unroute { slot: prev.slot }),
            None => {}
        }
        let peer = self.conns[slot].as_mut().expect("live peer");
        peer.routed += 1;
        if peer.routed > MAX_ROUTED_PER_CONN {
            peer.dead = true;
        }
        if self.owner_of(id) == self.me {
            if let Some(framed) = self.parked.remove(&id) {
                self.deliver_on(id, slot, &framed);
            }
        } else {
            self.send(self.owner_of(id), ReactorMsg::Routed(id));
        }
    }

    /// Pumps every local connection's receive side: drains complete
    /// frames, records routes, and sorts evidence — owned devices into
    /// the local batch, others into the owner's mail, unattributable
    /// frames judged here. Each frame's envelope is decoded once, in
    /// place. A connection is read until a read comes back short of
    /// [`READ_CHUNK`]: the socket is drained, so the sweep moves on
    /// rather than pay for a read that could only say `WouldBlock`.
    pub(crate) fn sweep_reads(&mut self) {
        for slot in 0..self.conns.len() {
            let mut drained = false;
            while let Some(peer) = self.conns[slot].as_mut() {
                if peer.dead {
                    break;
                }
                let frame = match peer.deframer.next_frame() {
                    Ok(Some(frame)) => frame,
                    Ok(None) if drained => break,
                    Ok(None) => {
                        match pump_read(&mut peer.stream, &mut peer.deframer) {
                            ReadPump::Bytes(n) => {
                                self.progressed = true;
                                drained = n < READ_CHUNK;
                            }
                            ReadPump::Idle => break,
                            ReadPump::Closed | ReadPump::Broken => {
                                peer.dead = true;
                                break;
                            }
                        }
                        continue;
                    }
                    // Oversized length prefix: framing is lost for good.
                    Err(_) => {
                        peer.dead = true;
                        break;
                    }
                };
                self.progressed = true;
                let (id, payload) = match Envelope::parse(frame) {
                    Ok((id, payload)) => (DeviceId(id), payload),
                    // Unattributable: judged by whoever read it.
                    Err(e) => {
                        self.inbound.push_unattributable(e);
                        continue;
                    }
                };
                let owner = self.fleet.reactor_of(id, self.reactors);
                // A hello (empty payload) is routing information only.
                let forward = if payload.is_empty() {
                    if !self.fleet.is_registered(id) {
                        self.unknown_hellos += 1;
                    }
                    None
                } else if owner == self.me {
                    self.inbound.push(id, payload);
                    None
                } else {
                    Some(payload.to_vec())
                };
                self.record_route(id, slot);
                if let Some(payload) = forward {
                    self.send(
                        owner,
                        ReactorMsg::Evidence {
                            device: id,
                            payload,
                        },
                    );
                }
            }
        }
    }

    /// Concludes the sweep's gathered evidence on this thread, in input
    /// order, and feeds each verdict straight to the epoch awaiting its
    /// device. Verdicts that belong to no awaited device (unsolicited
    /// evidence, unattributable frames) land in the oldest in-flight
    /// epoch. The inbound buffer is left cleared for the next sweep.
    pub(crate) fn conclude_inbound(&mut self) {
        if self.inbound.is_empty() {
            return;
        }
        self.progressed = true;
        for i in 0..self.inbound.len() {
            let (device, result) = self.fleet.conclude_at(&self.inbound, i);
            let target = device.and_then(|id| self.epoch_awaiting(id)).unwrap_or(0);
            if let Some(e) = self.engines.get_mut(target) {
                e.engine.outcome_received(device, result);
            }
        }
        self.inbound.clear();
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
        for slot in 0..self.conns.len() {
            let Some(peer) = self.conns[slot].as_mut() else {
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
                self.conns[slot] = None;
                self.dropped_total += 1;
                self.route
                    .lock()
                    .unwrap()
                    .retain(|_, r| !(r.reactor == self.me && r.slot == slot));
                let mut carried: Vec<DeviceId> = self
                    .delivered
                    .iter()
                    .filter(|&(_, &s)| s == slot)
                    .map(|(&id, _)| id)
                    .collect();
                // Stable charge order regardless of map iteration.
                carried.sort_unstable();
                for id in carried {
                    self.delivered.remove(&id);
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
    use crate::idhash::IdSet;
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

                let route = Mutex::new(RouteMap::new());
                let (mates, _inboxes): (Vec<Sender<ReactorMsg<UnixStream>>>, Vec<_>) =
                    (0..reactors).map(|_| std::sync::mpsc::channel()).unzip();
                let partials = (0..reactors)
                    .map(|me| {
                        let mut run = ReactorRun::new(me, reactors, &fleet, &route, &mates);
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

    /// The bucket merge [`merge_reports`] replaced: per-reactor hash
    /// buckets walked in challenge order. The reference the sort-based
    /// merge is checked against.
    fn merge_by_buckets(order: &[DeviceId], reports: Vec<RoundReport>) -> RoundReport {
        let challenged: IdSet<DeviceId> = order.iter().copied().collect();
        let mut buckets: Vec<IdMap<DeviceId, Vec<RoundOutcome>>> = Vec::new();
        let mut leftovers: Vec<RoundOutcome> = Vec::new();
        for report in reports {
            let mut bucket: IdMap<DeviceId, Vec<RoundOutcome>> = IdMap::default();
            for outcome in report.outcomes {
                match outcome.device {
                    Some(id) if challenged.contains(&id) => {
                        bucket.entry(id).or_default().push(outcome)
                    }
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

    proptest::proptest! {
        /// Over 1–4 partial reports holding repeated outcomes per
        /// device, devices settled by several reactors, unchallenged
        /// devices and unattributable (`None`) outcomes, the sort-based
        /// merge yields exactly the bucket merge's report.
        #[test]
        fn merge_matches_the_bucket_reference(
            order in proptest::collection::vec(0u64..12, 0..10),
            partials in proptest::collection::vec(
                proptest::collection::vec((0u64..16, 0u8..3), 0..12),
                1..=4,
            ),
        ) {
            let order: Vec<DeviceId> = order.into_iter().map(DeviceId).collect();
            let mut tag = 0u64;
            let reports: Vec<RoundReport> = partials
                .iter()
                .map(|outcomes| RoundReport {
                    outcomes: outcomes
                        .iter()
                        .map(|&(raw, kind)| {
                            // Every outcome is distinct, so any
                            // reordering shows. Ids 12 and 13 are never
                            // challenged; 14 and up are unattributable.
                            tag += 1;
                            let result = match kind {
                                0 => Err(FleetError::NoResponse(DeviceId(tag))),
                                1 => Err(FleetError::NoSession(DeviceId(tag))),
                                _ => Err(FleetError::Frame(
                                    apex_pox::wire::WireError::TrailingBytes(tag as usize),
                                )),
                            };
                            RoundOutcome {
                                device: (raw < 14).then_some(DeviceId(raw)),
                                result,
                            }
                        })
                        .collect(),
                })
                .collect();
            proptest::prop_assert_eq!(
                merge_reports(&order, reports.clone()),
                merge_by_buckets(&order, reports)
            );
        }
    }

    /// One scripted read outcome of a [`ScriptedConn`].
    enum Step {
        Bytes(Vec<u8>),
        Eof,
    }

    /// A prover connection that answers each read with the next
    /// scripted step and `WouldBlock` once the script runs dry, counts
    /// its reads, and records every byte written to it.
    #[derive(Default)]
    struct ScriptedConn {
        script: std::collections::VecDeque<Step>,
        reads: usize,
        written: Vec<u8>,
    }

    impl std::io::Read for ScriptedConn {
        fn read(&mut self, buf: &mut [u8]) -> std::io::Result<usize> {
            self.reads += 1;
            match self.script.pop_front() {
                Some(Step::Bytes(bytes)) => {
                    assert!(bytes.len() < buf.len(), "each scripted read is short");
                    buf[..bytes.len()].copy_from_slice(&bytes);
                    Ok(bytes.len())
                }
                Some(Step::Eof) => Ok(0),
                None => Err(std::io::ErrorKind::WouldBlock.into()),
            }
        }
    }

    impl std::io::Write for ScriptedConn {
        fn write(&mut self, buf: &[u8]) -> std::io::Result<usize> {
            self.written.extend_from_slice(buf);
            Ok(buf.len())
        }
        fn flush(&mut self) -> std::io::Result<()> {
            Ok(())
        }
    }

    impl GatewayConn for ScriptedConn {
        fn prepare(&mut self) -> std::io::Result<()> {
            Ok(())
        }
    }

    /// A read shorter than a chunk ends that connection's reads for the
    /// sweep, and the rest arrives on later sweeps: every frame is
    /// still concluded, and the EOF that follows still reaps the slot
    /// and charges the device whose challenge it carried `NoResponse`.
    #[test]
    fn short_reads_end_the_sweep_and_eof_still_charges_the_carried_devices() {
        use crate::Loopback;
        use apex_pox::wire::frame_stream;
        use asap::{Device, PoxMode};

        let image = asap::programs::fig4_authorized().unwrap();
        let fleet = FleetVerifier::new();
        let mut fabric = Loopback::new();
        let ids: Vec<DeviceId> = (1..=3).map(DeviceId).collect();
        for &id in &ids {
            let key = id.0.to_le_bytes();
            let mut device = Device::builder(&image).key(&key).build().unwrap();
            assert!(device.run_until_pc(asap::programs::done_pc(), 10_000));
            fabric.attach(id, device);
            let spec = VerifierSpec::from_image(&image)
                .unwrap()
                .mode(PoxMode::Asap);
            fleet.register(id, &key, spec).unwrap();
        }
        let route = Mutex::new(RouteMap::new());
        let (mates, _inboxes): (Vec<Sender<ReactorMsg<ScriptedConn>>>, Vec<_>) =
            (0..1).map(|_| std::sync::mpsc::channel()).unzip();
        let hellos: Vec<u8> = ids
            .iter()
            .flat_map(|id| frame_stream(&Envelope::wrap(id.0, Vec::new()).to_bytes()))
            .collect();
        let mut run = ReactorRun::new(0, 1, &fleet, &route, &mates);
        run.adopt(ScriptedConn {
            script: [Step::Bytes(hellos)].into(),
            ..ScriptedConn::default()
        });
        run.pending_begins.push(RoundStart {
            epoch: 0,
            partition: ids.clone(),
            budget: Duration::from_secs(60),
            started: Instant::now(),
        });
        run.start_pending_epochs();
        run.pump_transmits();
        assert_eq!(run.parked.len(), 3, "no route yet: every challenge parks");

        // Sweep 1: the hellos route all three devices, and their
        // challenges go out on the connection.
        run.sweep_reads();
        run.sweep_writes_and_reap();
        let conn = &mut run.conns[0].as_mut().unwrap().stream;
        assert_eq!(conn.reads, 1, "a short read ends the sweep's reads");
        let mut deframer = StreamDeframer::new();
        deframer.extend(&conn.written);
        let mut responses = IdMap::default();
        while let Some(frame) = deframer.next_frame().unwrap() {
            let id = DeviceId(Envelope::parse(frame).unwrap().0);
            responses.insert(id, fabric.exchange(id, frame).unwrap());
        }
        assert_eq!(responses.len(), 3, "every challenge was delivered");

        // Device 1 answers now, device 2 one sweep later, and then the
        // peer hangs up without device 3 ever answering.
        conn.script.extend([
            Step::Bytes(frame_stream(&responses[&DeviceId(1)])),
            Step::Bytes(frame_stream(&responses[&DeviceId(2)])),
            Step::Eof,
        ]);
        for (sweep, awaiting) in [(2, 2), (3, 1)] {
            run.sweep_reads();
            run.conclude_inbound();
            run.sweep_writes_and_reap();
            let conn = &run.conns[0].as_ref().expect("still connected").stream;
            assert_eq!(conn.reads, sweep, "one read per sweep");
            assert_eq!(run.engines[0].engine.awaiting(), awaiting);
        }
        run.sweep_reads();
        run.conclude_inbound();
        run.sweep_writes_and_reap();
        assert!(run.conns[0].is_none(), "EOF reaps the slot");
        assert_eq!(run.dropped_total, 1);

        let mut done = run.harvest_settled();
        assert_eq!(done.len(), 1, "the epoch settled");
        let (_, report, _) = done.pop().unwrap();
        let verdicts: Vec<(Option<DeviceId>, bool)> = report
            .outcomes
            .iter()
            .map(|o| (o.device, o.result.is_ok()))
            .collect();
        assert_eq!(
            verdicts,
            [
                (Some(DeviceId(1)), true),
                (Some(DeviceId(2)), true),
                (Some(DeviceId(3)), false)
            ]
        );
        assert_eq!(
            report.outcomes[2].result,
            Err(FleetError::NoResponse(DeviceId(3)))
        );
        assert_eq!(fleet.in_flight(), 0);
    }
}
