//! The sans-IO round engine: the whole fleet-round protocol as a pure
//! state machine.
//!
//! [`RoundEngine`] contains **no I/O, no threads, no sleeps and no
//! wall-clock reads**. Callers feed it events — [`frame_received`] for
//! every frame the transport produced, [`tick`] whenever *logical* time
//! advances — and drain actions: [`poll_transmit`] for frames to put on
//! the wire, [`poll_outcome`] for per-device verdicts as they settle.
//! Because time is injected as [`LogicalTime`], identical event
//! schedules yield identical [`RoundReport`]s, byte for byte, on every
//! run: a dropped response resolves to [`FleetError::NoResponse`]
//! purely because a `tick` crossed the device's deadline, never because
//! a socket blocked or a timer fired.
//!
//! Three drivers feed the engine:
//!
//! * [`FleetVerifier::run_round`], the lock-step reference over an
//!   in-memory [`Loopback`](crate::Loopback);
//! * the socket reactors of [`FleetRuntime`](crate::FleetRuntime),
//!   which map elapsed wall-clock milliseconds onto ticks;
//! * a scripted event schedule (the scenario harness in `asap-bench`,
//!   and the tests), where late and out-of-order deliveries are just
//!   events at chosen ticks.
//!
//! [`frame_received`]: RoundEngine::frame_received
//! [`tick`]: RoundEngine::tick
//! [`poll_transmit`]: RoundEngine::poll_transmit
//! [`poll_outcome`]: RoundEngine::poll_outcome
//! [`FleetVerifier::run_round`]: crate::FleetVerifier::run_round

use crate::error::FleetError;
use crate::idhash::IdSet;
use crate::registry::FleetVerifier;
use crate::round::{RoundOutcome, RoundReport};
use crate::DeviceId;
use asap::Attested;
use std::collections::VecDeque;

/// A point in injected, driver-defined time.
///
/// The engine never interprets the unit: a lock-step driver uses one
/// tick for "the round is over", a socket driver maps elapsed
/// milliseconds, a scenario schedule uses abstract steps. Only the
/// order matters.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct LogicalTime(pub u64);

impl LogicalTime {
    /// This time advanced by `ticks`.
    pub fn plus(self, ticks: u64) -> LogicalTime {
        LogicalTime(self.0.saturating_add(ticks))
    }
}

/// Deadline policy for one round.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct RoundConfig {
    /// The logical instant the round starts at.
    pub started_at: LogicalTime,
    /// Ticks after `started_at` at which an unanswered device is
    /// charged [`FleetError::NoResponse`]. A response received strictly
    /// before the deadline instant is in time.
    pub deadline_after: u64,
}

impl RoundConfig {
    /// A round starting at `started_at` whose devices must answer
    /// within `deadline_after` ticks.
    pub fn new(started_at: LogicalTime, deadline_after: u64) -> RoundConfig {
        RoundConfig {
            started_at,
            deadline_after,
        }
    }

    /// The lock-step policy: the round starts at time zero and the
    /// *first* tick expires every unanswered device — "judge what has
    /// arrived, charge the rest", the policy of
    /// [`FleetVerifier::run_round`].
    pub fn lockstep() -> RoundConfig {
        RoundConfig::new(LogicalTime(0), 0)
    }

    /// The real-time policy: a wall-clock response budget mapped onto
    /// millisecond ticks, starting at time zero. The tick count is the
    /// budget rounded **up** to whole milliseconds, and never below
    /// one: flooring (`budget.as_millis()`) would turn any
    /// sub-millisecond budget into a zero-tick deadline, and the
    /// driver's very first `tick` — before a single frame has been
    /// read — would charge every device
    /// [`FleetError::NoResponse`].
    pub fn realtime(budget: std::time::Duration) -> RoundConfig {
        let ticks = budget.as_micros().div_ceil(1_000).max(1);
        RoundConfig::new(LogicalTime(0), u64::try_from(ticks).unwrap_or(u64::MAX))
    }
}

impl Default for RoundConfig {
    fn default() -> RoundConfig {
        RoundConfig::lockstep()
    }
}

/// One queued challenge: its device and the byte span it occupies in
/// the engine's transmit arena. 16 bytes per pending challenge, instead
/// of a `Vec` allocation each.
#[derive(Debug, Clone, Copy)]
struct TxSpan {
    device: DeviceId,
    start: u32,
    len: u32,
}

/// A fleet round as a pure state machine over a [`FleetVerifier`].
///
/// See the [module docs](self) for the event/action contract. The
/// engine borrows the fleet registry — all session bookkeeping lives
/// there, so direct [`FleetVerifier::begin`]/[`conclude`] calls and
/// engine-driven rounds observe the same sessions.
///
/// Per-device state is kept on a diet for very large cohorts: queued
/// challenge frames live end-to-end in **one arena allocation**
/// (released once the transmit queue drains), the challenge order is a
/// bare `Vec<DeviceId>` (8 bytes per device), the awaited set costs one
/// set entry per awaited device, and every awaited device shares the
/// one round deadline. The set makes every settlement and every "is
/// this device awaited?" O(1); the order `Vec` keeps expiry
/// deterministic.
///
/// [`conclude`]: FleetVerifier::conclude
pub struct RoundEngine<'a> {
    fleet: &'a FleetVerifier,
    /// Challenge frames awaiting transmission, packed end-to-end.
    tx_arena: Vec<u8>,
    /// Spans into `tx_arena`, in challenge order.
    pending_tx: VecDeque<TxSpan>,
    /// Devices whose queued challenge must no longer reach the wire
    /// (evicted mid-round). Empty unless membership churned.
    cancelled_tx: IdSet<DeviceId>,
    /// Every device this round challenged, in challenge order — the
    /// order expiry walks, so it is deterministic. Settled devices stay
    /// listed; `awaited` says who is still owed.
    challenged: Vec<DeviceId>,
    /// Challenged devices still owed a response.
    awaited: IdSet<DeviceId>,
    /// The round deadline every awaited device shares.
    deadline: LogicalTime,
    /// Every settled verdict, in settlement order, for the final report.
    outcomes: Vec<RoundOutcome>,
    /// How many of `outcomes` were already drained by `poll_outcome`.
    drained: usize,
    now: LogicalTime,
    /// The registry membership generation this engine last reconciled
    /// against ([`RoundEngine::sync_membership`]).
    seen_generation: u64,
}

impl<'a> RoundEngine<'a> {
    /// Starts a round: issues one fresh challenge per device (first
    /// occurrence wins, as in [`FleetVerifier::begin_round`]) and
    /// queues the request frames for [`poll_transmit`]. Every device's
    /// deadline is `config.started_at + config.deadline_after`. A
    /// device removed from the fleet while the call runs settles as
    /// [`FleetError::Evicted`].
    ///
    /// # Errors
    ///
    /// [`FleetError::UnknownDevice`] before any challenge is issued.
    ///
    /// [`poll_transmit`]: RoundEngine::poll_transmit
    pub fn begin(
        fleet: &'a FleetVerifier,
        ids: &[DeviceId],
        config: RoundConfig,
    ) -> Result<RoundEngine<'a>, FleetError> {
        if let Some(&id) = ids.iter().find(|&&id| !fleet.is_registered(id)) {
            return Err(FleetError::UnknownDevice(id));
        }
        Ok(RoundEngine::begin_settling_leavers(fleet, ids, config))
    }

    /// [`begin`](RoundEngine::begin) in one pass over ids validated
    /// earlier (by [`FleetRuntime::submit_round`]): each device is issued
    /// with one shard visit and deduplicated straight into the awaited
    /// set, and a device that left the fleet since its validation is
    /// settled as [`FleetError::Evicted`] in this round — the verdict a
    /// leave landing one sweep later draws from membership sync.
    ///
    /// [`FleetRuntime::submit_round`]: crate::FleetRuntime::submit_round
    pub(crate) fn begin_settling_leavers(
        fleet: &'a FleetVerifier,
        ids: &[DeviceId],
        config: RoundConfig,
    ) -> RoundEngine<'a> {
        // Snapshot the membership generation *before* issuing, so an
        // eviction racing the challenge issuance is caught by the first
        // `sync_membership` sweep rather than slipping between the two.
        let seen_generation = fleet.membership_generation();
        let mut tx_arena = Vec::new();
        let mut awaited = IdSet::with_capacity_and_hasher(ids.len(), Default::default());
        let (spans, left) = fleet.begin_round_packed(ids, &mut tx_arena, &mut awaited);
        let challenged: Vec<DeviceId> = spans.iter().map(|&(device, _, _)| device).collect();
        let pending_tx = spans
            .into_iter()
            .map(|(device, start, len)| TxSpan { device, start, len })
            .collect();
        // One verdict per challenged or departed device, reserved once
        // rather than regrown by doubling on the reactor thread.
        let outcomes = Vec::with_capacity(challenged.len() + left.len());
        let mut engine = RoundEngine {
            fleet,
            tx_arena,
            pending_tx,
            cancelled_tx: IdSet::default(),
            challenged,
            awaited,
            deadline: config.started_at.plus(config.deadline_after),
            outcomes,
            drained: 0,
            now: config.started_at,
            seen_generation,
        };
        for id in left {
            engine.settle(RoundOutcome {
                device: Some(id),
                result: Err(FleetError::Evicted(id)),
            });
        }
        engine
    }

    /// The next request frame to put on the wire, with its destination,
    /// borrowed from the engine's transmit arena. Challenges cancelled
    /// by a mid-round eviction are skipped; the poll that finds the
    /// queue drained releases the arena.
    pub fn poll_transmit(&mut self) -> Option<(DeviceId, &[u8])> {
        while let Some(span) = self.pending_tx.pop_front() {
            if self.cancelled_tx.contains(&span.device) {
                continue;
            }
            let start = span.start as usize;
            return Some((
                span.device,
                &self.tx_arena[start..start + span.len as usize],
            ));
        }
        self.tx_arena = Vec::new();
        None
    }

    /// The next settled verdict, in settlement order. Draining is
    /// optional — [`into_report`](RoundEngine::into_report) always
    /// carries every outcome, drained or not.
    pub fn poll_outcome(&mut self) -> Option<RoundOutcome> {
        let outcome = self.outcomes.get(self.drained)?.clone();
        self.drained += 1;
        Some(outcome)
    }

    /// Absorbs one response frame from the transport and settles the
    /// session it answers.
    ///
    /// Every frame yields exactly one outcome: a verdict for the device
    /// it attributes to, or an unattributable-[`Frame`] outcome when
    /// the envelope does not decode. A frame for a device whose
    /// deadline already passed settles as [`NoSession`] — the engine
    /// charged it [`NoResponse`] when the deadline expired, and late
    /// evidence does not reopen a closed verdict.
    ///
    /// [`Frame`]: FleetError::Frame
    /// [`NoSession`]: FleetError::NoSession
    /// [`NoResponse`]: FleetError::NoResponse
    pub fn frame_received(&mut self, frame: &[u8]) {
        let (device, result) = self.fleet.conclude(frame);
        self.outcome_received(device, result);
    }

    /// Absorbs one *already-concluded* verdict — the half of
    /// [`frame_received`](RoundEngine::frame_received) below the
    /// [`FleetVerifier::conclude`] call. Drivers that conclude frames
    /// elsewhere (say, a whole batch via
    /// [`FleetVerifier::conclude_batch`]) inject the results here, in
    /// whatever order the report should record them.
    pub fn outcome_received(
        &mut self,
        device: Option<DeviceId>,
        result: Result<Attested, FleetError>,
    ) {
        if let Some(id) = device {
            self.awaited.remove(&id);
        }
        self.settle(RoundOutcome { device, result });
    }

    /// Settles one still-awaited device as [`FleetError::NoResponse`]
    /// *now*, without waiting for its deadline, aborting its in-flight
    /// session — the verdict for a device whose only path to the
    /// verifier is gone (its connection hung up or turned hostile).
    /// Returns whether the device was actually awaited; a device that
    /// already settled is left untouched.
    pub fn charge_no_response(&mut self, id: DeviceId) -> bool {
        self.charge(id, FleetError::NoResponse(id))
    }

    fn charge(&mut self, id: DeviceId, verdict: FleetError) -> bool {
        if !self.awaited.remove(&id) {
            return false;
        }
        self.cancelled_tx.insert(id);
        self.fleet.abort(id);
        self.settle(RoundOutcome {
            device: Some(id),
            result: Err(verdict),
        });
        true
    }

    /// Reconciles the awaited set against fleet membership: every
    /// still-awaited device that is no longer enrolled — evicted by
    /// [`FleetVerifier::remove`] while this round was in flight — is
    /// settled as [`FleetError::Evicted`] immediately, and its queued
    /// challenge (if untransmitted) is cancelled. Returns how many
    /// devices were charged.
    ///
    /// Cheap to call every sweep: the registry's membership generation
    /// is compared first, so the rescan only runs when a removal
    /// actually happened since the last call.
    pub fn sync_membership(&mut self) -> usize {
        let generation = self.fleet.membership_generation();
        if generation == self.seen_generation {
            return 0;
        }
        self.seen_generation = generation;
        let gone: Vec<DeviceId> = self
            .challenged
            .iter()
            .copied()
            .filter(|id| self.awaited.contains(id) && !self.fleet.is_registered(*id))
            .collect();
        for &id in &gone {
            self.charge(id, FleetError::Evicted(id));
        }
        gone.len()
    }

    /// The fleet registry this round runs against.
    pub fn fleet(&self) -> &'a FleetVerifier {
        self.fleet
    }

    /// Advances logical time to `now` (never backwards) and, once the
    /// round deadline is at or before `now`, charges
    /// [`FleetError::NoResponse`] to every awaited device, aborting its
    /// in-flight session.
    pub fn tick(&mut self, now: LogicalTime) {
        self.now = self.now.max(now);
        if self.deadline <= self.now {
            self.expire_awaiting();
        }
    }

    /// Charges [`FleetError::NoResponse`] to every awaited device, in
    /// challenge order, aborting its in-flight session.
    fn expire_awaiting(&mut self) {
        if self.awaited.is_empty() {
            return;
        }
        for id in std::mem::take(&mut self.challenged) {
            if !self.awaited.remove(&id) {
                continue;
            }
            self.fleet.abort(id);
            self.settle(RoundOutcome {
                device: Some(id),
                result: Err(FleetError::NoResponse(id)),
            });
        }
    }

    /// The round deadline while any device is awaited — the latest
    /// instant the driver must `tick` at, even if the transport stays
    /// silent forever.
    pub fn next_deadline(&self) -> Option<LogicalTime> {
        (!self.awaited.is_empty()).then_some(self.deadline)
    }

    /// The engine's current logical time.
    pub fn now(&self) -> LogicalTime {
        self.now
    }

    /// Number of challenged devices not yet settled.
    pub fn awaiting(&self) -> usize {
        self.awaited.len()
    }

    /// True when `id` was challenged this round and has not settled yet.
    pub fn is_awaiting(&self, id: DeviceId) -> bool {
        self.awaited.contains(&id)
    }

    /// True when every challenged device has settled (answered or
    /// expired) and nothing remains to transmit.
    pub fn is_settled(&self) -> bool {
        self.awaited.is_empty() && self.pending_tx.is_empty()
    }

    /// Consumes the engine into the round's report: every outcome, in
    /// settlement order. Devices still awaiting (the driver stopped
    /// before their deadline) have their sessions aborted and are
    /// charged [`FleetError::NoResponse`], so no round ever leaks
    /// sessions.
    pub fn into_report(mut self) -> RoundReport {
        self.expire_awaiting();
        RoundReport {
            outcomes: self.outcomes,
        }
    }

    fn settle(&mut self, outcome: RoundOutcome) {
        self.outcomes.push(outcome);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use apex_pox::wire::WireError;
    use asap::VerifierSpec;
    use std::sync::{Arc, OnceLock};

    /// The engine's bookkeeping as it was before the awaited set: one
    /// challenge-order `Vec`, scanned with `retain` and `contains` on
    /// every outcome. The set-based engine must match it step for step.
    struct VecModel<'a> {
        fleet: &'a FleetVerifier,
        pending_tx: VecDeque<(DeviceId, Vec<u8>)>,
        cancelled_tx: IdSet<DeviceId>,
        awaiting: Vec<DeviceId>,
        deadline: LogicalTime,
        outcomes: Vec<RoundOutcome>,
        now: LogicalTime,
        seen_generation: u64,
    }

    impl<'a> VecModel<'a> {
        fn begin(fleet: &'a FleetVerifier, ids: &[DeviceId], config: RoundConfig) -> Self {
            let seen_generation = fleet.membership_generation();
            let frames = fleet.begin_round(ids).unwrap();
            VecModel {
                fleet,
                awaiting: frames.iter().map(|&(id, _)| id).collect(),
                pending_tx: frames.into_iter().collect(),
                cancelled_tx: IdSet::default(),
                deadline: config.started_at.plus(config.deadline_after),
                outcomes: Vec::new(),
                now: config.started_at,
                seen_generation,
            }
        }

        fn poll_transmit(&mut self) -> Option<(DeviceId, Vec<u8>)> {
            while let Some((id, frame)) = self.pending_tx.pop_front() {
                if !self.cancelled_tx.contains(&id) {
                    return Some((id, frame));
                }
            }
            None
        }

        fn outcome_received(
            &mut self,
            device: Option<DeviceId>,
            result: Result<Attested, FleetError>,
        ) {
            if let Some(id) = device {
                self.awaiting.retain(|&d| d != id);
            }
            self.outcomes.push(RoundOutcome { device, result });
        }

        fn charge(&mut self, id: DeviceId, verdict: FleetError) -> bool {
            let before = self.awaiting.len();
            self.awaiting.retain(|&d| d != id);
            if self.awaiting.len() == before {
                return false;
            }
            self.cancelled_tx.insert(id);
            self.fleet.abort(id);
            self.outcomes.push(RoundOutcome {
                device: Some(id),
                result: Err(verdict),
            });
            true
        }

        fn sync_membership(&mut self) -> usize {
            let generation = self.fleet.membership_generation();
            if generation == self.seen_generation {
                return 0;
            }
            self.seen_generation = generation;
            let gone: Vec<DeviceId> = self
                .awaiting
                .iter()
                .copied()
                .filter(|&id| !self.fleet.is_registered(id))
                .collect();
            for &id in &gone {
                self.charge(id, FleetError::Evicted(id));
            }
            gone.len()
        }

        fn tick(&mut self, now: LogicalTime) {
            self.now = self.now.max(now);
            if self.deadline <= self.now {
                self.expire();
            }
        }

        fn expire(&mut self) {
            for id in std::mem::take(&mut self.awaiting) {
                self.fleet.abort(id);
                self.outcomes.push(RoundOutcome {
                    device: Some(id),
                    result: Err(FleetError::NoResponse(id)),
                });
            }
        }

        fn is_settled(&self) -> bool {
            self.awaiting.is_empty() && self.pending_tx.is_empty()
        }

        fn next_deadline(&self) -> Option<LogicalTime> {
            (!self.awaiting.is_empty()).then_some(self.deadline)
        }

        fn into_report(mut self) -> RoundReport {
            self.expire();
            RoundReport {
                outcomes: self.outcomes,
            }
        }
    }

    /// Enrolled ids; ids past `ENROLLED` are never enrolled.
    const ENROLLED: u64 = 8;

    /// `RoundEngine::begin` before the single-pass begin: every id
    /// validated up front, deduplicated into a `seen` set and issued
    /// (what [`FleetVerifier::begin_round`] still does), then the
    /// awaited set built from the challenge order.
    fn begin_two_pass<'a>(
        fleet: &'a FleetVerifier,
        ids: &[DeviceId],
        config: RoundConfig,
    ) -> Result<RoundEngine<'a>, FleetError> {
        let seen_generation = fleet.membership_generation();
        let frames = fleet.begin_round(ids)?;
        let mut tx_arena = Vec::new();
        let mut pending_tx = VecDeque::new();
        for (device, frame) in &frames {
            let (start, len) = (tx_arena.len() as u32, frame.len() as u32);
            pending_tx.push_back(TxSpan {
                device: *device,
                start,
                len,
            });
            tx_arena.extend_from_slice(frame);
        }
        let challenged: Vec<DeviceId> = frames.iter().map(|&(id, _)| id).collect();
        Ok(RoundEngine {
            fleet,
            tx_arena,
            pending_tx,
            cancelled_tx: IdSet::default(),
            awaited: challenged.iter().copied().collect(),
            challenged,
            deadline: config.started_at.plus(config.deadline_after),
            outcomes: Vec::new(),
            drained: 0,
            now: config.started_at,
            seen_generation,
        })
    }

    /// The reactor's begin before the single-pass begin: the two-pass
    /// begin, and when a device had left since validation, the
    /// `begin_without_leavers` retry — begin the devices still enrolled,
    /// then settle each leaver as `Evicted`.
    fn begin_with_retry<'a>(
        fleet: &'a FleetVerifier,
        partition: &[DeviceId],
        config: RoundConfig,
    ) -> RoundEngine<'a> {
        if let Ok(engine) = begin_two_pass(fleet, partition, config) {
            return engine;
        }
        loop {
            let (enrolled, left): (Vec<DeviceId>, Vec<DeviceId>) =
                partition.iter().partition(|&&id| fleet.is_registered(id));
            if let Ok(mut engine) = begin_two_pass(fleet, &enrolled, config) {
                for id in left {
                    engine.settle(RoundOutcome {
                        device: Some(id),
                        result: Err(FleetError::Evicted(id)),
                    });
                }
                return engine;
            }
        }
    }

    /// What a begun round shows from outside: the registry's in-flight
    /// and the engine's awaiting counts after the begin, after half the
    /// transmits, after a mid-round eviction sweep (with the sweep's own
    /// count) and after the report; every transmitted frame; and the
    /// report once the deadline passes.
    type Observed = (Vec<usize>, Vec<(DeviceId, Vec<u8>)>, RoundReport);

    fn drive(mut engine: RoundEngine<'_>, evict: &[DeviceId]) -> Observed {
        let fleet = engine.fleet();
        let mut in_flight = vec![fleet.in_flight(), engine.awaiting()];
        let mut sent = Vec::new();
        for _ in 0..engine.pending_tx.len() / 2 {
            sent.extend(engine.poll_transmit().map(|(id, f)| (id, f.to_vec())));
        }
        in_flight.push(fleet.in_flight());
        for &id in evict {
            fleet.remove(id);
        }
        in_flight.push(engine.sync_membership());
        while let Some((id, frame)) = engine.poll_transmit() {
            sent.push((id, frame.to_vec()));
        }
        in_flight.extend([fleet.in_flight(), engine.awaiting()]);
        engine.tick(LogicalTime(u64::MAX));
        let report = engine.into_report();
        in_flight.push(fleet.in_flight());
        (in_flight, sent, report)
    }

    fn fleet() -> FleetVerifier {
        static SPEC: OnceLock<Arc<VerifierSpec>> = OnceLock::new();
        let spec = SPEC.get_or_init(|| {
            let image = asap::programs::fig4_authorized().unwrap();
            Arc::new(VerifierSpec::from_image(&image).unwrap())
        });
        let fleet = FleetVerifier::new();
        for id in 1..=ENROLLED {
            fleet
                .register_shared(DeviceId(id), b"k", Arc::clone(spec))
                .unwrap();
        }
        fleet
    }

    proptest::proptest! {
        /// Over random partitions with duplicates, some of whose devices
        /// leave after validation and before the begin, and more during
        /// the round: the reactor's single-pass begin and the two-pass
        /// begin plus its retry loop give the same in-flight counts,
        /// the same transmits and the same report. The public `begin`
        /// still refuses such a partition exactly as the two-pass begin
        /// did, and matches it on one with no leavers.
        #[test]
        fn single_pass_begin_matches_the_two_pass_begin_and_retry(
            partition in proptest::collection::vec(1..=ENROLLED, 1..16),
            left in proptest::collection::vec(1..=ENROLLED, 0..4),
            evict in proptest::collection::vec(1..=ENROLLED, 0..3),
        ) {
            let ids: Vec<DeviceId> = partition.into_iter().map(DeviceId).collect();
            let left: Vec<DeviceId> = left.into_iter().map(DeviceId).collect();
            let evict: Vec<DeviceId> = evict.into_iter().map(DeviceId).collect();
            let config = RoundConfig::new(LogicalTime(0), 5);
            let fleets: [FleetVerifier; 4] = std::array::from_fn(|_| fleet());
            for fleet in &fleets {
                for &id in &left {
                    fleet.remove(id);
                }
            }
            let single = RoundEngine::begin_settling_leavers(&fleets[0], &ids, config);
            let reference = begin_with_retry(&fleets[1], &ids, config);
            proptest::prop_assert_eq!(drive(single, &evict), drive(reference, &evict));

            match (
                RoundEngine::begin(&fleets[2], &ids, config),
                begin_two_pass(&fleets[3], &ids, config),
            ) {
                (Ok(public), Ok(reference)) => {
                    proptest::prop_assert_eq!(drive(public, &evict), drive(reference, &evict));
                }
                (public, reference) => {
                    proptest::prop_assert_eq!(public.err(), reference.err());
                    proptest::prop_assert_eq!(fleets[2].in_flight(), 0);
                }
            }
        }

        /// Random interleavings of every bookkeeping event — outcomes
        /// for awaited, already-settled, never-challenged, unknown and
        /// unattributable devices, hangup charges, evictions swept in
        /// by `sync_membership`, transmits and ticks — leave the
        /// set-based engine and the `Vec` model in the same state after
        /// every step, and with the same report at the end, expiry in
        /// challenge order included.
        #[test]
        fn awaited_set_matches_the_vec_model(
            cohort in proptest::collection::vec(1..=ENROLLED, 1..12),
            steps in proptest::collection::vec((0u8..7, 0u64..ENROLLED + 3), 0..40),
            deadline in 1u64..8,
        ) {
            let ids: Vec<DeviceId> = cohort.into_iter().map(DeviceId).collect();
            let (fleet_e, fleet_m) = (fleet(), fleet());
            let config = RoundConfig::new(LogicalTime(0), deadline);
            let mut engine = RoundEngine::begin(&fleet_e, &ids, config).unwrap();
            let mut model = VecModel::begin(&fleet_m, &ids, config);
            for (step, &(op, raw)) in steps.iter().enumerate() {
                let id = DeviceId(raw);
                // Each outcome carries its step, so any reordering shows.
                let tag = Err(FleetError::NoSession(DeviceId(1000 + step as u64)));
                match op {
                    0 => {
                        let sent = engine.poll_transmit().map(|(id, f)| (id, f.to_vec()));
                        proptest::prop_assert_eq!(sent, model.poll_transmit());
                    }
                    1 | 2 => {
                        engine.outcome_received(Some(id), tag.clone());
                        model.outcome_received(Some(id), tag);
                    }
                    3 => {
                        let frame = Err(FleetError::Frame(WireError::BadMagic));
                        engine.outcome_received(None, frame.clone());
                        model.outcome_received(None, frame);
                    }
                    4 => {
                        proptest::prop_assert_eq!(
                            engine.charge_no_response(id),
                            model.charge(id, FleetError::NoResponse(id))
                        );
                    }
                    5 => {
                        proptest::prop_assert_eq!(fleet_e.remove(id), fleet_m.remove(id));
                        proptest::prop_assert_eq!(engine.sync_membership(), model.sync_membership());
                    }
                    _ => {
                        let now = LogicalTime(raw % (deadline + 2));
                        engine.tick(now);
                        model.tick(now);
                    }
                }
                proptest::prop_assert_eq!(engine.awaiting(), model.awaiting.len());
                for raw in 0..ENROLLED + 3 {
                    let id = DeviceId(raw);
                    proptest::prop_assert_eq!(engine.is_awaiting(id), model.awaiting.contains(&id));
                }
                proptest::prop_assert_eq!(engine.is_settled(), model.is_settled());
                proptest::prop_assert_eq!(engine.next_deadline(), model.next_deadline());
                proptest::prop_assert_eq!(fleet_e.in_flight(), fleet_m.in_flight());
            }
            let (report, expected) = (engine.into_report(), model.into_report());
            proptest::prop_assert_eq!(format!("{report:?}"), format!("{expected:?}"));
            proptest::prop_assert_eq!(report, expected);
            proptest::prop_assert_eq!(fleet_e.in_flight(), fleet_m.in_flight());
        }
    }
}
