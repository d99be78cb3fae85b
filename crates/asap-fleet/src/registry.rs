//! The sharded fleet verifier: many per-device [`AsapVerifier`]s behind
//! an array of independently locked shards.
//!
//! Scale shape: a session costs the registry **two shard visits** — one
//! to issue its challenge, one to conclude its evidence — each one lock
//! of one shard and one lookup, plus (for conclusion) a MAC
//! recomputation. The shard table is a fixed array of [`SHARD_COUNT`]
//! mutexes, the shard picked by a multiplicative hash of the device id,
//! and the MAC work runs on a clone of the device's verifier *outside*
//! any lock. Two sessions on devices in different shards therefore never
//! contend at all, and even same-shard devices only serialize the cheap
//! lookups, not the crypto. Because the table never changes size, a
//! device's shard and reactor ([`FleetVerifier::reactor_of`]) are fixed
//! for the registry's whole life: no enrollment, however large, reroutes
//! a round in flight.
//!
//! The shard maps, like every map and set the crate keys by ids the
//! operator enrolled or the verifier challenged (the engine's awaited
//! set, the reactors' delivery records, the directory's states), hash a
//! device id with one folded multiply under per-process secrets rather
//! than SipHash: about 1.5 ns per hash instead of 13–19 ns on a 2-vCPU
//! Xeon host. Only the runtime's route map keeps SipHash, because its
//! keys arrive in hellos that any peer can send.
//!
//! Conclusion always runs on the calling thread. Inside a
//! [`FleetRuntime`](crate::FleetRuntime), each reactor concludes its
//! own devices, whose shards no other reactor touches, so the reactors
//! are the parallelism.
//!
//! Membership can churn while rounds are in flight:
//! [`remove`](FleetVerifier::remove) bumps a fleet-wide *membership
//! generation* that [`RoundEngine::sync_membership`] watches, so an
//! evicted device's round resolves deterministically as
//! [`FleetError::Evicted`] instead of dangling to its deadline.

use crate::engine::{RoundConfig, RoundEngine};
use crate::error::FleetError;
use crate::idhash::{IdMap, IdSet};
use crate::round::RoundReport;
use crate::transport::Loopback;
use crate::DeviceId;
use apex_pox::protocol::PoxRequest;
use apex_pox::wire::{Envelope, WireError, ENVELOPE_OVERHEAD};
use asap::session::{Issued, PoxSession};
use asap::{AsapVerifier, Attested, VerifierSpec};
use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering};
use std::sync::{Arc, Mutex};

/// Number of registry shards, fixed for the registry's whole life:
/// shard selection ([`FleetVerifier::shard_of`]) is a pure function of
/// the device id, so a device never changes shard or reactor.
pub const SHARD_COUNT: usize = 16;

/// One concluded frame: the device it was attributed to (when the
/// envelope decoded) and the per-device verdict.
pub type Verdict = (Option<DeviceId>, Result<Attested, FleetError>);

/// One enrolled device: its verifier (key + spec + challenge counter)
/// and the session in flight, if any.
struct DeviceEntry {
    verifier: AsapVerifier,
    in_flight: Option<PoxSession<Issued>>,
}

#[derive(Default)]
struct Shard {
    devices: IdMap<DeviceId, DeviceEntry>,
}

/// A batch of evidence frames, each decoded once: the payloads lie end
/// to end in one byte arena, and each frame is one item — the device
/// its envelope names (or why the envelope did not decode) plus its
/// payload's span. A reactor fills one per sweep and reuses it.
#[derive(Debug, Default)]
pub(crate) struct EvidenceBatch {
    bytes: Vec<u8>,
    items: Vec<(Result<DeviceId, WireError>, usize, usize)>,
}

impl EvidenceBatch {
    /// Adds one decoded frame: `payload` under device `id`.
    pub(crate) fn push(&mut self, id: DeviceId, payload: &[u8]) {
        self.items.push((Ok(id), self.bytes.len(), payload.len()));
        self.bytes.extend_from_slice(payload);
    }

    /// Adds one frame whose envelope did not decode.
    pub(crate) fn push_unattributable(&mut self, error: WireError) {
        self.items.push((Err(error), self.bytes.len(), 0));
    }

    pub(crate) fn len(&self) -> usize {
        self.items.len()
    }

    pub(crate) fn is_empty(&self) -> bool {
        self.items.is_empty()
    }

    /// Empties the batch, keeping both allocations for the next sweep.
    pub(crate) fn clear(&mut self) {
        self.bytes.clear();
        self.items.clear();
    }
}

/// A verifier for a whole fleet of provers, keyed by [`DeviceId`].
///
/// All methods take `&self`: the registry is internally synchronized
/// and meant to be shared across verifier threads (`FleetVerifier` is
/// `Send + Sync`). See the [module docs](self) for the locking story,
/// and [`crate`] docs for a full loopback walk-through.
pub struct FleetVerifier {
    /// The shard table, fixed at [`SHARD_COUNT`] entries.
    shards: Box<[Mutex<Shard>]>,
    /// The [`parallelism`](FleetVerifier::parallelism) knob; `0` means
    /// "follow [`std::thread::available_parallelism`]".
    conclude_workers: AtomicUsize,
    /// Bumped on every [`remove`](FleetVerifier::remove):
    /// [`RoundEngine::sync_membership`] rescans its awaited devices only
    /// when this moved, so churn detection is one atomic load per sweep
    /// in the steady state.
    churn_generation: AtomicU64,
}

impl Default for FleetVerifier {
    fn default() -> FleetVerifier {
        FleetVerifier::new()
    }
}

impl FleetVerifier {
    /// An empty fleet over [`SHARD_COUNT`] shards.
    pub fn new() -> FleetVerifier {
        FleetVerifier {
            shards: (0..SHARD_COUNT).map(|_| Mutex::default()).collect(),
            conclude_workers: AtomicUsize::new(0),
            churn_generation: AtomicU64::new(0),
        }
    }

    /// Which registry shard holds `id` — a pure function of the id, so
    /// a device keeps its shard (and its reactor) for the registry's
    /// whole life.
    pub fn shard_of(&self, id: DeviceId) -> usize {
        // Fibonacci hashing: spreads dense (0, 1, 2, …) id assignments
        // across shards instead of clustering them modulo the count.
        let h = id.0.wrapping_mul(0x9E37_79B9_7F4A_7C15);
        (h >> 32) as usize % SHARD_COUNT
    }

    /// Which of `reactors` reactor threads owns `id`'s round state in a
    /// [`FleetRuntime`](crate::FleetRuntime).
    ///
    /// Affinity rides the shard hash: reactor `r` owns exactly the
    /// shards `s` with `s % reactors == r`, so the devices one reactor
    /// concludes live in a disjoint set of registry shards from every
    /// other reactor's — their `conclude` calls never touch the same
    /// shard lock. (With `reactors > SHARD_COUNT` the surplus reactors
    /// own no devices; they still service connections.)
    ///
    /// # Panics
    ///
    /// When `reactors` is zero.
    pub fn reactor_of(&self, id: DeviceId, reactors: usize) -> usize {
        assert!(reactors > 0, "a runtime needs at least one reactor");
        self.shard_of(id) % reactors
    }

    /// Runs `f` under the lock of the shard that holds `id`.
    fn with_shard<R>(&self, id: DeviceId, f: impl FnOnce(&mut Shard) -> R) -> R {
        f(&mut self.shards[self.shard_of(id)].lock().unwrap())
    }

    /// Sets the [`parallelism`](FleetVerifier::parallelism) knob; `0`
    /// restores the default of following
    /// [`std::thread::available_parallelism`]. The knob sizes no
    /// thread: every reactor of a [`FleetRuntime`](crate::FleetRuntime)
    /// concludes its own evidence inline, so a runtime's parallelism is
    /// its reactor count.
    pub fn set_parallelism(&self, workers: usize) {
        self.conclude_workers.store(workers, Ordering::Relaxed);
    }

    /// The knob set by [`set_parallelism`](FleetVerifier::set_parallelism),
    /// or [`std::thread::available_parallelism`] when unset. Read by
    /// callers that report it; nothing in this crate sizes work by it.
    pub fn parallelism(&self) -> usize {
        match self.conclude_workers.load(Ordering::Relaxed) {
            0 => std::thread::available_parallelism().map_or(1, usize::from),
            n => n,
        }
    }

    /// Enrolls a device under its shared key and image-derived spec.
    ///
    /// # Errors
    ///
    /// [`FleetError::DuplicateDevice`] when the id is already enrolled.
    pub fn register(&self, id: DeviceId, key: &[u8], spec: VerifierSpec) -> Result<(), FleetError> {
        self.register_shared(id, key, Arc::new(spec))
    }

    /// [`register`](FleetVerifier::register) over an already-shared
    /// spec: every device enrolled from the same `Arc` shares one copy
    /// of the expected `ER` bytes. This is the memory diet for large
    /// fleets — a million devices of one image hold a million keys but
    /// a single spec.
    ///
    /// # Errors
    ///
    /// [`FleetError::DuplicateDevice`] when the id is already enrolled.
    pub fn register_shared(
        &self,
        id: DeviceId,
        key: &[u8],
        spec: Arc<VerifierSpec>,
    ) -> Result<(), FleetError> {
        self.with_shard(id, |shard| {
            if shard.devices.contains_key(&id) {
                return Err(FleetError::DuplicateDevice(id));
            }
            shard.devices.insert(
                id,
                DeviceEntry {
                    verifier: AsapVerifier::new_shared(key, spec),
                    in_flight: None,
                },
            );
            Ok(())
        })
    }

    /// Unenrolls a device, dropping any session in flight, and bumps
    /// the [membership generation](FleetVerifier::membership_generation)
    /// so engines mid-round resolve the device as
    /// [`FleetError::Evicted`] on their next sweep. Returns whether the
    /// device was enrolled.
    pub fn remove(&self, id: DeviceId) -> bool {
        let removed = self.with_shard(id, |shard| shard.devices.remove(&id).is_some());
        if removed {
            self.churn_generation.fetch_add(1, Ordering::Release);
        }
        removed
    }

    /// Replaces a device's key in place: a fresh verifier under `key`
    /// sharing the old spec allocation, challenge counter restarted,
    /// any in-flight session aborted (its challenge was MACed under the
    /// dead key and can only conclude as a rejection).
    ///
    /// The device stays enrolled throughout, so no membership
    /// generation bump: a round that challenged it before the rekey
    /// simply expires it at its deadline. Schedulers that want a
    /// cleaner story rekey between rounds — see
    /// [`FleetDirectory`](crate::FleetDirectory), which stages rekeys
    /// to epoch boundaries.
    ///
    /// # Errors
    ///
    /// [`FleetError::UnknownDevice`] when the id is not enrolled.
    pub fn rekey(&self, id: DeviceId, key: &[u8]) -> Result<(), FleetError> {
        self.with_shard(id, |shard| {
            let entry = shard
                .devices
                .get_mut(&id)
                .ok_or(FleetError::UnknownDevice(id))?;
            entry.verifier = entry.verifier.rekeyed(key);
            entry.in_flight = None;
            Ok(())
        })
    }

    /// The fleet-wide membership generation: bumped on every
    /// [`remove`](FleetVerifier::remove).
    /// [`RoundEngine::sync_membership`] compares this against the value
    /// it last saw to decide whether an eviction rescan is due.
    pub fn membership_generation(&self) -> u64 {
        self.churn_generation.load(Ordering::Acquire)
    }

    /// Number of enrolled devices.
    pub fn device_count(&self) -> usize {
        self.shards
            .iter()
            .map(|s| s.lock().unwrap().devices.len())
            .sum()
    }

    /// True when `id` is enrolled.
    pub fn is_registered(&self, id: DeviceId) -> bool {
        self.with_shard(id, |shard| shard.devices.contains_key(&id))
    }

    /// True when `id` has a session awaiting evidence right now.
    pub fn session_pending(&self, id: DeviceId) -> bool {
        self.with_shard(id, |shard| {
            shard
                .devices
                .get(&id)
                .is_some_and(|e| e.in_flight.is_some())
        })
    }

    /// Number of sessions currently awaiting evidence, fleet-wide.
    pub fn in_flight(&self) -> usize {
        self.shards
            .iter()
            .map(|s| {
                s.lock()
                    .unwrap()
                    .devices
                    .values()
                    .filter(|d| d.in_flight.is_some())
                    .count()
            })
            .sum()
    }

    /// Issues a fresh challenge to one device and returns the
    /// enveloped, wire-encoded request frame to deliver to it.
    ///
    /// If a session was already in flight for the device it is
    /// *replaced*: the old challenge becomes stale, and evidence bound
    /// to it will fail the new session's MAC check. (A verifier that
    /// re-challenges has, by definition, given up on the old round.)
    ///
    /// # Errors
    ///
    /// [`FleetError::UnknownDevice`] when the id is not enrolled.
    pub fn begin(&self, id: DeviceId) -> Result<Vec<u8>, FleetError> {
        let mut frame = Vec::with_capacity(ENVELOPE_OVERHEAD as usize + PoxRequest::WIRE_LEN);
        self.issue(id, &mut frame)?;
        Ok(frame)
    }

    /// Issues a fresh challenge to `id` and appends its request frame,
    /// envelope header first, straight to `out`.
    fn issue(&self, id: DeviceId, out: &mut Vec<u8>) -> Result<(), FleetError> {
        self.with_shard(id, |shard| {
            let entry = shard
                .devices
                .get_mut(&id)
                .ok_or(FleetError::UnknownDevice(id))?;
            let session = entry.verifier.begin();
            Envelope::write_header(out, id.0, PoxRequest::WIRE_LEN);
            session.request().write_to(out);
            entry.in_flight = Some(session);
            Ok(())
        })
    }

    /// Issues one challenge per device and returns the request frames,
    /// in input order. A device listed more than once is challenged
    /// once, at its first occurrence — issuing twice would silently
    /// stale the first challenge and turn an honest device's evidence
    /// into a `BadMac` rejection.
    ///
    /// All-or-nothing: ids are validated up front, so an unknown device
    /// fails the call before any challenge is issued and the registry
    /// is left untouched.
    ///
    /// # Errors
    ///
    /// [`FleetError::UnknownDevice`] naming the first unknown id.
    pub fn begin_round(&self, ids: &[DeviceId]) -> Result<Vec<(DeviceId, Vec<u8>)>, FleetError> {
        if let Some(&id) = ids.iter().find(|&&id| !self.is_registered(id)) {
            return Err(FleetError::UnknownDevice(id));
        }
        let mut seen = IdSet::default();
        ids.iter()
            .filter(|&&id| seen.insert(id))
            .map(|&id| Ok((id, self.begin(id)?)))
            .collect()
    }

    /// [`begin_round`](FleetVerifier::begin_round) in one pass and
    /// arena-packed, for [`RoundEngine`]: each device is issued with one
    /// shard visit, its request frame written end to end into `arena`
    /// and described by a returned `(device, start, len)` span, so a
    /// round over a large cohort holds **one** transmit allocation. A
    /// device already in `awaited` is skipped (first occurrence wins) and
    /// every device challenged is added to it.
    ///
    /// There is no up-front check: an id that is not enrolled is skipped
    /// and returned, in input order, for the caller to settle.
    pub(crate) fn begin_round_packed(
        &self,
        ids: &[DeviceId],
        arena: &mut Vec<u8>,
        awaited: &mut IdSet<DeviceId>,
    ) -> (Vec<(DeviceId, u32, u32)>, Vec<DeviceId>) {
        let mut spans = Vec::with_capacity(ids.len());
        let mut unknown = Vec::new();
        arena.reserve(ids.len() * (ENVELOPE_OVERHEAD as usize + PoxRequest::WIRE_LEN));
        for &id in ids {
            if !awaited.insert(id) {
                continue;
            }
            let start = arena.len();
            if self.issue(id, arena).is_err() {
                awaited.remove(&id);
                unknown.push(id);
                continue;
            }
            let span = |n: usize| u32::try_from(n).expect("transmit arena stays under 4 GiB");
            spans.push((id, span(start), span(arena.len() - start)));
        }
        (spans, unknown)
    }

    /// Absorbs one enveloped response frame and concludes the session
    /// it answers.
    ///
    /// Returns the device the frame was attributed to (when the
    /// envelope decoded) and the per-device verdict. The shard lock is
    /// held only while the session is popped; MAC verification runs on
    /// a clone of the device's verifier outside all locks.
    pub fn conclude(&self, frame: &[u8]) -> Verdict {
        match Envelope::parse(frame) {
            Ok((id, payload)) => {
                let id = DeviceId(id);
                (Some(id), self.conclude_evidence(id, payload))
            }
            Err(e) => (None, Err(FleetError::Frame(e))),
        }
    }

    /// Concludes item `i` of an already-decoded batch — the same
    /// conclusion [`conclude`](FleetVerifier::conclude) makes for the
    /// frame it came from.
    pub(crate) fn conclude_at(&self, batch: &EvidenceBatch, i: usize) -> Verdict {
        match &batch.items[i] {
            (Ok(id), start, len) => (
                Some(*id),
                self.conclude_evidence(*id, &batch.bytes[*start..start + len]),
            ),
            (Err(e), ..) => (None, Err(FleetError::Frame(e.clone()))),
        }
    }

    /// The one conclusion path: pops `id`'s in-flight session and judges
    /// the enveloped `payload` against it.
    fn conclude_evidence(&self, id: DeviceId, payload: &[u8]) -> Result<Attested, FleetError> {
        let (verifier, session) = self.with_shard(id, |shard| {
            let Some(entry) = shard.devices.get_mut(&id) else {
                return Err(FleetError::UnknownDevice(id));
            };
            let Some(session) = entry.in_flight.take() else {
                return Err(FleetError::NoSession(id));
            };
            Ok((entry.verifier.clone(), session))
        })?;
        session
            .evidence_bytes(payload)
            .map_err(FleetError::Rejected)
            .and_then(|s| {
                s.conclude(&verifier)
                    .into_result()
                    .map_err(FleetError::Rejected)
            })
    }

    /// Concludes a whole batch of response frames, serially and in
    /// **input order**, so callers can feed the results to
    /// [`RoundEngine::outcome_received`] and get the same report as
    /// one [`conclude`](FleetVerifier::conclude) per frame.
    ///
    /// Duplicates are therefore deterministic: when a batch carries
    /// *several* frames for the same device, the **first frame in input
    /// order** concludes the in-flight session, and every later one
    /// settles as [`FleetError::NoSession`].
    pub fn conclude_batch(&self, frames: &[Vec<u8>]) -> Vec<Verdict> {
        frames.iter().map(|f| self.conclude(f)).collect()
    }

    /// Drops the in-flight session for `id`, if any. Returns whether a
    /// session was actually aborted.
    pub fn abort(&self, id: DeviceId) -> bool {
        self.with_shard(id, |shard| {
            shard
                .devices
                .get_mut(&id)
                .and_then(|e| e.in_flight.take())
                .is_some()
        })
    }

    /// Drives one full lock-step round over a [`Loopback`]: challenges
    /// every device in `ids` and hands each request frame straight to
    /// its device, concluding the response (if any) before the next
    /// request goes out, so answers settle in challenge order (first
    /// occurrence of each id). One tick at the lock-step deadline then
    /// charges every device that did not answer
    /// [`FleetError::NoResponse`], again in challenge order.
    ///
    /// This is the zero-latency reference driver over [`RoundEngine`].
    /// Provers behind real sockets are driven by
    /// [`FleetRuntime`](crate::FleetRuntime), which maps a response
    /// budget onto engine ticks.
    ///
    /// # Errors
    ///
    /// [`FleetError::UnknownDevice`] when an id is not enrolled (no
    /// challenge is issued in that case).
    pub fn run_round(
        &self,
        ids: &[DeviceId],
        loopback: &mut Loopback,
    ) -> Result<RoundReport, FleetError> {
        let mut engine = RoundEngine::begin(self, ids, RoundConfig::lockstep())?;
        while let Some((device, frame)) = engine.poll_transmit() {
            if let Some(response) = loopback.exchange(device, frame) {
                engine.frame_received(&response);
            }
        }
        engine.tick(engine.now());
        Ok(engine.into_report())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parallelism_knob_round_trips_and_zero_means_auto() {
        let fleet = FleetVerifier::new();
        let auto = std::thread::available_parallelism().map_or(1, usize::from);
        assert_eq!(fleet.parallelism(), auto);
        fleet.set_parallelism(3);
        assert_eq!(fleet.parallelism(), 3);
        fleet.set_parallelism(0);
        assert_eq!(fleet.parallelism(), auto);
    }

    #[test]
    fn reactor_affinity_partitions_shards() {
        // Every device lands on exactly one reactor, and that reactor
        // is a pure function of its registry shard.
        let fleet = FleetVerifier::new();
        for reactors in 1..=4 {
            for id in 0..1000 {
                let id = DeviceId(id);
                let r = fleet.reactor_of(id, reactors);
                assert!(r < reactors);
                assert_eq!(r, fleet.shard_of(id) % reactors);
                assert!(fleet.shard_of(id) < SHARD_COUNT);
            }
        }
        // One reactor owns everything.
        assert!((0..1000).all(|id| fleet.reactor_of(DeviceId(id), 1) == 0));
    }

    #[test]
    fn default_shard_count_is_pinned() {
        // The historical 16-shard Fibonacci layout, so shard/reactor
        // affinity of existing deployments is unchanged.
        let fleet = FleetVerifier::new();
        for (id, shard) in [(1, 9), (2, 2), (3, 12), (42, 14), (1000, 9), (u64::MAX, 6)] {
            assert_eq!(fleet.shard_of(DeviceId(id)), shard, "device {id}");
        }
    }

    #[test]
    fn remove_bumps_generation_and_drops_sessions() {
        let image = asap::programs::fig4_authorized().unwrap();
        let spec = VerifierSpec::from_image(&image).unwrap();
        let fleet = FleetVerifier::new();
        let id = DeviceId(9);
        fleet.register(id, b"k", spec).unwrap();
        fleet.begin(id).unwrap();
        assert!(fleet.session_pending(id));
        let before = fleet.membership_generation();

        assert!(fleet.remove(id));
        assert_eq!(fleet.membership_generation(), before + 1);
        assert!(!fleet.is_registered(id));
        assert_eq!(fleet.in_flight(), 0);
        // Removing an unknown id is a no-op, generation included.
        assert!(!fleet.remove(id));
        assert_eq!(fleet.membership_generation(), before + 1);
    }

    #[test]
    fn rekey_restarts_the_counter_and_aborts_in_flight() {
        let image = asap::programs::fig4_authorized().unwrap();
        let spec = VerifierSpec::from_image(&image).unwrap();
        let fleet = FleetVerifier::new();
        let id = DeviceId(3);
        fleet.register(id, b"old", spec).unwrap();
        fleet.begin(id).unwrap();

        let generation = fleet.membership_generation();
        fleet.rekey(id, b"new").unwrap();
        assert!(!fleet.session_pending(id), "stale challenge aborted");
        assert!(fleet.is_registered(id));
        assert_eq!(
            fleet.membership_generation(),
            generation,
            "rekey is not an eviction"
        );
        assert_eq!(
            fleet.rekey(DeviceId(99), b"x"),
            Err(FleetError::UnknownDevice(DeviceId(99)))
        );
    }
}
