//! The sharded fleet verifier: many per-device [`AsapVerifier`]s behind
//! an array of independently locked shards.
//!
//! Scale shape: challenge issuance and evidence conclusion are hash-map
//! operations plus (for conclusion) a MAC recomputation. The registry
//! keeps the *map operations* under per-shard mutexes — a fixed array
//! of [`SHARD_COUNT`] shards, shard picked by a multiplicative hash of
//! the device id — and performs the MAC work on a clone of the
//! device's verifier *outside* any lock. Two sessions on devices in
//! different shards therefore never contend at all, and even
//! same-shard devices only serialize the cheap map lookups, not the
//! crypto. Because the table never changes size, a device's shard and
//! reactor ([`FleetVerifier::reactor_of`]) are fixed for the registry's
//! whole life: no enrollment, however large, reroutes a round in flight.
//!
//! Membership can churn while rounds are in flight:
//! [`remove`](FleetVerifier::remove) bumps a fleet-wide *membership
//! generation* that [`RoundEngine::sync_membership`] watches, so an
//! evicted device's round resolves deterministically as
//! [`FleetError::Evicted`] instead of dangling to its deadline.

use crate::engine::{RoundConfig, RoundEngine};
use crate::error::FleetError;
use crate::round::RoundReport;
use crate::transport::Transport;
use crate::DeviceId;
use apex_pox::wire::Envelope;
use asap::session::{Issued, PoxSession};
use asap::{AsapVerifier, Attested, VerifierSpec};
use std::collections::{HashMap, HashSet};
use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering};
use std::sync::mpsc::{self, Sender};
use std::sync::{Arc, Mutex, Weak};

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
    devices: HashMap<DeviceId, DeviceEntry>,
}

/// One chunk of MAC-conclusion work dispatched to an attached runtime
/// pool: conclude `frames[indices]` against `fleet` and send the
/// `(input index, verdict)` pairs back over `reply`.
///
/// Crate-internal: [`FleetRuntime`](crate::FleetRuntime) owns the
/// worker threads that consume these; the registry only produces them
/// (see [`FleetVerifier::conclude_batch`]).
pub(crate) struct ConcludeJob {
    pub(crate) fleet: Arc<FleetVerifier>,
    pub(crate) frames: Arc<Vec<Vec<u8>>>,
    pub(crate) indices: Vec<usize>,
    pub(crate) reply: Sender<Vec<(usize, Verdict)>>,
}

/// Clears a frame buffer for reuse by the caller's next sweep: the
/// allocation survives, the stale frames do not.
fn recycled(mut frames: Vec<Vec<u8>>) -> Vec<Vec<u8>> {
    frames.clear();
    frames
}

/// A runtime-attached conclude pool: where to send [`ConcludeJob`]s,
/// how many workers drain them, and a weak self-reference so jobs can
/// carry an owning handle to this very registry.
struct AttachedPool {
    tx: Sender<ConcludeJob>,
    me: Weak<FleetVerifier>,
    workers: usize,
}

/// One batch's claim on the attached pool: where to send its jobs, an
/// owning handle the jobs carry, and how many lanes it may fan over.
struct Dispatch {
    tx: Sender<ConcludeJob>,
    me: Arc<FleetVerifier>,
    lanes: usize,
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
    /// Sizes a runtime's MAC pool; `0` means "follow
    /// [`std::thread::available_parallelism`]".
    conclude_workers: AtomicUsize,
    /// Bumped on every [`remove`](FleetVerifier::remove):
    /// [`RoundEngine::sync_membership`] rescans its awaited devices only
    /// when this moved, so churn detection is one atomic load per sweep
    /// in the steady state.
    churn_generation: AtomicU64,
    /// The shared MAC-conclusion pool a [`FleetRuntime`](crate::FleetRuntime)
    /// attaches for the lifetime of the runtime; `None` for standalone
    /// registries, which conclude serially.
    pool: Mutex<Option<AttachedPool>>,
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
            pool: Mutex::new(None),
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

    /// Sizes the MAC-conclusion pool of a
    /// [`FleetRuntime`](crate::FleetRuntime) built over this registry
    /// afterwards at `workers` threads; `0` restores the default of
    /// following [`std::thread::available_parallelism`]. Shared with
    /// the reactor count: each reactor fans a batch over at most
    /// `parallelism / reactors` lanes, so reactors and MAC workers
    /// together never oversubscribe the machine.
    pub fn set_parallelism(&self, workers: usize) {
        self.conclude_workers.store(workers, Ordering::Relaxed);
    }

    /// The effective MAC-pool size: the configured knob, or
    /// [`std::thread::available_parallelism`] when unset.
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
        self.with_shard(id, |shard| {
            let entry = shard
                .devices
                .get_mut(&id)
                .ok_or(FleetError::UnknownDevice(id))?;
            let session = entry.verifier.begin();
            let frame = Envelope::wrap(id.0, session.request_bytes()).to_bytes();
            entry.in_flight = Some(session);
            Ok(frame)
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
        let mut seen = std::collections::HashSet::new();
        ids.iter()
            .filter(|&&id| seen.insert(id))
            .map(|&id| Ok((id, self.begin(id)?)))
            .collect()
    }

    /// [`begin_round`](FleetVerifier::begin_round), arena-packed: the
    /// request frames are appended end-to-end into `arena` and
    /// described by returned `(device, start, len)` spans, so a round
    /// over a large cohort holds **one** transmit allocation instead of
    /// one `Vec` per challenge. This is what
    /// [`RoundEngine::begin`](crate::RoundEngine::begin) queues from.
    ///
    /// # Errors
    ///
    /// [`FleetError::UnknownDevice`] naming the first unknown id; the
    /// arena is left untouched in that case.
    pub fn begin_round_packed(
        &self,
        ids: &[DeviceId],
        arena: &mut Vec<u8>,
    ) -> Result<Vec<(DeviceId, u32, u32)>, FleetError> {
        if let Some(&id) = ids.iter().find(|&&id| !self.is_registered(id)) {
            return Err(FleetError::UnknownDevice(id));
        }
        let mut seen = std::collections::HashSet::new();
        let mut spans = Vec::new();
        for &id in ids.iter().filter(|&&id| seen.insert(id)) {
            let frame = self.begin(id)?;
            let start = u32::try_from(arena.len()).expect("transmit arena stays under 4 GiB");
            let len = u32::try_from(frame.len()).expect("challenge frames are small");
            arena.extend_from_slice(&frame);
            spans.push((id, start, len));
        }
        Ok(spans)
    }

    /// Absorbs one enveloped response frame and concludes the session
    /// it answers.
    ///
    /// Returns the device the frame was attributed to (when the
    /// envelope decoded) and the per-device verdict. The shard lock is
    /// held only while the session is popped; MAC verification runs on
    /// a clone of the device's verifier outside all locks.
    pub fn conclude(&self, frame: &[u8]) -> Verdict {
        let envelope = match Envelope::from_bytes(frame) {
            Ok(e) => e,
            Err(e) => return (None, Err(FleetError::Frame(e))),
        };
        let id = DeviceId(envelope.device_id);

        let popped = self.with_shard(id, |shard| {
            let Some(entry) = shard.devices.get_mut(&id) else {
                return Err(FleetError::UnknownDevice(id));
            };
            let Some(session) = entry.in_flight.take() else {
                return Err(FleetError::NoSession(id));
            };
            Ok((entry.verifier.clone(), session))
        });
        let (verifier, session) = match popped {
            Ok(pair) => pair,
            Err(e) => return (Some(id), Err(e)),
        };

        let result = session
            .evidence_bytes(&envelope.payload)
            .map_err(FleetError::Rejected)
            .and_then(|s| {
                s.conclude(&verifier)
                    .into_result()
                    .map_err(FleetError::Rejected)
            });
        (Some(id), result)
    }

    /// Concludes a whole batch of response frames. Results come back in
    /// **input order**, so callers can feed them to
    /// [`RoundEngine::outcome_received`] and get the same report a
    /// serial conclusion would have produced.
    ///
    /// While a [`FleetRuntime`](crate::FleetRuntime) is attached and the
    /// batch holds at least 8 frames, MAC verification fans out over
    /// the runtime's worker pool (at most
    /// [`parallelism`](FleetVerifier::parallelism) lanes); otherwise the
    /// batch concludes serially on the calling thread. This is where
    /// the sharded registry earns its sharding: each worker's
    /// [`conclude`](FleetVerifier::conclude) holds a shard lock only for
    /// the session pop, and the MAC recomputation — the actual work —
    /// runs outside all locks.
    ///
    /// Duplicates are resolved deterministically: when a batch carries
    /// *several* frames for the same device, the **first frame in input
    /// order** contends for the in-flight session, and every later one
    /// settles as [`FleetError::NoSession`] — exactly what a serial
    /// pass over the batch would produce, regardless of how the pool
    /// schedules its workers.
    pub fn conclude_batch(&self, frames: &[Vec<u8>]) -> Vec<Verdict> {
        match self.pool_for(frames.len(), self.parallelism()) {
            Some(pool) => self.conclude_on_pool(pool, frames.to_vec()).0,
            None => frames.iter().map(|f| self.conclude(f)).collect(),
        }
    }

    /// [`conclude_batch`](FleetVerifier::conclude_batch) over an
    /// **owned** batch, fanned over at most `lanes` pool workers. Hands
    /// the frame buffer back **cleared**, so a reactor reuses its
    /// inbound `Vec` across sweeps instead of reallocating.
    pub(crate) fn conclude_batch_pooled(
        &self,
        frames: Vec<Vec<u8>>,
        lanes: usize,
    ) -> (Vec<Verdict>, Vec<Vec<u8>>) {
        match self.pool_for(frames.len(), lanes) {
            Some(pool) => self.conclude_on_pool(pool, frames),
            None => {
                let verdicts = frames.iter().map(|f| self.conclude(f)).collect();
                (verdicts, recycled(frames))
            }
        }
    }

    /// The attached pool and lane count for a batch of `frames`, or
    /// `None` when the batch should conclude serially: no runtime pool
    /// attached, fewer than two lanes, or too few frames to pay for the
    /// channel hops (each dispatched chunk costs two, ~a few µs).
    fn pool_for(&self, frames: usize, lanes: usize) -> Option<Dispatch> {
        /// Pool-dispatch floor: two mpsc hops per chunk amortize over
        /// ~8 MAC recomputations.
        const POOLED_MIN: usize = 8;

        if frames < POOLED_MIN {
            return None;
        }
        let pool = self.pool.lock().unwrap();
        let p = pool.as_ref()?;
        let lanes = lanes.min(p.workers);
        if lanes < 2 {
            return None;
        }
        Some(Dispatch {
            tx: p.tx.clone(),
            me: p.me.upgrade()?,
            lanes,
        })
    }

    /// Fans `frames` over the pool: the first frame per device (in
    /// input order) races on the workers, repeats are deferred until
    /// the pool drains and then observe what a serial pass would —
    /// `NoSession` (or `UnknownDevice`). Undecodable frames carry no
    /// device id and cannot collide, so they pool freely.
    fn conclude_on_pool(
        &self,
        pool: Dispatch,
        frames: Vec<Vec<u8>>,
    ) -> (Vec<Verdict>, Vec<Vec<u8>>) {
        let mut seen = HashSet::new();
        let mut pooled: Vec<usize> = Vec::with_capacity(frames.len());
        let mut deferred: Vec<usize> = Vec::new();
        for (i, frame) in frames.iter().enumerate() {
            match Envelope::from_bytes(frame) {
                Ok(e) if !seen.insert(DeviceId(e.device_id)) => deferred.push(i),
                _ => pooled.push(i),
            }
        }

        let mut results: Vec<Option<Verdict>> = frames.iter().map(|_| None).collect();
        let frames = Arc::new(frames);
        let per_lane = Self::chunk_len(pooled.len(), pool.lanes);
        let (reply_tx, reply_rx) = mpsc::channel();
        let mut outstanding = 0usize;
        for chunk in pooled.chunks(per_lane) {
            pool.tx
                .send(ConcludeJob {
                    fleet: Arc::clone(&pool.me),
                    frames: Arc::clone(&frames),
                    indices: chunk.to_vec(),
                    reply: reply_tx.clone(),
                })
                .expect("runtime pool outlives every attached batch");
            outstanding += 1;
        }
        drop(reply_tx);
        for _ in 0..outstanding {
            let batch = reply_rx
                .recv()
                .expect("pool workers always reply before exiting");
            for (i, verdict) in batch {
                results[i] = Some(verdict);
            }
        }
        for i in deferred {
            results[i] = Some(self.conclude(&frames[i]));
        }
        let verdicts = results
            .into_iter()
            .map(|r| r.expect("every input index concluded exactly once"))
            .collect();
        // Workers drop their `Arc` clones before replying, so by now we
        // hold the only reference and get the buffer back for reuse; if
        // the unwrap ever loses the race, a fresh Vec merely costs the
        // caller its recycled capacity.
        let frames = Arc::try_unwrap(frames).map_or_else(|_| Vec::new(), recycled);
        (verdicts, frames)
    }

    /// Frames per pool lane: the batch split as evenly as possible
    /// across `lanes` chunks. Never zero, and never capped below the
    /// requested width, so `chunks(chunk_len(n, w))` yields `min(w, n)`
    /// chunks.
    fn chunk_len(frames: usize, lanes: usize) -> usize {
        frames.div_ceil(lanes.max(1)).max(1)
    }

    /// Attaches a long-lived MAC-conclusion worker pool: batches big
    /// enough to fan out dispatch to `tx`. `me` must be a weak handle
    /// to the very `Arc` wrapping this registry — jobs carry an
    /// upgraded clone so workers can conclude against it without
    /// borrowing. Called by [`FleetRuntime`](crate::FleetRuntime) at
    /// construction.
    pub(crate) fn attach_conclude_pool(
        &self,
        tx: Sender<ConcludeJob>,
        me: Weak<FleetVerifier>,
        workers: usize,
    ) {
        *self.pool.lock().unwrap() = Some(AttachedPool { tx, me, workers });
    }

    /// Detaches the runtime pool; subsequent batches conclude serially.
    /// Called before the runtime shuts its workers down so no batch can
    /// race a dying pool.
    pub(crate) fn detach_conclude_pool(&self) {
        *self.pool.lock().unwrap() = None;
    }

    /// True when a [`FleetRuntime`](crate::FleetRuntime) pool is
    /// currently attached.
    pub fn has_conclude_pool(&self) -> bool {
        self.pool.lock().unwrap().is_some()
    }

    /// Concludes a whole round: absorbs every response frame, then
    /// charges [`FleetError::NoResponse`] to each challenged device
    /// whose session is still dangling — aborting it, so the registry
    /// ends the round with zero sessions in flight for `challenged`.
    ///
    /// Per-device isolation: a frame that fails to decode, or evidence
    /// that fails its check, yields a rejected outcome for that device
    /// only; every other frame in the round is still judged.
    ///
    /// A thin lock-step driver over [`RoundEngine`]: the frames are
    /// concluded as one [`conclude_batch`](FleetVerifier::conclude_batch),
    /// their verdicts injected in frame order, and one tick at the
    /// lock-step deadline settles the silent devices.
    pub fn conclude_round(&self, challenged: &[DeviceId], frames: &[Vec<u8>]) -> RoundReport {
        let mut engine = RoundEngine::resume(self, challenged, RoundConfig::lockstep());
        for (device, result) in self.conclude_batch(frames) {
            engine.outcome_received(device, result);
        }
        engine.tick(engine.now());
        engine.into_report()
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

    /// Drives one full lock-step round over a [`Transport`]:
    /// challenges every device in `ids`, pumps every request frame out
    /// and every immediately-available response frame back in, and
    /// settles. Devices whose response is not available by then are
    /// reported as [`FleetError::NoResponse`].
    ///
    /// This is the zero-latency reference driver over [`RoundEngine`] —
    /// right for [`Loopback`](crate::Loopback), where responses appear
    /// the moment a request is sent. Provers behind real sockets are
    /// driven by [`FleetRuntime`](crate::FleetRuntime), which maps a
    /// response budget onto engine ticks.
    ///
    /// # Errors
    ///
    /// [`FleetError::UnknownDevice`] when an id is not enrolled (no
    /// challenge is issued in that case).
    pub fn run_round<T: Transport + ?Sized>(
        &self,
        ids: &[DeviceId],
        transport: &mut T,
    ) -> Result<RoundReport, FleetError> {
        let mut engine = RoundEngine::begin(self, ids, RoundConfig::lockstep())?;
        while let Some((device, frame)) = engine.poll_transmit() {
            transport.send(device, &frame);
        }
        while let Some(frame) = transport.try_recv() {
            engine.frame_received(&frame);
        }
        engine.tick(engine.now());
        Ok(engine.into_report())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn chunks_of(frames: usize, workers: usize) -> usize {
        if frames == 0 {
            return 0;
        }
        frames.div_ceil(FleetVerifier::chunk_len(frames, workers))
    }

    #[test]
    fn chunking_uses_every_requested_worker() {
        // The regression: `workers.min(8)` used to split 64 frames on
        // a 16-way box into 8 chunks of 8 — half the pool idle.
        assert_eq!(FleetVerifier::chunk_len(64, 16), 4);
        assert_eq!(chunks_of(64, 16), 16);
        assert_eq!(chunks_of(1024, 32), 32);
    }

    #[test]
    fn chunking_never_yields_empty_or_excess_chunks() {
        for frames in [1, 2, 31, 32, 33, 64, 100, 1000] {
            for workers in [1, 2, 7, 8, 9, 16, 64, 1000] {
                let len = FleetVerifier::chunk_len(frames, workers);
                assert!(len >= 1, "chunks must be non-empty");
                let chunks = chunks_of(frames, workers);
                assert!(
                    chunks <= workers.min(frames),
                    "never more chunks than workers"
                );
                // No hard-wired cap (the old `workers.min(8)`): with
                // enough frames to feed the pool, ceil-chunking keeps
                // at least half the requested workers busy, however
                // wide the pool.
                if frames >= workers {
                    assert!(
                        chunks * 2 >= workers,
                        "{frames} frames / {workers} workers → {chunks}"
                    );
                }
            }
        }
        // Degenerate inputs stay sane rather than dividing by zero.
        assert_eq!(FleetVerifier::chunk_len(0, 8), 1);
        assert_eq!(FleetVerifier::chunk_len(5, 0), 5);
    }

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
    fn pooled_batch_without_runtime_falls_back_to_scoped() {
        use crate::runtime::{FleetRuntime, NoListener};
        use std::os::unix::net::UnixStream;

        const DEVICES: u64 = 16; // past the pool-dispatch floor
        let image = asap::programs::fig4_authorized().unwrap();
        let spec = Arc::new(VerifierSpec::from_image(&image).unwrap());
        let fleet = Arc::new(FleetVerifier::new());
        fleet.set_parallelism(2); // two pool lanes even on one cpu
        for id in 0..DEVICES {
            fleet
                .register_shared(DeviceId(id), b"k", Arc::clone(&spec))
                .unwrap();
        }
        // Challenge frames are not evidence: every verdict is a
        // rejection, but each is *attributed*, in input order, and the
        // buffer comes back cleared with its capacity intact — serially
        // with no runtime attached, and on the pool with one.
        let check = |fleet: &FleetVerifier| {
            let frames: Vec<Vec<u8>> = (0..DEVICES)
                .map(|id| fleet.begin(DeviceId(id)).unwrap())
                .collect();
            let capacity = frames.capacity();
            let (verdicts, recycled) = fleet.conclude_batch_pooled(frames, 2);
            assert_eq!(verdicts.len(), DEVICES as usize);
            for (i, (device, outcome)) in verdicts.iter().enumerate() {
                assert_eq!(*device, Some(DeviceId(i as u64)));
                assert!(outcome.is_err());
            }
            assert!(recycled.is_empty());
            assert_eq!(recycled.capacity(), capacity);
        };
        assert!(!fleet.has_conclude_pool());
        check(&fleet);
        let runtime: FleetRuntime<NoListener<UnixStream>> =
            FleetRuntime::detached(Arc::clone(&fleet), 1, 1);
        assert!(fleet.has_conclude_pool());
        check(&fleet);
        drop(runtime);
        assert!(!fleet.has_conclude_pool());
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
