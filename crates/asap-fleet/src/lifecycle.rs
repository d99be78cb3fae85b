//! The fleet lifecycle subsystem: membership state machines and
//! epoch-sampled partial rounds for fleets too large to attest in one
//! sweep.
//!
//! Everything below this module treats the device set as given: the
//! registry stores whoever is enrolled, the engine rounds over whatever
//! ids it is handed. A million-device fleet is not given — devices
//! join, leave, re-key and reconnect-storm *while rounds are in
//! flight*, and no round can afford to challenge all of them at once.
//! [`FleetDirectory`] is the layer that owns that reality:
//!
//! * **Membership as explicit state machines.** Every device is in
//!   exactly one [`DeviceState`]:
//!
//!   ```text
//!   join            epoch           rekey           epoch
//!   ────▶ Joining ────────▶ Active ◀──────▶ Rekeying ──┐
//!                              │                        │ (key applied,
//!                              │ leave                  │  back to Active)
//!                              ▼                        │
//!                          Draining ────────▶ Evicted ◀─┘ leave
//!                                     epoch
//!   ```
//!
//!   Transitions land on **epoch boundaries**
//!   ([`begin_epoch`](FleetDirectory::begin_epoch)), with one
//!   deliberate exception: [`leave`](FleetDirectory::leave) removes
//!   the device from the registry *immediately*, so a round in flight
//!   resolves it as [`FleetError::Evicted`] on its next sweep
//!   ([`RoundEngine::sync_membership`](crate::RoundEngine::sync_membership))
//!   — deterministically, never dangling in `NoResponse` limbo until a
//!   deadline.
//!
//! * **Epoch-sampled rounds.** Each epoch attests a bounded, seeded
//!   **cohort** — never the full fleet. The scheduler keeps one
//!   rotation queue of active devices, reshuffled (seeded, so two
//!   directories built alike schedule alike) every time it empties:
//!   every active device is attested exactly once per rotation cycle,
//!   and a device activated this epoch is guaranteed a slot in the
//!   *next* cohort ahead of the rotation remainder — "a device joining
//!   mid-round gets challenged in the next epoch" is a scheduler
//!   invariant, not an accident of queue position.
//!
//! * **Churn at any time.** [`join`](FleetDirectory::join) /
//!   [`leave`](FleetDirectory::leave) /
//!   [`rekey`](FleetDirectory::rekey) may be called from any thread at
//!   any time, mid-round included. Rekeys are *staged*: the new key
//!   takes effect at the next epoch boundary, so an in-flight round
//!   concludes under the key its challenge was MACed with. Joins never
//!   move an enrolled device: the registry's shard table is fixed, so
//!   every challenge already out keeps its reactor.
//!
//! Epochs run one of two ways: hand the cohort of
//! [`begin_epoch`](FleetDirectory::begin_epoch) to
//! [`FleetVerifier::run_round`] (the lock-step reference over a
//! [`Loopback`](crate::Loopback)), or run them pipelined through a
//! persistent runtime with
//! [`run_epochs_runtime`](FleetDirectory::run_epochs_runtime). The
//! runtime's hello-routing needs no lifecycle awareness: a joining
//! device's hello records its route today, and the next epoch's
//! challenge finds the route waiting.

use crate::error::FleetError;
use crate::idhash::{IdMap, IdSet};
use crate::registry::FleetVerifier;
use crate::rng::XorShift64;
use crate::round::RoundReport;
use crate::runtime::{FleetRuntime, GatewayListener};
use crate::DeviceId;
use asap::VerifierSpec;
use std::collections::VecDeque;
use std::sync::{Arc, Mutex};
use std::time::Duration;

/// Where one device stands in the fleet's membership lifecycle.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum DeviceState {
    /// Enrolled, awaiting activation at the next epoch boundary. The
    /// device can already hello and be routed; it is not yet scheduled.
    Joining,
    /// In rotation: attested once per rotation cycle.
    Active,
    /// A new key is staged; applied at the next epoch boundary, after
    /// which the device is `Active` again under the new key.
    Rekeying,
    /// [`leave`](FleetDirectory::leave) was called: already removed
    /// from the registry (any in-flight round resolves it as
    /// [`FleetError::Evicted`]), tombstoned at the next epoch boundary.
    Draining,
    /// Terminal tombstone. A device may re-[`join`](FleetDirectory::join)
    /// from here under a fresh enrollment.
    Evicted,
}

impl std::fmt::Display for DeviceState {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let name = match self {
            DeviceState::Joining => "joining",
            DeviceState::Active => "active",
            DeviceState::Rekeying => "rekeying",
            DeviceState::Draining => "draining",
            DeviceState::Evicted => "evicted",
        };
        f.write_str(name)
    }
}

/// Construction knobs for a [`FleetDirectory`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct LifecycleConfig {
    /// Devices attested per epoch — the partial-round size. The
    /// scheduler never hands out a larger cohort, however big the
    /// fleet.
    pub cohort: usize,
    /// Seed for the rotation shuffle: two directories built with the
    /// same seed and fed the same churn schedule produce identical
    /// cohorts, epoch for epoch.
    pub seed: u64,
    /// How many consecutive epochs may be in flight at once. At the
    /// default of 1, epochs are strictly sequential — exactly the
    /// pre-pipelining schedule. Above 1, each cohort excludes every
    /// device drawn in the previous `pipeline_window - 1` epochs (and
    /// their staged rekeys stay staged), so the cohorts a pipelined
    /// runtime holds in flight are always **disjoint**: no challenge
    /// can supersede a still-draining session, and every verdict
    /// belongs to exactly one epoch. Cohort composition depends only on
    /// this window and the churn schedule — never on how deeply a
    /// runtime actually pipelines — so per-epoch reports stay
    /// byte-identical across pipeline depths 1..=window.
    pub pipeline_window: usize,
}

impl LifecycleConfig {
    /// Defaults: 1024-device cohorts, seed 1, sequential epochs
    /// (window 1).
    pub fn new() -> LifecycleConfig {
        LifecycleConfig {
            cohort: 1024,
            seed: 1,
            pipeline_window: 1,
        }
    }

    /// Sets the per-epoch cohort size (clamped to at least one).
    pub fn cohort(mut self, cohort: usize) -> LifecycleConfig {
        self.cohort = cohort.max(1);
        self
    }

    /// Sets the rotation shuffle seed.
    pub fn seed(mut self, seed: u64) -> LifecycleConfig {
        self.seed = seed;
        self
    }

    /// Sets the pipelined-epoch window (clamped to at least one). See
    /// [`LifecycleConfig::pipeline_window`].
    pub fn pipeline_window(mut self, window: usize) -> LifecycleConfig {
        self.pipeline_window = window.max(1);
        self
    }
}

impl Default for LifecycleConfig {
    fn default() -> LifecycleConfig {
        LifecycleConfig::new()
    }
}

/// One epoch's schedule: which devices this partial round attests.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct EpochPlan {
    /// The epoch number, starting at 1 for the first
    /// [`begin_epoch`](FleetDirectory::begin_epoch).
    pub epoch: u64,
    /// The cohort to challenge, in schedule order. At most
    /// [`LifecycleConfig::cohort`] devices; shorter when fewer active
    /// devices remain unattested this cycle than the cohort holds.
    pub cohort: Vec<DeviceId>,
}

/// Everything behind the directory's one lock. Mutators touch single
/// entries, and an epoch boundary touches only the devices whose
/// deferred transition is due: `join` and `leave` list them in
/// `joining` and `draining`. The one walk of the fleet is the rotation
/// refill, once per rotation cycle: amortized O(1) per device drawn.
struct DirectoryState {
    states: IdMap<DeviceId, DeviceState>,
    /// Devices joined since the latest boundary, in call order, with
    /// repeats. The boundary activates those still `Joining`.
    joining: Vec<DeviceId>,
    /// Devices that left since the latest boundary. The boundary
    /// tombstones those still `Draining`.
    draining: Vec<DeviceId>,
    /// Keys staged by [`rekey`](FleetDirectory::rekey), applied at the
    /// next epoch boundary.
    staged_keys: IdMap<DeviceId, Vec<u8>>,
    /// Devices activated at the latest boundary, owed a slot ahead of
    /// the rotation remainder — the "challenged in the next epoch"
    /// guarantee.
    fresh: VecDeque<DeviceId>,
    /// The current rotation cycle's remainder, refilled (seeded
    /// shuffle) whenever it runs dry.
    queue: VecDeque<DeviceId>,
    /// The last `pipeline_window - 1` cohorts, oldest first — the
    /// devices a pipelined runtime may still hold in flight, excluded
    /// from the next draw. Always empty at the default window of 1.
    recent: VecDeque<Vec<DeviceId>>,
    epoch: u64,
    rng: XorShift64,
}

/// Fleet membership and epoch scheduling over a [`FleetVerifier`].
///
/// See the [module docs](self) for the state machine and scheduling
/// contract. All methods take `&self`; the directory is meant to be
/// shared across threads — churn calls land mid-round from ingestion
/// threads while a round driver owns the runtime.
pub struct FleetDirectory {
    fleet: Arc<FleetVerifier>,
    config: LifecycleConfig,
    state: Mutex<DirectoryState>,
}

impl FleetDirectory {
    /// An empty directory over a fresh registry.
    pub fn new(config: LifecycleConfig) -> FleetDirectory {
        FleetDirectory {
            fleet: Arc::new(FleetVerifier::new()),
            config: LifecycleConfig {
                cohort: config.cohort.max(1),
                pipeline_window: config.pipeline_window.max(1),
                ..config
            },
            state: Mutex::new(DirectoryState {
                states: IdMap::default(),
                joining: Vec::new(),
                draining: Vec::new(),
                staged_keys: IdMap::default(),
                fresh: VecDeque::new(),
                queue: VecDeque::new(),
                recent: VecDeque::new(),
                epoch: 0,
                rng: XorShift64::new(config.seed.max(1)),
            }),
        }
    }

    /// The registry this directory manages. Hand it to round drivers;
    /// enrollment itself should go through the directory so membership
    /// states stay truthful.
    pub fn fleet(&self) -> &FleetVerifier {
        &self.fleet
    }

    /// The registry as a shared handle — what a persistent
    /// [`FleetRuntime`] is built over.
    pub fn fleet_arc(&self) -> Arc<FleetVerifier> {
        Arc::clone(&self.fleet)
    }

    /// The construction-time configuration.
    pub fn config(&self) -> LifecycleConfig {
        self.config
    }

    /// Epochs begun so far.
    pub fn epoch(&self) -> u64 {
        self.state.lock().unwrap().epoch
    }

    /// One device's lifecycle state, if the directory has ever seen it.
    pub fn state_of(&self, id: DeviceId) -> Option<DeviceState> {
        self.state.lock().unwrap().states.get(&id).copied()
    }

    /// Enrolls a device: registered immediately (hellos route, evidence
    /// would judge), scheduled from the next epoch boundary on. A
    /// tombstoned ([`DeviceState::Evicted`]) id may re-join as a fresh
    /// enrollment.
    ///
    /// # Errors
    ///
    /// [`FleetError::DuplicateDevice`] when the device is currently
    /// live (anything but evicted).
    pub fn join(&self, id: DeviceId, key: &[u8], spec: VerifierSpec) -> Result<(), FleetError> {
        self.join_shared(id, key, Arc::new(spec))
    }

    /// [`join`](FleetDirectory::join) over an already-shared spec —
    /// the memory-diet path for fleets deploying one image to many
    /// devices ([`FleetVerifier::register_shared`]).
    ///
    /// # Errors
    ///
    /// [`FleetError::DuplicateDevice`] when the device is currently
    /// live.
    pub fn join_shared(
        &self,
        id: DeviceId,
        key: &[u8],
        spec: Arc<VerifierSpec>,
    ) -> Result<(), FleetError> {
        let mut state = self.state.lock().unwrap();
        self.fleet.register_shared(id, key, spec)?;
        state.states.insert(id, DeviceState::Joining);
        state.joining.push(id);
        Ok(())
    }

    /// Unenrolls a device. The registry entry is removed **now** — a
    /// round in flight resolves the device as [`FleetError::Evicted`]
    /// on its next sweep, parked challenges and all — while the
    /// directory keeps it `Draining` until the next epoch boundary
    /// tombstones it. Returns whether the device was live.
    pub fn leave(&self, id: DeviceId) -> bool {
        let mut state = self.state.lock().unwrap();
        match state.states.get_mut(&id) {
            Some(s @ (DeviceState::Joining | DeviceState::Active | DeviceState::Rekeying)) => {
                *s = DeviceState::Draining;
                state.staged_keys.remove(&id);
                state.draining.push(id);
                self.fleet.remove(id);
                true
            }
            _ => false,
        }
    }

    /// Stages a key replacement, applied at the next epoch boundary —
    /// an in-flight round concludes under the old key, and the first
    /// challenge after the boundary is MACed under the new one. Calling
    /// again before the boundary replaces the staged key. Returns
    /// whether the device was in a rekeyable state (`Active` or
    /// `Rekeying`).
    pub fn rekey(&self, id: DeviceId, key: &[u8]) -> bool {
        let mut state = self.state.lock().unwrap();
        match state.states.get_mut(&id) {
            Some(s @ (DeviceState::Active | DeviceState::Rekeying)) => {
                *s = DeviceState::Rekeying;
                state.staged_keys.insert(id, key.to_vec());
                true
            }
            _ => false,
        }
    }

    /// Drops `Evicted` tombstones, returning how many were purged.
    /// Tombstones are kept by default so operators can distinguish
    /// "left" from "never enrolled"; purge on whatever audit cadence
    /// suits.
    pub fn purge_evicted(&self) -> usize {
        let mut state = self.state.lock().unwrap();
        let before = state.states.len();
        state.states.retain(|_, s| *s != DeviceState::Evicted);
        before - state.states.len()
    }

    /// Advances to the next epoch and returns its schedule. This is
    /// where deferred transitions land, in a fixed order:
    ///
    /// 1. `Draining` devices are tombstoned (`Evicted`);
    /// 2. staged rekeys are applied (id order), `Rekeying` → `Active`;
    /// 3. `Joining` devices activate (id order) and are queued ahead of
    ///    the rotation — each is guaranteed a slot in *this* cohort (or
    ///    the earliest one the cohort bound allows);
    /// 4. the cohort is drawn: freshly activated devices first, then
    ///    the rotation queue, reshuffled (seeded) whenever it runs dry.
    ///    Every active device is drawn exactly once per rotation cycle.
    pub fn begin_epoch(&self) -> EpochPlan {
        self.begin_epoch_with::<IdSet<DeviceId>, Listed>()
    }

    /// [`begin_epoch`](FleetDirectory::begin_epoch), asking `D` whether
    /// a rotation draw is already in the cohort and `P` which devices
    /// may be draining or joining.
    fn begin_epoch_with<D: Drawn, P: Pending>(&self) -> EpochPlan {
        let mut state = self.state.lock().unwrap();
        let state = &mut *state;
        state.epoch += 1;

        // 0. Devices drawn within the pipeline window: a pipelined
        // runtime may still hold their sessions in flight, so they are
        // excluded from this draw and their rekeys stay staged. Empty
        // at the default window of 1.
        let recent: IdSet<DeviceId> = state.recent.iter().flatten().copied().collect();

        // 1. Tombstone the drained.
        for id in P::draining(state) {
            if let Some(s @ DeviceState::Draining) = state.states.get_mut(&id) {
                *s = DeviceState::Evicted;
            }
        }

        // 2. Apply staged keys, in id order so two directories fed the
        // same churn stage-for-stage rekey identically. A rekey for a
        // device whose cohort may still be in flight stays staged —
        // applying it would abort the live session and make its verdict
        // depend on pipeline timing.
        let mut staged: Vec<(DeviceId, Vec<u8>)> = state.staged_keys.drain().collect();
        staged.sort_unstable_by_key(|&(id, _)| id);
        for (id, key) in staged {
            if recent.contains(&id) {
                state.staged_keys.insert(id, key);
                continue;
            }
            if state.states.get(&id) == Some(&DeviceState::Rekeying) {
                // The entry can only be missing if the device left after
                // staging, and `leave` unstages — but never let a racy
                // feed poison the epoch.
                let _ = self.fleet.rekey(id, &key);
                state.states.insert(id, DeviceState::Active);
            }
        }

        // 3. Activate joiners, in id order, owed the earliest possible
        // cohort slot.
        let mut joining = P::joining(state);
        joining.sort_unstable();
        joining.dedup();
        for id in joining {
            if let Some(s @ DeviceState::Joining) = state.states.get_mut(&id) {
                *s = DeviceState::Active;
                state.fresh.push_back(id);
            }
        }

        // 4. Draw the cohort: fresh first, then the rotation, refilled
        // at most once per epoch (a second dry run means the fleet is
        // smaller than the cohort — the partial round is just small).
        // Devices in the pipeline window are set aside, not consumed:
        // they keep their place at the head of the next draw.
        let mut cohort = Vec::with_capacity(self.config.cohort.min(64));
        let mut drawn = D::default();
        let mut deferred_fresh: Vec<DeviceId> = Vec::new();
        let mut skipped: Vec<DeviceId> = Vec::new();
        let mut refilled = false;
        while cohort.len() < self.config.cohort {
            if let Some(id) = state.fresh.pop_front() {
                if state.states.get(&id) != Some(&DeviceState::Active) {
                    continue;
                }
                if recent.contains(&id) {
                    deferred_fresh.push(id);
                    continue;
                }
                drawn.note(id);
                cohort.push(id);
                continue;
            }
            if state.queue.is_empty() {
                if refilled {
                    break;
                }
                refilled = true;
                let mut cycle: Vec<DeviceId> = state
                    .states
                    .iter()
                    .filter(|&(_, s)| *s == DeviceState::Active)
                    .map(|(&id, _)| id)
                    .filter(|id| !skipped.contains(id))
                    .collect();
                cycle.sort_unstable();
                shuffle(&mut cycle, &mut state.rng);
                state.queue = cycle.into();
            }
            match state.queue.pop_front() {
                // Drawn this epoch already (fresh) or no longer active:
                // consumed from the cycle without a second challenge.
                Some(id)
                    if state.states.get(&id) == Some(&DeviceState::Active)
                        && !drawn.holds(&cohort, id) =>
                {
                    if recent.contains(&id) {
                        skipped.push(id);
                    } else {
                        drawn.note(id);
                        cohort.push(id);
                    }
                }
                Some(_) => continue,
                None => break,
            }
        }
        // Set-aside devices rejoin at the head: owed before the rest of
        // their rotation cycle, the moment their old epoch leaves the
        // window.
        for id in skipped.into_iter().rev() {
            state.queue.push_front(id);
        }
        for id in deferred_fresh.into_iter().rev() {
            state.fresh.push_front(id);
        }

        // Remember this cohort for the window's disjointness guarantee.
        if self.config.pipeline_window > 1 {
            state.recent.push_back(cohort.clone());
            while state.recent.len() >= self.config.pipeline_window {
                state.recent.pop_front();
            }
        }

        EpochPlan {
            epoch: state.epoch,
            cohort,
        }
    }

    /// `epochs` consecutive epochs through a persistent
    /// [`FleetRuntime`], **pipelined**: up to
    /// `min(runtime.depth(), pipeline_window)` epochs are in flight at
    /// once, so epoch N+1's challenges go out while epoch N's
    /// stragglers drain toward their deadlines. Reports come back in
    /// epoch order. The clamp to
    /// [`LifecycleConfig::pipeline_window`] is what keeps in-flight
    /// cohorts disjoint — and with it, per-epoch reports byte-identical
    /// at every depth `1..=window` and every reactor count.
    ///
    /// The runtime must have been built over this directory's registry
    /// ([`fleet_arc`](FleetDirectory::fleet_arc)).
    ///
    /// # Errors
    ///
    /// The first round-level error; earlier epochs' reports are lost
    /// with it, but every epoch submitted still advanced the schedule.
    pub fn run_epochs_runtime<L: GatewayListener>(
        &self,
        runtime: &mut FleetRuntime<L>,
        epochs: usize,
        budget: Duration,
    ) -> Result<Vec<(EpochPlan, RoundReport)>, FleetError>
    where
        L::Conn: Send + 'static,
    {
        debug_assert!(
            Arc::ptr_eq(&self.fleet, runtime.fleet()),
            "the runtime must drive this directory's registry"
        );
        let depth = runtime.depth().min(self.config.pipeline_window);
        let mut in_flight: VecDeque<(EpochPlan, u64)> = VecDeque::new();
        let mut out = Vec::with_capacity(epochs);
        let mut submitted = 0usize;
        while out.len() < epochs {
            while in_flight.len() < depth && submitted < epochs {
                let plan = self.begin_epoch();
                let ticket = runtime.submit_round(&plan.cohort, budget)?;
                in_flight.push_back((plan, ticket));
                submitted += 1;
            }
            let (plan, ticket) = in_flight.pop_front().expect("depth is at least one");
            let report = runtime.wait_round(ticket)?;
            out.push((plan, report));
        }
        Ok(out)
    }
}

/// How a cohort draw asks "is this device in the cohort already?" —
/// the set the draw keeps, so each rotation draw costs one lookup
/// rather than a scan of the cohort.
trait Drawn: Default {
    /// Records that `id` joined the cohort.
    fn note(&mut self, id: DeviceId);
    /// Whether `id` is in `cohort`, the draw so far.
    fn holds(&self, cohort: &[DeviceId], id: DeviceId) -> bool;
}

impl Drawn for IdSet<DeviceId> {
    fn note(&mut self, id: DeviceId) {
        self.insert(id);
    }

    fn holds(&self, _cohort: &[DeviceId], id: DeviceId) -> bool {
        self.contains(&id)
    }
}

/// Where an epoch boundary finds the devices whose deferred transition
/// may be due. Each list may hold more ids than are due (a device that
/// re-joined after leaving, or was purged); the boundary re-checks
/// every id's state.
trait Pending {
    /// Devices that may be `Draining`, taken from `state`.
    fn draining(state: &mut DirectoryState) -> Vec<DeviceId>;
    /// Devices that may be `Joining`, taken from `state`.
    fn joining(state: &mut DirectoryState) -> Vec<DeviceId>;
}

/// The lists `join` and `leave` keep: a boundary costs the churn since
/// the last one, not the fleet size.
struct Listed;

impl Pending for Listed {
    fn draining(state: &mut DirectoryState) -> Vec<DeviceId> {
        std::mem::take(&mut state.draining)
    }

    fn joining(state: &mut DirectoryState) -> Vec<DeviceId> {
        std::mem::take(&mut state.joining)
    }
}

/// Seeded Fisher–Yates.
fn shuffle(ids: &mut [DeviceId], rng: &mut XorShift64) {
    for i in (1..ids.len()).rev() {
        let j = rng.below(i as u64 + 1) as usize;
        ids.swap(i, j);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The draw's old membership test: a linear scan of the cohort on
    /// every rotation draw. The reference the set is checked against.
    #[derive(Default)]
    struct CohortScan;

    impl Drawn for CohortScan {
        fn note(&mut self, _id: DeviceId) {}

        fn holds(&self, cohort: &[DeviceId], id: DeviceId) -> bool {
            cohort.contains(&id)
        }
    }

    /// The boundary's old way of finding due transitions: a walk of
    /// every device state. The reference the `join`/`leave` lists are
    /// checked against; it empties the lists so they stay bounded.
    struct Scanning;

    impl Scanning {
        fn all_in(state: &DirectoryState, wanted: DeviceState) -> Vec<DeviceId> {
            let ids = state.states.iter().filter(|&(_, s)| *s == wanted);
            ids.map(|(&id, _)| id).collect()
        }
    }

    impl Pending for Scanning {
        fn draining(state: &mut DirectoryState) -> Vec<DeviceId> {
            state.draining.clear();
            Scanning::all_in(state, DeviceState::Draining)
        }

        fn joining(state: &mut DirectoryState) -> Vec<DeviceId> {
            state.joining.clear();
            Scanning::all_in(state, DeviceState::Joining)
        }
    }

    /// One call of a churn script.
    #[derive(Debug, Clone)]
    enum Churn {
        Join(u64),
        Leave(u64),
        Rekey(u64, u8),
        Purge,
        Epoch,
    }

    /// Ids the scripts draw from: few, so joins, leaves and re-joins of
    /// one device meet within an epoch.
    const SCRIPT_IDS: u64 = 12;

    fn churn() -> impl proptest::strategy::Strategy<Value = Churn> {
        use proptest::prelude::*;
        prop_oneof![
            (1..=SCRIPT_IDS).prop_map(Churn::Join),
            (1..=SCRIPT_IDS).prop_map(Churn::Leave),
            (1..=SCRIPT_IDS, any::<u8>()).prop_map(|(id, key)| Churn::Rekey(id, key)),
            Just(Churn::Purge),
            Just(Churn::Epoch),
            Just(Churn::Epoch),
        ]
    }

    proptest::proptest! {
        /// Over random scripts of joins (re-joins of draining and
        /// evicted devices included), leaves, rekeys, purges and epoch
        /// boundaries, at pipeline windows 1 to 3: the boundary that
        /// drains the `join`/`leave` lists plans every epoch exactly as
        /// the boundary that walks every device state, every call
        /// returns alike, and every device's state agrees after every
        /// call.
        #[test]
        fn listed_boundaries_match_the_scanning_boundary(
            script in proptest::collection::vec(churn(), 1..48),
            cohort in 1usize..6,
            window in 1usize..=3,
        ) {
            let spec = spec();
            let config = LifecycleConfig::new()
                .cohort(cohort)
                .seed(5)
                .pipeline_window(window);
            let (listed, scanning) = (FleetDirectory::new(config), FleetDirectory::new(config));
            for (step, call) in script.iter().enumerate() {
                match *call {
                    Churn::Join(id) => {
                        let id = DeviceId(id);
                        proptest::prop_assert_eq!(
                            listed.join_shared(id, b"k", Arc::clone(&spec)),
                            scanning.join_shared(id, b"k", Arc::clone(&spec))
                        );
                    }
                    Churn::Leave(id) => {
                        let id = DeviceId(id);
                        proptest::prop_assert_eq!(listed.leave(id), scanning.leave(id));
                    }
                    Churn::Rekey(id, key) => {
                        let id = DeviceId(id);
                        proptest::prop_assert_eq!(listed.rekey(id, &[key]), scanning.rekey(id, &[key]));
                    }
                    Churn::Purge => {
                        proptest::prop_assert_eq!(listed.purge_evicted(), scanning.purge_evicted());
                    }
                    Churn::Epoch => {
                        proptest::prop_assert_eq!(
                            listed.begin_epoch_with::<IdSet<DeviceId>, Listed>(),
                            scanning.begin_epoch_with::<IdSet<DeviceId>, Scanning>(),
                            "step {}", step
                        );
                    }
                }
                for id in (1..=SCRIPT_IDS).map(DeviceId) {
                    proptest::prop_assert_eq!(
                        listed.state_of(id),
                        scanning.state_of(id),
                        "{} after step {} ({:?})", id, step, call
                    );
                }
            }
        }
    }

    /// Over 60 epochs of seeded churn — joins that draw fresh devices
    /// ahead of a rotation that holds them too, leaves and rekeys — the
    /// set-based draw and the cohort scan schedule identical epochs, at
    /// pipeline windows 1 and 2.
    #[test]
    fn drawn_set_schedules_like_the_cohort_scan() {
        let spec = spec();
        for window in [1, 2] {
            let config = LifecycleConfig::new()
                .cohort(16)
                .seed(11)
                .pipeline_window(window);
            let (by_set, by_scan) = (FleetDirectory::new(config), FleetDirectory::new(config));
            let mut churn = XorShift64::new(0xC0FFEE + window as u64);
            let mut next_id = 1u64;
            for epoch in 0..60 {
                let joins = if epoch == 0 { 40 } else { churn.below(4) };
                for _ in 0..joins {
                    for dir in [&by_set, &by_scan] {
                        dir.join_shared(DeviceId(next_id), b"k", Arc::clone(&spec))
                            .unwrap();
                    }
                    next_id += 1;
                }
                for _ in 0..churn.below(3) {
                    let id = DeviceId(1 + churn.below(next_id));
                    assert_eq!(by_set.leave(id), by_scan.leave(id));
                }
                for _ in 0..churn.below(3) {
                    let id = DeviceId(1 + churn.below(next_id));
                    let key = churn.next_u64().to_le_bytes();
                    assert_eq!(by_set.rekey(id, &key), by_scan.rekey(id, &key));
                }
                assert_eq!(
                    by_set.begin_epoch_with::<IdSet<DeviceId>, Listed>(),
                    by_scan.begin_epoch_with::<CohortScan, Listed>(),
                    "window {window}, epoch {epoch}"
                );
            }
            for id in (1..next_id).map(DeviceId) {
                assert_eq!(
                    by_set.state_of(id),
                    by_scan.state_of(id),
                    "window {window}, {id}"
                );
            }
        }
    }

    fn spec() -> Arc<VerifierSpec> {
        static SPEC: std::sync::OnceLock<Arc<VerifierSpec>> = std::sync::OnceLock::new();
        let spec = SPEC.get_or_init(|| {
            let image = asap::programs::fig4_authorized().unwrap();
            Arc::new(VerifierSpec::from_image(&image).unwrap())
        });
        Arc::clone(spec)
    }

    fn directory_of(n: u64, cohort: usize) -> FleetDirectory {
        let dir = FleetDirectory::new(LifecycleConfig::new().cohort(cohort).seed(7));
        let spec = spec();
        for raw in 1..=n {
            dir.join_shared(DeviceId(raw), &raw.to_le_bytes(), Arc::clone(&spec))
                .unwrap();
        }
        dir
    }

    #[test]
    fn join_activates_at_the_next_epoch_boundary() {
        let dir = directory_of(3, 8);
        for raw in 1..=3 {
            assert_eq!(dir.state_of(DeviceId(raw)), Some(DeviceState::Joining));
        }
        let plan = dir.begin_epoch();
        assert_eq!(plan.epoch, 1);
        assert_eq!(plan.cohort.len(), 3, "all three activated and drawn");
        for raw in 1..=3 {
            assert_eq!(dir.state_of(DeviceId(raw)), Some(DeviceState::Active));
        }
    }

    #[test]
    fn mid_cycle_joiner_is_challenged_in_the_very_next_epoch() {
        let dir = directory_of(8, 2);
        // Drain the enrollment backlog so the fleet is in steady state…
        for _ in 0..4 {
            dir.begin_epoch();
        }
        // …then join mid-cycle, while the rotation still queues devices.
        dir.join_shared(DeviceId(100), b"late", spec()).unwrap();
        let plan = dir.begin_epoch();
        assert!(
            plan.cohort.contains(&DeviceId(100)),
            "freshly activated devices outrank the rotation remainder: {:?}",
            plan.cohort
        );
    }

    #[test]
    fn rotation_attests_every_active_device_exactly_once_per_cycle() {
        let n = 12u64;
        let cohort = 4usize;
        let dir = directory_of(n, cohort);
        // Two full cycles: every device drawn exactly twice, and no
        // cohort exceeds the bound.
        let mut drawn: IdMap<DeviceId, usize> = IdMap::default();
        for _ in 0..(2 * n as usize / cohort) {
            let plan = dir.begin_epoch();
            assert!(plan.cohort.len() <= cohort);
            for id in plan.cohort {
                *drawn.entry(id).or_default() += 1;
            }
        }
        assert_eq!(drawn.len(), n as usize);
        assert!(drawn.values().all(|&c| c == 2), "{drawn:?}");
    }

    #[test]
    fn cohorts_are_seed_deterministic() {
        let plans_for = |seed: u64| -> Vec<Vec<DeviceId>> {
            let dir = FleetDirectory::new(LifecycleConfig::new().cohort(3).seed(seed));
            let spec = spec();
            for raw in 1..=10u64 {
                dir.join_shared(DeviceId(raw), &raw.to_le_bytes(), Arc::clone(&spec))
                    .unwrap();
            }
            (0..6).map(|_| dir.begin_epoch().cohort).collect()
        };
        assert_eq!(plans_for(42), plans_for(42));
        assert_ne!(
            plans_for(42),
            plans_for(43),
            "different seeds shuffle differently"
        );
    }

    #[test]
    fn leave_is_immediate_in_the_registry_and_tombstoned_at_the_boundary() {
        let dir = directory_of(4, 8);
        dir.begin_epoch();
        assert!(dir.leave(DeviceId(2)));
        assert_eq!(dir.state_of(DeviceId(2)), Some(DeviceState::Draining));
        assert!(!dir.fleet().is_registered(DeviceId(2)), "removal is now");
        assert!(!dir.leave(DeviceId(2)), "leave is not idempotent-true");

        let plan = dir.begin_epoch();
        assert!(!plan.cohort.contains(&DeviceId(2)));
        assert_eq!(dir.state_of(DeviceId(2)), Some(DeviceState::Evicted));
        assert_eq!(dir.purge_evicted(), 1);
        assert_eq!(dir.state_of(DeviceId(2)), None);
    }

    #[test]
    fn rekey_is_staged_to_the_boundary_and_restarts_the_key() {
        let dir = directory_of(2, 8);
        assert!(!dir.rekey(DeviceId(1), b"nope"), "joining is not rekeyable");
        dir.begin_epoch();
        assert!(dir.rekey(DeviceId(1), b"fresh"));
        assert_eq!(dir.state_of(DeviceId(1)), Some(DeviceState::Rekeying));
        // Staged only: the registry still issues under the old key (a
        // session begun now remains concludable).
        assert!(dir.fleet().begin(DeviceId(1)).is_ok());
        let plan = dir.begin_epoch();
        assert_eq!(dir.state_of(DeviceId(1)), Some(DeviceState::Active));
        assert!(plan.cohort.contains(&DeviceId(1)));
        assert!(
            !dir.fleet().session_pending(DeviceId(1)),
            "boundary rekey aborted the stale session"
        );
    }

    #[test]
    fn evicted_ids_may_rejoin_fresh() {
        let dir = directory_of(1, 8);
        dir.begin_epoch();
        assert_eq!(
            dir.join_shared(DeviceId(1), b"again", spec()),
            Err(FleetError::DuplicateDevice(DeviceId(1))),
            "live devices cannot double-join"
        );
        dir.leave(DeviceId(1));
        dir.begin_epoch();
        dir.join_shared(DeviceId(1), b"again", spec()).unwrap();
        assert_eq!(dir.state_of(DeviceId(1)), Some(DeviceState::Joining));
        let plan = dir.begin_epoch();
        assert_eq!(plan.cohort, vec![DeviceId(1)]);
    }
}
