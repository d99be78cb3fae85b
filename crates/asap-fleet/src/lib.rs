//! # asap-fleet — PoX verification at fleet scale
//!
//! The paper's protocol is one verifier talking to one MCU. This crate
//! is everything above that single session: identity, concurrency,
//! batching and transport for a verifier that manages *many* provers at
//! once.
//!
//! * [`DeviceId`] — a 64-bit fleet-wide prover identity, carried on the
//!   wire by the [`apex_pox::wire::Envelope`] frame;
//! * [`FleetVerifier`] — one [`asap::AsapVerifier`] per device behind a
//!   fixed array of independently locked shards, so sessions on
//!   different devices never contend; a batch of frames concludes in
//!   input order ([`FleetVerifier::conclude_batch`], [`registry`]);
//! * [`RoundEngine`] — the whole round protocol as a **sans-IO state
//!   machine** ([`engine`]): feed it events (`frame_received`, `tick`
//!   on injected [`LogicalTime`]), drain actions (`poll_transmit`,
//!   `poll_outcome`). No I/O, no threads, no clocks — identical event
//!   schedules give identical [`RoundReport`]s, and a slow prover never
//!   stalls the round: its deadline just expires;
//! * batched rounds — [`FleetVerifier::begin_round`] /
//!   [`FleetVerifier::conclude_round`] / [`FleetVerifier::run_round`]
//!   are thin lock-step drivers over the engine, judging every response
//!   with per-device isolation: one garbled or forged frame rejects
//!   that device alone, never the round ([`round`]);
//! * [`Transport`] — the non-blocking byte pump (`send` / `try_recv`)
//!   behind the lock-step reference driver, implemented by the
//!   in-memory [`Loopback`] wired to real simulated devices
//!   ([`transport`]).
//!
//! # One socket driver, one reference
//!
//! Everything real-time funnels into the engine through one driver:
//! [`FleetRuntime`] ([`runtime`]) owns a listening socket plus every
//! accepted prover connection — each with its own deframer and bounded
//! write queue — spread over persistent reactor threads ([`reactor`])
//! that never block on any one peer. Devices are routed by the hello
//! frames they announce themselves with ([`announce_devices`]), not
//! pinned to a connection; a hangup or poisoned connection charges its
//! still-awaited devices [`FleetError::NoResponse`] immediately. Each
//! reactor owns a disjoint partition of every round over the sharded
//! registry ([`FleetVerifier::reactor_of`]) and verifies those devices'
//! MACs itself, and the per-reactor partials merge into one canonical
//! [`RoundReport`] independent of thread interleaving.
//! [`run_round`](FleetRuntime::run_round) drives one round;
//! [`submit_round`](FleetRuntime::submit_round) /
//! [`wait_round`](FleetRuntime::wait_round) pipeline epochs.
//!
//! Budgets map elapsed wall-clock milliseconds onto engine ticks,
//! rounded **up** and never below one tick ([`RoundConfig::realtime`]):
//! a sub-millisecond budget means "one tick", not "expire everyone
//! before the first read".
//!
//! The lock-step [`FleetVerifier::run_round`] over [`Loopback`] stays
//! beside it as the zero-latency reference: same engine, same verdicts,
//! no sockets, no clocks.
//!
//! # Fleet quickstart
//!
//! One image, two provers, one batched round over the loopback
//! transport (`run_round` drives the engine lock-step; see
//! `examples/fleet_gateway.rs` for a round over real sockets):
//!
//! ```
//! use asap::{programs, Device, PoxMode, VerifierSpec};
//! use asap_fleet::{DeviceId, FleetVerifier, Loopback};
//!
//! let image = programs::fig4_authorized()?;
//! let fleet = FleetVerifier::new();
//! let mut fabric = Loopback::new();
//!
//! for raw in 1u64..=2 {
//!     let id = DeviceId(raw);
//!     let key = raw.to_le_bytes();
//!
//!     // Prover: a real simulated MCU that runs the image to completion.
//!     let mut device = Device::builder(&image).key(&key).build()?;
//!     device.run_until_pc(programs::done_pc(), 10_000);
//!     fabric.attach(id, device);
//!
//!     // Verifier side: expectations derived from the same image.
//!     fleet.register(id, &key, VerifierSpec::from_image(&image)?.mode(PoxMode::Asap))?;
//! }
//!
//! let ids = [DeviceId(1), DeviceId(2)];
//! let report = fleet.run_round(&ids, &mut fabric)?;
//! assert_eq!(report.verified(), 2);
//! assert_eq!(fleet.in_flight(), 0, "rounds never leak sessions");
//! # Ok::<(), Box<dyn std::error::Error>>(())
//! ```
//!
//! # Driving the engine by hand
//!
//! The engine makes asynchrony explicit: here device 2's response is
//! delivered *out of order* and device 1 never answers, resolved purely
//! by a tick — no sleeps anywhere:
//!
//! ```
//! use asap::{programs, Device, PoxMode, VerifierSpec};
//! use asap_fleet::{DeviceId, FleetVerifier, LogicalTime, Loopback, RoundConfig, RoundEngine};
//!
//! # let image = programs::fig4_authorized()?;
//! # let fleet = FleetVerifier::new();
//! # let mut fabric = Loopback::new();
//! # for raw in 1u64..=2 {
//! #     let id = DeviceId(raw);
//! #     let key = raw.to_le_bytes();
//! #     let mut device = Device::builder(&image).key(&key).build()?;
//! #     device.run_until_pc(programs::done_pc(), 10_000);
//! #     fabric.attach(id, device);
//! #     fleet.register(id, &key, VerifierSpec::from_image(&image)?.mode(PoxMode::Asap))?;
//! # }
//! let ids = [DeviceId(1), DeviceId(2)];
//! let mut engine = RoundEngine::begin(&fleet, &ids, RoundConfig::new(LogicalTime(0), 10))?;
//!
//! // Pump requests out; keep device 2's response, "lose" device 1's.
//! let mut responses = Vec::new();
//! while let Some((id, frame)) = engine.poll_transmit() {
//!     if id == DeviceId(2) {
//!         responses.extend(fabric.exchange(id, &frame));
//!     }
//! }
//! engine.tick(LogicalTime(7));                  // time passes…
//! for frame in &responses {
//!     engine.frame_received(frame);             // …device 2 answers late
//! }
//! engine.tick(LogicalTime(10));                 // the round deadline
//!
//! let report = engine.into_report();
//! assert!(report.of(DeviceId(2)).unwrap().is_ok());
//! assert_eq!(
//!     report.of(DeviceId(1)),
//!     Some(&Err(asap_fleet::FleetError::NoResponse(DeviceId(1))))
//! );
//! assert_eq!(fleet.in_flight(), 0);
//! # Ok::<(), Box<dyn std::error::Error>>(())
//! ```

pub mod engine;
pub mod error;
pub mod lifecycle;
pub mod reactor;
pub mod registry;
mod rng;
pub mod round;
pub mod runtime;
pub mod stream;
pub mod transport;

pub use engine::{LogicalTime, RoundConfig, RoundEngine};
pub use error::FleetError;
pub use lifecycle::{
    ChurnEvent, DeviceState, EpochPlan, FleetDirectory, LifecycleCensus, LifecycleConfig,
};
pub use reactor::{ReactorStats, MAX_ROUTED_PER_CONN};
pub use registry::{FleetVerifier, Verdict, SHARD_COUNT};
pub use rng::XorShift64;
pub use round::{RoundOutcome, RoundReport};
pub use runtime::{FleetRuntime, GatewayConn, GatewayListener, NoListener};
pub use stream::{announce_devices, pump_read, serve_frames, ReadPump, WritePump, WriteQueue};
pub use transport::{Loopback, Transport};

use std::fmt;

/// A fleet-wide prover identity.
///
/// Purely administrative: the id routes frames and keys the registry,
/// while all authentication comes from the per-device key inside the
/// MAC. Ids are carried on the wire by [`apex_pox::wire::Envelope`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct DeviceId(pub u64);

impl fmt::Display for DeviceId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}", self.0)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use asap::{programs, AsapError, Device, PoxMode, VerifierSpec};

    fn key_for(id: DeviceId) -> Vec<u8> {
        format!("key-{id}").into_bytes()
    }

    /// A fleet of `n` ASAP devices, enrolled and run to completion.
    fn fleet_of(n: u64) -> (FleetVerifier, Loopback) {
        let image = programs::fig4_authorized().unwrap();
        let fleet = FleetVerifier::new();
        let mut fabric = Loopback::new();
        for raw in 1..=n {
            let id = DeviceId(raw);
            let mut device = Device::builder(&image).key(&key_for(id)).build().unwrap();
            assert!(device.run_until_pc(programs::done_pc(), 10_000));
            fabric.attach(id, device);
            fleet
                .register(
                    id,
                    &key_for(id),
                    VerifierSpec::from_image(&image)
                        .unwrap()
                        .mode(PoxMode::Asap),
                )
                .unwrap();
        }
        (fleet, fabric)
    }

    #[test]
    fn honest_round_verifies_every_device() {
        let (fleet, mut fabric) = fleet_of(5);
        let ids: Vec<DeviceId> = (1..=5).map(DeviceId).collect();
        let report = fleet.run_round(&ids, &mut fabric).unwrap();
        assert_eq!(report.verified(), 5);
        assert_eq!(report.rejected(), 0);
        assert_eq!(fleet.in_flight(), 0);
    }

    #[test]
    fn duplicate_and_unknown_devices_are_typed_errors() {
        let (fleet, _) = fleet_of(1);
        let image = programs::fig4_authorized().unwrap();
        assert_eq!(
            fleet.register(DeviceId(1), b"k", VerifierSpec::from_image(&image).unwrap()),
            Err(FleetError::DuplicateDevice(DeviceId(1)))
        );
        assert_eq!(
            fleet.begin(DeviceId(99)),
            Err(FleetError::UnknownDevice(DeviceId(99)))
        );
        assert_eq!(
            fleet.begin_round(&[DeviceId(1), DeviceId(99)]),
            Err(FleetError::UnknownDevice(DeviceId(99)))
        );
        assert_eq!(fleet.in_flight(), 0, "failed round issues no challenges");
    }

    #[test]
    fn evidence_without_a_challenge_is_no_session() {
        let (fleet, mut fabric) = fleet_of(1);
        let id = DeviceId(1);
        // Obtain a valid response frame, conclude it…
        let req = fleet.begin(id).unwrap();
        let resp = fabric.exchange(id, &req).unwrap();
        let (device, result) = fleet.conclude(&resp);
        assert_eq!(device, Some(id));
        assert!(result.is_ok());
        // …then feed the same frame again: fleet-level replay.
        let (device, result) = fleet.conclude(&resp);
        assert_eq!(device, Some(id));
        assert_eq!(result, Err(FleetError::NoSession(id)));
    }

    #[test]
    fn rechallenge_makes_prior_evidence_stale() {
        let (fleet, mut fabric) = fleet_of(1);
        let id = DeviceId(1);
        let stale_req = fleet.begin(id).unwrap();
        let stale_resp = fabric.exchange(id, &stale_req).unwrap();
        // Re-challenge before concluding: the old challenge is dead.
        let _fresh_req = fleet.begin(id).unwrap();
        assert_eq!(fleet.in_flight(), 1, "re-begin replaces, never stacks");
        let (_, result) = fleet.conclude(&stale_resp);
        assert_eq!(result, Err(FleetError::Rejected(AsapError::BadMac)));
    }

    #[test]
    fn duplicated_ids_are_challenged_once() {
        let (fleet, mut fabric) = fleet_of(2);
        let (a, b) = (DeviceId(1), DeviceId(2));
        // Listing a device twice must not stale its own challenge.
        let report = fleet.run_round(&[a, a, b], &mut fabric).unwrap();
        assert_eq!(report.verified(), 2);
        assert_eq!(report.outcomes.len(), 2, "one verdict per device");
        assert_eq!(fleet.in_flight(), 0);
    }

    #[test]
    fn one_bad_frame_never_poisons_the_round() {
        let (fleet, mut fabric) = fleet_of(3);
        let ids: Vec<DeviceId> = (1..=3).map(DeviceId).collect();
        let requests = fleet.begin_round(&ids).unwrap();
        let mut frames: Vec<Vec<u8>> = requests
            .iter()
            .map(|(id, req)| fabric.exchange(*id, req).unwrap())
            .collect();
        frames[1][0] ^= 0xFF; // destroy device 2's envelope magic
        let report = fleet.conclude_round(&ids, &frames);
        assert_eq!(report.verified(), 2, "devices 1 and 3 still verify");
        // The broken frame is unattributable; device 2's dangling
        // session is charged as NoResponse.
        assert_eq!(report.no_response(), 1);
        assert_eq!(fleet.in_flight(), 0);
    }

    #[test]
    fn misrouted_envelope_is_rejected_not_cross_verified() {
        let (fleet, mut fabric) = fleet_of(2);
        let (a, b) = (DeviceId(1), DeviceId(2));
        let requests = fleet.begin_round(&[a, b]).unwrap();
        let resp_a = fabric.exchange(a, &requests[0].1).unwrap();
        let payload_a = apex_pox::wire::Envelope::from_bytes(&resp_a)
            .unwrap()
            .payload;
        // Device 1's honest evidence, re-addressed as device 2's.
        let forged = apex_pox::wire::Envelope::wrap(b.0, payload_a).to_bytes();
        let (device, result) = fleet.conclude(&forged);
        assert_eq!(device, Some(b));
        assert_eq!(result, Err(FleetError::Rejected(AsapError::BadMac)));
    }

    #[test]
    fn loopback_pumps_responses_in_send_order() {
        let (fleet, mut fabric) = fleet_of(3);
        let ids: Vec<DeviceId> = (1..=3).map(DeviceId).collect();
        let requests = fleet.begin_round(&ids).unwrap();
        for (id, frame) in &requests {
            fabric.send(*id, frame);
        }
        let order: Vec<u64> = std::iter::from_fn(|| fabric.try_recv())
            .map(|f| apex_pox::wire::Envelope::from_bytes(&f).unwrap().device_id)
            .collect();
        assert_eq!(order, vec![1, 2, 3]);
        // Drain the sessions cleanly.
        fleet.conclude_round(&ids, &[]);
    }

    #[test]
    fn engine_late_frame_within_deadline_verifies() {
        let (fleet, mut fabric) = fleet_of(1);
        let ids = [DeviceId(1)];
        let mut engine =
            RoundEngine::begin(&fleet, &ids, RoundConfig::new(LogicalTime(0), 5)).unwrap();
        let (id, request) = engine.poll_transmit().unwrap();
        let response = fabric.exchange(id, request).unwrap();

        engine.tick(LogicalTime(4));
        assert_eq!(engine.awaiting(), 1, "deadline not reached yet");
        engine.frame_received(&response);
        assert!(engine.is_settled());
        assert_eq!(engine.next_deadline(), None);
        let outcome = engine.poll_outcome().unwrap();
        assert_eq!(outcome.device, Some(id));
        assert!(outcome.result.is_ok(), "late but in time still verifies");
        assert_eq!(fleet.in_flight(), 0);
    }

    #[test]
    fn engine_frame_after_deadline_does_not_reopen_the_verdict() {
        let (fleet, mut fabric) = fleet_of(1);
        let id = DeviceId(1);
        let mut engine =
            RoundEngine::begin(&fleet, &[id], RoundConfig::new(LogicalTime(0), 3)).unwrap();
        let (_, request) = engine.poll_transmit().unwrap();
        let response = fabric.exchange(id, request).unwrap();

        engine.tick(LogicalTime(3)); // deadline crossed: NoResponse
        engine.frame_received(&response); // the response limps in
        let report = engine.into_report();
        // The round's verdict is NoResponse; the late frame settles as
        // a separate NoSession entry and is never cross-verified.
        assert_eq!(
            report.outcome_for(id).unwrap().result,
            Err(FleetError::NoResponse(id))
        );
        assert_eq!(report.outcomes.len(), 2);
        assert_eq!(
            report.outcomes[1].result,
            Err(FleetError::NoSession(id)),
            "late evidence answers an aborted session"
        );
        assert_eq!(fleet.in_flight(), 0);
    }

    #[test]
    fn engine_time_never_runs_backwards() {
        let (fleet, _fabric) = fleet_of(1);
        let mut engine =
            RoundEngine::begin(&fleet, &[DeviceId(1)], RoundConfig::new(LogicalTime(0), 5))
                .unwrap();
        while engine.poll_transmit().is_some() {}
        engine.tick(LogicalTime(4));
        engine.tick(LogicalTime(1)); // a confused driver rewinds
        assert_eq!(engine.now(), LogicalTime(4));
        assert_eq!(engine.awaiting(), 1, "rewind must not expire anyone");
        engine.tick(LogicalTime(5));
        assert!(engine.is_settled());
    }

    #[test]
    fn shards_serve_concurrent_threads() {
        use std::sync::Arc;

        // The simulated Device is deliberately not Send (it models one
        // physical MCU), so exchanges happen here; issuance and
        // conclusion hit the shared registry from four threads.
        let (fleet, mut fabric) = fleet_of(32);
        let fleet = Arc::new(fleet);

        let issue: Vec<_> = (0..4u64)
            .map(|t| {
                let fleet = Arc::clone(&fleet);
                std::thread::spawn(move || {
                    (1 + t..=32)
                        .step_by(4)
                        .map(|raw| (DeviceId(raw), fleet.begin(DeviceId(raw)).unwrap()))
                        .collect::<Vec<_>>()
                })
            })
            .collect();
        let requests: Vec<(DeviceId, Vec<u8>)> =
            issue.into_iter().flat_map(|h| h.join().unwrap()).collect();
        assert_eq!(fleet.in_flight(), 32);

        let responses: Vec<Vec<u8>> = requests
            .iter()
            .map(|(id, req)| fabric.exchange(*id, req).unwrap())
            .collect();

        let conclude: Vec<_> = responses
            .chunks(8)
            .map(|chunk| {
                let fleet = Arc::clone(&fleet);
                let chunk = chunk.to_vec();
                std::thread::spawn(move || {
                    for frame in &chunk {
                        let (device, result) = fleet.conclude(frame);
                        assert!(device.is_some());
                        result.unwrap();
                    }
                })
            })
            .collect();
        for h in conclude {
            h.join().unwrap();
        }
        assert_eq!(fleet.in_flight(), 0);
    }

    /// Regression: a sub-millisecond budget used to truncate to a
    /// *zero-tick* deadline, so the driver's very first tick charged
    /// every device `NoResponse` before a single frame was read.
    /// Budgets now round up and never below one tick.
    #[test]
    fn submillisecond_budget_rounds_up_to_one_tick() {
        use std::time::Duration;

        assert_eq!(
            RoundConfig::realtime(Duration::from_micros(500)).deadline_after,
            1
        );
        assert_eq!(RoundConfig::realtime(Duration::ZERO).deadline_after, 1);
        assert_eq!(
            RoundConfig::realtime(Duration::from_millis(3)).deadline_after,
            3
        );
        assert_eq!(
            RoundConfig::realtime(Duration::from_micros(3_001)).deadline_after,
            4,
            "partial milliseconds round up, not down"
        );

        let (fleet, mut fabric) = fleet_of(1);
        let mut engine = RoundEngine::begin(
            &fleet,
            &[DeviceId(1)],
            RoundConfig::realtime(Duration::from_micros(500)),
        )
        .unwrap();
        let (id, request) = engine.poll_transmit().unwrap();
        let request = request.to_vec();
        // The driver's first sweep happens at elapsed = 0 ms.
        engine.tick(LogicalTime(0));
        assert_eq!(engine.awaiting(), 1, "time zero must not expire anyone");
        let response = fabric.exchange(id, &request).unwrap();
        engine.frame_received(&response);
        assert!(engine.poll_outcome().unwrap().result.is_ok());
        assert!(engine.is_settled());
    }

    /// Regression: when one batch carries several frames for the same
    /// device, a worker pool once let thread scheduling pick which
    /// frame claimed the session. The *first frame in input order*
    /// must win, with repeats settling as `NoSession`.
    #[test]
    fn batch_duplicates_resolve_in_input_order() {
        const DEVICES: u64 = 80;
        let (fleet, mut fabric) = fleet_of(DEVICES);
        let ids: Vec<DeviceId> = (1..=DEVICES).map(DeviceId).collect();

        for _ in 0..3 {
            let requests = fleet.begin_round(&ids).unwrap();
            let answers: Vec<Vec<u8>> = requests
                .iter()
                .map(|(id, req)| fabric.exchange(*id, req).unwrap())
                .collect();

            // Device 1 appears three times: a corrupted copy FIRST,
            // then its honest answer, then the honest bytes again.
            let honest = answers[0].clone();
            let mut corrupt = honest.clone();
            corrupt[apex_pox::wire::ENVELOPE_OVERHEAD as usize] ^= 0x01;
            let mut frames = vec![corrupt];
            frames.extend(answers[1..].iter().cloned());
            frames.push(honest.clone());
            frames.push(honest);

            let verdicts = fleet.conclude_batch(&frames);
            assert_eq!(verdicts.len(), frames.len());
            // The corrupted first frame claimed device 1's session…
            assert_eq!(verdicts[0].0, Some(DeviceId(1)));
            assert!(
                matches!(verdicts[0].1, Err(FleetError::Rejected(_))),
                "first frame in input order owns the session: {:?}",
                verdicts[0].1
            );
            // …so the honest repeats settle as NoSession, every time.
            for v in &verdicts[frames.len() - 2..] {
                assert_eq!(
                    v,
                    &(Some(DeviceId(1)), Err(FleetError::NoSession(DeviceId(1))))
                );
            }
            for (i, v) in verdicts[1..frames.len() - 2].iter().enumerate() {
                let id = DeviceId(2 + i as u64);
                assert_eq!(v.0, Some(id), "output order mirrors input order");
                assert!(v.1.is_ok(), "honest device {id} verifies: {:?}", v.1);
            }
        }
    }
}
