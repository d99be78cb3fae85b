//! The fleet layer over a *real* socket with the whole fleet behind
//! one connection: provers live behind a byte stream served from
//! another thread, frames are length-prefixed envelopes, and silence is
//! resolved by deadline — never by blocking the round on one device.
//!
//! Topology per test: a one-reactor `FleetRuntime` owns one end of a
//! socketpair (or an accepted TCP connection); a prover-host thread
//! owns the simulated devices, announces them and answers frames via
//! `serve_frames`. Devices are built *inside* the prover thread — it
//! models a different process, and nothing but bytes crosses the
//! boundary.

use apex_pox::wire::{frame_stream, Envelope, StreamDeframer};
use asap::{programs, PoxMode, VerifierSpec};
use asap_bench::fleet::{host_gateway_provers, DetRng};
use asap_fleet::{DeviceId, FleetError, FleetRuntime, FleetVerifier, NoListener};
use proptest::prelude::*;
use std::os::unix::net::UnixStream;
use std::sync::Arc;
use std::time::Duration;

fn key_for(id: DeviceId) -> Vec<u8> {
    format!("socket-key-{id}").into_bytes()
}

/// Enrolls `ids` into a fresh fleet (verifier side).
fn fleet_for(ids: &[DeviceId]) -> Arc<FleetVerifier> {
    let image = programs::fig4_authorized().unwrap();
    let fleet = Arc::new(FleetVerifier::new());
    for &id in ids {
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
    fleet
}

/// A one-reactor runtime over `fleet` with one socketpair adopted;
/// returns the runtime and the prover end.
fn socketpair_runtime(
    fleet: &Arc<FleetVerifier>,
) -> (FleetRuntime<NoListener<UnixStream>>, UnixStream) {
    let mut runtime = FleetRuntime::detached(Arc::clone(fleet), 1, 1);
    let (runtime_end, prover_end) = UnixStream::pair().unwrap();
    runtime.adopt(runtime_end).unwrap();
    (runtime, prover_end)
}

/// The prover host, run *in its own thread*: devices are built there —
/// it models a different process, and nothing but bytes crosses the
/// boundary.
fn host_provers(
    stream: impl std::io::Read + std::io::Write,
    ids: Vec<DeviceId>,
    silent: Vec<DeviceId>,
) {
    host_gateway_provers(stream, &ids, key_for, &silent, || ());
}

#[test]
fn socketpair_round_verifies_every_device() {
    let ids: Vec<DeviceId> = (1..=4).map(DeviceId).collect();
    let fleet = fleet_for(&ids);

    let (mut runtime, prover_stream) = socketpair_runtime(&fleet);
    let host_ids = ids.clone();
    let host = std::thread::spawn(move || host_provers(prover_stream, host_ids, Vec::new()));

    let report = runtime.run_round(&ids, Duration::from_secs(5)).unwrap();
    assert_eq!(report.verified(), ids.len(), "{:#?}", report.outcomes);
    assert_eq!(fleet.in_flight(), 0, "rounds never leak sessions");

    drop(runtime); // hang up: the prover host sees EOF and returns
    host.join().unwrap();
}

#[test]
fn silent_prover_times_out_as_no_response_only() {
    let ids: Vec<DeviceId> = (1..=3).map(DeviceId).collect();
    let fleet = fleet_for(&ids);
    let silent = DeviceId(2);

    let (mut runtime, prover_stream) = socketpair_runtime(&fleet);
    let host_ids = ids.clone();
    let host = std::thread::spawn(move || host_provers(prover_stream, host_ids, vec![silent]));

    // The budget bounds the wall-clock cost of the silent device; the
    // answering devices settle as soon as their frames arrive.
    let report = runtime.run_round(&ids, Duration::from_millis(400)).unwrap();
    assert_eq!(
        report.of(silent),
        Some(&Err(FleetError::NoResponse(silent))),
        "the elapsed budget surfaced as ticks that expired the deadline"
    );
    assert_eq!(report.verified(), 2, "silence never stalls the others");
    assert_eq!(fleet.in_flight(), 0);

    drop(runtime);
    host.join().unwrap();
}

#[test]
fn peer_hangup_settles_the_round_by_deadline() {
    let ids: Vec<DeviceId> = (1..=2).map(DeviceId).collect();
    let fleet = fleet_for(&ids);

    let (mut runtime, prover_stream) = socketpair_runtime(&fleet);
    drop(prover_stream); // nobody home: no hello ever routes a device

    let report = runtime.run_round(&ids, Duration::from_millis(200)).unwrap();
    assert_eq!(runtime.connections(), 0, "EOF reaps the connection");
    assert_eq!(report.verified(), 0);
    for &id in &ids {
        assert_eq!(report.of(id), Some(&Err(FleetError::NoResponse(id))));
    }
    assert_eq!(fleet.in_flight(), 0);
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(32))]

    /// Adversarial segmentation: any sequence of frames, delivered in
    /// chunks split at arbitrary byte boundaries (1-byte reads
    /// included), deframes to the identical frame sequence — each
    /// frame surfacing exactly once, in order, with nothing left over.
    #[test]
    fn any_segmentation_deframes_to_the_same_frames(
        payload_lens in proptest::collection::vec(0usize..300, 1..6),
        split_seed in any::<u64>(),
    ) {
        let frames: Vec<Vec<u8>> = payload_lens
            .iter()
            .enumerate()
            .map(|(i, &len)| Envelope::wrap(i as u64, vec![i as u8; len]).to_bytes())
            .collect();
        let stream: Vec<u8> = frames.iter().flat_map(|f| frame_stream(f)).collect();

        // Seed-drawn cuts, biased hard toward tiny reads so length
        // prefixes and frame boundaries get split mid-field often.
        let mut rng = DetRng::new(split_seed);
        let mut deframer = StreamDeframer::new();
        let mut got = Vec::new();
        let mut offset = 0;
        while offset < stream.len() {
            let n = 1 + rng.below(7.min(stream.len() - offset));
            deframer.extend(&stream[offset..offset + n]);
            offset += n;
            while let Some(frame) = deframer.next_frame().unwrap() {
                got.push(frame);
            }
        }
        prop_assert_eq!(got, frames);
        prop_assert_eq!(deframer.pending(), 0, "no bytes left behind");
    }
}

#[test]
fn tcp_round_verifies_over_a_real_listener() {
    let ids: Vec<DeviceId> = (1..=3).map(DeviceId).collect();
    let fleet = fleet_for(&ids);

    let mut runtime = FleetRuntime::bind_tcp("127.0.0.1:0", Arc::clone(&fleet), 1, 1).unwrap();
    let addr = runtime.listener().unwrap().local_addr().unwrap();
    let host_ids = ids.clone();
    let host = std::thread::spawn(move || {
        let stream = std::net::TcpStream::connect(addr).unwrap();
        // Small back-to-back response frames: without nodelay, Nagle +
        // delayed ACKs can stall each one ~40 ms.
        stream.set_nodelay(true).unwrap();
        host_provers(stream, host_ids, Vec::new());
    });

    // The runtime accepts the dialing host while it drives the round.
    let report = runtime.run_round(&ids, Duration::from_secs(5)).unwrap();
    assert_eq!(report.verified(), ids.len(), "{:#?}", report.outcomes);
    assert_eq!(fleet.in_flight(), 0);

    drop(runtime);
    host.join().unwrap();
}
