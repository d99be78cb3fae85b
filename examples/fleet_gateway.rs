//! Fifty provers, one fleet runtime, mixed verdicts.
//!
//! The verifier binds a single TCP endpoint and drives one batched PoX
//! round through a `FleetRuntime` sharded over two reactor threads;
//! five prover-host threads dial in, each announcing and serving ten
//! simulated MCUs over its own connection — devices are routed by
//! their hello frames, never pinned to a transport *or a reactor*:
//! when a device's challenge is owned by one reactor but its
//! connection lives on another, the frames cross over the reactors'
//! mailboxes. Two devices are scripted to stay silent (their deadline
//! resolves to `NoResponse`), and one is enrolled under the wrong key,
//! so its honest evidence fails the MAC check: one round, three
//! different verdicts, no thread ever blocked on a slow peer.
//!
//! Run with: `cargo run --example fleet_gateway`

use asap::{programs, PoxMode, VerifierSpec};
use asap_bench::fleet::host_gateway_provers;
use asap_fleet::{DeviceId, FleetRuntime, FleetVerifier};
use std::error::Error;
use std::sync::Arc;
use std::time::Duration;

const DEVICES: u64 = 50;
const HOSTS: u64 = 5;
const REACTORS: usize = 2;

fn key_for(id: DeviceId) -> Vec<u8> {
    format!("gateway-example-key-{id}").into_bytes()
}

fn main() -> Result<(), Box<dyn Error>> {
    let ids: Vec<DeviceId> = (1..=DEVICES).map(DeviceId).collect();
    let silent = [DeviceId(17), DeviceId(42)];
    let mis_keyed = DeviceId(23);

    // Verifier side: enroll every device by key and image-derived spec.
    // Device 23 is enrolled under the wrong key — its evidence will be
    // honest and well-formed, and still fail the MAC check.
    let image = programs::fig4_authorized()?;
    let fleet = Arc::new(FleetVerifier::new());
    for &id in &ids {
        let key = if id == mis_keyed {
            b"not-the-device's-key".to_vec()
        } else {
            key_for(id)
        };
        fleet.register(
            id,
            &key,
            VerifierSpec::from_image(&image)?.mode(PoxMode::Asap),
        )?;
    }

    // One TCP endpoint for the whole fleet, served by two reactors.
    let mut runtime = FleetRuntime::bind_tcp("127.0.0.1:0", Arc::clone(&fleet), REACTORS, 1)?;
    let addr = runtime.listener().expect("own listener").local_addr()?;
    println!("runtime listening on {addr} ({REACTORS} reactors)");

    // Five prover hosts, ten devices each, every one dialing in on its
    // own connection and announcing its devices with hello frames.
    let hosts: Vec<_> = ids
        .chunks((DEVICES / HOSTS) as usize)
        .map(|chunk| {
            let host_ids = chunk.to_vec();
            let silent: Vec<DeviceId> = chunk
                .iter()
                .copied()
                .filter(|id| silent.contains(id))
                .collect();
            std::thread::spawn(move || {
                let stream = std::net::TcpStream::connect(addr).expect("dial the runtime");
                host_gateway_provers(stream, &host_ids, key_for, &silent, || ());
            })
        })
        .collect();

    println!("challenging {DEVICES} devices across {HOSTS} connections…");
    let report = runtime.run_round(&ids, Duration::from_millis(800))?;

    for outcome in &report.outcomes {
        if let (Some(id), Err(e)) = (outcome.device, &outcome.result) {
            println!("  device {id}: {e}");
        }
    }
    println!(
        "{report} — over {} connections, {} devices routed",
        runtime.connections(),
        runtime.routed_devices()
    );
    for (i, stats) in runtime.reactor_stats().iter().enumerate() {
        println!(
            "  reactor {i}: {} connections, {} outcomes",
            stats.connections, stats.last_round_outcomes
        );
    }

    assert_eq!(report.verified(), (DEVICES as usize) - 3);
    assert_eq!(report.no_response(), silent.len());
    assert_eq!(
        report.of(mis_keyed),
        Some(&Err(asap_fleet::FleetError::Rejected(
            asap::AsapError::BadMac
        )))
    );
    assert_eq!(fleet.in_flight(), 0, "rounds never leak sessions");

    drop(runtime); // hang up; every prover host sees EOF and exits
    for host in hosts {
        host.join().expect("prover host exits cleanly");
    }
    Ok(())
}
