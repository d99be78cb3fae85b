//! Per-layer probes of the traced run.
//!
//! The runtime hides its verifier-side calls, so each layer is timed
//! from outside: the probe calls that layer's public functions on the
//! workload's own kind of input, in batches, each batch one span. A
//! layer's figure is the median per-unit cost over its batches. Every
//! probe runs in every workload's traced run, so a layer figure can be
//! compared across workloads.

use crate::device;
use crate::fleet::{boot_fig4, device_key, fig4_spec};
use crate::trace::{per_unit_ns, Span, Tracer};
use apex_pox::wire::{frame_stream, Envelope, StreamDeframer};
use asap::{programs, AsapVerifier};
use asap_fleet::{DeviceId, FleetDirectory, FleetVerifier, LifecycleConfig, Loopback};
use openmsp430::Signals;
use pox_crypto::{hmac::hmac_sha256, sha256};
use std::hint::black_box;
use std::sync::Arc;
use std::time::{Duration, Instant};

/// Devices in the registry and loopback probes (the steady fleet).
const FLEET_PROBE_DEVICES: u64 = 500;
/// Devices in the lifecycle probe's directory (the churn fleet).
const DIRECTORY_PROBE_DEVICES: u64 = 2_000;
/// Calls per crypto and asap batch.
const BATCH: usize = 64;
/// Frames per wire batch: a frame takes tens of ns, so a batch is long
/// enough that its span's own cost stays under 1%.
const WIRE_BATCH: usize = 1024;

/// A per-layer figure: name, value, unit.
pub type Figure = (&'static str, f64, &'static str);

/// Runs `batch` until `budget` has passed, and at least five times.
fn repeat(budget: Duration, mut batch: impl FnMut()) {
    let start = Instant::now();
    let mut n = 0;
    while n < 5 || start.elapsed() < budget {
        batch();
        n += 1;
    }
}

/// What the probes produced.
pub struct Probes {
    /// Per-layer figures.
    pub figures: Vec<Figure>,
    /// Costs derived as differences of figures, in ns.
    pub derived: Vec<(&'static str, f64)>,
    /// Probe verdicts that came out wrong.
    pub wrong: u64,
    /// Every probe batch, one root span each.
    pub spans: Vec<Span>,
}

/// Runs every probe within roughly `budget`, recording batch spans on
/// the time line starting at `base`.
pub fn probe_all(base: Instant, seed: u64, budget: Duration) -> Probes {
    let mut tracer = Tracer::new(base, true);
    let tracer = &mut tracer;
    let slice = budget / 6;
    let mut wrong = 0;
    crypto(tracer, seed, slice);
    wrong += asap_and_wire(tracer, slice);
    wrong += registry(tracer, seed, slice);
    lifecycle(tracer, seed, slice);
    let (sim, sim_wrong) = simulator(tracer, seed, slice);
    wrong += sim_wrong;

    let spans = std::mem::replace(tracer, Tracer::new(base, false)).into_spans();
    let ns = |name: &str| per_unit_ns(&spans, name).unwrap_or(f64::NAN);
    let sha_ns = ns("pox-crypto.sha256_8k");
    let challenge = ns("asap.challenge");
    let attest = ns("asap.attest_bytes");
    let conclude = ns("asap.conclude");
    let mcu = ns("sim.mcu_step_into");
    let mut figures = vec![
        ("pox-crypto.hmac_200b_ns", ns("pox-crypto.hmac_200b"), "ns"),
        (
            "pox-crypto.sha256_8k_mib_s",
            8192.0 / sha_ns * 1e9 / (1024.0 * 1024.0),
            "MiB/s",
        ),
        ("asap.challenge_ns", challenge, "ns"),
        ("asap.conclude_ns", conclude, "ns"),
        ("asap.attest_bytes_ns", attest, "ns"),
        ("wire.envelope_encode_ns", ns("wire.envelope_encode"), "ns"),
        ("wire.envelope_decode_ns", ns("wire.envelope_decode"), "ns"),
        ("wire.deframe_ns_per_frame", ns("wire.deframe"), "ns"),
        (
            "fleet.begin_round_ns_per_device",
            ns("fleet.begin_round"),
            "ns",
        ),
        (
            "fleet.conclude_batch_ns_per_frame",
            ns("fleet.conclude_batch"),
            "ns",
        ),
        (
            "fleet.loopback_ns_per_session",
            ns("fleet.loopback_round"),
            "ns",
        ),
        ("fleet.register_ns", ns("fleet.register"), "ns"),
        ("fleet.remove_ns", ns("fleet.remove"), "ns"),
        (
            "lifecycle.begin_epoch_us",
            ns("lifecycle.begin_epoch") / 1e3,
            "us",
        ),
        ("lifecycle.join_ns", ns("lifecycle.join"), "ns"),
        ("lifecycle.leave_ns", ns("lifecycle.leave"), "ns"),
        ("sim.mcu_ns_per_step", mcu, "ns"),
        ("sim.perstep_ns_per_step", ns("sim.perstep_run_steps"), "ns"),
        (
            "sim.device_step_ns_per_step",
            ns("sim.device_step_into"),
            "ns",
        ),
        (
            "sim.steps_per_sec",
            1e9 / ns("sim.superblock_run_steps"),
            "1/s",
        ),
    ];
    figures.extend(sim);
    // Differences of separately measured medians: printed beside the
    // figures, never reported as metrics, since they can come out at
    // or below zero.
    let derived = vec![
        (
            "fleet.engine_ns_per_session",
            ns("fleet.loopback_round") - challenge - attest - conclude,
        ),
        ("sim.monitor_ns_per_step", ns("sim.device_step_into") - mcu),
    ];
    Probes {
        figures,
        derived,
        wrong,
        spans,
    }
}

/// HMAC over a fig4-sized message and SHA-256 over 8 KiB.
fn crypto(tracer: &mut Tracer, seed: u64, budget: Duration) {
    let key = device_key(seed, DeviceId(1));
    let message: Vec<u8> = (0..200u32).map(|i| (i as u8) ^ seed as u8).collect();
    let block: Vec<u8> = (0..8192u32).map(|i| (i * 7) as u8).collect();
    repeat(budget / 2, || {
        tracer.span("pox-crypto.hmac_200b", None, BATCH as u64, || {
            for _ in 0..BATCH {
                black_box(hmac_sha256(black_box(&key), black_box(&message)));
            }
        });
    });
    repeat(budget / 2, || {
        tracer.span("pox-crypto.sha256_8k", None, 4, || {
            for _ in 0..4 {
                black_box(sha256::digest(black_box(&block)));
            }
        });
    });
}

/// Challenge issue, prover attestation and conclusion on one fig4
/// device, then envelope encode/decode and stream deframing of its
/// evidence. Returns the number of wrong verdicts.
fn asap_and_wire(tracer: &mut Tracer, budget: Duration) -> u64 {
    let image = programs::fig4_authorized().expect("fig4 image links");
    let key = b"probe-key";
    let mut device = boot_fig4(&image, key);
    let spec = fig4_spec();
    let mut verifier = AsapVerifier::new_shared(key, Arc::clone(&spec));
    let mut wrong = 0;
    repeat(budget / 4, || {
        tracer.span("asap.challenge", None, BATCH as u64, || {
            for _ in 0..BATCH {
                let session = verifier.begin();
                black_box(session.request_bytes());
            }
        });
    });
    repeat(budget / 4, || {
        let requests: Vec<Vec<u8>> = (0..BATCH)
            .map(|_| verifier.begin().request_bytes())
            .collect();
        tracer.span("asap.attest_bytes", None, BATCH as u64, || {
            for request in &requests {
                black_box(device.attest_bytes(request).ok());
            }
        });
    });
    repeat(budget / 4, || {
        let sessions: Vec<_> = (0..BATCH)
            .map(|_| {
                let session = verifier.begin();
                let response = device
                    .attest_bytes(&session.request_bytes())
                    .expect("requests decode");
                (session, response)
            })
            .collect();
        let verified = tracer.span("asap.conclude", None, BATCH as u64, || {
            sessions
                .into_iter()
                .map(|(session, response)| {
                    session
                        .evidence_bytes(&response)
                        .and_then(|s| s.conclude(&verifier).into_result())
                        .is_ok()
                })
                .filter(|&ok| ok)
                .count()
        });
        wrong += (BATCH - verified) as u64;
    });

    let payload = device
        .attest_bytes(&verifier.begin().request_bytes())
        .expect("requests decode");
    let frame = Envelope::wrap(7, payload.clone()).to_bytes();
    let stream: Vec<u8> = (0..WIRE_BATCH).flat_map(|_| frame_stream(&frame)).collect();
    repeat(budget / 12, || {
        tracer.span("wire.envelope_encode", None, WIRE_BATCH as u64, || {
            for _ in 0..WIRE_BATCH {
                black_box(Envelope::wrap(7, black_box(payload.clone())).to_bytes());
            }
        });
    });
    repeat(budget / 12, || {
        tracer.span("wire.envelope_decode", None, WIRE_BATCH as u64, || {
            for _ in 0..WIRE_BATCH {
                black_box(Envelope::from_bytes(black_box(&frame)).ok());
            }
        });
    });
    repeat(budget / 12, || {
        let frames = tracer.span("wire.deframe", None, WIRE_BATCH as u64, || {
            // Fed in the 4 KiB chunks a reactor's `pump_read` hands
            // over, frames pulled after each chunk.
            let mut deframer = StreamDeframer::new();
            let mut frames = 0;
            for chunk in black_box(&stream).chunks(4096) {
                deframer.extend(chunk);
                while let Ok(Some(f)) = deframer.next_frame() {
                    black_box(f);
                    frames += 1;
                }
            }
            frames
        });
        if frames != WIRE_BATCH {
            wrong += 1;
        }
    });
    wrong
}

/// Registry batch issue and conclusion, a whole lock-step loopback
/// round (engine included), and enrollment churn. Returns the number
/// of wrong verdicts.
fn registry(tracer: &mut Tracer, seed: u64, budget: Duration) -> u64 {
    let image = programs::fig4_authorized().expect("fig4 image links");
    let spec = fig4_spec();
    let ids: Vec<DeviceId> = (1..=FLEET_PROBE_DEVICES).map(DeviceId).collect();
    // Serial conclusion: the figures are per-frame costs, and the
    // loopback round must be the serial sum the engine cost is
    // derived from.
    let fleet = FleetVerifier::new();
    fleet.set_parallelism(1);
    let mut fabric = Loopback::new();
    for &id in &ids {
        let key = device_key(seed, id);
        fleet
            .register_shared(id, &key, Arc::clone(&spec))
            .expect("ids are unique");
        fabric.attach(id, boot_fig4(&image, &key));
    }
    let n = ids.len();
    let mut wrong = 0u64;
    repeat(budget / 3, || {
        let requests = tracer
            .span("fleet.begin_round", None, n as u64, || {
                fleet.begin_round(&ids)
            })
            .expect("all enrolled");
        let frames: Vec<Vec<u8>> = requests
            .iter()
            .map(|(id, request)| fabric.exchange(*id, request).expect("loopback answers"))
            .collect();
        let verdicts = tracer.span("fleet.conclude_batch", None, n as u64, || {
            fleet.conclude_batch(&frames)
        });
        wrong += verdicts.iter().filter(|v| v.1.is_err()).count() as u64;
    });
    repeat(budget / 3, || {
        let report = tracer
            .span("fleet.loopback_round", None, n as u64, || {
                fleet.run_round(&ids, &mut fabric)
            })
            .expect("all enrolled");
        wrong += (n - report.verified()) as u64;
    });
    let fresh: Vec<(DeviceId, Vec<u8>)> = (0..DIRECTORY_PROBE_DEVICES)
        .map(|i| {
            let id = DeviceId(1_000_000 + i);
            (id, device_key(seed, id))
        })
        .collect();
    let m = fresh.len() as u64;
    repeat(budget / 3, || {
        let registry = FleetVerifier::new();
        tracer.span("fleet.register", None, m, || {
            for (id, key) in &fresh {
                registry
                    .register_shared(*id, key, Arc::clone(&spec))
                    .expect("ids are unique");
            }
        });
        tracer.span("fleet.remove", None, m, || {
            for (id, _) in &fresh {
                black_box(registry.remove(*id));
            }
        });
    });
    wrong
}

/// A churn directory: enrollment, then epochs of leave → begin_epoch →
/// re-join, as the `fleet-churn` loop does them.
fn lifecycle(tracer: &mut Tracer, seed: u64, budget: Duration) {
    let spec = fig4_spec();
    let keys: Vec<(DeviceId, Vec<u8>)> = (1..=DIRECTORY_PROBE_DEVICES)
        .map(|i| (DeviceId(i), device_key(seed, DeviceId(i))))
        .collect();
    repeat(budget, || {
        let dir = FleetDirectory::new(
            LifecycleConfig::new()
                .cohort(250)
                .seed(seed)
                .pipeline_window(2),
        );
        tracer.span("lifecycle.enroll", None, keys.len() as u64, || {
            for (id, key) in &keys {
                dir.join_shared(*id, key, Arc::clone(&spec))
                    .expect("ids are unique");
            }
        });
        dir.begin_epoch();
        for epoch in 0..8u64 {
            let leavers: Vec<&(DeviceId, Vec<u8>)> = keys
                .iter()
                .skip((epoch as usize * 97 + seed as usize) % 1000)
                .step_by(113)
                .take(8)
                .collect();
            tracer.span("lifecycle.leave", None, leavers.len() as u64, || {
                for (id, _) in &leavers {
                    black_box(dir.leave(*id));
                }
            });
            tracer.span("lifecycle.begin_epoch", None, 1, || {
                black_box(dir.begin_epoch())
            });
            tracer.span("lifecycle.join", None, leavers.len() as u64, || {
                for (id, key) in &leavers {
                    black_box(dir.join_shared(*id, key, Arc::clone(&spec)).is_ok());
                }
            });
        }
    });
}

/// The simulator on the `device-irq` program at this seed's period:
/// bare MCU steps, monitored per-step device steps, the per-step run
/// loop and the default superblock run loop, each over one full proof
/// run. Both run loops must end in the per-step reference's state.
/// Returns the cache and simulated-state figures and the number of runs
/// that ended elsewhere.
fn simulator(tracer: &mut Tracer, seed: u64, budget: Duration) -> (Vec<Figure>, u64) {
    let image = device::irq_image(device::period_for(seed));
    let reference = device::reference_run(&image);
    let steps = reference.steps;
    let mut signals = Signals::default();
    let (mut lookups, mut hits, mut sb_steps, mut wrong) = (0u64, 0u64, 0u64, 0u64);
    repeat(budget, || {
        let mut d = device::boot(&image, false);
        tracer.span("sim.mcu_step_into", None, steps, || {
            for _ in 0..steps {
                d.mcu.step_into(&mut signals);
            }
        });
        let mut d = device::boot(&image, false);
        tracer.span("sim.device_step_into", None, steps, || {
            for _ in 0..steps {
                black_box(d.step_into(&mut signals));
            }
        });
        let mut d = device::boot(&image, false);
        tracer.span("sim.perstep_run_steps", None, steps, || d.run_steps(steps));
        wrong += u64::from(device::FinalState::of(&d) != reference);
        let mut d = device::boot(&image, true);
        let before = d.mcu.cache_stats();
        tracer.span("sim.superblock_run_steps", None, steps, || {
            d.run_steps(steps)
        });
        let after = d.mcu.cache_stats();
        wrong += u64::from(device::FinalState::of(&d) != reference);
        hits += after.hits - before.hits;
        lookups += (after.hits + after.misses) - (before.hits + before.misses);
        sb_steps += steps;
    });
    let figures = vec![
        (
            "sim.steps_per_lookup",
            sb_steps as f64 / lookups.max(1) as f64,
            "steps",
        ),
        (
            "sim.cache_hit_ratio",
            hits as f64 / lookups.max(1) as f64,
            "ratio",
        ),
        (
            "sim.cycles_per_step",
            reference.cycles as f64 / reference.steps as f64,
            "cycles",
        ),
        ("sim.irqs_serviced", f64::from(reference.irqs()), "count"),
    ];
    (figures, wrong)
}
