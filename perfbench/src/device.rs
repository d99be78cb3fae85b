//! The `device-irq` workload: one ASAP device proving a long `ER` loop
//! that a periodic timer interrupt keeps cutting into.
//!
//! Each session is a full proof of execution: the verifier issues a
//! challenge, the device powers up, runs the loop with
//! `Device::run_steps` on the default (superblock) path, and answers
//! with `Device::attest_bytes`; the verifier concludes. The simulator
//! does nearly all the work and the fleet layers none.

use crate::live::{Live, LiveStats};
use crate::procfs;
use crate::script::EpochCheck;
use crate::trace::Tracer;
use asap::{programs, AsapVerifier, Device, PoxMode, VerifierSpec};
use msp430_tools::link::Image;
use std::sync::Arc;
use std::time::{Duration, Instant};

/// The workload's program: a literate source with `period`, `outer`
/// and `inner` parameters.
const IRQ_LOOP: &str = include_str!("irq-loop.s.md");

/// Bound on the per-step reference run (the loop takes ~26k steps).
const REFERENCE_MAX_STEPS: u64 = 10_000_000;

/// The device key of the `device-irq` workload.
const KEY: &[u8] = b"device-irq-key";

/// The timer period, in cycles, for `seed`: drawn from a narrow band
/// around 200 so every seed interrupts the loop about equally often.
pub fn period_for(seed: u64) -> u16 {
    176 + ((seed.wrapping_mul(0x9E37_79B9_7F4A_7C15) >> 32) % 49) as u16
}

/// The workload's image for one timer period.
pub fn irq_image(period: u16) -> Image {
    programs::build_literate(IRQ_LOOP, &[("period", &period.to_string())]).expect("irq-loop links")
}

/// The simulated state a proof run must end in.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct FinalState {
    /// Simulated instructions executed.
    pub steps: u64,
    /// Simulated cycles elapsed.
    pub cycles: u64,
    /// The `EXEC` flag.
    pub exec: bool,
    /// The `OR` bytes; the first word is the interrupt tally.
    pub or: Vec<u8>,
}

impl FinalState {
    /// Where `device` stands now.
    pub fn of(device: &Device) -> FinalState {
        FinalState {
            steps: device.mcu.steps(),
            cycles: device.mcu.cycles(),
            exec: device.exec(),
            or: device.or_bytes(),
        }
    }

    /// Interrupts the ISR counted.
    pub fn irqs(&self) -> u16 {
        u16::from_le_bytes([self.or[0], self.or[1]])
    }
}

/// Boots a fresh device running `image`.
pub fn boot(image: &Image, superblocks: bool) -> Device {
    Device::builder(image)
        .mode(PoxMode::Asap)
        .key(KEY)
        .superblocks(superblocks)
        .build()
        .expect("irq-loop device builds")
}

/// Runs the per-step reference path (superblocks off) from power-up to
/// the done loop and records where it ends.
pub fn reference_run(image: &Image) -> FinalState {
    let mut device = boot(image, false);
    assert!(
        device.run_until_pc(programs::done_pc(), REFERENCE_MAX_STEPS),
        "irq-loop reaches its done loop"
    );
    let state = FinalState::of(&device);
    assert!(state.exec, "interrupts inside ER keep EXEC set");
    state
}

/// A set-up `device-irq` workload.
///
/// Prover and verifier run on the calling thread: handing each proof
/// to another thread would add the VM's wake-up latency for an idle
/// vCPU, milliseconds at times, to the proof latency it measures. The
/// verifier's share is timed around its own calls instead.
pub struct IrqSeries {
    period: u16,
    image: Image,
    reference: FinalState,
    verifier: AsapVerifier,
    tid: u64,
}

impl IrqSeries {
    /// Links the program for the seed's period and computes the
    /// per-step reference.
    pub fn setup(seed: u64) -> IrqSeries {
        let period = period_for(seed);
        let image = irq_image(period);
        let reference = reference_run(&image);
        let spec = VerifierSpec::from_image(&image)
            .expect("irq-loop spec derives")
            .mode(PoxMode::Asap);
        IrqSeries {
            period,
            image,
            reference,
            verifier: AsapVerifier::new_shared(KEY, Arc::new(spec)),
            tid: procfs::current_tid().unwrap_or(0),
        }
    }

    /// The timer period in cycles.
    pub fn period(&self) -> u16 {
        self.period
    }

    /// The per-step reference state.
    pub fn reference(&self) -> &FinalState {
        &self.reference
    }

    /// Tid of the thread that runs the device.
    pub fn prover_tids(&self) -> Vec<u64> {
        vec![self.tid]
    }

    /// Measures for `seconds` of back-to-back proof sessions. A session
    /// fails when the device's final state differs from the per-step
    /// reference or the proof does not verify.
    pub fn run(&mut self, seconds: f64, tracer: &mut Tracer) -> LiveStats {
        let deadline = Instant::now() + Duration::from_secs_f64(seconds);
        let steps = self.reference.steps;
        let mut live = Live::start(&[self.tid]);
        let mut session_no = 0u64;
        while Instant::now() < deadline {
            let span = tracer.enter("session", Some(session_no));
            let issued = Instant::now();
            let (session, request) = tracer.span("asap.challenge", None, 1, || {
                let session = self.verifier.begin();
                let request = session.request_bytes();
                (session, request)
            });
            let challenged = Instant::now();
            let mut device = tracer.span("asap.device_boot", None, 1, || boot(&self.image, true));
            tracer.span("sim.run_steps", None, steps, || device.run_steps(steps));
            let state = FinalState::of(&device);
            let response = tracer
                .span("asap.attest_bytes", None, 1, || {
                    device.attest_bytes(&request)
                })
                .unwrap_or_default();
            let answered = Instant::now();
            let verdict = tracer.span("asap.conclude", None, 1, || {
                session
                    .evidence_bytes(&response)
                    .and_then(|s| s.conclude(&self.verifier).into_result())
            });
            let completed = Instant::now();
            tracer.exit(span, 1);
            let exact = verdict.is_ok_and(|a| a.output == self.reference.or);
            let ok = exact && state == self.reference;
            live.check.add(EpochCheck {
                attempted: 1,
                failed: usize::from(!ok),
                verified: usize::from(ok),
                ..EpochCheck::default()
            });
            live.verifier_time((challenged - issued) + (completed - answered));
            live.completed(issued, completed, 1);
            session_no += 1;
        }
        live.finish()
    }
}
