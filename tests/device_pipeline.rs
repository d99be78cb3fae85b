//! Regression suite for the zero-allocation predecoded step pipeline:
//! the reused `Signals` buffer must stop growing once warm, and every
//! pipeline variant (predecoded vs live-fetch, `step_into` vs the
//! allocating `step()` wrapper) must produce bit-identical signal
//! sequences — the monitors' verdicts may not depend on which pipeline
//! clocked them.

use asap::device::{Device, PoxMode};
use asap::programs;
use openmsp430::signals::Signals;

const STEADY_STEPS: u64 = 5_000;

fn fresh_device(mode: PoxMode) -> Device {
    let image = programs::fig4_authorized().expect("image links");
    Device::builder(&image)
        .mode(mode)
        .key(b"pipeline-key")
        .build()
        .expect("device builds")
}

/// Satellite: drive a fixed ER program for N steps through `step_into`
/// and assert the reused buffer's capacity stabilizes — no per-step
/// growth anywhere in the pipeline.
#[test]
fn signals_buffer_capacity_stabilizes() {
    let mut device = fresh_device(PoxMode::Asap);
    let mut signals = Signals::default();

    // Warm-up: run the whole ER program (including the button interrupt
    // the Fig. 4 scenario takes) to its done loop, then keep spinning.
    device.run_steps(6);
    device.set_button(0, true);
    let mut warm = 0u64;
    while device.mcu.cpu.regs.pc() != programs::done_pc() && warm < 10_000 {
        device.step_into(&mut signals);
        warm += 1;
    }
    assert_eq!(device.mcu.cpu.regs.pc(), programs::done_pc());
    assert!(device.exec(), "honest run raises EXEC");

    let cap = signals.accesses.capacity();
    assert!(cap > 0, "warm buffer holds at least one access");
    for _ in 0..STEADY_STEPS {
        device.step_into(&mut signals);
    }
    assert_eq!(
        signals.accesses.capacity(),
        cap,
        "steady-state stepping must not regrow the reused buffer"
    );

    // Attestation rounds reuse the device-internal scratch the same way:
    // two rounds, identical internal capacity before and after.
    use asap::{AsapVerifier, VerifierSpec};
    let image = programs::fig4_authorized().unwrap();
    let mut verifier = AsapVerifier::new(
        b"pipeline-key",
        VerifierSpec::from_image(&image)
            .unwrap()
            .mode(PoxMode::Asap),
    );
    for _ in 0..2 {
        let session = verifier.begin();
        let response = device.attest_bytes(&session.request_bytes()).unwrap();
        let outcome = session
            .evidence_bytes(&response)
            .unwrap()
            .conclude(&verifier);
        assert!(outcome.is_verified());
    }
    for _ in 0..100 {
        device.step_into(&mut signals);
    }
    assert_eq!(
        signals.accesses.capacity(),
        cap,
        "attestation rounds must not perturb the caller's buffer"
    );
}

/// Satellite: `step_into` and the legacy `step()` wrapper produce
/// identical `Signals` sequences, for both PoX architectures.
#[test]
fn step_into_and_step_are_bit_identical() {
    for mode in [PoxMode::Asap, PoxMode::Apex] {
        let mut wrapped = fresh_device(mode);
        let mut reused = fresh_device(mode);
        let mut signals = Signals::default();
        for step in 0..400u64 {
            // Poke both devices identically mid-run: a button press and
            // an adversarial write keep the sequences interesting.
            if step == 7 {
                wrapped.set_button(0, true);
                reused.set_button(0, true);
            }
            if step == 300 {
                wrapped.attacker_cpu_write(0xFFE4, 0xDEAD);
                reused.attacker_cpu_write(0xFFE4, 0xDEAD);
            }
            let report = wrapped.step();
            let verdict = reused.step_into(&mut signals);
            assert_eq!(report.signals, signals, "{mode:?} step {step}");
            assert_eq!(report.exec, verdict.exec, "{mode:?} step {step}");
            assert_eq!(report.reset, verdict.reset, "{mode:?} step {step}");
            assert_eq!(
                report.violations.len(),
                verdict.violations,
                "{mode:?} step {step}"
            );
        }
        assert_eq!(wrapped.violations(), reused.violations());
    }
}

/// The predecode cache is a pure accelerator: with it disabled, the MCU
/// emits exactly the same signal stream, interrupt for interrupt and
/// access for access.
#[test]
fn predecode_ablation_is_signal_invisible() {
    let mut cached = fresh_device(PoxMode::Asap);
    let mut fetched = fresh_device(PoxMode::Asap);
    fetched.mcu.set_predecode(false);
    let mut a = Signals::default();
    let mut b = Signals::default();
    for step in 0..600u64 {
        if step == 7 {
            cached.set_button(0, true);
            fetched.set_button(0, true);
        }
        if step == 200 {
            // DMA into code: the cache must re-decode, the live path
            // just reads — both must execute the same bytes.
            cached.attacker_dma_write(0xE004, 0x4303);
            fetched.attacker_dma_write(0xE004, 0x4303);
        }
        cached.step_into(&mut a);
        fetched.step_into(&mut b);
        assert_eq!(a, b, "step {step}");
    }
    assert_eq!(cached.exec(), fetched.exec());
    assert_eq!(cached.resets(), fetched.resets());
}

/// Tentpole: the superblock fast path is observably identical to the
/// per-step pipeline. Same stimuli (button interrupt, adversarial IVT
/// write), same verdicts, same machine state — only faster.
#[test]
fn superblock_and_per_step_devices_agree() {
    for mode in [PoxMode::Asap, PoxMode::Apex] {
        let image = programs::fig4_authorized().expect("image links");
        let mut fast = Device::builder(&image)
            .mode(mode)
            .key(b"pipeline-key")
            .superblocks(true)
            .build()
            .unwrap();
        let mut slow = Device::builder(&image)
            .mode(mode)
            .key(b"pipeline-key")
            .superblocks(false)
            .build()
            .unwrap();
        for d in [&mut fast, &mut slow] {
            d.run_steps(6);
            d.set_button(0, true);
            d.run_steps(600);
            d.attacker_cpu_write(0xFFE4, 0xDEAD);
            d.run_steps(200);
        }
        assert_eq!(fast.exec(), slow.exec(), "{mode:?} EXEC");
        assert_eq!(fast.resets(), slow.resets(), "{mode:?} resets");
        assert_eq!(fast.violations(), slow.violations(), "{mode:?} violations");
        assert_eq!(fast.mcu.cpu.regs, slow.mcu.cpu.regs, "{mode:?} registers");
        assert_eq!(fast.mcu.cycles(), slow.mcu.cycles(), "{mode:?} cycles");
        assert_eq!(fast.mcu.steps(), slow.mcu.steps(), "{mode:?} steps");
    }
}

/// With a signal tap installed, a device built with superblocks on runs
/// its loops per step, so it streams the exact per-step `Signals`
/// sequence — bit for bit — and records the same waveform, through
/// interrupts and DMA-into-code invalidation.
#[test]
fn superblock_signal_stream_is_bit_identical() {
    use std::sync::{Arc, Mutex};

    let image = programs::fig4_authorized().expect("image links");
    let logs: Vec<Arc<Mutex<Vec<Signals>>>> = vec![
        Arc::new(Mutex::new(Vec::new())),
        Arc::new(Mutex::new(Vec::new())),
    ];
    let mut devices = Vec::new();
    for (i, on) in [(0, true), (1, false)] {
        let log = Arc::clone(&logs[i]);
        devices.push(
            Device::builder(&image)
                .key(b"pipeline-key")
                .superblocks(on)
                .record_wave(true)
                .stream_signals(move |s| log.lock().unwrap().push(s.clone()))
                .build()
                .unwrap(),
        );
    }
    let mut reached = Vec::new();
    for d in &mut devices {
        d.run_steps(6);
        d.set_button(0, true);
        d.run_steps(400);
        d.attacker_dma_write(0xE004, 0x4303);
        reached.push(d.run_until_pc(programs::done_pc(), 10_000));
    }
    assert_eq!(reached[0], reached[1], "run_until_pc outcome");
    let fast_log = logs[0].lock().unwrap();
    let slow_log = logs[1].lock().unwrap();
    assert_eq!(fast_log.len(), slow_log.len(), "stream lengths");
    for (step, (a, b)) in fast_log.iter().zip(slow_log.iter()).enumerate() {
        assert_eq!(a, b, "signals diverge at streamed step {step}");
    }
    assert_eq!(devices[0].wave(), devices[1].wave(), "waveforms");
    assert_eq!(devices[0].violations(), devices[1].violations());
}

/// A tap-free device, whose bursts hand the monitor stack only folded
/// wires, reaches the same machine state and verdicts as a tapped
/// device, which runs per step and materializes full `Signals` — the
/// folded wires really are all the monitor stack can see.
#[test]
fn elided_and_materialized_device_runs_agree() {
    let image = programs::fig4_authorized().expect("image links");
    let mut bursting = Device::builder(&image)
        .key(b"pipeline-key")
        .superblocks(true)
        .build()
        .unwrap();
    let mut full = Device::builder(&image)
        .key(b"pipeline-key")
        .superblocks(true)
        .stream_signals(|_| {})
        .build()
        .unwrap();
    for d in [&mut bursting, &mut full] {
        d.run_steps(6);
        d.set_button(0, true);
        d.run_steps(800);
        d.attacker_cpu_write(0xFFE4, 0xBEEF);
        d.run_steps(100);
    }
    assert_eq!(bursting.exec(), full.exec());
    assert_eq!(bursting.resets(), full.resets());
    assert_eq!(bursting.violations(), full.violations());
    assert_eq!(bursting.mcu.cpu.regs, full.mcu.cpu.regs);
    assert_eq!(bursting.mcu.cycles(), full.mcu.cycles());
    assert_eq!(bursting.mcu.steps(), full.mcu.steps());
}

/// APEX bursts compute the IVT wires too. An APEX device has its IVT
/// written mid-run, once by a CPU store executed inside a burst (the
/// `ivt-rewrite` program's post-run vector write) and once by DMA; the
/// superblock and per-step devices must agree after every burst.
#[test]
fn apex_ivt_writes_agree_across_pipelines() {
    let source = include_str!("../programs/attacks/ivt-rewrite.s.md");
    let image = programs::build_literate(source, &[]).expect("image links");
    let mut devices = [true, false].map(|on| {
        Device::builder(&image)
            .mode(PoxMode::Apex)
            .key(b"pipeline-key")
            .superblocks(on)
            .build()
            .unwrap()
    });
    for burst in 0..48u64 {
        for d in &mut devices {
            if burst == 30 {
                d.attacker_dma_write(0xFFE6, 0xBEEF);
            }
            d.run_steps(burst % 5 + 1);
        }
        let [fast, slow] = &devices;
        assert_eq!(fast.exec(), slow.exec(), "burst {burst}: EXEC");
        assert_eq!(fast.violations(), slow.violations(), "burst {burst}");
        assert_eq!(fast.resets(), slow.resets(), "burst {burst}: resets");
        assert_eq!(fast.mcu.cpu.regs, slow.mcu.cpu.regs, "burst {burst}");
        assert_eq!(fast.mcu.cycles(), slow.mcu.cycles(), "burst {burst}");
    }
    for d in &devices {
        let ivt = d.ivt_bytes();
        assert_eq!(&ivt[4..8], &[0xAD, 0xDE, 0xEF, 0xBE], "both writes landed");
        assert!(d.exec(), "APEX does not guard the IVT");
    }
}

/// Satellite: the merged predecode + superblock cache counters are
/// visible at the device level and move the way a burst should move
/// them — blocks built and hit, and host pokes into code retire them.
#[test]
fn device_cache_stats_reflect_superblock_activity() {
    let mut d = fresh_device(PoxMode::Asap);
    d.run_steps(200);
    let warm = d.mcu.cache_stats();
    assert!(warm.blocks_built > 0, "bursts build superblocks");
    d.run_steps(200);
    let hot = d.mcu.cache_stats();
    assert!(hot.hits > warm.hits, "re-entry hits the block cache");
    // Poke a word in the same 512-byte page as the spinning done loop:
    // the next burst's entry lookup must find the block stale.
    d.attacker_cpu_write(programs::done_pc() + 0x40, 0x4303);
    d.run_steps(200);
    let poked = d.mcu.cache_stats();
    assert!(
        poked.blocks_retired > hot.blocks_retired,
        "host pokes into code retire stale superblocks"
    );
}
