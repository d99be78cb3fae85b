//! Corpus-wide bit-identity sweep for the superblock executor: every
//! literate program in `programs/**` runs twice — superblocks on and
//! off — under its own manifest's stimulus schedule, and the two runs
//! must agree on every step's `Signals` (compared as per-step digests),
//! the final run verdict, and every monitor observation.
//!
//! The first sweep installs a signal tap on both devices, and a tapped
//! device runs per step whatever its superblock setting: it pins the
//! capture path to the per-step reference. The tap-free burst path,
//! which hands the monitors folded wires instead of `Signals`, is
//! covered by the machine-state comparison at the end, and with
//! interrupt timing swept by `tests/superblock_sweep.rs`.

use asap::device::Device;
use asap_corpus::{default_programs_dir, discover, CorpusProgram};
use openmsp430::signals::Signals;
use std::hash::{DefaultHasher, Hash, Hasher};
use std::sync::{Arc, Mutex};

/// One step's signals folded to a comparable fingerprint.
fn digest(s: &Signals) -> u64 {
    let mut h = DefaultHasher::new();
    s.cycle.hash(&mut h);
    s.step.hash(&mut h);
    s.pc.hash(&mut h);
    s.pc_next.hash(&mut h);
    s.irq.hash(&mut h);
    s.irq_vector.hash(&mut h);
    s.irq_pending.hash(&mut h);
    s.gie.hash(&mut h);
    s.cpu_off.hash(&mut h);
    s.idle.hash(&mut h);
    s.accesses.len().hash(&mut h);
    for a in &s.accesses {
        a.addr.hash(&mut h);
        a.value.hash(&mut h);
        a.byte.hash(&mut h);
        a.write.hash(&mut h);
        a.fetch.hash(&mut h);
        (a.master == openmsp430::bus::Master::Dma).hash(&mut h);
    }
    format!("{:?}", s.fault).hash(&mut h);
    h.finish()
}

/// Mirrors the corpus runner's `exercise`: builds the device with the
/// given superblock setting and a digest tap, applies the manifest's
/// stimulus schedule, and runs to the manifest's stop symbol.
fn exercise_tapped(program: &CorpusProgram, superblocks: bool) -> (Device, Vec<u64>, bool) {
    let m = &program.manifest;
    let digests = Arc::new(Mutex::new(Vec::new()));
    let sink = Arc::clone(&digests);
    let mut device = Device::builder(&program.image)
        .mode(m.mode)
        .key(m.device_key.as_bytes())
        .superblocks(superblocks)
        .stream_signals(move |s| sink.lock().unwrap().push(digest(s)))
        .build()
        .unwrap_or_else(|e| panic!("{}: device build: {e}", m.name));

    let mut now = 0u64;
    for stimulus in &m.stimuli {
        if stimulus.at_step > now {
            device.run_steps(stimulus.at_step - now);
            now = stimulus.at_step;
        }
        match &stimulus.kind {
            asap_corpus::StimulusKind::PressButton(pin) => device.set_button(*pin, true),
            asap_corpus::StimulusKind::UartRx(bytes) => device.uart_rx(bytes),
        }
    }

    let stop = program
        .image
        .symbol(&m.run_until)
        .unwrap_or_else(|| panic!("{}: no `{}` symbol", m.name, m.run_until));
    let reached = device.run_until_pc(stop, m.step_budget);
    let log = std::mem::take(&mut *digests.lock().unwrap());
    (device, log, reached)
}

#[test]
fn every_corpus_program_is_bit_identical_under_superblocks() {
    let programs = discover(&default_programs_dir()).expect("corpus discovers");
    assert!(
        programs.len() >= 10,
        "corpus unexpectedly small: {}",
        programs.len()
    );
    for program in &programs {
        let name = &program.manifest.name;
        let (fast, fast_log, fast_reached) = exercise_tapped(program, true);
        let (slow, slow_log, slow_reached) = exercise_tapped(program, false);

        assert_eq!(fast_reached, slow_reached, "{name}: run_until_pc verdict");
        assert_eq!(
            fast_log.len(),
            slow_log.len(),
            "{name}: step counts diverge"
        );
        if let Some(at) = fast_log.iter().zip(&slow_log).position(|(a, b)| a != b) {
            panic!("{name}: signals diverge at streamed step {at}");
        }
        assert_eq!(fast.exec(), slow.exec(), "{name}: EXEC");
        assert_eq!(fast.resets(), slow.resets(), "{name}: resets");
        assert_eq!(fast.violations(), slow.violations(), "{name}: violations");
        assert_eq!(fast.mcu.cpu.regs, slow.mcu.cpu.regs, "{name}: registers");
        assert_eq!(fast.mcu.cycles(), slow.mcu.cycles(), "{name}: cycles");
    }
}

/// The burst (wire-summary) path against the per-step pipeline: no
/// taps, so the superblocked run clocks its monitors from folded wires.
/// Machine state and monitor verdicts must still match exactly, for
/// both PoX architectures wherever the manifest allows.
#[test]
fn every_corpus_program_agrees_under_elision() {
    let programs = discover(&default_programs_dir()).expect("corpus discovers");
    for program in &programs {
        let m = &program.manifest;
        let name = &m.name;
        let mut runs = Vec::new();
        for superblocks in [true, false] {
            let mut device = Device::builder(&program.image)
                .mode(m.mode)
                .key(m.device_key.as_bytes())
                .superblocks(superblocks)
                .build()
                .unwrap_or_else(|e| panic!("{name}: device build: {e}"));
            let mut now = 0u64;
            for stimulus in &m.stimuli {
                if stimulus.at_step > now {
                    device.run_steps(stimulus.at_step - now);
                    now = stimulus.at_step;
                }
                match &stimulus.kind {
                    asap_corpus::StimulusKind::PressButton(pin) => device.set_button(*pin, true),
                    asap_corpus::StimulusKind::UartRx(bytes) => device.uart_rx(bytes),
                }
            }
            let stop = program
                .image
                .symbol(&m.run_until)
                .unwrap_or_else(|| panic!("{name}: no `{}` symbol", m.run_until));
            let reached = device.run_until_pc(stop, m.step_budget);
            runs.push((device, reached));
        }
        let (fast, fast_reached) = &runs[0];
        let (slow, slow_reached) = &runs[1];
        assert_eq!(fast_reached, slow_reached, "{name}: run_until_pc verdict");
        assert_eq!(fast.exec(), slow.exec(), "{name}: EXEC");
        assert_eq!(fast.resets(), slow.resets(), "{name}: resets");
        assert_eq!(fast.violations(), slow.violations(), "{name}: violations");
        assert_eq!(fast.mcu.cpu.regs, slow.mcu.cpu.regs, "{name}: registers");
        assert_eq!(fast.mcu.cycles(), slow.mcu.cycles(), "{name}: cycles");
        assert_eq!(fast.mcu.steps(), slow.mcu.steps(), "{name}: steps");
    }
}
