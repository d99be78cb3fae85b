//! The superblock run loop against the per-step reference, with the
//! interrupt timing swept around `ER` entry and exit.
//!
//! Each case draws a program — one of the literate corpus programs or
//! one of the first 100,000 programs of the `asap_corpus::generator`
//! stream CI pins — and reschedules every stimulus in its manifest:
//! anchored at its manifest step, at the step the per-step reference
//! first enters `ER`, or at the step it first leaves it, then shifted by
//! −3..=3 steps (clamped at 0, order kept). A `superblocks(true)` and a
//! `superblocks(false)` device follow that schedule in bursts of random
//! length, and after every burst they must agree on registers, cycle
//! and step counts, `EXEC`, violations, resets, and the `OR`, `ER` and
//! IVT bytes. An interrupt landing a few steps either side of the `ER`
//! boundary, or of a superblock boundary, is where an interrupt racing
//! the proof would slip past a wrong fast path.
//!
//! `PROPTEST_CASES` sets the case count (CI also runs 1000 in release).

use asap::device::Device;
use asap_corpus::generator::generate;
use asap_corpus::{
    default_programs_dir, discover, load_str, CorpusProgram, Stimulus, StimulusKind,
};
use proptest::prelude::*;
use std::sync::OnceLock;

/// Generator indices a case may draw from.
const GENERATED: u64 = 100_000;

/// The generator seed CI pins for its 200-program digest.
const GENERATOR_SEED: u64 = 0xA5A9_2022;

fn build(program: &CorpusProgram, superblocks: bool) -> Device {
    let m = &program.manifest;
    Device::builder(&program.image)
        .mode(m.mode)
        .key(m.device_key.as_bytes())
        .superblocks(superblocks)
        .build()
        .unwrap_or_else(|e| panic!("{}: device build: {e}", m.name))
}

fn apply(device: &mut Device, stimulus: &Stimulus) {
    match &stimulus.kind {
        StimulusKind::PressButton(pin) => device.set_button(*pin, true),
        StimulusKind::UartRx(bytes) => device.uart_rx(bytes),
    }
}

/// The steps at which the per-step reference run of the manifest's own
/// schedule first enters `ER` (at `ERmin`) and first leaves it again; a
/// program that never enters `ER` anchors both at step 0.
fn er_window(program: &CorpusProgram) -> [u64; 2] {
    let mut device = build(program, false);
    let er = device.er();
    let mut stimuli = program.manifest.stimuli.iter().peekable();
    let (mut entry, mut exit) = (None, None);
    for step in 0..program.manifest.step_budget {
        while let Some(s) = stimuli.next_if(|s| s.at_step <= step) {
            apply(&mut device, s);
        }
        let pc = device.mcu.cpu.regs.pc();
        if entry.is_none() && pc == er.min {
            entry = Some(step);
        } else if entry.is_some() && !er.region.contains(pc) {
            exit = Some(step);
            break;
        }
        device.step();
    }
    let entry = entry.unwrap_or(0);
    [entry, exit.unwrap_or(entry)]
}

/// The literate corpus, loaded once.
fn corpus() -> &'static [CorpusProgram] {
    static CORPUS: OnceLock<Vec<CorpusProgram>> = OnceLock::new();
    CORPUS.get_or_init(|| discover(&default_programs_dir()).expect("corpus discovers"))
}

/// Everything the two devices must agree on after a burst.
fn state(d: &Device) -> impl PartialEq + std::fmt::Debug {
    (
        (d.mcu.cpu.regs.clone(), d.mcu.cycles(), d.mcu.steps()),
        (d.exec(), d.violations().to_vec(), d.resets()),
        (d.or_bytes(), d.er_bytes(), d.ivt_bytes()),
    )
}

proptest! {
    #[test]
    fn superblocks_match_per_step_at_every_burst(
        from_corpus in any::<bool>(),
        pick in any::<u64>(),
        timing in proptest::collection::vec((0usize..3, -3i64..=3), 1..8),
        bursts in proptest::collection::vec(1u64..=300, 1..12),
    ) {
        let generated;
        let program = if from_corpus {
            &corpus()[(pick % corpus().len() as u64) as usize]
        } else {
            let g = generate(GENERATOR_SEED, pick % GENERATED);
            generated = load_str(&g.name, &g.text).expect("generated program loads");
            &generated
        };
        let m = &program.manifest;
        let name = &m.name;
        let [er_entry, er_exit] = er_window(program);
        let mut floor = 0;
        let schedule: Vec<u64> = m
            .stimuli
            .iter()
            .zip(timing.iter().cycle())
            .map(|(s, &(anchor, shift))| {
                let base = [s.at_step, er_entry, er_exit][anchor];
                floor = base.saturating_add_signed(shift).max(floor);
                floor
            })
            .collect();
        let mut devices = [build(program, true), build(program, false)];
        let mut lengths = bursts.iter().copied().cycle();

        let mut now = 0u64;
        for (stimulus, &at) in m.stimuli.iter().zip(&schedule) {
            while now < at {
                let n = lengths.next().expect("cycled").min(at - now);
                for d in &mut devices {
                    d.run_steps(n);
                }
                now += n;
                prop_assert_eq!(state(&devices[0]), state(&devices[1]), "{} at step {}", name, now);
            }
            for d in &mut devices {
                apply(d, stimulus);
            }
        }

        let stop = program
            .image
            .symbol(&m.run_until)
            .unwrap_or_else(|| panic!("{name}: no `{}` symbol", m.run_until));
        let mut spent = 0u64;
        while spent < m.step_budget {
            let n = lengths.next().expect("cycled").min(m.step_budget - spent);
            let reached = devices.each_mut().map(|d| d.run_until_pc(stop, n));
            spent += n;
            prop_assert_eq!(reached[0], reached[1], "{}: run_until_pc verdict", name);
            prop_assert_eq!(state(&devices[0]), state(&devices[1]), "{} after {} steps", name, spent);
            if reached[0] {
                break;
            }
        }
    }
}
