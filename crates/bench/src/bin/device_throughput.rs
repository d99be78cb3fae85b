//! Device step-pipeline throughput: legacy vs predecoded, plus
//! attestation round rate, recorded into `BENCH_device.json`.
//!
//! The workload is the honestly-executed Fig. 4 ASAP device parked in
//! its `done` spin loop — the steady state a deployed prover sits in
//! between PoX rounds. Two arms step the *same* machine state through
//! the *same* monitor semantics:
//!
//! * **legacy** — the live-fetch reference: predecode cache off (every
//!   step decodes through bus reads) and the allocating `Device::step()`,
//!   which hands back a fresh `Signals` and step report per call. Every
//!   faster arm is checked against this path by the differential tests.
//! * **predecoded** — the per-step pipeline: `Device::step_into` into
//!   one reused `Signals` buffer, generation-checked predecoded
//!   instructions, sorted MMIO lookup and the statically composed
//!   monitor stack.
//! * **superblock** — the burst pipeline: `Device::run_steps` over the
//!   superblock trace cache; interior steps build no `Signals`, only a
//!   `WireSummary` of the wires folded from their bus accesses, and the
//!   monitor stack is clock-gated.
//!
//! All arms step identically prepared machines through the same monitor
//! stack, so the ablation compares pipeline cost, not behaviour.
//!
//! Environment knobs:
//!
//! * `DEVICE_SMOKE=1` — small step/round counts for CI bit-rot checks;
//! * `DEVICE_STEPS=n` / `DEVICE_ROUNDS=n` — explicit workload sizes;
//! * `DEVICE_TRIALS=n` — trials per arm (best-of wins; default 3, 1 in
//!   smoke mode), stripping scheduler noise from the recorded numbers.

use asap::device::{Device, PoxMode};
use asap::{programs, AsapVerifier, VerifierSpec};
use openmsp430::signals::Signals;
use std::hint::black_box;
use std::time::Instant;

const KEY: &[u8] = b"bench-key";

/// Builds the Fig. 4 ASAP device and runs it honestly to its done loop.
fn steady_device() -> Device {
    let image = programs::fig4_authorized().expect("image links");
    let mut device = Device::builder(&image)
        .mode(PoxMode::Asap)
        .key(KEY)
        .build()
        .expect("device builds");
    device.run_steps(6);
    device.set_button(0, true);
    assert!(device.run_until_pc(programs::done_pc(), 10_000));
    assert!(device.exec(), "the workload is an honestly-executed device");
    device
}

/// Steps the live-fetch reference: predecode off, and a fresh
/// `Signals` and report per `Device::step()`. Returns steps/sec.
fn measure_legacy(steps: u64) -> f64 {
    let mut device = steady_device();
    device.mcu.set_predecode(false);
    let t0 = Instant::now();
    let mut exec = false;
    for _ in 0..steps {
        exec = black_box(device.step()).exec;
    }
    let secs = t0.elapsed().as_secs_f64();
    assert!(exec, "honest stepping preserves EXEC");
    steps as f64 / secs.max(f64::EPSILON)
}

/// Steps the predecoded pipeline (`Device::step_into`, reused buffer,
/// static monitor stack). Returns steps/sec.
fn measure_predecoded(steps: u64) -> f64 {
    let mut device = steady_device();
    let mut signals = Signals::default();
    let t0 = Instant::now();
    let mut verdict = device.step_into(&mut signals);
    for _ in 1..steps {
        verdict = device.step_into(&mut signals);
    }
    let secs = t0.elapsed().as_secs_f64();
    assert!(verdict.exec, "honest stepping preserves EXEC");
    black_box(&signals);
    steps as f64 / secs.max(f64::EPSILON)
}

/// Bursts the superblock pipeline (`Device::run_steps`: cached
/// straight-line traces, folded interior wires). Returns steps/sec.
fn measure_superblock(steps: u64) -> f64 {
    let mut device = steady_device();
    let t0 = Instant::now();
    device.run_steps(steps);
    let secs = t0.elapsed().as_secs_f64();
    assert!(device.exec(), "honest bursting preserves EXEC");
    black_box(device.mcu.cache_stats());
    steps as f64 / secs.max(f64::EPSILON)
}

/// Full PoX rounds (challenge → SW-Att → verify) per second over the
/// wire-encoded path, the same shape fleet rounds drive per device.
fn measure_attestations(rounds: u64) -> f64 {
    let image = programs::fig4_authorized().expect("image links");
    let mut device = steady_device();
    let mut verifier = AsapVerifier::new(
        KEY,
        VerifierSpec::from_image(&image)
            .expect("spec derives")
            .mode(PoxMode::Asap),
    );
    let t0 = Instant::now();
    for _ in 0..rounds {
        let session = verifier.begin();
        let response = device
            .attest_bytes(&session.request_bytes())
            .expect("attestation runs");
        let outcome = session
            .evidence_bytes(&response)
            .expect("well-formed evidence")
            .conclude(&verifier);
        assert!(outcome.is_verified());
    }
    let secs = t0.elapsed().as_secs_f64();
    rounds as f64 / secs.max(f64::EPSILON)
}

fn env_u64(name: &str, default: u64) -> u64 {
    std::env::var(name)
        .ok()
        .map(|v| v.parse().unwrap_or_else(|_| panic!("{name}: u64")))
        .unwrap_or(default)
}

/// One arm's measurements: every trial, the best (which wins — the
/// standard way to strip scheduler noise on a shared host), and the
/// relative spread `(best - worst) / best` as a noise indicator.
struct Arm {
    best: f64,
    trials: Vec<f64>,
    spread: f64,
}

fn run_trials(trials: u64, measure: impl Fn() -> f64) -> Arm {
    let trials: Vec<f64> = (0..trials).map(|_| measure()).collect();
    let best = trials.iter().fold(f64::MIN, |a, &b| a.max(b));
    let worst = trials.iter().fold(f64::MAX, |a, &b| a.min(b));
    Arm {
        best,
        spread: if best > 0.0 {
            (best - worst) / best
        } else {
            0.0
        },
        trials,
    }
}

fn json_list(values: &[f64]) -> String {
    let items: Vec<String> = values.iter().map(|v| format!("{v:.1}")).collect();
    format!("[{}]", items.join(", "))
}

fn main() {
    let smoke = std::env::var("DEVICE_SMOKE").is_ok();
    let steps = env_u64("DEVICE_STEPS", if smoke { 50_000 } else { 2_000_000 });
    let rounds = env_u64("DEVICE_ROUNDS", if smoke { 200 } else { 2_000 });
    let trials = env_u64("DEVICE_TRIALS", if smoke { 1 } else { 3 });

    let legacy = run_trials(trials, || measure_legacy(steps));
    let predecoded = run_trials(trials, || measure_predecoded(steps));
    let superblock = run_trials(trials, || measure_superblock(steps));
    let attestations = run_trials(trials, || measure_attestations(rounds));
    let speedup = predecoded.best / legacy.best.max(f64::EPSILON);
    let superblock_speedup = superblock.best / predecoded.best.max(f64::EPSILON);

    println!("{:<12} {:>16} {:>8}", "pipeline", "steps/sec", "spread");
    println!(
        "{:<12} {:>16.0} {:>7.1}%",
        "legacy",
        legacy.best,
        legacy.spread * 100.0
    );
    println!(
        "{:<12} {:>16.0} {:>7.1}%",
        "predecoded",
        predecoded.best,
        predecoded.spread * 100.0
    );
    println!(
        "{:<12} {:>16.0} {:>7.1}%",
        "superblock",
        superblock.best,
        superblock.spread * 100.0
    );
    println!("speedup: {speedup:.2}x predecoded/legacy over {steps} steps");
    println!("superblock_speedup: {superblock_speedup:.2}x superblock/predecoded");
    println!(
        "attestations/sec: {:.0} over {rounds} rounds",
        attestations.best
    );

    let json = format!(
        "{{\n  \"bench\": \"device_throughput\",\n  \"workload\": {{\"image\": \
         \"fig4_authorized\", \"mode\": \"asap\", \"steps\": {steps}, \"rounds\": {rounds}, \
         \"trials\": {trials}}},\n  \
         \"steps_per_sec\": {{\"legacy\": {legacy_best:.0}, \"predecoded\": {predecoded_best:.0}, \
         \"superblock\": {superblock_best:.0}, \"speedup\": {speedup:.3}, \
         \"superblock_speedup\": {superblock_speedup:.3}}},\n  \
         \"trial_steps_per_sec\": {{\"legacy\": {legacy_trials}, \"predecoded\": \
         {predecoded_trials}, \"superblock\": {superblock_trials}}},\n  \
         \"spread\": {{\"legacy\": {legacy_spread:.4}, \"predecoded\": {predecoded_spread:.4}, \
         \"superblock\": {superblock_spread:.4}}},\n  \
         \"attestations_per_sec\": {attestations_best:.1},\n  \
         \"trial_attestations_per_sec\": {attestations_trials},\n  \
         \"attestations_spread\": {attestations_spread:.4}\n}}\n",
        legacy_best = legacy.best,
        predecoded_best = predecoded.best,
        superblock_best = superblock.best,
        legacy_trials = json_list(&legacy.trials),
        predecoded_trials = json_list(&predecoded.trials),
        superblock_trials = json_list(&superblock.trials),
        legacy_spread = legacy.spread,
        predecoded_spread = predecoded.spread,
        superblock_spread = superblock.spread,
        attestations_best = attestations.best,
        attestations_trials = json_list(&attestations.trials),
        attestations_spread = attestations.spread,
    );
    std::fs::write("BENCH_device.json", &json).expect("write BENCH_device.json");
    println!("\nwrote BENCH_device.json");
}
