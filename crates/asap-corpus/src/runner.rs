//! The data-driven scenario runner: every corpus program through three
//! backends — a single in-process device, a loopback fleet round, and
//! a socket-backed runtime round — judged against its manifest.
//!
//! Failures are isolated per program (the [`RoundReport`] idiom): one
//! broken program produces one failing [`ProgramResult`], never a
//! panic that hides the rest of the corpus.

use crate::corpus::CorpusProgram;
use crate::manifest::{StimulusKind, Verdict};
use apex_pox::wire::Envelope;
use asap::{AsapVerifier, Device, VerifierSpec};
use asap_fleet::{
    announce_devices, serve_frames, DeviceId, FleetError, FleetRuntime, FleetVerifier, Loopback,
    NoListener,
};
use std::fmt;
use std::os::unix::net::UnixStream;
use std::sync::Arc;
use std::time::Duration;

/// Which attestation path exercised the program.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Backend {
    /// `Device::attest` + a single `PoxSession`.
    Device,
    /// One `FleetVerifier` round over an in-process [`Loopback`].
    Loopback,
    /// One round through a one-reactor [`FleetRuntime`] over Unix
    /// socketpairs, one prover thread per program.
    Gateway,
}

impl fmt::Display for Backend {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(match self {
            Backend::Device => "device",
            Backend::Loopback => "loopback",
            Backend::Gateway => "gateway",
        })
    }
}

/// One program's outcome under one backend.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ProgramResult {
    /// Program name (from the manifest).
    pub name: String,
    /// File path or generated origin.
    pub origin: String,
    /// The verdict the manifest pins down.
    pub expected: Verdict,
    /// What actually happened: a verdict, or an infrastructure error.
    pub outcome: Result<Verdict, String>,
}

impl ProgramResult {
    /// True when the actual verdict matches the annotation.
    pub fn passed(&self) -> bool {
        self.outcome.as_ref() == Ok(&self.expected)
    }
}

impl fmt::Display for ProgramResult {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match &self.outcome {
            Ok(v) if self.passed() => write!(f, "{}: {v} (as annotated)", self.name),
            Ok(v) => write!(f, "{}: got {v}, expected {}", self.name, self.expected),
            Err(e) => write!(f, "{}: error: {e} (expected {})", self.name, self.expected),
        }
    }
}

/// All programs' outcomes under one backend.
#[derive(Debug, Clone)]
pub struct RunReport {
    /// The backend that produced it.
    pub backend: Backend,
    /// One entry per program, in corpus order.
    pub results: Vec<ProgramResult>,
}

impl RunReport {
    /// True when every program matched its annotation.
    pub fn all_passed(&self) -> bool {
        self.results.iter().all(ProgramResult::passed)
    }

    /// The failing results.
    pub fn failures(&self) -> impl Iterator<Item = &ProgramResult> {
        self.results.iter().filter(|r| !r.passed())
    }
}

impl fmt::Display for RunReport {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let passed = self.results.iter().filter(|r| r.passed()).count();
        write!(
            f,
            "backend {}: {passed}/{} programs as annotated",
            self.backend,
            self.results.len()
        )
    }
}

/// Builds the device, applies the scheduled stimuli, runs to the
/// manifest's stop symbol, and checks the expected violations.
fn exercise(program: &CorpusProgram) -> Result<Device, String> {
    let m = &program.manifest;
    let mut device = Device::builder(&program.image)
        .mode(m.mode)
        .key(m.device_key.as_bytes())
        .build()
        .map_err(|e| format!("device build: {e}"))?;

    let mut now = 0u64;
    for stimulus in &m.stimuli {
        if stimulus.at_step > now {
            device.run_steps(stimulus.at_step - now);
            now = stimulus.at_step;
        }
        match &stimulus.kind {
            StimulusKind::PressButton(pin) => device.set_button(*pin, true),
            StimulusKind::UartRx(bytes) => device.uart_rx(bytes),
        }
    }

    let stop = program
        .image
        .symbol(&m.run_until)
        .ok_or_else(|| format!("no `{}` symbol", m.run_until))?;
    if !device.run_until_pc(stop, m.step_budget) {
        return Err(format!(
            "never reached `{}` within {} steps",
            m.run_until, m.step_budget
        ));
    }
    for want in &m.expect_violations {
        if !device.violations().iter().any(|(_, v)| v.contains(want)) {
            return Err(format!(
                "expected violation containing {want:?}; got {:?}",
                device
                    .violations()
                    .iter()
                    .map(|(_, v)| v.as_str())
                    .collect::<Vec<_>>()
            ));
        }
    }
    Ok(device)
}

/// The verifier spec a program's manifest asks for.
fn spec_for(program: &CorpusProgram) -> Result<VerifierSpec, String> {
    VerifierSpec::from_image(&program.image)
        .map(|s| s.mode(program.manifest.verifier_mode))
        .map_err(|e| format!("verifier spec: {e}"))
}

fn device_verdict(program: &CorpusProgram) -> Result<Verdict, String> {
    let mut device = exercise(program)?;
    let mut verifier =
        AsapVerifier::new(program.manifest.verifier_key.as_bytes(), spec_for(program)?);
    let session = verifier.begin();
    let response = device.attest(session.request());
    match session.evidence(response).conclude(&verifier).into_result() {
        Ok(_) => Ok(Verdict::Verified),
        Err(e) => Verdict::classify(&e),
    }
}

/// Runs every program through the single-device `Device::attest` path.
pub fn run_device(programs: &[CorpusProgram]) -> RunReport {
    let results = programs
        .iter()
        .map(|p| ProgramResult {
            name: p.manifest.name.clone(),
            origin: p.origin.clone(),
            expected: p.manifest.expect,
            outcome: device_verdict(p),
        })
        .collect();
    RunReport {
        backend: Backend::Device,
        results,
    }
}

fn classify_fleet(outcome: Option<&Result<asap::Attested, FleetError>>) -> Result<Verdict, String> {
    match outcome {
        Some(Ok(_)) => Ok(Verdict::Verified),
        Some(Err(FleetError::Rejected(e))) => Verdict::classify(e),
        Some(Err(other)) => Err(format!("fleet: {other}")),
        None => Err("no outcome recorded for this device".to_string()),
    }
}

/// Runs the whole corpus as one fleet round over an in-process
/// loopback transport: every program is a device, every annotation a
/// per-device verdict.
pub fn run_loopback(programs: &[CorpusProgram]) -> RunReport {
    let fleet = FleetVerifier::new();
    let mut loopback = Loopback::new();
    let mut results: Vec<ProgramResult> = Vec::with_capacity(programs.len());
    let mut attached: Vec<(usize, DeviceId)> = Vec::new();

    for (i, program) in programs.iter().enumerate() {
        let id = DeviceId(i as u64 + 1);
        let prepared = exercise(program).and_then(|device| {
            let spec = spec_for(program)?;
            fleet
                .register(id, program.manifest.verifier_key.as_bytes(), spec)
                .map_err(|e| format!("register: {e}"))?;
            Ok(device)
        });
        let outcome = match prepared {
            Ok(device) => {
                loopback.attach(id, device);
                attached.push((i, id));
                Ok(Verdict::Verified) // placeholder until the round runs
            }
            Err(e) => Err(e),
        };
        results.push(ProgramResult {
            name: program.manifest.name.clone(),
            origin: program.origin.clone(),
            expected: program.manifest.expect,
            outcome,
        });
    }

    let ids: Vec<DeviceId> = attached.iter().map(|&(_, id)| id).collect();
    match fleet.run_round(&ids, &mut loopback) {
        Ok(report) => {
            for &(i, id) in &attached {
                results[i].outcome = classify_fleet(report.of(id));
            }
        }
        Err(e) => {
            for &(i, _) in &attached {
                results[i].outcome = Err(format!("round: {e}"));
            }
        }
    }
    RunReport {
        backend: Backend::Loopback,
        results,
    }
}

/// Runs the whole corpus as one fleet round through a detached
/// one-reactor [`FleetRuntime`]: one Unix socketpair and one prover
/// thread per program, responses routed by hello frames — real bytes
/// on real sockets, still one `RoundReport`.
pub fn run_gateway(programs: &[CorpusProgram]) -> RunReport {
    let fleet = Arc::new(FleetVerifier::new());
    let mut runtime: FleetRuntime<NoListener<UnixStream>> =
        FleetRuntime::detached(Arc::clone(&fleet), 1, 1);
    let mut results: Vec<ProgramResult> = Vec::with_capacity(programs.len());
    let mut attached: Vec<(usize, DeviceId)> = Vec::new();
    let mut provers = Vec::new();

    for (i, program) in programs.iter().enumerate() {
        let id = DeviceId(i as u64 + 1);
        let prepared = spec_for(program).and_then(|spec| {
            fleet
                .register(id, program.manifest.verifier_key.as_bytes(), spec)
                .map_err(|e| format!("register: {e}"))?;
            let (runtime_end, prover_end) =
                UnixStream::pair().map_err(|e| format!("socketpair: {e}"))?;
            runtime
                .adopt(runtime_end)
                .map_err(|e| format!("adopt: {e}"))?;
            Ok(prover_end)
        });
        let outcome = match prepared {
            Ok(prover_end) => {
                // The device is not Send: build and run it inside the
                // prover thread, like a real out-of-process host would.
                let owned = program.clone();
                provers.push((
                    i,
                    std::thread::spawn(move || -> Result<(), String> {
                        let mut device = exercise(&owned)?;
                        let mut stream = prover_end;
                        announce_devices(&mut stream, &[id])
                            .map_err(|e| format!("announce: {e}"))?;
                        serve_frames(stream, move |got, envelope| {
                            if got != id {
                                return None;
                            }
                            let response = device.attest_bytes(&envelope.payload).ok()?;
                            Some(Envelope::wrap(id.0, response).to_bytes())
                        });
                        Ok(())
                    }),
                ));
                attached.push((i, id));
                Ok(Verdict::Verified) // placeholder until the round runs
            }
            Err(e) => Err(e),
        };
        results.push(ProgramResult {
            name: program.manifest.name.clone(),
            origin: program.origin.clone(),
            expected: program.manifest.expect,
            outcome,
        });
    }

    let ids: Vec<DeviceId> = attached.iter().map(|&(_, id)| id).collect();
    match runtime.run_round(&ids, Duration::from_secs(10)) {
        Ok(report) => {
            for &(i, id) in &attached {
                results[i].outcome = classify_fleet(report.of(id));
            }
        }
        Err(e) => {
            for &(i, _) in &attached {
                results[i].outcome = Err(format!("round: {e}"));
            }
        }
    }

    drop(runtime); // hang up: every prover sees EOF and exits
    for (i, handle) in provers {
        match handle.join() {
            Ok(Ok(())) => {}
            // A prover that failed to run its program explains the
            // (otherwise opaque) NoResponse verdict.
            Ok(Err(e)) => results[i].outcome = Err(format!("prover: {e}")),
            Err(_) => results[i].outcome = Err("prover thread panicked".to_string()),
        }
    }
    RunReport {
        backend: Backend::Gateway,
        results,
    }
}

/// Runs `programs` through every backend, in order.
pub fn run_all(programs: &[CorpusProgram]) -> Vec<RunReport> {
    vec![
        run_device(programs),
        run_loopback(programs),
        run_gateway(programs),
    ]
}
