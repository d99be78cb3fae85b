//! # asap-corpus — literate program corpus + scenario runner
//!
//! The proof-of-execution stack is only as convincing as the programs
//! it is exercised with. This crate turns the demo programs into a
//! *data-driven corpus*:
//!
//! * [`corpus`] — discovery and loading of literate `.s.md` programs
//!   (markdown with fenced `asm` blocks, front matter declaring link
//!   layout *and* the expected attestation verdict);
//! * [`manifest`] — the runner-facing annotation vocabulary
//!   (`mode:`, `expect:`, stimuli, violation substrings);
//! * [`runner`] — every program through three backends: single-device
//!   [`Device::attest`](asap::Device::attest), a loopback
//!   [`FleetVerifier`](asap_fleet::FleetVerifier) round, and a
//!   socket-backed [`FleetRuntime`](asap_fleet::FleetRuntime) round —
//!   with per-program failure isolation;
//! * [`generator`] — a seeded, deterministic generator of
//!   valid-by-construction MSP430 programs whose verdicts are computed
//!   from the recipe, never observed from a run.
//!
//! The canned fixtures in [`asap::programs`] are themselves loaded
//! from this corpus (`programs/core/*.s.md`), re-exported here as
//! [`programs`].

pub mod corpus;
pub mod generator;
pub mod manifest;
pub mod runner;

pub use asap::programs;
pub use corpus::{default_programs_dir, discover, load_str, CorpusError, CorpusProgram};
pub use generator::{batch_digest, generate, generate_batch, GeneratedProgram};
pub use manifest::{Manifest, Stimulus, StimulusKind, Verdict};
pub use runner::{
    run_all, run_device, run_gateway, run_loopback, Backend, ProgramResult, RunReport,
};
