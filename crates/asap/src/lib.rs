//! # asap — Architecture for Secure Asynchronous Processing in PoX
//!
//! A full-system Rust reproduction of **ASAP** (Caulfield,
//! Rattanavipanon, De Oliveira Nunes — DAC 2022): proofs of execution
//! that remain sound while the proved code services interrupts.
//!
//! ASAP extends APEX with two properties (§4.2):
//!
//! * **\[AP1\] IVT Immutability & Integrity** — a verified two-state FSM
//!   (Fig. 3) clears the `EXEC` flag on any CPU/DMA write to the
//!   interrupt vector table between execution start and attestation
//!   (LTL 4), and the IVT is covered by the attestation measurement;
//! * **\[AP2\] ISR Immutability** — trusted ISRs are *linked inside* `ER`
//!   (Fig. 4), inheriting APEX's `ER` immutability; APEX's LTL 3 (any
//!   interrupt clears `EXEC`) is removed, because an unauthorized ISR
//!   necessarily drags the PC outside `ER`, which LTL 1 already punishes.
//!
//! Crate layout:
//!
//! * [`monitor`] — the ASAP hardware monitor (relaxed APEX kernel +
//!   Fig. 3 IVT guard), model-checked against its LTL specs;
//! * [`device`] — the prover: MCU, peripherals, monitors and the SW-Att
//!   ROM trap, built through [`Device::builder`]. Monitors run as one
//!   statically composed stack over a single-pass wire extraction, and
//!   [`Device::step_into`] steps the whole pipeline without heap
//!   allocation (see the README's "Execution pipeline" section);
//! * [`verifier`] — [`VerifierSpec`] derivation from the linked image
//!   plus mode-aware verification (APEX and the IVT/ISR checks);
//! * [`session`] — the [`PoxSession`] state machine
//!   (`Issued → Evidence → Verified/Rejected`) with wire-encodable
//!   messages;
//! * [`error`] — the unified [`AsapError`];
//! * [`properties`] — the complete 21-LTL-property suite of §5;
//! * [`programs`] — the paper's demo programs (Fig. 4, the §3 syringe
//!   pump, a sensing task).
//!
//! # Quick start
//!
//! One linked image drives both sides: the device boots it, and the
//! verifier derives its expectations ([`VerifierSpec::from_image`])
//! from it — there is nothing to hand-wire and nothing to mis-bind.
//!
//! ```
//! use asap::{Device, PoxMode, VerifierSpec, AsapVerifier};
//! use asap::programs;
//!
//! // Build and run the Fig. 4 program on an ASAP device.
//! let image = programs::fig4_authorized()?;
//! let mut device = Device::builder(&image)
//!     .mode(PoxMode::Asap)
//!     .key(b"device-key")
//!     .build()?;
//! device.run_until_pc(programs::done_pc(), 2_000);
//!
//! // The verifier's expectations come from the same linked image.
//! let spec = VerifierSpec::from_image(&image)?.mode(PoxMode::Asap);
//! let mut verifier = AsapVerifier::new(b"device-key", spec);
//!
//! // Issued → Evidence → Verified, one consuming step at a time.
//! let session = verifier.begin();
//! let response = device.attest(session.request());
//! let attested = session.evidence(response).conclude(&verifier).into_result()?;
//! assert!(attested.ivt.is_some(), "ASAP proofs cover the IVT");
//! # Ok::<(), asap::AsapError>(())
//! ```
//!
//! # APEX vs ASAP
//!
//! The same program, the same button press mid-`ER` — APEX rejects the
//! interrupted execution (its LTL 3 clears `EXEC` on any interrupt),
//! ASAP accepts it because the handler is linked inside `ER`:
//!
//! ```
//! use asap::{AsapVerifier, Device, PoxMode, VerifierSpec};
//! use asap::programs;
//!
//! let image = programs::fig4_authorized()?;
//! for mode in [PoxMode::Apex, PoxMode::Asap] {
//!     let mut device = Device::builder(&image).mode(mode).key(b"k").build()?;
//!     device.run_steps(10);
//!     device.set_button(0, true); // interrupt during ER
//!     device.run_until_pc(programs::done_pc(), 5_000);
//!
//!     let mut vrf =
//!         AsapVerifier::new(b"k", VerifierSpec::from_image(&image)?.mode(mode));
//!     let session = vrf.begin();
//!     let response = device.attest(session.request());
//!     let verdict = session.evidence(response).conclude(&vrf);
//!     match mode {
//!         PoxMode::Apex => assert!(!verdict.is_verified()), // LTL 3: irq kills EXEC
//!         PoxMode::Asap => assert!(verdict.is_verified()),  // trusted in-ER ISR ok
//!     }
//! }
//! # Ok::<(), asap::AsapError>(())
//! ```

pub mod device;
pub mod error;
pub mod monitor;
pub mod programs;
pub mod properties;
pub mod session;
pub mod verifier;

pub use device::{Device, DeviceBuilder, PoxMode, StepReport, StepVerdict, WaveSample, WaveSink};
pub use error::AsapError;
pub use monitor::{ivt_kernel, AsapMonitor, AsapState, IvtGuard};
pub use properties::{verify_all, PropertyRow, SuiteReport};
pub use session::{Attested, Evidence, Issued, PoxSession, SessionOutcome};
pub use verifier::{AsapVerifier, VerifierSpec};
