//! # apex-pox — proofs of execution for low-end MCUs
//!
//! A Rust reproduction of APEX (De Oliveira Nunes et al., USENIX
//! Security 2020), the PoX architecture ASAP extends:
//!
//! * [`monitor`] — the hardware `EXEC`-flag monitor enforcing the
//!   atomic-execution LTLs (1–3) plus `ER`/`OR` immutability, written as
//!   a pure kernel shared between the runtime and the model checker.
//!   The kernel takes a `check_irq` flag: `true` is APEX (any interrupt
//!   invalidates the proof), `false` is the ASAP relaxation;
//! * [`protocol`] — the PoX request/response protocol whose measurement
//!   covers `EXEC ‖ ER ‖ OR` (and `‖ IVT` under ASAP);
//! * [`wire`] — the canonical byte encoding of [`PoxRequest`] and
//!   [`PoxResponse`], so a verifier session and a prover can talk across
//!   any byte transport.
//!
//! The ergonomic entry points live one layer up, in the `asap` crate:
//! `Device::builder` constructs provers, `VerifierSpec::from_image`
//! derives the verifier's expectations from the linked image, and
//! `PoxSession` walks the `Issued → Evidence → Verified/Rejected`
//! state machine over these message types.
//!
//! # Examples
//!
//! ```
//! use apex_pox::monitor::{exec_kernel, ExecState};
//! use openmsp430::Wires;
//!
//! // Honest atomic execution: enter at ERmin, run, exit at ERmax.
//! let s = ExecState::default();
//! let s = exec_kernel(s, Wires::PC_IN_ER | Wires::PC_AT_ERMIN, true);
//! let s = exec_kernel(s, Wires::PC_IN_ER | Wires::PC_AT_EREXIT, true);
//! let s = exec_kernel(s, Wires::default(), true);
//! assert!(s.exec);
//! ```

pub mod monitor;
pub mod protocol;
pub mod wire;

pub use monitor::{exec_kernel, ApexMonitor, ExecState};
pub use protocol::{labels, pox_items, PoxError, PoxItems, PoxRequest, PoxResponse, PoxVerifier};
pub use wire::WireError;
