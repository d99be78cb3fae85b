//! # vrased — the verified hybrid remote-attestation substrate
//!
//! A Rust reproduction of the VRASED architecture (De Oliveira Nunes et
//! al., USENIX Security 2019) that APEX and ASAP build upon:
//!
//! * [`hw`] — the hardware monitors (key access control, SW-Att
//!   atomicity, DMA guard), each implemented once as a pure kernel: the
//!   device clocks it through `step_wires`, and the same value is a
//!   model-checkable [`ltl_mc::MonitorFsm`], with its LTL property set
//!   (P01–P08 of the 21-property suite);
//! * [`swatt`] — the ROM-resident attestation routine
//!   (HMAC-SHA256 over challenge ‖ measured regions) and its cycle-cost
//!   model;
//! * [`protocol`] — the Vrf ↔ Prv challenge/response protocol of the
//!   paper's Fig. 1;
//! * [`props`] — the canonical wire-proposition vocabulary shared by all
//!   monitors.
//!
//! # Examples
//!
//! ```
//! use vrased::protocol::Verifier;
//! use vrased::swatt::{attest, MeasuredItem};
//!
//! let key = b"device-key";
//! let mut vrf = Verifier::new(key);
//! let req = vrf.request();
//! // The prover measures its program memory…
//! let measured = vec![MeasuredItem::value("pmem", vec![0x55; 64])];
//! let mac = attest(key, &req.chal.0, &measured);
//! // …and the verifier accepts the honest response.
//! assert!(vrf.verify(&req, &measured, &vrased::protocol::AttResponse { mac }).is_ok());
//! ```

pub mod hw;
pub mod props;
pub mod protocol;
pub mod swatt;

pub use hw::{KeyGuard, SwAttAtomicity};
pub use props::{ErInfo, PropCtx};
pub use protocol::{AttRequest, AttResponse, Challenge, Verifier, VerifyError};
pub use swatt::{attest, swatt_cycle_cost, MeasuredItem, CHAL_LEN, MAC_LEN};
