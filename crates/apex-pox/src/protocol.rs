//! The PoX protocol: APEX's extension of remote attestation with
//! execution evidence.
//!
//! The verifier sends a challenge; the prover executes `ER`, then runs
//! SW-Att, whose measurement covers the `EXEC` flag, the executable
//! region `ER` and the output region `OR` (§2.3). The response proves —
//! under the monitor's guarantees — that the *expected* code executed
//! and produced the *claimed* outputs.

use openmsp430::mem::MemRegion;
use pox_crypto::hmac::{ct_eq, HmacKey};
use std::error::Error;
use std::fmt;
use vrased::protocol::Challenge;
use vrased::swatt::{attest, MeasuredItem, MAC_LEN};

/// Measurement labels (domain separation within the SW-Att transcript).
pub mod labels {
    /// The `EXEC` flag.
    pub const EXEC: &str = "exec";
    /// The executable region.
    pub const ER: &str = "er";
    /// The output region.
    pub const OR: &str = "or";
    /// The interrupt vector table (ASAP extension).
    pub const IVT: &str = "ivt";
}

/// A PoX request: challenge plus the `ER`/`OR` geometry to prove.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct PoxRequest {
    /// The verifier challenge.
    pub chal: Challenge,
    /// Requested executable region.
    pub er: MemRegion,
    /// Requested output region.
    pub or: MemRegion,
}

/// A PoX response.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct PoxResponse {
    /// The reported `EXEC` flag.
    pub exec: bool,
    /// The claimed output bytes (contents of `OR`).
    pub output: Vec<u8>,
    /// The reported IVT bytes (present under ASAP, absent under APEX).
    pub ivt: Option<Vec<u8>>,
    /// The attestation MAC over `EXEC ‖ ER ‖ OR (‖ IVT)`.
    pub mac: [u8; MAC_LEN],
}

/// Builds the measured-item list for a PoX measurement. Both the prover
/// (over device memory) and the verifier (over expected contents) use
/// this to guarantee transcript agreement. The items borrow the region
/// bytes; nothing is copied.
pub fn pox_items<'a>(
    exec: bool,
    er: MemRegion,
    er_bytes: &'a [u8],
    or: MemRegion,
    or_bytes: &'a [u8],
    ivt: Option<(MemRegion, &'a [u8])>,
) -> Vec<MeasuredItem<'a>> {
    let mut items = Vec::with_capacity(4);
    items.push(MeasuredItem::value(
        labels::EXEC,
        if exec { &[1] } else { &[0] },
    ));
    items.push(MeasuredItem {
        label: labels::ER,
        start: er.start(),
        bytes: er_bytes,
    });
    items.push(MeasuredItem {
        label: labels::OR,
        start: or.start(),
        bytes: or_bytes,
    });
    if let Some((region, bytes)) = ivt {
        items.push(MeasuredItem {
            label: labels::IVT,
            start: region.start(),
            bytes,
        });
    }
    items
}

/// Why PoX verification failed.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum PoxError {
    /// The prover reported `EXEC = 0`: execution did not happen or was
    /// tampered with.
    NotExecuted,
    /// The MAC does not bind the expected `ER`/outputs/IVT.
    BadMac,
    /// The reported IVT routes an in-`ER` vector to an address that is
    /// not an expected ISR entry point (ASAP verifier check, §4.2).
    UnexpectedIsrEntry {
        /// The offending vector number.
        vector: u8,
        /// Where it pointed.
        target: u16,
    },
    /// ASAP response expected an IVT report, or vice versa.
    MissingIvt,
}

impl fmt::Display for PoxError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            PoxError::NotExecuted => write!(f, "EXEC = 0: execution proof invalid"),
            PoxError::BadMac => write!(f, "PoX MAC mismatch"),
            PoxError::UnexpectedIsrEntry { vector, target } => {
                write!(f, "IVT vector {vector} points into ER at {target:#06x}, which is not an expected ISR entry")
            }
            PoxError::MissingIvt => write!(f, "response lacks the attested IVT"),
        }
    }
}

impl Error for PoxError {}

/// The PoX verifier: shares the device key, knows the expected `ER`
/// binary, and (under ASAP) the expected trusted-ISR entry points.
#[derive(Debug, Clone)]
pub struct PoxVerifier {
    key: HmacKey,
    counter: u64,
    /// Expected bytes of `ER` (the shipped binary).
    pub expected_er: Vec<u8>,
}

impl PoxVerifier {
    /// Creates a verifier expecting the given `ER` binary.
    pub fn new(key: &[u8], expected_er: Vec<u8>) -> PoxVerifier {
        PoxVerifier {
            key: HmacKey::new(key),
            counter: 0,
            expected_er,
        }
    }

    /// Issues a fresh PoX request.
    pub fn request(&mut self, er: MemRegion, or: MemRegion) -> PoxRequest {
        self.counter += 1;
        PoxRequest {
            chal: Challenge::from_counter(self.counter),
            er,
            or,
        }
    }

    /// Verifies an APEX-style response (no IVT attestation; the
    /// execution must have been interrupt-free by construction).
    ///
    /// # Errors
    ///
    /// [`PoxError::NotExecuted`] when `EXEC = 0`, [`PoxError::BadMac`] on
    /// transcript mismatch.
    pub fn verify_apex(&self, req: &PoxRequest, resp: &PoxResponse) -> Result<(), PoxError> {
        if !resp.exec {
            return Err(PoxError::NotExecuted);
        }
        let items = pox_items(true, req.er, &self.expected_er, req.or, &resp.output, None);
        let want = attest(&self.key, &req.chal.0, &items);
        if !ct_eq(&want, &resp.mac) {
            return Err(PoxError::BadMac);
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn region_er() -> MemRegion {
        MemRegion::new(0xE000, 0xE1FF)
    }

    fn region_or() -> MemRegion {
        MemRegion::new(0x0300, 0x033F)
    }

    fn honest_response(key: &[u8], req: &PoxRequest, er_bytes: &[u8], out: &[u8]) -> PoxResponse {
        let items = pox_items(true, req.er, er_bytes, req.or, out, None);
        PoxResponse {
            exec: true,
            output: out.to_vec(),
            ivt: None,
            mac: attest(&HmacKey::new(key), &req.chal.0, &items),
        }
    }

    #[test]
    fn honest_pox_verifies() {
        let key = b"k";
        let er_bytes = vec![0x4A; 512];
        let mut vrf = PoxVerifier::new(key, er_bytes.clone());
        let req = vrf.request(region_er(), region_or());
        let resp = honest_response(key, &req, &er_bytes, b"sensor=42");
        assert!(vrf.verify_apex(&req, &resp).is_ok());
    }

    #[test]
    fn exec_zero_rejected() {
        let key = b"k";
        let er_bytes = vec![0x4A; 512];
        let mut vrf = PoxVerifier::new(key, er_bytes.clone());
        let req = vrf.request(region_er(), region_or());
        let mut resp = honest_response(key, &req, &er_bytes, b"out");
        resp.exec = false;
        assert_eq!(vrf.verify_apex(&req, &resp), Err(PoxError::NotExecuted));
    }

    #[test]
    fn forged_exec_flag_fails_mac() {
        // Prover measured EXEC=0 but claims EXEC=1 in the clear: the MAC
        // was computed over 0, so verification fails.
        let key = b"k";
        let er_bytes = vec![0x4A; 512];
        let mut vrf = PoxVerifier::new(key, er_bytes.clone());
        let req = vrf.request(region_er(), region_or());
        let items = pox_items(false, req.er, &er_bytes, req.or, b"out", None);
        let resp = PoxResponse {
            exec: true, // lie
            output: b"out".to_vec(),
            ivt: None,
            mac: attest(&HmacKey::new(key), &req.chal.0, &items),
        };
        assert_eq!(vrf.verify_apex(&req, &resp), Err(PoxError::BadMac));
    }

    #[test]
    fn modified_er_fails() {
        let key = b"k";
        let shipped = vec![0x4A; 512];
        let mut infected = shipped.clone();
        infected[100] ^= 0xFF;
        let mut vrf = PoxVerifier::new(key, shipped);
        let req = vrf.request(region_er(), region_or());
        let resp = honest_response(key, &req, &infected, b"out");
        assert_eq!(vrf.verify_apex(&req, &resp), Err(PoxError::BadMac));
    }

    #[test]
    fn tampered_output_fails() {
        let key = b"k";
        let er_bytes = vec![0x4A; 512];
        let mut vrf = PoxVerifier::new(key, er_bytes.clone());
        let req = vrf.request(region_er(), region_or());
        let mut resp = honest_response(key, &req, &er_bytes, b"dose=10");
        resp.output = b"dose=99".to_vec();
        assert_eq!(vrf.verify_apex(&req, &resp), Err(PoxError::BadMac));
    }

    #[test]
    fn items_include_ivt_when_present() {
        let ivt_region = MemRegion::new(0xFFE0, 0xFFFF);
        let ivt = vec![0u8; 32];
        let items = pox_items(
            true,
            region_er(),
            &[1],
            region_or(),
            &[2],
            Some((ivt_region, &ivt)),
        );
        assert_eq!(items.len(), 4);
        assert_eq!(items[3].label, labels::IVT);
        assert_eq!(items[3].start, 0xFFE0);
    }
}
