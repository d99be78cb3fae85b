//! The unified error type of the ASAP stack.
//!
//! Every fallible step of the public API — linking, device construction,
//! wire decoding, and PoX verification — reports an [`AsapError`], so
//! callers match one enum instead of juggling per-layer error types and
//! `Box<dyn Error>`. Lower-layer errors ([`apex_pox::wire::WireError`],
//! [`apex_pox::protocol::PoxError`], [`msp430_tools::link::LinkError`],
//! [`openmsp430::layout::LayoutError`]) convert in via `From`.

use apex_pox::protocol::PoxError;
use apex_pox::wire::WireError;
use msp430_tools::link::LinkError;
use openmsp430::layout::LayoutError;
use std::error::Error;
use std::fmt;

/// Anything that can go wrong between linking an image and accepting a
/// proof of execution.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum AsapError {
    // --- construction ---------------------------------------------------
    /// The image was linked without `exec.*` sections: there is no `ER`
    /// to prove.
    NoEr,
    /// The memory layout is internally inconsistent.
    BadLayout(String),
    /// The linked `ER` does not fit the layout's program region.
    ErOutsideProgram,
    /// [`DeviceBuilder`](crate::device::DeviceBuilder) was finished
    /// without a device key.
    MissingKey,
    /// The device key is longer than the layout's key region, which
    /// would truncate it.
    KeyTooLong {
        /// The key's length in bytes.
        len: usize,
        /// The key region's size in bytes.
        max: usize,
    },
    /// Assembling/linking the program failed.
    Link(String),

    // --- transport ------------------------------------------------------
    /// A protocol message failed to decode from wire bytes.
    Wire(WireError),

    // --- verification ---------------------------------------------------
    /// The prover reported `EXEC = 0`: execution did not happen or was
    /// tampered with.
    NotExecuted,
    /// The MAC does not bind the expected `ER`/outputs/IVT under the
    /// session's challenge.
    BadMac,
    /// An ASAP response arrived without the attested IVT.
    MissingIvt,
    /// An APEX response carried an IVT report it should not have.
    UnexpectedIvt,
    /// The reported IVT routes an in-`ER` vector to an address that is
    /// not a trusted ISR entry point (the §4.2 check).
    UnexpectedIsrEntry {
        /// The offending vector number.
        vector: u8,
        /// Where it pointed.
        target: u16,
    },
}

impl fmt::Display for AsapError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            AsapError::NoEr => write!(f, "image has no exec.* sections (no ER)"),
            AsapError::BadLayout(m) => write!(f, "bad layout: {m}"),
            AsapError::ErOutsideProgram => {
                write!(f, "linked ER lies outside program memory")
            }
            AsapError::MissingKey => write!(f, "device builder needs a key"),
            AsapError::KeyTooLong { len, max } => {
                write!(f, "device key is {len} bytes; the key region holds {max}")
            }
            AsapError::Link(m) => write!(f, "{m}"),
            AsapError::Wire(e) => write!(f, "wire decode failed: {e}"),
            AsapError::NotExecuted => write!(f, "EXEC = 0: execution proof invalid"),
            AsapError::BadMac => write!(f, "PoX MAC mismatch"),
            AsapError::MissingIvt => write!(f, "response lacks the attested IVT"),
            AsapError::UnexpectedIvt => {
                write!(f, "APEX response unexpectedly carries an IVT report")
            }
            AsapError::UnexpectedIsrEntry { vector, target } => write!(
                f,
                "IVT vector {vector} points into ER at {target:#06x}, \
                 which is not a trusted ISR entry"
            ),
        }
    }
}

impl Error for AsapError {}

impl From<WireError> for AsapError {
    fn from(e: WireError) -> AsapError {
        AsapError::Wire(e)
    }
}

impl From<LinkError> for AsapError {
    fn from(e: LinkError) -> AsapError {
        AsapError::Link(e.to_string())
    }
}

impl From<LayoutError> for AsapError {
    fn from(e: LayoutError) -> AsapError {
        AsapError::BadLayout(e.to_string())
    }
}

impl From<PoxError> for AsapError {
    fn from(e: PoxError) -> AsapError {
        match e {
            PoxError::NotExecuted => AsapError::NotExecuted,
            PoxError::BadMac => AsapError::BadMac,
            PoxError::MissingIvt => AsapError::MissingIvt,
            PoxError::UnexpectedIsrEntry { vector, target } => {
                AsapError::UnexpectedIsrEntry { vector, target }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn pox_errors_convert_losslessly() {
        assert_eq!(
            AsapError::from(PoxError::NotExecuted),
            AsapError::NotExecuted
        );
        assert_eq!(AsapError::from(PoxError::BadMac), AsapError::BadMac);
        assert_eq!(AsapError::from(PoxError::MissingIvt), AsapError::MissingIvt);
        assert_eq!(
            AsapError::from(PoxError::UnexpectedIsrEntry {
                vector: 9,
                target: 0xE004
            }),
            AsapError::UnexpectedIsrEntry {
                vector: 9,
                target: 0xE004
            }
        );
    }

    #[test]
    fn displays_are_informative() {
        let e = AsapError::UnexpectedIsrEntry {
            vector: 2,
            target: 0xE050,
        };
        assert!(e.to_string().contains("0xe050"));
        assert!(AsapError::Wire(WireError::BadMagic)
            .to_string()
            .contains("magic"));
    }
}
