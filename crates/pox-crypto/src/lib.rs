//! # pox-crypto — attestation crypto primitives
//!
//! From-scratch implementations of SHA-256 (FIPS 180-4) and HMAC-SHA256
//! (RFC 2104), plus constant-time comparison and hex helpers. These are
//! the primitives VRASED's SW-Att uses to compute authenticated integrity
//! checks over prover memory, and that the verifier uses to validate
//! attestation/PoX responses.
//!
//! No external crypto dependencies are used, only `std`: the
//! reproduction's trust anchor is self-contained, mirroring the
//! self-contained HACL*-derived HMAC that VRASED ships in ROM.
//!
//! SHA-256 compression has two backends. The portable one is the
//! reference and the only path on CPUs without the x86-64 SHA
//! extensions; where `is_x86_feature_detected!` finds them, a SHA-NI
//! backend runs instead. The choice is made once per process from CPU
//! detection alone, and unit tests hold the two backends to each other.
//!
//! [`HmacKey`] caches the SHA-256 midstates of a key's inner and outer
//! pads, so a verifier or device that MACs many messages under one key
//! pays the two pad compressions once.
//!
//! # Examples
//!
//! ```
//! use pox_crypto::{hmac::hmac_sha256, hex};
//!
//! let tag = hmac_sha256(b"device-key", b"challenge || memory");
//! assert_eq!(tag.len(), 32);
//! assert_eq!(hex::decode(&hex::encode(&tag)).unwrap(), tag);
//! ```

pub mod hex;
pub mod hmac;
pub mod sha256;

pub use hmac::{ct_eq, hmac_sha256, HmacKey, HmacSha256};
pub use sha256::{digest, Sha256, DIGEST_LEN};
