//! HMAC-SHA256 (RFC 2104 / FIPS 198-1), built on [`crate::sha256`].
//!
//! A key's two pads each fill exactly one SHA-256 block, so their
//! chaining values depend on the key alone. [`HmacKey`] computes them
//! once; every MAC under that key then starts from the inner midstate
//! and finishes from the outer one, saving the two compressions a MAC
//! pays when it derives the pads anew.

use crate::sha256::{Sha256, BLOCK_LEN, DIGEST_LEN};
use std::fmt;

/// An HMAC-SHA256 key, held as the SHA-256 midstates of its inner and
/// outer pads. Derive it once per key and start any number of MACs
/// from it with [`HmacKey::begin`].
///
/// # Examples
///
/// ```
/// use pox_crypto::hmac::{hmac_sha256, HmacKey};
///
/// let key = HmacKey::new(b"device-key");
/// for msg in [&b"first"[..], b"second"] {
///     let mut mac = key.begin();
///     mac.update(msg);
///     assert_eq!(mac.finalize(), hmac_sha256(b"device-key", msg));
/// }
/// ```
#[derive(Clone)]
pub struct HmacKey {
    inner: [u32; 8],
    outer: [u32; 8],
}

impl HmacKey {
    /// Derives the pad midstates of `key` (any length; keys longer
    /// than one block are hashed first, per RFC 2104).
    pub fn new(key: &[u8]) -> HmacKey {
        let mut k = [0u8; BLOCK_LEN];
        if key.len() > BLOCK_LEN {
            k[..DIGEST_LEN].copy_from_slice(&crate::sha256::digest(key));
        } else {
            k[..key.len()].copy_from_slice(key);
        }
        let ipad = k.map(|b| b ^ 0x36);
        let opad = k.map(|b| b ^ 0x5c);
        HmacKey {
            inner: Sha256::midstate(&ipad),
            outer: Sha256::midstate(&opad),
        }
    }

    /// Starts a MAC under this key.
    pub fn begin(&self) -> HmacSha256 {
        HmacSha256 {
            inner: Sha256::resume(self.inner, BLOCK_LEN as u64),
            outer: self.outer,
        }
    }
}

/// Redacted: the midstates stand in for the key.
impl fmt::Debug for HmacKey {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("HmacKey").finish_non_exhaustive()
    }
}

/// Incremental HMAC-SHA256 state.
///
/// # Examples
///
/// ```
/// use pox_crypto::hmac::HmacSha256;
///
/// let mut mac = HmacSha256::new(b"key");
/// mac.update(b"The quick brown fox jumps over the lazy dog");
/// let tag = mac.finalize();
/// assert_eq!(
///     pox_crypto::hex::encode(&tag),
///     "f7bc83f430538424b13298e6aa6fb143ef4d59a14946175997479dbc2d1a3cd8"
/// );
/// ```
#[derive(Debug, Clone)]
pub struct HmacSha256 {
    inner: Sha256,
    outer: [u32; 8],
}

impl HmacSha256 {
    /// Creates an HMAC state keyed with `key`; the same as
    /// `HmacKey::new(key).begin()`.
    pub fn new(key: &[u8]) -> HmacSha256 {
        HmacKey::new(key).begin()
    }

    /// Absorbs message data.
    pub fn update(&mut self, data: &[u8]) {
        self.inner.update(data);
    }

    /// Finishes the computation and returns the 32-byte tag.
    pub fn finalize(self) -> [u8; DIGEST_LEN] {
        let inner_digest = self.inner.finalize();
        let mut outer = Sha256::resume(self.outer, BLOCK_LEN as u64);
        outer.update(&inner_digest);
        outer.finalize()
    }
}

/// One-shot HMAC-SHA256.
pub fn hmac_sha256(key: &[u8], msg: &[u8]) -> [u8; DIGEST_LEN] {
    let mut mac = HmacSha256::new(key);
    mac.update(msg);
    mac.finalize()
}

/// Constant-time equality of two byte strings.
///
/// The comparison runs over the full length of both inputs regardless of
/// where the first difference occurs, so the verifier/prover never leak
/// match prefixes through timing.
pub fn ct_eq(a: &[u8], b: &[u8]) -> bool {
    if a.len() != b.len() {
        return false;
    }
    let mut acc: u8 = 0;
    for (x, y) in a.iter().zip(b.iter()) {
        acc |= x ^ y;
    }
    acc == 0
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::hex;

    /// RFC 4231 test case `n`: key, message, and the expected tag
    /// (case 5 publishes only the first 128 bits).
    fn rfc4231(n: usize) -> (Vec<u8>, Vec<u8>, &'static str) {
        match n {
            1 => (
                vec![0x0b; 20],
                b"Hi There".to_vec(),
                "b0344c61d8db38535ca8afceaf0bf12b881dc200c9833da726e9376c2e32cff7",
            ),
            2 => (
                b"Jefe".to_vec(),
                b"what do ya want for nothing?".to_vec(),
                "5bdcc146bf60754e6a042426089575c75a003f089d2739839dec58b964ec3843",
            ),
            3 => (
                vec![0xaa; 20],
                vec![0xdd; 50],
                "773ea91e36800e46854db8ebd09181a72959098b3ef8c122d9635514ced565fe",
            ),
            4 => (
                (1..=25).collect(),
                vec![0xcd; 50],
                "82558a389a443c0ea4cc819899f2083a85f0faa3e578f8077a2e3ff46729665b",
            ),
            5 => (
                vec![0x0c; 20],
                b"Test With Truncation".to_vec(),
                "a3b6167473100ee06e0c796c2955552b",
            ),
            6 => (
                vec![0xaa; 131],
                b"Test Using Larger Than Block-Size Key - Hash Key First".to_vec(),
                "60e431591ee0b67f0d8a26aacbf5b77f8e0bc6213728c5140546040f0ee37f54",
            ),
            7 => (
                vec![0xaa; 131],
                b"This is a test using a larger than block-size key and a larger than block-size data. The key needs to be hashed before being used by the HMAC algorithm.".to_vec(),
                "9b09ffa71b942fcb27635fbcd5b0e944bfdc63644f0713938a7f51535c3a35e2",
            ),
            _ => unreachable!("RFC 4231 has cases 1..=7"),
        }
    }

    /// Checks case `n` through `hmac_sha256` and through one
    /// `HmacKey` that MACs other messages before and between.
    fn check_rfc4231(n: usize) {
        let (key, msg, expect) = rfc4231(n);
        let tag = |t: [u8; DIGEST_LEN]| hex::encode(&t[..expect.len() / 2]);
        assert_eq!(tag(hmac_sha256(&key, &msg)), expect, "case {n}");

        let reused = HmacKey::new(&key);
        for round in 0..3u8 {
            let other = vec![round; 64 * round as usize + 7];
            let mut mac = reused.begin();
            mac.update(&other);
            assert_eq!(mac.finalize(), hmac_sha256(&key, &other), "case {n}");

            let mut mac = reused.begin();
            mac.update(&msg);
            assert_eq!(tag(mac.finalize()), expect, "case {n}, reuse {round}");
        }
    }

    #[test]
    fn rfc4231_case1() {
        check_rfc4231(1);
    }

    #[test]
    fn rfc4231_case2() {
        check_rfc4231(2);
    }

    #[test]
    fn rfc4231_case3() {
        check_rfc4231(3);
    }

    #[test]
    fn rfc4231_case4() {
        check_rfc4231(4);
    }

    #[test]
    fn rfc4231_case5_truncation() {
        check_rfc4231(5);
    }

    #[test]
    fn rfc4231_case6_long_key() {
        check_rfc4231(6);
    }

    #[test]
    fn rfc4231_case7_long_key_and_data() {
        check_rfc4231(7);
    }

    #[test]
    fn incremental_equals_oneshot() {
        let key = b"attestation key";
        let data: Vec<u8> = (0..777u32).map(|i| (i % 256) as u8).collect();
        let expect = hmac_sha256(key, &data);
        let mut mac = HmacSha256::new(key);
        for c in data.chunks(13) {
            mac.update(c);
        }
        assert_eq!(mac.finalize(), expect);
    }

    #[test]
    fn ct_eq_behaviour() {
        assert!(ct_eq(b"same", b"same"));
        assert!(!ct_eq(b"same", b"sane"));
        assert!(!ct_eq(b"short", b"longer"));
        assert!(ct_eq(b"", b""));
    }

    #[test]
    fn different_keys_give_different_tags() {
        let t1 = hmac_sha256(b"k1", b"msg");
        let t2 = hmac_sha256(b"k2", b"msg");
        assert_ne!(t1, t2);
    }
}
