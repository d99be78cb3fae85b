//! SHA-256 (FIPS 180-4), implemented from scratch.
//!
//! VRASED's SW-Att computes an HMAC-SHA256 over prover memory; this module
//! provides the hash primitive with both one-shot and incremental APIs so
//! the attestation routine can stream memory regions through it.
//!
//! The compression function has two backends behind one entry point: a
//! portable one, which is the reference and the only path on CPUs
//! without the SHA extensions, and one built on the x86-64 SHA-NI
//! instructions. The backend is chosen once per process from CPU
//! feature detection; nothing else selects it.

use std::sync::OnceLock;

/// Digest size in bytes.
pub const DIGEST_LEN: usize = 32;

/// Block size in bytes.
pub const BLOCK_LEN: usize = 64;

const H0: [u32; 8] = [
    0x6a09e667, 0xbb67ae85, 0x3c6ef372, 0xa54ff53a, 0x510e527f, 0x9b05688c, 0x1f83d9ab, 0x5be0cd19,
];

const K: [u32; 64] = [
    0x428a2f98, 0x71374491, 0xb5c0fbcf, 0xe9b5dba5, 0x3956c25b, 0x59f111f1, 0x923f82a4, 0xab1c5ed5,
    0xd807aa98, 0x12835b01, 0x243185be, 0x550c7dc3, 0x72be5d74, 0x80deb1fe, 0x9bdc06a7, 0xc19bf174,
    0xe49b69c1, 0xefbe4786, 0x0fc19dc6, 0x240ca1cc, 0x2de92c6f, 0x4a7484aa, 0x5cb0a9dc, 0x76f988da,
    0x983e5152, 0xa831c66d, 0xb00327c8, 0xbf597fc7, 0xc6e00bf3, 0xd5a79147, 0x06ca6351, 0x14292967,
    0x27b70a85, 0x2e1b2138, 0x4d2c6dfc, 0x53380d13, 0x650a7354, 0x766a0abb, 0x81c2c92e, 0x92722c85,
    0xa2bfe8a1, 0xa81a664b, 0xc24b8b70, 0xc76c51a3, 0xd192e819, 0xd6990624, 0xf40e3585, 0x106aa070,
    0x19a4c116, 0x1e376c08, 0x2748774c, 0x34b0bcb5, 0x391c0cb3, 0x4ed8aa4a, 0x5b9cca4f, 0x682e6ff3,
    0x748f82ee, 0x78a5636f, 0x84c87814, 0x8cc70208, 0x90befffa, 0xa4506ceb, 0xbef9a3f7, 0xc67178f2,
];

/// Incremental SHA-256 state.
///
/// # Examples
///
/// ```
/// use pox_crypto::sha256::Sha256;
///
/// let mut h = Sha256::new();
/// h.update(b"abc");
/// let digest = h.finalize();
/// assert_eq!(
///     pox_crypto::hex::encode(&digest),
///     "ba7816bf8f01cfea414140de5dae2223b00361a396177a9cb410ff61f20015ad"
/// );
/// ```
#[derive(Debug, Clone)]
pub struct Sha256 {
    state: [u32; 8],
    buf: [u8; BLOCK_LEN],
    buf_len: usize,
    total_len: u64,
}

impl Default for Sha256 {
    fn default() -> Sha256 {
        Sha256::new()
    }
}

impl Sha256 {
    /// Creates a fresh hash state.
    pub fn new() -> Sha256 {
        Sha256::resume(H0, 0)
    }

    /// Resumes from a chaining value reached after absorbing exactly
    /// `absorbed` bytes (a whole number of blocks): the HMAC key
    /// midstates.
    pub(crate) fn resume(state: [u32; 8], absorbed: u64) -> Sha256 {
        debug_assert!(absorbed.is_multiple_of(BLOCK_LEN as u64));
        Sha256 {
            state,
            buf: [0; BLOCK_LEN],
            buf_len: 0,
            total_len: absorbed,
        }
    }

    /// The chaining value after absorbing one whole `block` from
    /// [`H0`].
    pub(crate) fn midstate(block: &[u8; BLOCK_LEN]) -> [u32; 8] {
        let mut state = H0;
        compress(&mut state, block);
        state
    }

    /// Absorbs `data`.
    pub fn update(&mut self, data: &[u8]) {
        self.total_len = self.total_len.wrapping_add(data.len() as u64);
        let mut rest = data;
        if self.buf_len > 0 {
            let take = rest.len().min(BLOCK_LEN - self.buf_len);
            self.buf[self.buf_len..self.buf_len + take].copy_from_slice(&rest[..take]);
            self.buf_len += take;
            rest = &rest[take..];
            if self.buf_len < BLOCK_LEN {
                return;
            }
            compress(&mut self.state, &self.buf);
            self.buf_len = 0;
        }
        // Whole blocks go straight from the caller's slice.
        let whole = rest.len() - rest.len() % BLOCK_LEN;
        let (blocks, tail) = rest.split_at(whole);
        if !blocks.is_empty() {
            compress(&mut self.state, blocks);
        }
        self.buf[..tail.len()].copy_from_slice(tail);
        self.buf_len = tail.len();
    }

    /// Finishes the computation and returns the digest.
    pub fn finalize(mut self) -> [u8; DIGEST_LEN] {
        let bit_len = self.total_len.wrapping_mul(8);
        // Padding: 0x80, zeros, 64-bit big-endian length.
        self.buf[self.buf_len] = 0x80;
        self.buf[self.buf_len + 1..].fill(0);
        if self.buf_len >= BLOCK_LEN - 8 {
            compress(&mut self.state, &self.buf);
            self.buf.fill(0);
        }
        self.buf[BLOCK_LEN - 8..].copy_from_slice(&bit_len.to_be_bytes());
        compress(&mut self.state, &self.buf);

        let mut out = [0u8; DIGEST_LEN];
        for (chunk, w) in out.chunks_exact_mut(4).zip(self.state) {
            chunk.copy_from_slice(&w.to_be_bytes());
        }
        out
    }
}

/// Which compression function this process runs.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Backend {
    Portable,
    #[cfg(target_arch = "x86_64")]
    ShaNi,
}

/// The backend, detected on first use.
fn backend() -> Backend {
    static BACKEND: OnceLock<Backend> = OnceLock::new();
    *BACKEND.get_or_init(|| {
        #[cfg(target_arch = "x86_64")]
        if is_x86_feature_detected!("sha")
            && is_x86_feature_detected!("sse2")
            && is_x86_feature_detected!("ssse3")
            && is_x86_feature_detected!("sse4.1")
        {
            return Backend::ShaNi;
        }
        Backend::Portable
    })
}

/// Compresses each 64-byte block of `blocks` into `state`. The one
/// compression entry point: every hash and MAC goes through here.
fn compress(state: &mut [u32; 8], blocks: &[u8]) {
    debug_assert!(blocks.len().is_multiple_of(BLOCK_LEN));
    match backend() {
        Backend::Portable => compress_portable(state, blocks),
        #[cfg(target_arch = "x86_64")]
        // SAFETY: `backend` returns `ShaNi` only after
        // `is_x86_feature_detected!` found sha, sse2, ssse3 and sse4.1
        // on this CPU, the features `compress_shani` is compiled for.
        Backend::ShaNi => unsafe { compress_shani(state, blocks) },
    }
}

/// The reference compression function (FIPS 180-4, section 6.2.2).
fn compress_portable(state: &mut [u32; 8], blocks: &[u8]) {
    for block in blocks.chunks_exact(BLOCK_LEN) {
        let mut w = [0u32; 64];
        for (wi, word) in w.iter_mut().zip(block.chunks_exact(4)) {
            *wi = u32::from_be_bytes([word[0], word[1], word[2], word[3]]);
        }
        for i in 16..64 {
            let s0 = w[i - 15].rotate_right(7) ^ w[i - 15].rotate_right(18) ^ (w[i - 15] >> 3);
            let s1 = w[i - 2].rotate_right(17) ^ w[i - 2].rotate_right(19) ^ (w[i - 2] >> 10);
            w[i] = w[i - 16]
                .wrapping_add(s0)
                .wrapping_add(w[i - 7])
                .wrapping_add(s1);
        }

        let [mut a, mut b, mut c, mut d, mut e, mut f, mut g, mut h] = *state;
        for i in 0..64 {
            let s1 = e.rotate_right(6) ^ e.rotate_right(11) ^ e.rotate_right(25);
            let ch = (e & f) ^ (!e & g);
            let t1 = h
                .wrapping_add(s1)
                .wrapping_add(ch)
                .wrapping_add(K[i])
                .wrapping_add(w[i]);
            let s0 = a.rotate_right(2) ^ a.rotate_right(13) ^ a.rotate_right(22);
            let maj = (a & b) ^ (a & c) ^ (b & c);
            let t2 = s0.wrapping_add(maj);
            h = g;
            g = f;
            f = e;
            e = d.wrapping_add(t1);
            d = c;
            c = b;
            b = a;
            a = t1.wrapping_add(t2);
        }

        for (s, v) in state.iter_mut().zip([a, b, c, d, e, f, g, h]) {
            *s = s.wrapping_add(v);
        }
    }
}

/// The compression function on the SHA-NI instructions. Each
/// `sha256rnds2` runs two rounds on the state split as `ABEF`/`CDGH`;
/// `sha256msg1`/`sha256msg2` extend the message schedule four words at
/// a time.
///
/// Only reached through [`compress`], on a CPU where [`backend`] found
/// every feature it is compiled for.
#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "sha,sse2,ssse3,sse4.1")]
fn compress_shani(state: &mut [u32; 8], blocks: &[u8]) {
    use std::arch::x86_64::*;

    // Big-endian words: reverse the bytes of each 32-bit lane.
    let be_words = _mm_set_epi64x(0x0c0d_0e0f_0809_0a0b, 0x0405_0607_0001_0203);
    // SAFETY: `state` is 8 `u32`s, so both unaligned 16-byte loads stay
    // inside it.
    let (dcba, hgfe) = unsafe {
        (
            _mm_loadu_si128(state.as_ptr().cast()),
            _mm_loadu_si128(state.as_ptr().add(4).cast()),
        )
    };
    let cdab = _mm_shuffle_epi32(dcba, 0xB1);
    let efgh = _mm_shuffle_epi32(hgfe, 0x1B);
    let mut abef = _mm_alignr_epi8(cdab, efgh, 8);
    let mut cdgh = _mm_blend_epi16(efgh, cdab, 0xF0);

    for block in blocks.chunks_exact(BLOCK_LEN) {
        let (abef_in, cdgh_in) = (abef, cdgh);
        // `w[i]` holds schedule words 4i..4i+4 for the latest four groups.
        let mut w = [_mm_setzero_si128(); 4];
        for (i, wi) in w.iter_mut().enumerate() {
            // SAFETY: `block` is 64 bytes, so the 16-byte load at 16*i
            // for i < 4 stays inside it.
            let raw = unsafe { _mm_loadu_si128(block.as_ptr().add(16 * i).cast()) };
            *wi = _mm_shuffle_epi8(raw, be_words);
        }
        for group in 0..16 {
            if group >= 4 {
                // W[t] = σ1(W[t-2]) + W[t-7] + σ0(W[t-15]) + W[t-16]
                let [w16, w12, w8, w4] = w;
                let sum = _mm_add_epi32(_mm_sha256msg1_epu32(w16, w12), _mm_alignr_epi8(w4, w8, 4));
                w = [w12, w8, w4, _mm_sha256msg2_epu32(sum, w4)];
            }
            let words = w[if group >= 4 { 3 } else { group }];
            // SAFETY: `K` holds 64 words and group < 16, so the 16-byte
            // load at word 4*group stays inside it.
            let k = unsafe { _mm_loadu_si128(K.as_ptr().add(4 * group).cast()) };
            let wk = _mm_add_epi32(words, k);
            cdgh = _mm_sha256rnds2_epu32(cdgh, abef, wk);
            abef = _mm_sha256rnds2_epu32(abef, cdgh, _mm_shuffle_epi32(wk, 0x0E));
        }
        abef = _mm_add_epi32(abef, abef_in);
        cdgh = _mm_add_epi32(cdgh, cdgh_in);
    }

    let feba = _mm_shuffle_epi32(abef, 0x1B);
    let dchg = _mm_shuffle_epi32(cdgh, 0xB1);
    let dcba = _mm_blend_epi16(feba, dchg, 0xF0);
    let hgfe = _mm_alignr_epi8(dchg, feba, 8);
    // SAFETY: as for the loads above, both 16-byte stores stay inside
    // the 8 words of `state`.
    unsafe {
        _mm_storeu_si128(state.as_mut_ptr().cast(), dcba);
        _mm_storeu_si128(state.as_mut_ptr().add(4).cast(), hgfe);
    }
}

/// One-shot SHA-256.
///
/// # Examples
///
/// ```
/// let d = pox_crypto::sha256::digest(b"");
/// assert_eq!(
///     pox_crypto::hex::encode(&d),
///     "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855"
/// );
/// ```
pub fn digest(data: &[u8]) -> [u8; DIGEST_LEN] {
    let mut h = Sha256::new();
    h.update(data);
    h.finalize()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::hex;
    use proptest::prelude::*;

    /// NIST / well-known SHA-256 test vectors.
    #[test]
    fn nist_vectors() {
        let cases: [(&[u8], &str); 5] = [
            (b"", "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855"),
            (b"abc", "ba7816bf8f01cfea414140de5dae2223b00361a396177a9cb410ff61f20015ad"),
            (
                b"abcdbcdecdefdefgefghfghighijhijkijkljklmklmnlmnomnopnopq",
                "248d6a61d20638b8e5c026930c3e6039a33ce45964ff2167f6ecedd419db06c1",
            ),
            (
                b"abcdefghbcdefghicdefghijdefghijkefghijklfghijklmghijklmnhijklmnoijklmnopjklmnopqklmnopqrlmnopqrsmnopqrstnopqrstu",
                "cf5b16a778af8380036ce59e7b0492370b249b11e8f07a51afac45037afee9d1",
            ),
            (
                b"The quick brown fox jumps over the lazy dog",
                "d7a8fbb307d7809469ca9abcb0082e4f8d5651e46d3cdb762d02d0bf37c9e592",
            ),
        ];
        for (input, expect) in cases {
            assert_eq!(hex::encode(&digest(input)), expect);
        }
    }

    #[test]
    fn million_a() {
        let mut h = Sha256::new();
        let chunk = [b'a'; 1000];
        for _ in 0..1000 {
            h.update(&chunk);
        }
        assert_eq!(
            hex::encode(&h.finalize()),
            "cdc76e5c9914fb9281a1c7e284d73e67f1809a48a497200e046d39ccc7112cd0"
        );
    }

    #[test]
    fn incremental_equals_oneshot_on_odd_chunking() {
        let data: Vec<u8> = (0..1000u32).map(|i| (i * 31 % 251) as u8).collect();
        let oneshot = digest(&data);
        for chunk in [1usize, 3, 7, 63, 64, 65, 127] {
            let mut h = Sha256::new();
            for c in data.chunks(chunk) {
                h.update(c);
            }
            assert_eq!(h.finalize(), oneshot, "chunk size {chunk}");
        }
    }

    #[test]
    fn length_boundary_padding() {
        // 55, 56 and 64-byte messages exercise all padding branches.
        for len in [55usize, 56, 57, 63, 64, 65, 119, 120] {
            let data = vec![0xA5u8; len];
            let d1 = digest(&data);
            let mut h = Sha256::new();
            h.update(&data[..len / 2]);
            h.update(&data[len / 2..]);
            assert_eq!(h.finalize(), d1, "len {len}");
        }
    }

    /// FIPS 180-4 over the portable compression alone: pad the whole
    /// message, then compress every block in one call.
    fn portable_digest(data: &[u8]) -> [u8; DIGEST_LEN] {
        let mut padded = data.to_vec();
        padded.push(0x80);
        while padded.len() % BLOCK_LEN != BLOCK_LEN - 8 {
            padded.push(0);
        }
        padded.extend_from_slice(&((data.len() as u64) * 8).to_be_bytes());
        let mut state = H0;
        compress_portable(&mut state, &padded);
        let mut out = [0u8; DIGEST_LEN];
        for (chunk, w) in out.chunks_exact_mut(4).zip(state) {
            chunk.copy_from_slice(&w.to_be_bytes());
        }
        out
    }

    #[cfg(target_arch = "x86_64")]
    fn cpu_has_shani() -> bool {
        is_x86_feature_detected!("sha")
            && is_x86_feature_detected!("sse2")
            && is_x86_feature_detected!("ssse3")
            && is_x86_feature_detected!("sse4.1")
    }

    #[cfg(not(target_arch = "x86_64"))]
    fn cpu_has_shani() -> bool {
        false
    }

    #[test]
    fn dispatch_follows_cpu_detection() {
        if cpu_has_shani() {
            #[cfg(target_arch = "x86_64")]
            assert_eq!(backend(), Backend::ShaNi);
        } else {
            assert_eq!(backend(), Backend::Portable);
            let block = [0x5Au8; BLOCK_LEN];
            let (mut dispatched, mut portable) = (H0, H0);
            compress(&mut dispatched, &block);
            compress_portable(&mut portable, &block);
            assert_eq!(dispatched, portable);
        }
    }

    proptest! {
        /// The dispatched hash, fed through random `update` splits,
        /// equals the portable reference over the padded message.
        #[test]
        fn dispatched_hash_equals_portable_reference(
            data in proptest::collection::vec(any::<u8>(), 0..4096),
            cuts in proptest::collection::vec(any::<usize>(), 0..8),
        ) {
            let mut cuts: Vec<usize> = cuts.iter().map(|c| c % (data.len() + 1)).collect();
            cuts.sort_unstable();
            let mut h = Sha256::new();
            let mut pos = 0;
            for cut in cuts {
                h.update(&data[pos..cut]);
                pos = cut;
            }
            h.update(&data[pos..]);
            prop_assert_eq!(h.finalize(), portable_digest(&data));
        }

        /// Both backends map the same state and blocks to the same
        /// state.
        #[test]
        fn backends_agree_from_any_state(
            state in proptest::collection::vec(any::<u32>(), 8),
            blocks in 1usize..=3,
            fill in proptest::collection::vec(any::<u8>(), 3 * BLOCK_LEN),
        ) {
            let data = &fill[..blocks * BLOCK_LEN];
            let state: [u32; 8] = state.try_into().unwrap();
            let mut portable = state;
            compress_portable(&mut portable, data);
            let mut dispatched = state;
            compress(&mut dispatched, data);
            prop_assert_eq!(dispatched, portable);
            #[cfg(target_arch = "x86_64")]
            if cpu_has_shani() {
                let mut shani = state;
                // SAFETY: `cpu_has_shani` just found every feature
                // `compress_shani` is compiled for.
                unsafe { compress_shani(&mut shani, data) };
                prop_assert_eq!(shani, portable);
            }
        }
    }
}
