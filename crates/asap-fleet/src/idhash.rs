//! The hasher behind every map and set keyed by device ids the operator
//! enrolled or challenged.
//!
//! A [`DeviceId`](crate::DeviceId) is one `u64`, and std's default
//! SipHash-1-3 spends 13–19 ns on it on a 2-vCPU Xeon host — several
//! times per session, on the registry shards, the engine's awaited set
//! and the reactor's delivery records. [`IdHash`] hashes it with one
//! folded 64×64→128-bit multiply instead, about 1.5 ns: the key is mixed
//! with one per-process secret, and its 128-bit product with a second
//! secret is folded by XOR-ing the halves, so the low bits a map indexes
//! by depend on the high bits of the id too (a bare multiply's low bits
//! see only the id's low bits). Both secrets are drawn once per process
//! from std's [`RandomState`], so bucket layout is not predictable from
//! outside.
//!
//! The ids these maps hold were put there by the operator (enrollment) or
//! by the verifier (a challenge), never chosen by a peer: a peer's
//! evidence can make them look up an id it picked, but never insert one.
//! The one map a peer fills — the runtime's route map, whose keys any
//! connection can announce in a hello — stays on SipHash
//! (`reactor::RouteMap`).

use std::hash::{BuildHasher, Hasher, RandomState};
use std::sync::OnceLock;

/// A hash map keyed by operator-held ids, on [`IdHash`].
#[allow(clippy::disallowed_types)] // the one definition the lint exists to funnel through
pub(crate) type IdMap<K, V> = std::collections::HashMap<K, V, IdHash>;

/// A hash set of operator-held ids, on [`IdHash`].
#[allow(clippy::disallowed_types)] // the one definition the lint exists to funnel through
pub(crate) type IdSet<K> = std::collections::HashSet<K, IdHash>;

/// Builds [`IdHasher`]s under the process's two secrets.
#[derive(Clone, Copy)]
pub(crate) struct IdHash {
    seed: u64,
    multiplier: u64,
}

impl Default for IdHash {
    fn default() -> IdHash {
        static SECRETS: OnceLock<IdHash> = OnceLock::new();
        *SECRETS.get_or_init(|| {
            let state = RandomState::new();
            IdHash {
                seed: state.hash_one(0x243F_6A88_85A3_08D3u64),
                // Odd, so the multiply is a bijection of the low word.
                multiplier: state.hash_one(0x1319_8A2E_0370_7344u64) | 1,
            }
        })
    }
}

impl BuildHasher for IdHash {
    type Hasher = IdHasher;

    fn build_hasher(&self) -> IdHasher {
        IdHasher {
            hash: self.seed,
            multiplier: self.multiplier,
        }
    }
}

/// One id hash in progress: each word written is folded into the state.
pub(crate) struct IdHasher {
    hash: u64,
    multiplier: u64,
}

/// The full 128-bit product of `a` and `b`, its halves XOR-ed together.
fn folded_multiply(a: u64, b: u64) -> u64 {
    let product = u128::from(a) * u128::from(b);
    (product as u64) ^ ((product >> 64) as u64)
}

impl Hasher for IdHasher {
    fn write_u64(&mut self, word: u64) {
        self.hash = folded_multiply(self.hash ^ word, self.multiplier);
    }

    fn write(&mut self, bytes: &[u8]) {
        for chunk in bytes.chunks(8) {
            let mut word = [0; 8];
            word[..chunk.len()].copy_from_slice(chunk);
            self.write_u64(u64::from_le_bytes(word));
        }
    }

    fn finish(&self) -> u64 {
        self.hash
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::DeviceId;

    /// Bucket counts of `ids` over the low 8 bits of `hash`.
    fn low_byte_buckets(ids: impl Iterator<Item = u64>, hash: impl Fn(u64) -> u64) -> [usize; 256] {
        let mut buckets = [0; 256];
        for id in ids {
            buckets[(hash(id) & 0xFF) as usize] += 1;
        }
        buckets
    }

    /// Structured ids — dense, multiples of 2^32, and ids that differ
    /// only in their top 16 bits — spread over the low 8 bits of the
    /// hash (where a map picks its bucket) with no bucket above four
    /// times the mean. A bare multiply fails the last two: its low
    /// output bits see only the low input bits.
    #[test]
    fn structured_ids_spread_over_the_low_bits() {
        let ids = IdHash::default();
        let hash = |id: u64| ids.hash_one(DeviceId(id));
        let inputs: [(&str, Vec<u64>); 3] = [
            ("dense", (1..=4096).collect()),
            ("multiples of 2^32", (1..=4096).map(|i| i << 32).collect()),
            (
                "top 16 bits",
                (0..4096)
                    .map(|i| (i << 48) | 0x0000_1234_5678_9ABC)
                    .collect(),
            ),
        ];
        for (name, input) in inputs {
            let mean = input.len() / 256;
            let buckets = low_byte_buckets(input.iter().copied(), hash);
            let worst = buckets.iter().max().copied().unwrap_or(0);
            assert!(
                worst <= 4 * mean,
                "{name}: a bucket holds {worst}, mean {mean}"
            );

            // The reference failure: a bare multiply keeps the shared
            // low bits of the last two inputs, so all land in one bucket.
            if name != "dense" {
                let bare =
                    low_byte_buckets(input.iter().copied(), |id| id.wrapping_mul(ids.multiplier));
                assert_eq!(
                    bare.iter().max(),
                    Some(&input.len()),
                    "{name}: bare multiply"
                );
            }
        }
    }
}
