//! The workspace's one seeded generator.

/// xorshift64\* — tiny, seedable and wall-clock free: every seeded
/// schedule in the workspace (rotation shuffles, scenario scripts,
/// bench churn, generated programs) draws from this one stream shape,
/// so a seed reproduces the same schedule anywhere.
///
/// Callers own their seed transform; the generator itself takes the
/// seed as its state, remapping only zero — the xorshift fixpoint that
/// would emit zeros forever — to `0x9E37_79B9_7F4A_7C15`.
#[derive(Debug, Clone)]
pub struct XorShift64 {
    state: u64,
}

impl XorShift64 {
    /// A generator whose state is `seed` (zero remapped).
    pub fn new(seed: u64) -> XorShift64 {
        XorShift64 {
            state: if seed == 0 {
                0x9E37_79B9_7F4A_7C15
            } else {
                seed
            },
        }
    }

    /// The next 64 random bits.
    pub fn next_u64(&mut self) -> u64 {
        let mut x = self.state;
        x ^= x >> 12;
        x ^= x << 25;
        x ^= x >> 27;
        self.state = x;
        x.wrapping_mul(0x2545_F491_4F6C_DD1D)
    }

    /// A value in `0..n` (`n > 0`), by modulo reduction.
    pub fn below(&mut self, n: u64) -> u64 {
        self.next_u64() % n
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn zero_seed_is_remapped_not_stuck() {
        let mut zero = XorShift64::new(0);
        let mut golden = XorShift64::new(0x9E37_79B9_7F4A_7C15);
        for _ in 0..8 {
            let x = zero.next_u64();
            assert_ne!(x, 0);
            assert_eq!(x, golden.next_u64());
        }
    }

    #[test]
    fn stream_is_pinned() {
        // The reference xorshift64* step, so every seeded schedule in
        // the workspace replays bit-identically across refactors.
        let mut rng = XorShift64::new(1);
        assert_eq!(rng.next_u64(), 0x47e4_ce4b_896c_dd1d);
    }
}
