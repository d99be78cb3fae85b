//! Collection strategies (`proptest::collection::vec`).

use crate::strategy::Strategy;
use crate::test_runner::TestRng;
use std::ops::{Range, RangeInclusive};

/// Accepted size specifications for collection strategies.
#[derive(Debug, Clone, Copy)]
pub struct SizeRange {
    min: usize,
    max_inclusive: usize,
}

impl From<Range<usize>> for SizeRange {
    fn from(r: Range<usize>) -> SizeRange {
        assert!(r.start < r.end, "empty collection size range");
        SizeRange {
            min: r.start,
            max_inclusive: r.end - 1,
        }
    }
}

impl From<RangeInclusive<usize>> for SizeRange {
    fn from(r: RangeInclusive<usize>) -> SizeRange {
        assert!(r.start() <= r.end(), "empty collection size range");
        SizeRange {
            min: *r.start(),
            max_inclusive: *r.end(),
        }
    }
}

impl From<usize> for SizeRange {
    fn from(n: usize) -> SizeRange {
        SizeRange {
            min: n,
            max_inclusive: n,
        }
    }
}

/// The strategy returned by [`vec()`].
#[derive(Debug, Clone)]
pub struct VecStrategy<S> {
    element: S,
    size: SizeRange,
}

impl<S: Strategy> Strategy for VecStrategy<S> {
    type Value = Vec<S::Value>;

    fn generate(&self, rng: &mut TestRng) -> Vec<S::Value> {
        let span = (self.size.max_inclusive - self.size.min + 1) as u64;
        let len = self.size.min + rng.below(span) as usize;
        (0..len).map(|_| self.element.generate(rng)).collect()
    }
}

/// A strategy for vectors whose elements come from `element` and whose
/// length falls in `size`.
pub fn vec<S: Strategy>(element: S, size: impl Into<SizeRange>) -> VecStrategy<S> {
    VecStrategy {
        element,
        size: size.into(),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::arbitrary::any;

    #[test]
    fn lengths_in_range() {
        let mut rng = TestRng::new(5);
        let s = vec(any::<u8>(), 3..10);
        let mut lens = std::collections::BTreeSet::new();
        for _ in 0..500 {
            let v = s.generate(&mut rng);
            assert!((3..10).contains(&v.len()));
            lens.insert(v.len());
        }
        assert!(lens.len() > 3, "length variety expected");
    }

    #[test]
    fn exact_size_spec() {
        let mut rng = TestRng::new(6);
        let s = vec(any::<bool>(), 4usize);
        assert_eq!(s.generate(&mut rng).len(), 4);
    }
}
