//! Collection strategies (`proptest::collection::vec`).

use std::ops::Range;

use crate::strategy::Strategy;
use crate::test_runner::TestRng;

/// A `Vec` of values from `element`, with a length drawn from `len`.
pub fn vec<S: Strategy>(element: S, len: Range<usize>) -> VecStrategy<S> {
    assert!(len.start < len.end, "empty length range");
    VecStrategy { element, len }
}

/// Strategy returned by [`vec()`].
pub struct VecStrategy<S> {
    element: S,
    len: Range<usize>,
}

impl<S: Strategy> Strategy for VecStrategy<S> {
    type Value = Vec<S::Value>;
    fn pick(&self, rng: &mut TestRng) -> Vec<S::Value> {
        let span = (self.len.end - self.len.start) as u64;
        let n = self.len.start + (rng.next_u64() % span) as usize;
        (0..n).map(|_| self.element.pick(rng)).collect()
    }
}
