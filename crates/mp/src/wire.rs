//! Wire-size accounting for messages.
//!
//! Messages between ranks are moved by pointer (the ranks share an address
//! space), but the interconnect cost model needs to know how many bytes the
//! message *would* occupy on a real wire. [`WireSize`] supplies that number.
//!
//! The convention mirrors a simple length-prefixed binary encoding: scalars
//! cost `size_of::<T>()`, a `Vec<T>` costs an 8-byte length prefix plus the
//! sum of its elements, and tuples/arrays cost the sum of their parts.

/// Number of bytes a value would occupy in a length-prefixed binary
/// encoding. Used only for communication-cost accounting.
pub trait WireSize {
    /// Canonical encoded size in bytes. This is what the cost model
    /// charges, and it must depend only on message *content* — never on
    /// how the content happens to be compressed this step — so that
    /// virtual-time accounting stays bitwise reproducible across runs
    /// that encode the same content differently (e.g. a delta frame vs
    /// its full-frame fallback after a restore).
    fn wire_size(&self) -> usize;

    /// Actual bytes this value occupies on the wire in its current
    /// encoding. Equal to [`WireSize::wire_size`] for plain payloads;
    /// compressed frames override it. Feeds byte counters a caller keeps
    /// (the simulator's `WireBytes`) only — never the cost model.
    fn encoded_size(&self) -> usize {
        self.wire_size()
    }
}

macro_rules! scalar_wire {
    ($($t:ty),* $(,)?) => {
        $(impl WireSize for $t {
            #[inline]
            fn wire_size(&self) -> usize {
                core::mem::size_of::<$t>()
            }
        })*
    };
}

scalar_wire!(u8, u16, u32, u64, usize, i8, i16, i32, i64, isize, f32, f64, bool, char);

impl WireSize for () {
    #[inline]
    fn wire_size(&self) -> usize {
        0
    }
}

impl<T: WireSize> WireSize for Vec<T> {
    fn wire_size(&self) -> usize {
        8 + self.iter().map(WireSize::wire_size).sum::<usize>()
    }
    fn encoded_size(&self) -> usize {
        8 + self.iter().map(WireSize::encoded_size).sum::<usize>()
    }
}

impl<T: WireSize> WireSize for Option<T> {
    fn wire_size(&self) -> usize {
        1 + self.as_ref().map_or(0, WireSize::wire_size)
    }
    fn encoded_size(&self) -> usize {
        1 + self.as_ref().map_or(0, WireSize::encoded_size)
    }
}

impl<T: WireSize, const N: usize> WireSize for [T; N] {
    fn wire_size(&self) -> usize {
        self.iter().map(WireSize::wire_size).sum()
    }
    fn encoded_size(&self) -> usize {
        self.iter().map(WireSize::encoded_size).sum()
    }
}

impl<A: WireSize, B: WireSize> WireSize for (A, B) {
    fn wire_size(&self) -> usize {
        self.0.wire_size() + self.1.wire_size()
    }
    fn encoded_size(&self) -> usize {
        self.0.encoded_size() + self.1.encoded_size()
    }
}

impl<A: WireSize, B: WireSize, C: WireSize> WireSize for (A, B, C) {
    fn wire_size(&self) -> usize {
        self.0.wire_size() + self.1.wire_size() + self.2.wire_size()
    }
    fn encoded_size(&self) -> usize {
        self.0.encoded_size() + self.1.encoded_size() + self.2.encoded_size()
    }
}

impl<A: WireSize, B: WireSize, C: WireSize, D: WireSize> WireSize for (A, B, C, D) {
    fn wire_size(&self) -> usize {
        self.0.wire_size() + self.1.wire_size() + self.2.wire_size() + self.3.wire_size()
    }
    fn encoded_size(&self) -> usize {
        self.0.encoded_size()
            + self.1.encoded_size()
            + self.2.encoded_size()
            + self.3.encoded_size()
    }
}

/// Pooled payloads are sent as `Arc<T>` so the buffer can be reused for
/// the next step without re-encoding; on a real wire only the inner value
/// would travel, so that is what the cost model charges.
impl<T: WireSize> WireSize for std::sync::Arc<T> {
    fn wire_size(&self) -> usize {
        (**self).wire_size()
    }
    fn encoded_size(&self) -> usize {
        (**self).encoded_size()
    }
}

/// Same charging rule for the loom-shim `Arc` the pool uses under
/// `--cfg loom`, so the pooled-send tests type-check in loom builds.
#[cfg(loom)]
impl<T: WireSize> WireSize for loom::sync::Arc<T> {
    fn wire_size(&self) -> usize {
        (**self).wire_size()
    }
    fn encoded_size(&self) -> usize {
        (**self).encoded_size()
    }
}

impl WireSize for String {
    fn wire_size(&self) -> usize {
        8 + self.len()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn scalars_encode_to_their_size() {
        assert_eq!(0u8.wire_size(), 1);
        assert_eq!(0u32.wire_size(), 4);
        assert_eq!(0f64.wire_size(), 8);
        assert_eq!(true.wire_size(), 1);
        assert_eq!(0usize.wire_size(), core::mem::size_of::<usize>());
    }

    #[test]
    fn unit_is_free() {
        assert_eq!(().wire_size(), 0);
    }

    #[test]
    fn vec_has_length_prefix() {
        let v: Vec<f64> = vec![1.0, 2.0, 3.0];
        assert_eq!(v.wire_size(), 8 + 3 * 8);
        let empty: Vec<u8> = vec![];
        assert_eq!(empty.wire_size(), 8);
    }

    #[test]
    fn nested_vec_sums_recursively() {
        let v: Vec<Vec<u8>> = vec![vec![1, 2], vec![3]];
        assert_eq!(v.wire_size(), 8 + (8 + 2) + (8 + 1));
    }

    #[test]
    fn option_costs_one_byte_discriminant() {
        assert_eq!(None::<u64>.wire_size(), 1);
        assert_eq!(Some(0u64).wire_size(), 9);
    }

    #[test]
    fn tuples_and_arrays_sum_components() {
        assert_eq!((1u32, 2.0f64).wire_size(), 12);
        assert_eq!((1u8, 2u8, 3u8).wire_size(), 3);
        assert_eq!([1.0f64; 4].wire_size(), 32);
    }

    #[test]
    fn string_counts_bytes() {
        assert_eq!("abc".to_string().wire_size(), 11);
    }

    #[test]
    fn arc_charges_the_inner_value() {
        let v: Vec<f64> = vec![1.0, 2.0];
        let inner = v.wire_size();
        assert_eq!(std::sync::Arc::new(v).wire_size(), inner);
    }
}
