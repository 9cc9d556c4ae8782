//! The byte format every message travels in.
//!
//! A message is its encoding: [`Comm::send`](crate::Comm::send) writes a
//! value into a pooled byte buffer with [`Encode`], the buffer crosses to
//! the receiver, and [`Comm::recv`](crate::Comm::recv) reads it back with
//! [`Decode`]. The buffer's length is what the cost model charges and
//! what every byte counter adds up, so there is no second byte count to
//! keep in step with the first.
//!
//! The conventions are those of a simple length-prefixed binary encoding:
//!
//! - scalars are their `size_of` in little-endian bytes, `usize` as 8,
//!   `bool` as one byte (0 or 1);
//! - a `Vec<T>` (or a slice) is an 8-byte length, then its elements;
//! - an `Option<T>` is a one-byte tag (0 or 1), then the value if any;
//! - a tuple, or a struct under [`wire_struct!`](crate::wire_struct), is
//!   its fields in order; `()` is nothing.
//!
//! Frames with a layout of their own (the simulator's step frames) build
//! it from the same pieces: unsigned LEB128 varints ([`put_leb128`],
//! [`Reader::leb128`]) and the scalar encodings.
//!
//! Decoding reads untrusted bytes: every malformed input is a typed
//! [`DecodeError`], never a panic, and no count read off the wire sizes
//! an allocation before the bytes behind it are there.

/// A value that can be written to the wire.
pub trait Encode {
    /// Append this value's encoding to `out`.
    fn encode(&self, out: &mut Vec<u8>);
}

/// A value that can be read back off the wire.
pub trait Decode: Sized {
    /// Read one value from `r`, advancing it past the value's bytes.
    fn decode(r: &mut Reader<'_>) -> Result<Self, DecodeError>;
}

/// Why bytes did not decode.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum DecodeError {
    /// The input ends inside a value.
    Truncated,
    /// A varint runs past the 10 bytes a `u64` needs.
    VarintTooLong,
    /// A number exceeds the type it is read into.
    Overflow,
    /// A count that must not be zero is.
    Empty,
    /// A tag or flag byte (`bool`, `Option`, an enum) outside its range.
    BadTag(u8),
    /// Bytes follow the value.
    Trailing {
        /// How many.
        bytes: usize,
    },
}

/// Decode exactly one `T` from `bytes`: what is left over is an error.
pub fn decode_all<T: Decode>(bytes: &[u8]) -> Result<T, DecodeError> {
    let mut r = Reader::new(bytes);
    let value = T::decode(&mut r)?;
    match r.remaining() {
        0 => Ok(value),
        bytes => Err(DecodeError::Trailing { bytes }),
    }
}

/// The bytes `value` takes on the wire. Allocates; for cold paths that
/// price a message without sending it.
pub fn encoded_len<T: Encode + ?Sized>(value: &T) -> usize {
    let mut out = Vec::new();
    value.encode(&mut out);
    out.len()
}

/// Append `v` as an unsigned LEB128 varint: 7 value bits per byte, low
/// group first, the top bit set on every byte but the last.
pub fn put_leb128(mut v: u64, out: &mut Vec<u8>) {
    while v >= 0x80 {
        out.push(v as u8 | 0x80);
        v >>= 7;
    }
    out.push(v as u8);
}

/// A cursor over untrusted bytes.
#[derive(Debug, Clone)]
pub struct Reader<'a> {
    bytes: &'a [u8],
    at: usize,
}

impl<'a> Reader<'a> {
    /// A cursor at the start of `bytes`.
    pub fn new(bytes: &'a [u8]) -> Self {
        Self { bytes, at: 0 }
    }

    /// Bytes consumed so far: the offset of the next one.
    pub fn position(&self) -> usize {
        self.at
    }

    /// Bytes not yet read.
    pub fn remaining(&self) -> usize {
        self.bytes.len() - self.at
    }

    /// The next `N` bytes, as an array.
    pub fn take<const N: usize>(&mut self) -> Result<[u8; N], DecodeError> {
        let (head, _) =
            (self.bytes[self.at..].split_first_chunk::<N>()).ok_or(DecodeError::Truncated)?;
        self.at += N;
        Ok(*head)
    }

    /// An unsigned LEB128 varint.
    pub fn leb128(&mut self) -> Result<u64, DecodeError> {
        let mut v = 0u64;
        for shift in (0..64).step_by(7) {
            let [b] = self.take::<1>()?;
            let bits = u64::from(b & 0x7f);
            if shift == 63 && bits > 1 {
                return Err(DecodeError::Overflow);
            }
            v |= bits << shift;
            if b & 0x80 == 0 {
                return Ok(v);
            }
        }
        Err(DecodeError::VarintTooLong)
    }

    /// `n` items of at least `each` bytes, if the bytes left can hold
    /// them: a count checked before it sizes anything.
    pub fn fits(&self, n: u64, each: usize) -> Result<usize, DecodeError> {
        let n = usize::try_from(n).map_err(|_| DecodeError::Truncated)?;
        match n.checked_mul(each) {
            Some(bytes) if bytes <= self.remaining() => Ok(n),
            _ => Err(DecodeError::Truncated),
        }
    }

    /// A varint count that is not zero.
    pub fn count(&mut self) -> Result<u64, DecodeError> {
        match self.leb128()? {
            0 => Err(DecodeError::Empty),
            n => Ok(n),
        }
    }
}

macro_rules! scalar_wire {
    ($($t:ty),* $(,)?) => {
        $(
            impl Encode for $t {
                #[inline]
                fn encode(&self, out: &mut Vec<u8>) {
                    out.extend_from_slice(&self.to_le_bytes());
                }
            }

            impl Decode for $t {
                #[inline]
                fn decode(r: &mut Reader<'_>) -> Result<Self, DecodeError> {
                    Ok(<$t>::from_le_bytes(r.take()?))
                }
            }
        )*
    };
}

scalar_wire!(u8, u32, u64, f32, f64);

/// `usize` travels as a `u64`, whatever the host's pointer width.
impl Encode for usize {
    fn encode(&self, out: &mut Vec<u8>) {
        (*self as u64).encode(out);
    }
}

impl Decode for usize {
    fn decode(r: &mut Reader<'_>) -> Result<Self, DecodeError> {
        usize::try_from(u64::decode(r)?).map_err(|_| DecodeError::Overflow)
    }
}

impl Encode for bool {
    fn encode(&self, out: &mut Vec<u8>) {
        out.push(u8::from(*self));
    }
}

impl Decode for bool {
    fn decode(r: &mut Reader<'_>) -> Result<Self, DecodeError> {
        match r.take::<1>()? {
            [0] => Ok(false),
            [1] => Ok(true),
            [b] => Err(DecodeError::BadTag(b)),
        }
    }
}

impl Encode for () {
    fn encode(&self, _: &mut Vec<u8>) {}
}

impl Decode for () {
    fn decode(_: &mut Reader<'_>) -> Result<Self, DecodeError> {
        Ok(())
    }
}

impl<T: Encode + ?Sized> Encode for &T {
    fn encode(&self, out: &mut Vec<u8>) {
        (**self).encode(out);
    }
}

/// Reserves the elements' in-memory size up front — their encoded size
/// for the fixed-size records the simulator sends — so a large list
/// grows its buffer once.
impl<T: Encode> Encode for [T] {
    fn encode(&self, out: &mut Vec<u8>) {
        out.reserve(8 + size_of_val(self));
        self.len().encode(out);
        for item in self {
            item.encode(out);
        }
    }
}

impl<T: Encode> Encode for Vec<T> {
    fn encode(&self, out: &mut Vec<u8>) {
        self.as_slice().encode(out);
    }
}

/// The length is checked against the bytes left before anything is
/// reserved (every element the format sends takes at least one byte),
/// and no more is reserved than those bytes could hold.
impl<T: Decode> Decode for Vec<T> {
    fn decode(r: &mut Reader<'_>) -> Result<Self, DecodeError> {
        let n = u64::decode(r)?;
        let n = r.fits(n, 1)?;
        let fits = r.remaining() / size_of::<T>().max(1);
        let mut out = Vec::with_capacity(n.min(fits));
        for _ in 0..n {
            out.push(T::decode(r)?);
        }
        Ok(out)
    }
}

impl<T: Encode> Encode for Option<T> {
    fn encode(&self, out: &mut Vec<u8>) {
        self.is_some().encode(out);
        if let Some(v) = self {
            v.encode(out);
        }
    }
}

impl<T: Decode> Decode for Option<T> {
    fn decode(r: &mut Reader<'_>) -> Result<Self, DecodeError> {
        Ok(match bool::decode(r)? {
            false => None,
            true => Some(T::decode(r)?),
        })
    }
}

/// [`Encode`] and [`Decode`] for a struct as its named fields, in the
/// order given: `wire_struct!(Col { cx, cy });`.
#[macro_export]
macro_rules! wire_struct {
    ($t:ty { $($field:ident),+ $(,)? }) => {
        impl $crate::wire::Encode for $t {
            fn encode(&self, out: &mut Vec<u8>) {
                $($crate::wire::Encode::encode(&self.$field, out);)+
            }
        }

        impl $crate::wire::Decode for $t {
            fn decode(
                r: &mut $crate::wire::Reader<'_>,
            ) -> Result<Self, $crate::wire::DecodeError> {
                Ok(Self { $($field: $crate::wire::Decode::decode(r)?),+ })
            }
        }
    };
}

macro_rules! tuple_wire {
    ($($name:ident . $idx:tt),+) => {
        impl<$($name: Encode),+> Encode for ($($name,)+) {
            fn encode(&self, out: &mut Vec<u8>) {
                $(self.$idx.encode(out);)+
            }
        }

        impl<$($name: Decode),+> Decode for ($($name,)+) {
            fn decode(r: &mut Reader<'_>) -> Result<Self, DecodeError> {
                Ok(($($name::decode(r)?,)+))
            }
        }
    };
}

tuple_wire!(A.0, B.1);
tuple_wire!(A.0, B.1, C.2);
tuple_wire!(A.0, B.1, C.2, D.3);

#[cfg(test)]
mod tests {
    use super::*;

    fn bytes<T: Encode>(v: T) -> Vec<u8> {
        let mut out = Vec::new();
        v.encode(&mut out);
        out
    }

    fn round_trip<T: Encode + Decode + PartialEq + std::fmt::Debug>(v: T) -> usize {
        let b = bytes(&v);
        assert_eq!(decode_all::<T>(&b), Ok(v));
        b.len()
    }

    #[test]
    fn scalars_travel_at_their_size_little_endian() {
        assert_eq!(bytes(0x0102u32), [2, 1, 0, 0]);
        assert_eq!(round_trip(7u8), 1);
        assert_eq!(round_trip(u32::MAX), 4);
        assert_eq!(round_trip(-2.5f64), 8);
        assert_eq!(round_trip(true), 1);
        assert_eq!(round_trip(usize::MAX), 8);
        assert_eq!(round_trip(()), 0);
        // NaN payloads survive bit for bit.
        let nan = f64::from_bits(0x7ff8_0000_dead_beef);
        assert_eq!(
            decode_all::<f64>(&bytes(nan)).map(f64::to_bits),
            Ok(nan.to_bits())
        );
    }

    #[test]
    fn lists_options_and_tuples_have_their_prefixes() {
        assert_eq!(round_trip(vec![1.0f64, 2.0, 3.0]), 8 + 3 * 8);
        assert_eq!(round_trip(Vec::<u8>::new()), 8);
        assert_eq!(
            round_trip(vec![vec![1u8, 2], vec![3]]),
            8 + (8 + 2) + (8 + 1)
        );
        assert_eq!(round_trip(None::<u64>), 1);
        assert_eq!(round_trip(Some(0u64)), 9);
        assert_eq!(round_trip((1u32, 2.0f64)), 12);
        assert_eq!(round_trip((1u8, 2u8, 3u8)), 3);
        assert_eq!(
            round_trip((vec![1u64], 2u64, Some(0.5f64), vec![(3u64, 4.0f64)])),
            16 + 8 + 9 + 24
        );
        assert_eq!(bytes(&[5u8][..]), bytes(vec![5u8]));
    }

    #[test]
    fn leb128_takes_seven_bits_a_byte() {
        for (v, len) in [
            (0, 1),
            (127, 1),
            (128, 2),
            (16383, 2),
            (16384, 3),
            (u64::MAX, 10),
        ] {
            let mut out = Vec::new();
            put_leb128(v, &mut out);
            assert_eq!(out.len(), len, "{v}");
            assert_eq!(Reader::new(&out).leb128(), Ok(v));
        }
    }

    #[test]
    fn malformed_input_is_a_typed_error() {
        use DecodeError::*;
        assert_eq!(decode_all::<u64>(&[1, 2, 3]), Err(Truncated));
        assert_eq!(decode_all::<u32>(&[0; 5]), Err(Trailing { bytes: 1 }));
        assert_eq!(decode_all::<bool>(&[2]), Err(BadTag(2)));
        assert_eq!(decode_all::<Option<u8>>(&[7, 0]), Err(BadTag(7)));
        // A length far past the bytes behind it reserves nothing.
        assert_eq!(decode_all::<Vec<u64>>(&bytes(u64::MAX)), Err(Truncated));
        assert_eq!(decode_all::<Vec<u64>>(&bytes((2u64, 1u64))), Err(Truncated));
        assert_eq!(Reader::new(&[0x80; 11]).leb128(), Err(VarintTooLong));
        let mut wide = vec![0xff; 9];
        wide.push(0x02);
        assert_eq!(Reader::new(&wide).leb128(), Err(Overflow));
        assert_eq!(Reader::new(&[0]).count(), Err(Empty));
        assert_eq!(Reader::new(&[0; 48]).fits(2, 24), Ok(2));
        assert_eq!(Reader::new(&[0; 48]).fits(3, 24), Err(Truncated));
        assert_eq!(Reader::new(&[0; 48]).fits(u64::MAX, 24), Err(Truncated));
    }
}
