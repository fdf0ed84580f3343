//! A small binary codec for checkpointing.
//!
//! Rollback recovery writes iteration state to stable storage. Rather than
//! forcing `serde` derives onto every record type, the engine ships a compact
//! hand-rolled codec: fixed-width little-endian scalars, length-prefixed
//! containers. Implementations exist for the primitive types, `char`,
//! `String`, `Option`, `Vec`, and tuples up to arity six — enough to cover
//! the record types of every algorithm in this repository, and custom
//! structs implement the two-method [`Codec`] trait by composing these.

use crate::error::{EngineError, Result};

/// Types that can be written to / read from a byte stream.
pub trait Codec: Sized {
    /// Append the encoded representation to `out`.
    fn encode(&self, out: &mut Vec<u8>);
    /// Decode one value from the front of `input`, advancing it.
    fn decode(input: &mut &[u8]) -> Result<Self>;
}

fn short_input(what: &str) -> EngineError {
    EngineError::Codec(format!("input too short while decoding {what}"))
}

/// Read `N` bytes off the front of `input`.
fn take<const N: usize>(input: &mut &[u8], what: &str) -> Result<[u8; N]> {
    if input.len() < N {
        return Err(short_input(what));
    }
    let (head, rest) = input.split_at(N);
    *input = rest;
    let mut buf = [0u8; N];
    buf.copy_from_slice(head);
    Ok(buf)
}

macro_rules! impl_scalar_codec {
    ($($ty:ty),*) => {$(
        impl Codec for $ty {
            fn encode(&self, out: &mut Vec<u8>) {
                out.extend_from_slice(&self.to_le_bytes());
            }
            fn decode(input: &mut &[u8]) -> Result<Self> {
                Ok(<$ty>::from_le_bytes(take(input, stringify!($ty))?))
            }
        }
    )*};
}

impl_scalar_codec!(u8, u16, u32, u64, u128, i8, i16, i32, i64, i128, f32, f64);

impl Codec for usize {
    fn encode(&self, out: &mut Vec<u8>) {
        (*self as u64).encode(out);
    }
    fn decode(input: &mut &[u8]) -> Result<Self> {
        Ok(u64::decode(input)? as usize)
    }
}

impl Codec for char {
    fn encode(&self, out: &mut Vec<u8>) {
        (*self as u32).encode(out);
    }
    fn decode(input: &mut &[u8]) -> Result<Self> {
        let raw = u32::decode(input)?;
        char::from_u32(raw)
            .ok_or_else(|| EngineError::Codec(format!("invalid char scalar {raw:#x}")))
    }
}

impl Codec for bool {
    fn encode(&self, out: &mut Vec<u8>) {
        out.push(u8::from(*self));
    }
    fn decode(input: &mut &[u8]) -> Result<Self> {
        match take::<1>(input, "bool")?[0] {
            0 => Ok(false),
            1 => Ok(true),
            other => Err(EngineError::Codec(format!("invalid bool byte {other}"))),
        }
    }
}

impl Codec for () {
    fn encode(&self, _out: &mut Vec<u8>) {}
    fn decode(_input: &mut &[u8]) -> Result<Self> {
        Ok(())
    }
}

impl Codec for String {
    fn encode(&self, out: &mut Vec<u8>) {
        (self.len() as u64).encode(out);
        out.extend_from_slice(self.as_bytes());
    }
    fn decode(input: &mut &[u8]) -> Result<Self> {
        let len = u64::decode(input)? as usize;
        if input.len() < len {
            return Err(short_input("String"));
        }
        let (head, rest) = input.split_at(len);
        let s = std::str::from_utf8(head)
            .map_err(|e| EngineError::Codec(format!("invalid utf-8 in String: {e}")))?
            .to_string();
        *input = rest;
        Ok(s)
    }
}

impl<T: Codec> Codec for Option<T> {
    fn encode(&self, out: &mut Vec<u8>) {
        match self {
            None => out.push(0),
            Some(v) => {
                out.push(1);
                v.encode(out);
            }
        }
    }
    fn decode(input: &mut &[u8]) -> Result<Self> {
        match take::<1>(input, "Option tag")?[0] {
            0 => Ok(None),
            1 => Ok(Some(T::decode(input)?)),
            other => Err(EngineError::Codec(format!("invalid Option tag {other}"))),
        }
    }
}

/// Encode a slice exactly as the `Vec` holding the same elements encodes,
/// without copying it into one.
pub fn encode_slice<T: Codec>(items: &[T], out: &mut Vec<u8>) {
    (items.len() as u64).encode(out);
    for v in items {
        v.encode(out);
    }
}

impl<T: Codec> Codec for Vec<T> {
    fn encode(&self, out: &mut Vec<u8>) {
        encode_slice(self, out);
    }
    fn decode(input: &mut &[u8]) -> Result<Self> {
        let len = u64::decode(input)? as usize;
        // Guard against corrupt length prefixes: each element takes >= 1 byte
        // except zero-sized ones, for which a conservative cap still applies.
        if len > input.len() && std::mem::size_of::<T>() > 0 {
            return Err(EngineError::Codec(format!(
                "Vec length prefix {len} exceeds remaining input {}",
                input.len()
            )));
        }
        let mut out = Vec::with_capacity(len.min(1 << 20));
        for _ in 0..len {
            out.push(T::decode(input)?);
        }
        Ok(out)
    }
}

macro_rules! impl_tuple_codec {
    ($(($($name:ident : $idx:tt),+))*) => {$(
        impl<$($name: Codec),+> Codec for ($($name,)+) {
            fn encode(&self, out: &mut Vec<u8>) {
                $(self.$idx.encode(out);)+
            }
            fn decode(input: &mut &[u8]) -> Result<Self> {
                Ok(($($name::decode(input)?,)+))
            }
        }
    )*};
}

impl_tuple_codec! {
    (A: 0)
    (A: 0, B: 1)
    (A: 0, B: 1, C: 2)
    (A: 0, B: 1, C: 2, D: 3)
    (A: 0, B: 1, C: 2, D: 3, E: 4)
    (A: 0, B: 1, C: 2, D: 3, E: 4, G: 5)
}

/// Encode a value into a fresh buffer.
pub fn encode_to_vec<T: Codec>(value: &T) -> Vec<u8> {
    let mut out = Vec::new();
    value.encode(&mut out);
    out
}

/// Decode a value from a buffer, requiring the buffer to be fully consumed.
pub fn decode_exact<T: Codec>(mut input: &[u8]) -> Result<T> {
    let value = T::decode(&mut input)?;
    if !input.is_empty() {
        return Err(EngineError::Codec(format!("{} trailing bytes after decode", input.len())));
    }
    Ok(value)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn roundtrip<T: Codec + PartialEq + std::fmt::Debug>(v: T) {
        let bytes = encode_to_vec(&v);
        let back: T = decode_exact(&bytes).unwrap();
        assert_eq!(back, v);
    }

    #[test]
    fn scalars_roundtrip() {
        roundtrip(0u8);
        roundtrip(u64::MAX);
        roundtrip(-123i64);
        roundtrip(3.25f64);
        roundtrip(f64::NEG_INFINITY);
        roundtrip(true);
        roundtrip(usize::MAX);
    }

    #[test]
    fn containers_roundtrip() {
        roundtrip(String::from("höhenzug"));
        roundtrip(String::new());
        roundtrip(Option::<u64>::None);
        roundtrip(Some(9u32));
        roundtrip(vec![1u64, 2, 3]);
        roundtrip(Vec::<f64>::new());
        roundtrip(vec![vec![1u8], vec![], vec![2, 3]]);
    }

    #[test]
    fn tuples_roundtrip() {
        roundtrip((1u64,));
        roundtrip((1u64, 2.5f64));
        roundtrip((1u64, String::from("x"), false));
        roundtrip((1u8, 2u16, 3u32, 4u64));
        roundtrip((1u8, 2u16, 3u32, 4u64, 5i64));
        roundtrip((1u8, 2u16, 3u32, 4u64, 5i64, 6.5f32));
    }

    #[test]
    fn wide_scalars_and_chars_roundtrip() {
        roundtrip(u128::MAX);
        roundtrip(i128::MIN);
        roundtrip('λ');
        roundtrip('\u{1F680}');
        // An invalid char scalar (a surrogate) must be rejected.
        let bytes = encode_to_vec(&0xD800u32);
        assert!(decode_exact::<char>(&bytes).is_err());
    }

    #[test]
    fn nan_roundtrips_as_nan() {
        let bytes = encode_to_vec(&f64::NAN);
        let back: f64 = decode_exact(&bytes).unwrap();
        assert!(back.is_nan());
    }

    #[test]
    fn truncated_input_fails_cleanly() {
        let bytes = encode_to_vec(&(1u64, 2u64));
        assert!(decode_exact::<(u64, u64)>(&bytes[..10]).is_err());
        assert!(decode_exact::<(u64, u64)>(&[]).is_err());
    }

    #[test]
    fn trailing_bytes_rejected() {
        let mut bytes = encode_to_vec(&7u64);
        bytes.push(0);
        assert!(decode_exact::<u64>(&bytes).is_err());
    }

    #[test]
    fn corrupt_length_prefix_rejected() {
        // A Vec claiming u64::MAX elements must not attempt the allocation.
        let bytes = encode_to_vec(&u64::MAX);
        assert!(decode_exact::<Vec<u64>>(&bytes).is_err());
    }

    #[test]
    fn invalid_bool_and_option_tags_rejected() {
        assert!(decode_exact::<bool>(&[7]).is_err());
        assert!(decode_exact::<Option<u8>>(&[9]).is_err());
    }

    #[test]
    fn invalid_utf8_rejected() {
        let mut bytes = encode_to_vec(&2u64);
        bytes.extend_from_slice(&[0xff, 0xfe]);
        assert!(decode_exact::<String>(&bytes).is_err());
    }
}
