//! Canonical binary codec.
//!
//! Every structure in PDS² that is hashed, signed or stored on-chain is
//! serialized through this codec. The layout is deterministic by
//! construction (fixed-width little-endian integers, length-prefixed
//! sequences, tagged options), which makes `sha256(encode(x))` a canonical
//! identifier.

use crate::sha256::{sha256, Digest, DIGEST_LEN};

/// Encoding destination with convenience writers.
#[derive(Default)]
pub struct Encoder {
    buf: Vec<u8>,
}

impl Encoder {
    /// Creates an empty encoder.
    pub fn new() -> Self {
        Self::default()
    }

    /// Creates an encoder that writes into `buf`, cleared first: its
    /// allocation is reused.
    pub fn reusing(mut buf: Vec<u8>) -> Self {
        buf.clear();
        Encoder { buf }
    }

    /// Consumes the encoder, returning the bytes.
    pub fn finish(self) -> Vec<u8> {
        self.buf
    }

    /// Current encoded length in bytes.
    pub fn len(&self) -> usize {
        self.buf.len()
    }

    /// True if nothing was written yet.
    pub fn is_empty(&self) -> bool {
        self.buf.is_empty()
    }

    pub fn put_u8(&mut self, v: u8) {
        self.buf.push(v);
    }

    pub fn put_bool(&mut self, v: bool) {
        self.buf.push(v as u8);
    }

    pub fn put_u32(&mut self, v: u32) {
        self.buf.extend_from_slice(&v.to_le_bytes());
    }

    pub fn put_u64(&mut self, v: u64) {
        self.buf.extend_from_slice(&v.to_le_bytes());
    }

    pub fn put_u128(&mut self, v: u128) {
        self.buf.extend_from_slice(&v.to_le_bytes());
    }

    /// Encodes an `f64` via its IEEE-754 bit pattern.
    pub fn put_f64(&mut self, v: f64) {
        self.buf.extend_from_slice(&v.to_bits().to_le_bytes());
    }

    /// Length-prefixed byte string.
    pub fn put_bytes(&mut self, v: &[u8]) {
        self.put_u64(v.len() as u64);
        self.buf.extend_from_slice(v);
    }

    /// Length-prefixed UTF-8 string.
    pub fn put_str(&mut self, v: &str) {
        self.put_bytes(v.as_bytes());
    }

    /// Fixed-width digest (no length prefix).
    pub fn put_digest(&mut self, d: &Digest) {
        self.buf.extend_from_slice(d.as_bytes());
    }

    /// Raw bytes with no length prefix (use only for fixed-width fields).
    pub fn put_raw(&mut self, v: &[u8]) {
        self.buf.extend_from_slice(v);
    }

    /// Length-prefixed sequence of encodable items.
    pub fn put_seq<T: Encode>(&mut self, items: &[T]) {
        self.put_u64(items.len() as u64);
        for item in items {
            item.encode(self);
        }
    }

    /// Tagged option: 0 for None, 1 + payload for Some.
    pub fn put_option<T: Encode>(&mut self, v: &Option<T>) {
        match v {
            None => self.put_u8(0),
            Some(x) => {
                self.put_u8(1);
                x.encode(self);
            }
        }
    }
}

/// Decoding cursor over a byte slice.
pub struct Decoder<'a> {
    buf: &'a [u8],
    pos: usize,
}

/// Errors produced while decoding.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum DecodeError {
    /// Input ended before the expected field.
    UnexpectedEnd,
    /// A tag byte or enum discriminant had an invalid value.
    InvalidTag(u8),
    /// A length prefix exceeded the remaining input.
    LengthOverflow,
    /// A UTF-8 string field contained invalid bytes.
    InvalidUtf8,
    /// Trailing bytes remained after a complete decode.
    TrailingBytes,
    /// Domain-specific validation failed.
    Invalid(&'static str),
}

impl std::fmt::Display for DecodeError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            DecodeError::UnexpectedEnd => write!(f, "unexpected end of input"),
            DecodeError::InvalidTag(t) => write!(f, "invalid tag byte {t}"),
            DecodeError::LengthOverflow => write!(f, "length prefix exceeds input"),
            DecodeError::InvalidUtf8 => write!(f, "invalid UTF-8 in string field"),
            DecodeError::TrailingBytes => write!(f, "trailing bytes after decode"),
            DecodeError::Invalid(what) => write!(f, "invalid value: {what}"),
        }
    }
}

impl std::error::Error for DecodeError {}

impl<'a> Decoder<'a> {
    /// Creates a cursor at the start of `buf`.
    pub fn new(buf: &'a [u8]) -> Self {
        Decoder { buf, pos: 0 }
    }

    /// Bytes not yet consumed.
    pub fn remaining(&self) -> usize {
        self.buf.len() - self.pos
    }

    pub(crate) fn take(&mut self, n: usize) -> Result<&'a [u8], DecodeError> {
        if self.remaining() < n {
            return Err(DecodeError::UnexpectedEnd);
        }
        let out = &self.buf[self.pos..self.pos + n];
        self.pos += n;
        Ok(out)
    }

    /// The next `N` bytes as an array.
    fn take_array<const N: usize>(&mut self) -> Result<[u8; N], DecodeError> {
        let mut out = [0u8; N];
        out.copy_from_slice(self.take(N)?);
        Ok(out)
    }

    pub fn get_u8(&mut self) -> Result<u8, DecodeError> {
        Ok(self.take(1)?[0])
    }

    pub fn get_bool(&mut self) -> Result<bool, DecodeError> {
        match self.get_u8()? {
            0 => Ok(false),
            1 => Ok(true),
            t => Err(DecodeError::InvalidTag(t)),
        }
    }

    pub fn get_u32(&mut self) -> Result<u32, DecodeError> {
        Ok(u32::from_le_bytes(self.take_array()?))
    }

    pub fn get_u64(&mut self) -> Result<u64, DecodeError> {
        Ok(u64::from_le_bytes(self.take_array()?))
    }

    pub fn get_u128(&mut self) -> Result<u128, DecodeError> {
        Ok(u128::from_le_bytes(self.take_array()?))
    }

    pub fn get_f64(&mut self) -> Result<f64, DecodeError> {
        Ok(f64::from_bits(self.get_u64()?))
    }

    pub fn get_bytes(&mut self) -> Result<Vec<u8>, DecodeError> {
        let len = self.get_u64()?;
        let len = self.bounded_count(len, 1)?;
        Ok(self.take(len)?.to_vec())
    }

    pub fn get_str(&mut self) -> Result<String, DecodeError> {
        String::from_utf8(self.get_bytes()?).map_err(|_| DecodeError::InvalidUtf8)
    }

    pub fn get_digest(&mut self) -> Result<Digest, DecodeError> {
        Ok(Digest(self.take_array::<DIGEST_LEN>()?))
    }

    pub fn get_raw(&mut self, n: usize) -> Result<Vec<u8>, DecodeError> {
        Ok(self.take(n)?.to_vec())
    }

    /// Bounds an element count read from the input by what is left of it:
    /// `count` elements of at least `min_elem_len` encoded bytes each must
    /// still fit. Every decoder that allocates for a count calls this
    /// first, so a forged prefix costs an error, not an allocation.
    #[inline]
    pub fn bounded_count(&self, count: u64, min_elem_len: usize) -> Result<usize, DecodeError> {
        match usize::try_from(count) {
            Ok(n) if n <= self.remaining() / min_elem_len.max(1) => Ok(n),
            _ => Err(DecodeError::LengthOverflow),
        }
    }

    pub fn get_seq<T: Decode>(&mut self) -> Result<Vec<T>, DecodeError> {
        let len = self.get_u64()?;
        // Each element needs at least one byte.
        let len = self.bounded_count(len, 1)?;
        let mut out = Vec::with_capacity(len);
        for _ in 0..len {
            out.push(T::decode(self)?);
        }
        Ok(out)
    }

    pub fn get_option<T: Decode>(&mut self) -> Result<Option<T>, DecodeError> {
        match self.get_u8()? {
            0 => Ok(None),
            1 => Ok(Some(T::decode(self)?)),
            t => Err(DecodeError::InvalidTag(t)),
        }
    }

    /// Asserts that the whole input was consumed.
    pub fn expect_end(&self) -> Result<(), DecodeError> {
        if self.remaining() == 0 {
            Ok(())
        } else {
            Err(DecodeError::TrailingBytes)
        }
    }
}

/// Types with a canonical binary encoding.
pub trait Encode {
    /// Writes the canonical encoding of `self`.
    fn encode(&self, enc: &mut Encoder);

    /// Convenience: encodes into a fresh buffer.
    fn to_bytes(&self) -> Vec<u8> {
        let mut enc = Encoder::new();
        self.encode(&mut enc);
        enc.finish()
    }

    /// Canonical content hash: `sha256(encode(self))`.
    fn content_hash(&self) -> Digest {
        sha256(&self.to_bytes())
    }
}

/// Types decodable from the canonical encoding.
pub trait Decode: Sized {
    /// Reads one value from the cursor.
    fn decode(dec: &mut Decoder<'_>) -> Result<Self, DecodeError>;

    /// Convenience: decodes a full buffer, rejecting trailing bytes.
    fn from_bytes(bytes: &[u8]) -> Result<Self, DecodeError> {
        let mut dec = Decoder::new(bytes);
        let v = Self::decode(&mut dec)?;
        dec.expect_end()?;
        Ok(v)
    }
}

// Blanket implementations for primitives used in sequences.

impl Encode for u8 {
    fn encode(&self, enc: &mut Encoder) {
        enc.put_u8(*self);
    }
}
impl Decode for u8 {
    fn decode(dec: &mut Decoder<'_>) -> Result<Self, DecodeError> {
        dec.get_u8()
    }
}

impl Encode for u32 {
    fn encode(&self, enc: &mut Encoder) {
        enc.put_u32(*self);
    }
}
impl Decode for u32 {
    fn decode(dec: &mut Decoder<'_>) -> Result<Self, DecodeError> {
        dec.get_u32()
    }
}

impl Encode for u64 {
    fn encode(&self, enc: &mut Encoder) {
        enc.put_u64(*self);
    }
}
impl Decode for u64 {
    fn decode(dec: &mut Decoder<'_>) -> Result<Self, DecodeError> {
        dec.get_u64()
    }
}

impl Encode for u128 {
    fn encode(&self, enc: &mut Encoder) {
        enc.put_u128(*self);
    }
}
impl Decode for u128 {
    fn decode(dec: &mut Decoder<'_>) -> Result<Self, DecodeError> {
        dec.get_u128()
    }
}

impl Encode for f64 {
    fn encode(&self, enc: &mut Encoder) {
        enc.put_f64(*self);
    }
}
impl Decode for f64 {
    fn decode(dec: &mut Decoder<'_>) -> Result<Self, DecodeError> {
        dec.get_f64()
    }
}

impl Encode for String {
    fn encode(&self, enc: &mut Encoder) {
        enc.put_str(self);
    }
}
impl Decode for String {
    fn decode(dec: &mut Decoder<'_>) -> Result<Self, DecodeError> {
        dec.get_str()
    }
}

impl Encode for Digest {
    fn encode(&self, enc: &mut Encoder) {
        enc.put_digest(self);
    }
}
impl Decode for Digest {
    fn decode(dec: &mut Decoder<'_>) -> Result<Self, DecodeError> {
        dec.get_digest()
    }
}

impl Encode for Vec<u8> {
    fn encode(&self, enc: &mut Encoder) {
        enc.put_bytes(self);
    }
}
impl Decode for Vec<u8> {
    fn decode(dec: &mut Decoder<'_>) -> Result<Self, DecodeError> {
        dec.get_bytes()
    }
}

impl<T: Encode> Encode for Option<T> {
    fn encode(&self, enc: &mut Encoder) {
        enc.put_option(self);
    }
}
impl<T: Decode> Decode for Option<T> {
    fn decode(dec: &mut Decoder<'_>) -> Result<Self, DecodeError> {
        dec.get_option()
    }
}

impl crate::bigint::BigUint {
    /// Encodes as a length-prefixed big-endian byte string.
    pub fn encode_into(&self, enc: &mut Encoder) {
        enc.put_bytes(&self.to_bytes_be());
    }

    /// Decodes from a length-prefixed big-endian byte string.
    pub fn decode_from(dec: &mut Decoder<'_>) -> Result<Self, DecodeError> {
        Ok(Self::from_bytes_be(&dec.get_bytes()?))
    }
}

impl Encode for crate::bigint::BigUint {
    fn encode(&self, enc: &mut Encoder) {
        self.encode_into(enc);
    }
}
impl Decode for crate::bigint::BigUint {
    fn decode(dec: &mut Decoder<'_>) -> Result<Self, DecodeError> {
        Self::decode_from(dec)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::bigint::BigUint;

    #[test]
    fn primitive_roundtrips() {
        let mut enc = Encoder::new();
        enc.put_u8(7);
        enc.put_bool(true);
        enc.put_u32(0xdeadbeef);
        enc.put_u64(u64::MAX);
        enc.put_u128(u128::MAX - 5);
        enc.put_f64(3.25);
        enc.put_bytes(b"hello");
        enc.put_str("wörld");
        let bytes = enc.finish();
        let mut dec = Decoder::new(&bytes);
        assert_eq!(dec.get_u8().unwrap(), 7);
        assert!(dec.get_bool().unwrap());
        assert_eq!(dec.get_u32().unwrap(), 0xdeadbeef);
        assert_eq!(dec.get_u64().unwrap(), u64::MAX);
        assert_eq!(dec.get_u128().unwrap(), u128::MAX - 5);
        assert_eq!(dec.get_f64().unwrap(), 3.25);
        assert_eq!(dec.get_bytes().unwrap(), b"hello");
        assert_eq!(dec.get_str().unwrap(), "wörld");
        dec.expect_end().unwrap();
    }

    #[test]
    fn seq_and_option() {
        let mut enc = Encoder::new();
        enc.put_seq(&[1u64, 2, 3]);
        enc.put_option(&Some(9u32));
        enc.put_option::<u32>(&None);
        let bytes = enc.finish();
        let mut dec = Decoder::new(&bytes);
        assert_eq!(dec.get_seq::<u64>().unwrap(), vec![1, 2, 3]);
        assert_eq!(dec.get_option::<u32>().unwrap(), Some(9));
        assert_eq!(dec.get_option::<u32>().unwrap(), None);
    }

    #[test]
    fn errors() {
        let mut dec = Decoder::new(&[]);
        assert_eq!(dec.get_u8(), Err(DecodeError::UnexpectedEnd));

        // Length prefix beyond input.
        let mut enc = Encoder::new();
        enc.put_u64(1000);
        let bytes = enc.finish();
        let mut dec = Decoder::new(&bytes);
        assert_eq!(dec.get_bytes(), Err(DecodeError::LengthOverflow));

        // Bad option tag.
        let mut dec = Decoder::new(&[2]);
        assert_eq!(dec.get_option::<u8>(), Err(DecodeError::InvalidTag(2)));

        // Bad bool.
        let mut dec = Decoder::new(&[9]);
        assert_eq!(dec.get_bool(), Err(DecodeError::InvalidTag(9)));

        // Trailing bytes.
        let dec = Decoder::new(&[1]);
        assert_eq!(dec.expect_end(), Err(DecodeError::TrailingBytes));
    }

    #[test]
    fn bounded_count_limits_elements_to_remaining_input() {
        let dec = Decoder::new(&[0u8; 24]);
        assert_eq!(dec.bounded_count(3, 8), Ok(3));
        assert_eq!(dec.bounded_count(4, 8), Err(DecodeError::LengthOverflow));
        assert_eq!(dec.bounded_count(24, 0), Ok(24), "no element is free");
        assert_eq!(dec.bounded_count(25, 0), Err(DecodeError::LengthOverflow));
        assert_eq!(dec.bounded_count(0, usize::MAX), Ok(0));
        assert_eq!(
            dec.bounded_count(u64::MAX, 1),
            Err(DecodeError::LengthOverflow)
        );
        // A sequence prefix is checked before it is allocated for.
        let mut enc = Encoder::new();
        enc.put_u64(1 << 60);
        let bytes = enc.finish();
        assert_eq!(
            Decoder::new(&bytes).get_seq::<u64>(),
            Err(DecodeError::LengthOverflow)
        );
    }

    #[test]
    fn invalid_utf8() {
        let mut enc = Encoder::new();
        enc.put_bytes(&[0xff, 0xfe]);
        let bytes = enc.finish();
        let mut dec = Decoder::new(&bytes);
        assert_eq!(dec.get_str(), Err(DecodeError::InvalidUtf8));
    }

    #[test]
    fn biguint_roundtrip() {
        let v = BigUint::from_hex("deadbeef00112233445566778899aabbccddeeff").unwrap();
        let bytes = v.to_bytes();
        assert_eq!(BigUint::from_bytes(&bytes).unwrap(), v);
        assert_eq!(
            BigUint::from_bytes(&BigUint::zero().to_bytes()).unwrap(),
            BigUint::zero()
        );
    }

    #[test]
    fn content_hash_is_deterministic() {
        let a = vec![1u8, 2, 3];
        let b = vec![1u8, 2, 3];
        assert_eq!(a.content_hash(), b.content_hash());
        assert_ne!(a.content_hash(), vec![1u8, 2, 4].content_hash());
    }

    #[test]
    fn encoding_is_canonical_across_chunking() {
        // Same logical value always encodes to identical bytes.
        let mut e1 = Encoder::new();
        e1.put_seq(&[10u32, 20, 30]);
        let mut e2 = Encoder::new();
        e2.put_seq(&[10u32, 20, 30]);
        assert_eq!(e1.finish(), e2.finish());
    }
}
