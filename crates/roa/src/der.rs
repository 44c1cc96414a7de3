//! A minimal ASN.1 DER codec — just the subset the RPKI ROA profile needs.
//!
//! DER (Distinguished Encoding Rules, X.690) is TLV-structured:
//! a one-byte tag, a definite length, and the contents. This module
//! implements the five universal types used by RFC 6482
//! (`RouteOriginAttestation`) plus context-specific constructed tags, with
//! strict DER checks on decode: minimal length encodings, minimal integer
//! encodings, and no trailing garbage.
//!
//! Decoding is TLV parsing over the workspace's one byte cursor,
//! [`ReadCursor`], under one rule: **one check per TLV part**. The tag
//! and first length byte are checked once, the long-form length octets
//! once, the contents once; each checked part is then read with no
//! further checks (the [cursor invariants](crate::cursor)). Encoding
//! appends to a growable buffer ([`Writer`]): it has no read position.
//!
//! ```
//! use rpki_roa::cursor::ReadCursor;
//! use rpki_roa::der::Writer;
//!
//! let mut w = Writer::new();
//! w.write_sequence(|w| {
//!     w.write_u32(31283);
//!     w.write_octet_string(&[0, 1]);
//! });
//! let bytes = w.into_bytes();
//!
//! let mut r = ReadCursor::new(&bytes);
//! r.read_sequence(|r| {
//!     assert_eq!(r.read_unsigned_u32()?, 31283);
//!     assert_eq!(r.read_octet_string()?, &[0, 1]);
//!     Ok(())
//! }).unwrap();
//! ```

use std::fmt;

use crate::cursor::ReadCursor;

/// ASN.1 tag bytes for the types used by the ROA profile.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Tag(pub u8);

impl Tag {
    /// Universal INTEGER (0x02).
    pub const INTEGER: Tag = Tag(0x02);
    /// Universal BIT STRING (0x03).
    pub const BIT_STRING: Tag = Tag(0x03);
    /// Universal OCTET STRING (0x04).
    pub const OCTET_STRING: Tag = Tag(0x04);
    /// Universal SEQUENCE / SEQUENCE OF (constructed, 0x30).
    pub const SEQUENCE: Tag = Tag(0x30);
    /// Context-specific constructed tag `[0]` (0xA0).
    pub const CTX_0: Tag = Tag(0xA0);
}

impl fmt::Display for Tag {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "0x{:02X}", self.0)
    }
}

/// Errors raised by strict DER decoding.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum DerError {
    /// Input ended before a complete TLV.
    Truncated,
    /// A different tag was required at this position.
    UnexpectedTag {
        /// The tag the caller demanded.
        expected: Tag,
        /// The tag actually present.
        found: Tag,
    },
    /// The length octets violate DER (non-minimal or reserved form).
    BadLength,
    /// An INTEGER was not minimally encoded or does not fit the target type.
    BadInteger,
    /// A BIT STRING had an invalid unused-bits count.
    BadBitString,
    /// Bytes remained after the outermost value was read.
    TrailingBytes,
    /// The contents were structurally valid DER but semantically wrong for
    /// the profile being decoded.
    BadValue(&'static str),
}

impl fmt::Display for DerError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            DerError::Truncated => write!(f, "DER input truncated"),
            DerError::UnexpectedTag { expected, found } => {
                write!(f, "expected tag {expected}, found {found}")
            }
            DerError::BadLength => write!(f, "invalid DER length encoding"),
            DerError::BadInteger => write!(f, "invalid DER integer"),
            DerError::BadBitString => write!(f, "invalid DER bit string"),
            DerError::TrailingBytes => write!(f, "trailing bytes after DER value"),
            DerError::BadValue(what) => write!(f, "invalid value: {what}"),
        }
    }
}

impl std::error::Error for DerError {}

/// Serializes DER values into a growable buffer.
///
/// Nested constructed types take a closure; the writer buffers the inner
/// contents and prepends the definite length afterwards.
#[derive(Debug, Default)]
pub struct Writer {
    buf: Vec<u8>,
}

impl Writer {
    /// Creates an empty writer.
    pub fn new() -> Writer {
        Writer::default()
    }

    /// The encoded bytes.
    pub fn into_bytes(self) -> Vec<u8> {
        self.buf
    }

    /// Writes a TLV with raw contents.
    pub fn write_raw(&mut self, tag: Tag, contents: &[u8]) {
        self.buf.push(tag.0);
        Self::push_len(&mut self.buf, contents.len());
        self.buf.extend_from_slice(contents);
    }

    /// Writes an INTEGER holding an unsigned 32-bit value.
    pub fn write_u32(&mut self, value: u32) {
        self.write_unsigned(value as u64);
    }

    /// Writes an INTEGER holding an unsigned value with minimal contents.
    pub fn write_unsigned(&mut self, value: u64) {
        let mut be = [0u8; 9];
        be[1..].copy_from_slice(&value.to_be_bytes());
        // Drop leading zero octets, but keep the one before a high bit:
        // it holds the sign.
        let start = (0..8)
            .find(|&i| be[i] != 0 || be[i + 1] & 0x80 != 0)
            .unwrap_or(8);
        self.write_raw(Tag::INTEGER, &be[start..]);
    }

    /// Writes an OCTET STRING.
    pub fn write_octet_string(&mut self, contents: &[u8]) {
        self.write_raw(Tag::OCTET_STRING, contents);
    }

    /// Writes a BIT STRING with `bit_len` significant bits taken from
    /// `bytes` (which must hold at least `ceil(bit_len / 8)` bytes).
    /// Trailing unused bits are zeroed, as DER requires.
    pub fn write_bit_string(&mut self, bytes: &[u8], bit_len: usize) {
        let byte_len = bit_len.div_ceil(8);
        assert!(bytes.len() >= byte_len, "bit string source too short");
        let unused = (byte_len * 8 - bit_len) as u8;
        let mut contents = Vec::with_capacity(byte_len + 1);
        contents.push(unused);
        contents.extend_from_slice(&bytes[..byte_len]);
        // With no unused bits the mask is 0xFF, so the count byte itself
        // is never touched.
        if let Some(last) = contents.last_mut() {
            *last &= 0xFFu8 << unused;
        }
        self.write_raw(Tag::BIT_STRING, &contents);
    }

    /// Writes a SEQUENCE whose contents are produced by `f`.
    pub fn write_sequence(&mut self, f: impl FnOnce(&mut Writer)) {
        self.write_constructed(Tag::SEQUENCE, f);
    }

    /// Writes any constructed TLV whose contents are produced by `f`.
    pub fn write_constructed(&mut self, tag: Tag, f: impl FnOnce(&mut Writer)) {
        let mut inner = Writer::new();
        f(&mut inner);
        self.write_raw(tag, &inner.buf);
    }

    fn push_len(buf: &mut Vec<u8>, len: usize) {
        if len < 0x80 {
            buf.push(len as u8);
        } else {
            let be = (len as u64).to_be_bytes();
            let start = (len as u64).leading_zeros() as usize / 8;
            buf.push(0x80 | (8 - start) as u8);
            buf.extend_from_slice(&be[start..]);
        }
    }
}

/// Strict DER reading, as TLV parsing over the shared [`ReadCursor`]:
/// each part of a TLV is checked once against
/// [`remaining`](ReadCursor::remaining) and then read with no further
/// checks (see the module docs).
impl<'a> ReadCursor<'a> {
    /// Fails unless all input has been consumed (DER forbids trailing
    /// bytes).
    pub fn expect_end(&self) -> Result<(), DerError> {
        if self.is_empty() {
            Ok(())
        } else {
            Err(DerError::TrailingBytes)
        }
    }

    /// Peeks the tag of the next TLV without consuming it.
    pub fn peek_tag(&self) -> Option<Tag> {
        let mut probe = *self;
        (!probe.is_empty()).then(|| Tag(probe.read_u8()))
    }

    /// Reads the next TLV, returning its tag and contents.
    pub fn read_tlv(&mut self) -> Result<(Tag, &'a [u8]), DerError> {
        need(self, 2)?;
        let tag = Tag(self.read_u8());
        let len = match self.read_u8() {
            short @ 0..=0x7F => short as usize,
            // 0x80 is the indefinite form, 0x89.. would not fit a u64 and
            // 0xFF is reserved: none of them is DER.
            first @ 0x81..=0x88 => {
                let octets = (first & 0x7F) as usize;
                need(self, octets)?;
                let octets = self.read_slice(octets);
                // At most eight octets, so the fold cannot overflow.
                let len = octets.iter().fold(0u64, |len, &b| len << 8 | b as u64);
                // A leading zero octet, or a value the short form holds,
                // is a non-minimal encoding.
                if octets[0] == 0 || len < 0x80 {
                    return Err(DerError::BadLength);
                }
                usize::try_from(len).map_err(|_| DerError::BadLength)?
            }
            _ => return Err(DerError::BadLength),
        };
        need(self, len)?;
        Ok((tag, self.read_slice(len)))
    }

    /// Reads the next TLV, demanding a specific tag.
    pub fn read_expect(&mut self, expected: Tag) -> Result<&'a [u8], DerError> {
        match self.peek_tag() {
            Some(found) if found != expected => Err(DerError::UnexpectedTag { expected, found }),
            _ => Ok(self.read_tlv()?.1),
        }
    }

    /// Reads an INTEGER as an unsigned 64-bit value, enforcing minimal
    /// encoding and non-negativity.
    pub fn read_unsigned(&mut self) -> Result<u64, DerError> {
        let contents = self.read_expect(Tag::INTEGER)?;
        decode_unsigned(contents)
    }

    /// Reads an INTEGER as an unsigned 32-bit value.
    pub fn read_unsigned_u32(&mut self) -> Result<u32, DerError> {
        let v = self.read_unsigned()?;
        u32::try_from(v).map_err(|_| DerError::BadInteger)
    }

    /// Borrows an OCTET STRING's contents.
    pub fn read_octet_string(&mut self) -> Result<&'a [u8], DerError> {
        self.read_expect(Tag::OCTET_STRING)
    }

    /// Reads a BIT STRING, borrowing `(bytes, bit_len)`. Verifies the
    /// unused-bit count and that unused bits are zero (DER).
    pub fn read_bit_string(&mut self) -> Result<(&'a [u8], usize), DerError> {
        let contents = self.read_expect(Tag::BIT_STRING)?;
        let (&unused, body) = contents.split_first().ok_or(DerError::BadBitString)?;
        let clean = match body.last() {
            _ if unused > 7 => false,
            None => unused == 0,
            Some(&last) => last & ((1u8 << unused) - 1) == 0,
        };
        if !clean {
            return Err(DerError::BadBitString);
        }
        Ok((body, body.len() * 8 - unused as usize))
    }

    /// Reads a SEQUENCE and hands a cursor over its contents to `f`.
    /// The inner cursor must be fully consumed.
    pub fn read_sequence<T>(
        &mut self,
        f: impl FnOnce(&mut ReadCursor<'a>) -> Result<T, DerError>,
    ) -> Result<T, DerError> {
        self.read_constructed(Tag::SEQUENCE, f)
    }

    /// Reads any constructed TLV with the demanded tag; `f` must consume
    /// the contents entirely.
    pub fn read_constructed<T>(
        &mut self,
        tag: Tag,
        f: impl FnOnce(&mut ReadCursor<'a>) -> Result<T, DerError>,
    ) -> Result<T, DerError> {
        let mut inner = ReadCursor::new(self.read_expect(tag)?);
        let out = f(&mut inner)?;
        inner.expect_end()?;
        Ok(out)
    }
}

/// The one check of a TLV part: `n` more bytes must be present.
fn need(cursor: &ReadCursor<'_>, n: usize) -> Result<(), DerError> {
    if cursor.remaining() < n {
        return Err(DerError::Truncated);
    }
    Ok(())
}

fn decode_unsigned(contents: &[u8]) -> Result<u64, DerError> {
    let body = match contents {
        [] => return Err(DerError::BadInteger),
        [b, ..] if b & 0x80 != 0 => return Err(DerError::BadInteger), // negative
        [0, b, ..] if b & 0x80 == 0 => return Err(DerError::BadInteger), // non-minimal
        [0, rest @ ..] => rest, // zero, or a sign-padding octet
        _ => contents,
    };
    if body.len() > 8 {
        return Err(DerError::BadInteger);
    }
    Ok(body.iter().fold(0u64, |v, &b| v << 8 | b as u64))
}

#[cfg(test)]
mod tests {
    use super::*;

    fn encode_u32(v: u32) -> Vec<u8> {
        let mut w = Writer::new();
        w.write_u32(v);
        w.into_bytes()
    }

    #[test]
    fn integer_known_vectors() {
        assert_eq!(encode_u32(0), [0x02, 0x01, 0x00]);
        assert_eq!(encode_u32(127), [0x02, 0x01, 0x7F]);
        // 128 needs a sign-padding zero.
        assert_eq!(encode_u32(128), [0x02, 0x02, 0x00, 0x80]);
        assert_eq!(encode_u32(256), [0x02, 0x02, 0x01, 0x00]);
        assert_eq!(
            encode_u32(u32::MAX),
            [0x02, 0x05, 0x00, 0xFF, 0xFF, 0xFF, 0xFF]
        );
    }

    #[test]
    fn integer_round_trip() {
        for v in [
            0u32,
            1,
            42,
            127,
            128,
            255,
            256,
            31283,
            65535,
            1 << 24,
            u32::MAX,
        ] {
            let bytes = encode_u32(v);
            let mut r = ReadCursor::new(&bytes);
            assert_eq!(r.read_unsigned_u32().unwrap(), v, "value {v}");
            assert!(r.is_empty());
        }
    }

    #[test]
    fn unsigned_64_round_trip() {
        for v in [0u64, u32::MAX as u64 + 1, u64::MAX, 1 << 63] {
            let mut w = Writer::new();
            w.write_unsigned(v);
            let bytes = w.into_bytes();
            let mut r = ReadCursor::new(&bytes);
            assert_eq!(r.read_unsigned().unwrap(), v);
        }
    }

    #[test]
    fn integer_rejects_negative_and_non_minimal() {
        // Negative (high bit set).
        let mut r = ReadCursor::new(&[0x02, 0x01, 0x80]);
        assert_eq!(r.read_unsigned(), Err(DerError::BadInteger));
        // Non-minimal 0x00 0x7F.
        let mut r = ReadCursor::new(&[0x02, 0x02, 0x00, 0x7F]);
        assert_eq!(r.read_unsigned(), Err(DerError::BadInteger));
        // Empty contents.
        let mut r = ReadCursor::new(&[0x02, 0x00]);
        assert_eq!(r.read_unsigned(), Err(DerError::BadInteger));
        // Too wide for u32.
        let mut r = ReadCursor::new(&[0x02, 0x05, 0x01, 0, 0, 0, 0]);
        assert_eq!(r.read_unsigned_u32(), Err(DerError::BadInteger));
    }

    #[test]
    fn long_form_length() {
        let contents = vec![0xAB; 200];
        let mut w = Writer::new();
        w.write_octet_string(&contents);
        let bytes = w.into_bytes();
        assert_eq!(&bytes[..3], &[0x04, 0x81, 200]);
        let mut r = ReadCursor::new(&bytes);
        assert_eq!(r.read_octet_string().unwrap(), contents);
    }

    #[test]
    fn length_rejects_non_der_forms() {
        // Indefinite length.
        let mut r = ReadCursor::new(&[0x04, 0x80, 0x00, 0x00]);
        assert_eq!(r.read_tlv().unwrap_err(), DerError::BadLength);
        // Long form used for a short value.
        let mut r = ReadCursor::new(&[0x04, 0x81, 0x05, 1, 2, 3, 4, 5]);
        assert_eq!(r.read_tlv().unwrap_err(), DerError::BadLength);
        // Leading zero in long-form length.
        let mut r = ReadCursor::new(&[0x04, 0x82, 0x00, 0x85]);
        assert_eq!(r.read_tlv().unwrap_err(), DerError::BadLength);
    }

    #[test]
    fn truncation_detected() {
        let mut w = Writer::new();
        w.write_sequence(|w| w.write_u32(31283));
        let bytes = w.into_bytes();
        for cut in 0..bytes.len() {
            let mut r = ReadCursor::new(&bytes[..cut]);
            let res = r.read_sequence(|r| r.read_unsigned_u32());
            assert!(res.is_err(), "cut at {cut} must fail");
        }
    }

    #[test]
    fn bit_string_round_trip() {
        // 19 significant bits: 87.254.32.0/19's address bytes.
        let addr = [87u8, 254, 32];
        let mut w = Writer::new();
        w.write_bit_string(&addr, 19);
        let bytes = w.into_bytes();
        // 0x03, len 4, unused=5, 3 content bytes.
        assert_eq!(bytes[0], 0x03);
        assert_eq!(bytes[2], 5);
        let mut r = ReadCursor::new(&bytes);
        let (body, bit_len) = r.read_bit_string().unwrap();
        assert_eq!(bit_len, 19);
        assert_eq!(body, addr);
    }

    #[test]
    fn bit_string_zeroes_unused_bits() {
        // Source with dirty trailing bits must be masked on write.
        let mut w = Writer::new();
        w.write_bit_string(&[0xFF], 3);
        let bytes = w.into_bytes();
        assert_eq!(bytes, [0x03, 0x02, 0x05, 0xE0]);
    }

    #[test]
    fn bit_string_rejects_dirty_unused_bits() {
        // unused=5 but low bits set.
        let mut r = ReadCursor::new(&[0x03, 0x02, 0x05, 0xFF]);
        assert_eq!(r.read_bit_string(), Err(DerError::BadBitString));
        // unused > 7.
        let mut r = ReadCursor::new(&[0x03, 0x02, 0x08, 0x00]);
        assert_eq!(r.read_bit_string(), Err(DerError::BadBitString));
        // Empty body with nonzero unused count.
        let mut r = ReadCursor::new(&[0x03, 0x01, 0x03]);
        assert_eq!(r.read_bit_string(), Err(DerError::BadBitString));
    }

    #[test]
    fn empty_bit_string() {
        let mut w = Writer::new();
        w.write_bit_string(&[], 0);
        let bytes = w.into_bytes();
        assert_eq!(bytes, [0x03, 0x01, 0x00]);
        let mut r = ReadCursor::new(&bytes);
        let (body, bit_len) = r.read_bit_string().unwrap();
        assert!(body.is_empty());
        assert_eq!(bit_len, 0);
    }

    #[test]
    fn nested_sequences() {
        let mut w = Writer::new();
        w.write_sequence(|w| {
            w.write_u32(1);
            w.write_sequence(|w| {
                w.write_u32(2);
                w.write_u32(3);
            });
        });
        let bytes = w.into_bytes();
        let mut r = ReadCursor::new(&bytes);
        let (a, b, c) = r
            .read_sequence(|r| {
                let a = r.read_unsigned_u32()?;
                let (b, c) =
                    r.read_sequence(|r| Ok((r.read_unsigned_u32()?, r.read_unsigned_u32()?)))?;
                Ok((a, b, c))
            })
            .unwrap();
        assert_eq!((a, b, c), (1, 2, 3));
        assert!(r.is_empty());
    }

    #[test]
    fn sequence_rejects_inner_trailing() {
        let mut w = Writer::new();
        w.write_sequence(|w| {
            w.write_u32(1);
            w.write_u32(2);
        });
        let bytes = w.into_bytes();
        let mut r = ReadCursor::new(&bytes);
        // Only consume one integer: must flag trailing bytes.
        let res = r.read_sequence(|r| r.read_unsigned_u32());
        assert_eq!(res.unwrap_err(), DerError::TrailingBytes);
    }

    #[test]
    fn unexpected_tag_reported() {
        let bytes = encode_u32(5);
        let mut r = ReadCursor::new(&bytes);
        let err = r.read_octet_string().unwrap_err();
        assert_eq!(
            err,
            DerError::UnexpectedTag {
                expected: Tag::OCTET_STRING,
                found: Tag::INTEGER
            }
        );
    }

    #[test]
    fn context_tag_round_trip() {
        let mut w = Writer::new();
        w.write_constructed(Tag::CTX_0, |w| w.write_u32(0));
        let bytes = w.into_bytes();
        assert_eq!(bytes[0], 0xA0);
        let mut r = ReadCursor::new(&bytes);
        let v = r
            .read_constructed(Tag::CTX_0, |r| r.read_unsigned_u32())
            .unwrap();
        assert_eq!(v, 0);
    }

    #[test]
    fn peek_does_not_consume() {
        let bytes = encode_u32(7);
        let mut r = ReadCursor::new(&bytes);
        assert_eq!(r.peek_tag(), Some(Tag::INTEGER));
        assert_eq!(r.peek_tag(), Some(Tag::INTEGER));
        assert_eq!(r.read_unsigned_u32().unwrap(), 7);
        assert_eq!(r.peek_tag(), None);
    }
}
