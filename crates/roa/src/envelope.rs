//! A mock signed-object envelope standing in for the RPKI CMS wrapping.
//!
//! Real ROAs travel inside a CMS `SignedData` structure (RFC 6488) with an
//! X.509 resource certificate chain. Everything this workspace measures
//! happens strictly *after* a relying party has cryptographically validated
//! that envelope (paper §7.1: `scan_roas` runs on
//! "cryptographically-validated ROAs"), so the envelope here replaces the
//! crypto with a deterministic integrity check: a 64-bit FNV-1a digest
//! plays the role of the signature. Corrupted objects are rejected exactly
//! where invalidly-signed ROAs would be, exercising the same error paths
//! in the pipeline.
//!
//! Wire layout (all integers big-endian):
//!
//! ```text
//! +---------+---------+----------------+-------------------+---------+
//! | "RPKI-M"| version | payload length | FNV-1a-64 digest  | payload |
//! | 6 bytes | 1 byte  | u32            | u64               | DER     |
//! +---------+---------+----------------+-------------------+---------+
//! ```
//!
//! The payload is exactly `payload length` bytes and ends the object.

use std::cmp::Ordering;
use std::fmt;

use crate::codec::{decode_roa, encode_roa};
use crate::cursor::ReadCursor;
use crate::der::DerError;
use crate::Roa;

const MAGIC: &[u8; 6] = b"RPKI-M";
const VERSION: u8 = 1;
const HEADER_LEN: usize = 6 + 1 + 4 + 8;

/// Errors opening a mock signed object.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum EnvelopeError {
    /// The magic bytes are absent — not one of our objects.
    BadMagic,
    /// An envelope version this implementation does not understand.
    BadVersion(u8),
    /// The object ends before the declared payload length.
    Truncated,
    /// Bytes follow the declared payload.
    TrailingBytes,
    /// The digest does not match the payload — the stand-in for a bad
    /// signature.
    DigestMismatch,
    /// The payload is not a valid `RouteOriginAttestation`.
    Content(DerError),
}

impl fmt::Display for EnvelopeError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            EnvelopeError::BadMagic => write!(f, "not a mock RPKI signed object"),
            EnvelopeError::BadVersion(v) => write!(f, "unsupported envelope version {v}"),
            EnvelopeError::Truncated => write!(f, "signed object truncated"),
            EnvelopeError::TrailingBytes => write!(f, "bytes after the signed payload"),
            EnvelopeError::DigestMismatch => {
                write!(f, "digest mismatch (signature validation failed)")
            }
            EnvelopeError::Content(e) => write!(f, "invalid ROA content: {e}"),
        }
    }
}

impl std::error::Error for EnvelopeError {}

impl From<DerError> for EnvelopeError {
    fn from(e: DerError) -> Self {
        EnvelopeError::Content(e)
    }
}

/// "Signs" a ROA: encodes its eContent as DER and wraps it in the mock
/// envelope.
pub fn seal_roa(roa: &Roa) -> Vec<u8> {
    let payload = encode_roa(roa);
    let mut out = Vec::with_capacity(HEADER_LEN + payload.len());
    out.extend_from_slice(MAGIC);
    out.push(VERSION);
    out.extend_from_slice(&(payload.len() as u32).to_be_bytes());
    out.extend_from_slice(&fnv1a64(&payload).to_be_bytes());
    out.extend_from_slice(&payload);
    out
}

/// "Validates" a mock signed object and extracts the ROA, rejecting
/// structural corruption the way a relying party rejects bad signatures.
///
/// The 19-byte header is one checked fixed part of a [`ReadCursor`]; the
/// payload must fill the rest of the object exactly, so no two different
/// files open to the same ROA.
pub fn open_roa(data: &[u8]) -> Result<Roa, EnvelopeError> {
    let mut src = ReadCursor::new(data);
    if src.remaining() < HEADER_LEN {
        return Err(EnvelopeError::Truncated);
    }
    if src.read_array() != *MAGIC {
        return Err(EnvelopeError::BadMagic);
    }
    let version = src.read_u8();
    if version != VERSION {
        return Err(EnvelopeError::BadVersion(version));
    }
    let len = src.read_u32() as usize;
    let digest = src.read_u64();
    match src.remaining().cmp(&len) {
        Ordering::Less => return Err(EnvelopeError::Truncated),
        Ordering::Greater => return Err(EnvelopeError::TrailingBytes),
        Ordering::Equal => {}
    }
    let payload = src.read_slice(len);
    if fnv1a64(payload) != digest {
        return Err(EnvelopeError::DigestMismatch);
    }
    Ok(decode_roa(payload)?)
}

/// FNV-1a, 64-bit: small, deterministic, good-enough dispersion for an
/// integrity stand-in (explicitly NOT cryptographic).
fn fnv1a64(data: &[u8]) -> u64 {
    let mut hash = 0xcbf2_9ce4_8422_2325u64;
    for &b in data {
        hash ^= b as u64;
        hash = hash.wrapping_mul(0x100_0000_01b3);
    }
    hash
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{Asn, RoaPrefix};
    use rpki_prefix::Prefix;

    fn sample_roa() -> Roa {
        Roa::new(
            Asn(111),
            vec![RoaPrefix::with_max_len(
                "168.122.0.0/16".parse::<Prefix>().unwrap(),
                24,
            )],
        )
        .unwrap()
    }

    #[test]
    fn seal_open_round_trip() {
        let roa = sample_roa();
        let sealed = seal_roa(&roa);
        assert_eq!(open_roa(&sealed).unwrap(), roa);
    }

    #[test]
    fn rejects_wrong_magic() {
        let mut sealed = seal_roa(&sample_roa());
        sealed[0] = b'X';
        assert_eq!(open_roa(&sealed), Err(EnvelopeError::BadMagic));
    }

    #[test]
    fn rejects_wrong_version() {
        let mut sealed = seal_roa(&sample_roa());
        sealed[6] = 9;
        assert_eq!(open_roa(&sealed), Err(EnvelopeError::BadVersion(9)));
    }

    #[test]
    fn rejects_payload_corruption() {
        let mut sealed = seal_roa(&sample_roa());
        let last = sealed.len() - 1;
        sealed[last] ^= 0x01;
        assert_eq!(open_roa(&sealed), Err(EnvelopeError::DigestMismatch));
    }

    #[test]
    fn rejects_digest_corruption() {
        let mut sealed = seal_roa(&sample_roa());
        sealed[12] ^= 0xFF;
        assert_eq!(open_roa(&sealed), Err(EnvelopeError::DigestMismatch));
    }

    #[test]
    fn rejects_truncation() {
        let sealed = seal_roa(&sample_roa());
        for cut in 0..sealed.len() {
            let res = open_roa(&sealed[..cut]);
            assert!(res.is_err(), "cut at {cut}");
        }
    }

    #[test]
    fn rejects_trailing_bytes() {
        let mut sealed = seal_roa(&sample_roa());
        sealed.extend_from_slice(b"junk");
        assert_eq!(open_roa(&sealed), Err(EnvelopeError::TrailingBytes));
    }

    #[test]
    fn empty_input() {
        assert_eq!(open_roa(&[]), Err(EnvelopeError::Truncated));
    }
}
