//! Zero-copy wire layer for the rpki-rtr protocol (RFC 6810 / RFC 8210).
//!
//! This module is the single codec for every PDU that crosses a
//! transport: the borrowed PDU view, the strict
//! decoder, the versioned encoder, the error taxonomy, and the
//! protocol-version negotiation state machine. Everything else in the
//! crate ([`Pdu`] included) is a consumer.
//!
//! # Wire-format contract
//!
//! Every PDU starts with the common 8-byte header:
//!
//! ```text
//! 0          8          16         24        31
//! +----------+----------+---------------------+
//! | version  | PDU type | session id / zero   |
//! +----------+----------+---------------------+
//! |                length                      |
//! +--------------------------------------------+
//! ```
//!
//! `length` covers the whole PDU including the header and must lie in
//! `8..=65536`. Decoding is **strict and canonical**: a frame is either
//! rejected with a classified [`PduError`], reported incomplete
//! (`Ok(None)`, stream still open), or accepted — and every accepted
//! frame re-encodes **bit-identically** at its own version. There is no
//! third state: no field is silently normalized, truncated, or defaulted
//! (the one documented exception: a v0 End of Data carries no timing on
//! the wire, so its decoded [`Timing`] is RFC 8210's defaults — which is
//! exactly what a v0 re-encode drops again).
//!
//! Strictness the legacy codec lacked (each gap has a regression frame in
//! `tests/corpus/`):
//!
//! * the session-id field of Reset Query, Cache Reset, and the IPv4/IPv6
//!   Prefix PDUs must be zero;
//! * the reserved byte inside IPv4/IPv6 Prefix bodies must be zero;
//! * Error Report length arithmetic is checked exactly
//!   (`8 + 4 + pdu_len + 4 + text_len == length`, overflow-safe);
//! * Error Report text must be valid UTF-8 (borrowed, never lossy);
//! * an Error Report must not encapsulate another Error Report
//!   (RFC 8210 §5.10's "MUST NOT be sent for an Error Report PDU");
//! * the Router Key PDU (type 9, v1-only) is rejected as unsupported on
//!   sessions of either version — this stack does not implement it.
//!
//! # Cursors
//!
//! Frames are read and written with the workspace's one byte cursor,
//! [`rpki_roa::cursor`], under its invariants: `ensure_size!` checks each
//! fixed part once, and decoding a frame never reads past `length`. A
//! Prefix body is one fixed part and nothing else, so it is read as one
//! `&[u8; 12]` or `&[u8; 24]`, and that conversion is its length check.
//!
//! # Error taxonomy
//!
//! | [`PduError`] variant    | RFC error code              | [`ErrorClass`] |
//! |-------------------------|-----------------------------|----------------|
//! | `BadVersion`            | 4 Unsupported Version       | Recoverable    |
//! | `VersionMismatch`       | 8 Unexpected Version        | Fatal          |
//! | `BadType`               | 5 Unsupported PDU Type      | Fatal          |
//! | `BadLength`             | 0 Corrupt Data              | Fatal          |
//! | `NonZeroReserved`       | 0 Corrupt Data              | Fatal          |
//! | `BadFlags`              | 0 Corrupt Data              | Fatal          |
//! | `BadPrefix`             | 0 Corrupt Data              | Fatal          |
//! | `BadMaxLength`          | 0 Corrupt Data              | Fatal          |
//! | `BadErrorCode`          | 0 Corrupt Data              | Fatal          |
//! | `BadText`               | 0 Corrupt Data              | Fatal          |
//! | `NestedErrorReport`     | 0 Corrupt Data              | Fatal          |
//!
//! **Recoverable** means recoverable *per the RFCs' version negotiation*:
//! the current exchange still ends with an Error Report, but the peer may
//! retry the session at a version both sides support (RFC 8210 §7 / RFC
//! 6810 §7). **Fatal** means the session is corrupt and must be torn down
//! with no retry at any version.
//! [`CacheServer::handle_wire`](crate::cache::CacheServer::handle_wire)
//! enforces exactly this split, and `tests/fuzz_props.rs` cross-checks the
//! classification against the teardown behaviour on thousands of mutated
//! frames.
//!
//! # Version negotiation
//!
//! [`Negotiation`] is the per-session state machine:
//!
//! ```text
//!            accept(v), v <= max             accept(w), w == v
//! Unpinned ───────────────────────> Pinned(v) ────────────────> Pinned(v)
//!    │                                  │
//!    │ accept(v), v > max               │ accept(w), w != v
//!    ▼                                  ▼
//!  Err(BadVersion)  [recoverable]    Err(VersionMismatch)  [fatal]
//! ```
//!
//! The first accepted frame pins the session's version (a v1-capable
//! cache downgrades to v0 when the router opens with a v0 query, per RFC
//! 8210 §7); any later frame at a different version is the fatal
//! Unexpected-Version error (code 8). A peer speaking a version above
//! the session's maximum gets the recoverable Unsupported-Version error
//! (code 4) and may retry lower.

use std::fmt;

use rpki_prefix::{Prefix, Prefix4, Prefix6};
use rpki_roa::cursor::{ReadCursor, WriteCursor};
use rpki_roa::{Asn, Vrp};

use crate::pdu::{ErrorCode, Flags, Pdu, Timing, PROTOCOL_V0, PROTOCOL_V1};

/// The common header length shared by every PDU.
pub const HEADER_LEN: usize = 8;

/// The largest `length` field this stack accepts (and therefore the
/// largest frame it will ever produce): 64 KiB, comfortably above the
/// biggest legitimate PDU (a maximal Error Report) and small enough to
/// bound any per-session buffer.
pub const MAX_PDU_LEN: usize = 65_536;

/// Guards one fixed-size read/write region on a cursor: the whole fixed
/// part is checked **once**, after which the individual accessors may
/// advance unchecked (the cursor invariants of [`rpki_roa::cursor`]).
/// Expands to an early `return` with a [`PduError::BadLength`] carrying
/// the offending type and declared length.
macro_rules! ensure_size {
    (in: $cursor:expr, size: $size:expr, type_code: $tc:expr, length: $len:expr) => {
        if $cursor.remaining() != $size {
            return Err(PduError::BadLength {
                type_code: $tc,
                length: $len,
            });
        }
    };
    (min: $cursor:expr, size: $size:expr, type_code: $tc:expr, length: $len:expr) => {
        if $cursor.remaining() < $size {
            return Err(PduError::BadLength {
                type_code: $tc,
                length: $len,
            });
        }
    };
}

/// How a [`PduError`] relates to the life of the session. See the module
/// docs for the full taxonomy table.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ErrorClass {
    /// The exchange failed, but only because of the protocol version:
    /// the peer may retry the session at a version both sides support
    /// (RFC 8210 §7 negotiation).
    Recoverable,
    /// The stream is corrupt or violates the negotiated session; the
    /// session must be torn down and no retry can succeed.
    Fatal,
}

/// Decoding/negotiation errors. Each maps onto the RFC 8210 error code a
/// receiver reports (via Error Report) before closing — see
/// [`PduError::error_code`] — and a session disposition — see
/// [`PduError::class`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum PduError {
    /// Version byte above every version this stack speaks.
    BadVersion(u8),
    /// A frame at a different version than the session negotiated.
    VersionMismatch {
        /// The version the session is pinned to.
        negotiated: u8,
        /// The version the offending frame carried.
        got: u8,
    },
    /// Unknown (or unimplemented, e.g. Router Key) PDU type byte.
    BadType(u8),
    /// Declared length inconsistent with the PDU type.
    BadLength {
        /// The PDU type.
        type_code: u8,
        /// The declared length.
        length: usize,
    },
    /// A field the RFC requires to be zero was not (the session-id slot
    /// of Reset Query / Cache Reset, or the reserved byte in a Prefix
    /// body).
    NonZeroReserved {
        /// The PDU type.
        type_code: u8,
        /// Byte offset of the offending field from the frame start.
        offset: usize,
    },
    /// Flags byte is neither announce nor withdraw.
    BadFlags(u8),
    /// Prefix bits set beyond the prefix length, or length out of range.
    BadPrefix,
    /// maxLength outside `len..=family max`.
    BadMaxLength {
        /// The prefix length.
        len: u8,
        /// The offending maxLength.
        max_len: u8,
    },
    /// Unknown error code in an Error Report.
    BadErrorCode(u16),
    /// Error Report diagnostic text is not valid UTF-8.
    BadText,
    /// An Error Report encapsulating another Error Report (forbidden by
    /// RFC 8210 §5.10).
    NestedErrorReport,
}

impl fmt::Display for PduError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            PduError::BadVersion(v) => write!(f, "unsupported protocol version {v}"),
            PduError::VersionMismatch { negotiated, got } => {
                write!(f, "version {got} on a version-{negotiated} session")
            }
            PduError::BadType(t) => write!(f, "unsupported PDU type {t}"),
            PduError::BadLength { type_code, length } => {
                write!(f, "bad length {length} for PDU type {type_code}")
            }
            PduError::NonZeroReserved { type_code, offset } => {
                write!(
                    f,
                    "non-zero reserved field at offset {offset} in PDU type {type_code}"
                )
            }
            PduError::BadFlags(b) => write!(f, "bad flags byte {b:#x}"),
            PduError::BadPrefix => write!(f, "malformed prefix field"),
            PduError::BadMaxLength { len, max_len } => {
                write!(f, "maxLength {max_len} invalid for /{len}")
            }
            PduError::BadErrorCode(c) => write!(f, "unknown error code {c}"),
            PduError::BadText => write!(f, "error report text is not valid UTF-8"),
            PduError::NestedErrorReport => {
                write!(f, "error report must not encapsulate an error report")
            }
        }
    }
}

impl std::error::Error for PduError {}

impl PduError {
    /// The RFC 8210 error code a receiver should report for this error.
    pub fn error_code(&self) -> ErrorCode {
        match self {
            PduError::BadVersion(_) => ErrorCode::UnsupportedVersion,
            PduError::VersionMismatch { .. } => ErrorCode::UnexpectedVersion,
            PduError::BadType(_) => ErrorCode::UnsupportedPduType,
            _ => ErrorCode::CorruptData,
        }
    }

    /// The session disposition: see the taxonomy table in the module
    /// docs. Only [`PduError::BadVersion`] is recoverable (by retrying
    /// the session at a lower version); everything else is fatal.
    pub fn class(&self) -> ErrorClass {
        match self {
            PduError::BadVersion(_) => ErrorClass::Recoverable,
            _ => ErrorClass::Fatal,
        }
    }
}

/// One PDU decoded **in place**: scalar fields by value, the Error
/// Report payloads as borrowed slices straight out of the transport
/// buffer. Convert with [`PduRef::to_owned`] only when the PDU must
/// outlive the buffer.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum PduRef<'a> {
    /// Type 0: the cache tells routers new data is available.
    SerialNotify {
        /// The cache session.
        session_id: u16,
        /// The cache's latest serial.
        serial: u32,
    },
    /// Type 1: a router asks for deltas since `serial`.
    SerialQuery {
        /// The session the router believes it is in.
        session_id: u16,
        /// The router's current serial.
        serial: u32,
    },
    /// Type 2: a router asks for the complete data set.
    ResetQuery,
    /// Type 3: the cache starts answering a query.
    CacheResponse {
        /// The cache session.
        session_id: u16,
    },
    /// Type 4/6: one VRP, announced or withdrawn.
    Prefix {
        /// Announce or withdraw.
        flags: Flags,
        /// The payload tuple.
        vrp: Vrp,
    },
    /// Type 7: end of a response, carrying the new serial.
    EndOfData {
        /// The cache session.
        session_id: u16,
        /// The serial the router is now synchronized to.
        serial: u32,
        /// v1 timing parameters (RFC 8210 defaults on a v0 wire).
        timing: Timing,
    },
    /// Type 8: the cache cannot serve deltas; the router must reset.
    CacheReset,
    /// Type 10: a protocol error, ending the session.
    ErrorReport {
        /// The RFC 8210 error code.
        code: ErrorCode,
        /// The offending PDU's raw bytes, borrowed from the frame.
        pdu: &'a [u8],
        /// Diagnostic text, borrowed from the frame (strict UTF-8).
        text: &'a str,
    },
}

/// One successfully decoded frame: the borrowed PDU, the protocol
/// version its header carried, and the number of bytes it consumed.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Frame<'a> {
    /// The decoded PDU, borrowing from the input buffer.
    pub pdu: PduRef<'a>,
    /// The version byte of the frame header.
    pub version: u8,
    /// Bytes consumed from the front of the input (== the `length`
    /// field).
    pub len: usize,
}

impl PduRef<'_> {
    /// The PDU type byte.
    pub fn type_code(&self) -> u8 {
        match self {
            PduRef::SerialNotify { .. } => 0,
            PduRef::SerialQuery { .. } => 1,
            PduRef::ResetQuery => 2,
            PduRef::CacheResponse { .. } => 3,
            PduRef::Prefix { vrp, .. } if vrp.prefix.is_v4() => 4,
            PduRef::Prefix { .. } => 6,
            PduRef::EndOfData { .. } => 7,
            PduRef::CacheReset => 8,
            PduRef::ErrorReport { .. } => 10,
        }
    }

    /// Copies the borrowed payloads into an owned [`Pdu`].
    #[inline]
    pub fn to_owned(&self) -> Pdu {
        match *self {
            PduRef::SerialNotify { session_id, serial } => Pdu::SerialNotify { session_id, serial },
            PduRef::SerialQuery { session_id, serial } => Pdu::SerialQuery { session_id, serial },
            PduRef::ResetQuery => Pdu::ResetQuery,
            PduRef::CacheResponse { session_id } => Pdu::CacheResponse { session_id },
            PduRef::Prefix { flags, vrp } => Pdu::Prefix { flags, vrp },
            PduRef::EndOfData {
                session_id,
                serial,
                timing,
            } => Pdu::EndOfData {
                session_id,
                serial,
                timing,
            },
            PduRef::CacheReset => Pdu::CacheReset,
            PduRef::ErrorReport { code, pdu, text } => Pdu::ErrorReport {
                code,
                pdu: pdu.to_vec(),
                text: text.to_owned(),
            },
        }
    }

    /// The exact number of bytes [`PduRef::write`] emits at `version`
    /// (header included).
    pub fn wire_len(&self, version: u8) -> usize {
        match self {
            PduRef::SerialNotify { .. } | PduRef::SerialQuery { .. } => 12,
            PduRef::ResetQuery | PduRef::CacheReset | PduRef::CacheResponse { .. } => 8,
            PduRef::Prefix { vrp, .. } if vrp.prefix.is_v4() => 20,
            PduRef::Prefix { .. } => 32,
            PduRef::EndOfData { .. } if version == PROTOCOL_V0 => 12,
            PduRef::EndOfData { .. } => 24,
            PduRef::ErrorReport { pdu, text, .. } => HEADER_LEN + 4 + pdu.len() + 4 + text.len(),
        }
    }

    /// Encodes the PDU at `version` into `dst`, which must hold exactly
    /// [`PduRef::wire_len`] remaining bytes.
    ///
    /// # Panics
    ///
    /// Panics on unknown versions or an undersized destination — both
    /// are caller bugs, not wire conditions (the encoder only ever runs
    /// on PDUs this stack built or already validated).
    pub fn write(&self, version: u8, dst: &mut WriteCursor<'_>) {
        assert!(
            version == PROTOCOL_V0 || version == PROTOCOL_V1,
            "unknown protocol version {version}"
        );
        let len = self.wire_len(version) as u32;
        let start = dst.pos();
        dst.write_u8(version);
        dst.write_u8(self.type_code());
        match *self {
            PduRef::SerialNotify { session_id, serial }
            | PduRef::SerialQuery { session_id, serial } => {
                dst.write_u16(session_id);
                dst.write_u32(len);
                dst.write_u32(serial);
            }
            PduRef::ResetQuery | PduRef::CacheReset => {
                dst.write_u16(0);
                dst.write_u32(len);
            }
            PduRef::CacheResponse { session_id } => {
                dst.write_u16(session_id);
                dst.write_u32(len);
            }
            PduRef::Prefix { flags, vrp } => {
                dst.write_u16(0);
                dst.write_u32(len);
                dst.write_u8(flags.to_byte());
                dst.write_u8(vrp.prefix.len());
                dst.write_u8(vrp.max_len);
                dst.write_u8(0);
                match vrp.prefix {
                    Prefix::V4(p) => dst.write_u32(p.bits()),
                    Prefix::V6(p) => dst.write_u128(p.bits()),
                }
                dst.write_u32(vrp.asn.into_u32());
            }
            PduRef::EndOfData {
                session_id,
                serial,
                timing,
            } => {
                dst.write_u16(session_id);
                dst.write_u32(len);
                dst.write_u32(serial);
                if version != PROTOCOL_V0 {
                    dst.write_u32(timing.refresh);
                    dst.write_u32(timing.retry);
                    dst.write_u32(timing.expire);
                }
            }
            PduRef::ErrorReport { code, pdu, text } => {
                debug_assert!(
                    pdu.len() < 2 || pdu[1] != 10,
                    "must not encapsulate an error report"
                );
                dst.write_u16(code.to_u16());
                dst.write_u32(len);
                dst.write_u32(pdu.len() as u32);
                dst.write_slice(pdu);
                dst.write_u32(text.len() as u32);
                dst.write_slice(text.as_bytes());
            }
        }
        debug_assert_eq!(
            dst.pos() - start,
            len as usize,
            "declared length must equal encoded length"
        );
    }

    /// Appends the encoded frame to a growable buffer.
    pub fn encode_into(&self, version: u8, out: &mut Vec<u8>) {
        let start = out.len();
        out.resize(start + self.wire_len(version), 0);
        self.write(version, &mut WriteCursor::new(&mut out[start..]));
    }
}

/// A body that is exactly one fixed part of `N` bytes, read in one piece:
/// the conversion to `&[u8; N]` is its one length check, and the whole
/// body is consumed.
#[inline]
fn fixed_part<'a, const N: usize>(
    body: &mut ReadCursor<'a>,
    type_code: u8,
    length: usize,
) -> Result<&'a [u8; N], PduError> {
    let rest = body.read_slice(body.remaining());
    rest.try_into()
        .map_err(|_| PduError::BadLength { type_code, length })
}

/// Attempts to decode one frame from the front of `data`, zero-copy.
///
/// Returns `Ok(None)` when more bytes are needed (the stream is still
/// open), `Ok(Some(frame))` on success, and a classified [`PduError`]
/// when the bytes can never become a valid frame. Accepts both protocol
/// versions; pinning a session to one version is the caller's job via
/// [`Negotiation`].
#[inline]
pub fn decode_frame(data: &[u8]) -> Result<Option<Frame<'_>>, PduError> {
    if data.len() < HEADER_LEN {
        return Ok(None);
    }
    let mut hdr = ReadCursor::new(data);
    let version = hdr.read_u8();
    if version > PROTOCOL_V1 {
        return Err(PduError::BadVersion(version));
    }
    let type_code = hdr.read_u8();
    let session_or_code = hdr.read_u16();
    let length = hdr.read_u32() as usize;
    if !(HEADER_LEN..=MAX_PDU_LEN).contains(&length) {
        return Err(PduError::BadLength { type_code, length });
    }
    if data.len() < length {
        return Ok(None);
    }
    let mut body = ReadCursor::new(&data[HEADER_LEN..length]);
    let pdu = match type_code {
        0 | 1 => {
            ensure_size!(in: body, size: 4, type_code: type_code, length: length);
            let serial = body.read_u32();
            if type_code == 0 {
                PduRef::SerialNotify {
                    session_id: session_or_code,
                    serial,
                }
            } else {
                PduRef::SerialQuery {
                    session_id: session_or_code,
                    serial,
                }
            }
        }
        2 | 8 => {
            ensure_size!(in: body, size: 0, type_code: type_code, length: length);
            if session_or_code != 0 {
                return Err(PduError::NonZeroReserved {
                    type_code,
                    offset: 2,
                });
            }
            if type_code == 2 {
                PduRef::ResetQuery
            } else {
                PduRef::CacheReset
            }
        }
        3 => {
            ensure_size!(in: body, size: 0, type_code: type_code, length: length);
            PduRef::CacheResponse {
                session_id: session_or_code,
            }
        }
        4 | 6 => {
            // Prefix PDUs carry zero in the header's session-id slot
            // (RFC 8210 §5.6/§5.7) — strict decode enforces it so every
            // accepted frame re-encodes canonically.
            if session_or_code != 0 {
                return Err(PduError::NonZeroReserved {
                    type_code,
                    offset: 2,
                });
            }
            // The fixed part (flags, length, maxLength, a reserved zero,
            // the address, the ASN) is read in one piece; the fields are
            // then checked in wire order.
            let (flags, max_len, reserved, prefix, asn) = if type_code == 4 {
                let [flags, len, max_len, reserved, addr @ .., a0, a1, a2, a3] =
                    *fixed_part::<12>(&mut body, type_code, length)?;
                let prefix = Prefix4::new(u32::from_be_bytes(addr), len).map(Prefix::V4);
                (flags, max_len, reserved, prefix, [a0, a1, a2, a3])
            } else {
                let [flags, len, max_len, reserved, addr @ .., a0, a1, a2, a3] =
                    *fixed_part::<24>(&mut body, type_code, length)?;
                let prefix = Prefix6::new(u128::from_be_bytes(addr), len).map(Prefix::V6);
                (flags, max_len, reserved, prefix, [a0, a1, a2, a3])
            };
            let flags = Flags::from_byte(flags)?;
            if reserved != 0 {
                return Err(PduError::NonZeroReserved {
                    type_code,
                    offset: 11,
                });
            }
            let prefix = prefix.map_err(|_| PduError::BadPrefix)?;
            if max_len < prefix.len() || max_len > prefix.max_len() {
                return Err(PduError::BadMaxLength {
                    len: prefix.len(),
                    max_len,
                });
            }
            PduRef::Prefix {
                flags,
                vrp: Vrp::new(prefix, max_len, Asn(u32::from_be_bytes(asn))),
            }
        }
        7 => {
            let (serial, timing) = if version == PROTOCOL_V0 {
                ensure_size!(in: body, size: 4, type_code: type_code, length: length);
                (body.read_u32(), Timing::default())
            } else {
                ensure_size!(in: body, size: 16, type_code: type_code, length: length);
                let serial = body.read_u32();
                let timing = Timing {
                    refresh: body.read_u32(),
                    retry: body.read_u32(),
                    expire: body.read_u32(),
                };
                (serial, timing)
            };
            PduRef::EndOfData {
                session_id: session_or_code,
                serial,
                timing,
            }
        }
        10 => {
            let code = ErrorCode::from_u16(session_or_code)?;
            ensure_size!(min: body, size: 4, type_code: type_code, length: length);
            let pdu_len = body.read_u32() as usize;
            // Exact length arithmetic, overflow-safe: after the embedded
            // PDU there must be room for the 4-byte text length, and the
            // text must fill the frame to the byte.
            let text_len = body
                .remaining()
                .checked_sub(pdu_len)
                .and_then(|r| r.checked_sub(4))
                .ok_or(PduError::BadLength { type_code, length })?;
            let inner = body.read_slice(pdu_len);
            if body.read_u32() as usize != text_len {
                return Err(PduError::BadLength { type_code, length });
            }
            if inner.len() >= 2 && inner[1] == 10 {
                return Err(PduError::NestedErrorReport);
            }
            let text =
                std::str::from_utf8(body.read_slice(text_len)).map_err(|_| PduError::BadText)?;
            PduRef::ErrorReport {
                code,
                pdu: inner,
                text,
            }
        }
        other => return Err(PduError::BadType(other)),
    };
    debug_assert!(body.is_empty(), "decoder must consume the whole body");
    Ok(Some(Frame {
        pdu,
        version,
        len: length,
    }))
}

/// Per-session protocol-version negotiation (see the state machine in
/// the module docs).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Negotiation {
    max_version: u8,
    negotiated: Option<u8>,
}

impl Default for Negotiation {
    fn default() -> Negotiation {
        Negotiation::new()
    }
}

impl Negotiation {
    /// An unpinned session accepting up to protocol version 1.
    pub fn new() -> Negotiation {
        Negotiation::with_max(PROTOCOL_V1)
    }

    /// An unpinned session accepting versions `0..=max_version` — a
    /// v0-only cache passes [`PROTOCOL_V0`] and v1 routers get the
    /// recoverable Unsupported-Version error, the RFC 6810 downgrade
    /// handshake.
    pub fn with_max(max_version: u8) -> Negotiation {
        assert!(
            max_version == PROTOCOL_V0 || max_version == PROTOCOL_V1,
            "unknown protocol version {max_version}"
        );
        Negotiation {
            max_version,
            negotiated: None,
        }
    }

    /// The version the session is pinned to, once the first frame has
    /// been accepted.
    pub fn version(&self) -> Option<u8> {
        self.negotiated
    }

    /// The highest version this side will accept.
    pub fn max_version(&self) -> u8 {
        self.max_version
    }

    /// Checks one frame's version against the session state, pinning the
    /// session on first acceptance. Returns the session version.
    pub fn accept(&mut self, frame_version: u8) -> Result<u8, PduError> {
        if frame_version > self.max_version {
            return Err(PduError::BadVersion(frame_version));
        }
        match self.negotiated {
            None => {
                self.negotiated = Some(frame_version);
                Ok(frame_version)
            }
            Some(v) if v == frame_version => Ok(v),
            Some(v) => Err(PduError::VersionMismatch {
                negotiated: v,
                got: frame_version,
            }),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn error_report_payloads_are_borrowed() {
        let vrp: Vrp = "10.0.0.0/8 => AS1".parse().unwrap();
        let mut inner = Vec::new();
        PduRef::Prefix {
            flags: Flags::Announce,
            vrp,
        }
        .encode_into(PROTOCOL_V1, &mut inner);
        let mut frame = Vec::new();
        PduRef::ErrorReport {
            code: ErrorCode::CorruptData,
            pdu: &inner,
            text: "boom",
        }
        .encode_into(PROTOCOL_V1, &mut frame);

        let decoded = decode_frame(&frame).unwrap().unwrap();
        match decoded.pdu {
            PduRef::ErrorReport { pdu, text, .. } => {
                // The borrowed slices point into `frame`, not a copy.
                let base = frame.as_ptr() as usize;
                let pdu_at = pdu.as_ptr() as usize;
                let text_at = text.as_ptr() as usize;
                assert!((base..base + frame.len()).contains(&pdu_at));
                assert!((base..base + frame.len()).contains(&text_at));
                assert_eq!(pdu, &inner[..]);
                assert_eq!(text, "boom");
            }
            other => panic!("expected error report, got {other:?}"),
        }
    }

    /// One change to a valid Prefix frame.
    #[derive(Clone, Copy)]
    enum Edit {
        /// Byte at an offset from the frame start.
        Byte(usize, u8),
        /// The header's session-id slot.
        Session(u16),
        /// A body of `n` bytes (zero-padded or cut), length field to match.
        Body(usize),
        /// The length field alone.
        Length(u32),
        /// The frame cut to `n` bytes, length field unchanged.
        Cut(usize),
    }

    /// What the decoder makes of a frame: the accepted PDU's type code,
    /// `None` while incomplete, or the error.
    type Verdict = Result<Option<u8>, PduError>;

    /// A valid v1 Prefix frame: type 4 is 10.0.0.0/8-16, type 6 is
    /// 2001:db8::/32-48, both announced for AS64500.
    fn prefix_frame(type_code: u8, edits: &[Edit]) -> Vec<u8> {
        let vrp: Vrp = match type_code {
            4 => "10.0.0.0/8-16 => AS64500",
            _ => "2001:db8::/32-48 => AS64500",
        }
        .parse()
        .unwrap();
        let mut frame = Vec::new();
        PduRef::Prefix {
            flags: Flags::Announce,
            vrp,
        }
        .encode_into(PROTOCOL_V1, &mut frame);
        for &edit in edits {
            match edit {
                Edit::Byte(at, b) => frame[at] = b,
                Edit::Session(s) => frame[2..4].copy_from_slice(&s.to_be_bytes()),
                Edit::Body(n) => {
                    frame.resize(HEADER_LEN + n, 0);
                    let len = (HEADER_LEN + n) as u32;
                    frame[4..8].copy_from_slice(&len.to_be_bytes());
                }
                Edit::Length(len) => frame[4..8].copy_from_slice(&len.to_be_bytes()),
                Edit::Cut(n) => frame.truncate(n),
            }
        }
        frame
    }

    /// Frames with two faults each, and the one error the decoder picks:
    /// header, then session id, body length, flags, reserved byte,
    /// prefix, maxLength. The verdicts were read off the decoder that
    /// checked the fields one cursor read at a time, before the fixed
    /// part was read in one piece.
    #[test]
    fn prefix_error_precedence_is_pinned() {
        use Edit::*;
        for (t, fixed, host, max) in [(4u8, 12usize, 13usize, 32u8), (6, 24, 16, 128)] {
            let len = if t == 4 { 8 } else { 32 };
            let bad_length = |n: usize| PduError::BadLength {
                type_code: t,
                length: HEADER_LEN + n,
            };
            let reserved = |offset| PduError::NonZeroReserved {
                type_code: t,
                offset,
            };
            let table: Vec<(&str, Vec<Edit>, Verdict)> = vec![
                ("valid", vec![], Ok(Some(t))),
                (
                    "valid at v0, withdrawn",
                    vec![Byte(0, 0), Byte(8, 0)],
                    Ok(Some(t)),
                ),
                (
                    "bad version, non-zero session",
                    vec![Byte(0, 2), Session(1)],
                    Err(PduError::BadVersion(2)),
                ),
                (
                    "oversized length, non-zero session",
                    vec![Length(70_000), Session(1)],
                    Err(PduError::BadLength {
                        type_code: t,
                        length: 70_000,
                    }),
                ),
                ("cut frame, bad flags", vec![Cut(12), Byte(8, 2)], Ok(None)),
                (
                    "non-zero session, short body",
                    vec![Session(1), Body(fixed - 1)],
                    Err(reserved(2)),
                ),
                (
                    "non-zero session, long body",
                    vec![Session(0x100), Body(fixed + 4)],
                    Err(reserved(2)),
                ),
                (
                    "non-zero session, bad flags",
                    vec![Session(0xffff), Byte(8, 2)],
                    Err(reserved(2)),
                ),
                (
                    "short body, bad flags",
                    vec![Body(fixed - 4), Byte(8, 2)],
                    Err(bad_length(fixed - 4)),
                ),
                (
                    "long body, non-zero reserved",
                    vec![Body(fixed + 1), Byte(11, 1)],
                    Err(bad_length(fixed + 1)),
                ),
                ("empty body", vec![Body(0)], Err(bad_length(0))),
                (
                    "bad flags, non-zero reserved",
                    vec![Byte(8, 0x81), Byte(11, 0xff)],
                    Err(PduError::BadFlags(0x81)),
                ),
                (
                    "bad flags, host bits set",
                    vec![Byte(8, 2), Byte(host, 1)],
                    Err(PduError::BadFlags(2)),
                ),
                (
                    "non-zero reserved, host bits set",
                    vec![Byte(11, 1), Byte(host, 1)],
                    Err(reserved(11)),
                ),
                (
                    "non-zero reserved, bad maxLength",
                    vec![Byte(11, 0x80), Byte(10, 0)],
                    Err(reserved(11)),
                ),
                (
                    "host bits set, maxLength below length",
                    vec![Byte(host, 1), Byte(10, len - 1)],
                    Err(PduError::BadPrefix),
                ),
                (
                    "host bits set, maxLength above family",
                    vec![Byte(host, 0x80), Byte(10, max + 1)],
                    Err(PduError::BadPrefix),
                ),
                (
                    "length above family, maxLength below it",
                    vec![Byte(9, max + 1), Byte(10, 7)],
                    Err(PduError::BadPrefix),
                ),
                (
                    "length above family, maxLength equal",
                    vec![Byte(9, max + 1), Byte(10, max + 1)],
                    Err(PduError::BadPrefix),
                ),
                (
                    "length 255, bad flags",
                    vec![Byte(9, 255), Byte(8, 3)],
                    Err(PduError::BadFlags(3)),
                ),
                (
                    "maxLength below length",
                    vec![Byte(10, len - 1)],
                    Err(PduError::BadMaxLength {
                        len,
                        max_len: len - 1,
                    }),
                ),
                (
                    "maxLength above family",
                    vec![Byte(10, max + 1)],
                    Err(PduError::BadMaxLength {
                        len,
                        max_len: max + 1,
                    }),
                ),
                (
                    "host length, maxLength equal",
                    vec![Byte(9, max), Byte(10, max)],
                    Ok(Some(t)),
                ),
            ];
            for (name, edits, want) in table {
                let frame = prefix_frame(t, &edits);
                let got = decode_frame(&frame);
                let verdict = got.clone().map(|f| f.map(|f| f.pdu.type_code()));
                assert_eq!(verdict, want, "type {t}: {name}");
                if let Ok(Some(f)) = got {
                    assert_eq!(f.len, frame.len(), "type {t}: {name}");
                    let mut again = Vec::new();
                    f.pdu.encode_into(f.version, &mut again);
                    assert_eq!(again, frame, "type {t}: {name} re-encodes");
                }
            }
        }
    }

    #[test]
    fn negotiation_pins_then_rejects_mismatch() {
        let mut n = Negotiation::new();
        assert_eq!(n.version(), None);
        assert_eq!(n.accept(PROTOCOL_V0), Ok(PROTOCOL_V0));
        assert_eq!(n.version(), Some(PROTOCOL_V0));
        assert_eq!(n.accept(PROTOCOL_V0), Ok(PROTOCOL_V0));
        let err = n.accept(PROTOCOL_V1).unwrap_err();
        assert_eq!(
            err,
            PduError::VersionMismatch {
                negotiated: PROTOCOL_V0,
                got: PROTOCOL_V1
            }
        );
        assert_eq!(err.class(), ErrorClass::Fatal);
        assert_eq!(err.error_code(), ErrorCode::UnexpectedVersion);
    }

    #[test]
    fn negotiation_caps_at_max_version_recoverably() {
        let mut v0_only = Negotiation::with_max(PROTOCOL_V0);
        let err = v0_only.accept(PROTOCOL_V1).unwrap_err();
        assert_eq!(err, PduError::BadVersion(PROTOCOL_V1));
        assert_eq!(err.class(), ErrorClass::Recoverable);
        assert_eq!(err.error_code(), ErrorCode::UnsupportedVersion);
        // The session never pinned, so a downgraded retry succeeds.
        assert_eq!(v0_only.accept(PROTOCOL_V0), Ok(PROTOCOL_V0));
    }

    #[test]
    #[should_panic(expected = "unknown protocol version")]
    fn negotiation_rejects_unknown_max() {
        let _ = Negotiation::with_max(9);
    }
}
