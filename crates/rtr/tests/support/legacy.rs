//! The pre-cursor `bytes`-based codec, kept verbatim as the differential
//! oracle for the wire layer: `tests/differential.rs` proves the cursor
//! codec byte-identical to this one on every valid PDU at both protocol
//! versions, and `tests/corpus.rs` pins the frames where the strict
//! decoder rejects what this one waved through. Test support only — the
//! shipping crate has one codec.

use bytes::{Buf, BufMut, Bytes, BytesMut};
use rpki_prefix::{Prefix, Prefix4, Prefix6};
use rpki_roa::{Asn, Vrp};

use rpki_rtr::pdu::{ErrorCode, Flags, Pdu, PduError, Timing, PROTOCOL_V0, PROTOCOL_V1};

const HEADER_LEN: usize = 8;

// The crate keeps its flag/code conversions internal; the oracle
// carries its own.
const ERROR_CODES: [ErrorCode; 9] = [
    ErrorCode::CorruptData,
    ErrorCode::InternalError,
    ErrorCode::NoDataAvailable,
    ErrorCode::InvalidRequest,
    ErrorCode::UnsupportedVersion,
    ErrorCode::UnsupportedPduType,
    ErrorCode::WithdrawalOfUnknown,
    ErrorCode::DuplicateAnnouncement,
    ErrorCode::UnexpectedVersion,
];

fn flags_to_byte(flags: Flags) -> u8 {
    match flags {
        Flags::Announce => 1,
        Flags::Withdraw => 0,
    }
}

fn flags_from_byte(b: u8) -> Result<Flags, PduError> {
    match b {
        1 => Ok(Flags::Announce),
        0 => Ok(Flags::Withdraw),
        other => Err(PduError::BadFlags(other)),
    }
}

fn code_to_u16(code: ErrorCode) -> u16 {
    ERROR_CODES
        .iter()
        .position(|c| *c == code)
        .expect("every code is listed") as u16
}

fn code_from_u16(v: u16) -> Result<ErrorCode, PduError> {
    ERROR_CODES
        .get(usize::from(v))
        .copied()
        .ok_or(PduError::BadErrorCode(v))
}

/// The old allocating encoder.
pub fn encode_versioned(pdu: &Pdu, version: u8, buf: &mut BytesMut) {
    assert!(
        version == PROTOCOL_V0 || version == PROTOCOL_V1,
        "unknown protocol version {version}"
    );
    if version == PROTOCOL_V0 {
        if let Pdu::EndOfData {
            session_id, serial, ..
        } = pdu
        {
            let start = buf.len();
            buf.put_u8(PROTOCOL_V0);
            buf.put_u8(7);
            buf.put_u16(*session_id);
            buf.put_u32(12);
            buf.put_u32(*serial);
            debug_assert_eq!(buf.len() - start, 12);
            return;
        }
    }
    let start = buf.len();
    buf.put_u8(version);
    buf.put_u8(pdu.type_code());
    match pdu {
        Pdu::SerialNotify { session_id, serial } | Pdu::SerialQuery { session_id, serial } => {
            buf.put_u16(*session_id);
            buf.put_u32(12);
            buf.put_u32(*serial);
        }
        Pdu::ResetQuery | Pdu::CacheReset => {
            buf.put_u16(0);
            buf.put_u32(8);
        }
        Pdu::CacheResponse { session_id } => {
            buf.put_u16(*session_id);
            buf.put_u32(8);
        }
        Pdu::Prefix { flags, vrp } => {
            buf.put_u16(0);
            match vrp.prefix {
                Prefix::V4(p) => {
                    buf.put_u32(20);
                    buf.put_u8(flags_to_byte(*flags));
                    buf.put_u8(p.len());
                    buf.put_u8(vrp.max_len);
                    buf.put_u8(0);
                    buf.put_u32(p.bits());
                    buf.put_u32(vrp.asn.into_u32());
                }
                Prefix::V6(p) => {
                    buf.put_u32(32);
                    buf.put_u8(flags_to_byte(*flags));
                    buf.put_u8(p.len());
                    buf.put_u8(vrp.max_len);
                    buf.put_u8(0);
                    buf.put_u128(p.bits());
                    buf.put_u32(vrp.asn.into_u32());
                }
            }
        }
        Pdu::EndOfData {
            session_id,
            serial,
            timing,
        } => {
            buf.put_u16(*session_id);
            buf.put_u32(24);
            buf.put_u32(*serial);
            buf.put_u32(timing.refresh);
            buf.put_u32(timing.retry);
            buf.put_u32(timing.expire);
        }
        Pdu::ErrorReport { code, pdu, text } => {
            buf.put_u16(code_to_u16(*code));
            let len = HEADER_LEN + 4 + pdu.len() + 4 + text.len();
            buf.put_u32(len as u32);
            buf.put_u32(pdu.len() as u32);
            buf.put_slice(pdu);
            buf.put_u32(text.len() as u32);
            buf.put_slice(text.as_bytes());
        }
    }
    debug_assert_eq!(
        u32::from_be_bytes(buf[start + 4..start + 8].try_into().expect("4 bytes")) as usize,
        buf.len() - start,
        "declared length must equal encoded length"
    );
}

/// The old allocating decoder. Laxer than the wire layer: it ignores
/// the session-id slot of Reset Query / Cache Reset, skips the
/// Prefix reserved byte unchecked, accepts nested Error Reports, and
/// decodes text lossily — the exact gaps `tests/corpus/` pins the
/// strict codec against.
pub fn decode_versioned(data: &[u8]) -> Result<Option<(Pdu, usize, u8)>, PduError> {
    if data.len() < HEADER_LEN {
        return Ok(None);
    }
    let version = data[0];
    if version != PROTOCOL_V0 && version != PROTOCOL_V1 {
        return Err(PduError::BadVersion(version));
    }
    let type_code = data[1];
    let session_or_code = u16::from_be_bytes([data[2], data[3]]);
    let length = u32::from_be_bytes(data[4..8].try_into().expect("4 bytes")) as usize;
    if !(HEADER_LEN..=65_536).contains(&length) {
        return Err(PduError::BadLength { type_code, length });
    }
    if data.len() < length {
        return Ok(None);
    }
    let mut body = &data[HEADER_LEN..length];
    let expect_len = |want: usize| {
        if length == want {
            Ok(())
        } else {
            Err(PduError::BadLength { type_code, length })
        }
    };
    let pdu = match type_code {
        0 | 1 => {
            expect_len(12)?;
            let serial = body.get_u32();
            if type_code == 0 {
                Pdu::SerialNotify {
                    session_id: session_or_code,
                    serial,
                }
            } else {
                Pdu::SerialQuery {
                    session_id: session_or_code,
                    serial,
                }
            }
        }
        2 => {
            expect_len(8)?;
            Pdu::ResetQuery
        }
        3 => {
            expect_len(8)?;
            Pdu::CacheResponse {
                session_id: session_or_code,
            }
        }
        4 => {
            expect_len(20)?;
            let flags = flags_from_byte(body.get_u8())?;
            let len = body.get_u8();
            let max_len = body.get_u8();
            let _zero = body.get_u8();
            let bits = body.get_u32();
            let asn = Asn(body.get_u32());
            let prefix = Prefix4::new(bits, len).map_err(|_| PduError::BadPrefix)?;
            let vrp = checked_vrp(Prefix::V4(prefix), max_len, asn)?;
            Pdu::Prefix { flags, vrp }
        }
        6 => {
            expect_len(32)?;
            let flags = flags_from_byte(body.get_u8())?;
            let len = body.get_u8();
            let max_len = body.get_u8();
            let _zero = body.get_u8();
            let bits = body.get_u128();
            let asn = Asn(body.get_u32());
            let prefix = Prefix6::new(bits, len).map_err(|_| PduError::BadPrefix)?;
            let vrp = checked_vrp(Prefix::V6(prefix), max_len, asn)?;
            Pdu::Prefix { flags, vrp }
        }
        7 => {
            let serial;
            let timing;
            if version == PROTOCOL_V0 {
                expect_len(12)?;
                serial = body.get_u32();
                timing = Timing::default();
            } else {
                expect_len(24)?;
                serial = body.get_u32();
                timing = Timing {
                    refresh: body.get_u32(),
                    retry: body.get_u32(),
                    expire: body.get_u32(),
                };
            }
            Pdu::EndOfData {
                session_id: session_or_code,
                serial,
                timing,
            }
        }
        8 => {
            expect_len(8)?;
            Pdu::CacheReset
        }
        10 => {
            let code = code_from_u16(session_or_code)?;
            if body.remaining() < 4 {
                return Err(PduError::BadLength { type_code, length });
            }
            let pdu_len = body.get_u32() as usize;
            if body.remaining() < pdu_len + 4 {
                return Err(PduError::BadLength { type_code, length });
            }
            let inner = Bytes::copy_from_slice(&body[..pdu_len]);
            body.advance(pdu_len);
            let text_len = body.get_u32() as usize;
            if body.remaining() != text_len {
                return Err(PduError::BadLength { type_code, length });
            }
            let text = String::from_utf8_lossy(&body[..text_len]).into_owned();
            Pdu::ErrorReport {
                code,
                pdu: inner,
                text,
            }
        }
        other => return Err(PduError::BadType(other)),
    };
    Ok(Some((pdu, length, version)))
}

fn checked_vrp(prefix: Prefix, max_len: u8, asn: Asn) -> Result<Vrp, PduError> {
    if max_len < prefix.len() || max_len > prefix.max_len() {
        return Err(PduError::BadMaxLength {
            len: prefix.len(),
            max_len,
        });
    }
    Ok(Vrp::new(prefix, max_len, asn))
}
