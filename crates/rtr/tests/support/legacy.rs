//! The pre-cursor allocating codec, kept line for line as the
//! differential oracle for the wire layer: `tests/differential.rs` proves
//! the cursor codec byte-identical to this one on every valid PDU at both
//! protocol versions, and `tests/corpus.rs` pins the frames where the
//! strict decoder rejects what this one waved through. Test support only
//! — the shipping crate has one codec.

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
pub fn encode_versioned(pdu: &Pdu, version: u8, buf: &mut Vec<u8>) {
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
            buf.push(PROTOCOL_V0);
            buf.push(7);
            buf.extend_from_slice(&session_id.to_be_bytes());
            buf.extend_from_slice(&12u32.to_be_bytes());
            buf.extend_from_slice(&serial.to_be_bytes());
            debug_assert_eq!(buf.len() - start, 12);
            return;
        }
    }
    let start = buf.len();
    buf.push(version);
    buf.push(pdu.as_wire().type_code());
    match pdu {
        Pdu::SerialNotify { session_id, serial } | Pdu::SerialQuery { session_id, serial } => {
            buf.extend_from_slice(&session_id.to_be_bytes());
            buf.extend_from_slice(&12u32.to_be_bytes());
            buf.extend_from_slice(&serial.to_be_bytes());
        }
        Pdu::ResetQuery | Pdu::CacheReset => {
            buf.extend_from_slice(&0u16.to_be_bytes());
            buf.extend_from_slice(&8u32.to_be_bytes());
        }
        Pdu::CacheResponse { session_id } => {
            buf.extend_from_slice(&session_id.to_be_bytes());
            buf.extend_from_slice(&8u32.to_be_bytes());
        }
        Pdu::Prefix { flags, vrp } => {
            buf.extend_from_slice(&0u16.to_be_bytes());
            match vrp.prefix {
                Prefix::V4(p) => {
                    buf.extend_from_slice(&20u32.to_be_bytes());
                    buf.push(flags_to_byte(*flags));
                    buf.push(p.len());
                    buf.push(vrp.max_len);
                    buf.push(0);
                    buf.extend_from_slice(&p.bits().to_be_bytes());
                    buf.extend_from_slice(&vrp.asn.into_u32().to_be_bytes());
                }
                Prefix::V6(p) => {
                    buf.extend_from_slice(&32u32.to_be_bytes());
                    buf.push(flags_to_byte(*flags));
                    buf.push(p.len());
                    buf.push(vrp.max_len);
                    buf.push(0);
                    buf.extend_from_slice(&p.bits().to_be_bytes());
                    buf.extend_from_slice(&vrp.asn.into_u32().to_be_bytes());
                }
            }
        }
        Pdu::EndOfData {
            session_id,
            serial,
            timing,
        } => {
            buf.extend_from_slice(&session_id.to_be_bytes());
            buf.extend_from_slice(&24u32.to_be_bytes());
            buf.extend_from_slice(&serial.to_be_bytes());
            buf.extend_from_slice(&timing.refresh.to_be_bytes());
            buf.extend_from_slice(&timing.retry.to_be_bytes());
            buf.extend_from_slice(&timing.expire.to_be_bytes());
        }
        Pdu::ErrorReport { code, pdu, text } => {
            buf.extend_from_slice(&code_to_u16(*code).to_be_bytes());
            let len = HEADER_LEN + 4 + pdu.len() + 4 + text.len();
            buf.extend_from_slice(&(len as u32).to_be_bytes());
            buf.extend_from_slice(&(pdu.len() as u32).to_be_bytes());
            buf.extend_from_slice(pdu);
            buf.extend_from_slice(&(text.len() as u32).to_be_bytes());
            buf.extend_from_slice(text.as_bytes());
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
            let serial = u32::from_be_bytes(take(&mut body));
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
            let flags = flags_from_byte(take::<1>(&mut body)[0])?;
            let len = take::<1>(&mut body)[0];
            let max_len = take::<1>(&mut body)[0];
            let _zero = take::<1>(&mut body)[0];
            let bits = u32::from_be_bytes(take(&mut body));
            let asn = Asn(u32::from_be_bytes(take(&mut body)));
            let prefix = Prefix4::new(bits, len).map_err(|_| PduError::BadPrefix)?;
            let vrp = checked_vrp(Prefix::V4(prefix), max_len, asn)?;
            Pdu::Prefix { flags, vrp }
        }
        6 => {
            expect_len(32)?;
            let flags = flags_from_byte(take::<1>(&mut body)[0])?;
            let len = take::<1>(&mut body)[0];
            let max_len = take::<1>(&mut body)[0];
            let _zero = take::<1>(&mut body)[0];
            let bits = u128::from_be_bytes(take(&mut body));
            let asn = Asn(u32::from_be_bytes(take(&mut body)));
            let prefix = Prefix6::new(bits, len).map_err(|_| PduError::BadPrefix)?;
            let vrp = checked_vrp(Prefix::V6(prefix), max_len, asn)?;
            Pdu::Prefix { flags, vrp }
        }
        7 => {
            let serial;
            let timing;
            if version == PROTOCOL_V0 {
                expect_len(12)?;
                serial = u32::from_be_bytes(take(&mut body));
                timing = Timing::default();
            } else {
                expect_len(24)?;
                serial = u32::from_be_bytes(take(&mut body));
                timing = Timing {
                    refresh: u32::from_be_bytes(take(&mut body)),
                    retry: u32::from_be_bytes(take(&mut body)),
                    expire: u32::from_be_bytes(take(&mut body)),
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
            if body.len() < 4 {
                return Err(PduError::BadLength { type_code, length });
            }
            let pdu_len = u32::from_be_bytes(take(&mut body)) as usize;
            if body.len() < pdu_len + 4 {
                return Err(PduError::BadLength { type_code, length });
            }
            let inner = body[..pdu_len].to_vec();
            body = &body[pdu_len..];
            let text_len = u32::from_be_bytes(take(&mut body)) as usize;
            if body.len() != text_len {
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

/// Splits the first `N` bytes off `body` (what `Buf::get_*` did).
fn take<const N: usize>(body: &mut &[u8]) -> [u8; N] {
    let (head, rest) = body.split_at(N);
    *body = rest;
    head.try_into().expect("N bytes")
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
