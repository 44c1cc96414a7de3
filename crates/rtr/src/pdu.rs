//! Owned rpki-rtr PDU values (RFC 6810 / RFC 8210).
//!
//! The wire format itself — cursors, strict zero-copy decoding, the
//! versioned encoder, the error taxonomy, version negotiation — lives in
//! [`crate::wire`]; this module holds the **owned** [`Pdu`] value the
//! state machines ([`CacheServer`](crate::CacheServer),
//! [`RouterClient`](crate::RouterClient)) and their callers traffic in.
//! A `Pdu` is a value, not a second codec: [`Pdu::as_wire`] lends it to
//! the encoder ([`PduRef::encode_into`]), and [`PduRef::to_owned`] copies
//! a decoded frame into one.

use rpki_roa::Vrp;

use crate::wire::PduRef;

pub use crate::wire::{ErrorClass, PduError};

/// Protocol version 0 (RFC 6810).
pub const PROTOCOL_V0: u8 = 0;
/// Protocol version 1 (RFC 8210), the highest version this stack speaks.
pub const PROTOCOL_V1: u8 = 1;

/// The announce/withdraw flag bit of prefix PDUs.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Flags {
    /// The VRP is being added to the router's set.
    Announce,
    /// The VRP is being removed.
    Withdraw,
}

impl Flags {
    pub(crate) fn to_byte(self) -> u8 {
        match self {
            Flags::Announce => 1,
            Flags::Withdraw => 0,
        }
    }

    #[inline]
    pub(crate) fn from_byte(b: u8) -> Result<Flags, PduError> {
        match b {
            1 => Ok(Flags::Announce),
            0 => Ok(Flags::Withdraw),
            other => Err(PduError::BadFlags(other)),
        }
    }
}

/// RFC 8210 error codes carried in Error Report PDUs.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ErrorCode {
    /// 0: Corrupt Data.
    CorruptData,
    /// 1: Internal Error.
    InternalError,
    /// 2: No Data Available.
    NoDataAvailable,
    /// 3: Invalid Request.
    InvalidRequest,
    /// 4: Unsupported Protocol Version.
    UnsupportedVersion,
    /// 5: Unsupported PDU Type.
    UnsupportedPduType,
    /// 6: Withdrawal of Unknown Record.
    WithdrawalOfUnknown,
    /// 7: Duplicate Announcement Received.
    DuplicateAnnouncement,
    /// 8: Unexpected Protocol Version.
    UnexpectedVersion,
}

impl ErrorCode {
    pub(crate) fn to_u16(self) -> u16 {
        match self {
            ErrorCode::CorruptData => 0,
            ErrorCode::InternalError => 1,
            ErrorCode::NoDataAvailable => 2,
            ErrorCode::InvalidRequest => 3,
            ErrorCode::UnsupportedVersion => 4,
            ErrorCode::UnsupportedPduType => 5,
            ErrorCode::WithdrawalOfUnknown => 6,
            ErrorCode::DuplicateAnnouncement => 7,
            ErrorCode::UnexpectedVersion => 8,
        }
    }

    pub(crate) fn from_u16(v: u16) -> Result<ErrorCode, PduError> {
        Ok(match v {
            0 => ErrorCode::CorruptData,
            1 => ErrorCode::InternalError,
            2 => ErrorCode::NoDataAvailable,
            3 => ErrorCode::InvalidRequest,
            4 => ErrorCode::UnsupportedVersion,
            5 => ErrorCode::UnsupportedPduType,
            6 => ErrorCode::WithdrawalOfUnknown,
            7 => ErrorCode::DuplicateAnnouncement,
            8 => ErrorCode::UnexpectedVersion,
            other => return Err(PduError::BadErrorCode(other)),
        })
    }
}

/// The RFC 8210 refresh/retry/expire timing parameters carried in v1
/// End of Data PDUs.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Timing {
    /// Seconds between serial queries (RFC 8210 default 3600).
    pub refresh: u32,
    /// Seconds before retrying a failed query (default 600).
    pub retry: u32,
    /// Seconds after which stale data must be discarded (default 7200).
    pub expire: u32,
}

impl Default for Timing {
    fn default() -> Timing {
        Timing {
            refresh: 3600,
            retry: 600,
            expire: 7200,
        }
    }
}

/// One rpki-rtr PDU, owning its payloads. The borrowed counterpart is
/// [`PduRef`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Pdu {
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
        /// v1 timing parameters.
        timing: Timing,
    },
    /// Type 8: the cache cannot serve deltas; the router must reset.
    CacheReset,
    /// Type 10: a protocol error, ending the session.
    ErrorReport {
        /// The RFC 8210 error code.
        code: ErrorCode,
        /// The offending PDU's raw bytes, if any.
        pdu: Vec<u8>,
        /// Diagnostic text.
        text: String,
    },
}

impl Pdu {
    /// A borrowed [`PduRef`] view over this PDU — the type the
    /// cursor encoder consumes.
    pub fn as_wire(&self) -> PduRef<'_> {
        match self {
            Pdu::SerialNotify { session_id, serial } => PduRef::SerialNotify {
                session_id: *session_id,
                serial: *serial,
            },
            Pdu::SerialQuery { session_id, serial } => PduRef::SerialQuery {
                session_id: *session_id,
                serial: *serial,
            },
            Pdu::ResetQuery => PduRef::ResetQuery,
            Pdu::CacheResponse { session_id } => PduRef::CacheResponse {
                session_id: *session_id,
            },
            Pdu::Prefix { flags, vrp } => PduRef::Prefix {
                flags: *flags,
                vrp: *vrp,
            },
            Pdu::EndOfData {
                session_id,
                serial,
                timing,
            } => PduRef::EndOfData {
                session_id: *session_id,
                serial: *serial,
                timing: *timing,
            },
            Pdu::CacheReset => PduRef::CacheReset,
            Pdu::ErrorReport { code, pdu, text } => PduRef::ErrorReport {
                code: *code,
                pdu: &pdu[..],
                text: text.as_str(),
            },
        }
    }

    /// The exact encoded size at `version`, header included.
    pub fn wire_len(&self, version: u8) -> usize {
        self.as_wire().wire_len(version)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::wire::decode_frame;

    fn vrp(s: &str) -> Vrp {
        s.parse().unwrap()
    }

    /// `pdu` framed at `version` by the one encoder.
    pub(super) fn encode(pdu: &Pdu, version: u8) -> Vec<u8> {
        let mut out = Vec::new();
        pdu.as_wire().encode_into(version, &mut out);
        out
    }

    fn round_trip(pdu: Pdu) {
        let bytes = encode(&pdu, PROTOCOL_V1);
        let frame = decode_frame(&bytes).unwrap().unwrap();
        assert_eq!(frame.pdu.to_owned(), pdu);
        assert_eq!(frame.len, bytes.len());
    }

    #[test]
    fn round_trip_all_types() {
        round_trip(Pdu::SerialNotify {
            session_id: 42,
            serial: 7,
        });
        round_trip(Pdu::SerialQuery {
            session_id: 42,
            serial: u32::MAX,
        });
        round_trip(Pdu::ResetQuery);
        round_trip(Pdu::CacheResponse { session_id: 9 });
        round_trip(Pdu::Prefix {
            flags: Flags::Announce,
            vrp: vrp("168.122.0.0/16-24 => AS111"),
        });
        round_trip(Pdu::Prefix {
            flags: Flags::Withdraw,
            vrp: vrp("2001:db8::/32-48 => AS65000"),
        });
        round_trip(Pdu::EndOfData {
            session_id: 42,
            serial: 3,
            timing: Timing::default(),
        });
        round_trip(Pdu::CacheReset);
        round_trip(Pdu::ErrorReport {
            code: ErrorCode::CorruptData,
            pdu: encode(&Pdu::ResetQuery, PROTOCOL_V1),
            text: "bad things".into(),
        });
        round_trip(Pdu::ErrorReport {
            code: ErrorCode::NoDataAvailable,
            pdu: Vec::new(),
            text: String::new(),
        });
    }

    #[test]
    fn v4_wire_layout_matches_rfc() {
        let pdu = Pdu::Prefix {
            flags: Flags::Announce,
            vrp: vrp("10.0.0.0/8-24 => AS65000"),
        };
        let b = encode(&pdu, PROTOCOL_V1);
        assert_eq!(b.len(), 20);
        assert_eq!(b[0], PROTOCOL_V1);
        assert_eq!(b[1], 4); // IPv4 prefix PDU
        assert_eq!(&b[4..8], &[0, 0, 0, 20]); // length
        assert_eq!(b[8], 1); // announce
        assert_eq!(b[9], 8); // prefix length
        assert_eq!(b[10], 24); // max length
        assert_eq!(&b[12..16], &[10, 0, 0, 0]); // prefix bytes
        assert_eq!(&b[16..20], &65000u32.to_be_bytes());
    }

    #[test]
    fn incomplete_input_returns_none() {
        let pdu = Pdu::EndOfData {
            session_id: 1,
            serial: 2,
            timing: Timing::default(),
        };
        let bytes = encode(&pdu, PROTOCOL_V1);
        for cut in 0..bytes.len() {
            assert_eq!(decode_frame(&bytes[..cut]), Ok(None), "cut {cut}");
        }
    }

    #[test]
    fn decode_consumes_exactly_one_pdu() {
        let mut buf = encode(&Pdu::ResetQuery, PROTOCOL_V1);
        buf.extend(encode(&Pdu::CacheReset, PROTOCOL_V1));
        let first = decode_frame(&buf).unwrap().unwrap();
        assert_eq!(first.pdu.to_owned(), Pdu::ResetQuery);
        let second = decode_frame(&buf[first.len..]).unwrap().unwrap();
        assert_eq!(second.pdu.to_owned(), Pdu::CacheReset);
        assert_eq!(first.len + second.len, buf.len());
    }

    #[test]
    fn rejects_bad_version() {
        let mut bytes = encode(&Pdu::ResetQuery, PROTOCOL_V1);
        bytes[0] = 9;
        assert_eq!(decode_frame(&bytes), Err(PduError::BadVersion(9)));
        assert_eq!(
            PduError::BadVersion(9).error_code(),
            ErrorCode::UnsupportedVersion
        );
    }

    #[test]
    fn rejects_bad_type() {
        let mut bytes = encode(&Pdu::ResetQuery, PROTOCOL_V1);
        bytes[1] = 99;
        assert_eq!(decode_frame(&bytes), Err(PduError::BadType(99)));
    }

    #[test]
    fn rejects_bad_lengths() {
        // Declared length below the header size.
        let raw = [PROTOCOL_V1, 2, 0, 0, 0, 0, 0, 4];
        assert!(matches!(
            decode_frame(&raw),
            Err(PduError::BadLength { .. })
        ));
        // Reset query with trailing junk inside the declared length.
        let raw = [PROTOCOL_V1, 2, 0, 0, 0, 0, 0, 12, 0, 0, 0, 0];
        assert!(matches!(
            decode_frame(&raw),
            Err(PduError::BadLength { type_code: 2, .. })
        ));
    }

    #[test]
    fn rejects_bad_flags_prefix_and_maxlen() {
        let good = encode(
            &Pdu::Prefix {
                flags: Flags::Announce,
                vrp: vrp("10.0.0.0/8-24 => AS65000"),
            },
            PROTOCOL_V1,
        );

        let mut bad_flags = good.clone();
        bad_flags[8] = 7;
        assert_eq!(decode_frame(&bad_flags), Err(PduError::BadFlags(7)));

        let mut bad_maxlen = good.clone();
        bad_maxlen[10] = 4; // below prefix length 8
        assert!(matches!(
            decode_frame(&bad_maxlen),
            Err(PduError::BadMaxLength { len: 8, max_len: 4 })
        ));

        let mut bad_prefix = good.clone();
        bad_prefix[13] = 1; // host bits set beyond /8
        assert_eq!(decode_frame(&bad_prefix), Err(PduError::BadPrefix));

        let mut bad_len = good;
        bad_len[9] = 33; // prefix length beyond IPv4
        assert_eq!(decode_frame(&bad_len), Err(PduError::BadPrefix));
    }

    #[test]
    fn error_report_with_truncated_inner_rejected() {
        // Error report declaring a longer encapsulated PDU than present:
        // CorruptData, length 16, an inner length of 100 (the lie), no text.
        let raw = [
            [PROTOCOL_V1, 10, 0, 0],
            16u32.to_be_bytes(),
            100u32.to_be_bytes(),
            0u32.to_be_bytes(),
        ]
        .concat();
        assert!(matches!(
            decode_frame(&raw),
            Err(PduError::BadLength { type_code: 10, .. })
        ));
    }

    #[test]
    fn type_codes() {
        assert_eq!(Pdu::ResetQuery.as_wire().type_code(), 2);
        assert_eq!(
            Pdu::Prefix {
                flags: Flags::Announce,
                vrp: vrp("10.0.0.0/8 => AS1")
            }
            .as_wire()
            .type_code(),
            4
        );
        assert_eq!(
            Pdu::Prefix {
                flags: Flags::Announce,
                vrp: vrp("::/0 => AS1")
            }
            .as_wire()
            .type_code(),
            6
        );
    }

    #[test]
    fn wire_len_matches_encoded_size() {
        for pdu in [
            Pdu::ResetQuery,
            Pdu::SerialNotify {
                session_id: 1,
                serial: 2,
            },
            Pdu::Prefix {
                flags: Flags::Announce,
                vrp: vrp("2001:db8::/32-48 => AS65000"),
            },
            Pdu::EndOfData {
                session_id: 1,
                serial: 2,
                timing: Timing::default(),
            },
            Pdu::ErrorReport {
                code: ErrorCode::CorruptData,
                pdu: encode(&Pdu::CacheReset, PROTOCOL_V1),
                text: "ß".into(),
            },
        ] {
            for version in [PROTOCOL_V0, PROTOCOL_V1] {
                let buf = encode(&pdu, version);
                assert_eq!(buf.len(), pdu.wire_len(version), "{pdu:?} v{version}");
            }
        }
    }
}

#[cfg(test)]
mod v0_tests {
    use super::tests::encode;
    use super::*;
    use crate::wire::{decode_frame, Frame};

    #[test]
    fn v0_end_of_data_is_12_bytes_without_timing() {
        let pdu = Pdu::EndOfData {
            session_id: 3,
            serial: 9,
            timing: Timing::default(),
        };
        let buf = encode(&pdu, PROTOCOL_V0);
        assert_eq!(buf.len(), 12);
        assert_eq!(buf[0], PROTOCOL_V0);
        let Frame {
            pdu: back,
            version,
            len,
        } = decode_frame(&buf).unwrap().unwrap();
        assert_eq!(version, PROTOCOL_V0);
        assert_eq!(len, 12);
        // Timing comes back defaulted.
        assert_eq!(back.to_owned(), pdu);
    }

    #[test]
    fn v0_round_trip_other_types() {
        for pdu in [
            Pdu::ResetQuery,
            Pdu::CacheReset,
            Pdu::SerialQuery {
                session_id: 1,
                serial: 2,
            },
            Pdu::Prefix {
                flags: Flags::Announce,
                vrp: "10.0.0.0/8-24 => AS1".parse::<rpki_roa::Vrp>().unwrap(),
            },
        ] {
            let buf = encode(&pdu, PROTOCOL_V0);
            assert_eq!(buf[0], PROTOCOL_V0);
            let frame = decode_frame(&buf).unwrap().unwrap();
            assert_eq!(frame.version, PROTOCOL_V0);
            assert_eq!(frame.pdu.to_owned(), pdu);
        }
    }

    #[test]
    fn v1_end_of_data_must_not_be_12_bytes() {
        // A v1 frame with the v0 End of Data length is corrupt.
        let raw = [PROTOCOL_V1, 7, 0, 3, 0, 0, 0, 12, 0, 0, 0, 9];
        assert!(matches!(
            decode_frame(&raw),
            Err(PduError::BadLength { type_code: 7, .. })
        ));
    }

    #[test]
    fn v0_end_of_data_must_not_carry_timing() {
        let raw = [
            PROTOCOL_V0,
            7,
            0,
            3,
            0,
            0,
            0,
            24,
            0,
            0,
            0,
            9,
            0,
            0,
            14,
            16,
            0,
            0,
            2,
            88,
            0,
            0,
            28,
            32,
        ];
        assert!(matches!(
            decode_frame(&raw),
            Err(PduError::BadLength { type_code: 7, .. })
        ));
    }

    #[test]
    #[should_panic(expected = "unknown protocol version")]
    fn encode_rejects_unknown_version() {
        encode(&Pdu::ResetQuery, 9);
    }
}
