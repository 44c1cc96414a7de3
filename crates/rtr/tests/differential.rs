//! Differential battery: the zero-copy cursor codec against the legacy
//! allocating codec it replaced.
//!
//! On **valid** PDUs the two codecs must be indistinguishable — same
//! bytes out of the encoder, same PDU back from the decoder, at both
//! protocol versions, one frame at a time and concatenated into streams.
//! The corpus is a deterministic edge-value sweep of every variant plus
//! a randomized layer on top.
//!
//! (On *malformed* input the codecs intentionally differ — the strict
//! decoder rejects what the legacy one waved through; those frames live
//! in `tests/corpus/` with the strict verdict pinned.)

use bytes::{Bytes, BytesMut};
use proptest::prelude::*;
use rpki_prefix::{Prefix, Prefix4, Prefix6};
use rpki_roa::{Asn, Vrp};
use rpki_rtr::pdu::{ErrorCode, Flags, Pdu, Timing, PROTOCOL_V0, PROTOCOL_V1};

#[path = "support/legacy.rs"]
mod legacy;

fn v4(bits: u32, len: u8, max_len: u8, asn: u32) -> Vrp {
    Vrp::new(
        Prefix::V4(Prefix4::new(bits, len).unwrap()),
        max_len,
        Asn(asn),
    )
}

fn v6(bits: u128, len: u8, max_len: u8, asn: u32) -> Vrp {
    Vrp::new(
        Prefix::V6(Prefix6::new(bits, len).unwrap()),
        max_len,
        Asn(asn),
    )
}

/// Every PDU variant at its edge values: zero/max ids and serials,
/// host-route and default-route prefixes, maxLength at both ends of its
/// window, empty / embedded / multi-byte-UTF-8 Error Reports.
fn deterministic_corpus() -> Vec<Pdu> {
    let mut out = vec![
        Pdu::SerialNotify {
            session_id: 0,
            serial: 0,
        },
        Pdu::SerialNotify {
            session_id: u16::MAX,
            serial: u32::MAX,
        },
        Pdu::SerialQuery {
            session_id: 0x1234,
            serial: 0x8000_0000,
        },
        Pdu::ResetQuery,
        Pdu::CacheResponse { session_id: 0 },
        Pdu::CacheResponse {
            session_id: u16::MAX,
        },
        Pdu::CacheReset,
        Pdu::EndOfData {
            session_id: 7,
            serial: 42,
            timing: Timing::default(),
        },
        Pdu::EndOfData {
            session_id: u16::MAX,
            serial: u32::MAX,
            timing: Timing {
                refresh: 0,
                retry: 0,
                expire: 0,
            },
        },
    ];
    for flags in [Flags::Announce, Flags::Withdraw] {
        out.push(Pdu::Prefix {
            flags,
            vrp: v4(0, 0, 0, 0),
        });
        out.push(Pdu::Prefix {
            flags,
            vrp: v4(0, 0, 32, u32::MAX),
        });
        out.push(Pdu::Prefix {
            flags,
            vrp: v4(0xffff_ffff, 32, 32, 64512),
        });
        out.push(Pdu::Prefix {
            flags,
            vrp: v4(0x0a00_0000, 8, 24, 65001),
        });
        out.push(Pdu::Prefix {
            flags,
            vrp: v6(0, 0, 0, 1),
        });
        out.push(Pdu::Prefix {
            flags,
            vrp: v6(u128::MAX, 128, 128, 2),
        });
        out.push(Pdu::Prefix {
            flags,
            vrp: v6(0x2001_0db8 << 96, 32, 48, 3),
        });
    }
    for (inner, text) in [
        (vec![], String::new()),
        (vec![], "plain ascii diagnostic".to_string()),
        (
            Pdu::ResetQuery.to_bytes().to_vec(),
            "reset query rejected".to_string(),
        ),
        (vec![0u8; 3], "é€𝄞🦀 multi-byte".to_string()),
        (vec![0xff; 40], "\u{10FFFF}\u{0301}".to_string()),
    ] {
        for code in [
            ErrorCode::CorruptData,
            ErrorCode::InternalError,
            ErrorCode::NoDataAvailable,
            ErrorCode::InvalidRequest,
            ErrorCode::UnsupportedVersion,
            ErrorCode::UnsupportedPduType,
            ErrorCode::WithdrawalOfUnknown,
            ErrorCode::DuplicateAnnouncement,
            ErrorCode::UnexpectedVersion,
        ] {
            out.push(Pdu::ErrorReport {
                code,
                pdu: Bytes::from(inner.clone()),
                text: text.clone(),
            });
        }
    }
    out
}

fn encode_new(pdu: &Pdu, version: u8) -> Vec<u8> {
    let mut buf = BytesMut::new();
    pdu.encode_versioned(version, &mut buf);
    buf.to_vec()
}

fn encode_old(pdu: &Pdu, version: u8) -> Vec<u8> {
    let mut buf = BytesMut::new();
    legacy::encode_versioned(pdu, version, &mut buf);
    buf.to_vec()
}

/// Asserts full codec agreement on one valid PDU at one version.
fn assert_agreement(pdu: &Pdu, version: u8) {
    let new_bytes = encode_new(pdu, version);
    let old_bytes = encode_old(pdu, version);
    assert_eq!(
        new_bytes, old_bytes,
        "encoders must agree on {pdu:?} at v{version}"
    );
    let (new_pdu, new_used, new_v) = Pdu::decode_versioned(&new_bytes)
        .expect("strict decode of a valid frame")
        .expect("complete frame");
    let (old_pdu, old_used, old_v) = legacy::decode_versioned(&new_bytes)
        .expect("legacy decode of a valid frame")
        .expect("complete frame");
    assert_eq!((new_used, new_v), (old_used, old_v), "framing must agree");
    assert_eq!(
        new_pdu, old_pdu,
        "decoders must agree on {pdu:?} at v{version}"
    );
}

#[test]
fn codecs_agree_on_deterministic_corpus() {
    let corpus = deterministic_corpus();
    assert!(corpus.len() > 60, "the edge sweep covers every variant");
    for version in [PROTOCOL_V0, PROTOCOL_V1] {
        for pdu in &corpus {
            assert_agreement(pdu, version);
        }
    }
}

#[test]
fn codecs_agree_on_concatenated_corpus_stream() {
    // The whole corpus as one byte stream, decoded frame by frame with
    // both codecs walking in lockstep.
    let corpus = deterministic_corpus();
    for version in [PROTOCOL_V0, PROTOCOL_V1] {
        let mut stream = Vec::new();
        for pdu in &corpus {
            stream.extend_from_slice(&encode_new(pdu, version));
        }
        let mut view: &[u8] = &stream;
        let mut count = 0;
        while !view.is_empty() {
            let (new_pdu, new_used, _) = Pdu::decode_versioned(view).unwrap().unwrap();
            let (old_pdu, old_used, _) = legacy::decode_versioned(view).unwrap().unwrap();
            assert_eq!(new_pdu, old_pdu);
            assert_eq!(new_used, old_used);
            view = &view[new_used..];
            count += 1;
        }
        assert_eq!(count, corpus.len());
    }
}

// ---------------------------------------------------------------------
// Randomized layer
// ---------------------------------------------------------------------

fn arb_vrp() -> impl Strategy<Value = Vrp> {
    prop_oneof![
        (any::<u32>(), 0u8..=32, 0u8..=8, any::<u32>()).prop_map(|(b, l, e, a)| {
            let p = Prefix::V4(Prefix4::new_truncated(b, l));
            Vrp::new(p, l.saturating_add(e), Asn(a))
        }),
        (any::<u128>(), 0u8..=128, 0u8..=8, any::<u32>()).prop_map(|(b, l, e, a)| {
            let p = Prefix::V6(Prefix6::new_truncated(b, l));
            Vrp::new(p, l.saturating_add(e), Asn(a))
        }),
    ]
}

fn arb_pdu() -> impl Strategy<Value = Pdu> {
    prop_oneof![
        (any::<u16>(), any::<u32>()).prop_map(|(s, n)| Pdu::SerialNotify {
            session_id: s,
            serial: n
        }),
        (any::<u16>(), any::<u32>()).prop_map(|(s, n)| Pdu::SerialQuery {
            session_id: s,
            serial: n
        }),
        Just(Pdu::ResetQuery),
        any::<u16>().prop_map(|s| Pdu::CacheResponse { session_id: s }),
        (any::<bool>(), arb_vrp()).prop_map(|(a, vrp)| Pdu::Prefix {
            flags: if a { Flags::Announce } else { Flags::Withdraw },
            vrp,
        }),
        (
            any::<u16>(),
            any::<u32>(),
            any::<u32>(),
            any::<u32>(),
            any::<u32>()
        )
            .prop_map(|(s, n, r, t, e)| Pdu::EndOfData {
                session_id: s,
                serial: n,
                timing: Timing {
                    refresh: r,
                    retry: t,
                    expire: e
                },
            }),
        Just(Pdu::CacheReset),
        (prop::collection::vec(any::<u8>(), 0..64), ".*{0,32}").prop_map(|(mut inner, text)| {
            // RFC 8210 §5.10: no nested Error Reports in valid traffic.
            if inner.len() >= 2 && inner[1] == 10 {
                inner[1] = 0;
            }
            Pdu::ErrorReport {
                code: ErrorCode::CorruptData,
                pdu: Bytes::from(inner),
                text,
            }
        }),
    ]
}

proptest! {
    #[test]
    fn codecs_agree_on_random_pdus(pdu in arb_pdu(), v1 in any::<bool>()) {
        let version = if v1 { PROTOCOL_V1 } else { PROTOCOL_V0 };
        assert_agreement(&pdu, version);
    }

    /// Streams of random valid PDUs decode identically under both
    /// codecs, at both versions.
    #[test]
    fn codecs_agree_on_random_streams(pdus in prop::collection::vec(arb_pdu(), 0..12), v1 in any::<bool>()) {
        let version = if v1 { PROTOCOL_V1 } else { PROTOCOL_V0 };
        let mut stream = Vec::new();
        for pdu in &pdus {
            stream.extend_from_slice(&encode_new(pdu, version));
        }
        let mut view: &[u8] = &stream;
        let mut decoded = 0usize;
        while !view.is_empty() {
            let (new_pdu, new_used, _) = Pdu::decode_versioned(view).unwrap().unwrap();
            let (old_pdu, old_used, _) = legacy::decode_versioned(view).unwrap().unwrap();
            prop_assert_eq!(new_pdu, old_pdu);
            prop_assert_eq!(new_used, old_used);
            view = &view[new_used..];
            decoded += 1;
        }
        prop_assert_eq!(decoded, pdus.len());
    }
}
