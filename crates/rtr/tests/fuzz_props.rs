//! Adversarial fuzzing + round-trip battery for the zero-copy wire codec.
//!
//! Three families of properties, all driven through the *public* entry
//! points ([`rpki_rtr::decode_frame`], [`PduRef::encode_into`],
//! [`CacheServer::handle_wire`]):
//!
//! 1. **Mutation fuzz** — valid frames put through the workspace's one
//!    mutation harness (`testkit`: truncation, length-field lies, byte
//!    flips, splices) and through version/type/flag garbage. The decoder
//!    must never panic, must not allocate by an unchecked length, must
//!    classify every rejection into the [`PduError`] taxonomy, and
//!    anything it *accepts* must re-encode bit-identically (the
//!    canonical-decode invariant, which rules out misparses).
//! 2. **Round-trip** — every PDU variant, both protocol versions,
//!    including the 65 536-byte maximum Error Report and multi-byte
//!    UTF-8 diagnostic text: `decode(encode(p)) == p` and
//!    `encode(decode(bytes)) == bytes`.
//! 3. **Server agreement** — [`CacheServer::handle_wire`] must mirror the
//!    decoder exactly: incomplete input ⇒ `NeedBytes`, a decodable
//!    request ⇒ `Responded`, a classified error ⇒ `Teardown` carrying the
//!    same error, with an on-wire Error Report at the error's RFC code.
//!
//! CI runs this suite with `PROPTEST_CASES` raised well beyond the local
//! default; see `.github/workflows/ci.yml`.

use proptest::prelude::*;
use rpki_prefix::{Prefix, Prefix4, Prefix6};
use rpki_roa::{Asn, Vrp};
use rpki_rtr::cache::{CacheServer, WireOutcome};
use rpki_rtr::pdu::{ErrorCode, Flags, Pdu, Timing, PROTOCOL_V0, PROTOCOL_V1};
use rpki_rtr::wire::{self, ErrorClass, PduError, PduRef, HEADER_LEN, MAX_PDU_LEN};
use testkit::{CountingAlloc, Op};

#[global_allocator]
static ALLOC: CountingAlloc = CountingAlloc;

#[path = "support/codecs.rs"]
mod codecs;

use codecs::{frame_lengths, Frame, HEADER_LENGTH};

// ---------------------------------------------------------------------
// Generators
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

/// UTF-8 edge material: ASCII, 2/3/4-byte scalars, combining marks, a
/// zero-width joiner, and a noncharacter that is still valid UTF-8.
const UTF8_EDGES: &[char] = &[
    'a',
    'Z',
    '\0',
    '\u{7f}',
    'é',
    'ß',
    '\u{7ff}',
    '€',
    '\u{800}',
    '\u{fffd}',
    '\u{ffff}',
    '𝄞',
    '🦀',
    '\u{10FFFF}',
    '\u{0301}',
    '\u{200d}',
];

fn arb_text() -> impl Strategy<Value = String> {
    prop::collection::vec(0usize..UTF8_EDGES.len(), 0..24)
        .prop_map(|idx| idx.into_iter().map(|i| UTF8_EDGES[i]).collect())
}

/// Inner bytes for an Error Report: arbitrary, but steered away from an
/// encapsulated Error Report (forbidden by RFC 8210 §5.10).
fn arb_inner() -> impl Strategy<Value = Vec<u8>> {
    prop::collection::vec(any::<u8>(), 0..64).prop_map(|mut inner| {
        if inner.len() >= 2 && inner[1] == 10 {
            inner[1] = 0;
        }
        inner
    })
}

/// All nine RFC 8210 error codes.
const ERROR_CODES: &[ErrorCode] = &[
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

fn arb_error_code() -> impl Strategy<Value = ErrorCode> {
    (0usize..ERROR_CODES.len()).prop_map(|i| ERROR_CODES[i])
}

/// Every PDU variant the codec speaks.
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
        (arb_error_code(), arb_inner(), arb_text())
            .prop_map(|(code, pdu, text)| { Pdu::ErrorReport { code, pdu, text } }),
    ]
}

fn arb_version() -> impl Strategy<Value = u8> {
    prop_oneof![Just(PROTOCOL_V0), Just(PROTOCOL_V1)]
}

fn encode(pdu: &Pdu, version: u8) -> Vec<u8> {
    let mut buf = Vec::new();
    pdu.as_wire().encode_into(version, &mut buf);
    buf
}

/// What a lossless decode at `version` should hand back: v0 has no
/// timing fields, so End of Data timing collapses to the RFC 8210
/// defaults on the way through the wire.
fn normalize(pdu: &Pdu, version: u8) -> Pdu {
    match pdu {
        Pdu::EndOfData {
            session_id, serial, ..
        } if version == PROTOCOL_V0 => Pdu::EndOfData {
            session_id: *session_id,
            serial: *serial,
            timing: Timing::default(),
        },
        other => other.clone(),
    }
}

// ---------------------------------------------------------------------
// Deterministic edges
// ---------------------------------------------------------------------

/// The largest legal Error Report: declared length exactly
/// `MAX_PDU_LEN`, payload split between embedded PDU and UTF-8 text.
#[test]
fn max_length_error_report_round_trips() {
    let payload = MAX_PDU_LEN - HEADER_LEN - 4 - 4;
    let inner_len = payload / 2;
    let text_len = payload - inner_len;
    let pdu = Pdu::ErrorReport {
        code: ErrorCode::CorruptData,
        pdu: vec![0u8; inner_len],
        text: "x".repeat(text_len),
    };
    for version in [PROTOCOL_V0, PROTOCOL_V1] {
        let bytes = encode(&pdu, version);
        assert_eq!(bytes.len(), MAX_PDU_LEN);
        let frame = wire::decode_frame(&bytes).unwrap().unwrap();
        assert_eq!((frame.len, frame.version), (bytes.len(), version));
        assert_eq!(frame.pdu.to_owned(), pdu);
        testkit::verify(&Frame, &bytes);
    }
}

/// One byte over the line: declared length `MAX_PDU_LEN + 1` must be a
/// classified error, not an allocation attempt.
#[test]
fn oversized_declared_length_is_rejected() {
    let mut frame = vec![1u8, 10, 0, 0, 0, 0, 0, 0];
    let len = (MAX_PDU_LEN + 1) as u32;
    frame[4..8].copy_from_slice(&len.to_be_bytes());
    match wire::decode_frame(&frame) {
        Err(PduError::BadLength {
            type_code: 10,
            length,
        }) => {
            assert_eq!(length, MAX_PDU_LEN + 1);
        }
        other => panic!("expected BadLength, got {other:?}"),
    }
}

/// A v0 End of Data is 12 bytes and surfaces the RFC 8210 default
/// timing; a v1 one is 24 bytes and carries its own.
#[test]
fn end_of_data_version_layouts() {
    let pdu = Pdu::EndOfData {
        session_id: 7,
        serial: 42,
        timing: Timing {
            refresh: 1,
            retry: 2,
            expire: 3,
        },
    };
    let v0 = encode(&pdu, PROTOCOL_V0);
    let v1 = encode(&pdu, PROTOCOL_V1);
    assert_eq!((v0.len(), v1.len()), (12, 24));
    let back0 = wire::decode_frame(&v0).unwrap().unwrap().pdu.to_owned();
    assert_eq!(back0, normalize(&pdu, PROTOCOL_V0));
    assert!(
        matches!(back0, Pdu::EndOfData { timing, .. } if timing == Timing::default()),
        "v0 End of Data must surface default timing"
    );
    let back1 = wire::decode_frame(&v1).unwrap().unwrap().pdu.to_owned();
    assert_eq!(back1, pdu);
}

// ---------------------------------------------------------------------
// Properties
// ---------------------------------------------------------------------

proptest! {
    /// `decode(encode(p)) == p` for every variant at both versions (up
    /// to the v0 timing collapse), and the encoding is canonical.
    #[test]
    fn round_trip_both_versions(pdu in arb_pdu(), version in arb_version()) {
        let bytes = encode(&pdu, version);
        prop_assert_eq!(bytes.len(), pdu.wire_len(version));
        let frame = wire::decode_frame(&bytes).unwrap().unwrap();
        prop_assert_eq!(frame.len, bytes.len());
        prop_assert_eq!(frame.version, version);
        prop_assert_eq!(frame.pdu.to_owned(), normalize(&pdu, version));
        testkit::verify(&Frame, &bytes);
    }

    /// `encode(decode(bytes)) == bytes` on arbitrary input: whatever the
    /// strict decoder accepts, it accepts canonically.
    #[test]
    fn arbitrary_accepted_bytes_are_canonical(data in prop::collection::vec(any::<u8>(), 0..128)) {
        testkit::verify(&Frame, &data);
    }

    /// Every harness mutant of a valid frame meets the decoder contract.
    #[test]
    fn mutants_meet_the_contract(pdu in arb_pdu(), version in arb_version(), noise in any::<u64>()) {
        let bytes = encode(&pdu, version);
        testkit::check(&Frame, &bytes, &frame_lengths(&bytes), noise);
    }

    /// The framer's verdicts on those mutants: a cut short of the end is
    /// always "incomplete", never an error and never a different PDU; a
    /// header length lie waits for more bytes only when it claims more
    /// than was buffered and no more than the frame cap, and is
    /// otherwise fatal.
    #[test]
    fn mutants_are_classified(pdu in arb_pdu(), version in arb_version(), noise in any::<u64>()) {
        let bytes = encode(&pdu, version);
        testkit::for_each_mutant(&bytes, &frame_lengths(&bytes), noise, |op, m| {
            let verdict = wire::decode_frame(m);
            match op {
                Op::Truncate => assert_eq!(verdict.map(|f| f.map(|_| ())), Ok(None), "{m:02x?}"),
                Op::LengthLie if m[..8] != bytes[..8] => {
                    let lie = u32::from_be_bytes(m[HEADER_LENGTH.at..][..4].try_into().unwrap());
                    match verdict {
                        Ok(None) => assert!(
                            (lie as usize) > m.len() && (lie as usize) <= MAX_PDU_LEN,
                            "{lie} {m:02x?}"
                        ),
                        Ok(Some(_)) => {}
                        Err(e) => assert_eq!(e.class(), ErrorClass::Fatal, "{m:02x?}"),
                    }
                }
                _ => {}
            }
        });
    }

    /// Garbage in the version byte: only 0 and 1 exist; anything above
    /// is the one *recoverable* error (version negotiation).
    #[test]
    fn version_garbage_is_classified(pdu in arb_pdu(), version in arb_version(), garbage in 2u8..=255) {
        let mut bytes = encode(&pdu, version);
        bytes[0] = garbage;
        match wire::decode_frame(&bytes) {
            Err(PduError::BadVersion(v)) => {
                prop_assert_eq!(v, garbage);
                prop_assert_eq!(PduError::BadVersion(v).class(), ErrorClass::Recoverable);
            }
            other => prop_assert!(false, "expected BadVersion, got {:?}", other),
        }
    }

    /// Garbage in the type byte never panics; unknown and unimplemented
    /// types classify as fatal `BadType`.
    #[test]
    fn type_garbage_is_classified(pdu in arb_pdu(), version in arb_version(), garbage in any::<u8>()) {
        let mut bytes = encode(&pdu, version);
        bytes[1] = garbage;
        match wire::decode_frame(&bytes) {
            Ok(Some(_)) => assert!(testkit::verify(&Frame, &bytes)),
            Ok(None) => {}
            Err(e) => {
                prop_assert_eq!(e.class(), ErrorClass::Fatal);
                if !matches!(garbage, 0..=8 | 10) {
                    prop_assert_eq!(e, PduError::BadType(garbage));
                }
            }
        }
    }

    /// Garbage in a Prefix PDU's flags or AFI-determined fields: byte 8
    /// is the flags slot, byte 11 the reserved slot — both strictly
    /// checked.
    #[test]
    fn prefix_flag_and_reserved_garbage(vrp in arb_vrp(), version in arb_version(), flags in 2u8..=255, reserved in 1u8..=255) {
        let pdu = Pdu::Prefix { flags: Flags::Announce, vrp };
        let mut bytes = encode(&pdu, version);
        bytes[8] = flags;
        prop_assert_eq!(wire::decode_frame(&bytes), Err(PduError::BadFlags(flags)));
        bytes[8] = 1;
        bytes[11] = reserved;
        let type_code = pdu.as_wire().type_code();
        prop_assert_eq!(
            wire::decode_frame(&bytes),
            Err(PduError::NonZeroReserved { type_code, offset: 11 })
        );
    }

    /// The server's wire loop agrees with the decoder on arbitrary
    /// bytes: incomplete ⇒ `NeedBytes`, error ⇒ `Teardown` with the same
    /// classified error and an on-wire Error Report at its RFC code.
    #[test]
    fn handle_wire_matches_decoder(data in prop::collection::vec(any::<u8>(), 0..96)) {
        let cache = CacheServer::new(77, &[]);
        let mut negotiation = cache.negotiation();
        let mut out = Vec::new();
        let outcome = cache.handle_wire(&data, &mut negotiation, &mut out);
        match wire::decode_frame(&data) {
            Ok(None) => prop_assert_eq!(outcome, WireOutcome::NeedBytes),
            Ok(Some(frame)) => match outcome {
                WireOutcome::Responded { consumed } => prop_assert_eq!(consumed, frame.len),
                other => prop_assert!(false, "decodable frame but {:?}", other),
            },
            Err(e) => match outcome {
                WireOutcome::Teardown { error, .. } => {
                    prop_assert_eq!(&error, &e);
                    // The teardown report is itself a valid frame
                    // carrying the error's RFC code.
                    let report = wire::decode_frame(&out).unwrap().unwrap();
                    prop_assert_eq!(report.len, out.len());
                    match report.pdu {
                        PduRef::ErrorReport { code, .. } => prop_assert_eq!(code, e.error_code()),
                        other => prop_assert!(false, "teardown must report an error: {:?}", other),
                    }
                }
                other => prop_assert!(false, "decode error {:?} but {:?}", e, other),
            },
        }
    }

    /// Mutated *valid* traffic through the server (every harness mutant
    /// of a frame): a fatal error tears the session down; everything
    /// accepted keeps it open.
    #[test]
    fn handle_wire_teardown_iff_fatal_or_mismatch(
        pdu in arb_pdu(),
        version in arb_version(),
        noise in any::<u64>(),
    ) {
        let frame = encode(&pdu, version);
        let cache = CacheServer::new(9, &[]);
        testkit::for_each_mutant(&frame, &frame_lengths(&frame), noise, |_, bytes| {
            let mut negotiation = cache.negotiation();
            let mut out = Vec::new();
            match cache.handle_wire(bytes, &mut negotiation, &mut out) {
                WireOutcome::Teardown { error, .. } => {
                    // Teardown exactly when the decoder rejects (the v1
                    // cache accepts both versions, so negotiation can't
                    // fail here on a first frame).
                    assert_eq!(wire::decode_frame(bytes), Err(error));
                }
                WireOutcome::Responded { consumed } => {
                    let frame = wire::decode_frame(bytes).unwrap().unwrap();
                    assert_eq!(consumed, frame.len);
                    assert_eq!(negotiation.version(), Some(frame.version));
                }
                WireOutcome::NeedBytes => {
                    assert_eq!(wire::decode_frame(bytes).unwrap().map(|_| ()), None);
                }
            }
        });
    }

    /// Version pinning under fuzz: once a session speaks `version`, a
    /// frame at the other version is a fatal `VersionMismatch` teardown.
    #[test]
    fn pinned_session_rejects_other_version(pdu in arb_pdu(), version in arb_version()) {
        let cache = CacheServer::new(5, &[]);
        let mut negotiation = cache.negotiation();
        let mut out = Vec::new();
        let first = encode(&Pdu::ResetQuery, version);
        let outcome = cache.handle_wire(&first, &mut negotiation, &mut out);
        prop_assert!(matches!(outcome, WireOutcome::Responded { .. }));
        let other_version = 1 - version;
        out.clear();
        let second = encode(&pdu, other_version);
        match cache.handle_wire(&second, &mut negotiation, &mut out) {
            WireOutcome::Teardown { error, .. } => {
                prop_assert_eq!(
                    error,
                    PduError::VersionMismatch { negotiated: version, got: other_version }
                );
                prop_assert_eq!(
                    PduError::VersionMismatch { negotiated: version, got: other_version }.class(),
                    ErrorClass::Fatal
                );
            }
            other => prop_assert!(false, "pinned session must tear down: {:?}", other),
        }
    }
}
