//! Pinned regression frames for the strict wire decoder.
//!
//! Every file in `tests/corpus/` is one wire frame with its expected
//! strict verdict, in a tiny text format:
//!
//! ```text
//! # comment lines
//! expect: ok <type_code>           — accepted; must re-encode canonically
//! expect: incomplete               — needs more bytes, never an error
//! expect: error <rfc_code> <class> — classified rejection (class is
//!                                    `fatal` or `recoverable`)
//! legacy: accepts                  — optional: the legacy codec waved
//!                                    this frame through (the strictness
//!                                    delta the frame pins)
//! <hex bytes, whitespace separated>
//! ```
//!
//! Each frame documents either a strict-decode gap fixed in this layer
//! (with `legacy: accepts` showing the old behavior) or an
//! adversarial-input class the fuzzer covers probabilistically that we
//! want pinned deterministically.

use rpki_rtr::pdu::ErrorCode;
use rpki_rtr::wire::{self, ErrorClass};

#[allow(dead_code)] // the corpus only needs the decoder
#[path = "support/legacy.rs"]
mod legacy;

/// Numeric RFC 8210 error code (the crate keeps the conversion
/// internal; the corpus format speaks raw codes).
fn code_num(code: ErrorCode) -> u16 {
    match code {
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

#[derive(Debug, PartialEq)]
enum Expect {
    Ok { type_code: u8 },
    Incomplete,
    Error { rfc_code: u16, recoverable: bool },
}

struct Case {
    name: String,
    expect: Expect,
    legacy_accepts: bool,
    bytes: Vec<u8>,
}

fn parse_case(name: &str, content: &str) -> Case {
    let mut expect = None;
    let mut legacy_accepts = false;
    let mut bytes = Vec::new();
    for line in content.lines() {
        let line = line.trim();
        if line.is_empty() || line.starts_with('#') {
            continue;
        }
        if let Some(rest) = line.strip_prefix("expect:") {
            let fields: Vec<&str> = rest.split_whitespace().collect();
            expect = Some(match fields.as_slice() {
                ["ok", t] => Expect::Ok {
                    type_code: t.parse().expect("type code"),
                },
                ["incomplete"] => Expect::Incomplete,
                ["error", code, class] => Expect::Error {
                    rfc_code: code.parse().expect("rfc code"),
                    recoverable: match *class {
                        "recoverable" => true,
                        "fatal" => false,
                        other => panic!("{name}: unknown class {other:?}"),
                    },
                },
                other => panic!("{name}: malformed expect line {other:?}"),
            });
        } else if let Some(rest) = line.strip_prefix("legacy:") {
            assert_eq!(rest.trim(), "accepts", "{name}: malformed legacy line");
            legacy_accepts = true;
        } else {
            for tok in line.split_whitespace() {
                bytes.push(u8::from_str_radix(tok, 16).unwrap_or_else(|_| {
                    panic!("{name}: bad hex token {tok:?}");
                }));
            }
        }
    }
    Case {
        name: name.to_string(),
        expect: expect.unwrap_or_else(|| panic!("{name}: missing expect line")),
        legacy_accepts,
        bytes,
    }
}

fn load_corpus() -> Vec<Case> {
    let dir = concat!(env!("CARGO_MANIFEST_DIR"), "/tests/corpus");
    let mut cases = Vec::new();
    for entry in std::fs::read_dir(dir).expect("corpus dir") {
        let path = entry.expect("dir entry").path();
        if path.extension().and_then(|e| e.to_str()) != Some("hex") {
            continue;
        }
        let name = path.file_stem().unwrap().to_string_lossy().into_owned();
        let content = std::fs::read_to_string(&path).expect("corpus file");
        cases.push(parse_case(&name, &content));
    }
    cases.sort_by(|a, b| a.name.cmp(&b.name));
    assert!(cases.len() >= 20, "corpus must not silently shrink");
    cases
}

#[test]
fn corpus_frames_decode_to_pinned_verdicts() {
    for case in load_corpus() {
        let name = &case.name;
        match wire::decode_frame(&case.bytes) {
            Ok(None) => assert_eq!(
                case.expect,
                Expect::Incomplete,
                "{name}: decoder said incomplete"
            ),
            Ok(Some(frame)) => {
                assert_eq!(
                    case.expect,
                    Expect::Ok {
                        type_code: frame.pdu.type_code()
                    },
                    "{name}: decoder accepted type {}",
                    frame.pdu.type_code()
                );
                assert_eq!(frame.len, case.bytes.len(), "{name}: frame length");
                // The canonical-decode invariant, pinned per frame.
                let mut out = Vec::new();
                frame.pdu.encode_into(frame.version, &mut out);
                assert_eq!(out, case.bytes, "{name}: accepted frame must re-encode");
            }
            Err(e) => assert_eq!(
                case.expect,
                Expect::Error {
                    rfc_code: code_num(e.error_code()),
                    recoverable: e.class() == ErrorClass::Recoverable,
                },
                "{name}: decoder rejected with {e:?}"
            ),
        }
    }
}

/// The frames marked `legacy: accepts` are exactly the strictness gap
/// between the codecs: the legacy decoder parses them, the wire layer
/// classifies them.
#[test]
fn legacy_gap_frames_still_decode_under_legacy() {
    let mut gap = 0;
    for case in load_corpus() {
        if !case.legacy_accepts {
            continue;
        }
        gap += 1;
        assert!(
            matches!(case.expect, Expect::Error { .. }),
            "{}: legacy-gap frames are strict-decode rejections",
            case.name
        );
        let legacy_verdict = legacy::decode_versioned(&case.bytes);
        assert!(
            matches!(legacy_verdict, Ok(Some(_))),
            "{}: legacy codec was expected to accept, got {legacy_verdict:?}",
            case.name
        );
    }
    assert!(gap >= 5, "the pinned strictness gap spans several frames");
}
