//! Pinned hostile inputs for the `rpki-roa` decoders.
//!
//! Every file in `tests/corpus/` is one input with its expected verdict,
//! in the text format of `rpki-rtr`'s frame corpus:
//!
//! ```text
//! # comment lines
//! decoder: der | envelope      — `codec::decode_roa` or `envelope::open_roa`
//! expect: ok                   — accepted; must re-encode byte-identically
//! expect: error <Debug>        — rejected with exactly this error
//! <hex bytes, whitespace separated>
//! ```
//!
//! Between them the files raise every `DerError` and `EnvelopeError`
//! variant, plus the DER length forms a strict decoder must refuse
//! (indefinite, non-minimal long form, nine length octets), a dirty bit
//! string and bytes after a sealed payload.

use std::collections::BTreeSet;
use std::fs;
use std::path::Path;

use rpki_roa::codec::{decode_roa, encode_roa};
use rpki_roa::envelope::{open_roa, seal_roa};

struct Case {
    name: String,
    decoder: String,
    expect: String,
    bytes: Vec<u8>,
}

fn parse_case(name: &str, content: &str) -> Case {
    let (mut decoder, mut expect, mut hex) = (None, None, String::new());
    for line in content.lines().map(str::trim) {
        if line.is_empty() || line.starts_with('#') {
            continue;
        }
        if let Some(rest) = line.strip_prefix("decoder:") {
            decoder = Some(rest.trim().to_string());
        } else if let Some(rest) = line.strip_prefix("expect:") {
            expect = Some(rest.trim().to_string());
        } else {
            hex.push_str(line);
        }
    }
    let hex: Vec<u8> = hex.bytes().filter(|b| !b.is_ascii_whitespace()).collect();
    let bytes = hex
        .chunks(2)
        .map(|pair| {
            u8::from_str_radix(std::str::from_utf8(pair).unwrap(), 16)
                .unwrap_or_else(|_| panic!("{name}: bad hex"))
        })
        .collect();
    Case {
        name: name.to_string(),
        decoder: decoder.unwrap_or_else(|| panic!("{name}: no decoder line")),
        expect: expect.unwrap_or_else(|| panic!("{name}: no expect line")),
        bytes,
    }
}

fn load_corpus() -> Vec<Case> {
    let dir = Path::new(env!("CARGO_MANIFEST_DIR")).join("tests/corpus");
    let mut cases: Vec<Case> = fs::read_dir(&dir)
        .expect("corpus directory")
        .map(|entry| entry.unwrap().path())
        .filter(|path| path.extension().is_some_and(|e| e == "hex"))
        .map(|path| {
            let name = path.file_stem().unwrap().to_string_lossy().into_owned();
            parse_case(&name, &fs::read_to_string(&path).unwrap())
        })
        .collect();
    cases.sort_by(|a, b| a.name.cmp(&b.name));
    cases
}

/// The decoder's verdict in the corpus's `expect:` spelling.
fn verdict<T, E: std::fmt::Debug>(
    result: Result<T, E>,
    encode: impl FnOnce(&T) -> Vec<u8>,
    input: &[u8],
) -> String {
    match result {
        Ok(value) => {
            assert_eq!(encode(&value), input, "an accepted input must re-encode");
            "ok".to_string()
        }
        Err(e) => format!("error {e:?}"),
    }
}

#[test]
fn corpus_verdicts_match() {
    let cases = load_corpus();
    assert!(cases.len() >= 17, "corpus went missing: {}", cases.len());
    for case in &cases {
        let got = match case.decoder.as_str() {
            "der" => verdict(decode_roa(&case.bytes), encode_roa, &case.bytes),
            "envelope" => verdict(open_roa(&case.bytes), seal_roa, &case.bytes),
            other => panic!("{}: unknown decoder {other}", case.name),
        };
        assert_eq!(got, case.expect, "{}", case.name);
    }
}

/// At least one file per error variant of each decoder.
#[test]
fn corpus_covers_every_error_variant() {
    let cases = load_corpus();
    let covered: BTreeSet<(&str, &str)> = cases
        .iter()
        .filter_map(|case| {
            let err = case.expect.strip_prefix("error ")?;
            let variant = err.split(['(', ' ']).next()?;
            Some((case.decoder.as_str(), variant))
        })
        .collect();
    let der = [
        "Truncated",
        "UnexpectedTag",
        "BadLength",
        "BadInteger",
        "BadBitString",
        "TrailingBytes",
        "BadValue",
    ];
    let envelope = [
        "BadMagic",
        "BadVersion",
        "Truncated",
        "TrailingBytes",
        "DigestMismatch",
        "Content",
    ];
    for variant in der {
        assert!(covered.contains(&("der", variant)), "DerError::{variant}");
    }
    for variant in envelope {
        assert!(
            covered.contains(&("envelope", variant)),
            "EnvelopeError::{variant}"
        );
    }
}
