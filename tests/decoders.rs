//! Every decoder of bytes the workspace did not write, through the one
//! mutation harness (`testkit`) at a tiny scale: the DER eContent, the
//! signed-object envelope, the repository scan, dataset snapshots,
//! executor checkpoints and RTR frames. Each must not panic, must not
//! allocate by an unchecked length, and must accept only what re-encodes
//! canonically.
//!
//! The codecs and seeds are the crates' own (their `tests/support/`);
//! the crates' suites run the same harness over generated inputs at a
//! property-test case count CI raises.

use rpki_roa::codec::encode_roa;
use rpki_roa::envelope::seal_roa;
use rpki_roa::Vrp;
use rpki_rtr::pdu::{ErrorCode, Flags, Pdu, Timing, PROTOCOL_V0, PROTOCOL_V1};
use testkit::CountingAlloc;

#[global_allocator]
static ALLOC: CountingAlloc = CountingAlloc;

#[path = "../crates/roa/tests/support/codecs.rs"]
mod roa_codecs;

#[path = "../crates/datasets/tests/support/codecs.rs"]
mod dataset_codecs;

#[allow(dead_code)] // the generated-checkpoint builder serves the crate's suite
#[path = "../crates/bgpsim/tests/support/codecs.rs"]
mod checkpoint_codecs;

#[path = "../crates/rtr/tests/support/codecs.rs"]
mod frame_codecs;

#[test]
fn roa_der_and_envelope_meet_the_contract() {
    for (noise, roa) in (0u64..).zip(roa_codecs::sample_roas()) {
        let der = encode_roa(&roa);
        testkit::check(
            &roa_codecs::Der,
            &der,
            &roa_codecs::der_lengths(&der),
            noise,
        );
        let sealed = seal_roa(&roa);
        testkit::check(
            &roa_codecs::Sealed,
            &sealed,
            roa_codecs::SEALED_LENGTHS,
            noise,
        );
    }
}

#[cfg(unix)]
#[test]
fn repository_scan_meets_the_contract() {
    let roa = &roa_codecs::sample_roas()[0];
    let scanned = roa_codecs::Scanned::new();
    testkit::check(&scanned, &seal_roa(roa), roa_codecs::SEALED_LENGTHS, 1);
}

#[test]
fn dataset_snapshots_meet_the_contract() {
    for (noise, text) in (0u64..).zip(dataset_codecs::sample_texts()) {
        testkit::check(&dataset_codecs::SnapshotText, text.as_bytes(), &[], noise);
    }
}

#[test]
fn executor_checkpoints_meet_the_contract() {
    for (noise, text) in (0u64..).zip(checkpoint_codecs::sample_checkpoints()) {
        testkit::check(&checkpoint_codecs::Checkpoint, text.as_bytes(), &[], noise);
    }
}

#[test]
fn rtr_frames_meet_the_contract() {
    let vrp4: Vrp = "87.254.32.0/19-20 => AS31283".parse().unwrap();
    let vrp6: Vrp = "2001:db8::/32-48 => AS65000".parse().unwrap();
    let frames = [
        (PROTOCOL_V1, Pdu::ResetQuery),
        (
            PROTOCOL_V0,
            Pdu::SerialQuery {
                session_id: 7,
                serial: 42,
            },
        ),
        (
            PROTOCOL_V1,
            Pdu::Prefix {
                flags: Flags::Announce,
                vrp: vrp4,
            },
        ),
        (
            PROTOCOL_V0,
            Pdu::Prefix {
                flags: Flags::Withdraw,
                vrp: vrp6,
            },
        ),
        (
            PROTOCOL_V1,
            Pdu::EndOfData {
                session_id: 7,
                serial: 43,
                timing: Timing::default(),
            },
        ),
        (
            PROTOCOL_V1,
            Pdu::ErrorReport {
                code: ErrorCode::CorruptData,
                pdu: vec![1, 2, 0, 0, 0, 0, 0, 8],
                text: "bad frame: é".to_string(),
            },
        ),
    ];
    for (noise, (version, pdu)) in (0u64..).zip(frames) {
        let mut bytes = Vec::new();
        pdu.as_wire().encode_into(version, &mut bytes);
        testkit::check(
            &frame_codecs::Frame,
            &bytes,
            &frame_codecs::frame_lengths(&bytes),
            noise,
        );
    }
}
