//! The `rpki-roa` decoders of outside bytes through the workspace's one
//! mutation harness (`testkit`): the DER eContent (`decode_roa`), the
//! signed-object envelope (`open_roa`) and the repository walk
//! (`scan_dir_parallel` over a hostile tree). Each must not panic, must
//! not allocate by an unchecked length, and must accept only what it
//! would write itself, byte for byte.
//!
//! CI runs this suite with `PROPTEST_CASES` raised; see
//! `.github/workflows/ci.yml`.

use proptest::prelude::*;
use rpki_roa::codec::encode_roa;
use rpki_roa::envelope::seal_roa;
use testkit::CountingAlloc;

#[global_allocator]
static ALLOC: CountingAlloc = CountingAlloc;

#[path = "support/arb.rs"]
mod arb;
#[path = "support/codecs.rs"]
mod codecs;

use arb::arb_roa;
use codecs::{der_lengths, sample_roas, Der, Scanned, Sealed, SEALED_LENGTHS};

#[test]
fn sample_roas_meet_every_contract() {
    let scanned = Scanned::new();
    for (noise, roa) in (0u64..).zip(sample_roas()) {
        let der = encode_roa(&roa);
        testkit::check(&Der, &der, &der_lengths(&der), noise);
        let sealed = seal_roa(&roa);
        testkit::check(&Sealed, &sealed, SEALED_LENGTHS, noise);
        testkit::check(&scanned, &sealed, SEALED_LENGTHS, noise);
    }
}

proptest! {
    #[test]
    fn der_meets_the_contract(roa in arb_roa(), noise in any::<u64>()) {
        let der = encode_roa(&roa);
        testkit::check(&Der, &der, &der_lengths(&der), noise);
    }

    #[test]
    fn envelope_meets_the_contract(roa in arb_roa(), noise in any::<u64>()) {
        testkit::check(&Sealed, &seal_roa(&roa), SEALED_LENGTHS, noise);
    }

    #[test]
    fn arbitrary_bytes_meet_the_contract(data in prop::collection::vec(any::<u8>(), 0..512)) {
        testkit::verify(&Der, &data);
        testkit::verify(&Sealed, &data);
    }

    #[test]
    fn scan_meets_the_contract(roa in arb_roa(), noise in any::<u64>()) {
        testkit::check(&Scanned::new(), &seal_roa(&roa), SEALED_LENGTHS, noise);
    }
}
