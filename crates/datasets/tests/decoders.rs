//! `io::from_str`, the dataset snapshot reader, through the workspace's
//! one mutation harness (`testkit`): it must not panic, must not allocate
//! by an unchecked length, and whatever it accepts must read back from
//! its own rendering unchanged.
//!
//! CI runs this suite with `PROPTEST_CASES` raised; see
//! `.github/workflows/ci.yml`.

use proptest::prelude::*;
use testkit::CountingAlloc;

#[global_allocator]
static ALLOC: CountingAlloc = CountingAlloc;

#[path = "support/codecs.rs"]
mod codecs;

use codecs::{generated_text, sample_texts, SnapshotText};

#[test]
fn sample_texts_meet_the_contract() {
    for (noise, text) in (0u64..).zip(sample_texts()) {
        testkit::check(&SnapshotText, text.as_bytes(), &[], noise);
    }
}

proptest! {
    #[test]
    fn generated_snapshots_meet_the_contract(
        seed in any::<u64>(),
        week in 0usize..8,
        skip in 0usize..64,
        roas in 0usize..4,
        routes in 0usize..4,
        noise in any::<u64>(),
    ) {
        let text = generated_text(seed, week, skip, roas, routes);
        testkit::check(&SnapshotText, text.as_bytes(), &[], noise);
    }

    #[test]
    fn arbitrary_bytes_meet_the_contract(data in prop::collection::vec(any::<u8>(), 0..256)) {
        testkit::verify(&SnapshotText, &data);
    }
}
