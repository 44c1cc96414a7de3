//! `PlanCursor::decode`, the executor's checkpoint reader, through the
//! workspace's one mutation harness (`testkit`): a checkpoint is read
//! back from storage the process did not guard, so it must not panic,
//! must not allocate by an unchecked length, and whatever it accepts
//! must read back from its own rendering unchanged.
//!
//! CI runs this suite with `PROPTEST_CASES` raised; see
//! `.github/workflows/ci.yml`.

use proptest::prelude::*;
use testkit::CountingAlloc;

#[global_allocator]
static ALLOC: CountingAlloc = CountingAlloc;

#[path = "support/codecs.rs"]
mod codecs;

use codecs::{checkpoint_text, sample_checkpoints, Checkpoint};

#[test]
fn plan_checkpoints_meet_the_contract() {
    for (noise, text) in (0u64..).zip(sample_checkpoints()) {
        testkit::check(&Checkpoint, text.as_bytes(), &[], noise);
    }
}

proptest! {
    #[test]
    fn arbitrary_checkpoints_meet_the_contract(
        total in 0u64..1 << 20,
        next_frac in 0.0f64..=1.0,
        counters in prop::collection::vec(any::<u64>(), 6),
        cells in prop::collection::vec(any::<u64>(), 0..36),
        noise in any::<u64>(),
    ) {
        let next = (total as f64 * next_frac) as u64;
        let text = checkpoint_text(next, total, &counters, &cells);
        testkit::check(&Checkpoint, text.as_bytes(), &[], noise);
    }

    #[test]
    fn arbitrary_bytes_meet_the_contract(data in prop::collection::vec(any::<u8>(), 0..256)) {
        testkit::verify(&Checkpoint, &data);
    }
}
