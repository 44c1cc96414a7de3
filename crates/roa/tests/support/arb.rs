//! Property-test generators for well-formed ROAs.

use proptest::prelude::*;
use rpki_prefix::{Prefix, Prefix4, Prefix6};
use rpki_roa::{Asn, Roa, RoaPrefix};

pub fn arb_prefix() -> impl Strategy<Value = Prefix> {
    prop_oneof![
        (any::<u32>(), 0u8..=32).prop_map(|(b, l)| Prefix::V4(Prefix4::new_truncated(b, l))),
        (any::<u128>(), 0u8..=128).prop_map(|(b, l)| Prefix::V6(Prefix6::new_truncated(b, l))),
    ]
}

fn arb_roa_prefix() -> impl Strategy<Value = RoaPrefix> {
    (arb_prefix(), any::<u8>(), any::<bool>()).prop_map(|(p, extra, with_ml)| {
        if with_ml {
            let ml = p.len().saturating_add(extra % 9).min(p.max_len());
            RoaPrefix::with_max_len(p, ml)
        } else {
            RoaPrefix::exact(p)
        }
    })
}

pub fn arb_roa() -> impl Strategy<Value = Roa> {
    (any::<u32>(), prop::collection::vec(arb_roa_prefix(), 1..20))
        .prop_map(|(asn, prefixes)| Roa::new(Asn(asn), prefixes).expect("well-formed"))
}
