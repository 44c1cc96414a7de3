//! Property tests: ROA DER encoding and the mock envelope must round-trip
//! arbitrary well-formed ROAs. What the decoders do with hostile bytes is
//! `tests/decoders.rs`' job.

use proptest::prelude::*;
use rpki_roa::codec::{decode_roa, encode_roa};
use rpki_roa::envelope::{open_roa, seal_roa};
use rpki_roa::{Asn, Vrp};

#[path = "support/arb.rs"]
mod arb;
use arb::{arb_prefix, arb_roa};

proptest! {
    #[test]
    fn der_round_trip(roa in arb_roa()) {
        let der = encode_roa(&roa);
        let back = decode_roa(&der).unwrap();
        prop_assert_eq!(roa, back);
    }

    #[test]
    fn envelope_round_trip(roa in arb_roa()) {
        let sealed = seal_roa(&roa);
        let back = open_roa(&sealed).unwrap();
        prop_assert_eq!(roa, back);
    }

    #[test]
    fn envelope_detects_single_bit_flips(roa in arb_roa(), at in any::<prop::sample::Index>(), bit in 0u8..8) {
        let sealed = seal_roa(&roa);
        let mut corrupt = sealed.clone();
        let idx = at.index(corrupt.len());
        corrupt[idx] ^= 1 << bit;
        // A flipped bit must never silently yield a *different* ROA.
        if let Ok(back) = open_roa(&corrupt) { prop_assert_eq!(back, roa) }
    }

    #[test]
    fn vrp_display_parse_round_trip(p in arb_prefix(), extra in 0u8..9, asn in any::<u32>()) {
        let ml = p.len().saturating_add(extra).min(p.max_len());
        let vrp = Vrp::new(p, ml, Asn(asn));
        let text = vrp.to_string();
        let back: Vrp = text.parse().unwrap();
        prop_assert_eq!(vrp, back);
    }

    #[test]
    fn vrps_of_roa_all_well_bounded(roa in arb_roa()) {
        for vrp in roa.vrps() {
            prop_assert!(vrp.max_len >= vrp.prefix.len());
            prop_assert!(vrp.max_len <= vrp.prefix.max_len());
            prop_assert_eq!(vrp.asn, roa.asn());
        }
    }
}
