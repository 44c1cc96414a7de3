//! Property tests: the ordered-set validator must agree with a brute-force
//! linear-scan reference implementation on arbitrary VRP sets and routes.

use proptest::prelude::*;
use rpki_prefix::{Prefix, Prefix4, Prefix6};
use rpki_roa::{Asn, RouteOrigin, Vrp};
use rpki_rov::{FrozenVrpIndex, ValidationState, VrpIndex};

/// A small universe in both families so covering/matching cases actually
/// collide: four free bits, lengths `/0`–`/6` and the host length (whose
/// low bits vary too). Sets drawn from it are full of prefixes whose
/// predecessor in sort order sits in a sibling subtree.
fn arb_prefix() -> impl Strategy<Value = Prefix> {
    prop_oneof![
        (0u32..16, 0u8..=7).prop_map(|(b, l)| {
            Prefix::V4(Prefix4::new_truncated(
                b << 26 | b,
                if l == 7 { 32 } else { l },
            ))
        }),
        (0u128..16, 0u8..=7).prop_map(|(b, l)| {
            Prefix::V6(Prefix6::new_truncated(
                b << 122 | b,
                if l == 7 { 128 } else { l },
            ))
        }),
    ]
}

fn arb_vrp() -> impl Strategy<Value = Vrp> {
    (arb_prefix(), 0u8..=4, 0u32..5)
        .prop_map(|(p, extra, asn)| Vrp::new(p, p.len().saturating_add(extra), Asn(asn)))
}

fn arb_route() -> impl Strategy<Value = RouteOrigin> {
    (arb_prefix(), 0u32..5).prop_map(|(p, asn)| RouteOrigin::new(p, Asn(asn)))
}

/// The distinct VRPs of `vrps`, ascending: what an index of them holds.
fn distinct(vrps: &[Vrp]) -> Vec<Vrp> {
    let mut out = vrps.to_vec();
    out.sort_unstable();
    out.dedup();
    out
}

/// Every read query of `index` against a scan of `model`, its distinct
/// VRPs in ascending order.
fn assert_reads_match_scan(index: &VrpIndex, model: &[Vrp], query: Prefix) {
    assert_eq!(index.len(), model.len());
    assert!(index.iter().eq(model), "iter");
    // Covering comes longest prefix first, covered-by ascending.
    let covering = model.iter().rev().filter(|v| v.prefix.covers(query));
    assert!(index.covering(query).eq(covering), "covering {query}");
    let under = model.iter().filter(|v| query.covers(v.prefix));
    assert!(index.covered_by(query).eq(under), "covered by {query}");
    for asn in 0..5 {
        let route = RouteOrigin::new(query, Asn(asn));
        assert_eq!(index.validate(&route), reference_validate(model, &route));
    }
}

fn reference_validate(vrps: &[Vrp], route: &RouteOrigin) -> ValidationState {
    if vrps.iter().any(|v| v.matches(route)) {
        ValidationState::Valid
    } else if vrps.iter().any(|v| v.covers(route)) {
        ValidationState::Invalid
    } else {
        ValidationState::NotFound
    }
}

proptest! {
    #[test]
    fn index_agrees_with_linear_scan(
        vrps in prop::collection::vec(arb_vrp(), 0..60),
        routes in prop::collection::vec(arb_route(), 1..40),
    ) {
        let index: VrpIndex = vrps.iter().copied().collect();
        for route in &routes {
            prop_assert_eq!(
                index.validate(route),
                reference_validate(&vrps, route),
                "route {} against {} vrps", route, vrps.len()
            );
        }
    }

    #[test]
    fn covering_and_covered_by_match_scan(
        vrps in prop::collection::vec(arb_vrp(), 0..60),
        query in arb_prefix(),
    ) {
        let index: VrpIndex = vrps.iter().copied().collect();
        assert_reads_match_scan(&index, &distinct(&vrps), query);
    }

    /// Any interleaving of inserts and removes leaves the index answering
    /// like a scan of the list the same operations were applied to.
    #[test]
    fn op_sequence_matches_model(
        ops in prop::collection::vec((arb_vrp(), any::<bool>()), 0..80),
        queries in prop::collection::vec(arb_prefix(), 1..8),
    ) {
        let mut index = VrpIndex::new();
        let mut model: Vec<Vrp> = Vec::new();
        for (vrp, insert) in ops {
            let present = model.contains(&vrp);
            if insert {
                prop_assert_eq!(index.insert(vrp), !present);
                if !present {
                    model.push(vrp);
                }
            } else {
                prop_assert_eq!(index.remove(&vrp), present);
                model.retain(|v| *v != vrp);
            }
            prop_assert_eq!(index.contains(&vrp), insert);
        }
        let model = distinct(&model);
        for query in queries {
            assert_reads_match_scan(&index, &model, query);
        }
    }

    #[test]
    fn insert_remove_round_trip(
        vrps in prop::collection::vec(arb_vrp(), 0..40),
        extra in prop::collection::vec(arb_vrp(), 0..10),
    ) {
        let mut index: VrpIndex = vrps.iter().copied().collect();
        let base_len = index.len();
        let mut fresh: Vec<Vrp> = extra.into_iter().filter(|v| !index.contains(v)).collect();
        fresh.sort_unstable();
        fresh.dedup();
        for v in &fresh {
            prop_assert!(index.insert(*v));
        }
        prop_assert_eq!(index.len(), base_len + fresh.len());
        for v in &fresh {
            prop_assert!(index.remove(v));
        }
        prop_assert_eq!(index.len(), base_len);
        for v in &vrps {
            prop_assert!(index.contains(v));
        }
    }

    #[test]
    fn summary_totals_consistent(
        vrps in prop::collection::vec(arb_vrp(), 0..40),
        routes in prop::collection::vec(arb_route(), 0..60),
    ) {
        let index: VrpIndex = vrps.iter().copied().collect();
        let summary = index.validate_table(routes.iter());
        prop_assert_eq!(summary.total(), routes.len());
        let valid_count = routes
            .iter()
            .filter(|r| reference_validate(&vrps, r) == ValidationState::Valid)
            .count();
        prop_assert_eq!(summary.valid, valid_count);
    }
}

mod frozen_props {
    //! The snapshot-equivalence contract: `FrozenVrpIndex` must agree
    //! with the mutable `VrpIndex` on every read query, for both
    //! address families.

    use super::*;

    fn sorted(vrps: Vec<Vrp>) -> Vec<Vrp> {
        let mut v = vrps;
        v.sort_unstable();
        v
    }

    proptest! {
        #[test]
        fn frozen_agrees_on_validate(
            vrps in prop::collection::vec(arb_vrp(), 0..60),
            routes in prop::collection::vec(arb_route(), 1..40),
        ) {
            let index: VrpIndex = vrps.iter().copied().collect();
            let frozen = index.freeze();
            for route in &routes {
                prop_assert_eq!(
                    frozen.validate(route),
                    index.validate(route),
                    "route {} against {} vrps", route, vrps.len()
                );
            }
        }

        #[test]
        fn frozen_agrees_on_covering_and_covered_by(
            vrps in prop::collection::vec(arb_vrp(), 0..60),
            query in arb_prefix(),
        ) {
            let index: VrpIndex = vrps.iter().copied().collect();
            let frozen = index.freeze();
            prop_assert_eq!(
                sorted(frozen.covering(query).copied().collect()),
                sorted(index.covering(query).copied().collect())
            );
            prop_assert_eq!(
                sorted(frozen.covered_by(query).copied().collect()),
                sorted(index.covered_by(query).copied().collect())
            );
            // The frozen covering set comes shortest prefix first.
            let lens: Vec<u8> =
                frozen.covering(query).map(|v| v.prefix.len()).collect();
            prop_assert!(lens.windows(2).all(|w| w[0] <= w[1]));
        }

        #[test]
        fn frozen_preserves_set_and_summaries(
            vrps in prop::collection::vec(arb_vrp(), 0..60),
            routes in prop::collection::vec(arb_route(), 0..60),
        ) {
            let index: VrpIndex = vrps.iter().copied().collect();
            let frozen = index.freeze();
            prop_assert_eq!(frozen.len(), index.len());
            prop_assert_eq!(
                sorted(frozen.iter().copied().collect()),
                sorted(index.iter().copied().collect())
            );
            // Direct compilation from the raw list equals freezing the
            // builder.
            let direct = FrozenVrpIndex::from_vrps(vrps.iter().copied());
            prop_assert_eq!(direct.len(), frozen.len());
            // Sequential and parallel table validation all agree with
            // the builder.
            let expect = index.validate_table(routes.iter());
            prop_assert_eq!(frozen.validate_table(routes.iter()), expect);
            prop_assert_eq!(frozen.validate_table_par(&routes), expect);
            prop_assert_eq!(expect.total(), routes.len());
        }
    }
}

mod delta_props {
    use super::*;
    use rpki_rov::RevalidationEngine;

    proptest! {
        /// Incremental revalidation must agree with validating from
        /// scratch after any interleaving of VRP announcements and
        /// withdrawals.
        #[test]
        fn incremental_equals_from_scratch(
            routes in prop::collection::btree_set(arb_route(), 1..30),
            deltas in prop::collection::vec((arb_vrp(), any::<bool>()), 0..40),
        ) {
            let mut engine = RevalidationEngine::new(routes.iter().copied(), []);
            let mut applied: Vec<Vrp> = Vec::new();
            for (vrp, announce) in deltas {
                if announce {
                    engine.announce_vrp(vrp);
                    if !applied.contains(&vrp) {
                        applied.push(vrp);
                    }
                } else {
                    engine.withdraw_vrp(&vrp);
                    applied.retain(|v| *v != vrp);
                }
                for route in &routes {
                    prop_assert_eq!(
                        engine.state_of(route),
                        Some(reference_validate(&applied, route)),
                        "route {} after {} deltas", route, applied.len()
                    );
                }
            }
        }

        /// Reported state changes are exactly the differences.
        #[test]
        fn changes_are_exact(
            routes in prop::collection::btree_set(arb_route(), 1..25),
            vrp in arb_vrp(),
        ) {
            let mut engine = RevalidationEngine::new(routes.iter().copied(), []);
            let before: Vec<_> = routes.iter().map(|r| engine.state_of(r).unwrap()).collect();
            let changes = engine.announce_vrp(vrp);
            for (route, old) in routes.iter().zip(before) {
                let new = engine.state_of(route).unwrap();
                let reported = changes.iter().find(|c| c.route == *route);
                if old == new {
                    prop_assert!(reported.is_none());
                } else {
                    let c = reported.expect("change must be reported");
                    prop_assert_eq!(c.old, old);
                    prop_assert_eq!(c.new, new);
                }
            }
        }
    }
}
