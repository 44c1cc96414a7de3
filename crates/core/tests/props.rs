//! Property tests for the core algorithms.
//!
//! The headline invariant is §7's minimality claim: `compress_roas` must
//! output a PDU set authorizing **exactly** the same routes as its input —
//! never fewer (breaking legitimate announcements) and never more
//! (recreating the forged-origin subprefix hijack surface it exists to
//! avoid).

use proptest::prelude::*;
use rpki_prefix::{Prefix, Prefix4, Prefix6};
use rpki_roa::{Asn, RouteOrigin, Vrp};

use maxlength_core::bounds::{full_deployment_minimal, max_permissive_lower_bound};
use maxlength_core::compress::{
    compress_roas, compress_roas_full, compress_roas_naive, compress_roas_parallel,
    expand_authorized,
};
use maxlength_core::minimal::{minimalize_vrps, vrp_is_minimal};
use maxlength_core::{BgpTable, MaxLengthCensus, Scenario, Table1};

/// Prefixes drawn from a tiny universe (4 leading-bit patterns × lengths
/// 0..=6) so sibling/parent structure arises constantly.
fn arb_prefix() -> impl Strategy<Value = Prefix> {
    (any::<u32>(), 0u8..=6)
        .prop_map(|(b, l)| Prefix::V4(Prefix4::new_truncated(b & 0xFC00_0000, l)))
}

fn arb_vrp() -> impl Strategy<Value = Vrp> {
    (arb_prefix(), 0u8..=3, 1u32..4)
        .prop_map(|(p, extra, asn)| Vrp::new(p, p.len().saturating_add(extra).min(6), Asn(asn)))
}

fn arb_vrps() -> impl Strategy<Value = Vec<Vrp>> {
    prop::collection::vec(arb_vrp(), 0..40)
}

/// Up to `max_pairs` MOAS announcements over `prefix`, in no order and
/// with duplicates.
fn arb_routes_over(
    prefix: impl Strategy<Value = Prefix>,
    max_pairs: usize,
) -> impl Strategy<Value = Vec<RouteOrigin>> {
    prop::collection::vec((prefix, 1u32..4), 0..max_pairs).prop_map(|pairs| {
        pairs
            .into_iter()
            .map(|(p, a)| RouteOrigin::new(p, Asn(a)))
            .collect()
    })
}

/// A MOAS table of up to `max_pairs` announcements over `prefix`.
fn arb_bgp_over(
    prefix: impl Strategy<Value = Prefix>,
    max_pairs: usize,
) -> impl Strategy<Value = BgpTable> {
    arb_routes_over(prefix, max_pairs).prop_map(|routes| routes.into_iter().collect())
}

fn arb_bgp() -> impl Strategy<Value = BgpTable> {
    arb_bgp_over(arb_prefix(), 60)
}

/// Both families, lengths where real tables cluster (v4 /22–24, v6
/// /46–48) and at both ends (/0–2 and the family maximum). All bits are
/// fixed except the three that end the cluster and, below /2, the first,
/// so parents, siblings and duplicates still arise constantly.
fn arb_wide_prefix() -> impl Strategy<Value = Prefix> {
    (any::<bool>(), any::<bool>(), 0usize..3, 0u8..3, 0u8..8).prop_map(
        |(v6, high, cluster, back, low)| {
            if v6 {
                let (len, shift) = [(2, 126), (48, 80), (128, 0)][cluster];
                let bits = u128::from(high) << 127 | 0x2001_0db8 << 96 | u128::from(low) << shift;
                Prefix::V6(Prefix6::new_truncated(bits, len - back))
            } else {
                let (len, shift) = [(2, 30), (24, 8), (32, 0)][cluster];
                let bits = u32::from(high) << 31 | 10 << 24 | u32::from(low) << shift;
                Prefix::V4(Prefix4::new_truncated(bits, len - back))
            }
        },
    )
}

/// Tuples over [`arb_wide_prefix`]; about one in five is a raw literal
/// whose maxLength `Vrp::new` would have clamped: below the prefix
/// length, or above the family maximum (mostly on the longest prefixes,
/// where what the tuple authorizes stays small enough to enumerate).
fn arb_wide_vrps() -> impl Strategy<Value = Vec<Vrp>> {
    let vrp =
        (arb_wide_prefix(), 0u8..=3, 1u32..3, 0u8..20).prop_map(|(prefix, extra, asn, kind)| {
            let deep = prefix.len() + 3 > prefix.max_len();
            let max_len = match kind {
                0 | 1 => prefix.len().saturating_sub(1 + extra),
                2 | 3 if deep => prefix.max_len() + 1 + 40 * extra,
                4 => prefix.max_len() + 1 + 40 * extra,
                _ => return Vrp::new(prefix, prefix.len().saturating_add(extra), Asn(asn)),
            };
            Vrp {
                prefix,
                max_len,
                asn: Asn(asn),
            }
        });
    prop::collection::vec(vrp, 0..64)
}

/// What a tuple list authorizes once out-of-range maxLengths are clamped
/// the way `Vrp::new` clamps them; `None` when too large to enumerate.
fn authorized_if_small(vrps: &[Vrp]) -> Option<std::collections::BTreeSet<RouteOrigin>> {
    let clamped: Vec<Vrp> = vrps
        .iter()
        .map(|v| Vrp::new(v.prefix, v.max_len, v.asn))
        .collect();
    let routes = clamped.iter().map(Vrp::authorized_prefix_count);
    (routes.fold(0u128, u128::saturating_add) <= 4096).then(|| expand_authorized(&clamped))
}

proptest! {
    /// THE invariant: compression is lossless in both directions.
    #[test]
    fn compress_preserves_authorized_set(vrps in arb_vrps()) {
        let out = compress_roas(&vrps);
        prop_assert_eq!(expand_authorized(&out), expand_authorized(&vrps));
    }

    /// Compression never grows the PDU list.
    #[test]
    fn compress_never_grows(vrps in arb_vrps()) {
        let mut dedup: Vec<(Asn, Prefix)> = vrps.iter().map(|v| (v.asn, v.prefix)).collect();
        dedup.sort_unstable();
        dedup.dedup();
        prop_assert!(compress_roas(&vrps).len() <= dedup.len());
    }

    /// Compression is idempotent.
    #[test]
    fn compress_idempotent(vrps in arb_vrps()) {
        let once = compress_roas(&vrps);
        let twice = compress_roas(&once);
        prop_assert_eq!(once, twice);
    }

    /// Input order never matters.
    #[test]
    fn compress_order_invariant(vrps in arb_vrps(), seed in any::<u64>()) {
        let mut shuffled = vrps.clone();
        // Cheap deterministic shuffle.
        let n = shuffled.len();
        if n > 1 {
            let mut state = seed | 1;
            for i in (1..n).rev() {
                state = state.wrapping_mul(6364136223846793005).wrapping_add(1442695040888963407);
                shuffled.swap(i, (state % (i as u64 + 1)) as usize);
            }
        }
        prop_assert_eq!(compress_roas(&vrps), compress_roas(&shuffled));
    }

    /// The quadratic oracle and the trie implementation agree exactly.
    #[test]
    fn compress_matches_naive_oracle(vrps in arb_vrps()) {
        prop_assert_eq!(compress_roas(&vrps), compress_roas_naive(&vrps));
    }

    /// The domination-eliminating variant is also exactly lossless and at
    /// least as small as Algorithm 1's output.
    #[test]
    fn compress_full_sound_and_no_worse(vrps in arb_vrps()) {
        let plain = compress_roas(&vrps);
        let full = compress_roas_full(&vrps);
        prop_assert_eq!(expand_authorized(&full), expand_authorized(&vrps));
        prop_assert!(full.len() <= plain.len());
    }

    /// The oracle, losslessness, thread-count invariance and the
    /// domination variant, on mixed-family input with clustered lengths,
    /// duplicates and out-of-range maxLengths.
    #[test]
    fn compress_wide_input(vrps in arb_wide_vrps()) {
        let out = compress_roas(&vrps);
        prop_assert_eq!(&out, &compress_roas_naive(&vrps));
        for threads in [1, 2, 3, 7] {
            prop_assert_eq!(&compress_roas_parallel(&vrps, threads), &out);
        }
        let full = compress_roas_full(&vrps);
        prop_assert!(full.len() <= out.len());
        if let Some(authorized) = authorized_if_small(&vrps) {
            prop_assert_eq!(&expand_authorized(&out), &authorized);
            prop_assert_eq!(&expand_authorized(&full), &authorized);
        }
    }

    /// Every `BgpTable` query against a scan of the announcement list it
    /// was built from — unsorted, with duplicates and MOAS, straddling the
    /// v4/v6 boundary and containing `/0`.
    #[test]
    fn bgp_table_matches_scan(
        routes in arb_routes_over(arb_wide_prefix(), 80),
        probes in prop::collection::vec((arb_wide_prefix(), 0u8..=3), 1..6),
    ) {
        let bgp: BgpTable = routes.iter().collect();
        let mut distinct = routes.clone();
        distinct.sort_unstable();
        distinct.dedup();
        prop_assert_eq!(bgp.len(), distinct.len());
        prop_assert_eq!(bgp.is_empty(), distinct.is_empty());
        prop_assert_eq!(bgp.iter().collect::<Vec<_>>(), distinct);

        let announced = distinct.iter().map(|r| (r.prefix, 0));
        for (prefix, extra) in announced.chain(probes) {
            let here: Vec<Asn> =
                distinct.iter().filter(|r| r.prefix == prefix).map(|r| r.origin).collect();
            prop_assert_eq!(bgp.origins_of(prefix), here.as_slice());
            prop_assert_eq!(bgp.prefix_announced(prefix), !here.is_empty());
            for asn in (0..4).map(Asn) {
                prop_assert_eq!(
                    bgp.contains(&RouteOrigin::new(prefix, asn)),
                    here.contains(&asn)
                );
                prop_assert_eq!(
                    bgp.has_ancestor_same_origin(prefix, asn),
                    distinct
                        .iter()
                        .any(|r| r.origin == asn && r.prefix != prefix && r.prefix.covers(prefix))
                );
                let vrp = Vrp::new(prefix, prefix.len().saturating_add(extra), asn);
                let validated: Vec<RouteOrigin> =
                    distinct.iter().filter(|r| vrp.matches(r)).copied().collect();
                prop_assert_eq!(
                    bgp.count_announced_under(prefix, vrp.max_len, asn),
                    validated.len() as u64
                );
                prop_assert_eq!(bgp.routes_validated_by(&vrp).collect::<Vec<_>>(), validated);
            }
        }
    }

    /// The stack walk computes the definition: the pairs without a
    /// same-origin strict ancestor, maximally permissive, in `Vrp` order —
    /// on MOAS tables that straddle the v4/v6 boundary and contain `/0`.
    #[test]
    fn lower_bound_matches_definition(bgp in arb_bgp_over(arb_wide_prefix(), 80)) {
        let mut expect: Vec<Vrp> = bgp
            .iter()
            .filter(|r| !bgp.has_ancestor_same_origin(r.prefix, r.origin))
            .map(|r| Vrp::max_permissive(r.prefix, r.origin))
            .collect();
        expect.sort_unstable();
        prop_assert_eq!(max_permissive_lower_bound(&bgp), expect);
        let minimal = full_deployment_minimal(&bgp);
        prop_assert!(minimal.is_sorted());
        prop_assert_eq!(minimal.len(), bgp.len());
    }

    /// Minimalized sets authorize exactly the announced-and-validated
    /// routes, and every tuple in them is minimal.
    #[test]
    fn minimalize_exact(vrps in arb_vrps(), bgp in arb_bgp()) {
        let minimal = minimalize_vrps(&vrps, &bgp);
        let authorized = expand_authorized(&minimal);
        // 1. Everything authorized is announced...
        for route in &authorized {
            prop_assert!(bgp.contains(route));
        }
        // 2. ...and was authorized by the original set.
        let original = expand_authorized(&vrps);
        for route in &authorized {
            prop_assert!(original.contains(route));
        }
        // 3. Conversely every announced+originally-authorized route survives.
        for route in bgp.iter() {
            if original.contains(&route) {
                prop_assert!(authorized.contains(&route));
            }
        }
        // 4. Tuple-level minimality.
        for vrp in &minimal {
            prop_assert!(vrp_is_minimal(vrp, &bgp));
        }
    }

    /// Compressing a minimal set keeps it minimal (the §7 guarantee).
    #[test]
    fn compress_after_minimalize_stays_minimal(vrps in arb_vrps(), bgp in arb_bgp()) {
        let minimal = minimalize_vrps(&vrps, &bgp);
        let compressed = compress_roas(&minimal);
        for vrp in &compressed {
            prop_assert!(vrp_is_minimal(vrp, &bgp), "{} not minimal", vrp);
        }
    }

    /// The census is internally consistent.
    #[test]
    fn census_invariants(vrps in arb_vrps(), bgp in arb_bgp()) {
        let census = MaxLengthCensus::analyze(&vrps, &bgp);
        prop_assert_eq!(census.total, vrps.len());
        prop_assert!(census.max_len_using <= census.total);
        prop_assert!(census.vulnerable <= census.max_len_using);
        prop_assert!(census.vulnerable <= census.non_minimal_total);
        prop_assert!(census.non_minimal_total <= census.total);
    }

    /// Lower bound ≤ compressed minimal ≤ plain minimal (the Table 1
    /// ordering among full-deployment rows).
    #[test]
    fn full_deployment_row_ordering(bgp in arb_bgp()) {
        let minimal = full_deployment_minimal(&bgp);
        let compressed = compress_roas(&minimal);
        let bound = max_permissive_lower_bound(&bgp);
        prop_assert!(compressed.len() <= minimal.len());
        prop_assert!(bound.len() <= compressed.len(),
            "bound {} > compressed {}", bound.len(), compressed.len());
        // The bound's tuples still validate every announced pair.
        for route in bgp.iter() {
            prop_assert!(bound.iter().any(|v| v.matches(&route)));
        }
    }

    /// Table 1's internal consistency on arbitrary snapshots.
    #[test]
    fn table1_consistency(vrps in arb_vrps(), bgp in arb_bgp()) {
        let t = Table1::compute(&vrps, &bgp);
        prop_assert!(t.pdus(Scenario::TodayCompressed) <= t.pdus(Scenario::Today));
        prop_assert!(
            t.pdus(Scenario::TodayMinimalCompressed) <= t.pdus(Scenario::TodayMinimal)
        );
        prop_assert!(
            t.pdus(Scenario::FullMinimalCompressed) <= t.pdus(Scenario::FullMinimal)
        );
        prop_assert!(
            t.pdus(Scenario::FullLowerBound) <= t.pdus(Scenario::FullMinimalCompressed)
        );
        prop_assert_eq!(t.pdus(Scenario::FullMinimal), bgp.len());
    }
}
