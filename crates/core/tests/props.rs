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
    compress_roas, compress_roas_full, compress_roas_parallel, expand_authorized,
};
use maxlength_core::minimal::{minimalize_vrps, vrp_is_minimal};
use maxlength_core::vulnerability::unannounced;
use maxlength_core::{BgpTable, MaxLengthCensus, Scenario, Table1};

#[path = "support/naive.rs"]
mod naive;
use naive::{compress_roas_naive, has_ancestor_same_origin};

/// Prefixes drawn from a tiny universe (4 leading-bit patterns × lengths
/// 0..=6) so sibling/parent structure arises constantly.
fn arb_prefix() -> impl Strategy<Value = Prefix> {
    (any::<u32>(), 0u8..=6)
        .prop_map(|(b, l)| Prefix::V4(Prefix4::new_truncated(b & 0xFC00_0000, l)))
}

/// Origins 1–3: few enough that tables and tuple lists share them.
fn arb_small_asn() -> impl Strategy<Value = Asn> {
    (1u32..4).prop_map(Asn)
}

/// Origins on both sides of every 16-bit digit boundary, up to the
/// largest: the packed table key's top origin bits are set. Few values,
/// so same-origin merges stay frequent.
const WIDE_ASNS: [Asn; 6] = [
    Asn(1),
    Asn(2),
    Asn(65_535),
    Asn(65_536),
    Asn(131_072),
    Asn(u32::MAX),
];

fn arb_asn() -> impl Strategy<Value = Asn> {
    (0..WIDE_ASNS.len()).prop_map(|i| WIDE_ASNS[i])
}

fn arb_vrps_of(asn: impl Strategy<Value = Asn>) -> impl Strategy<Value = Vec<Vrp>> {
    let vrp = (arb_prefix(), 0u8..=3, asn)
        .prop_map(|(p, extra, asn)| Vrp::new(p, p.len().saturating_add(extra).min(6), asn));
    prop::collection::vec(vrp, 0..40)
}

fn arb_vrps() -> impl Strategy<Value = Vec<Vrp>> {
    arb_vrps_of(arb_small_asn())
}

/// Up to `max_pairs` MOAS announcements over `prefix` by `asn`, in no
/// order and with duplicates.
fn arb_routes_over(
    prefix: impl Strategy<Value = Prefix>,
    asn: impl Strategy<Value = Asn>,
    max_pairs: usize,
) -> impl Strategy<Value = Vec<RouteOrigin>> {
    prop::collection::vec((prefix, asn), 0..max_pairs).prop_map(|pairs| {
        pairs
            .into_iter()
            .map(|(p, a)| RouteOrigin::new(p, a))
            .collect()
    })
}

/// A MOAS table of up to `max_pairs` announcements over `prefix` by `asn`.
fn arb_bgp_over(
    prefix: impl Strategy<Value = Prefix>,
    asn: impl Strategy<Value = Asn>,
    max_pairs: usize,
) -> impl Strategy<Value = BgpTable> {
    arb_routes_over(prefix, asn, max_pairs).prop_map(|routes| routes.into_iter().collect())
}

fn arb_bgp() -> impl Strategy<Value = BgpTable> {
    arb_bgp_over(arb_prefix(), arb_small_asn(), 60)
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

/// In-range tuples over [`arb_wide_prefix`] by [`arb_asn`]'s origins, so
/// that they validate pairs of a table drawn over the same prefixes.
fn arb_wide_asn_vrps() -> impl Strategy<Value = Vec<Vrp>> {
    let vrp = (arb_wide_prefix(), 0u8..=3, arb_asn())
        .prop_map(|(prefix, extra, asn)| Vrp::new(prefix, prefix.len().saturating_add(extra), asn));
    prop::collection::vec(vrp, 0..40)
}

/// MOAS-dense tuples (one prefix announced by several origins): ten
/// prefixes, two `/0`s among them, eight origins, and maxLengths at most
/// two past the prefix, so most pairs repeat at several maxLengths.
fn arb_moas_vrps() -> impl Strategy<Value = Vec<Vrp>> {
    const PREFIXES: [&str; 10] = [
        "0.0.0.0/0",
        "0.0.0.0/1",
        "128.0.0.0/1",
        "10.0.0.0/16",
        "10.0.0.0/17",
        "10.0.128.0/17",
        "10.0.64.0/18",
        "::/0",
        "::/1",
        "8000::/1",
    ];
    let vrp = (0..PREFIXES.len(), 0u8..=2, 1u32..=8).prop_map(|(i, extra, asn)| {
        let prefix: Prefix = PREFIXES[i].parse().unwrap();
        Vrp::new(prefix, prefix.len() + extra, Asn(asn))
    });
    prop::collection::vec(vrp, 0..80)
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

    /// The quadratic oracle and the sweep agree exactly, on origins up to
    /// `u32::MAX`.
    #[test]
    fn compress_matches_naive_oracle(vrps in arb_vrps_of(arb_asn())) {
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

    /// The oracle, losslessness, the thread-count clamp and the
    /// domination variant, on mixed-family input with clustered lengths,
    /// duplicates and out-of-range maxLengths.
    #[test]
    fn compress_wide_input(vrps in arb_wide_vrps()) {
        let out = compress_roas(&vrps);
        prop_assert_eq!(&out, &compress_roas_naive(&vrps));
        // These inputs are far below one worker's minimum share, so this
        // checks the clamp to one worker, not the shards; the compress
        // unit tests start real workers.
        prop_assert_eq!(&compress_roas_parallel(&vrps, 7), &out);
        let full = compress_roas_full(&vrps);
        prop_assert!(full.len() <= out.len());
        if let Some(authorized) = authorized_if_small(&vrps) {
            prop_assert_eq!(&expand_authorized(&out), &authorized);
            prop_assert_eq!(&expand_authorized(&full), &authorized);
        }
    }

    /// The oracle and the domination variant's soundness on MOAS-dense
    /// input: the sweep's stack holds many origins per prefix, and
    /// repeated pairs sit among other origins' tuples.
    #[test]
    fn compress_moas_dense_input(vrps in arb_moas_vrps()) {
        let out = compress_roas(&vrps);
        prop_assert_eq!(&out, &compress_roas_naive(&vrps));
        let authorized = expand_authorized(&vrps);
        prop_assert_eq!(&expand_authorized(&out), &authorized);
        let full = compress_roas_full(&vrps);
        prop_assert_eq!(&expand_authorized(&full), &authorized);
        prop_assert!(full.len() <= out.len());
    }

    /// Both `BgpTable` queries against a scan of the announcement list it
    /// was built from — unsorted, with duplicates and MOAS, straddling the
    /// v4/v6 boundary, containing `/0` and origins up to `u32::MAX`.
    #[test]
    fn bgp_table_matches_scan(
        routes in arb_routes_over(arb_wide_prefix(), arb_asn(), 80),
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
            for asn in [Asn(0), Asn(3)].into_iter().chain(WIDE_ASNS) {
                let pair = RouteOrigin::new(prefix, asn);
                prop_assert_eq!(bgp.contains(&pair), distinct.contains(&pair));
                let vrp = Vrp::new(prefix, prefix.len().saturating_add(extra), asn);
                let validated: Vec<RouteOrigin> =
                    distinct.iter().filter(|r| vrp.matches(r)).copied().collect();
                prop_assert_eq!(bgp.routes_validated_by(&vrp).collect::<Vec<_>>(), validated);
            }
        }
    }

    /// The stack walk computes the definition: the pairs without a
    /// same-origin strict ancestor, maximally permissive, in `Vrp` order —
    /// on MOAS tables that straddle the v4/v6 boundary and contain `/0`.
    #[test]
    fn lower_bound_matches_definition(
        bgp in arb_bgp_over(arb_wide_prefix(), arb_asn(), 80),
    ) {
        let mut expect: Vec<Vrp> = bgp
            .iter()
            .filter(|r| !has_ancestor_same_origin(&bgp, r.prefix, r.origin))
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

    /// A tuple's unannounced count is what it authorizes less what is
    /// announced, enumerated; minimal exactly when that is nothing.
    #[test]
    fn unannounced_counts_the_enumerated_holes(
        vrps in arb_wide_asn_vrps(),
        bgp in arb_bgp_over(arb_wide_prefix(), arb_asn(), 80),
    ) {
        for vrp in &vrps {
            let Some(authorized) = authorized_if_small(std::slice::from_ref(vrp)) else {
                continue;
            };
            let holes = authorized.iter().filter(|r| !bgp.contains(r)).count() as u128;
            prop_assert_eq!(unannounced(vrp, &bgp), holes, "{}", vrp);
            prop_assert_eq!(vrp_is_minimal(vrp, &bgp), holes == 0);
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

    /// Every row of Table 1 is the length of the list it stands for,
    /// though the table builds only some of them.
    #[test]
    fn table1_rows_count_their_lists(
        vrps in arb_wide_asn_vrps(),
        bgp in arb_bgp_over(arb_wide_prefix(), arb_asn(), 80),
    ) {
        let mut today = vrps.clone();
        today.sort_unstable();
        today.dedup();
        let minimal = minimalize_vrps(&vrps, &bgp);
        let full = full_deployment_minimal(&bgp);
        let lists = [
            today.len(),
            compress_roas(&today).len(),
            minimal.len(),
            compress_roas(&minimal).len(),
            full.len(),
            compress_roas(&full).len(),
            max_permissive_lower_bound(&bgp).len(),
        ];
        let table = Table1::compute(&vrps, &bgp);
        let rows: Vec<usize> = table.rows.iter().map(|r| r.pdus).collect();
        prop_assert_eq!(rows, lists.to_vec());
        // Far below one worker's minimum share: this checks the clamp to
        // one worker, not the shards.
        prop_assert_eq!(&Table1::compute_par(&vrps, &bgp, 4), &table);
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

/// The oracle on fixed real-world shapes: a /19 with a stray /21 under
/// its merged halves, a merge whose parent anchors a deeper pair, and a
/// lone sibling pair.
#[test]
fn naive_agrees_on_examples() {
    let vrps = |list: &[&str]| -> Vec<Vrp> { list.iter().map(|s| s.parse().unwrap()).collect() };
    for input in [
        vrps(&[
            "87.254.32.0/19 => AS31283",
            "87.254.32.0/20 => AS31283",
            "87.254.48.0/20 => AS31283",
            "87.254.32.0/21 => AS31283",
        ]),
        vrps(&[
            "10.0.0.0/16 => AS1",
            "10.0.0.0/17 => AS1",
            "10.0.128.0/17 => AS1",
            "10.0.128.0/18 => AS1",
            "10.0.192.0/18 => AS1",
        ]),
        vrps(&["10.0.0.0/17 => AS1", "10.0.128.0/17 => AS1"]),
    ] {
        assert_eq!(compress_roas(&input), compress_roas_naive(&input));
    }
}
