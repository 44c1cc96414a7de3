//! Property tests tying the lint rules to the census — the two views of
//! §6/§8 must count the same things — and the redundancy rule to its
//! quadratic definition.

use proptest::prelude::*;
use rpki_prefix::{Prefix, Prefix4, Prefix6};
use rpki_roa::{Asn, Roa, RoaPrefix, RouteOrigin, Vrp};

use maxlength_core::compress::compress_roas;
use maxlength_core::lint::{LintReport, Rule, Severity};
use maxlength_core::minimal::{minimalize_roas, vrp_is_minimal, MinimalRoa};
use maxlength_core::{BgpTable, MaxLengthCensus};

fn arb_prefix() -> impl Strategy<Value = Prefix> {
    (any::<u32>(), 2u8..=6)
        .prop_map(|(b, l)| Prefix::V4(Prefix4::new_truncated(b & 0xFC00_0000, l)))
}

fn arb_roa() -> impl Strategy<Value = Roa> {
    (
        1u32..5,
        prop::collection::vec((arb_prefix(), prop::option::of(0u8..=3)), 1..6),
    )
        .prop_map(|(asn, entries)| {
            let entries: Vec<RoaPrefix> = entries
                .into_iter()
                .map(|(p, ml)| match ml {
                    Some(extra) => RoaPrefix::with_max_len(p, (p.len() + extra).min(p.max_len())),
                    None => RoaPrefix::exact(p),
                })
                .collect();
            Roa::new(Asn(asn), entries).expect("non-empty, well-formed")
        })
}

fn arb_bgp() -> impl Strategy<Value = BgpTable> {
    prop::collection::vec((arb_prefix(), 1u32..5), 0..40).prop_map(|pairs| {
        pairs
            .into_iter()
            .map(|(p, a)| RouteOrigin::new(p, Asn(a)))
            .collect()
    })
}

/// Either family, lengths 0–3 over only the first three address bits:
/// covering and same-prefix tuples arise constantly.
fn arb_near_prefix() -> impl Strategy<Value = Prefix> {
    (any::<bool>(), 0u8..8, 0u8..=3).prop_map(|(v6, top, len)| {
        if v6 {
            Prefix::V6(Prefix6::new_truncated(u128::from(top) << 125, len))
        } else {
            Prefix::V4(Prefix4::new_truncated(u32::from(top) << 29, len))
        }
    })
}

/// ROA sets for the redundancy rule: origins AS0–AS2, a prefix at several
/// maxLengths, an explicit maxLength equal to the length beside an exact
/// entry, and some ROAs listed again, so one tuple sits in several ROAs.
fn arb_overlapping_roas() -> impl Strategy<Value = Vec<Roa>> {
    let entry = (arb_near_prefix(), prop::option::of(0u8..=2)).prop_map(|(p, ml)| match ml {
        Some(extra) => RoaPrefix::with_max_len(p, p.len() + extra),
        None => RoaPrefix::exact(p),
    });
    let roa = (0u32..3, prop::collection::vec(entry, 1..6))
        .prop_map(|(asn, entries)| Roa::new(Asn(asn), entries).expect("non-empty, well-formed"));
    (
        prop::collection::vec(roa, 0..8),
        prop::collection::vec(0usize..16, 0..16),
    )
        .prop_map(|(distinct, picks)| {
            let again = picks.iter().filter_map(|&i| distinct.get(i).cloned());
            let mut roas = distinct.clone();
            roas.extend(again);
            roas
        })
}

/// The redundancy rule by its definition: each tuple (duplicates kept)
/// that some *other* tuple of its origin covers with a maxLength at least
/// as large, strictly larger on its own prefix. Quadratic.
fn redundant_by_definition(vrps: &[Vrp]) -> Vec<Vrp> {
    let mut out: Vec<Vrp> = vrps
        .iter()
        .filter(|vrp| {
            vrps.iter().any(|other| {
                other != *vrp
                    && other.asn == vrp.asn
                    && other.prefix.covers(vrp.prefix)
                    && other.max_len >= vrp.max_len
                    && (other.prefix != vrp.prefix || other.max_len > vrp.max_len)
            })
        })
        .copied()
        .collect();
    out.sort_unstable();
    out
}

proptest! {
    /// ROA-REDUNDANT flags exactly the multiset of tuples the quadratic
    /// definition does.
    #[test]
    fn redundant_findings_match_the_definition(
        roas in arb_overlapping_roas(),
        bgp in arb_bgp(),
    ) {
        let vrps: Vec<Vrp> = roas.iter().flat_map(|r| r.vrps()).collect();
        let report = LintReport::lint(&roas, &bgp);
        let mut flagged: Vec<Vrp> = report
            .findings
            .iter()
            .filter(|f| f.rule == Rule::RedundantTuple)
            .map(|f| f.vrp)
            .collect();
        flagged.sort_unstable();
        prop_assert_eq!(flagged, redundant_by_definition(&vrps));
    }

    /// ML-USE findings count exactly the census's maxLength-using tuples
    /// (for non-AS0 origins, which these generators guarantee).
    #[test]
    fn ml_use_count_matches_census(
        roas in prop::collection::vec(arb_roa(), 0..8),
        bgp in arb_bgp(),
    ) {
        let vrps: Vec<Vrp> = roas.iter().flat_map(|r| r.vrps()).collect();
        let census = MaxLengthCensus::analyze(&vrps, &bgp);
        let report = LintReport::lint(&roas, &bgp);
        let ml_use = report
            .findings
            .iter()
            .filter(|f| f.rule == Rule::UsesMaxLength)
            .count();
        prop_assert_eq!(ml_use, census.max_len_using);
    }

    /// Every critical finding corresponds to a genuinely non-minimal
    /// tuple, and every announced non-minimal maxLength tuple earns one.
    #[test]
    fn criticals_iff_exposed(
        roas in prop::collection::vec(arb_roa(), 0..8),
        bgp in arb_bgp(),
    ) {
        let report = LintReport::lint(&roas, &bgp);
        for f in report.at(Severity::Critical) {
            prop_assert_eq!(f.rule, Rule::ForgedOriginExposure);
            prop_assert!(!vrp_is_minimal(&f.vrp, &bgp), "critical on minimal {}", f.vrp);
        }
        // Converse: announced, maxLength-using, non-minimal → flagged.
        for roa in &roas {
            for vrp in roa.vrps() {
                let announced = bgp.routes_validated_by(&vrp).next().is_some();
                if announced && !vrp_is_minimal(&vrp, &bgp) {
                    prop_assert!(
                        report
                            .at(Severity::Critical)
                            .any(|f| f.vrp == vrp),
                        "exposed {} not flagged",
                        vrp
                    );
                }
            }
        }
    }

    /// The proposed remediation always lints clean of criticals.
    #[test]
    fn remediation_is_clean(
        roas in prop::collection::vec(arb_roa(), 0..6),
        bgp in arb_bgp(),
    ) {
        // The §8 remediation: minimal ROAs, compressed into PDUs.
        let fixed: Vec<Roa> = minimalize_roas(&roas, &bgp)
            .iter()
            .filter_map(|m| match m {
                MinimalRoa::Converted(r) => Some(r.clone()),
                MinimalRoa::Withdrawn(_) => None,
            })
            .collect();
        let vrps: Vec<Vrp> = fixed.iter().flat_map(|r| r.vrps()).collect();
        let compressed = compress_roas(&vrps);
        let report = LintReport::lint(&fixed, &bgp);
        prop_assert!(!report.has_critical());
        // And the compressed PDU feed authorizes only announced routes.
        for vrp in &compressed {
            prop_assert!(vrp_is_minimal(vrp, &bgp), "{} not minimal", vrp);
        }
    }
}
