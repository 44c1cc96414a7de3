//! Minimal-ROA conversion (§6).
//!
//! A ROA is *minimal* when it authorizes exactly the prefixes its AS
//! announces in BGP (RFC 6907 §3.2). The paper's hardening proposal
//! converts every ROA into a minimal one: "(1) identify the IP prefixes
//! that are made valid by that ROA and are announced in our BGP dataset,
//! and (2) modify the ROA so that it contains only those IP prefixes."
//! This module implements that conversion at both granularities — whole
//! [`Roa`] objects, and the flat VRP/PDU lists the measurement pipeline
//! counts.

use std::collections::BTreeSet;

use rayon::prelude::*;
use rpki_roa::{Roa, RoaPrefix, RouteOrigin, Vrp};

use crate::vulnerability::unannounced;
use crate::BgpTable;

/// Converts a PDU list into the equivalent *minimal, maxLength-free* PDU
/// list: one exact tuple per announced `(prefix, origin)` pair that the
/// input makes valid.
///
/// This is the "minimal ROAs, no maxLength" scenario of Table 1: the
/// result is immune to forged-origin subprefix hijacks because it
/// authorizes nothing that is not already in BGP.
pub fn minimalize_vrps(vrps: &[Vrp], bgp: &BgpTable) -> Vec<Vrp> {
    exact_tuples(vrps.iter().flat_map(|vrp| bgp.routes_validated_by(vrp)))
}

/// [`minimalize_vrps`] with the per-tuple BGP subtree scans fanned out
/// over worker threads (`RAYON_NUM_THREADS` honored). The per-tuple
/// validated-route lists are sorted and deduplicated the same way, so the
/// output is identical to the sequential path: unit-tested here, and
/// through [`crate::Table1::compute_par`] in `tests/props.rs`.
pub fn minimalize_vrps_par(vrps: &[Vrp], bgp: &BgpTable) -> Vec<Vrp> {
    let validated: Vec<Vec<RouteOrigin>> = vrps
        .par_iter()
        .map(|vrp| bgp.routes_validated_by(vrp).collect())
        .collect();
    exact_tuples(validated.into_iter().flatten())
}

/// One exact tuple per distinct route, in `Vrp` order.
fn exact_tuples(routes: impl Iterator<Item = RouteOrigin>) -> Vec<Vrp> {
    let mut out: Vec<Vrp> = routes.map(|r| Vrp::exact(r.prefix, r.origin)).collect();
    out.sort_unstable();
    out.dedup();
    out
}

/// The result of minimalizing one ROA.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum MinimalRoa {
    /// The minimal replacement ROA (same ASN, possibly different prefix
    /// set, no maxLength attributes).
    Converted(Roa),
    /// The ROA validates nothing announced in BGP; RFC 6482 forbids an
    /// empty prefix set, so the operator would *withdraw* this ROA. The
    /// original is returned for reporting.
    Withdrawn(Roa),
}

/// Converts each ROA into its minimal form against a BGP table.
///
/// The number of ROA *objects* does not grow (§6: "we could deal with
/// these 13K additional prefixes without adding any additional ROAs"): a
/// ROA whose coverage is partly announced keeps one object with more
/// prefix entries; one covering nothing announced is withdrawn.
pub fn minimalize_roas(roas: &[Roa], bgp: &BgpTable) -> Vec<MinimalRoa> {
    roas.iter()
        .map(|roa| {
            let mut announced: BTreeSet<RouteOrigin> = BTreeSet::new();
            for vrp in roa.vrps() {
                announced.extend(bgp.routes_validated_by(&vrp));
            }
            let entries: Vec<RoaPrefix> = announced
                .into_iter()
                .map(|r| RoaPrefix::exact(r.prefix))
                .collect();
            match Roa::new(roa.asn(), entries) {
                Ok(minimal) => MinimalRoa::Converted(minimal),
                Err(_) => MinimalRoa::Withdrawn(roa.clone()),
            }
        })
        .collect()
}

/// `true` if `vrp` is minimal with respect to `bgp`: every route it
/// authorizes is actually announced. Non-minimal tuples are exactly the
/// forged-origin-subprefix-hijackable ones (§4: "any prefix p in a ROA
/// with maxLength m longer than p is vulnerable, unless every subprefix of
/// p up to length m is legitimately announced in BGP").
#[inline]
pub fn vrp_is_minimal(vrp: &Vrp, bgp: &BgpTable) -> bool {
    unannounced(vrp, bgp) == 0
}

#[cfg(test)]
mod tests {
    use super::*;
    use rpki_prefix::Prefix;
    use rpki_roa::Asn;

    fn vrps(list: &[&str]) -> Vec<Vrp> {
        list.iter().map(|s| s.parse().unwrap()).collect()
    }

    fn bgp(routes: &[&str]) -> BgpTable {
        routes
            .iter()
            .map(|s| s.parse::<RouteOrigin>().unwrap())
            .collect()
    }

    #[test]
    fn section3_running_example() {
        // BU announces the /16 and one /24; the RPKI holds the non-minimal
        // /16-24 ROA. Minimalization keeps exactly the two announced pairs.
        let table = bgp(&["168.122.0.0/16 => AS111", "168.122.225.0/24 => AS111"]);
        let input = vrps(&["168.122.0.0/16-24 => AS111"]);
        let minimal = minimalize_vrps(&input, &table);
        assert_eq!(
            minimal,
            vrps(&["168.122.0.0/16 => AS111", "168.122.225.0/24 => AS111"])
        );
        assert!(minimal.iter().all(|v| !v.uses_max_len()));
    }

    #[test]
    fn unannounced_roa_prefix_dropped() {
        // The ROA authorizes a prefix nobody announces: minimal form is
        // empty for it.
        let table = bgp(&["10.0.0.0/8 => AS1"]);
        let input = vrps(&["10.0.0.0/8 => AS1", "11.0.0.0/8 => AS1"]);
        let minimal = minimalize_vrps(&input, &table);
        assert_eq!(minimal, vrps(&["10.0.0.0/8 => AS1"]));
    }

    #[test]
    fn wrong_origin_announcements_ignored() {
        let table = bgp(&["10.0.0.0/8 => AS2"]);
        let input = vrps(&["10.0.0.0/8 => AS1"]);
        assert!(minimalize_vrps(&input, &table).is_empty());
    }

    #[test]
    fn beyond_maxlength_announcements_ignored() {
        let table = bgp(&["10.0.0.0/24 => AS1"]);
        let input = vrps(&["10.0.0.0/8-16 => AS1"]);
        // The /24 is covered by the /8 but NOT validated (len > maxLength).
        assert!(minimalize_vrps(&input, &table).is_empty());
    }

    #[test]
    fn overlapping_vrps_dedup() {
        let table = bgp(&["10.0.0.0/16 => AS1"]);
        let input = vrps(&["10.0.0.0/8-16 => AS1", "10.0.0.0/16 => AS1"]);
        assert_eq!(minimalize_vrps(&input, &table).len(), 1);
    }

    #[test]
    fn parallel_minimalize_equals_sequential() {
        let table = bgp(&[
            "168.122.0.0/16 => AS111",
            "168.122.225.0/24 => AS111",
            "10.0.0.0/16 => AS1",
            "10.0.0.0/17 => AS1",
            "2001:db8::/32 => AS2",
        ]);
        let input = vrps(&[
            "168.122.0.0/16-24 => AS111",
            "10.0.0.0/8-17 => AS1",
            "10.0.0.0/16 => AS1",
            "2001:db8::/32-48 => AS2",
            "99.0.0.0/8 => AS9",
        ]);
        assert_eq!(
            minimalize_vrps(&input, &table),
            minimalize_vrps_par(&input, &table)
        );
        assert!(minimalize_vrps_par(&[], &table).is_empty());
    }

    #[test]
    fn minimalize_roas_preserves_object_count() {
        let table = bgp(&[
            "168.122.0.0/16 => AS111",
            "168.122.225.0/24 => AS111",
            "10.0.0.0/8 => AS2",
        ]);
        let roas = vec![
            Roa::new(
                Asn(111),
                vec![RoaPrefix::with_max_len(
                    "168.122.0.0/16".parse::<Prefix>().unwrap(),
                    24,
                )],
            )
            .unwrap(),
            // A ROA validating nothing announced.
            Roa::new(Asn(3), vec![RoaPrefix::exact("9.0.0.0/8".parse().unwrap())]).unwrap(),
        ];
        let minimal = minimalize_roas(&roas, &table);
        assert_eq!(minimal.len(), roas.len());
        let MinimalRoa::Converted(converted) = &minimal[0] else {
            panic!("the announced ROA converts: {:?}", minimal[0]);
        };
        assert_eq!(converted.prefixes().len(), 2);
        assert!(!converted.uses_max_len());
        assert_eq!(converted.asn(), Asn(111));
        assert!(matches!(minimal[1], MinimalRoa::Withdrawn(_)));
    }

    #[test]
    fn vrp_minimality() {
        let table = bgp(&[
            "10.0.0.0/16 => AS1",
            "10.0.0.0/17 => AS1",
            "10.0.128.0/17 => AS1",
        ]);
        // Every subprefix of the /16 up to /17 is announced: minimal.
        assert!(vrp_is_minimal(
            &"10.0.0.0/16-17 => AS1".parse().unwrap(),
            &table
        ));
        // Up to /18: the /18s are unannounced: not minimal.
        assert!(!vrp_is_minimal(
            &"10.0.0.0/16-18 => AS1".parse().unwrap(),
            &table
        ));
        // No maxLength and announced: minimal.
        assert!(vrp_is_minimal(
            &"10.0.0.0/16 => AS1".parse().unwrap(),
            &table
        ));
        // No maxLength and NOT announced: not minimal either.
        assert!(!vrp_is_minimal(
            &"11.0.0.0/16 => AS1".parse().unwrap(),
            &table
        ));
    }

    #[test]
    fn minimal_then_reexpanded_authorizes_only_announced() {
        use crate::compress::expand_authorized;
        let table = bgp(&[
            "10.0.0.0/16 => AS1",
            "10.0.0.0/17 => AS1",
            "10.0.128.0/17 => AS1",
        ]);
        let input = vrps(&["10.0.0.0/16-20 => AS1"]);
        let minimal = minimalize_vrps(&input, &table);
        let authorized = expand_authorized(&minimal);
        assert_eq!(authorized.len(), 3);
        for route in authorized {
            assert!(table.contains(&route));
        }
    }
}
