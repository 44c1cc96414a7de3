//! Full-deployment bounds (§6, "Benefit? Reducing load on routers").
//!
//! To bound how much PDU compression maxLength could *ever* buy, the paper
//! imagines every announced `(prefix, AS)` pair covered by a
//! **maximally-permissive ROA** (maxLength 32/128). Such a ROA set needs
//! one tuple per announced pair that has no same-origin ancestor in BGP —
//! everything else is swallowed by an ancestor's permissive maxLength.
//! On the June 2017 table this shrinks 777K pairs to only 729K tuples, a
//! 6.2% ceiling; `compress_roas` gets within a fraction of a percent of it
//! without creating any vulnerability.

use rpki_roa::{RouteOrigin, Vrp};

use crate::BgpTable;

/// The "minimal ROAs, no maxLength" PDU set for full deployment: one exact
/// tuple per announced pair. (Table 1 row 5: 776,945 on the paper's data.)
///
/// The table iterates in `(prefix, origin)` order and an exact tuple's
/// maxLength is its length, so the list comes out in `Vrp` order.
pub fn full_deployment_minimal(bgp: &BgpTable) -> Vec<Vrp> {
    bgp.iter().map(|r| Vrp::exact(r.prefix, r.origin)).collect()
}

/// The maximally-permissive lower bound (Table 1 row 7): tuples for exactly
/// those announced pairs with no same-origin strict ancestor announced,
/// each given the family-maximum maxLength.
///
/// This is the fewest PDUs *any* maxLength assignment covering the whole
/// table can produce — and it is maximally vulnerable to forged-origin
/// subprefix hijacks, which is why the paper uses it only as a bound.
pub fn max_permissive_lower_bound(bgp: &BgpTable) -> Vec<Vrp> {
    // Reserved once: grown by doubling, a list this long moves through
    // the allocator a dozen times, at a cost that depends on what the heap
    // holds at that moment.
    let mut out = Vec::with_capacity(bgp.len());
    // `for_each` runs the table's chained iterator as one fold; `extend`
    // on a filter would step it pair by pair, a quarter slower here.
    lower_bound_roots(bgp).for_each(|r| out.push(Vrp::max_permissive(r.prefix, r.origin)));
    out
}

/// The announced pairs with no same-origin strict ancestor announced, in
/// table order: the pairs [`max_permissive_lower_bound`] keeps, for
/// callers that need only how many there are.
///
/// One pass: the table iterates in prefix order, a prefix directly before
/// everything it covers, so the announced strict ancestors of the current
/// prefix are exactly a stack — pop while the top does not cover it (never
/// again will it cover anything), and what remains are all its ancestors
/// (and the other origins of the prefix itself). That answers "does this
/// origin announce a strict ancestor?" for every pair without a probe per
/// shorter length per pair.
pub(crate) fn lower_bound_roots(bgp: &BgpTable) -> impl Iterator<Item = RouteOrigin> + '_ {
    let mut ancestors: Vec<RouteOrigin> = Vec::new();
    bgp.iter().filter(move |route| {
        while ancestors
            .last()
            .is_some_and(|top| !top.prefix.covers(route.prefix))
        {
            ancestors.pop();
        }
        // Pairs are distinct, so a same-origin pair on the stack is on a
        // strictly shorter prefix.
        let root = !ancestors.iter().any(|above| above.origin == route.origin);
        ancestors.push(*route);
        root
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    fn bgp(routes: &[&str]) -> BgpTable {
        routes
            .iter()
            .map(|s| s.parse::<RouteOrigin>().unwrap())
            .collect()
    }

    #[test]
    fn minimal_is_one_tuple_per_pair() {
        let table = bgp(&[
            "10.0.0.0/8 => AS1",
            "10.0.0.0/16 => AS1",
            "11.0.0.0/8 => AS2",
        ]);
        let minimal = full_deployment_minimal(&table);
        assert_eq!(minimal.len(), 3);
        assert!(minimal.iter().all(|v| !v.uses_max_len()));
    }

    /// Whatever order the pairs arrive in, the table iterates strictly
    /// ascending, so neither bound needs a sort of its own.
    #[test]
    fn minimal_is_sorted_without_a_global_sort() {
        let table = bgp(&[
            "2001:db8::/32 => AS9",
            "2001:db8::/32 => AS2",
            "10.0.0.0/8 => AS7",
            "10.0.0.0/8 => AS3",
            "10.0.0.0/8 => AS5",
            "10.0.0.0/16 => AS7",
            "9.0.0.0/8 => AS8",
            "::/0 => AS4",
            "0.0.0.0/0 => AS6",
            "0.0.0.0/0 => AS1",
            "2001:db8::/48 => AS2",
        ]);
        let routes: Vec<RouteOrigin> = table.iter().collect();
        assert_eq!(routes.len(), 11);
        assert!(routes.windows(2).all(|w| w[0] < w[1]));
        assert!(full_deployment_minimal(&table)
            .windows(2)
            .all(|w| w[0] < w[1]));
        assert!(max_permissive_lower_bound(&table).is_sorted());
    }

    #[test]
    fn lower_bound_drops_deaggregates() {
        let table = bgp(&[
            "10.0.0.0/8 => AS1",
            "10.0.0.0/16 => AS1", // de-aggregate of AS1's /8: swallowed
            "10.1.0.0/16 => AS2", // different origin: kept
            "11.0.0.0/8 => AS2",
        ]);
        let bound = max_permissive_lower_bound(&table);
        assert_eq!(bound.len(), 3);
        assert!(bound.iter().all(|v| v.max_len == v.prefix.max_len()));
        // The surviving tuples authorize every announced pair.
        for route in table.iter() {
            assert!(bound.iter().any(|v| v.matches(&route)), "{route}");
        }
    }

    #[test]
    fn lower_bound_equals_pairs_without_deaggregation() {
        let table = bgp(&[
            "10.0.0.0/8 => AS1",
            "11.0.0.0/8 => AS2",
            "2001:db8::/32 => AS3",
        ]);
        assert_eq!(max_permissive_lower_bound(&table).len(), table.len());
    }

    #[test]
    fn lower_bound_keeps_one_tuple_per_same_origin_subtree() {
        let table = bgp(&[
            "10.0.0.0/8 => AS1",
            "10.0.0.0/16 => AS1",
            "10.1.0.0/16 => AS1",
            "11.0.0.0/8 => AS2",
        ]);
        // 4 pairs, 2 roots: a compression ceiling of 50 %.
        assert_eq!(max_permissive_lower_bound(&table).len(), 2);
    }

    #[test]
    fn empty_table() {
        let table = BgpTable::new();
        assert!(full_deployment_minimal(&table).is_empty());
        assert!(max_permissive_lower_bound(&table).is_empty());
    }

    #[test]
    fn nested_chain_keeps_only_top() {
        let table = bgp(&[
            "10.0.0.0/8 => AS1",
            "10.0.0.0/12 => AS1",
            "10.0.0.0/16 => AS1",
            "10.0.0.0/24 => AS1",
        ]);
        let bound = max_permissive_lower_bound(&table);
        assert_eq!(bound.len(), 1);
        assert_eq!(bound[0].prefix.len(), 8);
    }
}
