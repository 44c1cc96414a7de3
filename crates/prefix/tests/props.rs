//! Property-based tests for prefix invariants.

use proptest::prelude::*;
use rpki_prefix::{Afi, Prefix, Prefix4, Prefix6};

fn arb_prefix4() -> impl Strategy<Value = Prefix4> {
    (any::<u32>(), 0u8..=32).prop_map(|(bits, len)| Prefix4::new_truncated(bits, len))
}

fn arb_prefix6() -> impl Strategy<Value = Prefix6> {
    (any::<u128>(), 0u8..=128).prop_map(|(bits, len)| Prefix6::new_truncated(bits, len))
}

fn arb_prefix() -> impl Strategy<Value = Prefix> {
    prop_oneof![
        arb_prefix4().prop_map(Prefix::V4),
        arb_prefix6().prop_map(Prefix::V6),
    ]
}

proptest! {
    #[test]
    fn v4_parse_display_round_trip(p in arb_prefix4()) {
        let s = p.to_string();
        let back: Prefix4 = s.parse().unwrap();
        prop_assert_eq!(p, back);
    }

    #[test]
    fn v6_parse_display_round_trip(p in arb_prefix6()) {
        let s = p.to_string();
        let back: Prefix6 = s.parse().unwrap();
        prop_assert_eq!(p, back);
    }

    #[test]
    fn enum_parse_display_round_trip(p in arb_prefix()) {
        let back: Prefix = p.to_string().parse().unwrap();
        prop_assert_eq!(p, back);
    }

    #[test]
    fn v4_parent_covers_child(p in arb_prefix4()) {
        if let Some(parent) = p.parent() {
            prop_assert!(parent.covers(p));
            prop_assert!(!p.covers(parent));
            prop_assert_eq!(parent.len(), p.len() - 1);
        }
    }

    #[test]
    fn v4_children_partition(p in arb_prefix4()) {
        if let Some((l, r)) = p.children() {
            prop_assert!(p.covers(l));
            prop_assert!(p.covers(r));
            prop_assert!(!l.covers(r));
            prop_assert!(!r.covers(l));
            prop_assert_eq!(l.parent().unwrap(), p);
            prop_assert_eq!(r.parent().unwrap(), p);
            prop_assert_eq!(l.sibling().unwrap(), r);
            prop_assert_eq!(r.sibling().unwrap(), l);
            prop_assert!(l.is_left_child());
            prop_assert!(!r.is_left_child());
            // Children exactly halve the address span: the left one
            // starts where the parent does, the right one half a span on.
            let half = 1u64 << (32 - l.len());
            prop_assert_eq!(l.bits(), p.bits());
            prop_assert_eq!(u64::from(r.bits()), u64::from(p.bits()) + half);
        }
    }

    #[test]
    fn v6_children_partition(p in arb_prefix6()) {
        if let Some((l, r)) = p.children() {
            prop_assert!(p.covers(l) && p.covers(r));
            prop_assert_eq!(l.sibling().unwrap(), r);
            prop_assert_eq!(l.parent().unwrap(), p);
            prop_assert_eq!(l.bits(), p.bits());
            prop_assert_eq!(r.bits(), p.bits() | 1u128 << (128 - r.len()));
        }
    }

    #[test]
    fn v4_covers_iff_ancestor(a in arb_prefix4(), b in arb_prefix4()) {
        let covers = a.covers(b);
        let via_ancestor = b.ancestor_at(a.len()) == Some(a);
        prop_assert_eq!(covers, via_ancestor);
    }

    #[test]
    fn v4_covers_transitive(a in arb_prefix4(), b in arb_prefix4(), c in arb_prefix4()) {
        if a.covers(b) && b.covers(c) {
            prop_assert!(a.covers(c));
        }
    }

    #[test]
    fn v4_common_ancestor_properties(a in arb_prefix4(), b in arb_prefix4()) {
        let ca = a.common_ancestor(b);
        prop_assert!(ca.covers(a));
        prop_assert!(ca.covers(b));
        // It is the *longest* such: one level deeper no longer covers both.
        for child in [ca.left_child(), ca.right_child()].into_iter().flatten() {
            prop_assert!(!(child.covers(a) && child.covers(b)));
        }
    }

    #[test]
    fn v4_subprefixes_covered_and_counted(p in arb_prefix4(), extra in 0u8..=4) {
        let max_len = (p.len() + extra).min(32);
        let subs: Vec<_> = p.subprefixes(max_len).collect();
        prop_assert_eq!(subs.len() as u64, p.subprefix_count(max_len));
        for s in &subs {
            prop_assert!(p.covers(*s));
            prop_assert!(s.len() >= p.len() && s.len() <= max_len);
        }
        // All distinct.
        let mut dedup = subs.clone();
        dedup.sort_unstable();
        dedup.dedup();
        prop_assert_eq!(dedup.len(), subs.len());
    }

    #[test]
    fn v4_contains_addr_consistent_with_covers(p in arb_prefix4(), addr in any::<u32>()) {
        let host = Prefix4::host(std::net::Ipv4Addr::from(addr));
        prop_assert_eq!(p.contains_addr(std::net::Ipv4Addr::from(addr)), p.covers(host));
    }

    #[test]
    fn uniform_key_round_trip(p in arb_prefix()) {
        let back = Prefix::from_bits_u128(p.afi(), p.bits_u128(), p.len()).unwrap();
        prop_assert_eq!(p, back);
    }

    #[test]
    fn uniform_key_preserves_order_within_family(a in arb_prefix4(), b in arb_prefix4()) {
        // (bits, len) lexicographic order must survive the u128 embedding.
        let (pa, pb) = (Prefix::V4(a), Prefix::V4(b));
        let lhs = (a.bits(), a.len()) < (b.bits(), b.len());
        let rhs = (pa.bits_u128(), pa.len()) < (pb.bits_u128(), pb.len());
        prop_assert_eq!(lhs, rhs);
    }

    #[test]
    fn afi_consistency(p in arb_prefix()) {
        prop_assert_eq!(p.len() <= p.afi().max_len(), true);
        prop_assert_eq!(Afi::from_code(p.afi().code()), Some(p.afi()));
    }
}

proptest! {
    #[test]
    fn v6_covers_transitive(a in arb_prefix6(), b in arb_prefix6(), c in arb_prefix6()) {
        if a.covers(b) && b.covers(c) {
            prop_assert!(a.covers(c));
        }
    }

    #[test]
    fn v6_covers_iff_ancestor(a in arb_prefix6(), b in arb_prefix6()) {
        prop_assert_eq!(a.covers(b), b.ancestor_at(a.len()) == Some(a));
    }

    #[test]
    fn v6_common_ancestor_properties(a in arb_prefix6(), b in arb_prefix6()) {
        let ca = a.common_ancestor(b);
        prop_assert!(ca.covers(a) && ca.covers(b));
        for child in [ca.left_child(), ca.right_child()].into_iter().flatten() {
            prop_assert!(!(child.covers(a) && child.covers(b)));
        }
    }

    #[test]
    fn v6_subprefixes_covered_and_counted(p in arb_prefix6(), extra in 0u8..=3) {
        let max_len = (p.len() + extra).min(128);
        let subs: Vec<_> = p.subprefixes(max_len).collect();
        prop_assert_eq!(subs.len() as u128, p.subprefix_count(max_len));
        for s in &subs {
            prop_assert!(p.covers(*s));
        }
    }

    #[test]
    fn v6_contains_addr_consistent(p in arb_prefix6(), addr in any::<u128>()) {
        let host = Prefix6::host(std::net::Ipv6Addr::from(addr));
        prop_assert_eq!(p.contains_addr(std::net::Ipv6Addr::from(addr)), p.covers(host));
    }

    #[test]
    fn cross_family_relations_always_false(a in arb_prefix4(), b in arb_prefix6()) {
        let (pa, pb) = (Prefix::V4(a), Prefix::V6(b));
        prop_assert!(!pa.covers(pb));
        prop_assert!(!pb.covers(pa));
        prop_assert!(!pa.covered_by(pb));
    }
}

/// What every sorted index in the workspace rests on: the derived order is
/// the pre-order of the prefix trie. A prefix sorts at or before whatever
/// it covers, and whatever sorts between the two is covered as well — so
/// "covered by `a`" is one contiguous run of any sorted container.
///
/// Each test also runs it with `a` replaced by the common ancestor of `a`
/// and `b`, which always covers `b`, so the premise is never vacuous.
fn check_preorder<P: Copy + Ord>(covers: impl Fn(P, P) -> bool, a: P, x: P, b: P) {
    if covers(a, b) {
        assert!(a <= b);
        if a <= x && x <= b {
            assert!(covers(a, x));
        }
    }
}

/// Three free bits at the top and three at the bottom, lengths `/0`–`/3`
/// and the last four up to the host length, so ancestors, siblings and
/// in-between prefixes arise constantly.
fn near_prefix4() -> impl Strategy<Value = Prefix4> {
    (0u32..8, 0u32..8, 0u8..8).prop_map(|(high, low, l)| {
        Prefix4::new_truncated(high << 29 | low, if l < 4 { l } else { 25 + l })
    })
}

fn near_prefix6() -> impl Strategy<Value = Prefix6> {
    (0u128..8, 0u128..8, 0u8..8).prop_map(|(high, low, l)| {
        Prefix6::new_truncated(high << 125 | low, if l < 4 { l } else { 121 + l })
    })
}

fn near_prefix() -> impl Strategy<Value = Prefix> {
    prop_oneof![
        near_prefix4().prop_map(Prefix::V4),
        near_prefix6().prop_map(Prefix::V6),
    ]
}

proptest! {
    #[test]
    fn v4_order_is_preorder(a in near_prefix4(), x in near_prefix4(), b in near_prefix4()) {
        check_preorder(Prefix4::covers, a, x, b);
        check_preorder(Prefix4::covers, a.common_ancestor(b), x, b);
    }

    #[test]
    fn v6_order_is_preorder(a in near_prefix6(), x in near_prefix6(), b in near_prefix6()) {
        check_preorder(Prefix6::covers, a, x, b);
        check_preorder(Prefix6::covers, a.common_ancestor(b), x, b);
    }

    #[test]
    fn mixed_family_order_is_preorder(a in near_prefix(), x in near_prefix(), b in near_prefix()) {
        check_preorder(Prefix::covers, a, x, b);
        if let Some(above) = a.common_ancestor(b) {
            check_preorder(Prefix::covers, above, x, b);
        }
    }

    #[test]
    fn common_ancestor_is_per_family_or_none(a in near_prefix(), b in near_prefix()) {
        let expect = match (a, b) {
            (Prefix::V4(a), Prefix::V4(b)) => Some(Prefix::V4(a.common_ancestor(b))),
            (Prefix::V6(a), Prefix::V6(b)) => Some(Prefix::V6(a.common_ancestor(b))),
            _ => None,
        };
        prop_assert_eq!(a.common_ancestor(b), expect);
    }
}

/// `Prefix6` as it was before its bits moved to 8-byte alignment
/// (ISSUE 15): a bare `u128` with the same derives. Same type name, so
/// the `Debug` text is comparable verbatim.
mod reference {
    #[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
    pub struct Prefix6 {
        pub bits: u128,
        pub len: u8,
    }
}

fn reference_of(p: Prefix6) -> reference::Prefix6 {
    reference::Prefix6 {
        bits: p.bits(),
        len: p.len(),
    }
}

/// `DefaultHasher::new()` uses fixed keys, so equal digests mean the
/// two `Hash` impls fed it the same bytes in the same calls.
fn digest<T: std::hash::Hash>(value: &T) -> u64 {
    use std::hash::Hasher;
    let mut hasher = std::collections::hash_map::DefaultHasher::new();
    value.hash(&mut hasher);
    hasher.finish()
}

proptest! {
    #[test]
    fn v6_orders_hashes_and_prints_like_the_bare_u128_struct(
        a in arb_prefix6(),
        b in arb_prefix6(),
        same_bits_len in 0u8..=128,
    ) {
        // Independent pairs almost never share bits; `c` differs from
        // `a` at most in its length, which is where `len` breaks ties.
        let c = Prefix6::new_truncated(a.bits(), same_bits_len);
        for (x, y) in [(a, b), (a, c), (a, a)] {
            let (rx, ry) = (reference_of(x), reference_of(y));
            prop_assert_eq!(x.cmp(&y), rx.cmp(&ry));
            prop_assert_eq!(x.partial_cmp(&y), rx.partial_cmp(&ry));
            prop_assert_eq!(x == y, rx == ry);
        }
        let ra = reference_of(a);
        prop_assert_eq!(digest(&a), digest(&ra));
        prop_assert_eq!(format!("{a:?}"), format!("{ra:?}"));
        prop_assert_eq!(format!("{a:#?}"), format!("{ra:#?}"));
        prop_assert_eq!(format!("{a:x?}"), format!("{ra:x?}"));
    }
}
