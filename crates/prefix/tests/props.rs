//! Property-based tests for prefix invariants. Every property of one
//! family is written once, generic over [`Family`], and runs for both
//! families as `v4::NAME` and `v6::NAME`.

use proptest::prelude::*;
use rpki_prefix::{Afi, Family, Ipv4, Ipv6, Prefix, Prefix4, Prefix6, PrefixOf};

/// How the properties draw one family's prefixes.
trait Draw: Family {
    /// Any address.
    fn any_bits() -> BoxedStrategy<Self::Bits>;
    /// `high` in the top three bits and `low` in the bottom three.
    fn near_bits(high: u8, low: u8) -> Self::Bits;
    /// The bits as a number, for arithmetic on addresses.
    fn wide(bits: Self::Bits) -> u128;
    /// The prefix as the address-family-agnostic enum.
    fn wrap(p: PrefixOf<Self>) -> Prefix;
}

impl Draw for Ipv4 {
    fn any_bits() -> BoxedStrategy<u32> {
        any::<u32>().boxed()
    }
    fn near_bits(high: u8, low: u8) -> u32 {
        u32::from(high) << 29 | u32::from(low)
    }
    fn wide(bits: u32) -> u128 {
        u128::from(bits)
    }
    fn wrap(p: Prefix4) -> Prefix {
        Prefix::V4(p)
    }
}

impl Draw for Ipv6 {
    fn any_bits() -> BoxedStrategy<u128> {
        any::<u128>().boxed()
    }
    fn near_bits(high: u8, low: u8) -> u128 {
        u128::from(high) << 125 | u128::from(low)
    }
    fn wide(bits: u128) -> u128 {
        bits
    }
    fn wrap(p: Prefix6) -> Prefix {
        Prefix::V6(p)
    }
}

fn arb<F: Draw>() -> impl Strategy<Value = PrefixOf<F>> {
    (F::any_bits(), 0..=F::MAX_LEN).prop_map(|(bits, len)| PrefixOf::new_truncated(bits, len))
}

/// Three free bits at the top and three at the bottom, lengths `/0`–`/3`
/// and the last four up to the host length, so ancestors, siblings and
/// in-between prefixes arise constantly.
fn near<F: Draw>() -> impl Strategy<Value = PrefixOf<F>> {
    (0u8..8, 0u8..8, 0u8..8).prop_map(|(high, low, l)| {
        let len = if l < 4 { l } else { F::MAX_LEN - 7 + l };
        PrefixOf::new_truncated(F::near_bits(high, low), len)
    })
}

fn arb_prefix() -> impl Strategy<Value = Prefix> {
    prop_oneof![
        arb::<Ipv4>().prop_map(Prefix::V4),
        arb::<Ipv6>().prop_map(Prefix::V6)
    ]
}

fn near_prefix() -> impl Strategy<Value = Prefix> {
    prop_oneof![
        near::<Ipv4>().prop_map(Prefix::V4),
        near::<Ipv6>().prop_map(Prefix::V6)
    ]
}

/// Declares each property once per family, in modules `v4` and `v6`
/// where `F` names the family, calling the generic body of the same name.
macro_rules! both_families {
    ($(fn $name:ident($($arg:ident in $strat:expr),+);)*) => {
        mod v4 {
            use super::*;
            type F = Ipv4;
            proptest! {
                $(#[test] fn $name($($arg in $strat),+) { super::$name::<F>($($arg),+) })*
            }
        }
        mod v6 {
            use super::*;
            type F = Ipv6;
            proptest! {
                $(#[test] fn $name($($arg in $strat),+) { super::$name::<F>($($arg),+) })*
            }
        }
    };
}

both_families! {
    fn parse_display_round_trip(p in arb::<F>());
    fn new_truncated_clears_host_bits(bits in F::any_bits(), len in 0..=F::MAX_LEN);
    fn parent_covers_child(p in arb::<F>());
    fn children_partition(p in arb::<F>());
    fn sibling_is_involution(p in arb::<F>());
    fn covers_iff_ancestor(a in arb::<F>(), b in arb::<F>());
    fn covers_transitive(a in near::<F>(), b in near::<F>(), c in near::<F>());
    fn common_ancestor_properties(a in arb::<F>(), b in arb::<F>());
    fn subprefixes_covered_and_counted(p in arb::<F>(), extra in 0u8..=4);
    fn contains_addr_consistent_with_covers(p in arb::<F>(), addr in F::any_bits());
    fn uniform_key_preserves_order(a in near::<F>(), b in near::<F>());
    fn order_is_preorder(a in near::<F>(), x in near::<F>(), b in near::<F>());
}

fn parse_display_round_trip<F: Draw>(p: PrefixOf<F>) {
    let back: PrefixOf<F> = p.to_string().parse().unwrap();
    prop_assert_eq!(p, back);
}

fn new_truncated_clears_host_bits<F: Draw>(bits: F::Bits, len: u8) {
    let t = PrefixOf::<F>::new_truncated(bits, len);
    prop_assert_eq!(t.len(), len);
    prop_assert!(t.covers(PrefixOf::host(bits.into())));
    prop_assert_eq!(PrefixOf::new(t.bits(), len), Ok(t));
    prop_assert_eq!(PrefixOf::<F>::new(bits, len).is_ok(), t.bits() == bits);
}

fn parent_covers_child<F: Draw>(p: PrefixOf<F>) {
    match p.parent() {
        Some(parent) => {
            prop_assert!(parent.covers(p));
            prop_assert!(!p.covers(parent));
            prop_assert_eq!(parent.len(), p.len() - 1);
            prop_assert_eq!(p.ancestor_at(p.len() - 1), Some(parent));
        }
        None => prop_assert_eq!(p, PrefixOf::DEFAULT),
    }
}

fn children_partition<F: Draw>(p: PrefixOf<F>) {
    let Some((l, r)) = p.children() else {
        prop_assert_eq!(p.len(), F::MAX_LEN);
        return;
    };
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
    // Children exactly halve the address span: the left one starts where
    // the parent does, the right one half a span on.
    let half = 1u128 << (F::MAX_LEN - l.len());
    prop_assert_eq!(l.bits(), p.bits());
    prop_assert_eq!(F::wide(r.bits()), F::wide(p.bits()) + half);
}

fn sibling_is_involution<F: Draw>(p: PrefixOf<F>) {
    let Some(s) = p.sibling() else {
        prop_assert_eq!(p, PrefixOf::DEFAULT);
        return;
    };
    prop_assert_ne!(s, p);
    prop_assert_eq!(s.sibling(), Some(p));
    prop_assert_eq!(s.parent(), p.parent());
    prop_assert_eq!(s.is_left_child(), !p.is_left_child());
}

fn covers_iff_ancestor<F: Draw>(a: PrefixOf<F>, b: PrefixOf<F>) {
    prop_assert_eq!(a.covers(b), b.ancestor_at(a.len()) == Some(a));
    prop_assert_eq!(a.covers(b), b.covered_by(a));
}

fn covers_transitive<F: Draw>(a: PrefixOf<F>, b: PrefixOf<F>, c: PrefixOf<F>) {
    if a.covers(b) && b.covers(c) {
        prop_assert!(a.covers(c));
    }
}

fn common_ancestor_properties<F: Draw>(a: PrefixOf<F>, b: PrefixOf<F>) {
    let ca = a.common_ancestor(b);
    prop_assert_eq!(ca, b.common_ancestor(a));
    prop_assert!(ca.covers(a));
    prop_assert!(ca.covers(b));
    // It is the *longest* such: one level deeper no longer covers both.
    for child in [ca.left_child(), ca.right_child()].into_iter().flatten() {
        prop_assert!(!(child.covers(a) && child.covers(b)));
    }
}

fn subprefixes_covered_and_counted<F: Draw>(p: PrefixOf<F>, extra: u8) {
    let max_len = p.len().saturating_add(extra).min(F::MAX_LEN);
    let subs: Vec<_> = p.subprefixes(max_len).collect();
    prop_assert_eq!(subs.len() as u128, p.subprefix_count(max_len));
    for s in &subs {
        prop_assert!(p.covers(*s));
        prop_assert!(s.len() >= p.len() && s.len() <= max_len);
    }
    // All distinct, in ascending (len, bits) order.
    prop_assert!(subs
        .windows(2)
        .all(|w| (w[0].len(), w[0]) < (w[1].len(), w[1])));
}

fn contains_addr_consistent_with_covers<F: Draw>(p: PrefixOf<F>, addr: F::Bits) {
    let addr: F::Addr = addr.into();
    prop_assert_eq!(p.contains_addr(addr), p.covers(PrefixOf::host(addr)));
}

fn uniform_key_preserves_order<F: Draw>(a: PrefixOf<F>, b: PrefixOf<F>) {
    // The family's (bits, len) order must survive the u128 embedding.
    let (pa, pb) = (F::wrap(a), F::wrap(b));
    let key = |p: Prefix| (p.bits_u128(), p.len());
    prop_assert_eq!(a.cmp(&b), key(pa).cmp(&key(pb)));
    prop_assert_eq!(pa.cmp(&pb), a.cmp(&b));
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

fn order_is_preorder<F: Draw>(a: PrefixOf<F>, x: PrefixOf<F>, b: PrefixOf<F>) {
    check_preorder(PrefixOf::covers, a, x, b);
    check_preorder(PrefixOf::covers, a.common_ancestor(b), x, b);
}

proptest! {
    #[test]
    fn enum_parse_display_round_trip(p in arb_prefix()) {
        let back: Prefix = p.to_string().parse().unwrap();
        prop_assert_eq!(p, back);
    }

    #[test]
    fn uniform_key_round_trip(p in arb_prefix()) {
        let back = Prefix::from_bits_u128(p.afi(), p.bits_u128(), p.len()).unwrap();
        prop_assert_eq!(p, back);
    }

    #[test]
    fn afi_consistency(p in arb_prefix()) {
        prop_assert_eq!(p.len() <= p.afi().max_len(), true);
        prop_assert_eq!(Afi::from_code(p.afi().code()), Some(p.afi()));
    }

    #[test]
    fn cross_family_relations_always_false(a in arb::<Ipv4>(), b in arb::<Ipv6>()) {
        let (pa, pb) = (Prefix::V4(a), Prefix::V6(b));
        prop_assert!(!pa.covers(pb));
        prop_assert!(!pb.covers(pa));
        prop_assert!(!pa.covered_by(pb));
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

/// Each prefix type as a plain derive on a struct of the same name and
/// fields would make it: `Prefix6` as it was before its bits moved to
/// 8-byte alignment (a bare `u128`), and `Prefix4` as it was before both
/// families became one generic type. Same type names, so the `Debug`
/// text is comparable verbatim.
mod reference {
    #[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
    pub struct Prefix4 {
        pub bits: u32,
        pub len: u8,
    }

    #[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
    pub struct Prefix6 {
        pub bits: u128,
        pub len: u8,
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

/// `a` against `b` and against `c`, a prefix that differs from `a` at
/// most in its length (independent pairs almost never share bits, and
/// `len` breaks ties), compared, hashed and printed as the reference
/// struct `to_ref` builds would be.
fn like_reference<P, R>(a: P, b: P, c: P, to_ref: impl Fn(P) -> R)
where
    P: Copy + Ord + std::hash::Hash + std::fmt::Debug,
    R: Copy + Ord + std::hash::Hash + std::fmt::Debug,
{
    for (x, y) in [(a, b), (a, c), (a, a)] {
        let (rx, ry) = (to_ref(x), to_ref(y));
        prop_assert_eq!(x.cmp(&y), rx.cmp(&ry));
        prop_assert_eq!(x.partial_cmp(&y), rx.partial_cmp(&ry));
        prop_assert_eq!(x == y, rx == ry);
    }
    let ra = to_ref(a);
    prop_assert_eq!(digest(&a), digest(&ra));
    prop_assert_eq!(format!("{a:?}"), format!("{ra:?}"));
    prop_assert_eq!(format!("{a:#?}"), format!("{ra:#?}"));
    prop_assert_eq!(format!("{a:x?}"), format!("{ra:x?}"));
    prop_assert_eq!(format!("{a:#x?}"), format!("{ra:#x?}"));
}

proptest! {
    #[test]
    fn v6_orders_hashes_and_prints_like_the_bare_u128_struct(
        a in arb::<Ipv6>(),
        b in arb::<Ipv6>(),
        same_bits_len in 0u8..=128,
    ) {
        let c = Prefix6::new_truncated(a.bits(), same_bits_len);
        like_reference(a, b, c, |p| reference::Prefix6 { bits: p.bits(), len: p.len() });
    }

    #[test]
    fn v4_orders_hashes_and_prints_like_the_derived_struct(
        a in arb::<Ipv4>(),
        b in arb::<Ipv4>(),
        same_bits_len in 0u8..=32,
    ) {
        let c = Prefix4::new_truncated(a.bits(), same_bits_len);
        like_reference(a, b, c, |p| reference::Prefix4 { bits: p.bits(), len: p.len() });
    }
}
