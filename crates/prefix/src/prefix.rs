use std::fmt;
use std::net::IpAddr;
use std::str::FromStr;

use crate::{Afi, Prefix4, Prefix6, PrefixError};

/// `$body` on the family prefix inside `$prefix`, bound to `$p`.
macro_rules! either {
    ($prefix:expr, $p:ident => $body:expr) => {
        match $prefix {
            Prefix::V4($p) => $body,
            Prefix::V6($p) => $body,
        }
    };
}

/// `$body`, an optional prefix of `$prefix`'s family, back in the enum.
macro_rules! same_family {
    ($prefix:expr, $p:ident => $body:expr) => {
        match $prefix {
            Prefix::V4($p) => $body.map(Prefix::V4),
            Prefix::V6($p) => $body.map(Prefix::V6),
        }
    };
}

/// An address-family-agnostic IP prefix.
///
/// Most of the analysis pipeline (ROAs, VRPs, BGP tables) mixes IPv4 and
/// IPv6 entries in the same collections; this enum lets them share indexes
/// and algorithms while the family-specific types do the bit work.
/// Cross-family comparisons are well-defined and never "cover" each other:
/// all relational predicates return `false` across families. The derived
/// `Ord` puts all of IPv4 before IPv6 and keeps each family's order (see
/// [`Prefix4`]), so a prefix still sorts directly before what it covers.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum Prefix {
    /// An IPv4 prefix.
    V4(Prefix4),
    /// An IPv6 prefix.
    V6(Prefix6),
}

impl Prefix {
    /// The address family of this prefix.
    #[inline]
    pub const fn afi(self) -> Afi {
        match self {
            Prefix::V4(_) => Afi::V4,
            Prefix::V6(_) => Afi::V6,
        }
    }

    /// `true` if this is an IPv4 prefix.
    #[inline]
    pub const fn is_v4(self) -> bool {
        matches!(self, Prefix::V4(_))
    }

    /// The prefix length. (A length of 0 is the default route, not an
    /// "empty" prefix — there is deliberately no `is_empty`.)
    #[inline]
    #[allow(clippy::len_without_is_empty)]
    pub const fn len(self) -> u8 {
        either!(self, p => p.len())
    }

    /// The maximum prefix length for this prefix's family (32 or 128).
    #[inline]
    pub const fn max_len(self) -> u8 {
        self.afi().max_len()
    }

    /// The prefix bits left-aligned in a `u128`. For IPv4 the 32 address
    /// bits occupy the **top** of the word, so `(bits_u128, len, afi)` is a
    /// uniform trie key for either family.
    #[inline]
    pub fn bits_u128(self) -> u128 {
        match self {
            Prefix::V4(p) => u128::from(p.bits()) << 96,
            Prefix::V6(p) => p.bits(),
        }
    }

    /// Reconstructs a prefix from the uniform `(afi, bits_u128, len)` key.
    /// Inverse of [`bits_u128`](Self::bits_u128) + [`len`](Self::len).
    pub fn from_bits_u128(afi: Afi, bits: u128, len: u8) -> Result<Prefix, PrefixError> {
        match afi {
            Afi::V4 => {
                let top = Prefix4::new((bits >> 96) as u32, len)?;
                if bits & ((1u128 << 96) - 1) != 0 {
                    return Err(PrefixError::HostBitsSet);
                }
                Ok(Prefix::V4(top))
            }
            Afi::V6 => Prefix6::new(bits, len).map(Prefix::V6),
        }
    }

    /// `true` if `self` covers `other`. Always `false` across families.
    #[inline]
    pub fn covers(self, other: Prefix) -> bool {
        match (self, other) {
            (Prefix::V4(a), Prefix::V4(b)) => a.covers(b),
            (Prefix::V6(a), Prefix::V6(b)) => a.covers(b),
            _ => false,
        }
    }

    /// `true` if `self` is covered by `other`.
    #[inline]
    pub fn covered_by(self, other: Prefix) -> bool {
        other.covers(self)
    }

    /// `true` if the prefix contains the given address (always `false`
    /// across families).
    pub fn contains_addr(self, addr: IpAddr) -> bool {
        match (self, addr) {
            (Prefix::V4(p), IpAddr::V4(a)) => p.contains_addr(a),
            (Prefix::V6(p), IpAddr::V6(a)) => p.contains_addr(a),
            _ => false,
        }
    }

    /// The parent prefix, or `None` for a default route.
    #[inline]
    pub fn parent(self) -> Option<Prefix> {
        same_family!(self, p => p.parent())
    }

    /// The sibling prefix, or `None` for a default route.
    #[inline]
    pub fn sibling(self) -> Option<Prefix> {
        same_family!(self, p => p.sibling())
    }

    /// `true` if this prefix is the left (0-bit) child of its parent.
    #[inline]
    pub fn is_left_child(self) -> bool {
        either!(self, p => p.is_left_child())
    }

    /// The left child, or `None` at maximum length.
    #[inline]
    pub fn left_child(self) -> Option<Prefix> {
        same_family!(self, p => p.left_child())
    }

    /// The right child, or `None` at maximum length.
    #[inline]
    pub fn right_child(self) -> Option<Prefix> {
        same_family!(self, p => p.right_child())
    }

    /// Both children as `(left, right)`, or `None` at maximum length.
    #[inline]
    pub fn children(self) -> Option<(Prefix, Prefix)> {
        Some((self.left_child()?, self.right_child()?))
    }

    /// The ancestor at exactly `len` bits, or `None` if `len > self.len()`.
    pub fn ancestor_at(self, len: u8) -> Option<Prefix> {
        same_family!(self, p => p.ancestor_at(len))
    }

    /// The longest prefix covering both `self` and `other`, or `None`
    /// across families (nothing covers both).
    pub fn common_ancestor(self, other: Prefix) -> Option<Prefix> {
        match (self, other) {
            (Prefix::V4(a), Prefix::V4(b)) => Some(Prefix::V4(a.common_ancestor(b))),
            (Prefix::V6(a), Prefix::V6(b)) => Some(Prefix::V6(a.common_ancestor(b))),
            _ => None,
        }
    }

    /// The number of subprefixes (including `self`) with lengths in
    /// `self.len()..=max_len`, saturating at `u128::MAX`.
    pub fn subprefix_count(self, max_len: u8) -> u128 {
        either!(self, p => p.subprefix_count(max_len))
    }

    /// Iterates over subprefixes up to `max_len`, including `self`.
    pub fn subprefixes(self, max_len: u8) -> Box<dyn Iterator<Item = Prefix>> {
        either!(self, p => Box::new(p.subprefixes(max_len).map(Prefix::from)))
    }
}

impl fmt::Display for Prefix {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        either!(self, p => p.fmt(f))
    }
}

impl FromStr for Prefix {
    type Err = PrefixError;

    fn from_str(s: &str) -> Result<Prefix, PrefixError> {
        if s.contains(':') {
            s.parse().map(Prefix::V6)
        } else {
            s.parse().map(Prefix::V4)
        }
    }
}

impl From<Prefix4> for Prefix {
    fn from(p: Prefix4) -> Prefix {
        Prefix::V4(p)
    }
}

impl From<Prefix6> for Prefix {
    fn from(p: Prefix6) -> Prefix {
        Prefix::V6(p)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn p(s: &str) -> Prefix {
        s.parse().unwrap()
    }

    #[test]
    fn parse_dispatches_by_family() {
        assert!(p("10.0.0.0/8").is_v4());
        assert!(!p("2001:db8::/32").is_v4());
        assert_eq!(p("10.0.0.0/8").afi(), Afi::V4);
        assert_eq!(p("2001:db8::/32").afi(), Afi::V6);
    }

    #[test]
    fn display_round_trip() {
        for s in ["10.0.0.0/8", "2001:db8::/32", "0.0.0.0/0", "::/0"] {
            assert_eq!(p(s).to_string(), s);
        }
    }

    #[test]
    fn cross_family_never_covers() {
        let v4 = p("0.0.0.0/0");
        let v6 = p("::/0");
        assert!(!v4.covers(v6));
        assert!(!v6.covers(v4));
        assert!(!v4.covered_by(v6));
    }

    #[test]
    fn covers_within_family() {
        assert!(p("10.0.0.0/8").covers(p("10.1.0.0/16")));
        assert!(p("2001:db8::/32").covers(p("2001:db8:a::/48")));
    }

    #[test]
    fn contains_addr_cross_family() {
        let v4 = p("0.0.0.0/0");
        assert!(v4.contains_addr("1.2.3.4".parse().unwrap()));
        assert!(!v4.contains_addr("::1".parse().unwrap()));
    }

    #[test]
    fn bits_u128_round_trip() {
        for s in [
            "10.0.0.0/8",
            "168.122.225.0/24",
            "2001:db8::/32",
            "::/0",
            "0.0.0.0/0",
        ] {
            let pre = p(s);
            let back = Prefix::from_bits_u128(pre.afi(), pre.bits_u128(), pre.len()).unwrap();
            assert_eq!(pre, back);
        }
    }

    #[test]
    fn from_bits_u128_rejects_bad() {
        assert!(Prefix::from_bits_u128(Afi::V4, 0, 33).is_err());
        assert!(Prefix::from_bits_u128(Afi::V4, 1, 32).is_err()); // low bits set
        assert!(Prefix::from_bits_u128(Afi::V6, 1, 127).is_err());
    }

    #[test]
    fn navigation_delegates() {
        let q = p("10.0.0.0/16");
        assert_eq!(q.parent().unwrap().to_string(), "10.0.0.0/15");
        assert_eq!(q.sibling().unwrap().to_string(), "10.1.0.0/16");
        let (l, r) = q.children().unwrap();
        assert_eq!(l.to_string(), "10.0.0.0/17");
        assert_eq!(r.to_string(), "10.0.128.0/17");
        assert!(q.left_child().unwrap().is_left_child());
        assert_eq!(q.ancestor_at(8).unwrap().to_string(), "10.0.0.0/8");
        assert_eq!(q.max_len(), 32);
        assert_eq!(p("::/0").max_len(), 128);
    }

    #[test]
    fn subprefixes_delegate() {
        assert_eq!(p("10.0.0.0/24").subprefix_count(25), 3);
        assert_eq!(p("10.0.0.0/24").subprefixes(25).count(), 3);
        assert_eq!(p("2001:db8::/32").subprefix_count(33), 3);
    }

    #[test]
    fn ordering_v4_before_v6() {
        // Enum discriminant order: all V4 sort before all V6.
        assert!(p("255.0.0.0/8") < p("::/0"));
    }

    /// The layout contract in the crate docs (ISSUE 15): a `u128` at
    /// its natural alignment anywhere under `Prefix` brings back 48
    /// bytes here and a 64-byte cache line per VRP.
    #[test]
    fn layout_is_pinned() {
        use std::mem::{align_of, size_of};
        assert_eq!((size_of::<Prefix4>(), align_of::<Prefix4>()), (8, 4));
        assert_eq!((size_of::<Prefix6>(), align_of::<Prefix6>()), (24, 8));
        assert_eq!((size_of::<Prefix>(), align_of::<Prefix>()), (32, 8));
    }
}
