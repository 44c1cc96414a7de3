use std::fmt;
use std::net::Ipv4Addr;
use std::str::FromStr;

use crate::PrefixError;

/// An IPv4 CIDR prefix in canonical form.
///
/// The address bits are stored left-aligned in a `u32` with all bits beyond
/// `len` cleared, so two equal prefixes always compare equal bit-for-bit and
/// the type can serve directly as a map key.
///
/// The derived `Ord` sorts by `(bits, len)`: the pre-order of the binary
/// prefix trie. A prefix sorts directly before everything it covers, and
/// whatever sorts between a prefix and one it covers is covered too. That
/// order *is* the workspace's prefix index: in any sorted container "covered
/// by `p`" is one contiguous run starting at `p`, and "covers `q`" is a few
/// steps backwards from `q` (`rpki_rov::VrpIndex::covering`). Property-tested
/// in `tests/props.rs`.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct Prefix4 {
    bits: u32,
    len: u8,
}

impl Prefix4 {
    /// The maximum prefix length (32).
    pub const MAX_LEN: u8 = 32;

    /// The default route `0.0.0.0/0`.
    pub const DEFAULT: Prefix4 = Prefix4 { bits: 0, len: 0 };

    /// Creates a prefix, rejecting out-of-range lengths and set host bits.
    ///
    /// ```
    /// use rpki_prefix::Prefix4;
    /// assert!(Prefix4::new(0x0A000000, 8).is_ok());   // 10.0.0.0/8
    /// assert!(Prefix4::new(0x0A000001, 8).is_err());  // host bits set
    /// assert!(Prefix4::new(0, 33).is_err());          // length out of range
    /// ```
    pub fn new(bits: u32, len: u8) -> Result<Prefix4, PrefixError> {
        if len > Self::MAX_LEN {
            return Err(PrefixError::LengthOutOfRange {
                len,
                max: Self::MAX_LEN,
            });
        }
        if bits & !mask(len) != 0 {
            return Err(PrefixError::HostBitsSet);
        }
        Ok(Prefix4 { bits, len })
    }

    /// Creates a prefix, silently clearing any host bits.
    ///
    /// # Panics
    ///
    /// Panics if `len > 32`.
    pub fn new_truncated(bits: u32, len: u8) -> Prefix4 {
        assert!(len <= Self::MAX_LEN, "prefix length {len} > 32");
        Prefix4 {
            bits: bits & mask(len),
            len,
        }
    }

    /// Creates a host prefix (`/32`) from an address.
    pub fn host(addr: Ipv4Addr) -> Prefix4 {
        Prefix4 {
            bits: u32::from(addr),
            len: 32,
        }
    }

    /// Creates a prefix from an [`Ipv4Addr`] and a length.
    pub fn from_addr(addr: Ipv4Addr, len: u8) -> Result<Prefix4, PrefixError> {
        Prefix4::new(u32::from(addr), len)
    }

    /// The left-aligned address bits (host bits are always zero).
    #[inline]
    pub const fn bits(self) -> u32 {
        self.bits
    }

    /// The prefix length. (A length of 0 is the default route, not an
    /// "empty" prefix — there is deliberately no `is_empty`.)
    #[inline]
    #[allow(clippy::len_without_is_empty)]
    pub const fn len(self) -> u8 {
        self.len
    }

    /// `true` only for the default route `0.0.0.0/0`.
    #[inline]
    pub const fn is_default(self) -> bool {
        self.len == 0
    }

    /// The network address as an [`Ipv4Addr`].
    #[inline]
    pub fn addr(self) -> Ipv4Addr {
        Ipv4Addr::from(self.bits)
    }

    /// The first address covered by this prefix (the network address).
    #[inline]
    pub fn first_addr(self) -> Ipv4Addr {
        self.addr()
    }

    /// The last address covered by this prefix (the broadcast address for
    /// classical subnets).
    #[inline]
    pub fn last_addr(self) -> Ipv4Addr {
        Ipv4Addr::from(self.bits | !mask(self.len))
    }

    /// The number of addresses covered: `2^(32 - len)`.
    #[inline]
    pub fn addr_count(self) -> u64 {
        1u64 << (32 - self.len as u32)
    }

    /// `true` if `self` covers `other`, i.e. `other` is `self` or a
    /// subprefix of `self`. This is the RPKI "covering" relation (RFC 6811):
    /// a ROA for `10.0.0.0/8` covers a route for `10.1.0.0/16`.
    #[inline]
    pub fn covers(self, other: Prefix4) -> bool {
        self.len <= other.len && (other.bits & mask(self.len)) == self.bits
    }

    /// `true` if `self` is covered by `other` (the converse of
    /// [`covers`](Self::covers)).
    #[inline]
    pub fn covered_by(self, other: Prefix4) -> bool {
        other.covers(self)
    }

    /// `true` if the prefix contains the given address.
    #[inline]
    pub fn contains_addr(self, addr: Ipv4Addr) -> bool {
        (u32::from(addr) & mask(self.len)) == self.bits
    }

    /// `true` if the two prefixes overlap (one covers the other).
    #[inline]
    pub fn overlaps(self, other: Prefix4) -> bool {
        self.covers(other) || other.covers(self)
    }

    /// The value of the bit at `index` (0-based from the most significant
    /// bit). `index` must be less than 32.
    #[inline]
    pub fn bit(self, index: u8) -> bool {
        debug_assert!(index < 32);
        self.bits & (0x8000_0000u32 >> index) != 0
    }

    /// The parent prefix (one bit shorter), or `None` for `/0`.
    ///
    /// ```
    /// use rpki_prefix::Prefix4;
    /// let p: Prefix4 = "10.1.0.0/16".parse().unwrap();
    /// assert_eq!(p.parent().unwrap().to_string(), "10.0.0.0/15");
    /// ```
    #[inline]
    pub fn parent(self) -> Option<Prefix4> {
        if self.len == 0 {
            return None;
        }
        let len = self.len - 1;
        Some(Prefix4 {
            bits: self.bits & mask(len),
            len,
        })
    }

    /// The shortest ancestor at exactly `len` bits, or `None` if `len`
    /// exceeds this prefix's length. `ancestor_at(len) == self` when
    /// `len == self.len()`.
    pub fn ancestor_at(self, len: u8) -> Option<Prefix4> {
        if len > self.len {
            return None;
        }
        Some(Prefix4 {
            bits: self.bits & mask(len),
            len,
        })
    }

    /// The sibling prefix: same parent, final bit flipped. `None` for `/0`.
    #[inline]
    pub fn sibling(self) -> Option<Prefix4> {
        if self.len == 0 {
            return None;
        }
        Some(Prefix4 {
            bits: self.bits ^ (0x8000_0000u32 >> (self.len - 1)),
            len: self.len,
        })
    }

    /// `true` if this prefix is the left (0-bit) child of its parent.
    /// Returns `false` for `/0`, which has no parent.
    #[inline]
    pub fn is_left_child(self) -> bool {
        self.len > 0 && !self.bit(self.len - 1)
    }

    /// The left child (appending a 0 bit), or `None` for `/32`.
    #[inline]
    pub fn left_child(self) -> Option<Prefix4> {
        if self.len >= 32 {
            return None;
        }
        Some(Prefix4 {
            bits: self.bits,
            len: self.len + 1,
        })
    }

    /// The right child (appending a 1 bit), or `None` for `/32`.
    #[inline]
    pub fn right_child(self) -> Option<Prefix4> {
        if self.len >= 32 {
            return None;
        }
        Some(Prefix4 {
            bits: self.bits | (0x8000_0000u32 >> self.len),
            len: self.len + 1,
        })
    }

    /// Both children as `(left, right)`, or `None` for `/32`.
    #[inline]
    pub fn children(self) -> Option<(Prefix4, Prefix4)> {
        Some((self.left_child()?, self.right_child()?))
    }

    /// Iterates over every subprefix of `self` with lengths in
    /// `self.len()..=max_len`, in ascending `(len, bits)` order, including
    /// `self` itself.
    ///
    /// This enumerates exactly the routes a ROA `(self, maxLength=max_len)`
    /// authorizes (paper §3). The count grows as `2^(max_len - len + 1) - 1`;
    /// use [`subprefix_count`](Self::subprefix_count) to size it first.
    pub fn subprefixes(self, max_len: u8) -> SubPrefixes4 {
        let max_len = max_len.min(32);
        SubPrefixes4 {
            base: self,
            cur_len: self.len,
            cur_index: 0,
            max_len,
        }
    }

    /// The number of subprefixes (including `self`) with lengths in
    /// `self.len()..=max_len`: `2^(max_len - len + 1) - 1`, or 0 when
    /// `max_len < self.len()`.
    pub fn subprefix_count(self, max_len: u8) -> u64 {
        let max_len = max_len.min(32);
        if max_len < self.len {
            return 0;
        }
        (1u64 << (max_len - self.len + 1)) - 1
    }

    /// The longest prefix covering both `self` and `other` (their lowest
    /// common ancestor in the prefix trie).
    pub fn common_ancestor(self, other: Prefix4) -> Prefix4 {
        let max = self.len.min(other.len);
        let diff = self.bits ^ other.bits;
        let len = (diff.leading_zeros() as u8).min(max);
        Prefix4 {
            bits: self.bits & mask(len),
            len,
        }
    }
}

/// Iterator over the subprefixes of a [`Prefix4`]; see
/// [`Prefix4::subprefixes`].
#[derive(Debug, Clone)]
pub struct SubPrefixes4 {
    base: Prefix4,
    cur_len: u8,
    cur_index: u64,
    max_len: u8,
}

impl Iterator for SubPrefixes4 {
    type Item = Prefix4;

    fn next(&mut self) -> Option<Prefix4> {
        if self.cur_len > self.max_len {
            return None;
        }
        let bits = if self.cur_len == 0 {
            0 // only the default route lives at length 0
        } else {
            self.base.bits | ((self.cur_index as u32) << (32 - self.cur_len as u32))
        };
        let item = Prefix4 {
            bits,
            len: self.cur_len,
        };
        self.cur_index += 1;
        if self.cur_index >= (1u64 << (self.cur_len - self.base.len)) {
            self.cur_index = 0;
            self.cur_len += 1;
        }
        Some(item)
    }
}

#[inline]
fn mask(len: u8) -> u32 {
    if len == 0 {
        0
    } else {
        u32::MAX << (32 - len as u32)
    }
}

impl fmt::Display for Prefix4 {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}/{}", self.addr(), self.len)
    }
}

impl FromStr for Prefix4 {
    type Err = PrefixError;

    fn from_str(s: &str) -> Result<Prefix4, PrefixError> {
        let (addr, len) = s
            .split_once('/')
            .ok_or_else(|| PrefixError::Malformed(s.to_string()))?;
        let addr: Ipv4Addr = addr
            .parse()
            .map_err(|_| PrefixError::Malformed(s.to_string()))?;
        let len: u8 = len
            .parse()
            .map_err(|_| PrefixError::Malformed(s.to_string()))?;
        Prefix4::from_addr(addr, len)
    }
}

impl From<Ipv4Addr> for Prefix4 {
    fn from(addr: Ipv4Addr) -> Prefix4 {
        Prefix4::host(addr)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn p(s: &str) -> Prefix4 {
        s.parse().unwrap()
    }

    #[test]
    fn parse_display_round_trip() {
        for s in [
            "0.0.0.0/0",
            "10.0.0.0/8",
            "168.122.0.0/16",
            "168.122.225.0/24",
            "1.2.3.4/32",
        ] {
            assert_eq!(p(s).to_string(), s);
        }
    }

    #[test]
    fn parse_rejects_garbage() {
        assert!("10.0.0.0".parse::<Prefix4>().is_err());
        assert!("10.0.0.0/33".parse::<Prefix4>().is_err());
        assert!("10.0.0.1/8".parse::<Prefix4>().is_err());
        assert!("10.0.0/8".parse::<Prefix4>().is_err());
        assert!("ten.0.0.0/8".parse::<Prefix4>().is_err());
        assert!("10.0.0.0/8/9".parse::<Prefix4>().is_err());
        assert!("".parse::<Prefix4>().is_err());
    }

    #[test]
    fn new_validates() {
        assert_eq!(
            Prefix4::new(0, 33),
            Err(PrefixError::LengthOutOfRange { len: 33, max: 32 })
        );
        assert_eq!(Prefix4::new(1, 31), Err(PrefixError::HostBitsSet));
        assert!(Prefix4::new(1, 32).is_ok());
        assert!(Prefix4::new(0, 0).is_ok());
    }

    #[test]
    fn new_truncated_clears_host_bits() {
        assert_eq!(Prefix4::new_truncated(0x0A0000FF, 8), p("10.0.0.0/8"));
        assert_eq!(Prefix4::new_truncated(u32::MAX, 0), Prefix4::DEFAULT);
    }

    #[test]
    #[should_panic(expected = "prefix length")]
    fn new_truncated_panics_on_len() {
        Prefix4::new_truncated(0, 40);
    }

    #[test]
    fn covers_basic() {
        let bu = p("168.122.0.0/16");
        assert!(bu.covers(bu));
        assert!(bu.covers(p("168.122.225.0/24")));
        assert!(bu.covers(p("168.122.0.0/17")));
        assert!(!bu.covers(p("168.123.0.0/24")));
        assert!(!bu.covers(p("168.0.0.0/8"))); // shorter, not covered
        assert!(p("0.0.0.0/0").covers(bu));
        assert!(!bu.covers(p("0.0.0.0/0")));
    }

    #[test]
    fn covered_by_is_converse() {
        let a = p("10.0.0.0/8");
        let b = p("10.2.0.0/16");
        assert!(b.covered_by(a));
        assert!(!a.covered_by(b));
    }

    #[test]
    fn contains_addr() {
        let bu = p("168.122.0.0/16");
        assert!(bu.contains_addr("168.122.0.0".parse().unwrap()));
        assert!(bu.contains_addr("168.122.255.255".parse().unwrap()));
        assert!(!bu.contains_addr("168.123.0.0".parse().unwrap()));
        assert!(p("0.0.0.0/0").contains_addr("8.8.8.8".parse().unwrap()));
    }

    #[test]
    fn overlaps() {
        assert!(p("10.0.0.0/8").overlaps(p("10.1.0.0/16")));
        assert!(p("10.1.0.0/16").overlaps(p("10.0.0.0/8")));
        assert!(!p("10.0.0.0/8").overlaps(p("11.0.0.0/8")));
    }

    #[test]
    fn first_last_addr() {
        let bu = p("168.122.0.0/16");
        assert_eq!(bu.first_addr().to_string(), "168.122.0.0");
        assert_eq!(bu.last_addr().to_string(), "168.122.255.255");
        let host = p("1.2.3.4/32");
        assert_eq!(host.first_addr(), host.last_addr());
        assert_eq!(p("0.0.0.0/0").last_addr().to_string(), "255.255.255.255");
    }

    #[test]
    fn addr_count() {
        assert_eq!(p("0.0.0.0/0").addr_count(), 1u64 << 32);
        assert_eq!(p("10.0.0.0/8").addr_count(), 1 << 24);
        assert_eq!(p("1.2.3.4/32").addr_count(), 1);
    }

    #[test]
    fn parent_sibling_children() {
        let q = p("168.122.0.0/17");
        assert_eq!(q.parent(), Some(p("168.122.0.0/16")));
        assert_eq!(q.sibling(), Some(p("168.122.128.0/17")));
        assert!(q.is_left_child());
        assert!(!p("168.122.128.0/17").is_left_child());

        let parent = p("168.122.0.0/16");
        assert_eq!(
            parent.children(),
            Some((p("168.122.0.0/17"), p("168.122.128.0/17")))
        );
        assert_eq!(Prefix4::DEFAULT.parent(), None);
        assert_eq!(Prefix4::DEFAULT.sibling(), None);
        assert!(!Prefix4::DEFAULT.is_left_child());
        assert_eq!(p("1.2.3.4/32").left_child(), None);
        assert_eq!(p("1.2.3.4/32").right_child(), None);
        assert_eq!(p("1.2.3.4/32").children(), None);
    }

    #[test]
    fn sibling_is_involution() {
        let q = p("87.254.48.0/20");
        assert_eq!(q.sibling().unwrap().sibling(), Some(q));
        assert_eq!(q.sibling().unwrap().parent(), q.parent());
    }

    #[test]
    fn ancestor_at() {
        let q = p("168.122.225.0/24");
        assert_eq!(q.ancestor_at(16), Some(p("168.122.0.0/16")));
        assert_eq!(q.ancestor_at(24), Some(q));
        assert_eq!(q.ancestor_at(0), Some(Prefix4::DEFAULT));
        assert_eq!(q.ancestor_at(25), None);
    }

    #[test]
    fn bit_indexing() {
        let q = p("128.0.0.0/1");
        assert!(q.bit(0));
        let q = p("64.0.0.0/2");
        assert!(!q.bit(0));
        assert!(q.bit(1));
    }

    #[test]
    fn subprefixes_enumeration() {
        // The paper's example: 168.122.0.0/16 with maxLength 18 authorizes
        // the /16, two /17s, and four /18s.
        let bu = p("168.122.0.0/16");
        let subs: Vec<_> = bu.subprefixes(18).collect();
        assert_eq!(subs.len(), 7);
        assert_eq!(bu.subprefix_count(18), 7);
        assert_eq!(subs[0], bu);
        assert_eq!(subs[1], p("168.122.0.0/17"));
        assert_eq!(subs[2], p("168.122.128.0/17"));
        assert_eq!(subs[3], p("168.122.0.0/18"));
        assert_eq!(subs[6], p("168.122.192.0/18"));
    }

    #[test]
    fn subprefixes_self_only() {
        let q = p("10.0.0.0/24");
        let subs: Vec<_> = q.subprefixes(24).collect();
        assert_eq!(subs, vec![q]);
        assert_eq!(q.subprefix_count(24), 1);
    }

    #[test]
    fn subprefixes_empty_when_maxlen_below() {
        let q = p("10.0.0.0/24");
        assert_eq!(q.subprefixes(23).count(), 0);
        assert_eq!(q.subprefix_count(23), 0);
    }

    #[test]
    fn subprefixes_clamps_to_32() {
        let q = p("1.2.3.4/32");
        assert_eq!(q.subprefixes(200).count(), 1);
        assert_eq!(q.subprefix_count(200), 1);
    }

    #[test]
    fn common_ancestor() {
        let a = p("168.122.0.0/24");
        let b = p("168.122.225.0/24");
        assert_eq!(a.common_ancestor(b), p("168.122.0.0/16"));
        assert_eq!(a.common_ancestor(a), a);
        assert_eq!(
            p("0.0.0.0/8").common_ancestor(p("128.0.0.0/8")),
            Prefix4::DEFAULT
        );
        // Covering prefix is its own common ancestor with a subprefix.
        let cover = p("10.0.0.0/8");
        assert_eq!(cover.common_ancestor(p("10.200.0.0/16")), cover);
    }

    #[test]
    fn ordering_parent_before_children() {
        let parent = p("10.0.0.0/16");
        let l = p("10.0.0.0/17");
        let r = p("10.0.128.0/17");
        assert!(parent < l);
        assert!(l < r);
    }

    #[test]
    fn host_from_addr() {
        let h = Prefix4::host("1.2.3.4".parse().unwrap());
        assert_eq!(h, p("1.2.3.4/32"));
        let h2: Prefix4 = "1.2.3.4".parse::<Ipv4Addr>().unwrap().into();
        assert_eq!(h, h2);
    }
}
