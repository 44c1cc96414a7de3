use std::fmt;
use std::net::Ipv6Addr;
use std::str::FromStr;

use crate::PrefixError;

/// An IPv6 CIDR prefix in canonical form.
///
/// The IPv6 analogue of [`Prefix4`](crate::Prefix4): bits are left-aligned
/// in a `u128` with everything beyond `len` cleared. See [`Prefix4`]'s
/// documentation for the trie-navigation model shared by both types.
///
/// The address bits are kept at 8-byte alignment (see the crate docs'
/// layout contract), so a `Prefix6` is 24 bytes, not 32.
///
/// [`Prefix4`]: crate::Prefix4
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct Prefix6 {
    bits: Bits,
    len: u8,
}

/// A `u128` stored at 8-byte alignment. `u128`'s own 16-byte alignment
/// would pad [`Prefix6`] to 32 bytes and everything built on it
/// ([`Prefix`](crate::Prefix), VRPs, route origins) to a full cache
/// line. The field is only ever read by value, so no reference to the
/// under-aligned integer exists, and the derives compare and hash a
/// copy of it exactly as they would the bare `u128`.
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
#[repr(C, packed(8))]
struct Bits(u128);

impl fmt::Debug for Bits {
    /// Prints as the bare integer, honouring `{:#?}` / `{:x?}`.
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        fmt::Debug::fmt(&{ self.0 }, f)
    }
}

impl Prefix6 {
    /// The maximum prefix length (128).
    pub const MAX_LEN: u8 = 128;

    /// The default route `::/0`.
    pub const DEFAULT: Prefix6 = Prefix6 {
        bits: Bits(0),
        len: 0,
    };

    /// Creates a prefix, rejecting out-of-range lengths and set host bits.
    pub fn new(bits: u128, len: u8) -> Result<Prefix6, PrefixError> {
        if len > Self::MAX_LEN {
            return Err(PrefixError::LengthOutOfRange {
                len,
                max: Self::MAX_LEN,
            });
        }
        if bits & !mask(len) != 0 {
            return Err(PrefixError::HostBitsSet);
        }
        Ok(Prefix6 {
            bits: Bits(bits),
            len,
        })
    }

    /// Creates a prefix, silently clearing any host bits.
    ///
    /// # Panics
    ///
    /// Panics if `len > 128`.
    pub fn new_truncated(bits: u128, len: u8) -> Prefix6 {
        assert!(len <= Self::MAX_LEN, "prefix length {len} > 128");
        Prefix6 {
            bits: Bits(bits & mask(len)),
            len,
        }
    }

    /// Creates a host prefix (`/128`) from an address.
    pub fn host(addr: Ipv6Addr) -> Prefix6 {
        Prefix6 {
            bits: Bits(u128::from(addr)),
            len: 128,
        }
    }

    /// Creates a prefix from an [`Ipv6Addr`] and a length.
    pub fn from_addr(addr: Ipv6Addr, len: u8) -> Result<Prefix6, PrefixError> {
        Prefix6::new(u128::from(addr), len)
    }

    /// The left-aligned address bits (host bits are always zero).
    #[inline]
    pub const fn bits(self) -> u128 {
        self.bits.0
    }

    /// The prefix length. (A length of 0 is the default route, not an
    /// "empty" prefix — there is deliberately no `is_empty`.)
    #[inline]
    #[allow(clippy::len_without_is_empty)]
    pub const fn len(self) -> u8 {
        self.len
    }

    /// `true` only for the default route `::/0`.
    #[inline]
    pub const fn is_default(self) -> bool {
        self.len == 0
    }

    /// The network address as an [`Ipv6Addr`].
    #[inline]
    pub fn addr(self) -> Ipv6Addr {
        Ipv6Addr::from(self.bits())
    }

    /// The first address covered by this prefix.
    #[inline]
    pub fn first_addr(self) -> Ipv6Addr {
        self.addr()
    }

    /// The last address covered by this prefix.
    #[inline]
    pub fn last_addr(self) -> Ipv6Addr {
        Ipv6Addr::from(self.bits() | !mask(self.len))
    }

    /// `true` if `self` covers `other` (RFC 6811 covering relation).
    #[inline]
    pub fn covers(self, other: Prefix6) -> bool {
        self.len <= other.len && (other.bits() & mask(self.len)) == self.bits()
    }

    /// `true` if `self` is covered by `other`.
    #[inline]
    pub fn covered_by(self, other: Prefix6) -> bool {
        other.covers(self)
    }

    /// `true` if the prefix contains the given address.
    #[inline]
    pub fn contains_addr(self, addr: Ipv6Addr) -> bool {
        (u128::from(addr) & mask(self.len)) == self.bits()
    }

    /// `true` if the two prefixes overlap (one covers the other).
    #[inline]
    pub fn overlaps(self, other: Prefix6) -> bool {
        self.covers(other) || other.covers(self)
    }

    /// The value of the bit at `index` (0-based from the most significant
    /// bit). `index` must be less than 128.
    #[inline]
    pub fn bit(self, index: u8) -> bool {
        debug_assert!(index < 128);
        self.bits() & (1u128 << 127 >> index) != 0
    }

    /// The parent prefix (one bit shorter), or `None` for `::/0`.
    #[inline]
    pub fn parent(self) -> Option<Prefix6> {
        if self.len == 0 {
            return None;
        }
        let len = self.len - 1;
        Some(Prefix6 {
            bits: Bits(self.bits() & mask(len)),
            len,
        })
    }

    /// The ancestor at exactly `len` bits, or `None` if `len > self.len()`.
    pub fn ancestor_at(self, len: u8) -> Option<Prefix6> {
        if len > self.len {
            return None;
        }
        Some(Prefix6 {
            bits: Bits(self.bits() & mask(len)),
            len,
        })
    }

    /// The sibling prefix: same parent, final bit flipped. `None` for `::/0`.
    #[inline]
    pub fn sibling(self) -> Option<Prefix6> {
        if self.len == 0 {
            return None;
        }
        Some(Prefix6 {
            bits: Bits(self.bits() ^ (1u128 << 127 >> (self.len - 1))),
            len: self.len,
        })
    }

    /// `true` if this prefix is the left (0-bit) child of its parent.
    #[inline]
    pub fn is_left_child(self) -> bool {
        self.len > 0 && !self.bit(self.len - 1)
    }

    /// The left child (appending a 0 bit), or `None` for `/128`.
    #[inline]
    pub fn left_child(self) -> Option<Prefix6> {
        if self.len >= 128 {
            return None;
        }
        Some(Prefix6 {
            bits: self.bits,
            len: self.len + 1,
        })
    }

    /// The right child (appending a 1 bit), or `None` for `/128`.
    #[inline]
    pub fn right_child(self) -> Option<Prefix6> {
        if self.len >= 128 {
            return None;
        }
        Some(Prefix6 {
            bits: Bits(self.bits() | (1u128 << 127 >> self.len)),
            len: self.len + 1,
        })
    }

    /// Both children as `(left, right)`, or `None` for `/128`.
    #[inline]
    pub fn children(self) -> Option<(Prefix6, Prefix6)> {
        Some((self.left_child()?, self.right_child()?))
    }

    /// Iterates over every subprefix with lengths in `self.len()..=max_len`,
    /// including `self`. See [`Prefix4::subprefixes`] for the semantics;
    /// beware that IPv6 ranges can be astronomically large.
    ///
    /// [`Prefix4::subprefixes`]: crate::Prefix4::subprefixes
    pub fn subprefixes(self, max_len: u8) -> SubPrefixes6 {
        let max_len = max_len.min(128);
        SubPrefixes6 {
            base: self,
            cur_len: self.len,
            cur_index: 0,
            max_len,
        }
    }

    /// The number of subprefixes (including `self`) with lengths in
    /// `self.len()..=max_len`, saturating at `u128::MAX`.
    pub fn subprefix_count(self, max_len: u8) -> u128 {
        let max_len = max_len.min(128);
        if max_len < self.len {
            return 0;
        }
        let levels = (max_len - self.len + 1) as u32;
        if levels >= 128 {
            u128::MAX
        } else {
            (1u128 << levels) - 1
        }
    }

    /// The longest prefix covering both `self` and `other`.
    pub fn common_ancestor(self, other: Prefix6) -> Prefix6 {
        let max = self.len.min(other.len);
        let diff = self.bits() ^ other.bits();
        let len = (diff.leading_zeros() as u8).min(max);
        Prefix6 {
            bits: Bits(self.bits() & mask(len)),
            len,
        }
    }
}

/// Iterator over the subprefixes of a [`Prefix6`]; see
/// [`Prefix6::subprefixes`].
#[derive(Debug, Clone)]
pub struct SubPrefixes6 {
    base: Prefix6,
    cur_len: u8,
    cur_index: u128,
    max_len: u8,
}

impl Iterator for SubPrefixes6 {
    type Item = Prefix6;

    fn next(&mut self) -> Option<Prefix6> {
        if self.cur_len > self.max_len {
            return None;
        }
        let bits = if self.cur_len == 0 {
            0 // only the default route lives at length 0
        } else {
            self.base.bits() | (self.cur_index << (128 - self.cur_len as u32))
        };
        let item = Prefix6 {
            bits: Bits(bits),
            len: self.cur_len,
        };
        self.cur_index += 1;
        let level = self.cur_len - self.base.len;
        if level >= 127 || self.cur_index >= (1u128 << level) {
            self.cur_index = 0;
            self.cur_len += 1;
        }
        Some(item)
    }
}

#[inline]
fn mask(len: u8) -> u128 {
    if len == 0 {
        0
    } else {
        u128::MAX << (128 - len as u32)
    }
}

impl fmt::Display for Prefix6 {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}/{}", self.addr(), self.len)
    }
}

impl FromStr for Prefix6 {
    type Err = PrefixError;

    fn from_str(s: &str) -> Result<Prefix6, PrefixError> {
        let (addr, len) = s
            .split_once('/')
            .ok_or_else(|| PrefixError::Malformed(s.to_string()))?;
        let addr: Ipv6Addr = addr
            .parse()
            .map_err(|_| PrefixError::Malformed(s.to_string()))?;
        let len: u8 = len
            .parse()
            .map_err(|_| PrefixError::Malformed(s.to_string()))?;
        Prefix6::from_addr(addr, len)
    }
}

impl From<Ipv6Addr> for Prefix6 {
    fn from(addr: Ipv6Addr) -> Prefix6 {
        Prefix6::host(addr)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn p(s: &str) -> Prefix6 {
        s.parse().unwrap()
    }

    #[test]
    fn parse_display_round_trip() {
        for s in ["::/0", "2001:db8::/32", "2001:db8:a::/48", "::1/128"] {
            assert_eq!(p(s).to_string(), s);
        }
    }

    #[test]
    fn parse_rejects_garbage() {
        assert!("2001:db8::".parse::<Prefix6>().is_err());
        assert!("2001:db8::/129".parse::<Prefix6>().is_err());
        assert!("2001:db8::1/32".parse::<Prefix6>().is_err());
        assert!("zz::/32".parse::<Prefix6>().is_err());
    }

    #[test]
    fn new_validates() {
        assert_eq!(
            Prefix6::new(0, 129),
            Err(PrefixError::LengthOutOfRange { len: 129, max: 128 })
        );
        assert_eq!(Prefix6::new(1, 127), Err(PrefixError::HostBitsSet));
        assert!(Prefix6::new(1, 128).is_ok());
    }

    #[test]
    fn covers_basic() {
        let doc = p("2001:db8::/32");
        assert!(doc.covers(doc));
        assert!(doc.covers(p("2001:db8:a::/48")));
        assert!(!doc.covers(p("2001:db9::/48")));
        assert!(p("::/0").covers(doc));
        assert!(!doc.covers(p("::/0")));
    }

    #[test]
    fn contains_addr() {
        let doc = p("2001:db8::/32");
        assert!(doc.contains_addr("2001:db8::1".parse().unwrap()));
        assert!(!doc.contains_addr("2001:db9::1".parse().unwrap()));
    }

    #[test]
    fn first_last_addr() {
        let doc = p("2001:db8::/32");
        assert_eq!(doc.first_addr().to_string(), "2001:db8::");
        assert_eq!(
            doc.last_addr().to_string(),
            "2001:db8:ffff:ffff:ffff:ffff:ffff:ffff"
        );
    }

    #[test]
    fn parent_sibling_children() {
        let q = p("2001:db8::/33");
        assert_eq!(q.parent(), Some(p("2001:db8::/32")));
        assert_eq!(q.sibling(), Some(p("2001:db8:8000::/33")));
        assert!(q.is_left_child());

        let parent = p("2001:db8::/32");
        let (l, r) = parent.children().unwrap();
        assert_eq!(l, p("2001:db8::/33"));
        assert_eq!(r, p("2001:db8:8000::/33"));
        assert_eq!(Prefix6::DEFAULT.parent(), None);
        assert_eq!(p("::1/128").left_child(), None);
    }

    #[test]
    fn ancestor_at() {
        let q = p("2001:db8:a::/48");
        assert_eq!(q.ancestor_at(32), Some(p("2001:db8::/32")));
        assert_eq!(q.ancestor_at(48), Some(q));
        assert_eq!(q.ancestor_at(49), None);
    }

    #[test]
    fn subprefixes_enumeration() {
        let base = p("2001:db8::/32");
        let subs: Vec<_> = base.subprefixes(34).collect();
        assert_eq!(subs.len(), 7);
        assert_eq!(base.subprefix_count(34), 7);
        assert_eq!(subs[0], base);
        assert_eq!(subs[1], p("2001:db8::/33"));
        assert_eq!(subs[2], p("2001:db8:8000::/33"));
    }

    #[test]
    fn subprefix_count_saturates() {
        assert_eq!(Prefix6::DEFAULT.subprefix_count(128), u128::MAX);
        assert_eq!(p("::1/128").subprefix_count(128), 1);
        assert_eq!(p("2001:db8::/32").subprefix_count(31), 0);
    }

    #[test]
    fn common_ancestor() {
        let a = p("2001:db8::/48");
        let b = p("2001:db8:8000::/48");
        assert_eq!(a.common_ancestor(b), p("2001:db8::/32"));
        assert_eq!(a.common_ancestor(a), a);
    }

    #[test]
    fn bit_indexing() {
        let q = p("8000::/1");
        assert!(q.bit(0));
        assert!(!p("4000::/2").bit(0));
        assert!(p("4000::/2").bit(1));
    }

    #[test]
    fn host_round_trip() {
        let h = Prefix6::host("::1".parse().unwrap());
        assert_eq!(h, p("::1/128"));
    }
}
