use std::fmt;
use std::hash::{Hash, Hasher};
use std::num::NonZeroU8;
use std::str::FromStr;

use crate::family::sealed::Int;
use crate::{Family, Ipv4, Ipv6, PrefixError};

/// A CIDR prefix of family `F` in canonical form: [`Prefix4`] or
/// [`Prefix6`].
///
/// The address bits are stored left-aligned with all bits beyond `len`
/// cleared, so two equal prefixes always compare equal bit-for-bit and
/// the type can serve directly as a map key.
///
/// The derived `Ord` sorts by `(bits, len)`: the pre-order of the binary
/// prefix trie. A prefix sorts directly before everything it covers, and
/// whatever sorts between a prefix and one it covers is covered too. That
/// order *is* the workspace's prefix index: in any sorted container "covered
/// by `p`" is one contiguous run starting at `p`, and "covers `q`" is a few
/// steps backwards from `q` (`rpki_rov::VrpIndex::covering`). Property-tested
/// in `tests/props.rs`. `Debug` prints what a derive on a struct named
/// `Prefix4` or `Prefix6` would (see the crate docs' layout contract).
///
/// The length is stored as `len + 1` in a [`NonZeroU8`], which orders
/// like `len`. The zero it never holds is the niche in which
/// [`Prefix`](crate::Prefix) keeps its address family, so the enum is no
/// larger than [`Prefix6`]. `Hash` is written out to hash `len` itself.
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub struct PrefixOf<F: Family> {
    bits: F::Word,
    len: NonZeroU8,
}

/// An IPv4 CIDR prefix: 8 bytes, its bits in a `u32`.
pub type Prefix4 = PrefixOf<Ipv4>;

/// An IPv6 CIDR prefix: 24 bytes, its bits in a `u128` kept at 8-byte
/// alignment (see the crate docs' layout contract).
pub type Prefix6 = PrefixOf<Ipv6>;

impl<F: Family> PrefixOf<F> {
    /// The maximum prefix length: 32 or 128.
    pub const MAX_LEN: u8 = F::MAX_LEN;

    /// The default route, `0.0.0.0/0` or `::/0`.
    pub const DEFAULT: Self = PrefixOf {
        bits: F::ZERO,
        len: NonZeroU8::MIN,
    };

    /// The one constructor: callers have cleared the host bits and keep
    /// `len` within `MAX_LEN`, so `len + 1` never saturates.
    #[inline]
    fn at(bits: F::Bits, len: u8) -> Self {
        PrefixOf {
            bits: bits.into(),
            len: NonZeroU8::MIN.saturating_add(len),
        }
    }

    /// Creates a prefix, rejecting out-of-range lengths and set host bits.
    ///
    /// ```
    /// use rpki_prefix::Prefix4;
    /// assert!(Prefix4::new(0x0A000000, 8).is_ok());   // 10.0.0.0/8
    /// assert!(Prefix4::new(0x0A000001, 8).is_err());  // host bits set
    /// assert!(Prefix4::new(0, 33).is_err());          // length out of range
    /// ```
    #[inline]
    pub fn new(bits: F::Bits, len: u8) -> Result<Self, PrefixError> {
        if len > F::MAX_LEN {
            let max = F::MAX_LEN;
            return Err(PrefixError::LengthOutOfRange { len, max });
        }
        if bits & !mask::<F>(len) != F::Bits::ZERO {
            return Err(PrefixError::HostBitsSet);
        }
        Ok(Self::at(bits, len))
    }

    /// Creates a prefix, silently clearing any host bits.
    ///
    /// # Panics
    ///
    /// Panics if `len` exceeds [`MAX_LEN`](Self::MAX_LEN).
    pub fn new_truncated(bits: F::Bits, len: u8) -> Self {
        assert!(len <= F::MAX_LEN, "prefix length {len} > {}", F::MAX_LEN);
        Self::at(bits & mask::<F>(len), len)
    }

    /// Creates a host prefix (`/32` or `/128`) from an address.
    pub fn host(addr: F::Addr) -> Self {
        Self::at(addr.into(), F::MAX_LEN)
    }

    /// Creates a prefix from an address and a length.
    pub fn from_addr(addr: F::Addr, len: u8) -> Result<Self, PrefixError> {
        Self::new(addr.into(), len)
    }

    /// The left-aligned address bits (host bits are always zero).
    #[inline]
    pub fn bits(self) -> F::Bits {
        self.bits.into()
    }

    /// The prefix length. (A length of 0 is the default route, not an
    /// "empty" prefix — there is deliberately no `is_empty`.)
    #[inline]
    #[allow(clippy::len_without_is_empty)]
    pub const fn len(self) -> u8 {
        self.len.get() - 1
    }

    /// The network address.
    #[inline]
    pub fn addr(self) -> F::Addr {
        self.bits().into()
    }

    /// `true` if `self` covers `other`, i.e. `other` is `self` or a
    /// subprefix of `self`. This is the RPKI "covering" relation (RFC 6811):
    /// a ROA for `10.0.0.0/8` covers a route for `10.1.0.0/16`.
    #[inline]
    pub fn covers(self, other: Self) -> bool {
        self.len() <= other.len() && other.bits() & mask::<F>(self.len()) == self.bits()
    }

    /// `true` if `self` is covered by `other` (the converse of
    /// [`covers`](Self::covers)).
    #[inline]
    pub fn covered_by(self, other: Self) -> bool {
        other.covers(self)
    }

    /// `true` if the prefix contains the given address.
    #[inline]
    pub fn contains_addr(self, addr: F::Addr) -> bool {
        addr.into() & mask::<F>(self.len()) == self.bits()
    }

    /// The value of the bit at `index` (0-based from the most significant
    /// bit). `index` must be less than [`MAX_LEN`](Self::MAX_LEN).
    #[inline]
    pub fn bit(self, index: u8) -> bool {
        debug_assert!(index < F::MAX_LEN);
        self.bits() & F::Bits::TOP >> u32::from(index) != F::Bits::ZERO
    }

    /// The parent prefix (one bit shorter), or `None` for `/0`.
    ///
    /// ```
    /// use rpki_prefix::Prefix4;
    /// let p: Prefix4 = "10.1.0.0/16".parse().unwrap();
    /// assert_eq!(p.parent().unwrap().to_string(), "10.0.0.0/15");
    /// ```
    #[inline]
    pub fn parent(self) -> Option<Self> {
        self.ancestor_at(self.len().checked_sub(1)?)
    }

    /// The ancestor at exactly `len` bits, or `None` if `len` exceeds
    /// this prefix's length. `ancestor_at(len) == self` when
    /// `len == self.len()`.
    #[inline]
    pub fn ancestor_at(self, len: u8) -> Option<Self> {
        if len > self.len() {
            return None;
        }
        Some(Self::at(self.bits() & mask::<F>(len), len))
    }

    /// The sibling prefix: same parent, final bit flipped. `None` for `/0`.
    #[inline]
    pub fn sibling(self) -> Option<Self> {
        if self.len() == 0 {
            return None;
        }
        let last = F::Bits::TOP >> u32::from(self.len() - 1);
        Some(Self::at(self.bits() ^ last, self.len()))
    }

    /// `true` if this prefix is the left (0-bit) child of its parent.
    /// Returns `false` for `/0`, which has no parent.
    #[inline]
    pub fn is_left_child(self) -> bool {
        self.len() > 0 && !self.bit(self.len() - 1)
    }

    /// The left child (appending a 0 bit), or `None` at the maximum length.
    #[inline]
    pub fn left_child(self) -> Option<Self> {
        if self.len() >= F::MAX_LEN {
            return None;
        }
        Some(Self::at(self.bits(), self.len() + 1))
    }

    /// The right child (appending a 1 bit), or `None` at the maximum length.
    #[inline]
    pub fn right_child(self) -> Option<Self> {
        if self.len() >= F::MAX_LEN {
            return None;
        }
        let next = F::Bits::TOP >> u32::from(self.len());
        Some(Self::at(self.bits() | next, self.len() + 1))
    }

    /// Both children as `(left, right)`, or `None` at the maximum length.
    #[inline]
    pub fn children(self) -> Option<(Self, Self)> {
        Some((self.left_child()?, self.right_child()?))
    }

    /// Iterates over every subprefix of `self` with lengths in
    /// `self.len()..=max_len`, in ascending `(len, bits)` order, including
    /// `self` itself.
    ///
    /// This enumerates exactly the routes a ROA `(self, maxLength=max_len)`
    /// authorizes (paper §3). The count grows as `2^(max_len - len + 1) - 1`
    /// (astronomical for IPv6); use
    /// [`subprefix_count`](Self::subprefix_count) to size it first.
    pub fn subprefixes(self, max_len: u8) -> SubPrefixes<F> {
        SubPrefixes {
            base: self,
            cur_len: self.len(),
            cur_index: 0,
            max_len: max_len.min(F::MAX_LEN),
        }
    }

    /// The number of subprefixes (including `self`) with lengths in
    /// `self.len()..=max_len`: `2^(max_len - len + 1) - 1` saturating at
    /// `u128::MAX`, or 0 when `max_len < self.len()`.
    pub fn subprefix_count(self, max_len: u8) -> u128 {
        let max_len = max_len.min(F::MAX_LEN);
        if max_len < self.len() {
            return 0;
        }
        let levels = u32::from(max_len - self.len() + 1);
        if levels >= 128 {
            u128::MAX
        } else {
            (1u128 << levels) - 1
        }
    }

    /// The longest prefix covering both `self` and `other` (their lowest
    /// common ancestor in the prefix trie).
    pub fn common_ancestor(self, other: Self) -> Self {
        let diff = (self.bits() ^ other.bits()).leading_zeros();
        let len = self.len().min(other.len()).min(diff as u8);
        Self::at(self.bits() & mask::<F>(len), len)
    }
}

/// Iterator over the subprefixes of a [`PrefixOf`]; see
/// [`PrefixOf::subprefixes`].
#[derive(Debug, Clone)]
pub struct SubPrefixes<F: Family> {
    base: PrefixOf<F>,
    cur_len: u8,
    cur_index: u128,
    max_len: u8,
}

impl<F: Family> Iterator for SubPrefixes<F> {
    type Item = PrefixOf<F>;

    fn next(&mut self) -> Option<PrefixOf<F>> {
        if self.cur_len > self.max_len {
            return None;
        }
        let bits = if self.cur_len == 0 {
            F::Bits::ZERO // only the default route lives at length 0
        } else {
            let shift = u32::from(F::MAX_LEN - self.cur_len);
            self.base.bits() | F::Bits::truncate(self.cur_index) << shift
        };
        let item = PrefixOf::at(bits, self.cur_len);
        self.cur_index += 1;
        let level = self.cur_len - self.base.len();
        if level >= 127 || self.cur_index >= (1u128 << level) {
            self.cur_index = 0;
            self.cur_len += 1;
        }
        Some(item)
    }
}

/// The bits of a `/len` prefix: the top `len` set, the rest clear.
#[inline]
fn mask<F: Family>(len: u8) -> F::Bits {
    if len == 0 {
        F::Bits::ZERO
    } else {
        !F::Bits::ZERO << u32::from(F::MAX_LEN - len)
    }
}

impl<F: Family> Hash for PrefixOf<F> {
    /// What a derive over `(bits, len: u8)` feeds the hasher: the word
    /// (`write_u32` or `write_u128`), then `write_u8(len)`.
    fn hash<H: Hasher>(&self, state: &mut H) {
        self.bits.hash(state);
        self.len().hash(state);
    }
}

impl<F: Family> fmt::Debug for PrefixOf<F> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct(F::NAME)
            .field("bits", &self.bits)
            .field("len", &self.len())
            .finish()
    }
}

impl<F: Family> fmt::Display for PrefixOf<F> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}/{}", self.addr(), self.len())
    }
}

impl<F: Family> FromStr for PrefixOf<F> {
    type Err = PrefixError;

    fn from_str(s: &str) -> Result<Self, PrefixError> {
        let malformed = || PrefixError::Malformed(s.to_string());
        let (addr, len) = s.split_once('/').ok_or_else(malformed)?;
        let addr: F::Addr = addr.parse().map_err(|_| malformed())?;
        let len: u8 = len.parse().map_err(|_| malformed())?;
        Self::from_addr(addr, len)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// One family's example prefixes, named by their role below, so each
    /// test is written once and runs as `v4::NAME` and `v6::NAME`.
    trait Examples: Family {
        /// A prefix with room for two more levels below it.
        const BASE: &'static str;
        /// `BASE`'s children, then its four grandchildren.
        const BELOW: [&'static str; 6];
        /// A deep prefix `BASE` covers.
        const DEEP: &'static str;
        /// A prefix as long as `DEEP` that `BASE` does not cover.
        const OUTSIDE: &'static str;
        /// A host prefix.
        const HOST: &'static str;
        /// Addresses at either end of `BASE`, then one outside it.
        const ADDRS: [&'static str; 3];
        /// Text that is not a prefix of this family.
        const GARBAGE: &'static [&'static str];
    }

    impl Examples for Ipv4 {
        const BASE: &'static str = "168.122.0.0/16";
        const BELOW: [&'static str; 6] = [
            "168.122.0.0/17",
            "168.122.128.0/17",
            "168.122.0.0/18",
            "168.122.64.0/18",
            "168.122.128.0/18",
            "168.122.192.0/18",
        ];
        const DEEP: &'static str = "168.122.225.0/24";
        const OUTSIDE: &'static str = "168.123.0.0/24";
        const HOST: &'static str = "1.2.3.4/32";
        const ADDRS: [&'static str; 3] = ["168.122.0.0", "168.122.255.255", "168.123.0.0"];
        const GARBAGE: &'static [&'static str] = &[
            "10.0.0.0",
            "10.0.0.0/33",
            "10.0.0.1/8",
            "10.0.0/8",
            "ten.0.0.0/8",
            "10.0.0.0/8/9",
            "",
            "2001:db8::/32",
        ];
    }

    impl Examples for Ipv6 {
        const BASE: &'static str = "2001:db8::/32";
        const BELOW: [&'static str; 6] = [
            "2001:db8::/33",
            "2001:db8:8000::/33",
            "2001:db8::/34",
            "2001:db8:4000::/34",
            "2001:db8:8000::/34",
            "2001:db8:c000::/34",
        ];
        const DEEP: &'static str = "2001:db8:e1::/48";
        const OUTSIDE: &'static str = "2001:db9::/48";
        const HOST: &'static str = "::1/128";
        const ADDRS: [&'static str; 3] = [
            "2001:db8::",
            "2001:db8:ffff:ffff:ffff:ffff:ffff:ffff",
            "2001:db9::",
        ];
        const GARBAGE: &'static [&'static str] = &[
            "2001:db8::",
            "2001:db8::/129",
            "2001:db8::1/32",
            "zz::/32",
            "2001:db8::/32/1",
            "",
            "10.0.0.0/8",
        ];
    }

    fn p<F: Family>(s: &str) -> PrefixOf<F> {
        s.parse().unwrap()
    }

    /// An address of the family, through its host prefix.
    fn addr<F: Family>(s: &str) -> F::Addr {
        p::<F>(&format!("{s}/{}", F::MAX_LEN)).addr()
    }

    /// A `#[test]` per family, `v4::NAME` and `v6::NAME`, for each
    /// generic test below.
    macro_rules! both_families {
        ($($(#[$meta:meta])* $name:ident),* $(,)?) => {
            mod v4 {
                $(#[test] $(#[$meta])* fn $name() { super::$name::<super::Ipv4>() })*
            }
            mod v6 {
                $(#[test] $(#[$meta])* fn $name() { super::$name::<super::Ipv6>() })*
            }
        };
    }

    both_families!(
        parse_display_round_trip,
        parse_rejects_garbage,
        new_validates,
        new_truncated_clears_host_bits,
        #[should_panic(expected = "prefix length")]
        new_truncated_panics_on_len,
        covers_basic,
        covered_by_is_converse,
        contains_addr,
        parent_covers_child,
        parent_sibling_children,
        sibling_is_involution,
        ancestor_at,
        bit_indexing,
        subprefixes_enumeration,
        subprefixes_self_only,
        subprefixes_empty_when_maxlen_below,
        subprefixes_clamp_to_max_len,
        common_ancestor,
        ordering_parent_before_children,
        host_from_addr,
    );

    fn parse_display_round_trip<F: Examples>() {
        let all = [F::BASE, F::DEEP, F::OUTSIDE, F::HOST];
        for s in all.into_iter().chain(F::BELOW) {
            assert_eq!(p::<F>(s).to_string(), s);
        }
        assert_eq!(
            PrefixOf::<F>::DEFAULT.to_string().parse(),
            Ok(PrefixOf::<F>::DEFAULT)
        );
    }

    fn parse_rejects_garbage<F: Examples>() {
        for s in F::GARBAGE {
            assert!(s.parse::<PrefixOf<F>>().is_err(), "{s}");
        }
    }

    fn new_validates<F: Examples>() {
        let max = F::MAX_LEN;
        assert_eq!(
            PrefixOf::<F>::new(F::Bits::ZERO, max + 1),
            Err(PrefixError::LengthOutOfRange { len: max + 1, max })
        );
        let one = F::Bits::truncate(1);
        assert_eq!(
            PrefixOf::<F>::new(one, max - 1),
            Err(PrefixError::HostBitsSet)
        );
        assert!(PrefixOf::<F>::new(one, max).is_ok());
        assert_eq!(PrefixOf::<F>::new(F::Bits::ZERO, 0), Ok(PrefixOf::DEFAULT));
    }

    fn new_truncated_clears_host_bits<F: Examples>() {
        let deep = p::<F>(F::DEEP);
        let host_bits = !F::Bits::ZERO >> u32::from(deep.len());
        assert_eq!(
            PrefixOf::<F>::new_truncated(deep.bits() | host_bits, deep.len()),
            deep
        );
        assert_eq!(
            PrefixOf::<F>::new_truncated(!F::Bits::ZERO, 0),
            PrefixOf::DEFAULT
        );
        let top = PrefixOf::<F>::new_truncated(!F::Bits::ZERO, 1);
        assert_eq!((top.bits(), top.len()), (F::Bits::TOP, 1));
    }

    fn new_truncated_panics_on_len<F: Examples>() {
        PrefixOf::<F>::new_truncated(F::Bits::ZERO, F::MAX_LEN + 8);
    }

    fn covers_basic<F: Examples>() {
        let base = p::<F>(F::BASE);
        assert!(base.covers(base));
        assert!(base.covers(p(F::DEEP)));
        assert!(base.covers(p(F::BELOW[0])));
        assert!(!base.covers(p(F::OUTSIDE)));
        let above = base.ancestor_at(8).unwrap();
        assert!(!base.covers(above)); // shorter, not covered
        assert!(PrefixOf::<F>::DEFAULT.covers(base));
        assert!(!base.covers(PrefixOf::DEFAULT));
    }

    fn covered_by_is_converse<F: Examples>() {
        let (a, b) = (p::<F>(F::BASE), p::<F>(F::DEEP));
        assert!(b.covered_by(a));
        assert!(!a.covered_by(b));
    }

    fn contains_addr<F: Examples>() {
        let base = p::<F>(F::BASE);
        let [first, last, outside] = F::ADDRS.map(addr::<F>);
        assert!(base.contains_addr(first));
        assert!(base.contains_addr(last));
        assert!(!base.contains_addr(outside));
        assert!(PrefixOf::<F>::DEFAULT.contains_addr(outside));
    }

    fn parent_covers_child<F: Examples>() {
        for s in [F::BASE, F::DEEP, F::HOST].into_iter().chain(F::BELOW) {
            let child = p::<F>(s);
            let parent = child.parent().unwrap();
            assert!(parent.covers(child) && !child.covers(parent), "{s}");
            assert_eq!(parent.len(), child.len() - 1);
        }
    }

    fn parent_sibling_children<F: Examples>() {
        let [left, right, ..] = F::BELOW.map(p::<F>);
        let base = p::<F>(F::BASE);
        assert_eq!(left.parent(), Some(base));
        assert_eq!(left.sibling(), Some(right));
        assert!(left.is_left_child());
        assert!(!right.is_left_child());
        assert_eq!(base.children(), Some((left, right)));

        let default = PrefixOf::<F>::DEFAULT;
        assert_eq!(default.parent(), None);
        assert_eq!(default.sibling(), None);
        assert!(!default.is_left_child());
        let host = p::<F>(F::HOST);
        assert_eq!(host.left_child(), None);
        assert_eq!(host.right_child(), None);
        assert_eq!(host.children(), None);
    }

    fn sibling_is_involution<F: Examples>() {
        for s in [F::DEEP, F::HOST].into_iter().chain(F::BELOW) {
            let q = p::<F>(s);
            assert_eq!(q.sibling().unwrap().sibling(), Some(q), "{s}");
            assert_eq!(q.sibling().unwrap().parent(), q.parent(), "{s}");
            assert_ne!(q.sibling(), Some(q), "{s}");
        }
    }

    fn ancestor_at<F: Examples>() {
        let (base, deep) = (p::<F>(F::BASE), p::<F>(F::DEEP));
        assert_eq!(deep.ancestor_at(base.len()), Some(base));
        assert_eq!(deep.ancestor_at(deep.len()), Some(deep));
        assert_eq!(deep.ancestor_at(0), Some(PrefixOf::DEFAULT));
        assert_eq!(deep.ancestor_at(deep.len() + 1), None);
    }

    fn bit_indexing<F: Examples>() {
        let top = PrefixOf::<F>::new(F::Bits::TOP, 1).unwrap();
        assert!(top.bit(0));
        let second = PrefixOf::<F>::new(F::Bits::TOP >> 1, 2).unwrap();
        assert!(!second.bit(0));
        assert!(second.bit(1));
        let last = PrefixOf::<F>::new(F::Bits::truncate(1), F::MAX_LEN).unwrap();
        assert!(last.bit(F::MAX_LEN - 1));
        assert!(!last.bit(F::MAX_LEN - 2));
    }

    fn subprefixes_enumeration<F: Examples>() {
        // The paper's example: 168.122.0.0/16 with maxLength 18 authorizes
        // the /16, two /17s, and four /18s.
        let base = p::<F>(F::BASE);
        let subs: Vec<_> = base.subprefixes(base.len() + 2).collect();
        let want: Vec<_> = std::iter::once(base).chain(F::BELOW.map(p::<F>)).collect();
        assert_eq!(subs, want);
        assert_eq!(base.subprefix_count(base.len() + 2), 7);
    }

    fn subprefixes_self_only<F: Examples>() {
        let q = p::<F>(F::DEEP);
        assert_eq!(q.subprefixes(q.len()).collect::<Vec<_>>(), vec![q]);
        assert_eq!(q.subprefix_count(q.len()), 1);
    }

    fn subprefixes_empty_when_maxlen_below<F: Examples>() {
        let q = p::<F>(F::DEEP);
        assert_eq!(q.subprefixes(q.len() - 1).count(), 0);
        assert_eq!(q.subprefix_count(q.len() - 1), 0);
    }

    fn subprefixes_clamp_to_max_len<F: Examples>() {
        let host = p::<F>(F::HOST);
        assert_eq!(host.subprefixes(200).count(), 1);
        assert_eq!(host.subprefix_count(200), 1);
        let last = host.parent().unwrap();
        assert_eq!(last.subprefixes(u8::MAX).count(), 3);
        assert_eq!(last.subprefix_count(u8::MAX), 3);
    }

    #[test]
    fn subprefix_count_saturates() {
        assert_eq!(Prefix4::DEFAULT.subprefix_count(32), (1 << 33) - 1);
        assert_eq!(Prefix6::DEFAULT.subprefix_count(128), u128::MAX);
        assert_eq!(Prefix6::DEFAULT.subprefix_count(126), (1 << 127) - 1);
    }

    fn common_ancestor<F: Examples>() {
        let base = p::<F>(F::BASE);
        let [.., first, _, _, last] = F::BELOW.map(p::<F>);
        assert_eq!(first.common_ancestor(last), base);
        assert_eq!(first.common_ancestor(first), first);
        let (left, right) = PrefixOf::<F>::DEFAULT.children().unwrap();
        assert_eq!(left.common_ancestor(right), PrefixOf::DEFAULT);
        // A covering prefix is its own common ancestor with a subprefix.
        assert_eq!(base.common_ancestor(p(F::DEEP)), base);
        assert_eq!(p::<F>(F::DEEP).common_ancestor(base), base);
    }

    fn ordering_parent_before_children<F: Examples>() {
        let [l, r, ..] = F::BELOW.map(p::<F>);
        let parent = p::<F>(F::BASE);
        assert!(parent < l);
        assert!(l < r);
        assert!(p::<F>(F::DEEP) < p::<F>(F::OUTSIDE));
    }

    fn host_from_addr<F: Examples>() {
        let host = p::<F>(F::HOST);
        assert_eq!(PrefixOf::<F>::host(host.addr()), host);
        assert_eq!(PrefixOf::<F>::from_addr(host.addr(), F::MAX_LEN), Ok(host));
    }
}
