//! An indexed global BGP table: the Route Views side of the paper's
//! measurement pipeline (§6).
//!
//! The analyses need four queries over the set of announced
//! `(prefix, origin AS)` pairs:
//!
//! 1. *is this exact pair announced?* (minimality checks),
//! 2. *how many subprefixes of `p` up to length `m` does AS `a`
//!    announce?* (vulnerability census),
//! 3. *does AS `a` announce an ancestor of `p`?* (the maximally-permissive
//!    lower bound), and
//! 4. *which announced pairs does a given VRP make valid?*
//!    (minimalization).
//!
//! The table is built once and never mutated, and [`Prefix`]'s order puts
//! a prefix directly before everything it covers, so the index is the
//! sort order itself: an exact lookup is a binary search and "announced
//! under `p`" is the contiguous run starting at `p`'s lower bound.
//!
//! Building it is one sort, done on integers where it can be. Within IPv4,
//! `RouteOrigin`'s derived order is `(bits, length, origin)`, which is the
//! order of the 70-bit key `bits << 38 | length << 32 | origin`. So the
//! IPv4 pairs (95 % of a real table) are packed into 16-byte `u128` keys,
//! sorted and deduplicated as integers and unpacked in order; the IPv6
//! pairs are sorted as records and follow, since every IPv4 prefix sorts
//! before every IPv6 one. A packed-key sort moves 16 bytes per element
//! instead of 40 and compares two integers: at paper scale the sort takes
//! less than half as long. An LSD radix sort of the same keys, with 8-,
//! 11- or 16-bit digits, measured slower than `sort_unstable` on them.

use rpki_prefix::{Prefix, Prefix4};
use rpki_roa::{Asn, RouteOrigin, Vrp};

/// A deduplicated, indexed set of `(prefix, origin AS)` pairs.
#[derive(Debug, Clone, Default)]
pub struct BgpTable {
    /// The distinct pairs, ascending: by prefix, then by origin.
    routes: Vec<RouteOrigin>,
    /// Each pair's origin again, in the same order, so that the origins
    /// of one prefix are a slice.
    origins: Vec<Asn>,
}

impl BgpTable {
    /// Creates an empty table.
    pub fn new() -> BgpTable {
        BgpTable::default()
    }

    /// The number of distinct `(prefix, origin)` pairs — the paper's
    /// "777K advertised (IP prefix, AS) pairs" metric.
    pub fn len(&self) -> usize {
        self.routes.len()
    }

    /// `true` if the table holds no routes.
    pub fn is_empty(&self) -> bool {
        self.routes.is_empty()
    }

    /// `true` if this exact `(prefix, origin)` pair is announced.
    pub fn contains(&self, route: &RouteOrigin) -> bool {
        self.routes.binary_search(route).is_ok()
    }

    /// `true` if `prefix` is announced by *any* origin.
    pub fn prefix_announced(&self, prefix: Prefix) -> bool {
        !self.origins_of(prefix).is_empty()
    }

    /// The origins announcing exactly `prefix`, ascending.
    pub fn origins_of(&self, prefix: Prefix) -> &[Asn] {
        let first = self.lower_bound(prefix);
        let on_prefix = self.routes[first..]
            .iter()
            .take_while(|r| r.prefix == prefix);
        &self.origins[first..first + on_prefix.count()]
    }

    /// Counts the distinct subprefixes of `prefix` (inclusive), up to
    /// `max_len`, that `asn` announces.
    pub fn count_announced_under(&self, prefix: Prefix, max_len: u8, asn: Asn) -> u64 {
        self.covered_by(prefix)
            .filter(|r| r.prefix.len() <= max_len && r.origin == asn)
            .count() as u64
    }

    /// `true` if `asn` announces a *strict* ancestor of `prefix` — i.e.
    /// this pair is a de-aggregated subprefix of another announcement by
    /// the same origin. The complement of these pairs forms the
    /// maximally-permissive ROA lower bound (§6).
    pub fn has_ancestor_same_origin(&self, prefix: Prefix, asn: Asn) -> bool {
        (0..prefix.len()).any(|len| {
            let above = prefix.ancestor_at(len).expect("shorter than the prefix");
            self.contains(&RouteOrigin::new(above, asn))
        })
    }

    /// The announced pairs that `vrp` makes RPKI-valid: announced
    /// subprefixes of the VRP's prefix, within maxLength, with the VRP's
    /// origin.
    pub fn routes_validated_by<'a>(
        &'a self,
        vrp: &'a Vrp,
    ) -> impl Iterator<Item = RouteOrigin> + 'a {
        self.covered_by(vrp.prefix)
            .filter(move |r| r.prefix.len() <= vrp.max_len && r.origin == vrp.asn)
            .copied()
    }

    /// Iterates over every `(prefix, origin)` pair, ascending: IPv4 then
    /// IPv6, and a prefix comes directly before everything it covers.
    pub fn iter(&self) -> impl Iterator<Item = RouteOrigin> + '_ {
        self.routes.iter().copied()
    }

    /// The pairs whose prefix `prefix` covers (itself included): the run
    /// of the sort order starting at its lower bound.
    fn covered_by(&self, prefix: Prefix) -> impl Iterator<Item = &RouteOrigin> {
        self.routes[self.lower_bound(prefix)..]
            .iter()
            .take_while(move |r| prefix.covers(r.prefix))
    }

    /// Where the pairs on `prefix` start, or would.
    fn lower_bound(&self, prefix: Prefix) -> usize {
        self.routes.partition_point(|r| r.prefix < prefix)
    }
}

/// An IPv4 pair as an integer whose order is `RouteOrigin`'s: the 32
/// address bits, then the 6-bit length, then the 32-bit origin.
fn pack(prefix: Prefix4, origin: Asn) -> u128 {
    u128::from(prefix.bits()) << 38 | u128::from(prefix.len()) << 32 | u128::from(origin.0)
}

/// The pair [`pack`] made `key` from.
fn unpack(key: u128) -> RouteOrigin {
    let prefix = Prefix4::new_truncated((key >> 38) as u32, (key >> 32) as u8 & 0x3F);
    RouteOrigin::new(Prefix::V4(prefix), Asn(key as u32))
}

impl FromIterator<RouteOrigin> for BgpTable {
    fn from_iter<I: IntoIterator<Item = RouteOrigin>>(iter: I) -> BgpTable {
        let iter = iter.into_iter();
        let mut v4 = Vec::with_capacity(iter.size_hint().0);
        let mut v6 = Vec::new();
        for route in iter {
            match route.prefix {
                Prefix::V4(prefix) => v4.push(pack(prefix, route.origin)),
                Prefix::V6(_) => v6.push(route),
            }
        }
        v4.sort_unstable();
        v4.dedup();
        v6.sort_unstable();
        v6.dedup();
        let mut routes = Vec::with_capacity(v4.len() + v6.len());
        routes.extend(v4.into_iter().map(unpack));
        routes.append(&mut v6);
        let origins = routes.iter().map(|r| r.origin).collect();
        BgpTable { routes, origins }
    }
}

impl<'a> FromIterator<&'a RouteOrigin> for BgpTable {
    fn from_iter<I: IntoIterator<Item = &'a RouteOrigin>>(iter: I) -> BgpTable {
        iter.into_iter().copied().collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn route(s: &str) -> RouteOrigin {
        s.parse().unwrap()
    }

    fn table(routes: &[&str]) -> BgpTable {
        routes.iter().map(|s| route(s)).collect()
    }

    #[test]
    fn collect_dedups() {
        let t = table(&[
            "10.0.0.0/8 => AS2", // MOAS is a thing
            "10.0.0.0/8 => AS1",
            "10.0.0.0/8 => AS2",
        ]);
        assert_eq!(t.len(), 2);
        assert_eq!(
            t.origins_of("10.0.0.0/8".parse().unwrap()),
            [Asn(1), Asn(2)]
        );
        assert!(t.origins_of("10.0.0.0/9".parse().unwrap()).is_empty());
    }

    #[test]
    fn contains_and_prefix_announced() {
        let t = table(&["168.122.0.0/16 => AS111", "168.122.225.0/24 => AS111"]);
        assert!(t.contains(&route("168.122.0.0/16 => AS111")));
        assert!(!t.contains(&route("168.122.0.0/16 => AS666")));
        assert!(t.prefix_announced("168.122.225.0/24".parse().unwrap()));
        assert!(!t.prefix_announced("168.122.0.0/24".parse().unwrap()));
    }

    #[test]
    fn count_announced_under() {
        let t = table(&[
            "10.0.0.0/16 => AS1",
            "10.0.0.0/17 => AS1",
            "10.0.128.0/17 => AS1",
            "10.0.0.0/18 => AS2", // wrong origin: not counted for AS1
        ]);
        let p: Prefix = "10.0.0.0/16".parse().unwrap();
        assert_eq!(t.count_announced_under(p, 17, Asn(1)), 3);
        assert_eq!(t.count_announced_under(p, 16, Asn(1)), 1);
        assert_eq!(t.count_announced_under(p, 18, Asn(2)), 1);
        assert_eq!(t.count_announced_under(p, 32, Asn(3)), 0);
    }

    #[test]
    fn ancestor_same_origin() {
        let t = table(&[
            "10.0.0.0/8 => AS1",
            "10.1.0.0/16 => AS1",
            "10.2.0.0/16 => AS2",
        ]);
        // 10.1.0.0/16 by AS1 is a de-aggregate of AS1's /8.
        assert!(t.has_ancestor_same_origin("10.1.0.0/16".parse().unwrap(), Asn(1)));
        // AS2's /16 has no same-origin ancestor.
        assert!(!t.has_ancestor_same_origin("10.2.0.0/16".parse().unwrap(), Asn(2)));
        // The /8 itself has no strict ancestor.
        assert!(!t.has_ancestor_same_origin("10.0.0.0/8".parse().unwrap(), Asn(1)));
    }

    #[test]
    fn routes_validated_by_vrp() {
        let t = table(&[
            "168.122.0.0/16 => AS111",
            "168.122.225.0/24 => AS111",
            "168.122.0.0/25 => AS111",   // beyond maxLength below
            "168.122.128.0/17 => AS666", // wrong origin
        ]);
        let vrp: Vrp = "168.122.0.0/16-24 => AS111".parse().unwrap();
        let validated: Vec<_> = t.routes_validated_by(&vrp).collect();
        assert_eq!(validated.len(), 2);
        assert!(validated.contains(&route("168.122.0.0/16 => AS111")));
        assert!(validated.contains(&route("168.122.225.0/24 => AS111")));
    }

    /// The packed key's edges: `/0` and `/32`, the smallest and largest
    /// origin, MOAS duplicates, and the families interleaved in the input.
    #[test]
    fn packed_keys_unpack_to_the_sorted_input() {
        let input: Vec<RouteOrigin> = [
            "255.255.255.255/32 => AS4294967295",
            "2001:db8::/32 => AS0",
            "0.0.0.0/0 => AS4294967295",
            "255.255.255.255/32 => AS0",
            "::/0 => AS4294967295",
            "0.0.0.0/0 => AS0",
            "10.0.0.0/8 => AS65536",
            "2001:db8::/32 => AS0",
            "10.0.0.0/8 => AS65535",
            "255.255.255.254/31 => AS1",
            "10.0.0.0/8 => AS65536",
            "0.0.0.0/0 => AS4294967295",
            "2001:db8::1/128 => AS4294967295",
            "255.255.255.255/32 => AS4294967295",
        ]
        .iter()
        .map(|s| route(s))
        .collect();
        let t: BgpTable = input.iter().collect();
        let mut expect = input.clone();
        expect.sort_unstable();
        expect.dedup();
        assert_eq!(t.iter().collect::<Vec<_>>(), expect);
        for r in &input {
            let origins: Vec<Asn> = expect
                .iter()
                .filter(|e| e.prefix == r.prefix)
                .map(|e| e.origin)
                .collect();
            assert_eq!(t.origins_of(r.prefix), origins, "{}", r.prefix);
        }
        assert_eq!(
            t.origins_of("0.0.0.0/0".parse().unwrap()),
            [Asn(0), Asn(u32::MAX)]
        );
    }

    #[test]
    fn iter_yields_every_pair() {
        let t = table(&[
            "10.0.0.0/8 => AS1",
            "10.0.0.0/8 => AS2",
            "2001:db8::/32 => AS3",
        ]);
        let all: Vec<_> = t.iter().collect();
        assert_eq!(all.len(), 3);
        assert_eq!(all.len(), t.len());
    }
}
