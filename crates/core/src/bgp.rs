//! An indexed global BGP table: the Route Views side of the paper's
//! measurement pipeline (§6).
//!
//! The analyses need two queries over the set of announced
//! `(prefix, origin AS)` pairs:
//!
//! 1. *is this exact pair announced?* (the hijack-surface walk), and
//! 2. *which announced pairs does a given VRP make valid?*
//!    (minimalization, and counted, the vulnerability census).
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

    /// The announced pairs that `vrp` makes RPKI-valid: announced
    /// subprefixes of the VRP's prefix, within maxLength, with the VRP's
    /// origin. They lie in the run of the sort order that starts at the
    /// VRP's prefix and ends at the first pair it does not cover.
    pub fn routes_validated_by<'a>(
        &'a self,
        vrp: &'a Vrp,
    ) -> impl Iterator<Item = RouteOrigin> + 'a {
        let first = self.routes.partition_point(|r| r.prefix < vrp.prefix);
        self.routes[first..]
            .iter()
            .take_while(move |r| vrp.prefix.covers(r.prefix))
            .filter(move |r| r.prefix.len() <= vrp.max_len && r.origin == vrp.asn)
            .copied()
    }

    /// Iterates over every `(prefix, origin)` pair, ascending: IPv4 then
    /// IPv6, and a prefix comes directly before everything it covers.
    pub fn iter(&self) -> impl Iterator<Item = RouteOrigin> + '_ {
        self.routes.iter().copied()
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
        BgpTable { routes }
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
        assert!(t.contains(&route("10.0.0.0/8 => AS1")));
        assert!(t.contains(&route("10.0.0.0/8 => AS2")));
        assert!(!t.contains(&route("10.0.0.0/9 => AS1")));
    }

    #[test]
    fn contains_is_exact() {
        let t = table(&["168.122.0.0/16 => AS111", "168.122.225.0/24 => AS111"]);
        assert!(t.contains(&route("168.122.0.0/16 => AS111")));
        assert!(!t.contains(&route("168.122.0.0/16 => AS666")));
        assert!(t.contains(&route("168.122.225.0/24 => AS111")));
        assert!(!t.contains(&route("168.122.0.0/24 => AS111")));
    }

    #[test]
    fn routes_validated_by_counts_per_maxlength_and_origin() {
        let t = table(&[
            "10.0.0.0/16 => AS1",
            "10.0.0.0/17 => AS1",
            "10.0.128.0/17 => AS1",
            "10.0.0.0/18 => AS2", // wrong origin: not counted for AS1
        ]);
        let count = |vrp: &str| t.routes_validated_by(&vrp.parse().unwrap()).count();
        assert_eq!(count("10.0.0.0/16-17 => AS1"), 3);
        assert_eq!(count("10.0.0.0/16 => AS1"), 1);
        assert_eq!(count("10.0.0.0/16-18 => AS2"), 1);
        assert_eq!(count("10.0.0.0/16-32 => AS3"), 0);
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
            assert!(t.contains(r), "{r}");
        }
        assert!(!t.contains(&route("0.0.0.0/0 => AS1")));
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
