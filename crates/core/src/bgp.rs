//! An indexed global BGP table: the Route Views side of the paper's
//! measurement pipeline (§6).
//!
//! The analyses need four queries over the set of announced
//! `(prefix, origin AS)` pairs, all answered here in trie time:
//!
//! 1. *is this exact pair announced?* (minimality checks),
//! 2. *how many subprefixes of `p` up to length `m` does AS `a`
//!    announce?* (vulnerability census),
//! 3. *does AS `a` announce an ancestor of `p`?* (the maximally-permissive
//!    lower bound), and
//! 4. *which announced pairs does a given VRP make valid?*
//!    (minimalization).

use rpki_prefix::Prefix;
use rpki_roa::{Asn, RouteOrigin, Vrp};
use rpki_trie::DualTrie;

/// A deduplicated, indexed set of `(prefix, origin AS)` pairs.
#[derive(Debug, Clone, Default)]
pub struct BgpTable {
    trie: DualTrie<Vec<Asn>>,
    len: usize,
}

impl BgpTable {
    /// Creates an empty table.
    pub fn new() -> BgpTable {
        BgpTable::default()
    }

    /// The number of distinct `(prefix, origin)` pairs — the paper's
    /// "777K advertised (IP prefix, AS) pairs" metric.
    pub fn len(&self) -> usize {
        self.len
    }

    /// `true` if the table holds no routes.
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// Inserts a pair; returns `false` if it was already present.
    pub fn insert(&mut self, route: RouteOrigin) -> bool {
        let bucket = self.trie.get_or_insert_with(route.prefix, Vec::new);
        if bucket.contains(&route.origin) {
            return false;
        }
        bucket.push(route.origin);
        self.len += 1;
        true
    }

    /// `true` if this exact `(prefix, origin)` pair is announced.
    pub fn contains(&self, route: &RouteOrigin) -> bool {
        self.trie
            .get(route.prefix)
            .is_some_and(|b| b.contains(&route.origin))
    }

    /// `true` if `prefix` is announced by *any* origin.
    pub fn prefix_announced(&self, prefix: Prefix) -> bool {
        self.trie.get(prefix).is_some()
    }

    /// The origins announcing exactly `prefix`.
    pub fn origins_of(&self, prefix: Prefix) -> &[Asn] {
        self.trie.get(prefix).map(Vec::as_slice).unwrap_or(&[])
    }

    /// Counts the distinct subprefixes of `prefix` (inclusive), up to
    /// `max_len`, that `asn` announces.
    pub fn count_announced_under(&self, prefix: Prefix, max_len: u8, asn: Asn) -> u64 {
        self.trie
            .iter_covered_by(prefix)
            .filter(|(k, bucket)| k.len() <= max_len && bucket.contains(&asn))
            .count() as u64
    }

    /// `true` if `asn` announces a *strict* ancestor of `prefix` — i.e.
    /// this pair is a de-aggregated subprefix of another announcement by
    /// the same origin. The complement of these pairs forms the
    /// maximally-permissive ROA lower bound (§6).
    pub fn has_ancestor_same_origin(&self, prefix: Prefix, asn: Asn) -> bool {
        self.trie
            .iter_covering(prefix)
            .any(|(k, bucket)| k.len() < prefix.len() && bucket.contains(&asn))
    }

    /// The announced pairs that `vrp` makes RPKI-valid: announced
    /// subprefixes of the VRP's prefix, within maxLength, with the VRP's
    /// origin.
    pub fn routes_validated_by<'a>(
        &'a self,
        vrp: &'a Vrp,
    ) -> impl Iterator<Item = RouteOrigin> + 'a {
        self.trie
            .iter_covered_by(vrp.prefix)
            .filter(move |(k, bucket)| k.len() <= vrp.max_len && bucket.contains(&vrp.asn))
            .map(move |(k, _)| RouteOrigin::new(k, vrp.asn))
    }

    /// Iterates over every `(prefix, origin)` pair, grouped by prefix in
    /// sorted order.
    pub fn iter(&self) -> impl Iterator<Item = RouteOrigin> + '_ {
        self.buckets()
            .flat_map(|(p, bucket)| bucket.iter().map(move |&a| RouteOrigin::new(p, a)))
    }

    /// Every announced prefix with its origins (in insertion order), in
    /// sorted prefix order: IPv4 then IPv6, each in trie pre-order, so a
    /// prefix comes directly before everything it covers.
    pub(crate) fn buckets(&self) -> impl Iterator<Item = (Prefix, &[Asn])> {
        self.trie.iter().map(|(p, bucket)| (p, bucket.as_slice()))
    }
}

impl FromIterator<RouteOrigin> for BgpTable {
    fn from_iter<I: IntoIterator<Item = RouteOrigin>>(iter: I) -> BgpTable {
        let mut t = BgpTable::new();
        for r in iter {
            t.insert(r);
        }
        t
    }
}

impl<'a> FromIterator<&'a RouteOrigin> for BgpTable {
    fn from_iter<I: IntoIterator<Item = &'a RouteOrigin>>(iter: I) -> BgpTable {
        iter.into_iter().copied().collect()
    }
}

impl Extend<RouteOrigin> for BgpTable {
    fn extend<I: IntoIterator<Item = RouteOrigin>>(&mut self, iter: I) {
        for r in iter {
            self.insert(r);
        }
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
    fn insert_dedups() {
        let mut t = BgpTable::new();
        assert!(t.insert(route("10.0.0.0/8 => AS1")));
        assert!(!t.insert(route("10.0.0.0/8 => AS1")));
        assert!(t.insert(route("10.0.0.0/8 => AS2"))); // MOAS is a thing
        assert_eq!(t.len(), 2);
        assert_eq!(t.origins_of("10.0.0.0/8".parse().unwrap()).len(), 2);
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
