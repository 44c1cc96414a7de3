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
//! The table is its keys. Within IPv4, `RouteOrigin`'s derived order is
//! `(bits, length, origin)`, which is the order of the 70-bit key
//! `bits << 38 | length << 32 | origin`. So the IPv4 pairs (95 % of a
//! real table) are kept as 16-byte `u128` keys instead of 40-byte
//! records, and unpacked only as a query or a walk reads them; the IPv6
//! pairs are kept as records and follow, since every IPv4 prefix sorts
//! before every IPv6 one.
//!
//! Each family's keys are sorted by one merge pass. A table dump lists
//! its RIB in prefix order, with the odd pair out of place, so the build
//! keeps the ascending run of its input where it is and sets aside each
//! key that would break it. Only the set-aside keys are sorted; they are
//! then merged with the run into the table's own list, and the run's keys
//! below the first of them are copied as one block. On a dump that is
//! linear; at worst, on input in no order at all, it is one sort plus one
//! merge.
//!
//! The merge writes a new list rather than shifting the run in place. It
//! costs the same, and the run's buffer, freed as the build returns, stays
//! free beneath the table while the caller goes on allocating. With glibc's
//! allocator that makes a repeated pipeline release its heap after each
//! round: an in-place build left later small allocations at the heap top
//! in some runs but not others, depending on thread timing, and the
//! process's peak resident memory varied by 30 MB between identical runs
//! at paper scale (2 CPUs).

use rpki_prefix::{Prefix, Prefix4};
use rpki_roa::{Asn, RouteOrigin, Vrp};

/// A deduplicated, indexed set of `(prefix, origin AS)` pairs.
#[derive(Debug, Clone, Default)]
pub struct BgpTable {
    /// The distinct IPv4 pairs as [`pack`]ed keys, ascending.
    v4: Vec<u128>,
    /// The distinct IPv6 pairs, ascending: by prefix, then by origin.
    v6: Vec<RouteOrigin>,
}

impl BgpTable {
    /// Creates an empty table.
    pub fn new() -> BgpTable {
        BgpTable::default()
    }

    /// The number of distinct `(prefix, origin)` pairs — the paper's
    /// "777K advertised (IP prefix, AS) pairs" metric.
    pub fn len(&self) -> usize {
        self.v4.len() + self.v6.len()
    }

    /// `true` if the table holds no routes.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// `true` if this exact `(prefix, origin)` pair is announced.
    pub fn contains(&self, route: &RouteOrigin) -> bool {
        match route.prefix {
            Prefix::V4(prefix) => self.v4.binary_search(&pack(prefix, route.origin)).is_ok(),
            Prefix::V6(_) => self.v6.binary_search(route).is_ok(),
        }
    }

    /// The announced pairs that `vrp` makes RPKI-valid: announced
    /// subprefixes of the VRP's prefix, within maxLength, with the VRP's
    /// origin. They lie in the run of the sort order that starts at the
    /// VRP's prefix and ends at the first pair it does not cover.
    pub fn routes_validated_by<'a>(
        &'a self,
        vrp: &'a Vrp,
    ) -> impl Iterator<Item = RouteOrigin> + 'a {
        let (v4, v6) = match vrp.prefix {
            Prefix::V4(prefix) => {
                let first = self.v4.partition_point(|&k| k < pack(prefix, Asn(0)));
                (&self.v4[first..], &self.v6[..0])
            }
            Prefix::V6(_) => {
                let first = self.v6.partition_point(|r| r.prefix < vrp.prefix);
                (&self.v4[..0], &self.v6[first..])
            }
        };
        unpacked(v4, v6)
            .take_while(move |r| vrp.prefix.covers(r.prefix))
            .filter(move |r| r.prefix.len() <= vrp.max_len && r.origin == vrp.asn)
    }

    /// Iterates over every `(prefix, origin)` pair, ascending: IPv4 then
    /// IPv6, and a prefix comes directly before everything it covers.
    pub fn iter(&self) -> impl Iterator<Item = RouteOrigin> + '_ {
        unpacked(&self.v4, &self.v6)
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

/// The pairs of a run of IPv4 keys and a run of IPv6 pairs, in order.
fn unpacked<'a>(v4: &'a [u128], v6: &'a [RouteOrigin]) -> impl Iterator<Item = RouteOrigin> + 'a {
    v4.iter().map(|&key| unpack(key)).chain(v6.iter().copied())
}

/// One family's keys, sorted and deduplicated by one merge pass: `run`
/// holds the input's ascending run, `aside` the keys that broke it.
struct MergeSort<K> {
    run: Vec<K>,
    aside: Vec<K>,
}

impl<K: Ord + Copy> MergeSort<K> {
    fn with_capacity(capacity: usize) -> Self {
        MergeSort {
            run: Vec::with_capacity(capacity),
            aside: Vec::new(),
        }
    }

    /// Extends the run with `key`, or sets `key` aside if it sorts before
    /// the run's end. A repeat of the run's last key is dropped here.
    fn push(&mut self, key: K) {
        match self.run.last() {
            Some(last) if key < *last => self.aside.push(key),
            Some(last) if key == *last => {}
            _ => self.run.push(key),
        }
    }

    /// Sorts the set-aside keys and merges them with the run into a new
    /// list, dropping repeats.
    fn finish(self) -> Vec<K> {
        let MergeSort { run, mut aside } = self;
        if aside.is_empty() {
            return run;
        }
        aside.sort_unstable();
        let first = run.partition_point(|key| *key < aside[0]);
        let mut merged = Vec::with_capacity(run.len() + aside.len());
        merged.extend_from_slice(&run[..first]);
        let (mut i, mut j) = (first, 0);
        while i < run.len() || j < aside.len() {
            let key = if j == aside.len() || (i < run.len() && run[i] <= aside[j]) {
                i += 1;
                run[i - 1]
            } else {
                j += 1;
                aside[j - 1]
            };
            // A set-aside key may repeat another one or one of the run's.
            if merged.last() != Some(&key) {
                merged.push(key);
            }
        }
        merged
    }
}

impl FromIterator<RouteOrigin> for BgpTable {
    fn from_iter<I: IntoIterator<Item = RouteOrigin>>(iter: I) -> BgpTable {
        let iter = iter.into_iter();
        let mut v4 = MergeSort::with_capacity(iter.size_hint().0);
        let mut v6 = MergeSort::with_capacity(0);
        for route in iter {
            match route.prefix {
                Prefix::V4(prefix) => v4.push(pack(prefix, route.origin)),
                Prefix::V6(_) => v6.push(route),
            }
        }
        BgpTable {
            v4: v4.finish(),
            v6: v6.finish(),
        }
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
    /// origin, MOAS duplicates, the families interleaved in the input, and
    /// prefixes of one address whose length and origin order them apart.
    #[test]
    fn packed_keys_unpack_to_the_sorted_input() {
        let input: Vec<RouteOrigin> = [
            "10.0.0.0/16 => AS1",
            "0.0.0.0/8 => AS1",
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

    /// A v4 VRP whose first covered key has origin 0: the search starts at
    /// `pack(prefix, AS0)`, the smallest key of the prefix, so that key is
    /// in, and so is the same prefix's next origin for its own VRP. The
    /// AS0 VRP's answer pins today's behaviour, which `Vrp::matches`
    /// (no route matches an AS0 VRP, RFC 7607) disagrees with; it is
    /// expected to change once the two agree.
    #[test]
    fn routes_validated_by_starts_at_origin_zero() {
        let t = table(&[
            "9.255.255.255/32 => AS0",
            "10.0.0.0/8 => AS0",
            "10.0.0.0/8 => AS1",
            "10.0.0.0/9 => AS0",
            "11.0.0.0/8 => AS0",
        ]);
        let validated = |vrp: &str| {
            t.routes_validated_by(&vrp.parse().unwrap())
                .collect::<Vec<_>>()
        };
        assert_eq!(
            validated("10.0.0.0/8-9 => AS0"),
            [route("10.0.0.0/8 => AS0"), route("10.0.0.0/9 => AS0")]
        );
        assert_eq!(validated("10.0.0.0/8 => AS1"), [route("10.0.0.0/8 => AS1")]);
    }

    /// `/0` and host VRPs in both families: a `/0` covers its own family
    /// and nothing of the other, a host prefix only itself.
    #[test]
    fn routes_validated_by_at_the_length_edges() {
        let t = table(&[
            "0.0.0.0/0 => AS0",
            "10.0.0.0/8 => AS0",
            "255.255.255.255/32 => AS0",
            "255.255.255.255/32 => AS7",
            "::/0 => AS0",
            "2001:db8::/32 => AS0",
            "ffff:ffff:ffff:ffff:ffff:ffff:ffff:ffff/128 => AS0",
        ]);
        let count = |vrp: &str| t.routes_validated_by(&vrp.parse().unwrap()).count();
        assert_eq!(count("0.0.0.0/0-32 => AS0"), 3);
        assert_eq!(count("0.0.0.0/0 => AS0"), 1);
        assert_eq!(count("255.255.255.255/32 => AS0"), 1);
        assert_eq!(count("255.255.255.255/32 => AS7"), 1);
        assert_eq!(count("::/0-128 => AS0"), 3);
        assert_eq!(count("::/0-32 => AS0"), 2);
        assert_eq!(
            count("ffff:ffff:ffff:ffff:ffff:ffff:ffff:ffff/128 => AS0"),
            1
        );
    }

    /// The merge's edges: nothing set aside, everything set aside, a
    /// set-aside key that belongs first, and set-aside keys that repeat
    /// one another, the run's last key and keys inside the run.
    #[test]
    fn keys_merge_into_the_run() {
        let sorted = |keys: &[u128]| {
            let mut merge = MergeSort::with_capacity(keys.len());
            for &key in keys {
                merge.push(key);
            }
            merge.finish()
        };
        assert_eq!(sorted(&[]), [0u128; 0]);
        assert_eq!(sorted(&[1, 2, 3]), [1, 2, 3]);
        assert_eq!(sorted(&[3, 2, 1]), [1, 2, 3]);
        assert_eq!(sorted(&[2, 3, 4, 1]), [1, 2, 3, 4]);
        assert_eq!(sorted(&[1, 5, 3, 5, 3, 1, 5]), [1, 3, 5]);
        assert_eq!(sorted(&[7, 7, 7]), [7]);
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
