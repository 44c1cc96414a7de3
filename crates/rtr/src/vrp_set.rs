//! The router's VRP table: hash sets of packed keys.
//!
//! A router applies every PDU of every epoch to this table, so its cost
//! per insert/remove is the unit the whole fan-out multiplies. A [`Vrp`]
//! is 32 bytes, most of them the IPv6-sized prefix slot; the table keeps
//! one hash set per address family of keys holding only its fields:
//! IPv4 `[u32; 3]` (address bits, `len << 8 | max_len`, ASN) and IPv6
//! `[u32; 6]` (the address as four big-endian words, then the same two).
//!
//! A fleet's tables are cold, so an operation costs the cache lines it
//! touches: one or two for a hash probe, about four for a B-tree's
//! levels. The keys come from a cache the router does not control, so
//! they are hashed from a per-process seed (`Seeded`). Hash order never
//! shows: [`VrpSet::iter`] sorts the keys, and arrays compare
//! lexicographically, which for these words *is* [`Vrp`]'s order, IPv4
//! first. It yields `Vrp`s **by value**, rebuilt losslessly from the keys.
//!
//! # Staging
//!
//! A Reset response is a whole table. `ResetStaging` appends its keys to
//! one array per family, and the router keeps serving its old set until
//! End of Data. There each of the router's tables is refilled in place:
//! emptied, given room for the new keys plus a quarter, and filled. A
//! table that already has that room keeps its memory, so a re-syncing
//! router fills pages it has already faulted in instead of allocating a
//! fresh table and freeing the old one; one that lacks it grows to
//! exactly that room. The quarter is there so that the deltas which
//! follow do not reallocate the table. A table never shrinks in place:
//! [`VrpSet::clear`], which a flush of expired data calls, frees it. A
//! Duplicate Announcement is still refused on its own
//! PDU, from arrival order alone: equal keys have equal prefixes, so
//! while addresses of one prefix length never decrease, a key can only
//! repeat an entry that arrived since its prefix first did. Per length
//! the staging keeps where its highest-address prefix starts; an
//! announcement above that address is appended unseen, one at it is
//! compared with the entries from there on (in `Vrp` order and in a
//! cache's length-major order, its prefix's own 1–3 records), and
//! anything else — a lower address, a tail past `TAIL_SCAN_MAX`, a
//! withdrawal — moves the arrays into a fresh `VrpSet` for good and is
//! answered by its insert or remove; at End of Data that set is moved in
//! whole. No served order is relied on.

use std::cmp::Ordering;
use std::collections::hash_map::RandomState;
use std::collections::{BTreeSet, HashSet};
use std::fmt;
use std::hash::{BuildHasher, Hasher};
use std::sync::OnceLock;

use rpki_prefix::{Prefix, Prefix4, Prefix6};
use rpki_roa::{Asn, Vrp};

type Key4 = [u32; 3];
type Key6 = [u32; 6];

/// A set of [`Vrp`]s that iterates like `BTreeSet<Vrp>`, at 12 bytes per
/// IPv4 key and 24 per IPv6 key. See the [module docs](self).
#[derive(Clone, Default, PartialEq, Eq)]
pub struct VrpSet {
    v4: HashSet<Key4, Seeded>,
    v6: HashSet<Key6, Seeded>,
}

/// The tables' hasher: a per-process seed, then one multiply–xorshift
/// per 4-byte word of the key.
#[derive(Clone, Copy)]
pub(crate) struct Seeded(u64);

impl Default for Seeded {
    fn default() -> Seeded {
        static SEED: OnceLock<u64> = OnceLock::new();
        Seeded(*SEED.get_or_init(|| RandomState::new().hash_one(0u64)))
    }
}

impl BuildHasher for Seeded {
    type Hasher = Seeded;

    fn build_hasher(&self) -> Seeded {
        *self
    }
}

impl Hasher for Seeded {
    fn write(&mut self, bytes: &[u8]) {
        for word in bytes.chunks_exact(4) {
            let word = u32::from_ne_bytes([word[0], word[1], word[2], word[3]]);
            let h = (self.0 ^ u64::from(word)).wrapping_mul(0x9e37_79b9_7f4a_7c15);
            self.0 = h ^ h >> 32;
        }
    }

    /// The array's length prefix: the same for every key of a family.
    fn write_usize(&mut self, _: usize) {}

    fn finish(&self) -> u64 {
        self.0
    }
}

/// The word both families share ahead of the ASN: `len << 8 | max_len`.
#[inline]
fn lens(vrp: &Vrp) -> u32 {
    u32::from(vrp.prefix.len()) << 8 | u32::from(vrp.max_len)
}

#[inline]
fn key4(prefix: Prefix4, vrp: &Vrp) -> Key4 {
    [prefix.bits(), lens(vrp), vrp.asn.0]
}

#[inline]
fn key6(prefix: Prefix6, vrp: &Vrp) -> Key6 {
    let bits = prefix.bits();
    [
        (bits >> 96) as u32,
        (bits >> 64) as u32,
        (bits >> 32) as u32,
        bits as u32,
        lens(vrp),
        vrp.asn.0,
    ]
}

#[inline]
fn unpack4(&[bits, lens, asn]: &Key4) -> Vrp {
    Vrp {
        prefix: Prefix::V4(Prefix4::new_truncated(bits, (lens >> 8) as u8)),
        max_len: lens as u8,
        asn: Asn(asn),
    }
}

#[inline]
fn unpack6(&[b3, b2, b1, b0, lens, asn]: &Key6) -> Vrp {
    let bits = u128::from(b3) << 96 | u128::from(b2) << 64 | u128::from(b1) << 32 | u128::from(b0);
    Vrp {
        prefix: Prefix::V6(Prefix6::new_truncated(bits, (lens >> 8) as u8)),
        max_len: lens as u8,
        asn: Asn(asn),
    }
}

impl VrpSet {
    /// An empty set.
    pub fn new() -> VrpSet {
        VrpSet::default()
    }

    /// Adds `vrp`; `false` if it was already present.
    pub fn insert(&mut self, vrp: Vrp) -> bool {
        match vrp.prefix {
            Prefix::V4(p) => self.v4.insert(key4(p, &vrp)),
            Prefix::V6(p) => self.v6.insert(key6(p, &vrp)),
        }
    }

    /// Removes `vrp`; `false` if it was not present.
    pub fn remove(&mut self, vrp: &Vrp) -> bool {
        match vrp.prefix {
            Prefix::V4(p) => self.v4.remove(&key4(p, vrp)),
            Prefix::V6(p) => self.v6.remove(&key6(p, vrp)),
        }
    }

    /// `true` if `vrp` is in the set.
    pub fn contains(&self, vrp: &Vrp) -> bool {
        match vrp.prefix {
            Prefix::V4(p) => self.v4.contains(&key4(p, vrp)),
            Prefix::V6(p) => self.v6.contains(&key6(p, vrp)),
        }
    }

    /// The number of VRPs held.
    pub fn len(&self) -> usize {
        self.v4.len() + self.v6.len()
    }

    /// `true` if the set holds nothing.
    pub fn is_empty(&self) -> bool {
        self.v4.is_empty() && self.v6.is_empty()
    }

    /// Removes every VRP, and the tables' memory with them.
    pub fn clear(&mut self) {
        *self = VrpSet::default();
    }

    /// The VRPs in `Vrp` order (IPv4, then IPv6), by value: the keys are
    /// sorted on each call.
    pub fn iter(&self) -> impl Iterator<Item = Vrp> + '_ {
        let mut v4: Vec<Key4> = self.v4.iter().copied().collect();
        let mut v6: Vec<Key6> = self.v6.iter().copied().collect();
        v4.sort_unstable();
        v6.sort_unstable();
        let v4 = v4.into_iter().map(|key| unpack4(&key));
        v4.chain(v6.into_iter().map(|key| unpack6(&key)))
    }
}

/// Empties `table` and fills it with `run`'s distinct keys, with room
/// for a quarter more: a table that already has that room keeps its
/// memory, one that does not grows to exactly that room.
fn refill<const N: usize>(table: &mut HashSet<[u32; N], Seeded>, run: Run<N>) {
    let n = run.keys.len();
    table.clear();
    table.reserve(n + n / 4);
    table.extend(run.keys);
}

/// A Reset response on its way to becoming the table: the packed keys
/// in arrival order, per family. See "Staging" in the [module docs](self).
#[derive(Debug, Clone, Default)]
pub(crate) struct ResetStaging {
    v4: Run<3>,
    v6: Run<6>,
    /// `Some` once an arrival needed a lookup: the arrays moved in here.
    spilled: Option<VrpSet>,
}

/// One family's keys: address words, `len << 8 | max_len`, ASN.
#[derive(Debug, Clone, Default)]
struct Run<const N: usize> {
    keys: Vec<[u32; N]>,
    /// Per prefix length: where its highest address starts (`usize::MAX`: none).
    groups: Vec<usize>,
}

/// Entries compared in place for one arrival; a longer tail is a lookup.
const TAIL_SCAN_MAX: usize = 32;

impl<const N: usize> Run<N> {
    /// Appends `key` if arrival order alone decides whether it is new:
    /// `Some(false)` is a duplicate, `None` needs a lookup.
    fn push(&mut self, key: [u32; N]) -> Option<bool> {
        let len = (key[N - 2] >> 8) as usize;
        if self.groups.len() <= len {
            self.groups.resize(len + 1, usize::MAX);
        }
        let tail = self.keys.get(self.groups[len]..).unwrap_or_default();
        let order = tail.first().map(|first| key[..N - 2].cmp(&first[..N - 2]));
        match order.unwrap_or(Ordering::Greater) {
            Ordering::Less => return None,
            Ordering::Equal if tail.len() > TAIL_SCAN_MAX => return None,
            Ordering::Equal if tail.contains(&key) => return Some(false),
            Ordering::Equal => {}
            Ordering::Greater => self.groups[len] = self.keys.len(),
        }
        self.keys.push(key);
        Some(true)
    }
}

impl ResetStaging {
    /// Adds `vrp`; `false` if this response already announced it.
    pub(crate) fn announce(&mut self, vrp: Vrp) -> bool {
        let pushed = match (&self.spilled, vrp.prefix) {
            (Some(_), _) => None,
            (None, Prefix::V4(p)) => self.v4.push(key4(p, &vrp)),
            (None, Prefix::V6(p)) => self.v6.push(key6(p, &vrp)),
        };
        pushed.unwrap_or_else(|| self.spill().insert(vrp))
    }

    /// The staged set as tables, the arrays (distinct keys, by `push`'s
    /// rule) moved into them on the first call.
    pub(crate) fn spill(&mut self) -> &mut VrpSet {
        let (v4, v6) = (&mut self.v4, &mut self.v6);
        self.spilled.get_or_insert_with(|| {
            let mut set = VrpSet::default();
            refill(&mut set.v4, std::mem::take(v4));
            refill(&mut set.v6, std::mem::take(v6));
            set
        })
    }

    /// End of Data: the staged set replaces `set`, and the staging keeps
    /// no capacity behind. Unspilled arrays refill `set`'s own tables,
    /// in memory the router already holds; a spilled set is moved in.
    pub(crate) fn finish_into(&mut self, set: &mut VrpSet) {
        let ResetStaging { v4, v6, spilled } = std::mem::take(self);
        match spilled {
            Some(spilled) => *set = spilled,
            None => {
                refill(&mut set.v4, v4);
                refill(&mut set.v6, v6);
            }
        }
    }
}

impl fmt::Debug for VrpSet {
    /// Prints the VRPs, as `BTreeSet<Vrp>` would, not the packed keys.
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_set().entries(self.iter()).finish()
    }
}

impl PartialEq<BTreeSet<Vrp>> for VrpSet {
    fn eq(&self, other: &BTreeSet<Vrp>) -> bool {
        self.len() == other.len() && other.iter().all(|vrp| self.contains(vrp))
    }
}

impl PartialEq<VrpSet> for BTreeSet<Vrp> {
    fn eq(&self, other: &VrpSet) -> bool {
        other == self
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn vrp(s: &str) -> Vrp {
        s.parse().unwrap()
    }

    #[test]
    fn behaves_like_a_btree_set_of_vrps() {
        let vrps = [
            vrp("2001:db8::/32-48 => AS2"),
            vrp("10.0.0.0/8-9 => AS5"),
            vrp("::/0 => AS0"),
            vrp("10.0.0.0/8-10 => AS1"),
            vrp("255.255.255.255/32 => AS4294967295"),
            vrp("10.0.0.0/9 => AS1"),
        ];
        let mut set = VrpSet::new();
        let mut model = BTreeSet::new();
        assert!(set.is_empty());
        for v in vrps {
            assert!(set.insert(v));
            assert!(!set.insert(v), "second insert of {v}");
            model.insert(v);
        }
        assert_eq!(set.len(), 6);
        assert!(set.iter().eq(model.iter()), "iteration is in Vrp order");
        assert!(set == model);
        assert!(model == set);
        assert_eq!(format!("{set:?}"), format!("{model:?}"));

        assert!(set.contains(&vrps[0]));
        assert!(set.remove(&vrps[0]));
        assert!(!set.remove(&vrps[0]));
        assert!(!set.contains(&vrps[0]));
        assert!(set != model);
        set.clear();
        assert!(set.is_empty());
        assert_eq!(set.len(), 0);
    }

    /// End of Data into an empty set.
    fn finish(staging: &mut ResetStaging) -> VrpSet {
        let mut set = VrpSet::new();
        staging.finish_into(&mut set);
        set
    }

    fn capacity(s: &ResetStaging) -> usize {
        s.v4.keys.capacity()
            + s.v4.groups.capacity()
            + s.v6.keys.capacity()
            + s.v6.groups.capacity()
    }

    /// The arrays are the response's only copy while it arrives, and a
    /// router keeps the staging for its whole life: whichever way the
    /// arrays end — End of Data or a spill — no allocation stays behind.
    #[test]
    fn staging_keeps_no_capacity_after_end_of_data_or_a_spill() {
        let ordered = [
            vrp("10.0.0.0/8 => AS1"),
            vrp("10.0.0.0/8 => AS2"),
            vrp("11.0.0.0/8 => AS1"),
            vrp("10.0.0.0/16 => AS1"),
            vrp("::/0 => AS0"),
            vrp("ffff:ffff:ffff:ffff:ffff:ffff:ffff:ffff/128 => AS4294967295"),
        ];
        let mut staging = ResetStaging::default();
        for v in ordered {
            assert!(staging.announce(v));
        }
        assert!(!staging.announce(ordered[3]), "trailing group is compared");
        assert!(!staging.announce(ordered[5]), "the all-ones /128 too");
        assert!(staging.spilled.is_none(), "an ordered stream never spills");
        assert!(capacity(&staging) > 0);
        let set = finish(&mut staging);
        assert!(set
            .iter()
            .eq(ordered.iter().copied().collect::<BTreeSet<_>>()));
        assert!(staging.spilled.is_none());
        assert_eq!(capacity(&staging), 0, "after End of Data");

        // A lower address of a length already seen needs a lookup.
        for v in ordered {
            staging.announce(v);
        }
        assert!(staging.announce(vrp("9.0.0.0/8 => AS1")));
        assert!(staging.spilled.is_some());
        assert_eq!(capacity(&staging), 0, "after a spill");
        assert!(!staging.announce(ordered[0]), "the spilled set knows it");
        assert!(staging.spill().remove(&ordered[0]));
        assert!(!staging.spill().remove(&ordered[0]));
        assert_eq!(finish(&mut staging).len(), ordered.len());
        assert_eq!(capacity(&staging), 0);
    }

    /// One prefix under very many origins would make the in-place
    /// comparison quadratic; past `TAIL_SCAN_MAX` it becomes lookups.
    #[test]
    fn an_oversized_tail_spills() {
        let mut staging = ResetStaging::default();
        for asn in 0..=TAIL_SCAN_MAX as u32 {
            assert!(staging.announce(vrp(&format!("10.0.0.0/8 => AS{asn}"))));
            assert!(staging.spilled.is_none());
        }
        assert!(staging.announce(vrp("10.0.0.0/8 => AS99")));
        assert!(staging.spilled.is_some());
        assert!(!staging.announce(vrp("10.0.0.0/8 => AS7")));
        assert_eq!(finish(&mut staging).len(), TAIL_SCAN_MAX + 2);
    }

    #[test]
    fn keys_differing_in_one_field_are_distinct() {
        let base = vrp("10.0.0.0/8-16 => AS1");
        let mut set = VrpSet::new();
        set.insert(base);
        for other in [
            vrp("10.0.0.0/9-16 => AS1"),
            vrp("10.0.0.0/8-17 => AS1"),
            vrp("10.0.0.0/8-16 => AS2"),
            vrp("11.0.0.0/8-16 => AS1"),
        ] {
            assert!(!set.contains(&other), "{other}");
        }
    }

    /// Buckets of 16,384 that the top 14 bits of `Seeded` hash `keys`
    /// into; a random hash of 10k keys fills ≈ 7,500.
    fn spread<const N: usize>(keys: impl Iterator<Item = [u32; N]>) -> usize {
        let seeded = Seeded::default();
        let mut hit = vec![false; 1 << 14];
        for key in keys {
            hit[(seeded.hash_one(key) >> 50) as usize] = true;
        }
        hit.into_iter().filter(|&hit| hit).count()
    }

    fn v4(bits: u32, len: u8, max_len: u8, asn: u32) -> Key4 {
        let prefix = Prefix4::new_truncated(bits, len);
        key4(prefix, &Vrp::new(Prefix::V4(prefix), max_len, Asn(asn)))
    }

    /// The cache picks the keys, so families that vary in one field
    /// only — the shapes a de-aggregating or hostile cache serves — must
    /// still spread over the whole table.
    #[test]
    fn seeded_hashes_spread_keys_that_vary_in_one_field() {
        let deaggregated = (0..10_000u32).map(|i| v4(10 << 24 | i << 8, 24, 24, 64_500));
        let origins = (0..10_000u32).map(|asn| v4(10 << 24, 8, 8, asn));
        let lengths = (0..=32u8)
            .flat_map(|len| (len..=32).map(move |max_len| (len, max_len)))
            .flat_map(|(len, max_len)| (0..18).map(move |asn| v4(0, len, max_len, asn)))
            .take(10_000);
        let v6 = (0..10_000u32).map(|i| {
            let prefix = Prefix6::new_truncated(0x2001_0db8 << 96 | u128::from(i) << 80, 48);
            key6(prefix, &Vrp::new(Prefix::V6(prefix), 48, Asn(64_500)))
        });
        for (family, buckets) in [
            ("consecutive /24s", spread(deaggregated)),
            ("one prefix, 10k origins", spread(origins)),
            ("every (length, maxLength)", spread(lengths)),
            ("consecutive /48s", spread(v6)),
        ] {
            assert!(buckets >= 6_000, "{family}: {buckets} of 16,384 buckets");
        }
    }

    /// Hash order never reaches the output: sets with equal contents,
    /// built in different orders and at different capacities, iterate
    /// and print alike.
    #[test]
    fn insertion_order_and_capacity_never_show() {
        let vrps: Vec<Vrp> = (0..500u32)
            .map(|i| vrp(&format!("10.{}.{}.0/24 => AS{}", i / 7, i % 256, i % 13)))
            .chain((0..100u32).map(|i| vrp(&format!("2001:db8:{i:x}::/48 => AS{i}"))))
            .collect();
        let mut forward = VrpSet::new();
        let mut staging = ResetStaging::default();
        for &v in &vrps {
            forward.insert(v);
            staging.announce(v);
        }
        let mut backward = VrpSet::new();
        for &v in vrps.iter().rev() {
            backward.insert(v);
        }
        let staged = finish(&mut staging);
        let model: BTreeSet<Vrp> = vrps.iter().copied().collect();
        for set in [&backward, &staged] {
            assert!(set.iter().eq(forward.iter()));
            assert_eq!(format!("{set:?}"), format!("{forward:?}"));
            assert!(*set == forward && *set == model);
        }
        assert!(forward.iter().eq(model.iter().copied()));
    }

    fn capacities(set: &VrpSet) -> [usize; 2] {
        [set.v4.capacity(), set.v6.capacity()]
    }

    /// A Reset's tables are built with room for a quarter more keys, so
    /// the deltas after it do not reallocate every router's table; an
    /// emptied table keeps no memory.
    #[test]
    fn reset_tables_leave_room_for_growth_and_clear_frees_them() {
        let (n4, n6) = (7_000u32, 1_750u32);
        let announce = |staging: &mut ResetStaging, range: std::ops::Range<u32>| {
            for i in range {
                assert!(staging.announce(vrp(&format!("10.{}.{}.0/24 => AS1", i >> 8, i & 255))));
            }
        };
        let mut staging = ResetStaging::default();
        announce(&mut staging, 0..n4);
        for i in 0..n6 {
            assert!(staging.announce(vrp(&format!("2001:db8:{i:x}::/48 => AS1"))));
        }
        let mut set = finish(&mut staging);
        let built = capacities(&set);
        assert!(built[0] >= (n4 + n4 / 4) as usize, "{built:?}");
        assert!(built[1] >= (n6 + n6 / 4) as usize, "{built:?}");
        for i in 0..n4 / 5 {
            assert!(set.insert(vrp(&format!("11.{}.{}.0/24 => AS1", i >> 8, i & 255))));
        }
        for i in 0..n6 / 5 {
            assert!(set.insert(vrp(&format!("2001:db9:{i:x}::/48 => AS1"))));
        }
        assert_eq!(capacities(&set), built, "20 % growth reallocated");
        set.clear();
        assert_eq!(capacities(&set), [0, 0]);

        // A spill builds from the keys staged so far, with the same room.
        announce(&mut staging, 0..n4);
        assert!(staging.announce(vrp("9.0.0.0/24 => AS1")));
        let spilled = capacities(staging.spilled.as_ref().unwrap());
        assert!(spilled[0] >= (n4 + n4 / 4) as usize, "{spilled:?}");

        // A router that flushes expired data frees its table.
        let clock = crate::Clock::manual();
        let mut router = crate::RouterClient::new();
        router.set_clock(clock.clone());
        let mut cache =
            crate::CacheServer::new(7, &finish(&mut staging).iter().collect::<Vec<_>>());
        cache.set_timing(crate::pdu::Timing {
            refresh: 4,
            retry: 1,
            expire: 12,
        });
        for pdu in cache.handle(&crate::Pdu::ResetQuery) {
            router.handle(&pdu).unwrap();
        }
        assert_eq!(router.vrps().len(), n4 as usize + 1);
        clock.advance(std::time::Duration::from_secs(13));
        assert!(router.flush_expired());
        assert_eq!(capacities(router.vrps()), [0, 0]);
    }

    /// `n4` IPv4 /24s and `n6` IPv6 /48s from `first` on, as a cache's
    /// Reset response.
    fn reset_response(first: u32, n4: u32, n6: u32) -> Vec<crate::Pdu> {
        let vrps: Vec<Vrp> = (first..first + n4)
            .map(|i| vrp(&format!("10.{}.{}.0/24 => AS1", i >> 8, i & 255)))
            .chain((first..first + n6).map(|i| vrp(&format!("2001:db8:{i:x}::/48 => AS1"))))
            .collect();
        crate::CacheServer::new(7, &vrps).handle(&crate::Pdu::ResetQuery)
    }

    fn synced(response: &[crate::Pdu]) -> crate::RouterClient {
        let mut router = crate::RouterClient::new();
        for pdu in response {
            router.handle(pdu).unwrap();
        }
        router
    }

    /// A router that holds set A and Reset-syncs to set B ends where a
    /// fresh router synced to B does, keeps serving A until End of Data,
    /// and refills the tables it holds: their capacities stay when B
    /// fits, and grow to a fresh build's when B does not.
    #[test]
    fn a_reset_sync_refills_the_held_table() {
        let a = reset_response(0, 4_000, 1_000);
        let mut router = synced(&a);
        let held = capacities(router.vrps());
        let mut old = router.vrps().clone();
        for (first, n4, n6, case) in [
            (2_000, 1_500, 400, "fits"),
            (1_000, 9_000, 2_500, "grows"),
            (500, 2_000, 600, "spills"),
        ] {
            let spill = case == "spills";
            let mut b = reset_response(first, n4, n6);
            if spill {
                // Descending addresses: the second announcement spills.
                let last = b.len() - 1;
                b[1..last].reverse();
            }
            let fresh = synced(&b);
            let before = capacities(router.vrps());
            router.force_reset();
            let (body, end) = b.split_at(b.len() - 1);
            for pdu in body {
                assert!(!router.handle(pdu).unwrap());
            }
            let mut staging = ResetStaging::default();
            for pdu in body {
                if let crate::Pdu::Prefix { vrp, .. } = pdu {
                    staging.announce(*vrp);
                }
            }
            assert_eq!(
                staging.spilled.is_some(),
                spill,
                "the router's arrivals spill"
            );
            assert!(*router.vrps() == old, "the old set stays until End of Data");
            assert!(old.iter().all(|v| router.vrps().contains(&v)));
            assert!(router.handle(&end[0]).unwrap());
            assert!(*router.vrps() == *fresh.vrps());
            assert_eq!(router.vrps().len(), (n4 + n6) as usize);
            let after = capacities(router.vrps());
            let room = [(n4 + n4 / 4) as usize, (n6 + n6 / 4) as usize];
            if case == "fits" {
                assert!(before[0] >= room[0] && before[1] >= room[1]);
                assert_eq!(after, before, "no table reallocated");
                assert_eq!(after, held);
                assert_ne!(after, capacities(fresh.vrps()), "a fresh build is smaller");
            } else {
                // Grown, or moved in from the spill: a fresh build's size.
                assert_eq!(after, capacities(fresh.vrps()), "{case}");
                assert!(after[0] >= room[0] && after[1] >= room[1], "{case}");
                assert!(spill || after[0] > before[0] && after[1] > before[1]);
            }
            old.clone_from(router.vrps());
        }

        // Expired data frees the tables, whatever they held before.
        let clock = crate::Clock::manual();
        router.set_clock(clock.clone());
        router.force_reset();
        for pdu in &a {
            router.handle(pdu).unwrap();
        }
        clock.advance(std::time::Duration::from_secs(
            u64::from(router.timing().expire) + 1,
        ));
        assert!(router.flush_expired());
        assert_eq!(capacities(router.vrps()), [0, 0]);
    }
}
