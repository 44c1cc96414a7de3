//! The router's VRP table: a sorted set of packed keys.
//!
//! A router applies every PDU of every epoch to this table, so its cost
//! per insert/remove is the unit the whole fan-out multiplies. A
//! [`Vrp`] is 40 bytes, most of them the IPv6-sized prefix slot and
//! enum padding; the table instead keeps one `BTreeSet` per address
//! family whose keys hold exactly the fields that family has:
//!
//! * IPv4 — `[u32; 3]`: address bits, `len << 8 | max_len`, ASN
//!   (12 bytes: the eleven keys of a B-tree node span 132 bytes where
//!   eleven `Vrp`s span 440);
//! * IPv6 — `[u32; 6]`: the address bits as four big-endian words, then
//!   the same two words (24 bytes).
//!
//! Arrays compare lexicographically, which for these words *is*
//! [`Vrp`]'s derived order — prefix bits, prefix length, maxLength, ASN
//! — and every IPv4 VRP sorts before every IPv6 one, so iterating the
//! IPv4 set and then the IPv6 set walks the table in `Vrp` order.
//!
//! Since no `Vrp` is stored, [`VrpSet::iter`] yields them **by value**,
//! rebuilt from the keys. Packing is lossless for any `Vrp` (a prefix
//! length and a maxLength are a byte each), so a round trip returns the
//! very value that went in.
//!
//! # Staging
//!
//! A Reset response is a whole table; inserting it key by key into an
//! empty B-tree costs more than building the tree. `ResetStaging`
//! appends the keys to one array per family and makes each tree once, at
//! End of Data (`BTreeSet::from_iter`: a sort of a few ascending runs and
//! a bulk build). A Duplicate Announcement is still refused on its own
//! PDU, from arrival order alone: equal keys have equal prefixes, so
//! while addresses of one prefix length never decrease, a key can only
//! repeat an entry that arrived since its prefix first did. Per length
//! the staging keeps where its highest-address prefix starts; an
//! announcement above that address is appended unseen, one at it is
//! compared with the entries from there on (in `Vrp` order and in a
//! cache's length-major order, its prefix's own 1–3 records), and
//! anything else — a lower address, a tail past `TAIL_SCAN_MAX`, a
//! withdrawal — moves the arrays into a `VrpSet` for good and is answered
//! by its insert or remove. No served order is relied on.

use std::cmp::Ordering;
use std::collections::BTreeSet;
use std::fmt;

use rpki_prefix::{Prefix, Prefix4, Prefix6};
use rpki_roa::{Asn, Vrp};

type Key4 = [u32; 3];
type Key6 = [u32; 6];

/// A set of [`Vrp`]s ordered like `BTreeSet<Vrp>`, at 12 bytes per IPv4
/// entry and 24 per IPv6 entry. See the [module docs](self).
#[derive(Clone, Default, PartialEq, Eq)]
pub struct VrpSet {
    v4: BTreeSet<Key4>,
    v6: BTreeSet<Key6>,
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

    /// Removes every VRP.
    pub fn clear(&mut self) {
        self.v4.clear();
        self.v6.clear();
    }

    /// The VRPs in `Vrp` order (IPv4, then IPv6), by value.
    pub fn iter(&self) -> impl Iterator<Item = Vrp> + '_ {
        self.v4
            .iter()
            .map(unpack4)
            .chain(self.v6.iter().map(unpack6))
    }
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

    /// The staged set as B-trees, the arrays (distinct keys, by `push`'s
    /// rule) moved into them on the first call.
    pub(crate) fn spill(&mut self) -> &mut VrpSet {
        let (v4, v6) = (&mut self.v4, &mut self.v6);
        self.spilled.get_or_insert_with(|| VrpSet {
            v4: std::mem::take(v4).keys.into_iter().collect(),
            v6: std::mem::take(v6).keys.into_iter().collect(),
        })
    }

    /// End of Data: hands the set over and keeps no capacity behind.
    pub(crate) fn finish(&mut self) -> VrpSet {
        self.spill();
        std::mem::take(self).spilled.unwrap_or_default()
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
        self.len() == other.len() && self.iter().eq(other.iter())
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
        let set = staging.finish();
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
        assert_eq!(staging.finish().len(), ordered.len());
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
        assert_eq!(staging.finish().len(), TAIL_SCAN_MAX + 2);
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
}
