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
