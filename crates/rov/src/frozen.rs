//! Frozen, immutable VRP snapshots: the read-optimized half of the
//! builder→freeze pipeline.
//!
//! [`VrpIndex`] is a B-tree set built for cheap
//! mutation; each of its covering queries is a handful of tree descents.
//! Once a validation run's VRP set is final, the paper's workloads —
//! RFC 6811 table validation (§2), the §6 census, the §4/§5 sampled
//! attacks — issue millions of *read-only* `validate` calls against it.
//! [`FrozenVrpIndex`] compiles the set into flat, cache-friendly arrays:
//!
//! * per address family, prefix nodes are grouped **by prefix length**,
//!   each group holding its node keys in one sorted array — a covering
//!   query is at most one binary search per populated length (≤ 33 for
//!   IPv4, and in practice a handful, each in one contiguous array);
//! * each node's VRPs live in one contiguous span of a single flat
//!   array, sorted by origin AS;
//! * each node also carries a precomputed `(origin, max maxLength)`
//!   table, so `validate` answers the match question per origin with a
//!   binary search and a single comparison — no per-VRP scan.
//!
//! The structure is immutable and wholly owned, hence `Send + Sync` and
//! cheap to share as an `Arc<FrozenVrpIndex>` across worker threads;
//! [`FrozenVrpIndex::validate_table_par`] does exactly that internally.
//!
//! # Snapshot-equivalence contract
//!
//! For any `index: VrpIndex` and `frozen = index.freeze()`:
//!
//! * `frozen.validate(r) == index.validate(r)` for every route `r`;
//! * `frozen.covering(p)` / `frozen.iter()` yield exactly the same VRP
//!   *sets* as the builder's iterators (frozen iteration order is
//!   `(prefix length, prefix bits, origin, maxLength)` within a family,
//!   IPv4 before IPv6);
//! * `frozen.validate_table(t)` and `frozen.validate_table_par(t)` equal
//!   the sum of [`ValidationSummary::of`] over `index.validate` on `t` —
//!   the parallel reduction sums the integer counters, which is
//!   associative, so parallelism cannot change the result.
//!
//! The contract is property-tested in `tests/props.rs` against random
//! IPv4 + IPv6 VRP sets.

use rayon::prelude::*;

use rpki_prefix::{Afi, Prefix};
use rpki_roa::{Asn, RouteOrigin, Vrp};

use crate::{ValidationState, ValidationSummary, VrpIndex};

/// One `(origin, max maxLength)` row of a node's match table.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
struct OriginMax {
    asn: Asn,
    max_len: u8,
}

/// The nodes of one prefix length, keys sorted ascending.
#[derive(Debug, Clone, Default)]
struct LengthGroup {
    len: u8,
    /// Left-aligned prefix bits (`Prefix::bits_u128` keys), sorted.
    keys: Vec<u128>,
    /// Per node: span into [`FrozenFamily::vrps`].
    vrp_spans: Vec<(u32, u32)>,
    /// Per node: span into [`FrozenFamily::origins`].
    origin_spans: Vec<(u32, u32)>,
}

/// The bucket filter's granularity ceiling: routes are bucketed by up
/// to this many of their top address bits (the actual width adapts to
/// the node count, see [`FrozenFamily::build_buckets`]).
const MAX_BUCKET_BITS: u32 = 16;

/// One address family's frozen arrays.
#[derive(Debug, Clone, Default)]
struct FrozenFamily {
    /// Populated prefix lengths, ascending.
    groups: Vec<LengthGroup>,
    /// All VRPs, grouped by node, sorted by `(origin, maxLength)` within
    /// a node.
    vrps: Vec<Vrp>,
    /// Per-node origin match tables, sorted by origin within a node.
    origins: Vec<OriginMax>,
    /// Per top-`bucket_bits`-bits bucket: a bitmask of the group indices
    /// whose nodes could cover a route in that bucket. One load answers
    /// "which of the ≤ 33 (or ≤ 129) length groups are even worth a
    /// binary search here" — and for the common NotFound route the
    /// answer is `0`, skipping all probes. Empty when the family is
    /// empty.
    buckets: Vec<u64>,
    /// Address bits indexing [`Self::buckets`], sized to the node count
    /// (capped at [`MAX_BUCKET_BITS`]) so freezing a handful of VRPs
    /// costs a handful of bytes, not a fixed half-megabyte table.
    bucket_bits: u32,
    /// Group indices ≥ 64 (beyond the bitmask width); always probed.
    /// Empty in practice — real VRP sets populate far fewer lengths.
    overflow_groups: Vec<u32>,
}

/// The left-aligned mask selecting the top `len` bits.
#[inline]
const fn mask(len: u8) -> u128 {
    if len == 0 {
        0
    } else {
        u128::MAX << (128 - len as u32)
    }
}

impl FrozenFamily {
    fn build(mut vrps: Vec<Vrp>) -> FrozenFamily {
        // Group nodes by (len, bits); order VRPs by (origin, maxLength)
        // within a node so the origin table falls out of one pass.
        vrps.sort_unstable_by_key(|v| (v.prefix.len(), v.prefix.bits_u128(), v.asn, v.max_len));
        vrps.dedup();

        let mut family = FrozenFamily::default();
        for vrp in vrps {
            let len = vrp.prefix.len();
            let key = vrp.prefix.bits_u128();
            if family.groups.last().map(|g| g.len) != Some(len) {
                family.groups.push(LengthGroup {
                    len,
                    ..LengthGroup::default()
                });
            }
            let vrp_at = family.vrps.len() as u32;
            let origin_at = family.origins.len() as u32;
            let group = family.groups.last_mut().expect("just ensured");
            if group.keys.last() != Some(&key) {
                group.keys.push(key);
                group.vrp_spans.push((vrp_at, vrp_at));
                group.origin_spans.push((origin_at, origin_at));
            }
            family.vrps.push(vrp);
            group.vrp_spans.last_mut().expect("node open").1 += 1;
            // Extend the origin table: VRPs of one node arrive sorted by
            // (origin, maxLength), so each origin's last VRP carries its
            // maximum maxLength.
            let node_origin_start = group.origin_spans.last().expect("node open").0 as usize;
            let same_origin = family.origins.len() > node_origin_start
                && family.origins.last().map(|o| o.asn) == Some(vrp.asn);
            if same_origin {
                let last = family.origins.last_mut().expect("non-empty");
                last.max_len = last.max_len.max(vrp.max_len);
            } else {
                family.origins.push(OriginMax {
                    asn: vrp.asn,
                    max_len: vrp.max_len,
                });
                group.origin_spans.last_mut().expect("node open").1 += 1;
            }
        }
        family.build_buckets();
        family
    }

    /// Fills [`Self::buckets`]: for every node, mark its group's bit in
    /// every bucket the node's subtree intersects. The table is sized to
    /// the node count — `2^bits ≈ nodes` — so a 4-VRP freeze builds a
    /// 4-slot filter while a 700K-pair world saturates at
    /// `2^MAX_BUCKET_BITS` entries (512 KiB), which fits L2.
    fn build_buckets(&mut self) {
        if self.vrps.is_empty() {
            return;
        }
        let nodes: usize = self.groups.iter().map(|g| g.keys.len()).sum();
        self.bucket_bits = (usize::BITS - nodes.leading_zeros()).min(MAX_BUCKET_BITS);
        self.buckets = vec![0u64; 1 << self.bucket_bits];
        let shift = 128 - self.bucket_bits;
        for (g, group) in self.groups.iter().enumerate() {
            if g >= 64 {
                self.overflow_groups.push(g as u32);
                continue;
            }
            let bit = 1u64 << g;
            for &key in &group.keys {
                let first = (key >> shift) as usize;
                let last = ((key | !mask(group.len)) >> shift) as usize;
                // A node shorter than the bucket granularity spans many
                // buckets; a longer one lands in exactly one.
                for bucket in &mut self.buckets[first..=last] {
                    *bucket |= bit;
                }
            }
        }
    }

    fn len(&self) -> usize {
        self.vrps.len()
    }

    /// The VRP span of the node exactly at `(len, bits)`, if present.
    #[inline]
    fn node(&self, group: &LengthGroup, bits: u128) -> Option<usize> {
        group.keys.binary_search(&bits).ok()
    }

    /// Probes one group for a node covering the route; updates
    /// `covered` and returns `true` on a full RFC 6811 match.
    #[inline]
    fn probe(
        &self,
        group: &LengthGroup,
        route_bits: u128,
        route_len: u8,
        origin: Asn,
        origin_ok: bool,
        covered: &mut bool,
    ) -> bool {
        let Some(at) = self.node(group, route_bits & mask(group.len)) else {
            return false;
        };
        *covered = true;
        if !origin_ok {
            return false;
        }
        let (lo, hi) = group.origin_spans[at];
        let table = &self.origins[lo as usize..hi as usize];
        match table.binary_search_by_key(&origin, |o| o.asn) {
            Ok(hit) => route_len <= table[hit].max_len,
            Err(_) => false,
        }
    }

    /// RFC 6811 classification against this family.
    fn validate(&self, route: &RouteOrigin) -> ValidationState {
        if self.vrps.is_empty() {
            return ValidationState::NotFound;
        }
        let route_len = route.prefix.len();
        let route_bits = route.prefix.bits_u128();
        let origin_ok = !route.origin.is_zero();
        let mut covered = false;
        // One load tells us which length groups can possibly cover this
        // route; for the typical NotFound route the mask is zero and no
        // group is probed at all.
        let mut pending = self.buckets[(route_bits >> (128 - self.bucket_bits)) as usize];
        while pending != 0 {
            let g = pending.trailing_zeros() as usize;
            pending &= pending - 1;
            let group = &self.groups[g];
            if group.len > route_len {
                break; // groups are length-ascending: nothing shorter left
            }
            if self.probe(
                group,
                route_bits,
                route_len,
                route.origin,
                origin_ok,
                &mut covered,
            ) {
                return ValidationState::Valid;
            }
        }
        for &g in &self.overflow_groups {
            let group = &self.groups[g as usize];
            if group.len > route_len {
                break;
            }
            if self.probe(
                group,
                route_bits,
                route_len,
                route.origin,
                origin_ok,
                &mut covered,
            ) {
                return ValidationState::Valid;
            }
        }
        if covered {
            ValidationState::Invalid
        } else {
            ValidationState::NotFound
        }
    }

    /// VRPs at nodes covering `prefix`, shortest prefix first.
    fn covering(&self, prefix: Prefix) -> impl Iterator<Item = &Vrp> {
        let q_len = prefix.len();
        let q_bits = prefix.bits_u128();
        self.groups
            .iter()
            .take_while(move |g| g.len <= q_len)
            .filter_map(move |g| {
                let at = self.node(g, q_bits & mask(g.len))?;
                let (lo, hi) = g.vrp_spans[at];
                Some(&self.vrps[lo as usize..hi as usize])
            })
            .flatten()
    }
}

/// An immutable, `Arc`-shareable compilation of a VRP set into flat
/// arrays, answering the [`VrpIndex`] read API without
/// pointer chasing. See the [module docs](self) for the layout and the
/// snapshot-equivalence contract.
///
/// ```
/// use rpki_rov::{FrozenVrpIndex, ValidationState, VrpIndex};
///
/// let index: VrpIndex = ["168.122.0.0/16 => AS111".parse().unwrap()]
///     .into_iter()
///     .collect();
/// let frozen = index.freeze();
///
/// assert_eq!(
///     frozen.validate(&"168.122.0.0/24 => AS666".parse().unwrap()),
///     ValidationState::Invalid,
/// );
/// # assert_eq!(frozen.len(), 1);
/// ```
#[derive(Debug, Clone, Default)]
pub struct FrozenVrpIndex {
    v4: FrozenFamily,
    v6: FrozenFamily,
}

impl FrozenVrpIndex {
    /// Compiles a snapshot from any VRP collection (duplicates collapse,
    /// exactly as [`VrpIndex::insert`] would collapse them).
    pub fn from_vrps(vrps: impl IntoIterator<Item = Vrp>) -> FrozenVrpIndex {
        let (v4, v6): (Vec<Vrp>, Vec<Vrp>) = vrps.into_iter().partition(|v| v.prefix.is_v4());
        FrozenVrpIndex {
            v4: FrozenFamily::build(v4),
            v6: FrozenFamily::build(v6),
        }
    }

    /// The number of distinct VRPs stored.
    pub fn len(&self) -> usize {
        self.v4.len() + self.v6.len()
    }

    /// `true` if no VRPs are stored.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// The number of VRPs in one address family.
    pub fn len_for(&self, afi: Afi) -> usize {
        match afi {
            Afi::V4 => self.v4.len(),
            Afi::V6 => self.v6.len(),
        }
    }

    fn family(&self, prefix: Prefix) -> &FrozenFamily {
        match prefix {
            Prefix::V4(_) => &self.v4,
            Prefix::V6(_) => &self.v6,
        }
    }

    /// All stored VRPs: IPv4 then IPv6, each family in
    /// `(prefix length, prefix bits, origin, maxLength)` order.
    pub fn iter(&self) -> impl Iterator<Item = &Vrp> {
        self.v4.vrps.iter().chain(self.v6.vrps.iter())
    }

    /// All VRPs whose prefix covers `prefix` (RFC 6811 "covering set"),
    /// shortest prefix first.
    pub fn covering(&self, prefix: Prefix) -> impl Iterator<Item = &Vrp> {
        self.family(prefix).covering(prefix)
    }

    /// Classifies one announcement per RFC 6811.
    pub fn validate(&self, route: &RouteOrigin) -> ValidationState {
        self.family(route.prefix).validate(route)
    }

    /// Validates a whole table sequentially, tallying outcomes. It stays
    /// beside [`Self::validate_table_par`] until the two merge into one
    /// whole-table validator that takes a thread count.
    ///
    /// A test hook: `tests/frozen_parity.rs` and `tests/props.rs` check it
    /// against the builder.
    pub fn validate_table<'a>(
        &self,
        routes: impl IntoIterator<Item = &'a RouteOrigin>,
    ) -> ValidationSummary {
        routes
            .into_iter()
            .map(|route| ValidationSummary::of(self.validate(route)))
            .sum()
    }

    /// Validates a whole table across worker threads, tallying outcomes.
    ///
    /// The reduction sums per-chunk [`ValidationSummary`] counters —
    /// associative integer addition — so the result is **identical** to
    /// [`Self::validate_table`] regardless of thread count
    /// (`RAYON_NUM_THREADS` honored).
    pub fn validate_table_par(&self, routes: &[RouteOrigin]) -> ValidationSummary {
        routes
            .par_iter()
            .map(|route| ValidationSummary::of(self.validate(route)))
            .sum()
    }
}

impl FromIterator<Vrp> for FrozenVrpIndex {
    fn from_iter<I: IntoIterator<Item = Vrp>>(iter: I) -> FrozenVrpIndex {
        FrozenVrpIndex::from_vrps(iter)
    }
}

impl From<&VrpIndex> for FrozenVrpIndex {
    fn from(index: &VrpIndex) -> FrozenVrpIndex {
        FrozenVrpIndex::from_vrps(index.iter().copied())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn vrp(s: &str) -> Vrp {
        s.parse().unwrap()
    }

    fn route(s: &str) -> RouteOrigin {
        s.parse().unwrap()
    }

    fn frozen(vrps: &[&str]) -> FrozenVrpIndex {
        vrps.iter().map(|s| vrp(s)).collect()
    }

    #[test]
    fn section2_states_match_builder() {
        let f = frozen(&["168.122.0.0/16 => AS111"]);
        assert_eq!(
            f.validate(&route("168.122.0.0/16 => AS111")),
            ValidationState::Valid
        );
        assert_eq!(
            f.validate(&route("168.122.225.0/24 => AS111")),
            ValidationState::Invalid
        );
        assert_eq!(
            f.validate(&route("168.122.0.0/24 => AS666")),
            ValidationState::Invalid
        );
        assert_eq!(
            f.validate(&route("8.8.8.0/24 => AS15169")),
            ValidationState::NotFound
        );
    }

    #[test]
    fn maxlength_window_and_origin_table() {
        // Two VRPs for one (prefix, origin): the origin table keeps the
        // wider maxLength.
        let f = frozen(&["10.0.0.0/16-20 => AS1", "10.0.0.0/16-24 => AS1"]);
        assert_eq!(f.len(), 2);
        assert_eq!(
            f.validate(&route("10.0.0.0/24 => AS1")),
            ValidationState::Valid
        );
        assert_eq!(
            f.validate(&route("10.0.0.0/25 => AS1")),
            ValidationState::Invalid
        );
        assert_eq!(
            f.validate(&route("10.0.0.0/24 => AS2")),
            ValidationState::Invalid
        );
    }

    #[test]
    fn as0_covers_but_never_matches() {
        let f = frozen(&["10.0.0.0/8-24 => AS0"]);
        assert_eq!(
            f.validate(&route("10.0.0.0/16 => AS0")),
            ValidationState::Invalid
        );
    }

    #[test]
    fn duplicates_collapse_like_builder() {
        let f: FrozenVrpIndex = [
            vrp("10.0.0.0/16 => AS1"),
            vrp("10.0.0.0/16 => AS1"),
            vrp("10.0.0.0/16 => AS2"),
        ]
        .into_iter()
        .collect();
        assert_eq!(f.len(), 2);
    }

    #[test]
    fn covering_is_shortest_first() {
        let f = frozen(&[
            "10.0.0.0/8 => AS1",
            "10.0.0.0/16-24 => AS1",
            "10.0.0.0/16 => AS2",
            "10.1.0.0/16 => AS1",
            "11.0.0.0/8 => AS3",
        ]);
        let q: Prefix = "10.0.0.0/24".parse().unwrap();
        let covering: Vec<&Vrp> = f.covering(q).collect();
        assert_eq!(covering.len(), 3);
        // Shortest first.
        assert!(covering
            .windows(2)
            .all(|w| w[0].prefix.len() <= w[1].prefix.len()));
    }

    #[test]
    fn families_are_disjoint() {
        let f = frozen(&["10.0.0.0/8 => AS1", "2001:db8::/32 => AS1"]);
        assert_eq!(f.len_for(Afi::V4), 1);
        assert_eq!(f.len_for(Afi::V6), 1);
        assert_eq!(
            f.validate(&route("2001:db8::/48 => AS1")),
            ValidationState::Invalid
        );
        assert_eq!(
            f.validate(&route("2002::/16 => AS1")),
            ValidationState::NotFound
        );
    }

    #[test]
    fn empty_index() {
        let f = FrozenVrpIndex::default();
        assert!(f.is_empty());
        assert_eq!(
            f.validate(&route("10.0.0.0/8 => AS1")),
            ValidationState::NotFound
        );
        assert_eq!(f.covering("10.0.0.0/8".parse().unwrap()).count(), 0);
    }

    #[test]
    fn default_route_node_is_reachable() {
        // len == 0 exercises the mask(0) edge.
        let f = frozen(&["0.0.0.0/0-8 => AS1"]);
        assert_eq!(
            f.validate(&route("10.0.0.0/8 => AS1")),
            ValidationState::Valid
        );
        assert_eq!(f.covering("10.0.0.0/8".parse().unwrap()).count(), 1);
    }

    #[test]
    fn table_par_equals_sequential() {
        let f = frozen(&[
            "168.122.0.0/16 => AS111",
            "10.0.0.0/8-12 => AS1",
            "2001:db8::/32-40 => AS2",
        ]);
        let routes: Vec<RouteOrigin> = [
            "168.122.0.0/16 => AS111",
            "168.122.0.0/24 => AS666",
            "10.0.0.0/12 => AS1",
            "10.0.0.0/13 => AS1",
            "2001:db8::/40 => AS2",
            "8.8.8.0/24 => AS15169",
        ]
        .iter()
        .map(|s| s.parse().unwrap())
        .collect();
        let seq = f.validate_table(routes.iter());
        let par = f.validate_table_par(&routes);
        assert_eq!(seq, par);
        assert_eq!(seq.total(), routes.len());
        assert_eq!(seq.valid, 3);
        assert_eq!(seq.invalid, 2);
        assert_eq!(seq.not_found, 1);
    }

    #[test]
    fn freeze_round_trips_through_builder() {
        let vrps = [
            vrp("10.0.0.0/8 => AS1"),
            vrp("10.0.0.0/16-24 => AS2"),
            vrp("2001:db8::/32 => AS3"),
        ];
        let index: VrpIndex = vrps.into_iter().collect();
        let frozen = index.freeze();
        assert_eq!(frozen.len(), index.len());
        let mut a: Vec<Vrp> = frozen.iter().copied().collect();
        let mut b: Vec<Vrp> = index.iter().copied().collect();
        a.sort_unstable();
        b.sort_unstable();
        assert_eq!(a, b);
    }
}
