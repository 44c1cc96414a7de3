use std::collections::BTreeSet;
use std::fmt;
use std::iter::Sum;
use std::ops::{Add, AddAssign};

use rpki_prefix::Prefix;
use rpki_roa::{Asn, Roa, RouteOrigin, Vrp};

use crate::{FrozenVrpIndex, ValidationState};

/// A mutable index over a set of VRPs, answering RFC 6811 queries.
///
/// One ordered set of the VRPs themselves. `Vrp` orders by prefix first
/// and a prefix sorts directly before everything it covers, so the VRPs
/// under a prefix are one contiguous range of the set and the VRPs
/// covering a prefix are found by a few steps backwards from it.
#[derive(Debug, Clone, Default)]
pub struct VrpIndex {
    vrps: BTreeSet<Vrp>,
}

/// The least possible VRP on `prefix`: where its VRPs start in the order.
fn first_on(prefix: Prefix) -> Vrp {
    Vrp {
        prefix,
        max_len: 0,
        asn: Asn(0),
    }
}

/// The greatest possible VRP on `prefix`: everything on it, and on every
/// prefix sorting before it, is at or below this.
fn last_on(prefix: Prefix) -> Vrp {
    Vrp {
        prefix,
        max_len: u8::MAX,
        asn: Asn(u32::MAX),
    }
}

impl VrpIndex {
    /// Creates an empty index.
    pub fn new() -> VrpIndex {
        VrpIndex::default()
    }

    /// Builds an index from the VRPs of a set of ROAs.
    pub fn from_roas<'a>(roas: impl IntoIterator<Item = &'a Roa>) -> VrpIndex {
        roas.into_iter().flat_map(|r| r.vrps()).collect()
    }

    /// The number of distinct VRPs stored.
    pub fn len(&self) -> usize {
        self.vrps.len()
    }

    /// `true` if no VRPs are stored.
    pub fn is_empty(&self) -> bool {
        self.vrps.is_empty()
    }

    /// Inserts a VRP. Returns `false` if an identical VRP was already
    /// present.
    pub fn insert(&mut self, vrp: Vrp) -> bool {
        self.vrps.insert(vrp)
    }

    /// Removes a VRP. Returns `true` if it was present.
    pub fn remove(&mut self, vrp: &Vrp) -> bool {
        self.vrps.remove(vrp)
    }

    /// `true` if exactly this VRP is present.
    pub fn contains(&self, vrp: &Vrp) -> bool {
        self.vrps.contains(vrp)
    }

    /// All VRPs whose prefix covers `prefix` (RFC 6811 "covering set"),
    /// in descending `Vrp` order: longest prefix first.
    ///
    /// Every covering prefix sorts at or before `prefix`, so the walk
    /// steps backwards from there. A VRP met on the way that does not
    /// cover `prefix` sits in a sibling subtree: whatever still covers
    /// `prefix` and sorts before that VRP covers it too, hence covers
    /// their common ancestor, and the walk jumps there — strictly
    /// shorter each time — instead of crossing the subtree.
    pub fn covering(&self, prefix: Prefix) -> impl Iterator<Item = &Vrp> {
        let mut below = self.vrps.range(..=last_on(prefix));
        std::iter::from_fn(move || loop {
            let vrp = below.next_back()?;
            if vrp.prefix.covers(prefix) {
                return Some(vrp);
            }
            let meet = vrp.prefix.common_ancestor(prefix)?;
            below = self.vrps.range(..=last_on(meet));
        })
    }

    /// All VRPs that *match* `route` (cover it, within maxLength, same
    /// origin).
    pub fn matching<'a>(&'a self, route: &'a RouteOrigin) -> impl Iterator<Item = &'a Vrp> {
        self.covering(route.prefix)
            .filter(move |v| v.matches(route))
    }

    /// All VRPs whose prefix is covered by `prefix` — the subtree under a
    /// query prefix, used by the §6 census — ascending.
    pub fn covered_by(&self, prefix: Prefix) -> impl Iterator<Item = &Vrp> {
        self.vrps
            .range(first_on(prefix)..)
            .take_while(move |v| prefix.covers(v.prefix))
    }

    /// Classifies one announcement per RFC 6811.
    pub fn validate(&self, route: &RouteOrigin) -> ValidationState {
        let mut covered = false;
        for vrp in self.covering(route.prefix) {
            if vrp.matches(route) {
                return ValidationState::Valid;
            }
            covered = true;
        }
        if covered {
            ValidationState::Invalid
        } else {
            ValidationState::NotFound
        }
    }

    /// Validates a whole table, tallying outcomes.
    pub fn validate_table<'a>(
        &self,
        routes: impl IntoIterator<Item = &'a RouteOrigin>,
    ) -> ValidationSummary {
        routes
            .into_iter()
            .map(|route| ValidationSummary::of(self.validate(route)))
            .sum()
    }

    /// Iterates over all stored VRPs, ascending.
    pub fn iter(&self) -> impl Iterator<Item = &Vrp> {
        self.vrps.iter()
    }

    /// Compiles the current VRP set into an immutable
    /// [`FrozenVrpIndex`] snapshot: flat, cache-friendly arrays
    /// answering the same queries with identical results (the
    /// [snapshot-equivalence contract](crate::frozen)), shareable
    /// across threads and consumed by the parallel batch APIs.
    pub fn freeze(&self) -> FrozenVrpIndex {
        FrozenVrpIndex::from(self)
    }
}

impl FromIterator<Vrp> for VrpIndex {
    fn from_iter<I: IntoIterator<Item = Vrp>>(iter: I) -> VrpIndex {
        VrpIndex {
            vrps: iter.into_iter().collect(),
        }
    }
}

impl Extend<Vrp> for VrpIndex {
    fn extend<I: IntoIterator<Item = Vrp>>(&mut self, iter: I) {
        self.vrps.extend(iter);
    }
}

/// Outcome counts from validating a BGP table against a [`VrpIndex`].
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct ValidationSummary {
    /// Announcements with a matching VRP.
    pub valid: usize,
    /// Announcements covered but never matched.
    pub invalid: usize,
    /// Announcements no VRP covers.
    pub not_found: usize,
}

impl ValidationSummary {
    /// The summary of a single outcome: one tally of 1, the others 0.
    /// The unit the batch paths fold over.
    pub fn of(state: ValidationState) -> ValidationSummary {
        let mut summary = ValidationSummary::default();
        match state {
            ValidationState::Valid => summary.valid = 1,
            ValidationState::Invalid => summary.invalid = 1,
            ValidationState::NotFound => summary.not_found = 1,
        }
        summary
    }

    /// Total announcements validated.
    pub fn total(&self) -> usize {
        self.valid + self.invalid + self.not_found
    }

    /// The fraction of announcements that are Valid — the "7.6% of
    /// (prefix, origin AS) pairs match a ROA" statistic of §2.
    pub fn valid_fraction(&self) -> f64 {
        if self.total() == 0 {
            0.0
        } else {
            self.valid as f64 / self.total() as f64
        }
    }

    /// The fraction of announcements that are Invalid — the share a
    /// ROV-enforcing router would drop.
    pub fn invalid_fraction(&self) -> f64 {
        if self.total() == 0 {
            0.0
        } else {
            self.invalid as f64 / self.total() as f64
        }
    }

    /// The fraction of announcements the RPKI says nothing about.
    pub fn not_found_fraction(&self) -> f64 {
        if self.total() == 0 {
            0.0
        } else {
            self.not_found as f64 / self.total() as f64
        }
    }
}

impl Add for ValidationSummary {
    type Output = ValidationSummary;

    fn add(mut self, rhs: ValidationSummary) -> ValidationSummary {
        self += rhs;
        self
    }
}

impl AddAssign for ValidationSummary {
    fn add_assign(&mut self, rhs: ValidationSummary) {
        self.valid += rhs.valid;
        self.invalid += rhs.invalid;
        self.not_found += rhs.not_found;
    }
}

impl Sum for ValidationSummary {
    fn sum<I: Iterator<Item = ValidationSummary>>(iter: I) -> ValidationSummary {
        iter.fold(ValidationSummary::default(), Add::add)
    }
}

impl fmt::Display for ValidationSummary {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "valid: {}, invalid: {}, notfound: {} (total {})",
            self.valid,
            self.invalid,
            self.not_found,
            self.total()
        )
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

    fn bu_index() -> VrpIndex {
        // The paper's §2 example: ROA (168.122.0.0/16, AS 111).
        [vrp("168.122.0.0/16 => AS111")].into_iter().collect()
    }

    #[test]
    fn section2_validation_states() {
        let index = bu_index();
        // AS 111 originates its prefix: Valid.
        assert_eq!(
            index.validate(&route("168.122.0.0/16 => AS111")),
            ValidationState::Valid
        );
        // AS 111 de-aggregates without a matching ROA: Invalid (§3).
        assert_eq!(
            index.validate(&route("168.122.225.0/24 => AS111")),
            ValidationState::Invalid
        );
        // Subprefix hijack: Invalid (§2).
        assert_eq!(
            index.validate(&route("168.122.0.0/24 => AS666")),
            ValidationState::Invalid
        );
        // Prefix hijack of the exact prefix: Invalid.
        assert_eq!(
            index.validate(&route("168.122.0.0/16 => AS666")),
            ValidationState::Invalid
        );
        // Unrelated prefix: NotFound.
        assert_eq!(
            index.validate(&route("8.8.8.0/24 => AS15169")),
            ValidationState::NotFound
        );
    }

    #[test]
    fn section4_maxlength_authorizes_hijack() {
        // With the non-minimal ROA (168.122.0.0/16-24, AS 111), the
        // forged-origin subprefix announcement is Valid — the attack core.
        let index: VrpIndex = [vrp("168.122.0.0/16-24 => AS111")].into_iter().collect();
        assert_eq!(
            index.validate(&route("168.122.0.0/24 => AS111")),
            ValidationState::Valid
        );
        // Beyond maxLength it turns Invalid again.
        assert_eq!(
            index.validate(&route("168.122.0.0/25 => AS111")),
            ValidationState::Invalid
        );
    }

    #[test]
    fn multiple_vrps_same_prefix() {
        let mut index = VrpIndex::new();
        assert!(index.insert(vrp("10.0.0.0/16 => AS1")));
        assert!(index.insert(vrp("10.0.0.0/16 => AS2")));
        assert!(!index.insert(vrp("10.0.0.0/16 => AS1"))); // duplicate
        assert_eq!(index.len(), 2);
        assert_eq!(
            index.validate(&route("10.0.0.0/16 => AS1")),
            ValidationState::Valid
        );
        assert_eq!(
            index.validate(&route("10.0.0.0/16 => AS2")),
            ValidationState::Valid
        );
        assert_eq!(
            index.validate(&route("10.0.0.0/16 => AS3")),
            ValidationState::Invalid
        );
    }

    #[test]
    fn remove_restores_not_found() {
        let mut index = bu_index();
        assert!(index.remove(&vrp("168.122.0.0/16 => AS111")));
        assert!(!index.remove(&vrp("168.122.0.0/16 => AS111")));
        assert!(index.is_empty());
        assert_eq!(
            index.validate(&route("168.122.0.0/16 => AS111")),
            ValidationState::NotFound
        );
    }

    #[test]
    fn covering_and_matching_iterators() {
        let index: VrpIndex = [
            vrp("10.0.0.0/8 => AS1"),
            vrp("10.0.0.0/16-24 => AS1"),
            vrp("10.0.0.0/16 => AS2"),
            vrp("11.0.0.0/8 => AS3"),
        ]
        .into_iter()
        .collect();
        let r = route("10.0.0.0/24 => AS1");
        assert_eq!(index.covering(r.prefix).count(), 3);
        let matching: Vec<_> = index.matching(&r).collect();
        assert_eq!(matching.len(), 1);
        assert_eq!(matching[0].max_len, 24);
    }

    /// Each predecessor the walk meets between two covering prefixes sits
    /// in a sibling subtree; it has to hop over all of them.
    #[test]
    fn covering_hops_over_sibling_subtrees() {
        let index: VrpIndex = [
            vrp("0.0.0.0/0 => AS7"),
            vrp("9.0.0.0/8 => AS6"),
            vrp("10.0.0.0/8 => AS1"),
            vrp("10.0.0.0/16 => AS2"),
            vrp("10.0.1.0/24 => AS3"),
            vrp("10.64.0.0/10 => AS4"),
            vrp("10.64.0.0/16 => AS5"),
            vrp("10.66.0.0/16 => AS8"),
        ]
        .into_iter()
        .collect();
        let covering: Vec<Vrp> = index
            .covering("10.65.0.0/16".parse().unwrap())
            .copied()
            .collect();
        let expect = [
            vrp("10.64.0.0/10 => AS4"),
            vrp("10.0.0.0/8 => AS1"),
            vrp("0.0.0.0/0 => AS7"),
        ];
        assert_eq!(covering, expect);
    }

    #[test]
    fn covered_by_subtree() {
        let index: VrpIndex = [
            vrp("10.0.0.0/8 => AS1"),
            vrp("10.1.0.0/16 => AS1"),
            vrp("11.0.0.0/8 => AS2"),
        ]
        .into_iter()
        .collect();
        let under: Vec<_> = index.covered_by("10.0.0.0/8".parse().unwrap()).collect();
        assert_eq!(under.len(), 2);
    }

    #[test]
    fn validate_table_summary() {
        let index = bu_index();
        let table = [
            route("168.122.0.0/16 => AS111"),
            route("168.122.0.0/24 => AS666"),
            route("8.8.8.0/24 => AS15169"),
            route("9.9.9.0/24 => AS19281"),
        ];
        let summary = index.validate_table(table.iter());
        assert_eq!(summary.valid, 1);
        assert_eq!(summary.invalid, 1);
        assert_eq!(summary.not_found, 2);
        assert_eq!(summary.total(), 4);
        assert!((summary.valid_fraction() - 0.25).abs() < 1e-12);
    }

    #[test]
    fn empty_summary_fraction() {
        assert_eq!(ValidationSummary::default().valid_fraction(), 0.0);
        assert_eq!(ValidationSummary::default().invalid_fraction(), 0.0);
    }

    #[test]
    fn summary_of_single_states() {
        assert_eq!(
            ValidationSummary::of(ValidationState::Valid),
            ValidationSummary {
                valid: 1,
                invalid: 0,
                not_found: 0
            }
        );
        assert_eq!(ValidationSummary::of(ValidationState::Invalid).invalid, 1);
        assert_eq!(
            ValidationSummary::of(ValidationState::NotFound).not_found,
            1
        );
        assert_eq!(ValidationSummary::of(ValidationState::Valid).total(), 1);
    }

    #[test]
    fn summary_arithmetic() {
        let a = ValidationSummary {
            valid: 1,
            invalid: 2,
            not_found: 3,
        };
        let b = ValidationSummary {
            valid: 10,
            invalid: 20,
            not_found: 30,
        };
        let sum = a + b;
        assert_eq!(
            sum,
            ValidationSummary {
                valid: 11,
                invalid: 22,
                not_found: 33
            }
        );
        let mut acc = ValidationSummary::default();
        acc += a;
        acc += b;
        assert_eq!(acc, sum);
        let folded: ValidationSummary = [a, b, ValidationSummary::default()].into_iter().sum();
        assert_eq!(folded, sum);
        assert_eq!(folded.total(), 66);
    }

    #[test]
    fn summary_fractions() {
        let s = ValidationSummary {
            valid: 1,
            invalid: 3,
            not_found: 4,
        };
        assert!((s.valid_fraction() - 0.125).abs() < 1e-12);
        assert!((s.invalid_fraction() - 0.375).abs() < 1e-12);
        assert!((s.not_found_fraction() - 0.5).abs() < 1e-12);
        assert_eq!(ValidationSummary::default().not_found_fraction(), 0.0);
    }

    #[test]
    fn from_roas_builds_index() {
        use rpki_roa::RoaPrefix;
        let roa = Roa::new(
            Asn(111),
            vec![
                RoaPrefix::exact("168.122.0.0/16".parse().unwrap()),
                RoaPrefix::exact("168.122.225.0/24".parse().unwrap()),
            ],
        )
        .unwrap();
        let index = VrpIndex::from_roas([&roa]);
        assert_eq!(index.len(), 2);
        // The minimal ROA stops the forged-origin subprefix hijack (§5).
        assert_eq!(
            index.validate(&route("168.122.0.0/24 => AS111")),
            ValidationState::Invalid
        );
        // But still authorizes the de-aggregated /24.
        assert_eq!(
            index.validate(&route("168.122.225.0/24 => AS111")),
            ValidationState::Valid
        );
    }

    #[test]
    fn cross_family_isolation() {
        let index: VrpIndex = [vrp("10.0.0.0/8 => AS1"), vrp("2001:db8::/32 => AS1")]
            .into_iter()
            .collect();
        assert_eq!(
            index.validate(&route("2001:db8::/48 => AS1")),
            ValidationState::Invalid
        );
        assert_eq!(
            index.validate(&route("2001:db8::/32 => AS1")),
            ValidationState::Valid
        );
        assert_eq!(
            index.validate(&route("2002::/16 => AS1")),
            ValidationState::NotFound
        );
    }

    #[test]
    fn iter_yields_all() {
        let vrps = [
            vrp("10.0.0.0/8 => AS1"),
            vrp("10.0.0.0/16 => AS2"),
            vrp("2001:db8::/32 => AS3"),
        ];
        let index: VrpIndex = vrps.into_iter().collect();
        assert_eq!(index.iter().count(), 3);
    }
}
