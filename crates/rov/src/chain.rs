//! Epoch-aware incremental revalidation over a frozen snapshot chain.
//!
//! RFC 6811 §5: routers MUST revalidate announcements when VRPs change.
//! Revalidating the whole table on every rpki-rtr delta is exactly the
//! router load §6 worries about, so [`SnapshotChainEngine`] revalidates
//! only the *affected set*: when a VRP for prefix `p` appears or
//! disappears, only routes covered by `p` can change state. It validates
//! against an immutable [`FrozenVrpIndex`] **base** plus a small mutable
//! **delta overlay**, re-frozen ("compacted") once the overlay outgrows a
//! configurable threshold — so a delta stays cheap while anything
//! table-sized still reads the frozen flat arrays.
//!
//! # The snapshot-chain contract
//!
//! At every epoch boundary the engine's *logical VRP set* is
//!
//! ```text
//! (base \ removed) ∪ added
//! ```
//!
//! with `removed ⊆ base` and `added ∩ (base \ removed) = ∅`, and the
//! following holds (property-tested in `tests/chain_props.rs` for both
//! address families):
//!
//! * [`SnapshotChainEngine::validate`] equals `VrpIndex::validate` on a
//!   fresh index built from the logical set — for every route, at every
//!   epoch, regardless of where the refreeze boundaries fell;
//! * per-route states tracked through [`SnapshotChainEngine::apply_epoch`]
//!   are identical to rebuilding and revalidating from scratch after each
//!   epoch (the differential harness in `tests/churn_differential.rs`
//!   replays whole rtr sessions against this);
//! * refreezing is *observationally silent*: it changes which structure
//!   answers queries, never the answers. The engine holds one base; the
//!   one it replaces drops.
//!
//! The overlay makes each delta O(affected routes) instead of
//! O(table); the refreeze amortizes overlay scan costs so the chain never
//! degrades into the linear-scan regime the paper's §6 worries about.

use std::collections::{BTreeMap, BTreeSet};

use rpki_roa::{Asn, RouteOrigin, Vrp};

use crate::{FrozenVrpIndex, ValidationState, VrpIndex};

/// A route's state transition produced by a VRP delta.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct StateChange {
    /// The affected route.
    pub route: RouteOrigin,
    /// Its state before the delta.
    pub old: ValidationState,
    /// Its state after the delta.
    pub new: ValidationState,
}

/// Tuning for the snapshot chain.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ChainConfig {
    /// Refreeze the base once the overlay holds this many entries
    /// (additions + masked removals). Small values favour read speed,
    /// large ones favour delta latency.
    pub refreeze_after: usize,
}

impl Default for ChainConfig {
    fn default() -> Self {
        // A cache refresh delta is typically a few hundred records
        // (§6: caches refresh every few minutes); keep reads fast by
        // compacting after roughly two such refreshes.
        ChainConfig {
            refreeze_after: 512,
        }
    }
}

/// What one epoch did to the tracked routes.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct EpochReport {
    /// 0-based epoch number (the engine counts epochs it has applied).
    pub epoch: u64,
    /// Announcements actually applied (duplicates skipped).
    pub announced: usize,
    /// Withdrawals actually applied (absent records skipped).
    pub withdrawn: usize,
    /// Every tracked route whose validation state changed, sorted.
    pub changes: Vec<StateChange>,
    /// `true` if this epoch pushed the overlay past the threshold and the
    /// base was re-frozen.
    pub refroze: bool,
}

/// Running totals across all epochs applied to a chain engine.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct ChurnSummary {
    /// Epochs applied.
    pub epochs: u64,
    /// Delta records applied (effective announcements + withdrawals).
    pub deltas: u64,
    /// Route state transitions observed.
    pub state_changes: u64,
    /// Transitions into `Valid`.
    pub to_valid: u64,
    /// Transitions into `Invalid`.
    pub to_invalid: u64,
    /// Transitions into `NotFound`.
    pub to_not_found: u64,
    /// Times the base snapshot was re-frozen.
    pub refreezes: u64,
}

impl ChurnSummary {
    fn absorb(&mut self, report: &EpochReport) {
        self.epochs += 1;
        self.deltas += (report.announced + report.withdrawn) as u64;
        self.state_changes += report.changes.len() as u64;
        for change in &report.changes {
            match change.new {
                ValidationState::Valid => self.to_valid += 1,
                ValidationState::Invalid => self.to_invalid += 1,
                ValidationState::NotFound => self.to_not_found += 1,
            }
        }
        if report.refroze {
            self.refreezes += 1;
        }
    }
}

/// An indexed route table revalidated incrementally against a frozen
/// snapshot chain (base [`FrozenVrpIndex`] + mutable delta overlay).
#[derive(Debug, Clone)]
pub struct SnapshotChainEngine {
    /// Every tracked route with its state. Routes order by prefix first,
    /// so the routes a prefix covers are one contiguous range.
    routes: BTreeMap<RouteOrigin, ValidationState>,
    /// The frozen bulk of the VRP set.
    base: FrozenVrpIndex,
    /// Overlay: VRPs announced since the last freeze (disjoint from the
    /// visible part of `base`). Indexed so covering queries stay sublinear
    /// even before compaction.
    added: VrpIndex,
    /// Overlay: base members masked out by a withdrawal.
    removed: BTreeSet<Vrp>,
    config: ChainConfig,
    epoch: u64,
    summary: ChurnSummary,
}

impl SnapshotChainEngine {
    /// Creates an engine over a route table and initial VRP set, freezing
    /// the set as the chain's first snapshot and validating every route.
    pub fn new(
        routes: impl IntoIterator<Item = RouteOrigin>,
        vrps: impl IntoIterator<Item = Vrp>,
        config: ChainConfig,
    ) -> SnapshotChainEngine {
        let mut engine = SnapshotChainEngine {
            routes: BTreeMap::new(),
            base: vrps.into_iter().collect(),
            added: VrpIndex::new(),
            removed: BTreeSet::new(),
            config,
            epoch: 0,
            summary: ChurnSummary::default(),
        };
        engine.routes = routes
            .into_iter()
            .map(|r| (r, engine.validate(&r)))
            .collect();
        engine
    }

    /// Number of routes tracked.
    pub fn route_count(&self) -> usize {
        self.routes.len()
    }

    /// Number of VRPs in the logical set.
    pub fn vrp_count(&self) -> usize {
        self.base.len() - self.removed.len() + self.added.len()
    }

    /// The logical VRP set, sorted. A test hook: `tests/churn_differential.rs`,
    /// `tests/chain_props.rs` and `rpki_rtr`'s cache tests compare it with
    /// the router's and the cache's sets.
    pub fn current_vrps(&self) -> Vec<Vrp> {
        let mut out: Vec<Vrp> = self.logical_vrps().collect();
        out.sort_unstable();
        out
    }

    /// The logical VRP set, base members first.
    fn logical_vrps(&self) -> impl Iterator<Item = Vrp> + '_ {
        let visible = self.base.iter().filter(|v| !self.removed.contains(v));
        visible.chain(self.added.iter()).copied()
    }

    /// Every tracked route with its state, sorted by route — the exact
    /// comparison payload the differential harness diffs.
    pub fn states(&self) -> Vec<(RouteOrigin, ValidationState)> {
        self.routes.iter().map(|(r, s)| (*r, *s)).collect()
    }

    /// Epochs applied so far.
    pub fn epoch(&self) -> u64 {
        self.epoch
    }

    /// Running totals across applied epochs.
    pub fn summary(&self) -> ChurnSummary {
        self.summary
    }

    /// Overlay size (entries since the last freeze).
    pub fn overlay_len(&self) -> usize {
        self.added.len() + self.removed.len()
    }

    /// Classifies a route against the logical set (base minus masked
    /// removals, plus overlay additions) per RFC 6811.
    pub fn validate(&self, route: &RouteOrigin) -> ValidationState {
        let mut covered = false;
        for vrp in self.added.covering(route.prefix) {
            if vrp.matches(route) {
                return ValidationState::Valid;
            }
            covered = true;
        }
        for vrp in self.base.covering(route.prefix) {
            if self.removed.contains(vrp) {
                continue;
            }
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

    /// Applies one epoch's delta, revalidating exactly the routes covered
    /// by a changed VRP, then refreezing if the overlay crossed the
    /// threshold. Announcements of present VRPs and withdrawals of absent
    /// ones are skipped (and not counted in the report).
    pub fn apply_epoch(&mut self, announced: &[Vrp], withdrawn: &[Vrp]) -> EpochReport {
        let mut touched: Vec<Vrp> = Vec::new();
        let mut n_announced = 0usize;
        let mut n_withdrawn = 0usize;
        for &vrp in announced {
            if self.announce(vrp) {
                touched.push(vrp);
                n_announced += 1;
            }
        }
        for vrp in withdrawn {
            if self.withdraw(vrp) {
                touched.push(*vrp);
                n_withdrawn += 1;
            }
        }

        // Revalidate the union of affected subtrees once, deduplicated.
        let affected = self.covered_by(&touched);
        let changes = self.reapply(&affected);

        let refroze = self.overlay_len() >= self.config.refreeze_after;
        if refroze {
            self.refreeze();
        }
        let report = EpochReport {
            epoch: self.epoch,
            announced: n_announced,
            withdrawn: n_withdrawn,
            changes,
            refroze,
        };
        self.epoch += 1;
        self.summary.absorb(&report);
        report
    }

    /// Announces one VRP into the overlay. Returns `true` if the logical
    /// set changed.
    fn announce(&mut self, vrp: Vrp) -> bool {
        if self.removed.remove(&vrp) {
            return true; // un-mask a base member
        }
        if self.base_contains(&vrp) {
            return false; // already visible via the base
        }
        self.added.insert(vrp)
    }

    /// Withdraws one VRP via the overlay. Returns `true` if present.
    fn withdraw(&mut self, vrp: &Vrp) -> bool {
        if self.added.remove(vrp) {
            return true;
        }
        if self.base_contains(vrp) && !self.removed.contains(vrp) {
            self.removed.insert(*vrp);
            return true;
        }
        false
    }

    fn base_contains(&self, vrp: &Vrp) -> bool {
        self.base.covering(vrp.prefix).any(|b| b == vrp)
    }

    /// Compacts the overlay into a fresh frozen base, which replaces the
    /// old one. Query results are unchanged by construction.
    pub fn refreeze(&mut self) {
        self.base = self.logical_vrps().collect();
        self.added = VrpIndex::new();
        self.removed.clear();
    }

    /// The tracked routes covered by any of `vrps`' prefixes — the only
    /// routes a delta over those VRPs can re-classify — sorted, and
    /// deduplicated across overlapping subtrees.
    fn covered_by(&self, vrps: &[Vrp]) -> Vec<RouteOrigin> {
        let mut out: Vec<RouteOrigin> = Vec::new();
        for vrp in vrps {
            let under = self.routes.range(RouteOrigin::new(vrp.prefix, Asn(0))..);
            out.extend(
                under
                    .map(|(route, _)| *route)
                    .take_while(|route| vrp.prefix.covers(route.prefix)),
            );
        }
        out.sort_unstable();
        out.dedup();
        out
    }

    /// Re-classifies `affected` against the logical set, updating tracked
    /// states and returning every transition, in `affected`'s order.
    fn reapply(&mut self, affected: &[RouteOrigin]) -> Vec<StateChange> {
        let mut changes = Vec::new();
        for route in affected {
            let new = self.validate(route);
            let state = self.routes.get_mut(route).expect("route tracked");
            if *state != new {
                changes.push(StateChange {
                    route: *route,
                    old: *state,
                    new,
                });
                *state = new;
            }
        }
        changes
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn route(s: &str) -> RouteOrigin {
        s.parse().unwrap()
    }

    fn vrp(s: &str) -> Vrp {
        s.parse().unwrap()
    }

    fn state(e: &SnapshotChainEngine, s: &str) -> Option<ValidationState> {
        e.routes.get(&route(s)).copied()
    }

    fn engine(refreeze_after: usize) -> SnapshotChainEngine {
        SnapshotChainEngine::new(
            [
                route("168.122.0.0/16 => AS111"),
                route("168.122.225.0/24 => AS111"),
                route("10.0.0.0/8 => AS1"),
                route("2001:db8::/32 => AS2"),
            ],
            [vrp("2001:db8::/32 => AS2")],
            ChainConfig { refreeze_after },
        )
    }

    #[test]
    fn initial_states_from_frozen_base() {
        let e = engine(1024);
        assert_eq!(e.route_count(), 4);
        assert_eq!(e.vrp_count(), 1);
        assert_eq!(
            state(&e, "2001:db8::/32 => AS2"),
            Some(ValidationState::Valid)
        );
        assert_eq!(
            state(&e, "10.0.0.0/8 => AS1"),
            Some(ValidationState::NotFound)
        );
    }

    #[test]
    fn epoch_delta_flips_covered_routes_only() {
        let mut e = engine(1024);
        let report = e.apply_epoch(&[vrp("168.122.0.0/16 => AS111")], &[]);
        assert_eq!(report.epoch, 0);
        assert_eq!(report.announced, 1);
        assert_eq!(report.changes.len(), 2); // the /16 and the /24
        assert!(!report.refroze);
        assert_eq!(
            state(&e, "168.122.0.0/16 => AS111"),
            Some(ValidationState::Valid)
        );
        assert_eq!(
            state(&e, "168.122.225.0/24 => AS111"),
            Some(ValidationState::Invalid)
        );
        assert_eq!(
            state(&e, "10.0.0.0/8 => AS1"),
            Some(ValidationState::NotFound)
        );
    }

    #[test]
    fn withdrawal_of_base_member_masks_it() {
        let mut e = engine(1024);
        let report = e.apply_epoch(&[], &[vrp("2001:db8::/32 => AS2")]);
        assert_eq!(report.withdrawn, 1);
        assert_eq!(e.vrp_count(), 0);
        assert_eq!(
            state(&e, "2001:db8::/32 => AS2"),
            Some(ValidationState::NotFound)
        );
        // Re-announcing un-masks instead of duplicating.
        let report = e.apply_epoch(&[vrp("2001:db8::/32 => AS2")], &[]);
        assert_eq!(report.announced, 1);
        assert_eq!(e.vrp_count(), 1);
        assert_eq!(e.overlay_len(), 0, "mask + unmask nets to empty overlay");
    }

    #[test]
    fn duplicate_and_absent_deltas_skipped() {
        let mut e = engine(1024);
        let report = e.apply_epoch(
            &[vrp("2001:db8::/32 => AS2")], // already in base
            &[vrp("99.0.0.0/8 => AS9")],    // never present
        );
        assert_eq!((report.announced, report.withdrawn), (0, 0));
        assert!(report.changes.is_empty());
    }

    #[test]
    fn refreeze_fires_on_threshold_and_preserves_answers() {
        let mut e = engine(2);
        let r1 = e.apply_epoch(&[vrp("168.122.0.0/16 => AS111")], &[]);
        assert!(!r1.refroze);
        let r2 = e.apply_epoch(&[vrp("10.0.0.0/8-16 => AS1")], &[]);
        assert!(r2.refroze, "overlay hit 2 entries");
        assert_eq!(e.overlay_len(), 0);
        assert_eq!(e.base.len(), 3, "the overlay moved into the base");
        assert_eq!(e.vrp_count(), 3);
        // States survive the compaction bit for bit.
        assert_eq!(state(&e, "10.0.0.0/8 => AS1"), Some(ValidationState::Valid));
        assert_eq!(
            state(&e, "168.122.225.0/24 => AS111"),
            Some(ValidationState::Invalid)
        );
        assert_eq!(e.summary().refreezes, 1);
    }

    #[test]
    fn incremental_equals_fresh_rebuild() {
        let mut e = engine(2); // exercise refreezes mid-stream
        let epochs: Vec<(Vec<Vrp>, Vec<Vrp>)> = vec![
            (vec![vrp("168.122.0.0/16 => AS111")], vec![]),
            (
                vec![vrp("168.122.0.0/16-24 => AS111")],
                vec![vrp("2001:db8::/32 => AS2")],
            ),
            (vec![vrp("10.0.0.0/8 => AS7")], vec![]),
            (vec![], vec![vrp("168.122.0.0/16 => AS111")]),
        ];
        for (announced, withdrawn) in epochs {
            e.apply_epoch(&announced, &withdrawn);
            let fresh: VrpIndex = e.current_vrps().into_iter().collect();
            for (route, state) in e.states() {
                assert_eq!(state, fresh.validate(&route), "{route}");
            }
        }
        assert_eq!(e.epoch(), 4);
        assert_eq!(e.summary().epochs, 4);
    }

    #[test]
    fn widening_maxlength_rescues_the_deaggregate() {
        let mut e = engine(1024);
        e.apply_epoch(&[vrp("168.122.0.0/16 => AS111")], &[]);
        let changes = e
            .apply_epoch(&[vrp("168.122.0.0/16-24 => AS111")], &[])
            .changes;
        assert_eq!(changes.len(), 1);
        assert_eq!(changes[0].route, route("168.122.225.0/24 => AS111"));
        assert_eq!(changes[0].old, ValidationState::Invalid);
        assert_eq!(changes[0].new, ValidationState::Valid);
    }

    #[test]
    fn apply_delta_combines_and_dedups() {
        let mut e = engine(1024);
        e.apply_epoch(&[vrp("168.122.0.0/16 => AS111")], &[]);
        // Swap the /16 ROA for a /16-24 in one epoch: the /24 flips
        // Invalid->Valid; the /16 stays Valid (not reported).
        let changes = e
            .apply_epoch(
                &[vrp("168.122.0.0/16-24 => AS111")],
                &[vrp("168.122.0.0/16 => AS111")],
            )
            .changes;
        assert_eq!(changes.len(), 1);
        assert_eq!(changes[0].route, route("168.122.225.0/24 => AS111"));
        assert_eq!(
            state(&e, "168.122.0.0/16 => AS111"),
            Some(ValidationState::Valid)
        );
    }

    #[test]
    fn unrelated_vrp_changes_touch_nothing() {
        let mut e = engine(1024);
        e.apply_epoch(&[vrp("168.122.0.0/16 => AS111")], &[]);
        let report = e.apply_epoch(&[vrp("99.0.0.0/8 => AS9")], &[]);
        assert_eq!(report.announced, 1);
        assert!(report.changes.is_empty());
    }

    #[test]
    fn summary_accumulates_transition_kinds() {
        let mut e = engine(1024);
        e.apply_epoch(&[vrp("168.122.0.0/16 => AS111")], &[]);
        e.apply_epoch(&[], &[vrp("168.122.0.0/16 => AS111")]);
        let s = e.summary();
        assert_eq!(s.epochs, 2);
        assert_eq!(s.deltas, 2);
        assert_eq!(s.to_valid, 1);
        assert_eq!(s.to_invalid, 1);
        assert_eq!(s.to_not_found, 2);
        assert_eq!(s.state_changes, 4);
    }
}
