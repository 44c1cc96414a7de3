//! Epoch-aware incremental revalidation over a frozen snapshot chain.
//!
//! [`RevalidationEngine`](crate::RevalidationEngine) revalidates against a
//! single mutable index. Under a live churn stream that index is mutated on
//! every rpki-rtr delta while the bulk paths (whole-table summaries, full
//! cache responses) want the frozen flat arrays — so this module keeps the
//! two in one structure: an immutable [`FrozenVrpIndex`] **base** plus a
//! small mutable **delta overlay**, re-frozen ("compacted") once the
//! overlay outgrows a configurable threshold.
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
//!   answers queries, never the answers. Old [`Arc`] snapshot handles stay
//!   valid forever — each is an immutable world frozen at its epoch.
//!
//! The overlay makes each delta O(affected routes) instead of
//! O(table); the refreeze amortizes overlay scan costs so the chain never
//! degrades into the linear-scan regime the paper's §6 worries about.

use std::collections::BTreeSet;
use std::sync::Arc;

use rpki_roa::{RouteOrigin, Vrp};

use crate::route_table::RouteTable;
use crate::{FrozenVrpIndex, StateChange, ValidationState, VrpIndex};

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
    routes: RouteTable,
    /// The frozen bulk of the VRP set.
    base: Arc<FrozenVrpIndex>,
    /// Overlay: VRPs announced since the last freeze (disjoint from the
    /// visible part of `base`). Indexed so covering queries stay sublinear
    /// even before compaction.
    added: VrpIndex,
    /// Overlay: base members masked out by a withdrawal.
    removed: BTreeSet<Vrp>,
    config: ChainConfig,
    epoch: u64,
    summary: ChurnSummary,
    /// Frozen snapshots retired from the base slot, oldest first — the
    /// chain itself. Readers holding an `Arc` keep epochs alive at zero
    /// cost to the engine.
    chain: Vec<Arc<FrozenVrpIndex>>,
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
            routes: RouteTable::default(),
            base: Arc::new(vrps.into_iter().collect()),
            added: VrpIndex::new(),
            removed: BTreeSet::new(),
            config,
            epoch: 0,
            summary: ChurnSummary::default(),
            chain: Vec::new(),
        };
        for route in routes {
            engine.insert_route(route);
        }
        engine
    }

    /// Adds a route, returning its state (duplicates re-report theirs).
    pub fn insert_route(&mut self, route: RouteOrigin) -> ValidationState {
        let view = OverlayView {
            base: &self.base,
            added: &self.added,
            removed: &self.removed,
        };
        self.routes.insert_with(route, |r| view.validate(r))
    }

    /// Number of routes tracked.
    pub fn route_count(&self) -> usize {
        self.routes.len()
    }

    /// Number of VRPs in the logical set.
    pub fn vrp_count(&self) -> usize {
        self.base.len() - self.removed.len() + self.added.len()
    }

    /// The logical VRP set, sorted.
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

    /// The current state of a route, if tracked.
    pub fn state_of(&self, route: &RouteOrigin) -> Option<ValidationState> {
        self.routes.state_of(route)
    }

    /// Every tracked route with its state, sorted by route — the exact
    /// comparison payload the differential harness diffs.
    pub fn states(&self) -> Vec<(RouteOrigin, ValidationState)> {
        self.routes.states_sorted()
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

    /// Number of retired snapshots in the chain (the current base is not
    /// counted until a later refreeze retires it).
    pub fn chain_len(&self) -> usize {
        self.chain.len()
    }

    /// The current base snapshot. The handle stays valid (and frozen at
    /// this epoch's world) across any number of later deltas.
    pub fn base_snapshot(&self) -> Arc<FrozenVrpIndex> {
        Arc::clone(&self.base)
    }

    /// Classifies a route against the logical set (base minus masked
    /// removals, plus overlay additions) per RFC 6811.
    pub fn validate(&self, route: &RouteOrigin) -> ValidationState {
        OverlayView {
            base: &self.base,
            added: &self.added,
            removed: &self.removed,
        }
        .validate(route)
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
        let affected = self.routes.covered_by(&touched);
        let view = OverlayView {
            base: &self.base,
            added: &self.added,
            removed: &self.removed,
        };
        let changes = self.routes.reapply(&affected, |r| view.validate(r));

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

    /// Compacts the overlay into a fresh frozen base, retiring the old
    /// base onto the chain. Query results are unchanged by construction.
    pub fn refreeze(&mut self) {
        let fresh: FrozenVrpIndex = self.logical_vrps().collect();
        let old = std::mem::replace(&mut self.base, Arc::new(fresh));
        self.chain.push(old);
        self.added = VrpIndex::new();
        self.removed.clear();
    }

    /// Full revalidation of the tracked table from a fresh freeze of the
    /// logical set — what a router without the chain would do every
    /// epoch. Returns the changes found; the resulting states equal the
    /// incremental path's by the snapshot-chain contract.
    pub fn revalidate_all(&mut self) -> Vec<StateChange> {
        let frozen: FrozenVrpIndex = self.logical_vrps().collect();
        let routes = self.routes.all_routes();
        self.routes.reapply(&routes, |r| frozen.validate(r))
    }

    /// Whole-table summary against a fresh freeze of the logical set,
    /// fanned out over worker threads.
    pub fn bulk_summary_par(&self) -> crate::ValidationSummary {
        let frozen: FrozenVrpIndex = self.logical_vrps().collect();
        frozen.validate_table_par(&self.routes.all_routes())
    }
}

/// A borrowed read view of the logical set (base minus masked removals,
/// plus overlay additions): the validator both engines' shared route
/// table calls back into.
struct OverlayView<'a> {
    base: &'a FrozenVrpIndex,
    added: &'a VrpIndex,
    removed: &'a BTreeSet<Vrp>,
}

impl OverlayView<'_> {
    /// Classifies a route against the logical set per RFC 6811.
    fn validate(&self, route: &RouteOrigin) -> ValidationState {
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
            e.state_of(&route("2001:db8::/32 => AS2")),
            Some(ValidationState::Valid)
        );
        assert_eq!(
            e.state_of(&route("10.0.0.0/8 => AS1")),
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
            e.state_of(&route("168.122.0.0/16 => AS111")),
            Some(ValidationState::Valid)
        );
        assert_eq!(
            e.state_of(&route("168.122.225.0/24 => AS111")),
            Some(ValidationState::Invalid)
        );
        assert_eq!(
            e.state_of(&route("10.0.0.0/8 => AS1")),
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
            e.state_of(&route("2001:db8::/32 => AS2")),
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
        assert_eq!(e.chain_len(), 1);
        assert_eq!(e.vrp_count(), 3);
        // States survive the compaction bit for bit.
        assert_eq!(
            e.state_of(&route("10.0.0.0/8 => AS1")),
            Some(ValidationState::Valid)
        );
        assert_eq!(
            e.state_of(&route("168.122.225.0/24 => AS111")),
            Some(ValidationState::Invalid)
        );
        assert_eq!(e.summary().refreezes, 1);
    }

    #[test]
    fn retired_snapshots_stay_frozen() {
        let mut e = engine(1);
        let before = e.base_snapshot();
        assert_eq!(before.len(), 1);
        e.apply_epoch(&[vrp("168.122.0.0/16 => AS111")], &[]);
        // Refroze: the new base has both VRPs, the old handle still one.
        assert_eq!(e.base_snapshot().len(), 2);
        assert_eq!(before.len(), 1);
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
    fn revalidate_all_finds_nothing_after_incremental() {
        let mut e = engine(1024);
        e.apply_epoch(
            &[vrp("168.122.0.0/16 => AS111"), vrp("10.0.0.0/8-16 => AS1")],
            &[],
        );
        assert!(e.revalidate_all().is_empty(), "incremental path was exact");
    }

    #[test]
    fn bulk_summary_matches_states() {
        let mut e = engine(1024);
        e.apply_epoch(&[vrp("168.122.0.0/16 => AS111")], &[]);
        let summary = e.bulk_summary_par();
        let states = e.states();
        assert_eq!(summary.total(), states.len());
        assert_eq!(
            summary.valid,
            states
                .iter()
                .filter(|(_, s)| *s == ValidationState::Valid)
                .count()
        );
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
