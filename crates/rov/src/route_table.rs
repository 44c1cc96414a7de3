//! The shared route-table bookkeeping behind both incremental engines.
//!
//! [`RevalidationEngine`](crate::RevalidationEngine) and
//! [`SnapshotChainEngine`](crate::SnapshotChainEngine) differ only in
//! *what they validate against* (a mutable index vs a frozen base plus
//! overlay); the route side — an ordered table of `(route, current
//! state)` with affected-set collection and change-recording
//! revalidation — is identical, so it lives here once.

use std::collections::btree_map::{BTreeMap, Entry};

use rpki_roa::{Asn, RouteOrigin, Vrp};

use crate::{StateChange, ValidationState};

/// A route table tracking each route's validation state. Routes order by
/// prefix first, so the routes a prefix covers are one contiguous range.
#[derive(Debug, Clone, Default)]
pub(crate) struct RouteTable {
    routes: BTreeMap<RouteOrigin, ValidationState>,
}

impl RouteTable {
    /// Adds a route, computing its state with `validate` only when it is
    /// new; duplicates re-report their tracked state.
    pub(crate) fn insert_with(
        &mut self,
        route: RouteOrigin,
        validate: impl FnOnce(&RouteOrigin) -> ValidationState,
    ) -> ValidationState {
        match self.routes.entry(route) {
            Entry::Occupied(tracked) => *tracked.get(),
            Entry::Vacant(slot) => *slot.insert(validate(&route)),
        }
    }

    /// Removes a route. Returns `true` if it was tracked.
    pub(crate) fn remove(&mut self, route: &RouteOrigin) -> bool {
        self.routes.remove(route).is_some()
    }

    /// Number of routes tracked.
    pub(crate) fn len(&self) -> usize {
        self.routes.len()
    }

    /// The tracked state of a route.
    pub(crate) fn state_of(&self, route: &RouteOrigin) -> Option<ValidationState> {
        self.routes.get(route).copied()
    }

    /// Every tracked route, sorted.
    pub(crate) fn all_routes(&self) -> Vec<RouteOrigin> {
        self.routes.keys().copied().collect()
    }

    /// Every tracked route with its state, sorted by route.
    pub(crate) fn states_sorted(&self) -> Vec<(RouteOrigin, ValidationState)> {
        self.routes.iter().map(|(r, s)| (*r, *s)).collect()
    }

    /// The routes covered by any of `vrps`' prefixes — the only routes a
    /// delta over those VRPs can re-classify — sorted, and deduplicated
    /// across overlapping subtrees.
    pub(crate) fn covered_by(&self, vrps: &[Vrp]) -> Vec<RouteOrigin> {
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

    /// Re-classifies `affected` with `validate`, updating tracked states
    /// and returning every transition, in `affected`'s order.
    pub(crate) fn reapply(
        &mut self,
        affected: &[RouteOrigin],
        validate: impl Fn(&RouteOrigin) -> ValidationState,
    ) -> Vec<StateChange> {
        let mut changes = Vec::new();
        for route in affected {
            let new = validate(route);
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
