//! Differential property tests for the churn path: for arbitrary delta
//! timelines over mixed IPv4 + IPv6 sets, the states
//! `SnapshotChainEngine::apply_epoch` accumulates, across every refreeze
//! boundary, must be identical to rebuilding a fresh `VrpIndex` (or
//! scanning the set linearly) and validating every route from scratch at
//! every epoch — and each epoch
//! must report exactly the states it changed.

use std::collections::BTreeSet;

use proptest::prelude::*;
use rpki_prefix::{Prefix, Prefix4, Prefix6};
use rpki_roa::{Asn, RouteOrigin, Vrp};
use rpki_rov::{ChainConfig, SnapshotChainEngine, StateChange, ValidationState, VrpIndex};

/// Small universes in both families so covering/matching cases collide:
/// four free bits, lengths `/0`–`/6` and the host length (whose low bits
/// vary too). ASNs start at AS0, the lowest origin a covered range holds.
fn arb_prefix() -> impl Strategy<Value = Prefix> {
    prop_oneof![
        (0u32..16, 0u8..=7).prop_map(|(b, l)| {
            Prefix::V4(Prefix4::new_truncated(
                b << 26 | b,
                if l == 7 { 32 } else { l },
            ))
        }),
        (0u128..16, 0u8..=7).prop_map(|(b, l)| {
            Prefix::V6(Prefix6::new_truncated(
                b << 122 | b,
                if l == 7 { 128 } else { l },
            ))
        }),
    ]
}

fn arb_vrp() -> impl Strategy<Value = Vrp> {
    (arb_prefix(), 0u8..=4, 0u32..5)
        .prop_map(|(p, extra, asn)| Vrp::new(p, p.len().saturating_add(extra), Asn(asn)))
}

fn arb_route() -> impl Strategy<Value = RouteOrigin> {
    (arb_prefix(), 0u32..5).prop_map(|(p, asn)| RouteOrigin::new(p, Asn(asn)))
}

/// One epoch's worth of raw deltas. Announce/withdraw lists may overlap
/// the current set arbitrarily (duplicates, absent withdrawals) — the
/// engines must treat those as no-ops, exactly like a fresh rebuild does.
fn arb_epoch() -> impl Strategy<Value = (Vec<Vrp>, Vec<Vrp>)> {
    (
        prop::collection::vec(arb_vrp(), 0..8),
        prop::collection::vec(arb_vrp(), 0..8),
    )
}

fn reference_states(vrps: &[Vrp], routes: &[RouteOrigin]) -> Vec<(RouteOrigin, ValidationState)> {
    let index: VrpIndex = vrps.iter().copied().collect();
    let mut out: Vec<(RouteOrigin, ValidationState)> =
        routes.iter().map(|r| (*r, index.validate(r))).collect();
    out.sort_unstable_by_key(|(r, _)| *r);
    out.dedup();
    out
}

/// RFC 6811 by brute force, sharing no structure with the engine.
fn reference_validate(vrps: &BTreeSet<Vrp>, route: &RouteOrigin) -> ValidationState {
    if vrps.iter().any(|v| v.matches(route)) {
        ValidationState::Valid
    } else if vrps.iter().any(|v| v.covers(route)) {
        ValidationState::Invalid
    } else {
        ValidationState::NotFound
    }
}

/// Applies one epoch to the model set with the same net semantics the
/// engine implements: withdrawals of VRPs also announced in the epoch are
/// applied after the announcements (set semantics; order-free because
/// clean epochs never overlap, and dirty ones resolve to "last writer",
/// which here is the same as apply-announce-then-withdraw).
fn model_apply(set: &mut BTreeSet<Vrp>, announced: &[Vrp], withdrawn: &[Vrp]) {
    for v in announced {
        set.insert(*v);
    }
    for v in withdrawn {
        set.remove(v);
    }
}

proptest! {
    #![proptest_config(proptest::test_runner::Config::with_cases(64))]

    #[test]
    fn chain_engine_matches_fresh_rebuild_every_epoch(
        initial in prop::collection::vec(arb_vrp(), 0..30),
        routes in prop::collection::vec(arb_route(), 1..40),
        timeline in prop::collection::vec(arb_epoch(), 1..12),
        refreeze_after in 1usize..12,
    ) {
        let mut model: BTreeSet<Vrp> = initial.iter().copied().collect();
        let mut engine = SnapshotChainEngine::new(
            routes.iter().copied(),
            initial.iter().copied(),
            ChainConfig { refreeze_after },
        );
        for (epoch, (announced, withdrawn)) in timeline.iter().enumerate() {
            engine.apply_epoch(announced, withdrawn);
            model_apply(&mut model, announced, withdrawn);

            // The engine's logical set equals the model set ...
            let current: Vec<Vrp> = model.iter().copied().collect();
            prop_assert_eq!(
                engine.current_vrps(),
                current.clone(),
                "epoch {}: logical set diverged",
                epoch
            );
            // ... and every tracked state equals a from-scratch rebuild.
            prop_assert_eq!(
                engine.states(),
                reference_states(&current, &routes),
                "epoch {} (refreeze_after {})",
                epoch,
                refreeze_after
            );
        }
    }

    /// Incremental revalidation agrees with a linear scan of the applied
    /// set after any interleaving of single VRP announcements and
    /// withdrawals, one per epoch.
    #[test]
    fn incremental_equals_from_scratch(
        routes in prop::collection::btree_set(arb_route(), 1..30),
        deltas in prop::collection::vec((arb_vrp(), any::<bool>()), 0..40),
        refreeze_after in 1usize..12,
    ) {
        let routes: Vec<RouteOrigin> = routes.into_iter().collect();
        let mut engine =
            SnapshotChainEngine::new(routes.iter().copied(), [], ChainConfig { refreeze_after });
        let mut applied: BTreeSet<Vrp> = BTreeSet::new();
        for (i, (vrp, announce)) in deltas.into_iter().enumerate() {
            if announce {
                engine.apply_epoch(&[vrp], &[]);
                applied.insert(vrp);
            } else {
                engine.apply_epoch(&[], &[vrp]);
                applied.remove(&vrp);
            }
            let scan: Vec<(RouteOrigin, ValidationState)> =
                routes.iter().map(|r| (*r, reference_validate(&applied, r))).collect();
            prop_assert_eq!(
                engine.states(),
                scan,
                "delta {} (refreeze_after {})",
                i,
                refreeze_after
            );
        }
    }

    /// Every epoch, refreezing ones included, reports exactly the diff of
    /// `states()` across it: each changed route once, with its old and
    /// new state, sorted by route.
    #[test]
    fn changes_are_exact(
        initial in prop::collection::vec(arb_vrp(), 0..30),
        routes in prop::collection::vec(arb_route(), 1..40),
        timeline in prop::collection::vec(arb_epoch(), 1..12),
        refreeze_after in 1usize..12,
    ) {
        let mut engine = SnapshotChainEngine::new(
            routes.iter().copied(),
            initial.iter().copied(),
            ChainConfig { refreeze_after },
        );
        for (epoch, (announced, withdrawn)) in timeline.iter().enumerate() {
            let before = engine.states();
            let report = engine.apply_epoch(announced, withdrawn);
            let diff: Vec<StateChange> = before
                .into_iter()
                .zip(engine.states())
                .filter(|((_, old), (_, new))| old != new)
                .map(|((route, old), (_, new))| StateChange { route, old, new })
                .collect();
            prop_assert_eq!(
                report.changes,
                diff,
                "epoch {} (refreeze_after {})",
                epoch,
                refreeze_after
            );
        }
    }
}
