//! Acceptance gate for the live-churn pipeline: a seeded churn timeline
//! replayed through a real rpki-rtr session must leave the incremental
//! snapshot-chain engine in a state **bit-identical** to batch
//! revalidation of the final VRP set — and at every intermediate epoch,
//! the incremental states must equal a from-scratch rebuild.

use maxlength_rpki::prelude::*;
use testkit::session::LiveSession;

fn world_at(scale: f64) -> (Vec<RouteOrigin>, Vec<Vrp>) {
    let snap = World::generate(GeneratorConfig {
        scale,
        ..GeneratorConfig::default()
    })
    .snapshot(7);
    let vrps = snap.vrps();
    (snap.routes, vrps)
}

/// The headline check at scale 0.05: the whole stack — churn generator →
/// cache server → PDUs over the in-memory wire → router client →
/// incremental revalidation — against batch revalidation of the final
/// set.
#[test]
fn rtr_replayed_timeline_matches_batch_revalidation_at_scale_005() {
    let (routes, vrps) = world_at(0.05);
    assert!(routes.len() > 10_000, "world too small: {}", routes.len());
    let timeline = ChurnGenerator::new(
        vrps.iter().copied(),
        ChurnConfig {
            epochs: 20,
            events_per_epoch: 80,
            profile: ChurnProfile::Mixed,
            ..ChurnConfig::default()
        },
    )
    .generate();
    assert!(timeline.total_events() > 1_000);

    let mut session = LiveSession::new(605, &timeline.initial);
    session.synchronize().expect("initial sync");
    let mut engine = SnapshotChainEngine::new(
        routes.iter().copied(),
        timeline.initial.iter().copied(),
        ChainConfig {
            refreeze_after: 400,
        }, // force refreezes mid-timeline
    );

    for epoch in &timeline.epochs {
        // The epoch rides the wire; the engine consumes what the router
        // actually synchronized, not the generator's lists.
        let before: std::collections::BTreeSet<Vrp> = session.router().vrps().iter().collect();
        session
            .apply_epoch(&epoch.announced, &epoch.withdrawn)
            .expect("session epoch");
        let after: std::collections::BTreeSet<Vrp> = session.router().vrps().iter().collect();
        let announced: Vec<Vrp> = after.difference(&before).copied().collect();
        let withdrawn: Vec<Vrp> = before.difference(&after).copied().collect();
        assert_eq!(announced, epoch.announced, "wire delta == generator delta");
        assert_eq!(withdrawn, epoch.withdrawn);
        engine.apply_epoch(&announced, &withdrawn);
    }
    assert!(engine.summary().refreezes > 0, "chain must have refrozen");

    // Router, timeline arithmetic, and engine agree on the final world.
    let final_set: Vec<Vrp> = session.router().vrps().iter().collect();
    assert_eq!(final_set, timeline.final_vrps());
    assert_eq!(final_set, engine.current_vrps());

    // Bit-identical states: batch-revalidate the final set from scratch
    // (both the frozen single-shot and the parallel summary).
    let fresh: VrpIndex = final_set.iter().copied().collect();
    let frozen = fresh.freeze();
    let states = engine.states();
    assert_eq!(states.len(), routes.len());
    for (route, state) in &states {
        assert_eq!(*state, frozen.validate(route), "{route}");
    }
    let summary = frozen.validate_table_par(&routes);
    assert_eq!(
        summary.valid,
        states
            .iter()
            .filter(|(_, s)| *s == ValidationState::Valid)
            .count()
    );
    assert_eq!(
        summary.invalid,
        states
            .iter()
            .filter(|(_, s)| *s == ValidationState::Invalid)
            .count()
    );
    assert_eq!(summary.total(), states.len());
}

/// Every named profile, smaller world, aggressive refreezing: states are
/// checked against a fresh rebuild after *every* epoch, both families.
///
/// The generated worlds announce no AS0 route, so each profile's table
/// gains one at every prefix the timeline's deltas touch. AS0 is the
/// lowest origin: a changed VRP must revalidate the routes at its own
/// prefix from AS0 up, not from the first origin a world announces.
#[test]
fn every_profile_agrees_with_fresh_rebuild_per_epoch() {
    let (routes, vrps) = world_at(0.01);
    let v6_routes = routes.iter().filter(|r| !r.prefix.is_v4()).count();
    assert!(v6_routes > 0, "need IPv6 coverage in the table");
    for profile in ChurnProfile::ALL {
        let timeline = ChurnGenerator::new(
            vrps.iter().copied(),
            ChurnConfig {
                seed: 0xC0FFEE ^ profile as u64,
                epochs: 6,
                events_per_epoch: 32,
                profile,
            },
        )
        .generate();
        let touched = timeline
            .epochs
            .iter()
            .flat_map(|epoch| epoch.announced.iter().chain(&epoch.withdrawn));
        let mut routes = routes.clone();
        routes.extend(touched.map(|vrp| RouteOrigin::new(vrp.prefix, Asn(0))));
        routes.sort_unstable();
        routes.dedup();
        let mut engine = SnapshotChainEngine::new(
            routes.iter().copied(),
            timeline.initial.iter().copied(),
            ChainConfig { refreeze_after: 48 },
        );
        for (i, epoch) in timeline.epochs.iter().enumerate() {
            engine.apply_epoch(&epoch.announced, &epoch.withdrawn);
            let fresh: VrpIndex = timeline.vrps_at(i).into_iter().collect();
            for (route, state) in engine.states() {
                assert_eq!(
                    state,
                    fresh.validate(&route),
                    "{profile:?} epoch {i}: {route}"
                );
            }
        }
    }
}

/// A router that naps through the whole timeline: once the cache's
/// history window has aged its serial out, catching up goes through a
/// real Cache Reset → Reset Query → full set rebuild — and the rebuilt
/// set still validates bit-identically to the incremental engine that
/// followed every epoch.
#[test]
fn lagging_router_converges_via_cache_reset() {
    use maxlength_rpki::rtr::cache::HISTORY_WINDOW;
    use maxlength_rpki::rtr::pdu::Pdu;
    use maxlength_rpki::rtr::{CacheServer, RouterClient};

    let (routes, vrps) = world_at(0.01);
    let timeline = ChurnGenerator::new(
        vrps.iter().copied(),
        ChurnConfig {
            epochs: HISTORY_WINDOW + 8, // age the napping router out
            events_per_epoch: 24,
            profile: ChurnProfile::Mixed,
            ..ChurnConfig::default()
        },
    )
    .generate();

    let mut cache = CacheServer::new(11, &timeline.initial);
    let mut router = RouterClient::new();
    for pdu in cache.handle(&Pdu::ResetQuery) {
        router.handle(&pdu).unwrap();
    }
    // The cache follows every epoch; the incremental engine does too; the
    // router sleeps.
    let mut engine = SnapshotChainEngine::new(
        routes.iter().copied(),
        timeline.initial.iter().copied(),
        ChainConfig::default(),
    );
    for epoch in &timeline.epochs {
        cache.update_delta(&epoch.announced, &epoch.withdrawn);
        engine.apply_epoch(&epoch.announced, &epoch.withdrawn);
    }
    let final_set = timeline.final_vrps();
    assert_eq!(cache.vrps().copied().collect::<Vec<_>>(), final_set);
    assert_eq!(engine.current_vrps(), final_set);

    // Catch-up: the stale serial must be answered with Cache Reset ...
    let response = cache.handle(&router.query());
    assert_eq!(response, vec![Pdu::CacheReset]);
    for pdu in &response {
        router.handle(pdu).unwrap();
    }
    // ... and the fallback Reset Query delivers the full current set.
    assert_eq!(router.query(), Pdu::ResetQuery);
    for pdu in cache.handle(&Pdu::ResetQuery) {
        router.handle(&pdu).unwrap();
    }
    assert_eq!(router.serial(), cache.serial());
    let rebuilt: Vec<Vrp> = router.vrps().iter().collect();
    assert_eq!(rebuilt, final_set);

    let fresh: VrpIndex = rebuilt.into_iter().collect();
    let frozen = fresh.freeze();
    for (route, state) in engine.states() {
        assert_eq!(state, frozen.validate(&route), "{route}");
    }
}

/// A hand-built dirty epoch lists one VRP as both announced and
/// withdrawn. The timeline arithmetic, the cache and the chain engine
/// must all resolve it announce-then-withdraw — the withdrawal wins —
/// whether the VRP was absent or present before the epoch.
#[test]
fn dirty_epochs_resolve_alike_in_timeline_cache_and_chain() {
    use maxlength_rpki::datasets::ChurnEpoch;
    use maxlength_rpki::rtr::CacheServer;

    let kept: Vrp = "10.0.0.0/8 => AS1".parse().unwrap();
    let v: Vrp = "168.122.0.0/16-24 => AS111".parse().unwrap();
    let routes: Vec<RouteOrigin> = [
        "10.0.0.0/8 => AS1",
        "168.122.0.0/16 => AS111",
        "168.122.0.0/24 => AS111",
    ]
    .iter()
    .map(|s| s.parse().unwrap())
    .collect();
    for initial in [vec![kept], vec![kept, v]] {
        let timeline = ChurnTimeline {
            initial: initial.clone(),
            epochs: vec![ChurnEpoch {
                index: 0,
                announced: vec![v],
                withdrawn: vec![v],
            }],
        };
        let mut cache = CacheServer::new(3, &initial);
        cache.update_delta(&[v], &[v]);
        let mut engine = SnapshotChainEngine::new(
            routes.iter().copied(),
            initial.iter().copied(),
            ChainConfig::default(),
        );
        engine.apply_epoch(&[v], &[v]);

        let present = initial.contains(&v);
        assert_eq!(
            timeline.vrps_at(0),
            vec![kept],
            "timeline, present={present}"
        );
        assert!(cache.vrps().eq([kept].iter()), "cache, present={present}");
        assert_eq!(
            engine.current_vrps(),
            vec![kept],
            "chain, present={present}"
        );
        let fresh: VrpIndex = [kept].into_iter().collect();
        for (route, state) in engine.states() {
            assert_eq!(state, fresh.validate(&route), "{route}, present={present}");
        }
    }
}
