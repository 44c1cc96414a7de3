//! The live cache, end to end: a churning RPKI pushed through a real
//! rpki-rtr session into incremental route revalidation.
//!
//! The paper's §6 overhead story plays out over time — caches re-validate
//! the RPKI every few minutes, ROAs come and go, and each delta makes
//! routers revalidate the affected routes. This walkthrough wires all
//! three stages together:
//!
//! 1. a [`ChurnGenerator`] turns a generated world's VRP set into a
//!    deterministic timeline of epochs (issuance, expiry, maxLength
//!    edits, ASN transfers, flaps);
//! 2. a [`LiveSession`] replays each epoch as real RFC 8210 PDUs:
//!    `update_delta` on the cache, Serial Notify down the wire, Serial
//!    Query back, delta response — with a Cache Reset recovery when the
//!    router falls behind the history window;
//! 3. a [`SnapshotChainEngine`] revalidates only the routes each delta
//!    covers, refreezing its base snapshot as the overlay grows.
//!
//! ```sh
//! cargo run --release --example live_cache
//! ```

use maxlength_rpki::prelude::*;

fn main() {
    // --- 1. A small world and a churn timeline over its final VRPs. -----
    let world = World::generate(GeneratorConfig {
        scale: 0.02,
        ..GeneratorConfig::default()
    });
    let snap = world.snapshot(7);
    let timeline = ChurnGenerator::new(
        snap.vrps(),
        ChurnConfig {
            epochs: 12,
            events_per_epoch: 40,
            profile: ChurnProfile::Mixed,
            ..ChurnConfig::default()
        },
    )
    .generate();
    println!(
        "world: {} routes, {} VRPs; timeline: {} epochs, {} delta records",
        snap.routes.len(),
        timeline.initial.len(),
        timeline.epochs.len(),
        timeline.total_events()
    );

    // --- 2. Wire up the session and the incremental engine. -------------
    let mut session = LiveSession::new(2017, &timeline.initial);
    session.synchronize().expect("initial full sync");
    let mut engine = SnapshotChainEngine::new(
        snap.routes.iter().copied(),
        timeline.initial.iter().copied(),
        ChainConfig {
            refreeze_after: 256,
        },
    );

    // --- 3. Replay the timeline through real PDUs. -----------------------
    println!("\nepoch  +vrp  -vrp  wire-pdus  changed routes");
    for epoch in &timeline.epochs {
        let stats = session
            .apply_epoch(&epoch.announced, &epoch.withdrawn)
            .expect("epoch sync");
        let report = engine.apply_epoch(&epoch.announced, &epoch.withdrawn);
        println!(
            "{:>5}  {:>4}  {:>4}  {:>9}  {:>5}{}",
            epoch.index,
            epoch.announced.len(),
            epoch.withdrawn.len(),
            stats.pdus,
            report.changes.len(),
            if report.refroze {
                "   [base refrozen]"
            } else {
                ""
            }
        );
    }

    // --- 4. The differential check: three views, one truth. -------------
    // The router's synchronized set, the timeline's arithmetic, and the
    // chain engine's logical set must all be the same world ...
    let router_set: Vec<Vrp> = session.router().vrps().iter().collect();
    assert_eq!(router_set, timeline.final_vrps());
    assert_eq!(router_set, engine.current_vrps());
    // ... and batch-revalidating that world from scratch reproduces every
    // incrementally tracked state.
    let fresh: VrpIndex = router_set.iter().copied().collect();
    let frozen = fresh.freeze();
    for (route, state) in engine.states() {
        assert_eq!(state, frozen.validate(&route), "{route}");
    }

    let s = engine.summary();
    println!(
        "\nafter {} epochs: {} state changes across {} routes \
         ({} refreezes, {} snapshots retired)",
        s.epochs,
        s.state_changes,
        engine.route_count(),
        s.refreezes,
        engine.chain_len()
    );
    println!(
        "router serial {} == cache serial {}; incremental states verified \
         against batch revalidation ✓",
        session.router().serial(),
        session.cache().serial()
    );
}
