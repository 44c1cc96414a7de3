//! The two faces of the one RTR session driver agree: a plain
//! `LiveSession` and a `ChaosSession` with no faults configured run the
//! same round loop, so they must land on the same router state — and
//! the recovery wrapper must still carry a version downgrade through.

use maxlength_rpki::prelude::*;
use maxlength_rpki::rtr::faults::{ChaosOptions, ChaosSession, FaultConfig, TraceEvent};
use maxlength_rpki::rtr::{PROTOCOL_V0, PROTOCOL_V1};

fn timeline() -> ChurnTimeline {
    let vrps = World::generate(GeneratorConfig {
        scale: 0.01,
        ..GeneratorConfig::default()
    })
    .snapshot(7)
    .vrps();
    ChurnGenerator::new(
        vrps,
        ChurnConfig {
            seed: 13,
            epochs: 6,
            events_per_epoch: 24,
            profile: ChurnProfile::Mixed,
            ..ChurnConfig::default()
        },
    )
    .generate()
}

#[test]
fn live_and_faultless_chaos_sessions_converge_identically() {
    let timeline = timeline();
    assert_eq!(timeline.epochs.len(), 6);

    let mut live = LiveSession::new(31, &timeline.initial);
    live.synchronize().expect("initial sync");
    let mut chaos = ChaosSession::new(31, &timeline.initial, 5, FaultConfig::none());
    assert!(chaos.settle().converged);

    for epoch in &timeline.epochs {
        live.apply_epoch(&epoch.announced, &epoch.withdrawn)
            .expect("live epoch");
        chaos.apply_epoch(&epoch.announced, &epoch.withdrawn);
        let settled = chaos.settle();
        assert!(settled.converged && settled.attempts == 1, "{settled:?}");
        assert_eq!(live.router().vrps(), chaos.router().vrps());
        assert_eq!(live.router().serial(), chaos.router().serial());
    }

    let final_set: Vec<Vrp> = live.router().vrps().iter().copied().collect();
    assert_eq!(final_set, timeline.final_vrps());
    assert!(chaos.router().vrps().iter().eq(final_set.iter()));
    assert_eq!(live.router().serial(), 6);
    assert_eq!(chaos.router().serial(), 6);
}

#[test]
fn v1_router_downgrades_once_against_a_v0_cache_and_converges() {
    let timeline = timeline();
    let options = ChaosOptions {
        cache_version: PROTOCOL_V0,
        router_version: PROTOCOL_V1,
        ..ChaosOptions::default()
    };
    let mut chaos =
        ChaosSession::with_options(32, &timeline.initial, 5, FaultConfig::none(), options);
    assert!(chaos.settle().converged);
    for epoch in &timeline.epochs {
        chaos.apply_epoch(&epoch.announced, &epoch.withdrawn);
        assert!(chaos.settle().converged);
    }

    // No fault ever forces a reconnect, so the one connection is
    // downgraded exactly once and stays at v0.
    let downgrades: Vec<&TraceEvent> = chaos
        .trace()
        .iter()
        .filter(|e| matches!(e, TraceEvent::Downgrade { .. }))
        .collect();
    assert_eq!(
        downgrades,
        [&TraceEvent::Downgrade {
            from: PROTOCOL_V1,
            to: PROTOCOL_V0
        }]
    );
    assert_eq!(chaos.router().version(), PROTOCOL_V0);
    assert!(chaos
        .router()
        .vrps()
        .iter()
        .eq(timeline.final_vrps().iter()));
    assert_eq!(chaos.router().serial(), chaos.cache().serial());
}
