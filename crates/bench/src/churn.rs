//! `maxlength churn`: the live-churn workload, a seeded VRP churn
//! timeline replayed through a real rpki-rtr session, with epoch-by-epoch
//! incremental revalidation against the frozen snapshot chain — and the
//! naive full-revalidation baseline timed alongside for the §6
//! router-load comparison. `--epochs` is the timeline's length, `--churn`
//! the delta records per epoch.

use std::collections::BTreeSet;

use rpki_datasets::{ChurnConfig, ChurnGenerator, ChurnProfile};
use rpki_roa::Vrp;
use rpki_rov::{ChainConfig, SnapshotChainEngine, ValidationState, VrpIndex};
use rpki_rtr::LiveSession;

use crate::world::final_snapshot;
use crate::Args;

pub fn run(args: &Args) {
    let (snap, vrps, _) = final_snapshot(args.scale);

    let timeline = ChurnGenerator::new(
        vrps.iter().copied(),
        ChurnConfig {
            epochs: args.epochs,
            events_per_epoch: args.churn,
            profile: ChurnProfile::Mixed,
            ..ChurnConfig::default()
        },
    )
    .generate();
    println!(
        "timeline          : {} epochs, {} delta records over {} initial VRPs",
        timeline.epochs.len(),
        timeline.total_events(),
        timeline.initial.len()
    );

    // The full stack: cache server ↔ router client over real PDUs, the
    // router's deltas feeding the snapshot-chain engine.
    let mut session = LiveSession::new(2017, &timeline.initial);
    session.synchronize().expect("initial synchronization");
    let mut engine = SnapshotChainEngine::new(
        snap.routes.iter().copied(),
        timeline.initial.iter().copied(),
        ChainConfig::default(),
    );
    println!(
        "engine            : {} routes indexed against {} VRPs",
        engine.route_count(),
        engine.vrp_count()
    );

    // The naive-router baseline: a plain set plus a full rebuild +
    // freeze + whole-table revalidation per epoch. No incremental
    // machinery inside the timed path, so the comparison is fair.
    let mut naive_set: BTreeSet<Vrp> = timeline.initial.iter().copied().collect();
    let mut naive_states: Vec<ValidationState> = {
        let frozen = naive_set.iter().copied().collect::<VrpIndex>().freeze();
        snap.routes.iter().map(|r| frozen.validate(r)).collect()
    };
    let mut incremental_total = std::time::Duration::ZERO;
    let mut full_total = std::time::Duration::ZERO;
    let mut wire_pdus = 0usize;
    println!("\n epoch   wire-pdus  state-chg  incremental     full-reval     speedup");
    for epoch in &timeline.epochs {
        let stats = session
            .apply_epoch(&epoch.announced, &epoch.withdrawn)
            .expect("session epoch");
        wire_pdus += stats.pdus;

        let t0 = std::time::Instant::now();
        let report = engine.apply_epoch(&epoch.announced, &epoch.withdrawn);
        let inc = t0.elapsed();
        incremental_total += inc;

        let t1 = std::time::Instant::now();
        for v in &epoch.announced {
            naive_set.insert(*v);
        }
        for v in &epoch.withdrawn {
            naive_set.remove(v);
        }
        let frozen = naive_set.iter().copied().collect::<VrpIndex>().freeze();
        let new_states: Vec<ValidationState> =
            snap.routes.iter().map(|r| frozen.validate(r)).collect();
        let full = t1.elapsed();
        full_total += full;
        let naive_changes = naive_states
            .iter()
            .zip(&new_states)
            .filter(|(old, new)| old != new)
            .count();
        naive_states = new_states;
        assert_eq!(
            naive_changes,
            report.changes.len(),
            "incremental and full paths must agree"
        );

        println!(
            " {:>5}   {:>9}  {:>9}  {:>11.2?}  {:>13.2?}  {:>9.1}x{}",
            report.epoch,
            stats.pdus,
            report.changes.len(),
            inc,
            full,
            full.as_secs_f64() / inc.as_secs_f64().max(1e-9),
            if report.refroze { "  [refroze]" } else { "" }
        );
    }

    let summary = engine.summary();
    println!(
        "\nchurn summary     : {} epochs, {} deltas, {} state changes \
         ({} -> Valid, {} -> Invalid, {} -> NotFound), {} refreezes",
        summary.epochs,
        summary.deltas,
        summary.state_changes,
        summary.to_valid,
        summary.to_invalid,
        summary.to_not_found,
        summary.refreezes
    );
    println!(
        "wire              : {} PDUs total; router at serial {} (cache {})",
        wire_pdus,
        session.router().serial(),
        session.cache().serial()
    );
    println!(
        "totals            : incremental {:.2?} vs full {:.2?} ({:.1}x over the timeline)",
        incremental_total,
        full_total,
        full_total.as_secs_f64() / incremental_total.as_secs_f64().max(1e-9)
    );

    // The acceptance check, end to end: the router's final synchronized
    // set equals the timeline's final set, and validating the table
    // against it from scratch reproduces the chain engine's states.
    let router_set: Vec<_> = session.router().vrps().iter().collect();
    assert_eq!(
        router_set,
        timeline.final_vrps(),
        "router mirrors the cache"
    );
    let fresh: VrpIndex = router_set.into_iter().collect();
    let frozen = fresh.freeze();
    for (route, state) in engine.states() {
        assert_eq!(state, frozen.validate(&route), "{route}");
    }
    let naive_final: Vec<ValidationState> =
        snap.routes.iter().map(|r| frozen.validate(r)).collect();
    assert_eq!(naive_states, naive_final, "naive baseline tracked the set");
    println!(
        "differential check: chain states == batch revalidation of the \
         router's final set ({} routes) ✓",
        engine.route_count()
    );
}
