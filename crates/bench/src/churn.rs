//! `maxlength churn`: the live-churn workload, a seeded VRP churn
//! timeline replayed through a real rpki-rtr session (a router fed by the
//! cache's fan-out core over in-memory bytes), with epoch-by-epoch
//! incremental revalidation against the frozen snapshot chain — and the
//! naive full-revalidation baseline timed alongside for the §6
//! router-load comparison. `--epochs` is the timeline's length, `--churn`
//! the delta records per epoch.

use std::collections::BTreeSet;

use rpki_datasets::{ChurnConfig, ChurnGenerator, ChurnProfile};
use rpki_roa::Vrp;
use rpki_rov::{ChainConfig, SnapshotChainEngine, ValidationState, VrpIndex};
use rpki_rtr::client::SYNC_ROUNDS;
use rpki_rtr::{decode_frame, CacheServer, FanoutServer, RouterClient, ServerConfig, SessionId};

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
    // router's deltas feeding the snapshot-chain engine. The driver drains
    // after every query, so the outbox needs no bound.
    let mut server = FanoutServer::with_config(
        CacheServer::new(2017, &timeline.initial),
        ServerConfig {
            outbox_limit: usize::MAX,
            ..ServerConfig::default()
        },
    );
    let session = server.open_session();
    let mut router = RouterClient::new();
    sync(&mut server, session, &mut router);
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
        server.update_delta_and_notify(&epoch.announced, &epoch.withdrawn);
        let pdus = sync(&mut server, session, &mut router);
        wire_pdus += pdus;

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
            pdus,
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
        router.serial(),
        server.cache().serial()
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
    let router_set: Vec<_> = router.vrps().iter().collect();
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

/// One synchronization through the fan-out core: the router's query goes
/// in, the queued output (a pending Serial Notify, then the response)
/// comes out and is fed to the router frame by frame until End of Data.
/// A Cache Reset ends the round and the next one sends a Reset Query.
/// Returns the PDUs the router received.
fn sync(server: &mut FanoutServer, id: SessionId, router: &mut RouterClient) -> usize {
    let (mut pdus, mut bytes) = (0, Vec::new());
    for _ in 0..SYNC_ROUNDS {
        bytes.clear();
        let query = router.query();
        query.as_wire().encode_into(router.version(), &mut bytes);
        server.receive(id, &bytes);
        bytes.clear();
        server.drain_output(id, &mut bytes);
        let mut at = 0;
        while let Some(frame) = decode_frame(&bytes[at..]).expect("cache frames decode") {
            (at, pdus) = (at + frame.len, pdus + 1);
            if router.handle_wire(frame.pdu).expect("router accepts") {
                return pdus;
            }
        }
    }
    panic!("no End of Data after {SYNC_ROUNDS} rounds");
}
