//! The two faces of the one RTR session driver agree: a plain
//! `LiveSession` and a `ChaosSession` with no faults configured run the
//! same round loop, so they must land on the same router state — and
//! the recovery wrapper must still carry a version downgrade through.
//! Both keep what they learn in the router's packed-key table, which one
//! fixed PDU stream checks here against a plain `BTreeSet<Vrp>`, and a
//! Reset response in the cache's own order checks the arrival-ordered
//! staging in front of it (the randomized versions are in
//! `crates/rtr/tests/vrp_set_props.rs`).

use maxlength_rpki::prelude::*;
use maxlength_rpki::rtr::client::ClientError;
use maxlength_rpki::rtr::faults::{ChaosOptions, ChaosSession, FaultConfig, TraceEvent};
use maxlength_rpki::rtr::pdu::{Flags, Pdu, Timing};
use maxlength_rpki::rtr::{CacheServer, RouterClient, PROTOCOL_V0, PROTOCOL_V1};

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

    let final_set: Vec<Vrp> = live.router().vrps().iter().collect();
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

#[test]
fn router_table_tracks_a_btree_set_through_a_mixed_family_stream() {
    use std::collections::BTreeSet;
    use Flags::{Announce, Withdraw};

    // Edge keys of both families, neighbours that differ in one field,
    // sent out of order; `false` marks the records a router must reject.
    let stream = [
        (Announce, "2001:db8::/32-48 => AS65000", true),
        (Announce, "10.0.0.0/8-16 => AS1", true),
        (Announce, "::/0-128 => AS0", true),
        (Announce, "10.0.0.0/8-17 => AS1", true),
        (Announce, "255.255.255.255/32 => AS4294967295", true),
        (Announce, "10.0.0.0/8-16 => AS2", true),
        (Announce, "0.0.0.0/0 => AS0", true),
        (Announce, "10.0.0.0/8-16 => AS1", false),
        (Announce, "ffff:ffff::/32-128 => AS4294967295", true),
        (Withdraw, "10.0.0.0/9-16 => AS1", false),
        (Withdraw, "10.0.0.0/8-17 => AS1", true),
        (Withdraw, "::/0 => AS0", false),
        (Announce, "10.0.0.0/9-16 => AS1", true),
        (Withdraw, "::/0-128 => AS0", true),
    ];

    let mut router = RouterClient::new();
    let mut model: BTreeSet<Vrp> = BTreeSet::new();
    router
        .handle(&Pdu::CacheResponse { session_id: 3 })
        .expect("a response may open");
    for (flags, text, accepted) in stream {
        let vrp: Vrp = text.parse().expect("fixture VRP parses");
        let expected = match flags {
            Announce => model.insert(vrp),
            Withdraw => model.remove(&vrp),
        };
        assert_eq!(expected, accepted, "fixture: {text}");
        // The verdict comes on the very PDU, not at End of Data.
        match (router.handle(&Pdu::Prefix { flags, vrp }), flags) {
            (Ok(false), _) => assert!(accepted, "{text} accepted"),
            (Err(ClientError::DuplicateAnnouncement(v)), Announce) => {
                assert!(!accepted && v == vrp, "{text}")
            }
            (Err(ClientError::WithdrawalOfUnknown(v)), Withdraw) => {
                assert!(!accepted && v == vrp, "{text}")
            }
            (other, _) => panic!("{text}: {other:?}"),
        }
    }
    let done = router.handle(&Pdu::EndOfData {
        session_id: 3,
        serial: 1,
        timing: Timing::default(),
    });
    assert!(matches!(done, Ok(true)));

    let table = router.vrps();
    assert_eq!((table.len(), model.len()), (7, 7));
    assert!(table.iter().eq(model.iter()), "{table:?} != {model:?}");
    assert!(*table == model, "table == BTreeSet");
    assert!(model == *table, "BTreeSet == table");
    assert!(model.iter().all(|v| table.contains(v)));
    let gone: Vrp = "::/0-128 => AS0".parse().expect("fixture VRP parses");
    assert!(!table.contains(&gone));
}

#[test]
fn reset_response_in_cache_order_stages_like_a_btree_set() {
    use std::collections::BTreeSet;

    // Length-major within each family, IPv4 first — the order
    // `CacheServer` serves, which is not `Vrp` order — with one prefix
    // under three records whose (origin, maxLength) arrive against key
    // order.
    let served = [
        "10.0.0.0/8 => AS1",
        "11.0.0.0/8-24 => AS1",
        "11.0.0.0/8-20 => AS2",
        "11.0.0.0/8-24 => AS2",
        "192.0.2.0/24 => AS3",
        "10.0.0.0/25-32 => AS1",
        "255.255.255.255/32 => AS4294967295",
        "::/0 => AS0",
        "2001:db8::/32-48 => AS65000",
        "2001:db8:1::/48 => AS65000",
        "ffff:ffff:ffff:ffff:ffff:ffff:ffff:ffff/128 => AS4294967295",
    ];
    let served: Vec<Vrp> = served
        .iter()
        .map(|text| text.parse().expect("fixture VRP parses"))
        .collect();
    let cache_order: Vec<Vrp> = CacheServer::new(3, &served)
        .handle(&Pdu::ResetQuery)
        .into_iter()
        .filter_map(|pdu| match pdu {
            Pdu::Prefix { vrp, .. } => Some(vrp),
            _ => None,
        })
        .collect();
    assert_eq!(cache_order, served, "the fixture is in served order");
    assert!(!served.is_sorted(), "which is not `Vrp` order");

    // The stream as served, then with one record repeated behind the
    // other two of its prefix.
    let mut repeated = served.clone();
    repeated.insert(4, served[2]);
    let mut router = RouterClient::new();
    for (serial, stream) in [(1, &served), (2, &repeated)] {
        router.force_reset();
        router
            .handle(&Pdu::CacheResponse { session_id: 3 })
            .expect("a response may open");
        let mut model: BTreeSet<Vrp> = BTreeSet::new();
        for &vrp in stream {
            let pdu = Pdu::Prefix {
                flags: Flags::Announce,
                vrp,
            };
            // The verdict comes on the very PDU, not at End of Data.
            match (router.handle(&pdu), model.insert(vrp)) {
                (Ok(false), true) => {}
                (Err(ClientError::DuplicateAnnouncement(v)), false) => assert_eq!(v, vrp),
                (got, fresh) => panic!("{vrp} (fresh: {fresh}): {got:?}"),
            }
            assert_eq!(
                router.vrps().len(),
                if serial == 1 { 0 } else { served.len() }
            );
        }
        assert_eq!(model.len(), served.len());
        let done = router.handle(&Pdu::EndOfData {
            session_id: 3,
            serial,
            timing: Timing::default(),
        });
        assert!(matches!(done, Ok(true)));
        let table = router.vrps();
        assert!(table.iter().eq(model.iter().copied()), "{table:?}");
        assert!(*table == model && router.serial() == serial);
    }
}
