//! A router's validation daemon: rpki-rtr deltas in, state changes out.
//!
//! Ties three pieces together the way a real deployment does (Figure 1):
//! the cache pushes Serial Notify when its ROA set changes; the router
//! pulls the delta over rpki-rtr; the `SnapshotChainEngine` revalidates
//! *only the affected routes* and reports each state transition — the
//! events that would trigger BGP route preference changes.
//!
//! ```sh
//! cargo run --example revalidation_daemon
//! ```

use maxlength_rpki::prelude::*;
use maxlength_rpki::rtr::cache::CacheServer;
use maxlength_rpki::rtr::client::RouterClient;
use maxlength_rpki::rtr::pdu::{Flags, Pdu};

fn main() {
    // The router's BGP table (what its peers announced).
    let table: Vec<RouteOrigin> = [
        "168.122.0.0/16 => AS111",
        "168.122.225.0/24 => AS111",
        "168.122.0.0/24 => AS666", // a classic subprefix hijack attempt
        "168.122.0.0/24 => AS111", // a forged-origin subprefix hijack
        "10.0.0.0/8 => AS1",
    ]
    .iter()
    .map(|s| s.parse().unwrap())
    .collect();

    // The local cache starts with no ROAs; the router is synchronized.
    let mut cache = CacheServer::new(7, &[]);
    let mut router = RouterClient::new();
    for pdu in cache.handle(&Pdu::ResetQuery) {
        router.handle(&pdu).unwrap();
    }
    let mut engine = SnapshotChainEngine::new(table.iter().copied(), [], ChainConfig::default());
    println!("initial states (no ROAs):");
    for route in &table {
        println!(
            "  {:<32} {}",
            route.to_string(),
            engine.state_of(route).unwrap()
        );
    }

    // BU registers its ROA; the cache pushes a notify; the router pulls
    // the delta and feeds it to the engine.
    let updates: [(&str, Vec<Vrp>); 3] = [
        (
            "BU registers ROA (168.122.0.0/16, AS 111)",
            vec!["168.122.0.0/16 => AS111".parse().unwrap()],
        ),
        (
            "BU 'conveniently' widens it to maxLength 24",
            vec!["168.122.0.0/16-24 => AS111".parse().unwrap()],
        ),
        (
            "BU reads the paper and goes minimal",
            vec![
                "168.122.0.0/16 => AS111".parse().unwrap(),
                "168.122.225.0/24 => AS111".parse().unwrap(),
            ],
        ),
    ];

    for (what, vrps) in updates {
        println!("\n== {what}");
        let notify = cache.update(&vrps);
        // The router reacts to the notify with a serial query; the delta
        // flows back as announce/withdraw PDUs.
        router.handle(&notify).unwrap();
        let mut announced = Vec::new();
        let mut withdrawn = Vec::new();
        for pdu in cache.handle(&router.query()) {
            if let Pdu::Prefix { flags, vrp } = &pdu {
                match flags {
                    Flags::Announce => announced.push(*vrp),
                    Flags::Withdraw => withdrawn.push(*vrp),
                }
            }
            router.handle(&pdu).unwrap();
        }
        println!(
            "   rtr delta: +{} -{} VRPs (serial {})",
            announced.len(),
            withdrawn.len(),
            router.serial()
        );
        let changes = engine.apply_epoch(&announced, &withdrawn).changes;
        if changes.is_empty() {
            println!("   no route changed state");
        }
        for c in &changes {
            println!("   {:<32} {} -> {}", c.route.to_string(), c.old, c.new);
        }
    }

    // The punchline, as state transitions: the forged-origin hijack went
    // NotFound -> Invalid -> Valid (under maxLength!) -> Invalid (minimal).
    let forged: RouteOrigin = "168.122.0.0/24 => AS111".parse().unwrap();
    let classic: RouteOrigin = "168.122.0.0/24 => AS666".parse().unwrap();
    assert_eq!(engine.state_of(&forged), Some(ValidationState::Invalid));
    assert_eq!(engine.state_of(&classic), Some(ValidationState::Invalid));
    println!(
        "\nfinal: forged-origin hijack is {}, classic hijack is {}",
        engine.state_of(&forged).unwrap(),
        engine.state_of(&classic).unwrap()
    );

    // Cross-check: the cache's frozen snapshot — the exact state it
    // serves at the current serial — agrees with the incrementally
    // maintained engine on every tracked route.
    let snapshot = cache.snapshot();
    for route in &table {
        assert_eq!(Some(snapshot.validate(route)), engine.state_of(route));
    }
    let summary = snapshot.validate_table_par(&table);
    println!("cache snapshot cross-check: {summary}");
}
