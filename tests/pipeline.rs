//! Full-pipeline integration test spanning every crate:
//!
//! generated dataset → ROA objects → sealed `.roa` files on disk →
//! `scan_roas` → minimalization → `compress_roas` → rpki-rtr cache →
//! TCP-synchronized router → RFC 6811 validation of the BGP table —
//! with failure injection at each stage boundary.

use std::io::Read;
use std::net::TcpListener;
use std::thread;

use maxlength_rpki::core::compress::expand_authorized;
use maxlength_rpki::prelude::*;
use maxlength_rpki::roa::envelope::{open_roa, seal_roa, EnvelopeError};
use maxlength_rpki::roa::scan::scan_dir_parallel;
use maxlength_rpki::rtr::cache::CacheServer;
use maxlength_rpki::rtr::client::{Freshness, RouterClient};
use maxlength_rpki::rtr::pdu::Flags;
use maxlength_rpki::rtr::server::TcpCacheServer;
use maxlength_rpki::rtr::transport::{TcpTransport, TransportError};
use maxlength_rpki::rtr::{decode_frame, FanoutServer, PduRef, SessionId};

fn generated_world() -> (Vec<Roa>, Vec<RouteOrigin>) {
    let world = World::generate(GeneratorConfig {
        scale: 0.005,
        seed: 42,
        ..GeneratorConfig::default()
    });
    let snap = world.snapshot(7);
    (snap.roas, snap.routes)
}

#[test]
fn disk_to_router_pipeline() {
    let (roas, routes) = generated_world();
    let bgp: BgpTable = routes.iter().collect();

    // --- Stage 1: publish to disk, with one corrupted object. -----------
    let repo = std::env::temp_dir().join(format!("pipeline-test-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&repo);
    std::fs::create_dir_all(&repo).unwrap();
    for (i, roa) in roas.iter().enumerate() {
        std::fs::write(repo.join(format!("{i:05}.roa")), seal_roa(roa)).unwrap();
    }
    let mut corrupt = seal_roa(&roas[0]);
    let at = corrupt.len() - 1;
    corrupt[at] ^= 0xFF;
    std::fs::write(repo.join("zz-corrupt.roa"), &corrupt).unwrap();

    // --- Stage 2: scan (the corrupted object is rejected, not fatal). ----
    let scan = scan_dir_parallel(&repo, 1).unwrap();
    assert_eq!(scan.roas.len(), roas.len());
    assert_eq!(scan.rejected.len(), 1);
    assert_eq!(scan.rejected[0].1, EnvelopeError::DigestMismatch);
    // The walk reads a directory in file-name order, which here is
    // publication order.
    assert_eq!(
        scan.roas, roas,
        "DER + envelope round-trip through disk is lossless"
    );
    let scanned_vrps = scan.vrps();

    // --- Stage 3: harden (minimalize) and compress. ----------------------
    let minimal = minimalize_vrps(&scanned_vrps, &bgp);
    let compressed = compress_roas(&minimal);
    assert!(compressed.len() <= minimal.len());
    assert_eq!(
        expand_authorized(&compressed),
        expand_authorized(&minimal),
        "compression preserves the authorized set"
    );

    // --- Stage 4: serve over TCP rpki-rtr; router synchronizes. ----------
    let server = TcpCacheServer::bind(
        "127.0.0.1:0".parse().unwrap(),
        CacheServer::new(2017, &compressed),
    )
    .unwrap();
    let handle = server.handle();
    let serving = thread::spawn(move || server.serve());

    let mut transport = TcpTransport::connect(handle.addr()).unwrap();
    let mut router = RouterClient::new();
    router.synchronize(&mut transport).unwrap();
    assert_eq!(router.vrps().len(), compressed.len());

    // --- Stage 5: validation behaves identically pre- and post-wire. -----
    let local_index: VrpIndex = compressed.iter().copied().collect();
    let wire_index: VrpIndex = router.vrps().iter().collect();
    for route in routes.iter().step_by(37) {
        assert_eq!(local_index.validate(route), wire_index.validate(route));
    }

    // --- Stage 6: the cache updates; the router follows the delta. -------
    let mut updated = compressed.clone();
    updated.truncate(updated.len() - updated.len() / 10);
    handle.with_cache(|cache| {
        cache.update(&updated);
    });
    router.synchronize(&mut transport).unwrap();
    assert_eq!(router.vrps().len(), updated.len());
    assert_eq!(router.serial(), 1);
    assert_eq!(router.freshness(), Freshness::Fresh);

    // --- Stage 7: a cut connection breaks; recovery is a reconnect. -----
    // A second router dials a peer that reads its Reset Query and hangs
    // up (a clean FIN, so the router's read sees end of stream); the
    // RFC 8210 recovery path (abort the half response, renegotiate,
    // re-dial) must then bring it to the same set over a clean connection.
    let cutter = TcpListener::bind("127.0.0.1:0").unwrap();
    let cut_addr = cutter.local_addr().unwrap();
    let cutting = thread::spawn(move || {
        let (mut peer, _) = cutter.accept().unwrap();
        let mut reset_query = [0u8; 8];
        peer.read_exact(&mut reset_query).unwrap();
    });
    let mut cut = TcpTransport::connect(cut_addr).unwrap();
    let mut second = RouterClient::new();
    let err = second.synchronize(&mut cut).unwrap_err();
    assert!(
        matches!(
            err,
            maxlength_rpki::rtr::client::ClientError::Transport(TransportError::Closed)
        ),
        "a cut connection must surface as Closed, got {err:?}"
    );
    cutting.join().unwrap();
    assert_eq!(second.freshness(), Freshness::Expired, "never-synced data");
    // The reconnect: abort any half-applied state, renegotiate from the
    // preferred version, dial a clean pipe.
    second.abort_response();
    second.renegotiate();
    let mut clean = TcpTransport::connect(handle.addr()).unwrap();
    second.synchronize(&mut clean).unwrap();
    assert_eq!(second.vrps().len(), updated.len());
    assert_eq!(second.freshness(), Freshness::Fresh);
    drop(clean);
    drop(cut);

    drop(transport);
    handle.shutdown();
    serving.join().unwrap().unwrap();
    std::fs::remove_dir_all(&repo).ok();
}

/// One synchronization through the cache's fan-out core, as `maxlength
/// churn` drives it: the router's query goes in, and the queued output
/// (a pending Serial Notify, then the response) is fed to the router
/// frame by frame up to End of Data. Returns the delta the router
/// applied, as (announced, withdrawn).
fn sync_delta(
    server: &mut FanoutServer,
    id: SessionId,
    router: &mut RouterClient,
) -> (Vec<Vrp>, Vec<Vrp>) {
    let mut bytes = Vec::new();
    router
        .query()
        .as_wire()
        .encode_into(router.version(), &mut bytes);
    server.receive(id, &bytes);
    bytes.clear();
    server.drain_output(id, &mut bytes);
    let (mut announced, mut withdrawn) = (Vec::new(), Vec::new());
    let mut at = 0;
    while let Some(frame) = decode_frame(&bytes[at..]).unwrap() {
        at += frame.len;
        match frame.pdu {
            PduRef::Prefix {
                flags: Flags::Announce,
                vrp,
            } => announced.push(vrp),
            PduRef::Prefix {
                flags: Flags::Withdraw,
                vrp,
            } => withdrawn.push(vrp),
            _ => {}
        }
        if router.handle_wire(frame.pdu).unwrap() {
            assert_eq!(at, bytes.len(), "End of Data ends the output");
            return (announced, withdrawn);
        }
    }
    panic!("no End of Data in the cache's output");
}

/// Figure 1 as a delta chain over the running example: BU's three ROA
/// updates reach a router through the cache, and the router revalidates
/// what each synchronized delta covers. The forged-origin subprefix
/// hijack is Valid exactly while the ROA uses maxLength.
#[test]
fn running_example_delta_chain_through_the_cache() {
    let table: Vec<RouteOrigin> = [
        "168.122.0.0/16 => AS111",
        "168.122.225.0/24 => AS111",
        "168.122.0.0/24 => AS666", // a classic subprefix hijack
        "168.122.0.0/24 => AS111", // a forged-origin subprefix hijack
        "10.0.0.0/8 => AS1",
    ]
    .iter()
    .map(|s| s.parse().unwrap())
    .collect();
    let (classic, forged) = (table[2], table[3]);
    let updates: [&[&str]; 3] = [
        &["168.122.0.0/16 => AS111"],
        &["168.122.0.0/16-24 => AS111"],
        &["168.122.0.0/16 => AS111", "168.122.225.0/24 => AS111"],
    ];

    let mut server = FanoutServer::new(CacheServer::new(7, &[]));
    let session = server.open_session();
    let mut router = RouterClient::new();
    assert_eq!(
        sync_delta(&mut server, session, &mut router),
        (vec![], vec![])
    );
    let mut engine = SnapshotChainEngine::new(table.iter().copied(), [], ChainConfig::default());
    // The state the engine tracks for `route`, as `states()` lists it.
    let tracked = |engine: &SnapshotChainEngine, route: &RouteOrigin| {
        let states = engine.states();
        let at = states.binary_search_by_key(route, |(r, _)| *r);
        states[at.expect("route tracked")].1
    };
    let mut forged_states = vec![tracked(&engine, &forged)];

    for update in updates {
        let vrps: Vec<Vrp> = update.iter().map(|s| s.parse().unwrap()).collect();
        assert_eq!(server.update_and_notify(&vrps), 1, "the router is notified");
        let (announced, withdrawn) = sync_delta(&mut server, session, &mut router);
        engine.apply_epoch(&announced, &withdrawn);
        forged_states.push(tracked(&engine, &forged));

        // The cache's snapshot at its current serial agrees with the
        // engine fed only the deltas the router synchronized.
        let snapshot = server.cache().snapshot();
        for route in &table {
            assert_eq!(tracked(&engine, route), snapshot.validate(route), "{route}");
        }
    }

    use ValidationState::{Invalid, NotFound, Valid};
    assert_eq!(forged_states, [NotFound, Invalid, Valid, Invalid]);
    assert_eq!(tracked(&engine, &classic), Invalid);
}

#[test]
fn minimalization_closes_every_generated_hole() {
    // Every vulnerable tuple in the generated world must be fixed by
    // minimalization: afterwards no tuple authorizes an unannounced route.
    let (roas, routes) = generated_world();
    let bgp: BgpTable = routes.iter().collect();
    let vrps: Vec<Vrp> = roas.iter().flat_map(|r| r.vrps()).collect();

    let before = MaxLengthCensus::analyze(&vrps, &bgp);
    assert!(before.vulnerable > 0, "generator plants vulnerable tuples");

    let minimal = minimalize_vrps(&vrps, &bgp);
    let after = MaxLengthCensus::analyze(&minimal, &bgp);
    assert_eq!(after.non_minimal_total, 0);
    assert_eq!(after.vulnerable, 0);

    // And compression does not reopen anything.
    let compressed = compress_roas(&minimal);
    let after_c = MaxLengthCensus::analyze(&compressed, &bgp);
    assert_eq!(after_c.non_minimal_total, 0);
}

#[test]
fn sealed_roundtrip_equals_original() {
    let (roas, _) = generated_world();
    for roa in roas.iter().take(50) {
        let sealed = seal_roa(roa);
        assert_eq!(&open_roa(&sealed).unwrap(), roa);
    }
}

#[test]
fn snapshot_io_preserves_analysis_results() {
    // Serializing a snapshot to text and loading it back must not change
    // any measurement.
    use maxlength_rpki::datasets::io;
    let world = World::generate(GeneratorConfig {
        scale: 0.003,
        seed: 9,
        ..GeneratorConfig::default()
    });
    let snap = world.snapshot(7);
    let text = io::to_string(&snap);
    let back = io::from_str(&text).unwrap();

    let bgp_a: BgpTable = snap.routes.iter().collect();
    let bgp_b: BgpTable = back.routes.iter().collect();
    let t_a = Table1::compute(&snap.vrps(), &bgp_a);
    let t_b = Table1::compute(&back.vrps(), &bgp_b);
    assert_eq!(t_a, t_b);
}
