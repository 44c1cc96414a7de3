//! Full-pipeline integration test spanning every crate:
//!
//! generated dataset → ROA objects → sealed `.roa` files on disk →
//! `scan_roas` → minimalization → `compress_roas` → rpki-rtr cache →
//! TCP-synchronized router → RFC 6811 validation of the BGP table —
//! with failure injection at each stage boundary.

use std::thread;

use maxlength_rpki::core::compress::expand_authorized;
use maxlength_rpki::prelude::*;
use maxlength_rpki::roa::envelope::{open_roa, seal_roa, EnvelopeError};
use maxlength_rpki::roa::scan::scan_dir;
use maxlength_rpki::rtr::cache::CacheServer;
use maxlength_rpki::rtr::client::{Freshness, RouterClient};
use maxlength_rpki::rtr::faults::{FaultConfig, FaultPlan, FaultyTransport};
use maxlength_rpki::rtr::server::TcpCacheServer;
use maxlength_rpki::rtr::transport::{TcpTransport, TransportError};

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
    let scan = scan_dir(&repo).unwrap();
    assert_eq!(scan.roas.len(), roas.len());
    assert_eq!(scan.rejected.len(), 1);
    assert_eq!(scan.rejected[0].1, EnvelopeError::DigestMismatch);
    let scanned_vrps = scan.vrps();
    let direct_vrps: Vec<Vrp> = roas.iter().flat_map(|r| r.vrps()).collect();
    // Scan order differs from generation order; compare as sets.
    let mut a = scanned_vrps.clone();
    let mut b = direct_vrps.clone();
    a.sort_unstable();
    b.sort_unstable();
    assert_eq!(a, b, "DER + envelope round-trip through disk is lossless");

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

    // --- Stage 7: a faulted connection breaks; recovery is a reconnect. --
    // A second router dials through a transport whose fault plan cuts
    // the connection on the first exchange; the RFC 8210 recovery path
    // (abort the half response, renegotiate, re-dial) must then bring
    // it to the same set over a clean connection.
    let cut_everything = FaultConfig {
        disconnect: 1.0,
        ..FaultConfig::none()
    };
    let mut faulty = FaultyTransport::new(
        TcpTransport::connect(handle.addr()).unwrap(),
        FaultPlan::new(29, cut_everything),
    );
    let mut second = RouterClient::new();
    let err = second.synchronize(&mut faulty).unwrap_err();
    assert!(
        matches!(
            err,
            maxlength_rpki::rtr::client::ClientError::Transport(TransportError::Closed)
        ),
        "a cut connection must surface as Closed, got {err:?}"
    );
    assert!(faulty.is_broken());
    assert_eq!(second.freshness(), Freshness::Expired, "never-synced data");
    // The reconnect: abort any half-applied state, renegotiate from the
    // preferred version, dial a clean pipe.
    second.abort_response();
    second.renegotiate();
    faulty.reconnect(TcpTransport::connect(handle.addr()).unwrap());
    assert!(!faulty.is_broken());
    let mut clean = TcpTransport::connect(handle.addr()).unwrap();
    second.synchronize(&mut clean).unwrap();
    assert_eq!(second.vrps().len(), updated.len());
    assert_eq!(second.freshness(), Freshness::Fresh);
    drop(clean);
    drop(faulty);

    drop(transport);
    handle.shutdown();
    serving.join().unwrap().unwrap();
    std::fs::remove_dir_all(&repo).ok();
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
