//! Figure 1, end to end: ROA files on disk → `scan_roas` → `compress_roas`
//! → rpki-rtr cache server → router client → route origin validation.
//!
//! This is the deployment story of §7.1: `compress_roas` slots into the
//! local cache's toolchain between validation and the router feed, with
//! no changes to routers.
//!
//! ```sh
//! cargo run --example rtr_pipeline
//! ```

use std::thread;

use maxlength_rpki::prelude::*;
use maxlength_rpki::roa::envelope::seal_roa;
use maxlength_rpki::roa::scan::scan_dir;
use maxlength_rpki::rtr::cache::CacheServer;
use maxlength_rpki::rtr::client::RouterClient;
use maxlength_rpki::rtr::server::TcpCacheServer;
use maxlength_rpki::rtr::transport::TcpTransport;

fn main() {
    // --- 1. A tiny RPKI repository on disk. -----------------------------
    let repo = std::env::temp_dir().join(format!("rtr-pipeline-{}", std::process::id()));
    std::fs::create_dir_all(&repo).expect("create repo dir");
    let roas = [
        Roa::new(
            Asn(31283),
            vec![
                RoaPrefix::exact("87.254.32.0/19".parse().unwrap()),
                RoaPrefix::exact("87.254.32.0/20".parse().unwrap()),
                RoaPrefix::exact("87.254.48.0/20".parse().unwrap()),
                RoaPrefix::exact("87.254.32.0/21".parse().unwrap()),
            ],
        )
        .unwrap(),
        Roa::new(
            Asn(111),
            vec![
                RoaPrefix::exact("168.122.0.0/16".parse().unwrap()),
                RoaPrefix::exact("168.122.225.0/24".parse().unwrap()),
            ],
        )
        .unwrap(),
    ];
    for (i, roa) in roas.iter().enumerate() {
        std::fs::write(repo.join(format!("{i}.roa")), seal_roa(roa)).expect("write roa");
    }

    // --- 2. The local cache validates and scans (scan_roas). -------------
    let scan = scan_dir(&repo).expect("scan repository");
    println!(
        "scan_roas: {} ROAs -> {} PDUs",
        scan.roas.len(),
        scan.vrps().len()
    );
    print!("{}", scan.to_scan_lines());

    // --- 3. compress_roas post-processes the PDU list (§7.1). ------------
    let compressed = compress_roas(&scan.vrps());
    println!(
        "\ncompress_roas: {} -> {} PDUs pushed to routers",
        scan.vrps().len(),
        compressed.len()
    );

    // --- 4. Serve the PDUs over rpki-rtr (RFC 8210). ---------------------
    let server = TcpCacheServer::bind(
        "127.0.0.1:0".parse().unwrap(),
        CacheServer::new(2017, &compressed),
    )
    .expect("bind cache server");
    let handle = server.handle();
    let addr = handle.addr();
    println!("\nrpki-rtr cache listening on {addr}");
    let serving = thread::spawn(move || server.serve());

    // --- 5. A router synchronizes and validates BGP updates (RFC 6811). --
    let mut transport = TcpTransport::connect(addr).expect("connect");
    let mut router = RouterClient::new();
    router.synchronize(&mut transport).expect("synchronize");
    // The End of Data stamped the RFC 8210 §6 timers: the router now
    // reports how current its data is (Fresh / Stale / Expired).
    println!(
        "router synchronized: {} VRPs at serial {}, freshness {:?}",
        router.vrps().len(),
        router.serial(),
        router.freshness()
    );

    // Builder → freeze: the synchronized VRP set is read-only until the
    // next rtr delta, so the router validates against a frozen snapshot.
    let index: VrpIndex = router.vrps().iter().collect();
    let frozen = index.freeze();
    let updates = [
        "87.254.32.0/20 => AS31283", // legitimate de-aggregate
        "168.122.0.0/16 => AS111",   // legitimate
        "168.122.0.0/24 => AS111",   // forged-origin subprefix hijack try
        "87.254.40.0/21 => AS31283", // the prefix §7 warns about
        "8.8.8.0/24 => AS15169",     // not in the RPKI
    ];
    println!("\nrouter validates incoming BGP updates (frozen snapshot):");
    for update in updates {
        let route: RouteOrigin = update.parse().unwrap();
        assert_eq!(frozen.validate(&route), index.validate(&route));
        println!("  {:<30} -> {}", update, frozen.validate(&route));
    }

    drop(transport);
    handle.shutdown();
    serving.join().expect("serve thread").expect("serve ok");
    std::fs::remove_dir_all(&repo).ok();
    println!("\npipeline complete: no router-side changes needed (§7.1).");
}
