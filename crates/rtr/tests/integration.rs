//! Cross-module rtr tests: cache restarts, session changes, and recovery
//! behaviour a production router must survive.

use std::thread;

use rpki_roa::Vrp;
use rpki_rtr::cache::CacheServer;
use rpki_rtr::client::{ClientState, RouterClient};

fn vrps(list: &[&str]) -> Vec<Vrp> {
    list.iter().map(|s| s.parse().unwrap()).collect()
}

/// Query/response rounds until End of Data. Returns how many rounds it
/// took (a Cache Reset costs a second one).
fn synchronize(router: &mut RouterClient, cache: &mut CacheServer) -> usize {
    for round in 1..=2 {
        for pdu in cache.handle(&router.query()) {
            if router.handle(&pdu).unwrap() {
                return round;
            }
        }
    }
    panic!("no End of Data within two rounds");
}

#[test]
fn router_recovers_from_cache_restart() {
    // Phase 1: sync against cache A (session 1).
    let set_a = vrps(&["10.0.0.0/8 => AS1", "11.0.0.0/8 => AS2"]);
    let mut cache_a = CacheServer::new(1, &set_a);
    let mut router = RouterClient::new();
    assert_eq!(synchronize(&mut router, &mut cache_a), 1);
    assert_eq!(router.vrps().len(), 2);
    assert_eq!(router.state(), ClientState::Synchronized);

    // Phase 2: the cache dies and restarts as session 2 with new data.
    // The router's serial query must be answered with Cache Reset, after
    // which it resets and pulls the full new set.
    let set_b = vrps(&["12.0.0.0/8 => AS3"]);
    let mut cache_b = CacheServer::new(2, &set_b);
    assert_eq!(
        synchronize(&mut router, &mut cache_b),
        2,
        "the doomed serial query, then the reset"
    );
    assert_eq!(router.state(), ClientState::Synchronized);
    assert_eq!(router.vrps().len(), 1);
    assert!(router.vrps().contains(&vrps(&["12.0.0.0/8 => AS3"])[0]));
}

#[test]
fn router_survives_many_incremental_updates() {
    let mut cache = CacheServer::new(5, &vrps(&["10.0.0.0/8 => AS1"]));
    let mut router = RouterClient::new();

    // Initial full sync.
    synchronize(&mut router, &mut cache);

    // Twelve updates, each followed by a delta sync, exercising the
    // history window and delta coalescing.
    for i in 0..12u32 {
        let mut set = vrps(&["10.0.0.0/8 => AS1"]);
        set.extend(vrps(&[&format!("10.{}.0.0/16 => AS1", i % 4)]));
        if i % 3 == 0 {
            set.push(format!("172.16.{}.0/24 => AS9", i).parse().unwrap());
        }
        cache.update(&set);
        for pdu in cache.handle(&router.query()) {
            router.handle(&pdu).unwrap();
        }
        assert_eq!(router.serial(), cache.serial());
        let expect: std::collections::BTreeSet<Vrp> = set.into_iter().collect();
        assert_eq!(router.vrps(), &expect, "update {i}");
    }
}

#[test]
fn concurrent_routers_share_one_cache_state() {
    use std::sync::{Arc, Mutex};

    let cache = Arc::new(Mutex::new(CacheServer::new(
        9,
        &vrps(&["10.0.0.0/8 => AS1", "2001:db8::/32 => AS2"]),
    )));
    let mut handles = Vec::new();
    for _ in 0..8 {
        let cache = Arc::clone(&cache);
        handles.push(thread::spawn(move || {
            let mut router = RouterClient::new();
            let response = cache
                .lock()
                .unwrap()
                .handle(&rpki_rtr::pdu::Pdu::ResetQuery);
            for pdu in response {
                router.handle(&pdu).unwrap();
            }
            router.vrps().len()
        }));
    }
    for h in handles {
        assert_eq!(h.join().unwrap(), 2);
    }
}
