//! The reference propagation: the original `BinaryHeap` implementation
//! of the Gao–Rexford contract in `bgpsim::routing`, kept out of the
//! shipping crate as the oracle `engine_props` holds
//! [`bgpsim::PropagationEngine`] bit-identical to. It allocates its
//! scratch on every call, dispatches the import filter dynamically and
//! branches on the relationship of every edge — and takes any seed
//! length, which is why it can check the engine right up to
//! [`bgpsim::PropagationEngine::max_seed_len`].

use std::cmp::Reverse;
use std::collections::BinaryHeap;

use bgpsim::routing::{RouteClass, RouteInfo, Seed};
use bgpsim::topology::{Relationship, Topology};
use rpki_roa::Asn;

/// The reference's route table: entry `a` is AS `a`'s selected route, if
/// any.
pub type Routes = Vec<Option<RouteInfo>>;

/// Propagates a prefix announced by `seeds` through `topology` under the
/// `accept(as_index, claimed_origin)` import filter.
pub fn propagate_reference(
    topology: &Topology,
    seeds: &[Seed],
    accept: &dyn Fn(usize, Asn) -> bool,
) -> Routes {
    let n = topology.len();
    let mut routes: Routes = vec![None; n];

    // Deterministic priority: (path_len, claimed origin, deliverer, AS).
    type Key = (u32, u32, usize, usize);
    let entry = |len: u32, r: &RouteInfo, at: usize| -> Reverse<(Key, usize)> {
        Reverse(((len, r.claimed_origin.into_u32(), r.delivers_to, at), at))
    };

    // --- Phase 1: origins and customer-learned routes (travel upward
    // over customer→provider edges only).
    let mut heap: BinaryHeap<Reverse<(Key, usize)>> = BinaryHeap::new();
    let mut pending: Vec<Option<RouteInfo>> = vec![None; n];
    for seed in seeds {
        if !accept(seed.at, seed.claimed_origin) {
            continue;
        }
        let info = RouteInfo {
            class: RouteClass::Origin,
            path_len: seed.path_len,
            claimed_origin: seed.claimed_origin,
            delivers_to: seed.at,
            next_hop: None,
        };
        if better_candidate(&pending[seed.at], &info) {
            pending[seed.at] = Some(info);
            heap.push(entry(info.path_len, &info, seed.at));
        }
    }
    while let Some(Reverse((key, at))) = heap.pop() {
        let Some(info) = pending[at] else { continue };
        if info.path_len != key.0 || routes[at].is_some() {
            continue; // stale heap entry or already settled
        }
        routes[at] = Some(info);
        // Export to providers: they learn a customer route.
        for (provider, rel) in topology.neighbors(at) {
            if rel != Relationship::Provider || routes[provider].is_some() {
                continue;
            }
            if !accept(provider, info.claimed_origin) {
                continue;
            }
            let candidate = RouteInfo {
                class: RouteClass::Customer,
                path_len: info.path_len + 1,
                claimed_origin: info.claimed_origin,
                delivers_to: info.delivers_to,
                next_hop: Some(at),
            };
            if better_candidate(&pending[provider], &candidate) {
                pending[provider] = Some(candidate);
                heap.push(entry(candidate.path_len, &candidate, provider));
            }
        }
    }

    // --- Phase 2: one peer hop. Only customer/origin routes are exported
    // to peers; collect all offers, then adopt the best per AS.
    let mut peer_offers: Vec<Option<RouteInfo>> = vec![None; n];
    for at in 0..n {
        let Some(info) = routes[at] else { continue };
        for (peer, rel) in topology.neighbors(at) {
            if rel != Relationship::Peer || routes[peer].is_some() {
                continue;
            }
            if !accept(peer, info.claimed_origin) {
                continue;
            }
            let candidate = RouteInfo {
                class: RouteClass::Peer,
                path_len: info.path_len + 1,
                claimed_origin: info.claimed_origin,
                delivers_to: info.delivers_to,
                next_hop: Some(at),
            };
            if better_candidate(&peer_offers[peer], &candidate) {
                peer_offers[peer] = Some(candidate);
            }
        }
    }
    for at in 0..n {
        if routes[at].is_none() {
            routes[at] = peer_offers[at];
        }
    }

    // --- Phase 3: provider-learned routes flow down to customers; any
    // route may be exported to a customer, and provider routes keep
    // flowing to customers-of-customers.
    let mut heap: BinaryHeap<Reverse<(Key, usize)>> = BinaryHeap::new();
    let mut pending: Vec<Option<RouteInfo>> = vec![None; n];
    let offer_down = |from_info: RouteInfo,
                      from: usize,
                      pending: &mut Vec<Option<RouteInfo>>,
                      heap: &mut BinaryHeap<Reverse<(Key, usize)>>,
                      routes: &Vec<Option<RouteInfo>>| {
        for (customer, rel) in topology.neighbors(from) {
            if rel != Relationship::Customer || routes[customer].is_some() {
                continue;
            }
            if !accept(customer, from_info.claimed_origin) {
                continue;
            }
            let candidate = RouteInfo {
                class: RouteClass::Provider,
                path_len: from_info.path_len + 1,
                claimed_origin: from_info.claimed_origin,
                delivers_to: from_info.delivers_to,
                next_hop: Some(from),
            };
            if better_candidate(&pending[customer], &candidate) {
                pending[customer] = Some(candidate);
                heap.push(entry(candidate.path_len, &candidate, customer));
            }
        }
    };
    for at in 0..n {
        if let Some(info) = routes[at] {
            offer_down(info, at, &mut pending, &mut heap, &routes);
        }
    }
    while let Some(Reverse((key, at))) = heap.pop() {
        let Some(info) = pending[at] else { continue };
        if info.path_len != key.0 || routes[at].is_some() {
            continue;
        }
        routes[at] = Some(info);
        offer_down(info, at, &mut pending, &mut heap, &routes);
    }

    routes
}

/// `true` if `candidate` beats the current pending offer under the
/// deterministic tie-break.
fn better_candidate(current: &Option<RouteInfo>, candidate: &RouteInfo) -> bool {
    match current {
        None => true,
        Some(cur) => {
            let cur_key = (
                cur.class,
                cur.path_len,
                cur.claimed_origin.into_u32(),
                cur.delivers_to,
            );
            let cand_key = (
                candidate.class,
                candidate.path_len,
                candidate.claimed_origin.into_u32(),
                candidate.delivers_to,
            );
            cand_key < cur_key
        }
    }
}
