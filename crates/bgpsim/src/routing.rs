//! Gao–Rexford route propagation for one prefix.
//!
//! The model is the standard one used by BGP security studies (including
//! the paper's reference \[16\], Lychev–Goldberg–Schapira):
//!
//! * **Preference**: being the origin > customer-learned > peer-learned >
//!   provider-learned; within a class, shorter AS paths; final tie-break
//!   deterministic.
//! * **Export**: routes learned from customers (or originated) are
//!   exported to everyone; routes learned from peers or providers are
//!   exported only to customers (valley-free routing).
//! * **Origin validation**: every AS has an import filter deciding
//!   whether it will accept a route based on the route's *claimed* origin
//!   — which for forged-origin attacks differs from where the traffic
//!   actually lands.
//!
//! Propagation is computed exactly in three phases (customer routes
//! bubbling up, one peer hop, provider routes flowing down), each a
//! shortest-path search — no iterative convergence needed because
//! Gao–Rexford preferences are hierarchical.
//!
//! One implementation ships: [`propagate`], backed by
//! [`crate::engine::PropagationEngine`] (flat CSR phase slices, a
//! reusable per-thread scratch [`crate::engine::Workspace`], and a
//! path-length bucket queue). The original `BinaryHeap` implementation
//! of the same contract lives on as the differential oracle in
//! `tests/support/reference.rs`; the `engine_props` suite holds the
//! engine **bit-identical** to it (same routes, same deterministic
//! tie-breaks, same `next_hop` choices) on every input the engine takes.

use rpki_roa::Asn;

use crate::engine::{with_workspace, PropagationEngine};
use crate::topology::Topology;

/// How an AS learned its best route (order = preference, best first).
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum RouteClass {
    /// The AS originated the route itself (or forged an origination).
    Origin,
    /// Learned from a customer.
    Customer,
    /// Learned from a peer.
    Peer,
    /// Learned from a provider.
    Provider,
}

/// One AS's best route for the propagated prefix.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct RouteInfo {
    /// Preference class.
    pub class: RouteClass,
    /// AS-path length (origin = announced seed length).
    pub path_len: u32,
    /// The origin AS the announcement *claims* (what ROV validates).
    pub claimed_origin: Asn,
    /// The AS index traffic actually reaches (the attacker, for hijacked
    /// routes).
    pub delivers_to: usize,
    /// The neighbor this AS forwards to (`None` at the announcement's
    /// entry point). Following `next_hop` hop by hop is the data plane.
    pub next_hop: Option<usize>,
}

/// A route injected at an AS: a legitimate origination or an attacker's
/// announcement.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Seed {
    /// Where the announcement enters the graph.
    pub at: usize,
    /// Initial AS-path length (0 for a true origination; 1 for a
    /// forged-origin announcement, whose path already carries the victim's
    /// ASN).
    pub path_len: u32,
    /// The origin the path claims.
    pub claimed_origin: Asn,
}

impl Seed {
    /// A legitimate origination at `at` claiming `claimed_origin`
    /// (path length 0).
    pub fn origin(at: usize, claimed_origin: Asn) -> Seed {
        Seed {
            at,
            path_len: 0,
            claimed_origin,
        }
    }

    /// A forged-origin announcement at `at`: the path already carries the
    /// claimed origin's ASN, so it starts one hop long.
    pub fn forged(at: usize, claimed_origin: Asn) -> Seed {
        Seed {
            at,
            path_len: 1,
            claimed_origin,
        }
    }
}

/// `path_len` bits in a [`PackedRoute`] — what caps
/// [`PropagationEngine::max_seed_len`] on very large topologies.
pub(crate) const PATH_LEN_BITS: u32 = 30;

/// The `next_hop` sentinel for "entered the graph here". Safe because
/// AS indices are `< n ≤ u32::MAX`, i.e. at most `u32::MAX - 1`.
const NO_HOP: u32 = u32::MAX;

/// A [`RouteInfo`] in one 16-byte word, `u32` indices throughout — what
/// the engine settles into and a [`Propagation`] stores, 2.5x smaller
/// than the 40-byte view it unpacks to:
///
/// ```text
/// bits 126..128  route class        (preference order, 2 bits)
/// bits  96..126  path_len           (< 2^30, see `max_seed_len`)
/// bits  64..96   claimed origin ASN
/// bits  32..64   delivers_to        (AS index)
/// bits   0..32   next_hop           (AS index; u32::MAX = none)
/// ```
///
/// The field order makes the deterministic route preference — strictly
/// smaller `(class, path_len, claimed_origin, delivers_to)` — a single
/// integer comparison of the top 96 bits ([`PackedRoute::pref`]).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) struct PackedRoute(u128);

impl PackedRoute {
    /// Placeholder for slots whose membership bit is clear; never read.
    pub(crate) const EMPTY: PackedRoute = PackedRoute(0);

    #[inline]
    pub(crate) fn new(
        class: RouteClass,
        path_len: u32,
        claimed_origin: Asn,
        delivers_to: usize,
        next_hop: Option<usize>,
    ) -> PackedRoute {
        debug_assert!(path_len < 1 << PATH_LEN_BITS);
        let hop = next_hop.map_or(NO_HOP, |h| h as u32);
        PackedRoute(
            ((class as u8 as u128) << 126)
                | ((path_len as u128) << 96)
                | ((claimed_origin.into_u32() as u128) << 64)
                | ((delivers_to as u32 as u128) << 32)
                | hop as u128,
        )
    }

    /// The preference key: `(class, path_len, claimed_origin,
    /// delivers_to)` as one integer — `a.pref() < b.pref()` iff `a`
    /// strictly beats `b` under the deterministic tie-break.
    #[inline]
    pub(crate) fn pref(self) -> u128 {
        self.0 >> 32
    }

    #[inline]
    pub(crate) fn path_len(self) -> u32 {
        ((self.0 >> 96) as u32) & ((1 << PATH_LEN_BITS) - 1)
    }

    #[inline]
    pub(crate) fn claimed_origin(self) -> Asn {
        Asn((self.0 >> 64) as u32)
    }

    #[inline]
    pub(crate) fn delivers_to(self) -> usize {
        (self.0 >> 32) as u32 as usize
    }

    fn unpack(self) -> RouteInfo {
        let class = match (self.0 >> 126) as u8 {
            0 => RouteClass::Origin,
            1 => RouteClass::Customer,
            2 => RouteClass::Peer,
            _ => RouteClass::Provider,
        };
        let hop = self.0 as u32;
        RouteInfo {
            class,
            path_len: self.path_len(),
            claimed_origin: self.claimed_origin(),
            delivers_to: self.delivers_to(),
            next_hop: (hop != NO_HOP).then_some(hop as usize),
        }
    }
}

/// The result of propagating one prefix, in the form the engine settles
/// it: a membership bit per AS over 16-byte packed route slots (a slot
/// is live **iff** its bit is set; bits at and past the AS count are
/// clear). [`RouteInfo`] is the unpacked view [`Propagation::route`] and
/// [`Propagation::iter`] hand out.
#[derive(Clone, Default)]
pub struct Propagation {
    pub(crate) set: Vec<u64>,
    pub(crate) routes: Vec<PackedRoute>,
}

impl std::fmt::Debug for Propagation {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_list().entries(self.iter()).finish()
    }
}

impl Propagation {
    /// `true` if AS `at` holds a route.
    #[inline]
    pub(crate) fn routed(&self, at: usize) -> bool {
        (self.set[at >> 6] >> (at & 63)) & 1 != 0
    }

    /// Number of ASes the table covers (routed or not).
    pub fn len(&self) -> usize {
        self.routes.len()
    }

    /// `true` for the table of an empty topology.
    pub fn is_empty(&self) -> bool {
        self.routes.is_empty()
    }

    /// AS `at`'s selected route, if any.
    ///
    /// # Panics
    ///
    /// Panics if `at >= self.len()`.
    pub fn route(&self, at: usize) -> Option<RouteInfo> {
        assert!(at < self.len(), "AS index {at} out of range");
        self.routed(at).then(|| self.routes[at].unpack())
    }

    /// Every AS's selected route, in AS-index order.
    pub fn iter(&self) -> impl Iterator<Item = Option<RouteInfo>> + '_ {
        (0..self.len()).map(|at| self.route(at))
    }

    /// The hop-by-hop forwarding path from `from` to its route's entry
    /// point, following `next_hop`. `None` if `from` holds no route;
    /// panics are impossible because propagation only installs next hops
    /// pointing at routed neighbors.
    pub fn forwarding_path(&self, from: usize) -> Option<Vec<usize>> {
        let mut info = self.route(from)?;
        let mut path = vec![from];
        while let Some(next) = info.next_hop {
            assert!(
                path.len() <= self.len(),
                "forwarding loop: control plane is broken"
            );
            path.push(next);
            info = self
                .route(next)
                .expect("next_hop always points at a routed AS");
        }
        Some(path) // reached the announcement's entry point
    }

    /// Number of ASes holding a route (a popcount of the membership
    /// bits).
    pub fn reached(&self) -> usize {
        self.set.iter().map(|w| w.count_ones() as usize).sum()
    }

    /// Number of ASes whose traffic lands at `target` (one O(n) pass).
    pub fn delivered_to(&self, target: usize) -> usize {
        let lands = |&at: &usize| self.routed(at) && self.routes[at].delivers_to() == target;
        (0..self.len()).filter(lands).count()
    }
}

/// Propagates a prefix announced by `seeds` through `topology`.
///
/// `accept(as_index, claimed_origin)` is the per-AS import filter —
/// return `false` to model the AS dropping the route as RPKI-Invalid.
/// The filter sees the claimed origin, exactly like RFC 6811 validation.
///
/// Runs the engine on the calling thread's reusable
/// [`crate::engine::Workspace`], allocating only the returned table.
///
/// # Panics
///
/// Panics if a seed's `path_len` exceeds
/// [`PropagationEngine::max_seed_len`] for `topology`.
pub fn propagate(
    topology: &Topology,
    seeds: &[Seed],
    accept: &dyn Fn(usize, Asn) -> bool,
) -> Propagation {
    with_workspace(|ws| PropagationEngine::new(topology).propagate(seeds, accept, ws))
}

#[cfg(test)]
impl Propagation {
    /// Packs a per-AS route vector — the form tests build tables in.
    pub(crate) fn pack(routes: &[Option<RouteInfo>]) -> Propagation {
        let mut set = vec![0u64; routes.len().div_ceil(64)];
        let pack = |(at, route): (usize, &Option<RouteInfo>)| {
            let Some(r) = route else {
                return PackedRoute::EMPTY;
            };
            set[at >> 6] |= 1 << (at & 63);
            PackedRoute::new(
                r.class,
                r.path_len,
                r.claimed_origin,
                r.delivers_to,
                r.next_hop,
            )
        };
        let routes = routes.iter().enumerate().map(pack).collect();
        Propagation { set, routes }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::topology::TopologyConfig;

    fn accept_all(_: usize, _: Asn) -> bool {
        true
    }

    #[test]
    fn packed_routes_unpack_to_what_was_packed() {
        let route = |class, path_len, delivers_to, next_hop| {
            Some(RouteInfo {
                class,
                path_len,
                claimed_origin: Asn(u32::MAX - path_len),
                delivers_to,
                next_hop,
            })
        };
        let longest = (1 << PATH_LEN_BITS) - 1;
        let routes = [
            route(RouteClass::Origin, 0, 0, None),
            None,
            route(RouteClass::Customer, 1, 2, Some(0)),
            route(RouteClass::Peer, longest, u32::MAX as usize - 1, Some(3)),
            route(RouteClass::Provider, 7, 3, Some(u32::MAX as usize - 1)),
        ];
        let packed = Propagation::pack(&routes);
        assert_eq!(packed.len(), routes.len());
        assert_eq!(packed.iter().collect::<Vec<_>>(), routes);
        assert_eq!(packed.reached(), 4);
        assert_eq!(packed.delivered_to(3), 1);
    }

    fn topo() -> Topology {
        Topology::generate(TopologyConfig {
            n: 300,
            tier1: 5,
            ..TopologyConfig::default()
        })
    }

    fn origin_seed(t: &Topology, at: usize) -> Seed {
        Seed {
            at,
            path_len: 0,
            claimed_origin: t.asn(at),
        }
    }

    #[test]
    fn single_origin_reaches_everyone() {
        let t = topo();
        let stub = *t.stubs().last().unwrap();
        let prop = propagate(&t, &[origin_seed(&t, stub)], &accept_all);
        assert_eq!(prop.reached(), t.len(), "graph is connected");
        assert_eq!(prop.delivered_to(stub), t.len());
        assert_eq!(prop.route(stub).unwrap().class, RouteClass::Origin);
    }

    #[test]
    fn paths_respect_valley_freedom() {
        // A peer- or provider-learned route is never exported to a peer or
        // provider; with one origin this means: if an AS has a peer route,
        // all its customers below it got it as a provider route — we spot
        // check the classes are consistent with the phases.
        let t = topo();
        let stub = t.stubs()[0];
        let prop = propagate(&t, &[origin_seed(&t, stub)], &accept_all);
        for a in 0..t.len() {
            let Some(info) = prop.route(a) else {
                continue;
            };
            match info.class {
                RouteClass::Origin => assert_eq!(a, stub),
                RouteClass::Customer | RouteClass::Peer | RouteClass::Provider => {
                    assert!(info.path_len >= 1)
                }
            }
        }
    }

    #[test]
    fn customer_route_preferred_over_shorter_provider_route() {
        // Build a tiny explicit topology:
        //      0 (tier1)
        //     /        \
        //    1          2
        //    |          |
        //    3----------+   (3 is customer of 1 and of 2)
        // If 3 originates, AS 0 hears via 1 and 2 (customer routes, len 2).
        // Everyone picks customer routes where available.
        let t = Topology::generate(TopologyConfig {
            n: 6,
            tier1: 1,
            max_providers: 2,
            peer_prob: 0.0,
            seed: 1,
        });
        let stub = *t.stubs().first().unwrap();
        let prop = propagate(&t, &[origin_seed(&t, stub)], &accept_all);
        // All reached ASes with customers on the path kept class ordering:
        // no AS prefers a provider route while a customer route exists —
        // implied by construction; assert everyone is reached.
        assert_eq!(prop.reached(), t.len());
    }

    #[test]
    fn competition_splits_traffic() {
        // Two origins announcing the same prefix from different stubs:
        // both must attract a nonempty share.
        let t = topo();
        let stubs = t.stubs();
        let (a, b) = (stubs[0], stubs[stubs.len() / 2]);
        let prop = propagate(&t, &[origin_seed(&t, a), origin_seed(&t, b)], &accept_all);
        let to_a = prop.delivered_to(a);
        let to_b = prop.delivered_to(b);
        assert_eq!(to_a + to_b, prop.reached());
        assert!(to_a > 0 && to_b > 0, "both origins attract traffic");
    }

    #[test]
    fn longer_seed_path_loses_ties() {
        // A forged-origin announcement starts with path length 1 and so
        // attracts less than an equally-placed true origin would.
        let t = topo();
        let stubs = t.stubs();
        let (victim, attacker) = (stubs[0], stubs[stubs.len() / 2]);
        let claimed = t.asn(victim);
        let fair = propagate(
            &t,
            &[
                origin_seed(&t, victim),
                Seed {
                    at: attacker,
                    path_len: 0,
                    claimed_origin: claimed,
                },
            ],
            &accept_all,
        );
        let forged = propagate(
            &t,
            &[
                origin_seed(&t, victim),
                Seed {
                    at: attacker,
                    path_len: 1,
                    claimed_origin: claimed,
                },
            ],
            &accept_all,
        );
        assert!(forged.delivered_to(attacker) <= fair.delivered_to(attacker));
    }

    #[test]
    fn import_filter_blocks_propagation() {
        let t = topo();
        let stub = t.stubs()[0];
        // Nobody accepts: not even the origin announces.
        let prop = propagate(&t, &[origin_seed(&t, stub)], &|_, _| false);
        assert_eq!(prop.reached(), 0);
        // Everyone but one specific AS accepts.
        let blocked = t.stubs()[1];
        let prop = propagate(&t, &[origin_seed(&t, stub)], &|a, _| a != blocked);
        assert!(prop.route(blocked).is_none());
        assert!(prop.reached() >= t.len() - 2); // blocking a stub strands ≤ itself
    }

    #[test]
    fn deterministic_propagation() {
        let t = topo();
        let stub = t.stubs()[3];
        let a = propagate(&t, &[origin_seed(&t, stub)], &accept_all);
        let b = propagate(&t, &[origin_seed(&t, stub)], &accept_all);
        assert!(a.iter().eq(b.iter()));
    }

    #[test]
    fn empty_seeds_reach_nobody() {
        let t = topo();
        let prop = propagate(&t, &[], &accept_all);
        assert_eq!(prop.reached(), 0);
    }

    #[test]
    fn cached_counters_match_a_rescan() {
        let t = topo();
        let stubs = t.stubs();
        let prop = propagate(
            &t,
            &[origin_seed(&t, stubs[0]), origin_seed(&t, stubs[1])],
            &accept_all,
        );
        assert_eq!(prop.reached(), prop.iter().flatten().count());
        for target in [stubs[0], stubs[1], 0] {
            let rescan = prop
                .iter()
                .flatten()
                .filter(|r| r.delivers_to == target)
                .count();
            assert_eq!(prop.delivered_to(target), rescan);
        }
    }
}

#[cfg(test)]
mod forwarding_tests {
    use super::*;
    use crate::topology::TopologyConfig;

    fn accept_all(_: usize, _: Asn) -> bool {
        true
    }

    #[test]
    fn every_path_terminates_at_the_deliverer() {
        let t = Topology::generate(TopologyConfig {
            n: 500,
            tier1: 6,
            ..TopologyConfig::default()
        });
        let stubs = t.stubs();
        let (a, b) = (stubs[1], stubs[stubs.len() - 2]);
        let seeds = [
            Seed {
                at: a,
                path_len: 0,
                claimed_origin: t.asn(a),
            },
            Seed {
                at: b,
                path_len: 0,
                claimed_origin: t.asn(b),
            },
        ];
        let prop = propagate(&t, &seeds, &accept_all);
        for from in 0..t.len() {
            let Some(info) = prop.route(from) else {
                continue;
            };
            let path = prop.forwarding_path(from).expect("routed AS has a path");
            assert_eq!(*path.first().unwrap(), from);
            // Data plane agrees with the control plane's advertised endpoint.
            assert_eq!(*path.last().unwrap(), info.delivers_to);
            // Each hop is an actual adjacency.
            for pair in path.windows(2) {
                assert!(t.are_neighbors(pair[0], pair[1]), "{pair:?} not adjacent");
            }
            // AS-path length matches hop count plus the seed's claimed
            // extra hops.
            let seed_extra = seeds
                .iter()
                .find(|s| s.at == info.delivers_to)
                .map(|s| s.path_len)
                .unwrap_or(0);
            assert_eq!(info.path_len as usize, path.len() - 1 + seed_extra as usize);
        }
    }

    #[test]
    fn paths_are_valley_free() {
        // Classify each hop and assert the sequence never goes
        // down (to a customer) or sideways (peer) and then up/sideways
        // again — the defining property of Gao-Rexford routing.
        let t = Topology::generate(TopologyConfig {
            n: 500,
            tier1: 6,
            ..TopologyConfig::default()
        });
        let stub = t.stubs()[0];
        let prop = propagate(
            &t,
            &[Seed {
                at: stub,
                path_len: 0,
                claimed_origin: t.asn(stub),
            }],
            &accept_all,
        );
        for from in 0..t.len() {
            if prop.route(from).is_none() {
                continue;
            }
            let path = prop.forwarding_path(from).unwrap();
            // Forwarding direction from..deliverer; hop x->y with y
            // relationship seen from x (an O(log d) CSR lookup).
            let mut descended = false;
            for pair in path.windows(2) {
                let rel = t.relationship(pair[0], pair[1]).unwrap();
                match rel {
                    crate::topology::Relationship::Customer => descended = true,
                    crate::topology::Relationship::Peer => {
                        assert!(!descended, "peer hop after descending: valley");
                        descended = true;
                    }
                    crate::topology::Relationship::Provider => {
                        assert!(!descended, "ascent after descending: valley");
                    }
                }
            }
        }
    }

    #[test]
    fn unrouted_as_has_no_path() {
        let t = Topology::generate(TopologyConfig {
            n: 50,
            tier1: 3,
            ..TopologyConfig::default()
        });
        let prop = propagate(&t, &[], &accept_all);
        assert!(prop.forwarding_path(0).is_none());
    }
}
