//! Internet-like AS topologies in a flat CSR layout.
//!
//! The generator follows the structure empirical AS graphs show: a small
//! clique of tier-1 transit providers peering with each other, and every
//! other AS multihoming to 1–3 providers chosen by preferential
//! attachment, plus occasional lateral peering links. That is enough
//! structure for Gao–Rexford routing to exhibit the valley-free,
//! customer-preferred paths the paper's traffic-splitting argument rests
//! on.
//!
//! # CSR layout
//!
//! The graph is stored as one flat `u32` adjacency array in compressed
//! sparse row form. AS `a`'s neighbors occupy
//! `adj[offsets[a]..offsets[a + 1]]`, partitioned into three contiguous,
//! individually **sorted** segments:
//!
//! ```text
//! adj[offsets[a] .. peer_start[a]]        customers of a   (sorted)
//! adj[peer_start[a] .. provider_start[a]] peers of a       (sorted)
//! adj[provider_start[a] .. offsets[a+1]]  providers of a   (sorted)
//! ```
//!
//! The propagation engine's three Gao–Rexford phases each iterate exactly
//! the slice they need ([`Topology::customers`], [`Topology::peers`],
//! [`Topology::providers`]) with no per-edge relationship branch; the
//! sorted segments make [`Topology::relationship`] a binary search
//! (O(log degree)), [`Topology::customer_count`] and
//! [`Topology::is_stub`] O(1) pointer arithmetic, and
//! [`Topology::stubs`] a precomputed slice.

use std::collections::HashSet;

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use rpki_roa::Asn;

/// Domain separator for the transit-attachment RNG stream of
/// [`Topology::generate_internet`] (`seed ^ TRANSIT_DOMAIN`).
const TRANSIT_DOMAIN: u64 = 0x9E37_79B9_7F4A_7C15;
/// Domain separator for the stub-attachment RNG stream.
const STUB_DOMAIN: u64 = 0xC2B2_AE3D_27D4_EB4F;
/// Domain separator for the lateral-peering RNG stream.
const PEER_DOMAIN: u64 = 0x1656_67B1_9E37_79F9;

/// The business relationship of an edge, from the perspective of one end.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Relationship {
    /// The neighbor is our customer (they pay us).
    Customer,
    /// The neighbor is our provider (we pay them).
    Provider,
    /// Settlement-free peering.
    Peer,
}

impl Relationship {
    /// The same edge seen from the other end.
    pub fn flipped(self) -> Relationship {
        match self {
            Relationship::Customer => Relationship::Provider,
            Relationship::Provider => Relationship::Customer,
            Relationship::Peer => Relationship::Peer,
        }
    }
}

/// Configuration for [`Topology::generate`].
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct TopologyConfig {
    /// Total number of ASes (≥ `tier1 + 1`).
    pub n: usize,
    /// Size of the fully-peered tier-1 clique.
    pub tier1: usize,
    /// Maximum providers per non-tier-1 AS (1..=max, degree-weighted).
    pub max_providers: usize,
    /// Probability that a new AS also gets one lateral peer link.
    pub peer_prob: f64,
    /// RNG seed.
    pub seed: u64,
}

impl Default for TopologyConfig {
    fn default() -> Self {
        TopologyConfig {
            n: 1000,
            tier1: 8,
            max_providers: 3,
            peer_prob: 0.2,
            seed: 7,
        }
    }
}

/// Configuration for [`Topology::generate_internet`] — the
/// internet-scale power-law generator. Defaults target the real
/// AS-level internet's shape: ~80k ASes, ~500k links, a small tier-1
/// clique, a transit mid-tier carrying preferential attachment, and a
/// large stub fringe whose lateral peering supplies most of the link
/// mass (as in measured AS graphs, where peer-to-peer links dominate).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct InternetConfig {
    /// Total number of ASes (≥ `tier1 + 1`).
    pub n: usize,
    /// Size of the fully-peered tier-1 clique.
    pub tier1: usize,
    /// Fraction of non-tier-1 ASes that are transit (customer-bearing)
    /// networks; the rest are stubs.
    pub transit_frac: f64,
    /// Maximum providers per stub (1..=max, degree-weighted). Transit
    /// ASes multihome more aggressively: up to `max_providers + 2`.
    pub max_providers: usize,
    /// Mean lateral peer links per AS (drives the ~500k-link total).
    pub peer_links_per_as: f64,
    /// RNG seed; each generation phase derives a domain-separated
    /// stream from it.
    pub seed: u64,
}

impl Default for InternetConfig {
    fn default() -> Self {
        InternetConfig {
            n: 80_000,
            tier1: 20,
            transit_frac: 0.15,
            max_providers: 3,
            peer_links_per_as: 4.1,
            seed: 2017,
        }
    }
}

/// An AS-level graph with annotated business relationships, stored as a
/// flat CSR adjacency (see the [module docs](self) for the layout).
///
/// ASes are dense indices `0..n`; [`Topology::asn`] maps to the public
/// [`Asn`] numbering (index + 1).
///
/// # Hierarchy invariant
///
/// Both generators build it and construction asserts it, in O(V + E):
/// the provider-less ASes are exactly the pairwise-peered tier-1 clique
/// `0..tier1()`, and every provider of every other AS has a smaller
/// index. So an announcement no AS filters reaches every AS: up to the
/// clique, across it, and down every customer chain. The trial executor
/// relies on this to answer stagings without propagating
/// ([`crate::PropagationEngine::unfiltered_path_len`]). And index order
/// is a topological order of the customer→provider graph, so a
/// provider-route phase can be settled in one ascending sweep, every
/// provider before its customers.
#[derive(Debug, Clone)]
pub struct Topology {
    /// Flat neighbor ids: `[customers | peers | providers]` per AS, each
    /// segment sorted ascending.
    adj: Vec<u32>,
    /// `adj[offsets[a]..offsets[a + 1]]` is AS `a`'s row (`n + 1` entries).
    offsets: Vec<u32>,
    /// Absolute start of AS `a`'s peer segment within `adj`.
    peer_start: Vec<u32>,
    /// Absolute start of AS `a`'s provider segment within `adj`.
    provider_start: Vec<u32>,
    /// Customer-less non-tier-1 ASes, precomputed at generation, sorted.
    stubs: Vec<usize>,
    tier1: usize,
}

impl Topology {
    /// Generates a topology.
    ///
    /// # Panics
    ///
    /// Panics if `n <= tier1` or `tier1 == 0` or `max_providers == 0`.
    pub fn generate(config: TopologyConfig) -> Topology {
        assert!(config.tier1 >= 1, "need at least one tier-1");
        assert!(config.n > config.tier1, "need ASes beyond the clique");
        assert!(config.max_providers >= 1);
        assert!(
            config.n <= u32::MAX as usize,
            "CSR adjacency indexes ASes as u32"
        );
        let mut rng = StdRng::seed_from_u64(config.seed);
        // Build in temporary per-AS lists (the generator needs adjacency
        // queries on the partially built graph), then flatten to CSR.
        let mut lists: Vec<Vec<(usize, Relationship)>> = vec![Vec::new(); config.n];
        let add_edge = |lists: &mut Vec<Vec<(usize, Relationship)>>,
                        a: usize,
                        b: usize,
                        rel_of_b_from_a: Relationship| {
            lists[a].push((b, rel_of_b_from_a));
            lists[b].push((a, rel_of_b_from_a.flipped()));
        };
        // Tier-1 clique: everyone peers with everyone.
        for a in 0..config.tier1 {
            for b in (a + 1)..config.tier1 {
                add_edge(&mut lists, a, b, Relationship::Peer);
            }
        }
        // Everyone else: preferential attachment to providers.
        // `degree + 1` weighting via sampling from an endpoint list.
        let mut endpoints: Vec<usize> = (0..config.tier1).collect();
        for a in config.tier1..config.n {
            let k = rng.gen_range(1..=config.max_providers);
            let mut providers = Vec::with_capacity(k);
            for _ in 0..k {
                let candidate = endpoints[rng.gen_range(0..endpoints.len())];
                if candidate != a && !providers.contains(&candidate) {
                    providers.push(candidate);
                }
            }
            if providers.is_empty() {
                providers.push(rng.gen_range(0..config.tier1));
            }
            for &p in &providers {
                // p is a's provider.
                add_edge(&mut lists, a, p, Relationship::Provider);
                endpoints.push(p);
                endpoints.push(a);
            }
            if rng.gen_bool(config.peer_prob) && a > config.tier1 {
                let peer = rng.gen_range(config.tier1..a);
                if peer != a && !lists[a].iter().any(|&(b, _)| b == peer) {
                    add_edge(&mut lists, a, peer, Relationship::Peer);
                }
            }
        }
        Topology::from_lists(lists, config.tier1)
    }

    /// Generates an internet-scale power-law topology.
    ///
    /// Three deterministic phases, each on its own domain-separated RNG
    /// stream (`seed ^ DOMAIN`, the same discipline the deployment
    /// sampler and the world allocator use), so the same seed produces
    /// a **byte-identical CSR** regardless of how the phases evolve
    /// independently:
    ///
    /// 1. **Tier-1 clique** — indices `0..tier1` peer with each other.
    /// 2. **Provider attachment** — transit ASes (`tier1..transit`)
    ///    then stubs (`transit..n`) multihome to providers drawn from a
    ///    degree-weighted endpoint list of transit-capable ASes.
    ///    Providers always have a smaller index than their customers,
    ///    so provider chains strictly descend to the clique: the
    ///    customer→provider DAG is acyclic and every AS reaches a
    ///    tier-1 over a valley-free (all-provider) path by
    ///    construction.
    /// 3. **Lateral peering** — `n * peer_links_per_as` peer links
    ///    drawn from a degree-weighted pool of non-tier-1 ASes
    ///    (rich-get-richer: both ends of every accepted link re-enter
    ///    the pool), deduplicated against all existing edges via a
    ///    packed edge-key set.
    ///
    /// # Panics
    ///
    /// Panics on the same degenerate configurations as
    /// [`Topology::generate`].
    pub fn generate_internet(config: InternetConfig) -> Topology {
        assert!(config.tier1 >= 1, "need at least one tier-1");
        assert!(config.n > config.tier1, "need ASes beyond the clique");
        assert!(config.max_providers >= 1);
        assert!(
            config.n <= u32::MAX as usize,
            "CSR adjacency indexes ASes as u32"
        );
        let n = config.n;
        let tier1 = config.tier1;
        // First index past the transit mid-tier; everything from here on
        // is a stub.
        let transit = tier1 + ((n - tier1) as f64 * config.transit_frac) as usize;
        let mut lists: Vec<Vec<(usize, Relationship)>> = vec![Vec::new(); n];
        let add_edge = |lists: &mut Vec<Vec<(usize, Relationship)>>,
                        a: usize,
                        b: usize,
                        rel_of_b_from_a: Relationship| {
            lists[a].push((b, rel_of_b_from_a));
            lists[b].push((a, rel_of_b_from_a.flipped()));
        };

        // Phase 1: tier-1 clique.
        for a in 0..tier1 {
            for b in (a + 1)..tier1 {
                add_edge(&mut lists, a, b, Relationship::Peer);
            }
        }

        // Phase 2: provider attachment. `endpoints` holds one entry per
        // customer edge endpoint on a transit-capable AS, so drawing
        // uniformly from it is degree-proportional preferential
        // attachment; only already-attached ASes are in the list, so
        // every provider index is strictly below its customer's.
        let mut endpoints: Vec<u32> = (0..tier1 as u32).collect();
        let attach = |lists: &mut Vec<Vec<(usize, Relationship)>>,
                      endpoints: &mut Vec<u32>,
                      rng: &mut StdRng,
                      a: usize,
                      max_providers: usize,
                      customer_reenters: bool| {
            let k = rng.gen_range(1..=max_providers);
            let mut chosen: Vec<u32> = Vec::with_capacity(k);
            for _ in 0..k {
                let candidate = endpoints[rng.gen_range(0..endpoints.len())];
                if !chosen.contains(&candidate) {
                    chosen.push(candidate);
                }
            }
            // `k >= 1` and every candidate differs from `a` (the
            // endpoint list only holds already-attached ASes), so at
            // least one provider is always chosen.
            for &p in &chosen {
                add_edge(lists, a, p as usize, Relationship::Provider);
                endpoints.push(p);
                if customer_reenters {
                    endpoints.push(a as u32);
                }
            }
        };
        let mut rng = StdRng::seed_from_u64(config.seed ^ TRANSIT_DOMAIN);
        for a in tier1..transit {
            attach(
                &mut lists,
                &mut endpoints,
                &mut rng,
                a,
                config.max_providers + 2,
                true,
            );
        }
        let mut rng = StdRng::seed_from_u64(config.seed ^ STUB_DOMAIN);
        for a in transit..n {
            // Stubs never re-enter the endpoint list: they cannot carry
            // transit, but their provider choices still fatten the hubs.
            attach(
                &mut lists,
                &mut endpoints,
                &mut rng,
                a,
                config.max_providers,
                false,
            );
        }

        // Phase 3: lateral peering among non-tier-1 ASes.
        let mut rng = StdRng::seed_from_u64(config.seed ^ PEER_DOMAIN);
        let key = |a: usize, b: usize| ((a.min(b) as u64) << 32) | a.max(b) as u64;
        let mut seen: HashSet<u64> = HashSet::with_capacity(lists.len() * 4);
        for (a, list) in lists.iter().enumerate() {
            for &(b, _) in list {
                if a < b {
                    seen.insert(key(a, b));
                }
            }
        }
        let target = (n as f64 * config.peer_links_per_as) as usize;
        let mut pool: Vec<u32> = (tier1 as u32..n as u32).collect();
        let mut added = 0;
        // The attempt bound only matters for tiny graphs where the
        // target exceeds the number of distinct pairs.
        let mut attempts = 20 * target;
        while added < target && attempts > 0 && pool.len() >= 2 {
            attempts -= 1;
            let a = pool[rng.gen_range(0..pool.len())] as usize;
            let b = pool[rng.gen_range(0..pool.len())] as usize;
            if a == b || !seen.insert(key(a, b)) {
                continue;
            }
            add_edge(&mut lists, a, b, Relationship::Peer);
            pool.push(a as u32);
            pool.push(b as u32);
            added += 1;
        }

        Topology::from_lists(lists, tier1)
    }

    /// Flattens per-AS neighbor lists into the sorted, partitioned CSR
    /// arrays, precomputes the stub set and asserts the hierarchy
    /// invariant (see [`Topology`]).
    fn from_lists(lists: Vec<Vec<(usize, Relationship)>>, tier1: usize) -> Topology {
        let n = lists.len();
        let total: usize = lists.iter().map(Vec::len).sum();
        assert!(
            total <= u32::MAX as usize,
            "CSR offsets index adjacency entries as u32"
        );
        let mut adj = Vec::with_capacity(total);
        let mut offsets = Vec::with_capacity(n + 1);
        let mut peer_start = Vec::with_capacity(n);
        let mut provider_start = Vec::with_capacity(n);
        let mut seg: Vec<u32> = Vec::new();
        offsets.push(0u32);
        for list in &lists {
            for wanted in [
                Relationship::Customer,
                Relationship::Peer,
                Relationship::Provider,
            ] {
                seg.clear();
                seg.extend(
                    list.iter()
                        .filter(|&&(_, rel)| rel == wanted)
                        .map(|&(b, _)| b as u32),
                );
                seg.sort_unstable();
                match wanted {
                    Relationship::Customer => peer_start.push(adj.len() as u32 + seg.len() as u32),
                    Relationship::Peer => provider_start.push(adj.len() as u32 + seg.len() as u32),
                    Relationship::Provider => {}
                }
                adj.extend_from_slice(&seg);
            }
            offsets.push(adj.len() as u32);
        }
        let stubs = (tier1..n)
            .filter(|&a| peer_start[a] == offsets[a]) // no customers
            .collect();
        let topology = Topology {
            adj,
            offsets,
            peer_start,
            provider_start,
            stubs,
            tier1,
        };
        for a in 0..n {
            let providers = topology.providers(a);
            // Sorted peers: a tier-1's clique mates come first.
            let clique = (0..tier1 as u32).filter(|&b| b as usize != a);
            let holds = if a < tier1 {
                let peers = topology.peers(a).iter().take(tier1 - 1).copied();
                providers.is_empty() && peers.eq(clique)
            } else {
                // Sorted: the largest provider is the last.
                providers.last().is_some_and(|&p| (p as usize) < a)
            };
            assert!(holds, "AS {a} breaks the hierarchy invariant");
        }
        topology
    }

    /// Number of ASes.
    pub fn len(&self) -> usize {
        self.offsets.len() - 1
    }

    /// `true` if the graph has no ASes.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Number of tier-1 ASes (indices `0..tier1()`).
    pub fn tier1(&self) -> usize {
        self.tier1
    }

    /// Bytes held by the CSR arrays and the stub index — the resident
    /// cost of keeping this topology alive, reported by the benchmark
    /// so memory regressions show up without a profiler. Counts
    /// capacities (what the allocator holds), not lengths.
    pub fn memory_bytes(&self) -> usize {
        self.adj.capacity() * 4
            + self.offsets.capacity() * 4
            + self.peer_start.capacity() * 4
            + self.provider_start.capacity() * 4
            + self.stubs.capacity() * std::mem::size_of::<usize>()
    }

    /// The customers of `a`, sorted ascending (CSR segment).
    pub fn customers(&self, a: usize) -> &[u32] {
        &self.adj[self.offsets[a] as usize..self.peer_start[a] as usize]
    }

    /// The peers of `a`, sorted ascending (CSR segment).
    pub fn peers(&self, a: usize) -> &[u32] {
        &self.adj[self.peer_start[a] as usize..self.provider_start[a] as usize]
    }

    /// The providers of `a`, sorted ascending (CSR segment).
    pub fn providers(&self, a: usize) -> &[u32] {
        &self.adj[self.provider_start[a] as usize..self.offsets[a + 1] as usize]
    }

    /// The neighbors of `a` with their relationship as seen from `a`,
    /// in CSR order: customers, then peers, then providers.
    pub fn neighbors(&self, a: usize) -> impl Iterator<Item = (usize, Relationship)> + '_ {
        self.customers(a)
            .iter()
            .map(|&b| (b as usize, Relationship::Customer))
            .chain(
                self.peers(a)
                    .iter()
                    .map(|&b| (b as usize, Relationship::Peer)),
            )
            .chain(
                self.providers(a)
                    .iter()
                    .map(|&b| (b as usize, Relationship::Provider)),
            )
    }

    /// Total degree of `a`.
    ///
    /// A test hook: `tests/topology_props.rs` checks the degree
    /// distribution with it.
    pub fn degree(&self, a: usize) -> usize {
        (self.offsets[a + 1] - self.offsets[a]) as usize
    }

    /// The relationship of `b` as seen from `a`, if they are neighbors.
    /// Binary search over the sorted CSR segments: O(log degree(a)).
    ///
    /// A test hook: `tests/topology_props.rs` and `tests/routing_props.rs`
    /// check edges and valley-free paths with it.
    pub fn relationship(&self, a: usize, b: usize) -> Option<Relationship> {
        let b = u32::try_from(b).ok()?;
        for (seg, rel) in [
            (self.customers(a), Relationship::Customer),
            (self.peers(a), Relationship::Peer),
            (self.providers(a), Relationship::Provider),
        ] {
            if seg.binary_search(&b).is_ok() {
                return Some(rel);
            }
        }
        None
    }

    /// Number of customers of `a` — the degree measure the
    /// top-ISPs-first deployment model ranks by (transit size). O(1).
    pub fn customer_count(&self, a: usize) -> usize {
        (self.peer_start[a] - self.offsets[a]) as usize
    }

    /// `true` if `a` has no customers (an edge/stub network, the typical
    /// hijack victim). Tier-1 ASes are never considered stubs, even when
    /// the generator happens to attach no customer to one. O(1).
    ///
    /// A test hook: `tests/topology_props.rs` and the crate's unit tests
    /// check the stub index with it.
    pub fn is_stub(&self, a: usize) -> bool {
        a >= self.tier1 && self.customer_count(a) == 0
    }

    /// All stub AS indices, precomputed at generation time (sorted).
    pub fn stubs(&self) -> &[usize] {
        &self.stubs
    }

    /// The public AS number of index `a`.
    pub fn asn(&self, a: usize) -> Asn {
        Asn(a as u32 + 1)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn small() -> Topology {
        Topology::generate(TopologyConfig {
            n: 200,
            tier1: 5,
            ..TopologyConfig::default()
        })
    }

    #[test]
    fn deterministic() {
        let a = small();
        let b = small();
        for i in 0..a.len() {
            assert_eq!(
                a.neighbors(i).collect::<Vec<_>>(),
                b.neighbors(i).collect::<Vec<_>>()
            );
        }
    }

    #[test]
    fn tier1_clique_is_fully_peered() {
        let t = small();
        for a in 0..t.tier1() {
            for b in 0..t.tier1() {
                if a != b {
                    assert!(t.relationship(a, b).is_some());
                    assert_eq!(t.relationship(a, b), Some(Relationship::Peer));
                }
            }
        }
    }

    #[test]
    fn relationships_are_symmetric() {
        let t = small();
        for a in 0..t.len() {
            for (b, rel) in t.neighbors(a) {
                let back = t.relationship(b, a).expect("edge must be bidirectional");
                assert_eq!(back, rel.flipped());
            }
        }
    }

    /// The hierarchy invariant, restated pair by pair.
    fn assert_hierarchy(t: &Topology) {
        let roots: Vec<usize> = (0..t.len())
            .filter(|&a| t.providers(a).is_empty())
            .collect();
        assert_eq!(roots, (0..t.tier1()).collect::<Vec<_>>());
        for a in 0..t.tier1() {
            for b in (a + 1)..t.tier1() {
                assert_eq!(t.relationship(a, b), Some(Relationship::Peer));
            }
        }
        for a in t.tier1()..t.len() {
            assert!(!t.providers(a).is_empty(), "AS {a}");
            assert!(t.providers(a).iter().all(|&p| (p as usize) < a), "AS {a}");
        }
    }

    #[test]
    fn both_generators_build_the_hierarchy_invariant() {
        for seed in 0..12 {
            for (n, tier1) in [(2, 1), (4, 3), (30, 1), (30, 2), (200, 3), (200, 8)] {
                for max_providers in [1, 3] {
                    for peer_prob in [0.0, 1.0] {
                        assert_hierarchy(&Topology::generate(TopologyConfig {
                            n,
                            tier1,
                            max_providers,
                            peer_prob,
                            seed,
                        }));
                    }
                    for peer_links_per_as in [0.0, 6.0] {
                        assert_hierarchy(&Topology::generate_internet(InternetConfig {
                            n,
                            tier1,
                            transit_frac: 0.3,
                            max_providers,
                            peer_links_per_as,
                            seed,
                        }));
                    }
                }
            }
        }
    }

    /// AS 0 alone, and AS 1 above AS 2.
    fn split() -> Vec<Vec<(usize, Relationship)>> {
        use Relationship::{Customer, Provider};
        vec![vec![], vec![(2, Customer)], vec![(1, Provider)]]
    }

    #[test]
    fn construction_accepts_the_hierarchy() {
        use Relationship::Peer;
        let mut peered = split();
        peered[0].push((1, Peer));
        peered[1].push((0, Peer));
        assert_hierarchy(&Topology::from_lists(peered, 2));
    }

    #[test]
    #[should_panic(expected = "AS 1 breaks the hierarchy invariant")]
    fn construction_rejects_a_provider_less_non_tier1() {
        Topology::from_lists(split(), 1);
    }

    #[test]
    #[should_panic(expected = "AS 0 breaks the hierarchy invariant")]
    fn construction_rejects_an_unpeered_clique() {
        Topology::from_lists(split(), 2);
    }

    #[test]
    #[should_panic(expected = "AS 1 breaks the hierarchy invariant")]
    fn construction_rejects_a_provider_above() {
        use Relationship::{Customer, Provider};
        let lists = vec![vec![], vec![(2, Provider)], vec![(1, Customer)]];
        Topology::from_lists(lists, 1);
    }

    #[test]
    #[should_panic(expected = "AS 1 breaks the hierarchy invariant")]
    fn construction_rejects_a_second_provider_above() {
        // AS 1's first provider (0) is below it, its second (2) above.
        use Relationship::{Customer, Provider};
        let lists = vec![
            vec![(1, Customer), (2, Customer)],
            vec![(0, Provider), (2, Provider)],
            vec![(0, Provider), (1, Customer)],
        ];
        Topology::from_lists(lists, 1);
    }

    #[test]
    fn stubs_exist_and_have_no_customers() {
        let t = small();
        let stubs = t.stubs();
        assert!(stubs.len() > t.len() / 4, "expected many stubs");
        for &s in stubs {
            assert!(t.is_stub(s));
            assert!(t.customers(s).is_empty());
        }
        // Precomputed slice is exactly the filter over all ASes.
        let scan: Vec<usize> = (t.tier1()..t.len()).filter(|&a| t.is_stub(a)).collect();
        assert_eq!(stubs, scan.as_slice());
    }

    #[test]
    fn csr_segments_are_sorted_and_partition_the_row() {
        let t = small();
        for a in 0..t.len() {
            for seg in [t.customers(a), t.peers(a), t.providers(a)] {
                assert!(seg.windows(2).all(|w| w[0] < w[1]), "unsorted segment");
            }
            assert_eq!(
                t.customers(a).len() + t.peers(a).len() + t.providers(a).len(),
                t.degree(a)
            );
            // Segment membership agrees with the relationship lookup.
            for &b in t.customers(a) {
                assert_eq!(t.relationship(a, b as usize), Some(Relationship::Customer));
            }
            for &b in t.peers(a) {
                assert_eq!(t.relationship(a, b as usize), Some(Relationship::Peer));
            }
            for &b in t.providers(a) {
                assert_eq!(t.relationship(a, b as usize), Some(Relationship::Provider));
            }
        }
    }

    #[test]
    fn relationship_and_customer_count_agree_with_neighbors() {
        let t = small();
        for a in 0..t.len() {
            let mut customers = 0;
            for (b, rel) in t.neighbors(a) {
                assert_eq!(t.relationship(a, b), Some(rel));
                if rel == Relationship::Customer {
                    customers += 1;
                }
            }
            assert_eq!(t.customer_count(a), customers);
        }
        // Stubs have no customers; somebody provides transit.
        for &s in t.stubs() {
            assert_eq!(t.customer_count(s), 0);
        }
        assert!((0..t.len()).any(|a| t.customer_count(a) > 0));
        // Out-of-range neighbor ids are simply absent.
        assert_eq!(t.relationship(0, usize::MAX), None);
    }

    #[test]
    fn flipped_is_involution() {
        for rel in [
            Relationship::Customer,
            Relationship::Provider,
            Relationship::Peer,
        ] {
            assert_eq!(rel.flipped().flipped(), rel);
        }
    }

    #[test]
    #[should_panic(expected = "need ASes beyond the clique")]
    fn rejects_degenerate_config() {
        Topology::generate(TopologyConfig {
            n: 5,
            tier1: 5,
            ..TopologyConfig::default()
        });
    }
}
