//! Property suite for the internet-scale power-law generator
//! ([`Topology::generate_internet`]): the structural contracts the 80k
//! bench relies on, checked over random configurations at testable
//! sizes.
//!
//! * **Seed determinism** — two builds from one config produce
//!   byte-identical CSR arrays (the `csr_arrays` surface);
//! * **Connectivity** — every AS reaches a tier-1 over a valley-free
//!   all-provider path (provider chains strictly descend by
//!   construction);
//! * **Degree sanity** — the degree distribution is heavy-tailed but
//!   bounded (no hub swallows the graph) and the stub fraction lands
//!   where the tier structure puts it;
//! * **CSR invariants** — sorted segments, no self loops, no duplicate
//!   edges, symmetric relationships;
//! * **the hierarchy invariant** every `Topology` asserts at
//!   construction, restated: the provider-less ASes are exactly the
//!   pairwise-peered tier-1 clique, and every provider of every other AS
//!   has a smaller index — for both generators, degenerate
//!   configurations included.

use proptest::prelude::*;

use bgpsim::topology::{InternetConfig, Relationship, Topology, TopologyConfig};

/// Random internet-like configurations at proptest-friendly sizes.
fn arb_config() -> impl Strategy<Value = InternetConfig> {
    (
        200usize..1200,
        2usize..8,
        1usize..40, // transit percent (as %, to keep Value: Debug simple)
        1usize..5,
        1usize..60, // peer links per AS in tenths
        any::<u64>(),
    )
        .prop_map(
            |(n, tier1, transit_pct, max_providers, peer_tenths, seed)| InternetConfig {
                n,
                tier1,
                transit_frac: transit_pct as f64 / 100.0,
                max_providers,
                peer_links_per_as: peer_tenths as f64 / 10.0,
                seed,
            },
        )
}

/// Degenerate configurations of both generators: one to three tier-1s,
/// a single provider per AS, no peering or peering on every draw, a
/// handful of ASes.
fn arb_degenerate() -> impl Strategy<Value = (InternetConfig, TopologyConfig)> {
    (1usize..4, 1usize..40, 0usize..101, 0usize..2, any::<u64>()).prop_map(
        |(tier1, extra, transit_pct, peering, seed)| {
            let n = tier1 + extra;
            (
                InternetConfig {
                    n,
                    tier1,
                    transit_frac: transit_pct as f64 / 100.0,
                    max_providers: 1,
                    peer_links_per_as: [0.0, 6.0][peering],
                    seed,
                },
                TopologyConfig {
                    n,
                    tier1,
                    max_providers: 1,
                    peer_prob: [0.0, 1.0][peering],
                    seed,
                },
            )
        },
    )
}

/// The hierarchy invariant, checked from the outside.
fn hierarchy_holds(t: &Topology) -> Result<(), String> {
    for a in 0..t.len() {
        let providers = t.providers(a);
        if a < t.tier1() {
            if !providers.is_empty() {
                return Err(format!("tier-1 AS {a} has a provider"));
            }
            if let Some(b) =
                (0..t.tier1()).find(|&b| b != a && t.relationship(a, b) != Some(Relationship::Peer))
            {
                return Err(format!("tier-1 ASes {a} and {b} do not peer"));
            }
        } else if providers.is_empty() {
            return Err(format!("AS {a} has no provider"));
        } else if let Some(&p) = providers.iter().find(|&&p| p as usize >= a) {
            return Err(format!("AS {a} has provider {p} at or above it"));
        }
    }
    Ok(())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// The hierarchy invariant holds on random and degenerate shapes of
    /// both generators.
    #[test]
    fn hierarchy_invariant_holds(config in arb_config(), degenerate in arb_degenerate()) {
        let (internet, flat) = degenerate;
        for t in [
            Topology::generate_internet(config),
            Topology::generate_internet(internet),
            Topology::generate(flat),
        ] {
            prop_assert_eq!(hierarchy_holds(&t), Ok(()), "{:?}", degenerate);
        }
    }

    /// Same seed ⇒ byte-identical CSR, including across an interleaved
    /// build of a *different* seed (no hidden global state).
    #[test]
    fn same_seed_builds_byte_identical_csr(config in arb_config()) {
        let a = Topology::generate_internet(config);
        let _decoy = Topology::generate_internet(InternetConfig {
            seed: config.seed.wrapping_add(1),
            ..config
        });
        let b = Topology::generate_internet(config);
        prop_assert_eq!(a.csr_arrays(), b.csr_arrays());
        prop_assert_eq!(a.stubs(), b.stubs());
    }

    /// Every AS reaches a tier-1 over an all-provider (valley-free)
    /// path, and provider chains strictly descend — the acyclicity the
    /// Gao–Rexford phases assume.
    #[test]
    fn every_as_reaches_tier1_via_providers(config in arb_config()) {
        let t = Topology::generate_internet(config);
        for a in t.tier1()..t.len() {
            prop_assert!(!t.providers(a).is_empty(), "AS {} has no provider", a);
            // Follow the smallest provider; indices strictly decrease,
            // so the walk reaches the clique in at most `a` steps.
            let mut cur = a;
            let mut steps = 0usize;
            while cur >= t.tier1() {
                let next = t.providers(cur)[0] as usize;
                prop_assert!(next < cur, "provider {} of {} does not descend", next, cur);
                cur = next;
                steps += 1;
                prop_assert!(steps <= a, "provider walk from {} did not terminate", a);
            }
        }
    }

    /// The degree distribution is internet-shaped: a heavy-tailed head
    /// that still leaves no hub adjacent to most of the graph, and a
    /// stub fraction matching the configured tier structure.
    #[test]
    fn degrees_and_stub_fraction_are_sane(config in arb_config()) {
        let t = Topology::generate_internet(config);
        let n = t.len();
        let max_degree = (0..n).map(|a| t.degree(a)).max().unwrap_or(0);
        prop_assert!(
            max_degree < n / 2 + config.tier1,
            "hub of degree {} swallows the {}-AS graph",
            max_degree,
            n
        );
        // Stubs: everything past the transit tier has no customers by
        // construction; customer-less transit ASes may join them.
        let transit = config.tier1
            + ((n - config.tier1) as f64 * config.transit_frac) as usize;
        prop_assert!(t.stubs().len() >= n - transit);
        prop_assert!(t.stubs().len() <= n - config.tier1);
        // The tier-1 clique is intact (fully peered, never a stub).
        for a in 0..config.tier1 {
            prop_assert!(!t.is_stub(a));
            prop_assert_eq!(t.peers(a).len() >= config.tier1 - 1, true);
        }
    }

    /// CSR structural invariants: strictly sorted segments (no
    /// duplicates within a segment), no self loops, one relationship
    /// per AS pair, and symmetric relationships.
    #[test]
    fn csr_invariants_hold(config in arb_config()) {
        let t = Topology::generate_internet(config);
        for a in 0..t.len() {
            let mut row: Vec<u32> = Vec::with_capacity(t.degree(a));
            for seg in [t.customers(a), t.peers(a), t.providers(a)] {
                prop_assert!(
                    seg.windows(2).all(|w| w[0] < w[1]),
                    "unsorted or duplicated segment at AS {}", a
                );
                prop_assert!(
                    !seg.contains(&(a as u32)),
                    "self loop at AS {}", a
                );
                row.extend_from_slice(seg);
            }
            // One relationship per pair: the whole row has no duplicate
            // neighbor across segments.
            row.sort_unstable();
            prop_assert!(
                row.windows(2).all(|w| w[0] < w[1]),
                "AS {} lists a neighbor under two relationships", a
            );
            for (b, rel) in t.neighbors(a) {
                prop_assert_eq!(
                    t.relationship(b, a),
                    Some(rel.flipped()),
                    "asymmetric edge {} <-> {}", a, b
                );
            }
        }
        // Link accounting: the CSR stores each undirected edge twice.
        let degree_sum: usize = (0..t.len()).map(|a| t.degree(a)).sum();
        prop_assert_eq!(degree_sum, 2 * t.link_count());
    }

    /// The peering phase respects its target: enough lateral links to
    /// dominate the link mass at realistic settings, never more than
    /// requested.
    #[test]
    fn peer_target_is_respected(seed in any::<u64>()) {
        let config = InternetConfig {
            n: 2000,
            tier1: 5,
            transit_frac: 0.15,
            max_providers: 3,
            peer_links_per_as: 3.0,
            seed,
        };
        let t = Topology::generate_internet(config);
        let peer_links: usize = (0..t.len()).map(|a| t.peers(a).len()).sum::<usize>() / 2;
        let clique = config.tier1 * (config.tier1 - 1) / 2;
        let target = (config.n as f64 * config.peer_links_per_as) as usize;
        prop_assert!(peer_links <= clique + target);
        // At this size the pair space is vast; the sampler should land
        // essentially all of its budget.
        prop_assert!(peer_links >= clique + target - target / 50);
    }
}

/// The default shape lands about six links per AS; a broad band, so
/// knob tweaks don't trip it, tight enough to catch a broken phase.
#[test]
fn default_shape_link_count_is_internet_like() {
    let n = 10_000;
    let t = Topology::generate_internet(InternetConfig {
        n,
        ..InternetConfig::default()
    });
    let links = t.link_count();
    assert!(
        (4 * n..=9 * n).contains(&links),
        "link count {links} is outside the internet-like band for n={n}"
    );
}
