//! Differential property suite for the flat-graph propagation engine.
//!
//! The engine ([`bgpsim::PropagationEngine`]) must be **bit-identical**
//! to the kept reference implementation
//! ([`bgpsim::routing::propagate_reference`]) — same routes, same
//! deterministic tie-breaks, same `next_hop` choices — on:
//!
//! * random topologies (sizes, tier mixes, peering densities),
//! * random multi-seed sets (origins, forged origins, prepended paths),
//! * random import filters (hash-derived accept/reject worlds), and
//! * precomputed [`bgpsim::OriginFilter`]s vs the equivalent per-edge
//!   VRP validation closure.
//!
//! It must also be **reuse-clean**: back-to-back runs through one
//! [`bgpsim::Workspace`] are identical to fresh-workspace runs — the
//! test that catches stale-epoch scratch bugs.

use proptest::prelude::*;

use bgpsim::engine::{CompiledPolicies, OriginFilter};
use bgpsim::routing::{propagate_reference, Seed};
use bgpsim::topology::{Topology, TopologyConfig};
use bgpsim::{PropagationEngine, Workspace};
use rpki_prefix::Prefix;
use rpki_roa::{Asn, RouteOrigin, Vrp};
use rpki_rov::{RovPolicy, VrpIndex};

fn arb_config() -> impl Strategy<Value = TopologyConfig> {
    (30usize..160, 2usize..6, 1usize..4, 0u32..6, 0u64..1000).prop_map(
        |(n, tier1, max_providers, peer_decile, seed)| TopologyConfig {
            n,
            tier1,
            max_providers,
            peer_prob: peer_decile as f64 / 10.0,
            seed,
        },
    )
}

/// Random seed sets: placement, initial path length (0 = origin, 1 =
/// forged, more = prepended), and claimed origin all vary — including
/// claimed origins that belong to *other* ASes (hijack shapes).
fn arb_seeds() -> impl Strategy<Value = Vec<(prop::sample::Index, u32, prop::sample::Index)>> {
    prop::collection::vec(
        (
            any::<prop::sample::Index>(),
            0u32..4,
            any::<prop::sample::Index>(),
        ),
        1..5,
    )
}

fn materialize_seeds(
    t: &Topology,
    picks: &[(prop::sample::Index, u32, prop::sample::Index)],
) -> Vec<Seed> {
    picks
        .iter()
        .map(|(at, path_len, claimed)| Seed {
            at: at.index(t.len()),
            path_len: *path_len,
            claimed_origin: t.asn(claimed.index(t.len())),
        })
        .collect()
}

/// A deterministic pseudo-random accept filter over (AS, claimed origin).
fn hash_filter(salt: u64) -> impl Fn(usize, Asn) -> bool {
    move |at, origin| {
        let x = (at as u64)
            .wrapping_mul(0x9E37_79B9_7F4A_7C15)
            .wrapping_add(u64::from(origin.into_u32()).wrapping_mul(0xD6E8_FEB8_6659_FD93))
            ^ salt;
        // Accept ~¾ of (AS, origin) pairs.
        x.wrapping_mul(0xFF51_AFD7_ED55_8CCD) > u64::MAX / 4
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(32))]

    /// Engine == reference on random topologies, seed sets, and filters.
    #[test]
    fn engine_is_bit_identical_to_reference(
        config in arb_config(),
        seed_picks in arb_seeds(),
        salt in any::<u64>(),
    ) {
        let t = Topology::generate(config);
        let seeds = materialize_seeds(&t, &seed_picks);
        let engine = PropagationEngine::new(&t);
        let mut ws = Workspace::new();

        // Accept-all world.
        let open_engine = engine.propagate(&seeds, &|_: usize, _: Asn| true, &mut ws);
        let open_reference = propagate_reference(&t, &seeds, &|_, _| true);
        prop_assert_eq!(open_engine.routes(), open_reference.routes());

        // Random partial-filter world (same workspace, back to back).
        let filter = hash_filter(salt);
        let filtered_engine = engine.propagate(&seeds, &filter, &mut ws);
        let filtered_reference = propagate_reference(&t, &seeds, &|at, o| filter(at, o));
        prop_assert_eq!(filtered_engine.routes(), filtered_reference.routes());

        // Cached counters agree with the reference's.
        prop_assert_eq!(filtered_engine.reached(), filtered_reference.reached());
        for seed in &seeds {
            prop_assert_eq!(
                filtered_engine.delivered_to(seed.at),
                filtered_reference.delivered_to(seed.at)
            );
        }
    }

    /// Back-to-back runs through one workspace are identical to
    /// fresh-workspace runs — stale epoch stamps, leftover bucket
    /// entries, or missed resets would surface here.
    #[test]
    fn workspace_reuse_matches_fresh_workspaces(
        configs in prop::collection::vec(arb_config(), 2..4),
        seed_picks in arb_seeds(),
        salt in any::<u64>(),
    ) {
        let mut shared = Workspace::new();
        let filter = hash_filter(salt);
        // Interleave differently-sized topologies and filters through the
        // same workspace; every run must match a fresh one.
        for config in configs {
            let t = Topology::generate(config);
            let seeds = materialize_seeds(&t, &seed_picks);
            let engine = PropagationEngine::new(&t);
            for use_filter in [false, true, true] {
                let (reused, fresh) = if use_filter {
                    (
                        engine.propagate(&seeds, &filter, &mut shared),
                        engine.propagate(&seeds, &filter, &mut Workspace::new()),
                    )
                } else {
                    (
                        engine.propagate(&seeds, &|_: usize, _: Asn| true, &mut shared),
                        engine.propagate(&seeds, &|_: usize, _: Asn| true, &mut Workspace::new()),
                    )
                };
                prop_assert_eq!(reused.routes(), fresh.routes());
            }
        }
    }

    /// The precomputed OriginFilter path (compiled adopter bitset + one
    /// VRP resolution per origin) equals per-edge index validation fed to
    /// the reference implementation.
    #[test]
    fn origin_filter_equals_per_edge_validation(
        config in arb_config(),
        victim_pick in any::<prop::sample::Index>(),
        attacker_pick in any::<prop::sample::Index>(),
        max_len in 16u8..26,
        wrong_origin in any::<bool>(),
        policy_salt in any::<u64>(),
    ) {
        let t = Topology::generate(config);
        let victim = victim_pick.index(t.len());
        let attacker = attacker_pick.index(t.len());
        let p: Prefix = "168.122.0.0/16".parse().unwrap();
        let roa_asn = if wrong_origin { t.asn(attacker) } else { t.asn(victim) };
        let vrps: VrpIndex = [Vrp::new(p, max_len, roa_asn)].into_iter().collect();
        let policies: Vec<RovPolicy> = (0..t.len())
            .map(|at| {
                if (at as u64).wrapping_mul(0x2545_F491_4F6C_DD1D) ^ policy_salt > u64::MAX / 2 {
                    RovPolicy::DropInvalid
                } else {
                    RovPolicy::AcceptAll
                }
            })
            .collect();
        let compiled = CompiledPolicies::compile(&policies);

        let seeds = vec![
            Seed::origin(victim, t.asn(victim)),
            Seed::forged(attacker, t.asn(victim)),
        ];
        let origins = [t.asn(victim)];
        let fast = OriginFilter::new(&vrps, p, &origins, &compiled);
        let engine = PropagationEngine::new(&t);
        let via_filter = engine.propagate(
            &seeds,
            &|at: usize, o: Asn| fast.accept(at, o),
            &mut Workspace::new(),
        );
        let via_validation = propagate_reference(&t, &seeds, &|at, o| {
            policies[at].permits(vrps.validate(&RouteOrigin::new(p, o)))
        });
        prop_assert_eq!(via_filter.routes(), via_validation.routes());
    }
}

/// A long reuse chain over one topology — hammers epoch advancement on a
/// single workspace far past anything the proptests draw.
#[test]
fn long_reuse_chain_stays_clean() {
    let t = Topology::generate(TopologyConfig {
        n: 120,
        tier1: 4,
        ..TopologyConfig::default()
    });
    let stubs = t.stubs();
    let engine = PropagationEngine::new(&t);
    let mut shared = Workspace::new();
    for i in 0..200 {
        let a = stubs[i % stubs.len()];
        let b = stubs[(i * 7 + 3) % stubs.len()];
        let seeds = [Seed::origin(a, t.asn(a)), Seed::forged(b, t.asn(a))];
        let reused = engine.propagate(&seeds, &|_: usize, _: Asn| true, &mut shared);
        let reference = propagate_reference(&t, &seeds, &|_, _| true);
        assert_eq!(reused.routes(), reference.routes(), "iteration {i}");
    }
}
