//! Property suite for the propagation engine — the hot path every attack
//! trial and matrix cell runs through.
//!
//! For random topology shapes, seeds, and origin placements:
//!
//! * every forwarding path is **valley-free** (never up or sideways
//!   after going down — Gao–Rexford's defining invariant),
//! * **loop-free** (no AS appears twice), and
//! * **next-hop-consistent** (each hop's selected route agrees with its
//!   predecessor on deliverer, claimed origin, and path length, and
//!   every hop is a real adjacency);
//! * the parallel runner ([`ScenarioMatrix::run_par`]) is
//!   **bit-identical** to its sequential fold — for every matrix cell,
//!   and across thread counts.

use proptest::prelude::*;

use bgpsim::experiment::RoaConfig;
use bgpsim::matrix::{ScenarioMatrix, TopologyFamily};
use bgpsim::routing::{propagate, Seed};
use bgpsim::topology::{Relationship, Topology, TopologyConfig};
use bgpsim::DeploymentModel;

fn arb_config() -> impl Strategy<Value = TopologyConfig> {
    (40usize..200, 2usize..6, 1usize..4, 0u32..5, 0u64..1000).prop_map(
        |(n, tier1, max_providers, peer_decile, seed)| TopologyConfig {
            n,
            tier1,
            max_providers,
            peer_prob: peer_decile as f64 / 10.0,
            seed,
        },
    )
}

/// Checks the three path invariants for every routed AS of `prop`.
fn check_paths(t: &Topology, prop: &bgpsim::Propagation) {
    for from in 0..t.len() {
        let Some(info) = prop.route(from) else {
            continue;
        };
        let path = prop.forwarding_path(from).expect("routed AS has a path");
        assert_eq!(path[0], from);
        assert_eq!(*path.last().unwrap(), info.delivers_to);

        // Loop-free: no AS twice.
        let mut seen: Vec<usize> = path.clone();
        seen.sort_unstable();
        seen.dedup();
        assert_eq!(seen.len(), path.len(), "forwarding loop in {path:?}");

        // Valley-free and adjacency: classify each hop as seen from the
        // forwarding AS; once the path descends (customer hop) or moves
        // sideways (peer hop), it may never ascend or peer again.
        let mut descended = false;
        for pair in path.windows(2) {
            let rel = t
                .relationship(pair[0], pair[1])
                .expect("every hop is an adjacency");
            match rel {
                Relationship::Customer => descended = true,
                Relationship::Peer => {
                    assert!(!descended, "peer hop after descending: valley in {path:?}");
                    descended = true;
                }
                Relationship::Provider => {
                    assert!(!descended, "ascent after descending: valley in {path:?}");
                }
            }
        }

        // Next-hop consistency: each hop's own selected route delivers
        // to the same place, claims the same origin, and is one hop
        // shorter than its predecessor's.
        for pair in path.windows(2) {
            let here = prop.route(pair[0]).expect("on-path AS is routed");
            let next = prop.route(pair[1]).expect("next hop is routed");
            assert_eq!(here.next_hop, Some(pair[1]));
            assert_eq!(here.delivers_to, next.delivers_to);
            assert_eq!(here.claimed_origin, next.claimed_origin);
            assert_eq!(here.path_len, next.path_len + 1);
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    #[test]
    fn propagation_paths_are_valley_free_loop_free_and_consistent(
        config in arb_config(),
        origin_picks in prop::collection::vec(any::<prop::sample::Index>(), 1..3),
        filter_salt in any::<u64>(),
    ) {
        let t = Topology::generate(config);
        let stubs = t.stubs();
        if stubs.len() < 2 {
            return; // degenerate draw (the shim has no prop_assume)
        }
        let seeds: Vec<Seed> = {
            let mut picked: Vec<usize> = origin_picks
                .iter()
                .map(|ix| stubs[ix.index(stubs.len())])
                .collect();
            picked.sort_unstable();
            picked.dedup();
            picked.into_iter().map(|at| Seed::origin(at, t.asn(at))).collect()
        };

        // Accept-all world.
        let open = propagate(&t, &seeds, &|_, _| true);
        check_paths(&t, &open);
        // Every AS reaches a connected single-origin world.
        if seeds.len() == 1 {
            prop_assert_eq!(open.reached(), t.len());
        }

        // A deterministic partial import filter (a pseudo-ROV world):
        // the invariants must survive arbitrary route drops.
        let filtered = propagate(&t, &seeds, &|at, _| {
            ((at as u64).wrapping_mul(0x9E37_79B9_7F4A_7C15) ^ filter_salt) > u64::MAX / 4
        });
        check_paths(&t, &filtered);
        prop_assert!(filtered.reached() <= open.reached());
    }

    #[test]
    fn matrix_run_par_is_bit_identical_for_every_cell(
        n in 60usize..160,
        trials in 1usize..4,
        seed in any::<u64>(),
        uniform_decile in 0u32..=10,
    ) {
        let matrix = ScenarioMatrix {
            topologies: vec![TopologyFamily::new(TopologyConfig {
                n,
                tier1: 4,
                ..TopologyConfig::default()
            })],
            strategies: ScenarioMatrix::standard_strategies(),
            deployments: vec![
                DeploymentModel::Uniform { p: uniform_decile as f64 / 10.0 },
                DeploymentModel::TopIspsFirst { p: 0.3 },
                DeploymentModel::StubsOnly { p: 1.0 },
            ],
            roas: RoaConfig::ALL.to_vec(),
            trials,
            seed,
        };
        let sequential = matrix.run();
        let parallel = matrix.run_par();
        // Cell-by-cell (clearer failure reports than one big equality).
        prop_assert_eq!(sequential.cells.len(), parallel.cells.len());
        for (s, p) in sequential.cells.iter().zip(parallel.cells.iter()) {
            prop_assert_eq!(s, p);
        }
        prop_assert_eq!(sequential, parallel);
    }
}

// The RAYON_NUM_THREADS sweep lives in its own test binary
// (`tests/thread_sweep.rs`): it mutates the process environment, which
// the run_par tests in *this* binary read concurrently.
