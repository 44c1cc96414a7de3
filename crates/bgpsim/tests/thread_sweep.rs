//! The thread-count sweep, in a binary of its own: `RAYON_NUM_THREADS`
//! is read by the rayon shim at every fan-out, so varying it exercises
//! genuinely different chunkings — and the matrix report must not move.
//!
//! This is the one test that mutates the process environment; isolating
//! it in a separate test binary (cargo runs test binaries one at a
//! time) keeps the mutation from racing the other suites' `run_par`
//! calls, which read the variable concurrently within their binary.

use bgpsim::experiment::RoaConfig;
use bgpsim::matrix::{ScenarioMatrix, TopologyFamily};
use bgpsim::topology::{Topology, TopologyConfig};
use bgpsim::{CellAccumulator, DeploymentModel, Executor};

#[test]
fn matrix_run_par_is_thread_count_invariant() {
    let matrix = ScenarioMatrix {
        topologies: vec![TopologyFamily::new(TopologyConfig {
            n: 140,
            tier1: 4,
            ..TopologyConfig::default()
        })],
        strategies: ScenarioMatrix::standard_strategies(),
        deployments: DeploymentModel::standard(),
        roas: RoaConfig::ALL.to_vec(),
        trials: 3,
        seed: 77,
    };
    let reference = matrix.run();
    for threads in ["1", "2", "3", "5", "13"] {
        std::env::set_var("RAYON_NUM_THREADS", threads);
        assert_eq!(
            matrix.run_par(),
            reference,
            "diverged at RAYON_NUM_THREADS={threads}"
        );
    }
    std::env::remove_var("RAYON_NUM_THREADS");
}

#[test]
fn executor_accumulators_are_thread_count_invariant() {
    // Below the report layer: the raw executor accumulators must not
    // move as the parallel backend's chunking changes.
    let matrix = ScenarioMatrix {
        topologies: vec![TopologyFamily::new(TopologyConfig {
            n: 130,
            tier1: 4,
            ..TopologyConfig::default()
        })],
        strategies: ScenarioMatrix::standard_strategies(),
        deployments: vec![
            DeploymentModel::Uniform { p: 1.0 },
            DeploymentModel::Uniform { p: 0.4 },
            DeploymentModel::StubsOnly { p: 1.0 },
        ],
        roas: RoaConfig::ALL.to_vec(),
        trials: 3,
        seed: 19,
    };
    let topology = Topology::generate(matrix.topologies[0].config);
    let topologies = std::slice::from_ref(&topology);
    let plan = matrix.plan(topologies);

    let (cells, stats) = Executor::sequential().run_with_stats::<CellAccumulator>(&plan);
    // The standard strategies never read a victim-only baseline, and
    // every executed staging is counted under one kind.
    assert_eq!(stats.baselines, 0);
    assert_eq!(
        stats.silent + stats.structural + stats.lane + stats.push + stats.stacked + stats.memo,
        stats.executed,
        "{stats:?}"
    );
    for threads in ["1", "2", "4", "7", "9"] {
        std::env::set_var("RAYON_NUM_THREADS", threads);
        let (par_cells, par_stats) = Executor::parallel().run_with_stats::<CellAccumulator>(&plan);
        assert_eq!(par_cells, cells, "cells moved at {threads} threads");
        assert_eq!(par_stats, stats, "stats moved at {threads} threads");
    }
    std::env::remove_var("RAYON_NUM_THREADS");
}
