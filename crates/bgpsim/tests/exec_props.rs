//! Differential property suite for the unified trial executor — the
//! orchestration layer every simulation loop now runs on.
//!
//! For random plans (topology shapes, strategy subsets, deployment
//! axes, ROA subsets, trial counts, seeds):
//!
//! * the **streaming accumulators** fold to exactly what the kept
//!   collect-then-fold reference (`run_plan_collected` +
//!   `CellStats::from_outcomes`) produces — every cell, every float;
//! * **checkpoint/resume** ([`Executor::run_until`] over a
//!   [`bgpsim::PlanCursor`], including textual encode/decode round
//!   trips) finishes bit-identical to a straight-through run;
//! * the **deployment-keyed policy cache** compiles once per distinct
//!   `(topology, deployment)` — duplicated deployments produce
//!   bit-identical cells and no extra compilations — and the uniform
//!   threshold pass is bit-identical to fresh `policies()` draws;
//! * the **parallel backend** is bit-identical to the sequential one
//!   (the `RAYON_NUM_THREADS` sweep lives in `tests/thread_sweep.rs`,
//!   which may mutate the environment safely).

use proptest::prelude::*;

use bgpsim::exec::{run_plan_collected, PlanTopology, TrialPlan};
use bgpsim::experiment::RoaConfig;
use bgpsim::strategy::{MaxLengthGapProber, PathForgery, RouteLeak};
use bgpsim::topology::{Topology, TopologyConfig};
use bgpsim::{
    Accumulator, AttackKind, AttackerStrategy, CellAccumulator, CellStats, DeploymentModel,
    DestinationSampler, Executor, FractionAccumulator, PlanCursor,
};

/// The strategy menu plans draw from (index-encoded for proptest).
fn strategy_at(i: usize) -> Box<dyn AttackerStrategy> {
    match i % 7 {
        0 => Box::new(AttackKind::PrefixHijack),
        1 => Box::new(AttackKind::SubprefixHijack),
        2 => Box::new(AttackKind::ForgedOriginPrefixHijack),
        3 => Box::new(AttackKind::ForgedOriginSubprefixHijack),
        4 => Box::new(RouteLeak),
        5 => Box::new(PathForgery::prepended(2)),
        _ => Box::new(MaxLengthGapProber),
    }
}

fn deployment_at(i: usize, p: f64) -> DeploymentModel {
    match i % 3 {
        0 => DeploymentModel::Uniform { p },
        1 => DeploymentModel::TopIspsFirst { p },
        _ => DeploymentModel::StubsOnly { p },
    }
}

/// A random small-but-real plan shape.
#[derive(Debug, Clone)]
struct PlanShape {
    n: usize,
    tier1: usize,
    strategies: Vec<usize>,
    deployments: Vec<(usize, u8)>,
    roas: Vec<RoaConfig>,
    trials: usize,
    seed: u64,
}

fn arb_shape() -> impl Strategy<Value = PlanShape> {
    (
        (60usize..180, 2usize..5),
        proptest::collection::vec(0usize..7, 1..4),
        proptest::collection::vec((0usize..3, 0u8..=10), 1..4),
        1usize..8,
        1usize..4,
        0u64..500,
    )
        .prop_map(
            |((n, tier1), strategies, deployments, roa_mask, trials, seed)| PlanShape {
                n,
                tier1,
                strategies,
                deployments,
                // A non-empty subset of the three ROA configurations,
                // selected by bitmask.
                roas: RoaConfig::ALL
                    .iter()
                    .enumerate()
                    .filter(|(i, _)| roa_mask & (1 << i) != 0)
                    .map(|(_, &roa)| roa)
                    .collect(),
                trials,
                seed,
            },
        )
}

fn build_plan<'a>(
    shape: &PlanShape,
    topology: &'a Topology,
    strategies: &'a [Box<dyn AttackerStrategy>],
) -> TrialPlan<'a> {
    TrialPlan::new(
        vec![PlanTopology {
            label: format!("n={}", shape.n),
            topology,
        }],
        strategies.iter().map(|s| s.as_ref()).collect(),
        shape
            .deployments
            .iter()
            .map(|&(kind, decile)| deployment_at(kind, decile as f64 / 10.0))
            .collect(),
        shape.roas.clone(),
        shape.trials,
        shape.seed,
    )
}

fn topology_for(shape: &PlanShape) -> Topology {
    Topology::generate(TopologyConfig {
        n: shape.n,
        tier1: shape.tier1,
        ..TopologyConfig::default()
    })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// Streaming accumulators vs collected-Vec folding: bit-identical on
    /// every cell, and the parallel backend agrees with both.
    #[test]
    fn streaming_equals_collected_equals_parallel(shape in arb_shape()) {
        let topology = topology_for(&shape);
        let strategies: Vec<Box<dyn AttackerStrategy>> =
            shape.strategies.iter().map(|&i| strategy_at(i)).collect();
        let plan = build_plan(&shape, &topology, &strategies);

        let collected = run_plan_collected(&plan);
        let streamed: Vec<CellAccumulator> = Executor::sequential().run(&plan);
        let parallel: Vec<CellAccumulator> = Executor::parallel().run(&plan);
        prop_assert_eq!(&streamed, &parallel);
        prop_assert_eq!(collected.len(), streamed.len());
        for (cell, (outcomes, acc)) in collected.iter().zip(&streamed).enumerate() {
            prop_assert_eq!(
                CellStats::from_outcomes(outcomes),
                acc.finish(),
                "cell {} of {:?}",
                cell,
                shape
            );
        }
    }

    /// Checkpoint/resume vs straight-through: any chunking of the item
    /// stream — including serializing the cursor to text and parsing it
    /// back between chunks — lands on the identical result.
    #[test]
    fn checkpointed_equals_straight_through(
        shape in arb_shape(),
        chunk in 1usize..40,
        roundtrip in 0usize..2,
    ) {
        let roundtrip = roundtrip == 1;
        let topology = topology_for(&shape);
        let strategies: Vec<Box<dyn AttackerStrategy>> =
            shape.strategies.iter().map(|&i| strategy_at(i)).collect();
        let plan = build_plan(&shape, &topology, &strategies);

        let straight: Vec<FractionAccumulator> = Executor::sequential().run(&plan);
        // One session resolves the policy axis once; every checkpoint
        // step reuses it.
        let session = Executor::sequential().session(&plan);
        let mut cursor = plan.cursor::<FractionAccumulator>();
        while !session.run_until(&mut cursor, chunk) {
            if roundtrip {
                cursor = PlanCursor::decode(&cursor.encode()).expect("cursor round-trip");
            }
        }
        prop_assert!(cursor.is_done());
        prop_assert_eq!(cursor.into_accumulators(), straight);
    }

    /// The policy cache: duplicating a deployment on the axis adds cells
    /// but no compilations, and the duplicated cells are bit-identical
    /// to the originals.
    #[test]
    fn cached_policies_match_fresh_compilation(shape in arb_shape()) {
        let topology = topology_for(&shape);
        let strategies: Vec<Box<dyn AttackerStrategy>> =
            shape.strategies.iter().map(|&i| strategy_at(i)).collect();
        let mut duplicated = shape.clone();
        duplicated.deployments.extend(shape.deployments.iter().copied());
        let plan = build_plan(&duplicated, &topology, &strategies);

        let (accs, stats) = Executor::sequential().run_with_stats::<CellAccumulator>(&plan);
        let distinct: std::collections::BTreeSet<&(usize, u8)> =
            shape.deployments.iter().collect();
        prop_assert_eq!(stats.compilations, distinct.len(), "{:?}", duplicated.deployments);
        prop_assert_eq!(stats.executed + stats.cells_replayed, stats.items);

        let d = plan.deployments.len();
        let base = shape.deployments.len();
        for si in 0..plan.strategies.len() {
            for (di, _) in shape.deployments.iter().enumerate() {
                for ri in 0..plan.roas.len() {
                    prop_assert_eq!(
                        &accs[plan.cell_index(0, si, di, ri)],
                        &accs[plan.cell_index(0, si, base + di, ri)],
                        "duplicate deployment {}/{} diverged (of {})",
                        di,
                        base + di,
                        d
                    );
                }
            }
        }
    }

    /// Sweep-aware uniform reuse: an adoption sweep through the executor
    /// (one plan, one threshold pass, shared topology) matches running
    /// the full experiment per adoption level — the pre-executor shape.
    #[test]
    fn adoption_sweep_matches_per_level_runs(
        trials in 1usize..4,
        seed in 0u64..200,
    ) {
        let experiment = bgpsim::AttackExperiment {
            topology: TopologyConfig { n: 150, tier1: 4, ..TopologyConfig::default() },
            trials,
            rov_fraction: 1.0,
            seed,
        };
        let fractions = [0.0, 0.4, 1.0];
        let sweep = experiment.adoption_sweep(
            AttackKind::SubprefixHijack,
            RoaConfig::Minimal,
            &fractions,
        );
        for (i, &fraction) in fractions.iter().enumerate() {
            let per_level = bgpsim::AttackExperiment {
                rov_fraction: fraction,
                ..experiment
            }
            .run_par();
            let cell = per_level.cell(AttackKind::SubprefixHijack, RoaConfig::Minimal);
            prop_assert_eq!(sweep.points[i], (fraction, cell.mean_interception));
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(8))]

    /// The destination-sampling restriction contract: a sampled plan's
    /// accumulators equal the full-enumeration plan's accumulators
    /// folded over only the sampled destinations — every cell, every
    /// float — and the sampled plan is seq/par bit-identical. (The
    /// full plan here enumerates *every* stub as a destination, so the
    /// sampled plan must be exactly its restriction.)
    #[test]
    fn sampled_plan_is_restriction_of_full_plan(
        shape in arb_shape(),
        count in 1usize..12,
        sample_seed in 0u64..100,
    ) {
        let topology = topology_for(&shape);
        let strategies: Vec<Box<dyn AttackerStrategy>> =
            shape.strategies.iter().map(|&i| strategy_at(i)).collect();
        let stubs = topology.stubs().to_vec();
        let full_plan =
            build_plan(&shape, &topology, &strategies).with_destinations(stubs.clone());
        let sampler = DestinationSampler { count, seed: sample_seed };
        let sampled_plan =
            build_plan(&shape, &topology, &strategies).with_destination_sampler(&sampler);
        let sampled = sampled_plan.destinations.clone().expect("sampler installed");
        prop_assert_eq!(sampled.len(), count.min(stubs.len()));
        prop_assert_eq!(sampled_plan.trials, sampled.len());

        let full = run_plan_collected(&full_plan);
        let seq: Vec<CellAccumulator> = Executor::sequential().run(&sampled_plan);
        let par: Vec<CellAccumulator> = Executor::parallel().run(&sampled_plan);
        prop_assert_eq!(&seq, &par);
        for (cell, outcomes) in full.iter().enumerate() {
            let mut acc = CellAccumulator::empty();
            for (t, o) in outcomes.iter().enumerate() {
                if sampled.binary_search(&stubs[t]).is_ok() {
                    acc.absorb(o);
                }
            }
            prop_assert_eq!(&acc, &seq[cell], "cell {} of {:?}", cell, shape);
        }
    }
}

/// The deterministic spine of the suite (not property-randomized): the
/// small golden matrix runs identically through every execution mode.
#[test]
fn golden_grid_is_identical_across_all_execution_modes() {
    use bgpsim::ScenarioMatrix;
    let m = ScenarioMatrix::small(2017);
    let collected = m.run_collected();
    assert_eq!(collected, m.run());
    assert_eq!(collected, m.run_par());
}
