//! Differential suite for speculative cross-cell execution — the
//! Block-STM-style execute-then-validate scheduler inside the trial
//! executor.
//!
//! The speculative executor propagates each trial group's strategies
//! once (against the first deployment), records the filter footprint
//! ([`FilterFootprint`]), and replays the outcome into every deployment
//! whose adopter bitset validates the footprint. These properties hold
//! it to the contract:
//!
//! * **bit-identity** with the collected reference
//!   ([`run_plan_collected`]) on random topologies, strategy menus,
//!   deployment axes, ROA subsets, and seeds — sequential and parallel;
//! * **thread-count invariance** across a `RAYON_NUM_THREADS` sweep
//!   (racing the variable against concurrently running tests is
//!   harmless precisely *because* every thread count is bit-identical);
//! * **checkpoint/resume** through [`PlanCursor`] boundaries (with
//!   textual encode/decode round trips) lands on the same result;
//! * the **adversarial flip**: on a hand-built grid where exactly one
//!   consulted AS's filter decision diverges between two deployments,
//!   only that column re-propagates — deployments that differ *only*
//!   in ASes the propagation never consulted are replayed;
//! * the **memo of transparent outcomes**: the strategy menu reaches
//!   each of a trial group's memo keys, so a reused outcome is held to
//!   the collected reference too.

use std::cell::RefCell;

use proptest::prelude::*;

use bgpsim::exec::{run_plan_collected, PlanTopology, TrialPlan};
use bgpsim::experiment::RoaConfig;
use bgpsim::routing::Seed;
use bgpsim::strategy::{MaxLengthGapProber, PathForgery, RouteLeak};
use bgpsim::topology::{Topology, TopologyConfig};
use bgpsim::{
    Accumulator, AttackKind, AttackerStrategy, CellAccumulator, CellStats, CompiledPolicies,
    DeploymentModel, Executor, FilterFootprint, OriginFilter, PlanCursor, PropagationEngine,
    Workspace,
};

#[path = "support/executor.rs"]
mod executor;
use executor::{cases, SuperPrefix};

/// The strategy menu plans draw from (index-encoded for proptest). It
/// reaches every key of a trial group's memo of transparent outcomes:
/// head to head (`prepended(1)` shares the forged-origin prefix hijack's
/// key), alone and more specific, alone and less specific.
fn strategy_at(i: usize) -> Box<dyn AttackerStrategy> {
    match i % MENU {
        0 => Box::new(AttackKind::PrefixHijack),
        1 => Box::new(AttackKind::SubprefixHijack),
        2 => Box::new(AttackKind::ForgedOriginPrefixHijack),
        3 => Box::new(AttackKind::ForgedOriginSubprefixHijack),
        4 => Box::new(RouteLeak),
        5 => Box::new(PathForgery::shortened()),
        6 => Box::new(PathForgery::prepended(1)),
        7 => Box::new(SuperPrefix),
        _ => Box::new(MaxLengthGapProber),
    }
}

/// Strategies on the menu.
const MENU: usize = 9;

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
        proptest::collection::vec(0..MENU, 1..4),
        proptest::collection::vec((0usize..3, 0u8..=10), 2..5),
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
    #![proptest_config(cases())]

    /// The acceptance oracle: the speculative executor (sequential and
    /// parallel) folds to exactly what the per-cell collected reference
    /// produces — every cell, every float — and its counters balance.
    #[test]
    fn speculative_equals_collected_reference(shape in arb_shape()) {
        let topology = topology_for(&shape);
        let strategies: Vec<Box<dyn AttackerStrategy>> =
            shape.strategies.iter().map(|&i| strategy_at(i)).collect();
        let plan = build_plan(&shape, &topology, &strategies);

        let collected = run_plan_collected(&plan);
        let (streamed, stats) =
            Executor::sequential().run_with_stats::<CellAccumulator>(&plan);
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
        prop_assert_eq!(
            stats.footprint_checks,
            stats.cells_replayed + stats.cells_repropagated
        );
        prop_assert_eq!(stats.executed + stats.cells_replayed, stats.items);
    }

    /// Speculation is thread-count invariant: accumulators *and*
    /// speculation counters are identical at every `RAYON_NUM_THREADS`.
    #[test]
    fn speculation_is_thread_count_invariant(shape in arb_shape()) {
        let topology = topology_for(&shape);
        let strategies: Vec<Box<dyn AttackerStrategy>> =
            shape.strategies.iter().map(|&i| strategy_at(i)).collect();
        let plan = build_plan(&shape, &topology, &strategies);

        let (reference, stats) =
            Executor::sequential().run_with_stats::<CellAccumulator>(&plan);
        for threads in ["1", "3", "7"] {
            std::env::set_var("RAYON_NUM_THREADS", threads);
            let (par, par_stats) =
                Executor::parallel().run_with_stats::<CellAccumulator>(&plan);
            prop_assert_eq!(&par, &reference, "cells moved at {} threads", threads);
            prop_assert_eq!(par_stats, stats, "counters moved at {} threads", threads);
        }
        std::env::remove_var("RAYON_NUM_THREADS");
    }

    /// Checkpoint/resume across `PlanCursor` boundaries: any chunking of
    /// the speculative item stream — including serializing the cursor to
    /// text between chunks — finishes bit-identical to the collected
    /// reference, and the cursor's replay accounting survives the trip.
    #[test]
    fn checkpointed_speculation_matches_collected(
        shape in arb_shape(),
        chunk in 1usize..40,
    ) {
        let topology = topology_for(&shape);
        let strategies: Vec<Box<dyn AttackerStrategy>> =
            shape.strategies.iter().map(|&i| strategy_at(i)).collect();
        let plan = build_plan(&shape, &topology, &strategies);

        let collected = run_plan_collected(&plan);
        let session = Executor::sequential().session(&plan);
        let mut cursor = plan.cursor::<CellAccumulator>();
        while !session.run_until(&mut cursor, chunk) {
            cursor = PlanCursor::decode(&cursor.encode()).expect("cursor round-trip");
        }
        prop_assert!(cursor.is_done());
        for (cell, (outcomes, acc)) in
            collected.iter().zip(cursor.accumulators()).enumerate()
        {
            prop_assert_eq!(
                CellStats::from_outcomes(outcomes),
                acc.finish(),
                "cell {} of {:?}",
                cell,
                shape
            );
        }
    }
}

/// Stages trial 0's forged-origin subprefix hijack by hand (baseline,
/// then the attack propagation over the engine) and records which ASes
/// the invalid-origin filter was consulted on — the exact footprint the
/// speculative executor records for that cell.
fn hand_footprint(
    topology: &Topology,
    plan: &TrialPlan<'_>,
    compiled: &CompiledPolicies,
) -> Vec<usize> {
    let (victim, attacker) = plan.trial_endpoints(0, 0);
    let victim_asn = topology.asn(victim);
    let vrps = plan.roas[0].vrps(plan.victim_prefix, plan.sub_prefix.len(), victim_asn);
    let accept_p = OriginFilter::new(&vrps, plan.victim_prefix, &[victim_asn], compiled);
    assert!(
        accept_p.is_transparent(),
        "the victim's announcement is Valid under its minimal ROA"
    );
    let accept_q = OriginFilter::new(&vrps, plan.sub_prefix, &[victim_asn], compiled);
    assert!(
        accept_q.origin_is_invalid(victim_asn),
        "the forged-origin subprefix announcement is Invalid under the minimal ROA"
    );

    let engine = PropagationEngine::new(topology);
    let mut ws = Workspace::new();
    let baseline = engine.propagate(
        &[Seed::origin(victim, victim_asn)],
        &|at, origin| accept_p.accept(at, origin),
        &mut ws,
    );
    let footprint = RefCell::new(FilterFootprint::new());
    footprint.borrow_mut().begin(topology.len());
    let recording = |at: usize, origin| {
        let decision = accept_q.accept(at, origin);
        if accept_q.origin_is_invalid(origin) {
            footprint.borrow_mut().note(at, decision);
        }
        decision
    };
    let _ = engine.propagate_outcome(
        &[Seed::forged(attacker, victim_asn)],
        &recording,
        &mut ws,
        Some(&baseline),
        attacker,
        victim,
    );
    footprint
        .into_inner()
        .decisions()
        .map(|(at, _)| at)
        .collect()
}

/// The adversarial single-flip construction: deployments engineered from
/// the plan's own uniform threshold stream so that, relative to the
/// speculated `p = 1.0` column,
///
/// * `p_replay` flips **only ASes the propagation never consulted** —
///   a different adopter bitset, yet the footprint validates and the
///   cell replays (the win beyond PR 5's transparent-only contract);
/// * `p_flip` additionally flips exactly **one** consulted AS — the
///   footprint fails validation and only that cell re-propagates;
/// * a duplicate `p = 1.0` column validates trivially and replays.
///
/// Counters are asserted exactly, and the whole grid is held
/// bit-identical to the collected reference.
#[test]
fn single_decision_flip_repropagates_exactly_that_cell() {
    let topology = Topology::generate(TopologyConfig {
        n: 220,
        tier1: 5,
        ..TopologyConfig::default()
    });
    let strategies: Vec<&dyn AttackerStrategy> = vec![&AttackKind::ForgedOriginSubprefixHijack];
    // Under universal adoption (`p = 1.0`, speculated column) the
    // forged-origin announcement is rejected at the attacker itself, so
    // the trial's footprint is exactly one decision: the attacker's own
    // adoption bit. Scan plan seeds for a trial where that bit is the
    // experiment's lever: `p_flip` (below the attacker's threshold)
    // flips it — the only footprinted decision — while `p_replay`
    // (above it, but below some other AS's threshold) changes the
    // adopter bitset without touching the footprint. Deterministic:
    // the first qualifying seed wins.
    let mut picked = None;
    for seed in 0..50u64 {
        let probe = TrialPlan::new(
            vec![PlanTopology {
                label: "flip".into(),
                topology: &topology,
            }],
            strategies.clone(),
            vec![DeploymentModel::Uniform { p: 1.0 }],
            vec![RoaConfig::Minimal],
            1,
            seed,
        );
        let thresholds = DeploymentModel::uniform_thresholds(topology.len(), seed);
        let compiled =
            CompiledPolicies::compile(&DeploymentModel::uniform_from_thresholds(1.0, &thresholds));
        let consulted = hand_footprint(&topology, &probe, &compiled);
        let (victim, attacker) = probe.trial_endpoints(0, 0);
        if consulted != vec![attacker] || attacker == victim {
            continue;
        }
        let t_attacker = thresholds[attacker];
        // Adoption is `threshold < p`: p_flip unadopts the attacker —
        // the footprint's only decision; p_replay keeps the attacker
        // adopting but must unadopt at least one (unconsulted) AS so
        // the replayed column's bitset genuinely differs from p = 1.0.
        let p_flip = t_attacker / 2.0;
        let p_replay = (t_attacker + 1.0) / 2.0;
        if t_attacker <= 0.0 || !thresholds.iter().any(|&t| t >= p_replay) {
            continue;
        }
        picked = Some((seed, p_flip, p_replay));
        break;
    }
    let (seed, p_flip, p_replay) = picked.expect("no qualifying seed in range");

    let plan = TrialPlan::new(
        vec![PlanTopology {
            label: "flip".into(),
            topology: &topology,
        }],
        strategies,
        vec![
            DeploymentModel::Uniform { p: 1.0 },
            DeploymentModel::Uniform { p: p_replay },
            DeploymentModel::Uniform { p: p_flip },
            DeploymentModel::Uniform { p: 1.0 }, // exact duplicate: Arc-shared bitset
        ],
        vec![RoaConfig::Minimal],
        1,
        seed,
    );
    let (accs, stats) = Executor::sequential().run_with_stats::<CellAccumulator>(&plan);

    // One strategy, one trial, one ROA: three checks beyond the
    // speculated column. p_replay and the duplicate validate; p_flip —
    // and only p_flip — re-propagates.
    assert_eq!(stats.items, 4);
    assert_eq!(stats.footprint_checks, 3, "{stats:?}");
    assert_eq!(stats.cells_replayed, 2, "{stats:?}");
    assert_eq!(stats.cells_repropagated, 1, "{stats:?}");
    assert_eq!(stats.executed, 2, "{stats:?}");

    // And the replays were *licensed*: the grid matches the per-cell
    // collected reference bit for bit.
    let collected = run_plan_collected(&plan);
    for (cell, (outcomes, acc)) in collected.iter().zip(&accs).enumerate() {
        assert_eq!(
            CellStats::from_outcomes(outcomes),
            acc.finish(),
            "cell {cell}"
        );
    }
    // The flipped column genuinely diverged from the speculated one —
    // the re-propagation was necessary, not defensive.
    assert_ne!(
        accs[plan.cell_index(0, 0, 0, 0)],
        accs[plan.cell_index(0, 0, 2, 0)],
        "the single-AS flip must change the outcome for this construction"
    );
}
