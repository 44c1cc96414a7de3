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
//!   which may mutate the environment safely);
//! * the **ROA axis inside a trial group**: a group is one `(topology,
//!   trial)` and shares one victim-only baseline across every ROA
//!   configuration, so reordering or repeating ROAs moves no cell,
//!   [`ExecStats::baselines`] counts one propagation per group in which
//!   a strategy read it — never one for the shipped strategies — and
//!   every backend reports the same counters;
//! * the **memo of transparent outcomes** and the **structural
//!   answers**: the strategy menu reaches each memo key (head to head,
//!   alone less specific) and each more-specific staging the topology's
//!   structure answers (transparent and filtered), so every property
//!   above also holds a reused or structural outcome to the collected
//!   reference.

use proptest::prelude::*;

use bgpsim::exec::{run_plan_collected, PlanTopology, TrialPlan};
use bgpsim::experiment::RoaConfig;
use bgpsim::strategy::{MaxLengthGapProber, PathForgery, RouteLeak};
use bgpsim::topology::{Topology, TopologyConfig};
use bgpsim::{
    Accumulator, AttackAnnouncement, AttackKind, AttackPlan, AttackerStrategy, CellAccumulator,
    CellStats, DeploymentModel, DestinationSampler, ExecStats, Executor, InternetConfig,
    PlanCursor, ScenarioMatrix, StrategyContext, TopologyFamily,
};

#[path = "support/executor.rs"]
mod executor;
use executor::{cases, SuperPrefix};

/// The strategy menu plans draw from (index-encoded for proptest). It
/// reaches every key of a trial group's memo of transparent outcomes:
/// head to head (`prepended(1)` shares the forged-origin prefix hijack's
/// key) and alone less specific; and alone more specific, which the
/// topology's structure answers.
fn strategy_at(i: usize) -> Box<dyn AttackerStrategy> {
    match i % MENU {
        0 => Box::new(AttackKind::PrefixHijack),
        1 => Box::new(AttackKind::SubprefixHijack),
        2 => Box::new(AttackKind::ForgedOriginPrefixHijack),
        3 => Box::new(AttackKind::ForgedOriginSubprefixHijack),
        4 => Box::new(RouteLeak),
        5 => Box::new(PathForgery::prepended(2)),
        6 => Box::new(PathForgery::prepended(1)),
        SUPER_PREFIX => Box::new(SuperPrefix),
        _ => Box::new(MaxLengthGapProber),
    }
}

/// Strategies on the menu.
const MENU: usize = 9;

/// The one entry on the menu that is not a shipped strategy.
const SUPER_PREFIX: usize = 7;

/// A custom route leak: replays the route the attacker holds in the
/// baseline, which it reads.
struct BaselineLeak;

impl AttackerStrategy for BaselineLeak {
    fn label(&self) -> String {
        "baseline leak".to_string()
    }

    fn plan(&self, ctx: &StrategyContext<'_>) -> AttackPlan {
        AttackPlan {
            announcement: ctx
                .baseline()
                .route(ctx.attacker)
                .map(|learned| AttackAnnouncement {
                    prefix: ctx.victim_prefix,
                    claimed_origin: learned.claimed_origin,
                    path_len: learned.path_len,
                }),
            target: ctx.sub_prefix,
        }
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
        proptest::collection::vec(0..MENU, 1..4),
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

/// The stagings `stats` counts by kind, memo hits included: every
/// executed staging is counted once, under one of them.
fn kinds(stats: &ExecStats) -> usize {
    stats.silent + stats.structural + stats.lane + stats.push + stats.stacked + stats.memo
}

proptest! {
    #![proptest_config(cases())]

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

        let straight: Vec<CellAccumulator> = Executor::sequential().run(&plan);
        // One session resolves the policy axis once; every checkpoint
        // step reuses it.
        let session = Executor::sequential().session(&plan);
        let mut cursor = plan.cursor::<CellAccumulator>();
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
}

proptest! {
    #![proptest_config(cases())]

    /// The ROA axis lives inside a trial group, where the configurations
    /// share one baseline: a cell must not notice which ROAs ran before
    /// it in the group, nor how often. Permuting and duplicating
    /// `plan.roas` leaves every `(strategy, deployment, RoaConfig)`
    /// cell's encoded accumulator identical.
    #[test]
    fn roa_axis_order_and_duplicates_leave_every_cell_unchanged(
        shape in arb_shape(),
        picks in proptest::collection::vec(any::<prop::sample::Index>(), 1..7),
    ) {
        let topology = topology_for(&shape);
        let strategies: Vec<Box<dyn AttackerStrategy>> =
            shape.strategies.iter().map(|&i| strategy_at(i)).collect();
        let plan = build_plan(&shape, &topology, &strategies);
        // Every original ROA at least once (rotated), then random repeats.
        let mut shuffled = shape.clone();
        shuffled.roas.rotate_left(picks[0].index(shape.roas.len()));
        shuffled.roas.extend(picks.iter().map(|pick| shape.roas[pick.index(shape.roas.len())]));
        let shuffled_plan = build_plan(&shuffled, &topology, &strategies);

        let encoded = |acc: &CellAccumulator| {
            let mut text = String::new();
            acc.encode(&mut text);
            text
        };
        let original: Vec<CellAccumulator> = Executor::sequential().run(&plan);
        let permuted: Vec<CellAccumulator> = Executor::sequential().run(&shuffled_plan);
        for (cell, acc) in permuted.iter().enumerate() {
            let (ti, si, di, ri) = shuffled_plan.cell_axes(cell);
            let roa = shuffled_plan.roas[ri];
            let home = shape.roas.iter().position(|&r| r == roa).expect("drawn from the original");
            prop_assert_eq!(
                encoded(acc),
                encoded(&original[plan.cell_index(ti, si, di, home)]),
                "cell {} ({:?}) of {:?}",
                cell,
                roa,
                shuffled.roas
            );
        }
    }

    /// One baseline per `(topology, trial)` — however many ROAs,
    /// strategies and deployments read it — and none at all when no
    /// strategy on the axis does: the shipped menu never does. The
    /// custom leak that replays the baseline's route stages exactly as
    /// `RouteLeak`, which plans from the point query.
    #[test]
    fn baselines_are_one_per_group_and_lazy(shape in arb_shape(), observer in 0usize..2) {
        let topology = topology_for(&shape);
        let mut strategies: Vec<Box<dyn AttackerStrategy>> =
            shape.strategies.iter().map(|&i| strategy_at(i)).collect();
        strategies.push(match observer {
            0 => Box::new(BaselineLeak),
            _ => Box::new(SuperPrefix),
        });
        strategies.push(Box::new(RouteLeak));
        let plan = build_plan(&shape, &topology, &strategies);
        let (cells, stats) = Executor::sequential().run_with_stats::<CellAccumulator>(&plan);
        prop_assert_eq!(stats.baselines, plan.topologies.len() * plan.trials, "{:?}", shape);
        if observer == 0 {
            let (n, d, r) = (strategies.len(), plan.deployments.len(), plan.roas.len());
            for di in 0..d {
                for ri in 0..r {
                    prop_assert_eq!(
                        &cells[plan.cell_index(0, n - 2, di, ri)],
                        &cells[plan.cell_index(0, n - 1, di, ri)],
                        "{:?}",
                        shape
                    );
                }
            }
        }

        let shipped: Vec<Box<dyn AttackerStrategy>> =
            (0..MENU).filter(|&i| i != SUPER_PREFIX).map(strategy_at).collect();
        let shipped_plan = build_plan(&shape, &topology, &shipped);
        let (_, stats) = Executor::parallel().run_with_stats::<CellAccumulator>(&shipped_plan);
        prop_assert_eq!(stats.baselines, 0, "{:?}", shape);
    }

    /// Sequential == parallel == checkpointed at every chunk size (the
    /// cursor through its text form at every step) — on the accumulators
    /// and on every counter of `ExecStats`, `baselines` included.
    #[test]
    fn stats_are_identical_across_backends_and_chunkings(shape in arb_shape()) {
        let topology = topology_for(&shape);
        let strategies: Vec<Box<dyn AttackerStrategy>> =
            shape.strategies.iter().map(|&i| strategy_at(i)).collect();
        let plan = build_plan(&shape, &topology, &strategies);

        let (seq, seq_stats) = Executor::sequential().run_with_stats::<CellAccumulator>(&plan);
        let (par, par_stats) = Executor::parallel().run_with_stats::<CellAccumulator>(&plan);
        prop_assert_eq!(&seq, &par);
        prop_assert_eq!(seq_stats, par_stats);
        prop_assert!(seq_stats.baselines <= plan.topologies.len() * plan.trials);
        prop_assert_eq!(kinds(&seq_stats), seq_stats.executed);

        let session = Executor::sequential().session(&plan);
        for chunk in 1..=plan.item_count() + 1 {
            let mut cursor = plan.cursor::<CellAccumulator>();
            while !session.run_until(&mut cursor, chunk) {
                cursor = PlanCursor::decode(&cursor.encode()).expect("cursor round-trip");
            }
            prop_assert_eq!(session.cursor_stats(&cursor), seq_stats, "chunk {}", chunk);
            prop_assert_eq!(cursor.accumulators(), &seq[..], "chunk {}", chunk);
        }
    }
}

/// A version-1 cursor counted `(topology, ROA, trial)` groups; resuming
/// one against `(topology, trial)` groups would skip or repeat trials.
/// A version-2 cursor lacks `ExecStats::shared`, a version-3 one
/// `ExecStats::structural` and `ExecStats::pulled`, and a version-4 one
/// counted overlapping `shared`, `structural` and `pulled` where a
/// version-5 one counts stagings by kind; resuming any of them would
/// report a run's counters wrongly. `decode` refuses all four by their
/// magic.
#[test]
fn cursor_decode_refuses_v1_to_v4_lines() {
    let topology = Topology::generate(TopologyConfig {
        n: 80,
        tier1: 3,
        ..TopologyConfig::default()
    });
    let strategy = AttackKind::SubprefixHijack;
    let plan = TrialPlan::new(
        vec![PlanTopology {
            label: "n=80".into(),
            topology: &topology,
        }],
        vec![&strategy],
        vec![DeploymentModel::Uniform { p: 0.5 }],
        RoaConfig::ALL.to_vec(),
        2,
        7,
    );
    let v5 = plan.cursor::<CellAccumulator>().encode();
    assert!(v5.starts_with("maxlength-cursor-v5 "), "{v5}");
    assert!(PlanCursor::<CellAccumulator>::decode(&v5).is_some());
    let cells = v5
        .splitn(15, ' ')
        .nth(14)
        .expect("accumulators follow the counters");
    // The same cursor as v1 wrote it: two counters after the position.
    let v1 = format!("maxlength-cursor-v1 0 6 0 0 {cells}");
    // As v2 wrote it: five counters, `shared` not among them.
    let v2 = format!("maxlength-cursor-v2 0 2 0 0 0 0 0 {cells}");
    // As v3 wrote it: six counters, ending at `shared`.
    let v3 = format!("maxlength-cursor-v3 0 2 0 0 0 0 0 0 {cells}");
    // As v4 wrote it: eight counters, ending at `shared`, `structural`
    // and `pulled`.
    let v4 = format!("maxlength-cursor-v4 0 2 0 0 0 0 0 0 0 0 {cells}");
    for old in [&v1, &v2, &v3, &v4] {
        assert!(
            PlanCursor::<CellAccumulator>::decode(old).is_none(),
            "{old}"
        );
    }
    // Nor does the new magic on an old layout parse: the counters differ.
    for (old, magic) in [(v1, "-v1"), (v2, "-v2"), (v3, "-v3"), (v4, "-v4")] {
        let relabelled = old.replace(magic, "-v5");
        assert!(
            PlanCursor::<CellAccumulator>::decode(&relabelled).is_none(),
            "{relabelled}"
        );
    }
}

/// The less-specific memo key, pinned: a super-prefix announcement is
/// transparent under every ROA configuration, so each trial group runs
/// it once and the other two ROAs share that outcome, although their
/// stagings claim another origin and path length. Next to it, the
/// forged-origin subprefix hijack — alone and more specific — must not
/// share its key: transparent without a ROA and under the loose one, it
/// is answered from structure, and under the minimal ROA it runs. Every
/// cell still equals the collected reference, which runs each staging
/// afresh.
#[test]
fn super_prefix_runs_once_per_group_and_matches_the_reference() {
    let topology = Topology::generate(TopologyConfig {
        n: 150,
        tier1: 4,
        ..TopologyConfig::default()
    });
    let plan = TrialPlan::new(
        vec![PlanTopology {
            label: "n=150".into(),
            topology: &topology,
        }],
        vec![&AttackKind::ForgedOriginSubprefixHijack, &SuperPrefix],
        vec![
            DeploymentModel::Uniform { p: 0.5 },
            DeploymentModel::StubsOnly { p: 1.0 },
        ],
        RoaConfig::ALL.to_vec(),
        5,
        11,
    );
    let collected = run_plan_collected(&plan);
    let (accs, stats) = Executor::sequential().run_with_stats::<CellAccumulator>(&plan);
    for (cell, (outcomes, acc)) in collected.iter().zip(&accs).enumerate() {
        assert_eq!(
            CellStats::from_outcomes(outcomes),
            acc.finish(),
            "cell {cell}"
        );
    }
    // Per group: the hijack's no-ROA and loose-ROA stagings need no
    // engine run, and under the minimal ROA it is pushed, once per
    // deployment its footprint does not replay; the super-prefix runs
    // once for three ROAs and is the one staging that reads the
    // baseline.
    assert_eq!(stats.structural, 2 * plan.trials, "{stats:?}");
    assert_eq!(
        stats.push,
        plan.trials + stats.cells_repropagated,
        "{stats:?}"
    );
    assert_eq!(stats.stacked, plan.trials, "{stats:?}");
    assert_eq!(stats.memo, 2 * plan.trials, "{stats:?}");
    assert_eq!(stats.lane, 0, "no staging is head to head: {stats:?}");
    assert_eq!(stats.silent, 0, "{stats:?}");
    assert_eq!(stats.baselines, plan.trials, "{stats:?}");
    assert_eq!(kinds(&stats), stats.executed, "{stats:?}");
}

/// Announces nothing, as a route leak does when the attacker learned no
/// route.
struct Silent;

impl AttackerStrategy for Silent {
    fn label(&self) -> String {
        "silent".to_string()
    }

    fn plan(&self, ctx: &StrategyContext<'_>) -> AttackPlan {
        AttackPlan {
            announcement: None,
            target: ctx.sub_prefix,
        }
    }
}

/// A staging that announces nothing toward its target tallies the
/// baseline alone: it is counted `silent`, and the engine runs only the
/// one baseline of its group (engine runs `lane + push + stacked +
/// baselines` equal `baselines`, where `executed + baselines − shared`
/// counted each silent staging once more). Its footprint is empty, so
/// every further deployment replays it; every cell equals the collected
/// reference.
#[test]
fn silent_stagings_run_only_the_baseline() {
    let topology = Topology::generate(TopologyConfig {
        n: 120,
        tier1: 3,
        ..TopologyConfig::default()
    });
    let plan = TrialPlan::new(
        vec![PlanTopology {
            label: "n=120".into(),
            topology: &topology,
        }],
        vec![&Silent],
        vec![
            DeploymentModel::Uniform { p: 0.5 },
            DeploymentModel::TopIspsFirst { p: 0.3 },
        ],
        RoaConfig::ALL.to_vec(),
        4,
        23,
    );
    let collected = run_plan_collected(&plan);
    let (accs, stats) = Executor::sequential().run_with_stats::<CellAccumulator>(&plan);
    for (cell, (outcomes, acc)) in collected.iter().zip(&accs).enumerate() {
        assert_eq!(
            CellStats::from_outcomes(outcomes),
            acc.finish(),
            "cell {cell}"
        );
    }
    let stagings = plan.roas.len() * plan.trials;
    assert_eq!(stats.executed, stagings, "{stats:?}");
    assert_eq!(stats.silent, stagings, "{stats:?}");
    assert_eq!(kinds(&stats), stats.executed, "{stats:?}");
    assert_eq!(stats.baselines, plan.trials, "{stats:?}");
    assert_eq!(
        stats.lane + stats.push + stats.stacked + stats.baselines,
        stats.baselines,
        "{stats:?}"
    );
}

/// The counts named for the two benchmark plans at seed 2017, built here
/// as `benchmark/src/workloads/grid.rs` builds them: no victim-only
/// baseline (192 and 500 while the shipped strategies read one), the
/// stagings by kind, which sum to `executed`, and engine runs (`lane +
/// push + stacked + baselines`) 384 and 3,249, every older counter where
/// it was, sequential and parallel alike.
///
/// `internet_trials` has 192 groups, each with the hijack and the leak
/// under the loose and the minimal ROA: the hijack under the loose ROA
/// is answered from structure (`structural` 192) and under the minimal
/// one, filtered, is pushed (`push` 192); the leak under the loose ROA
/// is the one kernel run (`lane` 192), and the leak under the minimal
/// ROA shares its outcome (`memo` 192). `attack_grid` has 500 groups of
/// six strategies under three ROAs. The forged-origin subprefix hijack
/// and the gap prober, each under no ROA and the loose ROA, are
/// structural (4 × 500 = 2,000); the hijack under the minimal ROA is
/// filtered and pushed, once a group and once for each of the 762
/// re-propagated cells (`push` 500 + 762 = 1,262). Its 13 head-to-head
/// stagings a group, all transparent, carry four keys — path length 1
/// (the forged-origin prefix hijack, and the prober demoted under the
/// minimal ROA), 0, 3 and the leak's learned length — and the leak's
/// length is 1 or 3 in 13 groups, so `lane` is 4 × 500 − 13 = 1,987 and
/// the memo answers the other 13 × 500 − 1,987 = 4,513. No standard
/// strategy is silent or less specific (`silent` and `stacked` 0).
/// Release-scale — an 80,000-AS topology — so opt-in:
/// `cargo test --release -p bgpsim --test exec_props -- --ignored`.
#[test]
#[ignore = "release-scale: two full benchmark plans, ~1 s optimised"]
fn benchmark_plans_pin_their_executor_counters() {
    let seed = 2017;
    let expect = |plan: &TrialPlan<'_>, want: ExecStats| {
        let (seq, seq_stats) = Executor::sequential().run_with_stats::<CellAccumulator>(plan);
        let (par, par_stats) = Executor::parallel().run_with_stats::<CellAccumulator>(plan);
        assert_eq!(seq_stats, want);
        assert_eq!(par_stats, want);
        assert_eq!(kinds(&want), want.executed);
        assert_eq!(seq, par);
    };

    // internet_trials
    let internet = Topology::generate_internet(InternetConfig {
        n: 80_000,
        seed,
        ..InternetConfig::default()
    });
    let (hijack, leak) = (AttackKind::ForgedOriginSubprefixHijack, RouteLeak);
    let plan = TrialPlan::new(
        vec![PlanTopology {
            label: "internet n=80000".into(),
            topology: &internet,
        }],
        vec![&hijack as &dyn AttackerStrategy, &leak],
        vec![DeploymentModel::Uniform { p: 0.75 }],
        vec![RoaConfig::NonMinimalMaxLen, RoaConfig::Minimal],
        192,
        seed,
    )
    .with_destination_sampler(&DestinationSampler { count: 192, seed });
    expect(
        &plan,
        ExecStats {
            items: 768,
            compilations: 1,
            executed: 768,
            footprint_checks: 0,
            cells_replayed: 0,
            cells_repropagated: 0,
            baselines: 0,
            silent: 0,
            structural: 192,
            lane: 192,
            push: 192,
            stacked: 0,
            memo: 192,
        },
    );

    // attack_grid
    let matrix = ScenarioMatrix {
        topologies: TopologyFamily::standard(10_000)
            .into_iter()
            .map(|family| {
                TopologyFamily::new(TopologyConfig {
                    seed,
                    ..family.config
                })
            })
            .collect(),
        strategies: ScenarioMatrix::standard_strategies(),
        deployments: DeploymentModel::standard(),
        roas: RoaConfig::ALL.to_vec(),
        trials: 250,
        seed,
    };
    let topologies: Vec<Topology> = matrix
        .topologies
        .iter()
        .map(|family| Topology::generate(family.config))
        .collect();
    expect(
        &matrix.plan(&topologies),
        ExecStats {
            items: 36_000,
            compilations: 8,
            executed: 9_762,
            footprint_checks: 27_000,
            cells_replayed: 26_238,
            cells_repropagated: 762,
            baselines: 0,
            silent: 0,
            structural: 2_000,
            lane: 1_987,
            push: 1_262,
            stacked: 0,
            memo: 4_513,
        },
    );
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
