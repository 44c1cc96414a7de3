//! Golden snapshot of the small-scale scenario matrix: every strategy ×
//! deployment × ROA cell of `ScenarioMatrix::small(2017)`, rendered and
//! frozen into a checked-in fixture — the attack-analysis analogue of
//! `tests/table1_golden.rs`. Any change to the topology generator, the
//! propagation engine, a strategy's planning, the deployment draws, or
//! the per-cell aggregation — intended or not — fails this test loudly
//! instead of silently shifting the reproduction.
//!
//! To bless an intended change:
//!
//! ```sh
//! MAXLENGTH_BLESS=1 cargo test --test matrix_golden
//! ```
//!
//! and commit the updated `tests/golden/matrix_small.txt` alongside the
//! change that moved the numbers.

use maxlength_rpki::bgpsim::ScenarioMatrix;

const FIXTURE: &str = concat!(env!("CARGO_MANIFEST_DIR"), "/tests/golden/matrix_small.txt");

fn render() -> String {
    // run_par is bit-identical to run() at any thread count (asserted by
    // crates/bgpsim/tests/routing_props.rs), so the fixture is stable no
    // matter where this executes.
    let report = ScenarioMatrix::small(2017).run_par();
    format!(
        "# Scenario-matrix report, ScenarioMatrix::small(2017).\n\
         # Regenerate with: MAXLENGTH_BLESS=1 cargo test --test matrix_golden\n{}",
        report.render()
    )
}

#[test]
fn matrix_small_report_matches_golden_fixture() {
    let got = render();
    if std::env::var_os("MAXLENGTH_BLESS").is_some() {
        std::fs::write(FIXTURE, &got).expect("write fixture");
        return;
    }
    let want = std::fs::read_to_string(FIXTURE)
        .expect("missing tests/golden/matrix_small.txt — run with MAXLENGTH_BLESS=1 to create it");
    assert_eq!(
        got, want,
        "scenario-matrix cells moved; if intended, bless with \
         MAXLENGTH_BLESS=1 cargo test --test matrix_golden"
    );
}

/// The executor under the matrix, pinned directly: one fixed plan — two
/// ROA configurations × {forged-origin subprefix hijack, route leak} ×
/// two deployments on 400 ASes — with what the run did ([`ExecStats`])
/// and every cell's accumulator, exactly as [`Accumulator::encode`]
/// writes it (counts, then float bit patterns). The cells and every
/// counter but `baselines` and the stagings by kind are the values of
/// the executor whose trial groups were per-ROA. `baselines` is 0:
/// neither strategy reads a victim-only propagation. By kind, per trial:
/// the hijack, valid under the loose ROA, wins every AS, which needs no
/// engine run (`structural` 6); under the minimal ROA it is filtered and
/// pushed, and once more in the one re-propagated cell (`push` 7). The
/// leak under the loose ROA is the one transparent head-to-head run,
/// settled by the outcome-only kernel (`lane` 6); under the minimal ROA
/// it announces the same valid route and reuses that outcome (`memo`
/// 6). The kinds sum to `executed`, and the engine runs `lane + push +
/// stacked + baselines` = 13 times.
#[test]
fn executor_stats_and_cells_match_pinned_values() {
    use maxlength_rpki::bgpsim::{
        Accumulator, AttackKind, AttackerStrategy, CellAccumulator, DeploymentModel, ExecStats,
        Executor, PlanTopology, RoaConfig, RouteLeak, Topology, TopologyConfig, TrialPlan,
    };
    let topology = Topology::generate(TopologyConfig {
        n: 400,
        tier1: 6,
        ..TopologyConfig::default()
    });
    let (hijack, leak) = (AttackKind::ForgedOriginSubprefixHijack, RouteLeak);
    let plan = TrialPlan::new(
        vec![PlanTopology {
            label: "n=400".into(),
            topology: &topology,
        }],
        vec![&hijack as &dyn AttackerStrategy, &leak],
        vec![
            DeploymentModel::Uniform { p: 0.75 },
            DeploymentModel::StubsOnly { p: 1.0 },
        ],
        vec![RoaConfig::NonMinimalMaxLen, RoaConfig::Minimal],
        6,
        2017,
    );
    let (cells, stats) = Executor::parallel().run_with_stats::<CellAccumulator>(&plan);
    let encoded: Vec<String> = cells
        .iter()
        .map(|cell| {
            let mut text = String::new();
            cell.encode(&mut text);
            text
        })
        .collect();
    assert_eq!(
        stats,
        ExecStats {
            items: 48,
            compilations: 2,
            executed: 25,
            footprint_checks: 24,
            cells_replayed: 23,
            cells_repropagated: 1,
            baselines: 0,
            silent: 0,
            structural: plan.trials,
            lane: plan.trials,
            push: plan.trials + 1,
            stacked: 0,
            memo: plan.trials,
        }
    );
    assert_eq!(
        stats.silent + stats.structural + stats.lane + stats.push + stats.stacked + stats.memo,
        stats.executed
    );
    // Cell order: strategy, then deployment, then ROA (fastest).
    let leak_cell = "6:6:3fe46c0f6feb6ac6:3f949539e3b2d067:3fd4be64577a3608:0";
    assert_eq!(
        encoded,
        [
            "6:6:4018000000000000:3ff0000000000000:3ff0000000000000:0",
            "6:6:3f89ba885c9f8481:0:3f89ba885c9f8481:0",
            "6:6:4018000000000000:3ff0000000000000:3ff0000000000000:0",
            "6:6:0:0:0:0",
            leak_cell,
            leak_cell,
            leak_cell,
            leak_cell,
        ]
    );
}

/// A staging whose seed the engine refuses is refused where it is
/// staged: transparent, it is still no lane, so it is never deferred
/// into the worker's lane batch for a later flush (perhaps another
/// group's) to refuse. Here the overlong forgery must stop the run
/// before the group's next strategy is planned.
#[test]
fn a_refused_seed_panics_at_its_own_staging() {
    use maxlength_rpki::bgpsim::{
        AttackAnnouncement, AttackKind, AttackPlan, AttackerStrategy, CellAccumulator,
        DeploymentModel, Executor, PlanTopology, RoaConfig, StrategyContext, Topology,
        TopologyConfig, TrialPlan,
    };
    use std::sync::atomic::{AtomicUsize, Ordering};

    /// The victim's prefix under the victim's origin, over a path no
    /// engine takes.
    struct OverlongForgery;

    impl AttackerStrategy for OverlongForgery {
        fn label(&self) -> String {
            "overlong forgery".into()
        }

        fn plan(&self, ctx: &StrategyContext<'_>) -> AttackPlan {
            AttackPlan {
                announcement: Some(AttackAnnouncement {
                    prefix: ctx.victim_prefix,
                    claimed_origin: ctx.victim_asn(),
                    path_len: u32::MAX,
                }),
                target: ctx.sub_prefix,
            }
        }
    }

    /// The forged-origin prefix hijack, counting its plans.
    struct Counted(AtomicUsize);

    impl AttackerStrategy for Counted {
        fn label(&self) -> String {
            "counted".into()
        }

        fn plan(&self, ctx: &StrategyContext<'_>) -> AttackPlan {
            self.0.fetch_add(1, Ordering::Relaxed);
            AttackKind::ForgedOriginPrefixHijack.plan(ctx)
        }
    }

    let topology = Topology::generate(TopologyConfig {
        n: 120,
        tier1: 4,
        ..TopologyConfig::default()
    });
    let counted = Counted(AtomicUsize::new(0));
    let plan = TrialPlan::new(
        vec![PlanTopology {
            label: "n=120".into(),
            topology: &topology,
        }],
        vec![&OverlongForgery as &dyn AttackerStrategy, &counted],
        vec![DeploymentModel::Uniform { p: 0.5 }],
        vec![RoaConfig::NoRoa],
        1,
        2017,
    );
    let refused = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
        Executor::sequential().run::<CellAccumulator>(&plan)
    }))
    .expect_err("the engine refuses the overlong seed");
    let why = refused
        .downcast_ref::<String>()
        .expect("a formatted panic message");
    assert!(why.contains("exceeds the engine's bound"), "{why}");
    assert_eq!(
        counted.0.load(Ordering::Relaxed),
        0,
        "planned past the refusal"
    );
}

/// §2's premise, through the executor: under full ROV, any ROA kills the
/// classic hijacks, which claim the attacker's own origin. Head to head
/// that is the one filtered staging the standard grid lacks: it must be
/// pushed through the filter, never settled as an accept-all lane.
#[test]
fn classic_hijacks_are_dead_under_any_roa_and_full_rov() {
    use maxlength_rpki::bgpsim::{
        AttackKind, DeploymentModel, RoaConfig, ScenarioMatrix, TopologyConfig, TopologyFamily,
    };
    let report = ScenarioMatrix {
        topologies: vec![TopologyFamily::new(TopologyConfig {
            n: 200,
            tier1: 4,
            ..TopologyConfig::default()
        })],
        strategies: vec![
            Box::new(AttackKind::PrefixHijack),
            Box::new(AttackKind::SubprefixHijack),
        ],
        deployments: vec![DeploymentModel::Uniform { p: 1.0 }],
        roas: RoaConfig::ALL.to_vec(),
        trials: 4,
        seed: 2017,
    }
    .run();
    let mean = |kind: AttackKind, roa| {
        report
            .cells_for(kind.label(), roa)
            .next()
            .expect("cell on the grid")
            .stats
            .mean_interception
    };
    for kind in [AttackKind::PrefixHijack, AttackKind::SubprefixHijack] {
        assert!(mean(kind, RoaConfig::NoRoa) > 0.0, "{kind:?} without a ROA");
        for roa in [RoaConfig::NonMinimalMaxLen, RoaConfig::Minimal] {
            assert_eq!(mean(kind, roa), 0.0, "{kind:?} under {roa:?}");
        }
    }
}
