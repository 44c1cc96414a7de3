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
/// counter but `baselines`, `shared`, `structural` and `pulled` are the
/// values of the executor whose trial groups were per-ROA. `baselines`
/// is 0: neither strategy reads a victim-only propagation. `shared` is
/// two per trial: the route leak announces the same valid route under
/// the minimal ROA as under the loose one, and reuses that outcome; and
/// the hijack, valid under the loose ROA, wins every AS, which needs no
/// engine run — one per trial, `structural` 6 of `shared` 12. The leak
/// under the loose ROA is the one transparent head-to-head run a trial,
/// settled by the outcome-only kernel: `pulled` 6.
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
            shared: 2 * plan.trials,
            structural: plan.trials,
            pulled: plan.trials,
        }
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
