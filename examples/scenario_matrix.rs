//! The attack scenario matrix, end to end — including a custom attacker
//! strategy plugged into the open trait.
//!
//! The paper's table fixes two attack shapes against three ROA
//! configurations under universal ROV. The matrix generalizes all three
//! axes and adds a fourth (who validates), and because the strategy axis
//! is a trait, this example defines its own attacker — a "wait-and-leak"
//! hybrid that leaks when it learned the victim's route and probes the
//! maxLength gap otherwise — without touching the engine.
//!
//! ```sh
//! cargo run --release --example scenario_matrix
//! ```

use maxlength_rpki::bgpsim::exec::{CellAccumulator, Executor, PlanCursor};
use maxlength_rpki::bgpsim::experiment::RoaConfig;
use maxlength_rpki::bgpsim::matrix::{ScenarioMatrix, TopologyFamily};
use maxlength_rpki::bgpsim::strategy::{AttackPlan, AttackerStrategy, StrategyContext};
use maxlength_rpki::bgpsim::topology::{Topology, TopologyConfig};
use maxlength_rpki::bgpsim::{DeploymentModel, MaxLengthGapProber, RouteLeak};

/// A custom strategy: leak if the route was learned, probe otherwise.
struct WaitAndLeak;

impl AttackerStrategy for WaitAndLeak {
    fn label(&self) -> String {
        "wait-and-leak hybrid".to_string()
    }

    fn plan(&self, ctx: &StrategyContext<'_>) -> AttackPlan {
        if ctx.baseline().route(ctx.attacker).is_some() {
            RouteLeak.plan(ctx)
        } else {
            MaxLengthGapProber.plan(ctx)
        }
    }
}

fn main() {
    let mut strategies = ScenarioMatrix::standard_strategies();
    strategies.push(Box::new(WaitAndLeak));

    let matrix = ScenarioMatrix {
        topologies: vec![TopologyFamily::new(TopologyConfig {
            n: 600,
            tier1: 6,
            ..TopologyConfig::default()
        })],
        strategies,
        deployments: vec![
            DeploymentModel::Uniform { p: 1.0 },
            DeploymentModel::TopIspsFirst { p: 0.3 },
            DeploymentModel::StubsOnly { p: 1.0 },
        ],
        roas: RoaConfig::ALL.to_vec(),
        trials: 8,
        seed: 2017,
    };

    let t0 = std::time::Instant::now();
    let (report, stats) = matrix.run_par_with_stats();
    println!("{}", report.render());
    println!(
        "{} cells × {} trials in {:.1?} (parallel, bit-identical to sequential): \
         {} policy compilations, {}/{} outcomes replayed as deployment-independent",
        report.cells.len(),
        report.trials,
        t0.elapsed(),
        stats.compilations,
        stats.cells_replayed,
        stats.items,
    );

    // The same grid, checkpointed: run a few items at a time, serialize
    // the cursor to text between steps (as a long-running job would
    // persist it to disk across restarts), and finish bit-identical to
    // the straight-through run above.
    let topologies: Vec<Topology> = matrix
        .topologies
        .iter()
        .map(|family| Topology::generate(family.config))
        .collect();
    let plan = matrix.plan(&topologies);
    // One session = the policy axis resolved once, reused by every
    // checkpoint step.
    let session = Executor::sequential().session(&plan);
    let mut cursor = plan.cursor::<CellAccumulator>();
    let mut steps = 0;
    while !session.run_until(&mut cursor, 64) {
        steps += 1;
        let persisted = cursor.encode();
        cursor = PlanCursor::decode(&persisted).expect("cursor survives a restart");
    }
    let resumed: Vec<_> = cursor
        .into_accumulators()
        .iter()
        .map(maxlength_rpki::bgpsim::Accumulator::finish)
        .collect();
    let straight: Vec<_> = report.cells.iter().map(|c| c.stats).collect();
    assert_eq!(resumed, straight);
    println!(
        "checkpointed re-run: {steps} stop/restart cycles, result bit-identical \
         to the straight-through grid"
    );

    println!(
        r#"
Take-aways (paper §4-§5, generalized):
  * the maxLength-gap prober matches the headline subprefix hijack
    against the loose ROA and gracefully demotes against the minimal
    one -- the ROA discipline, not ROV coverage, decides its ceiling;
  * the route leak posts identical numbers in all three ROA columns:
    origin validation cannot see a leak;
  * moving validation from a uniform half of the Internet to the top
    ISPs changes the minimal-ROA numbers substantially at the same
    head-count -- *where* ROV sits matters as much as how much."#
    );
}
