//! The scenario-matrix engine: every attacker strategy × every ROV
//! deployment model × every ROA configuration × a family of topologies,
//! sampled over many attacker/victim pairs and aggregated per cell.
//!
//! This is the paper's §4/§5 table generalized into a grid. The axes:
//!
//! * **topology** — [`TopologyFamily`], size/tier mixes of the synthetic
//!   Internet ([`TopologyConfig`] per family);
//! * **strategy** — any [`AttackerStrategy`] (the four legacy
//!   [`crate::AttackKind`]s, route leaks, path forgery, the
//!   maxLength-gap prober, or your own impl);
//! * **deployment** — a [`DeploymentModel`] assigning per-AS ROV
//!   adoption;
//! * **ROA configuration** — [`RoaConfig`]: none, loose maxLength, or
//!   minimal.
//!
//! Every cell runs the same `trials` attacker/victim pairs (derived per
//! trial as `seed ^ trial`, independent of cell order), so cells are
//! directly comparable and [`ScenarioMatrix::run_par`] is **bit-identical**
//! to [`ScenarioMatrix::run`] at any thread count — asserted by
//! `tests/routing_props.rs` and the golden fixture
//! `tests/golden/matrix_small.txt`.
//!
//! The matrix is a thin plan-builder: [`ScenarioMatrix::plan`] assembles
//! a [`crate::exec::TrialPlan`] and every `run*` method schedules it on
//! the [`crate::exec::Executor`] — the layer the census-weighted risk
//! path and the `maxlength` subcommands run on too — with its deployment-keyed
//! policy cache, shared baselines, and streaming per-cell accumulators.

use crate::attack::AttackOutcome;
use crate::deployment::DeploymentModel;
use crate::exec::{Accumulator, CellAccumulator, ExecStats, Executor, PlanTopology, TrialPlan};
use crate::experiment::RoaConfig;
use crate::strategy::{AttackerStrategy, MaxLengthGapProber, PathForgery, RouteLeak};
use crate::topology::{Topology, TopologyConfig};
use crate::AttackKind;

/// One labelled point on the topology axis.
#[derive(Debug, Clone, PartialEq)]
pub struct TopologyFamily {
    /// Display label (stable: golden fixtures key on it).
    pub label: String,
    /// The generator configuration.
    pub config: TopologyConfig,
}

impl TopologyFamily {
    /// A family labelled after its size and tier-1 mix.
    pub fn new(config: TopologyConfig) -> TopologyFamily {
        TopologyFamily {
            label: format!("n={} tier1={}", config.n, config.tier1),
            config,
        }
    }

    /// A small/medium pair exercising different tier mixes — the default
    /// topology axis for quick matrix runs.
    pub fn standard(n: usize) -> Vec<TopologyFamily> {
        vec![
            TopologyFamily::new(TopologyConfig {
                n: (n / 2).max(40),
                tier1: 4,
                ..TopologyConfig::default()
            }),
            TopologyFamily::new(TopologyConfig {
                n: n.max(60),
                tier1: 8,
                ..TopologyConfig::default()
            }),
        ]
    }
}

/// The full cross-product experiment.
pub struct ScenarioMatrix {
    /// Topology axis.
    pub topologies: Vec<TopologyFamily>,
    /// Attacker-strategy axis.
    pub strategies: Vec<Box<dyn AttackerStrategy>>,
    /// ROV-deployment axis.
    pub deployments: Vec<DeploymentModel>,
    /// ROA-configuration axis.
    pub roas: Vec<RoaConfig>,
    /// Attacker/victim pairs sampled per cell (the same pairs in every
    /// cell, for comparability).
    pub trials: usize,
    /// Base seed for pair sampling and deployment draws.
    pub seed: u64,
}

/// Aggregated [`AttackOutcome`] statistics for one cell.
///
/// A trial is *eligible* if at least one AS routed toward the target at
/// all (`intercepted + legitimate > 0`); cells whose every trial
/// disconnects (e.g. a wrong-origin ROA under universal ROV) report 0.0
/// across the board rather than NaN.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct CellStats {
    /// Trials run.
    pub trials: usize,
    /// Trials with at least one routed AS.
    pub eligible: usize,
    /// Mean interception fraction over eligible trials (0.0 if none).
    pub mean_interception: f64,
    /// Minimum over eligible trials (0.0 if none).
    pub min_interception: f64,
    /// Maximum over eligible trials (0.0 if none).
    pub max_interception: f64,
    /// Mean fraction of ASes with no route to the target, over all
    /// trials (0.0 if none).
    pub mean_disconnected: f64,
}

impl CellStats {
    /// Folds per-trial outcomes — **in trial order** — into one cell:
    /// the collect-then-fold reference the streaming
    /// [`crate::exec::CellAccumulator`] must match bit-for-bit (pinned
    /// by the `exec_props` differential suite).
    pub fn from_outcomes(outcomes: &[AttackOutcome]) -> CellStats {
        let mut eligible = 0usize;
        let mut sum = 0.0f64;
        let mut min = f64::INFINITY;
        let mut max = 0.0f64;
        let mut disconnected_sum = 0.0f64;
        for o in outcomes {
            let routed = o.intercepted + o.legitimate;
            let total = routed + o.disconnected;
            if total > 0 {
                disconnected_sum += o.disconnected as f64 / total as f64;
            }
            if routed == 0 {
                continue;
            }
            eligible += 1;
            let f = o.interception_fraction();
            sum += f;
            min = min.min(f);
            max = max.max(f);
        }
        CellStats {
            trials: outcomes.len(),
            eligible,
            mean_interception: if eligible == 0 {
                0.0
            } else {
                sum / eligible as f64
            },
            min_interception: if min.is_finite() { min } else { 0.0 },
            max_interception: max,
            mean_disconnected: if outcomes.is_empty() {
                0.0
            } else {
                disconnected_sum / outcomes.len() as f64
            },
        }
    }
}

/// One cell of the rendered report.
#[derive(Debug, Clone, PartialEq)]
pub struct MatrixCell {
    /// Topology-family label.
    pub topology: String,
    /// Strategy label.
    pub strategy: String,
    /// Deployment-model label.
    pub deployment: String,
    /// ROA configuration.
    pub roa: RoaConfig,
    /// Aggregated outcomes.
    pub stats: CellStats,
}

/// The full matrix result.
#[derive(Debug, Clone, PartialEq)]
pub struct MatrixReport {
    /// Cells in axis order: topology → strategy → deployment → ROA.
    pub cells: Vec<MatrixCell>,
    /// Trials per cell.
    pub trials: usize,
    /// The seed the run used.
    pub seed: u64,
}

impl MatrixReport {
    /// Looks a cell up by its labels.
    ///
    /// # Panics
    ///
    /// Panics if no such cell exists (axis labels are part of the API).
    pub fn cell(
        &self,
        topology: &str,
        strategy: &str,
        deployment: &str,
        roa: RoaConfig,
    ) -> &MatrixCell {
        self.cells
            .iter()
            .find(|c| {
                c.topology == topology
                    && c.strategy == strategy
                    && c.deployment == deployment
                    && c.roa == roa
            })
            .unwrap_or_else(|| {
                panic!("no cell ({topology}) × ({strategy}) × ({deployment}) × {roa:?}")
            })
    }

    /// All cells for one (strategy, ROA) pair, across topologies and
    /// deployments.
    pub fn cells_for<'a>(
        &'a self,
        strategy: &'a str,
        roa: RoaConfig,
    ) -> impl Iterator<Item = &'a MatrixCell> + 'a {
        self.cells
            .iter()
            .filter(move |c| c.strategy == strategy && c.roa == roa)
    }

    /// Mean of the per-cell mean interception over every cell with this
    /// ROA configuration — 0.0 (never NaN) when the report is empty.
    pub fn mean_for_roa(&self, roa: RoaConfig) -> f64 {
        let (sum, count) = self
            .cells
            .iter()
            .filter(|c| c.roa == roa)
            .fold((0.0f64, 0usize), |(s, n), c| {
                (s + c.stats.mean_interception, n + 1)
            });
        if count == 0 {
            0.0
        } else {
            sum / count as f64
        }
    }

    /// Renders the grid as an aligned text table, grouped by topology.
    pub fn render(&self) -> String {
        let mut out = format!(
            "scenario matrix · {} trials/cell · seed {}\n",
            self.trials, self.seed
        );
        let mut current_topology: Option<&str> = None;
        for c in &self.cells {
            if current_topology != Some(c.topology.as_str()) {
                current_topology = Some(c.topology.as_str());
                out.push_str(&format!(
                    "\n=== topology {} ===\n{:<34} {:<22} {:<28} {:>7} {:>7} {:>7} {:>6}\n",
                    c.topology,
                    "strategy",
                    "deployment",
                    "ROA configuration",
                    "mean",
                    "min",
                    "max",
                    "elig"
                ));
            }
            out.push_str(&format!(
                "{:<34} {:<22} {:<28} {:>6.1}% {:>6.1}% {:>6.1}% {:>3}/{}\n",
                c.strategy,
                c.deployment,
                c.roa.label(),
                c.stats.mean_interception * 100.0,
                c.stats.min_interception * 100.0,
                c.stats.max_interception * 100.0,
                c.stats.eligible,
                c.stats.trials,
            ));
        }
        out
    }
}

impl ScenarioMatrix {
    /// The canonical strategy axis: both forged-origin hijack grains,
    /// a full route leak, path shortening and prepending, and the
    /// adaptive maxLength-gap prober.
    pub fn standard_strategies() -> Vec<Box<dyn AttackerStrategy>> {
        vec![
            Box::new(AttackKind::ForgedOriginPrefixHijack),
            Box::new(AttackKind::ForgedOriginSubprefixHijack),
            Box::new(RouteLeak),
            Box::new(PathForgery::shortened()),
            Box::new(PathForgery::prepended(3)),
            Box::new(MaxLengthGapProber),
        ]
    }

    /// The small fixed configuration frozen in
    /// `tests/golden/matrix_small.txt`: two topology families, the
    /// standard strategies, the standard deployments, all ROA
    /// configurations, 4 trials.
    pub fn small(seed: u64) -> ScenarioMatrix {
        ScenarioMatrix {
            topologies: TopologyFamily::standard(240),
            strategies: Self::standard_strategies(),
            deployments: DeploymentModel::standard(),
            roas: RoaConfig::ALL.to_vec(),
            trials: 4,
            seed,
        }
    }

    /// Number of cells the cross-product spans.
    pub fn cell_count(&self) -> usize {
        self.topologies.len() * self.strategies.len() * self.deployments.len() * self.roas.len()
    }

    /// Generates the topology axis, which every `run*` method's plan
    /// borrows.
    fn generate_topologies(&self) -> Vec<Topology> {
        let generate = |family: &TopologyFamily| Topology::generate(family.config);
        self.topologies.iter().map(generate).collect()
    }

    /// The executor IR for this matrix over already-generated
    /// topologies (one per [`TopologyFamily`], in axis order).
    pub fn plan<'a>(&'a self, topologies: &'a [Topology]) -> TrialPlan<'a> {
        assert_eq!(topologies.len(), self.topologies.len());
        TrialPlan::new(
            self.topologies
                .iter()
                .zip(topologies)
                .map(|(family, t)| PlanTopology {
                    label: family.label.clone(),
                    topology: t,
                })
                .collect(),
            self.strategies.iter().map(|s| s.as_ref()).collect(),
            self.deployments.clone(),
            self.roas.clone(),
            self.trials,
            self.seed,
        )
    }

    /// Assembles the rendered report from `plan`'s per-cell statistics
    /// in canonical cell order.
    fn report_from(&self, plan: &TrialPlan<'_>, stats: Vec<CellStats>) -> MatrixReport {
        let cells = stats
            .into_iter()
            .enumerate()
            .map(|(cell, stats)| {
                let (ti, si, di, ri) = plan.cell_axes(cell);
                MatrixCell {
                    topology: self.topologies[ti].label.clone(),
                    strategy: self.strategies[si].label(),
                    deployment: self.deployments[di].label(),
                    roa: self.roas[ri],
                    stats,
                }
            })
            .collect();
        MatrixReport {
            cells,
            trials: self.trials,
            seed: self.seed,
        }
    }

    /// Runs every cell sequentially through the trial executor.
    pub fn run(&self) -> MatrixReport {
        self.run_with(Executor::sequential()).0
    }

    /// [`Self::run`] with the plan's trial groups fanned out over worker
    /// threads (`RAYON_NUM_THREADS` honored).
    ///
    /// Trials are independent by construction — each derives its own
    /// `StdRng::seed_from_u64(seed ^ trial)` stream, deployments draw
    /// from the domain-separated policy stream — and the executor folds
    /// each cell's ordered outcomes exactly as the sequential path folds
    /// them, so the report is **bit-identical** to [`Self::run`] at
    /// every thread count.
    pub fn run_par(&self) -> MatrixReport {
        self.run_with(Executor::parallel()).0
    }

    /// [`Self::run_par`] plus the executor's [`ExecStats`] — how many
    /// policy compilations the deployment cache performed and how many
    /// outcomes were replayed rather than re-propagated.
    pub fn run_par_with_stats(&self) -> (MatrixReport, ExecStats) {
        self.run_with(Executor::parallel())
    }

    /// Runs the matrix through [`crate::exec::run_plan_collected`]
    /// (fresh baselines, per-deployment re-propagation, O(trials) memory
    /// per cell) — the differential reference the `exec_props` and
    /// `spec_props` suites compare the executor against. Not a
    /// production path.
    pub fn run_collected(&self) -> MatrixReport {
        let topologies = self.generate_topologies();
        let plan = self.plan(&topologies);
        let collected = crate::exec::run_plan_collected(&plan);
        self.report_from(
            &plan,
            collected
                .iter()
                .map(|outcomes| CellStats::from_outcomes(outcomes))
                .collect(),
        )
    }

    fn run_with(&self, executor: Executor) -> (MatrixReport, ExecStats) {
        let topologies = self.generate_topologies();
        let plan = self.plan(&topologies);
        let (accs, stats) = executor.run_with_stats::<CellAccumulator>(&plan);
        (
            self.report_from(&plan, accs.iter().map(|a| a.finish()).collect()),
            stats,
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tiny() -> ScenarioMatrix {
        ScenarioMatrix {
            topologies: vec![TopologyFamily::new(TopologyConfig {
                n: 150,
                tier1: 4,
                ..TopologyConfig::default()
            })],
            strategies: ScenarioMatrix::standard_strategies(),
            deployments: vec![
                DeploymentModel::Uniform { p: 1.0 },
                DeploymentModel::StubsOnly { p: 1.0 },
            ],
            roas: RoaConfig::ALL.to_vec(),
            trials: 3,
            seed: 12,
        }
    }

    #[test]
    fn covers_the_whole_cross_product_in_axis_order() {
        let m = tiny();
        let report = m.run();
        assert_eq!(report.cells.len(), m.cell_count());
        // 1 topology × 6 strategies × 2 deployments × 3 ROAs.
        assert_eq!(report.cells.len(), 6 * 2 * 3);
        // Axis order: ROA varies fastest.
        assert_eq!(report.cells[0].roa, RoaConfig::NoRoa);
        assert_eq!(report.cells[1].roa, RoaConfig::NonMinimalMaxLen);
        assert_eq!(report.cells[2].roa, RoaConfig::Minimal);
        assert_eq!(report.cells[0].strategy, report.cells[5].strategy);
        assert_ne!(report.cells[0].strategy, report.cells[6].strategy);
        for c in &report.cells {
            assert_eq!(c.stats.trials, 3);
            assert!(c.stats.mean_interception.is_finite());
        }
    }

    #[test]
    fn parallel_is_bit_identical() {
        let m = tiny();
        assert_eq!(m.run(), m.run_par());
    }

    #[test]
    fn paper_headline_appears_in_the_grid() {
        let report = tiny().run_par();
        let topo = "n=150 tier1=4";
        let full = "uniform p=1.00";
        // Forged-origin subprefix vs loose maxLength: a clean sweep.
        let headline = report.cell(
            topo,
            "forged-origin subprefix hijack",
            full,
            RoaConfig::NonMinimalMaxLen,
        );
        assert!(headline.stats.mean_interception > 0.999, "{headline:?}");
        // The minimal ROA kills it.
        let fixed = report.cell(
            topo,
            "forged-origin subprefix hijack",
            full,
            RoaConfig::Minimal,
        );
        assert_eq!(fixed.stats.mean_interception, 0.0);
        // The gap prober tracks the headline against the loose ROA and
        // survives (demoted) against the minimal one.
        let probe_loose = report.cell(
            topo,
            MaxLengthGapProber::LABEL,
            full,
            RoaConfig::NonMinimalMaxLen,
        );
        assert!(probe_loose.stats.mean_interception > 0.999);
        let probe_min = report.cell(topo, MaxLengthGapProber::LABEL, full, RoaConfig::Minimal);
        assert!(probe_min.stats.mean_interception < probe_loose.stats.mean_interception);
        assert!(probe_min.stats.mean_interception > 0.0);
        // The route leak does not care about ROAs at all.
        for deployment in ["uniform p=1.00", "stub-only p=1.00"] {
            let leak_none = report.cell(topo, "route leak", deployment, RoaConfig::NoRoa);
            let leak_loose =
                report.cell(topo, "route leak", deployment, RoaConfig::NonMinimalMaxLen);
            let leak_min = report.cell(topo, "route leak", deployment, RoaConfig::Minimal);
            assert_eq!(leak_none.stats, leak_loose.stats);
            assert_eq!(leak_loose.stats, leak_min.stats);
        }
    }

    #[test]
    fn render_lists_every_axis_label() {
        let m = tiny();
        let text = m.run_par().render();
        for s in &m.strategies {
            assert!(text.contains(&s.label()), "{} missing", s.label());
        }
        for d in &m.deployments {
            assert!(text.contains(&d.label()));
        }
        for r in &m.roas {
            assert!(text.contains(r.label()));
        }
        assert!(text.contains("=== topology n=150 tier1=4 ==="));
    }

    #[test]
    fn cell_stats_zero_eligible_is_zero_not_nan() {
        // The regression the issue calls out: zero eligible trials must
        // aggregate to 0.0, never NaN.
        let empty = CellStats::from_outcomes(&[]);
        assert_eq!(empty.mean_interception, 0.0);
        assert_eq!(empty.min_interception, 0.0);
        assert_eq!(empty.max_interception, 0.0);
        assert_eq!(empty.mean_disconnected, 0.0);

        let all_disconnected = CellStats::from_outcomes(&[AttackOutcome {
            intercepted: 0,
            legitimate: 0,
            disconnected: 7,
        }]);
        assert_eq!(all_disconnected.eligible, 0);
        assert_eq!(all_disconnected.mean_interception, 0.0);
        assert_eq!(all_disconnected.mean_disconnected, 1.0);
        assert!(!all_disconnected.mean_interception.is_nan());

        let empty_report = MatrixReport {
            cells: Vec::new(),
            trials: 0,
            seed: 0,
        };
        assert_eq!(empty_report.mean_for_roa(RoaConfig::Minimal), 0.0);
    }

    #[test]
    fn mean_for_roa_orders_minimal_below_loose() {
        let report = tiny().run_par();
        assert!(
            report.mean_for_roa(RoaConfig::Minimal)
                <= report.mean_for_roa(RoaConfig::NonMinimalMaxLen)
        );
    }

    #[test]
    #[should_panic(expected = "no cell")]
    fn cell_lookup_rejects_unknown_labels() {
        tiny().run().cell("nope", "nope", "nope", RoaConfig::NoRoa);
    }
}
