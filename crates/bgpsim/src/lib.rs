//! An AS-level BGP simulator for the paper's attack analysis (§4–§5).
//!
//! The paper's security claims are routing-policy consequences:
//!
//! * a **forged-origin subprefix hijack** against a non-minimal ROA is
//!   RPKI-valid and, being the *only* route for its prefix, captures 100%
//!   of the traffic via longest-prefix match (§4);
//! * a traditional **forged-origin prefix hijack** competes with the
//!   legitimate announcement, so traffic *splits* and the majority stays
//!   on the legitimate route on average (§4, citing Lychev et al.);
//! * a **minimal ROA** makes the subprefix variant Invalid, forcing the
//!   attacker down to the much weaker prefix-grained attack (§5).
//!
//! This crate reproduces those results on synthetic AS topologies —
//! and generalizes them into a scenario-matrix engine:
//!
//! * [`topology`] — Internet-like AS graphs in a flat CSR layout: a
//!   tier-1 clique, preferential-attachment customer/provider edges,
//!   sprinkled peering; neighbors partitioned into sorted
//!   customer/peer/provider segments.
//! * [`routing`] — Gao–Rexford route propagation (customer > peer >
//!   provider preference, standard export rules, shortest-path tie-breaks)
//!   with per-AS route-origin-validation filtering, and the route
//!   table it yields: [`Propagation`], 16 packed bytes and one
//!   membership bit per AS, read through [`Propagation::route`].
//! * [`engine`] — the flat-graph [`PropagationEngine`] behind
//!   [`routing::propagate`]: reusable per-thread [`Workspace`] scratch,
//!   a path-length bucket queue, precomputed [`OriginFilter`] import
//!   filters over a deployment's [`CompiledPolicies`] bitset, and
//!   interception counted straight off the workspace. It is the only
//!   propagation that ships: the heap search it replaced is the oracle
//!   in `tests/support/reference.rs`, and a seed past
//!   [`PropagationEngine::max_seed_len`] is refused, not rerouted.
//! * [`attack`] — the four hijack types and the one
//!   longest-prefix-match tally that measures who delivers traffic to
//!   whom, over any stack of route tables.
//! * [`strategy`] — the pluggable [`AttackerStrategy`] trait behind the
//!   attack dispatch, with route leaks, path forgery, and the
//!   maxLength-gap prober beyond the four legacy kinds; [`run_strategy`]
//!   is the one staging call.
//! * [`deployment`] — [`DeploymentModel`]: who validates (uniform,
//!   top-ISPs-first, stub-only), generalizing the single adoption
//!   fraction.
//! * [`exec`] — the unified trial executor: a [`TrialPlan`] IR
//!   enumerating `(topology, strategy, deployment, ROA, trial)` work
//!   items, sequential and rayon [`Executor`] backends over the
//!   per-thread workspace pool, streaming per-cell [`Accumulator`]s,
//!   a deployment-keyed policy cache, and resumable [`PlanCursor`]
//!   checkpoints.
//! * [`experiment`] — the plan axes sampled experiments share:
//!   [`RoaConfig`] and the per-trial attacker/victim pair derivations.
//! * [`matrix`] — [`ScenarioMatrix`]: the full strategy × deployment ×
//!   ROA × topology cross-product — §4/§5's table is one such grid —
//!   run in parallel bit-identically to the sequential fold.
//!
//! ```
//! use bgpsim::{AttackKind, DeploymentModel, ScenarioMatrix, TopologyFamily};
//! use bgpsim::experiment::RoaConfig;
//! use bgpsim::topology::TopologyConfig;
//!
//! // §4/§5's table: the four hijacks × the three ROA configurations
//! // under universal ROV.
//! let report = ScenarioMatrix {
//!     topologies: vec![TopologyFamily::new(TopologyConfig {
//!         n: 120,
//!         tier1: 4,
//!         ..TopologyConfig::default()
//!     })],
//!     strategies: AttackKind::ALL.iter().map(|&k| Box::new(k) as _).collect(),
//!     deployments: vec![DeploymentModel::Uniform { p: 1.0 }],
//!     roas: RoaConfig::ALL.to_vec(),
//!     trials: 3,
//!     seed: 1,
//! }
//! .run();
//! let headline = AttackKind::ForgedOriginSubprefixHijack.label();
//! let cell = |roa| report.cells_for(headline, roa).next().unwrap().stats;
//!
//! // §4: the headline attack beats the non-minimal ROA completely...
//! assert!(cell(RoaConfig::NonMinimalMaxLen).mean_interception > 0.99);
//! // ...and the minimal ROA stops it cold (§5).
//! assert_eq!(cell(RoaConfig::Minimal).mean_interception, 0.0);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod attack;
pub mod deployment;
pub mod engine;
pub mod exec;
pub mod experiment;
pub mod matrix;
pub mod routing;
pub mod strategy;
pub mod topology;

pub use attack::{AttackKind, AttackOutcome, AttackSetup, ForgedOriginTrial};
pub use deployment::DeploymentModel;
pub use engine::{CompiledPolicies, FilterFootprint, OriginFilter, PropagationEngine, Workspace};
pub use exec::{
    Accumulator, CellAccumulator, DestinationSampler, ExecStats, Executor, PlanCursor, PlanSession,
    PlanTopology, TrialPlan,
};
pub use experiment::RoaConfig;
pub use matrix::{CellStats, MatrixCell, MatrixReport, ScenarioMatrix, TopologyFamily};
pub use routing::{Propagation, RouteClass, RouteInfo};
pub use strategy::{
    run_strategy, AttackAnnouncement, AttackPlan, AttackerStrategy, MaxLengthGapProber,
    PathForgery, RouteLeak, StrategyContext,
};
pub use topology::{InternetConfig, Relationship, Topology, TopologyConfig};
