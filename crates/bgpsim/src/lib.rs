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
//!   with per-AS route-origin-validation filtering.
//! * [`engine`] — the flat-graph [`PropagationEngine`] behind
//!   [`routing::propagate`]: reusable per-thread [`Workspace`] scratch,
//!   a path-length bucket queue, precomputed [`OriginFilter`] import
//!   filters, and single-pass interception counting. It is the only
//!   propagation that ships: the heap search it replaced is the oracle
//!   in `tests/support/reference.rs`, and a seed past
//!   [`PropagationEngine::max_seed_len`] is refused, not rerouted.
//! * [`attack`] — the four hijack types and the longest-prefix-match
//!   data plane that measures who delivers traffic to whom.
//! * [`strategy`] — the pluggable [`AttackerStrategy`] trait behind the
//!   attack dispatch, with route leaks, path forgery, and the
//!   maxLength-gap prober beyond the four legacy kinds.
//! * [`deployment`] — [`DeploymentModel`]: who validates (uniform,
//!   top-ISPs-first, stub-only), generalizing the single adoption
//!   fraction.
//! * [`exec`] — the unified trial executor: a [`TrialPlan`] IR
//!   enumerating `(topology, strategy, deployment, ROA, trial)` work
//!   items, sequential and rayon [`Executor`] backends over the
//!   per-thread workspace pool, streaming per-cell [`Accumulator`]s,
//!   a deployment-keyed policy cache, and resumable [`PlanCursor`]
//!   checkpoints. Every trial loop below is a thin plan-builder over it.
//! * [`experiment`] — sampled attacker/victim trials producing the
//!   interception statistics quoted in EXPERIMENTS.md.
//! * [`matrix`] — [`ScenarioMatrix`]: the full strategy × deployment ×
//!   ROA × topology cross-product, run in parallel bit-identically to
//!   the sequential fold.
//!
//! ```
//! use bgpsim::{AttackExperiment, AttackKind};
//! use bgpsim::experiment::RoaConfig;
//! use bgpsim::topology::TopologyConfig;
//!
//! let report = AttackExperiment {
//!     topology: TopologyConfig { n: 120, tier1: 4, ..TopologyConfig::default() },
//!     trials: 3,
//!     rov_fraction: 1.0,
//!     seed: 1,
//! }
//! .run();
//!
//! // §4: the headline attack beats the non-minimal ROA completely...
//! let bad = report.cell(AttackKind::ForgedOriginSubprefixHijack, RoaConfig::NonMinimalMaxLen);
//! assert!(bad.mean_interception > 0.99);
//! // ...and the minimal ROA stops it cold (§5).
//! let good = report.cell(AttackKind::ForgedOriginSubprefixHijack, RoaConfig::Minimal);
//! assert_eq!(good.mean_interception, 0.0);
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
    Accumulator, CellAccumulator, DestinationSampler, ExecStats, Executor, FractionAccumulator,
    PlanCursor, PlanSession, PlanTopology, TrialPlan,
};
pub use experiment::{AdoptionSweep, AttackExperiment, ExperimentReport, RoaConfig};
pub use matrix::{CellStats, MatrixCell, MatrixReport, ScenarioMatrix, TopologyFamily};
pub use routing::{Propagation, RouteClass, RouteInfo};
pub use strategy::{
    run_strategy, run_strategy_compiled, AttackAnnouncement, AttackPlan, AttackerStrategy,
    MaxLengthGapProber, PathForgery, RouteLeak, StrategyContext,
};
pub use topology::{InternetConfig, Relationship, Topology, TopologyConfig};
