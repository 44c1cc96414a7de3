//! Shared by the executor's differential suites (`#[path]`-included by
//! `exec_props`, `spec_props` and `structure_props`): the executor's
//! oracle, their case count, and a test-local attacker strategy
//! announcing a super-prefix of the victim's — the one staging shape no
//! shipped strategy produces.

use bgpsim::{
    run_strategy, AttackAnnouncement, AttackOutcome, AttackPlan, AttackSetup, AttackerStrategy,
    CellStats, CompiledPolicies, DeploymentModel, StrategyContext, TrialPlan,
};
use proptest::prelude::ProptestConfig;

/// 24 cases per property, or `PROPTEST_CASES` where it is set (CI raises
/// it: these suites are the only oracle of what a trial group reuses).
pub fn cases() -> ProptestConfig {
    match std::env::var_os("PROPTEST_CASES") {
        Some(_) => ProptestConfig::default(),
        None => ProptestConfig::with_cases(24),
    }
}

/// The differential reference for the executor: per cell, per trial, a
/// fresh [`run_strategy`] staging with its own trial group and no
/// cross-deployment cache, collected into a `Vec<AttackOutcome>` per
/// cell in canonical cell order. The executor must match a [`fold`] of
/// this output bit-for-bit. (The propagation engine's own reference is
/// `reference.rs`; every path here runs the one engine, which refuses a
/// seed past `PropagationEngine::max_seed_len`.)
///
/// It costs O(trials) memory per cell and re-propagates every baseline a
/// staging reads and every deployment-independent outcome. It shares the
/// stagings' classifier and so their structural and lane answers;
/// `structure_props` holds every staging kind to a push oracle built
/// from public engine calls. It does not validate the plan: the executor
/// under test validates the same plans.
pub fn run_plan_collected(plan: &TrialPlan<'_>) -> Vec<Vec<AttackOutcome>> {
    let policies: Vec<Vec<CompiledPolicies>> = plan
        .topologies
        .iter()
        .map(|pt| {
            let compile = |d: &DeploymentModel| {
                CompiledPolicies::compile(&d.policies(pt.topology, plan.seed))
            };
            plan.deployments.iter().map(compile).collect()
        })
        .collect();
    (0..plan.cell_count())
        .map(|cell| {
            let (ti, si, di, ri) = plan.cell_axes(cell);
            let topology = plan.topologies[ti].topology;
            let roa = plan.roas[ri];
            (0..plan.trials)
                .map(|trial| {
                    let (victim, attacker) = plan.trial_endpoints(ti, trial);
                    let vrps = roa.vrps(
                        plan.victim_prefix,
                        plan.sub_prefix.len(),
                        topology.asn(victim),
                    );
                    run_strategy(
                        plan.strategies[si],
                        &AttackSetup {
                            topology,
                            victim,
                            attacker,
                            victim_prefix: plan.victim_prefix,
                            sub_prefix: plan.sub_prefix,
                            vrps: &vrps,
                            policies: &policies[ti][di],
                        },
                    )
                })
                .collect()
        })
        .collect()
}

/// Folds one cell's outcomes — **in trial order** — into its statistics:
/// the collect-then-fold reference the streaming `CellAccumulator` must
/// match bit-for-bit.
pub fn fold(outcomes: &[AttackOutcome]) -> CellStats {
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

/// Announces the parent of the victim's prefix, which no VRP covers, so
/// the announcement is NotFound and its filter transparent under every
/// ROA configuration. Its claimed origin and path length follow the
/// published VRPs: the stagings one trial group shares an outcome
/// between differ in their seed, which that outcome must not depend on.
pub struct SuperPrefix;

impl AttackerStrategy for SuperPrefix {
    fn label(&self) -> String {
        "super-prefix announcement".to_string()
    }

    fn plan(&self, ctx: &StrategyContext<'_>) -> AttackPlan {
        let loosest = ctx
            .vrps
            .covering(ctx.victim_prefix)
            .map(|v| v.max_len)
            .max();
        AttackPlan {
            announcement: Some(AttackAnnouncement {
                prefix: ctx.victim_prefix.parent().expect("not a default route"),
                claimed_origin: match loosest {
                    Some(_) => ctx.victim_asn(),
                    None => ctx.attacker_asn(),
                },
                path_len: loosest.map_or(2, |max_len| u32::from(max_len - ctx.victim_prefix.len())),
            }),
            target: ctx.sub_prefix,
        }
    }
}
