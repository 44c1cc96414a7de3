//! Shared by the executor's differential suites (`#[path]`-included by
//! `exec_props` and `spec_props`): their case count, and a test-local
//! attacker strategy announcing a super-prefix of the victim's — the one
//! staging shape no shipped strategy produces.

use bgpsim::{AttackAnnouncement, AttackPlan, AttackerStrategy, StrategyContext};
use proptest::prelude::ProptestConfig;

/// 24 cases per property, or `PROPTEST_CASES` where it is set (CI raises
/// it: these suites are the only oracle of what a trial group reuses).
pub fn cases() -> ProptestConfig {
    match std::env::var_os("PROPTEST_CASES") {
        Some(_) => ProptestConfig::default(),
        None => ProptestConfig::with_cases(24),
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
