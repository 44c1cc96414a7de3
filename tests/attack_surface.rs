//! Closing the paper's loop: the §6 *measurement* (which tuples are
//! non-minimal) must agree with the §4 *attack* (which tuples are actually
//! exploitable). For sampled adopter allocations of the generated world we
//! stage the forged-origin subprefix hijack in the BGP simulator, with the
//! victim announcing exactly what the dataset says it announces, and check
//! interception against the census verdict.
//!
//! The multi-prefix trial is staged here from public calls alone
//! (`routing::propagate` under an `OriginFilter`, and a per-AS
//! longest-prefix-match tally), so it is also an independent check of
//! the simulator: on a single-prefix victim it must agree with
//! `run_strategy`.

use std::cmp::Reverse;

use maxlength_rpki::bgpsim::routing::{self, Seed};
use maxlength_rpki::bgpsim::topology::{Topology, TopologyConfig};
use maxlength_rpki::bgpsim::{
    run_strategy, AttackKind, AttackOutcome, AttackSetup, CompiledPolicies, OriginFilter,
};
use maxlength_rpki::core::minimal::vrp_is_minimal;
use maxlength_rpki::core::vulnerability::hijack_surface;
use maxlength_rpki::datasets::Category;
use maxlength_rpki::prelude::*;

/// A forged-origin subprefix trial against a victim with an arbitrary
/// announcement portfolio — the shape real ROA configurations produce
/// (§6's measured world has victims announcing parents, partial
/// subtrees, or scattered more-specifics).
struct ForgedOriginTrial<'a> {
    topology: &'a Topology,
    victim: usize,
    attacker: usize,
    /// Everything the victim announces (any set of prefixes).
    victim_prefixes: &'a [Prefix],
    /// The prefix the attacker announces with the victim's ASN appended.
    target: Prefix,
    vrps: &'a VrpIndex,
    /// Which ASes drop RPKI-Invalid routes (the compiled deployment).
    policies: &'a CompiledPolicies,
}

/// Runs the trial: the attacker announces `target` claiming the victim's
/// origin, and traffic for an address inside `target` then follows each
/// AS's longest matching prefix among `target` and every covering victim
/// announcement.
fn run_forged_origin_trial(trial: &ForgedOriginTrial<'_>) -> AttackOutcome {
    let t = trial.topology;
    assert_ne!(trial.attacker, trial.victim);
    let victim_asn = t.asn(trial.victim);
    // The only claimed origin in play is the victim's (the forged path
    // claims it too): one ROV verdict per propagated prefix.
    let propagate = |prefix: Prefix, seeds: &[Seed]| {
        let accept = OriginFilter::new(trial.vrps, prefix, &[victim_asn], trial.policies);
        routing::propagate(t, seeds, &|at, origin| accept.accept(at, origin))
    };

    // The table stack, most specific first: the attacked prefix (the
    // forged announcement, plus the victim's own if it announces exactly
    // `target`), then every victim announcement covering it — the routes
    // traffic falls back to where the forged one was filtered.
    let mut covering: Vec<Prefix> = trial
        .victim_prefixes
        .iter()
        .copied()
        .filter(|p| p.covers(trial.target) && *p != trial.target)
        .collect();
    covering.sort_by_key(|p| Reverse(p.len()));
    let mut target_seeds = vec![Seed::forged(trial.attacker, victim_asn)];
    if trial.victim_prefixes.contains(&trial.target) {
        target_seeds.push(Seed::origin(trial.victim, victim_asn));
    }
    let victim_seed = [Seed::origin(trial.victim, victim_asn)];
    let stack: Vec<_> = std::iter::once(propagate(trial.target, &target_seeds))
        .chain(covering.iter().map(|&p| propagate(p, &victim_seed)))
        .collect();

    // The data plane, AS by AS: the first table holding a route wins.
    let mut outcome = AttackOutcome::default();
    for at in (0..t.len()).filter(|&at| at != trial.attacker && at != trial.victim) {
        match stack.iter().find_map(|table| table.route(at)) {
            Some(route) if route.delivers_to == trial.attacker => outcome.intercepted += 1,
            Some(_) => outcome.legitimate += 1,
            None => outcome.disconnected += 1,
        }
    }
    outcome
}

/// Stages the dataset allocation's world on a topology: the victim
/// announces the allocation's announcement set; the ROA entries are
/// re-originated under the victim's topology ASN.
fn stage(
    topology: &Topology,
    victim: usize,
    attacker: usize,
    alloc: &maxlength_rpki::datasets::world::Allocation,
    policies: &CompiledPolicies,
) -> Option<(f64, bool)> {
    let victim_asn = topology.asn(victim);
    let announced: Vec<Prefix> = alloc.announcements().map(|r| r.prefix).collect();
    let vrps_translated: Vec<Vrp> = alloc
        .roa_entries()
        .iter()
        .map(|e| Vrp::new(e.prefix, e.effective_max_len(), victim_asn))
        .collect();

    // The census side, computed against the victim's own announcements.
    let bgp: BgpTable = announced
        .iter()
        .map(|&p| RouteOrigin::new(p, victim_asn))
        .collect();
    let vulnerable = vrps_translated
        .iter()
        .any(|v| v.uses_max_len() && !vrp_is_minimal(v, &bgp));

    // Pick the hijack target: an authorized-but-unannounced prefix if one
    // exists, otherwise an announced authorized subprefix (the best a
    // hijacker can do against a minimal tuple).
    let ml_vrp = vrps_translated.iter().find(|v| v.uses_max_len())?;
    let surface = hijack_surface(ml_vrp, &bgp, 1);
    let target = surface.examples.first().copied().or_else(|| {
        announced.iter().copied().find(|p| {
            ml_vrp.prefix.covers(*p) && p.len() <= ml_vrp.max_len && p.len() > ml_vrp.prefix.len()
        })
    })?;

    let index: VrpIndex = vrps_translated.into_iter().collect();
    let outcome = run_forged_origin_trial(&ForgedOriginTrial {
        topology,
        victim,
        attacker,
        victim_prefixes: &announced,
        target,
        vrps: &index,
        policies,
    });
    Some((outcome.interception_fraction(), vulnerable))
}

#[test]
fn census_verdicts_match_attack_outcomes() {
    let world = World::generate(GeneratorConfig {
        scale: 0.01,
        seed: 31,
        ..GeneratorConfig::default()
    });
    let topology = Topology::generate(TopologyConfig {
        n: 600,
        tier1: 6,
        ..TopologyConfig::default()
    });
    let stubs = topology.stubs();
    let (victim, attacker) = (stubs[0], stubs[stubs.len() / 2]);
    // One deployment across every staged allocation: compile its
    // adopter bitset once, not once per trial.
    let policies = CompiledPolicies::compile(&vec![RovPolicy::DropInvalid; topology.len()]);

    let mut tested_vulnerable = 0;
    let mut tested_safe = 0;
    for alloc in &world.allocations {
        let relevant = matches!(
            alloc.category,
            Category::AdopterMaxLenPlain
                | Category::AdopterMaxLenSafe
                | Category::AdopterMaxLenDeep
                | Category::AdopterMaxLenPartial
                | Category::AdopterScattered
        );
        if !relevant {
            continue;
        }
        let Some((fraction, vulnerable)) = stage(&topology, victim, attacker, alloc, &policies)
        else {
            continue;
        };
        if vulnerable {
            // The census says non-minimal → the staged hijack must capture
            // everything (the target is unannounced, so there is no
            // legitimate competitor for it).
            assert_eq!(
                fraction, 1.0,
                "census-vulnerable {:?} tuple not fully hijacked",
                alloc.category
            );
            tested_vulnerable += 1;
        } else {
            // The census says minimal → the best available forged-origin
            // target is an *announced* prefix: competition, never a clean
            // sweep.
            assert!(
                fraction < 1.0,
                "census-safe {:?} tuple fully hijacked",
                alloc.category
            );
            tested_safe += 1;
        }
        if tested_vulnerable >= 12 && tested_safe >= 6 {
            break;
        }
    }
    assert!(
        tested_vulnerable >= 12,
        "sampled {tested_vulnerable} vulnerable"
    );
    assert!(tested_safe >= 6, "sampled {tested_safe} safe");
}

#[test]
fn minimalized_world_resists_every_staged_attack() {
    // After the paper's fix (minimal ROAs), re-stage the same attacks:
    // the forged-origin subprefix hijack must fail for every sampled
    // allocation that still has an unannounced subprefix to claim.
    let world = World::generate(GeneratorConfig {
        scale: 0.01,
        seed: 32,
        ..GeneratorConfig::default()
    });
    let topology = Topology::generate(TopologyConfig {
        n: 600,
        tier1: 6,
        ..TopologyConfig::default()
    });
    let stubs = topology.stubs();
    let (victim, attacker) = (stubs[1], stubs[stubs.len() / 3]);
    let policies = CompiledPolicies::compile(&vec![RovPolicy::DropInvalid; topology.len()]);

    let mut tested = 0;
    for alloc in &world.allocations {
        if !matches!(
            alloc.category,
            Category::AdopterMaxLenPlain | Category::AdopterMaxLenDeep
        ) {
            continue;
        }
        let victim_asn = topology.asn(victim);
        let announced: Vec<Prefix> = alloc.announcements().map(|r| r.prefix).collect();
        let bgp: BgpTable = announced
            .iter()
            .map(|&p| RouteOrigin::new(p, victim_asn))
            .collect();
        let original: Vec<Vrp> = alloc
            .roa_entries()
            .iter()
            .map(|e| Vrp::new(e.prefix, e.effective_max_len(), victim_asn))
            .collect();
        let surface = hijack_surface(&original[0], &bgp, 1);
        let Some(target) = surface.examples.first().copied() else {
            continue;
        };
        // The fix: minimal ROAs for exactly the announced set.
        let fixed: VrpIndex = minimalize_vrps(&original, &bgp).into_iter().collect();
        let outcome = run_forged_origin_trial(&ForgedOriginTrial {
            topology: &topology,
            victim,
            attacker,
            victim_prefixes: &announced,
            target,
            vrps: &fixed,
            policies: &policies,
        });
        assert_eq!(
            outcome.intercepted, 0,
            "minimal ROAs must kill the hijack of {target} ({:?})",
            alloc.category
        );
        // And the victim's legitimate covering announcement still serves.
        assert!(outcome.legitimate > 0);
        tested += 1;
        if tested >= 10 {
            break;
        }
    }
    assert!(tested >= 10, "only {tested} allocations staged");
}

/// A 400-AS topology under universal ROV, with a victim and an attacker
/// stub.
fn trial_world() -> (Topology, usize, usize, CompiledPolicies) {
    let t = Topology::generate(TopologyConfig {
        n: 400,
        tier1: 6,
        ..TopologyConfig::default()
    });
    let stubs = t.stubs();
    let (victim, attacker) = (stubs[0], stubs[stubs.len() / 2]);
    let policies = CompiledPolicies::compile(&vec![RovPolicy::DropInvalid; t.len()]);
    (t, victim, attacker, policies)
}

#[test]
fn trial_matches_simple_runner_on_single_prefix_victim() {
    let (t, victim, attacker, policies) = trial_world();
    let p: Prefix = "168.122.0.0/16".parse().unwrap();
    let q: Prefix = "168.122.0.0/24".parse().unwrap();
    let vrps: VrpIndex = [Vrp::new(p, 24, t.asn(victim))].into_iter().collect();

    let simple = run_strategy(
        &AttackKind::ForgedOriginSubprefixHijack,
        &AttackSetup {
            topology: &t,
            victim,
            attacker,
            victim_prefix: p,
            sub_prefix: q,
            vrps: &vrps,
            policies: &policies,
        },
    );
    let multi = run_forged_origin_trial(&ForgedOriginTrial {
        topology: &t,
        victim,
        attacker,
        victim_prefixes: &[p],
        target: q,
        vrps: &vrps,
        policies: &policies,
    });
    assert_eq!(simple, multi);
    assert_eq!(multi.interception_fraction(), 1.0);
}

#[test]
fn scattered_victim_with_permissive_roa_loses_everything() {
    // The dataset's "scattered" class: the victim announces /24s but
    // not the covering /16; the ROA covers the whole /16-24. A hijack
    // of any unannounced /24 has NO legitimate fallback route at all.
    let (t, victim, attacker, policies) = trial_world();
    let announced: Vec<Prefix> = vec![
        "203.0.112.0/24".parse().unwrap(),
        "203.0.116.0/24".parse().unwrap(),
    ];
    let roa_parent: Prefix = "203.0.112.0/20".parse().unwrap();
    let vrps: VrpIndex = [Vrp::new(roa_parent, 24, t.asn(victim))]
        .into_iter()
        .collect();
    let outcome = run_forged_origin_trial(&ForgedOriginTrial {
        topology: &t,
        victim,
        attacker,
        victim_prefixes: &announced,
        target: "203.0.113.0/24".parse().unwrap(),
        vrps: &vrps,
        policies: &policies,
    });
    assert_eq!(outcome.interception_fraction(), 1.0);
    assert_eq!(outcome.legitimate, 0);
}

#[test]
fn attacking_an_announced_child_only_splits() {
    // Safe-maxLength victims announce the full subtree: the attacker
    // must compete with a real announcement and cannot win everyone.
    let (t, victim, attacker, policies) = trial_world();
    let parent: Prefix = "10.0.0.0/16".parse().unwrap();
    let left: Prefix = "10.0.0.0/17".parse().unwrap();
    let right: Prefix = "10.0.128.0/17".parse().unwrap();
    let announced = vec![parent, left, right];
    let vrps: VrpIndex = [Vrp::new(parent, 17, t.asn(victim))].into_iter().collect();
    let outcome = run_forged_origin_trial(&ForgedOriginTrial {
        topology: &t,
        victim,
        attacker,
        victim_prefixes: &announced,
        target: left,
        vrps: &vrps,
        policies: &policies,
    });
    let f = outcome.interception_fraction();
    assert!(f < 1.0, "victim's own announcement keeps a share ({f})");
    assert!(outcome.legitimate > 0);
}

#[test]
fn exact_roa_blocks_the_trial() {
    let (t, victim, attacker, policies) = trial_world();
    let p: Prefix = "168.122.0.0/16".parse().unwrap();
    let vrps: VrpIndex = [Vrp::exact(p, t.asn(victim))].into_iter().collect();
    let outcome = run_forged_origin_trial(&ForgedOriginTrial {
        topology: &t,
        victim,
        attacker,
        victim_prefixes: &[p],
        target: "168.122.0.0/24".parse().unwrap(),
        vrps: &vrps,
        policies: &policies,
    });
    assert_eq!(outcome.intercepted, 0);
    assert_eq!(outcome.disconnected, 0); // the /16 still serves everyone
}
