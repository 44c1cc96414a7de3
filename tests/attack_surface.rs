//! Closing the paper's loop: the §6 *measurement* (which tuples are
//! non-minimal) must agree with the §4 *attack* (which tuples are actually
//! exploitable). For sampled adopter allocations of the generated world we
//! stage the forged-origin subprefix hijack in the BGP simulator, with the
//! victim announcing exactly what the dataset says it announces, and check
//! interception against the census verdict.

use maxlength_rpki::bgpsim::attack::{run_forged_origin_trial, ForgedOriginTrial};
use maxlength_rpki::bgpsim::topology::{Topology, TopologyConfig};
use maxlength_rpki::bgpsim::CompiledPolicies;
use maxlength_rpki::core::minimal::vrp_is_minimal;
use maxlength_rpki::core::vulnerability::hijack_surface;
use maxlength_rpki::datasets::Category;
use maxlength_rpki::prelude::*;

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
    let announced: Vec<Prefix> = alloc.announcements().iter().map(|r| r.prefix).collect();
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
        let announced: Vec<Prefix> = alloc.announcements().iter().map(|r| r.prefix).collect();
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
