//! Hijack laboratory: stage the paper's §4 attack on a synthetic
//! Internet and watch the traffic move.
//!
//! One victim, one attacker, a 1,500-AS topology with universal route
//! origin validation — and three ROA configurations showing why
//! maxLength is considered harmful.
//!
//! ```sh
//! cargo run --release --example hijack_lab
//! ```

use maxlength_rpki::bgpsim::attack::{AttackKind, AttackSetup};
use maxlength_rpki::bgpsim::topology::{Topology, TopologyConfig};
use maxlength_rpki::bgpsim::{run_strategy, CompiledPolicies};
use maxlength_rpki::prelude::*;

fn main() {
    let topology = Topology::generate(TopologyConfig {
        n: 1500,
        tier1: 8,
        ..TopologyConfig::default()
    });
    let stubs = topology.stubs();
    let victim = stubs[0];
    let attacker = stubs[stubs.len() / 2];
    let victim_asn = topology.asn(victim);
    println!(
        "topology: {} ASes ({} stubs); victim {} at index {victim}, attacker {} at index {attacker}",
        topology.len(),
        stubs.len(),
        victim_asn,
        topology.asn(attacker),
    );

    let p: Prefix = "168.122.0.0/16".parse().unwrap();
    let q: Prefix = "168.122.0.0/24".parse().unwrap();
    // Universal ROV, compiled once for every attack staged below.
    let policies = CompiledPolicies::compile(&vec![RovPolicy::DropInvalid; topology.len()]);

    let configs: [(&str, VrpIndex); 3] = [
        ("no ROA at all", VrpIndex::new()),
        (
            "non-minimal ROA (168.122.0.0/16-24)",
            [Vrp::new(p, 24, victim_asn)].into_iter().collect(),
        ),
        (
            "minimal ROA (168.122.0.0/16 exact)",
            [Vrp::exact(p, victim_asn)].into_iter().collect(),
        ),
    ];

    for (name, vrps) in &configs {
        println!("\n=== victim publishes: {name} ===");
        for kind in AttackKind::ALL {
            let outcome = run_strategy(
                &kind,
                &AttackSetup {
                    topology: &topology,
                    victim,
                    attacker,
                    victim_prefix: p,
                    sub_prefix: q,
                    vrps,
                    policies: &policies,
                },
            );
            println!(
                "  {:<36} attacker captures {:>5.1}% \
                 ({} ASes deceived, {} on the legitimate route)",
                kind.label(),
                outcome.interception_fraction() * 100.0,
                outcome.intercepted,
                outcome.legitimate,
            );
        }
    }

    println!(
        r#"
Take-aways (paper §4-§5):
  * with the maxLength ROA, the forged-origin subprefix hijack is VALID
    and captures 100% of traffic for 168.122.0.0/24 — identical damage to
    a pre-RPKI subprefix hijack;
  * the minimal ROA forces the attacker to the prefix-grained
    forged-origin hijack, where longest-prefix match no longer helps and
    most ASes keep routing to the victim."#
    );
}
