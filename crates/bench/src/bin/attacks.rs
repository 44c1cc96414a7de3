//! Regenerates the §4/§5 attack analysis: mean traffic interception for
//! every (attack, ROA configuration) pair, on a synthetic AS topology
//! under full and partial route-origin-validation adoption.
//!
//! Knobs: `MAXLENGTH_TOPOLOGY` (topology size), `MAXLENGTH_TRIALS`
//! (attacker/victim pairs per cell).

use bgpsim::experiment::AttackExperiment;
use bgpsim::topology::TopologyConfig;
use rpki_bench::harness::usize_from_env;

fn main() {
    let n = usize_from_env("MAXLENGTH_TOPOLOGY", 2000);
    let trials = usize_from_env("MAXLENGTH_TRIALS", 30);

    for rov_fraction in [1.0, 0.5] {
        let t0 = std::time::Instant::now();
        // Per-trial seed derivation makes this bit-identical to `.run()`.
        let (report, stats) = AttackExperiment {
            topology: TopologyConfig {
                n,
                ..TopologyConfig::default()
            },
            trials,
            rov_fraction,
            seed: 99,
        }
        .run_par_with_stats();
        eprintln!(
            "topology n={n}, {trials} attacker/victim samples, ROV adoption {:.0}% ({:.1?})",
            rov_fraction * 100.0,
            t0.elapsed()
        );
        eprintln!(
            "speculation: {}/{} items replayed ({} footprint checks, {} re-propagated)",
            stats.cells_replayed, stats.items, stats.footprint_checks, stats.cells_repropagated,
        );
        println!(
            "\n=== traffic intercepted by the attacker (ROV adoption {:.0}%) ===\n",
            rov_fraction * 100.0
        );
        print!("{}", report.render());
    }

    // The adoption sweep: §2 notes few ASes filtered in 2017; show how the
    // two decisive attacks respond to growing enforcement.
    let base = AttackExperiment {
        topology: TopologyConfig {
            n,
            ..TopologyConfig::default()
        },
        trials,
        rov_fraction: 1.0,
        seed: 99,
    };
    let fractions = [0.0, 0.25, 0.5, 0.75, 1.0];
    // One executor plan per sweep: the topology is generated once, the
    // uniform adopter draws share one threshold pass, and sweep points
    // whose trials are RPKI-transparent are replayed, not re-propagated.
    let classic = base.adoption_sweep(
        bgpsim::AttackKind::SubprefixHijack,
        bgpsim::experiment::RoaConfig::Minimal,
        &fractions,
    );
    let forged = base.adoption_sweep(
        bgpsim::AttackKind::ForgedOriginSubprefixHijack,
        bgpsim::experiment::RoaConfig::NonMinimalMaxLen,
        &fractions,
    );
    println!(
        "
=== mean interception vs ROV adoption ===
"
    );
    print!("{:<52}", "attack / ROA");
    for f in fractions {
        print!(" {:>6.0}%", f * 100.0);
    }
    println!();
    for (label, sweep) in [
        ("subprefix hijack vs minimal ROA", &classic),
        ("forged-origin subprefix vs non-minimal ROA", &forged),
    ] {
        print!("{label:<52}");
        for (_, v) in &sweep.points {
            print!(" {:>6.1}%", v * 100.0);
        }
        println!();
    }

    println!(
        r#"
Reading the table (paper §4-§5):
  * forged-origin SUBPREFIX hijack vs the non-minimal (maxLength) ROA is
    RPKI-valid and captures ~100% -- "as bad as a subprefix hijack";
  * the minimal ROA kills it (0%), demoting the attacker to the
    forged-origin PREFIX hijack, where traffic splits and the majority
    stays on the legitimate route;
  * classic (sub)prefix hijacks are stopped by any ROA once ROV is
    enforced, but return as ROV adoption drops;
  * the adoption sweep shows the asymmetry: deploying MORE validation
    steadily kills the classic hijack but does nothing against the
    forged-origin subprefix hijack while the ROA stays non-minimal."#
    );
}
