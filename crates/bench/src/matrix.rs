//! `maxlength matrix`: the attack scenario matrix, every attacker
//! strategy × ROV deployment model × ROA configuration × topology family,
//! run on the unified trial executor (bit-identical to the sequential fold), then weighted by the
//! §6 census of the generated world into one expected-interception
//! figure. `--topology` is the largest topology family's size, `--trials`
//! the attacker/victim pairs per cell, `--scale` the census world's scale,
//! and `--csv DIR` writes `matrix.csv` and `risk.csv` into `DIR`.

use bgpsim::ScenarioMatrix;
use maxlength_core::report::{matrix_csv, risk_csv};
use maxlength_core::vulnerability::{assess_risk, MaxLengthCensus};

use crate::world::final_snapshot;
use crate::Args;

pub fn run(args: &Args) {
    let (n, trials) = (args.topology, args.trials);
    let threads = rayon::current_num_threads();

    let matrix = ScenarioMatrix {
        topologies: bgpsim::TopologyFamily::standard(n),
        trials,
        ..ScenarioMatrix::small(2017)
    };
    eprintln!(
        "scenario matrix: {} cells ({} topologies × {} strategies × {} deployments × {} ROAs), \
         {trials} trials/cell, {threads} threads",
        matrix.cell_count(),
        matrix.topologies.len(),
        matrix.strategies.len(),
        matrix.deployments.len(),
        matrix.roas.len(),
    );

    let t0 = std::time::Instant::now();
    let (report, stats) = matrix.run_par_with_stats();
    let par = t0.elapsed();
    println!("{}", report.render());
    eprintln!(
        "matrix ({} cells) in {par:.1?} parallel — {} policy compilations \
         ({} cells would have paid one each)",
        report.cells.len(),
        stats.compilations,
        matrix.cell_count(),
    );
    crate::attacks::report_stats(&stats);

    // The census weighting: what the generated world's actual ROAs imply.
    let (_, vrps, bgp) = final_snapshot(args.scale);
    let census = MaxLengthCensus::analyze_par(&vrps, &bgp);
    let risk = assess_risk(&census, &report);
    println!("{}", risk.render());

    args.write_csv(&[
        ("matrix.csv", matrix_csv(&report)),
        ("risk.csv", risk_csv(&risk)),
    ]);

    println!(
        r#"Reading the grid (paper §4-§5, generalized):
  * the forged-origin subprefix hijack and the maxLength-gap prober
    capture ~100% against the non-minimal (maxLength) ROA in every
    deployment -- more ROV never helps while the ROA stays loose;
  * the minimal ROA zeroes the subprefix column and demotes the prober
    to the competing prefix-grained attack;
  * the route leak is RPKI-valid by construction: identical numbers in
    all three ROA columns -- origin validation is the wrong tool there;
  * deployment placement matters: stub-only validation barely moves the
    needle because transit ASes re-export what they accepted."#
    );
}
