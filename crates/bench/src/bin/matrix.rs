//! The attack scenario matrix: every attacker strategy × ROV deployment
//! model × ROA configuration × topology family, run on the unified trial
//! executor (bit-identical to the sequential fold), then weighted by the
//! §6 census of the generated world into one expected-interception
//! figure.
//!
//! ```sh
//! MAXLENGTH_TOPOLOGY=2000 MAXLENGTH_TRIALS=30 \
//!     cargo run --release -p rpki-bench --bin matrix
//! ```
//!
//! Knobs: `MAXLENGTH_TOPOLOGY` (largest topology-family size),
//! `MAXLENGTH_TRIALS` (attacker/victim pairs per cell),
//! `MAXLENGTH_SCALE` (world scale for the census weighting),
//! `RAYON_NUM_THREADS` (worker threads), `MAXLENGTH_CSV` (write
//! `matrix.csv` + `risk.csv`).

use bgpsim::ScenarioMatrix;
use maxlength_core::report::{matrix_csv, risk_csv};
use maxlength_core::vulnerability::{assess_risk, MaxLengthCensus};
use rpki_bench::harness::{
    final_snapshot, scale_from_env, threads_from_env, usize_from_env, world,
};

fn main() {
    let n = usize_from_env("MAXLENGTH_TOPOLOGY", 2000);
    let trials = usize_from_env("MAXLENGTH_TRIALS", 30);
    let threads = threads_from_env();

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
         ({} cells would have paid one each), {}/{} items replayed as \
         deployment-independent",
        report.cells.len(),
        stats.compilations,
        matrix.cell_count(),
        stats.cells_replayed,
        stats.items,
    );
    eprintln!(
        "speculation: {} footprint checks, {} re-propagated; {} engine runs \
         ({} lane, {} push, {} stacked, {} baselines); stagings by kind: \
         {} silent, {} structural, {} from the memo",
        stats.footprint_checks,
        stats.cells_repropagated,
        stats.lane + stats.push + stats.stacked + stats.baselines,
        stats.lane,
        stats.push,
        stats.stacked,
        stats.baselines,
        stats.silent,
        stats.structural,
        stats.memo,
    );

    // The census weighting: what the generated world's actual ROAs imply.
    let scale = scale_from_env();
    let world = world(scale);
    let (_, vrps, bgp) = final_snapshot(&world);
    let census = MaxLengthCensus::analyze_par(&vrps, &bgp);
    let risk = assess_risk(&census, &report);
    println!("{}", risk.render());

    if std::env::var_os("MAXLENGTH_CSV").is_some() {
        std::fs::write("matrix.csv", matrix_csv(&report)).expect("write matrix.csv");
        std::fs::write("risk.csv", risk_csv(&risk)).expect("write risk.csv");
        eprintln!("wrote matrix.csv + risk.csv");
    }

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
