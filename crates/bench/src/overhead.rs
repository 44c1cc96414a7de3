//! `maxlength overhead`: regenerates §7.2 "Computational overhead", wall-clock time and peak
//! memory for `compress_roas` on today's RPKI and on the full-deployment
//! scenario.
//!
//! The paper (authors' implementation, Intel i7-6700): 2.4 s / 19 MB for
//! the partially-deployed RPKI; 36 s / 290 MB for full deployment.
//! Measured here at scale 1.0 (2 vCPUs, one thread): 3–4 ms for the
//! 39,949 deployed tuples and ≈ 38 ms for the 776,945 full-deployment
//! tuples, with a peak RSS of 104 MB for the whole process including the
//! generated dataset (the sweep itself holds one 2-byte maxLength slot per
//! tuple beside its input and output, and a stack as deep as the prefixes
//! nest; tuples and routes are 32 bytes each). The *ratio* between the
//! two scenarios (~11x here, ~15x in the paper) is the comparable shape.

use maxlength_core::bounds::full_deployment_minimal;
use maxlength_core::compress::{compress_roas, compress_roas_parallel};

use crate::world::final_snapshot;
use crate::Args;

fn peak_rss_mb() -> Option<f64> {
    let status = std::fs::read_to_string("/proc/self/status").ok()?;
    let line = status.lines().find(|l| l.starts_with("VmHWM:"))?;
    let kb: f64 = line.split_whitespace().nth(1)?.parse().ok()?;
    Some(kb / 1024.0)
}

pub fn run(args: &Args) {
    let (_, vrps, bgp) = final_snapshot(args.scale);

    // Scenario 1: today's (partially deployed) RPKI.
    let t0 = std::time::Instant::now();
    let compressed = compress_roas(&vrps);
    let today_time = t0.elapsed();
    println!(
        "today's RPKI      : {:>8} -> {:>8} tuples in {:>10.2?}   (paper: 2.4 s, 19 MB)",
        vrps.len(),
        compressed.len(),
        today_time
    );

    // Scenario 2: full deployment.
    let full = full_deployment_minimal(&bgp);
    let t1 = std::time::Instant::now();
    let full_compressed = compress_roas(&full);
    let full_time = t1.elapsed();
    println!(
        "full deployment   : {:>8} -> {:>8} tuples in {:>10.2?}   (paper: 36 s, 290 MB)",
        full.len(),
        full_compressed.len(),
        full_time
    );

    println!(
        "scenario ratio    : {:.1}x slower at full deployment (paper: {:.1}x)",
        full_time.as_secs_f64() / today_time.as_secs_f64().max(1e-9),
        36.0 / 2.4
    );

    // §7.2's suggested optimization: parallelize across tries, here runs
    // of whole top-level subtrees. Output is identical; only the sweep is
    // shared out, so the output list bounds what threads can save.
    let threads = rayon::current_num_threads();
    let t2 = std::time::Instant::now();
    let full_par = compress_roas_parallel(&full, threads);
    let par_time = t2.elapsed();
    assert_eq!(full_par.len(), full_compressed.len(), "parallel must match");
    println!(
        "full, {threads:>2} threads  : {:>8} -> {:>8} tuples in {:>10.2?}   ({:.1}x speedup)",
        full.len(),
        full_par.len(),
        par_time,
        full_time.as_secs_f64() / par_time.as_secs_f64().max(1e-9)
    );

    if let Some(mb) = peak_rss_mb() {
        println!("\npeak RSS          : {mb:.0} MB (whole process, including the dataset)");
    }
}
