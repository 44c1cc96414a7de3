//! Regenerates §7.2 "Computational overhead": wall-clock time and peak
//! memory for `compress_roas` on today's RPKI and on the full-deployment
//! scenario.
//!
//! The paper (authors' implementation, Intel i7-6700): 2.4 s / 19 MB for
//! the partially-deployed RPKI; 36 s / 290 MB for full deployment.
//! Measured here at scale 1.0 (2 vCPUs, one thread): 5–7 ms for the
//! 39,949 deployed tuples and ≈ 77 ms for the 776,945 full-deployment
//! tuples, with a peak RSS of 224 MB for the whole process including the
//! generated dataset (the sweep itself holds up to 20 bytes per tuple
//! beside its input and output: two 8-byte words while it regroups by
//! origin, then two 2-byte maxLength slots; tuples and routes are 40
//! bytes each). The *ratio* between the two scenarios (~12x here, ~15x
//! in the paper) is the comparable shape.

use maxlength_core::bounds::full_deployment_minimal;
use maxlength_core::compress::{compress_roas, compress_roas_parallel};
use rpki_bench::harness::{final_snapshot, scale_from_env, threads_from_env, world};
use rpki_roa::RouteOrigin;
use rpki_rov::VrpIndex;

fn peak_rss_mb() -> Option<f64> {
    let status = std::fs::read_to_string("/proc/self/status").ok()?;
    let line = status.lines().find(|l| l.starts_with("VmHWM:"))?;
    let kb: f64 = line.split_whitespace().nth(1)?.parse().ok()?;
    Some(kb / 1024.0)
}

fn main() {
    let scale = scale_from_env();
    eprintln!("generating world at scale {scale} ...");
    let world = world(scale);
    let (_, vrps, bgp) = final_snapshot(&world);

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

    // §7.2's suggested optimization: parallelize across per-(ASN, AFI)
    // tries. Output is identical; only the sweep is shared out, so the
    // sorting and the output list bound what threads can save.
    let threads = threads_from_env();
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

    // The validation hot path: mutable builder vs frozen snapshot vs
    // frozen + parallel, all over the same table.
    println!("\nRFC 6811 whole-table validation (same inputs, three engines):");
    let routes: Vec<RouteOrigin> = bgp.iter().collect();
    let index: VrpIndex = vrps.iter().copied().collect();
    let t3 = std::time::Instant::now();
    let seq = index.validate_table(routes.iter());
    let builder_time = t3.elapsed();
    println!(
        "mutable builder   : {:>8} routes in {:>10.2?}   ({})",
        routes.len(),
        builder_time,
        seq
    );
    let t4 = std::time::Instant::now();
    let frozen = index.freeze();
    let freeze_time = t4.elapsed();
    let t5 = std::time::Instant::now();
    let frozen_seq = frozen.validate_table(routes.iter());
    let frozen_time = t5.elapsed();
    assert_eq!(frozen_seq, seq, "frozen snapshot must agree with builder");
    println!(
        "frozen snapshot   : {:>8} routes in {:>10.2?}   (freeze took {:.2?}; {:.1}x vs builder)",
        routes.len(),
        frozen_time,
        freeze_time,
        builder_time.as_secs_f64() / frozen_time.as_secs_f64().max(1e-9)
    );
    let t6 = std::time::Instant::now();
    let frozen_par = frozen.validate_table_par(&routes);
    let par_val_time = t6.elapsed();
    assert_eq!(frozen_par, seq, "parallel reduction must agree");
    println!(
        "frozen, {threads:>2} threads: {:>8} routes in {:>10.2?}   ({:.1}x vs builder)",
        routes.len(),
        par_val_time,
        builder_time.as_secs_f64() / par_val_time.as_secs_f64().max(1e-9)
    );

    if let Some(mb) = peak_rss_mb() {
        println!("\npeak RSS          : {mb:.0} MB (whole process, including the dataset)");
    }
}
