//! `maxlength section6`: regenerates the §6 measurement narrative:
//! maxLength usage, the vulnerable fraction, the minimalization cost, and
//! the full-deployment compression bound. The PDU counts are Table 1's
//! rows 2–7.

use maxlength_core::vulnerability::{hijack_surface, MaxLengthCensus};
use maxlength_core::Table1;
use rpki_rov::FrozenVrpIndex;

use crate::world::final_snapshot;
use crate::Args;

pub fn run(args: &Args) {
    let (snap, vrps, bgp) = final_snapshot(args.scale);
    println!(
        "dataset {}: {} ROAs, {} (prefix, maxLength, AS) tuples, {} BGP pairs\n",
        snap.label,
        snap.roa_count(),
        vrps.len(),
        bgp.len()
    );

    // --- "7.6% of pairs match a ROA" (§2) -------------------------------
    // Compile the VRP set into a frozen snapshot once, then validate the
    // whole table in parallel.
    let frozen: FrozenVrpIndex = vrps.iter().copied().collect();
    let routes: Vec<_> = bgp.iter().collect();
    let summary = frozen.validate_table_par(&routes);
    println!("RFC 6811 table validation (paper §2: 7.6% of pairs Valid):");
    println!(
        "  {} (Valid {:.1}%, Invalid {:.1}%, NotFound {:.1}%)\n",
        summary,
        100.0 * summary.valid_fraction(),
        100.0 * summary.invalid_fraction(),
        100.0 * summary.not_found_fraction(),
    );

    // --- "Using maxLength almost always creates vulnerabilities" --------
    let census = MaxLengthCensus::analyze_par(&vrps, &bgp);
    println!("maxLength census (paper: 4,630 prefixes = ~12%; 84% vulnerable):");
    println!(
        "  prefixes with maxLength > length : {:>8} ({:.1}% of tuples)",
        census.max_len_using,
        100.0 * census.max_len_fraction()
    );
    println!(
        "  of those, non-minimal (VULNERABLE): {:>8} ({:.1}%)",
        census.vulnerable,
        100.0 * census.vulnerable_fraction()
    );

    // A few concrete attack opportunities.
    println!("\nexample forged-origin subprefix hijack opportunities:");
    let mut shown = 0;
    for vrp in vrps.iter().filter(|v| v.uses_max_len()) {
        let surface = hijack_surface(vrp, &bgp, 2);
        if surface.unannounced_count > 0 {
            println!(
                "  ROA tuple {:<40} exposes {:>6} unannounced prefixes, e.g. {}",
                vrp.to_string(),
                surface.unannounced_count,
                surface
                    .examples
                    .iter()
                    .map(|p| p.to_string())
                    .collect::<Vec<_>>()
                    .join(", ")
            );
            shown += 1;
            if shown == 5 {
                break;
            }
        }
    }

    // --- "Benefit? Fewer prefixes included in ROAs" ----------------------
    let table = Table1::compute_par(&vrps, &bgp, rayon::current_num_threads());
    let rows: Vec<usize> = table.rows.iter().map(|row| row.pdus).collect();
    let [_, compressed, minimal, minimal_compressed, full, full_compressed, bound] = rows[..]
    else {
        unreachable!("Table 1 has seven rows")
    };
    let ratio = |part: usize, whole: usize| part as f64 / whole as f64;
    let added = minimal as i64 - vrps.len() as i64;
    println!("\nminimalization (paper: 13K additional prefixes, +33% PDUs):");
    println!("  minimal, no-maxLength PDUs       : {minimal:>8}");
    println!(
        "  change vs status quo             : {:>+8} ({:+.1}%)",
        added,
        100.0 * added as f64 / vrps.len() as f64
    );
    println!(
        "  after compress_roas              : {:>8} ({:.2}% compression)",
        minimal_compressed,
        100.0 * (1.0 - ratio(minimal_compressed, minimal))
    );

    // --- "Benefit? Reducing load on routers" -----------------------------
    println!("\nstatus-quo compression (paper: 39,949 -> 33,615 = 15.90%):");
    println!(
        "  {} -> {} ({:.2}% compression)",
        vrps.len(),
        compressed,
        100.0 * (1.0 - ratio(compressed, vrps.len()))
    );

    println!("\nfull deployment (paper: 776,945 pairs; bound 729,371 = 6.2% max):");
    println!("  minimal PDUs (= announced pairs) : {full:>8}");
    println!(
        "  compress_roas                    : {:>8} ({:.2}% compression)",
        full_compressed,
        100.0 * (1.0 - ratio(full_compressed, full))
    );
    println!(
        "  maximally-permissive lower bound : {:>8} ({:.2}% max compression)",
        bound,
        100.0 * (1.0 - ratio(bound, full))
    );
    println!(
        "  gap to bound                     : {:>8} tuples ({:.3}%)",
        full_compressed - bound,
        100.0 * (ratio(full_compressed, bound) - 1.0)
    );
}
