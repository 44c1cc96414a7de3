//! `maxlength analyze <snapshot> [--lint-top N]`: the paper's full
//! analysis over a dataset file — Table 1, the §6 census, and the §8 lint
//! findings. Works on generated snapshots or any data converted into the
//! documented text format.

use maxlength_core::lint::LintReport;
use maxlength_core::{BgpTable, MaxLengthCensus, Table1};
use rpki_datasets::io;

use crate::Args;

pub fn run(args: &Args) {
    let (path, lint_top) = (&args.path, args.lint_top);
    let snap = match io::load(path) {
        Ok(s) => s,
        Err(e) => {
            eprintln!("cannot load {}: {e}", path.display());
            std::process::exit(1);
        }
    };
    let vrps = snap.vrps();
    let bgp: BgpTable = snap.routes.iter().collect();
    println!(
        "dataset {} — {} ROAs, {} tuples, {} BGP pairs\n",
        snap.label,
        snap.roa_count(),
        vrps.len(),
        bgp.len()
    );

    let census = MaxLengthCensus::analyze(&vrps, &bgp);
    println!(
        "maxLength usage: {} tuples ({:.1}%), vulnerable: {} ({:.1}% of users)\n",
        census.max_len_using,
        100.0 * census.max_len_fraction(),
        census.vulnerable,
        100.0 * census.vulnerable_fraction()
    );

    print!("{}", Table1::compute(&vrps, &bgp));

    let exposed = maxlength_core::vulnerability::exposure_by_as(&vrps, &bgp);
    if !exposed.is_empty() {
        println!("\nmost-exposed origin ASes:");
        for e in exposed.iter().take(5) {
            println!(
                "  {:<10} {} of {} tuples vulnerable, {} hijackable prefixes",
                e.asn.to_string(),
                e.vulnerable_tuples,
                e.total_tuples,
                e.exposed_prefixes
            );
        }
    }

    let report = LintReport::lint(&snap.roas, &bgp);
    println!(
        "\nlint: {} findings ({} critical)",
        report.findings.len(),
        report.at(maxlength_core::Severity::Critical).count()
    );
    for f in report.findings.iter().take(lint_top) {
        println!(
            "  {} [{}] {} — {}",
            f.severity,
            f.rule.code(),
            f.vrp,
            f.detail
        );
    }
    if report.findings.len() > lint_top {
        println!("  ... {} more", report.findings.len() - lint_top);
    }
    if report.has_critical() {
        std::process::exit(3); // CI-friendly: criticals fail the check
    }
}
