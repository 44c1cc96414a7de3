//! Plot-ready exports: CSV and Markdown renderings of the analysis
//! results, so the harness can feed gnuplot/spreadsheets exactly like the
//! paper's artifact scripts did.

use std::fmt::Write as _;

use crate::scenarios::Table1;
use crate::timeline::Series;

/// Escapes one CSV field (quotes fields containing separators).
fn csv_field(s: &str) -> String {
    if s.contains([',', '"', '\n']) {
        format!("\"{}\"", s.replace('"', "\"\""))
    } else {
        s.to_string()
    }
}

/// Table 1 as CSV: `scenario,pdus,secure`.
pub fn table1_csv(table: &Table1) -> String {
    let mut out = String::from("scenario,pdus,secure\n");
    for row in &table.rows {
        let _ = writeln!(
            out,
            "{},{},{}",
            csv_field(row.scenario.label()),
            row.pdus,
            row.secure
        );
    }
    out
}

/// Table 1 as a Markdown table.
pub fn table1_markdown(table: &Table1) -> String {
    let mut out = String::from("| scenario | # PDUs | secure? |\n|---|---:|---|\n");
    for row in &table.rows {
        let _ = writeln!(
            out,
            "| {} | {} | {} |",
            row.scenario.label(),
            row.pdus,
            if row.secure { "yes" } else { "**no**" }
        );
    }
    out
}

/// Figure 3 series as CSV: one `date` column then one column per series.
/// All series must share the same dates (they do, by construction).
pub fn series_csv(series: &[Series]) -> String {
    let mut out = String::from("date");
    for s in series {
        out.push(',');
        out.push_str(&csv_field(s.name));
    }
    out.push('\n');
    let Some(first) = series.first() else {
        return out;
    };
    for (i, (date, _)) in first.points.iter().enumerate() {
        out.push_str(&csv_field(date));
        for s in series {
            let _ = write!(out, ",{}", s.points[i].1);
        }
        out.push('\n');
    }
    out
}

/// A scenario-matrix report as CSV: one row per cell, ready for the
/// same gnuplot/spreadsheet pipeline as the other exports.
pub fn matrix_csv(report: &bgpsim::MatrixReport) -> String {
    let mut out = String::from(
        "topology,strategy,deployment,roa,mean_interception,min_interception,\
         max_interception,mean_disconnected,eligible,trials\n",
    );
    for c in &report.cells {
        let _ = writeln!(
            out,
            "{},{},{},{},{:.6},{:.6},{:.6},{:.6},{},{}",
            csv_field(&c.topology),
            csv_field(&c.strategy),
            csv_field(&c.deployment),
            csv_field(c.roa.label()),
            c.stats.mean_interception,
            c.stats.min_interception,
            c.stats.max_interception,
            c.stats.mean_disconnected,
            c.stats.eligible,
            c.stats.trials,
        );
    }
    out
}

/// A census-weighted [`crate::vulnerability::RiskAssessment`] as CSV
/// key-value rows — the executor-backed risk figure in the same
/// plot-ready shape as the other exports.
pub fn risk_csv(risk: &crate::vulnerability::RiskAssessment) -> String {
    format!(
        "metric,value\n\
         vulnerable_fraction,{:.6}\n\
         loose_interception,{:.6}\n\
         minimal_interception,{:.6}\n\
         expected_interception,{:.6}\n",
        risk.vulnerable_fraction,
        risk.loose_interception,
        risk.minimal_interception,
        risk.expected_interception,
    )
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::timeline::{Snapshot, Timeline};
    use crate::BgpTable;
    use rpki_roa::{RouteOrigin, Vrp};

    fn world() -> (Vec<Vrp>, BgpTable) {
        let vrps: Vec<Vrp> = vec!["10.0.0.0/16-17 => AS1".parse().unwrap()];
        let bgp: BgpTable = ["10.0.0.0/16 => AS1", "20.0.0.0/16 => AS2"]
            .iter()
            .map(|s| s.parse::<RouteOrigin>().unwrap())
            .collect();
        (vrps, bgp)
    }

    #[test]
    fn table1_csv_has_all_rows() {
        let (vrps, bgp) = world();
        let csv = table1_csv(&Table1::compute(&vrps, &bgp));
        assert_eq!(csv.lines().count(), 8); // header + 7 rows
        assert!(csv.starts_with("scenario,pdus,secure\n"));
        assert!(csv.contains("Today,1,false"));
        // The comma-bearing label is quoted.
        assert!(csv.contains("\"Today, minimal ROAs, no maxLength\""));
    }

    #[test]
    fn table1_markdown_renders() {
        let (vrps, bgp) = world();
        let md = table1_markdown(&Table1::compute(&vrps, &bgp));
        assert!(md.contains("| Today | 1 | **no** |"));
        assert!(md.lines().count() >= 9);
    }

    #[test]
    fn series_csv_aligns_dates() {
        let (vrps, bgp) = world();
        let snapshots = vec![
            Snapshot {
                label: "4/13".into(),
                vrps: vrps.clone(),
                bgp: bgp.clone(),
            },
            Snapshot {
                label: "6/1".into(),
                vrps,
                bgp,
            },
        ];
        let tl = Timeline::compute(&snapshots);
        let csv = series_csv(&tl.figure3a());
        let lines: Vec<&str> = csv.lines().collect();
        assert_eq!(lines.len(), 3); // header + 2 dates
        assert!(lines[0].starts_with("date,Status quo,"));
        assert!(lines[1].starts_with("4/13,"));
        assert!(lines[2].starts_with("6/1,"));
        // Four series → five columns.
        assert_eq!(lines[1].split(',').count(), 5);
    }

    #[test]
    fn series_csv_empty() {
        assert_eq!(series_csv(&[]), "date\n");
    }

    #[test]
    fn matrix_csv_one_row_per_cell() {
        use bgpsim::experiment::RoaConfig;
        use bgpsim::matrix::{ScenarioMatrix, TopologyFamily};
        use bgpsim::{DeploymentModel, TopologyConfig};
        let report = ScenarioMatrix {
            topologies: vec![TopologyFamily::new(TopologyConfig {
                n: 80,
                tier1: 3,
                ..TopologyConfig::default()
            })],
            strategies: vec![Box::new(bgpsim::AttackKind::ForgedOriginSubprefixHijack)],
            deployments: vec![DeploymentModel::Uniform { p: 1.0 }],
            roas: RoaConfig::ALL.to_vec(),
            trials: 2,
            seed: 8,
        }
        .run_par();
        let csv = matrix_csv(&report);
        assert_eq!(csv.lines().count(), 1 + report.cells.len());
        assert!(csv.starts_with("topology,strategy,deployment,roa,"));
        // The comma-free labels pass through; the maxLength label is
        // comma-free too but parenthesized.
        assert!(csv.contains("non-minimal ROA (maxLength)"));
        assert!(!csv.contains("NaN"));
    }

    #[test]
    fn risk_csv_rows() {
        let csv = risk_csv(&crate::vulnerability::RiskAssessment {
            vulnerable_fraction: 0.75,
            loose_interception: 1.0,
            minimal_interception: 0.2,
            expected_interception: 0.8,
        });
        assert_eq!(csv.lines().count(), 5);
        assert!(csv.contains("vulnerable_fraction,0.750000"));
        assert!(csv.contains("expected_interception,0.800000"));
        assert!(!csv.contains("NaN"));
    }

    #[test]
    fn csv_field_escaping() {
        assert_eq!(csv_field("plain"), "plain");
        assert_eq!(csv_field("a,b"), "\"a,b\"");
        assert_eq!(csv_field("q\"q"), "\"q\"\"q\"");
    }
}
