//! The Table 1 scenario engine: PDU counts for the seven deployment
//! scenarios of §7.2, computed from any (VRP set, BGP table) snapshot.
//!
//! | # | scenario | paper (6/1/2017) | secure? |
//! |---|----------|------------------|---------|
//! | 1 | Today | 39,949 | no |
//! | 2 | Today (compressed) | 33,615 | no |
//! | 3 | Today, minimal ROAs, no maxLength | 52,745 | yes |
//! | 4 | Today, minimal ROAs, with maxLength (compressed) | 49,308 | yes |
//! | 5 | Full deployment, minimal ROAs, no maxLength | 776,945 | yes |
//! | 6 | Full deployment, minimal ROAs, with maxLength | 730,008 | yes |
//! | 7 | Full deployment, lower bound (max-permissive ROAs) | 729,371 | no |
//!
//! "Secure" means immune to forged-origin subprefix hijacks: a scenario is
//! secure exactly when its PDU set is minimal with respect to the BGP
//! table.

use std::fmt;

use rpki_roa::Vrp;

use crate::bounds::{full_deployment_minimal, lower_bound_roots, max_permissive_lower_bound};
use crate::compress::{compress_roas, compressed_len};
use crate::minimal::{minimalize_vrps, minimalize_vrps_par};
use crate::BgpTable;

/// The seven Table 1 scenarios.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Scenario {
    /// Row 1: the RPKI as deployed (maxLength-using tuples included).
    Today,
    /// Row 2: row 1 post-processed with `compress_roas`.
    TodayCompressed,
    /// Row 3: every ROA converted to a minimal, maxLength-free one.
    TodayMinimal,
    /// Row 4: row 3 post-processed with `compress_roas`.
    TodayMinimalCompressed,
    /// Row 5: full deployment, minimal ROAs, no maxLength (one tuple per
    /// announced pair).
    FullMinimal,
    /// Row 6: row 5 post-processed with `compress_roas`.
    FullMinimalCompressed,
    /// Row 7: the maximally-permissive lower bound.
    FullLowerBound,
}

impl Scenario {
    /// All seven rows in Table 1 order.
    pub const ALL: [Scenario; 7] = [
        Scenario::Today,
        Scenario::TodayCompressed,
        Scenario::TodayMinimal,
        Scenario::TodayMinimalCompressed,
        Scenario::FullMinimal,
        Scenario::FullMinimalCompressed,
        Scenario::FullLowerBound,
    ];

    /// The paper's row label.
    pub fn label(self) -> &'static str {
        match self {
            Scenario::Today => "Today",
            Scenario::TodayCompressed => "Today (compressed)",
            Scenario::TodayMinimal => "Today, minimal ROAs, no maxLength",
            Scenario::TodayMinimalCompressed => "Today, minimal ROAs, with maxLength (compressed)",
            Scenario::FullMinimal => "Full deployment, minimal ROAs, no maxLength",
            Scenario::FullMinimalCompressed => "Full deployment, minimal ROAs, with maxLength",
            Scenario::FullLowerBound => "Full deployment, lower bound (max permissive ROAs)",
        }
    }

    /// Whether the scenario's PDU set is immune to forged-origin subprefix
    /// hijacks (the Table 1 "secure?" column).
    pub fn secure(self) -> bool {
        matches!(
            self,
            Scenario::TodayMinimal
                | Scenario::TodayMinimalCompressed
                | Scenario::FullMinimal
                | Scenario::FullMinimalCompressed
        )
    }

    /// Computes the scenario's PDU set from a snapshot.
    pub fn pdus(self, vrps: &[Vrp], bgp: &BgpTable) -> Vec<Vrp> {
        match self {
            Scenario::Today => {
                let mut v = vrps.to_vec();
                v.sort_unstable();
                v.dedup();
                v
            }
            Scenario::TodayCompressed => compress_roas(vrps),
            Scenario::TodayMinimal => minimalize_vrps(vrps, bgp),
            Scenario::TodayMinimalCompressed => compress_roas(&minimalize_vrps(vrps, bgp)),
            Scenario::FullMinimal => full_deployment_minimal(bgp),
            Scenario::FullMinimalCompressed => compress_roas(&full_deployment_minimal(bgp)),
            Scenario::FullLowerBound => max_permissive_lower_bound(bgp),
        }
    }
}

/// One row of Table 1.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ScenarioRow {
    /// Which scenario.
    pub scenario: Scenario,
    /// Number of PDUs routers must process.
    pub pdus: usize,
    /// The "secure?" column.
    pub secure: bool,
}

/// The whole of Table 1 for one snapshot.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Table1 {
    /// Rows in the paper's order.
    pub rows: Vec<ScenarioRow>,
}

impl Table1 {
    /// Computes all seven rows. The expensive inputs (minimalized set,
    /// full-deployment set) are shared across rows.
    pub fn compute(vrps: &[Vrp], bgp: &BgpTable) -> Table1 {
        Table1::build(vrps, bgp, minimalize_vrps, 1)
    }

    /// [`Self::compute`] with the two expensive stages parallelized:
    /// the minimalization scans fan out per tuple
    /// ([`crate::minimal::minimalize_vrps_par`]) and each compression
    /// pass sweeps its per-(ASN, AFI) tries on up to `threads` workers
    /// ([`crate::compress::compress_roas_parallel`]). Both stages are
    /// output-identical to their sequential forms, so the table equals
    /// [`Self::compute`] exactly.
    pub fn compute_par(vrps: &[Vrp], bgp: &BgpTable, threads: usize) -> Table1 {
        Table1::build(vrps, bgp, minimalize_vrps_par, threads)
    }

    /// The rows, given the minimalizer and the compression thread count.
    /// Rows 2, 4 and 6 count compression survivors without building their
    /// lists. Rows 5 and 7 count the pairs they stand for: row 5 is the
    /// table's length, row 7 the pairs the lower bound keeps.
    fn build(
        vrps: &[Vrp],
        bgp: &BgpTable,
        minimalize: fn(&[Vrp], &BgpTable) -> Vec<Vrp>,
        threads: usize,
    ) -> Table1 {
        let today = Scenario::Today.pdus(vrps, bgp);
        let today_minimal = minimalize(vrps, bgp);
        let compressed = |list: &[Vrp]| compressed_len(list, threads);
        let rows = [
            (Scenario::Today, today.len()),
            (Scenario::TodayCompressed, compressed(&today)),
            (Scenario::TodayMinimal, today_minimal.len()),
            (Scenario::TodayMinimalCompressed, compressed(&today_minimal)),
            (Scenario::FullMinimal, bgp.len()),
            (
                Scenario::FullMinimalCompressed,
                compressed(&full_deployment_minimal(bgp)),
            ),
            (Scenario::FullLowerBound, lower_bound_roots(bgp).count()),
        ]
        .map(|(scenario, pdus)| ScenarioRow {
            scenario,
            pdus,
            secure: scenario.secure(),
        });
        Table1 { rows: rows.into() }
    }

    /// The PDU count of one scenario.
    pub fn pdus(&self, scenario: Scenario) -> usize {
        self.rows
            .iter()
            .find(|r| r.scenario == scenario)
            .map(|r| r.pdus)
            .expect("all scenarios computed")
    }

    /// Compression achieved by `compressed` relative to `base`, as the
    /// paper quotes it (e.g. 15.90% for row 2 vs row 1).
    pub fn compression(&self, base: Scenario, compressed: Scenario) -> f64 {
        let base = self.pdus(base) as f64;
        if base == 0.0 {
            return 0.0;
        }
        1.0 - self.pdus(compressed) as f64 / base
    }
}

impl fmt::Display for Table1 {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(f, "{:<55} {:>10}  secure?", "scenario", "# PDUs")?;
        for r in &self.rows {
            writeln!(
                f,
                "{:<55} {:>10}  {}",
                r.scenario.label(),
                r.pdus,
                if r.secure { "yes" } else { "NO" }
            )?;
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rpki_roa::RouteOrigin;

    fn vrps(list: &[&str]) -> Vec<Vrp> {
        list.iter().map(|s| s.parse().unwrap()).collect()
    }

    fn bgp(routes: &[&str]) -> BgpTable {
        routes
            .iter()
            .map(|s| s.parse::<RouteOrigin>().unwrap())
            .collect()
    }

    /// A small world exercising every row: AS1 de-aggregates fully (so
    /// compression bites), AS2 has a non-minimal maxLength ROA, AS3 is
    /// announced but not in the RPKI.
    fn world() -> (Vec<Vrp>, BgpTable) {
        let table = bgp(&[
            "10.0.0.0/16 => AS1",
            "10.0.0.0/17 => AS1",
            "10.0.128.0/17 => AS1",
            "20.0.0.0/16 => AS2",
            "30.0.0.0/16 => AS3",
        ]);
        let set = vrps(&[
            "10.0.0.0/16 => AS1",
            "10.0.0.0/17 => AS1",
            "10.0.128.0/17 => AS1",
            "20.0.0.0/16-24 => AS2", // non-minimal
        ]);
        (set, table)
    }

    #[test]
    fn table_has_seven_rows_in_order() {
        let (set, table) = world();
        let t = Table1::compute(&set, &table);
        assert_eq!(t.rows.len(), 7);
        for (row, scenario) in t.rows.iter().zip(Scenario::ALL) {
            assert_eq!(row.scenario, scenario);
            assert_eq!(row.secure, scenario.secure());
        }
    }

    #[test]
    fn row_values_small_world() {
        let (set, table) = world();
        let t = Table1::compute(&set, &table);
        // Today: 4 tuples.
        assert_eq!(t.pdus(Scenario::Today), 4);
        // Compressed: AS1's three merge into one; AS2 unchanged → 2.
        assert_eq!(t.pdus(Scenario::TodayCompressed), 2);
        // Minimal: AS1's three announced pairs + AS2's /16 → 4.
        assert_eq!(t.pdus(Scenario::TodayMinimal), 4);
        // Minimal compressed: AS1 merges → 2.
        assert_eq!(t.pdus(Scenario::TodayMinimalCompressed), 2);
        // Full minimal: all five announced pairs.
        assert_eq!(t.pdus(Scenario::FullMinimal), 5);
        // Full compressed: AS1's three merge → 3.
        assert_eq!(t.pdus(Scenario::FullMinimalCompressed), 3);
        // Lower bound: AS1's /16 + AS2 + AS3 → 3.
        assert_eq!(t.pdus(Scenario::FullLowerBound), 3);
    }

    #[test]
    fn secure_column_matches_paper() {
        let secure: Vec<bool> = Scenario::ALL.iter().map(|s| s.secure()).collect();
        assert_eq!(secure, vec![false, false, true, true, true, true, false]);
    }

    #[test]
    fn compression_ratio_helper() {
        let (set, table) = world();
        let t = Table1::compute(&set, &table);
        let c = t.compression(Scenario::Today, Scenario::TodayCompressed);
        assert!((c - 0.5).abs() < 1e-12);
    }

    #[test]
    fn scenario_pdus_matches_table() {
        let (set, table) = world();
        let t = Table1::compute(&set, &table);
        for s in Scenario::ALL {
            assert_eq!(s.pdus(&set, &table).len(), t.pdus(s), "{}", s.label());
        }
    }

    #[test]
    fn labels_match_paper() {
        assert_eq!(Scenario::Today.label(), "Today");
        assert_eq!(
            Scenario::FullLowerBound.label(),
            "Full deployment, lower bound (max permissive ROAs)"
        );
    }

    #[test]
    fn display_renders_all_rows() {
        let (set, table) = world();
        let rendered = Table1::compute(&set, &table).to_string();
        for s in Scenario::ALL {
            assert!(rendered.contains(s.label()));
        }
    }

    #[test]
    fn empty_inputs() {
        let t = Table1::compute(&[], &BgpTable::new());
        for row in &t.rows {
            assert_eq!(row.pdus, 0);
        }
    }
}
