//! Operational recommendations (§8) as a linter.
//!
//! The paper closes with guidance for operators and RIR interfaces — later
//! standardized as RFC 9319 (*The Use of maxLength in the RPKI*), the BCP
//! the authors were drafting in §8. This module turns that guidance into
//! machine-checkable findings over a (ROA set, BGP table) pair:
//!
//! * **maxLength used** — flag every attribute use, "avoid using
//!   maxLength" being the paper's core recommendation;
//! * **forged-origin exposure** — the §4 vulnerability, with concrete
//!   hijackable prefixes as evidence;
//! * **stale authorization** — ROAs validating nothing announced
//!   (minimalization would withdraw them);
//! * **redundant tuples** — entries fully covered by another entry of the
//!   same ROA set (needless PDU load);
//! * **AS0 with maxLength** — AS0 ROAs say "nobody may originate"; a
//!   maxLength there silently widens a *denial* rather than a grant and
//!   deserves its own warning.
//!
//! Each finding carries a severity and a remediation, and
//! [`LintReport::proposed_roas`] emits the §8 fix: minimal ROAs plus
//! `compress_roas`.

use std::collections::HashMap;
use std::fmt;

use rpki_prefix::Prefix;
use rpki_roa::{Asn, Roa, Vrp};

use crate::compress::compress_roas;
use crate::minimal::{minimalize_roas, MinimalRoa};
use crate::vulnerability::hijack_surface;
use crate::BgpTable;

/// How urgent a finding is.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum Severity {
    /// Informational: worth knowing, no action forced.
    Info,
    /// Should be fixed: weakens the RPKI's protection or wastes router
    /// resources.
    Warning,
    /// Actively exploitable: a forged-origin subprefix hijack works today.
    Critical,
}

impl fmt::Display for Severity {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Severity::Info => write!(f, "INFO"),
            Severity::Warning => write!(f, "WARN"),
            Severity::Critical => write!(f, "CRIT"),
        }
    }
}

/// One finding about one ROA tuple.
#[derive(Debug, Clone, PartialEq)]
pub struct Finding {
    /// The tuple the finding concerns.
    pub vrp: Vrp,
    /// Which rule fired.
    pub rule: Rule,
    /// Severity of this instance.
    pub severity: Severity,
    /// Human-readable evidence/remediation.
    pub detail: String,
}

/// The lint rules, mirroring §8's recommendations.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Rule {
    /// The tuple uses maxLength at all ("operators should avoid using
    /// maxLength").
    UsesMaxLength,
    /// The tuple authorizes unannounced prefixes: forged-origin subprefix
    /// hijack exposure (§4).
    ForgedOriginExposure,
    /// The tuple validates nothing announced in BGP.
    StaleAuthorization,
    /// The tuple is entirely covered by another tuple for the same AS.
    RedundantTuple,
    /// An AS0 ("deny all") entry carries a maxLength.
    As0WithMaxLength,
}

impl Rule {
    /// Short identifier, RFC-9319-style.
    pub fn code(self) -> &'static str {
        match self {
            Rule::UsesMaxLength => "ML-USE",
            Rule::ForgedOriginExposure => "ML-FORGED-ORIGIN",
            Rule::StaleAuthorization => "ROA-STALE",
            Rule::RedundantTuple => "ROA-REDUNDANT",
            Rule::As0WithMaxLength => "AS0-MAXLEN",
        }
    }
}

/// The result of linting a ROA set against a BGP table.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct LintReport {
    /// All findings, sorted by descending severity then tuple.
    pub findings: Vec<Finding>,
}

impl LintReport {
    /// Runs every rule.
    pub fn lint(roas: &[Roa], bgp: &BgpTable) -> LintReport {
        let mut findings = Vec::new();
        let vrps: Vec<Vrp> = roas.iter().flat_map(|r| r.vrps()).collect();

        for vrp in &vrps {
            if vrp.asn.is_zero() {
                if vrp.uses_max_len() {
                    findings.push(Finding {
                        vrp: *vrp,
                        rule: Rule::As0WithMaxLength,
                        severity: Severity::Info,
                        detail: format!(
                            "AS0 entry denies {} prefixes; prefer explicit \
                             per-prefix AS0 entries so the denial scope is visible",
                            vrp.authorized_prefix_count()
                        ),
                    });
                }
                // AS0 entries are never "stale" or "exposed": they grant
                // nothing.
                continue;
            }

            if vrp.uses_max_len() {
                findings.push(Finding {
                    vrp: *vrp,
                    rule: Rule::UsesMaxLength,
                    severity: Severity::Warning,
                    detail: format!(
                        "authorizes {} prefixes via maxLength {}; enumerate the \
                         announced set instead (ROAs support prefix sets)",
                        vrp.authorized_prefix_count(),
                        vrp.max_len
                    ),
                });
            }

            if bgp.routes_validated_by(vrp).next().is_none() {
                findings.push(Finding {
                    vrp: *vrp,
                    rule: Rule::StaleAuthorization,
                    severity: Severity::Warning,
                    detail: "validates nothing currently announced; withdraw or update".to_string(),
                });
                continue;
            }
            let surface = hijack_surface(vrp, bgp, 3);
            if surface.unannounced_count > 0 {
                let examples = surface
                    .examples
                    .iter()
                    .map(|p| p.to_string())
                    .collect::<Vec<_>>()
                    .join(", ");
                findings.push(Finding {
                    vrp: *vrp,
                    rule: Rule::ForgedOriginExposure,
                    severity: Severity::Critical,
                    detail: format!(
                        "{} authorized-but-unannounced prefixes are hijackable \
                         via forged-origin announcements (e.g. {examples})",
                        surface.unannounced_count
                    ),
                });
            }
        }

        // Redundancy: a tuple dominated by another tuple of the same AS —
        // one on its own prefix with a larger maxLength, or one on a strict
        // ancestor with a maxLength at least as large. An exact duplicate
        // (the same tuple in two ROAs) dominates nothing.
        let mut widest: HashMap<(Asn, Prefix), u8> = HashMap::with_capacity(vrps.len());
        for vrp in &vrps {
            let max_len = widest.entry((vrp.asn, vrp.prefix)).or_default();
            *max_len = (*max_len).max(vrp.max_len);
        }
        for vrp in &vrps {
            let widest_on = |prefix| widest.get(&(vrp.asn, prefix)).copied();
            let dominated = widest_on(vrp.prefix) > Some(vrp.max_len)
                || std::iter::successors(vrp.prefix.parent(), |p| p.parent())
                    .any(|above| widest_on(above) >= Some(vrp.max_len));
            if dominated {
                findings.push(Finding {
                    vrp: *vrp,
                    rule: Rule::RedundantTuple,
                    severity: Severity::Info,
                    detail: "fully covered by another tuple for the same AS; \
                             remove to shrink the PDU feed"
                        .to_string(),
                });
            }
        }

        findings.sort_by(|a, b| {
            b.severity
                .cmp(&a.severity)
                .then_with(|| a.vrp.cmp(&b.vrp))
                .then_with(|| a.rule.code().cmp(b.rule.code()))
        });
        LintReport { findings }
    }

    /// Findings at a given severity.
    pub fn at(&self, severity: Severity) -> impl Iterator<Item = &Finding> {
        self.findings.iter().filter(move |f| f.severity == severity)
    }

    /// `true` if any finding is Critical.
    pub fn has_critical(&self) -> bool {
        self.at(Severity::Critical).next().is_some()
    }

    /// The §8 remediation: minimal ROAs (same object count, maxLength-free)
    /// with the PDU growth recovered by `compress_roas`. Returns the
    /// proposed ROA set and its compressed PDU list.
    pub fn proposed_roas(roas: &[Roa], bgp: &BgpTable) -> (Vec<MinimalRoa>, Vec<Vrp>) {
        let minimal = minimalize_roas(roas, bgp);
        let vrps: Vec<Vrp> = minimal
            .iter()
            .filter_map(|m| m.as_converted())
            .flat_map(|r| r.vrps())
            .collect();
        let compressed = compress_roas(&vrps);
        (minimal, compressed)
    }

    /// Renders the report as aligned text.
    pub fn render(&self) -> String {
        let mut out = String::new();
        for f in &self.findings {
            out.push_str(&format!(
                "{} [{}] {} — {}\n",
                f.severity,
                f.rule.code(),
                f.vrp,
                f.detail
            ));
        }
        if self.findings.is_empty() {
            out.push_str("no findings: ROA set is minimal and maxLength-free\n");
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rpki_roa::{Asn, RoaPrefix, RouteOrigin};

    fn bgp(routes: &[&str]) -> BgpTable {
        routes
            .iter()
            .map(|s| s.parse::<RouteOrigin>().unwrap())
            .collect()
    }

    fn roa(asn: u32, entries: &[(&str, Option<u8>)]) -> Roa {
        Roa::new(
            Asn(asn),
            entries
                .iter()
                .map(|(p, ml)| match ml {
                    Some(m) => RoaPrefix::with_max_len(p.parse().unwrap(), *m),
                    None => RoaPrefix::exact(p.parse().unwrap()),
                })
                .collect(),
        )
        .unwrap()
    }

    #[test]
    fn clean_minimal_set_has_no_findings() {
        let table = bgp(&["10.0.0.0/8 => AS1"]);
        let roas = vec![roa(1, &[("10.0.0.0/8", None)])];
        let report = LintReport::lint(&roas, &table);
        assert!(report.findings.is_empty());
        assert!(!report.has_critical());
        assert!(report.render().contains("no findings"));
    }

    #[test]
    fn running_example_is_critical() {
        // §4: the /16-24 ROA with only the /16 and one /24 announced.
        let table = bgp(&["168.122.0.0/16 => AS111", "168.122.225.0/24 => AS111"]);
        let roas = vec![roa(111, &[("168.122.0.0/16", Some(24))])];
        let report = LintReport::lint(&roas, &table);
        assert!(report.has_critical());
        let crit: Vec<_> = report.at(Severity::Critical).collect();
        assert_eq!(crit.len(), 1);
        assert_eq!(crit[0].rule, Rule::ForgedOriginExposure);
        assert!(crit[0].detail.contains("509"));
        // Plus the generic maxLength warning.
        assert!(report
            .findings
            .iter()
            .any(|f| f.rule == Rule::UsesMaxLength));
    }

    #[test]
    fn minimal_maxlength_is_warning_not_critical() {
        // Fully-announced subtree: no exposure, but §8 still recommends
        // enumerating instead.
        let table = bgp(&[
            "10.0.0.0/16 => AS1",
            "10.0.0.0/17 => AS1",
            "10.0.128.0/17 => AS1",
        ]);
        let roas = vec![roa(1, &[("10.0.0.0/16", Some(17))])];
        let report = LintReport::lint(&roas, &table);
        assert!(!report.has_critical());
        assert_eq!(
            report.findings.iter().map(|f| f.rule).collect::<Vec<_>>(),
            vec![Rule::UsesMaxLength]
        );
    }

    #[test]
    fn stale_roa_flagged() {
        let table = bgp(&["10.0.0.0/8 => AS1"]);
        let roas = vec![roa(2, &[("99.0.0.0/8", None)])];
        let report = LintReport::lint(&roas, &table);
        assert_eq!(report.findings.len(), 1);
        assert_eq!(report.findings[0].rule, Rule::StaleAuthorization);
        assert_eq!(report.findings[0].severity, Severity::Warning);
    }

    #[test]
    fn redundant_tuple_flagged() {
        let table = bgp(&["10.0.0.0/16 => AS1", "10.0.5.0/24 => AS1"]);
        let roas = vec![roa(1, &[("10.0.0.0/16", Some(24)), ("10.0.5.0/24", None)])];
        let report = LintReport::lint(&roas, &table);
        assert!(report
            .findings
            .iter()
            .any(|f| f.rule == Rule::RedundantTuple && f.vrp.prefix.to_string() == "10.0.5.0/24"));
    }

    #[test]
    fn exact_duplicate_is_not_redundant() {
        // The same tuple in two ROAs, and once more at a smaller
        // maxLength: only the smaller one is dominated.
        let table = bgp(&["10.0.0.0/16 => AS1"]);
        let roas = vec![
            roa(1, &[("10.0.0.0/16", Some(17))]),
            roa(1, &[("10.0.0.0/16", Some(17)), ("10.0.0.0/16", None)]),
        ];
        let report = LintReport::lint(&roas, &table);
        let redundant: Vec<String> = report
            .findings
            .iter()
            .filter(|f| f.rule == Rule::RedundantTuple)
            .map(|f| f.vrp.to_string())
            .collect();
        assert_eq!(redundant, ["10.0.0.0/16 => AS1"]);
    }

    #[test]
    fn as0_with_maxlength_is_info_only() {
        let table = bgp(&[]);
        let roas = vec![roa(0, &[("192.0.2.0/24", Some(32))])];
        let report = LintReport::lint(&roas, &table);
        assert_eq!(report.findings.len(), 1);
        assert_eq!(report.findings[0].rule, Rule::As0WithMaxLength);
        assert_eq!(report.findings[0].severity, Severity::Info);
        // AS0 without maxLength is entirely clean.
        let roas = vec![roa(0, &[("192.0.2.0/24", None)])];
        assert!(LintReport::lint(&roas, &table).findings.is_empty());
    }

    #[test]
    fn proposed_fix_clears_all_criticals() {
        // The running example's {/16, /24} has nothing to merge; an exact
        // /16 with both /17s announced comes back as one /16-17 (§7).
        let cases: [(u32, &str, &[&str], &[&str]); 2] = [
            (
                111,
                "168.122.0.0/16",
                &["168.122.0.0/16 => AS111", "168.122.225.0/24 => AS111"],
                &["168.122.0.0/16 => AS111", "168.122.225.0/24 => AS111"],
            ),
            (
                5,
                "10.0.0.0/16",
                &[
                    "10.0.0.0/16 => AS5",
                    "10.0.0.0/17 => AS5",
                    "10.0.128.0/17 => AS5",
                ],
                &["10.0.0.0/16-17 => AS5"],
            ),
        ];
        for (asn, prefix, announced, proposed) in cases {
            let table = bgp(announced);
            let roas = vec![roa(asn, &[(prefix, Some(24))])];
            assert!(LintReport::lint(&roas, &table).has_critical());
            let (minimal, compressed) = LintReport::proposed_roas(&roas, &table);
            assert_eq!(minimal.len(), 1);
            let fixed: Vec<Roa> = minimal
                .iter()
                .filter_map(|m| m.as_converted().cloned())
                .collect();
            let report = LintReport::lint(&fixed, &table);
            assert!(!report.has_critical());
            let listed: Vec<String> = compressed.iter().map(|v| v.to_string()).collect();
            assert_eq!(listed, proposed);
        }
    }

    #[test]
    fn findings_sorted_by_severity() {
        let table = bgp(&["10.0.0.0/16 => AS1"]);
        let roas = vec![roa(1, &[("10.0.0.0/16", Some(24)), ("99.0.0.0/8", None)])];
        let report = LintReport::lint(&roas, &table);
        let severities: Vec<_> = report.findings.iter().map(|f| f.severity).collect();
        let mut sorted = severities.clone();
        sorted.sort_by(|a, b| b.cmp(a));
        assert_eq!(severities, sorted);
        assert!(report.has_critical());
    }

    #[test]
    fn rule_codes_stable() {
        assert_eq!(Rule::UsesMaxLength.code(), "ML-USE");
        assert_eq!(Rule::ForgedOriginExposure.code(), "ML-FORGED-ORIGIN");
        assert_eq!(Rule::StaleAuthorization.code(), "ROA-STALE");
        assert_eq!(Rule::RedundantTuple.code(), "ROA-REDUNDANT");
        assert_eq!(Rule::As0WithMaxLength.code(), "AS0-MAXLEN");
    }
}
