//! The paper's headline orderings, asserted as code over the scenario
//! matrix:
//!
//! * interception is **non-increasing in ROV adoption** `p` for the
//!   forged-origin strategies (the uniform deployment draws exactly one
//!   threshold per AS, so adopter sets are nested in `p` — more
//!   validation can only remove attacker routes);
//! * **minimal-ROA cells never exceed loose-maxLength cells** for any
//!   strategy, deployment, or topology — §5's claim that minimal ROAs
//!   only ever help;
//! * zero-eligible cells aggregate to 0.0, never NaN;
//! * **§4/§5's table and the adoption sweep** — the four hijacks × the
//!   three ROA configurations under uniform ROV at several levels — read
//!   off one grid each, every cell of which has all its trials eligible.

use bgpsim::experiment::RoaConfig;
use bgpsim::matrix::{MatrixReport, ScenarioMatrix, TopologyFamily};
use bgpsim::topology::TopologyConfig;
use bgpsim::{AttackKind, DeploymentModel, MaxLengthGapProber};

fn family(n: usize) -> TopologyFamily {
    TopologyFamily::new(TopologyConfig {
        n,
        tier1: 5,
        ..TopologyConfig::default()
    })
}

/// Forged-origin strategy labels (the ones ROV can act on).
const FORGED: [&str; 2] = [
    "forged-origin prefix hijack",
    "forged-origin subprefix hijack",
];

#[test]
fn interception_is_non_increasing_in_rov_adoption() {
    // One matrix per adoption level, same seed: nested adopter sets.
    let levels = [0.0, 0.25, 0.5, 0.75, 1.0];
    let reports: Vec<_> = levels
        .iter()
        .map(|&p| {
            ScenarioMatrix {
                topologies: vec![family(260)],
                strategies: vec![
                    Box::new(AttackKind::ForgedOriginPrefixHijack),
                    Box::new(AttackKind::ForgedOriginSubprefixHijack),
                    Box::new(MaxLengthGapProber),
                ],
                deployments: vec![DeploymentModel::Uniform { p }],
                roas: vec![RoaConfig::Minimal, RoaConfig::NonMinimalMaxLen],
                trials: 6,
                seed: 42,
            }
            .run_par()
        })
        .collect();

    for strategy in FORGED.iter().copied().chain([MaxLengthGapProber::LABEL]) {
        for roa in [RoaConfig::Minimal, RoaConfig::NonMinimalMaxLen] {
            let series: Vec<f64> = reports
                .iter()
                .zip(levels)
                .map(|(r, p)| {
                    r.cell(
                        "n=260 tier1=5",
                        strategy,
                        &DeploymentModel::Uniform { p }.label(),
                        roa,
                    )
                    .stats
                    .mean_interception
                })
                .collect();
            for window in series.windows(2) {
                assert!(
                    window[1] <= window[0] + 1e-12,
                    "{strategy} vs {roa:?}: interception rose with adoption: {series:?}"
                );
            }
        }
    }

    // And the endpoints are the paper's: under full ROV the minimal ROA
    // zeroes the subprefix attack while the loose one stays at ~100%.
    let full = reports.last().unwrap();
    let at = |strategy: &str, roa| {
        full.cell("n=260 tier1=5", strategy, "uniform p=1.00", roa)
            .stats
            .mean_interception
    };
    assert_eq!(
        at("forged-origin subprefix hijack", RoaConfig::Minimal),
        0.0
    );
    assert!(
        at(
            "forged-origin subprefix hijack",
            RoaConfig::NonMinimalMaxLen
        ) > 0.999
    );
}

#[test]
fn minimal_roa_cells_never_exceed_loose_maxlength_cells() {
    let report = ScenarioMatrix {
        topologies: vec![family(150), family(260)],
        strategies: ScenarioMatrix::standard_strategies(),
        deployments: DeploymentModel::standard(),
        roas: vec![RoaConfig::NonMinimalMaxLen, RoaConfig::Minimal],
        trials: 4,
        seed: 7,
    }
    .run_par();

    let mut compared = 0;
    for loose in report
        .cells
        .iter()
        .filter(|c| c.roa == RoaConfig::NonMinimalMaxLen)
    {
        let minimal = report.cell(
            &loose.topology,
            &loose.strategy,
            &loose.deployment,
            RoaConfig::Minimal,
        );
        assert!(
            minimal.stats.mean_interception <= loose.stats.mean_interception + 1e-12,
            "minimal beats loose in {} × {} × {}: {:?} vs {:?}",
            loose.topology,
            loose.strategy,
            loose.deployment,
            minimal.stats,
            loose.stats
        );
        compared += 1;
    }
    // Every loose cell had its minimal partner.
    assert_eq!(compared, report.cells.len() / 2);
    // The ordering is strict somewhere (the gap prober under full ROV).
    let strict = report
        .cells
        .iter()
        .filter(|c| c.roa == RoaConfig::NonMinimalMaxLen)
        .any(|loose| {
            report
                .cell(
                    &loose.topology,
                    &loose.strategy,
                    &loose.deployment,
                    RoaConfig::Minimal,
                )
                .stats
                .mean_interception
                + 1e-9
                < loose.stats.mean_interception
        });
    assert!(strict, "expected at least one strictly-better minimal cell");
}

#[test]
fn zero_eligible_cells_report_zero_not_nan() {
    // A strategy whose announcement is the victim's prefix with a
    // *wrong* claimed origin, against a minimal ROA under universal ROV:
    // the victim's route is fine but the attacker's is Invalid — and we
    // then measure a cell in which the attack never becomes eligible by
    // breaking the victim too (wrong-origin ROA via a custom strategy is
    // overkill; instead assert directly on the aggregation layer plus an
    // end-to-end run where every trial routes).
    use bgpsim::{AttackOutcome, CellStats};

    let outcome = AttackOutcome {
        intercepted: 0,
        legitimate: 0,
        disconnected: 9,
    };
    assert_eq!(outcome.interception_fraction(), 0.0);
    assert!(!outcome.interception_fraction().is_nan());

    let stats = CellStats::from_outcomes(&[outcome, outcome]);
    assert_eq!(stats.eligible, 0);
    assert_eq!(stats.mean_interception, 0.0);
    assert_eq!(stats.min_interception, 0.0);
    assert_eq!(stats.max_interception, 0.0);
    assert_eq!(stats.mean_disconnected, 1.0);

    // End to end: every rendered number in a real small run is finite.
    let report = ScenarioMatrix {
        topologies: vec![family(100)],
        strategies: ScenarioMatrix::standard_strategies(),
        deployments: vec![DeploymentModel::Uniform { p: 1.0 }],
        roas: RoaConfig::ALL.to_vec(),
        trials: 2,
        seed: 3,
    }
    .run_par();
    for c in &report.cells {
        assert!(c.stats.mean_interception.is_finite(), "{c:?}");
        assert!(c.stats.min_interception.is_finite());
        assert!(c.stats.max_interception.is_finite());
        assert!(c.stats.mean_disconnected.is_finite());
    }
    assert!(!report.render().contains("NaN"));
}

/// §4/§5's grid: `kinds` × every ROA configuration under uniform ROV at
/// each of `levels`, on one topology. Every trial of every cell routes
/// somebody, so a cell's mean/min/max run over all its trials.
fn paper_grid(
    n: usize,
    trials: usize,
    seed: u64,
    kinds: &[AttackKind],
    levels: &[f64],
) -> MatrixReport {
    let report = ScenarioMatrix {
        topologies: vec![family(n)],
        strategies: kinds.iter().map(|&k| Box::new(k) as _).collect(),
        deployments: levels
            .iter()
            .map(|&p| DeploymentModel::Uniform { p })
            .collect(),
        roas: RoaConfig::ALL.to_vec(),
        trials,
        seed,
    }
    .run();
    assert_eq!(report.cells.len(), kinds.len() * levels.len() * 3);
    for c in &report.cells {
        assert_eq!(c.stats.eligible, c.stats.trials, "{c:?}");
        assert_eq!(c.stats.trials, trials);
    }
    report
}

/// The `(kind, ROA)` cells of `report`, one per adoption level in axis
/// order.
fn across_levels(
    report: &MatrixReport,
    kind: AttackKind,
    roa: RoaConfig,
) -> Vec<bgpsim::CellStats> {
    report
        .cells_for(kind.label(), roa)
        .map(|c| c.stats)
        .collect()
}

#[test]
fn paper_shape_holds_under_full_rov() {
    let r = paper_grid(300, 6, 5, &AttackKind::ALL, &[1.0]);
    let cell = |kind, roa| across_levels(&r, kind, roa)[0];

    // §4: forged-origin subprefix hijack against the non-minimal ROA
    // intercepts everything.
    let headline = cell(
        AttackKind::ForgedOriginSubprefixHijack,
        RoaConfig::NonMinimalMaxLen,
    );
    assert!(headline.mean_interception > 0.999, "{headline:?}");

    // §5: the minimal ROA reduces it to zero.
    let fixed = cell(AttackKind::ForgedOriginSubprefixHijack, RoaConfig::Minimal);
    assert_eq!(fixed.mean_interception, 0.0);

    // The attacker's fallback — the prefix-grained forged-origin
    // hijack — only splits traffic.
    let fallback = cell(AttackKind::ForgedOriginPrefixHijack, RoaConfig::Minimal);
    assert!(fallback.mean_interception > 0.0);
    assert!(fallback.mean_interception < headline.mean_interception);
    assert!(fallback.max_interception < 1.0);

    // Classic hijacks are dead under any ROA + ROV.
    for roa in [RoaConfig::Minimal, RoaConfig::NonMinimalMaxLen] {
        assert_eq!(cell(AttackKind::PrefixHijack, roa).mean_interception, 0.0);
        assert_eq!(
            cell(AttackKind::SubprefixHijack, roa).mean_interception,
            0.0
        );
    }

    // Without any ROA, the subprefix hijack is total.
    assert!(cell(AttackKind::SubprefixHijack, RoaConfig::NoRoa).mean_interception > 0.999);
}

#[test]
fn partial_rov_interpolates() {
    let r = paper_grid(300, 6, 5, &AttackKind::ALL, &[0.0, 1.0]);
    let levels = across_levels(&r, AttackKind::SubprefixHijack, RoaConfig::Minimal);
    // With zero enforcement, ROAs change nothing: the subprefix hijack
    // wins everywhere despite the minimal ROA.
    assert!(levels[0].mean_interception > 0.999);
    assert_eq!(levels[1].mean_interception, 0.0);
}

/// The two decisive attacks of the adoption sweep, on its topology.
const SWEPT: [AttackKind; 2] = [
    AttackKind::SubprefixHijack,
    AttackKind::ForgedOriginSubprefixHijack,
];

#[test]
fn subprefix_hijack_decays_with_adoption() {
    let r = paper_grid(250, 4, 11, &SWEPT, &[0.0, 0.5, 1.0]);
    let sweep = across_levels(&r, AttackKind::SubprefixHijack, RoaConfig::Minimal);
    assert_eq!(sweep.len(), 3);
    // Monotone non-increasing from total capture to zero.
    assert!(sweep[0].mean_interception > 0.99);
    assert!(sweep[1].mean_interception <= sweep[0].mean_interception);
    assert_eq!(sweep[2].mean_interception, 0.0);
}

#[test]
fn forged_origin_subprefix_immune_to_adoption_with_bad_roa() {
    // The paper's point sharpened: against the non-minimal ROA, MORE
    // validation does not help at all — the hijack is Valid.
    let r = paper_grid(250, 4, 11, &SWEPT, &[0.0, 1.0]);
    let sweep = across_levels(
        &r,
        AttackKind::ForgedOriginSubprefixHijack,
        RoaConfig::NonMinimalMaxLen,
    );
    assert_eq!(sweep.len(), 2);
    for level in sweep {
        assert!(level.mean_interception > 0.99);
    }
}
