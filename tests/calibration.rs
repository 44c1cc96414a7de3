//! End-to-end calibration test: a generated world at reduced scale must
//! reproduce the *shape* of every §6/§7 statistic — orderings, ratios, and
//! fractions — through the real analysis pipeline (the same code the
//! benches run at paper scale).

use maxlength_rpki::prelude::*;

const SCALE: f64 = 0.02;

fn world() -> (Vec<Vrp>, BgpTable, usize) {
    let world = World::generate(GeneratorConfig {
        scale: SCALE,
        ..GeneratorConfig::default()
    });
    let snap = world.snapshot(7); // the "6/1" full snapshot
    let vrps = snap.vrps();
    let bgp: BgpTable = snap.routes.iter().collect();
    (vrps, bgp, snap.roa_count())
}

#[test]
fn census_fractions_match_section6() {
    let (vrps, bgp, _) = world();
    let census = MaxLengthCensus::analyze(&vrps, &bgp);
    // "only about 12% of the prefixes in ROAs have a maxLength longer than
    // the prefix length"
    let ml = census.max_len_fraction();
    assert!((0.09..=0.14).contains(&ml), "maxLength fraction {ml}");
    // "almost all of these prefixes (84%) are not minimal"
    let vuln = census.vulnerable_fraction();
    assert!((0.80..=0.88).contains(&vuln), "vulnerable fraction {vuln}");
}

#[test]
fn table1_shape_matches_paper() {
    let (vrps, bgp, roa_count) = world();
    let t = Table1::compute(&vrps, &bgp);

    let today = t.pdus(Scenario::Today);
    let today_c = t.pdus(Scenario::TodayCompressed);
    let minimal = t.pdus(Scenario::TodayMinimal);
    let minimal_c = t.pdus(Scenario::TodayMinimalCompressed);
    let full = t.pdus(Scenario::FullMinimal);
    let full_c = t.pdus(Scenario::FullMinimalCompressed);
    let bound = t.pdus(Scenario::FullLowerBound);

    // Row ordering exactly as in Table 1.
    assert!(today_c < today);
    assert!(today < minimal, "minimalization adds PDUs today");
    assert!(minimal_c < minimal);
    assert!(
        today_c < minimal_c,
        "status quo stays smaller, its cost is security"
    );
    assert!(bound < full_c && full_c < full);

    // Paper ratios (6/1/2017): 15.90% status-quo compression.
    let c1 = t.compression(Scenario::Today, Scenario::TodayCompressed);
    assert!((0.14..=0.18).contains(&c1), "status-quo compression {c1}");

    // 6.5% compression of the minimalized set.
    let c2 = t.compression(Scenario::TodayMinimal, Scenario::TodayMinimalCompressed);
    assert!((0.05..=0.08).contains(&c2), "minimal compression {c2}");

    // "Even with compress_roas, we still have 23% more tuples than the
    // status quo."
    let extra = minimal_c as f64 / today as f64 - 1.0;
    assert!(
        (0.18..=0.28).contains(&extra),
        "minimal-compressed overhead {extra}"
    );

    // "13K additional prefixes" ≈ +32% over the 39,949.
    let growth = minimal as f64 / today as f64 - 1.0;
    assert!(
        (0.27..=0.37).contains(&growth),
        "minimalization growth {growth}"
    );

    // Full deployment: ≈6.0% compression, ≈6.1% bound; compressed within a
    // whisker of the bound (gap 637/730,008 ≈ 0.09%).
    let c3 = t.compression(Scenario::FullMinimal, Scenario::FullMinimalCompressed);
    assert!(
        (0.045..=0.075).contains(&c3),
        "full-deployment compression {c3}"
    );
    let gap = full_c as f64 / bound as f64 - 1.0;
    assert!(gap < 0.01, "compress_roas is near-optimal, gap {gap}");

    // Absolute scale sanity: at SCALE of the paper's world.
    let expect_today = (39_949.0 * SCALE) as usize;
    assert!(today.abs_diff(expect_today) * 20 < expect_today);
    let expect_full = (776_945.0 * SCALE) as usize;
    assert!(full.abs_diff(expect_full) * 20 < expect_full);

    // ROA object count scales like the paper's 7,499.
    let expect_roas = (7_499.0 * SCALE) as usize;
    assert!(roa_count.abs_diff(expect_roas) * 10 < expect_roas);
}

#[test]
fn deployment_fraction_is_single_digit_percent() {
    // §2: "7.6% of the (prefix, origin AS) pairs announced in BGP match a
    // ROA" — ours lands in the same single-digit band by construction.
    let (vrps, bgp, _) = world();
    let frozen: FrozenVrpIndex = vrps.iter().copied().collect();
    let routes: Vec<RouteOrigin> = bgp.iter().collect();
    let summary = frozen.validate_table_par(&routes);
    let frac = summary.valid_fraction();
    assert!((0.05..=0.10).contains(&frac), "valid fraction {frac}");
    // Nothing announced should be Invalid in the generated world except
    // adopter allocations whose ROA outpaced their announcements — a
    // small sliver.
    assert!(summary.invalid * 100 <= summary.total());
}

#[test]
fn figure3_series_shapes() {
    let world = World::generate(GeneratorConfig {
        scale: 0.005,
        ..GeneratorConfig::default()
    });
    let snapshots: Vec<maxlength_rpki::core::timeline::Snapshot> = world
        .snapshots()
        .into_iter()
        .map(|s| maxlength_rpki::core::timeline::Snapshot {
            label: s.label.clone(),
            vrps: s.vrps(),
            bgp: s.routes.iter().collect(),
        })
        .collect();
    let tl = maxlength_rpki::core::timeline::Timeline::compute(&snapshots);

    // Figure 3a: on every date, minimal-no-ML is the top line, compressed
    // status quo the bottom line.
    for point in &tl.points {
        let t = &point.table;
        assert!(t.pdus(Scenario::TodayCompressed) <= t.pdus(Scenario::Today));
        assert!(t.pdus(Scenario::Today) <= t.pdus(Scenario::TodayMinimal));
        assert!(t.pdus(Scenario::TodayMinimalCompressed) <= t.pdus(Scenario::TodayMinimal));
    }
    // Series grow over the window (the paper's upward slopes).
    let a = tl.figure3a();
    let first = a[0].points.first().unwrap().1;
    let last = a[0].points.last().unwrap().1;
    assert!(last > first, "status quo grows over the window");

    // Figure 3b: the with-maxLength line hugs the lower bound everywhere.
    let b = tl.figure3b();
    for ((_, with_ml), (_, bound)) in b[1].points.iter().zip(b[2].points.iter()) {
        assert!(bound <= with_ml);
        assert!((*with_ml as f64) < *bound as f64 * 1.01);
    }
}
