//! Acceptance gate for the frozen-snapshot pipeline: on the generated
//! world at scale 0.05, `FrozenVrpIndex::validate_table_par`
//! must produce a `ValidationSummary` identical to the mutable builder's
//! `VrpIndex::validate` tallied route by route, and the parallel
//! experiment must equal the sequential one bit for bit.

use maxlength_rpki::datasets::{DatasetSnapshot, GeneratorConfig, World};
use maxlength_rpki::roa::{Asn, RouteOrigin, Vrp};
use maxlength_rpki::rov::{ValidationState, ValidationSummary, VrpIndex};

fn snapshot_at_half_scale() -> DatasetSnapshot {
    World::generate(GeneratorConfig {
        scale: 0.05,
        ..GeneratorConfig::default()
    })
    .snapshot(7)
}

#[test]
fn frozen_parallel_summary_equals_builder_at_scale_005() {
    let snap = snapshot_at_half_scale();
    let vrps = snap.vrps();
    let routes: Vec<RouteOrigin> = snap.routes.clone();
    assert!(routes.len() > 10_000, "world too small: {}", routes.len());

    let index: VrpIndex = vrps.iter().copied().collect();
    let expect: ValidationSummary = routes
        .iter()
        .map(|route| ValidationSummary::of(index.validate(route)))
        .sum();

    let frozen = index.freeze();
    assert_eq!(frozen.len(), index.len());
    assert_eq!(frozen.validate_table(routes.iter()), expect);
    assert_eq!(frozen.validate_table_par(&routes), expect);

    // The generated world is calibrated so adopters announce what their
    // ROAs authorize: Valid and NotFound both occur (Invalid need not —
    // the generator models no hijacks in the baseline table).
    assert!(expect.valid > 0);
    assert!(expect.not_found > 0);
    assert_eq!(expect.total(), routes.len());
    assert!(expect.valid_fraction() > 0.0 && expect.valid_fraction() < 1.0);
}

#[test]
fn frozen_spot_agreement_on_individual_routes() {
    let snap = snapshot_at_half_scale();
    let index: VrpIndex = snap.vrps().iter().copied().collect();
    let frozen = index.freeze();
    // Spot-check per-route agreement across the table (every 53rd route
    // keeps this fast while touching all regions of the space).
    for route in snap.routes.iter().step_by(53) {
        assert_eq!(frozen.validate(route), index.validate(route), "{route}");
    }
}

/// The builder through a fixed interleaving of inserts and removes: after
/// every step each read answers like a scan of the list the same steps
/// were applied to. Most queries' predecessors sit in sibling subtrees
/// (`10.0.0.0/16` before `10.64.0.0/10`, v4 entries before a v6 query),
/// so the covering walk has to hop.
#[test]
fn builder_tracks_a_vrp_list_through_inserts_and_removes() {
    let universe: Vec<Vrp> = [
        "0.0.0.0/0 => AS7",
        "9.0.0.0/8 => AS6",
        "10.0.0.0/8-24 => AS1",
        "10.0.0.0/8 => AS2",
        "10.0.0.0/16 => AS2",
        "10.0.1.0/24 => AS3",
        "10.64.0.0/10-16 => AS4",
        "10.64.0.0/16 => AS5",
        "10.65.0.0/16 => AS4",
        "10.65.1.1/32 => AS4",
        "::/0 => AS7",
        "2001:db8::/32-48 => AS1",
        "2001:db8:1::/48 => AS1",
        "2001:db9::/32 => AS2",
    ]
    .iter()
    .map(|s| s.parse().unwrap())
    .collect();

    let mut index = VrpIndex::new();
    let mut model: Vec<Vrp> = Vec::new();
    let mut state = 2017u64;
    for _ in 0..300 {
        state = state
            .wrapping_mul(6364136223846793005)
            .wrapping_add(1442695040888963407);
        let vrp = universe[(state >> 33) as usize % universe.len()];
        let present = model.contains(&vrp);
        if !(state >> 20).is_multiple_of(3) {
            assert_eq!(index.insert(vrp), !present);
            if !present {
                model.push(vrp);
            }
        } else {
            assert_eq!(index.remove(&vrp), present);
            model.retain(|v| *v != vrp);
        }
        model.sort_unstable();
        assert_eq!(index.iter().copied().collect::<Vec<_>>(), model);

        for query in universe.iter().map(|v| v.prefix) {
            // Covering comes longest prefix first.
            let covering = model.iter().rev().filter(|v| v.prefix.covers(query));
            assert!(index.covering(query).eq(covering), "covering {query}");
            let route = RouteOrigin::new(query, Asn(4));
            let expect = if model.iter().any(|v| v.matches(&route)) {
                ValidationState::Valid
            } else if model.iter().any(|v| v.covers(&route)) {
                ValidationState::Invalid
            } else {
                ValidationState::NotFound
            };
            assert_eq!(index.validate(&route), expect, "{route}");
        }
    }
}

#[test]
fn parallel_experiment_is_bit_identical() {
    use maxlength_rpki::bgpsim::experiment::RoaConfig;
    use maxlength_rpki::bgpsim::topology::TopologyConfig;
    use maxlength_rpki::bgpsim::{AttackKind, DeploymentModel, ScenarioMatrix, TopologyFamily};
    // §4/§5's table under partial ROV: the parallel executor folds to
    // the sequential report, every cell, every float.
    let experiment = ScenarioMatrix {
        topologies: vec![TopologyFamily::new(TopologyConfig {
            n: 400,
            tier1: 6,
            ..TopologyConfig::default()
        })],
        strategies: AttackKind::ALL.iter().map(|&k| Box::new(k) as _).collect(),
        deployments: vec![DeploymentModel::Uniform { p: 0.8 }],
        roas: RoaConfig::ALL.to_vec(),
        trials: 10,
        seed: 99,
    };
    assert_eq!(experiment.run(), experiment.run_par());
}
