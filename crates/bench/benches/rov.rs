//! Ablation: indexed route origin validation vs a linear VRP scan, and
//! the mutable builder vs the frozen snapshot.
//!
//! RFC 6811 validation is on every BGP update's hot path; this bench
//! justifies the ordered-set `VrpIndex` over the obvious `Vec` scan, and
//! `freeze()` over the builder for anything table-sized.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion, Throughput};

use rpki_datasets::{GeneratorConfig, World};
use rpki_roa::{RouteOrigin, Vrp};
use rpki_rov::{ChainConfig, FrozenVrpIndex, SnapshotChainEngine, ValidationState, VrpIndex};

fn linear_validate(vrps: &[Vrp], route: &RouteOrigin) -> ValidationState {
    if vrps.iter().any(|v| v.matches(route)) {
        ValidationState::Valid
    } else if vrps.iter().any(|v| v.covers(route)) {
        ValidationState::Invalid
    } else {
        ValidationState::NotFound
    }
}

fn bench_validation(c: &mut Criterion) {
    let world = World::generate(GeneratorConfig {
        scale: 0.05,
        ..GeneratorConfig::default()
    });
    let snap = world.snapshot(7);
    let vrps = snap.vrps();
    let index: VrpIndex = vrps.iter().copied().collect();
    // Validate a slice of the real table: mixed Valid/Invalid/NotFound.
    let routes: Vec<RouteOrigin> = snap.routes.iter().step_by(97).copied().collect();

    let mut group = c.benchmark_group("ablation/rov");
    group.throughput(Throughput::Elements(routes.len() as u64));
    group.bench_with_input(
        BenchmarkId::new("builder", vrps.len()),
        &routes,
        |b, routes| {
            b.iter(|| {
                routes
                    .iter()
                    .filter(|r| index.validate(r) == ValidationState::Valid)
                    .count()
            })
        },
    );
    group.bench_with_input(
        BenchmarkId::new("linear_scan", vrps.len()),
        &routes,
        |b, routes| {
            b.iter(|| {
                routes
                    .iter()
                    .filter(|r| linear_validate(&vrps, r) == ValidationState::Valid)
                    .count()
            })
        },
    );
    group.finish();
}

fn bench_table_validation(c: &mut Criterion) {
    // The tentpole comparison: the same whole-table validation on the
    // mutable builder, on the frozen snapshot, and on the frozen snapshot
    // with the parallel reduction — at two world scales.
    for scale in [0.05, 0.2] {
        let world = World::generate(GeneratorConfig {
            scale,
            ..GeneratorConfig::default()
        });
        let snap = world.snapshot(7);
        let vrps = snap.vrps();
        let index: VrpIndex = vrps.iter().copied().collect();
        let frozen = index.freeze();
        let routes: Vec<RouteOrigin> = snap.routes.clone();

        // All three engines must tally identically before we time them.
        let expect = index.validate_table(routes.iter());
        assert_eq!(frozen.validate_table(routes.iter()), expect);
        assert_eq!(frozen.validate_table_par(&routes), expect);

        let mut group = c.benchmark_group(format!("rov/validate_table/scale-{scale}"));
        group.throughput(Throughput::Elements(routes.len() as u64));
        group.bench_with_input(
            BenchmarkId::new("builder", routes.len()),
            &routes,
            |b, routes| b.iter(|| index.validate_table(routes.iter())),
        );
        group.bench_with_input(
            BenchmarkId::new("frozen", routes.len()),
            &routes,
            |b, routes| b.iter(|| frozen.validate_table(routes.iter())),
        );
        group.bench_with_input(
            BenchmarkId::new("frozen_parallel", routes.len()),
            &routes,
            |b, routes| b.iter(|| frozen.validate_table_par(routes)),
        );
        group.finish();
    }
}

fn bench_index_build(c: &mut Criterion) {
    let world = World::generate(GeneratorConfig {
        scale: 0.05,
        ..GeneratorConfig::default()
    });
    let vrps = world.snapshot(7).vrps();
    let mut group = c.benchmark_group("rov/index_build");
    group.throughput(Throughput::Elements(vrps.len() as u64));
    group.bench_function(BenchmarkId::from_parameter(vrps.len()), |b| {
        b.iter(|| vrps.iter().copied().collect::<VrpIndex>())
    });
    group.finish();
}

fn bench_revalidation(c: &mut Criterion) {
    // RFC 6811 revalidation on VRP change: the chain engine's incremental
    // epoch (affected subtree only) vs what a router without the chain
    // does — freeze the new set and validate the whole table.
    let world = World::generate(GeneratorConfig {
        scale: 0.02,
        ..GeneratorConfig::default()
    });
    let snap = world.snapshot(7);
    let vrps = snap.vrps();
    let delta: Vrp = "10.0.0.0/8-24 => AS424242".parse().unwrap();
    let engine = || {
        SnapshotChainEngine::new(
            snap.routes.iter().copied(),
            vrps.iter().copied(),
            ChainConfig::default(),
        )
    };
    let mut after = engine();
    after.apply_epoch(&[delta], &[]);
    let after = after.current_vrps();

    let mut group = c.benchmark_group("ablation/revalidation");
    group.sample_size(20);
    group.bench_function(BenchmarkId::new("incremental", snap.routes.len()), |b| {
        b.iter_batched(
            engine,
            |mut engine| engine.apply_epoch(&[delta], &[]),
            criterion::BatchSize::LargeInput,
        )
    });
    group.bench_function(BenchmarkId::new("full_table", snap.routes.len()), |b| {
        b.iter(|| {
            let frozen: FrozenVrpIndex = after.iter().copied().collect();
            frozen.validate_table(snap.routes.iter())
        })
    });
    group.finish();
}

criterion_group!(
    benches,
    bench_validation,
    bench_table_validation,
    bench_index_build,
    bench_revalidation
);
criterion_main!(benches);
