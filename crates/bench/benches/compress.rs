//! Criterion benches for `compress_roas` (§7.2) and the compression
//! ablations called out in DESIGN.md:
//!
//! 1. the sorted stack sweep (Algorithm 1) vs the naive quadratic fixpoint;
//! 2. Algorithm 1 vs the domination-eliminating `compress_roas_full`;
//! 3. sorted vs shuffled input order (the output must be the same; this
//!    measures the sorted copy that unsorted input costs).

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion, Throughput};

use maxlength_core::bounds::full_deployment_minimal;
use maxlength_core::compress::{
    compress_roas, compress_roas_full, compress_roas_naive, compress_roas_parallel,
};
use maxlength_core::BgpTable;
use rpki_datasets::{GeneratorConfig, World};
use rpki_roa::Vrp;

fn dataset(scale: f64) -> (Vec<Vrp>, BgpTable) {
    let world = World::generate(GeneratorConfig {
        scale,
        ..GeneratorConfig::default()
    });
    let snap = world.snapshot(7);
    (snap.vrps(), snap.routes.iter().collect())
}

fn bench_compress_scaling(c: &mut Criterion) {
    let mut group = c.benchmark_group("compress_roas/today");
    for scale in [0.01, 0.05, 0.25] {
        let (vrps, _) = dataset(scale);
        group.throughput(Throughput::Elements(vrps.len() as u64));
        group.bench_with_input(BenchmarkId::from_parameter(vrps.len()), &vrps, |b, vrps| {
            b.iter(|| compress_roas(vrps))
        });
    }
    group.finish();
}

fn bench_compress_full_deployment(c: &mut Criterion) {
    let mut group = c.benchmark_group("compress_roas/full_deployment");
    group.sample_size(10);
    for scale in [0.05, 0.25] {
        let (_, bgp) = dataset(scale);
        let full = full_deployment_minimal(&bgp);
        group.throughput(Throughput::Elements(full.len() as u64));
        group.bench_with_input(BenchmarkId::from_parameter(full.len()), &full, |b, full| {
            b.iter(|| compress_roas(full))
        });
    }
    group.finish();
}

fn bench_ablation_naive(c: &mut Criterion) {
    // The naive oracle is quadratic: keep it tiny.
    let (vrps, _) = dataset(0.003);
    let mut group = c.benchmark_group("ablation/algorithm");
    group.throughput(Throughput::Elements(vrps.len() as u64));
    group.bench_function("sorted_sweep", |b| b.iter(|| compress_roas(&vrps)));
    group.bench_function("naive_fixpoint", |b| b.iter(|| compress_roas_naive(&vrps)));
    group.bench_function("full_with_domination", |b| {
        b.iter(|| compress_roas_full(&vrps))
    });
    group.finish();
}

fn bench_ablation_input_order(c: &mut Criterion) {
    let (mut vrps, _) = dataset(0.05);
    let mut group = c.benchmark_group("ablation/input_order");
    vrps.sort_unstable();
    group.bench_function("sorted", {
        let vrps = vrps.clone();
        move |b| b.iter(|| compress_roas(&vrps))
    });
    // Deterministic shuffle.
    let mut state = 0x9E3779B97F4A7C15u64;
    for i in (1..vrps.len()).rev() {
        state = state
            .wrapping_mul(6364136223846793005)
            .wrapping_add(1442695040888963407);
        vrps.swap(i, (state % (i as u64 + 1)) as usize);
    }
    group.bench_function("shuffled", move |b| b.iter(|| compress_roas(&vrps)));
    group.finish();
}

fn bench_ablation_parallel(c: &mut Criterion) {
    // §7.2's suggested optimization: parallelize across the independent
    // per-(ASN, AFI) tries (here: runs of whole origins in the sorted array).
    let (_, bgp) = dataset(0.25);
    let full = maxlength_core::bounds::full_deployment_minimal(&bgp);
    let mut group = c.benchmark_group("ablation/parallel_compress");
    group.sample_size(10);
    group.throughput(Throughput::Elements(full.len() as u64));
    group.bench_function("serial", |b| b.iter(|| compress_roas(&full)));
    for threads in [2usize, 4, 8] {
        group.bench_with_input(
            BenchmarkId::new("threads", threads),
            &threads,
            |b, &threads| b.iter(|| compress_roas_parallel(&full, threads)),
        );
    }
    group.finish();
}

criterion_group!(
    benches,
    bench_compress_scaling,
    bench_compress_full_deployment,
    bench_ablation_naive,
    bench_ablation_input_order,
    bench_ablation_parallel
);
criterion_main!(benches);
