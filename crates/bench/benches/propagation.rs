//! Criterion ablation for the flat-graph propagation engine: the
//! zero-allocation bucket-queue engine vs the kept heap-based reference
//! (`propagate_reference`) on one staged hijack trial — and the
//! assertion, before any timing, that the two are **bit-identical** (the
//! contract `engine_props` pins down).
//!
//! Two filter regimes per topology size:
//!
//! * `accept-all` — isolates the structural speedup (CSR phase slices,
//!   bucket queue, reusable workspace vs per-call heap allocation);
//! * `rov-filtered` — the shape every staged trial actually runs: the
//!   engine side uses a precomputed [`OriginFilter`] (one VRP resolution
//!   per origin + a compiled adopter bitset), the reference side pays a
//!   `VrpIndex` validation per edge relaxation, exactly as `run_strategy` did
//!   before the engine landed.
//!
//! Set `MAXLENGTH_BENCH_JSON=path` to append machine-readable
//! `{"bench", "scale", "ns_per_iter"}` records for the PR perf trail.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion, Throughput};

use bgpsim::engine::{CompiledPolicies, OriginFilter};
use bgpsim::routing::{propagate_reference, Seed};
use bgpsim::topology::{Topology, TopologyConfig};
use bgpsim::{PropagationEngine, Workspace};
use rpki_bench::harness::record_bench_json;
use rpki_prefix::Prefix;
use rpki_roa::{Asn, RouteOrigin, Vrp};
use rpki_rov::{RovPolicy, VrpIndex};

struct Trial {
    topology: Topology,
    seeds: [Seed; 2],
    vrps: VrpIndex,
    policies: Vec<RovPolicy>,
    prefix: Prefix,
}

/// One staged forged-origin trial: victim origination plus a forged
/// announcement, under a loose-maxLength ROA with ~¾ ROV adoption.
fn trial(n: usize) -> Trial {
    let topology = Topology::generate(TopologyConfig {
        n,
        ..TopologyConfig::default()
    });
    let stubs = topology.stubs();
    let (victim, attacker) = (stubs[0], stubs[stubs.len() / 2]);
    let prefix: Prefix = "168.122.0.0/16".parse().unwrap();
    let vrps: VrpIndex = [Vrp::new(prefix, 24, topology.asn(victim))]
        .into_iter()
        .collect();
    let policies: Vec<RovPolicy> = (0..topology.len())
        .map(|at| {
            if at % 4 == 0 {
                RovPolicy::AcceptAll
            } else {
                RovPolicy::DropInvalid
            }
        })
        .collect();
    let seeds = [
        Seed::origin(victim, topology.asn(victim)),
        Seed::forged(attacker, topology.asn(victim)),
    ];
    Trial {
        topology,
        seeds,
        vrps,
        policies,
        prefix,
    }
}

fn bench_propagation(c: &mut Criterion) {
    for n in [1_000usize, 10_000] {
        let t = trial(n);
        let engine = PropagationEngine::new(&t.topology);
        let compiled = CompiledPolicies::compile(&t.policies);
        let origins = [t.seeds[0].claimed_origin];
        let fast_filter = OriginFilter::new(&t.vrps, t.prefix, &origins, &compiled);
        let edge_filter = |at: usize, origin: Asn| -> bool {
            t.policies[at].permits(t.vrps.validate(&RouteOrigin::new(t.prefix, origin)))
        };

        // Equivalence before speed: engine output must be bit-identical
        // to the reference under both filter regimes.
        let mut ws = Workspace::new();
        assert_eq!(
            engine
                .propagate(&t.seeds, &|_: usize, _: Asn| true, &mut ws)
                .routes()
                .to_vec(),
            propagate_reference(&t.topology, &t.seeds, &|_, _| true).routes(),
            "engine diverged from reference (accept-all, n={n})"
        );
        assert_eq!(
            engine
                .propagate(
                    &t.seeds,
                    &|at: usize, o: Asn| fast_filter.accept(at, o),
                    &mut ws
                )
                .routes()
                .to_vec(),
            propagate_reference(&t.topology, &t.seeds, &edge_filter).routes(),
            "engine diverged from reference (rov-filtered, n={n})"
        );

        let mut speedups: Vec<(String, f64)> = Vec::new();
        for (regime, engine_side, reference_side) in [
            (
                "accept-all",
                Box::new(|ws: &mut Workspace| {
                    engine.propagate(&t.seeds, &|_: usize, _: Asn| true, ws)
                }) as Box<dyn Fn(&mut Workspace) -> bgpsim::Propagation>,
                Box::new(|| propagate_reference(&t.topology, &t.seeds, &|_, _| true))
                    as Box<dyn Fn() -> bgpsim::Propagation>,
            ),
            (
                "rov-filtered",
                Box::new(|ws: &mut Workspace| {
                    engine.propagate(&t.seeds, &|at: usize, o: Asn| fast_filter.accept(at, o), ws)
                }),
                Box::new(|| propagate_reference(&t.topology, &t.seeds, &edge_filter)),
            ),
        ] {
            let mut group = c.benchmark_group(format!("propagation/{regime}/n-{n}"));
            group.throughput(Throughput::Elements(n as u64));
            let mut engine_ns = 0.0;
            let mut reference_ns = 0.0;
            group.bench_with_input(BenchmarkId::new("engine", n), &t, |b, _| {
                let mut ws = Workspace::new();
                b.iter(|| engine_side(&mut ws));
                engine_ns = b.mean_ns();
            });
            group.bench_with_input(BenchmarkId::new("reference", n), &t, |b, _| {
                b.iter(&reference_side);
                reference_ns = b.mean_ns();
            });
            group.finish();
            record_bench_json(&format!("propagation/{regime}/engine"), n as f64, engine_ns);
            record_bench_json(
                &format!("propagation/{regime}/reference"),
                n as f64,
                reference_ns,
            );
            speedups.push((regime.to_string(), reference_ns / engine_ns));
        }
        // The full-trial regime: what `run_strategy` actually runs per
        // staged head-to-head trial — the engine side propagates and
        // tallies interception in one pass off the workspace (no
        // materialized route vector), the reference side propagates with
        // per-edge validation and then scans the routes, exactly as the
        // trial loop did before the engine landed.
        let (victim, attacker) = (t.seeds[0].at, t.seeds[1].at);
        let engine_trial = |ws: &mut Workspace| {
            engine.propagate_outcome(
                &t.seeds,
                &|at: usize, o: Asn| fast_filter.accept(at, o),
                ws,
                None,
                attacker,
                victim,
            )
        };
        let reference_trial = || {
            let prop = propagate_reference(&t.topology, &t.seeds, &edge_filter);
            let mut intercepted = 0usize;
            let mut legitimate = 0usize;
            let mut disconnected = 0usize;
            for (at, route) in prop.routes().iter().enumerate() {
                if at == attacker || at == victim {
                    continue;
                }
                match route {
                    Some(info) if info.delivers_to == attacker => intercepted += 1,
                    Some(_) => legitimate += 1,
                    None => disconnected += 1,
                }
            }
            (intercepted, legitimate, disconnected)
        };
        {
            let outcome = engine_trial(&mut ws);
            assert_eq!(
                (
                    outcome.intercepted,
                    outcome.legitimate,
                    outcome.disconnected
                ),
                reference_trial(),
                "trial tally diverged (n={n})"
            );
            let mut group = c.benchmark_group(format!("propagation/trial/n-{n}"));
            group.throughput(Throughput::Elements(n as u64));
            let mut engine_ns = 0.0;
            let mut reference_ns = 0.0;
            group.bench_with_input(BenchmarkId::new("engine", n), &t, |b, _| {
                let mut ws = Workspace::new();
                b.iter(|| engine_trial(&mut ws));
                engine_ns = b.mean_ns();
            });
            group.bench_with_input(BenchmarkId::new("reference", n), &t, |b, _| {
                b.iter(reference_trial);
                reference_ns = b.mean_ns();
            });
            group.finish();
            record_bench_json("propagation/trial/engine", n as f64, engine_ns);
            record_bench_json("propagation/trial/reference", n as f64, reference_ns);
            speedups.push(("trial".to_string(), reference_ns / engine_ns));
        }

        for (regime, speedup) in &speedups {
            println!("propagation/{regime}/n-{n}: engine is {speedup:.1}x the reference");
        }
        // The trial regime is the production path; the issue's target is
        // ≥5x at the default topology scale (n = 1000).
        if n == 1_000 {
            let (_, trial_speedup) = speedups
                .iter()
                .find(|(regime, _)| regime == "trial")
                .expect("trial regime benched");
            assert!(
                *trial_speedup >= 5.0,
                "engine speedup regressed below 5x on the trial path: {trial_speedup:.1}x"
            );
        }
    }
}

criterion_group!(benches, bench_propagation);
criterion_main!(benches);
