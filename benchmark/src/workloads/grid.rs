//! The two trial-executor workloads. They share every line of driver
//! code and differ only in the plan:
//!
//! * `attack_grid` — the scenario matrix users run: two topologies
//!   (n = 5,000 and 10,000), six strategies, four deployments, three ROA
//!   configurations, 250 trials per cell. Almost every footprint check
//!   replays, so executor bookkeeping matters as much as propagation.
//! * `internet_trials` — one 80,000-AS internet topology, two strategies,
//!   one deployment, two ROA configurations, 192 sampled destinations.
//!   One deployment means zero replays: every item is a full propagation.
//!
//! One round = one `Executor::parallel` pass over the plan. Closed loop,
//! one client; the executor fans out over `RAYON_NUM_THREADS` workers.

use std::cell::RefCell;
use std::hint::black_box;
use std::time::Instant;

use bgpsim::routing::Seed;
use bgpsim::{
    Accumulator, AttackKind, AttackOutcome, AttackerStrategy, CellAccumulator, CompiledPolicies,
    DeploymentModel, DestinationSampler, ExecStats, Executor, FilterFootprint, InternetConfig,
    OriginFilter, PlanTopology, PropagationEngine, RoaConfig, RouteLeak, ScenarioMatrix, Topology,
    TopologyFamily, TrialPlan, Workspace,
};
use rpki_roa::Asn;

use crate::run::{check_golden, fnv1a64, repeat_setup, timed_rounds, wall_and_cpu, Ctx, Measured};
use crate::stats::median;
use crate::trace::{totals_by_name, Tracer};

/// The matrix's per-cell fold plus the range of per-trial tallies, so
/// the run can check that every trial accounted for every AS.
#[derive(Debug, Clone, PartialEq)]
struct TallyAcc {
    cell: CellAccumulator,
    min_total: usize,
    max_total: usize,
}

impl Accumulator for TallyAcc {
    type Output = bgpsim::CellStats;

    fn empty() -> TallyAcc {
        TallyAcc {
            cell: CellAccumulator::empty(),
            min_total: usize::MAX,
            max_total: 0,
        }
    }

    fn absorb(&mut self, o: &AttackOutcome) {
        self.cell.absorb(o);
        let total = o.intercepted + o.legitimate + o.disconnected;
        self.min_total = self.min_total.min(total);
        self.max_total = self.max_total.max(total);
    }

    fn finish(&self) -> bgpsim::CellStats {
        self.cell.finish()
    }

    fn encode(&self, out: &mut String) {
        self.cell.encode(out);
        out.push_str(&format!("/{:x}/{:x}", self.min_total, self.max_total));
    }

    fn decode(s: &str) -> Option<TallyAcc> {
        let mut parts = s.split('/');
        let cell = CellAccumulator::decode(parts.next()?)?;
        let min_total = usize::from_str_radix(parts.next()?, 16).ok()?;
        let max_total = usize::from_str_radix(parts.next()?, 16).ok()?;
        parts.next().is_none().then_some(TallyAcc {
            cell,
            min_total,
            max_total,
        })
    }
}

/// Set-ups per run; `setup_s` is their median. Generation takes
/// milliseconds at n = 10,000, so one sample would be mostly noise.
const SETUP_REPEATS: usize = 5;

/// What set-up cost: topology generation is all of it.
struct SetupCost {
    generate_s: f64,
    topology_bytes: usize,
}

fn digest(accs: &[TallyAcc]) -> u64 {
    let mut text = String::new();
    for acc in accs {
        acc.encode(&mut text);
        text.push('\n');
    }
    fnv1a64(text.as_bytes())
}

/// The checks every executor pass must satisfy.
fn check_pass(plan: &TrialPlan<'_>, accs: &[TallyAcc], stats: &ExecStats, m: &mut Measured) {
    m.check(stats.items == plan.item_count(), || {
        format!("items {} != plan items {}", stats.items, plan.item_count())
    });
    m.check(stats.executed + stats.cells_replayed == stats.items, || {
        format!(
            "executed {} + cells_replayed {} != items {}",
            stats.executed, stats.cells_replayed, stats.items
        )
    });
    m.check(
        stats.cells_replayed + stats.cells_repropagated == stats.footprint_checks,
        || "replayed + re-propagated cells != footprint checks".into(),
    );
    for (cell, acc) in accs.iter().enumerate() {
        let (ti, ..) = plan.cell_axes(cell);
        let want = plan.topologies[ti].topology.len() - 2;
        m.check(acc.min_total == want && acc.max_total == want, || {
            format!(
                "cell {cell}: trial tallies cover {}..={} ASes, expected {want}",
                acc.min_total, acc.max_total
            )
        });
    }
}

/// Direct calls into the engine on trials drawn from `plan`.
struct Probes {
    propagate_us: f64,
    propagate_ns_per_as: f64,
    footprint_validate_ns: f64,
    compile_policies_ms: f64,
    policies_ms: f64,
    filter_build_ns: f64,
    workspace_bytes: usize,
}

const PROBE_TRIALS: usize = 24;
const PROBE_REPEATS: u32 = 64;

fn probe(plan: &TrialPlan<'_>, tr: &mut Tracer) -> Probes {
    // Propagation cost scales with the topology, so it is a median per
    // topology, then the mean over topologies; the rest are plain medians.
    let mut propagate_us = Vec::new();
    let mut per_as = Vec::new();
    let mut validate_ns = Vec::new();
    let mut compile_ms = Vec::new();
    let mut policies_ms = Vec::new();
    let mut filter_ns = Vec::new();
    let mut ws = Workspace::new();
    let footprint = RefCell::new(FilterFootprint::new());
    let span = tr.open("bgpsim.engine.probes");
    for (ti, pt) in plan.topologies.iter().enumerate() {
        let topology = pt.topology;
        let n = topology.len();
        let engine = PropagationEngine::new(topology);
        let mut this_us = Vec::new();
        let mut this_per_as = Vec::new();
        let compiled: Vec<CompiledPolicies> = plan
            .deployments
            .iter()
            .map(|d| {
                let t = Instant::now();
                let policies = d.policies(topology, plan.seed);
                policies_ms.push(t.elapsed().as_secs_f64() * 1e3);
                let t = Instant::now();
                let compiled = CompiledPolicies::compile(&policies);
                compile_ms.push(t.elapsed().as_secs_f64() * 1e3);
                compiled
            })
            .collect();
        for trial in 0..PROBE_TRIALS.min(plan.trials) {
            let (victim, attacker) = plan.trial_endpoints(ti, trial);
            let victim_asn = topology.asn(victim);
            let max_len = plan.sub_prefix.len();

            // The canonical full-cost propagation: victim and forged
            // announcement compete for the same prefix under a loose
            // ROA, so the filter is transparent and every AS settles.
            let loose = RoaConfig::NonMinimalMaxLen.vrps(plan.victim_prefix, max_len, victim_asn);
            let t = Instant::now();
            for _ in 0..PROBE_REPEATS {
                black_box(OriginFilter::new(
                    black_box(&loose),
                    plan.victim_prefix,
                    &[victim_asn],
                    &compiled[0],
                ));
            }
            filter_ns.push(t.elapsed().as_nanos() as f64 / f64::from(PROBE_REPEATS));
            let filter = OriginFilter::new(&loose, plan.victim_prefix, &[victim_asn], &compiled[0]);
            let seeds = [
                Seed::origin(victim, victim_asn),
                Seed::forged(attacker, victim_asn),
            ];
            let t = Instant::now();
            let outcome = engine.propagate_outcome(
                &seeds,
                &|at: usize, o: Asn| filter.accept(at, o),
                &mut ws,
                None,
                attacker,
                victim,
            );
            let dt = t.elapsed();
            black_box(outcome);
            this_us.push(dt.as_secs_f64() * 1e6);
            this_per_as.push(dt.as_nanos() as f64 / n as f64);

            // A footprint worth validating: under the minimal ROA the
            // forged subprefix announcement is Invalid, so every AS it
            // is offered to consults the adopter bitset.
            let minimal = RoaConfig::Minimal.vrps(plan.victim_prefix, max_len, victim_asn);
            let strict = OriginFilter::new(&minimal, plan.sub_prefix, &[victim_asn], &compiled[0]);
            footprint.borrow_mut().begin(n);
            black_box(engine.propagate_outcome(
                &[Seed::forged(attacker, victim_asn)],
                &|at: usize, o: Asn| {
                    let accepted = strict.accept(at, o);
                    if strict.origin_is_invalid(o) {
                        footprint.borrow_mut().note(at, accepted);
                    }
                    accepted
                },
                &mut ws,
                None,
                attacker,
                victim,
            ));
            let recorded = footprint.borrow();
            let t = Instant::now();
            let mut calls = 0u32;
            for _ in 0..PROBE_REPEATS {
                for adopters in &compiled {
                    black_box(black_box(&*recorded).validates(adopters));
                    calls += 1;
                }
            }
            validate_ns.push(t.elapsed().as_nanos() as f64 / f64::from(calls));
        }
        propagate_us.push(median(&this_us));
        per_as.push(median(&this_per_as));
    }
    tr.close(span);
    let mean = |xs: &[f64]| xs.iter().sum::<f64>() / xs.len() as f64;
    Probes {
        propagate_us: mean(&propagate_us),
        propagate_ns_per_as: mean(&per_as),
        footprint_validate_ns: median(&validate_ns),
        compile_policies_ms: median(&compile_ms),
        policies_ms: median(&policies_ms),
        filter_build_ns: median(&filter_ns),
        workspace_bytes: ws.memory_bytes(),
    }
}

/// Measures `plan`; `small` is the same plan restricted to a few trials,
/// cheap enough to run sequentially on every invocation.
fn measure(
    ctx: &Ctx,
    name: &'static str,
    plan: &TrialPlan<'_>,
    small: &TrialPlan<'_>,
    setup: SetupCost,
) -> Measured {
    let mut m = Measured {
        setup_s: setup.generate_s,
        ..Measured::default()
    };

    let mut off = Tracer::new(false);

    // ---- Warm-up and differential oracle: the restricted plan, run
    // sequentially and in parallel, must fold to the same accumulators.
    let (seq_small, seq_small_stats) = Executor::sequential().run_with_stats::<TallyAcc>(small);
    let (par_small, par_small_stats) = Executor::parallel().run_with_stats::<TallyAcc>(small);
    m.check(
        seq_small == par_small && seq_small_stats == par_small_stats,
        || "sequential and parallel executors disagree on the restricted plan".into(),
    );
    check_pass(small, &par_small, &par_small_stats, &mut m);

    // ---- Timed region. ---------------------------------------------------
    let mut tr = Tracer::new(ctx.trace);
    let mut first: Option<(Vec<TallyAcc>, ExecStats)> = None;
    let mut failed = 0u64;
    let mut traced_cpu_s = Vec::new();
    let (rounds, wall_s, cpu_s) = wall_and_cpu(|| {
        timed_rounds(ctx.seconds, ctx.min_rounds(), |i| {
            tr.set_pass(i as u32);
            let tracer = if ctx.traces_round(i) {
                &mut tr
            } else {
                &mut off
            };
            let span = tracer.open("bench.pass");
            let (got, _, cpu) = wall_and_cpu(|| {
                tracer.span("bgpsim.exec.run_par_s", || {
                    Executor::parallel().run_with_stats::<TallyAcc>(plan)
                })
            });
            tracer.close(span);
            if ctx.traces_round(i) {
                traced_cpu_s.push(cpu);
            }
            match &first {
                None => first = Some(got),
                Some(reference) => {
                    if *reference != got {
                        failed += plan.item_count() as u64;
                    }
                }
            }
        })
    });
    let (accs, stats) = first.expect("at least one pass ran");
    check_pass(plan, &accs, &stats, &mut m);
    m.check(failed == 0, || {
        "passes of one run folded to different grids".into()
    });
    m.attempted = (rounds.len() * plan.item_count()) as u64;
    m.failed = failed;
    m.record_rounds(ctx, rounds);
    m.wall_s = wall_s;
    m.cpu_s = cpu_s;

    let golden = format!(
        "{name} · seed {}\n\
         cells {} · trials/cell {} · items {}\n\
         executed {} · footprint_checks {} · cells_replayed {} · cells_repropagated {} · compilations {}\n\
         grid digest {:016x}\n",
        plan.seed,
        plan.cell_count(),
        plan.trials,
        stats.items,
        stats.executed,
        stats.footprint_checks,
        stats.cells_replayed,
        stats.cells_repropagated,
        stats.compilations,
        digest(&accs),
    );
    if ctx.golden_applies() {
        if let Err(e) = check_golden(ctx, &format!("{name}.txt"), &golden) {
            m.errors.push(e);
        }
    }

    // ---- Per-layer metrics: the plain baseline, then direct probes. --------
    if ctx.trace {
        // One sequential pass: the baseline the parallel executor is
        // compared with, and the full-size differential oracle.
        let t = Instant::now();
        let (seq, seq_stats) = tr.span("bgpsim.exec.run_seq_s", || {
            Executor::sequential().run_with_stats::<TallyAcc>(plan)
        });
        let seq_pass_s = t.elapsed().as_secs_f64();
        m.check(seq == accs && seq_stats == stats, || {
            "sequential and parallel executors disagree on the full plan".into()
        });
        let probes = probe(plan, &mut tr);

        let par_pass_s = median(&m.traced_round_s);
        m.layer("bgpsim.exec.items", stats.items as f64);
        m.layer("bgpsim.exec.executed", stats.executed as f64);
        m.layer(
            "bgpsim.exec.footprint_checks",
            stats.footprint_checks as f64,
        );
        m.layer("bgpsim.exec.cells_replayed", stats.cells_replayed as f64);
        m.layer(
            "bgpsim.exec.cells_repropagated",
            stats.cells_repropagated as f64,
        );
        m.layer("bgpsim.exec.compilations", stats.compilations as f64);
        m.layer(
            "bgpsim.exec.replay_ratio",
            if stats.footprint_checks == 0 {
                0.0
            } else {
                stats.cells_replayed as f64 / stats.footprint_checks as f64
            },
        );
        m.layer("bgpsim.engine.propagate_us", probes.propagate_us);
        m.layer(
            "bgpsim.engine.propagate_ns_per_as",
            probes.propagate_ns_per_as,
        );
        m.layer(
            "bgpsim.engine.footprint_validate_ns",
            probes.footprint_validate_ns,
        );
        m.layer(
            "bgpsim.engine.compile_policies_ms",
            probes.compile_policies_ms,
        );
        m.layer("bgpsim.deployment.policies_ms", probes.policies_ms);
        m.layer("bgpsim.engine.filter_build_ns", probes.filter_build_ns);
        let propagate_share =
            (stats.executed as f64 * probes.propagate_us / 1e6 / median(&traced_cpu_s)).min(1.0);
        m.layer("bgpsim.exec.propagate_share_est", propagate_share);
        m.layer("bgpsim.exec.overhead_share_est", 1.0 - propagate_share);
        m.layer("bgpsim.exec.seq_pass_s", seq_pass_s);
        m.layer("bgpsim.exec.par_speedup", seq_pass_s / par_pass_s);
        m.layer(
            "bgpsim.engine.workspace_bytes",
            probes.workspace_bytes as f64,
        );
        m.layer("bgpsim.topology.bytes", setup.topology_bytes as f64);
        m.layer("bgpsim.topology.generate_s", setup.generate_s);
        let totals = totals_by_name(tr.spans());
        m.layer(
            "bench.share.bgpsim",
            totals["bgpsim.exec.run_par_s"].total_ns as f64 / totals["bench.pass"].total_ns as f64,
        );
        m.spans = tr.into_spans();
    }
    m
}

/// `attack_grid`.
pub fn run_attack_grid(ctx: &Ctx) -> Measured {
    let (n, trials) = if ctx.quick {
        (2_000, 12)
    } else {
        (10_000, 250)
    };
    let matrix = |trials: usize| ScenarioMatrix {
        topologies: TopologyFamily::standard(n)
            .into_iter()
            .map(|family| {
                TopologyFamily::new(bgpsim::TopologyConfig {
                    seed: ctx.seed,
                    ..family.config
                })
            })
            .collect(),
        strategies: ScenarioMatrix::standard_strategies(),
        deployments: DeploymentModel::standard(),
        roas: RoaConfig::ALL.to_vec(),
        trials,
        seed: ctx.seed,
    };
    let full = matrix(trials);
    let restricted = matrix((trials / 10).max(4));
    let (topologies, generate_s) = repeat_setup(
        SETUP_REPEATS,
        || -> Vec<Topology> {
            full.topologies
                .iter()
                .map(|family| Topology::generate(family.config))
                .collect()
        },
        drop,
    );
    let setup = SetupCost {
        generate_s,
        topology_bytes: topologies.iter().map(Topology::memory_bytes).sum(),
    };
    measure(
        ctx,
        "attack_grid",
        &full.plan(&topologies),
        &restricted.plan(&topologies),
        setup,
    )
}

/// `internet_trials`.
pub fn run_internet_trials(ctx: &Ctx) -> Measured {
    let (n, destinations) = if ctx.quick {
        (2_000, 24)
    } else {
        (80_000, 192)
    };
    let (topology, generate_s) = repeat_setup(
        SETUP_REPEATS,
        || {
            Topology::generate_internet(InternetConfig {
                n,
                seed: ctx.seed,
                ..InternetConfig::default()
            })
        },
        drop,
    );
    let setup = SetupCost {
        generate_s,
        topology_bytes: topology.memory_bytes(),
    };
    let hijack = AttackKind::ForgedOriginSubprefixHijack;
    let leak = RouteLeak;
    let plan = |count: usize| {
        TrialPlan::new(
            vec![PlanTopology {
                label: format!("internet n={n}"),
                topology: &topology,
            }],
            vec![&hijack as &dyn AttackerStrategy, &leak],
            vec![DeploymentModel::Uniform { p: 0.75 }],
            vec![RoaConfig::NonMinimalMaxLen, RoaConfig::Minimal],
            count,
            ctx.seed,
        )
        .with_destination_sampler(&DestinationSampler {
            count,
            seed: ctx.seed,
        })
    };
    measure(
        ctx,
        "internet_trials",
        &plan(destinations),
        &plan((destinations / 12).max(4)),
        setup,
    )
}
