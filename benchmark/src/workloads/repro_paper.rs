//! `repro_paper`: the whole reproduction pipeline at paper scale, from
//! sealed ROA files on disk to the census-weighted risk figure.
//!
//! One pass = scan the ROA directory → VRPs → index the BGP table →
//! build and freeze the VRP index → validate the table → census →
//! minimalize → compress (status quo, minimal, full deployment) →
//! Table 1 → bounds → RTR cache → sans-io Reset sync of 8 routers →
//! small scenario grid + risk → report text. Closed loop, one client.

use std::io::Write as _;
use std::path::{Path, PathBuf};
use std::time::Instant;

use bgpsim::ScenarioMatrix;
use maxlength_core::bounds::{full_deployment_minimal, max_permissive_lower_bound};
use maxlength_core::compress::compress_roas_parallel;
use maxlength_core::minimal::minimalize_vrps_par;
use maxlength_core::vulnerability::{assess_risk, MaxLengthCensus};
use maxlength_core::{BgpTable, Table1};
use rpki_datasets::{GeneratorConfig, World};
use rpki_roa::envelope::seal_roa;
use rpki_roa::scan::scan_dir_parallel;
use rpki_roa::{RouteOrigin, Vrp};
use rpki_rov::VrpIndex;
use rpki_rtr::cache::CacheServer;
use rpki_rtr::server::FanoutServer;
use rpki_rtr::RouterClient;

use crate::frames::{encode_query, Pipe};
use crate::run::{check_golden, repeat_setup, timed_rounds, wall_and_cpu, Ctx, Measured};
use crate::stats::median;
use crate::trace::{totals_by_name, Tracer};

const RTR_SESSION: u16 = 2017;
const ROUTERS: usize = 8;
/// Set-ups per run; `setup_s` is their median.
const SETUP_REPEATS: usize = 3;

/// Everything a pass reads, prepared by set-up.
struct Inputs {
    repo: PathBuf,
    routes: Vec<RouteOrigin>,
    roa_files: usize,
    roa_bytes: u64,
    threads: usize,
    seed: u64,
    scale: f64,
}

/// What a pass produced that the checks look at.
struct PassOutput {
    report: String,
    files: usize,
    rejected: usize,
    routers_ok: bool,
}

/// Publishes the ROAs as one sealed `.roa` file each, overwriting in
/// place whatever a previous run left under the same names.
///
/// The directory is kept between runs on purpose. Creating 7,499 small
/// files costs 0.1 s on an idle filesystem but 2–4 s once earlier runs'
/// deletions are still being discarded by the (thin-provisioned) disk,
/// which made set-up time a measure of the disk's recent history.
/// Overwriting existing files allocates and frees nothing and takes
/// 0.1 s every time.
fn write_roas(repo: &Path, roas: &[rpki_roa::Roa]) -> std::io::Result<u64> {
    let mut bytes = 0u64;
    // 256 files per directory keeps directory listings short, as a
    // publication point's per-CA layout does.
    for (i, roa) in roas.iter().enumerate() {
        if i % 256 == 0 {
            std::fs::create_dir_all(repo.join(format!("ca{:03}", i / 256)))?;
        }
        let sealed = seal_roa(roa);
        bytes += sealed.len() as u64;
        let mut file = std::fs::OpenOptions::new()
            .write(true)
            .create(true)
            .truncate(false)
            .open(repo.join(format!("ca{:03}/{i:05}.roa", i / 256)))?;
        file.write_all(&sealed)?;
        file.set_len(sealed.len() as u64)?;
    }
    Ok(bytes)
}

/// Synchronizes `ROUTERS` fresh routers against `cache` through the
/// sans-io fan-out core; returns whether each ended on exactly `expect`.
fn reset_sync_routers(cache: CacheServer, expect: &[Vrp]) -> (bool, u32) {
    let mut server = FanoutServer::new(cache);
    let mut ok = true;
    let mut pipe = Pipe::default();
    let mut query = Vec::new();
    for _ in 0..ROUTERS {
        let id = server.open_session();
        let mut router = RouterClient::new();
        encode_query(&router.query(), &mut query);
        server.receive(id, &query);
        server.drain_output(id, pipe.buffer());
        let mut done = false;
        while let Some(pdu) = pipe.next_pdu().expect("cache output decodes") {
            done = router.handle(&pdu).expect("cache output is valid");
        }
        pipe.reclaim();
        ok &= done && router.vrps().iter().eq(expect.iter());
        server.close_session(id);
    }
    (ok, server.cache().serial())
}

fn one_pass(inputs: &Inputs, tr: &mut Tracer) -> PassOutput {
    let threads = inputs.threads;
    let pass = tr.open("bench.pass");

    let scan = tr
        .span("roa.scan.scan_dir_s", || {
            scan_dir_parallel(&inputs.repo, threads)
        })
        .expect("ROA directory is readable");
    let vrps = tr.span("roa.scan.vrps_s", || scan.vrps());
    let bgp: BgpTable = tr.span("core.bgp.index_s", || inputs.routes.iter().collect());
    let index: VrpIndex = tr.span("rov.index.build_s", || vrps.iter().copied().collect());
    let frozen = tr.span("rov.index.freeze_s", || index.freeze());
    let summary = tr.span("rov.frozen.validate_table_s", || {
        frozen.validate_table_par(&inputs.routes)
    });
    let census = tr.span("core.vulnerability.census_s", || {
        MaxLengthCensus::analyze_par(&vrps, &bgp)
    });
    let minimal = tr.span("core.minimal.minimalize_s", || {
        minimalize_vrps_par(&vrps, &bgp)
    });
    let compressed = tr.span("core.compress.status_quo_s", || {
        compress_roas_parallel(&vrps, threads)
    });
    let minimal_compressed = tr.span("core.compress.minimal_s", || {
        compress_roas_parallel(&minimal, threads)
    });
    let full = tr.span("core.bounds.full_deployment_s", || {
        full_deployment_minimal(&bgp)
    });
    let full_compressed = tr.span("core.compress.full_deployment_s", || {
        compress_roas_parallel(&full, threads)
    });
    let table = tr.span("core.scenarios.table1_s", || {
        Table1::compute_par(&vrps, &bgp, threads)
    });
    let bound = tr.span("core.bounds.lower_bound_s", || {
        max_permissive_lower_bound(&bgp)
    });
    let cache = tr.span("rtr.cache.new_s", || {
        CacheServer::new(RTR_SESSION, &compressed)
    });
    let mut served = compressed.clone();
    served.sort_unstable();
    served.dedup();
    let (routers_ok, serial) = tr.span("rtr.server.reset_sync_8_s", || {
        reset_sync_routers(cache, &served)
    });
    let grid = tr.span("bgpsim.matrix.small_grid_s", || {
        ScenarioMatrix::small(inputs.seed).run_par()
    });
    let risk = tr.span("core.vulnerability.assess_risk_s", || {
        assess_risk(&census, &grid)
    });

    let report = format!(
        "repro_paper · seed {} · scale {}\n\
         dataset: {} ROAs, {} tuples, {} BGP pairs\n\
         scan: {} files accepted, {} rejected\n\
         validation: {summary}\n\
         census: {} tuples, {} use maxLength, {} vulnerable, {} non-minimal\n\
         minimalization: {} tuples, {} after compress_roas\n\
         status quo: {} -> {} after compress_roas\n\
         full deployment: {} pairs -> {} after compress_roas, lower bound {}\n\
         \n{table}\n\
         rtr: {ROUTERS} routers reset-synchronized to serial {serial}, {} VRPs each\n\
         \n{}\n{}",
        inputs.seed,
        inputs.scale,
        scan.roas.len(),
        vrps.len(),
        bgp.len(),
        scan.roas.len(),
        scan.rejected.len(),
        census.total,
        census.max_len_using,
        census.vulnerable,
        census.non_minimal_total,
        minimal.len(),
        minimal_compressed.len(),
        vrps.len(),
        compressed.len(),
        full.len(),
        full_compressed.len(),
        bound.len(),
        served.len(),
        grid.render(),
        risk.render(),
    );
    tr.close(pass);
    PassOutput {
        report,
        files: scan.roas.len() + scan.rejected.len(),
        rejected: scan.rejected.len(),
        routers_ok,
    }
}

/// Runs the workload.
pub fn run(ctx: &Ctx) -> Measured {
    let mut m = Measured::default();
    let scale = if ctx.quick { 0.02 } else { 1.0 };

    // ---- Set-up: generate the world, seal and write the ROA files. ----
    let out = ctx.bench_dir.join("out");
    let ((inputs, generate_s, seal_write_s), setup_s) = repeat_setup(
        SETUP_REPEATS,
        || {
            let t = Instant::now();
            let world = World::generate(GeneratorConfig {
                seed: ctx.seed,
                scale,
                ..GeneratorConfig::default()
            });
            let snap = world.snapshot(world.config.weeks - 1);
            let generate_s = t.elapsed().as_secs_f64();
            // One directory per ROA count: runs at the same scale share
            // it (the count depends on the scale alone), runs at another
            // scale cannot leave stale files in it.
            let repo = out.join(format!("roas-{}", snap.roas.len()));
            let t = Instant::now();
            let roa_bytes = write_roas(&repo, &snap.roas).expect("ROA files are writable");
            let seal_write_s = t.elapsed().as_secs_f64();
            let inputs = Inputs {
                repo,
                routes: snap.routes,
                roa_files: snap.roas.len(),
                roa_bytes,
                threads: ctx.threads,
                seed: ctx.seed,
                scale,
            };
            (inputs, generate_s, seal_write_s)
        },
        drop,
    );
    m.setup_s = setup_s;
    m.files_on_tmpfs = crate::sys::on_tmpfs(&inputs.repo);

    // ---- Warm-up pass, discarded (its report is the reference). -------
    let mut off = Tracer::new(false);
    let reference = one_pass(&inputs, &mut off);
    m.check(reference.rejected == 0, || {
        format!("roa.scan.rejected = {} (must be 0)", reference.rejected)
    });
    m.check(reference.files == inputs.roa_files, || {
        format!(
            "scanned {} files, published {}",
            reference.files, inputs.roa_files
        )
    });
    m.check(reference.routers_ok, || {
        "a reset-synchronized router did not end on the cache's exact set".into()
    });
    if ctx.golden_applies() {
        if let Err(e) = check_golden(ctx, "repro_paper.txt", &reference.report) {
            m.errors.push(e);
        }
    }

    // ---- Timed region. ---------------------------------------------------
    let mut tr = Tracer::new(ctx.trace);
    let mut failed = 0u64;
    let (rounds, wall_s, cpu_s) = wall_and_cpu(|| {
        timed_rounds(ctx.seconds, ctx.min_rounds(), |i| {
            tr.set_pass(i as u32);
            let tracer = if ctx.traces_round(i) {
                &mut tr
            } else {
                &mut off
            };
            let out = one_pass(&inputs, tracer);
            if out.report != reference.report || out.rejected != 0 || !out.routers_ok {
                failed += 1;
            }
        })
    });
    m.attempted = rounds.len() as u64;
    m.failed = failed;
    m.check(failed == 0, || {
        format!("{failed} passes produced a different report than the warm-up pass")
    });
    m.record_rounds(ctx, rounds);
    m.wall_s = wall_s;
    m.cpu_s = cpu_s;

    // ---- Per-layer metrics from the traced passes. -------------------------
    if ctx.trace {
        let totals = totals_by_name(tr.spans());
        let per_pass_s = |name: &str| -> f64 {
            totals
                .get(name)
                .map_or(0.0, |t| median(&t.durations_ns) / 1e9)
        };
        for name in [
            "roa.scan.scan_dir_s",
            "roa.scan.vrps_s",
            "core.bgp.index_s",
            "rov.index.build_s",
            "rov.index.freeze_s",
            "rov.frozen.validate_table_s",
            "core.vulnerability.census_s",
            "core.minimal.minimalize_s",
            "core.compress.status_quo_s",
            "core.compress.minimal_s",
            "core.bounds.full_deployment_s",
            "core.compress.full_deployment_s",
            "core.scenarios.table1_s",
            "core.bounds.lower_bound_s",
            "core.vulnerability.assess_risk_s",
            "rtr.cache.new_s",
            "rtr.server.reset_sync_8_s",
            "bgpsim.matrix.small_grid_s",
        ] {
            m.layer(name, per_pass_s(name));
        }
        m.layer("roa.scan.files", inputs.roa_files as f64);
        m.layer("roa.scan.rejected", reference.rejected as f64);
        m.layer("roa.scan.bytes_read", inputs.roa_bytes as f64);
        m.layer(
            "rov.frozen.routes_per_s",
            inputs.routes.len() as f64 / per_pass_s("rov.frozen.validate_table_s"),
        );
        m.layer(
            "core.compress.tuples_per_s",
            inputs.routes.len() as f64 / per_pass_s("core.compress.full_deployment_s"),
        );
        m.layer("datasets.world.generate_s", generate_s);
        m.layer("roa.envelope.seal_write_s", seal_write_s);
        // The pass span's self time is what no layer span covers: the
        // report text and the driver's own glue.
        let pass_total = totals["bench.pass"].total_ns as f64;
        m.layer(
            "bench.unattributed_share",
            totals["bench.pass"].self_ns as f64 / pass_total,
        );
        let layer_share = |prefixes: &[&str]| -> f64 {
            totals
                .iter()
                .filter(|(name, _)| prefixes.iter().any(|p| name.starts_with(p)))
                .map(|(_, t)| t.self_ns as f64)
                .sum::<f64>()
                / pass_total
        };
        m.layer(
            "bench.share.roa_rov_core",
            layer_share(&["roa.", "rov.", "core."]),
        );
        m.layer("bench.share.bgpsim", layer_share(&["bgpsim."]));
        m.layer("bench.share.rtr", layer_share(&["rtr."]));
        m.spans = tr.into_spans();
    }
    m
}
