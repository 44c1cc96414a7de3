//! `rtr_fleet_reset`: full-table Reset synchronizations over real
//! sockets, with cache updates interleaved.
//!
//! `TcpCacheServer::serve` runs on one thread, the driver on another,
//! with two loopback connections used round-robin and one request
//! outstanding. One round = `force_reset` + `RouterClient::synchronize`
//! (a ≈ 0.9 MB response at paper scale). Before every 50th sync the
//! cache takes one churn epoch through the server handle, so image
//! rebuilds and snapshot refreezes sit beside the reads. Closed loop,
//! one client, two connections. The traffic crosses the host's loopback
//! interface, not a link: link rate and wire latency are not measured.

use std::collections::BTreeSet;
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

use rpki_datasets::{
    ChurnConfig, ChurnGenerator, ChurnProfile, ChurnTimeline, GeneratorConfig, World,
};
use rpki_roa::Vrp;
use rpki_rtr::cache::CacheServer;
use rpki_rtr::pdu::{Flags, Pdu, PROTOCOL_V1};
use rpki_rtr::server::{FanoutServer, ServerHandle, TcpCacheServer};
use rpki_rtr::transport::{TcpTransport, TransportError};
use rpki_rtr::RouterClient;

use crate::frames::{encode_query, Pipe};
use crate::run::{repeat_setup, Ctx, Measured};
use crate::stats::{median, percentile};
use crate::trace::{totals_by_name, Tracer};

const RTR_SESSION: u16 = 8210;
const CONNECTIONS: usize = 2;
/// A churn epoch goes into the cache before every this-many-th sync.
const SYNCS_PER_UPDATE: usize = 50;
/// Every this-many-th sync compares the router's full set, not only its
/// size and serial.
const FULL_COMPARE_EVERY: usize = 64;
/// Reset syncs replayed without sockets in a traced run.
const SANS_IO_SYNCS: usize = 16;
/// Set-ups per run; `setup_s` is their median.
const SETUP_REPEATS: usize = 3;

struct Conn {
    transport: TcpTransport,
    router: RouterClient,
}

/// The driver's model of what the cache must be serving.
struct Expected {
    vrps: BTreeSet<Vrp>,
    serial: u32,
    payload_bytes: u64,
}

impl Expected {
    fn recount(&mut self) {
        self.payload_bytes = self
            .vrps
            .iter()
            .map(|&vrp| {
                Pdu::Prefix {
                    flags: Flags::Announce,
                    vrp,
                }
                .wire_len(PROTOCOL_V1) as u64
            })
            .sum();
    }
}

struct Loop<'a> {
    handle: &'a ServerHandle,
    conns: Vec<Conn>,
    expected: Expected,
    epochs: &'a [rpki_datasets::ChurnEpoch],
    next_epoch: usize,
    syncs: usize,
    failed: u64,
    errors: Vec<String>,
    update_ms: Vec<f64>,
    first_after_update_ms: Vec<f64>,
    payload_delivered: u64,
}

impl Loop<'_> {
    /// One round: maybe a cache update, then one reset sync. Returns
    /// the sync's duration in seconds.
    fn round(&mut self, tr: &mut Tracer) -> f64 {
        tr.set_pass(self.syncs as u32);
        let span = tr.open("bench.round");
        let mut after_update = false;
        if self.syncs.is_multiple_of(SYNCS_PER_UPDATE) && self.next_epoch < self.epochs.len() {
            let epoch = &self.epochs[self.next_epoch];
            self.next_epoch += 1;
            let t = Instant::now();
            let handle = self.handle;
            tr.span("rtr.cache.update_delta_ms", || {
                handle.update_delta_and_notify(&epoch.announced, &epoch.withdrawn)
            });
            self.update_ms.push(t.elapsed().as_secs_f64() * 1e3);
            for vrp in &epoch.withdrawn {
                self.expected.vrps.remove(vrp);
            }
            self.expected.vrps.extend(epoch.announced.iter().copied());
            self.expected.serial = self.expected.serial.wrapping_add(1);
            self.expected.recount();
            after_update = true;
        }
        let conn = &mut self.conns[self.syncs % CONNECTIONS];
        let t = Instant::now();
        let result = tr.span("rtr.tcp.sync_ms", || {
            conn.router.force_reset();
            conn.router.synchronize(&mut conn.transport)
        });
        let dt = t.elapsed().as_secs_f64();
        if after_update {
            self.first_after_update_ms.push(dt * 1e3);
        }
        let router = &conn.router;
        let verdict = match result {
            Err(e) => Err(format!("synchronize failed: {e}")),
            Ok(()) if router.serial() != self.expected.serial => Err(format!(
                "serial {} != cache serial {}",
                router.serial(),
                self.expected.serial
            )),
            Ok(()) if router.vrps().len() != self.expected.vrps.len() => Err(format!(
                "{} VRPs != cache's {}",
                router.vrps().len(),
                self.expected.vrps.len()
            )),
            Ok(())
                if self.syncs.is_multiple_of(FULL_COMPARE_EVERY)
                    && *router.vrps() != self.expected.vrps =>
            {
                Err("full set differs from the cache's".into())
            }
            Ok(()) => Ok(()),
        };
        match verdict {
            Ok(()) => self.payload_delivered += self.expected.payload_bytes,
            Err(e) => {
                self.failed += 1;
                if self.errors.len() < 4 {
                    self.errors.push(format!("sync {}: {e}", self.syncs));
                }
            }
        }
        self.syncs += 1;
        tr.close(span);
        dt
    }
}

/// The same Reset sync without sockets, split at the layer boundaries
/// TCP hides. Returns per-sync totals in seconds.
fn sans_io_replay(cache: CacheServer, expect: &BTreeSet<Vrp>, tr: &mut Tracer) -> Vec<f64> {
    let mut server = FanoutServer::new(cache);
    let mut pipe = Pipe::default();
    let mut query = Vec::new();
    let mut pdus = Vec::new();
    let mut totals = Vec::new();
    for i in 0..SANS_IO_SYNCS {
        tr.set_pass(i as u32);
        let id = server.open_session();
        let mut router = RouterClient::new();
        let t = Instant::now();
        let span = tr.open("rtr.sansio.sync");
        encode_query(&router.query(), &mut query);
        tr.span("rtr.server.reset_receive_ms", || server.receive(id, &query));
        tr.span("rtr.server.reset_drain_ms", || {
            server.drain_output(id, pipe.buffer())
        });
        pdus.clear();
        tr.span("rtr.wire.decode_snapshot_ms", || pipe.decode_all(&mut pdus))
            .expect("cache output decodes");
        pipe.reclaim();
        tr.span("rtr.client.apply_snapshot_ms", || {
            for pdu in &pdus {
                router.handle(pdu).expect("cache output is valid");
            }
        });
        tr.close(span);
        totals.push(t.elapsed().as_secs_f64());
        assert!(router.vrps() == expect, "sans-io replay != cache set");
        server.close_session(id);
    }
    totals
}

/// Everything set-up builds: the serving thread, the connected and
/// initially synchronized routers, and the churn the run will apply.
struct Rig {
    handle: ServerHandle,
    serving: JoinHandle<Result<(), TransportError>>,
    conns: Vec<Conn>,
    timeline: ChurnTimeline,
    connect_ms: Vec<f64>,
}

impl Rig {
    fn set_up(ctx: &Ctx, scale: f64) -> Rig {
        let vrps = World::generate(GeneratorConfig {
            seed: ctx.seed,
            scale,
            ..GeneratorConfig::default()
        })
        .snapshot(7)
        .vrps();
        let timeline = ChurnGenerator::new(
            vrps,
            ChurnConfig {
                seed: ctx.seed,
                epochs: 64,
                events_per_epoch: 64,
                profile: ChurnProfile::Mixed,
                ..ChurnConfig::default()
            },
        )
        .generate();
        let server = TcpCacheServer::bind(
            "127.0.0.1:0".parse().expect("static address"),
            CacheServer::new(RTR_SESSION, &timeline.initial),
        )
        .expect("bind a loopback listener");
        let handle = server.handle();
        let serving = std::thread::spawn(move || server.serve());
        let mut connect_ms = Vec::new();
        let mut conns: Vec<Conn> = (0..CONNECTIONS)
            .map(|_| {
                let t = Instant::now();
                let transport =
                    TcpTransport::connect(handle.addr()).expect("connect over loopback");
                connect_ms.push(t.elapsed().as_secs_f64() * 1e3);
                Conn {
                    transport,
                    router: RouterClient::new(),
                }
            })
            .collect();
        assert!(handle.wait_for_sessions(CONNECTIONS, Duration::from_secs(10)));
        for conn in &mut conns {
            conn.router
                .synchronize(&mut conn.transport)
                .expect("initial sync");
        }
        Rig {
            handle,
            serving,
            conns,
            timeline,
            connect_ms,
        }
    }

    fn shut_down(self) -> Result<(), String> {
        shut_down(&self.handle, self.serving, self.conns)
    }
}

/// Closes the connections, stops the server and waits for its thread.
fn shut_down(
    handle: &ServerHandle,
    serving: JoinHandle<Result<(), TransportError>>,
    conns: Vec<Conn>,
) -> Result<(), String> {
    drop(conns);
    handle.shutdown();
    serving
        .join()
        .map_err(|_| "server thread panicked".to_string())?
        .map_err(|e| format!("server loop failed: {e}"))
}

/// Runs the workload.
pub fn run(ctx: &Ctx) -> Measured {
    let mut m = Measured {
        loopback: true,
        ..Measured::default()
    };
    let (scale, warmup) = if ctx.quick { (0.02, 2) } else { (1.0, 8) };

    // ---- Set-up: world, churn epochs, server thread, connections. -------
    let (rig, setup_s) = repeat_setup(
        SETUP_REPEATS,
        || Rig::set_up(ctx, scale),
        |rig| {
            rig.shut_down()
                .expect("a discarded set-up shuts down cleanly")
        },
    );
    m.setup_s = setup_s;
    let Rig {
        handle,
        serving,
        conns,
        timeline,
        connect_ms,
    } = rig;
    let mut expected = Expected {
        vrps: timeline.initial.iter().copied().collect(),
        serial: 0,
        payload_bytes: 0,
    };
    expected.recount();

    let mut lp = Loop {
        handle: &handle,
        conns,
        expected,
        epochs: &timeline.epochs,
        next_epoch: 0,
        syncs: 1, // the first timed sync is not an update sync
        failed: 0,
        errors: Vec::new(),
        update_ms: Vec::new(),
        first_after_update_ms: Vec::new(),
        payload_delivered: 0,
    };

    // ---- Warm-up syncs, discarded. ----------------------------------------
    let mut off = Tracer::new(false);
    for _ in 0..warmup {
        lp.round(&mut off);
    }
    let warmup_failed = std::mem::take(&mut lp.failed);
    lp.payload_delivered = 0;
    lp.update_ms.clear();
    lp.first_after_update_ms.clear();

    // ---- Timed region: syncs until the time is up. ----------------------------
    let mut tr = Tracer::new(ctx.trace);
    let mut rounds = Vec::new();
    let cpu0 = crate::sys::cpu_seconds();
    let region = Instant::now();
    while rounds.len() < ctx.min_rounds() || region.elapsed().as_secs_f64() < ctx.seconds {
        let tracer = if ctx.traces_round(rounds.len()) {
            &mut tr
        } else {
            &mut off
        };
        rounds.push(lp.round(tracer));
    }
    m.wall_s = region.elapsed().as_secs_f64();
    m.cpu_s = crate::sys::cpu_seconds() - cpu0;
    m.attempted = rounds.len() as u64;
    m.failed = lp.failed;
    m.record_rounds(ctx, rounds);
    let goodput_mb_s = lp.payload_delivered as f64 / 1e6 / m.wall_s;
    let payload_per_sync = lp.payload_delivered as f64 / (m.attempted - m.failed).max(1) as f64;

    // ---- The same sync without sockets, to split what TCP hides. -------------
    let mut sans_io = Vec::new();
    if ctx.trace {
        let cache = handle.with_cache(|cache| cache.clone());
        sans_io = sans_io_replay(cache, &lp.expected.vrps, &mut tr);
    }

    // ---- Shut the server down and wait for its thread. ----------------------
    let stats = handle.with_core(|core| core.stats());
    let Loop {
        conns,
        failed,
        errors,
        update_ms,
        first_after_update_ms,
        ..
    } = lp;
    let stopped = shut_down(&handle, serving, conns);
    m.check(stopped.is_ok(), || {
        format!("server loop failed: {stopped:?}")
    });
    m.check(warmup_failed + failed == 0, || {
        format!("reset syncs failed: {}", errors.join("; "))
    });
    m.check(stats.overflow_drops == 0 && stats.teardowns == 0, || {
        format!(
            "overflow_drops {} / teardowns {} (both must be 0)",
            stats.overflow_drops, stats.teardowns
        )
    });

    // ---- Per-layer metrics. -----------------------------------------------
    if ctx.trace {
        let totals = totals_by_name(tr.spans());
        let ms = |xs: &[f64]| if xs.is_empty() { 0.0 } else { median(xs) };
        let span_ms = |name: &str| {
            totals
                .get(name)
                .map_or(0.0, |t| median(&t.durations_ns) / 1e6)
        };
        let round_ms: Vec<f64> = m.round_s.iter().map(|s| s * 1e3).collect();
        m.layer("rtr.transport.connect_ms", ms(&connect_ms));
        m.layer("rtr.tcp.sync_p90_ms", percentile(&round_ms, 90.0));
        m.layer("rtr.tcp.sync_p99_ms", percentile(&round_ms, 99.0));
        m.layer("rtr.cache.update_delta_ms", ms(&update_ms));
        m.layer(
            "rtr.tcp.first_sync_after_update_ms",
            ms(&first_after_update_ms),
        );
        m.layer("rtr.server.payload_bytes_per_sync", payload_per_sync);
        m.layer("rtr.tcp.goodput_mb_s", goodput_mb_s);
        m.layer("rtr.server.images_built", stats.images_built as f64);
        m.layer("rtr.server.images_reused", stats.images_reused as f64);
        m.layer(
            "rtr.server.image_reuse_ratio",
            stats.images_reused as f64 / (stats.images_built + stats.images_reused).max(1) as f64,
        );
        m.layer("rtr.server.notifies", stats.notifies as f64);
        m.layer("rtr.server.overflow_drops", stats.overflow_drops as f64);
        m.layer("rtr.server.teardowns", stats.teardowns as f64);
        m.layer(
            "rtr.server.reset_drain_ms",
            span_ms("rtr.server.reset_drain_ms"),
        );
        m.layer(
            "rtr.server.reset_receive_ms",
            span_ms("rtr.server.reset_receive_ms"),
        );
        m.layer(
            "rtr.wire.decode_snapshot_ms",
            span_ms("rtr.wire.decode_snapshot_ms"),
        );
        m.layer(
            "rtr.client.apply_snapshot_ms",
            span_ms("rtr.client.apply_snapshot_ms"),
        );
        let sync_p50_ms = median(&round_ms);
        m.layer(
            "rtr.transport.loopback_overhead_ms",
            sync_p50_ms - median(&sans_io) * 1e3,
        );
        // What is left of a round is the driver's model of the cache set
        // and its output checks.
        let in_rtr: u64 = ["rtr.tcp.sync_ms", "rtr.cache.update_delta_ms"]
            .iter()
            .filter_map(|name| totals.get(name))
            .map(|t| t.total_ns)
            .sum();
        m.layer(
            "bench.share.rtr",
            in_rtr as f64 / totals["bench.round"].total_ns as f64,
        );
        m.spans = tr.into_spans();
    }
    m
}
