//! `rtr_fleet_delta`: steady-state fan-out of small deltas to a large
//! fleet, entirely in memory.
//!
//! A sans-io `FanoutServer` serves 1,024 `RouterClient` sessions on one
//! thread (no sockets). One round = one churn epoch: the cache takes the
//! delta and notifies, then every router in turn answers the notify with
//! a Serial Query, reads the delta and reaches End of Data. The round's
//! duration is notify → last router converged. Closed loop: the next
//! epoch starts after the whole fleet converged and the witness router's
//! delta went through `SnapshotChainEngine::apply_epoch`.

use std::time::Instant;

use rpki_datasets::{
    ChurnConfig, ChurnGenerator, ChurnProfile, ChurnTimeline, GeneratorConfig, World,
};
use rpki_roa::Vrp;
use rpki_rov::{ChainConfig, FrozenVrpIndex, SnapshotChainEngine};
use rpki_rtr::cache::CacheServer;
use rpki_rtr::pdu::{Flags, Pdu};
use rpki_rtr::server::{FanoutServer, SessionId};
use rpki_rtr::RouterClient;

use crate::frames::{encode_query, Pipe};
use crate::run::{Ctx, Measured};
use crate::stats::{median, supported_tail};
use crate::trace::{totals_by_name, Tracer};

const RTR_SESSION: u16 = 77;
/// Exchanges one catch-up may take before it counts as failed.
const MAX_ROUNDS: usize = 4;
/// In a traced epoch, one router in this many has its catch-up traced
/// (a different eighth each epoch). A span costs about half a
/// microsecond here — the clock read serializes a memory-bound loop — and
/// eight spans on each of 1,024 catch-ups would slow the epoch by 7 %.
const TRACE_ONE_IN: usize = 8;

struct Member {
    id: SessionId,
    router: RouterClient,
    pipe: Pipe,
}

/// Buffers reused across catch-ups, and the driver's own counters.
#[derive(Default)]
struct Scratch {
    query: Vec<u8>,
    pdus: Vec<Pdu>,
    bytes_out: u64,
    pdus_seen: u64,
    reset_fallbacks: u64,
    extra_rounds: u64,
}

/// Reads everything the server queued for `member` and feeds it to the
/// router; `Ok(true)` once an End of Data completed a response.
fn absorb(
    server: &mut FanoutServer,
    member: &mut Member,
    scratch: &mut Scratch,
    tr: &mut Tracer,
) -> Result<bool, String> {
    let moved = tr.span("rtr.server.drain_us", || {
        server.drain_output(member.id, member.pipe.buffer())
    });
    scratch.bytes_out += moved as u64;
    scratch.pdus.clear();
    let decoded = tr.span("rtr.wire.decode_us", || {
        member.pipe.decode_all(&mut scratch.pdus)
    });
    member.pipe.reclaim();
    scratch.pdus_seen += decoded.map_err(|e| format!("server output does not decode: {e}"))? as u64;
    let router = &mut member.router;
    let pdus = &scratch.pdus;
    tr.span("rtr.client.handle_us", || {
        let mut done = false;
        for pdu in pdus {
            done = router
                .handle(pdu)
                .map_err(|e| format!("router rejected server output: {e}"))?;
        }
        Ok(done)
    })
}

/// One router catch-up: pick up the notify, query, read the response;
/// a Cache Reset answer is followed by a Reset Query.
fn catch_up(
    server: &mut FanoutServer,
    member: &mut Member,
    scratch: &mut Scratch,
    tr: &mut Tracer,
) -> Result<(), String> {
    absorb(server, member, scratch, tr)?;
    for round in 0..MAX_ROUNDS {
        let query = member.router.query();
        if round > 0 {
            scratch.extra_rounds += 1;
            if query == Pdu::ResetQuery {
                scratch.reset_fallbacks += 1;
            }
        }
        tr.span("rtr.wire.encode_query_ns", || {
            encode_query(&query, &mut scratch.query)
        });
        tr.span("rtr.server.receive_us", || {
            server.receive(member.id, &scratch.query)
        });
        if absorb(server, member, scratch, tr)? {
            return Ok(());
        }
    }
    Err(format!(
        "router did not converge within {MAX_ROUNDS} exchanges"
    ))
}

/// The delta a router just read, taken from the PDUs of its response.
fn wire_delta(pdus: &[Pdu]) -> (Vec<Vrp>, Vec<Vrp>) {
    let mut announced = Vec::new();
    let mut withdrawn = Vec::new();
    for pdu in pdus {
        if let Pdu::Prefix { flags, vrp } = pdu {
            match flags {
                Flags::Announce => announced.push(*vrp),
                Flags::Withdraw => withdrawn.push(*vrp),
            }
        }
    }
    (announced, withdrawn)
}

struct Fleet {
    /// Stands in for the tracer on catch-ups that are not sampled.
    off: Tracer,
    server: FanoutServer,
    members: Vec<Member>,
    witness: SnapshotChainEngine,
    scratch: Scratch,
    failed: u64,
    errors: Vec<String>,
}

impl Fleet {
    /// Runs epoch `e`; returns notify → last router converged, seconds.
    fn epoch(&mut self, timeline: &ChurnTimeline, e: usize, tr: &mut Tracer) -> f64 {
        let epoch = &timeline.epochs[e];
        tr.set_pass(e as u32);
        let span = tr.open("bench.epoch");
        let t0 = Instant::now();
        let server = &mut self.server;
        tr.span("rtr.server.update_notify_us", || {
            server.update_delta_and_notify(&epoch.announced, &epoch.withdrawn)
        });
        let mut witness_delta = None;
        for (i, member) in self.members.iter_mut().enumerate() {
            let sampled = i % TRACE_ONE_IN == e % TRACE_ONE_IN;
            let tracer = if sampled { &mut *tr } else { &mut self.off };
            let span = tracer.open("bench.catch_up");
            let caught_up = catch_up(&mut self.server, member, &mut self.scratch, tracer);
            tracer.close(span);
            if let Err(e) = caught_up {
                self.failed += 1;
                if self.errors.len() < 4 {
                    self.errors.push(format!("router {i}: {e}"));
                }
            }
            if i == 0 {
                witness_delta = Some(wire_delta(&self.scratch.pdus));
            }
        }
        let converged = t0.elapsed().as_secs_f64();
        let (announced, withdrawn) = witness_delta.expect("fleet is not empty");
        let witness = &mut self.witness;
        tr.span("rov.chain.apply_epoch_us", || {
            witness.apply_epoch(&announced, &withdrawn)
        });
        tr.close(span);
        converged
    }
}

/// Runs the workload.
pub fn run(ctx: &Ctx) -> Measured {
    let mut m = Measured::default();
    let (scale, sessions, epochs, warmup) = if ctx.quick {
        (0.02, 64, 16, 2)
    } else {
        (0.25, 1024, 320, 8)
    };

    // ---- Set-up: world, timeline, server, fleet, initial sync. ---------
    let setup = Instant::now();
    let snap = World::generate(GeneratorConfig {
        seed: ctx.seed,
        scale,
        ..GeneratorConfig::default()
    })
    .snapshot(7);
    let timeline = ChurnGenerator::new(
        snap.vrps(),
        ChurnConfig {
            seed: ctx.seed,
            epochs,
            events_per_epoch: 64,
            profile: ChurnProfile::Mixed,
            ..ChurnConfig::default()
        },
    )
    .generate();
    let mut server = FanoutServer::new(CacheServer::new(RTR_SESSION, &timeline.initial));
    let mut members: Vec<Member> = (0..sessions)
        .map(|_| Member {
            id: server.open_session(),
            router: RouterClient::new(),
            pipe: Pipe::default(),
        })
        .collect();
    let mut off = Tracer::new(false);
    let mut scratch = Scratch::default();
    let t = Instant::now();
    for member in &mut members {
        catch_up(&mut server, member, &mut scratch, &mut off).expect("initial sync");
    }
    let initial_sync_s = t.elapsed().as_secs_f64();
    let witness = SnapshotChainEngine::new(
        snap.routes.iter().copied(),
        timeline.initial.iter().copied(),
        ChainConfig::default(),
    );
    m.setup_s = setup.elapsed().as_secs_f64();
    let mut fleet = Fleet {
        off: Tracer::new(false),
        server,
        members,
        witness,
        scratch: Scratch::default(),
        failed: 0,
        errors: Vec::new(),
    };

    // ---- Warm-up epochs, discarded. -------------------------------------
    let mut next = 0usize;
    while next < warmup {
        fleet.epoch(&timeline, next, &mut off);
        next += 1;
    }
    fleet.scratch = Scratch::default();
    let warmup_failed = std::mem::take(&mut fleet.failed);

    // ---- Timed region: epochs until the time is up. --------------------------
    let mut tr = Tracer::new(ctx.trace);
    let mut rounds = Vec::new();
    let cpu0 = crate::sys::cpu_seconds();
    let region = Instant::now();
    while next < epochs
        && (rounds.len() < ctx.min_rounds() || region.elapsed().as_secs_f64() < ctx.seconds)
    {
        let tracer = if ctx.traces_round(rounds.len()) {
            &mut tr
        } else {
            &mut off
        };
        rounds.push(fleet.epoch(&timeline, next, tracer));
        next += 1;
    }
    m.wall_s = region.elapsed().as_secs_f64();
    m.cpu_s = crate::sys::cpu_seconds() - cpu0;
    m.attempted = (rounds.len() * sessions) as u64;
    m.failed = fleet.failed;
    m.record_rounds(ctx, rounds);

    // ---- Output checks. ---------------------------------------------------
    m.check(warmup_failed + fleet.failed == 0, || {
        format!("router catch-ups failed: {}", fleet.errors.join("; "))
    });
    let expect = timeline.vrps_at(next - 1);
    let mut oracle = CacheServer::new(RTR_SESSION, &timeline.initial);
    for epoch in &timeline.epochs[..next] {
        let _ = oracle.update_delta(&epoch.announced, &epoch.withdrawn);
    }
    m.check(oracle.vrps().eq(expect.iter()), || {
        "independent CacheServer replay != timeline set".into()
    });
    let wrong = fleet
        .members
        .iter()
        .filter(|mb| {
            !mb.router.vrps().iter().eq(expect.iter()) || mb.router.serial() != oracle.serial()
        })
        .count();
    m.check(wrong == 0, || {
        format!("{wrong} routers ended on a different set or serial than the oracle")
    });
    let frozen: FrozenVrpIndex = expect.iter().copied().collect();
    let states = fleet.witness.states();
    let diverged = states
        .iter()
        .filter(|(route, state)| frozen.validate(route) != *state)
        .count();
    m.check(states.len() == snap.routes.len() && diverged == 0, || {
        format!("witness chain: {diverged} route states differ from a fresh frozen index")
    });
    let stats = fleet.server.stats();
    m.check(stats.overflow_drops == 0 && stats.teardowns == 0, || {
        format!(
            "overflow_drops {} / teardowns {} (both must be 0)",
            stats.overflow_drops, stats.teardowns
        )
    });

    // ---- Per-layer metrics. -----------------------------------------------
    if ctx.trace {
        let totals = totals_by_name(tr.spans());
        let traced_epochs = m.traced_round_s.len() as f64;
        let all_epochs = traced_epochs + m.round_s.len() as f64;
        let sampled = totals["bench.catch_up"].calls as f64;
        let per_epoch_us = |name: &str| {
            totals
                .get(name)
                .map_or(0.0, |t| median(&t.durations_ns) / 1e3)
        };
        // Mean over the sampled catch-ups (a catch-up makes several
        // calls into some layers; they are summed, not averaged).
        let per_catch_up_ns = |name: &str| {
            totals
                .get(name)
                .map_or(0.0, |t| t.total_ns as f64 / sampled)
        };
        m.layer(
            "rtr.server.update_notify_us",
            per_epoch_us("rtr.server.update_notify_us"),
        );
        for name in [
            "rtr.server.receive_us",
            "rtr.server.drain_us",
            "rtr.wire.decode_us",
            "rtr.client.handle_us",
        ] {
            m.layer(name, per_catch_up_ns(name) / 1e3);
        }
        m.layer(
            "rtr.wire.encode_query_ns",
            per_catch_up_ns("rtr.wire.encode_query_ns"),
        );
        m.layer(
            "rov.chain.apply_epoch_us",
            per_epoch_us("rov.chain.apply_epoch_us"),
        );
        m.layer(
            "rov.chain.refreezes",
            fleet.witness.summary().refreezes as f64,
        );
        m.layer("rtr.server.images_built", stats.images_built as f64);
        m.layer("rtr.server.images_reused", stats.images_reused as f64);
        m.layer(
            "rtr.server.image_reuse_ratio",
            stats.images_reused as f64 / (stats.images_built + stats.images_reused).max(1) as f64,
        );
        m.layer("rtr.server.notifies", stats.notifies as f64);
        m.layer("rtr.server.overflow_drops", stats.overflow_drops as f64);
        m.layer("rtr.server.teardowns", stats.teardowns as f64);
        let counts = &fleet.scratch;
        m.layer(
            "rtr.server.bytes_out_per_epoch",
            counts.bytes_out as f64 / all_epochs,
        );
        m.layer(
            "rtr.wire.pdus_per_epoch",
            counts.pdus_seen as f64 / all_epochs,
        );
        m.layer("rtr.client.reset_fallbacks", counts.reset_fallbacks as f64);
        m.layer("rtr.client.extra_rounds", counts.extra_rounds as f64);
        // The driver's own cost: what a catch-up spends outside any layer.
        let catch_up = &totals["bench.catch_up"];
        let driver_share = catch_up.self_ns as f64 / catch_up.total_ns as f64;
        m.layer("bench.driver_share", driver_share);
        // An epoch is one cache update, the fleet's catch-ups and the
        // witness's apply; the catch-ups split as the sampled ones do.
        let epoch_ns = totals["bench.epoch"].total_ns as f64;
        let update_ns = totals["rtr.server.update_notify_us"].total_ns as f64;
        let apply_ns = totals["rov.chain.apply_epoch_us"].total_ns as f64;
        let catch_ups_ns = epoch_ns - update_ns - apply_ns;
        m.layer(
            "bench.share.rtr",
            (update_ns + catch_ups_ns * (1.0 - driver_share)) / epoch_ns,
        );
        m.layer("bench.share.roa_rov_core", apply_ns / epoch_ns);
        m.layer("rtr.fleet.initial_sync_s", initial_sync_s);
        // The tail this many epochs support, over the untraced and the
        // traced epochs together (half a run alone is under 100 samples).
        let all_rounds: Vec<f64> = m.round_s.iter().chain(&m.traced_round_s).copied().collect();
        let (tail_pct, tail_s) = supported_tail(&all_rounds);
        m.layer("rtr.fleet.epoch_converge_tail_ms", tail_s * 1e3);
        m.layer("rtr.fleet.epoch_converge_tail_pct", tail_pct);
        m.spans = tr.into_spans();
    }
    m
}
