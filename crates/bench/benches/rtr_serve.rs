//! The fan-out service bench: one churn timeline served to a fleet of
//! concurrent RTR sessions through `rtr::server::FanoutServer`.
//!
//! Phase A (untimed, correctness): `MAXLENGTH_SESSIONS` routers (default
//! 1024) synchronize against one cache, then follow every epoch of a
//! seeded churn timeline — notify, serial query, delta — with bytes and
//! wall time recorded per epoch. Before anything is timed, every
//! router's final VRP set must be **bit-identical** to an independent
//! `CacheServer` replay of the same timeline (the model-checked oracle)
//! and to the timeline's own final set.
//!
//! Phase B (timed, gated): one epoch of fan-out + fleet catch-up under
//! the shared-image server versus the per-session baseline that
//! re-serializes the delta response for every router. Shared
//! serialization must stay ≥2x — that is the point of building the
//! images once per epoch.
//!
//! ```sh
//! MAXLENGTH_SESSIONS=4096 cargo bench -p rpki-bench --bench rtr_serve
//! ```

use std::time::Instant;

use criterion::{criterion_group, criterion_main, Criterion, Throughput};

use rpki_bench::harness::{record_bench_json, usize_from_env};
use rpki_datasets::{ChurnConfig, ChurnGenerator, ChurnProfile, GeneratorConfig, World};
use rpki_roa::Vrp;
use rpki_rtr::cache::CacheServer;
use rpki_rtr::pdu::{Pdu, PROTOCOL_V1};
use rpki_rtr::server::{FanoutServer, SessionId};
use rpki_rtr::wire::decode_frame;
use rpki_rtr::RouterClient;

const SESSION: u16 = 77;

fn world_vrps(scale: f64) -> Vec<Vrp> {
    World::generate(GeneratorConfig {
        scale,
        ..GeneratorConfig::default()
    })
    .snapshot(7)
    .vrps()
}

fn encode(pdu: &Pdu) -> Vec<u8> {
    let mut out = Vec::new();
    pdu.as_wire().encode_into(PROTOCOL_V1, &mut out);
    out
}

/// One fleet member: a fan-out session id, the router state machine,
/// and its private cache→router byte pipe.
struct Member {
    id: SessionId,
    router: RouterClient,
    pipe: Vec<u8>,
}

/// Feeds every complete in-flight frame to the member's router;
/// returns `true` once an End of Data completed a response.
fn absorb(member: &mut Member) -> bool {
    let mut synced = false;
    loop {
        let Some(frame) = decode_frame(&member.pipe).expect("server output must decode") else {
            return synced;
        };
        let pdu = frame.pdu.to_owned();
        let len = frame.len;
        member.pipe.drain(..len);
        synced = member
            .router
            .handle(&pdu)
            .expect("server output must be valid");
    }
}

/// Runs one synchronization (one outstanding query at a time, like a
/// real router) and returns the bytes moved in both directions.
fn synchronize(server: &mut FanoutServer, member: &mut Member) -> usize {
    let mut bytes = 0usize;
    for _round in 0..8 {
        bytes += server.drain_output(member.id, &mut member.pipe);
        absorb(member);
        let query = encode(&member.router.query());
        bytes += query.len();
        server.receive(member.id, &query);
        bytes += server.drain_output(member.id, &mut member.pipe);
        if absorb(member) {
            return bytes;
        }
    }
    panic!("router did not converge within the retry budget");
}

fn bench_rtr_serve(c: &mut Criterion) {
    let sessions = usize_from_env("MAXLENGTH_SESSIONS", 1024);
    let epochs = usize_from_env("MAXLENGTH_EPOCHS", 8);
    let initial = world_vrps(0.02);
    let timeline = ChurnGenerator::new(
        initial.iter().copied(),
        ChurnConfig {
            epochs,
            events_per_epoch: 64,
            profile: ChurnProfile::Mixed,
            ..ChurnConfig::default()
        },
    )
    .generate();

    // ---- Phase A: fan the timeline out, bytes + time per epoch. -------
    let mut server = FanoutServer::new(CacheServer::new(SESSION, &timeline.initial));
    let mut fleet: Vec<Member> = (0..sessions)
        .map(|_| Member {
            id: server.open_session(),
            router: RouterClient::new(),
            pipe: Vec::new(),
        })
        .collect();
    for member in &mut fleet {
        synchronize(&mut server, member);
    }
    println!(
        "rtr_serve: {} sessions over {} initial VRPs, {} epochs x 64 events",
        sessions,
        timeline.initial.len(),
        timeline.epochs.len()
    );
    println!(" epoch      bytes        ms");
    let mut epoch_bytes = Vec::with_capacity(timeline.epochs.len());
    let mut epoch_ns = Vec::with_capacity(timeline.epochs.len());
    for (e, epoch) in timeline.epochs.iter().enumerate() {
        let t0 = Instant::now();
        server.update_delta_and_notify(&epoch.announced, &epoch.withdrawn);
        let mut bytes = 0usize;
        for member in &mut fleet {
            bytes += synchronize(&mut server, member);
        }
        let dt = t0.elapsed();
        println!("{e:>6} {bytes:>10} {:>9.2}", dt.as_secs_f64() * 1e3);
        epoch_bytes.push(bytes as f64);
        epoch_ns.push(dt.as_secs_f64() * 1e9);
    }

    // ---- The oracle gate: every router == independent cache replay. ----
    let mut oracle = CacheServer::new(SESSION, &timeline.initial);
    for epoch in &timeline.epochs {
        let _ = oracle.update_delta(&epoch.announced, &epoch.withdrawn);
    }
    let expect: Vec<Vrp> = oracle.vrps().copied().collect();
    assert_eq!(
        expect,
        timeline.final_vrps(),
        "oracle replay must land on the timeline's final set"
    );
    for (i, member) in fleet.iter().enumerate() {
        let got: Vec<Vrp> = member.router.vrps().iter().collect();
        assert_eq!(got, expect, "router {i} final VRP set != oracle");
        assert_eq!(member.router.serial(), oracle.serial(), "router {i} serial");
    }
    let stats = server.stats();
    assert!(
        stats.images_reused >= 10 * stats.images_built.max(1),
        "fan-out must share images, not rebuild them: built {} reused {}",
        stats.images_built,
        stats.images_reused
    );
    println!(
        "oracle: {} routers bit-identical to the CacheServer replay \
         (images built {}, reused {})",
        sessions, stats.images_built, stats.images_reused
    );

    // ---- Phase B: shared-image fan-out vs per-session serialization. ---
    // A synthetic 64-record block toggles in and out so every timed
    // epoch carries the same clean delta shape on both sides.
    let block: Vec<Vrp> = (0..64u32)
        .map(|i| {
            format!("203.0.{}.0/24 => AS{}", i, 64900 + i)
                .parse()
                .unwrap()
        })
        .collect();
    let mut group = c.benchmark_group("rtr_serve");
    group.throughput(Throughput::Elements(sessions as u64));
    group.sample_size(10);
    let mut shared_ns = 0.0f64;
    let mut per_session_ns = 0.0f64;
    let mut scratch: Vec<u8> = Vec::new();
    let mut announce = true;
    group.bench_function("shared", |b| {
        b.iter(|| {
            if announce {
                server.update_delta_and_notify(&block, &[]);
            } else {
                server.update_delta_and_notify(&[], &block);
            }
            announce = !announce;
            let query = encode(&Pdu::SerialQuery {
                session_id: SESSION,
                serial: server.cache().serial().wrapping_sub(1),
            });
            scratch.clear();
            for member in &fleet {
                server.receive(member.id, &query);
                server.drain_output(member.id, &mut scratch);
            }
            scratch.len()
        });
        shared_ns = b.mean_ns();
    });
    let mut baseline = oracle.clone();
    let mut announce = true;
    group.bench_function("per_session", |b| {
        b.iter(|| {
            if announce {
                let _ = baseline.update_delta(&block, &[]);
            } else {
                let _ = baseline.update_delta(&[], &block);
            }
            announce = !announce;
            let query = Pdu::SerialQuery {
                session_id: SESSION,
                serial: baseline.serial().wrapping_sub(1),
            };
            scratch.clear();
            for _ in 0..sessions {
                // No sharing: every session re-walks the history and
                // re-encodes its own copy of the response.
                for pdu in baseline.handle(&query) {
                    pdu.as_wire().encode_into(PROTOCOL_V1, &mut scratch);
                }
            }
            scratch.len()
        });
        per_session_ns = b.mean_ns();
    });
    group.finish();

    let mean = |xs: &[f64]| xs.iter().sum::<f64>() / xs.len().max(1) as f64;
    record_bench_json("rtr_serve/shared", sessions as f64, shared_ns);
    record_bench_json("rtr_serve/per_session", sessions as f64, per_session_ns);
    record_bench_json(
        "rtr_serve/bytes-per-epoch",
        sessions as f64,
        mean(&epoch_bytes),
    );
    record_bench_json("rtr_serve/ns-per-epoch", sessions as f64, mean(&epoch_ns));
    let speedup = per_session_ns / shared_ns;
    println!(
        "rtr_serve: shared {:.2} ms/epoch, per-session {:.2} ms/epoch -> {speedup:.2}x",
        shared_ns / 1e6,
        per_session_ns / 1e6,
    );
    assert!(
        speedup >= 2.0,
        "shared serialization regressed below 2x the per-session baseline: {speedup:.2}x"
    );
}

criterion_group!(benches, bench_rtr_serve);
criterion_main!(benches);
