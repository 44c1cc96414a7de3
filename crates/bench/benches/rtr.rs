//! Benches for the rpki-rtr channel of Figure 1: PDU codec throughput,
//! the zero-copy cursor decoder on an adversarial and an ordinary
//! stream (recorded to the JSON trail), and the serial-diff vs
//! full-reset ablation (how much the incremental protocol saves as the
//! VRP set churns).

use bytes::{Bytes, BytesMut};
use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion, Throughput};

use rpki_bench::harness::record_bench_json;
use rpki_datasets::{GeneratorConfig, World};
use rpki_roa::Vrp;
use rpki_rtr::cache::CacheServer;
use rpki_rtr::pdu::{ErrorCode, Pdu};
use rpki_rtr::wire;

fn vrps(scale: f64) -> Vec<Vrp> {
    World::generate(GeneratorConfig {
        scale,
        ..GeneratorConfig::default()
    })
    .snapshot(7)
    .vrps()
}

fn bench_codec(c: &mut Criterion) {
    let set = vrps(0.02);
    let cache = CacheServer::new(1, &set);
    let pdus = cache.handle(&Pdu::ResetQuery);
    let mut encoded = BytesMut::new();
    for p in &pdus {
        p.encode(&mut encoded);
    }
    let encoded = encoded.freeze();

    let mut group = c.benchmark_group("rtr/codec");
    group.throughput(Throughput::Bytes(encoded.len() as u64));
    group.bench_function(BenchmarkId::new("encode", pdus.len()), |b| {
        b.iter(|| {
            let mut buf = BytesMut::with_capacity(encoded.len());
            for p in &pdus {
                p.encode(&mut buf);
            }
            buf
        })
    });
    group.bench_function(BenchmarkId::new("decode", pdus.len()), |b| {
        b.iter(|| {
            let mut view: &[u8] = &encoded;
            let mut n = 0usize;
            while let Some((_, used)) = Pdu::decode(view).expect("valid stream") {
                n += 1;
                view = &view[used..];
            }
            n
        })
    });
    group.finish();
}

/// Decodes a whole stream with the zero-copy wire layer, touching each
/// frame so the borrow is not optimized away.
fn decode_stream_wire(mut view: &[u8]) -> usize {
    let mut n = 0usize;
    while let Some(frame) = wire::decode_frame(view).expect("valid stream") {
        n += frame.pdu.type_code() as usize;
        view = &view[frame.len..];
    }
    n
}

/// The zero-copy decoder on two stream shapes: the adversarial
/// Error-Report-heavy stream (embedded PDU and diagnostic text are
/// borrowed, not allocated) and the ordinary prefix-sync stream.
fn bench_codec_differential(c: &mut Criterion) {
    // ~512 Error Reports with a realistic embedded PDU and a chunky
    // diagnostic — the robustness-path traffic a hostile router feeds a
    // cache.
    let embedded = Pdu::Prefix {
        flags: rpki_rtr::pdu::Flags::Announce,
        vrp: Vrp::new("192.0.2.0/24".parse().unwrap(), 24, rpki_roa::Asn(64500)),
    }
    .to_bytes();
    let mut reports = BytesMut::new();
    for i in 0..512u32 {
        Pdu::ErrorReport {
            code: ErrorCode::CorruptData,
            pdu: Bytes::from(embedded.to_vec()),
            text: format!("corrupt frame #{i}: {}", "x".repeat(160)),
        }
        .encode(&mut reports);
    }
    let reports = reports.freeze();

    let set = vrps(0.02);
    let cache = CacheServer::new(1, &set);
    let mut prefixes = BytesMut::new();
    for p in cache.handle(&Pdu::ResetQuery) {
        p.encode(&mut prefixes);
    }
    let prefixes = prefixes.freeze();

    let mut group = c.benchmark_group("rtr/codec_differential");
    for (label, stream, scale) in [
        ("error_reports", &reports, 512.0),
        ("prefixes", &prefixes, set.len() as f64),
    ] {
        group.throughput(Throughput::Bytes(stream.len() as u64));
        group.bench_function(BenchmarkId::new("wire", label), |b| {
            b.iter(|| decode_stream_wire(stream));
            record_bench_json(&format!("rtr/codec/{label}/wire"), scale, b.mean_ns());
        });
    }
    group.finish();
}

/// Ablation: with `churn` of the set changing, compare the bytes a router
/// must process for a serial (delta) sync vs a full reset.
fn bench_delta_vs_reset(c: &mut Criterion) {
    let initial = vrps(0.02);
    let mut group = c.benchmark_group("ablation/rtr_sync");
    for churn_pct in [1usize, 10, 50] {
        let mut updated = initial.clone();
        let n_changed = updated.len() * churn_pct / 100;
        updated.truncate(updated.len() - n_changed); // withdrawals
        let mut cache = CacheServer::new(1, &initial);
        cache.update(&updated);

        group.bench_with_input(
            BenchmarkId::new("serial_delta", churn_pct),
            &cache,
            |b, cache| {
                b.iter(|| {
                    cache.handle(&Pdu::SerialQuery {
                        session_id: 1,
                        serial: 0,
                    })
                })
            },
        );
        group.bench_with_input(
            BenchmarkId::new("full_reset", churn_pct),
            &cache,
            |b, cache| b.iter(|| cache.handle(&Pdu::ResetQuery)),
        );
    }
    group.finish();
}

criterion_group!(
    benches,
    bench_codec,
    bench_codec_differential,
    bench_delta_vs_reset
);
criterion_main!(benches);
