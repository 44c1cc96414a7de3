//! The two hot kernels of `maxlength_core` — `compress_roas*` and the
//! full-deployment bounds — pinned element by element.
//!
//! The golden fixtures carry only tuple *counts*. The hashes below were
//! captured from the level-indexed hash-map implementation these kernels
//! replaced (commit 3244e07), over the `Debug` text of every output
//! tuple on the generated world at scale 0.05, so any reordering, lost
//! tuple or changed maxLength shows up here even when the counts agree.

use maxlength_rpki::core::bounds::{full_deployment_minimal, max_permissive_lower_bound};
use maxlength_rpki::core::compress::{compress_roas, compress_roas_full};
use maxlength_rpki::core::{BgpTable, Table1};
use maxlength_rpki::datasets::{GeneratorConfig, World};
use maxlength_rpki::roa::{Asn, RouteOrigin, Vrp};

fn snapshot(scale: f64) -> (Vec<Vrp>, BgpTable) {
    let world = World::generate(GeneratorConfig {
        scale,
        ..GeneratorConfig::default()
    });
    let snap = world.snapshot(7);
    (snap.vrps(), snap.routes.iter().collect())
}

/// 64-bit FNV-1a over the `Debug` rendering of the whole list.
fn fnv1a(vrps: &[Vrp]) -> u64 {
    format!("{vrps:?}")
        .bytes()
        .fold(0xcbf2_9ce4_8422_2325, |h, b| {
            (h ^ u64::from(b)).wrapping_mul(0x0000_0100_0000_01b3)
        })
}

#[test]
fn kernel_outputs_match_hashes_captured_at_the_hash_map_implementation() {
    let (vrps, bgp) = snapshot(0.05);
    let full_compressed = compress_roas(&full_deployment_minimal(&bgp));
    let today_full = compress_roas_full(&vrps);
    let bound = max_permissive_lower_bound(&bgp);
    let got = [
        (full_compressed.len(), fnv1a(&full_compressed)),
        (today_full.len(), fnv1a(&today_full)),
        (bound.len(), fnv1a(&bound)),
    ];
    assert_eq!(
        got, PINNED,
        "(len, fnv1a) of [compress_roas(full), compress_roas_full(today), lower bound]"
    );
}

const PINNED: [(usize, u64); 3] = [
    (36_502, 12_637_384_371_867_321_924),
    (1_681, 8_064_703_444_954_394_903),
    (36_470, 7_055_597_520_410_756_353),
];

#[test]
fn table1_is_identical_for_every_thread_count() {
    let (vrps, bgp) = snapshot(0.01);
    let sequential = Table1::compute(&vrps, &bgp);
    for threads in [1, 2, 3] {
        assert_eq!(
            Table1::compute_par(&vrps, &bgp, threads),
            sequential,
            "{threads} threads"
        );
    }
}

/// `BgpTable` is its input sorted: every query answers like a scan of the
/// announcement list — here unsorted, with a duplicate, MOAS, both
/// families and both default routes.
#[test]
fn bgp_table_answers_like_a_scan_of_its_input() {
    let mut routes: Vec<RouteOrigin> = [
        "2001:db8::/32 => AS2",
        "10.0.0.0/8 => AS3",
        "10.1.0.0/16 => AS1",
        "10.0.0.0/8 => AS1",
        "::/0 => AS2",
        "10.1.2.0/24 => AS1",
        "10.1.0.0/16 => AS1",
        "0.0.0.0/0 => AS3",
        "2001:db8:1::/48 => AS2",
        "10.1.2.3/32 => AS3",
        "10.128.0.0/9 => AS1",
    ]
    .iter()
    .map(|s| s.parse().unwrap())
    .collect();
    let bgp: BgpTable = routes.iter().collect();
    routes.sort_unstable();
    routes.dedup();
    assert_eq!(bgp.len(), 10);
    assert!(bgp.iter().eq(routes.iter().copied()));

    for prefix in routes.iter().map(|r| r.prefix) {
        let on_prefix = routes.iter().filter(|r| r.prefix == prefix);
        let origins: Vec<Asn> = on_prefix.map(|r| r.origin).collect();
        assert_eq!(bgp.origins_of(prefix), origins, "{prefix}");
        for asn in (1..=3).map(Asn) {
            let pair = RouteOrigin::new(prefix, asn);
            assert_eq!(bgp.contains(&pair), routes.contains(&pair), "{pair}");
            let mut same_origin = routes.iter().filter(|r| r.origin == asn);
            let above = same_origin.any(|r| r.prefix != prefix && r.prefix.covers(prefix));
            assert_eq!(bgp.has_ancestor_same_origin(prefix, asn), above, "{pair}");
            let vrp = Vrp::new(prefix, prefix.len() + 8, asn);
            let validated = routes.iter().filter(|r| vrp.matches(r));
            let count = bgp.count_announced_under(prefix, vrp.max_len, asn);
            assert_eq!(count, validated.clone().count() as u64, "{vrp}");
            let by_vrp = bgp.routes_validated_by(&vrp);
            assert!(by_vrp.eq(validated.copied()), "{vrp}");
        }
    }
}
