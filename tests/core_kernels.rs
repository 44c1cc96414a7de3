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
use maxlength_rpki::roa::Vrp;

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
