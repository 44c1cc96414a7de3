//! The layout contract of `rpki_prefix`'s crate docs, held at the root.
//!
//! Every large list in the §6/§7 pipeline (777k announced pairs, 777k
//! exact tuples, Table 1's rows) is a list of `Vrp`s or `RouteOrigin`s,
//! so their sizes are what a pass allocates. Two choices keep them at 32
//! bytes: `Prefix6` stores its `u128` at 8-byte alignment, and a prefix
//! stores its length as `len + 1`, so `Prefix` keeps its address family
//! in the zero the length byte never holds.

use std::mem::{align_of, size_of};

use maxlength_rpki::core::bounds::full_deployment_minimal;
use maxlength_rpki::core::BgpTable;
use maxlength_rpki::datasets::{GeneratorConfig, World};
use maxlength_rpki::prefix::{Prefix, Prefix4, Prefix6};
use maxlength_rpki::roa::{RouteOrigin, Vrp};
use testkit::CountingAlloc;

#[global_allocator]
static ALLOC: CountingAlloc = CountingAlloc;

#[test]
fn prefix_and_record_sizes_are_pinned() {
    assert_eq!((size_of::<Prefix4>(), align_of::<Prefix4>()), (8, 4));
    assert_eq!((size_of::<Prefix6>(), align_of::<Prefix6>()), (24, 8));
    assert_eq!((size_of::<Prefix>(), align_of::<Prefix>()), (24, 8));
    assert_eq!(size_of::<Vrp>(), 32);
    assert_eq!(size_of::<RouteOrigin>(), 32);
}

/// Table 1's full-deployment row is one list of exact tuples, one per
/// announced pair, allocated once at 32 bytes a tuple.
#[test]
fn full_deployment_allocates_32_bytes_a_pair() {
    testkit::alloc::assert_installed();
    let world = World::generate(GeneratorConfig {
        scale: 0.05,
        ..GeneratorConfig::default()
    });
    let bgp: BgpTable = world.snapshot(7).routes.iter().collect();
    let (tuples, largest) = testkit::alloc::largest_during(|| full_deployment_minimal(&bgp));
    assert_eq!(tuples.len(), bgp.len());
    assert_eq!(largest, bgp.len() * 32);
}
