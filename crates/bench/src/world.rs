//! The generated world the scale-driven subcommands start from.

use maxlength_core::BgpTable;
use rpki_datasets::{DatasetSnapshot, GeneratorConfig, World};
use rpki_roa::Vrp;

/// Generates the world at `scale` from the generator's default seed.
pub fn world(scale: f64) -> World {
    eprintln!(
        "generating world at scale {scale} ({} threads) ...",
        rayon::current_num_threads()
    );
    World::generate(GeneratorConfig {
        scale,
        ..GeneratorConfig::default()
    })
}

/// The final ("6/1") snapshot of the world at `scale`, with its VRPs and
/// indexed BGP table.
pub fn final_snapshot(scale: f64) -> (DatasetSnapshot, Vec<Vrp>, BgpTable) {
    let t0 = std::time::Instant::now();
    let world = world(scale);
    let snap = world.snapshot(world.config.weeks - 1);
    let vrps = snap.vrps();
    let bgp: BgpTable = snap.routes.iter().collect();
    eprintln!(
        "dataset {}: {} ROAs, {} tuples, {} BGP pairs ({:.1?})",
        snap.label,
        snap.roa_count(),
        vrps.len(),
        bgp.len(),
        t0.elapsed()
    );
    (snap, vrps, bgp)
}
