//! `maxlength gen_dataset <dir> [--scale S] [--seed N]`: generates the
//! calibrated weekly snapshots and writes them as text files, one per
//! week, in the documented dataset format.

use rpki_datasets::{io, GeneratorConfig, World};

use crate::Args;

pub fn run(args: &Args) {
    let dir = &args.path;
    std::fs::create_dir_all(dir).expect("create output directory");
    let defaults = GeneratorConfig::default();
    let world = World::generate(GeneratorConfig {
        scale: args.scale,
        seed: args.seed.unwrap_or(defaults.seed),
        ..defaults
    });
    for (week, snap) in world.snapshots().into_iter().enumerate() {
        let name = format!("week-{week}-{}.txt", snap.label.replace('/', "-"));
        let path = dir.join(name);
        io::save(&snap, &path).expect("write snapshot");
        println!(
            "{}: {} ROAs, {} tuples, {} BGP pairs",
            path.display(),
            snap.roa_count(),
            snap.vrps().len(),
            snap.route_count()
        );
    }
}
