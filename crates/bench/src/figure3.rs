//! `maxlength figure3`: regenerates Figure 3, the PDU counts per scenario
//! across the eight weekly snapshots (4/13 … 6/1), for today's
//! deployment (3a) and full deployment (3b).

use maxlength_core::report::series_csv;
use maxlength_core::timeline::{render_series, Snapshot, Timeline};

use crate::world::world;
use crate::Args;

pub fn run(args: &Args) {
    let t0 = std::time::Instant::now();
    let world = world(args.scale);
    let snapshots: Vec<Snapshot> = world
        .snapshots()
        .into_iter()
        .map(|s| Snapshot {
            label: s.label.clone(),
            vrps: s.vrps(),
            bgp: s.routes.iter().collect(),
        })
        .collect();
    eprintln!(
        "snapshots ready ({:.1?}); computing all scenarios ...",
        t0.elapsed()
    );
    let t1 = std::time::Instant::now();
    let timeline = Timeline::compute(&snapshots);
    eprintln!("timeline computed in {:.1?}\n", t1.elapsed());

    println!("Figure 3a: today's RPKI deployment (paper band: 30K-55K PDUs)\n");
    print!("{}", render_series(&timeline.figure3a()));
    println!();
    println!("Figure 3b: RPKI in full deployment (paper band: 710K-780K PDUs)\n");
    print!("{}", render_series(&timeline.figure3b()));
    println!();
    println!(
        "(safe) = immune to forged-origin subprefix hijacks (solid lines in \
         the paper); (vuln) = exposed (dashed lines)."
    );

    args.write_csv(&[
        ("figure3a.csv", series_csv(&timeline.figure3a())),
        ("figure3b.csv", series_csv(&timeline.figure3b())),
    ]);
}
