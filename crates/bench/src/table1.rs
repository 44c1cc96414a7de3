//! `maxlength table1`: regenerates Table 1, the PDU counts of the seven
//! scenarios.

use maxlength_core::report::{table1_csv, table1_markdown};
use maxlength_core::Table1;

use crate::world::final_snapshot;
use crate::Args;

pub fn run(args: &Args) {
    let (_, vrps, bgp) = final_snapshot(args.scale);
    let t1 = std::time::Instant::now();
    let table = Table1::compute_par(&vrps, &bgp, rayon::current_num_threads());
    eprintln!("computed Table 1 in {:.1?}\n", t1.elapsed());
    println!("Table 1 (paper: 39,949 / 33,615 / 52,745 / 49,308 / 776,945 / 730,008 / 729,371)\n");
    print!("{table}");

    args.write_csv(&[
        ("table1.csv", table1_csv(&table)),
        ("table1.md", table1_markdown(&table)),
    ]);
}
