//! Explore the structural properties the paper argues from: diameters, mean
//! distances, per-link load balance (the "edge-asymmetry" critique of §2.1)
//! and the analytic saturation/latency picture — all without running a
//! single simulation cycle.
//!
//! ```text
//! cargo run --example topology_explorer --release
//! ```

use quarc::analytical as ana;
use quarc::core::grid::GridTopology;
use quarc::core::ids::NodeId;
use quarc::core::quadrant::{diameter, mean_hops, quadrant_of};
use quarc::core::ring::Ring;
use quarc::core::topology::{QuarcOut, QuarcTopology, SpiOut, SpidergonTopology};

fn main() {
    println!("== topology geometry ==");
    println!("{:<6} {:>14} {:>12} {:>14}", "n", "quarc diam", "mean hops", "mesh diam");
    for n in [8usize, 16, 32, 64] {
        let ring = Ring::new(n);
        let mesh = GridTopology::square_mesh(n);
        println!(
            "{n:<6} {:>14} {:>12.2} {:>14}",
            diameter(&ring),
            mean_hops(&ring),
            mesh.diameter()
        );
    }

    println!("\n== quadrants from node 0 (n = 16) ==");
    let ring = Ring::new(16);
    for d in 1..16u32 {
        let q = quadrant_of(&ring, NodeId(0), NodeId(d));
        print!("{d}:{q}  ");
        if d % 4 == 0 {
            println!();
        }
    }
    println!();

    println!("\n== per-link load under uniform all-pairs traffic (n = 16) ==");
    let quarc = ana::LinkLoads::uniform(&QuarcTopology::new(16));
    let spider = ana::LinkLoads::uniform(&SpidergonTopology::new(16));
    // Every link of a port carries the same load (both rings are
    // vertex-transitive), so node 0's outputs show them all.
    let show = |name: &str, loads: &ana::LinkLoads, ports: &[(&str, usize)]| {
        print!("{name:<11}");
        for &(label, out) in ports {
            print!(" {label}={:<5}", loads.count(0, out));
        }
        println!("max/mean={:.2}", loads.imbalance());
    };
    show(
        "quarc",
        &quarc,
        &[
            ("rim-cw", QuarcOut::RimCw.index()),
            ("rim-ccw", QuarcOut::RimCcw.index()),
            ("cross-r", QuarcOut::CrossRight.index()),
            ("cross-l", QuarcOut::CrossLeft.index()),
        ],
    );
    show(
        "spidergon",
        &spider,
        &[
            ("rim-cw", SpiOut::RimCw.index()),
            ("rim-ccw", SpiOut::RimCcw.index()),
            ("spoke", SpiOut::Cross.index()),
        ],
    );
    println!("(the Spidergon spoke carries the sum of the two Quarc cross links)");

    println!("\n== analytic picture (M = 16) ==");
    println!(
        "{:<6} {:>12} {:>14} {:>14} {:>12}",
        "n", "sat rate", "quarc bcast0", "spider bcast0", "bcast gap"
    );
    for n in [16usize, 32, 64] {
        let sat = ana::quarc_saturation_rate(n, 16);
        let q0 = ana::quarc_broadcast_zero_load(n, 16);
        let s0 = ana::spidergon_broadcast_zero_load(n, 16);
        println!("{n:<6} {sat:>12.4} {q0:>14.0} {s0:>14.0} {:>11.1}x", s0 / q0);
    }
    println!("\n(zero-load broadcast gap grows with n: the Quarc pipeline costs n/4 + M - 1");
    println!(" cycles while the Spidergon chain pays ~M per replication hop — §3.2's");
    println!(" 'order of magnitude' at n = 64)");
}
