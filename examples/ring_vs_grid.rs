//! The paper's stated next objective (§4): "compare the performance of the
//! Quarc against other widely used NoC architectures such as mesh and
//! torus". This example runs that comparison on uniform unicast traffic at
//! equal node count, message length and offered load.
//!
//! ```text
//! cargo run --example ring_vs_grid --release
//! ```

use quarc::core::config::NocConfig;
use quarc::sim::driver::{run, NocSim, RunSpec};
use quarc::sim::mesh_net::MeshNetwork;
use quarc::sim::torus_net::TorusNetwork;
use quarc::sim::QuarcNetwork;
use quarc::workloads::{Synthetic, SyntheticConfig};

fn measure(net: &mut impl NocSim, n: usize, rate: f64, m: usize) -> (f64, bool) {
    let spec = RunSpec { warmup: 1_500, measure: 12_000, drain: 20_000, ..Default::default() };
    let mut wl = Synthetic::new(n, SyntheticConfig::paper(rate, m, 0.0, 55));
    let r = run(net, &mut wl, &spec);
    (r.unicast_mean, r.saturated)
}

fn main() {
    let m = 8;
    println!("uniform unicast, M = {m} flits; mean latency in cycles (SAT = saturated)\n");
    println!("{:<8} {:<9} {:>10} {:>10} {:>10}", "n", "rate", "quarc", "mesh", "torus");

    for n in [16usize, 64] {
        let base = quarc::analytical::quarc_saturation_rate(n, m);
        for frac in [0.1, 0.2, 0.3] {
            let rate = base * frac;
            let mut row = format!("{n:<8} {rate:<9.4}");
            let mut quarc = QuarcNetwork::new(NocConfig::quarc(n));
            let (lat, sat) = measure(&mut quarc, n, rate, m);
            row += &format!(" {:>10}", if sat { "SAT".into() } else { format!("{lat:.1}") });
            let mut mesh = MeshNetwork::new(NocConfig::mesh(n));
            let (lat, sat) = measure(&mut mesh, n, rate, m);
            row += &format!(" {:>10}", if sat { "SAT".into() } else { format!("{lat:.1}") });
            let mut torus = TorusNetwork::new(NocConfig::torus(n));
            let (lat, sat) = measure(&mut torus, n, rate, m);
            row += &format!(" {:>10}", if sat { "SAT".into() } else { format!("{lat:.1}") });
            println!("{row}");
        }
    }

    println!("\nGeometry notes (why the numbers look the way they do):");
    for n in [16usize, 64] {
        let ring = quarc::core::ring::Ring::new(n);
        let mesh = quarc::core::grid::GridTopology::square_mesh(n);
        let torus = quarc::core::grid::GridTopology::square_torus(n);
        println!(
            "  n={n:<3} diameters: quarc {} | mesh {} | torus {}   (quarc mean hops {:.2})",
            quarc::core::quadrant::diameter(&ring),
            mesh.diameter(),
            torus.diameter(),
            quarc::core::quadrant::mean_hops(&ring),
        );
    }
    println!("\nAt 16 nodes the ring topologies are competitive with the grids; by 64");
    println!("nodes the n/4 diameter catches up with them — the structural reason the");
    println!("paper caps the Quarc at 64 nodes (§2.6) and why mesh/torus remain the");
    println!("default beyond that. The Quarc's case is collective traffic, not scale.");
}
