//! Simulator validation against the analytical models, mirroring the paper's
//! §3.2 ("The simulator has been verified extensively against analytical
//! models for the Spidergon and mesh topologies employing wormhole
//! routing"). We validate against Spidergon, Quarc *and* mesh models at
//! 10/20/30% of the analytic link-capacity bound — the regime where the
//! M/G/1 independence assumptions hold. (The bound itself is a capacity
//! *ceiling*: a physical router that moves one flit per input port per cycle
//! saturates at roughly 35–45% of raw wire capacity, so higher fractions sit
//! past the simulator's knee by design.)
//!
//! ```text
//! cargo run -p quarc-bench --bin validate --release
//! ```

use quarc_analytical as ana;
use quarc_bench::outln;
use quarc_campaign::CurveParams;
use quarc_core::grid::GridTopology;
use quarc_core::topology::TopologyKind::{self, Mesh, Quarc, Spidergon};
use quarc_sim::{run_point, RunSpec};

fn main() {
    outln!("# Simulator-vs-analytical validation (uniform unicast traffic)");
    outln!("topology,n,m,rate,sim_latency,model_latency,rel_err");
    let spec = RunSpec { warmup: 3_000, measure: 30_000, drain: 40_000, ..Default::default() };
    // Mean unicast latency of one campaign point: the curve's network under
    // uniform unicast traffic.
    let sim = |topology: TopologyKind, n: usize, m: usize, rate: f64, seed: u64| {
        let curve = CurveParams::paper(topology, n, m, 0.0);
        let out = run_point(&curve.point(rate, seed), &spec, None).expect("a valid point");
        out.result().unicast_mean
    };

    for (n, m) in [(16usize, 8usize), (16, 16), (32, 16)] {
        let sat = ana::spidergon_saturation_rate(n, m);
        for frac in [0.1, 0.2, 0.3] {
            let rate = sat * frac;
            let model = ana::quarc_unicast_latency(n, m, rate).unwrap_or(f64::NAN);
            print_row("quarc", n, m, rate, sim(Quarc, n, m, rate, 11), model);
            let model = ana::spidergon_unicast_latency(n, m, rate).unwrap_or(f64::NAN);
            print_row("spidergon", n, m, rate, sim(Spidergon, n, m, rate, 12), model);
        }
    }

    // Mesh validation (XY routing).
    for (n, m) in [(16usize, 8usize), (16, 16)] {
        for rate in [0.005, 0.01, 0.02] {
            let topo = GridTopology::square_mesh(n);
            let model = ana::mesh_unicast_latency(&topo, m, rate).unwrap_or(f64::NAN);
            print_row("mesh", n, m, rate, sim(Mesh, n, m, rate, 13), model);
        }
    }

    outln!("#");
    outln!("# zero-load broadcast formulas vs paper shape:");
    for (n, m) in [(16usize, 8usize), (64, 16)] {
        let q = ana::quarc_broadcast_zero_load(n, m);
        let s = ana::spidergon_broadcast_zero_load(n, m);
        outln!("# n={n} m={m}: quarc {q:.0}, spidergon {s:.0}, ratio {:.1}x", s / q);
    }
    outln!("#");
    outln!("# beta-aware injection-port saturation bounds (Fig. 11), n=64 m=16:");
    for beta in [0.0, 0.1] {
        let q = ana::quarc_port_saturation_with_beta(64, 16, beta);
        let s = ana::spidergon_saturation_with_beta(64, 16, beta);
        outln!("# beta={beta}: quarc {q:.5}, spidergon {s:.5}, ratio {:.1}x", q / s);
    }
}

fn print_row(topo: &str, n: usize, m: usize, rate: f64, sim: f64, model: f64) {
    let rel = if model.is_finite() && model > 0.0 { (sim - model).abs() / model } else { f64::NAN };
    outln!("{topo},{n},{m},{rate:.5},{sim:.2},{model:.2},{rel:.3}");
}
