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
use quarc_core::config::NocConfig;
use quarc_core::grid::GridTopology;
use quarc_sim::{run, RunSpec};

fn main() {
    outln!("# Simulator-vs-analytical validation (uniform unicast traffic)");
    outln!("topology,n,m,rate,sim_latency,model_latency,rel_err");
    let spec = RunSpec { warmup: 3_000, measure: 30_000, drain: 40_000, ..Default::default() };

    for (n, m) in [(16usize, 8usize), (16, 16), (32, 16)] {
        let sat = ana::spidergon_saturation_rate(n, m);
        for frac in [0.1, 0.2, 0.3] {
            let rate = sat * frac;

            // Quarc.
            let mut net = quarc_sim::QuarcNetwork::new(NocConfig::quarc(n));
            let mut wl = quarc_workloads::Synthetic::new(
                n,
                quarc_workloads::SyntheticConfig::paper(rate, m, 0.0, 11),
            );
            let res = run(&mut net, &mut wl, &spec);
            let model = ana::quarc_unicast_latency(n, m, rate).unwrap_or(f64::NAN);
            print_row("quarc", n, m, rate, res.unicast_mean, model);

            // Spidergon.
            let mut net = quarc_sim::SpidergonNetwork::new(NocConfig::spidergon(n));
            let mut wl = quarc_workloads::Synthetic::new(
                n,
                quarc_workloads::SyntheticConfig::paper(rate, m, 0.0, 12),
            );
            let res = run(&mut net, &mut wl, &spec);
            let model = ana::spidergon_unicast_latency(n, m, rate).unwrap_or(f64::NAN);
            print_row("spidergon", n, m, rate, res.unicast_mean, model);
        }
    }

    // Mesh validation (XY routing).
    for (n, m) in [(16usize, 8usize), (16, 16)] {
        for rate in [0.005, 0.01, 0.02] {
            let mut cfg = NocConfig::mesh(n);
            cfg.vcs = 1;
            let mut net = quarc_sim::mesh_net::MeshNetwork::new(cfg);
            let mut wl = quarc_workloads::Synthetic::new(
                n,
                quarc_workloads::SyntheticConfig::paper(rate, m, 0.0, 13),
            );
            let res = run(&mut net, &mut wl, &spec);
            let topo = GridTopology::square_mesh(n);
            let model = ana::mesh_unicast_latency(&topo, m, rate).unwrap_or(f64::NAN);
            print_row("mesh", n, m, rate, res.unicast_mean, model);
        }
    }

    outln!("#");
    outln!("# zero-load broadcast formulas vs paper shape:");
    for (n, m) in [(16usize, 8usize), (64, 16)] {
        let q = ana::quarc_broadcast_zero_load(n, m);
        let s = ana::spidergon_broadcast_zero_load(n, m);
        outln!("# n={n} m={m}: quarc {q:.0}, spidergon {s:.0}, ratio {:.1}x", s / q);
    }
}

fn print_row(topo: &str, n: usize, m: usize, rate: f64, sim: f64, model: f64) {
    let rel = if model.is_finite() && model > 0.0 { (sim - model).abs() / model } else { f64::NAN };
    outln!("{topo},{n},{m},{rate:.5},{sim:.2},{model:.2},{rel:.3}");
}
