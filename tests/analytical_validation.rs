//! The paper's §3.2 validation step: the flit-level simulator must agree
//! with the independent M/G/1 analytical models at low and moderate load.
//! (Absolute agreement tightens as load → 0, where the model reduces to
//! `1 + d̄ + (M−1)` and the simulator, which forwards a header in the cycle
//! its message is created, to `d̄ + (M−1)`; at mid load we allow the
//! approximation error of the M/G/1 channel-independence assumption.)

use quarc::analytical as ana;
use quarc::core::config::NocConfig;
use quarc::core::grid::GridTopology;
use quarc::core::topology::SpidergonTopology;
use quarc::sim::driver::{run, RunSpec};
use quarc::sim::mesh_net::MeshNetwork;
use quarc::sim::{QuarcNetwork, SpidergonNetwork};
use quarc::workloads::{Synthetic, SyntheticConfig};

fn spec() -> RunSpec {
    RunSpec { warmup: 2_000, measure: 20_000, drain: 30_000, ..Default::default() }
}

#[test]
fn quarc_simulator_matches_model_at_low_load() {
    for (n, m) in [(16usize, 8usize), (16, 16)] {
        let rate = ana::quarc_saturation_rate(n, m) * 0.25;
        let mut net = QuarcNetwork::new(NocConfig::quarc(n));
        let mut wl = Synthetic::new(n, SyntheticConfig::paper(rate, m, 0.0, 9));
        let res = run(&mut net, &mut wl, &spec());
        let model = ana::quarc_unicast_latency(n, m, rate).expect("below saturation");
        let rel = (res.unicast_mean - model).abs() / model;
        assert!(
            rel < 0.15,
            "n={n} m={m} rate={rate:.4}: sim {:.2} vs model {model:.2} (rel {rel:.3})",
            res.unicast_mean
        );
    }
}

#[test]
fn spidergon_simulator_matches_model_at_low_load() {
    for (n, m) in [(16usize, 8usize), (32, 16)] {
        let spidergon = SpidergonTopology::new(n);
        let rate = ana::saturation_rate(&spidergon, m) * 0.25;
        let mut net = SpidergonNetwork::new(NocConfig::spidergon(n));
        let mut wl = Synthetic::new(n, SyntheticConfig::paper(rate, m, 0.0, 10));
        let res = run(&mut net, &mut wl, &spec());
        let model = ana::unicast_latency(&spidergon, m, rate).expect("below saturation");
        let rel = (res.unicast_mean - model).abs() / model;
        assert!(
            rel < 0.15,
            "n={n} m={m} rate={rate:.4}: sim {:.2} vs model {model:.2} (rel {rel:.3})",
            res.unicast_mean
        );
    }
}

#[test]
fn mesh_simulator_matches_model_at_low_load() {
    let (n, m, rate) = (16usize, 8usize, 0.005);
    let mut net = MeshNetwork::new(NocConfig::mesh(n));
    let mut wl = Synthetic::new(n, SyntheticConfig::paper(rate, m, 0.0, 11));
    let res = run(&mut net, &mut wl, &spec());
    let model = ana::unicast_latency(&GridTopology::square_mesh(n), m, rate).expect("stable");
    let rel = (res.unicast_mean - model).abs() / model;
    assert!(rel < 0.15, "mesh: sim {:.2} vs model {model:.2} (rel {rel:.3})", res.unicast_mean);
}

#[test]
fn zero_load_broadcast_formulas_match_simulator() {
    use quarc::core::ids::NodeId;
    use quarc::sim::driver::NocSim;
    use quarc::workloads::{MessageRequest, TraceRecord, TraceWorkload};
    for (n, m) in [(16usize, 8usize), (32, 16)] {
        // Quarc.
        let mut net = QuarcNetwork::new(NocConfig::quarc(n));
        let mut wl = TraceWorkload::new(
            n,
            vec![TraceRecord { cycle: 0, request: MessageRequest::broadcast(NodeId(0), m) }],
        );
        while !net.quiesced() || net.now() == 0 {
            net.step(&mut wl);
            assert!(net.now() < 50_000);
        }
        let sim = net.metrics().broadcast_completion_latency().mean();
        let model = ana::quarc_broadcast_zero_load(n, m);
        assert_eq!(sim, model, "quarc n={n} m={m}: sim vs formula");

        // Spidergon: the chain formula is an approximation of the re-inject
        // pipeline; allow 20%.
        let mut net = SpidergonNetwork::new(NocConfig::spidergon(n));
        let mut wl = TraceWorkload::new(
            n,
            vec![TraceRecord { cycle: 0, request: MessageRequest::broadcast(NodeId(0), m) }],
        );
        while !net.quiesced() || net.now() == 0 {
            net.step(&mut wl);
            assert!(net.now() < 100_000);
        }
        let sim = net.metrics().broadcast_completion_latency().mean();
        let model = ana::spidergon_broadcast_zero_load(n, m);
        let rel = (sim - model).abs() / model;
        assert!(
            rel < 0.2,
            "spidergon n={n} m={m}: sim {sim:.1} vs formula {model:.1} (rel {rel:.2})"
        );
    }
}
