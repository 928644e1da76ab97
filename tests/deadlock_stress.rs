//! Deadlock-freedom stress: sustained overload, adversarial patterns and
//! minimal buffering. The dateline VC discipline (proved acyclic in
//! `quarc-core`'s channel-dependency tests) must translate into live
//! networks — every run keeps delivering and drains clean once injection
//! stops.

use quarc::core::config::NocConfig;
use quarc::core::flit::TrafficClass;
use quarc::sim::driver::NocSim;
use quarc::sim::{QuarcNetwork, SpidergonNetwork};
use quarc::workloads::{Pattern, Synthetic, SyntheticConfig, TraceWorkload};

/// Run under load, then drain; assert liveness and conservation.
fn stress(net: &mut impl NocSim, wl: &mut Synthetic, load_cycles: u64, drain_cycles: u64) {
    let n = net.num_nodes();
    let mut last_delivered = 0;
    for chunk in 0..load_cycles / 500 {
        for _ in 0..500 {
            net.step(wl);
        }
        let d = net.metrics().flits_delivered();
        assert!(d > last_delivered, "no delivery progress in chunk {chunk} (n={n}) — deadlock");
        last_delivered = d;
    }
    let mut silence = TraceWorkload::new(n, vec![]);
    for _ in 0..drain_cycles {
        net.step(&mut silence);
        if net.quiesced() {
            break;
        }
    }
    assert!(net.quiesced(), "failed to drain after overload (n={n})");
    let m = net.metrics();
    for class in [TrafficClass::Unicast, TrafficClass::Broadcast] {
        assert_eq!(m.created(class), m.completed(class), "lost {class} messages");
    }
}

#[test]
fn quarc_overload_minimal_buffers() {
    // 2k cycles at 3–4× the saturating rate builds a large backlog; the
    // liveness claim is (a) progress in every chunk and (b) a complete
    // drain once injection stops. Budgets are sized to the backlog, not
    // tight: depth-1 buffers cut the wormhole throughput badly.
    let mut net = QuarcNetwork::new(NocConfig::quarc(16).with_buffer_depth(1));
    let mut wl = Synthetic::new(16, SyntheticConfig::paper(0.4, 8, 0.1, 1));
    stress(&mut net, &mut wl, 2_000, 500_000);
}

#[test]
fn spidergon_overload_minimal_buffers() {
    let mut net = SpidergonNetwork::new(NocConfig::spidergon(16).with_buffer_depth(1));
    let mut wl = Synthetic::new(16, SyntheticConfig::paper(0.6, 8, 0.1, 2));
    stress(&mut net, &mut wl, 4_000, 400_000);
}

#[test]
fn quarc_complement_pattern_hammers_cross_links() {
    let cfg = SyntheticConfig {
        rate: 0.3,
        msg_len: 8,
        broadcast_frac: 0.0,
        pattern: Pattern::Complement,
        seed: 3,
    };
    let mut net = QuarcNetwork::new(NocConfig::quarc(16).with_buffer_depth(2));
    let mut wl = Synthetic::new(16, cfg);
    stress(&mut net, &mut wl, 4_000, 60_000);
}

#[test]
fn quarc_hotspot_pattern() {
    let cfg = SyntheticConfig {
        rate: 0.2,
        msg_len: 8,
        broadcast_frac: 0.05,
        pattern: Pattern::Hotspot { node: quarc::core::ids::NodeId(0), frac: 0.5 },
        seed: 4,
    };
    let mut net = QuarcNetwork::new(NocConfig::quarc(16));
    let mut wl = Synthetic::new(16, cfg);
    stress(&mut net, &mut wl, 4_000, 80_000);
}

#[test]
fn big_network_broadcast_storm() {
    // Every broadcast in a 64-node Spidergon costs 63 chained injections;
    // this is the harshest liveness test in the suite.
    let mut net = SpidergonNetwork::new(NocConfig::spidergon(64));
    let mut wl = Synthetic::new(64, SyntheticConfig::paper(0.05, 8, 0.5, 5));
    stress(&mut net, &mut wl, 3_000, 2_000_000);
}

#[test]
fn quarc_broadcast_storm() {
    let mut net = QuarcNetwork::new(NocConfig::quarc(64));
    let mut wl = Synthetic::new(64, SyntheticConfig::paper(0.1, 8, 0.5, 6));
    stress(&mut net, &mut wl, 2_000, 500_000);
}

#[test]
fn long_messages_through_tiny_buffers() {
    // M = 32 flit worms through 1-flit buffers: maximal wormhole stretch.
    let mut net = QuarcNetwork::new(NocConfig::quarc(16).with_buffer_depth(1));
    let mut wl = Synthetic::new(16, SyntheticConfig::paper(0.03, 32, 0.1, 7));
    stress(&mut net, &mut wl, 3_000, 1_000_000);
}
