//! Quickstart: build a 16-node Quarc NoC, send some traffic, read the
//! numbers.
//!
//! ```text
//! cargo run --example quickstart --release
//! ```

use quarc::core::config::NocConfig;
use quarc::core::flit::TrafficClass;
use quarc::core::ids::NodeId;
use quarc::sim::driver::NocSim;
use quarc::sim::QuarcNetwork;
use quarc::workloads::{MessageRequest, TraceRecord, TraceWorkload};

fn main() {
    // A 16-node Quarc with the paper's hardware defaults: 2 VCs per link,
    // 4-flit input buffers, single-cycle links.
    let mut net = QuarcNetwork::new(NocConfig::quarc(16));

    // A hand-written workload: three unicasts and one broadcast, all
    // injected at cycle 0. (Synthetic generators live in quarc-workloads;
    // traces are the simplest way to poke the network.)
    let records = vec![
        TraceRecord { cycle: 0, request: MessageRequest::unicast(NodeId(0), NodeId(3), 8) },
        TraceRecord { cycle: 0, request: MessageRequest::unicast(NodeId(5), NodeId(13), 8) },
        TraceRecord { cycle: 0, request: MessageRequest::unicast(NodeId(9), NodeId(2), 8) },
        TraceRecord { cycle: 0, request: MessageRequest::broadcast(NodeId(0), 8) },
    ];
    let mut workload = TraceWorkload::new(16, records);

    // Drive the clock until everything has drained.
    while !net.quiesced() || net.now() == 0 {
        net.step(&mut workload);
        assert!(net.now() < 10_000, "network failed to drain");
    }

    let m = net.metrics();
    println!("simulated cycles        : {}", net.now());
    println!("unicasts completed      : {}", m.completed(TrafficClass::Unicast));
    println!("mean unicast latency    : {:.1} cycles", m.unicast_latency().mean());
    println!("broadcasts completed    : {}", m.completed(TrafficClass::Broadcast));
    println!(
        "broadcast completion    : {:.1} cycles (creation -> last of 15 receivers)",
        m.broadcast_completion_latency().mean()
    );
    println!(
        "broadcast per reception : {:.1} cycles (mean over receivers)",
        m.broadcast_reception_latency().mean()
    );
    println!("flits delivered         : {}", m.flits_delivered());

    // The headline of the paper in one assertion: a Quarc broadcast is a
    // pipelined wormhole operation, not a store-and-forward chain (which
    // would cost hundreds of cycles). Alone, node 0's M = 8 broadcast
    // completes when the tail of its clockwise branch reaches node 4:
    // 4 hops + 7 body flits = 11 cycles. Every 8-flit worm ahead of that
    // branch on its path delays it by 8, and here there are two: the 0→3
    // unicast, queued ahead of it at node 0, holds rim link 1→2 for cycles
    // 1–8; the 9→2 unicast crosses to node 1 and takes that link next
    // (cycles 9–16). The branch leaves node 1 at cycle 17 and its tail
    // reaches node 4 at 17 + 3 hops + 7 flits = 27 = 11 + 2 · 8.
    assert_eq!(m.broadcast_completion_latency().mean(), 11.0 + 2.0 * 8.0);
}
