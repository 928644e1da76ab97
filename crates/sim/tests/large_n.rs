//! Full-range multicast conservation at sizes far beyond the old `u128`
//! bitstring ceiling.
//!
//! The bitstring slab lifts explicit-target multicast from n ≤ 512 (Quarc)
//! and n ≤ 4096 (grids) to [`MAX_SIM_NODES`]. These tests pin the ledger at
//! n = 8192: one injected multicast whose branch spans force slab-backed
//! bitstrings (Quarc quarter-depth 2048; torus column walks ~90 hops), run
//! to quiescence, and every requested receiver — and nobody else — gets a
//! copy.
//!
//! [`MAX_SIM_NODES`]: quarc_core::config::MAX_SIM_NODES

use quarc_core::bits::BitSlab;
use quarc_core::config::NocConfig;
use quarc_core::grid::GridTopology;
use quarc_core::ids::NodeId;
use quarc_core::quadrant::multicast_branches_into;
use quarc_core::ring::Ring;
use quarc_core::routing::Routing;
use quarc_sim::torus_net::TorusNetwork;
use quarc_sim::{NocSim, QuarcNetwork};
use quarc_workloads::{MessageRequest, TraceRecord, TraceWorkload};
use std::collections::BTreeSet;

const N: usize = 8192;
const LEN: usize = 4;

/// A target set that spans the whole address range (both slab words and
/// every quadrant), prime-strided so it does not align with any quadrant
/// boundary.
fn full_range_targets(n: usize) -> Vec<NodeId> {
    (0..n).step_by(61).map(NodeId::new).collect()
}

/// Receivers the request names: its distinct targets other than `src`.
fn receivers(src: NodeId, targets: &[NodeId]) -> usize {
    targets.iter().filter(|&&t| t != src).collect::<BTreeSet<_>>().len()
}

fn run_one(net: &mut impl NocSim, record: TraceRecord) -> (u64, u64) {
    let n = net.num_nodes();
    let mut wl = TraceWorkload::new(n, vec![record]);
    for _ in 0..1_000_000 {
        net.step(&mut wl);
        if net.quiesced() && wl.remaining() == 0 {
            break;
        }
    }
    assert!(net.quiesced(), "network failed to drain");
    (net.metrics().flits_delivered(), net.metrics().completed_total())
}

#[test]
fn quarc_full_range_multicast_conserves_at_n8192() {
    let ring = Ring::new(N);
    let src = NodeId::new(7);
    let targets = full_range_targets(N);
    assert!(targets.len() > 64, "target set must exceed the inline width");

    let receivers = receivers(src, &targets);
    let (mut slab, mut needs_row) = (BitSlab::new(ring.quarter() + 1), false);
    multicast_branches_into(&ring, src, targets.iter().copied(), &mut slab, |b| {
        needs_row |= !b.bitstring.is_inline()
    });
    assert!(needs_row, "an 8192-node span must need a slab row");

    let mut net = QuarcNetwork::new(NocConfig::quarc(N));
    let record = TraceRecord { cycle: 0, request: MessageRequest::multicast(src, targets, LEN) };
    let (flits, msgs) = run_one(&mut net, record);
    assert_eq!(flits, (receivers * LEN) as u64);
    assert_eq!(msgs, 1);
}

#[test]
fn torus_full_range_multicast_conserves_beyond_u128() {
    let topo = GridTopology::square_torus(N);
    let n = topo.num_nodes();
    let src = NodeId::new(7);
    let targets = full_range_targets(n);

    let receivers = receivers(src, &targets);

    let mut net = TorusNetwork::new(NocConfig::torus(N));
    assert_eq!(net.num_nodes(), n);
    let record = TraceRecord { cycle: 0, request: MessageRequest::multicast(src, targets, LEN) };
    let (flits, msgs) = run_one(&mut net, record);
    assert_eq!(flits, (receivers * LEN) as u64);
    assert_eq!(msgs, 1);
}
