//! A multi-switch Quarc ring at signal level.
//!
//! Wires `n` [`QuarcSwitchRtl`] instances according to the Quarc topology
//! with one register stage per link (single-cycle link latency, as in the
//! behavioural simulator) and collects every PE delivery. This is the
//! test bench the paper's Verilog implementation would have used: frames go
//! in through transceiver quadrant buffers, words come out at PEs, and the
//! harness checks the LocalLink discipline at every boundary.

use crate::signals::{LlFwd, LlRev};
use crate::switch::{QuarcSwitchRtl, SwitchStepIn};
use quarc_core::flit::wire::{decode, WireFlit};
use quarc_core::flit::TrafficClass;
use quarc_core::ids::NodeId;
use quarc_core::ring::Ring;
use quarc_core::topology::{QuarcOut, QuarcTopology};

/// Network ports in index order.
const NET_OUT: [QuarcOut; 4] =
    [QuarcOut::RimCw, QuarcOut::RimCcw, QuarcOut::CrossRight, QuarcOut::CrossLeft];

/// A word delivered to a PE, with its location in the stream.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct PeDelivery {
    /// Receiving node.
    pub node: NodeId,
    /// Input port it was absorbed from.
    pub port: usize,
    /// VC lane within the port.
    pub lane: usize,
    /// The 34-bit word.
    pub word: u64,
    /// Cycle of delivery.
    pub cycle: u64,
}

/// A fully received frame, reassembled at a PE.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ReceivedFrame {
    /// Receiving node.
    pub node: NodeId,
    /// Traffic class from the header.
    pub class: TrafficClass,
    /// Source address from the header.
    pub src: NodeId,
    /// Header destination (branch terminal for collectives).
    pub dst: NodeId,
    /// Number of words (header + bodies + tail).
    pub len: usize,
    /// Cycle the tail arrived.
    pub completed_at: u64,
}

/// The signal-level ring harness.
#[derive(Debug)]
pub struct RingRtl {
    topo: QuarcTopology,
    switches: Vec<QuarcSwitchRtl>,
    /// Link registers: `fwd_regs[node][out]` holds the word sent last cycle.
    fwd_regs: Vec<[LlFwd; 4]>,
    /// For each `(node, in port)`, the upstream `(node, out)` that feeds it.
    incoming: Vec<[(usize, usize); 4]>,
    deliveries: Vec<PeDelivery>,
    /// Transient receiver faults per `(node, in port)`: the port reports
    /// `CH_STATUS_N` stalled while `from ≤ cycle < until`.
    stalls: Vec<[(u64, u64); 4]>,
    cycle: u64,
}

impl RingRtl {
    /// Build an `n`-node signal-level Quarc.
    pub fn new(n: usize) -> Self {
        let topo = QuarcTopology::new(n);
        let mut incoming = vec![[(usize::MAX, usize::MAX); 4]; n];
        for node in 0..n {
            for (o, out) in NET_OUT.iter().enumerate() {
                let (to, tin) = topo.link_target(NodeId::new(node), *out).expect("net out");
                incoming[to.index()][tin.index()] = (node, o);
            }
        }
        RingRtl {
            topo,
            switches: (0..n).map(|i| QuarcSwitchRtl::new(NodeId::new(i), n)).collect(),
            fwd_regs: vec![[LlFwd::IDLE; 4]; n],
            incoming,
            deliveries: Vec::new(),
            stalls: vec![[(0, 0); 4]; n],
            cycle: 0,
        }
    }

    /// Inject a transient receiver fault: input `port` of `node` deasserts
    /// its `CH_STATUS_N` readiness while `from ≤ cycle < until`. LocalLink
    /// back-pressure must absorb the window with zero loss.
    #[cfg(test)]
    fn inject_stall(&mut self, node: NodeId, port: usize, from: u64, until: u64) {
        assert!(port < 4 && from < until);
        self.stalls[node.index()][port] = (from, until);
    }

    /// Node count.
    pub fn num_nodes(&self) -> usize {
        self.switches.len()
    }

    /// The ring arithmetic (for building frames).
    pub fn ring(&self) -> &Ring {
        self.topo.ring()
    }

    /// Inject a frame at `node` into quadrant queue `quad`.
    pub fn inject(&mut self, node: NodeId, quad: usize, words: &[u64]) -> bool {
        self.switches[node.index()].inject(quad, words)
    }

    /// Advance one clock cycle across the whole ring.
    // Index loops mirror the hardware port numbering across several arrays.
    #[allow(clippy::needless_range_loop)]
    pub fn step(&mut self) {
        let n = self.num_nodes();
        // Phase 1 (read-only): assemble every switch's inputs from the link
        // registers and the downstream status signals.
        let mut inputs = Vec::with_capacity(n);
        for node in 0..n {
            let mut fwd = [LlFwd::IDLE; 4];
            for port in 0..4 {
                let (up, up_out) = self.incoming[node][port];
                fwd[port] = self.fwd_regs[up][up_out];
            }
            let mut rev = [LlRev::READY; 4];
            for (o, out) in NET_OUT.iter().enumerate() {
                let (to, tin) = self.topo.link_target(NodeId::new(node), *out).expect("net");
                let (from, until) = self.stalls[to.index()][tin.index()];
                rev[o] = if self.cycle >= from && self.cycle < until {
                    LlRev::STALLED
                } else {
                    self.switches[to.index()].ch_status(tin.index())
                };
            }
            inputs.push(SwitchStepIn { fwd, rev });
        }
        // Phase 2: clock every switch, register its outputs.
        for node in 0..n {
            let out = self.switches[node].step(&inputs[node]);
            self.fwd_regs[node] = out.fwd;
            for d in out.deliveries {
                self.deliveries.push(PeDelivery {
                    node: NodeId::new(node),
                    port: d.port,
                    lane: d.lane,
                    word: d.word,
                    cycle: self.cycle,
                });
            }
        }
        self.cycle += 1;
    }

    /// Run until every buffer and link register is empty (or the cycle cap
    /// is hit, which panics — a stuck signal-level network is a bug).
    pub fn run_until_idle(&mut self, cap: u64) {
        for _ in 0..cap {
            self.step();
            if self.is_idle() {
                return;
            }
        }
        panic!("RTL ring did not go idle within {cap} cycles");
    }

    /// Whether all switches and links are empty.
    pub fn is_idle(&self) -> bool {
        self.switches.iter().all(QuarcSwitchRtl::is_idle)
            && self.fwd_regs.iter().all(|regs| regs.iter().all(|f| !f.valid()))
    }

    /// Current cycle.
    pub fn now(&self) -> u64 {
        self.cycle
    }

    /// Reassemble the delivered words into frames, checking wormhole
    /// contiguity per `(node, port, lane)` stream.
    pub fn received_frames(&self) -> Vec<ReceivedFrame> {
        use std::collections::HashMap;
        #[derive(Debug)]
        struct Partial {
            class: TrafficClass,
            src: NodeId,
            dst: NodeId,
            words: usize,
        }
        let mut open: HashMap<(u32, usize, usize), Partial> = HashMap::new();
        let mut done = Vec::new();
        for d in &self.deliveries {
            let key = (d.node.0, d.port, d.lane);
            match decode(d.word).expect("valid word on PE interface") {
                WireFlit::Header { class, src, dst, .. } => {
                    let prev = open.insert(key, Partial { class, src, dst, words: 1 });
                    assert!(prev.is_none(), "header interleaved into open frame at {key:?}");
                }
                WireFlit::Body(_) => {
                    open.get_mut(&key).expect("body without header").words += 1;
                }
                WireFlit::Tail(_) => {
                    let mut p = open.remove(&key).expect("tail without header");
                    p.words += 1;
                    done.push(ReceivedFrame {
                        node: d.node,
                        class: p.class,
                        src: p.src,
                        dst: p.dst,
                        len: p.words,
                        completed_at: d.cycle,
                    });
                }
                WireFlit::Single { class, src, dst, .. } => {
                    assert!(!open.contains_key(&key), "single flit interleaved into open frame");
                    done.push(ReceivedFrame {
                        node: d.node,
                        class,
                        src,
                        dst,
                        len: 1,
                        completed_at: d.cycle,
                    });
                }
            }
        }
        assert!(open.is_empty(), "truncated frames at PEs: {open:?}");
        done
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::xcvr::{broadcast_frames, multicast_frames, unicast_frames};
    use std::collections::HashSet;

    #[test]
    fn unicast_crosses_the_ring() {
        let mut ring = RingRtl::new(16);
        for (quad, frame) in unicast_frames(ring.ring(), NodeId(0), NodeId(3), 6) {
            assert!(ring.inject(NodeId(0), quad, &frame));
        }
        ring.run_until_idle(200);
        let frames = ring.received_frames();
        assert_eq!(frames.len(), 1);
        assert_eq!(frames[0].node, NodeId(3));
        assert_eq!(frames[0].src, NodeId(0));
        assert_eq!(frames[0].len, 6);
    }

    #[test]
    fn antipodal_unicast_uses_cross_link() {
        let mut ring = RingRtl::new(16);
        for (quad, frame) in unicast_frames(ring.ring(), NodeId(5), NodeId(13), 4) {
            assert_eq!(quad, 1, "antipode is cross-right");
            assert!(ring.inject(NodeId(5), quad, &frame));
        }
        ring.run_until_idle(100);
        let frames = ring.received_frames();
        assert_eq!(frames.len(), 1);
        assert_eq!(frames[0].node, NodeId(13));
    }

    #[test]
    fn broadcast_reaches_every_node_exactly_once() {
        for n in [8usize, 16] {
            let mut ring = RingRtl::new(n);
            for (quad, frame) in broadcast_frames(ring.ring(), NodeId(2), 4) {
                assert!(ring.inject(NodeId(2), quad, &frame));
            }
            ring.run_until_idle(400);
            let frames = ring.received_frames();
            assert_eq!(frames.len(), n - 1, "n={n}");
            let receivers: HashSet<NodeId> = frames.iter().map(|f| f.node).collect();
            assert_eq!(receivers.len(), n - 1, "n={n}: duplicate deliveries");
            assert!(!receivers.contains(&NodeId(2)));
            assert!(frames.iter().all(|f| f.len == 4));
        }
    }

    #[test]
    fn multicast_reaches_exactly_the_targets() {
        let mut ring = RingRtl::new(16);
        let targets = [NodeId(2), NodeId(7), NodeId(8), NodeId(12)];
        for (quad, frame) in multicast_frames(ring.ring(), NodeId(0), &targets, 4) {
            assert!(ring.inject(NodeId(0), quad, &frame));
        }
        ring.run_until_idle(400);
        let receivers: HashSet<NodeId> = ring.received_frames().iter().map(|f| f.node).collect();
        assert_eq!(receivers, targets.iter().copied().collect());
    }

    #[test]
    fn concurrent_broadcasts_from_all_nodes() {
        let n = 8;
        let mut ring = RingRtl::new(n);
        for s in 0..n {
            for (quad, frame) in broadcast_frames(ring.ring(), NodeId::new(s), 3) {
                assert!(ring.inject(NodeId::new(s), quad, &frame));
            }
        }
        ring.run_until_idle(2_000);
        let frames = ring.received_frames();
        assert_eq!(frames.len(), n * (n - 1));
        // Each (src, receiver) pair exactly once.
        let pairs: HashSet<(NodeId, NodeId)> = frames.iter().map(|f| (f.src, f.node)).collect();
        assert_eq!(pairs.len(), n * (n - 1));
    }

    #[test]
    fn broadcast_latency_is_pipeline_not_store_and_forward() {
        // Signal-level check of the paper's headline: completion time stays
        // near q + M, far below the (n−1)-hop chain cost.
        let n = 16;
        let m = 8;
        let mut ring = RingRtl::new(n);
        for (quad, frame) in broadcast_frames(ring.ring(), NodeId(0), m) {
            ring.inject(NodeId(0), quad, &frame);
        }
        ring.run_until_idle(500);
        let last = ring.received_frames().iter().map(|f| f.completed_at).max().unwrap();
        let pipeline_bound = (n as u64 / 4) + m as u64 + 8; // slack for handshake stages
        assert!(
            last <= pipeline_bound,
            "completion {last} exceeds pipeline bound {pipeline_bound}"
        );
    }

    #[test]
    fn stalled_receiver_is_absorbed_losslessly() {
        // A broadcast is in flight while node 2's rim-cw input refuses
        // everything for 40 cycles: LocalLink back-pressure must hold the
        // stream upstream and deliver every word afterwards.
        let mut ring = RingRtl::new(16);
        ring.inject_stall(NodeId(2), 0, 1, 41);
        for (quad, frame) in broadcast_frames(ring.ring(), NodeId(0), 6) {
            assert!(ring.inject(NodeId(0), quad, &frame));
        }
        ring.run_until_idle(1_000);
        let frames = ring.received_frames();
        assert_eq!(frames.len(), 15);
        assert!(frames.iter().all(|f| f.len == 6));
        // Deliveries behind the stalled port completed after the window.
        let at2 = frames.iter().find(|f| f.node == NodeId(2)).unwrap();
        assert!(at2.completed_at >= 41, "node 2 completed during its stall");
    }

    #[test]
    fn stall_on_cross_input_delays_only_that_branch() {
        let mut ring = RingRtl::new(16);
        // Stall the antipode's cross-right input.
        ring.inject_stall(NodeId(8), 2, 1, 61);
        for (quad, frame) in broadcast_frames(ring.ring(), NodeId(0), 4) {
            assert!(ring.inject(NodeId(0), quad, &frame));
        }
        ring.run_until_idle(1_000);
        let frames = ring.received_frames();
        assert_eq!(frames.len(), 15);
        // The rim branches (e.g. node 1) finished long before the stalled
        // cross-right branch (node 9 sits behind the stalled input).
        let rim = frames.iter().find(|f| f.node == NodeId(1)).unwrap();
        let cross = frames.iter().find(|f| f.node == NodeId(9)).unwrap();
        assert!(rim.completed_at < 30, "rim branch was delayed: {}", rim.completed_at);
        assert!(cross.completed_at >= 61, "cross branch ignored the stall");
    }

    #[test]
    fn opposing_unicasts_share_the_ring() {
        let mut ring = RingRtl::new(16);
        for s in 0..16u32 {
            let dst = NodeId((s + 3) % 16);
            for (quad, frame) in unicast_frames(ring.ring(), NodeId(s), dst, 5) {
                assert!(ring.inject(NodeId(s), quad, &frame));
            }
        }
        ring.run_until_idle(1_000);
        assert_eq!(ring.received_frames().len(), 16);
    }
}
