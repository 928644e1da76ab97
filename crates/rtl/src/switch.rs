//! The complete Quarc switch at signal level (paper Fig. 4).
//!
//! Composition per the paper's block diagram: each network input port is an
//! IPC (write controller + two buffer lanes + VC arbiter) feeding an FCU;
//! the four local ingress queues (the transceiver's quadrant buffers) feed
//! dedicated paths; four OPCs schedule the network outputs. There is no
//! output buffering, no routing logic beyond "local or straight on", and the
//! ingress multiplexer clones flits for broadcast — all three of the paper's
//! §2.2 modifications are visible in the wiring.
//!
//! Flow control: `ch_status_n` reports a lane not-ready when fewer than two
//! slots are free, because a word can be committed upstream in the same
//! cycle and another is potentially in the link register (one-cycle status
//! skew); the two-slot reserve makes overflow impossible, and the FIFOs
//! panic if that invariant is ever violated.

use crate::fcu::{word_kind, Fcu, FcuReq, OutSel};
use crate::fifo::SyncFifo;
use crate::opc::{Opc, OpcGrant, OpcReq};
use crate::signals::{LlFwd, LlRev, NUM_VCS};
use crate::vc_arbiter::VcArbiter;
use crate::write_ctrl::WriteController;
use quarc_core::bits::Bits;
use quarc_core::flit::wire::{decode, encode, WireFlit};
use quarc_core::flit::{FlitKind, PacketMeta, TrafficClass};
use quarc_core::ids::{MessageId, NodeId, PacketId, VcId};
use quarc_core::ring::{Ring, RingDir};
use quarc_core::routing::{quarc_route, RouteAction};
use quarc_core::topology::{QuarcIn, QuarcOut, QuarcTopology};
use quarc_core::vc::{vc_after_rim_hop, INJECTION_VC};

/// Network input/output port count.
const NET_PORTS: usize = 4;
/// Input-buffer lane depth in words.
const LANE_DEPTH: usize = 4;
/// Local quadrant queue capacity in words.
const LOCAL_DEPTH: usize = 256;
/// VC-arbiter fairness timeout.
const ARB_TIMEOUT: u32 = 4;

/// Network input ports in index order.
const NET_IN: [QuarcIn; 4] =
    [QuarcIn::RimCw, QuarcIn::RimCcw, QuarcIn::CrossRight, QuarcIn::CrossLeft];
/// Network output ports in index order.
const NET_OUT: [QuarcOut; 4] =
    [QuarcOut::RimCw, QuarcOut::RimCcw, QuarcOut::CrossRight, QuarcOut::CrossLeft];

/// A feeder of an output port: a network input or a local quadrant queue.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Feeder {
    Net(usize),
    Local(usize),
}

/// Signals entering the switch this cycle.
#[derive(Debug, Clone, Copy)]
pub struct SwitchStepIn {
    /// Forward bundles arriving on the four network inputs.
    pub fwd: [LlFwd; 4],
    /// Reverse bundles from the four downstream receivers of our outputs.
    pub rev: [LlRev; 4],
}

/// A word absorbed by the local PE this cycle.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Delivery {
    /// Network input port it was absorbed from.
    pub port: usize,
    /// VC lane within that port.
    pub lane: usize,
    /// The 34-bit word.
    pub word: u64,
}

/// Signals leaving the switch this cycle.
#[derive(Debug, Clone)]
pub struct SwitchStepOut {
    /// Forward bundles driven onto the four network outputs.
    pub fwd: [LlFwd; 4],
    /// Words absorbed by the local PE (up to one per input port; clones
    /// appear here in the same cycle their twin is forwarded).
    pub deliveries: Vec<Delivery>,
}

/// Resolve a header word to its crossbar setting at `node`.
fn route_word(ring: &Ring, node: NodeId, port: usize, word: u64) -> OutSel {
    let WireFlit::Header { class, dir, bitstring, src, dst } =
        decode(word).expect("valid header word")
    else {
        panic!("route_word called on a non-header word");
    };
    let meta = PacketMeta {
        message: MessageId(0),
        packet: PacketId(0),
        class,
        src,
        dst,
        bitstring: Bits::inline(bitstring as u64),
        dir,
        len: 2,
        created_at: 0,
    };
    match quarc_route(ring, node, NET_IN[port], &meta) {
        RouteAction::Deliver => OutSel { deliver: true, forward: None },
        RouteAction::Forward(out) => OutSel { deliver: false, forward: Some(out.index()) },
        RouteAction::DeliverAndForward(out) => OutSel { deliver: true, forward: Some(out.index()) },
    }
}

/// The dateline VC a packet must take on a rim output (`None` on cross
/// outputs, which are acyclic and use the paper's dynamic allocation).
///
/// Rim lane indices coincide with the packet's dateline class (upstream
/// always sends on the required VC), so the class is the arriving lane for
/// rim inputs and resets to VC0 after a cross hop or at injection.
fn required_vc(ring: &Ring, node: NodeId, out: usize, in_class: VcId) -> Option<usize> {
    match out {
        0 => Some(vc_after_rim_hop(ring, node, RingDir::Cw, in_class).index()),
        1 => Some(vc_after_rim_hop(ring, node, RingDir::Ccw, in_class).index()),
        _ => None,
    }
}

/// Shift a multicast header's bitstring one hop (§2.5.3); other headers pass
/// through unchanged.
fn advance_header_word(word: u64) -> u64 {
    match decode(word) {
        Some(WireFlit::Header { class: TrafficClass::Multicast, dir, bitstring, src, dst }) => {
            let meta = PacketMeta {
                message: MessageId(0),
                packet: PacketId(0),
                class: TrafficClass::Multicast,
                src,
                dst,
                bitstring: Bits::inline((bitstring >> 1) as u64),
                dir,
                len: 2,
                created_at: 0,
            };
            encode(&meta, FlitKind::Header, 0)
        }
        _ => word,
    }
}

/// The signal-level Quarc switch.
#[derive(Debug)]
pub struct QuarcSwitchRtl {
    node: NodeId,
    ring: Ring,
    wc: [WriteController; 4],
    lanes: Vec<[SyncFifo; NUM_VCS]>,
    arb: [VcArbiter; 4],
    fcu: [Fcu; 4],
    local_q: [SyncFifo; 4],
    opc: [Opc; 4],
    feeders: Vec<Vec<Feeder>>,
}

impl QuarcSwitchRtl {
    /// A switch for `node` of an `n`-node Quarc.
    pub fn new(node: NodeId, n: usize) -> Self {
        assert!(n >= 4 && n.is_multiple_of(4));
        let feeders = NET_OUT
            .iter()
            .map(|&o| {
                QuarcTopology::feeders(o)
                    .iter()
                    .map(|&f| match f {
                        QuarcIn::Local(q) => Feeder::Local(q.index()),
                        other => Feeder::Net(other.index()),
                    })
                    .collect::<Vec<_>>()
            })
            .collect::<Vec<_>>();
        QuarcSwitchRtl {
            node,
            ring: Ring::new(n),
            wc: Default::default(),
            lanes: (0..4).map(|_| [SyncFifo::new(LANE_DEPTH), SyncFifo::new(LANE_DEPTH)]).collect(),
            arb: [
                VcArbiter::new(ARB_TIMEOUT),
                VcArbiter::new(ARB_TIMEOUT),
                VcArbiter::new(ARB_TIMEOUT),
                VcArbiter::new(ARB_TIMEOUT),
            ],
            fcu: Default::default(),
            local_q: [
                SyncFifo::new(LOCAL_DEPTH),
                SyncFifo::new(LOCAL_DEPTH),
                SyncFifo::new(LOCAL_DEPTH),
                SyncFifo::new(LOCAL_DEPTH),
            ],
            opc: feeders.iter().map(|f| Opc::new(f.len())).collect::<Vec<_>>().try_into().unwrap(),
            feeders,
        }
    }

    /// The `ch_status_n`/`dst_rdy_n` this switch presents on input `port`
    /// (two-slot reserve, see module docs).
    pub fn ch_status(&self, port: usize) -> LlRev {
        let mut ch = [true; NUM_VCS];
        for (vc, lane) in self.lanes[port].iter().enumerate() {
            ch[vc] = LANE_DEPTH - lane.len() < 2;
        }
        LlRev { dst_rdy_n: false, ch_status_n: ch }
    }

    /// Queue a frame's words into a local quadrant buffer (the transceiver
    /// side). Returns `false` (and queues nothing) if the buffer lacks room.
    pub fn inject(&mut self, quad: usize, words: &[u64]) -> bool {
        if LOCAL_DEPTH - self.local_q[quad].len() < words.len() {
            return false;
        }
        for &w in words {
            self.local_q[quad].tick(Some(w), false);
        }
        true
    }

    /// Whether every buffer in the switch is empty.
    pub fn is_idle(&self) -> bool {
        self.lanes.iter().all(|p| p.iter().all(SyncFifo::is_empty))
            && self.local_q.iter().all(SyncFifo::is_empty)
    }

    /// Advance one clock cycle.
    // Index loops mirror the hardware port numbering across several arrays.
    #[allow(clippy::needless_range_loop)]
    pub fn step(&mut self, input: &SwitchStepIn) -> SwitchStepOut {
        // --- combinational phase (start-of-cycle state) ---

        // IPC write side.
        let mut push_plan: [Option<(usize, u64)>; 4] = [None; 4];
        for p in 0..NET_PORTS {
            let wo = self.wc[p].comb(&input.fwd[p]);
            if wo.write_enable {
                push_plan[p] = Some((wo.lane, input.fwd[p].data));
            }
        }

        // Per-port VC arbitration + FCU request.
        let mut has_flit = [[false; NUM_VCS]; 4];
        let mut actions: [Option<FcuReq>; 4] = [None; 4];
        let (ring, node) = (self.ring, self.node);
        for p in 0..NET_PORTS {
            has_flit[p] = [!self.lanes[p][0].empty(), !self.lanes[p][1].empty()];
            let lane = self.arb[p].granted(has_flit[p]);
            let head = lane.and_then(|l| self.lanes[p][l].head());
            actions[p] = self.fcu[p].comb(lane, head, |w| route_word(&ring, node, p, w));
        }

        // OPC arbitration.
        let mut grants: [Option<(OpcGrant, OpcReq, Feeder)>; 4] = [None; 4];
        for o in 0..NET_PORTS {
            let reqs: Vec<Option<OpcReq>> = self.feeders[o]
                .iter()
                .map(|&f| match f {
                    Feeder::Net(p) => actions[p].as_ref().and_then(|r| {
                        // Rim inputs carry their dateline class in the lane
                        // index; cross inputs reset to the injection class.
                        let in_class = if p < 2 { VcId(r.lane as u8) } else { INJECTION_VC };
                        (r.sel.forward == Some(o)).then_some(OpcReq {
                            lane: r.lane,
                            is_header: r.is_header,
                            is_tail: r.is_tail,
                            required_vc: required_vc(&ring, node, o, in_class),
                        })
                    }),
                    Feeder::Local(q) => self.local_q[q].head().map(|w| {
                        let kind = word_kind(w);
                        OpcReq {
                            lane: 0,
                            is_header: matches!(kind, FlitKind::Header | FlitKind::Single),
                            is_tail: matches!(kind, FlitKind::Tail | FlitKind::Single),
                            required_vc: required_vc(&ring, node, o, INJECTION_VC),
                        }
                    }),
                })
                .collect();
            if let Some(grant) = self.opc[o].comb(&reqs, &input.rev[o]) {
                let req = reqs[grant.req].expect("granted requester exists");
                grants[o] = Some((grant, req, self.feeders[o][grant.req]));
            }
        }

        // --- execution phase ---
        let mut out_fwd = [LlFwd::IDLE; 4];
        let mut deliveries = Vec::new();
        let mut pop_net: [Option<usize>; 4] = [None; 4];
        let mut pop_local = [false; 4];

        // Pure absorptions: the all-port router sinks them in parallel.
        for p in 0..NET_PORTS {
            if let Some(r) = &actions[p] {
                if r.sel.forward.is_none() {
                    debug_assert!(r.sel.deliver);
                    deliveries.push(Delivery { port: p, lane: r.lane, word: r.word });
                    pop_net[p] = Some(r.lane);
                    let r = *r;
                    self.fcu[p].commit(&r);
                }
            }
        }

        // Granted forwards.
        for o in 0..NET_PORTS {
            let Some((grant, opc_req, feeder)) = grants[o] else { continue };
            match feeder {
                Feeder::Net(p) => {
                    let r = actions[p].expect("grant implies request");
                    let wire = if r.is_header { advance_header_word(r.word) } else { r.word };
                    out_fwd[o] = LlFwd::beat(wire, r.is_header, r.is_tail, grant.vc as u8);
                    if r.sel.deliver {
                        // Ingress-mux clone: local copy in the same cycle.
                        deliveries.push(Delivery { port: p, lane: r.lane, word: r.word });
                    }
                    pop_net[p] = Some(r.lane);
                    self.fcu[p].commit(&r);
                }
                Feeder::Local(q) => {
                    let w = self.local_q[q].head().expect("grant implies a word");
                    out_fwd[o] = LlFwd::beat(w, opc_req.is_header, opc_req.is_tail, grant.vc as u8);
                    pop_local[q] = true;
                }
            }
            self.opc[o].commit(&grant, &opc_req);
        }

        // --- clock edge ---
        for p in 0..NET_PORTS {
            for l in 0..NUM_VCS {
                let push = push_plan[p].and_then(|(lane, w)| (lane == l).then_some(w));
                let pop = pop_net[p] == Some(l);
                self.lanes[p][l].tick(push, pop);
            }
            self.wc[p].tick(&input.fwd[p]);
            self.arb[p].tick(has_flit[p]);
        }
        for q in 0..4 {
            if pop_local[q] {
                self.local_q[q].tick(None, true);
            }
        }

        SwitchStepOut { fwd: out_fwd, deliveries }
    }
}

#[cfg(test)]
mod tests {
    // `cycle` loops are clocks that outlive the frames they index.
    #![allow(clippy::needless_range_loop)]
    use super::*;
    use crate::xcvr::build_frame;

    fn ready_in(fwd: [LlFwd; 4]) -> SwitchStepIn {
        SwitchStepIn { fwd, rev: [LlRev::READY; 4] }
    }

    #[test]
    fn local_unicast_streams_out_the_right_port() {
        // Node 0 of a 16-ring sends to node 2: right quadrant → RimCw out.
        let mut sw = QuarcSwitchRtl::new(NodeId(0), 16);
        let frame = build_frame(TrafficClass::Unicast, NodeId(0), NodeId(2), 0, 4);
        assert!(sw.inject(0, &frame)); // quadrant Right = index 0
        let mut sent = Vec::new();
        for _ in 0..10 {
            let out = sw.step(&ready_in([LlFwd::IDLE; 4]));
            if out.fwd[0].valid() {
                sent.push(out.fwd[0]);
            }
            assert!(!out.fwd[1].valid() && !out.fwd[2].valid() && !out.fwd[3].valid());
        }
        assert_eq!(sent.len(), 4, "all four words leave on rim-cw");
        assert!(!sent[0].sof_n, "first word flagged SOF");
        assert!(!sent[3].eof_n, "last word flagged EOF");
        assert!(sw.is_idle());
    }

    #[test]
    fn arriving_unicast_for_me_is_absorbed() {
        let mut sw = QuarcSwitchRtl::new(NodeId(3), 16);
        let frame = build_frame(TrafficClass::Unicast, NodeId(1), NodeId(3), 0, 3);
        // Drive the frame in on the rim-cw input (port 0), one word per cycle.
        let mut delivered = Vec::new();
        for cycle in 0..12 {
            let fwd0 = if cycle < 3 {
                LlFwd::beat(frame[cycle], cycle == 0, cycle == 2, 0)
            } else {
                LlFwd::IDLE
            };
            let out = sw.step(&ready_in([fwd0, LlFwd::IDLE, LlFwd::IDLE, LlFwd::IDLE]));
            delivered.extend(out.deliveries);
            for o in 0..4 {
                assert!(!out.fwd[o].valid(), "nothing should be forwarded");
            }
        }
        assert_eq!(delivered.len(), 3);
        assert_eq!(delivered[0].word, frame[0]);
        assert!(sw.is_idle());
    }

    #[test]
    fn broadcast_clones_deliver_and_forward() {
        // A broadcast stream passing through node 1 (dst 4): every word must
        // be both delivered and forwarded on rim-cw.
        let mut sw = QuarcSwitchRtl::new(NodeId(1), 16);
        let frame = build_frame(TrafficClass::Broadcast, NodeId(0), NodeId(4), 0, 4);
        let mut delivered = 0;
        let mut forwarded = 0;
        for cycle in 0..14 {
            let fwd0 = if cycle < 4 {
                LlFwd::beat(frame[cycle], cycle == 0, cycle == 3, 0)
            } else {
                LlFwd::IDLE
            };
            let out = sw.step(&ready_in([fwd0, LlFwd::IDLE, LlFwd::IDLE, LlFwd::IDLE]));
            delivered += out.deliveries.len();
            if out.fwd[0].valid() {
                forwarded += 1;
            }
        }
        assert_eq!(delivered, 4, "local copy of every word");
        assert_eq!(forwarded, 4, "forwarded copy of every word");
        assert!(sw.is_idle());
    }

    #[test]
    fn cross_left_input_transits_without_copy() {
        // Broadcast stream arriving on cross-left at the antipode must be
        // forwarded to rim-ccw with no local delivery (§2.3.2's asymmetry).
        let mut sw = QuarcSwitchRtl::new(NodeId(8), 16);
        let frame = build_frame(TrafficClass::Broadcast, NodeId(0), NodeId(5), 0, 3);
        let mut delivered = 0;
        let mut forwarded = 0;
        for cycle in 0..10 {
            let fwd3 = if cycle < 3 {
                LlFwd::beat(frame[cycle], cycle == 0, cycle == 2, 0)
            } else {
                LlFwd::IDLE
            };
            let out = sw.step(&ready_in([LlFwd::IDLE, LlFwd::IDLE, LlFwd::IDLE, fwd3]));
            delivered += out.deliveries.len();
            if out.fwd[1].valid() {
                forwarded += 1;
            }
        }
        assert_eq!(delivered, 0);
        assert_eq!(forwarded, 3);
    }

    #[test]
    fn backpressure_stalls_output() {
        let mut sw = QuarcSwitchRtl::new(NodeId(0), 16);
        let frame = build_frame(TrafficClass::Unicast, NodeId(0), NodeId(2), 0, 4);
        sw.inject(0, &frame);
        // Downstream cannot accept anything.
        let stalled = SwitchStepIn { fwd: [LlFwd::IDLE; 4], rev: [LlRev::STALLED; 4] };
        for _ in 0..5 {
            let out = sw.step(&stalled);
            assert!(!out.fwd[0].valid(), "must respect ch_status_n");
        }
        // Release: the frame flows.
        let mut words = 0;
        for _ in 0..10 {
            let out = sw.step(&ready_in([LlFwd::IDLE; 4]));
            if out.fwd[0].valid() {
                words += 1;
            }
        }
        assert_eq!(words, 4);
    }

    #[test]
    fn ch_status_reserves_two_slots() {
        let sw = QuarcSwitchRtl::new(NodeId(0), 16);
        let st = sw.ch_status(0);
        assert!(st.vc_ready(0) && st.vc_ready(1), "empty lanes are ready");
    }

    #[test]
    fn multicast_header_bitstring_shifts_on_forward() {
        let h = build_frame(TrafficClass::Multicast, NodeId(0), NodeId(4), 0b1010, 2)[0];
        let shifted = advance_header_word(h);
        match decode(shifted).unwrap() {
            WireFlit::Header { bitstring, .. } => assert_eq!(bitstring, 0b101),
            other => panic!("{other:?}"),
        }
        // Non-multicast headers unchanged.
        let b = build_frame(TrafficClass::Broadcast, NodeId(0), NodeId(4), 0, 2)[0];
        assert_eq!(advance_header_word(b), b);
    }
}
