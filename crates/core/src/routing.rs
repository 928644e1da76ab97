//! The routing function — the [`Routing`] trait every topology implements —
//! with the per-hop decisions of the Quarc and Spidergon switches, and the
//! Spidergon broadcast-by-unicast replication plan.
//!
//! [`Routing`] is the one description of routing in the workspace: the
//! simulator (`quarc-sim`) routes every header through it, the deadlock
//! proofs ([`crate::vc::channel_graph`]) and the analytical link loads
//! (`quarc-analytical`) follow its [`Routing::walk`].
//!
//! The Quarc decision (§2.5.1) is deliberately trivial — "packets are either
//! destined for the local port or forwarded to a single possible destination"
//! — because the source transceiver already picked the quadrant. The only
//! state a Quarc switch inspects is: *did the header's destination address
//! match my own?* plus, for collectives, the broadcast tag / multicast
//! bitstring that tells the ingress multiplexer to clone.
//!
//! The Spidergon decision is the classical across-first scheme, and its
//! broadcast is the paper's ref. [9] algorithm: a replication *chain* that
//! costs N−1 link traversals, each one a full store-and-forward through the
//! receiving node's single injection port.

use crate::bits::{BitSlab, Bits};
use crate::flit::{PacketMeta, TrafficClass};
use crate::ids::{NodeId, VcId};
use crate::quadrant::{quadrant_of, Quadrant};
use crate::ring::{Ring, RingDir};
use crate::topology::{QuarcIn, QuarcOut, QuarcTopology, SpiOut, SpidergonTopology};
use crate::vc::{vc_after_rim_hop, INJECTION_VC};

/// [`Route::out`] of a header the PE sinks without claiming any output: an
/// all-port router's parallel absorption (the simulator also uses it for a
/// fault-dropped forward).
pub const ABSORB: u8 = u8::MAX;

/// A per-hop routing decision for one header.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Route {
    /// The local PE takes a copy at the ingress multiplexer.
    pub deliver: bool,
    /// `0..PORTS` = forward on that link; `PORTS` = the arbitrated ejection
    /// port of a one-port router; [`ABSORB`] = sink here without
    /// arbitration.
    pub out: u8,
    /// VC on the outgoing link (meaningless unless forwarding).
    pub out_vc: VcId,
}

/// A topology's routing function over port indices: its wiring, the route
/// of a header at a network input or a local queue, and the queue a unicast
/// enters. Routes are pure and read a multicast bitstring's bit 0 only.
pub trait Routing {
    /// Network ports per router (outgoing links; equally, link inputs).
    const PORTS: usize;

    /// Router count.
    fn num_nodes(&self) -> usize;
    /// Where the link leaving `node` through `out` lands, as `(node, input
    /// port)`; `None` for a vacant slot (a mesh edge).
    fn link_target(&self, node: usize, out: usize) -> Option<(usize, usize)>;
    /// Route the header at the head of network input lane `(port, vc)`.
    fn route_net(&self, node: usize, port: usize, vc: usize, meta: &PacketMeta) -> Route;
    /// Route the header at the head of local queue `queue`.
    fn route_local(&self, node: usize, queue: usize, meta: &PacketMeta) -> Route;
    /// The local queue a unicast from `src` to `dst` enters.
    fn unicast_queue(&self, _src: NodeId, _dst: NodeId) -> usize {
        0
    }

    /// Follow a header from `node`, where it was routed `route` out of a
    /// network lane (`from_net`) or a local queue, to its terminal:
    /// `visit(node, hop)` for each hop onto a link, in order. The terminal
    /// decision (`out ≥ PORTS`) is not a hop. A multicast bitstring is read
    /// through `bit_at` offsets, never shifted, so `meta` may alias a live
    /// packet's slab row.
    fn walk(
        &self,
        bits: &BitSlab,
        mut node: usize,
        from_net: bool,
        mut route: Route,
        meta: &PacketMeta,
        mut visit: impl FnMut(usize, Route),
    ) {
        // Bitstrings advance at every forward out of a network lane, never
        // out of a local queue: `shift` is the offset of the next node's bit.
        let (mut view, mut shift) = (*meta, usize::from(from_net));
        while (route.out as usize) < Self::PORTS {
            visit(node, route);
            let (to, port) = self.link_target(node, route.out as usize).expect("a wired link");
            if meta.class == TrafficClass::Multicast {
                view.bitstring = Bits::inline(u64::from(bits.bit_at(meta.bitstring, shift)));
            }
            route = self.route_net(to, port, route.out_vc.index(), &view);
            (node, shift) = (to, shift + 1);
        }
    }

    /// [`Routing::walk`] a unicast from `src` to `dst` from its injection on
    /// [`Routing::unicast_queue`].
    fn walk_unicast(&self, src: NodeId, dst: NodeId, visit: impl FnMut(usize, Route)) {
        let meta = PacketMeta::header(TrafficClass::Unicast, src, dst);
        let route = self.route_local(src.index(), self.unicast_queue(src, dst), &meta);
        self.walk(&BitSlab::inline_only(), src.index(), false, route, &meta, visit);
    }
}

/// What a switch does with an arriving header (and, by wormhole state, with
/// the body and tail flits that follow it).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum RouteAction<Out> {
    /// Absorb the packet into the local PE.
    Deliver,
    /// Forward on the given output port.
    Forward(Out),
    /// Clone at the ingress multiplexer: the local PE takes a copy *and* the
    /// flit continues on the given output port (§2.5.2: "the flits of the
    /// packet at the same time are received by the local node and forwarded
    /// along the rim").
    DeliverAndForward(Out),
}

impl<Out: Copy> RouteAction<Out> {
    /// Whether the local PE receives a copy.
    #[inline]
    pub fn delivers(&self) -> bool {
        matches!(self, RouteAction::Deliver | RouteAction::DeliverAndForward(_))
    }
}

/// The output port a Quarc local ingress (quadrant) queue feeds — the entire
/// "routing" a source-injected flit needs (§2.5.1).
#[inline]
fn quarc_injection_out(quad: Quadrant) -> QuarcOut {
    match quad {
        Quadrant::Right => QuarcOut::RimCw,
        Quadrant::CrossRight => QuarcOut::CrossRight,
        Quadrant::CrossLeft => QuarcOut::CrossLeft,
        Quadrant::Left => QuarcOut::RimCcw,
    }
}

/// The Quarc switch decision for a header arriving on `input` at `node`.
///
/// Matches the paper's §2.3.2/§2.5: rim and cross-right inputs may deliver or
/// continue in the *same* direction; the cross-left input is transit-only;
/// local ingress ports go straight to their quadrant's link.
pub fn quarc_route(
    ring: &Ring,
    node: NodeId,
    input: QuarcIn,
    meta: &PacketMeta,
) -> RouteAction<QuarcOut> {
    let continue_out = match input {
        QuarcIn::Local(q) => return RouteAction::Forward(quarc_injection_out(q)),
        QuarcIn::RimCw => QuarcOut::RimCw,
        QuarcIn::RimCcw => QuarcOut::RimCcw,
        QuarcIn::CrossRight => QuarcOut::RimCw,
        QuarcIn::CrossLeft => {
            // Transit-only: the antipode is covered by the cross-right stream.
            debug_assert_ne!(meta.dst, node, "cross-left input never delivers");
            return RouteAction::Forward(QuarcOut::RimCcw);
        }
    };
    debug_assert_eq!(
        ring.len() % 4,
        0,
        "Quarc ring must be a multiple of 4 (checked at topology construction)"
    );
    if meta.dst == node {
        return RouteAction::Deliver;
    }
    match meta.class {
        TrafficClass::Broadcast => RouteAction::DeliverAndForward(continue_out),
        TrafficClass::Multicast => {
            // Free for slab-backed bitstrings too: handles cache bit 0.
            if meta.bitstring.bit0() {
                RouteAction::DeliverAndForward(continue_out)
            } else {
                RouteAction::Forward(continue_out)
            }
        }
        _ => RouteAction::Forward(continue_out),
    }
}

/// The across-first Spidergon routing function (paper §2.1 / ref. [5]).
///
/// `q = ⌊n/4⌋`; CW for `d ∈ [1, q]`, CCW for `d ∈ [n − q, n)`, cross
/// otherwise. The cross link is only ever taken as a first hop, so routes are
/// minimal and at most `1 + q` hops (for `d` just above `q`).
fn spidergon_route(ring: &Ring, node: NodeId, dst: NodeId) -> RouteAction<SpiOut> {
    if dst == node {
        return RouteAction::Deliver;
    }
    let n = ring.len();
    let q = n / 4;
    let d = ring.cw_dist(node, dst);
    if d <= q {
        RouteAction::Forward(SpiOut::RimCw)
    } else if d >= n - q {
        RouteAction::Forward(SpiOut::RimCcw)
    } else {
        RouteAction::Forward(SpiOut::Cross)
    }
}

/// Shortest-path hop count under Spidergon routing (`ring.len()` even).
pub fn spidergon_hops(ring: &Ring, src: NodeId, dst: NodeId) -> usize {
    let mut hops = 0;
    if src != dst {
        SpidergonTopology::new(ring.len()).walk_unicast(src, dst, |_, _| hops += 1);
    }
    hops
}

/// The VC on the hop out of ring node `node` through port `out` — 0 the CW
/// rim, 1 the CCW rim, higher a cross link, for Quarc and Spidergon alike —
/// for a header holding `cur` (injections hold [`INJECTION_VC`]). Cross
/// links are taken only as a route's first hop, so they stay on the
/// injection VC, which leaves the cross channels trivially acyclic (they
/// never feed another cross channel).
#[inline]
fn ring_hop_vc(ring: &Ring, node: usize, out: usize, cur: VcId) -> VcId {
    match out {
        0 => vc_after_rim_hop(ring, NodeId::new(node), RingDir::Cw, cur),
        1 => vc_after_rim_hop(ring, NodeId::new(node), RingDir::Ccw, cur),
        _ => INJECTION_VC,
    }
}

/// Quarc routing: no routing logic in the switch — every network hop is
/// [`quarc_route`], "local or straight on" — and a local queue is the
/// quadrant whose link it feeds (§2.4–2.5).
impl Routing for QuarcTopology {
    const PORTS: usize = 4;

    fn num_nodes(&self) -> usize {
        self.ring().len()
    }

    #[inline]
    fn link_target(&self, node: usize, out: usize) -> Option<(usize, usize)> {
        let (to, tin) = self.link_target(NodeId::new(node), QuarcOut::NETWORK[out])?;
        Some((to.index(), tin.index()))
    }

    #[inline]
    fn route_net(&self, node: usize, port: usize, vc: usize, meta: &PacketMeta) -> Route {
        let forward = |deliver, out: QuarcOut| Route {
            deliver,
            out: out.index() as u8,
            out_vc: ring_hop_vc(self.ring(), node, out.index(), VcId(vc as u8)),
        };
        match quarc_route(self.ring(), NodeId::new(node), QuarcIn::NETWORK[port], meta) {
            RouteAction::Deliver => Route { deliver: true, out: ABSORB, out_vc: INJECTION_VC },
            RouteAction::Forward(out) => forward(false, out),
            RouteAction::DeliverAndForward(out) => forward(true, out),
        }
    }

    #[inline]
    fn route_local(&self, node: usize, queue: usize, _meta: &PacketMeta) -> Route {
        let out = quarc_injection_out(Quadrant::ALL[queue]);
        let out_vc = ring_hop_vc(self.ring(), node, out.index(), INJECTION_VC);
        Route { deliver: false, out: out.index() as u8, out_vc }
    }

    /// The quadrant calculator (§2.4).
    fn unicast_queue(&self, src: NodeId, dst: NodeId) -> usize {
        quadrant_of(self.ring(), src, dst).index()
    }
}

/// Across-first route of a Spidergon header at `node` holding VC `cur`.
#[inline]
fn spidergon_hop(ring: &Ring, node: usize, meta: &PacketMeta, cur: VcId) -> Route {
    let (out, out_vc) = match spidergon_route(ring, NodeId::new(node), meta.dst) {
        // `SpiOut::Eject.index()` is 3 == PORTS, the ejection output.
        RouteAction::Deliver => (SpiOut::Eject.index(), INJECTION_VC),
        RouteAction::Forward(out) => (out.index(), ring_hop_vc(ring, node, out.index(), cur)),
        RouteAction::DeliverAndForward(_) => unreachable!("Spidergon switches cannot clone (§2.2)"),
    };
    Route { deliver: false, out: out as u8, out_vc }
}

/// Spidergon routing: across-first at every hop, one local queue.
impl Routing for SpidergonTopology {
    const PORTS: usize = 3;

    fn num_nodes(&self) -> usize {
        self.ring().len()
    }

    #[inline]
    fn link_target(&self, node: usize, out: usize) -> Option<(usize, usize)> {
        let (to, tin) = self.link_target(NodeId::new(node), SpiOut::NETWORK[out])?;
        Some((to.index(), tin.index()))
    }

    #[inline]
    fn route_net(&self, node: usize, _port: usize, vc: usize, meta: &PacketMeta) -> Route {
        spidergon_hop(self.ring(), node, meta, VcId(vc as u8))
    }

    #[inline]
    fn route_local(&self, node: usize, _queue: usize, meta: &PacketMeta) -> Route {
        debug_assert_ne!(meta.dst, NodeId::new(node), "self-message injected");
        spidergon_hop(self.ring(), node, meta, INJECTION_VC)
    }
}

/// One step of the Spidergon broadcast-by-unicast plan: a packet to inject.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ChainSeed {
    /// `ChainRim` (rim replication) or `ChainCross` (antipode seed).
    pub class: TrafficClass,
    /// Destination of this packet (always one routing hop's final target:
    /// the next rim neighbour or the antipode).
    pub dst: NodeId,
    /// Rim direction the chain propagates in (`Cw` placeholder for cross).
    pub dir: RingDir,
    /// Number of nodes the chain must still cover *after* `dst`; carried in
    /// the header's bitstring field and decremented at every re-injection
    /// (this is the paper's "header flit needs to be rewritten").
    pub remaining: u16,
}

/// The packets a Spidergon source injects to broadcast (ref. [9]'s N−1-hop
/// algorithm): one rim chain per direction covering `q = ⌊n/4⌋` nodes each,
/// plus a cross seed to the antipode whose receiver spawns two more rim
/// chains covering `r = n/2 − 1 − q` nodes each (`q − 1` when 4 divides `n`).
/// Total link traversals: `q + q + 1 + r + r = n − 1`, for every even `n`.
pub fn spidergon_broadcast_seeds(ring: &Ring, src: NodeId) -> [ChainSeed; 3] {
    let q = ring.quarter();
    let seed = |class, dst, dir, remaining: usize| ChainSeed {
        class,
        dst,
        dir,
        remaining: remaining as u16,
    };
    [
        seed(TrafficClass::ChainRim, ring.cw(src), RingDir::Cw, q - 1),
        seed(TrafficClass::ChainRim, ring.ccw(src), RingDir::Ccw, q - 1),
        seed(TrafficClass::ChainCross, ring.antipode(src), RingDir::Cw, ring.half() - 1 - q),
    ]
}

/// The packets a Spidergon *transceiver* re-injects when a chain packet is
/// delivered to it (the switch-side replication logic the paper describes in
/// §2.2: "The NoC switches must contain the logic to create the required
/// packets on receipt of a broadcast-by-unicast packet"), to `emit`: the next
/// link of a rim chain, or a rim chain each way from a cross seed's receiver
/// — none once the chain's count runs out. Replication runs inside the
/// simulator's per-cycle loop, so this allocates nothing.
pub fn chain_continuations(
    ring: &Ring,
    node: NodeId,
    meta: &PacketMeta,
    mut emit: impl FnMut(ChainSeed),
) {
    // Chain counters always fit inline (remaining ≤ n/2 < 2^16).
    if !meta.class.is_chain() || meta.bitstring.inline_value() == 0 {
        return;
    }
    let remaining = (meta.bitstring.inline_value() - 1) as u16;
    let mut rim = |dir| {
        emit(ChainSeed { class: TrafficClass::ChainRim, dst: ring.step(node, dir), dir, remaining })
    };
    if meta.class == TrafficClass::ChainRim {
        rim(meta.dir);
    } else {
        rim(RingDir::Cw);
        rim(RingDir::Ccw);
    }
}

/// Every packet of `src`'s broadcast chains — the three seeds, then each
/// continuation — with the node that injects it: the receiver of its
/// predecessor, as the simulator's replication logic does.
#[cfg(test)]
pub(crate) fn chain_packets(ring: &Ring, src: NodeId) -> Vec<(NodeId, PacketMeta)> {
    let mut pending = spidergon_broadcast_seeds(ring, src).map(|seed| (src, seed)).to_vec();
    let mut packets = Vec::new();
    while let Some((at, seed)) = pending.pop() {
        let bitstring = Bits::inline(u64::from(seed.remaining));
        let header = PacketMeta::header(seed.class, src, seed.dst);
        let meta = PacketMeta { bitstring, dir: seed.dir, ..header };
        chain_continuations(ring, seed.dst, &meta, |c| pending.push((seed.dst, c)));
        packets.push((at, meta));
    }
    packets
}

/// The nodes a packet injected on local queue `queue` of `meta.src`
/// delivers to, in visit order — each hop's `deliver` node, then the
/// terminal — by following [`Routing::walk`]: the oracle of the planner
/// tests. A multicast must deliver once per set bit.
#[cfg(test)]
pub(crate) fn walk_deliveries<R: Routing>(
    topo: &R,
    bits: &BitSlab,
    queue: usize,
    meta: &PacketMeta,
) -> Vec<NodeId> {
    let (src, mut nodes) = (meta.src.index(), Vec::new());
    let mut end = src;
    topo.walk(bits, src, false, topo.route_local(src, queue, meta), meta, |node, hop| {
        if hop.deliver {
            nodes.push(NodeId::new(node));
        }
        end = topo.link_target(node, hop.out.into()).expect("a wired link").0;
    });
    nodes.push(NodeId::new(end));
    if meta.class == TrafficClass::Multicast {
        assert_eq!(bits.popcount(meta.bitstring) as usize, nodes.len(), "bits past the terminal");
    }
    nodes
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::flit::PacketTable;
    use crate::ids::{MessageId, PacketId};
    use std::collections::HashSet;

    fn meta(class: TrafficClass, src: u32, dst: u32, bitstring: u64, dir: RingDir) -> PacketMeta {
        PacketMeta {
            message: MessageId(0),
            packet: PacketId(0),
            class,
            src: NodeId(src),
            dst: NodeId(dst),
            bitstring: crate::bits::Bits::inline(bitstring),
            dir,
            len: 4,
            created_at: 0,
        }
    }

    #[test]
    fn quarc_unicast_forwarding_and_delivery() {
        let ring = Ring::new(16);
        let m = meta(TrafficClass::Unicast, 0, 3, 0, RingDir::Cw);
        // At node 1 and 2 the header keeps moving CW; at 3 it delivers.
        assert_eq!(
            quarc_route(&ring, NodeId(1), QuarcIn::RimCw, &m),
            RouteAction::Forward(QuarcOut::RimCw)
        );
        assert_eq!(quarc_route(&ring, NodeId(3), QuarcIn::RimCw, &m), RouteAction::Deliver);
    }

    #[test]
    fn quarc_broadcast_clones_at_intermediates() {
        let ring = Ring::new(16);
        let m = meta(TrafficClass::Broadcast, 0, 4, 0, RingDir::Cw);
        assert_eq!(
            quarc_route(&ring, NodeId(2), QuarcIn::RimCw, &m),
            RouteAction::DeliverAndForward(QuarcOut::RimCw)
        );
        assert_eq!(quarc_route(&ring, NodeId(4), QuarcIn::RimCw, &m), RouteAction::Deliver);
    }

    #[test]
    fn quarc_cross_right_delivers_at_antipode_for_broadcast() {
        let ring = Ring::new(16);
        // Cross-right broadcast stream from 0: dst 11, first arrival at 8.
        let m = meta(TrafficClass::Broadcast, 0, 11, 0, RingDir::Cw);
        assert_eq!(
            quarc_route(&ring, NodeId(8), QuarcIn::CrossRight, &m),
            RouteAction::DeliverAndForward(QuarcOut::RimCw)
        );
    }

    #[test]
    fn quarc_cross_left_is_transit_only() {
        let ring = Ring::new(16);
        // Cross-left broadcast stream from 0: dst 5, passes node 8 silently.
        let m = meta(TrafficClass::Broadcast, 0, 5, 0, RingDir::Cw);
        assert_eq!(
            quarc_route(&ring, NodeId(8), QuarcIn::CrossLeft, &m),
            RouteAction::Forward(QuarcOut::RimCcw)
        );
    }

    #[test]
    fn quarc_local_ports_map_to_their_links() {
        let ring = Ring::new(16);
        let m = meta(TrafficClass::Unicast, 0, 3, 0, RingDir::Cw);
        for (quad, out) in [
            (Quadrant::Right, QuarcOut::RimCw),
            (Quadrant::Left, QuarcOut::RimCcw),
            (Quadrant::CrossRight, QuarcOut::CrossRight),
            (Quadrant::CrossLeft, QuarcOut::CrossLeft),
        ] {
            assert_eq!(
                quarc_route(&ring, NodeId(0), QuarcIn::Local(quad), &m),
                RouteAction::Forward(out)
            );
        }
    }

    #[test]
    fn multicast_bit0_controls_clone() {
        let ring = Ring::new(16);
        let hit = meta(TrafficClass::Multicast, 0, 4, 0b101, RingDir::Cw);
        let miss = meta(TrafficClass::Multicast, 0, 4, 0b100, RingDir::Cw);
        assert_eq!(
            quarc_route(&ring, NodeId(1), QuarcIn::RimCw, &hit),
            RouteAction::DeliverAndForward(QuarcOut::RimCw)
        );
        assert_eq!(
            quarc_route(&ring, NodeId(1), QuarcIn::RimCw, &miss),
            RouteAction::Forward(QuarcOut::RimCw)
        );
        // Forwarding shifts the bitstring: bit 0 now speaks for the next node.
        let mut table = PacketTable::new();
        let p = table.insert(hit);
        table.advance_header(p);
        assert_eq!(table.meta(p).bitstring, crate::bits::Bits::inline(0b10));
    }

    #[test]
    fn advance_header_only_touches_multicast() {
        let mut table = PacketTable::new();
        let p = table.insert(meta(TrafficClass::Broadcast, 0, 4, 0xFFFF, RingDir::Cw));
        table.advance_header(p);
        assert_eq!(table.meta(p).bitstring, crate::bits::Bits::inline(0xFFFF));
    }

    #[test]
    fn spidergon_route_matches_quadrants() {
        let ring = Ring::new(16);
        let s = NodeId(0);
        for (dst, want) in [
            (1u32, RouteAction::Forward(SpiOut::RimCw)),
            (4, RouteAction::Forward(SpiOut::RimCw)),
            (5, RouteAction::Forward(SpiOut::Cross)),
            (8, RouteAction::Forward(SpiOut::Cross)),
            (11, RouteAction::Forward(SpiOut::Cross)),
            (12, RouteAction::Forward(SpiOut::RimCcw)),
            (15, RouteAction::Forward(SpiOut::RimCcw)),
        ] {
            assert_eq!(spidergon_route(&ring, s, NodeId(dst)), want, "dst {dst}");
        }
        assert_eq!(spidergon_route(&ring, s, s), RouteAction::Deliver);
    }

    #[test]
    fn spidergon_routes_are_minimal_and_terminate() {
        for n in [8usize, 16, 32, 64] {
            let ring = Ring::new(n);
            let q = n / 4;
            for s in ring.nodes() {
                for t in ring.nodes() {
                    let h = spidergon_hops(&ring, s, t);
                    let d = ring.cw_dist(s, t);
                    let expect = if t == s {
                        0
                    } else if d <= q {
                        d
                    } else if d >= n - q {
                        n - d
                    } else {
                        // cross + rim remainder
                        1 + d.abs_diff(n / 2)
                    };
                    assert_eq!(h, expect, "n={n} {s}->{t}");
                    assert!(h <= q + 1);
                }
            }
        }
    }

    #[test]
    fn spidergon_path_crosses_at_most_once() {
        let topo = SpidergonTopology::new(32);
        for s in topo.ring().nodes() {
            for t in topo.ring().nodes().filter(|&t| t != s) {
                let mut crossings = 0;
                topo.walk_unicast(s, t, |_, hop| {
                    crossings += usize::from(hop.out as usize == SpiOut::Cross.index())
                });
                assert!(crossings <= 1, "{s}->{t}");
            }
        }
    }

    #[test]
    fn spidergon_quarc_same_unicast_distance() {
        // The Quarc keeps Spidergon's shortest paths (§2.2 "The Quarc
        // preserves all other features ... deterministic shortest path
        // routing algorithm").
        for n in [8usize, 16, 32, 64] {
            let ring = Ring::new(n);
            for s in ring.nodes() {
                for t in ring.nodes() {
                    assert_eq!(
                        spidergon_hops(&ring, s, t),
                        crate::quadrant::unicast_hops(&ring, s, t),
                        "n={n} {s}->{t}"
                    );
                }
            }
        }
    }

    /// Execute the full broadcast-by-unicast replication and check coverage
    /// and the N−1 total-hop claim.
    #[test]
    fn chain_broadcast_covers_all_nodes_in_n_minus_1_hops() {
        for n in [6usize, 8, 10, 16, 18, 32, 34, 64] {
            let ring = Ring::new(n);
            let src = NodeId(2 % n as u32);
            let mut covered = HashSet::new();
            let mut total_hops = 0usize;
            for (at, m) in chain_packets(&ring, src) {
                total_hops += spidergon_hops(&ring, at, m.dst);
                assert!(covered.insert(m.dst), "n={n}: {} covered twice", m.dst);
            }
            assert_eq!(covered.len(), n - 1, "n={n}");
            assert!(!covered.contains(&src));
            assert_eq!(total_hops, n - 1, "n={n}: paper claims N−1 link traversals");
        }
    }

    #[test]
    fn chain_continuation_terminates() {
        let ring = Ring::new(16);
        for m in [
            meta(TrafficClass::ChainRim, 0, 4, 0, RingDir::Cw),
            meta(TrafficClass::Unicast, 0, 4, 7, RingDir::Cw),
        ] {
            chain_continuations(&ring, NodeId(4), &m, |c| panic!("{m:?} continued as {c:?}"));
        }
    }

    #[test]
    fn route_action_accessors() {
        let a: RouteAction<SpiOut> = RouteAction::Deliver;
        assert!(a.delivers());
        let b = RouteAction::Forward(SpiOut::RimCw);
        assert!(!b.delivers());
        let c = RouteAction::DeliverAndForward(SpiOut::RimCw);
        assert!(c.delivers());
    }
}
