//! The dateline virtual-channel discipline that makes rim rings
//! deadlock-free, and the channel dependency graph that checks it.
//!
//! Each rim direction of a ring topology is a unidirectional cycle of
//! channels, so wormhole routing over a single channel class could deadlock.
//! The paper assigns **two virtual channels per physical link** (§2.1) — the
//! classical dateline scheme: packets are injected on VC0 and move to VC1
//! permanently once they traverse the dateline edge (CW edge `n−1 → 0`, CCW
//! edge `0 → n−1`). Because no packet travels more than `n/4 (+1)` hops it
//! crosses the dateline at most once. The torus applies the rule per
//! dimension ([`crate::grid`]).
//!
//! What is checked: [`channel_graph`] walks packets through a topology's
//! [`Routing`] — the routing the simulator runs — and the tests here, in
//! `torus::tests` and in `topology::tests` assert the graph acyclic for
//! every unicast, every Quarc broadcast branch, a fixed multicast target set
//! from every source and every packet of every Spidergon broadcast chain: at
//! every Quarc and Spidergon size up to 64 and on the mesh and torus shapes
//! of `tests/grid_digest.rs`. A chain packet counts as its own route, since
//! the receiving PE consumes it before re-injecting the next (the
//! consumption assumption). The same cases check that each topology's
//! [`TopologyKind::vcs`] is exactly the VCs its unicast routes use.

use crate::bits::BitSlab;
use crate::flit::PacketMeta;
use crate::ids::{NodeId, VcId};
use crate::ring::{Ring, RingDir};
use crate::routing::Routing;
use crate::topology::TopologyKind;
use std::collections::HashMap;

impl TopologyKind {
    /// Virtual channels per link, the one statement of the count: the
    /// dateline pair on every wrap ring (Quarc and Spidergon rims, torus rows
    /// and columns), [`INJECTION_VC`] alone under XY routing on the mesh.
    pub const fn vcs(self) -> usize {
        match self {
            TopologyKind::Mesh => 1,
            TopologyKind::Quarc | TopologyKind::Spidergon | TopologyKind::Torus => 2,
        }
    }
}

/// The most VCs any topology uses: the bound of per-VC scratch arrays.
pub const MAX_VCS: usize = TopologyKind::Quarc.vcs();

/// The VC on which all packets are injected.
pub const INJECTION_VC: VcId = VcId::VC0;

/// The VC a packet uses on the rim hop leaving `node` in direction `dir`,
/// given the VC it held before the hop. Crossing the dateline switches the
/// packet to VC1; it never switches back.
#[inline]
pub fn vc_after_rim_hop(ring: &Ring, node: NodeId, dir: RingDir, current: VcId) -> VcId {
    if ring.crosses_dateline(node, dir) {
        VcId::VC1
    } else {
        current
    }
}

/// A directed graph over virtual channels used to *prove* deadlock freedom of
/// a routing discipline: nodes are `(link, vc)` pairs, and an edge `a → b`
/// means some packet holds channel `a` while requesting channel `b`.
/// A wormhole network is deadlock-free if this graph is acyclic (Dally &
/// Seitz). [`channel_graph`] builds it from a topology's routes.
#[derive(Debug, Default)]
pub struct ChannelDepGraph {
    /// Adjacency: channel id → set of successor channel ids.
    edges: HashMap<(u64, VcId), Vec<(u64, VcId)>>,
}

impl ChannelDepGraph {
    /// Create an empty graph.
    pub fn new() -> Self {
        Self::default()
    }

    /// Record that a route holds `from` while requesting `to`. Link ids are
    /// caller-defined but must uniquely identify a physical channel.
    pub fn add_dependency(&mut self, from: (u64, VcId), to: (u64, VcId)) {
        let succs = self.edges.entry(from).or_default();
        if !succs.contains(&to) {
            succs.push(to);
        }
        self.edges.entry(to).or_default();
    }

    /// Record the channel sequence of a whole route (consecutive pairs become
    /// dependencies).
    fn add_route(&mut self, channels: &[(u64, VcId)]) {
        for w in channels.windows(2) {
            self.add_dependency(w[0], w[1]);
        }
        if let [only] = channels {
            self.edges.entry(*only).or_default();
        }
    }

    /// Whether the dependency graph contains a cycle. `false` means the
    /// routing discipline that produced it is deadlock-free.
    pub fn has_cycle(&self) -> bool {
        #[derive(Clone, Copy, PartialEq)]
        enum Mark {
            White,
            Grey,
            Black,
        }
        let mut marks: HashMap<(u64, VcId), Mark> =
            self.edges.keys().map(|&k| (k, Mark::White)).collect();
        // Iterative DFS with an explicit stack, colouring grey on entry.
        for &start in self.edges.keys() {
            if marks[&start] != Mark::White {
                continue;
            }
            let mut stack = vec![(start, 0usize)];
            marks.insert(start, Mark::Grey);
            while let Some(&mut (node, ref mut idx)) = stack.last_mut() {
                let succs = &self.edges[&node];
                if *idx < succs.len() {
                    let next = succs[*idx];
                    *idx += 1;
                    match marks[&next] {
                        Mark::Grey => return true,
                        Mark::White => {
                            marks.insert(next, Mark::Grey);
                            stack.push((next, 0));
                        }
                        Mark::Black => {}
                    }
                } else {
                    marks.insert(node, Mark::Black);
                    stack.pop();
                }
            }
        }
        false
    }
}

/// The channel dependency graph of `packets`, each a header `(node, local
/// queue, meta)` that [`Routing::walk`] follows from its injection. Channels
/// are `(node * PORTS + out, vc)`.
pub fn channel_graph<R: Routing>(
    topo: &R,
    bits: &BitSlab,
    packets: impl IntoIterator<Item = (usize, usize, PacketMeta)>,
) -> ChannelDepGraph {
    let (mut g, mut channels) = (ChannelDepGraph::new(), Vec::new());
    for (node, queue, meta) in packets {
        channels.clear();
        let route = topo.route_local(node, queue, &meta);
        topo.walk(bits, node, false, route, &meta, |at, hop| {
            channels.push(((at * R::PORTS + hop.out as usize) as u64, hop.out_vc))
        });
        g.add_route(&channels);
    }
    g
}

/// The fixed multicast target set of `tests/grid_digest.rs`: up to five
/// nodes spread over the address range, the source and duplicates left in.
#[cfg(test)]
pub(crate) fn fixed_targets(n: usize) -> Vec<NodeId> {
    [0, n / 3, n / 2, (2 * n) / 3 + 1, n - 1]
        .into_iter()
        .filter(|&i| i < n)
        .map(NodeId::new)
        .collect()
}

/// The one deadlock check every topology's tests instantiate: the channel
/// graph of every unicast of `topo`, plus the collective packets
/// `collectives` plans into the slab it is handed, is acyclic.
#[cfg(test)]
pub(crate) fn assert_deadlock_free<R: Routing>(
    name: &str,
    topo: &R,
    collectives: impl FnOnce(&mut BitSlab) -> Vec<(usize, usize, PacketMeta)>,
) {
    use crate::flit::TrafficClass;
    let n = topo.num_nodes();
    let mut bits = BitSlab::new(n);
    let mut packets = collectives(&mut bits);
    for s in (0..n).map(NodeId::new) {
        for t in (0..n).map(NodeId::new).filter(|&t| t != s) {
            let meta = PacketMeta::header(TrafficClass::Unicast, s, t);
            packets.push((s.index(), topo.unicast_queue(s, t), meta));
        }
    }
    assert!(
        !channel_graph(topo, &bits, packets).has_cycle(),
        "{name}: the channel graph has a cycle"
    );
}

/// The count [`TopologyKind::vcs`] states for `kind` is exactly the one
/// `topo`'s routing uses: every unicast hop holds a VC below it, and the
/// top one occurs (the count is not padded).
#[cfg(test)]
pub(crate) fn assert_vcs_exact<R: Routing>(name: &str, kind: TopologyKind, topo: &R) {
    let (n, mut used) = (topo.num_nodes(), 0);
    for s in (0..n).map(NodeId::new) {
        for t in (0..n).map(NodeId::new).filter(|&t| t != s) {
            topo.walk_unicast(s, t, |_, hop| used = used.max(hop.out_vc.index() + 1));
        }
    }
    assert_eq!(used, kind.vcs(), "{name}: the routing uses {used} VCs");
    assert!(kind.vcs() <= MAX_VCS, "{name}: MAX_VCS bounds every topology's count");
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::flit::TrafficClass;
    use crate::quadrant::{broadcast_branch_heads, multicast_branches_into};
    use crate::routing::chain_packets;
    use crate::topology::{QuarcTopology, SpidergonTopology};

    /// The VCs the unicast `src → dst` holds on its hops in a 16-node Quarc.
    fn quarc16_vcs(src: u32, dst: u32) -> Vec<VcId> {
        let mut vcs = Vec::new();
        QuarcTopology::new(16)
            .walk_unicast(NodeId(src), NodeId(dst), |_, hop| vcs.push(hop.out_vc));
        vcs
    }

    /// Every source's broadcast branches and fixed-target multicast
    /// branches, on their quadrant queues.
    fn quarc_collectives(
        topo: &QuarcTopology,
        bits: &mut BitSlab,
    ) -> Vec<(usize, usize, PacketMeta)> {
        let (ring, mut packets) = (topo.ring(), Vec::new());
        for s in ring.nodes() {
            for (quadrant, dst) in broadcast_branch_heads(ring, s).into_iter().flatten() {
                let meta = PacketMeta::header(TrafficClass::Broadcast, s, dst);
                packets.push((s.index(), quadrant.index(), meta));
            }
            multicast_branches_into(ring, s, fixed_targets(ring.len()), bits, |b| {
                let meta = PacketMeta::header(TrafficClass::Multicast, s, b.dst);
                packets.push((
                    s.index(),
                    b.quadrant.index(),
                    PacketMeta { bitstring: b.bitstring, ..meta },
                ));
            });
        }
        packets
    }

    /// Every source's broadcast chain packets, on the one local queue.
    fn spidergon_chains(topo: &SpidergonTopology) -> Vec<(usize, usize, PacketMeta)> {
        let ring = topo.ring();
        ring.nodes()
            .flat_map(|s| chain_packets(ring, s))
            .map(|(at, m)| (at.index(), 0, m))
            .collect()
    }

    #[test]
    fn dateline_switches_vc_exactly_once() {
        // CW route 14 → 2 crosses the dateline at 15 → 0.
        assert_eq!(quarc16_vcs(14, 2), vec![VcId::VC0, VcId::VC1, VcId::VC1, VcId::VC1]);
    }

    #[test]
    fn routes_not_touching_dateline_stay_on_vc0() {
        assert!(quarc16_vcs(1, 4).iter().all(|&vc| vc == VcId::VC0));
    }

    #[test]
    fn quarc_unicast_dependency_graph_is_acyclic() {
        for n in (4..=64).step_by(4) {
            let (name, topo) = (format!("Quarc n={n}"), QuarcTopology::new(n));
            assert_deadlock_free(&name, &topo, |_| Vec::new());
            assert_vcs_exact(&name, TopologyKind::Quarc, &topo);
        }
    }

    #[test]
    fn spidergon_unicast_dependency_graph_is_acyclic() {
        // Spidergon broadcasts by unicast: its chain packets are unicasts too.
        for n in (4..=64).step_by(2) {
            let (name, topo) = (format!("Spidergon n={n}"), SpidergonTopology::new(n));
            assert_deadlock_free(&name, &topo, |_| spidergon_chains(&topo));
            assert_vcs_exact(&name, TopologyKind::Spidergon, &topo);
        }
    }

    #[test]
    fn quarc_broadcast_dependency_graph_is_acyclic() {
        // BRCP broadcasts follow base-routing paths, so adding every broadcast
        // and multicast branch must keep the graph acyclic (§2.5.2: "Since
        // the base routing algorithm in the Quarc NoC is deadlock-free,
        // adopting BRCP technique ensures that the broadcast operation ... is
        // also deadlock-free").
        for n in (4..=64).step_by(4) {
            let topo = QuarcTopology::new(n);
            assert_deadlock_free(&format!("Quarc n={n}"), &topo, |bits| {
                quarc_collectives(&topo, bits)
            });
        }
    }

    #[test]
    fn single_vc_ring_would_deadlock() {
        // Sanity check that the detector can find cycles: a ring where every
        // packet stays on VC0 produces a cyclic dependency.
        let ring = Ring::new(8);
        let mut g = ChannelDepGraph::new();
        // The CW rim link leaving `node` (port 0).
        let cw = |node: NodeId| node.index() as u64 * 4;
        for s in ring.nodes() {
            // Route two hops CW, never switching VC.
            g.add_dependency((cw(s), VcId::VC0), (cw(ring.cw(s)), VcId::VC0));
        }
        assert!(g.has_cycle());
    }

    #[test]
    fn cycle_detector_handles_diamonds() {
        // A diamond (two paths to the same node) is acyclic and must not be
        // misreported.
        let mut g = ChannelDepGraph::new();
        g.add_dependency((0, VcId::VC0), (1, VcId::VC0));
        g.add_dependency((0, VcId::VC0), (2, VcId::VC0));
        g.add_dependency((1, VcId::VC0), (3, VcId::VC0));
        g.add_dependency((2, VcId::VC0), (3, VcId::VC0));
        assert!(!g.has_cycle());
    }

    #[test]
    fn self_loop_is_a_cycle() {
        let mut g = ChannelDepGraph::new();
        g.add_dependency((7, VcId::VC1), (7, VcId::VC1));
        assert!(g.has_cycle());
    }
}
