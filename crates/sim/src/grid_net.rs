//! The grid router model: 2D mesh and 2D torus, the paper's "next
//! objective" comparison (§4; §3.2 also validates the simulator against the
//! analytical mesh model).
//!
//! One model serves both: the torus is the general case — every link wraps,
//! so every row/column is a ring and packets carry the per-dimension
//! dateline VC class of [`TorusTopology::next_vc`] (the discipline that
//! keeps the Quarc rims deadlock-free) — and the **mesh is the same router
//! with wrap links and datelines off**: edge positions own vacant link slots
//! that are never sent on, and XY routing runs every packet on VC0. Which
//! one a network is comes from [`NocConfig::kind`].
//!
//! Both are one-port routers (one local injection queue, one arbitrated
//! ejection port) with dimension-ordered routing, so comparisons with the
//! ring models are apples-to-apples.
//!
//! ## Collectives: the dimension-ordered multicast tree
//!
//! Broadcast and multicast ride the same path-based scheme the Quarc uses
//! (§2.5.3), adapted to the grid: the source transceiver partitions the
//! target set by destination column and (shortest-way) y direction
//! (`multicast_branches_into`) and emits one `TrafficClass::Multicast`
//! packet per group. Each branch follows the ordinary dimension-ordered
//! route to its furthest target — branching out of the x run at the turn
//! node — and its header bitstring marks which path nodes take a copy (bit 0
//! = next node, shifted every hop). Marked transit nodes absorb-and-forward
//! at the ingress multiplexer, bypassing the ejection arbiter exactly as
//! Quarc routers clone; the branch terminal delivers through the arbitrated
//! ejection port like any unicast. Branch paths are unicast routes, so the
//! deadlock-freedom argument carries over unchanged.

use crate::fabric::{Route, RouterModel, Src};
use crate::packets::{grid_expand_into, IdAlloc, PacketQueue};
use quarc_core::bits::BitSlab;
use quarc_core::config::NocConfig;
use quarc_core::flit::{PacketMeta, PacketTable, TrafficClass};
use quarc_core::ids::{MessageId, NodeId, VcId};
use quarc_core::topology::{GridBranch, MeshOut, MeshTopology, TopologyKind};
use quarc_core::torus::{TorusOut, TorusTopology};
use quarc_core::vc::INJECTION_VC;
use quarc_engine::Cycle;
use quarc_workloads::MessageRequest;

/// Link ports in index order, shared by both topologies' `index()` schemes:
/// +x, −x, +y, −y. The opposite side — the input a flit sent through `out`
/// arrives on — is `out ^ 1`.
const MESH_OUT: [MeshOut; 4] = [MeshOut::East, MeshOut::West, MeshOut::North, MeshOut::South];
const TORUS_OUT: [TorusOut; 4] =
    [TorusOut::XPlus, TorusOut::XMinus, TorusOut::YPlus, TorusOut::YMinus];
/// Ejection output index (`MeshOut::Eject.index()`, `TorusOut::Eject.index()`).
const EJECT: usize = 4;
/// Every request slot: the four inputs, then the local queue.
const ALL_SLOTS: &[u8] = &[0, 1, 2, 3, 4];

/// The two grid shapes behind one routing interface.
#[derive(Debug, Clone, Copy)]
enum GridTopo {
    Mesh(MeshTopology),
    Torus(TorusTopology),
}

impl GridTopo {
    /// Dimension-ordered routing decision as an output index (or [`EJECT`]).
    #[inline]
    fn route(&self, cur: NodeId, dst: NodeId) -> usize {
        match self {
            GridTopo::Mesh(t) => t.route(cur, dst).index(),
            GridTopo::Torus(t) => t.route(cur, dst).index(),
        }
    }

    fn link_target(&self, node: NodeId, out: usize) -> Option<NodeId> {
        match self {
            GridTopo::Mesh(t) => t.link_target(node, MESH_OUT[out]),
            GridTopo::Torus(t) => t.link_target(node, TORUS_OUT[out]),
        }
    }

    /// The VC for the hop leaving `node` via `out` while holding class `cur`:
    /// the dateline of the ring the hop travels on, or VC0 on a mesh.
    #[inline]
    fn next_vc(&self, node: NodeId, out: usize, cur: VcId) -> VcId {
        match self {
            GridTopo::Mesh(_) => INJECTION_VC,
            GridTopo::Torus(t) => t.next_vc(node, TORUS_OUT[out], cur),
        }
    }

    fn multicast_branches_into(
        &self,
        src: NodeId,
        targets: impl IntoIterator<Item = NodeId>,
        slab: &mut BitSlab,
        out: &mut Vec<GridBranch>,
    ) {
        match self {
            GridTopo::Mesh(t) => t.multicast_branches_into(src, targets, slab, out),
            GridTopo::Torus(t) => t.multicast_branches_into(src, targets, slab, out),
        }
    }
}

/// The mesh/torus [`RouterModel`].
#[derive(Debug)]
pub struct GridRouter {
    topo: GridTopo,
    nodes: usize,
    diameter: usize,
    /// Scratch for the multicast branch planner, reused across messages.
    branches: Vec<GridBranch>,
}

impl GridRouter {
    /// Resolve the per-hop route for a header at `node` holding VC class
    /// `cur`. `from_net` marks headers arriving on a network input: only
    /// those may clone (bit 0 of a freshly injected multicast header refers
    /// to the node one hop out, not to the source itself).
    #[inline]
    fn route(
        &self,
        node: usize,
        meta: &PacketMeta,
        out: usize,
        cur: VcId,
        from_net: bool,
    ) -> Route {
        if out == EJECT {
            return Route { deliver: false, out: EJECT as u8, out_vc: INJECTION_VC };
        }
        Route {
            deliver: from_net && meta.class == TrafficClass::Multicast && meta.bitstring.bit0(),
            out: out as u8,
            out_vc: self.topo.next_vc(NodeId::new(node), out, cur),
        }
    }
}

impl RouterModel for GridRouter {
    const PORTS: usize = 4;
    const QUEUES: usize = 1;
    const EJECT_PORT: bool = true;
    const DROPS_FIRST: bool = true;
    /// All five sources (four inputs, the local queue) are arbitration
    /// candidates at every output (four links, then eject).
    const FEEDERS: &'static [&'static [u8]] = &[ALL_SLOTS; 5];

    /// A near-square grid of at least `cfg.n` nodes.
    fn new(cfg: &NocConfig) -> Self {
        let (topo, nodes, diameter) = match cfg.kind {
            TopologyKind::Mesh => {
                let t = MeshTopology::square(cfg.n);
                (GridTopo::Mesh(t), t.num_nodes(), t.diameter())
            }
            TopologyKind::Torus => {
                let t = TorusTopology::square(cfg.n);
                (GridTopo::Torus(t), t.num_nodes(), t.diameter())
            }
            other => panic!("config is not a mesh or torus network: {other}"),
        };
        GridRouter { topo, nodes, diameter, branches: Vec::new() }
    }

    fn kind(&self) -> TopologyKind {
        match self.topo {
            GridTopo::Mesh(_) => TopologyKind::Mesh,
            GridTopo::Torus(_) => TopologyKind::Torus,
        }
    }

    fn num_nodes(&self) -> usize {
        self.nodes
    }

    fn packet_table(&self) -> PacketTable {
        // Sized so the longest dimension-ordered branch's bitstring fits;
        // small networks stay inline and the slab never allocates.
        PacketTable::with_bit_capacity(self.diameter + 1)
    }

    fn link_target(&self, node: usize, out: usize) -> Option<(usize, usize)> {
        let to = self.topo.link_target(NodeId::new(node), out)?;
        Some((to.index(), out ^ 1))
    }

    fn route_net(&self, node: usize, port: usize, vc: usize, meta: &PacketMeta) -> Route {
        let out = self.topo.route(NodeId::new(node), meta.dst);
        // Continuing in-dimension carries the lane's dateline class forward;
        // a packet turning into y starts fresh on that dimension's class.
        let same_dim = out != EJECT && out / 2 == port / 2;
        let cur = if same_dim { VcId(vc as u8) } else { INJECTION_VC };
        self.route(node, meta, out, cur, true)
    }

    fn route_local(&self, node: usize, _queue: usize, meta: &PacketMeta) -> Route {
        let out = self.topo.route(NodeId::new(node), meta.dst);
        self.route(node, meta, out, INJECTION_VC, false)
    }

    /// Collectives expand into the dimension-ordered tree: one path-based
    /// multicast packet per (column, y direction); a broadcast is the
    /// all-targets special case.
    fn expand_into(
        &mut self,
        req: &MessageRequest,
        message: MessageId,
        now: Cycle,
        ids: &mut IdAlloc,
        table: &mut PacketTable,
        queues: &mut [PacketQueue],
    ) -> (usize, usize) {
        let (topo, slab, branches) = (&self.topo, table.bits_mut(), &mut self.branches);
        match req.class {
            TrafficClass::Unicast => branches.clear(),
            TrafficClass::Broadcast => topo.multicast_branches_into(
                req.src,
                (0..self.nodes).map(NodeId::new),
                slab,
                branches,
            ),
            TrafficClass::Multicast => {
                topo.multicast_branches_into(req.src, req.targets.iter().copied(), slab, branches)
            }
            other => panic!("applications do not inject {other} packets directly"),
        }
        grid_expand_into(req, &self.branches, message, ids, now, table, &mut queues[0])
    }

    /// Replays the remaining dimension-ordered route, counting marked
    /// transit copies and the branch terminal.
    fn receivers_beyond(&self, slab: &BitSlab, node: usize, src: Src, meta: &PacketMeta) -> usize {
        // Fresh local headers are not advanced before their first hop (bit 0
        // of an injected multicast header refers to the node one hop out);
        // net-sourced headers advance at every forward.
        let mut advance = matches!(src, Src::Net { .. });
        let mut shift = 0usize;
        let mut cur = NodeId::new(node);
        let mut count = 0usize;
        loop {
            let out = self.topo.route(cur, meta.dst);
            debug_assert!(out != EJECT, "ejections are never dropped");
            if advance {
                shift += 1;
            }
            advance = true;
            cur = self.topo.link_target(cur, out).expect("route stays on the grid");
            if self.topo.route(cur, meta.dst) == EJECT {
                // The branch terminal delivers through the ejection port.
                return count + 1;
            }
            if meta.class == TrafficClass::Multicast && slab.bit_at(meta.bitstring, shift) {
                count += 1;
            }
        }
    }
}
