//! The grid router model: 2D mesh and 2D torus, the paper's "next
//! objective" comparison (§4; §3.2 also validates the simulator against the
//! analytical mesh model).
//!
//! One model serves both, over the one [`GridTopology`] of `quarc-core`:
//! on the torus every link wraps, so every row/column is a ring and packets
//! carry the per-dimension dateline VC class of [`GridTopology::next_vc`]
//! (the discipline that keeps the Quarc rims deadlock-free); on the mesh
//! edge positions own vacant link slots that are never sent on, and XY
//! routing runs every packet on VC0. Which one a network is comes from
//! [`NocConfig::kind`]; past [`GridRouter::new`] the model does not ask.
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

use crate::fabric::{Route, RouterModel};
use quarc_core::bits::BitSlab;
use quarc_core::config::NocConfig;
use quarc_core::flit::{PacketMeta, PacketTable, TrafficClass};
use quarc_core::grid::{GridBranch, GridOut, GridTopology};
use quarc_core::ids::{NodeId, VcId};
use quarc_core::topology::TopologyKind;
use quarc_core::vc::INJECTION_VC;
use quarc_workloads::MessageRequest;

/// Ejection output index (`GridOut::Eject.index()`). The link ports before
/// it are +x, −x, +y, −y ([`GridOut::NETWORK`] order); the opposite side —
/// the input a flit sent through `out` arrives on — is `out ^ 1`.
const EJECT: usize = 4;
/// Every request slot: the four inputs, then the local queue.
const ALL_SLOTS: &[u8] = &[0, 1, 2, 3, 4];

/// The mesh/torus [`RouterModel`].
#[derive(Debug)]
pub struct GridRouter {
    topo: GridTopology,
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
        out: GridOut,
        cur: VcId,
        from_net: bool,
    ) -> Route {
        if out == GridOut::Eject {
            return Route { deliver: false, out: EJECT as u8, out_vc: INJECTION_VC };
        }
        Route {
            deliver: from_net && meta.class == TrafficClass::Multicast && meta.bitstring.bit0(),
            out: out.index() as u8,
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
        let topo = match cfg.kind {
            TopologyKind::Mesh => GridTopology::square_mesh(cfg.n),
            TopologyKind::Torus => GridTopology::square_torus(cfg.n),
            other => panic!("config is not a mesh or torus network: {other}"),
        };
        GridRouter { topo, branches: Vec::new() }
    }

    fn num_nodes(&self) -> usize {
        self.topo.num_nodes()
    }

    fn packet_table(&self) -> PacketTable {
        // Sized so the longest dimension-ordered branch's bitstring fits;
        // small networks stay inline and the slab never allocates.
        PacketTable::with_bit_capacity(self.topo.diameter() + 1)
    }

    fn link_target(&self, node: usize, out: usize) -> Option<(usize, usize)> {
        let to = self.topo.link_target(NodeId::new(node), GridOut::NETWORK[out])?;
        Some((to.index(), out ^ 1))
    }

    fn route_net(&self, node: usize, port: usize, vc: usize, meta: &PacketMeta) -> Route {
        let out = self.topo.route(NodeId::new(node), meta.dst);
        // Continuing in-dimension carries the lane's dateline class forward;
        // a packet turning into y starts fresh on that dimension's class.
        let same_dim = out != GridOut::Eject && out.index() / 2 == port / 2;
        let cur = if same_dim { VcId(vc as u8) } else { INJECTION_VC };
        self.route(node, meta, out, cur, true)
    }

    fn route_local(&self, node: usize, _queue: usize, meta: &PacketMeta) -> Route {
        let out = self.topo.route(NodeId::new(node), meta.dst);
        self.route(node, meta, out, INJECTION_VC, false)
    }

    /// Collectives become the dimension-ordered tree: one path-based
    /// `Multicast` packet per (column, y direction), on the single local
    /// queue; a broadcast is the all-targets case (the message keeps its own
    /// class for the metrics).
    fn plan(
        &mut self,
        req: &MessageRequest,
        base: &PacketMeta,
        bits: &mut BitSlab,
        out: &mut Vec<(usize, PacketMeta)>,
    ) -> usize {
        let (topo, branches) = (&self.topo, &mut self.branches);
        match req.class {
            TrafficClass::Unicast => {
                out.push((0, PacketMeta { dst: req.dst.expect("unicast carries dst"), ..*base }));
                return 1;
            }
            TrafficClass::Broadcast => {
                let all = (0..topo.num_nodes()).map(NodeId::new);
                topo.multicast_branches_into(req.src, all, bits, branches)
            }
            TrafficClass::Multicast => {
                topo.multicast_branches_into(req.src, req.targets.iter().copied(), bits, branches)
            }
            other => panic!("applications do not inject {other} packets directly"),
        }
        let class = TrafficClass::Multicast;
        for b in branches.iter() {
            out.push((0, PacketMeta { class, dst: b.dst, bitstring: b.bitstring, ..*base }));
        }
        branches.iter().map(|b| b.receivers(bits)).sum()
    }
}
