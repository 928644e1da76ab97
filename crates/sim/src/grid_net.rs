//! The grid router model: 2D mesh and 2D torus, the paper's "next
//! objective" comparison (§4; §3.2 also validates the simulator against the
//! analytical mesh model).
//!
//! One model serves both — the one [`GridTopology`] of `quarc-core`, whose
//! `Routing` impl is the dimension-ordered route:
//! on the torus every link wraps, so every row/column is a ring and packets
//! carry the per-dimension dateline VC class of [`GridTopology::next_vc`]
//! (the discipline that keeps the Quarc rims deadlock-free); on the mesh
//! edge positions own vacant link slots that are never sent on, and XY
//! routing runs every packet on VC0. Which one a network is comes from
//! [`NocConfig::kind`], as does its lane count ([`TopologyKind::vcs`]);
//! past [`RouterModel::new`] the model does not ask.
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

use crate::fabric::RouterModel;
use quarc_core::bits::BitSlab;
use quarc_core::config::NocConfig;
use quarc_core::flit::{PacketMeta, PacketTable, TrafficClass};
use quarc_core::grid::{GridBranch, GridTopology};
use quarc_core::ids::NodeId;
use quarc_core::routing::Routing;
use quarc_core::topology::TopologyKind;
use quarc_workloads::MessageRequest;

/// Every request slot: the four inputs, then the local queue.
const ALL_SLOTS: &[u8] = &[0, 1, 2, 3, 4];

/// The mesh/torus [`RouterModel`].
impl RouterModel for GridTopology {
    const QUEUES: usize = 1;
    const EJECT_PORT: bool = true;
    const DROPS_FIRST: bool = true;
    /// All five sources (four inputs, the local queue) are arbitration
    /// candidates at every output (four links, then eject).
    const FEEDERS: &'static [&'static [u8]] = &[ALL_SLOTS; 5];

    /// A near-square grid of at least `cfg.n` nodes.
    fn new(cfg: &NocConfig) -> Self {
        match cfg.kind {
            TopologyKind::Mesh => GridTopology::square_mesh(cfg.n),
            TopologyKind::Torus => GridTopology::square_torus(cfg.n),
            other => panic!("config is not a mesh or torus network: {other}"),
        }
    }

    fn packet_table(&self) -> PacketTable {
        // Sized so the longest dimension-ordered branch's bitstring fits;
        // small networks stay inline and the slab never allocates.
        PacketTable::with_bit_capacity(self.diameter() + 1)
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
        if req.class == TrafficClass::Unicast {
            out.push((0, PacketMeta { dst: req.dst.expect("unicast carries dst"), ..*base }));
            return 1;
        }
        let before = out.len();
        let emit = |b: GridBranch| {
            let class = TrafficClass::Multicast;
            out.push((0, PacketMeta { class, dst: b.dst, bitstring: b.bitstring, ..*base }));
        };
        match req.class {
            TrafficClass::Broadcast => {
                let all = (0..self.num_nodes()).map(NodeId::new);
                self.multicast_branches_into(req.src, all, bits, emit)
            }
            TrafficClass::Multicast => {
                self.multicast_branches_into(req.src, req.targets.iter().copied(), bits, emit)
            }
            other => panic!("applications do not inject {other} packets directly"),
        }
        out[before..].iter().map(|(_, meta)| bits.popcount(meta.bitstring) as usize).sum()
    }
}
