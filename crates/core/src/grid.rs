//! 2D grid topologies — mesh and torus — with dimension-ordered routing,
//! per-dimension dateline virtual channels and the dimension-ordered
//! multicast planner.
//!
//! The paper closes with "Our next objective is to compare the performance
//! of the Quarc against other widely used NoC architectures such as mesh and
//! torus" (§4; §3.2 also validates the simulator against a mesh). Both are
//! one [`GridTopology`]: the same node layout, port order and routing
//! function, differing only in whether the links at the edges wrap. On the
//! torus every row and column is a unidirectional ring pair, so each
//! dimension needs the same dateline VC discipline the Quarc rims use —
//! which lets it share the deadlock-freedom machinery of [`crate::vc`]; on
//! the mesh no ring closes and every packet stays on the injection VC.
//!
//! Routing is dimension-ordered (x then y). On the torus each dimension
//! takes the shorter way around its ring, with ties broken toward
//! increasing coordinates so routes stay deterministic.

use crate::bits::{BitSlab, Bits};
use crate::flit::{PacketMeta, TrafficClass};
use crate::ids::{NodeId, VcId};
use crate::ring::{Ring, RingDir};
use crate::routing::{Route, Routing};
use crate::vc::{vc_after_rim_hop, INJECTION_VC};
use std::fmt;

/// Output ports of a grid router.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum GridOut {
    /// +x (east; wraps on a torus).
    XPlus,
    /// −x (west; wraps on a torus).
    XMinus,
    /// +y (north; wraps on a torus).
    YPlus,
    /// −y (south; wraps on a torus).
    YMinus,
    /// Delivery to the local PE.
    Eject,
}

impl GridOut {
    /// All five ports.
    pub const ALL: [GridOut; 5] =
        [GridOut::XPlus, GridOut::XMinus, GridOut::YPlus, GridOut::YMinus, GridOut::Eject];

    /// The four network ports, in [`Self::index`] order.
    pub const NETWORK: [GridOut; 4] =
        [GridOut::XPlus, GridOut::XMinus, GridOut::YPlus, GridOut::YMinus];

    /// Stable index (0..5).
    #[inline]
    pub fn index(self) -> usize {
        match self {
            GridOut::XPlus => 0,
            GridOut::XMinus => 1,
            GridOut::YPlus => 2,
            GridOut::YMinus => 3,
            GridOut::Eject => 4,
        }
    }
}

impl fmt::Display for GridOut {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let s = match self {
            GridOut::XPlus => "x+",
            GridOut::XMinus => "x-",
            GridOut::YPlus => "y+",
            GridOut::YMinus => "y-",
            GridOut::Eject => "eject",
        };
        write!(f, "{s}")
    }
}

/// A `cols × rows` mesh or torus; node `i` sits at `(i % cols, i / cols)`.
#[derive(Debug, Clone, Copy)]
pub struct GridTopology {
    cols: usize,
    rows: usize,
    /// Torus: the edge links wrap around. Mesh: they do not exist.
    wrap: bool,
}

impl GridTopology {
    /// Build a mesh. Panics if either dimension is zero.
    pub fn mesh(cols: usize, rows: usize) -> Self {
        assert!(cols >= 1 && rows >= 1, "mesh dimensions must be positive");
        assert!(cols * rows <= u32::MAX as usize);
        GridTopology { cols, rows, wrap: false }
    }

    /// Build a torus. Both dimensions must be ≥ 2 for the wrap links to be
    /// distinct from the direct ones.
    pub fn torus(cols: usize, rows: usize) -> Self {
        assert!(cols >= 2 && rows >= 2, "torus dimensions must be ≥ 2");
        assert!(cols * rows <= u32::MAX as usize);
        GridTopology { cols, rows, wrap: true }
    }

    /// A near-square mesh of at least `n` nodes (used to compare against ring
    /// topologies of size `n`).
    pub fn square_mesh(n: usize) -> Self {
        let side = (n as f64).sqrt().ceil() as usize;
        GridTopology::mesh(side, side)
    }

    /// A near-square torus of at least `n` nodes.
    pub fn square_torus(n: usize) -> Self {
        let side = ((n as f64).sqrt().ceil() as usize).max(2);
        GridTopology::torus(side, side)
    }

    /// Columns (x extent).
    #[inline]
    pub fn cols(&self) -> usize {
        self.cols
    }

    /// Rows (y extent).
    #[inline]
    pub fn rows(&self) -> usize {
        self.rows
    }

    /// Node coordinates.
    #[inline]
    pub fn coords(&self, node: NodeId) -> (usize, usize) {
        (node.index() % self.cols, node.index() / self.cols)
    }

    /// Node at coordinates.
    #[inline]
    pub fn node_at(&self, x: usize, y: usize) -> NodeId {
        debug_assert!(x < self.cols && y < self.rows);
        NodeId::new(y * self.cols + x)
    }

    /// Where a network output of `node` lands (inputs are identified by the
    /// *opposite* output direction at the receiver). `None` for `Eject` and
    /// at the edges of a mesh; torus links wrap.
    pub fn link_target(&self, node: NodeId, out: GridOut) -> Option<NodeId> {
        let (x, y) = self.coords(node);
        // One step along a dimension of length `len`; only a torus has a
        // link past the edge.
        let plus = |c: usize, len: usize| {
            if c + 1 < len {
                Some(c + 1)
            } else {
                self.wrap.then_some(0)
            }
        };
        let minus = |c: usize, len: usize| {
            if c > 0 {
                Some(c - 1)
            } else {
                self.wrap.then_some(len - 1)
            }
        };
        match out {
            GridOut::XPlus => plus(x, self.cols).map(|x| self.node_at(x, y)),
            GridOut::XMinus => minus(x, self.cols).map(|x| self.node_at(x, y)),
            GridOut::YPlus => plus(y, self.rows).map(|y| self.node_at(x, y)),
            GridOut::YMinus => minus(y, self.rows).map(|y| self.node_at(x, y)),
            GridOut::Eject => None,
        }
    }

    /// Signed offset from `a` to `b` along a dimension of length `len`:
    /// positive = travel in the `+` direction. On a torus it is the shorter
    /// way around the ring, ties (exactly half way) going `+`; on a mesh the
    /// plain difference.
    #[inline]
    fn offset(&self, a: usize, b: usize, len: usize) -> isize {
        if !self.wrap {
            return b as isize - a as isize;
        }
        let fwd = (b + len - a) % len;
        if fwd <= len / 2 {
            fwd as isize
        } else {
            fwd as isize - len as isize
        }
    }

    /// Dimension-ordered routing decision: fix x first, then y, then eject.
    #[inline]
    pub fn route(&self, cur: NodeId, dst: NodeId) -> GridOut {
        let (cx, cy) = self.coords(cur);
        let (dx, dy) = self.coords(dst);
        let ox = self.offset(cx, dx, self.cols);
        if ox > 0 {
            return GridOut::XPlus;
        }
        if ox < 0 {
            return GridOut::XMinus;
        }
        let oy = self.offset(cy, dy, self.rows);
        if oy > 0 {
            GridOut::YPlus
        } else if oy < 0 {
            GridOut::YMinus
        } else {
            GridOut::Eject
        }
    }

    /// Hop count under this routing (Manhattan on a mesh, shortest way
    /// around each ring on a torus).
    pub fn hops(&self, src: NodeId, dst: NodeId) -> usize {
        let (sx, sy) = self.coords(src);
        let (dx, dy) = self.coords(dst);
        self.offset(sx, dx, self.cols).unsigned_abs()
            + self.offset(sy, dy, self.rows).unsigned_abs()
    }

    /// Diameter: `(cols − 1) + (rows − 1)` on a mesh — `2(√n − 1)` when
    /// square, which the paper compares the Quarc diameter `n/4` against in
    /// §2.6 — and `⌊cols/2⌋ + ⌊rows/2⌋` on a torus.
    pub fn diameter(&self) -> usize {
        if self.wrap {
            self.cols / 2 + self.rows / 2
        } else {
            (self.cols - 1) + (self.rows - 1)
        }
    }

    /// The VC for a hop leaving `node` via `out` while holding `vc`. A torus
    /// applies the dateline of the ring the hop travels on (x-rings date at
    /// column `cols−1 → 0`, y-rings at row `rows−1 → 0`); a mesh closes no
    /// ring, so XY routing is deadlock-free on the injection VC alone.
    #[inline]
    pub fn next_vc(&self, node: NodeId, out: GridOut, vc: VcId) -> VcId {
        if !self.wrap {
            return INJECTION_VC;
        }
        let (x, y) = self.coords(node);
        // A packet turning from x to y starts fresh on the y dateline
        // scheme (dimension order makes x- and y-channels disjoint).
        let (len, at, dir) = match out {
            GridOut::XPlus => (self.cols, x, RingDir::Cw),
            GridOut::XMinus => (self.cols, x, RingDir::Ccw),
            GridOut::YPlus => (self.rows, y, RingDir::Cw),
            GridOut::YMinus => (self.rows, y, RingDir::Ccw),
            GridOut::Eject => return vc,
        };
        vc_after_rim_hop(&Ring::new(len), NodeId::new(at), dir, vc)
    }

    /// The route of a header at `node` leaving through `out` while holding VC
    /// class `cur`. `from_net` marks headers arriving on a network input:
    /// only those may clone (bit 0 of a freshly injected multicast header
    /// refers to the node one hop out, not to the source itself).
    #[inline]
    fn hop(
        &self,
        node: usize,
        meta: &PacketMeta,
        out: GridOut,
        cur: VcId,
        from_net: bool,
    ) -> Route {
        if out == GridOut::Eject {
            return Route {
                deliver: false,
                out: GridOut::Eject.index() as u8,
                out_vc: INJECTION_VC,
            };
        }
        Route {
            deliver: from_net && meta.class == TrafficClass::Multicast && meta.bitstring.bit0(),
            out: out.index() as u8,
            out_vc: self.next_vc(NodeId::new(node), out, cur),
        }
    }

    /// Plan the dimension-ordered multicast tree for `targets` — the grid
    /// counterpart of [`crate::quadrant::multicast_branches_into`].
    ///
    /// Targets are partitioned by destination column and y direction (the
    /// shorter way on a torus); each non-empty group becomes one
    /// source-routed branch whose path is this topology's [`Self::route`]
    /// walk to the group's furthest target, branching out of the x run at
    /// the turn node. The header [`GridBranch::bitstring`] marks which nodes
    /// along that path take a copy (bit `i` = the node after `i + 1` hops —
    /// exactly the semantics the routers shift per hop). Targets equal to
    /// `src` are ignored; duplicates set the same bit once. Broadcast is the
    /// all-targets special case. Each branch goes to `emit` in a fixed order,
    /// so planning allocates nothing; bitstrings are emitted into `slab`
    /// (branches within 63 hops stay inline and never touch it).
    pub fn multicast_branches_into(
        &self,
        src: NodeId,
        targets: impl IntoIterator<Item = NodeId>,
        slab: &mut BitSlab,
        mut emit: impl FnMut(GridBranch),
    ) {
        assert!(
            self.cols <= GRID_MC_MAX_SIDE,
            "grid multicast planner scratch caps the side at {GRID_MC_MAX_SIDE} (n ≤ 65,536)"
        );
        let (sx, sy) = self.coords(src);
        let mut acc = [[None::<GridBranchAcc>; 2]; GRID_MC_MAX_SIDE];
        for t in targets {
            if t == src {
                continue;
            }
            let (tx, ty) = self.coords(t);
            let dist_x = self.offset(sx, tx, self.cols).unsigned_abs();
            let oy = self.offset(sy, ty, self.rows);
            // `oy == 0` targets sit on the x run and ride the `y+` branch.
            let (minus, dy) = if oy >= 0 { (0, oy as usize) } else { (1, oy.unsigned_abs()) };
            acc[tx][minus].get_or_insert_with(GridBranchAcc::default).add(slab, dist_x + dy, dy);
        }
        for (tx, pair) in acc.iter().enumerate() {
            for (minus, a) in pair.iter().enumerate() {
                if let Some(a) = a {
                    // `max_dy` rows from the source in the branch's y
                    // direction; only a torus offset carries past the edge.
                    let ry = if minus == 0 { sy + a.max_dy } else { sy + self.rows - a.max_dy };
                    emit(GridBranch { dst: self.node_at(tx, ry % self.rows), bitstring: a.bits });
                }
            }
        }
    }
}

/// Dimension-ordered routing over port indices: the four links in
/// [`GridOut::NETWORK`] order, then the ejection port; one local queue.
impl Routing for GridTopology {
    const PORTS: usize = 4;

    fn num_nodes(&self) -> usize {
        self.cols * self.rows
    }

    /// The input a flit sent through `out` arrives on is the opposite side,
    /// `out ^ 1`.
    #[inline]
    fn link_target(&self, node: usize, out: usize) -> Option<(usize, usize)> {
        let to = self.link_target(NodeId::new(node), GridOut::NETWORK[out])?;
        Some((to.index(), out ^ 1))
    }

    #[inline]
    fn route_net(&self, node: usize, port: usize, vc: usize, meta: &PacketMeta) -> Route {
        let out = self.route(NodeId::new(node), meta.dst);
        // Continuing in-dimension carries the lane's dateline class forward;
        // a packet turning into y starts fresh on that dimension's class.
        let same_dim = out != GridOut::Eject && out.index() / 2 == port / 2;
        let cur = if same_dim { VcId(vc as u8) } else { INJECTION_VC };
        self.hop(node, meta, out, cur, true)
    }

    #[inline]
    fn route_local(&self, node: usize, _queue: usize, meta: &PacketMeta) -> Route {
        let out = self.route(NodeId::new(node), meta.dst);
        self.hop(node, meta, out, INJECTION_VC, false)
    }
}

/// Upper bound on the side length in the multicast planner's scratch (a
/// 256×256 grid = the simulator's n = 65,536 cap).
const GRID_MC_MAX_SIDE: usize = 256;

/// Per-`(column, y-direction)` accumulator of the multicast planner.
#[derive(Debug, Clone, Copy, Default)]
struct GridBranchAcc {
    bits: Bits,
    max_dy: usize,
}

impl GridBranchAcc {
    /// Record a target `hops` hops along the branch path, `dy` of them in y.
    fn add(&mut self, slab: &mut BitSlab, hops: usize, dy: usize) {
        debug_assert!(hops >= 1, "src is never a target");
        slab.set_bit(&mut self.bits, hops - 1);
        self.max_dy = self.max_dy.max(dy);
    }
}

/// One source-routed branch of a mesh/torus multicast tree (see
/// [`GridTopology::multicast_branches_into`]). The flat `Copy` shape keeps
/// the planner's output buffer reusable in the simulators' injection path.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct GridBranch {
    /// Header destination: the last node of the branch (always a target).
    pub dst: NodeId,
    /// Bit `i` ⇒ the node reached after `i + 1` hops takes a copy. The
    /// terminal `dst` bit is always set. Long branches hold a row in the
    /// slab the planner emitted into.
    pub bitstring: Bits,
}

/// Every source's multicast branches for all targets (a broadcast) and for
/// the fixed target set, as `(node, queue, header)` packets: the grid
/// collectives of the deadlock checks in `topology::tests` and
/// `torus::tests`.
#[cfg(test)]
pub(crate) fn grid_collectives(
    t: &GridTopology,
    bits: &mut BitSlab,
) -> Vec<(usize, usize, PacketMeta)> {
    let (n, mut packets) = (t.num_nodes(), Vec::new());
    for src in (0..n).map(NodeId::new) {
        for targets in [(0..n).map(NodeId::new).collect(), crate::vc::fixed_targets(n)] {
            t.multicast_branches_into(src, targets, bits, |b| {
                packets.push((src.index(), 0, b.header(src)))
            });
        }
    }
    packets
}

#[cfg(test)]
impl GridBranch {
    /// The header of this branch of `src`'s multicast.
    pub(crate) fn header(&self, src: NodeId) -> PacketMeta {
        let meta = PacketMeta::header(TrafficClass::Multicast, src, self.dst);
        PacketMeta { bitstring: self.bitstring, ..meta }
    }
}
