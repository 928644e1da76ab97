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
use crate::ids::{NodeId, VcId};
use crate::ring::{Ring, RingDir};
use crate::vc::{vc_after_rim_hop, ChannelDepGraph, INJECTION_VC};
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

    /// Number of nodes.
    #[inline]
    pub fn num_nodes(&self) -> usize {
        self.cols * self.rows
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

    /// The channel sequence of a route, as `(link id, vc)` pairs for the
    /// deadlock checker. Link ids encode `node * 4 + out`.
    pub fn route_channels(&self, src: NodeId, dst: NodeId) -> Vec<(u64, VcId)> {
        let mut channels = Vec::new();
        let mut cur = src;
        let mut vc = INJECTION_VC;
        let mut turned = false;
        loop {
            let out = self.route(cur, dst);
            match out {
                GridOut::Eject => return channels,
                _ => {
                    // Reset the VC class when the packet turns into y.
                    let is_y = matches!(out, GridOut::YPlus | GridOut::YMinus);
                    if is_y && !turned {
                        vc = INJECTION_VC;
                        turned = true;
                    }
                    vc = self.next_vc(cur, out, vc);
                    channels.push(((cur.index() * 4 + out.index()) as u64, vc));
                    cur = self.link_target(cur, out).expect("network port");
                }
            }
        }
    }

    /// Plan the dimension-ordered multicast tree for `targets` — the grid
    /// counterpart of [`crate::quadrant::multicast_branches`].
    ///
    /// Targets are partitioned by destination column and y direction (the
    /// shorter way on a torus); each non-empty group becomes one
    /// source-routed branch whose path is this topology's [`Self::route`]
    /// walk to the group's furthest target, branching out of the x run at
    /// the turn node. The header [`GridBranch::bitstring`] marks which nodes
    /// along that path take a copy (bit `i` = the node after `i + 1` hops —
    /// exactly the semantics the routers shift per hop). Targets equal to
    /// `src` are ignored; duplicates set the same bit once. Broadcast is the
    /// all-targets special case. `out` is cleared and refilled, so a reused
    /// buffer makes steady-state expansion allocation-free; bitstrings are
    /// emitted into `slab` (branches within 63 hops stay inline and never
    /// touch it).
    pub fn multicast_branches_into(
        &self,
        src: NodeId,
        targets: impl IntoIterator<Item = NodeId>,
        slab: &mut BitSlab,
        out: &mut Vec<GridBranch>,
    ) {
        out.clear();
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
                    out.push(GridBranch {
                        dst: self.node_at(tx, ry % self.rows),
                        bitstring: a.bits,
                    });
                }
            }
        }
    }

    /// Build the full channel dependency graph of all unicast routes and
    /// check it for cycles (used by tests; exposed for the explorer
    /// example).
    pub fn dependency_graph(&self) -> ChannelDepGraph {
        let n = self.num_nodes();
        let mut g = ChannelDepGraph::new();
        for s in 0..n {
            for t in 0..n {
                g.add_route(&self.route_channels(NodeId::new(s), NodeId::new(t)));
            }
        }
        g
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

impl GridBranch {
    /// Receivers this branch delivers to.
    pub fn receivers(&self, slab: &BitSlab) -> usize {
        slab.popcount(self.bitstring) as usize
    }
}

/// Decode a planned branch back into its delivery set by walking the route
/// the router will take — the oracle of the planner tests, whose mesh cases
/// live in `topology::tests` and torus cases in `torus::tests` (tier-1 test
/// ids are module paths, so the cases stayed where they were when the two
/// grids became one type).
#[cfg(test)]
pub(crate) fn branch_deliveries(
    t: &GridTopology,
    src: NodeId,
    b: &GridBranch,
    slab: &BitSlab,
) -> Vec<NodeId> {
    let mut deliveries = Vec::new();
    let mut cur = src;
    let mut k = 0usize;
    while cur != b.dst {
        let port = t.route(cur, b.dst);
        assert_ne!(port, GridOut::Eject, "walk ends at dst");
        cur = t.link_target(cur, port).expect("route stays on the grid");
        if slab.bit_at(b.bitstring, k) {
            deliveries.push(cur);
        }
        k += 1;
    }
    assert_eq!(
        slab.popcount(b.bitstring) as usize,
        deliveries.len(),
        "bits past the branch terminal"
    );
    deliveries
}
