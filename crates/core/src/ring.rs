//! Ring arithmetic shared by the Quarc and Spidergon topologies.
//!
//! Both networks place `n` nodes on a ring with clockwise (CW) and
//! counter-clockwise (CCW) rim links plus cross ("spoke") links to the
//! antipodal node. All routing maths reduces to modular distances on this
//! ring, centralised here so that the router models, the RTL model and the
//! analytical models cannot drift apart.

use crate::ids::NodeId;
use std::fmt;

/// A direction of travel along the rim.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum RingDir {
    /// Clockwise: node addresses increase (modulo `n`).
    Cw,
    /// Counter-clockwise: node addresses decrease (modulo `n`).
    Ccw,
}

impl RingDir {
    /// The opposite direction.
    #[inline]
    #[cfg(test)]
    fn opposite(self) -> RingDir {
        match self {
            RingDir::Cw => RingDir::Ccw,
            RingDir::Ccw => RingDir::Cw,
        }
    }

    /// Stable index (CW = 0, CCW = 1) for table lookups.
    #[inline]
    pub fn index(self) -> usize {
        match self {
            RingDir::Cw => 0,
            RingDir::Ccw => 1,
        }
    }
}

impl fmt::Display for RingDir {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            RingDir::Cw => write!(f, "cw"),
            RingDir::Ccw => write!(f, "ccw"),
        }
    }
}

/// Modular arithmetic on a ring of `n` nodes.
///
/// `n` must be at least 4 and divisible by 4 for the Quarc quadrant scheme to
/// tile exactly (the paper evaluates N ∈ {8, 16, 32, 64}); Spidergon only
/// requires even `n`. Constructors of the concrete topologies enforce their
/// own constraint — `Ring` itself only requires `n ≥ 2`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Ring {
    n: usize,
}

impl Ring {
    /// A ring of `n` nodes. Panics if `n < 2`.
    pub fn new(n: usize) -> Self {
        assert!(n >= 2, "a ring needs at least 2 nodes");
        assert!(n <= u32::MAX as usize, "node addresses are 32-bit");
        Ring { n }
    }

    /// Number of nodes on the ring.
    #[inline]
    pub fn len(&self) -> usize {
        self.n
    }

    /// Rings are never empty (enforced at construction).
    #[inline]
    pub fn is_empty(&self) -> bool {
        false
    }

    /// The clockwise neighbour of `a`.
    #[inline]
    pub fn cw(&self, a: NodeId) -> NodeId {
        NodeId::new((a.index() + 1) % self.n)
    }

    /// The counter-clockwise neighbour of `a`.
    #[inline]
    pub fn ccw(&self, a: NodeId) -> NodeId {
        NodeId::new((a.index() + self.n - 1) % self.n)
    }

    /// The neighbour of `a` in direction `dir`.
    #[inline]
    pub fn step(&self, a: NodeId, dir: RingDir) -> NodeId {
        match dir {
            RingDir::Cw => self.cw(a),
            RingDir::Ccw => self.ccw(a),
        }
    }

    /// The node `k` hops from `a` in direction `dir`.
    #[inline]
    pub fn step_n(&self, a: NodeId, dir: RingDir, k: usize) -> NodeId {
        let k = k % self.n;
        match dir {
            RingDir::Cw => NodeId::new((a.index() + k) % self.n),
            RingDir::Ccw => NodeId::new((a.index() + self.n - k) % self.n),
        }
    }

    /// The clockwise distance from `a` to `b`: the number of CW rim hops.
    #[inline]
    pub fn cw_dist(&self, a: NodeId, b: NodeId) -> usize {
        (b.index() + self.n - a.index()) % self.n
    }

    /// The node diametrically opposite `a` (requires even `n`).
    #[inline]
    pub fn antipode(&self, a: NodeId) -> NodeId {
        debug_assert!(self.n.is_multiple_of(2), "antipode requires an even ring");
        NodeId::new((a.index() + self.n / 2) % self.n)
    }

    /// One quarter of the ring, the Quarc quadrant depth (`n/4`).
    #[inline]
    pub fn quarter(&self) -> usize {
        self.n / 4
    }

    /// Half of the ring (`n/2`).
    #[inline]
    pub fn half(&self) -> usize {
        self.n / 2
    }

    /// Whether the rim hop leaving `a` in direction `dir` traverses the
    /// dateline edge.
    ///
    /// The dateline is the CW edge `n−1 → 0` (equivalently the CCW edge
    /// `0 → n−1`). Packets move from VC0 to VC1 when they traverse it, which
    /// breaks the cyclic channel dependency of each unidirectional rim ring —
    /// this is the purpose of the paper's two virtual channels per link.
    #[inline]
    pub fn crosses_dateline(&self, a: NodeId, dir: RingDir) -> bool {
        match dir {
            RingDir::Cw => a.index() == self.n - 1,
            RingDir::Ccw => a.index() == 0,
        }
    }

    /// Iterate over all nodes of the ring in address order.
    pub fn nodes(&self) -> impl Iterator<Item = NodeId> + '_ {
        (0..self.n).map(NodeId::new)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ring16() -> Ring {
        Ring::new(16)
    }

    #[test]
    fn neighbours_wrap() {
        let r = ring16();
        assert_eq!(r.cw(NodeId(15)), NodeId(0));
        assert_eq!(r.ccw(NodeId(0)), NodeId(15));
        assert_eq!(r.cw(NodeId(3)), NodeId(4));
        assert_eq!(r.ccw(NodeId(3)), NodeId(2));
    }

    #[test]
    fn distances() {
        let r = ring16();
        assert_eq!(r.cw_dist(NodeId(0), NodeId(5)), 5);
        assert_eq!(r.cw_dist(NodeId(5), NodeId(0)), 11);
        assert_eq!(r.cw_dist(NodeId(14), NodeId(2)), 4);
        assert_eq!(r.cw_dist(NodeId(7), NodeId(7)), 0);
    }

    #[test]
    fn step_n_matches_repeated_step() {
        let r = ring16();
        for start in 0..16u32 {
            let mut cur = NodeId(start);
            for k in 0..20 {
                assert_eq!(r.step_n(NodeId(start), RingDir::Cw, k), cur);
                cur = r.cw(cur);
            }
        }
    }

    #[test]
    fn antipode_is_involution() {
        let r = ring16();
        for node in r.nodes() {
            assert_eq!(r.antipode(r.antipode(node)), node);
            assert_eq!(r.cw_dist(node, r.antipode(node)), 8);
        }
    }

    #[test]
    fn dateline_edges() {
        let r = ring16();
        assert!(r.crosses_dateline(NodeId(15), RingDir::Cw));
        assert!(!r.crosses_dateline(NodeId(0), RingDir::Cw));
        assert!(r.crosses_dateline(NodeId(0), RingDir::Ccw));
        assert!(!r.crosses_dateline(NodeId(15), RingDir::Ccw));
    }

    #[test]
    fn direction_opposite() {
        assert_eq!(RingDir::Cw.opposite(), RingDir::Ccw);
        assert_eq!(RingDir::Ccw.opposite(), RingDir::Cw);
        assert_eq!(RingDir::Cw.index(), 0);
        assert_eq!(RingDir::Ccw.index(), 1);
    }

    #[test]
    fn cw_and_ccw_distances_sum_to_n() {
        let r = ring16();
        for a in r.nodes() {
            for b in r.nodes() {
                if a != b {
                    assert_eq!(r.cw_dist(a, b) + r.cw_dist(b, a), 16);
                }
            }
        }
    }
}
