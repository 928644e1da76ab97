//! The Quarc quadrant calculator and collective-communication branch planner.
//!
//! The Quarc transceiver (paper §2.4–2.5) decides *at the source* which of the
//! four injection ports a packet uses; after that, no switch ever makes a
//! routing decision ("the surprising observation is that there is no routing
//! required by the switch", §2.5.1). This module is that decision, in pure
//! functions over ring arithmetic:
//!
//! * [`quadrant_of`] — which quadrant (injection port) serves a destination;
//! * [`unicast_hops`] / [`unicast_path`] — shortest-path length and node walk;
//! * [`broadcast_branches`] — the four BRCP streams of §2.5.2, reproducing the
//!   paper's Fig. 6 (source 0, N = 16 → branch destinations {4, 5, 11, 12});
//! * [`multicast_branches`] — the bitstring construction of §2.5.3, of which
//!   broadcast is the all-targets special case.
//!
//! Conventions (fixed in DESIGN.md §3): nodes are numbered clockwise,
//! `d = cw_dist(src, dst)`, quadrant depth `q = n/4`:
//!
//! | `d`            | Quadrant     | route                                   |
//! |----------------|--------------|------------------------------------------|
//! | `[1, q]`       | `Right`      | CW rim, `d` hops                         |
//! | `(q, 2q)`      | `CrossLeft`  | cross, then CCW rim, `1 + (2q − d)` hops |
//! | `2q`           | `CrossRight` | cross only, 1 hop                        |
//! | `(2q, 3q)`     | `CrossRight` | cross, then CW rim, `1 + (d − 2q)` hops  |
//! | `[3q, n)`      | `Left`       | CCW rim, `n − d` hops                    |
//!
//! The cross-left branch *transits* the antipodal node without delivering
//! (that node belongs to the cross-right quadrant); this is exactly why the
//! paper's switch gives one cross input port two possible destinations and the
//! other only one (§2.3.2).

use crate::bits::{BitSlab, Bits};
use crate::ids::NodeId;
use crate::ring::{Ring, RingDir};
use std::fmt;

/// The four Quarc quadrants, i.e. the four local ingress ports of the all-port
/// router (§2.2 change (ii)).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Quadrant {
    /// Clockwise rim: destinations at CW distance `[1, q]`.
    Right,
    /// Cross link then clockwise rim: CW distance `[2q, 3q)`.
    CrossRight,
    /// Cross link then counter-clockwise rim: CW distance `(q, 2q)`.
    CrossLeft,
    /// Counter-clockwise rim: CW distance `[3q, n)`.
    Left,
}

impl Quadrant {
    /// All four quadrants, in the order the transceiver scans its queues.
    pub const ALL: [Quadrant; 4] =
        [Quadrant::Right, Quadrant::CrossRight, Quadrant::CrossLeft, Quadrant::Left];

    /// Stable index for per-quadrant arrays.
    #[inline]
    pub fn index(self) -> usize {
        match self {
            Quadrant::Right => 0,
            Quadrant::CrossRight => 1,
            Quadrant::CrossLeft => 2,
            Quadrant::Left => 3,
        }
    }

    /// Whether this quadrant's first hop is a cross link.
    #[inline]
    pub fn is_cross(self) -> bool {
        matches!(self, Quadrant::CrossRight | Quadrant::CrossLeft)
    }

    /// The rim direction travelled on this quadrant's rim segment (for the
    /// two cross quadrants, the direction *after* the cross hop).
    #[inline]
    pub fn rim_dir(self) -> RingDir {
        match self {
            Quadrant::Right | Quadrant::CrossRight => RingDir::Cw,
            Quadrant::Left | Quadrant::CrossLeft => RingDir::Ccw,
        }
    }
}

impl fmt::Display for Quadrant {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let s = match self {
            Quadrant::Right => "right",
            Quadrant::CrossRight => "cross-right",
            Quadrant::CrossLeft => "cross-left",
            Quadrant::Left => "left",
        };
        write!(f, "{s}")
    }
}

/// The quadrant serving destination `dst` from source `src`.
///
/// This is the transceiver's quadrant calculator (§2.4). Panics if
/// `src == dst` (a PE never sends a NoC message to itself) or if the ring is
/// not a multiple of four.
pub fn quadrant_of(ring: &Ring, src: NodeId, dst: NodeId) -> Quadrant {
    assert!(ring.len().is_multiple_of(4), "Quarc requires n ≡ 0 (mod 4)");
    assert_ne!(src, dst, "no quadrant for a self-message");
    let d = ring.cw_dist(src, dst);
    let q = ring.quarter();
    if d <= q {
        Quadrant::Right
    } else if d < 2 * q {
        Quadrant::CrossLeft
    } else if d < 3 * q {
        Quadrant::CrossRight
    } else {
        Quadrant::Left
    }
}

/// Shortest-path hop count from `src` to `dst` under Quarc routing.
pub fn unicast_hops(ring: &Ring, src: NodeId, dst: NodeId) -> usize {
    if src == dst {
        return 0;
    }
    let d = ring.cw_dist(src, dst);
    let q = ring.quarter();
    match quadrant_of(ring, src, dst) {
        Quadrant::Right => d,
        Quadrant::CrossLeft => 1 + (2 * q - d),
        Quadrant::CrossRight => 1 + (d - 2 * q),
        Quadrant::Left => ring.len() - d,
    }
}

/// The full node walk of a unicast from `src` to `dst` (excluding `src`,
/// including `dst`), in traversal order.
pub fn unicast_path(ring: &Ring, src: NodeId, dst: NodeId) -> Vec<NodeId> {
    if src == dst {
        return Vec::new();
    }
    unicast_path_via(ring, src, quadrant_of(ring, src, dst), dst)
}

/// One branch of a Quarc collective operation: a single wormhole stream
/// covering (part of) one quadrant.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Branch {
    /// The injection port (quadrant) this stream uses.
    pub quadrant: Quadrant,
    /// Destination written in the header: the *last* node the stream visits.
    pub dst: NodeId,
    /// Nodes that take a copy, in visit order (`dst` last). For broadcast this
    /// is every node visited except a cross-left transit of the antipode; for
    /// multicast it is the subset of targets.
    pub deliveries: Vec<NodeId>,
    /// Header bitstring (bit `i` ⇒ the node reached after `i + 1` hops takes a
    /// copy). Inline zero for broadcast, which needs no bitstring; branches
    /// spanning more than 63 hops hold a row in the planner's [`BitSlab`].
    pub bitstring: Bits,
    /// Total hops the stream travels (to `dst`).
    pub hops: usize,
}

/// The four broadcast streams a Quarc transceiver emits (§2.5.2, Fig. 6).
///
/// Branches whose quadrant is empty (cross-left when `n = 4`) are omitted.
/// Every non-source node appears in exactly one branch's `deliveries` — a
/// property-tested invariant.
pub fn broadcast_branches(ring: &Ring, src: NodeId) -> Vec<Branch> {
    assert!(ring.len().is_multiple_of(4), "Quarc requires n ≡ 0 (mod 4)");
    let q = ring.quarter();
    let mut branches = Vec::with_capacity(4);

    // Right rim: d ∈ [1, q].
    let deliveries: Vec<NodeId> = (1..=q).map(|k| ring.step_n(src, RingDir::Cw, k)).collect();
    branches.push(Branch {
        quadrant: Quadrant::Right,
        dst: *deliveries.last().expect("q >= 1"),
        hops: q,
        bitstring: Bits::ZERO,
        deliveries,
    });

    // Cross-right: antipode (d = 2q) then CW to d = 3q − 1.
    let deliveries: Vec<NodeId> =
        (2 * q..3 * q).map(|d| ring.step_n(src, RingDir::Cw, d)).collect();
    branches.push(Branch {
        quadrant: Quadrant::CrossRight,
        dst: *deliveries.last().expect("q >= 1"),
        hops: q, // 1 cross hop + (q − 1) rim hops
        bitstring: Bits::ZERO,
        deliveries,
    });

    // Cross-left: transit the antipode, then CCW from d = 2q − 1 down to q + 1.
    let deliveries: Vec<NodeId> =
        ((q + 1)..2 * q).rev().map(|d| ring.step_n(src, RingDir::Cw, d)).collect();
    if let Some(&dst) = deliveries.last() {
        branches.push(Branch {
            quadrant: Quadrant::CrossLeft,
            dst,
            hops: q, // 1 cross hop + (q − 1) rim hops
            bitstring: Bits::ZERO,
            deliveries,
        });
    }

    // Left rim: d ∈ [3q, n), visited at CCW distances 1..=q.
    let deliveries: Vec<NodeId> = (1..=q).map(|k| ring.step_n(src, RingDir::Ccw, k)).collect();
    branches.push(Branch {
        quadrant: Quadrant::Left,
        dst: *deliveries.last().expect("q >= 1"),
        hops: q,
        bitstring: Bits::ZERO,
        deliveries,
    });

    branches
}

/// The `(quadrant, header destination)` of each broadcast stream, in the
/// emission order of [`broadcast_branches`] (Right, CrossRight, CrossLeft,
/// Left; cross-left is `None` when its quadrant is empty, i.e. `n = 4`).
///
/// This is the allocation-free subset of [`broadcast_branches`] the
/// simulator's injection path needs: routers re-derive the deliveries hop by
/// hop, so only the header destinations ever reach the network.
pub fn broadcast_branch_heads(ring: &Ring, src: NodeId) -> [Option<(Quadrant, NodeId)>; 4] {
    assert!(ring.len().is_multiple_of(4), "Quarc requires n ≡ 0 (mod 4)");
    let q = ring.quarter();
    [
        Some((Quadrant::Right, ring.step_n(src, RingDir::Cw, q))),
        Some((Quadrant::CrossRight, ring.step_n(src, RingDir::Cw, 3 * q - 1))),
        (q > 1).then(|| (Quadrant::CrossLeft, ring.step_n(src, RingDir::Cw, q + 1))),
        Some((Quadrant::Left, ring.step_n(src, RingDir::Ccw, q))),
    ]
}

/// Like [`unicast_path`] but forced through a given quadrant (collective
/// branches are not always shortest paths for the individual `dst`).
pub fn unicast_path_via(ring: &Ring, src: NodeId, quad: Quadrant, dst: NodeId) -> Vec<NodeId> {
    let mut path = Vec::new();
    let mut cur = src;
    if quad.is_cross() {
        cur = ring.antipode(src);
        path.push(cur);
    }
    let dir = quad.rim_dir();
    while cur != dst {
        cur = ring.step(cur, dir);
        path.push(cur);
    }
    path
}

/// Build the multicast branches for an explicit target set (§2.5.3).
///
/// Targets are partitioned by quadrant; each non-empty quadrant yields one
/// branch whose `dst` is the furthest target along the branch walk and whose
/// `bitstring` has bit `i` set iff the node reached after `i + 1` hops is a
/// target. Targets equal to `src` are ignored. Broadcast is the special case
/// where every node is a target (see `multicast_covers_broadcast` test).
///
/// Bitstrings are emitted into `slab`: branches spanning ≤ 63 hops stay
/// inline (and never touch it), longer ones acquire a slab row. In the
/// simulators `slab` is the network `PacketTable`'s, so a row's lifetime is
/// the branch packet's; standalone callers (tests, RTL harness) pass a
/// scratch slab sized via [`crate::bits::BitSlab::new`]`(ring.quarter() + 1)`.
pub fn multicast_branches(
    ring: &Ring,
    src: NodeId,
    targets: &[NodeId],
    slab: &mut BitSlab,
) -> Vec<Branch> {
    assert!(ring.len().is_multiple_of(4), "Quarc requires n ≡ 0 (mod 4)");
    let mut by_quadrant: [Vec<NodeId>; 4] = Default::default();
    for &t in targets {
        if t != src {
            by_quadrant[quadrant_of(ring, src, t).index()].push(t);
        }
    }

    let mut branches = Vec::new();
    for quad in Quadrant::ALL {
        let quad_targets = &by_quadrant[quad.index()];
        if quad_targets.is_empty() {
            continue;
        }
        // Furthest target = the one needing the most hops within this quadrant.
        let dst =
            *quad_targets.iter().max_by_key(|&&t| unicast_hops(ring, src, t)).expect("non-empty");
        let walk = unicast_path_via(ring, src, quad, dst);
        let mut bitstring = Bits::ZERO;
        let mut deliveries = Vec::with_capacity(quad_targets.len());
        for (i, node) in walk.iter().enumerate() {
            if quad_targets.contains(node) {
                slab.set_bit(&mut bitstring, i);
                deliveries.push(*node);
            }
        }
        let hops = walk.len();
        branches.push(Branch { quadrant: quad, dst, deliveries, bitstring, hops });
    }
    branches
}

/// Network diameter under Quarc routing (`n/4`, §2.6).
pub fn diameter(ring: &Ring) -> usize {
    ring.quarter().max(1)
}

/// Mean unicast hop count over all ordered source/destination pairs.
pub fn mean_hops(ring: &Ring) -> f64 {
    let n = ring.len();
    let mut total = 0usize;
    for s in ring.nodes() {
        for t in ring.nodes() {
            if s != t {
                total += unicast_hops(ring, s, t);
            }
        }
    }
    total as f64 / (n * (n - 1)) as f64
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::HashSet;

    fn r16() -> Ring {
        Ring::new(16)
    }

    fn mc(ring: &Ring, src: NodeId, targets: &[NodeId]) -> Vec<Branch> {
        let mut slab = BitSlab::new(ring.quarter() + 1);
        multicast_branches(ring, src, targets, &mut slab)
    }

    #[test]
    fn fig6_broadcast_destinations() {
        // Paper Fig. 6: node 0 broadcasts in a 16-node Quarc; the four stream
        // destinations are 4 (right rim), 5 (cross-left), 11 (cross-right)
        // and 12 (left rim).
        let branches = broadcast_branches(&r16(), NodeId(0));
        let dsts: HashSet<u32> = branches.iter().map(|b| b.dst.0).collect();
        assert_eq!(dsts, HashSet::from([4, 5, 11, 12]));
    }

    #[test]
    fn branch_heads_agree_with_full_branches() {
        for n in [4usize, 8, 16, 32, 64] {
            let ring = Ring::new(n);
            for src in ring.nodes() {
                let full: Vec<(Quadrant, NodeId)> =
                    broadcast_branches(&ring, src).iter().map(|b| (b.quadrant, b.dst)).collect();
                let heads: Vec<(Quadrant, NodeId)> =
                    broadcast_branch_heads(&ring, src).into_iter().flatten().collect();
                assert_eq!(heads, full, "n={n} src={src}");
            }
        }
    }

    #[test]
    fn fig6_branch_coverage() {
        let branches = broadcast_branches(&r16(), NodeId(0));
        let by_quad = |q: Quadrant| {
            branches
                .iter()
                .find(|b| b.quadrant == q)
                .unwrap()
                .deliveries
                .iter()
                .map(|n| n.0)
                .collect::<Vec<_>>()
        };
        assert_eq!(by_quad(Quadrant::Right), vec![1, 2, 3, 4]);
        assert_eq!(by_quad(Quadrant::Left), vec![15, 14, 13, 12]);
        assert_eq!(by_quad(Quadrant::CrossRight), vec![8, 9, 10, 11]);
        assert_eq!(by_quad(Quadrant::CrossLeft), vec![7, 6, 5]);
    }

    #[test]
    fn broadcast_covers_every_node_exactly_once() {
        for n in [4usize, 8, 16, 32, 64] {
            let ring = Ring::new(n);
            for src in ring.nodes() {
                let mut seen = HashSet::new();
                for b in broadcast_branches(&ring, src) {
                    for d in &b.deliveries {
                        assert!(seen.insert(*d), "n={n} src={src}: {d} covered twice");
                        assert_ne!(*d, src);
                    }
                }
                assert_eq!(seen.len(), n - 1, "n={n} src={src}: incomplete coverage");
            }
        }
    }

    #[test]
    fn broadcast_branch_hops_equal_quarter() {
        let ring = Ring::new(32);
        for b in broadcast_branches(&ring, NodeId(3)) {
            assert_eq!(b.hops, 8);
            let walk = unicast_path_via(&ring, NodeId(3), b.quadrant, b.dst);
            assert_eq!(walk.len(), b.hops);
            assert_eq!(*walk.last().unwrap(), b.dst);
        }
    }

    #[test]
    fn quadrants_for_n16() {
        let ring = r16();
        let s = NodeId(0);
        let expect = [
            (1, Quadrant::Right),
            (4, Quadrant::Right),
            (5, Quadrant::CrossLeft),
            (7, Quadrant::CrossLeft),
            (8, Quadrant::CrossRight),
            (11, Quadrant::CrossRight),
            (12, Quadrant::Left),
            (15, Quadrant::Left),
        ];
        for (dst, quad) in expect {
            assert_eq!(quadrant_of(&ring, s, NodeId(dst)), quad, "dst {dst}");
        }
    }

    #[test]
    fn quadrant_is_translation_invariant() {
        let ring = r16();
        for shift in 0..16usize {
            for d in 1..16usize {
                let a = quadrant_of(&ring, NodeId(0), NodeId::new(d));
                let b = quadrant_of(&ring, NodeId::new(shift), NodeId::new((shift + d) % 16));
                assert_eq!(a, b, "shift {shift} d {d}");
            }
        }
    }

    #[test]
    fn hops_match_path_length() {
        for n in [8usize, 16, 32, 64] {
            let ring = Ring::new(n);
            for s in ring.nodes() {
                for t in ring.nodes() {
                    let path = unicast_path(&ring, s, t);
                    assert_eq!(path.len(), unicast_hops(&ring, s, t), "{s}->{t} n={n}");
                    if s != t {
                        assert_eq!(*path.last().unwrap(), t);
                    }
                }
            }
        }
    }

    #[test]
    fn diameter_is_quarter() {
        for n in [8usize, 16, 32, 64] {
            let ring = Ring::new(n);
            let mut worst = 0;
            for s in ring.nodes() {
                for t in ring.nodes() {
                    worst = worst.max(unicast_hops(&ring, s, t));
                }
            }
            assert_eq!(worst, n / 4, "n={n}");
            assert_eq!(diameter(&ring), n / 4);
        }
    }

    #[test]
    fn antipode_unicast_is_one_hop_cross_right() {
        let ring = r16();
        assert_eq!(quadrant_of(&ring, NodeId(3), NodeId(11)), Quadrant::CrossRight);
        assert_eq!(unicast_hops(&ring, NodeId(3), NodeId(11)), 1);
        assert_eq!(unicast_path(&ring, NodeId(3), NodeId(11)), vec![NodeId(11)]);
    }

    #[test]
    fn cross_left_transits_antipode() {
        let ring = r16();
        // 0 → 6 is cross-left: antipode 8, then CCW 8→7→6.
        let path = unicast_path(&ring, NodeId(0), NodeId(6));
        assert_eq!(path, vec![NodeId(8), NodeId(7), NodeId(6)]);
    }

    #[test]
    fn multicast_covers_broadcast() {
        for n in [8usize, 16, 32] {
            let ring = Ring::new(n);
            let src = NodeId(2);
            let all: Vec<NodeId> = ring.nodes().collect();
            let mc = mc(&ring, src, &all);
            let bc = broadcast_branches(&ring, src);
            let mc_set: HashSet<NodeId> =
                mc.iter().flat_map(|b| b.deliveries.iter().copied()).collect();
            let bc_set: HashSet<NodeId> =
                bc.iter().flat_map(|b| b.deliveries.iter().copied()).collect();
            assert_eq!(mc_set, bc_set, "n={n}");
        }
    }

    #[test]
    fn multicast_bitstring_marks_hop_positions() {
        let ring = r16();
        // Targets 2 and 4 from source 0: right-rim branch, walk 1,2,3,4.
        let branches = mc(&ring, NodeId(0), &[NodeId(2), NodeId(4)]);
        assert_eq!(branches.len(), 1);
        let b = &branches[0];
        assert_eq!(b.quadrant, Quadrant::Right);
        assert_eq!(b.dst, NodeId(4));
        // Hop 2 (bit 1) and hop 4 (bit 3).
        assert_eq!(b.bitstring, Bits::inline(0b1010));
        assert_eq!(b.deliveries, vec![NodeId(2), NodeId(4)]);
    }

    #[test]
    fn multicast_cross_left_bitstring_skips_antipode() {
        let ring = r16();
        // Target 7 from source 0 is cross-left: walk 8 (transit), 7.
        let branches = mc(&ring, NodeId(0), &[NodeId(7)]);
        assert_eq!(branches.len(), 1);
        let b = &branches[0];
        assert_eq!(b.quadrant, Quadrant::CrossLeft);
        // Bit 0 (the antipode, hop 1) clear; bit 1 (node 7, hop 2) set.
        assert_eq!(b.bitstring, Bits::inline(0b10));
    }

    #[test]
    fn multicast_ignores_source() {
        let ring = r16();
        let branches = mc(&ring, NodeId(0), &[NodeId(0), NodeId(1)]);
        assert_eq!(branches.len(), 1);
        assert_eq!(branches[0].deliveries, vec![NodeId(1)]);
    }

    #[test]
    fn n4_has_no_cross_left_branch() {
        let ring = Ring::new(4);
        let branches = broadcast_branches(&ring, NodeId(0));
        assert_eq!(branches.len(), 3);
        let covered: HashSet<u32> =
            branches.iter().flat_map(|b| b.deliveries.iter().map(|n| n.0)).collect();
        assert_eq!(covered, HashSet::from([1, 2, 3]));
    }

    #[test]
    fn mean_hops_reasonable() {
        // For N=16 the mean shortest-path length must lie between 1 and the
        // diameter.
        let m = mean_hops(&r16());
        assert!(m > 1.0 && m < 4.0, "mean hops {m}");
    }
}
