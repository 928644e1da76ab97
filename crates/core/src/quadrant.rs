//! The Quarc quadrant calculator and collective-communication branch planner.
//!
//! The Quarc transceiver (paper §2.4–2.5) decides *at the source* which of the
//! four injection ports a packet uses; after that, no switch ever makes a
//! routing decision ("the surprising observation is that there is no routing
//! required by the switch", §2.5.1). This module is that decision, in pure
//! functions over ring arithmetic:
//!
//! * [`quadrant_of`] — which quadrant (injection port) serves a destination;
//! * [`unicast_hops`] — shortest-path length (the node walk itself is the
//!   topology's [`crate::routing::Routing::walk_unicast`]);
//! * [`broadcast_branch_heads`] — the four BRCP streams of §2.5.2,
//!   reproducing the paper's Fig. 6 (source 0, N = 16 → branch destinations
//!   {4, 5, 11, 12});
//! * [`multicast_branches_into`] — the bitstring construction of §2.5.3, of
//!   which broadcast is the all-targets special case, emitted branch by
//!   branch without allocating.
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

/// One branch of a Quarc collective operation: a single wormhole stream
/// covering (part of) one quadrant. Routers re-derive its deliveries hop by
/// hop from the header, so the header fields are all a branch is.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Branch {
    /// The injection port (quadrant) this stream uses.
    pub quadrant: Quadrant,
    /// Destination written in the header: the *last* node the stream visits.
    pub dst: NodeId,
    /// Header bitstring (bit `i` ⇒ the node reached after `i + 1` hops takes a
    /// copy). Branches spanning more than 63 hops hold a row in the planner's
    /// [`BitSlab`].
    pub bitstring: Bits,
}

/// The four broadcast streams a Quarc transceiver emits (§2.5.2, Fig. 6), as
/// `(quadrant, header destination)` in [`Quadrant::ALL`] order; cross-left
/// is `None` when its quadrant is empty (`n = 4`).
///
/// A broadcast header carries no bitstring: every node a stream visits takes
/// a copy except the antipode a cross-left stream transits, so each stream
/// covers its whole quadrant and the destination is all it needs.
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

/// Plan the multicast branches for an explicit target set (§2.5.3).
///
/// Targets are partitioned by quadrant; each non-empty quadrant yields one
/// branch whose `dst` is its furthest target (the most hops) and whose
/// `bitstring` has bit `unicast_hops(src, t) − 1` set for each of its
/// targets `t`: a target sits that many hops along its quadrant's branch.
/// Targets equal to `src` are ignored; duplicates set the same bit once.
/// Broadcast is the all-targets special case. Each branch goes to `emit` in
/// [`Quadrant::ALL`] order, so planning allocates nothing.
///
/// Bitstrings are emitted into `slab`: branches spanning ≤ 63 hops stay
/// inline (and never touch it), longer ones acquire a slab row. In the
/// simulators `slab` is the network `PacketTable`'s, so a row's lifetime is
/// the branch packet's; standalone callers (tests, RTL harness) pass a
/// scratch slab sized via [`crate::bits::BitSlab::new`]`(ring.quarter() + 1)`.
pub fn multicast_branches_into(
    ring: &Ring,
    src: NodeId,
    targets: impl IntoIterator<Item = NodeId>,
    slab: &mut BitSlab,
    emit: impl FnMut(Branch),
) {
    let mut branches = [None::<Branch>; 4];
    for t in targets.into_iter().filter(|&t| t != src) {
        let quadrant = quadrant_of(ring, src, t);
        let hops = unicast_hops(ring, src, t);
        let first = Branch { quadrant, dst: t, bitstring: Bits::ZERO };
        let b = branches[quadrant.index()].get_or_insert(first);
        slab.set_bit(&mut b.bitstring, hops - 1);
        if hops > unicast_hops(ring, src, b.dst) {
            b.dst = t;
        }
    }
    branches.into_iter().flatten().for_each(emit);
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
    use crate::flit::{PacketMeta, TrafficClass};
    use crate::routing::{walk_deliveries, Routing};
    use crate::topology::QuarcTopology;
    use std::collections::HashSet;

    fn r16() -> Ring {
        Ring::new(16)
    }

    fn mc(ring: &Ring, src: NodeId, targets: &[NodeId]) -> Vec<Branch> {
        let (mut slab, mut branches) = (BitSlab::new(ring.quarter() + 1), Vec::new());
        multicast_branches_into(ring, src, targets.iter().copied(), &mut slab, |b| {
            branches.push(b)
        });
        branches
    }

    /// The nodes a stream of `class` delivers to, decoded by walking the
    /// route the switches take (`n ≤ 64`: bitstrings are inline).
    fn delivered(ring: &Ring, src: NodeId, class: TrafficClass, b: Branch) -> Vec<NodeId> {
        let meta = PacketMeta { bitstring: b.bitstring, ..PacketMeta::header(class, src, b.dst) };
        let topo = QuarcTopology::new(ring.len());
        walk_deliveries(&topo, &BitSlab::inline_only(), b.quadrant.index(), &meta)
    }

    /// Each broadcast stream of `src` with the nodes it delivers to.
    fn broadcast(ring: &Ring, src: NodeId) -> Vec<(Quadrant, Vec<NodeId>)> {
        let heads = broadcast_branch_heads(ring, src).into_iter().flatten();
        heads
            .map(|(quadrant, dst)| {
                let b = Branch { quadrant, dst, bitstring: Bits::ZERO };
                (quadrant, delivered(ring, src, TrafficClass::Broadcast, b))
            })
            .collect()
    }

    /// The node walk of the unicast `src → dst` (excluding `src`, including
    /// `dst`).
    fn path(ring: &Ring, src: NodeId, dst: NodeId) -> Vec<NodeId> {
        let (topo, mut path) = (QuarcTopology::new(ring.len()), Vec::new());
        topo.walk_unicast(src, dst, |node, hop| {
            let (to, _) = Routing::link_target(&topo, node, hop.out.into()).expect("a wired link");
            path.push(NodeId::new(to));
        });
        path
    }

    #[test]
    fn fig6_broadcast_destinations() {
        // Paper Fig. 6: node 0 broadcasts in a 16-node Quarc; the four stream
        // destinations are 4 (right rim), 5 (cross-left), 11 (cross-right)
        // and 12 (left rim).
        let heads = broadcast_branch_heads(&r16(), NodeId(0));
        let dsts: HashSet<u32> = heads.iter().flatten().map(|(_, dst)| dst.0).collect();
        assert_eq!(dsts, HashSet::from([4, 5, 11, 12]));
    }

    #[test]
    fn branch_heads_agree_with_full_branches() {
        // The broadcast streams are the all-targets multicast's branches.
        for n in [4usize, 8, 16, 32, 64] {
            let ring = Ring::new(n);
            let all: Vec<NodeId> = ring.nodes().collect();
            for src in ring.nodes() {
                let full: Vec<(Quadrant, NodeId)> =
                    mc(&ring, src, &all).iter().map(|b| (b.quadrant, b.dst)).collect();
                let heads: Vec<(Quadrant, NodeId)> =
                    broadcast_branch_heads(&ring, src).into_iter().flatten().collect();
                assert_eq!(heads, full, "n={n} src={src}");
            }
        }
    }

    #[test]
    fn fig6_branch_coverage() {
        let streams = broadcast(&r16(), NodeId(0));
        let by_quad = |q: Quadrant| {
            let (_, nodes) = streams.iter().find(|(quadrant, _)| *quadrant == q).unwrap();
            nodes.iter().map(|n| n.0).collect::<Vec<_>>()
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
                for (_, nodes) in broadcast(&ring, src) {
                    for d in nodes {
                        assert!(seen.insert(d), "n={n} src={src}: {d} covered twice");
                        assert_ne!(d, src);
                    }
                }
                assert_eq!(seen.len(), n - 1, "n={n} src={src}: incomplete coverage");
            }
        }
    }

    #[test]
    fn broadcast_branch_hops_equal_quarter() {
        // Every stream is the unicast route to its destination, on its own
        // quadrant, n/4 hops long.
        let (ring, src) = (Ring::new(32), NodeId(3));
        for (quadrant, dst) in broadcast_branch_heads(&ring, src).into_iter().flatten() {
            assert_eq!(quadrant_of(&ring, src, dst), quadrant);
            let walk = path(&ring, src, dst);
            assert_eq!(walk.len(), 8);
            assert_eq!(*walk.last().unwrap(), dst);
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
                for t in ring.nodes().filter(|&t| t != s) {
                    let path = path(&ring, s, t);
                    assert_eq!(path.len(), unicast_hops(&ring, s, t), "{s}->{t} n={n}");
                    assert_eq!(*path.last().unwrap(), t);
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
        assert_eq!(path(&ring, NodeId(3), NodeId(11)), vec![NodeId(11)]);
    }

    #[test]
    fn cross_left_transits_antipode() {
        let ring = r16();
        // 0 → 6 is cross-left: antipode 8, then CCW 8→7→6.
        assert_eq!(path(&ring, NodeId(0), NodeId(6)), vec![NodeId(8), NodeId(7), NodeId(6)]);
    }

    #[test]
    fn multicast_covers_broadcast() {
        for n in [8usize, 16, 32] {
            let ring = Ring::new(n);
            let src = NodeId(2);
            let all: Vec<NodeId> = ring.nodes().collect();
            let mc_set: HashSet<NodeId> = mc(&ring, src, &all)
                .into_iter()
                .flat_map(|b| delivered(&ring, src, TrafficClass::Multicast, b))
                .collect();
            let bc_set: HashSet<NodeId> =
                broadcast(&ring, src).into_iter().flat_map(|(_, nodes)| nodes).collect();
            assert_eq!(mc_set, bc_set, "n={n}");
        }
    }

    #[test]
    fn multicast_bitstring_marks_hop_positions() {
        let ring = r16();
        // Targets 2 and 4 from source 0: right-rim branch, walk 1,2,3,4.
        let branches = mc(&ring, NodeId(0), &[NodeId(2), NodeId(4)]);
        assert_eq!(branches.len(), 1);
        let b = branches[0];
        assert_eq!(b.quadrant, Quadrant::Right);
        assert_eq!(b.dst, NodeId(4));
        // Hop 2 (bit 1) and hop 4 (bit 3).
        assert_eq!(b.bitstring, Bits::inline(0b1010));
        assert_eq!(delivered(&ring, NodeId(0), TrafficClass::Multicast, b), [NodeId(2), NodeId(4)]);
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
        assert_eq!(delivered(&ring, NodeId(0), TrafficClass::Multicast, branches[0]), [NodeId(1)]);
    }

    #[test]
    fn n4_has_no_cross_left_branch() {
        let ring = Ring::new(4);
        let streams = broadcast(&ring, NodeId(0));
        assert_eq!(streams.len(), 3);
        let covered: HashSet<u32> =
            streams.iter().flat_map(|(_, nodes)| nodes.iter().map(|n| n.0)).collect();
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
