//! Topology descriptions: port enumerations, link maps and feeder tables for
//! the Quarc and Spidergon NoCs. (The 2D mesh and torus — simulator
//! validation in the paper's §3.2 and its stated "next objective" comparison
//! — are one parameterised definition in [`crate::grid`].)
//!
//! A *feeder table* lists, for every output port of a switch, which input
//! ports may ever request it under the deterministic routing discipline. The
//! paper's cost argument (§2.3.2) rests on these tables being tiny — "the
//! hardware is tailored to the paths allowed by the routing discipline" — so
//! they are defined here once and shared by the behavioural router, the RTL
//! crossbar and the area model.

use crate::ids::NodeId;
use crate::quadrant::Quadrant;
use crate::ring::Ring;
use std::fmt;
use std::str::FromStr;

/// Which network family a configuration refers to.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum TopologyKind {
    /// The paper's contribution: edge-symmetric ring + doubled cross links,
    /// all-port router.
    Quarc,
    /// The STMicroelectronics baseline: ring + single cross link, one-port
    /// router.
    Spidergon,
    /// 2D mesh with XY routing (validation / extension).
    Mesh,
    /// 2D torus: the mesh with wrap links, dimension-ordered routing and
    /// per-dimension dateline VCs (see [`crate::grid`]) — the second half of
    /// the paper's §4 "next objective" comparison.
    Torus,
}

impl fmt::Display for TopologyKind {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let s = match self {
            TopologyKind::Quarc => "quarc",
            TopologyKind::Spidergon => "spidergon",
            TopologyKind::Mesh => "mesh",
            TopologyKind::Torus => "torus",
        };
        write!(f, "{s}")
    }
}

/// Inverse of [`TopologyKind`]'s `Display`; the error is the rejected name.
impl FromStr for TopologyKind {
    type Err = String;

    fn from_str(s: &str) -> Result<Self, Self::Err> {
        match s {
            "quarc" => Ok(TopologyKind::Quarc),
            "spidergon" => Ok(TopologyKind::Spidergon),
            "mesh" => Ok(TopologyKind::Mesh),
            "torus" => Ok(TopologyKind::Torus),
            other => Err(format!("unknown topology {other:?}")),
        }
    }
}

// ---------------------------------------------------------------------------
// Quarc
// ---------------------------------------------------------------------------

/// Input ports of a Quarc switch: four network inputs plus the four local
/// ingress ports of the all-port router.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum QuarcIn {
    /// Rim input carrying clockwise traffic (link from the CCW neighbour).
    RimCw,
    /// Rim input carrying counter-clockwise traffic.
    RimCcw,
    /// Cross-right link input (arrives at the antipode; may deliver there).
    CrossRight,
    /// Cross-left link input (transit only — never delivers, §2.3.2).
    CrossLeft,
    /// Local ingress from the transceiver's per-quadrant queue.
    Local(Quadrant),
}

impl QuarcIn {
    /// All eight input ports.
    pub const ALL: [QuarcIn; 8] = [
        QuarcIn::RimCw,
        QuarcIn::RimCcw,
        QuarcIn::CrossRight,
        QuarcIn::CrossLeft,
        QuarcIn::Local(Quadrant::Right),
        QuarcIn::Local(Quadrant::CrossRight),
        QuarcIn::Local(Quadrant::CrossLeft),
        QuarcIn::Local(Quadrant::Left),
    ];

    /// The four network (non-local) inputs.
    pub const NETWORK: [QuarcIn; 4] =
        [QuarcIn::RimCw, QuarcIn::RimCcw, QuarcIn::CrossRight, QuarcIn::CrossLeft];

    /// Stable index for per-port arrays (0..8).
    #[inline]
    pub fn index(self) -> usize {
        match self {
            QuarcIn::RimCw => 0,
            QuarcIn::RimCcw => 1,
            QuarcIn::CrossRight => 2,
            QuarcIn::CrossLeft => 3,
            QuarcIn::Local(q) => 4 + q.index(),
        }
    }
}

impl fmt::Display for QuarcIn {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            QuarcIn::RimCw => write!(f, "in:rim-cw"),
            QuarcIn::RimCcw => write!(f, "in:rim-ccw"),
            QuarcIn::CrossRight => write!(f, "in:cross-right"),
            QuarcIn::CrossLeft => write!(f, "in:cross-left"),
            QuarcIn::Local(q) => write!(f, "in:local-{q}"),
        }
    }
}

/// Output ports of a Quarc switch: four network outputs plus local ejection.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum QuarcOut {
    /// Rim link to the clockwise neighbour.
    RimCw,
    /// Rim link to the counter-clockwise neighbour.
    RimCcw,
    /// Cross-right link to the antipode.
    CrossRight,
    /// Cross-left link to the antipode.
    CrossLeft,
    /// Delivery to the local PE.
    Eject,
}

impl QuarcOut {
    /// All five output ports.
    pub const ALL: [QuarcOut; 5] = [
        QuarcOut::RimCw,
        QuarcOut::RimCcw,
        QuarcOut::CrossRight,
        QuarcOut::CrossLeft,
        QuarcOut::Eject,
    ];

    /// The four network (link) outputs.
    pub const NETWORK: [QuarcOut; 4] =
        [QuarcOut::RimCw, QuarcOut::RimCcw, QuarcOut::CrossRight, QuarcOut::CrossLeft];

    /// Stable index for per-port arrays (0..5).
    #[inline]
    pub fn index(self) -> usize {
        match self {
            QuarcOut::RimCw => 0,
            QuarcOut::RimCcw => 1,
            QuarcOut::CrossRight => 2,
            QuarcOut::CrossLeft => 3,
            QuarcOut::Eject => 4,
        }
    }
}

impl fmt::Display for QuarcOut {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            QuarcOut::RimCw => write!(f, "out:rim-cw"),
            QuarcOut::RimCcw => write!(f, "out:rim-ccw"),
            QuarcOut::CrossRight => write!(f, "out:cross-right"),
            QuarcOut::CrossLeft => write!(f, "out:cross-left"),
            QuarcOut::Eject => write!(f, "out:eject"),
        }
    }
}

/// The Quarc topology: `n` nodes (n ≡ 0 mod 4) on a ring with CW/CCW rim
/// links and *two* unidirectional cross links per node pair.
#[derive(Debug, Clone, Copy)]
pub struct QuarcTopology {
    ring: Ring,
}

impl QuarcTopology {
    /// Build an `n`-node Quarc. Panics unless `n ≥ 4` and `n ≡ 0 (mod 4)`.
    pub fn new(n: usize) -> Self {
        assert!(n >= 4 && n.is_multiple_of(4), "Quarc requires n ≥ 4 and n ≡ 0 (mod 4), got {n}");
        QuarcTopology { ring: Ring::new(n) }
    }

    /// The underlying ring arithmetic.
    #[inline]
    pub fn ring(&self) -> &Ring {
        &self.ring
    }

    /// Where a network output of `node` lands: the downstream node and the
    /// input port it feeds there. `Eject` has no downstream and returns
    /// `None`.
    pub fn link_target(&self, node: NodeId, out: QuarcOut) -> Option<(NodeId, QuarcIn)> {
        match out {
            QuarcOut::RimCw => Some((self.ring.cw(node), QuarcIn::RimCw)),
            QuarcOut::RimCcw => Some((self.ring.ccw(node), QuarcIn::RimCcw)),
            QuarcOut::CrossRight => Some((self.ring.antipode(node), QuarcIn::CrossRight)),
            QuarcOut::CrossLeft => Some((self.ring.antipode(node), QuarcIn::CrossLeft)),
            QuarcOut::Eject => None,
        }
    }

    /// The feeder table (§2.3.2): which inputs may ever request each output.
    ///
    /// Note the asymmetry between the cross inputs: `CrossRight` may eject
    /// (deliver at the antipode) while `CrossLeft` is transit-only — this is
    /// the paper's "one of the cross input ports may require to send flits in
    /// maximum two possible destinations".
    pub fn feeders(out: QuarcOut) -> &'static [QuarcIn] {
        match out {
            QuarcOut::RimCw => {
                &[QuarcIn::RimCw, QuarcIn::CrossRight, QuarcIn::Local(Quadrant::Right)]
            }
            QuarcOut::RimCcw => {
                &[QuarcIn::RimCcw, QuarcIn::CrossLeft, QuarcIn::Local(Quadrant::Left)]
            }
            QuarcOut::CrossRight => &[QuarcIn::Local(Quadrant::CrossRight)],
            QuarcOut::CrossLeft => &[QuarcIn::Local(Quadrant::CrossLeft)],
            QuarcOut::Eject => &[QuarcIn::RimCw, QuarcIn::RimCcw, QuarcIn::CrossRight],
        }
    }

    /// The outputs an input may request (transpose of [`Self::feeders`]).
    #[cfg(test)]
    fn destinations(input: QuarcIn) -> &'static [QuarcOut] {
        match input {
            QuarcIn::RimCw => &[QuarcOut::Eject, QuarcOut::RimCw],
            QuarcIn::RimCcw => &[QuarcOut::Eject, QuarcOut::RimCcw],
            QuarcIn::CrossRight => &[QuarcOut::Eject, QuarcOut::RimCw],
            QuarcIn::CrossLeft => &[QuarcOut::RimCcw],
            QuarcIn::Local(Quadrant::Right) => &[QuarcOut::RimCw],
            QuarcIn::Local(Quadrant::CrossRight) => &[QuarcOut::CrossRight],
            QuarcIn::Local(Quadrant::CrossLeft) => &[QuarcOut::CrossLeft],
            QuarcIn::Local(Quadrant::Left) => &[QuarcOut::RimCcw],
        }
    }

    /// Every directed network link as `(from, out_port, to)`.
    #[cfg(test)]
    fn links(&self) -> Vec<(NodeId, QuarcOut, NodeId)> {
        let mut v = Vec::new();
        for node in self.ring.nodes() {
            for out in QuarcOut::NETWORK {
                let (to, _) = self.link_target(node, out).expect("network port");
                v.push((node, out, to));
            }
        }
        v
    }
}

// ---------------------------------------------------------------------------
// Spidergon
// ---------------------------------------------------------------------------

/// Input ports of a Spidergon switch: three network inputs plus the single
/// local ingress of the one-port router.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum SpiIn {
    /// Rim input carrying clockwise traffic.
    RimCw,
    /// Rim input carrying counter-clockwise traffic.
    RimCcw,
    /// Cross ("spoke") link input.
    Cross,
    /// The single local ingress port.
    Local,
}

impl SpiIn {
    /// All four input ports.
    pub const ALL: [SpiIn; 4] = [SpiIn::RimCw, SpiIn::RimCcw, SpiIn::Cross, SpiIn::Local];

    /// Stable index for per-port arrays (0..4).
    #[inline]
    pub fn index(self) -> usize {
        match self {
            SpiIn::RimCw => 0,
            SpiIn::RimCcw => 1,
            SpiIn::Cross => 2,
            SpiIn::Local => 3,
        }
    }
}

impl fmt::Display for SpiIn {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            SpiIn::RimCw => write!(f, "in:rim-cw"),
            SpiIn::RimCcw => write!(f, "in:rim-ccw"),
            SpiIn::Cross => write!(f, "in:cross"),
            SpiIn::Local => write!(f, "in:local"),
        }
    }
}

/// Output ports of a Spidergon switch.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum SpiOut {
    /// Rim link to the clockwise neighbour.
    RimCw,
    /// Rim link to the counter-clockwise neighbour.
    RimCcw,
    /// Cross link to the antipode.
    Cross,
    /// Delivery to the local PE (single ejection port).
    Eject,
}

impl SpiOut {
    /// All four output ports.
    pub const ALL: [SpiOut; 4] = [SpiOut::RimCw, SpiOut::RimCcw, SpiOut::Cross, SpiOut::Eject];

    /// The three network (link) outputs.
    pub const NETWORK: [SpiOut; 3] = [SpiOut::RimCw, SpiOut::RimCcw, SpiOut::Cross];

    /// Stable index for per-port arrays (0..4).
    #[inline]
    pub fn index(self) -> usize {
        match self {
            SpiOut::RimCw => 0,
            SpiOut::RimCcw => 1,
            SpiOut::Cross => 2,
            SpiOut::Eject => 3,
        }
    }
}

impl fmt::Display for SpiOut {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            SpiOut::RimCw => write!(f, "out:rim-cw"),
            SpiOut::RimCcw => write!(f, "out:rim-ccw"),
            SpiOut::Cross => write!(f, "out:cross"),
            SpiOut::Eject => write!(f, "out:eject"),
        }
    }
}

/// The Spidergon topology: `n` nodes (even) on a ring with CW/CCW rim links
/// and one cross link per node pair.
#[derive(Debug, Clone, Copy)]
pub struct SpidergonTopology {
    ring: Ring,
}

impl SpidergonTopology {
    /// Build an `n`-node Spidergon. Panics unless `n ≥ 4` and `n` is even.
    /// (We additionally require `n ≡ 0 (mod 4)` when comparing against Quarc,
    /// but the topology itself only needs even `n`.)
    pub fn new(n: usize) -> Self {
        assert!(n >= 4 && n.is_multiple_of(2), "Spidergon requires even n ≥ 4, got {n}");
        SpidergonTopology { ring: Ring::new(n) }
    }

    /// The underlying ring arithmetic.
    #[inline]
    pub fn ring(&self) -> &Ring {
        &self.ring
    }

    /// Where a network output of `node` lands.
    pub fn link_target(&self, node: NodeId, out: SpiOut) -> Option<(NodeId, SpiIn)> {
        match out {
            SpiOut::RimCw => Some((self.ring.cw(node), SpiIn::RimCw)),
            SpiOut::RimCcw => Some((self.ring.ccw(node), SpiIn::RimCcw)),
            SpiOut::Cross => Some((self.ring.antipode(node), SpiIn::Cross)),
            SpiOut::Eject => None,
        }
    }

    /// The feeder table under across-first deterministic routing.
    ///
    /// The cross input may continue in either rim direction (or eject), and
    /// the single ejection port is shared by all three network inputs — both
    /// facts make the Spidergon crossbar busier than Quarc's, which is the
    /// structural root of the paper's cost result.
    pub fn feeders(out: SpiOut) -> &'static [SpiIn] {
        match out {
            SpiOut::RimCw => &[SpiIn::RimCw, SpiIn::Cross, SpiIn::Local],
            SpiOut::RimCcw => &[SpiIn::RimCcw, SpiIn::Cross, SpiIn::Local],
            SpiOut::Cross => &[SpiIn::Local],
            SpiOut::Eject => &[SpiIn::RimCw, SpiIn::RimCcw, SpiIn::Cross],
        }
    }

    /// The outputs an input may request (transpose of [`Self::feeders`]).
    #[cfg(test)]
    fn destinations(input: SpiIn) -> &'static [SpiOut] {
        match input {
            SpiIn::RimCw => &[SpiOut::Eject, SpiOut::RimCw],
            SpiIn::RimCcw => &[SpiOut::Eject, SpiOut::RimCcw],
            SpiIn::Cross => &[SpiOut::Eject, SpiOut::RimCw, SpiOut::RimCcw],
            SpiIn::Local => &[SpiOut::RimCw, SpiOut::RimCcw, SpiOut::Cross],
        }
    }

    /// Every directed network link as `(from, out_port, to)`.
    #[cfg(test)]
    fn links(&self) -> Vec<(NodeId, SpiOut, NodeId)> {
        let mut v = Vec::new();
        for node in self.ring.nodes() {
            for out in SpiOut::NETWORK {
                let (to, _) = self.link_target(node, out).expect("network port");
                v.push((node, out, to));
            }
        }
        v
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::bits::{BitSlab, Bits};
    use crate::grid::{grid_collectives, GridOut, GridTopology};
    use crate::routing::{walk_deliveries, Routing};
    use crate::vc::{assert_deadlock_free, assert_vcs_exact};

    #[test]
    fn quarc_port_indices_are_dense() {
        let mut seen = [false; 8];
        for p in QuarcIn::ALL {
            assert!(!seen[p.index()]);
            seen[p.index()] = true;
        }
        assert!(seen.iter().all(|&b| b));
        let mut seen = [false; 5];
        for p in QuarcOut::ALL {
            assert!(!seen[p.index()]);
            seen[p.index()] = true;
        }
        assert!(seen.iter().all(|&b| b));
    }

    #[test]
    fn quarc_links_form_consistent_graph() {
        let t = QuarcTopology::new(16);
        // Each node has 4 outgoing network links; every incoming port of every
        // node is fed by exactly one link.
        let links = t.links();
        assert_eq!(links.len(), 64);
        let mut incoming = std::collections::HashMap::new();
        for node in t.ring().nodes() {
            for out in QuarcOut::NETWORK {
                let (to, in_port) = t.link_target(node, out).unwrap();
                assert!(
                    incoming.insert((to, in_port), node).is_none(),
                    "duplicate feeder for {to} {in_port}"
                );
            }
        }
        assert_eq!(incoming.len(), 64);
    }

    #[test]
    fn quarc_cross_links_are_antipodal_and_paired() {
        let t = QuarcTopology::new(16);
        for node in t.ring().nodes() {
            let (r, pr) = t.link_target(node, QuarcOut::CrossRight).unwrap();
            let (l, pl) = t.link_target(node, QuarcOut::CrossLeft).unwrap();
            assert_eq!(r, l, "both cross links reach the antipode");
            assert_eq!(r, t.ring().antipode(node));
            assert_eq!(pr, QuarcIn::CrossRight);
            assert_eq!(pl, QuarcIn::CrossLeft);
        }
    }

    #[test]
    fn quarc_feeder_table_matches_paper_section_232() {
        // "left, right and one of the cross input port may require to send
        // flits in maximum two possible destinations. The remaining input
        // ports only have one possible destination OPC."
        let two_dest: Vec<QuarcIn> = QuarcIn::ALL
            .into_iter()
            .filter(|&p| QuarcTopology::destinations(p).len() == 2)
            .collect();
        let one_dest: Vec<QuarcIn> = QuarcIn::ALL
            .into_iter()
            .filter(|&p| QuarcTopology::destinations(p).len() == 1)
            .collect();
        assert_eq!(two_dest, vec![QuarcIn::RimCw, QuarcIn::RimCcw, QuarcIn::CrossRight]);
        assert_eq!(one_dest.len(), 5); // cross-left + 4 local ingress ports
        assert!(one_dest.contains(&QuarcIn::CrossLeft));
    }

    #[test]
    fn quarc_feeders_and_destinations_are_transposes() {
        for out in QuarcOut::ALL {
            for &input in QuarcTopology::feeders(out) {
                assert!(
                    QuarcTopology::destinations(input).contains(&out),
                    "{input} feeds {out} but {out} not in destinations({input})"
                );
            }
        }
        for input in QuarcIn::ALL {
            for &out in QuarcTopology::destinations(input) {
                assert!(QuarcTopology::feeders(out).contains(&input));
            }
        }
    }

    #[test]
    fn spidergon_feeders_and_destinations_are_transposes() {
        for out in SpiOut::ALL {
            for &input in SpidergonTopology::feeders(out) {
                assert!(SpidergonTopology::destinations(input).contains(&out));
            }
        }
        for input in SpiIn::ALL {
            for &out in SpidergonTopology::destinations(input) {
                assert!(SpidergonTopology::feeders(out).contains(&input));
            }
        }
    }

    #[test]
    fn spidergon_links_count() {
        let t = SpidergonTopology::new(16);
        assert_eq!(t.links().len(), 48); // 3 unidirectional network links/node
        let (to, port) = t.link_target(NodeId(3), SpiOut::Cross).unwrap();
        assert_eq!(to, NodeId(11));
        assert_eq!(port, SpiIn::Cross);
    }

    #[test]
    fn quarc_edge_count_doubles_cross_capacity() {
        // Quarc has 4n directed links vs Spidergon's 3n: the doubled spoke.
        let q = QuarcTopology::new(32);
        let s = SpidergonTopology::new(32);
        assert_eq!(q.links().len(), 128);
        assert_eq!(s.links().len(), 96);
    }

    // The mesh cases of `crate::grid` (the torus cases are in `torus::tests`).

    #[test]
    fn mesh_coords_roundtrip() {
        let m = GridTopology::mesh(4, 4);
        for i in 0..16usize {
            let n = NodeId::new(i);
            let (x, y) = m.coords(n);
            assert_eq!(m.node_at(x, y), n);
        }
    }

    #[test]
    fn mesh_xy_route_reaches_destination() {
        let m = GridTopology::mesh(4, 4);
        for s in 0..16usize {
            for t in 0..16usize {
                let (src, dst) = (NodeId::new(s), NodeId::new(t));
                let mut cur = src;
                let mut hops = 0;
                loop {
                    match m.route(cur, dst) {
                        GridOut::Eject => break,
                        out => {
                            cur = m.link_target(cur, out).expect("route stays in mesh");
                            hops += 1;
                        }
                    }
                    assert!(hops <= m.diameter(), "route diverged");
                }
                assert_eq!(cur, dst);
                assert_eq!(hops, m.hops(src, dst));
            }
        }
    }

    #[test]
    fn mesh_edges_have_no_neighbours_outside() {
        let m = GridTopology::mesh(3, 3);
        assert_eq!(m.link_target(NodeId(2), GridOut::XPlus), None);
        assert_eq!(m.link_target(NodeId(0), GridOut::XMinus), None);
        assert_eq!(m.link_target(NodeId(0), GridOut::YMinus), None);
        assert_eq!(m.link_target(NodeId(8), GridOut::YPlus), None);
    }

    #[test]
    fn diameter_comparison_quarc_vs_mesh() {
        // §2.6 motivates the 64-node cap: the Quarc diameter n/4 grows
        // linearly while the mesh diameter 2(√n − 1) grows as √n, so the ring
        // topologies stop being competitive somewhere below n = 64
        // (16 vs 14 at n = 64).
        for n in [16usize, 36] {
            let mesh = GridTopology::square_mesh(n);
            assert!(n / 4 <= mesh.diameter(), "n={n}");
        }
        assert!(64 / 4 > GridTopology::square_mesh(64).diameter());
    }

    #[test]
    fn topology_kind_display() {
        assert_eq!(TopologyKind::Quarc.to_string(), "quarc");
        assert_eq!(TopologyKind::Spidergon.to_string(), "spidergon");
        assert_eq!(TopologyKind::Mesh.to_string(), "mesh");
        assert_eq!(TopologyKind::Torus.to_string(), "torus");
    }

    #[test]
    fn topology_kind_parses_what_it_displays() {
        for kind in
            [TopologyKind::Quarc, TopologyKind::Spidergon, TopologyKind::Mesh, TopologyKind::Torus]
        {
            assert_eq!(kind.to_string().parse(), Ok(kind));
        }
        assert!("Quarc".parse::<TopologyKind>().is_err());
        assert!("".parse::<TopologyKind>().is_err());
    }

    #[test]
    fn mesh_multicast_branches_cover_targets_exactly_once() {
        let m = GridTopology::mesh(4, 4);
        let src = NodeId(5); // (1, 1)
        let targets = vec![NodeId(0), NodeId(3), NodeId(7), NodeId(12), NodeId(15), NodeId(6)];
        let mut branches = Vec::new();
        let mut slab = BitSlab::new(m.diameter() + 1);
        m.multicast_branches_into(src, targets.iter().copied(), &mut slab, |b| branches.push(b));
        let mut delivered: Vec<NodeId> =
            branches.iter().flat_map(|b| walk_deliveries(&m, &slab, 0, &b.header(src))).collect();
        delivered.sort();
        let mut want = targets.clone();
        want.sort();
        assert_eq!(delivered, want);
        assert_eq!(
            branches.iter().map(|b| slab.popcount(b.bitstring) as usize).sum::<usize>(),
            targets.len(),
            "receiver count must equal the distinct target count"
        );
    }

    #[test]
    fn mesh_broadcast_branches_cover_every_node_exactly_once() {
        for (c, r) in [(4usize, 4usize), (3, 5), (8, 8)] {
            let m = GridTopology::mesh(c, r);
            for s in 0..m.num_nodes() {
                let src = NodeId::new(s);
                let mut branches = Vec::new();
                let mut slab = BitSlab::new(m.diameter() + 1);
                m.multicast_branches_into(
                    src,
                    (0..m.num_nodes()).map(NodeId::new),
                    &mut slab,
                    |b| branches.push(b),
                );
                let mut seen = std::collections::HashSet::new();
                for b in &branches {
                    for d in walk_deliveries(&m, &slab, 0, &b.header(src)) {
                        assert!(seen.insert(d), "{c}x{r} src={src}: {d} covered twice");
                        assert_ne!(d, src);
                    }
                }
                assert_eq!(seen.len(), m.num_nodes() - 1, "{c}x{r} src={src}");
            }
        }
    }

    #[test]
    fn mesh_channel_graph_is_acyclic() {
        // The mesh shapes of `tests/grid_digest.rs`, and the 8×8 the torus
        // test also walks: XY routing on VC0 alone.
        for (c, r) in [(1usize, 1usize), (4, 4), (5, 3), (3, 5), (8, 8), (9, 9)] {
            let (name, m) = (format!("{c}x{r} mesh"), GridTopology::mesh(c, r));
            assert_deadlock_free(&name, &m, |bits| grid_collectives(&m, bits));
            if c * r > 1 {
                assert_vcs_exact(&name, TopologyKind::Mesh, &m);
            }
        }
    }

    #[test]
    fn mesh_multicast_ignores_source_and_duplicates() {
        let m = GridTopology::mesh(4, 4);
        let src = NodeId(0);
        let mut branches = Vec::new();
        let mut slab = BitSlab::new(m.diameter() + 1);
        m.multicast_branches_into(src, [src, NodeId(2), NodeId(2), NodeId(9)], &mut slab, |b| {
            branches.push(b)
        });
        assert_eq!(branches.iter().map(|b| slab.popcount(b.bitstring) as usize).sum::<usize>(), 2);
    }

    #[test]
    fn mesh_turn_row_target_rides_the_up_branch() {
        // Source (0,0), targets (2,0) and (2,3): one branch through the turn
        // node (2,0), which takes its copy on the x run.
        let m = GridTopology::mesh(4, 4);
        let mut branches = Vec::new();
        let mut slab = BitSlab::new(m.diameter() + 1);
        m.multicast_branches_into(NodeId(0), [NodeId(2), NodeId(14)], &mut slab, |b| {
            branches.push(b)
        });
        assert_eq!(branches.len(), 1);
        assert_eq!(branches[0].dst, NodeId(14));
        // Hops 2 (node 2, bit 1) and 5 (node 14, bit 4).
        assert_eq!(branches[0].bitstring, Bits::inline(0b10010));
    }
}
