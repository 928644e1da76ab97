//! The torus cases of [`crate::grid`]'s unit tests. Mesh and torus are one
//! [`GridTopology`], but tier-1 test ids are module paths, so these stay at
//! `torus::tests` (and the mesh cases in `topology::tests`).

mod tests {
    use crate::bits::{BitSlab, Bits};
    use crate::grid::{grid_collectives, GridOut, GridTopology};
    use crate::ids::{NodeId, VcId};
    use crate::routing::{walk_deliveries, Routing};
    use crate::topology::TopologyKind;
    use crate::vc::{assert_deadlock_free, assert_vcs_exact, ChannelDepGraph};

    #[test]
    fn coords_roundtrip_and_wrap() {
        let t = GridTopology::torus(4, 4);
        assert_eq!(t.link_target(NodeId(3), GridOut::XPlus), Some(NodeId(0)));
        assert_eq!(t.link_target(NodeId(0), GridOut::XMinus), Some(NodeId(3)));
        assert_eq!(t.link_target(NodeId(12), GridOut::YPlus), Some(NodeId(0)));
        assert_eq!(t.link_target(NodeId(0), GridOut::YMinus), Some(NodeId(12)));
    }

    #[test]
    fn routes_reach_destination_in_hops() {
        let t = GridTopology::torus(4, 4);
        for s in 0..16usize {
            for d in 0..16usize {
                let (src, dst) = (NodeId::new(s), NodeId::new(d));
                let mut cur = src;
                let mut steps = 0;
                while t.route(cur, dst) != GridOut::Eject {
                    cur = t.link_target(cur, t.route(cur, dst)).unwrap();
                    steps += 1;
                    assert!(steps <= t.diameter(), "route diverged {s}->{d}");
                }
                assert_eq!(cur, dst);
                assert_eq!(steps, t.hops(src, dst));
            }
        }
    }

    #[test]
    fn torus_shorter_than_mesh() {
        // Wrap links halve the worst-case distance vs the mesh.
        let t = GridTopology::torus(8, 8);
        assert_eq!(t.diameter(), 8);
        let m = GridTopology::mesh(8, 8);
        assert_eq!(m.diameter(), 14);
    }

    #[test]
    fn torus_channel_graph_is_acyclic() {
        // The torus shapes of `tests/grid_digest.rs`.
        for (c, r) in [(2usize, 2usize), (4, 4), (5, 3), (3, 5), (8, 8)] {
            let (name, t) = (format!("{c}x{r} torus"), GridTopology::torus(c, r));
            assert_deadlock_free(&name, &t, |bits| grid_collectives(&t, bits));
            assert_vcs_exact(&name, TopologyKind::Torus, &t);
        }
    }

    #[test]
    fn single_vc_torus_ring_would_cycle() {
        // Sanity: without the dateline the x-rings alone are cyclic. Build
        // routes with a fixed VC0 and check the detector fires.
        let t = GridTopology::torus(4, 4);
        let mut g = ChannelDepGraph::new();
        for y in 0..4usize {
            for x in 0..4usize {
                let a = t.node_at(x, y);
                let b = t.node_at((x + 1) % 4, y);
                g.add_dependency(
                    ((a.index() * 4) as u64, VcId::VC0),
                    ((b.index() * 4) as u64, VcId::VC0),
                );
            }
        }
        assert!(g.has_cycle());
    }

    #[test]
    fn tie_breaking_is_deterministic() {
        // Exactly half way around an even ring: the + direction wins.
        let t = GridTopology::torus(4, 4);
        assert_eq!(t.route(NodeId(0), NodeId(2)), GridOut::XPlus);
        assert_eq!(t.route(NodeId(2), NodeId(0)), GridOut::XPlus);
    }

    #[test]
    fn square_builder_covers_n() {
        assert!(GridTopology::square_torus(16).num_nodes() >= 16);
        assert!(GridTopology::square_torus(17).num_nodes() >= 17);
    }

    #[test]
    fn torus_broadcast_branches_cover_every_node_exactly_once() {
        for (c, r) in [(4usize, 4usize), (5, 3), (8, 8)] {
            let t = GridTopology::torus(c, r);
            for s in 0..t.num_nodes() {
                let src = NodeId::new(s);
                let mut branches = Vec::new();
                let mut slab = BitSlab::new(t.diameter() + 1);
                t.multicast_branches_into(
                    src,
                    (0..t.num_nodes()).map(NodeId::new),
                    &mut slab,
                    |b| branches.push(b),
                );
                let mut seen = std::collections::HashSet::new();
                for b in &branches {
                    for d in walk_deliveries(&t, &slab, 0, &b.header(src)) {
                        assert!(seen.insert(d), "{c}x{r} src={src}: {d} covered twice");
                        assert_ne!(d, src);
                    }
                }
                assert_eq!(seen.len(), t.num_nodes() - 1, "{c}x{r} src={src}");
            }
        }
    }

    #[test]
    fn torus_multicast_uses_wrap_shortcuts() {
        // Source (0,0) on 4×4; target (3,3) is one x− and one y− wrap hop
        // away: a 2-hop branch, not the mesh's 6-hop one.
        let t = GridTopology::torus(4, 4);
        let mut branches = Vec::new();
        let mut slab = BitSlab::new(t.diameter() + 1);
        t.multicast_branches_into(NodeId(0), [NodeId(15)], &mut slab, |b| branches.push(b));
        assert_eq!(branches.len(), 1);
        assert_eq!(branches[0].dst, NodeId(15));
        assert_eq!(branches[0].bitstring, Bits::inline(0b10));
        assert_eq!(walk_deliveries(&t, &slab, 0, &branches[0].header(NodeId(0))), [NodeId(15)]);
    }

    #[test]
    fn torus_multicast_covers_explicit_targets() {
        let t = GridTopology::torus(4, 4);
        let src = NodeId(5);
        let targets = vec![NodeId(0), NodeId(2), NodeId(7), NodeId(8), NodeId(13), NodeId(15)];
        let mut branches = Vec::new();
        let mut slab = BitSlab::new(t.diameter() + 1);
        t.multicast_branches_into(src, targets.iter().copied(), &mut slab, |b| branches.push(b));
        let mut delivered: Vec<NodeId> =
            branches.iter().flat_map(|b| walk_deliveries(&t, &slab, 0, &b.header(src))).collect();
        delivered.sort();
        let mut want = targets.clone();
        want.sort();
        assert_eq!(delivered, want);
    }
}
