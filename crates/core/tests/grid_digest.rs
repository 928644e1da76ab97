//! The routing functions, pinned as FNV digests.
//!
//! Every unicast's channel list — `(node, out index, vc)` per hop, for every
//! ordered pair — is folded into one number per topology family, over every
//! Quarc size `n ≡ 0 (mod 4)` and every even Spidergon size in `4..=64`, and
//! over the grid shapes below. The constants were generated from the
//! hand-written channel lists the routing walker replaced.
//!
//! Every decision the grid topologies make — the dimension-ordered `route`
//! of every pair, `hops`, the `link_target` wiring, `diameter`, the dateline
//! `next_vc` of every hop and the multicast planner's `(dst, bitstring)`
//! branch list — is folded into one number per shape, over odd, even (the
//! half-way tie) and non-square sides. The constants were generated from the
//! two separate mesh and torus definitions that `GridTopology` replaced (the
//! mesh had no `next_vc` then; the simulator ran it on VC0), so a rewrite of
//! the grid arithmetic that changes any decision changes a digest.
//!
//! The ring collective planners — the Quarc broadcast heads and multicast
//! branches, and every packet of the Spidergon broadcast chains — are
//! folded the same way into one number per topology.

use quarc_core::prelude::*;

/// FNV-1a over 64-bit words, one byte at a time.
struct Fnv(u64);

impl Fnv {
    fn new() -> Self {
        Fnv(0xcbf2_9ce4_8422_2325)
    }

    fn fold(&mut self, word: u64) {
        for byte in word.to_le_bytes() {
            self.0 = (self.0 ^ u64::from(byte)).wrapping_mul(0x0000_0100_0000_01b3);
        }
    }
}

/// A fixed target set of up to five nodes spread over the address range
/// (duplicates and the source itself are left in: the planner must ignore
/// both).
fn fixed_targets(n: usize) -> Vec<NodeId> {
    [0, n / 3, n / 2, (2 * n) / 3 + 1, n - 1]
        .into_iter()
        .filter(|&i| i < n)
        .map(NodeId::new)
        .collect()
}

/// Fold every routing decision of one grid.
fn grid_digest(t: GridTopology) -> u64 {
    let n = t.num_nodes();
    let mut h = Fnv::new();
    h.fold(t.diameter() as u64);
    for s in (0..n).map(NodeId::new) {
        for d in (0..n).map(NodeId::new) {
            h.fold(t.route(s, d).index() as u64);
            h.fold(t.hops(s, d) as u64);
        }
        for out in GridOut::ALL {
            h.fold(t.link_target(s, out).map_or(u64::MAX, |to| to.index() as u64));
            for vc in [VcId::VC0, VcId::VC1] {
                h.fold(t.next_vc(s, out, vc).index() as u64);
            }
        }
        let mut slab = BitSlab::new(t.diameter() + 1);
        let all: Vec<NodeId> = (0..n).map(NodeId::new).collect();
        for targets in [all, fixed_targets(n)] {
            let mut branches = Vec::new();
            t.multicast_branches_into(s, targets, &mut slab, |b| branches.push(b));
            h.fold(branches.len() as u64);
            for b in &branches {
                let bits = slab.to_u128(b.bitstring);
                h.fold(b.dst.index() as u64);
                h.fold(bits as u64);
                h.fold((bits >> 64) as u64);
                slab.release(b.bitstring);
            }
        }
    }
    h.0
}

/// Fold every unicast's channel list over a family of networks: `(node,
/// out index, vc)` per hop of [`Routing::walk_unicast`].
fn route_digest<R: Routing>(nets: impl IntoIterator<Item = R>) -> u64 {
    let mut h = Fnv::new();
    for topo in nets {
        let n = topo.num_nodes();
        h.fold(n as u64);
        for s in (0..n).map(NodeId::new) {
            for d in (0..n).map(NodeId::new).filter(|&d| d != s) {
                let mut route = Vec::new();
                topo.walk_unicast(s, d, |node, hop| {
                    route.push([node, hop.out.into(), hop.out_vc.index()])
                });
                h.fold(route.len() as u64);
                route.iter().flatten().for_each(|&word| h.fold(word as u64));
            }
        }
    }
    h.0
}

/// Fold one Quarc source's multicast branches for `targets`: the branch
/// count, then each branch's `(quadrant, dst)` and set-bit positions (read
/// with `bit_at`, so slab row numbering cannot move the digest).
fn fold_multicast(h: &mut Fnv, ring: &Ring, src: NodeId, targets: &[NodeId], slab: &mut BitSlab) {
    let mut branches = Vec::new();
    multicast_branches_into(ring, src, targets.iter().copied(), slab, |b| {
        branches.push((b.quadrant, b.dst, b.bitstring))
    });
    h.fold(branches.len() as u64);
    for (quadrant, dst, bits) in branches {
        h.fold(quadrant.index() as u64);
        h.fold(dst.index() as u64);
        for k in (0..slab.capacity_bits()).filter(|&k| slab.bit_at(bits, k)) {
            h.fold(k as u64);
        }
        h.fold(u64::MAX);
        slab.release(bits);
    }
}

/// Fold every packet of a Spidergon broadcast from `src` as `(injecting
/// node, class, dst, dir, remaining)`, in the replication order of a stack
/// seeded with the source's seeds.
fn fold_chains(h: &mut Fnv, ring: &Ring, src: NodeId) {
    let mut pending: Vec<(NodeId, ChainSeed)> = Vec::new();
    spidergon_broadcast_seeds(ring, src).into_iter().for_each(|s| pending.push((src, s)));
    while let Some((at, seed)) = pending.pop() {
        for word in [at.index(), seed.class as usize, seed.dst.index(), seed.dir as usize] {
            h.fold(word as u64);
        }
        h.fold(u64::from(seed.remaining));
        let header = PacketMeta::header(seed.class, src, seed.dst);
        let bitstring = Bits::inline(u64::from(seed.remaining));
        let meta = PacketMeta { bitstring, dir: seed.dir, ..header };
        chain_continuations(ring, seed.dst, &meta, |c| pending.push((seed.dst, c)));
    }
}

/// The ring collective planners, pinned: the Quarc broadcast heads and
/// multicast branches (inline sizes `4..=64`, plus two sizes whose branches
/// need slab rows) and the Spidergon broadcast chains. Generated from the
/// planners before they moved to emit callbacks.
#[test]
fn ring_collectives_are_pinned() {
    let mut quarc = Fnv::new();
    for n in (4..=64).step_by(4) {
        let ring = Ring::new(n);
        let mut slab = BitSlab::new(ring.quarter() + 1);
        let all: Vec<NodeId> = ring.nodes().collect();
        for src in ring.nodes() {
            for (quadrant, dst) in broadcast_branch_heads(&ring, src).into_iter().flatten() {
                quarc.fold(quadrant.index() as u64);
                quarc.fold(dst.index() as u64);
            }
            fold_multicast(&mut quarc, &ring, src, &all, &mut slab);
            fold_multicast(&mut quarc, &ring, src, &fixed_targets(n), &mut slab);
        }
    }
    for n in [256, 1024] {
        let ring = Ring::new(n);
        let mut slab = BitSlab::new(ring.quarter() + 1);
        let targets: Vec<NodeId> = (0..n).step_by(61).map(NodeId::new).collect();
        for src in [0, 1, n / 2 - 1, n - 1].map(NodeId::new) {
            fold_multicast(&mut quarc, &ring, src, &targets, &mut slab);
        }
        assert_eq!(slab.live_rows(), 0);
    }
    let mut spidergon = Fnv::new();
    for n in (4..=64).step_by(4) {
        let ring = Ring::new(n);
        ring.nodes().for_each(|src| fold_chains(&mut spidergon, &ring, src));
    }
    let got = [quarc.0, spidergon.0];
    assert_eq!(got, [0xfc34_d998_35ae_f1fb, 0x3a61_9f30_671a_d925], "got {got:#x?}");
}

/// The mesh and torus shapes of the digest tables below.
const MESH: [(usize, usize); 5] = [(1, 1), (4, 4), (5, 3), (3, 5), (9, 9)];
const TORUS: [(usize, usize); 5] = [(2, 2), (4, 4), (5, 3), (3, 5), (8, 8)];

#[test]
fn ring_routes_are_pinned() {
    let got = [
        route_digest((4..=64).step_by(4).map(QuarcTopology::new)),
        route_digest((4..=64).step_by(2).map(SpidergonTopology::new)),
    ];
    assert_eq!(got, [0xc7ec_7a02_781c_b725, 0x4fcc_d7fd_b802_5906], "got {got:#x?}");
}

#[test]
fn grid_routes_are_pinned() {
    let got = [
        route_digest(MESH.map(|(c, r)| GridTopology::mesh(c, r))),
        route_digest(TORUS.map(|(c, r)| GridTopology::torus(c, r))),
    ];
    assert_eq!(got, [0x4dfe_faf8_82b4_8965, 0xde4b_a744_b401_7cd1], "got {got:#x?}");
}

/// Compare every shape's digest at once, so a failure prints the whole table.
fn assert_pinned(build: fn(usize, usize) -> GridTopology, want: &[(usize, usize, u64)]) {
    let got: Vec<_> =
        want.iter().map(|&(cols, rows, _)| (cols, rows, grid_digest(build(cols, rows)))).collect();
    assert_eq!(got, want, "got {got:#x?}");
}

#[test]
fn mesh_routing_digests_are_pinned() {
    assert_pinned(
        GridTopology::mesh,
        &[
            (1, 1, 0xb35e_5ad3_17f6_be79),
            (4, 4, 0xc271_75e7_1e65_1e5e),
            (5, 3, 0x5ffd_1954_fd75_2330),
            (3, 5, 0x4789_e544_d2e2_9a38),
            (9, 9, 0xdf65_9c3a_7767_caca),
        ],
    );
}

#[test]
fn torus_routing_digests_are_pinned() {
    assert_pinned(
        GridTopology::torus,
        &[
            (2, 2, 0x5d3b_a951_f30a_8567),
            (4, 4, 0x3eb8_0015_d9ac_ed05),
            (5, 3, 0x7178_7ab7_ee9a_8eb4),
            (3, 5, 0x1db0_4092_90d0_aefd),
            (8, 8, 0x01f1_fbb2_d78d_8b0d),
        ],
    );
}
