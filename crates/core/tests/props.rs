//! Property-based tests over the core routing and encoding invariants.
//!
//! These complement the unit tests with randomly generated configurations:
//! any counterexample here would be a soundness bug in the reproduction (a
//! mis-routed packet, a node missed by a broadcast, or a corrupted wire
//! word), so the strategies deliberately cover every legal network size.

use proptest::prelude::*;
use quarc_core::flit::wire::{decode, encode, WireFlit};
use quarc_core::prelude::*;
use std::collections::HashSet;

/// Legal Quarc network sizes (n ≡ 0 mod 4, ≤ 64 per the 6-bit address field).
fn quarc_sizes() -> impl Strategy<Value = usize> {
    prop_oneof![Just(4usize), Just(8), Just(12), Just(16), Just(24), Just(32), Just(48), Just(64)]
}

/// The nodes a Quarc stream injected on `quadrant` delivers to, in visit
/// order: every hop that clones, then the destination, where the walk ends.
fn delivered(ring: &Ring, quadrant: Quadrant, meta: &PacketMeta, slab: &BitSlab) -> Vec<NodeId> {
    let (topo, src, mut nodes) = (QuarcTopology::new(ring.len()), meta.src.index(), Vec::new());
    let route = topo.route_local(src, quadrant.index(), meta);
    topo.walk(slab, src, false, route, meta, |node, hop| {
        if hop.deliver {
            nodes.push(NodeId::new(node));
        }
    });
    nodes.push(meta.dst);
    nodes
}

fn arb_class() -> impl Strategy<Value = TrafficClass> {
    prop_oneof![
        Just(TrafficClass::Unicast),
        Just(TrafficClass::Multicast),
        Just(TrafficClass::Broadcast),
        Just(TrafficClass::ChainRim),
        Just(TrafficClass::ChainCross),
    ]
}

fn arb_dir() -> impl Strategy<Value = RingDir> {
    prop_oneof![Just(RingDir::Cw), Just(RingDir::Ccw)]
}

proptest! {
    /// Every header survives an encode/decode round trip bit-exactly.
    #[test]
    fn header_wire_roundtrip(
        class in arb_class(),
        dir in arb_dir(),
        src in 0u32..64,
        dst in 0u32..64,
        bitstring in any::<u16>(),
    ) {
        let meta = PacketMeta {
            message: MessageId(0),
            packet: PacketId(0),
            class,
            src: NodeId(src),
            dst: NodeId(dst),
            bitstring: Bits::inline(bitstring as u64),
            dir,
            len: 2,
            created_at: 0,
        };
        match decode(encode(&meta, FlitKind::Header, 0)).expect("valid encoding") {
            WireFlit::Header { class: c, dir: d, bitstring: b, src: s, dst: t } => {
                prop_assert_eq!(c, class);
                prop_assert_eq!(d, dir);
                prop_assert_eq!(b, bitstring);
                prop_assert_eq!(s, NodeId(src));
                prop_assert_eq!(t, NodeId(dst));
            }
            other => prop_assert!(false, "decoded {:?}", other),
        }
    }

    /// Body and tail payloads survive the round trip.
    #[test]
    fn payload_wire_roundtrip(payload in any::<u32>(), tail in any::<bool>()) {
        let meta = PacketMeta {
            message: MessageId(0),
            packet: PacketId(0),
            class: TrafficClass::Unicast,
            src: NodeId(0),
            dst: NodeId(1),
            bitstring: Bits::ZERO,
            dir: RingDir::Cw,
            len: 2,
            created_at: 0,
        };
        let kind = if tail { FlitKind::Tail } else { FlitKind::Body };
        let decoded = decode(encode(&meta, kind, payload)).expect("valid encoding");
        match (tail, decoded) {
            (true, WireFlit::Tail(p)) | (false, WireFlit::Body(p)) => prop_assert_eq!(p, payload),
            other => prop_assert!(false, "decoded {:?}", other.1),
        }
    }

    /// Unicast paths are valid walks: each hop is rim-adjacent or antipodal,
    /// the walk ends at the destination and its length equals `unicast_hops`.
    #[test]
    fn unicast_path_is_valid_walk(n in quarc_sizes(), src_raw in 0usize..64, dst_raw in 0usize..64) {
        let ring = Ring::new(n);
        let src = NodeId::new(src_raw % n);
        let dst = NodeId::new(dst_raw % n);
        let topo = QuarcTopology::new(n);
        let mut path = Vec::new();
        if src != dst {
            topo.walk_unicast(src, dst, |node, hop| {
                let (to, _) = Routing::link_target(&topo, node, hop.out.into()).expect("wired");
                path.push(NodeId::new(to));
            });
            prop_assert_eq!(*path.last().unwrap(), dst);
        }
        prop_assert_eq!(path.len(), unicast_hops(&ring, src, dst));
        let mut prev = src;
        for (i, &node) in path.iter().enumerate() {
            let adjacent = node == ring.cw(prev) || node == ring.ccw(prev);
            let crossed = node == ring.antipode(prev) && i == 0;
            prop_assert!(adjacent || crossed, "illegal hop {prev}->{node}");
            prev = node;
        }
    }

    /// Broadcast branches partition the non-source nodes exactly.
    #[test]
    fn broadcast_partitions_network(n in quarc_sizes(), src_raw in 0usize..64) {
        let ring = Ring::new(n);
        let src = NodeId::new(src_raw % n);
        let mut covered = HashSet::new();
        for (quadrant, dst) in broadcast_branch_heads(&ring, src).into_iter().flatten() {
            let meta = PacketMeta::header(TrafficClass::Broadcast, src, dst);
            for d in delivered(&ring, quadrant, &meta, &BitSlab::inline_only()) {
                prop_assert!(covered.insert(d), "{d} covered twice");
            }
        }
        prop_assert_eq!(covered.len(), n - 1);
        prop_assert!(!covered.contains(&src));
    }

    /// Multicast branches deliver to exactly the requested target set, and
    /// the bitstring has exactly one bit per delivery.
    #[test]
    fn multicast_hits_exact_target_set(
        n in quarc_sizes(),
        src_raw in 0usize..64,
        target_bits in any::<u64>(),
    ) {
        let ring = Ring::new(n);
        let src = NodeId::new(src_raw % n);
        let targets: Vec<NodeId> = (0..n)
            .filter(|&i| target_bits & (1 << i) != 0)
            .map(NodeId::new)
            .collect();
        let want: HashSet<NodeId> = targets.iter().copied().filter(|&t| t != src).collect();
        let mut slab = BitSlab::new(ring.quarter() + 1);
        let mut branches = Vec::new();
        multicast_branches_into(&ring, src, targets, &mut slab, |b| branches.push(b));
        let mut got = HashSet::new();
        for b in branches {
            let header = PacketMeta::header(TrafficClass::Multicast, src, b.dst);
            let meta = PacketMeta { bitstring: b.bitstring, ..header };
            let nodes = delivered(&ring, b.quadrant, &meta, &slab);
            prop_assert_eq!(slab.popcount(b.bitstring) as usize, nodes.len());
            for d in nodes {
                prop_assert!(got.insert(d), "{d} delivered twice");
            }
        }
        prop_assert_eq!(got, want);
    }

    /// Quarc preserves Spidergon's shortest-path distances (paper §2.2).
    #[test]
    fn distances_agree(n in quarc_sizes(), a in 0usize..64, b in 0usize..64) {
        let ring = Ring::new(n);
        let (a, b) = (NodeId::new(a % n), NodeId::new(b % n));
        prop_assert_eq!(unicast_hops(&ring, a, b), spidergon_hops(&ring, a, b));
    }

    /// The Spidergon replication chain covers every node exactly once
    /// regardless of source.
    #[test]
    fn chain_broadcast_partitions_network(n in quarc_sizes(), src_raw in 0usize..64) {
        let ring = Ring::new(n);
        let src = NodeId::new(src_raw % n);
        let mut covered = HashSet::new();
        let mut queue: Vec<ChainSeed> = spidergon_broadcast_seeds(&ring, src).to_vec();
        while let Some(seed) = queue.pop() {
            prop_assert!(covered.insert(seed.dst), "{} twice", seed.dst);
            let meta = PacketMeta {
                message: MessageId(0),
                packet: PacketId(0),
                class: seed.class,
                src,
                dst: seed.dst,
                bitstring: Bits::inline(seed.remaining as u64),
                dir: seed.dir,
                len: 2,
                created_at: 0,
            };
            chain_continuations(&ring, seed.dst, &meta, |c| queue.push(c));
        }
        prop_assert_eq!(covered.len(), n - 1);
    }

    /// The slab-backed bitstring is semantically identical to the retired
    /// `u128` representation for every operation the routers perform —
    /// set, positional read, shift (with the cached bit 0), popcount and
    /// clone independence — across the whole n ≤ 128 range the old word
    /// could express.
    #[test]
    fn slab_matches_u128_semantics(
        positions in proptest::collection::vec(0usize..128, 0..24),
        shifts in 0usize..130,
    ) {
        let mut slab = BitSlab::new(128);
        let mut b = Bits::ZERO;
        let mut model: u128 = 0;
        for &i in &positions {
            if model & (1u128 << i) == 0 {
                slab.set_bit(&mut b, i);
                model |= 1u128 << i;
            }
        }
        prop_assert_eq!(slab.popcount(b), model.count_ones());
        prop_assert_eq!(slab.to_u128(b), model);
        for k in 0..130usize {
            let want = k < 128 && (model >> k) & 1 == 1;
            prop_assert_eq!(slab.bit_at(b, k), want, "bit_at({k})");
        }
        let snapshot = slab.clone_bits(b);
        let frozen = model;
        for s in 0..shifts {
            slab.shift(&mut b);
            model >>= 1;
            prop_assert_eq!(b.bit0(), model & 1 == 1, "bit0 after {s} shifts");
            prop_assert_eq!(slab.popcount(b), model.count_ones());
        }
        prop_assert_eq!(slab.to_u128(b), model);
        // Shifting the original never disturbs the clone.
        prop_assert_eq!(slab.to_u128(snapshot), frozen);
        slab.release(b);
        slab.release(snapshot);
        prop_assert_eq!(slab.live_rows(), 0);
    }

    /// The word-by-word set-bit walk lists exactly the positions a
    /// `bit_at` scan finds, on inline values and on slab rows at every
    /// cursor; `below` sets exactly the low `count` positions.
    #[test]
    fn set_bit_walk_matches_bit_at_scan(
        positions in proptest::collection::vec(0usize..300, 0..40),
        inline in any::<bool>(),
        shifts in 0usize..200,
        count in 0usize..300,
    ) {
        let mut slab = BitSlab::new(300);
        let mut b = Bits::ZERO;
        for &i in &positions {
            slab.set_bit(&mut b, if inline { i % 63 } else { i });
        }
        prop_assert_eq!(b.is_inline(), positions.iter().all(|&i| inline || i < 63));
        let scan = |slab: &BitSlab, b| (0..320).filter(|&k| slab.bit_at(b, k)).collect::<Vec<_>>();
        for s in 0..shifts {
            prop_assert_eq!(slab.ones(b).collect::<Vec<_>>(), scan(&slab, b), "after {} shifts", s);
            slab.shift(&mut b);
        }
        let all = slab.below(count);
        prop_assert_eq!(all.is_inline(), count <= 63);
        prop_assert_eq!(slab.ones(all).collect::<Vec<_>>(), (0..count).collect::<Vec<_>>());
        prop_assert_eq!(scan(&slab, all), (0..count).collect::<Vec<_>>());
        prop_assert_eq!(all.bit0(), count > 0);
        slab.release(b);
        slab.release(all);
        prop_assert_eq!(slab.live_rows(), 0);
    }

    /// The quadrant decision is a function of the CW distance only
    /// (vertex symmetry of the topology).
    #[test]
    fn quadrant_depends_only_on_distance(n in quarc_sizes(), s in 0usize..64, d in 1usize..64) {
        let ring = Ring::new(n);
        let d = 1 + (d % (n - 1));
        let s = s % n;
        let q0 = quadrant_of(&ring, NodeId(0), NodeId::new(d % n));
        let qs = quadrant_of(&ring, NodeId::new(s), NodeId::new((s + d) % n));
        prop_assert_eq!(q0, qs);
    }
}
