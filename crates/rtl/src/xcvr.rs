//! The transceiver's transmit path (§2.4): frame building and quadrant
//! selection.
//!
//! "When a packet arrives at the transceiver, the write controller divides
//! the packet into a number of flits. The write controller also adds the
//! flit type to the flit. For example, if a flit is of 32-bits, after the
//! write controller adds its type it becomes 34-bits ... The quadrant
//! calculator calculates the quadrant by comparing the source address ...
//! and the destination address."

use quarc_core::bits::{BitSlab, Bits};
use quarc_core::flit::wire::encode;
use quarc_core::flit::{FlitKind, PacketMeta, TrafficClass};
use quarc_core::ids::{MessageId, NodeId, PacketId};
use quarc_core::quadrant::{broadcast_branch_heads, multicast_branches_into, quadrant_of};
use quarc_core::ring::{Ring, RingDir};

/// Serialise one packet into its 34-bit wire words (header … tail).
/// Body/tail payloads carry the flit sequence number, which the test
/// benches use to check in-order delivery.
pub fn build_frame(
    class: TrafficClass,
    src: NodeId,
    dst: NodeId,
    bitstring: u16,
    len: usize,
) -> Vec<u64> {
    assert!(len >= 2, "a packet has at least header and tail (§2.6)");
    let meta = PacketMeta {
        message: MessageId(0),
        packet: PacketId(0),
        class,
        src,
        dst,
        bitstring: Bits::inline(bitstring as u64),
        dir: RingDir::Cw,
        len: len as u32,
        created_at: 0,
    };
    (0..len)
        .map(|seq| {
            let kind = if seq == 0 {
                FlitKind::Header
            } else if seq + 1 == len {
                FlitKind::Tail
            } else {
                FlitKind::Body
            };
            encode(&meta, kind, seq as u32)
        })
        .collect()
}

/// Frames a transceiver emits for a unicast: one frame, one quadrant.
pub fn unicast_frames(ring: &Ring, src: NodeId, dst: NodeId, len: usize) -> Vec<(usize, Vec<u64>)> {
    let quad = quadrant_of(ring, src, dst);
    vec![(quad.index(), build_frame(TrafficClass::Unicast, src, dst, 0, len))]
}

/// Frames a transceiver emits for a broadcast: one tagged stream per branch
/// with the branch-terminal destination addresses of §2.5.2.
pub fn broadcast_frames(ring: &Ring, src: NodeId, len: usize) -> Vec<(usize, Vec<u64>)> {
    let heads = broadcast_branch_heads(ring, src).into_iter().flatten();
    heads
        .map(|(q, dst)| (q.index(), build_frame(TrafficClass::Broadcast, src, dst, 0, len)))
        .collect()
}

/// Frames for a multicast to an explicit target set (§2.5.3).
pub fn multicast_frames(
    ring: &Ring,
    src: NodeId,
    targets: &[NodeId],
    len: usize,
) -> Vec<(usize, Vec<u64>)> {
    // RTL networks are n <= 64, so every planner bitstring stays inline in
    // this scratch slab and fits the 16-bit wire field.
    let (mut slab, mut frames) = (BitSlab::new(ring.quarter() + 1), Vec::new());
    multicast_branches_into(ring, src, targets.iter().copied(), &mut slab, |b| {
        let bitstring = u16::try_from(b.bitstring.inline_value())
            .expect("RTL networks are n <= 64: spans fit 16 bits");
        let frame = build_frame(TrafficClass::Multicast, src, b.dst, bitstring, len);
        frames.push((b.quadrant.index(), frame));
    });
    frames
}

#[cfg(test)]
mod tests {
    use super::*;
    use quarc_core::flit::wire::{decode, WireFlit};

    #[test]
    fn frame_words_decode_in_order() {
        let words = build_frame(TrafficClass::Unicast, NodeId(1), NodeId(5), 0, 4);
        assert_eq!(words.len(), 4);
        match decode(words[0]).unwrap() {
            WireFlit::Header { class, src, dst, .. } => {
                assert_eq!(class, TrafficClass::Unicast);
                assert_eq!(src, NodeId(1));
                assert_eq!(dst, NodeId(5));
            }
            other => panic!("{other:?}"),
        }
        assert!(matches!(decode(words[1]).unwrap(), WireFlit::Body(1)));
        assert!(matches!(decode(words[2]).unwrap(), WireFlit::Body(2)));
        assert!(matches!(decode(words[3]).unwrap(), WireFlit::Tail(3)));
    }

    #[test]
    fn broadcast_emits_one_frame_per_branch() {
        let ring = Ring::new(16);
        let frames = broadcast_frames(&ring, NodeId(0), 4);
        assert_eq!(frames.len(), 4);
        let quads: std::collections::HashSet<usize> = frames.iter().map(|(q, _)| *q).collect();
        assert_eq!(quads.len(), 4, "one frame per quadrant");
        // Destinations per Fig. 6.
        let mut dsts: Vec<u32> = frames
            .iter()
            .map(|(_, f)| match decode(f[0]).unwrap() {
                WireFlit::Header { dst, .. } => dst.0,
                other => panic!("{other:?}"),
            })
            .collect();
        dsts.sort();
        assert_eq!(dsts, vec![4, 5, 11, 12]);
    }

    #[test]
    fn unicast_frame_picks_quadrant() {
        let ring = Ring::new(16);
        let frames = unicast_frames(&ring, NodeId(0), NodeId(9), 4);
        assert_eq!(frames.len(), 1);
        assert_eq!(frames[0].0, 1, "node 9 from 0 is cross-right (index 1)");
    }

    #[test]
    fn multicast_frames_carry_bitstrings() {
        let ring = Ring::new(16);
        let frames = multicast_frames(&ring, NodeId(0), &[NodeId(2), NodeId(4)], 4);
        assert_eq!(frames.len(), 1);
        match decode(frames[0].1[0]).unwrap() {
            WireFlit::Header { class, bitstring, .. } => {
                assert_eq!(class, TrafficClass::Multicast);
                assert_eq!(bitstring, 0b1010);
            }
            other => panic!("{other:?}"),
        }
    }
}
