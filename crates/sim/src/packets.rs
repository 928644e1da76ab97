//! Message → packet expansion: the transmit half of the transceiver.
//!
//! The write controller of the paper's transceiver "divides the packet into a
//! number of flits" and "adds the flit type" (§2.4); the quadrant calculator
//! decides the injection port. For collectives the transceiver emits one
//! packet per branch — four tagged streams for a Quarc broadcast (§2.5.2),
//! three chain seeds for a Spidergon broadcast (§2.2 / ref. [9]).
//!
//! Expansion runs inside the per-cycle simulation loop, so it is written to
//! be allocation-free in steady state: each packet's [`PacketMeta`] is
//! interned once in the network's [`PacketTable`] and the 16-byte flit
//! handles are serialised **directly into the destination injection queue**
//! ([`PacketQueue::push_packet`]) — no intermediate `Vec<Flit>` per packet, no
//! per-injection container. (The one exception is multicast, whose
//! branch planner builds per-quadrant target partitions; multicast messages
//! exist only in explicit traces, never in the paper's synthetic loads.)

use quarc_core::bits::Bits;
use quarc_core::flit::{Flit, FlitKind, PacketMeta, PacketRef, PacketTable, TrafficClass};
use quarc_core::grid::GridBranch;
use quarc_core::ids::{MessageId, NodeId, PacketId};
use quarc_core::quadrant::{broadcast_branch_heads, multicast_branches, quadrant_of};
use quarc_core::ring::{Ring, RingDir};
use quarc_core::routing::spidergon_broadcast_seeds;
use quarc_engine::Cycle;
use quarc_workloads::MessageRequest;
use std::collections::VecDeque;

/// The `seq`-th flit of a `len`-flit packet: header, bodies, tail — or a
/// lone `Single` flit for one-flit packets (the recovery layer's ACKs) —
/// with the sequence number as payload (as the original transceiver model
/// emitted).
#[inline]
fn nth_flit(packet: PacketRef, seq: u32, len: u32) -> Flit {
    let kind = if len == 1 {
        FlitKind::Single
    } else if seq == 0 {
        FlitKind::Header
    } else if seq + 1 == len {
        FlitKind::Tail
    } else {
        FlitKind::Body
    };
    Flit { packet, seq, kind, payload: seq }
}

/// A source-side injection queue holding whole packets as `(packet, len)`
/// entries and materialising their flits on demand.
///
/// A queued flit is a pure function of `(packet, len, seq)` (see
/// [`nth_flit`]), so there is no reason to serialise `len` 16-byte flits
/// into a buffer at injection time: a saturated source queue holding a
/// million flits is a few thousand 8-byte entries instead, and enqueueing a
/// message costs one push per *packet* rather than one per flit. `front` /
/// `pop` synthesise exactly the flit stream the eager serialisation
/// produced, which the equivalence goldens pin down.
#[derive(Debug, Clone, Default)]
pub struct PacketQueue {
    entries: VecDeque<(PacketRef, u32)>,
    /// Sequence index of the next flit of the head entry.
    head_seq: u32,
}

impl PacketQueue {
    /// An empty queue.
    pub fn new() -> Self {
        Self::default()
    }

    /// Enqueue packet `packet` of `len` flits. Returns the flit count.
    pub fn push_packet(&mut self, packet: PacketRef, len: u32) -> usize {
        // Data packets carry header and tail flits (paper §2.6); the one
        // legal one-flit packet is the recovery layer's Single-flit ACK.
        assert!(len >= 1, "a packet needs at least one flit");
        self.entries.push_back((packet, len));
        len as usize
    }

    /// The flit at the head of the queue, if any.
    #[inline]
    pub fn front(&self) -> Option<Flit> {
        self.entries.front().map(|&(packet, len)| nth_flit(packet, self.head_seq, len))
    }

    /// Remove and return the head flit.
    #[inline]
    pub fn pop(&mut self) -> Option<Flit> {
        let &(packet, len) = self.entries.front()?;
        let flit = nth_flit(packet, self.head_seq, len);
        self.head_seq += 1;
        if self.head_seq == len {
            self.entries.pop_front();
            self.head_seq = 0;
        }
        Some(flit)
    }

    /// Whether no flit is queued.
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }

    /// Remaining flits (the head packet counts only its unsent tail-end).
    pub fn flits(&self) -> usize {
        self.entries.iter().map(|&(_, len)| len as usize).sum::<usize>() - self.head_seq as usize
    }
}

/// The recovery layer's single-flit ACK packet for data message `message`:
/// a control unicast from acking receiver `from` back to the data source
/// `to`. `message` names the *data* message — acks are never tracked
/// messages of their own (no `create_message`, no receiver ledger entry).
/// The caller interns the meta and serialises it into whichever injection
/// queue its topology routes `from → to` through.
pub fn ack_meta(
    message: MessageId,
    from: NodeId,
    to: NodeId,
    packet: PacketId,
    now: Cycle,
) -> PacketMeta {
    PacketMeta {
        message,
        packet,
        class: TrafficClass::Ack,
        src: from,
        dst: to,
        bitstring: Bits::ZERO,
        dir: RingDir::Cw,
        len: 1,
        created_at: now,
    }
}

/// Allocates monotonically increasing packet identifiers. (Message ids are
/// *not* monotonic: they come from `Metrics`' slot-recycling slab, tagged
/// with a generation — see `quarc_sim::metrics`.)
#[derive(Debug, Default)]
pub struct IdAlloc {
    next_packet: u64,
}

impl IdAlloc {
    /// Fresh allocator.
    pub fn new() -> Self {
        Self::default()
    }

    /// A new packet id.
    pub fn packet(&mut self) -> PacketId {
        let id = PacketId(self.next_packet);
        self.next_packet += 1;
        id
    }
}

/// Expand a message into Quarc packets, interning each packet's metadata in
/// `table` and serialising its flits straight into the matching quadrant
/// queue. Returns `(expected receivers, flits enqueued)`.
pub fn quarc_expand_into(
    ring: &Ring,
    req: &MessageRequest,
    message: MessageId,
    ids: &mut IdAlloc,
    now: Cycle,
    table: &mut PacketTable,
    queues: &mut [PacketQueue; 4],
) -> (usize, usize) {
    let base = PacketMeta {
        message,
        packet: PacketId(0), // overwritten per packet
        class: req.class,
        src: req.src,
        dst: req.src, // overwritten
        bitstring: Bits::ZERO,
        dir: RingDir::Cw,
        len: req.len as u32,
        created_at: now,
    };
    let len = base.len;
    let mut flits = 0usize;
    match req.class {
        TrafficClass::Unicast => {
            let dst = req.dst.expect("unicast carries dst");
            let pref = table.insert(PacketMeta { packet: ids.packet(), dst, ..base });
            flits += queues[quadrant_of(ring, req.src, dst).index()].push_packet(pref, len);
            (1, flits)
        }
        TrafficClass::Broadcast => {
            for head in broadcast_branch_heads(ring, req.src).into_iter().flatten() {
                let (quadrant, dst) = head;
                let pref = table.insert(PacketMeta { packet: ids.packet(), dst, ..base });
                flits += queues[quadrant.index()].push_packet(pref, len);
            }
            (ring.len() - 1, flits)
        }
        TrafficClass::Multicast => {
            let branches = multicast_branches(ring, req.src, &req.targets, table.bits_mut());
            let receivers = branches.iter().map(|b| b.deliveries.len()).sum();
            for b in branches {
                let pref = table.insert(PacketMeta {
                    packet: ids.packet(),
                    dst: b.dst,
                    bitstring: b.bitstring,
                    ..base
                });
                flits += queues[b.quadrant.index()].push_packet(pref, len);
            }
            (receivers, flits)
        }
        other => panic!("applications do not inject {other} packets directly"),
    }
}

/// Expand a message into Spidergon packets, all serialised into the single
/// local queue (one-port router). Broadcast becomes the three chain seeds;
/// multicast becomes one unicast per target (the paper gives Spidergon no
/// native multicast). Returns `(expected receivers, flits enqueued)`.
pub fn spidergon_expand_into(
    ring: &Ring,
    req: &MessageRequest,
    message: MessageId,
    ids: &mut IdAlloc,
    now: Cycle,
    table: &mut PacketTable,
    queue: &mut PacketQueue,
) -> (usize, usize) {
    let base = PacketMeta {
        message,
        packet: PacketId(0),
        class: req.class,
        src: req.src,
        dst: req.src,
        bitstring: Bits::ZERO,
        dir: RingDir::Cw,
        len: req.len as u32,
        created_at: now,
    };
    let len = base.len;
    let mut flits = 0usize;
    match req.class {
        TrafficClass::Unicast => {
            let dst = req.dst.expect("unicast carries dst");
            let pref = table.insert(PacketMeta { packet: ids.packet(), dst, ..base });
            flits += queue.push_packet(pref, len);
            (1, flits)
        }
        TrafficClass::Broadcast => {
            for seed in spidergon_broadcast_seeds(ring, req.src) {
                let pref = table.insert(PacketMeta {
                    packet: ids.packet(),
                    class: seed.class,
                    dst: seed.dst,
                    bitstring: Bits::inline(seed.remaining as u64),
                    dir: seed.dir,
                    ..base
                });
                flits += queue.push_packet(pref, len);
            }
            (ring.len() - 1, flits)
        }
        TrafficClass::Multicast => {
            let mut count = 0;
            for &dst in req.targets.iter().filter(|&&t| t != req.src) {
                let pref = table.insert(PacketMeta {
                    packet: ids.packet(),
                    class: TrafficClass::Unicast,
                    dst,
                    ..base
                });
                flits += queue.push_packet(pref, len);
                count += 1;
            }
            (count, flits)
        }
        other => panic!("applications do not inject {other} packets directly"),
    }
}

/// Expand a message into mesh/torus packets, given the pre-planned
/// dimension-ordered tree `branches` (from
/// [`quarc_core::grid::GridTopology::multicast_branches_into`]; ignored for
/// unicast). Every branch becomes one path-based
/// `Multicast` packet serialised into the single local queue. Returns
/// `(expected receivers, flits enqueued)`.
pub fn grid_expand_into(
    req: &MessageRequest,
    branches: &[GridBranch],
    message: MessageId,
    ids: &mut IdAlloc,
    now: Cycle,
    table: &mut PacketTable,
    queue: &mut PacketQueue,
) -> (usize, usize) {
    let base = PacketMeta {
        message,
        packet: PacketId(0), // overwritten per packet
        class: req.class,
        src: req.src,
        dst: req.src, // overwritten
        bitstring: Bits::ZERO,
        dir: RingDir::Cw,
        len: req.len as u32,
        created_at: now,
    };
    let len = base.len;
    let mut flits = 0usize;
    match req.class {
        TrafficClass::Unicast => {
            let dst = req.dst.expect("unicast carries dst");
            let pref = table.insert(PacketMeta { packet: ids.packet(), dst, ..base });
            flits += queue.push_packet(pref, len);
            (1, flits)
        }
        TrafficClass::Broadcast | TrafficClass::Multicast => {
            // Broadcast is multicast-to-all on the grid; either way every
            // packet is a path-based multicast with an explicit bitstring
            // (the message keeps its own class for the metrics).
            let mut receivers = 0usize;
            for b in branches {
                receivers += b.receivers(table.bits());
                let pref = table.insert(PacketMeta {
                    packet: ids.packet(),
                    class: TrafficClass::Multicast,
                    dst: b.dst,
                    bitstring: b.bitstring,
                    ..base
                });
                flits += queue.push_packet(pref, len);
            }
            (receivers, flits)
        }
        other => panic!("applications do not inject {other} packets directly"),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use quarc_core::ids::NodeId;
    use quarc_core::quadrant::Quadrant;

    fn meta(len: u32) -> PacketMeta {
        PacketMeta {
            message: MessageId(1),
            packet: PacketId(2),
            class: TrafficClass::Unicast,
            src: NodeId(0),
            dst: NodeId(3),
            bitstring: Bits::ZERO,
            dir: RingDir::Cw,
            len,
            created_at: 7,
        }
    }

    /// Drain a queue into the flit stream it will emit.
    fn drain(mut q: PacketQueue) -> Vec<Flit> {
        let mut flits = Vec::new();
        while let Some(f) = q.pop() {
            flits.push(f);
        }
        flits
    }

    #[test]
    fn push_packet_shapes_header_body_tail() {
        let mut table = PacketTable::new();
        let pref = table.insert(meta(5));
        let mut q = PacketQueue::new();
        assert_eq!(q.push_packet(pref, 5), 5);
        assert_eq!(q.flits(), 5);
        let flits = drain(q);
        assert_eq!(flits.len(), 5);
        assert_eq!(flits[0].kind, FlitKind::Header);
        assert!(flits[1..4].iter().all(|f| f.kind == FlitKind::Body));
        assert_eq!(flits[4].kind, FlitKind::Tail);
        assert!(flits.iter().enumerate().all(|(i, f)| f.seq == i as u32));
        assert!(flits.iter().all(|f| f.packet == pref));
        assert!(flits.iter().enumerate().all(|(i, f)| f.payload == i as u32));
    }

    #[test]
    fn two_flit_packet_has_no_body() {
        let mut table = PacketTable::new();
        let pref = table.insert(meta(2));
        let mut q = PacketQueue::new();
        q.push_packet(pref, 2);
        assert_eq!(q.front().unwrap().kind, FlitKind::Header);
        assert_eq!(q.pop().unwrap().kind, FlitKind::Header);
        assert_eq!(q.front().unwrap().kind, FlitKind::Tail);
        assert_eq!(q.pop().unwrap().kind, FlitKind::Tail);
        assert!(q.is_empty());
    }

    #[test]
    fn single_flit_packet_is_header_and_tail_at_once() {
        let mut table = PacketTable::new();
        let pref = table.insert(ack_meta(MessageId(7), NodeId(3), NodeId(0), PacketId(9), 42));
        let mut q = PacketQueue::new();
        assert_eq!(q.push_packet(pref, 1), 1);
        let f = q.pop().unwrap();
        assert_eq!(f.kind, FlitKind::Single);
        assert!(f.is_header() && f.is_tail());
        assert!(q.is_empty());
        assert_eq!(table.meta(pref).class, TrafficClass::Ack);
        assert_eq!(table.meta(pref).message, MessageId(7), "acks name the data message");
    }

    #[test]
    fn queue_interleaves_packets_in_fifo_order() {
        // Partially consumed head packet + a queued successor: `flits`
        // counts the unsent remainder and the streams never interleave.
        let mut table = PacketTable::new();
        let a = table.insert(meta(3));
        let b = table.insert(meta(2));
        let mut q = PacketQueue::new();
        q.push_packet(a, 3);
        q.push_packet(b, 2);
        assert_eq!(q.flits(), 5);
        assert_eq!(q.pop().unwrap().packet, a);
        assert_eq!(q.flits(), 4);
        let rest = drain(q);
        assert!(rest[..2].iter().all(|f| f.packet == a));
        assert!(rest[2..].iter().all(|f| f.packet == b));
        assert_eq!(rest.last().unwrap().kind, FlitKind::Tail);
    }

    fn expand_quarc(n: usize, req: &MessageRequest) -> (PacketTable, [Vec<Flit>; 4], usize, usize) {
        let ring = Ring::new(n);
        let mut ids = IdAlloc::new();
        let mut table = PacketTable::new();
        let mut queues: [PacketQueue; 4] = Default::default();
        let (receivers, flits) =
            quarc_expand_into(&ring, req, MessageId(9), &mut ids, 100, &mut table, &mut queues);
        (table, queues.map(drain), receivers, flits)
    }

    #[test]
    fn quarc_unicast_single_packet() {
        let req = MessageRequest::unicast(NodeId(0), NodeId(3), 8);
        let (table, queues, receivers, flits) = expand_quarc(16, &req);
        assert_eq!(receivers, 1);
        assert_eq!(flits, 8);
        assert_eq!(queues[Quadrant::Right.index()].len(), 8);
        let head = queues[Quadrant::Right.index()][0];
        assert_eq!(table.meta(head.packet).created_at, 100);
        assert_eq!(table.meta(head.packet).message, MessageId(9));
        assert_eq!(table.live(), 1);
    }

    #[test]
    fn quarc_broadcast_four_packets_distinct_quadrants() {
        let req = MessageRequest::broadcast(NodeId(0), 4);
        let (table, queues, receivers, flits) = expand_quarc(16, &req);
        assert_eq!(receivers, 15);
        assert_eq!(flits, 16);
        assert!(queues.iter().all(|q| q.len() == 4), "one packet per quadrant");
        // Distinct packet ids, same message id.
        let pkts: std::collections::HashSet<_> =
            queues.iter().map(|q| table.meta(q[0].packet).packet).collect();
        assert_eq!(pkts.len(), 4);
        assert!(queues.iter().all(|q| table.meta(q[0].packet).message == MessageId(9)));
    }

    #[test]
    fn quarc_multicast_counts_targets() {
        let req = MessageRequest::multicast(NodeId(0), vec![NodeId(2), NodeId(9)], 4);
        let (_, queues, receivers, flits) = expand_quarc(16, &req);
        assert_eq!(receivers, 2);
        assert_eq!(flits, 8); // right-rim + cross-right branches
        assert_eq!(queues.iter().filter(|q| !q.is_empty()).count(), 2);
    }

    fn expand_spider(n: usize, req: &MessageRequest) -> (PacketTable, Vec<Flit>, usize, usize) {
        let ring = Ring::new(n);
        let mut ids = IdAlloc::new();
        let mut table = PacketTable::new();
        let mut queue = PacketQueue::new();
        let (receivers, flits) =
            spidergon_expand_into(&ring, req, MessageId(0), &mut ids, 0, &mut table, &mut queue);
        (table, drain(queue), receivers, flits)
    }

    #[test]
    fn spidergon_broadcast_three_seeds() {
        let req = MessageRequest::broadcast(NodeId(0), 4);
        let (table, queue, receivers, flits) = expand_spider(16, &req);
        assert_eq!(receivers, 15);
        assert_eq!(flits, 12);
        let classes: Vec<TrafficClass> =
            queue.iter().filter(|f| f.is_header()).map(|f| table.meta(f.packet).class).collect();
        assert_eq!(classes.iter().filter(|c| **c == TrafficClass::ChainRim).count(), 2);
        assert_eq!(classes.iter().filter(|c| **c == TrafficClass::ChainCross).count(), 1);
    }

    #[test]
    fn spidergon_multicast_becomes_unicasts() {
        let req = MessageRequest::multicast(NodeId(0), vec![NodeId(1), NodeId(5)], 4);
        let (table, queue, receivers, _) = expand_spider(16, &req);
        assert_eq!(receivers, 2);
        assert!(queue
            .iter()
            .filter(|f| f.is_header())
            .all(|f| table.meta(f.packet).class == TrafficClass::Unicast));
    }

    #[test]
    fn id_alloc_is_monotonic() {
        let mut ids = IdAlloc::new();
        assert_eq!(ids.packet(), PacketId(0));
        assert_eq!(ids.packet(), PacketId(1));
    }
}
