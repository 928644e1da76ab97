//! The transmit half of the transceiver, as far as it is topology-free.
//!
//! The write controller of the paper's transceiver "divides the packet into a
//! number of flits" and "adds the flit type" (§2.4); the quadrant calculator
//! decides the injection port. Which packets a message becomes — four tagged
//! streams for a Quarc broadcast (§2.5.2), three chain seeds for a Spidergon
//! broadcast (§2.2 / ref. \[9\]), one bitstring branch per multicast group — is
//! each router model's [`RouterModel::plan`](crate::fabric::RouterModel::plan):
//! `(local queue, meta)` pairs derived from the [`message_meta`] template.
//! The fabric then draws packet ids ([`IdAlloc`]), interns each meta once in
//! its `PacketTable` and enqueues it, through one routine, into a
//! [`PacketQueue`] that holds whole packets and materialises their flits on
//! pop — no intermediate `Vec<Flit>` per packet, nothing allocated per
//! injection in steady state.

use quarc_core::bits::Bits;
use quarc_core::flit::{Flit, FlitKind, PacketMeta, PacketRef, TrafficClass};
use quarc_core::ids::{MessageId, PacketId};
use quarc_core::ring::RingDir;
use quarc_engine::Cycle;
use quarc_workloads::MessageRequest;
use std::collections::VecDeque;

/// The `seq`-th flit of a `len`-flit packet: header, bodies, tail — or a
/// lone `Single` flit for one-flit packets (the recovery layer's ACKs).
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
    Flit { packet, seq, kind }
}

/// A source-side injection queue holding whole packets as `(packet, len)`
/// entries and materialising their flits on demand.
///
/// A queued flit is a pure function of `(packet, len, seq)` (see
/// `nth_flit`), so there is no reason to serialise `len` 16-byte flits
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

    /// The queued packets, head first.
    pub fn packets(&self) -> impl Iterator<Item = PacketRef> + '_ {
        self.entries.iter().map(|&(packet, _)| packet)
    }
}

/// The header template every packet of `req` derives from: message, class
/// (the request's own, or `Ack` for an acknowledgement of data message
/// `message`), source, length, creation cycle. The model fills in the rest.
pub fn message_meta(
    req: &MessageRequest,
    message: MessageId,
    class: TrafficClass,
    now: Cycle,
) -> PacketMeta {
    PacketMeta {
        message,
        packet: PacketId(0),
        class,
        src: req.src,
        dst: req.src,
        bitstring: Bits::ZERO,
        dir: RingDir::Cw,
        len: u32::try_from(req.len).expect("message length fits u32 (inputs are validated)"),
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

#[cfg(test)]
mod tests {
    use super::*;
    use crate::fabric::RouterModel;
    use quarc_core::config::NocConfig;
    use quarc_core::flit::PacketTable;
    use quarc_core::ids::NodeId;
    use quarc_core::topology::{QuarcTopology, SpidergonTopology};

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
        std::iter::from_fn(|| q.pop()).collect()
    }

    /// What the fabric does with `req` as message 9 of class `class`, sent
    /// at cycle 100: plan it through model `R`, then intern and enqueue each
    /// packet in plan order. Returns the table, the flit stream of every
    /// local queue, the expected receivers and the flits enqueued.
    fn plan<R: RouterModel>(
        cfg: NocConfig,
        req: &MessageRequest,
        class: TrafficClass,
    ) -> (PacketTable, Vec<Vec<Flit>>, usize, usize) {
        let (mut model, base) = (R::new(&cfg), message_meta(req, MessageId(9), class, 100));
        let (mut table, mut planned) = (model.packet_table(), Vec::new());
        let receivers = model.plan(req, &base, table.bits_mut(), &mut planned);
        let (mut ids, mut queues, mut flits) =
            (IdAlloc::new(), vec![PacketQueue::new(); R::QUEUES], 0);
        for (queue, meta) in planned {
            let pref = table.insert(PacketMeta { packet: ids.packet(), ..meta });
            flits += queues[queue].push_packet(pref, meta.len);
        }
        (table, queues.into_iter().map(drain).collect(), receivers, flits)
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
        // An ACK is the model's unicast plan with class `Ack`: receiver 3
        // acknowledges data message 9 back to its source 0.
        let ack = MessageRequest::unicast(NodeId(3), NodeId(0), 1);
        let (table, queues, receivers, flits) =
            plan::<QuarcTopology>(NocConfig::quarc(16), &ack, TrafficClass::Ack);
        assert_eq!((receivers, flits), (1, 1));
        // One packet, on the queue of the quadrant that routes 3 → 0.
        assert_eq!(queues.iter().filter(|q| !q.is_empty()).count(), 1);
        let f = queues.iter().flatten().next().copied().unwrap();
        assert_eq!(f.kind, FlitKind::Single);
        assert!(f.is_header() && f.is_tail());
        assert_eq!(table.meta(f.packet).class, TrafficClass::Ack);
        assert_eq!(table.meta(f.packet).message, MessageId(9), "acks name the data message");
        assert_eq!(table.meta(f.packet).dst, NodeId(0));
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
        assert_eq!(q.packets().collect::<Vec<_>>(), [a, b]);
        assert_eq!(q.pop().unwrap().packet, a);
        assert_eq!(q.flits(), 4);
        let rest = drain(q);
        assert!(rest[..2].iter().all(|f| f.packet == a));
        assert!(rest[2..].iter().all(|f| f.packet == b));
        assert_eq!(rest.last().unwrap().kind, FlitKind::Tail);
    }

    fn expand_quarc(n: usize, req: &MessageRequest) -> (PacketTable, Vec<Vec<Flit>>, usize, usize) {
        plan::<QuarcTopology>(NocConfig::quarc(n), req, req.class)
    }

    #[test]
    fn quarc_unicast_single_packet() {
        let req = MessageRequest::unicast(NodeId(0), NodeId(3), 8);
        let (table, queues, receivers, flits) = expand_quarc(16, &req);
        assert_eq!(receivers, 1);
        assert_eq!(flits, 8);
        // Queue 0 is the right quadrant's (0 → 3 is three hops clockwise).
        assert_eq!(queues[0].len(), 8);
        let head = queues[0][0];
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

    #[test]
    fn spidergon_broadcast_three_seeds() {
        let req = MessageRequest::broadcast(NodeId(0), 4);
        let spidergon = NocConfig::spidergon(16);
        let (table, queues, receivers, flits) =
            plan::<SpidergonTopology>(spidergon, &req, req.class);
        assert_eq!(receivers, 15);
        assert_eq!(flits, 12);
        let classes: Vec<TrafficClass> = queues[0]
            .iter()
            .filter(|f| f.is_header())
            .map(|f| table.meta(f.packet).class)
            .collect();
        assert_eq!(classes.iter().filter(|c| **c == TrafficClass::ChainRim).count(), 2);
        assert_eq!(classes.iter().filter(|c| **c == TrafficClass::ChainCross).count(), 1);
    }

    #[test]
    fn spidergon_multicast_becomes_unicasts() {
        let req = MessageRequest::multicast(NodeId(0), vec![NodeId(1), NodeId(5)], 4);
        let spidergon = NocConfig::spidergon(16);
        let (table, queues, receivers, _) = plan::<SpidergonTopology>(spidergon, &req, req.class);
        assert_eq!(receivers, 2);
        assert!(queues[0]
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
