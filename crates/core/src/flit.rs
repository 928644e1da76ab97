//! Flits and the 34-bit wire format of the paper's Fig. 7.
//!
//! A wormhole packet is a stream of flits: one *header* that claims resources
//! hop by hop, zero or more *body* flits, and one *tail* that releases them.
//! The paper transmits 34-bit flits: a 32-bit payload plus a 2-bit flit-type
//! field added by the transceiver's write controller (§2.4), with the last
//! three bits of header flits encoding the traffic class (§2.6).
//!
//! The paper does not pin down every field boundary, so this module fixes a
//! concrete layout (documented on [`wire`]) and property-tests that encoding
//! and decoding round-trip. The RTL model (`quarc-rtl`) moves these encoded
//! words over LocalLink; the behavioural simulator moves [`Flit`] structs —
//! small `Copy` handles of a [`PacketRef`] into a per-network [`PacketTable`]
//! holding the interned per-packet bookkeeping ([`PacketMeta`]), which is
//! used only for statistics and invariant checking, never for routing
//! decisions that the hardware could not make. Interning keeps the simulator
//! hot path allocation-free: a flit is 12 bytes moved by value, and the
//! ~56-byte metadata is written once at injection instead of being cloned on
//! every hop, link slot and buffer push.

use crate::bits::{BitSlab, Bits};
use crate::ids::{MessageId, NodeId, PacketId};
use crate::ring::RingDir;
use std::fmt;

/// Position of a flit within its packet.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum FlitKind {
    /// First flit: carries addressing and claims the route.
    Header,
    /// Middle flit: pure payload, follows the header's path.
    Body,
    /// Last flit: releases the route behind it.
    Tail,
    /// A whole one-flit packet: header and tail in one word (claims and
    /// releases its route in the same flit). Used by the recovery layer's
    /// ACK packets; takes the wire encoding the original format reserved.
    Single,
}

impl FlitKind {
    /// The 2-bit wire encoding of the flit type (bits `[1:0]`).
    #[inline]
    fn wire_bits(self) -> u64 {
        match self {
            FlitKind::Header => 0b00,
            FlitKind::Body => 0b01,
            FlitKind::Tail => 0b10,
            FlitKind::Single => 0b11,
        }
    }

    /// Decode the 2-bit flit-type field.
    pub fn from_wire_bits(bits: u64) -> Option<FlitKind> {
        match bits & 0b11 {
            0b00 => Some(FlitKind::Header),
            0b01 => Some(FlitKind::Body),
            0b10 => Some(FlitKind::Tail),
            _ => Some(FlitKind::Single),
        }
    }
}

impl fmt::Display for FlitKind {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            FlitKind::Header => write!(f, "H"),
            FlitKind::Body => write!(f, "B"),
            FlitKind::Tail => write!(f, "T"),
            FlitKind::Single => write!(f, "S"),
        }
    }
}

/// Traffic class carried in the 3-bit field of header flits (paper Fig. 7
/// shows unicast, multicast and broadcast; the two *chain* classes encode
/// Spidergon's broadcast-by-unicast replication state, which the paper
/// describes as header rewriting in the Spidergon switch, §2.2).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum TrafficClass {
    /// Point-to-point message.
    Unicast,
    /// Path-based multicast: the header bitstring marks which nodes along the
    /// branch take a copy (bit 0 = next node, shifted every hop).
    Multicast,
    /// True broadcast: every node on the branch absorbs and forwards.
    Broadcast,
    /// Spidergon broadcast-by-unicast rim chain: delivered to `dst`, then the
    /// receiving transceiver rewrites the header and re-injects it to the next
    /// rim neighbour while `bitstring` (the remaining-hop count) is non-zero.
    ChainRim,
    /// Spidergon broadcast-by-unicast cross seed: delivered to the antipode,
    /// which re-injects two `ChainRim` packets, one per rim direction, each
    /// covering `bitstring` further nodes.
    ChainCross,
    /// Single-flit end-to-end acknowledgement emitted by the recovery layer
    /// (see `quarc_core::config::RecoveryPolicy`). Routed as a unicast from
    /// the acking receiver back to the message source; `message` in its
    /// [`PacketMeta`] names the *data* message being acknowledged, so an Ack
    /// is a control packet, never a tracked message of its own.
    Ack,
}

impl TrafficClass {
    /// The 3-bit wire encoding (bits `[33:31]` of header flits).
    #[inline]
    fn wire_bits(self) -> u64 {
        match self {
            TrafficClass::Unicast => 0b000,
            TrafficClass::Multicast => 0b001,
            TrafficClass::Broadcast => 0b010,
            TrafficClass::ChainRim => 0b011,
            TrafficClass::ChainCross => 0b100,
            TrafficClass::Ack => 0b101,
        }
    }

    /// Decode the 3-bit traffic-class field.
    pub fn from_wire_bits(bits: u64) -> Option<TrafficClass> {
        match bits & 0b111 {
            0b000 => Some(TrafficClass::Unicast),
            0b001 => Some(TrafficClass::Multicast),
            0b010 => Some(TrafficClass::Broadcast),
            0b011 => Some(TrafficClass::ChainRim),
            0b100 => Some(TrafficClass::ChainCross),
            0b101 => Some(TrafficClass::Ack),
            _ => None,
        }
    }

    /// Number of traffic classes (for fixed-size per-class counter arrays).
    pub const COUNT: usize = 6;

    /// Dense index in `0..COUNT` (for fixed-size per-class counter arrays).
    #[inline]
    pub fn index(self) -> usize {
        match self {
            TrafficClass::Unicast => 0,
            TrafficClass::Multicast => 1,
            TrafficClass::Broadcast => 2,
            TrafficClass::ChainRim => 3,
            TrafficClass::ChainCross => 4,
            TrafficClass::Ack => 5,
        }
    }

    /// True for the two Spidergon replication classes.
    #[inline]
    pub fn is_chain(self) -> bool {
        matches!(self, TrafficClass::ChainRim | TrafficClass::ChainCross)
    }
}

impl fmt::Display for TrafficClass {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let s = match self {
            TrafficClass::Unicast => "unicast",
            TrafficClass::Multicast => "multicast",
            TrafficClass::Broadcast => "broadcast",
            TrafficClass::ChainRim => "chain-rim",
            TrafficClass::ChainCross => "chain-cross",
            TrafficClass::Ack => "ack",
        };
        write!(f, "{s}")
    }
}

/// Per-packet bookkeeping, interned once per packet in a [`PacketTable`] and
/// referenced from every flit through its [`PacketRef`].
///
/// Only the fields that appear in the wire format (`class`, `src`, `dst`,
/// `bitstring`, `dir`) may influence routing; the rest exists so the ejection
/// side can compute latencies and the test suite can assert conservation.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct PacketMeta {
    /// The application-level message this packet belongs to.
    pub message: MessageId,
    /// Unique id of this packet (one per wormhole worm).
    pub packet: PacketId,
    /// Traffic class (wire field).
    pub class: TrafficClass,
    /// Originating node (wire field).
    pub src: NodeId,
    /// Destination: for collectives, the *last* node of the branch (wire field).
    pub dst: NodeId,
    /// Multicast bitstring / chain remaining-count (wire field). A compact
    /// [`Bits`] value: branches whose furthest delivery is within 63 hops
    /// stay inline; longer branches hold a handle into the owning
    /// [`PacketTable`]'s [`BitSlab`], so branch paths may span arbitrarily
    /// many hops (n = 65,536 Quarc quadrants included). The 34-bit wire
    /// format truncates to its 16-bit field, which the RTL model (n ≤ 64,
    /// spans ≤ 16, always inline) never exceeds.
    pub bitstring: Bits,
    /// Rim direction for chain packets (wire field, 1 bit).
    pub dir: RingDir,
    /// Number of flits in this packet (header + bodies + tail).
    pub len: u32,
    /// Cycle at which the *message* was created at the source PE. Source
    /// queueing is therefore included in measured latency, as in the paper.
    pub created_at: u64,
}

impl PacketMeta {
    /// A bare one-flit header of class `class` from `src` to `dst`: no
    /// bitstring, ids and timestamp zero — all a route reads.
    pub fn header(class: TrafficClass, src: NodeId, dst: NodeId) -> Self {
        PacketMeta {
            message: MessageId(0),
            packet: PacketId(0),
            class,
            src,
            dst,
            bitstring: Bits::ZERO,
            dir: RingDir::Cw,
            len: 1,
            created_at: 0,
        }
    }
}

/// Handle of one interned packet in a [`PacketTable`].
///
/// Slots are recycled once a packet has fully left the network, so a
/// `PacketRef` is only meaningful against the table of the network that
/// issued it and only while that packet is in flight. It is deliberately a
/// bare `u32`: the steady-state simulation loop indexes the table with it on
/// every routing decision and delivery.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct PacketRef(pub u32);

impl PacketRef {
    /// The slot index, for direct table addressing.
    #[inline]
    pub fn index(self) -> usize {
        self.0 as usize
    }
}

impl fmt::Display for PacketRef {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "#{}", self.0)
    }
}

/// The per-network intern table of in-flight [`PacketMeta`] records.
///
/// `insert` hands out a [`PacketRef`]; `release` returns the slot to a free
/// list once the packet's tail has been absorbed everywhere. After warmup the
/// slot vector stops growing and the table performs **zero allocations**:
/// recycling pops and pushes within existing capacity. Lookups are a bounds-
/// checked array index.
///
/// The table also owns the network's [`BitSlab`]: a packet whose bitstring
/// spilled out of the inline representation holds a slab row, and `release`
/// frees that row together with the slot, so bitstring storage recycles with
/// the packet lifecycle and needs no separate accounting.
#[derive(Debug, Default, Clone)]
pub struct PacketTable {
    slots: Vec<PacketMeta>,
    free: Vec<u32>,
    bits: BitSlab,
}

impl PacketTable {
    /// An empty table whose bitstrings must all fit inline (n ≤ 64
    /// networks, Spidergon chains, unicast-only harnesses).
    pub fn new() -> Self {
        Self::default()
    }

    /// An empty table able to hold multicast bitstrings of up to `max_bits`
    /// hops. Networks size this from their longest plannable branch
    /// (Quarc: quarter + 2; grids: diameter + 1).
    pub fn with_bit_capacity(max_bits: usize) -> Self {
        PacketTable { bits: BitSlab::new(max_bits), ..Self::default() }
    }

    /// The network's bitstring slab (bit tests, popcounts).
    #[inline]
    pub fn bits(&self) -> &BitSlab {
        &self.bits
    }

    /// Mutable slab access (planners emitting rows, routers cloning).
    #[inline]
    pub fn bits_mut(&mut self) -> &mut BitSlab {
        &mut self.bits
    }

    /// Per-hop multicast header advance, applied when a router forwards the
    /// header: shift `packet`'s bitstring right by one (O(1) cursor bump for
    /// slab rows), so bit 0 always answers "does the *next* node take a
    /// copy?" (§2.5.3). No-op for other classes.
    #[inline]
    pub fn advance_header(&mut self, packet: PacketRef) {
        let meta = &mut self.slots[packet.index()];
        if meta.class == TrafficClass::Multicast {
            self.bits.shift(&mut meta.bitstring);
        }
    }

    /// Intern `meta`, returning the packet's handle.
    #[inline]
    pub fn insert(&mut self, meta: PacketMeta) -> PacketRef {
        match self.free.pop() {
            Some(slot) => {
                self.slots[slot as usize] = meta;
                PacketRef(slot)
            }
            None => {
                let slot = u32::try_from(self.slots.len()).expect("packet table overflow");
                self.slots.push(meta);
                PacketRef(slot)
            }
        }
    }

    /// The interned metadata of `packet`.
    #[inline]
    pub fn meta(&self, packet: PacketRef) -> &PacketMeta {
        &self.slots[packet.index()]
    }

    /// Return `packet`'s slot to the free list, together with its bitstring
    /// slab row if it held one. The caller must guarantee no flit holding
    /// this ref remains anywhere in the network — in the simulators that
    /// point is the absorption of the tail flit at the last node of the
    /// packet's path.
    #[inline]
    pub fn release(&mut self, packet: PacketRef) {
        debug_assert!(!self.free.contains(&packet.0), "double release of packet slot {packet}");
        let slot = &mut self.slots[packet.index()];
        self.bits.release(slot.bitstring);
        slot.bitstring = Bits::ZERO;
        self.free.push(packet.0);
    }

    /// Number of packets currently interned.
    #[inline]
    pub fn live(&self) -> usize {
        self.slots.len() - self.free.len()
    }

    /// High-water mark of simultaneously live packets (slot count).
    pub fn capacity(&self) -> usize {
        self.slots.len()
    }
}

/// One flit of a wormhole packet: a 12-byte `Copy` value. Everything
/// per-packet lives in the [`PacketTable`]; the flit itself carries only its
/// packet handle and its position within the worm.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Flit {
    /// Handle of the interned [`PacketMeta`] (see [`PacketTable`]).
    pub packet: PacketRef,
    /// Index of this flit within its packet (`0 == header`).
    pub seq: u32,
    /// Header / body / tail.
    pub kind: FlitKind,
}

impl Flit {
    /// Is this the flit that claims the route? (`Single` flits are whole
    /// one-flit packets: header and tail at once.)
    #[inline]
    pub fn is_header(&self) -> bool {
        matches!(self.kind, FlitKind::Header | FlitKind::Single)
    }

    /// Is this the flit that releases the route? (`Single` flits are whole
    /// one-flit packets: header and tail at once.)
    #[inline]
    pub fn is_tail(&self) -> bool {
        matches!(self.kind, FlitKind::Tail | FlitKind::Single)
    }
}

impl fmt::Display for Flit {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}[{} {}]", self.kind, self.seq, self.packet)
    }
}

/// The 34-bit wire format (our concrete realisation of the paper's Fig. 7).
///
/// ```text
/// header:  [33:31] class  [30] dir  [29:14] bitstring  [13:8] src  [7:2] dst  [1:0] = 00
/// body:    [33:2]  payload                                                  [1:0] = 01
/// tail:    [33:2]  payload                                                  [1:0] = 10
/// single:  [33:31] class  [30] dir  [29:14] bitstring  [13:8] src  [7:2] dst  [1:0] = 11
/// ```
///
/// The `single` type (a one-flit packet, header fields with tail semantics)
/// takes the encoding the original format reserved; it exists for the
/// recovery layer's ACK packets.
///
/// Six address bits bound the network at 64 nodes, exactly the scalability
/// limit the paper states in §2.6 ("it is assumed that the network size may be
/// up to 64 nodes"); larger networks would need wider flits or multi-flit
/// headers, which the paper leaves as a variant.
pub mod wire {
    use super::*;

    /// Number of valid bits in an encoded flit word.
    const FLIT_BITS: u32 = 34;
    /// Mask of the valid bits.
    pub(crate) const FLIT_MASK: u64 = (1u64 << FLIT_BITS) - 1;
    /// Maximum addressable network size with 6-bit addresses.
    const MAX_NODES: usize = 64;

    /// A decoded wire flit — exactly the information present on the wire,
    /// with none of the simulator-side bookkeeping.
    #[derive(Debug, Clone, Copy, PartialEq, Eq)]
    pub enum WireFlit {
        /// Header flit fields.
        Header {
            /// Traffic class.
            class: TrafficClass,
            /// Rim direction bit (chain classes).
            dir: RingDir,
            /// Multicast bitstring / chain remaining-count.
            bitstring: u16,
            /// Source address (6 bits).
            src: NodeId,
            /// Destination address (6 bits).
            dst: NodeId,
        },
        /// Body flit payload.
        Body(u32),
        /// Tail flit payload.
        Tail(u32),
        /// One-flit packet (recovery ACK): header fields, tail semantics.
        Single {
            /// Traffic class.
            class: TrafficClass,
            /// Rim direction bit.
            dir: RingDir,
            /// Bitstring field (unused by ACKs, kept for symmetry).
            bitstring: u16,
            /// Source address (6 bits).
            src: NodeId,
            /// Destination address (6 bits).
            dst: NodeId,
        },
    }

    /// Encode one flit of packet `meta` into its 34-bit wire word. Body and
    /// tail flits carry `payload`; headers carry the addressing fields.
    ///
    /// Panics (debug) if an address does not fit in 6 bits.
    pub fn encode(meta: &PacketMeta, kind: FlitKind, payload: u32) -> u64 {
        match kind {
            FlitKind::Header | FlitKind::Single => {
                debug_assert!(meta.src.index() < MAX_NODES && meta.dst.index() < MAX_NODES);
                debug_assert!(
                    meta.bitstring.is_inline() && meta.bitstring.inline_value() <= u16::MAX as u64,
                    "wire headers carry 16-bit bitstrings (n ≤ 64 networks never exceed them)"
                );
                let dir_bit = match meta.dir {
                    RingDir::Cw => 0u64,
                    RingDir::Ccw => 1u64,
                };
                (meta.class.wire_bits() << 31)
                    | (dir_bit << 30)
                    | ((meta.bitstring.inline_value() & 0xFFFF) << 14)
                    | ((meta.src.index() as u64) << 8)
                    | ((meta.dst.index() as u64) << 2)
                    | kind.wire_bits()
            }
            FlitKind::Body => ((payload as u64) << 2) | FlitKind::Body.wire_bits(),
            FlitKind::Tail => ((payload as u64) << 2) | FlitKind::Tail.wire_bits(),
        }
    }

    /// Decode a 34-bit wire word.
    ///
    /// Returns `None` for reserved flit-type or traffic-class encodings, or if
    /// any bit above the 34 valid ones is set.
    pub fn decode(word: u64) -> Option<WireFlit> {
        if word & !FLIT_MASK != 0 {
            return None;
        }
        match FlitKind::from_wire_bits(word)? {
            kind @ (FlitKind::Header | FlitKind::Single) => {
                let class = TrafficClass::from_wire_bits(word >> 31)?;
                let dir = if (word >> 30) & 1 == 1 { RingDir::Ccw } else { RingDir::Cw };
                let bitstring = ((word >> 14) & 0xFFFF) as u16;
                let src = NodeId::new(((word >> 8) & 0x3F) as usize);
                let dst = NodeId::new(((word >> 2) & 0x3F) as usize);
                Some(if kind == FlitKind::Header {
                    WireFlit::Header { class, dir, bitstring, src, dst }
                } else {
                    WireFlit::Single { class, dir, bitstring, src, dst }
                })
            }
            FlitKind::Body => Some(WireFlit::Body(((word >> 2) & 0xFFFF_FFFF) as u32)),
            FlitKind::Tail => Some(WireFlit::Tail(((word >> 2) & 0xFFFF_FFFF) as u32)),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::wire::*;
    use super::*;

    fn meta(class: TrafficClass, src: u32, dst: u32, bitstring: u64, dir: RingDir) -> PacketMeta {
        PacketMeta {
            message: MessageId(1),
            packet: PacketId(2),
            class,
            src: NodeId(src),
            dst: NodeId(dst),
            bitstring: Bits::inline(bitstring),
            dir,
            len: 8,
            created_at: 0,
        }
    }

    #[test]
    fn header_roundtrip() {
        let m = meta(TrafficClass::Broadcast, 0, 11, 0xBEEF, RingDir::Ccw);
        let w = encode(&m, FlitKind::Header, 0);
        assert!(w <= FLIT_MASK);
        match decode(w).unwrap() {
            WireFlit::Header { class, dir, bitstring, src, dst } => {
                assert_eq!(class, TrafficClass::Broadcast);
                assert_eq!(dir, RingDir::Ccw);
                assert_eq!(bitstring, 0xBEEF);
                assert_eq!(src, NodeId(0));
                assert_eq!(dst, NodeId(11));
            }
            other => panic!("expected header, got {other:?}"),
        }
    }

    #[test]
    fn body_and_tail_roundtrip() {
        let m = meta(TrafficClass::Unicast, 1, 2, 0, RingDir::Cw);
        for (kind, want) in [(FlitKind::Body, 0xDEADBEEFu32), (FlitKind::Tail, 0x12345678)] {
            match (kind, decode(encode(&m, kind, want)).unwrap()) {
                (FlitKind::Body, WireFlit::Body(p)) => assert_eq!(p, want),
                (FlitKind::Tail, WireFlit::Tail(p)) => assert_eq!(p, want),
                other => panic!("mismatch: {other:?}"),
            }
        }
    }

    #[test]
    fn flit_word_is_34_bits() {
        let m = meta(TrafficClass::Multicast, 63, 63, 0xFFFF, RingDir::Ccw);
        assert!(encode(&m, FlitKind::Header, 0) <= FLIT_MASK);
        assert!(encode(&m, FlitKind::Tail, u32::MAX) <= FLIT_MASK);
    }

    #[test]
    fn reserved_encodings_rejected() {
        // class 0b111 is reserved (on both header-carrying flit types)
        let bad = (0b111u64 << 31) | FlitKind::Header.wire_bits();
        assert_eq!(decode(bad), None);
        let bad_single = (0b111u64 << 31) | FlitKind::Single.wire_bits();
        assert_eq!(decode(bad_single), None);
        // classes 0b110 and 0b111 are reserved
        let bad6 = (0b110u64 << 31) | FlitKind::Header.wire_bits();
        assert_eq!(decode(bad6), None);
        // bits above bit 33 must be clear
        assert_eq!(decode(1u64 << 34), None);
    }

    #[test]
    fn single_flit_roundtrip() {
        // Flit type 0b11 was reserved in the original format; it now carries
        // whole one-flit packets (the recovery layer's ACKs).
        let m = meta(TrafficClass::Ack, 9, 3, 0, RingDir::Cw);
        let w = encode(&m, FlitKind::Single, 0);
        assert!(w <= FLIT_MASK);
        match decode(w).unwrap() {
            WireFlit::Single { class, src, dst, .. } => {
                assert_eq!(class, TrafficClass::Ack);
                assert_eq!(src, NodeId(9));
                assert_eq!(dst, NodeId(3));
            }
            other => panic!("expected single, got {other:?}"),
        }
    }

    #[test]
    fn single_flit_is_header_and_tail() {
        let f = Flit { packet: PacketRef(0), seq: 0, kind: FlitKind::Single };
        assert!(f.is_header() && f.is_tail());
        assert_eq!(f.to_string(), "S[0 #0]");
    }

    #[test]
    fn class_predicates() {
        assert!(TrafficClass::ChainRim.is_chain());
        assert!(TrafficClass::ChainCross.is_chain());
        assert!(!TrafficClass::Broadcast.is_chain());
    }

    #[test]
    fn kind_wire_bits_roundtrip() {
        for k in [FlitKind::Header, FlitKind::Body, FlitKind::Tail, FlitKind::Single] {
            assert_eq!(FlitKind::from_wire_bits(k.wire_bits()), Some(k));
        }
    }

    #[test]
    fn class_wire_bits_roundtrip() {
        for c in [
            TrafficClass::Unicast,
            TrafficClass::Multicast,
            TrafficClass::Broadcast,
            TrafficClass::ChainRim,
            TrafficClass::ChainCross,
            TrafficClass::Ack,
        ] {
            assert_eq!(TrafficClass::from_wire_bits(c.wire_bits()), Some(c));
        }
    }

    #[test]
    fn display_formats() {
        let f = Flit { packet: PacketRef(5), seq: 0, kind: FlitKind::Header };
        assert_eq!(f.to_string(), "H[0 #5]");
    }

    #[test]
    fn class_indices_are_dense_and_unique() {
        let all = [
            TrafficClass::Unicast,
            TrafficClass::Multicast,
            TrafficClass::Broadcast,
            TrafficClass::ChainRim,
            TrafficClass::ChainCross,
            TrafficClass::Ack,
        ];
        let mut seen = [false; TrafficClass::COUNT];
        for c in all {
            assert!(c.index() < TrafficClass::COUNT);
            assert!(!seen[c.index()], "duplicate index for {c}");
            seen[c.index()] = true;
        }
        assert!(seen.iter().all(|&s| s));
    }

    #[test]
    fn packet_table_recycles_slots() {
        let mut t = PacketTable::new();
        let a = t.insert(meta(TrafficClass::Unicast, 0, 1, 0, RingDir::Cw));
        let b = t.insert(meta(TrafficClass::Unicast, 2, 3, 0, RingDir::Cw));
        assert_eq!(t.live(), 2);
        assert_eq!(t.meta(a).src, NodeId(0));
        assert_eq!(t.meta(b).src, NodeId(2));
        t.release(a);
        assert_eq!(t.live(), 1);
        // The freed slot is reused; capacity does not grow.
        let c = t.insert(meta(TrafficClass::Broadcast, 4, 5, 0, RingDir::Ccw));
        assert_eq!(c, a);
        assert_eq!(t.capacity(), 2);
        assert_eq!(t.meta(c).class, TrafficClass::Broadcast);
    }

    #[test]
    fn packet_table_meta_mut_edits_in_place() {
        let mut t = PacketTable::new();
        let r = t.insert(meta(TrafficClass::Multicast, 0, 4, 0b101, RingDir::Cw));
        t.advance_header(r);
        assert_eq!(t.meta(r).bitstring, Bits::inline(0b10));
    }

    #[test]
    fn packet_table_release_frees_slab_rows() {
        let mut t = PacketTable::with_bit_capacity(200);
        let mut m = meta(TrafficClass::Multicast, 0, 4, 0, RingDir::Cw);
        t.bits_mut().set_bit(&mut m.bitstring, 150);
        let r = t.insert(m);
        assert_eq!(t.bits().live_rows(), 1);
        t.release(r);
        assert_eq!(t.bits().live_rows(), 0, "release must return the slab row");
    }

    #[test]
    #[cfg(debug_assertions)]
    #[should_panic(expected = "double release")]
    fn packet_table_double_release_panics() {
        let mut t = PacketTable::new();
        let r = t.insert(meta(TrafficClass::Unicast, 0, 1, 0, RingDir::Cw));
        t.release(r);
        t.release(r);
    }
}
