//! Small copyable identifier types shared by every layer of the stack.
//!
//! Node addresses in the Quarc NoC are at most 6 bits wide (the paper fixes the
//! practical network size at 64 nodes, §2.6), so a `u32` leaves generous
//! headroom — wide enough for the behavioural simulator's n = 65,536 scaling
//! axis — while keeping the types register-sized.

use std::fmt;

/// Address of a node (router + attached processing element) on the ring.
///
/// Nodes are numbered `0..n` clockwise, matching the paper's figures.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct NodeId(pub u32);

impl NodeId {
    /// Construct from a `usize` index. Panics (debug) if the index exceeds `u32`.
    #[inline]
    pub fn new(idx: usize) -> Self {
        debug_assert!(idx <= u32::MAX as usize, "node index out of range");
        NodeId(idx as u32)
    }

    /// The node's position as a `usize`, for indexing per-node arrays.
    #[inline]
    pub fn index(self) -> usize {
        self.0 as usize
    }
}

impl fmt::Display for NodeId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "n{}", self.0)
    }
}

impl From<u32> for NodeId {
    fn from(v: u32) -> Self {
        NodeId(v)
    }
}

impl From<u16> for NodeId {
    fn from(v: u16) -> Self {
        NodeId(u32::from(v))
    }
}

/// Globally unique identifier of one packet (one wormhole worm).
///
/// Allocated monotonically by the traffic source; uniqueness is what lets the
/// ejection side re-associate flits with packets and lets invariant checks
/// detect duplication or loss.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct PacketId(pub u64);

impl PacketId {
    /// The raw id value.
    #[inline]
    pub fn raw(self) -> u64 {
        self.0
    }
}

impl fmt::Display for PacketId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "p{}", self.0)
    }
}

/// Identifier of a message (one application-level send).
///
/// A unicast message maps to exactly one packet; a broadcast message maps to
/// one packet per branch (four in Quarc, a replication tree in Spidergon).
/// Latency statistics are aggregated per *message*.
///
/// The simulator issues ids from slot-recycling tables: the low 32 bits are
/// the slot, the high 32 bits the slot's generation, so a stale id never
/// names a recycled slot's new occupant.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct MessageId(pub u64);

impl MessageId {
    /// The id of `slot` in its `generation`.
    #[inline]
    pub fn from_slot(slot: usize, generation: u32) -> Self {
        // Slots index in-memory tables, far below 2^32 entries.
        debug_assert!(slot <= u32::MAX as usize, "message slot {slot} does not fit 32 bits");
        MessageId(u64::from(generation) << 32 | slot as u64)
    }

    /// The slot half of the id.
    #[inline]
    pub fn slot(self) -> usize {
        (self.0 & 0xFFFF_FFFF) as usize
    }

    /// The generation half of the id.
    #[inline]
    pub fn generation(self) -> u32 {
        (self.0 >> 32) as u32
    }
}

impl fmt::Display for MessageId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "m{}", self.0)
    }
}

/// A virtual channel index on a physical link.
///
/// The paper uses exactly two VCs per physical link ("Each physical link is
/// shared by two virtual channels in order to avoid deadlock", §2.1); the
/// mesh uses VC0 alone ([`crate::topology::TopologyKind::vcs`]).
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct VcId(pub u8);

impl VcId {
    /// Virtual channel 0: used before a packet crosses the dateline.
    pub const VC0: VcId = VcId(0);
    /// Virtual channel 1: used after a packet crosses the dateline.
    pub const VC1: VcId = VcId(1);

    /// The VC's position as a `usize`, for indexing per-VC arrays.
    #[inline]
    pub fn index(self) -> usize {
        self.0 as usize
    }
}

impl fmt::Display for VcId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "vc{}", self.0)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::HashSet;

    #[test]
    fn node_id_roundtrip() {
        for i in [0usize, 1, 15, 63, 1024] {
            assert_eq!(NodeId::new(i).index(), i);
        }
    }

    #[test]
    fn node_id_display() {
        assert_eq!(NodeId(7).to_string(), "n7");
        assert_eq!(PacketId(9).to_string(), "p9");
        assert_eq!(MessageId(3).to_string(), "m3");
        assert_eq!(VcId::VC1.to_string(), "vc1");
    }

    #[test]
    fn ids_are_hashable_and_distinct() {
        let set: HashSet<NodeId> = (0..16u32).map(NodeId).collect();
        assert_eq!(set.len(), 16);
    }

    #[test]
    fn vc_constants() {
        assert_eq!(VcId::VC0.index(), 0);
        assert_eq!(VcId::VC1.index(), 1);
        assert!(VcId::VC0 < VcId::VC1);
    }

    #[test]
    fn node_from_ints() {
        let n: NodeId = 5u16.into();
        assert_eq!(n, NodeId(5));
        let w: NodeId = 70_000u32.into();
        assert_eq!(w.index(), 70_000);
    }
}
