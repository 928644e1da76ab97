//! Virtual-channel input buffers.
//!
//! The paper's IPC "incorporates two lanes of input buffers ... parametrized
//! in width and depth" (§2.3.1). Width is abstracted away by the behavioural
//! simulator (a [`Flit`] is a flit); depth is enforced here, and the `full`
//! signal of the hardware becomes the credit check in the upstream router's
//! arbitration.
//!
//! All lanes of one router live in a single [`LaneBufs`] allocation — one
//! flit ring plus one `(head, len)` word per lane — so the arbitration pass,
//! which inspects the head of every lane of every router every cycle, walks
//! contiguous memory instead of chasing one heap `VecDeque` per lane.

use quarc_core::flit::{Flit, FlitKind, PacketRef};

/// The input VC lanes of a whole network: bounded flit FIFOs in one
/// contiguous block, indexed by a dense lane id (the networks use
/// `(node * ports + port) * vcs + vc`).
///
/// The head flit of every lane is mirrored into a dense `heads` slab: the
/// arbitration pass inspects the head of every occupied lane of every
/// *active* router every cycle, and the mirror turns that inspection into
/// reads of per-node-contiguous memory instead of chasing each lane's ring
/// position. Push/pop pay one extra 12-byte copy to maintain it — they run
/// once per flit movement, while `head` runs once per occupied lane per
/// arbitration pass.
#[derive(Debug, Clone)]
pub struct LaneBufs {
    /// Ring storage, `depth` slots per lane.
    flits: Box<[Flit]>,
    /// `(head, len)` per lane.
    state: Box<[(u16, u16)]>,
    /// Mirror of each lane's head flit (valid iff the lane is non-empty).
    heads: Box<[Flit]>,
    depth: usize,
    /// Flits buffered across all lanes.
    total: u64,
}

impl LaneBufs {
    /// Buffers for `lanes` lanes of `depth` flits each.
    pub fn new(lanes: usize, depth: usize) -> Self {
        assert!(depth >= 1 && depth <= u16::MAX as usize);
        let empty = Flit { packet: PacketRef(0), seq: 0, kind: FlitKind::Body };
        LaneBufs {
            flits: vec![empty; lanes * depth].into_boxed_slice(),
            state: vec![(0u16, 0u16); lanes].into_boxed_slice(),
            heads: vec![empty; lanes].into_boxed_slice(),
            depth,
            total: 0,
        }
    }

    /// Append a flit to `lane`. Panics if full — the upstream credit check
    /// must make this impossible, so violating it is a simulator bug, not
    /// back-pressure.
    #[inline]
    pub fn push(&mut self, lane: usize, flit: Flit) {
        let (head, len) = self.state[lane];
        assert!((len as usize) < self.depth, "VC buffer overflow: credit accounting broken");
        // Compare-and-wrap, not `% depth`: no run-time division per flit.
        let mut pos = head as usize + len as usize;
        if pos >= self.depth {
            pos -= self.depth;
        }
        self.flits[lane * self.depth + pos] = flit;
        if len == 0 {
            self.heads[lane] = flit;
        }
        self.state[lane].1 = len + 1;
        self.total += 1;
    }

    /// The flit at the head of `lane`, which the caller knows to be
    /// non-empty (the fabric's occupancy mask says so): one load of the
    /// mirror, no length check.
    #[inline]
    pub fn head(&self, lane: usize) -> &Flit {
        debug_assert!(!self.is_empty(lane), "head of an empty lane");
        &self.heads[lane]
    }

    /// Remove and return the head flit of `lane`.
    #[inline]
    pub fn pop(&mut self, lane: usize) -> Option<Flit> {
        let (head, len) = self.state[lane];
        if len == 0 {
            return None;
        }
        let flit = self.heads[lane];
        let next = if head as usize + 1 == self.depth { 0 } else { head as usize + 1 };
        self.state[lane] = (next as u16, len - 1);
        self.total -= 1;
        if len > 1 {
            self.heads[lane] = self.flits[lane * self.depth + next];
        }
        Some(flit)
    }

    /// Number of buffered flits in `lane`.
    #[inline]
    pub fn len(&self, lane: usize) -> usize {
        self.state[lane].1 as usize
    }

    /// Flits buffered across all lanes. O(1).
    #[inline]
    pub fn total(&self) -> u64 {
        self.total
    }

    /// Whether `lane` is empty (the `empty` signal of §2.3.1).
    #[inline]
    pub fn is_empty(&self, lane: usize) -> bool {
        self.state[lane].1 == 0
    }

    /// The flits of `lane`, head first (cold: the audit walks it).
    pub fn iter(&self, lane: usize) -> impl Iterator<Item = &Flit> + '_ {
        let (head, len) = self.state[lane];
        (0..len as usize)
            .map(move |i| &self.flits[lane * self.depth + (head as usize + i) % self.depth])
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn flit(seq: u32) -> Flit {
        Flit { packet: PacketRef(0), seq, kind: FlitKind::Body }
    }

    #[test]
    fn fifo_order_per_lane() {
        let mut b = LaneBufs::new(2, 4);
        for i in 0..4 {
            b.push(0, flit(i));
        }
        b.push(1, flit(99));
        assert_eq!(b.len(0), 4);
        for i in 0..4 {
            assert_eq!(b.pop(0).unwrap().seq, i);
        }
        assert!(b.is_empty(0));
        assert_eq!(b.pop(1).unwrap().seq, 99);
    }

    #[test]
    fn ring_wraps_across_push_pop_interleaving() {
        let mut b = LaneBufs::new(1, 3);
        for round in 0..10u32 {
            b.push(0, flit(round));
            assert_eq!(b.pop(0).unwrap().seq, round);
        }
        assert!(b.is_empty(0));
        // The head now sits mid-ring: a full lane wraps, head first.
        (20..23).for_each(|s| b.push(0, flit(s)));
        assert_eq!(b.iter(0).map(|f| f.seq).collect::<Vec<_>>(), [20, 21, 22]);
    }

    #[test]
    #[should_panic(expected = "overflow")]
    fn overflow_panics() {
        let mut b = LaneBufs::new(1, 1);
        b.push(0, flit(0));
        b.push(0, flit(1));
    }

    #[test]
    fn front_does_not_consume() {
        let mut b = LaneBufs::new(1, 2);
        b.push(0, flit(7));
        assert_eq!(b.head(0).seq, 7);
        assert_eq!(b.len(0), 1);
        assert!(!b.is_empty(0));
    }

    #[test]
    fn lanes_are_independent() {
        let mut b = LaneBufs::new(3, 2);
        b.push(0, flit(1));
        b.push(2, flit(2));
        assert!(b.is_empty(1));
        assert_eq!(b.head(0).seq, 1);
        assert_eq!(b.head(2).seq, 2);
        assert_eq!(b.pop(1), None);
    }
}
