//! Physical links: single-flit-per-cycle pipelines, stored as one
//! structure-of-arrays bank per network.
//!
//! A link carries at most one flit per cycle (the two VCs multiplex the same
//! wires, §2.7) and delivers it `latency` cycles later. All links of a
//! network share one latency, so the whole network's pipelines live in a
//! single [`LinkBank`]: one contiguous slot slab (`link × latency`) plus one
//! occupancy counter per link. The slot that arrives at cycle `c` is simply
//! `c mod latency` — no per-link head pointer, no rotation of idle links —
//! and a send at cycle `c` lands in the slot just vacated, arriving
//! `latency` cycles later.
//!
//! The bank is built for **active-set stepping**: the occupancy counters let
//! the owning network keep a live-link worklist and touch only links that
//! actually carry flits. A link whose slots are all empty behaves
//! identically whether it is stepped or skipped, because its state is
//! position-independent (every slot `None`).

use quarc_core::flit::Flit;
use quarc_core::ids::VcId;
use quarc_engine::Cycle;

/// A flit in flight, tagged with the VC it will occupy downstream.
#[derive(Debug, Clone, Copy)]
pub struct TaggedFlit {
    /// The flit.
    pub flit: Flit,
    /// Downstream VC lane.
    pub vc: VcId,
}

/// All unidirectional links of one network, with a shared fixed latency ≥ 1.
#[derive(Debug, Clone)]
pub struct LinkBank {
    /// Pipeline slots, `latency` per link (`link * latency + slot`).
    slots: Box<[Option<TaggedFlit>]>,
    /// Occupied slots per link (counter twin of scanning the slab).
    occupied: Box<[u32]>,
    /// Flits in flight across all links.
    total: u64,
    latency: usize,
}

impl LinkBank {
    /// A bank of `links` links delivering after `latency` cycles.
    pub fn new(links: usize, latency: u64) -> Self {
        assert!(latency >= 1);
        let latency = latency as usize;
        LinkBank {
            slots: vec![None; links * latency].into_boxed_slice(),
            occupied: vec![0; links].into_boxed_slice(),
            total: 0,
            latency,
        }
    }

    /// The slab index arriving (and being refilled) at cycle `now`. Compute
    /// once per cycle and pass to [`LinkBank::arrive`] / [`LinkBank::send`].
    #[inline]
    pub fn slot_index(&self, now: Cycle) -> usize {
        if self.latency == 1 {
            0
        } else {
            (now % self.latency as u64) as usize
        }
    }

    /// Take the flit arriving on `link` this cycle, if any. Call at most
    /// once per link per cycle, before any [`LinkBank::send`] to that link.
    #[inline]
    pub fn arrive(&mut self, link: usize, slot_index: usize) -> Option<TaggedFlit> {
        let taken = self.slots[link * self.latency + slot_index].take();
        if taken.is_some() {
            self.occupied[link] -= 1;
            self.total -= 1;
        }
        taken
    }

    /// Place a flit onto `link`; it arrives `latency` cycles later. Panics if
    /// the link already accepted a flit this cycle (a simulator bug — every
    /// physical link carries one flit per cycle).
    #[inline]
    pub fn send(&mut self, link: usize, slot_index: usize, tf: TaggedFlit) {
        let slot = &mut self.slots[link * self.latency + slot_index];
        assert!(slot.is_none(), "link already carries a flit this cycle");
        self.occupied[link] += 1;
        self.total += 1;
        *slot = Some(tf);
    }

    /// Whether `link` is completely empty. O(1).
    #[inline]
    pub fn is_empty(&self, link: usize) -> bool {
        self.occupied[link] == 0
    }

    /// Flits in flight across all links. O(1).
    #[inline]
    pub fn total(&self) -> u64 {
        self.total
    }

    /// The flits in flight on `link`, in no particular order. Walks the
    /// link's slots — for audits, not the hot path.
    pub fn in_flight(&self, link: usize) -> impl Iterator<Item = &TaggedFlit> {
        self.slots[link * self.latency..(link + 1) * self.latency].iter().flatten()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use quarc_core::flit::{FlitKind, PacketRef};

    fn tf(seq: u32, vc: VcId) -> TaggedFlit {
        TaggedFlit { flit: Flit::new(PacketRef(0), seq, FlitKind::Body), vc }
    }

    /// Drive one cycle for `bank`: arrivals on every link, then the sends.
    fn cycle(bank: &mut LinkBank, now: Cycle, sends: &[(usize, TaggedFlit)]) -> Vec<(usize, u32)> {
        let idx = bank.slot_index(now);
        let mut arrived = Vec::new();
        for link in 0..bank.occupied.len() {
            if let Some(a) = bank.arrive(link, idx) {
                arrived.push((link, a.flit.seq()));
            }
        }
        for (link, t) in sends {
            bank.send(*link, idx, *t);
        }
        arrived
    }

    #[test]
    fn a_link_slot_is_sixteen_bytes() {
        // A flit is its packet handle, with the kind in the handle word's
        // top two bits, and its sequence number; a slot adds the downstream
        // VC and the empty slot's tag.
        assert_eq!(std::mem::size_of::<Flit>(), 8);
        assert_eq!(std::mem::size_of::<Option<TaggedFlit>>(), 16);
    }

    #[test]
    fn latency_one_delivers_next_cycle() {
        let mut b = LinkBank::new(2, 1);
        assert!(cycle(&mut b, 0, &[(0, tf(1, VcId::VC0))]).is_empty());
        assert!(!b.is_empty(0));
        assert!(b.is_empty(1));
        assert_eq!(cycle(&mut b, 1, &[]), vec![(0, 1)]);
        assert!(b.is_empty(0));
    }

    #[test]
    fn latency_three_delays_three_cycles() {
        let mut b = LinkBank::new(1, 3);
        cycle(&mut b, 0, &[(0, tf(9, VcId::VC1))]);
        assert!(cycle(&mut b, 1, &[]).is_empty());
        assert!(cycle(&mut b, 2, &[]).is_empty());
        assert_eq!(cycle(&mut b, 3, &[]), vec![(0, 9)]);
    }

    #[test]
    #[should_panic(expected = "already carries")]
    fn double_send_panics() {
        let mut b = LinkBank::new(1, 1);
        let idx = b.slot_index(0);
        b.send(0, idx, tf(1, VcId::VC0));
        b.send(0, idx, tf(2, VcId::VC1));
    }

    #[test]
    fn occupancy_counter_matches_slot_scan() {
        let mut b = LinkBank::new(1, 3);
        for now in 0..20u64 {
            let sends: Vec<(usize, TaggedFlit)> = if now % 3 != 2 {
                vec![(0, tf(now as u32, if now % 2 == 0 { VcId::VC0 } else { VcId::VC1 }))]
            } else {
                vec![]
            };
            cycle(&mut b, now, &sends);
            let scanned = b.slots.iter().flatten().count() as u32;
            assert_eq!(b.occupied[0], scanned, "cycle {now}");
            assert_eq!(b.is_empty(0), scanned == 0);
        }
    }

    #[test]
    fn pipelining_back_to_back() {
        let mut b = LinkBank::new(1, 2);
        let mut received = Vec::new();
        for now in 0..10u64 {
            let sends: Vec<(usize, TaggedFlit)> =
                if now < 5 { vec![(0, tf(now as u32, VcId::VC0))] } else { vec![] };
            for (_, seq) in cycle(&mut b, now, &sends) {
                received.push(seq);
            }
        }
        assert_eq!(received, vec![0, 1, 2, 3, 4]);
    }

    #[test]
    fn skipped_empty_link_is_position_independent() {
        // A link left untouched for a while behaves exactly as if it had
        // been stepped every cycle — the active-set invariant.
        let mut b = LinkBank::new(1, 3);
        // Skip cycles 0..7 entirely (empty link, nothing to do).
        let idx = b.slot_index(7);
        b.send(0, idx, tf(42, VcId::VC0));
        assert!(b.arrive(0, b.slot_index(8)).is_none());
        assert!(b.arrive(0, b.slot_index(9)).is_none());
        assert_eq!(b.arrive(0, b.slot_index(10)).unwrap().flit.seq(), 42);
    }
}
