//! A deterministic discrete-event queue.
//!
//! Used for the parts of the simulation that are naturally event-driven
//! (message creation times drawn from an injection process, delayed
//! re-injection of Spidergon chain packets) while the network datapath itself
//! advances cycle by cycle. Events at equal timestamps pop in insertion
//! order (FIFO), so a simulation run is a pure function of its seed.

use crate::clock::Cycle;
use std::cmp::Reverse;
use std::collections::BinaryHeap;

/// An entry in the queue: ordered by `(time, sequence)`.
#[derive(Debug)]
struct Entry<T> {
    key: Reverse<(Cycle, u64)>,
    payload: T,
}

impl<T> PartialEq for Entry<T> {
    fn eq(&self, other: &Self) -> bool {
        self.key == other.key
    }
}
impl<T> Eq for Entry<T> {}
impl<T> PartialOrd for Entry<T> {
    fn partial_cmp(&self, other: &Self) -> Option<std::cmp::Ordering> {
        Some(self.cmp(other))
    }
}
impl<T> Ord for Entry<T> {
    fn cmp(&self, other: &Self) -> std::cmp::Ordering {
        self.key.cmp(&other.key)
    }
}

/// A min-heap of timestamped events with deterministic FIFO tie-breaking.
#[derive(Debug)]
pub struct EventQueue<T> {
    heap: BinaryHeap<Entry<T>>,
    seq: u64,
}

impl<T> Default for EventQueue<T> {
    fn default() -> Self {
        Self::new()
    }
}

impl<T> EventQueue<T> {
    /// An empty queue.
    pub fn new() -> Self {
        EventQueue { heap: BinaryHeap::new(), seq: 0 }
    }

    /// Schedule `payload` at `time`.
    pub fn push(&mut self, time: Cycle, payload: T) {
        let seq = self.seq;
        self.seq += 1;
        self.heap.push(Entry { key: Reverse((time, seq)), payload });
    }

    /// The timestamp of the earliest pending event, if any.
    fn peek_time(&self) -> Option<Cycle> {
        self.heap.peek().map(|e| e.key.0 .0)
    }

    /// Pop the earliest event if its time is `<= now`.
    pub fn pop_due(&mut self, now: Cycle) -> Option<(Cycle, T)> {
        if self.peek_time()? <= now {
            let e = self.heap.pop().expect("peeked");
            Some((e.key.0 .0, e.payload))
        } else {
            None
        }
    }

    /// Drain every event due at or before `now`, in timestamp/FIFO order.
    pub fn drain_due(&mut self, now: Cycle) -> Vec<T> {
        let mut out = Vec::new();
        while let Some((_, payload)) = self.pop_due(now) {
            out.push(payload);
        }
        out
    }

    /// Number of pending events.
    pub fn len(&self) -> usize {
        self.heap.len()
    }

    /// Whether the queue is empty.
    pub fn is_empty(&self) -> bool {
        self.heap.is_empty()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn pops_in_time_order() {
        let mut q = EventQueue::new();
        q.push(5, "c");
        q.push(1, "a");
        q.push(3, "b");
        assert_eq!(q.peek_time(), Some(1));
        assert_eq!(q.drain_due(10), vec!["a", "b", "c"]);
        assert!(q.is_empty());
    }

    #[test]
    fn equal_times_pop_fifo() {
        let mut q = EventQueue::new();
        for i in 0..100 {
            q.push(7, i);
        }
        let order = q.drain_due(7);
        assert_eq!(order, (0..100).collect::<Vec<_>>());
    }

    #[test]
    fn pop_due_respects_now() {
        let mut q = EventQueue::new();
        q.push(10, ());
        assert_eq!(q.pop_due(9), None);
        assert_eq!(q.pop_due(10), Some((10, ())));
    }

    #[test]
    fn len_tracks_pushes() {
        let mut q: EventQueue<u32> = EventQueue::new();
        assert_eq!(q.len(), 0);
        q.push(1, 1);
        q.push(2, 2);
        assert_eq!(q.len(), 2);
        q.pop_due(5);
        assert_eq!(q.len(), 1);
    }

    #[test]
    fn interleaved_push_pop_stays_ordered() {
        let mut q = EventQueue::new();
        q.push(2, "b");
        q.push(1, "a");
        assert_eq!(q.pop_due(5), Some((1, "a")));
        q.push(1, "late-but-after"); // same time as an already-popped event
        assert_eq!(q.pop_due(5), Some((1, "late-but-after")));
        assert_eq!(q.pop_due(5), Some((2, "b")));
    }
}
