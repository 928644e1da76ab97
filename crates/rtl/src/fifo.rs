//! A synchronous FIFO modelling one input-buffer lane of the IPC (§2.3.1).
//!
//! Two-phase semantics: `empty()`/`full()`/`head()` reflect the state at the
//! start of the cycle (what combinational logic sees); `tick` applies the
//! cycle's push/pop at the clock edge. Pushing into a full FIFO is a protocol
//! violation (the `ch_status_n` back-pressure must prevent it) and panics.

use std::collections::VecDeque;

/// A clocked FIFO of 34-bit flit words.
#[derive(Debug, Clone)]
pub struct SyncFifo {
    q: VecDeque<u64>,
    cap: usize,
}

impl SyncFifo {
    /// FIFO with capacity `cap` words.
    pub fn new(cap: usize) -> Self {
        assert!(cap >= 1);
        SyncFifo { q: VecDeque::with_capacity(cap), cap }
    }

    /// The `empty` status signal (start-of-cycle view).
    pub fn empty(&self) -> bool {
        self.q.is_empty()
    }

    /// The `full` status signal (drives `CH_STATUS_N`).
    #[cfg(test)]
    fn full(&self) -> bool {
        self.q.len() == self.cap
    }

    /// Word at the read port (valid when `!empty()`).
    pub fn head(&self) -> Option<u64> {
        self.q.front().copied()
    }

    /// Occupancy in words.
    pub fn len(&self) -> usize {
        self.q.len()
    }

    /// Whether the FIFO holds no words.
    pub fn is_empty(&self) -> bool {
        self.q.is_empty()
    }

    /// Clock edge: apply this cycle's write and/or read.
    pub fn tick(&mut self, push: Option<u64>, pop: bool) {
        if pop {
            assert!(!self.q.is_empty(), "pop from empty FIFO");
            self.q.pop_front();
        }
        if let Some(w) = push {
            assert!(self.q.len() < self.cap, "push into full FIFO: CH_STATUS_N ignored");
            self.q.push_back(w);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fifo_order_and_flags() {
        let mut f = SyncFifo::new(2);
        assert!(f.empty() && !f.full());
        f.tick(Some(1), false);
        f.tick(Some(2), false);
        assert!(f.full());
        assert_eq!(f.head(), Some(1));
        f.tick(None, true);
        assert_eq!(f.head(), Some(2));
        f.tick(None, true);
        assert!(f.empty());
    }

    #[test]
    fn simultaneous_push_pop_keeps_occupancy() {
        let mut f = SyncFifo::new(2);
        f.tick(Some(1), false);
        f.tick(Some(2), true); // read 1, write 2
        assert_eq!(f.len(), 1);
        assert_eq!(f.head(), Some(2));
    }

    #[test]
    fn push_pop_same_cycle_when_full_works() {
        // Pop frees the slot before push at the same edge.
        let mut f = SyncFifo::new(1);
        f.tick(Some(7), false);
        f.tick(Some(8), true);
        assert_eq!(f.head(), Some(8));
    }

    #[test]
    #[should_panic(expected = "full")]
    fn overflow_panics() {
        let mut f = SyncFifo::new(1);
        f.tick(Some(1), false);
        f.tick(Some(2), false);
    }

    #[test]
    #[should_panic(expected = "empty")]
    fn underflow_panics() {
        let mut f = SyncFifo::new(1);
        f.tick(None, true);
    }
}
