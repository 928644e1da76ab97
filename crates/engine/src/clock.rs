//! Simulation time.
//!
//! The flit-level simulator is cycle-driven: every component observes the
//! state of the network as of the start of a cycle and commits its outputs at
//! the end (two-phase update), so a single global counter suffices.

/// A point in simulated time, measured in router clock cycles.
pub type Cycle = u64;

/// The global simulation clock.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct Clock {
    now: Cycle,
}

impl Clock {
    /// A clock at cycle zero.
    pub fn new() -> Self {
        Clock { now: 0 }
    }

    /// The current cycle.
    #[inline]
    pub fn now(&self) -> Cycle {
        self.now
    }

    /// Advance by one cycle, returning the new time.
    #[inline]
    pub fn tick(&mut self) -> Cycle {
        self.now += 1;
        self.now
    }

    /// Advance by `n` cycles.
    #[inline]
    #[cfg(test)]
    fn advance(&mut self, n: Cycle) {
        self.now += n;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn starts_at_zero_and_ticks() {
        let mut c = Clock::new();
        assert_eq!(c.now(), 0);
        assert_eq!(c.tick(), 1);
        assert_eq!(c.tick(), 2);
        c.advance(10);
        assert_eq!(c.now(), 12);
    }
}
