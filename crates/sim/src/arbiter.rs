//! Round-robin arbitration.
//!
//! The paper's switch contains two layers of arbitration — the VC arbiter
//! that picks which lane of an input port may request (§2.3.2, with its
//! `times_up` fairness timer) and the OPC master FSM that grants one of up to
//! three requesting inputs (§2.3.3). Both are modelled as round-robin
//! pointers, which is what the timer-based multiplexing converges to under
//! sustained load.

pub use quarc_core::config::ArbPolicy;

/// The grant rule: the first eligible candidate at or after the pointer
/// wins, and the pointer advances past the winner (round-robin) or stays at
/// zero (fixed priority). Returns `None` when nothing is eligible (the
/// pointer does not move).
#[inline]
fn pick_from(
    next: &mut u8,
    policy: ArbPolicy,
    len: usize,
    mut eligible: impl FnMut(usize) -> bool,
) -> Option<usize> {
    if len == 0 {
        return None;
    }
    for i in 0..len {
        let k = (*next as usize + i) % len;
        if eligible(k) {
            if policy == ArbPolicy::RoundRobin {
                *next = ((k + 1) % len) as u8;
            }
            return Some(k);
        }
    }
    None
}

/// Every arbiter pointer of one network in a single contiguous slab.
///
/// One byte per arbiter (candidate domains are tiny, ≤ 8): the arbitration
/// pass walks the pointers of every *active* router every cycle; keeping
/// them in one `Box<[u8]>` (indexed `node * ports + port` by the owning
/// network) keeps the whole bank cache-resident at any network size.
#[derive(Debug, Clone)]
pub struct RoundRobinBank {
    next: Box<[u8]>,
    policy: ArbPolicy,
}

impl RoundRobinBank {
    /// A bank of `count` arbiters under one policy, all starting at 0.
    pub fn new(count: usize, policy: ArbPolicy) -> Self {
        RoundRobinBank { next: vec![0; count].into_boxed_slice(), policy }
    }

    /// Apply the grant rule to the arbiter at `idx` over `len` candidates.
    #[inline(always)]
    pub fn pick(
        &mut self,
        idx: usize,
        len: usize,
        eligible: impl FnMut(usize) -> bool,
    ) -> Option<usize> {
        pick_from(&mut self.next[idx], self.policy, len, eligible)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn one(policy: ArbPolicy) -> RoundRobinBank {
        RoundRobinBank::new(1, policy)
    }

    #[test]
    fn rotates_fairly_under_full_load() {
        let mut rr = one(ArbPolicy::RoundRobin);
        let picks: Vec<usize> = (0..8).map(|_| rr.pick(0, 4, |_| true).unwrap()).collect();
        assert_eq!(picks, vec![0, 1, 2, 3, 0, 1, 2, 3]);
    }

    #[test]
    fn skips_ineligible() {
        let mut rr = one(ArbPolicy::RoundRobin);
        assert_eq!(rr.pick(0, 4, |k| k == 2), Some(2));
        assert_eq!(rr.pick(0, 4, |k| k == 2), Some(2));
        assert_eq!(rr.pick(0, 4, |_| false), None);
    }

    #[test]
    fn empty_domain() {
        let mut rr = one(ArbPolicy::RoundRobin);
        assert_eq!(rr.pick(0, 0, |_| true), None);
    }

    #[test]
    fn no_starvation_with_persistent_competitor() {
        // Candidate 0 always requests; candidate 1 requests always too.
        // Both must be served equally.
        let mut rr = one(ArbPolicy::RoundRobin);
        let mut counts = [0usize; 2];
        for _ in 0..100 {
            counts[rr.pick(0, 2, |_| true).unwrap()] += 1;
        }
        assert_eq!(counts, [50, 50]);
    }

    #[test]
    fn bank_pointers_are_independent_and_match_scalar() {
        // Each arbiter of a bank must behave exactly like a bank of one fed
        // the same requests, whatever its neighbours are doing.
        let mut bank = RoundRobinBank::new(3, ArbPolicy::RoundRobin);
        let mut scalars = [0, 1, 2].map(|_| one(ArbPolicy::RoundRobin));
        for round in 0..20usize {
            for (idx, scalar) in scalars.iter_mut().enumerate() {
                let mask = (round + idx) % 7;
                let got = bank.pick(idx, 4, |k| (mask >> (k % 3)) & 1 == 1);
                let want = scalar.pick(0, 4, |k| (mask >> (k % 3)) & 1 == 1);
                assert_eq!(got, want, "round {round} idx {idx}");
            }
        }
    }

    #[test]
    fn fixed_priority_starves_low_priority() {
        let mut fp = one(ArbPolicy::FixedPriority);
        let mut counts = [0usize; 2];
        for _ in 0..100 {
            counts[fp.pick(0, 2, |_| true).unwrap()] += 1;
        }
        assert_eq!(counts, [100, 0], "fixed priority must always grant index 0");
        // Candidate 1 is only served when 0 is silent.
        assert_eq!(fp.pick(0, 2, |k| k == 1), Some(1));
    }
}
