//! Round-robin arbitration.
//!
//! The paper's switch contains two layers of arbitration — the VC arbiter
//! that picks which lane of an input port may request (§2.3.2, with its
//! `times_up` fairness timer) and the OPC master FSM that grants one of up to
//! three requesting inputs (§2.3.3). Both are modelled as round-robin
//! pointers, which is what the timer-based multiplexing converges to under
//! sustained load. Like the hardware, an arbiter sees *request lines*, not
//! buffers: its input is a bitmask of eligible candidates.

use quarc_core::config::ArbPolicy;

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

    /// The grant rule for the arbiter at `idx` over `len` candidates, bit
    /// `k` of `eligible` set iff candidate `k` requests: the first eligible
    /// candidate at or after the pointer wins, else the first eligible one,
    /// and the pointer advances past the winner (round-robin) or stays at
    /// zero (fixed priority). Returns `None` when nothing is eligible (the
    /// pointer does not move). Word operations only — this runs per port
    /// per visited router per cycle.
    #[inline(always)]
    pub fn pick(&mut self, idx: usize, len: usize, eligible: u32) -> Option<usize> {
        debug_assert!(len < 32 && eligible >> len == 0, "candidate outside the domain");
        if eligible == 0 {
            return None;
        }
        let next = &mut self.next[idx];
        let ahead = eligible >> *next;
        let k = if ahead != 0 {
            *next as u32 + ahead.trailing_zeros()
        } else {
            eligible.trailing_zeros()
        };
        if self.policy == ArbPolicy::RoundRobin {
            *next = if k as usize + 1 == len { 0 } else { k as u8 + 1 };
        }
        Some(k as usize)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn one(policy: ArbPolicy) -> RoundRobinBank {
        RoundRobinBank::new(1, policy)
    }

    /// The scalar grant rule the word operations replaced — the reference
    /// [`RoundRobinBank::pick`] is checked against.
    fn pick_from(
        next: &mut u8,
        policy: ArbPolicy,
        len: usize,
        eligible: impl Fn(usize) -> bool,
    ) -> Option<usize> {
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

    #[test]
    fn word_ops_equal_the_scalar_rule_exhaustively() {
        for policy in [ArbPolicy::RoundRobin, ArbPolicy::FixedPriority] {
            for len in 0..=8usize {
                for ptr in 0..len.max(1) as u8 {
                    for mask in 0..1u32 << len {
                        let mut bank = one(policy);
                        bank.next[0] = ptr;
                        let mut want_next = ptr;
                        let want = pick_from(&mut want_next, policy, len, |k| mask >> k & 1 != 0);
                        let got = bank.pick(0, len, mask);
                        let at = format!("{policy:?} len {len} ptr {ptr} mask {mask:#b}");
                        assert_eq!(got, want, "grant: {at}");
                        assert_eq!(bank.next[0], want_next, "pointer: {at}");
                    }
                }
            }
        }
    }

    #[test]
    fn rotates_fairly_under_full_load() {
        let mut rr = one(ArbPolicy::RoundRobin);
        let picks: Vec<usize> = (0..8).map(|_| rr.pick(0, 4, 0b1111).unwrap()).collect();
        assert_eq!(picks, vec![0, 1, 2, 3, 0, 1, 2, 3]);
    }

    #[test]
    fn skips_ineligible() {
        let mut rr = one(ArbPolicy::RoundRobin);
        assert_eq!(rr.pick(0, 4, 0b0100), Some(2));
        assert_eq!(rr.pick(0, 4, 0b0100), Some(2));
        assert_eq!(rr.pick(0, 4, 0), None);
    }

    #[test]
    fn empty_domain() {
        let mut rr = one(ArbPolicy::RoundRobin);
        assert_eq!(rr.pick(0, 0, 0), None);
    }

    #[test]
    fn no_starvation_with_persistent_competitor() {
        // Candidate 0 always requests; candidate 1 requests always too.
        // Both must be served equally.
        let mut rr = one(ArbPolicy::RoundRobin);
        let mut counts = [0usize; 2];
        for _ in 0..100 {
            counts[rr.pick(0, 2, 0b11).unwrap()] += 1;
        }
        assert_eq!(counts, [50, 50]);
    }

    #[test]
    fn bank_pointers_are_independent_and_match_scalar() {
        // Each arbiter of a bank must behave exactly like a bank of one fed
        // the same requests, whatever its neighbours are doing.
        let mut bank = RoundRobinBank::new(3, ArbPolicy::RoundRobin);
        let mut scalars = [0, 1, 2].map(|_| one(ArbPolicy::RoundRobin));
        for round in 0..20u32 {
            for (idx, scalar) in scalars.iter_mut().enumerate() {
                let mask = (round + idx as u32) % 15;
                let got = bank.pick(idx, 4, mask);
                let want = scalar.pick(0, 4, mask);
                assert_eq!(got, want, "round {round} idx {idx}");
            }
        }
    }

    #[test]
    fn fixed_priority_starves_low_priority() {
        let mut fp = one(ArbPolicy::FixedPriority);
        let mut counts = [0usize; 2];
        for _ in 0..100 {
            counts[fp.pick(0, 2, 0b11).unwrap()] += 1;
        }
        assert_eq!(counts, [100, 0], "fixed priority must always grant index 0");
        // Candidate 1 is only served when 0 is silent.
        assert_eq!(fp.pick(0, 2, 0b10), Some(1));
    }
}
