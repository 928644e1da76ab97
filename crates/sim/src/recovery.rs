//! End-to-end reliable delivery: the source-side ack/timeout/retransmit
//! state machine shared by all four network models.
//!
//! The fabric itself stays lossy under a [`FaultPlan`](quarc_core::config::FaultPlan)
//! — dead and lossy links drop packets at the switch level exactly as
//! before. What this module adds is the *end-to-end* recovery loop of a
//! [`RecoveryPolicy`]: every receiver
//! acknowledges each message tail with a single-flit ACK packet injected
//! into the same fabric (so acks contend for the same links and can
//! themselves be dropped), and every source keeps an outstanding-message
//! window. When an ack deadline lapses, the source retransmits **to exactly
//! the unacknowledged receiver subset** with exponential backoff and seeded
//! jitter; after `max_retries` fruitless attempts the still-unserved
//! receivers are written off in the metrics' receiver ledger, so an
//! unreachable receiver set can never wedge `quiesced()`.
//!
//! ## Determinism
//!
//! All state here is a pure function of the simulation history: deadlines
//! derive from `policy.backoff(attempt)` plus a jitter drawn from a
//! `DetRng` seeded only by `policy.seed`, and jitter draws happen in
//! deterministic event order (entry creation and timer expiry both happen
//! at fixed points of the cycle loop). With `RecoveryPolicy::NONE` the
//! networks never construct per-message entries, never draw jitter and
//! never branch into this module beyond one `enabled()` check — the
//! equivalence goldens pin that byte-for-byte.
//!
//! ## Who owns what
//!
//! [`Metrics`](crate::metrics::Metrics) remains the single source of truth
//! for the receiver ledger (`delivered + lost == expected`). This module
//! only *decides*: which delivery is fresh vs duplicate
//! ([`RecoveryState::on_data_header`]), which ack closes a window
//! ([`RecoveryState::on_ack`]), and when to retransmit or give up
//! ([`RecoveryState::pop_action`]). The fabric reports each decision as one
//! event to the metrics and the probe, so loss accounting still happens
//! exactly once per receiver. Recovery is not such a sink: its answers
//! steer the simulation, so the fabric calls it directly.

use std::cmp::Reverse;
use std::collections::BinaryHeap;

use quarc_core::bits::{BitSlab, Bits};
use quarc_core::config::RecoveryPolicy;
use quarc_core::flit::TrafficClass;
use quarc_core::ids::{MessageId, NodeId};
use quarc_engine::{Cycle, DetRng};
use quarc_workloads::MessageRequest;

/// Lifecycle of one outstanding-message entry.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum EntryState {
    /// No message outstanding in this slot (initial, or fully acked).
    Idle,
    /// Waiting for acks; a timer is scheduled.
    Open,
    /// Retries exhausted; unserved receivers were written off. Late
    /// deliveries and acks for this generation are duplicates.
    WrittenOff,
}

/// Source-side record of one in-flight message's receiver window.
#[derive(Debug, Clone, Copy)]
struct RecEntry {
    /// Generation tag of the [`MessageId`] this entry belongs to; a stale
    /// id (slot recycled) can never touch the new occupant.
    gen: u32,
    state: EntryState,
    src: NodeId,
    class: TrafficClass,
    len: u32,
    created_at: Cycle,
    /// Retransmissions issued so far (0 = only the original send).
    attempt: u32,
    /// Receivers that have not acknowledged yet (node-indexed bitstring).
    pending: Bits,
    /// Receivers that have received the message at least once. `pending`
    /// can be wider than `¬served` — a served receiver whose ack was lost
    /// stays pending and gets a duplicate it re-acks.
    served: Bits,
    /// Cached popcount of `pending`.
    pending_count: u32,
    /// The deadline of this entry's live timer; heap entries with any
    /// other deadline are stale and skipped.
    deadline: Cycle,
}

/// What a delivered data header turned out to be.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum DataDelivery {
    /// First time this receiver sees the message: record it normally. If
    /// `recovered`, a retransmission had already been issued when it
    /// landed — the receiver counts toward
    /// [`Metrics::recovered_receivers`](crate::metrics::Metrics::recovered_receivers).
    Fresh {
        /// The message had been retransmitted at least once before this
        /// receiver was first served.
        recovered: bool,
    },
    /// The receiver was already served (late original after a retransmit,
    /// or an over-wide retransmission after a lost ack): drain the packet
    /// outside the receiver ledger and the trace, but still re-ack the tail.
    Dup,
}

/// A due decision popped from the timer heap.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum RecoveryAction {
    /// Re-inject `message` from `src` to the targets written into the
    /// caller's scratch vector (the unacked subset, in node order).
    Retry {
        /// The original message id — retransmitted packets carry it, so
        /// deliveries and acks fold into the same ledger entry.
        message: MessageId,
        /// The sending node (retransmissions originate at the source PE).
        src: NodeId,
        /// Original traffic class; collective retransmissions are narrowed
        /// to a multicast over the unserved subset by the caller.
        class: TrafficClass,
        /// Original message length in flits.
        len: u32,
        /// 1-based retransmission number (`attempt == 1` is the first
        /// retry).
        attempt: u32,
    },
    /// Retries are exhausted: `lost` receivers (pending and never served)
    /// must be written off so the message terminates.
    Exhaust {
        /// The message whose window is being closed.
        message: MessageId,
        /// The sending node (for the probe's Expire event).
        src: NodeId,
        /// Original traffic class of the message.
        class: TrafficClass,
        /// Receivers never served by any attempt. Zero when every receiver
        /// was served but some acks never came home — the message already
        /// completed in metrics and needs no write-off.
        lost: usize,
    },
}

/// The per-network recovery engine: an outstanding-message window per
/// source-issued message, a deadline heap, and the node-indexed pending /
/// served bitstrings (backed by this struct's own [`BitSlab`]).
#[derive(Debug)]
pub struct RecoveryState {
    policy: RecoveryPolicy,
    nodes: usize,
    /// Entries indexed by message slot (mirrors the metrics track slab).
    entries: Vec<RecEntry>,
    /// Min-heap of `(deadline, slot, gen)`; entries are lazily invalidated
    /// by comparing against `RecEntry::deadline` at pop time.
    timers: BinaryHeap<Reverse<(Cycle, u32, u32)>>,
    /// Backing storage for `pending` / `served` bitstrings.
    bits: BitSlab,
    /// Jitter substream; drawn once per scheduled deadline.
    rng: DetRng,
    /// Open entries — the count `quiesced()` and the stall watchdog read.
    open: usize,
}

impl RecoveryState {
    /// Recovery engine for a `nodes`-node network. With a disabled policy
    /// this allocates nothing and every hook is a single false branch.
    pub fn new(policy: RecoveryPolicy, nodes: usize) -> RecoveryState {
        let bits = if policy.enabled() { BitSlab::new(nodes) } else { BitSlab::inline_only() };
        RecoveryState {
            policy,
            nodes,
            entries: Vec::new(),
            timers: BinaryHeap::new(),
            bits,
            rng: DetRng::new(policy.seed),
            open: 0,
        }
    }

    /// Whether the policy is active (the one branch disabled runs pay).
    #[inline]
    pub fn enabled(&self) -> bool {
        self.policy.enabled()
    }

    /// Messages still waiting for acks or a retransmission deadline. Keeps
    /// `quiesced()` honest (an empty network with an armed timer is not
    /// done) and counts as watchdog progress (a pending retransmit is not
    /// a stall).
    #[inline]
    pub fn pending(&self) -> u64 {
        self.open as u64
    }

    /// Draw the jitter for one scheduled deadline.
    fn jitter(&mut self) -> u64 {
        if self.policy.jitter == 0 {
            0
        } else {
            self.rng.below(self.policy.jitter as usize) as u64
        }
    }

    /// Open the receiver window of a freshly injected message. Must be
    /// called with the same request the network expanded, after its inject
    /// event; `expected` is the receiver count the expansion
    /// reported, cross-checked against the pending set built here.
    pub fn on_send(
        &mut self,
        message: MessageId,
        req: &MessageRequest,
        now: Cycle,
        expected: usize,
    ) {
        let (slot, gen) = (message.slot(), message.generation());
        if slot >= self.entries.len() {
            self.entries.resize(
                slot + 1,
                RecEntry {
                    gen: 0,
                    state: EntryState::Idle,
                    src: NodeId(0),
                    class: TrafficClass::Unicast,
                    len: 0,
                    created_at: 0,
                    attempt: 0,
                    pending: Bits::ZERO,
                    served: Bits::ZERO,
                    pending_count: 0,
                    deadline: 0,
                },
            );
        }
        // The metrics slab recycles a slot the moment the last receiver
        // delivers — which can precede the last *ack* — so an Open entry
        // here is a fully-served window whose acks are still in flight.
        // Close it; its remaining acks will be drained as stale.
        if self.entries[slot].state == EntryState::Open {
            let old = &mut self.entries[slot];
            let (p, s) = (old.pending, old.served);
            old.state = EntryState::Idle;
            self.bits.release(p);
            self.bits.release(s);
            self.open -= 1;
        }

        let mut pending = Bits::ZERO;
        match req.class {
            TrafficClass::Unicast => {
                let dst = req.dst.expect("unicast request has a destination");
                self.bits.set_bit(&mut pending, dst.index());
            }
            TrafficClass::Broadcast => {
                for i in 0..self.nodes {
                    if i != req.src.index() {
                        self.bits.set_bit(&mut pending, i);
                    }
                }
            }
            TrafficClass::Multicast => {
                for &t in &req.targets {
                    if t != req.src {
                        self.bits.set_bit(&mut pending, t.index());
                    }
                }
            }
            other => unreachable!("recovery window for control class {other}"),
        }
        let pending_count = self.bits.popcount(pending);
        debug_assert_eq!(
            pending_count as usize, expected,
            "recovery window disagrees with expansion for {message}"
        );
        let deadline = now + self.policy.backoff(0) + self.jitter();
        self.entries[slot] = RecEntry {
            gen,
            state: EntryState::Open,
            src: req.src,
            class: req.class,
            len: u32::try_from(req.len).expect("message length fits u32"),
            created_at: now,
            attempt: 0,
            pending,
            served: Bits::ZERO,
            pending_count,
            deadline,
        };
        self.timers.push(Reverse((deadline, slot as u32, gen)));
        self.open += 1;
    }

    /// Classify a data header committed for delivery at `node`: the first
    /// arrival per receiver is fresh, everything after (and anything for a
    /// stale generation or a written-off window) is a duplicate to drain
    /// silently.
    pub fn on_data_header(&mut self, message: MessageId, node: NodeId) -> DataDelivery {
        let (slot, gen) = (message.slot(), message.generation());
        if slot >= self.entries.len() {
            return DataDelivery::Dup;
        }
        let entry = &mut self.entries[slot];
        if entry.gen != gen || entry.state != EntryState::Open {
            return DataDelivery::Dup;
        }
        if self.bits.bit_at(entry.served, node.index()) {
            return DataDelivery::Dup;
        }
        let mut served = entry.served;
        self.bits.set_bit(&mut served, node.index());
        self.entries[slot].served = served;
        DataDelivery::Fresh { recovered: self.entries[slot].attempt > 0 }
    }

    /// Fold an absorbed ACK from `receiver` into the window. Returns the
    /// acknowledged message's creation cycle when this ack is the first
    /// from that receiver (for the round-trip latency sample); `None` for
    /// stale or duplicate acks, which are counted but take no sample.
    pub fn on_ack(&mut self, message: MessageId, receiver: NodeId) -> Option<Cycle> {
        let (slot, gen) = (message.slot(), message.generation());
        if slot >= self.entries.len() {
            return None;
        }
        let entry = &mut self.entries[slot];
        if entry.gen != gen || entry.state != EntryState::Open {
            return None;
        }
        if !self.bits.bit_at(entry.pending, receiver.index()) {
            return None;
        }
        let mut pending = entry.pending;
        self.bits.clear_bit(&mut pending, receiver.index());
        let entry = &mut self.entries[slot];
        entry.pending = pending;
        entry.pending_count -= 1;
        let created_at = entry.created_at;
        if entry.pending_count == 0 {
            let (p, s) = (entry.pending, entry.served);
            entry.state = EntryState::Idle;
            self.bits.release(p);
            self.bits.release(s);
            self.open -= 1;
        }
        Some(created_at)
    }

    /// Pop the next due decision, if any. `targets` is caller-owned
    /// scratch; on a [`RecoveryAction::Retry`] it holds the unacked
    /// receiver subset in node order. Call in a loop until `None` each
    /// cycle (retries are rare, the common case is one peek).
    pub fn pop_action(&mut self, now: Cycle, targets: &mut Vec<NodeId>) -> Option<RecoveryAction> {
        loop {
            let &Reverse((deadline, slot, gen)) = self.timers.peek()?;
            if deadline > now {
                return None;
            }
            self.timers.pop();
            let slot = slot as usize;
            let entry = &self.entries[slot];
            // Lazy invalidation: the entry moved on (acked shut, slot
            // recycled, or rescheduled to a later deadline).
            if entry.gen != gen || entry.state != EntryState::Open || entry.deadline != deadline {
                continue;
            }
            let message = MessageId::from_slot(slot, gen);
            if entry.attempt >= self.policy.max_retries {
                // Give up: write off receivers never served by any attempt.
                // Served-but-unacked receivers are already in the delivered
                // ledger — only the never-served ones are lost.
                let mut lost = 0usize;
                for i in 0..self.nodes {
                    if self.bits.bit_at(entry.pending, i) && !self.bits.bit_at(entry.served, i) {
                        lost += 1;
                    }
                }
                let entry = &mut self.entries[slot];
                let (p, s) = (entry.pending, entry.served);
                let (src, class) = (entry.src, entry.class);
                entry.state = EntryState::WrittenOff;
                self.bits.release(p);
                self.bits.release(s);
                self.open -= 1;
                return Some(RecoveryAction::Exhaust { message, src, class, lost });
            }
            let attempt = entry.attempt + 1;
            targets.clear();
            for i in 0..self.nodes {
                if self.bits.bit_at(entry.pending, i) {
                    targets.push(NodeId(i as u32));
                }
            }
            debug_assert!(!targets.is_empty(), "open window with empty pending set");
            let (src, class, len) = (entry.src, entry.class, entry.len);
            let next = now + self.policy.backoff(attempt) + self.jitter();
            let entry = &mut self.entries[slot];
            entry.attempt = attempt;
            entry.deadline = next;
            self.timers.push(Reverse((next, slot as u32, gen)));
            return Some(RecoveryAction::Retry { message, src, class, len, attempt });
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn policy() -> RecoveryPolicy {
        RecoveryPolicy { seed: 7, ack_timeout: 100, max_retries: 2, jitter: 0 }
    }

    fn mid(slot: usize, gen: u32) -> MessageId {
        MessageId::from_slot(slot, gen)
    }

    #[test]
    fn unicast_window_closes_on_first_ack() {
        let mut r = RecoveryState::new(policy(), 8);
        let m = mid(0, 0);
        r.on_send(m, &MessageRequest::unicast(NodeId(1), NodeId(5), 4), 10, 1);
        assert_eq!(r.pending(), 1);
        assert_eq!(r.on_data_header(m, NodeId(5)), DataDelivery::Fresh { recovered: false });
        assert_eq!(r.on_data_header(m, NodeId(5)), DataDelivery::Dup);
        assert_eq!(r.on_ack(m, NodeId(5)), Some(10));
        assert_eq!(r.on_ack(m, NodeId(5)), None, "duplicate ack is stale");
        assert_eq!(r.pending(), 0);
        let mut scratch = Vec::new();
        assert_eq!(r.pop_action(1_000_000, &mut scratch), None, "closed window fires no timer");
    }

    #[test]
    fn timeout_retries_exactly_the_unacked_subset_then_exhausts() {
        let mut r = RecoveryState::new(policy(), 8);
        let m = mid(0, 0);
        let req = MessageRequest::multicast(NodeId(0), vec![NodeId(2), NodeId(3), NodeId(6)], 4);
        r.on_send(m, &req, 0, 3);
        // Node 3 delivered and acked; 2 delivered but its ack was lost; 6
        // never served.
        r.on_data_header(m, NodeId(3));
        r.on_data_header(m, NodeId(2));
        assert_eq!(r.on_ack(m, NodeId(3)), Some(0));

        let mut scratch = Vec::new();
        assert_eq!(r.pop_action(99, &mut scratch), None, "deadline not due yet");
        match r.pop_action(100, &mut scratch) {
            Some(RecoveryAction::Retry { message, src, attempt, .. }) => {
                assert_eq!(message, m);
                assert_eq!(src, NodeId(0));
                assert_eq!(attempt, 1);
                assert_eq!(scratch, vec![NodeId(2), NodeId(6)], "only the unacked subset");
            }
            other => panic!("expected first retry, got {other:?}"),
        }
        // Backoff doubles: attempt 1 rescheduled at 100 + 200.
        assert_eq!(r.pop_action(299, &mut scratch), None);
        match r.pop_action(300, &mut scratch) {
            Some(RecoveryAction::Retry { attempt: 2, .. }) => {}
            other => panic!("expected second retry, got {other:?}"),
        }
        // max_retries = 2: the next expiry exhausts. Node 6 was never
        // served (lost); node 2 was served, only its ack is missing.
        match r.pop_action(10_000, &mut scratch) {
            Some(RecoveryAction::Exhaust { message, src, lost, .. }) => {
                assert_eq!(message, m);
                assert_eq!(src, NodeId(0));
                assert_eq!(lost, 1);
            }
            other => panic!("expected exhaust, got {other:?}"),
        }
        assert_eq!(r.pending(), 0);
        assert_eq!(r.on_data_header(m, NodeId(6)), DataDelivery::Dup, "written-off is dup");
        assert_eq!(r.on_ack(m, NodeId(2)), None, "written-off ack is stale");
    }

    #[test]
    fn slot_reuse_with_inflight_acks_closes_the_old_window() {
        let mut r = RecoveryState::new(policy(), 8);
        let old = mid(0, 0);
        r.on_send(old, &MessageRequest::unicast(NodeId(1), NodeId(5), 4), 0, 1);
        r.on_data_header(old, NodeId(5));
        // Metrics recycled slot 0 before the ack came home; the new
        // occupant opens over the same slot under a fresh generation.
        let fresh = mid(0, 1);
        r.on_send(fresh, &MessageRequest::unicast(NodeId(2), NodeId(6), 4), 50, 1);
        assert_eq!(r.pending(), 1, "old window force-closed, new one open");
        assert_eq!(r.on_ack(old, NodeId(5)), None, "stale-generation ack drained");
        assert_eq!(r.on_ack(fresh, NodeId(6)), Some(50));
        assert_eq!(r.pending(), 0);
        let mut scratch = Vec::new();
        assert_eq!(r.pop_action(1_000_000, &mut scratch), None, "no timer survives");
    }

    #[test]
    fn broadcast_window_covers_all_but_the_source() {
        let mut r = RecoveryState::new(policy(), 4);
        let m = mid(0, 0);
        r.on_send(m, &MessageRequest::broadcast(NodeId(1), 4), 0, 3);
        for n in [0u32, 2, 3] {
            assert_eq!(r.on_data_header(m, NodeId(n)), DataDelivery::Fresh { recovered: false });
            r.on_ack(m, NodeId(n));
        }
        assert_eq!(r.pending(), 0);
    }

    #[test]
    fn fresh_delivery_after_a_retry_counts_as_recovered() {
        let mut r = RecoveryState::new(policy(), 8);
        let m = mid(0, 0);
        r.on_send(m, &MessageRequest::unicast(NodeId(0), NodeId(3), 4), 0, 1);
        let mut scratch = Vec::new();
        assert!(matches!(
            r.pop_action(100, &mut scratch),
            Some(RecoveryAction::Retry { attempt: 1, .. })
        ));
        assert_eq!(r.on_data_header(m, NodeId(3)), DataDelivery::Fresh { recovered: true });
    }

    #[test]
    fn jitter_spreads_deadlines_deterministically() {
        let p = RecoveryPolicy { seed: 9, ack_timeout: 100, max_retries: 1, jitter: 64 };
        let mut a = RecoveryState::new(p, 8);
        let mut b = RecoveryState::new(p, 8);
        a.on_send(mid(0, 0), &MessageRequest::unicast(NodeId(0), NodeId(1), 4), 0, 1);
        b.on_send(mid(0, 0), &MessageRequest::unicast(NodeId(0), NodeId(1), 4), 0, 1);
        // Identical seeds and event order: identical firing cycles.
        let fire = |r: &mut RecoveryState| {
            let mut s = Vec::new();
            (0..10_000u64)
                .find(|&t| matches!(r.pop_action(t, &mut s), Some(RecoveryAction::Retry { .. })))
        };
        let cycle = fire(&mut a);
        assert_eq!(cycle, fire(&mut b));
        let cycle = cycle.expect("retry fires");
        assert!((100..164).contains(&cycle), "timeout plus jitter in [0, 64): {cycle}");
    }
}
