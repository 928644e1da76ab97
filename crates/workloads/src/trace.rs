//! Trace replay: [`TraceWorkload`] plays a list of [`TraceRecord`]s, built
//! in code, back cycle-accurately, so a run carries exactly the messages it
//! names.

use crate::request::{MessageRequest, Workload};
use quarc_core::ids::NodeId;
use quarc_engine::Cycle;
use std::collections::VecDeque;

/// One traced message creation.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct TraceRecord {
    /// Creation cycle.
    pub cycle: Cycle,
    /// The message.
    pub request: MessageRequest,
}

/// Replays a trace cycle-accurately. Each node's records must be in
/// non-decreasing cycle order.
#[derive(Debug)]
pub struct TraceWorkload {
    queues: Vec<VecDeque<TraceRecord>>,
}

impl TraceWorkload {
    /// Build a replay for an `n`-node network from records.
    pub fn new(n: usize, records: impl IntoIterator<Item = TraceRecord>) -> Self {
        let mut queues: Vec<VecDeque<TraceRecord>> = (0..n).map(|_| VecDeque::new()).collect();
        for r in records {
            assert!(r.request.src.index() < n, "trace source outside network");
            queues[r.request.src.index()].push_back(r);
        }
        for q in &queues {
            assert!(
                q.iter().zip(q.iter().skip(1)).all(|(a, b)| a.cycle <= b.cycle),
                "per-node trace must be cycle-sorted"
            );
        }
        TraceWorkload { queues }
    }

    /// Number of records still pending.
    pub fn remaining(&self) -> usize {
        self.queues.iter().map(VecDeque::len).sum()
    }
}

impl Workload for TraceWorkload {
    fn poll_into(&mut self, node: NodeId, now: Cycle, out: &mut Vec<MessageRequest>) {
        let q = &mut self.queues[node.index()];
        while q.front().is_some_and(|r| r.cycle <= now) {
            out.push(q.pop_front().expect("peeked").request);
        }
    }

    fn next_due(&self, node: NodeId, _now: Cycle) -> Cycle {
        // Replay is exact: nothing happens before the next record's cycle.
        self.queues[node.index()].front().map_or(Cycle::MAX, |r| r.cycle)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::synthetic::{Synthetic, SyntheticConfig};

    #[test]
    fn record_then_replay_is_identical() {
        let cfg = SyntheticConfig::paper(0.1, 8, 0.2, 17);
        let mut synthetic = Synthetic::new(8, cfg);
        let mut original = Vec::new();
        for now in 0..500 {
            for node in 0..8 {
                for m in synthetic.poll(NodeId::new(node), now) {
                    original.push((now, m));
                }
            }
        }
        let records = original
            .iter()
            .map(|(cycle, request)| TraceRecord { cycle: *cycle, request: request.clone() });
        let mut replay = TraceWorkload::new(8, records);
        let mut replayed = Vec::new();
        for now in 0..500 {
            for node in 0..8 {
                for m in replay.poll(NodeId::new(node), now) {
                    replayed.push((now, m));
                }
            }
        }
        assert_eq!(original, replayed);
        assert_eq!(replay.remaining(), 0);
    }

    #[test]
    fn late_poll_catches_up() {
        // If the driver polls at a later cycle, earlier records still fire.
        let records = vec![TraceRecord {
            cycle: 5,
            request: MessageRequest::unicast(NodeId(0), NodeId(1), 2),
        }];
        let mut tw = TraceWorkload::new(2, records);
        assert!(tw.poll(NodeId(0), 4).is_empty());
        assert_eq!(tw.poll(NodeId(0), 10).len(), 1);
    }
}
