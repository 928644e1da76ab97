//! Trace recording and replay.
//!
//! Any workload can be wrapped in a [`Recorder`] to capture the exact message
//! stream of a run; [`TraceWorkload`] replays a captured (or externally
//! produced) trace cycle-accurately. Traces serialise to a simple line-based
//! text format so experiment inputs can be diffed and versioned without a
//! serde dependency.

use crate::request::{MessageRequest, Workload};
use quarc_core::flit::TrafficClass;
use quarc_core::ids::NodeId;
use quarc_engine::Cycle;
use std::collections::VecDeque;
use std::fmt;
use std::str::FromStr;

/// One traced message creation.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct TraceRecord {
    /// Creation cycle.
    pub cycle: Cycle,
    /// The message.
    pub request: MessageRequest,
}

impl fmt::Display for TraceRecord {
    /// `cycle src class len dst|targets` — e.g. `120 3 u 8 7` or
    /// `130 0 b 16 -` or `140 2 m 8 1,5,9`.
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let r = &self.request;
        let class = match r.class {
            TrafficClass::Unicast => "u",
            TrafficClass::Broadcast => "b",
            TrafficClass::Multicast => "m",
            other => panic!("trace format does not carry internal class {other}"),
        };
        write!(f, "{} {} {} {} ", self.cycle, r.src.index(), class, r.len)?;
        match r.class {
            TrafficClass::Unicast => write!(f, "{}", r.dst.expect("unicast has dst").index()),
            TrafficClass::Broadcast => write!(f, "-"),
            _ => {
                let parts: Vec<String> = r.targets.iter().map(|t| t.index().to_string()).collect();
                write!(f, "{}", parts.join(","))
            }
        }
    }
}

/// Errors from parsing a trace line.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct TraceParseError(String);

impl fmt::Display for TraceParseError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "bad trace line: {}", self.0)
    }
}

impl std::error::Error for TraceParseError {}

impl FromStr for TraceRecord {
    type Err = TraceParseError;

    fn from_str(s: &str) -> Result<Self, Self::Err> {
        let err = || TraceParseError(s.to_string());
        let mut it = s.split_whitespace();
        let cycle: Cycle = it.next().ok_or_else(err)?.parse().map_err(|_| err())?;
        let src: usize = it.next().ok_or_else(err)?.parse().map_err(|_| err())?;
        let class = it.next().ok_or_else(err)?;
        let len: usize = it.next().ok_or_else(err)?.parse().map_err(|_| err())?;
        let rest = it.next().ok_or_else(err)?;
        let src = NodeId::new(src);
        let request = match class {
            "u" => {
                let dst: usize = rest.parse().map_err(|_| err())?;
                MessageRequest::unicast(src, NodeId::new(dst), len)
            }
            "b" => MessageRequest::broadcast(src, len),
            "m" => {
                let targets = rest
                    .split(',')
                    .map(|t| t.parse::<usize>().map(NodeId::new))
                    .collect::<Result<Vec<_>, _>>()
                    .map_err(|_| err())?;
                MessageRequest::multicast(src, targets, len)
            }
            _ => return Err(err()),
        };
        Ok(TraceRecord { cycle, request })
    }
}

/// Wraps a workload, recording everything it generates.
#[derive(Debug)]
pub struct Recorder<W> {
    inner: W,
    trace: Vec<TraceRecord>,
}

impl<W: Workload> Recorder<W> {
    /// Wrap `inner`.
    pub fn new(inner: W) -> Self {
        Recorder { inner, trace: Vec::new() }
    }

    /// The records captured so far.
    pub fn trace(&self) -> &[TraceRecord] {
        &self.trace
    }
}

impl<W: Workload> Workload for Recorder<W> {
    fn poll_into(&mut self, node: NodeId, now: Cycle, out: &mut Vec<MessageRequest>) {
        let before = out.len();
        self.inner.poll_into(node, now, out);
        for m in &out[before..] {
            self.trace.push(TraceRecord { cycle: now, request: m.clone() });
        }
    }

    fn nominal_rate(&self) -> Option<f64> {
        self.inner.nominal_rate()
    }

    fn next_due(&self, node: NodeId, now: Cycle) -> Cycle {
        self.inner.next_due(node, now)
    }
}

/// Replays a trace cycle-accurately. Records must be grouped per node in
/// non-decreasing cycle order (the order a [`Recorder`] produces).
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

    /// Parse the line format: one [`TraceRecord`] per line as its `Display`
    /// writes it; blank lines and `#` comments are skipped.
    pub fn parse(n: usize, text: &str) -> Result<Self, TraceParseError> {
        let records = text
            .lines()
            .filter(|l| !l.trim().is_empty() && !l.starts_with('#'))
            .map(str::parse)
            .collect::<Result<Vec<TraceRecord>, _>>()?;
        Ok(TraceWorkload::new(n, records))
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
        let mut rec = Recorder::new(Synthetic::new(8, cfg));
        let mut original = Vec::new();
        for now in 0..500 {
            for node in 0..8 {
                for m in rec.poll(NodeId::new(node), now) {
                    original.push((now, m));
                }
            }
        }
        let mut replay = TraceWorkload::new(8, rec.trace().to_vec());
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
    fn text_roundtrip() {
        let records = vec![
            TraceRecord { cycle: 5, request: MessageRequest::unicast(NodeId(1), NodeId(3), 8) },
            TraceRecord { cycle: 9, request: MessageRequest::broadcast(NodeId(0), 16) },
            TraceRecord {
                cycle: 12,
                request: MessageRequest::multicast(NodeId(2), vec![NodeId(4), NodeId(6)], 4),
            },
        ];
        let text: String = records.iter().map(|r| format!("{r}\n")).collect();
        let parsed: Vec<TraceRecord> = text.lines().map(|l| l.parse().unwrap()).collect();
        assert_eq!(parsed, records);
    }

    #[test]
    fn parse_rejects_garbage() {
        assert!("not a record".parse::<TraceRecord>().is_err());
        assert!("1 2 z 8 3".parse::<TraceRecord>().is_err());
        assert!("1 2 u 8".parse::<TraceRecord>().is_err());
    }

    #[test]
    fn parse_skips_comments_and_blanks() {
        let tw = TraceWorkload::parse(4, "# header\n\n3 0 u 8 1\n").unwrap();
        assert_eq!(tw.remaining(), 1);
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
