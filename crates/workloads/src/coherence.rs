//! A synthetic MPSoC cache-coherence workload.
//!
//! The paper motivates the Quarc with cache synchronisation: "Broadcast
//! traffic in NoCs is particularly important in MPSoC as it is the key
//! mechanism for keeping caches in sync" (§1). This workload models a
//! write-invalidate protocol over a NoC without a directory:
//!
//! * each core issues memory requests as a Bernoulli process;
//! * a **write hit on a shared line** broadcasts an *invalidate* to every
//!   other core (the Quarc's true broadcast vs Spidergon's chain is exactly
//!   this message);
//! * a **read miss** unicasts a *fetch* to the line's home node, and the home
//!   node later unicasts the cache-line *data* back (modelled open-loop with
//!   a fixed memory service delay, since the workload layer does not observe
//!   network completions).
//!
//! Line-granular MESI bookkeeping is deliberately not modelled — the point of
//! the workload is the *traffic shape* (a β-like broadcast share coupled to
//! write behaviour, bursty request/response unicasts), not protocol
//! verification.
//!
//! Each home node keeps its pending data responses in a FIFO. That is also
//! their due order: every response is due `memory_delay` (a constant)
//! after the fetch that scheduled it, and fetches arrive in nondecreasing
//! cycles, so a later push is never due before an earlier one, and
//! responses due in the same cycle leave in the order they were scheduled.

use crate::limits;
use crate::request::{MessageRequest, Workload};
use quarc_core::config::ConfigError;
use quarc_core::ids::NodeId;
use quarc_engine::{Cycle, DetRng};
use std::collections::VecDeque;

/// Parameters of the coherence workload.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct CoherenceConfig {
    /// Memory requests per core per cycle.
    pub request_rate: f64,
    /// Fraction of requests that are writes.
    pub write_frac: f64,
    /// Fraction of writes that hit a *shared* line (and must invalidate).
    pub shared_frac: f64,
    /// Fraction of reads that miss locally (and must fetch from home).
    pub miss_frac: f64,
    /// Number of distinct cache lines (homes are `line % n`).
    pub lines: usize,
    /// Cycles the home node takes to produce a data response.
    pub memory_delay: u64,
    /// Control-message length in flits (invalidate / fetch).
    pub ctrl_len: usize,
    /// Data-message length in flits (cache line transfer).
    pub data_len: usize,
    /// Master seed.
    pub seed: u64,
}

impl CoherenceConfig {
    /// Check that this traffic can run on `nodes` nodes.
    pub fn check(&self, nodes: usize) -> Result<(), ConfigError> {
        limits::nodes(nodes)?;
        limits::rate("request_rate", self.request_rate)?;
        limits::fraction("write_frac", self.write_frac)?;
        limits::fraction("shared_frac", self.shared_frac)?;
        limits::fraction("miss_frac", self.miss_frac)?;
        limits::require(self.lines >= 1, "lines", "must be at least 1")?;
        limits::msg_len("ctrl_len", self.ctrl_len)?;
        limits::msg_len("data_len", self.data_len)
    }
}

impl Default for CoherenceConfig {
    fn default() -> Self {
        CoherenceConfig {
            request_rate: 0.02,
            write_frac: 0.3,
            shared_frac: 0.2,
            miss_frac: 0.1,
            lines: 1024,
            memory_delay: 20,
            ctrl_len: 2,
            data_len: 16,
            seed: 0xC0DE,
        }
    }
}

/// The coherence traffic generator.
#[derive(Debug)]
pub struct Coherence {
    cfg: CoherenceConfig,
    n: usize,
    rngs: Vec<DetRng>,
    next_arrival: Vec<Cycle>,
    /// Pending data responses per home node, (due cycle, requester), in
    /// due order (module doc).
    responses: Vec<VecDeque<(Cycle, NodeId)>>,
}

impl Coherence {
    /// Build for an `n`-node network. Panics where
    /// [`CoherenceConfig::check`] fails.
    pub fn new(n: usize, cfg: CoherenceConfig) -> Self {
        if let Err(e) = cfg.check(n) {
            panic!("{e}");
        }
        let master = DetRng::new(cfg.seed);
        let mut rngs = Vec::with_capacity(n);
        let mut next_arrival = Vec::with_capacity(n);
        for i in 0..n {
            let mut rng = master.fork(i as u64);
            next_arrival.push(rng.geometric_gap(cfg.request_rate));
            rngs.push(rng);
        }
        Coherence { cfg, n, rngs, next_arrival, responses: vec![VecDeque::new(); n] }
    }

    /// The home node of a cache line.
    fn home_of(&self, line: usize) -> NodeId {
        NodeId::new(line % self.n)
    }
}

impl Workload for Coherence {
    fn poll_into(&mut self, node: NodeId, now: Cycle, out: &mut Vec<MessageRequest>) {
        let i = node.index();

        // First, serve the data responses this node owes as home, each to
        // the other node that fetched.
        let owed = &mut self.responses[i];
        while let Some(&(_, requester)) = owed.front().filter(|&&(due, _)| due <= now) {
            owed.pop_front();
            out.push(MessageRequest::unicast(node, requester, self.cfg.data_len));
        }

        if now < self.next_arrival[i] {
            return;
        }
        let rng = &mut self.rngs[i];
        self.next_arrival[i] = now + rng.geometric_gap(self.cfg.request_rate);

        if rng.chance(self.cfg.write_frac) {
            // Write: shared lines require a network-wide invalidate.
            if rng.chance(self.cfg.shared_frac) {
                out.push(MessageRequest::broadcast(node, self.cfg.ctrl_len));
            }
        } else if rng.chance(self.cfg.miss_frac) {
            // Read miss: fetch from the line's home, which responds later.
            let line = rng.below(self.cfg.lines);
            let home = self.home_of(line);
            if home != node {
                out.push(MessageRequest::unicast(node, home, self.cfg.ctrl_len));
                let due = now + self.cfg.memory_delay;
                let queue = &mut self.responses[home.index()];
                debug_assert!(
                    queue.back().is_none_or(|&(last, _)| last <= due),
                    "a response is due before one scheduled earlier"
                );
                queue.push_back((due, node));
            }
        }
    }

    fn nominal_rate(&self) -> Option<f64> {
        Some(self.cfg.request_rate)
    }

    // Deliberately no `next_due` override: polling node A can schedule a
    // data response at another node's home queue, so a per-node lower bound
    // answered *now* can be invalidated by a later poll of a different node
    // — exactly what the skip contract forbids. The default ("poll me every
    // cycle") is the only exact answer for a workload with cross-node
    // coupling; the active-set lockstep test pins this.
}

#[cfg(test)]
mod tests {
    use super::*;
    use quarc_core::flit::TrafficClass;

    fn run(n: usize, cfg: CoherenceConfig, cycles: u64) -> Vec<MessageRequest> {
        let mut w = Coherence::new(n, cfg);
        let mut out = Vec::new();
        for now in 0..cycles {
            for node in 0..n {
                out.extend(w.poll(NodeId::new(node), now));
            }
        }
        out
    }

    #[test]
    fn generates_mixed_traffic() {
        let cfg = CoherenceConfig { request_rate: 0.1, ..Default::default() };
        let msgs = run(16, cfg, 10_000);
        let bc = msgs.iter().filter(|m| m.class == TrafficClass::Broadcast).count();
        let uc = msgs.iter().filter(|m| m.class == TrafficClass::Unicast).count();
        assert!(bc > 0, "no invalidations generated");
        assert!(uc > 0, "no fetch/data traffic generated");
        // Invalidate fraction ≈ write_frac * shared_frac = 6% of requests.
        let frac = bc as f64 / (bc + uc) as f64;
        assert!(frac < 0.5, "broadcasts dominate unexpectedly: {frac}");
    }

    #[test]
    fn responses_follow_requests() {
        let cfg = CoherenceConfig {
            request_rate: 0.2,
            write_frac: 0.0,
            miss_frac: 1.0,
            memory_delay: 5,
            ..Default::default()
        };
        let msgs = run(8, cfg, 4_000);
        // Every fetch (ctrl_len) eventually triggers a data response
        // (data_len). Because the run is long, counts must be within the
        // trailing window of each other.
        let fetches = msgs.iter().filter(|m| m.len == cfg.ctrl_len).count();
        let data = msgs.iter().filter(|m| m.len == cfg.data_len).count();
        assert!(fetches > 100);
        assert!(data > 0);
        assert!(data <= fetches);
        assert!(fetches - data < 32, "fetch {fetches} vs data {data}");
    }

    #[test]
    fn deterministic() {
        let cfg = CoherenceConfig { request_rate: 0.1, ..Default::default() };
        assert_eq!(run(8, cfg, 1000), run(8, cfg, 1000));
    }

    /// Every request and its poll cycle, folded into one FNV-1a digest over
    /// three memory delays. Every fetch goes home (`miss_frac` 1.0) at a
    /// rate that keeps several responses, some due in the same cycle,
    /// pending at a home at once, so the digest pins the order in which
    /// home queues release them.
    #[test]
    fn request_stream_is_pinned() {
        let mut h: u64 = 0xcbf2_9ce4_8422_2325;
        let mut fold = |word: u64| {
            for byte in word.to_le_bytes() {
                h = (h ^ u64::from(byte)).wrapping_mul(0x0000_0100_0000_01b3);
            }
        };
        let mut deepest = 0;
        for memory_delay in [0, 5, 20] {
            let cfg = CoherenceConfig {
                request_rate: 0.2,
                miss_frac: 1.0,
                memory_delay,
                ..Default::default()
            };
            let n = 16;
            let mut w = Coherence::new(n, cfg);
            for now in 0..5_000 {
                for node in 0..n {
                    for m in w.poll(NodeId::new(node), now) {
                        fold(now);
                        fold(m.src.index() as u64);
                        fold(m.dst.map_or(u64::MAX, |d| d.index() as u64));
                        fold(m.len as u64);
                        fold(m.class as u64);
                    }
                }
                deepest = deepest.max(w.responses.iter().map(|q| q.len()).max().unwrap());
            }
        }
        assert!(deepest >= 4, "home queues never held several responses: {deepest}");
        assert_eq!(h, 0xeb96_74e3_8062_e0f7);
    }

    #[test]
    fn check_names_the_broken_parameter() {
        let base = CoherenceConfig::default();
        assert_eq!(base.check(2), Ok(()));
        assert!(matches!(base.check(1), Err(ConfigError::BadNodeCount { n: 1, .. })));
        let cases = [
            ("request_rate", CoherenceConfig { request_rate: 1.5, ..base }),
            ("write_frac", CoherenceConfig { write_frac: -0.1, ..base }),
            ("shared_frac", CoherenceConfig { shared_frac: 2.0, ..base }),
            ("miss_frac", CoherenceConfig { miss_frac: f64::NAN, ..base }),
            ("lines", CoherenceConfig { lines: 0, ..base }),
            ("ctrl_len", CoherenceConfig { ctrl_len: 1, ..base }),
            ("data_len", CoherenceConfig { data_len: 0, ..base }),
        ];
        for (want, cfg) in cases {
            match cfg.check(16) {
                Err(ConfigError::BadParameter { name, .. }) => assert_eq!(name, want),
                other => panic!("{want}: {other:?}"),
            }
        }
    }

    #[test]
    fn new_panics_with_the_check_message() {
        let cfg = CoherenceConfig { lines: 0, ..Default::default() };
        let want = cfg.check(8).unwrap_err().to_string();
        let got = std::panic::catch_unwind(|| Coherence::new(8, cfg)).unwrap_err();
        assert_eq!(got.downcast_ref::<String>(), Some(&want));
    }

    #[test]
    fn never_sends_to_self() {
        let cfg = CoherenceConfig { request_rate: 0.3, miss_frac: 1.0, ..Default::default() };
        for m in run(4, cfg, 2000) {
            if let Some(dst) = m.dst {
                assert_ne!(dst, m.src);
            }
        }
    }
}
