//! The paper's synthetic workload: per-node Bernoulli injection with uniform
//! destinations, a fixed message length `M` and a broadcast fraction `β`.
//!
//! The axes of Figs. 9–11 are exactly this generator's parameters: the
//! horizontal axis is `rate` (messages per node per cycle), the curves are
//! parameterised by `M` (8/16/32 flits), `N` and `β` (0/5/10%).

use crate::limits;
use crate::patterns::Pattern;
use crate::request::{MessageRequest, Workload};
use quarc_core::config::ConfigError;
use quarc_core::ids::NodeId;
use quarc_engine::{Cycle, DetRng};

/// Configuration of the synthetic generator.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct SyntheticConfig {
    /// Offered load: messages per node per cycle (Bernoulli per-cycle
    /// probability; arrivals are generated via geometric gaps).
    pub rate: f64,
    /// Message length in flits (header + bodies + tail).
    pub msg_len: usize,
    /// Fraction of messages that are broadcasts (the paper's `β`).
    pub broadcast_frac: f64,
    /// Destination pattern for the unicast share.
    pub pattern: Pattern,
    /// Master seed.
    pub seed: u64,
}

impl SyntheticConfig {
    /// The paper's default shape: uniform unicasts, given `rate`, `M`, `β`.
    pub fn paper(rate: f64, msg_len: usize, broadcast_frac: f64, seed: u64) -> Self {
        SyntheticConfig { rate, msg_len, broadcast_frac, pattern: Pattern::Uniform, seed }
    }

    /// Check that this traffic can run on `nodes` nodes.
    /// `quarc_sim::PointSpec::check` applies it to every simulation point.
    pub fn check(&self, nodes: usize) -> Result<(), ConfigError> {
        limits::nodes(nodes)?;
        limits::msg_len("msg_len", self.msg_len)?;
        limits::fraction("beta", self.broadcast_frac)?;
        // Checked last: `Synthetic::new` accepts a zero rate once the rest
        // holds.
        limits::rate("rate", self.rate)
    }
}

/// Per-node generator state.
#[derive(Debug)]
struct NodeState {
    rng: DetRng,
    next_arrival: Cycle,
}

/// The synthetic workload generator.
#[derive(Debug)]
pub struct Synthetic {
    cfg: SyntheticConfig,
    n: usize,
    /// Cached `ln(1 − rate)` — the constant denominator of every geometric
    /// gap draw (the gap itself stays bit-identical to
    /// [`DetRng::geometric_gap`], which recomputes it per draw).
    ln_one_minus_rate: f64,
    nodes: Vec<NodeState>,
}

impl Synthetic {
    /// Build a generator for an `n`-node network. Panics where
    /// [`SyntheticConfig::check`] fails, except on a zero rate: that builds
    /// a source that never fires.
    pub fn new(n: usize, cfg: SyntheticConfig) -> Self {
        match cfg.check(n) {
            Err(ConfigError::BadParameter { name: "rate", .. }) if cfg.rate == 0.0 => {}
            Err(e) => panic!("{e}"),
            Ok(()) => {}
        }
        let master = DetRng::new(cfg.seed);
        let nodes = (0..n)
            .map(|i| {
                let mut rng = master.fork(i as u64);
                // First arrival: sample a gap so that sources are desynchronised.
                let next_arrival =
                    if cfg.rate > 0.0 { rng.geometric_gap(cfg.rate) } else { Cycle::MAX };
                NodeState { rng, next_arrival }
            })
            .collect();
        Synthetic { cfg, n, ln_one_minus_rate: (1.0 - cfg.rate).ln(), nodes }
    }
}

/// [`DetRng::geometric_gap`] with the constant denominator hoisted out of
/// the per-arrival path. Bit-identical: same draw, same arithmetic.
#[inline]
fn gap_with(rng: &mut DetRng, rate: f64, ln_one_minus_rate: f64) -> Cycle {
    if rate >= 1.0 {
        return 1;
    }
    let u: f64 = rng.unit();
    let gap = (1.0 - u).ln() / ln_one_minus_rate;
    (gap.ceil() as u64).max(1)
}

impl Workload for Synthetic {
    fn poll_into(&mut self, node: NodeId, now: Cycle, out: &mut Vec<MessageRequest>) {
        let (rate, ln1mr) = (self.cfg.rate, self.ln_one_minus_rate);
        let st = &mut self.nodes[node.index()];
        if now < st.next_arrival {
            return;
        }
        // Bernoulli arrivals: at most one message per node per cycle.
        st.next_arrival = now + gap_with(&mut st.rng, rate, ln1mr);
        let req = if st.rng.chance(self.cfg.broadcast_frac) {
            MessageRequest::broadcast(node, self.cfg.msg_len)
        } else {
            let dst = self.cfg.pattern.pick(&mut st.rng, node, self.n);
            MessageRequest::unicast(node, dst, self.cfg.msg_len)
        };
        out.push(req);
    }

    fn nominal_rate(&self) -> Option<f64> {
        Some(self.cfg.rate)
    }

    fn next_due(&self, node: NodeId, _now: Cycle) -> Cycle {
        // Polls before the scheduled arrival return without touching the
        // RNG, so skipping them is exact.
        self.nodes[node.index()].next_arrival
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use quarc_core::flit::TrafficClass;

    fn run(n: usize, cfg: SyntheticConfig, cycles: u64) -> Vec<MessageRequest> {
        let mut w = Synthetic::new(n, cfg);
        let mut out = Vec::new();
        for now in 0..cycles {
            for node in 0..n {
                out.extend(w.poll(NodeId::new(node), now));
            }
        }
        out
    }

    #[test]
    fn rate_is_respected() {
        let cfg = SyntheticConfig::paper(0.02, 8, 0.0, 7);
        let msgs = run(16, cfg, 20_000);
        let per_node_per_cycle = msgs.len() as f64 / (16.0 * 20_000.0);
        assert!((per_node_per_cycle - 0.02).abs() < 0.002, "measured rate {per_node_per_cycle}");
    }

    #[test]
    fn beta_fraction_of_broadcasts() {
        let cfg = SyntheticConfig::paper(0.05, 8, 0.10, 11);
        let msgs = run(16, cfg, 20_000);
        let bc = msgs.iter().filter(|m| m.class == TrafficClass::Broadcast).count();
        let frac = bc as f64 / msgs.len() as f64;
        assert!((0.08..0.12).contains(&frac), "beta {frac}");
    }

    #[test]
    fn zero_rate_generates_nothing() {
        let cfg = SyntheticConfig::paper(0.0, 8, 0.0, 1);
        assert!(run(8, cfg, 1000).is_empty());
    }

    #[test]
    fn deterministic_across_runs() {
        let cfg = SyntheticConfig::paper(0.1, 16, 0.05, 99);
        let a = run(16, cfg, 500);
        let b = run(16, cfg, 500);
        assert_eq!(a, b);
    }

    #[test]
    fn different_seeds_differ() {
        let a = run(16, SyntheticConfig::paper(0.1, 16, 0.05, 1), 500);
        let b = run(16, SyntheticConfig::paper(0.1, 16, 0.05, 2), 500);
        assert_ne!(a, b);
    }

    #[test]
    fn messages_have_requested_length() {
        let cfg = SyntheticConfig::paper(0.1, 32, 0.5, 3);
        for m in run(8, cfg, 200) {
            assert_eq!(m.len, 32);
        }
    }

    #[test]
    fn nominal_rate_reported() {
        let w = Synthetic::new(8, SyntheticConfig::paper(0.07, 8, 0.0, 1));
        assert_eq!(w.nominal_rate(), Some(0.07));
    }

    #[test]
    fn rate_one_saturates_every_cycle() {
        let cfg = SyntheticConfig::paper(1.0, 2, 0.0, 5);
        let msgs = run(4, cfg, 100);
        // One message per node per cycle (after each node's first arrival at
        // cycle 1).
        assert_eq!(msgs.len(), 4 * 99);
    }
}
