//! Bursty (Markov-modulated on/off) traffic and bimodal message lengths.
//!
//! Real MPSoC traffic is burstier than a Bernoulli process — the paper
//! itself notes that the Spidergon's imbalance "is even exacerbated when the
//! network is under bursty traffic" (§1). This generator supplies that
//! stressor: each node alternates between an *on* state (injecting at
//! `peak_rate`) and an *off* state (silent), with geometrically distributed
//! dwell times; message lengths optionally alternate between short control
//! packets and long data packets, the classic request/response shape.

use crate::limits;
use crate::patterns::Pattern;
use crate::request::{MessageRequest, Workload};
use quarc_core::config::ConfigError;
use quarc_core::ids::NodeId;
use quarc_engine::{Cycle, DetRng};

/// Configuration of the bursty generator.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct BurstyConfig {
    /// Injection rate while a node is in the *on* state.
    pub peak_rate: f64,
    /// Mean dwell time of the on state, cycles.
    pub mean_on: f64,
    /// Mean dwell time of the off state, cycles.
    pub mean_off: f64,
    /// Fraction of messages that are broadcasts.
    pub broadcast_frac: f64,
    /// Short (control) message length in flits.
    pub short_len: usize,
    /// Long (data) message length in flits.
    pub long_len: usize,
    /// Probability a message is long.
    pub long_frac: f64,
    /// Destination pattern.
    pub pattern: Pattern,
    /// Master seed.
    pub seed: u64,
}

impl Default for BurstyConfig {
    fn default() -> Self {
        BurstyConfig {
            peak_rate: 0.2,
            mean_on: 50.0,
            mean_off: 200.0,
            broadcast_frac: 0.05,
            short_len: 2,
            long_len: 16,
            long_frac: 0.3,
            pattern: Pattern::Uniform,
            seed: 0xB00B5,
        }
    }
}

impl BurstyConfig {
    /// Check that this traffic can run on `nodes` nodes.
    pub fn check(&self, nodes: usize) -> Result<(), ConfigError> {
        limits::nodes(nodes)?;
        limits::rate("peak_rate", self.peak_rate)?;
        limits::require(self.mean_on >= 1.0, "mean_on", "must be at least 1 cycle")?;
        limits::require(self.mean_off >= 0.0, "mean_off", "must be at least 0 cycles")?;
        limits::dwell("mean_on", self.mean_on)?;
        limits::dwell("mean_off", self.mean_off)?;
        limits::fraction("broadcast_frac", self.broadcast_frac)?;
        limits::msg_len("short_len", self.short_len)?;
        limits::msg_len("long_len", self.long_len)?;
        limits::fraction("long_frac", self.long_frac)
    }

    /// Long-run average offered load (messages per node per cycle).
    fn mean_rate(&self) -> f64 {
        self.peak_rate * self.mean_on / (self.mean_on + self.mean_off)
    }
}

#[derive(Debug)]
struct NodeState {
    rng: DetRng,
    on: bool,
    /// Cycle at which the current on/off dwell ends.
    dwell_until: Cycle,
    next_arrival: Cycle,
}

/// The bursty on/off workload.
#[derive(Debug)]
pub struct Bursty {
    cfg: BurstyConfig,
    n: usize,
    nodes: Vec<NodeState>,
}

impl Bursty {
    /// Build for an `n`-node network. Panics where [`BurstyConfig::check`]
    /// fails.
    pub fn new(n: usize, cfg: BurstyConfig) -> Self {
        if let Err(e) = cfg.check(n) {
            panic!("{e}");
        }
        let master = DetRng::new(cfg.seed);
        let nodes = (0..n)
            .map(|i| {
                let mut rng = master.fork(i as u64);
                // Desynchronise: start each node in a random phase.
                let on = rng.chance(cfg.mean_on / (cfg.mean_on + cfg.mean_off));
                let dwell = 1 + rng.below(2 * cfg.mean_off.max(cfg.mean_on) as usize + 1) as u64;
                let next_arrival = rng.geometric_gap(cfg.peak_rate);
                NodeState { rng, on, dwell_until: dwell, next_arrival }
            })
            .collect();
        Bursty { cfg, n, nodes }
    }

    fn dwell(rng: &mut DetRng, mean: f64) -> u64 {
        if mean <= 1.0 {
            return 1;
        }
        rng.geometric_gap(1.0 / mean)
    }
}

impl Workload for Bursty {
    fn poll_into(&mut self, node: NodeId, now: Cycle, out: &mut Vec<MessageRequest>) {
        let cfg = self.cfg;
        let st = &mut self.nodes[node.index()];
        // Advance the on/off modulation.
        while now >= st.dwell_until {
            st.on = !st.on;
            let mean = if st.on { cfg.mean_on } else { cfg.mean_off };
            st.dwell_until += Self::dwell(&mut st.rng, mean);
            if st.on {
                // Fresh arrival schedule for the new burst.
                st.next_arrival = st.dwell_until.min(now + st.rng.geometric_gap(cfg.peak_rate));
            }
        }
        if !st.on || now < st.next_arrival {
            return;
        }
        st.next_arrival = now + st.rng.geometric_gap(cfg.peak_rate);
        let len = if st.rng.chance(cfg.long_frac) { cfg.long_len } else { cfg.short_len };
        let req = if st.rng.chance(cfg.broadcast_frac) {
            MessageRequest::broadcast(node, len)
        } else {
            let dst = cfg.pattern.pick(&mut st.rng, node, self.n);
            MessageRequest::unicast(node, dst, len)
        };
        out.push(req);
    }

    fn nominal_rate(&self) -> Option<f64> {
        Some(self.cfg.mean_rate())
    }

    fn next_due(&self, node: NodeId, _now: Cycle) -> Cycle {
        // Until the dwell boundary an off node does nothing, and an on node
        // does nothing before its next arrival; polls in between return
        // without touching the RNG, so skipping them is exact.
        let st = &self.nodes[node.index()];
        if st.on {
            st.dwell_until.min(st.next_arrival)
        } else {
            st.dwell_until
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use quarc_core::flit::TrafficClass;

    fn run(n: usize, cfg: BurstyConfig, cycles: u64) -> Vec<(Cycle, MessageRequest)> {
        let mut w = Bursty::new(n, cfg);
        let mut out = Vec::new();
        for now in 0..cycles {
            for node in 0..n {
                for m in w.poll(NodeId::new(node), now) {
                    out.push((now, m));
                }
            }
        }
        out
    }

    #[test]
    fn long_run_rate_matches_duty_cycle() {
        let cfg = BurstyConfig {
            peak_rate: 0.2,
            mean_on: 50.0,
            mean_off: 150.0,
            broadcast_frac: 0.0,
            ..Default::default()
        };
        let msgs = run(8, cfg, 100_000);
        let rate = msgs.len() as f64 / (8.0 * 100_000.0);
        let want = cfg.mean_rate(); // 0.2 * 50/200 = 0.05
        assert!(
            (rate - want).abs() / want < 0.15,
            "measured {rate:.4} vs duty-cycle rate {want:.4}"
        );
    }

    #[test]
    fn traffic_is_actually_bursty() {
        // Compare the variance of per-window message counts against a
        // Poisson-like process of the same mean: bursty traffic must be
        // over-dispersed (index of dispersion >> 1).
        let cfg = BurstyConfig {
            peak_rate: 0.5,
            mean_on: 40.0,
            mean_off: 360.0,
            broadcast_frac: 0.0,
            ..Default::default()
        };
        let msgs = run(4, cfg, 200_000);
        let window = 100u64;
        let mut counts = vec![0f64; (200_000 / window) as usize];
        for (t, _) in &msgs {
            counts[(*t / window) as usize] += 1.0;
        }
        let mean = counts.iter().sum::<f64>() / counts.len() as f64;
        let var =
            counts.iter().map(|c| (c - mean) * (c - mean)).sum::<f64>() / (counts.len() - 1) as f64;
        let dispersion = var / mean;
        assert!(dispersion > 2.0, "index of dispersion {dispersion:.2} not bursty");
    }

    #[test]
    fn bimodal_lengths() {
        let cfg = BurstyConfig {
            long_frac: 0.5,
            short_len: 2,
            long_len: 32,
            mean_off: 10.0,
            ..Default::default()
        };
        let msgs = run(8, cfg, 50_000);
        let short = msgs.iter().filter(|(_, m)| m.len == 2).count();
        let long = msgs.iter().filter(|(_, m)| m.len == 32).count();
        assert!(short > 0 && long > 0);
        let frac = long as f64 / (short + long) as f64;
        assert!((0.42..0.58).contains(&frac), "long fraction {frac}");
    }

    #[test]
    fn deterministic() {
        let cfg = BurstyConfig::default();
        assert_eq!(run(8, cfg, 5_000), run(8, cfg, 5_000));
    }

    #[test]
    fn check_names_the_broken_parameter() {
        let base = BurstyConfig::default();
        assert_eq!(base.check(2), Ok(()));
        assert!(matches!(base.check(1), Err(ConfigError::BadNodeCount { n: 1, .. })));
        let cases = [
            ("peak_rate", BurstyConfig { peak_rate: 0.0, ..base }),
            ("mean_on", BurstyConfig { mean_on: 0.5, ..base }),
            ("mean_off", BurstyConfig { mean_off: -1.0, ..base }),
            ("mean_off", BurstyConfig { mean_off: 1e19, ..base }),
            ("mean_off", BurstyConfig { mean_off: f64::INFINITY, ..base }),
            ("mean_on", BurstyConfig { mean_on: 1e19, ..base }),
            ("broadcast_frac", BurstyConfig { broadcast_frac: 1.5, ..base }),
            ("short_len", BurstyConfig { short_len: 1, ..base }),
            ("long_len", BurstyConfig { long_len: 0, ..base }),
            ("long_frac", BurstyConfig { long_frac: -0.1, ..base }),
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
        let cfg = BurstyConfig { mean_on: 0.0, ..Default::default() };
        let want = cfg.check(8).unwrap_err().to_string();
        let got = std::panic::catch_unwind(|| Bursty::new(8, cfg)).unwrap_err();
        assert_eq!(got.downcast_ref::<String>(), Some(&want));
    }

    #[test]
    fn produces_broadcasts_when_asked() {
        let cfg = BurstyConfig { broadcast_frac: 0.5, mean_off: 10.0, ..Default::default() };
        let msgs = run(8, cfg, 20_000);
        assert!(msgs.iter().any(|(_, m)| m.class == TrafficClass::Broadcast));
    }
}
