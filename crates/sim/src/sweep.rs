//! Load sweeps: the latency-vs-injection-rate curves of Figs. 9–11.
//!
//! The unit of work is [`run_point`]: one checked [`PointSpec`], a network
//! plus the traffic it carries, in; the protocol's [`RunOutcome`] out.
//! `quarc-campaign` shards points across worker threads, so any change to
//! how a point is built or seeded must keep `run_point` a pure function of
//! its arguments.

use crate::driver::{run_mono_outcome_deadline, AnyNet, NocSim, RunOutcome, RunSpec};
use crate::fabric::Fabric;
use quarc_core::config::{ConfigError, NocConfig};
use quarc_core::topology::TopologyKind;
use quarc_workloads::{Synthetic, SyntheticConfig};

/// Instantiate the simulator matching a configuration, enum-dispatched.
///
/// [`crate::run`] over an [`AnyNet`] monomorphizes the whole per-cycle loop
/// (one predictable match per cycle). Note the grid model rounds `cfg.n` up to a near-square node count —
/// size the workload from [`NocSim::num_nodes`], not from `cfg.n`. The
/// result is `Send`, so whole simulations can be handed to worker threads.
pub fn build_any(cfg: NocConfig) -> AnyNet {
    match cfg.kind {
        TopologyKind::Quarc => AnyNet::Quarc(Fabric::new(cfg)),
        TopologyKind::Spidergon => AnyNet::Spidergon(Fabric::new(cfg)),
        TopologyKind::Mesh | TopologyKind::Torus => AnyNet::Grid(Fabric::new(cfg)),
    }
}

/// One fully-specified simulation point.
#[derive(Debug, Clone, Copy)]
pub struct PointSpec {
    /// Network configuration.
    pub noc: NocConfig,
    /// Offered traffic: rate, `M`, `β`, destination pattern and seed.
    pub traffic: SyntheticConfig,
}

impl PointSpec {
    /// The check [`run_point`] applies: the network's structural rules, then
    /// the traffic's limits on that network.
    pub fn check(&self) -> Result<(), ConfigError> {
        self.noc.validate()?;
        self.traffic.check(self.noc.n)
    }
}

/// Simulate one point: build the network, run the warmup/measure/drain
/// protocol, and return how it ended.
///
/// This is a pure function of `(point, run_spec)` — it seeds the workload
/// only from `point.traffic.seed` — which is what lets `quarc-campaign` run
/// points on any thread in any order and still produce bit-identical results.
/// `deadline` is the cooperative wall-clock cutoff of
/// [`run_mono_outcome_deadline`] — how a campaign's `--point-timeout` budget
/// reaches inside a replication; it can end a run early, never move a
/// finished run's numbers.
///
/// Every topology (Quarc, Spidergon, mesh, torus) carries every traffic
/// class and every destination pattern, so the only failure mode is a point
/// that fails [`PointSpec::check`] or a protocol that fails
/// [`RunSpec::check`], returned as the [`ConfigError`] instead of panicking
/// inside a constructor or reporting a `NaN` throughput.
pub fn run_point(
    point: &PointSpec,
    run_spec: &RunSpec,
    deadline: Option<std::time::Instant>,
) -> Result<RunOutcome, ConfigError> {
    point.check()?;
    run_spec.check()?;
    let mut net = build_any(point.noc);
    // Grid topologies round n up to a near-square; ask the network, not the
    // config.
    let mut wl = Synthetic::new(net.num_nodes(), point.traffic);
    // Fully monomorphized inner loop: enum dispatch on the network, static
    // dispatch into the Synthetic workload.
    Ok(run_mono_outcome_deadline(&mut net, &mut wl, run_spec, deadline))
}

/// Geometrically spaced rates between `lo` and `hi` (inclusive), the usual
/// x-axis for latency/load plots.
pub fn geometric_rates(lo: f64, hi: f64, steps: usize) -> Vec<f64> {
    assert!(lo > 0.0 && hi > lo && steps >= 2);
    let ratio = (hi / lo).powf(1.0 / (steps - 1) as f64);
    (0..steps).map(|i| lo * ratio.powi(i as i32)).collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn geometric_rates_span_bounds() {
        let r = geometric_rates(0.001, 0.1, 5);
        assert_eq!(r.len(), 5);
        assert!((r[0] - 0.001).abs() < 1e-9);
        assert!((r[4] - 0.1).abs() < 1e-6);
        assert!(r.windows(2).all(|w| w[0] < w[1]));
    }

    #[test]
    fn build_network_matches_kind() {
        assert_eq!(build_any(NocConfig::quarc(8)).kind(), TopologyKind::Quarc);
        assert_eq!(build_any(NocConfig::spidergon(8)).kind(), TopologyKind::Spidergon);
        assert_eq!(build_any(NocConfig::mesh(16)).kind(), TopologyKind::Mesh);
        assert_eq!(build_any(NocConfig::torus(16)).kind(), TopologyKind::Torus);
    }

    #[test]
    fn mesh_point_runs_broadcast_traffic() {
        // Mesh × β > 0 used to be filtered upstream (and panicked if a point
        // slipped through); the multicast tree makes it an ordinary point.
        let point = PointSpec {
            noc: NocConfig::mesh(16),
            traffic: SyntheticConfig::paper(0.01, 8, 0.05, 5),
        };
        let run_spec = RunSpec { warmup: 200, measure: 2_000, drain: 4_000, ..Default::default() };
        let out = run_point(&point, &run_spec, None).unwrap();
        let RunOutcome::Finished(result) = &out else { panic!("{out:?}") };
        assert_eq!(result.kind, TopologyKind::Mesh);
        assert!(!result.saturated, "{result:?}");
        assert!(result.unicast_samples > 50);
        assert!(result.bcast_samples > 0, "{result:?}");
        assert_eq!(result.unicast_hist.count(), result.unicast_samples);
    }

    #[test]
    fn torus_point_runs_end_to_end() {
        let point = PointSpec {
            noc: NocConfig::torus(16),
            traffic: SyntheticConfig::paper(0.01, 8, 0.05, 5),
        };
        let run_spec = RunSpec { warmup: 200, measure: 2_000, drain: 4_000, ..Default::default() };
        let out = run_point(&point, &run_spec, None).unwrap();
        let RunOutcome::Finished(result) = &out else { panic!("{out:?}") };
        assert_eq!(result.kind, TopologyKind::Torus);
        assert!(!result.saturated, "{result:?}");
        assert!(result.unicast_samples > 50);
        assert!(result.bcast_samples > 0, "{result:?}");
    }

    #[test]
    fn arbitration_policy_reaches_every_topology() {
        use quarc_core::config::ArbPolicy;
        // The output arbiters used to read the policy only on Quarc: `fp`
        // ran as `rr` everywhere else.
        for noc in [
            NocConfig::quarc(16),
            NocConfig::spidergon(16),
            NocConfig::mesh(16),
            NocConfig::torus(16),
        ] {
            let run = |arb| {
                let traffic = SyntheticConfig::paper(0.03, 8, 0.05, 7);
                let point = PointSpec { noc: noc.with_arb(arb), traffic };
                let out = run_point(&point, &RunSpec::quick(), None).unwrap();
                let r = out.result();
                (r.unicast_mean, r.bcast_completion_mean, r.throughput)
            };
            let (rr, fp) = (run(ArbPolicy::RoundRobin), run(ArbPolicy::FixedPriority));
            assert_ne!(rr, fp, "{}: fp ran as rr", noc.kind);
        }
    }

    #[test]
    fn invalid_config_is_a_typed_error_not_a_panic() {
        let point = PointSpec {
            noc: NocConfig::quarc(18),
            traffic: SyntheticConfig::paper(0.01, 8, 0.0, 1),
        };
        match run_point(&point, &RunSpec::quick(), None) {
            Err(e) => assert!(e.to_string().contains("18")),
            Ok(out) => panic!("expected a config error, got {out:?}"),
        }
        // An empty measurement window used to report a NaN throughput.
        let point = PointSpec { noc: NocConfig::quarc(8), ..point };
        let empty = RunSpec { measure: 0, ..RunSpec::quick() };
        match run_point(&point, &empty, None) {
            Err(e) => assert!(e.to_string().contains("measure"), "{e}"),
            Ok(out) => panic!("expected a config error, got {out:?}"),
        }
    }

    #[test]
    fn bad_traffic_is_a_typed_error_not_a_panic() {
        // Rate 1.5 used to run as rate 1, and `msg_len` 1 to panic in the
        // workload constructor.
        let ok = SyntheticConfig::paper(0.01, 8, 0.0, 1);
        for (noc, traffic, what) in [
            (NocConfig::quarc(8), SyntheticConfig { rate: 1.5, ..ok }, "(0, 1]"),
            (NocConfig::quarc(8), SyntheticConfig { msg_len: 1, ..ok }, "msg_len"),
            (NocConfig::quarc(8), SyntheticConfig { broadcast_frac: 1.5, ..ok }, "beta"),
            (NocConfig::mesh(1), ok, "two nodes"),
        ] {
            match run_point(&PointSpec { noc, traffic }, &RunSpec::quick(), None) {
                Err(e) => assert!(e.to_string().contains(what), "{e}"),
                Ok(out) => panic!("expected a config error for {traffic:?}, got {out:?}"),
            }
        }
    }

    #[test]
    fn run_point_is_deterministic() {
        let point = PointSpec {
            noc: NocConfig::quarc(8),
            traffic: SyntheticConfig::paper(0.01, 8, 0.05, 42),
        };
        let run_spec = RunSpec::quick();
        let a = run_point(&point, &run_spec, None).unwrap().into_result();
        let b = run_point(&point, &run_spec, None).unwrap().into_result();
        assert_eq!(a.unicast_mean, b.unicast_mean);
        assert_eq!(a.throughput, b.throughput);
        assert_eq!(a.unicast_hist.count(), b.unicast_hist.count());
        assert_eq!(a.unicast_p95(), b.unicast_p95());
    }
}
