//! Load sweeps: the latency-vs-injection-rate curves of Figs. 9–11.
//!
//! The unit of work is [`run_point`] — one fully-specified `(network,
//! workload, rate)` simulation. [`latency_curve`] walks a rate axis serially
//! with early saturation cut-off; `quarc-campaign` shards the same points
//! across worker threads, so any change to how a point is built or seeded
//! must keep `run_point` a pure function of its arguments.

use crate::driver::{
    run_mono_outcome_deadline, AnyNet, NocSim, RunOutcome, RunResult, RunSpec, StallDiagnostics,
};
use crate::fabric::Fabric;
use quarc_core::config::{ConfigError, NocConfig};
use quarc_core::topology::TopologyKind;
use quarc_engine::stats::LatencyHistogram;
use quarc_engine::Cycle;
use quarc_workloads::{Synthetic, SyntheticConfig};
use std::fmt;

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

/// Why a sweep point could not be simulated.
///
/// There are no "unsupported" parameter combinations any more — every
/// topology carries every traffic class — so the only way to reject a point
/// is a structurally invalid network configuration, surfaced as a typed
/// error instead of a downstream panic.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum PointError {
    /// The point's [`NocConfig`] failed validation.
    Config(ConfigError),
}

impl fmt::Display for PointError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            PointError::Config(e) => write!(f, "invalid point configuration: {e}"),
        }
    }
}

impl std::error::Error for PointError {}

impl From<ConfigError> for PointError {
    fn from(e: ConfigError) -> Self {
        PointError::Config(e)
    }
}

/// Parameters of one latency-vs-load curve.
#[derive(Debug, Clone, Copy)]
pub struct CurveSpec {
    /// Network configuration.
    pub noc: NocConfig,
    /// Message length in flits (the paper's `M`).
    pub msg_len: usize,
    /// Broadcast fraction (the paper's `β`).
    pub beta: f64,
    /// Workload seed.
    pub seed: u64,
}

/// One fully-specified simulation point: a [`CurveSpec`] pinned to a rate.
#[derive(Debug, Clone, Copy)]
pub struct PointSpec {
    /// Network configuration.
    pub noc: NocConfig,
    /// Message length in flits (the paper's `M`).
    pub msg_len: usize,
    /// Broadcast fraction (the paper's `β`).
    pub beta: f64,
    /// Workload seed.
    pub seed: u64,
    /// Offered load (messages/node/cycle).
    pub rate: f64,
}

impl CurveSpec {
    /// This curve's point at `rate`.
    pub fn at_rate(&self, rate: f64) -> PointSpec {
        PointSpec { noc: self.noc, msg_len: self.msg_len, beta: self.beta, seed: self.seed, rate }
    }
}

/// The outcome of one point: the run summary plus the measured latency
/// distributions, so replicated runs can pool histograms across seeds.
#[derive(Debug, Clone)]
pub struct PointOutcome {
    /// The run summary (what a figure plots).
    pub result: RunResult,
    /// Unicast latency distribution over the measurement window.
    pub unicast_hist: LatencyHistogram,
    /// Broadcast completion latency distribution.
    pub bcast_completion_hist: LatencyHistogram,
}

/// How one point's run protocol ended: cleanly, or cut short by the stall
/// watchdog ([`RunSpec::stall_window`]).
///
/// Campaign executors should treat `Stalled` as a quarantined result — the
/// partial outcome carries whatever was measured before the wedge plus the
/// watchdog's diagnostics, and must never enter the merge cache as if it
/// were a finished point.
#[derive(Debug, Clone)]
pub enum PointRunOutcome {
    /// The warmup/measure/drain protocol ran to completion.
    Finished(PointOutcome),
    /// The watchdog saw a full window with backlog and zero flit progress.
    Stalled {
        /// Cycle at which the stall was detected.
        cycle: Cycle,
        /// Occupancy snapshot for the stall report.
        diagnostics: StallDiagnostics,
        /// Summary of whatever completed before the wedge.
        partial: PointOutcome,
    },
    /// The cooperative wall-clock deadline passed to
    /// [`run_point_outcome_deadline`] expired mid-run. Campaign executors
    /// quarantine this as an over-budget failure; the partial outcome must
    /// never be cached.
    DeadlineExceeded {
        /// Cycle at which the deadline was noticed.
        cycle: Cycle,
        /// Summary of whatever completed before the cutoff.
        partial: PointOutcome,
    },
}

impl PointRunOutcome {
    /// Whether the run was cut short by the watchdog.
    pub fn is_stalled(&self) -> bool {
        matches!(self, PointRunOutcome::Stalled { .. })
    }

    /// The outcome, finished or partial.
    pub fn outcome(&self) -> &PointOutcome {
        match self {
            PointRunOutcome::Finished(o) => o,
            PointRunOutcome::Stalled { partial, .. } => partial,
            PointRunOutcome::DeadlineExceeded { partial, .. } => partial,
        }
    }

    /// The outcome, finished or partial, by value.
    pub fn into_outcome(self) -> PointOutcome {
        match self {
            PointRunOutcome::Finished(o) => o,
            PointRunOutcome::Stalled { partial, .. } => partial,
            PointRunOutcome::DeadlineExceeded { partial, .. } => partial,
        }
    }
}

/// Simulate one point: build the network, run the warmup/measure/drain
/// protocol, and return the summary plus latency distributions.
///
/// This is a pure function of `(point, run_spec)` — it seeds the workload
/// only from `point.seed` — which is what lets `quarc-campaign` run points on
/// any thread in any order and still produce bit-identical results.
///
/// Every topology (Quarc, Spidergon, mesh, torus) carries every traffic
/// class, so any `beta ∈ [0, 1]` is simulable; the only failure mode is a
/// structurally invalid configuration, returned as [`PointError`] instead of
/// panicking inside a network constructor.
///
/// A watchdog-stalled run (possible under fault plans that wedge the
/// network) collapses to its partial summary here; callers that must
/// distinguish a stall use [`run_point_outcome`].
pub fn run_point(point: &PointSpec, run_spec: &RunSpec) -> Result<PointOutcome, PointError> {
    run_point_outcome(point, run_spec).map(PointRunOutcome::into_outcome)
}

/// [`run_point`], but keeping the stall/finished distinction.
pub fn run_point_outcome(
    point: &PointSpec,
    run_spec: &RunSpec,
) -> Result<PointRunOutcome, PointError> {
    run_point_outcome_deadline(point, run_spec, None)
}

/// [`run_point_outcome`] with a cooperative wall-clock deadline, checked at
/// the stall watchdog's cadence — how a campaign's `--point-timeout` budget
/// reaches inside a replication instead of waiting for a batch boundary.
pub fn run_point_outcome_deadline(
    point: &PointSpec,
    run_spec: &RunSpec,
    deadline: Option<std::time::Instant>,
) -> Result<PointRunOutcome, PointError> {
    point.noc.validate()?;
    let mut net = build_any(point.noc);
    // Grid topologies round n up to a near-square; ask the network, not the
    // config.
    let n = net.num_nodes();
    let mut wl = Synthetic::new(
        n,
        SyntheticConfig::paper(point.rate, point.msg_len, point.beta, point.seed),
    );
    // Fully monomorphized inner loop: enum dispatch on the network, static
    // dispatch into the Synthetic workload.
    let outcome = run_mono_outcome_deadline(&mut net, &mut wl, run_spec, deadline);
    let m = net.metrics();
    let wrap = |result: RunResult| PointOutcome {
        result,
        unicast_hist: m.unicast_histogram().clone(),
        bcast_completion_hist: m.broadcast_completion_histogram().clone(),
    };
    Ok(match outcome {
        RunOutcome::Finished(result) => PointRunOutcome::Finished(wrap(result)),
        RunOutcome::Stalled { cycle, diagnostics, partial } => {
            PointRunOutcome::Stalled { cycle, diagnostics, partial: wrap(partial) }
        }
        RunOutcome::DeadlineExceeded { cycle, partial } => {
            PointRunOutcome::DeadlineExceeded { cycle, partial: wrap(partial) }
        }
    })
}

/// One measured curve point.
#[derive(Debug, Clone)]
pub struct CurvePoint {
    /// Offered load (messages/node/cycle).
    pub rate: f64,
    /// The full run summary.
    pub result: RunResult,
}

/// Measure the curve at each offered rate, stopping early once two
/// consecutive points saturate (the curve has gone vertical, as in the
/// paper's plots).
pub fn latency_curve(
    spec: &CurveSpec,
    rates: &[f64],
    run_spec: &RunSpec,
) -> Result<Vec<CurvePoint>, PointError> {
    let mut points = Vec::with_capacity(rates.len());
    let mut saturated_streak = 0;
    for &rate in rates {
        let outcome = run_point(&spec.at_rate(rate), run_spec)?;
        let is_sat = outcome.result.saturated;
        points.push(CurvePoint { rate, result: outcome.result });
        saturated_streak = if is_sat { saturated_streak + 1 } else { 0 };
        if saturated_streak >= 2 {
            break;
        }
    }
    Ok(points)
}

/// Render a curve as CSV (one row per point, run columns from
/// [`RunResult::csv_row`] plus the sweep parameters).
pub fn curve_csv(spec: &CurveSpec, points: &[CurvePoint]) -> String {
    let mut out = String::new();
    out.push_str("msg_len,beta,");
    out.push_str(RunResult::csv_header());
    out.push('\n');
    for p in points {
        out.push_str(&format!("{},{},{}\n", spec.msg_len, spec.beta, p.result.csv_row()));
    }
    out
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
    fn curve_stops_after_saturation() {
        let spec = CurveSpec { noc: NocConfig::quarc(8), msg_len: 8, beta: 0.0, seed: 1 };
        let run_spec = RunSpec { warmup: 200, measure: 1_500, drain: 1_500, ..Default::default() };
        // Include absurd rates; the sweep must cut off after two saturated
        // points rather than simulating them all.
        let rates = [0.005, 0.4, 0.5, 0.6, 0.7, 0.8];
        let points = latency_curve(&spec, &rates, &run_spec).unwrap();
        assert!(points.len() >= 2 && points.len() < rates.len(), "{}", points.len());
        assert!(!points[0].result.saturated);
    }

    #[test]
    fn csv_has_row_per_point() {
        let spec = CurveSpec { noc: NocConfig::quarc(8), msg_len: 4, beta: 0.0, seed: 2 };
        let run_spec = RunSpec { warmup: 100, measure: 800, drain: 800, ..Default::default() };
        let points = latency_curve(&spec, &[0.005, 0.01], &run_spec).unwrap();
        let csv = curve_csv(&spec, &points);
        assert_eq!(csv.lines().count(), 1 + points.len());
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
        let mut cfg = NocConfig::mesh(16);
        cfg.vcs = 1;
        let point = PointSpec { noc: cfg, msg_len: 8, beta: 0.05, seed: 5, rate: 0.01 };
        let run_spec = RunSpec { warmup: 200, measure: 2_000, drain: 4_000, ..Default::default() };
        let out = run_point(&point, &run_spec).unwrap();
        assert_eq!(out.result.kind, TopologyKind::Mesh);
        assert!(!out.result.saturated, "{:?}", out.result);
        assert!(out.result.unicast_samples > 50);
        assert!(out.result.bcast_samples > 0, "{:?}", out.result);
        assert_eq!(out.unicast_hist.count(), out.result.unicast_samples);
    }

    #[test]
    fn torus_point_runs_end_to_end() {
        let point =
            PointSpec { noc: NocConfig::torus(16), msg_len: 8, beta: 0.05, seed: 5, rate: 0.01 };
        let run_spec = RunSpec { warmup: 200, measure: 2_000, drain: 4_000, ..Default::default() };
        let out = run_point(&point, &run_spec).unwrap();
        assert_eq!(out.result.kind, TopologyKind::Torus);
        assert!(!out.result.saturated, "{:?}", out.result);
        assert!(out.result.unicast_samples > 50);
        assert!(out.result.bcast_samples > 0, "{:?}", out.result);
    }

    #[test]
    fn invalid_config_is_a_typed_error_not_a_panic() {
        let point =
            PointSpec { noc: NocConfig::quarc(18), msg_len: 8, beta: 0.0, seed: 1, rate: 0.01 };
        match run_point(&point, &RunSpec::quick()) {
            Err(PointError::Config(e)) => assert!(e.to_string().contains("18")),
            other => panic!("expected a config error, got {other:?}"),
        }
    }

    #[test]
    fn run_point_is_deterministic() {
        let point =
            PointSpec { noc: NocConfig::quarc(8), msg_len: 8, beta: 0.05, seed: 42, rate: 0.01 };
        let run_spec = RunSpec::quick();
        let a = run_point(&point, &run_spec).unwrap();
        let b = run_point(&point, &run_spec).unwrap();
        assert_eq!(a.result.unicast_mean, b.result.unicast_mean);
        assert_eq!(a.result.throughput, b.result.throughput);
        assert_eq!(a.unicast_hist.count(), b.unicast_hist.count());
        assert_eq!(a.unicast_hist.percentile(95.0), b.unicast_hist.percentile(95.0));
    }
}
