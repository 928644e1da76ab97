//! Replication: running one point under several independent seeds and
//! merging the outcomes into means with confidence intervals — incrementally.
//!
//! The unit of storage is the **replication series**: one [`RepOutcome`] per
//! seed, in replication-index order. Everything else is a pure function of a
//! series prefix: [`merge_series`] folds replications `0..n` into a
//! [`MergedRun`] (across-replication spread via [`OnlineStats`], pooled
//! latency *distributions* via [`LatencyHistogram::merge`]), and [`decide`]
//! picks `n` — exactly `replications` for a fixed protocol, or the smallest
//! prefix meeting a [`CiTarget`] under convergence control. Because the
//! reported prefix is chosen by scanning from the start, a point that was
//! over-simulated (a cached series longer than needed, or a batch that
//! overshot the target) still reports the same `n` — which is what keeps
//! campaigns bit-identical across batch schedules, worker counts and cache
//! states.
//!
//! A replication is the [`quarc_sim::RunResult`] of a finished run, latency
//! histograms included; [`extend_series`] hands a stalled or cut-off
//! [`RunOutcome`] back to its caller with the replication's index, and the
//! point is quarantined.
//!
//! Replication seeds are drawn from per-point [`DetRng::fork`] substreams
//! keyed by the point's *merge hash* — a pure function of the point's
//! physical parameters (never of the replication protocol), so replication
//! `i` always runs under the same seed and a stored series can be resumed,
//! topped up, or truncated to a prefix without invalidating a single run.

use crate::json::{read_fields, record, Decode, Encode, Parsed, Reader, Writer};
use crate::spec::{CiTarget, ReplicationPolicy};
use quarc_engine::stats::{LatencyHistogram, OnlineStats};
use quarc_engine::DetRng;
use quarc_sim::{run_point, PointSpec, RunOutcome, RunSpec};
use std::time::Instant;

/// Two-sided 95% Student-t quantiles for ν = n − 1 degrees of freedom
/// (ν > 30 uses the normal 1.96).
fn t95(df: u32) -> f64 {
    const TABLE: [f64; 30] = [
        12.706, 4.303, 3.182, 2.776, 2.571, 2.447, 2.365, 2.306, 2.262, 2.228, 2.201, 2.179, 2.160,
        2.145, 2.131, 2.120, 2.110, 2.101, 2.093, 2.086, 2.080, 2.074, 2.069, 2.064, 2.060, 2.056,
        2.052, 2.048, 2.045, 2.042,
    ];
    if df == 0 {
        f64::NAN
    } else if df <= 30 {
        TABLE[(df - 1) as usize]
    } else {
        1.96
    }
}

/// The convergence verdict of a reported replication prefix.
///
/// Serialised into artifacts as `true` / `false` /
/// `"abandoned-saturated"`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Converged {
    /// The protocol's CI target was met at the reported prefix (vacuously
    /// true for fixed-replication protocols).
    Yes,
    /// The convergence cap was hit without meeting the target.
    No,
    /// The replication budget was abandoned early because the *saturation
    /// verdict itself* was already stable: every replication of the
    /// reported prefix saturated, so further replications would only
    /// re-measure queueing noise past the knee (their latency CIs never
    /// tighten). The reported prefix is the smallest all-saturated prefix
    /// of length ≥ `min_reps` — a pure function of the series, so cache
    /// state, batch size and worker count cannot move it.
    AbandonedSaturated,
}

/// `true` / `false` / `"abandoned-saturated"`.
impl Encode for Converged {
    fn write(&self, w: &mut Writer) {
        match self {
            Converged::Yes => w.bool(true),
            Converged::No => w.bool(false),
            Converged::AbandonedSaturated => w.str("abandoned-saturated"),
        };
    }
}

impl std::fmt::Display for Converged {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            Converged::Yes => write!(f, "true"),
            Converged::No => write!(f, "false"),
            Converged::AbandonedSaturated => write!(f, "abandoned-saturated"),
        }
    }
}

/// A mean over replications with a 95% confidence half-width.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct MeanCi {
    /// Across-replication mean.
    pub mean: f64,
    /// 95% confidence half-width (0 for a single replication).
    pub ci95: f64,
    /// Number of replications that contributed.
    pub n: u32,
}

impl MeanCi {
    fn from_stats(stats: &OnlineStats) -> MeanCi {
        let n = stats.count() as u32;
        let ci95 = if n >= 2 { t95(n - 1) * stats.std_dev() / (n as f64).sqrt() } else { 0.0 };
        MeanCi { mean: stats.mean(), ci95, n }
    }

    /// Whether this metric's half-width meets `target`.
    ///
    /// A relative target compares against the metric's own mean, so a
    /// metric that is identically zero across replications (broadcast
    /// latencies at β = 0) is converged by definition — zero half-width
    /// against a zero mean.
    pub fn meets(&self, target: CiTarget) -> bool {
        match target {
            CiTarget::Abs(w) => self.ci95 <= w,
            CiTarget::Rel(r) => self.ci95 <= r * self.mean.abs(),
        }
    }
}

record!(encode MeanCi { mean, ci95, n });

/// The outcome of one replication of one fixed-rate point: the per-seed
/// samples the across-replication statistics are built from, plus the
/// latency distributions pooled into percentile estimates.
///
/// This is what the result cache stores (per point, as an ordered series) —
/// summaries can always be recomputed from it, for any prefix, bit-exactly.
#[derive(Debug, Clone, PartialEq)]
pub struct RepOutcome {
    /// Mean unicast latency of this replication (cycles).
    pub unicast_mean: f64,
    /// Mean broadcast reception latency.
    pub bcast_reception_mean: f64,
    /// Mean broadcast completion latency.
    pub bcast_completion_mean: f64,
    /// Delivered flits per node per cycle.
    pub throughput: f64,
    /// Unicast latency distribution over the measurement window.
    pub unicast_hist: LatencyHistogram,
    /// Broadcast completion latency distribution.
    pub bcast_hist: LatencyHistogram,
    /// Whether this replication hit a saturation criterion.
    pub saturated: bool,
    /// Fraction of expected receiver deliveries that happened (1.0 on
    /// fault-free runs; the headline robustness number under faults).
    pub delivered_fraction: f64,
    /// Messages retired with at least one receiver lost to a fault.
    pub undeliverable: u64,
    /// Recovery-layer retransmissions issued (0 with recovery disabled).
    pub retransmissions: u64,
    /// Receivers first served by a retransmitted copy.
    pub recovered_receivers: u64,
}

// The cache's form of a replication. Every field is required: the `v4`/`v5`
// merge-key bumps retired every entry older than the fault- and
// recovery-accounting fields, so a replication missing them is corrupt.
record!(RepOutcome {
    unicast_mean,
    bcast_reception_mean,
    bcast_completion_mean,
    throughput,
    saturated,
    delivered_fraction,
    undeliverable,
    retransmissions,
    recovered_receivers,
    unicast_hist,
    bcast_hist,
});

/// Sparse buckets (almost all of the 65 are empty) as `[index, count]`
/// pairs, and the exact value sum, which may exceed `u64`, as a decimal
/// string.
impl Encode for LatencyHistogram {
    fn write(&self, w: &mut Writer) {
        w.open('{').key("buckets").open('[');
        for (k, &c) in self.bucket_counts().iter().enumerate().filter(|(_, &c)| c > 0) {
            w.open('[').u64(k as u64).u64(c).close(']');
        }
        w.close(']').key("total").display(self.total()).close('}');
    }
}

impl Decode for LatencyHistogram {
    fn decode(r: &mut Reader<'_>) -> Parsed<Self> {
        read_fields!(r {
            buckets: |r| {
                let mut buckets = [0u64; 65];
                r.array(|r| {
                    let (mut pair, mut len) = ([0; 2], 0);
                    r.array(|r| {
                        let slot =
                            pair.get_mut(len).ok_or_else(|| r.error("bucket is not a pair"))?;
                        *slot = r.u64()?;
                        len += 1;
                        Ok(())
                    })?;
                    let bucket = usize::try_from(pair[0]).ok().filter(|_| len == 2);
                    let slot = bucket.and_then(|k| buckets.get_mut(k));
                    *slot.ok_or_else(|| r.error("bad bucket"))? = pair[1];
                    Ok(())
                })?;
                Ok(buckets)
            },
            total: |r| r.str()?.parse().map_err(|_| r.error("bad histogram total")),
        });
        Ok(LatencyHistogram::from_parts(buckets, total))
    }
}

/// The merged outcome of a replication-series prefix of one fixed-rate point.
#[derive(Debug, Clone, PartialEq)]
pub struct MergedRun {
    /// Replications merged (the reported prefix length `n`).
    pub reps: u32,
    /// Mean unicast latency (cycles).
    pub unicast_mean: MeanCi,
    /// Mean broadcast reception latency.
    pub bcast_reception_mean: MeanCi,
    /// Mean broadcast completion latency.
    pub bcast_completion_mean: MeanCi,
    /// Delivered flits per node per cycle.
    pub throughput: MeanCi,
    /// 95th-percentile unicast latency from the pooled histogram.
    pub unicast_p95: Option<u64>,
    /// 95th-percentile broadcast completion latency from the pooled histogram.
    pub bcast_completion_p95: Option<u64>,
    /// Pooled unicast sample count.
    pub unicast_samples: u64,
    /// Pooled broadcast-completion sample count.
    pub bcast_samples: u64,
    /// How many replications hit a saturation criterion.
    pub saturated_reps: u32,
    /// Majority verdict.
    pub saturated: bool,
    /// Mean delivered fraction across replications (1.0 without faults).
    /// Summarised, never convergence-gated: a fault plan makes it a
    /// near-constant, a healthy plan makes it exactly 1.0.
    pub delivered_fraction: MeanCi,
    /// Messages retired undeliverable, summed over replications.
    pub undeliverable: u64,
    /// Recovery-layer retransmissions, summed over replications (0 with
    /// recovery disabled).
    pub retransmissions: u64,
    /// Receivers first served by a retransmitted copy, summed over
    /// replications.
    pub recovered_receivers: u64,
    /// Whether the replication protocol's CI target was met: the policy's
    /// half-width target for convergent campaigns (achieved half-widths are
    /// the `ci95` fields), vacuously met for fixed-replication ones — or
    /// [`Converged::AbandonedSaturated`] when the saturation early-abandon
    /// rule stopped the point first.
    pub converged: Converged,
}

record!(encode MergedRun {
    reps, unicast_mean, bcast_reception_mean, bcast_completion_mean, throughput, unicast_p95,
    bcast_completion_p95, unicast_samples, bcast_samples, saturated_reps, saturated,
    delivered_fraction, undeliverable, retransmissions, recovered_receivers, converged,
});

/// The workload seed for replication `rep` of the point whose merge hash
/// is `point_stream`, under master seed `base_seed`.
///
/// Pure function of its arguments: campaign-level determinism rests here.
pub fn replication_seed(base_seed: u64, point_stream: u64, rep: u32) -> u64 {
    DetRng::new(base_seed).fork(point_stream).fork(rep as u64).next_u64()
}

/// Simulate replications `series.len()..upto` of `template` (its
/// `traffic.seed` is overwritten per replication) and append them to `series`.
///
/// Appending is the only mutation a series ever sees, so any interleaving of
/// cache loads and top-up batches yields the same outcome at every index. A
/// stalled or over-deadline replication stops the extension and is returned,
/// with its replication index, instead of masquerading as a saturated
/// sample; `None` means the series reached `upto`.
///
/// The series keeps every replication completed *before* the interrupt —
/// those are valid outcomes, safe to persist and to resume from. The
/// interrupted replication itself contributes nothing: its partial numbers
/// describe a wedged (or cut-off) network, not the configured workload, so
/// the point is quarantined rather than cached.
///
/// `deadline` is the campaign's remaining per-point wall-clock budget as an
/// absolute instant; `None` runs unbounded. It is checked cooperatively at
/// the stall watchdog's cadence inside each replication, so one over-budget
/// replication yields mid-run instead of pinning a worker to completion.
pub fn extend_series(
    series: &mut Vec<RepOutcome>,
    template: &PointSpec,
    run_spec: &RunSpec,
    base_seed: u64,
    point_stream: u64,
    upto: u32,
    deadline: Option<Instant>,
) -> Option<(u32, RunOutcome)> {
    for rep in series.len() as u32..upto {
        let mut point = *template;
        point.traffic.seed = replication_seed(base_seed, point_stream, rep);
        // Campaign points are validated at expansion, so a config error here
        // is a programming error, not an input error.
        match run_point(&point, run_spec, deadline).expect("expansion validated this configuration")
        {
            RunOutcome::Finished(r) => series.push(RepOutcome {
                unicast_mean: r.unicast_mean,
                bcast_reception_mean: r.bcast_reception_mean,
                bcast_completion_mean: r.bcast_completion_mean,
                throughput: r.throughput,
                saturated: r.saturated,
                delivered_fraction: r.delivered_fraction,
                undeliverable: r.undeliverable,
                retransmissions: r.retransmissions,
                recovered_receivers: r.recovered_receivers,
                unicast_hist: r.unicast_hist,
                bcast_hist: r.bcast_completion_hist,
            }),
            interrupt => return Some((rep, interrupt)),
        }
    }
    None
}

/// What [`decide`] concluded about a replication series.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Decision {
    /// The series is long enough: report the prefix `0..n`.
    Ready {
        /// The canonical prefix length to merge and report.
        n: u32,
        /// The verdict at `n`: target met (always, for fixed protocols),
        /// capped without converging, or abandoned on a stable saturation
        /// verdict.
        converged: Converged,
    },
    /// More replications are needed; grow the series to `upto` and ask
    /// again.
    NeedMore {
        /// Target series length for the next batch.
        upto: u32,
    },
}

/// Fold one replication into the tracked metrics — the one place their
/// list and order are written. [`decide`] needs every one of them to meet
/// the convergence target; [`merge_series`] reports them in this order.
fn push_tracked(stats: &mut [OnlineStats; 4], rep: &RepOutcome) {
    stats[0].push(rep.unicast_mean);
    stats[1].push(rep.bcast_reception_mean);
    stats[2].push(rep.bcast_completion_mean);
    stats[3].push(rep.throughput);
}

/// Apply the replication protocol to a (possibly partial) series: the
/// **canonical stopping rule**.
///
/// For [`ReplicationPolicy::Converge`], the reported prefix is the smallest
/// `n ∈ [min_reps, max_reps]` whose prefix merge meets the target — found by
/// scanning from `min_reps` upward, so the answer never depends on how the
/// series got its length (cache, batch size, worker count). `batch` sizes
/// only the *next request* when the series is still too short; it is an
/// execution knob that cannot move a reported number.
pub fn decide(policy: &ReplicationPolicy, reps: &[RepOutcome], batch: u32) -> Decision {
    let have = reps.len() as u32;
    match *policy {
        ReplicationPolicy::Fixed(n) => {
            if have >= n {
                Decision::Ready { n, converged: Converged::Yes }
            } else {
                Decision::NeedMore { upto: n }
            }
        }
        ReplicationPolicy::Converge { min_reps, target, max_reps } => {
            // One replication has no variance estimate; `CampaignSpec`
            // validation enforces this, the clamp covers direct callers.
            let min_reps = min_reps.max(2);
            let scan_to = have.min(max_reps);
            let mut stats = [(); 4].map(|()| OnlineStats::new());
            let mut all_saturated = true;
            for n in 1..=scan_to {
                let rep = &reps[n as usize - 1];
                push_tracked(&mut stats, rep);
                all_saturated = all_saturated && rep.saturated;
                if n < min_reps {
                    continue;
                }
                if stats.iter().all(|s| MeanCi::from_stats(s).meets(target)) {
                    return Decision::Ready { n, converged: Converged::Yes };
                }
                // Early abandon (ROADMAP): once the saturation verdict is
                // unanimous over a full prefix, the point is past the knee
                // and its latency CIs will never tighten — stop spending
                // replications on it. Prefix-pure: the answer is the
                // smallest all-saturated prefix ≥ min_reps, independent of
                // how the series got its length.
                if all_saturated {
                    return Decision::Ready { n, converged: Converged::AbandonedSaturated };
                }
            }
            if have >= max_reps {
                Decision::Ready { n: max_reps, converged: Converged::No }
            } else {
                // Grow to min_reps first (the earliest possible checkpoint),
                // then one batch at a time. Never jumping past an unreached
                // checkpoint keeps warm-started (cached) points on the same
                // batch trajectory as cold ones once they pass min_reps.
                let upto =
                    if have < min_reps { min_reps } else { have.saturating_add(batch.max(1)) };
                Decision::NeedMore { upto: max_reps.min(upto) }
            }
        }
    }
}

/// Merge the prefix `0..n` of a replication series into a [`MergedRun`],
/// folding replications in index order (bit-exact for any series that agrees
/// on the prefix).
pub fn merge_series(reps: &[RepOutcome], n: u32, converged: Converged) -> MergedRun {
    assert!(n >= 1 && (n as usize) <= reps.len());
    let mut tracked = [(); 4].map(|()| OnlineStats::new());
    let mut delivered = OnlineStats::new();
    let mut pooled_unicast = LatencyHistogram::new();
    let mut pooled_bcast = LatencyHistogram::new();
    let mut saturated_reps = 0;
    let mut undeliverable = 0;
    let mut retransmissions = 0;
    let mut recovered_receivers = 0;
    for rep in &reps[..n as usize] {
        push_tracked(&mut tracked, rep);
        delivered.push(rep.delivered_fraction);
        pooled_unicast.merge(&rep.unicast_hist);
        pooled_bcast.merge(&rep.bcast_hist);
        saturated_reps += u32::from(rep.saturated);
        undeliverable += rep.undeliverable;
        retransmissions += rep.retransmissions;
        recovered_receivers += rep.recovered_receivers;
    }
    MergedRun {
        reps: n,
        unicast_mean: MeanCi::from_stats(&tracked[0]),
        bcast_reception_mean: MeanCi::from_stats(&tracked[1]),
        bcast_completion_mean: MeanCi::from_stats(&tracked[2]),
        throughput: MeanCi::from_stats(&tracked[3]),
        unicast_p95: pooled_unicast.percentile(95.0),
        bcast_completion_p95: pooled_bcast.percentile(95.0),
        unicast_samples: pooled_unicast.count(),
        bcast_samples: pooled_bcast.count(),
        saturated_reps,
        saturated: saturated_reps * 2 > n,
        delivered_fraction: MeanCi::from_stats(&delivered),
        undeliverable,
        retransmissions,
        recovered_receivers,
        converged,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use quarc_core::config::NocConfig;
    use quarc_workloads::SyntheticConfig;

    fn pretty(value: &impl Encode) -> String {
        let mut w = Writer::pretty(0);
        value.write(&mut w);
        w.finish()
    }

    fn template() -> PointSpec {
        PointSpec { noc: NocConfig::quarc(8), traffic: SyntheticConfig::paper(0.01, 4, 0.05, 0) }
    }

    fn quick() -> RunSpec {
        RunSpec { warmup: 200, measure: 1_500, drain: 3_000, ..Default::default() }
    }

    /// Grow `series` to `upto` replications of the template; healthy runs
    /// never interrupt.
    fn extend(series: &mut Vec<RepOutcome>, upto: u32) {
        assert!(extend_series(series, &template(), &quick(), 7, 11, upto, None).is_none());
    }

    /// A fresh series of `reps` replications, merged whole.
    fn replicated(reps: u32) -> MergedRun {
        let mut series = Vec::new();
        extend(&mut series, reps);
        merge_series(&series, reps, Converged::Yes)
    }

    #[test]
    fn replication_seeds_are_stable_and_distinct() {
        let a = replication_seed(1, 99, 0);
        assert_eq!(a, replication_seed(1, 99, 0));
        assert_ne!(a, replication_seed(1, 99, 1));
        assert_ne!(a, replication_seed(1, 98, 0));
        assert_ne!(a, replication_seed(2, 99, 0));
    }

    #[test]
    fn merge_pools_samples_and_bounds_ci() {
        let merged = replicated(3);
        assert_eq!(merged.reps, 3);
        assert_eq!(merged.unicast_mean.n, 3);
        assert!(merged.unicast_mean.mean > 0.0);
        assert!(merged.unicast_mean.ci95 >= 0.0);
        assert!(merged.unicast_samples > 100);
        assert!(merged.unicast_p95.is_some());
        assert!(!merged.saturated);
        assert_eq!(merged.converged, Converged::Yes);
        // Fault-free replications deliver everything, with zero spread.
        assert_eq!(merged.delivered_fraction, MeanCi { mean: 1.0, ci95: 0.0, n: 3 });
        assert_eq!(merged.undeliverable, 0);
        // And with recovery off, no retransmission machinery ever engages.
        assert_eq!(merged.retransmissions, 0);
        assert_eq!(merged.recovered_receivers, 0);
    }

    #[test]
    fn single_replication_has_zero_ci() {
        let merged = replicated(1);
        assert_eq!(merged.unicast_mean.ci95, 0.0);
        assert_eq!(merged.unicast_mean.n, 1);
    }

    #[test]
    fn rep_outcome_json_roundtrip_is_bit_exact() {
        let mut series = Vec::new();
        extend(&mut series, 2);
        for rep in &series {
            let text = pretty(rep);
            let back = RepOutcome::decode(&mut Reader::new(&text)).unwrap();
            // Bit-exactness here is what lets a topped-up cached series
            // merge identically to a never-persisted one.
            assert_eq!(&back, rep);
        }
    }

    #[test]
    fn extend_series_resumes_identically() {
        // 1 + 2 + 1 replications in three calls == 4 in one call: batching
        // cannot move a sample.
        let mut batched = Vec::new();
        extend(&mut batched, 1);
        extend(&mut batched, 3);
        extend(&mut batched, 4);
        let mut oneshot = Vec::new();
        extend(&mut oneshot, 4);
        assert_eq!(batched, oneshot);
        // And a round-trip through JSON mid-way changes nothing either.
        let mut resumed: Vec<RepOutcome> = batched[..2]
            .iter()
            .map(|r| RepOutcome::decode(&mut Reader::new(&pretty(r))).unwrap())
            .collect();
        extend(&mut resumed, 4);
        assert_eq!(resumed, oneshot);
    }

    #[test]
    fn merge_series_prefix_matches_a_shorter_series() {
        let mut series = Vec::new();
        extend(&mut series, 5);
        for n in 1..=5u32 {
            assert_eq!(merge_series(&series, n, Converged::Yes), replicated(n), "prefix {n}");
        }
    }

    fn constant_rep(latency: f64, throughput: f64) -> RepOutcome {
        RepOutcome {
            unicast_mean: latency,
            bcast_reception_mean: 0.0,
            bcast_completion_mean: 0.0,
            throughput,
            unicast_hist: LatencyHistogram::new(),
            bcast_hist: LatencyHistogram::new(),
            saturated: false,
            delivered_fraction: 1.0,
            undeliverable: 0,
            retransmissions: 0,
            recovered_receivers: 0,
        }
    }

    #[test]
    fn decide_fixed_protocol() {
        let series = vec![constant_rep(10.0, 0.1); 3];
        let policy = ReplicationPolicy::Fixed(5);
        assert_eq!(decide(&policy, &series, 4), Decision::NeedMore { upto: 5 });
        let series = vec![constant_rep(10.0, 0.1); 8];
        // An over-long series (cached by a larger campaign) reports the
        // requested prefix, not everything available.
        assert_eq!(
            decide(&policy, &series, 4),
            Decision::Ready { n: 5, converged: Converged::Yes }
        );
    }

    #[test]
    fn decide_converges_at_smallest_satisfying_prefix() {
        let policy =
            ReplicationPolicy::Converge { min_reps: 2, target: CiTarget::Rel(0.05), max_reps: 16 };
        // Identical replications: zero variance, converged at min_reps —
        // regardless of how many extra replications the series carries.
        for len in [2usize, 3, 9] {
            let series = vec![constant_rep(20.0, 0.1); len];
            assert_eq!(
                decide(&policy, &series, 4),
                Decision::Ready { n: 2, converged: Converged::Yes },
                "series length {len}"
            );
        }
        // High-variance prefix: not converged, ask for one more batch.
        let series = vec![constant_rep(10.0, 0.1), constant_rep(30.0, 0.1)];
        assert_eq!(decide(&policy, &series, 4), Decision::NeedMore { upto: 6 });
        // The batch request never overshoots the cap.
        assert_eq!(decide(&policy, &series, 100), Decision::NeedMore { upto: 16 });
    }

    #[test]
    fn decide_caps_at_max_reps_unconverged() {
        let policy =
            ReplicationPolicy::Converge { min_reps: 2, target: CiTarget::Rel(0.001), max_reps: 4 };
        let noisy: Vec<RepOutcome> =
            [10.0, 30.0, 12.0, 28.0, 11.0].iter().map(|&l| constant_rep(l, 0.1)).collect();
        // At (or beyond) the cap with no satisfying prefix: report the cap,
        // unconverged — and ignore replications past it.
        assert_eq!(
            decide(&policy, &noisy[..4], 4),
            Decision::Ready { n: 4, converged: Converged::No }
        );
        assert_eq!(decide(&policy, &noisy, 4), Decision::Ready { n: 4, converged: Converged::No });
        assert_eq!(decide(&policy, &noisy[..2], 1), Decision::NeedMore { upto: 3 });
    }

    fn saturated_rep(latency: f64) -> RepOutcome {
        RepOutcome { saturated: true, ..constant_rep(latency, 0.01) }
    }

    #[test]
    fn decide_abandons_stable_saturation_verdicts_early() {
        // Saturated replications never tighten their latency CIs; once the
        // verdict is unanimous over a min_reps-long prefix, the point stops
        // burning budget and says why.
        let policy =
            ReplicationPolicy::Converge { min_reps: 2, target: CiTarget::Rel(0.01), max_reps: 32 };
        let noisy_sat: Vec<RepOutcome> =
            [900.0, 2500.0, 1700.0].iter().map(|&l| saturated_rep(l)).collect();
        assert_eq!(
            decide(&policy, &noisy_sat[..2], 4),
            Decision::Ready { n: 2, converged: Converged::AbandonedSaturated }
        );
        // Prefix-pure: a longer cached series reports the same prefix.
        assert_eq!(
            decide(&policy, &noisy_sat, 4),
            Decision::Ready { n: 2, converged: Converged::AbandonedSaturated }
        );
    }

    #[test]
    fn decide_does_not_abandon_mixed_verdicts() {
        // A borderline point (some replications saturate, some do not) keeps
        // the full convergence machinery: the verdict itself is unstable, so
        // the budget is exactly where it should be spent.
        let policy =
            ReplicationPolicy::Converge { min_reps: 2, target: CiTarget::Rel(0.001), max_reps: 4 };
        let mixed = vec![
            constant_rep(100.0, 0.05),
            saturated_rep(2500.0),
            saturated_rep(2100.0),
            saturated_rep(2300.0),
        ];
        // Replication 0 is unsaturated, so no prefix is ever unanimous and
        // the point runs to the cap like before.
        assert_eq!(decide(&policy, &mixed, 4), Decision::Ready { n: 4, converged: Converged::No });
    }

    #[test]
    fn ci_convergence_outranks_abandonment_at_the_same_prefix() {
        // Identical saturated replications meet any relative target with
        // zero variance; the CI verdict is checked first, so such a series
        // reports `converged: true`, not an abandonment.
        let policy =
            ReplicationPolicy::Converge { min_reps: 2, target: CiTarget::Rel(0.05), max_reps: 8 };
        let series = vec![saturated_rep(2000.0); 2];
        assert_eq!(
            decide(&policy, &series, 4),
            Decision::Ready { n: 2, converged: Converged::Yes }
        );
    }

    #[test]
    fn decide_needs_min_reps_before_judging() {
        let policy =
            ReplicationPolicy::Converge { min_reps: 3, target: CiTarget::Rel(0.05), max_reps: 8 };
        assert_eq!(decide(&policy, &[], 2), Decision::NeedMore { upto: 3 });
        let series = vec![constant_rep(20.0, 0.1); 1];
        assert_eq!(decide(&policy, &series, 2), Decision::NeedMore { upto: 3 });
    }

    #[test]
    fn decide_clamps_degenerate_min_reps() {
        // Spec validation forbids min_reps < 2, but `decide` is a public
        // entry point: a direct caller passing 0 must get the documented
        // floor of 2, not an index underflow.
        for min_reps in [0, 1] {
            let policy =
                ReplicationPolicy::Converge { min_reps, target: CiTarget::Rel(0.5), max_reps: 8 };
            assert_eq!(decide(&policy, &[], 4), Decision::NeedMore { upto: 2 });
            let series = vec![constant_rep(20.0, 0.1); 3];
            assert_eq!(
                decide(&policy, &series, 4),
                Decision::Ready { n: 2, converged: Converged::Yes }
            );
        }
    }

    #[test]
    fn abs_and_rel_targets_gate_on_half_width() {
        let tight = MeanCi { mean: 100.0, ci95: 0.4, n: 4 };
        assert!(tight.meets(CiTarget::Abs(0.5)));
        assert!(!tight.meets(CiTarget::Abs(0.3)));
        assert!(tight.meets(CiTarget::Rel(0.005)));
        assert!(!tight.meets(CiTarget::Rel(0.003)));
        // Zero-mean metrics (broadcast latencies at β = 0) are converged
        // exactly when their spread is zero too.
        assert!(MeanCi { mean: 0.0, ci95: 0.0, n: 4 }.meets(CiTarget::Rel(0.05)));
        assert!(!MeanCi { mean: 0.0, ci95: 0.1, n: 4 }.meets(CiTarget::Rel(0.05)));
    }

    #[test]
    fn t_table_shape() {
        assert!((t95(1) - 12.706).abs() < 1e-9);
        assert!(t95(2) < t95(1));
        assert!((t95(100) - 1.96).abs() < 1e-9);
        assert!(t95(0).is_nan());
    }
}
