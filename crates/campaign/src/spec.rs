//! Declarative campaign specifications and their expansion into work points.
//!
//! A [`CampaignSpec`] names a full experiment grid — the cartesian product of
//! topology × node count × message length `M` × broadcast fraction `β` ×
//! buffer depth × link latency × arbitration policy, crossed with a rate
//! axis — exactly the shape of the paper's Figs. 9–11 evaluation plus the §4
//! mesh/torus comparison. [`CampaignSpec::expand`] flattens the grid into
//! [`CampaignPoint`]s, the unit the executor shards across worker threads;
//! the expansion is always the exact product (nothing is silently dropped).
//!
//! Every point carries a canonical *content key*; its FNV-1a hash is both the
//! on-disk cache key and the RNG substream selector, so a point's identity —
//! and therefore its random stream and its cached result — depends only on
//! its own parameters, never on grid position, worker count or execution
//! order.

use crate::hash::fnv1a64;
use quarc_core::config::{ArbPolicy, FaultPlan, NocConfig, RecoveryPolicy};
use quarc_core::topology::TopologyKind;
use quarc_sim::{PointSpec, RunSpec};
use quarc_workloads::SyntheticConfig;
use std::fmt;
use std::str::FromStr;

/// How the injection-rate axis of the grid is generated.
#[derive(Debug, Clone, PartialEq)]
pub enum RateAxis {
    /// Visit exactly these rates (messages/node/cycle).
    Explicit(Vec<f64>),
    /// `steps` geometrically spaced rates in `[lo, hi]`.
    Geometric {
        /// Lowest rate.
        lo: f64,
        /// Highest rate.
        hi: f64,
        /// Number of points (≥ 2).
        steps: usize,
    },
    /// Per-curve geometric axis anchored to the analytic Quarc saturation
    /// bound for that curve's `(n, M)`: `hi = bound × span`, `lo = hi /
    /// lo_div`. This is how the paper's figure presets pick their sweeps.
    AutoGeometric {
        /// Multiple of the analytic bound used as the top rate.
        span: f64,
        /// `hi / lo` ratio.
        lo_div: f64,
        /// Number of points (≥ 2).
        steps: usize,
    },
    /// Adaptive saturation search: instead of walking a fixed grid, bisect
    /// the injection-rate axis for the saturation frontier, bracketed by the
    /// analytic bound. One point per curve.
    Saturation {
        /// Stop when the bracket width is below `rel_tol × frontier`.
        rel_tol: f64,
        /// Hard cap on simulated probes per curve.
        max_probes: u32,
    },
}

/// A 95% confidence-interval half-width target, the unit of the campaign's
/// convergence control.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum CiTarget {
    /// Converged when every tracked metric's half-width is at most this many
    /// of its own units (cycles for latencies, flits/node/cycle for
    /// throughput).
    Abs(f64),
    /// Converged when every tracked metric's half-width is at most this
    /// fraction of the metric's own mean (scale-free; the paper-grid
    /// default).
    Rel(f64),
}

impl fmt::Display for CiTarget {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            CiTarget::Abs(v) => write!(f, "abs:{v}"),
            CiTarget::Rel(v) => write!(f, "rel:{v}"),
        }
    }
}

/// Inverse of [`CiTarget`]'s `Display`: `rel:R` or `abs:W`; the error names
/// the rejected text.
impl FromStr for CiTarget {
    type Err = String;

    fn from_str(s: &str) -> Result<Self, Self::Err> {
        let bad = || format!("bad CI target {s:?} (want rel:R or abs:W)");
        match s.split_once(':') {
            Some(("rel", r)) => r.parse().map(CiTarget::Rel).map_err(|_| bad()),
            Some(("abs", w)) => w.parse().map(CiTarget::Abs).map_err(|_| bad()),
            _ => Err(bad()),
        }
    }
}

/// Per-point convergence control: grow replications until every tracked
/// metric's 95% CI half-width meets `target`, up to `max_reps`.
///
/// The stopping rule is *canonical*, not schedule-dependent: the final
/// replication count is the smallest `n` in `[min_reps, max_reps]` whose
/// prefix merge (replications `0..n`, in index order) satisfies the target —
/// a pure function of the per-replication outcomes. Execution batch size,
/// worker count and cache state decide only how much gets simulated, never
/// which prefix is reported, which is what keeps convergent campaigns
/// bit-identical under any batch schedule.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Convergence {
    /// The half-width target every tracked metric must meet.
    pub target: CiTarget,
    /// Hard cap on replications; a point still too wide at the cap is
    /// reported with `converged: false` (saturated points routinely are).
    pub max_reps: u32,
}

impl fmt::Display for Convergence {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "conv={} max={}", self.target, self.max_reps)
    }
}

/// How many replications a point merges: the campaign's replication axis
/// resolved into the rule [`crate::replicate::decide`] executes.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum ReplicationPolicy {
    /// Merge exactly this many replications.
    Fixed(u32),
    /// Grow from `min_reps` until `target` is met or `max_reps` is reached.
    Converge {
        /// Smallest prefix considered (at least 2: one replication has no
        /// variance estimate).
        min_reps: u32,
        /// The half-width target.
        target: CiTarget,
        /// Hard replication cap.
        max_reps: u32,
    },
}

impl fmt::Display for ReplicationPolicy {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ReplicationPolicy::Fixed(reps) => write!(f, "reps={reps}"),
            ReplicationPolicy::Converge { min_reps, target, max_reps } => {
                write!(f, "conv={target} min={min_reps} max={max_reps}")
            }
        }
    }
}

/// A declarative experiment campaign: the full grid plus run protocol.
#[derive(Debug, Clone, PartialEq)]
pub struct CampaignSpec {
    /// Campaign name (artifact file stem).
    pub name: String,
    /// Topology axis.
    pub topologies: Vec<TopologyKind>,
    /// Node-count axis.
    pub sizes: Vec<usize>,
    /// Message-length axis (the paper's `M`).
    pub msg_lens: Vec<usize>,
    /// Broadcast-fraction axis (the paper's `β`).
    pub betas: Vec<f64>,
    /// Input-buffer-depth axis (flits per VC lane).
    pub buffer_depths: Vec<usize>,
    /// Link-latency axis (cycles).
    pub link_latencies: Vec<u64>,
    /// Output-arbitration-policy axis (the DESIGN.md §6 ablation; applied on
    /// every topology, and part of every point's identity so the cache can
    /// never serve a round-robin result for a fixed-priority run).
    pub arbs: Vec<ArbPolicy>,
    /// Fault-schedule axis ([`FaultPlan::NONE`] = healthy network). Fault
    /// plans are deterministic, so faulted points cache and replicate
    /// exactly like healthy ones; the plan is part of every point's
    /// identity.
    pub faults: Vec<FaultPlan>,
    /// End-to-end recovery axis ([`RecoveryPolicy::NONE`] = best-effort
    /// delivery). Recovery retries are deterministic (seeded jitter
    /// substream), so recovered points cache and replicate exactly like
    /// best-effort ones; the policy is part of every point's identity.
    pub recoveries: Vec<RecoveryPolicy>,
    /// The injection-rate axis.
    pub rates: RateAxis,
    /// Independent replications per point (distinct workload seeds). With a
    /// [`Convergence`] policy this is the *starting* count (clamped to ≥ 2);
    /// without one it is exact.
    pub replications: u32,
    /// Optional convergence control: grow replications per point until every
    /// tracked metric's 95% CI half-width meets the target.
    pub convergence: Option<Convergence>,
    /// Master seed; every replication seed is forked from this.
    pub base_seed: u64,
    /// Warmup/measure/drain protocol for every run.
    pub run: RunSpec,
}

impl CampaignSpec {
    /// A campaign with the paper's default axes: one value per axis (the
    /// hardware axes from [`NocConfig::default`]), the default run protocol,
    /// two replications.
    pub fn new(name: impl Into<String>) -> Self {
        let hw = NocConfig::default();
        CampaignSpec {
            name: name.into(),
            topologies: vec![TopologyKind::Quarc, TopologyKind::Spidergon],
            sizes: vec![16],
            msg_lens: vec![16],
            betas: vec![0.05],
            buffer_depths: vec![hw.buffer_depth],
            link_latencies: vec![hw.link_latency],
            arbs: vec![hw.arb],
            faults: vec![hw.fault],
            recoveries: vec![hw.recovery],
            rates: RateAxis::AutoGeometric { span: 1.1, lo_div: 40.0, steps: 10 },
            replications: 2,
            convergence: None,
            base_seed: 2009, // the paper's year; any constant works
            run: RunSpec::default(),
        }
    }

    /// Expand the grid into executable points.
    ///
    /// Every topology carries every traffic class, so the expansion is the
    /// exact cartesian product of the axes — nothing is dropped. Empty axes
    /// are errors, and so is any point that fails [`PointSpec::check`], the
    /// check `run_point` applies: a spec that expands also runs. Should a
    /// future axis introduce a genuinely unsupported combination, it must be
    /// reported through [`Expansion::skipped`] (which the artifact records)
    /// — never silently removed from the grid.
    pub fn expand(&self) -> Result<Expansion, SpecError> {
        if self.name.is_empty() || !self.name.chars().all(valid_name_char) {
            return Err(SpecError::new("name must be non-empty and use only [a-zA-Z0-9._-]"));
        }
        check_axis("topologies", &self.topologies)?;
        check_axis("sizes", &self.sizes)?;
        check_axis("msg_lens", &self.msg_lens)?;
        check_axis("betas", &self.betas)?;
        check_axis("buffer_depths", &self.buffer_depths)?;
        check_axis("link_latencies", &self.link_latencies)?;
        check_axis("arbs", &self.arbs)?;
        check_axis("faults", &self.faults)?;
        check_axis("recoveries", &self.recoveries)?;
        if self.replications == 0 {
            return Err(SpecError::new("replications must be at least 1"));
        }
        self.run.check().map_err(|e| SpecError::new_owned(e.to_string()))?;
        if let Some(conv) = &self.convergence {
            let width = match conv.target {
                CiTarget::Abs(w) | CiTarget::Rel(w) => w,
            };
            if !(width > 0.0 && width.is_finite()) {
                return Err(SpecError::new("convergence target must be positive and finite"));
            }
            if conv.max_reps < self.replications.max(2) {
                return Err(SpecError::new(
                    "convergence max_reps must be at least max(replications, 2)",
                ));
            }
        }
        match &self.rates {
            RateAxis::Explicit(rates) => check_axis("rates", rates)?,
            RateAxis::Geometric { lo, hi, steps } => {
                if !(*lo > 0.0 && hi > lo && *hi <= 1.0 && (2..=MAX_RATE_STEPS).contains(steps)) {
                    return Err(SpecError::new_owned(format!(
                        "geometric axis needs 0 < lo < hi <= 1, 2 <= steps <= {MAX_RATE_STEPS}"
                    )));
                }
            }
            RateAxis::AutoGeometric { span, lo_div, steps } => {
                if !(*span > 0.0 && *lo_div > 1.0 && (2..=MAX_RATE_STEPS).contains(steps)) {
                    return Err(SpecError::new_owned(format!(
                        "auto-geometric axis needs span > 0, lo_div > 1, \
                         2 <= steps <= {MAX_RATE_STEPS}"
                    )));
                }
            }
            RateAxis::Saturation { rel_tol, max_probes } => {
                if !(*rel_tol > 0.0 && *rel_tol < 1.0 && *max_probes >= 4) {
                    return Err(SpecError::new(
                        "saturation axis needs 0 < rel_tol < 1, max_probes >= 4",
                    ));
                }
            }
        }

        let mut points = Vec::new();
        let skipped = Vec::new();
        for &topology in &self.topologies {
            for &n in &self.sizes {
                for &msg_len in &self.msg_lens {
                    for &beta in &self.betas {
                        for &buffer_depth in &self.buffer_depths {
                            for &link_latency in &self.link_latencies {
                                for &arb in &self.arbs {
                                    for &fault in &self.faults {
                                        for &recovery in &self.recoveries {
                                            let curve = CurveParams {
                                                topology,
                                                n,
                                                msg_len,
                                                beta,
                                                buffer_depth,
                                                link_latency,
                                                arb,
                                                fault,
                                                recovery,
                                            };
                                            self.push_curve_points(curve, &mut points)?;
                                        }
                                    }
                                }
                            }
                        }
                    }
                }
            }
        }
        if points.is_empty() {
            return Err(SpecError::new("the grid expanded to zero points"));
        }
        Ok(Expansion { points, skipped })
    }

    fn push_curve_points(
        &self,
        curve: CurveParams,
        points: &mut Vec<CampaignPoint>,
    ) -> Result<(), SpecError> {
        let invalid = |why: String| SpecError::new_owned(format!("{curve}: {why}"));
        // Every point passes the check `run_point` applies. A search is
        // checked at its floor, and never probes above rate 1.
        let check = |rate: f64| curve.point(rate, 0).check().map_err(|e| invalid(e.to_string()));
        // Rate 1 passes the rate rule, so this names a bad network, `M` or
        // `β` before a rate axis generated from them fails on their account.
        check(1.0)?;
        let mut push = |rate: f64, work: PointWork| {
            check(rate)?;
            points.push(CampaignPoint { id: points.len(), curve, work });
            Ok(())
        };
        // The analytical bound costs an O(n²·hops) all-pairs link-load walk
        // — prohibitive at the slab-era sizes (n = 16384) — so only the
        // axes that actually anchor on it pay for it. It is the Quarc's
        // bound, so it exists only where a Quarc of `n` nodes does.
        let bound = || {
            NocConfig::quarc(curve.n).validate().map_err(|e| {
                invalid(format!(
                    "auto and saturation rate axes anchor on the Quarc saturation bound, \
                     which needs a Quarc size ({e}); use list: or geom: rates"
                ))
            })?;
            Ok(quarc_analytical::quarc_saturation_rate(curve.n, curve.msg_len))
        };
        let rates = match &self.rates {
            RateAxis::Explicit(rates) => rates.clone(),
            RateAxis::Geometric { lo, hi, steps } => generated_rates(curve, *lo, *hi, *steps)?,
            RateAxis::AutoGeometric { span, lo_div, steps } => {
                let hi = bound()? * span;
                generated_rates(curve, hi / lo_div, hi, *steps)?
            }
            RateAxis::Saturation { rel_tol, max_probes } => {
                let b = bound()?;
                let (lo, hi) = (b * 0.02, b * 2.0);
                let (rel_tol, max_probes) = (*rel_tol, *max_probes);
                return push(lo, PointWork::Saturation { lo, hi, rel_tol, max_probes });
            }
        };
        for rate in rates {
            push(rate, PointWork::Rate(rate))?;
        }
        Ok(())
    }

    /// The replication rule fixed-rate points execute: `replications` exact
    /// runs, or — with a [`Convergence`] policy — growth from
    /// `max(replications, 2)` until the CI target or `max_reps`.
    pub fn policy(&self) -> ReplicationPolicy {
        match self.convergence {
            None => ReplicationPolicy::Fixed(self.replications),
            Some(Convergence { target, max_reps }) => {
                ReplicationPolicy::Converge { min_reps: self.replications.max(2), target, max_reps }
            }
        }
    }
}

/// An axis must name at least one value and no value twice: repeated values
/// expand to points that share a merge hash, which two workers would then
/// run at once, writing one cache entry through one temp path. Keys hold
/// each value's `Display` text, so two unequal values that render alike
/// (every empty `FaultPlan` is `-`) repeat too.
fn check_axis<T: PartialEq + fmt::Display>(name: &str, axis: &[T]) -> Result<(), SpecError> {
    if axis.is_empty() {
        return Err(SpecError::new_owned(format!("axis {name} is empty")));
    }
    let texts: Vec<String> = axis.iter().map(T::to_string).collect();
    let repeats = |i: usize| (0..i).any(|j| axis[j] == axis[i] || texts[j] == texts[i]);
    if (0..axis.len()).any(repeats) {
        return Err(SpecError::new_owned(format!("axis {name} repeats a value")));
    }
    Ok(())
}

/// The most rates a generated axis may have: far past any preset (they use
/// at most 12), and small enough that an absurd count is a spec error
/// rather than an allocation failure.
const MAX_RATE_STEPS: usize = 10_000;

/// `steps` geometrically spaced rates in `[lo, hi]` for `curve`. A rate is
/// a per-cycle injection probability, so `hi` may not exceed 1 (a ceiling
/// of exactly 1 can round a hair above it; that rate is 1). The rates must
/// strictly increase: rounding can collapse a narrow axis onto one rate,
/// and equal rates share a merge hash.
fn generated_rates(
    curve: CurveParams,
    lo: f64,
    hi: f64,
    steps: usize,
) -> Result<Vec<f64>, SpecError> {
    // `geometric_rates` asserts 0 < lo < hi.
    let rates: Option<Vec<f64>> = (lo > 0.0 && hi > lo && hi <= 1.0).then(|| {
        quarc_sim::geometric_rates(lo, hi, steps).into_iter().map(|r| r.min(1.0)).collect()
    });
    match rates {
        Some(rates) if rates.windows(2).all(|w| w[0] < w[1]) => Ok(rates),
        _ => Err(SpecError::new_owned(format!(
            "{curve}: {steps} rates in [{lo}, {hi}] must be in (0, 1] and strictly increasing"
        ))),
    }
}

fn valid_name_char(c: char) -> bool {
    c.is_ascii_alphanumeric() || matches!(c, '.' | '_' | '-')
}

fn beta_pct(beta: f64) -> u32 {
    (beta * 100.0).round() as u32
}

/// The non-rate coordinates of a grid point (one latency curve).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct CurveParams {
    /// Topology family.
    pub topology: TopologyKind,
    /// Node count.
    pub n: usize,
    /// Message length in flits.
    pub msg_len: usize,
    /// Broadcast fraction.
    pub beta: f64,
    /// Input buffer depth (flits per VC lane).
    pub buffer_depth: usize,
    /// Link latency (cycles).
    pub link_latency: u64,
    /// Output-arbitration policy.
    pub arb: ArbPolicy,
    /// Deterministic fault schedule ([`FaultPlan::NONE`] = healthy).
    pub fault: FaultPlan,
    /// End-to-end recovery policy ([`RecoveryPolicy::NONE`] = best-effort).
    pub recovery: RecoveryPolicy,
}

impl CurveParams {
    /// A curve on the paper's switch hardware: the buffer depth, link
    /// latency, arbitration, fault plan and recovery policy of
    /// [`NocConfig::default`].
    pub fn paper(topology: TopologyKind, n: usize, msg_len: usize, beta: f64) -> Self {
        let NocConfig { buffer_depth, link_latency, arb, fault, recovery, .. } =
            NocConfig::default();
        CurveParams { topology, n, msg_len, beta, buffer_depth, link_latency, arb, fault, recovery }
    }

    /// The point at `rate` on this curve under workload seed `seed`: the
    /// paper's uniform traffic with this curve's `M` and `β`.
    pub fn point(&self, rate: f64, seed: u64) -> PointSpec {
        PointSpec {
            noc: self.noc(),
            traffic: SyntheticConfig::paper(rate, self.msg_len, self.beta, seed),
        }
    }

    /// The network configuration for this curve: this curve's switch
    /// hardware on the VCs its topology's routing uses
    /// ([`TopologyKind::vcs`]: 1 on the mesh, the dateline pair elsewhere).
    pub fn noc(&self) -> NocConfig {
        NocConfig {
            kind: self.topology,
            n: self.n,
            buffer_depth: self.buffer_depth,
            link_latency: self.link_latency,
            arb: self.arb,
            fault: self.fault,
            recovery: self.recovery,
        }
    }
}

impl fmt::Display for CurveParams {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "{}-n{}-m{}-b{}-d{}-l{}-a{}",
            self.topology,
            self.n,
            self.msg_len,
            beta_pct(self.beta),
            self.buffer_depth,
            self.link_latency,
            self.arb
        )?;
        // Healthy best-effort curves keep their historical labels; fault
        // plans and recovery policies get compact suffixes (each one's own
        // Display form).
        if !self.fault.is_empty() {
            write!(f, "-F{}", self.fault)?;
        }
        if self.recovery.enabled() {
            write!(f, "-R{}", self.recovery)?;
        }
        Ok(())
    }
}

/// What a point simulates along the rate axis.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum PointWork {
    /// One fixed-rate run (times `replications`).
    Rate(f64),
    /// Bisect `[lo, hi]` for the saturation frontier.
    Saturation {
        /// Bracket low end (must be comfortably unsaturated).
        lo: f64,
        /// Bracket high end (expected saturated; grown if not).
        hi: f64,
        /// Relative bracket-width stop.
        rel_tol: f64,
        /// Probe budget.
        max_probes: u32,
    },
}

/// One executable unit of a campaign.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct CampaignPoint {
    /// Position in expansion order; fixes output ordering only (never
    /// seeding or caching).
    pub id: usize,
    /// Grid coordinates.
    pub curve: CurveParams,
    /// Rate-axis work.
    pub work: PointWork,
}

impl CampaignPoint {
    /// The *merge key*: every parameter that influences an individual
    /// replication's numbers — but **not** the replication protocol (fixed
    /// count or convergence policy). Its hash is both the result-cache key
    /// and the RNG substream selector, so replication `i` of a point runs
    /// under the same seed no matter how many replications any campaign
    /// asks for. That invariant is what makes cached replication series
    /// *upgradeable*: a convergence campaign tops a fixed-`replications`
    /// entry up from where it stopped, and a smaller fixed request is a
    /// prefix of a larger cached series — bit-identical either way.
    ///
    /// The leading `quarc-campaign v5` is a frozen RNG salt, not a version:
    /// never bump it, because the hash seeds every replication and a bump
    /// would move every result. A change of simulator behaviour retires
    /// cache entries through the behaviour tag that the cache adds to each
    /// entry's key ([`crate::hash::BEHAVIOUR`]), which leaves this key and
    /// the seeds alone.
    pub fn merge_key(&self, spec: &CampaignSpec) -> String {
        let c = &self.curve;
        let work = match self.work {
            PointWork::Rate(rate) => format!("rate={rate}"),
            PointWork::Saturation { lo, hi, rel_tol, max_probes } => {
                format!("sat lo={lo} hi={hi} tol={rel_tol} probes={max_probes}")
            }
        };
        format!(
            "quarc-campaign v5|{}|n={} m={} beta={} depth={} link={} arb={} fault={} rec={}|{}|seed={}|run w={} m={} d={} lat={} bk={} sw={}",
            c.topology,
            c.n,
            c.msg_len,
            c.beta,
            c.buffer_depth,
            c.link_latency,
            c.arb,
            c.fault,
            c.recovery,
            work,
            spec.base_seed,
            spec.run.warmup,
            spec.run.measure,
            spec.run.drain,
            spec.run.latency_cap,
            spec.run.backlog_cap,
            spec.run.stall_window,
        )
    }

    /// FNV-1a hash of the merge key: the cache file name and RNG substream id.
    pub fn merge_hash(&self, spec: &CampaignSpec) -> u64 {
        fnv1a64(self.merge_key(spec).as_bytes())
    }

    /// The canonical content key: the merge key plus the replication
    /// protocol — the point's full *result* identity, recorded (hashed) in
    /// the artifact. Two campaigns that share every axis but differ in
    /// `replications` or convergence policy share cache entries (via
    /// [`Self::merge_key`]) yet report distinct content hashes, because
    /// their merged numbers legitimately differ.
    ///
    /// Saturation searches probe with replication 0's seed only, so neither
    /// `spec.replications` nor the convergence policy can affect their
    /// outcome — their protocol component stays pinned to `reps=1`, or
    /// changing `--replications` would spuriously re-key every cached
    /// frontier point.
    pub fn content_key(&self, spec: &CampaignSpec) -> String {
        self.content_key_from(&self.merge_key(spec), spec)
    }

    /// [`Self::content_key`] from this point's already formatted merge key.
    pub(crate) fn content_key_from(&self, merge_key: &str, spec: &CampaignSpec) -> String {
        let protocol = match self.work {
            PointWork::Rate(_) => spec.policy().to_string(),
            PointWork::Saturation { .. } => "reps=1".to_string(),
        };
        format!("{merge_key}|{protocol}")
    }

    /// FNV-1a hash of the content key: the point's result identity in the
    /// campaign artifact.
    #[cfg(test)]
    fn content_hash(&self, spec: &CampaignSpec) -> u64 {
        fnv1a64(self.content_key(spec).as_bytes())
    }
}

/// The result of expanding a grid.
#[derive(Debug, Clone)]
pub struct Expansion {
    /// Executable points, in deterministic grid order.
    pub points: Vec<CampaignPoint>,
    /// Human-readable descriptions of dropped combinations. Always recorded
    /// in the campaign artifact so a shrunken grid leaves a trace; currently
    /// always empty — every topology supports every traffic class, so the
    /// expansion is the exact cartesian product of the axes.
    pub skipped: Vec<String>,
}

/// A malformed campaign specification.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SpecError(String);

impl SpecError {
    fn new(msg: &str) -> Self {
        SpecError(msg.to_string())
    }

    fn new_owned(msg: String) -> Self {
        SpecError(msg)
    }
}

impl fmt::Display for SpecError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "invalid campaign spec: {}", self.0)
    }
}

impl std::error::Error for SpecError {}

#[cfg(test)]
mod tests {
    use super::*;

    fn small() -> CampaignSpec {
        let mut spec = CampaignSpec::new("unit");
        spec.sizes = vec![8, 16];
        spec.msg_lens = vec![4];
        spec.betas = vec![0.0];
        spec.rates = RateAxis::Explicit(vec![0.005, 0.01]);
        spec
    }

    #[test]
    fn ci_target_parses_what_it_displays() {
        for target in [CiTarget::Rel(0.1), CiTarget::Abs(2.5), CiTarget::Rel(1e-3)] {
            assert_eq!(target.to_string().parse(), Ok(target));
        }
        for bad in ["rel:", "abs:x", "foo:1", "rel", "0.1", ""] {
            assert!(bad.parse::<CiTarget>().is_err(), "{bad:?}");
        }
    }

    #[test]
    fn grid_expands_to_product() {
        let exp = small().expand().unwrap();
        // 2 topologies × 2 sizes × 1 M × 1 β × 1 depth × 1 link × 2 rates.
        assert_eq!(exp.points.len(), 8);
        assert!(exp.skipped.is_empty());
        for (i, p) in exp.points.iter().enumerate() {
            assert_eq!(p.id, i);
        }
    }

    #[test]
    fn expansion_is_the_exact_grid_product_for_every_topology() {
        // Regression for the silent mesh × β > 0 point drop: the expansion
        // must equal the axis product — no combination may vanish without a
        // trace — and the only sanctioned escape hatch is `skipped`, which
        // the artifact records and which must stay empty today.
        let mut spec = small();
        spec.topologies = vec![
            TopologyKind::Quarc,
            TopologyKind::Spidergon,
            TopologyKind::Mesh,
            TopologyKind::Torus,
        ];
        spec.betas = vec![0.0, 0.05, 0.1];
        spec.arbs = vec![ArbPolicy::RoundRobin, ArbPolicy::FixedPriority];
        let exp = spec.expand().unwrap();
        let product = spec.topologies.len()
            * spec.sizes.len()
            * spec.msg_lens.len()
            * spec.betas.len()
            * spec.buffer_depths.len()
            * spec.link_latencies.len()
            * spec.arbs.len()
            * spec.faults.len()
            * 2; // explicit rates
        assert_eq!(exp.points.len(), product);
        assert!(exp.skipped.is_empty(), "{:?}", exp.skipped);
    }

    #[test]
    fn mesh_points_get_single_vc_configs() {
        let mut spec = small();
        spec.topologies = vec![TopologyKind::Mesh];
        let exp = spec.expand().unwrap();
        assert!(exp.points.iter().all(|p| p.curve.noc().kind.vcs() == 1));
    }

    #[test]
    fn torus_points_get_dateline_vc_configs() {
        let mut spec = small();
        spec.topologies = vec![TopologyKind::Torus];
        spec.betas = vec![0.05]; // collectives are first-class on the torus
        let exp = spec.expand().unwrap();
        assert!(exp.skipped.is_empty());
        for p in &exp.points {
            let noc = p.curve.noc();
            assert_eq!(noc.kind, TopologyKind::Torus);
            assert_eq!(noc.kind.vcs(), 2, "wrap rings need the dateline pair");
            noc.validate().unwrap();
        }
    }

    #[test]
    fn content_hash_separates_topologies_and_arb_policies() {
        // Stale cache hits are silent wrong results: any two points that can
        // produce different numbers must have different keys. Topology and
        // arbitration policy are the two axes this PR added.
        let mut spec = small();
        spec.sizes = vec![16];
        let mut torus = spec.clone();
        torus.topologies = vec![TopologyKind::Torus];
        let mut mesh = spec.clone();
        mesh.topologies = vec![TopologyKind::Mesh];
        let ht = torus.expand().unwrap().points[0].content_hash(&torus);
        let hm = mesh.expand().unwrap().points[0].content_hash(&mesh);
        assert_ne!(ht, hm, "mesh and torus points must never share a cache entry");

        let mut rr = spec.clone();
        rr.topologies = vec![TopologyKind::Quarc];
        let mut fp = rr.clone();
        fp.arbs = vec![ArbPolicy::FixedPriority];
        let hr = rr.expand().unwrap().points[0].content_hash(&rr);
        let hf = fp.expand().unwrap().points[0].content_hash(&fp);
        assert_ne!(hr, hf, "arbitration policy must be part of the cache key");
    }

    #[test]
    fn every_config_field_reaches_the_content_key() {
        // The key must echo each behaviour-affecting curve coordinate
        // verbatim (an audit that a future field cannot silently miss it).
        let spec = small();
        let p = spec.expand().unwrap().points[0];
        let key = p.content_key(&spec);
        for needle in [
            "quarc",
            "n=8",
            "m=4",
            "beta=0",
            "depth=4",
            "link=1",
            "arb=rr",
            "fault=-",
            "rec=-",
            "seed=2009",
            "sw=10000",
        ] {
            assert!(key.contains(needle), "key {key:?} lacks {needle:?}");
        }
    }

    #[test]
    fn fault_axis_expands_and_separates_cache_keys() {
        // A faulted run and a healthy run can never share numbers, so they
        // must never share a cache entry — and the fault axis multiplies the
        // grid like any other.
        let mut spec = small();
        spec.sizes = vec![16];
        spec.faults = vec![
            FaultPlan::NONE,
            FaultPlan { dead_links: 1, seed: 7, onset: 1_000, ..FaultPlan::NONE },
            FaultPlan { dead_links: 2, seed: 7, onset: 1_000, ..FaultPlan::NONE },
        ];
        let exp = spec.expand().unwrap();
        assert_eq!(exp.points.len(), 2 * 3 * 2); // topologies × faults × rates
        assert!(exp.skipped.is_empty());
        let hashes: std::collections::HashSet<u64> =
            exp.points.iter().map(|p| p.content_hash(&spec)).collect();
        assert_eq!(hashes.len(), exp.points.len(), "fault plans must re-key every point");
        // Healthy points keep their historical labels; faulted ones say so.
        let labels: Vec<String> =
            exp.points.iter().map(crate::result::PointResult::label_for).collect();
        assert!(labels.iter().any(|l| !l.contains("-F")));
        assert!(labels.iter().any(|l| l.contains("-Fs7o1000d1")));
    }

    #[test]
    fn recovery_axis_expands_and_separates_cache_keys() {
        // A recovered run and a best-effort run over the same fault plan
        // produce different numbers, so they must never share a cache entry
        // — and the recovery axis multiplies the grid like any other.
        let mut spec = small();
        spec.sizes = vec![16];
        spec.faults =
            vec![FaultPlan { lossy_links: 2, drop_per_64k: 500, seed: 3, ..FaultPlan::NONE }];
        spec.recoveries = vec![
            RecoveryPolicy::NONE,
            RecoveryPolicy { seed: 1, ack_timeout: 500, max_retries: 8, jitter: 32 },
        ];
        let exp = spec.expand().unwrap();
        assert_eq!(exp.points.len(), 2 * 2 * 2); // topologies × recoveries × rates
        assert!(exp.skipped.is_empty());
        let hashes: std::collections::HashSet<u64> =
            exp.points.iter().map(|p| p.content_hash(&spec)).collect();
        assert_eq!(hashes.len(), exp.points.len(), "recovery policies must re-key every point");
        // And the policy reaches the network configuration and the label.
        let labels: Vec<String> =
            exp.points.iter().map(crate::result::PointResult::label_for).collect();
        assert!(labels.iter().any(|l| l.contains("-Rt500r8j32s1")));
        assert!(labels.iter().any(|l| !l.contains("-R")));
        assert!(exp.points.iter().any(|p| p.curve.noc().recovery.enabled()));
        assert!(exp.points.iter().any(|p| !p.curve.noc().recovery.enabled()));
    }

    #[test]
    fn empty_recovery_axis_is_rejected() {
        let mut bad = small();
        bad.recoveries = vec![];
        assert!(bad.expand().is_err());
        // And an internally inconsistent policy fails config validation.
        let mut bad = small();
        bad.recoveries = vec![RecoveryPolicy { max_retries: 3, ..RecoveryPolicy::NONE }];
        assert!(bad.expand().is_err());
    }

    #[test]
    fn stall_window_reaches_the_merge_key() {
        // Under faults the watchdog window decides when a wedged run is cut
        // off, which moves partial statistics — so it is result identity.
        let spec = small();
        let p = spec.expand().unwrap().points[0];
        let mut rewound = spec.clone();
        rewound.run.stall_window = 500;
        assert_ne!(p.merge_key(&spec), p.merge_key(&rewound));
    }

    #[test]
    fn empty_fault_axis_is_rejected() {
        let mut bad = small();
        bad.faults = vec![];
        assert!(bad.expand().is_err());
        // And an internally inconsistent plan fails config validation.
        let mut bad = small();
        bad.faults = vec![FaultPlan { transient_links: 1, transient_cycles: 0, ..FaultPlan::NONE }];
        assert!(bad.expand().is_err());
    }

    #[test]
    fn content_hash_ignores_grid_position() {
        let spec_a = small();
        let mut spec_b = small();
        // Reversing an axis permutes ids but must not change any hash.
        spec_b.sizes.reverse();
        let a = spec_a.expand().unwrap();
        let b = spec_b.expand().unwrap();
        let mut ha: Vec<u64> = a.points.iter().map(|p| p.content_hash(&spec_a)).collect();
        let mut hb: Vec<u64> = b.points.iter().map(|p| p.content_hash(&spec_b)).collect();
        assert_ne!(ha, hb, "order should differ before sorting");
        ha.sort_unstable();
        hb.sort_unstable();
        assert_eq!(ha, hb);
    }

    #[test]
    fn content_hash_depends_on_run_protocol_and_seed() {
        let spec = small();
        let exp = spec.expand().unwrap();
        let h0 = exp.points[0].content_hash(&spec);
        let mut longer = spec.clone();
        longer.run.measure += 1;
        assert_ne!(h0, exp.points[0].content_hash(&longer));
        let mut reseeded = spec.clone();
        reseeded.base_seed += 1;
        assert_ne!(h0, exp.points[0].content_hash(&reseeded));
    }

    #[test]
    fn bad_specs_are_rejected() {
        let mut bad = small();
        bad.sizes = vec![];
        assert!(bad.expand().is_err());

        let mut bad = small();
        bad.replications = 0;
        assert!(bad.expand().is_err());

        let mut bad = small();
        bad.rates = RateAxis::Explicit(vec![]);
        assert!(bad.expand().is_err());

        let mut bad = small();
        bad.rates = RateAxis::Geometric { lo: 0.1, hi: 0.05, steps: 4 };
        assert!(bad.expand().is_err());

        let mut bad = small();
        bad.name = "has space".into();
        assert!(bad.expand().is_err());

        let mut bad = small();
        bad.sizes = vec![18]; // not a legal quarc/spidergon-with-quarc size
        assert!(bad.expand().is_err());

        let mut bad = small();
        bad.betas = vec![1.5];
        assert!(bad.expand().is_err());

        // A 1-node mesh is a network, but its points used to fail by panic.
        let mut bad = small();
        bad.topologies = vec![TopologyKind::Mesh];
        bad.sizes = vec![1];
        assert!(bad.expand().unwrap_err().to_string().contains("two nodes"));

        let mut bad = small();
        bad.arbs = vec![];
        assert!(bad.expand().is_err());

        // Repeated axis values would run one cache entry on two workers.
        let mut bad = small();
        bad.sizes = vec![16, 16];
        assert!(bad.expand().unwrap_err().to_string().contains("sizes repeats"));

        let mut bad = small();
        bad.rates = RateAxis::Explicit(vec![0.01, 0.01]);
        assert!(bad.expand().unwrap_err().to_string().contains("rates repeats"));

        let mut bad = small();
        bad.rates = RateAxis::Explicit(vec![0.01, f64::INFINITY]);
        assert!(bad.expand().is_err());

        // Above the configuration caps these used to pass `expand` and then
        // panic in the lane buffers / abort the process in the link bank.
        let mut bad = small();
        bad.buffer_depths = vec![4, 70_000];
        assert!(bad.expand().unwrap_err().to_string().contains("buffer_depth"));

        let mut bad = small();
        bad.link_latencies = vec![4_000_000_000];
        assert!(bad.expand().unwrap_err().to_string().contains("link_latency"));
    }

    #[test]
    fn msg_lens_that_a_packet_cannot_hold_are_rejected() {
        // A packet's length is a `u32`: 2^32 + 2 used to expand and then run
        // as a 2-flit message under the longer message's name.
        for len in [1, u32::MAX as usize + 1, u32::MAX as usize + 2] {
            let mut bad = small();
            bad.msg_lens = vec![len];
            assert!(bad.expand().unwrap_err().to_string().contains("msg_len"), "{len}");
        }
        // Also where the bound an auto axis anchors on would put it past 1.
        let mut auto = small();
        auto.msg_lens = vec![1];
        auto.rates = RateAxis::AutoGeometric { span: 40.0, lo_div: 40.0, steps: 3 };
        assert!(auto.expand().unwrap_err().to_string().contains("msg_len"));
        let mut widest = small();
        widest.msg_lens = vec![u32::MAX as usize];
        assert!(widest.expand().is_ok());
    }

    #[test]
    fn axis_values_that_render_alike_repeat() {
        // Unequal plans, one key text: every empty plan renders as `-`.
        let late = FaultPlan { onset: 100, ..FaultPlan::NONE };
        assert_ne!(late, FaultPlan::NONE);
        assert_eq!(late.to_string(), FaultPlan::NONE.to_string());
        let mut bad = small();
        bad.faults = vec![FaultPlan::NONE, late];
        assert!(bad.expand().unwrap_err().to_string().contains("faults repeats"));
    }

    #[test]
    fn generated_rate_axes_are_bounded_and_strictly_increasing() {
        let rejected = |rates: RateAxis| {
            let mut bad = small();
            bad.rates = rates;
            bad.expand().unwrap_err().to_string()
        };
        // Step counts that used to overflow or exhaust the allocator.
        let err = rejected(RateAxis::Geometric { lo: 0.001, hi: 0.002, steps: usize::MAX });
        assert!(err.contains("steps <= 10000"), "{err}");
        let err = rejected(RateAxis::AutoGeometric { span: 1.1, lo_div: 40.0, steps: 1 << 32 });
        assert!(err.contains("steps <= 10000"), "{err}");
        // `powf` rounds this step ratio to 1: three equal rates, one hash.
        let err = rejected(RateAxis::Geometric { lo: 0.01, hi: 0.010000000000000002, steps: 3 });
        assert!(err.contains("strictly increasing"), "{err}");
        let err =
            rejected(RateAxis::AutoGeometric { span: 1.1, lo_div: 1.0 + f64::EPSILON, steps: 4 });
        assert!(err.contains("strictly increasing"), "{err}");

        let mut ok = small();
        ok.rates = RateAxis::Geometric { lo: 0.001, hi: 0.002, steps: MAX_RATE_STEPS };
        assert_eq!(ok.expand().unwrap().points.len(), 4 * MAX_RATE_STEPS);
    }

    #[test]
    fn rates_above_one_message_per_cycle_are_rejected() {
        // A rate is a per-cycle probability: 1.5 used to run as rate 1
        // under its own label and cache key.
        let rejected = |rates: RateAxis| {
            let mut bad = small();
            bad.rates = rates;
            bad.expand().unwrap_err().to_string()
        };
        let err = rejected(RateAxis::Explicit(vec![1.0, 1.5]));
        assert!(err.contains("(0, 1]"), "{err}");
        let err = rejected(RateAxis::Geometric { lo: 0.5, hi: 2.0, steps: 3 });
        assert!(err.contains("hi <= 1"), "{err}");
        // The analytic bound at n = 4, M = 2 is 1.5, so this ceiling is 1.65.
        let mut auto = small();
        auto.sizes = vec![4];
        auto.msg_lens = vec![2];
        auto.rates = RateAxis::AutoGeometric { span: 1.1, lo_div: 40.0, steps: 3 };
        let err = auto.expand().unwrap_err().to_string();
        assert!(err.contains("(0, 1]"), "{err}");

        // Rate 1 itself is legal, also where a generated ceiling of 1
        // rounds a hair above it.
        let mut ok = small();
        ok.rates = RateAxis::Explicit(vec![0.5, 1.0]);
        assert!(ok.expand().is_ok());
        ok.rates = RateAxis::Geometric { lo: 0.01, hi: 1.0, steps: 5 };
        let points = ok.expand().unwrap().points;
        assert!(points.iter().any(|p| p.work == PointWork::Rate(1.0)));
        assert!(points.iter().all(|p| matches!(p.work, PointWork::Rate(r) if r <= 1.0)));
    }

    #[test]
    fn analytic_rate_axes_need_a_quarc_size() {
        // Both axes anchor on the Quarc bound, whose topology used to panic
        // at expansion on any other size.
        let sat = RateAxis::Saturation { rel_tol: 0.1, max_probes: 8 };
        for rates in [RateAxis::AutoGeometric { span: 1.1, lo_div: 40.0, steps: 3 }, sat] {
            for (topology, n) in
                [(TopologyKind::Spidergon, 6), (TopologyKind::Mesh, 9), (TopologyKind::Torus, 6)]
            {
                let mut bad = small();
                bad.topologies = vec![topology];
                bad.sizes = vec![n];
                bad.rates = rates.clone();
                let err = bad.expand().unwrap_err().to_string();
                assert!(err.contains("use list: or geom: rates"), "{err}");
            }
        }
        // Explicit rates run those sizes.
        let mut ok = small();
        ok.topologies = vec![TopologyKind::Spidergon];
        ok.sizes = vec![6];
        assert!(ok.expand().is_ok());
    }

    #[test]
    fn saturation_keys_ignore_replications() {
        // Searches probe with replication 0 only; changing --replications
        // must not invalidate cached frontier points (but must invalidate
        // fixed-rate points, whose merge really does depend on it).
        let mut sat = small();
        sat.rates = RateAxis::Saturation { rel_tol: 0.1, max_probes: 16 };
        let exp = sat.expand().unwrap();
        let mut more_reps = sat.clone();
        more_reps.replications += 3;
        for p in &exp.points {
            assert_eq!(p.content_hash(&sat), p.content_hash(&more_reps));
        }

        let grid = small();
        let mut grid_more = grid.clone();
        grid_more.replications += 3;
        let gp = grid.expand().unwrap().points[0];
        assert_ne!(gp.content_hash(&grid), gp.content_hash(&grid_more));
    }

    #[test]
    fn merge_keys_ignore_the_replication_protocol() {
        // The merge key (cache key + RNG substream) must be shared by every
        // replication protocol over the same physical point — that is the
        // whole upgrade story: a convergence campaign finds (and tops up)
        // the series a fixed-replications campaign cached, and replication
        // seeds never move when the protocol changes.
        let fixed = small();
        let mut more = fixed.clone();
        more.replications += 5;
        let mut conv = fixed.clone();
        conv.convergence = Some(Convergence { target: CiTarget::Rel(0.05), max_reps: 32 });
        let p = fixed.expand().unwrap().points[0];
        assert_eq!(p.merge_key(&fixed), p.merge_key(&more));
        assert_eq!(p.merge_key(&fixed), p.merge_key(&conv));
        // …while the content key (the artifact's result identity) reflects
        // the protocol, because the merged numbers differ.
        assert_ne!(p.content_hash(&fixed), p.content_hash(&more));
        assert_ne!(p.content_hash(&fixed), p.content_hash(&conv));
        assert!(p.content_key(&conv).contains("conv=rel:0.05 min=2 max=32"));
        assert!(p.content_key(&fixed).starts_with(&p.merge_key(&fixed)));
    }

    #[test]
    fn policy_resolves_min_reps_and_fixed_counts() {
        let mut spec = small();
        spec.replications = 1;
        assert_eq!(spec.policy(), ReplicationPolicy::Fixed(1));
        spec.convergence = Some(Convergence { target: CiTarget::Abs(0.5), max_reps: 16 });
        // One replication has no variance estimate; convergence needs ≥ 2.
        assert_eq!(
            spec.policy(),
            ReplicationPolicy::Converge { min_reps: 2, target: CiTarget::Abs(0.5), max_reps: 16 }
        );
        spec.replications = 4;
        assert_eq!(
            spec.policy(),
            ReplicationPolicy::Converge { min_reps: 4, target: CiTarget::Abs(0.5), max_reps: 16 }
        );
    }

    #[test]
    fn bad_convergence_policies_are_rejected() {
        let mut bad = small();
        bad.convergence = Some(Convergence { target: CiTarget::Rel(0.0), max_reps: 16 });
        assert!(bad.expand().is_err());

        let mut bad = small();
        bad.convergence = Some(Convergence { target: CiTarget::Abs(-1.0), max_reps: 16 });
        assert!(bad.expand().is_err());

        // max_reps below the starting count can never be satisfied.
        let mut bad = small();
        bad.replications = 8;
        bad.convergence = Some(Convergence { target: CiTarget::Rel(0.05), max_reps: 4 });
        assert!(bad.expand().is_err());

        let mut ok = small();
        ok.convergence = Some(Convergence { target: CiTarget::Rel(0.05), max_reps: 2 });
        assert!(ok.expand().is_ok(), "max_reps == max(replications, 2) is the floor");
    }

    #[test]
    fn saturation_axis_yields_one_point_per_curve() {
        let mut spec = small();
        spec.rates = RateAxis::Saturation { rel_tol: 0.1, max_probes: 16 };
        let exp = spec.expand().unwrap();
        assert_eq!(exp.points.len(), 4); // 2 topologies × 2 sizes
        for p in &exp.points {
            match p.work {
                PointWork::Saturation { lo, hi, .. } => assert!(0.0 < lo && lo < hi),
                PointWork::Rate(_) => panic!("expected saturation work"),
            }
        }
    }

    #[test]
    fn auto_geometric_tracks_the_analytic_bound() {
        let mut spec = small();
        spec.rates = RateAxis::AutoGeometric { span: 1.1, lo_div: 40.0, steps: 5 };
        let exp = spec.expand().unwrap();
        assert_eq!(exp.points.len(), 2 * 2 * 5);
        for p in &exp.points {
            let bound = quarc_analytical::quarc_saturation_rate(p.curve.n, p.curve.msg_len);
            match p.work {
                PointWork::Rate(r) => assert!(r <= bound * 1.1 + 1e-12 && r > 0.0),
                _ => panic!("expected rate work"),
            }
        }
    }
}
