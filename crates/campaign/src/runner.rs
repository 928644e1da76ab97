//! Campaign orchestration: expand → consult cache → execute in parallel →
//! persist → render artifacts.

use crate::artifact::{self, write_atomically, CampaignDocument};
use crate::cache::ResultCache;
use crate::executor::{default_workers, run_parallel, WorkerStats};
use crate::hash::fnv1a64;
use crate::json::{Encode, Writer};
use crate::replicate::{
    decide, extend_series, merge_series, replication_seed, Converged, Decision,
};
use crate::result::{PointOutcomeKind, PointResult};
use crate::saturation::find_saturation;
use crate::spec::{CampaignPoint, CampaignSpec, PointWork, SpecError};
use quarc_sim::{run_point, RunOutcome};
use std::fmt;
use std::io;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::path::PathBuf;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::time::{Duration, Instant};

/// How many replications a convergence-controlled point simulates between
/// two budget checks and cache writes. The canonical stopping rule makes
/// reported numbers independent of it.
const BATCH_REPS: u32 = 4;

/// Execution options orthogonal to the experiment definition. None of them
/// may change any measured number — only where results come from, where they
/// go, and how many threads produce them.
#[derive(Debug, Clone, Default)]
pub struct CampaignOptions {
    /// Worker threads; `0` means the machine's available parallelism.
    pub workers: usize,
    /// Result-cache directory (no caching when `None`).
    pub cache_dir: Option<PathBuf>,
    /// Artifact output directory (no files written when `None`).
    pub out_dir: Option<PathBuf>,
    /// Suppress per-point progress on stderr.
    pub quiet: bool,
    /// Per-point wall-clock budget: a point still unfinished this long
    /// after it started is quarantined as [`PointOutcomeKind::Failed`]
    /// instead of pinning a worker. Checked when the point starts, between
    /// replication batches *and* cooperatively inside each replication and
    /// saturation-search probe (at the stall watchdog's cadence), so a
    /// single runaway run is cut off mid-run. `None` = unbounded. Never
    /// caches and never alters a completed point's numbers — a budget
    /// generous enough for every point to finish reproduces the unbudgeted
    /// campaign byte for byte.
    pub point_timeout: Option<Duration>,
    /// Test-only chaos hook: points whose expansion id is listed here panic
    /// as soon as they start, exercising the fail-soft path. Hidden
    /// because campaigns must never use it; the fail-soft tests must.
    #[doc(hidden)]
    pub chaos_panic_ids: Vec<usize>,
}

/// What a campaign run produced.
#[derive(Debug)]
pub struct CampaignReport {
    /// Per-point results in expansion order.
    pub results: Vec<PointResult>,
    /// Grid combinations dropped at expansion (always recorded; empty today).
    pub skipped: Vec<String>,
    /// Points that simulated at least one replication (or probe) this run —
    /// including cached points that only needed a top-up.
    pub executed: usize,
    /// Points served entirely from the result cache.
    pub from_cache: usize,
    /// Replications simulated this run, across all points.
    pub reps_simulated: usize,
    /// Cached replications reused in reported merges this run.
    pub reps_cached: usize,
    /// Worker threads used.
    pub workers: usize,
    /// Artifact files written (empty without an output directory).
    pub artifacts: Vec<PathBuf>,
    /// Wall-clock duration of the execution phase.
    pub wall: Duration,
    /// Per-worker pool accounting (busy fraction, steps, claims beyond an
    /// even share).
    pub worker_stats: Vec<WorkerStats>,
    /// Per-point execution accounting, in expansion order.
    pub point_telemetry: Vec<PointTelemetry>,
}

/// How one point was executed: where its replications came from and how
/// long the simulation work took. Pure telemetry — kept out of the campaign
/// JSON/CSV artifacts so those stay pure functions of the spec.
#[derive(Debug, Clone)]
pub struct PointTelemetry {
    /// Expansion-order id (matches [`PointResult::id`]).
    pub id: usize,
    /// The point's display label.
    pub label: String,
    /// Wall time spent running this point (zero-ish for a pure cache hit).
    pub wall: Duration,
    /// Replications simulated this run.
    pub simulated_reps: usize,
    /// Cached replications reused in the reported merge.
    pub reps_cached: usize,
    /// Served entirely from the result cache.
    pub from_cache: bool,
    /// Quarantined by the per-point wall-clock budget
    /// ([`CampaignOptions::point_timeout`]).
    pub timed_out: bool,
}

impl PointTelemetry {
    /// Whether this point was a convergence/replication top-up: cached work
    /// was reused but the tail still had to be simulated.
    fn is_topup(&self) -> bool {
        self.simulated_reps > 0 && self.reps_cached > 0
    }
}

impl Encode for PointTelemetry {
    fn write(&self, w: &mut Writer) {
        let how = if self.from_cache {
            "cache"
        } else if self.is_topup() {
            "top-up"
        } else {
            "ran"
        };
        w.open('{');
        w.field("id", self.id);
        w.field("label", &self.label);
        w.field("how", how);
        w.field("wall_s", self.wall.as_secs_f64());
        w.field("reps_simulated", self.simulated_reps);
        w.field("reps_cached", self.reps_cached);
        w.field("timed_out", self.timed_out);
        w.close('}');
    }
}

impl CampaignReport {
    /// The JSON artifact document (pure function of spec + results).
    pub fn to_json<'a>(&'a self, spec: &'a CampaignSpec) -> CampaignDocument<'a> {
        artifact::campaign_json(spec, &self.results, &self.skipped)
    }

    /// The CSV artifact table.
    pub fn csv(&self) -> String {
        artifact::campaign_csv(&self.results)
    }

    /// Points that reused cached replications but still simulated a tail.
    pub fn topups(&self) -> usize {
        self.point_telemetry.iter().filter(|p| p.is_topup()).count()
    }

    /// Points quarantined this run (stalled + failed). A fail-soft campaign
    /// still exits 0 with quarantined points — callers that want to gate on
    /// them read this.
    pub fn quarantined(&self) -> usize {
        self.stalled() + self.failed()
    }

    /// Points whose stall watchdog fired.
    pub fn stalled(&self) -> usize {
        self.results
            .iter()
            .filter(|r| matches!(r.outcome, PointOutcomeKind::Stalled { .. }))
            .count()
    }

    /// Points that panicked or blew their wall-clock budget.
    pub fn failed(&self) -> usize {
        self.results.iter().filter(|r| matches!(r.outcome, PointOutcomeKind::Failed { .. })).count()
    }

    /// The execution-telemetry document, rendered. Deliberately a
    /// *separate* artifact from [`CampaignReport::to_json`]: it records
    /// timing, cache traffic and scheduling — everything the pure campaign
    /// artifact must exclude.
    pub fn telemetry(&self, spec: &CampaignSpec) -> String {
        let timed_out = self.point_telemetry.iter().filter(|p| p.timed_out).count();
        let mut w = Writer::pretty(1024 + 256 * (self.workers + self.point_telemetry.len()));
        w.open('{');
        w.field("campaign", &spec.name);
        w.field("kind", "execution-telemetry");
        w.field("wall_s", self.wall.as_secs_f64());
        w.field("workers", self.workers);
        w.key("quarantine").open('{');
        w.field("stalled", self.stalled());
        w.field("failed", self.failed());
        w.field("timed_out", timed_out);
        w.close('}').key("cache").open('{');
        w.field("hits", self.from_cache);
        w.field("misses", self.executed - self.topups());
        w.field("topups", self.topups());
        w.field("reps_simulated", self.reps_simulated);
        w.field("reps_cached", self.reps_cached);
        w.close('}').key("worker_stats").open('[');
        for (worker, s) in self.worker_stats.iter().enumerate() {
            w.open('{');
            w.field("worker", worker);
            w.field("steps", s.steps);
            w.field("steals", s.steals);
            w.field("busy_s", s.busy.as_secs_f64());
            w.field("wall_s", s.wall.as_secs_f64());
            w.field("busy_fraction", s.busy_fraction());
            w.close('}');
        }
        w.close(']').field("points", &self.point_telemetry);
        w.close('}');
        w.finish()
    }
}

/// A campaign failure.
#[derive(Debug)]
pub enum CampaignError {
    /// The spec failed validation/expansion.
    Spec(SpecError),
    /// Cache or artifact I/O failed.
    Io(io::Error),
}

impl fmt::Display for CampaignError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            CampaignError::Spec(e) => write!(f, "{e}"),
            CampaignError::Io(e) => write!(f, "campaign I/O error: {e}"),
        }
    }
}

impl std::error::Error for CampaignError {}

impl From<SpecError> for CampaignError {
    fn from(e: SpecError) -> Self {
        CampaignError::Spec(e)
    }
}

impl From<io::Error> for CampaignError {
    fn from(e: io::Error) -> Self {
        CampaignError::Io(e)
    }
}

/// Everything a point needs besides its own coordinates.
struct PointContext<'a> {
    spec: &'a CampaignSpec,
    opts: &'a CampaignOptions,
    cache: Option<&'a ResultCache>,
}

/// One point's identity and replication accounting while it runs.
struct PointTask {
    point: CampaignPoint,
    /// The merge key, formatted once, and its hash.
    merge_key: String,
    merge_hash: u64,
    /// Replications loaded from the cache.
    cached_reps: usize,
    /// Replications (or saturation probes) simulated by this run.
    simulated_reps: usize,
}

/// Best-effort human rendering of a panic payload.
fn panic_reason(payload: Box<dyn std::any::Any + Send>) -> String {
    if let Some(s) = payload.downcast_ref::<&str>() {
        (*s).to_string()
    } else if let Some(s) = payload.downcast_ref::<String>() {
        s.clone()
    } else {
        "non-string panic payload".to_string()
    }
}

impl PointTask {
    /// Close the point: the one place its artifact record and its execution
    /// accounting are assembled. `wall` is the point's whole run time;
    /// `timed_out` marks a quarantine by the wall-clock budget.
    fn finish(
        &self,
        ctx: &PointContext<'_>,
        outcome: PointOutcomeKind,
        wall: Duration,
        timed_out: bool,
    ) -> (PointResult, PointTelemetry) {
        // Cached replications count only where they entered a reported
        // merge; a search is served from the cache exactly when it probed
        // nothing (a simulated search always probes its floor).
        let (reps_cached, from_cache) = match &outcome {
            PointOutcomeKind::Rate { merged, .. } => (
                self.cached_reps.min(merged.reps as usize),
                self.simulated_reps == 0 && self.cached_reps > 0,
            ),
            PointOutcomeKind::Saturation(_) => (0, self.simulated_reps == 0),
            PointOutcomeKind::Stalled { .. } | PointOutcomeKind::Failed { .. } => (0, false),
        };
        let label = PointResult::label_for(&self.point);
        (
            PointResult {
                id: self.point.id,
                label: label.clone(),
                point: self.point,
                content_hash: fnv1a64(
                    self.point.content_key_from(&self.merge_key, ctx.spec).as_bytes(),
                ),
                from_cache,
                outcome,
            },
            PointTelemetry {
                id: self.point.id,
                label,
                wall,
                simulated_reps: self.simulated_reps,
                reps_cached,
                from_cache,
                timed_out,
            },
        )
    }

    /// Run one whole point, fail-soft. A panic anywhere inside it — a
    /// simulator bug, a poisoned cache entry, the chaos hook — is caught
    /// here and turned into a structured [`PointOutcomeKind::Failed`] so the
    /// rest of the campaign keeps running. Nothing quarantined is ever
    /// cached.
    fn run(point: CampaignPoint, ctx: &PointContext<'_>) -> (PointResult, PointTelemetry) {
        let start = Instant::now();
        let merge_key = point.merge_key(ctx.spec);
        let mut task = PointTask {
            point,
            merge_hash: fnv1a64(merge_key.as_bytes()),
            merge_key,
            cached_reps: 0,
            simulated_reps: 0,
        };
        // `simulated_reps` moves only once its replications are in the
        // series, so after a panic it still describes completed work.
        let (outcome, timed_out) = catch_unwind(AssertUnwindSafe(|| {
            if ctx.opts.chaos_panic_ids.contains(&point.id) {
                panic!("chaos hook: point {} configured to panic", point.id);
            }
            task.execute(ctx, start)
        }))
        .unwrap_or_else(|payload| {
            let reason = format!("panicked: {}", panic_reason(payload));
            (PointOutcomeKind::Failed { reason }, false)
        });
        task.finish(ctx, outcome, start.elapsed(), timed_out)
    }

    /// The point's outcome and whether the wall-clock budget cut it off.
    /// A search is one sequential bisection; a rate point consults the
    /// cache once, then loops budget check → `decide` → simulate a batch →
    /// persist until its series is ready, stalls or runs out of budget.
    fn execute(&mut self, ctx: &PointContext<'_>, start: Instant) -> (PointOutcomeKind, bool) {
        let (merge_key, merge_hash) = (&self.merge_key, self.merge_hash);
        let curve = self.point.curve;
        let cache_failed = |e: io::Error| {
            if !ctx.opts.quiet {
                eprintln!("campaign: failed to cache {merge_key}: {e}");
            }
        };
        let budget = ctx.opts.point_timeout;
        let over_budget = || {
            let (spent, budget) = (start.elapsed(), budget?);
            (spent >= budget).then(|| {
                let reason = format!(
                    "wall-clock budget exhausted: {:.1}s spent of {:.1}s allowed",
                    spent.as_secs_f64(),
                    budget.as_secs_f64(),
                );
                (PointOutcomeKind::Failed { reason }, true)
            })
        };
        if let Some(quarantined) = over_budget() {
            return quarantined;
        }
        // The budget as an absolute deadline that replications and probes
        // check cooperatively.
        let deadline = budget.map(|budget| start + budget);
        let cut_off = |what: String| {
            let budget = budget.expect("deadline interrupts only occur with a budget");
            let reason = format!(
                "wall-clock budget exhausted mid-{what} ({:.1}s allowed)",
                budget.as_secs_f64(),
            );
            (PointOutcomeKind::Failed { reason }, true)
        };
        let rate = match self.point.work {
            PointWork::Rate(rate) => rate,
            PointWork::Saturation { lo, hi, rel_tol, max_probes } => {
                if let Some(cached) =
                    ctx.cache.and_then(|c| c.load_saturation(merge_hash, merge_key))
                {
                    return (PointOutcomeKind::Saturation(cached), false);
                }
                // Common random numbers across probes: one seed (replication
                // 0) for the whole search keeps the frontier estimate
                // monotone.
                let seed = replication_seed(ctx.spec.base_seed, merge_hash, 0);
                let searched = find_saturation(
                    |rate| {
                        match run_point(&curve.point(rate, seed), &ctx.spec.run, deadline)
                            .expect("expansion validated this configuration")
                        {
                            RunOutcome::DeadlineExceeded { cycle, .. } => Err((rate, cycle)),
                            // A stalled probe reads as saturated.
                            outcome => {
                                self.simulated_reps += 1;
                                Ok(outcome.result().saturated)
                            }
                        }
                    },
                    lo,
                    hi,
                    rel_tol,
                    max_probes,
                );
                return match searched {
                    Ok(result) => {
                        if let Some(c) = ctx.cache {
                            c.store_saturation(merge_hash, merge_key, &result)
                                .unwrap_or_else(cache_failed);
                        }
                        (PointOutcomeKind::Saturation(result), false)
                    }
                    Err((rate, cycle)) => {
                        cut_off(format!("probe: rate {rate} cut off at cycle {cycle}"))
                    }
                };
            }
        };
        let mut series = Vec::new();
        if let Some(cached) = ctx.cache.and_then(|c| c.load_series(merge_hash, merge_key)) {
            self.cached_reps = cached.len();
            series = cached;
        }
        loop {
            let upto = match decide(&ctx.spec.policy(), &series, BATCH_REPS) {
                Decision::Ready { n, converged } => {
                    let merged = merge_series(&series, n, converged);
                    return (PointOutcomeKind::Rate { rate, merged }, false);
                }
                Decision::NeedMore { upto } => upto,
            };
            let before = series.len();
            let interrupted = extend_series(
                &mut series,
                // `extend_series` seeds each replication.
                &curve.point(rate, 0),
                &ctx.spec.run,
                ctx.spec.base_seed,
                merge_hash,
                upto,
                deadline,
            );
            self.simulated_reps += series.len() - before;
            // Persist after every batch: an interrupted campaign resumes
            // from its last batch, not from scratch. The replications
            // completed *before* a stall are valid outcomes and persist too
            // — only the stall itself is quarantined (never cached), so a
            // wedged point re-diagnoses on every run until the config is
            // fixed.
            if !series.is_empty() {
                if let Some(c) = ctx.cache {
                    c.store_series(merge_hash, merge_key, &series).unwrap_or_else(cache_failed);
                }
            }
            match interrupted {
                None => {}
                Some((rep, RunOutcome::Stalled { cycle, diagnostics, .. })) => {
                    let diagnostics = diagnostics.to_string();
                    return (PointOutcomeKind::Stalled { rate, rep, cycle, diagnostics }, false);
                }
                Some((rep, RunOutcome::DeadlineExceeded { cycle, .. })) => {
                    return cut_off(format!("replication: rep {rep} cut off at cycle {cycle}"));
                }
                Some((_, RunOutcome::Finished(_))) => {
                    unreachable!("extend_series appends finished replications")
                }
            }
            if let Some(quarantined) = over_budget() {
                return quarantined;
            }
        }
    }
}

/// One finished point's line of live progress: where its numbers came from
/// and its verdict.
fn progress_line(result: &PointResult, telemetry: &PointTelemetry) -> String {
    let how = if telemetry.from_cache {
        "cache".to_string()
    } else if telemetry.reps_cached > 0 {
        format!("top-up +{}", telemetry.simulated_reps)
    } else {
        "ran".to_string()
    };
    let verdict = match &result.outcome {
        PointOutcomeKind::Rate { merged, .. } => {
            format!(
                " n={}{}",
                merged.reps,
                match merged.converged {
                    Converged::Yes => "",
                    Converged::No => " !conv",
                    Converged::AbandonedSaturated => " sat-abandoned",
                }
            )
        }
        PointOutcomeKind::Saturation(_) => String::new(),
        PointOutcomeKind::Stalled { rep, cycle, .. } => {
            format!(" STALLED rep {rep} @ cycle {cycle}")
        }
        PointOutcomeKind::Failed { reason } => format!(" FAILED: {reason}"),
    };
    format!("{:<40} ({how}{verdict})", result.label)
}

/// Run a campaign: expand the grid, run its points on a parallel map (each
/// point resumes from the cache, simulates what is missing and persists
/// it), write artifacts.
///
/// Determinism guarantee: `results` (and therefore both artifacts) are a
/// pure function of `spec`. Worker count, claim order and cache hits
/// can change only the execution accounting
/// (`executed`/`from_cache`/`reps_*`/`wall`) — never a number. The per-point
/// tests and `tests/determinism.rs`/`tests/convergence.rs` hold this to
/// bit-equality.
pub fn run_campaign(
    spec: &CampaignSpec,
    opts: &CampaignOptions,
) -> Result<CampaignReport, CampaignError> {
    let expansion = spec.expand()?;
    let cache = match &opts.cache_dir {
        Some(dir) => Some(ResultCache::open(dir)?),
        None => None,
    };
    let workers = if opts.workers == 0 { default_workers() } else { opts.workers };
    let ctx = PointContext { spec, opts, cache: cache.as_ref() };

    let total = expansion.points.len();
    // Live progress is the only state the workers share; every total below
    // is folded from the per-point records the pool returns.
    let done = AtomicUsize::new(0);
    let start = Instant::now();

    let (records, worker_stats) = run_parallel(&expansion.points, workers, |_, &point| {
        let (result, telemetry) = PointTask::run(point, &ctx);
        if !opts.quiet {
            let n = done.fetch_add(1, Ordering::Relaxed) + 1;
            eprintln!("campaign [{n:>4}/{total}] {}", progress_line(&result, &telemetry));
        }
        (result, telemetry)
    });
    let wall = start.elapsed();
    let (results, point_telemetry): (Vec<PointResult>, Vec<PointTelemetry>) =
        records.into_iter().unzip();
    let from_cache = point_telemetry.iter().filter(|p| p.from_cache).count();

    let mut report = CampaignReport {
        results,
        skipped: expansion.skipped,
        executed: total - from_cache,
        from_cache,
        reps_simulated: point_telemetry.iter().map(|p| p.simulated_reps).sum(),
        reps_cached: point_telemetry.iter().map(|p| p.reps_cached).sum(),
        workers,
        artifacts: Vec::new(),
        wall,
        worker_stats,
        point_telemetry,
    };
    if let Some(dir) = &opts.out_dir {
        report.artifacts = artifact::write_artifacts(dir, spec, &report.results, &report.skipped)?;
        // Telemetry is its own file: the main JSON/CSV artifacts stay pure
        // functions of the spec, this one records how the run actually went.
        let path = dir.join(format!("{}.telemetry.json", spec.name));
        write_atomically(&path, report.telemetry(spec).as_bytes())?;
        report.artifacts.push(path);
    }
    Ok(report)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::spec::{CiTarget, Convergence, RateAxis};
    use quarc_sim::RunSpec;

    fn tiny_spec(name: &str) -> CampaignSpec {
        let mut spec = CampaignSpec::new(name);
        spec.sizes = vec![8];
        spec.msg_lens = vec![4];
        spec.betas = vec![0.0];
        spec.rates = RateAxis::Explicit(vec![0.005, 0.01]);
        spec.replications = 2;
        spec.run = RunSpec { warmup: 100, measure: 800, drain: 1_600, ..Default::default() };
        spec
    }

    fn unique_dir(tag: &str) -> PathBuf {
        std::env::temp_dir().join(format!("quarc-campaign-runner-{tag}-{}", std::process::id()))
    }

    #[test]
    fn campaign_runs_and_reports() {
        let spec = tiny_spec("runner-basic");
        let report =
            run_campaign(&spec, &CampaignOptions { workers: 2, quiet: true, ..Default::default() })
                .unwrap();
        assert_eq!(report.results.len(), 4); // 2 topologies × 2 rates
        assert_eq!(report.executed, 4);
        assert_eq!(report.from_cache, 0);
        assert_eq!(report.reps_simulated, 8);
        assert_eq!(report.reps_cached, 0);
        for (i, r) in report.results.iter().enumerate() {
            assert_eq!(r.id, i);
            match &r.outcome {
                PointOutcomeKind::Rate { merged, .. } => {
                    assert_eq!(merged.reps, 2);
                    assert!(merged.unicast_mean.mean > 0.0);
                    assert_eq!(
                        merged.converged,
                        Converged::Yes,
                        "fixed protocols are vacuously converged"
                    );
                }
                other => panic!("unexpected outcome {other:?}"),
            }
        }
    }

    #[test]
    fn second_run_is_fully_cached_and_identical() {
        let dir = unique_dir("cached");
        let _ = std::fs::remove_dir_all(&dir);
        let spec = tiny_spec("runner-cache");
        let opts = CampaignOptions {
            workers: 2,
            cache_dir: Some(dir.clone()),
            quiet: true,
            ..Default::default()
        };
        let first = run_campaign(&spec, &opts).unwrap();
        assert_eq!(first.executed, 4);
        let second = run_campaign(&spec, &opts).unwrap();
        assert_eq!(second.executed, 0);
        assert_eq!(second.from_cache, 4);
        assert_eq!(second.reps_simulated, 0);
        assert_eq!(second.reps_cached, 8);
        assert_eq!(
            first.to_json(&spec).to_pretty(),
            second.to_json(&spec).to_pretty(),
            "cached artifact must be byte-identical to the simulated one"
        );
        // Re-simulating without the cache cannot move a number either.
        let uncached =
            run_campaign(&spec, &CampaignOptions { cache_dir: None, ..opts.clone() }).unwrap();
        assert_eq!(uncached.executed, 4);
        assert_eq!(first.to_json(&spec).to_pretty(), uncached.to_json(&spec).to_pretty());
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn spec_change_invalidates_only_affected_points() {
        let dir = unique_dir("invalidate");
        let _ = std::fs::remove_dir_all(&dir);
        let mut spec = tiny_spec("runner-grow");
        let opts = CampaignOptions {
            workers: 2,
            cache_dir: Some(dir.clone()),
            quiet: true,
            ..Default::default()
        };
        run_campaign(&spec, &opts).unwrap();
        // Add one rate: old points hit, new points run.
        if let RateAxis::Explicit(rates) = &mut spec.rates {
            rates.push(0.02);
        }
        let grown = run_campaign(&spec, &opts).unwrap();
        assert_eq!(grown.from_cache, 4);
        assert_eq!(grown.executed, 2);
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn replication_growth_tops_up_instead_of_rerunning() {
        // The v3 upgrade story at the fixed-protocol level: raising
        // --replications reuses every cached replication and simulates only
        // the missing tail; lowering it is a pure cache hit on a prefix.
        let dir = unique_dir("topup");
        let _ = std::fs::remove_dir_all(&dir);
        let mut spec = tiny_spec("runner-topup");
        let opts = CampaignOptions {
            workers: 2,
            cache_dir: Some(dir.clone()),
            quiet: true,
            ..Default::default()
        };
        run_campaign(&spec, &opts).unwrap();
        spec.replications = 5;
        let grown = run_campaign(&spec, &opts).unwrap();
        assert_eq!(grown.executed, 4, "every point needed a top-up");
        assert_eq!(grown.from_cache, 0);
        assert_eq!(grown.reps_simulated, 4 * 3, "only the 3 missing replications per point");
        assert_eq!(grown.reps_cached, 4 * 2);
        // And the topped-up artifact equals a from-scratch 5-replication run.
        let fresh =
            run_campaign(&spec, &CampaignOptions { workers: 2, quiet: true, ..Default::default() })
                .unwrap();
        assert_eq!(grown.to_json(&spec).to_pretty(), fresh.to_json(&spec).to_pretty());

        spec.replications = 3;
        let shrunk = run_campaign(&spec, &opts).unwrap();
        assert_eq!(shrunk.from_cache, 4, "a prefix of a cached series is a pure hit");
        assert_eq!(shrunk.reps_simulated, 0);
        assert_eq!(shrunk.reps_cached, 4 * 3);
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn convergent_campaign_reports_reached_targets() {
        let mut spec = tiny_spec("runner-conv");
        spec.convergence = Some(Convergence { target: CiTarget::Rel(0.25), max_reps: 12 });
        let report =
            run_campaign(&spec, &CampaignOptions { workers: 2, quiet: true, ..Default::default() })
                .unwrap();
        for r in &report.results {
            match &r.outcome {
                PointOutcomeKind::Rate { merged, .. } => {
                    assert!(merged.reps >= 2 && merged.reps <= 12);
                    if merged.converged == Converged::Yes {
                        for m in [
                            &merged.unicast_mean,
                            &merged.bcast_reception_mean,
                            &merged.bcast_completion_mean,
                            &merged.throughput,
                        ] {
                            assert!(m.meets(CiTarget::Rel(0.25)), "{:?} too wide in {r:?}", m);
                        }
                    } else if merged.converged == Converged::No {
                        assert_eq!(merged.reps, 12, "unconverged points stop at the cap");
                    } else {
                        assert!(
                            merged.saturated,
                            "early abandon only ever fires on saturated points"
                        );
                    }
                }
                other => panic!("unexpected outcome {other:?}"),
            }
        }
    }

    #[test]
    fn saturation_campaign_finds_a_frontier() {
        let mut spec = tiny_spec("runner-sat");
        spec.topologies = vec![quarc_core::topology::TopologyKind::Quarc];
        spec.rates = RateAxis::Saturation { rel_tol: 0.25, max_probes: 12 };
        let report =
            run_campaign(&spec, &CampaignOptions { workers: 2, quiet: true, ..Default::default() })
                .unwrap();
        assert_eq!(report.results.len(), 1);
        match &report.results[0].outcome {
            PointOutcomeKind::Saturation(s) => {
                assert!(s.sustained > 0.0, "{s:?}");
                assert!(s.collapsed.is_some(), "{s:?}");
                assert!((s.probes.len() as u32) <= 12);
            }
            other => panic!("unexpected outcome {other:?}"),
        }
    }

    #[test]
    fn artifacts_are_written() {
        let dir = unique_dir("artifacts");
        let _ = std::fs::remove_dir_all(&dir);
        let spec = tiny_spec("runner-artifacts");
        let report = run_campaign(
            &spec,
            &CampaignOptions {
                workers: 1,
                out_dir: Some(dir.clone()),
                quiet: true,
                ..Default::default()
            },
        )
        .unwrap();
        assert_eq!(report.artifacts.len(), 3);
        let json_text = std::fs::read_to_string(&report.artifacts[0]).unwrap();
        let parsed = crate::json::Json::parse(&json_text).unwrap();
        assert_eq!(
            parsed
                .get("points")
                .and_then(crate::json::Json::as_arr)
                .map(<[crate::json::Json]>::len),
            Some(4)
        );
        let csv_text = std::fs::read_to_string(&report.artifacts[1]).unwrap();
        assert_eq!(csv_text.lines().count(), 1 + 4);
        let telemetry_text = std::fs::read_to_string(&report.artifacts[2]).unwrap();
        let telemetry = crate::json::Json::parse(&telemetry_text).unwrap();
        assert_eq!(
            telemetry.get("kind").and_then(crate::json::Json::as_str),
            Some("execution-telemetry")
        );
        assert_eq!(
            telemetry
                .get("points")
                .and_then(crate::json::Json::as_arr)
                .map(<[crate::json::Json]>::len),
            Some(4)
        );
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn telemetry_accounts_for_every_point_without_touching_results() {
        let dir = unique_dir("telemetry");
        let _ = std::fs::remove_dir_all(&dir);
        let spec = tiny_spec("runner-telemetry");
        let opts = CampaignOptions {
            workers: 2,
            cache_dir: Some(dir.clone()),
            quiet: true,
            ..Default::default()
        };
        let first = run_campaign(&spec, &opts).unwrap();
        assert_eq!(first.point_telemetry.len(), 4);
        assert!(first.point_telemetry.iter().all(|p| !p.from_cache && p.simulated_reps == 2));
        assert_eq!(first.topups(), 0);
        assert!(!first.worker_stats.is_empty());
        // Each point is exactly one pool step.
        assert_eq!(first.worker_stats.iter().map(|w| w.steps).sum::<u64>(), 4);

        // A fully-cached rerun flips the telemetry but not one artifact byte.
        let second = run_campaign(&spec, &opts).unwrap();
        assert!(second.point_telemetry.iter().all(|p| p.from_cache && p.simulated_reps == 0));
        assert_eq!(first.to_json(&spec).to_pretty(), second.to_json(&spec).to_pretty());
        std::fs::remove_dir_all(&dir).unwrap();
    }
}
