//! # quarc-campaign
//!
//! Parallel, deterministic, resumable experiment campaigns over the Quarc
//! NoC simulator — the paper's whole Figs. 9–11 / Table 1 evaluation grid
//! (topology × size × `M` × `β` × buffer depth × link latency × arbitration
//! policy × injection rate × replications) as one declarative object instead
//! of a pile of hand-rolled loops. All four topology families — Quarc,
//! Spidergon, mesh, torus — are grid axes, and every one carries every
//! traffic class, so expansion is always the exact cartesian product.
//!
//! The pipeline:
//!
//! 1. a [`spec::CampaignSpec`] expands its parameter grid into
//!    [`spec::CampaignPoint`]s (`expand`);
//! 2. a parallel map ([`executor`]) runs points across cores, each worker
//!    claiming the next unclaimed point from one shared cursor;
//! 3. each point runs its replications with seeds forked from the point's
//!    *merge hash* ([`replicate`]), merging `OnlineStats` /
//!    `LatencyHistogram` across seeds into means + 95% confidence intervals
//!    — either a fixed count, or under **convergence control**
//!    ([`spec::Convergence`]): replications grow in batches, on the
//!    worker that runs the point, until every tracked metric's 95% CI
//!    half-width meets an absolute or relative target (or a cap);
//! 4. saturation-axis campaigns bisect the rate axis ([`saturation`])
//!    instead of walking a fixed grid;
//! 5. per-replication outcomes land in a content-addressed on-disk cache
//!    ([`cache`]) as *upgradeable series* — a later campaign needing more
//!    replications (higher fixed count or a tighter CI target) resumes the
//!    stored series and simulates only the missing tail — and merged
//!    results land in JSON/CSV artifacts ([`artifact`]) recording per point
//!    the final `n`, every achieved half-width and a `converged` verdict,
//!    all rendered with the in-tree [`json`] module.
//!
//! One function per layer: `quarc_sim::run_point` simulates a replication,
//! [`extend_series`] grows a point's series, [`merge_series`] folds the
//! prefix [`decide`] picked, [`run_parallel`] is the pool.
//!
//! **Determinism contract.** Results are a pure function of the spec. Worker
//! count, scheduling order and cache state can change how long a
//! campaign takes, never what it measures — `tests/determinism.rs` and
//! `tests/convergence.rs` assert byte-identical artifacts between 1-worker
//! and N-worker runs, and `replicate`'s tests pin the stopping rule against
//! the batch size it is handed.
//! The ingredients: per-point seeds derive from merge hashes (not grid
//! position, replication protocol or timing), every simulation is
//! `quarc_sim::run_point` (a pure function), the convergence stopping rule
//! picks the smallest satisfying series *prefix* (so over-simulation cannot
//! leak into results), and results are collected by point id, not
//! completion order.

#![warn(missing_docs)]
#![warn(rust_2018_idioms)]

pub mod artifact;
pub mod cache;
pub mod executor;
pub mod hash;
pub mod json;
pub mod replicate;
pub mod result;
pub mod runner;
pub mod saturation;
pub mod spec;

pub use cache::ResultCache;
pub use executor::{default_workers, run_parallel, WorkerStats};
pub use json::Json;
pub use replicate::{
    decide, extend_series, merge_series, replication_seed, Converged, Decision, MeanCi, MergedRun,
    RepOutcome,
};
pub use result::{PointOutcomeKind, PointResult};
pub use runner::{run_campaign, CampaignError, CampaignOptions, CampaignReport, PointTelemetry};
pub use saturation::{find_saturation, Probe, SaturationResult};
pub use spec::{
    CampaignPoint, CampaignSpec, CiTarget, Convergence, CurveParams, Expansion, PointWork,
    RateAxis, ReplicationPolicy, SpecError,
};
