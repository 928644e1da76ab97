//! Allocation gate: rendering a campaign's artifacts (JSON, CSV, telemetry)
//! allocates a bounded number of times however many points it has, and
//! storing a cache entry allocates a handful of times. The counts are
//! deterministic, unlike timings, so they are asserted exactly as bounds.
//!
//! A binary of its own: the counting allocator is global. Each count is
//! taken on the current thread only, so concurrent tests cannot disturb it.

use quarc_campaign::artifact::{campaign_csv, campaign_json};
use quarc_campaign::{
    CampaignReport, CampaignSpec, Converged, MeanCi, MergedRun, PointOutcomeKind, PointResult,
    PointTelemetry, Probe, RateAxis, RepOutcome, ResultCache, SaturationResult, WorkerStats,
};
use quarc_engine::stats::LatencyHistogram;
use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;
use std::time::Duration;

thread_local! {
    static ALLOCATIONS: Cell<usize> = const { Cell::new(0) };
}

/// The system allocator, counting this thread's allocations and
/// reallocations.
struct Counting;

fn count() {
    let _ = ALLOCATIONS.try_with(|n| n.set(n.get() + 1));
}

// SAFETY: every call is forwarded unchanged to the system allocator.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        count();
        unsafe { System.alloc(layout) }
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        count();
        unsafe { System.alloc_zeroed(layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        count();
        unsafe { System.realloc(ptr, layout, new_size) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        unsafe { System.dealloc(ptr, layout) }
    }
}

#[global_allocator]
static GLOBAL: Counting = Counting;

/// `f`'s result and the allocations it made on this thread.
fn allocations<R>(f: impl FnOnce() -> R) -> (R, usize) {
    let before = ALLOCATIONS.with(Cell::get);
    let result = f();
    (result, ALLOCATIONS.with(Cell::get) - before)
}

fn spec() -> CampaignSpec {
    let mut spec = CampaignSpec::new("alloc");
    spec.rates = RateAxis::Explicit(vec![0.01]);
    spec
}

/// `points` results cycling through all four outcome kinds, with their
/// telemetry, as a finished campaign reports them.
fn report(spec: &CampaignSpec, points: usize) -> CampaignReport {
    let point = spec.expand().unwrap().points[0];
    let ci = |mean: f64| MeanCi { mean, ci95: mean / 16.0, n: 4 };
    let outcome = |id: usize| {
        let rate = 0.001 * (id % 97) as f64 + 0.0005;
        match id % 4 {
            0 => PointOutcomeKind::Rate {
                rate,
                merged: MergedRun {
                    reps: 4,
                    unicast_mean: ci(20.0 + id as f64 / 7.0),
                    bcast_reception_mean: ci(30.5),
                    bcast_completion_mean: ci(45.25),
                    throughput: ci(rate * 0.97),
                    unicast_p95: Some(63),
                    bcast_completion_p95: id.is_multiple_of(8).then_some(127),
                    unicast_samples: 12_345 + id as u64,
                    bcast_samples: 678,
                    saturated_reps: 1,
                    saturated: false,
                    delivered_fraction: ci(1.0),
                    undeliverable: 0,
                    retransmissions: 9,
                    recovered_receivers: 5,
                    converged: Converged::AbandonedSaturated,
                },
            },
            1 => PointOutcomeKind::Saturation(SaturationResult {
                sustained: rate,
                collapsed: (id % 8 == 1).then_some(rate * 1.1),
                probes: (0..6).map(|p| Probe { rate: rate * p as f64, saturated: p > 3 }).collect(),
            }),
            2 => PointOutcomeKind::Stalled {
                rate,
                rep: 1,
                cycle: 4_200 + id as u64,
                diagnostics: format!("backlog={id} buffered=\"9\"\n\u{1}"),
            },
            _ => PointOutcomeKind::Failed { reason: format!("panicked: point {id}\\") },
        }
    };
    let results: Vec<PointResult> = (0..points)
        .map(|id| PointResult {
            id,
            label: format!("{}-{id}", PointResult::label_for(&point)),
            point,
            content_hash: (id as u64).wrapping_mul(0x9e37_79b9_7f4a_7c15),
            from_cache: id.is_multiple_of(3),
            outcome: outcome(id),
        })
        .collect();
    let point_telemetry = results
        .iter()
        .map(|r| PointTelemetry {
            id: r.id,
            label: r.label.clone(),
            wall: Duration::from_micros(r.id as u64 * 37),
            simulated_reps: r.id % 5,
            reps_cached: r.id % 3,
            from_cache: r.from_cache,
            timed_out: false,
        })
        .collect();
    CampaignReport {
        results,
        skipped: vec!["none \"really\"".into()],
        executed: points,
        from_cache: 0,
        reps_simulated: points,
        reps_cached: 0,
        workers: 2,
        artifacts: Vec::new(),
        wall: Duration::from_millis(1234),
        worker_stats: vec![
            WorkerStats {
                steps: 10,
                steals: 2,
                busy: Duration::from_millis(900),
                wall: Duration::from_millis(1200)
            };
            2
        ],
        point_telemetry,
    }
}

#[test]
fn rendering_the_artifacts_allocates_a_bounded_number_of_times() {
    let spec = spec();
    for points in [1_000, 2_000] {
        let report = report(&spec, points);
        let (rendered, allocated) = allocations(|| {
            let json = campaign_json(&spec, &report.results, &report.skipped).to_pretty();
            (json, campaign_csv(&report.results), report.telemetry(&spec))
        });
        eprintln!("{points} points: {allocated} allocations");
        let (json, csv, telemetry) = rendered;
        assert!(json.len() > 500 * points && csv.len() > 50 * points);
        assert!(telemetry.len() > 150 * points);
        assert!(allocated <= 32, "{points} points took {allocated} allocations");
    }
}

#[test]
fn storing_a_series_allocates_a_handful_of_times() {
    let mut buckets = [0u64; 65];
    buckets[3..12].iter_mut().enumerate().for_each(|(i, c)| *c = 100 << i);
    let rep = |i: u64| RepOutcome {
        unicast_mean: 20.0 + i as f64 / 3.0,
        bcast_reception_mean: 31.25,
        bcast_completion_mean: 47.5,
        throughput: 0.0123,
        unicast_hist: LatencyHistogram::from_parts(buckets, 987_654_321 + i as u128),
        bcast_hist: LatencyHistogram::from_parts(buckets, 123_456_789),
        saturated: i % 2 == 1,
        delivered_fraction: 1.0,
        undeliverable: 0,
        retransmissions: i,
        recovered_receivers: 0,
    };
    let series: Vec<RepOutcome> = (0..8).map(rep).collect();
    let dir = std::env::temp_dir().join(format!("quarc-alloc-gate-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    let cache = ResultCache::open(&dir).unwrap();
    let key = "v5|quarc|n=16|synthetic merge key";
    let (stored, allocated) = allocations(|| cache.store_series(7, key, &series));
    stored.unwrap();
    eprintln!("store_series of 8 replications: {allocated} allocations");
    assert!(allocated <= 16, "store_series took {allocated} allocations");
    assert_eq!(cache.load_series(7, key), Some(series));
    std::fs::remove_dir_all(&dir).unwrap();
}
