//! Fail-soft campaign execution, end to end: a campaign containing a
//! deliberately panicking point (the chaos hook) and a deliberately
//! wedged point (a frozen-router fault plan under a short stall window)
//! must complete every other point, record both casualties as structured
//! artifact entries, and keep its cache free of quarantined outcomes.

use quarc_campaign::{
    run_campaign, CampaignOptions, CampaignSpec, Json, PointOutcomeKind, RateAxis,
};
use quarc_core::config::FaultPlan;
use quarc_core::topology::TopologyKind;
use quarc_sim::RunSpec;
use std::path::PathBuf;
use std::time::Duration;

/// Freeze two routers early: traffic wedges behind them and the watchdog
/// (short window, so the test stays fast) cuts the run off.
const FROZEN: FaultPlan = FaultPlan {
    seed: 3,
    onset: 200,
    dead_links: 0,
    frozen_routers: 2,
    lossy_links: 0,
    drop_per_64k: 0,
    transient_links: 0,
    transient_cycles: 0,
};

/// 2 fault plans × 2 rates = 4 points on one topology: one healthy pair,
/// one wedged pair.
fn chaos_spec(name: &str) -> CampaignSpec {
    let mut spec = CampaignSpec::new(name);
    spec.topologies = vec![TopologyKind::Quarc];
    spec.sizes = vec![8];
    spec.msg_lens = vec![4];
    spec.betas = vec![0.05];
    spec.rates = RateAxis::Explicit(vec![0.004, 0.008]);
    spec.faults = vec![FaultPlan::NONE, FROZEN];
    spec.replications = 2;
    spec.run = RunSpec {
        warmup: 150,
        measure: 1_200,
        drain: 2_400,
        stall_window: 1_500,
        ..RunSpec::default()
    };
    spec
}

/// The expansion id of one healthy point, to aim the chaos hook at.
fn healthy_point_id(spec: &CampaignSpec) -> usize {
    spec.expand()
        .unwrap()
        .points
        .iter()
        .find(|p| p.curve.fault.is_empty())
        .expect("the grid contains healthy points")
        .id
}

fn unique_dir(tag: &str) -> PathBuf {
    std::env::temp_dir().join(format!("quarc-campaign-failsoft-{tag}-{}", std::process::id()))
}

#[test]
fn panicking_and_wedged_points_quarantine_while_the_rest_complete() {
    let spec = chaos_spec("fail-soft");
    let chaos_id = healthy_point_id(&spec);
    let opts = CampaignOptions {
        workers: 2,
        quiet: true,
        chaos_panic_ids: vec![chaos_id],
        ..Default::default()
    };
    let report = run_campaign(&spec, &opts).expect("fail-soft campaigns return Ok");

    assert_eq!(report.results.len(), 4, "every point has a record, quarantined or not");
    assert_eq!(report.failed(), 1, "exactly the chaos point panicked");
    assert_eq!(report.stalled(), 2, "both frozen-router points wedge");
    assert_eq!(report.quarantined(), 3);

    for r in &report.results {
        if r.id == chaos_id {
            match &r.outcome {
                PointOutcomeKind::Failed { reason } => {
                    assert!(reason.contains("panicked"), "{reason}");
                    assert!(reason.contains("chaos hook"), "{reason}");
                }
                other => panic!("chaos point produced {other:?}"),
            }
        } else if r.point.curve.fault.is_empty() {
            // The surviving healthy point completed with real statistics.
            match &r.outcome {
                PointOutcomeKind::Rate { merged, .. } => {
                    assert_eq!(merged.reps, 2);
                    assert!(merged.unicast_mean.mean > 0.0);
                    assert!((merged.delivered_fraction.mean - 1.0).abs() < 1e-12);
                }
                other => panic!("healthy point produced {other:?}"),
            }
        } else {
            match &r.outcome {
                PointOutcomeKind::Stalled { rep, cycle, diagnostics, .. } => {
                    assert_eq!(*rep, 0, "the first replication already wedges");
                    assert!(*cycle >= spec.run.stall_window);
                    assert!(
                        diagnostics.contains("backlog"),
                        "diagnostics must describe the wedge: {diagnostics}"
                    );
                }
                other => panic!("frozen-router point produced {other:?}"),
            }
        }
    }

    // Both casualties are *structured artifact entries*: the JSON document
    // carries their kind, and the CSV stays rectangular.
    let doc = report.to_json(&spec).to_pretty();
    let parsed = Json::parse(&doc).unwrap();
    let kinds: Vec<&str> = parsed
        .get("points")
        .and_then(Json::as_arr)
        .unwrap()
        .iter()
        .map(|p| p.get("outcome").and_then(|o| o.get("kind")).and_then(Json::as_str).unwrap())
        .collect();
    assert_eq!(kinds.iter().filter(|k| **k == "failed").count(), 1);
    assert_eq!(kinds.iter().filter(|k| **k == "stalled").count(), 2);
    assert_eq!(kinds.iter().filter(|k| **k == "rate").count(), 1);
    let header_cols = report.csv().lines().next().unwrap().split(',').count();
    for line in report.csv().lines().skip(1) {
        assert_eq!(line.split(',').count(), header_cols, "ragged CSV row: {line}");
    }
}

#[test]
fn quarantined_outcomes_never_enter_the_cache() {
    let dir = unique_dir("cache");
    let _ = std::fs::remove_dir_all(&dir);
    let spec = chaos_spec("fail-soft-cache");
    let chaos_id = healthy_point_id(&spec);
    let opts = CampaignOptions {
        workers: 2,
        quiet: true,
        cache_dir: Some(dir.clone()),
        chaos_panic_ids: vec![chaos_id],
        ..Default::default()
    };
    let first = run_campaign(&spec, &opts).expect("first run");
    assert_eq!(first.quarantined(), 3);
    assert_eq!(first.from_cache, 0);

    // Second run: the surviving healthy point replays from cache; the
    // quarantined points re-diagnose (stalls and panics are never cached).
    let second = run_campaign(&spec, &opts).expect("second run");
    assert_eq!(second.from_cache, 1, "only the completed point is a cache hit");
    assert_eq!(second.quarantined(), 3, "quarantines re-diagnose on every run");
    assert_eq!(
        first.to_json(&spec).to_pretty(),
        second.to_json(&spec).to_pretty(),
        "fail-soft artifacts are still a pure function of the spec"
    );

    // Fixing the chaos (dropping the hook) heals that point without
    // touching the stalled ones.
    let healed =
        run_campaign(&spec, &CampaignOptions { chaos_panic_ids: vec![], ..opts.clone() }).unwrap();
    assert_eq!(healed.failed(), 0);
    assert_eq!(healed.stalled(), 2);
    assert_eq!(healed.from_cache, 1);
    std::fs::remove_dir_all(&dir).unwrap();
}

#[test]
fn point_timeout_quarantines_over_budget_points_without_touching_numbers() {
    // A zero budget trips immediately: every point is quarantined as
    // `failed` and flagged `timed_out` in the telemetry.
    let mut spec = chaos_spec("fail-soft-budget");
    spec.faults = vec![FaultPlan::NONE];
    let exhausted = run_campaign(
        &spec,
        &CampaignOptions { quiet: true, point_timeout: Some(Duration::ZERO), ..Default::default() },
    )
    .unwrap();
    assert_eq!(exhausted.failed(), 2);
    assert!(exhausted.point_telemetry.iter().all(|p| p.timed_out));
    for r in &exhausted.results {
        match &r.outcome {
            PointOutcomeKind::Failed { reason } => {
                assert!(reason.contains("budget"), "{reason}")
            }
            other => panic!("expected a budget failure, got {other:?}"),
        }
    }

    // A budget generous enough for every point reproduces the unbudgeted
    // campaign byte for byte.
    let unbudgeted =
        run_campaign(&spec, &CampaignOptions { quiet: true, ..Default::default() }).unwrap();
    let generous = run_campaign(
        &spec,
        &CampaignOptions {
            quiet: true,
            point_timeout: Some(Duration::from_secs(3_600)),
            ..Default::default()
        },
    )
    .unwrap();
    assert_eq!(generous.failed(), 0);
    assert!(generous.point_telemetry.iter().all(|p| !p.timed_out));
    assert_eq!(unbudgeted.to_json(&spec).to_pretty(), generous.to_json(&spec).to_pretty());

    // A saturation search's probes run under the same deadline. At n = 64
    // under the default protocol the first probe outlasts 20 ms: the point
    // is quarantined mid-probe and its search is never cached.
    let dir = unique_dir("budget-search");
    let _ = std::fs::remove_dir_all(&dir);
    let mut search = CampaignSpec::new("fail-soft-budget-search");
    search.topologies = vec![TopologyKind::Quarc];
    search.sizes = vec![64];
    search.rates = RateAxis::Saturation { rel_tol: 0.02, max_probes: 24 };
    let cut = run_campaign(
        &search,
        &CampaignOptions {
            quiet: true,
            cache_dir: Some(dir.clone()),
            point_timeout: Some(Duration::from_millis(20)),
            ..Default::default()
        },
    )
    .unwrap();
    assert_eq!(cut.failed(), 1);
    assert!(cut.point_telemetry[0].timed_out);
    match &cut.results[0].outcome {
        PointOutcomeKind::Failed { reason } => assert!(reason.contains("mid-probe"), "{reason}"),
        other => panic!("expected a budget failure, got {other:?}"),
    }
    let cached = std::fs::read_dir(&dir).map_or(0, |entries| entries.count());
    assert_eq!(cached, 0, "a cut-off search must not be cached");
    std::fs::remove_dir_all(&dir).unwrap();

    // A generous budget leaves a search byte-identical to an unbudgeted one.
    spec.rates = RateAxis::Saturation { rel_tol: 0.3, max_probes: 8 };
    let unbudgeted =
        run_campaign(&spec, &CampaignOptions { quiet: true, ..Default::default() }).unwrap();
    let generous = run_campaign(
        &spec,
        &CampaignOptions {
            quiet: true,
            point_timeout: Some(Duration::from_secs(3_600)),
            ..Default::default()
        },
    )
    .unwrap();
    assert!(matches!(generous.results[0].outcome, PointOutcomeKind::Saturation(_)));
    assert!(generous.point_telemetry.iter().all(|p| !p.timed_out));
    assert_eq!(unbudgeted.to_json(&spec).to_pretty(), generous.to_json(&spec).to_pretty());
}
