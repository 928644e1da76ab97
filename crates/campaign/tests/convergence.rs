//! Convergence control, held to the same standard as the rest of the
//! campaign layer: the reported numbers are a pure function of the spec —
//! independent of worker count, scheduling and cache state —
//! and the cache upgrades (tops up) rather than recomputes when a later
//! campaign needs more replications than an earlier one stored.

use quarc_campaign::{
    run_campaign, CampaignOptions, CampaignSpec, CiTarget, Converged, Convergence,
    PointOutcomeKind, RateAxis,
};
use quarc_core::topology::TopologyKind;
use quarc_sim::RunSpec;
use std::path::PathBuf;

fn quick_run() -> RunSpec {
    RunSpec { warmup: 150, measure: 1_200, drain: 2_400, ..Default::default() }
}

fn convergent_spec(name: &str) -> CampaignSpec {
    let mut spec = CampaignSpec::new(name);
    spec.topologies = vec![TopologyKind::Quarc, TopologyKind::Spidergon];
    spec.sizes = vec![8];
    spec.msg_lens = vec![4];
    spec.betas = vec![0.0, 0.05];
    spec.rates = RateAxis::Explicit(vec![0.004, 0.008]);
    spec.replications = 2;
    spec.convergence = Some(Convergence { target: CiTarget::Rel(0.2), max_reps: 24 });
    spec.run = quick_run();
    spec
}

fn unique_dir(tag: &str) -> PathBuf {
    std::env::temp_dir().join(format!("quarc-campaign-conv-{tag}-{}", std::process::id()))
}

#[test]
fn batch_schedule_and_worker_count_cannot_move_a_number() {
    // The satellite determinism pin: 1 worker vs N workers — points land
    // in different orders on different threads, yet the merged means (the
    // whole artifact, in fact) must be bit-identical, because the canonical
    // stopping rule picks the same series prefix regardless of how the
    // series was produced. `replicate::tests` pin independence from the
    // batch size `decide` is handed.
    let spec = convergent_spec("conv-determinism");
    let mut artifacts = Vec::new();
    for workers in [1, 4] {
        let report =
            run_campaign(&spec, &CampaignOptions { workers, quiet: true, ..Default::default() })
                .expect("campaign runs");
        artifacts.push((workers, report.to_json(&spec).to_pretty(), report.csv()));
    }
    let (_, ref json0, ref csv0) = artifacts[0];
    for (workers, json, csv) in &artifacts[1..] {
        assert_eq!(json0, json, "JSON diverged at {workers} workers");
        assert_eq!(csv0, csv, "CSV diverged at {workers} workers");
    }
}

#[test]
fn convergent_points_report_reached_targets_and_replication_counts() {
    let spec = convergent_spec("conv-targets");
    let report =
        run_campaign(&spec, &CampaignOptions { workers: 4, quiet: true, ..Default::default() })
            .expect("campaign runs");
    assert_eq!(report.results.len(), 8); // 2 topologies × 2 β × 2 rates
    for r in &report.results {
        let PointOutcomeKind::Rate { merged, .. } = &r.outcome else {
            panic!("unexpected outcome {r:?}");
        };
        assert!(merged.reps >= 2, "convergence needs a variance estimate");
        assert!(merged.reps <= 24, "the cap is a hard ceiling");
        assert!(
            merged.converged == Converged::Yes,
            "comfortably unsaturated point failed to converge: {} n={} unicast ci95={}",
            r.label,
            merged.reps,
            merged.unicast_mean.ci95
        );
        for m in [
            &merged.unicast_mean,
            &merged.bcast_reception_mean,
            &merged.bcast_completion_mean,
            &merged.throughput,
        ] {
            assert!(m.meets(CiTarget::Rel(0.2)), "{}: {m:?} exceeds the target", r.label);
            assert_eq!(m.n, merged.reps, "every metric merges the same prefix");
        }
    }
    // The artifact records the convergence evidence per point.
    let json = report.to_json(&spec).to_pretty();
    assert!(json.contains("\"converged\": true"));
    assert!(!json.contains("\"converged\": false"));
    assert!(json.contains("\"ci95\":"));
}

#[test]
fn fixed_replication_cache_entries_top_up_instead_of_rerunning() {
    // The upgrade story end to end: a fixed-replications campaign stores
    // 2-replication series; a convergence campaign over the same grid needs
    // at least 4, so it must *resume* each stored series — simulating only
    // the missing tail — and still produce the byte-identical artifact a
    // cold convergence run produces.
    let dir = unique_dir("upgrade");
    let _ = std::fs::remove_dir_all(&dir);
    let mut fixed = convergent_spec("conv-upgrade");
    fixed.convergence = None;
    fixed.replications = 2;
    let opts = CampaignOptions {
        workers: 2,
        cache_dir: Some(dir.clone()),
        quiet: true,
        ..Default::default()
    };
    let seeded = run_campaign(&fixed, &opts).expect("fixed campaign runs");
    let points = seeded.results.len();
    assert_eq!(seeded.reps_simulated, 2 * points);

    let mut conv = fixed.clone();
    conv.replications = 4; // min_reps 4 > the 2 cached: every point tops up
    conv.convergence = Some(Convergence { target: CiTarget::Rel(0.2), max_reps: 24 });
    let upgraded = run_campaign(&conv, &opts).expect("convergent campaign runs");
    assert_eq!(upgraded.executed, points, "every point needed a top-up");
    assert_eq!(upgraded.from_cache, 0);
    assert_eq!(upgraded.reps_cached, 2 * points, "every cached replication was reused");

    let cold =
        run_campaign(&conv, &CampaignOptions { workers: 2, quiet: true, ..Default::default() })
            .expect("cold convergent campaign runs");
    assert_eq!(
        upgraded.reps_simulated + 2 * points,
        cold.reps_simulated,
        "the top-up simulated exactly the missing replications"
    );
    assert_eq!(
        upgraded.to_json(&conv).to_pretty(),
        cold.to_json(&conv).to_pretty(),
        "a topped-up cache hit must be bit-identical to a cold run"
    );

    // And a convergent re-run is now a pure cache hit.
    let replay = run_campaign(&conv, &opts).expect("replay runs");
    assert_eq!(replay.reps_simulated, 0);
    assert_eq!(replay.from_cache, points);
    assert_eq!(replay.to_json(&conv).to_pretty(), cold.to_json(&conv).to_pretty());

    // The convergent runs grew the cached series; the original fixed
    // campaign still reads its 2-replication prefix back bit-identically.
    let fixed_replay = run_campaign(&fixed, &opts).expect("fixed replay runs");
    assert_eq!(fixed_replay.reps_simulated, 0);
    assert_eq!(fixed_replay.from_cache, points);
    assert_eq!(
        fixed_replay.to_json(&fixed).to_pretty(),
        seeded.to_json(&fixed).to_pretty(),
        "growing a cached series must not disturb its prefix consumers"
    );
    std::fs::remove_dir_all(&dir).unwrap();
}

#[test]
fn unconverged_points_stop_at_the_cap_and_say_so() {
    // An absurdly tight absolute target no stochastic point can meet: the
    // campaign must terminate at max_reps everywhere, report
    // converged: false, and stay deterministic while doing it.
    let mut spec = convergent_spec("conv-capped");
    spec.topologies = vec![TopologyKind::Quarc];
    spec.betas = vec![0.05];
    spec.rates = RateAxis::Explicit(vec![0.008]);
    spec.convergence = Some(Convergence { target: CiTarget::Abs(1e-12), max_reps: 6 });
    let a = run_campaign(&spec, &CampaignOptions { workers: 3, quiet: true, ..Default::default() })
        .expect("campaign runs");
    for r in &a.results {
        let PointOutcomeKind::Rate { merged, .. } = &r.outcome else { unreachable!() };
        assert_eq!(merged.reps, 6);
        assert_eq!(merged.converged, Converged::No);
    }
    let b = run_campaign(&spec, &CampaignOptions { workers: 1, quiet: true, ..Default::default() })
        .expect("campaign runs");
    assert_eq!(a.to_json(&spec).to_pretty(), b.to_json(&spec).to_pretty());
}
