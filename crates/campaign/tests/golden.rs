//! Campaign goldens: the bytes a campaign leaves on disk — its JSON
//! artifact, its CSV artifact and one result-cache entry — compared against
//! committed files instead of against a second run.
//!
//! `determinism.rs` and `convergence.rs` hold run against run, so a change
//! that reorders a field or re-rounds a number moves both sides and passes.
//! These four tiny campaigns pin the formats themselves. Between them they
//! cover a fixed-replication rate point and a watchdog-stalled point
//! (`golden-fixed`), a convergence-controlled point (`golden-conv`), a
//! saturation search (`golden-sat`) and lossy links under ack/retransmit
//! recovery (`golden-lossy`, the one cache key naming a fault plan and a
//! recovery policy); each runs cold and then again from its own cache, so
//! the cache's read path is held to the same bytes.
//!
//! Each cache entry's `key` line ends in the simulator-behaviour tag, a
//! hash of `quarc-sim`'s equivalence goldens, so regenerating those moves
//! that one line of each `.cache.json` here too.
//!
//! Regenerate (only when an intentional format or behaviour change is made)
//! with:
//!
//! ```text
//! UPDATE_GOLDENS=1 cargo test -p quarc-campaign --test golden
//! ```

use quarc_campaign::{
    run_campaign, CampaignOptions, CampaignSpec, CiTarget, Convergence, RateAxis,
};
use quarc_core::config::{FaultPlan, RecoveryPolicy};
use quarc_core::topology::TopologyKind;
use quarc_sim::RunSpec;
use std::path::{Path, PathBuf};

fn tiny(name: &str) -> CampaignSpec {
    let mut spec = CampaignSpec::new(name);
    spec.topologies = vec![TopologyKind::Quarc, TopologyKind::Spidergon];
    spec.sizes = vec![8];
    spec.msg_lens = vec![4];
    spec.betas = vec![0.05];
    spec.run = RunSpec {
        warmup: 150,
        measure: 1_200,
        drain: 2_400,
        stall_window: 1_500,
        ..RunSpec::default()
    };
    spec
}

/// Healthy fixed-replication points next to frozen-router points, which
/// wedge and trip the stall watchdog.
fn fixed() -> CampaignSpec {
    let mut spec = tiny("golden-fixed");
    spec.rates = RateAxis::Explicit(vec![0.004, 0.008]);
    spec.faults = vec![
        FaultPlan::NONE,
        FaultPlan { seed: 3, onset: 200, frozen_routers: 2, ..FaultPlan::NONE },
    ];
    spec.replications = 2;
    spec
}

/// One rate per verdict: too noisy to converge inside the cap, converged,
/// and past the knee (abandoned on a unanimous saturation verdict).
fn conv() -> CampaignSpec {
    let mut spec = tiny("golden-conv");
    spec.topologies = vec![TopologyKind::Quarc];
    spec.rates = RateAxis::Explicit(vec![0.006, 0.05, 0.6]);
    spec.convergence = Some(Convergence { target: CiTarget::Rel(0.2), max_reps: 6 });
    spec
}

fn sat() -> CampaignSpec {
    let mut spec = tiny("golden-sat");
    spec.rates = RateAxis::Saturation { rel_tol: 0.3, max_probes: 8 };
    spec.replications = 1;
    spec
}

/// Two lossy links with recovery on: drops are retransmitted, so every
/// receiver is still served.
fn lossy() -> CampaignSpec {
    let mut spec = tiny("golden-lossy");
    spec.topologies = vec![TopologyKind::Quarc];
    spec.rates = RateAxis::Explicit(vec![0.008]);
    let plan =
        FaultPlan { seed: 5, onset: 100, lossy_links: 2, drop_per_64k: 16_384, ..FaultPlan::NONE };
    spec.faults = vec![plan];
    spec.recoveries =
        vec![RecoveryPolicy { seed: 1, ack_timeout: 200, max_retries: 3, jitter: 16 }];
    spec.replications = 2;
    spec
}

fn golden_dir() -> PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR")).join("tests/goldens")
}

/// Run `spec` cold and then from its own cache; both runs must leave the
/// committed bytes behind.
fn check(spec: &CampaignSpec) {
    let dir = std::env::temp_dir().join(format!("quarc-{}-{}", spec.name, std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    let opts = CampaignOptions {
        workers: 2,
        cache_dir: Some(dir.join("cache")),
        out_dir: Some(dir.join("out")),
        quiet: true,
        ..Default::default()
    };
    // The first point of each campaign is cacheable (quarantines never are).
    let first = spec.expand().unwrap().points[0];
    let entry = dir.join("cache").join(format!("{:016x}.json", first.merge_hash(spec)));
    let update = std::env::var_os("UPDATE_GOLDENS").is_some();

    for pass in ["cold", "cached"] {
        let report = run_campaign(spec, &opts).expect("campaign runs");
        if pass == "cached" {
            assert_eq!(report.reps_simulated, 0, "{}: every cacheable point replays", spec.name);
        }
        for (produced, golden) in [
            (dir.join("out").join(format!("{}.json", spec.name)), format!("{}.json", spec.name)),
            (dir.join("out").join(format!("{}.csv", spec.name)), format!("{}.csv", spec.name)),
            (entry.clone(), format!("{}.cache.json", spec.name)),
        ] {
            let got = std::fs::read_to_string(&produced).expect("the campaign wrote this file");
            let golden = golden_dir().join(golden);
            if update && pass == "cold" {
                std::fs::create_dir_all(golden_dir()).expect("create goldens dir");
                std::fs::write(&golden, &got).expect("write golden");
                eprintln!("golden updated at {}", golden.display());
                continue;
            }
            let want = std::fs::read_to_string(&golden).expect("committed golden");
            assert_eq!(
                got,
                want,
                "{} ({pass} run) diverged from {}; if the change is intentional, \
                 regenerate with UPDATE_GOLDENS=1",
                produced.display(),
                golden.display()
            );
        }
    }
    std::fs::remove_dir_all(&dir).unwrap();
}

#[test]
fn fixed_replication_and_stalled_points_match_goldens() {
    let spec = fixed();
    check(&spec);
    // The golden really holds both kinds of point.
    let json = std::fs::read_to_string(golden_dir().join("golden-fixed.json")).unwrap();
    assert!(json.contains("\"kind\": \"rate\"") && json.contains("\"kind\": \"stalled\""));
}

#[test]
fn convergence_controlled_points_match_goldens() {
    check(&conv());
    let json = std::fs::read_to_string(golden_dir().join("golden-conv.json")).unwrap();
    for verdict in ["true", "false", "\"abandoned-saturated\""] {
        assert!(json.contains(&format!("\"converged\": {verdict}")), "no point reports {verdict}");
    }
}

#[test]
fn saturation_search_matches_goldens() {
    check(&sat());
    let json = std::fs::read_to_string(golden_dir().join("golden-sat.json")).unwrap();
    assert!(json.contains("\"kind\": \"saturation\""));
}

#[test]
fn lossy_links_under_recovery_match_goldens() {
    check(&lossy());
    let cache = std::fs::read_to_string(golden_dir().join("golden-lossy.cache.json")).unwrap();
    let key = cache.lines().find(|l| l.contains("\"key\"")).expect("a cache key");
    assert!(key.contains("fault=s5o100d0f0l2p16384t0w0 rec=t200r3j16s1"), "{key}");
    let json = std::fs::read_to_string(golden_dir().join("golden-lossy.json")).unwrap();
    assert!(!json.contains("\"retransmissions\": 0,"), "every replication retransmits");
}
