//! Artifact rendering: the `<name>.json` and `<name>.csv` files a campaign
//! leaves behind.
//!
//! Both artifacts are pure functions of the campaign spec and its results —
//! no timestamps, hostnames or timing — so re-running a campaign (from cache
//! or from scratch, serial or parallel) reproduces them byte for byte.
//!
//! Neither builds an intermediate value: the JSON document streams from the
//! spec and the results through the one JSON writer, and the CSV rows are
//! formatted into one buffer. Every file (these two, the telemetry and each
//! cache entry) replaces its predecessor atomically through
//! `write_atomically`, so a killed campaign never leaves a truncated file
//! that looks like a result.

use crate::json::{record, Encode, Writer};
use crate::result::PointResult;
use crate::spec::{CampaignSpec, CiTarget, Convergence, RateAxis};
use quarc_core::config::{ArbPolicy, FaultPlan, RecoveryPolicy};
use quarc_core::topology::TopologyKind;
use quarc_sim::RunSpec;
use std::ffi::OsString;
use std::io;
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicU64, Ordering};

/// Axis values the artifact writes as their `Display` text.
macro_rules! displayed {
    ($($ty:ty),+) => {$(
        impl Encode for $ty {
            fn write(&self, w: &mut Writer) {
                w.display(self);
            }
        }
    )+};
}
displayed!(TopologyKind, ArbPolicy, FaultPlan, RecoveryPolicy);

impl Encode for RateAxis {
    fn write(&self, w: &mut Writer) {
        w.open('{');
        let w = match self {
            RateAxis::Explicit(rates) => w.field("kind", "explicit").field("rates", rates),
            RateAxis::Geometric { lo, hi, steps } => {
                w.field("kind", "geometric").field("lo", lo).field("hi", hi).field("steps", steps)
            }
            RateAxis::AutoGeometric { span, lo_div, steps } => w
                .field("kind", "auto-geometric")
                .field("span", span)
                .field("lo_div", lo_div)
                .field("steps", steps),
            RateAxis::Saturation { rel_tol, max_probes } => w
                .field("kind", "saturation")
                .field("rel_tol", rel_tol)
                .field("max_probes", max_probes),
        };
        w.close('}');
    }
}

impl Encode for Convergence {
    fn write(&self, w: &mut Writer) {
        let (target, width) = match self.target {
            CiTarget::Abs(width) => ("abs", width),
            CiTarget::Rel(width) => ("rel", width),
        };
        w.open('{');
        w.field("target", target);
        w.field("width", width);
        w.field("max_reps", self.max_reps);
        w.close('}');
    }
}

record!(encode RunSpec { warmup, measure, drain, latency_cap, backlog_cap, stall_window });

// The spec's axes and protocol (its name is the document's `campaign`).
record!(encode CampaignSpec {
    topologies, sizes, msg_lens, betas, buffer_depths, link_latencies, arbs, faults, recoveries,
    rates, replications, convergence, base_seed, run,
});

/// The campaign JSON document, borrowed from the spec and results it
/// renders.
#[derive(Debug, Clone, Copy)]
pub struct CampaignDocument<'a> {
    spec: &'a CampaignSpec,
    results: &'a [PointResult],
    skipped: &'a [String],
}

impl CampaignDocument<'_> {
    /// The document as indented text, ending with a newline.
    pub fn to_pretty(&self) -> String {
        // Roughly what a rate point takes, so the buffer seldom regrows.
        let mut w = Writer::pretty(4096 + 1536 * self.results.len());
        self.write(&mut w);
        w.finish()
    }
}

impl Encode for CampaignDocument<'_> {
    fn write(&self, w: &mut Writer) {
        w.open('{');
        w.field("campaign", &self.spec.name);
        w.field("format", "quarc-campaign v2");
        w.field("spec", self.spec);
        w.field("skipped", self.skipped);
        w.field("points", self.results);
        w.close('}');
    }
}

/// The full campaign document.
pub fn campaign_json<'a>(
    spec: &'a CampaignSpec,
    results: &'a [PointResult],
    skipped: &'a [String],
) -> CampaignDocument<'a> {
    CampaignDocument { spec, results, skipped }
}

/// The flat CSV table (one row per point).
pub fn campaign_csv(results: &[PointResult]) -> String {
    let header = PointResult::csv_header();
    let mut out = String::with_capacity(header.len() + 1 + 160 * results.len());
    out.push_str(header);
    out.push('\n');
    results.iter().for_each(|r| r.write_csv_row(&mut out));
    out
}

/// Replace `path` with `bytes` atomically: write a temp file beside it, then
/// rename it over `path`. On any error the temp file is removed and `path`
/// is left as it was. Nothing is synced to disk: this guards against a
/// killed process, not against a power cut.
pub(crate) fn write_atomically(path: &Path, bytes: &[u8]) -> io::Result<()> {
    // Unique within the process too: concurrent campaigns may share a cache.
    static NEXT: AtomicU64 = AtomicU64::new(0);
    let mut name = OsString::from(".");
    name.push(path.file_name().unwrap_or_default());
    let seq = NEXT.fetch_add(1, Ordering::Relaxed);
    name.push(format!(".{}.{seq}.tmp", std::process::id()));
    let tmp = path.with_file_name(name);
    let written = std::fs::write(&tmp, bytes).and_then(|()| std::fs::rename(&tmp, path));
    if written.is_err() {
        let _ = std::fs::remove_file(&tmp);
    }
    written
}

/// Write both artifacts into `dir` as `<name>.json` / `<name>.csv`, each
/// atomically; returns the written paths. The two render concurrently.
pub fn write_artifacts(
    dir: &Path,
    spec: &CampaignSpec,
    results: &[PointResult],
    skipped: &[String],
) -> io::Result<Vec<PathBuf>> {
    std::fs::create_dir_all(dir)?;
    let json_path = dir.join(format!("{}.json", spec.name));
    let csv_path = dir.join(format!("{}.csv", spec.name));
    // The CSV renders on a second thread, beside the larger JSON document.
    std::thread::scope(|s| {
        let csv = s.spawn(|| write_atomically(&csv_path, campaign_csv(results).as_bytes()));
        let json = campaign_json(spec, results, skipped).to_pretty();
        write_atomically(&json_path, json.as_bytes())?;
        csv.join().unwrap_or_else(|panic| std::panic::resume_unwind(panic))
    })?;
    Ok(vec![json_path, csv_path])
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::json::Json;

    #[test]
    fn document_shape_is_stable() {
        let mut spec = CampaignSpec::new("shape");
        spec.rates = RateAxis::Explicit(vec![0.01]);
        let text = campaign_json(&spec, &[], &["dropped".into()]).to_pretty();
        let parsed = Json::parse(&text).unwrap();
        assert_eq!(parsed.get("campaign").and_then(Json::as_str), Some("shape"));
        assert_eq!(
            parsed.get("spec").and_then(|s| s.get("replications")).and_then(Json::as_u64),
            Some(2)
        );
        assert_eq!(parsed.get("skipped").and_then(Json::as_arr).map(<[Json]>::len), Some(1));
        assert_eq!(parsed.get("points").and_then(Json::as_arr).map(<[Json]>::len), Some(0));
        // Byte-determinism of the rendering itself.
        assert_eq!(text, campaign_json(&spec, &[], &["dropped".into()]).to_pretty());
    }

    #[test]
    fn every_rate_axis_serialises() {
        for rates in [
            RateAxis::Explicit(vec![0.01, 0.02]),
            RateAxis::Geometric { lo: 0.001, hi: 0.1, steps: 5 },
            RateAxis::AutoGeometric { span: 1.1, lo_div: 40.0, steps: 10 },
            RateAxis::Saturation { rel_tol: 0.05, max_probes: 20 },
        ] {
            let mut w = Writer::compact(0);
            rates.write(&mut w);
            let json = Json::parse(&w.finish()).unwrap();
            assert!(json.get("kind").is_some());
        }
    }

    #[test]
    fn csv_has_header_plus_rows() {
        assert_eq!(campaign_csv(&[]).lines().count(), 1);
    }

    const JSON: &str = r#"{
  "campaign": "bytes",
  "format": "quarc-campaign v2",
  "spec": {
    "topologies": [
      "quarc"
    ],
    "sizes": [
      8
    ],
    "msg_lens": [
      16
    ],
    "betas": [
      0.05
    ],
    "buffer_depths": [
      4
    ],
    "link_latencies": [
      1
    ],
    "arbs": [
      "rr"
    ],
    "faults": [
      "s3o200d0f2l0p0t0w0"
    ],
    "recoveries": [
      "-"
    ],
    "rates": {
      "kind": "explicit",
      "rates": [
        0.01
      ]
    },
    "replications": 2,
    "convergence": {
      "target": "rel",
      "width": 0.1,
      "max_reps": 8
    },
    "base_seed": 2009,
    "run": {
      "warmup": 2000,
      "measure": 20000,
      "drain": 30000,
      "latency_cap": 2000,
      "backlog_cap": 200,
      "stall_window": 10000
    }
  },
  "skipped": [
    "skipped \"one\""
  ],
  "points": [
    {
      "id": 0,
      "label": "point-0",
      "topology": "quarc",
      "n": 8,
      "msg_len": 16,
      "beta": 0.05,
      "buffer_depth": 4,
      "link_latency": 1,
      "arb": "rr",
      "fault": "s3o200d0f2l0p0t0w0",
      "recovery": "-",
      "content_hash": "0000000000c0ffee",
      "outcome": {
        "kind": "rate",
        "rate": 0.01,
        "merged": {
          "reps": 3,
          "unicast_mean": {
            "mean": 20.5,
            "ci95": null,
            "n": 3
          },
          "bcast_reception_mean": {
            "mean": 30,
            "ci95": 0.5,
            "n": 3
          },
          "bcast_completion_mean": {
            "mean": 45.25,
            "ci95": 2,
            "n": 3
          },
          "throughput": {
            "mean": 0.08,
            "ci95": 0.001,
            "n": 3
          },
          "unicast_p95": null,
          "bcast_completion_p95": 127,
          "unicast_samples": 1234,
          "bcast_samples": 56,
          "saturated_reps": 1,
          "saturated": false,
          "delivered_fraction": {
            "mean": 1,
            "ci95": 0,
            "n": 3
          },
          "undeliverable": 0,
          "retransmissions": 9,
          "recovered_receivers": 5,
          "converged": false
        }
      }
    },
    {
      "id": 1,
      "label": "point-1",
      "topology": "quarc",
      "n": 8,
      "msg_len": 16,
      "beta": 0.05,
      "buffer_depth": 4,
      "link_latency": 1,
      "arb": "rr",
      "fault": "s3o200d0f2l0p0t0w0",
      "recovery": "-",
      "content_hash": "000000000181ffdc",
      "outcome": {
        "kind": "saturation",
        "sustained": 0.021,
        "collapsed": null,
        "probes": [
          {
            "rate": 0.01,
            "saturated": false
          }
        ]
      }
    },
    {
      "id": 2,
      "label": "point-2",
      "topology": "quarc",
      "n": 8,
      "msg_len": 16,
      "beta": 0.05,
      "buffer_depth": 4,
      "link_latency": 1,
      "arb": "rr",
      "fault": "s3o200d0f2l0p0t0w0",
      "recovery": "-",
      "content_hash": "000000000303ffb8",
      "outcome": {
        "kind": "stalled",
        "rate": 0.02,
        "rep": 1,
        "cycle": 4200,
        "diagnostics": "say \"hi\"\\back\nslash\u0001end"
      }
    },
    {
      "id": 3,
      "label": "point-3",
      "topology": "quarc",
      "n": 8,
      "msg_len": 16,
      "beta": 0.05,
      "buffer_depth": 4,
      "link_latency": 1,
      "arb": "rr",
      "fault": "s3o200d0f2l0p0t0w0",
      "recovery": "-",
      "content_hash": "000000000607ff70",
      "outcome": {
        "kind": "failed",
        "reason": "say \"hi\"\\back\nslash\u0001end"
      }
    }
  ]
}
"#;

    const CSV: &str = r#"id,topology,n,msg_len,beta,buffer_depth,link_latency,arb,fault,recovery,kind,rate,reps,unicast_mean,unicast_ci95,unicast_p95,unicast_samples,bcast_reception_mean,bcast_completion_mean,bcast_completion_ci95,bcast_completion_p95,bcast_samples,throughput,delivered_fraction,undeliverable,retransmissions,recovered_receivers,saturated,converged
0,quarc,8,16,0.05,4,1,rr,s3o200d0f2l0p0t0w0,-,rate,0.01,3,20.5,NaN,-,1234,30,45.25,2,127,56,0.08,1,0,9,5,false,false
1,quarc,8,16,0.05,4,1,rr,s3o200d0f2l0p0t0w0,-,saturation,0.021,-,-,-,-,-,-,-,-,-,-,-,-,-,-,1,-,-
2,quarc,8,16,0.05,4,1,rr,s3o200d0f2l0p0t0w0,-,stalled,0.02,1,-,-,-,-,-,-,-,-,-,-,-,-,-,-,cycle=4200,-
3,quarc,8,16,0.05,4,1,rr,s3o200d0f2l0p0t0w0,-,failed,-,-,-,-,-,-,-,-,-,-,-,-,-,-,-,-,-,-
"#;

    /// The artifact bytes of every outcome kind, pinned as literal text: the
    /// campaign goldens never produce a failed point, a non-finite float, an
    /// absent percentile or an escaped string.
    #[test]
    fn bytes_of_every_outcome_kind() {
        use crate::replicate::{Converged, MeanCi, MergedRun};
        use crate::result::PointOutcomeKind;
        use crate::saturation::{Probe, SaturationResult};
        use crate::spec::{CiTarget, Convergence};
        use quarc_core::config::FaultPlan;

        let mut spec = CampaignSpec::new("bytes");
        spec.topologies = vec![TopologyKind::Quarc];
        spec.sizes = vec![8];
        spec.faults = vec![FaultPlan { seed: 3, onset: 200, frozen_routers: 2, ..FaultPlan::NONE }];
        spec.rates = RateAxis::Explicit(vec![0.01]);
        spec.convergence = Some(Convergence { target: CiTarget::Rel(0.1), max_reps: 8 });
        let point = spec.expand().unwrap().points[0];
        let nasty = "say \"hi\"\\back\nslash\u{1}end";
        let ci = |mean, ci95| MeanCi { mean, ci95, n: 3 };
        let merged = MergedRun {
            reps: 3,
            unicast_mean: ci(20.5, f64::NAN),
            bcast_reception_mean: ci(30.0, 0.5),
            bcast_completion_mean: ci(45.25, 2.0),
            throughput: ci(0.08, 0.001),
            unicast_p95: None,
            bcast_completion_p95: Some(127),
            unicast_samples: 1234,
            bcast_samples: 56,
            saturated_reps: 1,
            saturated: false,
            delivered_fraction: ci(1.0, 0.0),
            undeliverable: 0,
            retransmissions: 9,
            recovered_receivers: 5,
            converged: Converged::No,
        };
        let search = SaturationResult {
            sustained: 0.021,
            collapsed: None,
            probes: vec![Probe { rate: 0.01, saturated: false }],
        };
        let results: Vec<PointResult> = [
            PointOutcomeKind::Rate { rate: 0.01, merged },
            PointOutcomeKind::Saturation(search),
            PointOutcomeKind::Stalled {
                rate: 0.02,
                rep: 1,
                cycle: 4_200,
                diagnostics: nasty.into(),
            },
            PointOutcomeKind::Failed { reason: nasty.into() },
        ]
        .into_iter()
        .enumerate()
        .map(|(id, outcome)| PointResult {
            id,
            label: format!("point-{id}"),
            point,
            content_hash: 0x00c0_ffee << id,
            from_cache: id % 2 == 0,
            outcome,
        })
        .collect();
        let json = campaign_json(&spec, &results, &["skipped \"one\"".into()]).to_pretty();
        let csv = campaign_csv(&results);
        assert_eq!(json, JSON);
        assert_eq!(csv, CSV);
    }
}
