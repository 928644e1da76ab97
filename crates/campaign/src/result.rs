//! Campaign results: per-point outcomes and their JSON forms.

use crate::json::{read_fields, Json, Parsed, Reader};
use crate::replicate::MergedRun;
use crate::saturation::{Probe, SaturationResult};
use crate::spec::{CampaignPoint, PointWork};

/// What one executed point produced.
#[derive(Debug, Clone, PartialEq)]
pub enum PointOutcomeKind {
    /// A fixed-rate point: the rate plus replication-merged statistics.
    Rate {
        /// Offered load (messages/node/cycle).
        rate: f64,
        /// Replication-merged statistics.
        merged: MergedRun,
    },
    /// A saturation-search point.
    Saturation(SaturationResult),
    /// Quarantined: the stall watchdog cut the point off — traffic was
    /// pending but nothing moved for a full window (the expected fate of a
    /// frozen-router fault plan). A structured artifact entry, never a
    /// cache entry: the replications completed *before* the stall stay
    /// cached, the stall itself is re-diagnosed on every run.
    Stalled {
        /// Offered load (messages/node/cycle) of the wedged run.
        rate: f64,
        /// Replication index that stalled.
        rep: u32,
        /// Cycle at which the watchdog fired.
        cycle: u64,
        /// Where the traffic was wedged (rendered
        /// [`quarc_sim::StallDiagnostics`]).
        diagnostics: String,
    },
    /// Quarantined: the point panicked or exceeded its wall-clock budget.
    /// The rest of the campaign completes around it.
    Failed {
        /// The panic payload or budget report.
        reason: String,
    },
}

impl PointOutcomeKind {
    /// JSON form (stable field order).
    pub fn to_json(&self) -> Json {
        match self {
            PointOutcomeKind::Stalled { rate, rep, cycle, diagnostics } => Json::obj(vec![
                ("kind", Json::Str("stalled".into())),
                ("rate", Json::Num(*rate)),
                ("rep", Json::UInt(*rep as u64)),
                ("cycle", Json::UInt(*cycle)),
                ("diagnostics", Json::Str(diagnostics.clone())),
            ]),
            PointOutcomeKind::Failed { reason } => Json::obj(vec![
                ("kind", Json::Str("failed".into())),
                ("reason", Json::Str(reason.clone())),
            ]),
            PointOutcomeKind::Rate { rate, merged } => Json::obj(vec![
                ("kind", Json::Str("rate".into())),
                ("rate", Json::Num(*rate)),
                ("merged", merged.to_json()),
            ]),
            PointOutcomeKind::Saturation(s) => Json::obj(vec![
                ("kind", Json::Str("saturation".into())),
                ("sustained", Json::Num(s.sustained)),
                ("collapsed", s.collapsed.map_or(Json::Null, Json::Num)),
                (
                    "probes",
                    Json::Arr(
                        s.probes
                            .iter()
                            .map(|p| {
                                Json::obj(vec![
                                    ("rate", Json::Num(p.rate)),
                                    ("saturated", Json::Bool(p.saturated)),
                                ])
                            })
                            .collect(),
                    ),
                ),
            ]),
        }
    }
}

impl SaturationResult {
    /// Decode the `"saturation"` form [`PointOutcomeKind::to_json`] writes —
    /// the one outcome kind that is ever read back (the result cache stores
    /// searches whole; artifacts are write-only) — from `r`, positioned at
    /// it. Field rules as for [`crate::RepOutcome`]'s decoder.
    pub(crate) fn decode(r: &mut Reader<'_>) -> Parsed<SaturationResult> {
        read_fields!(r {
            kind: |r| r.expect_str("saturation"),
            sustained: Reader::f64,
            collapsed: |r| match r.peek()? {
                b'n' => r.null().map(|()| None),
                _ => r.f64().map(Some),
            },
            probes: |r| {
                r.array(|r| {
                    Ok(read_fields!(r, Probe { rate: Reader::f64, saturated: Reader::bool }))
                })
            },
        });
        let () = kind; // checked as it was read
        Ok(SaturationResult { sustained, collapsed, probes })
    }
}

/// One point's full record in the campaign artifact.
#[derive(Debug, Clone, PartialEq)]
pub struct PointResult {
    /// Expansion-order id (artifact ordering).
    pub id: usize,
    /// Human-readable curve label.
    pub label: String,
    /// The expanded point (grid coordinates + work).
    pub point: CampaignPoint,
    /// Content hash (cache key / RNG substream).
    pub content_hash: u64,
    /// Whether this record was served from the result cache.
    pub from_cache: bool,
    /// The measured outcome.
    pub outcome: PointOutcomeKind,
}

impl PointResult {
    /// JSON form for the campaign artifact.
    ///
    /// Deliberately excludes `from_cache` (and any timing): the artifact's
    /// bytes are a pure function of the campaign spec, so cached and
    /// freshly-simulated runs — and runs with different worker counts —
    /// produce identical files.
    pub fn to_json(&self) -> Json {
        let c = &self.point.curve;
        Json::obj(vec![
            ("id", Json::UInt(self.id as u64)),
            ("label", Json::Str(self.label.clone())),
            ("topology", Json::Str(c.topology.to_string())),
            ("n", Json::UInt(c.n as u64)),
            ("msg_len", Json::UInt(c.msg_len as u64)),
            ("beta", Json::Num(c.beta)),
            ("buffer_depth", Json::UInt(c.buffer_depth as u64)),
            ("link_latency", Json::UInt(c.link_latency)),
            ("arb", Json::Str(c.arb.to_string())),
            ("fault", Json::Str(c.fault.to_string())),
            ("recovery", Json::Str(c.recovery.to_string())),
            ("content_hash", Json::Str(format!("{:016x}", self.content_hash))),
            ("outcome", self.outcome.to_json()),
        ])
    }

    /// One CSV row per rate outcome (saturation points summarise the
    /// search). Matches [`csv_header`].
    pub fn csv_row(&self) -> String {
        let c = &self.point.curve;
        let prefix = format!(
            "{},{},{},{},{},{},{},{}",
            self.id, c.topology, c.n, c.msg_len, c.beta, c.buffer_depth, c.link_latency, c.arb
        );
        match &self.outcome {
            PointOutcomeKind::Rate { rate, merged } => format!(
                "{prefix},rate,{rate},{},{},{},{},{},{},{},{},{},{},{},{},{},{},{},{},{}\n",
                merged.reps,
                merged.unicast_mean.mean,
                merged.unicast_mean.ci95,
                merged.unicast_p95.map_or_else(|| "-".into(), |p| p.to_string()),
                merged.unicast_samples,
                merged.bcast_reception_mean.mean,
                merged.bcast_completion_mean.mean,
                merged.bcast_completion_mean.ci95,
                merged.bcast_completion_p95.map_or_else(|| "-".into(), |p| p.to_string()),
                merged.bcast_samples,
                merged.throughput.mean,
                merged.delivered_fraction.mean,
                merged.undeliverable,
                merged.retransmissions,
                merged.recovered_receivers,
                merged.saturated,
                merged.converged,
            ),
            PointOutcomeKind::Saturation(s) => format!(
                "{prefix},saturation,{},-,-,-,-,-,-,-,-,-,-,-,-,-,-,{},{},-\n",
                s.sustained,
                s.probes.len(),
                s.collapsed.map_or_else(|| "-".into(), |v| v.to_string()),
            ),
            PointOutcomeKind::Stalled { rate, rep, cycle, .. } => format!(
                // The rep/cycle coordinates land in the reps/saturated
                // columns; the full diagnostics live in the JSON artifact.
                "{prefix},stalled,{rate},{rep},-,-,-,-,-,-,-,-,-,-,-,-,-,-,cycle={cycle},-\n",
            ),
            PointOutcomeKind::Failed { .. } => {
                let blanks = ["-"; 18].join(",");
                format!("{prefix},failed,{blanks}\n")
            }
        }
    }

    /// The CSV header matching [`Self::csv_row`].
    pub fn csv_header() -> &'static str {
        "id,topology,n,msg_len,beta,buffer_depth,link_latency,arb,kind,rate,reps,\
         unicast_mean,unicast_ci95,unicast_p95,unicast_samples,bcast_reception_mean,\
         bcast_completion_mean,bcast_completion_ci95,bcast_completion_p95,bcast_samples,\
         throughput,delivered_fraction,undeliverable,retransmissions,recovered_receivers,\
         saturated,converged"
    }

    /// The display label for a point.
    pub fn label_for(point: &CampaignPoint) -> String {
        match point.work {
            PointWork::Rate(rate) => format!("{}-r{rate:.5}", point.curve),
            PointWork::Saturation { .. } => format!("{}-sat", point.curve),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::replicate::{Converged, MeanCi};

    fn merged() -> MergedRun {
        MergedRun {
            reps: 2,
            unicast_mean: MeanCi { mean: 20.5, ci95: 1.25, n: 2 },
            bcast_reception_mean: MeanCi { mean: 30.0, ci95: 0.5, n: 2 },
            bcast_completion_mean: MeanCi { mean: 45.0, ci95: 2.0, n: 2 },
            throughput: MeanCi { mean: 0.08, ci95: 0.001, n: 2 },
            unicast_p95: Some(63),
            bcast_completion_p95: Some(127),
            unicast_samples: 1234,
            bcast_samples: 56,
            saturated_reps: 0,
            saturated: false,
            delivered_fraction: MeanCi { mean: 0.97, ci95: 0.01, n: 2 },
            undeliverable: 12,
            retransmissions: 9,
            recovered_receivers: 5,
            converged: Converged::Yes,
        }
    }

    #[test]
    fn saturation_outcome_roundtrips() {
        let search = SaturationResult {
            sustained: 0.021,
            collapsed: None,
            probes: vec![
                Probe { rate: 0.01, saturated: false },
                Probe { rate: 0.04, saturated: true },
            ],
        };
        let text = PointOutcomeKind::Saturation(search.clone()).to_json().to_compact();
        assert_eq!(SaturationResult::decode(&mut Reader::new(&text)), Ok(search));
        // No other outcome kind decodes as a search.
        let failed = PointOutcomeKind::Failed { reason: "boom".into() }.to_json().to_compact();
        assert!(SaturationResult::decode(&mut Reader::new(&failed)).is_err());
    }

    #[test]
    fn csv_row_matches_header_width() {
        use crate::spec::{CampaignSpec, RateAxis};
        let mut spec = CampaignSpec::new("csv");
        spec.rates = RateAxis::Explicit(vec![0.01]);
        let point = spec.expand().unwrap().points[0];
        let result = PointResult {
            id: 0,
            label: PointResult::label_for(&point),
            point,
            content_hash: 7,
            from_cache: false,
            outcome: PointOutcomeKind::Rate { rate: 0.01, merged: merged() },
        };
        let header_cols = PointResult::csv_header().split(',').count();
        let row = result.csv_row();
        assert_eq!(row.trim_end().split(',').count(), header_cols);

        let sat = PointResult {
            outcome: PointOutcomeKind::Saturation(SaturationResult {
                sustained: 0.02,
                collapsed: Some(0.022),
                probes: vec![],
            }),
            ..result.clone()
        };
        // Saturation rows reuse the last two columns for probe count and
        // collapse rate, keeping the column count identical.
        assert_eq!(sat.csv_row().trim_end().split(',').count(), header_cols);

        // Quarantine rows keep the table rectangular too.
        let stalled = PointResult {
            outcome: PointOutcomeKind::Stalled {
                rate: 0.01,
                rep: 1,
                cycle: 42_000,
                diagnostics: "backlog=3 buffered=9".into(),
            },
            ..result.clone()
        };
        assert_eq!(stalled.csv_row().trim_end().split(',').count(), header_cols);
        let failed =
            PointResult { outcome: PointOutcomeKind::Failed { reason: "boom".into() }, ..result };
        assert_eq!(failed.csv_row().trim_end().split(',').count(), header_cols);
    }
}
