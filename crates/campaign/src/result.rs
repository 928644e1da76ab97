//! Campaign results: per-point outcomes, their JSON forms and their CSV
//! rows.

use crate::json::{record, Encode, Writer};
use crate::replicate::MergedRun;
use crate::saturation::{Probe, SaturationResult};
use crate::spec::{CampaignPoint, PointWork};
use std::fmt::{self, Write as _};

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

/// Every kind is an object led by its `"kind"`.
impl Encode for PointOutcomeKind {
    fn write(&self, w: &mut Writer) {
        let w = match self {
            PointOutcomeKind::Saturation(search) => return search.write(w),
            PointOutcomeKind::Stalled { rate, rep, cycle, diagnostics } => w
                .open('{')
                .field("kind", "stalled")
                .field("rate", rate)
                .field("rep", rep)
                .field("cycle", cycle)
                .field("diagnostics", diagnostics),
            PointOutcomeKind::Failed { reason } => {
                w.open('{').field("kind", "failed").field("reason", reason)
            }
            PointOutcomeKind::Rate { rate, merged } => {
                w.open('{').field("kind", "rate").field("rate", rate).field("merged", merged)
            }
        };
        w.close('}');
    }
}

record!(Probe { rate, saturated });

// A search is the one outcome kind that is ever read back: the result
// cache stores it whole, in its artifact form.
record!(SaturationResult as "saturation" { sustained, collapsed, probes });

/// One point's full record in the campaign artifact.
#[derive(Debug, Clone, PartialEq)]
pub struct PointResult {
    /// Expansion-order id (artifact ordering).
    pub id: usize,
    /// Human-readable curve label.
    pub label: String,
    /// The expanded point (grid coordinates + work).
    pub point: CampaignPoint,
    /// Hash of the content key: the identity of the point's results.
    pub content_hash: u64,
    /// Whether this record was served from the result cache.
    pub from_cache: bool,
    /// The measured outcome.
    pub outcome: PointOutcomeKind,
}

/// The artifact record. Deliberately excludes `from_cache` (and any
/// timing): the artifact's bytes are a pure function of the campaign spec,
/// so cached and freshly-simulated runs — and runs with different worker
/// counts — produce identical files.
impl Encode for PointResult {
    fn write(&self, w: &mut Writer) {
        let c = &self.point.curve;
        w.open('{');
        w.field("id", self.id);
        w.field("label", &self.label);
        w.field("topology", c.topology);
        w.field("n", c.n);
        w.field("msg_len", c.msg_len);
        w.field("beta", c.beta);
        w.field("buffer_depth", c.buffer_depth);
        w.field("link_latency", c.link_latency);
        w.field("arb", c.arb);
        w.field("fault", c.fault);
        w.field("recovery", c.recovery);
        w.key("content_hash").display(format_args!("{:016x}", self.content_hash));
        w.field("outcome", &self.outcome);
        w.close('}');
    }
}

/// An optional CSV cell: the value, or `-`.
struct Cell<T>(Option<T>);

impl<T: fmt::Display> fmt::Display for Cell<T> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match &self.0 {
            Some(value) => value.fmt(f),
            None => f.write_str("-"),
        }
    }
}

impl PointResult {
    /// Append this point's CSV row (saturation points summarise the search)
    /// to `out`. Matches [`Self::csv_header`].
    pub(crate) fn write_csv_row(&self, out: &mut String) {
        let c = &self.point.curve;
        write!(
            out,
            "{},{},{},{},{},{},{},{},",
            self.id, c.topology, c.n, c.msg_len, c.beta, c.buffer_depth, c.link_latency, c.arb
        )
        .and_then(|()| write!(out, "{},{},", c.fault, c.recovery))
        .and_then(|()| match &self.outcome {
            PointOutcomeKind::Rate { rate, merged: m } => writeln!(
                out,
                "rate,{rate},{},{},{},{},{},{},{},{},{},{},{},{},{},{},{},{},{}",
                m.reps,
                m.unicast_mean.mean,
                m.unicast_mean.ci95,
                Cell(m.unicast_p95),
                m.unicast_samples,
                m.bcast_reception_mean.mean,
                m.bcast_completion_mean.mean,
                m.bcast_completion_mean.ci95,
                Cell(m.bcast_completion_p95),
                m.bcast_samples,
                m.throughput.mean,
                m.delivered_fraction.mean,
                m.undeliverable,
                m.retransmissions,
                m.recovered_receivers,
                m.saturated,
                m.converged,
            ),
            PointOutcomeKind::Saturation(s) => writeln!(
                out,
                "saturation,{},-,-,-,-,-,-,-,-,-,-,-,-,-,-,{},{},-",
                s.sustained,
                s.probes.len(),
                Cell(s.collapsed),
            ),
            // The rep/cycle coordinates land in the reps/saturated columns;
            // the full diagnostics live in the JSON artifact.
            PointOutcomeKind::Stalled { rate, rep, cycle, .. } => {
                writeln!(out, "stalled,{rate},{rep},-,-,-,-,-,-,-,-,-,-,-,-,-,-,cycle={cycle},-",)
            }
            PointOutcomeKind::Failed { .. } => {
                out.push_str("failed,-,-,-,-,-,-,-,-,-,-,-,-,-,-,-,-,-,-\n");
                Ok(())
            }
        })
        .expect("writing to a String cannot fail");
    }

    /// This point's CSV row, as `write_csv_row` appends it.
    pub fn csv_row(&self) -> String {
        let mut row = String::new();
        self.write_csv_row(&mut row);
        row
    }

    /// The CSV header matching [`Self::csv_row`].
    pub fn csv_header() -> &'static str {
        "id,topology,n,msg_len,beta,buffer_depth,link_latency,arb,fault,recovery,kind,rate,reps,\
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
    use crate::json::{Decode, Json, Reader};
    use crate::replicate::{Converged, MeanCi};
    use crate::spec::{CampaignSpec, RateAxis};
    use quarc_core::config::{FaultPlan, RecoveryPolicy};

    fn compact(value: &impl Encode) -> String {
        let mut w = Writer::compact(0);
        value.write(&mut w);
        w.finish()
    }

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
        let text = compact(&PointOutcomeKind::Saturation(search.clone()));
        assert_eq!(SaturationResult::decode(&mut Reader::new(&text)), Ok(search));
        // No other outcome kind decodes as a search.
        let failed = compact(&PointOutcomeKind::Failed { reason: "boom".into() });
        assert!(SaturationResult::decode(&mut Reader::new(&failed)).is_err());
    }

    /// A failed result for each point of `spec`, which needs no simulation.
    fn failed_results(spec: &CampaignSpec) -> Vec<PointResult> {
        let points = spec.expand().unwrap().points;
        let result = |(id, point): (usize, CampaignPoint)| PointResult {
            id,
            label: PointResult::label_for(&point),
            point,
            content_hash: id as u64,
            from_cache: false,
            outcome: PointOutcomeKind::Failed { reason: "boom".into() },
        };
        points.into_iter().enumerate().map(result).collect()
    }

    /// Every identity field of the JSON record (all but the label, which is
    /// derived from them, the content hash and the outcome) has a CSV column.
    #[test]
    fn csv_header_names_every_identity_field_of_the_json_record() {
        let mut spec = CampaignSpec::new("csv");
        spec.rates = RateAxis::Explicit(vec![0.01]);
        let Json::Obj(fields) = Json::parse(&compact(&failed_results(&spec)[0])).unwrap() else {
            panic!("a point's record is an object");
        };
        let header: Vec<&str> = PointResult::csv_header().split(',').collect();
        for (name, _) in fields {
            let identity = !["label", "content_hash", "outcome"].contains(&name.as_str());
            assert!(!identity || header.contains(&name.as_str()), "no CSV column for {name}");
        }
    }

    /// Fault and recovery points that share every other axis stay apart in
    /// the CSV.
    #[test]
    fn csv_label_columns_tell_fault_and_recovery_points_apart() {
        let mut spec = CampaignSpec::new("csv");
        spec.rates = RateAxis::Explicit(vec![0.01]);
        spec.faults = vec![
            FaultPlan::NONE,
            FaultPlan { seed: 7, lossy_links: 2, drop_per_64k: 2_000, ..FaultPlan::NONE },
        ];
        spec.recoveries =
            vec![RecoveryPolicy::NONE, RecoveryPolicy { ack_timeout: 600, ..RecoveryPolicy::NONE }];
        let results = failed_results(&spec);
        let kind = PointResult::csv_header().split(',').position(|c| c == "kind").unwrap();
        let mut labels: Vec<Vec<String>> = results
            .iter()
            .map(|r| r.csv_row().split(',').take(kind).skip(1).map(str::to_owned).collect())
            .collect();
        labels.sort();
        labels.dedup();
        assert_eq!(labels.len(), results.len(), "rows share their label columns: {labels:?}");
    }

    #[test]
    fn csv_row_matches_header_width() {
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
