//! The five workloads: how their inputs are generated from a seed, what one
//! pass does, and which self-checks make an operation count as failed.
//!
//! Why each workload has the sizes and rates it has is recorded in
//! `README.md`; the constants here are frozen — changing one changes the
//! benchmark, which is a change of its own.

use crate::trace::Tracer;
use quarc_campaign::hash::fnv1a64;
use quarc_campaign::{
    run_campaign, CampaignOptions, CampaignReport, CampaignSpec, CiTarget, Convergence,
    CurveParams, Json, PointOutcomeKind, PointWork, RateAxis,
};
use quarc_core::config::{ArbPolicy, FaultPlan, NocConfig, RecoveryPolicy};
use quarc_core::topology::TopologyKind::{self, Mesh, Quarc, Spidergon, Torus};
use quarc_engine::{DetRng, LatencyHistogram};
use quarc_sim::{
    build_any, run_mono_outcome_deadline, AnyNet, NocSim, Phase, ProbeConfig, RunOutcome, RunSpec,
};
use quarc_workloads::{Synthetic, SyntheticConfig};
use std::collections::BTreeMap;
use std::path::{Path, PathBuf};
use std::time::{Duration, Instant};

pub const NAMES: [&str; 5] =
    ["dense_sat", "sparse_large_n", "faulty_recovery", "campaign_cold", "campaign_replay"];

/// Every operation is time-boxed, so a hang is a failed operation and not a
/// hung benchmark.
const OP_TIME_BOX: Duration = Duration::from_secs(30);

/// Both campaign workloads load the host's two cores.
const CAMPAIGN_WORKERS: usize = 2;

/// Per-layer numbers by metric name.
pub type Layers = BTreeMap<&'static str, f64>;

/// `Full` is what the benchmark measures; `Smoke` is the same code at sizes
/// a debug-build unit test can afford.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Scale {
    Full,
    Smoke,
}

/// What a finished cell must look like, or its operation counts as failed.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Expect {
    /// Below or at the knee: not saturated, everything delivered.
    Unsaturated,
    /// Past the knee: flagged saturated.
    Saturated,
    /// Lossy links under recovery: not saturated, everything delivered, and
    /// at least one retransmission (or the recovery path was not priced).
    Recovered,
}

/// One simulator run: a network, a synthetic load and a run protocol.
#[derive(Debug, Clone)]
pub struct Cell {
    pub label: String,
    pub noc: NocConfig,
    pub msg_len: usize,
    pub beta: f64,
    pub rate: f64,
    pub seed: u64,
    pub run: RunSpec,
    pub expect: Expect,
}

/// One `run_campaign` call per pass, over an empty cache (`warm == false`)
/// or over one filled during set-up.
#[derive(Debug)]
pub struct CampaignJob {
    pub spec: CampaignSpec,
    pub warm: bool,
    /// Holds `cache/` and `out/`; emptied before every cold pass.
    pub dir: PathBuf,
    /// The fill's artifact digest, which every warm replay must reproduce.
    pub fill_digest: Option<u64>,
}

#[derive(Debug)]
pub enum Inputs {
    Cells(Vec<Cell>),
    Campaign(Box<CampaignJob>),
}

/// Operations attempted and failed, with the reason for each failure.
#[derive(Debug, Default)]
pub struct Ops {
    pub attempted: u64,
    pub failed: u64,
    pub notes: Vec<String>,
}

impl Ops {
    pub fn record(&mut self, label: &str, verdict: Result<(), String>) {
        self.attempted += 1;
        if let Err(why) = verdict {
            self.failed += 1;
            self.notes.push(format!("{label}: {why}"));
        }
    }
}

/// What one pass produced.
#[derive(Debug, Default)]
pub struct Pass {
    /// Host time of each operation the pass times (one per cell; the one
    /// `run_campaign` call), in seconds, self-checks excluded.
    pub op_walls: Vec<f64>,
    /// Deterministic work count: flit-hops, replications simulated or
    /// points served, by workload.
    pub work: u64,
    pub ops: Ops,
    /// Hash over the pass's simulated results; equal across passes and
    /// across commits that leave simulated behaviour alone.
    pub digest: u64,
    /// Mean `unicast_mean` over the designated unsaturated cells/points.
    pub sim_latency_cycles: f64,
    /// Mean `delivered_fraction` over the same cells/points.
    pub sim_delivered_frac: f64,
    /// Counts and ratios read at the layer boundaries during this pass.
    pub layers: Layers,
    /// Per cell, when the counter channel is on: how much of the network the
    /// active-set worklists touched.
    pub activity: Vec<CellActivity>,
    pub report: Option<CampaignReport>,
}

impl Pass {
    /// Host time of the whole pass, in seconds.
    pub fn wall(&self) -> f64 {
        self.op_walls.iter().sum()
    }
}

/// Running means over the designated unsaturated cells or points.
#[derive(Default)]
struct Designated {
    latency: f64,
    delivered: f64,
    count: u32,
}

impl Designated {
    fn add(&mut self, unicast_mean: f64, delivered_fraction: f64) {
        self.latency += unicast_mean;
        self.delivered += delivered_fraction;
        self.count += 1;
    }

    /// `(sim_latency_cycles, sim_delivered_frac)`.
    fn means(&self) -> (f64, f64) {
        let n = self.count.max(1) as f64;
        (self.latency / n, self.delivered / n)
    }
}

#[derive(Debug)]
pub struct CellActivity {
    pub label: String,
    pub nodes: usize,
    pub routers_per_cycle: f64,
}

fn noc(topology: TopologyKind, n: usize, fault: FaultPlan, recovery: RecoveryPolicy) -> NocConfig {
    CurveParams {
        topology,
        n,
        msg_len: 0,
        beta: 0.0,
        buffer_depth: 4,
        link_latency: 1,
        arb: ArbPolicy::RoundRobin,
        fault,
        recovery,
    }
    .noc()
}

const ALL_TOPOLOGIES: [TopologyKind; 4] = [Quarc, Spidergon, Mesh, Torus];

fn dense_cells(rng: &mut DetRng, scale: Scale) -> Vec<Cell> {
    // (sub-knee, at-knee, past-knee) per topology. Spidergon's single
    // ejection port puts its knee at half the others' rate.
    let (n, run, rates) = match scale {
        Scale::Full => (64, RunSpec::default(), [[0.004, 0.008, 0.03], [0.002, 0.004, 0.03]]),
        Scale::Smoke => (16, RunSpec::quick(), [[0.005, 0.01, 0.3], [0.004, 0.008, 0.3]]),
    };
    let mut cells = Vec::new();
    for topology in ALL_TOPOLOGIES {
        let rates = rates[usize::from(topology == Spidergon)];
        for (regime, rate) in ["sub", "knee", "past"].into_iter().zip(rates) {
            cells.push(Cell {
                label: format!("{topology}-n{n}-{regime}"),
                noc: noc(topology, n, FaultPlan::NONE, RecoveryPolicy::NONE),
                msg_len: 8,
                beta: 0.05,
                rate,
                seed: rng.next_u64(),
                run,
                expect: if regime == "past" { Expect::Saturated } else { Expect::Unsaturated },
            });
        }
    }
    cells
}

fn sparse_cells(rng: &mut DetRng, scale: Scale) -> Vec<Cell> {
    // Rates are frozen constants: `quarc_saturation_rate` is O(n³) and does
    // not return at n = 4096, so nothing here may anchor on it.
    let (small, large, measure) = match scale {
        Scale::Full => (4096, 16384, 4_000),
        Scale::Smoke => (256, 1024, 1_000),
    };
    let shrink = (4096 / small) as f64;
    // The default latency cap (2,000 cycles) is a saturation verdict sized
    // for n ≤ 64; an unloaded ring path at n = 16384 averages 2,048 hops.
    let run = RunSpec {
        warmup: 1_000,
        measure,
        drain: 8_000,
        latency_cap: 50_000.0,
        ..RunSpec::default()
    };
    [
        (Quarc, small, 0.0, 2e-5),
        (Torus, small, 0.0, 1.2e-4),
        (Quarc, large, 0.0, 5e-6),
        (Mesh, large, 0.0, 3e-5),
        // Rare broadcasts, each backed by a bit-slab row at this size.
        (Quarc, small, 0.002, 2e-5),
    ]
    .into_iter()
    .map(|(topology, n, beta, rate)| Cell {
        label: format!("{topology}-n{n}-b{beta}"),
        noc: noc(topology, n, FaultPlan::NONE, RecoveryPolicy::NONE),
        msg_len: 8,
        beta,
        // Smaller rings have shorter paths, so the smoke scale can afford
        // (and needs, for any traffic at all) a proportionally higher rate.
        rate: rate * shrink,
        seed: rng.next_u64(),
        run,
        expect: Expect::Unsaturated,
    })
    .collect()
}

/// The fault plan and recovery policy `faulty_recovery` prices: 8 links
/// dropping 2% of packets from cycle 0, timeout 400, 6 retries, jitter 32.
pub fn lossy_links(seed: u64) -> FaultPlan {
    FaultPlan { seed, onset: 0, lossy_links: 8, drop_per_64k: 1311, ..FaultPlan::NONE }
}

pub fn recovery(seed: u64) -> RecoveryPolicy {
    RecoveryPolicy { seed, ack_timeout: 400, max_retries: 6, jitter: 32 }
}

fn faulty_cells(rng: &mut DetRng, scale: Scale) -> Vec<Cell> {
    // A 16-node network has its knee four times higher, and needs the
    // traffic for a 2% loss to hit anything in a quick run.
    let (n, run, scale_rate) = match scale {
        Scale::Full => (64, RunSpec::default(), 1.0),
        Scale::Smoke => (16, RunSpec::quick(), 4.0),
    };
    // One sub-knee rate per topology: ACKs share Spidergon's one port, so at
    // the others' rate its recovery traffic collapses the network.
    [(Quarc, 0.004), (Spidergon, 0.002), (Mesh, 0.004), (Torus, 0.004)]
        .into_iter()
        .map(|(topology, rate)| Cell {
            label: format!("{topology}-n{n}-lossy"),
            noc: noc(topology, n, lossy_links(rng.next_u64()), recovery(rng.next_u64())),
            msg_len: 8,
            beta: 0.05,
            rate: rate * scale_rate,
            seed: rng.next_u64(),
            run,
            expect: Expect::Recovered,
        })
        .collect()
}

fn cold_spec(seed: u64, scale: Scale) -> CampaignSpec {
    let mut spec = CampaignSpec::new("campaign_cold");
    spec.topologies = ALL_TOPOLOGIES.to_vec();
    spec.betas = vec![0.0, 0.05];
    spec.run = RunSpec::quick();
    spec.base_seed = seed;
    match scale {
        Scale::Full => {
            spec.sizes = vec![16];
            spec.msg_lens = vec![16];
            spec.rates = RateAxis::AutoGeometric { span: 1.1, lo_div: 40.0, steps: 10 };
            spec.convergence = Some(Convergence { target: CiTarget::Rel(0.05), max_reps: 12 });
        }
        Scale::Smoke => {
            spec.sizes = vec![8];
            spec.msg_lens = vec![4];
            spec.rates = RateAxis::AutoGeometric { span: 1.1, lo_div: 40.0, steps: 3 };
            spec.convergence = Some(Convergence { target: CiTarget::Rel(0.2), max_reps: 4 });
        }
    }
    spec
}

fn replay_spec(seed: u64, scale: Scale) -> CampaignSpec {
    let mut spec = CampaignSpec::new("campaign_replay");
    spec.topologies = ALL_TOPOLOGIES.to_vec();
    spec.run = RunSpec { warmup: 50, measure: 300, drain: 600, ..RunSpec::default() };
    spec.base_seed = seed;
    match scale {
        Scale::Full => {
            spec.sizes = vec![8, 16];
            spec.msg_lens = vec![4, 8];
            spec.betas = vec![0.0, 0.05, 0.1];
            spec.buffer_depths = vec![2, 4];
            spec.arbs = vec![ArbPolicy::RoundRobin, ArbPolicy::FixedPriority];
            spec.rates = RateAxis::Explicit((1..=12).map(|i| 0.002 * i as f64).collect());
            spec.replications = 8;
        }
        Scale::Smoke => {
            spec.sizes = vec![8];
            spec.msg_lens = vec![4];
            spec.betas = vec![0.0, 0.05];
            spec.rates = RateAxis::Explicit(vec![0.004, 0.008]);
            spec.replications = 2;
        }
    }
    spec
}

/// A cell standing in for a campaign where a measurement needs a network in
/// hand: the middle rate of the grid's first curve, under the campaign's
/// own run protocol.
pub fn representative_cell(spec: &CampaignSpec) -> Result<Cell, String> {
    let points = spec.expand().map_err(|e| e.to_string())?.points;
    let curve = points[0].curve;
    let rates: Vec<f64> = points
        .iter()
        .take_while(|p| p.curve == curve)
        .filter_map(|p| match p.work {
            PointWork::Rate(rate) => Some(rate),
            PointWork::Saturation { .. } => None,
        })
        .collect();
    let rate = *rates.get(rates.len() / 2).ok_or("the campaign has no fixed-rate point")?;
    Ok(Cell {
        label: format!("{curve}-representative"),
        noc: curve.noc(),
        msg_len: curve.msg_len,
        beta: curve.beta,
        rate,
        seed: spec.base_seed,
        run: spec.run,
        expect: Expect::Unsaturated,
    })
}

/// Generate `workload`'s inputs from `seed`. For `campaign_replay` this
/// includes filling the cache under `dir`, which is why it can fail.
pub fn prepare(workload: &str, seed: u64, scale: Scale, dir: &Path) -> Result<Inputs, String> {
    let mut rng = DetRng::new(seed);
    Ok(match workload {
        "dense_sat" => Inputs::Cells(dense_cells(&mut rng, scale)),
        "sparse_large_n" => Inputs::Cells(sparse_cells(&mut rng, scale)),
        "faulty_recovery" => Inputs::Cells(faulty_cells(&mut rng, scale)),
        "campaign_cold" => Inputs::Campaign(Box::new(CampaignJob {
            spec: cold_spec(seed, scale),
            warm: false,
            dir: dir.to_path_buf(),
            fill_digest: None,
        })),
        "campaign_replay" => {
            let mut job = CampaignJob {
                spec: replay_spec(seed, scale),
                warm: false,
                dir: dir.to_path_buf(),
                fill_digest: None,
            };
            let fill = campaign_pass(&job, &mut Tracer::new(false));
            if fill.ops.failed > 0 {
                return Err(format!("cache fill failed: {}", fill.ops.notes.join("; ")));
            }
            job.warm = true;
            job.fill_digest = Some(fill.digest);
            Inputs::Campaign(Box::new(job))
        }
        other => return Err(format!("unknown workload {other}")),
    })
}

/// Run one pass over `inputs`. `probe` configures every simulated network's
/// instrumentation (off for every timed pass).
pub fn pass(inputs: &Inputs, probe: ProbeConfig, tracer: &mut Tracer) -> Pass {
    tracer.span("pass", |t| match inputs {
        Inputs::Cells(cells) => cells_pass(cells, probe, t),
        Inputs::Campaign(job) => campaign_pass(job, t),
    })
}

/// A finished cell: the network (for its counters and probe), how the run
/// ended, and the histograms a campaign replication would keep.
pub struct CellRun {
    pub net: AnyNet,
    pub outcome: RunOutcome,
    pub run_time: Duration,
    pub hists: (LatencyHistogram, LatencyHistogram),
}

/// What `quarc_sim::run_point_outcome_deadline` does, opened up so each
/// call into a layer gets its own span.
pub fn run_cell(cell: &Cell, probe: ProbeConfig, tracer: &mut Tracer) -> Result<CellRun, String> {
    tracer.span("op", |t| {
        cell.noc.validate().map_err(|e| e.to_string())?;
        let mut net = t.span("sim.build", |_| build_any(cell.noc));
        if probe.any() {
            net.probe_mut().configure(probe);
        }
        let mut load = t.span("workloads.new", |_| {
            let cfg = SyntheticConfig::paper(cell.rate, cell.msg_len, cell.beta, cell.seed);
            Synthetic::new(net.num_nodes(), cfg)
        });
        let started = Instant::now();
        let outcome = t.span("sim.run", |_| {
            let deadline = Some(started + OP_TIME_BOX);
            run_mono_outcome_deadline(&mut net, &mut load, &cell.run, deadline)
        });
        let run_time = started.elapsed();
        let hists = t.span("sim.extract", |_| {
            let m = net.metrics();
            (m.unicast_histogram().clone(), m.broadcast_completion_histogram().clone())
        });
        Ok(CellRun { net, outcome, run_time, hists })
    })
}

pub fn check_cell(expect: Expect, outcome: &RunOutcome) -> Result<(), String> {
    let r = match outcome {
        RunOutcome::Finished(r) => r,
        RunOutcome::Stalled { cycle, .. } => return Err(format!("stalled at cycle {cycle}")),
        RunOutcome::DeadlineExceeded { cycle, .. } => {
            return Err(format!("time box hit at cycle {cycle}"))
        }
    };
    let delivered = || match r.delivered_fraction == 1.0 {
        true => Ok(()),
        false => Err(format!("delivered_fraction {}", r.delivered_fraction)),
    };
    match (expect, r.saturated) {
        (Expect::Saturated, true) => Ok(()),
        (Expect::Saturated, false) => Err("expected saturation".into()),
        (_, true) => Err(format!("saturated (unicast mean {})", r.unicast_mean)),
        (Expect::Unsaturated, false) => delivered(),
        (Expect::Recovered, false) if r.retransmissions == 0 => Err("no retransmission".into()),
        (Expect::Recovered, false) => delivered(),
    }
}

fn cells_pass(cells: &[Cell], probe: ProbeConfig, tracer: &mut Tracer) -> Pass {
    let mut op_walls = Vec::with_capacity(cells.len());
    let mut ops = Ops::default();
    let mut words: Vec<u64> = Vec::new();
    let mut designated = Designated::default();
    let (mut ack_latency, mut ack_cells) = (0.0, 0u32);
    let mut sums = Layers::new();
    let mut phase_ns = [0u64; 4];
    let mut phase_items = [0u64; 4];
    let mut samples = 0usize;
    let mut activity = Vec::new();

    for cell in cells {
        let started = Instant::now();
        let run = run_cell(cell, probe, tracer);
        op_walls.push(started.elapsed().as_secs_f64());
        let run = match run {
            Ok(run) => run,
            Err(why) => {
                ops.record(&cell.label, Err(why));
                continue;
            }
        };
        tracer.span("harness.check", |_| {
            ops.record(&cell.label, check_cell(cell.expect, &run.outcome));
            // Keep the extraction alive so the optimiser cannot drop it.
            std::hint::black_box(&run.hists);
            let r = run.outcome.result();
            let m = run.net.metrics();
            words.extend([
                run.net.now(),
                run.net.flit_hops(),
                m.completed_total(),
                r.unicast_mean.to_bits(),
                r.bcast_completion_mean.to_bits(),
                r.delivered_fraction.to_bits(),
            ]);
            if cell.expect != Expect::Saturated {
                designated.add(r.unicast_mean, r.delivered_fraction);
            }
            if cell.noc.recovery.enabled() {
                ack_latency += r.ack_latency_mean;
                ack_cells += 1;
            }
            let p = run.net.probe();
            let active_routers: u64 = p.samples().iter().map(|s| s.active_routers).sum();
            for (name, value) in [
                ("sim.flit_hops", run.net.flit_hops()),
                ("sim.cycles", run.net.now()),
                ("sim.msgs_delivered", m.completed_total()),
                ("sim.retransmissions", r.retransmissions),
                ("sim.flits_dropped", r.flits_dropped),
                ("sim.recovered_receivers", r.recovered_receivers),
                ("sim.credit_stalls", p.credit_stalls()),
                ("sim.active.routers_per_cycle", active_routers),
                ("sim.active.links_per_cycle", p.samples().iter().map(|s| s.live_links).sum()),
                (
                    "sim.active.poll_sources_per_cycle",
                    p.samples().iter().map(|s| s.poll_sources).sum(),
                ),
            ] {
                *sums.entry(name).or_insert(0.0) += value as f64;
            }
            for ph in Phase::ALL {
                phase_ns[ph as usize] += p.phase_nanos(ph);
                phase_items[ph as usize] += p.phase_items(ph);
            }
            if !p.samples().is_empty() {
                samples += p.samples().len();
                activity.push(CellActivity {
                    label: cell.label.clone(),
                    nodes: run.net.num_nodes(),
                    routers_per_cycle: active_routers as f64 / p.samples().len() as f64,
                });
            }
        });
    }

    let work = sums.get("sim.flit_hops").map_or(0, |&hops| hops as u64);
    let mut layers = sums;
    layers.insert("sim.ack_latency_cycles", ack_latency / ack_cells.max(1) as f64);
    for name in [
        "sim.active.routers_per_cycle",
        "sim.active.links_per_cycle",
        "sim.active.poll_sources_per_cycle",
    ] {
        if let Some(sum) = layers.get_mut(name) {
            *sum /= samples.max(1) as f64;
        }
    }
    let profiled: u64 = phase_ns.iter().sum();
    if profiled > 0 {
        let share = |ph: Phase| phase_ns[ph as usize] as f64 / profiled as f64;
        let per_item =
            |ph: Phase| phase_ns[ph as usize] as f64 / phase_items[ph as usize].max(1) as f64;
        layers.extend([
            ("sim.phase.arrivals_share", share(Phase::Arrivals)),
            ("sim.phase.polls_share", share(Phase::Polls)),
            ("sim.phase.gather_share", share(Phase::Gather)),
            ("sim.phase.commit_share", share(Phase::Commit)),
            ("sim.phase.gather_ns_per_item", per_item(Phase::Gather)),
            ("sim.phase.commit_ns_per_item", per_item(Phase::Commit)),
        ]);
    }

    let bytes: Vec<u8> = words.iter().flat_map(|w| w.to_le_bytes()).collect();
    let (sim_latency_cycles, sim_delivered_frac) = designated.means();
    Pass {
        op_walls,
        work,
        ops,
        digest: fnv1a64(&bytes),
        sim_latency_cycles,
        sim_delivered_frac,
        layers,
        activity,
        report: None,
    }
}

fn campaign_pass(job: &CampaignJob, tracer: &mut Tracer) -> Pass {
    let cache_dir = job.dir.join("cache");
    let out_dir = job.dir.join("out");
    if !job.warm {
        // Cold means cold: no cache entry and no artifact survives a pass.
        let _ = std::fs::remove_dir_all(&job.dir);
    }
    let opts = CampaignOptions {
        workers: CAMPAIGN_WORKERS,
        cache_dir: Some(cache_dir),
        out_dir: Some(out_dir.clone()),
        quiet: true,
        point_timeout: Some(OP_TIME_BOX),
        ..CampaignOptions::default()
    };
    let started = Instant::now();
    let outcome = tracer.span("campaign.run", |_| run_campaign(&job.spec, &opts));
    let op_walls = vec![started.elapsed().as_secs_f64()];

    tracer.span("harness.check", |_| {
        let mut ops = Ops::default();
        let report = match outcome {
            Ok(report) => report,
            Err(e) => {
                ops.record("run_campaign", Err(e.to_string()));
                return Pass { op_walls, ops, ..Pass::default() };
            }
        };
        let mut designated = Designated::default();
        for r in &report.results {
            let verdict = match &r.outcome {
                PointOutcomeKind::Stalled { cycle, .. } => Err(format!("stalled at cycle {cycle}")),
                PointOutcomeKind::Failed { reason } => Err(reason.clone()),
                _ if job.warm && !r.from_cache => Err("simulated on a warm cache".into()),
                _ if !job.warm && r.from_cache => Err("served from an empty cache".into()),
                _ => Ok(()),
            };
            ops.record(&r.label, verdict);
            if let PointOutcomeKind::Rate { merged, .. } = &r.outcome {
                if merged.saturated_reps == 0 && merged.unicast_samples > 0 {
                    designated.add(merged.unicast_mean.mean, merged.delivered_fraction.mean);
                }
            }
        }
        // The artifacts are one more operation: both files must be there,
        // the JSON must parse, nothing may have been skipped, and a replay
        // must reproduce the fill byte for byte.
        let mut bytes = Vec::new();
        let artifacts = (|| {
            let stem = out_dir.join(&job.spec.name);
            let json = std::fs::read_to_string(stem.with_extension("json"))
                .map_err(|e| format!("artifact json: {e}"))?;
            Json::parse(&json).map_err(|e| format!("artifact json: {}", e.message))?;
            bytes.extend(json.as_bytes());
            bytes.extend(
                std::fs::read(stem.with_extension("csv"))
                    .map_err(|e| format!("artifact csv: {e}"))?,
            );
            if !report.skipped.is_empty() {
                return Err(format!("{} combinations skipped", report.skipped.len()));
            }
            match job.fill_digest {
                Some(fill) if fill != fnv1a64(&bytes) => {
                    Err("artifacts differ from the fill".into())
                }
                _ => Ok(()),
            }
        })();
        ops.record("artifacts", artifacts);

        let points = report.results.len();
        let workers = report.worker_stats.len().max(1) as f64;
        let busy: f64 = report.worker_stats.iter().map(|w| w.busy_fraction()).sum();
        let mut point_ms: Vec<f64> =
            report.point_telemetry.iter().map(|p| p.wall.as_secs_f64() * 1e3).collect();
        point_ms.sort_by(f64::total_cmp);
        // Host time inside points that simulated something; a cache hit's
        // few microseconds of load and merge are campaign work, not `sim`'s.
        let simulating = report.point_telemetry.iter().filter(|p| p.simulated_reps > 0);
        // (`fold`, because the `sum` of no floats is -0.0.)
        let in_sim = simulating.fold(0.0, |sum, p| sum + p.wall.as_secs_f64());
        let layers = Layers::from([
            ("campaign.points", points as f64),
            ("campaign.cache_hits", report.from_cache as f64),
            ("campaign.cache_misses", (report.executed - report.topups()) as f64),
            ("campaign.topups", report.topups() as f64),
            ("campaign.reps_simulated", report.reps_simulated as f64),
            ("campaign.reps_per_point", report.reps_simulated as f64 / points as f64),
            ("campaign.exec_busy_frac", busy / workers),
            (
                "campaign.exec_steals",
                report.worker_stats.iter().map(|w| w.steals).sum::<u64>() as f64,
            ),
            (
                "campaign.exec_steps",
                report.worker_stats.iter().map(|w| w.steps).sum::<u64>() as f64,
            ),
            ("campaign.sim_share", in_sim / (workers * report.wall.as_secs_f64())),
            ("campaign.point_wall_p50_ms", crate::stats::quantile(&point_ms, 0.5)),
            ("campaign.point_wall_p90_ms", crate::stats::quantile(&point_ms, 0.9)),
        ]);
        let (sim_latency_cycles, sim_delivered_frac) = designated.means();
        Pass {
            op_walls,
            work: if job.warm { report.from_cache } else { report.reps_simulated } as u64,
            ops,
            digest: fnv1a64(&bytes),
            sim_latency_cycles,
            sim_delivered_frac,
            layers,
            activity: Vec::new(),
            report: Some(report),
        }
    })
}
