//! The simulation driver: warmup, measurement, drain and saturation
//! detection — the protocol behind every latency-vs-load point in the
//! paper's Figs. 9–11.
//!
//! The run protocol is written once, generically, over [`NocSim`]:
//! [`run_mono_outcome_deadline`] is the protocol and [`run`] its collapsed
//! view. Both monomorphize for the concrete `(network, workload)` pair they
//! are handed — a [`crate::Fabric`] instantiation, or the [`AnyNet`] enum
//! `build_any` returns (one predictable match per cycle) — so no virtual
//! call sits on the per-cycle path.

use crate::metrics::Metrics;
use crate::probe::SimProbe;
use crate::quarc_net::QuarcNetwork;
use crate::spider_net::SpidergonNetwork;
use crate::Fabric;
use quarc_core::config::ConfigError;
use quarc_core::grid::GridTopology;
use quarc_core::topology::TopologyKind;
use quarc_engine::stats::LatencyHistogram;
use quarc_engine::Cycle;
use quarc_workloads::Workload;

/// Interface over the concrete network simulators.
pub trait NocSim {
    /// Advance one cycle, polling `workload` for new messages. Generic, so
    /// the run protocol inlines the per-cycle loop for a concrete
    /// `(network, workload)` pair; a `&mut dyn Workload` still works.
    fn step<W: Workload + ?Sized>(&mut self, workload: &mut W);
    /// Tell the network the workload object passed to `step` is about to be
    /// replaced by a *different* one. The networks schedule polls from
    /// [`Workload::next_due`] answers, so a swap to a workload with earlier
    /// due cycles must reset that schedule (every node is re-polled on the
    /// next step). Swapping to a workload that never produces anything — the
    /// drain-phase silence — is safe without this call, but [`run`] calls it
    /// anyway.
    fn note_workload_change(&mut self);
    /// Current cycle.
    fn now(&self) -> Cycle;
    /// Node count.
    fn num_nodes(&self) -> usize;
    /// Topology family.
    fn kind(&self) -> TopologyKind;
    /// Measurement state.
    fn metrics(&self) -> &Metrics;
    /// Mutable measurement state (used to start the measurement window).
    fn metrics_mut(&mut self) -> &mut Metrics;
    /// The instrumentation layer (phase profiler, counter time-series,
    /// flit-event trace). Off by default; see [`crate::probe`].
    fn probe(&self) -> &SimProbe;
    /// Mutable probe access (used to configure channels before a run and to
    /// drain exports after it). Probes observe, never mutate: any
    /// configuration must leave simulated behaviour bit-identical.
    fn probe_mut(&mut self) -> &mut SimProbe;
    /// Flits queued at source transceivers.
    fn source_backlog(&self) -> usize;
    /// Total link traversals (flit-hops) since construction. One flit moving
    /// over one physical link for one cycle counts once; it is the
    /// benchmark's unit of simulator work (`work_per_s`, `sim.ns_per_flit_hop`).
    fn flit_hops(&self) -> u64;
    /// Whether no traffic is anywhere in the system.
    fn quiesced(&self) -> bool;
    /// Recovery windows still open (messages with unacknowledged receivers
    /// whose retry budget is not exhausted). A non-zero count means the
    /// end-to-end recovery layer is waiting out a backoff — legitimate
    /// progress even when no flit moves — so the stall watchdog must not
    /// fire. Zero whenever [`quarc_core::config::RecoveryPolicy`] is
    /// disabled.
    fn recovery_pending(&self) -> u64 {
        0
    }
    /// A snapshot of where traffic is wedged, taken when the stall watchdog
    /// fires: the quiescence counters plus the most occupied routers. Walks
    /// the network (cold path — never called per cycle).
    fn stall_diagnostics(&self) -> StallDiagnostics;
}

/// Where the traffic was when a run stalled: the four quiescence counters
/// plus the most occupied routers (buffered + source-queued flits), so a
/// wedged run points at the faulted region instead of just timing out.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct StallDiagnostics {
    /// Flits queued at source transceivers.
    pub backlog: u64,
    /// Flits buffered in router input lanes.
    pub buffered: u64,
    /// Flits in flight on links.
    pub on_links: u64,
    /// Messages created but not yet fully accounted.
    pub in_flight: u64,
    /// Packets interned in the packet table.
    pub live_packets: u64,
    /// The active fault plan's compact token (`s{}o{}d{}l{}t{}f{}`, see
    /// [`quarc_core::config::FaultPlan`]'s `Display`), so a stall report
    /// names the injected faults that wedged the run without a trip back
    /// to the spec.
    pub fault: String,
    /// Up to [`Self::TOP_ROUTERS`] `(node, flits)` pairs, most occupied
    /// first (ties broken by node id).
    pub busiest_routers: Vec<(u32, u32)>,
}

impl StallDiagnostics {
    /// How many router occupancy entries a snapshot keeps.
    pub const TOP_ROUTERS: usize = 8;
}

impl std::fmt::Display for StallDiagnostics {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "backlog={} buffered={} on_links={} in_flight={} live_packets={} fault={} busiest=[",
            self.backlog,
            self.buffered,
            self.on_links,
            self.in_flight,
            self.live_packets,
            self.fault
        )?;
        for (i, (node, flits)) in self.busiest_routers.iter().enumerate() {
            if i > 0 {
                write!(f, " ")?;
            }
            write!(f, "{node}:{flits}")?;
        }
        write!(f, "]")
    }
}

/// Parameters of one measured run.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct RunSpec {
    /// Cycles simulated before measurement starts.
    pub warmup: Cycle,
    /// Cycles of measured injection.
    pub measure: Cycle,
    /// Maximum extra cycles allowed for in-flight traffic to drain.
    pub drain: Cycle,
    /// A run is declared saturated when the mean measured latency exceeds
    /// this cap or the source backlog at the end of measurement exceeds
    /// `backlog_cap` flits per node.
    pub latency_cap: f64,
    /// Per-node backlog (in flits) above which the run counts as saturated.
    pub backlog_cap: f64,
    /// Stall watchdog window (cycles): if traffic is pending and no flit
    /// moves (hop, delivery or fault drop) for a full window, the run ends
    /// with [`RunOutcome::Stalled`] instead of spinning to the cycle cap.
    /// Progress is sampled once per window, so the check costs nothing per
    /// cycle and a stall is reported within two windows. `0` disarms it.
    pub stall_window: Cycle,
}

impl Default for RunSpec {
    fn default() -> Self {
        RunSpec {
            warmup: 2_000,
            measure: 20_000,
            drain: 30_000,
            latency_cap: 2_000.0,
            backlog_cap: 200.0,
            stall_window: 10_000,
        }
    }
}

impl RunSpec {
    /// A shorter spec for tests and smoke runs.
    pub fn quick() -> Self {
        RunSpec { warmup: 500, measure: 4_000, drain: 8_000, ..Default::default() }
    }

    /// The protocol's limits, the one place they are stated: a measurement
    /// window of at least one cycle, the divisor of throughput and goodput.
    pub fn check(&self) -> Result<(), ConfigError> {
        let requirement = "at least 1 cycle (the divisor of throughput)";
        match self.measure {
            0 => Err(ConfigError::BadParameter { name: "measure", requirement }),
            _ => Ok(()),
        }
    }
}

/// Summary of one run: the numbers a figure plots.
#[derive(Debug, Clone)]
pub struct RunResult {
    /// Topology family.
    pub kind: TopologyKind,
    /// Nodes.
    pub n: usize,
    /// Offered load in messages/node/cycle, as reported by the workload.
    pub offered_rate: Option<f64>,
    /// Mean unicast latency (cycles), creation → tail at destination.
    pub unicast_mean: f64,
    /// Unicast latency distribution over the measurement window.
    pub unicast_hist: LatencyHistogram,
    /// Unicast sample count.
    pub unicast_samples: u64,
    /// Mean broadcast latency per reception.
    pub bcast_reception_mean: f64,
    /// Mean broadcast completion latency (last receiver).
    pub bcast_completion_mean: f64,
    /// Broadcast completion latency distribution over the measurement window.
    pub bcast_completion_hist: LatencyHistogram,
    /// Broadcast completion sample count: broadcasts created in the window.
    pub bcast_samples: u64,
    /// Flit throughput per node per cycle over the measurement window:
    /// every flit the fabric moved to an ejection port — fresh data,
    /// duplicate data suppressed by the recovery layer, and ACK control
    /// flits. Equals [`Self::goodput`] whenever recovery is disabled (no
    /// acks, no duplicates), so pre-recovery runs are unchanged.
    pub throughput: f64,
    /// Whether the run hit a saturation criterion.
    pub saturated: bool,
    /// Source backlog (flits) at the end of the measurement window.
    pub end_backlog: usize,
    /// Fraction of expected receiver deliveries that actually happened
    /// (1.0 on fault-free runs; the headline robustness number under
    /// fault injection).
    pub delivered_fraction: f64,
    /// Messages retired with at least one receiver lost to a fault.
    pub undeliverable: u64,
    /// Flits consumed by fault drops.
    pub flits_dropped: u64,
    /// Recovery-layer retransmissions issued (0 with recovery disabled).
    pub retransmissions: u64,
    /// Receivers whose first successful delivery rode a retransmission.
    pub recovered_receivers: u64,
    /// Mean data-send → ACK-received round trip (cycles) over the
    /// measurement window (0 with no samples).
    pub ack_latency_mean: f64,
    /// *Fresh* delivered data flits per node per cycle over the measurement
    /// window — the pre-recovery definition of throughput, excluding ACK
    /// and duplicate traffic.
    pub goodput: f64,
}

impl RunResult {
    /// 95th-percentile unicast latency (`None` with no samples).
    pub fn unicast_p95(&self) -> Option<u64> {
        self.unicast_hist.percentile(95.0)
    }

    /// CSV header matching [`Self::csv_row`].
    pub fn csv_header() -> &'static str {
        "topology,n,rate,unicast_mean,unicast_p95,unicast_samples,bcast_reception_mean,\
         bcast_completion_mean,bcast_samples,throughput,saturated,end_backlog,\
         delivered_fraction,undeliverable,flits_dropped,retransmissions,\
         recovered_receivers,ack_latency_mean,goodput"
    }

    /// One CSV row.
    pub fn csv_row(&self) -> String {
        format!(
            "{},{},{},{:.3},{},{},{:.3},{:.3},{},{:.5},{},{},{:.6},{},{},{},{},{:.3},{:.5}",
            self.kind,
            self.n,
            self.offered_rate.map_or_else(|| "-".into(), |r| format!("{r:.5}")),
            self.unicast_mean,
            self.unicast_p95().map_or_else(|| "-".into(), |p| p.to_string()),
            self.unicast_samples,
            self.bcast_reception_mean,
            self.bcast_completion_mean,
            self.bcast_samples,
            self.throughput,
            self.saturated,
            self.end_backlog,
            self.delivered_fraction,
            self.undeliverable,
            self.flits_dropped,
            self.retransmissions,
            self.recovered_receivers,
            self.ack_latency_mean,
            self.goodput,
        )
    }
}

/// How a run ended: cleanly, or wedged with the watchdog's snapshot.
#[derive(Debug, Clone)]
pub enum RunOutcome {
    /// The protocol ran to completion (possibly saturated).
    Finished(RunResult),
    /// The stall watchdog fired: traffic was pending but nothing moved for
    /// a full [`RunSpec::stall_window`]. Carries partial statistics.
    Stalled {
        /// Cycle at which the stall was detected.
        cycle: Cycle,
        /// Where the traffic is wedged.
        diagnostics: StallDiagnostics,
        /// Statistics accumulated up to the stall (flagged saturated).
        partial: RunResult,
    },
    /// A cooperative wall-clock deadline (a campaign's `--point-timeout`
    /// budget) expired mid-run. Checked at the stall watchdog's cadence, so
    /// a run yields within one window of going over budget instead of
    /// pinning a worker to the cycle cap. The partial statistics describe a
    /// truncated run and must never be cached or merged as a finished point.
    DeadlineExceeded {
        /// Cycle at which the deadline was noticed.
        cycle: Cycle,
        /// Statistics accumulated up to the cutoff (flagged saturated).
        partial: RunResult,
    },
}

impl RunOutcome {
    /// Whether the watchdog ended this run.
    pub fn is_stalled(&self) -> bool {
        matches!(self, RunOutcome::Stalled { .. })
    }

    /// The run statistics, complete or partial.
    pub fn result(&self) -> &RunResult {
        match self {
            RunOutcome::Finished(r) => r,
            RunOutcome::Stalled { partial, .. } => partial,
            RunOutcome::DeadlineExceeded { partial, .. } => partial,
        }
    }

    /// Collapse to the statistics (a stalled run reads as saturated — the
    /// [`run`] view).
    pub fn into_result(self) -> RunResult {
        match self {
            RunOutcome::Finished(r) => r,
            RunOutcome::Stalled { partial, .. } => partial,
            RunOutcome::DeadlineExceeded { partial, .. } => partial,
        }
    }
}

/// A workload that generates nothing (used to drain).
struct Silence;

impl Workload for Silence {
    fn poll_into(
        &mut self,
        _node: quarc_core::ids::NodeId,
        _now: Cycle,
        _out: &mut Vec<quarc_workloads::MessageRequest>,
    ) {
    }

    fn next_due(&self, _node: quarc_core::ids::NodeId, _now: Cycle) -> Cycle {
        Cycle::MAX
    }
}

/// The three fabric instantiations behind one enum, so code that picks the
/// topology at run time ([`crate::build_any`]) still steps through a
/// predictable match instead of a vtable. Mesh and torus share the grid
/// model, so both build the `Grid` variant.
#[derive(Debug)]
pub enum AnyNet {
    /// The paper's contribution.
    Quarc(QuarcNetwork),
    /// The one-port baseline.
    Spidergon(SpidergonNetwork),
    /// The §4 mesh / torus comparison grids.
    Grid(Fabric<GridTopology>),
}

macro_rules! for_each_net {
    ($self:ident, $n:ident => $e:expr) => {
        match $self {
            AnyNet::Quarc($n) => $e,
            AnyNet::Spidergon($n) => $e,
            AnyNet::Grid($n) => $e,
        }
    };
}

/// Forward `&self` getters of [`NocSim`] to the wrapped fabric.
macro_rules! forward_getters {
    ($($name:ident -> $ret:ty),* $(,)?) => {
        $(fn $name(&self) -> $ret {
            for_each_net!(self, n => n.$name())
        })*
    };
}

impl NocSim for AnyNet {
    #[inline]
    fn step<W: Workload + ?Sized>(&mut self, workload: &mut W) {
        for_each_net!(self, n => n.step_cycle(workload))
    }

    fn note_workload_change(&mut self) {
        for_each_net!(self, n => n.note_workload_change())
    }

    fn metrics_mut(&mut self) -> &mut Metrics {
        for_each_net!(self, n => n.metrics_mut())
    }

    fn probe_mut(&mut self) -> &mut SimProbe {
        for_each_net!(self, n => n.probe_mut())
    }

    forward_getters! {
        now -> Cycle,
        num_nodes -> usize,
        kind -> TopologyKind,
        metrics -> &Metrics,
        probe -> &SimProbe,
        source_backlog -> usize,
        flit_hops -> u64,
        quiesced -> bool,
        recovery_pending -> u64,
        stall_diagnostics -> StallDiagnostics,
    }
}

/// What tripped the per-cycle sentinel.
enum Trip {
    /// Traffic was pending and nothing moved for a full stall window.
    Wedged,
    /// The cooperative wall-clock deadline expired.
    Overdue,
}

/// Sampling cadence for the wall-clock deadline when the stall watchdog is
/// disarmed (`stall_window == 0`) — deadline checks still need a cadence.
const DEADLINE_CADENCE: Cycle = 4_096;

/// The stall watchdog: samples the progress counters once per window and
/// fires if nothing moved across a full window while traffic was pending.
/// Reading only counters (and walking links once per window), it cannot
/// affect simulated behaviour — fault-free runs stay byte-identical with
/// the watchdog armed. It doubles as the run's wall-clock sentinel: an
/// optional [`std::time::Instant`] deadline is checked at the same cadence,
/// keeping `Instant::now` (a syscall) off the per-cycle path.
struct Watchdog {
    window: Cycle,
    countdown: Cycle,
    last_progress: u64,
    deadline: Option<std::time::Instant>,
}

impl Watchdog {
    fn new(window: Cycle, deadline: Option<std::time::Instant>) -> Self {
        let cadence = if window == 0 { DEADLINE_CADENCE } else { window };
        Watchdog { window, countdown: cadence, last_progress: u64::MAX, deadline }
    }

    /// Call once per simulated cycle.
    fn poll<N: NocSim>(&mut self, net: &N) -> Option<Trip> {
        if self.window == 0 && self.deadline.is_none() {
            return None;
        }
        self.countdown -= 1;
        if self.countdown > 0 {
            return None;
        }
        self.countdown = if self.window == 0 { DEADLINE_CADENCE } else { self.window };
        if let Some(deadline) = self.deadline {
            if std::time::Instant::now() >= deadline {
                return Some(Trip::Overdue);
            }
        }
        if self.window == 0 {
            return None;
        }
        // Every commit moves one of these three counters (forward = hop,
        // absorption = delivery, fault drain = drop), so "all unchanged"
        // is exactly "no flit moved". An open recovery window waiting out
        // a retransmission backoff is progress the counters can't see —
        // the network may be legitimately empty until the timer fires —
        // so pending recovery suppresses the verdict.
        let progress =
            net.flit_hops() + net.metrics().flits_delivered() + net.metrics().flits_dropped();
        let wedged =
            progress == self.last_progress && !net.quiesced() && net.recovery_pending() == 0;
        self.last_progress = progress;
        if wedged {
            Some(Trip::Wedged)
        } else {
            None
        }
    }
}

/// `(fresh data flits, total flits moved)` delivered so far: the pair of
/// counters the throughput/goodput split snapshots at the measurement
/// window's edges. "Total" adds ACK control flits and suppressed duplicate
/// data — fabric work the goodput definition excludes. The two components
/// are equal whenever recovery is disabled.
fn flits_moved<N: NocSim>(net: &N) -> (u64, u64) {
    let m = net.metrics();
    let data = m.flits_delivered();
    (data, data + m.acks_delivered() + m.dup_flits_suppressed())
}

/// Summarise a (possibly partial) run from the current network state and
/// [`flits_moved`] at the measurement window's edges: the one summary.
fn summarise<N: NocSim>(
    net: &N,
    offered_rate: Option<f64>,
    spec: &RunSpec,
    [before, after]: [(u64, u64); 2],
    end_backlog: usize,
    force_saturated: bool,
) -> RunResult {
    let m = net.metrics();
    let per_node_cycle = spec.measure as f64 * net.num_nodes() as f64;
    let unicast_mean = m.unicast_latency().mean();
    let bcast_completion_mean = m.broadcast_completion_latency().mean();
    let backlog_per_node = end_backlog as f64 / net.num_nodes() as f64;
    let saturated = force_saturated
        || unicast_mean > spec.latency_cap
        || bcast_completion_mean > spec.latency_cap
        || backlog_per_node > spec.backlog_cap
        || !net.quiesced();

    RunResult {
        kind: net.kind(),
        n: net.num_nodes(),
        offered_rate,
        unicast_mean,
        unicast_hist: m.unicast_histogram().clone(),
        unicast_samples: m.unicast_latency().count(),
        bcast_reception_mean: m.broadcast_reception_latency().mean(),
        bcast_completion_mean,
        bcast_completion_hist: m.broadcast_completion_histogram().clone(),
        bcast_samples: m.broadcast_completion_latency().count(),
        throughput: (after.1 - before.1) as f64 / per_node_cycle,
        saturated,
        end_backlog,
        delivered_fraction: m.delivered_fraction(),
        undeliverable: m.undeliverable_total(),
        flits_dropped: m.flits_dropped(),
        retransmissions: m.retransmissions(),
        recovered_receivers: m.recovered_receivers(),
        ack_latency_mean: m.ack_latency().mean(),
        goodput: (after.0 - before.0) as f64 / per_node_cycle,
    }
}

/// Step `net` under `workload` for up to `cycles` cycles (the drain, with
/// `until_quiet`, stops once no traffic is left) and report what tripped
/// the watchdog, if anything. Generic, so each phase's loop is static.
fn run_phase<N: NocSim, W: Workload + ?Sized>(
    net: &mut N,
    workload: &mut W,
    cycles: Cycle,
    until_quiet: bool,
    dog: &mut Watchdog,
) -> Option<Trip> {
    for _ in 0..cycles {
        if until_quiet && net.quiesced() {
            break;
        }
        net.step(workload);
        if let Some(trip) = dog.poll(net) {
            return Some(trip);
        }
    }
    None
}

/// The warmup/measure/drain protocol, written once for every network and
/// workload, reporting how the run ended.
///
/// Injection runs for `warmup + measure` cycles; only messages created inside
/// the measurement window contribute latency samples. After measurement the
/// workload is silenced and the network drains (bounded by `spec.drain`) so
/// in-flight measured messages still complete. A saturated network will not
/// drain — the partial statistics plus the `saturated` flag are returned. A
/// wedged one ends as [`RunOutcome::Stalled`] with the watchdog's
/// diagnostics instead of silently folding into `saturated`.
///
/// `deadline` is the cooperative wall-clock cutoff (a campaign's
/// `--point-timeout` budget), checked at the stall watchdog's cadence: once
/// it passes the run yields [`RunOutcome::DeadlineExceeded`] within one
/// window instead of pinning its worker to the cycle cap. `None` runs
/// unbounded.
///
/// Monomorphized per `(network, workload)` pair: the whole per-cycle loop
/// compiles to one specialised body, with no virtual calls.
pub fn run_mono_outcome_deadline<N: NocSim, W: Workload + ?Sized>(
    net: &mut N,
    workload: &mut W,
    spec: &RunSpec,
    deadline: Option<std::time::Instant>,
) -> RunOutcome {
    let t0 = net.now();
    let offered_rate = workload.nominal_rate();
    // A fresh network schedules every source at cycle 0, so this is a no-op
    // for the usual one-network-one-run case — but a *reused* network left
    // its poll schedule parked at the previous drain's silence; reset it so
    // `workload` is actually consulted.
    net.note_workload_change();
    // Before the first cycle, or warmup messages become samples.
    net.metrics_mut().begin_measurement(t0 + spec.warmup);
    let mut dog = Watchdog::new(spec.stall_window, deadline);
    // A window that never opened counts zero flits; the end backlog is read
    // when measurement ends, or at an earlier trip.
    let (tripped, window, end_backlog) = 'run: {
        if let Some(trip) = run_phase(net, workload, spec.warmup, false, &mut dog) {
            break 'run (Some(trip), [(0, 0); 2], net.source_backlog());
        }
        let before = flits_moved(net);
        let trip = run_phase(net, workload, spec.measure, false, &mut dog);
        let (window, end_backlog) = ([before, flits_moved(net)], net.source_backlog());
        if trip.is_some() {
            break 'run (trip, window, end_backlog);
        }
        net.note_workload_change();
        (run_phase(net, &mut Silence, spec.drain, true, &mut dog), window, end_backlog)
    };
    let result = summarise(net, offered_rate, spec, window, end_backlog, tripped.is_some());
    // Diagnostics are only gathered for a genuine stall — the deadline cut
    // is not a wedge.
    match tripped {
        None => RunOutcome::Finished(result),
        Some(Trip::Wedged) => RunOutcome::Stalled {
            cycle: net.now(),
            diagnostics: net.stall_diagnostics(),
            partial: result,
        },
        Some(Trip::Overdue) => RunOutcome::DeadlineExceeded { cycle: net.now(), partial: result },
    }
}

/// [`run_mono_outcome_deadline`] without a deadline, collapsed to the
/// statistics: a stalled run reads as saturated.
pub fn run<N: NocSim, W: Workload + ?Sized>(
    net: &mut N,
    workload: &mut W,
    spec: &RunSpec,
) -> RunResult {
    run_mono_outcome_deadline(net, workload, spec, None).into_result()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::quarc_net::QuarcNetwork;
    use quarc_core::config::NocConfig;
    use quarc_core::ids::NodeId;
    use quarc_workloads::{MessageRequest, Synthetic, SyntheticConfig, TraceRecord, TraceWorkload};

    #[test]
    fn light_load_run_is_unsaturated() {
        let mut net = QuarcNetwork::new(NocConfig::quarc(16));
        let mut wl = Synthetic::new(16, SyntheticConfig::paper(0.01, 8, 0.05, 1));
        let res = run(&mut net, &mut wl, &RunSpec::quick());
        assert!(!res.saturated, "{res:?}");
        assert!(res.unicast_samples > 100, "{res:?}");
        assert!(res.unicast_mean > 5.0 && res.unicast_mean < 50.0, "{res:?}");
        assert!(res.bcast_samples > 0);
        assert!(res.throughput > 0.0);
    }

    #[test]
    fn overload_is_flagged_saturated() {
        let mut net = QuarcNetwork::new(NocConfig::quarc(16));
        let mut wl = Synthetic::new(16, SyntheticConfig::paper(0.5, 16, 0.1, 2));
        let spec = RunSpec { warmup: 200, measure: 2_000, drain: 2_000, ..Default::default() };
        let res = run(&mut net, &mut wl, &spec);
        assert!(res.saturated, "{res:?}");
    }

    #[test]
    fn warmup_messages_are_not_samples() {
        // One unicast and one broadcast complete long before warmup ends,
        // one of each is created inside the window: only the second of
        // each is a latency sample.
        let send = |cycle, src, dst| TraceRecord {
            cycle,
            request: MessageRequest::unicast(NodeId::new(src), NodeId::new(dst), 4),
        };
        let mut net = QuarcNetwork::new(NocConfig::quarc(8));
        let bcast = |cycle, src| TraceRecord {
            cycle,
            request: MessageRequest::broadcast(NodeId::new(src), 4),
        };
        let mut wl =
            TraceWorkload::new(8, [send(10, 0, 3), bcast(10, 2), send(600, 1, 5), bcast(600, 6)]);
        let spec = RunSpec { warmup: 500, measure: 1_000, drain: 1_000, ..Default::default() };
        let res = run(&mut net, &mut wl, &spec);
        assert!(!res.saturated, "{res:?}");
        assert_eq!(res.unicast_samples, 1, "{res:?}");
        assert_eq!(res.unicast_hist.count(), 1);
        assert_eq!(res.bcast_samples, 1, "{res:?}");
    }

    #[test]
    fn csv_row_shape() {
        let mut net = QuarcNetwork::new(NocConfig::quarc(8));
        let mut wl = Synthetic::new(8, SyntheticConfig::paper(0.01, 4, 0.0, 3));
        let res = run(&mut net, &mut wl, &RunSpec::quick());
        let header_cols = RunResult::csv_header().split(',').count();
        let row_cols = res.csv_row().split(',').count();
        assert_eq!(header_cols, row_cols);
    }
}
