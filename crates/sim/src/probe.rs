//! `quarc-probe`: the permanent instrumentation layer.
//!
//! Three observation channels, all **off by default** and all bound by one
//! hard invariant — *observe, never mutate*. A probe reads simulator state
//! and wall-clock time; it never feeds anything back into arbitration,
//! routing, credits or the workload schedule, so enabling every probe must
//! leave the equivalence goldens byte-identical and the active-set lockstep
//! proptests green (`tests/probe.rs`, `tests/equivalence.rs` pin this —
//! proven, not asserted).
//!
//! 1. **Phase profiler** — wall-clock nanoseconds per step phase
//!    (arrivals / polls / gather / commit) plus the size of the worklist
//!    each phase walked, sampled every `profile_every`-th cycle so
//!    steady-state overhead is bounded. This replaces the "temporary
//!    `Instant` timers" workflow HOTPATH.md used to prescribe.
//! 2. **Counter time-series** — one [`CounterSample`] row every
//!    `counters_every`-th cycle: source backlog, buffered flits, link
//!    occupancy, live packet-table slots, the three worklist sizes, metric
//!    totals and the cumulative credit-stall count. Read through `samples()`;
//!    `CounterSample::csv_row` renders a row as CSV.
//! 3. **Flit-event trace** — structured inject / hop / clone / deliver
//!    events in a bounded ring buffer (drops counted, never blocking),
//!    exportable as Chrome trace-event JSON (`chrome://tracing`, Perfetto)
//!    via `quarc-bench trace`. The fabric reports each fact once, to the
//!    metrics and then to `SimProbe::record`, which encodes it here.
//!
//! The compiled-in cost with everything disabled is one branch per record
//! site; the benchmark's traced run prices each channel when on
//! (`probe.{profile,counters,trace}_on_ratio`).

use crate::metrics::FabricEvent;
use quarc_core::flit::TrafficClass;
use quarc_core::ids::MessageId;
use quarc_engine::Cycle;
use std::fmt::Write;
use std::time::Instant;

/// Counter-sample rows are capped so an accidental `counters_every = 1` on a
/// week-long campaign cannot eat the heap; rows beyond the cap are dropped
/// and counted.
const MAX_COUNTER_SAMPLES: usize = 1 << 20;

/// The four phases of every network's `step_cycle` (see
/// `crates/sim/HOTPATH.md`).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Phase {
    /// (a) link arrivals over the live-link worklist.
    Arrivals = 0,
    /// (b) workload polls over the due heap (plus chain re-injections).
    Polls = 1,
    /// (c) read-only arbitration over the sorted router worklist.
    Gather = 2,
    /// (d) commit of the planned transfers.
    Commit = 3,
}

impl Phase {
    /// All phases in step order.
    pub const ALL: [Phase; 4] = [Phase::Arrivals, Phase::Polls, Phase::Gather, Phase::Commit];
}

/// What to observe. Everything defaults to **off**; a disabled channel costs
/// one branch per record site.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct ProbeConfig {
    /// Profile the step phases every `profile_every`-th cycle (0 = off).
    pub profile_every: u32,
    /// Sample the counter registry every `counters_every`-th cycle (0 = off).
    pub counters_every: u32,
    /// Flit-event ring capacity (0 = tracing off).
    pub trace_capacity: usize,
}

impl ProbeConfig {
    /// Everything off (the steady-state default).
    pub fn off() -> Self {
        Self::default()
    }

    /// Every channel on, at full cadence — what the observe-never-mutate
    /// tests run under.
    pub fn all(trace_capacity: usize) -> Self {
        ProbeConfig { profile_every: 1, counters_every: 1, trace_capacity }
    }

    /// Whether any channel is on.
    pub fn any(&self) -> bool {
        self.profile_every != 0 || self.counters_every != 0 || self.trace_capacity != 0
    }
}

/// One row of the counter time-series. All fields are reads of O(1) state
/// the networks already maintain — sampling allocates only the row.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct CounterSample {
    /// Cycle the sample was taken at (end of the step, before the tick).
    pub cycle: Cycle,
    /// Flits queued at source transceivers.
    pub backlog: u64,
    /// Flits buffered in network input VC lanes.
    pub buffered: u64,
    /// Flits in flight on links.
    pub on_links: u64,
    /// Interned packet-table slots in use.
    pub live_packets: u64,
    /// Links in the live-link worklist.
    pub live_links: u64,
    /// Routers marked for the next arbitration pass.
    pub active_routers: u64,
    /// Entries in the source poll heap.
    pub poll_sources: u64,
    /// Messages created but not fully delivered.
    pub in_flight: u64,
    /// Messages fully completed.
    pub completed: u64,
    /// Flits delivered to PEs.
    pub delivered: u64,
    /// Flits consumed by fault drops (dead/lossy links).
    pub dropped: u64,
    /// Cumulative input-lane heads blocked on zero downstream credits.
    pub credit_stalls: u64,
}

impl CounterSample {
    /// One CSV row: the fields in declaration order.
    pub fn csv_row(&self) -> String {
        format!(
            "{},{},{},{},{},{},{},{},{},{},{},{},{}",
            self.cycle,
            self.backlog,
            self.buffered,
            self.on_links,
            self.live_packets,
            self.live_links,
            self.active_routers,
            self.poll_sources,
            self.in_flight,
            self.completed,
            self.delivered,
            self.dropped,
            self.credit_stalls,
        )
    }
}

/// What happened to a packet header (events are header-granularity so trace
/// volume scales with hops, not flits).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FlitEventKind {
    /// A message entered a source queue; `arg` is its expected receiver
    /// count (so the event stream is self-contained for conservation
    /// checks).
    Inject,
    /// A header was forwarded onto a link; `arg` is the output-port index.
    Hop,
    /// A copy was made — an ingress-mux clone at a branch node (`arg` =
    /// output the original continued on) or a Spidergon chain replication
    /// (one event per continuation, `arg` = that continuation's
    /// destination).
    Clone,
    /// A tail flit was delivered to a PE (one event per reception).
    Deliver,
    /// A packet's forward was suppressed by a fault at header-plan time;
    /// `arg` is the number of receivers written off as lost. Under an
    /// active recovery policy data drops carry `arg = 0` — loss accounting
    /// is deferred to the retry window and shows up as [`Self::Expire`].
    Drop,
    /// An ACK was absorbed at the source of the message it acknowledges;
    /// `node` is the acking receiver, `arg` is 1 for the first ack from
    /// that receiver and 0 for a drained duplicate.
    Ack,
    /// The recovery layer retransmitted a message to its unacked receiver
    /// subset; `node` is the source, `arg` is the subset size.
    Retry,
    /// The recovery layer exhausted its retries; `arg` is the number of
    /// never-served receivers written off as lost (closing the per-message
    /// ledger: delivers + drop-losses + expire-losses == expected).
    Expire,
}

impl FlitEventKind {
    /// Stable lower-case name (used as the Chrome trace event name).
    pub fn name(self) -> &'static str {
        match self {
            FlitEventKind::Inject => "inject",
            FlitEventKind::Hop => "hop",
            FlitEventKind::Clone => "clone",
            FlitEventKind::Deliver => "deliver",
            FlitEventKind::Drop => "drop",
            FlitEventKind::Ack => "ack",
            FlitEventKind::Retry => "retry",
            FlitEventKind::Expire => "expire",
        }
    }
}

/// One structured flit event (24 bytes; the ring holds `trace_capacity` of
/// them).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct FlitEvent {
    /// Cycle the event happened at.
    pub cycle: Cycle,
    /// The message id (`MessageId.0`: metrics slab slot + generation tag).
    pub message: u64,
    /// Node the event happened at.
    pub node: u32,
    /// Kind-specific argument (see [`FlitEventKind`]).
    pub arg: u32,
    /// What happened.
    pub kind: FlitEventKind,
    /// Traffic class of the message.
    pub class: TrafficClass,
}

/// The per-network probe. Owned as a plain field by every network model;
/// with the default [`ProbeConfig`] every record method is a single
/// early-return branch.
#[derive(Debug, Default)]
pub struct SimProbe {
    cfg: ProbeConfig,
    // Phase profiler.
    phase_ns: [u64; 4],
    phase_items: [u64; 4],
    profiled_cycles: u64,
    // Counter time-series.
    samples: Vec<CounterSample>,
    samples_dropped: u64,
    credit_stalls: u64,
    // Flit-event ring.
    events: Vec<FlitEvent>,
    /// Next ring slot to overwrite once `events` is at capacity.
    ring_head: usize,
    events_dropped: u64,
}

impl SimProbe {
    /// A probe with everything off.
    pub fn new() -> Self {
        Self::default()
    }

    /// Install a configuration. Retains nothing from earlier observation —
    /// call before the run being observed.
    pub fn configure(&mut self, cfg: ProbeConfig) {
        *self = SimProbe { cfg, ..SimProbe::default() };
        if cfg.trace_capacity > 0 {
            self.events.reserve_exact(cfg.trace_capacity);
        }
    }

    /// The active configuration.
    pub fn config(&self) -> ProbeConfig {
        self.cfg
    }

    // ---- phase profiler ------------------------------------------------

    /// Whether this cycle is a profiled one; counts it if so. The caller
    /// takes its own `Instant` marks and reports each phase through
    /// [`SimProbe::phase_lap`] — time never flows back into the simulation.
    #[inline]
    pub fn begin_profiled_cycle(&mut self, now: Cycle) -> bool {
        let every = self.cfg.profile_every;
        if every == 0 || !now.is_multiple_of(every as u64) {
            return false;
        }
        self.profiled_cycles += 1;
        true
    }

    /// Record that `phase` just finished, having walked `items` worklist
    /// entries; advances `mark` to now so the next lap starts here.
    #[inline]
    pub fn phase_lap(&mut self, phase: Phase, mark: &mut Instant, items: usize) {
        let t = Instant::now();
        self.phase_ns[phase as usize] += t.duration_since(*mark).as_nanos() as u64;
        self.phase_items[phase as usize] += items as u64;
        *mark = t;
    }

    /// Cycles the profiler actually timed.
    pub fn profiled_cycles(&self) -> u64 {
        self.profiled_cycles
    }

    /// Accumulated nanoseconds of a phase across all profiled cycles.
    pub fn phase_nanos(&self, phase: Phase) -> u64 {
        self.phase_ns[phase as usize]
    }

    /// Accumulated worklist entries a phase walked across profiled cycles.
    pub fn phase_items(&self, phase: Phase) -> u64 {
        self.phase_items[phase as usize]
    }

    // ---- counter time-series -------------------------------------------

    /// Whether the counter registry is being sampled at all (gates the
    /// credit-stall accounting in the gather phases).
    #[inline]
    pub fn counters_on(&self) -> bool {
        self.cfg.counters_every != 0
    }

    /// Whether this cycle is a counter-sample one.
    #[inline]
    pub fn counters_due(&self, now: Cycle) -> bool {
        let every = self.cfg.counters_every;
        every != 0 && now.is_multiple_of(every as u64)
    }

    /// Count an input-lane head blocked by zero downstream credits. Called
    /// from the gather phases only while [`SimProbe::counters_on`].
    #[inline]
    pub fn note_credit_stall(&mut self) {
        self.credit_stalls += 1;
    }

    /// Cumulative credit-stall count (what [`CounterSample::credit_stalls`]
    /// snapshots).
    pub fn credit_stalls(&self) -> u64 {
        self.credit_stalls
    }

    /// Append one sample row (bounded by `MAX_COUNTER_SAMPLES`).
    pub fn push_sample(&mut self, sample: CounterSample) {
        if self.samples.len() >= MAX_COUNTER_SAMPLES {
            self.samples_dropped += 1;
            return;
        }
        self.samples.push(sample);
    }

    /// The sampled time-series, in cycle order.
    pub fn samples(&self) -> &[CounterSample] {
        &self.samples
    }

    /// Sample rows dropped at the cap.
    pub fn samples_dropped(&self) -> u64 {
        self.samples_dropped
    }

    // ---- flit-event trace ----------------------------------------------

    /// Record the flit events of one fabric event, if tracing is on. Dropped
    /// bodies, duplicate flits and recovered receivers leave none.
    #[inline]
    pub(crate) fn record(&mut self, cycle: Cycle, event: FabricEvent<'_>) {
        if self.cfg.trace_capacity == 0 {
            return;
        }
        let ev = |kind, message: MessageId, class, node: usize, arg: usize| FlitEvent {
            cycle,
            message: message.0,
            node: node as u32,
            arg: arg as u32,
            kind,
            class,
        };
        use {FabricEvent as E, FlitEventKind as K};
        let event = match event {
            E::Inject { message, class, node, expected } => {
                ev(K::Inject, message, class, node, expected)
            }
            E::Hop { meta: m, node, port } => ev(K::Hop, m.message, m.class, node, port),
            E::Deliver { meta: m, flit, node, clone, .. } => {
                if let Some(out) = clone {
                    self.push(ev(K::Clone, m.message, m.class, node, out));
                }
                if !flit.is_tail() {
                    return;
                }
                ev(K::Deliver, m.message, m.class, node, 0)
            }
            E::Chain { meta: m, node, dst } => ev(K::Clone, m.message, m.class, node, dst.index()),
            E::Drop { meta: m, node, lost: Some(n) } => ev(K::Drop, m.message, m.class, node, n),
            E::Ack { meta: m, fresh } => {
                ev(K::Ack, m.message, m.class, m.src.index(), fresh.is_some() as usize)
            }
            E::Retry { message, class, src, targets } => {
                ev(K::Retry, message, class, src.index(), targets)
            }
            E::Expire { message, class, src, lost } => {
                ev(K::Expire, message, class, src.index(), lost)
            }
            E::Drop { lost: None, .. } | E::DupFlit | E::Recovered => return,
        };
        self.push(event);
    }

    /// Write one flit event into the ring (overwrites the oldest entry at
    /// capacity; overwrites are counted, never block).
    #[inline]
    fn push(&mut self, ev: FlitEvent) {
        let cap = self.cfg.trace_capacity;
        if self.events.len() < cap {
            self.events.push(ev);
        } else {
            self.events[self.ring_head] = ev;
            self.ring_head = (self.ring_head + 1) % cap;
            self.events_dropped += 1;
        }
    }

    /// Events currently in the ring, oldest first.
    pub fn events(&self) -> impl Iterator<Item = &FlitEvent> {
        let (wrapped, tail) = self.events.split_at(self.ring_head);
        tail.iter().chain(wrapped.iter())
    }

    /// Events overwritten because the ring was full.
    pub fn events_dropped(&self) -> u64 {
        self.events_dropped
    }

    /// The flit-event ring as Chrome trace-event JSON (the object form with
    /// a `traceEvents` array), loadable in `chrome://tracing` and Perfetto.
    /// Timestamps are cycles rendered as microseconds; `pid` 0 is the
    /// network, `tid` is the node index; per-message detail rides in `args`.
    pub fn chrome_trace_json(&self, process_name: &str) -> String {
        let mut out = String::with_capacity(128 + process_name.len() + 128 * self.events.len());
        out.push_str(
            "{\"displayTimeUnit\":\"ms\",\"traceEvents\":[\
             {\"name\":\"process_name\",\"ph\":\"M\",\"pid\":0,\"tid\":0,\"ts\":0,\
             \"args\":{\"name\":\"",
        );
        // JSON string escaping, in place.
        for c in process_name.chars() {
            match c {
                '"' => out.push_str("\\\""),
                '\\' => out.push_str("\\\\"),
                '\n' => out.push_str("\\n"),
                c if (c as u32) < 0x20 => {
                    write!(out, "\\u{:04x}", c as u32).expect("writing to a String cannot fail")
                }
                c => out.push(c),
            }
        }
        out.push_str("\"}}");
        for ev in self.events() {
            write!(
                out,
                ",{{\"name\":\"{}\",\"ph\":\"i\",\"s\":\"t\",\"ts\":{},\"pid\":0,\"tid\":{},\
                 \"args\":{{\"message\":{},\"class\":\"{}\",\"arg\":{}}}}}",
                ev.kind.name(),
                ev.cycle,
                ev.node,
                ev.message,
                ev.class,
                ev.arg,
            )
            .expect("writing to a String cannot fail");
        }
        out.push_str("]}");
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use quarc_core::flit::{Flit, FlitKind, PacketMeta, PacketRef};
    use quarc_core::ids::NodeId;

    /// A flit event with the ring's field order.
    fn fe(
        cycle: Cycle,
        kind: FlitEventKind,
        message: u64,
        class: TrafficClass,
        node: u32,
        arg: u32,
    ) -> FlitEvent {
        FlitEvent { cycle, message, node, arg, kind, class }
    }

    #[test]
    fn disabled_probe_records_nothing() {
        let mut p = SimProbe::new();
        assert!(!p.begin_profiled_cycle(0));
        assert!(!p.counters_due(0));
        assert_eq!(p.config().trace_capacity, 0);
        let (message, class) = (MessageId(1), TrafficClass::Unicast);
        p.record(0, FabricEvent::Inject { message, class, node: 0, expected: 1 });
        assert_eq!(p.events().count(), 0);
        assert_eq!(p.profiled_cycles(), 0);
        assert!(p.samples().is_empty());
    }

    #[test]
    fn profile_cadence_samples_every_kth_cycle() {
        let mut p = SimProbe::new();
        p.configure(ProbeConfig { profile_every: 4, ..ProbeConfig::off() });
        let hits = (0..16u64).filter(|&c| p.begin_profiled_cycle(c)).count();
        assert_eq!(hits, 4);
        assert_eq!(p.profiled_cycles(), 4);
    }

    #[test]
    fn phase_lap_accumulates_time_and_items() {
        let mut p = SimProbe::new();
        p.configure(ProbeConfig { profile_every: 1, ..ProbeConfig::off() });
        assert!(p.begin_profiled_cycle(0));
        let mut mark = Instant::now();
        std::thread::sleep(std::time::Duration::from_millis(2));
        p.phase_lap(Phase::Gather, &mut mark, 7);
        assert!(p.phase_nanos(Phase::Gather) >= 1_000_000, "sleep must register");
        assert_eq!(p.phase_items(Phase::Gather), 7);
        // The mark advanced: an immediate second lap is near-zero.
        p.phase_lap(Phase::Commit, &mut mark, 1);
        assert!(p.phase_nanos(Phase::Commit) < p.phase_nanos(Phase::Gather));
        assert_eq!(p.phase_items(Phase::Commit), 1);
        assert_eq!(p.profiled_cycles(), 1);
    }

    #[test]
    fn trace_ring_wraps_and_counts_drops() {
        let mut p = SimProbe::new();
        p.configure(ProbeConfig { trace_capacity: 3, ..ProbeConfig::off() });
        for i in 0..5u64 {
            p.push(fe(i, FlitEventKind::Hop, i, TrafficClass::Unicast, i as u32, 0));
        }
        assert_eq!(p.events_dropped(), 2);
        let cycles: Vec<u64> = p.events().map(|e| e.cycle).collect();
        assert_eq!(cycles, vec![2, 3, 4], "oldest-first after wrap");
    }

    #[test]
    fn counters_sample_on_cadence_and_export_as_csv() {
        let mut p = SimProbe::new();
        p.configure(ProbeConfig { counters_every: 2, ..ProbeConfig::off() });
        assert!(p.counters_due(0) && !p.counters_due(1) && p.counters_due(2));
        p.note_credit_stall();
        p.push_sample(CounterSample {
            cycle: 2,
            backlog: 1,
            buffered: 2,
            on_links: 3,
            live_packets: 4,
            live_links: 5,
            active_routers: 6,
            poll_sources: 7,
            in_flight: 8,
            completed: 9,
            delivered: 10,
            dropped: 0,
            credit_stalls: p.credit_stalls(),
        });
        assert_eq!(p.samples().len(), 1);
        let row = p.samples()[0].csv_row();
        assert!(row.ends_with(",1"), "{row}");
    }

    #[test]
    fn chrome_trace_shape_is_loadable() {
        let mut p = SimProbe::new();
        p.configure(ProbeConfig { trace_capacity: 8, ..ProbeConfig::off() });
        p.push(fe(0, FlitEventKind::Inject, 42, TrafficClass::Broadcast, 3, 15));
        p.push(fe(9, FlitEventKind::Deliver, 42, TrafficClass::Broadcast, 5, 0));
        let json = p.chrome_trace_json("quarc n=16");
        assert!(json.starts_with('{') && json.ends_with('}'));
        assert!(json.contains("\"traceEvents\":["));
        for field in ["\"ph\":\"i\"", "\"ts\":9", "\"tid\":5", "\"pid\":0", "\"name\":\"deliver\""]
        {
            assert!(json.contains(field), "missing {field} in {json}");
        }
    }

    #[test]
    fn chrome_trace_bytes_are_pinned() {
        let mut p = SimProbe::new();
        p.configure(ProbeConfig { trace_capacity: 4, ..ProbeConfig::off() });
        p.push(fe(3, FlitEventKind::Inject, 7, TrafficClass::Multicast, 1, 2));
        p.push(fe(11, FlitEventKind::Drop, 7, TrafficClass::Ack, 4, 0));
        let json = p.chrome_trace_json("q\"uo\\te\nline\u{1}é");
        let want = concat!(
            r#"{"displayTimeUnit":"ms","traceEvents":["#,
            r#"{"name":"process_name","ph":"M","pid":0,"tid":0,"ts":0,"#,
            r#""args":{"name":"q\"uo\\te\nline\u0001é"}},"#,
            r#"{"name":"inject","ph":"i","s":"t","ts":3,"pid":0,"tid":1,"#,
            r#""args":{"message":7,"class":"multicast","arg":2}},"#,
            r#"{"name":"drop","ph":"i","s":"t","ts":11,"pid":0,"tid":4,"#,
            r#""args":{"message":7,"class":"ack","arg":0}}]}"#,
        );
        assert_eq!(json, want);
    }

    #[test]
    fn configure_resets_prior_observation() {
        let mut p = SimProbe::new();
        p.configure(ProbeConfig::all(4));
        p.push(fe(1, FlitEventKind::Hop, 1, TrafficClass::Unicast, 0, 0));
        p.note_credit_stall();
        p.configure(ProbeConfig::off());
        assert_eq!(p.events().count(), 0);
        assert_eq!(p.credit_stalls(), 0);
    }

    #[test]
    fn fabric_events_encode_as_flit_events() {
        let mut p = SimProbe::new();
        p.configure(ProbeConfig { trace_capacity: 16, ..ProbeConfig::off() });
        let meta = PacketMeta {
            message: MessageId(9),
            packet: quarc_core::ids::PacketId(0),
            class: TrafficClass::Multicast,
            src: NodeId(2),
            dst: NodeId(6),
            bitstring: quarc_core::bits::Bits::ZERO,
            dir: quarc_core::ring::RingDir::Cw,
            len: 1,
            created_at: 0,
        };
        // A single-flit packet copied at a branch node: the clone (with the
        // output the original continues on) precedes the reception.
        let flit = Flit { packet: PacketRef(0), seq: 0, kind: FlitKind::Single };
        p.record(
            5,
            FabricEvent::Deliver { meta: &meta, flit: &flit, node: 4, site: 0, clone: Some(1) },
        );
        p.record(5, FabricEvent::Chain { meta: &meta, node: 4, dst: NodeId(7) });
        p.record(6, FabricEvent::Drop { meta: &meta, node: 3, lost: None });
        p.record(6, FabricEvent::Drop { meta: &meta, node: 3, lost: Some(2) });
        p.record(7, FabricEvent::DupFlit);
        p.record(7, FabricEvent::Recovered);
        p.record(8, FabricEvent::Ack { meta: &meta, fresh: None });
        let got: Vec<_> = p.events().map(|e| (e.cycle, e.kind, e.node, e.arg)).collect();
        let want = [
            (5, FlitEventKind::Clone, 4, 1),
            (5, FlitEventKind::Deliver, 4, 0),
            (5, FlitEventKind::Clone, 4, 7),
            (6, FlitEventKind::Drop, 3, 2),
            (8, FlitEventKind::Ack, 2, 0),
        ];
        assert_eq!(got, want);
        assert!(p.events().all(|e| e.message == 9 && e.class == TrafficClass::Multicast));
    }
}
