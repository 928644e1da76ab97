//! The fabric engine: one flit-level wormhole simulator, parameterised by a
//! [`RouterModel`].
//!
//! The paper presents Quarc as Spidergon with three architectural changes
//! and names mesh/torus the next comparison; what differs between those
//! networks is small and local — port geometry and wiring, the per-hop
//! route and VC class, which inputs may feed an output, how a message
//! becomes packets, and what "deliver" means at a router. Everything else
//! is the same machine, and it is written once, here:
//!
//! * **state** — structure-of-arrays slabs indexed `node * PORTS + port`
//!   (and `… * vcs + vc` for lanes): one [`LaneBufs`] bank, route/ownership
//!   slabs, [`RoundRobinBank`] arbiter pointers, sender-side credit mirrors,
//!   one [`LinkBank`], the [`PacketTable`], [`Metrics`], [`SimProbe`],
//!   [`FaultState`] and [`RecoveryState`];
//! * **the cycle** — a deterministic four-phase update: (a) link arrivals,
//!   (b) re-injections, workload polls and recovery deadlines, (c) a
//!   read-only arbitration pass (a per-input VC arbiter, then a per-output
//!   round-robin grant — the paper's IPC and OPC master FSM, §2.3), (d) a
//!   commit pass moving at most one flit per input and per output port;
//! * **active-set scheduling** — per-cycle cost proportional to live
//!   traffic, not `n`: arrivals walk a live-link worklist, arbitration walks
//!   a sorted worklist of routers a tracked event could have made
//!   grantable, polling pops a due-cycle heap fed by
//!   [`Workload::next_due`]; `set_full_scan` is the naive oracle the
//!   lockstep tests step against (invariants in `crates/sim/HOTPATH.md`);
//! * **the commit skeleton** — pop → eject / ingress-mux copy → fault drop →
//!   forward, with the probe, fault and recovery hooks at their one site.
//!
//! Dispatch is static: `Fabric<R>` monomorphizes per model, and every
//! per-port table is an associated constant.

use crate::arbiter::{ArbPolicy, RoundRobinBank};
use crate::buffer::LaneBufs;
use crate::driver::{NocSim, StallDiagnostics};
use crate::fault::FaultState;
use crate::link::{LinkBank, TaggedFlit};
use crate::metrics::Metrics;
use crate::packets::{ack_meta, IdAlloc, PacketQueue};
use crate::probe::{CounterSample, FlitEventKind, Phase, SimProbe};
use crate::recovery::{DataDelivery, RecoveryAction, RecoveryState};
use quarc_core::bits::BitSlab;
use quarc_core::config::{NocConfig, MAX_VCS};
use quarc_core::flit::{Flit, PacketMeta, PacketRef, PacketTable, TrafficClass};
use quarc_core::ids::{MessageId, NodeId, VcId};
use quarc_core::topology::TopologyKind;
use quarc_core::vc::INJECTION_VC;
use quarc_engine::{Clock, Cycle, EventQueue};
use quarc_workloads::{MessageRequest, Workload};
use std::cmp::Reverse;
use std::collections::BinaryHeap;

/// [`Route::out`] of a flit the PE sinks without claiming any output: an
/// all-port router's parallel absorption, or a fault-dropped forward.
pub const ABSORB: u8 = u8::MAX;

/// Most request slots (network inputs + local queues) any model uses.
const MAX_SLOTS: usize = 8;

/// A flit source within one router. Byte-sized: ownership words are
/// replicated per output lane per node, and the whole router state should
/// stay cache-resident.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Src {
    /// Network input `port`, VC lane `vc`.
    Net {
        /// Input port index.
        port: u8,
        /// VC lane index.
        vc: u8,
    },
    /// Local injection queue `queue`.
    Local {
        /// Queue index within the node.
        queue: u8,
    },
}

/// A model's per-hop routing decision for one header.
#[derive(Debug, Clone, Copy)]
pub struct Route {
    /// The local PE takes a copy at the ingress multiplexer.
    pub deliver: bool,
    /// `0..PORTS` = forward on that link; `PORTS` = the arbitrated ejection
    /// port (models with [`RouterModel::EJECT_PORT`]); [`ABSORB`] = sink
    /// here without arbitration.
    pub out: u8,
    /// VC on the outgoing link (meaningless unless forwarding).
    pub out_vc: VcId,
}

/// What differs between the networks the paper compares. The [`Fabric`]
/// calls these at the one place each concern meets the cycle loop.
pub trait RouterModel: std::fmt::Debug + Sized {
    /// Network ports per router (outgoing links; equally, link inputs).
    const PORTS: usize;
    /// Local injection queues per router (request slots `PORTS..`).
    const QUEUES: usize;
    /// Whether the PE is reached through one arbitrated ejection port
    /// (output index `PORTS`) rather than absorbing on every input lane in
    /// parallel.
    const EJECT_PORT: bool;
    /// Whether fault-drop drains commit ahead of the output grants (else
    /// after them, in slot order with the other un-arbitrated absorptions).
    /// Commit order within a router is metric accumulation order, which the
    /// goldens pin per model.
    const DROPS_FIRST: bool;
    /// Per output (links `0..PORTS`, then the ejection port if any): the
    /// request slots that may feed it, in arbiter candidate order.
    const FEEDERS: &'static [&'static [u8]];

    /// Build the model for a validated configuration of its own kind.
    fn new(cfg: &NocConfig) -> Self;
    /// Topology family.
    fn kind(&self) -> TopologyKind;
    /// Router count (grids round `cfg.n` up to a near-square).
    fn num_nodes(&self) -> usize;
    /// An empty packet table sized for the model's longest bitstring.
    fn packet_table(&self) -> PacketTable;
    /// The output-grant arbitration policy under `cfg`.
    fn out_policy(_cfg: &NocConfig) -> ArbPolicy {
        ArbPolicy::RoundRobin
    }
    /// Where the link leaving `node` through `out` lands, as `(node, input
    /// port)`; `None` for a vacant slot (a mesh edge).
    fn link_target(&self, node: usize, out: usize) -> Option<(usize, usize)>;
    /// Route the header at the head of network input lane `(port, vc)`.
    fn route_net(&self, node: usize, port: usize, vc: usize, meta: &PacketMeta) -> Route;
    /// Route the header at the head of local queue `queue`.
    fn route_local(&self, node: usize, queue: usize, meta: &PacketMeta) -> Route;
    /// Expand `req` into packets of `message`, interned in `table` and
    /// serialised into the source node's `queues`. Returns `(expected
    /// receivers, flits enqueued)`.
    fn expand_into(
        &mut self,
        req: &MessageRequest,
        message: MessageId,
        now: Cycle,
        ids: &mut IdAlloc,
        table: &mut PacketTable,
        queues: &mut [PacketQueue],
    ) -> (usize, usize);
    /// The local queue a control packet from `node` to `to` injects through.
    fn ack_queue(&self, _node: NodeId, _to: NodeId) -> usize {
        0
    }
    /// Receivers a packet whose forward was fault-dropped at `node` would
    /// still have served downstream. Cold; must read `bits` through offsets
    /// and never shift (the row is shared with the live packet).
    fn receivers_beyond(&self, bits: &BitSlab, node: usize, src: Src, meta: &PacketMeta) -> usize;
    /// Packets the PE at `node` re-injects one cycle after freshly receiving
    /// the tail of `meta`'s packet (packet ids are assigned by the fabric).
    fn respawn(&self, _node: NodeId, _meta: &PacketMeta, _spawn: &mut dyn FnMut(PacketMeta)) {}
}

/// The resolved per-hop plan for the packet at the head of a lane, cached
/// per lane for the whole worm.
#[derive(Debug, Clone, Copy)]
struct HopPlan {
    deliver: bool,
    out: u8,
    out_vc: VcId,
    /// The forward was suppressed by a fault: drain the packet's flits
    /// without transmitting (a local copy, if any, still delivers). Set
    /// only at header-plan time, so a fault never tears a worm mid-packet.
    dropped: bool,
    /// The delivery at this node duplicates an already-served receiver
    /// (recovery only): drain it without recording, but still re-ack the
    /// tail. Decided at the header's *commit* (a header that loses
    /// arbitration re-plans, so gather must stay read-only) and cached with
    /// the rest of the plan for the worm's body and tail.
    dup: bool,
}

/// One input's request for this cycle.
#[derive(Debug, Clone, Copy)]
struct PortReq {
    src: Src,
    plan: HopPlan,
    is_header: bool,
    is_tail: bool,
}

/// Planned flit movement, computed in the read-only phase.
#[derive(Debug, Clone, Copy)]
struct Transfer {
    node: u32,
    req: PortReq,
}

/// Target of a vacant link slot.
const NO_LINK: u32 = u32::MAX;

/// Per-worm state held from a packet's header to its tail: the header sets
/// it, the tail clears it (a single-flit packet does both, leaving it clear).
#[inline]
fn hold<T>(slot: &mut Option<T>, value: T, is_header: bool, is_tail: bool) {
    if is_header {
        *slot = Some(value);
    }
    if is_tail {
        *slot = None;
    }
}

/// The flit-level network simulator over router model `R`. All per-router
/// state lives in fabric-owned flat slabs; the "router" is a loop index.
#[derive(Debug)]
pub struct Fabric<R: RouterModel> {
    model: R,
    cfg: NocConfig,
    nodes: usize,
    clock: Clock,
    /// Injection queues, `node * QUEUES + queue`, holding whole packets
    /// (flits materialise on pop). Unbounded: the paper keeps packets in PE
    /// RAM and queues only addresses (§3.1).
    inject_q: Box<[PacketQueue]>,
    /// Plan of the packet currently streaming from each injection queue.
    inject_plan: Box<[Option<HopPlan>]>,
    /// Input buffers; lane `(node * PORTS + port) * vcs + vc`.
    in_buf: LaneBufs,
    /// Route state per input lane, set by the header's commit.
    in_route: Box<[Option<HopPlan>]>,
    /// Wormhole ownership per output lane `(node * PORTS + out) * vcs + vc`.
    out_owner: Box<[Option<Src>]>,
    /// Ejection-port ownership per node (empty without an ejection port).
    eject_owner: Box<[Option<Src>]>,
    /// VC arbiter per network input port.
    rr_in_vc: RoundRobinBank,
    /// Grant arbiter per output, `node * FEEDERS.len() + out`.
    rr_out: RoundRobinBank,
    /// Directed links, `node * PORTS + out`.
    links: LinkBank,
    ids: IdAlloc,
    metrics: Metrics,
    packets: PacketTable,
    /// Packets a PE re-injects after a header-rewrite cycle (already
    /// interned): `(node, packet, len)` — see [`RouterModel::respawn`].
    reinject: EventQueue<(u32, PacketRef, u32)>,
    /// Scratch reused across cycles (no per-cycle allocation).
    transfers: Vec<Transfer>,
    poll_buf: Vec<MessageRequest>,
    retry_targets: Vec<NodeId>,
    /// Total link traversals — a scalar beside the per-link array, because
    /// the stall watchdog and the perf harness read it per sample.
    flit_hops: u64,
    /// Flits carried per link since construction.
    link_flits: Vec<u64>,
    /// `(downstream node, input port)` per link; [`NO_LINK`] when vacant.
    targets: Vec<(u32, u8)>,
    /// Sender-side credits per output lane: an exact mirror of `depth −
    /// buffered_downstream − in_flight_on_link`, decremented on send and
    /// returned when the downstream router pops the flit.
    credits: Vec<u32>,
    /// Link feeding each network input (inverse of `targets`).
    feeder: Vec<u32>,
    /// Routers-with-work worklist and its membership flags. A router that
    /// produced no grant can only become grantable through a tracked event
    /// — a link arrival, an injection, a commit at the node, a credit
    /// returned to it — each of which re-marks it.
    node_active: Vec<bool>,
    active_nodes: Vec<u32>,
    node_worklist: Vec<u32>,
    /// Links-with-flits worklist (insertion-ordered; arrival targets are
    /// disjoint, so order cannot affect state).
    link_live: Vec<bool>,
    live_links: Vec<u32>,
    /// Sources-with-upcoming-work: min-heap of `(due cycle, node)`.
    poll_heap: BinaryHeap<Reverse<(Cycle, u32)>>,
    /// Test oracle: bypass every worklist and scan everything each cycle.
    full_scan: bool,
    /// O(1) counter twins of walking the queues, lanes and links.
    inject_backlog: usize,
    buffered_flits: u64,
    link_occupancy: u64,
    /// Realised [`NocConfig::fault`] schedule plus explicit link-block
    /// windows; an empty plan costs one predictable branch per site.
    fault: FaultState,
    /// End-to-end ack/timeout/retransmit engine ([`NocConfig::recovery`]).
    recovery: RecoveryState,
    /// Instrumentation (off by default; observe, never mutate).
    probe: SimProbe,
}

impl<R: RouterModel> Fabric<R> {
    /// Build a network from a configuration of the model's topology kind.
    pub fn new(cfg: NocConfig) -> Self {
        cfg.validate().expect("invalid configuration");
        let model = R::new(&cfg);
        let n = model.num_nodes();
        let (ports, vcs) = (R::PORTS, cfg.vcs);
        let targets: Vec<(u32, u8)> = (0..n * ports)
            .map(|lid| match model.link_target(lid / ports, lid % ports) {
                Some((to, tin)) => (to as u32, tin as u8),
                None => (NO_LINK, 0),
            })
            .collect();
        let mut feeder = vec![u32::MAX; n * ports];
        for (lid, &(to, tin)) in targets.iter().enumerate() {
            if to != NO_LINK {
                feeder[to as usize * ports + tin as usize] = lid as u32;
            }
        }
        let fault = FaultState::new(
            &cfg.fault,
            n,
            n * ports,
            |lid| lid / ports,
            |lid| targets[lid].0 != NO_LINK,
        );
        Fabric {
            cfg,
            nodes: n,
            clock: Clock::new(),
            inject_q: (0..n * R::QUEUES).map(|_| PacketQueue::new()).collect(),
            inject_plan: vec![None; n * R::QUEUES].into_boxed_slice(),
            in_buf: LaneBufs::new(n * ports * vcs, cfg.buffer_depth),
            in_route: vec![None; n * ports * vcs].into_boxed_slice(),
            out_owner: vec![None; n * ports * vcs].into_boxed_slice(),
            eject_owner: vec![None; if R::EJECT_PORT { n } else { 0 }].into_boxed_slice(),
            rr_in_vc: RoundRobinBank::new(n * ports, ArbPolicy::RoundRobin),
            rr_out: RoundRobinBank::new(n * R::FEEDERS.len(), R::out_policy(&cfg)),
            links: LinkBank::new(n * ports, cfg.link_latency),
            ids: IdAlloc::new(),
            metrics: Metrics::new(),
            packets: model.packet_table(),
            reinject: EventQueue::new(),
            transfers: Vec::new(),
            poll_buf: Vec::new(),
            retry_targets: Vec::new(),
            flit_hops: 0,
            link_flits: vec![0; n * ports],
            credits: vec![cfg.buffer_depth as u32; n * ports * vcs],
            feeder,
            targets,
            node_active: vec![true; n],
            active_nodes: (0..n as u32).collect(),
            node_worklist: Vec::new(),
            link_live: vec![false; n * ports],
            live_links: Vec::new(),
            poll_heap: (0..n as u32).map(|node| Reverse((0, node))).collect(),
            full_scan: false,
            inject_backlog: 0,
            buffered_flits: 0,
            link_occupancy: 0,
            fault,
            recovery: RecoveryState::new(cfg.recovery, n),
            probe: SimProbe::new(),
            model,
        }
    }

    /// Build with an explicit output-arbitration policy (equivalent to
    /// setting [`NocConfig::arb`] before [`Fabric::new`]).
    pub fn with_arb_policy(cfg: NocConfig, policy: ArbPolicy) -> Self {
        Self::new(cfg.with_arb(policy))
    }

    /// The configuration this network was built with.
    pub fn config(&self) -> &NocConfig {
        &self.cfg
    }

    /// Test oracle: disable the active-set worklists and scan every link,
    /// router and source each cycle (the naive reference the lockstep
    /// proptests step against). Call before the first `step`.
    pub fn set_full_scan(&mut self, on: bool) {
        assert_eq!(self.clock.now(), 0, "full-scan mode is a construction-time choice");
        self.full_scan = on;
    }

    /// Total flits queued at source transceivers. O(1).
    pub fn backlog(&self) -> usize {
        self.inject_backlog
    }

    /// Packets currently interned (in flight or awaiting re-injection).
    pub fn live_packets(&self) -> usize {
        self.packets.live()
    }

    /// Flits carried so far per link, indexed `node * PORTS + out`.
    pub(crate) fn link_flit_counts(&self) -> &[u64] {
        &self.link_flits
    }

    /// Block link `node * PORTS + out` losslessly while `from ≤ now <
    /// until` (a stalled downstream consumer; flow control must absorb it).
    pub(crate) fn block_link(&mut self, lid: usize, from: Cycle, until: Cycle) {
        assert!(self.targets[lid].0 != NO_LINK, "no such link");
        self.fault.block_link(lid, lid / R::PORTS, from, until);
    }

    /// Mark `node`'s router as possibly grantable next arbitration pass.
    #[inline]
    fn mark_node(&mut self, node: usize) {
        if !self.node_active[node] {
            self.node_active[node] = true;
            self.active_nodes.push(node as u32);
        }
    }

    /// Turn a model's route into the lane's plan. The fault-drop decision is
    /// made here, once per packet per hop: it is pure in (link, packet) plus
    /// the onset gate, and the plan is cached at the header's commit, so a
    /// worm is never torn. A dropped forward claims no output.
    #[inline]
    fn plan_header(&self, node: usize, route: Route, meta: &PacketMeta) -> HopPlan {
        let Route { deliver, out, out_vc } = route;
        let dropped = (out as usize) < R::PORTS
            && self.fault.any()
            && self.fault.drops_packet(
                node * R::PORTS + out as usize,
                meta.packet,
                self.clock.now(),
            );
        if dropped {
            HopPlan { deliver, out: ABSORB, out_vc: INJECTION_VC, dropped: true, dup: false }
        } else {
            HopPlan { deliver, out, out_vc, dropped: false, dup: false }
        }
    }

    /// Whether the resources of `plan` are available to `src` this cycle:
    /// wormhole ownership of the output lane (or ejection port), then a
    /// downstream credit — one read of the sender-side mirror. `count_stall`
    /// is probe-only: a lane head blocked purely on credits is a credit
    /// stall (it must not change the short-circuit order).
    #[inline]
    fn feasible(
        &mut self,
        node: usize,
        plan: HopPlan,
        src: Src,
        is_header: bool,
        count_stall: bool,
    ) -> bool {
        if plan.out == ABSORB {
            return true;
        }
        let eject = R::EJECT_PORT && plan.out as usize == R::PORTS;
        let lid = node * R::PORTS + plan.out as usize;
        let owner = if eject {
            self.eject_owner[node]
        } else {
            self.out_owner[lid * self.cfg.vcs + plan.out_vc.index()]
        };
        let owned = match owner {
            Some(o) => o == src && !is_header,
            None => is_header,
        };
        if !owned || eject {
            return owned;
        }
        let free = !(self.fault.any() && self.fault.link_blocked(lid, self.clock.now()))
            && self.credits[lid * self.cfg.vcs + plan.out_vc.index()] > 0;
        if !free && count_stall && self.probe.counters_on() {
            self.probe.note_credit_stall();
        }
        free
    }

    /// The request (if any) of network input port `p` at `node`: the VC
    /// arbiter elects one feasible lane. Read-only apart from the arbiter
    /// pointer, which only moves when it elects.
    // Index loops couple several per-lane arrays; iterator forms obscure
    // the coupling in this golden-pinned hot path.
    #[allow(clippy::needless_range_loop)]
    #[inline(always)] // `p` becomes a constant once `gather_node` unrolls its port loop
    fn gather_net_port(&mut self, node: usize, p: usize) -> Option<PortReq> {
        let vcs = self.cfg.vcs;
        let base = (node * R::PORTS + p) * vcs;
        // Fixed-size scratch: runs per active router per cycle, must not
        // allocate.
        let mut feasible: [Option<PortReq>; MAX_VCS] = [None; MAX_VCS];
        for vc in 0..vcs {
            let Some(head) = self.in_buf.front(base + vc).copied() else {
                continue;
            };
            let plan = match self.in_route[base + vc] {
                Some(plan) => {
                    debug_assert!(!head.is_header(), "route state present at header");
                    plan
                }
                None => {
                    assert!(head.is_header(), "wormhole violated: non-header {head} on {p}/{vc}");
                    let meta = self.packets.meta(head.packet);
                    self.plan_header(node, self.model.route_net(node, p, vc, meta), meta)
                }
            };
            let src = Src::Net { port: p as u8, vc: vc as u8 };
            if self.feasible(node, plan, src, head.is_header(), true) {
                feasible[vc] = Some(PortReq {
                    src,
                    plan,
                    is_header: head.is_header(),
                    is_tail: head.is_tail(),
                });
            }
        }
        let pick = self.rr_in_vc.pick(node * R::PORTS + p, vcs, |vc| feasible[vc].is_some())?;
        feasible[pick]
    }

    /// The request (if any) of local injection queue `queue` at `node`.
    #[inline(always)] // as `gather_net_port`
    fn gather_local_port(&mut self, node: usize, queue: usize) -> Option<PortReq> {
        let q = node * R::QUEUES + queue;
        let head = self.inject_q[q].front()?;
        let plan = match self.inject_plan[q] {
            Some(plan) => {
                debug_assert!(!head.is_header());
                plan
            }
            None => {
                assert!(head.is_header(), "local queue must start with a header");
                let meta = self.packets.meta(head.packet);
                self.plan_header(node, self.model.route_local(node, queue, meta), meta)
            }
        };
        let src = Src::Local { queue: queue as u8 };
        self.feasible(node, plan, src, head.is_header(), false).then_some(PortReq {
            src,
            plan,
            is_header: head.is_header(),
            is_tail: head.is_tail(),
        })
    }

    /// Read-only arbitration over one router; appends winning transfers.
    // Constant-bound index loops: the per-port gathers inline and unroll
    // (an `enumerate()` over the slot slice measured 1.4–2× slower here).
    #[allow(clippy::needless_range_loop)]
    fn gather_node(&mut self, node: usize, transfers: &mut Vec<Transfer>) {
        // A frozen router grants nothing. Returning before any arbiter is
        // consulted keeps full-scan and active-set arbiter state identical
        // (the node simply falls out of the active set).
        if self.fault.node_frozen(node, self.clock.now()) {
            return;
        }
        // Phase 1: each input (VC arbiter) elects at most one request.
        let mut reqs: [Option<PortReq>; MAX_SLOTS] = [None; MAX_SLOTS];
        for p in 0..R::PORTS {
            reqs[p] = self.gather_net_port(node, p);
        }
        for queue in 0..R::QUEUES {
            reqs[R::PORTS + queue] = self.gather_local_port(node, queue);
        }
        let reqs = &mut reqs[..R::PORTS + R::QUEUES];
        let node = node as u32;
        // Drop plans claim no output: where the model says so, commit them
        // ahead of the grants instead of with the other absorptions.
        if R::DROPS_FIRST && self.fault.any() {
            for slot in reqs.iter_mut() {
                if let Some(req) = slot.take_if(|r| r.plan.dropped) {
                    transfers.push(Transfer { node, req });
                }
            }
        }
        // Phase 2: per-output grant (the OPC master FSM). Candidate lists
        // are the model's static tables, so each arbiter has a fixed,
        // hardware-like domain. `wants[o]` is the bitmask of slots
        // requesting output `o`; an output nobody requests is skipped, which
        // is exact — an arbiter with no eligible candidate does not move.
        let mut wants = [0u8; MAX_SLOTS];
        for (slot, req) in reqs.iter().enumerate() {
            if let Some(r) = req {
                if r.plan.out != ABSORB {
                    wants[r.plan.out as usize] |= 1 << slot;
                }
            }
        }
        for (o, feeders) in R::FEEDERS.iter().enumerate() {
            let want = wants[o];
            if want == 0 {
                continue;
            }
            let winner =
                self.rr_out.pick(node as usize * R::FEEDERS.len() + o, feeders.len(), |k| {
                    want >> feeders[k] & 1 != 0
                });
            if let Some(k) = winner {
                let req = reqs[feeders[k] as usize].take().expect("winner exists");
                transfers.push(Transfer { node, req });
            }
        }
        // Un-arbitrated requests claim no output and proceed unconditionally
        // (an all-port router absorbs on every input in parallel, §2.2 iii).
        for req in reqs.iter().flatten() {
            if req.plan.out == ABSORB {
                transfers.push(Transfer { node, req: *req });
            }
        }
    }

    /// Apply one planned transfer: pop → deliver → drop → forward.
    fn commit(&mut self, t: Transfer) {
        let now = self.clock.now();
        let node = t.node as usize;
        let vcs = self.cfg.vcs;
        let PortReq { src, plan, is_header, is_tail } = t.req;
        // Any commit mutates this router's lane/ownership/credit state.
        self.mark_node(node);
        let flit = match src {
            Src::Net { port, vc } => {
                let (port, vc) = (port as usize, vc as usize);
                let lane = (node * R::PORTS + port) * vcs + vc;
                let flit = self.in_buf.pop(lane).expect("planned flit");
                self.buffered_flits -= 1;
                // The freed slot becomes a credit at the upstream sender,
                // which may unblock its router.
                let feeder = self.feeder[node * R::PORTS + port] as usize;
                self.credits[feeder * vcs + vc] += 1;
                self.mark_node(feeder / R::PORTS);
                hold(&mut self.in_route[lane], plan, is_header, is_tail);
                flit
            }
            Src::Local { queue } => {
                let q = node * R::QUEUES + queue as usize;
                let flit = self.inject_q[q].pop().expect("planned flit");
                self.inject_backlog -= 1;
                hold(&mut self.inject_plan[q], plan, is_header, is_tail);
                flit
            }
        };

        let eject = R::EJECT_PORT && plan.out as usize == R::PORTS;
        if eject {
            hold(&mut self.eject_owner[node], src, is_header, is_tail);
        }
        if eject || plan.deliver {
            self.deliver(node, src, &flit, plan, is_header, eject);
        }

        // Fault drop: the forward this plan would have made is suppressed.
        // Every flit is accounted; the header additionally writes off the
        // receivers the suppressed forward would have served (a local copy
        // above was not among them), so the message ledger still balances
        // (`expected == delivered + lost`) and drain loops terminate.
        if plan.dropped {
            let meta = *self.packets.meta(flit.packet);
            self.metrics.record_flit_drop(meta.class);
            // Dropped ACKs are pure control loss: the data source's timeout
            // covers them. Data drops write off their unreached receivers —
            // unless recovery is on, in which case every loss is deferred to
            // the retry window (the exhaust pump is the sole write-off site,
            // so a drop racing the final deadline can never double-count).
            if is_header && meta.class != TrafficClass::Ack {
                let lost = if self.recovery.enabled() {
                    0
                } else {
                    self.model.receivers_beyond(self.packets.bits(), node, src, &meta)
                };
                self.metrics.record_lost_receivers(meta.message, lost);
                if self.probe.trace_on() {
                    let (msg, class) = (meta.message.0, meta.class);
                    self.probe.trace(
                        FlitEventKind::Drop,
                        now,
                        msg,
                        class,
                        node as u32,
                        lost as u32,
                    );
                }
            }
        }

        if (plan.out as usize) < R::PORTS {
            let o = plan.out as usize;
            let lid = node * R::PORTS + o;
            let lane = lid * vcs + plan.out_vc.index();
            hold(&mut self.out_owner[lane], src, is_header, is_tail);
            // Routers (not sources) shift multicast bitstrings hop by hop,
            // so bit 0 always answers "does the next node take a copy?".
            if flit.is_header() && matches!(src, Src::Net { .. }) {
                self.packets.advance_header(flit.packet);
            }
            if flit.is_header() && self.probe.trace_on() {
                let m = self.packets.meta(flit.packet);
                let (msg, class) = (m.message.0, m.class);
                self.probe.trace(FlitEventKind::Hop, now, msg, class, node as u32, o as u32);
            }
            self.link_flits[lid] += 1;
            self.flit_hops += 1;
            self.link_occupancy += 1;
            self.credits[lane] -= 1;
            let idx = self.links.slot_index(now);
            self.links.send(lid, idx, TaggedFlit { flit, vc: plan.out_vc });
            if !self.link_live[lid] {
                self.link_live[lid] = true;
                self.live_links.push(lid as u32);
            }
        } else if is_tail {
            // Ejected, absorbed or drained to the tail: wormhole in-order
            // delivery means no flit of this packet exists anywhere any
            // more — retire it.
            self.packets.release(flit.packet);
        }
    }

    /// Hand one flit to the PE at `node`: through the arbitrated ejection
    /// port (`eject`), or as the ingress-mux copy of input lane `src`. The
    /// delivery site streams one packet at a time (`eject_owner` /
    /// `in_route` pin it), which the metrics' in-order check relies on.
    #[inline(always)] // one call site, on the per-flit commit path
    fn deliver(
        &mut self,
        node: usize,
        src: Src,
        flit: &Flit,
        plan: HopPlan,
        is_header: bool,
        eject: bool,
    ) {
        let now = self.clock.now();
        let meta = *self.packets.meta(flit.packet);
        if meta.class == TrafficClass::Ack {
            // ACK absorbed at the data source: a control packet, never a
            // tracked delivery (the data message may already be completed
            // and its slot recycled). First ack per receiver closes its
            // pending bit and samples the round trip; duplicates drain.
            let fresh = self.recovery.on_ack(meta.message, meta.src, now);
            if let Some(created_at) = fresh {
                self.metrics.record_ack_delivery(now, created_at);
            }
            if self.probe.trace_on() {
                self.probe.trace(
                    FlitEventKind::Ack,
                    now,
                    meta.message.0,
                    meta.class,
                    meta.src.index() as u32,
                    fresh.is_some() as u32,
                );
            }
            return;
        }
        let (msg, class) = (meta.message.0, meta.class);
        if self.data_dup(node, src, plan, is_header, &meta) {
            self.metrics.note_dup_flit();
        } else {
            // Sites per node: one per input lane, then the ejection port.
            let site = match src {
                _ if eject => R::PORTS * MAX_VCS,
                Src::Net { port, vc } => port as usize * MAX_VCS + vc as usize,
                Src::Local { .. } => unreachable!("local injection queues never clone"),
            };
            let site = node * (R::PORTS * MAX_VCS + 1) + site;
            self.metrics.record_flit_delivery(now, NodeId::new(node), site, flit, &meta);
            if self.probe.trace_on() {
                if flit.is_header() && (plan.out as usize) < R::PORTS {
                    // Ingress-mux clone: the local copy and the forwarded
                    // flit move in the same cycle (§2.2 absorb-and-forward).
                    let o = plan.out as u32;
                    self.probe.trace(FlitEventKind::Clone, now, msg, class, node as u32, o);
                }
                if flit.is_tail() {
                    self.probe.trace(FlitEventKind::Deliver, now, msg, class, node as u32, 0);
                }
            }
            if flit.is_tail() {
                // Store-and-forward replication (Spidergon broadcast
                // chains): continuations are fresh packets, interned now and
                // serialised into the local queue one header-rewrite cycle
                // later. Duplicate tails spawn nothing: their downstream
                // coverage is owed to the source's open recovery window.
                let Fabric { model, ids, packets, reinject, probe, .. } = self;
                model.respawn(NodeId::new(node), &meta, &mut |seed| {
                    let dst = seed.dst.index() as u32;
                    probe.trace(FlitEventKind::Clone, now, msg, class, node as u32, dst);
                    let pref = packets.insert(PacketMeta { packet: ids.packet(), ..seed });
                    reinject.push(now + 1, (node as u32, pref, seed.len));
                });
            }
        }
        // Every tail reception acks — fresh or duplicate: a duplicate's
        // re-ack may be the one that finally closes the window when the
        // original ack was itself dropped.
        if self.recovery.enabled() && flit.is_tail() {
            self.emit_ack(node, &meta, now);
        }
    }

    /// Commit-time duplicate verdict for the data delivery at `node`
    /// (gather is read-only arbitration). The header consults the recovery
    /// window once; the verdict rides the cached plan so the worm's body
    /// and tail agree with it.
    fn data_dup(
        &mut self,
        node: usize,
        src: Src,
        plan: HopPlan,
        is_header: bool,
        meta: &PacketMeta,
    ) -> bool {
        if !self.recovery.enabled() {
            return false;
        }
        if !is_header {
            return plan.dup;
        }
        match self.recovery.on_data_header(meta.message, NodeId::new(node)) {
            DataDelivery::Fresh { recovered } => {
                if recovered {
                    self.metrics.note_recovered_receiver();
                }
                false
            }
            DataDelivery::Dup => {
                let cached = match src {
                    Src::Net { port, vc } => {
                        let lane = (node * R::PORTS + port as usize) * self.cfg.vcs + vc as usize;
                        &mut self.in_route[lane]
                    }
                    Src::Local { queue } => {
                        &mut self.inject_plan[node * R::QUEUES + queue as usize]
                    }
                };
                if let Some(plan) = cached.as_mut() {
                    plan.dup = true;
                }
                true
            }
        }
    }

    /// Deliver the flit arriving on link `lid` this cycle (if any) into the
    /// downstream input lane.
    #[inline]
    fn arrive_link(&mut self, lid: usize, slot_index: usize) {
        if let Some(tf) = self.links.arrive(lid, slot_index) {
            let (to, tin) = self.targets[lid];
            let lane = (to as usize * R::PORTS + tin as usize) * self.cfg.vcs + tf.vc.index();
            self.in_buf.push(lane, tf.flit);
            self.link_occupancy -= 1;
            self.buffered_flits += 1;
            self.mark_node(to as usize);
        }
    }

    /// Expand `req` (fresh, or a retransmission under its original id) into
    /// the source node's injection queues.
    fn inject(&mut self, req: &MessageRequest, message: MessageId, now: Cycle) -> usize {
        let node = req.src.index();
        let (expected, flits) = self.model.expand_into(
            req,
            message,
            now,
            &mut self.ids,
            &mut self.packets,
            &mut self.inject_q[node * R::QUEUES..(node + 1) * R::QUEUES],
        );
        self.inject_backlog += flits;
        self.mark_node(node);
        expected
    }

    /// Poll one source and inject whatever it produced. `reqs` is the
    /// reusable scratch.
    fn poll_node<W: Workload + ?Sized>(
        &mut self,
        workload: &mut W,
        node: usize,
        now: Cycle,
        reqs: &mut Vec<MessageRequest>,
    ) {
        reqs.clear();
        workload.poll_into(NodeId::new(node), now, reqs);
        for req in reqs.drain(..) {
            debug_assert_eq!(req.src, NodeId::new(node), "workload src mismatch");
            let message = self.metrics.create_message(req.class, now);
            let expected = self.inject(&req, message, now);
            self.metrics.set_expected(message, expected);
            if self.recovery.enabled() {
                self.recovery.on_send(message, &req, now, expected);
            }
            // Probe-only: the Inject event carries the expected reception
            // count so the trace stream is self-contained for conservation
            // checks.
            let (msg, class) = (message.0, req.class);
            self.probe.trace(FlitEventKind::Inject, now, msg, class, node as u32, expected as u32);
        }
    }

    /// Enqueue the single-flit ACK a receiver emits on absorbing a data
    /// tail: a control unicast back to the data source, injected through
    /// the local queue that routes `node → meta.src` — the same contended
    /// path as any application packet.
    fn emit_ack(&mut self, node: usize, meta: &PacketMeta, now: Cycle) {
        let from = NodeId::new(node);
        let packet = self.ids.packet();
        let pref = self.packets.insert(ack_meta(meta.message, from, meta.src, packet, now));
        let q = node * R::QUEUES + self.model.ack_queue(from, meta.src);
        self.inject_backlog += self.inject_q[q].push_packet(pref, 1);
        self.mark_node(node);
    }

    /// Drain the recovery timer heap: re-inject each due message to its
    /// unacked receiver subset, or write off the never-served receivers of
    /// a retry-exhausted window. Runs in step phase (b) right after the
    /// workload polls, so retransmissions enter the same injection path as
    /// fresh traffic in a deterministic order.
    fn pump_recovery(&mut self, now: Cycle) {
        let mut targets = std::mem::take(&mut self.retry_targets);
        while let Some(action) = self.recovery.pop_action(now, &mut targets) {
            let (kind, message, src, class, arg) = match action {
                RecoveryAction::Retry { message, src, class, len, attempt: _ } => {
                    // Re-expand under the *original* message id (no
                    // create_message / set_expected: the ledger entry is the
                    // original's) narrowed to the unacked subset; collective
                    // classes retransmit as a multicast over that subset.
                    let req = if class == TrafficClass::Unicast {
                        MessageRequest::unicast(src, targets[0], len as usize)
                    } else {
                        MessageRequest::multicast(src, targets.clone(), len as usize)
                    };
                    self.inject(&req, message, now);
                    self.metrics.note_retransmission();
                    (FlitEventKind::Retry, message, src, class, targets.len())
                }
                RecoveryAction::Exhaust { message, src, class, lost } => {
                    if lost > 0 {
                        self.metrics.record_lost_receivers(message, lost);
                    }
                    (FlitEventKind::Expire, message, src, class, lost)
                }
            };
            if self.probe.trace_on() {
                self.probe.trace(kind, now, message.0, class, src.index() as u32, arg as u32);
            }
        }
        self.retry_targets = targets;
    }

    /// Advance one cycle, polling `workload` for new messages. Monomorphized
    /// per workload type; [`NocSim::step`] is the object-safe facade.
    pub fn step_cycle<W: Workload + ?Sized>(&mut self, workload: &mut W) {
        let now = self.clock.now();
        let n = self.nodes;
        // Phase profiler: the mark is taken and lapped purely for
        // observation — wall time never feeds back into simulated behaviour.
        let mut mark = self.probe.begin_profiled_cycle(now).then(std::time::Instant::now);
        let arrivals_walked = match mark {
            Some(_) if self.full_scan => n * R::PORTS,
            Some(_) => self.live_links.len(),
            None => 0,
        };

        // (a) Link arrivals from last cycle — only links carrying flits.
        let slot = self.links.slot_index(now);
        let mut live = std::mem::take(&mut self.live_links);
        if self.full_scan {
            for lid in 0..n * R::PORTS {
                self.arrive_link(lid, slot);
            }
            // Keep the (unused) live set empty so sends cannot grow it
            // without bound.
            for &lid in &live {
                self.link_live[lid as usize] = false;
            }
            live.clear();
        } else {
            live.retain(|&lid| {
                self.arrive_link(lid as usize, slot);
                let still = !self.links.is_empty(lid as usize);
                if !still {
                    self.link_live[lid as usize] = false;
                }
                still
            });
        }
        debug_assert!(self.live_links.is_empty(), "no sends happen during arrivals");
        self.live_links = live;
        if let Some(m) = mark.as_mut() {
            self.probe.phase_lap(Phase::Arrivals, m, arrivals_walked);
        }

        // (b) Re-injections from PE replication logic, then new messages
        // from due sources (scratch reused across the whole run), then
        // recovery deadlines as extra injections.
        let mut polled = 0usize;
        while let Some((_, (node, pref, len))) = self.reinject.pop_due(now) {
            let q = node as usize * R::QUEUES;
            self.inject_backlog += self.inject_q[q].push_packet(pref, len);
            self.mark_node(node as usize);
            polled += 1;
        }
        let mut reqs = std::mem::take(&mut self.poll_buf);
        if self.full_scan {
            polled += n;
            for node in 0..n {
                self.poll_node(workload, node, now, &mut reqs);
            }
        } else {
            while self.poll_heap.peek().is_some_and(|&Reverse((due, _))| due <= now) {
                let Reverse((due, node)) = self.poll_heap.pop().expect("peeked");
                debug_assert!(due == now, "due cycles never pass unpolled");
                polled += 1;
                self.poll_node(workload, node as usize, now, &mut reqs);
                let next = workload.next_due(NodeId::new(node as usize), now).max(now + 1);
                self.poll_heap.push(Reverse((next, node)));
            }
        }
        self.poll_buf = reqs;
        if self.recovery.enabled() {
            self.pump_recovery(now);
        }
        if let Some(m) = mark.as_mut() {
            self.probe.phase_lap(Phase::Polls, m, polled);
        }

        // Fault watch list: sources of faulted or blocked links re-arbitrate
        // every cycle — their feasibility changes with time (a window opens
        // or closes; a header waiting at a link when `onset` arrives becomes
        // droppable in place), which event tracking does not see.
        if self.fault.any() {
            for i in 0..self.fault.watch_nodes().len() {
                let node = self.fault.watch_nodes()[i] as usize;
                self.mark_node(node);
            }
        }

        // (c) Read-only arbitration over the routers-with-work worklist, in
        // canonical ascending order (metric accumulation order depends on
        // it), skipping routers that cannot have become grantable since they
        // last produced no grant.
        let mut transfers = std::mem::take(&mut self.transfers);
        transfers.clear();
        let mut worklist = std::mem::take(&mut self.node_worklist);
        debug_assert!(worklist.is_empty());
        std::mem::swap(&mut worklist, &mut self.active_nodes);
        let gather_walked;
        if self.full_scan {
            for &node in &worklist {
                self.node_active[node as usize] = false;
            }
            gather_walked = n;
            for node in 0..n {
                self.gather_node(node, &mut transfers);
            }
        } else {
            worklist.sort_unstable();
            gather_walked = worklist.len();
            for &node in &worklist {
                self.node_active[node as usize] = false;
                self.gather_node(node as usize, &mut transfers);
            }
        }
        worklist.clear();
        self.node_worklist = worklist;
        if let Some(m) = mark.as_mut() {
            self.probe.phase_lap(Phase::Gather, m, gather_walked);
        }

        // (d) Commit.
        let committed = transfers.len();
        for t in transfers.drain(..) {
            self.commit(t);
        }
        self.transfers = transfers;
        if let Some(m) = mark.as_mut() {
            self.probe.phase_lap(Phase::Commit, m, committed);
        }

        if self.probe.counters_due(now) {
            let sample = CounterSample {
                cycle: now,
                backlog: self.inject_backlog as u64,
                buffered: self.buffered_flits,
                on_links: self.link_occupancy,
                live_packets: self.packets.live() as u64,
                live_links: self.live_links.len() as u64,
                active_routers: self.active_nodes.len() as u64,
                poll_sources: self.poll_heap.len() as u64,
                in_flight: self.metrics.in_flight() as u64,
                completed: self.metrics.completed_total(),
                delivered: self.metrics.flits_delivered(),
                dropped: self.metrics.flits_dropped(),
                credit_stalls: self.probe.credit_stalls(),
            };
            self.probe.push_sample(sample);
        }

        self.clock.tick();
    }
}

impl<R: RouterModel> NocSim for Fabric<R> {
    fn step(&mut self, workload: &mut dyn Workload) {
        self.step_cycle(workload);
    }

    fn step_mono<W: Workload + ?Sized>(&mut self, workload: &mut W) {
        self.step_cycle(workload);
    }

    fn note_workload_change(&mut self) {
        let now = self.clock.now();
        self.poll_heap.clear();
        self.poll_heap.extend((0..self.nodes as u32).map(|node| Reverse((now, node))));
    }

    fn now(&self) -> Cycle {
        self.clock.now()
    }

    fn num_nodes(&self) -> usize {
        self.nodes
    }

    fn kind(&self) -> TopologyKind {
        self.model.kind()
    }

    fn metrics(&self) -> &Metrics {
        &self.metrics
    }

    fn metrics_mut(&mut self) -> &mut Metrics {
        &mut self.metrics
    }

    fn probe(&self) -> &SimProbe {
        &self.probe
    }

    fn probe_mut(&mut self) -> &mut SimProbe {
        &mut self.probe
    }

    fn source_backlog(&self) -> usize {
        self.inject_backlog
    }

    fn flit_hops(&self) -> u64 {
        self.flit_hops
    }

    fn quiesced(&self) -> bool {
        // All terms are counters — drain loops poll this every cycle, so it
        // must not walk nodes × ports × VCs. An empty network with an open
        // recovery window is not done: a deadline will still fire.
        self.metrics.in_flight() == 0
            && self.inject_backlog == 0
            && self.reinject.is_empty()
            && self.link_occupancy == 0
            && self.buffered_flits == 0
            && self.recovery.pending() == 0
    }

    fn recovery_pending(&self) -> u64 {
        self.recovery.pending()
    }

    fn stall_diagnostics(&self) -> StallDiagnostics {
        let lanes = R::PORTS * self.cfg.vcs;
        let mut busiest: Vec<(u32, u32)> = (0..self.nodes)
            .map(|node| {
                let buffered: usize =
                    (node * lanes..(node + 1) * lanes).map(|lane| self.in_buf.len(lane)).sum();
                let queued: usize = self.inject_q[node * R::QUEUES..(node + 1) * R::QUEUES]
                    .iter()
                    .map(PacketQueue::flits)
                    .sum();
                (node as u32, (buffered + queued) as u32)
            })
            .filter(|&(_, flits)| flits > 0)
            .collect();
        busiest.sort_by(|a, b| b.1.cmp(&a.1).then(a.0.cmp(&b.0)));
        busiest.truncate(StallDiagnostics::TOP_ROUTERS);
        StallDiagnostics {
            backlog: self.inject_backlog as u64,
            buffered: self.buffered_flits,
            on_links: self.link_occupancy,
            in_flight: self.metrics.in_flight() as u64,
            live_packets: self.packets.live() as u64,
            fault: self.cfg.fault.to_string(),
            busiest_routers: busiest,
        }
    }
}

/// The full-scan oracle must agree with the active set bit for bit; each
/// model's unit tests instantiate this once.
#[cfg(test)]
pub(crate) fn assert_full_scan_matches_active_set<R: RouterModel>(
    cfg: NocConfig,
    rate: f64,
    seed: u64,
) {
    use quarc_workloads::{Synthetic, SyntheticConfig};
    let run = |full_scan: bool| {
        let mut net = Fabric::<R>::new(cfg);
        net.set_full_scan(full_scan);
        let mut wl = Synthetic::new(net.num_nodes(), SyntheticConfig::paper(rate, 8, 0.1, seed));
        for _ in 0..3_000 {
            net.step(&mut wl);
        }
        (
            net.metrics().flits_delivered(),
            net.flit_hops(),
            net.metrics().unicast_latency().mean().to_bits(),
            net.metrics().broadcast_completion_latency().mean().to_bits(),
        )
    };
    assert_eq!(run(false), run(true));
}
