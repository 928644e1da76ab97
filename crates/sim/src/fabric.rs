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
//!   an index-ordered bitmap of routers a tracked event could have made
//!   grantable — and, within a router, only the set bits of its occupancy
//!   mask — polling pops a due-cycle heap fed by [`Workload::next_due`];
//!   `set_full_scan` is the naive oracle the lockstep tests step against
//!   and [`Fabric::audit`] the cold recount of everything kept
//!   incrementally (invariants in `crates/sim/HOTPATH.md`);
//! * **the commit skeleton** — pop → eject / ingress-mux copy → fault drop →
//!   forward, with the probe, fault and recovery hooks at their one site.
//!
//! Dispatch is static: `Fabric<R>` monomorphizes per model, and every
//! per-port table is an associated constant.

use crate::arbiter::RoundRobinBank;
use crate::buffer::LaneBufs;
use crate::driver::{NocSim, StallDiagnostics};
use crate::fault::FaultState;
use crate::link::{LinkBank, TaggedFlit};
use crate::metrics::{FabricEvent, Metrics};
use crate::packets::{message_meta, IdAlloc, QueueBank};
use crate::probe::{CounterSample, Phase, SimProbe};
use crate::recovery::{DataDelivery, RecoveryAction, RecoveryState};
use quarc_core::bits::BitSlab;
use quarc_core::config::{ArbPolicy, NocConfig};
use quarc_core::flit::{Flit, PacketMeta, PacketRef, PacketTable, TrafficClass};
use quarc_core::ids::{MessageId, NodeId, VcId};
use quarc_core::routing::{Route, Routing, ABSORB};
use quarc_core::topology::TopologyKind;
use quarc_core::vc::{INJECTION_VC, MAX_VCS};
use quarc_engine::Cycle;
use quarc_workloads::{MessageRequest, Workload};
use std::cmp::Reverse;
use std::collections::BinaryHeap;

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

/// What differs between the networks the paper compares. The [`Fabric`]
/// calls these at the one place each concern meets the cycle loop. Routing
/// — `PORTS`, wiring, `route_net`/`route_local` — is the topology's
/// [`Routing`], the same function the deadlock proofs and the analytical
/// models walk; a model adds the router's queues, arbitration and packet
/// plan.
pub trait RouterModel: Routing + std::fmt::Debug + Sized {
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
    /// An empty packet table sized for the model's longest bitstring.
    fn packet_table(&self) -> PacketTable;
    /// Route the header at the head of request slot `src`. The fabric
    /// memoises the answer while the header waits: routes are pure.
    #[inline(always)] // `src` is a constant at the gather call sites
    fn route_slot(&self, node: usize, src: Src, meta: &PacketMeta) -> Route {
        match src {
            Src::Net { port, vc } => self.route_net(node, port as usize, vc as usize, meta),
            Src::Local { queue } => self.route_local(node, queue as usize, meta),
        }
    }
    /// The transceiver's packet plan for `req`: one `(local queue, meta)`
    /// pair per packet, appended to `out` in injection order, each derived
    /// from `base` (the fabric assigns packet ids). Multicast bitstrings go
    /// into `bits`, the packet table's slab. Returns the receivers served.
    /// An ACK is the unicast plan of a `base` of class `Ack`.
    fn plan(
        &mut self,
        req: &MessageRequest,
        base: &PacketMeta,
        bits: &mut BitSlab,
        out: &mut Vec<(usize, PacketMeta)>,
    ) -> usize;
    /// Receivers a packet whose forward was fault-dropped at `node` (from
    /// slot `src`) would still have served downstream: a fold over the
    /// [`Routing::walk`] of its remaining route. Cold.
    fn receivers_beyond(&self, bits: &BitSlab, node: usize, src: Src, meta: &PacketMeta) -> usize {
        // The terminal delivery, plus every transit copy past `node` (the
        // copy at `node` itself, if any, still delivers).
        let (route, mut count) = (self.route_slot(node, src, meta), 1);
        let from_net = matches!(src, Src::Net { .. });
        self.walk(bits, node, from_net, route, meta, |_, hop| count += usize::from(hop.deliver));
        count - usize::from(route.deliver)
    }
    /// Packets the PE at `node` re-injects one cycle after freshly receiving
    /// the tail of `meta`'s packet, as `(local queue, meta)` pairs like
    /// [`RouterModel::plan`]'s.
    fn respawn(&self, _node: NodeId, _meta: &PacketMeta, _out: &mut Vec<(usize, PacketMeta)>) {}
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
    /// (recovery only): drain it as `DupFlit` events, but still re-ack the
    /// tail. Decided at the header's *commit* (a header that loses
    /// arbitration re-plans, and gather must not touch the recovery window)
    /// and cached with the rest of the plan for the worm's body and tail.
    dup: bool,
}

/// Header-to-tail state of the packet at the head of an input lane or an
/// injection queue.
#[derive(Debug, Clone, Copy)]
enum LanePlan {
    /// Between packets: the next head flit is a header nobody has routed.
    Idle,
    /// A waiting header's route, memoised by the arbitration pass so a
    /// header that loses arbitration is not re-routed every cycle it waits.
    /// Only the model's pure [`Route`] lives here: the fault-drop verdict
    /// moves with time and the `dup` verdict with the recovery window.
    Routed(Route),
    /// The header has committed: the plan its body and tail follow.
    Streaming(HopPlan),
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

/// Set bits of a bitmap: the routers a worklist holds.
fn popcount(words: &[u64]) -> usize {
    words.iter().map(|w| w.count_ones() as usize).sum()
}

/// Per-worm state held from a packet's header to its tail: the header sets
/// it to `held`, the tail resets it to `idle` (a single-flit packet does
/// both, leaving it idle).
#[inline]
fn hold<T>(slot: &mut T, held: T, idle: T, is_header: bool, is_tail: bool) {
    if is_header {
        *slot = held;
    }
    if is_tail {
        *slot = idle;
    }
}

/// The flit-level network simulator over router model `R`. All per-router
/// state lives in fabric-owned flat slabs; the "router" is a loop index.
#[derive(Debug)]
pub struct Fabric<R: RouterModel> {
    model: R,
    cfg: NocConfig,
    nodes: usize,
    /// Virtual channels per link, [`TopologyKind::vcs`] read once.
    vcs: usize,
    /// The current cycle; `step_cycle` advances it by one at its end.
    now: Cycle,
    /// Injection queues, `node * QUEUES + queue`, holding whole packets
    /// (flits materialise on pop). Unbounded: the paper keeps packets in PE
    /// RAM and queues only addresses (§3.1).
    inject_q: QueueBank,
    /// Input buffers; lane `(node * PORTS + port) * vcs + vc`.
    in_buf: LaneBufs,
    /// Request lines per router (the `empty` signals of §2.3.1, inverted):
    /// bit `port * vcs + vc` ⇔ that input lane holds a flit, bit `PORTS *
    /// vcs + queue` ⇔ that injection queue does. Set where a flit enters a
    /// slot, cleared by the commit pop that empties it; arbitration visits
    /// set bits only.
    occ: Vec<u32>,
    /// Plan state of the packet at the head of each request slot, in the
    /// occupancy mask's numbering: `node * (PORTS * vcs + QUEUES) + bit`.
    plans: Box<[LanePlan]>,
    /// Wormhole ownership per output lane `(node * PORTS + out) * vcs + vc`.
    out_owner: Box<[Option<Src>]>,
    /// Ejection-port ownership per node (empty without an ejection port).
    eject_owner: Box<[Option<Src>]>,
    /// VC arbiter per network input port.
    rr_in_vc: RoundRobinBank,
    /// Grant arbiter per output, `node * FEEDERS.len() + out`, under the
    /// configuration's [`ArbPolicy`].
    rr_out: RoundRobinBank,
    /// Directed links, `node * PORTS + out`.
    links: LinkBank,
    ids: IdAlloc,
    metrics: Metrics,
    packets: PacketTable,
    /// Packets a PE re-injects a header-rewrite cycle after the tail that
    /// interned them: `(node, queue, packet)` — see [`RouterModel::respawn`].
    /// Reserved at two a node (one ejected tail, two chains): never grows.
    respawned: Vec<(u32, u32, PacketRef)>,
    /// Scratch reused across cycles (no per-cycle allocation).
    plan: Vec<(usize, PacketMeta)>,
    transfers: Vec<Transfer>,
    poll_buf: Vec<MessageRequest>,
    retry_targets: Vec<NodeId>,
    /// Flits carried per link since construction (their sum is
    /// [`NocSim::flit_hops`]).
    link_flits: Vec<u64>,
    /// `(downstream node, input port)` per link; [`NO_LINK`] when vacant.
    targets: Vec<(u32, u8)>,
    /// Sender-side credits per output lane: an exact mirror of `depth −
    /// buffered_downstream − in_flight_on_link`, decremented on send and
    /// returned when the downstream router pops the flit.
    credits: Vec<u32>,
    /// Link feeding each network input (inverse of `targets`).
    feeder: Vec<u32>,
    /// Routers-with-work bitmap (bit `node`). A router that produced no
    /// grant can only become grantable through a tracked event — a link
    /// arrival, an injection, a commit at the node, a credit returned to
    /// it — each of which re-marks it. Swapped each cycle with the all-zero
    /// `mark_scratch` and walked word by word: ascending order for free.
    marked: Vec<u64>,
    mark_scratch: Vec<u64>,
    /// Links-with-flits worklist: every non-empty link once, in the order
    /// it last became non-empty (a send to an empty link appends it;
    /// arrivals drop the links they empty). Arrival targets are disjoint,
    /// so order cannot affect state.
    live_links: Vec<u32>,
    /// Sources-with-upcoming-work: min-heap of `(due cycle, node)`.
    poll_heap: BinaryHeap<Reverse<(Cycle, u32)>>,
    /// Test oracle: bypass every worklist and scan everything each cycle.
    full_scan: bool,
    /// Flits waiting in the injection queues (an O(1) twin of walking
    /// them; lanes and links keep their own totals).
    inject_backlog: usize,
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
        let (ports, vcs) = (R::PORTS, cfg.kind.vcs());
        assert!(ports * MAX_VCS + R::QUEUES <= 32, "a router's request lines fit one word");
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
        let mut fabric = Fabric {
            cfg,
            nodes: n,
            vcs,
            now: 0,
            inject_q: QueueBank::new(n * R::QUEUES),
            in_buf: LaneBufs::new(n * ports * vcs, cfg.buffer_depth),
            occ: vec![0; n],
            plans: vec![LanePlan::Idle; n * (ports * vcs + R::QUEUES)].into_boxed_slice(),
            out_owner: vec![None; n * ports * vcs].into_boxed_slice(),
            eject_owner: vec![None; if R::EJECT_PORT { n } else { 0 }].into_boxed_slice(),
            rr_in_vc: RoundRobinBank::new(n * ports, ArbPolicy::RoundRobin),
            rr_out: RoundRobinBank::new(n * R::FEEDERS.len(), cfg.arb),
            links: LinkBank::new(n * ports, cfg.link_latency),
            ids: IdAlloc::new(),
            metrics: Metrics::new(),
            packets: model.packet_table(),
            respawned: Vec::with_capacity(2 * n),
            plan: Vec::new(),
            transfers: Vec::new(),
            poll_buf: Vec::new(),
            retry_targets: Vec::new(),
            link_flits: vec![0; n * ports],
            credits: vec![cfg.buffer_depth as u32; n * ports * vcs],
            feeder,
            targets,
            marked: vec![0; n.div_ceil(64)],
            mark_scratch: vec![0; n.div_ceil(64)],
            live_links: Vec::new(),
            poll_heap: (0..n as u32).map(|node| Reverse((0, node))).collect(),
            full_scan: false,
            inject_backlog: 0,
            fault,
            recovery: RecoveryState::new(cfg.recovery, n),
            probe: SimProbe::new(),
            model,
        };
        // Every router starts marked.
        (0..n).for_each(|node| fabric.mark_node(node));
        fabric
    }

    /// Test oracle: disable the active-set worklists and scan every link,
    /// router and source each cycle (the naive reference the lockstep
    /// proptests step against). Call before the first `step`.
    pub fn set_full_scan(&mut self, on: bool) {
        assert_eq!(self.now, 0, "full-scan mode is a construction-time choice");
        self.full_scan = on;
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

    /// Cold recount of everything the hot path keeps incrementally —
    /// occupancy masks, route memos, the live-link worklist, credit mirrors,
    /// the lane, link and queue totals and the packet table's live slots
    /// and slab rows — failing with the first broken invariant by name.
    /// Valid between steps; walks the whole network, so never per cycle.
    pub fn audit(&self) -> Result<(), String> {
        let (vcs, depth, now) = (self.vcs, self.cfg.buffer_depth, self.now);
        let check = |ok: bool, what: &str, at: (usize, usize)| {
            ok.then_some(()).ok_or_else(|| format!("audit: {what} violated at {at:?}, cycle {now}"))
        };
        // A request line says whether its slot holds a flit; a memoised
        // route belongs to a header at the head of its slot and is what the
        // model answers for it now.
        let slot = |node: usize, src: Src, head: Option<Flit>| {
            let bit = self.slot_bit(src);
            let line = self.occ[node] >> bit & 1 != 0;
            check(line == head.is_some(), "occupancy bit ⇔ slot non-empty", (node, bit))?;
            let LanePlan::Routed(memo) = self.plans[self.plan_at(node, bit)] else { return Ok(()) };
            let fresh = |h: Flit| self.model.route_slot(node, src, self.packets.meta(h.packet()));
            let ok = head.is_some_and(|h| h.is_header() && fresh(h) == memo);
            check(ok, "route memo = the model's route for the head header", (node, bit))
        };
        // Every interned packet is reachable — from a queue, a lane, a link
        // or the re-injection list — and holds a slab row iff its bitstring
        // spilled: a missed `release` leaks both.
        let (mut seen, mut packets, mut rows) = (vec![false; self.packets.capacity()], 0, 0);
        let mut queued = seen.clone();
        let mut reach = |p: PacketRef| {
            if !std::mem::replace(&mut seen[p.index()], true) {
                packets += 1;
                rows += usize::from(!self.packets.meta(p).bitstring.is_inline());
            }
        };
        self.respawned.iter().for_each(|&(_, _, p)| reach(p));
        let (mut buffered, mut backlog, mut on_links) = (0, 0, 0);
        let mut listed = vec![0u32; self.targets.len()];
        self.live_links.iter().for_each(|&lid| listed[lid as usize] += 1);
        for node in 0..self.nodes {
            for bit in 0..R::PORTS * vcs {
                let lane = node * R::PORTS * vcs + bit;
                buffered += self.in_buf.len(lane) as u64;
                self.in_buf.iter(lane).for_each(|f| reach(f.packet()));
                let head = (!self.in_buf.is_empty(lane)).then(|| *self.in_buf.head(lane));
                slot(node, Src::Net { port: (bit / vcs) as u8, vc: (bit % vcs) as u8 }, head)?;
            }
            for queue in 0..R::QUEUES {
                let q = node * R::QUEUES + queue;
                let head = self.inject_q.front(q);
                for (p, len) in self.inject_q.packets(q) {
                    let once = !std::mem::replace(&mut queued[p.index()], true);
                    let ok = once && len == self.packets.meta(p).len;
                    check(ok, "a queued packet is queued once, with its len", (node, queue))?;
                    backlog += len as usize;
                    reach(p);
                }
                backlog -= head.map_or(0, |f| f.seq() as usize);
                slot(node, Src::Local { queue: queue as u8 }, head)?;
            }
        }
        let wired = self.targets.iter().enumerate().filter(|(_, target)| target.0 != NO_LINK);
        for (lid, &(to, tin)) in wired {
            let flying = self.links.in_flight(lid).count();
            on_links += flying as u64;
            self.links.in_flight(lid).for_each(|tf| reach(tf.flit.packet()));
            let counted = self.links.is_empty(lid) == (flying == 0);
            check(counted, "LinkBank occupancy = slot walk", (lid, 0))?;
            for vc in 0..vcs {
                let down = (to as usize * R::PORTS + tin as usize) * vcs + vc;
                let sent = self.links.in_flight(lid).filter(|tf| tf.vc.index() == vc).count();
                let mirror = self.credits[lid * vcs + vc] as usize + self.in_buf.len(down) + sent;
                check(mirror == depth, "credit = depth − buffered − in flight", (lid, vc))?;
            }
        }
        for (lid, &times) in listed.iter().enumerate() {
            let flying = self.links.in_flight(lid).next().is_some();
            check(times == u32::from(flying), "live_links: each non-empty link once", (lid, 0))?;
        }
        check(buffered == self.in_buf.total(), "LaneBufs total = lane walk", (0, 0))?;
        check(backlog == self.inject_backlog, "inject_backlog = queue walk", (0, 0))?;
        check(on_links == self.links.total(), "LinkBank total = link walk", (0, 0))?;
        check(packets == self.packets.live(), "packet table live = reachable packets", (0, 0))?;
        check(rows == self.packets.bits().live_rows(), "slab rows = reachable rows", (0, 0))?;
        check(self.mark_scratch.iter().all(|&w| w == 0), "scratch worklist is zero", (0, 0))
    }

    /// Mark `node`'s router as possibly grantable next arbitration pass.
    #[inline]
    fn mark_node(&mut self, node: usize) {
        self.marked[node >> 6] |= 1 << (node & 63);
    }

    /// Turn a model's route into the lane's plan. The fault-drop decision is
    /// made here, once per packet per hop: it is pure in (link, packet) plus
    /// the onset gate, and the plan is cached at the header's commit, so a
    /// worm is never torn. A dropped forward claims no output.
    #[inline]
    fn plan_header(&self, node: usize, route: Route, packet: PacketRef) -> HopPlan {
        let Route { deliver, out, out_vc } = route;
        let dropped = (out as usize) < R::PORTS
            && self.fault.any()
            && self.fault.drops_packet(
                node * R::PORTS + out as usize,
                self.packets.meta(packet).packet,
                self.now,
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
    #[inline(always)] // into `request`, itself inlined per slot
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
            self.out_owner[lid * self.vcs + plan.out_vc.index()]
        };
        let owned = match owner {
            Some(o) => o == src && !is_header,
            None => is_header,
        };
        if !owned || eject {
            return owned;
        }
        let free = !(self.fault.any() && self.fault.link_blocked(lid, self.now))
            && self.credits[lid * self.vcs + plan.out_vc.index()] > 0;
        if !free && count_stall && self.probe.counters_on() {
            self.probe.note_credit_stall();
        }
        free
    }

    /// Where the plan state of request slot `bit` of `node` lives.
    #[inline(always)]
    fn plan_at(&self, node: usize, bit: usize) -> usize {
        node * (R::PORTS * self.vcs + R::QUEUES) + bit
    }

    /// `src`'s request-slot number within its router (its occupancy bit).
    #[inline(always)]
    fn slot_bit(&self, src: Src) -> usize {
        match src {
            Src::Net { port, vc } => port as usize * self.vcs + vc as usize,
            Src::Local { queue } => R::PORTS * self.vcs + queue as usize,
        }
    }

    /// The request (if any) of the flit `head` at the head of slot `src`
    /// (occupancy bit `bit`): plan it — a fresh header is routed through the
    /// model once and the route memoised while it waits — and test its
    /// resources. Read-only but for that idempotent memo.
    #[inline(always)] // `src` is a constant at every call site but for the VC
    fn request(&mut self, node: usize, src: Src, bit: usize, head: Flit) -> Option<PortReq> {
        let at = self.plan_at(node, bit);
        let plan = match self.plans[at] {
            LanePlan::Streaming(plan) => {
                debug_assert!(!head.is_header(), "plan state present at header");
                plan
            }
            memo => {
                assert!(head.is_header(), "wormhole violated: non-header {head} at {src:?}");
                let route = if let LanePlan::Routed(route) = memo {
                    route
                } else {
                    let route = self.model.route_slot(node, src, self.packets.meta(head.packet()));
                    self.plans[at] = LanePlan::Routed(route);
                    route
                };
                self.plan_header(node, route, head.packet())
            }
        };
        let (is_header, is_tail) = (head.is_header(), head.is_tail());
        // Only lane heads count as credit stalls (probe-only).
        self.feasible(node, plan, src, is_header, matches!(src, Src::Net { .. }))
            .then_some(PortReq { src, plan, is_header, is_tail })
    }

    /// The request (if any) of network input port `p` at `node`, whose
    /// occupied lanes are the set bits of `lanes`: the VC arbiter elects one
    /// feasible lane (its pointer only moves when it elects).
    #[inline(always)] // `p` becomes a constant once `gather_node` unrolls its port loop
    fn gather_net_port(&mut self, node: usize, p: usize, mut lanes: u32) -> Option<PortReq> {
        let vcs = self.vcs;
        // Fixed-size scratch: runs per active router per cycle, never allocates.
        let mut reqs: [Option<PortReq>; MAX_VCS] = [None; MAX_VCS];
        let mut feasible = 0u32;
        while lanes != 0 {
            let vc = lanes.trailing_zeros() as usize;
            lanes &= lanes - 1;
            let (src, bit) = (Src::Net { port: p as u8, vc: vc as u8 }, p * vcs + vc);
            let head = *self.in_buf.head(node * R::PORTS * vcs + bit);
            if let Some(req) = self.request(node, src, bit, head) {
                feasible |= 1 << vc;
                reqs[vc] = Some(req);
            }
        }
        reqs[self.rr_in_vc.pick(node * R::PORTS + p, vcs, feasible)?]
    }

    /// Read-only arbitration over one router; appends winning transfers.
    /// Looks at request lines, never into an empty buffer: only the set bits
    /// of the router's occupancy mask are visited.
    // Constant-bound index loops: the per-port gathers inline and unroll
    // (an `enumerate()` over the slot slice measured 1.4–2× slower here).
    fn gather_node(&mut self, node: usize, transfers: &mut Vec<Transfer>) {
        // A marked-but-empty router (a credit return, the fault watch list)
        // costs this one load; a frozen router grants nothing either.
        // Returning before any arbiter is consulted keeps full-scan and
        // active-set arbiter state identical (the node just falls out of the
        // active set).
        let occ = self.occ[node];
        if occ == 0 || self.fault.node_frozen(node, self.now) {
            return;
        }
        let vcs = self.vcs;
        // Phase 1: each occupied input (VC arbiter) elects at most one
        // request, filed by what it asks for: `wants[o]` is the bitmask of
        // slots requesting output `o`, `absorbs` of those claiming none.
        let mut reqs: [Option<PortReq>; MAX_SLOTS] = [None; MAX_SLOTS];
        let (mut wants, mut absorbs) = ([0u32; MAX_SLOTS], 0u32);
        let node32 = node as u32;
        let mut file = |slot: usize, req: Option<PortReq>| {
            let Some(r) = req else { return };
            if R::DROPS_FIRST && r.plan.dropped {
                // Drop plans claim no output: where the model says so, they
                // commit ahead of the grants, not with the other absorptions.
                transfers.push(Transfer { node: node32, req: r });
                return;
            }
            match r.plan.out {
                ABSORB => absorbs |= 1 << slot,
                out => wants[out as usize] |= 1 << slot,
            }
            reqs[slot] = req;
        };
        for p in 0..R::PORTS {
            let lanes = occ >> (p * vcs) & ((1 << vcs) - 1);
            if lanes != 0 {
                file(p, self.gather_net_port(node, p, lanes));
            }
        }
        for queue in 0..R::QUEUES {
            let bit = R::PORTS * vcs + queue;
            if occ >> bit & 1 != 0 {
                let head = self.inject_q.front(node * R::QUEUES + queue).expect("occupied");
                let src = Src::Local { queue: queue as u8 };
                file(R::PORTS + queue, self.request(node, src, bit, head));
            }
        }
        // Phase 2: per-output grant (the OPC master FSM). Candidate lists
        // are the model's static tables, so each arbiter has a fixed,
        // hardware-like domain. An output nobody requests is skipped, which
        // is exact — an arbiter with no eligible candidate does not move.
        for (o, feeders) in R::FEEDERS.iter().enumerate() {
            if wants[o] == 0 {
                continue;
            }
            // Slot mask → candidate mask (bit `k` ⇔ `feeders[k]` requests).
            let mut eligible = 0u32;
            for (k, &slot) in feeders.iter().enumerate() {
                eligible |= (wants[o] >> slot & 1) << k;
            }
            if let Some(k) = self.rr_out.pick(node * R::FEEDERS.len() + o, feeders.len(), eligible)
            {
                let req = reqs[feeders[k] as usize].expect("winner exists");
                transfers.push(Transfer { node: node32, req });
            }
        }
        // Un-arbitrated requests claim no output and proceed unconditionally
        // (an all-port router absorbs on every input in parallel, §2.2 iii).
        while absorbs != 0 {
            let req = reqs[absorbs.trailing_zeros() as usize].expect("filed above");
            absorbs &= absorbs - 1;
            transfers.push(Transfer { node: node32, req });
        }
    }

    /// Apply one planned transfer: pop → deliver → drop → forward. `slot` is
    /// this cycle's [`LinkBank::slot_index`].
    fn commit(&mut self, t: Transfer, slot: usize) {
        let node = t.node as usize;
        let vcs = self.vcs;
        let PortReq { src, plan, is_header, is_tail } = t.req;
        // Any commit mutates this router's lane/ownership/credit state.
        self.mark_node(node);
        let bit = self.slot_bit(src);
        let (flit, emptied) = match src {
            Src::Net { port, vc } => {
                let lane = node * R::PORTS * vcs + bit;
                let flit = self.in_buf.pop(lane).expect("planned flit");
                // The freed slot becomes a credit at the upstream sender,
                // which may unblock its router.
                let feeder = self.feeder[node * R::PORTS + port as usize] as usize;
                self.credits[feeder * vcs + vc as usize] += 1;
                self.mark_node(feeder / R::PORTS);
                (flit, self.in_buf.is_empty(lane))
            }
            Src::Local { queue } => {
                let q = node * R::QUEUES + queue as usize;
                let flit = self.inject_q.pop(q).expect("planned flit");
                self.inject_backlog -= 1;
                (flit, self.inject_q.is_empty(q))
            }
        };
        if emptied {
            self.occ[node] &= !(1 << bit);
        }
        let (at, held) = (self.plan_at(node, bit), LanePlan::Streaming(plan));
        hold(&mut self.plans[at], held, LanePlan::Idle, is_header, is_tail);

        let eject = R::EJECT_PORT && plan.out as usize == R::PORTS;
        if eject {
            hold(&mut self.eject_owner[node], Some(src), None, is_header, is_tail);
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
            let meta = *self.packets.meta(flit.packet());
            // Dropped ACKs are pure control loss: the data source's timeout
            // covers them. Data drops write off their unreached receivers —
            // unless recovery is on, in which case every loss is deferred to
            // the retry window (the exhaust pump is the sole write-off site,
            // so a drop racing the final deadline can never double-count).
            let lost = (is_header && meta.class != TrafficClass::Ack).then(|| {
                if self.recovery.enabled() {
                    0
                } else {
                    self.model.receivers_beyond(self.packets.bits(), node, src, &meta)
                }
            });
            self.emit(FabricEvent::Drop { meta: &meta, node, lost });
        }

        if (plan.out as usize) < R::PORTS {
            let o = plan.out as usize;
            let lid = node * R::PORTS + o;
            let lane = lid * vcs + plan.out_vc.index();
            hold(&mut self.out_owner[lane], Some(src), None, is_header, is_tail);
            // Routers (not sources) shift multicast bitstrings hop by hop,
            // so bit 0 always answers "does the next node take a copy?".
            if flit.is_header() && matches!(src, Src::Net { .. }) {
                self.packets.advance_header(flit.packet());
            }
            if flit.is_header() {
                let meta = *self.packets.meta(flit.packet());
                self.emit(FabricEvent::Hop { meta: &meta, node, port: o });
            }
            self.link_flits[lid] += 1;
            self.credits[lane] -= 1;
            if self.links.is_empty(lid) {
                self.live_links.push(lid as u32);
            }
            self.links.send(lid, slot, TaggedFlit { flit, vc: plan.out_vc });
        } else if is_tail {
            // Ejected, absorbed or drained to the tail: wormhole in-order
            // delivery means no flit of this packet exists anywhere any
            // more — retire it.
            self.packets.release(flit.packet());
        }
    }

    /// Report one fact to the ledger, then to the probe. Every metrics and
    /// trace record site of the fabric goes through here.
    #[inline]
    fn emit(&mut self, event: FabricEvent<'_>) {
        let now = self.now;
        self.metrics.record(now, event);
        self.probe.record(now, event);
    }

    /// Hand one flit to the PE at `node`: through the arbitrated ejection
    /// port (`eject`), or as the ingress-mux copy of input lane `src`. The
    /// delivery site streams one packet at a time (`eject_owner` /
    /// `plans` pin it), which the metrics' in-order check relies on.
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
        let meta = *self.packets.meta(flit.packet());
        if meta.class == TrafficClass::Ack {
            // ACK absorbed at the data source: a control packet, never a
            // tracked delivery (the data message may already be completed
            // and its slot recycled). First ack per receiver closes its
            // pending bit and samples the round trip; duplicates drain.
            let fresh = self.recovery.on_ack(meta.message, meta.src);
            self.emit(FabricEvent::Ack { meta: &meta, fresh });
            return;
        }
        if self.data_dup(node, src, plan, is_header, &meta) {
            self.emit(FabricEvent::DupFlit);
        } else {
            // Sites per node: one per input lane, then the ejection port.
            let site = match src {
                _ if eject => R::PORTS * MAX_VCS,
                Src::Net { port, vc } => port as usize * MAX_VCS + vc as usize,
                Src::Local { .. } => unreachable!("local injection queues never clone"),
            };
            let site = node * (R::PORTS * MAX_VCS + 1) + site;
            // Ingress-mux clone: the local copy and the forwarded flit move
            // in the same cycle (§2.2 absorb-and-forward).
            let out = plan.out as usize;
            let clone = (flit.is_header() && out < R::PORTS).then_some(out);
            self.emit(FabricEvent::Deliver { meta: &meta, flit, node, site, clone });
            if flit.is_tail() {
                // Store-and-forward replication (Spidergon broadcast
                // chains): continuations are fresh packets, interned now and
                // enqueued one header-rewrite cycle later. Duplicate tails
                // spawn nothing: their downstream coverage is owed to the
                // source's open recovery window.
                self.model.respawn(NodeId::new(node), &meta, &mut self.plan);
                for i in 0..self.plan.len() {
                    let (queue, seed) = self.plan[i];
                    self.emit(FabricEvent::Chain { meta: &meta, node, dst: seed.dst });
                    let packet = self.intern(seed);
                    self.respawned.push((node as u32, queue as u32, packet));
                }
                self.plan.clear();
            }
        }
        // Every tail reception acks — fresh or duplicate: a duplicate's
        // re-ack may be the one that finally closes the window when the
        // original ack was itself dropped.
        if self.recovery.enabled() && flit.is_tail() {
            self.emit_ack(node, &meta);
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
                    self.emit(FabricEvent::Recovered);
                }
                false
            }
            DataDelivery::Dup => {
                let at = self.plan_at(node, self.slot_bit(src));
                if let LanePlan::Streaming(plan) = &mut self.plans[at] {
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
            let (to, vcs) = (to as usize, self.vcs);
            let bit = tin as usize * vcs + tf.vc.index();
            self.in_buf.push(to * R::PORTS * vcs + bit, tf.flit);
            self.occ[to] |= 1 << bit;
            self.mark_node(to);
        }
    }

    /// Plan `req` as packets of `message` — fresh, a retransmission under its
    /// original id, or (class `Ack`) an acknowledgement — and enqueue them at
    /// the source in plan order. Returns the receivers the plan serves.
    fn inject(&mut self, req: &MessageRequest, message: MessageId, class: TrafficClass) -> usize {
        let base = message_meta(req, message, class, self.now);
        let expected = self.model.plan(req, &base, self.packets.bits_mut(), &mut self.plan);
        for i in 0..self.plan.len() {
            let (queue, meta) = self.plan[i];
            let packet = self.intern(meta);
            self.enqueue(req.src.index(), queue, packet);
        }
        self.plan.clear();
        expected
    }

    /// Give `meta` the next packet id and intern it. Ids are drawn when a
    /// packet is planned — lossy links hash them (`fault.rs`) — which for a
    /// chain continuation is a cycle before it is enqueued.
    #[inline]
    fn intern(&mut self, meta: PacketMeta) -> PacketRef {
        self.packets.insert(PacketMeta { packet: self.ids.packet(), ..meta })
    }

    /// The one way flits enter an injection queue: push `packet` onto queue
    /// `queue` of `node`, count it into the backlog, raise the queue's
    /// request line and mark the router.
    #[inline]
    fn enqueue(&mut self, node: usize, queue: usize, packet: PacketRef) {
        let len = self.packets.meta(packet).len;
        self.inject_backlog += self.inject_q.push_packet(node * R::QUEUES + queue, packet, len);
        self.occ[node] |= 1 << (R::PORTS * self.vcs + queue);
        self.mark_node(node);
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
            let expected = self.inject(&req, message, req.class);
            self.emit(FabricEvent::Inject { message, class: req.class, node, expected });
            if self.recovery.enabled() {
                self.recovery.on_send(message, &req, now, expected);
            }
        }
    }

    /// Enqueue the single-flit ACK a receiver emits on absorbing a data
    /// tail: the model's unicast plan from `node` back to the data source,
    /// with class `Ack` and the *data* message's id — the same contended
    /// path as any application packet. Acks are never tracked messages of
    /// their own (no `create_message`, no receiver ledger entry).
    fn emit_ack(&mut self, node: usize, meta: &PacketMeta) {
        let ack = MessageRequest::unicast(NodeId::new(node), meta.src, 1);
        self.inject(&ack, meta.message, TrafficClass::Ack);
    }

    /// Drain the recovery timer heap: re-inject each due message to its
    /// unacked receiver subset, or write off the never-served receivers of
    /// a retry-exhausted window. Runs in step phase (b) right after the
    /// workload polls, so retransmissions enter the same injection path as
    /// fresh traffic in a deterministic order.
    fn pump_recovery(&mut self, now: Cycle) {
        let mut targets = std::mem::take(&mut self.retry_targets);
        while let Some(action) = self.recovery.pop_action(now, &mut targets) {
            let event = match action {
                RecoveryAction::Retry { message, src, class, len, attempt: _ } => {
                    // Re-plan under the *original* message id (no
                    // create_message or Inject: the ledger entry is the
                    // original's) narrowed to the unacked subset; collective
                    // classes retransmit as a multicast over that subset.
                    let req = if class == TrafficClass::Unicast {
                        MessageRequest::unicast(src, targets[0], len as usize)
                    } else {
                        MessageRequest::multicast(src, targets.clone(), len as usize)
                    };
                    self.inject(&req, message, req.class);
                    FabricEvent::Retry { message, class, src, targets: targets.len() }
                }
                RecoveryAction::Exhaust { message, src, class, lost } => {
                    FabricEvent::Expire { message, class, src, lost }
                }
            };
            self.emit(event);
        }
        self.retry_targets = targets;
    }

    /// Advance one cycle, polling `workload` for new messages. Monomorphized
    /// per workload type; [`NocSim::step`] is the object-safe facade.
    pub fn step_cycle<W: Workload + ?Sized>(&mut self, workload: &mut W) {
        let now = self.now;
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
        // The full-scan oracle steps every link but keeps the worklist too,
        // so both modes hold the same audited list.
        let slot = self.links.slot_index(now);
        let mut live = std::mem::take(&mut self.live_links);
        if self.full_scan {
            (0..n * R::PORTS).for_each(|lid| self.arrive_link(lid, slot));
            live.retain(|&lid| !self.links.is_empty(lid as usize));
        } else {
            live.retain(|&lid| {
                self.arrive_link(lid as usize, slot);
                !self.links.is_empty(lid as usize)
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
        let mut polled = self.respawned.len();
        for i in 0..polled {
            let (node, queue, packet) = self.respawned[i];
            self.enqueue(node as usize, queue as usize, packet);
        }
        self.respawned.clear();
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

        // (c) Read-only arbitration over the routers-with-work bitmap, word
        // by word — canonical ascending order (metric accumulation order
        // depends on it) — skipping routers that cannot have become
        // grantable since they last produced no grant. Marks made from here
        // on land in the other, all-zero bitmap.
        let mut transfers = std::mem::take(&mut self.transfers);
        transfers.clear();
        let mut work = std::mem::replace(&mut self.marked, std::mem::take(&mut self.mark_scratch));
        let gather_walked = match mark {
            Some(_) if self.full_scan => n,
            Some(_) => popcount(&work),
            None => 0,
        };
        if self.full_scan {
            work.fill(0);
            for node in 0..n {
                self.gather_node(node, &mut transfers);
            }
        } else {
            for (w, word) in work.iter_mut().enumerate() {
                let mut bits = std::mem::take(word);
                while bits != 0 {
                    self.gather_node(w << 6 | bits.trailing_zeros() as usize, &mut transfers);
                    bits &= bits - 1;
                }
            }
        }
        self.mark_scratch = work;
        if let Some(m) = mark.as_mut() {
            self.probe.phase_lap(Phase::Gather, m, gather_walked);
        }

        // (d) Commit.
        let committed = transfers.len();
        for t in transfers.drain(..) {
            self.commit(t, slot);
        }
        self.transfers = transfers;
        if let Some(m) = mark.as_mut() {
            self.probe.phase_lap(Phase::Commit, m, committed);
        }

        if self.probe.counters_due(now) {
            let sample = CounterSample {
                cycle: now,
                backlog: self.inject_backlog as u64,
                buffered: self.in_buf.total(),
                on_links: self.links.total(),
                live_packets: self.packets.live() as u64,
                live_links: self.live_links.len() as u64,
                active_routers: popcount(&self.marked) as u64,
                poll_sources: self.poll_heap.len() as u64,
                in_flight: self.metrics.in_flight() as u64,
                completed: self.metrics.completed_total(),
                delivered: self.metrics.flits_delivered(),
                dropped: self.metrics.flits_dropped(),
                credit_stalls: self.probe.credit_stalls(),
            };
            self.probe.push_sample(sample);
        }

        self.now += 1;
    }
}

impl<R: RouterModel> NocSim for Fabric<R> {
    fn step<W: Workload + ?Sized>(&mut self, workload: &mut W) {
        self.step_cycle(workload);
    }

    fn note_workload_change(&mut self) {
        let now = self.now;
        self.poll_heap.clear();
        self.poll_heap.extend((0..self.nodes as u32).map(|node| Reverse((now, node))));
    }

    fn now(&self) -> Cycle {
        self.now
    }

    fn num_nodes(&self) -> usize {
        self.nodes
    }

    fn kind(&self) -> TopologyKind {
        self.cfg.kind
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
        self.link_flits.iter().sum()
    }

    fn quiesced(&self) -> bool {
        // All terms are counters — drain loops poll this every cycle, so it
        // must not walk nodes × ports × VCs. An empty network with an open
        // recovery window is not done: a deadline will still fire.
        self.metrics.in_flight() == 0
            && self.inject_backlog == 0
            && self.respawned.is_empty()
            && self.links.total() == 0
            && self.in_buf.total() == 0
            && self.recovery.pending() == 0
    }

    fn recovery_pending(&self) -> u64 {
        self.recovery.pending()
    }

    fn stall_diagnostics(&self) -> StallDiagnostics {
        let lanes = R::PORTS * self.vcs;
        let mut busiest: Vec<(u32, u32)> = (0..self.nodes)
            .map(|node| {
                let buffered: usize =
                    (node * lanes..(node + 1) * lanes).map(|lane| self.in_buf.len(lane)).sum();
                let queued: usize = (node * R::QUEUES..(node + 1) * R::QUEUES)
                    .map(|q| self.inject_q.flits(q))
                    .sum();
                (node as u32, (buffered + queued) as u32)
            })
            .filter(|&(_, flits)| flits > 0)
            .collect();
        busiest.sort_by(|a, b| b.1.cmp(&a.1).then(a.0.cmp(&b.0)));
        busiest.truncate(StallDiagnostics::TOP_ROUTERS);
        StallDiagnostics {
            backlog: self.inject_backlog as u64,
            buffered: self.in_buf.total(),
            on_links: self.links.total(),
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
