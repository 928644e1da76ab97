//! The Quarc router model — the paper's contribution.
//!
//! Supplies the [`Fabric`] with what §2.2–§2.5 change relative to
//! Spidergon:
//!
//! * **all-port router** — four local ingress queues (one per quadrant) feed
//!   four dedicated injection paths, so a message blocks only when *its*
//!   quadrant's resources are busy, and every network input absorbs into the
//!   PE in parallel (no ejection arbiter);
//! * **doubled cross links** — cross-right and cross-left are independent
//!   physical channels;
//! * **absorb-and-forward** — broadcast/multicast flits are cloned at the
//!   ingress multiplexer: the local copy and the forwarded flit move in the
//!   same cycle, or not at all;
//! * **no routing logic in the switch** — every per-hop decision is
//!   [`quarc_route`] ("local or straight on"), reached through the
//!   topology's [`Routing`] impl in `quarc-core`;
//! * **two VCs per link** with the dateline discipline for deadlock freedom.
//!
//! Wormhole switching, credit flow control, arbitration and the cycle loop
//! are the fabric's.
//!
//! [`quarc_route`]: quarc_core::routing::quarc_route

use crate::fabric::{Fabric, RouterModel};
use quarc_core::bits::BitSlab;
use quarc_core::config::NocConfig;
use quarc_core::flit::{PacketMeta, PacketTable, TrafficClass};
use quarc_core::ids::NodeId;
use quarc_core::quadrant::{broadcast_branch_heads, multicast_branches_into};
use quarc_core::routing::Routing;
use quarc_core::topology::{QuarcOut, QuarcTopology, TopologyKind};
use quarc_engine::Cycle;
use quarc_workloads::MessageRequest;

/// The flit-level Quarc network simulator.
pub type QuarcNetwork = Fabric<QuarcTopology>;

/// The Quarc [`RouterModel`]: ring geometry only — the switch holds no
/// routing state.
impl RouterModel for QuarcTopology {
    const QUEUES: usize = 4;
    const EJECT_PORT: bool = false;
    const DROPS_FIRST: bool = false;
    /// [`QuarcTopology::feeders`] per network output, pre-resolved to
    /// request slots (net inputs 0..4, quadrant queues 4..8) — pinned to the
    /// topology tables by a test.
    const FEEDERS: &'static [&'static [u8]] = &[&[0, 2, 4], &[1, 3, 7], &[5], &[6]];

    fn new(cfg: &NocConfig) -> Self {
        assert_eq!(cfg.kind, TopologyKind::Quarc, "config is not a Quarc network");
        QuarcTopology::new(cfg.n)
    }

    fn packet_table(&self) -> PacketTable {
        // A Quarc branch bitstring never exceeds quarter-depth + 1 bits;
        // for n <= 64 every bitstring stays inline (no slab rows).
        PacketTable::with_bit_capacity(self.ring().quarter() + 2)
    }

    /// The quadrant calculator (§2.4): a unicast rides its destination's
    /// quadrant queue, a broadcast is one tagged stream per quadrant (§2.5.2)
    /// and a multicast one bitstring branch per non-empty quadrant (§2.5.3).
    fn plan(
        &mut self,
        req: &MessageRequest,
        base: &PacketMeta,
        bits: &mut BitSlab,
        out: &mut Vec<(usize, PacketMeta)>,
    ) -> usize {
        let ring = self.ring();
        match req.class {
            TrafficClass::Unicast => {
                let dst = req.dst.expect("unicast carries dst");
                out.push((self.unicast_queue(req.src, dst), PacketMeta { dst, ..*base }));
                1
            }
            TrafficClass::Broadcast => {
                for (quadrant, dst) in broadcast_branch_heads(ring, req.src).into_iter().flatten() {
                    out.push((quadrant.index(), PacketMeta { dst, ..*base }));
                }
                ring.len() - 1
            }
            TrafficClass::Multicast => {
                let before = out.len();
                multicast_branches_into(ring, req.src, req.targets.iter().copied(), bits, |b| {
                    let meta = PacketMeta { dst: b.dst, bitstring: b.bitstring, ..*base };
                    out.push((b.quadrant.index(), meta));
                });
                out[before..].iter().map(|(_, meta)| bits.popcount(meta.bitstring) as usize).sum()
            }
            other => panic!("applications do not inject {other} packets directly"),
        }
    }
}

impl QuarcNetwork {
    /// Schedule a transient fault on the link leaving `node` through `out`:
    /// it refuses every flit while `from ≤ now < until`. Credit-based flow
    /// control must absorb the stall with zero loss — asserted by the
    /// fault-injection tests.
    pub fn inject_link_stall(&mut self, node: NodeId, out: QuarcOut, from: Cycle, until: Cycle) {
        assert!(out != QuarcOut::Eject, "eject is not a link");
        self.block_link(node.index() * 4 + out.index(), from, until);
    }

    /// Flits carried so far by the link leaving `node` through `out`.
    pub fn link_flits(&self, node: NodeId, out: QuarcOut) -> u64 {
        self.link_flit_counts()[node.index() * 4 + out.index()]
    }

    /// Mean utilisation (flits per cycle) of every rim link vs every cross
    /// link — the balance the topology was designed for.
    pub fn utilisation_by_kind(&self) -> (f64, f64) {
        use crate::driver::NocSim;
        let cycles = self.now().max(1) as f64;
        let n = self.num_nodes() as f64;
        let (mut rim, mut cross) = (0u64, 0u64);
        for per_node in self.link_flit_counts().chunks_exact(4) {
            rim += per_node[0] + per_node[1];
            cross += per_node[2] + per_node[3];
        }
        (rim as f64 / (2.0 * n * cycles), cross as f64 / (2.0 * n * cycles))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::driver::NocSim;
    use quarc_core::config::ArbPolicy;
    use quarc_core::quadrant::unicast_hops;
    use quarc_core::topology::QuarcIn;
    use quarc_workloads::{MessageRequest, TraceRecord, TraceWorkload, Workload};

    /// Drive a network until quiescent (with a hard cycle cap).
    fn run_until_quiet(net: &mut QuarcNetwork, workload: &mut dyn Workload, cap: u64) {
        for _ in 0..cap {
            net.step(workload);
            if net.quiesced() {
                return;
            }
        }
        panic!("network did not quiesce within {cap} cycles");
    }

    fn one_shot(n: usize, records: Vec<TraceRecord>) -> (QuarcNetwork, TraceWorkload) {
        let net = QuarcNetwork::new(NocConfig::quarc(n));
        let wl = TraceWorkload::new(n, records);
        (net, wl)
    }

    #[test]
    fn single_unicast_arrives_with_ideal_latency() {
        // One 8-flit unicast over d hops with empty network: latency is
        // d (header pipeline) + (M − 1) (serialisation) + 1 (injection cycle).
        let (mut net, mut wl) = one_shot(
            16,
            vec![TraceRecord {
                cycle: 0,
                request: MessageRequest::unicast(NodeId(0), NodeId(3), 8),
            }],
        );
        run_until_quiet(&mut net, &mut wl, 200);
        let m = net.metrics();
        assert_eq!(m.unicast_latency().count(), 1);
        let d = unicast_hops(&QuarcTopology::new(16).ring().clone(), NodeId(0), NodeId(3)) as f64;
        let ideal = d + 7.0 + 1.0;
        let got = m.unicast_latency().mean();
        assert!((got - ideal).abs() <= 1.0, "latency {got} vs ideal {ideal} (d = {d})");
    }

    #[test]
    fn cross_unicast_uses_one_hop() {
        // Antipodal message: 1 cross hop.
        let (mut net, mut wl) = one_shot(
            16,
            vec![TraceRecord {
                cycle: 0,
                request: MessageRequest::unicast(NodeId(2), NodeId(10), 4),
            }],
        );
        run_until_quiet(&mut net, &mut wl, 100);
        let got = net.metrics().unicast_latency().mean();
        assert!((got - 5.0).abs() <= 1.0, "latency {got}");
    }

    #[test]
    fn broadcast_reaches_all_nodes_exactly_once() {
        for n in [8usize, 16, 32] {
            let (mut net, mut wl) = one_shot(
                n,
                vec![TraceRecord { cycle: 0, request: MessageRequest::broadcast(NodeId(1), 4) }],
            );
            run_until_quiet(&mut net, &mut wl, 500);
            let m = net.metrics();
            // Metrics enforce exactly-once internally; completion implies all
            // n−1 receptions happened.
            assert_eq!(m.completed(TrafficClass::Broadcast), 1, "n={n}");
            assert_eq!(m.broadcast_reception_latency().count() as usize, n - 1);
        }
    }

    #[test]
    fn broadcast_completion_is_near_quarter_plus_serialisation() {
        // Fig. 6 semantics: the slowest branch travels n/4 hops, leaving in
        // the broadcast's creation cycle; with M = 8 flits its tail arrives
        // at n/4 + (M − 1).
        let n = 16;
        let (mut net, mut wl) = one_shot(
            n,
            vec![TraceRecord { cycle: 0, request: MessageRequest::broadcast(NodeId(0), 8) }],
        );
        run_until_quiet(&mut net, &mut wl, 500);
        let got = net.metrics().broadcast_completion_latency().mean();
        assert_eq!(got, (n / 4 + 7) as f64);
    }

    #[test]
    fn multicast_delivers_to_targets_only() {
        let (mut net, mut wl) = one_shot(
            16,
            vec![TraceRecord {
                cycle: 0,
                request: MessageRequest::multicast(
                    NodeId(0),
                    vec![NodeId(2), NodeId(7), NodeId(8), NodeId(12)],
                    4,
                ),
            }],
        );
        run_until_quiet(&mut net, &mut wl, 500);
        let m = net.metrics();
        assert_eq!(m.completed(TrafficClass::Multicast), 1);
        // 4 targets → 4 tail deliveries → 4 × 4 flits delivered.
        assert_eq!(m.flits_delivered(), 16);
    }

    #[test]
    fn deterministic_runs_are_identical() {
        use quarc_workloads::{Synthetic, SyntheticConfig};
        let run = || {
            let mut net = QuarcNetwork::new(NocConfig::quarc(16));
            let mut wl = Synthetic::new(16, SyntheticConfig::paper(0.05, 8, 0.1, 42));
            for _ in 0..2000 {
                net.step(&mut wl);
            }
            (
                net.metrics().flits_delivered(),
                net.metrics().unicast_latency().count(),
                net.metrics().unicast_latency().mean(),
                net.metrics().broadcast_completion_latency().mean(),
            )
        };
        assert_eq!(run(), run());
    }

    #[test]
    fn sustained_uniform_load_delivers_everything() {
        use quarc_workloads::{Synthetic, SyntheticConfig};
        let mut net = QuarcNetwork::new(NocConfig::quarc(16));
        let mut wl = Synthetic::new(16, SyntheticConfig::paper(0.02, 8, 0.05, 7));
        for _ in 0..5_000 {
            net.step(&mut wl);
        }
        // Stop injecting, drain.
        let mut none = TraceWorkload::new(16, vec![]);
        for _ in 0..5_000 {
            net.step(&mut none);
            if net.quiesced() {
                break;
            }
        }
        assert!(net.quiesced(), "network failed to drain (possible deadlock)");
        let m = net.metrics();
        assert_eq!(m.created(TrafficClass::Unicast), m.completed(TrafficClass::Unicast));
        assert_eq!(m.created(TrafficClass::Broadcast), m.completed(TrafficClass::Broadcast));
        assert!(m.created(TrafficClass::Unicast) > 500);
    }

    #[test]
    fn heavy_load_does_not_deadlock() {
        use quarc_workloads::{Synthetic, SyntheticConfig};
        // Offered load far above saturation: the network must keep moving
        // flits (wormhole + dateline VCs guarantee forward progress).
        let mut net = QuarcNetwork::new(NocConfig::quarc(16).with_buffer_depth(2));
        let mut wl = Synthetic::new(16, SyntheticConfig::paper(0.8, 8, 0.2, 3));
        for _ in 0..3_000 {
            net.step(&mut wl);
        }
        let before = net.metrics().flits_delivered();
        for _ in 0..1_000 {
            net.step(&mut wl);
        }
        assert!(
            net.metrics().flits_delivered() > before,
            "no flits delivered under saturation — deadlock"
        );
    }

    #[test]
    fn concurrent_broadcasts_all_complete() {
        let records = (0..16u32)
            .map(|s| TraceRecord { cycle: 0, request: MessageRequest::broadcast(NodeId(s), 4) })
            .collect();
        let (mut net, mut wl) = one_shot(16, records);
        run_until_quiet(&mut net, &mut wl, 5_000);
        assert_eq!(net.metrics().completed(TrafficClass::Broadcast), 16);
    }

    #[test]
    fn arbitration_policies_both_conserve_traffic() {
        use quarc_workloads::{Synthetic, SyntheticConfig};
        let run_policy = |policy: ArbPolicy| {
            let mut net = QuarcNetwork::new(NocConfig::quarc(16).with_arb(policy));
            let mut wl = Synthetic::new(16, SyntheticConfig::paper(0.04, 8, 0.1, 9));
            for _ in 0..4_000 {
                net.step(&mut wl);
            }
            let mut none = TraceWorkload::new(16, vec![]);
            for _ in 0..100_000 {
                net.step(&mut none);
                if net.quiesced() {
                    break;
                }
            }
            assert!(net.quiesced(), "{policy:?} failed to drain");
            let m = net.metrics();
            assert_eq!(m.created(TrafficClass::Unicast), m.completed(TrafficClass::Unicast));
            (m.unicast_latency().mean(), m.flits_delivered())
        };
        let (rr_lat, rr_flits) = run_policy(ArbPolicy::RoundRobin);
        let (fp_lat, fp_flits) = run_policy(ArbPolicy::FixedPriority);
        // Identical offered traffic, identical delivery totals; only the
        // waiting differs.
        assert_eq!(rr_flits, fp_flits);
        assert!(rr_lat > 0.0 && fp_lat > 0.0);
    }

    #[test]
    fn backlog_reports_queued_flits() {
        let (mut net, mut wl) = one_shot(
            16,
            vec![TraceRecord {
                cycle: 0,
                request: MessageRequest::unicast(NodeId(0), NodeId(1), 8),
            }],
        );
        net.step(&mut wl); // injection happens, nothing sent yet
        assert!(net.source_backlog() > 0);
        run_until_quiet(&mut net, &mut wl, 100);
        assert_eq!(net.source_backlog(), 0);
    }

    #[test]
    fn out_feeder_slots_match_topology_tables() {
        for (o, out) in QuarcOut::NETWORK.iter().enumerate() {
            let want: Vec<u8> = QuarcTopology::feeders(*out)
                .iter()
                .map(|f| match f {
                    QuarcIn::Local(q) => 4 + q.index() as u8,
                    other => other.index() as u8,
                })
                .collect();
            assert_eq!(QuarcTopology::FEEDERS[o], want.as_slice(), "output {out:?}");
        }
    }

    #[test]
    fn full_scan_oracle_matches_active_set() {
        crate::fabric::assert_full_scan_matches_active_set::<QuarcTopology>(
            NocConfig::quarc(16),
            0.05,
            77,
        );
    }
}
