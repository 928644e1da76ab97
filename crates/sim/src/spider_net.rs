//! The Spidergon router model — the paper's baseline.
//!
//! Supplies the [`Fabric`] with the STMicroelectronics architecture as the
//! paper describes it (§2.1) and as the comparison requires (§2.2, §3.2):
//!
//! * **one-port router** — a single local injection queue, so "messages may
//!   block on an occupied injection channel even when their required network
//!   channels are free", and a single arbitrated ejection port;
//! * **single cross link** per node pair, shared by both route directions'
//!   quadrants — the structural bottleneck the Quarc doubles away;
//! * **across-first deterministic routing** with two dateline VCs per link
//!   (deadlock-free, same as Quarc);
//! * **broadcast by unicast** (ref. [9]): replication chains that are fully
//!   absorbed, header-rewritten and *re-injected through the single local
//!   port* at every hop ([`RouterModel::respawn`]) — the N−1
//!   store-and-forward traversals that make Spidergon broadcast an order of
//!   magnitude slower.

use crate::fabric::{Fabric, RouterModel, Src};
use quarc_core::bits::{BitSlab, Bits};
use quarc_core::config::NocConfig;
use quarc_core::flit::{PacketMeta, PacketTable, TrafficClass};
use quarc_core::ids::NodeId;
use quarc_core::routing::{chain_continuations, spidergon_broadcast_seeds, ChainSeed};
use quarc_core::topology::{SpidergonTopology, TopologyKind};
use quarc_workloads::MessageRequest;

/// The flit-level Spidergon network simulator.
pub type SpidergonNetwork = Fabric<SpidergonTopology>;

/// The Spidergon [`RouterModel`]; its across-first routing is the
/// topology's `Routing` impl in `quarc-core`.
impl RouterModel for SpidergonTopology {
    const QUEUES: usize = 1;
    const EJECT_PORT: bool = true;
    const DROPS_FIRST: bool = true;
    /// [`SpidergonTopology::feeders`] per output (three links, then eject)
    /// as request slots (`SpiIn::index()`; the local queue is slot 3) —
    /// pinned to the topology tables by a test.
    const FEEDERS: &'static [&'static [u8]] = &[&[0, 2, 3], &[1, 2, 3], &[3], &[0, 1, 2]];

    fn new(cfg: &NocConfig) -> Self {
        assert_eq!(cfg.kind, TopologyKind::Spidergon, "config is not a Spidergon network");
        SpidergonTopology::new(cfg.n)
    }

    fn packet_table(&self) -> PacketTable {
        // Chain counters always fit inline; no bitstring rows are needed.
        PacketTable::new()
    }

    /// Everything rides the single local queue: a broadcast becomes the
    /// three chain seeds and a multicast one unicast per target (the paper
    /// gives Spidergon no native multicast).
    fn plan(
        &mut self,
        req: &MessageRequest,
        base: &PacketMeta,
        _bits: &mut BitSlab,
        out: &mut Vec<(usize, PacketMeta)>,
    ) -> usize {
        let ring = self.ring();
        match req.class {
            TrafficClass::Unicast => {
                out.push((0, PacketMeta { dst: req.dst.expect("unicast carries dst"), ..*base }));
                1
            }
            TrafficClass::Broadcast => {
                out.extend(spidergon_broadcast_seeds(ring, req.src).map(|s| chain(s, base)));
                ring.len() - 1
            }
            TrafficClass::Multicast => {
                let targets = req.targets.iter().filter(|&&t| t != req.src);
                let unicast = |&dst| (0, PacketMeta { class: TrafficClass::Unicast, dst, ..*base });
                let before = out.len();
                out.extend(targets.map(unicast));
                out.len() - before
            }
            other => panic!("applications do not inject {other} packets directly"),
        }
    }

    /// The dropped packet's own delivery plus, for chain packets, every node
    /// the continuations it would have spawned would cover (a rim chain with
    /// `remaining = r` covers `1 + r` nodes; a cross seed's receiver spawns
    /// two rim chains of `remaining − 1` each, so it covers `1 + 2·r`).
    fn receivers_beyond(&self, _: &BitSlab, _: usize, _: Src, meta: &PacketMeta) -> usize {
        match meta.class {
            TrafficClass::ChainRim => 1 + meta.bitstring.inline_value() as usize,
            TrafficClass::ChainCross => 1 + 2 * meta.bitstring.inline_value() as usize,
            _ => 1,
        }
    }

    /// Broadcast-by-unicast: the tail of a chain packet triggers the
    /// replication logic, which rewrites the header and re-injects through
    /// the single local port one cycle later (§2.2).
    fn respawn(&self, node: NodeId, meta: &PacketMeta, out: &mut Vec<(usize, PacketMeta)>) {
        chain_continuations(self.ring(), node, meta, |s| out.push(chain(s, meta)));
    }
}

/// The chain packet `seed` of the broadcast `base` belongs to, on the local
/// queue: the remaining-count rides the header's bitstring field.
fn chain(seed: ChainSeed, base: &PacketMeta) -> (usize, PacketMeta) {
    let bitstring = Bits::inline(u64::from(seed.remaining));
    (0, PacketMeta { class: seed.class, dst: seed.dst, bitstring, dir: seed.dir, ..*base })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::driver::NocSim;
    use quarc_core::routing::spidergon_hops;
    use quarc_core::topology::{SpiIn, SpiOut};
    use quarc_workloads::{MessageRequest, TraceRecord, TraceWorkload, Workload};

    fn run_until_quiet(net: &mut SpidergonNetwork, wl: &mut dyn Workload, cap: u64) {
        for _ in 0..cap {
            net.step(wl);
            if net.quiesced() {
                return;
            }
        }
        panic!("network did not quiesce within {cap} cycles");
    }

    fn one_shot(n: usize, records: Vec<TraceRecord>) -> (SpidergonNetwork, TraceWorkload) {
        (SpidergonNetwork::new(NocConfig::spidergon(n)), TraceWorkload::new(n, records))
    }

    #[test]
    fn single_unicast_ideal_latency() {
        let (mut net, mut wl) = one_shot(
            16,
            vec![TraceRecord {
                cycle: 0,
                request: MessageRequest::unicast(NodeId(0), NodeId(3), 8),
            }],
        );
        run_until_quiet(&mut net, &mut wl, 200);
        let d = spidergon_hops(&SpidergonTopology::new(16).ring().clone(), NodeId(0), NodeId(3));
        let got = net.metrics().unicast_latency().mean();
        let ideal = d as f64 + 7.0 + 1.0;
        assert!((got - ideal).abs() <= 1.0, "latency {got} vs {ideal}");
    }

    #[test]
    fn cross_route_unicast_arrives() {
        let (mut net, mut wl) = one_shot(
            16,
            vec![TraceRecord {
                cycle: 0,
                request: MessageRequest::unicast(NodeId(0), NodeId(7), 4),
            }],
        );
        run_until_quiet(&mut net, &mut wl, 200);
        assert_eq!(net.metrics().completed(TrafficClass::Unicast), 1);
    }

    #[test]
    fn broadcast_reaches_all_nodes() {
        for n in [8usize, 16, 32] {
            let (mut net, mut wl) = one_shot(
                n,
                vec![TraceRecord { cycle: 0, request: MessageRequest::broadcast(NodeId(1), 4) }],
            );
            run_until_quiet(&mut net, &mut wl, 20_000);
            let m = net.metrics();
            assert_eq!(m.completed(TrafficClass::Broadcast), 1, "n={n}");
        }
    }

    #[test]
    fn broadcast_is_store_and_forward_slow() {
        // The chain re-serialises M flits at every hop: completion must cost
        // on the order of (n/2)·M cycles, far beyond the Quarc's n/4 + M.
        let n = 16;
        let m_len = 8u64;
        let (mut net, mut wl) = one_shot(
            n,
            vec![TraceRecord {
                cycle: 0,
                request: MessageRequest::broadcast(NodeId(0), m_len as usize),
            }],
        );
        run_until_quiet(&mut net, &mut wl, 20_000);
        let got = net.metrics().broadcast_completion_latency().mean();
        // Longest chain: cross (1 + M−1) then (n/4 − 1) rim hops, each costing
        // a full store-and-forward of ~M cycles plus the rewrite cycle.
        let floor = (n as u64 / 4 - 1) as f64 * m_len as f64;
        assert!(got > floor, "completion {got} ≤ floor {floor}: chains not store-and-forward?");
    }

    #[test]
    fn quarc_broadcast_beats_spidergon_by_a_lot() {
        use crate::quarc_net::QuarcNetwork;
        let n = 16;
        let record =
            vec![TraceRecord { cycle: 0, request: MessageRequest::broadcast(NodeId(0), 8) }];
        let mut q = QuarcNetwork::new(NocConfig::quarc(n));
        let mut wq = TraceWorkload::new(n, record.clone());
        for _ in 0..5_000 {
            q.step(&mut wq);
            if q.quiesced() {
                break;
            }
        }
        let (mut s, mut ws) = one_shot(n, record);
        run_until_quiet(&mut s, &mut ws, 20_000);
        let quarc = q.metrics().broadcast_completion_latency().mean();
        let spider = s.metrics().broadcast_completion_latency().mean();
        assert!(
            spider > 4.0 * quarc,
            "expected order-of-magnitude gap: quarc {quarc} vs spidergon {spider}"
        );
    }

    #[test]
    fn sustained_load_drains_clean() {
        use quarc_workloads::{Synthetic, SyntheticConfig};
        let mut net = SpidergonNetwork::new(NocConfig::spidergon(16));
        let mut wl = Synthetic::new(16, SyntheticConfig::paper(0.01, 8, 0.05, 7));
        for _ in 0..5_000 {
            net.step(&mut wl);
        }
        let mut none = TraceWorkload::new(16, vec![]);
        for _ in 0..20_000 {
            net.step(&mut none);
            if net.quiesced() {
                break;
            }
        }
        assert!(net.quiesced(), "failed to drain (possible deadlock)");
        let m = net.metrics();
        assert_eq!(m.created(TrafficClass::Unicast), m.completed(TrafficClass::Unicast));
        assert_eq!(m.created(TrafficClass::Broadcast), m.completed(TrafficClass::Broadcast));
    }

    #[test]
    fn heavy_load_does_not_deadlock() {
        use quarc_workloads::{Synthetic, SyntheticConfig};
        let mut net = SpidergonNetwork::new(NocConfig::spidergon(16).with_buffer_depth(2));
        let mut wl = Synthetic::new(16, SyntheticConfig::paper(0.8, 8, 0.1, 3));
        for _ in 0..3_000 {
            net.step(&mut wl);
        }
        let before = net.metrics().flits_delivered();
        for _ in 0..1_000 {
            net.step(&mut wl);
        }
        assert!(net.metrics().flits_delivered() > before, "deadlock under overload");
    }

    #[test]
    fn deterministic_runs() {
        use quarc_workloads::{Synthetic, SyntheticConfig};
        let run = || {
            let mut net = SpidergonNetwork::new(NocConfig::spidergon(16));
            let mut wl = Synthetic::new(16, SyntheticConfig::paper(0.03, 8, 0.1, 42));
            for _ in 0..3_000 {
                net.step(&mut wl);
            }
            (net.metrics().flits_delivered(), net.metrics().unicast_latency().mean())
        };
        assert_eq!(run(), run());
    }

    #[test]
    fn multicast_as_unicasts_completes() {
        let (mut net, mut wl) = one_shot(
            16,
            vec![TraceRecord {
                cycle: 0,
                request: MessageRequest::multicast(NodeId(0), vec![NodeId(3), NodeId(9)], 4),
            }],
        );
        run_until_quiet(&mut net, &mut wl, 1_000);
        assert_eq!(net.metrics().completed(TrafficClass::Multicast), 1);
    }

    #[test]
    fn full_scan_oracle_matches_active_set() {
        crate::fabric::assert_full_scan_matches_active_set::<SpidergonTopology>(
            NocConfig::spidergon(16),
            0.02,
            99,
        );
    }

    #[test]
    fn feeder_slots_match_topology_tables() {
        for (o, out) in SpiOut::ALL.iter().enumerate() {
            let want: Vec<u8> =
                SpidergonTopology::feeders(*out).iter().map(|f: &SpiIn| f.index() as u8).collect();
            assert_eq!(SpidergonTopology::FEEDERS[o], want.as_slice(), "output {out:?}");
        }
    }
}
