//! The 2D mesh: the grid model ([`crate::grid_net`]) with wrap links and
//! datelines off — XY routing is deadlock-free on a mesh with a single VC,
//! so each port has the one lane VC0 and edge routers simply own vacant
//! link slots. Selected by [`quarc_core::topology::TopologyKind::Mesh`].

use crate::fabric::Fabric;
use quarc_core::grid::GridTopology;

/// The flit-level mesh network simulator (build from [`NocConfig::mesh`]).
///
/// [`NocConfig::mesh`]: quarc_core::config::NocConfig::mesh
pub type MeshNetwork = Fabric<GridTopology>;

#[cfg(test)]
mod tests {
    use super::*;
    use crate::driver::NocSim;
    use quarc_core::config::NocConfig;
    use quarc_core::flit::TrafficClass;
    use quarc_core::ids::NodeId;
    use quarc_workloads::{MessageRequest, TraceRecord, TraceWorkload};

    #[test]
    fn unicast_latency_is_manhattan_plus_serialisation() {
        let mut net = MeshNetwork::new(NocConfig::mesh(16));
        let src = NodeId(0);
        let dst = NodeId(15); // (3,3): 6 hops in a 4×4 mesh
        let mut wl = TraceWorkload::new(
            16,
            vec![TraceRecord { cycle: 0, request: MessageRequest::unicast(src, dst, 8) }],
        );
        for _ in 0..200 {
            net.step(&mut wl);
            if net.quiesced() {
                break;
            }
        }
        assert!(net.quiesced());
        let got = net.metrics().unicast_latency().mean();
        let ideal = 6.0 + 7.0 + 1.0;
        assert!((got - ideal).abs() <= 1.0, "latency {got} vs {ideal}");
    }

    #[test]
    fn all_pairs_deliver() {
        let mut records = Vec::new();
        for s in 0..9u32 {
            for t in 0..9u32 {
                if s != t {
                    records.push(TraceRecord {
                        cycle: (s as u64) * 40,
                        request: MessageRequest::unicast(NodeId(s), NodeId(t), 4),
                    });
                }
            }
        }
        let count = records.len() as u64;
        let mut net = MeshNetwork::new(NocConfig::mesh(9));
        let mut wl = TraceWorkload::new(9, records);
        for _ in 0..5_000 {
            net.step(&mut wl);
            if net.quiesced() && wl.remaining() == 0 {
                break;
            }
        }
        assert!(net.quiesced(), "mesh failed to drain");
        assert_eq!(net.metrics().completed(TrafficClass::Unicast), count);
    }

    #[test]
    fn sustained_uniform_load_no_deadlock() {
        use quarc_workloads::{Synthetic, SyntheticConfig};
        let mut net = MeshNetwork::new(NocConfig::mesh(16));
        let mut wl = Synthetic::new(16, SyntheticConfig::paper(0.05, 8, 0.0, 5));
        for _ in 0..5_000 {
            net.step(&mut wl);
        }
        assert!(net.metrics().completed(TrafficClass::Unicast) > 1_000);
    }

    #[test]
    fn broadcast_reaches_all_nodes_exactly_once() {
        // Metrics enforce exactly-once / in-order internally, so completion
        // with the right reception count is the whole invariant.
        for n in [9usize, 16] {
            let mut net = MeshNetwork::new(NocConfig::mesh(n));
            let mut wl = TraceWorkload::new(
                n,
                vec![TraceRecord { cycle: 0, request: MessageRequest::broadcast(NodeId(1), 4) }],
            );
            for _ in 0..1_000 {
                net.step(&mut wl);
                if net.quiesced() {
                    break;
                }
            }
            assert!(net.quiesced(), "n={n}");
            let m = net.metrics();
            assert_eq!(m.completed(TrafficClass::Broadcast), 1, "n={n}");
            assert_eq!(m.flits_delivered() as usize, (n - 1) * 4, "n={n}");
        }
    }

    #[test]
    fn multicast_delivers_to_targets_only_in_order() {
        let mut net = MeshNetwork::new(NocConfig::mesh(16));
        let targets = vec![NodeId(2), NodeId(7), NodeId(8), NodeId(13)];
        let mut wl = TraceWorkload::new(
            16,
            vec![TraceRecord {
                cycle: 0,
                request: MessageRequest::multicast(NodeId(5), targets.clone(), 4),
            }],
        );
        for _ in 0..500 {
            net.step(&mut wl);
            if net.quiesced() {
                break;
            }
        }
        assert!(net.quiesced());
        let m = net.metrics();
        assert_eq!(m.completed(TrafficClass::Multicast), 1);
        // 4 targets × 4 flits, nothing delivered anywhere else.
        assert_eq!(m.flits_delivered(), 16);
        assert_eq!(m.multicast_completion_latency().count(), 1);
    }

    #[test]
    fn sustained_broadcast_load_drains() {
        use quarc_workloads::{Synthetic, SyntheticConfig};
        let mut net = MeshNetwork::new(NocConfig::mesh(16));
        let mut wl = Synthetic::new(16, SyntheticConfig::paper(0.02, 8, 0.1, 7));
        for _ in 0..4_000 {
            net.step(&mut wl);
        }
        let mut none = TraceWorkload::new(16, vec![]);
        for _ in 0..20_000 {
            net.step(&mut none);
            if net.quiesced() {
                break;
            }
        }
        assert!(net.quiesced(), "mesh failed to drain under β > 0");
        let m = net.metrics();
        assert_eq!(m.created(TrafficClass::Broadcast), m.completed(TrafficClass::Broadcast));
        assert!(m.created(TrafficClass::Broadcast) > 10);
    }

    #[test]
    fn full_scan_oracle_matches_active_set() {
        crate::fabric::assert_full_scan_matches_active_set::<GridTopology>(
            NocConfig::mesh(16),
            0.03,
            55,
        );
    }
}
