//! The 2D torus: the grid model ([`crate::grid_net`]) with every link
//! wrapping and per-dimension dateline VCs. Selected by
//! [`quarc_core::topology::TopologyKind::Torus`].

use crate::fabric::Fabric;
use quarc_core::grid::GridTopology;

/// The flit-level torus network simulator (build from [`NocConfig::torus`];
/// validation enforces the 2-VC dateline minimum).
///
/// [`NocConfig::torus`]: quarc_core::config::NocConfig::torus
pub type TorusNetwork = Fabric<GridTopology>;

#[cfg(test)]
mod tests {
    use super::*;
    use crate::driver::NocSim;
    use quarc_core::config::NocConfig;
    use quarc_core::flit::TrafficClass;
    use quarc_core::ids::NodeId;
    use quarc_workloads::{MessageRequest, TraceRecord, TraceWorkload};

    #[test]
    fn wraparound_route_is_short() {
        // 0 → 3 on a 4×4 torus: one x− wrap hop instead of three x+ hops.
        let mut net = TorusNetwork::new(NocConfig::torus(16));
        let mut wl = TraceWorkload::new(
            16,
            vec![TraceRecord {
                cycle: 0,
                request: MessageRequest::unicast(NodeId(0), NodeId(3), 8),
            }],
        );
        for _ in 0..100 {
            net.step(&mut wl);
            if net.quiesced() {
                break;
            }
        }
        assert!(net.quiesced());
        let got = net.metrics().unicast_latency().mean();
        let ideal = 1.0 + 7.0 + 1.0; // 1 hop + (M−1) serialisation + injection
        assert!((got - ideal).abs() <= 1.0, "latency {got} vs {ideal}");
    }

    #[test]
    fn all_pairs_deliver() {
        let mut records = Vec::new();
        for s in 0..16u32 {
            for t in 0..16u32 {
                if s != t {
                    records.push(TraceRecord {
                        cycle: (s as u64) * 50,
                        request: MessageRequest::unicast(NodeId(s), NodeId(t), 4),
                    });
                }
            }
        }
        let count = records.len() as u64;
        let mut net = TorusNetwork::new(NocConfig::torus(16));
        let mut wl = TraceWorkload::new(16, records);
        for _ in 0..10_000 {
            net.step(&mut wl);
            if net.quiesced() && wl.remaining() == 0 {
                break;
            }
        }
        assert!(net.quiesced(), "torus failed to drain");
        assert_eq!(net.metrics().completed(TrafficClass::Unicast), count);
    }

    #[test]
    fn sustained_load_no_deadlock() {
        use quarc_workloads::{Synthetic, SyntheticConfig};
        let mut net = TorusNetwork::new(NocConfig::torus(16).with_buffer_depth(2));
        let mut wl = Synthetic::new(16, SyntheticConfig::paper(0.1, 8, 0.0, 5));
        for _ in 0..5_000 {
            net.step(&mut wl);
        }
        let before = net.metrics().flits_delivered();
        for _ in 0..2_000 {
            net.step(&mut wl);
        }
        assert!(net.metrics().flits_delivered() > before, "deadlock on the torus");
    }

    #[test]
    fn broadcast_reaches_all_nodes_exactly_once() {
        for n in [9usize, 16] {
            let mut net = TorusNetwork::new(NocConfig::torus(n));
            let mut wl = TraceWorkload::new(
                n,
                vec![TraceRecord { cycle: 0, request: MessageRequest::broadcast(NodeId(2), 4) }],
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
    fn multicast_uses_wrap_links_and_delivers_exactly_once() {
        // Targets on the far side of both datelines: the tree must take the
        // wrap shortcuts and still deliver one copy each, in order (metrics
        // enforce both).
        let mut net = TorusNetwork::new(NocConfig::torus(16));
        let targets = vec![NodeId(3), NodeId(12), NodeId(15), NodeId(10)];
        let mut wl = TraceWorkload::new(
            16,
            vec![TraceRecord {
                cycle: 0,
                request: MessageRequest::multicast(NodeId(0), targets.clone(), 5),
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
        assert_eq!(m.flits_delivered(), 4 * 5);
    }

    #[test]
    fn sustained_broadcast_load_drains_on_wrap_rings() {
        use quarc_workloads::{Synthetic, SyntheticConfig};
        // β > 0 with tight buffers: the dateline VCs must keep the wrap
        // rings deadlock-free even with multicast clones in the mix.
        let mut net = TorusNetwork::new(NocConfig::torus(16).with_buffer_depth(2));
        let mut wl = Synthetic::new(16, SyntheticConfig::paper(0.02, 8, 0.1, 11));
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
        assert!(net.quiesced(), "torus failed to drain under β > 0");
        let m = net.metrics();
        assert_eq!(m.created(TrafficClass::Broadcast), m.completed(TrafficClass::Broadcast));
        assert!(m.created(TrafficClass::Broadcast) > 10);
    }

    #[test]
    fn torus_beats_mesh_on_mean_latency() {
        use crate::mesh_net::MeshNetwork;
        use quarc_workloads::{Synthetic, SyntheticConfig};
        let spec = crate::driver::RunSpec {
            warmup: 1_000,
            measure: 8_000,
            drain: 12_000,
            ..Default::default()
        };
        let mut torus = TorusNetwork::new(NocConfig::torus(16));
        let mut wl = Synthetic::new(16, SyntheticConfig::paper(0.02, 8, 0.0, 6));
        let rt = crate::driver::run(&mut torus, &mut wl, &spec);
        let mut mesh = MeshNetwork::new(NocConfig::mesh(16));
        let mut wl = Synthetic::new(16, SyntheticConfig::paper(0.02, 8, 0.0, 6));
        let rm = crate::driver::run(&mut mesh, &mut wl, &spec);
        assert!(
            rt.unicast_mean < rm.unicast_mean,
            "torus {:.1} should beat mesh {:.1} (shorter mean distance)",
            rt.unicast_mean,
            rm.unicast_mean
        );
    }

    #[test]
    fn full_scan_oracle_matches_active_set() {
        crate::fabric::assert_full_scan_matches_active_set::<GridTopology>(
            NocConfig::torus(16),
            0.03,
            12,
        );
    }
}
