//! Property-based, full-stack collective-communication coverage: random
//! sources, sizes and target sets must reach exactly the right PEs in both
//! architectures (the metrics layer enforces exactly-once and in-order
//! delivery internally, so completion counts are proof of coverage).

use proptest::prelude::*;
use quarc::core::config::NocConfig;
use quarc::core::flit::TrafficClass;
use quarc::core::ids::NodeId;
use quarc::sim::driver::NocSim;
use quarc::sim::{QuarcNetwork, SpidergonNetwork};
use quarc::workloads::{MessageRequest, TraceRecord, TraceWorkload};

fn sizes() -> impl Strategy<Value = usize> {
    prop_oneof![Just(8usize), Just(16), Just(32)]
}

/// Spidergon takes every even size; 6, 10 and 18 are ≡ 2 (mod 4).
fn spidergon_sizes() -> impl Strategy<Value = usize> {
    prop_oneof![Just(6usize), Just(8), Just(10), Just(16), Just(18), Just(32)]
}

fn drain(net: &mut impl NocSim, wl: &mut TraceWorkload, cap: u64) {
    for _ in 0..cap {
        net.step(wl);
        if net.quiesced() && wl.remaining() == 0 {
            return;
        }
    }
    panic!("network failed to drain");
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// A Quarc broadcast from any source in any legal network completes
    /// with exactly n−1 receptions.
    #[test]
    fn quarc_broadcast_complete(n in sizes(), src_raw in 0usize..64, len in 2usize..12) {
        let src = NodeId::new(src_raw % n);
        let mut net = QuarcNetwork::new(NocConfig::quarc(n));
        let mut wl = TraceWorkload::new(
            n,
            vec![TraceRecord { cycle: 0, request: MessageRequest::broadcast(src, len) }],
        );
        drain(&mut net, &mut wl, 20_000);
        prop_assert_eq!(net.metrics().completed(TrafficClass::Broadcast), 1);
        prop_assert_eq!(
            net.metrics().broadcast_reception_latency().count() as usize,
            n - 1
        );
        prop_assert_eq!(net.metrics().flits_delivered() as usize, len * (n - 1));
    }

    /// The Spidergon replication chain reaches everyone too — just slower.
    #[test]
    fn spidergon_broadcast_complete(n in spidergon_sizes(), src_raw in 0usize..64, len in 2usize..10) {
        let src = NodeId::new(src_raw % n);
        let mut net = SpidergonNetwork::new(NocConfig::spidergon(n));
        let mut wl = TraceWorkload::new(
            n,
            vec![TraceRecord { cycle: 0, request: MessageRequest::broadcast(src, len) }],
        );
        drain(&mut net, &mut wl, 100_000);
        prop_assert_eq!(net.metrics().completed(TrafficClass::Broadcast), 1);
        prop_assert_eq!(net.metrics().flits_delivered() as usize, len * (n - 1));
    }

    /// Quarc multicast hits exactly the requested target set.
    #[test]
    fn quarc_multicast_exact(
        n in sizes(),
        src_raw in 0usize..64,
        target_bits in 1u64..u64::MAX,
        len in 2usize..10,
    ) {
        let src = NodeId::new(src_raw % n);
        let targets: Vec<NodeId> = (0..n)
            .filter(|&i| target_bits & (1 << i) != 0 && i != src.index())
            .map(NodeId::new)
            .collect();
        prop_assume!(!targets.is_empty());
        let want = targets.len();
        let mut net = QuarcNetwork::new(NocConfig::quarc(n));
        let mut wl = TraceWorkload::new(
            n,
            vec![TraceRecord {
                cycle: 0,
                request: MessageRequest::multicast(src, targets, len),
            }],
        );
        drain(&mut net, &mut wl, 20_000);
        prop_assert_eq!(net.metrics().completed(TrafficClass::Multicast), 1);
        prop_assert_eq!(net.metrics().flits_delivered() as usize, len * want);
    }

    /// Simultaneous broadcasts from every node all complete in both
    /// architectures.
    #[test]
    fn all_sources_broadcast_storm(n in prop_oneof![Just(8usize), Just(16)]) {
        let records: Vec<TraceRecord> = (0..n)
            .map(|s| TraceRecord {
                cycle: 0,
                request: MessageRequest::broadcast(NodeId::new(s), 4),
            })
            .collect();

        let mut net = QuarcNetwork::new(NocConfig::quarc(n));
        let mut wl = TraceWorkload::new(n, records.clone());
        drain(&mut net, &mut wl, 50_000);
        prop_assert_eq!(net.metrics().completed(TrafficClass::Broadcast), n as u64);

        let mut net = SpidergonNetwork::new(NocConfig::spidergon(n));
        let mut wl = TraceWorkload::new(n, records);
        drain(&mut net, &mut wl, 500_000);
        prop_assert_eq!(net.metrics().completed(TrafficClass::Broadcast), n as u64);
    }
}
