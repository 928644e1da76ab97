//! Property-based tests over the full behavioural simulator: for *any*
//! random mix of unicasts, broadcasts and multicasts on any legal network —
//! ring or grid — traffic is conserved (every message completes, exactly the
//! right number of flits reaches PEs) and the run is a pure function of its
//! seed.

use proptest::prelude::*;
use quarc_core::config::NocConfig;
use quarc_core::flit::TrafficClass;
use quarc_core::grid::GridTopology;
use quarc_core::ids::NodeId;
use quarc_core::routing::Routing;
use quarc_engine::DetRng;
use quarc_sim::driver::NocSim;
use quarc_sim::{MeshNetwork, QuarcNetwork, SpidergonNetwork, TorusNetwork};
use quarc_workloads::{MessageRequest, TraceRecord, TraceWorkload};
use std::collections::BTreeSet;

/// Deterministically generate a random message mix from a seed.
fn random_records(n: usize, count: usize, seed: u64) -> Vec<TraceRecord> {
    let mut rng = DetRng::new(seed);
    let mut records = Vec::with_capacity(count);
    let mut cycle = 0u64;
    for _ in 0..count {
        cycle += rng.below(30) as u64;
        let src = NodeId::new(rng.below(n));
        let len = 2 + rng.below(9);
        let request = match rng.below(5) {
            0 => MessageRequest::broadcast(src, len),
            1 => {
                let k = 1 + rng.below(n / 2);
                let mut targets = Vec::new();
                for _ in 0..k {
                    let t = NodeId::new(rng.below_excluding(n, src.index()));
                    if !targets.contains(&t) {
                        targets.push(t);
                    }
                }
                MessageRequest::multicast(src, targets, len)
            }
            _ => {
                MessageRequest::unicast(src, NodeId::new(rng.below_excluding(n, src.index())), len)
            }
        };
        records.push(TraceRecord { cycle, request });
    }
    // Group per-source records in cycle order (TraceWorkload requirement) —
    // they already are, since `cycle` is globally non-decreasing.
    records
}

/// Receivers a request names: every other node for a broadcast, the
/// distinct targets other than the source for a multicast, the destination
/// for a unicast. Conservation is judged against the request, never against
/// the planner under test.
fn receivers(n: usize, r: &TraceRecord) -> usize {
    let req = &r.request;
    match req.class {
        TrafficClass::Unicast => 1,
        TrafficClass::Broadcast => n - 1,
        TrafficClass::Multicast => {
            req.targets.iter().filter(|&&t| t != req.src).collect::<BTreeSet<_>>().len()
        }
        _ => unreachable!(),
    }
}

/// Expected flit deliveries for a record set (the conservation oracle).
fn expected_flits(n: usize, records: &[TraceRecord]) -> usize {
    records.iter().map(|r| receivers(n, r) * r.request.len).sum()
}

fn run_to_quiescence(net: &mut impl NocSim, records: Vec<TraceRecord>) -> (u64, u64) {
    let n = net.num_nodes();
    let mut wl = TraceWorkload::new(n, records);
    for _ in 0..300_000 {
        net.step(&mut wl);
        if net.quiesced() && wl.remaining() == 0 {
            break;
        }
    }
    assert!(net.quiesced(), "network failed to drain");
    (net.metrics().flits_delivered(), net.metrics().completed_total())
}

fn run_quarc(n: usize, records: Vec<TraceRecord>) -> (u64, u64) {
    let mut net = QuarcNetwork::new(NocConfig::quarc(n));
    let mut wl = TraceWorkload::new(n, records);
    for _ in 0..300_000 {
        net.step(&mut wl);
        if net.quiesced() && wl.remaining() == 0 {
            break;
        }
    }
    assert!(net.quiesced(), "quarc failed to drain");
    (net.metrics().flits_delivered(), net.metrics().completed_total())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(16))]

    /// Conservation on the Quarc: every flit of every message reaches
    /// exactly its receivers, for arbitrary traffic mixes.
    #[test]
    fn quarc_conserves_random_traffic(
        n in prop_oneof![Just(8usize), Just(16)],
        count in 5usize..40,
        seed in any::<u64>(),
    ) {
        let records = random_records(n, count, seed);
        let want_flits = expected_flits(n, &records) as u64;
        let want_msgs = records.len() as u64;
        let (flits, msgs) = run_quarc(n, records);
        prop_assert_eq!(flits, want_flits);
        prop_assert_eq!(msgs, want_msgs);
    }

    /// The same is true of the Spidergon (via its replication chains).
    #[test]
    fn spidergon_conserves_random_traffic(
        n in prop_oneof![Just(8usize), Just(16)],
        count in 5usize..25,
        seed in any::<u64>(),
    ) {
        let records = random_records(n, count, seed);
        // Spidergon multicast is per-target unicasts: same receiver count,
        // so the flit oracle is unchanged.
        let want_flits = expected_flits(n, &records) as u64;
        let mut net = SpidergonNetwork::new(NocConfig::spidergon(n));
        let mut wl = TraceWorkload::new(n, records);
        for _ in 0..500_000 {
            net.step(&mut wl);
            if net.quiesced() && wl.remaining() == 0 {
                break;
            }
        }
        prop_assert!(net.quiesced(), "spidergon failed to drain");
        prop_assert_eq!(net.metrics().flits_delivered(), want_flits);
    }

    /// Bit-exact determinism: the full simulator is a pure function of the
    /// record set.
    #[test]
    fn runs_are_reproducible(seed in any::<u64>()) {
        let records = random_records(16, 20, seed);
        let a = run_quarc(16, records.clone());
        let b = run_quarc(16, records);
        prop_assert_eq!(a, b);
    }

    /// Mesh conservation under the dimension-ordered multicast tree: every
    /// collective reaches exactly its receivers (sizes where the near-square
    /// rounding is exact, so node indices and coordinates agree).
    #[test]
    fn mesh_conserves_random_traffic(
        n in prop_oneof![Just(9usize), Just(16)],
        count in 5usize..30,
        seed in any::<u64>(),
    ) {
        let records = random_records(n, count, seed);
        let want_flits = expected_flits(GridTopology::square_mesh(n).num_nodes(), &records) as u64;
        let want_msgs = records.len() as u64;
        let mut net = MeshNetwork::new(NocConfig::mesh(n));
        let (flits, msgs) = run_to_quiescence(&mut net, records);
        prop_assert_eq!(flits, want_flits);
        prop_assert_eq!(msgs, want_msgs);
    }

    /// Torus conservation, plus the dateline property: random collective
    /// traffic on wrap rings with minimal buffering must drain (a VC-cycle
    /// deadlock would hang the run, not just miscount).
    #[test]
    fn torus_conserves_random_traffic_on_wrap_rings(
        n in prop_oneof![Just(9usize), Just(16)],
        count in 5usize..30,
        seed in any::<u64>(),
    ) {
        let records = random_records(n, count, seed);
        let want_flits = expected_flits(GridTopology::square_torus(n).num_nodes(), &records) as u64;
        let want_msgs = records.len() as u64;
        let mut net = TorusNetwork::new(NocConfig::torus(n).with_buffer_depth(1));
        let (flits, msgs) = run_to_quiescence(&mut net, records);
        prop_assert_eq!(flits, want_flits);
        prop_assert_eq!(msgs, want_msgs);
    }
}
