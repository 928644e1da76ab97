//! Co-simulation: the signal-level switch model and the flit-level
//! behavioural simulator must agree on *what* is delivered (the set of
//! receptions and every flit count), even though their cycle timings differ
//! (the RTL model pays handshake stages; the behavioural model idealises
//! them). Both are additionally checked against an oracle read off the
//! requests themselves, so a disagreement pinpoints which layer broke.

use quarc_core::config::NocConfig;
use quarc_core::flit::TrafficClass;
use quarc_core::ids::NodeId;
use quarc_engine::DetRng;
use quarc_rtl::ring::RingRtl;
use quarc_rtl::xcvr::{broadcast_frames, multicast_frames, unicast_frames};
use quarc_sim::driver::NocSim;
use quarc_sim::QuarcNetwork;
use quarc_workloads::{MessageRequest, TraceRecord, TraceWorkload};
use std::collections::{BTreeMap, BTreeSet};

/// A randomly generated message plan.
#[derive(Debug, Clone)]
enum Msg {
    Unicast { src: NodeId, dst: NodeId, len: usize },
    Broadcast { src: NodeId, len: usize },
    Multicast { src: NodeId, targets: Vec<NodeId>, len: usize },
}

fn random_messages(n: usize, count: usize, seed: u64) -> Vec<Msg> {
    let mut rng = DetRng::new(seed);
    (0..count)
        .map(|_| {
            let src = NodeId::new(rng.below(n));
            let len = 2 + rng.below(7);
            match rng.below(4) {
                0 => Msg::Broadcast { src, len },
                1 => {
                    let k = 1 + rng.below(n - 1);
                    let mut targets = Vec::new();
                    for _ in 0..k {
                        let t = NodeId::new(rng.below_excluding(n, src.index()));
                        if !targets.contains(&t) {
                            targets.push(t);
                        }
                    }
                    Msg::Multicast { src, targets, len }
                }
                _ => {
                    let dst = NodeId::new(rng.below_excluding(n, src.index()));
                    Msg::Unicast { src, dst, len }
                }
            }
        })
        .collect()
}

/// Expected multiset of `(receiver, src, class)` receptions with flit
/// lengths, from the requests alone: a broadcast reaches every other node,
/// a multicast its distinct targets other than the source.
fn oracle(n: usize, msgs: &[Msg]) -> BTreeMap<(u32, u32, &'static str), Vec<usize>> {
    let mut out: BTreeMap<(u32, u32, &'static str), Vec<usize>> = BTreeMap::new();
    for m in msgs {
        match m {
            Msg::Unicast { src, dst, len } => {
                out.entry((dst.0, src.0, "unicast")).or_default().push(*len);
            }
            Msg::Broadcast { src, len } => {
                for d in (0..n as u32).filter(|&d| d != src.0) {
                    out.entry((d, src.0, "broadcast")).or_default().push(*len);
                }
            }
            Msg::Multicast { src, targets, len } => {
                let receivers: BTreeSet<u32> =
                    targets.iter().map(|t| t.0).filter(|&t| t != src.0).collect();
                for d in receivers {
                    out.entry((d, src.0, "multicast")).or_default().push(*len);
                }
            }
        }
    }
    for v in out.values_mut() {
        v.sort_unstable();
    }
    out
}

fn class_name(c: TrafficClass) -> &'static str {
    match c {
        TrafficClass::Unicast => "unicast",
        TrafficClass::Broadcast => "broadcast",
        TrafficClass::Multicast => "multicast",
        _ => "chain",
    }
}

/// Run the message set through the RTL ring and collect its receptions.
fn rtl_deliveries(n: usize, msgs: &[Msg]) -> BTreeMap<(u32, u32, &'static str), Vec<usize>> {
    let mut ring = RingRtl::new(n);
    for m in msgs {
        let frames = match m {
            Msg::Unicast { src, dst, len } => unicast_frames(ring.ring(), *src, *dst, *len),
            Msg::Broadcast { src, len } => broadcast_frames(ring.ring(), *src, *len),
            Msg::Multicast { src, targets, len } => {
                multicast_frames(ring.ring(), *src, targets, *len)
            }
        };
        let src = match m {
            Msg::Unicast { src, .. } | Msg::Broadcast { src, .. } | Msg::Multicast { src, .. } => {
                *src
            }
        };
        for (quad, words) in frames {
            assert!(ring.inject(src, quad, &words), "RTL local queue overflow");
        }
    }
    ring.run_until_idle(100_000);
    let mut out: BTreeMap<(u32, u32, &'static str), Vec<usize>> = BTreeMap::new();
    for f in ring.received_frames() {
        out.entry((f.node.0, f.src.0, class_name(f.class))).or_default().push(f.len);
    }
    for v in out.values_mut() {
        v.sort_unstable();
    }
    out
}

/// Run the same messages through the behavioural simulator; return the total
/// flit deliveries and completion counts it observed (its Metrics already
/// enforce the oracle internally via exactly-once assertions).
fn behavioural_flits(n: usize, msgs: &[Msg]) -> u64 {
    let records: Vec<TraceRecord> = msgs
        .iter()
        .map(|m| TraceRecord {
            cycle: 0,
            request: match m {
                Msg::Unicast { src, dst, len } => MessageRequest::unicast(*src, *dst, *len),
                Msg::Broadcast { src, len } => MessageRequest::broadcast(*src, *len),
                Msg::Multicast { src, targets, len } => {
                    MessageRequest::multicast(*src, targets.clone(), *len)
                }
            },
        })
        .collect();
    let mut net = QuarcNetwork::new(NocConfig::quarc(n));
    let mut wl = TraceWorkload::new(n, records);
    for _ in 0..200_000 {
        net.step(&mut wl);
        if net.quiesced() {
            break;
        }
    }
    assert!(net.quiesced(), "behavioural network failed to drain");
    net.metrics().flits_delivered()
}

#[test]
fn rtl_matches_oracle_and_behavioural_flit_totals() {
    for (n, count, seed) in [(8usize, 20, 1u64), (16, 40, 2), (16, 60, 3)] {
        let msgs = random_messages(n, count, seed);
        let want = oracle(n, &msgs);
        let got = rtl_deliveries(n, &msgs);
        assert_eq!(got, want, "n={n} seed={seed}: RTL delivery set diverges from oracle");

        let rtl_flits: usize = got.values().flatten().sum();
        let sim_flits = behavioural_flits(n, &msgs);
        assert_eq!(
            rtl_flits as u64, sim_flits,
            "n={n} seed={seed}: flit totals diverge between RTL and simulator"
        );
    }
}

#[test]
fn single_broadcast_same_receivers_both_models() {
    let n = 16;
    let msgs = vec![Msg::Broadcast { src: NodeId(5), len: 6 }];
    let want = oracle(n, &msgs);
    let got = rtl_deliveries(n, &msgs);
    assert_eq!(got, want);
    assert_eq!(behavioural_flits(n, &msgs), (6 * (n - 1)) as u64);
}
