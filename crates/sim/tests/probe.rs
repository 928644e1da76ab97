//! Probe-channel correctness: the flit-event stream must *conserve*.
//!
//! Every injected message produces exactly one `Inject` event carrying its
//! expected delivery count, and — once the network drains — exactly that
//! many `Deliver` events, on every topology, for every traffic class
//! (unicast, broadcast, multicast, and the Spidergon's replication chains,
//! whose continuations keep the original message id). Orphan delivers,
//! double injects, or a missing clone path would all break the ledger.
//!
//! The same runs pin the bookkeeping of the other two channels: with the
//! ring sized above the event volume nothing may be dropped, the profiler
//! must have timed every cycle, and the counter time-series must be in
//! cycle order with monotone cumulative columns.

use proptest::prelude::*;
use quarc_core::config::NocConfig;
use quarc_core::ids::NodeId;
use quarc_engine::DetRng;
use quarc_sim::driver::NocSim;
use quarc_sim::{
    FlitEventKind, MeshNetwork, ProbeConfig, QuarcNetwork, SpidergonNetwork, TorusNetwork,
};
use quarc_workloads::{MessageRequest, TraceRecord, TraceWorkload};
use std::collections::HashMap;

/// A random mixed-class trace (same shape as the active-set lockstep runs).
fn random_records(n: usize, count: usize, seed: u64) -> Vec<TraceRecord> {
    let mut rng = DetRng::new(seed);
    let mut records = Vec::with_capacity(count);
    let mut cycle = 0u64;
    for _ in 0..count {
        cycle += rng.below(25) as u64;
        let src = NodeId::new(rng.below(n));
        let len = 2 + rng.below(8);
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
    records
}

/// Run `net` over the trace with every probe channel on, drain it, and audit
/// the event ledger.
fn check_conservation(net: &mut impl NocSim, records: Vec<TraceRecord>, label: &str) {
    let n = net.num_nodes();
    net.probe_mut().configure(ProbeConfig::all(1 << 17));
    let horizon = records.last().map_or(0, |r| r.cycle) + 1;
    let mut wl = TraceWorkload::new(n, records);
    for _ in 0..horizon {
        net.step(&mut wl);
    }
    let mut silence = TraceWorkload::new(n, vec![]);
    for _ in 0..200_000u64 {
        if net.quiesced() {
            break;
        }
        net.step(&mut silence);
    }
    assert!(net.quiesced(), "{label}: failed to drain");

    let probe = net.probe();
    assert_eq!(probe.events_dropped(), 0, "{label}: ring sized below the event volume");

    // message id -> (inject count, expected delivers, observed delivers).
    let mut ledger: HashMap<u64, (u64, u64, u64)> = HashMap::new();
    for ev in probe.events() {
        match ev.kind {
            FlitEventKind::Inject => {
                let e = ledger.entry(ev.message).or_insert((0, 0, 0));
                e.0 += 1;
                e.1 = ev.arg as u64;
            }
            FlitEventKind::Deliver => ledger.entry(ev.message).or_insert((0, 0, 0)).2 += 1,
            FlitEventKind::Hop | FlitEventKind::Clone => {
                assert!(
                    ledger.contains_key(&ev.message),
                    "{label}: {} for message {} before its inject",
                    ev.kind.name(),
                    ev.message,
                );
            }
            FlitEventKind::Drop => {
                panic!("{label}: fault drop without a fault plan (message {})", ev.message)
            }
            FlitEventKind::Ack | FlitEventKind::Retry | FlitEventKind::Expire => {
                panic!("{label}: recovery event without a recovery policy (message {})", ev.message)
            }
        }
    }
    for (msg, (injects, expected, delivered)) in &ledger {
        assert_eq!(*injects, 1, "{label}: message {msg} injected {injects} times");
        assert_eq!(
            *delivered, *expected,
            "{label}: message {msg} expected {expected} delivers, saw {delivered}",
        );
    }

    // The metrics ledger must close the same way: everything created
    // completed, nothing left in flight after drain.
    let m = net.metrics();
    assert_eq!(m.in_flight(), 0, "{label}: in-flight after drain");
    assert_eq!(
        m.completed_total(),
        ledger.len() as u64,
        "{label}: created == completed + in_flight must hold at drain",
    );

    // Profiler and counter channels kept exact books too.
    assert_eq!(probe.profiled_cycles(), net.now(), "{label}: profiler missed cycles");
    assert_eq!(probe.samples_dropped(), 0, "{label}: counter rows dropped");
    let samples = probe.samples();
    assert!(!samples.is_empty(), "{label}: no counter samples at full cadence");
    for pair in samples.windows(2) {
        assert!(pair[0].cycle < pair[1].cycle, "{label}: samples out of cycle order");
        assert!(pair[0].delivered <= pair[1].delivered, "{label}: delivered ran backwards");
        assert!(pair[0].completed <= pair[1].completed, "{label}: completed ran backwards");
        assert!(
            pair[0].credit_stalls <= pair[1].credit_stalls,
            "{label}: credit stalls ran backwards",
        );
    }
    let last = samples.last().unwrap();
    assert_eq!(last.in_flight, 0, "{label}: final sample still shows in-flight packets");
    assert_eq!(last.completed, m.completed_total(), "{label}: final sample disagrees with metrics");
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(6))]

    /// Every topology conserves the flit-event stream over random
    /// mixed-class traces, through drain.
    #[test]
    fn flit_event_stream_conserves_on_every_topology(seed in any::<u64>()) {
        let records = random_records(16, 25, seed);
        let mut quarc = QuarcNetwork::new(NocConfig::quarc(16));
        check_conservation(&mut quarc, records.clone(), "quarc");
        let mut spider = SpidergonNetwork::new(NocConfig::spidergon(16));
        check_conservation(&mut spider, records.clone(), "spidergon");
        let mut mesh = MeshNetwork::new(NocConfig::mesh(16));
        check_conservation(&mut mesh, records.clone(), "mesh");
        let mut torus = TorusNetwork::new(NocConfig::torus(16));
        check_conservation(&mut torus, records, "torus");
    }

    /// Conservation survives minimal buffering (deep wormhole blocking means
    /// long-lived packets and many more hop/stall events per message).
    #[test]
    fn flit_event_stream_conserves_at_depth_one(seed in any::<u64>()) {
        let records = random_records(16, 20, seed);
        let mut quarc = QuarcNetwork::new(NocConfig::quarc(16).with_buffer_depth(1));
        check_conservation(&mut quarc, records.clone(), "quarc/depth1");
        let mut torus = TorusNetwork::new(NocConfig::torus(16).with_buffer_depth(1));
        check_conservation(&mut torus, records, "torus/depth1");
    }
}

/// A bounded ring on a saturated run drops the *oldest* events and says so:
/// the count is exact and what remains is still in cycle order.
#[test]
fn bounded_ring_drops_oldest_and_counts() {
    let mut net = QuarcNetwork::new(NocConfig::quarc(16));
    net.probe_mut().configure(ProbeConfig { trace_capacity: 256, ..ProbeConfig::off() });
    let records = random_records(16, 40, 0x51AB);
    let horizon = records.last().map_or(0, |r| r.cycle) + 1;
    let mut wl = TraceWorkload::new(16, records);
    for _ in 0..horizon + 2_000 {
        net.step(&mut wl);
    }
    let probe = net.probe();
    assert!(probe.events_dropped() > 0, "40 mixed messages must overflow a 256-slot ring");
    let cycles: Vec<u64> = probe.events().map(|e| e.cycle).collect();
    assert_eq!(cycles.len(), 256);
    assert!(cycles.windows(2).all(|p| p[0] <= p[1]), "ring replay must stay in cycle order");
}
