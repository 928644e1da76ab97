//! Fault injection, sim layer: the ledgers must balance and the protocol
//! must terminate under every fault class.
//!
//! Three properties hold these together:
//!
//! 1. **Drain terminates under permanent faults.** A multicast whose
//!    targets become unreachable behind a dead link cannot be delivered —
//!    the shortfall retires as `undeliverable` at header-drop time, so
//!    `quiesced()` still goes true instead of the drain spinning forever.
//! 2. **The probe ledger closes under faults.** Per message:
//!    `delivers + sum(Drop.arg lost receivers) == expected receivers`.
//! 3. **The watchdog never fires on a fault-free run** (proptest over all
//!    four topologies, including buffer depth 1): the stall detector is
//!    pure instrumentation, invisible to healthy traffic.

use proptest::prelude::*;
use quarc_core::config::{FaultPlan, NocConfig};
use quarc_core::ids::NodeId;
use quarc_engine::DetRng;
use quarc_sim::driver::{AnyNet, NocSim};
use quarc_sim::{
    run_point, FlitEventKind, MeshNetwork, PointSpec, ProbeConfig, QuarcNetwork, RunSpec,
    SpidergonNetwork, TorusNetwork,
};
use quarc_workloads::{MessageRequest, SyntheticConfig, TraceRecord, TraceWorkload};
use std::collections::HashMap;

/// A collective-heavy trace: broadcasts and multicasts are the traffic most
/// exposed to a dead link (many receivers per message).
fn collective_records(n: usize, count: usize, seed: u64) -> Vec<TraceRecord> {
    let mut rng = DetRng::new(seed);
    let mut records = Vec::with_capacity(count);
    let mut cycle = 0u64;
    for _ in 0..count {
        cycle += rng.below(20) as u64;
        let src = NodeId::new(rng.below(n));
        let len = 2 + rng.below(6);
        let request = match rng.below(3) {
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

/// Drive `net` over the trace, then drain under a hard cycle bound. Returns
/// whether the drain terminated — which, under permanent faults, it must.
fn run_and_drain(net: &mut impl NocSim, records: Vec<TraceRecord>) -> bool {
    let n = net.num_nodes();
    let horizon = records.last().map_or(0, |r| r.cycle) + 1;
    let mut wl = TraceWorkload::new(n, records);
    for _ in 0..horizon {
        net.step(&mut wl);
    }
    let mut silence = TraceWorkload::new(n, vec![]);
    for _ in 0..200_000u64 {
        if net.quiesced() {
            return true;
        }
        net.step(&mut silence);
    }
    net.quiesced()
}

#[test]
fn dead_links_retire_unreachable_receivers_and_drain_still_terminates() {
    // Two permanent link failures from cycle 0 on every topology. With a
    // collective-heavy trace some receivers sit behind the dead links, so
    // deliveries alone can never close the books — the regression this test
    // pins is `quiesced()` waiting forever on those receivers instead of
    // counting the shortfall as undeliverable.
    let fault = FaultPlan { seed: 11, onset: 0, dead_links: 2, ..FaultPlan::NONE };
    let nets: Vec<(&str, AnyNet)> = vec![
        ("quarc", AnyNet::Quarc(QuarcNetwork::new(NocConfig::quarc(16).with_fault(fault)))),
        (
            "spidergon",
            AnyNet::Spidergon(SpidergonNetwork::new(NocConfig::spidergon(16).with_fault(fault))),
        ),
        ("mesh", AnyNet::Grid(MeshNetwork::new(NocConfig::mesh(16).with_fault(fault)))),
        ("torus", AnyNet::Grid(TorusNetwork::new(NocConfig::torus(16).with_fault(fault)))),
    ];
    for (label, mut net) in nets {
        let records = collective_records(16, 40, 0xDEAD);
        assert!(run_and_drain(&mut net, records), "{label}: drain failed to terminate");
        let m = net.metrics();
        assert_eq!(m.in_flight(), 0, "{label}: in-flight after drain");
        // The fixed seed makes the traffic deterministic: with 40 collective
        // messages over 2 dead links, losses are guaranteed on every family.
        assert!(m.receivers_lost() > 0, "{label}: no packet ever crossed a dead link");
        assert!(m.undeliverable_total() > 0, "{label}: losses never retired a message");
        assert!(m.flits_dropped() > 0, "{label}");
        // Every expected receiver is accounted: delivered or written off.
        assert_eq!(
            m.receivers_delivered() + m.receivers_lost(),
            m.receivers_expected(),
            "{label}: receiver ledger must close at drain",
        );
        assert!(m.delivered_fraction() < 1.0, "{label}");
    }
}

#[test]
fn probe_ledger_closes_under_lossy_and_dead_links() {
    // Dead links *and* lossy links together, probes fully on: for every
    // message the Deliver events plus the lost-receiver counts carried on
    // Drop events must sum to the expected receiver count from its Inject.
    let fault = FaultPlan {
        seed: 5,
        onset: 0,
        dead_links: 1,
        lossy_links: 2,
        drop_per_64k: 4_000,
        ..FaultPlan::NONE
    };
    let mut net = QuarcNetwork::new(NocConfig::quarc(16).with_fault(fault));
    net.probe_mut().configure(ProbeConfig::all(1 << 17));
    let records = collective_records(16, 40, 0x10551);
    assert!(run_and_drain(&mut net, records), "drain failed to terminate");

    let probe = net.probe();
    assert_eq!(probe.events_dropped(), 0, "ring sized below the event volume");
    // message id -> (expected receivers, delivered, lost-to-faults).
    let mut ledger: HashMap<u64, (u64, u64, u64)> = HashMap::new();
    let mut drop_events = 0u64;
    for ev in probe.events() {
        match ev.kind {
            FlitEventKind::Inject => {
                ledger.entry(ev.message).or_insert((0, 0, 0)).0 = ev.arg as u64
            }
            FlitEventKind::Deliver => ledger.entry(ev.message).or_insert((0, 0, 0)).1 += 1,
            FlitEventKind::Drop => {
                drop_events += 1;
                ledger.entry(ev.message).or_insert((0, 0, 0)).2 += ev.arg as u64;
            }
            FlitEventKind::Hop
            | FlitEventKind::Clone
            | FlitEventKind::Ack
            | FlitEventKind::Retry
            | FlitEventKind::Expire => {}
        }
    }
    assert!(drop_events > 0, "the lossy plan never dropped a header");
    for (msg, (expected, delivered, lost)) in &ledger {
        assert_eq!(
            delivered + lost,
            *expected,
            "message {msg}: {delivered} delivered + {lost} lost != {expected} expected",
        );
    }
    // The probe stream and the metrics ledger agree on the totals.
    let m = net.metrics();
    let (delivered, lost): (u64, u64) =
        ledger.values().fold((0, 0), |(d, l), (_, dv, lv)| (d + dv, l + lv));
    assert_eq!(delivered, m.receivers_delivered());
    assert_eq!(lost, m.receivers_lost());
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(5))]

    /// The stall watchdog, armed at its default window, never fires on a
    /// fault-free run — any topology, any seed, sub-saturation load.
    #[test]
    fn watchdog_never_fires_without_faults(seed in any::<u64>(), rate_bp in 1u32..60) {
        let run = RunSpec { warmup: 100, measure: 1_000, drain: 4_000, ..RunSpec::default() };
        prop_assert!(run.stall_window > 0, "the default must arm the watchdog");
        let rate = rate_bp as f64 / 10_000.0;
        for noc in [
            NocConfig::quarc(16),
            NocConfig::spidergon(16),
            NocConfig::mesh(16),
            NocConfig::torus(16),
            // Minimal buffering: the deepest wormhole blocking we support,
            // where a watchdog false-positive would most plausibly hide.
            NocConfig::quarc(16).with_buffer_depth(1),
            NocConfig::torus(16).with_buffer_depth(1),
        ] {
            let point = PointSpec { noc, traffic: SyntheticConfig::paper(rate, 4, 0.05, seed) };
            let outcome = run_point(&point, &run, None).expect("valid config");
            prop_assert!(
                !outcome.is_stalled(),
                "watchdog fired on a fault-free {} run",
                noc.kind,
            );
        }
    }
}
