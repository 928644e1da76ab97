//! End-to-end recovery layer: ack/timeout/retransmit over faulty fabrics.
//!
//! The properties pinned here:
//!
//! 1. **Lossy fabrics become reliable.** Under a drop-inducing fault plan
//!    with recovery enabled, every expected receiver is eventually served:
//!    `delivered_fraction == 1.0` with `retransmissions > 0` doing the work.
//! 2. **The probe ledger closes under recovery.** Per message:
//!    `delivers + sum(Expire.arg) == expected receivers` — fault drops no
//!    longer write receivers off (their `Drop.arg` is 0); the exhaust pump
//!    is the sole write-off site.
//! 3. **Transient-only schedules always recover** (proptest, satellite 3):
//!    transient faults block without dropping, so any such plan reaches
//!    full delivery with zero undeliverable messages, watchdog armed.
//! 4. **`RecoveryPolicy::NONE` changes nothing** — held separately by
//!    `tests/equivalence.rs` goldens.

use proptest::prelude::*;
use quarc_core::config::{FaultPlan, NocConfig, RecoveryPolicy};
use quarc_core::ids::NodeId;
use quarc_engine::DetRng;
use quarc_sim::driver::NocSim;
use quarc_sim::{
    build_any, run_mono_outcome_deadline, FlitEventKind, ProbeConfig, RunOutcome, RunSpec,
};
use quarc_workloads::{MessageRequest, TraceRecord, TraceWorkload};
use std::collections::HashMap;

/// A collective-heavy trace (broadcasts, multicasts, unicasts), the traffic
/// most exposed to drops: many receivers per message.
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

/// Drive the trace, then drain under a hard cycle bound (generous enough
/// for several exponential-backoff retry rounds). Returns whether the drain
/// terminated — with recovery every window must close (served or exhausted).
fn run_and_drain(net: &mut impl NocSim, records: Vec<TraceRecord>) -> bool {
    let n = net.num_nodes();
    let horizon = records.last().map_or(0, |r| r.cycle) + 1;
    let mut wl = TraceWorkload::new(n, records);
    for _ in 0..horizon {
        net.step(&mut wl);
    }
    let mut silence = TraceWorkload::new(n, vec![]);
    for _ in 0..400_000u64 {
        if net.quiesced() {
            return true;
        }
        net.step(&mut silence);
    }
    net.quiesced()
}

/// A drop-heavy but recoverable plan: lossy links lose packets outright,
/// so only retransmission can reach 1.0.
fn lossy_plan() -> FaultPlan {
    FaultPlan { seed: 5, onset: 0, lossy_links: 6, drop_per_64k: 4_000, ..FaultPlan::NONE }
}

/// A short-timeout recovery policy sized for 16-node tests.
fn policy() -> RecoveryPolicy {
    RecoveryPolicy { seed: 9, ack_timeout: 400, max_retries: 10, jitter: 32 }
}

fn recovery_configs() -> Vec<NocConfig> {
    vec![
        NocConfig::quarc(16).with_fault(lossy_plan()).with_recovery(policy()),
        NocConfig::spidergon(16).with_fault(lossy_plan()).with_recovery(policy()),
        NocConfig::mesh(16).with_fault(lossy_plan()).with_recovery(policy()),
        NocConfig::torus(16).with_fault(lossy_plan()).with_recovery(policy()),
    ]
}

#[test]
fn lossy_fabric_reaches_full_delivery_with_recovery() {
    for cfg in recovery_configs() {
        let label = cfg.kind;
        let mut net = build_any(cfg);
        let n = net.num_nodes();
        let records = collective_records(n, 40, 0x10551);
        assert!(run_and_drain(&mut net, records), "{label}: drain failed to terminate");
        let m = net.metrics();
        assert_eq!(m.in_flight(), 0, "{label}: in-flight after drain");
        assert!(m.flits_dropped() > 0, "{label}: the lossy plan never dropped anything");
        assert!(m.retransmissions() > 0, "{label}: recovery never retransmitted");
        assert!(m.recovered_receivers() > 0, "{label}: no receiver was served by a retry");
        assert!(m.acks_delivered() > 0, "{label}: no ACK ever came home");
        assert_eq!(m.receivers_lost(), 0, "{label}: a recoverable loss was written off");
        assert_eq!(m.undeliverable_total(), 0, "{label}");
        assert_eq!(
            m.delivered_fraction(),
            1.0,
            "{label}: recovery must reach every receiver on a lossy (not dead) fabric",
        );
    }
}

#[test]
fn probe_ledger_closes_under_recovery() {
    // Probes fully on: for every message the Deliver events plus the
    // written-off receivers carried on Expire events must sum to the
    // expected receiver count from its Inject. Fault drops carry arg 0
    // under recovery (the retransmit path owns the accounting).
    for cfg in recovery_configs() {
        let label = cfg.kind;
        let mut net = build_any(cfg);
        let n = net.num_nodes();
        net.probe_mut().configure(ProbeConfig::all(1 << 18));
        let records = collective_records(n, 40, 0x10551);
        assert!(run_and_drain(&mut net, records), "{label}: drain failed to terminate");

        let probe = net.probe();
        assert_eq!(probe.events_dropped(), 0, "{label}: ring sized below the event volume");
        // message id -> (expected, delivered, written-off, drop-arg sum).
        let mut ledger: HashMap<u64, (u64, u64, u64, u64)> = HashMap::new();
        let mut retries = 0u64;
        let mut acks = 0u64;
        for ev in probe.events() {
            let e = ledger.entry(ev.message).or_insert((0, 0, 0, 0));
            match ev.kind {
                FlitEventKind::Inject => e.0 = ev.arg as u64,
                FlitEventKind::Deliver => e.1 += 1,
                FlitEventKind::Expire => e.2 += ev.arg as u64,
                FlitEventKind::Drop => e.3 += ev.arg as u64,
                FlitEventKind::Retry => retries += 1,
                FlitEventKind::Ack => acks += 1,
                FlitEventKind::Hop | FlitEventKind::Clone => {}
            }
        }
        assert!(retries > 0, "{label}: no Retry event under a lossy plan");
        assert!(acks > 0, "{label}: no Ack event under recovery");
        for (msg, (expected, delivered, expired, drop_args)) in &ledger {
            assert_eq!(
                *drop_args, 0,
                "{label}: message {msg}: Drop events must not write receivers off under recovery",
            );
            assert_eq!(
                delivered + expired,
                *expected,
                "{label}: message {msg}: {delivered} delivered + {expired} expired \
                 != {expected} expected",
            );
        }
        let m = net.metrics();
        let delivered: u64 = ledger.values().map(|(_, d, _, _)| d).sum();
        assert_eq!(delivered, m.receivers_delivered(), "{label}");
    }
}

#[test]
fn recovery_off_lossy_run_still_loses_receivers() {
    // The contrast case: same plan, recovery disabled — the fabric stays
    // lossy and the old write-off accounting applies. Guards against the
    // recovery hooks accidentally engaging under `RecoveryPolicy::NONE`.
    let mut net = build_any(NocConfig::quarc(16).with_fault(lossy_plan()));
    let records = collective_records(16, 40, 0x10551);
    assert!(run_and_drain(&mut net, records), "drain failed to terminate");
    let m = net.metrics();
    assert!(m.receivers_lost() > 0);
    assert!(m.delivered_fraction() < 1.0);
    assert_eq!(m.retransmissions(), 0);
    assert_eq!(m.acks_delivered(), 0);
}

#[test]
fn unreachable_receivers_exhaust_retries_and_terminate() {
    // Dead links are permanent: retransmission cannot reach receivers with
    // no surviving route. The retry budget must exhaust, the remainder
    // retire as undeliverable, and the drain still terminate.
    let fault = FaultPlan { seed: 11, onset: 0, dead_links: 2, ..FaultPlan::NONE };
    // Tight budget so exhaustion happens well inside the drain bound.
    let rec = RecoveryPolicy { seed: 9, ack_timeout: 300, max_retries: 3, jitter: 16 };
    let mut net = build_any(NocConfig::quarc(16).with_fault(fault).with_recovery(rec));
    let records = collective_records(16, 40, 0xDEAD);
    assert!(run_and_drain(&mut net, records), "drain failed to terminate");
    let m = net.metrics();
    assert_eq!(m.in_flight(), 0);
    assert!(m.retransmissions() > 0, "dead-link losses must trigger retries first");
    assert!(m.receivers_lost() > 0, "unreachable receivers must eventually be written off");
    assert!(m.undeliverable_total() > 0);
    assert_eq!(m.receivers_delivered() + m.receivers_lost(), m.receivers_expected());
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(4))]

    /// Satellite 3: transient faults block but never drop, so *any*
    /// transient-only schedule is fully recoverable on every topology —
    /// delivery reaches 1.0, nothing is undeliverable, and the armed
    /// watchdog never fires (backoff waits are progress, not stalls).
    #[test]
    fn transient_only_schedules_always_recover(
        seed in any::<u64>(),
        links in 1u16..4,
        cycles in 200u32..2_000,
    ) {
        let run = RunSpec { warmup: 100, measure: 1_000, drain: 30_000, ..RunSpec::default() };
        prop_assert!(run.stall_window > 0, "the default must arm the watchdog");
        let fault = FaultPlan {
            seed,
            onset: 50,
            transient_links: links,
            transient_cycles: cycles,
            ..FaultPlan::NONE
        };
        for noc in [
            NocConfig::quarc(16),
            NocConfig::spidergon(16),
            NocConfig::mesh(16),
            NocConfig::torus(16),
        ] {
            let cfg = noc.with_fault(fault).with_recovery(policy());
            let mut net = build_any(cfg);
            let n = net.num_nodes();
            let mut wl = quarc_workloads::Synthetic::new(
                n,
                quarc_workloads::SyntheticConfig::paper(0.004, 4, 0.05, seed),
            );
            let outcome = run_mono_outcome_deadline(&mut net, &mut wl, &run, None);
            prop_assert!(
                !matches!(outcome, RunOutcome::Stalled { .. }),
                "watchdog fired on a transient-only {} run", cfg.kind,
            );
            let result = outcome.into_result();
            prop_assert_eq!(
                result.delivered_fraction, 1.0,
                "transient-only {} run failed to recover", cfg.kind,
            );
            prop_assert_eq!(result.undeliverable, 0, "{}", cfg.kind);
        }
    }
}
