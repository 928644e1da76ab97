//! Behavioural equivalence goldens for the simulation hot path.
//!
//! The zero-allocation refactor (packet-meta interning, scratch-buffer
//! workload polling, O(1) credits/quiescence) must be **bit-identical** to
//! the original per-flit-clone implementation. These tests pin that down:
//! fixed-seed Synthetic, Bursty and Trace workloads run on all four network
//! models, and the resulting metric tuples — flit counts, per-class
//! created/completed counts, and latency means rendered as exact `f64` bit
//! patterns — are compared byte-for-byte against goldens generated *before*
//! the refactor.
//!
//! Since the torus/mesh multicast tree landed, the mesh and torus scenarios
//! run with β > 0 and collective traces (goldens regenerated at that change,
//! with the quarc/spidergon lines verified byte-identical across it); the
//! torus additionally pins the `TopologyKind::Torus` config path.
//!
//! Every scenario runs with the full [`SimProbe`] instrumentation — phase
//! profiler, counter sampling and flit tracing — at full cadence. The
//! goldens were generated with probes *off*, so byte-identical output here
//! is the observe-never-mutate invariant: turning every probe on must not
//! change a single simulated bit.
//!
//! A third golden (`metrics_equivalence_faults.txt`) pins the fault and
//! recovery subsystems the same way: all four topologies × {lossy,
//! dead-link, transient, frozen} plans × recovery {off, on}, mixed
//! multicast traces under a dead + lossy plan (at n = 16, and at Quarc
//! n = 256 / a 33 × 33 mesh where bitstrings are slab rows), and the Quarc
//! link-stall API, each through the full driver protocol with the stall watchdog armed
//! — fault/recovery counters, latency bits and a digest of the per-cycle
//! counter series. It was generated from the four hand-copied simulators
//! and held byte-identical across their merge into one `Fabric`.
//!
//! Regenerate (only when an intentional behaviour change is made) with:
//!
//! ```text
//! UPDATE_GOLDENS=1 cargo test -p quarc-sim --test equivalence
//! ```

use quarc_core::config::{FaultPlan, NocConfig, RecoveryPolicy};
use quarc_core::flit::TrafficClass;
use quarc_core::ids::NodeId;
use quarc_core::topology::QuarcOut;
use quarc_engine::mix64;
use quarc_sim::mesh_net::MeshNetwork;
use quarc_sim::torus_net::TorusNetwork;
use quarc_sim::{
    build_any, run, run_mono_outcome_deadline, AnyNet, NocSim, ProbeConfig, QuarcNetwork,
    RunOutcome, RunSpec, SpidergonNetwork,
};
use quarc_workloads::{
    Bursty, BurstyConfig, MessageRequest, Synthetic, SyntheticConfig, TraceRecord, TraceWorkload,
    Workload,
};

const GOLDEN: &str = include_str!("goldens/metrics_equivalence.txt");
const GOLDEN_LARGE: &str = include_str!("goldens/metrics_equivalence_large.txt");
const GOLDEN_FAULTS: &str = include_str!("goldens/metrics_equivalence_faults.txt");

/// One scenario line: run `cycles` of injection, then drain up to `drain`
/// cycles, and render every metric the figures consume.
fn run_scenario(name: &str, net: &mut impl NocSim, wl: &mut dyn Workload, cycles: u64) -> String {
    // Observe, never mutate: all three probe channels on, goldens unchanged.
    net.probe_mut().configure(ProbeConfig::all(1 << 12));
    for _ in 0..cycles {
        net.step(wl);
    }
    let mut silence = TraceWorkload::new(net.num_nodes(), vec![]);
    for _ in 0..40_000u64 {
        if net.quiesced() {
            break;
        }
        net.step(&mut silence);
    }
    let m = net.metrics();
    let classes = [
        ("u", TrafficClass::Unicast),
        ("b", TrafficClass::Broadcast),
        ("m", TrafficClass::Multicast),
    ];
    let mut line = format!(
        "{name} quiesced={} now={} flits={} total_done={}",
        net.quiesced(),
        net.now(),
        m.flits_delivered(),
        m.completed_total()
    );
    for (tag, c) in classes {
        line.push_str(&format!(" {tag}={}:{}", m.created(c), m.completed(c)));
    }
    // Exact f64 bit patterns: any arithmetic drift, sample reordering or
    // missing sample changes these.
    line.push_str(&format!(
        " uc_mean={:016x} uc_n={} br_mean={:016x} bc_mean={:016x} bc_n={} mc_mean={:016x}",
        m.unicast_latency().mean().to_bits(),
        m.unicast_latency().count(),
        m.broadcast_reception_latency().mean().to_bits(),
        m.broadcast_completion_latency().mean().to_bits(),
        m.broadcast_completion_latency().count(),
        m.multicast_completion_latency().mean().to_bits(),
    ));
    line.push_str(&format!(
        " uc_p95={:?} uc_min={:?} uc_max={:?}",
        m.unicast_histogram().percentile(95.0),
        m.unicast_latency().min().map(f64::to_bits),
        m.unicast_latency().max().map(f64::to_bits),
    ));
    line.push('\n');
    line
}

/// A deterministic mixed-class trace exercising unicast, broadcast and (on
/// the ring topologies) multicast paths, with deliberate same-cycle bursts.
fn mixed_trace(n: usize, collectives: bool) -> Vec<TraceRecord> {
    let mut records = Vec::new();
    for i in 0..n {
        let src = NodeId::new(i);
        let dst = NodeId::new((i + n / 2 + 1) % n);
        records.push(TraceRecord {
            cycle: (i as u64 / 4) * 3,
            request: MessageRequest::unicast(src, dst, 2 + (i % 7)),
        });
    }
    if collectives {
        for i in 0..n / 4 {
            let src = NodeId::new((5 * i + 2) % n);
            records.push(TraceRecord {
                cycle: 10 + i as u64,
                request: MessageRequest::broadcast(src, 4),
            });
            let targets = vec![
                NodeId::new((i + 1) % n),
                NodeId::new((i + 3) % n),
                NodeId::new((i + n - 2) % n),
            ];
            let msrc = NodeId::new(i);
            let targets: Vec<NodeId> = targets.into_iter().filter(|t| *t != msrc).collect();
            records.push(TraceRecord {
                cycle: 20 + 2 * i as u64,
                request: MessageRequest::multicast(msrc, targets, 5),
            });
        }
    }
    let mut per_node: Vec<Vec<TraceRecord>> = (0..n).map(|_| Vec::new()).collect();
    for r in records {
        per_node[r.request.src.index()].push(r);
    }
    let mut sorted = Vec::new();
    for mut q in per_node {
        q.sort_by_key(|r| r.cycle);
        sorted.extend(q);
    }
    sorted
}

fn scenarios() -> String {
    let mut out = String::new();

    // Synthetic (the paper's Bernoulli workload) on every topology — β > 0
    // everywhere now that mesh/torus carry collectives.
    for (name, mk, beta) in [
        ("quarc/synthetic", 0u8, 0.1),
        ("spidergon/synthetic", 1, 0.1),
        ("mesh/synthetic", 2, 0.1),
        ("torus/synthetic", 3, 0.1),
    ] {
        let mut net = match mk {
            0 => AnyNet::Quarc(QuarcNetwork::new(NocConfig::quarc(16))),
            1 => AnyNet::Spidergon(SpidergonNetwork::new(NocConfig::spidergon(16))),
            2 => AnyNet::Grid(MeshNetwork::new(NocConfig::mesh(16))),
            _ => AnyNet::Grid(TorusNetwork::new(NocConfig::torus(16))),
        };
        let n = net.num_nodes();
        let mut wl = Synthetic::new(n, SyntheticConfig::paper(0.03, 8, beta, 0xA5A5));
        out.push_str(&run_scenario(name, &mut net, &mut wl, 3_000));
    }

    // Bursty on/off traffic (stresses same-cycle multi-message polling).
    for (name, mk, bfrac) in [
        ("quarc/bursty", 0u8, 0.08),
        ("spidergon/bursty", 1, 0.08),
        ("mesh/bursty", 2, 0.08),
        ("torus/bursty", 3, 0.08),
    ] {
        let mut net = match mk {
            0 => AnyNet::Quarc(QuarcNetwork::new(NocConfig::quarc(16))),
            1 => AnyNet::Spidergon(SpidergonNetwork::new(NocConfig::spidergon(16))),
            2 => AnyNet::Grid(MeshNetwork::new(NocConfig::mesh(16))),
            _ => AnyNet::Grid(TorusNetwork::new(NocConfig::torus(16))),
        };
        let n = net.num_nodes();
        let cfg = BurstyConfig {
            peak_rate: 0.25,
            mean_on: 30.0,
            mean_off: 90.0,
            broadcast_frac: bfrac,
            short_len: 2,
            long_len: 12,
            long_frac: 0.4,
            seed: 0xBEEF,
            ..Default::default()
        };
        let mut wl = Bursty::new(n, cfg);
        out.push_str(&run_scenario(name, &mut net, &mut wl, 3_000));
    }

    // Fixed traces (exact replay; multicast and broadcast on every model).
    for (name, mk) in
        [("quarc/trace", 0u8), ("spidergon/trace", 1), ("mesh/trace", 2), ("torus/trace", 3)]
    {
        let mut net = match mk {
            0 => AnyNet::Quarc(QuarcNetwork::new(NocConfig::quarc(16))),
            1 => AnyNet::Spidergon(SpidergonNetwork::new(NocConfig::spidergon(16))),
            2 => AnyNet::Grid(MeshNetwork::new(NocConfig::mesh(16))),
            _ => AnyNet::Grid(TorusNetwork::new(NocConfig::torus(16))),
        };
        let n = net.num_nodes();
        let mut wl = TraceWorkload::new(n, mixed_trace(n, true));
        out.push_str(&run_scenario(name, &mut net, &mut wl, 400));
    }

    // Larger Quarc near saturation: deep wormhole contention, VC arbitration
    // and credit stalls all active.
    {
        let mut net = QuarcNetwork::new(NocConfig::quarc(32).with_buffer_depth(2));
        let mut wl = Synthetic::new(32, SyntheticConfig::paper(0.09, 8, 0.05, 0x5EED));
        out.push_str(&run_scenario("quarc/near-sat", &mut net, &mut wl, 4_000));
    }

    // Every line above runs links of latency 1; at latency 2 and 5 a link
    // carries several flits at once. The paper's workload and the mixed trace
    // on every topology, appended so no earlier line moves.
    for latency in [2, 5] {
        for (topo, base) in [
            ("quarc", NocConfig::quarc(16)),
            ("spidergon", NocConfig::spidergon(16)),
            ("mesh", NocConfig::mesh(16)),
            ("torus", NocConfig::torus(16)),
        ] {
            let cfg = NocConfig { link_latency: latency, ..base };
            let mut net = build_any(cfg);
            let mut wl = Synthetic::new(16, SyntheticConfig::paper(0.02, 8, 0.1, 0x1A7));
            let name = format!("{topo}/latency{latency}/synthetic");
            out.push_str(&run_scenario(&name, &mut net, &mut wl, 2_000));
            let (mut net, name) = (build_any(cfg), format!("{topo}/latency{latency}/trace"));
            let mut wl = TraceWorkload::new(16, mixed_trace(16, true));
            out.push_str(&run_scenario(&name, &mut net, &mut wl, 400));
        }
    }

    out
}

/// Large-n scenarios (the active-set scaling axis), pinned in a *separate*
/// golden file so growing the covered size range never rewrites a byte of
/// the original scenarios — CI regenerates both files and asserts the
/// working tree is clean.
fn large_scenarios() -> String {
    let mut out = String::new();
    for (name, mk, n, rate, cycles) in [
        ("quarc/n256-trickle", 0u8, 256usize, 0.002, 2_500u64),
        ("spidergon/n256-trickle", 1, 256, 0.002, 2_000),
        ("mesh/n256-trickle", 2, 256, 0.002, 2_000),
        ("torus/n256-trickle", 3, 256, 0.002, 2_000),
        ("quarc/n1024-trickle", 0, 1024, 0.002, 1_200),
    ] {
        let mut net = match mk {
            0 => AnyNet::Quarc(QuarcNetwork::new(NocConfig::quarc(n))),
            1 => AnyNet::Spidergon(SpidergonNetwork::new(NocConfig::spidergon(n))),
            2 => AnyNet::Grid(MeshNetwork::new(NocConfig::mesh(n))),
            _ => AnyNet::Grid(TorusNetwork::new(NocConfig::torus(n))),
        };
        let nodes = net.num_nodes();
        let beta = if mk == 1 { 0.02 } else { 0.05 };
        let mut wl = Synthetic::new(nodes, SyntheticConfig::paper(rate, 8, beta, 0xA5A5));
        out.push_str(&run_scenario(name, &mut net, &mut wl, cycles));
    }
    out
}

/// The fault/recovery ledger of a finished (or stalled) driver run: every
/// counter PRs 7 and 10 added, latency means as exact bits, and a digest of
/// the full-cadence counter time-series — so per-cycle backlog, buffering,
/// worklist sizes and credit stalls are pinned, not just end totals.
fn fault_line(name: &str, net: &impl NocSim, outcome: &RunOutcome) -> String {
    let m = net.metrics();
    let how = match outcome {
        RunOutcome::Finished(_) => "finished".to_string(),
        RunOutcome::Stalled { cycle, diagnostics, .. } => format!("stalled@{cycle}[{diagnostics}]"),
        RunOutcome::DeadlineExceeded { .. } => unreachable!("no deadline set"),
    };
    let r = outcome.result();
    let mut line = format!(
        "{name} {how} now={} quiesced={} sat={} hops={} flits={} done={} in_flight={}",
        net.now(),
        net.quiesced(),
        r.saturated,
        net.flit_hops(),
        m.flits_delivered(),
        m.completed_total(),
        m.in_flight(),
    );
    for (tag, c) in [
        ("u", TrafficClass::Unicast),
        ("b", TrafficClass::Broadcast),
        ("m", TrafficClass::Multicast),
    ] {
        line.push_str(&format!(
            " {tag}={}:{}:{}",
            m.created(c),
            m.completed(c),
            m.undeliverable(c)
        ));
    }
    line.push_str(&format!(
        " dropped={} rx={}:{}:{} frac={:016x} retx={} recovered={} acks={} dups={} ack_mean={:016x}",
        m.flits_dropped(),
        m.receivers_expected(),
        m.receivers_delivered(),
        m.receivers_lost(),
        m.delivered_fraction().to_bits(),
        m.retransmissions(),
        m.recovered_receivers(),
        m.acks_delivered(),
        m.dup_flits_suppressed(),
        m.ack_latency().mean().to_bits(),
    ));
    line.push_str(&format!(
        " uc_mean={:016x} uc_n={} br_mean={:016x} bc_mean={:016x} mc_mean={:016x} \
         thr={:016x} good={:016x} backlog={}",
        m.unicast_latency().mean().to_bits(),
        m.unicast_latency().count(),
        m.broadcast_reception_latency().mean().to_bits(),
        m.broadcast_completion_latency().mean().to_bits(),
        m.multicast_completion_latency().mean().to_bits(),
        r.throughput.to_bits(),
        r.goodput.to_bits(),
        r.end_backlog,
    ));
    let mut digest = 0u64;
    for s in net.probe().samples() {
        for b in s.csv_row().bytes() {
            digest = mix64(digest ^ b as u64);
        }
    }
    line.push_str(&format!(" ctr={}:{digest:016x}\n", net.probe().samples().len()));
    line
}

/// Fault × recovery scenarios: every topology under a lossy, a dead-link
/// and a transient plan, each with recovery off and on, driven through the
/// full warmup/measure/drain protocol with the stall watchdog armed and all
/// probes at full cadence; plus frozen-router runs (the watchdog must fire
/// and its diagnostics are part of the line) and the Quarc link-stall API.
fn fault_scenarios() -> String {
    let mut out = String::new();
    let spec = RunSpec {
        warmup: 300,
        measure: 1_500,
        drain: 8_000,
        stall_window: 1_000,
        ..Default::default()
    };
    let plans = [
        (
            "lossy",
            FaultPlan {
                seed: 0xF1,
                onset: 200,
                lossy_links: 6,
                drop_per_64k: 4_000,
                ..FaultPlan::NONE
            },
        ),
        ("dead", FaultPlan { seed: 0xF2, onset: 350, dead_links: 2, ..FaultPlan::NONE }),
        (
            "transient",
            FaultPlan {
                seed: 0xF3,
                onset: 1_500,
                transient_links: 5,
                transient_cycles: 700,
                ..FaultPlan::NONE
            },
        ),
        ("frozen", FaultPlan { seed: 0xF4, onset: 600, frozen_routers: 1, ..FaultPlan::NONE }),
    ];
    let recoveries = [
        ("off", RecoveryPolicy::NONE),
        ("on", RecoveryPolicy { seed: 9, ack_timeout: 250, max_retries: 3, jitter: 16 }),
    ];
    let topologies = [
        ("quarc", NocConfig::quarc(16), 0.012),
        ("spidergon", NocConfig::spidergon(16), 0.004),
        ("mesh", NocConfig::mesh(16), 0.01),
        ("torus", NocConfig::torus(16).with_buffer_depth(2), 0.01),
    ];
    for (topo, base, rate) in topologies {
        for (plan_name, plan) in plans {
            for (rec_name, rec) in recoveries {
                if plan_name == "frozen" && rec_name == "on" {
                    continue;
                }
                let mut net = build_any(base.with_fault(plan).with_recovery(rec));
                net.probe_mut().configure(ProbeConfig::all(1 << 12));
                let n = net.num_nodes();
                let mut wl = Synthetic::new(n, SyntheticConfig::paper(rate, 6, 0.1, 0xFA17));
                let outcome = run_mono_outcome_deadline(&mut net, &mut wl, &spec, None);
                out.push_str(&fault_line(
                    &format!("{topo}/{plan_name}/{rec_name}"),
                    &net,
                    &outcome,
                ));
            }
        }
    }
    // Explicit multicast/broadcast traces under a mixed dead + lossy plan
    // live from cycle 0: exercises the per-model `receivers_beyond` replay
    // on bitstring packets and, with recovery on, multicast retransmission
    // to the unacked subset.
    let trace_plan = FaultPlan {
        seed: 0xF5,
        onset: 0,
        dead_links: 1,
        lossy_links: 5,
        drop_per_64k: 12_000,
        ..FaultPlan::NONE
    };
    let trace_spec = RunSpec { warmup: 0, measure: 400, ..spec };
    for (topo, base, _) in topologies {
        for (rec_name, rec) in recoveries {
            let mut net = build_any(base.with_fault(trace_plan).with_recovery(rec));
            net.probe_mut().configure(ProbeConfig::all(1 << 12));
            let n = net.num_nodes();
            let mut wl = TraceWorkload::new(n, mixed_trace(n, true));
            let outcome = run_mono_outcome_deadline(&mut net, &mut wl, &trace_spec, None);
            out.push_str(&fault_line(&format!("{topo}/trace-mixed/{rec_name}"), &net, &outcome));
        }
    }
    // Quarc's explicit link-stall API: lossless windows the credit flow
    // control must absorb, opening and closing with the clock.
    {
        let mut net = QuarcNetwork::new(NocConfig::quarc(16).with_buffer_depth(2));
        net.inject_link_stall(NodeId(0), QuarcOut::RimCw, 400, 900);
        net.inject_link_stall(NodeId(8), QuarcOut::RimCcw, 600, 2_200);
        net.inject_link_stall(NodeId(3), QuarcOut::CrossRight, 2, 500);
        NocSim::probe_mut(&mut net).configure(ProbeConfig::all(1 << 12));
        let mut wl = Synthetic::new(16, SyntheticConfig::paper(0.02, 8, 0.1, 31));
        let result = run(&mut net, &mut wl, &spec);
        out.push_str(&fault_line("quarc/link-stall", &net, &RunOutcome::Finished(result)));
    }
    // Slab-row bitstrings: Quarc n = 256 and a 33 × 33 mesh, where the
    // furthest target of a branch sits 64 hops out, so the bitstrings that
    // `receivers_beyond` replays after a drop are slab rows, not inline words.
    // Broadcasts and long-span multicasts under a dead + lossy plan live from
    // cycle 0, recovery off (every drop writes receivers off).
    let slab_plan = FaultPlan {
        seed: 0xF6,
        onset: 0,
        dead_links: 8,
        lossy_links: 96,
        drop_per_64k: 16_000,
        ..FaultPlan::NONE
    };
    let quarc_offsets = [1, 20, 40, 63, 64, 65, 90, 127, 128, 150, 190, 191, 192, 220, 255];
    let mesh_offsets = [1, 32, 33, 64, 500, 544, 1000, 1056, 1087, 1088];
    for (name, base, sources, offsets) in [
        (
            "quarc/n256-slab-rows/off",
            NocConfig::quarc(256),
            &[0usize, 77, 150, 201][..],
            &quarc_offsets[..],
        ),
        ("mesh/33x33-slab-rows/off", NocConfig::mesh(1089), &[0, 544, 1088], &mesh_offsets),
    ] {
        let mut net = build_any(base.with_fault(slab_plan));
        net.probe_mut().configure(ProbeConfig::all(1 << 12));
        let n = net.num_nodes();
        let mut records = Vec::new();
        for (i, &src) in sources.iter().enumerate() {
            let targets = offsets.iter().map(|&k| NodeId::new((src + k) % n)).collect();
            let src = NodeId::new(src);
            let cycle = 3 * i as u64;
            records.push(TraceRecord { cycle, request: MessageRequest::broadcast(src, 4) });
            records.push(TraceRecord {
                cycle: cycle + 1,
                request: MessageRequest::multicast(src, targets, 5),
            });
        }
        let mut wl = TraceWorkload::new(n, records);
        let outcome = run_mono_outcome_deadline(&mut net, &mut wl, &trace_spec, None);
        out.push_str(&fault_line(name, &net, &outcome));
    }
    // Links of latency 2 and 5 (every line above runs latency 1) under dead,
    // lossy and transient links at once, with recovery on.
    let mixed_plan = FaultPlan {
        seed: 0xF7,
        onset: 250,
        dead_links: 1,
        lossy_links: 4,
        drop_per_64k: 5_000,
        transient_links: 3,
        transient_cycles: 600,
        ..FaultPlan::NONE
    };
    for latency in [2, 5] {
        for (topo, base, rate) in topologies {
            let cfg = NocConfig { link_latency: latency, ..base };
            let mut net = build_any(cfg.with_fault(mixed_plan).with_recovery(recoveries[1].1));
            net.probe_mut().configure(ProbeConfig::all(1 << 12));
            let mut wl = Synthetic::new(16, SyntheticConfig::paper(rate, 6, 0.1, 0xFA17));
            let outcome = run_mono_outcome_deadline(&mut net, &mut wl, &spec, None);
            let name = format!("{topo}/latency{latency}/dead+lossy+transient/on");
            out.push_str(&fault_line(&name, &net, &outcome));
        }
    }
    out
}

#[test]
fn fault_recovery_metrics_are_bit_identical_to_goldens() {
    let got = fault_scenarios();
    if std::env::var_os("UPDATE_GOLDENS").is_some() {
        let path =
            concat!(env!("CARGO_MANIFEST_DIR"), "/tests/goldens/metrics_equivalence_faults.txt");
        std::fs::write(path, &got).expect("write goldens");
        eprintln!("fault goldens updated at {path}");
        return;
    }
    assert_eq!(
        got, GOLDEN_FAULTS,
        "fault/recovery simulation output diverged from its goldens; \
         if the change is intentional, regenerate with UPDATE_GOLDENS=1"
    );
}

#[test]
fn metrics_are_bit_identical_to_goldens() {
    let got = scenarios();
    if std::env::var_os("UPDATE_GOLDENS").is_some() {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/tests/goldens/metrics_equivalence.txt");
        std::fs::write(path, &got).expect("write goldens");
        eprintln!("goldens updated at {path}");
        return;
    }
    assert_eq!(
        got, GOLDEN,
        "simulation output diverged from the pre-refactor goldens; \
         if the change is intentional, regenerate with UPDATE_GOLDENS=1"
    );
}

#[test]
fn large_n_metrics_are_bit_identical_to_goldens() {
    let got = large_scenarios();
    if std::env::var_os("UPDATE_GOLDENS").is_some() {
        let path =
            concat!(env!("CARGO_MANIFEST_DIR"), "/tests/goldens/metrics_equivalence_large.txt");
        std::fs::write(path, &got).expect("write goldens");
        eprintln!("large-n goldens updated at {path}");
        return;
    }
    assert_eq!(
        got, GOLDEN_LARGE,
        "large-n simulation output diverged from its goldens; \
         if the change is intentional, regenerate with UPDATE_GOLDENS=1"
    );
}
