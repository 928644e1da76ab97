//! Active-set correctness: every network's worklist-scheduled hot path must
//! be **bit-identical** to a naive full scan.
//!
//! Each topology is stepped in lockstep with a full-scan twin (the
//! `set_full_scan(true)` oracle re-arbitrates every router, steps every link
//! and polls every source each cycle) over random workloads; the running
//! metric fingerprints must agree at every checkpoint, through drain, at
//! minimal buffer depth, and at large n. This pins the scheduling
//! invariants of `crates/sim/HOTPATH.md` — a node or link the active set
//! skips must be one the full scan would have found idle. Both twins run
//! the same word-level gather (occupancy masks, route memo), which the
//! oracle therefore cannot police: `Fabric::audit` recounts that state from
//! scratch on both sides every 16 cycles and after the drain. A router's
//! occupancy mask is laid out `port · vcs + vc`, then the queues, with the
//! topology's own VC count (`TopologyKind::vcs`): the cases below cover
//! every layout a network can have, the dateline pair on the Quarc,
//! Spidergon and torus and the single VC on the mesh.

use proptest::prelude::*;
use quarc_core::config::{FaultPlan, NocConfig, RecoveryPolicy};
use quarc_core::ids::NodeId;
use quarc_engine::DetRng;
use quarc_sim::driver::NocSim;
use quarc_sim::{Fabric, MeshNetwork, QuarcNetwork, RouterModel, SpidergonNetwork, TorusNetwork};
use quarc_workloads::{
    MessageRequest, Synthetic, SyntheticConfig, TraceRecord, TraceWorkload, Workload,
};

/// Everything the figures consume, as exact bits.
fn fingerprint(net: &impl NocSim) -> (u64, u64, u64, usize, u64, u64, u64, usize, bool) {
    let m = net.metrics();
    (
        net.now(),
        m.flits_delivered(),
        m.completed_total(),
        m.in_flight(),
        net.flit_hops(),
        m.unicast_latency().mean().to_bits(),
        m.broadcast_completion_latency().mean().to_bits(),
        net.source_backlog(),
        net.quiesced(),
    )
}

/// A simulator the lockstep can also audit.
trait Net: NocSim {
    fn audit(&self) -> Result<(), String>;
}

impl<R: RouterModel> Net for Fabric<R> {
    fn audit(&self) -> Result<(), String> {
        Fabric::audit(self)
    }
}

/// Both twins' incrementally kept state must equal its cold recount.
fn audit_both<N: Net>(active: &N, oracle: &N, label: &str) {
    for (side, net) in [("active", active), ("oracle", oracle)] {
        if let Err(broken) = net.audit() {
            panic!("{label}: {side} {broken}");
        }
    }
}

/// Step `active` (worklists) and `oracle` (full scan) in lockstep under
/// identically-seeded workloads, checking the fingerprints at every
/// checkpoint, then drain both and compare the final state.
fn lockstep<N: Net>(
    active: &mut N,
    oracle: &mut N,
    wl_a: &mut dyn Workload,
    wl_o: &mut dyn Workload,
    cycles: u64,
    label: &str,
) {
    for c in 0..cycles {
        active.step(wl_a);
        oracle.step(wl_o);
        if c % 16 == 0 {
            audit_both(active, oracle, label);
        }
        if c % 64 == 0 {
            assert_eq!(fingerprint(active), fingerprint(oracle), "{label}: diverged at cycle {c}");
        }
    }
    let n = active.num_nodes();
    let mut silence_a = TraceWorkload::new(n, vec![]);
    let mut silence_o = TraceWorkload::new(n, vec![]);
    for _ in 0..200_000u64 {
        if active.quiesced() && oracle.quiesced() {
            break;
        }
        active.step(&mut silence_a);
        oracle.step(&mut silence_o);
    }
    assert!(active.quiesced() && oracle.quiesced(), "{label}: failed to drain");
    assert_eq!(fingerprint(active), fingerprint(oracle), "{label}: diverged after drain");
    audit_both(active, oracle, label);
}

/// A random mixed-class trace (unicast/broadcast/multicast) for lockstep
/// runs — same shape as the conservation proptests.
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

/// Build the four (active, oracle) pairs behind one closure so each topology
/// test stays a one-liner. Both sides run with the full probe — profiler,
/// counter sampling, flit tracing — at full cadence: lockstep equality under
/// instrumentation is the observe-never-mutate invariant at its sharpest,
/// since the active set and the full scan take different code paths through
/// every probed phase.
macro_rules! lockstep_pair {
    ($ty:ident, $cfg:expr) => {{
        let cfg = $cfg;
        let mut active = $ty::new(cfg);
        let mut oracle = $ty::new(cfg);
        oracle.set_full_scan(true);
        NocSim::probe_mut(&mut active).configure(quarc_sim::ProbeConfig::all(1 << 10));
        NocSim::probe_mut(&mut oracle).configure(quarc_sim::ProbeConfig::all(1 << 10));
        (active, oracle)
    }};
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(8))]

    /// Quarc: Bernoulli traffic with collectives, through drain.
    #[test]
    fn quarc_active_set_matches_full_scan(
        seed in any::<u64>(),
        rate in prop_oneof![Just(0.01f64), Just(0.08)],
        depth in prop_oneof![Just(1usize), Just(4)],
    ) {
        let (mut a, mut o) = lockstep_pair!(QuarcNetwork, NocConfig::quarc(16).with_buffer_depth(depth));
        let cfg = SyntheticConfig::paper(rate, 6, 0.1, seed);
        let (mut wa, mut wo) = (Synthetic::new(16, cfg), Synthetic::new(16, cfg));
        lockstep(&mut a, &mut o, &mut wa, &mut wo, 1_200, "quarc/synthetic");
    }

    /// Spidergon: replication chains are an extra event source the worklists
    /// must track.
    #[test]
    fn spidergon_active_set_matches_full_scan(
        seed in any::<u64>(),
        depth in prop_oneof![Just(1usize), Just(4)],
    ) {
        let (mut a, mut o) =
            lockstep_pair!(SpidergonNetwork, NocConfig::spidergon(16).with_buffer_depth(depth));
        let cfg = SyntheticConfig::paper(0.01, 6, 0.05, seed);
        let (mut wa, mut wo) = (Synthetic::new(16, cfg), Synthetic::new(16, cfg));
        lockstep(&mut a, &mut o, &mut wa, &mut wo, 1_200, "spidergon/synthetic");
    }

    /// Mesh: multicast-tree traces at minimal buffering.
    #[test]
    fn mesh_active_set_matches_full_scan(
        seed in any::<u64>(),
        depth in prop_oneof![Just(1usize), Just(4)],
    ) {
        let (mut a, mut o) = lockstep_pair!(MeshNetwork, NocConfig::mesh(16).with_buffer_depth(depth));
        let records = random_records(16, 25, seed);
        let (mut wa, mut wo) =
            (TraceWorkload::new(16, records.clone()), TraceWorkload::new(16, records));
        lockstep(&mut a, &mut o, &mut wa, &mut wo, 800, "mesh/trace");
    }

    /// Torus: wrap rings + dateline VCs at buffer_depth 1, the tightest
    /// credit regime the dateline scheme supports.
    #[test]
    fn torus_active_set_matches_full_scan(
        seed in any::<u64>(),
    ) {
        let (mut a, mut o) = lockstep_pair!(TorusNetwork, NocConfig::torus(16).with_buffer_depth(1));
        let records = random_records(16, 25, seed);
        let (mut wa, mut wo) =
            (TraceWorkload::new(16, records.clone()), TraceWorkload::new(16, records));
        lockstep(&mut a, &mut o, &mut wa, &mut wo, 800, "torus/trace");
    }
}

/// Everything [`fingerprint`] covers plus the fault/recovery ledger.
fn fault_fingerprint(net: &impl NocSim) -> impl PartialEq + std::fmt::Debug {
    let m = net.metrics();
    (
        fingerprint(net),
        (m.flits_dropped(), m.receivers_lost(), m.undeliverable_total()),
        (m.retransmissions(), m.recovered_receivers(), m.acks_delivered()),
        (m.dup_flits_suppressed(), m.ack_latency().mean().to_bits(), net.recovery_pending()),
    )
}

/// Constructor closure for [`fault_lockstep`]: `(config, full_scan)` → net.
macro_rules! fault_pair {
    ($ty:ident) => {
        |cfg, full_scan| {
            let mut net = $ty::new(cfg);
            net.set_full_scan(full_scan);
            net
        }
    };
}

/// Injection cycles of a [`fault_lockstep`] run (the drain follows).
const CYCLES: u64 = 700;

type Plan = (&'static str, FaultPlan, RecoveryPolicy);

/// The three fault × recovery plans every topology is stepped under: lossy
/// links with recovery on (ACK loss, duplicates, retransmission to the
/// unacked subset); dead links with a one-retry budget (retry exhaustion
/// writes receivers off and the drain must still terminate); and a transient
/// window that opens during injection and closes during the drain, over
/// lossy links with recovery off (header-drop write-offs).
const PLANS: [Plan; 3] = [
    (
        "lossy+recovery",
        FaultPlan { onset: 50, lossy_links: 6, drop_per_64k: 9_000, ..FaultPlan::NONE },
        RecoveryPolicy { seed: 3, ack_timeout: 120, max_retries: 4, jitter: 8 },
    ),
    (
        "dead+exhaustion",
        FaultPlan { onset: 100, dead_links: 3, ..FaultPlan::NONE },
        RecoveryPolicy { seed: 4, ack_timeout: 90, max_retries: 1, jitter: 0 },
    ),
    (
        "transient-crossing-drain",
        FaultPlan {
            onset: CYCLES - 150,
            transient_links: 6,
            transient_cycles: 400,
            lossy_links: 3,
            drop_per_64k: 6_000,
            ..FaultPlan::NONE
        },
        RecoveryPolicy::NONE,
    ),
];

/// The healthy fabric and the plan that exercises the most state (drops,
/// ACKs, duplicates, retransmissions).
const HEALTHY_AND_LOSSY: [Plan; 2] = [("healthy", FaultPlan::NONE, RecoveryPolicy::NONE), PLANS[0]];

/// `FaultPlan × RecoveryPolicy` lockstep for one topology at buffer depth 1,
/// every plan under every seed: faults are exactly the time-driven
/// re-marking (watch lists, windows that open and close with the clock,
/// recovery deadlines firing into an idle fabric) the full-scan oracle
/// exists to police.
fn fault_lockstep<N: Net>(
    mk: impl Fn(NocConfig, bool) -> N,
    base: NocConfig,
    plans: &[Plan],
    seeds: &[u64],
    label: &str,
) {
    for &seed in seeds {
        for &plan in plans {
            fault_case(&mk, base.with_buffer_depth(1), plan, seed, label);
        }
    }
}

/// One [`fault_lockstep`] run: `base` (buffer depth and link latency
/// included) under `plan` reseeded with `seed`, over a random trace.
fn fault_case<N: Net>(
    mk: &impl Fn(NocConfig, bool) -> N,
    base: NocConfig,
    (plan_name, plan, recovery): Plan,
    seed: u64,
    label: &str,
) {
    let cfg = base.with_fault(FaultPlan { seed, ..plan }).with_recovery(recovery);
    let (mut active, mut oracle) = (mk(cfg, false), mk(cfg, true));
    active.probe_mut().configure(quarc_sim::ProbeConfig::all(1 << 10));
    oracle.probe_mut().configure(quarc_sim::ProbeConfig::all(1 << 10));
    let n = active.num_nodes();
    let records = random_records(n, 40, seed ^ 0x5EED);
    let (mut wa, mut wo) = (TraceWorkload::new(n, records.clone()), TraceWorkload::new(n, records));
    let tag = format!("{label}/{plan_name}/seed{seed}");
    lockstep(&mut active, &mut oracle, &mut wa, &mut wo, CYCLES, &tag);
    assert_eq!(fault_fingerprint(&active), fault_fingerprint(&oracle), "{tag}: ledger");
    if plan.dead_links > 0 {
        assert!(active.metrics().flits_dropped() > 0, "{tag}: plan never bit");
    }
}

const SEEDS: [u64; 3] = [11, 42, 0xD00D];

#[test]
fn quarc_fault_recovery_lockstep() {
    fault_lockstep(fault_pair!(QuarcNetwork), NocConfig::quarc(16), &PLANS, &SEEDS, "quarc");
}

#[test]
fn spidergon_fault_recovery_lockstep() {
    let base = NocConfig::spidergon(16);
    fault_lockstep(fault_pair!(SpidergonNetwork), base, &PLANS, &SEEDS, "spidergon");
}

#[test]
fn mesh_fault_recovery_lockstep() {
    fault_lockstep(fault_pair!(MeshNetwork), NocConfig::mesh(16), &PLANS, &SEEDS, "mesh");
}

#[test]
fn torus_fault_recovery_lockstep() {
    fault_lockstep(fault_pair!(TorusNetwork), NocConfig::torus(16), &PLANS, &SEEDS, "torus");
}

/// The router worklist is a bitmap walked word by word; every case above is
/// n = 16 (one word). Two words with 36 bits in the last (a 10 × 10 mesh)
/// and three with 4 (spidergon n = 132) pin the ragged-edge handling.
#[test]
fn ragged_multiword_worklist_lockstep() {
    let (plans, seeds) = (&HEALTHY_AND_LOSSY, &[7]);
    fault_lockstep(fault_pair!(MeshNetwork), NocConfig::mesh(100), plans, seeds, "mesh100");
    let base = NocConfig::spidergon(132);
    fault_lockstep(fault_pair!(SpidergonNetwork), base, plans, seeds, "spidergon132");
}

/// Every case above runs links of latency 1, where a link holds at most one
/// flit. Latencies 2 and 5 pipeline several flits per link (the live-link
/// worklist must keep a link until its last flit lands), at buffer depths 2
/// and 4, healthy and under dead + lossy + transient links with recovery on.
/// The rates stay below the recovering fabric's collapse knee, so every
/// drain terminates within the lockstep's cap.
#[test]
fn link_latency_lockstep() {
    const MIXED: Plan = (
        "dead+lossy+transient+recovery",
        FaultPlan {
            onset: 80,
            dead_links: 2,
            lossy_links: 4,
            drop_per_64k: 6_000,
            transient_links: 3,
            transient_cycles: 300,
            ..FaultPlan::NONE
        },
        RecoveryPolicy { seed: 5, ack_timeout: 200, max_retries: 3, jitter: 8 },
    );
    let plans = [HEALTHY_AND_LOSSY[0], MIXED];
    for latency in [2, 5] {
        for depth in [2, 4] {
            let at = |cfg: NocConfig| NocConfig {
                link_latency: latency,
                ..cfg.with_buffer_depth(depth)
            };
            let tag = |topo: &str| format!("{topo}/latency{latency}/depth{depth}");
            let (quarc, spidergon) = (at(NocConfig::quarc(16)), at(NocConfig::spidergon(16)));
            let (mesh, torus) = (at(NocConfig::mesh(16)), at(NocConfig::torus(16)));
            for plan in plans {
                fault_case(&fault_pair!(QuarcNetwork), quarc, plan, 29, &tag("quarc"));
                fault_case(&fault_pair!(SpidergonNetwork), spidergon, plan, 29, &tag("spidergon"));
                fault_case(&fault_pair!(MeshNetwork), mesh, plan, 29, &tag("mesh"));
                fault_case(&fault_pair!(TorusNetwork), torus, plan, 29, &tag("torus"));
            }
        }
    }
}

/// Random mixed-class traces on the Quarc at buffer_depth 1 (head-of-line
/// wormhole pressure everywhere), through drain.
#[test]
fn quarc_trace_lockstep_at_depth_one() {
    for seed in [3u64, 17, 99] {
        let (mut a, mut o) =
            lockstep_pair!(QuarcNetwork, NocConfig::quarc(16).with_buffer_depth(1));
        let records = random_records(16, 30, seed);
        let (mut wa, mut wo) =
            (TraceWorkload::new(16, records.clone()), TraceWorkload::new(16, records));
        lockstep(&mut a, &mut o, &mut wa, &mut wo, 900, "quarc/trace-depth1");
    }
}

/// Coherence has cross-node coupling (a read miss at A schedules a data
/// response at its home node), so it must decline the `next_due` skip and
/// still match the full scan exactly — including the memory-delay timing of
/// every response.
#[test]
fn coherence_workload_matches_full_scan() {
    use quarc_workloads::{Coherence, CoherenceConfig};
    for seed in [5u64, 21] {
        let (mut a, mut o) = lockstep_pair!(QuarcNetwork, NocConfig::quarc(16));
        let cfg =
            CoherenceConfig { request_rate: 0.05, memory_delay: 13, seed, ..Default::default() };
        let (mut wa, mut wo) = (Coherence::new(16, cfg), Coherence::new(16, cfg));
        lockstep(&mut a, &mut o, &mut wa, &mut wo, 1_500, "quarc/coherence");
    }
}

/// Running the driver protocol twice on the same network must consult the
/// second workload: the drain phase parks the poll schedule on silence, and
/// `run` has to reset it.
#[test]
fn reused_network_polls_the_next_runs_workload() {
    use quarc_sim::driver::{run, RunSpec};
    let mut net = QuarcNetwork::new(NocConfig::quarc(16));
    let spec = RunSpec { warmup: 100, measure: 1_000, drain: 2_000, ..Default::default() };
    let mut wl = Synthetic::new(16, SyntheticConfig::paper(0.01, 4, 0.0, 1));
    let first = run(&mut net, &mut wl, &spec);
    assert!(first.unicast_samples > 0, "{first:?}");
    let mut wl2 = Synthetic::new(16, SyntheticConfig::paper(0.01, 4, 0.0, 2));
    let second = run(&mut net, &mut wl2, &spec);
    assert!(second.unicast_samples > 0, "second run generated no traffic: {second:?}");
}

/// Large-n: the active set must stay bit-deterministic (run-to-run) and
/// bit-identical to the oracle at n = 256.
#[test]
fn n256_active_set_is_deterministic_and_matches_oracle() {
    let run = |full_scan: bool| {
        let mut net = QuarcNetwork::new(NocConfig::quarc(256));
        net.set_full_scan(full_scan);
        let mut wl = Synthetic::new(256, SyntheticConfig::paper(0.002, 8, 0.05, 0xCAFE));
        for _ in 0..1_500 {
            net.step(&mut wl);
        }
        fingerprint(&net)
    };
    let a = run(false);
    let b = run(false);
    assert_eq!(a, b, "n=256 run is not deterministic");
    let oracle = run(true);
    assert_eq!(a, oracle, "n=256 active set diverged from the full scan");
}
