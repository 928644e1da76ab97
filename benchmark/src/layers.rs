//! Stand-alone unit costs of each layer, measured in the traced run.
//!
//! The spans in `workloads.rs` say how long a pass spent inside each call;
//! the loops here price the primitives those calls are made of, on fixed
//! inputs, so a change to one primitive shows here before it is large
//! enough to show in a pass. Each loop reports the fastest of three
//! repetitions, for the reason `stats.rs` gives.

use crate::trace::Tracer;
use crate::workloads::{lossy_links, recovery, run_cell, Cell, Expect, Layers};
use quarc_campaign::artifact::{campaign_json, write_artifacts};
use quarc_campaign::{merge_series, CampaignReport, CampaignSpec, Converged, Json, ResultCache};
use quarc_core::bits::{BitSlab, Bits};
use quarc_core::config::{FaultPlan, NocConfig, RecoveryPolicy};
use quarc_core::flit::{PacketMeta, TrafficClass};
use quarc_core::ids::{MessageId, NodeId, PacketId};
use quarc_core::ring::{Ring, RingDir};
use quarc_core::routing::quarc_route;
use quarc_core::topology::QuarcIn;
use quarc_engine::{DetRng, LatencyHistogram};
use quarc_sim::{build_any, NocSim, ProbeConfig, RunSpec};
use quarc_workloads::{Synthetic, SyntheticConfig, Workload};
use std::hint::black_box;
use std::path::Path;
use std::time::Instant;

/// Fastest of three timings of `iters` calls of `body`, in ns per call.
fn ns_per_call(iters: u64, mut body: impl FnMut(u64)) -> f64 {
    (0..3)
        .map(|_| {
            let started = Instant::now();
            (0..iters).for_each(&mut body);
            started.elapsed().as_nanos() as f64 / iters as f64
        })
        .fold(f64::INFINITY, f64::min)
}

/// A fixed integer kernel — xorshift steps feeding dependent loads over
/// 1 MiB — whose time per step depends on the host alone. Dividing a
/// trajectory of host times by it compares them across machines.
pub fn host_calib_ns() -> f64 {
    const WORDS: usize = 1 << 17;
    let mut state = 0x9E37_79B9_7F4A_7C15u64;
    let mut step = move || {
        state ^= state << 13;
        state ^= state >> 7;
        state ^= state << 17;
        state
    };
    let table: Vec<u64> = (0..WORDS).map(|_| step()).collect();
    let mut at = 0usize;
    let ns = ns_per_call(1 << 20, |_| at = (table[at] ^ step()) as usize % WORDS);
    black_box(at);
    ns
}

/// Primitives of `engine`, `core` and `analytical`, on fixed inputs.
pub fn primitives(layers: &mut Layers) {
    let mut rng = DetRng::new(1);
    let mut sink = 0u64;
    let draw_pair = ns_per_call(1 << 20, |_| sink ^= rng.next_u64() ^ rng.geometric_gap(0.01));
    layers.insert("engine.rng_ns", draw_pair / 2.0);

    let mut hist = LatencyHistogram::new();
    layers.insert("engine.hist_record_ns", ns_per_call(1 << 22, |i| hist.record(i * 37 % 5_000)));
    let mut pooled = LatencyHistogram::new();
    layers.insert(
        "engine.hist_merge_us",
        ns_per_call(1 << 20, |_| black_box(&mut pooled).merge(black_box(&hist))) / 1e3,
    );
    black_box((sink, pooled.count()));

    let ring = Ring::new(64);
    let mut meta = PacketMeta {
        message: MessageId(0),
        packet: PacketId(0),
        class: TrafficClass::Unicast,
        src: NodeId(0),
        dst: NodeId(0),
        bitstring: Bits::inline(0),
        dir: RingDir::Cw,
        len: 8,
        created_at: 0,
    };
    let mut routed = 0usize;
    layers.insert(
        "core.quarc_route_ns",
        ns_per_call(1 << 22, |i| {
            meta.dst = NodeId((i % 61) as u32);
            let action = quarc_route(&ring, NodeId((i % 64) as u32), QuarcIn::RimCw, &meta);
            routed += usize::from(action.delivers());
        }),
    );
    black_box(routed);

    // One multicast row's life at the largest supported branch length: mark
    // a far receiver (which moves the bitstring into the slab), clone it at
    // a branch point, shift both a hop, release both.
    let mut slab = BitSlab::new(16_384);
    layers.insert(
        "core.bitslab_cycle_ns",
        ns_per_call(1 << 18, |i| {
            let mut bits = Bits::inline(0);
            slab.set_bit(&mut bits, 64 + (i as usize % 16_000));
            let mut copy = slab.clone_bits(bits);
            slab.shift(&mut bits);
            slab.shift(&mut copy);
            slab.release(copy);
            slab.release(bits);
        }),
    );

    let cfg = NocConfig::quarc(64).with_fault(lossy_links(1)).with_recovery(recovery(1));
    let mut valid = 0usize;
    layers.insert(
        "core.config_validate_ns",
        ns_per_call(1 << 20, |_| valid += usize::from(black_box(&cfg).validate().is_ok())),
    );
    black_box(valid);

    // What `RateAxis::AutoGeometric` pays per curve; O(n³), so it is priced
    // at the campaign workloads' own size class and never at large n.
    let mut bound = 0.0;
    layers.insert(
        "analytical.sat_bound_us",
        ns_per_call(8, |_| bound += quarc_analytical::quarc_saturation_rate(black_box(64), 16))
            / 1e3,
    );
    black_box(bound);
}

fn reference_cell(rate: f64, beta: f64, seed: u64) -> Cell {
    Cell {
        label: "reference".into(),
        noc: NocConfig::quarc(64),
        msg_len: 8,
        beta,
        rate,
        seed,
        run: RunSpec::default(),
        expect: Expect::Unsaturated,
    }
}

/// Fastest `sim.run` time of each variant of one cell, in seconds. The
/// variants take turns, five rounds, so a slow stretch of the host falls on
/// all of them and the ratios between them hold.
fn run_times<const N: usize>(variants: [(&Cell, ProbeConfig); N]) -> [f64; N] {
    let mut fastest = [f64::INFINITY; N];
    for _ in 0..5 {
        for (best, (cell, probe)) in fastest.iter_mut().zip(variants) {
            let run =
                run_cell(cell, probe, &mut Tracer::new(false)).expect("reference cell is valid");
            *best = best.min(run.run_time.as_secs_f64());
        }
    }
    fastest
}

/// The price of each optional subsystem when it is on, as a ratio to the
/// same Quarc n=64 cell with it off, and the analytical model's error on
/// the one cell it models (β = 0, below the knee).
pub fn subsystems(seed: u64, layers: &mut Layers) {
    let off = ProbeConfig::off();
    let knee = reference_cell(0.008, 0.05, seed);
    let [plain, profile, counters, trace] = run_times([
        (&knee, off),
        (&knee, ProbeConfig { profile_every: 1, ..off }),
        (&knee, ProbeConfig { counters_every: 1, ..off }),
        (&knee, ProbeConfig { trace_capacity: 1 << 16, ..off }),
    ]);
    layers.extend([
        ("probe.profile_on_ratio", profile / plain),
        ("probe.counters_on_ratio", counters / plain),
        ("probe.trace_on_ratio", trace / plain),
    ]);

    let sub = reference_cell(0.004, 0.05, seed);
    let with = |fault: FaultPlan, policy: RecoveryPolicy| Cell {
        noc: sub.noc.with_fault(fault).with_recovery(policy),
        ..sub.clone()
    };
    let (lossy, acked) = (lossy_links(seed), recovery(seed));
    let variants = [
        with(FaultPlan::NONE, RecoveryPolicy::NONE),
        with(lossy, RecoveryPolicy::NONE),
        with(FaultPlan::NONE, acked),
        with(lossy, acked),
    ];
    let [plain, fault, recover, both] = run_times(variants.each_ref().map(|cell| (cell, off)));
    layers.extend([
        ("sim.fault_on_ratio", fault / plain),
        ("sim.recovery_on_ratio", recover / plain),
        ("sim.fault_recovery_on_ratio", both / plain),
    ]);

    let unicast_only = reference_cell(0.004, 0.0, seed);
    let run =
        run_cell(&unicast_only, off, &mut Tracer::new(false)).expect("reference cell is valid");
    let simulated = run.outcome.result().unicast_mean;
    let model = quarc_analytical::quarc_unicast_latency(64, 8, 0.004).expect("below saturation");
    layers.insert("analytical.model_err_rel", (simulated - model).abs() / model);
}

/// The synthetic source driven on its own over `cell`'s node count and
/// rate: what one `next_due` query and one `poll_into` call cost when no
/// network sits between them.
pub fn source(cell: &Cell, layers: &mut Layers) {
    // Grid topologies round the node count up; ask the network.
    let nodes = build_any(cell.noc).num_nodes();
    let cfg = SyntheticConfig::paper(cell.rate, cell.msg_len, cell.beta, cell.seed);
    let cycles = (4_000_000 / nodes as u64).clamp(16, cell.run.warmup + cell.run.measure);
    let calls = cycles * nodes as u64;

    let load = Synthetic::new(nodes, cfg);
    let mut due = 0u64;
    let next_due = ns_per_call(calls, |i| {
        due ^= load.next_due(NodeId((i % nodes as u64) as u32), i / nodes as u64);
    });
    black_box(due);

    let mut out = Vec::new();
    let mut generated = 0usize;
    let started = Instant::now();
    let mut load = Synthetic::new(nodes, cfg);
    for cycle in 0..cycles {
        for node in 0..nodes {
            out.clear();
            load.poll_into(NodeId::new(node), cycle, &mut out);
            generated += out.len();
        }
    }
    let poll = started.elapsed().as_nanos() as f64 / calls as f64;
    layers.extend([
        ("workloads.next_due_ns", next_due),
        ("workloads.poll_ns", poll),
        ("workloads.msgs_generated", generated as f64),
    ]);
}

/// The campaign engine's steps taken one at a time over a finished
/// campaign: `report` is what `spec` produced and `cache` holds its series.
/// Writes only under `scratch`.
pub fn campaign_steps(
    spec: &CampaignSpec,
    report: &CampaignReport,
    cache: &Path,
    scratch: &Path,
    layers: &mut Layers,
    tracer: &mut Tracer,
) -> std::io::Result<()> {
    fn timed(tracer: &mut Tracer, name: &'static str, f: &mut dyn FnMut()) -> f64 {
        let started = Instant::now();
        tracer.span(name, |_| f());
        started.elapsed().as_secs_f64()
    }

    let mut expansion = None;
    let expand_s = timed(tracer, "campaign.expand", &mut || expansion = spec.expand().ok());
    let points = expansion.expect("the campaign ran, so its spec expands").points;
    layers.extend([
        ("campaign.expand_s", expand_s),
        ("campaign.expand_us_per_point", expand_s * 1e6 / points.len() as f64),
    ]);

    let mut keys = Vec::with_capacity(points.len());
    let key_s = timed(tracer, "campaign.key_hash", &mut || {
        keys = points.iter().map(|p| (p.merge_hash(spec), p.merge_key(spec))).collect();
        black_box(points.iter().map(|p| p.content_key(spec).len()).sum::<usize>());
    });
    layers.insert("campaign.key_hash_ns", key_s * 1e9 / points.len() as f64);

    let cache = ResultCache::open(cache)?;
    let mut series = Vec::with_capacity(keys.len());
    let load_s = timed(tracer, "campaign.cache_load", &mut || {
        series = keys.iter().filter_map(|(hash, key)| cache.load_series(*hash, key)).collect();
    });
    // A campaign that simulated nothing and cached nothing has no series to
    // price; the metrics stay at zero.
    if series.is_empty() {
        return Ok(());
    }
    layers.insert("campaign.cache_load_us", load_s * 1e6 / series.len() as f64);

    let merge_s = timed(tracer, "campaign.merge", &mut || {
        for reps in &series {
            black_box(merge_series(reps, reps.len() as u32, Converged::Yes));
        }
    });
    layers.insert("campaign.merge_us_per_point", merge_s * 1e6 / series.len() as f64);

    let copy = ResultCache::open(scratch.join("cache"))?;
    let mut stored = Ok(());
    let store_s = timed(tracer, "campaign.cache_store", &mut || {
        stored = keys
            .iter()
            .zip(&series)
            .try_for_each(|((hash, key), reps)| copy.store_series(*hash, key, reps));
    });
    stored?;
    layers.insert("campaign.cache_store_us", store_s * 1e6 / series.len() as f64);

    let mut text = String::new();
    let encode_s = timed(tracer, "campaign.json_encode", &mut || {
        text = campaign_json(spec, &report.results, &report.skipped).to_pretty();
    });
    layers.insert("campaign.json_encode_mb_s", text.len() as f64 / 1e6 / encode_s);

    let mut written = Ok(Vec::new());
    let write_s = timed(tracer, "campaign.artifacts", &mut || {
        written = write_artifacts(&scratch.join("out"), spec, &report.results, &report.skipped);
    });
    let written = written?;
    layers.insert("campaign.artifact_write_s", write_s);

    let mut documents = vec![std::fs::read_to_string(&written[0])?];
    let mut cache_bytes = 0;
    for entry in std::fs::read_dir(copy.dir())? {
        let document = std::fs::read_to_string(entry?.path())?;
        cache_bytes += document.len();
        documents.push(document);
    }
    layers.insert("campaign.cache_bytes", cache_bytes as f64);
    let decode_s = timed(tracer, "campaign.json_decode", &mut || {
        for document in &documents {
            black_box(Json::parse(document).is_ok());
        }
    });
    let decoded: usize = documents.iter().map(String::len).sum();
    layers.insert("campaign.json_decode_mb_s", decoded as f64 / 1e6 / decode_s);
    Ok(())
}
