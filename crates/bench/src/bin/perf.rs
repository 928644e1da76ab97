//! `perf` — the steady-state simulator-throughput harness.
//!
//! Every figure in the paper is produced by stepping the flit-level
//! simulators millions of cycles, so cycles/second of [`NocSim::step`] is the
//! system's dominant cost. This harness measures it the same way every time
//! so the number can be tracked across PRs:
//!
//! * a grid of (topology × network size × offered load) points,
//! * each point: build network + the paper's synthetic workload, warm up,
//!   then time a fixed number of simulated cycles with a wall clock,
//! * report **cycles/s** (simulator speed) and **Mflit-hops/s** (useful work:
//!   millions of link traversals per second, derived from
//!   [`NocSim::flit_hops`] deltas),
//! * write everything to `BENCH_sim.json` (deterministic field order; only
//!   the timings vary run to run).
//!
//! ```text
//! perf [--quick] [--repeat K] [--phases] [--out PATH] [--validate PATH]
//! perf --gate NEW BASELINE [--min-ratio R]
//! ```
//!
//! `--quick` runs a reduced grid with fewer cycles (CI smoke); `--repeat K`
//! (default 3) measures every grid cell `K` times and keeps the best — the
//! documented best-of-3 noise discipline for this class of container, built
//! into the harness instead of the operator; `--validate` parses an existing
//! artifact and checks its shape instead of running, exiting non-zero on
//! malformed output.
//!
//! `--phases` adds a per-cell phase breakdown: after the timed (probe-off)
//! passes, every cell gets one extra pass with the [`SimProbe`] phase
//! profiler at full cadence, and the arrivals/polls/gather/commit split is
//! printed and written into the point's `phases` object. The timed
//! `cycles_per_sec` rows are never measured with probes on.
//!
//! Every artifact carries a `meta` block — host CPU model, core count, git
//! commit, and whether probes were enabled during measurement — so a
//! baseline records the machine and instrumentation state it was written
//! under.
//!
//! The grid spans three load regimes — `trickle` (rate ≪ saturation, where
//! active-set scheduling keeps per-cycle cost proportional to live traffic),
//! `low` and `sat` — and two size classes: the classic 16/32/64 plus the
//! large-n scaling axis (256 and 1024, trickle only: their saturated runs
//! measure the workload's backlog arithmetic more than the network).
//!
//! `--gate` is the CI perf-regression check: compare a freshly measured
//! artifact (`NEW`, typically a `--quick` run) against a committed baseline
//! (`BASELINE`, typically the full-grid `BENCH_sim.json` tracked in the
//! repo), print the headline and per-point deltas (markdown, suitable for a
//! job summary), and exit non-zero if the headline throughput fell below
//! `min-ratio` × baseline. The default floor of 0.5× is deliberately
//! generous: CI machines are noisy and differ from the machine that wrote
//! the baseline, so the gate only catches real collapses while the printed
//! trajectory makes slow drift visible per push. The headline is matched by
//! its grid coordinates, so a quick run (headline `quarc_n16_sat`) gates
//! against the same (topology, n, rate) cell of a full baseline. Cells
//! present on only one side (a grid that grew or shrank between artifacts)
//! are *warnings*, never failures — adding rows must not break the gate.

use quarc_campaign::Json;
use quarc_core::config::NocConfig;
use quarc_core::topology::TopologyKind;
use quarc_sim::{build_any, NocSim, Phase, ProbeConfig};
use quarc_workloads::{Synthetic, SyntheticConfig};
use std::time::Instant;

/// One cell of the measurement grid.
struct GridPoint {
    topology: TopologyKind,
    n: usize,
    /// Offered load, messages/node/cycle (the paper's rate axis).
    rate: f64,
    /// Broadcast fraction β.
    beta: f64,
    /// Short label for the load regime ("low" / "sat").
    regime: &'static str,
}

/// Fixed workload shape for all points (paper defaults: M = 8 flits).
const MSG_LEN: usize = 8;
const SEED: u64 = 0xBE7C;

/// The four topology families, in grid order.
const TOPOLOGIES: [TopologyKind; 4] =
    [TopologyKind::Quarc, TopologyKind::Spidergon, TopologyKind::Mesh, TopologyKind::Torus];

/// The trickle regime: rate ≪ saturation, the regime most of a Fig. 9–11
/// campaign's grid points live in and where the active-set scheduling win is
/// largest.
const TRICKLE: (f64, &str) = (0.002, "trickle");

fn grid(quick: bool) -> Vec<GridPoint> {
    let mut points = Vec::new();
    let sizes: &[usize] = if quick { &[16] } else { &[16, 32, 64] };
    for &n in sizes {
        let regimes: &[(f64, &'static str)] = if quick {
            &[(0.02, "low"), (0.10, "sat")]
        } else {
            &[TRICKLE, (0.02, "low"), (0.10, "sat")]
        };
        for &(rate, regime) in regimes {
            // Every topology family carries the full traffic mix (mesh and
            // torus via the dimension-ordered multicast tree), so the perf
            // grid runs the same β = 5% workload on all four.
            for topology in TOPOLOGIES {
                points.push(GridPoint { topology, n, rate, beta: 0.05, regime });
            }
        }
    }
    // The large-n scaling axis: per-cycle cost must track live traffic, not
    // n, so trickle-load rows up to 16384 nodes (slab-backed multicast
    // bitstrings beyond 4096) are first-class tracked cells (quick runs
    // carry two as the CI smoke, one on each side of the inline/slab
    // boundary).
    if quick {
        let (rate, regime) = TRICKLE;
        points.push(GridPoint { topology: TopologyKind::Quarc, n: 256, rate, beta: 0.05, regime });
        points.push(GridPoint { topology: TopologyKind::Quarc, n: 4096, rate, beta: 0.05, regime });
    } else {
        for n in [256usize, 1024, 4096, 16384] {
            let (rate, regime) = TRICKLE;
            for topology in TOPOLOGIES {
                points.push(GridPoint { topology, n, rate, beta: 0.05, regime });
            }
        }
    }
    points
}

/// Measurement of one point.
struct Measured {
    warmup: u64,
    cycles: u64,
    wall_s: f64,
    cycles_per_sec: f64,
    mflit_hops_per_sec: f64,
    flit_hops: u64,
    flits_delivered: u64,
}

fn measure_once(p: &GridPoint, warmup: u64, cycles: u64) -> Measured {
    // The monomorphized road: enum dispatch on the network, static dispatch
    // into Synthetic — the same inner loop `run_point` (and therefore every
    // campaign) executes.
    let mut net = build_any(NocConfig { kind: p.topology, n: p.n, ..Default::default() });
    let n = net.num_nodes();
    let mut wl = Synthetic::new(n, SyntheticConfig::paper(p.rate, MSG_LEN, p.beta, SEED));
    for _ in 0..warmup {
        net.step_mono(&mut wl);
    }
    let hops0 = net.flit_hops();
    let delivered0 = net.metrics().flits_delivered();
    let t0 = Instant::now();
    for _ in 0..cycles {
        net.step_mono(&mut wl);
    }
    let wall_s = t0.elapsed().as_secs_f64().max(1e-9);
    let flit_hops = net.flit_hops() - hops0;
    Measured {
        warmup,
        cycles,
        wall_s,
        cycles_per_sec: cycles as f64 / wall_s,
        mflit_hops_per_sec: flit_hops as f64 / wall_s / 1e6,
        flit_hops,
        flits_delivered: net.metrics().flits_delivered() - delivered0,
    }
}

/// Measure `p` `repeat` times and keep the fastest run: wall-clock noise on
/// a shared container only ever makes a run *slower*, so best-of-K is the
/// least-biased estimator of the simulator's actual speed.
fn measure(p: &GridPoint, warmup: u64, cycles: u64, repeat: u32) -> Measured {
    let mut best = measure_once(p, warmup, cycles);
    for _ in 1..repeat.max(1) {
        let m = measure_once(p, warmup, cycles);
        if m.cycles_per_sec > best.cycles_per_sec {
            best = m;
        }
    }
    best
}

fn point_json(p: &GridPoint, m: &Measured, phases: Option<Json>) -> Json {
    let mut fields = vec![
        ("topology", Json::Str(p.topology.to_string())),
        ("n", Json::UInt(p.n as u64)),
        ("rate", Json::Num(p.rate)),
        ("beta", Json::Num(p.beta)),
        ("msg_len", Json::UInt(MSG_LEN as u64)),
        ("regime", Json::Str(p.regime.to_string())),
        ("warmup_cycles", Json::UInt(m.warmup)),
        ("measured_cycles", Json::UInt(m.cycles)),
        ("wall_s", Json::Num(m.wall_s)),
        ("cycles_per_sec", Json::Num(m.cycles_per_sec)),
        ("mflit_hops_per_sec", Json::Num(m.mflit_hops_per_sec)),
        ("flit_hops", Json::UInt(m.flit_hops)),
        ("flits_delivered", Json::UInt(m.flits_delivered)),
    ];
    if let Some(ph) = phases {
        fields.push(("phases", ph));
    }
    Json::obj(fields)
}

/// One extra pass over the cell with the phase profiler at full cadence.
/// Runs on a fresh network so the timed rows stay probe-free; returns the
/// per-phase breakdown as JSON and prints a one-line summary.
fn profile_point(p: &GridPoint, warmup: u64, cycles: u64) -> Json {
    let mut net = build_any(NocConfig { kind: p.topology, n: p.n, ..Default::default() });
    let n = net.num_nodes();
    let mut wl = Synthetic::new(n, SyntheticConfig::paper(p.rate, MSG_LEN, p.beta, SEED));
    for _ in 0..warmup {
        net.step_mono(&mut wl);
    }
    net.probe_mut().configure(ProbeConfig { profile_every: 1, ..ProbeConfig::off() });
    for _ in 0..cycles {
        net.step_mono(&mut wl);
    }
    let probe = net.probe();
    let profiled = probe.profiled_cycles().max(1) as f64;
    let total_ns: u64 = Phase::ALL.iter().map(|&ph| probe.phase_nanos(ph)).sum();
    let mut fields = Vec::with_capacity(Phase::ALL.len());
    let mut line = String::new();
    for ph in Phase::ALL {
        let ns = probe.phase_nanos(ph);
        let share = ns as f64 / total_ns.max(1) as f64;
        let items = probe.phase_items(ph) as f64 / profiled;
        line.push_str(&format!("{} {:.0}% ({items:.2} items/cyc)  ", ph.name(), share * 100.0));
        fields.push((
            ph.name(),
            Json::obj(vec![
                ("ns", Json::UInt(ns)),
                ("items", Json::UInt(probe.phase_items(ph))),
                ("ns_per_cycle", Json::Num(ns as f64 / profiled)),
                ("share", Json::Num(share)),
            ]),
        ));
    }
    println!("#   phases {},{},{:.3},{}: {}", p.topology, p.n, p.rate, p.regime, line.trim_end());
    Json::obj(fields)
}

/// The `meta` block: what machine and instrumentation state the artifact was
/// measured under. Best-effort on every field — a missing `/proc/cpuinfo` or
/// absent git binary degrades to `"unknown"`, never a failure.
fn host_meta(probes: &str) -> Json {
    let cpu_model = std::fs::read_to_string("/proc/cpuinfo")
        .ok()
        .and_then(|s| {
            s.lines()
                .find(|l| l.starts_with("model name"))
                .and_then(|l| l.split(':').nth(1).map(|v| v.trim().to_string()))
        })
        .unwrap_or_else(|| "unknown".into());
    let cores = std::thread::available_parallelism().map(|c| c.get() as u64).unwrap_or(0);
    let git_commit = std::process::Command::new("git")
        .args(["rev-parse", "--short=12", "HEAD"])
        .output()
        .ok()
        .filter(|o| o.status.success())
        .map(|o| String::from_utf8_lossy(&o.stdout).trim().to_string())
        .unwrap_or_else(|| "unknown".into());
    Json::obj(vec![
        ("cpu_model", Json::Str(cpu_model)),
        ("cores", Json::UInt(cores)),
        ("git_commit", Json::Str(git_commit)),
        ("probes", Json::Str(probes.into())),
    ])
}

/// Check the artifact shape the CI smoke job relies on. Returns a
/// description of the first problem found.
fn validate(text: &str) -> Result<usize, String> {
    let doc = Json::parse(text).map_err(|e| format!("not valid JSON: {e:?}"))?;
    if doc.get("bench").and_then(Json::as_str) != Some("sim_hotpath") {
        return Err("missing or wrong `bench` tag".into());
    }
    let points = doc
        .get("points")
        .and_then(Json::as_arr)
        .ok_or_else(|| "missing `points` array".to_string())?;
    if points.is_empty() {
        return Err("`points` is empty".into());
    }
    for (i, p) in points.iter().enumerate() {
        for key in ["topology", "n", "rate", "cycles_per_sec", "mflit_hops_per_sec"] {
            if p.get(key).is_none() {
                return Err(format!("point {i} lacks `{key}`"));
            }
        }
        let speed = p.get("cycles_per_sec").and_then(Json::as_f64).unwrap_or(-1.0);
        if !(speed.is_finite() && speed > 0.0) {
            return Err(format!("point {i} has non-positive cycles_per_sec"));
        }
    }
    if doc.get("headline").and_then(|h| h.get("mflit_hops_per_sec")).is_none() {
        return Err("missing `headline.mflit_hops_per_sec`".into());
    }
    Ok(points.len())
}

/// The grid coordinates that identify a measured point across artifacts —
/// including the workload mix (β, M), so cells measured under different
/// traffic are never compared as if they were the same experiment.
fn point_coords(p: &Json) -> Option<(String, u64, String, String, String, u64)> {
    Some((
        p.get("topology")?.as_str()?.to_string(),
        p.get("n")?.as_u64()?,
        // Rates and betas compare textually: both sides were written by the
        // same shortest-round-trip formatter.
        format!("{}", p.get("rate")?.as_f64()?),
        p.get("regime")?.as_str()?.to_string(),
        format!("{}", p.get("beta")?.as_f64()?),
        p.get("msg_len")?.as_u64()?,
    ))
}

/// Compare a fresh artifact against the committed baseline. Returns the
/// markdown report and whether the gate passed.
fn gate(new_text: &str, base_text: &str, min_ratio: f64) -> Result<(String, bool), String> {
    let new = Json::parse(new_text).map_err(|e| format!("NEW is not valid JSON: {e:?}"))?;
    let base = Json::parse(base_text).map_err(|e| format!("BASELINE is not valid JSON: {e:?}"))?;
    let new_points = new.get("points").and_then(Json::as_arr).ok_or("NEW lacks `points`")?;
    let base_points = base.get("points").and_then(Json::as_arr).ok_or("BASELINE lacks `points`")?;

    let headline = new.get("headline").ok_or("NEW lacks `headline`")?;
    let headline_name =
        headline.get("name").and_then(Json::as_str).ok_or("NEW headline lacks `name`")?;
    let headline_speed = headline
        .get("cycles_per_sec")
        .and_then(Json::as_f64)
        .ok_or("NEW headline lacks `cycles_per_sec`")?;
    // The headline's grid cell in NEW (quick and full grids pick different
    // headline sizes, so match by coordinates, not by name).
    let headline_coords = new_points
        .iter()
        .find(|p| {
            p.get("cycles_per_sec").and_then(Json::as_f64) == Some(headline_speed)
                && p.get("regime").and_then(Json::as_str) == Some("sat")
        })
        .and_then(point_coords)
        .ok_or("NEW headline does not match any of its own points")?;
    let baseline_speed = base_points
        .iter()
        .find(|p| point_coords(p).as_ref() == Some(&headline_coords))
        .and_then(|p| p.get("cycles_per_sec").and_then(Json::as_f64))
        .ok_or_else(|| format!("BASELINE has no point at the headline cell {headline_coords:?}"))?;

    let ratio = headline_speed / baseline_speed;
    let pass = ratio >= min_ratio;
    let mut report = String::new();
    report.push_str("### Simulator perf gate\n\n");
    report.push_str(&format!(
        "headline `{headline_name}`: **{headline_speed:.0} cycles/s** vs baseline {baseline_speed:.0} → **{ratio:.2}×** (floor {min_ratio}×): {}\n\n",
        if pass { "PASS" } else { "FAIL" },
    ));
    // When both artifacts record their instrumentation state, the headline
    // ratio doubles as the probes-disabled overhead bound: a NEW measured
    // with probes compiled but off against a pre-probe (or probe-off)
    // baseline shows exactly what the dormant instrumentation costs.
    let probe_state = |doc: &Json| {
        doc.get("meta")
            .and_then(|m| m.get("probes"))
            .and_then(Json::as_str)
            .unwrap_or("unrecorded")
            .to_string()
    };
    report.push_str(&format!(
        "probes: NEW measured with probes `{}`, BASELINE with `{}` — at these settings the \
         headline ratio above is the probes-disabled overhead bound.\n\n",
        probe_state(&new),
        probe_state(&base),
    ));
    report.push_str("| topology | n | rate | regime | new cycles/s | baseline | ratio |\n");
    report.push_str("|---|---|---|---|---|---|---|\n");
    // Grids are allowed to differ between artifacts (new sizes/regimes get
    // added, quick grids are subsets): one-sided cells are warned about
    // below, and only the headline ratio can fail the gate.
    let mut unmatched_new = Vec::new();
    for p in new_points {
        let Some(coords) = point_coords(p) else { continue };
        let Some(new_speed) = p.get("cycles_per_sec").and_then(Json::as_f64) else { continue };
        let base_speed = base_points
            .iter()
            .find(|b| point_coords(b).as_ref() == Some(&coords))
            .and_then(|b| b.get("cycles_per_sec").and_then(Json::as_f64));
        let (topo, n, rate, regime, ..) = &coords;
        match base_speed {
            Some(b) => report.push_str(&format!(
                "| {topo} | {n} | {rate} | {regime} | {new_speed:.0} | {b:.0} | {:.2}× |\n",
                new_speed / b
            )),
            None => {
                report.push_str(&format!(
                    "| {topo} | {n} | {rate} | {regime} | {new_speed:.0} | — | — |\n"
                ));
                unmatched_new.push(format!("{topo}/n{n}/r{rate}/{regime}"));
            }
        }
    }
    let unmatched_base: Vec<String> = base_points
        .iter()
        .filter_map(point_coords)
        .filter(|c| !new_points.iter().any(|p| point_coords(p).as_ref() == Some(c)))
        .map(|(topo, n, rate, regime, ..)| format!("{topo}/n{n}/r{rate}/{regime}"))
        .collect();
    if !unmatched_new.is_empty() {
        report.push_str(&format!(
            "\n⚠ {} NEW cell(s) have no baseline (new grid rows?): {}\n",
            unmatched_new.len(),
            unmatched_new.join(", ")
        ));
    }
    if !unmatched_base.is_empty() {
        report.push_str(&format!(
            "\n⚠ {} BASELINE cell(s) were not measured by NEW (quick grid / removed rows?): {}\n",
            unmatched_base.len(),
            unmatched_base.join(", ")
        ));
    }
    Ok((report, pass))
}

const USAGE: &str =
    "usage: perf [--quick] [--repeat K] [--phases] [--out PATH] [--validate PATH] | \
     perf --gate NEW BASELINE [--min-ratio R]";

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let mut quick = false;
    let mut repeat: u32 = 3;
    let mut phases = false;
    let mut out = String::from("BENCH_sim.json");
    let mut validate_path: Option<String> = None;
    let mut gate_paths: Option<(String, String)> = None;
    let mut min_ratio = 0.5;
    let mut it = args.iter();
    while let Some(a) = it.next() {
        match a.as_str() {
            "--quick" => quick = true,
            "--phases" => phases = true,
            "--repeat" => {
                repeat = it
                    .next()
                    .expect("--repeat needs a count")
                    .parse()
                    .expect("--repeat must be a positive integer");
                assert!(repeat >= 1, "--repeat must be at least 1");
            }
            "--out" => out = it.next().expect("--out needs a path").clone(),
            "--validate" => {
                validate_path = Some(it.next().expect("--validate needs a path").clone())
            }
            "--gate" => {
                let new = it.next().expect("--gate needs NEW and BASELINE paths").clone();
                let base = it.next().expect("--gate needs NEW and BASELINE paths").clone();
                gate_paths = Some((new, base));
            }
            "--min-ratio" => {
                min_ratio = it
                    .next()
                    .expect("--min-ratio needs a value")
                    .parse()
                    .expect("--min-ratio must be a number");
            }
            other => {
                eprintln!("unknown argument {other}\n{USAGE}");
                std::process::exit(2);
            }
        }
    }

    if let Some((new_path, base_path)) = gate_paths {
        let read = |path: &str| {
            std::fs::read_to_string(path).unwrap_or_else(|e| panic!("cannot read {path}: {e}"))
        };
        match gate(&read(&new_path), &read(&base_path), min_ratio) {
            Ok((report, pass)) => {
                println!("{report}");
                if !pass {
                    eprintln!(
                        "{new_path}: headline throughput fell below {min_ratio}x the committed baseline {base_path}"
                    );
                    std::process::exit(1);
                }
            }
            Err(why) => {
                eprintln!("perf gate: {why}");
                std::process::exit(1);
            }
        }
        return;
    }

    if let Some(path) = validate_path {
        let text =
            std::fs::read_to_string(&path).unwrap_or_else(|e| panic!("cannot read {path}: {e}"));
        match validate(&text) {
            Ok(n) => println!("# {path}: OK ({n} points)"),
            Err(why) => {
                eprintln!("{path}: MALFORMED: {why}");
                std::process::exit(1);
            }
        }
        return;
    }

    let (warmup, cycles) = if quick { (500, 4_000) } else { (1_000, 20_000) };
    let points = grid(quick);
    let mut rows = Vec::with_capacity(points.len());
    let mut headline: Option<Json> = None;
    println!("# perf: {} points, {} measured cycles each, best of {repeat}", points.len(), cycles);
    println!("topology,n,rate,regime,cycles_per_sec,mflit_hops_per_sec");
    for p in &points {
        let m = measure(p, warmup, cycles, repeat);
        println!(
            "{},{},{:.3},{},{:.0},{:.3}",
            p.topology, p.n, p.rate, p.regime, m.cycles_per_sec, m.mflit_hops_per_sec
        );
        // The headline number PRs are judged on: the largest Quarc network
        // near saturation (the dominant cost of the paper-grid campaign).
        let is_headline = p.topology == TopologyKind::Quarc
            && p.regime == "sat"
            && p.n == if quick { 16 } else { 64 };
        if is_headline {
            headline = Some(Json::obj(vec![
                ("name", Json::Str(format!("quarc_n{}_sat", p.n))),
                ("cycles_per_sec", Json::Num(m.cycles_per_sec)),
                ("mflit_hops_per_sec", Json::Num(m.mflit_hops_per_sec)),
            ]));
        }
        let phase_breakdown = phases.then(|| profile_point(p, warmup, cycles));
        rows.push(point_json(p, &m, phase_breakdown));
    }

    let doc = Json::obj(vec![
        ("bench", Json::Str("sim_hotpath".into())),
        ("unit", Json::Str("Mflit-hops/s".into())),
        ("msg_len", Json::UInt(MSG_LEN as u64)),
        ("seed", Json::UInt(SEED)),
        ("quick", Json::Bool(quick)),
        ("meta", host_meta(if phases { "profiled" } else { "disabled" })),
        ("points", Json::Arr(rows)),
        ("headline", headline.expect("grid always contains the headline point")),
    ]);
    std::fs::write(&out, doc.to_pretty()).unwrap_or_else(|e| panic!("cannot write {out}: {e}"));
    println!("# wrote {out}");
}
