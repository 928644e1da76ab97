//! The repository's benchmark: five workloads over the public functions of
//! the simulator and campaign crates, six end-to-end metrics per workload,
//! and — in a separate traced run — the per-layer ledger. `README.md` has
//! the tables, the reasons behind every size and rate, and how to read the
//! output.
//!
//! ```text
//! quarc-benchmark run    [--workload NAME] [--seed S] [--seconds T] [--trace 0|1]
//! quarc-benchmark repeat [--seed S] [--seconds T]
//! ```
//!
//! With `--workload` the workload runs in this process and the last line of
//! standard output is the result as one JSON object. Without it every
//! workload runs in a child process of its own, so peak memory is per
//! workload. `repeat` runs the whole set twice and fails unless the two
//! agree within each metric's own bound.

mod contract;
mod layers;
mod stats;
mod trace;
mod workloads;

use contract::{Metric, END_TO_END, PER_LAYER};
use quarc_campaign::Json;
use quarc_sim::ProbeConfig;
use stats::Summary;
use std::collections::BTreeMap;
use std::path::{Path, PathBuf};
use std::process::{Command, ExitCode};
use std::time::Instant;
use trace::Tracer;
use workloads::{Inputs, Layers, Pass, Scale};

const DEFAULT_SEED: u64 = 2009;
/// `run_seconds` of `BENCHMARK.json`.
const DEFAULT_SECONDS: f64 = 10.0;
/// A run keeps measuring until `--seconds` have passed and it has at least
/// this many passes: the estimator needs a sample to take the fastest of.
/// At twice `--seconds` it stops with the passes it has (three at least), so
/// a slow stretch of the host cannot stretch a run without limit.
const MIN_PASSES: usize = 8;
/// Set-up is repeated at least this many times, and until this many seconds
/// have passed, so a short set-up gets the larger sample its jitter needs.
/// The median is reported.
const MIN_SETUPS: usize = 3;
const SETUP_SECONDS: f64 = 2.0;
/// Traced and untraced passes alternate this many times in a traced run.
const TRACED_PASSES: usize = 3;

const PACKAGE_DIR: &str = env!("CARGO_MANIFEST_DIR");

fn out_dir() -> PathBuf {
    Path::new(PACKAGE_DIR).join("out")
}

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Mode {
    Run,
    Repeat,
}

#[derive(Debug)]
struct Args {
    mode: Mode,
    workload: Option<String>,
    seed: u64,
    seconds: f64,
    trace: bool,
}

fn parse_args(args: &[String]) -> Result<Args, String> {
    let mut parsed = Args {
        mode: Mode::Run,
        workload: None,
        seed: DEFAULT_SEED,
        seconds: DEFAULT_SECONDS,
        trace: false,
    };
    let mut rest = args.iter().peekable();
    match rest.peek().map(|s| s.as_str()) {
        Some("run") => _ = rest.next(),
        Some("repeat") => {
            parsed.mode = Mode::Repeat;
            rest.next();
        }
        _ => {}
    }
    while let Some(flag) = rest.next() {
        let mut value = || rest.next().ok_or(format!("{flag} needs a value"));
        match flag.as_str() {
            "--workload" => {
                let name = value()?;
                if !workloads::NAMES.contains(&name.as_str()) {
                    return Err(format!("unknown workload {name}; one of {:?}", workloads::NAMES));
                }
                parsed.workload = Some(name.clone());
            }
            "--seed" => parsed.seed = value()?.parse().map_err(|e| format!("--seed: {e}"))?,
            "--seconds" => {
                parsed.seconds = value()?.parse().map_err(|e| format!("--seconds: {e}"))?;
                if !(parsed.seconds > 0.0 && parsed.seconds <= 60.0) {
                    return Err("--seconds must be in (0, 60]".into());
                }
            }
            "--trace" => {
                parsed.trace = match value()?.as_str() {
                    "0" => false,
                    "1" => true,
                    other => return Err(format!("--trace takes 0 or 1, not {other}")),
                }
            }
            other => return Err(format!("unknown argument {other}")),
        }
    }
    if parsed.mode == Mode::Repeat && (parsed.workload.is_some() || parsed.trace) {
        return Err("repeat runs every workload untraced; it takes --seed and --seconds".into());
    }
    Ok(parsed)
}

/// Refuse to measure a program other than the one the repository builds.
fn check_contract() -> Result<(), String> {
    if cfg!(debug_assertions) {
        return Err("built without --release; a debug build measures a different program".into());
    }
    let read = |relative: &str| {
        let path = Path::new(PACKAGE_DIR).join(relative);
        std::fs::read_to_string(&path).map_err(|e| format!("{}: {e}", path.display()))
    };
    contract::check_release_profiles(&read("../Cargo.toml")?, &read("Cargo.toml")?)?;
    contract::check_benchmark_json(&read("../BENCHMARK.json")?)
}

/// `VmHWM` of this process in MiB: the most memory it ever held.
fn peak_rss_mb() -> Result<f64, String> {
    let status = std::fs::read_to_string("/proc/self/status").map_err(|e| e.to_string())?;
    let kb = status
        .lines()
        .find_map(|line| line.strip_prefix("VmHWM:"))
        .and_then(|rest| rest.trim().strip_suffix("kB"))
        .and_then(|kb| kb.trim().parse::<f64>().ok())
        .ok_or("no VmHWM in /proc/self/status")?;
    Ok(kb / 1024.0)
}

/// One workload's result: what the last output line carries, plus the
/// named extras printed above it.
struct Outcome {
    attempted: u64,
    failed: u64,
    metrics: Vec<(&'static Metric, f64)>,
    digest: u64,
}

/// Failed operations and digest drift over a sequence of passes.
#[derive(Default)]
struct Ledger {
    attempted: u64,
    failed: u64,
}

impl Ledger {
    /// Count `pass`'s operations, and one more for the pass itself: it must
    /// reproduce the `reference` pass bit for bit.
    fn add(&mut self, pass: &Pass, reference: &Pass) {
        for note in &pass.ops.notes {
            println!("# failed: {note}");
        }
        self.attempted += pass.ops.attempted + 1;
        self.failed += pass.ops.failed;
        if pass.digest != reference.digest {
            self.failed += 1;
            println!("# failed: pass digest {:016x} != {:016x}", pass.digest, reference.digest);
        }
    }
}

fn set_up(workload: &str, seed: u64, work: &Path) -> Result<(Inputs, Pass), String> {
    let inputs = workloads::prepare(workload, seed, Scale::Full, work)?;
    let warm_up = workloads::pass(&inputs, ProbeConfig::off(), &mut Tracer::new(false));
    Ok((inputs, warm_up))
}

/// The untraced run: every end-to-end metric of one workload.
fn measure(workload: &str, seed: u64, seconds: f64, work: &Path) -> Result<Outcome, String> {
    let mut setups = Vec::new();
    let (inputs, warm_up) = loop {
        let started = Instant::now();
        let ready = set_up(workload, seed, work)?;
        setups.push(started.elapsed().as_secs_f64());
        if setups.len() >= MIN_SETUPS && setups.iter().sum::<f64>() >= SETUP_SECONDS {
            break ready;
        }
    };

    let mut ledger = Ledger::default();
    let mut walls = Vec::new();
    let mut op_walls = vec![Vec::new(); warm_up.op_walls.len()];
    let mut tracer = Tracer::new(false);
    let started = Instant::now();
    let unfinished = |passes: usize, elapsed: f64| {
        passes < 3 || elapsed < seconds || (passes < MIN_PASSES && elapsed < 2.0 * seconds)
    };
    while unfinished(walls.len(), started.elapsed().as_secs_f64()) {
        let pass = workloads::pass(&inputs, ProbeConfig::off(), &mut tracer);
        ledger.add(&pass, &warm_up);
        walls.push(pass.wall());
        for (samples, op) in op_walls.iter_mut().zip(&pass.op_walls) {
            samples.push(*op);
        }
    }

    // The floor of a pass is the sum of its operations' floors: a burst of
    // host noise that spoils one cell of a pass leaves the others usable.
    let wall_s: f64 = op_walls.iter().map(|samples| Summary::of(samples).best3).sum();
    let wall = Summary::of(&walls);
    let tail = wall.tail.map_or(String::new(), |(p, v)| format!(" p{p:.0} {v:.4}"));
    println!(
        "# {workload} pass times over {} passes: best3 {:.4} median {:.4} q1 {:.4} q3 {:.4} min {:.4} max {:.4}{tail}",
        wall.k, wall.best3, wall.median, wall.q1, wall.q3, wall.min, wall.max
    );
    let each: Vec<String> = walls.iter().map(|w| format!("{w:.4}")).collect();
    println!("# {workload} pass times in order: {}", each.join(" "));
    println!("{workload} host.wall_median_s {} s", wall.median);
    println!("{workload} host.wall_iqr_s {} s", wall.iqr());
    println!("{workload} host.passes {} count", wall.k);
    println!("{workload} fail_frac {} ratio", ledger.failed as f64 / ledger.attempted as f64);

    let values = [
        Summary::of(&setups).median,
        wall_s,
        warm_up.work as f64 / wall_s,
        peak_rss_mb()?,
        warm_up.sim_latency_cycles,
        warm_up.sim_delivered_frac,
    ];
    Ok(Outcome {
        attempted: ledger.attempted,
        failed: ledger.failed,
        metrics: END_TO_END.iter().zip(values).collect(),
        digest: warm_up.digest,
    })
}

/// The traced run: every per-layer metric of one workload. Traced and
/// untraced passes alternate so their difference is the tracing overhead;
/// one further pass runs with the simulator's own probe on for the phase
/// split; then each layer's primitives are priced on their own.
fn trace_run(workload: &str, seed: u64, work: &Path) -> Result<Outcome, String> {
    let mut layers: Layers = PER_LAYER.iter().map(|m| (m.name, 0.0)).collect();
    let calib_start = layers::host_calib_ns();
    let (inputs, warm_up) = set_up(workload, seed, work)?;

    let mut ledger = Ledger::default();
    let mut tracer = Tracer::new(false);
    let (mut traced, mut plain) = (Vec::new(), Vec::new());
    let mut last = None;
    for k in 0..TRACED_PASSES {
        tracer.set_on(true);
        tracer.begin_pass(k as u32 + 1);
        let pass = workloads::pass(&inputs, ProbeConfig::off(), &mut tracer);
        tracer.set_on(false);
        ledger.add(&pass, &warm_up);
        traced.push(pass.wall());
        last = Some(pass);
        let pass = workloads::pass(&inputs, ProbeConfig::off(), &mut tracer);
        ledger.add(&pass, &warm_up);
        plain.push(pass.wall());
    }
    let last = last.expect("TRACED_PASSES > 0");
    layers.extend(last.layers.iter());

    let per_pass = |name: &str| tracer.total_s(name) / TRACED_PASSES as f64;
    let run_s = per_pass("sim.run");
    let own = tracer.self_times_ns();
    let (pass_self, pass_total) = tracer
        .spans()
        .iter()
        .zip(&own)
        .filter(|(span, _)| span.name == "pass")
        .fold((0, 0), |(own, total), (span, own_ns)| (own + own_ns, total + span.duration_ns()));
    let untraced = Summary::of(&plain);
    layers.extend([
        ("sim.build_s", per_pass("sim.build")),
        ("sim.run_s", run_s),
        ("sim.extract_s", per_pass("sim.extract")),
        ("sim.ns_per_flit_hop", run_s * 1e9 / layers["sim.flit_hops"].max(1.0)),
        ("sim.ns_per_cycle", run_s * 1e9 / layers["sim.cycles"].max(1.0)),
        ("host.wall_median_s", untraced.median),
        ("host.wall_iqr_s", untraced.iqr()),
        ("host.passes", untraced.k as f64),
        ("trace.overhead_frac", Summary::of(&traced).min / untraced.min - 1.0),
        ("trace.unattributed_frac", pass_self as f64 / pass_total as f64),
    ]);

    // The phase split and active-set sizes come from the simulator's own
    // probe, on one more pass over the workload's cells; a campaign has no
    // cells of its own, so one representative point of its grid stands in.
    let (cells, campaign) = match &inputs {
        Inputs::Cells(cells) => (cells.clone(), None),
        Inputs::Campaign(job) => (vec![workloads::representative_cell(&job.spec)?], Some(job)),
    };
    let probe = ProbeConfig { profile_every: 1, counters_every: 16, trace_capacity: 0 };
    let probed = workloads::pass(&Inputs::Cells(cells.clone()), probe, &mut tracer);
    for cell in &probed.activity {
        println!(
            "# {workload} cell {} nodes {} active_routers_per_cycle {:.2}",
            cell.label, cell.nodes, cell.routers_per_cycle
        );
    }
    let from_probe = ["sim.phase.", "sim.active.", "sim.credit_stalls"];
    layers.extend(
        probed.layers.iter().filter(|(name, _)| from_probe.iter().any(|p| name.starts_with(p))),
    );
    layers::source(&cells[0], &mut layers);
    layers::subsystems(seed, &mut layers);
    layers::primitives(&mut layers);

    // The campaign engine's steps one at a time: over the workload's own
    // campaign, or — for a simulator workload — over a small one run here.
    tracer.set_on(true);
    tracer.begin_pass(0);
    let scratch = work.join("steps");
    let (small, small_run);
    let (job, report) = match (campaign, &last.report) {
        (Some(job), Some(report)) => (job, report),
        _ => {
            let dir = work.join("small-campaign");
            small = workloads::prepare("campaign_cold", seed, Scale::Smoke, &dir)?;
            small_run = workloads::pass(&small, ProbeConfig::off(), &mut Tracer::new(false));
            match (&small, &small_run.report) {
                (Inputs::Campaign(job), Some(report)) => (job, report),
                _ => return Err(format!("small campaign: {}", small_run.ops.notes.join("; "))),
            }
        }
    };
    let cache = job.dir.join("cache");
    layers::campaign_steps(&job.spec, report, &cache, &scratch, &mut layers, &mut tracer)
        .map_err(|e| format!("campaign steps: {e}"))?;
    layers.insert("host.calib_ns", (calib_start + layers::host_calib_ns()) / 2.0);

    let trace_path = out_dir().join(format!("trace-{workload}.json"));
    std::fs::write(&trace_path, tracer.chrome_json(workload).to_compact())
        .map_err(|e| format!("{}: {e}", trace_path.display()))?;
    println!("# {workload} {} spans written to {}", tracer.spans().len(), trace_path.display());

    Ok(Outcome {
        attempted: ledger.attempted,
        failed: ledger.failed,
        metrics: PER_LAYER.iter().map(|m| (m, layers[m.name])).collect(),
        digest: warm_up.digest,
    })
}

/// Run one workload in this process and print its result: one
/// `workload name value unit` line per metric, then the JSON object.
fn run_workload(workload: &str, args: &Args) -> Result<(), String> {
    let work = out_dir().join(format!("{workload}-{}", std::process::id()));
    std::fs::create_dir_all(&work).map_err(|e| format!("{}: {e}", work.display()))?;
    let outcome = match args.trace {
        false => measure(workload, args.seed, args.seconds, &work),
        true => trace_run(workload, args.seed, &work),
    };
    let _ = std::fs::remove_dir_all(&work);
    let outcome = outcome?;

    println!("{workload} sim_digest {:016x} hash", outcome.digest);
    for (metric, value) in &outcome.metrics {
        println!("{workload} {} {value} {}", metric.name, metric.unit);
    }
    let metrics = outcome
        .metrics
        .iter()
        .map(|(m, value)| {
            let entry = vec![("value", Json::Num(*value)), ("unit", Json::Str(m.unit.into()))];
            (m.name, Json::obj(entry))
        })
        .collect();
    let result = Json::obj(vec![
        ("correct", Json::Bool(outcome.failed == 0)),
        ("attempted", Json::UInt(outcome.attempted)),
        ("failed", Json::UInt(outcome.failed)),
        ("metrics", Json::obj(metrics)),
    ]);
    println!("{}", result.to_compact());
    Ok(())
}

/// What one child process printed: its `workload name value unit` lines by
/// metric name, and the counts of its result object.
struct ChildResult {
    values: BTreeMap<String, (String, String)>,
    result: Json,
}

impl ChildResult {
    fn number(&self, name: &str) -> Option<f64> {
        self.values.get(name)?.0.parse().ok()
    }

    fn failed(&self) -> u64 {
        self.result.get("failed").and_then(Json::as_u64).unwrap_or(u64::MAX)
    }
}

/// Run `workload` in a child process, pass its output through, and collect
/// what it reported.
fn spawn(workload: &str, args: &Args, trace: bool) -> Result<ChildResult, String> {
    let exe = std::env::current_exe().map_err(|e| e.to_string())?;
    let output = Command::new(exe)
        .args(["run", "--workload", workload])
        .args(["--seed", &args.seed.to_string()])
        .args(["--seconds", &args.seconds.to_string()])
        .args(["--trace", if trace { "1" } else { "0" }])
        .output()
        .map_err(|e| format!("spawning {workload}: {e}"))?;
    eprint!("{}", String::from_utf8_lossy(&output.stderr));
    let stdout = String::from_utf8_lossy(&output.stdout);
    let (report, last) = stdout.trim_end().rsplit_once('\n').unwrap_or(("", stdout.trim_end()));
    println!("{report}");
    if !output.status.success() {
        return Err(format!("{workload} exited with {}", output.status));
    }
    let result = Json::parse(last).map_err(|e| format!("{workload}: result: {}", e.message))?;
    let values = report
        .lines()
        .filter_map(|line| match line.split(' ').collect::<Vec<_>>()[..] {
            [w, name, value, unit] if w == workload => {
                Some((name.to_string(), (value.to_string(), unit.to_string())))
            }
            _ => None,
        })
        .collect();
    Ok(ChildResult { values, result })
}

/// Every workload, each in its own child; traced too when asked. Writes
/// what was printed to `out/run.json` as well.
fn run_set(args: &Args) -> Result<BTreeMap<&'static str, ChildResult>, String> {
    let mut set = BTreeMap::new();
    let mut document = Vec::new();
    for workload in workloads::NAMES {
        let mut runs = vec![spawn(workload, args, false)?];
        if args.trace {
            runs.push(spawn(workload, args, true)?);
        }
        let reported = runs.iter().flat_map(|run| &run.values).map(|(name, (value, unit))| {
            let value = value.parse().map_or(Json::Str(value.clone()), Json::Num);
            (name.as_str(), Json::obj(vec![("value", value), ("unit", Json::Str(unit.clone()))]))
        });
        document.push((workload, Json::obj(reported.collect())));
        set.insert(workload, runs.swap_remove(0));
    }
    let path = out_dir().join("run.json");
    let document = Json::obj(vec![
        ("seed", Json::UInt(args.seed)),
        ("seconds", Json::Num(args.seconds)),
        ("workloads", Json::obj(document)),
    ]);
    std::fs::write(&path, document.to_pretty()).map_err(|e| format!("{}: {e}", path.display()))?;
    println!("# written to {}", path.display());
    Ok(set)
}

/// Run the set twice and compare: host-time metrics within their own
/// bounds (set-up also passes within 0.25 s), simulated ones exactly.
fn repeat(args: &Args) -> Result<bool, String> {
    let (first, second) = (run_set(args)?, run_set(args)?);
    let mut agree = true;
    println!("# workload metric first second (median, iqr) verdict");
    for workload in workloads::NAMES {
        let (a, b) = (&first[workload], &second[workload]);
        let spread = |run: &ChildResult| {
            let (median, iqr) = (run.number("host.wall_median_s"), run.number("host.wall_iqr_s"));
            median.zip(iqr).map_or(String::new(), |(m, i)| format!("(median {m:.4}, iqr {i:.4})"))
        };
        for metric in &END_TO_END {
            let (x, y) = a
                .number(metric.name)
                .zip(b.number(metric.name))
                .ok_or(format!("{workload}: {} was not reported", metric.name))?;
            let simulated = metric.name.starts_with("sim_");
            let within = match simulated {
                true => x == y,
                false => {
                    (x - y).abs() <= metric.bound * x.min(y)
                        || (metric.name == "setup_s" && (x - y).abs() <= 0.25)
                }
            };
            let shown = if metric.name == "wall_s" {
                format!("{x} {} {y} {}", spread(a), spread(b))
            } else {
                format!("{x} {y}")
            };
            let verdict = match (within, simulated) {
                (true, true) => "identical".to_string(),
                (true, false) => format!("within {}", metric.bound),
                (false, _) => "DISAGREE".to_string(),
            };
            println!("{workload} {} {shown} {verdict}", metric.name);
            agree &= within;
        }
        let same_digest = a.values.get("sim_digest") == b.values.get("sim_digest");
        let clean = a.failed() == 0 && b.failed() == 0;
        println!(
            "{workload} sim_digest {} failed {} {}",
            if same_digest { "identical" } else { "DISAGREE" },
            a.failed(),
            b.failed()
        );
        agree &= same_digest && clean;
    }
    Ok(agree)
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let outcome = parse_args(&args).and_then(|args| {
        check_contract()?;
        std::fs::create_dir_all(out_dir()).map_err(|e| format!("{}: {e}", out_dir().display()))?;
        match (&args.mode, &args.workload) {
            (Mode::Repeat, _) => repeat(&args),
            (Mode::Run, Some(workload)) => run_workload(workload, &args).map(|()| true),
            (Mode::Run, None) => {
                run_set(&args).map(|set| set.values().all(|run| run.failed() == 0))
            }
        }
    });
    match outcome {
        Ok(true) => ExitCode::SUCCESS,
        Ok(false) => ExitCode::from(1),
        Err(why) => {
            eprintln!("quarc-benchmark: {why}");
            ExitCode::from(2)
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use workloads::{check_cell, run_cell, Expect, Ops};

    fn smoke(workload: &str) -> Pass {
        let dir = out_dir().join(format!("test-{workload}-{}", std::process::id()));
        let inputs = workloads::prepare(workload, 7, Scale::Smoke, &dir).unwrap();
        let pass = workloads::pass(&inputs, ProbeConfig::off(), &mut Tracer::new(true));
        let _ = std::fs::remove_dir_all(&dir);
        pass
    }

    #[test]
    fn every_workload_passes_its_self_checks_at_smoke_scale() {
        for workload in workloads::NAMES {
            let pass = smoke(workload);
            assert_eq!(pass.ops.failed, 0, "{workload}: {:?}", pass.ops.notes);
            assert!(pass.ops.attempted > 0 && pass.work > 0, "{workload}");
            assert!(pass.sim_latency_cycles > 0.0, "{workload}");
            assert_eq!(pass.sim_delivered_frac, 1.0, "{workload}");
        }
    }

    #[test]
    fn the_seed_moves_the_digest_and_nothing_else_does() {
        let pass = |seed| {
            let inputs =
                workloads::prepare("dense_sat", seed, Scale::Smoke, Path::new("")).unwrap();
            workloads::pass(&inputs, ProbeConfig::off(), &mut Tracer::new(false))
        };
        assert_eq!(pass(7).digest, pass(7).digest);
        assert_ne!(pass(7).digest, pass(8).digest);
    }

    #[test]
    fn a_tripped_self_check_counts_as_a_failed_operation() {
        let mut ops = Ops::default();
        ops.record("fine", Ok(()));
        ops.record("fake", Err("injected".into()));
        assert_eq!((ops.attempted, ops.failed), (2, 1));
        assert_eq!(ops.notes, ["fake: injected"]);

        // A real light-load cell checked against the wrong expectation.
        let Inputs::Cells(cells) =
            workloads::prepare("dense_sat", 7, Scale::Smoke, Path::new("")).unwrap()
        else {
            panic!("dense_sat is made of cells");
        };
        let run = run_cell(&cells[0], ProbeConfig::off(), &mut Tracer::new(false)).unwrap();
        assert_eq!(check_cell(Expect::Unsaturated, &run.outcome), Ok(()));
        assert!(check_cell(Expect::Saturated, &run.outcome).is_err());
        assert!(check_cell(Expect::Recovered, &run.outcome).is_err());

        // And the ledger turns digest drift into a failure of the pass.
        let (reference, mut drifted) = (smoke("faulty_recovery"), smoke("faulty_recovery"));
        let mut ledger = Ledger::default();
        ledger.add(&drifted, &reference);
        assert_eq!((ledger.attempted, ledger.failed), (reference.ops.attempted + 1, 0));
        drifted.digest ^= 1;
        ledger.add(&drifted, &reference);
        assert_eq!(ledger.failed, 1);
    }

    #[test]
    fn arguments_follow_the_contract() {
        let parse =
            |line: &str| parse_args(&line.split_whitespace().map(String::from).collect::<Vec<_>>());
        let args = parse("run --workload dense_sat --seed 5 --seconds 2 --trace 1").unwrap();
        assert_eq!((args.workload.as_deref(), args.seed, args.trace), (Some("dense_sat"), 5, true));
        assert_eq!(parse("").unwrap().seed, DEFAULT_SEED);
        assert_eq!(parse("repeat --seed 3").unwrap().mode, Mode::Repeat);
        assert!(parse("run --workload nope").is_err());
        assert!(parse("run --trace 2").is_err());
        assert!(parse("repeat --trace 1").is_err());
    }
}
