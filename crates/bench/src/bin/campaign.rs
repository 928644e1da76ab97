//! The campaign CLI: run whole experiment grids — the paper's Figs. 9–11 in
//! one command — in parallel, with replication confidence intervals, an
//! on-disk result cache and JSON/CSV artifacts.
//!
//! ```text
//! # the paper's full figure grid, all cores, cached under ./campaign-out
//! cargo run --release -p quarc-bench --bin campaign -- --preset paper
//!
//! # one figure: its CSV is ./figs/fig9.csv (JSON artifact beside it)
//! cargo run --release -p quarc-bench --bin campaign -- --preset fig9 --out figs
//!
//! # a custom grid
//! cargo run --release -p quarc-bench --bin campaign -- \
//!     --topologies quarc,spidergon --sizes 16,32 --msg-lens 16 \
//!     --betas 0,0.05 --rates geom:0.002:0.05:8 --replications 3
//!
//! # adaptive saturation search instead of a fixed rate grid
//! cargo run --release -p quarc-bench --bin campaign -- \
//!     --topologies quarc,spidergon --sizes 64 --rates sat:0.05:24
//! ```

use quarc_bench::cli::Cli;
use quarc_bench::{outln, presets};
use quarc_campaign::{
    run_campaign, CampaignOptions, CampaignSpec, CiTarget, Converged, Convergence,
    PointOutcomeKind, RateAxis,
};
use quarc_core::config::{ArbPolicy, FaultPlan, RecoveryPolicy};
use quarc_sim::RunSpec;
use std::path::PathBuf;
use std::process::exit;
use std::time::Duration;

const USAGE: &str = "\
campaign — parallel, deterministic experiment campaigns for the Quarc NoC

USAGE:
    campaign [--preset NAME | AXIS FLAGS...] [OPTIONS]

PRESETS (repeatable; `paper` = fig9 + fig10 + fig11):
    --preset NAME             one of: fig9, fig10, fig11, ablation-buffer,
                              ablation-link, ablation-beta, ablation-arb,
                              scale, frontier, robustness, paper

AXIS FLAGS (build a custom grid; ignored when --preset is given):
    --name NAME               campaign/artifact name        [default: custom]
    --topologies LIST         quarc,spidergon,mesh,torus    [default: quarc,spidergon]
    --sizes LIST              node counts                   [default: 16]
    --msg-lens LIST           message lengths M in flits    [default: 16]
    --betas LIST              broadcast fractions           [default: 0.05]
    --buffer-depths LIST      flits per VC lane             [default: 4]
    --link-latencies LIST     cycles per link               [default: 1]
    --arbs LIST               rr,fp (output arbitration)    [default: rr]
    --rates SPEC              rate axis (messages/node/cycle, each in (0, 1]):
                                list:R1,R2,...              explicit rates
                                geom:LO:HI:STEPS            geometric sweep
                                auto:SPAN:LODIV:STEPS       geometric sweep anchored
                                                            to the analytic bound
                                sat:RELTOL:MAXPROBES        adaptive saturation search
                              [default: auto:1.1:40:10]
    --replications K          seeds merged per point        [default: 2]
                              (the starting count under --converge)
    --converge SPEC           convergence control: grow replications until
                              every metric's 95% CI half-width meets the
                              target, then stop:
                                rel:R                       half-width <= R x mean
                                abs:W                       half-width <= W
    --max-reps N              replication cap under --converge [default: 64]
    --fault SPEC              fault-plan axis entry (repeatable; any --fault
                              replaces the default healthy plan, so include
                              `none` for a healthy baseline):
                                none                        the empty plan
                                k=v,k=v,...                 with keys:
                                  seed=S onset=C dead=N frozen=N
                                  lossy=N p64k=P (drop prob in 1/65536)
                                  transient=N window=C
    --recovery SPEC           recovery-policy axis entry (repeatable; any
                              --recovery replaces the default best-effort
                              policy, so include `none` for an off baseline):
                                none                        best-effort delivery
                                k=v,k=v,...                 with keys:
                                  timeout=C (ack timeout, cycles; required)
                                  retries=N jitter=C seed=S
    --seed S                  master seed                   [default: 2009]
    --warmup C / --measure C / --drain C
                              run protocol                  [default: 2000/20000/30000]
    --stall-window C          watchdog: cut a run off after C cycles with
                              pending traffic and no progress (0 disarms)
                              [default: 10000]
    --quick                   short protocol (500/4000/8000) for smoke runs

OPTIONS:
    --workers N               worker threads (0 = all cores) [default: 0]
    --out DIR                 artifact directory             [default: campaign-out]
    --cache DIR               result-cache directory         [default: <out>/cache]
    --no-cache                disable the result cache
    --point-timeout SECS      fail-soft wall-clock budget per point: a point
                              over budget is quarantined as `failed` and the
                              campaign carries on (execution knob; a budget
                              every point fits inside cannot change results)
    --quiet                   no per-point progress on stderr
    --help                    this text

Results are a pure function of the grid definition: worker count, caching
and scheduling cannot change a single number (see quarc-campaign docs).
Cached replication series are upgradeable: a later run that needs more
replications (higher --replications, or --converge with a still-too-wide
CI) resumes the stored series and simulates only the missing tail.
";

const CLI: Cli = Cli { name: "campaign", usage: USAGE };

fn parse_list<T: std::str::FromStr>(flag: &str, value: &str) -> Vec<T> {
    value
        .split(',')
        .filter(|s| !s.is_empty())
        .map(|s| {
            s.trim()
                .parse()
                .unwrap_or_else(|_| CLI.usage_error(&format!("bad value {s:?} in {flag}")))
        })
        .collect()
}

fn parse_arbs(value: &str) -> Vec<ArbPolicy> {
    value
        .split(',')
        .filter(|s| !s.is_empty())
        .map(|s| match s.trim() {
            "rr" | "round-robin" => ArbPolicy::RoundRobin,
            "fp" | "fixed-priority" => ArbPolicy::FixedPriority,
            other => CLI.usage_error(&format!("unknown arbitration policy {other:?}")),
        })
        .collect()
}

fn parse_converge(value: &str) -> CiTarget {
    fn bad(value: &str) -> ! {
        CLI.usage_error(&format!("bad --converge spec {value:?} (want rel:R or abs:W)"))
    }
    match value.split_once(':') {
        Some(("rel", r)) => CiTarget::Rel(r.parse().unwrap_or_else(|_| bad(value))),
        Some(("abs", w)) => CiTarget::Abs(w.parse().unwrap_or_else(|_| bad(value))),
        _ => bad(value),
    }
}

fn parse_rates(value: &str) -> RateAxis {
    let parts: Vec<&str> = value.split(':').collect();
    fn num(value: &str, s: &str) -> f64 {
        s.parse().unwrap_or_else(|_| CLI.usage_error(&format!("bad --rates spec {value:?}")))
    }
    fn int<T: std::str::FromStr>(value: &str, s: &str) -> T {
        s.parse().unwrap_or_else(|_| CLI.usage_error(&format!("bad --rates spec {value:?}")))
    }
    match parts.as_slice() {
        ["list", rates] => RateAxis::Explicit(parse_list("--rates", rates)),
        ["geom", lo, hi, steps] => {
            RateAxis::Geometric { lo: num(value, lo), hi: num(value, hi), steps: int(value, steps) }
        }
        ["auto", span, lo_div, steps] => RateAxis::AutoGeometric {
            span: num(value, span),
            lo_div: num(value, lo_div),
            steps: int(value, steps),
        },
        ["sat", rel_tol, max_probes] => RateAxis::Saturation {
            rel_tol: num(value, rel_tol),
            max_probes: int(value, max_probes),
        },
        _ => CLI.usage_error(&format!("bad --rates spec {value:?}")),
    }
}

fn parse_fault(value: &str) -> FaultPlan {
    if value == "none" {
        return FaultPlan::NONE;
    }
    let mut plan = FaultPlan::NONE;
    for pair in value.split(',').filter(|s| !s.is_empty()) {
        let Some((key, v)) = pair.split_once('=') else {
            CLI.usage_error(&format!("bad --fault entry {pair:?} (want key=value)"));
        };
        fn num<T: std::str::FromStr>(pair: &str, v: &str) -> T {
            v.parse().unwrap_or_else(|_| CLI.usage_error(&format!("bad --fault value in {pair:?}")))
        }
        match key.trim() {
            "seed" => plan.seed = num(pair, v),
            "onset" => plan.onset = num(pair, v),
            "dead" => plan.dead_links = num(pair, v),
            "frozen" => plan.frozen_routers = num(pair, v),
            "lossy" => plan.lossy_links = num(pair, v),
            "p64k" => plan.drop_per_64k = num(pair, v),
            "transient" => plan.transient_links = num(pair, v),
            "window" => plan.transient_cycles = num(pair, v),
            other => CLI.usage_error(&format!("unknown --fault key {other:?}")),
        }
    }
    if let Err(e) = plan.validate() {
        CLI.usage_error(&format!("bad --fault spec {value:?}: {e}"));
    }
    plan
}

fn parse_recovery(value: &str) -> RecoveryPolicy {
    if value == "none" {
        return RecoveryPolicy::NONE;
    }
    let mut policy = RecoveryPolicy::NONE;
    for pair in value.split(',').filter(|s| !s.is_empty()) {
        let Some((key, v)) = pair.split_once('=') else {
            CLI.usage_error(&format!("bad --recovery entry {pair:?} (want key=value)"));
        };
        fn num<T: std::str::FromStr>(pair: &str, v: &str) -> T {
            v.parse()
                .unwrap_or_else(|_| CLI.usage_error(&format!("bad --recovery value in {pair:?}")))
        }
        match key.trim() {
            "seed" => policy.seed = num(pair, v),
            "timeout" => policy.ack_timeout = num(pair, v),
            "retries" => policy.max_retries = num(pair, v),
            "jitter" => policy.jitter = num(pair, v),
            other => CLI.usage_error(&format!("unknown --recovery key {other:?}")),
        }
    }
    if let Err(e) = policy.validate() {
        CLI.usage_error(&format!("bad --recovery spec {value:?}: {e}"));
    }
    policy
}

struct Args {
    specs: Vec<CampaignSpec>,
    opts: CampaignOptions,
    out_dir: PathBuf,
    no_cache: bool,
    cache_dir: Option<PathBuf>,
}

fn parse_cli() -> Args {
    let mut presets_requested: Vec<String> = Vec::new();
    let mut custom = CampaignSpec::new("custom");
    custom.msg_lens = vec![16];
    let mut custom_touched = false;
    let mut opts = CampaignOptions::default();
    let mut out_dir = PathBuf::from("campaign-out");
    let mut cache_dir: Option<PathBuf> = None;
    let mut no_cache = false;
    let mut quick = false;
    let mut run_overrides: Vec<(&'static str, u64)> = Vec::new();
    let mut converge_target: Option<CiTarget> = None;
    let mut max_reps: Option<u32> = None;
    let mut fault_axis: Vec<FaultPlan> = Vec::new();
    let mut recovery_axis: Vec<RecoveryPolicy> = Vec::new();

    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        if flag == "--help" || flag == "-h" {
            outln!("{USAGE}");
            exit(0);
        }
        if flag == "--quick" {
            quick = true;
            continue;
        }
        if flag == "--quiet" {
            opts.quiet = true;
            continue;
        }
        if flag == "--no-cache" {
            no_cache = true;
            continue;
        }
        let Some(value) = it.next() else {
            CLI.usage_error(&format!("flag {flag} needs a value"));
        };
        match flag.as_str() {
            "--preset" => presets_requested.push(value),
            "--name" => {
                custom.name = value;
                custom_touched = true;
            }
            "--topologies" => {
                custom.topologies = parse_list(&flag, &value);
                custom_touched = true;
            }
            "--sizes" => {
                custom.sizes = parse_list("--sizes", &value);
                custom_touched = true;
            }
            "--msg-lens" => {
                custom.msg_lens = parse_list("--msg-lens", &value);
                custom_touched = true;
            }
            "--betas" => {
                custom.betas = parse_list("--betas", &value);
                custom_touched = true;
            }
            "--buffer-depths" => {
                custom.buffer_depths = parse_list("--buffer-depths", &value);
                custom_touched = true;
            }
            "--link-latencies" => {
                custom.link_latencies = parse_list("--link-latencies", &value);
                custom_touched = true;
            }
            "--arbs" => {
                custom.arbs = parse_arbs(&value);
                custom_touched = true;
            }
            "--rates" => {
                custom.rates = parse_rates(&value);
                custom_touched = true;
            }
            "--fault" => {
                fault_axis.push(parse_fault(&value));
                custom_touched = true;
            }
            "--recovery" => {
                recovery_axis.push(parse_recovery(&value));
                custom_touched = true;
            }
            "--replications" => {
                custom.replications =
                    value.parse().unwrap_or_else(|_| CLI.usage_error("bad --replications"));
                custom_touched = true;
            }
            "--converge" => {
                converge_target = Some(parse_converge(&value));
                custom_touched = true;
            }
            "--max-reps" => {
                max_reps =
                    Some(value.parse().unwrap_or_else(|_| CLI.usage_error("bad --max-reps")));
                custom_touched = true;
            }
            "--seed" => {
                custom.base_seed = value.parse().unwrap_or_else(|_| CLI.usage_error("bad --seed"));
                custom_touched = true;
            }
            "--warmup" | "--measure" | "--drain" | "--stall-window" => {
                let cycles =
                    value.parse().unwrap_or_else(|_| CLI.usage_error(&format!("bad {flag}")));
                run_overrides.push((
                    match flag.as_str() {
                        "--warmup" => "warmup",
                        "--measure" => "measure",
                        "--stall-window" => "stall_window",
                        _ => "drain",
                    },
                    cycles,
                ));
            }
            "--point-timeout" => {
                let secs: f64 =
                    value.parse().unwrap_or_else(|_| CLI.usage_error("bad --point-timeout"));
                match Duration::try_from_secs_f64(secs) {
                    Ok(budget) if secs > 0.0 => opts.point_timeout = Some(budget),
                    _ => CLI.usage_error("bad --point-timeout"),
                }
            }
            "--workers" => {
                opts.workers = value.parse().unwrap_or_else(|_| CLI.usage_error("bad --workers"));
            }
            "--out" => out_dir = PathBuf::from(value),
            "--cache" => cache_dir = Some(PathBuf::from(value)),
            other => CLI.usage_error(&format!("unknown flag {other}")),
        }
    }

    if !fault_axis.is_empty() {
        custom.faults = fault_axis;
    }
    if !recovery_axis.is_empty() {
        custom.recoveries = recovery_axis;
    }

    match (converge_target, max_reps) {
        (Some(target), max) => {
            custom.convergence = Some(Convergence { target, max_reps: max.unwrap_or(64) });
        }
        (None, Some(_)) => CLI.usage_error("--max-reps requires --converge"),
        (None, None) => {}
    }

    let mut specs: Vec<CampaignSpec> = Vec::new();
    if presets_requested.is_empty() {
        specs.push(custom);
    } else {
        if custom_touched {
            CLI.usage_error("--preset cannot be combined with custom axis flags");
        }
        for name in &presets_requested {
            match presets::by_name(name) {
                Some(preset) => specs.extend(preset),
                None => CLI.usage_error(&format!(
                    "unknown preset {name:?} (expected one of {})",
                    presets::PRESET_NAMES.join(", ")
                )),
            }
        }
    }

    for spec in &mut specs {
        if quick {
            spec.run = RunSpec::quick();
        }
        for &(field, cycles) in &run_overrides {
            match field {
                "warmup" => spec.run.warmup = cycles,
                "measure" => spec.run.measure = cycles,
                "stall_window" => spec.run.stall_window = cycles,
                _ => spec.run.drain = cycles,
            }
        }
    }

    Args { specs, opts, out_dir, no_cache, cache_dir }
}

fn main() {
    let cli = parse_cli();
    let cache_dir = if cli.no_cache {
        None
    } else {
        Some(cli.cache_dir.clone().unwrap_or_else(|| cli.out_dir.join("cache")))
    };

    let mut grand_executed = 0;
    let mut grand_cached = 0;
    let mut grand_quarantined = 0;
    for spec in &cli.specs {
        let opts = CampaignOptions {
            cache_dir: cache_dir.clone(),
            out_dir: Some(cli.out_dir.clone()),
            ..cli.opts.clone()
        };
        let report = match run_campaign(spec, &opts) {
            Ok(report) => report,
            Err(e) => {
                eprintln!("campaign {:?}: {e}", spec.name);
                exit(1);
            }
        };
        grand_executed += report.executed;
        grand_cached += report.from_cache;

        outln!(
            "# campaign {}: {} points ({} simulated, {} from cache; {} reps run, {} cached reps reused) on {} workers in {:.1}s",
            spec.name,
            report.results.len(),
            report.executed,
            report.from_cache,
            report.reps_simulated,
            report.reps_cached,
            report.workers,
            report.wall.as_secs_f64(),
        );
        // Execution telemetry: cache traffic and pool utilization. The same
        // numbers land in <name>.telemetry.json (never in the pure
        // campaign artifacts).
        let topups = report.topups();
        outln!(
            "#   cache: {} hit(s), {} miss(es), {} top-up(s)",
            report.from_cache,
            report.executed - topups,
            topups,
        );
        for (w, s) in report.worker_stats.iter().enumerate() {
            outln!(
                "#   worker {w}: {:>3.0}% busy, {} step(s), {} beyond an even share",
                s.busy_fraction() * 100.0,
                s.steps,
                s.steals,
            );
        }
        if let Some(slowest) = report.point_telemetry.iter().max_by(|a, b| a.wall.cmp(&b.wall)) {
            outln!(
                "#   slowest point: {} ({:.2}s, {} rep(s) simulated)",
                slowest.label,
                slowest.wall.as_secs_f64(),
                slowest.simulated_reps,
            );
        }
        for s in &report.skipped {
            outln!("#   skipped: {s}");
        }
        for path in &report.artifacts {
            outln!("#   wrote {}", path.display());
        }
        // Fail-soft summary: quarantined points are structured artifact
        // entries, not fatal errors — the campaign still exits 0, every
        // healthy point completed, and the failures are enumerated here.
        if report.quarantined() > 0 {
            grand_quarantined += report.quarantined();
            outln!(
                "#   quarantined: {} point(s) ({} stalled, {} failed)",
                report.quarantined(),
                report.stalled(),
                report.failed(),
            );
            for r in &report.results {
                match &r.outcome {
                    PointOutcomeKind::Stalled { rep, cycle, .. } => outln!(
                        "#   STALLED {:<36} rep {rep} @ cycle {cycle} (diagnostics in the JSON artifact)",
                        r.label,
                    ),
                    PointOutcomeKind::Failed { reason } => {
                        outln!("#   FAILED  {:<36} {reason}", r.label);
                    }
                    _ => {}
                }
            }
        }
        // Delivered-fraction summary: under fault plans the headline is how
        // much traffic still arrived, not just latency.
        if spec.faults.iter().any(|f| !f.is_empty()) {
            let worst = report
                .results
                .iter()
                .filter_map(|r| match &r.outcome {
                    PointOutcomeKind::Rate { merged, .. } => {
                        Some((merged.delivered_fraction.mean, merged.undeliverable, &r.label))
                    }
                    _ => None,
                })
                .min_by(|a, b| a.0.total_cmp(&b.0));
            if let Some((df, undeliverable, label)) = worst {
                outln!(
                    "#   delivered fraction: worst {df:.4} ({undeliverable} undeliverable) at {label}"
                );
            }
        }
        // Recovery summary: how hard the ack/retransmit layer worked.
        if spec.recoveries.iter().any(|r| r.enabled()) {
            let (mut retransmissions, mut recovered) = (0u64, 0u64);
            for r in &report.results {
                if let PointOutcomeKind::Rate { merged, .. } = &r.outcome {
                    retransmissions += merged.retransmissions;
                    recovered += merged.recovered_receivers;
                }
            }
            outln!(
                "#   recovery: {retransmissions} retransmission(s), \
                 {recovered} receiver(s) served by a retry"
            );
        }
        // Convergence summary: how many points proved their CIs tight.
        if spec.convergence.is_some() {
            let (mut converged, mut capped, mut abandoned) = (0usize, 0usize, 0usize);
            for r in &report.results {
                if let PointOutcomeKind::Rate { merged, .. } = &r.outcome {
                    match merged.converged {
                        Converged::Yes => converged += 1,
                        Converged::AbandonedSaturated => abandoned += 1,
                        Converged::No => {
                            capped += 1;
                            outln!(
                                "#   NOT CONVERGED {:<36} n={} unicast ci95={:.3}",
                                r.label,
                                merged.reps,
                                merged.unicast_mean.ci95
                            );
                        }
                    }
                }
            }
            outln!(
                "#   converged: {converged}, capped: {capped}, abandoned saturated: {abandoned}"
            );
        }
        // Per-curve knee summary for quick reading.
        for r in &report.results {
            if let PointOutcomeKind::Saturation(s) = &r.outcome {
                outln!(
                    "#   {:<36} sustains {:.5}{}",
                    r.label,
                    s.sustained,
                    s.collapsed.map_or_else(String::new, |c| format!(", collapses by {c:.5}")),
                );
            }
        }
    }
    outln!("# total: {grand_executed} points simulated, {grand_cached} served from cache");
    if grand_quarantined > 0 {
        // Deliberately exit 0: a fail-soft campaign that completed every
        // healthy point and *recorded* its failures succeeded at its job.
        outln!("# total: {grand_quarantined} point(s) quarantined (see artifacts)");
    }
}
