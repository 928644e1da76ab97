//! A command-line front end for one-off simulations: pick a topology, size,
//! workload and load, get the run summary as CSV.
//!
//! ```text
//! cargo run -p quarc-bench --bin simulate --release -- \
//!     --topology quarc --nodes 32 --rate 0.01 --msg-len 16 --beta 0.05 \
//!     --warmup 2000 --measure 20000 --seed 7
//! ```
//!
//! Flags (all optional): `--topology quarc|spidergon|mesh|torus`,
//! `--nodes N`, `--rate R`, `--msg-len M`, `--beta B`, `--pattern
//! uniform|complement|neighbour|bit-reversal`, `--buffer-depth D`,
//! `--warmup C`, `--measure C`, `--seed S`.

use quarc_bench::cli::Cli;
use quarc_bench::outln;
use quarc_core::config::NocConfig;
use quarc_core::topology::TopologyKind;
use quarc_sim::{build_any, run, NocSim, RunResult, RunSpec};
use quarc_workloads::{Pattern, Synthetic, SyntheticConfig};
use std::process::exit;

const CLI: Cli = Cli {
    name: "simulate",
    usage: "usage: simulate [--topology quarc|spidergon|mesh|torus] [--nodes N] \
     [--rate R] [--msg-len M] [--beta B] [--pattern P] [--buffer-depth D] \
     [--warmup C] [--measure C] [--seed S]",
};

#[derive(Debug)]
struct Args {
    topology: TopologyKind,
    nodes: usize,
    rate: f64,
    msg_len: usize,
    beta: f64,
    pattern: Pattern,
    buffer_depth: usize,
    warmup: u64,
    measure: u64,
    seed: u64,
}

impl Default for Args {
    fn default() -> Self {
        Args {
            topology: TopologyKind::Quarc,
            nodes: 16,
            rate: 0.01,
            msg_len: 8,
            beta: 0.0,
            pattern: Pattern::Uniform,
            buffer_depth: 4,
            warmup: 2_000,
            measure: 20_000,
            seed: 1,
        }
    }
}

fn parse_args() -> Args {
    let mut args = Args::default();
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let Some(value) = it.next() else { CLI.usage_error(&format!("{flag} needs a value")) };
        match flag.as_str() {
            "--topology" => args.topology = CLI.parse(&flag, &value),
            "--nodes" => args.nodes = CLI.parse(&flag, &value),
            "--rate" => args.rate = CLI.parse(&flag, &value),
            "--msg-len" => args.msg_len = CLI.parse(&flag, &value),
            "--beta" => args.beta = CLI.parse(&flag, &value),
            "--buffer-depth" => args.buffer_depth = CLI.parse(&flag, &value),
            "--warmup" => args.warmup = CLI.parse(&flag, &value),
            "--measure" => args.measure = CLI.parse(&flag, &value),
            "--seed" => args.seed = CLI.parse(&flag, &value),
            "--pattern" => {
                args.pattern = match value.as_str() {
                    "uniform" => Pattern::Uniform,
                    "complement" => Pattern::Complement,
                    "neighbour" | "neighbor" => Pattern::Neighbour,
                    "bit-reversal" => Pattern::BitReversal,
                    other => CLI.usage_error(&format!("unknown pattern {other:?}")),
                }
            }
            other => CLI.usage_error(&format!("unknown flag {other}")),
        }
    }
    // What the workload generator would otherwise assert on.
    if !(args.rate.is_finite() && args.rate > 0.0) {
        CLI.usage_error("--rate must be positive and finite");
    }
    if !(0.0..=1.0).contains(&args.beta) {
        CLI.usage_error("--beta must lie in [0, 1]");
    }
    if !(2..=u32::MAX as usize).contains(&args.msg_len) {
        CLI.usage_error("--msg-len must lie in [2, 2^32 - 1] (a packet is header + tail)");
    }
    if args.nodes < 2 {
        CLI.usage_error("--nodes must be at least 2");
    }
    args
}

fn main() {
    let a = parse_args();
    let spec = RunSpec {
        warmup: a.warmup,
        measure: a.measure,
        drain: a.measure.saturating_mul(2),
        ..Default::default()
    };
    let wl_cfg = SyntheticConfig {
        rate: a.rate,
        msg_len: a.msg_len,
        broadcast_frac: a.beta,
        pattern: a.pattern,
        seed: a.seed,
    };

    let mut cfg = NocConfig {
        kind: a.topology,
        n: a.nodes,
        buffer_depth: a.buffer_depth,
        ..Default::default()
    };
    if a.topology == TopologyKind::Mesh {
        cfg.vcs = 1; // XY on a mesh needs no dateline VC
    }
    if let Err(e) = cfg.validate() {
        eprintln!("simulate: {e}");
        exit(1);
    }
    let mut net = build_any(cfg);
    // The grids round `--nodes` up to a near-square count.
    let mut wl = Synthetic::new(net.num_nodes(), wl_cfg);
    let result = run(&mut net, &mut wl, &spec);

    outln!("{}", RunResult::csv_header());
    outln!("{}", result.csv_row());
}
