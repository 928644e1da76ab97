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
use quarc_campaign::CurveParams;
use quarc_core::topology::TopologyKind;
use quarc_sim::{run_point, PointSpec, RunResult, RunSpec};
use quarc_workloads::{Pattern, SyntheticConfig};
use std::process::exit;

const CLI: Cli = Cli {
    name: "simulate",
    usage: "usage: simulate [--topology quarc|spidergon|mesh|torus] [--nodes N] \
     [--rate R] [--msg-len M] [--beta B] [--pattern P] [--buffer-depth D] \
     [--warmup C] [--measure C] [--seed S]",
};

/// The point and run protocol the command line names. Traffic the point
/// cannot carry, or a protocol [`RunSpec::check`] rejects, is a usage error.
fn parse_args() -> (PointSpec, RunSpec) {
    // The network flags fill a campaign curve, so the network is the one a
    // campaign builds; `noc()` reads only the network fields.
    let mut curve = CurveParams::paper(TopologyKind::Quarc, 16, 8, 0.0);
    let mut traffic = SyntheticConfig::paper(0.01, curve.msg_len, curve.beta, 1);
    let mut run = RunSpec { warmup: 2_000, measure: 20_000, ..Default::default() };
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let Some(value) = it.next() else { CLI.usage_error(&format!("{flag} needs a value")) };
        match flag.as_str() {
            "--topology" => curve.topology = CLI.parse(&flag, &value),
            "--nodes" => curve.n = CLI.parse(&flag, &value),
            "--rate" => traffic.rate = CLI.parse(&flag, &value),
            "--msg-len" => traffic.msg_len = CLI.parse(&flag, &value),
            "--beta" => traffic.broadcast_frac = CLI.parse(&flag, &value),
            "--buffer-depth" => curve.buffer_depth = CLI.parse(&flag, &value),
            "--warmup" => run.warmup = CLI.parse(&flag, &value),
            "--measure" => run.measure = CLI.parse(&flag, &value),
            "--seed" => traffic.seed = CLI.parse(&flag, &value),
            "--pattern" => {
                traffic.pattern = match value.as_str() {
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
    run.drain = run.measure.saturating_mul(2);
    if let Err(e) = traffic.check(curve.n).and(run.check()) {
        CLI.usage_error(&e.to_string());
    }
    (PointSpec { noc: curve.noc(), traffic }, run)
}

fn main() {
    let (point, run) = parse_args();
    // Only the network can still be invalid here.
    match run_point(&point, &run, None) {
        Ok(out) => {
            outln!("{}", RunResult::csv_header());
            outln!("{}", out.result().csv_row());
        }
        Err(e) => {
            eprintln!("simulate: {e}");
            exit(1);
        }
    }
}
