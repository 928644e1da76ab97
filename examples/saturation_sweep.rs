//! Sweep offered load until both networks saturate, printing the
//! latency-vs-rate curve — a miniature of the paper's Figs. 9–11 you can run
//! in seconds.
//!
//! ```text
//! cargo run --example saturation_sweep --release
//! ```

use quarc::core::config::NocConfig;
use quarc::sim::{geometric_rates, run_point, PointSpec, RunSpec};
use quarc::workloads::SyntheticConfig;

/// `(unicast mean, broadcast completion mean, saturated)` per rate, stopping
/// once two consecutive points saturate (the curve has gone vertical, as in
/// the paper's plots).
fn curve(noc: NocConfig, rates: &[f64], run_spec: &RunSpec) -> Vec<(f64, f64, bool)> {
    let mut points = Vec::new();
    for &rate in rates {
        let point = PointSpec { noc, traffic: SyntheticConfig::paper(rate, 8, 0.05, 42) };
        let run = run_point(&point, run_spec, None).expect("valid configuration");
        let r = run.result();
        points.push((r.unicast_mean, r.bcast_completion_mean, r.saturated));
        if let [.., (_, _, true), (_, _, true)] = points[..] {
            break;
        }
    }
    points
}

fn main() {
    let n = 16;
    let rates = geometric_rates(0.003, 0.12, 8);
    let run_spec = RunSpec { warmup: 1_000, measure: 8_000, drain: 12_000, ..Default::default() };

    println!("latency vs offered load: N={n}, M=8, beta=5%\n");
    println!(
        "{:<11} {:>12} {:>14} {:>16} {:>10}",
        "rate", "quarc uni", "spidergon uni", "quarc bcast", "spi bcast"
    );

    let quarc = curve(NocConfig::quarc(n), &rates, &run_spec);
    let spider = curve(NocConfig::spidergon(n), &rates, &run_spec);

    for (i, rate) in rates.iter().enumerate() {
        let fmt = |v: Option<(f64, bool)>| match v {
            Some((lat, false)) => format!("{lat:>10.1}"),
            Some((_, true)) => format!("{:>10}", "SAT"),
            None => format!("{:>10}", "-"),
        };
        let (q, s) = (quarc.get(i), spider.get(i));
        println!(
            "{:<11.5} {} {} {} {}",
            rate,
            fmt(q.map(|&(uni, _, sat)| (uni, sat))),
            fmt(s.map(|&(uni, _, sat)| (uni, sat))),
            fmt(q.map(|&(_, bcast, sat)| (bcast, sat))),
            fmt(s.map(|&(_, bcast, sat)| (bcast, sat))),
        );
    }

    let sustain = |points: &[(f64, f64, bool)]| {
        points.iter().rposition(|&(_, _, saturated)| !saturated).map(|i| rates[i])
    };
    println!(
        "\nmax sustainable rate: quarc {:?}, spidergon {:?}",
        sustain(&quarc),
        sustain(&spider)
    );
    println!(
        "(the Quarc sustains a higher load and keeps broadcast latency flat — Fig. 11's story)"
    );
}
