//! One scaled-down point of each latency figure, as a Criterion benchmark —
//! a quick regression canary that the full figure binaries stay runnable in
//! reasonable time.

use criterion::{criterion_group, criterion_main, Criterion};
use quarc_core::config::NocConfig;
use quarc_sim::{run, QuarcNetwork, RunSpec, SpidergonNetwork};
use quarc_workloads::{Synthetic, SyntheticConfig};

fn quick_spec() -> RunSpec {
    RunSpec { warmup: 200, measure: 1_500, drain: 2_000, ..Default::default() }
}

fn bench_points(c: &mut Criterion) {
    let mut g = c.benchmark_group("figure_points");
    g.sample_size(10);

    // A fig. 9-style point: N=16, M=8, beta=5%.
    g.bench_function("fig9_point_quarc", |b| {
        b.iter(|| {
            let mut net = QuarcNetwork::new(NocConfig::quarc(16));
            let mut wl = Synthetic::new(16, SyntheticConfig::paper(0.02, 8, 0.05, 1));
            run(&mut net, &mut wl, &quick_spec()).unicast_mean
        })
    });
    g.bench_function("fig9_point_spidergon", |b| {
        b.iter(|| {
            let mut net = SpidergonNetwork::new(NocConfig::spidergon(16));
            let mut wl = Synthetic::new(16, SyntheticConfig::paper(0.02, 8, 0.05, 1));
            run(&mut net, &mut wl, &quick_spec()).unicast_mean
        })
    });

    // A fig. 11-style point: N=64, M=16, beta=10%.
    g.bench_function("fig11_point_quarc", |b| {
        b.iter(|| {
            let mut net = QuarcNetwork::new(NocConfig::quarc(64));
            let mut wl = Synthetic::new(64, SyntheticConfig::paper(0.005, 16, 0.10, 2));
            run(&mut net, &mut wl, &quick_spec()).unicast_mean
        })
    });

    g.finish();
}

criterion_group!(benches, bench_points);
criterion_main!(benches);
