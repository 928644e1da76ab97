//! Ablation study over the simulator's design parameters (DESIGN.md §6):
//! input-buffer depth, link latency and the broadcast mechanism itself
//! (Quarc true broadcast vs Spidergon chains on otherwise-identical rings).
//!
//! Every section (buffer depth, link latency, β, arbitration policy) runs
//! as a campaign preset — in parallel, with replication confidence
//! intervals.
//!
//! ```text
//! cargo run -p quarc-bench --bin ablation --release
//! ```

use quarc_bench::{out, outln, presets};
use quarc_campaign::{run_campaign, CampaignOptions, CampaignSpec};

fn run_preset(title: &str, spec: &CampaignSpec) {
    let report = run_campaign(spec, &CampaignOptions { quiet: true, ..Default::default() })
        .expect("ablation campaign");
    outln!("# {title}");
    out!("{}", report.csv());
    outln!("#");
}

fn main() {
    run_preset(
        "Ablation: buffer depth (n=16, M=16, beta=5%, rate=0.02)",
        &presets::ablation_buffer(),
    );
    run_preset("Ablation: link latency (quarc, depth=4)", &presets::ablation_link());
    run_preset(
        "Ablation: broadcast mechanism at growing beta (rate 0.008 — below the \
         Quarc knee throughout, so the degradation is attributable to beta alone)",
        &presets::ablation_beta(),
    );
    run_preset(
        "Ablation: output-arbitration policy (round-robin vs fixed priority)",
        &presets::ablation_arb(),
    );
}
