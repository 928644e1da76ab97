//! Regenerates **Fig. 9**: average latency vs message rate for N = 16,
//! β = 5%, message length M ∈ {8, 16, 32}, Quarc vs Spidergon.
//!
//! A thin wrapper over the `fig9` campaign preset: points run in parallel
//! with replication confidence intervals, and the CSV goes to stdout (use
//! the `campaign` binary for caching and JSON artifacts).
//!
//! ```text
//! cargo run -p quarc-bench --bin fig9 --release
//! ```

use quarc_bench::{out, outln, presets};
use quarc_campaign::{run_campaign, CampaignOptions};

fn main() {
    let spec = presets::fig9();
    let report = run_campaign(&spec, &CampaignOptions { quiet: true, ..Default::default() })
        .expect("fig9 campaign");
    outln!("# Fig. 9: N=16, beta=5%, M in {{8,16,32}} ({} workers)", report.workers);
    out!("{}", report.csv());
}
