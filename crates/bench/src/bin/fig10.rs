//! Regenerates **Fig. 10**: average latency vs message rate for M = 16,
//! β = 10%, network size N ∈ {16, 32, 64}, Quarc vs Spidergon.
//!
//! A thin wrapper over the `fig10` campaign preset: points run in parallel
//! with replication confidence intervals, and the CSV goes to stdout (use
//! the `campaign` binary for caching and JSON artifacts).
//!
//! ```text
//! cargo run -p quarc-bench --bin fig10 --release
//! ```

use quarc_bench::{out, outln, presets};
use quarc_campaign::{run_campaign, CampaignOptions};

fn main() {
    let spec = presets::fig10();
    let report = run_campaign(&spec, &CampaignOptions { quiet: true, ..Default::default() })
        .expect("fig10 campaign");
    outln!("# Fig. 10: M=16, beta=10%, N in {{16,32,64}} ({} workers)", report.workers);
    out!("{}", report.csv());
}
