//! Regenerates **Fig. 11**: average latency vs message rate for N = 64,
//! M = 16, broadcast rate β ∈ {0%, 5%, 10%}, Quarc vs Spidergon.
//!
//! A thin wrapper over the `fig11` campaign preset: points run in parallel
//! with replication confidence intervals, and the CSV goes to stdout (use
//! the `campaign` binary for caching and JSON artifacts).
//!
//! ```text
//! cargo run -p quarc-bench --bin fig11 --release
//! ```

use quarc_bench::{out, outln, presets};
use quarc_campaign::{run_campaign, CampaignOptions};

fn main() {
    let spec = presets::fig11();
    let report = run_campaign(&spec, &CampaignOptions { quiet: true, ..Default::default() })
        .expect("fig11 campaign");
    outln!("# Fig. 11: N=64, M=16, beta in {{0,5,10}}% ({} workers)", report.workers);
    out!("{}", report.csv());
}
