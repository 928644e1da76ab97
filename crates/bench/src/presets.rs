//! Named campaign presets reproducing the paper's evaluation grids.
//!
//! Each name resolves through [`by_name`] to its [`CampaignSpec`]s (`paper`
//! to the three figure grids), and `campaign --preset NAME --out DIR` runs
//! them, writing each figure's CSV to `DIR/<preset>.csv`. Base seeds are
//! arbitrary but fixed so every invocation reproduces the same numbers.

use quarc_campaign::{CampaignSpec, CiTarget, Convergence, RateAxis};
use quarc_core::config::{ArbPolicy, FaultPlan, RecoveryPolicy};
use quarc_core::topology::TopologyKind;

/// The topology axis of the figure presets: the paper's two ring networks
/// plus the §4 "next objective" grids. Every family carries every traffic
/// class, so all four run the full β axis of each figure.
fn figure_topologies() -> Vec<TopologyKind> {
    vec![TopologyKind::Quarc, TopologyKind::Spidergon, TopologyKind::Mesh, TopologyKind::Torus]
}

/// The rate axis the paper's figures use: ten geometric steps up to 1.1× the
/// analytic Quarc saturation bound for each curve's `(n, M)`.
fn figure_rates() -> RateAxis {
    RateAxis::AutoGeometric { span: 1.1, lo_div: 40.0, steps: 10 }
}

/// The figure presets' replication protocol: convergence-controlled, every
/// tracked metric's 95% CI half-width within 5% of its mean (capped at 64
/// replications — points past the knee saturate and never tighten, which
/// the artifact reports as `converged: false` rather than burning the cap
/// on every curve's tail).
fn figure_convergence() -> Option<Convergence> {
    Some(Convergence { target: CiTarget::Rel(0.05), max_reps: 64 })
}

/// **Fig. 9**: latency vs rate, N = 16, β = 5%, M ∈ {8, 16, 32}.
fn fig9() -> CampaignSpec {
    let mut spec = CampaignSpec::new("fig9");
    spec.topologies = figure_topologies();
    spec.sizes = vec![16];
    spec.msg_lens = vec![8, 16, 32];
    spec.betas = vec![0.05];
    spec.rates = figure_rates();
    spec.convergence = figure_convergence();
    spec.base_seed = 9;
    spec
}

/// **Fig. 10**: latency vs rate, M = 16, β = 10%, N ∈ {16, 32, 64}.
fn fig10() -> CampaignSpec {
    let mut spec = CampaignSpec::new("fig10");
    spec.topologies = figure_topologies();
    spec.sizes = vec![16, 32, 64];
    spec.msg_lens = vec![16];
    spec.betas = vec![0.10];
    spec.rates = figure_rates();
    spec.convergence = figure_convergence();
    spec.base_seed = 10;
    spec
}

/// **Fig. 11**: latency vs rate, N = 64, M = 16, β ∈ {0%, 5%, 10%}.
fn fig11() -> CampaignSpec {
    let mut spec = CampaignSpec::new("fig11");
    spec.topologies = figure_topologies();
    spec.sizes = vec![64];
    spec.msg_lens = vec![16];
    spec.betas = vec![0.0, 0.05, 0.10];
    spec.rates = figure_rates();
    spec.convergence = figure_convergence();
    spec.base_seed = 11;
    spec
}

/// Ablation: input-buffer depth at a fixed operating point.
fn ablation_buffer() -> CampaignSpec {
    let mut spec = CampaignSpec::new("ablation-buffer");
    spec.topologies = vec![TopologyKind::Quarc, TopologyKind::Spidergon];
    spec.sizes = vec![16];
    spec.msg_lens = vec![16];
    spec.betas = vec![0.05];
    spec.buffer_depths = vec![2, 4, 8, 16];
    spec.rates = RateAxis::Explicit(vec![0.02]);
    spec.base_seed = 21;
    spec
}

/// Ablation: link latency (Quarc only, depth 4).
fn ablation_link() -> CampaignSpec {
    let mut spec = CampaignSpec::new("ablation-link");
    spec.topologies = vec![TopologyKind::Quarc];
    spec.sizes = vec![16];
    spec.msg_lens = vec![16];
    spec.betas = vec![0.05];
    spec.link_latencies = vec![1, 2, 4];
    spec.rates = RateAxis::Explicit(vec![0.02]);
    spec.base_seed = 22;
    spec
}

/// Ablation: broadcast mechanism at growing β, below the Quarc knee so the
/// degradation is attributable to β alone.
fn ablation_beta() -> CampaignSpec {
    let mut spec = CampaignSpec::new("ablation-beta");
    spec.topologies = vec![TopologyKind::Quarc, TopologyKind::Spidergon];
    spec.sizes = vec![16];
    spec.msg_lens = vec![16];
    spec.betas = vec![0.0, 0.02, 0.05, 0.10, 0.20];
    spec.rates = RateAxis::Explicit(vec![0.008]);
    spec.base_seed = 23;
    spec
}

/// Ablation: output-arbitration policy (Quarc only) — round-robin vs fixed
/// priority at a fixed operating point, as a campaign axis so the results
/// ride the content-hashed cache like every other grid.
fn ablation_arb() -> CampaignSpec {
    let mut spec = CampaignSpec::new("ablation-arb");
    spec.topologies = vec![TopologyKind::Quarc];
    spec.sizes = vec![16];
    spec.msg_lens = vec![16];
    spec.betas = vec![0.05];
    spec.arbs = vec![ArbPolicy::RoundRobin, ArbPolicy::FixedPriority];
    spec.rates = RateAxis::Explicit(vec![0.008, 0.02]);
    spec.base_seed = 24;
    spec
}

/// The large-n scaling grid: all four topologies at n ∈ {256 … 16384} under
/// trickle loads (rate ≪ saturation) — the regime where the simulator's
/// active-set scheduling makes per-cycle cost track live traffic instead of
/// n. The top two sizes put every multicast bitstring on the slab (the
/// inline word stops at 63 positions), so this preset also tracks the
/// slab-row hot path at scale.
fn scale() -> CampaignSpec {
    let mut spec = CampaignSpec::new("scale");
    spec.topologies = figure_topologies();
    spec.sizes = vec![256, 1024, 4096, 16384];
    spec.msg_lens = vec![8];
    spec.betas = vec![0.05];
    spec.rates = RateAxis::Explicit(vec![0.0005, 0.001, 0.002]);
    spec.replications = 2;
    spec.base_seed = 41;
    spec
}

/// Adaptive saturation frontier across sizes: where each topology's knee
/// sits, found by bisection instead of a fixed sweep.
fn frontier() -> CampaignSpec {
    let mut spec = CampaignSpec::new("frontier");
    spec.topologies = vec![TopologyKind::Quarc, TopologyKind::Spidergon];
    spec.sizes = vec![16, 32, 64];
    spec.msg_lens = vec![16];
    spec.betas = vec![0.05];
    spec.rates = RateAxis::Saturation { rel_tol: 0.05, max_probes: 24 };
    spec.replications = 1;
    spec.base_seed = 31;
    spec
}

/// Robustness grid: fault rate × recovery × topology. Every family runs
/// healthy, with one then two permanent link failures, and with lossy links
/// dropping ~1.5% of packets — all below the healthy knee so any
/// delivered-fraction loss is attributable to the faults, not congestion —
/// each crossed with recovery off and on, so every curve has its reliable
/// twin (the off/on delta is the price of reliability; the on-plan
/// delivered fraction is its payoff). Frozen-router plans are deliberately
/// absent: they wedge the network by design and belong in the fail-soft
/// tests, not a preset meant to produce curves.
fn robustness() -> CampaignSpec {
    let mut spec = CampaignSpec::new("robustness");
    spec.topologies = figure_topologies();
    spec.sizes = vec![16];
    spec.msg_lens = vec![16];
    spec.betas = vec![0.05];
    spec.rates = RateAxis::Explicit(vec![0.004, 0.008]);
    spec.faults = vec![
        FaultPlan::NONE,
        FaultPlan { seed: 7, onset: 500, dead_links: 1, ..FaultPlan::NONE },
        FaultPlan { seed: 7, onset: 500, dead_links: 2, ..FaultPlan::NONE },
        FaultPlan { seed: 7, onset: 500, lossy_links: 2, drop_per_64k: 1000, ..FaultPlan::NONE },
    ];
    spec.recoveries = vec![
        RecoveryPolicy::NONE,
        RecoveryPolicy { seed: 13, ack_timeout: 600, max_retries: 8, jitter: 64 },
    ];
    spec.replications = 2;
    spec.base_seed = 51;
    spec
}

/// Look a preset up by name: its campaigns, in run order (`paper` is the
/// full Fig. 9–11 grid).
pub fn by_name(name: &str) -> Option<Vec<CampaignSpec>> {
    let spec = match name {
        "fig9" => fig9(),
        "fig10" => fig10(),
        "fig11" => fig11(),
        "ablation-buffer" => ablation_buffer(),
        "ablation-link" => ablation_link(),
        "ablation-beta" => ablation_beta(),
        "ablation-arb" => ablation_arb(),
        "scale" => scale(),
        "frontier" => frontier(),
        "robustness" => robustness(),
        "paper" => return Some(vec![fig9(), fig10(), fig11()]),
        _ => return None,
    };
    Some(vec![spec])
}

/// Every preset name, for `--help` and error messages.
pub const PRESET_NAMES: &[&str] = &[
    "fig9",
    "fig10",
    "fig11",
    "ablation-buffer",
    "ablation-link",
    "ablation-beta",
    "ablation-arb",
    "scale",
    "frontier",
    "robustness",
    "paper",
];

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn every_preset_expands() {
        for name in PRESET_NAMES {
            for spec in by_name(name).unwrap() {
                let exp = spec.expand().unwrap_or_else(|e| panic!("{name}: {e}"));
                assert!(!exp.points.is_empty(), "{name}");
            }
        }
        assert!(by_name("nope").is_none());
    }

    #[test]
    fn paper_grid_matches_figure_shapes() {
        // All four topologies on every figure since the mesh/torus multicast
        // tree landed. Fig. 9: 4 topologies × 3 M × 10 rates; Fig. 10:
        // 4 × 3 N × 10; Fig. 11: 4 × 3 β × 10 — and nothing skipped.
        let expansions: Vec<_> =
            by_name("paper").unwrap().iter().map(|s| s.expand().unwrap()).collect();
        let sizes: Vec<usize> = expansions.iter().map(|e| e.points.len()).collect();
        assert_eq!(sizes, vec![120, 120, 120]);
        assert!(expansions.iter().all(|e| e.skipped.is_empty()));
    }

    #[test]
    fn paper_presets_are_convergence_controlled() {
        // The Fig. 9–11 error bars are the paper's evidence; the presets pin
        // them to a 5% relative half-width instead of a fixed rep count.
        for spec in by_name("paper").unwrap() {
            assert_eq!(
                spec.convergence,
                Some(Convergence { target: CiTarget::Rel(0.05), max_reps: 64 }),
                "{}",
                spec.name
            );
        }
        // Ablations stay fixed-replication (single-point operating modes).
        assert_eq!(ablation_arb().convergence, None);
    }

    #[test]
    fn scale_preset_covers_the_large_n_axis() {
        let exp = scale().expand().unwrap();
        assert_eq!(exp.points.len(), 4 * 4 * 3); // topologies x sizes x rates
        assert!(exp.skipped.is_empty());
        let sizes: std::collections::HashSet<_> = exp.points.iter().map(|p| p.curve.n).collect();
        assert_eq!(sizes, std::collections::HashSet::from([256, 1024, 4096, 16384]));
    }

    #[test]
    fn robustness_preset_sweeps_fault_rate_by_topology() {
        let spec = robustness();
        let exp = spec.expand().unwrap();
        // 4 topologies × 4 fault plans × 2 recovery policies × 2 rates,
        // nothing skipped.
        assert_eq!(exp.points.len(), 4 * 4 * 2 * 2);
        assert!(exp.skipped.is_empty());
        // Healthy and faulted points coexist, and labels tell them apart.
        let faulted = exp.points.iter().filter(|p| !p.curve.fault.is_empty()).count();
        assert_eq!(faulted, 4 * 3 * 2 * 2);
        assert!(exp.points.iter().any(|p| !p.curve.to_string().contains("-F")));
        assert!(exp.points.iter().any(|p| p.curve.to_string().contains("-Fs7o500d1")));
        // Every curve has its reliable twin: the recovery axis splits the
        // grid exactly in half, and labels tell the halves apart.
        let recovered = exp.points.iter().filter(|p| p.curve.recovery.enabled()).count();
        assert_eq!(recovered * 2, exp.points.len());
        assert!(exp.points.iter().any(|p| p.curve.to_string().contains("-Rt600r8j64s13")));
        // The watchdog is armed: a preset full of fault plans must never
        // hang a campaign silently.
        assert!(spec.run.stall_window > 0);
    }

    #[test]
    fn arb_ablation_sweeps_both_policies() {
        let exp = ablation_arb().expand().unwrap();
        assert_eq!(exp.points.len(), 2 * 2); // 2 policies × 2 rates
        let policies: std::collections::HashSet<_> =
            exp.points.iter().map(|p| p.curve.arb).collect();
        assert_eq!(policies.len(), 2);
    }
}
