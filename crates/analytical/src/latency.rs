//! Mean-latency models and saturation bounds.
//!
//! These play the role of the paper's ref. \[8\] analytical models: an
//! independent prediction the flit-level simulator must agree with at low and
//! moderate load ("The simulator has been verified extensively against
//! analytical models for the Spidergon and mesh topologies employing
//! wormhole routing", §3.2). Root-workspace integration tests assert the
//! agreement.
//!
//! ## Unicast model
//!
//! One model for every topology, over its [`Routing`]: uniform traffic at
//! `λ` messages/node/cycle, messages of `M` flits. Every physical channel
//! `l` is an M/G/1 queue with arrival rate `λ·C_l/(n−1)` (where `C_l`
//! counts source/destination pairs routed through `l`) and deterministic
//! service `M`. So is every injection queue `q` of a source, with `C_q` the
//! destinations [`Routing::unicast_queue`] sends through it: the Quarc
//! splits injection over four quadrant queues, the Spidergon and the grids
//! funnel all of it through one — which is exactly why the Spidergon's
//! source waiting explodes first. A pair's latency is
//!
//! ```text
//! L(s,t) = 1 (injection) + d(s,t) (header pipeline) + (M−1) (serialisation)
//!        + W_port(queue(s,t)) + Σ_{l ∈ route(s,t)} W_l
//! ```
//!
//! averaged over all pairs, walked from node 0 alone where the topology is
//! [`Routing::VERTEX_TRANSITIVE`].
//!
//! ## Saturation bound
//!
//! The offered rate at which the busiest of those queues, link or
//! injection, reaches utilisation 1: `1 / (M · max(C_l, C_q) / (n−1))`.
//!
//! ## Zero-load broadcast
//!
//! * Quarc (§2.5.2): four parallel streams leave the source in the cycle the
//!   message is created; the slowest travels `n/4` hops, one cycle each,
//!   and its tail arrives `M−1` cycles behind its header: `n/4 + (M−1)`,
//!   exactly what the simulator counts for a lone broadcast (and for a lone
//!   unicast over `n/4` hops, which the unicast model's injection term puts
//!   one cycle higher).
//! * Spidergon (ref. \[9\] chains, §2.2): the source streams three seed packets
//!   back-to-back through its single port (`3M` cycles for the cross seed to
//!   even leave), then each replication hop costs a full store-and-forward
//!   `M + 2` (hop + serialisation + header rewrite):
//!   `≈ 3M + 2 + (n/4 − 1)(M + 2)`.

use crate::linkload::{sources, LinkLoads};
use crate::mg1::{mg1_wait, DEFAULT_CV2};
use quarc_core::ids::NodeId;
use quarc_core::routing::Routing;
use quarc_core::topology::QuarcTopology;

/// M/G/1 waiting time of a channel `count` of the `n − 1` destinations of
/// each source route through, at rate `lambda` with `m`-flit messages.
fn wait(n: usize, m: usize, lambda: f64, count: usize) -> Option<f64> {
    let m_f = m as f64;
    // A channel every destination takes carries the node's whole λ, which
    // `λ·(n−1)/(n−1)` can miss by an ulp.
    let rate = if count == n - 1 { lambda } else { lambda * count as f64 / (n - 1) as f64 };
    mg1_wait(rate * m_f, m_f, DEFAULT_CV2)
}

/// How many of `src`'s `n − 1` destinations enter each of its local queues
/// ([`Routing::unicast_queue`]), indexed by queue.
fn queue_counts<R: Routing>(topo: &R, src: NodeId) -> Vec<usize> {
    let mut counts = Vec::new();
    for t in (0..topo.num_nodes()).map(NodeId::new).filter(|&t| t != src) {
        let queue = topo.unicast_queue(src, t);
        if counts.len() <= queue {
            counts.resize(queue + 1, 0);
        }
        counts[queue] += 1;
    }
    counts
}

/// The offered rate (messages per node per cycle, `m`-flit messages) at
/// which the first resource of `topo` saturates under uniform unicast
/// traffic: the busier of its busiest link and its busiest injection queue.
pub fn saturation_rate<R: Routing>(topo: &R, m: usize) -> f64 {
    let n = topo.num_nodes();
    let link = LinkLoads::uniform(topo).max_count();
    let queue = sources(topo).flat_map(|s| queue_counts(topo, s)).max().unwrap_or(0);
    1.0 / (m as f64 * (link.max(queue) as f64 / (n - 1) as f64))
}

/// Mean unicast latency of `topo` at rate `lambda` (messages per node per
/// cycle) with `m`-flit messages: the module doc's `L(s,t)` over every
/// ordered pair, or every pair from node 0 on a
/// [`Routing::VERTEX_TRANSITIVE`] topology. An injection queue waits as a
/// channel its share of the destinations route through. `None` above
/// saturation.
pub fn unicast_latency<R: Routing>(topo: &R, m: usize, lambda: f64) -> Option<f64> {
    let n = topo.num_nodes();
    let loads = LinkLoads::uniform(topo);
    let (mut total, mut pairs, mut route) = (0.0, 0, Vec::new());
    for s in sources(topo) {
        let port_wait: Vec<_> =
            queue_counts(topo, s).into_iter().map(|count| wait(n, m, lambda, count)).collect();
        for t in (0..n).map(NodeId::new).filter(|&t| t != s) {
            route.clear();
            topo.walk_unicast(s, t, |node, hop| route.push(loads.count(node, hop.out as usize)));
            let d = route.len() as f64;
            let mut l = 1.0 + d + (m as f64 - 1.0) + port_wait[topo.unicast_queue(s, t)]?;
            for &count in &route {
                l += wait(n, m, lambda, count)?;
            }
            total += l;
            pairs += 1;
        }
    }
    Some(total / pairs as f64)
}

/// [`unicast_latency`] of an `n`-node Quarc.
pub fn quarc_unicast_latency(n: usize, m: usize, lambda: f64) -> Option<f64> {
    unicast_latency(&QuarcTopology::new(n), m, lambda)
}

/// [`saturation_rate`] of an `n`-node Quarc.
pub fn quarc_saturation_rate(n: usize, m: usize) -> f64 {
    saturation_rate(&QuarcTopology::new(n), m)
}

/// Zero-load Quarc broadcast completion latency.
pub fn quarc_broadcast_zero_load(n: usize, m: usize) -> f64 {
    n as f64 / 4.0 + (m as f64 - 1.0)
}

/// Zero-load Spidergon broadcast completion latency (ref. \[9\] chain
/// algorithm; see module docs for the derivation).
pub fn spidergon_broadcast_zero_load(n: usize, m: usize) -> f64 {
    let q = n as f64 / 4.0;
    3.0 * m as f64 + 2.0 + (q - 1.0) * (m as f64 + 2.0)
}

#[cfg(test)]
mod tests {
    use super::*;
    use quarc_core::grid::GridTopology;
    use quarc_core::quadrant::unicast_hops;
    use quarc_core::ring::Ring;
    use quarc_core::topology::SpidergonTopology;

    #[test]
    fn zero_load_limits_match_hop_formulas() {
        let ring = Ring::new(16);
        let mean_d: f64 = ring
            .nodes()
            .filter(|&t| t != NodeId(0))
            .map(|t| unicast_hops(&ring, NodeId(0), t) as f64)
            .sum::<f64>()
            / 15.0;
        let l = quarc_unicast_latency(16, 8, 1e-9).unwrap();
        assert!((l - (1.0 + mean_d + 7.0)).abs() < 1e-3, "zero-load {l}");
    }

    #[test]
    fn latency_increases_with_rate() {
        let mut prev = 0.0;
        for rate in [0.001, 0.005, 0.01, 0.02] {
            let l = quarc_unicast_latency(16, 8, rate).unwrap();
            assert!(l > prev);
            prev = l;
        }
    }

    #[test]
    fn spidergon_latency_at_least_quarc() {
        for rate in [0.001, 0.01, 0.02] {
            let q = quarc_unicast_latency(16, 16, rate).unwrap();
            let s = unicast_latency(&SpidergonTopology::new(16), 16, rate).unwrap();
            assert!(s >= q - 1e-9, "rate {rate}: spidergon {s} < quarc {q}");
        }
    }

    #[test]
    fn saturation_bound_shared_by_both_architectures() {
        // Quarc preserves Spidergon's shortest paths, so under uniform
        // unicast the *capacity* bottleneck (the rim links) is identical and
        // the crude saturation bounds coincide. The Quarc advantage the
        // simulator shows near saturation comes from queueing and blocking
        // (single vs quadrant injection ports), not raw link capacity.
        for n in [16usize, 32, 64] {
            for m in [8usize, 16, 32] {
                let q = quarc_saturation_rate(n, m);
                let s = saturation_rate(&SpidergonTopology::new(n), m);
                assert!(q >= s - 1e-12, "n={n} m={m}: quarc {q} < spidergon {s}");
                assert!(q < 1.0 && s < 1.0);
            }
        }
    }

    #[test]
    fn spidergon_port_runs_much_hotter_than_quarc_ports() {
        // At equal offered load the single Spidergon port's utilisation is
        // ~4× any Quarc quadrant port's — the root of the factor-2 latency
        // gap before saturation.
        let (n, m, rate) = (16usize, 16usize, 0.04);
        let spi_port_rho = rate * m as f64; // whole λ through one port
        let quarc_worst_share = (n as f64 / 4.0) / (n - 1) as f64;
        let quarc_port_rho = rate * quarc_worst_share * m as f64;
        assert!(spi_port_rho > 3.0 * quarc_port_rho);
        // And that asymmetry shows up in the model's latencies at loads
        // approaching (but below) the shared link-saturation bound ~0.0586.
        let q = quarc_unicast_latency(n, m, rate).unwrap();
        let s = unicast_latency(&SpidergonTopology::new(n), m, rate).unwrap();
        assert!(s > q + 5.0, "spidergon {s} vs quarc {q}");
    }

    #[test]
    fn model_unstable_above_saturation() {
        fn check<R: Routing>(topo: &R, m: usize) {
            let sat = saturation_rate(topo, m);
            assert!(unicast_latency(topo, m, sat * 1.05).is_none(), "n={}", topo.num_nodes());
            assert!(unicast_latency(topo, m, sat * 0.5).is_some(), "n={}", topo.num_nodes());
        }
        check(&SpidergonTopology::new(16), 16);
        for n in [16, 64] {
            check(&GridTopology::square_torus(n), 8);
        }
    }

    #[test]
    fn broadcast_gap_is_order_of_magnitude_at_64() {
        let q = quarc_broadcast_zero_load(64, 16);
        let s = spidergon_broadcast_zero_load(64, 16);
        assert!(s / q > 8.0, "gap {}", s / q);
        // And still large at the smallest evaluated size.
        let q16 = quarc_broadcast_zero_load(16, 8);
        let s16 = spidergon_broadcast_zero_load(16, 8);
        assert!(s16 / q16 > 3.0);
    }

    #[test]
    fn mesh_model_zero_load() {
        let topo = GridTopology::mesh(4, 4);
        let l = unicast_latency(&topo, 8, 1e-9).unwrap();
        // Mean Manhattan distance over ordered pairs s ≠ t of a 4×4 mesh:
        // E[|dx|+|dy|] = 2.5 including s = t, rescaled by 256/240.
        let mean_d = 2.5 * 256.0 / 240.0;
        let expect = 1.0 + mean_d + 7.0;
        assert!((l - expect).abs() < 1e-3, "{l} vs {expect}");
    }

    #[test]
    fn saturation_decreases_with_message_length() {
        assert!(quarc_saturation_rate(16, 8) > quarc_saturation_rate(16, 16));
        assert!(quarc_saturation_rate(16, 16) > quarc_saturation_rate(16, 32));
    }

    #[test]
    fn torus_bound_lies_between_the_mesh_and_the_port() {
        // The wrap links relieve the mesh's busiest (centre) links, so the
        // torus saturates no earlier than the mesh of the same side, and no
        // later than its one injection queue allows: that queue carries the
        // whole λ of M-flit messages.
        let m = 8;
        for n in [16usize, 64] {
            let torus = saturation_rate(&GridTopology::square_torus(n), m);
            let mesh = saturation_rate(&GridTopology::square_mesh(n), m);
            assert!(mesh <= torus && torus <= 1.0 / m as f64, "n={n}: {mesh} {torus}");
        }
    }
}
