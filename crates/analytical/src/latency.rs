//! Closed-form mean-latency models.
//!
//! These play the role of the paper's ref. [8] analytical models: an
//! independent prediction the flit-level simulator must agree with at low and
//! moderate load ("The simulator has been verified extensively against
//! analytical models for the Spidergon and mesh topologies employing
//! wormhole routing", §3.2). Root-workspace integration tests assert the
//! agreement.
//!
//! ## Unicast model
//!
//! Uniform traffic at `λ` messages/node/cycle, messages of `M` flits. Every
//! physical channel `l` is an M/G/1 queue with arrival rate
//! `λ·C_l/(n−1)` (where `C_l` counts source/destination pairs routed through
//! `l`) and deterministic service `M`; injection ports likewise (the Quarc
//! splits injection over four quadrant ports, the Spidergon funnels all of it
//! through one — which is exactly why its source waiting explodes first).
//! A pair's latency is
//!
//! ```text
//! L(s,t) = 1 (injection) + d(s,t) (header pipeline) + (M−1) (serialisation)
//!        + W_port(quadrant(s,t)) + Σ_{l ∈ route(s,t)} W_l
//! ```
//!
//! averaged over all pairs from a representative source (the topologies are
//! vertex-symmetric).
//!
//! ## Zero-load broadcast
//!
//! * Quarc (§2.5.2): four parallel streams, slowest travels `n/4` hops:
//!   `1 + n/4 + (M−1)`.
//! * Spidergon (ref. [9] chains, §2.2): the source streams three seed packets
//!   back-to-back through its single port (`3M` cycles for the cross seed to
//!   even leave), then each replication hop costs a full store-and-forward
//!   `M + 2` (hop + serialisation + header rewrite):
//!   `≈ 3M + 2 + (n/4 − 1)(M + 2)`.

use crate::linkload::{quarc_loads, spidergon_loads, LinkLoads};
use crate::mg1::{mg1_wait, DEFAULT_CV2};
use quarc_core::grid::GridTopology;
use quarc_core::ids::NodeId;
use quarc_core::routing::Routing;
use quarc_core::topology::{QuarcTopology, SpidergonTopology};

/// M/G/1 waiting time of a channel `count` of the `n − 1` destinations of
/// each source route through, at rate `lambda` with `m`-flit messages.
fn wait(n: usize, m: usize, lambda: f64, count: usize) -> Option<f64> {
    let m_f = m as f64;
    mg1_wait(lambda * count as f64 / (n - 1) as f64 * m_f, m_f, DEFAULT_CV2)
}

/// The module-level latency `L(s,t)` averaged over every destination of
/// source 0 (`vertex_transitive`) or of every source, each route and its
/// link loads walked with `topo`'s [`Routing`]. `port_wait(queue)` is the
/// injection port's waiting time. `None` above saturation.
fn mean_latency<R: Routing>(
    topo: &R,
    vertex_transitive: bool,
    m: usize,
    lambda: f64,
    port_wait: impl Fn(usize) -> Option<f64>,
) -> Option<f64> {
    let n = topo.num_nodes();
    let loads = LinkLoads::uniform(topo, vertex_transitive);
    let sources = if vertex_transitive { 1 } else { n };
    let (mut total, mut route) = (0.0, Vec::new());
    for s in (0..sources).map(NodeId::new) {
        for t in (0..n).map(NodeId::new).filter(|&t| t != s) {
            route.clear();
            topo.walk_unicast(s, t, |node, hop| route.push(loads.count(node, hop.out as usize)));
            let d = route.len() as f64;
            let mut l = 1.0 + d + (m as f64 - 1.0) + port_wait(topo.unicast_queue(s, t))?;
            for &count in &route {
                l += wait(n, m, lambda, count)?;
            }
            total += l;
        }
    }
    Some(total / (sources * (n - 1)) as f64)
}

/// Mean unicast latency of an `n`-node Quarc at rate `lambda` (messages per
/// node per cycle) with `m`-flit messages. `None` above saturation.
pub fn quarc_unicast_latency(n: usize, m: usize, lambda: f64) -> Option<f64> {
    let topo = QuarcTopology::new(n);
    // Per-quadrant injection-port waiting: the port's arrival rate is the
    // quadrant's share of the node's λ.
    let mut dests = [0; 4];
    for t in (1..n).map(NodeId::new) {
        dests[topo.unicast_queue(NodeId(0), t)] += 1;
    }
    let port_wait = dests.map(|count| wait(n, m, lambda, count));
    mean_latency(&topo, true, m, lambda, |quadrant| port_wait[quadrant])
}

/// Mean unicast latency of an `n`-node Spidergon. `None` above saturation.
pub fn spidergon_unicast_latency(n: usize, m: usize, lambda: f64) -> Option<f64> {
    // Single injection port carries the node's entire λ.
    let src_wait = mg1_wait(lambda * m as f64, m as f64, DEFAULT_CV2);
    mean_latency(&SpidergonTopology::new(n), true, m, lambda, |_| src_wait)
}

/// Mean unicast latency of a mesh under XY routing. `None` above saturation.
/// The mesh is not vertex-symmetric, so all sources are averaged.
pub fn mesh_unicast_latency(topo: &GridTopology, m: usize, lambda: f64) -> Option<f64> {
    let src_wait = mg1_wait(lambda * m as f64, m as f64, DEFAULT_CV2);
    mean_latency(topo, false, m, lambda, |_| src_wait)
}

/// Zero-load Quarc broadcast completion latency.
pub fn quarc_broadcast_zero_load(n: usize, m: usize) -> f64 {
    1.0 + (n as f64 / 4.0) + (m as f64 - 1.0)
}

/// Zero-load Spidergon broadcast completion latency (ref. [9] chain
/// algorithm; see module docs for the derivation).
pub fn spidergon_broadcast_zero_load(n: usize, m: usize) -> f64 {
    let q = n as f64 / 4.0;
    3.0 * m as f64 + 2.0 + (q - 1.0) * (m as f64 + 2.0)
}

/// The offered rate at which the first Quarc resource saturates.
pub fn quarc_saturation_rate(n: usize, m: usize) -> f64 {
    let loads = quarc_loads(n);
    let link_share = loads.max_count() as f64 / (n - 1) as f64;
    // Worst injection port serves n/4 of the n−1 destinations.
    let port_share = (n as f64 / 4.0) / (n - 1) as f64;
    1.0 / (m as f64 * link_share.max(port_share))
}

/// The offered rate at which the first Spidergon resource saturates.
pub fn spidergon_saturation_rate(n: usize, m: usize) -> f64 {
    let loads = spidergon_loads(n);
    let link_share = loads.max_count() as f64 / (n - 1) as f64;
    let port_share = 1.0; // the single port carries everything
    1.0 / (m as f64 * link_share.max(port_share))
}

#[cfg(test)]
mod tests {
    use super::*;
    use quarc_core::quadrant::unicast_hops;
    use quarc_core::ring::Ring;

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
            let s = spidergon_unicast_latency(16, 16, rate).unwrap();
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
                let s = spidergon_saturation_rate(n, m);
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
        let s = spidergon_unicast_latency(n, m, rate).unwrap();
        assert!(s > q + 5.0, "spidergon {s} vs quarc {q}");
    }

    #[test]
    fn model_unstable_above_saturation() {
        let sat = spidergon_saturation_rate(16, 16);
        assert!(spidergon_unicast_latency(16, 16, sat * 1.05).is_none());
        assert!(spidergon_unicast_latency(16, 16, sat * 0.5).is_some());
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
        let l = mesh_unicast_latency(&topo, 8, 1e-9).unwrap();
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
}
