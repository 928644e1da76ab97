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

use crate::linkload::{mesh_loads, quarc_loads, spidergon_loads, LinkLoads};
use crate::mg1::{mg1_wait, DEFAULT_CV2};
use quarc_core::grid::{GridOut, GridTopology};
use quarc_core::ids::NodeId;
use quarc_core::quadrant::{quadrant_of, unicast_hops, Quadrant};
use quarc_core::ring::Ring;
use quarc_core::routing::spidergon_hops;
use quarc_core::vc::{quarc_route_channels, spidergon_route_channels};

/// Mean unicast latency of an `n`-node Quarc at rate `lambda` (messages per
/// node per cycle) with `m`-flit messages. `None` above saturation.
pub fn quarc_unicast_latency(n: usize, m: usize, lambda: f64) -> Option<f64> {
    let ring = Ring::new(n);
    let loads = quarc_loads(n);
    let m_f = m as f64;
    let wait = |count: usize| -> Option<f64> {
        let rho = lambda * count as f64 / (n - 1) as f64 * m_f;
        mg1_wait(rho, m_f, DEFAULT_CV2)
    };
    // Per-quadrant injection-port waiting.
    let mut port_wait = [0.0f64; 4];
    for quad in Quadrant::ALL {
        let dests = ring
            .nodes()
            .filter(|&t| t != NodeId(0) && quadrant_of(&ring, NodeId(0), t) == quad)
            .count();
        // The port's arrival rate is the quadrant's share of the node's λ.
        port_wait[quad.index()] = wait(dests)?;
    }
    let src = NodeId(0);
    let mut total = 0.0;
    for t in ring.nodes() {
        if t == src {
            continue;
        }
        let d = unicast_hops(&ring, src, t) as f64;
        let quad = quadrant_of(&ring, src, t);
        let mut l = 1.0 + d + (m_f - 1.0) + port_wait[quad.index()];
        for (link, _vc) in quarc_route_channels(&ring, src, t) {
            l += wait(loads.count(link))?;
        }
        total += l;
    }
    Some(total / (n - 1) as f64)
}

/// Mean unicast latency of an `n`-node Spidergon. `None` above saturation.
pub fn spidergon_unicast_latency(n: usize, m: usize, lambda: f64) -> Option<f64> {
    let ring = Ring::new(n);
    let loads = spidergon_loads(n);
    let m_f = m as f64;
    let wait = |count: usize| -> Option<f64> {
        let rho = lambda * count as f64 / (n - 1) as f64 * m_f;
        mg1_wait(rho, m_f, DEFAULT_CV2)
    };
    // Single injection port carries the node's entire λ.
    let src_wait = mg1_wait(lambda * m_f, m_f, DEFAULT_CV2)?;
    let src = NodeId(0);
    let mut total = 0.0;
    for t in ring.nodes() {
        if t == src {
            continue;
        }
        let d = spidergon_hops(&ring, src, t) as f64;
        let mut l = 1.0 + d + (m_f - 1.0) + src_wait;
        for (link, _vc) in spidergon_route_channels(&ring, src, t) {
            l += wait(loads.count(link))?;
        }
        total += l;
    }
    Some(total / (n - 1) as f64)
}

/// Mean unicast latency of a mesh under XY routing. `None` above saturation.
/// The mesh is not vertex-symmetric, so all sources are averaged.
pub fn mesh_unicast_latency(topo: &GridTopology, m: usize, lambda: f64) -> Option<f64> {
    let n = topo.num_nodes();
    let loads: LinkLoads = mesh_loads(topo);
    let m_f = m as f64;
    let wait = |count: usize| -> Option<f64> {
        let rho = lambda * count as f64 / (n - 1) as f64 * m_f;
        mg1_wait(rho, m_f, DEFAULT_CV2)
    };
    let src_wait = mg1_wait(lambda * m_f, m_f, DEFAULT_CV2)?;
    let mut total = 0.0;
    for s in 0..n {
        for t in 0..n {
            if s == t {
                continue;
            }
            let (src, dst) = (NodeId::new(s), NodeId::new(t));
            let d = topo.hops(src, dst) as f64;
            let mut l = 1.0 + d + (m_f - 1.0) + src_wait;
            let mut cur = src;
            loop {
                let out = topo.route(cur, dst);
                if out == GridOut::Eject {
                    break;
                }
                l += wait(loads.count((cur.index() * 4 + out.index()) as u64))?;
                cur = topo.link_target(cur, out).expect("route stays on the grid");
            }
            total += l;
        }
    }
    Some(total / (n * (n - 1)) as f64)
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
