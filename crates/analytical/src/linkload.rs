//! Per-link route counting under uniform traffic.
//!
//! For a vertex-symmetric topology with deterministic routing, the number of
//! source/destination pairs whose route traverses each physical channel fully
//! determines channel utilisations — and the *imbalance* of these counts is
//! the paper's §2.1 critique of the Spidergon ("the edge-asymmetric property
//! of the Spidergon causes the number of messages that cross each physical
//! link to vary severely").

use quarc_core::grid::{GridOut, GridTopology};
use quarc_core::ids::NodeId;
use quarc_core::ring::Ring;
use quarc_core::vc::{quarc_route_channels, spidergon_route_channels};
use std::collections::HashMap;

/// Route counts per directed physical link (both VCs merged: they share the
/// wire).
#[derive(Debug, Clone)]
pub struct LinkLoads {
    /// `link id → number of (src, dst) pairs routed through it`.
    counts: HashMap<u64, usize>,
    /// Number of ordered pairs considered (`n(n−1)`).
    pairs: usize,
}

impl LinkLoads {
    /// Pairs crossing the given link.
    pub fn count(&self, link: u64) -> usize {
        self.counts.get(&link).copied().unwrap_or(0)
    }

    /// The largest per-link count — the bottleneck channel.
    pub fn max_count(&self) -> usize {
        self.counts.values().copied().max().unwrap_or(0)
    }

    /// Mean count over links that carry any traffic.
    pub fn mean_count(&self) -> f64 {
        if self.counts.is_empty() {
            return 0.0;
        }
        self.counts.values().sum::<usize>() as f64 / self.counts.len() as f64
    }

    /// Max/mean ratio: 1.0 for perfectly balanced (edge-symmetric) load.
    pub fn imbalance(&self) -> f64 {
        let mean = self.mean_count();
        if mean == 0.0 {
            return 1.0;
        }
        self.max_count() as f64 / mean
    }

    /// Ordered pairs considered.
    pub fn pairs(&self) -> usize {
        self.pairs
    }

    /// Iterate `(link id, count)`.
    pub fn iter(&self) -> impl Iterator<Item = (u64, usize)> + '_ {
        self.counts.iter().map(|(&l, &c)| (l, c))
    }
}

/// Link loads of an `n`-node Quarc under uniform all-pairs traffic.
pub fn quarc_loads(n: usize) -> LinkLoads {
    let ring = Ring::new(n);
    let mut counts = HashMap::new();
    for s in ring.nodes() {
        for t in ring.nodes() {
            if s != t {
                for (link, _vc) in quarc_route_channels(&ring, s, t) {
                    *counts.entry(link).or_insert(0) += 1;
                }
            }
        }
    }
    LinkLoads { counts, pairs: n * (n - 1) }
}

/// Link loads of an `n`-node Spidergon under uniform all-pairs traffic.
pub fn spidergon_loads(n: usize) -> LinkLoads {
    let ring = Ring::new(n);
    let mut counts = HashMap::new();
    for s in ring.nodes() {
        for t in ring.nodes() {
            if s != t {
                for (link, _vc) in spidergon_route_channels(&ring, s, t) {
                    *counts.entry(link).or_insert(0) += 1;
                }
            }
        }
    }
    LinkLoads { counts, pairs: n * (n - 1) }
}

/// Link loads of a mesh (or torus) under uniform all-pairs dimension-ordered
/// traffic. Link ids encode `node * 4 + out`.
pub fn mesh_loads(topo: &GridTopology) -> LinkLoads {
    let n = topo.num_nodes();
    let mut counts = HashMap::new();
    for s in 0..n {
        for t in 0..n {
            if s == t {
                continue;
            }
            let (src, dst) = (NodeId::new(s), NodeId::new(t));
            let mut cur = src;
            loop {
                let out = topo.route(cur, dst);
                if out == GridOut::Eject {
                    break;
                }
                *counts.entry((cur.index() * 4 + out.index()) as u64).or_insert(0) += 1;
                cur = topo.link_target(cur, out).expect("route stays on the grid");
            }
        }
    }
    LinkLoads { counts, pairs: n * (n - 1) }
}

#[cfg(test)]
mod tests {
    use super::*;
    use quarc_core::vc::{ring_link_id, RingLinkKind};

    #[test]
    fn quarc_is_edge_balanced_on_rims_and_crosses() {
        // Quarc's whole point: vertex AND edge symmetry. All CW rim links
        // carry identical load; both cross links at a node carry identical
        // load too.
        let loads = quarc_loads(16);
        let cw0 = loads.count(ring_link_id(NodeId(0), RingLinkKind::RimCw));
        for node in 0..16u32 {
            assert_eq!(loads.count(ring_link_id(NodeId(node), RingLinkKind::RimCw)), cw0);
        }
        let xr = loads.count(ring_link_id(NodeId(0), RingLinkKind::CrossRight));
        let xl = loads.count(ring_link_id(NodeId(0), RingLinkKind::CrossLeft));
        // The two cross directions serve q and q−1 destinations respectively.
        assert!((xr as i64 - xl as i64).abs() <= 16_i64, "xr={xr} xl={xl}");
    }

    #[test]
    fn spidergon_cross_carries_double() {
        // The Spidergon spoke serves both cross quadrants; Quarc splits them.
        let s = spidergon_loads(16);
        let q = quarc_loads(16);
        let s_cross = s.count(ring_link_id(NodeId(0), RingLinkKind::CrossRight));
        let q_xr = q.count(ring_link_id(NodeId(0), RingLinkKind::CrossRight));
        let q_xl = q.count(ring_link_id(NodeId(0), RingLinkKind::CrossLeft));
        assert_eq!(s_cross, q_xr + q_xl, "spoke load must equal the sum of the split");
        assert!(s_cross > q_xr && s_cross > q_xl);
    }

    #[test]
    fn cross_capacity_doubling_halves_cross_utilisation() {
        // The paper's §2.2 change (i): with the spoke doubled, each physical
        // cross channel carries roughly half the Spidergon spoke's traffic,
        // "improving access to the cross-network nodes".
        for n in [16usize, 32, 64] {
            let s = spidergon_loads(n);
            let q = quarc_loads(n);
            let spoke = s.count(ring_link_id(NodeId(0), RingLinkKind::CrossRight));
            let worst_quarc_cross = q
                .count(ring_link_id(NodeId(0), RingLinkKind::CrossRight))
                .max(q.count(ring_link_id(NodeId(0), RingLinkKind::CrossLeft)));
            assert!(
                (worst_quarc_cross as f64) < 0.6 * spoke as f64,
                "n={n}: quarc cross {worst_quarc_cross} vs spoke {spoke}"
            );
        }
    }

    #[test]
    fn imbalance_metric_sane() {
        for n in [16usize, 32, 64] {
            assert!(spidergon_loads(n).imbalance() >= 1.0);
            assert!(quarc_loads(n).imbalance() >= 1.0);
        }
    }

    #[test]
    fn total_link_traversals_equal_total_hops() {
        // Σ link counts = Σ over pairs of hop count.
        let ring = Ring::new(16);
        let loads = quarc_loads(16);
        let total: usize = loads.iter().map(|(_, c)| c).sum();
        let hops: usize = ring
            .nodes()
            .flat_map(|s| {
                ring.nodes().map(move |t| quarc_core::quadrant::unicast_hops(&ring, s, t))
            })
            .sum();
        assert_eq!(total, hops);
    }

    #[test]
    fn mesh_center_links_busier_than_edges() {
        let topo = GridTopology::mesh(4, 4);
        let loads = mesh_loads(&topo);
        // East link out of (0,0) vs east link out of (1,1) — centre is busier
        // under XY routing.
        let edge = loads.count((topo.node_at(0, 0).index() * 4) as u64);
        let centre = loads.count((topo.node_at(1, 1).index() * 4) as u64);
        assert!(centre > edge, "centre {centre} vs edge {edge}");
    }
}
