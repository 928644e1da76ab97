//! Per-link route counting under uniform traffic.
//!
//! For a vertex-symmetric topology with deterministic routing, the number of
//! source/destination pairs whose route traverses each physical channel fully
//! determines channel utilisations — and the *imbalance* of these counts is
//! the paper's §2.1 critique of the Spidergon ("the edge-asymmetric property
//! of the Spidergon causes the number of messages that cross each physical
//! link to vary severely").

use quarc_core::grid::GridTopology;
use quarc_core::ids::NodeId;
use quarc_core::routing::Routing;
use quarc_core::topology::{QuarcTopology, SpidergonTopology};

/// Route counts per directed physical link (both VCs merged: they share the
/// wire).
#[derive(Debug, Clone)]
pub struct LinkLoads {
    /// Pairs routed through each link, indexed `node * ports + out`.
    counts: Vec<usize>,
    /// Network ports per router.
    ports: usize,
}

impl LinkLoads {
    /// Loads of `topo` under uniform all-pairs traffic, walking each route
    /// with the topology's own [`Routing`]. A vertex-transitive topology
    /// (rotating the ring maps routes onto routes) walks from source 0 only:
    /// every link of port `p` then carries that source's port-`p` total.
    pub fn uniform<R: Routing>(topo: &R, vertex_transitive: bool) -> Self {
        let n = topo.num_nodes();
        let mut counts = vec![0; n * R::PORTS];
        for s in (0..if vertex_transitive { 1 } else { n }).map(NodeId::new) {
            for t in (0..n).map(NodeId::new).filter(|&t| t != s) {
                topo.walk_unicast(s, t, |node, hop| {
                    counts[node * R::PORTS + hop.out as usize] += 1
                });
            }
        }
        if vertex_transitive {
            let totals: Vec<usize> =
                (0..R::PORTS).map(|p| counts.iter().skip(p).step_by(R::PORTS).sum()).collect();
            counts.iter_mut().enumerate().for_each(|(link, c)| *c = totals[link % R::PORTS]);
        }
        LinkLoads { counts, ports: R::PORTS }
    }

    /// Pairs crossing the link leaving `node` through port `out`.
    pub fn count(&self, node: usize, out: usize) -> usize {
        self.counts[node * self.ports + out]
    }

    /// The largest per-link count — the bottleneck channel.
    pub fn max_count(&self) -> usize {
        self.iter().max().unwrap_or(0)
    }

    /// Mean count over links that carry any traffic.
    pub fn mean_count(&self) -> f64 {
        let (sum, used) = self.iter().filter(|&c| c > 0).fold((0, 0), |(s, u), c| (s + c, u + 1));
        if used == 0 {
            return 0.0;
        }
        sum as f64 / used as f64
    }

    /// Max/mean ratio: 1.0 for perfectly balanced (edge-symmetric) load.
    pub fn imbalance(&self) -> f64 {
        let mean = self.mean_count();
        if mean == 0.0 {
            return 1.0;
        }
        self.max_count() as f64 / mean
    }

    /// Every link's count, in `node * ports + out` order.
    pub fn iter(&self) -> impl Iterator<Item = usize> + '_ {
        self.counts.iter().copied()
    }
}

/// Link loads of an `n`-node Quarc under uniform all-pairs traffic.
pub fn quarc_loads(n: usize) -> LinkLoads {
    LinkLoads::uniform(&QuarcTopology::new(n), true)
}

/// Link loads of an `n`-node Spidergon under uniform all-pairs traffic.
pub fn spidergon_loads(n: usize) -> LinkLoads {
    LinkLoads::uniform(&SpidergonTopology::new(n), true)
}

/// Link loads of a mesh (or torus) under uniform all-pairs dimension-ordered
/// traffic, walked from every source.
pub fn mesh_loads(topo: &GridTopology) -> LinkLoads {
    LinkLoads::uniform(topo, false)
}

#[cfg(test)]
mod tests {
    use super::*;
    use quarc_core::grid::GridOut;
    use quarc_core::ring::Ring;
    use quarc_core::topology::{QuarcOut, SpiOut};

    #[test]
    fn quarc_is_edge_balanced_on_rims_and_crosses() {
        // Quarc's whole point: vertex AND edge symmetry. All CW rim links
        // carry identical load; both cross links at a node carry identical
        // load too.
        let loads = quarc_loads(16);
        let cw0 = loads.count(0, QuarcOut::RimCw.index());
        for node in 0..16 {
            assert_eq!(loads.count(node, QuarcOut::RimCw.index()), cw0);
        }
        let xr = loads.count(0, QuarcOut::CrossRight.index());
        let xl = loads.count(0, QuarcOut::CrossLeft.index());
        // The two cross directions serve q and q−1 destinations respectively.
        assert!((xr as i64 - xl as i64).abs() <= 16_i64, "xr={xr} xl={xl}");
    }

    #[test]
    fn spidergon_cross_carries_double() {
        // The Spidergon spoke serves both cross quadrants; Quarc splits them.
        let s = spidergon_loads(16);
        let q = quarc_loads(16);
        let s_cross = s.count(0, SpiOut::Cross.index());
        let q_xr = q.count(0, QuarcOut::CrossRight.index());
        let q_xl = q.count(0, QuarcOut::CrossLeft.index());
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
            let spoke = s.count(0, SpiOut::Cross.index());
            let worst_quarc_cross = q
                .count(0, QuarcOut::CrossRight.index())
                .max(q.count(0, QuarcOut::CrossLeft.index()));
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
        let total: usize = loads.iter().sum();
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
        let edge = loads.count(topo.node_at(0, 0).index(), GridOut::XPlus.index());
        let centre = loads.count(topo.node_at(1, 1).index(), GridOut::XPlus.index());
        assert!(centre > edge, "centre {centre} vs edge {edge}");
    }
}
