//! Switch- and transceiver-level area composition for both architectures.

use crate::model::{
    buffer_lane_slices, crossbar_slices, fcu_slices, input_buffers_slices, opc_slices_each,
    rewrite_unit_slices, routing_logic_slices, vc_arbiter_slices, write_controller_slices,
    SwitchParams,
};
use quarc_core::topology::{QuarcOut, QuarcTopology, SpiOut, SpidergonTopology};
use std::fmt;

/// One named module's slice estimate.
#[derive(Debug, Clone, PartialEq)]
pub struct ModuleArea {
    /// Module name (Table 1 vocabulary).
    pub name: &'static str,
    /// Estimated Virtex-II Pro slices.
    pub slices: f64,
}

/// A full per-module area breakdown.
#[derive(Debug, Clone)]
pub struct AreaBreakdown {
    /// Which design this is ("quarc-switch", …).
    pub design: &'static str,
    /// Datapath width in bits.
    pub width: usize,
    /// Per-module estimates.
    pub modules: Vec<ModuleArea>,
}

impl AreaBreakdown {
    /// Total slices.
    pub fn total(&self) -> f64 {
        self.modules.iter().map(|m| m.slices).sum()
    }

    /// Slice count of a named module (0 if absent).
    #[cfg(test)]
    fn module(&self, name: &str) -> f64 {
        self.modules.iter().find(|m| m.name == name).map_or(0.0, |m| m.slices)
    }
}

impl fmt::Display for AreaBreakdown {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(f, "{} @ {}-bit", self.design, self.width)?;
        for m in &self.modules {
            writeln!(f, "  {:<24} {:>7.0}", m.name, m.slices)?;
        }
        write!(f, "  {:<24} {:>7.0}", "TOTAL", self.total())
    }
}

/// Σ over outputs of (feeders − 1): the 2:1 mux stages the crossbar needs,
/// taken from the topology's static feeder tables.
fn quarc_extra_inputs() -> usize {
    QuarcOut::ALL.iter().map(|&o| QuarcTopology::feeders(o).len().saturating_sub(1)).sum()
}

fn spidergon_extra_inputs() -> usize {
    SpiOut::ALL.iter().map(|&o| SpidergonTopology::feeders(o).len().saturating_sub(1)).sum()
}

/// Area of one Quarc switch (Table 1's rows at `width = 32`).
///
/// Buffered ports: the four *network* inputs (the quadrant queues live in
/// the transceiver, §2.4). The crossbar term is derived from the Quarc
/// feeder tables — this is where "no routing logic" and "very small
/// crossbar" (§2.3.2) become numbers.
pub fn quarc_switch(p: &SwitchParams) -> AreaBreakdown {
    AreaBreakdown {
        design: "quarc-switch",
        width: p.width,
        modules: vec![
            ModuleArea { name: "Input Buffers", slices: input_buffers_slices(p, 4) },
            ModuleArea { name: "Write Controller", slices: write_controller_slices(p) },
            ModuleArea { name: "Crossbar & Mux", slices: crossbar_slices(p, quarc_extra_inputs()) },
            ModuleArea { name: "VC Arbiter", slices: vc_arbiter_slices(p, 4) },
            ModuleArea { name: "Flow Control Unit (FCU)", slices: fcu_slices(p) },
            ModuleArea { name: "Output Port Controller (OPC)", slices: 4.0 * opc_slices_each(p) },
        ],
    }
}

/// Area of one Spidergon switch.
///
/// Same skeleton with four buffered ports (three network + the single local
/// injection channel), plus the two modules the Quarc eliminates: per-input
/// routing logic and the broadcast-by-unicast header-rewrite unit. The
/// rewrite unit is calibrated so the 32-bit total lands on the paper's 1700
/// slices.
pub fn spidergon_switch(p: &SwitchParams) -> AreaBreakdown {
    AreaBreakdown {
        design: "spidergon-switch",
        width: p.width,
        modules: vec![
            ModuleArea { name: "Input Buffers", slices: input_buffers_slices(p, 4) },
            ModuleArea { name: "Write Controller", slices: write_controller_slices(p) },
            ModuleArea {
                name: "Crossbar & Mux",
                slices: crossbar_slices(p, spidergon_extra_inputs()),
            },
            ModuleArea { name: "VC Arbiter", slices: vc_arbiter_slices(p, 4) },
            ModuleArea { name: "Flow Control Unit (FCU)", slices: fcu_slices(p) },
            ModuleArea { name: "Output Port Controller (OPC)", slices: 4.0 * opc_slices_each(p) },
            ModuleArea { name: "Routing Logic", slices: routing_logic_slices(p, 4) },
            ModuleArea { name: "Header Rewrite Unit", slices: rewrite_unit_slices(p) },
        ],
    }
}

/// A shallow (2-flit) staging lane in a transceiver: packets live in PE RAM
/// (§3.1 — only *addresses* queue deeply), so each injection path needs just
/// enough flit-width buffering to stream into the switch.
fn staging_lane(p: &SwitchParams) -> f64 {
    buffer_lane_slices(&SwitchParams { buffer_depth: 2, ..*p })
}

/// A narrow address FIFO (6-bit entries) of the given depth.
fn address_queue(depth: usize) -> f64 {
    // 6 FF bits per entry plus pointer/flag control, slice-packed.
    (depth as f64 * 6.0) / 2.0 + 4.0
}

/// Area of the Quarc transceiver (network adapter, §2.4): write controller,
/// quadrant calculator, buffer selector, FCU, four shallow quadrant staging
/// buffers and four address queues.
pub fn quarc_transceiver(p: &SwitchParams) -> AreaBreakdown {
    AreaBreakdown {
        design: "quarc-transceiver",
        width: p.width,
        modules: vec![
            ModuleArea { name: "Quadrant Staging Buffers", slices: 4.0 * staging_lane(p) },
            ModuleArea { name: "Address Queues", slices: 4.0 * address_queue(p.buffer_depth) },
            ModuleArea { name: "Write Controller", slices: write_controller_slices(p) },
            ModuleArea { name: "Quadrant Calculator", slices: 22.0 },
            ModuleArea { name: "Buffer Selector", slices: 9.0 },
            ModuleArea { name: "Flow Control Unit (FCU)", slices: fcu_slices(p) },
        ],
    }
}

/// Area of the Spidergon transceiver: a single staging lane and a single
/// address FIFO — but twice as deep, per §3.1's queue-occupancy variance
/// argument (σ vs σ/√4) — plus the replication control that re-creates
/// broadcast-by-unicast packets.
pub fn spidergon_transceiver(p: &SwitchParams) -> AreaBreakdown {
    AreaBreakdown {
        design: "spidergon-transceiver",
        width: p.width,
        modules: vec![
            ModuleArea { name: "Injection Staging Buffer", slices: staging_lane(p) },
            ModuleArea { name: "Address Queue", slices: address_queue(2 * p.buffer_depth) },
            ModuleArea { name: "Write Controller", slices: write_controller_slices(p) },
            ModuleArea { name: "Replication Control", slices: 26.0 },
            ModuleArea { name: "Flow Control Unit (FCU)", slices: fcu_slices(p) },
        ],
    }
}

/// The Fig. 12 series: `(width, quarc total, spidergon total)` for the three
/// datapath widths the paper synthesised.
pub fn fig12_series() -> Vec<(usize, f64, f64)> {
    [16usize, 32, 64]
        .into_iter()
        .map(|w| {
            let p = SwitchParams::with_width(w);
            (w, quarc_switch(&p).total(), spidergon_switch(&p).total())
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn table1_reproduced_exactly() {
        let b = quarc_switch(&SwitchParams::with_width(32));
        let anchors = [
            ("Input Buffers", 735.0),
            ("Write Controller", 7.0),
            ("Crossbar & Mux", 186.0),
            ("VC Arbiter", 30.0),
            ("Flow Control Unit (FCU)", 64.0),
            ("Output Port Controller (OPC)", 431.0),
        ];
        for (name, want) in anchors {
            let got = b.module(name);
            assert!((got - want).abs() < 1.0, "{name}: {got} vs {want}");
        }
        assert!((b.total() - 1453.0).abs() < 2.0, "total {}", b.total());
    }

    #[test]
    fn spidergon_32bit_total_is_1700() {
        let b = spidergon_switch(&SwitchParams::with_width(32));
        assert!((b.total() - 1700.0).abs() < 5.0, "total {}", b.total());
    }

    #[test]
    fn quarc_smaller_at_every_width() {
        for (w, q, s) in fig12_series() {
            assert!(q < s, "width {w}: quarc {q} ≥ spidergon {s}");
        }
    }

    #[test]
    fn totals_grow_with_width() {
        let series = fig12_series();
        assert!(series.windows(2).all(|w| w[0].1 < w[1].1 && w[0].2 < w[1].2));
    }

    #[test]
    fn width_scaling_is_subquadratic() {
        // Doubling the width should less-than-double the area (the control
        // plane is width-independent).
        let series = fig12_series();
        let (q16, q32, q64) = (series[0].1, series[1].1, series[2].1);
        assert!(q32 / q16 < 2.0 && q64 / q32 < 2.0);
        assert!(q32 / q16 > 1.3 && q64 / q32 > 1.3);
    }

    #[test]
    fn both_crossbars_equally_sparse() {
        // The deterministic-routing feeder tables give both switches six 2:1
        // mux stages — the structural form of the paper's "no additional
        // hardware cost" claim.
        assert_eq!(quarc_extra_inputs(), 6);
        assert_eq!(spidergon_extra_inputs(), 6);
    }

    #[test]
    fn transceiver_overhead_is_small() {
        // §3.1: "The difference in resource utilization at the PE between
        // the Quarc and the Spidergon NoCs is very small" — at the *node*
        // level: the Quarc transceiver's extra quadrant queues are a few
        // percent of a node, absorbed by the smaller switch.
        let p = SwitchParams::with_width(32);
        let q_node = quarc_switch(&p).total() + quarc_transceiver(&p).total();
        let s_node = spidergon_switch(&p).total() + spidergon_transceiver(&p).total();
        let rel = (q_node - s_node).abs() / s_node;
        assert!(rel < 0.15, "node-level difference {rel} (q={q_node}, s={s_node})");
    }

    #[test]
    fn node_level_cost_parity() {
        // Switch + transceiver per node: the Quarc node must not exceed the
        // Spidergon node (the headline "no additional hardware cost").
        for w in [16usize, 32, 64] {
            let p = SwitchParams::with_width(w);
            let quarc = quarc_switch(&p).total() + quarc_transceiver(&p).total();
            let spider = spidergon_switch(&p).total() + spidergon_transceiver(&p).total();
            assert!(quarc < spider, "width {w}: {quarc} ≥ {spider}");
        }
    }

    #[test]
    fn display_formats_breakdown() {
        let b = quarc_switch(&SwitchParams::with_width(32));
        let s = b.to_string();
        assert!(s.contains("Input Buffers"));
        assert!(s.contains("TOTAL"));
    }
}
