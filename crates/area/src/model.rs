//! The structural area model and its calibration.
//!
//! The paper reports Virtex-II Pro slice counts from ISE synthesis. We cannot
//! run ISE, so this model counts the same structural primitives a synthesiser
//! would map — FF bits for registers, LUT4s for muxes/comparators, lane
//! control — converts them to slices (a Virtex-II Pro slice packs 2 LUT4s and
//! 2 FFs) and applies per-module calibration factors chosen once so that the
//! **32-bit Quarc switch reproduces Table 1 exactly**. Width scaling then
//! follows from structure, which is what Fig. 12 plots.
//!
//! Calibration anchors (paper Table 1, 32-bit Quarc switch):
//!
//! | module            | slices |
//! |-------------------|--------|
//! | Input Buffers     | 735    |
//! | Write Controller  | 7      |
//! | Crossbar & Mux    | 186    |
//! | VC Arbiter        | 30     |
//! | Flow Control Unit | 64     |
//! | OPC               | 431    |
//! | **total**         | 1453   |
//!
//! and the 32-bit Spidergon switch total of 1700 slices (§3.1), which fixes
//! the two Spidergon-only modules (per-input routing logic and the
//! broadcast-by-unicast header-rewrite unit).

/// Hardware parameters of one switch.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SwitchParams {
    /// Datapath width in bits (the paper evaluates 16, 32, 64).
    pub width: usize,
    /// Virtual channels per link (paper: 2).
    pub vcs: usize,
    /// Buffer depth per VC lane in flits (calibrated at 4).
    pub buffer_depth: usize,
}

impl SwitchParams {
    /// Paper-default parameters at a given datapath width.
    pub fn with_width(width: usize) -> Self {
        SwitchParams { width, vcs: 2, buffer_depth: 4 }
    }

    /// Flit bits on the wire: payload width plus the 2-bit flit-type field
    /// the write controller prepends (§2.4: "if a flit is of 32-bits after
    /// write controller adds its type, it becomes 34-bits").
    fn flit_bits(&self) -> f64 {
        (self.width + 2) as f64
    }
}

/// LUT4s needed for an `inputs`-to-1 mux of one bit.
fn mux_luts_per_bit(inputs: usize) -> f64 {
    match inputs {
        0 | 1 => 0.0,
        2 => 1.0,
        3..=4 => 2.0,
        5..=8 => 4.0,
        _ => (inputs as f64 / 2.0).ceil(),
    }
}

/// One VC lane of input buffering: FF storage, read mux, lane control.
///
/// `CAL_BUFFER` absorbs the synthesiser's packing of control into storage
/// slices; it is the single constant fitted to the 735-slice anchor.
pub fn buffer_lane_slices(p: &SwitchParams) -> f64 {
    let fb = p.flit_bits();
    let storage_ff = p.buffer_depth as f64 * fb; // FF bits
    let read_mux_luts = fb * mux_luts_per_bit(p.buffer_depth);
    let control = 6.0; // pointers + full/empty flags
    CAL_BUFFER * (storage_ff / 2.0 + read_mux_luts / 2.0 + control)
}

/// Input buffering for `ports` buffered input ports.
pub fn input_buffers_slices(p: &SwitchParams, ports: usize) -> f64 {
    buffer_lane_slices(p) * (ports * p.vcs) as f64
}

/// The write controller FSM (width-independent; Table 1 says 7 slices).
pub fn write_controller_slices(_p: &SwitchParams) -> f64 {
    7.0
}

/// Crossbar and output data muxes. `extra_inputs` is Σ over outputs of
/// (feeders − 1): the number of 2:1 mux stages per bit the datapath needs.
/// Both switches have 6 (the Quarc feeder tables are deliberately sparse;
/// the Spidergon compensates its missing cross link with a busier eject
/// mux) — the area parity the paper reports.
pub fn crossbar_slices(p: &SwitchParams, extra_inputs: usize) -> f64 {
    let decode = 12.0; // select decode + grant registers
    decode + CAL_XBAR * extra_inputs as f64 * p.flit_bits() / 2.0
}

/// The VC arbiter FSMs (idle/grant_0/grant_1 + fairness timer), one per
/// buffered input port. Width-independent.
pub fn vc_arbiter_slices(_p: &SwitchParams, ports: usize) -> f64 {
    7.5 * ports as f64
}

/// The flow-control unit: request generation, switching table, per-packet
/// state. Mostly control, with a small header-field datapath term.
pub fn fcu_slices(p: &SwitchParams) -> f64 {
    55.5 + 0.25 * p.flit_bits()
}

/// One output port controller: master + slave FSMs, VC allocation table and
/// the per-VC status/handshake datapath.
pub fn opc_slices_each(p: &SwitchParams) -> f64 {
    43.1 + CAL_OPC * p.flit_bits()
}

/// Spidergon-only: per-input routing logic (modular distance comparator on
/// the destination address — the logic §2.5.1 brags the Quarc does not
/// need).
pub fn routing_logic_slices(p: &SwitchParams, inputs: usize) -> f64 {
    (18.0 + 0.1 * p.flit_bits()) * inputs as f64
}

/// Spidergon-only: the broadcast-by-unicast header-rewrite unit (§2.2: "the
/// ingress packet is not simply cloned but the header flit needs to be
/// rewritten"), a full-width header register plus rewrite datapath.
pub fn rewrite_unit_slices(p: &SwitchParams) -> f64 {
    59.0 + 3.0 * p.flit_bits()
}

// --- calibration constants (fitted once, see module docs) ---

/// Input-buffer packing factor: fits the 735-slice anchor.
/// `735 = CAL_BUFFER · 8 lanes · (68 + 34 + 6)` at 32-bit.
const CAL_BUFFER: f64 = 735.0 / 864.0;

/// Crossbar datapath factor: fits the 186-slice anchor.
/// `186 = 12 + CAL_XBAR · 6 · 17` at 32-bit.
const CAL_XBAR: f64 = 174.0 / 102.0;

/// OPC width coefficient: 60% of the per-OPC anchor (431/4) scales with
/// width.
const CAL_OPC: f64 = 64.65 / 34.0;

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn flit_bits_adds_type_field() {
        assert_eq!(SwitchParams::with_width(32).flit_bits(), 34.0);
        assert_eq!(SwitchParams::with_width(16).flit_bits(), 18.0);
    }

    #[test]
    fn mux_sizes() {
        assert_eq!(mux_luts_per_bit(1), 0.0);
        assert_eq!(mux_luts_per_bit(2), 1.0);
        assert_eq!(mux_luts_per_bit(4), 2.0);
        assert_eq!(mux_luts_per_bit(8), 4.0);
    }

    #[test]
    fn buffer_anchor_reproduced() {
        let p = SwitchParams::with_width(32);
        let total = input_buffers_slices(&p, 4);
        assert!((total - 735.0).abs() < 0.5, "{total}");
    }

    #[test]
    fn crossbar_anchor_reproduced() {
        let p = SwitchParams::with_width(32);
        assert!((crossbar_slices(&p, 6) - 186.0).abs() < 0.5);
    }

    #[test]
    fn fcu_and_opc_anchors() {
        let p = SwitchParams::with_width(32);
        assert!((fcu_slices(&p) - 64.0).abs() < 0.5);
        assert!((4.0 * opc_slices_each(&p) - 431.0).abs() < 1.0);
    }

    #[test]
    fn all_modules_grow_with_width() {
        let w16 = SwitchParams::with_width(16);
        let w64 = SwitchParams::with_width(64);
        assert!(input_buffers_slices(&w64, 4) > input_buffers_slices(&w16, 4));
        assert!(crossbar_slices(&w64, 6) > crossbar_slices(&w16, 6));
        assert!(opc_slices_each(&w64) > opc_slices_each(&w16));
        assert!(rewrite_unit_slices(&w64) > rewrite_unit_slices(&w16));
    }

    #[test]
    fn deeper_buffers_cost_more() {
        let shallow = SwitchParams { width: 32, vcs: 2, buffer_depth: 4 };
        let deep = SwitchParams { width: 32, vcs: 2, buffer_depth: 8 };
        assert!(buffer_lane_slices(&deep) > buffer_lane_slices(&shallow));
    }
}
