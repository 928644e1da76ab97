//! A minimal VCD (Value Change Dump) writer, so the signal-level model's
//! traces can be inspected in standard waveform viewers (GTKWave etc.) the
//! way the paper's Verilog simulation would have been.
//!
//! Only the subset of IEEE 1364 VCD needed for digital traces is emitted:
//! a module scope, `wire` variables of arbitrary width, and per-timestep
//! value changes (deduplicated — unchanged signals are not re-emitted).

use std::fmt::Write as _;

/// Handle to a declared signal.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SignalId(usize);

#[derive(Debug)]
struct Signal {
    name: String,
    width: u32,
    ident: String,
    last: Option<u64>,
}

/// An in-memory VCD document builder.
#[derive(Debug)]
pub struct VcdWriter {
    module: String,
    signals: Vec<Signal>,
    body: String,
    time: Option<u64>,
    headers_done: bool,
}

/// VCD identifier characters (printable ASCII, excluding whitespace).
fn ident_for(index: usize) -> String {
    // Base-94 encoding over '!'..='~'.
    let mut n = index;
    let mut s = String::new();
    loop {
        s.push((b'!' + (n % 94) as u8) as char);
        n /= 94;
        if n == 0 {
            break;
        }
    }
    s
}

impl VcdWriter {
    /// A writer for one module scope.
    pub fn new(module: &str) -> Self {
        VcdWriter {
            module: module.to_string(),
            signals: Vec::new(),
            body: String::new(),
            time: None,
            headers_done: false,
        }
    }

    /// Declare a signal. All declarations must precede the first
    /// [`Self::tick`].
    fn add_signal(&mut self, name: &str, width: u32) -> SignalId {
        assert!(!self.headers_done, "declare signals before the first tick");
        assert!((1..=64).contains(&width));
        let id = SignalId(self.signals.len());
        let ident = ident_for(self.signals.len());
        self.signals.push(Signal { name: name.to_string(), width, ident, last: None });
        id
    }

    /// Begin (or advance to) timestep `t`. Timestamps must be
    /// non-decreasing.
    pub fn tick(&mut self, t: u64) {
        if let Some(prev) = self.time {
            assert!(t >= prev, "time must not go backwards");
            if t == prev {
                return;
            }
        }
        self.headers_done = true;
        self.time = Some(t);
        writeln!(self.body, "#{t}").expect("string write");
    }

    /// Record a value for a signal at the current timestep. Values equal to
    /// the signal's previous value are skipped.
    fn change(&mut self, id: SignalId, value: u64) {
        assert!(self.time.is_some(), "call tick() before recording changes");
        let sig = &mut self.signals[id.0];
        debug_assert!(sig.width == 64 || value < (1u64 << sig.width), "value exceeds width");
        if sig.last == Some(value) {
            return;
        }
        sig.last = Some(value);
        if sig.width == 1 {
            writeln!(self.body, "{}{}", value & 1, sig.ident).expect("string write");
        } else {
            writeln!(self.body, "b{value:b} {}", sig.ident).expect("string write");
        }
    }

    /// Render the complete VCD document.
    fn render(&self) -> String {
        let mut out = String::new();
        out.push_str("$timescale 1ns $end\n");
        let _ = writeln!(out, "$scope module {} $end", self.module);
        for s in &self.signals {
            let _ = writeln!(out, "$var wire {} {} {} $end", s.width, s.ident, s.name);
        }
        out.push_str("$upscope $end\n$enddefinitions $end\n");
        out.push_str(&self.body);
        out
    }
}

/// Trace the LocalLink signals of one switch port pair while the closure
/// drives the switch; returns the VCD text. A convenience for tests and the
/// `rtl_handshake` example.
pub fn trace_link<F>(cycles: u64, mut stimulus: F) -> String
where
    F: FnMut(u64) -> (crate::signals::LlFwd, crate::signals::LlFwd),
{
    let mut vcd = VcdWriter::new("locallink");
    let in_data = vcd.add_signal("in_data", 34);
    let in_sof_n = vcd.add_signal("in_sof_n", 1);
    let in_eof_n = vcd.add_signal("in_eof_n", 1);
    let in_src_rdy_n = vcd.add_signal("in_src_rdy_n", 1);
    let in_vc = vcd.add_signal("in_ch_to_store", 1);
    let out_data = vcd.add_signal("out_data", 34);
    let out_sof_n = vcd.add_signal("out_sof_n", 1);
    let out_eof_n = vcd.add_signal("out_eof_n", 1);
    let out_src_rdy_n = vcd.add_signal("out_src_rdy_n", 1);
    for t in 0..cycles {
        let (fin, fout) = stimulus(t);
        vcd.tick(t);
        vcd.change(in_data, fin.data);
        vcd.change(in_sof_n, fin.sof_n as u64);
        vcd.change(in_eof_n, fin.eof_n as u64);
        vcd.change(in_src_rdy_n, fin.src_rdy_n as u64);
        vcd.change(in_vc, fin.ch_to_store as u64);
        vcd.change(out_data, fout.data);
        vcd.change(out_sof_n, fout.sof_n as u64);
        vcd.change(out_eof_n, fout.eof_n as u64);
        vcd.change(out_src_rdy_n, fout.src_rdy_n as u64);
    }
    vcd.render()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::signals::{LlFwd, LlRev};
    use crate::switch::{QuarcSwitchRtl, SwitchStepIn};
    use crate::xcvr::build_frame;
    use quarc_core::flit::TrafficClass;
    use quarc_core::ids::NodeId;

    #[test]
    fn header_structure() {
        let mut v = VcdWriter::new("m");
        let a = v.add_signal("clk", 1);
        v.tick(0);
        v.change(a, 1);
        let text = v.render();
        assert!(text.starts_with("$timescale 1ns $end\n$scope module m $end\n"));
        assert!(text.contains("$var wire 1 ! clk $end"));
        assert!(text.contains("$enddefinitions $end"));
        assert!(text.contains("#0\n1!"));
    }

    #[test]
    fn unchanged_values_deduplicated() {
        let mut v = VcdWriter::new("m");
        let a = v.add_signal("d", 8);
        v.tick(0);
        v.change(a, 5);
        v.tick(1);
        v.change(a, 5); // no emission
        v.tick(2);
        v.change(a, 6);
        let text = v.render();
        assert_eq!(text.matches("b101 ").count(), 1);
        assert_eq!(text.matches("b110 ").count(), 1);
    }

    #[test]
    fn identifiers_are_unique_and_printable() {
        let mut v = VcdWriter::new("m");
        let ids: Vec<String> = (0..200)
            .map(|i| {
                v.add_signal(&format!("s{i}"), 1);
                ident_for(i)
            })
            .collect();
        let set: std::collections::HashSet<&String> = ids.iter().collect();
        assert_eq!(set.len(), 200);
        assert!(ids.iter().all(|s| s.chars().all(|c| ('!'..='~').contains(&c))));
    }

    #[test]
    #[should_panic(expected = "time must not go backwards")]
    fn time_is_monotone() {
        let mut v = VcdWriter::new("m");
        v.tick(5);
        v.tick(3);
    }

    #[test]
    fn traces_a_real_switch_transfer() {
        // Drive a broadcast stream through node 1 and dump the forward
        // interfaces; the VCD must show SOF/EOF brackets on both sides.
        let mut sw = QuarcSwitchRtl::new(NodeId(1), 16);
        let frame = build_frame(TrafficClass::Broadcast, NodeId(0), NodeId(4), 0, 4);
        let text = trace_link(10, |t| {
            let fin = if (t as usize) < 4 {
                LlFwd::beat(frame[t as usize], t == 0, t == 3, 0)
            } else {
                LlFwd::IDLE
            };
            let out = sw.step(&SwitchStepIn {
                fwd: [fin, LlFwd::IDLE, LlFwd::IDLE, LlFwd::IDLE],
                rev: [LlRev::READY; 4],
            });
            (fin, out.fwd[0])
        });
        // Both interfaces saw an asserted (0) SOF and EOF at some point.
        assert!(text.contains("0\"")); // in_sof_n low (ident '"' is signal 1)
        assert!(text.lines().filter(|l| l.starts_with('#')).count() == 10);
        // Parses as: every non-directive line is a timestamp or change.
        for line in text.lines().filter(|l| !l.starts_with('$') && !l.is_empty()) {
            assert!(
                line.starts_with('#')
                    || line.starts_with('b')
                    || line.starts_with('0')
                    || line.starts_with('1'),
                "unexpected VCD line: {line}"
            );
        }
    }
}
