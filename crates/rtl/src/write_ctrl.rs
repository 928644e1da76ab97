//! The IPC write controller FSM (§2.3.1).
//!
//! "The Write controller waits for the start-of-frame (`sof_in`) signal and
//! stays in the idle state. Once it receives `sof_in` it goes to write stage
//! and generates the write-enable signal. The write-enable signal is also
//! used with the `ch_to_store` to decide on which channel the flit should be
//! stored. The active low `eof_in` signal indicates end-of-frame ... and the
//! write controller goes back to idle stage again."

use crate::signals::{LlFwd, NUM_VCS};

/// FSM states.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum WcState {
    /// Waiting for a start of frame.
    Idle,
    /// Inside a frame, storing flits.
    Write,
}

/// Combinational outputs of the write controller.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct WcOut {
    /// Store the current word this cycle.
    pub write_enable: bool,
    /// Into which VC lane (`ch_to_store`).
    pub lane: usize,
}

/// The write controller. Frame state is tracked **per channel**: the OPC at
/// the far end interleaves two frames on the physical link flit by flit
/// (that is what `CH_TO_STORE` exists for), so each VC's SOF/EOF bracket is
/// independent.
#[derive(Debug, Clone)]
pub struct WriteController {
    state: [WcState; NUM_VCS],
}

impl Default for WriteController {
    fn default() -> Self {
        Self::new()
    }
}

impl WriteController {
    /// A controller with all channel FSMs idle.
    pub fn new() -> Self {
        WriteController { state: [WcState::Idle; NUM_VCS] }
    }

    /// Current state of one channel's FSM (for waveform-style inspection).
    pub fn state(&self, lane: usize) -> WcState {
        self.state[lane]
    }

    /// Combinational: does the current bus cycle store a word, and where?
    pub fn comb(&self, fwd: &LlFwd) -> WcOut {
        let lane = fwd.ch_to_store as usize;
        let in_frame = match self.state[lane] {
            WcState::Idle => fwd.valid() && !fwd.sof_n,
            WcState::Write => fwd.valid(),
        };
        WcOut { write_enable: in_frame, lane }
    }

    /// Clock edge.
    pub fn tick(&mut self, fwd: &LlFwd) {
        if !fwd.valid() {
            return;
        }
        let lane = fwd.ch_to_store as usize;
        self.state[lane] = match self.state[lane] {
            WcState::Idle => {
                if !fwd.sof_n && fwd.eof_n {
                    WcState::Write
                } else {
                    WcState::Idle // single-beat frames return to idle directly
                }
            }
            WcState::Write => {
                if !fwd.eof_n {
                    WcState::Idle
                } else {
                    WcState::Write
                }
            }
        };
    }

    /// The `reset_fsm_w` input.
    #[cfg(test)]
    fn reset(&mut self) {
        self.state = [WcState::Idle; NUM_VCS];
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn idle_ignores_mid_frame_noise() {
        let wc = WriteController::new();
        // Valid word without SOF while idle: not stored (protocol violation
        // upstream, dropped here).
        let word = LlFwd { sof_n: true, ..LlFwd::beat(5, false, false, 0) };
        assert!(!wc.comb(&word).write_enable);
    }

    #[test]
    fn frame_storing_sequence() {
        let mut wc = WriteController::new();
        let sof = LlFwd::beat(1, true, false, 1);
        let body = LlFwd::beat(2, false, false, 1);
        let eof = LlFwd::beat(3, false, true, 1);

        let o = wc.comb(&sof);
        assert!(o.write_enable);
        assert_eq!(o.lane, 1);
        wc.tick(&sof);
        assert_eq!(wc.state(1), WcState::Write);

        assert!(wc.comb(&body).write_enable);
        wc.tick(&body);
        assert_eq!(wc.state(1), WcState::Write);

        assert!(wc.comb(&eof).write_enable);
        wc.tick(&eof);
        assert_eq!(wc.state(1), WcState::Idle);
    }

    #[test]
    fn gap_cycles_inside_frame_do_not_store() {
        let mut wc = WriteController::new();
        let sof = LlFwd::beat(1, true, false, 0);
        wc.comb(&sof);
        wc.tick(&sof);
        assert!(!wc.comb(&LlFwd::IDLE).write_enable);
        wc.tick(&LlFwd::IDLE);
        assert_eq!(wc.state(0), WcState::Write, "frame stays open across stalls");
    }

    #[test]
    fn interleaved_channel_frames_both_store() {
        // The OPC multiplexes two frames on the link; each channel's
        // SOF/EOF bracket must be honoured independently.
        let mut wc = WriteController::new();
        let beats = [
            LlFwd::beat(10, true, false, 0), // frame A SOF (vc0)
            LlFwd::beat(20, true, false, 1), // frame B SOF (vc1)
            LlFwd::beat(11, false, true, 0), // frame A EOF
            LlFwd::beat(21, false, true, 1), // frame B EOF
        ];
        for b in beats {
            assert!(wc.comb(&b).write_enable, "word {:#x} dropped", b.data);
            wc.tick(&b);
        }
        assert_eq!(wc.state(0), WcState::Idle);
        assert_eq!(wc.state(1), WcState::Idle);
    }

    #[test]
    fn reset_returns_to_idle() {
        let mut wc = WriteController::new();
        let sof = LlFwd::beat(1, true, false, 0);
        wc.tick(&sof);
        assert_eq!(wc.state(0), WcState::Write);
        wc.reset();
        assert_eq!(wc.state(0), WcState::Idle);
    }
}
