//! The LocalLink signal bundles (paper §2.7, Fig. 8).
//!
//! The Quarc NoC "uses the signals and handshaking mechanism of Xilinx's
//! LocalLink protocol for the link layer interface". All control signals are
//! active-low (`_n` suffix), exactly as in the paper: a frame transfer is
//! `SOF_N` low on the first word, `EOF_N` low on the last, `SRC_RDY_N`/
//! `DST_RDY_N` low while both sides participate, `CH_STATUS_N[vc]` low when
//! the receiver can accept at least one word on that virtual channel and
//! `CH_TO_STORE` naming the channel the current word belongs to.

use quarc_core::topology::TopologyKind;

/// Number of virtual channels on a link: the Quarc's dateline pair (the
/// paper's 2-channel example), as [`TopologyKind::vcs`] states it.
pub const NUM_VCS: usize = TopologyKind::Quarc.vcs();

/// Forward (source → destination) LocalLink signals for one cycle.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct LlFwd {
    /// 34-bit flit word (see `quarc_core::flit::wire`).
    pub data: u64,
    /// Start of frame, active low.
    pub sof_n: bool,
    /// End of frame, active low.
    pub eof_n: bool,
    /// Source ready, active low (low = `data` is valid this cycle).
    pub src_rdy_n: bool,
    /// Which VC the current word is for.
    pub ch_to_store: u8,
}

impl LlFwd {
    /// The idle bus: nothing valid, all controls deasserted (high).
    pub const IDLE: LlFwd =
        LlFwd { data: 0, sof_n: true, eof_n: true, src_rdy_n: true, ch_to_store: 0 };

    /// Whether a valid word is being presented this cycle.
    #[inline]
    pub fn valid(&self) -> bool {
        !self.src_rdy_n
    }

    /// Build a valid data beat.
    pub fn beat(data: u64, sof: bool, eof: bool, vc: u8) -> LlFwd {
        LlFwd { data, sof_n: !sof, eof_n: !eof, src_rdy_n: false, ch_to_store: vc }
    }
}

/// Reverse (destination → source) LocalLink signals for one cycle.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct LlRev {
    /// Destination ready, active low.
    pub dst_rdy_n: bool,
    /// Per-VC acceptance status, active low (low = channel can accept a
    /// full transfer).
    pub ch_status_n: [bool; NUM_VCS],
}

impl LlRev {
    /// A receiver that can accept anything.
    pub const READY: LlRev = LlRev { dst_rdy_n: false, ch_status_n: [false; NUM_VCS] };

    /// A receiver that can accept nothing.
    pub const STALLED: LlRev = LlRev { dst_rdy_n: true, ch_status_n: [true; NUM_VCS] };

    /// Whether VC `vc` can accept a word.
    #[inline]
    pub fn vc_ready(&self, vc: usize) -> bool {
        !self.dst_rdy_n && !self.ch_status_n[vc]
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    // Asserting a constant is this test's whole job.
    #[allow(clippy::assertions_on_constants)]
    fn idle_bus_is_invalid() {
        assert!(!LlFwd::IDLE.valid());
        assert!(LlFwd::IDLE.sof_n && LlFwd::IDLE.eof_n);
    }

    #[test]
    fn beat_sets_active_low_controls() {
        let b = LlFwd::beat(0x3FF, true, false, 1);
        assert!(b.valid());
        assert!(!b.sof_n);
        assert!(b.eof_n);
        assert_eq!(b.ch_to_store, 1);
    }

    #[test]
    fn rev_ready_semantics() {
        assert!(LlRev::READY.vc_ready(0));
        assert!(LlRev::READY.vc_ready(1));
        assert!(!LlRev::STALLED.vc_ready(0));
        let partial = LlRev { dst_rdy_n: false, ch_status_n: [false, true] };
        assert!(partial.vc_ready(0));
        assert!(!partial.vc_ready(1));
    }
}
