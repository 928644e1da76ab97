//! The Output Port Controller (§2.3.3).
//!
//! "There are four FSMs which govern the scheduler. Out of four, one is the
//! master FSM which handles requests from three different IPCs. It
//! arbitrates between the requests and activates one of the slave FSMs. ...
//! The slave FSM allocates one of the available channels as per the received
//! `ch_status_n` signal from the next node. In case it has to multiplex
//! between more than one IPC then it stores the virtual channel settings in
//! a VC allocation table. ... If it is a header flit then it checks the
//! availability of channels and sets the table with new allocation details.
//! If it is a body type flit, then it reads from the table ... If it is a
//! tail flit ... and then deletes the corresponding entry from the table."
//!
//! Note the Quarc switch has **no output buffer** — the OPC schedules
//! requests straight onto the link ("By not providing any output buffer the
//! area requirement for the router is less").

use crate::signals::{LlRev, NUM_VCS};

/// One requester's bid for the output this cycle. A requester is one
/// *stream* of an input port — its (feeder, source lane) pair — because two
/// lanes of the same IPC carry independent packets that each need their own
/// downstream VC allocation.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct OpcReq {
    /// Source VC lane within the feeder (0 for local queues).
    pub lane: usize,
    /// Header flit (needs a fresh VC allocation).
    pub is_header: bool,
    /// Tail flit (frees its allocation afterwards).
    pub is_tail: bool,
    /// Dateline constraint: rim-link packets must take this exact VC (the
    /// deadlock-avoidance role of the paper's two VCs, §2.1); `None` on
    /// cross links, where the slave FSM allocates any available channel
    /// (§2.3.3).
    pub required_vc: Option<usize>,
}

/// A grant: requester index and the downstream VC the word ships on.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct OpcGrant {
    /// Index into the requester (feeder) list.
    pub req: usize,
    /// Allocated downstream virtual channel.
    pub vc: usize,
}

/// The output port controller: master arbitration + slave VC allocation.
#[derive(Debug, Clone)]
pub struct Opc {
    /// Master FSM rotation pointer (grant_a/b/c fairness).
    rr: usize,
    /// The VC allocation table: downstream VC held per (feeder, lane).
    alloc: Vec<[Option<usize>; NUM_VCS]>,
    /// Which (feeder, lane) owns each downstream VC.
    vc_owner: [Option<(usize, usize)>; NUM_VCS],
}

impl Opc {
    /// An OPC serving `requesters` feeders.
    pub fn new(requesters: usize) -> Self {
        assert!(requesters >= 1);
        Opc { rr: 0, alloc: vec![[None; NUM_VCS]; requesters], vc_owner: [None; NUM_VCS] }
    }

    /// The VC allocation table entry of a (feeder, lane) stream.
    #[cfg(test)]
    fn allocation(&self, req: usize, lane: usize) -> Option<usize> {
        self.alloc[req][lane]
    }

    /// Combinational: pick the winning requester and its VC, honouring the
    /// downstream `ch_status_n`.
    pub fn comb(&self, reqs: &[Option<OpcReq>], rev: &LlRev) -> Option<OpcGrant> {
        debug_assert_eq!(reqs.len(), self.alloc.len());
        let k = reqs.len();
        for i in 0..k {
            let idx = (self.rr + i) % k;
            let Some(r) = reqs[idx] else { continue };
            match self.alloc[idx][r.lane] {
                Some(vc) => {
                    // Continuing packet: follow the table.
                    debug_assert!(!r.is_header, "header while allocation live");
                    if rev.vc_ready(vc) {
                        return Some(OpcGrant { req: idx, vc });
                    }
                }
                None => {
                    debug_assert!(r.is_header, "body/tail without allocation");
                    // Allocate an available channel, honouring any dateline
                    // constraint.
                    let candidate = match r.required_vc {
                        Some(vc) => (self.vc_owner[vc].is_none() && rev.vc_ready(vc)).then_some(vc),
                        None => {
                            (0..NUM_VCS).find(|&vc| self.vc_owner[vc].is_none() && rev.vc_ready(vc))
                        }
                    };
                    if let Some(vc) = candidate {
                        return Some(OpcGrant { req: idx, vc });
                    }
                }
            }
        }
        None
    }

    /// Clock edge: update the allocation table for a granted transfer.
    pub fn commit(&mut self, grant: &OpcGrant, req: &OpcReq) {
        if req.is_header {
            self.alloc[grant.req][req.lane] = Some(grant.vc);
            self.vc_owner[grant.vc] = Some((grant.req, req.lane));
        }
        if req.is_tail {
            self.alloc[grant.req][req.lane] = None;
            self.vc_owner[grant.vc] = None;
        }
        self.rr = (grant.req + 1) % self.alloc.len();
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    const H: OpcReq = OpcReq { lane: 0, is_header: true, is_tail: false, required_vc: None };
    const B: OpcReq = OpcReq { lane: 0, is_header: false, is_tail: false, required_vc: None };
    const T: OpcReq = OpcReq { lane: 0, is_header: false, is_tail: true, required_vc: None };

    #[test]
    fn allocates_free_vc_for_header() {
        let opc = Opc::new(3);
        let g = opc.comb(&[Some(H), None, None], &LlRev::READY).unwrap();
        assert_eq!(g.req, 0);
        assert_eq!(g.vc, 0);
    }

    #[test]
    fn body_follows_allocation_tail_frees() {
        let mut opc = Opc::new(2);
        let g = opc.comb(&[Some(H), None], &LlRev::READY).unwrap();
        opc.commit(&g, &H);
        assert_eq!(opc.allocation(0, 0), Some(0));
        let g2 = opc.comb(&[Some(B), None], &LlRev::READY).unwrap();
        assert_eq!(g2.vc, 0);
        opc.commit(&g2, &B);
        let g3 = opc.comb(&[Some(T), None], &LlRev::READY).unwrap();
        opc.commit(&g3, &T);
        assert_eq!(opc.allocation(0, 0), None);
    }

    #[test]
    fn required_vc_is_honoured() {
        let mut opc = Opc::new(2);
        let h1 = OpcReq { lane: 0, is_header: true, is_tail: false, required_vc: Some(1) };
        let g = opc.comb(&[Some(h1), None], &LlRev::READY).unwrap();
        assert_eq!(g.vc, 1, "dateline constraint must pick VC1");
        opc.commit(&g, &h1);
        // A second packet also requiring VC1 must wait even though VC0 is
        // free.
        let h1b = OpcReq { lane: 1, is_header: true, is_tail: false, required_vc: Some(1) };
        assert_eq!(opc.comb(&[None, Some(h1b)], &LlRev::READY), None);
    }

    #[test]
    fn two_lanes_of_one_feeder_get_distinct_vcs() {
        // The same input port carries packet A on lane 0 and packet B on
        // lane 1; the slave FSM must track two allocations for that feeder.
        let mut opc = Opc::new(1);
        let h0 = OpcReq { lane: 0, is_header: true, is_tail: false, required_vc: None };
        let h1 = OpcReq { lane: 1, is_header: true, is_tail: false, required_vc: None };
        let g0 = opc.comb(&[Some(h0)], &LlRev::READY).unwrap();
        opc.commit(&g0, &h0);
        let g1 = opc.comb(&[Some(h1)], &LlRev::READY).unwrap();
        opc.commit(&g1, &h1);
        assert_ne!(g0.vc, g1.vc);
        assert_eq!(opc.allocation(0, 0), Some(g0.vc));
        assert_eq!(opc.allocation(0, 1), Some(g1.vc));
    }

    #[test]
    fn two_packets_interleave_on_two_vcs() {
        let mut opc = Opc::new(2);
        let g0 = opc.comb(&[Some(H), Some(H)], &LlRev::READY).unwrap();
        opc.commit(&g0, &H);
        // Second requester's header gets the *other* VC next cycle.
        let g1 = opc.comb(&[Some(B), Some(H)], &LlRev::READY).unwrap();
        assert_ne!(g0.req, g1.req, "round-robin must rotate");
        assert_ne!(g0.vc, g1.vc, "second packet must take the free VC");
        opc.commit(&g1, &H);
        // Both now continue, multiplexing the link cycle by cycle.
        let g2 = opc.comb(&[Some(B), Some(B)], &LlRev::READY).unwrap();
        opc.commit(&g2, &B);
        let g3 = opc.comb(&[Some(B), Some(B)], &LlRev::READY).unwrap();
        assert_ne!(g2.req, g3.req);
    }

    #[test]
    fn respects_ch_status_backpressure() {
        let mut opc = Opc::new(1);
        let g = opc.comb(&[Some(H)], &LlRev::READY).unwrap();
        opc.commit(&g, &H);
        // Downstream VC0 stalls: the continuing packet must wait.
        let stalled = LlRev { dst_rdy_n: false, ch_status_n: [true, false] };
        assert_eq!(opc.comb(&[Some(B)], &stalled), None);
        // VC0 ready again: it proceeds.
        assert!(opc.comb(&[Some(B)], &LlRev::READY).is_some());
    }

    #[test]
    fn header_blocked_when_no_vc_free() {
        let mut opc = Opc::new(3);
        for i in 0..2 {
            let mut reqs = [None, None, None];
            reqs[i] = Some(H);
            let g = opc.comb(&reqs, &LlRev::READY).unwrap();
            opc.commit(&g, &H);
        }
        // Both VCs held: a third header cannot start.
        assert_eq!(opc.comb(&[None, None, Some(H)], &LlRev::READY), None);
    }

    #[test]
    fn no_requests_no_grant() {
        let opc = Opc::new(3);
        assert_eq!(opc.comb(&[None, None, None], &LlRev::READY), None);
    }
}
