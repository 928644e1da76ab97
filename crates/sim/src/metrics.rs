//! Measurement and invariant checking.
//!
//! Latency is measured the way the paper measures it: from *message creation
//! at the source PE* (so source queueing counts — that is precisely where the
//! Spidergon one-port router loses) to tail delivery. Unicasts record one
//! sample per message; broadcasts record a sample per reception and a
//! *completion* sample when the last of the `N−1` receivers has the tail
//! (the figure harness reports receptions, matching the per-packet averages
//! of the paper's plots; completion is reported alongside).
//!
//! The tracker simultaneously enforces delivery invariants that would expose
//! simulator bugs: flits of a packet arrive in order at each node, no node
//! receives the same packet twice, unicasts arrive at their addressee, and a
//! broadcast reaches every node exactly once.

use quarc_core::flit::{Flit, PacketMeta, TrafficClass};
use quarc_core::ids::{MessageId, NodeId};
use quarc_engine::stats::{LatencyHistogram, OnlineStats};
use quarc_engine::Cycle;

/// One fact the fabric reports, once per record site: `Fabric::emit` hands
/// it to [`Metrics::record`], then to
/// [`SimProbe::record`](crate::probe::SimProbe::record). `node` is the
/// router it happened at.
#[derive(Debug, Clone, Copy)]
pub(crate) enum FabricEvent<'a> {
    /// `message` entered its source queue, planned for `expected` receivers.
    Inject { message: MessageId, class: TrafficClass, node: usize, expected: usize },
    /// A header was forwarded onto output `port`.
    Hop { meta: &'a PacketMeta, node: usize, port: usize },
    /// A data flit reached the PE through delivery site `site` (a dense index
    /// of lanes and ejection ports); `clone` is the output the original
    /// continues on when a header was copied at a branch.
    Deliver { meta: &'a PacketMeta, flit: &'a Flit, node: usize, site: usize, clone: Option<usize> },
    /// A delivered tail spawned a Spidergon chain continuation to `dst`.
    Chain { meta: &'a PacketMeta, node: usize, dst: NodeId },
    /// A data flit drained at an already-served receiver.
    DupFlit,
    /// A receiver was first served by a retransmission.
    Recovered,
    /// A fault drop consumed a flit; a data header writes off `lost`
    /// receivers its suppressed forward would have served.
    Drop { meta: &'a PacketMeta, node: usize, lost: Option<usize> },
    /// An ACK from `meta.src` was absorbed at the data source; `fresh` is the
    /// message's creation cycle on that receiver's first ACK.
    Ack { meta: &'a PacketMeta, fresh: Option<Cycle> },
    /// Recovery retransmitted `message` to `targets` unacked receivers.
    Retry { message: MessageId, class: TrafficClass, src: NodeId, targets: usize },
    /// Recovery gave up on `message`, writing off `lost` receivers.
    Expire { message: MessageId, class: TrafficClass, src: NodeId, lost: usize },
}

/// Per-in-flight-message completion tracking (one slab slot per live
/// message; kept small so the slab stays cache-friendly at saturation).
#[derive(Debug, Clone, Copy)]
struct MessageTrack {
    class: TrafficClass,
    live: bool,
    /// Incremented each time the slot is reused; the matching value is
    /// carried in the high half of the issued [`MessageId`], so a delivery
    /// for a completed message can never be attributed to the slot's next
    /// occupant.
    generation: u32,
    created_at: Cycle,
    expected: u32,
    received: u32,
    /// Receivers this message can no longer reach (fault drops or expired
    /// retries). Always 0 on a healthy network.
    lost: u32,
}

/// Simulation measurements and delivery invariants.
///
/// Hot-path notes: `Metrics::record` runs for every delivered flit, so
/// nothing on its path hashes. Message tracks live in a slot-recycling slab
/// directly indexed by the [`MessageId`]s this struct allocates
/// ([`Metrics::create_message`]). The per-flit in-order check is a plain
/// counter per *delivery site* — the wormhole lane (or ejection port) a
/// packet's flits reach the PE through. A lane delivers one packet at a time
/// (route state pins it from header to tail), so the site counter tracks
/// exactly the old per-`(packet, node)` sequence; a packet that reached the
/// same node twice would still trip the over-delivery check on its message.
#[derive(Debug)]
pub struct Metrics {
    measure_from: Cycle,
    /// Expected next flit seq per delivery site (grown on first use).
    site_progress: Vec<u32>,
    /// Message tracks, indexed by `MessageId`; completed slots are recycled.
    tracks: Vec<MessageTrack>,
    /// Recyclable slots of `tracks`; the others hold live (created, not
    /// yet fully delivered) messages.
    free_tracks: Vec<u32>,
    unicast: OnlineStats,
    unicast_hist: LatencyHistogram,
    bcast_reception: OnlineStats,
    bcast_completion: OnlineStats,
    bcast_completion_hist: LatencyHistogram,
    mcast_completion: OnlineStats,
    created: [u64; TrafficClass::COUNT],
    completed: [u64; TrafficClass::COUNT],
    /// Messages retired with at least one receiver lost to a fault: they
    /// terminated (all surviving receivers served, every loss accounted)
    /// but did not reach their full receiver set.
    undeliverable: [u64; TrafficClass::COUNT],
    flits_delivered: u64,
    /// Flits consumed by fault drops (dead or lossy links). A dropped flit
    /// is accounted here instead of transmitted — never silently lost.
    flits_dropped: u64,
    /// Receiver-level delivery ledger: `expected` accumulates at each
    /// inject, `delivered` at each tail reception, `lost` at each write-off,
    /// so `delivered + lost == expected` once the network drains, faults or
    /// not (the probe-ledger invariant).
    receivers_expected: u64,
    receivers_delivered: u64,
    receivers_lost: u64,
    /// Packets re-sent by the recovery layer (one per timeout-triggered
    /// retransmission of one message, however many branch packets it took).
    retransmissions: u64,
    /// Receivers served by a retransmission after the first attempt failed
    /// to reach them — the recovery layer's payoff counter.
    recovered_receivers: u64,
    /// Single-flit ACK packets absorbed at their source, duplicates
    /// included. ACKs are control traffic: they never count toward
    /// `flits_delivered` or the receiver ledger.
    acks_delivered: u64,
    /// Data flits drained by receivers that had already been served (late
    /// originals or over-wide retransmissions). Suppressed from
    /// `flits_delivered` so goodput stays duplicate-free.
    dup_flits_suppressed: u64,
    /// Message-creation → ACK-reception round-trip latency (measured
    /// messages only).
    ack_latency: OnlineStats,
}

impl Default for Metrics {
    fn default() -> Self {
        Self::new()
    }
}

impl Metrics {
    /// Fresh metrics measuring from cycle 0.
    pub fn new() -> Self {
        Metrics {
            measure_from: 0,
            site_progress: Vec::new(),
            tracks: Vec::new(),
            free_tracks: Vec::new(),
            unicast: OnlineStats::new(),
            unicast_hist: LatencyHistogram::new(),
            bcast_reception: OnlineStats::new(),
            bcast_completion: OnlineStats::new(),
            bcast_completion_hist: LatencyHistogram::new(),
            mcast_completion: OnlineStats::new(),
            created: [0; TrafficClass::COUNT],
            completed: [0; TrafficClass::COUNT],
            undeliverable: [0; TrafficClass::COUNT],
            flits_delivered: 0,
            flits_dropped: 0,
            receivers_expected: 0,
            receivers_delivered: 0,
            receivers_lost: 0,
            retransmissions: 0,
            recovered_receivers: 0,
            acks_delivered: 0,
            dup_flits_suppressed: 0,
            ack_latency: OnlineStats::new(),
        }
    }

    /// Only messages created at or after `cycle` contribute latency samples
    /// (warmup exclusion). Flit/packet invariants are checked regardless.
    /// Call it before the first cycle: a message is judged when it completes,
    /// so one that starts and completes during warmup under the default
    /// window (from cycle 0) would already be a sample.
    pub fn begin_measurement(&mut self, cycle: Cycle) {
        self.measure_from = cycle;
    }

    /// Register a created message, allocating its id: a slab slot (low half)
    /// tagged with the slot's generation (high half). Slots of completed
    /// messages are recycled, and the generation tag keeps stale ids
    /// detectable. The expected receiver count is known only after branch
    /// expansion: the message's inject event sets it before the first
    /// delivery.
    pub fn create_message(&mut self, class: TrafficClass, created_at: Cycle) -> MessageId {
        self.created[class.index()] += 1;
        let track = MessageTrack {
            class,
            live: true,
            generation: 0,
            created_at,
            expected: 0,
            received: 0,
            lost: 0,
        };
        let slot = match self.free_tracks.pop() {
            Some(slot) => {
                let old = &mut self.tracks[slot as usize];
                debug_assert!(!old.live, "slot freed while live");
                *old = MessageTrack { generation: old.generation + 1, ..track };
                slot as usize
            }
            None => {
                self.tracks.push(track);
                self.tracks.len() - 1
            }
        };
        MessageId::from_slot(slot, self.tracks[slot].generation)
    }

    /// Record one fabric event at cycle `now`. Hops and chain continuations
    /// leave the ledger as it is.
    #[inline]
    pub(crate) fn record(&mut self, now: Cycle, event: FabricEvent<'_>) {
        use FabricEvent as E;
        match event {
            E::Inject { message, expected, .. } => {
                let track = &mut self.tracks[message.slot()];
                debug_assert!(
                    track.live && track.generation == message.generation() && track.received == 0,
                    "expected set too late"
                );
                track.expected = u32::try_from(expected).expect("receiver count fits u32");
                self.receivers_expected += expected as u64;
            }
            E::Deliver { meta, flit, node, site, .. } => self.deliver(now, node, site, flit, meta),
            E::DupFlit => self.dup_flits_suppressed += 1,
            E::Recovered => self.recovered_receivers += 1,
            E::Drop { meta, lost, .. } => {
                self.flits_dropped += 1;
                self.lose_receivers(meta.message, lost.unwrap_or(0));
            }
            // Every absorbed ACK counts; a receiver's first samples the send
            // → ack round trip (measured messages only, like every stat).
            E::Ack { fresh, .. } => {
                self.acks_delivered += 1;
                if let Some(created_at) = fresh.filter(|&c| c >= self.measure_from) {
                    self.ack_latency.push(now.saturating_sub(created_at) as f64);
                }
            }
            E::Retry { .. } => self.retransmissions += 1,
            E::Expire { message, lost, .. } => self.lose_receivers(message, lost),
            E::Hop { .. } | E::Chain { .. } => {}
        }
    }

    /// Deliver one flit of `meta`'s packet at `node` through delivery site
    /// `site`, enforcing in-order, exactly-once delivery; a tail advances
    /// message completion and records latency samples.
    fn deliver(&mut self, now: Cycle, node: usize, site: usize, flit: &Flit, meta: &PacketMeta) {
        let node = NodeId::new(node);
        self.flits_delivered += 1;
        if site >= self.site_progress.len() {
            self.site_progress.resize(site + 1, 0);
        }
        let (expected_seq, seq) = (&mut self.site_progress[site], flit.seq());
        assert_eq!(
            *expected_seq, seq,
            "out-of-order flit at {node}: packet {} seq {} (expected {})",
            meta.packet, seq, expected_seq
        );
        *expected_seq += 1;
        if !flit.is_tail() {
            return;
        }
        // Tail: the packet is fully received at this site.
        assert_eq!(*expected_seq, meta.len, "tail arrived before all flits");
        self.site_progress[site] = 0;

        if meta.class == TrafficClass::Unicast {
            assert_eq!(meta.dst, node, "unicast delivered to the wrong node");
        }

        let (slot, generation) = (meta.message.slot(), meta.message.generation());
        let track = &mut self.tracks[slot];
        assert!(track.live && track.generation == generation, "delivery for unregistered message");
        track.received += 1;
        self.receivers_delivered += 1;
        assert!(
            track.received + track.lost <= track.expected,
            "message {} over-delivered ({} + {} lost > {})",
            meta.message,
            track.received,
            track.lost,
            track.expected
        );
        let latency = now.saturating_sub(track.created_at);
        let measured = track.created_at >= self.measure_from;

        // Per-reception sample for collective classes.
        if measured && track.class == TrafficClass::Broadcast {
            self.bcast_reception.push(latency as f64)
        }

        if track.received + track.lost == track.expected {
            if track.lost > 0 {
                // Part of the receiver set was lost to a fault: the message
                // terminates (so the network can quiesce) but counts as
                // undeliverable, and its latency is not a sample.
                self.retire_undeliverable(slot);
                return;
            }
            let class = track.class;
            let created_at = track.created_at;
            track.live = false;
            self.free_tracks.push(slot as u32);
            self.completed[class.index()] += 1;
            if created_at >= self.measure_from {
                let lat = now.saturating_sub(created_at);
                match class {
                    TrafficClass::Unicast => {
                        self.unicast.push(lat as f64);
                        self.unicast_hist.record(lat);
                    }
                    TrafficClass::Broadcast => {
                        self.bcast_completion.push(lat as f64);
                        self.bcast_completion_hist.record(lat);
                    }
                    TrafficClass::Multicast => {
                        self.mcast_completion.push(lat as f64);
                    }
                    _ => {}
                }
            }
        }
    }

    /// Retire a track whose receiver set can no longer be fully served.
    fn retire_undeliverable(&mut self, slot: usize) {
        let track = &mut self.tracks[slot];
        track.live = false;
        self.free_tracks.push(slot as u32);
        self.undeliverable[track.class.index()] += 1;
    }

    /// Write off `count` receivers of `message` (a dropped data header's or
    /// an expired recovery window's). Once losses plus deliveries cover the
    /// expected set the message retires as undeliverable, which lets
    /// `quiesced()` end the drain under permanent faults.
    fn lose_receivers(&mut self, message: MessageId, count: usize) {
        if count == 0 {
            return;
        }
        let (slot, generation) = (message.slot(), message.generation());
        let track = &mut self.tracks[slot];
        assert!(track.live && track.generation == generation, "loss for unregistered message");
        let count = u32::try_from(count).expect("receiver count fits u32");
        track.lost += count;
        self.receivers_lost += count as u64;
        assert!(
            track.received + track.lost <= track.expected,
            "message {} over-accounted ({} + {} lost > {})",
            message,
            track.received,
            track.lost,
            track.expected
        );
        if track.received + track.lost == track.expected {
            self.retire_undeliverable(slot);
        }
    }

    /// Retransmissions issued by the recovery layer.
    pub fn retransmissions(&self) -> u64 {
        self.retransmissions
    }

    /// Receivers served only thanks to a retransmission.
    pub fn recovered_receivers(&self) -> u64 {
        self.recovered_receivers
    }

    /// ACK packets absorbed at their destination source.
    pub fn acks_delivered(&self) -> u64 {
        self.acks_delivered
    }

    /// Duplicate data flits drained at already-served receivers.
    pub fn dup_flits_suppressed(&self) -> u64 {
        self.dup_flits_suppressed
    }

    /// Message-creation → ACK-reception round-trip latency.
    pub fn ack_latency(&self) -> &OnlineStats {
        &self.ack_latency
    }

    /// Mean unicast latency (message creation → tail at destination).
    pub fn unicast_latency(&self) -> &OnlineStats {
        &self.unicast
    }

    /// Unicast latency distribution.
    pub fn unicast_histogram(&self) -> &LatencyHistogram {
        &self.unicast_hist
    }

    /// Per-reception broadcast latency (creation → tail at *each* receiver).
    pub fn broadcast_reception_latency(&self) -> &OnlineStats {
        &self.bcast_reception
    }

    /// Broadcast completion latency (creation → last receiver's tail).
    pub fn broadcast_completion_latency(&self) -> &OnlineStats {
        &self.bcast_completion
    }

    /// Broadcast completion distribution.
    pub fn broadcast_completion_histogram(&self) -> &LatencyHistogram {
        &self.bcast_completion_hist
    }

    /// Multicast completion latency.
    pub fn multicast_completion_latency(&self) -> &OnlineStats {
        &self.mcast_completion
    }

    /// Total flits delivered to PEs since construction.
    pub fn flits_delivered(&self) -> u64 {
        self.flits_delivered
    }

    /// Messages created of a class.
    pub fn created(&self, class: TrafficClass) -> u64 {
        self.created[class.index()]
    }

    /// Messages fully completed of a class.
    pub fn completed(&self, class: TrafficClass) -> u64 {
        self.completed[class.index()]
    }

    /// Total messages fully completed.
    pub fn completed_total(&self) -> u64 {
        self.completed.iter().sum()
    }

    /// Messages still in flight (created but not fully delivered).
    pub fn in_flight(&self) -> usize {
        self.tracks.len() - self.free_tracks.len()
    }

    /// Messages of a class retired with part of their receiver set lost to
    /// an injected fault.
    pub fn undeliverable(&self, class: TrafficClass) -> u64 {
        self.undeliverable[class.index()]
    }

    /// Total messages retired undeliverable.
    pub fn undeliverable_total(&self) -> u64 {
        self.undeliverable.iter().sum()
    }

    /// Total flits consumed by fault drops.
    pub fn flits_dropped(&self) -> u64 {
        self.flits_dropped
    }

    /// Receivers promised by every registered message so far.
    pub fn receivers_expected(&self) -> u64 {
        self.receivers_expected
    }

    /// Receivers that got their tail flit.
    pub fn receivers_delivered(&self) -> u64 {
        self.receivers_delivered
    }

    /// Receivers lost to fault drops.
    pub fn receivers_lost(&self) -> u64 {
        self.receivers_lost
    }

    /// Fraction of expected receivers actually served (1.0 on a healthy
    /// network or before any traffic).
    pub fn delivered_fraction(&self) -> f64 {
        if self.receivers_expected == 0 {
            1.0
        } else {
            self.receivers_delivered as f64 / self.receivers_expected as f64
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use quarc_core::flit::{FlitKind, PacketRef};
    use quarc_core::ids::PacketId;
    use quarc_core::ring::RingDir;

    fn meta(
        message: MessageId,
        packet: u64,
        class: TrafficClass,
        dst: u32,
        len: u32,
    ) -> PacketMeta {
        PacketMeta {
            message,
            packet: PacketId(packet),
            class,
            src: NodeId(0),
            dst: NodeId(dst),
            bitstring: quarc_core::bits::Bits::ZERO,
            dir: RingDir::Cw,
            len,
            created_at: 10,
        }
    }

    /// Register a message the way the networks do: allocate, then set the
    /// receiver count after expansion.
    fn created(
        m: &mut Metrics,
        class: TrafficClass,
        created_at: Cycle,
        expected: usize,
    ) -> MessageId {
        let id = m.create_message(class, created_at);
        m.record(created_at, FabricEvent::Inject { message: id, class, node: 0, expected });
        id
    }

    /// Write off `lost` receivers of `message` the way a retry expiry does.
    fn expire(m: &mut Metrics, message: MessageId, lost: usize) {
        let (class, src) = (TrafficClass::Unicast, NodeId(0));
        m.record(0, FabricEvent::Expire { message, class, src, lost });
    }

    fn deliver_packet(m: &mut Metrics, now: Cycle, node: NodeId, pm: PacketMeta) {
        for seq in 0..pm.len {
            let kind = if seq == 0 {
                FlitKind::Header
            } else if seq + 1 == pm.len {
                FlitKind::Tail
            } else {
                FlitKind::Body
            };
            let flit = Flit::new(PacketRef(0), seq, kind);
            // One delivery site per node is enough for these tests (matches
            // the single-eject-port networks).
            let (node, site) = (node.index(), node.index());
            m.record(now, FabricEvent::Deliver { meta: &pm, flit: &flit, node, site, clone: None });
        }
    }

    #[test]
    fn unicast_latency_measured_from_creation() {
        let mut m = Metrics::new();
        let id = created(&mut m, TrafficClass::Unicast, 10, 1);
        let pm = meta(id, 0, TrafficClass::Unicast, 3, 4);
        deliver_packet(&mut m, 30, NodeId(3), pm);
        assert_eq!(m.unicast_latency().count(), 1);
        assert_eq!(m.unicast_latency().mean(), 20.0);
        assert_eq!(m.completed(TrafficClass::Unicast), 1);
        assert_eq!(m.in_flight(), 0);
        assert_eq!(m.flits_delivered(), 4);
    }

    #[test]
    fn warmup_messages_excluded_from_latency() {
        let mut m = Metrics::new();
        m.begin_measurement(100);
        let id = created(&mut m, TrafficClass::Unicast, 10, 1); // created at 10 < 100
        deliver_packet(&mut m, 120, NodeId(3), meta(id, 0, TrafficClass::Unicast, 3, 2));
        assert_eq!(m.unicast_latency().count(), 0);
        assert_eq!(m.completed(TrafficClass::Unicast), 1); // still counted as completed
    }

    #[test]
    fn broadcast_completion_needs_all_receivers() {
        let mut m = Metrics::new();
        let id = created(&mut m, TrafficClass::Broadcast, 10, 3);
        deliver_packet(&mut m, 20, NodeId(1), meta(id, 1, TrafficClass::Broadcast, 2, 2));
        assert_eq!(m.broadcast_reception_latency().count(), 1);
        assert_eq!(m.broadcast_completion_latency().count(), 0);
        // Different branch packets of the same message.
        deliver_packet(&mut m, 25, NodeId(2), meta(id, 2, TrafficClass::Broadcast, 2, 2));
        deliver_packet(&mut m, 40, NodeId(3), meta(id, 3, TrafficClass::Broadcast, 3, 2));
        assert_eq!(m.broadcast_completion_latency().count(), 1);
        assert_eq!(m.broadcast_completion_latency().mean(), 30.0);
        assert_eq!(m.broadcast_reception_latency().count(), 3);
    }

    #[test]
    fn message_slots_are_recycled_with_fresh_generation() {
        let mut m = Metrics::new();
        let a = created(&mut m, TrafficClass::Unicast, 10, 1);
        deliver_packet(&mut m, 30, NodeId(3), meta(a, 0, TrafficClass::Unicast, 3, 2));
        // The completed slot is reused under a new generation tag; counters
        // keep accumulating.
        let b = created(&mut m, TrafficClass::Unicast, 40, 1);
        assert_eq!(a.slot(), b.slot(), "completed slot must be recycled");
        assert_ne!(a, b, "recycled slot must carry a fresh generation");
        deliver_packet(&mut m, 50, NodeId(4), meta(b, 1, TrafficClass::Unicast, 4, 2));
        assert_eq!(m.completed(TrafficClass::Unicast), 2);
        assert_eq!(m.in_flight(), 0);
        assert_eq!(m.unicast_latency().count(), 2);
    }

    #[test]
    #[should_panic(expected = "out-of-order")]
    fn out_of_order_flit_panics() {
        let mut m = Metrics::new();
        let id = created(&mut m, TrafficClass::Unicast, 0, 1);
        let pm = meta(id, 0, TrafficClass::Unicast, 1, 4);
        let flit = Flit::new(PacketRef(0), 1, FlitKind::Body);
        m.record(5, FabricEvent::Deliver { meta: &pm, flit: &flit, node: 1, site: 1, clone: None });
    }

    #[test]
    #[should_panic(expected = "wrong node")]
    fn misdelivered_unicast_panics() {
        let mut m = Metrics::new();
        let id = created(&mut m, TrafficClass::Unicast, 0, 1);
        deliver_packet(&mut m, 9, NodeId(4), meta(id, 0, TrafficClass::Unicast, 5, 2));
    }

    #[test]
    #[should_panic(expected = "unregistered message")]
    fn duplicate_delivery_panics() {
        // A second delivery after completion hits the dead-slot check.
        let mut m = Metrics::new();
        let id = created(&mut m, TrafficClass::Unicast, 0, 1);
        deliver_packet(&mut m, 9, NodeId(1), meta(id, 0, TrafficClass::Unicast, 1, 2));
        deliver_packet(&mut m, 12, NodeId(1), meta(id, 1, TrafficClass::Unicast, 1, 2));
    }

    #[test]
    #[should_panic(expected = "unregistered message")]
    fn stale_id_after_slot_recycling_panics() {
        // Even once the slot is live again for a *different* message, a
        // delivery carrying the old id trips the generation check instead of
        // being attributed to the new occupant.
        let mut m = Metrics::new();
        let old = created(&mut m, TrafficClass::Unicast, 0, 1);
        deliver_packet(&mut m, 9, NodeId(1), meta(old, 0, TrafficClass::Unicast, 1, 2));
        let fresh = created(&mut m, TrafficClass::Unicast, 10, 1);
        assert_eq!(old.slot(), fresh.slot());
        deliver_packet(&mut m, 12, NodeId(1), meta(old, 1, TrafficClass::Unicast, 1, 2));
    }

    #[test]
    fn lost_receivers_retire_a_message_as_undeliverable() {
        let mut m = Metrics::new();
        let id = created(&mut m, TrafficClass::Multicast, 0, 3);
        deliver_packet(&mut m, 10, NodeId(1), meta(id, 0, TrafficClass::Multicast, 1, 2));
        // The packet covering the other two receivers hits a dead link.
        expire(&mut m, id, 2);
        assert_eq!(m.in_flight(), 0, "loss accounting must let the message terminate");
        assert_eq!(m.completed(TrafficClass::Multicast), 0);
        assert_eq!(m.undeliverable(TrafficClass::Multicast), 1);
        assert_eq!(m.multicast_completion_latency().count(), 0, "no latency sample for losses");
        assert_eq!(m.receivers_expected(), 3);
        assert_eq!(m.receivers_delivered(), 1);
        assert_eq!(m.receivers_lost(), 2);
        assert!((m.delivered_fraction() - 1.0 / 3.0).abs() < 1e-12);
    }

    #[test]
    fn delivery_after_loss_completes_the_undeliverable_message() {
        // Losses recorded first, surviving receiver delivered after: the
        // message still terminates exactly once.
        let mut m = Metrics::new();
        let id = created(&mut m, TrafficClass::Broadcast, 0, 2);
        expire(&mut m, id, 1);
        assert_eq!(m.in_flight(), 1);
        deliver_packet(&mut m, 10, NodeId(1), meta(id, 0, TrafficClass::Broadcast, 1, 2));
        assert_eq!(m.in_flight(), 0);
        assert_eq!(m.undeliverable(TrafficClass::Broadcast), 1);
        assert_eq!(m.undeliverable_total(), 1);
        assert_eq!(m.broadcast_completion_latency().count(), 0);
        // The reception that did land still contributes its sample.
        assert_eq!(m.broadcast_reception_latency().count(), 1);
    }

    #[test]
    #[should_panic(expected = "over-accounted")]
    fn over_accounted_loss_panics() {
        let mut m = Metrics::new();
        let id = created(&mut m, TrafficClass::Unicast, 0, 1);
        expire(&mut m, id, 2);
    }

    #[test]
    fn flit_drops_are_counted_per_class() {
        let mut m = Metrics::new();
        let id = created(&mut m, TrafficClass::Multicast, 0, 3);
        let pm = meta(id, 0, TrafficClass::Multicast, 3, 3);
        // A dropped header writes off its receivers; its body and tail only
        // count as dropped flits.
        for lost in [Some(2), None, None] {
            m.record(4, FabricEvent::Drop { meta: &pm, node: 1, lost });
        }
        assert_eq!(m.flits_dropped(), 3);
        assert_eq!(m.receivers_lost(), 2);
    }

    #[test]
    fn recovery_counters_and_ack_latency_gating() {
        let mut m = Metrics::new();
        m.begin_measurement(100);
        let (message, class, src) = (MessageId(0), TrafficClass::Unicast, NodeId(0));
        m.record(110, FabricEvent::Retry { message, class, src, targets: 1 });
        m.record(120, FabricEvent::Recovered);
        m.record(120, FabricEvent::DupFlit);
        let ack = meta(message, 0, TrafficClass::Ack, 0, 1);
        // Warmup message: counted, not sampled.
        m.record(150, FabricEvent::Ack { meta: &ack, fresh: Some(50) });
        // Measured message: counted and sampled.
        m.record(180, FabricEvent::Ack { meta: &ack, fresh: Some(120) });
        // A duplicate: counted, not sampled.
        m.record(190, FabricEvent::Ack { meta: &ack, fresh: None });
        assert_eq!(m.retransmissions(), 1);
        assert_eq!(m.recovered_receivers(), 1);
        assert_eq!(m.dup_flits_suppressed(), 1);
        assert_eq!(m.acks_delivered(), 3);
        assert_eq!(m.ack_latency().count(), 1);
        assert_eq!(m.ack_latency().mean(), 60.0);
    }

    #[test]
    fn chain_classes_count_toward_broadcast_message() {
        // Spidergon chains: the message is registered as Broadcast but the
        // packets carry chain classes; completion is driven by the track's
        // class, receptions by reaching expected count.
        let mut m = Metrics::new();
        let id = created(&mut m, TrafficClass::Broadcast, 0, 2);
        let mut pm = meta(id, 0, TrafficClass::ChainRim, 1, 2);
        pm.created_at = 0;
        deliver_packet(&mut m, 8, NodeId(1), pm);
        let mut pm2 = meta(id, 1, TrafficClass::ChainRim, 2, 2);
        pm2.created_at = 0;
        deliver_packet(&mut m, 14, NodeId(2), pm2);
        assert_eq!(m.broadcast_completion_latency().count(), 1);
        assert_eq!(m.broadcast_completion_latency().mean(), 14.0);
    }
}
