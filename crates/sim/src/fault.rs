//! Deterministic fault injection: the expansion of a [`FaultPlan`] into
//! concrete per-link / per-router fault state, plus explicit per-link block
//! windows — the one lossless-block mechanism of the [`crate::Fabric`].
//!
//! A plan names *how many* components fail; this module decides *which*
//! ones, by drawing from `DetRng` substreams seeded only by the plan — so
//! the realised fault set is a pure function of `(plan, topology shape)`,
//! campaign artifacts stay a pure function of the spec, and a fault run
//! replays bit-identically from the result cache.
//!
//! Fault semantics (the behavioural contract, pinned by
//! `tests/fault_injection.rs` and documented in `docs/ROBUSTNESS.md`):
//!
//! * **Dead link** (fail-stop at packet granularity): from `onset`, any
//!   packet whose header is routed onto the link is dropped whole — each
//!   flit and each unreachable receiver accounted by the fabric's drop
//!   event, never silently lost.
//!   Packets whose header was routed before the cut complete normally, so
//!   mid-packet wormhole state is never torn.
//! * **Lossy link**: same drop mechanics, applied per packet with
//!   probability `drop_per_64k / 65536`. The decision hashes
//!   `(link salt, packet id)` — *not* the current cycle — so re-evaluating
//!   arbitration on a different cycle (active-set vs full-scan) cannot
//!   change it.
//! * **Transient link**: blocks losslessly for `transient_cycles` from
//!   `onset`; upstream arbitration simply finds the link infeasible and
//!   credit-based flow control holds everything back. An explicit
//!   [`FaultState::block_link`] window is the same thing on a chosen link.
//! * **Frozen router**: from `onset` the router's arbiter grants nothing
//!   (no forwarding, no ejection, no local injection). Traffic through it
//!   wedges — which is exactly what the driver's stall watchdog exists to
//!   detect and report.
//!
//! Active-set safety: faulted links make grant feasibility *time-dependent*
//! — a transient window opens and closes with the clock, and a header
//! already waiting at a link when `onset` arrives flips from blocked to
//! droppable without any tracked event — so the source nodes of every
//! faulted or blocked link are listed in [`FaultState::watch_nodes`] and
//! re-marked grantable each cycle. Frozen routers need no wakeups: a frozen
//! router never becomes grantable again.

use quarc_core::config::FaultPlan;
use quarc_core::ids::PacketId;
use quarc_engine::{mix64, Cycle, DetRng};

/// The realised fault set of one network instance.
#[derive(Debug, Clone)]
pub struct FaultState {
    /// Whether any fault is scheduled at all — the one branch every hot
    /// site pays when the plan is empty.
    any: bool,
    onset: Cycle,
    /// Per-link: permanently dead from `onset`.
    dead: Box<[bool]>,
    /// Per-link lossless block window `[from, until)` (`(0, 0)` = none):
    /// the plan's transient links, or an explicit [`FaultState::block_link`].
    block: Box<[(Cycle, Cycle)]>,
    /// Latest `until` of any block window: past it no link is blocked, so
    /// the per-lane check stays one compare without touching `block`.
    blocked_until: Cycle,
    /// Per-link: drop threshold in the upper 16 bits of a `u64` hash
    /// (0 = lossless).
    drop_thresh: Box<[u64]>,
    /// Per-link salt for the drop hash.
    drop_salt: Box<[u64]>,
    /// Per-node: arbitration frozen from `onset`.
    frozen: Box<[bool]>,
    /// Source nodes of faulted links: must be re-marked grantable every
    /// cycle while the plan is live, because their feasibility changes
    /// with time, not with a tracked event.
    watch_nodes: Vec<u32>,
}

/// Draw `count` distinct picks from `pool` (skipping already-`hit` entries,
/// which it updates). Clamps `count` to what remains available.
fn pick_distinct(rng: &mut DetRng, pool: &[usize], count: usize, hit: &mut [bool]) -> Vec<usize> {
    let avail = pool.iter().filter(|&&l| !hit[l]).count();
    let count = count.min(avail);
    let mut picked = Vec::with_capacity(count);
    while picked.len() < count {
        let lid = pool[rng.below(pool.len())];
        if !hit[lid] {
            hit[lid] = true;
            picked.push(lid);
        }
    }
    picked
}

impl FaultState {
    /// Expand `plan` over a network of `nodes` routers and a directed link-id
    /// space of size `links`; `node_of_link` maps a link id to its source
    /// router (for the watch list) and `link_exists` masks out vacant slots
    /// in the id space (a mesh edge router has no north/west neighbour, but
    /// keeps the slot so `lid = node * ports + out` stays uniform).
    pub fn new(
        plan: &FaultPlan,
        nodes: usize,
        links: usize,
        node_of_link: impl Fn(usize) -> usize,
        link_exists: impl Fn(usize) -> bool,
    ) -> Self {
        let mut state = FaultState {
            any: false,
            onset: plan.onset,
            dead: vec![false; links].into_boxed_slice(),
            block: vec![(0, 0); links].into_boxed_slice(),
            blocked_until: 0,
            drop_thresh: vec![0u64; links].into_boxed_slice(),
            drop_salt: vec![0u64; links].into_boxed_slice(),
            frozen: vec![false; nodes].into_boxed_slice(),
            watch_nodes: Vec::new(),
        };
        if plan.is_empty() || links == 0 || nodes == 0 {
            return state;
        }
        state.any = true;
        let pool: Vec<usize> = (0..links).filter(|&l| link_exists(l)).collect();
        let root = DetRng::new(plan.seed);
        let mut scratch = vec![false; links];
        let watch = |state: &mut FaultState, lid: usize| state.watch(node_of_link(lid));

        let mut rng = root.fork(1);
        for lid in pick_distinct(&mut rng, &pool, plan.dead_links as usize, &mut scratch) {
            state.dead[lid] = true;
            watch(&mut state, lid);
        }
        // Lossy and transient selections avoid the dead set (a dead link
        // already drops everything) but may overlap each other.
        let mut rng = root.fork(2);
        let lossy = pick_distinct(&mut rng, &pool, plan.lossy_links as usize, &mut scratch);
        if plan.drop_per_64k > 0 {
            for lid in lossy {
                state.drop_thresh[lid] = (plan.drop_per_64k as u64) << 48;
                state.drop_salt[lid] = mix64(plan.seed ^ (lid as u64).wrapping_mul(0x9E37));
                watch(&mut state, lid);
            }
        }
        let mut rng = root.fork(3);
        let mut transient_scratch = state.dead.clone();
        for lid in
            pick_distinct(&mut rng, &pool, plan.transient_links as usize, &mut transient_scratch)
        {
            state.set_block(lid, plan.onset, plan.onset + plan.transient_cycles as u64);
            watch(&mut state, lid);
        }
        let mut rng = root.fork(4);
        let mut node_scratch = vec![false; nodes];
        let node_pool: Vec<usize> = (0..nodes).collect();
        for node in
            pick_distinct(&mut rng, &node_pool, plan.frozen_routers as usize, &mut node_scratch)
        {
            state.frozen[node] = true;
        }
        state
    }

    /// Keep `node`'s router re-arbitrating every cycle.
    fn watch(&mut self, node: usize) {
        if !self.watch_nodes.contains(&(node as u32)) {
            self.watch_nodes.push(node as u32);
        }
    }

    /// Block link `lid` (leaving router `node`) losslessly while `from ≤ now
    /// < until`, replacing any window the link already had: it refuses every
    /// flit and credit-based flow control must absorb the stall with zero
    /// loss. The window opens and closes with the clock alone, so `node`
    /// joins the watch list.
    pub fn block_link(&mut self, lid: usize, node: usize, from: Cycle, until: Cycle) {
        assert!(from < until);
        self.any = true;
        self.set_block(lid, from, until);
        self.watch(node);
    }

    fn set_block(&mut self, lid: usize, from: Cycle, until: Cycle) {
        self.block[lid] = (from, until);
        self.blocked_until = self.blocked_until.max(until);
    }

    /// A fault state scheduling nothing (for networks built without a plan).
    #[cfg(test)]
    fn none() -> Self {
        FaultState::new(&FaultPlan::NONE, 0, 0, |_| 0, |_| true)
    }

    /// Whether any fault is scheduled. Every per-cycle site gates on this
    /// first, so an empty plan costs one predictable branch.
    #[inline]
    pub fn any(&self) -> bool {
        self.any
    }

    /// Whether `node`'s arbitration is frozen at `now`.
    #[inline]
    pub fn node_frozen(&self, node: usize, now: Cycle) -> bool {
        self.any && now >= self.onset && self.frozen[node]
    }

    /// Whether `lid` is permanently dead at `now` (drops new packets).
    #[cfg(test)]
    fn link_dead(&self, lid: usize, now: Cycle) -> bool {
        self.any && now >= self.onset && self.dead[lid]
    }

    /// Whether `lid` is inside a lossless blocking window.
    #[inline]
    pub fn link_blocked(&self, lid: usize, now: Cycle) -> bool {
        self.any && now < self.blocked_until && {
            let (from, until) = self.block[lid];
            now >= from && now < until
        }
    }

    /// Whether routing `packet` onto `lid` at `now` drops it. Combines the
    /// dead-link and lossy-link decisions; pure in `(lid, packet)` apart
    /// from the onset gate (and plan-time evaluation is scheduler-exact,
    /// see module docs).
    #[inline]
    pub fn drops_packet(&self, lid: usize, packet: PacketId, now: Cycle) -> bool {
        if !self.any || now < self.onset {
            return false;
        }
        if self.dead[lid] {
            return true;
        }
        let thresh = self.drop_thresh[lid];
        thresh != 0 && mix64(self.drop_salt[lid] ^ packet.0) < thresh
    }

    /// Nodes that must be re-marked grantable every cycle (sources of
    /// faulted links). Empty when the plan is empty.
    #[inline]
    pub fn watch_nodes(&self) -> &[u32] {
        &self.watch_nodes
    }

    /// Realised dead links.
    #[cfg(test)]
    fn dead_links(&self) -> Vec<usize> {
        (0..self.dead.len()).filter(|&l| self.dead[l]).collect()
    }

    /// Realised frozen routers.
    #[cfg(test)]
    fn frozen_routers(&self) -> Vec<usize> {
        (0..self.frozen.len()).filter(|&n| self.frozen[n]).collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn plan() -> FaultPlan {
        FaultPlan {
            seed: 77,
            onset: 100,
            dead_links: 3,
            frozen_routers: 1,
            lossy_links: 2,
            drop_per_64k: 6554, // ~10%
            transient_links: 2,
            transient_cycles: 50,
        }
    }

    #[test]
    fn expansion_is_a_pure_function_of_the_plan() {
        let a = FaultState::new(&plan(), 16, 64, |l| l / 4, |_| true);
        let b = FaultState::new(&plan(), 16, 64, |l| l / 4, |_| true);
        assert_eq!(a.dead_links(), b.dead_links());
        assert_eq!(a.frozen_routers(), b.frozen_routers());
        assert_eq!(a.watch_nodes(), b.watch_nodes());
        assert_eq!(a.dead_links().len(), 3);
        assert_eq!(a.frozen_routers().len(), 1);
        // A different seed realises a different fault set (with 64 links and
        // 3 picks, collision of the whole set is vanishingly unlikely).
        let other = FaultState::new(&FaultPlan { seed: 78, ..plan() }, 16, 64, |l| l / 4, |_| true);
        assert_ne!(a.dead_links(), other.dead_links());
    }

    #[test]
    fn empty_plan_schedules_nothing() {
        let s = FaultState::new(&FaultPlan::NONE, 16, 64, |l| l / 4, |_| true);
        assert!(!s.any());
        assert!(s.watch_nodes().is_empty());
        assert!(!s.link_dead(0, 1_000_000));
        assert!(!s.node_frozen(0, 1_000_000));
        assert!(!s.drops_packet(0, PacketId(1), 1_000_000));
        let none = FaultState::none();
        assert!(!none.any());
    }

    #[test]
    fn faults_respect_onset_and_transient_window() {
        let s = FaultState::new(&plan(), 16, 64, |l| l / 4, |_| true);
        let dead = s.dead_links()[0];
        assert!(!s.link_dead(dead, 99), "no fault before onset");
        assert!(s.link_dead(dead, 100));
        assert!(s.link_dead(dead, 1 << 40), "dead is permanent");
        let frozen = s.frozen_routers()[0];
        assert!(!s.node_frozen(frozen, 99));
        assert!(s.node_frozen(frozen, 100));
        let transient = (0..64).find(|&l| s.link_blocked(l, 100)).expect("transient link");
        assert!(!s.link_blocked(transient, 99));
        assert!(s.link_blocked(transient, 149));
        assert!(!s.link_blocked(transient, 150), "window closes");
    }

    #[test]
    fn explicit_block_windows_open_close_and_join_the_watch_list() {
        let mut s = FaultState::new(&FaultPlan::NONE, 16, 64, |l| l / 4, |_| true);
        s.block_link(9, 2, 50, 80);
        s.block_link(30, 7, 10, 20);
        assert!(s.any());
        assert_eq!(s.watch_nodes(), &[2, 7]);
        assert!(!s.link_blocked(9, 49) && s.link_blocked(9, 50) && s.link_blocked(9, 79));
        assert!(!s.link_blocked(9, 80), "window closes");
        assert!(s.link_blocked(30, 15) && !s.link_blocked(30, 50), "windows are per link");
        assert!(!s.link_blocked(8, 60), "other links stay open");
        // Blocking is lossless and freezes nothing.
        assert!(!s.drops_packet(9, PacketId(1), 60) && !s.node_frozen(2, 60));
        // A later window replaces the link's earlier one.
        s.block_link(9, 2, 100, 110);
        assert!(!s.link_blocked(9, 60) && s.link_blocked(9, 105));
    }

    #[test]
    fn drop_decision_is_per_packet_and_time_independent() {
        let p = FaultPlan {
            seed: 5,
            onset: 0,
            lossy_links: 64,
            drop_per_64k: 32768, // 50%
            ..FaultPlan::NONE
        };
        let s = FaultState::new(&p, 16, 64, |l| l / 4, |_| true);
        let lossy = (0..64).find(|&l| s.drop_thresh[l] != 0).expect("lossy link");
        let mut dropped = 0;
        for id in 0..1000u64 {
            let d1 = s.drops_packet(lossy, PacketId(id), 10);
            let d2 = s.drops_packet(lossy, PacketId(id), 999_999);
            assert_eq!(d1, d2, "drop decision must not depend on the cycle");
            dropped += d1 as u32;
        }
        assert!((300..700).contains(&dropped), "~50% of packets drop, got {dropped}");
    }

    #[test]
    fn counts_are_clamped_to_the_component_space() {
        let p = FaultPlan { seed: 1, dead_links: 500, frozen_routers: 500, ..FaultPlan::NONE };
        let s = FaultState::new(&p, 4, 8, |l| l / 2, |_| true);
        assert_eq!(s.dead_links().len(), 8);
        assert_eq!(s.frozen_routers().len(), 4);
    }
}
