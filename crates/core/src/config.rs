//! Network configuration shared by the simulator, the RTL model and the
//! benchmark harness.

use crate::topology::TopologyKind;
use std::fmt;
use std::str::FromStr;

/// Upper bound on the node count the behavioural simulator accepts, enforced
/// by [`NocConfig::validate`].
///
/// The paper's 34-bit wire format carries 6-bit addresses (n ≤ 64, §2.6) and
/// the RTL model keeps that limit; the behavioural simulator models the
/// wider-flit variant the paper names ("larger networks would need wider
/// flits or multi-flit headers") so the scaling claims can be measured at
/// n = 256 and far beyond. Multicast bitstrings live in a per-network slab
/// ([`crate::bits::BitSlab`]) sized to the longest branch, so the only
/// remaining bound is the grid planners' 256-wide column scratch: 65,536 is
/// a 256×256 mesh/torus, and a 16,384-deep Quarc quadrant.
pub const MAX_SIM_NODES: usize = 65_536;

/// Upper bound on [`NocConfig::buffer_depth`], enforced by
/// [`NocConfig::validate`]: 16× the deepest lane any preset uses. Lane state
/// is 16 bits per lane and the flit slab `lanes × depth` flits, so an
/// unbounded depth is a construction-time panic or an allocation the host
/// cannot serve rather than a configuration.
const MAX_BUFFER_DEPTH: usize = 256;

/// Upper bound on [`NocConfig::link_latency`], enforced by
/// [`NocConfig::validate`]: 64× the slowest link any preset uses. Every link
/// owns one pipeline slot per cycle of latency, so an unbounded latency is
/// an allocation that aborts the process.
const MAX_LINK_LATENCY: u64 = 256;

/// Output-arbitration policy (the DESIGN.md §6 ablation knob). Lives in the
/// configuration so experiment grids can sweep it and cache keys can include
/// it; every topology's output grant arbiters follow it.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default)]
pub enum ArbPolicy {
    /// Rotate the grant pointer past each winner (the paper's timer-based
    /// "equal opportunity" behaviour under sustained load). Default.
    #[default]
    RoundRobin,
    /// Always grant the lowest-index eligible candidate. Cheaper logic, but
    /// biased: low-index feeders (through traffic, in our tables) can starve
    /// local injection under contention.
    FixedPriority,
}

impl fmt::Display for ArbPolicy {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let s = match self {
            ArbPolicy::RoundRobin => "rr",
            ArbPolicy::FixedPriority => "fp",
        };
        write!(f, "{s}")
    }
}

/// Inverse of [`ArbPolicy`]'s `Display`, which also reads the long names
/// `round-robin` and `fixed-priority`; the error names the rejected text.
impl FromStr for ArbPolicy {
    type Err = String;

    fn from_str(s: &str) -> Result<Self, Self::Err> {
        match s {
            "rr" | "round-robin" => Ok(ArbPolicy::RoundRobin),
            "fp" | "fixed-priority" => Ok(ArbPolicy::FixedPriority),
            other => Err(format!("unknown arbitration policy {other:?}")),
        }
    }
}

/// A deterministic fault schedule for one simulated network.
///
/// The plan is *declarative*: it names how many components fail and how,
/// not which ones. The concrete selection (which links die, which routers
/// freeze) is expanded by the simulator from a `DetRng` substream seeded
/// only by [`FaultPlan::seed`], so a plan is a pure function of its fields
/// and two runs of the same plan fail identically — fault campaigns cache
/// and replicate exactly like fault-free ones.
///
/// Fault semantics (see `docs/ROBUSTNESS.md`):
///
/// * **dead links** — from [`FaultPlan::onset`], the link stops accepting
///   new packets; a packet routed onto it is dropped whole, with every
///   lost receiver accounted (`fail-stop at packet granularity`: packets
///   whose header was already routed complete normally, so wormhole
///   invariants hold).
/// * **frozen routers** — from `onset`, the router's arbiter grants
///   nothing; traffic through it wedges (the stall watchdog's job).
/// * **lossy links** — each packet routed onto the link is dropped with
///   probability `drop_per_64k / 65536`, decided per packet id.
/// * **transient links** — the link blocks *losslessly* for
///   [`FaultPlan::transient_cycles`] starting at `onset`; credit-based
///   flow control holds traffic back, nothing is lost.
///
/// All fields are plain integers so the plan (and [`NocConfig`]) stays
/// `Copy`, hashable and exactly representable in campaign content keys.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct FaultPlan {
    /// Seed of the fault-selection substream (which links/routers fail).
    pub seed: u64,
    /// Cycle at which every scheduled fault takes effect.
    pub onset: u64,
    /// Number of links that fail permanently (fail-stop) at `onset`.
    pub dead_links: u16,
    /// Number of routers whose arbitration freezes at `onset`.
    pub frozen_routers: u16,
    /// Number of links that drop packets probabilistically from `onset`.
    pub lossy_links: u16,
    /// Per-packet drop probability on lossy links, in units of 1/65536.
    pub drop_per_64k: u16,
    /// Number of links that block losslessly for a window at `onset`.
    pub transient_links: u16,
    /// Length of the transient blocking window, in cycles.
    pub transient_cycles: u32,
}

impl FaultPlan {
    /// The empty plan: no faults, byte-identical behaviour to a build
    /// without the fault subsystem.
    pub const NONE: FaultPlan = FaultPlan {
        seed: 0,
        onset: 0,
        dead_links: 0,
        frozen_routers: 0,
        lossy_links: 0,
        drop_per_64k: 0,
        transient_links: 0,
        transient_cycles: 0,
    };

    /// Whether this plan schedules no faults at all.
    pub fn is_empty(&self) -> bool {
        self.dead_links == 0
            && self.frozen_routers == 0
            && (self.lossy_links == 0 || self.drop_per_64k == 0)
            && self.transient_links == 0
    }

    /// Check internal consistency (part of [`NocConfig::validate`]).
    pub fn validate(&self) -> Result<(), ConfigError> {
        if self.transient_links > 0 && self.transient_cycles == 0 {
            return Err(ConfigError::BadParameter {
                name: "fault.transient_cycles",
                requirement: "transient link faults need a window of at least one cycle",
            });
        }
        if self.lossy_links > 0 && self.drop_per_64k == 0 {
            return Err(ConfigError::BadParameter {
                name: "fault.drop_per_64k",
                requirement: "lossy links need a non-zero drop probability",
            });
        }
        Ok(())
    }
}

impl Default for FaultPlan {
    fn default() -> Self {
        FaultPlan::NONE
    }
}

impl fmt::Display for FaultPlan {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        if self.is_empty() {
            return write!(f, "-");
        }
        write!(
            f,
            "s{}o{}d{}f{}l{}p{}t{}w{}",
            self.seed,
            self.onset,
            self.dead_links,
            self.frozen_routers,
            self.lossy_links,
            self.drop_per_64k,
            self.transient_links,
            self.transient_cycles
        )
    }
}

/// End-to-end reliable-delivery policy: ack/timeout/retransmit recovery
/// layered over the best-effort fabric.
///
/// With a non-zero [`RecoveryPolicy::ack_timeout`] every receiver answers a
/// delivered message with a single-flit ACK packet routed through the same
/// fabric (real contending traffic, not a side channel), and every source
/// keeps the message in an outstanding window until all receivers have
/// acked. On timeout the source retransmits to exactly the still-unserved
/// receiver subset, with exponential backoff and a seeded jitter substream
/// so two runs of the same policy retry identically. After
/// [`RecoveryPolicy::max_retries`] retransmissions the unserved remainder
/// retires as undeliverable, so `quiesced()` still terminates on
/// unreachable-by-topology receivers.
///
/// All fields are plain integers so the policy (and [`NocConfig`]) stays
/// `Copy`, hashable and exactly representable in campaign content keys.
/// [`RecoveryPolicy::NONE`] is bit-for-bit the build without the recovery
/// subsystem (pinned by the equivalence goldens).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct RecoveryPolicy {
    /// Seed of the retransmission-jitter substream.
    pub seed: u64,
    /// Cycles a source waits for the full ACK set before retransmitting.
    /// `0` disables the recovery layer entirely.
    pub ack_timeout: u32,
    /// Retransmissions per message before the unserved remainder retires
    /// as undeliverable.
    pub max_retries: u32,
    /// Upper bound (exclusive, in cycles) of the uniform jitter added to
    /// each timeout deadline. `0` means no jitter.
    pub jitter: u32,
}

impl RecoveryPolicy {
    /// Recovery off: best-effort delivery, byte-identical behaviour to a
    /// build without the recovery subsystem.
    pub const NONE: RecoveryPolicy =
        RecoveryPolicy { seed: 0, ack_timeout: 0, max_retries: 0, jitter: 0 };

    /// Whether the recovery layer is active.
    pub fn enabled(&self) -> bool {
        self.ack_timeout != 0
    }

    /// Check internal consistency (part of [`NocConfig::validate`]).
    pub fn validate(&self) -> Result<(), ConfigError> {
        if !self.enabled() && (self.max_retries != 0 || self.jitter != 0 || self.seed != 0) {
            return Err(ConfigError::BadParameter {
                name: "recovery.ack_timeout",
                requirement: "a recovery policy with retries/jitter/seed needs a non-zero timeout",
            });
        }
        Ok(())
    }

    /// The deadline delay for retransmission attempt `attempt` (0 = first
    /// transmission): `ack_timeout << min(attempt, 16)`, exponential backoff
    /// with a saturating shift cap.
    pub fn backoff(&self, attempt: u32) -> u64 {
        (self.ack_timeout as u64) << attempt.min(16)
    }
}

impl Default for RecoveryPolicy {
    fn default() -> Self {
        RecoveryPolicy::NONE
    }
}

impl fmt::Display for RecoveryPolicy {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        if !self.enabled() {
            return write!(f, "-");
        }
        write!(f, "t{}r{}j{}s{}", self.ack_timeout, self.max_retries, self.jitter, self.seed)
    }
}

/// Errors raised when validating a [`NocConfig`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ConfigError {
    /// Node count incompatible with the chosen topology.
    BadNodeCount {
        /// The offending count.
        n: usize,
        /// The constraint that was violated.
        requirement: &'static str,
    },
    /// Parameter outside its legal range.
    BadParameter {
        /// Parameter name.
        name: &'static str,
        /// Human-readable constraint.
        requirement: &'static str,
    },
}

impl fmt::Display for ConfigError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ConfigError::BadNodeCount { n, requirement } => {
                write!(f, "invalid node count {n}: {requirement}")
            }
            ConfigError::BadParameter { name, requirement } => {
                write!(f, "invalid parameter {name}: {requirement}")
            }
        }
    }
}

impl std::error::Error for ConfigError {}

/// Structural parameters of one simulated network.
///
/// Defaults follow the paper's hardware: parameterised buffers (we default
/// to 4 flits per VC lane), single-cycle links. The virtual channels per
/// link are the topology's, not a parameter: [`TopologyKind::vcs`] (2 on
/// the wrap rings, §2.3.1: "the Quarc switch is capable of supporting two
/// virtual channels"; 1 on the mesh).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct NocConfig {
    /// Topology family.
    pub kind: TopologyKind,
    /// Number of nodes (ring topologies) or of mesh nodes (`cols × rows`
    /// derived as a near-square).
    pub n: usize,
    /// Input buffer depth per VC lane, in flits.
    pub buffer_depth: usize,
    /// Link traversal latency in cycles.
    pub link_latency: u64,
    /// Output-arbitration policy of every router's output grant arbiters.
    pub arb: ArbPolicy,
    /// Deterministic fault schedule ([`FaultPlan::NONE`] = healthy network).
    pub fault: FaultPlan,
    /// End-to-end reliable-delivery policy ([`RecoveryPolicy::NONE`] =
    /// best-effort delivery, no acks).
    pub recovery: RecoveryPolicy,
}

impl NocConfig {
    /// A Quarc network of `n` nodes with paper defaults.
    pub fn quarc(n: usize) -> Self {
        NocConfig { kind: TopologyKind::Quarc, n, ..Default::default() }
    }

    /// A Spidergon network of `n` nodes with paper defaults.
    pub fn spidergon(n: usize) -> Self {
        NocConfig { kind: TopologyKind::Spidergon, n, ..Default::default() }
    }

    /// A near-square mesh of at least `n` nodes with paper defaults, on the
    /// single VC its XY routing uses.
    pub fn mesh(n: usize) -> Self {
        NocConfig { kind: TopologyKind::Mesh, n, ..Default::default() }
    }

    /// A near-square torus of at least `n` nodes with paper defaults, on its
    /// per-dimension dateline VC pair.
    pub fn torus(n: usize) -> Self {
        NocConfig { kind: TopologyKind::Torus, n, ..Default::default() }
    }

    /// Override the buffer depth.
    pub fn with_buffer_depth(mut self, depth: usize) -> Self {
        self.buffer_depth = depth;
        self
    }

    /// Override the output-arbitration policy.
    pub fn with_arb(mut self, arb: ArbPolicy) -> Self {
        self.arb = arb;
        self
    }

    /// Override the fault schedule.
    pub fn with_fault(mut self, fault: FaultPlan) -> Self {
        self.fault = fault;
        self
    }

    /// Override the end-to-end recovery policy.
    pub fn with_recovery(mut self, recovery: RecoveryPolicy) -> Self {
        self.recovery = recovery;
        self
    }

    /// Check all structural constraints.
    pub fn validate(&self) -> Result<(), ConfigError> {
        match self.kind {
            TopologyKind::Quarc => {
                if self.n < 4 || !self.n.is_multiple_of(4) {
                    return Err(ConfigError::BadNodeCount {
                        n: self.n,
                        requirement: "Quarc requires n ≥ 4 and n ≡ 0 (mod 4)",
                    });
                }
            }
            TopologyKind::Spidergon => {
                if self.n < 4 || !self.n.is_multiple_of(2) {
                    return Err(ConfigError::BadNodeCount {
                        n: self.n,
                        requirement: "Spidergon requires even n ≥ 4",
                    });
                }
            }
            TopologyKind::Mesh => {
                if self.n < 1 {
                    return Err(ConfigError::BadNodeCount {
                        n: self.n,
                        requirement: "mesh requires n ≥ 1",
                    });
                }
            }
            TopologyKind::Torus => {
                if self.n < 4 {
                    return Err(ConfigError::BadNodeCount {
                        n: self.n,
                        requirement: "torus requires n ≥ 4 (both dimensions must wrap)",
                    });
                }
            }
        }
        if self.n > MAX_SIM_NODES {
            return Err(ConfigError::BadNodeCount {
                n: self.n,
                requirement: "behavioural simulator caps n at 65536 \
                              (the 34-bit wire RTL stays at 64, paper §2.6)",
            });
        }
        if self.buffer_depth < 1 || self.buffer_depth > MAX_BUFFER_DEPTH {
            return Err(ConfigError::BadParameter {
                name: "buffer_depth",
                requirement: "1 ≤ buffer_depth ≤ 256 flits per VC lane",
            });
        }
        if self.link_latency < 1 || self.link_latency > MAX_LINK_LATENCY {
            return Err(ConfigError::BadParameter {
                name: "link_latency",
                requirement: "1 ≤ link_latency ≤ 256 cycles",
            });
        }
        self.fault.validate()?;
        self.recovery.validate()?;
        Ok(())
    }
}

impl Default for NocConfig {
    fn default() -> Self {
        NocConfig {
            kind: TopologyKind::Quarc,
            n: 16,
            buffer_depth: 4,
            link_latency: 1,
            arb: ArbPolicy::RoundRobin,
            fault: FaultPlan::NONE,
            recovery: RecoveryPolicy::NONE,
        }
    }
}

impl fmt::Display for NocConfig {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let NocConfig { kind, n, buffer_depth: buf, link_latency: link, arb, .. } = self;
        write!(f, "{kind} n={n} vcs={} buf={buf} link={link} arb={arb}", kind.vcs())?;
        if !self.fault.is_empty() {
            write!(f, " fault={}", self.fault)?;
        }
        if self.recovery.enabled() {
            write!(f, " rec={}", self.recovery)?;
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn defaults_are_paper_hardware() {
        let c = NocConfig::default();
        assert_eq!(c.kind.vcs(), 2);
        assert_eq!(c.link_latency, 1);
        assert!(c.validate().is_ok());
    }

    #[test]
    fn quarc_rejects_non_multiple_of_four() {
        assert!(NocConfig::quarc(16).validate().is_ok());
        assert!(NocConfig::quarc(18).validate().is_err());
        assert!(NocConfig::quarc(2).validate().is_err());
    }

    #[test]
    fn spidergon_accepts_even() {
        assert!(NocConfig::spidergon(6).validate().is_ok());
        assert!(NocConfig::spidergon(7).validate().is_err());
    }

    #[test]
    fn node_count_bounded_by_sim_cap() {
        assert!(NocConfig::quarc(64).validate().is_ok());
        // The behavioural simulator models the paper's wider-flit variant:
        // the large-n scaling axis is a first-class configuration.
        assert!(NocConfig::quarc(256).validate().is_ok());
        assert!(NocConfig::quarc(1024).validate().is_ok());
        assert!(NocConfig::mesh(1024).validate().is_ok());
        assert!(NocConfig::quarc(MAX_SIM_NODES + 4).validate().is_err());
    }

    #[test]
    fn ring_needs_two_vcs() {
        // The dateline pair on every ring; XY on a mesh is the only
        // single-VC-safe discipline.
        assert_eq!(NocConfig::quarc(16).kind.vcs(), 2);
        assert_eq!(NocConfig::spidergon(16).kind.vcs(), 2);
        assert_eq!(NocConfig::mesh(16).kind.vcs(), 1);
    }

    #[test]
    fn buffer_depth_override() {
        let c = NocConfig::quarc(16).with_buffer_depth(8);
        assert_eq!(c.buffer_depth, 8);
        assert!(c.validate().is_ok());
        assert!(NocConfig::quarc(16).with_buffer_depth(0).validate().is_err());
    }

    #[test]
    fn buffer_depth_and_link_latency_are_capped() {
        let named = |cfg: NocConfig| match cfg.validate() {
            Err(ConfigError::BadParameter { name, .. }) => Some(name),
            _ => None,
        };
        let base = NocConfig::quarc(16);
        assert_eq!(named(base.with_buffer_depth(MAX_BUFFER_DEPTH)), None);
        assert_eq!(named(base.with_buffer_depth(MAX_BUFFER_DEPTH + 1)), Some("buffer_depth"));
        // What used to panic in the lane buffers (depth > u16::MAX) ...
        assert_eq!(named(base.with_buffer_depth(70_000)), Some("buffer_depth"));
        assert_eq!(named(NocConfig { link_latency: MAX_LINK_LATENCY, ..base }), None);
        assert_eq!(named(NocConfig { link_latency: 0, ..base }), Some("link_latency"));
        // ... and what used to abort the process in the link bank's allocation.
        assert_eq!(named(NocConfig { link_latency: 4_000_000_000, ..base }), Some("link_latency"));
    }

    #[test]
    fn error_display() {
        let e = NocConfig::quarc(18).validate().unwrap_err();
        assert!(e.to_string().contains("18"));
    }

    #[test]
    fn torus_validates_like_a_ring() {
        assert!(NocConfig::torus(16).validate().is_ok());
        assert!(NocConfig::torus(17).validate().is_ok(), "near-square rounding covers any n ≥ 4");
        assert!(NocConfig::torus(3).validate().is_err());
        // The wrap rings need the dateline pair, exactly like the rim rings.
        assert_eq!(TopologyKind::Torus.vcs(), TopologyKind::Quarc.vcs());
    }

    #[test]
    fn fault_plan_defaults_to_empty_and_validates() {
        let c = NocConfig::quarc(16);
        assert!(c.fault.is_empty());
        assert!(c.validate().is_ok());
        // A plan with faults distinguishes otherwise-equal configs.
        let faulted = c.with_fault(FaultPlan { dead_links: 2, seed: 7, ..FaultPlan::NONE });
        assert!(!faulted.fault.is_empty());
        assert_ne!(c, faulted);
        assert!(faulted.validate().is_ok());
        assert!(faulted.to_string().contains("fault="));
        assert!(!c.to_string().contains("fault="), "empty plans must not change Display");
    }

    #[test]
    fn fault_plan_rejects_inconsistent_schedules() {
        let transient_no_window = FaultPlan { transient_links: 1, ..FaultPlan::NONE };
        assert!(transient_no_window.validate().is_err());
        let lossy_no_prob = FaultPlan { lossy_links: 2, drop_per_64k: 0, ..FaultPlan::NONE };
        assert!(lossy_no_prob.validate().is_err());
        let cfg = NocConfig::quarc(16).with_fault(transient_no_window);
        assert!(cfg.validate().is_err());
    }

    #[test]
    fn recovery_policy_defaults_off_and_validates() {
        let c = NocConfig::quarc(16);
        assert!(!c.recovery.enabled());
        assert!(c.validate().is_ok());
        assert!(!c.to_string().contains("rec="), "RecoveryPolicy::NONE must not change Display");
        let rec = RecoveryPolicy { seed: 3, ack_timeout: 400, max_retries: 4, jitter: 16 };
        let reliable = c.with_recovery(rec);
        assert!(reliable.recovery.enabled());
        assert!(reliable.validate().is_ok());
        assert_ne!(c, reliable, "configs differing only in recovery must not compare equal");
        assert!(reliable.to_string().contains("rec=t400r4j16s3"));
        // Retries/jitter without a timeout is an inert, confusing policy.
        let inert = RecoveryPolicy { max_retries: 3, ..RecoveryPolicy::NONE };
        assert!(c.with_recovery(inert).validate().is_err());
    }

    #[test]
    fn recovery_backoff_is_exponential_and_saturating() {
        let rec = RecoveryPolicy { ack_timeout: 100, max_retries: 3, ..RecoveryPolicy::NONE };
        assert_eq!(rec.backoff(0), 100);
        assert_eq!(rec.backoff(1), 200);
        assert_eq!(rec.backoff(3), 800);
        // The shift cap keeps deadlines finite for pathological retry counts.
        assert_eq!(rec.backoff(200), 100u64 << 16);
    }

    #[test]
    fn arb_policy_is_part_of_the_config() {
        let c = NocConfig::quarc(16);
        assert_eq!(c.arb, ArbPolicy::RoundRobin);
        let f = c.with_arb(ArbPolicy::FixedPriority);
        assert_eq!(f.arb, ArbPolicy::FixedPriority);
        assert!(f.validate().is_ok());
        assert_ne!(c, f, "configs differing only in arbitration must not compare equal");
        assert!(f.to_string().contains("arb=fp"));
    }

    #[test]
    fn arb_policy_parses_what_it_displays() {
        for policy in [ArbPolicy::RoundRobin, ArbPolicy::FixedPriority] {
            assert_eq!(policy.to_string().parse(), Ok(policy));
        }
        assert_eq!("round-robin".parse(), Ok(ArbPolicy::RoundRobin));
        assert_eq!("fixed-priority".parse(), Ok(ArbPolicy::FixedPriority));
        for bad in ["RR", "xx", "", " rr"] {
            assert!(bad.parse::<ArbPolicy>().is_err(), "{bad:?}");
        }
    }
}
