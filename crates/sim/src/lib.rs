//! # quarc-sim
//!
//! The flit-level wormhole simulator for the Quarc NoC reproduction — the
//! Rust counterpart of the OMNeT++ discrete-event simulator the paper used
//! for §3.2 ("we have developed a discrete event simulator operating at flit
//! level").
//!
//! There is **one simulator** — [`fabric::Fabric`], which owns the cycle
//! loop, the active-set worklists, flow control, arbitration, and the single
//! site where each of the probe, fault and recovery layers meets the network
//! — instantiated over three [`fabric::RouterModel`]s that supply only what
//! the paper says differs between the architectures. Each model is a
//! `quarc-core` topology: its routing is the topology's
//! [`quarc_core::routing::Routing`] impl, and [`quarc_net`], [`spider_net`]
//! and [`grid_net`] add the router around it:
//!
//! * [`quarc_core::topology::QuarcTopology`] — the paper's contribution:
//!   all-port router, doubled cross links, clone-based true broadcast;
//! * [`quarc_core::topology::SpidergonTopology`] — the baseline: one-port
//!   router, single cross link, broadcast by store-and-forward unicast
//!   chains;
//! * [`quarc_core::grid::GridTopology`] — the paper's stated "next
//!   objective" comparison grids: the 2D torus (wrap links, per-dimension
//!   dateline VCs) and the 2D mesh (no wrap links, XY routing on a single
//!   VC).
//!
//! [`QuarcNetwork`], [`SpidergonNetwork`], [`MeshNetwork`] and
//! [`TorusNetwork`] are type aliases of the instantiations, and all four are
//! first-class [`quarc_core::topology::TopologyKind`]s carrying every
//! traffic class (mesh/torus collectives ride a dimension-ordered multicast
//! tree planned at the source). Everything else is shared too — building
//! blocks ([`buffer`], [`link`], [`arbiter`]), the measurement engine
//! ([`metrics`]) and the run protocol — so a latency difference between
//! networks can only come from the architectural differences the paper
//! claims matter. The protocol has three entry points: [`run`] (a network
//! and a workload in, the statistics out), [`run_mono_outcome_deadline`]
//! (the same, reporting stalls and honouring a wall-clock deadline) and
//! [`run_point`] (a [`PointSpec`] in, the outcome plus its latency
//! histograms out — the unit `quarc-campaign` replicates).
//!
//! ## The hot path: packet table + zero-alloc invariant
//!
//! Every figure is produced by stepping these simulators millions of cycles,
//! so `NocSim::step` is the repository's dominant cost. The steady-state
//! cycle loop is engineered to perform **zero heap allocations** and only
//! O(1) bookkeeping per flit event:
//!
//! * **Interned packet metadata** — the fabric owns a
//!   [`quarc_core::flit::PacketTable`]; a `Flit` is a 12-byte `Copy` handle
//!   (packet ref + seq + kind). Metadata is written once at
//!   injection, the slot is recycled when the tail is absorbed at the last
//!   node of its path.
//! * **Scratch reuse** — workload polling ([`quarc_workloads::Workload::poll_into`]),
//!   the arbitration transfer list, and per-port VC scans all use buffers
//!   that live across cycles (fixed arrays where the bound is static,
//!   `MAX_VCS`).
//! * **Counter-maintained queries** — link and lane totals (kept by
//!   [`link::LinkBank`] and [`buffer::LaneBufs`]), sender-side credits and
//!   the source backlog are updated at the event and read in O(1);
//!   `quiesced()` compares counters, it does not walk the network.
//! * **Event-driven arbitration skip** — a router that produced no grant can
//!   only become grantable through a tracked event (arrival, injection,
//!   commit, credit return), so quiescent routers are skipped exactly; within
//!   a visited router a per-router occupancy mask names the non-empty slots,
//!   so arbitration is word operations over request lines, never a scan.
//!
//! Every refactor of this path is held to **bit-identical** behaviour by
//! `tests/equivalence.rs`: fixed-seed Synthetic/Bursty/Trace runs on all four
//! topologies — healthy, and under fault plans with recovery off and on —
//! against goldens generated before it, with latency means compared as
//! exact `f64` bit patterns; `tests/active_set.rs` steps the active-set
//! scheduler in lockstep with the full-scan oracle.
//!
//! Host speed is priced by the repository's benchmark (`benchmark/`,
//! `BENCHMARK.json`): ns per flit-hop and per phase on dense, sparse and
//! fault + recovery workloads, judged by interleaved parent/change pairs
//! (procedure in `crates/sim/HOTPATH.md`).

#![warn(missing_docs)]
#![warn(rust_2018_idioms)]

pub mod arbiter;
pub mod buffer;
pub mod driver;
pub mod fabric;
pub mod fault;
pub mod grid_net;
pub mod link;
pub mod mesh_net;
pub mod metrics;
pub mod packets;
pub mod probe;
pub mod quarc_net;
pub mod recovery;
pub mod spider_net;
pub mod sweep;
pub mod torus_net;

pub use arbiter::ArbPolicy;
pub use driver::{
    run, run_mono_outcome_deadline, AnyNet, NocSim, RunOutcome, RunResult, RunSpec,
    StallDiagnostics,
};
pub use fabric::{Fabric, RouterModel};
pub use fault::FaultState;
pub use mesh_net::MeshNetwork;
pub use metrics::Metrics;
pub use probe::{CounterSample, FlitEvent, FlitEventKind, Phase, ProbeConfig, SimProbe};
pub use quarc_net::QuarcNetwork;
pub use recovery::{DataDelivery, RecoveryAction, RecoveryState};
pub use spider_net::SpidergonNetwork;
pub use sweep::{build_any, geometric_rates, run_point, PointOutcome, PointSpec};
pub use torus_net::TorusNetwork;
