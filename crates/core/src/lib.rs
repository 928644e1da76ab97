//! # quarc-core
//!
//! Core abstractions of the **Quarc Network-on-Chip** (Moadeli, Maji,
//! Vanderbauwhede, *"Design and implementation of the Quarc Network on-Chip"*,
//! IEEE IPDPS 2009): the 34-bit flit wire format, packet metadata, the Quarc
//! and Spidergon ring topologies, the 2D mesh/torus grid the paper names as
//! its next comparison (one [`grid::GridTopology`] for both), the
//! quadrant calculator that constitutes the entirety of Quarc routing, the
//! BRCP broadcast/multicast branch planner, Spidergon's broadcast-by-unicast
//! replication plan, the [`routing::Routing`] trait that is the one routing
//! function of every topology, and the dateline virtual-channel discipline
//! with a channel-dependency-graph deadlock-freedom checker built on it.
//!
//! Everything in this crate is pure (no I/O, no clocks, no randomness): these
//! are the definitions that the flit-level simulator (`quarc-sim`), the
//! signal-level hardware model (`quarc-rtl`), the area model (`quarc-area`)
//! and the analytical latency models (`quarc-analytical`) all share, so that
//! a routing convention fixed here is fixed everywhere.
//!
//! ## Quick tour
//!
//! ```
//! use quarc_core::prelude::*;
//!
//! // The paper's Fig. 6: node 0 broadcasting in a 16-node Quarc emits four
//! // streams whose header destinations are 4, 5, 11 and 12.
//! let ring = Ring::new(16);
//! let mut dsts: Vec<u32> = broadcast_branch_heads(&ring, NodeId(0))
//!     .into_iter()
//!     .flatten()
//!     .map(|(_, dst)| dst.0)
//!     .collect();
//! dsts.sort();
//! assert_eq!(dsts, vec![4, 5, 11, 12]);
//! ```

#![warn(missing_docs)]
#![warn(rust_2018_idioms)]

pub mod bits;
pub mod config;
pub mod flit;
pub mod grid;
pub mod ids;
pub mod quadrant;
pub mod ring;
pub mod routing;
pub mod topology;
#[cfg(test)]
mod torus;
pub mod vc;

/// Convenient re-exports of the types used by nearly every downstream module.
pub mod prelude {
    pub use crate::bits::{BitSlab, Bits};
    pub use crate::config::{ArbPolicy, ConfigError, NocConfig};
    pub use crate::flit::{Flit, FlitKind, PacketMeta, PacketRef, PacketTable, TrafficClass};
    pub use crate::grid::{GridBranch, GridOut, GridTopology};
    pub use crate::ids::{MessageId, NodeId, PacketId, VcId};
    pub use crate::quadrant::{
        broadcast_branch_heads, multicast_branches_into, quadrant_of, unicast_hops, Branch,
        Quadrant,
    };
    pub use crate::ring::{Ring, RingDir};
    pub use crate::routing::{
        chain_continuations, quarc_route, spidergon_broadcast_seeds, spidergon_hops, ChainSeed,
        Route, RouteAction, Routing,
    };
    pub use crate::topology::{
        QuarcIn, QuarcOut, QuarcTopology, SpiIn, SpiOut, SpidergonTopology, TopologyKind,
    };
    pub use crate::vc::{vc_after_rim_hop, INJECTION_VC, MAX_VCS};
}
