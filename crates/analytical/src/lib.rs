//! # quarc-analytical
//!
//! M/G/1-based analytical latency models, mirroring the role of the paper's
//! ref. \[8\]: an independent check that the flit-level simulator behaves
//! like wormhole queueing theory says it must (paper §3.2). The unicast
//! latency model and the saturation bound ([`latency`]) are stated once,
//! over any topology's [`Routing`](quarc_core::routing::Routing) — Quarc,
//! Spidergon, mesh and torus alike; the `quarc_*` forms are the Quarc's.
//! The models also expose the structural facts the paper argues from —
//! per-link load balance ([`linkload`]) and the saturation-rate gap between
//! the two architectures.

#![warn(missing_docs)]
#![warn(rust_2018_idioms)]

pub mod beta;
pub mod latency;
pub mod linkload;
pub mod mg1;

pub use beta::{quarc_port_saturation_with_beta, spidergon_saturation_with_beta};
pub use latency::{
    quarc_broadcast_zero_load, quarc_saturation_rate, quarc_unicast_latency, saturation_rate,
    spidergon_broadcast_zero_load, unicast_latency,
};
pub use linkload::LinkLoads;
pub use mg1::mg1_wait;
