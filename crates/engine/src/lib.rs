//! # quarc-engine
//!
//! The deterministic kernel underneath the Quarc NoC flit-level simulator:
//! simulated time ([`Cycle`]), forkable seeded randomness ([`rng::DetRng`])
//! and constant-memory online [`stats`]. Nothing in this crate knows about
//! networks; `quarc-sim` builds the NoC models on top.
//!
//! Determinism contract: given the same master seed and configuration, every
//! simulation built on this kernel produces bit-identical results, because
//! (a) every random stream is a pure function of `(seed, stream id)`, and
//! (b) the statistics are order-stable accumulators.

#![warn(missing_docs)]
#![warn(rust_2018_idioms)]

pub mod rng;
pub mod stats;

pub use rng::{mix64, DetRng};
pub use stats::{LatencyHistogram, OnlineStats};

/// A point in simulated time, measured in router clock cycles. The
/// simulator is cycle-driven: every component observes the network as of
/// the start of a cycle and commits its outputs at the end, so one counter
/// is all the time there is.
pub type Cycle = u64;
