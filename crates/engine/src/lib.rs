//! # quarc-engine
//!
//! The deterministic simulation kernel underneath the Quarc NoC flit-level
//! simulator: a cycle [`clock`], a FIFO-tie-broken [`events::EventQueue`],
//! forkable seeded randomness ([`rng::DetRng`]) and constant-memory online
//! [`stats`]. Nothing in this crate knows about networks; `quarc-sim` builds
//! the NoC models on top.
//!
//! Determinism contract: given the same master seed and configuration, every
//! simulation built on this kernel produces bit-identical results, because
//! (a) events at equal timestamps pop in insertion order, (b) every random
//! stream is a pure function of `(seed, stream id)`, and (c) the statistics
//! are order-stable accumulators.

#![warn(missing_docs)]
#![warn(rust_2018_idioms)]

pub mod clock;
pub mod events;
pub mod rng;
pub mod stats;

pub use clock::{Clock, Cycle};
pub use events::EventQueue;
pub use rng::{mix64, DetRng};
pub use stats::{LatencyHistogram, OnlineStats};
