//! # quarc-workloads
//!
//! Traffic generation for the Quarc NoC reproduction. The paper's evaluation
//! workload (Bernoulli injection, uniform destinations, fixed message length
//! `M`, broadcast fraction `β`) is [`synthetic::Synthetic`]; the motivating
//! MPSoC cache-sync scenario is modelled by [`coherence::Coherence`]; stress
//! patterns and the replay of a message list built in code round out the
//! suite.
//!
//! All generators implement [`request::Workload`] and are deterministic
//! functions of their seed.

#![warn(missing_docs)]
#![warn(rust_2018_idioms)]

pub mod bursty;
pub mod coherence;
mod limits;
pub mod patterns;
pub mod request;
pub mod synthetic;
pub mod trace;

pub use bursty::{Bursty, BurstyConfig};
pub use coherence::{Coherence, CoherenceConfig};
pub use patterns::Pattern;
pub use request::{MessageRequest, Workload};
pub use synthetic::{Synthetic, SyntheticConfig};
pub use trace::{TraceRecord, TraceWorkload};
