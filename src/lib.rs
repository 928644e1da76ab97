//! # quarc
//!
//! Facade crate for the Quarc Network-on-Chip reproduction (Moadeli, Maji,
//! Vanderbauwhede, IPDPS 2009). Re-exports every layer of the stack under one
//! roof; see the individual crates for details:
//!
//! * [`core`] — topologies, flit format, routing, VC discipline;
//! * [`engine`] — simulation kernel (cycle type, RNG, statistics);
//! * [`workloads`] — traffic generation;
//! * [`sim`] — the flit-level wormhole simulator;
//! * [`campaign`] — parallel, deterministic experiment campaigns: declarative
//!   parameter grids run on a shared-cursor parallel map, replication merging
//!   with confidence intervals, adaptive saturation search, a content-hashed
//!   result cache and JSON/CSV artifacts;
//! * [`rtl`] — the signal-level switch/transceiver hardware model;
//! * [`area`] — the Virtex-II Pro area model (Table 1 / Fig. 12);
//! * [`analytical`] — M/G/1 latency models used for validation.
//!
//! ## Running a campaign
//!
//! ```no_run
//! use quarc::campaign::{run_campaign, CampaignOptions, CampaignSpec, RateAxis};
//!
//! let mut spec = CampaignSpec::new("demo");
//! spec.sizes = vec![16, 32];
//! spec.rates = RateAxis::Explicit(vec![0.005, 0.01, 0.02]);
//! let report = run_campaign(&spec, &CampaignOptions::default()).unwrap();
//! println!("{}", report.csv());
//! ```
//!
//! or from the command line (the paper's whole Fig. 9–11 grid, cached):
//!
//! ```text
//! cargo run --release -p quarc-bench --bin campaign -- --preset paper
//! ```

#![warn(missing_docs)]

pub use quarc_analytical as analytical;
pub use quarc_area as area;
pub use quarc_campaign as campaign;
pub use quarc_core as core;
pub use quarc_engine as engine;
pub use quarc_rtl as rtl;
pub use quarc_sim as sim;
pub use quarc_workloads as workloads;

pub use quarc_core::prelude;
