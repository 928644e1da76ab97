//! # quarc-bench
//!
//! The campaign front ends: the `campaign` CLI, which runs the paper's
//! evaluation (§3) as named [`presets`] — a figure's CSV is
//! `<out>/<preset>.csv` from `campaign --preset NAME --out <out>` — the
//! `fig12`/`table1` area-model tables, and the `trace`/`simulate`/`validate`
//! tools. The table binaries print CSV to stdout with a human-readable
//! summary as `#`-prefixed comment lines, so their output can be piped
//! straight into a plotting tool — or into `head`: every binary prints
//! through [`outln!`], which ends quietly when the reader leaves. Speed is
//! measured by the `benchmark/` package, not here.

#![warn(missing_docs)]
#![warn(rust_2018_idioms)]

pub mod cli;
pub mod presets;
