//! # quarc-bench
//!
//! The campaign front ends: the `campaign` CLI, one thin binary per
//! table/figure of the paper's evaluation (§3) over the named [`presets`],
//! and the `trace`/`simulate`/`validate` tools. The figure binaries print
//! CSV to stdout and a human-readable summary as `#`-prefixed comment lines,
//! so their output can be piped straight into a plotting tool — or into
//! `head`: every binary prints through [`outln!`], which ends quietly when
//! the reader leaves. Speed is measured by the `benchmark/` package, not
//! here.

#![warn(missing_docs)]
#![warn(rust_2018_idioms)]

pub mod cli;
pub mod presets;
