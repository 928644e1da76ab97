//! The traffic limits, one rule per kind of parameter: the `check` of every
//! workload configuration is built from these, so a rule and its message
//! are stated once.

use quarc_core::config::ConfigError;

/// Traffic needs a source and a distinct destination.
pub(crate) fn nodes(n: usize) -> Result<(), ConfigError> {
    if n < 2 {
        let requirement = "traffic needs at least two nodes";
        return Err(ConfigError::BadNodeCount { n, requirement });
    }
    Ok(())
}

/// A message length in flits: a packet is at least a header and a tail, and
/// its length fits the fabric's `u32`.
pub(crate) fn msg_len(name: &'static str, len: usize) -> Result<(), ConfigError> {
    let ok = (2..=u32::MAX as usize).contains(&len);
    require(ok, name, "must lie in [2, 2^32 - 1] flits (a packet is header + tail)")
}

/// A probability or a share.
pub(crate) fn fraction(name: &'static str, x: f64) -> Result<(), ConfigError> {
    require((0.0..=1.0).contains(&x), name, "must lie in [0, 1]")
}

/// A per-cycle injection probability.
pub(crate) fn rate(name: &'static str, r: f64) -> Result<(), ConfigError> {
    require(r > 0.0 && r <= 1.0, name, "must be in (0, 1] messages/node/cycle")
}

/// A mean dwell time in cycles: finite and at most 10^9, so that twice it
/// still fits a `usize` when a generator draws a phase below it.
pub(crate) fn dwell(name: &'static str, mean: f64) -> Result<(), ConfigError> {
    require(mean <= 1e9, name, "must be finite and at most 1e9 cycles")
}

/// `Ok` where `ok` holds, else `name` breaks `requirement`.
pub(crate) fn require(
    ok: bool,
    name: &'static str,
    requirement: &'static str,
) -> Result<(), ConfigError> {
    if ok {
        Ok(())
    } else {
        Err(ConfigError::BadParameter { name, requirement })
    }
}
