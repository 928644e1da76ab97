//! Adaptive saturation search: bisect the injection-rate axis for the
//! saturation frontier instead of walking a fixed grid.
//!
//! A fixed sweep wastes most of its simulation budget on deeply saturated
//! points (which are also the slowest to simulate — nothing drains). The
//! paper's own plots only need the knee; bisection finds it in
//! `O(log(1/tol))` probes. The search is deterministic: probes depend only
//! on the bracket and the probe outcomes, never on timing or threads.

/// One probe of the search.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Probe {
    /// Offered rate probed.
    pub rate: f64,
    /// Whether the run saturated.
    pub saturated: bool,
}

/// The search outcome.
#[derive(Debug, Clone, PartialEq)]
pub struct SaturationResult {
    /// Highest rate observed unsaturated (the frontier's lower edge).
    pub sustained: f64,
    /// Lowest rate observed saturated (`None` if the budget ran out while
    /// everything probed was unsaturated).
    pub collapsed: Option<f64>,
    /// Every probe, in execution order.
    pub probes: Vec<Probe>,
}

/// Bisect `[lo, hi]` for the saturation frontier of `probe_fn`.
///
/// `lo` must be expected-unsaturated; if its probe saturates, the search
/// reports it and stops (the bracket is hopeless). `hi` is expected
/// saturated; if not, the bracket is grown geometrically up to the probe
/// budget. A rate is a per-cycle injection probability, so no probe exceeds
/// 1: `hi` is capped there, and an unsaturated probe at rate 1 ends the
/// search with `sustained: 1.0, collapsed: None`. Stops when `(hi − lo) / lo
/// ≤ rel_tol` or after `max_probes` simulated probes; a probe's `Err` ends
/// it at once and is returned.
pub fn find_saturation<E>(
    mut probe_fn: impl FnMut(f64) -> Result<bool, E>,
    lo: f64,
    hi: f64,
    rel_tol: f64,
    max_probes: u32,
) -> Result<SaturationResult, E> {
    assert!(lo > 0.0 && lo <= 1.0 && hi > lo && rel_tol > 0.0 && max_probes >= 2);
    let mut probes = Vec::new();
    let mut probe = |rate: f64, probes: &mut Vec<Probe>| -> Result<bool, E> {
        let saturated = probe_fn(rate)?;
        probes.push(Probe { rate, saturated });
        Ok(saturated)
    };

    // Anchor the bracket.
    if probe(lo, &mut probes)? {
        // Even the floor saturates: report the floor as collapsed.
        return Ok(SaturationResult { sustained: 0.0, collapsed: Some(lo), probes });
    }
    let mut lo = lo;
    let mut hi = hi.min(1.0);
    // Grow until the ceiling actually saturates (or the budget or rate 1
    // runs out).
    loop {
        if probes.len() as u32 >= max_probes || lo >= 1.0 {
            return Ok(SaturationResult { sustained: lo, collapsed: None, probes });
        }
        if probe(hi, &mut probes)? {
            break;
        }
        lo = hi;
        hi = (hi * 2.0).min(1.0);
    }
    // Bisect.
    while (hi - lo) / lo > rel_tol && (probes.len() as u32) < max_probes {
        let mid = (lo * hi).sqrt(); // geometric midpoint suits a log axis
        if probe(mid, &mut probes)? {
            hi = mid;
        } else {
            lo = mid;
        }
    }
    Ok(SaturationResult { sustained: lo, collapsed: Some(hi), probes })
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::convert::Infallible;

    fn search(
        mut saturated_at: impl FnMut(f64) -> bool,
        lo: f64,
        hi: f64,
        rel_tol: f64,
        max_probes: u32,
    ) -> SaturationResult {
        find_saturation(|r| Ok::<_, Infallible>(saturated_at(r)), lo, hi, rel_tol, max_probes)
            .unwrap()
    }

    #[test]
    fn converges_to_a_known_frontier() {
        let frontier = 0.037;
        let mut calls = 0;
        let result = search(
            |r| {
                calls += 1;
                r > frontier
            },
            0.001,
            0.1,
            0.05,
            32,
        );
        assert_eq!(result.probes.len(), calls);
        assert!(result.sustained <= frontier && frontier <= result.collapsed.unwrap());
        let width = (result.collapsed.unwrap() - result.sustained) / result.sustained;
        assert!(width <= 0.05, "bracket width {width}");
        // Far fewer probes than a 40-point fixed grid.
        assert!(calls <= 16, "{calls} probes");
    }

    #[test]
    fn grows_bracket_when_ceiling_is_unsaturated() {
        let result = search(|r| r > 0.5, 0.01, 0.05, 0.1, 32);
        assert!(result.collapsed.unwrap() > 0.5);
        assert!(result.sustained <= 0.5);
    }

    #[test]
    fn saturated_floor_short_circuits() {
        let result = search(|_| true, 0.01, 0.1, 0.1, 32);
        assert_eq!(result.sustained, 0.0);
        assert_eq!(result.collapsed, Some(0.01));
        assert_eq!(result.probes.len(), 1);
    }

    #[test]
    fn respects_probe_budget() {
        let result = search(|r| r > 0.03, 0.001, 0.1, 1e-6, 7);
        assert!(result.probes.len() <= 7);
    }

    #[test]
    fn unreachable_frontier_reports_no_collapse() {
        let result = search(|_| false, 0.01, 0.02, 0.1, 4);
        assert!(result.collapsed.is_none());
        assert!(result.sustained >= 0.02);
    }

    #[test]
    fn never_probes_above_rate_one() {
        // Rate 1 unsaturated: the bracket stops growing there.
        let result = search(|_| false, 0.03, 3.0, 0.05, 12);
        assert!(result.probes.iter().all(|p| p.rate <= 1.0), "{:?}", result.probes);
        assert_eq!(result.probes.last().unwrap().rate, 1.0);
        assert_eq!((result.sustained, result.collapsed), (1.0, None));
        // A knee below 1 is still bracketed under the cap.
        let result = search(|r| r > 0.7, 0.03, 3.0, 0.05, 12);
        assert!(result.probes.iter().all(|p| p.rate <= 1.0), "{:?}", result.probes);
        assert!(result.sustained <= 0.7 && 0.7 < result.collapsed.unwrap());
    }

    #[test]
    fn a_probe_error_ends_the_search() {
        let mut probed = 0;
        let result = find_saturation(
            |r| {
                probed += 1;
                if r > 0.01 {
                    Err(r)
                } else {
                    Ok(false)
                }
            },
            0.005,
            0.05,
            0.1,
            8,
        );
        assert_eq!(result, Err(0.05));
        assert_eq!(probed, 2);
    }

    #[test]
    fn deterministic_probe_sequence() {
        let run = || {
            search(|r| r > 0.02, 0.001, 0.05, 0.02, 32)
                .probes
                .iter()
                .map(|p| p.rate)
                .collect::<Vec<_>>()
        };
        assert_eq!(run(), run());
    }
}
