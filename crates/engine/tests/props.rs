//! Property tests for the simulation kernel: statistical correctness of the
//! accumulators, reproducibility of the RNG.

use proptest::prelude::*;
use quarc_engine::stats::{LatencyHistogram, OnlineStats};
use quarc_engine::DetRng;

proptest! {
    /// Welford mean/variance agree with the two-pass formulas.
    #[test]
    fn welford_matches_two_pass(xs in prop::collection::vec(-1e6f64..1e6, 2..300)) {
        let mut s = OnlineStats::new();
        for &x in &xs {
            s.push(x);
        }
        let n = xs.len() as f64;
        let mean = xs.iter().sum::<f64>() / n;
        let var = xs.iter().map(|x| (x - mean) * (x - mean)).sum::<f64>() / (n - 1.0);
        prop_assert!((s.mean() - mean).abs() <= 1e-6 * (1.0 + mean.abs()));
        prop_assert!((s.variance() - var).abs() <= 1e-5 * (1.0 + var.abs()));
    }

    /// Merging split accumulators equals one-pass accumulation.
    #[test]
    fn welford_merge_is_associative(
        xs in prop::collection::vec(-1e3f64..1e3, 1..100),
        split in 0usize..100,
    ) {
        let split = split % xs.len().max(1);
        let mut whole = OnlineStats::new();
        let mut left = OnlineStats::new();
        let mut right = OnlineStats::new();
        for (i, &x) in xs.iter().enumerate() {
            whole.push(x);
            if i < split { left.push(x) } else { right.push(x) }
        }
        left.merge(&right);
        prop_assert_eq!(left.count(), whole.count());
        prop_assert!((left.mean() - whole.mean()).abs() < 1e-9 * (1.0 + whole.mean().abs()));
    }

    /// Histogram percentiles bracket true values within the 2x bucket bound.
    #[test]
    fn histogram_percentile_within_bucket_error(values in prop::collection::vec(1u64..1_000_000, 1..300)) {
        let mut h = LatencyHistogram::new();
        for &v in &values {
            h.record(v);
        }
        let mut sorted = values.clone();
        sorted.sort_unstable();
        let true_median = sorted[(sorted.len() - 1) / 2];
        let est = h.percentile(50.0).unwrap();
        // Bucket upper bound: est is within [true/1, 2*true] roughly.
        prop_assert!(est >= true_median / 2, "est {est} vs median {true_median}");
        prop_assert!(est <= true_median.saturating_mul(2).max(1), "est {est} vs {true_median}");
    }

    /// Same seed → same stream; fork independence from consumption order.
    #[test]
    fn rng_reproducible(seed in any::<u64>(), stream in any::<u64>()) {
        let mut a = DetRng::new(seed).fork(stream);
        let mut b = DetRng::new(seed).fork(stream);
        for _ in 0..16 {
            prop_assert_eq!(a.next_u64(), b.next_u64());
        }
    }
}
