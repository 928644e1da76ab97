//! Online statistics for simulation measurements.
//!
//! Latency samples arrive one packet at a time over millions of cycles, so
//! everything here is single-pass and constant-memory: Welford mean/variance
//! ([`OnlineStats`], which campaign convergence control builds on) and a
//! power-of-two histogram with percentile queries ([`LatencyHistogram`]).

/// Single-pass mean / variance / extrema (Welford's algorithm).
#[derive(Debug, Clone)]
pub struct OnlineStats {
    count: u64,
    mean: f64,
    m2: f64,
    min: f64,
    max: f64,
}

/// The empty accumulator of [`OnlineStats::new`].
impl Default for OnlineStats {
    fn default() -> Self {
        OnlineStats::new()
    }
}

impl OnlineStats {
    /// An empty accumulator.
    pub fn new() -> Self {
        OnlineStats { count: 0, mean: 0.0, m2: 0.0, min: f64::INFINITY, max: f64::NEG_INFINITY }
    }

    /// Add one sample.
    pub fn push(&mut self, x: f64) {
        self.count += 1;
        let delta = x - self.mean;
        self.mean += delta / self.count as f64;
        self.m2 += delta * (x - self.mean);
        self.min = self.min.min(x);
        self.max = self.max.max(x);
    }

    /// Number of samples.
    pub fn count(&self) -> u64 {
        self.count
    }

    /// Sample mean (0 if empty).
    pub fn mean(&self) -> f64 {
        if self.count == 0 {
            0.0
        } else {
            self.mean
        }
    }

    /// Unbiased sample variance (0 for fewer than two samples).
    pub fn variance(&self) -> f64 {
        if self.count < 2 {
            0.0
        } else {
            self.m2 / (self.count - 1) as f64
        }
    }

    /// Sample standard deviation.
    pub fn std_dev(&self) -> f64 {
        self.variance().sqrt()
    }

    /// Smallest sample (`None` if empty).
    pub fn min(&self) -> Option<f64> {
        (self.count > 0).then_some(self.min)
    }

    /// Largest sample (`None` if empty).
    pub fn max(&self) -> Option<f64> {
        (self.count > 0).then_some(self.max)
    }

    /// Merge another accumulator into this one (parallel sweeps).
    pub fn merge(&mut self, other: &OnlineStats) {
        if other.count == 0 {
            return;
        }
        if self.count == 0 {
            *self = other.clone();
            return;
        }
        let total = self.count + other.count;
        let delta = other.mean - self.mean;
        self.mean += delta * other.count as f64 / total as f64;
        self.m2 +=
            other.m2 + delta * delta * (self.count as f64 * other.count as f64) / total as f64;
        self.count = total;
        self.min = self.min.min(other.min);
        self.max = self.max.max(other.max);
    }
}

/// A histogram over `u64` values with geometric (power-of-two) buckets:
/// bucket `k` holds values in `[2^(k−1), 2^k)` (bucket 0 holds only zero).
/// Gives ≤ 2× relative error on percentile queries at constant memory, which
/// is ample for latency distribution shape checks.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct LatencyHistogram {
    buckets: [u64; 65],
    count: u64,
    total: u128,
}

impl Default for LatencyHistogram {
    fn default() -> Self {
        Self::new()
    }
}

impl LatencyHistogram {
    /// An empty histogram.
    pub fn new() -> Self {
        LatencyHistogram { buckets: [0; 65], count: 0, total: 0 }
    }

    fn bucket_of(value: u64) -> usize {
        (64 - value.leading_zeros()) as usize
    }

    /// Record one value.
    pub fn record(&mut self, value: u64) {
        self.buckets[Self::bucket_of(value)] += 1;
        self.count += 1;
        self.total += value as u128;
    }

    /// Number of recorded values.
    pub fn count(&self) -> u64 {
        self.count
    }

    /// Exact mean of recorded values.
    pub fn mean(&self) -> f64 {
        if self.count == 0 {
            0.0
        } else {
            self.total as f64 / self.count as f64
        }
    }

    /// Upper bound of the bucket containing the `p`-th percentile
    /// (`0 < p ≤ 100`). `None` if empty.
    pub fn percentile(&self, p: f64) -> Option<u64> {
        if self.count == 0 {
            return None;
        }
        let rank = ((p / 100.0) * self.count as f64).ceil().max(1.0) as u64;
        let mut seen = 0;
        for (k, &c) in self.buckets.iter().enumerate() {
            seen += c;
            if seen >= rank {
                // Bucket k covers [2^(k−1), 2^k): upper bound 2^k − 1,
                // which for the last bucket (k = 64) is u64::MAX — computed
                // as a right shift because `1u64 << 64` overflows.
                return Some(if k == 0 { 0 } else { u64::MAX >> (64 - k) });
            }
        }
        Some(u64::MAX)
    }

    /// Merge another histogram into this one.
    pub fn merge(&mut self, other: &LatencyHistogram) {
        for (a, b) in self.buckets.iter_mut().zip(other.buckets.iter()) {
            *a += b;
        }
        self.count += other.count;
        self.total += other.total;
    }

    /// The raw per-bucket counts (bucket `k` holds `[2^(k−1), 2^k)`).
    ///
    /// Together with [`Self::total`] this is the histogram's entire state,
    /// which lets callers persist a histogram and rebuild it exactly with
    /// [`Self::from_parts`] — the campaign result cache stores per-replication
    /// histograms this way so topped-up merges stay bit-identical.
    pub fn bucket_counts(&self) -> &[u64; 65] {
        &self.buckets
    }

    /// The exact sum of all recorded values.
    pub fn total(&self) -> u128 {
        self.total
    }

    /// Rebuild a histogram from persisted state. The value count is the sum
    /// of `buckets`, which is the invariant [`Self::record`] maintains.
    pub fn from_parts(buckets: [u64; 65], total: u128) -> Self {
        let count = buckets.iter().sum();
        LatencyHistogram { buckets, count, total }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn welford_matches_naive() {
        let xs = [1.0, 2.0, 3.0, 4.0, 5.0, 6.0];
        let mut s = OnlineStats::new();
        for &x in &xs {
            s.push(x);
        }
        assert_eq!(s.count(), 6);
        assert!((s.mean() - 3.5).abs() < 1e-12);
        assert!((s.variance() - 3.5).abs() < 1e-12);
        assert_eq!(s.min(), Some(1.0));
        assert_eq!(s.max(), Some(6.0));
    }

    #[test]
    fn default_is_the_empty_accumulator() {
        // A derived default used to start the extrema at 0.0, so the
        // minimum of positive samples read 0.
        let mut s = OnlineStats::default();
        assert_eq!((s.min(), s.max()), (None, None));
        s.push(5.0);
        s.push(7.0);
        assert_eq!(s.min(), Some(5.0));
        assert_eq!(s.max(), Some(7.0));
    }

    #[test]
    fn welford_merge_equals_single_pass() {
        let mut all = OnlineStats::new();
        let mut a = OnlineStats::new();
        let mut b = OnlineStats::new();
        for i in 0..100 {
            let x = (i as f64).sin() * 10.0;
            all.push(x);
            if i % 2 == 0 {
                a.push(x);
            } else {
                b.push(x);
            }
        }
        a.merge(&b);
        assert_eq!(a.count(), all.count());
        assert!((a.mean() - all.mean()).abs() < 1e-9);
        assert!((a.variance() - all.variance()).abs() < 1e-9);
    }

    #[test]
    fn empty_stats_are_safe() {
        let s = OnlineStats::new();
        assert_eq!(s.mean(), 0.0);
        assert_eq!(s.variance(), 0.0);
        assert_eq!(s.min(), None);
        let mut a = OnlineStats::new();
        a.merge(&s);
        assert_eq!(a.count(), 0);
    }

    #[test]
    fn histogram_mean_is_exact() {
        let mut h = LatencyHistogram::new();
        for v in [10u64, 20, 30, 40] {
            h.record(v);
        }
        assert_eq!(h.count(), 4);
        assert!((h.mean() - 25.0).abs() < 1e-12);
    }

    #[test]
    fn histogram_percentile_brackets_value() {
        let mut h = LatencyHistogram::new();
        for v in 1..=1000u64 {
            h.record(v);
        }
        let p50 = h.percentile(50.0).unwrap();
        // True median 500; bucket upper bound must bracket it within 2x.
        assert!((500..=1023).contains(&p50), "p50 {p50}");
        let p100 = h.percentile(100.0).unwrap();
        assert!(p100 >= 1000);
        assert_eq!(LatencyHistogram::new().percentile(50.0), None);
    }

    #[test]
    fn histogram_zero_goes_to_bucket_zero() {
        let mut h = LatencyHistogram::new();
        h.record(0);
        assert_eq!(h.percentile(100.0), Some(0));
    }

    #[test]
    fn histogram_merge() {
        let mut a = LatencyHistogram::new();
        let mut b = LatencyHistogram::new();
        a.record(5);
        b.record(15);
        a.merge(&b);
        assert_eq!(a.count(), 2);
        assert!((a.mean() - 10.0).abs() < 1e-12);
    }

    #[test]
    fn histogram_roundtrips_through_raw_parts() {
        let mut h = LatencyHistogram::new();
        for v in [0u64, 1, 7, 7, 1024, u64::MAX] {
            h.record(v);
        }
        let rebuilt = LatencyHistogram::from_parts(*h.bucket_counts(), h.total());
        assert_eq!(rebuilt, h);
        assert_eq!(rebuilt.count(), h.count());
        assert_eq!(rebuilt.percentile(95.0), h.percentile(95.0));
        assert_eq!(LatencyHistogram::from_parts([0; 65], 0), LatencyHistogram::new());
    }
}
