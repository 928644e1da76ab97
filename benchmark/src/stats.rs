//! The estimator behind every host-time number.
//!
//! Noise on a shared host is one-sided: a pass is never faster than the
//! machine allows, only slower when something else runs. The mean of the
//! fastest three passes therefore repeats within a few percent where the
//! median moves by a third (see `README.md`); median, quartiles and extremes
//! are printed beside it so a reader can see the spread that was discarded.

/// Quantile of an ascending slice by linear interpolation between ranks.
pub fn quantile(sorted: &[f64], q: f64) -> f64 {
    assert!(!sorted.is_empty() && (0.0..=1.0).contains(&q));
    let pos = q * (sorted.len() - 1) as f64;
    let lo = pos.floor() as usize;
    let hi = pos.ceil() as usize;
    sorted[lo] + (sorted[hi] - sorted[lo]) * (pos - lo as f64)
}

/// What K samples of one quantity reduce to.
#[derive(Debug, Clone, PartialEq)]
pub struct Summary {
    /// Mean of the three smallest samples (of all of them when K < 3).
    pub best3: f64,
    pub median: f64,
    pub q1: f64,
    pub q3: f64,
    pub min: f64,
    pub max: f64,
    pub k: usize,
    /// `(percentile, value)` of the highest percentile that still has ten
    /// samples beyond it; `None` below twenty samples, where no percentile
    /// above the median qualifies.
    pub tail: Option<(f64, f64)>,
}

impl Summary {
    pub fn of(samples: &[f64]) -> Summary {
        let mut sorted = samples.to_vec();
        sorted.sort_by(f64::total_cmp);
        let k = sorted.len();
        let fastest = &sorted[..k.min(3)];
        let tail = (k >= 20).then(|| (100.0 * (k - 10) as f64 / k as f64, sorted[k - 11]));
        Summary {
            best3: fastest.iter().sum::<f64>() / fastest.len() as f64,
            median: quantile(&sorted, 0.5),
            q1: quantile(&sorted, 0.25),
            q3: quantile(&sorted, 0.75),
            min: sorted[0],
            max: sorted[k - 1],
            k,
            tail,
        }
    }

    pub fn iqr(&self) -> f64 {
        self.q3 - self.q1
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn best3_is_the_mean_of_the_three_fastest() {
        let s = Summary::of(&[9.0, 2.0, 7.0, 1.0, 3.0, 8.0, 50.0, 6.0]);
        assert_eq!(s.best3, 2.0);
        assert_eq!((s.min, s.max, s.k), (1.0, 50.0, 8));
        assert_eq!(s.median, 6.5);
        assert_eq!((s.q1, s.q3), (2.75, 8.25));
        assert_eq!(s.iqr(), 5.5);
    }

    #[test]
    fn fewer_than_three_samples_average_what_there_is() {
        assert_eq!(Summary::of(&[4.0, 2.0]).best3, 3.0);
        assert_eq!(Summary::of(&[5.0]).median, 5.0);
    }

    #[test]
    fn a_percentile_needs_ten_samples_beyond_it() {
        let samples = |k: usize| (1..=k).map(|i| i as f64).collect::<Vec<_>>();
        assert_eq!(Summary::of(&samples(19)).tail, None);
        // 20 samples: only the median has ten samples above it.
        assert_eq!(Summary::of(&samples(20)).tail, Some((50.0, 10.0)));
        // 100 samples: p90, whose value has exactly ten samples above it.
        assert_eq!(Summary::of(&samples(100)).tail, Some((90.0, 90.0)));
    }
}
