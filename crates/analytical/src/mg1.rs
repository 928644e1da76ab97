//! M/G/1 queueing primitives.
//!
//! The analytical latency models of Moadeli et al. (ICPP 2007, the paper's
//! ref. \[8\]) treat every network channel and every injection port as an
//! M/G/1 queue: Poisson message arrivals, general service time. We use the
//! Pollaczek–Khinchine mean waiting time with a configurable service-time
//! coefficient of variation (0 = deterministic service, 1 = exponential).

/// Mean waiting time of an M/G/1 queue.
///
/// `rho` is the utilisation (arrival rate × mean service), `service` the mean
/// service time, `cv2` the squared coefficient of variation of service.
/// Returns `None` when the queue is unstable (`rho ≥ 1`).
pub fn mg1_wait(rho: f64, service: f64, cv2: f64) -> Option<f64> {
    if !(0.0..1.0).contains(&rho) {
        return None;
    }
    if rho == 0.0 {
        return Some(0.0);
    }
    Some(rho * service * (1.0 + cv2) / (2.0 * (1.0 - rho)))
}

/// Squared coefficient of variation used for wormhole channel service: the
/// service time of a message on a channel is dominated by its deterministic
/// M-flit serialisation, so we default to deterministic service.
pub const DEFAULT_CV2: f64 = 0.0;

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn zero_load_waits_nothing() {
        assert_eq!(mg1_wait(0.0, 10.0, 0.0), Some(0.0));
    }

    #[test]
    fn wait_grows_with_utilisation() {
        let w1 = mg1_wait(0.2, 8.0, 0.0).unwrap();
        let w2 = mg1_wait(0.5, 8.0, 0.0).unwrap();
        let w3 = mg1_wait(0.9, 8.0, 0.0).unwrap();
        assert!(w1 < w2 && w2 < w3);
    }

    #[test]
    fn unstable_queue_is_none() {
        assert_eq!(mg1_wait(1.0, 8.0, 0.0), None);
        assert_eq!(mg1_wait(1.5, 8.0, 0.0), None);
        assert_eq!(mg1_wait(-0.1, 8.0, 0.0), None);
    }

    #[test]
    fn md1_half_of_mm1() {
        // For the same rho and mean service, deterministic service waits half
        // as long as exponential (cv2 = 1).
        let det = mg1_wait(0.5, 8.0, 0.0).unwrap();
        let exp = mg1_wait(0.5, 8.0, 1.0).unwrap();
        assert!((exp - 2.0 * det).abs() < 1e-12);
    }

    #[test]
    fn pk_formula_spot_check() {
        // rho = 0.5, S = 10, cv2 = 0 → W = 0.5·10/(2·0.5) = 5.
        assert!((mg1_wait(0.5, 10.0, 0.0).unwrap() - 5.0).abs() < 1e-12);
    }
}
