//! Destination selection patterns.
//!
//! The paper's evaluation uses uniformly distributed destinations; the other
//! patterns are standard NoC stressors included for the extension
//! experiments: hotspot concentrates load on one ejection port, complement
//! saturates the cross links, neighbour saturates one rim, and bit-reversal
//! exercises an adversarial permutation.

use quarc_core::ids::NodeId;
use quarc_engine::DetRng;
use std::fmt;
use std::str::FromStr;

/// How a traffic generator picks unicast destinations.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum Pattern {
    /// Uniform over all nodes except the source (the paper's workload).
    Uniform,
    /// With probability `frac`, send to `node`; otherwise uniform.
    Hotspot {
        /// The hot node.
        node: NodeId,
        /// Fraction of traffic aimed at it.
        frac: f64,
    },
    /// Always the antipodal node — worst case for the shared Spidergon spoke.
    Complement,
    /// Always the clockwise neighbour — best case, rim-only traffic.
    Neighbour,
    /// Destination = bit-reversed source address (within `ceil(log2 n)` bits);
    /// falls back to uniform when the reversal maps to self or out of range.
    BitReversal,
}

impl Pattern {
    /// Pick a destination for `src` in an `n`-node network. Never returns
    /// `src`.
    pub fn pick(&self, rng: &mut DetRng, src: NodeId, n: usize) -> NodeId {
        debug_assert!(n >= 2);
        match *self {
            Pattern::Uniform => NodeId::new(rng.below_excluding(n, src.index())),
            Pattern::Hotspot { node, frac } => {
                if node != src && rng.chance(frac) {
                    node
                } else {
                    NodeId::new(rng.below_excluding(n, src.index()))
                }
            }
            Pattern::Complement => NodeId::new((src.index() + n / 2) % n),
            Pattern::Neighbour => NodeId::new((src.index() + 1) % n),
            Pattern::BitReversal => {
                let bits = usize::BITS - (n - 1).leading_zeros();
                let rev = src.index().reverse_bits() >> (usize::BITS - bits);
                if rev < n && rev != src.index() {
                    NodeId::new(rev)
                } else {
                    NodeId::new(rng.below_excluding(n, src.index()))
                }
            }
        }
    }
}

impl fmt::Display for Pattern {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Pattern::Uniform => write!(f, "uniform"),
            Pattern::Hotspot { node, frac } => write!(f, "hotspot({},{frac})", node.index()),
            Pattern::Complement => write!(f, "complement"),
            Pattern::Neighbour => write!(f, "neighbour"),
            Pattern::BitReversal => write!(f, "bit-reversal"),
        }
    }
}

/// Inverse of [`Pattern`]'s `Display` for the parameterless patterns, which
/// also reads the spelling `neighbor`. A hotspot names a node, which only a
/// network size can check, so it is not read from text.
impl FromStr for Pattern {
    type Err = String;

    fn from_str(s: &str) -> Result<Self, Self::Err> {
        match s {
            "uniform" => Ok(Pattern::Uniform),
            "complement" => Ok(Pattern::Complement),
            "neighbour" | "neighbor" => Ok(Pattern::Neighbour),
            "bit-reversal" => Ok(Pattern::BitReversal),
            other => Err(format!(
                "unknown pattern {other:?} (want uniform, complement, neighbour or bit-reversal)"
            )),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn uniform_never_picks_self_and_covers_all() {
        let mut rng = DetRng::new(1);
        let src = NodeId(3);
        let mut seen = [false; 8];
        for _ in 0..1000 {
            let d = Pattern::Uniform.pick(&mut rng, src, 8);
            assert_ne!(d, src);
            seen[d.index()] = true;
        }
        assert_eq!(seen.iter().filter(|&&b| b).count(), 7);
    }

    #[test]
    fn hotspot_concentrates() {
        let mut rng = DetRng::new(2);
        let hot = NodeId(0);
        let mut hits = 0;
        let trials = 10_000;
        for _ in 0..trials {
            if (Pattern::Hotspot { node: hot, frac: 0.5 }).pick(&mut rng, NodeId(3), 16) == hot {
                hits += 1;
            }
        }
        // 0.5 + 0.5/15 ≈ 0.533 expected.
        let frac = hits as f64 / trials as f64;
        assert!((0.48..0.59).contains(&frac), "hotspot fraction {frac}");
    }

    #[test]
    fn hotspot_source_is_hot_node() {
        let mut rng = DetRng::new(3);
        // When the source *is* the hotspot it must fall back to uniform.
        for _ in 0..100 {
            let d = Pattern::Hotspot { node: NodeId(3), frac: 1.0 }.pick(&mut rng, NodeId(3), 8);
            assert_ne!(d, NodeId(3));
        }
    }

    #[test]
    fn complement_is_antipode() {
        let mut rng = DetRng::new(4);
        assert_eq!(Pattern::Complement.pick(&mut rng, NodeId(3), 16), NodeId(11));
        assert_eq!(Pattern::Complement.pick(&mut rng, NodeId(12), 16), NodeId(4));
    }

    #[test]
    fn neighbour_wraps() {
        let mut rng = DetRng::new(5);
        assert_eq!(Pattern::Neighbour.pick(&mut rng, NodeId(15), 16), NodeId(0));
    }

    #[test]
    fn bit_reversal_is_involution_where_defined() {
        let mut rng = DetRng::new(6);
        // For n=16, 4-bit reversal: 1 (0001) -> 8 (1000).
        assert_eq!(Pattern::BitReversal.pick(&mut rng, NodeId(1), 16), NodeId(8));
        assert_eq!(Pattern::BitReversal.pick(&mut rng, NodeId(8), 16), NodeId(1));
        // Palindromic addresses (0, 6, 9, 15) fall back to uniform ≠ self.
        for _ in 0..50 {
            assert_ne!(Pattern::BitReversal.pick(&mut rng, NodeId(6), 16), NodeId(6));
        }
    }

    #[test]
    fn display_is_stable() {
        assert_eq!(Pattern::Uniform.to_string(), "uniform");
        assert_eq!(Pattern::Complement.to_string(), "complement");
    }

    #[test]
    fn pattern_parses_what_it_displays() {
        for p in [Pattern::Uniform, Pattern::Complement, Pattern::Neighbour, Pattern::BitReversal] {
            assert_eq!(p.to_string().parse(), Ok(p));
        }
        assert_eq!("neighbor".parse(), Ok(Pattern::Neighbour));
        // A hotspot is written by its node index, and not read back.
        let hotspot = Pattern::Hotspot { node: NodeId(1), frac: 0.5 }.to_string();
        assert_eq!(hotspot, "hotspot(1,0.5)");
        for bad in [hotspot.as_str(), "hotspot(n1,0.5)", "zigzag", "Uniform", ""] {
            assert!(bad.parse::<Pattern>().is_err(), "{bad:?}");
        }
    }
}
