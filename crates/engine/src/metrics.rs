//! TEPS accounting (Graph 500 Table I).
//!
//! TEPS — *traversed edges per second* — is the Graph 500 performance
//! metric: the number of input edges in the traversed component divided by
//! BFS time. Note that it is deliberately *not* "edges examined": a
//! bottom-up kernel that examines fewer edges in the same time scores the
//! same TEPS, which is exactly how the paper's speedups are expressed.

use serde::{Deserialize, Serialize};

/// A BFS performance measurement.
#[derive(Clone, Copy, Debug, PartialEq, Serialize, Deserialize)]
pub struct Teps {
    /// Undirected input edges within the traversed component.
    pub edges: u64,
    /// Traversal time in seconds.
    pub seconds: f64,
}

impl Teps {
    /// Construct from an edge count and a duration.
    ///
    /// Panicking convenience for tests and trusted call sites; runtime
    /// paths handling measured or user-supplied durations should use
    /// [`Teps::try_new`].
    ///
    /// # Panics
    /// Panics if `seconds` is not positive and finite.
    pub fn new(edges: u64, seconds: f64) -> Self {
        Self::try_new(edges, seconds)
            .unwrap_or_else(|_| panic!("traversal time must be positive, got {seconds}"))
    }

    /// Fallible construction for untrusted durations: `seconds` must be
    /// finite and strictly positive.
    pub fn try_new(edges: u64, seconds: f64) -> Result<Self, crate::XbfsError> {
        if seconds.is_finite() && seconds > 0.0 {
            Ok(Self { edges, seconds })
        } else {
            Err(crate::XbfsError::InvalidArgument {
                what: format!("traversal time must be positive and finite, got {seconds}"),
            })
        }
    }

    /// Traversed edges per second.
    pub fn teps(&self) -> f64 {
        self.edges as f64 / self.seconds
    }

    /// TEPS in units of 10⁹ (the paper's Table VI is in GTEPS).
    pub fn gteps(&self) -> f64 {
        self.teps() / 1e9
    }
}

/// Harmonic mean of TEPS values — the Graph 500-prescribed aggregate over
/// multiple BFS roots (arithmetic-averaging rates overweights lucky roots).
pub fn harmonic_mean_teps(samples: &[Teps]) -> f64 {
    if samples.is_empty() {
        return 0.0;
    }
    let inv_sum: f64 = samples.iter().map(|t| 1.0 / t.teps()).sum();
    samples.len() as f64 / inv_sum
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn basic_rates() {
        let t = Teps::new(2_000_000_000, 2.0);
        assert_eq!(t.teps(), 1e9);
        assert_eq!(t.gteps(), 1.0);
    }

    #[test]
    fn harmonic_mean_punishes_outliers() {
        let samples = [Teps::new(100, 1.0), Teps::new(100, 100.0)];
        let hm = harmonic_mean_teps(&samples);
        // Harmonic mean of 100 and 1 TEPS is ~1.98.
        assert!((hm - 200.0 / 101.0).abs() < 1e-9);
    }

    #[test]
    fn empty_sample_sets() {
        assert_eq!(harmonic_mean_teps(&[]), 0.0);
    }

    #[test]
    #[should_panic(expected = "positive")]
    fn rejects_zero_time() {
        Teps::new(1, 0.0);
    }

    #[test]
    fn try_new_rejects_degenerate_durations() {
        assert!(Teps::try_new(1, 0.0).is_err());
        assert!(Teps::try_new(1, -1.0).is_err());
        assert!(Teps::try_new(1, f64::NAN).is_err());
        assert!(Teps::try_new(1, f64::INFINITY).is_err());
        let t = Teps::try_new(100, 2.0).expect("valid");
        assert_eq!(t.teps(), 50.0);
    }
}
