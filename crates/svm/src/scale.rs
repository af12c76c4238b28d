//! Z-score feature standardization.
//!
//! The paper's feature vector (Fig. 7) mixes vertex counts (~10⁶), GFLOPS
//! (~10³) and Kronecker probabilities (~10⁻¹). RBF kernels collapse without
//! rescaling, so every model in this workspace trains on standardized
//! features: `x' = (x − μ) / σ` per dimension.

use serde::{Deserialize, Serialize};

/// Per-dimension mean/standard-deviation transform fitted on training data.
#[derive(Clone, Debug, PartialEq, Serialize, Deserialize)]
pub struct Scaler {
    mean: Vec<f64>,
    /// Standard deviation with constant dimensions clamped to 1 (a constant
    /// feature carries no information; mapping it to 0 is correct and
    /// avoids division by zero).
    std: Vec<f64>,
}

impl Scaler {
    /// Fit on a set of samples.
    ///
    /// # Panics
    /// Panics if `samples` is empty or ragged.
    pub fn fit<'a, I>(samples: I) -> Self
    where
        I: IntoIterator<Item = &'a [f64]>,
    {
        let rows: Vec<&[f64]> = samples.into_iter().collect();
        assert!(!rows.is_empty(), "cannot fit a scaler on zero samples");
        let dim = rows[0].len();
        assert!(rows.iter().all(|r| r.len() == dim), "ragged samples");
        let n = rows.len() as f64;

        let mut mean = vec![0.0; dim];
        for r in &rows {
            for (m, v) in mean.iter_mut().zip(*r) {
                *m += v;
            }
        }
        for m in &mut mean {
            *m /= n;
        }

        let mut var = vec![0.0; dim];
        for r in &rows {
            for ((s, v), m) in var.iter_mut().zip(*r).zip(&mean) {
                let d = v - m;
                *s += d * d;
            }
        }
        let std = var
            .iter()
            .map(|&s| {
                let sd = (s / n).sqrt();
                if sd < 1e-12 {
                    1.0
                } else {
                    sd
                }
            })
            .collect();
        Self { mean, std }
    }

    /// Feature dimension.
    pub fn dim(&self) -> usize {
        self.mean.len()
    }

    /// Standardize one sample.
    ///
    /// # Panics
    /// Panics if the dimension does not match the fitted dimension.
    pub fn transform(&self, x: &[f64]) -> Vec<f64> {
        assert_eq!(x.len(), self.dim(), "dimension mismatch");
        x.iter()
            .zip(&self.mean)
            .zip(&self.std)
            .map(|((v, m), s)| (v - m) / s)
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn transformed_data_has_zero_mean_unit_std() {
        let data: Vec<Vec<f64>> = vec![
            vec![1.0, 100.0],
            vec![2.0, 200.0],
            vec![3.0, 300.0],
            vec![4.0, 400.0],
        ];
        let scaler = Scaler::fit(data.iter().map(Vec::as_slice));
        let t: Vec<Vec<f64>> = data.iter().map(|x| scaler.transform(x)).collect();
        for d in 0..2 {
            let mean: f64 = t.iter().map(|r| r[d]).sum::<f64>() / 4.0;
            let var: f64 = t.iter().map(|r| r[d] * r[d]).sum::<f64>() / 4.0;
            assert!(mean.abs() < 1e-12, "dim {d} mean {mean}");
            assert!((var - 1.0).abs() < 1e-12, "dim {d} var {var}");
        }
    }

    #[test]
    fn constant_feature_maps_to_zero() {
        let data = [vec![5.0, 1.0], vec![5.0, 2.0]];
        let scaler = Scaler::fit(data.iter().map(Vec::as_slice));
        let t = scaler.transform(&[5.0, 1.5]);
        assert_eq!(t[0], 0.0);
        assert_eq!(t[1], 0.0); // mid-point of dim 1
    }

    #[test]
    fn transform_is_affine_order_preserving() {
        let data = [vec![0.0], vec![10.0]];
        let scaler = Scaler::fit(data.iter().map(Vec::as_slice));
        let a = scaler.transform(&[2.0])[0];
        let b = scaler.transform(&[8.0])[0];
        assert!(a < b);
    }

    #[test]
    #[should_panic(expected = "zero samples")]
    fn fit_rejects_empty() {
        Scaler::fit(std::iter::empty::<&[f64]>());
    }

    #[test]
    #[should_panic(expected = "dimension mismatch")]
    fn transform_rejects_wrong_dim() {
        let scaler = Scaler::fit([&[1.0, 2.0][..], &[3.0, 4.0][..]]);
        scaler.transform(&[1.0]);
    }
}
