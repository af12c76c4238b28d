//! Hyper-parameter selection: k-fold cross-validation.
//!
//! The paper leans on LIBSVM's tooling ("a detailed tutorial can be found
//! in \[10\]") for model selection; this module supplies the equivalent
//! k-fold CV error of a configuration. The ablation benches use it to
//! show how prediction accuracy moves with training-set size — the
//! paper's "the prediction accuracy will be higher with more training
//! samples" remark (§III-E).

use crate::{Dataset, Regressor, Svr, SvrConfig};

/// Split `data` into `k` interleaved folds (`fold i` = samples with
/// `index % k == i`) and return the mean held-out MSE of `config`.
///
/// # Panics
/// Panics unless `2 ≤ k ≤ data.len()`.
pub fn cross_validate(data: &Dataset, config: SvrConfig, k: usize) -> f64 {
    assert!(k >= 2 && k <= data.len(), "need 2 <= k <= n, got k={k}");
    let mut total = 0.0;
    for fold in 0..k {
        let mut train = Dataset::new(data.dim());
        let mut test = Dataset::new(data.dim());
        for (i, (x, y)) in data.iter().enumerate() {
            if i % k == fold {
                test.push(x.to_vec(), y);
            } else {
                train.push(x.to_vec(), y);
            }
        }
        let model = Svr::fit(&train, config);
        total += model.mse(&test);
    }
    total / k as f64
}

#[cfg(test)]
mod tests {
    use super::*;

    fn noisy_linear(n: usize) -> Dataset {
        let mut d = Dataset::new(2);
        for i in 0..n {
            let a = (i % 13) as f64 * 0.5;
            let b = (i % 7) as f64;
            // Deterministic pseudo-noise.
            let noise = ((i * 2_654_435_761) % 100) as f64 / 500.0 - 0.1;
            d.push(vec![a, b], 2.0 * a - b + noise);
        }
        d
    }

    #[test]
    fn cv_error_is_finite_and_small_on_learnable_data() {
        let d = noisy_linear(60);
        let mut cfg = SvrConfig::default_for_dim(2);
        cfg.c = 100.0;
        cfg.epsilon = 0.05;
        let mse = cross_validate(&d, cfg, 5);
        assert!(mse.is_finite());
        assert!(mse < 1.0, "cv mse {mse}");
    }

    #[test]
    fn cv_detects_underfitting() {
        // A tiny C cannot express the steep target → much worse CV error.
        let d = noisy_linear(60);
        let mut weak = SvrConfig::default_for_dim(2);
        weak.c = 1e-4;
        let mut strong = SvrConfig::default_for_dim(2);
        strong.c = 100.0;
        strong.epsilon = 0.05;
        assert!(cross_validate(&d, weak, 5) > 3.0 * cross_validate(&d, strong, 5));
    }

    #[test]
    fn more_training_data_does_not_hurt_much() {
        // The paper's §III-E remark, as a trend check: CV error with 80
        // samples ≤ 2× the error with 20 samples (usually far better).
        let small = noisy_linear(20);
        let large = noisy_linear(80);
        let mut cfg = SvrConfig::default_for_dim(2);
        cfg.c = 100.0;
        cfg.epsilon = 0.05;
        let e_small = cross_validate(&small, cfg, 4);
        let e_large = cross_validate(&large, cfg, 4);
        assert!(e_large <= 2.0 * e_small, "small {e_small} large {e_large}");
    }

    #[test]
    #[should_panic(expected = "2 <= k <= n")]
    fn cv_rejects_bad_k() {
        cross_validate(&noisy_linear(5), SvrConfig::default_for_dim(2), 10);
    }
}
