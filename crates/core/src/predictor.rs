//! The online switching-point predictor (Fig. 6, right column).
//!
//! Two ε-SVR models — one for `M`, one for `N` — trained on the Fig. 6
//! exhaustive-search labels. At runtime, assembling the feature vector and
//! evaluating two kernel expansions over ≤140 support vectors costs
//! microseconds: the paper's "<0.1 % of BFS execution time" claim is easy
//! to meet (and the benches verify it).

use crate::{cross::CrossParams, features::feature_vector, training::TrainingSet};
use serde::{Deserialize, Serialize};
use xbfs_archsim::ArchSpec;
use xbfs_engine::FixedMN;
use xbfs_graph::GraphStats;
use xbfs_svm::{Regressor, Svr, SvrConfig};

/// Bounds the raw regression outputs are clamped into. Predictions outside
/// the searched grid are extrapolation artifacts; clamping keeps `FixedMN`
/// valid and matches how the paper's discrete search space is used.
const M_RANGE: (f64, f64) = (1.0, 500.0);
const N_RANGE: (f64, f64) = (1.0, 200.0);

/// Trained predictor for `(M, N)`.
#[derive(Clone, Debug, Serialize, Deserialize)]
pub struct SwitchPredictor {
    model_m: Svr,
    model_n: Svr,
}

impl SwitchPredictor {
    /// Train both models with per-parameter default hyper-parameters.
    ///
    /// `C` is set high and ε to one grid step: the labels come from an
    /// exact search, so we want a tight fit, and the cost of an `M` that is
    /// off by one grid cell is negligible (Fig. 8's Regression bar).
    pub fn train(ts: &TrainingSet) -> Self {
        let mut cfg = SvrConfig::default_for_dim(crate::features::FEATURE_DIM);
        cfg.c = 1000.0;
        cfg.epsilon = 2.0;
        Self::train_with(ts, cfg)
    }

    /// Train both models with explicit hyper-parameters.
    ///
    /// # Panics
    /// Panics on an empty training set.
    pub fn train_with(ts: &TrainingSet, config: SvrConfig) -> Self {
        assert!(!ts.is_empty(), "cannot train on an empty training set");
        Self {
            model_m: Svr::fit(&ts.dataset_m, config),
            model_n: Svr::fit(&ts.dataset_n, config),
        }
    }

    /// Predict `(M, N)` for traversing `graph` with top-down on `arch_td`
    /// and bottom-up on `arch_bu` — one `RegressionModel(GI, ·, ·)` call of
    /// Algorithm 3.
    pub fn predict(&self, graph: &GraphStats, arch_td: &ArchSpec, arch_bu: &ArchSpec) -> FixedMN {
        let x = feature_vector(graph, arch_td, arch_bu);
        let m = self.model_m.predict(&x).clamp(M_RANGE.0, M_RANGE.1);
        let n = self.model_n.predict(&x).clamp(N_RANGE.0, N_RANGE.1);
        FixedMN::new(m, n)
    }

    /// Both `RegressionModel` calls of Algorithm 3 at once: the CPU→GPU
    /// handoff `(M1, N1)` and the GPU-internal `(M2, N2)`.
    pub fn predict_cross(&self, graph: &GraphStats, cpu: &ArchSpec, gpu: &ArchSpec) -> CrossParams {
        CrossParams {
            handoff: self.predict(graph, cpu, gpu),
            gpu: self.predict(graph, gpu, gpu),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::training::{generate, paper_arch_pairs, TrainingConfig};
    use xbfs_archsim::Link;

    fn trained() -> (SwitchPredictor, TrainingSet) {
        let ts = generate(
            &TrainingConfig::quick(),
            &paper_arch_pairs(),
            &Link::pcie3(),
        );
        (SwitchPredictor::train(&ts), ts)
    }

    #[test]
    fn predictions_are_clamped_and_valid() {
        let (p, _) = trained();
        let g = xbfs_graph::rmat::rmat_csr(9, 8);
        let stats = GraphStats::rmat(&g, 0.57, 0.19, 0.19, 0.05);
        let cpu = ArchSpec::cpu_sandy_bridge();
        let gpu = ArchSpec::gpu_k20x();
        let mn = p.predict(&stats, &cpu, &gpu);
        assert!((1.0..=500.0).contains(&mn.m));
        assert!((1.0..=200.0).contains(&mn.n));
    }

    #[test]
    fn fits_training_labels_reasonably() {
        // In-sample: predicted M should be within the label's neighborhood
        // for most samples (high-C, tight-ε fit of exact labels).
        let (p, ts) = trained();
        let mut close = 0;
        for i in 0..ts.dataset_m.len() {
            let pred = {
                use xbfs_svm::Regressor;
                p.model_m.predict(ts.dataset_m.sample(i))
            };
            if (pred - ts.dataset_m.target(i)).abs() < 0.35 * (ts.dataset_m.target(i).abs() + 10.0)
            {
                close += 1;
            }
        }
        assert!(
            close * 2 >= ts.dataset_m.len(),
            "only {close}/{} in-sample predictions close",
            ts.dataset_m.len()
        );
    }

    #[test]
    fn cross_prediction_queries_both_pairs() {
        let (p, _) = trained();
        let g = xbfs_graph::rmat::rmat_csr(10, 16);
        let stats = GraphStats::rmat(&g, 0.57, 0.19, 0.19, 0.05);
        let cpu = ArchSpec::cpu_sandy_bridge();
        let gpu = ArchSpec::gpu_k20x();
        let params = p.predict_cross(&stats, &cpu, &gpu);
        // Both components valid.
        assert!(params.handoff.m >= 1.0 && params.gpu.m >= 1.0);
        // The GPU-internal prediction equals the (GPU, GPU) query.
        let direct = p.predict(&stats, &gpu, &gpu);
        assert_eq!(params.gpu, direct);
    }

    #[test]
    fn prediction_latency_is_negligible() {
        // The paper's <0.1 % overhead claim: a single prediction must be
        // orders of magnitude below a millisecond-scale traversal.
        let (p, _) = trained();
        let g = xbfs_graph::rmat::rmat_csr(9, 8);
        let stats = GraphStats::rmat(&g, 0.57, 0.19, 0.19, 0.05);
        let cpu = ArchSpec::cpu_sandy_bridge();
        let gpu = ArchSpec::gpu_k20x();
        let start = std::time::Instant::now();
        for _ in 0..100 {
            std::hint::black_box(p.predict_cross(&stats, &cpu, &gpu));
        }
        let per_call = start.elapsed().as_secs_f64() / 100.0;
        assert!(per_call < 1e-3, "prediction took {per_call}s");
    }

    #[test]
    #[should_panic(expected = "empty training set")]
    fn rejects_empty_training_set() {
        let empty = TrainingSet {
            dataset_m: xbfs_svm::Dataset::new(12),
            dataset_n: xbfs_svm::Dataset::new(12),
            labels: vec![],
        };
        SwitchPredictor::train(&empty);
    }
}
