//! Ablation studies on the paper's design choices.
//!
//! Four questions the paper asserts answers to without measuring them:
//!
//! 1. [`efficiency_vs_training_size`] — "the prediction accuracy will be
//!    higher with more training samples" (§III-E): regression efficiency
//!    as the training set shrinks.
//! 2. [`feature_ablation`] — "the graph and platform information consist
//!    of more than ten parameters… impossible to predict manually"
//!    (§III-C): cross-validated error with the architecture block or the
//!    graph block removed.
//! 3. [`model_comparison`] — why SVM regression rather than a linear
//!    model (§II-C): CV error of ε-SVR vs ridge vs a constant predictor.
//! 4. [`link_sensitivity`] — the unstated assumption that PCIe transfer
//!    cost is negligible (§IV): how slow the link must get before the
//!    cross-architecture combination stops beating the best single device.

use crate::{
    oracle::{self, MnGrid},
    predictor::SwitchPredictor,
    training::TrainingSet,
};
use serde::{Deserialize, Serialize};
use xbfs_archsim::{ArchSpec, Link, TraversalProfile};
use xbfs_svm::{Dataset, Regressor, Ridge, Svr, SvrConfig};

/// One point of the training-size sweep.
#[derive(Clone, Copy, Debug, PartialEq, Serialize, Deserialize)]
pub struct SizePoint {
    /// Training samples used.
    pub samples: usize,
    /// Mean `exhaustive / regression` time ratio over the test traversals
    /// (1.0 = perfect prediction).
    pub mean_efficiency: f64,
}

/// Take every sample whose index is `< keep` when counted round-robin —
/// subsetting by stride keeps all four architecture pairs represented.
fn subset(ts: &TrainingSet, keep: usize) -> TrainingSet {
    let n = ts.len();
    let keep = keep.min(n);
    let mut dataset_m = Dataset::new(ts.dataset_m.dim());
    let mut dataset_n = Dataset::new(ts.dataset_n.dim());
    let mut labels = Vec::new();
    // Round-robin across architecture pairs so every pair stays
    // represented even in tiny subsets (a plain stride would alias with
    // the 4-pair period of the label layout and drop whole pairs).
    let mut groups: Vec<(&str, Vec<usize>)> = Vec::new();
    for (i, label) in ts.labels.iter().enumerate() {
        match groups.iter_mut().find(|(name, _)| *name == label.pair) {
            Some((_, v)) => v.push(i),
            None => groups.push((&label.pair, vec![i])),
        }
    }
    let mut order = Vec::with_capacity(keep);
    let mut round = 0;
    while order.len() < keep {
        let mut advanced = false;
        for (_, members) in &groups {
            if order.len() == keep {
                break;
            }
            if let Some(&i) = members.get(round) {
                order.push(i);
                advanced = true;
            }
        }
        if !advanced {
            break;
        }
        round += 1;
    }
    order.sort_unstable();
    for &i in &order {
        dataset_m.push(ts.dataset_m.sample(i).to_vec(), ts.dataset_m.target(i));
        dataset_n.push(ts.dataset_n.sample(i).to_vec(), ts.dataset_n.target(i));
        labels.push(ts.labels[i].clone());
    }
    TrainingSet {
        dataset_m,
        dataset_n,
        labels,
    }
}

/// A test traversal for efficiency evaluation.
pub struct TestCase {
    /// Profiled traversal.
    pub profile: TraversalProfile,
    /// Graph statistics (the predictor's input).
    pub stats: xbfs_graph::GraphStats,
}

/// Regression efficiency (exhaustive/regression) of a predictor on one
/// cross-architecture test case.
pub fn cross_efficiency(
    predictor: &SwitchPredictor,
    case: &TestCase,
    cpu: &ArchSpec,
    gpu: &ArchSpec,
    link: &Link,
    grid: &MnGrid,
) -> f64 {
    let params = predictor.predict_cross(&case.stats, cpu, gpu);
    let regression = crate::cross::cost_cross(&case.profile, cpu, gpu, link, &params).total_seconds;
    let best = oracle::best_cross(&oracle::sweep_cross_pairs(
        &case.profile,
        cpu,
        gpu,
        link,
        grid,
        grid,
    ))
    .seconds;
    best / regression
}

/// Ablation 1: efficiency as a function of training-set size.
pub fn efficiency_vs_training_size(
    full: &TrainingSet,
    sizes: &[usize],
    cases: &[TestCase],
    cpu: &ArchSpec,
    gpu: &ArchSpec,
    link: &Link,
) -> Vec<SizePoint> {
    let grid = oracle::cross_pair_grid();
    sizes
        .iter()
        .map(|&samples| {
            let ts = subset(full, samples);
            let predictor = SwitchPredictor::train(&ts);
            let mean: f64 = cases
                .iter()
                .map(|c| cross_efficiency(&predictor, c, cpu, gpu, link, &grid))
                .sum::<f64>()
                / cases.len().max(1) as f64;
            SizePoint {
                samples: ts.len(),
                mean_efficiency: mean,
            }
        })
        .collect()
}

/// Which feature columns to keep (the Fig. 7 layout: 0–5 graph, 6–11
/// architecture).
#[derive(Clone, Copy, Debug, PartialEq, Eq, Serialize, Deserialize)]
pub enum FeatureSet {
    /// All twelve features.
    Full,
    /// Graph block only (architecture columns zeroed).
    GraphOnly,
    /// Architecture blocks only (graph columns zeroed).
    ArchOnly,
}

impl FeatureSet {
    fn mask(self, x: &[f64]) -> Vec<f64> {
        let mut out = x.to_vec();
        match self {
            FeatureSet::Full => {}
            FeatureSet::GraphOnly => out[6..].iter_mut().for_each(|v| *v = 0.0),
            FeatureSet::ArchOnly => out[..6].iter_mut().for_each(|v| *v = 0.0),
        }
        out
    }
}

fn masked_dataset(ts: &TrainingSet, features: FeatureSet) -> Dataset {
    Dataset::from_samples(
        (0..ts.dataset_m.len())
            .map(|i| features.mask(ts.dataset_m.sample(i)))
            .collect(),
        ts.dataset_m.targets().to_vec(),
    )
}

fn ablation_config(dim: usize) -> SvrConfig {
    let mut cfg = SvrConfig::default_for_dim(dim);
    cfg.c = 1000.0;
    cfg.epsilon = 2.0;
    cfg
}

/// 4-fold CV mean-squared error of an SVR on the masked `dataset_m`.
pub fn feature_ablation(ts: &TrainingSet, features: FeatureSet) -> f64 {
    let masked = masked_dataset(ts, features);
    let cfg = ablation_config(masked.dim());
    xbfs_svm::model_selection::cross_validate(&masked, cfg, 4.min(masked.len()))
}

/// CV errors for ablation 3: `(svr, ridge, constant-mean)`.
pub fn model_comparison(ts: &TrainingSet) -> (f64, f64, f64) {
    let data = &ts.dataset_m;
    let k = 4.min(data.len());
    let mut svr_err = 0.0;
    let mut ridge_err = 0.0;
    let mut const_err = 0.0;
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
        let mut cfg = SvrConfig::default_for_dim(data.dim());
        cfg.c = 1000.0;
        cfg.epsilon = 2.0;
        let svr = Svr::fit(&train, cfg);
        let ridge = Ridge::fit(&train, 1.0);
        let mean = train.targets().iter().sum::<f64>() / train.len() as f64;
        svr_err += svr.mse(&test);
        ridge_err += ridge.mse(&test);
        const_err += test
            .targets()
            .iter()
            .map(|t| (t - mean) * (t - mean))
            .sum::<f64>()
            / test.len() as f64;
    }
    (
        svr_err / k as f64,
        ridge_err / k as f64,
        const_err / k as f64,
    )
}

/// One point of the link sweep.
#[derive(Clone, Copy, Debug, PartialEq, Serialize, Deserialize)]
pub struct LinkPoint {
    /// Bandwidth in bytes/s.
    pub bandwidth_bps: f64,
    /// Best cross-architecture time at this bandwidth.
    pub cross_seconds: f64,
    /// Best single-device time (CPU or GPU, whichever wins).
    pub single_seconds: f64,
}

impl LinkPoint {
    /// `true` if the cross-architecture plan still wins.
    pub fn cross_wins(&self) -> bool {
        self.cross_seconds < self.single_seconds
    }
}

/// Ablation 4: sweep link bandwidth and report when cross-architecture
/// stops paying. Latency is scaled with bandwidth degradation.
pub fn link_sensitivity(
    profile: &TraversalProfile,
    cpu: &ArchSpec,
    gpu: &ArchSpec,
    bandwidths_bps: &[f64],
) -> Vec<LinkPoint> {
    let grid = oracle::cross_pair_grid();
    let single_grid = MnGrid::paper_1000();
    let single = oracle::best_mn_single(profile, cpu, &single_grid)
        .seconds
        .min(oracle::best_mn_single(profile, gpu, &single_grid).seconds);
    bandwidths_bps
        .iter()
        .map(|&bw| {
            let base = Link::pcie3();
            let slowdown = base.bandwidth_bps / bw;
            let link = Link::new(base.latency_s * slowdown, bw);
            let cross = oracle::best_cross(&oracle::sweep_cross_pairs(
                profile, cpu, gpu, &link, &grid, &grid,
            ))
            .seconds;
            LinkPoint {
                bandwidth_bps: bw,
                cross_seconds: cross,
                single_seconds: single,
            }
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::training::{generate, paper_arch_pairs, pick_source, TrainingConfig};
    use xbfs_archsim::profile;

    fn setup() -> (TrainingSet, Vec<TestCase>) {
        let ts = generate(
            &TrainingConfig::quick(),
            &paper_arch_pairs(),
            &Link::pcie3(),
        );
        let cases = [(11u32, 16u32), (12, 16)]
            .iter()
            .map(|&(s, ef)| {
                let g = xbfs_graph::rmat::rmat_csr(s, ef);
                let src = pick_source(&g, 1).unwrap();
                TestCase {
                    profile: profile(&g, src),
                    stats: xbfs_graph::GraphStats::rmat(&g, 0.57, 0.19, 0.19, 0.05),
                }
            })
            .collect();
        (ts, cases)
    }

    #[test]
    fn subset_preserves_pair_diversity() {
        let (ts, _) = setup();
        let half = subset(&ts, ts.len() / 2);
        assert_eq!(half.len(), ts.len() / 2);
        for name in ["CPU", "GPU", "MIC", "CPU+GPU"] {
            assert!(half.labels.iter().any(|l| l.pair == name), "lost {name}");
        }
    }

    #[test]
    fn training_size_sweep_produces_sane_efficiencies() {
        let (ts, cases) = setup();
        let cpu = ArchSpec::cpu_sandy_bridge();
        let gpu = ArchSpec::gpu_k20x();
        let points =
            efficiency_vs_training_size(&ts, &[4, ts.len()], &cases, &cpu, &gpu, &Link::pcie3());
        assert_eq!(points.len(), 2);
        for p in &points {
            assert!(
                p.mean_efficiency > 0.0 && p.mean_efficiency <= 1.0 + 1e-9,
                "{p:?}"
            );
        }
    }

    #[test]
    fn svr_beats_constant_predictor() {
        let (ts, _) = setup();
        let (svr, _ridge, constant) = model_comparison(&ts);
        assert!(svr.is_finite() && constant.is_finite());
        assert!(svr <= constant, "svr {svr} vs constant {constant}");
    }

    #[test]
    fn slow_links_kill_the_cross_architecture_win() {
        let g = xbfs_graph::rmat::rmat_csr(14, 16);
        let src = pick_source(&g, 2).unwrap();
        let p = profile(&g, src);
        let cpu = ArchSpec::cpu_sandy_bridge();
        let gpu = ArchSpec::gpu_k20x();
        let points = link_sensitivity(&p, &cpu, &gpu, &[6e9, 6e6, 6e3]);
        // Cross time degrades monotonically as the link slows...
        assert!(points[0].cross_seconds <= points[1].cross_seconds);
        assert!(points[1].cross_seconds <= points[2].cross_seconds);
        // ...and an absurdly slow link erases any win (the sweep may then
        // pick an all-CPU or all-GPU plan, which ties single-device).
        assert!(
            points[2].cross_seconds >= points[2].single_seconds * 0.99,
            "{points:?}"
        );
    }
}
