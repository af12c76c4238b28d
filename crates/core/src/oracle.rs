//! Exhaustive switch-point search — the paper's `hybrid-oracle` labeling
//! step (Fig. 6, step 1) and Table III generator.
//!
//! Thanks to the direction-independent [`TraversalProfile`], evaluating one
//! `(M, N)` candidate is O(depth), so the paper's "1,000 possible cases"
//! cost microseconds here instead of a thousand BFS runs.

use crate::cross::{cost_cross, CrossParams};
use serde::{Deserialize, Serialize};
use xbfs_archsim::{cost_fixed_mn, ArchSpec, Link, TraversalProfile};
use xbfs_engine::FixedMN;

/// A candidate grid over `(M, N)`.
#[derive(Clone, Debug, PartialEq, Serialize, Deserialize)]
pub struct MnGrid {
    /// Candidate `M` values.
    pub ms: Vec<f64>,
    /// Candidate `N` values.
    pub ns: Vec<f64>,
}

impl MnGrid {
    /// Build from explicit candidate lists.
    ///
    /// # Panics
    /// Panics if either list is empty or contains non-positive values.
    pub fn new(ms: Vec<f64>, ns: Vec<f64>) -> Self {
        assert!(!ms.is_empty() && !ns.is_empty(), "grid must be non-empty");
        assert!(
            ms.iter().chain(&ns).all(|&v| v > 0.0),
            "M and N candidates must be positive"
        );
        Self { ms, ns }
    }

    /// The paper's extended search range: `M ∈ [1, 300]` (§III-C extends
    /// Beamer's `[1, 30]` to `[1, 300]`) × `N ∈ [1, 100]`, subsampled to
    /// roughly 1,000 combinations (Fig. 8's "1,000 possible cases").
    pub fn paper_1000() -> Self {
        let ms: Vec<f64> = (1..=300).step_by(6).map(|m| m as f64).collect(); // 50
        let ns: Vec<f64> = (1..=100).step_by(5).map(|n| n as f64).collect(); // 20
        Self::new(ms, ns)
    }

    /// A small grid for unit tests.
    pub fn coarse() -> Self {
        let ms = vec![1.0, 4.0, 16.0, 64.0, 256.0];
        let ns = vec![1.0, 8.0, 32.0, 128.0];
        Self::new(ms, ns)
    }

    /// Number of `(M, N)` combinations.
    pub fn len(&self) -> usize {
        self.ms.len() * self.ns.len()
    }

    /// `true` if the grid is empty (impossible by construction).
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Iterate all combinations.
    pub fn iter(&self) -> impl Iterator<Item = FixedMN> + '_ {
        self.ms
            .iter()
            .flat_map(move |&m| self.ns.iter().map(move |&n| FixedMN { m, n }))
    }
}

/// One evaluated candidate.
#[derive(Clone, Copy, Debug, PartialEq, Serialize, Deserialize)]
pub struct Candidate {
    /// The switching parameters.
    pub mn: FixedMN,
    /// Simulated traversal seconds with these parameters.
    pub seconds: f64,
}

/// Evaluate every grid point of a *single-architecture* combination.
pub fn sweep_single(profile: &TraversalProfile, arch: &ArchSpec, grid: &MnGrid) -> Vec<Candidate> {
    grid.iter()
        .map(|mn| Candidate {
            mn,
            seconds: cost_fixed_mn(profile, arch, mn),
        })
        .collect()
}

/// Evaluate every grid point of the *cross-architecture* handoff `(M1, N1)`
/// with the GPU-internal `(M2, N2)` held fixed.
pub fn sweep_cross(
    profile: &TraversalProfile,
    cpu: &ArchSpec,
    gpu: &ArchSpec,
    link: &Link,
    gpu_mn: FixedMN,
    grid: &MnGrid,
) -> Vec<Candidate> {
    grid.iter()
        .map(|mn| {
            let params = CrossParams {
                handoff: mn,
                gpu: gpu_mn,
            };
            Candidate {
                mn,
                seconds: cost_cross(profile, cpu, gpu, link, &params).total_seconds,
            }
        })
        .collect()
}

/// One evaluated cross-architecture candidate (all four parameters).
#[derive(Clone, Copy, Debug, PartialEq, Serialize, Deserialize)]
pub struct CrossCandidate {
    /// The handoff and GPU-internal parameters.
    pub params: CrossParams,
    /// Simulated traversal seconds.
    pub seconds: f64,
}

/// The Fig. 8 candidate space for the cross-architecture combination: the
/// handoff `(M1, N1)` and GPU-internal `(M2, N2)` vary *independently* over
/// the two grids, so the space contains the catastrophic corners — e.g.
/// "never hand off" (the huge middle levels crawl through CPU top-down) or
/// "hand off but never switch to bottom-up" (a weak GPU thread serializes
/// on every hub) — that give the paper its 695×-scale worst-to-best spread.
pub fn sweep_cross_pairs(
    profile: &TraversalProfile,
    cpu: &ArchSpec,
    gpu: &ArchSpec,
    link: &Link,
    handoff_grid: &MnGrid,
    gpu_grid: &MnGrid,
) -> Vec<CrossCandidate> {
    handoff_grid
        .iter()
        .flat_map(|handoff| {
            gpu_grid.iter().map(move |gpu_mn| CrossParams {
                handoff,
                gpu: gpu_mn,
            })
        })
        .map(|params| CrossCandidate {
            params,
            seconds: cost_cross(profile, cpu, gpu, link, &params).total_seconds,
        })
        .collect()
}

/// The per-side grid for [`sweep_cross_pairs`]: 6 × 5 points per side, so
/// the pair space holds 900 candidates — the paper's "1,000 possible
/// cases" for the four-parameter cross-architecture switch.
pub fn cross_pair_grid() -> MnGrid {
    MnGrid::new(
        vec![1.0, 3.0, 10.0, 30.0, 100.0, 300.0],
        vec![1.0, 3.0, 10.0, 30.0, 100.0],
    )
}

/// The best (minimum-time) candidate of a sweep.
///
/// # Panics
/// Panics on an empty sweep.
pub fn best(candidates: &[Candidate]) -> Candidate {
    *candidates
        .iter()
        .min_by(|a, b| a.seconds.total_cmp(&b.seconds))
        .expect("empty candidate sweep")
}

/// The worst (maximum-time) candidate of a sweep.
///
/// # Panics
/// Panics on an empty sweep.
pub fn worst(candidates: &[Candidate]) -> Candidate {
    *candidates
        .iter()
        .max_by(|a, b| a.seconds.total_cmp(&b.seconds))
        .expect("empty candidate sweep")
}

/// Arithmetic mean traversal time over a sweep (the paper's `Average` bar).
pub fn mean_seconds(candidates: &[Candidate]) -> f64 {
    if candidates.is_empty() {
        return 0.0;
    }
    candidates.iter().map(|c| c.seconds).sum::<f64>() / candidates.len() as f64
}

/// Best single-architecture `(M, N)` for this traversal.
pub fn best_mn_single(profile: &TraversalProfile, arch: &ArchSpec, grid: &MnGrid) -> Candidate {
    best(&sweep_single(profile, arch, grid))
}

/// The best (minimum-time) cross candidate of a pair sweep.
///
/// # Panics
/// Panics on an empty sweep.
pub fn best_cross(candidates: &[CrossCandidate]) -> CrossCandidate {
    *candidates
        .iter()
        .min_by(|a, b| a.seconds.total_cmp(&b.seconds))
        .expect("empty candidate sweep")
}

/// The worst (maximum-time) cross candidate of a pair sweep.
///
/// # Panics
/// Panics on an empty sweep.
pub fn worst_cross(candidates: &[CrossCandidate]) -> CrossCandidate {
    *candidates
        .iter()
        .max_by(|a, b| a.seconds.total_cmp(&b.seconds))
        .expect("empty candidate sweep")
}

/// Best cross-architecture handoff `(M1, N1)` given `gpu_mn`.
pub fn best_mn_cross(
    profile: &TraversalProfile,
    cpu: &ArchSpec,
    gpu: &ArchSpec,
    link: &Link,
    gpu_mn: FixedMN,
    grid: &MnGrid,
) -> Candidate {
    best(&sweep_cross(profile, cpu, gpu, link, gpu_mn, grid))
}

#[cfg(test)]
mod tests {
    use super::*;
    use xbfs_archsim::profile;

    fn small_profile() -> TraversalProfile {
        let g = xbfs_graph::rmat::rmat_csr(12, 16);
        profile(&g, 0)
    }

    #[test]
    fn grid_shapes() {
        let g = MnGrid::paper_1000();
        assert_eq!(g.len(), 1000);
        assert!(!g.is_empty());
        assert_eq!(g.iter().count(), 1000);
        let c = MnGrid::coarse();
        assert_eq!(c.len(), 20);
    }

    #[test]
    #[should_panic(expected = "non-empty")]
    fn grid_rejects_empty() {
        MnGrid::new(vec![], vec![1.0]);
    }

    #[test]
    #[should_panic(expected = "positive")]
    fn grid_rejects_nonpositive() {
        MnGrid::new(vec![0.0], vec![1.0]);
    }

    #[test]
    fn best_is_min_worst_is_max() {
        let p = small_profile();
        let cpu = ArchSpec::cpu_sandy_bridge();
        let sweep = sweep_single(&p, &cpu, &MnGrid::coarse());
        let b = best(&sweep);
        let w = worst(&sweep);
        assert!(sweep.iter().all(|c| c.seconds >= b.seconds));
        assert!(sweep.iter().all(|c| c.seconds <= w.seconds));
        let mean = mean_seconds(&sweep);
        assert!(b.seconds <= mean && mean <= w.seconds);
    }

    #[test]
    fn sweep_evaluates_whole_grid() {
        let p = small_profile();
        let gpu = ArchSpec::gpu_k20x();
        let grid = MnGrid::coarse();
        let sweep = sweep_single(&p, &gpu, &grid);
        assert_eq!(sweep.len(), grid.len());
        assert!(sweep
            .iter()
            .all(|c| c.seconds.is_finite() && c.seconds > 0.0));
    }

    #[test]
    fn best_mn_beats_pure_on_gpu_scale_free() {
        // The GPU's sweep must find a combination strictly better than the
        // all-TD and all-BU corners (which the grid contains at M=N=1 → BU
        // everywhere... hence compare against explicit pure costs).
        use xbfs_archsim::cost_fixed_mn;
        let g = xbfs_graph::rmat::rmat_csr(14, 16);
        let src = xbfs_graph::stats::max_degree_vertex(&g).unwrap().0;
        let p = profile(&g, src);
        let gpu = ArchSpec::gpu_k20x();
        let b = best_mn_single(&p, &gpu, &MnGrid::paper_1000());
        let pure_td = cost_fixed_mn(&p, &gpu, xbfs_engine::FixedMN::new(1e-6, 1e-6));
        let pure_bu = cost_fixed_mn(&p, &gpu, xbfs_engine::FixedMN::new(1e9, 1e9));
        assert!(b.seconds <= pure_td && b.seconds <= pure_bu);
    }

    #[test]
    fn mean_of_empty_sweep_is_zero() {
        assert_eq!(mean_seconds(&[]), 0.0);
    }
}
