//! The Graph 500 benchmark protocol.
//!
//! The paper's §V is run "based on the Graph 500 benchmark": construct a
//! Kronecker graph (kernel 1), BFS from a set of random degree-≥1 roots
//! (kernel 2), validate every output, and report TEPS with the harmonic
//! mean across roots. This module packages that protocol over the
//! simulated platforms, so the §V-D comparisons can be run exactly the way
//! the benchmark specifies.

use crate::{
    combination::run_single,
    cross::{run_cross, CrossParams},
    training::pick_source,
};
use serde::{Deserialize, Serialize};
use xbfs_archsim::{ArchSpec, Link};
use xbfs_engine::{
    metrics::{harmonic_mean_teps, Teps},
    reference, validate, SwitchPolicy,
};
use xbfs_graph::{Csr, RmatConfig, RmatGenerator, VertexId};

/// Benchmark parameters.
#[derive(Clone, Copy, Debug, PartialEq, Serialize, Deserialize)]
pub struct Graph500Config {
    /// Graph 500 SCALE.
    pub scale: u32,
    /// Graph 500 edgefactor.
    pub edgefactor: u32,
    /// BFS roots to sample (the official benchmark uses 64).
    pub num_roots: usize,
    /// Generator/root-sampling seed.
    pub seed: u64,
}

impl Graph500Config {
    /// A configuration with the official 64 roots.
    pub fn new(scale: u32, edgefactor: u32) -> Self {
        Self {
            scale,
            edgefactor,
            num_roots: 64,
            seed: 0x6500,
        }
    }

    /// Kernel 1: construct the graph.
    pub fn build_graph(&self) -> Csr {
        let cfg = RmatConfig::new(self.scale, self.edgefactor).with_seed(self.seed);
        RmatGenerator::new(cfg).csr()
    }

    /// Sample `num_roots` distinct degree-≥1 roots, benchmark style.
    pub fn sample_roots(&self, csr: &Csr) -> Vec<VertexId> {
        let mut roots = Vec::with_capacity(self.num_roots);
        let mut salt = 0u64;
        while roots.len() < self.num_roots && salt < 64 * self.num_roots as u64 {
            if let Some(r) = pick_source(csr, self.seed ^ salt) {
                if !roots.contains(&r) {
                    roots.push(r);
                }
            }
            salt += 1;
        }
        roots
    }
}

/// One root's measurement.
#[derive(Clone, Copy, Debug, PartialEq, Serialize, Deserialize)]
pub struct RootResult {
    /// The BFS root.
    pub root: VertexId,
    /// Simulated traversal seconds.
    pub seconds: f64,
    /// Undirected edges in the traversed component (the TEPS numerator).
    pub component_edges: u64,
    /// Vertices visited.
    pub visited: u64,
}

impl RootResult {
    /// This root's TEPS.
    pub fn teps(&self) -> f64 {
        self.component_edges as f64 / self.seconds
    }
}

/// A completed benchmark run.
#[derive(Clone, Debug, PartialEq, Serialize, Deserialize)]
pub struct Graph500Report {
    /// The configuration that ran.
    pub config: Graph500Config,
    /// Label of the runner ("CPUCB", "MICCB", "CPUTD+GPUCB", …).
    pub runner: String,
    /// Per-root measurements.
    pub roots: Vec<RootResult>,
    /// Every output passed the Graph 500 validator.
    pub all_validated: bool,
}

impl Graph500Report {
    /// The benchmark's headline number: harmonic-mean TEPS across roots.
    pub fn harmonic_mean_teps(&self) -> f64 {
        let samples: Vec<Teps> = self
            .roots
            .iter()
            .filter_map(|r| Teps::try_new(r.component_edges, r.seconds).ok())
            .collect();
        harmonic_mean_teps(&samples)
    }

    /// Mean traversal seconds across roots.
    pub fn mean_seconds(&self) -> f64 {
        if self.roots.is_empty() {
            return 0.0;
        }
        self.roots.iter().map(|r| r.seconds).sum::<f64>() / self.roots.len() as f64
    }
}

/// Run kernel 2 on a simulated single device with a policy per root.
pub fn run_simulated_single(
    config: &Graph500Config,
    arch: &ArchSpec,
    make_policy: impl Fn() -> Box<dyn SwitchPolicy>,
) -> Graph500Report {
    let csr = config.build_graph();
    let roots = config.sample_roots(&csr);
    let mut results = Vec::with_capacity(roots.len());
    let mut all_validated = true;
    for root in roots {
        let mut policy = make_policy();
        let run = run_single(&csr, root, arch, policy.as_mut());
        all_validated &= validate(&csr, &run.traversal.output).is_ok();
        results.push(RootResult {
            root,
            seconds: run.total_seconds,
            component_edges: reference::component_edges(&csr, &run.traversal.output),
            visited: run.traversal.output.visited_count(),
        });
    }
    Graph500Report {
        config: *config,
        runner: format!("{}CB", arch.name),
        roots: results,
        all_validated,
    }
}

/// Run kernel 2 on the simulated cross-architecture pair (Algorithm 3).
pub fn run_simulated_cross(
    config: &Graph500Config,
    cpu: &ArchSpec,
    gpu: &ArchSpec,
    link: &Link,
    params: &CrossParams,
) -> Graph500Report {
    let csr = config.build_graph();
    let roots = config.sample_roots(&csr);
    let mut results = Vec::with_capacity(roots.len());
    let mut all_validated = true;
    for root in roots {
        let run = run_cross(&csr, root, cpu, gpu, link, params);
        all_validated &= validate(&csr, &run.traversal.output).is_ok();
        results.push(RootResult {
            root,
            seconds: run.total_seconds,
            component_edges: reference::component_edges(&csr, &run.traversal.output),
            visited: run.traversal.output.visited_count(),
        });
    }
    Graph500Report {
        config: *config,
        runner: "CPUTD+GPUCB".into(),
        roots: results,
        all_validated,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use xbfs_engine::FixedMN;

    fn small() -> Graph500Config {
        Graph500Config {
            scale: 10,
            edgefactor: 8,
            num_roots: 8,
            seed: 5,
        }
    }

    #[test]
    fn roots_are_distinct_and_valid() {
        let cfg = small();
        let g = cfg.build_graph();
        let roots = cfg.sample_roots(&g);
        assert_eq!(roots.len(), 8);
        let mut dedup = roots.clone();
        dedup.sort_unstable();
        dedup.dedup();
        assert_eq!(dedup.len(), roots.len(), "duplicate roots");
        assert!(roots.iter().all(|&r| g.degree(r) > 0));
    }

    #[test]
    fn simulated_cross_beats_simulated_mic() {
        let cfg = small();
        let mic = run_simulated_single(&cfg, &ArchSpec::mic_knights_corner(), || {
            Box::new(FixedMN::new(14.0, 24.0))
        });
        let cross = run_simulated_cross(
            &cfg,
            &ArchSpec::cpu_sandy_bridge(),
            &ArchSpec::gpu_k20x(),
            &Link::pcie3(),
            &CrossParams {
                handoff: FixedMN::new(64.0, 64.0),
                gpu: FixedMN::new(14.0, 24.0),
            },
        );
        assert!(mic.all_validated && cross.all_validated);
        assert_eq!(cross.roots.len(), 8);
        assert!(cross.mean_seconds() > 0.0);
        assert!(
            cross.harmonic_mean_teps() > mic.harmonic_mean_teps(),
            "cross {} vs mic {}",
            cross.harmonic_mean_teps(),
            mic.harmonic_mean_teps()
        );
        assert_eq!(cross.runner, "CPUTD+GPUCB");
        assert_eq!(mic.runner, "MICCB");
    }

    #[test]
    fn harmonic_mean_is_dominated_by_slow_roots() {
        let report = Graph500Report {
            config: small(),
            runner: "x".into(),
            roots: vec![
                RootResult {
                    root: 0,
                    seconds: 1.0,
                    component_edges: 100,
                    visited: 10,
                },
                RootResult {
                    root: 1,
                    seconds: 100.0,
                    component_edges: 100,
                    visited: 10,
                },
            ],
            all_validated: true,
        };
        let hm = report.harmonic_mean_teps();
        assert!(hm < 2.0 && hm > 1.9, "hm {hm}"); // ≈ 2/(1/100+1/1)
    }
}
