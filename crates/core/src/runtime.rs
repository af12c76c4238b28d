//! The end-to-end adaptive runtime — the library's front door.
//!
//! Bundles the trained predictor with the platform description and exposes
//! the two things a user does with this system:
//!
//! * [`AdaptiveRuntime::run_cross`] — Algorithm 3 with regression-predicted
//!   switch points (`CPUTD+GPUCB`, the paper's best configuration);
//! * [`AdaptiveRuntime::run_on`] — a single-device combination with a
//!   predicted `(M, N)`.

use crate::{
    combination::{run_single, SingleRun},
    cross::{run_cross, CrossParams, CrossRun},
    predictor::SwitchPredictor,
    session::RunSession,
    training::{generate, paper_arch_pairs, TrainingConfig},
};
use xbfs_archsim::{ArchSpec, Link};
use xbfs_graph::{Csr, GraphStats, VertexId};

/// A trained, ready-to-run adaptive BFS system.
#[derive(Clone, Debug)]
pub struct AdaptiveRuntime {
    /// The host CPU.
    pub cpu: ArchSpec,
    /// The accelerator running the bottom-up/top-down middle game.
    pub gpu: ArchSpec,
    /// The third platform of the paper's comparison.
    pub mic: ArchSpec,
    /// Host↔accelerator interconnect.
    pub link: Link,
    /// The trained switching-point predictor.
    pub predictor: SwitchPredictor,
}

impl AdaptiveRuntime {
    /// Train a runtime on the paper's platform trio with `config`.
    pub fn train(config: &TrainingConfig) -> Self {
        let link = Link::pcie3();
        let ts = generate(config, &paper_arch_pairs(), &link);
        Self {
            cpu: ArchSpec::cpu_sandy_bridge(),
            gpu: ArchSpec::gpu_k20x(),
            mic: ArchSpec::mic_knights_corner(),
            link,
            predictor: SwitchPredictor::train(&ts),
        }
    }

    /// Train on the small test configuration (fast; used by tests and the
    /// quickstart example).
    pub fn quick_trained() -> Self {
        Self::train(&TrainingConfig::quick())
    }

    /// Predict Algorithm 3's parameters for `graph`.
    pub fn predict_params(&self, graph: &GraphStats) -> CrossParams {
        self.predictor.predict_cross(graph, &self.cpu, &self.gpu)
    }

    /// Run the cross-architecture combination (`CPUTD+GPUCB`) with
    /// predicted switch points.
    pub fn run_cross(&self, csr: &Csr, stats: &GraphStats, source: VertexId) -> CrossRun {
        let params = self.predict_params(stats);
        run_cross(csr, source, &self.cpu, &self.gpu, &self.link, &params)
    }

    /// Start configuring a resilient traversal on this runtime's devices.
    ///
    /// Equivalent to [`RunSession::new`]`(self, csr, stats)` — switch
    /// parameters are predicted from `stats` unless the session overrides
    /// them.
    pub fn session<'a>(&'a self, csr: &'a Csr, stats: &'a GraphStats) -> RunSession<'a> {
        RunSession::new(self, csr, stats)
    }

    /// Run a single-device combination with a predicted `(M, N)`.
    pub fn run_on(
        &self,
        csr: &Csr,
        stats: &GraphStats,
        source: VertexId,
        arch: &ArchSpec,
    ) -> SingleRun {
        let mut mn = self.predictor.predict(stats, arch, arch);
        run_single(csr, source, arch, &mut mn)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::checkpoint::{CheckpointPolicy, LevelCheckpoint};
    use xbfs_archsim::FaultPlan;
    use xbfs_engine::validate;

    fn runtime() -> AdaptiveRuntime {
        AdaptiveRuntime::quick_trained()
    }

    #[test]
    fn end_to_end_cross_run_is_valid_and_timed() {
        let rt = runtime();
        let g = xbfs_graph::rmat::rmat_csr(11, 16);
        let stats = GraphStats::rmat(&g, 0.57, 0.19, 0.19, 0.05);
        let src = crate::training::pick_source(&g, 1).unwrap();
        let run = rt.run_cross(&g, &stats, src);
        assert_eq!(validate(&g, &run.traversal.output), Ok(()));
        assert!(run.total_seconds > 0.0);
        assert_eq!(run.level_seconds.len(), run.placements.len());
    }

    #[test]
    fn single_device_runs_differ_only_in_time() {
        let rt = runtime();
        let g = xbfs_graph::rmat::rmat_csr(10, 16);
        let stats = GraphStats::rmat(&g, 0.57, 0.19, 0.19, 0.05);
        let src = crate::training::pick_source(&g, 2).unwrap();
        let on_cpu = rt.run_on(&g, &stats, src, &rt.cpu);
        let on_mic = rt.run_on(&g, &stats, src, &rt.mic);
        assert_eq!(
            on_cpu.traversal.output.levels,
            on_mic.traversal.output.levels
        );
        assert!(on_mic.total_seconds > on_cpu.total_seconds);
    }

    #[test]
    fn resilient_entry_degrades_on_gpu_loss() {
        use crate::recovery::Rung;

        let rt = runtime();
        let g = xbfs_graph::rmat::rmat_csr(10, 16);
        let stats = GraphStats::rmat(&g, 0.57, 0.19, 0.19, 0.05);
        let src = crate::training::pick_source(&g, 4).unwrap();

        let healthy = rt
            .session(&g, &stats)
            .source(src)
            .checkpoints(CheckpointPolicy::disabled())
            .run()
            .expect("healthy run");
        assert_eq!(healthy.report.rung, Rung::CrossCpuGpu);

        // Kill the GPU at its first kernel launch, whatever level the
        // predicted handoff lands on: the ladder must fall back to the
        // CPU-only hybrid and still produce the same level structure.
        let gpu_dies = FaultPlan {
            p_device_lost: 1.0,
            ..FaultPlan::none()
        };
        let run = rt
            .session(&g, &stats)
            .source(src)
            .fault_plan(&gpu_dies)
            .checkpoints(CheckpointPolicy::disabled())
            .run()
            .expect("degraded run");
        assert_eq!(run.report.rung, Rung::CpuOnly);
        assert_eq!(validate(&g, &run.output), Ok(()));
        assert_eq!(run.output.levels, healthy.output.levels);
    }

    #[test]
    fn runtime_spills_checkpoints_and_resumes_them() {
        let rt = runtime();
        let g = xbfs_graph::rmat::rmat_csr(10, 16);
        let stats = GraphStats::rmat(&g, 0.57, 0.19, 0.19, 0.05);
        let src = crate::training::pick_source(&g, 4).unwrap();
        let dir = std::env::temp_dir().join("xbfs-runtime-test");
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("runtime-resume.json");
        let path_s = path.to_str().unwrap().to_string();

        let policy = CheckpointPolicy {
            interval_levels: 2,
            spill: Some(path_s.clone()),
        };
        let full = rt
            .session(&g, &stats)
            .source(src)
            .checkpoints(policy.clone())
            .run()
            .expect("spilling run");
        assert!(full.report.checkpoints_taken > 0);

        let ck = LevelCheckpoint::load(&path_s).expect("spill exists");
        let resumed = rt
            .session(&g, &stats)
            .checkpoints(policy)
            .resume(&ck)
            .expect("resume");
        assert_eq!(resumed.output, full.output);
        assert_eq!(resumed.report.resumed_from_level, Some(ck.level()));
        let _ = std::fs::remove_file(&path);
    }

    #[test]
    fn predicted_cross_is_not_pathological() {
        // The predicted parameters must land within ~10× of the exhaustive
        // optimum (the paper claims 95 %; the quick training set is tiny,
        // so the test only excludes catastrophe).
        let rt = runtime();
        let g = xbfs_graph::rmat::rmat_csr(12, 16);
        let stats = GraphStats::rmat(&g, 0.57, 0.19, 0.19, 0.05);
        let src = crate::training::pick_source(&g, 3).unwrap();
        let prof = xbfs_archsim::profile(&g, src);
        let params = rt.predict_params(&stats);
        let predicted = crate::cross::cost_cross(&prof, &rt.cpu, &rt.gpu, &rt.link, &params);
        let best = crate::oracle::best_mn_cross(
            &prof,
            &rt.cpu,
            &rt.gpu,
            &rt.link,
            params.gpu,
            &crate::oracle::MnGrid::paper_1000(),
        );
        assert!(
            predicted.total_seconds < 10.0 * best.seconds,
            "predicted {} vs best {}",
            predicted.total_seconds,
            best.seconds
        );
    }
}
