//! Contracts of trace analysis ([`critical_path`]) against real simulated
//! runs: a deterministic run re-executes to the identical trace, the
//! critical path through the device lanes never exceeds the run's
//! simulated makespan, and a run that degrades to the single-lane
//! reference rung is *all* critical path.

use proptest::prelude::*;
use xbfs::archsim::{ArchSpec, FaultOp, FaultPlan, Link};
use xbfs::core::checkpoint::CheckpointPolicy;
use xbfs::core::{CrossParams, RecoveredRun, RunSession};
use xbfs::engine::trace::MemorySink;
use xbfs::engine::{critical_path, FixedMN};
use xbfs::graph::Csr;

fn fixture() -> (Csr, u32, ArchSpec, ArchSpec, Link, CrossParams) {
    let g = xbfs::graph::rmat::rmat_csr(10, 16);
    let src = xbfs::core::training::pick_source(&g, 3).expect("non-empty graph");
    (
        g,
        src,
        ArchSpec::cpu_sandy_bridge(),
        ArchSpec::gpu_k20x(),
        Link::pcie3(),
        CrossParams {
            handoff: FixedMN::new(64.0, 64.0),
            gpu: FixedMN::new(14.0, 24.0),
        },
    )
}

fn chaos_plan(seed: u64) -> FaultPlan {
    FaultPlan {
        seed,
        p_transfer_failure: 0.3,
        p_link_stall: 0.2,
        stall_factor: 4.0,
        p_kernel_timeout: 0.15,
        p_device_lost: 0.1,
        scheduled: Vec::new(),
    }
}

fn traced_run(seed: u64) -> (RecoveredRun, MemorySink) {
    let (g, src, cpu, gpu, link, params) = fixture();
    let sink = MemorySink::new();
    let run = RunSession::on_platform(&g, &cpu, &gpu, &link, &params)
        .source(src)
        .fault_plan(&chaos_plan(seed))
        .checkpoints(CheckpointPolicy::every(2))
        .sink(&sink)
        .run()
        .expect("some rung serves every seeded plan");
    (run, sink)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(16))]

    /// The whole stack is deterministic, so re-executing the same seeded
    /// session must reproduce the trace event for event, every field and
    /// timestamp included.
    #[test]
    fn rerunning_a_seeded_session_diffs_empty(seed in 0u64..256) {
        let (_, first) = traced_run(seed);
        let (_, second) = traced_run(seed);
        prop_assert_eq!(first.events(), second.events());
    }

    /// The critical path walks real leaf spans on the simulated clock, so
    /// its length can never exceed the run's total simulated time, and the
    /// path plus its idle gaps accounts for the observed span window.
    #[test]
    fn critical_path_is_bounded_by_the_makespan(seed in 0u64..256) {
        let (run, sink) = traced_run(seed);
        let path = critical_path(&sink.events());
        let total = run.report.total_seconds;
        prop_assert!(
            path.length_s <= total * (1.0 + 1e-9),
            "critical path {} exceeds makespan {total}",
            path.length_s
        );
        // length + gap spans exactly the window the leaf spans cover.
        prop_assert!(((path.end_s - path.start_s) - (path.length_s + path.gap_s)).abs() <= 1e-9);
        // Per-device attribution is a partition of the path.
        let by_device: f64 = path.device_seconds.values().sum();
        prop_assert!((by_device - path.length_s).abs() <= 1e-9 * path.length_s.max(1.0));
    }
}

/// Killing the CPU at its first kernel drops the ladder to the sequential
/// reference rung: a single-lane run whose every simulated moment is a
/// `cpu` kernel span, so the critical path *is* the makespan.
#[test]
fn single_lane_reference_run_is_all_critical_path() {
    let (g, src, cpu, gpu, link, params) = fixture();
    let plan = FaultPlan::lost_at(FaultOp::CpuKernel, 0);
    let sink = MemorySink::new();
    let run = RunSession::on_platform(&g, &cpu, &gpu, &link, &params)
        .source(src)
        .fault_plan(&plan)
        .checkpoints(CheckpointPolicy::disabled())
        .sink(&sink)
        .run()
        .expect("the reference rung serves");
    assert_eq!(run.report.rung.label(), "reference");

    let path = critical_path(&sink.events());
    let total = run.report.total_seconds;
    assert!(
        (path.length_s - total).abs() <= 1e-9 * total,
        "single-lane path {} != makespan {total}",
        path.length_s
    );
    assert!(path.gap_s <= 1e-9 * total, "single lane has no idle gaps");
    assert!(!path.segments.is_empty());
    assert!(
        path.segments.iter().all(|s| s.device == "cpu"),
        "reference rung runs on the cpu lane only: {:?}",
        path.segments.iter().map(|s| s.device).collect::<Vec<_>>()
    );
    assert!((path.on_device("cpu") - path.length_s).abs() <= 1e-12);
}
