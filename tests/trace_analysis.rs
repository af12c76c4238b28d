//! Coverage contracts of the decision audit's time attribution
//! ([`decision_audit`]) against real simulated runs: a deterministic run
//! re-executes to the identical trace; every clock charge of a fresh run,
//! chaos included, lands in a `(phase, device)` cell, so the attributed
//! phases sum to the makespan; a run that degrades to the single-lane
//! reference rung is *all* `kernel/cpu`; and an external resume of a
//! handed-off cross checkpoint leaves exactly its re-upload unattributed.

use proptest::prelude::*;
use std::collections::BTreeMap;
use xbfs::archsim::{ArchSpec, FaultOp, FaultPlan, Link};
use xbfs::core::checkpoint::{capture_at, CheckpointPolicy};
use xbfs::core::{
    decision_audit, CrossParams, DecisionAudit, RecoveredRun, ResilienceConfig, RunSession, Rung,
};
use xbfs::engine::trace::MemorySink;
use xbfs::engine::FixedMN;
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

/// The decision audit of a fixture run, from its buffered trace.
fn audit_of(run: &RecoveredRun, sink: &MemorySink) -> DecisionAudit {
    let (g, src, cpu, gpu, link, params) = fixture();
    let profile = xbfs::archsim::profile(&g, src);
    decision_audit(
        &profile,
        &cpu,
        &gpu,
        &link,
        &params,
        &sink.events(),
        &run.report,
        0.0,
    )
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

    /// Every charge of a fresh run — failed attempts, stalls, backoffs
    /// and checkpoint drains included — has a leaf span on the serial
    /// simulated clock, so the attributed phases sum to the makespan: the
    /// critical path is the whole run, partitioned by device lane.
    #[test]
    fn critical_path_is_bounded_by_the_makespan(seed in 0u64..256) {
        let (run, sink) = traced_run(seed);
        let audit = audit_of(&run, &sink);
        let total = run.report.total_seconds;
        let attributed = audit.attributed_s();
        prop_assert!(
            (attributed - total).abs() <= 1e-9 * total,
            "attributed {attributed} vs makespan {total}"
        );
        // Lane by lane, the phases and the `(level, device)` cells hold the
        // same seconds. A cell may hold only a priced `KernelCost` (a
        // kernel that died before its span), so lanes are matched by sum.
        let mut lanes: BTreeMap<&str, (f64, f64)> = BTreeMap::new();
        for p in &audit.phases {
            lanes.entry(&p.device).or_default().0 += p.seconds;
        }
        for c in &audit.levels {
            lanes.entry(&c.device).or_default().1 += c.total_s();
        }
        for (device, (phase_s, cell_s)) in &lanes {
            prop_assert!(
                ["cpu", "gpu", "link", "ladder"].contains(device),
                "unknown lane {device}"
            );
            prop_assert!(
                (phase_s - cell_s).abs() <= 1e-9 * total,
                "{device}: phases {phase_s} vs cells {cell_s}"
            );
        }
    }
}

/// Killing the CPU at its first kernel drops the ladder to the sequential
/// reference rung: a single-lane run whose every simulated moment is a
/// `cpu` kernel span, so the attribution is one `kernel/cpu` phase equal
/// to the makespan.
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

    let audit = audit_of(&run, &sink);
    let total = run.report.total_seconds;
    let phases: Vec<(&str, &str)> = audit
        .phases
        .iter()
        .map(|p| (p.phase.as_str(), p.device.as_str()))
        .collect();
    assert_eq!(
        phases,
        [("kernel", "cpu")],
        "reference rung runs on the cpu lane only"
    );
    assert!(
        (audit.phases[0].seconds - total).abs() <= 1e-9 * total,
        "single-lane attribution {} != makespan {total}",
        audit.phases[0].seconds
    );
}

/// An external resume of a cross checkpoint taken after the handoff puts
/// the frontier and visited bitmap back on the device before the GPU
/// phase continues. That re-upload is the one charge with no span, so the
/// resumed clock less the checkpoint's own clock less the attribution is
/// exactly its transfer time: a new unspanned charge, or a lost span,
/// moves the difference.
#[test]
fn resumed_cross_run_leaves_only_the_reupload_unattributed() {
    let (g, src, cpu, gpu, link, params) = fixture();
    let plan = FaultPlan::none();
    let config = ResilienceConfig::default_runtime();
    let n = g.num_vertices() as u64;
    for level in 1..=5u32 {
        let ck = capture_at(
            &g,
            src,
            &cpu,
            &gpu,
            &link,
            &params,
            &plan,
            &config,
            Rung::CrossCpuGpu,
            level,
        )
        .expect("fault-free capture inside the traversal");
        assert_eq!(ck.handed_off, level >= 2, "level {level}");
        let sink = MemorySink::new();
        let run = RunSession::on_platform(&g, &cpu, &gpu, &link, &params)
            .fault_plan(&plan)
            .resilience(config.clone())
            .sink(&sink)
            .resume(&ck)
            .expect("fault-free resume");
        let total = run.report.total_seconds;
        let unattributed = total - ck.clock_s - audit_of(&run, &sink).attributed_s();
        let reupload = if ck.handed_off {
            link.transfer_time(Link::handoff_bytes(n, ck.state.frontier.len() as u64))
        } else {
            0.0
        };
        assert!(
            (unattributed - reupload).abs() <= 1e-9 * total,
            "level {level}: unattributed {unattributed} vs re-upload {reupload}"
        );
    }
}
