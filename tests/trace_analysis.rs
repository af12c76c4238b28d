//! Coverage contracts of the decision audit's time attribution
//! ([`decision_audit`]) against real simulated runs: a deterministic run
//! re-executes to the identical trace; every clock charge of a fresh run,
//! chaos included, lands in a `(phase, device)` cell, so the attributed
//! phases sum to the makespan, over seeded chaos and over every committed
//! chaos plan, rollback repairs included; a run that degrades to the
//! single-lane reference rung is *all* `kernel/cpu`; and an external
//! resume of a handed-off cross checkpoint spans its re-upload, so only
//! the checkpoint's own clock goes unattributed.

use proptest::prelude::*;
use std::collections::BTreeMap;
use std::path::{Path, PathBuf};
use xbfs::archsim::{ArchSpec, FaultOp, FaultPlan, Link};
use xbfs::core::checkpoint::{capture_at, CheckpointPolicy};
use xbfs::core::{
    decision_audit, CrossParams, DecisionAudit, RecoveredRun, ResilienceConfig, RunSession, Rung,
};
use xbfs::engine::trace::MemorySink;
use xbfs::engine::{FixedMN, ScrubPolicy};
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

/// Every committed chaos plan, its file name first.
fn chaos_plans() -> Vec<(String, FaultPlan)> {
    let dir = Path::new(env!("CARGO_MANIFEST_DIR"))
        .join("tests")
        .join("chaos");
    let mut files: Vec<PathBuf> = std::fs::read_dir(&dir)
        .unwrap_or_else(|e| panic!("chaos corpus dir {}: {e}", dir.display()))
        .map(|entry| entry.expect("readable dir entry").path())
        .filter(|p| p.extension().is_some_and(|e| e == "json"))
        .collect();
    files.sort();
    files
        .iter()
        .map(|path| {
            let text = std::fs::read_to_string(path).expect("readable plan");
            let plan = FaultPlan::from_json(&text).expect("plan parses");
            (
                path.file_name().unwrap().to_string_lossy().into_owned(),
                plan,
            )
        })
        .collect()
}

/// Every committed chaos plan, with a checkpoint every level or every two
/// and with or without a scrub every level and checksummed transfers:
/// whatever the ladder does (retries, degradations, rollback repairs that
/// re-upload a device-resident checkpoint, captures refused by their
/// audit), each clock charge has a span, so the attribution is the
/// makespan.
#[test]
fn every_chaos_plan_attributes_its_whole_makespan() {
    let (g, src, cpu, gpu, link, params) = fixture();
    for (name, plan) in chaos_plans() {
        for every in [1, 2] {
            for hardened in [false, true] {
                let config = ResilienceConfig {
                    checkpoint: CheckpointPolicy::every(every),
                    scrub: if hardened {
                        ScrubPolicy::every_level()
                    } else {
                        ScrubPolicy::Off
                    },
                    checksum_transfers: hardened,
                    ..ResilienceConfig::default_runtime()
                };
                let case = format!("{name}, checkpoint every {every}, hardened {hardened}");
                let sink = MemorySink::new();
                let run = RunSession::on_platform(&g, &cpu, &gpu, &link, &params)
                    .source(src)
                    .fault_plan(&plan)
                    .resilience(config)
                    .sink(&sink)
                    .run()
                    .unwrap_or_else(|e| panic!("{case}: {e:?}"));
                let total = run.report.total_seconds;
                let attributed = audit_of(&run, &sink).attributed_s();
                assert!(
                    (total - attributed).abs() <= 1e-9 * total,
                    "{case}: attributed {attributed} of {total}"
                );
            }
        }
    }
}

/// An external resume of a cross checkpoint taken after the handoff puts
/// the frontier and visited bitmap back on the device before the GPU
/// phase continues, and spans that re-upload as a transfer. The resumed
/// trace starts at the checkpoint's clock, so the resumed clock less the
/// checkpoint's own clock is exactly the attribution: an unspanned charge,
/// or a lost span, moves the difference.
#[test]
fn resumed_cross_run_attributes_everything_after_its_checkpoint() {
    let (g, src, cpu, gpu, link, params) = fixture();
    let plan = FaultPlan::none();
    let config = ResilienceConfig::default_runtime();
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
        assert!(
            unattributed.abs() <= 1e-9 * total,
            "level {level}: unattributed {unattributed} of {total}"
        );
    }
}
