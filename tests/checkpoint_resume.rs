//! Checkpoint/resume contract, end to end: a seeded device loss at level
//! ℓ ≥ 2 resumes without replaying the prefix; checkpoints round-trip
//! through serde losslessly; a fault-free "checkpoint at ℓ then resume"
//! produces a tree identical to the uninterrupted run on every rung; a
//! checksummed capture bills the handoff's verification as the
//! uninterrupted run does; the fault stream stays deterministic across an
//! external resume; and the ladder's running byte count equals the
//! serialized checkpoint at every capture.

use std::path::{Path, PathBuf};

use proptest::prelude::*;
use xbfs::archsim::fault::{CorruptPayload, FaultKind, FaultOp, FaultPlan, ScheduledFault};
use xbfs::archsim::{ArchSpec, Link};
use xbfs::core::checkpoint::{capture_at, CheckpointPolicy, LevelCheckpoint};
use xbfs::core::recovery::{RecoveredRun, ResilienceConfig, Rung};
use xbfs::core::{run_cross, CrossParams, RunSession};
use xbfs::engine::{
    hybrid, validate, AlwaysTopDown, FixedMN, MemorySink, ScrubPolicy, TraceEvent, XbfsError,
    UNREACHED,
};
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

fn depth_of(levels: &[u32]) -> u32 {
    levels
        .iter()
        .filter(|&&l| l != UNREACHED)
        .max()
        .copied()
        .expect("source is reached")
        + 1
}

/// The issue's acceptance scenario: the GPU dies at a level ℓ ≥ 2 of an
/// R-MAT traversal. With a checkpoint at every boundary, the CPU rung must
/// re-execute only levels ≥ ℓ — each level of the final tree runs exactly
/// once across the whole ladder — and beat the restart-from-scratch run
/// under the identical fault stream.
#[test]
fn gpu_loss_at_level_two_plus_resumes_only_the_suffix() {
    let (g, src, cpu, gpu, link, params) = fixture();
    // Find a GPU-served level ℓ ≥ 2 to kill.
    let baseline = run_cross(&g, src, &cpu, &gpu, &link, &params);
    let fail_level = baseline
        .placements
        .iter()
        .position(|p| p.on_gpu())
        .expect("cross run uses the GPU")
        .max(2);
    assert!(
        baseline.placements[fail_level].on_gpu(),
        "level {fail_level} must be GPU-served once the handoff fired"
    );
    let plan = FaultPlan {
        scheduled: vec![ScheduledFault {
            op: FaultOp::GpuKernel,
            level: fail_level,
            kind: FaultKind::DeviceLost,
        }],
        ..FaultPlan::none()
    };

    let restart_config = ResilienceConfig {
        checkpoint: CheckpointPolicy::disabled(),
        ..ResilienceConfig::default_runtime()
    };
    let restart = RunSession::on_platform(&g, &cpu, &gpu, &link, &params)
        .source(src)
        .fault_plan(&plan)
        .resilience(restart_config)
        .run()
        .expect("CPU rung serves the restart");

    let run = RunSession::on_platform(&g, &cpu, &gpu, &link, &params)
        .source(src)
        .fault_plan(&plan)
        .checkpoints(CheckpointPolicy::every(1))
        .run()
        .expect("CPU rung serves the resume");

    assert_eq!(run.report.rung, Rung::CpuOnly);
    assert_eq!(validate(&g, &run.output), Ok(()));
    assert_eq!(run.output, restart.output);

    // The CPU rung resumed exactly at the failure level...
    let resume = run
        .report
        .resumes
        .iter()
        .find(|r| r.rung == Rung::CpuOnly)
        .expect("cpu rung resumed from a checkpoint");
    assert_eq!(resume.from_level, fail_level as u32);
    assert!(
        resume.translated,
        "GPU frontier was translated to host form"
    );
    assert_eq!(run.report.levels_replayed, 0);

    // ...so every level of the tree was executed exactly once across the
    // ladder (cross prefix + CPU suffix), while the restart re-ran the
    // prefix a second time. Per-level edge-examination counters agree.
    let depth = depth_of(&run.output.levels);
    assert_eq!(run.report.levels_executed, depth);
    assert!(restart.report.levels_executed > depth);
    assert!(run.report.edges_examined < restart.report.edges_examined);

    // And the checkpointed run is strictly cheaper than the restart, with
    // the saving visible in the report.
    assert!(run.report.saved_seconds > 0.0);
    assert!(run.report.total_seconds < restart.report.total_seconds);
    assert!(run.report.checkpoints_taken > 0);
    assert!(run.report.checkpoint_bytes > 0);
}

/// Persisting the fault-session cursor is what makes resume deterministic:
/// under a fault-heavy probabilistic plan, an external resume from a spill
/// must observe the identical fault suffix and land on the identical clock
/// and tree as the run that never stopped.
#[test]
fn fault_stream_is_deterministic_across_external_resume() {
    let (g, src, cpu, gpu, link, params) = fixture();
    let dir = std::env::temp_dir().join("xbfs-determinism-test");
    std::fs::create_dir_all(&dir).unwrap();
    let path = dir.join("cursor.json");
    let path_s = path.to_str().unwrap().to_string();

    let config = ResilienceConfig {
        checkpoint: CheckpointPolicy {
            interval_levels: 2,
            spill: Some(path_s.clone()),
        },
        ..ResilienceConfig::default_runtime()
    };
    // Only GPU-phase operations draw probabilistic faults, so not every
    // seed injects one; sweep seeds and require the property to be
    // exercised on at least one fault-bearing stream.
    let mut faulty_streams = 0;
    for seed in 0..16u64 {
        let plan = FaultPlan {
            seed,
            p_transfer_failure: 0.4,
            p_link_stall: 0.3,
            stall_factor: 4.0,
            p_kernel_timeout: 0.3,
            p_device_lost: 0.0,
            scheduled: Vec::new(),
        };
        let full = RunSession::on_platform(&g, &cpu, &gpu, &link, &params)
            .source(src)
            .fault_plan(&plan)
            .resilience(config.clone())
            .run()
            .expect("fault plan has no permanent faults");
        if !full.report.events.is_empty() {
            faulty_streams += 1;
        }

        let ck = LevelCheckpoint::load(&path_s).expect("spill exists");
        let resumed = RunSession::on_platform(&g, &cpu, &gpu, &link, &params)
            .fault_plan(&plan)
            .resilience(config.clone())
            .resume(&ck)
            .expect("resume");
        assert_eq!(resumed.output, full.output, "seed {seed}");
        assert_eq!(resumed.report.events, full.report.events, "seed {seed}");
        // A device-resident checkpoint pays one supervised re-upload on an
        // external same-rung resume; otherwise the clocks are identical.
        let reupload = if ck.handed_off {
            link.transfer_time(Link::handoff_bytes(
                g.num_vertices() as u64,
                ck.state.frontier.len() as u64,
            ))
        } else {
            0.0
        };
        assert!(
            (resumed.report.total_seconds - (full.report.total_seconds + reupload)).abs() < 1e-12,
            "seed {seed}: resumed clock {} vs full {} + re-upload {}",
            resumed.report.total_seconds,
            full.report.total_seconds,
            reupload
        );
        assert_eq!(resumed.report.retries, full.report.retries, "seed {seed}");
        // The re-upload is the only spend the two runs disagree on: if the
        // resumed rung later degrades it is converted to loss, otherwise it
        // stays productive. Everything else in the loss ledger matches.
        assert!(
            resumed.report.recovery_seconds >= full.report.recovery_seconds - 1e-12
                && resumed.report.recovery_seconds
                    <= full.report.recovery_seconds + reupload + 1e-12,
            "seed {seed}: resumed loss {} vs full loss {} (re-upload {})",
            resumed.report.recovery_seconds,
            full.report.recovery_seconds,
            reupload
        );
    }
    assert!(
        faulty_streams > 0,
        "no seed injected a fault — the determinism property went unexercised"
    );
    let _ = std::fs::remove_file(&path);
}

/// Checksummed transfers add the receiver's verification pass to the
/// handoff. A capture past the handoff must bill it in the prefix it
/// hands over, so turning checksums on moves a resumed run's clock by
/// exactly what it moves the uninterrupted run's.
#[test]
fn checksummed_capture_bills_the_handoff_check_like_an_uninterrupted_run() {
    let (g, src, cpu, gpu, link, params) = fixture();
    let plan = FaultPlan::none();
    let off = ResilienceConfig::default_runtime();
    let on = ResilienceConfig {
        checksum_transfers: true,
        ..off.clone()
    };
    let uninterrupted = |config: &ResilienceConfig| {
        RunSession::on_platform(&g, &cpu, &gpu, &link, &params)
            .source(src)
            .fault_plan(&plan)
            .resilience(config.clone())
            .run()
            .expect("fault-free run")
            .report
            .total_seconds
    };
    let resumed = |config: &ResilienceConfig, level: u32| {
        let ck = capture_at(
            &g,
            src,
            &cpu,
            &gpu,
            &link,
            &params,
            &plan,
            config,
            Rung::CrossCpuGpu,
            level,
        )
        .expect("fault-free capture inside the traversal");
        assert!(ck.handed_off, "level {level} is past the handoff");
        RunSession::on_platform(&g, &cpu, &gpu, &link, &params)
            .fault_plan(&plan)
            .resilience(config.clone())
            .resume(&ck)
            .expect("fault-free resume")
            .report
            .total_seconds
    };
    let (u_on, u_off) = (uninterrupted(&on), uninterrupted(&off));
    let check = u_on - u_off;
    assert!(check > 0.0, "checksums cost the uninterrupted run nothing");
    for level in 2..=5 {
        let resumed_check = resumed(&on, level) - resumed(&off, level);
        assert!(
            (resumed_check - check).abs() <= 1e-9 * u_on,
            "level {level}: checksums add {resumed_check} s to the resumed run, \
             {check} s to the uninterrupted one"
        );
    }
}

/// Every committed chaos plan, by its two-digit prefix.
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
            let stem = path.file_stem().unwrap().to_string_lossy();
            (stem[..2].to_string(), plan)
        })
        .collect()
}

/// What a run exposes about its captures: the bytes of every
/// [`TraceEvent::Checkpoint`] in order, the report JSON (or the typed
/// error), and the served parent map.
struct Captures {
    bytes: Vec<u64>,
    report: String,
    parents: Option<Vec<u32>>,
}

impl Captures {
    fn of(result: &Result<RecoveredRun, XbfsError>, sink: &MemorySink) -> Self {
        let bytes = sink
            .events()
            .iter()
            .filter_map(|e| match e {
                TraceEvent::Checkpoint { bytes, .. } => Some(*bytes),
                _ => None,
            })
            .collect();
        let (report, parents) = match result {
            Ok(run) => (run.report.to_json(), Some(run.output.parents.clone())),
            Err(e) => (format!("{e:?}"), None),
        };
        Self {
            bytes,
            report,
            parents,
        }
    }
}

/// A plan whose one fault is a parent-word flip after the kernel of level
/// 3 that re-parents a vertex discovered by then to another neighbour one
/// level shallower, whose id has a different number of digits. The tree
/// stays sound, so the audit, the scrub and validation all accept it, and
/// the next captures are cut from a state no level step wrote. Returns
/// the plan, the vertex and its new parent, if the graph has such a
/// vertex.
fn silent_reparent(
    g: &Csr,
    src: u32,
    platform: (&ArchSpec, &ArchSpec, &Link, &CrossParams),
) -> Option<(FaultPlan, u32, u32)> {
    const LEVEL: usize = 3;
    let (cpu, gpu, link, params) = platform;
    let run = run_cross(g, src, cpu, gpu, link, params);
    let op = if run.placements.get(LEVEL)?.on_gpu() {
        FaultOp::GpuKernel
    } else {
        FaultOp::CpuKernel
    };
    let out = &run.traversal.output;
    let (v, bit, q) = (0..g.num_vertices()).find_map(|v| {
        let (p, l) = (out.parents[v as usize], out.levels[v as usize]);
        if v == src || l == UNREACHED || l > LEVEL as u32 {
            return None;
        }
        (0..32u8).find_map(|bit| {
            let q = p ^ (1 << bit);
            let other = q < g.num_vertices()
                && q != v
                && out.levels[q as usize].checked_add(1) == Some(l)
                && g.has_edge(q, v)
                && q.to_string().len() != p.to_string().len();
            other.then_some((v, bit, q))
        })
    })?;
    let plan = FaultPlan {
        scheduled: vec![ScheduledFault {
            op,
            level: LEVEL,
            kind: FaultKind::BitFlip {
                payload: CorruptPayload::Parents,
                word: v,
                bit,
            },
        }],
        ..FaultPlan::none()
    };
    Some((plan, v, q))
}

/// The ladder counts an unspilled capture's bytes from a running count,
/// and a spilled one from the string it writes. Run every case both ways:
/// each capture must report the same bytes, so the running count is the
/// serialized length at every boundary. The cases cover every committed
/// chaos plan (bit flips that land, checksummed retries, degradations
/// that resume on a lower rung), a flip that no check can see, three
/// scrub cadences, and an external resume on each rung, with a
/// checkpoint every level and checksums on.
#[test]
fn running_byte_count_is_the_serialized_length_at_every_capture() {
    let (_, _, cpu, gpu, link, params) = fixture();
    let graphs = [
        ("rmat10", xbfs::graph::rmat::rmat_csr(10, 16)),
        ("road24", xbfs::graph::gen::road_like(24, 24, 16, 1)),
    ];
    let scrubs = [
        ("off", ScrubPolicy::Off),
        ("every2", ScrubPolicy::every(2)),
        ("every1", ScrubPolicy::every_level()),
    ];
    let dir = std::env::temp_dir().join(format!("xbfs-running-count-{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    let mut resumed_on = Vec::new();
    let (mut cases, mut silent_flips) = (0, 0);
    for (gname, g) in &graphs {
        let src = xbfs::core::training::pick_source(g, 3).expect("non-empty graph");
        let mut plans = chaos_plans();
        let silent = silent_reparent(g, src, (&cpu, &gpu, &link, &params));
        if let Some((plan, _, _)) = &silent {
            plans.push(("silent".to_string(), plan.clone()));
        }
        for (pname, plan) in &plans {
            for (sname, scrub) in scrubs {
                let config = |spill: Option<&Path>| ResilienceConfig {
                    checkpoint: CheckpointPolicy {
                        interval_levels: 1,
                        spill: spill.map(|p| p.to_str().unwrap().to_string()),
                    },
                    scrub,
                    checksum_transfers: true,
                    ..ResilienceConfig::default_runtime()
                };
                let starts = [
                    None,
                    Some(Rung::CrossCpuGpu),
                    Some(Rung::CpuOnly),
                    Some(Rung::Reference),
                ];
                for start in starts {
                    let ck = match start {
                        None => None,
                        Some(rung) => {
                            let config = config(None);
                            match capture_at(
                                g, src, &cpu, &gpu, &link, &params, plan, &config, rung, 3,
                            ) {
                                Ok(ck) => Some(ck),
                                // The plan faults inside the prefix.
                                Err(XbfsError::Checkpoint { .. }) => continue,
                                Err(e) => panic!("{gname}/{pname}/{rung}: {e}"),
                            }
                        }
                    };
                    let name = format!("{gname}/{pname}/{sname}/{start:?}");
                    let path = dir.join(format!("{gname}-{pname}-{sname}-{start:?}.json"));
                    let run = |spill: Option<&Path>| {
                        let sink = MemorySink::new();
                        let session = RunSession::on_platform(g, &cpu, &gpu, &link, &params)
                            .fault_plan(plan)
                            .resilience(config(spill))
                            .sink(&sink);
                        let result = match &ck {
                            None => session.source(src).run(),
                            Some(ck) => session.resume(ck),
                        };
                        Captures::of(&result, &sink)
                    };
                    let counted = run(None);
                    let spilled = run(Some(&path));
                    std::fs::remove_file(&path).ok();
                    assert!(!counted.bytes.is_empty(), "{name}: no capture");
                    assert_eq!(counted.bytes, spilled.bytes, "{name}");
                    assert_eq!(counted.report, spilled.report, "{name}");
                    if let (Some((_, v, q)), "silent", None) = (&silent, pname.as_str(), start) {
                        let parents = counted.parents.expect("a sound tree is served");
                        assert_eq!(parents[*v as usize], *q, "{name}: the flip landed unseen");
                        silent_flips += 1;
                    }
                    if let Some(rung) = start {
                        resumed_on.push(rung);
                    }
                    cases += 1;
                }
            }
        }
    }
    std::fs::remove_dir(&dir).ok();
    for rung in [Rung::CrossCpuGpu, Rung::CpuOnly, Rung::Reference] {
        assert!(resumed_on.contains(&rung), "no external resume on {rung}");
    }
    assert!(silent_flips > 0, "no graph offers a silent re-parent");
    assert!(cases >= 2 * 14 * 3, "{cases} cases");
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// Checkpoint serde round trip is lossless for any rung, capture
    /// level, and fault seed.
    #[test]
    fn checkpoint_serde_round_trip_is_lossless(
        rung_ix in 0usize..3,
        level in 1u32..4,
        seed in 0u64..1024,
    ) {
        let (g, src, cpu, gpu, link, params) = fixture();
        let rung = [Rung::CrossCpuGpu, Rung::CpuOnly, Rung::Reference][rung_ix];
        let plan = FaultPlan { seed, ..FaultPlan::none() };
        let config = ResilienceConfig::default_runtime();
        let ck = capture_at(&g, src, &cpu, &gpu, &link, &params, &plan, &config, rung, level)
            .expect("fault-free capture inside the traversal");
        prop_assert_eq!(ck.level(), level);
        prop_assert!(ck.validate_for(&g).is_ok());
        let json = ck.to_json();
        let back = LevelCheckpoint::from_json(&json).expect("parses");
        prop_assert_eq!(&back, &ck);
        prop_assert_eq!(back.byte_size(), ck.byte_size());
        prop_assert_eq!(ck.byte_size(), json.len() as u64);
    }

    /// Fault-free "checkpoint at ℓ then resume" produces a tree identical
    /// to the uninterrupted run, on every rung.
    #[test]
    fn fault_free_capture_then_resume_matches_uninterrupted_run(
        rung_ix in 0usize..3,
        level in 1u32..4,
    ) {
        let (g, src, cpu, gpu, link, params) = fixture();
        let rung = [Rung::CrossCpuGpu, Rung::CpuOnly, Rung::Reference][rung_ix];
        let plan = FaultPlan::none();
        let uninterrupted = match rung {
            Rung::CrossCpuGpu => {
                run_cross(&g, src, &cpu, &gpu, &link, &params).traversal.output
            }
            Rung::CpuOnly => hybrid::run(&g, src, &mut FixedMN::new(14.0, 24.0)).output,
            Rung::Reference => hybrid::run(&g, src, &mut AlwaysTopDown).output,
        };
        let config = ResilienceConfig::default_runtime();
        let ck = capture_at(&g, src, &cpu, &gpu, &link, &params, &plan, &config, rung, level)
            .expect("fault-free capture inside the traversal");
        let resumed = RunSession::on_platform(&g, &cpu, &gpu, &link, &params)
            .fault_plan(&plan)
            .resume(&ck)
            .expect("fault-free resume");
        prop_assert_eq!(resumed.report.rung, rung);
        prop_assert_eq!(resumed.report.resumed_from_level, Some(level));
        prop_assert_eq!(&resumed.output, &uninterrupted);
        prop_assert!(validate(&g, &resumed.output).is_ok());
    }
}
