//! The silent-data-corruption contract, end to end.
//!
//! 1. A seeded bit-flip corpus — generated plans plus the committed
//!    `tests/chaos/13-*`/`14-*` — always ends in a Graph 500-validated
//!    tree or a typed corruption error. A run that returns an invalid
//!    tree fails the suite.
//! 2. Scrub-triggered rollback repair re-executes only levels at or above
//!    the rollback point and beats restart-from-scratch on the simulated
//!    clock.
//! 3. With scrubbing and checksums disabled (the default), runs are
//!    byte-identical to an explicit opt-out — the defense layer costs
//!    nothing when off.

use proptest::prelude::*;
use xbfs::archsim::fault::{CorruptPayload, FaultKind, FaultOp, FaultPlan, ScheduledFault};
use xbfs::archsim::{ArchSpec, Link};
use xbfs::core::checkpoint::CheckpointPolicy;
use xbfs::core::recovery::{ResilienceConfig, Rung};
use xbfs::core::{chrome_trace_json, CrossParams, RecoveredRun, RunSession};
use xbfs::engine::{hybrid, validate, AlwaysTopDown, FixedMN, MemorySink, ScrubPolicy, XbfsError};
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

fn run_with(
    g: &Csr,
    src: u32,
    plan: &FaultPlan,
    config: &ResilienceConfig,
) -> Result<RecoveredRun, XbfsError> {
    let (_, _, cpu, gpu, link, params) = fixture();
    RunSession::on_platform(g, &cpu, &gpu, &link, &params)
        .source(src)
        .fault_plan(plan)
        .resilience(config.clone())
        .run()
}

/// Derive one bit-flip plan from a seed: 1–3 scheduled flips across ops,
/// levels, payloads, and bit positions, plus background transient chaos
/// on odd seeds.
fn corpus_plan(seed: u64) -> FaultPlan {
    let ops = [FaultOp::CpuKernel, FaultOp::GpuKernel, FaultOp::Transfer];
    let payloads = [CorruptPayload::Parents, CorruptPayload::Bitmap];
    let mut x = seed.wrapping_mul(0x9e37_79b9_7f4a_7c15).wrapping_add(1);
    let mut next = |m: u64| {
        x ^= x << 13;
        x ^= x >> 7;
        x ^= x << 17;
        x % m
    };
    let flips = 1 + next(3) as usize;
    let scheduled = (0..flips)
        .map(|_| ScheduledFault {
            op: ops[next(3) as usize],
            level: next(6) as usize,
            kind: FaultKind::BitFlip {
                payload: payloads[next(2) as usize],
                word: next(4096) as u32,
                bit: next(32) as u8,
            },
        })
        .collect();
    let transient = if seed % 2 == 1 { 0.15 } else { 0.0 };
    FaultPlan {
        seed,
        p_transfer_failure: transient,
        p_link_stall: transient,
        stall_factor: 4.0,
        p_kernel_timeout: transient,
        p_device_lost: 0.0,
        scheduled,
    }
}

/// Every defended configuration the corpus replays under.
fn defended_configs() -> Vec<(&'static str, ResilienceConfig)> {
    vec![
        (
            "scrub+checksum+checkpoints",
            ResilienceConfig {
                checkpoint: CheckpointPolicy::every(2),
                scrub: ScrubPolicy::every_level(),
                checksum_transfers: true,
                ..ResilienceConfig::default_runtime()
            },
        ),
        (
            "scrub-only",
            ResilienceConfig {
                scrub: ScrubPolicy::every(2),
                ..ResilienceConfig::default_runtime()
            },
        ),
        (
            "undefended (validation gate only)",
            ResilienceConfig::default_runtime(),
        ),
    ]
}

/// Contract (a): a seeded bit-flip corpus never yields a silently wrong
/// tree — every run ends validated or with a typed error.
#[test]
fn seeded_bitflip_corpus_ends_validated_or_typed() {
    let (g, src, ..) = fixture();
    let mut committed: Vec<(String, FaultPlan)> =
        ["13-bitflip-frontier", "14-bitflip-storm-with-device-loss"]
            .iter()
            .map(|name| {
                let path = std::path::Path::new(env!("CARGO_MANIFEST_DIR"))
                    .join("tests")
                    .join("chaos")
                    .join(format!("{name}.json"));
                let text = std::fs::read_to_string(&path)
                    .unwrap_or_else(|e| panic!("{}: {e}", path.display()));
                (
                    name.to_string(),
                    FaultPlan::from_json(&text).expect("committed plan parses"),
                )
            })
            .collect();
    committed.extend((0..24).map(|seed| (format!("seed-{seed}"), corpus_plan(seed))));

    let mut flips_fired = 0u32;
    let mut detections = 0u32;
    for (name, plan) in &committed {
        for (cfg_name, config) in defended_configs() {
            match run_with(&g, src, plan, &config) {
                Ok(run) => {
                    assert_eq!(
                        validate(&g, &run.output),
                        Ok(()),
                        "{name} under {cfg_name}: rung {} returned an invalid tree",
                        run.report.rung
                    );
                    flips_fired += run
                        .report
                        .events
                        .iter()
                        .filter(|e| matches!(e.kind, FaultKind::BitFlip { .. }))
                        .count() as u32;
                    detections += run.report.corruption_detected;
                }
                Err(
                    e @ (XbfsError::CorruptionUnrecovered { .. }
                    | XbfsError::CorruptionDetected { .. }),
                ) => {
                    // A typed corruption verdict is an acceptable terminal.
                    let _ = e.to_string();
                }
                Err(other) => panic!("{name} under {cfg_name}: unexpected error {other}"),
            }
        }
    }
    // The corpus is not a no-op: flips actually landed and the defended
    // configs actually caught some.
    assert!(flips_fired > 0, "no scheduled flip ever fired");
    assert!(detections > 0, "no flip was ever detected mid-run");
}

/// Contract (b): rollback repair resumes at the trusted checkpoint — not
/// level 0 — and wins on the simulated clock against restart-from-scratch.
#[test]
fn rollback_repair_beats_restart_from_scratch() {
    let (g, src, ..) = fixture();
    // A deterministic high-bit parent flip on the GPU at level 3: the
    // level-4 scrub pass always catches it.
    let plan = FaultPlan {
        scheduled: vec![ScheduledFault {
            op: FaultOp::GpuKernel,
            level: 3,
            kind: FaultKind::BitFlip {
                payload: CorruptPayload::Parents,
                word: 5,
                bit: 31,
            },
        }],
        ..FaultPlan::none()
    };
    let rollback_config = ResilienceConfig {
        checkpoint: CheckpointPolicy::every(2),
        scrub: ScrubPolicy::every_level(),
        ..ResilienceConfig::default_runtime()
    };
    let restart_config = ResilienceConfig {
        checkpoint: CheckpointPolicy::disabled(),
        scrub: ScrubPolicy::every_level(),
        ..ResilienceConfig::default_runtime()
    };

    let rolled = run_with(&g, src, &plan, &rollback_config).expect("rollback repair serves");
    let restarted = run_with(&g, src, &plan, &restart_config).expect("restart repair serves");
    for run in [&rolled, &restarted] {
        assert_eq!(validate(&g, &run.output), Ok(()));
        assert_eq!(run.report.corruption_detected, 1);
        assert_eq!(run.report.corruption_repairs, 1);
    }
    assert_eq!(rolled.output, restarted.output, "same graph, same tree");

    // The rollback resumed mid-traversal: only levels >= the checkpoint
    // boundary re-ran.
    assert!(
        rolled.report.resumes.iter().any(|r| r.from_level == 2),
        "rollback must resume at the level-2 checkpoint: {:?}",
        rolled.report.resumes
    );
    // Two completed levels (2 and 3) sat between the checkpoint and the
    // detection point; those — and only those — were replayed.
    assert_eq!(rolled.report.levels_replayed, 2);
    assert!(
        rolled.report.levels_executed < restarted.report.levels_executed,
        "rollback executed {} levels, restart {}",
        rolled.report.levels_executed,
        restarted.report.levels_executed
    );
    // And it wins where it counts: checkpoint overhead included, the
    // repaired run finishes sooner on the simulated clock.
    assert!(
        rolled.report.total_seconds < restarted.report.total_seconds,
        "rollback {} s vs restart {} s",
        rolled.report.total_seconds,
        restarted.report.total_seconds
    );
}

/// A frontier-bitmap flip that *erases* a real frontier vertex, rather
/// than adding a ghost one, is caught at the next level boundary and
/// repaired by one rollback, so the cross rung still serves the query.
#[test]
fn erased_frontier_vertex_is_detected_and_repaired_on_the_cross_rung() {
    let (g, src, ..) = fixture();
    // Word 11, bit 18 addresses vertex 11 * 32 + 18 = 370, which level 0
    // discovers: the flip after the level-0 kernel erases it from the
    // level-1 frontier.
    let clean = hybrid::run(&g, src, &mut AlwaysTopDown);
    assert_eq!(
        clean.output.levels[370], 1,
        "fixture must put 370 on level 1"
    );
    let plan = FaultPlan {
        scheduled: vec![ScheduledFault {
            op: FaultOp::CpuKernel,
            level: 0,
            kind: FaultKind::BitFlip {
                payload: CorruptPayload::Bitmap,
                word: 11,
                bit: 18,
            },
        }],
        ..FaultPlan::none()
    };
    let config = ResilienceConfig {
        checkpoint: CheckpointPolicy::every(1),
        scrub: ScrubPolicy::every_level(),
        ..ResilienceConfig::default_runtime()
    };
    let run = run_with(&g, src, &plan, &config).expect("the repaired run serves");
    assert_eq!(validate(&g, &run.output), Ok(()));
    assert!(run
        .report
        .events
        .iter()
        .any(|e| matches!(e.kind, FaultKind::BitFlip { .. })));
    assert_eq!(run.report.corruption_detected, 1);
    assert_eq!(run.report.corruption_repairs, 1);
    assert_eq!(run.report.rung, Rung::CrossCpuGpu);
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(12))]

    /// Contract (c): the default config IS the opt-out — `ScrubPolicy::Off`
    /// plus unchecksummed transfers — so a defended build changes nothing
    /// until a flag turns it on: report and trace are byte-identical for
    /// any seeded fail-stop chaos plan.
    #[test]
    fn disabled_defense_is_byte_identical(seed in 0u64..64) {
        let (g, src, cpu, gpu, link, params) = fixture();
        let plan = FaultPlan {
            seed,
            p_transfer_failure: 0.3,
            p_link_stall: 0.2,
            stall_factor: 4.0,
            p_kernel_timeout: 0.15,
            p_device_lost: 0.1,
            scheduled: Vec::new(),
        };
        let explicit_off = ResilienceConfig {
            checkpoint: CheckpointPolicy::every(2),
            scrub: ScrubPolicy::Off,
            checksum_transfers: false,
            ..ResilienceConfig::default_runtime()
        };
        let default = ResilienceConfig {
            checkpoint: CheckpointPolicy::every(2),
            ..ResilienceConfig::default_runtime()
        };

        let run = |config: &ResilienceConfig, sink: &MemorySink| {
            RunSession::on_platform(&g, &cpu, &gpu, &link, &params)
                .source(src)
                .fault_plan(&plan)
                .resilience(config.clone())
                .sink(sink)
                .run()
                .expect("no-deadline chaos always serves")
        };
        let sink_a = MemorySink::new();
        let a = run(&default, &sink_a);
        let sink_b = MemorySink::new();
        let b = run(&explicit_off, &sink_b);

        prop_assert_eq!(&a.output, &b.output);
        prop_assert_eq!(a.report.to_json(), b.report.to_json());
        prop_assert_eq!(
            chrome_trace_json(&sink_a.take()),
            chrome_trace_json(&sink_b.take())
        );
        prop_assert_eq!(a.report.corruption_detected, 0);
        prop_assert_eq!(a.report.corruption_repairs, 0);
    }
}
