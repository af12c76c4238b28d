//! Golden digests of the recovery ladder: every rung, checkpoint resumes
//! and every batch shape, pinned byte for byte.
//!
//! Each case runs traversals into a `MemorySink` and folds what they
//! produce into FNV-1a digests: the report JSON (or the typed error), the
//! chrome trace, the Prometheus text, the output maps and the online
//! bandit's observations. Each chrome trace must also reprint byte for
//! byte through `from_str::<Value>` and `to_string_pretty`: the exporter
//! writes its records straight into text, in exactly the vendored
//! `serde_json`'s pretty format. `tests/golden/ladder.digests` holds one line
//! per case. The cases, each on an R-MAT and a road-like graph:
//!
//! * every committed chaos plan × four resilience configurations (a
//!   checkpoint every 2 levels; that plus a scrub every level and transfer
//!   checksums; no checkpoints; a 4 ms deadline with a checkpoint every
//!   level) × the offline and the online policy;
//! * `capture_at`, then `resume`, on every rung at levels 1–4 under two
//!   fault seeds;
//! * `BatchSession` with 1, 2 and 6 lanes, with and without a policy;
//! * the cross rung's `capture_at` and `resume` again with transfer
//!   checksums on, under the same two seeds and fault-free (last, so
//!   that adding them moved no earlier line).
//!
//! The test also asserts that the cases reach every rung, a resume, a
//! typed error and both corruption detectors, so the golden file can
//! never silently stop covering one. Regenerate it with
//! `UPDATE_GOLDEN=1 cargo test -q --test ladder_golden` only when a
//! behaviour change is intended.

use std::cell::RefCell;
use std::path::{Path, PathBuf};

use xbfs::archsim::fault::FaultPlan;
use xbfs::archsim::{ArchSpec, Link};
use xbfs::core::checkpoint::{capture_at, CheckpointPolicy};
use xbfs::core::policy_online::{OnlineBandit, PolicyCell, PolicyRun};
use xbfs::core::recovery::{RecoveredRun, ResilienceConfig, Rung};
use xbfs::core::{chrome_trace_json, prometheus_text, BatchSession, CrossParams, RunSession};
use xbfs::engine::{BfsOutput, Direction, FixedMN, MemorySink, ScrubPolicy, TraceEvent, XbfsError};
use xbfs::graph::Csr;

/// 64-bit FNV-1a.
fn fnv1a(bytes: &[u8]) -> u64 {
    bytes.iter().fold(0xcbf2_9ce4_8422_2325, |h, &b| {
        (h ^ u64::from(b)).wrapping_mul(0x0000_0100_0000_01b3)
    })
}

fn digest(text: &str) -> String {
    format!("{:016x}", fnv1a(text.as_bytes()))
}

/// The chrome trace of case `name`, checked to reprint byte for byte
/// through the `Value` tree.
fn chrome_text(name: &str, events: &[TraceEvent]) -> String {
    let text = chrome_trace_json(events);
    let value: serde_json::Value = serde_json::from_str(&text)
        .unwrap_or_else(|e| panic!("{name}: the chrome trace is not JSON: {e:?}"));
    assert!(
        serde_json::to_string_pretty(&value).expect("a Value serializes") == text,
        "{name}: the chrome trace differs from the vendored pretty format"
    );
    text
}

fn maps_text(output: &BfsOutput) -> String {
    format!("{}:{:?}:{:?}", output.source, output.parents, output.levels)
}

/// What the coverage asserts count across all cases.
#[derive(Default)]
struct Reached {
    served: Vec<Rung>,
    errors: usize,
    resumed: usize,
    checksum_hits: usize,
    scrub_hits: usize,
    policy_decisions: usize,
    cpu_bottom_up_decisions: usize,
}

impl Reached {
    fn note_events(&mut self, events: &[TraceEvent]) {
        for e in events {
            match e {
                TraceEvent::CorruptionDetected { detector, .. } => match *detector {
                    "checksum" => self.checksum_hits += 1,
                    _ => self.scrub_hits += 1,
                },
                TraceEvent::PolicyDecision {
                    device, direction, ..
                } => {
                    self.policy_decisions += 1;
                    if *device == "cpu" && *direction == Direction::BottomUp {
                        self.cpu_bottom_up_decisions += 1;
                    }
                }
                _ => {}
            }
        }
    }
}

/// One golden line: the case name, the outcome, then a digest per export.
fn run_line(
    name: &str,
    result: &Result<RecoveredRun, XbfsError>,
    sink: &MemorySink,
    cell: Option<&PolicyCell>,
    reached: &mut Reached,
) -> String {
    let events = sink.events();
    reached.note_events(&events);
    let (outcome, report, maps) = match result {
        Ok(run) => {
            reached.served.push(run.report.rung);
            if !run.report.resumes.is_empty() {
                reached.resumed += 1;
            }
            (
                format!("{:?}", run.report.rung),
                run.report.to_json(),
                maps_text(&run.output),
            )
        }
        Err(e) => {
            reached.errors += 1;
            ("error".to_string(), format!("{e:?}"), String::new())
        }
    };
    let observations = cell.map_or_else(String::new, |c| {
        serde_json::to_string(c.borrow().observations()).expect("observations serialize")
    });
    format!(
        "{name} {outcome} report={} trace={} prom={} maps={} obs={}",
        digest(&report),
        digest(&chrome_text(name, &events)),
        digest(&prometheus_text(&events)),
        digest(&maps),
        digest(&observations),
    )
}

struct Platform {
    cpu: ArchSpec,
    gpu: ArchSpec,
    link: Link,
    params: CrossParams,
}

fn platform() -> Platform {
    Platform {
        cpu: ArchSpec::cpu_sandy_bridge(),
        gpu: ArchSpec::gpu_k20x(),
        link: Link::pcie3(),
        params: CrossParams {
            handoff: FixedMN::new(64.0, 64.0),
            gpu: FixedMN::new(14.0, 24.0),
        },
    }
}

fn graphs() -> Vec<(&'static str, Csr)> {
    vec![
        ("rmat10", xbfs::graph::rmat::rmat_csr(10, 16)),
        ("road24", xbfs::graph::gen::road_like(24, 24, 24, 1)),
    ]
}

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

fn configs() -> Vec<(&'static str, ResilienceConfig)> {
    let base = ResilienceConfig::default_runtime();
    vec![
        (
            "ck2",
            ResilienceConfig {
                checkpoint: CheckpointPolicy::every(2),
                ..base.clone()
            },
        ),
        (
            "ck2-scrub-sum",
            ResilienceConfig {
                checkpoint: CheckpointPolicy::every(2),
                scrub: ScrubPolicy::every_level(),
                checksum_transfers: true,
                ..base.clone()
            },
        ),
        (
            "nock",
            ResilienceConfig {
                checkpoint: CheckpointPolicy::disabled(),
                ..base.clone()
            },
        ),
        (
            "dl4ms-ck1",
            ResilienceConfig {
                checkpoint: CheckpointPolicy::every(1),
                deadline_s: Some(0.004),
                ..base
            },
        ),
    ]
}

/// An online policy that has already learned from two fault-free runs
/// from `src`, so the measured runs also take the bandit's exploring and
/// greedy arms, not only the offline arm every bin plays first.
fn warm_policy_cell(g: &Csr, src: u32, p: &Platform) -> PolicyCell {
    let cell = RefCell::new(PolicyRun::new(OnlineBandit::new(7)));
    for _ in 0..2 {
        RunSession::on_platform(g, &p.cpu, &p.gpu, &p.link, &p.params)
            .source(src)
            .policy(&cell)
            .run()
            .expect("a fault-free warm-up serves");
    }
    cell
}

fn chaos_lines(reached: &mut Reached) -> Vec<String> {
    let p = platform();
    let mut lines = Vec::new();
    for (gname, g) in graphs() {
        let src = xbfs::core::training::pick_source(&g, 3).expect("non-empty graph");
        for (pname, plan) in chaos_plans() {
            for (cname, config) in configs() {
                for online in [false, true] {
                    let sink = MemorySink::new();
                    let cell = warm_policy_cell(&g, src, &p);
                    let mut session =
                        RunSession::on_platform(&g, &p.cpu, &p.gpu, &p.link, &p.params)
                            .source(src)
                            .fault_plan(&plan)
                            .resilience(config.clone())
                            .sink(&sink);
                    if online {
                        session = session.policy(&cell);
                    }
                    let result = session.run();
                    let name = format!(
                        "chaos/{gname}/{pname}/{cname}/{}",
                        if online { "online" } else { "offline" }
                    );
                    lines.push(run_line(
                        &name,
                        &result,
                        &sink,
                        online.then_some(&cell),
                        reached,
                    ));
                }
            }
        }
    }
    lines
}

/// The committed moderate chaos plan 08 under fault seeds 0 and 5, named
/// `s0` and `s5`.
fn moderate_plans() -> Vec<(String, FaultPlan)> {
    let moderate = chaos_plans()
        .into_iter()
        .find(|(name, _)| name == "08")
        .expect("plan 08 is committed")
        .1;
    [0, 5]
        .into_iter()
        .map(|seed| {
            let plan = FaultPlan {
                seed,
                ..moderate.clone()
            };
            (format!("s{seed}"), plan)
        })
        .collect()
}

/// `capture_at`, then `resume`, under `config` on each of `rungs` and
/// each of `plans`, with lines named `{label}/{graph}/{rung}/l{level}/{plan}`.
fn resume_lines(
    reached: &mut Reached,
    label: &str,
    config: &ResilienceConfig,
    rungs: &[Rung],
    plans: &[(String, FaultPlan)],
) -> Vec<String> {
    let p = platform();
    let mut lines = Vec::new();
    for (gname, g) in graphs() {
        let src = xbfs::core::training::pick_source(&g, 3).expect("non-empty graph");
        for &rung in rungs {
            for level in 1..=4 {
                for (pname, plan) in plans {
                    let name = format!("{label}/{gname}/{}/l{level}/{pname}", rung.label());
                    let ck = match capture_at(
                        &g, src, &p.cpu, &p.gpu, &p.link, &p.params, plan, config, rung, level,
                    ) {
                        Ok(ck) => ck,
                        Err(e) => {
                            reached.errors += 1;
                            lines.push(format!(
                                "{name} capture-error {}",
                                digest(&format!("{e:?}"))
                            ));
                            continue;
                        }
                    };
                    let sink = MemorySink::new();
                    let result = RunSession::on_platform(&g, &p.cpu, &p.gpu, &p.link, &p.params)
                        .fault_plan(plan)
                        .resilience(config.clone())
                        .sink(&sink)
                        .resume(&ck);
                    let line = run_line(&name, &result, &sink, None, reached);
                    lines.push(format!("{line} ck={}", digest(&ck.to_json())));
                }
            }
        }
    }
    lines
}

fn batch_lines(reached: &mut Reached) -> Vec<String> {
    let p = platform();
    let mut lines = Vec::new();
    for (gname, g) in graphs() {
        let sources: Vec<u32> = (0..6)
            .map(|seed| xbfs::core::training::pick_source(&g, seed).expect("non-empty graph"))
            .collect();
        for lanes in [1usize, 2, 6] {
            for online in [false, true] {
                let sink = MemorySink::new();
                let cell = warm_policy_cell(&g, sources[0], &p);
                let mut session = BatchSession::on_platform(&g, &p.cpu, &p.gpu, &p.link, &p.params)
                    .sources(&sources[..lanes])
                    .window(3)
                    .sink(&sink);
                if online {
                    session = session.policy(&cell);
                }
                let name = format!(
                    "batch/{gname}/lanes{lanes}/{}",
                    if online { "online" } else { "offline" }
                );
                let batch = session.run().expect("a fault-free batch serves");
                let events = sink.events();
                reached.note_events(&events);
                let mut report = format!("{}:{}", batch.rounds, batch.total_seconds.to_bits());
                let mut maps = String::new();
                for lane in &batch.lanes {
                    report.push_str(&lane.run.report.to_json());
                    maps.push_str(&maps_text(&lane.run.output));
                }
                let observations = if online {
                    serde_json::to_string(cell.borrow().observations()).expect("serializes")
                } else {
                    String::new()
                };
                lines.push(format!(
                    "{name} lanes={} report={} trace={} prom={} maps={} obs={}",
                    batch.lanes.len(),
                    digest(&report),
                    digest(&chrome_text(&name, &events)),
                    digest(&prometheus_text(&events)),
                    digest(&maps),
                    digest(&observations),
                ));
            }
        }
    }
    lines
}

#[test]
fn ladder_digests_match_the_golden_file() {
    let mut reached = Reached::default();
    let ck2 = ResilienceConfig {
        checkpoint: CheckpointPolicy::every(2),
        ..ResilienceConfig::default_runtime()
    };
    let ck2_sum = ResilienceConfig {
        checksum_transfers: true,
        ..ck2.clone()
    };
    let all_rungs = [Rung::CrossCpuGpu, Rung::CpuOnly, Rung::Reference];
    let moderate = moderate_plans();
    let mut lines = chaos_lines(&mut reached);
    lines.extend(resume_lines(
        &mut reached,
        "resume",
        &ck2,
        &all_rungs,
        &moderate,
    ));
    lines.extend(batch_lines(&mut reached));
    // Plan 08 faults most cross prefixes past the handoff, so the
    // checksummed cases also capture and resume fault-free.
    let mut with_clean = moderate;
    with_clean.push(("clean".to_string(), FaultPlan::none()));
    lines.extend(resume_lines(
        &mut reached,
        "resume-sum",
        &ck2_sum,
        &[Rung::CrossCpuGpu],
        &with_clean,
    ));
    let text = lines.join("\n") + "\n";

    // The cases must keep reaching every branch the file pins.
    for rung in [Rung::CrossCpuGpu, Rung::CpuOnly, Rung::Reference] {
        assert!(reached.served.contains(&rung), "no case served on {rung}");
    }
    assert!(reached.errors > 0, "no case ended in a typed error");
    assert!(reached.resumed > 0, "no case resumed from a checkpoint");
    assert!(reached.checksum_hits > 0, "no checksum detection");
    assert!(reached.scrub_hits > 0, "no scrub detection");
    assert!(reached.policy_decisions > 0, "no online policy decision");
    assert!(
        reached.cpu_bottom_up_decisions > 0,
        "the policy never placed a level bottom-up on the CPU"
    );

    let path = Path::new(env!("CARGO_MANIFEST_DIR"))
        .join("tests")
        .join("golden")
        .join("ladder.digests");
    if std::env::var_os("UPDATE_GOLDEN").is_some() {
        std::fs::write(&path, &text).unwrap();
    }
    let golden = std::fs::read_to_string(&path).unwrap_or_else(|_| {
        panic!(
            "{} missing — run with UPDATE_GOLDEN=1 to create it",
            path.display()
        )
    });
    let drifted: Vec<&str> = text
        .lines()
        .zip(golden.lines())
        .filter(|(now, pinned)| now != pinned)
        .map(|(now, _)| now)
        .collect();
    assert!(
        text == golden,
        "{} drifted from the golden file ({} of {} lines differ, first: {:?}); \
         rerun with UPDATE_GOLDEN=1 if the change is intentional",
        path.display(),
        drifted.len(),
        lines.len(),
        drifted.first()
    );
}
