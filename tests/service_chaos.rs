//! Service-level chaos: the committed `tests/chaos/*.json` corpus replayed
//! through the concurrent query service. The contract: every scheduled
//! query ends in exactly one of a Graph 500-validated tree, a typed
//! `XbfsError`, or an explicit shed — never a panic and never a hang (a
//! watchdog bounds every schedule) — and one query's faults never perturb
//! its in-flight neighbors.
//!
//! The overload acceptance scenario is pinned exactly: with k queries
//! arriving together, a device-lost plan degrades only its own query down
//! the recovery ladder, an absurd deadline yields a typed deadline error,
//! an arrival past the admission bound is shed with a typed `Overloaded`
//! carrying queue context, and the healthy neighbors' outputs and reports
//! are bit-identical to their solo runs.

use std::sync::mpsc::RecvTimeoutError;
use std::sync::Arc;
use std::time::Duration;

use xbfs::archsim::fault::FaultPlan;
use xbfs::archsim::{ArchSpec, Link};
use xbfs::core::checkpoint::CheckpointPolicy;
use xbfs::core::health::Device;
use xbfs::core::recovery::{ResilienceConfig, Rung};
use xbfs::core::{
    prometheus_text, service_chrome_trace_json, CrossParams, Disposition, DrainMode, QueryRequest,
    QueryService, RunSession, ScheduleItem, ServiceConfig, ServiceReport,
};
use xbfs::engine::{validate, FixedMN, ScrubPolicy, XbfsError};
use xbfs::graph::Csr;

/// Wall-clock bound on one service schedule. Simulated time is
/// milliseconds; anything near this is a hang, not a slow run.
const WATCHDOG_SECS: u64 = 120;

fn chaos_plans() -> Vec<(String, FaultPlan)> {
    let dir = std::path::Path::new(env!("CARGO_MANIFEST_DIR"))
        .join("tests")
        .join("chaos");
    let mut files: Vec<_> = std::fs::read_dir(&dir)
        .unwrap_or_else(|e| panic!("chaos corpus dir {}: {e}", dir.display()))
        .map(|entry| entry.expect("readable dir entry").path())
        .filter(|p| p.extension().is_some_and(|e| e == "json"))
        .collect();
    files.sort();
    files
        .iter()
        .map(|path| {
            let name = path.file_name().unwrap().to_string_lossy().into_owned();
            let text = std::fs::read_to_string(path)
                .unwrap_or_else(|e| panic!("{name}: unreadable plan: {e}"));
            let plan = FaultPlan::from_json(&text)
                .unwrap_or_else(|e| panic!("{name}: plan does not parse: {e}"));
            (name, plan)
        })
        .collect()
}

fn platform() -> (ArchSpec, ArchSpec, Link, CrossParams) {
    (
        ArchSpec::cpu_sandy_bridge(),
        ArchSpec::gpu_k20x(),
        Link::pcie3(),
        CrossParams {
            handoff: FixedMN::new(64.0, 64.0),
            gpu: FixedMN::new(14.0, 24.0),
        },
    )
}

fn resilience() -> ResilienceConfig {
    ResilienceConfig {
        checkpoint: CheckpointPolicy::every(2),
        ..ResilienceConfig::default_runtime()
    }
}

fn service(g: Arc<Csr>, config: ServiceConfig) -> QueryService {
    let (cpu, gpu, link, params) = platform();
    QueryService::new(g, cpu, gpu, link, params, config)
}

/// Run `f` on its own thread and fail loudly if it neither returns nor
/// panics within the watchdog — a hung service run must be a test failure,
/// not a CI timeout.
fn with_watchdog<T: Send + 'static>(f: impl FnOnce() -> T + Send + 'static) -> T {
    let (tx, rx) = std::sync::mpsc::channel();
    let handle = std::thread::spawn(move || {
        let _ = tx.send(f());
    });
    match rx.recv_timeout(Duration::from_secs(WATCHDOG_SECS)) {
        Ok(v) => {
            handle.join().expect("service thread exited cleanly");
            v
        }
        Err(RecvTimeoutError::Disconnected) => match handle.join() {
            Err(panic) => std::panic::resume_unwind(panic),
            Ok(()) => unreachable!("sender dropped without a panic"),
        },
        Err(RecvTimeoutError::Timeout) => {
            panic!("service schedule exceeded the {WATCHDOG_SECS}s watchdog — hang")
        }
    }
}

/// A solo (service-free) run of the same request under the same
/// resilience config — the isolation baseline.
fn solo(g: &Csr, source: u32, plan: &FaultPlan) -> xbfs::core::RecoveredRun {
    solo_with(g, source, plan, resilience())
}

fn solo_with(
    g: &Csr,
    source: u32,
    plan: &FaultPlan,
    config: ResilienceConfig,
) -> xbfs::core::RecoveredRun {
    let (cpu, gpu, link, params) = platform();
    RunSession::on_platform(g, &cpu, &gpu, &link, &params)
        .source(source)
        .fault_plan(plan)
        .resilience(config)
        .run()
        .expect("no-deadline solo run always serves")
}

/// Every query in `report` ended in a tree, a typed error, or a shed; all
/// trees validate.
fn assert_all_terminal(g: &Csr, report: &ServiceReport) {
    for o in &report.outcomes {
        match &o.disposition {
            Disposition::Served { .. } => {
                let run = o.run.as_ref().unwrap_or_else(|| {
                    panic!("query {}: served without a run", o.id);
                });
                assert_eq!(
                    validate(g, &run.output),
                    Ok(()),
                    "query {}: rung {} emitted an invalid tree",
                    o.id,
                    run.report.rung
                );
            }
            Disposition::ShedOverloaded
            | Disposition::ShedShutdown
            | Disposition::DeadlineMissed
            | Disposition::Failed => {
                assert!(
                    o.error.is_some(),
                    "query {}: non-served outcome must carry a typed error",
                    o.id
                );
            }
        }
    }
    let terminal = report.served
        + report.degraded
        + report.shed_overloaded
        + report.shed_shutdown
        + report.deadline_missed
        + report.failed;
    assert_eq!(
        terminal,
        report.outcomes.len() as u32,
        "every query reaches exactly one terminal state"
    );
}

/// The whole committed corpus, one plan per query, all arriving in one
/// burst against a bounded service: no panic, no hang, every query
/// terminal, and the replay is deterministic.
#[test]
fn chaos_corpus_replays_concurrently_through_the_service() {
    let g = Arc::new(xbfs::graph::rmat::rmat_csr(10, 16));
    let src = xbfs::core::training::pick_source(&g, 3).expect("non-empty graph");
    let plans = chaos_plans();
    assert!(plans.len() >= 14, "corpus shrank to {}", plans.len());

    let schedule: Vec<ScheduleItem> = plans
        .iter()
        .enumerate()
        .map(|(i, (_, plan))| {
            let mut req = QueryRequest::builder(i as u64, src)
                .arrival(1e-4 * i as f64)
                .build();
            req.fault_plan = Some(plan.clone());
            ScheduleItem::Query(req)
        })
        .collect();
    let config = ServiceConfig {
        capacity: 4,
        queue_limit: plans.len() as u32,
        resilience: resilience(),
        keep_query_traces: true,
        ..ServiceConfig::default()
    };

    let svc = service(g.clone(), config);
    let schedule2 = schedule.clone();
    let (report, replay_json) = with_watchdog(move || {
        let report = svc.run_schedule(&schedule2).expect("schedule runs");
        let replay = svc.run_schedule(&schedule2).expect("replay runs");
        (report, replay.to_json())
    });

    assert_all_terminal(&g, &report);
    assert_eq!(report.admitted, plans.len() as u32, "burst fits the queue");
    assert_eq!(report.shed_overloaded, 0);
    assert_eq!(
        report.to_json(),
        replay_json,
        "same schedule, same service — the replay must be byte-identical"
    );

    // The report's registry and the kept traces drive both exporters
    // without panicking, and the service families show up in the scrape.
    let prom = report.metrics.render();
    assert_eq!(
        prom,
        prometheus_text(&report.merged_events()),
        "with every trace kept, the registry equals the merged-event fold"
    );
    for family in [
        "xbfs_service_admitted_total",
        "xbfs_service_queries_total",
        "xbfs_levels_total",
    ] {
        assert!(prom.contains(family), "missing {family} in scrape");
    }
    let trace = service_chrome_trace_json(&report.events, &report.query_traces);
    let doc: serde_json::Value = serde_json::from_str(&trace).expect("valid trace JSON");
    assert!(doc.get("traceEvents").and_then(|v| v.as_array()).is_some());
}

/// The pinned acceptance scenario: concurrent queries where one loses a
/// device, one blows its deadline, one is shed by admission control — and
/// the healthy neighbors are bit-identical to their solo runs.
#[test]
fn faulty_queries_degrade_alone_while_neighbors_match_their_solo_runs() {
    let g = Arc::new(xbfs::graph::rmat::rmat_csr(10, 16));
    let healthy_src = xbfs::core::training::pick_source(&g, 3).expect("non-empty graph");
    let other_src = xbfs::core::training::pick_source(&g, 7).expect("non-empty graph");
    let gpu_lost = chaos_plans()
        .into_iter()
        .find(|(name, _)| name.starts_with("02-"))
        .expect("gpu-lost plan committed")
        .1;

    // Query 0: loses its GPU and must degrade down the ladder.
    let mut lost_query = QueryRequest::builder(0, healthy_src).arrival(0.0).build();
    lost_query.fault_plan = Some(gpu_lost.clone());
    // Query 1: a deadline no traversal can meet — typed error, not a panic.
    let mut doomed = QueryRequest::builder(1, other_src).arrival(0.0).build();
    doomed.deadline_s = Some(1e-12);
    // Queries 2 and 3: healthy neighbors, in flight while 0 and 1 fail.
    let schedule = vec![
        ScheduleItem::Query(lost_query),
        ScheduleItem::Query(doomed),
        ScheduleItem::Query(QueryRequest::builder(2, healthy_src).arrival(0.0).build()),
        ScheduleItem::Query(QueryRequest::builder(3, other_src).arrival(0.0).build()),
        // Query 4: one arrival past capacity with a zero-depth queue.
        ScheduleItem::Query(QueryRequest::builder(4, healthy_src).arrival(0.0).build()),
    ];
    let config = ServiceConfig {
        capacity: 4,
        queue_limit: 0,
        resilience: resilience(),
        ..ServiceConfig::default()
    };

    let svc = service(g.clone(), config);
    let report = with_watchdog(move || svc.run_schedule(&schedule).expect("schedule runs"));
    assert_all_terminal(&g, &report);

    // The device-lost query degraded down the ladder — alone.
    let degraded = report.outcome(0).unwrap();
    assert_eq!(degraded.disposition, Disposition::Served { degraded: true });
    let degraded_run = degraded.run.as_ref().unwrap();
    assert_ne!(degraded_run.report.rung, Rung::CrossCpuGpu);
    // Started with an empty loss ledger, so it must equal its solo run.
    let solo_lost = solo(&g, healthy_src, &gpu_lost);
    assert_eq!(degraded_run.output, solo_lost.output);
    assert_eq!(degraded_run.report, solo_lost.report);

    // The doomed query failed with the typed deadline error.
    let missed = report.outcome(1).unwrap();
    assert_eq!(missed.disposition, Disposition::DeadlineMissed);
    assert!(matches!(
        missed.error,
        Some(XbfsError::DeadlineExceeded { .. })
    ));

    // The overflow arrival was shed with queue context, not an exception.
    let shed = report.outcome(4).unwrap();
    assert_eq!(shed.disposition, Disposition::ShedOverloaded);
    assert_eq!(
        shed.error,
        Some(XbfsError::Overloaded {
            queue_depth: 0,
            queue_limit: 0
        })
    );
    assert!(shed.run.is_none(), "a shed query never runs");

    // The healthy neighbors are untouched: same output, same report as
    // their solo runs, served on the top rung.
    for (id, src) in [(2u64, healthy_src), (3u64, other_src)] {
        let o = report.outcome(id).unwrap();
        assert_eq!(
            o.disposition,
            Disposition::Served { degraded: false },
            "healthy query {id} must serve on the top rung"
        );
        let run = o.run.as_ref().unwrap();
        let baseline = solo(&g, src, &FaultPlan::none());
        assert_eq!(run.output, baseline.output, "query {id}: output diverged");
        assert_eq!(run.report, baseline.report, "query {id}: report diverged");
    }

    // The loss was promoted to the service-wide ledger at completion.
    assert!(
        report.lost_devices.iter().any(|(d, _)| *d == Device::Gpu),
        "gpu loss missing from the shared ledger: {:?}",
        report.lost_devices
    );
}

/// Corruption isolation, k=4: two queries carry bit-flip plans while two
/// healthy neighbors run in flight. The flipped queries are detected,
/// repaired in-rung, and served validated; the neighbors are bit-identical
/// to their solo runs with zero corruption on the books.
#[test]
fn bit_flipped_queries_repair_alone_while_neighbors_match_their_solo_runs() {
    let g = Arc::new(xbfs::graph::rmat::rmat_csr(10, 16));
    let healthy_src = xbfs::core::training::pick_source(&g, 3).expect("non-empty graph");
    let other_src = xbfs::core::training::pick_source(&g, 7).expect("non-empty graph");
    let plans = chaos_plans();
    let frontier_flip = plans
        .iter()
        .find(|(name, _)| name.starts_with("13-"))
        .expect("bit-flip plan committed")
        .1
        .clone();
    let storm = plans
        .iter()
        .find(|(name, _)| name.starts_with("14-"))
        .expect("bit-flip storm committed")
        .1
        .clone();
    let scrubbed = ResilienceConfig {
        checkpoint: CheckpointPolicy::every(2),
        scrub: ScrubPolicy::every_level(),
        checksum_transfers: true,
        ..ResilienceConfig::default_runtime()
    };

    let mut flipped = QueryRequest::builder(0, healthy_src).arrival(0.0).build();
    flipped.fault_plan = Some(frontier_flip.clone());
    let mut stormy = QueryRequest::builder(1, other_src).arrival(0.0).build();
    stormy.fault_plan = Some(storm.clone());
    let schedule = vec![
        ScheduleItem::Query(flipped),
        ScheduleItem::Query(stormy),
        ScheduleItem::Query(QueryRequest::builder(2, healthy_src).arrival(0.0).build()),
        ScheduleItem::Query(QueryRequest::builder(3, other_src).arrival(0.0).build()),
    ];
    let config = ServiceConfig {
        capacity: 4,
        queue_limit: 4,
        resilience: scrubbed.clone(),
        ..ServiceConfig::default()
    };

    let svc = service(g.clone(), config);
    let report = with_watchdog(move || svc.run_schedule(&schedule).expect("schedule runs"));
    assert_all_terminal(&g, &report);

    // Both corrupted queries were caught mid-run and still served a
    // validated tree — matching their solo replays byte for byte.
    for (id, src, plan) in [
        (0u64, healthy_src, &frontier_flip),
        (1u64, other_src, &storm),
    ] {
        let o = report.outcome(id).unwrap();
        let run = o
            .run
            .as_ref()
            .unwrap_or_else(|| panic!("query {id} must serve, got {:?}", o.disposition));
        assert_eq!(validate(&g, &run.output), Ok(()));
        assert!(
            run.report.corruption_detected >= 1,
            "query {id}: the flip went unnoticed: {:?}",
            run.report
        );
        let baseline = solo_with(&g, src, plan, scrubbed.clone());
        assert_eq!(run.output, baseline.output, "query {id}: output diverged");
        assert_eq!(run.report, baseline.report, "query {id}: report diverged");
    }

    // The healthy neighbors never saw a flip: zero corruption counters and
    // solo-identical results.
    for (id, src) in [(2u64, healthy_src), (3u64, other_src)] {
        let o = report.outcome(id).unwrap();
        assert_eq!(
            o.disposition,
            Disposition::Served { degraded: false },
            "healthy query {id} must serve on the top rung"
        );
        let run = o.run.as_ref().unwrap();
        assert_eq!(run.report.corruption_detected, 0, "query {id}");
        assert_eq!(run.report.corruption_repairs, 0, "query {id}");
        let baseline = solo_with(&g, src, &FaultPlan::none(), scrubbed.clone());
        assert_eq!(run.output, baseline.output, "query {id}: output diverged");
        assert_eq!(run.report, baseline.report, "query {id}: report diverged");
    }
}

/// A permanent loss discovered by an early query makes later queries skip
/// the dead device's rungs instead of rediscovering the loss.
#[test]
fn shared_breakers_propagate_permanent_losses_to_later_queries() {
    let g = Arc::new(xbfs::graph::rmat::rmat_csr(10, 16));
    let src = xbfs::core::training::pick_source(&g, 3).expect("non-empty graph");
    let gpu_lost = chaos_plans()
        .into_iter()
        .find(|(name, _)| name.starts_with("02-"))
        .expect("gpu-lost plan committed")
        .1;
    // Learn the loser's completion time from its solo run, then schedule
    // the follower safely after it.
    let solo_lost = solo(&g, src, &gpu_lost);
    let after_s = solo_lost.report.total_seconds * 2.0 + 1.0;

    let mut loser = QueryRequest::builder(0, src).arrival(0.0).build();
    loser.fault_plan = Some(gpu_lost);
    let schedule = vec![
        ScheduleItem::Query(loser),
        ScheduleItem::Query(QueryRequest::builder(1, src).arrival(after_s).build()),
    ];
    let config = ServiceConfig {
        capacity: 2,
        resilience: resilience(),
        ..ServiceConfig::default()
    };

    let svc = service(g.clone(), config);
    let report = with_watchdog(move || svc.run_schedule(&schedule).expect("schedule runs"));
    assert_all_terminal(&g, &report);

    let follower = report.outcome(1).unwrap().run.as_ref().unwrap();
    assert!(
        follower.report.skipped_rungs.contains(&Rung::CrossCpuGpu),
        "follower must skip the rung needing the lost gpu, got {:?}",
        follower.report
    );
    // The presumed loss shows up as a t=0 breaker transition in the
    // follower's own report, so its trace explains the skip.
    assert!(follower
        .report
        .breaker_transitions
        .iter()
        .any(|t| t.device == Device::Gpu && t.at_s == 0.0));
    assert_eq!(validate(&g, &follower.output), Ok(()));
}

/// Drain semantics: arrivals after the marker are refused; queued queries
/// finish under `Complete` and are shed under `Cancel`; running queries
/// always complete.
#[test]
fn drain_completes_or_cancels_queued_queries_and_refuses_late_arrivals() {
    let g = Arc::new(xbfs::graph::rmat::rmat_csr(10, 16));
    let src = xbfs::core::training::pick_source(&g, 3).expect("non-empty graph");
    let schedule = |n: u64| -> Vec<ScheduleItem> {
        let mut items: Vec<ScheduleItem> = (0..n)
            .map(|i| ScheduleItem::Query(QueryRequest::builder(i, src).arrival(0.0).build()))
            .collect();
        // Drain lands while the queue is still full (simulated durations
        // are far above 1 ns), then one more query arrives after it.
        items.push(ScheduleItem::Drain { at_s: 1e-9 });
        items.push(ScheduleItem::Query(
            QueryRequest::builder(n, src).arrival(1e-6).build(),
        ));
        items
    };

    for (mode, expect_shed_queued) in [(DrainMode::Complete, false), (DrainMode::Cancel, true)] {
        let config = ServiceConfig {
            capacity: 1,
            queue_limit: 3,
            resilience: resilience(),
            drain: mode,
            ..ServiceConfig::default()
        };
        let svc = service(g.clone(), config);
        let items = schedule(4);
        let report = with_watchdog(move || svc.run_schedule(&items).expect("schedule runs"));
        assert_all_terminal(&g, &report);

        // The late arrival is always refused.
        let late = report.outcome(4).unwrap();
        assert_eq!(late.disposition, Disposition::ShedShutdown, "{mode:?}");
        assert_eq!(late.error, Some(XbfsError::ShuttingDown), "{mode:?}");
        // The running query always completes.
        assert!(
            matches!(
                report.outcome(0).unwrap().disposition,
                Disposition::Served { .. }
            ),
            "{mode:?}: the in-flight query must finish"
        );
        if expect_shed_queued {
            // Cancel: the three queued queries are shed at the marker.
            assert_eq!(report.shed_shutdown, 4, "{mode:?}");
            assert_eq!(report.served, 1, "{mode:?}");
        } else {
            // Complete: everything admitted still serves.
            assert_eq!(report.shed_shutdown, 1, "{mode:?}");
            assert_eq!(report.served, 4, "{mode:?}");
        }
    }
}
