//! Golden service outputs: seeded `run_schedule` replays whose every
//! export is byte-compared against `tests/golden/service_*`.
//!
//! The two schedules together reach every dispatch branch of the query
//! service: solo starts at arrival and from the queue, multi-lane batches,
//! a queued-deadline shed inside a batch pop that leaves a one-lane
//! remainder (and one that leaves no lane at all), a per-lane deadline
//! miss at batch completion, a base deadline aborting both a solo run and
//! a batch, a permanent device loss promoted to the shared ledger and
//! presumed by later queries, a typed non-deadline failure, overload and
//! drain-cancel sheds, the online policy, the flight recorder, windowed
//! snapshots with an SLO, and head sampling at rate 0.5. Each test also
//! asserts that its schedule really reached those branches, so a golden
//! file can never silently stop covering one.
//!
//! The compared exports are the report JSON, the Prometheus text (merged
//! events plus the SLO families), the time-series JSON lines, the service
//! chrome trace and the post-mortem dumps. Regenerate them with
//! `UPDATE_GOLDEN=1 cargo test -q --test service_golden` only when a
//! behaviour change is intended.

use std::path::{Path, PathBuf};
use std::sync::Arc;

use xbfs::archsim::fault::FaultPlan;
use xbfs::archsim::{ArchSpec, Link};
use xbfs::core::checkpoint::CheckpointPolicy;
use xbfs::core::health::Device;
use xbfs::core::recovery::{ResilienceConfig, Rung};
use xbfs::core::{
    prometheus_slo_text, prometheus_text, service_chrome_trace_json, timeseries_json_lines,
    BatchPolicy, CrossParams, Disposition, DrainMode, PolicyMode, PostMortem, QueryRequest,
    QueryService, ScheduleItem, ServiceConfig, ServiceReport, SloPolicy, SnapshotPolicy,
    TraceSamplePolicy,
};
use xbfs::engine::{validate, FixedMN, TraceEvent, XbfsError};
use xbfs::graph::Csr;

fn plan(name: &str) -> FaultPlan {
    let path = Path::new(env!("CARGO_MANIFEST_DIR"))
        .join("tests")
        .join("chaos")
        .join(name);
    let text = std::fs::read_to_string(&path)
        .unwrap_or_else(|e| panic!("{}: unreadable plan: {e}", path.display()));
    FaultPlan::from_json(&text).unwrap_or_else(|e| panic!("{name}: plan does not parse: {e}"))
}

fn graph() -> Arc<Csr> {
    Arc::new(xbfs::graph::rmat::rmat_csr(9, 16))
}

fn sources(g: &Csr) -> (u32, u32) {
    let pick = |seed| xbfs::core::training::pick_source(g, seed).expect("non-empty graph");
    (pick(3), pick(7))
}

fn service(g: Arc<Csr>, config: ServiceConfig) -> QueryService {
    let params = CrossParams {
        handoff: FixedMN::new(64.0, 64.0),
        gpu: FixedMN::new(14.0, 24.0),
    };
    QueryService::new(
        g,
        ArchSpec::cpu_sandy_bridge(),
        ArchSpec::gpu_k20x(),
        Link::pcie3(),
        params,
        config,
    )
}

fn query(id: u64, source: u32, arrival_s: f64) -> QueryRequest {
    QueryRequest::builder(id, source).arrival(arrival_s).build()
}

/// Every export a replay produces, keyed by golden-file suffix.
fn exports(report: &ServiceReport) -> Vec<(&'static str, String)> {
    let mut metrics = prometheus_text(&report.merged_events());
    if let Some(slo) = &report.slo {
        metrics.push_str(&prometheus_slo_text(slo));
    }
    let postmortems: Vec<String> = report.postmortems.iter().map(PostMortem::to_json).collect();
    vec![
        ("report.json", report.to_json()),
        ("metrics.prom", metrics),
        (
            "timeseries.jsonl",
            timeseries_json_lines(&report.timeseries, report.slo.as_ref()),
        ),
        (
            "trace.json",
            service_chrome_trace_json(&report.events, &report.query_traces),
        ),
        ("postmortems.json", postmortems.join("\n")),
    ]
}

fn assert_golden(name: &str, report: &ServiceReport) {
    let dir = Path::new(env!("CARGO_MANIFEST_DIR"))
        .join("tests")
        .join("golden");
    for (suffix, text) in exports(report) {
        let path = dir.join(format!("service_{name}.{suffix}"));
        if std::env::var_os("UPDATE_GOLDEN").is_some() {
            std::fs::create_dir_all(&dir).unwrap();
            std::fs::write(&path, &text).unwrap();
        }
        let golden = std::fs::read_to_string(&path).unwrap_or_else(|_| {
            panic!(
                "{} missing — run with UPDATE_GOLDEN=1 to create it",
                path.display()
            )
        });
        assert!(
            text == golden,
            "{} drifted from the golden file; rerun with UPDATE_GOLDEN=1 if the change is intentional",
            path.display()
        );
    }
}

fn batch_lanes(report: &ServiceReport) -> Vec<u64> {
    report
        .events
        .iter()
        .filter_map(|e| match e {
            TraceEvent::BatchLane { query, .. } => Some(*query),
            _ => None,
        })
        .collect()
}

fn disposition(report: &ServiceReport, id: u64) -> Disposition {
    report.outcome(id).expect("scheduled query").disposition
}

fn started(report: &ServiceReport, id: u64) -> bool {
    report
        .outcome(id)
        .expect("scheduled query")
        .start_s
        .is_some()
}

/// A per-process spill directory, removed when dropped.
struct SpillDir(PathBuf);

impl SpillDir {
    fn new(tag: &str) -> Self {
        let dir =
            std::env::temp_dir().join(format!("xbfs-service-golden-{tag}-{}", std::process::id()));
        std::fs::create_dir_all(&dir).expect("create spill dir");
        Self(dir)
    }
}

impl Drop for SpillDir {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.0);
    }
}

/// One slot, batches of up to four, the online policy and every telemetry
/// feature on. The first phase exercises the queue-pop dispatch branches;
/// the second promotes a permanent GPU loss that the following queries
/// presume; the third is a typed non-deadline failure.
fn batched_schedule(
    src: u32,
    other: u32,
    lane_deadline_s: Option<f64>,
    n: u32,
) -> Vec<ScheduleItem> {
    const PHASE_TWO_S: f64 = 0.02;
    const PHASE_THREE_S: f64 = 0.04;
    let mut lane = query(4, other, 0.0);
    lane.deadline_s = lane_deadline_s;
    [
        // Solo start at arrival.
        query(0, src, 0.0),
        // Popped together; query 1 expired in the queue, so query 2 runs
        // alone as the one-lane remainder.
        QueryRequest::builder(1, src).deadline(1e-9).build(),
        query(2, other, 0.0),
        // A transient fault plan never joins a batch: solo from the queue.
        QueryRequest::builder(3, src)
            .fault_plan(plan("06-flaky-link.json"))
            .build(),
        // A four-lane batch; query 4's deadline survives the queue but not
        // the batch completion.
        lane,
        query(5, src, 0.0),
        query(6, other, 0.0),
        query(7, src, 0.0),
        // Both expire in the queue: a batch pop that leaves no lane.
        QueryRequest::builder(8, src).deadline(1e-9).build(),
        QueryRequest::builder(9, other).deadline(1e-9).build(),
        // A permanent GPU loss, promoted at completion; 11 and 12 queue
        // behind it and start with the GPU presumed lost, solo.
        QueryRequest::builder(10, src)
            .arrival(PHASE_TWO_S)
            .fault_plan(plan("02-gpu-lost-immediate.json"))
            .build(),
        query(11, other, PHASE_TWO_S),
        query(12, src, PHASE_TWO_S),
        // An out-of-range source: a typed failure that charges no clock.
        query(13, n, PHASE_THREE_S),
    ]
    .into_iter()
    .map(ScheduleItem::Query)
    .collect()
}

#[test]
fn batched_online_schedule_matches_golden_exports() {
    let g = graph();
    let (src, other) = sources(&g);
    let spill = SpillDir::new("batched");
    let config = ServiceConfig {
        capacity: 1,
        queue_limit: 16,
        resilience: ResilienceConfig {
            checkpoint: CheckpointPolicy::every(2),
            ..ResilienceConfig::default_runtime()
        },
        keep_query_traces: true,
        spill_dir: Some(spill.0.to_string_lossy().into_owned()),
        batching: BatchPolicy::windowed(4),
        snapshot: SnapshotPolicy::every(0.002),
        slo: Some(SloPolicy {
            deadline_hit_ratio: 0.9,
            latency_objective_s: 0.004,
            latency_hit_ratio: 0.5,
        }),
        flight_recorder: 32,
        trace_sample: TraceSamplePolicy { rate: 0.5, seed: 7 },
        policy: PolicyMode::Online { seed: 11 },
        ..ServiceConfig::default()
    };
    let n = g.num_vertices();

    // Calibrate query 4's deadline to land inside its batch: after the
    // batch starts, before it completes. Per-lane deadlines never change
    // the batch run itself, so the calibration timings carry over.
    let calibration = service(g.clone(), config.clone())
        .run_schedule(&batched_schedule(src, other, None, n))
        .expect("calibration schedule");
    let lane = calibration.outcome(4).expect("query 4");
    let (start, done) = (lane.start_s.unwrap(), lane.completion_s.unwrap());
    let report = service(g.clone(), config)
        .run_schedule(&batched_schedule(src, other, Some((start + done) / 2.0), n))
        .expect("schedule");

    // The branches this schedule exists for.
    assert!(!started(&report, 1), "query 1 expired in the queue");
    assert_eq!(disposition(&report, 1), Disposition::DeadlineMissed);
    assert!(started(&report, 2), "the one-lane remainder ran");
    assert_eq!(
        batch_lanes(&report),
        vec![4, 5, 6, 7],
        "one four-lane batch"
    );
    assert!(started(&report, 4), "query 4 ran inside the batch");
    assert_eq!(disposition(&report, 4), Disposition::DeadlineMissed);
    for id in [8, 9] {
        assert!(!started(&report, id), "query {id} expired in the queue");
    }
    assert_eq!(
        report.lost_devices.first().map(|(d, _)| *d),
        Some(Device::Gpu)
    );
    for id in [11, 12] {
        let run = report.outcome(id).unwrap().run.as_ref().expect("served");
        assert!(
            run.report.skipped_rungs.contains(&Rung::CrossCpuGpu),
            "query {id} presumes the promoted loss"
        );
    }
    let failed = report.outcome(13).unwrap();
    assert_eq!(failed.disposition, Disposition::Failed);
    assert!(matches!(failed.error, Some(XbfsError::BadSource { .. })));
    assert_eq!(failed.start_s, failed.completion_s, "no clock charged");
    assert!(!report.postmortems.is_empty());
    assert!(!report.timeseries.is_empty());
    assert!(report.slo.is_some());
    let kept = report
        .query_traces
        .iter()
        .filter(|t| !t.events.is_empty())
        .count();
    assert!(
        kept > 0 && kept < report.query_traces.len(),
        "sampling kept some"
    );
    for o in &report.outcomes {
        if let Some(run) = &o.run {
            assert_eq!(validate(&g, &run.output), Ok(()), "query {}", o.id);
        }
    }

    assert_golden("batched", &report);
}

/// One slot, a base deadline no traversal meets, three-lane batching and
/// drain-cancel: the solo run and the batch both abort mid-run, one
/// arrival is shed for overload, the queries still queued when the drain
/// fires are cancelled and a later arrival is refused.
fn deadline_drain_schedule(src: u32, other: u32, drain_at_s: f64) -> Vec<ScheduleItem> {
    let mut items: Vec<ScheduleItem> = (0..7u64)
        .map(|id| ScheduleItem::Query(query(id, if id % 2 == 0 { src } else { other }, 0.0)))
        .collect();
    items.push(ScheduleItem::Drain { at_s: drain_at_s });
    items.push(ScheduleItem::Query(query(7, other, drain_at_s)));
    items
}

#[test]
fn deadline_and_drain_schedule_matches_golden_exports() {
    let g = graph();
    let (src, other) = sources(&g);
    const BASE_DEADLINE_S: f64 = 1e-4;
    let config = ServiceConfig {
        capacity: 1,
        queue_limit: 5,
        resilience: ResilienceConfig {
            deadline_s: Some(BASE_DEADLINE_S),
            ..ResilienceConfig::default_runtime()
        },
        drain: DrainMode::Cancel,
        keep_query_traces: true,
        batching: BatchPolicy::windowed(3),
        flight_recorder: 8,
        ..ServiceConfig::default()
    };

    // Calibrate the drain to fire while the batch runs: after query 0
    // aborts and frees the slot, before the batch's own abort (which
    // takes at least the base deadline).
    let calibration = service(g.clone(), config.clone())
        .run_schedule(&deadline_drain_schedule(src, other, 1.0))
        .expect("calibration schedule");
    let freed_s = calibration.outcome(0).unwrap().completion_s.unwrap();
    let report = service(g, config)
        .run_schedule(&deadline_drain_schedule(
            src,
            other,
            freed_s + BASE_DEADLINE_S / 2.0,
        ))
        .expect("schedule");

    assert!(started(&report, 0));
    assert_eq!(disposition(&report, 0), Disposition::DeadlineMissed);
    assert_eq!(batch_lanes(&report), vec![1, 2, 3]);
    for id in [1, 2, 3] {
        assert!(started(&report, id), "query {id} ran inside the batch");
        assert_eq!(disposition(&report, id), Disposition::DeadlineMissed);
    }
    assert_eq!(disposition(&report, 6), Disposition::ShedOverloaded);
    for id in [4, 5, 7] {
        assert_eq!(disposition(&report, id), Disposition::ShedShutdown);
    }
    assert_eq!(report.postmortems.len(), 4);

    assert_golden("deadline_drain", &report);
}
