//! The traced run (`--trace 1`). It feeds the timed run's inputs to each
//! layer's public functions one call at a time on this thread, wraps a
//! span around every call, and derives the per-layer metrics from the
//! spans and from the counts in the public reports. The spans stay in
//! memory and are written to one JSON file at the end.

use std::hint::black_box;
use std::sync::Arc;
use std::time::{Duration, Instant};

use serde_json::{json, Value};
use xbfs_archsim::profile;
use xbfs_core::{
    cost_cross, run_cross, AdaptiveRuntime, BatchSession, CrossParams, Disposition, QueryService,
    RunSession, Rung, ScheduleItem, ServiceReport,
};
use xbfs_engine::{reference, validate, TraceEvent};
use xbfs_graph::{io, Csr, GraphStats};

use crate::stats::{fnv1a, mean, median, quantile};
use crate::timed::spawn_child;
use crate::workload::Workload;
use crate::{f64_field, f64_list, metric};

/// Where the span file goes, relative to the working directory.
const SPAN_DIR: &str = ".wallbench";
/// Repeats of the cheap set-up layers, so their medians are steadier.
const INGEST_REPEATS: usize = 5;
const TRAIN_REPEATS: usize = 3;

struct Span {
    name: &'static str,
    start: Duration,
    end: Duration,
    parent: Option<usize>,
    query: Option<u64>,
}

/// In-memory span recorder; span ids are indices into `spans`.
struct Tracer {
    origin: Instant,
    spans: Vec<Span>,
}

impl Tracer {
    fn new() -> Self {
        Self {
            origin: Instant::now(),
            spans: Vec::new(),
        }
    }

    fn open(&mut self, name: &'static str, parent: Option<usize>, query: Option<u64>) -> usize {
        let now = self.origin.elapsed();
        self.spans.push(Span {
            name,
            start: now,
            end: now,
            parent,
            query,
        });
        self.spans.len() - 1
    }

    /// Close span `id` and return its duration in seconds.
    fn close(&mut self, id: usize) -> f64 {
        let span = &mut self.spans[id];
        span.end = self.origin.elapsed();
        (span.end - span.start).as_secs_f64()
    }

    /// Run `f` inside a span; returns its result and the span's seconds.
    fn time<T>(
        &mut self,
        name: &'static str,
        parent: usize,
        query: Option<u64>,
        f: impl FnOnce() -> T,
    ) -> (T, f64) {
        let id = self.open(name, Some(parent), query);
        let out = f();
        (out, self.close(id))
    }

    fn to_json(&self) -> String {
        let spans: Vec<Value> = self
            .spans
            .iter()
            .enumerate()
            .map(|(id, s)| {
                json!({
                    "id": id,
                    "name": s.name,
                    "start_us": s.start.as_secs_f64() * 1e6,
                    "end_us": s.end.as_secs_f64() * 1e6,
                    "parent": s.parent,
                    "query": s.query,
                })
            })
            .collect();
        serde_json::to_string(&json!({ "spans": spans })).expect("spans serialize")
    }
}

/// Per-query layer timings, in milliseconds.
#[derive(Default)]
struct QueryTimes {
    traverse: Vec<f64>,
    validate: Vec<f64>,
    price_us: Vec<f64>,
    session: Vec<f64>,
}

/// Counts the service's public report holds about the replay.
#[derive(Default)]
struct ReportCounts {
    served: u64,
    levels: u64,
    edges: u64,
    checkpoints: u64,
    checkpoint_bytes: u64,
    retries: u64,
    repairs: u64,
    degraded: u64,
    started: u64,
    batches: u64,
    batch_lanes: u64,
    waits_ms: Vec<f64>,
    kept_events: u64,
}

fn report_counts(report: &ServiceReport) -> ReportCounts {
    let mut c = ReportCounts {
        kept_events: report
            .query_traces
            .iter()
            .map(|t| t.events.len() as u64)
            .sum(),
        ..ReportCounts::default()
    };
    for o in &report.outcomes {
        if o.start_s.is_some() {
            c.started += 1;
            c.waits_ms.push(o.wait_s * 1e3);
        }
        if let (Disposition::Served { .. }, Some(run)) = (o.disposition, &o.run) {
            let r = &run.report;
            c.served += 1;
            c.levels += u64::from(r.levels_executed);
            c.edges += r.edges_examined;
            c.checkpoints += u64::from(r.checkpoints_taken);
            c.checkpoint_bytes += r.checkpoint_bytes;
            c.retries += u64::from(r.retries);
            c.repairs += u64::from(r.corruption_repairs);
            c.degraded += u64::from(r.rung != Rung::CrossCpuGpu);
        }
    }
    for e in &report.events {
        if let TraceEvent::BatchLane { lane, .. } = e {
            c.batch_lanes += 1;
            c.batches += u64::from(*lane == 0);
        }
    }
    c
}

/// The sources of each multi-lane batch the replay dispatched, in order.
fn batch_compositions(report: &ServiceReport) -> Vec<Vec<u32>> {
    let mut batches: Vec<Vec<u32>> = Vec::new();
    for e in &report.events {
        if let TraceEvent::BatchLane { lane, source, .. } = e {
            if *lane == 0 {
                batches.push(Vec::new());
            }
            if let Some(b) = batches.last_mut() {
                b.push(*source);
            }
        }
    }
    batches
}

/// Bytes of query output and kept trace events the report still holds.
fn retained_bytes(report: &ServiceReport) -> usize {
    let outputs: usize = report
        .outcomes
        .iter()
        .filter_map(|o| o.run.as_ref())
        .map(|r| (r.output.parents.capacity() + r.output.levels.capacity()) * 4)
        .sum();
    let events: usize = report.query_traces.iter().map(|t| t.events.len()).sum();
    outputs + events * std::mem::size_of::<TraceEvent>()
}

/// The layers every query goes through, built once by [`trace_setup`].
struct Layers {
    csr: Arc<Csr>,
    runtime: AdaptiveRuntime,
    params: CrossParams,
    service: QueryService,
    ingest_s: Vec<f64>,
    train_s: Vec<f64>,
}

/// The set-up layers, each call in its own span.
fn trace_setup(
    tr: &mut Tracer,
    root: usize,
    wl: &Workload,
    graph_bytes: &[u8],
) -> Result<Layers, String> {
    let mut ingest_s = Vec::new();
    let mut csr = None;
    for _ in 0..INGEST_REPEATS {
        let (g, s) = tr.time("graph.ingest", root, None, || io::decode_csr(graph_bytes));
        csr = Some(g.map_err(|e| e.to_string())?);
        ingest_s.push(s);
    }
    let csr = Arc::new(csr.expect("ingested at least once"));
    let mut train_s = Vec::new();
    let mut runtime = None;
    for _ in 0..TRAIN_REPEATS {
        let (r, s) = tr.time(
            "predictor.train",
            root,
            None,
            AdaptiveRuntime::quick_trained,
        );
        runtime = Some(r);
        train_s.push(s);
    }
    let runtime = runtime.expect("trained at least once");
    let stats = GraphStats::unknown(&csr);
    let (params, _) = tr.time("predictor.predict", root, None, || {
        runtime.predict_params(&stats)
    });
    let (service, _) = tr.time("service.build", root, None, || {
        QueryService::from_runtime(&runtime, csr.clone(), &stats, wl.service_config())
    });
    Ok(Layers {
        csr,
        runtime,
        params,
        service,
        ingest_s,
        train_s,
    })
}

/// Outputs compared with the reference BFS, and how many differed or
/// ended in a typed error.
#[derive(Default)]
struct Checks {
    checked: u64,
    mismatches: u64,
    session_errors: u64,
}

/// Per query of `schedule`: the engine traversal, its validation, the
/// cost pricing, a full session with the workload's resilience config and
/// the query's fault plan, and the reference BFS that checks them.
fn trace_queries(
    tr: &mut Tracer,
    root: usize,
    wl: &Workload,
    l: &Layers,
    schedule: &[ScheduleItem],
    checks: &mut Checks,
) -> QueryTimes {
    let (csr, rt, params) = (&l.csr, &l.runtime, &l.params);
    let resilience = wl.resilience();
    let mut times = QueryTimes::default();
    for item in schedule {
        let ScheduleItem::Query(q) = item else {
            continue;
        };
        let id = Some(q.id);
        let qspan = tr.open("query", Some(root), id);
        let (cross, t) = tr.time("engine.run_cross", qspan, id, || {
            run_cross(csr, q.source, &rt.cpu, &rt.gpu, &rt.link, params)
        });
        times.traverse.push(t * 1e3);
        let output = &cross.traversal.output;
        let (valid, t) = tr.time("engine.validate", qspan, id, || validate(csr, output));
        times.validate.push(t * 1e3);
        let (prof, _) = tr.time("archsim.profile", qspan, id, || profile(csr, q.source));
        let (_, t) = tr.time("archsim.price", qspan, id, || {
            black_box(cost_cross(&prof, &rt.cpu, &rt.gpu, &rt.link, params))
        });
        times.price_us.push(t * 1e6);
        let plan = q.plan();
        let (session, t) = tr.time("session.run", qspan, id, || {
            RunSession::on_platform(csr, &rt.cpu, &rt.gpu, &rt.link, params)
                .source(q.source)
                .fault_plan(&plan)
                .resilience(resilience.clone())
                .run()
        });
        times.session.push(t * 1e3);
        let (expected, _) = tr.time("reference.run", qspan, id, || reference::run(csr, q.source));
        tr.close(qspan);

        checks.checked += 1;
        let session_ok = match &session {
            Ok(run) => run.output.levels == expected.levels,
            Err(e) => {
                eprintln!("query {}: session ended in a typed error: {e}", q.id);
                checks.session_errors += 1;
                true
            }
        };
        if valid.is_err() || output.levels != expected.levels || !session_ok {
            eprintln!("query {}: output differs from the reference BFS", q.id);
            checks.mismatches += 1;
        }
    }
    times
}

/// Re-run every multi-lane batch the replay dispatched through
/// `BatchSession::run`, checking each lane. Returns the batches' total
/// milliseconds.
fn trace_batches(
    tr: &mut Tracer,
    root: usize,
    wl: &Workload,
    l: &Layers,
    batches: &[Vec<u32>],
    checks: &mut Checks,
) -> Result<f64, String> {
    let (csr, rt) = (&l.csr, &l.runtime);
    let mut batch_ms = 0.0;
    for sources in batches {
        let (batch, t) = tr.time("batch.run", root, None, || {
            BatchSession::on_platform(csr, &rt.cpu, &rt.gpu, &rt.link, &l.params)
                .sources(sources)
                .window(wl.batch.map_or(0, |(window, _)| window))
                .resilience(wl.resilience())
                .run()
        });
        batch_ms += t * 1e3;
        let batch = batch.map_err(|e| format!("batch of {} lanes: {e}", sources.len()))?;
        for lane in &batch.lanes {
            checks.checked += 1;
            if lane.run.output.levels != reference::run(csr, lane.source).levels {
                eprintln!(
                    "batch lane from source {}: output differs from the reference BFS",
                    lane.source
                );
                checks.mismatches += 1;
            }
        }
    }
    Ok(batch_ms)
}

/// `--trace 1`. `replay_seconds` bounds the untraced replay child that
/// measures the service's own CPU time.
pub fn run(
    wl: &Workload,
    seed: u64,
    replay_seconds: f64,
    graph_bytes: &[u8],
) -> Result<bool, String> {
    // The untraced replay, in a fresh process as in the timed run: its
    // CPU time per query is what the traced layers must account for.
    let timed = spawn_child("replay", wl, seed, 0, replay_seconds, graph_bytes)?;
    let timed_cpu_s = f64_field(&timed, "cpu_s")?;
    let timed_wall_s = f64_field(&timed, "wall_s")?;
    let timed_replays = f64_list(&timed, "qps")?.len() as f64;
    let timed_digest = timed.get("digest").and_then(Value::as_str).unwrap_or("");

    let mut tr = Tracer::new();
    let root = tr.open("traced-run", None, None);
    let layers = trace_setup(&mut tr, root, wl, graph_bytes)?;
    let schedule = wl.schedule(&layers.csr, seed, 0)?;
    let (report, _) = tr.time("service.replay", root, None, || {
        layers.service.run_schedule(&schedule)
    });
    let report = report.map_err(|e| format!("run_schedule: {e}"))?;
    let (export_mb, export_s, report_json) = if wl.hardened {
        let (e, s) = tr.time("observe.export", root, None, || wl.render_exports(&report));
        (e.total_bytes() as f64 / 1e6, s, e.report_json)
    } else {
        (0.0, 0.0, report.to_json())
    };
    let digest = format!("{:016x}", fnv1a(report_json.as_bytes()));
    let mut checks = Checks::default();
    let times = trace_queries(&mut tr, root, wl, &layers, &schedule, &mut checks);
    let batches = batch_compositions(&report);
    let batch_ms = trace_batches(&mut tr, root, wl, &layers, &batches, &mut checks)?;
    tr.close(root);

    std::fs::create_dir_all(SPAN_DIR).map_err(|e| format!("{SPAN_DIR}: {e}"))?;
    let span_path = format!("{SPAN_DIR}/spans-{}-seed{seed}.json", wl.name);
    std::fs::write(&span_path, tr.to_json()).map_err(|e| format!("{span_path}: {e}"))?;

    let c = report_counts(&report);
    let cpu_ms_per_query = timed_cpu_s * 1e3 / (timed_replays * c.served.max(1) as f64);
    let session_mean = mean(&times.session);
    let traverse_mean = mean(&times.traverse);
    let validate_mean = mean(&times.validate);
    let ladder = session_mean - traverse_mean - validate_mean;
    let overhead = cpu_ms_per_query - session_mean;
    let dispatches = (c.started - c.batch_lanes) + c.batches;
    let digest_matches = digest == timed_digest;

    println!(
        "{}: seed {seed}, {} queries traced, {} batches re-run, spans in {span_path}",
        wl.name,
        times.session.len(),
        batches.len()
    );
    println!(
        "output check: {} outputs compared with the reference BFS, {} mismatches",
        checks.checked, checks.mismatches
    );
    println!(
        "replay digest: {digest} ({} the timed replay's {timed_digest})",
        if digest_matches {
            "matches"
        } else {
            "DIFFERS from"
        }
    );
    println!(
        "replay CPU per served query {cpu_ms_per_query:.3} ms = traverse {traverse_mean:.3} \
         + validate {validate_mean:.3} + ladder {ladder:.3} + service overhead {overhead:.3}"
    );
    let correct = checks.mismatches == 0 && digest_matches;
    let per_lane_ms = if c.batch_lanes == 0 {
        0.0
    } else {
        batch_ms / c.batch_lanes as f64
    };
    let result = json!({
        "correct": correct,
        "attempted": checks.checked,
        "failed": checks.mismatches + checks.session_errors,
        "metrics": {
            "graph.ingest_s": metric(median(&layers.ingest_s), "s"),
            "graph.csr_mb": metric(layers.csr.storage_bytes() as f64 / 1e6, "MB"),
            "predictor.train_s": metric(median(&layers.train_s), "s"),
            "engine.traverse_ms.p50": metric(median(&times.traverse), "ms"),
            "engine.traverse_ms.p95": metric(quantile(&times.traverse, 0.95), "ms"),
            "engine.validate_ms.p50": metric(median(&times.validate), "ms"),
            "engine.validate_ms.p95": metric(quantile(&times.validate, 0.95), "ms"),
            "engine.levels": metric(c.levels as f64, "count"),
            "engine.edges_examined": metric(c.edges as f64, "count"),
            "archsim.price_us": metric(median(&times.price_us), "us"),
            "session.run_ms.p50": metric(median(&times.session), "ms"),
            "session.run_ms.p95": metric(quantile(&times.session, 0.95), "ms"),
            "session.ladder_ms": metric(ladder, "ms"),
            "checkpoint.captures": metric(c.checkpoints as f64, "count"),
            "checkpoint.mb": metric(c.checkpoint_bytes as f64 / 1e6, "MB"),
            "recovery.retries": metric(c.retries as f64, "count"),
            "recovery.repairs": metric(c.repairs as f64, "count"),
            "recovery.degraded": metric(c.degraded as f64, "count"),
            "batch.run_ms_per_lane": metric(per_lane_ms, "ms"),
            "batch.lanes_per_dispatch": metric(c.started as f64 / dispatches.max(1) as f64, "lanes"),
            "service.busy_cores": metric(timed_cpu_s / timed_wall_s, "cores"),
            "service.overhead_ms": metric(overhead, "ms"),
            "service.queue_wait_ms.p50": metric(median(&c.waits_ms), "sim-ms"),
            "service.queue_wait_ms.p95": metric(quantile(&c.waits_ms, 0.95), "sim-ms"),
            "service.shed": metric(f64::from(report.shed_overloaded + report.shed_shutdown), "count"),
            "service.retained_mb": metric(retained_bytes(&report) as f64 / 1e6, "MB"),
            "observe.export_s": metric(export_s, "s"),
            "observe.export_mb": metric(export_mb, "MB"),
            "observe.kept_events": metric(c.kept_events as f64, "count"),
        }
    });
    println!("{}", serde_json::to_string(&result).expect("serializes"));
    Ok(correct)
}
