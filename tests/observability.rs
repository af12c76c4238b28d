//! Observability contract, end to end: traces recorded by a [`MemorySink`]
//! are well-formed span trees that reconcile exactly with the `RunReport`;
//! attaching a sink never perturbs the simulated run; and the chrome-trace
//! exporter produces valid, timestamp-monotone JSON pinned by a golden
//! file.

use proptest::prelude::*;
use xbfs::archsim::{ArchSpec, FaultPlan, Link};
use xbfs::core::checkpoint::CheckpointPolicy;
use xbfs::core::{
    chrome_trace_json, prometheus_text, service_chrome_trace_json, CrossParams, Histogram,
    QueryTrace, RunSession, LATENCY_BUCKETS_S,
};
use xbfs::engine::trace::{MemorySink, TraceEvent};
use xbfs::engine::{Direction, FixedMN};
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

proptest! {
    #![proptest_config(ProptestConfig::with_cases(16))]

    /// Any seeded fault plan yields a well-formed span tree: rungs pair up
    /// and never nest, work events only happen inside an open rung and
    /// carry its label, spans run forward in time, the per-level edge sums
    /// equal the report's total, and the breaker events replicate the
    /// report's transition list exactly.
    #[test]
    fn seeded_fault_plans_yield_well_formed_span_trees(seed in 0u64..256) {
        let (g, src, cpu, gpu, link, params) = fixture();
        let sink = MemorySink::new();
        let run = RunSession::on_platform(&g, &cpu, &gpu, &link, &params)
            .source(src)
            .fault_plan(&chaos_plan(seed))
            .checkpoints(CheckpointPolicy::every(2))
            .sink(&sink)
            .run()
            .expect("no-deadline chaos always serves");

        let events = sink.take();
        prop_assert!(!events.is_empty());

        let mut open_rung: Option<&'static str> = None;
        let mut edges = 0u64;
        let mut traced_breakers = Vec::new();
        for ev in &events {
            match ev {
                TraceEvent::RungBegin { rung, .. } => {
                    prop_assert!(open_rung.is_none(), "rung spans must not nest");
                    open_rung = Some(rung);
                }
                TraceEvent::RungEnd { rung, .. } => {
                    prop_assert_eq!(open_rung.take(), Some(*rung), "unbalanced rung end");
                }
                TraceEvent::RungSkipped { .. } => {
                    prop_assert!(open_rung.is_none(), "skips happen between rungs");
                }
                TraceEvent::Level { rung, edges_examined, start_s, end_s, .. } => {
                    prop_assert_eq!(open_rung, Some(*rung), "level outside its rung");
                    prop_assert!(end_s >= start_s);
                    edges += edges_examined;
                }
                TraceEvent::Kernel { start_s, end_s, .. }
                | TraceEvent::Transfer { start_s, end_s, .. }
                | TraceEvent::Backoff { start_s, end_s, .. }
                | TraceEvent::Checkpoint { start_s, end_s, .. } => {
                    prop_assert!(open_rung.is_some(), "work event outside any rung");
                    prop_assert!(end_s >= start_s);
                }
                TraceEvent::Fault { .. } | TraceEvent::Resume { .. } => {
                    prop_assert!(open_rung.is_some());
                }
                TraceEvent::Breaker { device, from, to, cause, at_s } => {
                    traced_breakers.push((*device, *from, *to, *cause, *at_s));
                }
                TraceEvent::KernelCost { total_s, overhead_s, work_s, .. } => {
                    prop_assert!(open_rung.is_some());
                    prop_assert!(*total_s >= 0.0 && *overhead_s >= 0.0 && *work_s >= 0.0);
                }
                TraceEvent::EngineLevel { .. } => {
                    prop_assert!(false, "simulated runs never emit engine levels");
                }
                TraceEvent::QueryAdmitted { .. }
                | TraceEvent::QueryStart { .. }
                | TraceEvent::QueryEnd { .. }
                | TraceEvent::QueryShed { .. }
                | TraceEvent::QueueDepth { .. } => {
                    prop_assert!(false, "single sessions never emit service events");
                }
                TraceEvent::CorruptionDetected { .. } | TraceEvent::CorruptionRepair { .. } => {
                    prop_assert!(false, "bit flips only come from scheduled faults");
                }
                TraceEvent::BatchBegin { .. }
                | TraceEvent::BatchLane { .. }
                | TraceEvent::BatchLevel { .. }
                | TraceEvent::BatchEnd { .. } => {
                    prop_assert!(false, "solo sessions never emit batch events");
                }
                TraceEvent::PolicyDecision { .. } => {
                    prop_assert!(false, "no policy attached, so no policy decisions");
                }
            }
        }
        prop_assert!(open_rung.is_none(), "a rung was left open");
        prop_assert_eq!(edges, run.report.edges_examined);

        let report_breakers: Vec<_> = run
            .report
            .breaker_transitions
            .iter()
            .map(|t| (t.device.name(), t.from.name(), t.to.name(), t.cause.name(), t.at_s))
            .collect();
        prop_assert_eq!(traced_breakers, report_breakers);
    }

    /// Tracing is observation only: for any seeded plan the traced run and
    /// the default (NullSink) run are numerically identical.
    #[test]
    fn sinks_never_perturb_the_run_and_agree_with_each_other(seed in 0u64..256) {
        let (g, src, cpu, gpu, link, params) = fixture();
        let session = |sink: Option<&dyn xbfs::engine::TraceSink>| {
            let mut s = RunSession::on_platform(&g, &cpu, &gpu, &link, &params)
                .source(src)
                .fault_plan(&chaos_plan(seed))
                .checkpoints(CheckpointPolicy::every(2));
            if let Some(sink) = sink {
                s = s.sink(sink);
            }
            s.run().expect("no-deadline chaos always serves")
        };

        let silent = session(None);
        let memory = MemorySink::new();
        let buffered = session(Some(&memory));

        prop_assert_eq!(&silent.output, &buffered.output);
        prop_assert_eq!(&silent.report, &buffered.report);
        prop_assert!(!memory.is_empty());
    }

    /// The chrome-trace exporter emits valid JSON with monotone timestamps
    /// and non-negative durations for any recorded run.
    #[test]
    fn chrome_trace_export_is_valid_and_monotone(seed in 0u64..256) {
        let (g, src, cpu, gpu, link, params) = fixture();
        let sink = MemorySink::new();
        RunSession::on_platform(&g, &cpu, &gpu, &link, &params)
            .source(src)
            .fault_plan(&chaos_plan(seed))
            .checkpoints(CheckpointPolicy::every(2))
            .sink(&sink)
            .run()
            .expect("no-deadline chaos always serves");

        let text = chrome_trace_json(&sink.take());
        let doc: serde_json::Value = serde_json::from_str(&text).expect("valid JSON");
        let evs = doc["traceEvents"].as_array().expect("traceEvents");
        let mut last_ts = f64::NEG_INFINITY;
        for ev in evs {
            if ev["ph"] == "M" {
                continue;
            }
            let ts = ev["ts"].as_f64().expect("numeric ts");
            prop_assert!(ts >= last_ts, "timestamps regressed");
            last_ts = ts;
            if ev["ph"] == "X" {
                prop_assert!(ev["dur"].as_f64().expect("dur") >= 0.0);
            }
        }
    }
}

/// A fixed synthetic trace pins the exporter's exact bytes. Regenerate
/// with `UPDATE_GOLDEN=1 cargo test -q --test observability`.
fn golden_events() -> Vec<TraceEvent> {
    use xbfs::engine::trace::RungOutcome;
    vec![
        TraceEvent::RungBegin {
            rung: "cross",
            at_s: 0.0,
        },
        TraceEvent::Transfer {
            level: 2,
            bytes: 8192,
            attempt: 0,
            start_s: 0.0010,
            end_s: 0.0016,
            ok: false,
        },
        TraceEvent::Fault {
            op: "transfer",
            kind: "transfer-failure",
            level: 2,
            attempt: 0,
            at_s: 0.0016,
        },
        TraceEvent::Backoff {
            op: "transfer",
            level: 2,
            retry: 0,
            start_s: 0.0016,
            end_s: 0.0017,
        },
        TraceEvent::Transfer {
            level: 2,
            bytes: 8192,
            attempt: 1,
            start_s: 0.0017,
            end_s: 0.0023,
            ok: true,
        },
        TraceEvent::KernelCost {
            device: "gpu",
            level: 2,
            direction: Direction::BottomUp,
            total_s: 0.0011,
            overhead_s: 0.0001,
            work_s: 0.0010,
            bound: "bu",
            at_s: 0.0023,
        },
        TraceEvent::Kernel {
            device: "gpu",
            op: "gpu-kernel",
            level: 2,
            attempt: 0,
            start_s: 0.0023,
            end_s: 0.0034,
            ok: true,
        },
        TraceEvent::Level {
            rung: "cross",
            device: "gpu",
            level: 2,
            direction: Direction::BottomUp,
            frontier_vertices: 320,
            frontier_edges: 5056,
            edges_examined: 4800,
            discovered: 401,
            start_s: 0.0010,
            end_s: 0.0034,
        },
        TraceEvent::Checkpoint {
            rung: "cross",
            level: 3,
            bytes: 5120,
            spilled: false,
            start_s: 0.0034,
            end_s: 0.0035,
        },
        TraceEvent::Breaker {
            device: "link",
            from: "closed",
            to: "half-open",
            cause: "probe-window",
            at_s: 0.0036,
        },
        TraceEvent::RungEnd {
            rung: "cross",
            at_s: 0.0040,
            outcome: RungOutcome::Served,
        },
    ]
}

#[test]
fn chrome_trace_golden_file_is_stable() {
    let text = chrome_trace_json(&golden_events());
    let path = std::path::Path::new(env!("CARGO_MANIFEST_DIR"))
        .join("tests")
        .join("golden")
        .join("chrome_trace.json");
    if std::env::var_os("UPDATE_GOLDEN").is_some() {
        std::fs::create_dir_all(path.parent().unwrap()).unwrap();
        std::fs::write(&path, &text).unwrap();
    }
    let golden = std::fs::read_to_string(&path)
        .expect("golden file missing — run with UPDATE_GOLDEN=1 to create it");
    assert_eq!(
        text, golden,
        "chrome-trace output drifted from the golden file; \
         rerun with UPDATE_GOLDEN=1 if the change is intentional"
    );
    // The golden bytes are themselves a valid trace document.
    let doc: serde_json::Value = serde_json::from_str(&golden).expect("golden parses");
    assert!(doc["traceEvents"].as_array().is_some());
}

/// A fixed synthetic *service* schedule — admission events on the service
/// clock plus one kept per-query trace — pinning the service exporter's
/// exact bytes, including the queue-depth counter track. Regenerate with
/// `UPDATE_GOLDEN=1 cargo test -q --test observability`.
fn golden_service_fixture() -> (Vec<TraceEvent>, Vec<QueryTrace>) {
    use xbfs::engine::trace::RungOutcome;
    let service = vec![
        TraceEvent::QueryAdmitted {
            query: 0,
            queue_depth: 0,
            at_s: 0.0,
        },
        TraceEvent::QueryStart {
            query: 0,
            wait_s: 0.0,
            at_s: 0.0,
        },
        TraceEvent::QueryAdmitted {
            query: 1,
            queue_depth: 1,
            at_s: 0.0005,
        },
        TraceEvent::QueueDepth {
            depth: 1,
            at_s: 0.0005,
        },
        TraceEvent::QueryEnd {
            query: 0,
            outcome: "served",
            rung: "cross",
            at_s: 0.0040,
        },
        TraceEvent::QueueDepth {
            depth: 0,
            at_s: 0.0040,
        },
        TraceEvent::QueryStart {
            query: 1,
            wait_s: 0.0035,
            at_s: 0.0040,
        },
        TraceEvent::QueryShed {
            query: 2,
            reason: "overloaded",
            queue_depth: 1,
            at_s: 0.0050,
        },
        TraceEvent::QueryEnd {
            query: 1,
            outcome: "deadline-missed",
            rung: "cross",
            at_s: 0.0090,
        },
    ];
    let traces = vec![QueryTrace {
        query: 0,
        start_s: 0.0,
        events: vec![
            TraceEvent::RungBegin {
                rung: "cross",
                at_s: 0.0,
            },
            TraceEvent::Level {
                rung: "cross",
                device: "cpu",
                level: 0,
                direction: Direction::TopDown,
                frontier_vertices: 1,
                frontier_edges: 14,
                edges_examined: 14,
                discovered: 9,
                start_s: 0.0,
                end_s: 0.0012,
            },
            TraceEvent::RungEnd {
                rung: "cross",
                at_s: 0.0040,
                outcome: RungOutcome::Served,
            },
        ],
    }];
    (service, traces)
}

#[test]
fn service_chrome_trace_golden_file_is_stable() {
    let (service, traces) = golden_service_fixture();
    let text = service_chrome_trace_json(&service, &traces);
    let path = std::path::Path::new(env!("CARGO_MANIFEST_DIR"))
        .join("tests")
        .join("golden")
        .join("service_chrome_trace.json");
    if std::env::var_os("UPDATE_GOLDEN").is_some() {
        std::fs::create_dir_all(path.parent().unwrap()).unwrap();
        std::fs::write(&path, &text).unwrap();
    }
    let golden = std::fs::read_to_string(&path)
        .expect("golden file missing — run with UPDATE_GOLDEN=1 to create it");
    assert_eq!(
        text, golden,
        "service chrome-trace output drifted from the golden file; \
         rerun with UPDATE_GOLDEN=1 if the change is intentional"
    );

    // The golden bytes are a valid trace carrying the queue-depth counter
    // track ("ph":"C") on the service process, the per-query process, and
    // the shed instant.
    let doc: serde_json::Value = serde_json::from_str(&golden).expect("golden parses");
    let evs = doc["traceEvents"].as_array().expect("traceEvents");
    let counters: Vec<&serde_json::Value> = evs
        .iter()
        .filter(|e| e["ph"] == "C" && e["name"] == "queue-depth")
        .collect();
    assert_eq!(counters.len(), 2, "both queue-depth samples render");
    assert_eq!(counters[0]["args"]["depth"], 1);
    assert_eq!(counters[1]["args"]["depth"], 0);
    assert!(evs.iter().any(|e| e["name"] == "query 0" && e["ph"] == "X"));
    assert!(evs.iter().any(|e| e["name"] == "shed:2"));
    assert!(evs
        .iter()
        .any(|e| e["ph"] == "M" && e["args"]["name"] == "service"));
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// The telemetry histogram's quantile summary is monotone
    /// (p50 ≤ p95 ≤ p99), bounded by the largest observation, and counts
    /// exactly what it observed — for any batch of latencies.
    #[test]
    fn log_histogram_quantiles_are_monotone(
        values in prop::collection::vec(0.0f64..20.0, 1..200)
    ) {
        let mut h = Histogram::new(&LATENCY_BUCKETS_S);
        for v in &values {
            h.observe(*v);
        }
        let s = h.summary();
        prop_assert_eq!(s.count, values.len() as u64);
        // A non-empty window always reports its quantiles.
        let (p50, p95, p99) = (s.p50_s.unwrap(), s.p95_s.unwrap(), s.p99_s.unwrap());
        prop_assert!(p50 <= p95, "p50 {p50} > p95 {p95}");
        prop_assert!(p95 <= p99, "p95 {p95} > p99 {p99}");
        // Quantiles report a log-bucket upper bound: within a factor of
        // 2.5 of the true value on the 1-2-5 grid (overflowing ranks fall
        // back to the exact max).
        let max = values.iter().cloned().fold(0.0f64, f64::max);
        prop_assert!(p99 <= (2.5 * max).max(1e-6), "p99 {p99} vs max {max}");
        prop_assert!(h.quantile(1.0) >= h.quantile(0.5));
    }
}

#[test]
fn exporters_render_corruption_events() {
    let events = vec![
        TraceEvent::CorruptionDetected {
            rung: "cross",
            detector: "checksum",
            level: 2,
            at_s: 0.0020,
        },
        TraceEvent::CorruptionDetected {
            rung: "cpu-only",
            detector: "scrub",
            level: 4,
            at_s: 0.0031,
        },
        TraceEvent::CorruptionRepair {
            rung: "cpu-only",
            action: "rollback",
            to_level: 2,
            attempt: 1,
            at_s: 0.0032,
        },
    ];
    let text = prometheus_text(&events);
    for metric in [
        "xbfs_corruption_detected_total{detector=\"checksum\",rung=\"cross\"} 1",
        "xbfs_corruption_detected_total{detector=\"scrub\",rung=\"cpu-only\"} 1",
        "xbfs_corruption_repairs_total{action=\"rollback\",rung=\"cpu-only\"} 1",
    ] {
        assert!(text.contains(metric), "missing {metric} in:\n{text}");
    }
    let trace = chrome_trace_json(&events);
    let doc: serde_json::Value = serde_json::from_str(&trace).expect("valid JSON");
    let names: Vec<&str> = doc["traceEvents"]
        .as_array()
        .unwrap()
        .iter()
        .filter_map(|e| e["name"].as_str())
        .collect();
    assert!(names.contains(&"corruption:checksum"), "{names:?}");
    assert!(names.contains(&"corruption:scrub"), "{names:?}");
    assert!(names.contains(&"repair:rollback"), "{names:?}");
}

#[test]
fn prometheus_export_covers_the_golden_trace() {
    let text = prometheus_text(&golden_events());
    for metric in [
        "xbfs_levels_total{device=\"gpu\",rung=\"cross\",direction=\"bu\"} 1",
        "xbfs_transfer_attempts_total{ok=\"false\"} 1",
        "xbfs_transfer_attempts_total{ok=\"true\"} 1",
        "xbfs_faults_total{op=\"transfer\",kind=\"transfer-failure\"} 1",
        "xbfs_breaker_transitions_total{device=\"link\",to=\"half-open\"} 1",
        "xbfs_checkpoints_total{rung=\"cross\",spilled=\"false\"} 1",
        "xbfs_rungs_total{rung=\"cross\",outcome=\"served\"} 1",
    ] {
        assert!(text.contains(metric), "missing {metric} in:\n{text}");
    }
}
