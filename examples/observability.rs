//! Observability walkthrough: run the resilient cross-architecture ladder
//! under a chaotic fault plan with a [`MemorySink`] attached, then mine
//! the recorded trace three ways — a [`DecisionAudit`] of the predictor's
//! (M, N) choice against the exhaustive oracle, whose attribution puts
//! every simulated second on a phase and device lane, a chrome://tracing
//! JSON file you can drop into <https://ui.perfetto.dev>, and a
//! Prometheus text snapshot.
//!
//! The second act replays a seeded burst through the query service with
//! the live-telemetry stack on: windowed time-series snapshots, SLO
//! targets, and a bounded per-query flight recorder. One query carries a
//! vanishing deadline, expires mid-run, and leaves a post-mortem dump of
//! its final trace events.
//!
//! ```text
//! cargo run --release --example observability
//! ```

use xbfs::prelude::*;

fn main() {
    let graph = xbfs::graph::rmat::rmat_csr(12, 16);
    let stats = GraphStats::rmat(&graph, 0.57, 0.19, 0.19, 0.05);
    let src = xbfs::core::training::pick_source(&graph, 3).unwrap();

    // Train the switching-point predictor and time the prediction — the
    // audit reports its overhead as a fraction of the traversal.
    let rt = AdaptiveRuntime::quick_trained();
    let started = std::time::Instant::now();
    let params = rt.predict_params(&stats);
    let prediction_overhead_s = started.elapsed().as_secs_f64();

    // A probabilistic fault plan: flaky transfers, occasional kernel
    // timeouts, a small chance the GPU dies outright.
    let plan = FaultPlan {
        seed: 42,
        p_transfer_failure: 0.3,
        p_link_stall: 0.2,
        stall_factor: 4.0,
        p_kernel_timeout: 0.15,
        p_device_lost: 0.1,
        scheduled: Vec::new(),
    };

    // Attach a buffering sink; everything else is the ordinary session.
    let sink = MemorySink::new();
    let run = rt
        .session(&graph, &stats)
        .source(src)
        .params(params)
        .fault_plan(&plan)
        .checkpoints(CheckpointPolicy::every(2))
        .sink(&sink)
        .run()
        .expect("no-deadline chaos always serves");

    println!(
        "served by rung {} in {:.3} ms simulated ({} faults, {} retries, {} checkpoints)",
        run.report.rung,
        run.report.total_seconds * 1e3,
        run.report.events.len(),
        run.report.retries,
        run.report.checkpoints_taken,
    );

    let events = sink.take();
    println!("trace: {} events recorded", events.len());

    // Audit the switching decision: replay the predictor's (M, N) pairs
    // and the exhaustive 900-candidate oracle through the cost model,
    // then attribute the recorded run's simulated time phase by phase.
    let profile = xbfs::archsim::profile(&graph, src);
    let audit = decision_audit(
        &profile,
        &rt.cpu,
        &rt.gpu,
        &rt.link,
        &params,
        &events,
        &run.report,
        prediction_overhead_s,
    );
    println!("\n--- decision audit ---");
    println!(
        "predicted: handoff (M1={:.0}, N1={:.0}), GPU (M2={:.0}, N2={:.0})",
        audit.predicted.handoff.m,
        audit.predicted.handoff.n,
        audit.predicted.gpu.m,
        audit.predicted.gpu.n,
    );
    println!(
        "oracle:    handoff (M1={:.0}, N1={:.0}), GPU (M2={:.0}, N2={:.0})",
        audit.oracle.handoff.m, audit.oracle.handoff.n, audit.oracle.gpu.m, audit.oracle.gpu.n,
    );
    println!(
        "efficiency {:.4} (predicted {:.3} ms vs oracle {:.3} ms, regret {:.3} ms)",
        audit.efficiency,
        audit.predicted_seconds * 1e3,
        audit.oracle_seconds * 1e3,
        audit.regret_seconds * 1e3,
    );
    println!(
        "switch level: predicted {:?}, oracle {:?}, realized {:?} (served by {})",
        audit.predicted_switch_level,
        audit.oracle_switch_level,
        audit.realized_switch_level,
        audit.served_rung,
    );
    println!(
        "prediction overhead: {:.3} ms wall ({:.4}% of the run)",
        audit.prediction_overhead_s * 1e3,
        audit.prediction_overhead_fraction * 1e2,
    );
    println!("phase attribution (simulated ms by phase/device):");
    println!("  {:<12} {:<8} {:>10}", "phase", "device", "ms");
    for p in &audit.phases {
        println!(
            "  {:<12} {:<8} {:>10.4}",
            p.phase,
            p.device,
            p.seconds * 1e3
        );
    }

    // The simulated clock is serial and every charge of a fresh run has a
    // kernel, transfer, backoff or checkpoint span, so the attributed
    // total is the whole makespan: the run's critical path.
    println!(
        "attributed: {:.3} ms of {:.3} ms simulated",
        audit.attributed_s() * 1e3,
        audit.total_seconds * 1e3,
    );

    // Chrome trace: load this file at https://ui.perfetto.dev (or
    // chrome://tracing) to see rung spans, per-device level spans,
    // transfers, retries, and checkpoints on a common timeline.
    let trace_path = std::env::temp_dir().join("xbfs-observability-trace.json");
    std::fs::write(&trace_path, chrome_trace_json(&events)).unwrap();
    println!("wrote chrome trace to {}", trace_path.display());

    // Prometheus: a text-exposition snapshot of the same run.
    let metrics = prometheus_text(&events);
    println!("\n--- prometheus snapshot (counters only) ---");
    for line in metrics.lines() {
        if !line.starts_with('#') && !line.contains("_bucket") {
            println!("{line}");
        }
    }

    // --- act two: live service telemetry ---
    // A seeded burst through the query service: query 0 carries a
    // vanishing deadline, so it starts immediately, expires mid-run with
    // a typed error, and the flight recorder dumps its last events as a
    // post-mortem. Everything runs on the simulated clock — rerunning
    // this example reproduces every window and dump byte-for-byte.
    let service_graph = std::sync::Arc::new(graph);
    let config = ServiceConfig {
        capacity: 1,
        snapshot: SnapshotPolicy {
            every_seconds: 0.002,
        },
        slo: Some(SloPolicy::default()),
        flight_recorder: 32,
        ..ServiceConfig::default()
    };
    let service = QueryService::from_runtime(&rt, service_graph, &stats, config);
    let mut schedule = Vec::new();
    for i in 0..4u64 {
        let mut req = QueryRequest::builder(i, src)
            .arrival(i as f64 * 0.001)
            .build();
        if i == 0 {
            req.deadline_s = Some(1e-7); // doomed: expires mid-run
        }
        schedule.push(ScheduleItem::Query(req));
    }
    let report = service.run_schedule(&schedule).expect("schedule replays");

    println!("\n--- service telemetry ---");
    println!(
        "{} window(s); mean queue depth {:.2}; mean in-flight {:.2}",
        report.timeseries.len(),
        report.mean_queue_depth,
        report.mean_in_flight,
    );
    for w in &report.timeseries {
        let p95 = w
            .latency
            .p95_s
            .map(|v| format!("{v:.6} s"))
            .unwrap_or_else(|| "-".to_string());
        println!(
            "  window {} [{:.3}-{:.3} s]: admit {:.0}/s, complete {:.0}/s, \
             latency p95 {p95}",
            w.index, w.start_s, w.end_s, w.admit_rate_hz, w.complete_rate_hz,
        );
    }
    if let Some(slo) = &report.slo {
        println!(
            "SLO {}: deadline hit {:.4} (target {}), latency hit {:.4} (target {})",
            if slo.met { "met" } else { "VIOLATED" },
            slo.deadline_hit_ratio,
            slo.policy.deadline_hit_ratio,
            slo.latency_hit_ratio,
            slo.policy.latency_hit_ratio,
        );
    }
    for pm in &report.postmortems {
        println!(
            "post-mortem: query {} ({}) — {} event(s) retained, {} earlier dropped — {}",
            pm.query,
            pm.disposition,
            pm.events.len(),
            pm.dropped,
            pm.error,
        );
        for ev in pm.events.iter().rev().take(3).rev() {
            let line = serde_json::to_string(&trace_event_json(ev)).expect("event serializes");
            println!("  … {line}");
        }
    }
}
