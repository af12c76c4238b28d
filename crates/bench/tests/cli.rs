//! End-to-end tests of the `xbfs-cli` binary.

use std::path::PathBuf;
use std::process::{Command, Output};

fn cli() -> Command {
    Command::new(env!("CARGO_BIN_EXE_xbfs-cli"))
}

fn tmpfile(name: &str) -> PathBuf {
    let mut p = std::env::temp_dir();
    p.push(format!("xbfs-cli-test-{}-{name}", std::process::id()));
    p
}

fn run_ok(cmd: &mut Command) -> Output {
    let out = cmd.output().expect("binary runs");
    assert!(
        out.status.success(),
        "command failed: {:?}\nstdout: {}\nstderr: {}",
        cmd,
        String::from_utf8_lossy(&out.stdout),
        String::from_utf8_lossy(&out.stderr)
    );
    out
}

fn stdout_of(cmd: &mut Command) -> String {
    String::from_utf8(run_ok(cmd).stdout).expect("utf8 output")
}

#[test]
fn gen_info_bfs_pipeline() {
    let graph = tmpfile("pipeline.xbfs");
    stdout_of(cli().args([
        "gen",
        "--scale",
        "10",
        "--edgefactor",
        "8",
        "--out",
        graph.to_str().unwrap(),
    ]));

    let info = stdout_of(cli().args(["info", "--graph", graph.to_str().unwrap()]));
    assert!(info.contains("vertices:        1024"), "{info}");
    assert!(info.contains("components:"), "{info}");

    for policy in ["td", "bu", "hybrid", "model"] {
        let bfs = stdout_of(cli().args([
            "bfs",
            "--graph",
            graph.to_str().unwrap(),
            "--source",
            "0",
            "--policy",
            policy,
        ]));
        assert!(bfs.contains("BFS from 0"), "policy {policy}: {bfs}");
        assert!(bfs.contains("level histogram"), "policy {policy}: {bfs}");
    }
    std::fs::remove_file(graph).ok();
}

#[test]
fn text_format_roundtrip() {
    let graph = tmpfile("text.el");
    stdout_of(cli().args([
        "gen",
        "--scale",
        "9",
        "--out",
        graph.to_str().unwrap(),
        "--text",
    ]));
    let info = stdout_of(cli().args(["info", "--graph", graph.to_str().unwrap(), "--text"]));
    assert!(info.contains("edges:"), "{info}");
    std::fs::remove_file(graph).ok();
}

#[test]
fn stcon_and_components() {
    let graph = tmpfile("stcon.xbfs");
    stdout_of(cli().args(["gen", "--scale", "10", "--out", graph.to_str().unwrap()]));
    let out = stdout_of(cli().args([
        "stcon",
        "--graph",
        graph.to_str().unwrap(),
        "--from",
        "0",
        "--to",
        "0",
    ]));
    assert!(out.contains("shortest path 0"), "{out}");
    let comp = stdout_of(cli().args(["components", "--graph", graph.to_str().unwrap()]));
    assert!(comp.contains("component(s)"), "{comp}");
    std::fs::remove_file(graph).ok();
}

#[test]
fn errors_are_clean() {
    // Unknown command.
    let out = cli().arg("frobnicate").output().unwrap();
    assert!(!out.status.success());
    assert!(String::from_utf8_lossy(&out.stderr).contains("unknown command"));

    // Missing required flag.
    let out = cli().args(["gen", "--out", "/tmp/x"]).output().unwrap();
    assert!(!out.status.success());
    assert!(String::from_utf8_lossy(&out.stderr).contains("--scale"));

    // Nonexistent graph file.
    let out = cli()
        .args(["info", "--graph", "/nonexistent/nope.xbfs"])
        .output()
        .unwrap();
    assert!(!out.status.success());

    // Corrupt graph bytes.
    let bad = tmpfile("bad.xbfs");
    std::fs::write(&bad, b"not a graph").unwrap();
    let out = cli()
        .args(["info", "--graph", bad.to_str().unwrap()])
        .output()
        .unwrap();
    assert!(!out.status.success());
    std::fs::remove_file(bad).ok();
}

#[test]
fn bfs_trace_and_metrics_outputs() {
    let graph = tmpfile("bfs-trace.xbfs");
    let trace = tmpfile("bfs-trace.json");
    let metrics = tmpfile("bfs-metrics.prom");
    stdout_of(cli().args(["gen", "--scale", "9", "--out", graph.to_str().unwrap()]));

    let out = stdout_of(cli().args([
        "bfs",
        "--graph",
        graph.to_str().unwrap(),
        "--source",
        "0",
        "--trace-out",
        trace.to_str().unwrap(),
        "--metrics-out",
        metrics.to_str().unwrap(),
    ]));
    assert!(out.contains("wrote chrome trace"), "{out}");

    let trace_text = std::fs::read_to_string(&trace).expect("trace written");
    assert!(trace_text.contains("\"traceEvents\""), "{trace_text}");
    assert!(trace_text.contains("engine-level"), "{trace_text}");
    let metrics_text = std::fs::read_to_string(&metrics).expect("metrics written");
    assert!(
        metrics_text.contains("xbfs_engine_levels_total"),
        "{metrics_text}"
    );

    // --trace-out - puts the JSON on stdout and the narration on stderr;
    // with --quiet stdout is pure JSON and stderr is silent.
    let out = run_ok(cli().args([
        "bfs",
        "--graph",
        graph.to_str().unwrap(),
        "--source",
        "0",
        "--quiet",
        "--trace-out",
        "-",
    ]));
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert!(stdout.trim_start().starts_with('{'), "{stdout}");
    assert!(stdout.contains("\"traceEvents\""), "{stdout}");
    assert!(out.stderr.is_empty(), "quiet run must not narrate");

    std::fs::remove_file(graph).ok();
    std::fs::remove_file(trace).ok();
    std::fs::remove_file(metrics).ok();
}

#[test]
fn bfs_multithreaded_trace_is_valid_chrome_json() {
    // The acceptance criterion: `bfs --threads 4 --trace-out -` emits a
    // valid chrome trace (the old --threads 1 restriction is gone).
    let graph = tmpfile("bfs-mt-trace.xbfs");
    stdout_of(cli().args(["gen", "--scale", "10", "--out", graph.to_str().unwrap()]));

    let out = run_ok(cli().args([
        "bfs",
        "--graph",
        graph.to_str().unwrap(),
        "--source",
        "0",
        "--threads",
        "4",
        "--quiet",
        "--trace-out",
        "-",
    ]));
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert!(stdout.trim_start().starts_with('{'), "{stdout}");
    assert!(stdout.contains("\"traceEvents\""), "{stdout}");
    // Driver spans plus per-worker kernel spans from the pool.
    assert!(stdout.contains("engine-level"), "{stdout}");
    assert!(
        stdout.contains("td-kernel") || stdout.contains("bu-kernel"),
        "{stdout}"
    );
    assert!(out.stderr.is_empty(), "quiet run must not narrate");

    // Multi-threaded metrics export works through the same sink.
    let metrics = tmpfile("bfs-mt-metrics.prom");
    run_ok(cli().args([
        "bfs",
        "--graph",
        graph.to_str().unwrap(),
        "--source",
        "0",
        "--threads",
        "4",
        "--quiet",
        "--metrics-out",
        metrics.to_str().unwrap(),
    ]));
    let metrics_text = std::fs::read_to_string(&metrics).expect("metrics written");
    assert!(
        metrics_text.contains("xbfs_engine_levels_total"),
        "{metrics_text}"
    );

    std::fs::remove_file(graph).ok();
    std::fs::remove_file(metrics).ok();
}

#[test]
fn bfs_zero_threads_is_a_clean_typed_error() {
    let graph = tmpfile("bfs-zero-threads.xbfs");
    stdout_of(cli().args(["gen", "--scale", "9", "--out", graph.to_str().unwrap()]));

    let out = cli()
        .args(["bfs", "--graph", graph.to_str().unwrap(), "--threads", "0"])
        .output()
        .unwrap();
    assert!(!out.status.success(), "--threads 0 must be rejected");
    let stderr = String::from_utf8_lossy(&out.stderr);
    // The typed InvalidArgument error, not a worker panic/abort.
    assert!(stderr.contains("invalid argument"), "{stderr}");
    assert!(stderr.contains("--threads"), "{stderr}");
    assert!(!stderr.contains("panicked"), "{stderr}");

    std::fs::remove_file(graph).ok();
}

#[test]
fn adaptive_emits_trace_and_metrics() {
    let graph = tmpfile("adaptive-trace.xbfs");
    let trace = tmpfile("adaptive-trace.json");
    let metrics = tmpfile("adaptive-metrics.prom");
    stdout_of(cli().args(["gen", "--scale", "9", "--out", graph.to_str().unwrap()]));

    let out = run_ok(cli().args([
        "adaptive",
        "--graph",
        graph.to_str().unwrap(),
        "--checkpoint-interval",
        "2",
        "--trace-out",
        trace.to_str().unwrap(),
        "--metrics-out",
        metrics.to_str().unwrap(),
    ]));
    let narration = String::from_utf8_lossy(&out.stdout);
    assert!(narration.contains("rung:"), "{narration}");

    // The chrome trace is a JSON object with the trace-viewer's two
    // top-level keys and spans from the simulated run.
    let trace_text = std::fs::read_to_string(&trace).expect("trace written");
    assert!(trace_text.trim_start().starts_with('{'), "{trace_text}");
    assert!(trace_text.contains("\"traceEvents\""), "{trace_text}");
    assert!(trace_text.contains("\"displayTimeUnit\""), "{trace_text}");
    assert!(trace_text.contains("rung:cross"), "{trace_text}");
    assert!(trace_text.contains("\"checkpoint\""), "{trace_text}");

    let metrics_text = std::fs::read_to_string(&metrics).expect("metrics written");
    assert!(metrics_text.contains("xbfs_levels_total"), "{metrics_text}");
    assert!(
        metrics_text.contains("xbfs_checkpoints_total"),
        "{metrics_text}"
    );
    assert!(metrics_text.contains("# TYPE"), "{metrics_text}");

    std::fs::remove_file(graph).ok();
    std::fs::remove_file(trace).ok();
    std::fs::remove_file(metrics).ok();
}

#[test]
fn bench_compare_against_committed_baseline_passes() {
    let bench_dir = tmpfile("bench-dir");
    let baseline = concat!(env!("CARGO_MANIFEST_DIR"), "/../../bench/baseline.json");

    let out = run_ok(cli().args([
        "bench",
        "--compare",
        baseline,
        "--bench-dir",
        bench_dir.to_str().unwrap(),
        "--threads-scaling",
    ]));
    let narration = String::from_utf8_lossy(&out.stdout);
    assert!(narration.contains("perf gate passed"), "{narration}");
    assert!(narration.contains("work-stealing"), "{narration}");

    // The scaling sweep writes its own informational artifact; it is not
    // part of the BenchReport schema, so the deterministic gate above
    // passed against the unchanged committed baseline.
    let scaling_path = bench_dir.join("SCALING.json");
    let scaling_text = std::fs::read_to_string(&scaling_path).expect("SCALING.json written");
    let scaling =
        xbfs_bench::perf::ScalingReport::from_json(&scaling_text).expect("scaling parses");
    assert_eq!(scaling.cases.len(), xbfs_bench::perf::SCALING_THREADS.len());
    assert!(scaling.cases.iter().all(|c| c.wall_seconds > 0.0));

    // The run leaves a versioned snapshot behind.
    let snapshot = bench_dir.join("BENCH_1.json");
    let report = xbfs_bench::perf::BenchReport::load(&snapshot).expect("snapshot parses");
    assert_eq!(report.cases.len(), 6, "three scales x two plans");

    // Acceptance bar: on every preset graph the audited prediction stays
    // within 90% of the exhaustive oracle's TEPS.
    for case in &report.cases {
        assert!(
            case.audit.meets(0.9),
            "{}: predicted/oracle efficiency {:.4} below 0.9",
            case.id,
            case.audit.efficiency
        );
    }

    std::fs::remove_dir_all(bench_dir).ok();
}

#[test]
fn bench_overlay_slowdown_trips_gate() {
    let bench_dir = tmpfile("bench-slow-dir");
    let plan = tmpfile("bench-slowdown.json");
    let baseline = concat!(env!("CARGO_MANIFEST_DIR"), "/../../bench/baseline.json");
    std::fs::write(
        &plan,
        r#"{"seed":7,"p_transfer_failure":0.0,"p_link_stall":1.0,"stall_factor":10.0,
           "p_kernel_timeout":0.0,"p_device_lost":0.0,"scheduled":[]}"#,
    )
    .unwrap();

    let out = cli()
        .args([
            "bench",
            "--fault-plan",
            plan.to_str().unwrap(),
            "--compare",
            baseline,
            "--bench-dir",
            bench_dir.to_str().unwrap(),
            "--quiet",
        ])
        .output()
        .unwrap();
    assert!(!out.status.success(), "a 10x link stall must trip the gate");
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(stderr.contains("perf regression"), "{stderr}");
    // The failure names the specific metrics that moved, not just "failed".
    assert!(stderr.contains("total_seconds"), "{stderr}");
    assert!(stderr.contains("transfer/link"), "{stderr}");

    std::fs::remove_dir_all(bench_dir).ok();
    std::fs::remove_file(plan).ok();
}

#[test]
fn repro_trace_out_writes_recovery_trace() {
    let trace_dir = tmpfile("repro-traces");
    let artifacts = tmpfile("repro-artifacts");

    let out = Command::new(env!("CARGO_BIN_EXE_repro"))
        .args([
            "recovery",
            "fig1",
            "--artifacts",
            artifacts.to_str().unwrap(),
            "--trace-out",
            trace_dir.to_str().unwrap(),
        ])
        .output()
        .unwrap();
    assert!(
        out.status.success(),
        "{}",
        String::from_utf8_lossy(&out.stderr)
    );
    let narration = String::from_utf8_lossy(&out.stdout);

    // recovery drives the resilient runtime, so it leaves a chrome trace;
    // fig1 is analytic and narrates why it has none.
    let trace = trace_dir.join("recovery.trace.json");
    let text = std::fs::read_to_string(&trace).expect("recovery trace written");
    assert!(text.contains("\"traceEvents\""), "{text}");
    assert!(!trace_dir.join("fig1.trace.json").exists());
    assert!(
        narration.contains("fig1: analytic experiment"),
        "{narration}"
    );
    assert!(
        narration.contains("1 experiment(s) produced a non-empty trace"),
        "{narration}"
    );

    // --trace-out - claims stdout; --quiet leaves it pure JSON.
    let out = Command::new(env!("CARGO_BIN_EXE_repro"))
        .args([
            "recovery",
            "--artifacts",
            artifacts.to_str().unwrap(),
            "--quiet",
            "--trace-out",
            "-",
        ])
        .output()
        .unwrap();
    assert!(out.status.success());
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert!(stdout.trim_start().starts_with('{'), "{stdout}");
    assert!(stdout.contains("\"traceEvents\""), "{stdout}");
    assert!(out.stderr.is_empty(), "quiet run must not narrate");

    std::fs::remove_dir_all(trace_dir).ok();
    std::fs::remove_dir_all(artifacts).ok();
}

#[test]
fn serve_telemetry_stream_is_byte_identical_across_runs() {
    let graph = tmpfile("serve-telemetry.xbfs");
    let ts1 = tmpfile("serve-telemetry-1.jsonl");
    let ts2 = tmpfile("serve-telemetry-2.jsonl");
    let metrics = tmpfile("serve-telemetry.prom");
    stdout_of(cli().args(["gen", "--scale", "10", "--out", graph.to_str().unwrap()]));

    let serve = |ts: &PathBuf| {
        run_ok(cli().args([
            "serve",
            "--graph",
            graph.to_str().unwrap(),
            "--arrivals",
            "24",
            "--rate",
            "2000",
            "--seed",
            "11",
            "--capacity",
            "1",
            "--queue-depth",
            "3",
            "--snapshot-every",
            "0.005",
            "--slo-deadline-ratio",
            "0.9",
            "--slo-latency",
            "0.05",
            "--slo-latency-ratio",
            "0.9",
            "--timeseries-out",
            ts.to_str().unwrap(),
            "--metrics-out",
            metrics.to_str().unwrap(),
            "--quiet",
        ]));
    };
    serve(&ts1);
    serve(&ts2);

    let a = std::fs::read(&ts1).expect("first stream written");
    let b = std::fs::read(&ts2).expect("second stream written");
    assert!(!a.is_empty(), "telemetry stream must not be empty");
    assert_eq!(a, b, "seeded telemetry streams must replay byte-for-byte");
    let text = String::from_utf8(a).unwrap();
    assert!(text.contains("\"kind\":\"window\""), "{text}");
    assert!(text.contains("\"kind\":\"slo\""), "{text}");

    // The metrics export carries the service latency histogram and the
    // SLO families alongside the admission counters.
    let metrics_text = std::fs::read_to_string(&metrics).expect("metrics written");
    assert!(
        metrics_text.contains("xbfs_service_admitted_total"),
        "{metrics_text}"
    );
    assert!(
        metrics_text.contains("xbfs_service_latency_seconds_bucket"),
        "{metrics_text}"
    );
    assert!(
        metrics_text.contains("xbfs_slo_deadline_target"),
        "{metrics_text}"
    );
    assert!(metrics_text.contains("xbfs_slo_met"), "{metrics_text}");

    // The dashboard renders the stream it just wrote.
    let dashboard = stdout_of(cli().args(["report", "--timeseries", ts1.to_str().unwrap()]));
    assert!(dashboard.contains("telemetry report:"), "{dashboard}");
    assert!(dashboard.contains("SLO verdict:"), "{dashboard}");

    std::fs::remove_file(graph).ok();
    std::fs::remove_file(ts1).ok();
    std::fs::remove_file(ts2).ok();
    std::fs::remove_file(metrics).ok();
}

#[test]
fn serve_trace_sample_zero_matches_unsampled_report_bytes() {
    // `--trace-sample 0` gates only which per-query trace buffers are
    // retained — scheduling, results, and the service report are
    // untouched. The report from a fully sampled-out run must byte-match
    // the default (keep-everything) run.
    let graph = tmpfile("serve-sample-zero.xbfs");
    let trace0 = tmpfile("serve-sample-zero.trace.json");
    let trace1 = tmpfile("serve-sample-one.trace.json");
    stdout_of(cli().args(["gen", "--scale", "10", "--out", graph.to_str().unwrap()]));

    let serve = |trace: &PathBuf, sample: Option<&str>| {
        let mut args = vec![
            "serve",
            "--graph",
            graph.to_str().unwrap(),
            "--arrivals",
            "12",
            "--rate",
            "2000",
            "--seed",
            "11",
            "--capacity",
            "1",
            "--queue-depth",
            "4",
            "--trace-out",
            trace.to_str().unwrap(),
            "--report-json",
            "-",
            "--quiet",
        ];
        if let Some(rate) = sample {
            args.extend(["--trace-sample", rate]);
        }
        stdout_of(cli().args(args))
    };
    let sampled_out = serve(&trace0, Some("0"));
    let unsampled = serve(&trace1, None);
    assert!(!unsampled.is_empty(), "report must reach stdout");
    assert_eq!(
        sampled_out, unsampled,
        "sampling must not perturb the service report"
    );

    // The knob itself did something: the sampled-out chrome trace dropped
    // every per-query event stream the unsampled run kept.
    let t0 = std::fs::read_to_string(&trace0).unwrap();
    let t1 = std::fs::read_to_string(&trace1).unwrap();
    assert!(
        t0.len() < t1.len(),
        "rate 0 must shed per-query events ({} vs {} bytes)",
        t0.len(),
        t1.len()
    );

    std::fs::remove_file(graph).ok();
    std::fs::remove_file(trace0).ok();
    std::fs::remove_file(trace1).ok();
}

#[test]
fn serve_flight_recorder_writes_postmortems() {
    let graph = tmpfile("serve-postmortem.xbfs");
    let dir = tmpfile("serve-postmortems");
    stdout_of(cli().args(["gen", "--scale", "10", "--out", graph.to_str().unwrap()]));

    // A vanishing per-request deadline makes every started query expire
    // mid-run with a typed error — the flight recorder dumps each one.
    let out = stdout_of(cli().args([
        "serve",
        "--graph",
        graph.to_str().unwrap(),
        "--arrivals",
        "4",
        "--seed",
        "7",
        "--request-deadline",
        "0.0000001",
        "--flight-recorder",
        "64",
        "--postmortem-dir",
        dir.to_str().unwrap(),
    ]));
    assert!(out.contains("wrote post-mortem for query"), "{out}");

    let dumps: Vec<_> = std::fs::read_dir(&dir)
        .expect("post-mortem dir created")
        .filter_map(|e| e.ok())
        .filter(|e| {
            e.file_name()
                .to_string_lossy()
                .starts_with("postmortem-query-")
        })
        .collect();
    assert!(!dumps.is_empty(), "expired queries must leave dumps");
    let text = std::fs::read_to_string(dumps[0].path()).unwrap();
    assert!(
        text.contains("\"disposition\": \"deadline-missed\""),
        "{text}"
    );
    assert!(text.contains("\"events\""), "{text}");
    assert!(text.contains("\"flight_recorder_capacity\": 64"), "{text}");

    // --postmortem-dir without a recorder is a flag error, not a silent
    // no-op directory.
    let bad = cli()
        .args([
            "serve",
            "--graph",
            graph.to_str().unwrap(),
            "--arrivals",
            "1",
            "--postmortem-dir",
            dir.to_str().unwrap(),
        ])
        .output()
        .unwrap();
    assert!(!bad.status.success());
    assert!(
        String::from_utf8_lossy(&bad.stderr).contains("--flight-recorder"),
        "{}",
        String::from_utf8_lossy(&bad.stderr)
    );

    std::fs::remove_file(graph).ok();
    std::fs::remove_dir_all(dir).ok();
}

#[test]
fn report_dashboard_renders_pinned_quantiles() {
    // A hand-written two-window stream with known quantiles pins the
    // dashboard's parsing and formatting end to end.
    let ts = tmpfile("report-fixture.jsonl");
    std::fs::write(
        &ts,
        concat!(
            r#"{"kind":"window","index":0,"start_s":0.0,"end_s":0.5,"queue_depth_mean":1.0,"queue_depth_peak":3,"in_flight_mean":1.8,"in_flight_peak":2,"admitted":6,"shed":1,"completed":5,"deadline_missed":0,"deadline_shed":0,"latency_slo_missed":0,"admit_rate_hz":12.0,"shed_rate_hz":2.0,"complete_rate_hz":10.0,"batch_dispatches":0,"batch_lanes":0,"corruption_detected":0,"corruption_repaired":0,"latency":{"count":5,"sum_s":0.1,"p50_s":0.005,"p95_s":0.05,"p99_s":0.5},"queue_wait":{"count":5,"sum_s":0.01,"p50_s":0.001,"p95_s":0.002,"p99_s":0.002}}"#,
            "\n",
            r#"{"kind":"window","index":1,"start_s":0.5,"end_s":1.0,"queue_depth_mean":4.0,"queue_depth_peak":7,"in_flight_mean":2.0,"in_flight_peak":2,"admitted":8,"shed":2,"completed":6,"deadline_missed":1,"deadline_shed":0,"latency_slo_missed":2,"admit_rate_hz":16.0,"shed_rate_hz":4.0,"complete_rate_hz":12.0,"batch_dispatches":0,"batch_lanes":0,"corruption_detected":0,"corruption_repaired":0,"latency":{"count":6,"sum_s":0.5,"p50_s":0.01,"p95_s":0.1,"p99_s":1.0},"queue_wait":{"count":6,"sum_s":0.05,"p50_s":0.005,"p95_s":0.01,"p99_s":0.01}}"#,
            "\n",
            r#"{"kind":"slo","policy":{"deadline_hit_ratio":0.99,"latency_objective_s":0.05,"latency_hit_ratio":0.95},"deadline_eligible":11,"deadline_missed":1,"deadline_hit_ratio":0.9090909090909091,"deadline_met":false,"latency_eligible":11,"latency_missed":2,"latency_hit_ratio":0.8181818181818182,"latency_met":false,"met":false,"windows":[{"index":0,"start_s":0.0,"end_s":0.5,"deadline_burn":0.0,"latency_burn":0.0},{"index":1,"start_s":0.5,"end_s":1.0,"deadline_burn":16.67,"latency_burn":6.67}]}"#,
            "\n",
        ),
    )
    .unwrap();

    let out = stdout_of(cli().args(["report", "--timeseries", ts.to_str().unwrap()]));
    assert!(
        out.contains("telemetry report: 2 window(s), 0.000 s – 1.000 s"),
        "{out}"
    );
    // Window means 1.0 and 4.0 scale to ▃ and █ against the max.
    assert!(
        out.contains("queue depth: ▃█ (mean per window, peak 7)"),
        "{out}"
    );
    // Rates table carries the per-window throughput.
    assert!(out.contains("12.00"), "{out}");
    assert!(out.contains("16.00"), "{out}");
    // Quantiles render exactly as written.
    assert!(out.contains("0.005000"), "{out}");
    assert!(out.contains("0.050000"), "{out}");
    assert!(out.contains("0.500000"), "{out}");
    assert!(out.contains("1.000000"), "{out}");
    // The verdict names both ratios against their targets and the worst
    // burn windows.
    assert!(out.contains("SLO verdict: VIOLATED"), "{out}");
    assert!(out.contains("deadline hit 0.9091 (target 0.99)"), "{out}");
    assert!(
        out.contains("latency hit 0.8182 (target 0.95, objective 0.05 s)"),
        "{out}"
    );
    assert!(
        out.contains("peak burn: deadline 16.67x (window 1), latency 6.67x (window 1)"),
        "{out}"
    );

    // A window that completed nothing writes no quantile keys at all; the
    // dashboard renders those cells as `-` rather than a fabricated 0.
    let quiet = tmpfile("report-quiet.jsonl");
    std::fs::write(
        &quiet,
        concat!(
            r#"{"kind":"window","index":0,"start_s":0.0,"end_s":0.5,"queue_depth_mean":0.0,"queue_depth_peak":0,"in_flight_mean":0.0,"in_flight_peak":0,"admitted":0,"shed":0,"completed":0,"deadline_missed":0,"deadline_shed":0,"latency_slo_missed":0,"admit_rate_hz":0.0,"shed_rate_hz":0.0,"complete_rate_hz":0.0,"batch_dispatches":0,"batch_lanes":0,"corruption_detected":0,"corruption_repaired":0,"latency":{"count":0,"sum_s":0.0},"queue_wait":{"count":0,"sum_s":0.0}}"#,
            "\n",
        ),
    )
    .unwrap();
    let out = stdout_of(cli().args(["report", "--timeseries", quiet.to_str().unwrap()]));
    let quantile_row = out
        .lines()
        .skip_while(|l| !l.contains("p50 (s)"))
        .nth(1)
        .expect("quantile table has a data row");
    assert_eq!(
        quantile_row.split_whitespace().collect::<Vec<_>>(),
        vec!["0", "0", "-", "-", "-", "-"],
        "{out}"
    );
    std::fs::remove_file(&quiet).ok();

    // A stream with no windows is a clean error.
    let empty = tmpfile("report-empty.jsonl");
    std::fs::write(&empty, "").unwrap();
    let bad = cli()
        .args(["report", "--timeseries", empty.to_str().unwrap()])
        .output()
        .unwrap();
    assert!(!bad.status.success());
    assert!(
        String::from_utf8_lossy(&bad.stderr).contains("no telemetry windows"),
        "{}",
        String::from_utf8_lossy(&bad.stderr)
    );

    std::fs::remove_file(ts).ok();
    std::fs::remove_file(empty).ok();
}

#[test]
fn repro_binary_lists_and_rejects() {
    let repro = Command::new(env!("CARGO_BIN_EXE_repro"))
        .arg("--help")
        .output()
        .unwrap();
    assert!(repro.status.success());
    let help = String::from_utf8_lossy(&repro.stdout);
    assert!(help.contains("table4"), "{help}");

    let bad = Command::new(env!("CARGO_BIN_EXE_repro"))
        .arg("not-an-experiment")
        .output()
        .unwrap();
    assert!(!bad.status.success());
}
