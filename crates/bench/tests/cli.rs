//! End-to-end tests of the `xbfs-cli` binary.

use std::io::Write;
use std::path::PathBuf;
use std::process::{Command, Output, Stdio};

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
fn flags_a_command_does_not_take_fail_before_any_work() {
    let graph = tmpfile("unknown-flags.xbfs");
    stdout_of(cli().args(["gen", "--scale", "9", "--out", graph.to_str().unwrap()]));
    let graph = graph.to_str().unwrap();
    for (argv, flag) in [
        (
            vec!["bfs", "--graph", graph, "--sources", "0,1"],
            "--sources",
        ),
        (vec!["bfs", "--graph", graph, "--sourc", "5"], "--sourc"),
        (
            vec!["adaptive", "--graph", graph, "--checkpoint-intervals", "2"],
            "--checkpoint-intervals",
        ),
    ] {
        let out = cli().args(&argv).output().unwrap();
        assert!(!out.status.success(), "{argv:?} must be rejected");
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert!(
            stderr.contains(&format!("does not take {flag}")),
            "{argv:?}: {stderr}"
        );
        // Rejected before any work: no traversal, no training narration.
        assert!(out.stdout.is_empty(), "{argv:?} ran anyway");
        assert!(!stderr.contains("panicked"), "{stderr}");
    }
    std::fs::remove_file(graph).ok();
}

#[test]
fn a_closed_stdout_ends_the_narration_not_the_command() {
    // `report --timeseries -` reads its whole stream from stdin before it
    // prints, so closing stdout's read end first makes every line of the
    // dashboard hit a broken pipe.
    let stream = concat!(
        r#"{"kind":"window","index":0,"start_s":0.0,"end_s":0.5,"queue_depth_mean":1.0,"queue_depth_peak":3,"in_flight_mean":1.0,"in_flight_peak":1,"admitted":2,"shed":0,"completed":2,"deadline_missed":0,"deadline_shed":0,"latency_slo_missed":0,"admit_rate_hz":4.0,"shed_rate_hz":0.0,"complete_rate_hz":4.0,"batch_dispatches":0,"batch_lanes":0,"corruption_detected":0,"corruption_repaired":0,"latency":{"count":2,"sum_s":0.1,"p50_s":0.05,"p95_s":0.05,"p99_s":0.05},"queue_wait":{"count":2,"sum_s":0.0,"p50_s":0.0,"p95_s":0.0,"p99_s":0.0}}"#,
        "\n",
    );
    let mut child = cli()
        .args(["report", "--timeseries", "-"])
        .stdin(Stdio::piped())
        .stdout(Stdio::piped())
        .stderr(Stdio::piped())
        .spawn()
        .unwrap();
    drop(child.stdout.take());
    let mut stdin = child.stdin.take().unwrap();
    stdin.write_all(stream.as_bytes()).unwrap();
    drop(stdin);
    let out = child.wait_with_output().unwrap();
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(out.status.success(), "report failed: {stderr}");
    assert!(!stderr.contains("panicked"), "{stderr}");

    // A command that writes a file still writes it, and still exits 0.
    let graph = tmpfile("closed-stdout.xbfs");
    let mut child = cli()
        .args(["gen", "--scale", "9", "--out", graph.to_str().unwrap()])
        .stdout(Stdio::piped())
        .stderr(Stdio::piped())
        .spawn()
        .unwrap();
    drop(child.stdout.take());
    let out = child.wait_with_output().unwrap();
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(out.status.success(), "gen failed: {stderr}");
    assert!(!stderr.contains("panicked"), "{stderr}");
    assert!(graph.exists(), "gen must still write its graph");
    std::fs::remove_file(graph).ok();
}

#[test]
fn a_closed_stdout_does_not_fail_repro() {
    // The first narration line already meets the closed pipe, as
    // `repro … | head -n 1` makes every line after the first do.
    let dir = tmpfile("closed-stdout-artifacts");
    let mut child = Command::new(env!("CARGO_BIN_EXE_repro"))
        .args(["fig3", "--artifacts", dir.to_str().unwrap()])
        .stdout(Stdio::piped())
        .stderr(Stdio::piped())
        .spawn()
        .unwrap();
    drop(child.stdout.take());
    let out = child.wait_with_output().unwrap();
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(out.status.success(), "repro failed: {stderr}");
    assert!(!stderr.contains("panicked"), "{stderr}");
    assert!(
        dir.join("fig3.json").exists(),
        "repro must still write its artifact"
    );
    std::fs::remove_dir_all(dir).ok();
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
    ]));
    let narration = String::from_utf8_lossy(&out.stdout);
    assert!(narration.contains("perf gate passed"), "{narration}");

    // The run leaves one versioned snapshot behind, holding every section.
    let files: Vec<_> = std::fs::read_dir(&bench_dir)
        .unwrap()
        .map(|e| e.unwrap().file_name())
        .collect();
    assert_eq!(files, ["BENCH_1.json"]);
    let snapshot = bench_dir.join("BENCH_1.json");
    let report =
        xbfs_bench::perf::BenchReport::load_baseline(&snapshot, "scaled").expect("snapshot loads");
    assert_eq!(report.cases.len(), 6, "three scales x two plans");
    assert_eq!(report.batched.cases.len(), 3, "2, 4 and 8 lanes");
    assert_eq!(report.policy.families.len(), 3, "rmat, road, small-world");

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
fn bench_input_errors_fail_before_the_suite_runs() {
    let baseline = concat!(env!("CARGO_MANIFEST_DIR"), "/../../bench/baseline.json");
    // A baseline in the first report format, which held only the cases.
    let old = tmpfile("format-1-baseline.json");
    let v1 = r#"{"format_version": 1, "preset": "scaled", "harmonic_mean_teps": 1.0, "cases": []}"#;
    std::fs::write(&old, v1).unwrap();
    let (old, missing) = (old.to_str().unwrap(), "/nonexistent/baseline.json");
    let bench_dir = tmpfile("bench-input-errors");
    for (flags, named) in [
        (
            &["--compare", baseline, "--tolerance", "nan"][..],
            "--tolerance",
        ),
        (
            &["--compare", baseline, "--tolerance", "inf"],
            "--tolerance",
        ),
        (&["--compare", baseline, "--tolerance", "-1"], "--tolerance"),
        (&["--compare", baseline, "--tolerance", "x"], "--tolerance"),
        (&["--compare", missing], missing),
        (&["--compare", old], old),
        (&["--compare", baseline, "--preset", "paper"], "preset"),
        (&["--batched"], "--batched"),
        (&["--policy"], "--policy"),
        (&["--policy", "x"], "--policy"),
    ] {
        let out = cli()
            .arg("bench")
            .args(flags)
            .args(["--bench-dir", bench_dir.to_str().unwrap()])
            .output()
            .unwrap();
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert_eq!(out.status.code(), Some(1), "{flags:?}: {stderr}");
        assert!(stderr.contains(named), "{flags:?}: {stderr}");
        assert!(out.stdout.is_empty(), "{flags:?} ran the suite");
        assert!(!bench_dir.exists(), "{flags:?} wrote a BENCH file");
    }
    std::fs::remove_file(old).ok();
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
    // `--trace-sample 0` gates only which per-query traces are kept for
    // the chrome trace — scheduling, results, the service report and the
    // metrics are untouched. The report and the metrics from a fully
    // sampled-out run must byte-match the default (keep-everything) run.
    let graph = tmpfile("serve-sample-zero.xbfs");
    let trace0 = tmpfile("serve-sample-zero.trace.json");
    let trace1 = tmpfile("serve-sample-one.trace.json");
    let prom0 = tmpfile("serve-sample-zero.prom");
    let prom1 = tmpfile("serve-sample-one.prom");
    stdout_of(cli().args(["gen", "--scale", "10", "--out", graph.to_str().unwrap()]));

    let serve = |trace: &PathBuf, prom: &PathBuf, sample: Option<&str>| {
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
            "--metrics-out",
            prom.to_str().unwrap(),
            "--report-json",
            "-",
            "--quiet",
        ];
        if let Some(rate) = sample {
            args.extend(["--trace-sample", rate]);
        }
        stdout_of(cli().args(args))
    };
    let sampled_out = serve(&trace0, &prom0, Some("0"));
    let unsampled = serve(&trace1, &prom1, None);
    assert!(!unsampled.is_empty(), "report must reach stdout");
    assert_eq!(
        sampled_out, unsampled,
        "sampling must not perturb the service report"
    );
    let m0 = std::fs::read_to_string(&prom0).expect("sampled-out metrics written");
    let m1 = std::fs::read_to_string(&prom1).expect("unsampled metrics written");
    assert!(m1.contains("xbfs_levels_total"), "{m1}");
    assert_eq!(m0, m1, "sampling must not thin the metrics");

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

    // --trace-sample thins only the kept traces, so without --trace-out
    // it is a flag error naming both flags, before any work: the graph
    // path is never read.
    let bad = cli()
        .args([
            "serve",
            "--graph",
            tmpfile("serve-sample-missing.xbfs").to_str().unwrap(),
            "--arrivals",
            "1",
            "--trace-sample",
            "0.5",
            "--metrics-out",
            prom0.to_str().unwrap(),
        ])
        .output()
        .unwrap();
    assert!(!bad.status.success());
    let stderr = String::from_utf8_lossy(&bad.stderr);
    assert!(
        stderr.contains("--trace-sample") && stderr.contains("--trace-out"),
        "{stderr}"
    );
    assert!(bad.stdout.is_empty(), "rejected before any work");

    for f in [graph, trace0, trace1, prom0, prom1] {
        std::fs::remove_file(f).ok();
    }
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
fn serve_flag_errors_fail_before_the_graph_is_read() {
    // Every flag parses into the service config or the schedule, which
    // validate before the graph is read: a bad value is reported even
    // with a missing graph, names its flag and runs nothing.
    let chaos = concat!(env!("CARGO_MANIFEST_DIR"), "/../../tests/chaos");
    for (flags, named) in [
        (
            &["--arrivals", "4", "--drain-mode", "bogus"][..],
            "--drain-mode",
        ),
        (&["--arrivals", "4", "--policy", "bogus"], "--policy"),
        (
            &["--arrivals", "4", "--batch-window", "x"],
            "--batch-window",
        ),
        (&["--arrivals", "4", "--retries", "x"], "--retries"),
        (
            &["--arrivals", "4", "--capacity", "0"],
            "capacity must be at least 1",
        ),
        (&["--arrivals", "4", "--rate", "-1"], "--rate"),
        (
            &["--arrivals", "4", "--request-deadline", "-1"],
            "--request-deadline",
        ),
        (&["--arrivals", "4", "--drain-at", "x"], "--drain-at"),
        (
            &["--arrivals", "4", "--drain-at", "nan"],
            "--drain-at must be finite",
        ),
        (
            &["--arrivals", "4", "--drain-at", "-1"],
            "--drain-at must be finite",
        ),
        (
            &[
                "--arrivals",
                "4",
                "--chaos-dir",
                chaos,
                "--chaos-every",
                "0",
            ],
            "--chaos-every",
        ),
        (&[], "--requests FILE or --arrivals N"),
        // A replayed stream takes none of the generator's flags, and the
        // stream is not read to find that out.
        (
            &["--requests", "/nonexistent/nope.jsonl", "--arrivals", "4"],
            "--arrivals and --requests",
        ),
        (
            &["--requests", "/nonexistent/nope.jsonl", "--rate", "7"],
            "--rate and --requests",
        ),
        (
            &[
                "--requests",
                "/nonexistent/nope.jsonl",
                "--request-deadline",
                "0.1",
            ],
            "--request-deadline and --requests",
        ),
        (
            &[
                "--requests",
                "/nonexistent/nope.jsonl",
                "--chaos-dir",
                chaos,
            ],
            "--chaos-dir and --requests",
        ),
        (
            &[
                "--requests",
                "/nonexistent/nope.jsonl",
                "--chaos-every",
                "2",
            ],
            "--chaos-every and --requests",
        ),
    ] {
        let out = cli()
            .args(["serve", "--graph", "/nonexistent/nope.xbfs"])
            .args(flags)
            .output()
            .unwrap();
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert_eq!(out.status.code(), Some(1), "{flags:?}: {stderr}");
        assert!(stderr.contains(named), "{flags:?}: {stderr}");
        assert!(!stderr.contains("nope.xbfs"), "{flags:?}: {stderr}");
        assert!(!stderr.contains("nope.jsonl"), "{flags:?}: {stderr}");
        assert!(out.stdout.is_empty(), "{flags:?} ran anyway");
    }
}

#[test]
fn serve_arrivals_on_an_empty_graph_is_a_typed_error() {
    let graph = tmpfile("empty.el");
    std::fs::write(&graph, b"").unwrap();
    let graph = graph.to_str().unwrap();
    // Seeded sources are drawn from the graph's vertices: with none to
    // draw from, the schedule is refused before the predictor trains.
    let out = cli()
        .args(["serve", "--graph", graph, "--text", "--arrivals", "2"])
        .output()
        .unwrap();
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert_eq!(out.status.code(), Some(1), "{stderr}");
    assert!(stderr.contains("--arrivals"), "{stderr}");
    assert!(stderr.contains("the graph has no vertices"), "{stderr}");
    assert!(!stderr.contains("panicked"), "{stderr}");
    assert!(out.stdout.is_empty(), "trained anyway");
    // A replayed stream names its own sources; each bad one ends its
    // query in a typed error and the service run still succeeds.
    let requests = tmpfile("empty-graph-requests.jsonl");
    std::fs::write(&requests, "{\"id\":0,\"source\":0,\"arrival_s\":0.0}\n").unwrap();
    let served = stdout_of(cli().args([
        "serve",
        "--graph",
        graph,
        "--text",
        "--requests",
        requests.to_str().unwrap(),
    ]));
    assert!(served.contains("failed 1"), "{served}");
    std::fs::remove_file(graph).ok();
    std::fs::remove_file(requests).ok();
}

#[test]
fn serve_windows_count_corruption_of_every_completed_query() {
    // Both queries that detect corruption on this schedule then miss their
    // deadline. The windows, the exposition and the narration count them
    // all the same.
    let graph = tmpfile("serve-corruption.xbfs");
    let prom = tmpfile("serve-corruption.prom");
    let series = tmpfile("serve-corruption.jsonl");
    stdout_of(cli().args(["gen", "--scale", "12", "--out", graph.to_str().unwrap()]));
    let out = stdout_of(cli().args([
        "serve",
        "--graph",
        graph.to_str().unwrap(),
        "--arrivals",
        "60",
        "--rate",
        "2000",
        "--seed",
        "1",
        "--capacity",
        "2",
        "--queue-depth",
        "8",
        "--chaos-dir",
        concat!(env!("CARGO_MANIFEST_DIR"), "/../../tests/chaos"),
        "--chaos-every",
        "1",
        "--scrub",
        "--checksum",
        "--checkpoint-interval",
        "2",
        "--request-deadline",
        "0.004",
        "--snapshot-every",
        "0.002",
        "--metrics-out",
        prom.to_str().unwrap(),
        "--timeseries-out",
        series.to_str().unwrap(),
    ]));
    assert!(
        out.contains("corruption across queries: 2 detection(s), 2 repair(s)"),
        "{out}"
    );

    let text = std::fs::read_to_string(&series).unwrap();
    let window_sum = |field: &str| -> u64 {
        text.lines()
            .map(|l| serde_json::from_str::<serde_json::Value>(l).unwrap())
            .filter(|w| w["kind"] == "window")
            .map(|w| w[field].as_u64().unwrap())
            .sum()
    };
    let metrics = std::fs::read_to_string(&prom).unwrap();
    let family_sum = |name: &str| -> u64 {
        metrics
            .lines()
            .filter(|l| l.starts_with(&format!("{name}{{")))
            .map(|l| l.rsplit_once(' ').unwrap().1.parse::<u64>().unwrap())
            .sum()
    };
    assert_eq!(window_sum("corruption_detected"), 2);
    assert_eq!(window_sum("corruption_repaired"), 2);
    assert_eq!(family_sum("xbfs_corruption_detected_total"), 2);
    assert_eq!(family_sum("xbfs_corruption_repairs_total"), 2);

    for f in [graph, prom, series] {
        std::fs::remove_file(f).ok();
    }
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
