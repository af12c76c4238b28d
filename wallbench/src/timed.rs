//! The timed run, tracing off. Every set-up and the replays run in fresh
//! child processes of this binary, which receive the generated graph on
//! stdin: input generation never shares a process (or its memory
//! high-water mark) with what is timed.

use std::hint::black_box;
use std::io::{Read, Write};
use std::process::{Command, Stdio};
use std::time::Instant;

use serde_json::{json, Value};
use xbfs_core::{Disposition, ScheduleItem, ServiceReport};
use xbfs_engine::{reference, validate};
use xbfs_graph::Csr;

use crate::probe::Probe;
use crate::procfs;
use crate::stats::{fnv1a, splitmix64};
use crate::workload::{Setup, Workload};

/// Served queries whose output each replay checks against the reference
/// BFS, chosen by a seeded draw.
const CHECKS_PER_REPLAY: usize = 4;
const CHECK_SALT: u64 = 0xc4ec_0000_0000_0001;

/// Queries at the head of the schedule that a replay child serves once,
/// untimed, before its first timed replay.
const WARM_UP_QUERIES: usize = 16;

/// Spawn this binary as a child in `role`, hand it the graph bytes on
/// stdin and parse the one JSON line it prints.
pub fn spawn_child(
    role: &str,
    workload: &Workload,
    seed: u64,
    variant: u64,
    seconds: f64,
    graph_bytes: &[u8],
) -> Result<Value, String> {
    let exe = std::env::current_exe().map_err(|e| format!("current_exe: {e}"))?;
    let mut child = Command::new(exe)
        .args(["--role", role, "--workload", workload.name])
        .args([
            "--seed",
            &seed.to_string(),
            "--variant",
            &variant.to_string(),
        ])
        .args(["--seconds", &seconds.to_string()])
        .stdin(Stdio::piped())
        .stdout(Stdio::piped())
        .stderr(Stdio::inherit())
        .spawn()
        .map_err(|e| format!("spawning the {role} child: {e}"))?;
    {
        let mut stdin = child.stdin.take().expect("stdin was piped");
        // The child reads all of its input before it writes anything, so
        // this cannot deadlock against a full stdout pipe. A write error
        // means the child died; its exit status below says why.
        let _ = stdin
            .write_all(&(graph_bytes.len() as u64).to_le_bytes())
            .and_then(|()| stdin.write_all(graph_bytes));
    }
    let out = child
        .wait_with_output()
        .map_err(|e| format!("waiting for the {role} child: {e}"))?;
    if !out.status.success() {
        return Err(format!("the {role} child failed: {}", out.status));
    }
    let text = String::from_utf8(out.stdout).map_err(|e| format!("{role} child output: {e}"))?;
    let line = text.lines().last().unwrap_or_default();
    serde_json::from_str::<Value>(line).map_err(|e| format!("{role} child output: {e}"))
}

/// Read the length-prefixed graph bytes the parent writes to stdin.
fn read_graph_bytes() -> Result<Vec<u8>, String> {
    let mut stdin = std::io::stdin().lock();
    let mut len = [0u8; 8];
    stdin
        .read_exact(&mut len)
        .map_err(|e| format!("stdin: {e}"))?;
    let len = usize::try_from(u64::from_le_bytes(len)).map_err(|e| format!("stdin: {e}"))?;
    // Bounded so a stray caller cannot make the child allocate wildly.
    if len > 1 << 30 {
        return Err(format!("stdin: implausible graph size {len}"));
    }
    let mut bytes = vec![0u8; len];
    stdin
        .read_exact(&mut bytes)
        .map_err(|e| format!("stdin: {e}"))?;
    Ok(bytes)
}

/// Child role `setup`: time one complete set-up in this fresh process.
pub fn setup_child(workload: &Workload) -> Result<Value, String> {
    let bytes = read_graph_bytes()?;
    let t0 = Instant::now();
    let setup = Setup::run(workload, &bytes)?;
    let setup_s = t0.elapsed().as_secs_f64();
    black_box(&setup);
    Ok(json!({ "setup_s": setup_s }))
}

/// The deterministic figures of one replay; identical for every replay of
/// one schedule, which the digest confirms.
#[derive(Default)]
struct ReplayFigures {
    served: u64,
    failed: u64,
    latencies_ms: Vec<f64>,
    /// Sum over served queries of simulated seconds per component edge:
    /// the denominator of the harmonic-mean TEPS.
    inverse_teps: f64,
}

fn figures(csr: &Csr, report: &ServiceReport) -> ReplayFigures {
    let mut f = ReplayFigures::default();
    for o in &report.outcomes {
        match (o.disposition, &o.run, o.completion_s) {
            (Disposition::Served { .. }, Some(run), Some(done)) => {
                f.served += 1;
                f.latencies_ms.push((done - o.arrival_s) * 1e3);
                let edges = reference::component_edges(csr, &run.output) as f64;
                f.inverse_teps += run.report.total_seconds / edges;
            }
            (Disposition::Failed | Disposition::DeadlineMissed, ..) => f.failed += 1,
            _ => {}
        }
    }
    f
}

/// Recompute the levels of `picks` served queries with the reference BFS
/// and Graph 500-validate their trees. Returns (checked, mismatches).
fn check_outputs(csr: &Csr, report: &ServiceReport, draw: &mut u64, picks: usize) -> (u64, u64) {
    let served: Vec<_> = report
        .outcomes
        .iter()
        .filter_map(|o| o.run.as_ref())
        .collect();
    let mut checked = 0;
    let mut mismatches = 0;
    for _ in 0..picks.min(served.len()) {
        let run = served[(splitmix64(draw) % served.len() as u64) as usize];
        let expected = reference::run(csr, run.output.source);
        checked += 1;
        if expected.levels != run.output.levels || validate(csr, &run.output).is_err() {
            eprintln!(
                "output mismatch: query from source {} differs from the reference BFS",
                run.output.source
            );
            mismatches += 1;
        }
    }
    (checked, mismatches)
}

/// Child role `replay`: one set-up, a warm-up on the head of schedule
/// `variant`, then whole replays of it: at least one, and as many more as
/// fit in `seconds` counted from the child's start. Each replay is timed
/// from the start of `run_schedule` until the workload's last export is
/// rendered; output checks run outside that window.
pub fn replay_child(
    workload: &Workload,
    seed: u64,
    variant: u64,
    seconds: f64,
) -> Result<Value, String> {
    let started = Instant::now();
    let bytes = read_graph_bytes()?;
    let setup = Setup::run(workload, &bytes)?;
    drop(bytes);
    let csr = setup.csr.clone();
    let schedule: Vec<ScheduleItem> = workload.schedule(&csr, seed, variant)?;
    // Untimed: fills the caches and the allocator's arenas and starts the
    // service's first threads before the first timed replay.
    let warm_up = &schedule[..schedule.len().min(WARM_UP_QUERIES)];
    black_box(setup.service.run_schedule(warm_up)).map_err(|e| format!("warm-up: {e}"))?;
    // Probes bracket every replay: before the first, then after each.
    let probe = Probe::new(&csr)?;
    let mut probe_s = vec![probe.time(&csr)?];

    let mut draw = seed ^ variant ^ CHECK_SALT;
    let mut qps = Vec::new();
    let mut qps_raw = Vec::new();
    let mut wall_s = 0.0;
    let mut cpu_s = 0.0;
    let mut checked = 0;
    let mut mismatches = 0;
    let mut first: Option<(u64, ReplayFigures)> = None;
    let mut peak_rss_mb = 0.0;
    let loop_start = Instant::now();
    // Start another replay only if one more, with its checks, fits.
    while qps.is_empty() || {
        let per_replay = loop_start.elapsed().as_secs_f64() / qps.len() as f64;
        started.elapsed().as_secs_f64() + per_replay <= seconds
    } {
        let cpu0 = procfs::process_cpu_seconds()?;
        let t0 = Instant::now();
        let report = setup
            .service
            .run_schedule(&schedule)
            .map_err(|e| format!("run_schedule: {e}"))?;
        let exports = workload.hardened.then(|| workload.render_exports(&report));
        let elapsed = t0.elapsed().as_secs_f64();
        cpu_s += procfs::process_cpu_seconds()? - cpu0;
        wall_s += elapsed;
        if first.is_none() {
            // The high-water mark of one set-up plus the warm-up and one
            // replay: later replays reuse freed memory unevenly across the
            // allocator's per-thread arenas.
            peak_rss_mb = procfs::peak_rss_mb()?;
        }
        probe_s.push(probe.time(&csr)?);
        let host_s = (probe_s[probe_s.len() - 2] + probe_s[probe_s.len() - 1]) / 2.0;
        let raw = schedule.len() as f64 / elapsed;
        qps_raw.push(raw);
        qps.push(raw * host_s / workload.probe_reference_s());

        let report_json = exports.map_or_else(|| report.to_json(), |e| e.report_json);
        let digest = fnv1a(report_json.as_bytes());
        match &first {
            None => first = Some((digest, figures(&csr, &report))),
            Some((d, _)) if *d != digest => {
                return Err(format!(
                    "replay digest changed within one process: {d:016x} then {digest:016x}"
                ));
            }
            Some(_) => {}
        }
        let (c, m) = check_outputs(&csr, &report, &mut draw, CHECKS_PER_REPLAY);
        checked += c;
        mismatches += m;
    }
    let (digest, fig) = first.expect("at least one replay ran");
    Ok(json!({
        "qps": qps,
        "qps_raw": qps_raw,
        "probe_s": probe_s,
        "wall_s": wall_s,
        "cpu_s": cpu_s,
        "peak_rss_mb": peak_rss_mb,
        "scheduled": schedule.len(),
        "served": fig.served,
        "failed": fig.failed,
        "latencies_ms": fig.latencies_ms,
        "inverse_teps": fig.inverse_teps,
        "digest": format!("{digest:016x}"),
        "checked": checked,
        "mismatches": mismatches,
    }))
}
