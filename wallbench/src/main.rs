//! Wall-clock benchmark of the xbfs query service.
//!
//! ```text
//! cargo run --release --offline --quiet --manifest-path wallbench/Cargo.toml -- \
//!     --workload serve-rmat16 --seed 1 --seconds 40 --trace 0
//! ```
//!
//! `--trace 0` times set-up and whole service replays in fresh child
//! processes and prints the end-to-end metrics; `--trace 1` runs the
//! traced per-layer pass and prints the per-layer metrics. Both run
//! pinned to one CPU. The last line of stdout is one JSON object with
//! `correct`, `attempted`, `failed` and `metrics`. See README.md for the
//! workloads and the metrics.

mod affinity;
mod probe;
mod procfs;
mod stats;
mod timed;
mod traced;
mod workload;

use std::process::ExitCode;
use std::time::{Duration, Instant};

use serde_json::{json, Value};
use xbfs_graph::io;

use crate::procfs::HostTicks;
use crate::stats::{fnv1a, median, quantile};
use crate::workload::Workload;

/// A timed run alternates `ROUNDS` times between `SETUPS_PER_ROUND`
/// fresh processes that each time one complete set-up and one fresh
/// process that replays one schedule variant for an equal share of what
/// is left of `--seconds`. Slow spells of the host so fall on both
/// metrics alike, the medians span the whole run, and the simulated
/// figures pool `ROUNDS` schedules.
const ROUNDS: usize = 8;
const SETUPS_PER_ROUND: usize = 3;
/// The least budget handed to a replay child.
const MIN_SHARE_S: f64 = 0.001;

struct Args {
    workload: &'static Workload,
    seed: u64,
    seconds: f64,
    trace: bool,
    /// Set on the benchmark's own child processes: what to measure, and
    /// for a replay child which schedule variant.
    role: Option<String>,
    variant: u64,
}

impl Args {
    fn parse() -> Result<Self, String> {
        let argv: Vec<String> = std::env::args().skip(1).collect();
        let (mut workload, mut seed, mut seconds, mut trace, mut role) =
            (None, None, None, None, None);
        let mut variant = 0;
        for pair in argv.chunks(2) {
            let [key, value] = pair else {
                return Err(format!("flag {} has no value", pair[0]));
            };
            match key.as_str() {
                "--workload" => workload = Some(Workload::by_name(value)?),
                "--seed" => seed = Some(value.parse().map_err(|e| format!("--seed: {e}"))?),
                "--seconds" => {
                    let s: f64 = value.parse().map_err(|e| format!("--seconds: {e}"))?;
                    if !(s.is_finite() && s > 0.0) {
                        return Err(format!("--seconds must be positive, got {s}"));
                    }
                    seconds = Some(s);
                }
                "--trace" => {
                    trace = Some(match value.as_str() {
                        "0" => false,
                        "1" => true,
                        other => return Err(format!("--trace must be 0 or 1, got {other}")),
                    })
                }
                "--role" => role = Some(value.clone()),
                "--variant" => variant = value.parse().map_err(|e| format!("--variant: {e}"))?,
                other => return Err(format!("unknown flag {other}")),
            }
        }
        Ok(Self {
            workload: workload.ok_or("--workload is required")?,
            seed: seed.ok_or("--seed is required")?,
            seconds: seconds.ok_or("--seconds is required")?,
            trace: trace.unwrap_or(false),
            role,
            variant,
        })
    }
}

fn main() -> ExitCode {
    match run() {
        Ok(true) => ExitCode::SUCCESS,
        Ok(false) => ExitCode::from(2),
        Err(e) => {
            eprintln!("wallbench: {e}");
            ExitCode::FAILURE
        }
    }
}

/// Returns whether every output check passed.
fn run() -> Result<bool, String> {
    let args = Args::parse()?;
    if let Some(role) = &args.role {
        let result = match role.as_str() {
            "setup" => timed::setup_child(args.workload)?,
            "replay" => timed::replay_child(args.workload, args.seed, args.variant, args.seconds)?,
            other => return Err(format!("unknown role {other}")),
        };
        println!("{}", serde_json::to_string(&result).expect("serializes"));
        return Ok(true);
    }
    let graph_bytes = io::encode_csr(&args.workload.graph());
    // After input generation, which may use every CPU; children inherit.
    let cpu = affinity::pin_to_one_cpu()?;
    println!("pinned to CPU {cpu}");
    if args.trace {
        traced::run(
            args.workload,
            args.seed,
            args.seconds / ROUNDS as f64,
            &graph_bytes,
        )
    } else {
        timed_run(&args, &graph_bytes)
    }
}

fn f64_field(v: &Value, key: &str) -> Result<f64, String> {
    v.get(key)
        .and_then(Value::as_f64)
        .ok_or_else(|| format!("child result lacks {key}"))
}

fn u64_field(v: &Value, key: &str) -> Result<u64, String> {
    v.get(key)
        .and_then(Value::as_u64)
        .ok_or_else(|| format!("child result lacks {key}"))
}

fn metric(value: f64, unit: &str) -> Value {
    json!({ "value": value, "unit": unit })
}

fn f64_list(v: &Value, key: &str) -> Result<Vec<f64>, String> {
    Ok(v.get(key)
        .and_then(Value::as_array)
        .ok_or_else(|| format!("child result lacks {key}"))?
        .iter()
        .filter_map(Value::as_f64)
        .collect())
}

/// `--trace 0`: the end-to-end metrics.
fn timed_run(args: &Args, graph_bytes: &[u8]) -> Result<bool, String> {
    let wl = args.workload;
    let mut setups = Vec::with_capacity(ROUNDS * SETUPS_PER_ROUND);
    let mut qps = Vec::new();
    let mut qps_raw = Vec::new();
    let mut probe_s = Vec::new();
    let mut peak_rss = Vec::with_capacity(ROUNDS);
    let mut latencies_ms = Vec::new();
    let mut digests = Vec::with_capacity(ROUNDS);
    let (mut cpu_s, mut wall_s, mut inverse_teps) = (0.0, 0.0, 0.0);
    let (mut scheduled, mut served, mut attempted, mut failed) = (0, 0, 0, 0);
    let (mut checked, mut mismatches) = (0, 0);
    let ticks0 = HostTicks::read()?;
    let deadline = Instant::now() + Duration::from_secs_f64(args.seconds);
    for round in 0..ROUNDS as u64 {
        for _ in 0..SETUPS_PER_ROUND {
            let r = timed::spawn_child("setup", wl, args.seed, 0, args.seconds, graph_bytes)?;
            setups.push(f64_field(&r, "setup_s")?);
        }
        // A replay child always replays at least once, so a late round
        // overruns `--seconds` by one replay rather than being skipped.
        let left = deadline.saturating_duration_since(Instant::now());
        let share = (left.as_secs_f64() / (ROUNDS as u64 - round) as f64).max(MIN_SHARE_S);
        let r = timed::spawn_child("replay", wl, args.seed, round, share, graph_bytes)?;
        let replay_qps = f64_list(&r, "qps")?;
        let replays = replay_qps.len() as u64;
        qps.extend(replay_qps);
        qps_raw.extend(f64_list(&r, "qps_raw")?);
        probe_s.extend(f64_list(&r, "probe_s")?);
        peak_rss.push(f64_field(&r, "peak_rss_mb")?);
        latencies_ms.extend(f64_list(&r, "latencies_ms")?);
        cpu_s += f64_field(&r, "cpu_s")?;
        wall_s += f64_field(&r, "wall_s")?;
        inverse_teps += f64_field(&r, "inverse_teps")?;
        scheduled += u64_field(&r, "scheduled")?;
        served += u64_field(&r, "served")?;
        attempted += u64_field(&r, "scheduled")? * replays;
        failed += u64_field(&r, "failed")? * replays;
        checked += u64_field(&r, "checked")?;
        mismatches += u64_field(&r, "mismatches")?;
        let digest = r.get("digest").and_then(Value::as_str);
        digests.push(digest.ok_or("child result lacks digest")?.to_string());
    }
    // How much slower than on the reference VM the host ran over the run;
    // the set-ups interleave with the replays the probes bracket.
    let host_slowdown = median(&probe_s) / wl.probe_reference_s();
    let steal = HostTicks::read()?.steal_share_since(&ticks0);
    let load = procfs::load_average()?;
    let digest = fnv1a(digests.join(",").as_bytes());

    println!(
        "{}: seed {}, {} replays of {ROUNDS} schedule variants, {served} of {scheduled} queries served",
        wl.name,
        args.seed,
        qps.len(),
    );
    println!(
        "output check: {checked} served outputs compared with the reference BFS, {mismatches} mismatches"
    );
    println!(
        "replay digest: {digest:016x} (variants {})",
        digests.join(" ")
    );
    println!(
        "sim latency quantiles over {} served queries",
        latencies_ms.len()
    );
    println!(
        "diagnostics: {}",
        serde_json::to_string(&json!({
            "steal_share": steal,
            "busy_cores": cpu_s / wall_s,
            "load_avg_1m": load,
            "raw_setup_s_quartiles": [quantile(&setups, 0.25), median(&setups), quantile(&setups, 0.75)],
            "qps_quartiles": [quantile(&qps, 0.25), median(&qps), quantile(&qps, 0.75)],
            "raw_qps_quartiles": [quantile(&qps_raw, 0.25), median(&qps_raw), quantile(&qps_raw, 0.75)],
            "probe_s_quartiles": [quantile(&probe_s, 0.25), median(&probe_s), quantile(&probe_s, 0.75)],
            "peak_rss_method": "fresh child process fed the generated graph on stdin; VmHWM read after its warm-up and first replay",
        }))
        .expect("serializes")
    );
    let correct = mismatches == 0;
    let result = json!({
        "correct": correct,
        "attempted": attempted,
        "failed": failed + mismatches,
        "metrics": {
            "setup_s": metric(median(&setups) / host_slowdown, "s"),
            "qps": metric(median(&qps), "1/s"),
            "served_frac": metric(served as f64 / scheduled as f64, "ratio"),
            "peak_rss_mb": metric(median(&peak_rss), "MB"),
            "sim_latency_p50_ms": metric(median(&latencies_ms), "sim-ms"),
            "sim_latency_p95_ms": metric(quantile(&latencies_ms, 0.95), "sim-ms"),
            "sim_teps": metric(served as f64 / inverse_teps, "edges/sim-s"),
        }
    });
    println!("{}", serde_json::to_string(&result).expect("serializes"));
    Ok(correct)
}
