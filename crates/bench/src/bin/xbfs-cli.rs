//! `xbfs-cli` — command-line front end for the library.
//!
//! ```text
//! xbfs-cli gen        --scale S --edgefactor E --out G.xbfs [--text]
//! xbfs-cli info       --graph G.xbfs
//! xbfs-cli bfs        --graph G.xbfs [--source V] [--policy td|bu|hybrid|model] [--threads T]
//! xbfs-cli stcon      --graph G.xbfs --from A --to B
//! xbfs-cli components --graph G.xbfs
//! xbfs-cli adaptive   --graph G.xbfs [--source V] [--fault-plan F.json]
//!                     [--deadline SECS] [--retries N]
//!                     [--checkpoint-interval L] [--spill CK.json]
//!                     [--resume CK.json] [--report-json R.json]
//! xbfs-cli bench      [--preset P] [--compare BASELINE.json] [--bench-dir DIR]
//! xbfs-cli report     --timeseries FILE
//! ```
//!
//! Graphs are the compact binary format by default (`io::encode_csr`);
//! `--text` reads/writes whitespace edge lists instead.
//!
//! `--trace-out` and `--metrics-out` record the run into a [`MemorySink`]
//! (a parallel run's workers share it) and export it as chrome://tracing
//! JSON (load in Perfetto) and Prometheus text respectively; `serve`
//! renders its metrics from the service's registry, which counts every
//! query whichever traces were kept. Either accepts `-` for stdout; when
//! any machine output claims stdout, the human narration moves to stderr
//! so the data stream stays clean. `--quiet` silences the narration
//! entirely.

use std::io::{BufReader, Write};
use std::process::ExitCode;
use xbfs_archsim::{ArchSpec, CostModelPolicy, FaultPlan};
use xbfs_bench::perf;
use xbfs_core::{
    chrome_trace_json, prometheus_slo_text, prometheus_text, service_chrome_trace_json,
    timeseries_json_lines, training::pick_source, AdaptiveRuntime, BatchCompat, BatchPolicy,
    CheckpointPolicy, DrainMode, LevelCheckpoint, OnlineBandit, PolicyMode, PolicyRun,
    QueryRequest, QueryService, ResilienceConfig, ScheduleItem, ServiceConfig, SloPolicy,
    SnapshotPolicy, TraceSamplePolicy,
};
use xbfs_engine::{
    hybrid, par, stcon, tree, validate, AlwaysBottomUp, AlwaysTopDown, FixedMN, MemorySink,
    ScrubPolicy, Scrubber, SwitchPolicy, TraceEvent, TraversalState, XbfsError,
};
use xbfs_graph::{components, io, stats, Csr, GraphStats, RmatConfig, RmatGenerator};

/// A command's body.
type Command = fn(&Args) -> Result<(), String>;

/// Every command: its name, its body, and the flags it takes (without
/// their `--`). This is the one place a command's accepted set is kept:
/// [`Args::parse`] rejects any other flag before the command does any
/// work, and a unit test pins each set to the command's USAGE block.
const COMMANDS: &[(&str, Command, &str)] = &[
    ("gen", cmd_gen, "scale edgefactor seed out text"),
    ("info", cmd_info, "graph text"),
    (
        "bfs",
        cmd_bfs,
        "graph source policy threads scrub checksum trace-out metrics-out quiet text",
    ),
    ("stcon", cmd_stcon, "graph from to text"),
    ("components", cmd_components, "graph text"),
    (
        "adaptive",
        cmd_adaptive,
        "graph source fault-plan deadline retries checkpoint-interval spill resume scrub \
         checksum report-json policy trace-out metrics-out quiet text",
    ),
    (
        "serve",
        cmd_serve,
        "graph requests arrivals rate seed request-deadline chaos-dir chaos-every capacity \
         queue-depth batch-window batch-lanes deadline retries checkpoint-interval spill-dir \
         scrub checksum drain-at drain-mode snapshot-every timeseries-out slo-deadline-ratio \
         slo-latency slo-latency-ratio flight-recorder postmortem-dir trace-sample policy \
         report-json trace-out metrics-out quiet text",
    ),
    (
        "bench",
        cmd_bench,
        "preset compare tolerance bench-dir baseline fault-plan report-json batched policy quiet",
    ),
    ("report", cmd_report, "timeseries"),
];

/// Flags that stand alone; every other flag takes a value.
const SWITCHES: [&str; 5] = ["text", "quiet", "batched", "scrub", "checksum"];

/// Minimal flag parser: `--key value` pairs plus the [`SWITCHES`].
struct Args {
    pairs: Vec<(String, String)>,
    switches: Vec<String>,
}

impl Args {
    /// Parse `argv` for `command`, which takes only the whitespace-separated
    /// flags in `accepted`; any other flag is an error naming it.
    fn parse(
        command: &str,
        accepted: &str,
        argv: impl Iterator<Item = String>,
    ) -> Result<Self, String> {
        let mut argv = argv.peekable();
        let mut pairs = Vec::new();
        let mut switches = Vec::new();
        while let Some(arg) = argv.next() {
            let Some(key) = arg.strip_prefix("--") else {
                return Err(format!("unexpected argument '{arg}'"));
            };
            if !accepted.split_whitespace().any(|flag| flag == key) {
                return Err(format!("{command} does not take --{key}"));
            }
            if SWITCHES.contains(&key) {
                switches.push(key.to_string());
                continue;
            }
            // `--policy` may stand alone (`bench --policy` writes
            // POLICY.json) or take a mode (`serve --policy online:7`); a
            // following flag or the end of argv means the bare form.
            if key == "policy" && argv.peek().is_none_or(|v| v.starts_with("--")) {
                pairs.push((key.to_string(), String::new()));
                continue;
            }
            let Some(value) = argv.next() else {
                return Err(format!("--{key} needs a value"));
            };
            pairs.push((key.to_string(), value));
        }
        Ok(Self { pairs, switches })
    }

    /// `true` if the switch `--key` was given.
    fn on(&self, key: &str) -> bool {
        self.switches.iter().any(|k| k == key)
    }

    fn get(&self, key: &str) -> Option<&str> {
        self.pairs
            .iter()
            .find(|(k, _)| k == key)
            .map(|(_, v)| v.as_str())
    }

    fn require(&self, key: &str) -> Result<&str, String> {
        self.get(key).ok_or_else(|| format!("missing --{key}"))
    }

    fn parse_num<T: std::str::FromStr>(&self, key: &str) -> Result<Option<T>, String> {
        match self.get(key) {
            None => Ok(None),
            Some(v) => v
                .parse::<T>()
                .map(Some)
                .map_err(|_| format!("--{key}: cannot parse '{v}'")),
        }
    }
}

/// `println!` that survives a closed stdout. When the reader goes away
/// (`xbfs-cli report … | head`), the narration ends but the command does
/// not: the write error is dropped, so files are still written and the
/// exit status stays the command's own.
macro_rules! outln {
    ($($arg:tt)*) => {{
        let _ = writeln!(std::io::stdout(), $($arg)*);
    }};
}

/// Human-narration channel. Machine outputs (`--report-json -`,
/// `--trace-out -`, `--metrics-out -`) own stdout when they point there;
/// narration then moves to stderr. `--quiet` drops it entirely.
struct Ui {
    quiet: bool,
    to_stderr: bool,
}

impl Ui {
    fn new(args: &Args) -> Self {
        let stdout_claimed = ["report-json", "trace-out", "metrics-out", "timeseries-out"]
            .iter()
            .any(|k| args.get(k) == Some("-"));
        Self {
            quiet: args.on("quiet"),
            to_stderr: stdout_claimed,
        }
    }

    fn say(&self, msg: impl AsRef<str>) {
        if self.quiet {
            return;
        }
        if self.to_stderr {
            eprintln!("{}", msg.as_ref());
        } else {
            outln!("{}", msg.as_ref());
        }
    }
}

/// Write a machine output to `path`, with `-` meaning stdout.
fn write_out(path: &str, content: &str) -> Result<(), String> {
    if path == "-" {
        std::io::stdout()
            .write_all(content.as_bytes())
            .map_err(|e| format!("stdout: {e}"))
    } else {
        std::fs::write(path, content).map_err(|e| format!("{path}: {e}"))
    }
}

/// Export a recorded trace per `--trace-out` / `--metrics-out`.
fn export_trace(args: &Args, ui: &Ui, events: &[TraceEvent]) -> Result<(), String> {
    if let Some(path) = args.get("trace-out") {
        write_out(path, &chrome_trace_json(events))?;
        if path != "-" {
            ui.say(format!(
                "wrote chrome trace to {path} ({} events)",
                events.len()
            ));
        }
    }
    if let Some(path) = args.get("metrics-out") {
        write_out(path, &prometheus_text(events))?;
        if path != "-" {
            ui.say(format!("wrote metrics to {path}"));
        }
    }
    Ok(())
}

fn load_graph(args: &Args) -> Result<Csr, String> {
    let path = args.require("graph")?;
    let bytes = std::fs::read(path).map_err(|e| format!("{path}: {e}"))?;
    if args.on("text") {
        let el = io::read_edge_list(BufReader::new(&bytes[..]), 0)
            .map_err(|e| format!("{path}: {e}"))?;
        Ok(Csr::from_edge_list(&el))
    } else {
        io::decode_csr(&bytes[..]).map_err(|e| format!("{path}: {e}"))
    }
}

/// Parse and validate the failure-handling flags shared by `adaptive` and
/// `serve`: `--deadline SECS` (finite, positive), `--retries N` (default
/// 3), `--checkpoint-interval L` (default 0 = off), `--scrub` (per-level
/// invariant scrubbing + rollback repair), `--checksum` (checksummed link
/// transfers, integrity verified at the receiver and charged on the
/// simulated clock). `spill` is the checkpoint spill target — adaptive's
/// `--spill` file; `serve` passes `None` because the service derives a
/// per-query path from `--spill-dir`.
fn resilience_from_args(args: &Args, spill: Option<String>) -> Result<ResilienceConfig, String> {
    let deadline_s: Option<f64> = args.parse_num("deadline")?;
    if let Some(d) = deadline_s {
        if !d.is_finite() || d <= 0.0 {
            return Err(format!("--deadline must be finite and positive, got {d}"));
        }
    }
    let checkpoint = CheckpointPolicy {
        interval_levels: args.parse_num("checkpoint-interval")?.unwrap_or(0),
        spill,
    };
    let config = ResilienceConfig {
        max_attempts: args.parse_num("retries")?.unwrap_or(3),
        deadline_s,
        checkpoint,
        scrub: if args.on("scrub") {
            ScrubPolicy::every_level()
        } else {
            ScrubPolicy::Off
        },
        checksum_transfers: args.on("checksum"),
        ..ResilienceConfig::default_runtime()
    };
    config.validate().map_err(|e| e.to_string())?;
    Ok(config)
}

fn source_for(args: &Args, g: &Csr) -> Result<u32, String> {
    match args.parse_num::<u32>("source")? {
        Some(s) if s < g.num_vertices() => Ok(s),
        Some(s) => Err(format!("source {s} out of range")),
        None => pick_source(g, 1).ok_or_else(|| "graph has no edges".to_string()),
    }
}

fn cmd_gen(args: &Args) -> Result<(), String> {
    let scale: u32 = args
        .parse_num("scale")?
        .ok_or_else(|| "missing --scale".to_string())?;
    let edgefactor: u32 = args.parse_num("edgefactor")?.unwrap_or(16);
    let seed: u64 = args.parse_num("seed")?.unwrap_or(0x6500);
    let out = args.require("out")?;
    let cfg = RmatConfig::new(scale, edgefactor).with_seed(seed);
    let mut generator = RmatGenerator::new(cfg);
    if args.on("text") {
        let el = generator.edge_list();
        let mut buf = Vec::new();
        io::write_edge_list(&el, &mut buf).map_err(|e| e.to_string())?;
        std::fs::write(out, buf).map_err(|e| e.to_string())?;
    } else {
        let csr = generator.csr();
        std::fs::write(out, io::encode_csr(&csr)).map_err(|e| e.to_string())?;
    }
    outln!("wrote {out} (SCALE {scale}, edgefactor {edgefactor}, seed {seed:#x})");
    Ok(())
}

fn cmd_info(args: &Args) -> Result<(), String> {
    let g = load_graph(args)?;
    let s = GraphStats::unknown(&g);
    outln!("vertices:        {}", g.num_vertices());
    outln!("edges:           {}", g.num_edges());
    outln!("average degree:  {:.2}", s.average_degree());
    outln!("isolated:        {}", stats::isolated_count(&g));
    if let Some((hub, deg)) = stats::max_degree_vertex(&g) {
        outln!("max degree:      {deg} (vertex {hub})");
    }
    let comps = components::connected_components(&g);
    outln!("components:      {}", comps.count());
    if let Some(giant) = comps.largest() {
        outln!("largest comp.:   {} vertices", comps.sizes[giant as usize]);
    }
    Ok(())
}

/// FNV-1a over the parent and level maps — a stable output fingerprint
/// for `bfs --checksum`.
fn fingerprint(out: &xbfs_engine::BfsOutput) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for word in out.parents.iter().chain(out.levels.iter()) {
        for byte in word.to_le_bytes() {
            h = (h ^ u64::from(byte)).wrapping_mul(0x0000_0100_0000_01b3);
        }
    }
    h
}

fn cmd_bfs(args: &Args) -> Result<(), String> {
    let ui = Ui::new(args);
    let g = load_graph(args)?;
    let src = source_for(args, &g)?;
    let threads: usize = args.parse_num("threads")?.unwrap_or(1);
    if threads == 0 {
        // Validate here rather than letting the engine's internal
        // `assert!` blow up: the CLI owns argument contracts.
        return Err(XbfsError::InvalidArgument {
            what: "--threads must be at least 1, got 0".to_string(),
        }
        .to_string());
    }
    let tracing = args.get("trace-out").is_some() || args.get("metrics-out").is_some();
    let policy_name = args.get("policy").unwrap_or("hybrid");
    let mut policy: Box<dyn SwitchPolicy> = match policy_name {
        "td" => Box::new(AlwaysTopDown),
        "bu" => Box::new(AlwaysBottomUp),
        "hybrid" => Box::new(FixedMN::new(14.0, 24.0)),
        "model" => Box::new(CostModelPolicy::new(ArchSpec::cpu_sandy_bridge())),
        other => return Err(format!("unknown policy '{other}'")),
    };

    // Parallel workers record into the same buffer: one span per kernel.
    let sink = MemorySink::new();
    let start = std::time::Instant::now();
    let t = if args.on("scrub") {
        // Scrubbed runs drive the stepping engine so the invariant audit
        // can run between levels — single-threaded by construction.
        if threads > 1 {
            return Err(
                "--scrub drives the single-threaded stepping engine; drop --threads".into(),
            );
        }
        let mut st = TraversalState::start(&g, src);
        let mut scrubber = Scrubber::default();
        while st.step_traced(&g, policy.as_mut(), &sink).is_some() {
            if let Some(what) = scrubber.scrub(&g, &st) {
                return Err(XbfsError::CorruptionDetected {
                    what,
                    level: st.next_level as usize,
                }
                .to_string());
            }
        }
        st.into_traversal()
    } else {
        match (threads > 1, tracing) {
            (true, true) => par::run_traced(&g, src, policy.as_mut(), threads, &sink),
            (true, false) => par::run(&g, src, policy.as_mut(), threads),
            (false, true) => hybrid::run_traced(&g, src, policy.as_mut(), &sink),
            (false, false) => hybrid::run(&g, src, policy.as_mut()),
        }
    };
    let secs = start.elapsed().as_secs_f64();
    validate(&g, &t.output).map_err(|e| format!("validation failed: {e}"))?;
    if args.on("scrub") {
        ui.say(format!(
            "scrub: {} level boundar{} audited clean",
            t.levels.len(),
            if t.levels.len() == 1 { "y" } else { "ies" },
        ));
    }
    if args.on("checksum") {
        // A stable fingerprint of the parent and level maps: compare it
        // across runs or machines to spot silent corruption on real
        // hardware (simulated transfer checksums live under `adaptive`).
        ui.say(format!("output checksum: {:#018x}", fingerprint(&t.output)));
    }

    ui.say(format!(
        "BFS from {src} ({policy_name}, {threads} thread(s)): {} vertices in {} levels, {:.3} ms",
        t.output.visited_count(),
        t.depth(),
        secs * 1e3,
    ));
    ui.say(format!("directions: {:?}", t.direction_script()));
    ui.say(format!(
        "level histogram: {:?}",
        tree::level_histogram(&t.output)
    ));
    ui.say(format!("edges examined: {}", t.total_edges_examined()));
    export_trace(args, &ui, &sink.events())?;
    Ok(())
}

fn cmd_stcon(args: &Args) -> Result<(), String> {
    let g = load_graph(args)?;
    let a: u32 = args
        .parse_num("from")?
        .ok_or_else(|| "missing --from".to_string())?;
    let b: u32 = args
        .parse_num("to")?
        .ok_or_else(|| "missing --to".to_string())?;
    if a >= g.num_vertices() || b >= g.num_vertices() {
        return Err("endpoint out of range".into());
    }
    match stcon::st_connectivity(&g, a, b) {
        stcon::StResult::Connected { distance } => {
            outln!("{a} and {b} are connected: shortest path {distance} edge(s)")
        }
        stcon::StResult::Disconnected => outln!("{a} and {b} are not connected"),
    }
    Ok(())
}

fn cmd_components(args: &Args) -> Result<(), String> {
    let g = load_graph(args)?;
    let comps = components::connected_components(&g);
    let mut sizes = comps.sizes.clone();
    sizes.sort_unstable_by(|a, b| b.cmp(a));
    outln!(
        "{} component(s); sizes (desc, top 10): {:?}",
        comps.count(),
        &sizes[..sizes.len().min(10)]
    );
    Ok(())
}

fn cmd_adaptive(args: &Args) -> Result<(), String> {
    let ui = Ui::new(args);
    let g = load_graph(args)?;
    let src = source_for(args, &g)?;
    let stats = GraphStats::unknown(&g);

    let plan = match args.get("fault-plan") {
        None => FaultPlan::none(),
        Some(path) => {
            let text = std::fs::read_to_string(path).map_err(|e| format!("{path}: {e}"))?;
            FaultPlan::from_json(&text).map_err(|e| format!("{path}: {e}"))?
        }
    };
    // Reject bad flags — and an unreadable or mismatched resume
    // checkpoint — before the (comparatively slow) training step.
    let config = resilience_from_args(args, args.get("spill").map(str::to_string))?;
    let resume_from = match args.get("resume") {
        None => None,
        Some(path) => {
            let ck = LevelCheckpoint::load(path).map_err(|e| e.to_string())?;
            ck.validate_for(&g).map_err(|e| format!("{path}: {e}"))?;
            if args.get("source").is_some() && ck.state.output.source != src {
                return Err(format!(
                    "--source {src} disagrees with the checkpoint's source {}",
                    ck.state.output.source
                ));
            }
            Some(ck)
        }
    };

    let policy_mode = policy_mode_from_args(args)?;

    ui.say("training switch-point predictor (quick configuration)…");
    let rt = AdaptiveRuntime::quick_trained();
    let params = rt.predict_params(&stats);
    ui.say(format!(
        "predicted: handoff (M1={:.0}, N1={:.0}), GPU (M2={:.0}, N2={:.0})",
        params.handoff.m, params.handoff.n, params.gpu.m, params.gpu.n
    ));

    let policy_cell = match policy_mode {
        PolicyMode::Offline => None,
        PolicyMode::Online { seed } => Some(std::cell::RefCell::new(PolicyRun::new(
            OnlineBandit::new(seed),
        ))),
    };
    let sink = MemorySink::new();
    let mut session = rt
        .session(&g, &stats)
        .params(params)
        .fault_plan(&plan)
        .resilience(config)
        .sink(&sink);
    if let Some(cell) = &policy_cell {
        session = session.policy(cell);
    }
    let run = match &resume_from {
        Some(ck) => {
            ui.say(format!(
                "resuming {} from level {} (checkpointed at {:.3} ms)",
                ck.rung,
                ck.level(),
                ck.clock_s * 1e3
            ));
            session.resume(ck)
        }
        None => session.source(src).run(),
    }
    .map_err(|e| format!("traversal failed: {e}"))?;
    let report = &run.report;
    ui.say(format!(
        "rung: {} (tried: {})",
        report.rung,
        report
            .rungs_tried
            .iter()
            .map(|r| r.to_string())
            .collect::<Vec<_>>()
            .join(" -> ")
    ));
    for e in &report.events {
        ui.say(format!(
            "  fault: level {} {:?} on {:?} (attempt {})",
            e.level, e.kind, e.op, e.attempt
        ));
    }
    for t in &report.breaker_transitions {
        ui.say(format!(
            "  breaker: {} {} -> {} at {:.3} ms ({:?})",
            t.device,
            t.from,
            t.to,
            t.at_s * 1e3,
            t.cause
        ));
    }
    ui.say(format!(
        "simulated {:.3} ms total, {:.3} ms lost to recovery, {} retr{}",
        report.total_seconds * 1e3,
        report.recovery_seconds * 1e3,
        report.retries,
        if report.retries == 1 { "y" } else { "ies" },
    ));
    if report.corruption_detected > 0 || report.corruption_repairs > 0 {
        ui.say(format!(
            "corruption: {} detection(s), {} in-rung repair(s)",
            report.corruption_detected, report.corruption_repairs,
        ));
    }
    if let Some(level) = report.resumed_from_level {
        ui.say(format!(
            "resumed from level {level} (checkpointed state reused)"
        ));
    }
    if report.checkpoints_taken > 0 || !report.resumes.is_empty() {
        ui.say(format!(
            "checkpoints: {} taken ({} bytes, {:.3} ms overhead); \
             {} level(s) replayed, est. {:.3} ms saved vs restart",
            report.checkpoints_taken,
            report.checkpoint_bytes,
            report.checkpoint_seconds * 1e3,
            report.levels_replayed,
            report.saved_seconds * 1e3,
        ));
    }
    if !report.skipped_rungs.is_empty() {
        ui.say(format!(
            "rungs skipped by open breakers: {}",
            report
                .skipped_rungs
                .iter()
                .map(|r| r.to_string())
                .collect::<Vec<_>>()
                .join(", ")
        ));
    }
    ui.say(format!(
        "visited {} of {} vertices (validated)",
        run.output.visited_count(),
        g.num_vertices(),
    ));
    if policy_mode.is_online() {
        let (decisions, exploring) = sink
            .events()
            .iter()
            .fold((0u32, 0u32), |(d, x), e| match e {
                TraceEvent::PolicyDecision { explore, .. } => (d + 1, x + u32::from(*explore)),
                _ => (d, x),
            });
        ui.say(format!(
            "online policy ({policy_mode}): {decisions} level decision(s), {exploring} exploring"
        ));
    }
    if let Some(path) = args.get("report-json") {
        write_out(path, &report.to_json())?;
        if path != "-" {
            ui.say(format!("wrote run report to {path}"));
        }
    }
    export_trace(args, &ui, &sink.events())?;
    Ok(())
}

/// Deterministic 64-bit mixer (splitmix64) — the CLI's only randomness,
/// so seeded arrival schedules replay bit-for-bit everywhere.
fn splitmix64(state: &mut u64) -> u64 {
    *state = state.wrapping_add(0x9E37_79B9_7F4A_7C15);
    let mut z = *state;
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// Load every `*.json` fault plan in `dir`, sorted by file name so the
/// query→plan assignment is stable across machines.
fn load_chaos_plans(dir: &str) -> Result<Vec<(String, FaultPlan)>, String> {
    let mut paths: Vec<std::path::PathBuf> = std::fs::read_dir(dir)
        .map_err(|e| format!("{dir}: {e}"))?
        .filter_map(|entry| entry.ok().map(|e| e.path()))
        .filter(|p| p.extension().is_some_and(|ext| ext == "json"))
        .collect();
    paths.sort();
    let mut plans = Vec::new();
    for path in paths {
        let text =
            std::fs::read_to_string(&path).map_err(|e| format!("{}: {e}", path.display()))?;
        let plan = FaultPlan::from_json(&text).map_err(|e| format!("{}: {e}", path.display()))?;
        plans.push((path.display().to_string(), plan));
    }
    if plans.is_empty() {
        return Err(format!("{dir}: no *.json fault plans found"));
    }
    Ok(plans)
}

/// A `serve` schedule waiting for the graph's vertex count.
type DeferredSchedule = Box<dyn FnOnce(u32) -> Result<Vec<ScheduleItem>, String>>;

/// The request schedule for `serve`: either replay a JSON-lines stream
/// (`--requests FILE|-`) or synthesize a seeded arrival schedule
/// (`--arrivals N --rate R --seed S`), optionally mixing committed chaos
/// plans into every `--chaos-every`-th query. Every flag is parsed and
/// checked, the stream read and the plans loaded, before the graph is
/// read; the returned closure takes the graph's vertex count, which only
/// the seeded sources need, and refuses a graph with none to draw from.
fn serve_schedule(args: &Args) -> Result<DeferredSchedule, String> {
    let drain = match args.parse_num::<f64>("drain-at")? {
        Some(at_s) if !(at_s.is_finite() && at_s >= 0.0) => {
            return Err(format!("--drain-at must be finite and >= 0, got {at_s}"));
        }
        at => at.map(|at_s| ScheduleItem::Drain { at_s }),
    };
    let mut schedule: Vec<ScheduleItem> = Vec::new();
    if let Some(path) = args.get("requests") {
        // A replayed stream carries its own arrivals, deadlines and plans.
        for flag in [
            "arrivals",
            "rate",
            "request-deadline",
            "chaos-dir",
            "chaos-every",
        ] {
            if args.get(flag).is_some() {
                return Err(format!(
                    "--{flag} and --requests do not mix: --requests replays its stream \
                     as written, so it takes none of the --arrivals generator's flags"
                ));
            }
        }
        let text = if path == "-" {
            use std::io::Read;
            let mut buf = String::new();
            std::io::stdin()
                .read_to_string(&mut buf)
                .map_err(|e| format!("stdin: {e}"))?;
            buf
        } else {
            std::fs::read_to_string(path).map_err(|e| format!("{path}: {e}"))?
        };
        for (lineno, line) in text.lines().enumerate() {
            if line.trim().is_empty() {
                continue;
            }
            let item = ScheduleItem::from_json_line(line)
                .map_err(|e| format!("{path}:{}: {e}", lineno + 1))?;
            schedule.push(item);
        }
        schedule.extend(drain);
        return Ok(Box::new(move |_| Ok(schedule)));
    }
    let n: u64 = args
        .parse_num("arrivals")?
        .ok_or_else(|| "serve needs --requests FILE or --arrivals N".to_string())?;
    let rate: f64 = args.parse_num("rate")?.unwrap_or(100.0);
    if !rate.is_finite() || rate <= 0.0 {
        return Err(format!("--rate must be finite and positive, got {rate}"));
    }
    let mut rng: u64 = args.parse_num("seed")?.unwrap_or(0xC0FFEE);
    let request_deadline: Option<f64> = args.parse_num("request-deadline")?;
    if let Some(d) = request_deadline {
        if !d.is_finite() || d <= 0.0 {
            return Err(format!(
                "--request-deadline must be finite and positive, got {d}"
            ));
        }
    }
    let chaos = match args.get("chaos-dir") {
        None => Vec::new(),
        Some(dir) => load_chaos_plans(dir)?,
    };
    let chaos_every: u64 = args.parse_num("chaos-every")?.unwrap_or(4);
    if !chaos.is_empty() && chaos_every == 0 {
        return Err("--chaos-every must be at least 1".to_string());
    }
    Ok(Box::new(move |num_vertices| {
        if num_vertices == 0 {
            return Err("--arrivals draws each source from the graph's vertices, \
                 but the graph has no vertices"
                .to_string());
        }
        let mut arrival_s = 0.0f64;
        for i in 0..n {
            // Uniform inter-arrival in [0.5, 1.5]/rate — no transcendental
            // math, so the schedule is bit-identical across platforms.
            let u = (splitmix64(&mut rng) >> 11) as f64 / (1u64 << 53) as f64;
            arrival_s += (0.5 + u) / rate;
            let source = (splitmix64(&mut rng) % u64::from(num_vertices)) as u32;
            let mut req = QueryRequest::builder(i, source).arrival(arrival_s).build();
            req.deadline_s = request_deadline;
            if !chaos.is_empty() && i % chaos_every == 0 {
                let idx = ((i / chaos_every) % chaos.len() as u64) as usize;
                req.fault_plan = Some(chaos[idx].1.clone());
            }
            schedule.push(ScheduleItem::Query(req));
        }
        schedule.extend(drain);
        Ok(schedule)
    }))
}

/// Parse the live-telemetry flags for `serve`: `--snapshot-every SECS`
/// turns on the windowed time-series registry; the `--slo-*` targets
/// (evaluated over those windows) require it, as does `--timeseries-out`.
/// `--flight-recorder N` sizes each failed query's post-mortem and
/// `--trace-sample RATE` head-samples the per-query traces `--trace-out`
/// keeps, keyed on `--seed` so the kept set replays bit-for-bit; it needs
/// `--trace-out`, the only output it thins.
fn telemetry_from_args(
    args: &Args,
) -> Result<(SnapshotPolicy, Option<SloPolicy>, usize, TraceSamplePolicy), String> {
    let snapshot = SnapshotPolicy {
        every_seconds: args.parse_num("snapshot-every")?.unwrap_or(0.0),
    };
    let slo_given = ["slo-deadline-ratio", "slo-latency", "slo-latency-ratio"]
        .iter()
        .any(|k| args.get(k).is_some());
    let slo = if slo_given {
        if !snapshot.enabled() {
            return Err(
                "SLO targets are evaluated over telemetry windows; add --snapshot-every SECS"
                    .into(),
            );
        }
        let mut policy = SloPolicy::default();
        if let Some(r) = args.parse_num("slo-deadline-ratio")? {
            policy.deadline_hit_ratio = r;
        }
        if let Some(s) = args.parse_num("slo-latency")? {
            policy.latency_objective_s = s;
        }
        if let Some(r) = args.parse_num("slo-latency-ratio")? {
            policy.latency_hit_ratio = r;
        }
        Some(policy)
    } else {
        None
    };
    if args.get("timeseries-out").is_some() && !snapshot.enabled() {
        return Err("--timeseries-out needs --snapshot-every SECS".into());
    }
    let flight_recorder: usize = args.parse_num("flight-recorder")?.unwrap_or(0);
    if args.get("postmortem-dir").is_some() && flight_recorder == 0 {
        return Err("--postmortem-dir needs --flight-recorder N".into());
    }
    if args.get("trace-sample").is_some() && args.get("trace-out").is_none() {
        return Err("--trace-sample thins only the kept traces; add --trace-out T.json".into());
    }
    let trace_sample = TraceSamplePolicy {
        rate: args.parse_num("trace-sample")?.unwrap_or(1.0),
        seed: args.parse_num("seed")?.unwrap_or(0xC0FFEE),
    };
    Ok((snapshot, slo, flight_recorder, trace_sample))
}

/// Parse `--policy offline|online[:SEED]` (for `adaptive` and `serve`,
/// where the offline (M, N) pipeline is the default).
fn policy_mode_from_args(args: &Args) -> Result<PolicyMode, String> {
    match args.get("policy") {
        None => Ok(PolicyMode::Offline),
        Some("") => Err("--policy needs a mode (offline, online, online:SEED)".into()),
        Some(s) => PolicyMode::parse(s)
            .ok_or_else(|| format!("unknown --policy '{s}' (offline, online, online:SEED)")),
    }
}

fn cmd_serve(args: &Args) -> Result<(), String> {
    let ui = Ui::new(args);
    // Every flag parses into the service config or the schedule and
    // validates before the graph is read, so a typo fails before any work.
    let (snapshot, slo, flight_recorder, trace_sample) = telemetry_from_args(args)?;
    let drain = match args.get("drain-mode").unwrap_or("complete") {
        "complete" => DrainMode::Complete,
        "cancel" => DrainMode::Cancel,
        other => return Err(format!("unknown --drain-mode '{other}'")),
    };
    let batching = BatchPolicy {
        window: args.parse_num("batch-window")?.unwrap_or(0),
        max_lanes: args.parse_num("batch-lanes")?.unwrap_or(64),
        compat: BatchCompat::default(),
    };
    let config = ServiceConfig {
        capacity: args.parse_num("capacity")?.unwrap_or(2),
        queue_limit: args.parse_num("queue-depth")?.unwrap_or(8),
        resilience: resilience_from_args(args, None)?,
        drain,
        keep_query_traces: args.get("trace-out").is_some(),
        spill_dir: args.get("spill-dir").map(str::to_string),
        batching,
        snapshot,
        slo,
        flight_recorder,
        trace_sample,
        policy: policy_mode_from_args(args)?,
    };
    config.validate().map_err(|e| format!("serve flags: {e}"))?;
    let schedule = serve_schedule(args)?;
    let g = std::sync::Arc::new(load_graph(args)?);
    let stats = GraphStats::unknown(&g);
    let schedule = schedule(g.num_vertices())?;
    if let Some(dir) = &config.spill_dir {
        std::fs::create_dir_all(dir).map_err(|e| format!("{dir}: {e}"))?;
    }

    ui.say("training switch-point predictor (quick configuration)…");
    let rt = AdaptiveRuntime::quick_trained();
    let batching_on = config.batching.enabled();
    let batch_note = if batching_on {
        format!(
            ", batching window {} x {} lane(s)",
            config.batching.window, config.batching.max_lanes
        )
    } else {
        String::new()
    };
    let policy_note = if config.policy.is_online() {
        format!(", policy {}", config.policy)
    } else {
        String::new()
    };
    ui.say(format!(
        "serving {} schedule item(s) (capacity {}, queue depth {}{batch_note}{policy_note})…",
        schedule.len(),
        config.capacity,
        config.queue_limit,
    ));
    let service = QueryService::from_runtime(&rt, g, &stats, config);
    let report = service
        .run_schedule(&schedule)
        .map_err(|e| format!("service failed: {e}"))?;

    ui.say(format!(
        "admitted {} | served {} | degraded {} | shed {} (overload) + {} (shutdown) | \
         deadline-missed {} | failed {}",
        report.admitted,
        report.served,
        report.degraded,
        report.shed_overloaded,
        report.shed_shutdown,
        report.deadline_missed,
        report.failed,
    ));
    ui.say(format!(
        "peak queue depth {} | peak in-flight {} | mean queue depth {:.2} | \
         makespan {:.3} ms (simulated)",
        report.peak_queue_depth,
        report.peak_in_flight,
        report.mean_queue_depth,
        report.makespan_s * 1e3,
    ));
    if !report.timeseries.is_empty() {
        ui.say(format!(
            "telemetry: {} window(s) at {} s cadence",
            report.timeseries.len(),
            snapshot.every_seconds,
        ));
    }
    if let Some(slo) = &report.slo {
        ui.say(format!(
            "SLO {}: deadline hit {:.4} (target {}), latency hit {:.4} \
             (target {}, objective {} s)",
            if slo.met { "met" } else { "VIOLATED" },
            slo.deadline_hit_ratio,
            slo.policy.deadline_hit_ratio,
            slo.latency_hit_ratio,
            slo.policy.latency_hit_ratio,
            slo.policy.latency_objective_s,
        ));
    }
    let (detected, repaired) = report.metrics.corruption();
    if detected > 0 || repaired > 0 {
        ui.say(format!(
            "corruption across queries: {detected} detection(s), {repaired} repair(s)"
        ));
    }
    for (device, at_s) in &report.lost_devices {
        ui.say(format!(
            "device lost service-wide: {} at {:.3} ms — later queries skip its rungs",
            device,
            at_s * 1e3
        ));
    }
    for o in &report.outcomes {
        let verdict = match (&o.error, &o.run) {
            (Some(e), _) => format!("{}: {e}", o.disposition.name()),
            (None, Some(run)) => format!("{} on rung {}", o.disposition.name(), run.report.rung),
            (None, None) => o.disposition.name().to_string(),
        };
        ui.say(format!(
            "  query {} (source {}, arrival {:.3} ms, wait {:.3} ms): {verdict}",
            o.id,
            o.source,
            o.arrival_s * 1e3,
            o.wait_s * 1e3,
        ));
    }

    if let Some(path) = args.get("report-json") {
        write_out(path, &report.to_json())?;
        if path != "-" {
            ui.say(format!("wrote service report to {path}"));
        }
    }
    if let Some(path) = args.get("trace-out") {
        write_out(
            path,
            &service_chrome_trace_json(&report.events, &report.query_traces),
        )?;
        if path != "-" {
            ui.say(format!("wrote service chrome trace to {path}"));
        }
    }
    if let Some(path) = args.get("metrics-out") {
        let mut text = report.metrics.render();
        if let Some(slo) = &report.slo {
            text.push_str(&prometheus_slo_text(slo));
        }
        write_out(path, &text)?;
        if path != "-" {
            ui.say(format!("wrote service metrics to {path}"));
        }
    }
    if let Some(path) = args.get("timeseries-out") {
        write_out(
            path,
            &timeseries_json_lines(&report.timeseries, report.slo.as_ref()),
        )?;
        if path != "-" {
            ui.say(format!(
                "wrote telemetry stream to {path} ({} window(s))",
                report.timeseries.len()
            ));
        }
    }
    if let Some(dir) = args.get("postmortem-dir") {
        std::fs::create_dir_all(dir).map_err(|e| format!("{dir}: {e}"))?;
        for pm in &report.postmortems {
            let path = format!("{dir}/postmortem-query-{}.json", pm.query);
            std::fs::write(&path, pm.to_json()).map_err(|e| format!("{path}: {e}"))?;
            ui.say(format!(
                "wrote post-mortem for query {} ({} event(s), {} earlier dropped) to {path}",
                pm.query,
                pm.events.len(),
                pm.dropped,
            ));
        }
        if report.postmortems.is_empty() {
            ui.say("no post-mortems: every started query ended cleanly");
        }
    }
    Ok(())
}

fn cmd_bench(args: &Args) -> Result<(), String> {
    let ui = Ui::new(args);
    let preset_name = args.get("preset").unwrap_or("scaled");
    let preset = xbfs_bench::Preset::from_name(preset_name)
        .ok_or_else(|| format!("unknown preset '{preset_name}'"))?;
    let overlay = match args.get("fault-plan") {
        None => None,
        Some(path) => {
            let text = std::fs::read_to_string(path).map_err(|e| format!("{path}: {e}"))?;
            Some(FaultPlan::from_json(&text).map_err(|e| format!("{path}: {e}"))?)
        }
    };
    let tol = perf::PerfTolerance {
        rel: args.parse_num("tolerance")?.unwrap_or(1e-6),
        ..perf::PerfTolerance::default()
    };
    if !(tol.rel.is_finite() && tol.rel >= 0.0) {
        return Err(format!(
            "--tolerance must be finite and >= 0, got {}",
            tol.rel
        ));
    }

    ui.say(format!(
        "running pinned perf suite (preset {preset_name}, {} scales x {{{}, chaos}})…",
        perf::SUITE_PAPER_SCALES.len(),
        if overlay.is_some() {
            "overlay"
        } else {
            "fault-free"
        },
    ));
    let report = perf::run_suite(&preset, overlay.as_ref());
    for case in &report.cases {
        ui.say(format!(
            "  {}: {:.3} ms simulated, {:.3e} TEPS, rung {}, audit efficiency {:.4}",
            case.id,
            case.total_seconds * 1e3,
            case.teps,
            case.rung,
            case.audit.efficiency,
        ));
    }
    ui.say(format!(
        "harmonic-mean TEPS: {:.3e}",
        report.harmonic_mean_teps
    ));

    if let Some(path) = args.get("report-json") {
        write_out(path, &report.to_json())?;
        if path != "-" {
            ui.say(format!("wrote bench report to {path}"));
        }
    }

    let baseline_path = args.get("baseline").unwrap_or("bench/baseline.json");
    if std::env::var("UPDATE_BASELINE").is_ok_and(|v| !v.is_empty() && v != "0") {
        if let Some(dir) = std::path::Path::new(baseline_path).parent() {
            std::fs::create_dir_all(dir).map_err(|e| format!("{}: {e}", dir.display()))?;
        }
        std::fs::write(baseline_path, report.to_json())
            .map_err(|e| format!("{baseline_path}: {e}"))?;
        ui.say(format!("updated baseline at {baseline_path}"));
        return Ok(());
    }

    let bench_dir = std::path::PathBuf::from(args.get("bench-dir").unwrap_or("bench"));
    std::fs::create_dir_all(&bench_dir).map_err(|e| format!("{}: {e}", bench_dir.display()))?;
    let bench_path = perf::next_bench_path(&bench_dir);
    std::fs::write(&bench_path, report.to_json())
        .map_err(|e| format!("{}: {e}", bench_path.display()))?;
    ui.say(format!("wrote {}", bench_path.display()));

    if args.on("batched") {
        // Simulated-clock batch amortization sweep: deterministic, but
        // its case set is not in the committed baseline, so it lives in
        // its own artifact that the --compare gate below never reads.
        ui.say(format!(
            "running batched multi-source sweep ({:?} lanes vs solo sessions)…",
            perf::BATCHED_LANES
        ));
        let batched = perf::run_batched(&preset);
        for case in &batched.cases {
            ui.say(format!(
                "  {} lane(s): {:8.3} ms batched vs {:8.3} ms solo ({:.2}x), {} rounds",
                case.lanes,
                case.batch_seconds * 1e3,
                case.solo_seconds * 1e3,
                case.speedup,
                case.rounds,
            ));
        }
        let batched_path = bench_dir.join("BATCHED.json");
        std::fs::write(&batched_path, batched.to_json())
            .map_err(|e| format!("{}: {e}", batched_path.display()))?;
        ui.say(format!(
            "wrote {} (informational; excluded from the perf gate)",
            batched_path.display()
        ));
    }

    if let Some(v) = args.get("policy") {
        if !v.is_empty() {
            return Err(format!(
                "bench --policy takes no value (got {v:?}); the sweep always runs the offline \
                 and online streams side by side"
            ));
        }
        // Offline-vs-online policy streams: seeded and simulated-clock
        // deterministic, but recorded as a trend artifact that the
        // --compare gate below never reads.
        ui.say(format!(
            "running online-policy sweep ({} queries × {{rmat, road, small-world}}, bandit seed {:#x})…",
            perf::POLICY_QUERIES,
            perf::POLICY_BANDIT_SEED
        ));
        let policy = perf::run_policy(&preset);
        for case in &policy.families {
            let first = case.cohorts.first().map_or(0.0, |c| c.mean_level_regret_s);
            let last = case.cohorts.last().map_or(0.0, |c| c.mean_level_regret_s);
            ui.say(format!(
                "  {:>11}: efficiency {:.4} offline → {:.4} online; cohort regret {:+.3e} → {:+.3e} s ({}, {} exploration(s))",
                case.family,
                case.offline_mean_efficiency,
                case.online_mean_efficiency,
                first,
                last,
                if case.regret_is_non_increasing() {
                    "non-increasing"
                } else {
                    "NOT monotone"
                },
                case.explorations,
            ));
        }
        let policy_path = bench_dir.join("POLICY.json");
        std::fs::write(&policy_path, policy.to_json())
            .map_err(|e| format!("{}: {e}", policy_path.display()))?;
        ui.say(format!(
            "wrote {} (informational; excluded from the perf gate)",
            policy_path.display()
        ));
    }

    if let Some(path) = args.get("compare") {
        let baseline = perf::BenchReport::load(std::path::Path::new(path))?;
        let outcome = perf::compare(&report, &baseline, &tol);
        for note in &outcome.improvements {
            ui.say(format!("improvement: {note}"));
        }
        if !outcome.is_pass() {
            return Err(format!(
                "{} perf regression(s) vs {path}:\n  {}",
                outcome.regressions.len(),
                outcome.regressions.join("\n  ")
            ));
        }
        ui.say(format!(
            "perf gate passed: no regression vs {path} (rel tolerance {:e})",
            tol.rel
        ));
    }
    Ok(())
}

/// Render `values` as a unicode sparkline, scaled to the series maximum.
fn sparkline(values: &[f64]) -> String {
    const BARS: [char; 8] = ['▁', '▂', '▃', '▄', '▅', '▆', '▇', '█'];
    let max = values.iter().cloned().fold(0.0f64, f64::max);
    values
        .iter()
        .map(|&v| {
            if max <= 0.0 || !v.is_finite() {
                BARS[0]
            } else {
                let idx = ((v / max) * 7.0).round() as usize;
                BARS[idx.min(7)]
            }
        })
        .collect()
}

/// `report --timeseries FILE`: render the JSON-lines telemetry stream a
/// `serve --snapshot-every … --timeseries-out FILE` run wrote as a text
/// dashboard — queue-depth sparkline, per-window rate table, latency
/// quantile table, and the SLO verdict when the stream carries one.
fn cmd_report(args: &Args) -> Result<(), String> {
    let path = args.require("timeseries")?;
    let text = if path == "-" {
        use std::io::Read;
        let mut buf = String::new();
        std::io::stdin()
            .read_to_string(&mut buf)
            .map_err(|e| format!("stdin: {e}"))?;
        buf
    } else {
        std::fs::read_to_string(path).map_err(|e| format!("{path}: {e}"))?
    };

    let mut windows: Vec<serde_json::Value> = Vec::new();
    let mut slo: Option<serde_json::Value> = None;
    for (lineno, line) in text.lines().enumerate() {
        if line.trim().is_empty() {
            continue;
        }
        let v: serde_json::Value = serde_json::from_str(line)
            .map_err(|e| format!("{path}:{}: not JSON: {e}", lineno + 1))?;
        match v.get("kind").and_then(|k| k.as_str()) {
            Some("window") => windows.push(v),
            Some("slo") => slo = Some(v),
            other => {
                return Err(format!(
                    "{path}:{}: unknown record kind {other:?}",
                    lineno + 1
                ))
            }
        }
    }
    if windows.is_empty() {
        return Err(format!("{path}: no telemetry windows in the stream"));
    }

    let f = |w: &serde_json::Value, key: &str| w.get(key).and_then(|v| v.as_f64()).unwrap_or(0.0);
    let u = |w: &serde_json::Value, key: &str| w.get(key).and_then(|v| v.as_u64()).unwrap_or(0);
    // Empty windows omit their quantile keys entirely (a histogram with no
    // observations has no p50); render those cells as `-` instead of
    // fabricating a zero latency.
    let q = |w: &serde_json::Value, hist: &str, key: &str| {
        w.get(hist)
            .and_then(|h| h.get(key))
            .and_then(|v| v.as_f64())
            .map_or_else(|| "-".to_string(), |v| format!("{v:.6}"))
    };

    let start = f(&windows[0], "start_s");
    let end = f(windows.last().expect("non-empty"), "end_s");
    outln!(
        "telemetry report: {} window(s), {start:.3} s – {end:.3} s",
        windows.len()
    );

    let depths: Vec<f64> = windows.iter().map(|w| f(w, "queue_depth_mean")).collect();
    let peak = windows
        .iter()
        .map(|w| u(w, "queue_depth_peak"))
        .max()
        .unwrap_or(0);
    outln!(
        "queue depth: {} (mean per window, peak {peak})",
        sparkline(&depths)
    );

    outln!();
    outln!(
        "{:>6} {:>13} {:>9} {:>9} {:>9} {:>8} {:>7} {:>9}",
        "window",
        "span (s)",
        "admit/s",
        "shed/s",
        "done/s",
        "q mean",
        "q peak",
        "busy mean"
    );
    for w in &windows {
        outln!(
            "{:>6} {:>6.3}–{:>6.3} {:>9.2} {:>9.2} {:>9.2} {:>8.2} {:>7} {:>9.2}",
            u(w, "index"),
            f(w, "start_s"),
            f(w, "end_s"),
            f(w, "admit_rate_hz"),
            f(w, "shed_rate_hz"),
            f(w, "complete_rate_hz"),
            f(w, "queue_depth_mean"),
            u(w, "queue_depth_peak"),
            f(w, "in_flight_mean"),
        );
    }

    outln!();
    outln!(
        "{:>6} {:>9} {:>10} {:>10} {:>10} {:>12}",
        "window",
        "completed",
        "p50 (s)",
        "p95 (s)",
        "p99 (s)",
        "wait p95 (s)"
    );
    for w in &windows {
        outln!(
            "{:>6} {:>9} {:>10} {:>10} {:>10} {:>12}",
            u(w, "index"),
            u(w, "completed"),
            q(w, "latency", "p50_s"),
            q(w, "latency", "p95_s"),
            q(w, "latency", "p99_s"),
            q(w, "queue_wait", "p95_s"),
        );
    }

    outln!();
    match &slo {
        None => outln!("SLO: not configured"),
        Some(s) => {
            let policy = s.get("policy").cloned().unwrap_or(serde_json::Value::Null);
            let met = s.get("met").and_then(|v| v.as_bool()).unwrap_or(false);
            outln!(
                "SLO verdict: {} — deadline hit {:.4} (target {}), latency hit {:.4} \
                 (target {}, objective {} s)",
                if met { "MET" } else { "VIOLATED" },
                f(s, "deadline_hit_ratio"),
                f(&policy, "deadline_hit_ratio"),
                f(s, "latency_hit_ratio"),
                f(&policy, "latency_hit_ratio"),
                f(&policy, "latency_objective_s"),
            );
            if let Some(burns) = s.get("windows").and_then(|v| v.as_array()) {
                let worst = |key: &str| {
                    burns
                        .iter()
                        .map(|b| (u(b, "index"), f(b, key)))
                        .max_by(|a, b| a.1.total_cmp(&b.1))
                };
                if let (Some((di, db)), Some((li, lb))) =
                    (worst("deadline_burn"), worst("latency_burn"))
                {
                    outln!(
                        "peak burn: deadline {db:.2}x (window {di}), \
                         latency {lb:.2}x (window {li})"
                    );
                }
            }
        }
    }
    Ok(())
}

const USAGE: &str = "\
usage: xbfs-cli <command> [flags]
commands:
  gen        --scale S [--edgefactor E] [--seed X] --out FILE [--text]
  info       --graph FILE [--text]
  bfs        --graph FILE [--source V] [--policy td|bu|hybrid|model]
             [--threads T] [--scrub] [--checksum]
             [--trace-out T.json] [--metrics-out M.prom] [--quiet] [--text]
  stcon      --graph FILE --from A --to B [--text]
  components --graph FILE [--text]
  adaptive   --graph FILE [--source V] [--fault-plan FILE.json] [--deadline SECS]
             [--retries N] [--checkpoint-interval L] [--spill CK.json]
             [--resume CK.json] [--scrub] [--checksum] [--report-json R.json]
             [--policy offline|online[:SEED]]
             [--trace-out T.json] [--metrics-out M.prom] [--quiet] [--text]
  serve      --graph FILE (--requests FILE|- | --arrivals N [--rate R] [--seed S]
             [--request-deadline SECS] [--chaos-dir DIR] [--chaos-every K])
             [--capacity C] [--queue-depth Q] [--batch-window W] [--batch-lanes L]
             [--deadline SECS] [--retries N]
             [--checkpoint-interval L] [--spill-dir DIR] [--scrub] [--checksum]
             [--drain-at SECS] [--drain-mode complete|cancel]
             [--snapshot-every SECS] [--timeseries-out TS.jsonl]
             [--slo-deadline-ratio R] [--slo-latency SECS] [--slo-latency-ratio R]
             [--flight-recorder N] [--postmortem-dir DIR] [--trace-sample RATE]
             [--policy offline|online[:SEED]]
             [--report-json R.json] [--trace-out T.json] [--metrics-out M.prom]
             [--quiet] [--text]
  bench      [--preset scaled|paper] [--compare BASELINE.json] [--tolerance REL]
             [--bench-dir DIR] [--baseline FILE] [--fault-plan OVERLAY.json]
             [--report-json R.json] [--batched] [--policy]
             [--quiet]
  report     --timeseries TS.jsonl

adaptive runs the cross-architecture combination under an optional fault
plan (JSON, see xbfs_archsim::FaultPlan) with retry, a simulated-time
deadline, per-device circuit breakers, and a degradation ladder:
CPUTD+GPUCB -> CPU-only hybrid -> sequential reference BFS. The output is
Graph 500-validated on every rung. --checkpoint-interval L cuts a resumable
checkpoint every L levels (--spill writes each one to disk as JSON);
--resume continues a previous run from such a file instead of starting at
level 0; --report-json writes the full RunReport as JSON. Against silent
data corruption (FaultKind::BitFlip in a fault plan), --checksum verifies
every link transfer at the receiver (integrity cost charged on the
simulated clock) and --scrub audits the traversal invariants at every
level boundary, rolling the rung back to its last trusted checkpoint on a
hit; bfs --scrub runs the same audit on the real engine, and bfs
--checksum prints a stable output fingerprint to compare across runs.

--trace-out records the run as chrome://tracing JSON (load the file at
https://ui.perfetto.dev); --metrics-out writes Prometheus text-format
counters keyed by device, rung, and direction. Both accept '-' for stdout;
human narration then moves to stderr, and --quiet silences it entirely.

serve runs the multi-tenant query service over one shared graph: requests
arrive on a simulated clock (a JSON-lines file with one QueryRequest per
line and an optional {\"drain_at_s\": S} marker, or a seeded synthetic
schedule), pass a capacity/queue admission layer that sheds overload with
a typed error, run concurrently as fault-isolated sessions, and share
permanent device losses through service-wide circuit breakers. --deadline
bounds each query's simulated clock; --request-deadline additionally
counts queue wait against each synthetic request. --chaos-dir mixes the
committed fault plans into every --chaos-every-th query (default 4).
--requests replays its stream as written: --arrivals, --rate,
--request-deadline, --chaos-dir and --chaos-every shape only the seeded
schedule, and each of them alongside --requests is a flag error.
--batch-window W (default 0 = off) turns on the batching stage: whenever
a slot frees, up to W compatible queued queries (fault-free; --batch-lanes
caps the batch, default 64) run as one BatchSession occupying a single
slot, with per-query deadlines still settled individually at the batch
completion instant. Batching amortizes the simulated clock only: each
lane still costs the CPU time of a solo query.

serve telemetry (all off by default, all on the simulated clock — the
same seeded run replays byte-for-byte): --snapshot-every S closes a
telemetry window every S simulated seconds (queue/in-flight gauges,
admit/shed/complete rates, batch occupancy, corruption counters, and
log-bucketed latency + queue-wait histograms with p50/p95/p99);
--timeseries-out streams the closed windows as JSON lines ('-' for
stdout). The --slo-* flags set service-level objectives evaluated over
those windows (deadline hit ratio, latency objective + hit ratio); the
verdict lands in the narration, the JSON-lines stream, and --metrics-out
as the xbfs_slo_* families. Every query records one trace buffer.
--flight-recorder N dumps the last N events of a query's buffer as a
post-mortem JSON artifact (--postmortem-dir, postmortem-query-<id>.json)
when the query ends in a typed error. report renders a --timeseries-out
stream as a text dashboard: queue-depth sparkline, per-window rate and
quantile tables, and the SLO verdict with peak burn-rate windows.
--trace-out writes one chrome trace with the service track plus every
query as its own process on the service clock; --trace-sample RATE
(needs --trace-out) head-samples which queries it keeps (seeded by
--seed; a query is kept or dropped whole, never truncated). --metrics-out
counts every query's buffer, so its bytes never depend on --trace-out or
--trace-sample; it includes the xbfs_service_* admission counters.

bench runs the pinned deterministic perf suite (three Graph 500 sizes,
fault-free and under the committed chaos plan), writes a versioned
BENCH_<n>.json into --bench-dir (default bench/), and with --compare exits
nonzero naming every metric that regressed beyond --tolerance (default
1e-6 relative; the suite clock is simulated, so drift means a behavior
change). --fault-plan replaces the fault-free half with an overlay plan —
the hook for proving the gate trips. Set UPDATE_BASELINE=1 to rewrite
--baseline (default bench/baseline.json) instead, mirroring UPDATE_GOLDEN
for golden traces. --batched prices a 2/4/8-lane BatchSession against the same sources run
solo and writes the simulated-clock amortization curve to BATCHED.json in
--bench-dir — deterministic, but its case set is absent from the
committed baseline, so it stays out of the --compare gate.

adaptive and serve take --policy offline|online[:SEED], which selects the
per-level placement policy: offline (the default) is the paper's fixed
(M, N) pipeline, byte-identical to omitting the flag; online replaces it
with a seeded deterministic bandit over discretized frontier-feature bins
that picks TD/BU x CPU/GPU each level and learns from realized simulated
level costs. Under serve, one shared bandit carries learning across
queries: each query runs on a snapshot taken at admission and its
observations fold back at completion, both in simulated order, so a
seeded stream replays byte-for-byte. bfs --policy picks the CPU engine's
direction rule instead: td, bu, hybrid (the default, FixedMN 14/24) or
model (the CPU cost model). bench --policy writes an informational
POLICY.json (offline vs online vs oracle regret per query cohort, on
R-MAT plus road-like and small-world generators); like BATCHED it never
joins the --compare gate.";

fn main() -> ExitCode {
    let mut argv = std::env::args().skip(1);
    let Some(command) = argv.next() else {
        eprintln!("{USAGE}");
        return ExitCode::FAILURE;
    };
    if matches!(command.as_str(), "help" | "--help" | "-h") {
        outln!("{USAGE}");
        return ExitCode::SUCCESS;
    }
    let Some(&(_, run, accepted)) = COMMANDS.iter().find(|(name, ..)| *name == command) else {
        eprintln!("error: unknown command '{command}'");
        return ExitCode::FAILURE;
    };
    let args = match Args::parse(&command, accepted, argv) {
        Ok(a) => a,
        Err(e) => {
            eprintln!("error: {e}\n{USAGE}");
            return ExitCode::FAILURE;
        }
    };
    match run(&args) {
        Ok(()) => ExitCode::SUCCESS,
        Err(e) => {
            eprintln!("error: {e}");
            ExitCode::FAILURE
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The flags USAGE names for each command, from its synopsis block
    /// (the lines between `commands:` and the first blank line).
    fn usage_flags() -> Vec<(String, Vec<String>)> {
        let synopsis = USAGE
            .split("commands:\n")
            .nth(1)
            .and_then(|rest| rest.split("\n\n").next())
            .expect("USAGE has a commands block");
        let mut blocks: Vec<(String, Vec<String>)> = Vec::new();
        for line in synopsis.lines() {
            let body = line.strip_prefix("  ").expect("indented synopsis line");
            if !body.starts_with(' ') {
                let name = body.split_whitespace().next().expect("command name");
                blocks.push((name.to_string(), Vec::new()));
            }
            let flags = &mut blocks.last_mut().expect("a command line first").1;
            for part in body.split("--").skip(1) {
                let flag: String = part
                    .chars()
                    .take_while(|c| c.is_ascii_lowercase() || *c == '-')
                    .collect();
                if !flag.is_empty() && !flags.contains(&flag) {
                    flags.push(flag);
                }
            }
        }
        blocks
    }

    #[test]
    fn accepted_flags_match_usage() {
        let usage = usage_flags();
        let names: Vec<&str> = usage.iter().map(|(name, _)| name.as_str()).collect();
        let commands: Vec<&str> = COMMANDS.iter().map(|(name, ..)| *name).collect();
        assert_eq!(names, commands);
        for ((name, named), (_, _, accepted)) in usage.iter().zip(COMMANDS) {
            let mut named: Vec<&str> = named.iter().map(String::as_str).collect();
            let mut accepted: Vec<&str> = accepted.split_whitespace().collect();
            named.sort_unstable();
            accepted.sort_unstable();
            assert_eq!(named, accepted, "{name}: USAGE and COMMANDS disagree");
        }
    }
}
