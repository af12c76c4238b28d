//! The pinned performance suite behind `xbfs-cli bench`: deterministic
//! benchmark reports, a committed baseline, and regression comparison.
//!
//! Every metric the suite records lives on the *simulated* clock (TEPS
//! against simulated seconds, per-phase attribution from the trace, audit
//! efficiency against the exhaustive oracle), so reports are bit-stable
//! across machines and reruns — the only nondeterministic field is the
//! measured prediction wall time, which is recorded but never compared.
//! That determinism is what lets the CI perf gate hold tolerances near
//! zero: any drift beyond float-noise is a real behavior change.
//!
//! The suite runs the scaled preset's three Graph 500 sizes twice each —
//! fault-free and under one committed chaos plan — through the full
//! [`xbfs_core::RunSession`] resilient path with tracing on, then audits every
//! decision with [`decision_audit`]. Reports serialize as versioned
//! `BENCH_<n>.json` files; `bench/baseline.json` pins the expected values.

use crate::Preset;
use serde::{Deserialize, Serialize};
use std::collections::BTreeMap;
use std::path::{Path, PathBuf};
use std::time::Instant;
use xbfs_archsim::FaultPlan;
use xbfs_core::training::pick_source;
use xbfs_core::{
    decision_audit, policy_audit, AdaptiveRuntime, BatchSession, CheckpointPolicy, CrossParams,
    DecisionAudit, PolicyAudit, RunReport, SharedPolicy,
};
use xbfs_engine::metrics::{harmonic_mean_teps, Teps};
use xbfs_engine::{reference, MemorySink};
use xbfs_graph::{gen, Csr};

/// Version of the `BENCH_<n>.json` schema; bumped on breaking changes so
/// `compare` refuses to diff incompatible reports instead of misreading
/// them.
pub const BENCH_FORMAT_VERSION: u64 = 1;

/// The committed chaos plan every suite run replays (moderate mixed
/// faults, seeded — the same plan the chaos corpus pins).
pub const SUITE_CHAOS_PLAN: &str = include_str!("../../../tests/chaos/08-mixed-moderate.json");

/// The paper SCALEs the suite covers (mapped through the preset).
pub const SUITE_PAPER_SCALES: [u32; 3] = [21, 22, 23];

const SUITE_EDGEFACTOR: u32 = 16;

/// One benchmark case: a `(graph, fault plan)` pair run end to end.
#[derive(Clone, Debug, PartialEq, Serialize, Deserialize)]
pub struct BenchCase {
    /// Case id, e.g. `"s16-ef16-fault-free"`.
    pub id: String,
    /// Generated graph SCALE (after the preset's shift).
    pub scale: u32,
    /// Generated graph edgefactor.
    pub edgefactor: u32,
    /// Fault-plan label ("fault-free", "chaos", "overlay").
    pub plan: String,
    /// Label of the rung that served the traversal.
    pub rung: String,
    /// End-to-end simulated seconds.
    pub total_seconds: f64,
    /// Undirected edges in the traversed component (the Graph 500 TEPS
    /// numerator).
    pub component_edges: u64,
    /// Simulated traversed edges per second.
    pub teps: f64,
    /// Edges the run examined (including replays and failed attempts).
    pub edges_examined: u64,
    /// Simulated seconds the leaf spans cover, across every device lane:
    /// the audit's [`DecisionAudit::attributed_s`]. The clock is serial,
    /// so this is the run's critical path, and it equals `total_seconds`
    /// because every charge of a fresh run has a span.
    pub critical_path_s: f64,
    /// Simulated seconds per `kind/device` phase bucket: the audit's
    /// `phases`, keyed `"{phase}/{device}"`.
    pub phase_seconds: BTreeMap<String, f64>,
    /// Full decision audit of the run.
    pub audit: DecisionAudit,
}

/// A complete suite run: the versioned content of one `BENCH_<n>.json`.
#[derive(Clone, Debug, PartialEq, Serialize, Deserialize)]
pub struct BenchReport {
    /// Schema version ([`BENCH_FORMAT_VERSION`]).
    pub format_version: u64,
    /// Preset name the suite ran under.
    pub preset: String,
    /// Harmonic-mean TEPS across all cases (the Graph 500 aggregate).
    pub harmonic_mean_teps: f64,
    /// Every case, in suite order.
    pub cases: Vec<BenchCase>,
}

impl BenchReport {
    /// Serialize to pretty JSON.
    pub fn to_json(&self) -> String {
        serde_json::to_string_pretty(self).expect("bench report serializes")
    }

    /// Parse from JSON.
    pub fn from_json(s: &str) -> Result<Self, String> {
        serde_json::from_str(s).map_err(|e| format!("bench report parse error: {e:?}"))
    }

    /// Load a report from a file.
    pub fn load(path: &Path) -> Result<Self, String> {
        let text = std::fs::read_to_string(path)
            .map_err(|e| format!("cannot read {}: {e}", path.display()))?;
        Self::from_json(&text)
    }
}

/// Tolerances for [`compare`]. Every compared metric is simulated-clock
/// deterministic, so the defaults only absorb float-summation noise.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct PerfTolerance {
    /// Relative tolerance on seconds/TEPS/ratios.
    pub rel: f64,
    /// Absolute floor in seconds, so near-zero phases don't trip the
    /// relative band on noise.
    pub abs_s: f64,
}

impl Default for PerfTolerance {
    fn default() -> Self {
        Self {
            rel: 1e-6,
            abs_s: 1e-9,
        }
    }
}

/// Outcome of comparing a candidate report against a baseline.
#[derive(Clone, Debug, Default, PartialEq)]
pub struct CompareOutcome {
    /// Regressions beyond tolerance — each names the case and metric.
    pub regressions: Vec<String>,
    /// Improvements beyond tolerance (informational; a stale baseline).
    pub improvements: Vec<String>,
}

impl CompareOutcome {
    /// `true` when no regression was found.
    pub fn is_pass(&self) -> bool {
        self.regressions.is_empty()
    }
}

/// Run the pinned suite under `preset`.
///
/// Each suite graph runs twice: once fault-free (or under `overlay` when
/// given — the hook the acceptance test uses to inject a deliberate
/// slowdown) and once under the committed chaos plan.
pub fn run_suite(preset: &Preset, overlay: Option<&FaultPlan>) -> BenchReport {
    let rt = suite_runtime(preset);
    let chaos = FaultPlan::from_json(SUITE_CHAOS_PLAN).expect("committed chaos plan parses");
    let fault_free = FaultPlan::none();
    let (first_plan, first_label) = match overlay {
        Some(p) => (p.clone(), "overlay"),
        None => (fault_free, "fault-free"),
    };

    let mut cases = Vec::new();
    for paper_scale in SUITE_PAPER_SCALES {
        let scale = preset.scale(paper_scale);
        // The overlay keeps the fault-free slot's case id so a comparison
        // against the committed baseline reports per-metric regressions
        // instead of a case-set mismatch.
        cases.push(run_case(&rt, scale, &first_plan, "fault-free", first_label));
        cases.push(run_case(&rt, scale, &chaos, "chaos", "chaos"));
    }
    let teps: Vec<Teps> = cases
        .iter()
        .map(|c| Teps::new(c.component_edges, c.total_seconds))
        .collect();
    BenchReport {
        format_version: BENCH_FORMAT_VERSION,
        preset: preset.name.to_string(),
        harmonic_mean_teps: harmonic_mean_teps(&teps),
        cases,
    }
}

/// The trained runtime the suite shares across cases: deterministic
/// training data, so the predicted parameters are stable.
pub fn suite_runtime(preset: &Preset) -> AdaptiveRuntime {
    if preset.full_training {
        AdaptiveRuntime::train(&xbfs_core::training::TrainingConfig::paper_sized())
    } else {
        AdaptiveRuntime::quick_trained()
    }
}

fn run_case(
    rt: &AdaptiveRuntime,
    scale: u32,
    plan: &FaultPlan,
    id_label: &str,
    plan_label: &str,
) -> BenchCase {
    let ef = SUITE_EDGEFACTOR;
    let g = crate::experiments::graph(scale, ef);
    let stats = crate::experiments::stats(&g);
    let src = crate::experiments::source(&g, scale, ef);

    let started = Instant::now();
    let params = rt.predict_params(&stats);
    let prediction_overhead_s = started.elapsed().as_secs_f64();

    let sink = MemorySink::new();
    let run = rt
        .session(&g, &stats)
        .source(src)
        .params(params)
        .fault_plan(plan)
        .checkpoints(CheckpointPolicy::every(4))
        .sink(&sink)
        .run()
        .expect("suite plans always leave a serving rung");
    let events = sink.take();
    let report: &RunReport = &run.report;

    let profile = xbfs_archsim::profile(&g, src);
    let audit = decision_audit(
        &profile,
        &rt.cpu,
        &rt.gpu,
        &rt.link,
        &params,
        &events,
        report,
        prediction_overhead_s,
    );

    let phase_seconds = audit
        .phases
        .iter()
        .map(|p| (format!("{}/{}", p.phase, p.device), p.seconds))
        .collect();

    let component_edges = reference::component_edges(&g, &run.output);
    let teps = Teps::new(component_edges, report.total_seconds);
    BenchCase {
        id: format!("s{scale}-ef{ef}-{id_label}"),
        scale,
        edgefactor: ef,
        plan: plan_label.to_string(),
        rung: report.rung.label().to_string(),
        total_seconds: report.total_seconds,
        component_edges,
        teps: teps.teps(),
        edges_examined: report.edges_examined,
        critical_path_s: audit.attributed_s(),
        phase_seconds,
        audit,
    }
}

/// Lane counts the batched sweep prices — powers of two up to an
/// eighth-full u64 word keep the sweep quick while still showing the
/// amortization curve.
pub const BATCHED_LANES: [usize; 3] = [2, 4, 8];

/// The paper SCALE the batched sweep runs at (mapped through the preset).
pub const BATCHED_PAPER_SCALE: u32 = 21;

/// One lane-count measurement of the batched sweep.
#[derive(Clone, Debug, PartialEq, Serialize, Deserialize)]
pub struct BatchedCase {
    /// Lanes packed into the batch.
    pub lanes: usize,
    /// Simulated seconds for the whole batch (the shared lockstep clock).
    pub batch_seconds: f64,
    /// Simulated seconds for the same sources run back to back through
    /// solo [`xbfs_core::RunSession`]s.
    pub solo_seconds: f64,
    /// `solo_seconds / batch_seconds` — the amortization factor.
    pub speedup: f64,
    /// Lockstep rounds the batch took (the deepest lane's level count).
    pub rounds: u32,
    /// Edges examined, summed across lanes.
    pub edges_examined: u64,
}

/// The batched multi-source sweep: [`BatchSession`] against solo sessions
/// at every [`BATCHED_LANES`] count on one suite graph.
///
/// Every metric here lives on the simulated clock and is deterministic,
/// but the case set is not in the committed baseline and [`compare`]
/// rejects cases absent from it — so the sweep is recorded as its own
/// informational artifact (`BATCHED.json`) rather than folded into
/// `BENCH_<n>.json`.
#[derive(Clone, Debug, PartialEq, Serialize, Deserialize)]
pub struct BatchedReport {
    /// Preset the sweep ran under.
    pub preset: String,
    /// Generated graph SCALE (after the preset's shift).
    pub scale: u32,
    /// Generated graph edgefactor.
    pub edgefactor: u32,
    /// BFS sources in lane order; the `k`-lane case batches the first `k`.
    pub sources: Vec<u32>,
    /// Every measurement, in [`BATCHED_LANES`] order.
    pub cases: Vec<BatchedCase>,
}

impl BatchedReport {
    /// Serialize to pretty JSON.
    pub fn to_json(&self) -> String {
        serde_json::to_string_pretty(self).expect("batched report serializes")
    }

    /// Parse from JSON.
    pub fn from_json(s: &str) -> Result<Self, String> {
        serde_json::from_str(s).map_err(|e| format!("batched report parse error: {e:?}"))
    }
}

/// Run the batched sweep under `preset` at the default
/// [`BATCHED_PAPER_SCALE`].
///
/// # Panics
/// Panics if any batch lane's parent array disagrees with its solo run —
/// lane/solo identity is a hard `BatchSession` invariant, not a tunable.
pub fn run_batched(preset: &Preset) -> BatchedReport {
    run_batched_at(preset, BATCHED_PAPER_SCALE)
}

/// [`run_batched`] at an explicit paper SCALE (tests use a smaller
/// instance).
pub fn run_batched_at(preset: &Preset, paper_scale: u32) -> BatchedReport {
    let rt = suite_runtime(preset);
    let scale = preset.scale(paper_scale);
    let ef = SUITE_EDGEFACTOR;
    let g = crate::experiments::graph(scale, ef);
    let stats = crate::experiments::stats(&g);
    let base = crate::experiments::source(&g, scale, ef);
    let n = g.num_vertices();
    let max_lanes = *BATCHED_LANES.iter().max().expect("lane table is non-empty");
    // Spread sources across the vertex range so the lanes see different
    // frontier shapes instead of one traversal eight times over.
    let sources: Vec<u32> = (0..max_lanes)
        .map(|i| (base + i as u32 * 127) % n)
        .collect();

    // Price every source solo once; the k-lane case sums the first k.
    let solos: Vec<_> = sources
        .iter()
        .map(|&s| {
            rt.session(&g, &stats)
                .source(s)
                .run()
                .expect("fault-free solo serves")
        })
        .collect();

    let mut cases = Vec::new();
    for &lanes in &BATCHED_LANES {
        let batch = BatchSession::new(&rt, &g, &stats)
            .sources(&sources[..lanes])
            .run()
            .expect("fault-free batch serves");
        for (lane, solo) in batch.lanes.iter().zip(&solos) {
            assert_eq!(
                lane.run.output.parents, solo.output.parents,
                "lane {} diverged from its solo run",
                lane.lane
            );
        }
        let solo_seconds: f64 = solos[..lanes].iter().map(|s| s.report.total_seconds).sum();
        cases.push(BatchedCase {
            lanes,
            batch_seconds: batch.total_seconds,
            solo_seconds,
            speedup: solo_seconds / batch.total_seconds,
            rounds: batch.rounds,
            edges_examined: batch
                .lanes
                .iter()
                .map(|l| l.run.report.edges_examined)
                .sum(),
        });
    }
    BatchedReport {
        preset: preset.name.to_string(),
        scale,
        edgefactor: ef,
        sources,
        cases,
    }
}

/// Queries in the seeded policy stream each family replays.
pub const POLICY_QUERIES: usize = 200;

/// Cohorts the stream is split into for the regret trend
/// ([`POLICY_QUERIES`]` / POLICY_COHORTS` queries each).
pub const POLICY_COHORTS: usize = 8;

/// Distinct BFS sources the stream cycles through. A small repeated pool
/// is deliberate: the bandit finishes exploring each source's feature
/// bins inside the first cohort, so the per-cohort regret trend isolates
/// *learning* rather than source-to-source variance. The pool size
/// divides the cohort size exactly, so every cohort sees the identical
/// source mix and cohort means are comparable.
pub const POLICY_SOURCE_POOL: usize = 5;

/// The paper SCALE the policy sweep runs at (mapped through the preset).
pub const POLICY_PAPER_SCALE: u32 = 21;

/// Default bandit seed for the sweep's online stream.
pub const POLICY_BANDIT_SEED: u64 = 0xB0F5;

/// One cohort of the online stream: consecutive queries aggregated so the
/// artifact shows regret trending down as the bandit learns.
#[derive(Clone, Debug, PartialEq, Serialize, Deserialize)]
pub struct PolicyCohort {
    /// Cohort index (0-based, in stream order).
    pub cohort: usize,
    /// Queries aggregated into this cohort.
    pub queries: usize,
    /// Mean of the cohort's per-query [`PolicyAudit::mean_level_regret_s`].
    pub mean_level_regret_s: f64,
    /// Mean of the cohort's per-query audit efficiencies.
    pub mean_efficiency: f64,
    /// Exploration decisions (unplayed arms) the cohort spent.
    pub explorations: u32,
}

/// One graph family's offline-vs-online comparison over the same seeded
/// query stream.
#[derive(Clone, Debug, PartialEq, Serialize, Deserialize)]
pub struct PolicyFamilyCase {
    /// Family label: `"rmat"` (in the offline training distribution),
    /// `"road"` or `"small-world"` (held out — the regimes the online
    /// policy exists for).
    pub family: String,
    /// Vertices in the generated instance.
    pub vertices: u32,
    /// Directed edge slots in the CSR.
    pub edges: u64,
    /// The source pool the stream cycles through, in cycle order.
    pub sources: Vec<u32>,
    /// The offline SVM's predicted fixed `(M, N)` pair for this graph —
    /// the baseline every query in the offline stream runs with.
    pub offline_params: CrossParams,
    /// Mean audit efficiency (oracle / realized) of the offline stream.
    pub offline_mean_efficiency: f64,
    /// Mean audit efficiency of the online stream.
    pub online_mean_efficiency: f64,
    /// Mean per-level regret of the offline stream, simulated seconds.
    pub offline_mean_regret_s: f64,
    /// Mean per-level regret of the online stream, simulated seconds.
    pub online_mean_regret_s: f64,
    /// Per-level policy decisions the online stream traced.
    pub decisions: u32,
    /// Decisions that were still exploring unplayed arms.
    pub explorations: u32,
    /// The online stream split into [`POLICY_COHORTS`] cohorts.
    pub cohorts: Vec<PolicyCohort>,
}

impl PolicyFamilyCase {
    /// Whether the cohort regret trend is monotone non-increasing (within
    /// float-summation noise) — the "bandit is learning, not thrashing"
    /// check the nightly artifact is read for.
    pub fn regret_is_non_increasing(&self) -> bool {
        self.cohorts
            .windows(2)
            .all(|w| w[1].mean_level_regret_s <= w[0].mean_level_regret_s + 1e-9)
    }
}

/// The online-policy sweep: a seeded [`POLICY_QUERIES`]-query stream per
/// graph family, run twice — once with the offline fixed `(M, N)`
/// prediction, once with a shared [`SharedPolicy`] bandit that learns
/// across queries exactly like the service's capacity-1 admission order.
///
/// Every metric lives on the simulated clock and the stream is fully
/// seeded, so the report is deterministic — but like `BATCHED.json` it
/// is recorded as an informational artifact (`POLICY.json`) and
/// deliberately excluded from the perf gate ([`compare`] never reads it):
/// its point is the offline/online *trend*, not a pinned number.
#[derive(Clone, Debug, PartialEq, Serialize, Deserialize)]
pub struct PolicyReport {
    /// Preset the sweep ran under.
    pub preset: String,
    /// Generated graph SCALE (after the preset's shift).
    pub scale: u32,
    /// R-MAT edgefactor (the held-out families match its vertex count).
    pub edgefactor: u32,
    /// Bandit seed of the online stream.
    pub bandit_seed: u64,
    /// Queries per stream.
    pub queries: usize,
    /// One case per graph family.
    pub families: Vec<PolicyFamilyCase>,
}

impl PolicyReport {
    /// Serialize to pretty JSON.
    pub fn to_json(&self) -> String {
        serde_json::to_string_pretty(self).expect("policy report serializes")
    }

    /// Parse from JSON.
    pub fn from_json(s: &str) -> Result<Self, String> {
        serde_json::from_str(s).map_err(|e| format!("policy report parse error: {e:?}"))
    }
}

/// Run the policy sweep under `preset` at the default
/// [`POLICY_PAPER_SCALE`].
pub fn run_policy(preset: &Preset) -> PolicyReport {
    run_policy_at(preset, POLICY_PAPER_SCALE)
}

/// [`run_policy`] at an explicit paper SCALE (tests use a smaller
/// instance).
pub fn run_policy_at(preset: &Preset, paper_scale: u32) -> PolicyReport {
    let rt = suite_runtime(preset);
    let scale = preset.scale(paper_scale);
    let ef = SUITE_EDGEFACTOR;
    let n: u32 = 1 << scale;
    // Same vertex count per family; rows × cols = n for the grid.
    let rows = 1u32 << scale.div_ceil(2);
    let cols = 1u32 << (scale / 2);
    let families: Vec<(&str, Csr)> = vec![
        ("rmat", crate::experiments::graph(scale, ef)),
        ("road", gen::road_like(rows, cols, n / 32, 0xCA0_5EED)),
        ("small-world", gen::watts_strogatz(n, 8, 0.05, 0x5A_11AD)),
    ];
    let cases = families
        .iter()
        .map(|(family, g)| run_policy_family(&rt, family, g, POLICY_BANDIT_SEED))
        .collect();
    PolicyReport {
        preset: preset.name.to_string(),
        scale,
        edgefactor: ef,
        bandit_seed: POLICY_BANDIT_SEED,
        queries: POLICY_QUERIES,
        families: cases,
    }
}

fn run_policy_family(
    rt: &AdaptiveRuntime,
    family: &str,
    g: &Csr,
    bandit_seed: u64,
) -> PolicyFamilyCase {
    let stats = crate::experiments::stats(g);
    let offline_params = rt.predict_params(&stats);
    let pool: Vec<u32> = (0..POLICY_SOURCE_POOL)
        .map(|i| {
            pick_source(
                g,
                0x90_11C7 ^ (i as u64).wrapping_mul(0x9E37_79B9_7F4A_7C15),
            )
            .expect("policy family graphs are never edgeless")
        })
        .collect();

    // The offline stream is deterministic per source, so audit each pool
    // member once and replay the stream's cyclic weighting arithmetically.
    let profiles: Vec<_> = pool.iter().map(|&s| xbfs_archsim::profile(g, s)).collect();
    let offline_audits: Vec<PolicyAudit> = pool
        .iter()
        .zip(&profiles)
        .map(|(&src, profile)| {
            let sink = MemorySink::new();
            rt.session(g, &stats)
                .source(src)
                .sink(&sink)
                .run()
                .expect("fault-free offline query serves");
            policy_audit(profile, &rt.cpu, &rt.gpu, &rt.link, &sink.take())
        })
        .collect();

    // The online stream shares one bandit across queries the way the
    // service does: snapshot at admission, fold observations back at
    // completion, strictly in stream order.
    let shared = SharedPolicy::online(bandit_seed);
    let online_audits: Vec<PolicyAudit> = (0..POLICY_QUERIES)
        .map(|q| {
            let i = q % pool.len();
            let cell = shared.run_cell();
            let sink = MemorySink::new();
            rt.session(g, &stats)
                .source(pool[i])
                .sink(&sink)
                .policy(&cell)
                .run()
                .expect("fault-free online query serves");
            shared.apply(&cell.borrow_mut().take_observations());
            policy_audit(&profiles[i], &rt.cpu, &rt.gpu, &rt.link, &sink.take())
        })
        .collect();

    let mean = |f: &dyn Fn(&PolicyAudit) -> f64, audits: &[&PolicyAudit]| -> f64 {
        audits.iter().map(|a| f(a)).sum::<f64>() / audits.len() as f64
    };
    let offline_stream: Vec<&PolicyAudit> = (0..POLICY_QUERIES)
        .map(|q| &offline_audits[q % pool.len()])
        .collect();
    let online_refs: Vec<&PolicyAudit> = online_audits.iter().collect();

    let per_cohort = POLICY_QUERIES / POLICY_COHORTS;
    let cohorts = online_audits
        .chunks(per_cohort)
        .enumerate()
        .map(|(cohort, chunk)| {
            let refs: Vec<&PolicyAudit> = chunk.iter().collect();
            PolicyCohort {
                cohort,
                queries: chunk.len(),
                mean_level_regret_s: mean(&|a| a.mean_level_regret_s, &refs),
                mean_efficiency: mean(&|a| a.efficiency, &refs),
                explorations: chunk.iter().map(|a| a.explorations).sum(),
            }
        })
        .collect();

    PolicyFamilyCase {
        family: family.to_string(),
        vertices: g.num_vertices(),
        edges: g.num_edges(),
        sources: pool,
        offline_params,
        offline_mean_efficiency: mean(&|a| a.efficiency, &offline_stream),
        online_mean_efficiency: mean(&|a| a.efficiency, &online_refs),
        offline_mean_regret_s: mean(&|a| a.mean_level_regret_s, &offline_stream),
        online_mean_regret_s: mean(&|a| a.mean_level_regret_s, &online_refs),
        decisions: online_audits.iter().map(|a| a.decisions).sum(),
        explorations: online_audits.iter().map(|a| a.explorations).sum(),
        cohorts,
    }
}

fn pct(v: f64, base: f64) -> f64 {
    if base != 0.0 {
        (v - base) / base * 100.0
    } else {
        0.0
    }
}

/// Compare `current` against `baseline`.
///
/// Lower-is-better metrics (seconds) regress upward, higher-is-better
/// metrics (TEPS, audit efficiency) regress downward; discrete metrics
/// (edge counts, served rungs, case sets, format version) must match
/// exactly. Every regression message names the offending case and metric
/// with both values.
pub fn compare(
    current: &BenchReport,
    baseline: &BenchReport,
    tol: &PerfTolerance,
) -> CompareOutcome {
    let mut out = CompareOutcome::default();
    if current.format_version != baseline.format_version {
        out.regressions.push(format!(
            "format_version: baseline {} vs current {}",
            baseline.format_version, current.format_version
        ));
        return out;
    }
    if current.preset != baseline.preset {
        out.regressions.push(format!(
            "preset: baseline {:?} vs current {:?}",
            baseline.preset, current.preset
        ));
        return out;
    }

    // Lower is better: seconds-type metrics.
    let worse_up = |id: &str, metric: &str, cur: f64, base: f64, out: &mut CompareOutcome| {
        let band = (base.abs() * tol.rel).max(tol.abs_s);
        if cur > base + band {
            out.regressions.push(format!(
                "{id}: {metric} regressed {:+.3}% (baseline {base:.9}, current {cur:.9})",
                pct(cur, base)
            ));
        } else if cur < base - band {
            out.improvements.push(format!(
                "{id}: {metric} improved {:+.3}% (baseline {base:.9}, current {cur:.9})",
                pct(cur, base)
            ));
        }
    };
    // Higher is better: rate/ratio metrics.
    let worse_down = |id: &str, metric: &str, cur: f64, base: f64, out: &mut CompareOutcome| {
        let band = base.abs() * tol.rel;
        if cur < base - band {
            out.regressions.push(format!(
                "{id}: {metric} regressed {:+.3}% (baseline {base:.6}, current {cur:.6})",
                pct(cur, base)
            ));
        } else if cur > base + band {
            out.improvements.push(format!(
                "{id}: {metric} improved {:+.3}% (baseline {base:.6}, current {cur:.6})",
                pct(cur, base)
            ));
        }
    };

    for base_case in &baseline.cases {
        let Some(cur) = current.cases.iter().find(|c| c.id == base_case.id) else {
            out.regressions.push(format!(
                "{}: case missing from current report",
                base_case.id
            ));
            continue;
        };
        let id = &base_case.id;
        if cur.plan != base_case.plan {
            out.regressions.push(format!(
                "{id}: fault plan changed (baseline {:?}, current {:?})",
                base_case.plan, cur.plan
            ));
        }
        if cur.rung != base_case.rung {
            out.regressions.push(format!(
                "{id}: served rung changed (baseline {:?}, current {:?})",
                base_case.rung, cur.rung
            ));
        }
        if cur.component_edges != base_case.component_edges {
            out.regressions.push(format!(
                "{id}: component_edges changed (baseline {}, current {})",
                base_case.component_edges, cur.component_edges
            ));
        }
        if cur.edges_examined != base_case.edges_examined {
            out.regressions.push(format!(
                "{id}: edges_examined changed (baseline {}, current {})",
                base_case.edges_examined, cur.edges_examined
            ));
        }
        worse_up(
            id,
            "total_seconds",
            cur.total_seconds,
            base_case.total_seconds,
            &mut out,
        );
        worse_up(
            id,
            "critical_path_s",
            cur.critical_path_s,
            base_case.critical_path_s,
            &mut out,
        );
        worse_down(id, "teps", cur.teps, base_case.teps, &mut out);
        worse_down(
            id,
            "audit.efficiency",
            cur.audit.efficiency,
            base_case.audit.efficiency,
            &mut out,
        );
        worse_up(
            id,
            "audit.regret_seconds",
            cur.audit.regret_seconds,
            base_case.audit.regret_seconds,
            &mut out,
        );
        for (phase, base_s) in &base_case.phase_seconds {
            let cur_s = cur.phase_seconds.get(phase).copied().unwrap_or(0.0);
            worse_up(
                id,
                &format!("phase_seconds[{phase}]"),
                cur_s,
                *base_s,
                &mut out,
            );
        }
        for phase in cur.phase_seconds.keys() {
            if !base_case.phase_seconds.contains_key(phase) {
                out.regressions.push(format!(
                    "{id}: phase_seconds[{phase}] appeared (baseline has no such phase)"
                ));
            }
        }
    }
    for cur_case in &current.cases {
        if !baseline.cases.iter().any(|c| c.id == cur_case.id) {
            out.regressions.push(format!(
                "{}: case not present in baseline (regenerate it)",
                cur_case.id
            ));
        }
    }
    worse_down(
        "suite",
        "harmonic_mean_teps",
        current.harmonic_mean_teps,
        baseline.harmonic_mean_teps,
        &mut out,
    );
    out
}

/// The next free `BENCH_<n>.json` path in `dir` (1-based, gap-free growth:
/// one past the highest existing index).
pub fn next_bench_path(dir: &Path) -> PathBuf {
    let mut max = 0u64;
    if let Ok(entries) = std::fs::read_dir(dir) {
        for entry in entries.flatten() {
            let name = entry.file_name();
            let Some(name) = name.to_str() else { continue };
            if let Some(n) = name
                .strip_prefix("BENCH_")
                .and_then(|s| s.strip_suffix(".json"))
                .and_then(|s| s.parse::<u64>().ok())
            {
                max = max.max(n);
            }
        }
    }
    dir.join(format!("BENCH_{}.json", max + 1))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn committed_baseline_parses_and_meets_efficiency_bar() {
        let path = std::path::Path::new(concat!(
            env!("CARGO_MANIFEST_DIR"),
            "/../../bench/baseline.json"
        ));
        let baseline = BenchReport::load(path).expect("committed baseline parses");
        assert_eq!(baseline.format_version, BENCH_FORMAT_VERSION);
        assert_eq!(baseline.preset, "scaled");
        assert_eq!(baseline.cases.len(), SUITE_PAPER_SCALES.len() * 2);
        for case in &baseline.cases {
            assert!(
                case.audit.meets(0.9),
                "{}: predicted/oracle efficiency {:.4} below the 0.9 bar",
                case.id,
                case.audit.efficiency
            );
        }
    }

    fn tiny_report() -> BenchReport {
        // A real single-case run at the floor scale keeps the test fast
        // while exercising the full pipeline.
        let rt = AdaptiveRuntime::quick_trained();
        let case = run_case(&rt, 10, &FaultPlan::none(), "fault-free", "fault-free");
        let teps = [Teps::new(case.component_edges, case.total_seconds)];
        BenchReport {
            format_version: BENCH_FORMAT_VERSION,
            preset: "scaled".to_string(),
            harmonic_mean_teps: harmonic_mean_teps(&teps),
            cases: vec![case],
        }
    }

    #[test]
    fn case_metrics_are_deterministic_and_consistent() {
        let rt = AdaptiveRuntime::quick_trained();
        let a = run_case(&rt, 10, &FaultPlan::none(), "fault-free", "fault-free");
        let b = run_case(&rt, 10, &FaultPlan::none(), "fault-free", "fault-free");
        // The prediction wall time differs between runs; everything else
        // must be bit-identical.
        let mut b2 = b.clone();
        b2.audit.prediction_overhead_s = a.audit.prediction_overhead_s;
        b2.audit.prediction_overhead_fraction = a.audit.prediction_overhead_fraction;
        assert_eq!(a, b2);
        // TEPS is exactly edges over simulated seconds.
        assert!((a.teps - a.component_edges as f64 / a.total_seconds).abs() < 1e-9);
        // Every charge of a fresh fault-free run has a span, so the
        // critical path is the whole clock.
        assert!(
            (a.critical_path_s - a.total_seconds).abs() <= 1e-9 * a.total_seconds,
            "critical path {} vs total {}",
            a.critical_path_s,
            a.total_seconds
        );
        let phase_total: f64 = a.phase_seconds.values().sum();
        assert!((phase_total - a.critical_path_s).abs() <= 1e-9 * a.critical_path_s.max(1.0));
    }

    #[test]
    fn report_round_trips_through_json() {
        let report = tiny_report();
        let parsed = BenchReport::from_json(&report.to_json()).expect("parse back");
        assert_eq!(parsed, report);
    }

    #[test]
    fn compare_passes_identity_and_names_regressions() {
        let report = tiny_report();
        let tol = PerfTolerance::default();
        assert!(compare(&report, &report, &tol).is_pass());

        // A 1 % slowdown on one case trips total_seconds, teps, and the
        // suite harmonic mean — each named.
        let mut slow = report.clone();
        slow.cases[0].total_seconds *= 1.01;
        slow.cases[0].teps /= 1.01;
        slow.harmonic_mean_teps /= 1.01;
        let out = compare(&slow, &report, &tol);
        assert!(!out.is_pass());
        assert!(out
            .regressions
            .iter()
            .any(|r| r.contains("total_seconds") && r.contains(&report.cases[0].id)));
        assert!(out.regressions.iter().any(|r| r.contains("teps")));
        assert!(out
            .regressions
            .iter()
            .any(|r| r.contains("harmonic_mean_teps")));

        // The mirror image is an improvement, not a failure.
        let out = compare(&report, &slow, &tol);
        assert!(out.is_pass());
        assert!(!out.improvements.is_empty());
    }

    #[test]
    fn compare_rejects_schema_and_case_set_drift() {
        let report = tiny_report();
        let tol = PerfTolerance::default();

        let mut other_version = report.clone();
        other_version.format_version += 1;
        let out = compare(&other_version, &report, &tol);
        assert!(out.regressions.iter().any(|r| r.contains("format_version")));

        let mut renamed = report.clone();
        renamed.cases[0].id = "s10-ef16-renamed".to_string();
        let out = compare(&renamed, &report, &tol);
        assert!(out.regressions.iter().any(|r| r.contains("case missing")));
        assert!(out
            .regressions
            .iter()
            .any(|r| r.contains("not present in baseline")));
    }

    #[test]
    fn bench_paths_number_upward() {
        let dir = std::env::temp_dir().join(format!("xbfs-bench-paths-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        assert!(next_bench_path(&dir).ends_with("BENCH_1.json"));
        std::fs::write(dir.join("BENCH_1.json"), "{}").unwrap();
        std::fs::write(dir.join("BENCH_7.json"), "{}").unwrap();
        std::fs::write(dir.join("BENCH_x.json"), "{}").unwrap();
        assert!(next_bench_path(&dir).ends_with("BENCH_8.json"));
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn batched_sweep_amortizes_every_lane_count_and_round_trips() {
        // A small paper scale keeps this fast; the sweep itself asserts
        // lane/solo parent identity internally.
        let report = run_batched_at(&Preset::scaled(), 13);
        let lanes: Vec<usize> = report.cases.iter().map(|c| c.lanes).collect();
        assert_eq!(lanes, BATCHED_LANES.to_vec());
        assert_eq!(report.sources.len(), *BATCHED_LANES.iter().max().unwrap());
        for case in &report.cases {
            assert!(case.batch_seconds > 0.0);
            assert!(case.rounds > 0);
            assert!(case.edges_examined > 0);
            // Lanes share every round's sweeps, so a multi-lane batch is
            // strictly cheaper than its solo runs back to back.
            assert!(
                case.batch_seconds < case.solo_seconds,
                "{} lanes: batch {} s did not beat {} s solo",
                case.lanes,
                case.batch_seconds,
                case.solo_seconds
            );
            assert!(case.speedup > 1.0);
        }
        let parsed = BatchedReport::from_json(&report.to_json()).expect("parse back");
        assert_eq!(parsed, report);
    }

    #[test]
    fn policy_sweep_learns_on_held_out_families_and_round_trips() {
        // A small paper scale keeps the 200-query streams fast.
        let report = run_policy_at(&Preset::scaled(), 13);
        let labels: Vec<&str> = report.families.iter().map(|f| f.family.as_str()).collect();
        assert_eq!(labels, ["rmat", "road", "small-world"]);
        assert_eq!(report.queries, POLICY_QUERIES);
        for case in &report.families {
            assert_eq!(case.sources.len(), POLICY_SOURCE_POOL);
            assert_eq!(case.cohorts.len(), POLICY_COHORTS);
            assert!(
                case.decisions > 0,
                "{}: stream traced no decisions",
                case.family
            );
            // Learning shows up as a regret trend that never climbs from
            // one cohort to the next.
            assert!(
                case.regret_is_non_increasing(),
                "{}: cohort regret climbed: {:?}",
                case.family,
                case.cohorts
                    .iter()
                    .map(|c| c.mean_level_regret_s)
                    .collect::<Vec<_>>()
            );
            // Exploration is front-loaded: the first cohort pays for the
            // unplayed arms, the last coasts on learned means.
            assert!(case.cohorts[0].explorations >= case.cohorts[POLICY_COHORTS - 1].explorations);
        }
        // On the held-out families — absent from the offline SVM's R-MAT
        // training set — the learned per-level policy must beat the fixed
        // offline prediction outright.
        for held_out in ["road", "small-world"] {
            let case = report
                .families
                .iter()
                .find(|f| f.family == held_out)
                .expect("held-out family present");
            assert!(
                case.online_mean_efficiency > case.offline_mean_efficiency,
                "{held_out}: online {} did not beat offline {}",
                case.online_mean_efficiency,
                case.offline_mean_efficiency
            );
        }
        let parsed = PolicyReport::from_json(&report.to_json()).expect("parse back");
        assert_eq!(parsed, report);
    }

    #[test]
    fn committed_chaos_plan_parses() {
        let plan = FaultPlan::from_json(SUITE_CHAOS_PLAN).expect("plan parses");
        assert!(plan.p_device_lost > 0.0);
    }
}
