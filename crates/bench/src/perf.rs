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
//! decision with [`decision_audit`]. On the same trained runtime it prices
//! two sweeps: a batched multi-source amortization curve and seeded
//! offline-vs-online policy streams. One report holds all three sections;
//! it serializes as a versioned `BENCH_<n>.json` file, and
//! `bench/baseline.json` pins the expected values of every section.

use crate::Preset;
use serde::{Deserialize, Serialize};
use std::cmp::Ordering;
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
/// a report of another version is refused when read instead of misread.
pub const BENCH_FORMAT_VERSION: u64 = 2;

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
    /// The batched multi-source sweep.
    pub batched: BatchedReport,
    /// The offline-vs-online policy sweep.
    pub policy: PolicyReport,
}

impl BenchReport {
    /// Serialize to pretty JSON.
    pub fn to_json(&self) -> String {
        serde_json::to_string_pretty(self).expect("bench report serializes")
    }

    /// Parse from JSON. A report of another [`BENCH_FORMAT_VERSION`] is
    /// refused by its version, before any field is read.
    pub fn from_json(s: &str) -> Result<Self, String> {
        let parse_error = |e| format!("bench report parse error: {e:?}");
        let value: serde_json::Value = serde_json::from_str(s).map_err(parse_error)?;
        match value["format_version"].as_u64() {
            Some(BENCH_FORMAT_VERSION) => {
                <Self as serde::Deserialize>::from_value(&value).map_err(parse_error)
            }
            _ => Err(format!(
                "format_version {}, but this build reads {BENCH_FORMAT_VERSION}; \
                 regenerate the report",
                serde_json::to_string(&value["format_version"]).unwrap_or_default()
            )),
        }
    }

    /// Load a report to compare a `preset` run against: it must parse at
    /// this build's [`BENCH_FORMAT_VERSION`] and hold a run of `preset`.
    /// Every error names the path.
    pub fn load_baseline(path: &Path, preset: &str) -> Result<Self, String> {
        let text = std::fs::read_to_string(path)
            .map_err(|e| format!("cannot read {}: {e}", path.display()))?;
        let report = Self::from_json(&text).map_err(|e| format!("{}: {e}", path.display()))?;
        if report.preset != preset {
            return Err(format!(
                "{}: baseline preset {:?}, but the suite runs {preset:?}",
                path.display(),
                report.preset
            ));
        }
        Ok(report)
    }
}

/// Tolerances for [`compare`]. Every compared metric is simulated-clock
/// deterministic, so the defaults only absorb float-summation noise.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct PerfTolerance {
    /// Relative tolerance on seconds/TEPS/ratios.
    pub rel: f64,
    /// Absolute floor of the band, so near-zero seconds and regrets
    /// don't trip the relative band on noise.
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
/// slowdown) and once under the committed chaos plan. Both sweeps run
/// fault-free on the same trained runtime; the batched sweep panics if a
/// batch lane's parent array disagrees with its solo run.
pub fn run_suite(preset: &Preset, overlay: Option<&FaultPlan>) -> BenchReport {
    // Deterministic training data, so the predicted parameters are stable.
    let rt = if preset.full_training {
        AdaptiveRuntime::train(&xbfs_core::training::TrainingConfig::paper_sized())
    } else {
        AdaptiveRuntime::quick_trained()
    };
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
        batched: run_batched_at(&rt, preset, BATCHED_PAPER_SCALE),
        policy: run_policy_at(&rt, preset, POLICY_PAPER_SCALE),
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
/// at every [`BATCHED_LANES`] count on one suite graph. Every metric lives
/// on the simulated clock, so [`compare`] gates it like the cases.
#[derive(Clone, Debug, PartialEq, Serialize, Deserialize)]
pub struct BatchedReport {
    /// Generated graph SCALE (after the preset's shift).
    pub scale: u32,
    /// Generated graph edgefactor.
    pub edgefactor: u32,
    /// BFS sources in lane order; the `k`-lane case batches the first `k`.
    pub sources: Vec<u32>,
    /// Every measurement, in [`BATCHED_LANES`] order.
    pub cases: Vec<BatchedCase>,
}

/// Run the batched sweep on `rt` at `paper_scale` (mapped through
/// `preset`). The suite runs it at [`BATCHED_PAPER_SCALE`]; tests use a
/// smaller instance.
///
/// # Panics
/// Panics if any batch lane's parent array disagrees with its solo run —
/// lane/solo identity is a hard `BatchSession` invariant, not a tunable.
fn run_batched_at(rt: &AdaptiveRuntime, preset: &Preset, paper_scale: u32) -> BatchedReport {
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
        let batch = BatchSession::new(rt, &g, &stats)
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
    /// check the policy section is read for.
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
/// seeded, so [`compare`] gates it like the cases.
#[derive(Clone, Debug, PartialEq, Serialize, Deserialize)]
pub struct PolicyReport {
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

/// Run the policy sweep on `rt` at `paper_scale` (mapped through
/// `preset`). The suite runs it at [`POLICY_PAPER_SCALE`]; tests use a
/// smaller instance.
fn run_policy_at(rt: &AdaptiveRuntime, preset: &Preset, paper_scale: u32) -> PolicyReport {
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
        .map(|(family, g)| run_policy_family(rt, family, g, POLICY_BANDIT_SEED))
        .collect();
    PolicyReport {
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

/// The gate's checks. Each pushes at most one message, which names the
/// section and case (`at`), the metric, and both values.
struct Gate<'t> {
    tol: &'t PerfTolerance,
    out: CompareOutcome,
}

/// `check!(gate.lower(at, cur, base, audit.efficiency))` runs one [`Gate`]
/// check on the same field of both sides, named after that field.
macro_rules! check {
    ($gate:ident.$how:ident($at:expr, $cur:expr, $base:expr, $($field:ident).+)) => {
        $gate.$how($at, stringify!($($field).+), &$cur.$($field).+, &$base.$($field).+)
    };
}

impl Gate<'_> {
    /// A discrete value (count, label, source list) that must not change.
    fn exact<T: PartialEq + std::fmt::Debug>(&mut self, at: &str, metric: &str, cur: &T, base: &T) {
        if cur != base {
            self.out.regressions.push(format!(
                "{at}: {metric} changed (baseline {base:?}, current {cur:?})"
            ));
        }
    }

    /// Lower is better: seconds and regrets.
    fn lower(&mut self, at: &str, metric: &str, cur: &f64, base: &f64) {
        self.banded(at, metric, *cur, *base, Some(Ordering::Less));
    }

    /// Higher is better: TEPS, efficiencies and speedups.
    fn higher(&mut self, at: &str, metric: &str, cur: &f64, base: &f64) {
        self.banded(at, metric, *cur, *base, Some(Ordering::Greater));
    }

    /// Neither way is better: any move beyond the band is a regression.
    fn near(&mut self, at: &str, metric: &str, cur: &f64, base: &f64) {
        self.banded(at, metric, *cur, *base, None);
    }

    /// A move beyond the band is an improvement only in the `better`
    /// direction; any other move, a NaN included, is a regression.
    fn banded(&mut self, at: &str, metric: &str, cur: f64, base: f64, better: Option<Ordering>) {
        let band = (base.abs() * self.tol.rel).max(self.tol.abs_s);
        if (cur - base).abs() <= band {
            return;
        }
        let (list, verb) = if better.is_some() && cur.partial_cmp(&base) == better {
            (&mut self.out.improvements, "improved")
        } else {
            (&mut self.out.regressions, "regressed")
        };
        let pct = if base != 0.0 {
            (cur - base) / base * 100.0
        } else {
            0.0
        };
        list.push(format!(
            "{at}: {metric} {verb} {pct:+.3}% (baseline {base:e}, current {cur:e})"
        ));
    }

    /// Match `cur` to `base` by `key`, naming every case missing from
    /// either side, and return the matched pairs labelled `section/key`.
    fn pair<'r, T>(
        &mut self,
        section: &str,
        cur: &'r [T],
        base: &'r [T],
        key: impl Fn(&T) -> String,
    ) -> Vec<(String, &'r T, &'r T)> {
        let mut pairs = Vec::new();
        for b in base {
            let k = key(b);
            match cur.iter().find(|c| key(c) == k) {
                Some(c) => pairs.push((format!("{section}/{k}"), c, b)),
                None => self
                    .out
                    .regressions
                    .push(format!("{section}/{k}: case missing from current report")),
            }
        }
        for c in cur {
            let k = key(c);
            if !base.iter().any(|b| key(b) == k) {
                self.out.regressions.push(format!(
                    "{section}/{k}: case not present in baseline (regenerate it)"
                ));
            }
        }
        pairs
    }
}

/// Compare `current` against `baseline` (of the same version and preset,
/// as [`BenchReport::load_baseline`] ensures), section by section.
///
/// Lower-is-better metrics (seconds, regrets) regress upward,
/// higher-is-better metrics (TEPS, efficiencies, speedups) regress
/// downward, and discrete metrics (counts, rungs, sources, case and phase
/// sets) must match exactly. The offline SVM's predicted parameters must
/// stay within the band either way. Every message names the section, the
/// case and the metric with both values, e.g.
/// `batched/4-lanes: batch_seconds regressed …`.
pub fn compare(
    current: &BenchReport,
    baseline: &BenchReport,
    tol: &PerfTolerance,
) -> CompareOutcome {
    let mut gate = Gate {
        tol,
        out: CompareOutcome::default(),
    };
    let id = |c: &BenchCase| c.id.clone();
    for (at, cur, base) in gate.pair("cases", &current.cases, &baseline.cases, id) {
        check!(gate.exact(&at, cur, base, plan));
        check!(gate.exact(&at, cur, base, rung));
        check!(gate.exact(&at, cur, base, component_edges));
        check!(gate.exact(&at, cur, base, edges_examined));
        check!(gate.lower(&at, cur, base, total_seconds));
        check!(gate.lower(&at, cur, base, critical_path_s));
        check!(gate.higher(&at, cur, base, teps));
        check!(gate.higher(&at, cur, base, audit.efficiency));
        check!(gate.lower(&at, cur, base, audit.regret_seconds));
        // A phase the baseline lacks is new work, whatever it costs; one
        // the current run lacks spent zero seconds there.
        for phase in cur.phase_seconds.keys() {
            if !base.phase_seconds.contains_key(phase) {
                gate.out.regressions.push(format!(
                    "{at}: phase_seconds[{phase}] appeared (baseline has no such phase)"
                ));
            }
        }
        for (phase, base_s) in &base.phase_seconds {
            let cur_s = cur.phase_seconds.get(phase).copied().unwrap_or(0.0);
            gate.lower(&at, &format!("phase_seconds[{phase}]"), &cur_s, base_s);
        }
    }
    check!(gate.higher("cases", current, baseline, harmonic_mean_teps));

    let (cur, base) = (&current.batched, &baseline.batched);
    check!(gate.exact("batched", cur, base, scale));
    check!(gate.exact("batched", cur, base, edgefactor));
    check!(gate.exact("batched", cur, base, sources));
    let lanes = |c: &BatchedCase| format!("{}-lanes", c.lanes);
    for (at, cur, base) in gate.pair("batched", &cur.cases, &base.cases, lanes) {
        check!(gate.lower(&at, cur, base, batch_seconds));
        check!(gate.lower(&at, cur, base, solo_seconds));
        check!(gate.higher(&at, cur, base, speedup));
        check!(gate.exact(&at, cur, base, rounds));
        check!(gate.exact(&at, cur, base, edges_examined));
    }

    let (cur, base) = (&current.policy, &baseline.policy);
    check!(gate.exact("policy", cur, base, scale));
    check!(gate.exact("policy", cur, base, edgefactor));
    check!(gate.exact("policy", cur, base, bandit_seed));
    check!(gate.exact("policy", cur, base, queries));
    let family = |f: &PolicyFamilyCase| f.family.clone();
    for (at, cur, base) in gate.pair("policy", &cur.families, &base.families, family) {
        check!(gate.exact(&at, cur, base, vertices));
        check!(gate.exact(&at, cur, base, edges));
        check!(gate.exact(&at, cur, base, sources));
        check!(gate.near(&at, cur, base, offline_params.handoff.m));
        check!(gate.near(&at, cur, base, offline_params.handoff.n));
        check!(gate.near(&at, cur, base, offline_params.gpu.m));
        check!(gate.near(&at, cur, base, offline_params.gpu.n));
        check!(gate.higher(&at, cur, base, offline_mean_efficiency));
        check!(gate.higher(&at, cur, base, online_mean_efficiency));
        check!(gate.lower(&at, cur, base, offline_mean_regret_s));
        check!(gate.lower(&at, cur, base, online_mean_regret_s));
        check!(gate.exact(&at, cur, base, decisions));
        check!(gate.exact(&at, cur, base, explorations));
        let cohort = |c: &PolicyCohort| format!("cohort-{}", c.cohort);
        for (at, cur, base) in gate.pair(&at, &cur.cohorts, &base.cohorts, cohort) {
            check!(gate.exact(&at, cur, base, queries));
            check!(gate.lower(&at, cur, base, mean_level_regret_s));
            check!(gate.higher(&at, cur, base, mean_efficiency));
            check!(gate.exact(&at, cur, base, explorations));
        }
    }
    gate.out
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
    use std::sync::OnceLock;

    #[test]
    fn committed_baseline_parses_and_meets_efficiency_bar() {
        let path = std::path::Path::new(concat!(
            env!("CARGO_MANIFEST_DIR"),
            "/../../bench/baseline.json"
        ));
        let baseline =
            BenchReport::load_baseline(path, "scaled").expect("committed baseline loads");
        assert_eq!(baseline.cases.len(), SUITE_PAPER_SCALES.len() * 2);
        for case in &baseline.cases {
            assert!(
                case.audit.meets(0.9),
                "{}: predicted/oracle efficiency {:.4} below the 0.9 bar",
                case.id,
                case.audit.efficiency
            );
        }
        assert_sweeps_hold(&baseline);
    }

    /// What the two sweeps are read for: every batch beats its solo runs,
    /// and the online policy learns.
    fn assert_sweeps_hold(report: &BenchReport) {
        let batched = &report.batched;
        let lanes: Vec<usize> = batched.cases.iter().map(|c| c.lanes).collect();
        assert_eq!(lanes, BATCHED_LANES);
        assert_eq!(batched.sources.len(), *BATCHED_LANES.iter().max().unwrap());
        for case in &batched.cases {
            assert!(case.rounds > 0 && case.edges_examined > 0);
            // Lanes share every round's sweeps, so a multi-lane batch is
            // strictly cheaper than its solo runs back to back.
            assert!(
                case.batch_seconds > 0.0
                    && case.batch_seconds < case.solo_seconds
                    && case.speedup > 1.0,
                "{} lanes: batch {} s did not beat {} s solo",
                case.lanes,
                case.batch_seconds,
                case.solo_seconds
            );
        }

        let policy = &report.policy;
        let labels: Vec<&str> = policy.families.iter().map(|f| f.family.as_str()).collect();
        assert_eq!(labels, ["rmat", "road", "small-world"]);
        assert_eq!(policy.queries, POLICY_QUERIES);
        for case in &policy.families {
            assert_eq!(case.sources.len(), POLICY_SOURCE_POOL);
            assert_eq!(case.cohorts.len(), POLICY_COHORTS);
            assert!(case.decisions > 0, "{}: no decisions", case.family);
            // Learning shows up as a regret trend that never climbs, with
            // exploration front-loaded: the first cohort pays for the
            // unplayed arms, the last coasts on learned means.
            assert!(
                case.regret_is_non_increasing(),
                "{}: cohort regret climbed: {:?}",
                case.family,
                case.cohorts
                    .iter()
                    .map(|c| c.mean_level_regret_s)
                    .collect::<Vec<_>>()
            );
            assert!(case.cohorts[0].explorations >= case.cohorts[POLICY_COHORTS - 1].explorations);
        }
        // On the families held out of the offline SVM's R-MAT training
        // set, the learned per-level policy beats the fixed offline
        // prediction outright.
        for case in &policy.families[1..] {
            assert!(
                case.online_mean_efficiency > case.offline_mean_efficiency,
                "{}: online {} did not beat offline {}",
                case.family,
                case.online_mean_efficiency,
                case.offline_mean_efficiency
            );
        }
    }

    /// A real report, built once for every test here on one runtime: a
    /// single case at the floor scale and both sweeps at paper SCALE 13,
    /// which keeps the 200-query policy streams fast.
    fn tiny_report() -> &'static BenchReport {
        static REPORT: OnceLock<BenchReport> = OnceLock::new();
        REPORT.get_or_init(|| {
            let rt = AdaptiveRuntime::quick_trained();
            let case = run_case(&rt, 10, &FaultPlan::none(), "fault-free", "fault-free");
            let teps = [Teps::new(case.component_edges, case.total_seconds)];
            BenchReport {
                format_version: BENCH_FORMAT_VERSION,
                preset: "scaled".to_string(),
                harmonic_mean_teps: harmonic_mean_teps(&teps),
                cases: vec![case],
                batched: run_batched_at(&rt, &Preset::scaled(), 13),
                policy: run_policy_at(&rt, &Preset::scaled(), 13),
            }
        })
    }

    #[test]
    fn sweeps_amortize_and_learn() {
        // The batched sweep also asserts lane/solo parent identity itself.
        assert_sweeps_hold(tiny_report());
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
        assert_eq!(&parsed, report);
    }

    #[test]
    fn reports_of_another_version_or_missing_a_section_are_rejected() {
        let serde_json::Value::Object(fields) = serde_json::to_value(tiny_report()) else {
            panic!("a report serializes as an object");
        };
        let parse = |fields: Vec<(String, serde_json::Value)>| {
            let text = serde_json::to_string(&serde_json::Value::Object(fields));
            BenchReport::from_json(&text.expect("serializes"))
        };
        let mut old = fields.clone();
        assert_eq!(old[0].0, "format_version");
        old[0].1 = serde_json::to_value(&1u64);
        assert!(parse(old)
            .expect_err("version 1")
            .contains("format_version 1"));
        for section in ["cases", "batched", "policy"] {
            let without = fields
                .iter()
                .filter(|(k, _)| k != section)
                .cloned()
                .collect();
            assert!(parse(without).is_err(), "a report without {section} parsed");
        }
    }

    #[test]
    fn compare_passes_identity_and_names_each_regression() {
        let report = tiny_report();
        let tol = PerfTolerance::default();
        let out = compare(report, report, &tol);
        assert!(out.is_pass() && out.improvements.is_empty(), "{out:?}");

        // Each perturbation is one regression, named by section, case and
        // metric. Compared the other way, a banded metric has improved,
        // while a moved count or case set regresses either way.
        type Perturb = fn(&mut BenchReport);
        let perturbations: [(&str, bool, Perturb); 7] = [
            ("cases/s10-ef16-fault-free: case missing", true, |r| {
                r.cases.clear()
            }),
            (
                "cases/s10-ef16-fault-free: total_seconds regressed",
                false,
                |r| r.cases[0].total_seconds *= 1.01,
            ),
            ("cases/s10-ef16-fault-free: teps regressed", false, |r| {
                r.cases[0].teps /= 1.01
            }),
            ("cases: harmonic_mean_teps regressed", false, |r| {
                r.harmonic_mean_teps /= 1.01
            }),
            ("batched/4-lanes: batch_seconds regressed", false, |r| {
                r.batched.cases[1].batch_seconds *= 1.01
            }),
            (
                "policy/road: online_mean_efficiency regressed",
                false,
                |r| r.policy.families[1].online_mean_efficiency *= 0.99,
            ),
            ("policy/small-world: decisions changed", true, |r| {
                r.policy.families[2].decisions += 1
            }),
        ];
        for (named, both_ways, perturb) in perturbations {
            let mut moved = report.clone();
            perturb(&mut moved);
            let out = compare(&moved, report, &tol);
            assert!(out.regressions.len() == 1, "{named}: {out:?}");
            assert!(out.regressions[0].starts_with(named), "{named}: {out:?}");
            let back = compare(report, &moved, &tol);
            let (hit, miss) = if both_ways {
                (&back.regressions, &back.improvements)
            } else {
                (&back.improvements, &back.regressions)
            };
            assert!(hit.len() == 1 && miss.is_empty(), "{named}: {back:?}");
            let at = |m: &str| m.split(": ").next().map(str::to_string);
            assert_eq!(at(&hit[0]), at(named));
        }

        // A phase the baseline lacks regresses even at zero seconds, which
        // no band would see; gone again, it cost nothing.
        let mut moved = report.clone();
        moved.cases[0].phase_seconds.insert("probe/cpu".into(), 0.0);
        let out = compare(&moved, report, &tol);
        let named = "cases/s10-ef16-fault-free: phase_seconds[probe/cpu] appeared";
        assert!(out.regressions.len() == 1 && out.regressions[0].starts_with(named));
        assert_eq!(compare(report, &moved, &tol), CompareOutcome::default());
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
    fn committed_chaos_plan_parses() {
        let plan = FaultPlan::from_json(SUITE_CHAOS_PLAN).expect("plan parses");
        assert!(plan.p_device_lost > 0.0);
    }
}
