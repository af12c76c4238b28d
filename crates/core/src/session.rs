//! [`RunSession`] — the one composable entry point to resilient
//! cross-architecture execution — and [`BatchSession`], its multi-source
//! sibling that serves up to 64 lane-packed traversals per batch.
//!
//! Every resilient run starts from this builder — the CLI, the
//! experiments and the query service, which builds one session per
//! dispatch:
//!
//! ```no_run
//! use xbfs_core::prelude::*;
//! # let runtime = AdaptiveRuntime::quick_trained();
//! # let csr = xbfs_graph::rmat::rmat_csr(8, 8);
//! # let stats = xbfs_graph::GraphStats::rmat(&csr, 0.57, 0.19, 0.19, 0.05);
//! # let plan = xbfs_archsim::FaultPlan::none();
//! let sink = MemorySink::new();
//! let run = RunSession::new(&runtime, &csr, &stats)
//!     .source(0)
//!     .fault_plan(&plan)
//!     .checkpoints(CheckpointPolicy::every(2))
//!     .sink(&sink)
//!     .run()?;
//! # Ok::<(), XbfsError>(())
//! ```
//!
//! Every knob has a production-sane default: no faults, the runtime
//! resilience defaults, a disabled ([`NullSink`]) trace sink, and — on the
//! [`RunSession::new`] path — switch parameters predicted from the graph's
//! statistics.
//!
//! [`NullSink`]: xbfs_engine::trace::NullSink

use crate::checkpoint::{CheckpointPolicy, LevelCheckpoint};
use crate::cross::{CrossDriver, CrossParams, Placement};
use crate::health::Device;
use crate::policy_online::{self, Decision, PolicyCell};
use crate::recovery::{
    execute_fresh, execute_resume, ExecArgs, RecoveredRun, ResilienceConfig, RunReport, Rung,
};
use crate::runtime::AdaptiveRuntime;
use xbfs_archsim::{cost, ArchSpec, FaultPlan, Link};
use xbfs_engine::trace::{TraceEvent, TraceSink, NULL_SINK};
use xbfs_engine::{validate, TraversalState, XbfsError, MAX_LANES};
use xbfs_graph::{Csr, GraphStats, VertexId};

/// Where the devices and switch parameters come from.
enum Platform<'a> {
    /// A trained [`AdaptiveRuntime`]: devices from the runtime, parameters
    /// predicted from graph statistics unless overridden.
    Runtime {
        rt: &'a AdaptiveRuntime,
        stats: &'a GraphStats,
    },
    /// Explicit device specs and parameters (tests, experiments, the
    /// query service).
    Explicit {
        cpu: &'a ArchSpec,
        gpu: &'a ArchSpec,
        link: &'a Link,
    },
}

/// A configured-but-not-yet-started resilient traversal.
///
/// Construct with [`RunSession::new`] (trained runtime, predicted
/// parameters) or [`RunSession::on_platform`] (explicit devices and
/// parameters), chain the builders, finish with [`RunSession::run`] or
/// [`RunSession::resume`].
pub struct RunSession<'a> {
    csr: &'a Csr,
    platform: Platform<'a>,
    params: Option<CrossParams>,
    source: Option<VertexId>,
    plan: FaultPlan,
    config: ResilienceConfig,
    lost: Vec<Device>,
    sink: &'a dyn TraceSink,
    policy: Option<&'a PolicyCell>,
}

impl<'a> RunSession<'a> {
    /// A session on a trained runtime: devices come from `runtime`, and
    /// unless [`params`](Self::params) overrides them, Algorithm 3's switch
    /// parameters are predicted from `stats` when the session starts.
    pub fn new(runtime: &'a AdaptiveRuntime, csr: &'a Csr, stats: &'a GraphStats) -> Self {
        Self {
            csr,
            platform: Platform::Runtime { rt: runtime, stats },
            params: None,
            source: None,
            plan: FaultPlan::none(),
            config: ResilienceConfig::default_runtime(),
            lost: Vec::new(),
            sink: &NULL_SINK,
            policy: None,
        }
    }

    /// A session on explicit device specs with explicit parameters — no
    /// trained predictor involved.
    pub fn on_platform(
        csr: &'a Csr,
        cpu: &'a ArchSpec,
        gpu: &'a ArchSpec,
        link: &'a Link,
        params: &CrossParams,
    ) -> Self {
        Self {
            csr,
            platform: Platform::Explicit { cpu, gpu, link },
            params: Some(*params),
            source: None,
            plan: FaultPlan::none(),
            config: ResilienceConfig::default_runtime(),
            lost: Vec::new(),
            sink: &NULL_SINK,
            policy: None,
        }
    }

    /// Set the BFS source vertex (required for [`run`](Self::run)).
    pub fn source(mut self, v: VertexId) -> Self {
        self.source = Some(v);
        self
    }

    /// Override the cross-combination switch parameters.
    pub fn params(mut self, params: CrossParams) -> Self {
        self.params = Some(params);
        self
    }

    /// Inject `plan`'s faults (default: no faults).
    pub fn fault_plan(mut self, plan: &FaultPlan) -> Self {
        self.plan = plan.clone();
        self
    }

    /// Replace the whole failure-handling configuration (default:
    /// [`ResilienceConfig::default_runtime`]).
    pub fn resilience(mut self, config: ResilienceConfig) -> Self {
        self.config = config;
        self
    }

    /// Set just the checkpoint cadence/spill, keeping the rest of the
    /// resilience configuration.
    pub fn checkpoints(mut self, policy: CheckpointPolicy) -> Self {
        self.config.checkpoint = policy;
        self
    }

    /// Declare devices known to be permanently lost before the run starts
    /// (default: none). Their circuit breakers open for good at t=0, so
    /// rungs needing them are skipped instead of re-discovering the loss.
    /// The query service uses this to share one loss ledger across
    /// queries; [`resume`](Self::resume) ignores it in favor of the
    /// checkpoint's own breaker bank.
    pub fn presume_lost(mut self, devices: &[Device]) -> Self {
        self.lost = devices.to_vec();
        self
    }

    /// Send trace events to `sink` (default: the disabled
    /// [`NULL_SINK`], which makes instrumentation zero-cost).
    pub fn sink(mut self, sink: &'a dyn TraceSink) -> Self {
        self.sink = sink;
        self
    }

    /// Attach an online per-level policy cell: each cross-architecture
    /// level consults its bandit instead of Algorithm 3's fixed `(M, N)`
    /// rules, and realized level costs are observed back into it. A
    /// passthrough cell (frozen, never updated) takes the plain offline
    /// path, bit-identical to not attaching one. Default: none.
    pub fn policy(mut self, cell: &'a PolicyCell) -> Self {
        self.policy = Some(cell);
        self
    }

    /// Resolve the platform into concrete devices and parameters.
    fn resolve(&self) -> (&'a ArchSpec, &'a ArchSpec, &'a Link, CrossParams) {
        match self.platform {
            Platform::Runtime { rt, stats } => {
                let params = self.params.unwrap_or_else(|| rt.predict_params(stats));
                (&rt.cpu, &rt.gpu, &rt.link, params)
            }
            Platform::Explicit { cpu, gpu, link } => {
                let params = self.params.expect("on_platform always sets params");
                (cpu, gpu, link, params)
            }
        }
    }

    /// Start the full degradation ladder from the configured source.
    pub fn run(self) -> Result<RecoveredRun, XbfsError> {
        let Some(source) = self.source else {
            return Err(XbfsError::InvalidArgument {
                what: "RunSession::run needs a source vertex (call .source(v))".into(),
            });
        };
        let (cpu, gpu, link, params) = self.resolve();
        execute_fresh(
            &ExecArgs {
                csr: self.csr,
                cpu,
                gpu,
                link,
                params: &params,
                plan: &self.plan,
                config: &self.config,
                lost: &self.lost,
                sink: self.sink,
                policy: self.policy,
            },
            source,
        )
    }

    /// Resume the ladder from `checkpoint` (typically loaded from a spill
    /// file after a crash). The source comes from the checkpoint; a
    /// configured [`source`](Self::source) is ignored.
    pub fn resume(self, checkpoint: &LevelCheckpoint) -> Result<RecoveredRun, XbfsError> {
        let (cpu, gpu, link, params) = self.resolve();
        execute_resume(
            &ExecArgs {
                csr: self.csr,
                cpu,
                gpu,
                link,
                params: &params,
                plan: &self.plan,
                config: &self.config,
                lost: &self.lost,
                sink: self.sink,
                policy: self.policy,
            },
            checkpoint,
        )
    }
}

/// One lane's result inside a [`BatchRun`]: the source it traversed from
/// and a full [`RecoveredRun`] — parents, levels, per-level records, and a
/// per-lane report, exactly what a solo [`RunSession`] would have produced.
#[derive(Clone, Debug)]
pub struct LaneRun {
    /// Zero-based lane index within the batch word.
    pub lane: u32,
    /// BFS source vertex of the lane.
    pub source: VertexId,
    /// The lane's Graph 500–validated traversal and audit report.
    pub run: RecoveredRun,
}

/// A completed batched traversal: one [`LaneRun`] per source, in the order
/// the sources were given.
#[derive(Clone, Debug)]
pub struct BatchRun {
    /// Per-lane results, one per source.
    pub lanes: Vec<LaneRun>,
    /// Lockstep rounds executed (the deepest lane's level count).
    pub rounds: u32,
    /// Simulated seconds for the whole batch — every lane completes at
    /// this instant, because the lanes share each round's sweeps.
    pub total_seconds: f64,
}

/// The batched sibling of [`RunSession`]: up to 64 sources traverse the
/// graph as one lane-packed batch on the simulated platform.
///
/// The lanes advance in *lockstep rounds*. Each round makes one
/// cross-combination placement decision per lane (the same Algorithm 3
/// latch a solo run would make, driven by the lane's own frontier), then
/// charges the simulated clock **once per placement group**: lanes that
/// share a sweep direction and device this round cost the batch only the
/// slowest lane's level time, because a lane-packed kernel serves the
/// whole `u64` word in one sweep ([`xbfs_engine::run_multi`] is the
/// real-hardware counterpart). Lanes handing off CPU→GPU in the same
/// round likewise share one link transfer. That is the amortization that
/// makes a k-query burst cost ~one traversal instead of k.
///
/// Per-lane *results* are exactly the solo results: each lane's parents,
/// levels, and [`LevelRecord`](xbfs_engine::LevelRecord)s are produced by
/// the same per-lane sequential stepping a solo [`RunSession`] uses, so a
/// k-source batch is bit-identical to k solo runs — only the shared clock
/// differs. With one source the session delegates wholesale to the
/// single-source path: output, records, *and report JSON* match
/// [`RunSession::run`] byte for byte.
///
/// Fault plans, checkpoints, and mid-run scrubbing are single-source
/// concerns and are not offered here; the service batches only queries
/// without fault plans. A configured deadline bounds the whole batch
/// clock.
///
/// ```no_run
/// use xbfs_core::prelude::*;
/// # let runtime = AdaptiveRuntime::quick_trained();
/// # let csr = xbfs_graph::rmat::rmat_csr(8, 8);
/// # let stats = xbfs_graph::GraphStats::rmat(&csr, 0.57, 0.19, 0.19, 0.05);
/// let batch = BatchSession::new(&runtime, &csr, &stats)
///     .sources(&[0, 7, 42])
///     .run()?;
/// assert_eq!(batch.lanes.len(), 3);
/// # Ok::<(), XbfsError>(())
/// ```
pub struct BatchSession<'a> {
    csr: &'a Csr,
    platform: Platform<'a>,
    params: Option<CrossParams>,
    sources: Vec<VertexId>,
    config: ResilienceConfig,
    window: u32,
    sink: &'a dyn TraceSink,
    policy: Option<&'a PolicyCell>,
}

impl<'a> BatchSession<'a> {
    /// A batch session on a trained runtime — the batched sibling of
    /// [`RunSession::new`].
    pub fn new(runtime: &'a AdaptiveRuntime, csr: &'a Csr, stats: &'a GraphStats) -> Self {
        Self {
            csr,
            platform: Platform::Runtime { rt: runtime, stats },
            params: None,
            sources: Vec::new(),
            config: ResilienceConfig::default_runtime(),
            window: 0,
            sink: &NULL_SINK,
            policy: None,
        }
    }

    /// A batch session on explicit device specs — the batched sibling of
    /// [`RunSession::on_platform`].
    pub fn on_platform(
        csr: &'a Csr,
        cpu: &'a ArchSpec,
        gpu: &'a ArchSpec,
        link: &'a Link,
        params: &CrossParams,
    ) -> Self {
        Self {
            csr,
            platform: Platform::Explicit { cpu, gpu, link },
            params: Some(*params),
            sources: Vec::new(),
            config: ResilienceConfig::default_runtime(),
            window: 0,
            sink: &NULL_SINK,
            policy: None,
        }
    }

    /// Set the batch's source vertices, one lane each (required;
    /// `1..=64`). Duplicates are allowed and ride separate lanes.
    pub fn sources(mut self, sources: &[VertexId]) -> Self {
        self.sources = sources.to_vec();
        self
    }

    /// Override the cross-combination switch parameters.
    pub fn params(mut self, params: CrossParams) -> Self {
        self.params = Some(params);
        self
    }

    /// Replace the failure-handling configuration. Only the deadline
    /// applies to a multi-lane batch; the single-lane path honors all of
    /// it, exactly like [`RunSession`].
    pub fn resilience(mut self, config: ResilienceConfig) -> Self {
        self.config = config;
        self
    }

    /// Annotate the batch's trace events with the service batching window
    /// that collected it (0 = built outside the service; default).
    pub fn window(mut self, window: u32) -> Self {
        self.window = window;
        self
    }

    /// Send trace events to `sink` (default: the disabled [`NULL_SINK`]).
    pub fn sink(mut self, sink: &'a dyn TraceSink) -> Self {
        self.sink = sink;
        self
    }

    /// Attach an online per-level policy cell — the batched sibling of
    /// [`RunSession::policy`]. Each lane consults the bandit with its own
    /// frontier features and observes its own solo-equivalent level cost
    /// (own level time, plus its own transfer price when it crosses).
    pub fn policy(mut self, cell: &'a PolicyCell) -> Self {
        self.policy = Some(cell);
        self
    }

    fn resolve(&self) -> (&'a ArchSpec, &'a ArchSpec, &'a Link, CrossParams) {
        match self.platform {
            Platform::Runtime { rt, stats } => {
                let params = self.params.unwrap_or_else(|| rt.predict_params(stats));
                (&rt.cpu, &rt.gpu, &rt.link, params)
            }
            Platform::Explicit { cpu, gpu, link } => {
                let params = self.params.expect("on_platform always sets params");
                (cpu, gpu, link, params)
            }
        }
    }

    /// Run the batch to completion.
    ///
    /// # Errors
    /// [`XbfsError::InvalidArgument`] for an empty or oversized batch,
    /// [`XbfsError::BadSource`] for an out-of-range source,
    /// [`XbfsError::DeadlineExceeded`] if the batch clock blows a
    /// configured deadline, and any error of the single-source ladder when
    /// the batch carries one lane.
    pub fn run(self) -> Result<BatchRun, XbfsError> {
        if self.sources.is_empty() || self.sources.len() > MAX_LANES {
            return Err(XbfsError::InvalidArgument {
                what: format!(
                    "batch carries {} sources; 1..={MAX_LANES} lanes fit one u64 word",
                    self.sources.len()
                ),
            });
        }
        let n = self.csr.num_vertices();
        for &s in &self.sources {
            if s >= n {
                return Err(XbfsError::BadSource {
                    source: s,
                    num_vertices: n,
                });
            }
        }
        let (cpu, gpu, link, params) = self.resolve();
        params.validate()?;
        self.config.validate()?;

        if self.sources.len() == 1 {
            return self.run_single_lane(cpu, gpu, link, &params);
        }
        self.run_lockstep(cpu, gpu, link, &params)
    }

    /// One lane: delegate wholesale to the single-source ladder so the
    /// result — parents, records, report JSON — is bit-identical to
    /// [`RunSession::run`] under the same configuration.
    fn run_single_lane(
        &self,
        cpu: &ArchSpec,
        gpu: &ArchSpec,
        link: &Link,
        params: &CrossParams,
    ) -> Result<BatchRun, XbfsError> {
        let source = self.sources[0];
        if self.sink.enabled() {
            self.sink.record(&TraceEvent::BatchBegin {
                lanes: 1,
                window: self.window,
                at_s: 0.0,
            });
        }
        let run = execute_fresh(
            &ExecArgs {
                csr: self.csr,
                cpu,
                gpu,
                link,
                params,
                plan: &FaultPlan::none(),
                config: &self.config,
                lost: &[],
                sink: self.sink,
                policy: self.policy,
            },
            source,
        )?;
        if self.sink.enabled() {
            self.sink.record(&TraceEvent::BatchEnd {
                lanes: 1,
                levels: run.report.levels_executed,
                at_s: run.report.total_seconds,
            });
        }
        Ok(BatchRun {
            rounds: run.report.levels_executed,
            total_seconds: run.report.total_seconds,
            lanes: vec![LaneRun {
                lane: 0,
                source,
                run,
            }],
        })
    }

    /// Two or more lanes: per-lane sequential stepping (solo-exact
    /// results), batch-grouped pricing (amortized clock).
    fn run_lockstep(
        &self,
        cpu: &ArchSpec,
        gpu: &ArchSpec,
        link: &Link,
        params: &CrossParams,
    ) -> Result<BatchRun, XbfsError> {
        let lanes = self.sources.len();
        let n = self.csr.num_vertices();
        let traced = self.sink.enabled();
        if traced {
            self.sink.record(&TraceEvent::BatchBegin {
                lanes: lanes as u32,
                window: self.window,
                at_s: 0.0,
            });
        }

        let mut states: Vec<TraversalState> = self
            .sources
            .iter()
            .map(|&s| TraversalState::start(self.csr, s))
            .collect();
        let mut drivers: Vec<CrossDriver> = (0..lanes).map(|_| CrossDriver::new(*params)).collect();
        let mut handed_off = vec![false; lanes];
        let mut clock = 0.0_f64;
        let mut rounds: u32 = 0;
        // Passthrough cells take the exact pre-policy path (no feature
        // folds, no PolicyDecision events) — see `RunSession::policy`.
        let policy = self.policy.filter(|cell| !cell.borrow().is_passthrough());

        loop {
            // Advance every unfinished lane one level; its own driver makes
            // the same placement decision a solo run would (or the bandit's,
            // when an online policy is attached).
            let mut stepped: Vec<(usize, Placement, xbfs_engine::LevelRecord)> = Vec::new();
            let mut decisions: Vec<Option<Decision>> = Vec::new();
            let mut crossed_now = vec![false; lanes];
            for lane in 0..lanes {
                if states[lane].is_complete() {
                    continue;
                }
                let decision = policy.map(|cell| {
                    let ctx = policy_online::switch_context_for(self.csr, &states[lane]);
                    let offline = drivers[lane].offline_placement(&ctx);
                    cell.borrow().decide(&ctx, handed_off[lane], offline)
                });
                let pl = match decision {
                    Some(d) => drivers[lane].step_forced(self.csr, &mut states[lane], d.placement),
                    None => drivers[lane].step(self.csr, &mut states[lane]),
                }
                .expect("incomplete lane always steps");
                let rec = *states[lane].levels.last().expect("step pushed a record");
                if let Some(d) = decision {
                    if traced {
                        self.sink.record(&TraceEvent::PolicyDecision {
                            level: rec.level,
                            bin: d.bin,
                            device: pl.device(),
                            direction: pl.direction(),
                            explore: d.explore,
                            at_s: clock,
                        });
                    }
                }
                stepped.push((lane, pl, rec));
                decisions.push(decision);
            }
            if stepped.is_empty() {
                break;
            }

            // Lanes crossing CPU→GPU this round share ONE transfer: the
            // lane-packed frontier word ships together.
            let crossing: Vec<&(usize, Placement, xbfs_engine::LevelRecord)> = stepped
                .iter()
                .filter(|(lane, pl, _)| pl.on_gpu() && !handed_off[*lane])
                .collect();
            if !crossing.is_empty() {
                let frontier_vertices: u64 = crossing
                    .iter()
                    .map(|(_, _, rec)| rec.frontier_vertices)
                    .sum();
                let bytes = Link::handoff_bytes(n as u64, frontier_vertices);
                let seconds = link.transfer_time(bytes);
                if traced {
                    self.sink.record(&TraceEvent::Transfer {
                        level: rounds,
                        bytes,
                        attempt: 0,
                        start_s: clock,
                        end_s: clock + seconds,
                        ok: true,
                    });
                }
                clock += seconds;
                for (lane, _, _) in &crossing {
                    handed_off[*lane] = true;
                    crossed_now[*lane] = true;
                }
            }

            // Each lane's bandit reward is its *solo-equivalent* cost: its
            // own level time plus its own transfer price when it crossed —
            // not the amortized group charge, which would credit a lane for
            // savings its placement did not cause.
            if let Some(cell) = policy {
                let mut run = cell.borrow_mut();
                for ((lane, pl, rec), d) in stepped.iter().zip(&decisions) {
                    let Some(d) = d else { continue };
                    let arch = if pl.on_gpu() { gpu } else { cpu };
                    let mut cost_s = cost::level_time_for_record(arch, rec);
                    if crossed_now[*lane] {
                        cost_s += link
                            .transfer_time(Link::handoff_bytes(n as u64, rec.frontier_vertices));
                    }
                    run.observe(d.bin, *pl, cost_s);
                }
            }

            // Charge each placement group once: one sweep serves the whole
            // word, bounded by the group's slowest lane.
            for placement in [
                Placement::CpuTd,
                Placement::CpuBu,
                Placement::GpuTd,
                Placement::GpuBu,
            ] {
                let group: Vec<&(usize, Placement, xbfs_engine::LevelRecord)> = stepped
                    .iter()
                    .filter(|(_, pl, _)| *pl == placement)
                    .collect();
                if group.is_empty() {
                    continue;
                }
                let arch = if placement.on_gpu() { gpu } else { cpu };
                let seconds = group
                    .iter()
                    .map(|(_, _, rec)| cost::level_time_for_record(arch, rec))
                    .fold(0.0_f64, f64::max);
                if traced {
                    let device = if placement.on_gpu() { "gpu" } else { "cpu" };
                    self.sink.record(&TraceEvent::BatchLevel {
                        device,
                        level: rounds,
                        direction: placement.direction(),
                        lanes: group.len() as u32,
                        frontier_vertices: group
                            .iter()
                            .map(|(_, _, rec)| rec.frontier_vertices)
                            .sum(),
                        edges_examined: group.iter().map(|(_, _, rec)| rec.edges_examined).sum(),
                        seconds,
                        at_s: clock,
                    });
                }
                clock += seconds;
            }

            if let Some(budget_s) = self.config.deadline_s {
                if clock > budget_s {
                    return Err(XbfsError::DeadlineExceeded {
                        budget_s,
                        elapsed_s: clock,
                    });
                }
            }
            rounds += 1;
        }

        if traced {
            self.sink.record(&TraceEvent::BatchEnd {
                lanes: lanes as u32,
                levels: rounds,
                at_s: clock,
            });
        }

        let mut lane_runs = Vec::with_capacity(lanes);
        for (lane, (state, &source)) in states.into_iter().zip(&self.sources).enumerate() {
            let traversal = state.into_traversal();
            validate(self.csr, &traversal.output)?;
            let report = RunReport {
                rung: Rung::CrossCpuGpu,
                rungs_tried: vec![Rung::CrossCpuGpu],
                skipped_rungs: Vec::new(),
                events: Vec::new(),
                retries: 0,
                recovery_seconds: 0.0,
                total_seconds: clock,
                breaker_transitions: Vec::new(),
                checkpoints_taken: 0,
                checkpoint_bytes: 0,
                checkpoint_seconds: 0.0,
                resumed_from_level: None,
                levels_replayed: 0,
                levels_executed: traversal.levels.len() as u32,
                edges_examined: traversal.levels.iter().map(|r| r.edges_examined).sum(),
                saved_seconds: 0.0,
                resumes: Vec::new(),
                corruption_detected: 0,
                corruption_repairs: 0,
            };
            lane_runs.push(LaneRun {
                lane: lane as u32,
                source,
                run: RecoveredRun {
                    output: traversal.output,
                    report,
                },
            });
        }
        Ok(BatchRun {
            lanes: lane_runs,
            rounds,
            total_seconds: clock,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::recovery::Rung;
    use xbfs_engine::trace::MemorySink;
    use xbfs_engine::{validate, FixedMN};

    fn setup() -> (Csr, u32, ArchSpec, ArchSpec, Link, CrossParams) {
        let g = xbfs_graph::rmat::rmat_csr(10, 16);
        let src = crate::training::pick_source(&g, 3).unwrap();
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

    #[test]
    fn missing_source_is_a_typed_error() {
        let (g, _, cpu, gpu, link, params) = setup();
        let err = RunSession::on_platform(&g, &cpu, &gpu, &link, &params)
            .run()
            .unwrap_err();
        assert!(matches!(err, XbfsError::InvalidArgument { .. }));
    }

    #[test]
    fn healthy_session_serves_on_the_top_rung() {
        let (g, src, cpu, gpu, link, params) = setup();
        let run = RunSession::on_platform(&g, &cpu, &gpu, &link, &params)
            .source(src)
            .run()
            .expect("healthy run");
        assert_eq!(run.report.rung, Rung::CrossCpuGpu);
        assert_eq!(validate(&g, &run.output), Ok(()));
    }

    #[test]
    fn sink_receives_a_trace_without_changing_the_run() {
        let (g, src, cpu, gpu, link, params) = setup();
        let silent = RunSession::on_platform(&g, &cpu, &gpu, &link, &params)
            .source(src)
            .run()
            .expect("silent run");
        let sink = MemorySink::new();
        let traced = RunSession::on_platform(&g, &cpu, &gpu, &link, &params)
            .source(src)
            .sink(&sink)
            .run()
            .expect("traced run");
        assert_eq!(traced.output, silent.output);
        assert_eq!(traced.report, silent.report);
        assert!(!sink.is_empty(), "trace must not be empty");
    }

    #[test]
    fn presumed_lost_gpu_skips_the_cross_rung() {
        let (g, src, cpu, gpu, link, params) = setup();
        let run = RunSession::on_platform(&g, &cpu, &gpu, &link, &params)
            .source(src)
            .presume_lost(&[Device::Gpu])
            .run()
            .expect("degraded run");
        assert_eq!(run.report.rung, Rung::CpuOnly);
        assert!(run.report.skipped_rungs.contains(&Rung::CrossCpuGpu));
        assert_eq!(validate(&g, &run.output), Ok(()));
        // The pre-seeded loss appears as a t=0 breaker transition, so the
        // per-query trace explains *why* the cross rung was skipped.
        assert!(run
            .report
            .breaker_transitions
            .iter()
            .any(|t| t.device == Device::Gpu && t.at_s == 0.0));
    }

    #[test]
    fn checkpoints_builder_only_touches_the_checkpoint_policy() {
        let (g, src, cpu, gpu, link, params) = setup();
        let run = RunSession::on_platform(&g, &cpu, &gpu, &link, &params)
            .source(src)
            .checkpoints(CheckpointPolicy::every(1))
            .run()
            .expect("checkpointing run");
        assert!(run.report.checkpoints_taken > 0);
        let off = RunSession::on_platform(&g, &cpu, &gpu, &link, &params)
            .source(src)
            .checkpoints(CheckpointPolicy::disabled())
            .run()
            .expect("non-checkpointing run");
        assert_eq!(off.report.checkpoints_taken, 0);
        assert_eq!(run.output, off.output);
    }

    #[test]
    fn single_lane_batch_is_bit_identical_to_run_session() {
        let (g, src, cpu, gpu, link, params) = setup();
        let solo = RunSession::on_platform(&g, &cpu, &gpu, &link, &params)
            .source(src)
            .run()
            .expect("solo run");
        let batch = BatchSession::on_platform(&g, &cpu, &gpu, &link, &params)
            .sources(&[src])
            .run()
            .expect("one-lane batch");
        assert_eq!(batch.lanes.len(), 1);
        let lane = &batch.lanes[0];
        assert_eq!(lane.run.output, solo.output);
        assert_eq!(lane.run.report, solo.report);
        assert_eq!(lane.run.report.to_json(), solo.report.to_json());
        assert_eq!(batch.total_seconds, solo.report.total_seconds);
    }

    #[test]
    fn multi_lane_batch_matches_solo_sessions_per_lane() {
        let (g, src, cpu, gpu, link, params) = setup();
        let sources = [src, 0, 5, 77];
        let batch = BatchSession::on_platform(&g, &cpu, &gpu, &link, &params)
            .sources(&sources)
            .run()
            .expect("batch run");
        assert_eq!(batch.lanes.len(), sources.len());
        for (lane, &source) in batch.lanes.iter().zip(&sources) {
            assert_eq!(lane.source, source);
            let solo = RunSession::on_platform(&g, &cpu, &gpu, &link, &params)
                .source(source)
                .run()
                .expect("solo run");
            assert_eq!(lane.run.output, solo.output, "lane {} diverged", lane.lane);
            assert_eq!(validate(&g, &lane.run.output), Ok(()));
            assert_eq!(lane.run.report.total_seconds, batch.total_seconds);
        }
    }

    #[test]
    fn batch_clock_beats_sum_of_solo_clocks() {
        let (g, src, cpu, gpu, link, params) = setup();
        let sources: Vec<u32> = (0..8).map(|i| (src + i * 41) % g.num_vertices()).collect();
        let batch = BatchSession::on_platform(&g, &cpu, &gpu, &link, &params)
            .sources(&sources)
            .run()
            .expect("batch run");
        let solo_sum: f64 = sources
            .iter()
            .map(|&s| {
                RunSession::on_platform(&g, &cpu, &gpu, &link, &params)
                    .source(s)
                    .run()
                    .expect("solo run")
                    .report
                    .total_seconds
            })
            .sum();
        assert!(
            batch.total_seconds < solo_sum,
            "batched {} s must amortize below {} s of solo runs",
            batch.total_seconds,
            solo_sum
        );
    }

    #[test]
    fn batch_bounds_are_typed_errors() {
        let (g, src, cpu, gpu, link, params) = setup();
        let empty = BatchSession::on_platform(&g, &cpu, &gpu, &link, &params)
            .run()
            .unwrap_err();
        assert!(matches!(empty, XbfsError::InvalidArgument { .. }));
        let oversized = BatchSession::on_platform(&g, &cpu, &gpu, &link, &params)
            .sources(&vec![src; MAX_LANES + 1])
            .run()
            .unwrap_err();
        assert!(matches!(oversized, XbfsError::InvalidArgument { .. }));
        let bad = BatchSession::on_platform(&g, &cpu, &gpu, &link, &params)
            .sources(&[g.num_vertices()])
            .run()
            .unwrap_err();
        assert!(matches!(bad, XbfsError::BadSource { .. }));
    }

    #[test]
    fn batch_deadline_aborts_the_whole_batch() {
        let (g, src, cpu, gpu, link, params) = setup();
        let mut config = ResilienceConfig::default_runtime();
        config.deadline_s = Some(1e-12);
        let err = BatchSession::on_platform(&g, &cpu, &gpu, &link, &params)
            .sources(&[src, 0, 5])
            .resilience(config)
            .run()
            .unwrap_err();
        assert!(matches!(err, XbfsError::DeadlineExceeded { .. }));
    }

    #[test]
    fn batch_trace_brackets_rounds_with_begin_and_end() {
        let (g, src, cpu, gpu, link, params) = setup();
        let sink = MemorySink::new();
        let batch = BatchSession::on_platform(&g, &cpu, &gpu, &link, &params)
            .sources(&[src, 0, 5])
            .window(4)
            .sink(&sink)
            .run()
            .expect("traced batch");
        let events = sink.events();
        assert!(matches!(
            events.first(),
            Some(TraceEvent::BatchBegin {
                lanes: 3,
                window: 4,
                ..
            })
        ));
        assert!(matches!(
            events.last(),
            Some(TraceEvent::BatchEnd { lanes: 3, .. })
        ));
        let rounds_traced = events
            .iter()
            .filter(|e| matches!(e, TraceEvent::BatchLevel { .. }))
            .count();
        assert!(rounds_traced >= batch.rounds as usize);
        // The traced run is priced identically to a silent one.
        let silent = BatchSession::on_platform(&g, &cpu, &gpu, &link, &params)
            .sources(&[src, 0, 5])
            .run()
            .expect("silent batch");
        assert_eq!(batch.total_seconds, silent.total_seconds);
    }
}
