//! `core::service` — a multi-tenant BFS query service with admission
//! control, deadlines, fault isolation, and graceful drain.
//!
//! The ROADMAP's north star is a service that survives heavy traffic, not
//! a single traversal. This module is that service layer: it holds one
//! immutable graph behind `Arc<Csr>` and serves many [`RunSession`]s
//! against it, each query owning its entire mutable footprint (traversal
//! state, fault stream, simulated clock, trace buffer) so one query's
//! fault, blown deadline, or kernel panic can never touch its neighbors.
//!
//! **Determinism.** Requests carry *simulated* arrival times and the
//! per-query costs come from the simulated clock, so the whole service
//! schedule is a discrete-event simulation: admission, queueing,
//! deadline checks, and the shared loss ledger all advance on simulated
//! time in a deterministic event order. Each dispatch — one query, or a
//! batch of them — executes inline on the event-loop thread
//! at its start event; its result is then held until the simulated clock
//! reaches its completion. Queries overlap on the simulated clock, never
//! in wall time, which is what lets the chaos suite replay seeded
//! overload scenarios byte-for-byte.
//!
//! **Admission and shedding.** Capacity-bounded slots plus a bounded FIFO
//! queue. A query arriving with the queue full is shed immediately with
//! [`XbfsError::Overloaded`] (queue-depth context included) instead of
//! waiting unboundedly; a queued query whose deadline expires before a
//! slot frees is shed with [`XbfsError::DeadlineExceeded`]; a query
//! arriving after drain begins is refused with
//! [`XbfsError::ShuttingDown`].
//!
//! **Fault isolation with shared permanent losses.** A seeded
//! [`FaultPlan`], breaker trip, or panic degrades *that query* down the
//! recovery ladder (see [`crate::recovery`]). A panic that escapes the
//! ladder is caught by `catch_unwind` around the session and becomes that
//! dispatch's [`XbfsError::KernelPanic`]. Only *permanent* device losses
//! are promoted to the service-wide ledger — folded in at the losing
//! query's completion event — so queries starting later skip the lost
//! device's rungs via [`RunSession::presume_lost`] while queries already
//! in flight, and anything that completed earlier, are bit-for-bit
//! identical to their solo runs.

use std::collections::{BTreeSet, VecDeque};
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::Arc;

use crate::cross::CrossParams;
use crate::health::{BreakerState, Device, TransitionCause};
use crate::observe::timeseries::{SloPolicy, SloReport, SnapshotPolicy, WindowSnapshot};
use crate::observe::{trace_event_json, Metrics};
use crate::policy_online::{Observation, PolicyMode, PolicyRun, SharedPolicy};
use crate::recovery::{RecoveredRun, ResilienceConfig, Rung};
use crate::runtime::AdaptiveRuntime;
use crate::session::{BatchSession, RunSession, MAX_LANES};
use serde::{Deserialize, Serialize};
use xbfs_archsim::{ArchSpec, FaultPlan, Link};
use xbfs_engine::par::payload_to_string;
use xbfs_engine::trace::{MemorySink, TraceEvent};
use xbfs_engine::XbfsError;
use xbfs_graph::{Csr, GraphStats, VertexId};

/// One query submitted to the service.
#[derive(Clone, Debug, PartialEq, Serialize, Deserialize)]
pub struct QueryRequest {
    /// Caller-assigned query id (appears in events, metrics, reports).
    pub id: u64,
    /// BFS source vertex.
    pub source: VertexId,
    /// Simulated service clock at which the query arrives.
    pub arrival_s: f64,
    /// Per-query deadline in simulated seconds, measured **from
    /// arrival**: time spent queued counts against it, and the remainder
    /// becomes the traversal's clock budget.
    pub deadline_s: Option<f64>,
    /// Seeded fault plan for this query (`None` means no faults; optional
    /// so request lines can omit it).
    pub fault_plan: Option<FaultPlan>,
}

impl QueryRequest {
    /// Start building a query for `source`: arrival 0, no deadline, no
    /// faults until the builder says otherwise.
    ///
    /// ```
    /// use xbfs_core::prelude::*;
    /// let req = QueryRequest::builder(7, 3).arrival(0.25).deadline(2.0).build();
    /// assert_eq!(req.deadline_s, Some(2.0));
    /// ```
    pub fn builder(id: u64, source: VertexId) -> QueryRequestBuilder {
        QueryRequestBuilder {
            req: QueryRequest {
                id,
                source,
                arrival_s: 0.0,
                deadline_s: None,
                fault_plan: None,
            },
        }
    }

    /// The effective fault plan (no faults when the request omitted one).
    pub fn plan(&self) -> FaultPlan {
        self.fault_plan.clone().unwrap_or_else(FaultPlan::none)
    }
}

/// Builder for [`QueryRequest`] — every optional knob gets a named setter
/// instead of post-construction field pokes.
#[derive(Clone, Debug)]
pub struct QueryRequestBuilder {
    req: QueryRequest,
}

impl QueryRequestBuilder {
    /// Simulated service clock at which the query arrives (default 0).
    pub fn arrival(mut self, arrival_s: f64) -> Self {
        self.req.arrival_s = arrival_s;
        self
    }

    /// Per-query deadline in simulated seconds, measured from arrival.
    pub fn deadline(mut self, deadline_s: f64) -> Self {
        self.req.deadline_s = Some(deadline_s);
        self
    }

    /// Seeded fault plan for this query.
    pub fn fault_plan(mut self, plan: FaultPlan) -> Self {
        self.req.fault_plan = Some(plan);
        self
    }

    /// Finish the request.
    pub fn build(self) -> QueryRequest {
        self.req
    }
}

/// One item of a service schedule: a query arrival or the drain marker.
#[derive(Clone, Debug, PartialEq)]
pub enum ScheduleItem {
    /// A query arrives.
    Query(QueryRequest),
    /// The service begins draining at `at_s`: arrivals from then on are
    /// refused with [`XbfsError::ShuttingDown`].
    Drain {
        /// Simulated service clock at which draining begins.
        at_s: f64,
    },
}

impl ScheduleItem {
    /// The simulated time this item occurs at.
    pub fn at_s(&self) -> f64 {
        match self {
            ScheduleItem::Query(q) => q.arrival_s,
            ScheduleItem::Drain { at_s } => *at_s,
        }
    }

    /// Parse one JSON line of a request stream: either a [`QueryRequest`]
    /// object or a drain marker `{"drain_at_s": <seconds>}`.
    pub fn from_json_line(line: &str) -> Result<Self, XbfsError> {
        let value: serde_json::Value =
            serde_json::from_str(line).map_err(|e| XbfsError::InvalidArgument {
                what: format!("request line parse error: {e}"),
            })?;
        if let Some(at) = value.get("drain_at_s") {
            let at_s = at.as_f64().ok_or_else(|| XbfsError::InvalidArgument {
                what: "drain_at_s must be a number".to_string(),
            })?;
            return Ok(ScheduleItem::Drain { at_s });
        }
        let req = <QueryRequest as serde::Deserialize>::from_value(&value).map_err(|e| {
            XbfsError::InvalidArgument {
                what: format!("request line parse error: {e}"),
            }
        })?;
        Ok(ScheduleItem::Query(req))
    }
}

/// What happens to queries still queued (admitted, not yet started) when
/// the drain marker fires. Queries already *running* always complete —
/// they checkpoint on their configured cadence, so even a hard kill after
/// drain loses at most one checkpoint interval of levels.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Default)]
pub enum DrainMode {
    /// Queued queries still run to completion (graceful drain).
    #[default]
    Complete,
    /// Queued queries are shed with [`XbfsError::ShuttingDown`].
    Cancel,
}

/// Which queued queries may share a batch: any fault-free query, deadline
/// or not. Batches exclude queries with fault plans because lockstep
/// execution has no per-lane recovery ladder, so a faulty query would
/// poison its batch. There is one rule. The type and
/// [`BatchPolicy::compat`] stay only because the wall-clock benchmark
/// (`wallbench/`) builds its policy with `compat: BatchCompat::default()`;
/// deleting them changes that benchmark, which is a change of its own.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Default)]
pub enum BatchCompat {
    /// Any fault-free query joins, deadline or not; per-lane deadlines
    /// are re-checked against the batch completion instant.
    #[default]
    FaultFree,
}

impl BatchCompat {
    /// Whether `req` may ride a batch under this rule.
    pub fn admits(self, req: &QueryRequest) -> bool {
        req.fault_plan.is_none()
    }
}

/// The service's batching stage: when a slot frees, up to `window`
/// compatible queries are popped from the queue front and served as the
/// lanes of one [`BatchSession`] occupying a single slot.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct BatchPolicy {
    /// Most queries collected per dispatch; `0` or `1` disables batching
    /// (every query runs solo, exactly the pre-batching service).
    pub window: u32,
    /// Hard lane bound per batch (≤ [`MAX_LANES`]).
    pub max_lanes: u32,
    /// Which queued queries are allowed to share a batch.
    pub compat: BatchCompat,
}

impl Default for BatchPolicy {
    fn default() -> Self {
        Self {
            window: 0,
            max_lanes: MAX_LANES as u32,
            compat: BatchCompat::default(),
        }
    }
}

impl BatchPolicy {
    /// A policy batching up to `window` queries with the default
    /// compatibility rule.
    pub fn windowed(window: u32) -> Self {
        Self {
            window,
            ..Self::default()
        }
    }

    /// Whether this policy ever forms a multi-query batch.
    pub fn enabled(&self) -> bool {
        self.window > 1
    }

    /// The effective per-dispatch lane bound.
    pub fn lane_limit(&self) -> usize {
        self.window.min(self.max_lanes).min(MAX_LANES as u32) as usize
    }

    /// Validate the knobs.
    pub fn validate(&self) -> Result<(), XbfsError> {
        if self.window > 0 && !(1..=MAX_LANES as u32).contains(&self.max_lanes) {
            return Err(XbfsError::InvalidArgument {
                what: format!(
                    "batch max_lanes must be in 1..={MAX_LANES}, got {}",
                    self.max_lanes
                ),
            });
        }
        Ok(())
    }
}

/// Head-sampling of the kept per-query traces: the keep/drop decision is
/// made once per dispatch from a seeded hash of `(seed, lead query id)`,
/// so a sampled service run is as deterministic as an unsampled one — the
/// same seed keeps the same queries on every replay. Sampling thins only
/// [`ServiceReport::query_traces`]; the metrics and the post-mortems read
/// every dispatch's trace buffer.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct TraceSamplePolicy {
    /// Probability a query's trace is kept, in `[0, 1]` (1 = keep all,
    /// the pre-sampling behavior).
    pub rate: f64,
    /// Seed for the per-query keep/drop hash.
    pub seed: u64,
}

impl Default for TraceSamplePolicy {
    fn default() -> Self {
        Self { rate: 1.0, seed: 0 }
    }
}

impl TraceSamplePolicy {
    /// Validate the rate (finite, in `[0, 1]`).
    pub fn validate(&self) -> Result<(), XbfsError> {
        if !(self.rate.is_finite() && (0.0..=1.0).contains(&self.rate)) {
            return Err(XbfsError::InvalidArgument {
                what: format!("trace sample rate must be in [0, 1], got {}", self.rate),
            });
        }
        Ok(())
    }

    /// Whether the trace of a dispatch led by `query` is kept: a pure
    /// function of `(seed, query, rate)`. A rate of 1 or more keeps every
    /// query and a rate of 0 or less keeps none, without hashing.
    pub fn keeps(&self, query: u64) -> bool {
        if self.rate >= 1.0 {
            return true;
        }
        if self.rate <= 0.0 {
            return false;
        }
        // Top 53 bits → uniform in [0, 1); keep the low-hash head.
        let u = (sample_hash(self.seed, query) >> 11) as f64 / (1u64 << 53) as f64;
        u < self.rate
    }
}

/// Mix a sampling seed and a query id into one 64-bit hash
/// (splitmix64-style finalizer — the same generator family the CLI uses
/// for arrival streams, so sampled subsets are reproducible anywhere).
fn sample_hash(seed: u64, query: u64) -> u64 {
    let mut z = seed ^ query.wrapping_mul(0x9E37_79B9_7F4A_7C15);
    z = z.wrapping_add(0x9E37_79B9_7F4A_7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// Service-level knobs: slots, queue bound, per-query resilience.
#[derive(Clone, Debug)]
pub struct ServiceConfig {
    /// Concurrent query slots (≥ 1).
    pub capacity: u32,
    /// Bound on the admission queue; an arrival finding the queue at this
    /// depth is shed with [`XbfsError::Overloaded`].
    pub queue_limit: u32,
    /// Base failure-handling configuration applied to every query. A
    /// query's own `deadline_s` tightens (never loosens) this config's
    /// deadline.
    pub resilience: ResilienceConfig,
    /// What happens to queued queries at drain time.
    pub drain: DrainMode,
    /// Keep each dispatch's trace events in
    /// [`ServiceReport::query_traces`] (the input of the per-query chrome
    /// export; costs memory on big runs). The trace is recorded either
    /// way: [`ServiceReport::metrics`] and the post-mortems read it
    /// whether or not it is kept.
    pub keep_query_traces: bool,
    /// Directory for per-query checkpoint spills (`query-<id>.ck.json`),
    /// active when the resilience config has a checkpoint cadence. This
    /// is what makes in-flight queries externally resumable across a
    /// process death mid-drain.
    pub spill_dir: Option<String>,
    /// The batching stage (off by default: `window` 0).
    pub batching: BatchPolicy,
    /// Live time-series snapshot cadence (off by default).
    pub snapshot: SnapshotPolicy,
    /// Optional service-level objectives evaluated over the run.
    pub slo: Option<SloPolicy>,
    /// Per-query flight-recorder capacity: when a query ends in a typed
    /// error, the last this-many events of its dispatch's trace buffer
    /// are dumped as a post-mortem. `0` disables the dumps (the default).
    pub flight_recorder: usize,
    /// Head-sampling of the kept per-query traces (effective only when
    /// [`ServiceConfig::keep_query_traces`] is on). It never thins the
    /// metrics or the post-mortems.
    pub trace_sample: TraceSamplePolicy,
    /// Per-level placement policy applied to every query (default:
    /// [`PolicyMode::Offline`], the fixed Algorithm 3 switch points —
    /// byte-identical to the pre-policy service). With
    /// [`PolicyMode::Online`], one master bandit learns across the whole
    /// query stream: each query snapshots it at admission and its realized
    /// level costs are folded back in simulated completion order, so the
    /// run stays deterministic.
    pub policy: PolicyMode,
}

impl Default for ServiceConfig {
    fn default() -> Self {
        Self {
            capacity: 2,
            queue_limit: 8,
            resilience: ResilienceConfig::default_runtime(),
            drain: DrainMode::Complete,
            keep_query_traces: false,
            spill_dir: None,
            batching: BatchPolicy::default(),
            snapshot: SnapshotPolicy::off(),
            slo: None,
            flight_recorder: 0,
            trace_sample: TraceSamplePolicy::default(),
            policy: PolicyMode::Offline,
        }
    }
}

impl ServiceConfig {
    /// Validate the knobs (capacity ≥ 1, inner resilience, batching, and
    /// telemetry configs valid).
    pub fn validate(&self) -> Result<(), XbfsError> {
        if self.capacity == 0 {
            return Err(XbfsError::InvalidArgument {
                what: "service capacity must be at least 1".to_string(),
            });
        }
        self.batching.validate()?;
        self.snapshot.validate()?;
        if let Some(slo) = &self.slo {
            slo.validate()?;
        }
        self.trace_sample.validate()?;
        self.resilience.validate()
    }
}

/// Terminal state of one scheduled query.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Disposition {
    /// Ran to a validated tree.
    Served {
        /// `true` if a rung below the cross combination served it.
        degraded: bool,
    },
    /// Shed at arrival: the admission queue was full.
    ShedOverloaded,
    /// Shed at or after the drain marker.
    ShedShutdown,
    /// The deadline expired — while queued (never ran) or mid-run.
    DeadlineMissed,
    /// Ran and ended in a typed error other than the deadline.
    Failed,
}

impl Disposition {
    /// Stable lowercase label for metrics keys and reports.
    pub fn name(self) -> &'static str {
        match self {
            Disposition::Served { degraded: false } => "served",
            Disposition::Served { degraded: true } => "degraded",
            Disposition::ShedOverloaded => "shed-overloaded",
            Disposition::ShedShutdown => "shed-shutdown",
            Disposition::DeadlineMissed => "deadline-missed",
            Disposition::Failed => "failed",
        }
    }
}

/// Everything the service knows about one query after the run.
#[derive(Debug)]
pub struct QueryOutcome {
    /// Caller-assigned query id.
    pub id: u64,
    /// Requested source vertex.
    pub source: VertexId,
    /// Simulated arrival time.
    pub arrival_s: f64,
    /// When the query started executing (`None` if shed).
    pub start_s: Option<f64>,
    /// When the query reached its terminal state (`None` if shed at
    /// arrival; shed-from-queue queries record the shed instant).
    pub completion_s: Option<f64>,
    /// Seconds spent waiting in the admission queue.
    pub wait_s: f64,
    /// Terminal state.
    pub disposition: Disposition,
    /// The typed error for non-served queries.
    pub error: Option<XbfsError>,
    /// The validated result for served queries.
    pub run: Option<RecoveredRun>,
}

/// The flight-recorder dump for one query that ended in a typed error:
/// the last events of its dispatch's trace buffer, plus enough identity to
/// reconcile the dump with the query's outcome.
#[derive(Clone, Debug)]
pub struct PostMortem {
    /// Caller-assigned query id.
    pub query: u64,
    /// Requested source vertex.
    pub source: VertexId,
    /// Terminal disposition label ("failed", "deadline-missed").
    pub disposition: &'static str,
    /// The typed error, rendered.
    pub error: String,
    /// Service clock at query start.
    pub start_s: f64,
    /// Service clock at the terminal event.
    pub completion_s: f64,
    /// Flight-recorder capacity: the most events a dump keeps.
    pub capacity: usize,
    /// Earlier events of the trace the dump left out (0 = the dump is the
    /// query's complete trace).
    pub dropped: u64,
    /// The retained events, oldest first, on the query's private clock.
    pub events: Vec<TraceEvent>,
}

impl PostMortem {
    /// Serialize the dump as a pretty-printed JSON artifact (events via
    /// [`crate::observe::trace_event_json`]).
    pub fn to_json(&self) -> String {
        let events: Vec<serde_json::Value> = self.events.iter().map(trace_event_json).collect();
        serde_json::to_string_pretty(&serde_json::json!({
            "query": self.query,
            "source": self.source,
            "disposition": self.disposition,
            "error": self.error,
            "start_s": self.start_s,
            "completion_s": self.completion_s,
            "flight_recorder_capacity": self.capacity,
            "dropped_events": self.dropped,
            "events": events,
        }))
        .expect("post-mortem serializes")
    }
}

/// One query's buffered trace, positioned on the service clock.
#[derive(Clone, Debug)]
pub struct QueryTrace {
    /// Caller-assigned query id.
    pub query: u64,
    /// Service clock at which the query started (its events are relative
    /// to this origin).
    pub start_s: f64,
    /// The query's own events, on its private clock.
    pub events: Vec<TraceEvent>,
}

/// The result of replaying one schedule through the service.
///
/// The counters, peaks, means, windows and SLO verdict are read from
/// [`ServiceReport::metrics`] when the run ends; the registry is the one
/// account they all come from.
#[derive(Debug, Default)]
pub struct ServiceReport {
    /// Per-query terminal states, in schedule order.
    pub outcomes: Vec<QueryOutcome>,
    /// Queries admitted (started or queued).
    pub admitted: u32,
    /// Served on the top rung.
    pub served: u32,
    /// Served on a lower rung.
    pub degraded: u32,
    /// Shed at arrival with a full queue.
    pub shed_overloaded: u32,
    /// Refused or cancelled by drain.
    pub shed_shutdown: u32,
    /// Deadline expired (queued or mid-run).
    pub deadline_missed: u32,
    /// Ran and failed with a non-deadline error.
    pub failed: u32,
    /// Deepest the admission queue ever got: the queue gauge's peak.
    pub peak_queue_depth: u32,
    /// Most dispatches ever running at once: the in-flight gauge's peak.
    pub peak_in_flight: u32,
    /// Time-weighted mean admission-queue depth over the run's makespan.
    pub mean_queue_depth: f64,
    /// Time-weighted mean of occupied slots over the run's makespan.
    pub mean_in_flight: f64,
    /// Simulated time of the last terminal event.
    pub makespan_s: f64,
    /// Devices permanently lost during the run, with the service time at
    /// which the loss was promoted to the shared ledger.
    pub lost_devices: Vec<(Device, f64)>,
    /// Service-level admission events (query/queue vocabulary), in
    /// simulated event order.
    pub events: Vec<TraceEvent>,
    /// Per-query traces, when [`ServiceConfig::keep_query_traces`] is on:
    /// one per started query, in completion order. A batch's shared trace
    /// rides its lead lane, and a trace the sample dropped is empty.
    pub query_traces: Vec<QueryTrace>,
    /// The run's registry: every metric family and gauge, folded from
    /// each service event as it is pushed onto [`ServiceReport::events`]
    /// and from each dispatch's trace buffer at its completion.
    /// Independent of which traces were kept.
    pub metrics: Metrics,
    /// Closed telemetry windows, when [`ServiceConfig::snapshot`] is on;
    /// the last one ends at the makespan.
    pub timeseries: Vec<WindowSnapshot>,
    /// The SLO verdict, when [`ServiceConfig::slo`] and
    /// [`ServiceConfig::snapshot`] are both configured.
    pub slo: Option<SloReport>,
    /// Flight-recorder dumps for queries that ended in a typed error,
    /// when [`ServiceConfig::flight_recorder`] is non-zero. Completion
    /// order.
    pub postmortems: Vec<PostMortem>,
}

impl ServiceReport {
    /// The outcome for query `id`, if it was scheduled.
    pub fn outcome(&self, id: u64) -> Option<&QueryOutcome> {
        self.outcomes.iter().find(|o| o.id == id)
    }

    /// Push one service event and fold it into the registry.
    fn emit(&mut self, event: TraceEvent) {
        self.metrics.fold(std::slice::from_ref(&event));
        self.events.push(event);
    }

    /// Record the shed of the query in outcome `slot` with `error`
    /// (overload, drain or a lapsed deadline): its outcome and the
    /// `QueryShed` event.
    fn shed(&mut self, slot: usize, error: XbfsError, queue_depth: u32, at_s: f64) {
        let (disposition, reason) = match error {
            XbfsError::Overloaded { .. } => (Disposition::ShedOverloaded, "overloaded"),
            XbfsError::ShuttingDown => (Disposition::ShedShutdown, "shutdown"),
            _ => (Disposition::DeadlineMissed, "deadline"),
        };
        let o = &mut self.outcomes[slot];
        o.disposition = disposition;
        o.completion_s = Some(at_s);
        o.wait_s = (at_s - o.arrival_s).max(0.0);
        o.error = Some(error);
        let query = o.id;
        self.emit(TraceEvent::QueryShed {
            query,
            reason,
            queue_depth,
            at_s,
        });
    }

    /// Close the registry at the makespan and read the counters, peaks,
    /// means, windows and SLO verdict from it.
    fn settle(&mut self) {
        let m = &mut self.metrics;
        (self.timeseries, self.slo) = m.finish(self.makespan_s);
        self.admitted = m.admitted();
        self.served = m.queries("served");
        self.degraded = m.queries("degraded");
        self.shed_overloaded = m.shed("overloaded");
        self.shed_shutdown = m.shed("shutdown");
        self.deadline_missed = m.queries("deadline-missed") + m.shed("deadline");
        self.failed = m.queries("failed");
        let (queue, in_flight) = (m.queue_gauge(), m.in_flight_gauge());
        self.peak_queue_depth = queue.peak() as u32;
        self.peak_in_flight = in_flight.peak() as u32;
        self.mean_queue_depth = queue.mean(self.makespan_s);
        self.mean_in_flight = in_flight.mean(self.makespan_s);
    }

    /// Service events followed by every kept per-query event. With every
    /// trace kept, [`crate::observe::prometheus_text`] over this list
    /// renders the same bytes as [`ServiceReport::metrics`]; with traces
    /// off or sampled it sees only what was kept.
    pub fn merged_events(&self) -> Vec<TraceEvent> {
        let mut all = self.events.clone();
        for qt in &self.query_traces {
            all.extend(qt.events.iter().cloned());
        }
        all
    }

    /// Serialize the report (counters + per-query summaries; results and
    /// traces elided) to JSON.
    pub fn to_json(&self) -> String {
        let queries: Vec<serde_json::Value> = self
            .outcomes
            .iter()
            .map(|o| {
                serde_json::json!({
                    "id": o.id,
                    "source": o.source,
                    "arrival_s": o.arrival_s,
                    "start_s": o.start_s,
                    "completion_s": o.completion_s,
                    "wait_s": o.wait_s,
                    "disposition": o.disposition.name(),
                    "rung": o.run.as_ref().map(|r| r.report.rung.label()),
                    "error": o.error.as_ref().map(|e| e.to_string()),
                })
            })
            .collect();
        let lost: Vec<serde_json::Value> = self
            .lost_devices
            .iter()
            .map(|(d, at)| serde_json::json!({"device": d.name(), "at_s": at}))
            .collect();
        serde_json::to_string_pretty(&serde_json::json!({
            "admitted": self.admitted,
            "served": self.served,
            "degraded": self.degraded,
            "shed_overloaded": self.shed_overloaded,
            "shed_shutdown": self.shed_shutdown,
            "deadline_missed": self.deadline_missed,
            "failed": self.failed,
            "peak_queue_depth": self.peak_queue_depth,
            "peak_in_flight": self.peak_in_flight,
            "mean_queue_depth": self.mean_queue_depth,
            "mean_in_flight": self.mean_in_flight,
            "makespan_s": self.makespan_s,
            "lost_devices": lost,
            "queries": queries,
        }))
        .expect("service report serializes")
    }
}

/// One dispatch occupying a slot — a solo query or a batch —
/// already executed at its start event and held until the simulated clock
/// reaches its completion.
struct Dispatch {
    /// Outcome slots, in lane order (one for a solo query).
    slots: Vec<usize>,
    start_s: f64,
    completion_s: f64,
    /// Per-lane results, in lane order.
    results: Vec<Result<RecoveredRun, XbfsError>>,
    /// The dispatch's trace buffer.
    events: Vec<TraceEvent>,
    /// Online-policy observations the dispatch accumulated (empty when
    /// the service runs offline), applied to the master bandit at its
    /// completion event.
    observations: Vec<Observation>,
}

/// The long-running query service: one immutable graph, one platform,
/// many fault-isolated queries.
pub struct QueryService {
    csr: Arc<Csr>,
    cpu: ArchSpec,
    gpu: ArchSpec,
    link: Link,
    params: CrossParams,
    config: ServiceConfig,
    /// The master bandit (online policy only): snapshotted per query at
    /// admission, updated with each query's observations at completion.
    policy: Option<SharedPolicy>,
}

impl QueryService {
    /// A service over `csr` on an explicit platform.
    pub fn new(
        csr: Arc<Csr>,
        cpu: ArchSpec,
        gpu: ArchSpec,
        link: Link,
        params: CrossParams,
        config: ServiceConfig,
    ) -> Self {
        let policy = SharedPolicy::from_mode(config.policy);
        Self {
            csr,
            cpu,
            gpu,
            link,
            params,
            config,
            policy,
        }
    }

    /// A service on a trained runtime's platform, with switch parameters
    /// predicted from the graph's statistics.
    pub fn from_runtime(
        runtime: &AdaptiveRuntime,
        csr: Arc<Csr>,
        stats: &GraphStats,
        config: ServiceConfig,
    ) -> Self {
        let params = runtime.predict_params(stats);
        let policy = SharedPolicy::from_mode(config.policy);
        Self {
            csr,
            cpu: runtime.cpu.clone(),
            gpu: runtime.gpu.clone(),
            link: runtime.link,
            params,
            config,
            policy,
        }
    }

    /// The shared graph.
    pub fn csr(&self) -> &Arc<Csr> {
        &self.csr
    }

    /// Replay `schedule` through the service and report every query's
    /// terminal state.
    ///
    /// Items are processed in ascending simulated time (ties keep input
    /// order, completions before same-instant arrivals so a finishing
    /// query frees its slot first). Every query ends in exactly one of:
    /// a validated tree, a typed error, or a shed — a panic inside a
    /// dispatch is caught by `catch_unwind` and becomes that dispatch's
    /// [`XbfsError::KernelPanic`]. A query id that appears twice, and an
    /// arrival or drain time that is not finite or is below zero, is an
    /// [`XbfsError::InvalidArgument`] before anything is dispatched.
    pub fn run_schedule(&self, schedule: &[ScheduleItem]) -> Result<ServiceReport, XbfsError> {
        self.config.validate()?;
        let mut items: Vec<&ScheduleItem> = schedule.iter().collect();
        items.sort_by(|a, b| a.at_s().total_cmp(&b.at_s()));

        let mut report = ServiceReport {
            metrics: Metrics::windowed(self.config.snapshot, self.config.slo),
            ..ServiceReport::default()
        };
        // Pre-create outcome records for every query, in schedule order.
        // The registry matches a query's end to its admission by id, so
        // ids must be unique.
        let mut requests: Vec<&QueryRequest> = Vec::new();
        let mut ids = BTreeSet::new();
        for item in &items {
            let at_s = item.at_s();
            if !(at_s.is_finite() && at_s >= 0.0) {
                let what = match item {
                    ScheduleItem::Query(q) => format!("query {} arrives at {at_s}", q.id),
                    ScheduleItem::Drain { .. } => format!("the drain marker is at {at_s}"),
                };
                return Err(XbfsError::InvalidArgument {
                    what: format!("{what}; schedule times must be finite and >= 0"),
                });
            }
            if let ScheduleItem::Query(q) = item {
                if !ids.insert(q.id) {
                    return Err(XbfsError::InvalidArgument {
                        what: format!("query id {} appears more than once in the schedule", q.id),
                    });
                }
                requests.push(q);
                report.outcomes.push(QueryOutcome {
                    id: q.id,
                    source: q.source,
                    arrival_s: q.arrival_s,
                    start_s: None,
                    completion_s: None,
                    wait_s: 0.0,
                    disposition: Disposition::Failed,
                    error: None,
                    run: None,
                });
            }
        }

        let capacity = self.config.capacity as usize;
        let queue_limit = self.config.queue_limit as usize;
        let mut queue: VecDeque<usize> = VecDeque::new();
        let mut lost: Vec<(Device, f64)> = Vec::new();
        let mut drained_at: Option<f64> = None;
        let mut clock = 0.0f64;
        let mut running: Vec<Dispatch> = Vec::new();
        // Maps schedule position -> outcome index for query items.
        let mut query_index = 0usize;
        let mut next_item = 0usize;

        loop {
            let next_done = running
                .iter()
                .enumerate()
                .min_by(|(_, a), (_, b)| {
                    a.completion_s
                        .total_cmp(&b.completion_s)
                        .then(a.slots[0].cmp(&b.slots[0]))
                })
                .map(|(i, d)| (i, d.completion_s));
            let next_arrival = items.get(next_item).map(|it| it.at_s());

            let take_completion = match (next_done, next_arrival) {
                (None, None) => break,
                (Some(_), None) => true,
                (None, Some(_)) => false,
                // Completions fire before same-instant arrivals so the
                // freed slot is visible to the arriving query.
                (Some((_, c)), Some(a)) => c <= a,
            };

            if take_completion {
                let (idx, _) = next_done.expect("completion picked");
                let Dispatch {
                    slots,
                    start_s,
                    completion_s,
                    results,
                    events,
                    observations,
                } = running.swap_remove(idx);
                clock = clock.max(completion_s);
                // Fold the observations into the master bandit at the
                // completion *event*, in simulated order, so queries
                // admitted later deterministically see them.
                if let Some(p) = &self.policy {
                    p.apply(&observations);
                }
                let batch = slots.len() > 1;
                let lead_trace = report.query_traces.len();
                for (slot, result) in slots.into_iter().zip(results) {
                    // A lane that finished past its own deadline missed it
                    // — the batch clock is shared, the deadline check is
                    // not. A solo run already enforced its own budget.
                    let result = match (result, requests[slot].deadline_s) {
                        (Ok(run), Some(d)) if batch => {
                            let elapsed_s = completion_s - requests[slot].arrival_s;
                            if elapsed_s > d {
                                Err(XbfsError::DeadlineExceeded {
                                    budget_s: d,
                                    elapsed_s,
                                })
                            } else {
                                Ok(run)
                            }
                        }
                        (result, _) => result,
                    };
                    self.complete(
                        &mut report,
                        slot,
                        start_s,
                        completion_s,
                        result,
                        &events,
                        &mut lost,
                    );
                }
                // The lanes' `QueryEnd`s moved the window clock to the
                // completion, so the trace's corruption counts land there.
                report.metrics.fold(&events);
                // The shared trace rides the lead lane when the sample
                // keeps it; the per-lane `BatchLane` events in the service
                // stream reconcile the rest.
                if let Some(lead) = report.query_traces.get_mut(lead_trace) {
                    if self.config.trace_sample.keeps(lead.query) {
                        lead.events = events;
                    }
                }
                // The freed slot admits the longest-waiting queued
                // queries (several, if deadline sheds cascade), batched
                // up to the window when the policy allows.
                while running.len() < capacity {
                    let Some(slot) = queue.pop_front() else { break };
                    report.emit(TraceEvent::QueueDepth {
                        depth: queue.len() as u32,
                        at_s: completion_s,
                    });
                    let mut lanes = vec![slot];
                    let compat = self.config.batching.compat;
                    if self.config.batching.enabled()
                        && lost.is_empty()
                        && compat.admits(requests[slot])
                    {
                        while lanes.len() < self.config.batching.lane_limit() {
                            match queue.front() {
                                Some(&next) if compat.admits(requests[next]) => {
                                    lanes.push(queue.pop_front().expect("peeked"));
                                    report.emit(TraceEvent::QueueDepth {
                                        depth: queue.len() as u32,
                                        at_s: completion_s,
                                    });
                                }
                                _ => break,
                            }
                        }
                    }
                    running.extend(self.start(
                        &mut report,
                        &lanes,
                        &requests,
                        completion_s,
                        queue.len() as u32,
                        &lost,
                    ));
                }
                report.metrics.in_flight(completion_s, running.len() as u32);
                continue;
            }

            let item = items[next_item];
            next_item += 1;
            let at_s = item.at_s();
            clock = clock.max(at_s);
            match item {
                ScheduleItem::Drain { at_s } => {
                    drained_at = Some(*at_s);
                    if self.config.drain == DrainMode::Cancel {
                        while let Some(slot) = queue.pop_front() {
                            let depth = queue.len() as u32;
                            report.shed(slot, XbfsError::ShuttingDown, depth, *at_s);
                        }
                        report.emit(TraceEvent::QueueDepth {
                            depth: 0,
                            at_s: *at_s,
                        });
                    }
                }
                ScheduleItem::Query(q) => {
                    let slot = query_index;
                    query_index += 1;
                    if drained_at.is_some_and(|d| at_s >= d) {
                        let depth = queue.len() as u32;
                        report.shed(slot, XbfsError::ShuttingDown, depth, at_s);
                    } else if running.len() < capacity {
                        report.emit(TraceEvent::QueryAdmitted {
                            query: q.id,
                            queue_depth: 0,
                            at_s,
                        });
                        running.extend(self.start(&mut report, &[slot], &requests, at_s, 0, &lost));
                    } else if queue.len() < queue_limit {
                        queue.push_back(slot);
                        let depth = queue.len() as u32;
                        report.emit(TraceEvent::QueryAdmitted {
                            query: q.id,
                            queue_depth: depth,
                            at_s,
                        });
                        report.emit(TraceEvent::QueueDepth { depth, at_s });
                    } else {
                        let depth = queue.len() as u32;
                        let error = XbfsError::Overloaded {
                            queue_depth: depth,
                            queue_limit: self.config.queue_limit,
                        };
                        report.shed(slot, error, depth, at_s);
                    }
                }
            }
            report.metrics.in_flight(clock, running.len() as u32);
        }

        report.makespan_s = clock;
        report.lost_devices = lost;
        report.settle();
        Ok(report)
    }

    /// Start `lanes` (outcome slots, in queue order) at `now_s` as one
    /// dispatch occupying a single slot. Lanes whose deadline expired
    /// while queued are shed; the rest execute here, inline. One lane runs
    /// a [`RunSession`] with its own fault plan, the presumed-lost
    /// devices, a spill path and its remaining deadline; several run as
    /// the lanes of one [`BatchSession`] bounded only by the base
    /// deadline, and their own deadlines are settled at completion.
    #[allow(clippy::too_many_arguments)] // the full dispatch context
    fn start(
        &self,
        report: &mut ServiceReport,
        lanes: &[usize],
        requests: &[&QueryRequest],
        now_s: f64,
        queue_depth: u32,
        lost: &[(Device, f64)],
    ) -> Option<Dispatch> {
        let mut live: Vec<usize> = Vec::with_capacity(lanes.len());
        for &slot in lanes {
            let req = requests[slot];
            let wait_s = (now_s - req.arrival_s).max(0.0);
            match req.deadline_s {
                Some(d) if d - wait_s <= 0.0 => {
                    let error = XbfsError::DeadlineExceeded {
                        budget_s: d,
                        elapsed_s: wait_s,
                    };
                    report.shed(slot, error, queue_depth, now_s);
                }
                _ => live.push(slot),
            }
        }
        let lead = requests[*live.first()?];
        let batch = live.len() > 1;
        for (lane, &slot) in live.iter().enumerate() {
            let req = requests[slot];
            let wait_s = (now_s - req.arrival_s).max(0.0);
            report.emit(TraceEvent::QueryStart {
                query: req.id,
                wait_s,
                at_s: now_s,
            });
            if batch {
                report.emit(TraceEvent::BatchLane {
                    lane: lane as u32,
                    query: req.id,
                    source: req.source,
                    at_s: now_s,
                });
            }
            let o = &mut report.outcomes[slot];
            o.start_s = Some(now_s);
            o.wait_s = wait_s;
        }

        // The dispatch's one trace buffer: folded into the metrics, cut
        // for post-mortems and, when sampled, kept at completion.
        let sink = MemorySink::new();
        // The bandit state a dispatch sees is a pure function of
        // admission order.
        let cell = self
            .policy
            .as_ref()
            .map(|p| std::cell::RefCell::new(PolicyRun::new(p.snapshot())));
        let outcome = catch_unwind(AssertUnwindSafe(|| {
            if batch {
                let sources: Vec<VertexId> = live.iter().map(|&s| requests[s].source).collect();
                let mut session = BatchSession::on_platform(
                    &self.csr,
                    &self.cpu,
                    &self.gpu,
                    &self.link,
                    &self.params,
                )
                .sources(&sources)
                .window(self.config.batching.window)
                .resilience(self.config.resilience.clone())
                .sink(&sink);
                if let Some(cell) = &cell {
                    session = session.policy(cell);
                }
                session.run().map(|b| {
                    (
                        b.total_seconds,
                        b.lanes.into_iter().map(|l| l.run).collect(),
                    )
                })
            } else {
                let plan = lead.plan();
                let lost: Vec<Device> = lost.iter().map(|(d, _)| *d).collect();
                let mut session = RunSession::on_platform(
                    &self.csr,
                    &self.cpu,
                    &self.gpu,
                    &self.link,
                    &self.params,
                )
                .source(lead.source)
                .fault_plan(&plan)
                .resilience(self.solo_resilience(lead, now_s))
                .presume_lost(&lost)
                .sink(&sink);
                if let Some(cell) = &cell {
                    session = session.policy(cell);
                }
                session
                    .run()
                    .map(|run| (run.report.total_seconds, vec![run]))
            }
        }))
        .unwrap_or_else(|p| {
            Err(XbfsError::KernelPanic {
                payload: payload_to_string(&*p),
                range: None,
            })
        });
        let (duration_s, results) = match outcome {
            Ok((total_seconds, runs)) => (total_seconds, runs.into_iter().map(Ok).collect()),
            Err(e) => {
                // A deadline abort held the slot until the budget blew;
                // other terminal errors carry no clock and charge nothing.
                let elapsed_s = match &e {
                    XbfsError::DeadlineExceeded { elapsed_s, .. } => *elapsed_s,
                    _ => 0.0,
                };
                (elapsed_s, live.iter().map(|_| Err(e.clone())).collect())
            }
        };
        Some(Dispatch {
            slots: live,
            start_s: now_s,
            completion_s: now_s + duration_s,
            results,
            events: sink.take(),
            // Partial logs from failed or degraded runs still apply — the
            // levels they priced ran deterministically before the error,
            // and discarding them would make learning depend on failure
            // handling.
            observations: cell
                .map(|c| c.into_inner().take_observations())
                .unwrap_or_default(),
        })
    }

    /// The resilience config of a solo run of `req` started at `now_s`:
    /// the query's remaining deadline tightens (never loosens) the base
    /// deadline, and checkpoints spill under the service's spill
    /// directory.
    fn solo_resilience(&self, req: &QueryRequest, now_s: f64) -> ResilienceConfig {
        let mut config = self.config.resilience.clone();
        if let Some(d) = req.deadline_s {
            let remaining = d - (now_s - req.arrival_s).max(0.0);
            config.deadline_s = Some(match config.deadline_s {
                Some(base) => base.min(remaining),
                None => remaining,
            });
        }
        if let Some(dir) = &self.config.spill_dir {
            if config.checkpoint.interval_levels > 0 {
                config.checkpoint.spill = Some(format!("{dir}/query-{id}.ck.json", id = req.id));
            }
        }
        config
    }

    /// Process one completion: the outcome, the `QueryEnd` event, the
    /// post-mortem cut from the dispatch's trace `events` for typed errors,
    /// an empty kept-trace slot, and the promotion of permanent device
    /// losses to the shared ledger.
    #[allow(clippy::too_many_arguments)] // the full completion context
    fn complete(
        &self,
        report: &mut ServiceReport,
        slot: usize,
        start_s: f64,
        completion_s: f64,
        result: Result<RecoveredRun, XbfsError>,
        events: &[TraceEvent],
        lost: &mut Vec<(Device, f64)>,
    ) {
        let o = &mut report.outcomes[slot];
        o.completion_s = Some(completion_s);
        let rung = match result {
            Ok(run) => {
                // Permanent losses join the service-wide ledger *now*, in
                // completion order — queries already started keep their
                // own view, queries starting later skip the dead device.
                for t in &run.report.breaker_transitions {
                    if t.cause == TransitionCause::DeviceLost
                        && t.to == BreakerState::Open
                        && !lost.iter().any(|(d, _)| *d == t.device)
                    {
                        lost.push((t.device, start_s + t.at_s));
                    }
                }
                o.disposition = Disposition::Served {
                    degraded: run.report.rung != Rung::CrossCpuGpu,
                };
                let rung = run.report.rung.label();
                o.run = Some(run);
                rung
            }
            Err(e) => {
                o.disposition = if matches!(e, XbfsError::DeadlineExceeded { .. }) {
                    Disposition::DeadlineMissed
                } else {
                    Disposition::Failed
                };
                o.error = Some(e);
                "none"
            }
        };
        let (query, outcome) = (o.id, o.disposition.name());
        report.emit(TraceEvent::QueryEnd {
            query,
            outcome,
            rung,
            at_s: completion_s,
        });
        let o = &report.outcomes[slot];
        let capacity = self.config.flight_recorder;
        if let (Some(error), true) = (&o.error, capacity > 0) {
            let tail = &events[events.len().saturating_sub(capacity)..];
            report.postmortems.push(PostMortem {
                query,
                source: o.source,
                disposition: outcome,
                error: error.to_string(),
                start_s,
                completion_s,
                capacity,
                dropped: (events.len() - tail.len()) as u64,
                events: tail.to_vec(),
            });
        }
        if self.config.keep_query_traces {
            report.query_traces.push(QueryTrace {
                query,
                start_s,
                events: Vec::new(),
            });
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::training::pick_source;
    use xbfs_engine::{validate, FixedMN};

    fn service(config: ServiceConfig) -> (QueryService, u32) {
        let g = Arc::new(xbfs_graph::rmat::rmat_csr(9, 16));
        let src = pick_source(&g, 3).unwrap();
        let params = CrossParams {
            handoff: FixedMN::new(64.0, 64.0),
            gpu: FixedMN::new(14.0, 24.0),
        };
        (
            QueryService::new(
                g,
                ArchSpec::cpu_sandy_bridge(),
                ArchSpec::gpu_k20x(),
                Link::pcie3(),
                params,
                config,
            ),
            src,
        )
    }

    #[test]
    fn healthy_queries_serve_and_validate() {
        let (svc, src) = service(ServiceConfig::default());
        let schedule = vec![
            ScheduleItem::Query(QueryRequest::builder(0, src).arrival(0.0).build()),
            ScheduleItem::Query(QueryRequest::builder(1, src).arrival(0.0).build()),
        ];
        let report = svc.run_schedule(&schedule).expect("schedule");
        assert_eq!(report.admitted, 2);
        assert_eq!(report.served, 2);
        for o in &report.outcomes {
            let run = o.run.as_ref().expect("served run");
            assert_eq!(validate(svc.csr(), &run.output), Ok(()));
        }
        assert!(report.makespan_s > 0.0);
    }

    #[test]
    fn overload_sheds_with_queue_context() {
        let (svc, src) = service(ServiceConfig {
            capacity: 1,
            queue_limit: 1,
            ..ServiceConfig::default()
        });
        let schedule: Vec<ScheduleItem> = (0..3)
            .map(|i| ScheduleItem::Query(QueryRequest::builder(i, src).arrival(0.0).build()))
            .collect();
        let report = svc.run_schedule(&schedule).expect("schedule");
        assert_eq!(report.admitted, 2);
        assert_eq!(report.shed_overloaded, 1);
        assert_eq!(report.served, 2, "queued query runs after the first");
        let shed = report.outcome(2).expect("third query");
        assert_eq!(shed.disposition, Disposition::ShedOverloaded);
        assert_eq!(
            shed.error,
            Some(XbfsError::Overloaded {
                queue_depth: 1,
                queue_limit: 1
            })
        );
    }

    #[test]
    fn queued_deadline_expiry_sheds_without_running() {
        let (svc, src) = service(ServiceConfig {
            capacity: 1,
            queue_limit: 4,
            ..ServiceConfig::default()
        });
        // Query 1 waits behind query 0 (which takes ~ms of simulated
        // time); an absurdly tight deadline expires in the queue.
        let mut tight = QueryRequest::builder(1, src).arrival(0.0).build();
        tight.deadline_s = Some(1e-9);
        let schedule = vec![
            ScheduleItem::Query(QueryRequest::builder(0, src).arrival(0.0).build()),
            ScheduleItem::Query(tight),
        ];
        let report = svc.run_schedule(&schedule).expect("schedule");
        let shed = report.outcome(1).expect("tight query");
        assert_eq!(shed.disposition, Disposition::DeadlineMissed);
        assert!(shed.start_s.is_none(), "never ran");
        assert!(matches!(
            shed.error,
            Some(XbfsError::DeadlineExceeded { .. })
        ));
        assert_eq!(report.deadline_missed, 1);
    }

    #[test]
    fn drain_refuses_later_arrivals() {
        let (svc, src) = service(ServiceConfig::default());
        let schedule = vec![
            ScheduleItem::Query(QueryRequest::builder(0, src).arrival(0.0).build()),
            ScheduleItem::Drain { at_s: 0.5 },
            ScheduleItem::Query(QueryRequest::builder(1, src).arrival(1.0).build()),
        ];
        let report = svc.run_schedule(&schedule).expect("schedule");
        assert_eq!(report.served, 1);
        assert_eq!(report.shed_shutdown, 1);
        let refused = report.outcome(1).expect("late query");
        assert_eq!(refused.disposition, Disposition::ShedShutdown);
        assert_eq!(refused.error, Some(XbfsError::ShuttingDown));
    }

    #[test]
    fn schedule_replays_deterministically() {
        let (svc, src) = service(ServiceConfig {
            capacity: 2,
            queue_limit: 2,
            keep_query_traces: true,
            ..ServiceConfig::default()
        });
        let schedule: Vec<ScheduleItem> = (0..6)
            .map(|i| {
                ScheduleItem::Query(
                    QueryRequest::builder(i, src)
                        .arrival(1e-4 * i as f64)
                        .build(),
                )
            })
            .collect();
        let a = svc.run_schedule(&schedule).expect("first replay");
        let b = svc.run_schedule(&schedule).expect("second replay");
        assert_eq!(a.to_json(), b.to_json());
        assert_eq!(a.events, b.events);
    }

    #[test]
    fn request_json_lines_round_trip() {
        let req = QueryRequest::builder(7, 3)
            .arrival(0.25)
            .deadline(2.0)
            .build();
        assert_eq!(
            ScheduleItem::from_json_line(
                r#"{"id":7,"source":3,"arrival_s":0.25,"deadline_s":2.0,"fault_plan":null}"#
            )
            .unwrap(),
            ScheduleItem::Query(req)
        );
        assert_eq!(
            ScheduleItem::from_json_line(r#"{"drain_at_s":1.5}"#).unwrap(),
            ScheduleItem::Drain { at_s: 1.5 }
        );

        // Minimal request line: optional fields default.
        let parsed =
            ScheduleItem::from_json_line(r#"{"id":1,"source":0,"arrival_s":0.0}"#).unwrap();
        match parsed {
            ScheduleItem::Query(q) => {
                assert_eq!(q.deadline_s, None);
                assert_eq!(q.fault_plan, None);
                assert_eq!(q.plan(), FaultPlan::none());
            }
            other => panic!("unexpected item {other:?}"),
        }

        assert!(ScheduleItem::from_json_line("not json").is_err());
    }

    #[test]
    fn zero_capacity_is_a_typed_error() {
        let (svc, src) = service(ServiceConfig {
            capacity: 0,
            ..ServiceConfig::default()
        });
        let schedule = vec![ScheduleItem::Query(
            QueryRequest::builder(0, src).arrival(0.0).build(),
        )];
        assert!(matches!(
            svc.run_schedule(&schedule),
            Err(XbfsError::InvalidArgument { .. })
        ));
    }

    #[test]
    fn repeated_query_ids_are_a_typed_error() {
        let (svc, src) = service(ServiceConfig::default());
        let schedule: Vec<ScheduleItem> = [0, 1, 0]
            .into_iter()
            .map(|id| ScheduleItem::Query(QueryRequest::builder(id, src).build()))
            .collect();
        assert!(matches!(
            svc.run_schedule(&schedule),
            Err(XbfsError::InvalidArgument { what }) if what.contains("query id 0")
        ));
    }

    #[test]
    fn schedule_times_must_be_finite_and_non_negative() {
        let (svc, src) = service(ServiceConfig::default());
        let query =
            |at_s: f64| ScheduleItem::Query(QueryRequest::builder(1, src).arrival(at_s).build());
        for bad in [f64::NAN, f64::INFINITY, f64::NEG_INFINITY, -5.0] {
            let err = svc.run_schedule(&[query(bad)]).unwrap_err();
            assert!(
                matches!(&err, XbfsError::InvalidArgument { what } if what.contains("query 1 arrives")),
                "arrival {bad}: {err}"
            );
            let err = svc
                .run_schedule(&[query(0.0), ScheduleItem::Drain { at_s: bad }])
                .unwrap_err();
            assert!(
                matches!(&err, XbfsError::InvalidArgument { what } if what.contains("drain marker")),
                "drain {bad}: {err}"
            );
        }
        let report = svc
            .run_schedule(&[query(0.0), ScheduleItem::Drain { at_s: 0.0 }])
            .expect("time 0 is a valid arrival and drain");
        assert_eq!(report.outcomes.len(), 1);
    }

    /// A same-instant burst: one query takes the single slot, the rest
    /// queue behind it (or shed when the queue is full).
    fn burst(src: u32, n: u64) -> Vec<ScheduleItem> {
        (0..n)
            .map(|i| ScheduleItem::Query(QueryRequest::builder(i, src).arrival(0.0).build()))
            .collect()
    }

    #[test]
    fn batched_burst_beats_unbatched_with_identical_shed_outcomes() {
        let base = ServiceConfig {
            capacity: 1,
            queue_limit: 4,
            ..ServiceConfig::default()
        };
        let batched_cfg = ServiceConfig {
            batching: BatchPolicy::windowed(8),
            ..base.clone()
        };
        // 8 arrivals, 1 slot, queue of 4: three shed overloaded either way.
        let (svc, src) = service(base);
        let schedule = burst(src, 8);
        let plain = svc.run_schedule(&schedule).expect("unbatched");
        let (svc, _) = service(batched_cfg);
        let batched = svc.run_schedule(&schedule).expect("batched");

        for (p, b) in plain.outcomes.iter().zip(&batched.outcomes) {
            assert_eq!(p.id, b.id);
            assert_eq!(
                p.disposition, b.disposition,
                "batching must not change query {}'s terminal state",
                p.id
            );
        }
        assert_eq!(plain.shed_overloaded, 3);
        assert_eq!(batched.shed_overloaded, 3);
        assert_eq!(batched.served, 5);
        assert!(
            batched.makespan_s < plain.makespan_s,
            "batched burst {} s must beat unbatched {} s",
            batched.makespan_s,
            plain.makespan_s
        );
        for o in &batched.outcomes {
            if let Some(run) = &o.run {
                assert_eq!(validate(svc.csr(), &run.output), Ok(()));
            }
        }
    }

    #[test]
    fn batch_lane_events_reconcile_queries() {
        let (svc, src) = service(ServiceConfig {
            capacity: 1,
            queue_limit: 8,
            keep_query_traces: true,
            batching: BatchPolicy::windowed(4),
            ..ServiceConfig::default()
        });
        let report = svc.run_schedule(&burst(src, 5)).expect("batched burst");
        assert_eq!(report.served, 5);
        // Queries 1..=4 queued behind query 0 and rode one batch: one
        // BatchLane reconciliation event each in the service stream.
        let lanes: Vec<(u32, u64)> = report
            .events
            .iter()
            .filter_map(|e| match e {
                TraceEvent::BatchLane { lane, query, .. } => Some((*lane, *query)),
                _ => None,
            })
            .collect();
        assert_eq!(lanes, vec![(0, 1), (1, 2), (2, 3), (3, 4)]);
        // The shared batch trace rides the lead lane's query trace.
        let lead = report
            .query_traces
            .iter()
            .find(|t| t.query == 1)
            .expect("lead lane trace");
        assert!(lead
            .events
            .iter()
            .any(|e| matches!(e, TraceEvent::BatchBegin { lanes: 4, .. })));
        assert!(lead
            .events
            .iter()
            .any(|e| matches!(e, TraceEvent::BatchEnd { .. })));
    }

    #[test]
    fn batch_settles_each_lanes_deadline_separately() {
        let base = ServiceConfig {
            capacity: 1,
            queue_limit: 8,
            ..ServiceConfig::default()
        };
        // Measure one solo traversal to calibrate the tight deadline.
        let (svc, src) = service(base.clone());
        let solo = svc.run_schedule(&burst(src, 1)).expect("calibration");
        let solo_s = solo.outcome(0).unwrap().completion_s.unwrap();

        // Query 1's deadline survives the queue wait (~solo_s) but not the
        // batch completion; query 2 has no deadline and is served.
        let tight = QueryRequest::builder(1, src).deadline(solo_s * 1.2).build();
        let schedule = vec![
            ScheduleItem::Query(QueryRequest::builder(0, src).arrival(0.0).build()),
            ScheduleItem::Query(tight),
            ScheduleItem::Query(QueryRequest::builder(2, src).arrival(0.0).build()),
        ];
        let (svc, _) = service(ServiceConfig {
            batching: BatchPolicy::windowed(4),
            ..base
        });
        let report = svc.run_schedule(&schedule).expect("batched schedule");
        let missed = report.outcome(1).expect("tight lane");
        assert_eq!(missed.disposition, Disposition::DeadlineMissed);
        assert!(missed.start_s.is_some(), "the lane ran inside the batch");
        assert!(matches!(
            missed.error,
            Some(XbfsError::DeadlineExceeded { .. })
        ));
        let served = report.outcome(2).expect("free lane");
        assert_eq!(served.disposition, Disposition::Served { degraded: false });
        assert_eq!(report.deadline_missed, 1);
    }

    /// A completion landing exactly on the deadline instant is MET on both
    /// the solo path (recovery's budget check) and the batch-lane
    /// settlement — both compare strictly (`elapsed > deadline`), so the
    /// boundary tie-breaks identically no matter which path served the
    /// query.
    #[test]
    fn deadline_boundary_instant_is_met_on_solo_and_batch_paths() {
        let base = ServiceConfig {
            capacity: 1,
            queue_limit: 8,
            ..ServiceConfig::default()
        };

        // Calibrate the exact solo completion instant.
        let (svc, src) = service(base.clone());
        let solo = svc.run_schedule(&burst(src, 1)).expect("calibration");
        let solo_s = solo.outcome(0).unwrap().completion_s.unwrap();

        let (svc, _) = service(base.clone());
        let exact = vec![ScheduleItem::Query(
            QueryRequest::builder(0, src).deadline(solo_s).build(),
        )];
        let report = svc.run_schedule(&exact).expect("solo boundary");
        assert_eq!(
            report.outcome(0).unwrap().disposition,
            Disposition::Served { degraded: false },
            "solo: elapsed == deadline is MET"
        );

        // One part in 1e12 tighter and the same query misses.
        let (svc, _) = service(base.clone());
        let tight = vec![ScheduleItem::Query(
            QueryRequest::builder(0, src)
                .deadline(solo_s * (1.0 - 1e-12))
                .build(),
        )];
        let report = svc.run_schedule(&tight).expect("solo tight");
        assert_eq!(
            report.outcome(0).unwrap().disposition,
            Disposition::DeadlineMissed
        );

        // Batch path: calibrate the shared completion instant of the batch
        // riding behind a solo query, then pin the same boundary. Per-lane
        // deadlines never bound the batch run itself, so the calibration
        // schedule completes at the identical instant.
        let batched = ServiceConfig {
            batching: BatchPolicy::windowed(4),
            ..base
        };
        let schedule = |deadline: Option<f64>| {
            let mut q1 = QueryRequest::builder(1, src).arrival(0.0).build();
            q1.deadline_s = deadline;
            vec![
                ScheduleItem::Query(QueryRequest::builder(0, src).arrival(0.0).build()),
                ScheduleItem::Query(q1),
                ScheduleItem::Query(QueryRequest::builder(2, src).arrival(0.0).build()),
            ]
        };
        let (svc, _) = service(batched.clone());
        let cal = svc
            .run_schedule(&schedule(None))
            .expect("batch calibration");
        let batch_done_s = cal.outcome(1).unwrap().completion_s.unwrap();

        let (svc, _) = service(batched.clone());
        let report = svc
            .run_schedule(&schedule(Some(batch_done_s)))
            .expect("batch boundary");
        let lane = report.outcome(1).expect("boundary lane");
        assert!(lane.start_s.is_some(), "the lane ran inside the batch");
        assert_eq!(
            lane.disposition,
            Disposition::Served { degraded: false },
            "batch lane: elapsed == deadline is MET, matching the solo path"
        );

        let (svc, _) = service(batched);
        let report = svc
            .run_schedule(&schedule(Some(batch_done_s * (1.0 - 1e-12))))
            .expect("batch tight");
        assert_eq!(
            report.outcome(1).unwrap().disposition,
            Disposition::DeadlineMissed
        );
    }

    #[test]
    fn faulty_queries_never_join_a_batch() {
        let (svc, src) = service(ServiceConfig {
            capacity: 1,
            queue_limit: 8,
            batching: BatchPolicy::windowed(4),
            ..ServiceConfig::default()
        });
        let faulty = QueryRequest::builder(1, src)
            .fault_plan(FaultPlan::none())
            .build();
        let schedule = vec![
            ScheduleItem::Query(QueryRequest::builder(0, src).arrival(0.0).build()),
            ScheduleItem::Query(faulty),
            ScheduleItem::Query(QueryRequest::builder(2, src).arrival(0.0).build()),
            ScheduleItem::Query(QueryRequest::builder(3, src).arrival(0.0).build()),
        ];
        let report = svc.run_schedule(&schedule).expect("schedule");
        assert_eq!(report.served, 4);
        // The fault-carrying query at the queue front ran solo; only the
        // two behind it shared a batch.
        let lanes: Vec<u64> = report
            .events
            .iter()
            .filter_map(|e| match e {
                TraceEvent::BatchLane { query, .. } => Some(*query),
                _ => None,
            })
            .collect();
        assert_eq!(lanes, vec![2, 3]);
    }

    #[test]
    fn oversized_batch_lanes_is_a_typed_error() {
        let (svc, src) = service(ServiceConfig {
            batching: BatchPolicy {
                window: 4,
                max_lanes: 65,
                compat: BatchCompat::FaultFree,
            },
            ..ServiceConfig::default()
        });
        let schedule = vec![ScheduleItem::Query(
            QueryRequest::builder(0, src).arrival(0.0).build(),
        )];
        assert!(matches!(
            svc.run_schedule(&schedule),
            Err(XbfsError::InvalidArgument { .. })
        ));
    }

    #[test]
    fn telemetry_means_match_a_hand_computed_schedule() {
        // Queue: 0 on [0,1), 2 on [1,3), 1 on [3,4), 0 on [4,5] →
        // area 5 over span 5 → mean 1.0. In-flight: 1 on [0,2), 2 on
        // [2,5] → area 8 over 5 → mean 1.6.
        let mut report = ServiceReport {
            makespan_s: 5.0,
            ..ServiceReport::default()
        };
        for (depth, at_s) in [(2, 1.0), (1, 3.0), (0, 4.0)] {
            report.emit(TraceEvent::QueueDepth { depth, at_s });
        }
        report.metrics.in_flight(0.0, 1);
        report.metrics.in_flight(2.0, 2);
        report.settle();
        assert_eq!(report.mean_queue_depth, 1.0);
        assert_eq!(report.mean_in_flight, 1.6);
    }

    #[test]
    fn telemetry_defaults_stay_off_and_means_are_recorded() {
        let (svc, src) = service(ServiceConfig {
            capacity: 1,
            queue_limit: 4,
            ..ServiceConfig::default()
        });
        let schedule: Vec<ScheduleItem> = (0..3)
            .map(|i| ScheduleItem::Query(QueryRequest::builder(i, src).arrival(0.0).build()))
            .collect();
        let report = svc.run_schedule(&schedule).expect("schedule");
        // Off by default: no windows, no SLO verdict, no dumps.
        assert!(report.timeseries.is_empty());
        assert!(report.slo.is_none());
        assert!(report.postmortems.is_empty());
        // The always-on gauges still integrate: one slot busy the whole
        // makespan, a queue that drains as slots free.
        assert!(report.mean_in_flight > 0.0);
        assert!(report.mean_in_flight <= 1.0);
        assert!(report.mean_queue_depth > 0.0);
        assert!(f64::from(report.peak_queue_depth) >= report.mean_queue_depth);
    }

    #[test]
    fn snapshot_windows_replay_byte_identically_and_reconcile_with_the_report() {
        let config = ServiceConfig {
            capacity: 1,
            queue_limit: 8,
            snapshot: SnapshotPolicy::every(0.001),
            slo: Some(SloPolicy {
                deadline_hit_ratio: 0.5,
                latency_objective_s: 0.002,
                latency_hit_ratio: 0.5,
            }),
            ..ServiceConfig::default()
        };
        let run = || {
            let (svc, src) = service(config.clone());
            let schedule: Vec<ScheduleItem> = (0..6)
                .map(|i| {
                    ScheduleItem::Query(
                        QueryRequest::builder(i, src)
                            .arrival(i as f64 * 1e-4)
                            .build(),
                    )
                })
                .collect();
            svc.run_schedule(&schedule).expect("schedule")
        };
        let a = run();
        let b = run();
        assert!(!a.timeseries.is_empty(), "windows were closed");
        let slo_a = a.slo.as_ref().expect("slo evaluated");
        let lines_a =
            crate::observe::timeseries::timeseries_json_lines(&a.timeseries, a.slo.as_ref());
        let lines_b =
            crate::observe::timeseries::timeseries_json_lines(&b.timeseries, b.slo.as_ref());
        assert_eq!(lines_a, lines_b, "telemetry replays byte-for-byte");
        // Window totals reconcile with the report's counters.
        let admitted: u64 = a.timeseries.iter().map(|w| w.admitted).sum();
        let completed: u64 = a.timeseries.iter().map(|w| w.completed).sum();
        assert_eq!(admitted, u64::from(a.admitted));
        assert_eq!(
            completed,
            u64::from(a.served + a.degraded + a.failed) + u64::from(a.deadline_missed)
                - a.timeseries.iter().map(|w| w.deadline_shed).sum::<u64>()
        );
        assert_eq!(slo_a.latency_eligible, completed);
    }

    #[test]
    fn flight_recorder_dump_reconciles_with_the_kept_trace() {
        // A deadline that lets the query start but expire mid-run gives a
        // deterministic typed error with a real event stream behind it.
        let config = ServiceConfig {
            capacity: 1,
            keep_query_traces: true,
            flight_recorder: 4096,
            ..ServiceConfig::default()
        };
        let (svc, src) = service(config);
        let schedule = vec![ScheduleItem::Query(
            QueryRequest::builder(0, src)
                .arrival(0.0)
                .deadline(1e-7)
                .build(),
        )];
        let report = svc.run_schedule(&schedule).expect("schedule");
        assert_eq!(report.deadline_missed, 1);
        let pm = report.postmortems.first().expect("post-mortem attached");
        assert_eq!(pm.query, 0);
        assert_eq!(pm.disposition, "deadline-missed");
        assert_eq!(pm.capacity, 4096);
        // Capacity exceeded nothing, so the dump IS the query's trace.
        assert_eq!(pm.dropped, 0);
        let qt = &report.query_traces[0];
        assert_eq!(pm.events, qt.events);
        assert!(!pm.events.is_empty());
        // The JSON artifact round-trips through serde_json.
        let v: serde_json::Value = serde_json::from_str(&pm.to_json()).expect("valid json");
        assert_eq!(v["query"], 0);
        assert_eq!(v["events"].as_array().unwrap().len(), pm.events.len());

        // A small recorder keeps exactly the trace's tail.
        let (svc, src) = service(ServiceConfig {
            capacity: 1,
            keep_query_traces: true,
            flight_recorder: 4,
            ..ServiceConfig::default()
        });
        let schedule = vec![ScheduleItem::Query(
            QueryRequest::builder(0, src)
                .arrival(0.0)
                .deadline(1e-7)
                .build(),
        )];
        let report = svc.run_schedule(&schedule).expect("schedule");
        let pm = report.postmortems.first().expect("post-mortem attached");
        let qt = &report.query_traces[0];
        assert_eq!(pm.events.len(), 4.min(qt.events.len()));
        assert_eq!(pm.dropped, qt.events.len() as u64 - pm.events.len() as u64);
        assert_eq!(
            pm.events[..],
            qt.events[qt.events.len() - pm.events.len()..]
        );
    }

    #[test]
    fn trace_sampling_is_deterministic_and_served_queries_get_no_dump() {
        let config = ServiceConfig {
            capacity: 1,
            queue_limit: 8,
            keep_query_traces: true,
            flight_recorder: 16,
            trace_sample: TraceSamplePolicy { rate: 0.5, seed: 7 },
            ..ServiceConfig::default()
        };
        let run = || {
            let (svc, src) = service(config.clone());
            let schedule: Vec<ScheduleItem> = (0..8)
                .map(|i| ScheduleItem::Query(QueryRequest::builder(i, src).arrival(0.0).build()))
                .collect();
            svc.run_schedule(&schedule).expect("schedule")
        };
        let a = run();
        let b = run();
        // Served queries never produce post-mortems, even with the
        // recorder on.
        assert_eq!(a.served + a.degraded, 8);
        assert!(a.postmortems.is_empty());
        // Sampling kept a strict subset, decided identically on replay.
        let kept = |r: &ServiceReport| -> Vec<u64> {
            r.query_traces
                .iter()
                .filter(|t| !t.events.is_empty())
                .map(|t| t.query)
                .collect()
        };
        assert_eq!(kept(&a), kept(&b), "keep/drop decisions replay");
        assert!(kept(&a).len() < 8, "rate 0.5 drops someone in 8 queries");
        let expected: Vec<u64> = (0..8).filter(|&id| config.trace_sample.keeps(id)).collect();
        assert_eq!(kept(&a), expected, "decision matches the seeded hash");
    }

    fn keeps(seed: u64, query: u64, rate: f64) -> bool {
        TraceSamplePolicy { rate, seed }.keeps(query)
    }

    #[test]
    fn sampling_decision_is_seeded_and_stable() {
        // Extremes are unconditional.
        assert!(keeps(7, 3, 1.0));
        assert!(!keeps(7, 3, 0.0));
        // The per-query decision is a pure function of (seed, query,
        // rate): recomputing never flips it.
        for query in 0..64u64 {
            assert_eq!(keeps(42, query, 0.25), keeps(42, query, 0.25));
        }
        // A 25% rate over many queries keeps a minority but not none —
        // the hash spreads queries across the unit interval.
        let kept = (0..1000u64).filter(|&q| keeps(42, q, 0.25)).count();
        assert!((100..500).contains(&kept), "kept {kept} of 1000 at 25%");
        // Different seeds sample different subsets.
        let other = (0..1000u64).filter(|&q| keeps(43, q, 0.25)).count();
        let overlap = (0..1000u64)
            .filter(|&q| keeps(42, q, 0.25) && keeps(43, q, 0.25))
            .count();
        assert!(overlap < kept.min(other), "seeds 42/43 sampled identically");
    }

    /// The rate extremes are decided before any hashing: 0.0 keeps no
    /// query and 1.0 keeps every query for *any* `(seed, query)` pair —
    /// including ones whose hash would land arbitrarily close to the
    /// boundary — and out-of-range rates clamp to the same answers.
    #[test]
    fn sampling_extremes_are_hash_independent() {
        for seed in [0u64, 1, 7, 42, u64::MAX] {
            for query in [0u64, 1, 12345, u64::MAX - 1, u64::MAX] {
                assert!(
                    keeps(seed, query, 1.0),
                    "rate 1.0 must keep ({seed}, {query})"
                );
                assert!(
                    !keeps(seed, query, 0.0),
                    "rate 0.0 must drop ({seed}, {query})"
                );
                // Beyond the valid range, the clamp still decides without
                // consulting the hash.
                assert!(keeps(seed, query, 2.0));
                assert!(!keeps(seed, query, -1.0));
            }
        }
    }

    /// A seeded mixed schedule: solo queries with chaos plans, the
    /// committed bit-flip plans and tight deadlines among fault-free ones
    /// that batch behind them.
    fn mixed_schedule(src: u32, other: u32, seed: u64, n: u64) -> Vec<ScheduleItem> {
        let flip = |json: &str| FaultPlan::from_json(json).expect("committed plan parses");
        let frontier_flip = flip(include_str!(
            "../../../tests/chaos/13-bitflip-frontier.json"
        ));
        let storm = flip(include_str!(
            "../../../tests/chaos/14-bitflip-storm-with-device-loss.json"
        ));
        (0..n)
            .map(|i| {
                let mut req = QueryRequest::builder(i, if i % 2 == 0 { src } else { other })
                    .arrival(2e-4 * (i / 3) as f64)
                    .build();
                match (seed.wrapping_add(i)) % 7 {
                    0 => {
                        req.fault_plan = Some(FaultPlan {
                            seed: seed ^ i,
                            p_transfer_failure: 0.3,
                            p_link_stall: 0.2,
                            stall_factor: 4.0,
                            p_kernel_timeout: 0.15,
                            p_device_lost: 0.2,
                            scheduled: Vec::new(),
                        })
                    }
                    1 => req.deadline_s = Some(2e-4),
                    2 => req.deadline_s = Some(2e-5),
                    3 => req.fault_plan = Some(frontier_flip.clone()),
                    4 => req.fault_plan = Some(storm.clone()),
                    _ => {}
                }
                ScheduleItem::Query(req)
            })
            .collect()
    }

    /// The sum of every sample of counter family `name` in an exposition.
    fn family_total(text: &str, name: &str) -> u64 {
        text.lines()
            .filter(|l| l.starts_with(&format!("{name} ")) || l.starts_with(&format!("{name}{{")))
            .map(|l| {
                l.rsplit_once(' ')
                    .expect("sample")
                    .1
                    .parse::<f64>()
                    .expect("value") as u64
            })
            .sum()
    }

    /// The windows' sums equal the registry's families (as rendered in
    /// `text`) and the report's counters.
    fn assert_one_account(
        report: &ServiceReport,
        text: &str,
    ) -> Result<(), proptest::test_runner::TestCaseError> {
        let sum = |f: fn(&WindowSnapshot) -> u64| report.timeseries.iter().map(f).sum::<u64>();
        let shed = |reason| u64::from(report.metrics.shed(reason));
        let deadline_shed = sum(|w| w.deadline_shed);
        proptest::prop_assert_eq!(deadline_shed, shed("deadline"));

        let admitted = sum(|w| w.admitted);
        proptest::prop_assert_eq!(admitted, family_total(text, "xbfs_service_admitted_total"));
        proptest::prop_assert_eq!(admitted, u64::from(report.admitted));

        let shed_total = sum(|w| w.shed);
        proptest::prop_assert_eq!(shed_total, family_total(text, "xbfs_service_shed_total"));
        proptest::prop_assert_eq!(
            shed_total,
            u64::from(report.shed_overloaded + report.shed_shutdown) + deadline_shed
        );

        let completed = sum(|w| w.completed);
        proptest::prop_assert_eq!(completed, family_total(text, "xbfs_service_queries_total"));
        proptest::prop_assert_eq!(
            completed + deadline_shed,
            u64::from(report.served + report.degraded + report.failed + report.deadline_missed)
        );

        let deadline_missed = sum(|w| w.deadline_missed);
        proptest::prop_assert_eq!(deadline_missed, u64::from(report.deadline_missed));
        proptest::prop_assert_eq!(
            deadline_missed,
            u64::from(report.metrics.queries("deadline-missed")) + deadline_shed
        );

        let batch_lanes = sum(|w| w.batch_lanes);
        proptest::prop_assert_eq!(
            batch_lanes,
            family_total(text, "xbfs_batch_lane_queries_total")
        );
        proptest::prop_assert_eq!(batch_lanes, family_total(text, "xbfs_batch_lanes_total"));

        let (detected, repaired) = report.metrics.corruption();
        proptest::prop_assert_eq!(sum(|w| w.corruption_detected), u64::from(detected));
        proptest::prop_assert_eq!(
            u64::from(detected),
            family_total(text, "xbfs_corruption_detected_total")
        );
        proptest::prop_assert_eq!(sum(|w| w.corruption_repaired), u64::from(repaired));
        proptest::prop_assert_eq!(
            u64::from(repaired),
            family_total(text, "xbfs_corruption_repairs_total")
        );
        Ok(())
    }

    proptest::proptest! {
        #![proptest_config(proptest::prelude::ProptestConfig::with_cases(12))]

        /// The metrics count every dispatch: whether traces are kept, how
        /// they are sampled and whether the flight recorder cuts dumps
        /// never moves a byte of the exposition or of the telemetry
        /// windows, and with every trace kept the exposition equals the one
        /// folded from the merged events. The windows, the registry's
        /// families and the report's counters are one account: their sums
        /// agree.
        #[test]
        fn metrics_never_depend_on_kept_traces(
            seed in 0u64..1024,
            n in 4u64..10,
            window in 0u32..2,
        ) {
            let g = Arc::new(xbfs_graph::rmat::rmat_csr(9, 16));
            let (src, other) = (pick_source(&g, 3).unwrap(), pick_source(&g, 7).unwrap());
            let schedule = mixed_schedule(src, other, seed, n);
            let mut rendered: Option<(String, String)> = None;
            for keep in [false, true] {
                for rate in [0.0, 0.1, 1.0] {
                    for recorder in [0usize, 16] {
                        let (svc, _) = service(ServiceConfig {
                            capacity: 2,
                            queue_limit: 16,
                            resilience: ResilienceConfig {
                                scrub: xbfs_engine::ScrubPolicy::every_level(),
                                checksum_transfers: true,
                                ..ResilienceConfig::default_runtime()
                            },
                            keep_query_traces: keep,
                            batching: BatchPolicy::windowed(4 * window),
                            snapshot: SnapshotPolicy::every(2e-4),
                            slo: Some(SloPolicy::default()),
                            flight_recorder: recorder,
                            trace_sample: TraceSamplePolicy { rate, seed },
                            ..ServiceConfig::default()
                        });
                        let report = svc.run_schedule(&schedule).expect("schedule");
                        let text = report.metrics.render();
                        proptest::prop_assert!(text.contains("xbfs_service_queries_total"));
                        if keep && rate == 1.0 {
                            proptest::prop_assert_eq!(
                                &text,
                                &crate::observe::prometheus_text(&report.merged_events())
                            );
                        }
                        assert_one_account(&report, &text)?;
                        let lines = crate::observe::timeseries::timeseries_json_lines(
                            &report.timeseries,
                            report.slo.as_ref(),
                        );
                        match &rendered {
                            None => rendered = Some((text, lines)),
                            Some((first, first_lines)) => {
                                proptest::prop_assert_eq!(first, &text);
                                proptest::prop_assert_eq!(first_lines, &lines);
                            }
                        }
                    }
                }
            }
        }
    }
}
