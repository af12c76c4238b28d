//! One-line import for the common way in: `use xbfs_core::prelude::*;`.
//!
//! Re-exports the [`RunSession`] entry point with everything needed to
//! configure it (resilience, checkpoints, fault plans, trace sinks), the
//! result types it produces, and the exporters that turn a recorded trace
//! into chrome://tracing JSON or Prometheus text.

pub use crate::audit::{decision_audit, DecisionAudit, LevelAttribution, PhaseSeconds};
pub use crate::checkpoint::{CheckpointPolicy, LevelCheckpoint, Residency};
pub use crate::cross::CrossParams;
pub use crate::health::{BreakerState, BreakerTransition, Device};
pub use crate::observe::timeseries::{
    prometheus_slo_text, timeseries_json_lines, QuantileSummary, SloPolicy, SloReport,
    SnapshotPolicy, TimeWeighted, WindowSnapshot,
};
pub use crate::observe::{
    chrome_trace_json, prometheus_text, service_chrome_trace_json, trace_event_json, Histogram,
    Metrics,
};
pub use crate::recovery::{RecoveredRun, ResilienceConfig, ResumeRecord, RunReport, Rung};
pub use crate::runtime::AdaptiveRuntime;
pub use crate::service::{
    BatchCompat, BatchPolicy, Disposition, DrainMode, PostMortem, QueryRequest,
    QueryRequestBuilder, QueryService, ScheduleItem, ServiceConfig, ServiceReport,
    TraceSamplePolicy,
};
pub use crate::session::{BatchRun, BatchSession, LaneRun, RunSession};
pub use crate::training::TrainingConfig;
pub use xbfs_archsim::{ArchSpec, FaultPlan, Link};
pub use xbfs_engine::trace::{MemorySink, NullSink, TraceEvent, TraceSink, NULL_SINK};
pub use xbfs_engine::XbfsError;
