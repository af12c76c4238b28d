//! The paper's contribution: adaptive, regression-predicted switch points
//! and the cross-architecture top-down/bottom-up combination.
//!
//! You et al. (ICPP'14) make two moves on top of Beamer-style
//! direction-optimizing BFS:
//!
//! 1. **Adaptive switching** (§III) — instead of hand-tuning the `(M, N)`
//!    thresholds per graph and platform by trial-and-error, train an SVM
//!    regression offline on (graph features, architecture features) → best
//!    switching point, and predict at runtime with negligible overhead.
//!    Implemented by [`features`] (the Fig. 7 sample layout), [`training`]
//!    (Fig. 6's exhaustive-search labeling), [`predictor`] (the online
//!    model) and [`strategies`] (the Fig. 8 evaluation harness).
//! 2. **Cross-architecture combination** (§IV) — run top-down on the CPU
//!    for the tiny early frontiers, hand off to the GPU for bottom-up in
//!    the middle, and *stay* on the GPU switching back to top-down for the
//!    tail (Algorithm 3, `CPUTD+GPUCB`). Implemented by [`cross`], with
//!    single-device combinations in [`combination`] and exhaustive-search
//!    oracles in [`oracle`].
//!
//! Everything executes the real BFS via `xbfs-engine` and charges simulated
//! time via `xbfs-archsim` (see DESIGN.md for the hardware substitution).
//! The one-stop entry point is [`runtime::AdaptiveRuntime`].

pub mod ablation;
pub mod audit;
pub mod checkpoint;
pub mod combination;
pub mod cross;
pub mod features;
pub mod graph500;
pub mod health;
pub mod observe;
pub mod oracle;
pub mod policy_online;
pub mod predictor;
pub mod prelude;
pub mod recovery;
pub mod runtime;
mod seeded;
pub mod service;
pub mod session;
pub mod strategies;
pub mod training;

pub use audit::{
    decision_audit, policy_audit, DecisionAudit, LevelAttribution, PhaseSeconds, PolicyAudit,
    PolicyLevelRegret,
};
pub use checkpoint::{CheckpointPolicy, LevelCheckpoint, Residency};
pub use combination::{run_single, SingleRun};
pub use cross::{cost_cross, run_cross, CrossCost, CrossDriver, CrossParams, CrossRun, Placement};
pub use features::feature_vector;
pub use health::{BreakerState, BreakerTransition, Device, DeviceHealth, HealthSnapshot};
pub use observe::timeseries::{
    prometheus_slo_text, timeseries_json_lines, QuantileSummary, SloPolicy, SloReport,
    SnapshotPolicy, TimeWeighted, WindowBurn, WindowSnapshot, LATENCY_BUCKETS_S,
};
pub use observe::{
    chrome_trace_json, prometheus_text, service_chrome_trace_json, trace_event_json, Histogram,
    Metrics,
};
pub use oracle::MnGrid;
pub use policy_online::{
    feature_bin, Decision, Observation, OnlineBandit, PolicyCell, PolicyMode, PolicyRun,
    SharedPolicy,
};
pub use predictor::SwitchPredictor;
pub use recovery::{RecoveredRun, ResilienceConfig, ResumeRecord, RunReport, Rung};
pub use runtime::AdaptiveRuntime;
pub use service::{
    BatchCompat, BatchPolicy, Disposition, DrainMode, PostMortem, QueryOutcome, QueryRequest,
    QueryRequestBuilder, QueryService, QueryTrace, ScheduleItem, ServiceConfig, ServiceReport,
    TraceSamplePolicy,
};
pub use session::{BatchRun, BatchSession, LaneRun, RunSession, MAX_LANES};
