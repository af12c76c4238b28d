//! # xbfs — heuristic cross-architecture combination for BFS
//!
//! A full reproduction of *"Designing a Heuristic Cross-Architecture
//! Combination for Breadth-First Search"* (You, Bader, Dehnavi — ICPP
//! 2014) as a Rust workspace. The umbrella crate re-exports the five
//! subsystem crates:
//!
//! | module | crate | contents |
//! |---|---|---|
//! | [`graph`] | `xbfs-graph` | CSR storage, Graph 500 R-MAT generator, bitmaps |
//! | [`engine`] | `xbfs-engine` | one top-down / bottom-up kernel pair, stepped by the hybrid engine or run on a work-stealing pool; validation, TEPS |
//! | [`archsim`] | `xbfs-archsim` | calibrated CPU/MIC/GPU cost models, link model, traversal profiles |
//! | [`svm`] | `xbfs-svm` | ε-SVR (SMO-free dual coordinate descent), kernels, scaling, ridge baseline |
//! | [`core`] | `xbfs-core` | switch-point regression, exhaustive oracle, cross-architecture executor (Algorithm 3) |
//!
//! ## Quickstart
//!
//! ```
//! use xbfs::prelude::*;
//!
//! // A Graph 500 R-MAT instance (SCALE 10, edgefactor 8).
//! let graph = xbfs::graph::rmat::rmat_csr(10, 8);
//! let stats = GraphStats::rmat(&graph, 0.57, 0.19, 0.19, 0.05);
//!
//! // Train the switching-point predictor (tiny config for the doctest).
//! let runtime = AdaptiveRuntime::quick_trained();
//!
//! // Run the paper's CPUTD+GPUCB combination with predicted parameters.
//! let source = xbfs::core::training::pick_source(&graph, 1).unwrap();
//! let run = runtime.run_cross(&graph, &stats, source);
//!
//! // The output is a real, validated BFS.
//! assert!(xbfs::engine::validate(&graph, &run.traversal.output).is_ok());
//! assert!(run.total_seconds > 0.0);
//! ```

pub use xbfs_archsim as archsim;
pub use xbfs_core as core;
pub use xbfs_engine as engine;
pub use xbfs_graph as graph;
pub use xbfs_svm as svm;

/// The types most programs need.
pub mod prelude {
    pub use xbfs_archsim::{ArchSpec, FaultPlan, Link, TraversalProfile};
    pub use xbfs_core::{
        chrome_trace_json, decision_audit, prometheus_slo_text, prometheus_text,
        service_chrome_trace_json, timeseries_json_lines, trace_event_json, AdaptiveRuntime,
        BatchCompat, BatchPolicy, BatchRun, BatchSession, CheckpointPolicy, CrossParams, CrossRun,
        DecisionAudit, Disposition, DrainMode, Histogram, LaneRun, LevelCheckpoint, Metrics,
        PostMortem, QuantileSummary, QueryRequest, QueryService, RecoveredRun, ResilienceConfig,
        RunReport, RunSession, Rung, ScheduleItem, ServiceConfig, ServiceReport, SingleRun,
        SloPolicy, SloReport, SnapshotPolicy, TimeWeighted, TraceSamplePolicy, WindowSnapshot,
    };
    pub use xbfs_engine::{
        AlwaysBottomUp, AlwaysTopDown, BfsOutput, Direction, FixedMN, MemorySink, NullSink,
        SwitchPolicy, TraceEvent, TraceSink, Traversal, XbfsError,
    };
    pub use xbfs_graph::{Csr, EdgeList, GraphStats, RmatConfig};
    pub use xbfs_svm::{Regressor, Svr, SvrConfig};
}
