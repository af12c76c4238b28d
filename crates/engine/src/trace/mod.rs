//! Structured trace events and the `TraceSink` abstraction.
//!
//! Every interesting moment of a traversal — a level executing, a kernel
//! being charged on the simulated clock, a transfer crossing the link, a
//! fault firing, a breaker tripping, a checkpoint being cut — is described
//! by one [`TraceEvent`] and handed to a [`TraceSink`]. The engine crate
//! owns the vocabulary so that every layer above it (archsim cost
//! charging, the recovery ladder in `xbfs-core`, the CLI) can speak it
//! without a dependency cycle; upper layers identify themselves with
//! `&'static str` labels ("cpu", "gpu", "link", "cross", …) rather than
//! with types the engine cannot see.
//!
//! Sinks are deliberately dumb: they receive events and either drop them
//! ([`NullSink`]) or buffer them ([`MemorySink`]). Interpretation —
//! folding metrics, attributing simulated time, building a chrome-trace
//! file, cutting a post-mortem — happens in `xbfs-core`, on the buffered
//! event list. That
//! split keeps the hot path to a single virtual call guarded by
//! [`TraceSink::enabled`], which the default [`NullSink`] answers `false`
//! so instrumented code can skip event construction entirely.

use crate::policy::Direction;
use std::sync::Mutex;

/// How a recovery-ladder rung ended.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum RungOutcome {
    /// The rung completed the traversal and its output validated.
    Served,
    /// The rung hit a permanent fault and handed off down the ladder.
    Degraded,
    /// The rung finished but its output failed validation.
    Invalid,
    /// The rung raised a fatal, non-degradable error (deadline, retries).
    Fatal,
}

impl RungOutcome {
    /// Stable lowercase label for exporters and metrics keys.
    pub fn name(self) -> &'static str {
        match self {
            RungOutcome::Served => "served",
            RungOutcome::Degraded => "degraded",
            RungOutcome::Invalid => "invalid",
            RungOutcome::Fatal => "fatal",
        }
    }
}

impl std::fmt::Display for RungOutcome {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.name())
    }
}

/// One typed observation from a traversal.
///
/// Span-like events carry `start_s`/`end_s` pairs on the *simulated* clock
/// (seconds since the run began); instant events carry a single `at_s`.
/// [`TraceEvent::EngineLevel`] is the exception: it is emitted by the pure
/// engine, which has no simulated clock, and carries measured wall time.
#[derive(Clone, Debug, PartialEq)]
pub enum TraceEvent {
    /// A recovery-ladder rung began executing.
    RungBegin {
        /// Rung label ("cross", "cpu-only", "reference").
        rung: &'static str,
        /// Simulated clock at rung start.
        at_s: f64,
    },
    /// A recovery-ladder rung finished (successfully or not).
    RungEnd {
        /// Rung label ("cross", "cpu-only", "reference").
        rung: &'static str,
        /// Simulated clock at rung end.
        at_s: f64,
        /// How the rung ended.
        outcome: RungOutcome,
    },
    /// A rung was skipped before starting (its circuit breaker was open).
    RungSkipped {
        /// Rung label.
        rung: &'static str,
        /// Device whose open breaker denied the rung.
        device: &'static str,
        /// Simulated clock when the denial was observed.
        at_s: f64,
    },
    /// One BFS level executed under the simulated cost model.
    Level {
        /// Rung that executed the level.
        rung: &'static str,
        /// Device the level's kernel was charged to ("cpu" or "gpu").
        device: &'static str,
        /// Level index.
        level: u32,
        /// Direction the switch policy chose.
        direction: Direction,
        /// `|V|cq` — frontier vertices entering the level.
        frontier_vertices: u64,
        /// `|E|cq` — frontier out-edges entering the level.
        frontier_edges: u64,
        /// Edges the kernel examined.
        edges_examined: u64,
        /// Vertices discovered (the next frontier's size).
        discovered: u64,
        /// Simulated clock when the level began.
        start_s: f64,
        /// Simulated clock when the level's charges completed.
        end_s: f64,
    },
    /// One kernel attempt on the fault/retry path (may fail and retry).
    Kernel {
        /// Device the kernel ran on ("cpu" or "gpu").
        device: &'static str,
        /// Fault-op label ("cpu-kernel", "gpu-kernel").
        op: &'static str,
        /// Level the kernel served.
        level: u32,
        /// Zero-based attempt index (0 = first try).
        attempt: u32,
        /// Simulated clock at attempt start.
        start_s: f64,
        /// Simulated clock after the attempt's charge.
        end_s: f64,
        /// Whether the attempt succeeded.
        ok: bool,
    },
    /// One host↔device transfer attempt across the link.
    Transfer {
        /// Level whose frontier was transferred.
        level: u32,
        /// Bytes moved (nominal payload).
        bytes: u64,
        /// Zero-based attempt index.
        attempt: u32,
        /// Simulated clock at attempt start.
        start_s: f64,
        /// Simulated clock after the attempt's charge.
        end_s: f64,
        /// Whether the attempt succeeded.
        ok: bool,
    },
    /// A retry backoff sleep between failed attempts.
    Backoff {
        /// Fault-op label being retried.
        op: &'static str,
        /// Level being retried.
        level: u32,
        /// Zero-based retry index (0 = first backoff).
        retry: u32,
        /// Simulated clock at backoff start.
        start_s: f64,
        /// Simulated clock at backoff end.
        end_s: f64,
    },
    /// An injected fault fired.
    Fault {
        /// Fault-op label ("transfer", "cpu-kernel", "gpu-kernel").
        op: &'static str,
        /// Fault-kind label ("transfer-failure", "link-stall",
        /// "kernel-timeout", "device-lost").
        kind: &'static str,
        /// Level the faulted operation served.
        level: u32,
        /// Zero-based attempt index the fault hit.
        attempt: u32,
        /// Simulated clock when the fault was observed.
        at_s: f64,
    },
    /// A circuit breaker changed state.
    Breaker {
        /// Device whose breaker moved ("cpu", "gpu", "link").
        device: &'static str,
        /// State before ("closed", "open", "half-open").
        from: &'static str,
        /// State after.
        to: &'static str,
        /// Cause label ("failure-threshold", "device-lost", …).
        cause: &'static str,
        /// Simulated clock of the transition.
        at_s: f64,
    },
    /// A level-boundary checkpoint was captured.
    Checkpoint {
        /// Rung that captured the checkpoint.
        rung: &'static str,
        /// Level boundary the checkpoint cut at.
        level: u32,
        /// Serialized checkpoint size in bytes.
        bytes: u64,
        /// Whether the checkpoint was spilled to disk.
        spilled: bool,
        /// Simulated clock before any pullback charge.
        start_s: f64,
        /// Simulated clock after the capture completed.
        end_s: f64,
    },
    /// A rung started from a checkpoint instead of from scratch.
    Resume {
        /// Rung that resumed.
        rung: &'static str,
        /// Level the resumed traversal continues from.
        from_level: u32,
        /// Whether the frontier was translated to host order.
        translated: bool,
        /// Whether the checkpoint came from outside the run.
        external: bool,
        /// Simulated clock at resume.
        at_s: f64,
    },
    /// Decomposed cost-model charge for one kernel (telemetry only — the
    /// clock is charged `total_s`, never the re-summed parts).
    KernelCost {
        /// Device whose cost model priced the level.
        device: &'static str,
        /// Level priced.
        level: u32,
        /// Direction the level ran in.
        direction: Direction,
        /// Exact charged time (identical to the undecomposed model).
        total_s: f64,
        /// Fixed per-level overhead component.
        overhead_s: f64,
        /// Work component (throughput/serial for TD, scan+probe for BU).
        work_s: f64,
        /// Which term bound the level ("td-throughput", "td-serial", "bu",
        /// "reference-serial").
        bound: &'static str,
        /// Simulated clock when the charge was made.
        at_s: f64,
    },
    /// One level executed by the pure engine, with measured wall time.
    EngineLevel {
        /// Level index.
        level: u32,
        /// Direction the switch policy chose.
        direction: Direction,
        /// `|V|cq` — frontier vertices entering the level.
        frontier_vertices: u64,
        /// `|E|cq` — frontier out-edges entering the level.
        frontier_edges: u64,
        /// Edges the kernel examined.
        edges_examined: u64,
        /// Vertices discovered.
        discovered: u64,
        /// Measured wall-clock duration of the level, in seconds.
        wall_s: f64,
    },
    /// The query service admitted a query (started or queued it).
    QueryAdmitted {
        /// Caller-assigned query id.
        query: u64,
        /// Queue depth after admission (0 = started immediately).
        queue_depth: u32,
        /// Service clock at admission.
        at_s: f64,
    },
    /// An admitted query began executing on a service slot.
    QueryStart {
        /// Caller-assigned query id.
        query: u64,
        /// Seconds the query waited in the admission queue.
        wait_s: f64,
        /// Service clock at start.
        at_s: f64,
    },
    /// A started query reached a terminal outcome.
    QueryEnd {
        /// Caller-assigned query id.
        query: u64,
        /// Outcome label ("served", "degraded", "deadline-missed",
        /// "failed").
        outcome: &'static str,
        /// Label of the rung that served it, or "none".
        rung: &'static str,
        /// Service clock at completion.
        at_s: f64,
    },
    /// A query was shed without running (overload, deadline already
    /// blown while queued, or service drain).
    QueryShed {
        /// Caller-assigned query id.
        query: u64,
        /// Shed reason label ("overloaded", "deadline", "shutdown").
        reason: &'static str,
        /// Queue depth observed when the query was shed.
        queue_depth: u32,
        /// Service clock at the shed decision.
        at_s: f64,
    },
    /// The admission queue depth changed (sampled at every transition).
    QueueDepth {
        /// Queries waiting after the transition.
        depth: u32,
        /// Service clock of the sample.
        at_s: f64,
    },
    /// Silent data corruption was detected before it reached the caller.
    CorruptionDetected {
        /// Rung whose state was found corrupt.
        rung: &'static str,
        /// What caught it ("checksum" for a transfer integrity check,
        /// "scrub" for a per-level invariant pass, "validate" for the
        /// end-of-run Graph 500 checker).
        detector: &'static str,
        /// Level the corruption was detected at.
        level: u32,
        /// Simulated clock at detection.
        at_s: f64,
    },
    /// A `BatchSession` batch began: its lanes step in lockstep rounds
    /// on one shared simulated clock.
    BatchBegin {
        /// Lanes (sources) packed into the batch.
        lanes: u32,
        /// Batching window the dispatcher collected under (0 when the
        /// batch was built outside the service, e.g. by the CLI).
        window: u32,
        /// Simulated clock at batch start.
        at_s: f64,
    },
    /// Reconciliation record tying one batch lane back to the query it
    /// carries — the per-lane counterpart of [`TraceEvent::QueryEnd`].
    BatchLane {
        /// Zero-based lane index within the batch.
        lane: u32,
        /// Caller-assigned query id riding the lane.
        query: u64,
        /// BFS source vertex of the lane.
        source: u32,
        /// Simulated clock when the lane was bound.
        at_s: f64,
    },
    /// One placement group of a batch's lockstep round: the lanes whose
    /// level ran on this device in this direction, charged once for the
    /// group.
    BatchLevel {
        /// Device the round was charged to ("cpu" or "gpu").
        device: &'static str,
        /// Round index (each lane's level index for this round).
        level: u32,
        /// Direction the group's lanes ran, each by its own placement
        /// decision.
        direction: Direction,
        /// Lanes in the group.
        lanes: u32,
        /// Σ`|V|cq` over the group's lanes.
        frontier_vertices: u64,
        /// Σ edges examined over the group's lanes.
        edges_examined: u64,
        /// Simulated seconds charged for the group: the slowest lane's
        /// level price.
        seconds: f64,
        /// Simulated clock when the round began.
        at_s: f64,
    },
    /// A `BatchSession` batch finished.
    BatchEnd {
        /// Lanes the batch carried.
        lanes: u32,
        /// Lockstep rounds executed (the deepest lane's level count).
        levels: u32,
        /// Simulated clock at batch end.
        at_s: f64,
    },
    /// The recovery ladder answered a detected corruption with a repair.
    CorruptionRepair {
        /// Rung being repaired.
        rung: &'static str,
        /// Repair action: "rollback" (rewind to the last trusted
        /// checkpoint), "restart" (no usable checkpoint — from scratch),
        /// or "taint" (the latest checkpoint itself failed re-validation
        /// and was discarded before restarting).
        action: &'static str,
        /// Level the repaired run resumes from (0 for a restart).
        to_level: u32,
        /// One-based repair attempt index for this rung.
        attempt: u32,
        /// Simulated clock when the repair was decided.
        at_s: f64,
    },
    /// The online per-level policy chose a placement for one level —
    /// emitted only when a run executes with an online policy attached,
    /// so policy-off traces are byte-identical to before the policy
    /// existed.
    PolicyDecision {
        /// Level the decision applies to.
        level: u32,
        /// Discretized feature bin the decision was drawn from.
        bin: u32,
        /// Device the level was placed on ("cpu" or "gpu").
        device: &'static str,
        /// Direction the policy chose for the level.
        direction: Direction,
        /// `true` while the bandit is still exploring this bin's arms,
        /// `false` once it exploits the learned cost means.
        explore: bool,
        /// Simulated clock when the decision was made.
        at_s: f64,
    },
}

/// A consumer of [`TraceEvent`]s.
///
/// Implementations must be cheap and non-blocking on the hot path; the
/// contract is that instrumented code checks [`TraceSink::enabled`] before
/// constructing events, so a disabled sink costs one virtual call per
/// instrumentation site.
pub trait TraceSink: Sync {
    /// Whether this sink wants events at all. Instrumented code should
    /// skip event construction when this returns `false`.
    fn enabled(&self) -> bool {
        true
    }

    /// Receive one event.
    fn record(&self, event: &TraceEvent);
}

/// The no-op sink: reports itself disabled and drops anything it is
/// handed anyway. This is the default for every entry point.
#[derive(Clone, Copy, Debug, Default)]
pub struct NullSink;

impl TraceSink for NullSink {
    fn enabled(&self) -> bool {
        false
    }

    fn record(&self, _event: &TraceEvent) {}
}

/// A shared [`NullSink`] for default sink references.
pub static NULL_SINK: NullSink = NullSink;

/// Buffers every event in order. The exporters in `xbfs-core::observe`
/// consume the buffered list after the run. One mutex serves concurrent
/// recorders too: the parallel engine's workers emit one span per
/// kernel, so they rarely meet on the lock.
#[derive(Debug, Default)]
pub struct MemorySink {
    events: Mutex<Vec<TraceEvent>>,
}

impl MemorySink {
    /// Fresh empty sink.
    pub fn new() -> Self {
        Self::default()
    }

    /// Clone out the buffered events, leaving the buffer intact.
    pub fn events(&self) -> Vec<TraceEvent> {
        self.events.lock().expect("sink lock").clone()
    }

    /// Drain the buffered events, leaving the buffer empty.
    pub fn take(&self) -> Vec<TraceEvent> {
        std::mem::take(&mut *self.events.lock().expect("sink lock"))
    }

    /// Number of buffered events.
    pub fn len(&self) -> usize {
        self.events.lock().expect("sink lock").len()
    }

    /// Whether the buffer is empty.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }
}

impl TraceSink for MemorySink {
    fn record(&self, event: &TraceEvent) {
        self.events.lock().expect("sink lock").push(event.clone());
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn level_event(level: u32, edges: u64) -> TraceEvent {
        TraceEvent::Level {
            rung: "cross",
            device: "cpu",
            level,
            direction: Direction::TopDown,
            frontier_vertices: 1,
            frontier_edges: 2,
            edges_examined: edges,
            discovered: 1,
            start_s: 0.0,
            end_s: 1.0,
        }
    }

    #[test]
    fn null_sink_is_disabled() {
        assert!(!NullSink.enabled());
        NullSink.record(&level_event(0, 1)); // must be a harmless no-op
        assert!(!NULL_SINK.enabled());
    }

    #[test]
    fn memory_sink_buffers_in_order() {
        let sink = MemorySink::new();
        assert!(sink.enabled());
        assert!(sink.is_empty());
        sink.record(&level_event(0, 10));
        sink.record(&level_event(1, 20));
        assert_eq!(sink.len(), 2);
        let events = sink.events();
        assert_eq!(events.len(), 2);
        assert_eq!(events[0], level_event(0, 10));
        assert_eq!(events[1], level_event(1, 20));
        // events() does not drain...
        assert_eq!(sink.len(), 2);
        // ...take() does.
        assert_eq!(sink.take().len(), 2);
        assert!(sink.is_empty());
    }

    #[test]
    fn rung_outcome_names() {
        assert_eq!(RungOutcome::Served.name(), "served");
        assert_eq!(RungOutcome::Degraded.to_string(), "degraded");
        assert_eq!(RungOutcome::Invalid.name(), "invalid");
        assert_eq!(RungOutcome::Fatal.name(), "fatal");
    }
}
