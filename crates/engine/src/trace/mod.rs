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
//! ([`NullSink`]), buffer them ([`MemorySink`]), or count them
//! ([`CountingSink`]). Interpretation — building a chrome-trace file, a
//! Prometheus exposition, a span tree — happens offline in
//! `xbfs-core::observe`, on the buffered event list. That split keeps the
//! hot path to a single virtual call guarded by [`TraceSink::enabled`],
//! which the default [`NullSink`] answers `false` so instrumented code can
//! skip event construction entirely.

use crate::policy::Direction;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Mutex;

pub mod analysis;

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
/// consume the buffered list after the run.
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

/// Number of independently locked buffers in a [`ShardedSink`].
const SHARD_COUNT: usize = 8;

/// A thread-safe buffering sink for multi-threaded traversals.
///
/// Every recorded event takes a ticket off one global atomic sequence
/// counter and lands, tagged with that ticket, in one of a fixed set of
/// independently locked buffers — so concurrent workers rarely contend on
/// the same lock the way they would on a single [`MemorySink`] mutex.
/// [`ShardedSink::events`] merges the shards back into one list in
/// ascending ticket order, which is the global arrival order: the merged
/// view is deterministic for a given interleaving and totally ordered,
/// no matter which worker recorded which event.
#[derive(Debug)]
pub struct ShardedSink {
    seq: AtomicU64,
    shards: [Mutex<Vec<(u64, TraceEvent)>>; SHARD_COUNT],
}

impl Default for ShardedSink {
    fn default() -> Self {
        Self {
            seq: AtomicU64::new(0),
            shards: std::array::from_fn(|_| Mutex::new(Vec::new())),
        }
    }
}

impl ShardedSink {
    /// Fresh empty sink.
    pub fn new() -> Self {
        Self::default()
    }

    /// Merge the shards into one list ordered by global sequence number
    /// (arrival order), leaving the buffers intact.
    pub fn events(&self) -> Vec<TraceEvent> {
        let mut tagged: Vec<(u64, TraceEvent)> = Vec::with_capacity(self.len());
        for shard in &self.shards {
            tagged.extend(shard.lock().expect("sink lock").iter().cloned());
        }
        tagged.sort_unstable_by_key(|(seq, _)| *seq);
        tagged.into_iter().map(|(_, ev)| ev).collect()
    }

    /// Number of buffered events across all shards.
    pub fn len(&self) -> usize {
        self.shards
            .iter()
            .map(|s| s.lock().expect("sink lock").len())
            .sum()
    }

    /// Whether no events have been buffered.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }
}

impl TraceSink for ShardedSink {
    fn record(&self, event: &TraceEvent) {
        let ticket = self.seq.fetch_add(1, Ordering::Relaxed);
        self.shards[(ticket as usize) % SHARD_COUNT]
            .lock()
            .expect("sink lock")
            .push((ticket, event.clone()));
    }
}

/// Interior state of a [`RingSink`]: a fixed-capacity ring plus the
/// overwrite tally.
#[derive(Debug)]
struct RingState {
    /// Ring storage; grows up to capacity, then wraps.
    buf: Vec<TraceEvent>,
    /// Next write position once the ring is full.
    head: usize,
    /// Events overwritten since construction.
    dropped: u64,
}

/// A bounded flight recorder: keeps only the most recent events, up to a
/// fixed capacity, overwriting the oldest when full.
///
/// This is the always-on counterpart of [`MemorySink`]: memory use is
/// `O(capacity)` no matter how long the run is, so a long-lived service
/// can leave one attached to every query and, on a typed failure, dump
/// the last-N events as a post-mortem without having buffered the whole
/// traversal. Like [`ShardedSink`] it is `Sync` (one mutex; the ring is
/// small and post-mortem reads are rare), and [`RingSink::events`]
/// returns the surviving window oldest-first.
#[derive(Debug)]
pub struct RingSink {
    capacity: usize,
    state: Mutex<RingState>,
}

impl RingSink {
    /// Flight recorder holding at most `capacity` events. A capacity of
    /// zero is a valid (if useless) recorder that drops everything.
    pub fn new(capacity: usize) -> Self {
        Self {
            capacity,
            state: Mutex::new(RingState {
                buf: Vec::with_capacity(capacity.min(1024)),
                head: 0,
                dropped: 0,
            }),
        }
    }

    /// The fixed event capacity this ring was built with.
    pub fn capacity(&self) -> usize {
        self.capacity
    }

    /// Events currently held (≤ capacity).
    pub fn len(&self) -> usize {
        self.state.lock().expect("sink lock").buf.len()
    }

    /// Whether the ring holds no events.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Total events overwritten (recorded but since evicted).
    pub fn dropped(&self) -> u64 {
        self.state.lock().expect("sink lock").dropped
    }

    /// The surviving window, oldest event first. The buffer is left
    /// intact so a post-mortem read does not disturb later reads.
    pub fn events(&self) -> Vec<TraceEvent> {
        let state = self.state.lock().expect("sink lock");
        if state.buf.len() < self.capacity {
            state.buf.clone()
        } else {
            let mut out = Vec::with_capacity(state.buf.len());
            out.extend_from_slice(&state.buf[state.head..]);
            out.extend_from_slice(&state.buf[..state.head]);
            out
        }
    }
}

impl TraceSink for RingSink {
    fn enabled(&self) -> bool {
        self.capacity > 0
    }

    fn record(&self, event: &TraceEvent) {
        if self.capacity == 0 {
            return;
        }
        let mut state = self.state.lock().expect("sink lock");
        if state.buf.len() < self.capacity {
            state.buf.push(event.clone());
        } else {
            let head = state.head;
            state.buf[head] = event.clone();
            state.head = (head + 1) % self.capacity;
            state.dropped += 1;
        }
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

/// Head-sampling wrapper: the keep/drop decision is made *once*, at
/// construction (query start), from a seeded hash of the query id — so a
/// given `(seed, rate)` always samples the same deterministic subset of
/// queries, and a sampled query's trace is complete rather than a random
/// thinning of events. When the decision is "drop", [`SamplingSink`]
/// reports itself disabled and instrumented code skips event
/// construction entirely, exactly as with [`NullSink`].
pub struct SamplingSink<'a> {
    inner: &'a dyn TraceSink,
    keep: bool,
}

impl std::fmt::Debug for SamplingSink<'_> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("SamplingSink")
            .field("keep", &self.keep)
            .finish_non_exhaustive()
    }
}

impl<'a> SamplingSink<'a> {
    /// Decide once whether `query` is sampled under `(seed, rate)` and
    /// wrap `inner` accordingly. `rate` is the keep fraction in `[0, 1]`;
    /// 1.0 keeps every query, 0.0 keeps none.
    pub fn for_query(inner: &'a dyn TraceSink, seed: u64, query: u64, rate: f64) -> Self {
        Self {
            inner,
            keep: Self::would_keep(seed, query, rate),
        }
    }

    /// The pure sampling predicate, exposed so callers (the service, or
    /// tests) can predict membership without building a sink.
    pub fn would_keep(seed: u64, query: u64, rate: f64) -> bool {
        if rate >= 1.0 {
            return true;
        }
        if rate <= 0.0 {
            return false;
        }
        // Top 53 bits → uniform in [0, 1); keep the low-hash head.
        let u = (sample_hash(seed, query) >> 11) as f64 / (1u64 << 53) as f64;
        u < rate
    }

    /// Whether this query's events are being kept.
    pub fn keeps(&self) -> bool {
        self.keep
    }
}

impl TraceSink for SamplingSink<'_> {
    fn enabled(&self) -> bool {
        self.keep && self.inner.enabled()
    }

    fn record(&self, event: &TraceEvent) {
        if self.keep {
            self.inner.record(event);
        }
    }
}

/// Fan one event stream out to two sinks — e.g. a full [`MemorySink`]
/// trace *and* a bounded [`RingSink`] flight recorder on the same run.
/// Enabled when either branch is; each branch only receives events while
/// it reports itself enabled.
pub struct TeeSink<'a> {
    a: &'a dyn TraceSink,
    b: &'a dyn TraceSink,
}

impl std::fmt::Debug for TeeSink<'_> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("TeeSink").finish_non_exhaustive()
    }
}

impl<'a> TeeSink<'a> {
    /// Tee into `a` and `b`, in that record order.
    pub fn new(a: &'a dyn TraceSink, b: &'a dyn TraceSink) -> Self {
        Self { a, b }
    }
}

impl TraceSink for TeeSink<'_> {
    fn enabled(&self) -> bool {
        self.a.enabled() || self.b.enabled()
    }

    fn record(&self, event: &TraceEvent) {
        if self.a.enabled() {
            self.a.record(event);
        }
        if self.b.enabled() {
            self.b.record(event);
        }
    }
}

/// A point-in-time snapshot of a [`CountingSink`].
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct TraceCounts {
    /// `Level` events seen.
    pub levels: u64,
    /// `Kernel` events seen.
    pub kernels: u64,
    /// `Transfer` events seen.
    pub transfers: u64,
    /// `Backoff` events seen.
    pub backoffs: u64,
    /// `Fault` events seen.
    pub faults: u64,
    /// `Breaker` events seen.
    pub breaker_transitions: u64,
    /// `Checkpoint` events seen.
    pub checkpoints: u64,
    /// `Resume` events seen.
    pub resumes: u64,
    /// `RungBegin` events seen.
    pub rungs: u64,
    /// `CorruptionDetected` events seen.
    pub corruption_detections: u64,
    /// `CorruptionRepair` events seen.
    pub corruption_repairs: u64,
    /// Sum of `edges_examined` over `Level` and `EngineLevel` events.
    pub edges_examined: u64,
}

/// Lock-free counting sink: tallies events per class with relaxed atomics.
/// Suitable for always-on production counters where buffering every event
/// would be too heavy.
#[derive(Debug, Default)]
pub struct CountingSink {
    levels: AtomicU64,
    kernels: AtomicU64,
    transfers: AtomicU64,
    backoffs: AtomicU64,
    faults: AtomicU64,
    breaker_transitions: AtomicU64,
    checkpoints: AtomicU64,
    resumes: AtomicU64,
    rungs: AtomicU64,
    corruption_detections: AtomicU64,
    corruption_repairs: AtomicU64,
    edges_examined: AtomicU64,
}

impl CountingSink {
    /// Fresh zeroed sink.
    pub fn new() -> Self {
        Self::default()
    }

    /// Snapshot the counters.
    pub fn counts(&self) -> TraceCounts {
        TraceCounts {
            levels: self.levels.load(Ordering::Relaxed),
            kernels: self.kernels.load(Ordering::Relaxed),
            transfers: self.transfers.load(Ordering::Relaxed),
            backoffs: self.backoffs.load(Ordering::Relaxed),
            faults: self.faults.load(Ordering::Relaxed),
            breaker_transitions: self.breaker_transitions.load(Ordering::Relaxed),
            checkpoints: self.checkpoints.load(Ordering::Relaxed),
            resumes: self.resumes.load(Ordering::Relaxed),
            rungs: self.rungs.load(Ordering::Relaxed),
            corruption_detections: self.corruption_detections.load(Ordering::Relaxed),
            corruption_repairs: self.corruption_repairs.load(Ordering::Relaxed),
            edges_examined: self.edges_examined.load(Ordering::Relaxed),
        }
    }
}

impl TraceSink for CountingSink {
    fn record(&self, event: &TraceEvent) {
        let bump = |c: &AtomicU64| {
            c.fetch_add(1, Ordering::Relaxed);
        };
        match event {
            TraceEvent::RungBegin { .. } => bump(&self.rungs),
            TraceEvent::RungEnd { .. } | TraceEvent::RungSkipped { .. } => {}
            TraceEvent::Level { edges_examined, .. } => {
                bump(&self.levels);
                self.edges_examined
                    .fetch_add(*edges_examined, Ordering::Relaxed);
            }
            TraceEvent::Kernel { .. } => bump(&self.kernels),
            TraceEvent::Transfer { .. } => bump(&self.transfers),
            TraceEvent::Backoff { .. } => bump(&self.backoffs),
            TraceEvent::Fault { .. } => bump(&self.faults),
            TraceEvent::Breaker { .. } => bump(&self.breaker_transitions),
            TraceEvent::Checkpoint { .. } => bump(&self.checkpoints),
            TraceEvent::Resume { .. } => bump(&self.resumes),
            TraceEvent::CorruptionDetected { .. } => bump(&self.corruption_detections),
            TraceEvent::CorruptionRepair { .. } => bump(&self.corruption_repairs),
            TraceEvent::KernelCost { .. } => {}
            TraceEvent::EngineLevel { edges_examined, .. } => {
                bump(&self.levels);
                self.edges_examined
                    .fetch_add(*edges_examined, Ordering::Relaxed);
            }
            TraceEvent::BatchLevel { edges_examined, .. } => {
                bump(&self.levels);
                self.edges_examined
                    .fetch_add(*edges_examined, Ordering::Relaxed);
            }
            // Service-level admission and batch bookkeeping events:
            // per-traversal counters do not track them; the service
            // aggregates its own totals.
            TraceEvent::QueryAdmitted { .. }
            | TraceEvent::QueryStart { .. }
            | TraceEvent::QueryEnd { .. }
            | TraceEvent::QueryShed { .. }
            | TraceEvent::QueueDepth { .. }
            | TraceEvent::BatchBegin { .. }
            | TraceEvent::BatchLane { .. }
            | TraceEvent::BatchEnd { .. }
            | TraceEvent::PolicyDecision { .. } => {}
        }
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
    fn counting_sink_tallies_classes() {
        let sink = CountingSink::new();
        sink.record(&level_event(0, 10));
        sink.record(&level_event(1, 32));
        sink.record(&TraceEvent::Kernel {
            device: "gpu",
            op: "gpu-kernel",
            level: 1,
            attempt: 0,
            start_s: 0.0,
            end_s: 0.5,
            ok: true,
        });
        sink.record(&TraceEvent::Fault {
            op: "transfer",
            kind: "link-stall",
            level: 1,
            attempt: 0,
            at_s: 0.25,
        });
        sink.record(&TraceEvent::RungBegin {
            rung: "cross",
            at_s: 0.0,
        });
        let c = sink.counts();
        assert_eq!(c.levels, 2);
        assert_eq!(c.edges_examined, 42);
        assert_eq!(c.kernels, 1);
        assert_eq!(c.faults, 1);
        assert_eq!(c.rungs, 1);
        assert_eq!(c.transfers, 0);
    }

    #[test]
    fn counting_sink_tallies_corruption_events() {
        let sink = CountingSink::new();
        sink.record(&TraceEvent::CorruptionDetected {
            rung: "cross",
            detector: "scrub",
            level: 3,
            at_s: 1.0,
        });
        sink.record(&TraceEvent::CorruptionDetected {
            rung: "cross",
            detector: "checksum",
            level: 4,
            at_s: 2.0,
        });
        sink.record(&TraceEvent::CorruptionRepair {
            rung: "cross",
            action: "rollback",
            to_level: 2,
            attempt: 1,
            at_s: 1.5,
        });
        let c = sink.counts();
        assert_eq!(c.corruption_detections, 2);
        assert_eq!(c.corruption_repairs, 1);
        assert_eq!(c.faults, 0);
    }

    #[test]
    fn rung_outcome_names() {
        assert_eq!(RungOutcome::Served.name(), "served");
        assert_eq!(RungOutcome::Degraded.to_string(), "degraded");
        assert_eq!(RungOutcome::Invalid.name(), "invalid");
        assert_eq!(RungOutcome::Fatal.name(), "fatal");
    }

    #[test]
    fn sharded_sink_merges_in_arrival_order() {
        let sink = ShardedSink::new();
        assert!(sink.enabled());
        assert!(sink.is_empty());
        for i in 0..20 {
            sink.record(&level_event(i, u64::from(i)));
        }
        assert_eq!(sink.len(), 20);
        let events = sink.events();
        assert_eq!(events.len(), 20);
        // Single-threaded recording: arrival order is emission order.
        for (i, ev) in events.iter().enumerate() {
            assert_eq!(*ev, level_event(i as u32, i as u64));
        }
        // events() does not drain.
        assert_eq!(sink.len(), 20);
    }

    #[test]
    fn sharded_sink_is_shareable_and_loses_nothing_under_contention() {
        let sink = ShardedSink::new();
        std::thread::scope(|s| {
            for t in 0..4u32 {
                let sink = &sink;
                s.spawn(move || {
                    for i in 0..100u32 {
                        sink.record(&level_event(t * 100 + i, 1));
                    }
                });
            }
        });
        let events = sink.events();
        assert_eq!(events.len(), 400);
        // Every recorded event survives the merge exactly once, and each
        // thread's own events appear in its emission order (tickets are
        // taken before buffering, so per-thread order is preserved).
        let mut per_thread: Vec<Vec<u32>> = vec![Vec::new(); 4];
        for ev in &events {
            if let TraceEvent::Level { level, .. } = ev {
                per_thread[(level / 100) as usize].push(level % 100);
            }
        }
        for (t, seen) in per_thread.iter().enumerate() {
            assert_eq!(seen.len(), 100, "thread {t}");
            assert!(seen.windows(2).all(|w| w[0] < w[1]), "thread {t}: {seen:?}");
        }
    }

    #[test]
    fn ring_sink_keeps_only_the_newest_events() {
        let sink = RingSink::new(4);
        assert!(sink.enabled());
        assert!(sink.is_empty());
        assert_eq!(sink.capacity(), 4);
        // Under capacity: everything survives in order.
        for i in 0..3 {
            sink.record(&level_event(i, u64::from(i)));
        }
        assert_eq!(sink.len(), 3);
        assert_eq!(sink.dropped(), 0);
        let events = sink.events();
        assert_eq!(events.len(), 3);
        assert_eq!(events[0], level_event(0, 0));
        // Overflow: the oldest are overwritten, survivors stay ordered.
        for i in 3..10 {
            sink.record(&level_event(i, u64::from(i)));
        }
        assert_eq!(sink.len(), 4);
        assert_eq!(sink.dropped(), 6);
        let events = sink.events();
        assert_eq!(events.len(), 4);
        for (k, ev) in events.iter().enumerate() {
            let i = 6 + k as u32;
            assert_eq!(*ev, level_event(i, u64::from(i)));
        }
        // events() does not drain.
        assert_eq!(sink.len(), 4);
    }

    #[test]
    fn ring_sink_with_zero_capacity_is_disabled() {
        let sink = RingSink::new(0);
        assert!(!sink.enabled());
        sink.record(&level_event(0, 1)); // harmless no-op
        assert!(sink.is_empty());
        assert_eq!(sink.dropped(), 0);
    }

    #[test]
    fn ring_sink_is_shareable_and_bounded_under_contention() {
        let sink = RingSink::new(16);
        std::thread::scope(|s| {
            for t in 0..4u32 {
                let sink = &sink;
                s.spawn(move || {
                    for i in 0..100u32 {
                        sink.record(&level_event(t * 100 + i, 1));
                    }
                });
            }
        });
        assert_eq!(sink.len(), 16);
        assert_eq!(sink.dropped(), 400 - 16);
        assert_eq!(sink.events().len(), 16);
    }

    #[test]
    fn sampling_decision_is_seeded_and_stable() {
        // Extremes are unconditional.
        assert!(SamplingSink::would_keep(7, 3, 1.0));
        assert!(!SamplingSink::would_keep(7, 3, 0.0));
        // The per-query decision is a pure function of (seed, query,
        // rate): recomputing never flips it.
        for query in 0..64u64 {
            let first = SamplingSink::would_keep(42, query, 0.25);
            assert_eq!(first, SamplingSink::would_keep(42, query, 0.25));
        }
        // A 25% rate over many queries keeps a minority but not none —
        // the hash spreads queries across the unit interval.
        let kept = (0..1000u64)
            .filter(|&q| SamplingSink::would_keep(42, q, 0.25))
            .count();
        assert!((100..500).contains(&kept), "kept {kept} of 1000 at 25%");
        // Different seeds sample different subsets.
        let other = (0..1000u64)
            .filter(|&q| SamplingSink::would_keep(43, q, 0.25))
            .count();
        let overlap = (0..1000u64)
            .filter(|&q| {
                SamplingSink::would_keep(42, q, 0.25) && SamplingSink::would_keep(43, q, 0.25)
            })
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
                    SamplingSink::would_keep(seed, query, 1.0),
                    "rate 1.0 must keep ({seed}, {query})"
                );
                assert!(
                    !SamplingSink::would_keep(seed, query, 0.0),
                    "rate 0.0 must drop ({seed}, {query})"
                );
                // Beyond the valid range, the clamp still decides without
                // consulting the hash.
                assert!(SamplingSink::would_keep(seed, query, 2.0));
                assert!(!SamplingSink::would_keep(seed, query, -1.0));
            }
        }
    }

    #[test]
    fn sampling_sink_gates_recording_at_query_granularity() {
        let inner = MemorySink::new();
        // Find one kept and one dropped query under this (seed, rate).
        let kept_q = (0..u64::MAX)
            .find(|&q| SamplingSink::would_keep(9, q, 0.5))
            .unwrap();
        let dropped_q = (0..u64::MAX)
            .find(|&q| !SamplingSink::would_keep(9, q, 0.5))
            .unwrap();

        let kept = SamplingSink::for_query(&inner, 9, kept_q, 0.5);
        assert!(kept.keeps());
        assert!(kept.enabled());
        kept.record(&level_event(0, 1));
        assert_eq!(inner.len(), 1);

        let dropped = SamplingSink::for_query(&inner, 9, dropped_q, 0.5);
        assert!(!dropped.keeps());
        assert!(!dropped.enabled());
        dropped.record(&level_event(1, 1));
        assert_eq!(inner.len(), 1, "dropped query must not record");

        // A kept decision over a disabled inner sink is still disabled.
        let over_null = SamplingSink::for_query(&NULL_SINK, 9, kept_q, 0.5);
        assert!(over_null.keeps());
        assert!(!over_null.enabled());
    }

    #[test]
    fn tee_sink_feeds_both_branches() {
        let full = MemorySink::new();
        let ring = RingSink::new(2);
        let tee = TeeSink::new(&full, &ring);
        assert!(tee.enabled());
        for i in 0..5 {
            tee.record(&level_event(i, 1));
        }
        assert_eq!(full.len(), 5);
        assert_eq!(ring.len(), 2);
        assert_eq!(ring.events()[0], level_event(3, 1));
        // A disabled branch is skipped without disabling the tee.
        let tee = TeeSink::new(&NULL_SINK, &full);
        assert!(tee.enabled());
        tee.record(&level_event(9, 1));
        assert_eq!(full.len(), 6);
        // Both branches disabled ⇒ the tee is disabled.
        assert!(!TeeSink::new(&NULL_SINK, &NULL_SINK).enabled());
    }

    #[test]
    fn counting_sink_is_shareable_across_threads() {
        let sink = CountingSink::new();
        std::thread::scope(|s| {
            for _ in 0..4 {
                s.spawn(|| {
                    for i in 0..100 {
                        sink.record(&level_event(i, 1));
                    }
                });
            }
        });
        let c = sink.counts();
        assert_eq!(c.levels, 400);
        assert_eq!(c.edges_examined, 400);
    }
}
