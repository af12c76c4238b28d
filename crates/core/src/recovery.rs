//! Fault recovery: retries, deadlines, circuit breakers, checkpoints, and
//! the graceful-degradation ladder.
//!
//! The paper's Algorithm 3 is a one-shot handoff with zero failure
//! handling — fine for a benchmark, fatal for a runtime. This module wraps
//! the cross-architecture executor in a recovery policy driven by a
//! deterministic [`FaultPlan`]:
//!
//! * **Retry with exponential backoff** — transient faults (transfer
//!   failures, kernel timeouts) waste the attempt's simulated time, wait
//!   out a seeded-jitter backoff, and try again up to
//!   [`RetryPolicy::max_attempts`].
//! * **Deadline budget** — every simulated second (productive, wasted, or
//!   backoff) is charged against one clock; blowing the budget aborts the
//!   whole ladder with [`XbfsError::DeadlineExceeded`].
//! * **Degradation ladder** — when a rung fails permanently the traversal
//!   continues one rung down: `CPUTD+GPUCB` → CPU-only hybrid
//!   ([`FixedMN`]) → sequential reference BFS. Every rung's output goes
//!   through Graph 500 validation before it is allowed to count as
//!   success; a rung that produces an invalid tree is treated as faulty,
//!   never as done.
//! * **Level-granular checkpoints** — with a
//!   [`CheckpointPolicy`] enabled,
//!   the executing rung cuts a [`LevelCheckpoint`] at configurable level
//!   boundaries. A failed rung no longer drags the whole traversal back
//!   to level 0: the next rung (or, via [`RunSession::resume`](crate::session::RunSession::resume), the
//!   next *process*) resumes from the last checkpoint, translating a
//!   GPU-resident frontier to host form when control moves down-ladder.
//! * **Per-device circuit breakers** — every operation outcome feeds a
//!   [`DeviceHealth`] bank of breakers, one per simulated device. A rung
//!   whose devices include an open breaker is skipped at *selection*
//!   time instead of burning retries rediscovering a device the runtime
//!   already knows is sick; [`FaultKind::DeviceLost`] opens a breaker
//!   permanently.
//!
//! The outcome is always one of two things: a [`RecoveredRun`] holding a
//! validated [`BfsOutput`] plus a [`RunReport`] naming the rung that
//! produced it, or a typed [`XbfsError`] — never a panic.

use crate::checkpoint::{CheckpointPolicy, LevelCheckpoint, Residency, CHECKPOINT_FORMAT_VERSION};
use crate::cross::{CrossDriver, CrossParams};
use crate::health::{BreakerPolicy, BreakerTransition, Device, DeviceHealth};
use crate::seeded::splitmix_unit;
use serde::{Deserialize, Serialize};
use xbfs_archsim::fault::{
    CorruptPayload, FaultEvent, FaultKind, FaultOp, FaultPlan, FaultSession,
};
use xbfs_archsim::{cost, ArchSpec, Link};
use xbfs_engine::{
    scrub::scrub_state,
    trace::{RungOutcome, TraceEvent, TraceSink},
    validate, AlwaysTopDown, BfsOutput, FixedMN, LevelRecord, ScrubPolicy, TraversalState,
    XbfsError,
};
use xbfs_graph::{Csr, VertexId};

/// Salt folded into the fault-plan seed for the retry-backoff jitter RNG.
/// Shared with checkpoint capture so a checkpointed `jitter_rng` always
/// means "this stream, at this position".
pub(crate) const JITTER_SALT: u64 = 0x5851_f42d_4c95_7f2d;

/// The cost model's single-thread penalty for the sequential reference
/// rung: one core doing the work of all of them.
pub(crate) fn reference_sequential_penalty(cpu: &ArchSpec) -> f64 {
    cpu.cost.parallel_units.max(1.0)
}

/// Bounded retry with exponential backoff and seeded jitter.
#[derive(Clone, Copy, Debug, PartialEq, Serialize, Deserialize)]
pub struct RetryPolicy {
    /// Attempts per operation, including the first (≥ 1).
    pub max_attempts: u32,
    /// Backoff before the first retry, in simulated seconds.
    pub base_backoff_s: f64,
    /// Multiplier applied to the backoff per further retry (≥ 1).
    pub backoff_factor: f64,
    /// Uniform jitter fraction in `[0, 1]`: each backoff is scaled by
    /// `1 + jitter_frac × u` with `u ~ U[0, 1)` from the fault seed.
    pub jitter_frac: f64,
}

impl RetryPolicy {
    /// The runtime default: 3 attempts, 100 µs base backoff, doubling,
    /// 10 % jitter.
    pub fn default_runtime() -> Self {
        Self {
            max_attempts: 3,
            base_backoff_s: 1e-4,
            backoff_factor: 2.0,
            jitter_frac: 0.1,
        }
    }

    /// No retries: every transient fault is immediately permanent.
    pub fn none() -> Self {
        Self {
            max_attempts: 1,
            base_backoff_s: 0.0,
            backoff_factor: 1.0,
            jitter_frac: 0.0,
        }
    }

    /// Validate ranges.
    pub fn validate(&self) -> Result<(), XbfsError> {
        if self.max_attempts == 0 {
            return Err(XbfsError::InvalidArgument {
                what: "retry policy needs max_attempts >= 1".into(),
            });
        }
        if !self.base_backoff_s.is_finite() || self.base_backoff_s < 0.0 {
            return Err(XbfsError::InvalidArgument {
                what: format!(
                    "base_backoff_s must be finite and non-negative, got {}",
                    self.base_backoff_s
                ),
            });
        }
        if !self.backoff_factor.is_finite() || self.backoff_factor < 1.0 {
            return Err(XbfsError::InvalidArgument {
                what: format!(
                    "backoff_factor must be finite and >= 1, got {}",
                    self.backoff_factor
                ),
            });
        }
        if !(0.0..=1.0).contains(&self.jitter_frac) {
            return Err(XbfsError::InvalidArgument {
                what: format!("jitter_frac must be in [0, 1], got {}", self.jitter_frac),
            });
        }
        Ok(())
    }

    /// Backoff before retry number `retry` (0-based), with `u ~ U[0, 1)`.
    fn backoff_s(&self, retry: u32, u: f64) -> f64 {
        self.base_backoff_s * self.backoff_factor.powi(retry as i32) * (1.0 + self.jitter_frac * u)
    }
}

/// The full failure-handling configuration of one resilient run.
#[derive(Clone, Debug, PartialEq, Serialize, Deserialize)]
pub struct ResilienceConfig {
    /// Per-operation retry policy.
    pub retry: RetryPolicy,
    /// Optional end-to-end simulated deadline budget.
    pub deadline_s: Option<f64>,
    /// Checkpoint cadence and spill target.
    pub checkpoint: CheckpointPolicy,
    /// Circuit-breaker tuning shared by all devices.
    pub breaker: BreakerPolicy,
    /// Per-level invariant scrub cadence ([`ScrubPolicy::Off`] by
    /// default — zero mid-run checks on the fault-free hot path).
    pub scrub: ScrubPolicy,
    /// Verify an integrity checksum on every link transfer. The
    /// receiver's verification pass is charged on the simulated clock
    /// ([`Link::checksum_time`]); a flipped payload fails verification
    /// and is retried like a transient instead of landing silently.
    pub checksum_transfers: bool,
    /// Bounded in-rung repair attempts after a detected corruption
    /// before the rung degrades with
    /// [`XbfsError::CorruptionUnrecovered`].
    pub corruption_repair_limit: u32,
}

impl ResilienceConfig {
    /// Runtime defaults: default retries and breakers, a checkpoint every
    /// 4 levels (in-memory only), no deadline, corruption defense off
    /// (scrub off, unchecksummed transfers) with 2 repair attempts if it
    /// is turned on.
    pub fn default_runtime() -> Self {
        Self {
            retry: RetryPolicy::default_runtime(),
            deadline_s: None,
            checkpoint: CheckpointPolicy::every(4),
            breaker: BreakerPolicy::default_runtime(),
            scrub: ScrubPolicy::Off,
            checksum_transfers: false,
            corruption_repair_limit: 2,
        }
    }

    /// Validate every component.
    pub fn validate(&self) -> Result<(), XbfsError> {
        self.retry.validate()?;
        self.checkpoint.validate()?;
        self.breaker.validate()?;
        self.scrub.validate()?;
        if let Some(d) = self.deadline_s {
            if !d.is_finite() || d <= 0.0 {
                return Err(XbfsError::InvalidArgument {
                    what: format!("deadline must be finite and positive, got {d} s"),
                });
            }
        }
        Ok(())
    }
}

/// One rung of the degradation ladder.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Serialize, Deserialize)]
pub enum Rung {
    /// The paper's headline `CPUTD+GPUCB` (Algorithm 3).
    CrossCpuGpu,
    /// CPU-only direction-optimizing hybrid with Beamer-default `(M, N)`.
    CpuOnly,
    /// Sequential textbook reference BFS — the last resort.
    Reference,
}

impl Rung {
    /// The simulated devices a rung needs; an open breaker on any of them
    /// skips the rung at selection time.
    pub fn devices(self) -> &'static [Device] {
        match self {
            Rung::CrossCpuGpu => &[Device::Cpu, Device::Gpu, Device::Link],
            Rung::CpuOnly => &[Device::Cpu],
            Rung::Reference => &[],
        }
    }

    /// Stable lowercase label for trace events and metrics keys.
    pub fn label(self) -> &'static str {
        match self {
            Rung::CrossCpuGpu => "cross",
            Rung::CpuOnly => "cpu-only",
            Rung::Reference => "reference",
        }
    }
}

impl std::fmt::Display for Rung {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            Rung::CrossCpuGpu => write!(f, "CPUTD+GPUCB"),
            Rung::CpuOnly => write!(f, "CPU-only hybrid"),
            Rung::Reference => write!(f, "sequential reference"),
        }
    }
}

/// One resume of a rung from a checkpoint (in-process after a failure, or
/// external via [`RunSession::resume`](crate::session::RunSession::resume)).
#[derive(Clone, Copy, Debug, PartialEq, Serialize, Deserialize)]
pub struct ResumeRecord {
    /// The rung that picked the traversal up.
    pub rung: Rung,
    /// The level it resumed at.
    pub from_level: u32,
    /// `true` if the device-resident frontier was translated to host
    /// (ascending-order) form for a host rung.
    pub translated: bool,
    /// `true` for a cross-process resume from a spilled checkpoint.
    pub external: bool,
}

/// What happened while serving one traversal.
#[derive(Clone, Debug, PartialEq, Serialize, Deserialize)]
pub struct RunReport {
    /// The rung that produced the validated output.
    pub rung: Rung,
    /// Every rung attempted, in order (ends with `rung`); includes rungs
    /// skipped by an open breaker.
    pub rungs_tried: Vec<Rung>,
    /// The subset of `rungs_tried` skipped at selection time by an open
    /// circuit breaker.
    pub skipped_rungs: Vec<Rung>,
    /// Every fault observed, in injection order.
    pub events: Vec<FaultEvent>,
    /// Operation retries spent across all rungs.
    pub retries: u32,
    /// Simulated seconds lost to faults: wasted attempts, backoff waits,
    /// stall excess, and post-checkpoint time of abandoned rungs.
    pub recovery_seconds: f64,
    /// End-to-end simulated seconds, recovery and checkpointing included.
    pub total_seconds: f64,
    /// Every circuit-breaker state change, in simulated-time order.
    pub breaker_transitions: Vec<BreakerTransition>,
    /// Checkpoints cut during this run.
    pub checkpoints_taken: u32,
    /// Total serialized bytes across those checkpoints.
    pub checkpoint_bytes: u64,
    /// Simulated seconds spent making checkpoints durable (device-state
    /// pullbacks) and re-uploading state on a same-rung resume.
    pub checkpoint_seconds: f64,
    /// For a run started by
    /// [`RunSession::resume`](crate::session::RunSession::resume): the
    /// level it resumed at.
    pub resumed_from_level: Option<u32>,
    /// Previously-completed levels that had to be re-executed because the
    /// newest checkpoint was older than the failure point (0 when every
    /// failure resumed exactly where it stopped).
    pub levels_replayed: u32,
    /// Levels actually executed by this process (prefix levels restored
    /// from a checkpoint are not re-executed and not counted).
    pub levels_executed: u32,
    /// Edges examined by the levels this process actually executed.
    pub edges_examined: u64,
    /// Estimated simulated seconds saved by resuming from checkpoints
    /// instead of restarting each serving rung from level 0.
    pub saved_seconds: f64,
    /// Every checkpoint resume, in order.
    pub resumes: Vec<ResumeRecord>,
    /// Silent-data-corruption detections across the run: transfer
    /// checksum failures plus invariant-scrub hits.
    pub corruption_detected: u32,
    /// In-rung corruption repairs (rollbacks, restarts, and tainted
    /// checkpoints discarded) the ladder performed.
    pub corruption_repairs: u32,
}

impl RunReport {
    /// Serialize to JSON (for `--report-json` and the chaos corpus).
    pub fn to_json(&self) -> String {
        serde_json::to_string(self).expect("RunReport serializes")
    }

    /// Parse from JSON.
    pub fn from_json(s: &str) -> Result<Self, XbfsError> {
        serde_json::from_str(s).map_err(|e| XbfsError::InvalidArgument {
            what: format!("run report parse error: {e:?}"),
        })
    }
}

/// A traversal that survived its fault plan.
#[derive(Clone, Debug)]
pub struct RecoveredRun {
    /// The Graph 500–validated BFS result.
    pub output: BfsOutput,
    /// The audit trail.
    pub report: RunReport,
}

/// The global simulated clock, charging every second against an optional
/// deadline budget.
struct Clock {
    elapsed_s: f64,
    budget_s: Option<f64>,
}

impl Clock {
    fn charge(&mut self, seconds: f64) -> Result<(), XbfsError> {
        self.elapsed_s += seconds;
        match self.budget_s {
            Some(b) if self.elapsed_s > b => Err(XbfsError::DeadlineExceeded {
                budget_s: b,
                elapsed_s: self.elapsed_s,
            }),
            _ => Ok(()),
        }
    }
}

/// Why a rung stopped: a blown deadline aborts the whole ladder, detected
/// corruption triggers an in-rung rollback repair, any other permanent
/// fault degrades to the next rung.
enum RungError {
    Fatal(XbfsError),
    Degrade(XbfsError),
    /// A scrub pass caught corrupted traversal state mid-run; the ladder
    /// repairs in place (bounded) instead of degrading.
    Corrupted {
        level: u32,
        what: String,
    },
}

/// What a fallible operation left behind: clean state, or a silent bit
/// flip the caller must apply to the live traversal (the operation itself
/// reported success — only a later scrub or validation can see it).
enum OpOutcome {
    Clean,
    Corrupted {
        payload: CorruptPayload,
        word: u32,
        bit: u8,
    },
}

/// A rung's starting point: fresh at level 0, or mid-traversal from the
/// newest checkpoint.
struct RungStart {
    state: TraversalState,
    driver: CrossDriver,
    device_discovered: u64,
}

/// Shared per-ladder mutable state threaded through the rungs.
struct Recovery<'a> {
    session: FaultSession<'a>,
    retry: RetryPolicy,
    clock: Clock,
    jitter_rng: u64,
    events: Vec<FaultEvent>,
    retries: u32,
    /// Simulated seconds lost to faults so far.
    lost_s: f64,
    /// Copied out of the plan so `attempt_op` needn't re-borrow it past
    /// the session.
    stall_factor: f64,
    health: DeviceHealth,
    checkpoint: CheckpointPolicy,
    /// The newest trusted checkpoint — the ladder's resume point.
    latest: Option<LevelCheckpoint>,
    checkpoints_taken: u32,
    checkpoint_bytes: u64,
    checkpoint_seconds: f64,
    /// Set only by an external resume.
    resumed_from_level: Option<u32>,
    /// `true` until the first `start_for` consumes the external-resume
    /// marker.
    external: bool,
    /// Most levels ever completed by any execution (checkpoint prefix
    /// included).
    furthest_completed: u32,
    levels_replayed: u32,
    levels_executed: u32,
    edges_examined: u64,
    saved_seconds: f64,
    resumes: Vec<ResumeRecord>,
    skipped: Vec<Rung>,
    /// Scrub cadence for mid-run corruption detection.
    scrub: ScrubPolicy,
    /// Whether link transfers are integrity-checksummed at the receiver.
    checksum_transfers: bool,
    /// Bounded in-rung repair attempts per rung after detected corruption.
    corruption_repair_limit: u32,
    /// Corruption detections so far (checksum + scrub).
    corruption_detected: u32,
    /// In-rung corruption repairs performed so far.
    corruption_repairs: u32,
    /// Trace destination; the default [`NULL_SINK`](xbfs_engine::trace::NULL_SINK)
    /// reports itself disabled, so instrumentation sites skip event
    /// construction entirely.
    sink: &'a dyn TraceSink,
}

impl<'a> Recovery<'a> {
    fn new(
        plan: &'a FaultPlan,
        config: &ResilienceConfig,
        lost: &[Device],
        sink: &'a dyn TraceSink,
    ) -> Self {
        // Devices the caller already knows are permanently gone (the query
        // service's shared loss ledger) open their breakers for good at
        // t=0, before the first rung is gated — so a service-wide GPU loss
        // skips the cross rung without this query re-discovering the fault.
        let mut health = DeviceHealth::new(config.breaker, plan.seed);
        for &device in lost {
            health.record_failure(device, 0.0, true);
        }
        Self {
            session: plan.session(),
            retry: config.retry,
            clock: Clock {
                elapsed_s: 0.0,
                budget_s: config.deadline_s,
            },
            jitter_rng: plan.seed ^ JITTER_SALT,
            events: Vec::new(),
            retries: 0,
            lost_s: 0.0,
            stall_factor: plan.stall_factor,
            health,
            checkpoint: config.checkpoint.clone(),
            latest: None,
            checkpoints_taken: 0,
            checkpoint_bytes: 0,
            checkpoint_seconds: 0.0,
            resumed_from_level: None,
            external: false,
            furthest_completed: 0,
            levels_replayed: 0,
            levels_executed: 0,
            edges_examined: 0,
            saved_seconds: 0.0,
            resumes: Vec::new(),
            skipped: Vec::new(),
            scrub: config.scrub,
            checksum_transfers: config.checksum_transfers,
            corruption_repair_limit: config.corruption_repair_limit,
            corruption_detected: 0,
            corruption_repairs: 0,
            sink,
        }
    }

    /// Rebuild the ladder's state from a spilled checkpoint: the clock,
    /// loss ledger, fault-stream position, jitter RNG, and breaker bank
    /// all continue exactly where the checkpointing process stopped.
    fn resume(
        plan: &'a FaultPlan,
        config: &ResilienceConfig,
        ck: &LevelCheckpoint,
        sink: &'a dyn TraceSink,
    ) -> Result<Self, XbfsError> {
        let session = plan.session_at(&ck.fault_cursor)?;
        let mut health = DeviceHealth::new(config.breaker, plan.seed);
        health.restore(&ck.breakers);
        Ok(Self {
            session,
            retry: config.retry,
            clock: Clock {
                elapsed_s: ck.clock_s,
                budget_s: config.deadline_s,
            },
            jitter_rng: ck.jitter_rng,
            events: ck.events.clone(),
            retries: ck.retries,
            lost_s: ck.lost_s,
            stall_factor: plan.stall_factor,
            health,
            checkpoint: config.checkpoint.clone(),
            latest: Some(ck.clone()),
            checkpoints_taken: 0,
            checkpoint_bytes: 0,
            checkpoint_seconds: 0.0,
            resumed_from_level: Some(ck.level()),
            external: true,
            furthest_completed: ck.level(),
            levels_replayed: 0,
            levels_executed: 0,
            edges_examined: 0,
            saved_seconds: 0.0,
            resumes: Vec::new(),
            skipped: Vec::new(),
            scrub: config.scrub,
            checksum_transfers: config.checksum_transfers,
            corruption_repair_limit: config.corruption_repair_limit,
            corruption_detected: 0,
            corruption_repairs: 0,
            sink,
        })
    }

    /// Emit the span for one attempt of a fallible operation: a
    /// [`TraceEvent::Transfer`] for link ops, a [`TraceEvent::Kernel`]
    /// otherwise, ending at the current clock.
    #[allow(clippy::too_many_arguments)] // one flat span, one call site shape
    fn emit_attempt(
        &self,
        op: FaultOp,
        device: Device,
        level: usize,
        attempt: u32,
        bytes: u64,
        start_s: f64,
        ok: bool,
    ) {
        let ev = match op {
            FaultOp::Transfer => TraceEvent::Transfer {
                level: level as u32,
                bytes,
                attempt: attempt - 1,
                start_s,
                end_s: self.clock.elapsed_s,
                ok,
            },
            FaultOp::GpuKernel | FaultOp::CpuKernel => TraceEvent::Kernel {
                device: device.name(),
                op: op.name(),
                level: level as u32,
                attempt: attempt - 1,
                start_s,
                end_s: self.clock.elapsed_s,
                ok,
            },
        };
        self.sink.record(&ev);
    }

    /// Emit the instant for one injected fault.
    fn emit_fault(&self, op: FaultOp, kind: FaultKind, level: usize, attempt: u32) {
        self.sink.record(&TraceEvent::Fault {
            op: op.name(),
            kind: kind.name(),
            level: level as u32,
            attempt: attempt - 1,
            at_s: self.clock.elapsed_s,
        });
    }

    /// Run one fallible operation of nominal duration `nominal_s`,
    /// retrying transients per policy and feeding every outcome to the
    /// device's circuit breaker. `bytes` is the payload size reported on
    /// transfer spans (0 for kernels). An injected bit flip the defenses
    /// could not see returns [`OpOutcome::Corrupted`]: the operation
    /// *succeeded* on the clock and the breaker, but the caller must fold
    /// the flip into its live state.
    #[allow(clippy::too_many_arguments)] // one flat fault surface, three call sites
    fn attempt_op(
        &mut self,
        rung: Rung,
        op: FaultOp,
        level: usize,
        nominal_s: f64,
        device: Device,
        bytes: u64,
    ) -> Result<OpOutcome, RungError> {
        let traced = self.sink.enabled();
        for attempt in 1..=self.retry.max_attempts {
            let start_s = self.clock.elapsed_s;
            match self.session.check(op, level) {
                None => {
                    self.clock.charge(nominal_s).map_err(RungError::Fatal)?;
                    self.health.record_success(device, self.clock.elapsed_s);
                    if traced {
                        self.emit_attempt(op, device, level, attempt, bytes, start_s, true);
                    }
                    return Ok(OpOutcome::Clean);
                }
                Some(FaultKind::BitFlip { payload, word, bit }) => {
                    let kind = FaultKind::BitFlip { payload, word, bit };
                    self.events.push(FaultEvent {
                        op,
                        level,
                        kind,
                        attempt,
                    });
                    if traced {
                        self.emit_fault(op, kind, level, attempt);
                    }
                    if self.checksum_transfers && op == FaultOp::Transfer {
                        // DETECTED: the receiver's checksum rejects the
                        // flipped payload. The attempt's time is wasted
                        // and the transfer retries like a transient.
                        self.corruption_detected += 1;
                        self.lost_s += nominal_s;
                        self.clock.charge(nominal_s).map_err(RungError::Fatal)?;
                        self.health
                            .record_failure(device, self.clock.elapsed_s, false);
                        if traced {
                            self.emit_attempt(op, device, level, attempt, bytes, start_s, false);
                            self.sink.record(&TraceEvent::CorruptionDetected {
                                rung: rung.label(),
                                detector: "checksum",
                                level: level as u32,
                                at_s: self.clock.elapsed_s,
                            });
                        }
                        if attempt == self.retry.max_attempts {
                            return Err(RungError::Degrade(XbfsError::CorruptionDetected {
                                what: format!(
                                    "{} payload failed its integrity checksum ({} bit {} of the {} image)",
                                    op.name(),
                                    word,
                                    bit,
                                    payload.name(),
                                ),
                                level,
                            }));
                        }
                        let u = splitmix_unit(&mut self.jitter_rng);
                        let backoff = self.retry.backoff_s(attempt - 1, u);
                        self.lost_s += backoff;
                        self.retries += 1;
                        let backoff_start = self.clock.elapsed_s;
                        self.clock.charge(backoff).map_err(RungError::Fatal)?;
                        if traced {
                            self.sink.record(&TraceEvent::Backoff {
                                op: op.name(),
                                level: level as u32,
                                retry: attempt - 1,
                                start_s: backoff_start,
                                end_s: self.clock.elapsed_s,
                            });
                        }
                    } else {
                        // SILENT: the operation looks exactly like a
                        // success — full nominal charge, a healthy
                        // breaker sample, an ok span — but the caller's
                        // state is now wrong. Only a scrub or validation
                        // can catch it from here.
                        self.clock.charge(nominal_s).map_err(RungError::Fatal)?;
                        self.health.record_success(device, self.clock.elapsed_s);
                        if traced {
                            self.emit_attempt(op, device, level, attempt, bytes, start_s, true);
                        }
                        return Ok(OpOutcome::Corrupted { payload, word, bit });
                    }
                }
                Some(FaultKind::LinkStall) => {
                    self.events.push(FaultEvent {
                        op,
                        level,
                        kind: FaultKind::LinkStall,
                        attempt,
                    });
                    if traced {
                        self.emit_fault(op, FaultKind::LinkStall, level, attempt);
                    }
                    let stalled = nominal_s * self.stall_factor;
                    self.lost_s += stalled - nominal_s;
                    self.clock.charge(stalled).map_err(RungError::Fatal)?;
                    // Slow but done: a stall is not a breaker failure.
                    self.health.record_success(device, self.clock.elapsed_s);
                    if traced {
                        self.emit_attempt(op, device, level, attempt, bytes, start_s, true);
                    }
                    return Ok(OpOutcome::Clean);
                }
                Some(kind @ (FaultKind::TransferFailure | FaultKind::KernelTimeout)) => {
                    self.events.push(FaultEvent {
                        op,
                        level,
                        kind,
                        attempt,
                    });
                    if traced {
                        self.emit_fault(op, kind, level, attempt);
                    }
                    // The failed attempt's full time is wasted.
                    self.lost_s += nominal_s;
                    self.clock.charge(nominal_s).map_err(RungError::Fatal)?;
                    self.health
                        .record_failure(device, self.clock.elapsed_s, false);
                    if traced {
                        self.emit_attempt(op, device, level, attempt, bytes, start_s, false);
                    }
                    if attempt == self.retry.max_attempts {
                        let e = match kind {
                            FaultKind::TransferFailure => XbfsError::TransferFailed {
                                level,
                                attempts: attempt,
                            },
                            _ => XbfsError::KernelTimeout {
                                device: device.name(),
                                level,
                                attempts: attempt,
                            },
                        };
                        return Err(RungError::Degrade(e));
                    }
                    let u = splitmix_unit(&mut self.jitter_rng);
                    let backoff = self.retry.backoff_s(attempt - 1, u);
                    self.lost_s += backoff;
                    self.retries += 1;
                    let backoff_start = self.clock.elapsed_s;
                    self.clock.charge(backoff).map_err(RungError::Fatal)?;
                    if traced {
                        self.sink.record(&TraceEvent::Backoff {
                            op: op.name(),
                            level: level as u32,
                            retry: attempt - 1,
                            start_s: backoff_start,
                            end_s: self.clock.elapsed_s,
                        });
                    }
                }
                Some(FaultKind::DeviceLost) => {
                    self.events.push(FaultEvent {
                        op,
                        level,
                        kind: FaultKind::DeviceLost,
                        attempt,
                    });
                    if traced {
                        self.emit_fault(op, FaultKind::DeviceLost, level, attempt);
                    }
                    self.health
                        .record_failure(device, self.clock.elapsed_s, true);
                    return Err(RungError::Degrade(XbfsError::DeviceLost {
                        device: device.name(),
                        level,
                    }));
                }
            }
        }
        unreachable!("loop returns on success, exhaustion, or device loss")
    }

    /// Book a completed level into the execution counters and emit its
    /// [`TraceEvent::Level`] span: `start_s` is the clock before the
    /// level's first charge, the span ends at the current clock.
    fn note_level(&mut self, rec: &LevelRecord, rung: Rung, device: &'static str, start_s: f64) {
        self.levels_executed += 1;
        self.edges_examined += rec.edges_examined;
        self.furthest_completed = self.furthest_completed.max(rec.level + 1);
        if self.sink.enabled() {
            self.sink.record(&TraceEvent::Level {
                rung: rung.label(),
                device,
                level: rec.level,
                direction: rec.direction,
                frontier_vertices: rec.frontier_vertices,
                frontier_edges: rec.frontier_edges,
                edges_examined: rec.edges_examined,
                discovered: rec.discovered,
                start_s,
                end_s: self.clock.elapsed_s,
            });
        }
    }

    /// Report every recorded breaker transition to the sink, exactly once
    /// per ladder, at a terminal point — the emitted list is identical to
    /// `RunReport::breaker_transitions` (globally time-sorted), which the
    /// span-tree reconciliation tests rely on.
    fn emit_breakers(&mut self) {
        if !self.sink.enabled() {
            return;
        }
        for tr in self.health.transitions() {
            self.sink.record(&TraceEvent::Breaker {
                device: tr.device.name(),
                from: tr.from.name(),
                to: tr.to.name(),
                cause: tr.cause.name(),
                at_s: tr.at_s,
            });
        }
    }

    /// Cut a checkpoint at the level boundary in front of `st` if one is
    /// due. Device-resident state is drained over the link first (charged
    /// on the clock), so the stored checkpoint is host-durable.
    fn maybe_capture(
        &mut self,
        csr: &Csr,
        rung: Rung,
        st: &TraversalState,
        driver: Option<&CrossDriver>,
        device_discovered: u64,
        link: &Link,
    ) -> Result<(), RungError> {
        if !self.checkpoint.due(st.next_level) || st.is_complete() {
            return Ok(());
        }
        if self
            .latest
            .as_ref()
            .is_some_and(|ck| ck.level() == st.next_level)
        {
            // This boundary is already durable (we just resumed here).
            return Ok(());
        }
        let capture_start_s = self.clock.elapsed_s;
        let handed = driver.is_some_and(|d| d.handed_off());
        let residency = if handed {
            Residency::Device
        } else {
            Residency::Host
        };
        if residency == Residency::Device {
            let t = link.transfer_time(Link::pullback_bytes(
                csr.num_vertices() as u64,
                device_discovered,
                st.frontier.len() as u64,
            ));
            self.checkpoint_seconds += t;
            self.clock.charge(t).map_err(RungError::Fatal)?;
        }
        let ck = LevelCheckpoint {
            format_version: CHECKPOINT_FORMAT_VERSION,
            num_vertices: csr.num_vertices(),
            num_directed_edges: csr.num_directed_edges(),
            rung,
            residency,
            state: st.clone(),
            placements: driver.map(|d| d.placements().to_vec()).unwrap_or_default(),
            handed_off: handed,
            device_discovered,
            clock_s: self.clock.elapsed_s,
            lost_s: self.lost_s,
            retries: self.retries,
            events: self.events.clone(),
            fault_cursor: self.session.cursor(),
            jitter_rng: self.jitter_rng,
            breakers: self.health.snapshot(),
        };
        if ck.validate_for(csr).is_err() {
            // A state that fails its own audit must never become a resume
            // point; keep the previous checkpoint and let end-of-rung
            // validation deal with the corruption.
            return Ok(());
        }
        self.checkpoints_taken += 1;
        let bytes = ck.byte_size();
        self.checkpoint_bytes += bytes;
        let spilled = self.checkpoint.spill.is_some();
        if let Some(path) = self.checkpoint.spill.clone() {
            ck.spill(&path).map_err(RungError::Fatal)?;
        }
        self.latest = Some(ck);
        if self.sink.enabled() {
            self.sink.record(&TraceEvent::Checkpoint {
                rung: rung.label(),
                level: st.next_level,
                bytes,
                spilled,
                start_s: capture_start_s,
                end_s: self.clock.elapsed_s,
            });
        }
        Ok(())
    }

    /// Run the invariant scrubber at the boundary in front of `st` if one
    /// is due. A hit is a detected corruption: the ladder answers with a
    /// rollback repair instead of letting the rung run the corruption to
    /// completion. Scrubbing charges no simulated time — the pass is
    /// memory-bandwidth work the runtime overlaps with the next level's
    /// setup — so enabling it on a fault-free run leaves the clock (and
    /// the whole trace) untouched.
    fn maybe_scrub(&mut self, csr: &Csr, rung: Rung, st: &TraversalState) -> Result<(), RungError> {
        if !self.scrub.due(st.next_level) {
            return Ok(());
        }
        let Some(what) = scrub_state(csr, st) else {
            return Ok(());
        };
        self.corruption_detected += 1;
        if self.sink.enabled() {
            self.sink.record(&TraceEvent::CorruptionDetected {
                rung: rung.label(),
                detector: "scrub",
                level: st.next_level,
                at_s: self.clock.elapsed_s,
            });
        }
        Err(RungError::Corrupted {
            level: st.next_level,
            what,
        })
    }

    /// Where `rung` starts: fresh at level 0, or resumed from the newest
    /// checkpoint (translating representation and charging a re-upload as
    /// needed), with the resume booked into the report counters.
    #[allow(clippy::too_many_arguments)]
    fn start_for(
        &mut self,
        rung: Rung,
        csr: &Csr,
        source: VertexId,
        params: &CrossParams,
        cpu: &ArchSpec,
        gpu: &ArchSpec,
        link: &Link,
    ) -> Result<RungStart, RungError> {
        let external = std::mem::take(&mut self.external);
        let Some(ck) = self.latest.clone() else {
            return Ok(RungStart {
                state: TraversalState::start(csr, source),
                driver: CrossDriver::new(*params),
                device_discovered: 0,
            });
        };
        let from = ck.level();
        let mut state = ck.state.clone();
        let mut translated = false;
        let (driver, device_discovered) = match rung {
            Rung::CrossCpuGpu => {
                // Only reachable from a cross checkpoint: the in-process
                // ladder never climbs back up, and an external resume
                // starts at the checkpoint's own rung.
                if ck.handed_off {
                    // The checkpoint is host-durable; put the frontier and
                    // visited bitmap back on the device before continuing
                    // the GPU phase. Supervised machinery, not a faultable
                    // kernel launch — charged, never injected.
                    let t = link.transfer_time(Link::handoff_bytes(
                        csr.num_vertices() as u64,
                        state.frontier.len() as u64,
                    ));
                    self.checkpoint_seconds += t;
                    self.clock.charge(t).map_err(RungError::Fatal)?;
                }
                (
                    CrossDriver::resume(*params, ck.handed_off, ck.placements.clone()),
                    ck.device_discovered,
                )
            }
            Rung::CpuOnly | Rung::Reference => {
                if ck.residency == Residency::Device {
                    // GPU frontier → host queue: the drain produces
                    // ascending vertex order, exactly what a bitmap yields.
                    state.frontier = ck.host_order_frontier();
                    translated = true;
                }
                (CrossDriver::new(*params), 0)
            }
        };
        // What re-running the restored prefix on this rung would have
        // cost — the resume's saving vs a restart from scratch. For host
        // rungs resuming a cross prefix this is an estimate (the prefix
        // records carry the cross policy's direction choices).
        let saved = match rung {
            Rung::CrossCpuGpu => {
                let mut handed = false;
                let mut s = 0.0;
                for (i, r) in state.levels.iter().enumerate() {
                    let on_gpu = ck.placements.get(i).is_some_and(|p| p.on_gpu());
                    if on_gpu && !handed {
                        handed = true;
                        s += link.transfer_time(Link::handoff_bytes(
                            csr.num_vertices() as u64,
                            r.frontier_vertices,
                        ));
                    }
                    s += cost::level_time_for_record(if on_gpu { gpu } else { cpu }, r);
                }
                s
            }
            Rung::CpuOnly => state
                .levels
                .iter()
                .map(|r| cost::level_time_for_record(cpu, r))
                .sum(),
            Rung::Reference => {
                let penalty = reference_sequential_penalty(cpu);
                state
                    .levels
                    .iter()
                    .map(|r| cost::level_time_for_record(cpu, r) * penalty)
                    .sum()
            }
        };
        self.saved_seconds += saved;
        self.levels_replayed += self.furthest_completed.saturating_sub(from);
        self.resumes.push(ResumeRecord {
            rung,
            from_level: from,
            translated,
            external,
        });
        if self.sink.enabled() {
            self.sink.record(&TraceEvent::Resume {
                rung: rung.label(),
                from_level: from,
                translated,
                external,
                at_s: self.clock.elapsed_s,
            });
        }
        Ok(RungStart {
            state,
            driver,
            device_discovered,
        })
    }
}

/// Everything an execution needs besides its starting point: the graph,
/// the platform, the fault plan, the failure policy, and the trace sink.
/// [`RunSession`](crate::session::RunSession) assembles one of these.
pub(crate) struct ExecArgs<'a> {
    pub csr: &'a Csr,
    pub cpu: &'a ArchSpec,
    pub gpu: &'a ArchSpec,
    pub link: &'a Link,
    pub params: &'a CrossParams,
    pub plan: &'a FaultPlan,
    pub config: &'a ResilienceConfig,
    /// Devices known lost before the run starts (fresh runs only; a
    /// resumed run trusts its checkpoint's breaker bank instead).
    pub lost: &'a [Device],
    pub sink: &'a dyn TraceSink,
    /// Optional online per-level policy; `None` (and passthrough cells)
    /// take the plain offline path, byte-identical to the pre-policy code.
    pub policy: Option<&'a crate::policy_online::PolicyCell>,
}

/// Start the full degradation ladder fresh from `source`.
pub(crate) fn execute_fresh(
    args: &ExecArgs<'_>,
    source: VertexId,
) -> Result<RecoveredRun, XbfsError> {
    args.params.validate()?;
    args.plan.validate()?;
    args.config.validate()?;
    if source >= args.csr.num_vertices() {
        return Err(XbfsError::BadSource {
            source,
            num_vertices: args.csr.num_vertices(),
        });
    }
    let rec = Recovery::new(args.plan, args.config, args.lost, args.sink);
    ladder(
        args,
        source,
        rec,
        &[Rung::CrossCpuGpu, Rung::CpuOnly, Rung::Reference],
    )
}

/// Resume the ladder from `checkpoint`, starting at its rung.
pub(crate) fn execute_resume(
    args: &ExecArgs<'_>,
    checkpoint: &LevelCheckpoint,
) -> Result<RecoveredRun, XbfsError> {
    args.params.validate()?;
    args.plan.validate()?;
    args.config.validate()?;
    checkpoint.validate_for(args.csr)?;
    let source = checkpoint.state.output.source;
    let rec = Recovery::resume(args.plan, args.config, checkpoint, args.sink)?;
    let rungs: &[Rung] = match checkpoint.rung {
        Rung::CrossCpuGpu => &[Rung::CrossCpuGpu, Rung::CpuOnly, Rung::Reference],
        Rung::CpuOnly => &[Rung::CpuOnly, Rung::Reference],
        Rung::Reference => &[Rung::Reference],
    };
    ladder(args, source, rec, rungs)
}

/// The degradation ladder shared by fresh and resumed entries.
fn ladder(
    args: &ExecArgs<'_>,
    source: VertexId,
    mut rec: Recovery<'_>,
    rungs: &[Rung],
) -> Result<RecoveredRun, XbfsError> {
    let csr = args.csr;
    let mut rungs_tried = Vec::new();
    let mut last_error: Option<XbfsError> = None;

    for &rung in rungs {
        rungs_tried.push(rung);
        // Rung-selection gate: a sick device is skipped here instead of
        // rediscovered through a full retry budget.
        if let Some((device, _state)) = rec.health.first_denial(rung.devices(), rec.clock.elapsed_s)
        {
            rec.skipped.push(rung);
            if rec.sink.enabled() {
                rec.sink.record(&TraceEvent::RungSkipped {
                    rung: rung.label(),
                    device: device.name(),
                    at_s: rec.clock.elapsed_s,
                });
            }
            last_error = Some(XbfsError::CircuitOpen {
                device: device.name(),
            });
            continue;
        }
        if rec.sink.enabled() {
            rec.sink.record(&TraceEvent::RungBegin {
                rung: rung.label(),
                at_s: rec.clock.elapsed_s,
            });
        }
        let rung_start_latest = rec.latest.clone();
        let retained_at_start = retained_productive(&rec.latest);
        // Detected-corruption repair loop: a scrub hit rewinds this rung
        // to its last *trusted* checkpoint and re-executes, a bounded
        // number of times, before the rung is allowed to give up.
        let mut repair_attempts: u32 = 0;
        let outcome = loop {
            let result = match rung {
                Rung::CrossCpuGpu => run_rung_cross(args, source, &mut rec),
                Rung::CpuOnly => run_rung_cpu_only(args, source, &mut rec),
                Rung::Reference => run_rung_reference(args, source, &mut rec),
            };
            let Err(RungError::Corrupted { level, what }) = result else {
                break result;
            };
            repair_attempts += 1;
            if repair_attempts > rec.corruption_repair_limit {
                break Err(RungError::Degrade(XbfsError::CorruptionUnrecovered {
                    level: level as usize,
                    attempts: repair_attempts - 1,
                    what,
                }));
            }
            // Pick the repair point. The newest checkpoint is re-audited
            // before it is trusted: if the corruption predates its
            // capture, it is tainted — discard it and fall back to the
            // rung-start checkpoint (or a from-scratch restart).
            let action = match rec.latest.as_ref() {
                Some(ck) if ck.validate_for(csr).is_err() => {
                    rec.latest = rung_start_latest.clone();
                    "taint"
                }
                Some(_) => "rollback",
                None => "restart",
            };
            let to_level = rec.latest.as_ref().map_or(0, |ck| ck.level());
            // Everything after the trusted checkpoint is forfeit.
            let retained = retained_productive(&rec.latest);
            let productive_now = rec.clock.elapsed_s - rec.lost_s;
            rec.lost_s += (productive_now - retained).max(0.0);
            rec.corruption_repairs += 1;
            if rec.sink.enabled() {
                rec.sink.record(&TraceEvent::CorruptionRepair {
                    rung: rung.label(),
                    action,
                    to_level,
                    attempt: repair_attempts,
                    at_s: rec.clock.elapsed_s,
                });
            }
            // Re-run the same rung from the repair point. The fault
            // session keeps its forward position: fired one-shots do not
            // re-fire, so the repaired pass re-executes clean unless the
            // plan schedules further corruption.
        };
        let emit_rung_end = |rec: &Recovery<'_>, outcome: RungOutcome| {
            if rec.sink.enabled() {
                rec.sink.record(&TraceEvent::RungEnd {
                    rung: rung.label(),
                    at_s: rec.clock.elapsed_s,
                    outcome,
                });
            }
        };
        match outcome {
            Ok(output) => match validate(csr, &output) {
                Ok(()) => {
                    emit_rung_end(&rec, RungOutcome::Served);
                    rec.emit_breakers();
                    let report = RunReport {
                        rung,
                        rungs_tried,
                        skipped_rungs: rec.skipped,
                        events: rec.events,
                        retries: rec.retries,
                        recovery_seconds: rec.lost_s,
                        total_seconds: rec.clock.elapsed_s,
                        breaker_transitions: rec.health.transitions(),
                        checkpoints_taken: rec.checkpoints_taken,
                        checkpoint_bytes: rec.checkpoint_bytes,
                        checkpoint_seconds: rec.checkpoint_seconds,
                        resumed_from_level: rec.resumed_from_level,
                        levels_replayed: rec.levels_replayed,
                        levels_executed: rec.levels_executed,
                        edges_examined: rec.edges_examined,
                        saved_seconds: rec.saved_seconds,
                        resumes: rec.resumes,
                        corruption_detected: rec.corruption_detected,
                        corruption_repairs: rec.corruption_repairs,
                    };
                    return Ok(RecoveredRun { output, report });
                }
                Err(v) => {
                    emit_rung_end(&rec, RungOutcome::Invalid);
                    // A rung that emits a corrupt tree is a faulty rung.
                    // Checkpoints it cut are tainted too: roll back to the
                    // rung-start checkpoint and convert everything after
                    // it to loss.
                    let productive_now = rec.clock.elapsed_s - rec.lost_s;
                    rec.lost_s += (productive_now - retained_at_start).max(0.0);
                    rec.latest = rung_start_latest;
                    last_error = Some(XbfsError::Validation(v));
                }
            },
            Err(RungError::Fatal(e)) => {
                emit_rung_end(&rec, RungOutcome::Fatal);
                rec.emit_breakers();
                return Err(e);
            }
            Err(RungError::Degrade(e)) => {
                emit_rung_end(&rec, RungOutcome::Degraded);
                // Time since the newest checkpoint is gone; everything up
                // to it survives for the next rung to resume from.
                let retained = retained_productive(&rec.latest);
                let productive_now = rec.clock.elapsed_s - rec.lost_s;
                rec.lost_s += (productive_now - retained).max(0.0);
                last_error = Some(e);
            }
            Err(RungError::Corrupted { .. }) => {
                unreachable!("detected corruption is repaired or converted inside the rung loop")
            }
        }
    }
    rec.emit_breakers();
    Err(last_error.expect("ladder only exits the loop after a rung failure"))
}

/// The productive simulated seconds preserved by the newest checkpoint —
/// what a rung failure does *not* forfeit.
fn retained_productive(latest: &Option<LevelCheckpoint>) -> f64 {
    latest.as_ref().map_or(0.0, |ck| ck.clock_s - ck.lost_s)
}

/// Fold one silently injected bit flip into the live traversal state —
/// the simulated effect of corrupted data landing from an operation that
/// reported success. `Parents` flips one bit of one parent-map word;
/// `Bitmap` toggles one frontier-membership bit (adding a ghost vertex or
/// erasing a real one). Indexes wrap modulo the state size so any plan is
/// applicable to any graph.
fn apply_bit_flip(state: &mut TraversalState, payload: CorruptPayload, word: u32, bit: u8) {
    let n = state.output.parents.len();
    if n == 0 {
        return;
    }
    match payload {
        CorruptPayload::Parents => {
            state.output.parents[word as usize % n] ^= 1u32 << (bit % 32);
        }
        CorruptPayload::Bitmap => {
            let v = ((word as usize) * 32 + (bit as usize) % 32) % n;
            let v = v as VertexId;
            match state.frontier.iter().position(|&f| f == v) {
                Some(i) => {
                    state.frontier.remove(i);
                }
                None => state.frontier.push(v),
            }
        }
    }
}

/// Rung 1: Algorithm 3 with fault checks on the handoff transfer and every
/// kernel launch, stepping level-by-level so checkpoints can be cut at
/// boundaries.
fn run_rung_cross(
    args: &ExecArgs<'_>,
    source: VertexId,
    rec: &mut Recovery<'_>,
) -> Result<BfsOutput, RungError> {
    let (csr, cpu, gpu, link, params) = (args.csr, args.cpu, args.gpu, args.link, args.params);
    if rec.session.gpu_lost() {
        return Err(RungError::Degrade(XbfsError::DeviceLost {
            device: "gpu",
            level: 0,
        }));
    }
    let RungStart {
        mut state,
        mut driver,
        mut device_discovered,
    } = rec.start_for(Rung::CrossCpuGpu, csr, source, params, cpu, gpu, link)?;
    let n = csr.num_vertices() as u64;
    // A passthrough cell (frozen, never updated) can only ever pick the
    // offline arm, so it takes the exact pre-policy code path: no feature
    // folds, no PolicyDecision events, bit-identical output and trace.
    let policy = args.policy.filter(|cell| !cell.borrow().is_passthrough());
    loop {
        // Scrub before the capture gate: a corrupt state must be caught
        // here, never frozen into a resume point.
        rec.maybe_scrub(csr, Rung::CrossCpuGpu, &state)?;
        rec.maybe_capture(
            csr,
            Rung::CrossCpuGpu,
            &state,
            Some(&driver),
            device_discovered,
            link,
        )?;
        let level_start_s = rec.clock.elapsed_s;
        let was_handed = driver.handed_off();
        let decision = match policy {
            Some(cell) if !state.frontier.is_empty() => {
                let ctx = crate::policy_online::switch_context_for(csr, &state);
                let offline = driver.offline_placement(&ctx);
                Some(cell.borrow().decide(&ctx, was_handed, offline))
            }
            _ => None,
        };
        let stepped = match decision {
            Some(d) => driver.step_forced(csr, &mut state, d.placement),
            None => driver.step(csr, &mut state),
        };
        let Some(pl) = stepped else {
            break;
        };
        let lvl = *state.levels.last().expect("step pushed a record");
        if let Some(d) = decision {
            if rec.sink.enabled() {
                rec.sink.record(&TraceEvent::PolicyDecision {
                    level: lvl.level,
                    bin: d.bin,
                    device: pl.device(),
                    direction: pl.direction(),
                    explore: d.explore,
                    at_s: level_start_s,
                });
            }
        }
        // The policy's reward: the level's kernel time plus the handoff
        // transfer when this decision fired it.
        let mut observed_s = 0.0;
        if pl.on_gpu() && !was_handed {
            let bytes = Link::handoff_bytes(n, lvl.frontier_vertices);
            let mut t = link.transfer_time(bytes);
            if rec.checksum_transfers {
                t += link.checksum_time(bytes);
            }
            observed_s += t;
            if let OpOutcome::Corrupted { payload, word, bit } = rec.attempt_op(
                Rung::CrossCpuGpu,
                FaultOp::Transfer,
                lvl.level as usize,
                t,
                Device::Link,
                bytes,
            )? {
                apply_bit_flip(&mut state, payload, word, bit);
            }
        }
        let (op, device, arch, device_label) = if pl.on_gpu() {
            (FaultOp::GpuKernel, Device::Gpu, gpu, "gpu")
        } else {
            (FaultOp::CpuKernel, Device::Cpu, cpu, "cpu")
        };
        let nominal = cost::level_time_for_record_traced(
            arch,
            &lvl,
            device_label,
            rec.clock.elapsed_s,
            rec.sink,
        );
        if let OpOutcome::Corrupted { payload, word, bit } = rec.attempt_op(
            Rung::CrossCpuGpu,
            op,
            lvl.level as usize,
            nominal,
            device,
            0,
        )? {
            apply_bit_flip(&mut state, payload, word, bit);
        }
        observed_s += nominal;
        if let (Some(cell), Some(d)) = (policy, decision) {
            cell.borrow_mut().observe(d.bin, pl, observed_s);
        }
        rec.note_level(&lvl, Rung::CrossCpuGpu, device_label, level_start_s);
        if pl.on_gpu() {
            device_discovered += lvl.discovered;
        }
    }
    Ok(state.into_traversal().output)
}

/// Rung 2: CPU-only direction-optimizing hybrid at Beamer-default
/// thresholds, with fault checks on every level kernel.
fn run_rung_cpu_only(
    args: &ExecArgs<'_>,
    source: VertexId,
    rec: &mut Recovery<'_>,
) -> Result<BfsOutput, RungError> {
    let (csr, cpu, gpu, link, params) = (args.csr, args.cpu, args.gpu, args.link, args.params);
    if rec.session.cpu_lost() {
        return Err(RungError::Degrade(XbfsError::DeviceLost {
            device: "cpu",
            level: 0,
        }));
    }
    let RungStart { mut state, .. } =
        rec.start_for(Rung::CpuOnly, csr, source, params, cpu, gpu, link)?;
    let mut mn = FixedMN::new(14.0, 24.0);
    loop {
        rec.maybe_scrub(csr, Rung::CpuOnly, &state)?;
        rec.maybe_capture(csr, Rung::CpuOnly, &state, None, 0, link)?;
        let level_start_s = rec.clock.elapsed_s;
        if state.step(csr, &mut mn).is_none() {
            break;
        }
        let lvl = *state.levels.last().expect("step pushed a record");
        let nominal =
            cost::level_time_for_record_traced(cpu, &lvl, "cpu", rec.clock.elapsed_s, rec.sink);
        if let OpOutcome::Corrupted { payload, word, bit } = rec.attempt_op(
            Rung::CpuOnly,
            FaultOp::CpuKernel,
            lvl.level as usize,
            nominal,
            Device::Cpu,
            0,
        )? {
            apply_bit_flip(&mut state, payload, word, bit);
        }
        rec.note_level(&lvl, Rung::CpuOnly, "cpu", level_start_s);
    }
    Ok(state.into_traversal().output)
}

/// Rung 3: sequential reference BFS — assumed fault-free (no accelerator,
/// no parallel kernels) but still on the simulated clock: each level is
/// charged the CPU's top-down cost scaled up by its core count, the cost
/// model's view of single-threaded execution.
fn run_rung_reference(
    args: &ExecArgs<'_>,
    source: VertexId,
    rec: &mut Recovery<'_>,
) -> Result<BfsOutput, RungError> {
    let (csr, cpu, gpu, link, params) = (args.csr, args.cpu, args.gpu, args.link, args.params);
    let RungStart { mut state, .. } =
        rec.start_for(Rung::Reference, csr, source, params, cpu, gpu, link)?;
    let mut td = AlwaysTopDown;
    let penalty = reference_sequential_penalty(cpu);
    loop {
        rec.maybe_scrub(csr, Rung::Reference, &state)?;
        rec.maybe_capture(csr, Rung::Reference, &state, None, 0, link)?;
        let level_start_s = rec.clock.elapsed_s;
        if state.step(csr, &mut td).is_none() {
            break;
        }
        let lvl = *state.levels.last().expect("step pushed a record");
        let charge = cost::level_time_for_record(cpu, &lvl) * penalty;
        if rec.sink.enabled() {
            // The reference rung bypasses `attempt_op` (it is fault-free
            // by construction), so its kernel span and cost decomposition
            // are emitted here. The charged value stays `charge`, exactly.
            let parts = cost::level_cost_parts_for_record(cpu, &lvl);
            rec.sink.record(&TraceEvent::KernelCost {
                device: "cpu",
                level: lvl.level,
                direction: lvl.direction,
                total_s: charge,
                overhead_s: parts.overhead_s * penalty,
                work_s: parts.work_s * penalty,
                bound: "reference-serial",
                at_s: rec.clock.elapsed_s,
            });
        }
        rec.clock.charge(charge).map_err(RungError::Fatal)?;
        if rec.sink.enabled() {
            rec.sink.record(&TraceEvent::Kernel {
                device: "cpu",
                op: "cpu-kernel",
                level: lvl.level,
                attempt: 0,
                start_s: level_start_s,
                end_s: rec.clock.elapsed_s,
                ok: true,
            });
        }
        rec.note_level(&lvl, Rung::Reference, "cpu", level_start_s);
    }
    Ok(state.into_traversal().output)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::session::RunSession;
    use xbfs_archsim::fault::ScheduledFault;

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

    /// The runtime defaults with checkpoints disabled and an optional
    /// deadline: the configuration the ladder's first entry point ran.
    fn legacy_config(deadline_s: Option<f64>) -> ResilienceConfig {
        ResilienceConfig {
            deadline_s,
            checkpoint: CheckpointPolicy::disabled(),
            ..ResilienceConfig::default_runtime()
        }
    }

    #[test]
    fn healthy_plan_stays_on_the_top_rung() {
        let (g, src, cpu, gpu, link, params) = setup();
        let plan = FaultPlan::none();
        let run = RunSession::on_platform(&g, &cpu, &gpu, &link, &params)
            .source(src)
            .fault_plan(&plan)
            .resilience(legacy_config(None))
            .run()
            .expect("healthy run succeeds");
        assert_eq!(run.report.rung, Rung::CrossCpuGpu);
        assert_eq!(run.report.rungs_tried, vec![Rung::CrossCpuGpu]);
        assert!(run.report.events.is_empty());
        assert_eq!(run.report.retries, 0);
        assert_eq!(run.report.recovery_seconds, 0.0);
        assert!(run.report.total_seconds > 0.0);
        // Legacy entry: checkpointing off, nothing skipped, no breaker
        // activity.
        assert_eq!(run.report.checkpoints_taken, 0);
        assert!(run.report.skipped_rungs.is_empty());
        assert!(run.report.breaker_transitions.is_empty());
        assert!(run.report.resumes.is_empty());
        assert_eq!(run.report.resumed_from_level, None);
    }

    #[test]
    fn retry_policy_rejects_bad_ranges() {
        let mut r = RetryPolicy::default_runtime();
        r.max_attempts = 0;
        assert!(r.validate().is_err());
        let mut r = RetryPolicy::default_runtime();
        r.backoff_factor = 0.5;
        assert!(r.validate().is_err());
        let mut r = RetryPolicy::default_runtime();
        r.jitter_frac = 2.0;
        assert!(r.validate().is_err());
        assert!(RetryPolicy::default_runtime().validate().is_ok());
        assert!(RetryPolicy::none().validate().is_ok());
    }

    #[test]
    fn resilience_config_validates_components() {
        assert!(ResilienceConfig::default_runtime().validate().is_ok());
        let mut c = ResilienceConfig::default_runtime();
        c.retry.max_attempts = 0;
        assert!(c.validate().is_err());
        let mut c = ResilienceConfig::default_runtime();
        c.checkpoint = CheckpointPolicy {
            interval_levels: 0,
            spill: Some("/tmp/x.json".into()),
        };
        assert!(c.validate().is_err());
        let mut c = ResilienceConfig::default_runtime();
        c.breaker.failure_threshold = 0;
        assert!(c.validate().is_err());
        let mut c = ResilienceConfig::default_runtime();
        c.deadline_s = Some(-1.0);
        assert!(c.validate().is_err());
    }

    #[test]
    fn cpu_device_loss_reaches_the_reference_rung() {
        let (g, src, cpu, gpu, link, params) = setup();
        // Kill the CPU at its very first kernel: rung 1 dies at level 0,
        // rung 2 is skipped (CPU breaker is permanently open), the
        // reference rung serves.
        let plan = FaultPlan {
            scheduled: vec![ScheduledFault {
                op: FaultOp::CpuKernel,
                level: 0,
                kind: FaultKind::DeviceLost,
            }],
            ..FaultPlan::none()
        };
        let run = RunSession::on_platform(&g, &cpu, &gpu, &link, &params)
            .source(src)
            .fault_plan(&plan)
            .resilience(legacy_config(None))
            .run()
            .expect("reference rung still serves");
        assert_eq!(run.report.rung, Rung::Reference);
        assert_eq!(
            run.report.rungs_tried,
            vec![Rung::CrossCpuGpu, Rung::CpuOnly, Rung::Reference]
        );
        assert_eq!(validate(&g, &run.output), Ok(()));
        // The breaker, not a wasted execution, vetoed the CPU-only rung.
        assert_eq!(run.report.skipped_rungs, vec![Rung::CpuOnly]);
        assert!(run
            .report
            .breaker_transitions
            .iter()
            .any(|t| t.device == Device::Cpu
                && t.cause == crate::health::TransitionCause::DeviceLost));
    }

    #[test]
    fn deadline_zero_budget_is_rejected_as_argument() {
        let (g, src, cpu, gpu, link, params) = setup();
        let err = RunSession::on_platform(&g, &cpu, &gpu, &link, &params)
            .source(src)
            .fault_plan(&FaultPlan::none())
            .resilience(legacy_config(Some(0.0)))
            .run()
            .unwrap_err();
        assert!(matches!(err, XbfsError::InvalidArgument { .. }));
    }

    #[test]
    fn bad_source_is_a_typed_error() {
        let (g, _, cpu, gpu, link, params) = setup();
        let err = RunSession::on_platform(&g, &cpu, &gpu, &link, &params)
            .source(g.num_vertices() + 7)
            .fault_plan(&FaultPlan::none())
            .resilience(legacy_config(None))
            .run()
            .unwrap_err();
        assert!(matches!(err, XbfsError::BadSource { .. }));
    }

    #[test]
    fn checkpointing_off_matches_pr1_clock_exactly() {
        // Checkpointing off, built as the legacy configuration or as a
        // struct update of the runtime defaults, replays the seeded fault
        // stream and the clock identically.
        let (g, src, cpu, gpu, link, params) = setup();
        let plan = FaultPlan {
            p_transfer_failure: 0.3,
            p_kernel_timeout: 0.2,
            ..FaultPlan::none()
        };
        let legacy = RunSession::on_platform(&g, &cpu, &gpu, &link, &params)
            .source(src)
            .fault_plan(&plan)
            .resilience(legacy_config(None))
            .run()
            .expect("legacy");
        let config = ResilienceConfig {
            checkpoint: CheckpointPolicy::disabled(),
            ..ResilienceConfig::default_runtime()
        };
        let with = RunSession::on_platform(&g, &cpu, &gpu, &link, &params)
            .source(src)
            .fault_plan(&plan)
            .resilience(config)
            .run()
            .expect("with");
        assert_eq!(legacy.output, with.output);
        assert_eq!(legacy.report.total_seconds, with.report.total_seconds);
        assert_eq!(legacy.report.events, with.report.events);
        assert_eq!(legacy.report.recovery_seconds, with.report.recovery_seconds);
    }

    #[test]
    fn gpu_loss_after_checkpoint_resumes_cpu_rung_mid_traversal() {
        let (g, src, cpu, gpu, link, params) = setup();
        // Lose the GPU at its first operation (the handoff transfer). With
        // a checkpoint cut every level, the CPU-only rung resumes from the
        // last boundary instead of restarting at level 0.
        let plan = FaultPlan {
            p_device_lost: 1.0,
            ..FaultPlan::none()
        };
        let config = ResilienceConfig {
            checkpoint: CheckpointPolicy::every(1),
            ..ResilienceConfig::default_runtime()
        };
        let run = RunSession::on_platform(&g, &cpu, &gpu, &link, &params)
            .source(src)
            .fault_plan(&plan)
            .resilience(config)
            .run()
            .expect("cpu rung serves");
        assert_eq!(run.report.rung, Rung::CpuOnly);
        assert_eq!(validate(&g, &run.output), Ok(()));
        assert!(run.report.checkpoints_taken > 0);
        assert!(run.report.checkpoint_bytes > 0);
        let resume = run
            .report
            .resumes
            .iter()
            .find(|r| r.rung == Rung::CpuOnly)
            .expect("cpu rung resumed from checkpoint");
        assert!(resume.from_level > 0);
        assert!(!resume.external);
        assert!(run.report.saved_seconds > 0.0);
        // The levels the CPU rung skipped were the checkpointed prefix.
        let total_levels = run
            .output
            .levels
            .iter()
            .filter(|&&l| l != xbfs_engine::UNREACHED)
            .max()
            .copied()
            .unwrap()
            + 1;
        assert!(run.report.levels_executed < 2 * total_levels);
    }

    #[test]
    fn spilled_checkpoint_resumes_in_a_fresh_ladder() {
        let (g, src, cpu, gpu, link, params) = setup();
        let dir = std::env::temp_dir().join("xbfs-recovery-test");
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("resume.json");
        let path_s = path.to_str().unwrap().to_string();
        // Healthy run that spills a checkpoint each boundary, then resume
        // the final spill externally: the resumed run must reproduce the
        // same tree and the same final clock.
        let config = ResilienceConfig {
            checkpoint: CheckpointPolicy {
                interval_levels: 2,
                spill: Some(path_s.clone()),
            },
            ..ResilienceConfig::default_runtime()
        };
        let plan = FaultPlan::none();
        let full = RunSession::on_platform(&g, &cpu, &gpu, &link, &params)
            .source(src)
            .fault_plan(&plan)
            .resilience(config.clone())
            .run()
            .expect("healthy spilling run");
        let ck = LevelCheckpoint::load(&path_s).expect("spill exists");
        assert!(ck.level() >= 2);
        let resumed = RunSession::on_platform(&g, &cpu, &gpu, &link, &params)
            .fault_plan(&plan)
            .resilience(config)
            .resume(&ck)
            .expect("resume");
        assert_eq!(resumed.output, full.output);
        assert_eq!(resumed.report.rung, full.report.rung);
        assert_eq!(resumed.report.resumed_from_level, Some(ck.level()));
        assert!(resumed.report.resumes[0].external);
        // The resumed process only executed the suffix.
        assert!(resumed.report.levels_executed < full.report.levels_executed);
        let _ = std::fs::remove_file(&path);
    }

    /// Drive the ladder with an explicit rung list and trace sink — the
    /// corruption tests pin the traversal to one rung so a scheduled flip
    /// lands deterministically.
    fn run_ladder(
        g: &Csr,
        src: u32,
        plan: &FaultPlan,
        config: &ResilienceConfig,
        rungs: &[Rung],
        sink: &dyn TraceSink,
    ) -> Result<RecoveredRun, XbfsError> {
        let cpu = ArchSpec::cpu_sandy_bridge();
        let gpu = ArchSpec::gpu_k20x();
        let link = Link::pcie3();
        let params = CrossParams {
            handoff: FixedMN::new(64.0, 64.0),
            gpu: FixedMN::new(14.0, 24.0),
        };
        let args = ExecArgs {
            csr: g,
            cpu: &cpu,
            gpu: &gpu,
            link: &link,
            params: &params,
            plan,
            config,
            lost: &[],
            sink,
            policy: None,
        };
        let rec = Recovery::new(plan, config, &[], sink);
        ladder(&args, src, rec, rungs)
    }

    /// A parent-map flip with bit 31 set always breaks the tree: a visited
    /// vertex's parent jumps out of range, an unvisited one gains a parent
    /// with no level. Either way the scrub invariants catch it.
    fn parent_flip_at(level: usize) -> ScheduledFault {
        ScheduledFault {
            op: FaultOp::CpuKernel,
            level,
            kind: FaultKind::BitFlip {
                payload: CorruptPayload::Parents,
                word: 1,
                bit: 31,
            },
        }
    }

    #[test]
    fn silent_flip_with_scrub_off_never_serves_a_wrong_tree() {
        let (g, src, cpu, gpu, link, params) = setup();
        // No scrubbing, no checksums: the flip lands silently at level 0
        // of the cross rung and the end-of-run validation gate is the only
        // defense left. The ladder must reject the corrupt tree and serve
        // from a lower rung — never return the wrong answer.
        let plan = FaultPlan {
            scheduled: vec![parent_flip_at(0)],
            ..FaultPlan::none()
        };
        let config = ResilienceConfig::default_runtime();
        let run = RunSession::on_platform(&g, &cpu, &gpu, &link, &params)
            .source(src)
            .fault_plan(&plan)
            .resilience(config)
            .run()
            .expect("a lower rung serves a clean tree");
        assert_eq!(validate(&g, &run.output), Ok(()));
        assert_ne!(run.report.rung, Rung::CrossCpuGpu);
        assert_eq!(run.report.events.len(), 1);
        // Nothing detected the flip mid-run — only the validation gate.
        assert_eq!(run.report.corruption_detected, 0);
        assert_eq!(run.report.corruption_repairs, 0);
    }

    #[test]
    fn scrub_detects_a_flip_and_rolls_back_to_the_last_checkpoint() {
        let (g, src, ..) = setup();
        // Flip at level 3 with a checkpoint boundary at 2: the level-4
        // scrub pass catches the corruption and the repair rolls back to
        // level 2 instead of restarting, all within the same rung.
        let plan = FaultPlan {
            scheduled: vec![parent_flip_at(3)],
            ..FaultPlan::none()
        };
        let config = ResilienceConfig {
            checkpoint: CheckpointPolicy::every(2),
            scrub: ScrubPolicy::every_level(),
            ..ResilienceConfig::default_runtime()
        };
        let sink = xbfs_engine::trace::MemorySink::new();
        let run = run_ladder(&g, src, &plan, &config, &[Rung::CpuOnly], &sink)
            .expect("the rung repairs itself and serves");
        assert_eq!(run.report.rung, Rung::CpuOnly);
        assert_eq!(validate(&g, &run.output), Ok(()));
        assert_eq!(run.report.corruption_detected, 1);
        assert_eq!(run.report.corruption_repairs, 1);
        // The repair resumed from the level-2 checkpoint, not level 0.
        assert!(
            run.report.resumes.iter().any(|r| r.from_level == 2),
            "resumes: {:?}",
            run.report.resumes
        );
        assert!(run.report.recovery_seconds > 0.0);
        let events = sink.events();
        assert!(events.iter().any(|e| matches!(
            e,
            TraceEvent::CorruptionDetected {
                detector: "scrub",
                ..
            }
        )));
        assert!(events.iter().any(|e| matches!(
            e,
            TraceEvent::CorruptionRepair {
                action: "rollback",
                to_level: 2,
                attempt: 1,
                ..
            }
        )));
    }

    #[test]
    fn scrub_restarts_the_rung_when_no_checkpoint_exists() {
        let (g, src, ..) = setup();
        let plan = FaultPlan {
            scheduled: vec![parent_flip_at(1)],
            ..FaultPlan::none()
        };
        let config = ResilienceConfig {
            checkpoint: CheckpointPolicy::disabled(),
            scrub: ScrubPolicy::every_level(),
            ..ResilienceConfig::default_runtime()
        };
        let sink = xbfs_engine::trace::MemorySink::new();
        let run = run_ladder(&g, src, &plan, &config, &[Rung::CpuOnly], &sink)
            .expect("restart repair serves");
        assert_eq!(validate(&g, &run.output), Ok(()));
        assert_eq!(run.report.corruption_detected, 1);
        assert_eq!(run.report.corruption_repairs, 1);
        assert!(sink.events().iter().any(|e| matches!(
            e,
            TraceEvent::CorruptionRepair {
                action: "restart",
                to_level: 0,
                ..
            }
        )));
    }

    #[test]
    fn exhausted_repair_budget_is_a_typed_corruption_error() {
        let (g, src, ..) = setup();
        let plan = FaultPlan {
            scheduled: vec![parent_flip_at(1)],
            ..FaultPlan::none()
        };
        let config = ResilienceConfig {
            scrub: ScrubPolicy::every_level(),
            corruption_repair_limit: 0,
            ..ResilienceConfig::default_runtime()
        };
        // Pin the ladder to the corrupting rung: with no repair budget and
        // no rung below it, the run must surface the typed terminal error
        // rather than a wrong tree or a panic.
        let err = run_ladder(
            &g,
            src,
            &plan,
            &config,
            &[Rung::CpuOnly],
            &xbfs_engine::trace::NULL_SINK,
        )
        .expect_err("no repair budget, no lower rung");
        match err {
            XbfsError::CorruptionUnrecovered { attempts, .. } => assert_eq!(attempts, 0),
            other => panic!("expected CorruptionUnrecovered, got {other:?}"),
        }
    }

    #[test]
    fn checksummed_transfer_detects_a_flip_and_retries() {
        let (g, src, ..) = setup();
        // The handoff level depends on the frontier trajectory, so arm a
        // one-shot transfer flip at every plausible level: exactly one
        // fires, at whichever level the upload happens.
        let scheduled = (0..16usize)
            .map(|level| ScheduledFault {
                op: FaultOp::Transfer,
                level,
                kind: FaultKind::BitFlip {
                    payload: CorruptPayload::Bitmap,
                    word: 7,
                    bit: 3,
                },
            })
            .collect();
        let plan = FaultPlan {
            scheduled,
            ..FaultPlan::none()
        };
        let config = ResilienceConfig {
            checksum_transfers: true,
            ..ResilienceConfig::default_runtime()
        };
        let sink = xbfs_engine::trace::MemorySink::new();
        let run = run_ladder(
            &g,
            src,
            &plan,
            &config,
            &[Rung::CrossCpuGpu, Rung::CpuOnly, Rung::Reference],
            &sink,
        )
        .expect("the retried transfer goes through clean");
        // The checksum caught the flip at the receiver; the one-shot does
        // not re-fire, so the retry succeeds and the top rung still serves.
        assert_eq!(run.report.rung, Rung::CrossCpuGpu);
        assert_eq!(validate(&g, &run.output), Ok(()));
        assert_eq!(run.report.corruption_detected, 1);
        assert_eq!(run.report.corruption_repairs, 0);
        assert_eq!(run.report.events.len(), 1);
        assert!(run.report.retries >= 1);
        assert!(run.report.recovery_seconds > 0.0);
        assert!(sink.events().iter().any(|e| matches!(
            e,
            TraceEvent::CorruptionDetected {
                detector: "checksum",
                ..
            }
        )));
    }

    #[test]
    fn checksums_charge_the_simulated_clock() {
        let (g, src, cpu, gpu, link, params) = setup();
        let plan = FaultPlan::none();
        let off = RunSession::on_platform(&g, &cpu, &gpu, &link, &params)
            .source(src)
            .fault_plan(&plan)
            .resilience(ResilienceConfig::default_runtime())
            .run()
            .expect("clean run");
        let on = RunSession::on_platform(&g, &cpu, &gpu, &link, &params)
            .source(src)
            .fault_plan(&plan)
            .resilience(ResilienceConfig {
                checksum_transfers: true,
                ..ResilienceConfig::default_runtime()
            })
            .run()
            .expect("clean checksummed run");
        // Integrity is not free: same tree, strictly more simulated time.
        assert_eq!(on.output, off.output);
        assert!(on.report.total_seconds > off.report.total_seconds);
        assert_eq!(on.report.corruption_detected, 0);
    }

    #[test]
    fn scrub_on_is_free_and_identical_when_nothing_is_corrupt() {
        let (g, src, cpu, gpu, link, params) = setup();
        let plan = FaultPlan::none();
        let off = RunSession::on_platform(&g, &cpu, &gpu, &link, &params)
            .source(src)
            .fault_plan(&plan)
            .resilience(ResilienceConfig::default_runtime())
            .run()
            .expect("clean run");
        let on = RunSession::on_platform(&g, &cpu, &gpu, &link, &params)
            .source(src)
            .fault_plan(&plan)
            .resilience(ResilienceConfig {
                scrub: ScrubPolicy::every_level(),
                ..ResilienceConfig::default_runtime()
            })
            .run()
            .expect("clean scrubbed run");
        // The scrubber overlaps with kernel execution on the simulated
        // platform: a fault-free run is bit- and clock-identical.
        assert_eq!(on.output, off.output);
        assert_eq!(on.report.total_seconds, off.report.total_seconds);
        assert_eq!(on.report.corruption_detected, 0);
    }

    #[test]
    fn scrub_config_rejects_a_zero_interval() {
        let mut c = ResilienceConfig::default_runtime();
        c.scrub = ScrubPolicy::Every { levels: 0 };
        assert!(c.validate().is_err());
        c.scrub = ScrubPolicy::every(3);
        assert!(c.validate().is_ok());
    }
}
