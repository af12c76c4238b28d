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
//!   out a seeded-jitter backoff (100 µs before the first retry, doubling
//!   per further retry, up to 10 % jitter), and try again up to
//!   [`ResilienceConfig::max_attempts`].
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

use crate::checkpoint::{
    ByteCount, CheckpointPolicy, LevelCheckpoint, Residency, CHECKPOINT_FORMAT_VERSION,
};
use crate::cross::{CrossDriver, CrossParams, Placement};
use crate::health::{BreakerTransition, Device, DeviceHealth};
use crate::policy_online::{step_level, LevelStep, PolicyCell};
use crate::seeded::splitmix_unit;
use serde::{Deserialize, Serialize};
use xbfs_archsim::fault::{
    CorruptPayload, FaultEvent, FaultKind, FaultOp, FaultPlan, FaultSession,
};
use xbfs_archsim::{cost, ArchSpec, Link};
use xbfs_engine::{
    trace::{RungOutcome, TraceEvent, TraceSink, NULL_SINK},
    validate, AlwaysTopDown, BfsOutput, Direction, FixedMN, LevelRecord, ScrubPolicy, Scrubber,
    TraversalState, XbfsError,
};
use xbfs_graph::{Csr, VertexId};

/// Salt folded into the fault-plan seed for the retry-backoff jitter RNG.
/// Shared with checkpoint capture so a checkpointed `jitter_rng` always
/// means "this stream, at this position".
pub(crate) const JITTER_SALT: u64 = 0x5851_f42d_4c95_7f2d;

/// The degradation ladder, top rung first. A resume enters it at the
/// checkpoint's rung.
const LADDER: [Rung; 3] = [Rung::CrossCpuGpu, Rung::CpuOnly, Rung::Reference];

/// Backoff before the first retry, in simulated seconds.
const BACKOFF_BASE_S: f64 = 1e-4;
/// Multiplier applied to the backoff per further retry.
const BACKOFF_FACTOR: f64 = 2.0;
/// Uniform jitter fraction: each backoff is scaled by
/// `1 + BACKOFF_JITTER × u` with `u ~ U[0, 1)` from the fault seed.
const BACKOFF_JITTER: f64 = 0.1;

/// The full failure-handling configuration of one resilient run. The
/// backoff between retries and the circuit breakers' tuning are fixed
/// constants of the ladder, not settings.
#[derive(Clone, Debug, PartialEq, Serialize, Deserialize)]
pub struct ResilienceConfig {
    /// Attempts per operation, including the first (≥ 1).
    pub max_attempts: u32,
    /// Optional end-to-end simulated deadline budget.
    pub deadline_s: Option<f64>,
    /// Checkpoint cadence and spill target.
    pub checkpoint: CheckpointPolicy,
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
    /// Runtime defaults: 3 attempts per operation, a checkpoint every 4
    /// levels (in-memory only), no deadline, corruption defense off
    /// (scrub off, unchecksummed transfers) with 2 repair attempts if it
    /// is turned on.
    pub fn default_runtime() -> Self {
        Self {
            max_attempts: 3,
            deadline_s: None,
            checkpoint: CheckpointPolicy::every(4),
            scrub: ScrubPolicy::Off,
            checksum_transfers: false,
            corruption_repair_limit: 2,
        }
    }

    /// Validate every component.
    pub fn validate(&self) -> Result<(), XbfsError> {
        if self.max_attempts == 0 {
            return Err(XbfsError::InvalidArgument {
                what: "retry policy needs max_attempts >= 1".into(),
            });
        }
        self.checkpoint.validate()?;
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

/// Shared per-ladder mutable state threaded through the rungs.
struct Recovery<'a> {
    session: FaultSession<'a>,
    max_attempts: u32,
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
    /// The byte count of the current rung's state, running from the
    /// capture that last counted it in full; `None` until then, and again
    /// once the state is restored, restarted or hit by a bit flip.
    byte_count: Option<ByteCount>,
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
    /// The scrub itself, with its shadow of the last boundary it passed on
    /// the current rung's state.
    scrubber: Scrubber,
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
        let mut health = DeviceHealth::new(plan.seed);
        for &device in lost {
            health.record_failure(device, 0.0, true);
        }
        Self {
            session: plan.session(),
            max_attempts: config.max_attempts,
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
            byte_count: None,
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
            scrubber: Scrubber::default(),
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
        let mut rec = Self::new(plan, config, &[], sink);
        rec.session = session;
        rec.health.restore(&ck.breakers);
        rec.clock.elapsed_s = ck.clock_s;
        rec.jitter_rng = ck.jitter_rng;
        rec.events = ck.events.clone();
        rec.retries = ck.retries;
        rec.lost_s = ck.lost_s;
        rec.latest = Some(ck.clone());
        rec.resumed_from_level = Some(ck.level());
        rec.external = true;
        rec.furthest_completed = ck.level();
        Ok(rec)
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
    /// trying it up to `max_attempts` times with a backoff after each
    /// transient, and feeding every outcome to the device's circuit
    /// breaker. `bytes` is the payload size reported on
    /// transfer spans (0 for kernels). An injected bit flip the defenses
    /// could not see lands in `state`: the operation *succeeded* on the
    /// clock and the breaker, and only a later scrub or validation can
    /// see the corruption.
    #[allow(clippy::too_many_arguments)] // one flat fault surface
    fn attempt_op(
        &mut self,
        state: &mut TraversalState,
        rung: Rung,
        op: FaultOp,
        level: usize,
        nominal_s: f64,
        device: Device,
        bytes: u64,
    ) -> Result<(), RungError> {
        let traced = self.sink.enabled();
        for attempt in 1..=self.max_attempts {
            let start_s = self.clock.elapsed_s;
            let Some(kind) = self.session.check(op, level) else {
                self.clock.charge(nominal_s).map_err(RungError::Fatal)?;
                self.health.record_success(device, self.clock.elapsed_s);
                if traced {
                    self.emit_attempt(op, device, level, attempt, bytes, start_s, true);
                }
                return Ok(());
            };
            self.events.push(FaultEvent {
                op,
                level,
                kind,
                attempt,
            });
            if traced {
                self.emit_fault(op, kind, level, attempt);
            }
            // A flipped transfer payload the receiver's checksum rejects is
            // DETECTED, and retried like a transient.
            let detected = matches!(kind, FaultKind::BitFlip { .. })
                && self.checksum_transfers
                && op == FaultOp::Transfer;
            match kind {
                FaultKind::BitFlip { payload, word, bit } if !detected => {
                    // SILENT: the operation looks exactly like a success —
                    // full nominal charge, a healthy breaker sample, an ok
                    // span — but the live state is now wrong.
                    self.clock.charge(nominal_s).map_err(RungError::Fatal)?;
                    self.health.record_success(device, self.clock.elapsed_s);
                    if traced {
                        self.emit_attempt(op, device, level, attempt, bytes, start_s, true);
                    }
                    apply_bit_flip(state, payload, word, bit);
                    self.byte_count = None;
                    return Ok(());
                }
                FaultKind::LinkStall => {
                    let stalled = nominal_s * self.stall_factor;
                    self.lost_s += stalled - nominal_s;
                    self.clock.charge(stalled).map_err(RungError::Fatal)?;
                    // Slow but done: a stall is not a breaker failure.
                    self.health.record_success(device, self.clock.elapsed_s);
                    if traced {
                        self.emit_attempt(op, device, level, attempt, bytes, start_s, true);
                    }
                    return Ok(());
                }
                FaultKind::DeviceLost => {
                    self.health
                        .record_failure(device, self.clock.elapsed_s, true);
                    return Err(RungError::Degrade(XbfsError::DeviceLost {
                        device: device.name(),
                        level,
                    }));
                }
                FaultKind::BitFlip { .. }
                | FaultKind::TransferFailure
                | FaultKind::KernelTimeout => {}
            }
            // A transient: the failed attempt's full time is wasted.
            if detected {
                self.corruption_detected += 1;
            }
            self.lost_s += nominal_s;
            self.clock.charge(nominal_s).map_err(RungError::Fatal)?;
            self.health
                .record_failure(device, self.clock.elapsed_s, false);
            if traced {
                self.emit_attempt(op, device, level, attempt, bytes, start_s, false);
                if detected {
                    self.sink.record(&TraceEvent::CorruptionDetected {
                        rung: rung.label(),
                        detector: "checksum",
                        level: level as u32,
                        at_s: self.clock.elapsed_s,
                    });
                }
            }
            if attempt == self.max_attempts {
                return Err(RungError::Degrade(match kind {
                    FaultKind::BitFlip { payload, word, bit } => XbfsError::CorruptionDetected {
                        what: format!(
                            "{} payload failed its integrity checksum ({} bit {} of the {} image)",
                            op.name(),
                            word,
                            bit,
                            payload.name(),
                        ),
                        level,
                    },
                    FaultKind::TransferFailure => XbfsError::TransferFailed {
                        level,
                        attempts: attempt,
                    },
                    _ => XbfsError::KernelTimeout {
                        device: device.name(),
                        level,
                        attempts: attempt,
                    },
                }));
            }
            let u = splitmix_unit(&mut self.jitter_rng);
            let backoff = BACKOFF_BASE_S
                * BACKOFF_FACTOR.powi((attempt - 1) as i32)
                * (1.0 + BACKOFF_JITTER * u);
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
        unreachable!("loop returns on success, exhaustion, or device loss")
    }

    /// Convert every productive second since the newest checkpoint into
    /// loss: a failed or repaired rung keeps only what that checkpoint
    /// preserved.
    fn forfeit_since_latest(&mut self) {
        let retained = self
            .latest
            .as_ref()
            .map_or(0.0, |ck| ck.clock_s - ck.lost_s);
        let productive_now = self.clock.elapsed_s - self.lost_s;
        self.lost_s += (productive_now - retained).max(0.0);
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
    /// on the clock), so the stored checkpoint is host-durable. The capture
    /// audits `st` before trusting it, unless `scrubbed`: a scrub passed
    /// this very state at this boundary.
    ///
    /// An unspilled capture's bytes come from the running byte count,
    /// which [`count_step`](Self::count_step) keeps up to date from level
    /// to level. When there is none, this capture counts `st` in full and
    /// starts it: the audit or scrub just passed `st`, which is what the
    /// running count needs to stay exact. A spilled capture counts the
    /// string it writes.
    #[allow(clippy::too_many_arguments)]
    fn maybe_capture(
        &mut self,
        csr: &Csr,
        rung: Rung,
        st: &TraversalState,
        scrubbed: bool,
        placer: &Placer,
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
        let handed = placer.handed_off();
        let device_discovered = placer.device_discovered();
        let residency = if handed {
            Residency::Device
        } else {
            Residency::Host
        };
        let pullback_bytes = (residency == Residency::Device).then(|| {
            Link::pullback_bytes(
                csr.num_vertices() as u64,
                device_discovered,
                st.frontier.len() as u64,
            )
        });
        if let Some(bytes) = pullback_bytes {
            let t = link.transfer_time(bytes);
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
            placements: placer.placements().to_vec(),
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
        if ck.audit(csr, !scrubbed).is_err() {
            // A state that fails its own audit must never become a resume
            // point; keep the previous checkpoint and let end-of-rung
            // validation deal with the corruption. The pullback was still
            // charged, and with no checkpoint span to cover it, it gets a
            // transfer span of its own.
            if let (Some(bytes), true) = (pullback_bytes, self.sink.enabled()) {
                self.sink.record(&TraceEvent::Transfer {
                    level: st.next_level,
                    bytes,
                    attempt: 0,
                    start_s: capture_start_s,
                    end_s: self.clock.elapsed_s,
                    ok: true,
                });
            }
            return Ok(());
        }
        self.checkpoints_taken += 1;
        let spilled = self.checkpoint.spill.is_some();
        let bytes = match &self.checkpoint.spill {
            Some(path) => ck.spill(path).map_err(RungError::Fatal)?,
            None => self
                .byte_count
                .get_or_insert_with(|| ByteCount::of(st))
                .total(&ck),
        };
        self.checkpoint_bytes += bytes;
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

    /// Follow one level step of `st` in the running byte count, if there
    /// is one. There is none unless a capture has counted this state, so
    /// a run that cuts no checkpoint does nothing here.
    fn count_step(&mut self, st: &TraversalState) {
        if let Some(count) = &mut self.byte_count {
            count.step(st);
        }
    }

    /// Run the invariant scrubber at the boundary in front of `st` if one
    /// is due. A hit is a detected corruption: the ladder answers with a
    /// rollback repair instead of letting the rung run the corruption to
    /// completion. Scrubbing charges no simulated time — the pass is
    /// memory-bandwidth work the runtime overlaps with the next level's
    /// setup — so enabling it on a fault-free run leaves the clock (and
    /// the whole trace) untouched. Returns whether a scrub ran and passed.
    fn maybe_scrub(
        &mut self,
        csr: &Csr,
        rung: Rung,
        st: &TraversalState,
    ) -> Result<bool, RungError> {
        if !self.scrub.due(st.next_level) {
            return Ok(false);
        }
        let Some(what) = self.scrubber.scrub(csr, st) else {
            return Ok(true);
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
    ) -> Result<(TraversalState, Placer), RungError> {
        let external = std::mem::take(&mut self.external);
        // A fresh or restored state: nothing the scrub passed or the byte
        // count followed carries over.
        self.scrubber = Scrubber::default();
        self.byte_count = None;
        let Some(ck) = self.latest.clone() else {
            return Ok((
                TraversalState::start(csr, source),
                Placer::fresh(rung, params),
            ));
        };
        let from = ck.level();
        let mut state = ck.state.clone();
        let mut translated = false;
        let placer = match rung {
            Rung::CrossCpuGpu => {
                // Only reachable from a cross checkpoint: the in-process
                // ladder never climbs back up, and an external resume
                // starts at the checkpoint's own rung.
                if ck.handed_off {
                    // The checkpoint is host-durable; put the frontier and
                    // visited bitmap back on the device before continuing
                    // the GPU phase. Supervised machinery, not a faultable
                    // kernel launch — charged and spanned, never injected.
                    let bytes =
                        Link::handoff_bytes(csr.num_vertices() as u64, state.frontier.len() as u64);
                    let t = link.transfer_time(bytes);
                    let start_s = self.clock.elapsed_s;
                    self.checkpoint_seconds += t;
                    self.clock.charge(t).map_err(RungError::Fatal)?;
                    if self.sink.enabled() {
                        self.sink.record(&TraceEvent::Transfer {
                            level: from,
                            bytes,
                            attempt: 0,
                            start_s,
                            end_s: self.clock.elapsed_s,
                            ok: true,
                        });
                    }
                }
                Placer::Cross {
                    driver: CrossDriver::resume(*params, ck.handed_off, ck.placements.clone()),
                    device_discovered: ck.device_discovered,
                }
            }
            Rung::CpuOnly | Rung::Reference => {
                if ck.residency == Residency::Device {
                    // GPU frontier → host queue: the drain produces
                    // ascending vertex order, exactly what a bitmap yields.
                    state.frontier = ck.host_order_frontier();
                    translated = true;
                }
                Placer::fresh(rung, params)
            }
        };
        // What re-running the restored prefix on this rung would have
        // cost — the resume's saving vs a restart from scratch. A host
        // rung prices every prefix level on the CPU; for a cross prefix
        // this is an estimate (the records carry the cross policy's
        // direction choices).
        let mut saved = 0.0;
        let mut handed = false;
        for (i, r) in state.levels.iter().enumerate() {
            let placement = match rung {
                Rung::CrossCpuGpu => ck.placements.get(i).copied(),
                Rung::CpuOnly | Rung::Reference => None,
            }
            .unwrap_or(Placement::CpuTd);
            if placement.on_gpu() && !handed {
                handed = true;
                saved += link.transfer_time(Link::handoff_bytes(
                    csr.num_vertices() as u64,
                    r.frontier_vertices,
                ));
            }
            saved += price_level(rung, placement, r, cpu, gpu, 0.0, &NULL_SINK);
        }
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
        Ok((state, placer))
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
    /// Optional online per-level policy. An attached cell decides every
    /// cross level; `None` takes Algorithm 3's offline rules.
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
    ladder(args, source, rec, &LADDER)
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
    let entry = LADDER
        .iter()
        .position(|&rung| rung == checkpoint.rung)
        .expect("every rung is on the ladder");
    ladder(args, source, rec, &LADDER[entry..])
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
        // Detected-corruption repair loop: a scrub hit rewinds this rung
        // to its last *trusted* checkpoint and re-executes, a bounded
        // number of times, before the rung is allowed to give up.
        let mut repair_attempts: u32 = 0;
        let outcome = loop {
            let result = run_rung(args, source, &mut rec, rung);
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
            rec.forfeit_since_latest();
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
                    rec.latest = rung_start_latest;
                    rec.forfeit_since_latest();
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
                rec.forfeit_since_latest();
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

/// The simulated seconds of one executed level on `rung` at `placement`:
/// the cost model's price on the placement's device, times the
/// single-core penalty on the reference rung (one core doing the work of
/// all of them). When `sink` is enabled the charge's decomposition is
/// recorded as a [`TraceEvent::KernelCost`] at `at_s`; the returned value
/// is the undecomposed model's, bit for bit.
pub(crate) fn price_level(
    rung: Rung,
    placement: Placement,
    rec: &LevelRecord,
    cpu: &ArchSpec,
    gpu: &ArchSpec,
    at_s: f64,
    sink: &dyn TraceSink,
) -> f64 {
    let arch = if placement.on_gpu() { gpu } else { cpu };
    let penalty = match rung {
        Rung::Reference => cpu.cost.parallel_units.max(1.0),
        Rung::CrossCpuGpu | Rung::CpuOnly => 1.0,
    };
    let total_s = cost::level_time_for_record(arch, rec) * penalty;
    if sink.enabled() {
        let parts = cost::level_cost_parts_for_record(arch, rec);
        sink.record(&TraceEvent::KernelCost {
            device: placement.device(),
            level: rec.level,
            direction: rec.direction,
            total_s,
            overhead_s: parts.overhead_s * penalty,
            work_s: parts.work_s * penalty,
            bound: match rung {
                Rung::Reference => "reference-serial",
                Rung::CrossCpuGpu | Rung::CpuOnly => parts.bound,
            },
            at_s,
        });
    }
    total_s
}

/// The simulated seconds of the handoff transfer of `bytes`: the link's
/// transfer time, plus the receiver's verification pass when transfers
/// are checksummed.
pub(crate) fn handoff_seconds(link: &Link, bytes: u64, checksum: bool) -> f64 {
    let mut t = link.transfer_time(bytes);
    if checksum {
        t += link.checksum_time(bytes);
    }
    t
}

/// The fault operation and device of a level kernel at `placement`.
pub(crate) fn kernel_op(placement: Placement) -> (FaultOp, Device) {
    if placement.on_gpu() {
        (FaultOp::GpuKernel, Device::Gpu)
    } else {
        (FaultOp::CpuKernel, Device::Cpu)
    }
}

/// Where a rung's levels are placed: Algorithm 3's driver (with the
/// online policy when one is attached), the CPU-only hybrid at
/// Beamer-default thresholds, or sequential top-down. The cross placer
/// also counts the vertices discovered on the device, which size a
/// checkpoint's pullback.
pub(crate) enum Placer {
    Cross {
        driver: CrossDriver,
        device_discovered: u64,
    },
    CpuOnly(FixedMN),
    Reference,
}

impl Placer {
    /// The placer of `rung`'s fresh start at level 0.
    pub(crate) fn fresh(rung: Rung, params: &CrossParams) -> Self {
        match rung {
            Rung::CrossCpuGpu => Placer::Cross {
                driver: CrossDriver::new(*params),
                device_discovered: 0,
            },
            Rung::CpuOnly => Placer::CpuOnly(FixedMN::new(14.0, 24.0)),
            Rung::Reference => Placer::Reference,
        }
    }

    /// Execute one level of `state`; `None` once the traversal is
    /// complete. Only the cross placer consults `policy`.
    pub(crate) fn step(
        &mut self,
        csr: &Csr,
        state: &mut TraversalState,
        policy: Option<&PolicyCell>,
        sink: &dyn TraceSink,
        at_s: f64,
    ) -> Option<LevelStep> {
        let record = match self {
            Placer::Cross {
                driver,
                device_discovered,
            } => {
                let step = step_level(csr, state, driver, policy, sink, at_s)?;
                if step.placement.on_gpu() {
                    *device_discovered += step.record.discovered;
                }
                return Some(step);
            }
            Placer::CpuOnly(mn) => *state.step(csr, mn)?,
            Placer::Reference => *state.step(csr, &mut AlwaysTopDown)?,
        };
        Some(LevelStep {
            placement: match record.direction {
                Direction::TopDown => Placement::CpuTd,
                Direction::BottomUp => Placement::CpuBu,
            },
            record,
            decision: None,
            handoff: false,
        })
    }

    /// `true` once the traversal state lives on the GPU.
    pub(crate) fn handed_off(&self) -> bool {
        matches!(self, Placer::Cross { driver, .. } if driver.handed_off())
    }

    /// Vertices discovered while on the GPU (0 on a host rung).
    pub(crate) fn device_discovered(&self) -> u64 {
        match self {
            Placer::Cross {
                device_discovered, ..
            } => *device_discovered,
            Placer::CpuOnly(_) | Placer::Reference => 0,
        }
    }

    /// Placement per executed level: the cross rung's log, empty on a
    /// host rung.
    pub(crate) fn placements(&self) -> &[Placement] {
        match self {
            Placer::Cross { driver, .. } => driver.placements(),
            Placer::CpuOnly(_) | Placer::Reference => &[],
        }
    }
}

/// Run `rung` from its start point to completion, one level at a time:
/// scrub and checkpoint at each boundary, place the level, charge it,
/// book it. The rungs differ only in their [`Placer`] and in how a level
/// is charged: through [`Recovery::attempt_op`] (the handoff transfer
/// and the level kernel), or, on the reference rung, fault-free, since
/// it runs no accelerator and no parallel kernel.
fn run_rung(
    args: &ExecArgs<'_>,
    source: VertexId,
    rec: &mut Recovery<'_>,
    rung: Rung,
) -> Result<BfsOutput, RungError> {
    let (csr, cpu, gpu, link) = (args.csr, args.cpu, args.gpu, args.link);
    let lost = match rung {
        Rung::CrossCpuGpu => rec.session.gpu_lost().then_some(Device::Gpu),
        Rung::CpuOnly => rec.session.cpu_lost().then_some(Device::Cpu),
        Rung::Reference => None,
    };
    if let Some(device) = lost {
        return Err(RungError::Degrade(XbfsError::DeviceLost {
            device: device.name(),
            level: 0,
        }));
    }
    let (mut state, mut placer) = rec.start_for(rung, csr, source, args.params, cpu, gpu, link)?;
    let n = csr.num_vertices() as u64;
    loop {
        // Scrub before the capture gate: a corrupt state must be caught
        // here, never frozen into a resume point.
        let scrubbed = rec.maybe_scrub(csr, rung, &state)?;
        rec.maybe_capture(csr, rung, &state, scrubbed, &placer, link)?;
        let level_start_s = rec.clock.elapsed_s;
        let Some(step) = placer.step(csr, &mut state, args.policy, rec.sink, level_start_s) else {
            break;
        };
        rec.count_step(&state);
        let (pl, lvl, level) = (step.placement, step.record, step.record.level as usize);
        // The policy's reward: the level's kernel time plus the handoff
        // transfer when this decision fired it.
        let mut observed_s = 0.0;
        if step.handoff {
            let bytes = Link::handoff_bytes(n, lvl.frontier_vertices);
            let t = handoff_seconds(link, bytes, rec.checksum_transfers);
            observed_s += t;
            rec.attempt_op(
                &mut state,
                rung,
                FaultOp::Transfer,
                level,
                t,
                Device::Link,
                bytes,
            )?;
        }
        let nominal = price_level(rung, pl, &lvl, cpu, gpu, rec.clock.elapsed_s, rec.sink);
        let (op, device) = kernel_op(pl);
        if rung == Rung::Reference {
            // Fault-free by construction: charged, never injected.
            rec.clock.charge(nominal).map_err(RungError::Fatal)?;
            if rec.sink.enabled() {
                rec.emit_attempt(op, device, level, 1, 0, level_start_s, true);
            }
        } else {
            rec.attempt_op(&mut state, rung, op, level, nominal, device, 0)?;
        }
        observed_s += nominal;
        if let (Some(cell), Some(d)) = (args.policy, step.decision) {
            cell.borrow_mut().observe(d.bin, pl, observed_s);
        }
        rec.note_level(&lvl, rung, pl.device(), level_start_s);
    }
    Ok(state.into_traversal().output)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::session::RunSession;
    use xbfs_archsim::fault::ScheduledFault;
    use xbfs_graph::{gen::road_like, rmat::rmat_csr};

    fn setup() -> (Csr, u32, ArchSpec, ArchSpec, Link, CrossParams) {
        let g = rmat_csr(10, 16);
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
        let mut c = ResilienceConfig::default_runtime();
        c.max_attempts = 0;
        let err = c.validate().expect_err("zero attempts is rejected");
        assert!(err.to_string().contains("max_attempts >= 1"), "{err}");
        c.max_attempts = 1;
        assert!(c.validate().is_ok());
    }

    #[test]
    fn resilience_config_validates_components() {
        assert!(ResilienceConfig::default_runtime().validate().is_ok());
        let mut c = ResilienceConfig::default_runtime();
        c.max_attempts = 0;
        assert!(c.validate().is_err());
        let mut c = ResilienceConfig::default_runtime();
        c.checkpoint = CheckpointPolicy {
            interval_levels: 0,
            spill: Some("/tmp/x.json".into()),
        };
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

    /// Levels of the checkpoints cut between a silent flip and the repair
    /// or rung end that answers it: each froze the corrupt state.
    fn captures_after_the_flip(events: &[TraceEvent]) -> Vec<u32> {
        let flip = events
            .iter()
            .position(|e| matches!(e, TraceEvent::Fault { .. }))
            .expect("the flip fired");
        events[flip..]
            .iter()
            .take_while(|e| {
                !matches!(
                    e,
                    TraceEvent::CorruptionRepair { .. } | TraceEvent::RungEnd { .. }
                )
            })
            .filter_map(|e| match e {
                TraceEvent::Checkpoint { level, .. } => Some(*level),
                _ => None,
            })
            .collect()
    }

    /// Run the CPU-only rung, then the reference rung, with a checkpoint
    /// every level and a parent flip in level 2's kernel, just before
    /// boundary 3. No scrub runs at boundary 3, so the capture's own audit
    /// is all that keeps the corrupt state from becoming a resume point.
    fn flip_before_an_unscrubbed_boundary(scrub: ScrubPolicy) -> RecoveredRun {
        let (g, src, ..) = setup();
        let plan = FaultPlan {
            scheduled: vec![parent_flip_at(2)],
            ..FaultPlan::none()
        };
        let config = ResilienceConfig {
            checkpoint: CheckpointPolicy::every(1),
            scrub,
            ..ResilienceConfig::default_runtime()
        };
        let sink = xbfs_engine::trace::MemorySink::new();
        let result = run_ladder(
            &g,
            src,
            &plan,
            &config,
            &[Rung::CpuOnly, Rung::Reference],
            &sink,
        );
        let events = sink.events();
        assert_eq!(captures_after_the_flip(&events), Vec::<u32>::new());
        let run = result.expect("a repair or a lower rung serves");
        assert_eq!(validate(&g, &run.output), Ok(()));
        let cut = events
            .iter()
            .filter(|e| matches!(e, TraceEvent::Checkpoint { .. }))
            .count();
        assert_eq!(run.report.checkpoints_taken as usize, cut);
        run
    }

    #[test]
    fn a_capture_audits_when_scrubbing_is_off() {
        let run = flip_before_an_unscrubbed_boundary(ScrubPolicy::Off);
        // Nothing saw the flip before end-of-rung validation, and the
        // reference rung started over rather than resume a corrupt state.
        assert_eq!(run.report.corruption_detected, 0);
        assert_eq!(run.report.rung, Rung::Reference);
        assert!(run.report.resumes.is_empty(), "{:?}", run.report.resumes);
    }

    #[test]
    fn a_capture_audits_between_scrubs() {
        let run = flip_before_an_unscrubbed_boundary(ScrubPolicy::every(2));
        // The boundary-4 scrub caught the flip, and the repair rolled back
        // to the level-2 checkpoint the boundary-2 scrub had passed.
        assert_eq!(run.report.corruption_detected, 1);
        assert_eq!(run.report.corruption_repairs, 1);
        assert_eq!(run.report.rung, Rung::CpuOnly);
        let from: Vec<u32> = run.report.resumes.iter().map(|r| r.from_level).collect();
        assert_eq!(from, vec![2]);
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
    fn price_level_is_the_cost_model_times_the_rung_penalty() {
        let (cpu, gpu) = (ArchSpec::cpu_sandy_bridge(), ArchSpec::gpu_k20x());
        let penalty = cpu.cost.parallel_units.max(1.0);
        assert!(penalty > 1.0, "the reference rung runs on one core of many");
        let placements = [
            Placement::CpuTd,
            Placement::CpuBu,
            Placement::GpuTd,
            Placement::GpuBu,
        ];
        for g in [rmat_csr(10, 16), road_like(24, 24, 24, 1)] {
            let t = xbfs_engine::hybrid::run(&g, 0, &mut FixedMN::new(14.0, 24.0));
            for (rec, rung) in t.levels.iter().flat_map(|r| LADDER.map(|rung| (r, rung))) {
                for pl in placements {
                    let arch = if pl.on_gpu() { &gpu } else { &cpu };
                    let scale = if rung == Rung::Reference {
                        penalty
                    } else {
                        1.0
                    };
                    let expect = cost::level_time_for_record(arch, rec) * scale;
                    let silent = price_level(rung, pl, rec, &cpu, &gpu, 0.5, &NULL_SINK);
                    let sink = xbfs_engine::trace::MemorySink::new();
                    let traced = price_level(rung, pl, rec, &cpu, &gpu, 0.5, &sink);
                    assert_eq!(silent.to_bits(), expect.to_bits(), "{rung} {pl}");
                    assert_eq!(traced.to_bits(), expect.to_bits(), "{rung} {pl}");
                    let parts = cost::level_cost_parts_for_record(arch, rec);
                    let kernel_cost = TraceEvent::KernelCost {
                        device: pl.device(),
                        level: rec.level,
                        direction: rec.direction,
                        total_s: expect,
                        overhead_s: parts.overhead_s * scale,
                        work_s: parts.work_s * scale,
                        bound: match rung {
                            Rung::Reference => "reference-serial",
                            Rung::CrossCpuGpu | Rung::CpuOnly => parts.bound,
                        },
                        at_s: 0.5,
                    };
                    assert_eq!(sink.events(), vec![kernel_cost], "{rung} {pl}");
                }
            }
        }
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
