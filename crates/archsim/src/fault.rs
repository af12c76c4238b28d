//! Deterministic fault injection for the simulated runtime.
//!
//! A [`FaultPlan`] describes, ahead of time, everything that will go wrong
//! during a traversal: per-operation probabilities for transient faults
//! (transfer failures, link stalls, kernel timeouts), a probability for
//! the permanent device-lost fault, and scheduled one-shot faults ("fail
//! the level-3 handoff", "flip bit 5 of parent word 19 after the level-2
//! kernel"). Plans are serde-able so the CLI can load them
//! from JSON, and seeded so a plan plus a traversal is perfectly
//! reproducible — the recovery ladder in `xbfs-core` can be tested
//! against an exact, replayable failure sequence.
//!
//! The plan is immutable; per-traversal mutable state (the RNG cursor,
//! which one-shots have fired, which devices have died) lives in a
//! [`FaultSession`] created by [`FaultPlan::session`].

use serde::{Deserialize, Serialize};
use xbfs_engine::XbfsError;

/// Which simulated operation a fault targets.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Serialize, Deserialize)]
pub enum FaultOp {
    /// A host↔device state handoff over the link.
    Transfer,
    /// A kernel launch on the accelerator.
    GpuKernel,
    /// A kernel launch on the host CPU.
    CpuKernel,
}

impl FaultOp {
    /// Stable lowercase label for trace events and metrics keys.
    pub fn name(self) -> &'static str {
        match self {
            FaultOp::Transfer => "transfer",
            FaultOp::GpuKernel => "gpu-kernel",
            FaultOp::CpuKernel => "cpu-kernel",
        }
    }
}

/// Which BFS payload a [`FaultKind::BitFlip`] corrupts.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Serialize, Deserialize)]
pub enum CorruptPayload {
    /// The frontier bitmap: the flip toggles one vertex's membership in
    /// the current frontier.
    Bitmap,
    /// The parent map: the flip XORs one bit of one parent word.
    Parents,
}

impl CorruptPayload {
    /// Stable lowercase label for trace events and metrics keys.
    pub fn name(self) -> &'static str {
        match self {
            CorruptPayload::Bitmap => "bitmap",
            CorruptPayload::Parents => "parents",
        }
    }
}

/// What goes wrong when a fault fires.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Serialize, Deserialize)]
pub enum FaultKind {
    /// The transfer aborts; the attempt's time is wasted but a retry may
    /// succeed (transient).
    TransferFailure,
    /// The link completes the transfer but at [`FaultPlan::stall_factor`] ×
    /// the nominal time (congestion; no retry needed).
    LinkStall,
    /// The kernel misses its watchdog; the attempt's time is wasted but a
    /// relaunch may succeed (transient).
    KernelTimeout,
    /// The device falls off the bus — permanent for the rest of the
    /// session; no retry can help.
    DeviceLost,
    /// A silent single-event upset: the operation *appears to succeed*
    /// (nominal time, no error) but one bit of the named payload is
    /// flipped — in flight for a transfer, in device-resident state for a
    /// kernel. Only a transfer checksum, an invariant scrub, or end-of-run
    /// validation can see it.
    BitFlip {
        /// Which BFS payload the flip lands in.
        payload: CorruptPayload,
        /// Word index into that payload (the consumer wraps it to the
        /// payload's actual length).
        word: u32,
        /// Bit index within the word.
        bit: u8,
    },
}

impl FaultKind {
    /// Stable lowercase label for trace events and metrics keys.
    pub fn name(self) -> &'static str {
        match self {
            FaultKind::TransferFailure => "transfer-failure",
            FaultKind::LinkStall => "link-stall",
            FaultKind::KernelTimeout => "kernel-timeout",
            FaultKind::DeviceLost => "device-lost",
            FaultKind::BitFlip { .. } => "bit-flip",
        }
    }
}

/// A one-shot fault: fire `kind` the first time `op` is attempted at BFS
/// level `level`, then never again.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Serialize, Deserialize)]
pub struct ScheduledFault {
    /// The operation to sabotage.
    pub op: FaultOp,
    /// The BFS level at which to fire.
    pub level: usize,
    /// What happens.
    pub kind: FaultKind,
}

/// One fault that actually fired during a session — the audit record the
/// recovery ladder accumulates into its `RunReport`.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Serialize, Deserialize)]
pub struct FaultEvent {
    /// The operation that faulted.
    pub op: FaultOp,
    /// The BFS level at which it faulted.
    pub level: usize,
    /// What happened.
    pub kind: FaultKind,
    /// Which attempt of the operation faulted (1 = first try).
    pub attempt: u32,
}

/// A deterministic, serde-able description of everything that will go
/// wrong. All probabilities are per *attempt* of the targeted operation.
#[derive(Clone, Debug, PartialEq, Serialize, Deserialize)]
pub struct FaultPlan {
    /// Seed for the per-session fault RNG.
    pub seed: u64,
    /// Probability a transfer attempt aborts ([`FaultKind::TransferFailure`]).
    pub p_transfer_failure: f64,
    /// Probability a transfer completes stalled ([`FaultKind::LinkStall`]).
    pub p_link_stall: f64,
    /// Stall slowdown: a stalled transfer takes `stall_factor` × nominal.
    pub stall_factor: f64,
    /// Probability a GPU kernel launch times out ([`FaultKind::KernelTimeout`]).
    pub p_kernel_timeout: f64,
    /// Probability a GPU kernel launch kills the device
    /// ([`FaultKind::DeviceLost`]).
    pub p_device_lost: f64,
    /// One-shot faults, checked before the probabilistic draws.
    pub scheduled: Vec<ScheduledFault>,
}

impl FaultPlan {
    /// A plan that injects nothing (the healthy baseline).
    pub fn none() -> Self {
        Self {
            seed: 0,
            p_transfer_failure: 0.0,
            p_link_stall: 0.0,
            stall_factor: 1.0,
            p_kernel_timeout: 0.0,
            p_device_lost: 0.0,
            scheduled: Vec::new(),
        }
    }

    /// A plan whose only fault is losing `op`'s device the first time it
    /// is used at `level` — the canonical degradation-ladder trigger.
    pub fn lost_at(op: FaultOp, level: usize) -> Self {
        Self {
            scheduled: vec![ScheduledFault {
                op,
                level,
                kind: FaultKind::DeviceLost,
            }],
            ..Self::none()
        }
    }

    /// Validate ranges: probabilities in `[0, 1]`, stall factor ≥ 1 and
    /// finite.
    pub fn validate(&self) -> Result<(), XbfsError> {
        let probs = [
            ("p_transfer_failure", self.p_transfer_failure),
            ("p_link_stall", self.p_link_stall),
            ("p_kernel_timeout", self.p_kernel_timeout),
            ("p_device_lost", self.p_device_lost),
        ];
        for (name, p) in probs {
            if !(0.0..=1.0).contains(&p) {
                return Err(XbfsError::FaultPlan(format!(
                    "{name} must be a probability in [0, 1], got {p}"
                )));
            }
        }
        if !self.stall_factor.is_finite() || self.stall_factor < 1.0 {
            return Err(XbfsError::FaultPlan(format!(
                "stall_factor must be finite and >= 1, got {}",
                self.stall_factor
            )));
        }
        Ok(())
    }

    /// Parse a plan from JSON (the CLI's `--fault-plan` file format).
    pub fn from_json(s: &str) -> Result<Self, XbfsError> {
        let plan: Self = serde_json::from_str(s)
            .map_err(|e| XbfsError::FaultPlan(format!("parse error: {e:?}")))?;
        plan.validate()?;
        Ok(plan)
    }

    /// Serialize the plan to JSON.
    pub fn to_json(&self) -> String {
        serde_json::to_string_pretty(self).expect("FaultPlan serializes")
    }

    /// Start a traversal-scoped injection session.
    pub fn session(&self) -> FaultSession<'_> {
        FaultSession {
            plan: self,
            rng: splitmix_init(self.seed),
            fired: vec![false; self.scheduled.len()],
            gpu_lost: false,
            cpu_lost: false,
        }
    }

    /// Resume a session from a persisted [`FaultCursor`], so a traversal
    /// restarted from a checkpoint consumes exactly the fault stream
    /// suffix the uninterrupted run would have seen. Fails if the cursor
    /// does not track this plan's scheduled faults.
    pub fn session_at(&self, cursor: &FaultCursor) -> Result<FaultSession<'_>, XbfsError> {
        if cursor.fired.len() != self.scheduled.len() {
            return Err(XbfsError::Checkpoint {
                what: format!(
                    "fault cursor tracks {} scheduled fault(s), plan has {}",
                    cursor.fired.len(),
                    self.scheduled.len()
                ),
            });
        }
        Ok(FaultSession {
            plan: self,
            rng: cursor.rng,
            fired: cursor.fired.clone(),
            gpu_lost: cursor.gpu_lost,
            cpu_lost: cursor.cpu_lost,
        })
    }
}

/// The resumable position of a [`FaultSession`]: the RNG state, which
/// one-shots have fired, and which devices have died. Checkpoints persist
/// this so that resuming a plan replays the identical fault suffix —
/// the probabilistic draws continue from the same stream position instead
/// of restarting from the seed.
#[derive(Clone, Debug, PartialEq, Eq, Serialize, Deserialize)]
pub struct FaultCursor {
    /// The splitmix64 state after every draw consumed so far.
    pub rng: u64,
    /// Fired flags, index-aligned with [`FaultPlan::scheduled`].
    pub fired: Vec<bool>,
    /// `true` once the GPU died before the cursor was cut.
    pub gpu_lost: bool,
    /// `true` once the CPU died before the cursor was cut.
    pub cpu_lost: bool,
}

fn splitmix_init(seed: u64) -> u64 {
    // Avoid the all-zero fixed point without perturbing other seeds.
    seed ^ 0x9e37_79b9_7f4a_7c15
}

fn splitmix_next(state: &mut u64) -> u64 {
    *state = state.wrapping_add(0x9e37_79b9_7f4a_7c15);
    let mut z = *state;
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    z ^ (z >> 31)
}

/// Mutable per-traversal injection state. Ask it before every simulated
/// operation; it answers with the fault to inject, if any.
pub struct FaultSession<'a> {
    plan: &'a FaultPlan,
    rng: u64,
    fired: Vec<bool>,
    gpu_lost: bool,
    cpu_lost: bool,
}

impl FaultSession<'_> {
    /// Uniform draw in `[0, 1)` from the session RNG.
    fn unit(&mut self) -> f64 {
        (splitmix_next(&mut self.rng) >> 11) as f64 / (1u64 << 53) as f64
    }

    /// `true` once the GPU has been lost this session.
    pub fn gpu_lost(&self) -> bool {
        self.gpu_lost
    }

    /// `true` once the CPU has been lost this session.
    pub fn cpu_lost(&self) -> bool {
        self.cpu_lost
    }

    /// Snapshot the session's mutable state for checkpointing; feed the
    /// cursor back through [`FaultPlan::session_at`] to resume.
    pub fn cursor(&self) -> FaultCursor {
        FaultCursor {
            rng: self.rng,
            fired: self.fired.clone(),
            gpu_lost: self.gpu_lost,
            cpu_lost: self.cpu_lost,
        }
    }

    /// Should `op` at BFS `level` fault? Scheduled one-shots fire first
    /// (each exactly once); otherwise the probabilistic draws run in a
    /// fixed order. A lost device keeps reporting [`FaultKind::DeviceLost`]
    /// for every later operation that needs it.
    pub fn check(&mut self, op: FaultOp, level: usize) -> Option<FaultKind> {
        let device_dead = match op {
            FaultOp::GpuKernel | FaultOp::Transfer => self.gpu_lost,
            FaultOp::CpuKernel => self.cpu_lost,
        };
        if device_dead {
            return Some(FaultKind::DeviceLost);
        }
        for (i, s) in self.plan.scheduled.iter().enumerate() {
            if !self.fired[i] && s.op == op && s.level == level {
                self.fired[i] = true;
                self.record_loss(op, s.kind);
                return Some(s.kind);
            }
        }
        match op {
            FaultOp::Transfer => {
                if self.unit() < self.plan.p_transfer_failure {
                    return Some(FaultKind::TransferFailure);
                }
                if self.unit() < self.plan.p_link_stall {
                    return Some(FaultKind::LinkStall);
                }
            }
            FaultOp::GpuKernel => {
                if self.unit() < self.plan.p_device_lost {
                    self.gpu_lost = true;
                    return Some(FaultKind::DeviceLost);
                }
                if self.unit() < self.plan.p_kernel_timeout {
                    return Some(FaultKind::KernelTimeout);
                }
            }
            FaultOp::CpuKernel => {}
        }
        None
    }

    fn record_loss(&mut self, op: FaultOp, kind: FaultKind) {
        if kind == FaultKind::DeviceLost {
            match op {
                FaultOp::GpuKernel | FaultOp::Transfer => self.gpu_lost = true,
                FaultOp::CpuKernel => self.cpu_lost = true,
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn none_plan_never_faults() {
        let plan = FaultPlan::none();
        let mut s = plan.session();
        for level in 0..64 {
            assert_eq!(s.check(FaultOp::Transfer, level), None);
            assert_eq!(s.check(FaultOp::GpuKernel, level), None);
            assert_eq!(s.check(FaultOp::CpuKernel, level), None);
        }
    }

    #[test]
    fn scheduled_fault_fires_exactly_once() {
        let plan = FaultPlan::lost_at(FaultOp::Transfer, 3);
        let mut s = plan.session();
        assert_eq!(s.check(FaultOp::Transfer, 2), None);
        assert_eq!(s.check(FaultOp::Transfer, 3), Some(FaultKind::DeviceLost));
        // Losing the link's device poisons all later GPU-side operations.
        assert_eq!(s.check(FaultOp::Transfer, 3), Some(FaultKind::DeviceLost));
        assert_eq!(s.check(FaultOp::GpuKernel, 4), Some(FaultKind::DeviceLost));
        assert_eq!(s.check(FaultOp::CpuKernel, 4), None);
    }

    #[test]
    fn transient_scheduled_fault_does_not_poison() {
        let plan = FaultPlan {
            scheduled: vec![ScheduledFault {
                op: FaultOp::Transfer,
                level: 1,
                kind: FaultKind::TransferFailure,
            }],
            ..FaultPlan::none()
        };
        let mut s = plan.session();
        assert_eq!(
            s.check(FaultOp::Transfer, 1),
            Some(FaultKind::TransferFailure)
        );
        // One-shot: the retry goes through.
        assert_eq!(s.check(FaultOp::Transfer, 1), None);
    }

    #[test]
    fn probabilistic_faults_are_deterministic_per_seed() {
        let plan = FaultPlan {
            seed: 7,
            p_transfer_failure: 0.5,
            p_kernel_timeout: 0.3,
            ..FaultPlan::none()
        };
        let run = |plan: &FaultPlan| {
            let mut s = plan.session();
            (0..32)
                .map(|lvl| {
                    (
                        s.check(FaultOp::Transfer, lvl),
                        s.check(FaultOp::GpuKernel, lvl),
                    )
                })
                .collect::<Vec<_>>()
        };
        assert_eq!(run(&plan), run(&plan));
        let mut other = plan.clone();
        other.seed = 8;
        assert_ne!(run(&plan), run(&other));
        // At p = 0.5 some transfers must fault and some must not.
        let seq = run(&plan);
        assert!(seq.iter().any(|(t, _)| t.is_some()));
        assert!(seq.iter().any(|(t, _)| t.is_none()));
    }

    #[test]
    fn validate_rejects_bad_ranges() {
        let mut plan = FaultPlan::none();
        plan.p_device_lost = 1.5;
        assert!(matches!(plan.validate(), Err(XbfsError::FaultPlan(_))));
        let mut plan = FaultPlan::none();
        plan.stall_factor = 0.5;
        assert!(matches!(plan.validate(), Err(XbfsError::FaultPlan(_))));
        let mut plan = FaultPlan::none();
        plan.p_link_stall = f64::NAN;
        assert!(plan.validate().is_err());
        assert!(FaultPlan::none().validate().is_ok());
    }

    #[test]
    fn cursor_resume_replays_the_identical_fault_suffix() {
        let plan = FaultPlan {
            seed: 11,
            p_transfer_failure: 0.4,
            p_link_stall: 0.2,
            stall_factor: 3.0,
            p_kernel_timeout: 0.3,
            p_device_lost: 0.05,
            scheduled: vec![ScheduledFault {
                op: FaultOp::CpuKernel,
                level: 9,
                kind: FaultKind::KernelTimeout,
            }],
        };
        // Drive an uninterrupted session, cutting a cursor mid-stream.
        let mut whole = plan.session();
        let mut prefix = Vec::new();
        for lvl in 0..6 {
            prefix.push(whole.check(FaultOp::Transfer, lvl));
            prefix.push(whole.check(FaultOp::GpuKernel, lvl));
        }
        let cursor = whole.cursor();
        let suffix: Vec<_> = (6..20)
            .flat_map(|lvl| {
                [
                    whole.check(FaultOp::Transfer, lvl),
                    whole.check(FaultOp::GpuKernel, lvl),
                    whole.check(FaultOp::CpuKernel, lvl),
                ]
            })
            .collect();

        // Resume from the cursor: the suffix must match draw for draw.
        let mut resumed = plan.session_at(&cursor).expect("cursor fits plan");
        let resumed_suffix: Vec<_> = (6..20)
            .flat_map(|lvl| {
                [
                    resumed.check(FaultOp::Transfer, lvl),
                    resumed.check(FaultOp::GpuKernel, lvl),
                    resumed.check(FaultOp::CpuKernel, lvl),
                ]
            })
            .collect();
        assert_eq!(resumed_suffix, suffix);

        // A fresh session does NOT match the suffix (the stream position
        // matters) — otherwise the cursor would be vacuous.
        let mut fresh = plan.session();
        let fresh_suffix: Vec<_> = (6..20)
            .flat_map(|lvl| {
                [
                    fresh.check(FaultOp::Transfer, lvl),
                    fresh.check(FaultOp::GpuKernel, lvl),
                    fresh.check(FaultOp::CpuKernel, lvl),
                ]
            })
            .collect();
        assert_ne!(fresh_suffix, suffix);
    }

    #[test]
    fn cursor_preserves_dead_devices_and_fired_one_shots() {
        let plan = FaultPlan::lost_at(FaultOp::GpuKernel, 2);
        let mut s = plan.session();
        assert_eq!(s.check(FaultOp::GpuKernel, 2), Some(FaultKind::DeviceLost));
        let cursor = s.cursor();
        assert!(cursor.gpu_lost);
        assert_eq!(cursor.fired, vec![true]);
        let mut resumed = plan.session_at(&cursor).unwrap();
        assert!(resumed.gpu_lost());
        assert_eq!(
            resumed.check(FaultOp::GpuKernel, 5),
            Some(FaultKind::DeviceLost)
        );
        assert_eq!(resumed.check(FaultOp::CpuKernel, 5), None);
    }

    #[test]
    fn cursor_from_the_wrong_plan_is_rejected() {
        let plan = FaultPlan::lost_at(FaultOp::Transfer, 1);
        let cursor = plan.session().cursor();
        let other = FaultPlan::none(); // no scheduled faults
        assert!(matches!(
            other.session_at(&cursor),
            Err(XbfsError::Checkpoint { .. })
        ));
    }

    #[test]
    fn cursor_serde_round_trip() {
        let plan = FaultPlan {
            seed: 3,
            p_kernel_timeout: 0.5,
            ..FaultPlan::none()
        };
        let mut s = plan.session();
        for lvl in 0..8 {
            s.check(FaultOp::GpuKernel, lvl);
        }
        let cursor = s.cursor();
        let json = serde_json::to_string(&cursor).expect("cursor serializes");
        let back: FaultCursor = serde_json::from_str(&json).expect("parses");
        assert_eq!(back, cursor);
    }

    #[test]
    fn json_round_trip() {
        let plan = FaultPlan {
            seed: 42,
            p_transfer_failure: 0.1,
            p_link_stall: 0.05,
            stall_factor: 8.0,
            p_kernel_timeout: 0.02,
            p_device_lost: 0.01,
            scheduled: vec![ScheduledFault {
                op: FaultOp::GpuKernel,
                level: 3,
                kind: FaultKind::DeviceLost,
            }],
        };
        let json = plan.to_json();
        let back = FaultPlan::from_json(&json).expect("round trip");
        assert_eq!(back, plan);
    }

    #[test]
    fn bit_flip_is_a_one_shot_that_does_not_poison() {
        let plan = FaultPlan {
            scheduled: vec![ScheduledFault {
                op: FaultOp::GpuKernel,
                level: 2,
                kind: FaultKind::BitFlip {
                    payload: CorruptPayload::Parents,
                    word: 19,
                    bit: 5,
                },
            }],
            ..FaultPlan::none()
        };
        let mut s = plan.session();
        assert_eq!(s.check(FaultOp::GpuKernel, 1), None);
        assert_eq!(
            s.check(FaultOp::GpuKernel, 2),
            Some(FaultKind::BitFlip {
                payload: CorruptPayload::Parents,
                word: 19,
                bit: 5,
            })
        );
        // One-shot: the re-run after a rollback repair is clean, and a
        // silent flip never kills the device.
        assert_eq!(s.check(FaultOp::GpuKernel, 2), None);
        assert!(!s.gpu_lost());
        assert_eq!(s.check(FaultOp::Transfer, 3), None);
    }

    #[test]
    fn bit_flip_labels() {
        let k = FaultKind::BitFlip {
            payload: CorruptPayload::Bitmap,
            word: 0,
            bit: 31,
        };
        assert_eq!(k.name(), "bit-flip");
        assert_eq!(CorruptPayload::Bitmap.name(), "bitmap");
        assert_eq!(CorruptPayload::Parents.name(), "parents");
    }

    #[test]
    fn bit_flip_plans_round_trip_through_json() {
        let plan = FaultPlan {
            seed: 1301,
            scheduled: vec![
                ScheduledFault {
                    op: FaultOp::Transfer,
                    level: 3,
                    kind: FaultKind::BitFlip {
                        payload: CorruptPayload::Bitmap,
                        word: 7,
                        bit: 3,
                    },
                },
                ScheduledFault {
                    op: FaultOp::CpuKernel,
                    level: 1,
                    kind: FaultKind::BitFlip {
                        payload: CorruptPayload::Parents,
                        word: 40,
                        bit: 0,
                    },
                },
            ],
            ..FaultPlan::none()
        };
        let json = plan.to_json();
        let back = FaultPlan::from_json(&json).expect("round trip");
        assert_eq!(back, plan);
        // The committed chaos-plan format spells the variant out by name.
        assert!(json.contains("BitFlip"), "{json}");
        assert!(json.contains("Bitmap"), "{json}");
    }

    #[test]
    fn bit_flip_cursor_resume_does_not_refire() {
        let plan = FaultPlan {
            scheduled: vec![ScheduledFault {
                op: FaultOp::Transfer,
                level: 2,
                kind: FaultKind::BitFlip {
                    payload: CorruptPayload::Bitmap,
                    word: 1,
                    bit: 1,
                },
            }],
            ..FaultPlan::none()
        };
        let mut s = plan.session();
        assert!(matches!(
            s.check(FaultOp::Transfer, 2),
            Some(FaultKind::BitFlip { .. })
        ));
        let cursor = s.cursor();
        assert_eq!(cursor.fired, vec![true]);
        let mut resumed = plan.session_at(&cursor).unwrap();
        // A corrupted run rolled back to a checkpoint past the flip stays
        // byte-deterministic: the fired flag travels with the cursor.
        assert_eq!(resumed.check(FaultOp::Transfer, 2), None);
    }

    #[test]
    fn from_json_rejects_garbage_and_bad_ranges() {
        assert!(matches!(
            FaultPlan::from_json("not json"),
            Err(XbfsError::FaultPlan(_))
        ));
        let mut plan = FaultPlan::none();
        plan.p_transfer_failure = 2.0;
        let json = plan.to_json();
        assert!(FaultPlan::from_json(&json).is_err());
    }
}
