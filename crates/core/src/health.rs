//! Per-device circuit breakers for the recovery ladder.
//!
//! PR 1's ladder rediscovers a sick device the hard way: every rung that
//! needs it burns `max_attempts` retries before degrading. A circuit
//! breaker moves that knowledge to *rung selection* time. Each simulated
//! device ([`Device::Cpu`], [`Device::Gpu`], [`Device::Link`]) gets a
//! three-state breaker:
//!
//! ```text
//!            failures >= threshold
//!   Closed ─────────────────────────▶ Open ──┐ (permanent on DeviceLost)
//!     ▲                                │     │
//!     │ probe succeeds        cooldown │     ▼
//!     └────────────── HalfOpen ◀───────┘   stays Open
//!                        │
//!                        └── probe fails ──▶ Open
//! ```
//!
//! `Closed` admits work; `Open` rejects it until a seeded-jitter cooldown
//! elapses on the simulated clock; `HalfOpen` admits exactly the next
//! operation as a probe — success re-closes the breaker, failure re-opens
//! it. Every device shares one fixed tuning: 3 straight transient failures
//! trip a breaker, and each cooldown lasts 2 ms of simulated time
//! stretched by up to 25 % seeded jitter, so co-tripped breakers do not
//! probe in lockstep. A
//! [`FaultKind::DeviceLost`](xbfs_archsim::fault::FaultKind) event opens
//! the breaker permanently: no probe can resurrect a device that fell off
//! the bus. Every transition is recorded so a `RunReport` can
//! show exactly when the runtime stopped trusting a device, and the chaos
//! suite can assert the state machine only ever walks legal edges.

use serde::{Deserialize, Serialize};

use crate::seeded::splitmix_unit;

/// A simulated device the runtime can stop trusting.
#[derive(Clone, Copy, Debug, PartialEq, Eq, PartialOrd, Ord, Serialize, Deserialize)]
pub enum Device {
    /// The host CPU.
    Cpu,
    /// The accelerator.
    Gpu,
    /// The host↔accelerator interconnect.
    Link,
}

impl Device {
    /// Stable lowercase name, matching the `device` strings in
    /// [`XbfsError`](xbfs_engine::XbfsError) fault variants.
    pub fn name(self) -> &'static str {
        match self {
            Device::Cpu => "cpu",
            Device::Gpu => "gpu",
            Device::Link => "link",
        }
    }
}

impl std::fmt::Display for Device {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.name())
    }
}

/// Breaker state.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Serialize, Deserialize)]
pub enum BreakerState {
    /// Healthy: operations flow.
    Closed,
    /// Tripped: operations are rejected until the cooldown elapses.
    Open,
    /// Probing: the next operation is admitted as a canary.
    HalfOpen,
}

impl BreakerState {
    /// Stable lowercase label for trace events and metrics keys.
    pub fn name(self) -> &'static str {
        match self {
            BreakerState::Closed => "closed",
            BreakerState::Open => "open",
            BreakerState::HalfOpen => "half-open",
        }
    }
}

impl std::fmt::Display for BreakerState {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.name())
    }
}

/// Why a breaker changed state.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Serialize, Deserialize)]
pub enum TransitionCause {
    /// Consecutive transient failures reached the threshold.
    FailureThreshold,
    /// The device fell off the bus — the breaker opens permanently.
    DeviceLost,
    /// The cooldown elapsed; the breaker admits a probe.
    ProbeWindow,
    /// The half-open probe failed.
    ProbeFailed,
    /// The half-open probe succeeded.
    ProbeSucceeded,
}

impl TransitionCause {
    /// Stable lowercase label for trace events and metrics keys.
    pub fn name(self) -> &'static str {
        match self {
            TransitionCause::FailureThreshold => "failure-threshold",
            TransitionCause::DeviceLost => "device-lost",
            TransitionCause::ProbeWindow => "probe-window",
            TransitionCause::ProbeFailed => "probe-failed",
            TransitionCause::ProbeSucceeded => "probe-succeeded",
        }
    }
}

/// One recorded state change of one device's breaker.
#[derive(Clone, Copy, Debug, PartialEq, Serialize, Deserialize)]
pub struct BreakerTransition {
    /// Whose breaker moved.
    pub device: Device,
    /// State before.
    pub from: BreakerState,
    /// State after.
    pub to: BreakerState,
    /// Simulated clock time of the transition.
    pub at_s: f64,
    /// Why.
    pub cause: TransitionCause,
}

/// `true` iff `from → to` is an edge of the breaker state machine. The
/// chaos suite asserts every recorded transition satisfies this — the
/// "monotone state machine" contract.
pub fn legal_transition(from: BreakerState, to: BreakerState) -> bool {
    use BreakerState::*;
    matches!(
        (from, to),
        (Closed, Open) | (Open, HalfOpen) | (HalfOpen, Closed) | (HalfOpen, Open)
    )
}

/// Consecutive transient failures that trip a closed breaker.
const FAILURE_THRESHOLD: u32 = 3;
/// Base cooldown before an open breaker admits a probe, in simulated
/// seconds.
const COOLDOWN_S: f64 = 2e-3;
/// Uniform jitter fraction: each cooldown is scheduled at
/// `COOLDOWN_S × (1 + PROBE_JITTER_FRAC × u)` with `u ~ U[0, 1)` from the
/// breaker's seeded RNG.
const PROBE_JITTER_FRAC: f64 = 0.25;

/// The serializable dynamic state of one breaker — what a checkpoint
/// persists (the tuning is constant, so nothing else is needed at
/// resume).
#[derive(Clone, Copy, Debug, PartialEq, Serialize, Deserialize)]
pub struct BreakerSnapshot {
    /// Current state.
    pub state: BreakerState,
    /// Consecutive transient failures seen.
    pub consecutive_failures: u32,
    /// Simulated time at which an open breaker admits a probe (finite;
    /// meaningless unless `state == Open` and not `permanent`).
    pub open_until_s: f64,
    /// `true` once the device is permanently gone.
    pub permanent: bool,
    /// The probe-jitter RNG state.
    pub rng: u64,
}

/// One device's circuit breaker.
#[derive(Clone, Debug)]
pub struct CircuitBreaker {
    device: Device,
    state: BreakerState,
    consecutive_failures: u32,
    open_until_s: f64,
    permanent: bool,
    rng: u64,
    transitions: Vec<BreakerTransition>,
}

impl CircuitBreaker {
    fn new(device: Device, seed: u64) -> Self {
        Self {
            device,
            state: BreakerState::Closed,
            consecutive_failures: 0,
            open_until_s: 0.0,
            permanent: false,
            // Decorrelate per-device probe schedules off one plan seed.
            rng: seed ^ (0xa076_1d64_78bd_642f ^ (device as u64).wrapping_mul(0x9e37_79b9)),
            transitions: Vec::new(),
        }
    }

    /// The device this breaker guards.
    pub fn device(&self) -> Device {
        self.device
    }

    /// Current state (without advancing the probe schedule).
    pub fn state(&self) -> BreakerState {
        self.state
    }

    /// May work be sent to this device at simulated time `now_s`? An open
    /// breaker whose cooldown has elapsed moves to half-open and admits
    /// the call as its probe.
    pub fn allows(&mut self, now_s: f64) -> bool {
        match self.state {
            BreakerState::Closed | BreakerState::HalfOpen => true,
            BreakerState::Open if !self.permanent && now_s >= self.open_until_s => {
                self.transition(BreakerState::HalfOpen, now_s, TransitionCause::ProbeWindow);
                true
            }
            BreakerState::Open => false,
        }
    }

    /// Record a failed operation. `permanent` marks device loss: the
    /// breaker opens for good.
    pub fn record_failure(&mut self, now_s: f64, permanent: bool) {
        self.consecutive_failures += 1;
        self.permanent |= permanent;
        match self.state {
            BreakerState::Closed => {
                if permanent {
                    self.open(now_s, TransitionCause::DeviceLost);
                } else if self.consecutive_failures >= FAILURE_THRESHOLD {
                    self.open(now_s, TransitionCause::FailureThreshold);
                }
            }
            BreakerState::HalfOpen => {
                let cause = if permanent {
                    TransitionCause::DeviceLost
                } else {
                    TransitionCause::ProbeFailed
                };
                self.open(now_s, cause);
            }
            // Already open (e.g. the device died while rejected): the
            // permanent flag is latched above; no new transition.
            BreakerState::Open => {}
        }
    }

    /// Record a successful operation: resets the failure streak and closes
    /// a half-open breaker.
    pub fn record_success(&mut self, now_s: f64) {
        self.consecutive_failures = 0;
        if self.state == BreakerState::HalfOpen {
            self.transition(BreakerState::Closed, now_s, TransitionCause::ProbeSucceeded);
        }
    }

    fn open(&mut self, now_s: f64, cause: TransitionCause) {
        let jitter = 1.0 + PROBE_JITTER_FRAC * splitmix_unit(&mut self.rng);
        self.open_until_s = now_s + COOLDOWN_S * jitter;
        self.transition(BreakerState::Open, now_s, cause);
    }

    fn transition(&mut self, to: BreakerState, at_s: f64, cause: TransitionCause) {
        debug_assert!(legal_transition(self.state, to), "{:?}->{to:?}", self.state);
        self.transitions.push(BreakerTransition {
            device: self.device,
            from: self.state,
            to,
            at_s,
            cause,
        });
        self.state = to;
    }

    /// Every transition so far, in order.
    pub fn transitions(&self) -> &[BreakerTransition] {
        &self.transitions
    }

    /// Snapshot the dynamic state for checkpointing.
    pub fn snapshot(&self) -> BreakerSnapshot {
        BreakerSnapshot {
            state: self.state,
            consecutive_failures: self.consecutive_failures,
            open_until_s: self.open_until_s,
            permanent: self.permanent,
            rng: self.rng,
        }
    }

    /// Restore the dynamic state from a snapshot (the transition log
    /// restarts empty — a resumed run reports its own transitions).
    pub fn restore(&mut self, snap: &BreakerSnapshot) {
        self.state = snap.state;
        self.consecutive_failures = snap.consecutive_failures;
        self.open_until_s = snap.open_until_s;
        self.permanent = snap.permanent;
        self.rng = snap.rng;
    }
}

/// Snapshot of all three device breakers, as persisted in a checkpoint.
#[derive(Clone, Copy, Debug, PartialEq, Serialize, Deserialize)]
pub struct HealthSnapshot {
    /// CPU breaker state.
    pub cpu: BreakerSnapshot,
    /// GPU breaker state.
    pub gpu: BreakerSnapshot,
    /// Link breaker state.
    pub link: BreakerSnapshot,
}

/// The runtime's view of device health: one breaker per device.
#[derive(Clone, Debug)]
pub struct DeviceHealth {
    cpu: CircuitBreaker,
    gpu: CircuitBreaker,
    link: CircuitBreaker,
}

impl DeviceHealth {
    /// Fresh all-closed health, with probe schedules seeded from `seed`.
    pub fn new(seed: u64) -> Self {
        Self {
            cpu: CircuitBreaker::new(Device::Cpu, seed),
            gpu: CircuitBreaker::new(Device::Gpu, seed),
            link: CircuitBreaker::new(Device::Link, seed),
        }
    }

    /// The breaker guarding `device`.
    pub fn breaker(&self, device: Device) -> &CircuitBreaker {
        match device {
            Device::Cpu => &self.cpu,
            Device::Gpu => &self.gpu,
            Device::Link => &self.link,
        }
    }

    fn breaker_mut(&mut self, device: Device) -> &mut CircuitBreaker {
        match device {
            Device::Cpu => &mut self.cpu,
            Device::Gpu => &mut self.gpu,
            Device::Link => &mut self.link,
        }
    }

    /// May work be sent to `device` now? (May move an expired open breaker
    /// to half-open.)
    pub fn allows(&mut self, device: Device, now_s: f64) -> bool {
        self.breaker_mut(device).allows(now_s)
    }

    /// Record a failure on `device`.
    pub fn record_failure(&mut self, device: Device, now_s: f64, permanent: bool) {
        self.breaker_mut(device).record_failure(now_s, permanent);
    }

    /// Record a success on `device`.
    pub fn record_success(&mut self, device: Device, now_s: f64) {
        self.breaker_mut(device).record_success(now_s);
    }

    /// The first of `devices` that refuses work right now, with its state
    /// — `None` if all admit. This is the rung-selection gate.
    pub fn first_denial(
        &mut self,
        devices: &[Device],
        now_s: f64,
    ) -> Option<(Device, BreakerState)> {
        devices.iter().copied().find_map(|d| {
            if self.allows(d, now_s) {
                None
            } else {
                Some((d, self.breaker(d).state()))
            }
        })
    }

    /// All transitions across all breakers, ordered by simulated time
    /// (stable within a device).
    pub fn transitions(&self) -> Vec<BreakerTransition> {
        let mut all: Vec<BreakerTransition> = self
            .cpu
            .transitions()
            .iter()
            .chain(self.gpu.transitions())
            .chain(self.link.transitions())
            .copied()
            .collect();
        all.sort_by(|a, b| a.at_s.total_cmp(&b.at_s).then(a.device.cmp(&b.device)));
        all
    }

    /// Snapshot all breakers for checkpointing.
    pub fn snapshot(&self) -> HealthSnapshot {
        HealthSnapshot {
            cpu: self.cpu.snapshot(),
            gpu: self.gpu.snapshot(),
            link: self.link.snapshot(),
        }
    }

    /// Restore all breakers from a snapshot.
    pub fn restore(&mut self, snap: &HealthSnapshot) {
        self.cpu.restore(&snap.cpu);
        self.gpu.restore(&snap.gpu);
        self.link.restore(&snap.link);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn breaker() -> CircuitBreaker {
        CircuitBreaker::new(Device::Gpu, 42)
    }

    #[test]
    fn threshold_failures_trip_the_breaker() {
        let mut b = breaker();
        assert_eq!(b.state(), BreakerState::Closed);
        b.record_failure(0.0, false);
        b.record_failure(0.1, false);
        assert_eq!(b.state(), BreakerState::Closed);
        assert!(b.allows(0.2));
        b.record_failure(0.2, false);
        assert_eq!(b.state(), BreakerState::Open);
        assert!(!b.allows(0.2));
    }

    #[test]
    fn success_resets_the_failure_streak() {
        let mut b = breaker();
        b.record_failure(0.0, false);
        b.record_failure(0.1, false);
        b.record_success(0.2);
        b.record_failure(0.3, false);
        b.record_failure(0.4, false);
        assert_eq!(b.state(), BreakerState::Closed);
    }

    #[test]
    fn cooldown_admits_a_probe_and_success_recloses() {
        let mut b = breaker();
        for t in 0..3 {
            b.record_failure(t as f64 * 1e-4, false);
        }
        assert_eq!(b.state(), BreakerState::Open);
        // Before the cooldown: rejected. Far after: half-open probe.
        assert!(!b.allows(3e-4));
        assert!(b.allows(1.0));
        assert_eq!(b.state(), BreakerState::HalfOpen);
        b.record_success(1.0);
        assert_eq!(b.state(), BreakerState::Closed);
    }

    #[test]
    fn failed_probe_reopens() {
        let mut b = breaker();
        for t in 0..3 {
            b.record_failure(t as f64 * 1e-4, false);
        }
        assert!(b.allows(1.0));
        b.record_failure(1.0, false);
        assert_eq!(b.state(), BreakerState::Open);
        assert!(!b.allows(1.0001));
    }

    #[test]
    fn device_lost_opens_permanently() {
        let mut b = breaker();
        b.record_failure(0.5, true);
        assert_eq!(b.state(), BreakerState::Open);
        // No cooldown ever admits a probe.
        assert!(!b.allows(1e12));
        assert_eq!(b.state(), BreakerState::Open);
    }

    #[test]
    fn every_recorded_transition_is_legal() {
        let mut b = breaker();
        for i in 0..20 {
            let t = i as f64 * 1e-3;
            if i % 5 == 4 {
                b.allows(t + 10.0);
                b.record_success(t + 10.0);
            } else {
                b.allows(t);
                b.record_failure(t, false);
            }
        }
        assert!(!b.transitions().is_empty());
        for tr in b.transitions() {
            assert!(legal_transition(tr.from, tr.to), "{tr:?}");
        }
    }

    #[test]
    fn probe_schedule_is_seeded_and_jittered() {
        let cooled = |seed: u64| {
            let mut b = CircuitBreaker::new(Device::Gpu, seed);
            for _ in 0..3 {
                b.record_failure(0.0, false);
            }
            b.snapshot().open_until_s
        };
        // Deterministic per seed, different across seeds, always at least
        // the base cooldown.
        assert_eq!(cooled(1), cooled(1));
        assert_ne!(cooled(1), cooled(2));
        assert!(cooled(1) >= COOLDOWN_S);
    }

    #[test]
    fn snapshot_restore_round_trip() {
        let mut b = breaker();
        b.record_failure(0.1, false);
        b.record_failure(0.2, false);
        b.record_failure(0.3, false);
        let snap = b.snapshot();
        let json = serde_json::to_string(&snap).unwrap();
        let back: BreakerSnapshot = serde_json::from_str(&json).unwrap();
        assert_eq!(back, snap);
        let mut fresh = breaker();
        fresh.restore(&back);
        assert_eq!(fresh.state(), b.state());
        assert!(!fresh.allows(0.3));
        assert!(fresh.allows(1.0)); // same jittered probe schedule
    }

    #[test]
    fn health_gates_rungs_by_first_denial() {
        let mut h = DeviceHealth::new(7);
        assert_eq!(
            h.first_denial(&[Device::Cpu, Device::Gpu, Device::Link], 0.0),
            None
        );
        h.record_failure(Device::Gpu, 0.0, true);
        let denial = h.first_denial(&[Device::Cpu, Device::Gpu, Device::Link], 0.0);
        assert_eq!(denial, Some((Device::Gpu, BreakerState::Open)));
        // A rung that only needs the CPU is unaffected.
        assert_eq!(h.first_denial(&[Device::Cpu], 0.0), None);
    }
}
