//! Online per-level placement policy — the learned replacement for the
//! paper's offline-trained `(M, N)` switch points.
//!
//! The offline pipeline (PR 1) regresses two global thresholds from 140
//! training samples and then never looks at the graph again. Verstraaten
//! et al. (PAPERS.md) showed that per-level, graph-property-driven
//! direction choice beats any single global switch point; with the query
//! service replaying many traversals over one graph, the repeated-query
//! structure needed to *learn* that per-level choice online finally
//! exists. This module supplies it:
//!
//! * [`OnlineBandit`] — a seeded, deterministic multi-armed bandit over
//!   discretized frontier-feature bins. Each level's
//!   [`SwitchContext`] (frontier size, Σdeg, max deg, unvisited-edge
//!   estimate — the same features the work-stealing kernels already fold
//!   into `Partial::discover`) maps to a bin; the arms are the four
//!   direction × device placements. The reward signal is the realized
//!   per-level simulated cost the `KernelCost` trace spans already price.
//! * [`PolicyRun`] — one traversal's view of the bandit: a snapshot taken
//!   at a deterministic point plus a local observation log, so queries
//!   in flight together never share learning state (see *Determinism*).
//! * [`SharedPolicy`] — the master bandit a service owns across queries.
//! * [`PolicyMode`] — the off-by-default configuration switch surfaced on
//!   `RunSession` / `BatchSession` / `ServiceConfig`.
//!
//! # Decision rule
//!
//! Per bin, arms are tried in a fixed deterministic order before any
//! exploitation happens:
//!
//! 1. The **offline arm first**: the placement Algorithm 3's `(M1, N1)`
//!    and `(M2, N2)` rules would have chosen is always the bin's first
//!    play, so the learned policy starts from the offline baseline and
//!    can only gather evidence against it.
//! 2. Remaining unplayed arms in a splitmix64-seeded per-bin permutation
//!    (`explore = true` in the emitted `PolicyDecision`).
//! 3. Once every eligible arm has at least one observation: greedy argmin
//!    of mean observed cost, ties to the lowest arm index
//!    (`explore = false`).
//!
//! After the one-way CPU→GPU handoff has fired, only the GPU arms are
//! eligible — Algorithm 3's latch is preserved, the bandit merely chooses
//! *when* to hand off and which direction each level runs.
//!
//! # Determinism
//!
//! Everything is a pure function of `(seed, bin, observation history)`.
//! Queries overlap on the simulated clock, so the master bandit is never
//! mutated mid-flight: each query takes a
//! [`snapshot`](OnlineBandit::snapshot) at its deterministic admission
//! point, decides
//! and self-observes locally, and returns its [`Observation`] log, which
//! the service event loop applies to the master in simulated-completion
//! order. Two runs of the same seeded stream therefore produce
//! byte-identical reports and traces.
//!
//! Placement never changes BFS *results* — frontier evolution is
//! direction-independent — so the policy only moves simulated seconds,
//! never parents or levels.

use crate::cross::Placement;
use serde::{Deserialize, Serialize};
use std::cell::RefCell;
use std::collections::BTreeMap;
use std::sync::{Arc, Mutex};
use xbfs_engine::SwitchContext;

/// Number of bandit arms: the four direction × device placements.
pub const POLICY_ARMS: usize = 4;

/// Number of discretized feature bins (8 frontier-density buckets × 4
/// unvisited-edge buckets × the handoff bit).
pub const POLICY_BINS: u32 = 64;

/// Which per-level policy a run / batch / service uses. The default is
/// the paper's offline pipeline, byte-identical to the pre-policy code.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq, Serialize, Deserialize)]
pub enum PolicyMode {
    /// Fixed offline `(M, N)` pairs (Algorithm 3 as trained) — default.
    #[default]
    Offline,
    /// Seeded online bandit over feature bins, updated across queries.
    Online {
        /// Bandit seed: drives each bin's exploration permutation.
        seed: u64,
    },
}

impl PolicyMode {
    /// `true` for [`PolicyMode::Online`].
    pub fn is_online(&self) -> bool {
        matches!(self, PolicyMode::Online { .. })
    }

    /// Parse a CLI-style mode string: `offline`, `online`, or
    /// `online:SEED`.
    pub fn parse(s: &str) -> Option<Self> {
        match s {
            "offline" => Some(PolicyMode::Offline),
            "online" => Some(PolicyMode::Online { seed: 0 }),
            other => other
                .strip_prefix("online:")
                .and_then(|seed| seed.parse().ok())
                .map(|seed| PolicyMode::Online { seed }),
        }
    }
}

impl std::fmt::Display for PolicyMode {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            PolicyMode::Offline => write!(f, "offline"),
            PolicyMode::Online { seed } => write!(f, "online:{seed}"),
        }
    }
}

/// splitmix64 finalizer — the deterministic generator family the rest of
/// the codebase (CLI arrival streams, trace sampling) already uses.
fn splitmix64(x: u64) -> u64 {
    let mut z = x.wrapping_add(0x9E37_79B9_7F4A_7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// Stable arm index of a placement (`CpuTd=0, CpuBu=1, GpuTd=2, GpuBu=3`).
pub fn arm_index(p: Placement) -> usize {
    match p {
        Placement::CpuTd => 0,
        Placement::CpuBu => 1,
        Placement::GpuTd => 2,
        Placement::GpuBu => 3,
    }
}

/// Placement of an arm index.
///
/// # Panics
/// Panics if `arm >= POLICY_ARMS`.
pub fn arm_placement(arm: usize) -> Placement {
    match arm {
        0 => Placement::CpuTd,
        1 => Placement::CpuBu,
        2 => Placement::GpuTd,
        3 => Placement::GpuBu,
        other => panic!("arm {other} out of range (0..{POLICY_ARMS})"),
    }
}

/// Discretize a level's frontier features into a bandit bin.
///
/// * 8 frontier-density buckets: `⌊-log₂(|E|cq / |E|)⌋` clamped to
///   `0..=7` (0 = the frontier carries ≥ half the graph's edges, 7 = a
///   thin tail level or an empty frontier).
/// * 4 unvisited-edge buckets: `⌊4 · unvisited / |E|⌋` clamped to `0..=3`.
/// * 1 handoff bit.
pub fn feature_bin(ctx: &SwitchContext, handed_off: bool) -> u32 {
    let fe_bin = if ctx.total_edges == 0 || ctx.frontier_edges == 0 {
        7
    } else {
        let ratio = ctx.frontier_edges as f64 / ctx.total_edges as f64;
        let b = -ratio.log2();
        if b.is_finite() && b > 0.0 {
            (b.floor() as u32).min(7)
        } else {
            0
        }
    };
    let ue_bin = if ctx.total_edges == 0 {
        0
    } else {
        // u128 so a near-u64::MAX unvisited count cannot wrap the ×4.
        ((ctx.unvisited_edges as u128 * 4 / ctx.total_edges as u128).min(3)) as u32
    };
    (fe_bin * 4 + ue_bin) * 2 + u32::from(handed_off)
}

/// One placement decision the bandit made for one level.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct Decision {
    /// The chosen direction × device placement.
    pub placement: Placement,
    /// Feature bin the decision was drawn from.
    pub bin: u32,
    /// `true` while the bin is still exploring unplayed arms.
    pub explore: bool,
}

/// One realized per-level cost, keyed by the bin and arm that earned it —
/// the unit of the snapshot-and-delta protocol between service queries
/// and the master bandit.
#[derive(Clone, Copy, Debug, PartialEq, Serialize, Deserialize)]
pub struct Observation {
    /// Feature bin the decision was drawn from.
    pub bin: u32,
    /// Placement that ran the level.
    pub placement: Placement,
    /// Realized simulated cost (level kernel time, plus the handoff
    /// transfer when this decision triggered it).
    pub cost_s: f64,
}

/// Per-bin play counts and cost totals, one slot per arm.
#[derive(Clone, Debug, Default, PartialEq)]
struct BinStats {
    plays: [u64; POLICY_ARMS],
    cost_s: [f64; POLICY_ARMS],
}

/// The seeded deterministic bandit: per-bin, per-arm play counts and mean
/// observed costs. Cloning is cheap enough to snapshot per query (a few
/// dozen small bins at most).
#[derive(Clone, Debug, PartialEq)]
pub struct OnlineBandit {
    seed: u64,
    frozen: bool,
    bins: BTreeMap<u32, BinStats>,
}

impl OnlineBandit {
    /// A fresh learning bandit.
    pub fn new(seed: u64) -> Self {
        Self {
            seed,
            frozen: false,
            bins: BTreeMap::new(),
        }
    }

    /// A frozen bandit: decisions work, observations are discarded. A
    /// frozen *never-updated* bandit is pure passthrough — every decision
    /// is the offline arm, so runs are bit-identical to
    /// [`PolicyMode::Offline`].
    pub fn frozen(seed: u64) -> Self {
        Self {
            seed,
            frozen: true,
            bins: BTreeMap::new(),
        }
    }

    /// Stop learning; decisions keep using the accumulated means.
    pub fn freeze(&mut self) {
        self.frozen = true;
    }

    /// Whether observations are currently discarded.
    pub fn is_frozen(&self) -> bool {
        self.frozen
    }

    /// The bandit seed.
    pub fn seed(&self) -> u64 {
        self.seed
    }

    /// Total observations across all bins and arms.
    pub fn total_plays(&self) -> u64 {
        self.bins
            .values()
            .map(|b| b.plays.iter().sum::<u64>())
            .sum()
    }

    /// `true` when the bandit can never deviate from the offline policy:
    /// frozen with zero observations. Execution paths check this up front
    /// and fall back to the plain offline code path, making the off state
    /// bit-identical (no `PolicyDecision` events, no feature folds).
    pub fn is_passthrough(&self) -> bool {
        self.frozen && self.bins.values().all(|b| b.plays.iter().all(|&p| p == 0))
    }

    /// The bin's per-arm exploration order: a Fisher–Yates permutation of
    /// the arm indices drawn from `splitmix64(seed, bin)`.
    fn exploration_order(&self, bin: u32) -> [usize; POLICY_ARMS] {
        let mut arms = [0usize, 1, 2, 3];
        let mut state =
            splitmix64(self.seed ^ (u64::from(bin)).wrapping_mul(0x9E37_79B9_7F4A_7C15));
        for i in (1..POLICY_ARMS).rev() {
            state = splitmix64(state);
            let j = (state % (i as u64 + 1)) as usize;
            arms.swap(i, j);
        }
        arms
    }

    /// Choose a placement for the level described by `ctx`. `offline` is
    /// the placement Algorithm 3 would choose (always the bin's first
    /// play); `handed_off` restricts the arms to the GPU after the
    /// one-way handoff.
    pub fn decide(&self, ctx: &SwitchContext, handed_off: bool, offline: Placement) -> Decision {
        let bin = feature_bin(ctx, handed_off);
        let plays = self.bins.get(&bin).map_or([0u64; POLICY_ARMS], |b| b.plays);
        let eligible = |arm: usize| -> bool { !handed_off || arm_placement(arm).on_gpu() };

        // 1. Offline arm first.
        let off = arm_index(offline);
        if plays[off] == 0 {
            return Decision {
                placement: offline,
                bin,
                explore: true,
            };
        }
        // 2. Unplayed arms in the bin's seeded permutation order.
        for &arm in &self.exploration_order(bin) {
            if eligible(arm) && plays[arm] == 0 {
                return Decision {
                    placement: arm_placement(arm),
                    bin,
                    explore: true,
                };
            }
        }
        // 3. Greedy argmin of mean cost; ties to the lowest arm index.
        let stats = self.bins.get(&bin).expect("played bin has stats");
        let mut best = off;
        let mut best_mean = f64::INFINITY;
        for arm in 0..POLICY_ARMS {
            if !eligible(arm) {
                continue;
            }
            let mean = stats.cost_s[arm] / stats.plays[arm] as f64;
            if mean < best_mean {
                best_mean = mean;
                best = arm;
            }
        }
        Decision {
            placement: arm_placement(best),
            bin,
            explore: false,
        }
    }

    /// Fold one realized cost into the bin's arm. No-op when frozen.
    pub fn observe(&mut self, bin: u32, placement: Placement, cost_s: f64) {
        if self.frozen {
            return;
        }
        let stats = self.bins.entry(bin).or_default();
        let arm = arm_index(placement);
        stats.plays[arm] = stats.plays[arm].saturating_add(1);
        stats.cost_s[arm] += cost_s;
    }

    /// Apply a query's observation log (the delta half of the
    /// snapshot-and-delta protocol). No-op when frozen.
    pub fn apply(&mut self, observations: &[Observation]) {
        for obs in observations {
            self.observe(obs.bin, obs.placement, obs.cost_s);
        }
    }

    /// A clone to hand to one query (the snapshot half of the protocol).
    pub fn snapshot(&self) -> OnlineBandit {
        self.clone()
    }
}

/// One traversal's bandit state: a snapshot it decides (and self-observes)
/// against, plus the delta log of observations to return to the master.
/// Within one query the snapshot *is* updated level by level, so later
/// levels of the same traversal see earlier levels' costs — deterministic,
/// because a traversal is sequential.
#[derive(Clone, Debug)]
pub struct PolicyRun {
    bandit: OnlineBandit,
    observations: Vec<Observation>,
}

impl PolicyRun {
    /// Wrap a snapshot for one traversal.
    pub fn new(snapshot: OnlineBandit) -> Self {
        Self {
            bandit: snapshot,
            observations: Vec::new(),
        }
    }

    /// See [`OnlineBandit::is_passthrough`].
    pub fn is_passthrough(&self) -> bool {
        self.bandit.is_passthrough()
    }

    /// See [`OnlineBandit::decide`].
    pub fn decide(&self, ctx: &SwitchContext, handed_off: bool, offline: Placement) -> Decision {
        self.bandit.decide(ctx, handed_off, offline)
    }

    /// Observe a realized cost into the local snapshot and append it to
    /// the delta log (unless the snapshot is frozen).
    pub fn observe(&mut self, bin: u32, placement: Placement, cost_s: f64) {
        if self.bandit.is_frozen() {
            return;
        }
        self.bandit.observe(bin, placement, cost_s);
        self.observations.push(Observation {
            bin,
            placement,
            cost_s,
        });
    }

    /// The delta log accumulated so far.
    pub fn observations(&self) -> &[Observation] {
        &self.observations
    }

    /// Drain the delta log (for returning it to the service event loop).
    pub fn take_observations(&mut self) -> Vec<Observation> {
        std::mem::take(&mut self.observations)
    }
}

/// Interior-mutable [`PolicyRun`] handle threaded through one traversal's
/// execution (the drivers hold shared references to their arguments, so
/// the per-level decide/observe cycle needs a cell).
pub type PolicyCell = RefCell<PolicyRun>;

/// The master bandit a service (or any multi-query caller) owns: cheap to
/// clone, snapshot per query, and apply deltas in completion order.
#[derive(Clone, Debug)]
pub struct SharedPolicy {
    inner: Arc<Mutex<OnlineBandit>>,
}

impl SharedPolicy {
    /// Wrap an existing bandit.
    pub fn new(bandit: OnlineBandit) -> Self {
        Self {
            inner: Arc::new(Mutex::new(bandit)),
        }
    }

    /// A fresh learning bandit under `seed`.
    pub fn online(seed: u64) -> Self {
        Self::new(OnlineBandit::new(seed))
    }

    /// The shared policy for a [`PolicyMode`], `None` for offline.
    pub fn from_mode(mode: PolicyMode) -> Option<Self> {
        match mode {
            PolicyMode::Offline => None,
            PolicyMode::Online { seed } => Some(Self::online(seed)),
        }
    }

    /// Snapshot the master (a deep clone).
    pub fn snapshot(&self) -> OnlineBandit {
        self.inner.lock().expect("policy lock").snapshot()
    }

    /// A fresh [`PolicyCell`] seeded from the current master state.
    pub fn run_cell(&self) -> PolicyCell {
        RefCell::new(PolicyRun::new(self.snapshot()))
    }

    /// Apply a completed query's observation log to the master.
    pub fn apply(&self, observations: &[Observation]) {
        self.inner.lock().expect("policy lock").apply(observations);
    }

    /// Total observations the master has accumulated.
    pub fn total_plays(&self) -> u64 {
        self.inner.lock().expect("policy lock").total_plays()
    }
}

/// Build the [`SwitchContext`] the cross executor's decision hook feeds
/// the bandit: the same features [`TraversalState::step`] computes, read
/// out before the step so the decision can be forced.
///
/// [`TraversalState::step`]: xbfs_engine::TraversalState::step
pub fn switch_context_for(
    csr: &xbfs_graph::Csr,
    state: &xbfs_engine::TraversalState,
) -> SwitchContext {
    let (frontier_edges, max_frontier_degree) =
        state.frontier.iter().fold((0u64, 0u64), |(sum, max), &v| {
            let d = csr.degree(v);
            (sum.saturating_add(d), max.max(d))
        });
    SwitchContext {
        level: state.next_level,
        frontier_vertices: state.frontier.len() as u64,
        frontier_edges,
        max_frontier_degree,
        unvisited_edges: state.unvisited_edges,
        total_vertices: csr.num_vertices() as u64,
        total_edges: csr.num_directed_edges(),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ctx(frontier_edges: u64, unvisited_edges: u64) -> SwitchContext {
        SwitchContext {
            level: 2,
            frontier_vertices: 100,
            frontier_edges,
            max_frontier_degree: 40,
            unvisited_edges,
            total_vertices: 4096,
            total_edges: 65_536,
        }
    }

    #[test]
    fn feature_bin_buckets_are_stable_and_bounded() {
        // Dense frontier, everything unvisited, CPU phase.
        let dense = feature_bin(&ctx(40_000, 60_000), false);
        // Thin frontier, little unvisited, GPU phase.
        let thin = feature_bin(&ctx(10, 100), true);
        assert_ne!(dense, thin);
        for fe in [0, 1, 100, 65_536] {
            for ue in [0, 65_536, u64::MAX] {
                for handed in [false, true] {
                    let bin = feature_bin(&ctx(fe, ue), handed);
                    assert!(bin < POLICY_BINS, "bin {bin} out of range");
                    assert_eq!(bin % 2 == 1, handed, "handoff bit must be bit 0");
                }
            }
        }
        // Degenerate totals never panic.
        let mut z = ctx(0, 0);
        z.total_edges = 0;
        assert!(feature_bin(&z, false) < POLICY_BINS);
    }

    #[test]
    fn first_play_is_always_the_offline_arm() {
        let bandit = OnlineBandit::new(7);
        for offline in [Placement::CpuTd, Placement::GpuTd, Placement::GpuBu] {
            let d = bandit.decide(&ctx(1000, 30_000), offline.on_gpu(), offline);
            assert_eq!(d.placement, offline);
            assert!(d.explore);
        }
    }

    #[test]
    fn exploration_covers_all_arms_then_exploits_the_argmin() {
        let mut bandit = OnlineBandit::new(42);
        let c = ctx(1000, 30_000);
        let mut seen = Vec::new();
        // Feed each decision a distinctive cost; CpuBu gets the cheapest.
        for _ in 0..POLICY_ARMS {
            let d = bandit.decide(&c, false, Placement::CpuTd);
            assert!(d.explore, "still exploring: {seen:?}");
            assert!(
                !seen.contains(&d.placement),
                "arm repeated during exploration"
            );
            let cost = if d.placement == Placement::CpuBu {
                0.5
            } else {
                2.0
            };
            bandit.observe(d.bin, d.placement, cost);
            seen.push(d.placement);
        }
        assert_eq!(seen[0], Placement::CpuTd, "offline arm explores first");
        let d = bandit.decide(&c, false, Placement::CpuTd);
        assert!(!d.explore);
        assert_eq!(d.placement, Placement::CpuBu);
    }

    #[test]
    fn handoff_restricts_arms_to_the_gpu() {
        let mut bandit = OnlineBandit::new(9);
        let c = ctx(1000, 30_000);
        for _ in 0..8 {
            let d = bandit.decide(&c, true, Placement::GpuBu);
            assert!(d.placement.on_gpu(), "{:?} escaped the latch", d.placement);
            bandit.observe(d.bin, d.placement, 1.0);
        }
    }

    #[test]
    fn decisions_are_deterministic_across_clones_and_seeds_differ() {
        let a = OnlineBandit::new(5);
        let b = a.snapshot();
        let c = ctx(64, 60_000);
        // Exhaust the offline arm so the permutation drives the choice.
        let mut a2 = a.clone();
        a2.observe(feature_bin(&c, false), Placement::CpuTd, 1.0);
        let mut b2 = b.clone();
        b2.observe(feature_bin(&c, false), Placement::CpuTd, 1.0);
        assert_eq!(
            a2.decide(&c, false, Placement::CpuTd),
            b2.decide(&c, false, Placement::CpuTd)
        );
        // Different seeds explore (generally) in different orders over bins.
        let orders: Vec<[usize; POLICY_ARMS]> = (0..8u64)
            .map(|s| OnlineBandit::new(s).exploration_order(11))
            .collect();
        assert!(
            orders.windows(2).any(|w| w[0] != w[1]),
            "all seeds produced one permutation"
        );
    }

    #[test]
    fn frozen_bandit_is_passthrough_until_it_has_plays() {
        let mut f = OnlineBandit::frozen(3);
        assert!(f.is_passthrough());
        f.observe(0, Placement::CpuTd, 1.0); // discarded
        assert!(f.is_passthrough());
        assert_eq!(f.total_plays(), 0);

        let mut warm = OnlineBandit::new(3);
        warm.observe(0, Placement::CpuTd, 1.0);
        warm.freeze();
        assert!(!warm.is_passthrough(), "frozen-with-history still decides");
        let before = warm.clone();
        warm.observe(0, Placement::GpuTd, 0.1);
        assert_eq!(warm, before, "frozen bandit must not learn");
    }

    #[test]
    fn policy_run_logs_deltas_and_master_applies_them() {
        let shared = SharedPolicy::online(21);
        let cell = shared.run_cell();
        {
            let mut run = cell.borrow_mut();
            run.observe(4, Placement::CpuTd, 1.5);
            run.observe(4, Placement::GpuTd, 0.5);
            assert_eq!(run.observations().len(), 2);
        }
        assert_eq!(shared.total_plays(), 0, "master untouched until applied");
        let obs = cell.borrow_mut().take_observations();
        shared.apply(&obs);
        assert_eq!(shared.total_plays(), 2);
        assert!(cell.borrow().observations().is_empty());
        // Two snapshot/apply cycles replay identically.
        let again = SharedPolicy::online(21);
        again.apply(&obs);
        assert_eq!(again.snapshot(), shared.snapshot());
    }

    #[test]
    fn policy_mode_parses_and_displays() {
        assert_eq!(PolicyMode::parse("offline"), Some(PolicyMode::Offline));
        assert_eq!(
            PolicyMode::parse("online"),
            Some(PolicyMode::Online { seed: 0 })
        );
        assert_eq!(
            PolicyMode::parse("online:77"),
            Some(PolicyMode::Online { seed: 77 })
        );
        assert_eq!(PolicyMode::parse("sideways"), None);
        assert_eq!(PolicyMode::Online { seed: 77 }.to_string(), "online:77");
        assert_eq!(PolicyMode::default(), PolicyMode::Offline);
        assert!(PolicyMode::Online { seed: 0 }.is_online());
    }

    #[test]
    fn observation_round_trips_through_json() {
        let obs = vec![
            Observation {
                bin: 3,
                placement: Placement::CpuBu,
                cost_s: 0.25,
            },
            Observation {
                bin: 60,
                placement: Placement::GpuTd,
                cost_s: 1.0,
            },
        ];
        let json = serde_json::to_string(&obs).expect("serializes");
        let back: Vec<Observation> = serde_json::from_str(&json).expect("parses");
        assert_eq!(back, obs);
    }
}
