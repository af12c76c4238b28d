//! The cross-architecture combination (the paper's Algorithm 3).
//!
//! `CPUTD+GPUCB`: the CPU runs top-down while the frontier is small
//! (`|E|cq < |E|/M1` **and** `|V|cq < |V|/N1`); at the first violation the
//! traversal state is shipped over the link and the GPU finishes the graph,
//! choosing per level between top-down and bottom-up with `(M2, N2)`.
//! Control never returns to the CPU — the paper found the tail levels are
//! better served by the GPU's lower launch overhead than by paying another
//! transfer (§IV).
//!
//! Two entry points:
//! * [`cost_cross`] — price a parameter choice against a
//!   [`TraversalProfile`] in O(depth); used by the oracle sweeps, training
//!   and Fig. 8.
//! * [`run_cross`] — actually execute the traversal level by level with
//!   the engine kernels, producing a validated [`CrossRun`]; used by the
//!   examples, Table IV/V and the end-to-end tests.

use serde::{Deserialize, Serialize};
use xbfs_archsim::{cost, ArchSpec, Link, TraversalProfile};
use xbfs_engine::{
    Direction, FixedMN, SwitchContext, SwitchPolicy, Traversal, TraversalState, XbfsError,
};
use xbfs_graph::{Csr, VertexId};

/// Where one BFS level ran.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Serialize, Deserialize)]
pub enum Placement {
    /// Top-down on the CPU.
    CpuTd,
    /// Bottom-up on the CPU. Algorithm 3 never emits this — the paper's
    /// CPU phase is a top-down prefix — but the CPU-only rung places its
    /// bottom-up levels here, and the online policy may place a peak level
    /// here when the learned cost means favor it.
    CpuBu,
    /// Top-down on the GPU.
    GpuTd,
    /// Bottom-up on the GPU.
    GpuBu,
}

impl Placement {
    /// The traversal direction of this placement.
    pub fn direction(self) -> Direction {
        match self {
            Placement::CpuTd | Placement::GpuTd => Direction::TopDown,
            Placement::CpuBu | Placement::GpuBu => Direction::BottomUp,
        }
    }

    /// `true` if this placement runs on the GPU.
    pub fn on_gpu(self) -> bool {
        matches!(self, Placement::GpuTd | Placement::GpuBu)
    }

    /// Static device label ("cpu" / "gpu") for trace events.
    pub fn device(self) -> &'static str {
        if self.on_gpu() {
            "gpu"
        } else {
            "cpu"
        }
    }
}

impl std::fmt::Display for Placement {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            Placement::CpuTd => write!(f, "CPUTD"),
            Placement::CpuBu => write!(f, "CPUBU"),
            Placement::GpuTd => write!(f, "GPUTD"),
            Placement::GpuBu => write!(f, "GPUBU"),
        }
    }
}

/// Parameters of Algorithm 3.
#[derive(Clone, Copy, Debug, PartialEq, Serialize, Deserialize)]
pub struct CrossParams {
    /// `(M1, N1)` — stay on the CPU while the frontier is below both
    /// thresholds.
    pub handoff: FixedMN,
    /// `(M2, N2)` — the GPU-internal top-down/bottom-up switch.
    pub gpu: FixedMN,
}

impl CrossParams {
    /// Validate both threshold pairs: finite and strictly positive.
    ///
    /// [`cost_cross`] and [`run_cross`] trust their parameters. Every
    /// runtime entry (the recovery ladder, [`BatchSession`] and
    /// [`capture_at`]) passes them through this one gate first, so pricing
    /// and execution never disagree about which parameters are legal.
    ///
    /// [`BatchSession`]: crate::session::BatchSession
    /// [`capture_at`]: crate::checkpoint::capture_at
    pub fn validate(&self) -> Result<(), XbfsError> {
        FixedMN::try_new(self.handoff.m, self.handoff.n)?;
        FixedMN::try_new(self.gpu.m, self.gpu.n)?;
        Ok(())
    }

    /// The placement Algorithm 3 would choose at `ctx`, given whether the
    /// one-way handoff already fired — the offline baseline the online
    /// policy explores first in every feature bin. Before the handoff the
    /// CPU runs top-down iff the frontier is strictly below both `(M1, N1)`
    /// thresholds (line 9 of Algorithm 3); after it, `(M2, N2)` picks the
    /// GPU's direction.
    pub fn offline_placement(&self, ctx: &SwitchContext, handed_off: bool) -> Placement {
        if !handed_off && !self.handoff.wants_bottom_up(ctx) {
            Placement::CpuTd
        } else if self.gpu.wants_bottom_up(ctx) {
            Placement::GpuBu
        } else {
            Placement::GpuTd
        }
    }
}

/// Decide the placement of every level of `profile` per Algorithm 3.
///
/// The CPU phase is a *prefix*: once any level triggers the handoff, all
/// remaining levels run on the GPU (the inner `while` of Algorithm 3).
pub fn placement_script(profile: &TraversalProfile, params: &CrossParams) -> Vec<Placement> {
    let mut on_gpu = false;
    profile
        .levels
        .iter()
        .map(|lp| {
            let pl = params.offline_placement(&cost::switch_context(profile, lp), on_gpu);
            on_gpu |= pl.on_gpu();
            pl
        })
        .collect()
}

/// The priced execution plan of a cross-architecture traversal.
#[derive(Clone, Debug, PartialEq, Serialize, Deserialize)]
pub struct CrossCost {
    /// Placement per level.
    pub placements: Vec<Placement>,
    /// Simulated seconds per level (compute only).
    pub level_seconds: Vec<f64>,
    /// Seconds spent on the CPU→GPU handoff transfer (0 if it never fires).
    pub transfer_seconds: f64,
    /// Total simulated seconds.
    pub total_seconds: f64,
}

/// Price Algorithm 3 with `params` against a profile.
pub fn cost_cross(
    profile: &TraversalProfile,
    cpu: &ArchSpec,
    gpu: &ArchSpec,
    link: &Link,
    params: &CrossParams,
) -> CrossCost {
    let placements = placement_script(profile, params);
    let mut level_seconds = Vec::with_capacity(placements.len());
    let mut transfer_seconds = 0.0;
    let mut prev_on_gpu = false;
    for (lp, &pl) in profile.levels.iter().zip(&placements) {
        if pl.on_gpu() && !prev_on_gpu {
            let bytes = Link::handoff_bytes(profile.total_vertices, lp.frontier_vertices);
            transfer_seconds += link.transfer_time(bytes);
            prev_on_gpu = true;
        }
        let arch = if pl.on_gpu() { gpu } else { cpu };
        level_seconds.push(cost::level_time(arch, lp, pl.direction()));
    }
    let total_seconds = level_seconds.iter().sum::<f64>() + transfer_seconds;
    CrossCost {
        placements,
        level_seconds,
        transfer_seconds,
        total_seconds,
    }
}

/// A policy adapter so the engine driver can execute Algorithm 3: it
/// resolves placements and remembers them for post-hoc charging.
struct CrossPolicy {
    params: CrossParams,
    on_gpu: bool,
    placements: Vec<Placement>,
    /// One-shot placement override installed by
    /// [`CrossDriver::step_forced`]; consumed by the next decision.
    force: Option<Placement>,
}

impl SwitchPolicy for CrossPolicy {
    fn direction(&mut self, ctx: &SwitchContext) -> Direction {
        let placement = match self.force.take() {
            Some(forced) => {
                if forced.on_gpu() {
                    self.on_gpu = true;
                }
                forced
            }
            None => {
                let pl = self.params.offline_placement(ctx, self.on_gpu);
                if pl.on_gpu() {
                    self.on_gpu = true;
                }
                pl
            }
        };
        self.placements.push(placement);
        placement.direction()
    }
}

/// A stepwise executor of Algorithm 3: one [`step`](CrossDriver::step) per
/// level over a [`TraversalState`], with the handoff latch and placement
/// log exposed so a caller can pause at any level boundary, checkpoint,
/// and resume — including resuming a *partially executed* cross traversal
/// whose CPU→GPU handoff already happened.
pub struct CrossDriver {
    policy: CrossPolicy,
}

impl CrossDriver {
    /// Driver for a fresh traversal (level 0, CPU phase).
    pub fn new(params: CrossParams) -> Self {
        Self {
            policy: CrossPolicy {
                params,
                on_gpu: false,
                placements: Vec::new(),
                force: None,
            },
        }
    }

    /// Driver resuming mid-traversal: `placements` are the levels already
    /// executed (one per level of the resumed state) and `handed_off`
    /// tells the driver whether the one-way CPU→GPU handoff has already
    /// fired — Algorithm 3's control never returns to the CPU, so the
    /// latch is part of the resumable state.
    pub fn resume(params: CrossParams, handed_off: bool, placements: Vec<Placement>) -> Self {
        Self {
            policy: CrossPolicy {
                params,
                on_gpu: handed_off,
                placements,
                force: None,
            },
        }
    }

    /// `true` once the traversal state lives on the GPU.
    pub fn handed_off(&self) -> bool {
        self.policy.on_gpu
    }

    /// Placement per executed level, in order.
    pub fn placements(&self) -> &[Placement] {
        &self.policy.placements
    }

    /// Consume the driver, keeping the placement log.
    pub fn into_placements(self) -> Vec<Placement> {
        self.policy.placements
    }

    /// Execute one level of `state`, returning its placement — `None` once
    /// the traversal is complete.
    pub fn step(&mut self, csr: &Csr, state: &mut TraversalState) -> Option<Placement> {
        state.step(csr, &mut self.policy)?;
        self.policy.placements.last().copied()
    }

    /// Execute one level of `state` under an externally chosen
    /// `placement` (the online policy's decision hook), bypassing the
    /// `(M1, N1)`/`(M2, N2)` rules for this level only. A GPU placement
    /// still latches the one-way handoff; the offline rules resume for
    /// any later un-forced [`step`](Self::step).
    pub fn step_forced(
        &mut self,
        csr: &Csr,
        state: &mut TraversalState,
        placement: Placement,
    ) -> Option<Placement> {
        self.policy.force = Some(placement);
        let got = state.step(csr, &mut self.policy);
        if got.is_none() {
            self.policy.force = None;
        }
        got?;
        self.policy.placements.last().copied()
    }

    /// The offline placement the `(M1, N1)`/`(M2, N2)` rules would choose
    /// at `ctx` given the driver's current handoff latch.
    pub fn offline_placement(&self, ctx: &SwitchContext) -> Placement {
        self.policy
            .params
            .offline_placement(ctx, self.policy.on_gpu)
    }
}

/// A fully executed cross-architecture traversal.
#[derive(Clone, Debug)]
pub struct CrossRun {
    /// The real traversal (parents, levels, per-level trace).
    pub traversal: Traversal,
    /// Placement per level.
    pub placements: Vec<Placement>,
    /// Simulated seconds per level.
    pub level_seconds: Vec<f64>,
    /// Seconds charged for the CPU→GPU handoff.
    pub transfer_seconds: f64,
    /// Total simulated seconds.
    pub total_seconds: f64,
}

/// Execute Algorithm 3 for real: engine kernels traverse `csr`, placements
/// follow `params`, and the simulated clock charges each level on its
/// device plus the handoff transfer.
///
/// # Examples
/// ```
/// use xbfs_archsim::{ArchSpec, Link};
/// use xbfs_core::cross::{run_cross, CrossParams};
/// use xbfs_engine::FixedMN;
///
/// let g = xbfs_graph::rmat::rmat_csr(10, 16);
/// let params = CrossParams {
///     handoff: FixedMN::new(64.0, 64.0),
///     gpu: FixedMN::new(14.0, 24.0),
/// };
/// let run = run_cross(
///     &g, 0,
///     &ArchSpec::cpu_sandy_bridge(),
///     &ArchSpec::gpu_k20x(),
///     &Link::pcie3(),
///     &params,
/// );
/// assert!(xbfs_engine::validate(&g, &run.traversal.output).is_ok());
/// assert_eq!(run.placements.len(), run.level_seconds.len());
/// ```
pub fn run_cross(
    csr: &Csr,
    source: VertexId,
    cpu: &ArchSpec,
    gpu: &ArchSpec,
    link: &Link,
    params: &CrossParams,
) -> CrossRun {
    let mut driver = CrossDriver::new(*params);
    let mut state = TraversalState::start(csr, source);
    let mut level_seconds = Vec::new();
    let mut transfer_seconds = 0.0;
    let mut prev_on_gpu = false;
    while let Some(pl) = driver.step(csr, &mut state) {
        let rec = state.levels.last().expect("step just pushed a record");
        if pl.on_gpu() && !prev_on_gpu {
            let bytes = Link::handoff_bytes(csr.num_vertices() as u64, rec.frontier_vertices);
            transfer_seconds += link.transfer_time(bytes);
            prev_on_gpu = true;
        }
        let arch = if pl.on_gpu() { gpu } else { cpu };
        level_seconds.push(cost::level_time_for_record(arch, rec));
    }
    let total_seconds = level_seconds.iter().sum::<f64>() + transfer_seconds;
    CrossRun {
        traversal: state.into_traversal(),
        placements: driver.into_placements(),
        level_seconds,
        transfer_seconds,
        total_seconds,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use xbfs_archsim::profile;
    use xbfs_engine::validate;

    fn setup() -> (Csr, TraversalProfile, ArchSpec, ArchSpec, Link) {
        let g = xbfs_graph::rmat::rmat_csr(12, 16);
        let p = profile(&g, 0);
        (
            g,
            p,
            ArchSpec::cpu_sandy_bridge(),
            ArchSpec::gpu_k20x(),
            Link::pcie3(),
        )
    }

    fn paperish_params() -> CrossParams {
        CrossParams {
            handoff: FixedMN::new(64.0, 64.0),
            gpu: FixedMN::new(14.0, 24.0),
        }
    }

    #[test]
    fn placement_is_cpu_prefix_then_gpu() {
        let (_, p, ..) = setup();
        let script = placement_script(&p, &paperish_params());
        let first_gpu = script.iter().position(|pl| pl.on_gpu());
        if let Some(k) = first_gpu {
            assert!(script[..k].iter().all(|&pl| pl == Placement::CpuTd));
            assert!(script[k..].iter().all(|pl| pl.on_gpu()), "{script:?}");
        }
        // With these thresholds on an R-MAT graph both phases must occur.
        assert!(script[0] == Placement::CpuTd, "{script:?}");
        assert!(script.iter().any(|pl| pl.on_gpu()), "{script:?}");
    }

    #[test]
    fn gpu_tail_switches_back_to_topdown() {
        // The CPUTD+GPUCB signature (Table IV): the last levels are GPUTD.
        let (_, p, ..) = setup();
        let script = placement_script(&p, &paperish_params());
        assert_eq!(*script.last().unwrap(), Placement::GpuTd, "{script:?}");
        assert!(script.contains(&Placement::GpuBu), "{script:?}");
    }

    #[test]
    fn transfer_charged_exactly_once() {
        let (_, p, cpu, gpu, link) = setup();
        let c = cost_cross(&p, &cpu, &gpu, &link, &paperish_params());
        assert!(c.transfer_seconds > 0.0);
        // Handoff for this graph: 4096-bit bitmap + small frontier.
        let lo = link.transfer_time(Link::handoff_bytes(4096, 0));
        let hi = link.transfer_time(Link::handoff_bytes(4096, 4096));
        assert!(c.transfer_seconds >= lo && c.transfer_seconds <= hi);
    }

    #[test]
    fn all_cpu_params_mean_no_transfer() {
        let (_, p, cpu, gpu, link) = setup();
        let params = CrossParams {
            handoff: FixedMN::new(1e-6, 1e-6), // thresholds above any frontier
            gpu: FixedMN::new(14.0, 24.0),
        };
        let c = cost_cross(&p, &cpu, &gpu, &link, &params);
        assert_eq!(c.transfer_seconds, 0.0);
        assert!(c.placements.iter().all(|&pl| pl == Placement::CpuTd));
    }

    #[test]
    fn immediate_handoff_runs_all_gpu() {
        let (_, p, cpu, gpu, link) = setup();
        let params = CrossParams {
            handoff: FixedMN::new(1e9, 1e9), // any frontier triggers handoff
            gpu: FixedMN::new(14.0, 24.0),
        };
        let c = cost_cross(&p, &cpu, &gpu, &link, &params);
        assert!(c.placements.iter().all(|pl| pl.on_gpu()));
        assert!(c.transfer_seconds > 0.0);
    }

    #[test]
    fn cost_matches_run_on_same_placements() {
        // The profile-based costing and the real executor must agree.
        let (g, p, cpu, gpu, link) = setup();
        let params = paperish_params();
        let c = cost_cross(&p, &cpu, &gpu, &link, &params);
        let r = run_cross(&g, 0, &cpu, &gpu, &link, &params);
        assert_eq!(c.placements, r.placements);
        assert_eq!(c.level_seconds.len(), r.level_seconds.len());
        for (a, b) in c.level_seconds.iter().zip(&r.level_seconds) {
            assert!((a - b).abs() < 1e-12, "cost {a} vs run {b}");
        }
        assert!((c.total_seconds - r.total_seconds).abs() < 1e-12);
    }

    #[test]
    fn run_cross_output_is_a_valid_bfs() {
        let (g, _, cpu, gpu, link) = setup();
        let r = run_cross(&g, 0, &cpu, &gpu, &link, &paperish_params());
        assert_eq!(validate(&g, &r.traversal.output), Ok(()));
    }

    #[test]
    fn cross_beats_single_gpu_on_scale_free() {
        // The paper's headline: CPUTD+GPUCB beats GPUCB because the CPU
        // absorbs the small early levels (Table IV: 36.1× vs 16.5×). The
        // decisive case is the GPUTD hub blowup: when an early frontier
        // contains a hub, the GPU's single-thread-per-vertex gather
        // serializes on it (Table IV's 0.158 s level 2), while CPUTD walks
        // the same level in sub-millisecond time. Start next to the
        // biggest hub so the traversal's second level is exactly that
        // pathology; the hub's existence is structural in R-MAT, so the
        // test does not depend on a particular generator stream.
        use xbfs_archsim::cost_fixed_mn;
        let g = xbfs_graph::rmat::rmat_csr(17, 32);
        let hub = (0..g.num_vertices() as u32)
            .max_by_key(|&v| g.degree(v))
            .expect("non-empty graph");
        let src = g
            .neighbors(hub)
            .iter()
            .copied()
            .min_by_key(|&v| g.degree(v))
            .expect("a scale-free hub has neighbors");
        let p = profile(&g, src);
        let cpu = ArchSpec::cpu_sandy_bridge();
        let gpu = ArchSpec::gpu_k20x();
        let link = Link::pcie3();
        let cross = crate::oracle::best_mn_cross(
            &p,
            &cpu,
            &gpu,
            &link,
            FixedMN::new(14.0, 24.0),
            &crate::oracle::MnGrid::coarse(),
        );
        let gpu_only = cost_fixed_mn(&p, &gpu, FixedMN::new(14.0, 24.0));
        assert!(
            cross.seconds < gpu_only,
            "cross {} vs gpu {}",
            cross.seconds,
            gpu_only
        );
    }

    #[test]
    fn driver_resumed_mid_traversal_matches_uninterrupted_run() {
        let (g, _, cpu, gpu, link) = setup();
        let params = paperish_params();
        let whole = run_cross(&g, 0, &cpu, &gpu, &link, &params);
        for pause_at in [1, 3, whole.placements.len() - 1] {
            // Execute a prefix, capture the driver + state, rebuild both.
            let mut driver = CrossDriver::new(params);
            let mut st = xbfs_engine::TraversalState::start(&g, 0);
            for _ in 0..pause_at {
                driver.step(&g, &mut st);
            }
            let mut resumed =
                CrossDriver::resume(params, driver.handed_off(), driver.placements().to_vec());
            let mut st = st.clone();
            while resumed.step(&g, &mut st).is_some() {}
            assert_eq!(
                resumed.placements(),
                &whole.placements[..],
                "pause {pause_at}"
            );
            let t = st.into_traversal();
            assert_eq!(t.output, whole.traversal.output, "pause {pause_at}");
            assert_eq!(t.levels, whole.traversal.levels, "pause {pause_at}");
        }
    }

    #[test]
    fn placement_display() {
        assert_eq!(Placement::CpuTd.to_string(), "CPUTD");
        assert_eq!(Placement::GpuBu.to_string(), "GPUBU");
    }
}
