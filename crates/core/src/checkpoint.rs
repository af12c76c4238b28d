//! Level-granular checkpoint/resume for cross-architecture traversals.
//!
//! BFS is level-synchronous: between levels the entire traversal is six
//! plain values (parent map, level map, frontier, counters) plus the
//! runtime's clock and fault-stream position. A [`LevelCheckpoint`]
//! captures exactly that at a level boundary, so the recovery ladder can
//! restart a failed rung — or a whole process — from level ℓ instead of
//! level 0. The capture cadence and optional on-disk spill are configured
//! by a [`CheckpointPolicy`].
//!
//! Two invariants make resume sound:
//!
//! * **State-machine fidelity** — the checkpoint stores the engine's
//!   [`TraversalState`] verbatim plus the cross-rung handoff latch and
//!   placement log, so resuming on the *same* rung replays the identical
//!   traversal. Resuming on a *lower* rung translates the device-resident
//!   frontier to host (queue) form in ascending vertex order — the same
//!   order a bottom-up level would have produced it in.
//! * **Fault-stream fidelity** — the checkpoint stores the
//!   [`FaultCursor`], so a resumed session consumes exactly the fault
//!   suffix the uninterrupted run would have seen.
//!
//! A checkpoint cut while the state lives on the GPU is not durable until
//! it is drained over the link; the capture path charges that pullback
//! ([`Link::pullback_bytes`]) on the simulated clock before the
//! checkpoint exists.

use crate::cross::{CrossDriver, CrossParams, Placement};
use crate::health::{BreakerPolicy, HealthSnapshot};
use crate::recovery::{reference_sequential_penalty, Rung, JITTER_SALT};
use serde::{Deserialize, Serialize};
use xbfs_archsim::fault::{FaultCursor, FaultEvent, FaultOp, FaultPlan, FaultSession};
use xbfs_archsim::{cost, ArchSpec, Link};
use xbfs_engine::{tree, AlwaysTopDown, FixedMN, TraversalState, XbfsError};
use xbfs_graph::{Bitmap, Csr, VertexId};

/// On-disk format version; bumped on any incompatible layout change.
pub const CHECKPOINT_FORMAT_VERSION: u32 = 1;

/// Where the traversal's live state resided when the checkpoint was cut.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Serialize, Deserialize)]
pub enum Residency {
    /// State lives in host memory (CPU phase, CPU-only and reference
    /// rungs): capture is free.
    Host,
    /// State lives on the accelerator (post-handoff cross rung): capture
    /// drains the device's delta over the link first, and resuming on a
    /// host rung translates the frontier to queue form.
    Device,
}

/// How often checkpoints are cut, and where they spill.
#[derive(Clone, Debug, PartialEq, Default, Serialize, Deserialize)]
pub struct CheckpointPolicy {
    /// Cut a checkpoint before every level whose index is a positive
    /// multiple of this; `0` disables checkpointing entirely.
    pub interval_levels: u32,
    /// Spill every captured checkpoint to this path as JSON (last write
    /// wins), so an external process can resume after a crash. Requires
    /// `interval_levels > 0`.
    pub spill: Option<String>,
}

impl CheckpointPolicy {
    /// Checkpointing off (PR 1 behaviour: any failure restarts the rung
    /// from level 0).
    pub fn disabled() -> Self {
        Self::default()
    }

    /// Checkpoint every `interval` levels, in-memory only.
    pub fn every(interval: u32) -> Self {
        Self {
            interval_levels: interval,
            spill: None,
        }
    }

    /// `true` if any checkpoints will be cut.
    pub fn enabled(&self) -> bool {
        self.interval_levels > 0
    }

    /// Is a checkpoint due at the boundary *before* `level` runs?
    pub fn due(&self, level: u32) -> bool {
        self.interval_levels > 0 && level > 0 && level.is_multiple_of(self.interval_levels)
    }

    /// Validate the combination of fields.
    pub fn validate(&self) -> Result<(), XbfsError> {
        if self.spill.is_some() && self.interval_levels == 0 {
            return Err(XbfsError::InvalidArgument {
                what: "checkpoint spill path set but interval is 0 (disabled)".into(),
            });
        }
        Ok(())
    }
}

/// Everything needed to restart a traversal at a level boundary: the
/// engine state, the rung's execution context, the runtime's clock and
/// audit counters, the fault-stream cursor, and the breaker states.
#[derive(Clone, Debug, PartialEq, Serialize, Deserialize)]
pub struct LevelCheckpoint {
    /// [`CHECKPOINT_FORMAT_VERSION`] at capture time.
    pub format_version: u32,
    /// Vertex count of the graph this checkpoint belongs to.
    pub num_vertices: u32,
    /// Directed edge count of that graph.
    pub num_directed_edges: u64,
    /// The rung that was executing when the checkpoint was cut.
    pub rung: Rung,
    /// Where the live state resided.
    pub residency: Residency,
    /// The engine's mid-traversal state (parent tree, frontier, per-level
    /// counters, next level index).
    pub state: TraversalState,
    /// Cross rung only: placement per executed level.
    pub placements: Vec<Placement>,
    /// Cross rung only: `true` once the CPU→GPU handoff has fired.
    pub handed_off: bool,
    /// Cross rung only: vertices discovered while on the device (sizes
    /// the pullback).
    pub device_discovered: u64,
    /// Simulated clock at the boundary, pullback included.
    pub clock_s: f64,
    /// Simulated seconds lost to faults so far.
    pub lost_s: f64,
    /// Retries spent so far.
    pub retries: u32,
    /// Faults observed so far.
    pub events: Vec<FaultEvent>,
    /// The fault session's resumable position.
    pub fault_cursor: FaultCursor,
    /// The retry-backoff jitter RNG state.
    pub jitter_rng: u64,
    /// Circuit-breaker states at the boundary.
    pub breakers: HealthSnapshot,
}

impl LevelCheckpoint {
    /// The level this checkpoint resumes at (all levels below it are
    /// already in `state`).
    pub fn level(&self) -> u32 {
        self.state.next_level
    }

    /// Serialize to JSON.
    pub fn to_json(&self) -> String {
        serde_json::to_string(self).expect("LevelCheckpoint serializes")
    }

    /// Parse from JSON (structure only — run [`validate_for`]
    /// against the graph before resuming).
    ///
    /// [`validate_for`]: LevelCheckpoint::validate_for
    pub fn from_json(s: &str) -> Result<Self, XbfsError> {
        serde_json::from_str(s).map_err(|e| XbfsError::Checkpoint {
            what: format!("parse error: {e:?}"),
        })
    }

    /// Serialized size in bytes — the number a `RunReport` exposes as
    /// `checkpoint_bytes`.
    pub fn byte_size(&self) -> u64 {
        self.to_json().len() as u64
    }

    /// Write to `path` as JSON.
    pub fn spill(&self, path: &str) -> Result<(), XbfsError> {
        std::fs::write(path, self.to_json()).map_err(|e| XbfsError::Checkpoint {
            what: format!("spill to {path}: {e}"),
        })
    }

    /// Read a spilled checkpoint back from `path`.
    pub fn load(path: &str) -> Result<Self, XbfsError> {
        let text = std::fs::read_to_string(path).map_err(|e| XbfsError::Checkpoint {
            what: format!("load from {path}: {e}"),
        })?;
        Self::from_json(&text)
    }

    /// Full trust gate before resuming from this checkpoint on `csr`:
    /// format version, graph identity, engine-state bookkeeping, partial
    /// BFS-tree consistency, and cross-rung placement coherence.
    pub fn validate_for(&self, csr: &Csr) -> Result<(), XbfsError> {
        let fail = |what: String| Err(XbfsError::Checkpoint { what });
        if self.format_version != CHECKPOINT_FORMAT_VERSION {
            return fail(format!(
                "format version {} (this build reads {CHECKPOINT_FORMAT_VERSION})",
                self.format_version
            ));
        }
        if self.num_vertices != csr.num_vertices()
            || self.num_directed_edges != csr.num_directed_edges()
        {
            return fail(format!(
                "checkpoint is for a {}-vertex/{}-edge graph, got {}/{}",
                self.num_vertices,
                self.num_directed_edges,
                csr.num_vertices(),
                csr.num_directed_edges()
            ));
        }
        if !self.clock_s.is_finite()
            || self.clock_s < 0.0
            || !self.lost_s.is_finite()
            || self.lost_s < 0.0
        {
            return fail(format!(
                "non-finite or negative clock state ({} s, {} s lost)",
                self.clock_s, self.lost_s
            ));
        }
        self.state.check_against(csr)?;
        if let Some(v) = tree::partial_tree_violation(csr, &self.state.output) {
            return fail(format!("partial tree: {v}"));
        }
        match self.rung {
            Rung::CrossCpuGpu => {
                if self.placements.len() != self.state.next_level as usize {
                    return fail(format!(
                        "{} placements for {} executed levels",
                        self.placements.len(),
                        self.state.next_level
                    ));
                }
                let handed = self.placements.iter().any(|p| p.on_gpu());
                if handed != self.handed_off {
                    return fail("handoff latch disagrees with placement log".into());
                }
                if (self.residency == Residency::Device) != self.handed_off {
                    return fail("residency disagrees with handoff latch".into());
                }
            }
            Rung::CpuOnly | Rung::Reference => {
                if self.residency != Residency::Host {
                    return fail(format!("{} checkpoints are host-resident", self.rung));
                }
            }
        }
        Ok(())
    }

    /// The frontier translated for a host rung: ascending vertex order via
    /// a dense bitmap — the representation a GPU-resident frontier drains
    /// into (and exactly the order a bottom-up level produces natively).
    pub fn host_order_frontier(&self) -> Vec<VertexId> {
        let mut bits = Bitmap::new(self.num_vertices as usize);
        for &v in &self.state.frontier {
            bits.set(v);
        }
        bits.iter().collect()
    }
}

fn fault_free(session: &mut FaultSession<'_>, op: FaultOp, level: u32) -> Result<(), XbfsError> {
    match session.check(op, level as usize) {
        None => Ok(()),
        Some(kind) => Err(XbfsError::Checkpoint {
            what: format!("capture_at requires a fault-free prefix, but {op:?} at level {level} drew {kind:?}"),
        }),
    }
}

/// Run `rung` under `plan` up to (but not including) `level` and cut the
/// boundary checkpoint there — erroring if any fault fires inside the
/// prefix. This is the tooling/test primitive behind the "checkpoint at
/// level ℓ then resume equals an uninterrupted run" property; the
/// recovery ladder itself captures inline while it executes.
#[allow(clippy::too_many_arguments)] // the platform, the plan and the cut point
pub fn capture_at(
    csr: &Csr,
    source: VertexId,
    cpu: &ArchSpec,
    gpu: &ArchSpec,
    link: &Link,
    params: &CrossParams,
    plan: &FaultPlan,
    rung: Rung,
    level: u32,
) -> Result<LevelCheckpoint, XbfsError> {
    params.validate()?;
    plan.validate()?;
    if source >= csr.num_vertices() {
        return Err(XbfsError::BadSource {
            source,
            num_vertices: csr.num_vertices(),
        });
    }
    if level == 0 {
        return Err(XbfsError::InvalidArgument {
            what: "capture level must be >= 1 (level 0 is a fresh start)".into(),
        });
    }

    let n = csr.num_vertices() as u64;
    let mut session = plan.session();
    let mut clock_s = 0.0;
    let mut state = TraversalState::start(csr, source);
    let mut driver = CrossDriver::new(*params);
    let mut cpu_policy = FixedMN::new(14.0, 24.0);
    let mut reference_policy = AlwaysTopDown;
    let mut device_discovered = 0u64;

    while state.next_level < level {
        if state.is_complete() {
            return Err(XbfsError::InvalidArgument {
                what: format!(
                    "traversal completes after {} level(s); cannot checkpoint at level {level}",
                    state.next_level
                ),
            });
        }
        match rung {
            Rung::CrossCpuGpu => {
                let was_handed = driver.handed_off();
                let pl = driver.step(csr, &mut state).expect("not complete");
                let rec = *state.levels.last().expect("step pushed a record");
                if pl.on_gpu() && !was_handed {
                    fault_free(&mut session, FaultOp::Transfer, rec.level)?;
                    clock_s += link.transfer_time(Link::handoff_bytes(n, rec.frontier_vertices));
                }
                let (op, arch) = if pl.on_gpu() {
                    (FaultOp::GpuKernel, gpu)
                } else {
                    (FaultOp::CpuKernel, cpu)
                };
                fault_free(&mut session, op, rec.level)?;
                clock_s += cost::level_time_for_record(arch, &rec);
                if pl.on_gpu() {
                    device_discovered += rec.discovered;
                }
            }
            Rung::CpuOnly => {
                state.step(csr, &mut cpu_policy).expect("not complete");
                let rec = *state.levels.last().expect("step pushed a record");
                fault_free(&mut session, FaultOp::CpuKernel, rec.level)?;
                clock_s += cost::level_time_for_record(cpu, &rec);
            }
            Rung::Reference => {
                // The reference rung is fault-free by construction; only
                // the clock advances.
                state
                    .step(csr, &mut reference_policy)
                    .expect("not complete");
                let rec = *state.levels.last().expect("step pushed a record");
                clock_s +=
                    cost::level_time_for_record(cpu, &rec) * reference_sequential_penalty(cpu);
            }
        }
    }

    let residency = if rung == Rung::CrossCpuGpu && driver.handed_off() {
        Residency::Device
    } else {
        Residency::Host
    };
    if residency == Residency::Device {
        // Draining the device's delta is what makes the checkpoint durable.
        clock_s += link.transfer_time(Link::pullback_bytes(
            n,
            device_discovered,
            state.frontier.len() as u64,
        ));
    }
    Ok(LevelCheckpoint {
        format_version: CHECKPOINT_FORMAT_VERSION,
        num_vertices: csr.num_vertices(),
        num_directed_edges: csr.num_directed_edges(),
        rung,
        residency,
        state,
        placements: if rung == Rung::CrossCpuGpu {
            driver.placements().to_vec()
        } else {
            Vec::new()
        },
        handed_off: rung == Rung::CrossCpuGpu && driver.handed_off(),
        device_discovered,
        clock_s,
        lost_s: 0.0,
        retries: 0,
        events: Vec::new(),
        fault_cursor: session.cursor(),
        jitter_rng: plan.seed ^ JITTER_SALT,
        breakers: crate::health::DeviceHealth::new(BreakerPolicy::default_runtime(), plan.seed)
            .snapshot(),
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    fn fixture() -> (Csr, u32, ArchSpec, ArchSpec, Link, CrossParams) {
        let g = xbfs_graph::rmat::rmat_csr(9, 16);
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

    #[test]
    fn policy_cadence_and_validation() {
        let p = CheckpointPolicy::every(3);
        assert!(p.enabled());
        assert!(!p.due(0));
        assert!(!p.due(2));
        assert!(p.due(3));
        assert!(p.due(6));
        assert!(!CheckpointPolicy::disabled().enabled());
        assert!(!CheckpointPolicy::disabled().due(4));
        assert!(CheckpointPolicy::every(1).validate().is_ok());
        let bad = CheckpointPolicy {
            interval_levels: 0,
            spill: Some("/tmp/x.json".into()),
        };
        assert!(bad.validate().is_err());
    }

    #[test]
    fn capture_serde_round_trip_is_lossless() {
        let (g, src, cpu, gpu, link, params) = fixture();
        for rung in [Rung::CrossCpuGpu, Rung::CpuOnly, Rung::Reference] {
            let ck = capture_at(
                &g,
                src,
                &cpu,
                &gpu,
                &link,
                &params,
                &FaultPlan::none(),
                rung,
                2,
            )
            .expect("capture");
            assert_eq!(ck.level(), 2);
            assert!(ck.validate_for(&g).is_ok());
            let back = LevelCheckpoint::from_json(&ck.to_json()).expect("parses");
            assert_eq!(back, ck);
            assert!(ck.byte_size() > 0);
        }
    }

    #[test]
    fn device_resident_capture_charges_the_pullback() {
        let (g, src, cpu, gpu, link, params) = fixture();
        // Force an immediate handoff so level 1 is already GPU-resident.
        let eager = CrossParams {
            handoff: FixedMN::new(1e9, 1e9),
            gpu: params.gpu,
        };
        let on_gpu = capture_at(
            &g,
            src,
            &cpu,
            &gpu,
            &link,
            &eager,
            &FaultPlan::none(),
            Rung::CrossCpuGpu,
            2,
        )
        .expect("capture");
        assert_eq!(on_gpu.residency, Residency::Device);
        assert!(on_gpu.handed_off);
        assert!(on_gpu.device_discovered > 0);
        // The host-resident CPU-only capture at the same level pays no
        // pullback; the cross capture's clock must include one.
        let pullback = link.transfer_time(Link::pullback_bytes(
            g.num_vertices() as u64,
            on_gpu.device_discovered,
            on_gpu.state.frontier.len() as u64,
        ));
        assert!(pullback > 0.0);
        assert!(on_gpu.clock_s > pullback);
    }

    #[test]
    fn capture_rejects_bad_levels_and_fault_prefixes() {
        let (g, src, cpu, gpu, link, params) = fixture();
        let err = capture_at(
            &g,
            src,
            &cpu,
            &gpu,
            &link,
            &params,
            &FaultPlan::none(),
            Rung::CpuOnly,
            0,
        )
        .unwrap_err();
        assert!(matches!(err, XbfsError::InvalidArgument { .. }));

        let err = capture_at(
            &g,
            src,
            &cpu,
            &gpu,
            &link,
            &params,
            &FaultPlan::none(),
            Rung::CpuOnly,
            10_000,
        )
        .unwrap_err();
        assert!(matches!(err, XbfsError::InvalidArgument { .. }));

        // A fault inside the prefix poisons the capture.
        let plan = FaultPlan::lost_at(FaultOp::CpuKernel, 0);
        let err =
            capture_at(&g, src, &cpu, &gpu, &link, &params, &plan, Rung::CpuOnly, 2).unwrap_err();
        assert!(matches!(err, XbfsError::Checkpoint { .. }));
    }

    #[test]
    fn validate_for_rejects_mismatched_graphs_and_tampering() {
        let (g, src, cpu, gpu, link, params) = fixture();
        let ck = capture_at(
            &g,
            src,
            &cpu,
            &gpu,
            &link,
            &params,
            &FaultPlan::none(),
            Rung::CpuOnly,
            2,
        )
        .unwrap();

        let other = xbfs_graph::rmat::rmat_csr(8, 8);
        assert!(ck.validate_for(&other).is_err());

        let mut bad = ck.clone();
        bad.format_version += 1;
        assert!(bad.validate_for(&g).is_err());

        let mut bad = ck.clone();
        bad.clock_s = f64::NAN;
        assert!(bad.validate_for(&g).is_err());

        let mut bad = ck.clone();
        bad.residency = Residency::Device; // CPU-only state is host-resident
        assert!(bad.validate_for(&g).is_err());

        let mut bad = ck;
        if let Some(v) = bad.state.frontier.first().copied() {
            bad.state.output.parents[v as usize] = v; // corrupt the tree
            assert!(bad.validate_for(&g).is_err());
        }
    }

    #[test]
    fn spill_and_load_round_trip() {
        let (g, src, cpu, gpu, link, params) = fixture();
        let ck = capture_at(
            &g,
            src,
            &cpu,
            &gpu,
            &link,
            &params,
            &FaultPlan::none(),
            Rung::CrossCpuGpu,
            3,
        )
        .unwrap();
        let dir = std::env::temp_dir().join("xbfs-checkpoint-test");
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("ck.json");
        let path = path.to_str().unwrap();
        ck.spill(path).expect("spill");
        let back = LevelCheckpoint::load(path).expect("load");
        assert_eq!(back, ck);
        assert!(LevelCheckpoint::load("/nonexistent/ck.json").is_err());
        let _ = std::fs::remove_file(path);
    }

    #[test]
    fn host_order_frontier_is_sorted_and_deduped() {
        let ck = {
            let (g, src, cpu, gpu, link, params) = fixture();
            capture_at(
                &g,
                src,
                &cpu,
                &gpu,
                &link,
                &params,
                &FaultPlan::none(),
                Rung::CrossCpuGpu,
                2,
            )
            .unwrap()
        };
        let host = ck.host_order_frontier();
        let mut expect = ck.state.frontier.clone();
        expect.sort_unstable();
        expect.dedup();
        assert_eq!(host, expect);
    }
}
