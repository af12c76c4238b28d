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

use crate::cross::{CrossParams, Placement};
use crate::health::{DeviceHealth, HealthSnapshot};
use crate::recovery::{
    handoff_seconds, kernel_op, price_level, Placer, ResilienceConfig, Rung, JITTER_SALT,
};
use serde::{Deserialize, Serialize};
use xbfs_archsim::fault::{FaultCursor, FaultEvent, FaultOp, FaultPlan, FaultSession};
use xbfs_archsim::{ArchSpec, Link};
use xbfs_engine::trace::NULL_SINK;
use xbfs_engine::{tree, BfsOutput, LevelRecord, TraversalState, XbfsError, UNREACHED};
use xbfs_graph::{Bitmap, Csr, VertexId, NO_PARENT};

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

    /// Serialized size in bytes: exactly `to_json().len()`, the number a
    /// `RunReport` exposes as `checkpoint_bytes`. Counted, not built: only
    /// a shell without the parent map, level map, frontier and level
    /// records goes through the serializer. The maps and the frontier then
    /// add their numbers' decimal digits and the commas between them, and
    /// each record its own serialized length.
    ///
    /// This is the cold count, from scratch on every call. The recovery
    /// ladder does not call it per capture: it keeps the same count
    /// running from one capture to the next, and tests pin that count
    /// against the serialized string at every capture.
    pub fn byte_size(&self) -> u64 {
        ByteCount::of(&self.state).total(self)
    }

    /// The serialized length of this checkpoint with the parent map, level
    /// map, frontier and level records emptied.
    fn shell_bytes(&self) -> u64 {
        let state = &self.state;
        let shell = LevelCheckpoint {
            state: TraversalState {
                output: BfsOutput {
                    source: state.output.source,
                    parents: Vec::new(),
                    levels: Vec::new(),
                },
                frontier: Vec::new(),
                levels: Vec::new(),
                ..*state
            },
            placements: self.placements.clone(),
            events: self.events.clone(),
            fault_cursor: self.fault_cursor.clone(),
            ..*self
        };
        shell.to_json().len() as u64
    }

    /// Write to `path` as JSON, returning the bytes written: a spilled
    /// capture serializes once and counts that string.
    pub fn spill(&self, path: &str) -> Result<u64, XbfsError> {
        let json = self.to_json();
        std::fs::write(path, &json).map_err(|e| XbfsError::Checkpoint {
            what: format!("spill to {path}: {e}"),
        })?;
        Ok(json.len() as u64)
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
        self.audit(csr, true)
    }

    /// [`validate_for`](Self::validate_for), with its two passes over the
    /// engine state (`check_against` and the partial tree) run only if
    /// `check_state`. A capture whose state a scrub passed at the same
    /// boundary keeps the header and rung checks alone.
    pub(crate) fn audit(&self, csr: &Csr, check_state: bool) -> Result<(), XbfsError> {
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
        if check_state {
            self.state.check_against(csr)?;
            if let Some(v) = tree::partial_tree_violation(csr, &self.state.output) {
                return fail(format!("partial tree: {v}"));
            }
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

/// The bytes a JSON array of `values` holds beyond an empty `[]`: every
/// element's decimal digits, plus the commas between them.
fn json_array_items(values: &[u32]) -> u64 {
    let digits: u64 = values.iter().map(|&v| decimal_digits(v)).sum();
    digits + (values.len() as u64).saturating_sub(1)
}

/// The decimal digits of `v`.
fn decimal_digits(v: u32) -> u64 {
    u64::from(v.checked_ilog10().map_or(1, |d| d + 1))
}

/// The serialized length of one level record.
fn record_bytes(record: &LevelRecord) -> u64 {
    serde_json::to_string(record)
        .expect("LevelRecord serializes")
        .len() as u64
}

/// [`LevelCheckpoint::byte_size`] kept running across the captures of one
/// traversal state, so a capture costs O(what changed since the last
/// one) plus the shell. It holds the maps' digits and commas, and the
/// serialized length of every level record counted so far; a fresh count
/// is `byte_size` itself.
///
/// Its owner builds it with [`of`](Self::of) at a capture whose state an
/// audit or a same-boundary scrub has just passed, and feeds it every
/// level step after that through [`step`](Self::step). In such a state
/// every unvisited entry holds the two sentinels, and a clean step writes
/// exactly the entries it lists in its new frontier, each once. Anything
/// else that writes the state (a restore, a fresh start, an injected bit
/// flip) must drop the count, so that the next capture counts in full.
#[derive(Debug)]
pub(crate) struct ByteCount {
    /// `json_array_items` of the parent map plus that of the level map.
    maps: u64,
    /// The serialized bytes of the first `records` level records.
    record_bytes: u64,
    records: usize,
}

impl ByteCount {
    /// Count the maps of `state` in full; its records are counted by the
    /// first [`total`](Self::total).
    pub(crate) fn of(state: &TraversalState) -> Self {
        Self {
            maps: json_array_items(&state.output.parents) + json_array_items(&state.output.levels),
            record_bytes: 0,
            records: 0,
        }
    }

    /// Follow one level step of `state`: each vertex of the new frontier
    /// trades the sentinels' digits for those of its parent and level.
    pub(crate) fn step(&mut self, state: &TraversalState) {
        let out = &state.output;
        let sentinels = decimal_digits(NO_PARENT) + decimal_digits(UNREACHED);
        let digits: u64 = state
            .frontier
            .iter()
            .map(|&v| {
                decimal_digits(out.parents[v as usize]) + decimal_digits(out.levels[v as usize])
            })
            .sum();
        self.maps = self.maps + digits - sentinels * state.frontier.len() as u64;
    }

    /// `ck.byte_size()`, for a checkpoint of the state this count follows.
    /// The records appended since the last call are counted here, once.
    pub(crate) fn total(&mut self, ck: &LevelCheckpoint) -> u64 {
        let records = &ck.state.levels;
        self.record_bytes += records[self.records..]
            .iter()
            .map(record_bytes)
            .sum::<u64>();
        self.records = records.len();
        // `[r0,r1,…]` holds each record and the commas between them.
        ck.shell_bytes()
            + self.maps
            + json_array_items(&ck.state.frontier)
            + self.record_bytes
            + (records.len() as u64).saturating_sub(1)
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
///
/// `config` is the configuration the checkpoint will resume under. The
/// prefix's clock prices the handoff as the ladder does, including the
/// verification pass when `config.checksum_transfers` is on, so a resumed
/// run's total matches the uninterrupted run's.
#[allow(clippy::too_many_arguments)] // the platform, the plan and the cut point
pub fn capture_at(
    csr: &Csr,
    source: VertexId,
    cpu: &ArchSpec,
    gpu: &ArchSpec,
    link: &Link,
    params: &CrossParams,
    plan: &FaultPlan,
    config: &ResilienceConfig,
    rung: Rung,
    level: u32,
) -> Result<LevelCheckpoint, XbfsError> {
    params.validate()?;
    plan.validate()?;
    config.validate()?;
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
    let mut placer = Placer::fresh(rung, params);

    while state.next_level < level {
        let Some(step) = placer.step(csr, &mut state, None, &NULL_SINK, clock_s) else {
            return Err(XbfsError::InvalidArgument {
                what: format!(
                    "traversal completes after {} level(s); cannot checkpoint at level {level}",
                    state.next_level
                ),
            });
        };
        let (pl, rec) = (step.placement, step.record);
        if step.handoff {
            fault_free(&mut session, FaultOp::Transfer, rec.level)?;
            let bytes = Link::handoff_bytes(n, rec.frontier_vertices);
            clock_s += handoff_seconds(link, bytes, config.checksum_transfers);
        }
        // The reference rung is fault-free by construction; only the
        // clock advances.
        if rung != Rung::Reference {
            fault_free(&mut session, kernel_op(pl).0, rec.level)?;
        }
        clock_s += price_level(rung, pl, &rec, cpu, gpu, clock_s, &NULL_SINK);
    }

    let residency = if placer.handed_off() {
        Residency::Device
    } else {
        Residency::Host
    };
    if residency == Residency::Device {
        // Draining the device's delta is what makes the checkpoint durable.
        clock_s += link.transfer_time(Link::pullback_bytes(
            n,
            placer.device_discovered(),
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
        placements: placer.placements().to_vec(),
        handed_off: placer.handed_off(),
        device_discovered: placer.device_discovered(),
        clock_s,
        lost_s: 0.0,
        retries: 0,
        events: Vec::new(),
        fault_cursor: session.cursor(),
        jitter_rng: plan.seed ^ JITTER_SALT,
        breakers: DeviceHealth::new(plan.seed).snapshot(),
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use xbfs_archsim::fault::{CorruptPayload, FaultKind};
    use xbfs_engine::FixedMN;

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
                &ResilienceConfig::default_runtime(),
                rung,
                2,
            )
            .expect("capture");
            assert_eq!(ck.level(), 2);
            assert!(ck.validate_for(&g).is_ok());
            let back = LevelCheckpoint::from_json(&ck.to_json()).expect("parses");
            assert_eq!(back, ck);
            assert_eq!(ck.byte_size(), ck.to_json().len() as u64);
        }
    }

    #[test]
    fn byte_size_is_exactly_the_serialized_length() {
        let (g, src, cpu, gpu, link, params) = fixture();
        // A device-resident cross checkpoint: an immediate handoff.
        let eager = CrossParams {
            handoff: FixedMN::new(1e9, 1e9),
            gpu: params.gpu,
        };
        let mut ck = capture_at(
            &g,
            src,
            &cpu,
            &gpu,
            &link,
            &eager,
            &FaultPlan::none(),
            &ResilienceConfig::default_runtime(),
            Rung::CrossCpuGpu,
            2,
        )
        .expect("capture");
        assert_eq!(ck.residency, Residency::Device);
        let exact = |ck: &LevelCheckpoint, what: &str| {
            assert_eq!(ck.byte_size(), ck.to_json().len() as u64, "{what}");
        };
        exact(&ck, "device-resident capture");

        // Values real captures never hold.
        ck.clock_s = f64::NAN;
        ck.lost_s = f64::INFINITY;
        assert!(ck.to_json().contains("\"clock_s\":null"));
        exact(&ck, "non-finite clocks serialize as null");
        ck.retries = u32::MAX;
        ck.num_vertices = u32::MAX;
        ck.num_directed_edges = u64::MAX;
        ck.device_discovered = u64::MAX;
        ck.jitter_rng = u64::MAX;
        ck.state.unvisited_edges = u64::MAX;
        ck.state.output.parents[0] = 0;
        exact(&ck, "extreme counters");
        ck.events = vec![
            FaultEvent {
                op: FaultOp::Transfer,
                level: usize::MAX,
                kind: FaultKind::BitFlip {
                    payload: CorruptPayload::Bitmap,
                    word: u32::MAX,
                    bit: 31,
                },
                attempt: 1,
            },
            FaultEvent {
                op: FaultOp::GpuKernel,
                level: 0,
                kind: FaultKind::KernelTimeout,
                attempt: 2,
            },
        ];
        exact(&ck, "fault events");
        ck.state.frontier.truncate(1);
        exact(&ck, "one-vertex frontier");
        ck.state.frontier.clear();
        exact(&ck, "empty frontier");
        ck.state.output.parents.clear();
        ck.state.output.levels.clear();
        exact(&ck, "empty maps");
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
            &ResilienceConfig::default_runtime(),
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
        let config = ResilienceConfig::default_runtime();
        let none = FaultPlan::none();
        let capture = |plan: &FaultPlan, config: &ResilienceConfig, level: u32| {
            capture_at(
                &g,
                src,
                &cpu,
                &gpu,
                &link,
                &params,
                plan,
                config,
                Rung::CpuOnly,
                level,
            )
        };
        let err = capture(&none, &config, 0).unwrap_err();
        assert!(matches!(err, XbfsError::InvalidArgument { .. }));
        let err = capture(&none, &config, 10_000).unwrap_err();
        assert!(matches!(err, XbfsError::InvalidArgument { .. }));

        // The resume configuration validates as the ladder's does.
        let bad = ResilienceConfig {
            deadline_s: Some(-1.0),
            ..config.clone()
        };
        let err = capture(&none, &bad, 2).unwrap_err();
        assert!(matches!(err, XbfsError::InvalidArgument { .. }));

        // A fault inside the prefix poisons the capture.
        let err = capture(&FaultPlan::lost_at(FaultOp::CpuKernel, 0), &config, 2).unwrap_err();
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
            &ResilienceConfig::default_runtime(),
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
            &ResilienceConfig::default_runtime(),
            Rung::CrossCpuGpu,
            3,
        )
        .unwrap();
        let dir = std::env::temp_dir().join("xbfs-checkpoint-test");
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("ck.json");
        let path = path.to_str().unwrap();
        let written = ck.spill(path).expect("spill");
        assert_eq!(written, ck.byte_size());
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
                &ResilienceConfig::default_runtime(),
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
