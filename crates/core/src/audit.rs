//! Decision audits: was the predicted `(M, N)` any good, and where did the
//! simulated time actually go?
//!
//! The paper's contribution is a *prediction* — regression-picked switch
//! points that are supposed to land within ≈95 % of the exhaustive optimum
//! with <0.1 % overhead. A [`DecisionAudit`] checks that claim on a real
//! run: it re-prices the predicted [`CrossParams`] and the exhaustive best
//! pair over the same [`TraversalProfile`] (the 900-candidate Fig. 8 sweep
//! of [`crate::oracle::sweep_cross_pairs`]), compares predicted vs realized
//! switch levels, and attributes every simulated second of the recorded
//! trace to a `(level, device, phase)` cell using the [`TraceEvent`] stream
//! a [`MemorySink`](xbfs_engine::MemorySink) buffered.
//!
//! The attribution is the one fold over a run's leaf spans: the bench
//! suite's `phase_seconds` and `critical_path_s` read it, and
//! `tests/trace_analysis.rs` pins that it covers the simulated clock.
//!
//! The audit is pure data, serializable to JSON for `BENCH_<n>.json`
//! artifacts.

use crate::{
    cross::{cost_cross, CrossParams},
    oracle::{best_cross, cross_pair_grid, sweep_cross_pairs},
    recovery::RunReport,
};
use serde::{Deserialize, Serialize};
use std::collections::BTreeMap;
use xbfs_archsim::{ArchSpec, Link, TraversalProfile};
use xbfs_engine::{TraceEvent, XbfsError};

/// Simulated seconds attributed to one `(level, device)` cell.
///
/// Kernel time is further decomposed into the cost model's fixed-overhead
/// and work components when the trace carries
/// [`TraceEvent::KernelCost`] breakdowns (it always does on the
/// resilient path). Devices follow the trace vocabulary: `"cpu"`/`"gpu"`
/// for kernels, `"link"` for transfers, `"ladder"` for retry backoffs and
/// checkpoint captures.
#[derive(Clone, Debug, PartialEq, Serialize, Deserialize)]
pub struct LevelAttribution {
    /// Level index the seconds served.
    pub level: u32,
    /// Device lane ("cpu", "gpu", "link", "ladder").
    pub device: String,
    /// Kernel-attempt seconds (including failed attempts).
    pub kernel_s: f64,
    /// Fixed per-level overhead component of the kernel charge.
    pub overhead_s: f64,
    /// Work component of the kernel charge.
    pub work_s: f64,
    /// Transfer seconds across the link.
    pub transfer_s: f64,
    /// Retry-backoff seconds.
    pub backoff_s: f64,
    /// Checkpoint-capture seconds.
    pub checkpoint_s: f64,
}

impl LevelAttribution {
    /// Total simulated seconds in this cell.
    pub fn total_s(&self) -> f64 {
        self.kernel_s + self.transfer_s + self.backoff_s + self.checkpoint_s
    }
}

/// Total simulated seconds in one `phase/device` bucket across all levels.
#[derive(Clone, Debug, PartialEq, Serialize, Deserialize)]
pub struct PhaseSeconds {
    /// Phase kind ("kernel", "transfer", "backoff", "checkpoint").
    pub phase: String,
    /// Device lane the phase charged.
    pub device: String,
    /// Simulated seconds.
    pub seconds: f64,
}

/// The complete audit of one adaptive run's switching decision, with the
/// run's simulated time attributed span by span (see [`decision_audit`]
/// for what the attribution covers).
#[derive(Clone, Debug, PartialEq, Serialize, Deserialize)]
pub struct DecisionAudit {
    /// The parameters the predictor chose.
    pub predicted: CrossParams,
    /// The exhaustive-sweep optimum over the same profile.
    pub oracle: CrossParams,
    /// Fault-free simulated seconds of the predicted parameters.
    pub predicted_seconds: f64,
    /// Fault-free simulated seconds of the oracle parameters.
    pub oracle_seconds: f64,
    /// `oracle_seconds / predicted_seconds` — equivalently predicted TEPS
    /// as a fraction of oracle TEPS. 1.0 means the prediction *is* the
    /// optimum; the paper claims ≈0.95 on average.
    pub efficiency: f64,
    /// Simulated seconds lost to the prediction: `predicted_seconds -
    /// oracle_seconds` (0 when the prediction is optimal).
    pub regret_seconds: f64,
    /// First level the predicted placement script puts on the GPU
    /// (`None` = the handoff never fires).
    pub predicted_switch_level: Option<u32>,
    /// First level the oracle placement script puts on the GPU.
    pub oracle_switch_level: Option<u32>,
    /// First level the *recorded run* actually executed on the GPU under
    /// the cross rung (`None` when the cross rung never reached the GPU —
    /// degraded runs, or an unfired handoff).
    pub realized_switch_level: Option<u32>,
    /// Label of the rung that served the traversal.
    pub served_rung: String,
    /// Total simulated seconds of the audited run (from its [`RunReport`];
    /// includes faults, retries, and checkpoint charges, so it can exceed
    /// `predicted_seconds`).
    pub total_seconds: f64,
    /// Wall seconds spent computing the prediction itself.
    pub prediction_overhead_s: f64,
    /// `prediction_overhead_s / (prediction_overhead_s + total_seconds)` —
    /// the paper claims <0.1 %. Zero when both terms are zero.
    pub prediction_overhead_fraction: f64,
    /// Per-`(level, device)` simulated-time attribution, sorted by level
    /// then device.
    pub levels: Vec<LevelAttribution>,
    /// Per-`phase/device` totals, sorted by phase then device. They sum
    /// to [`Self::attributed_s`].
    pub phases: Vec<PhaseSeconds>,
}

impl DecisionAudit {
    /// Serialize to a JSON string.
    pub fn to_json(&self) -> String {
        serde_json::to_string(self).expect("DecisionAudit serializes")
    }

    /// Parse from JSON.
    pub fn from_json(s: &str) -> Result<Self, XbfsError> {
        serde_json::from_str(s).map_err(|e| XbfsError::InvalidArgument {
            what: format!("decision audit parse error: {e:?}"),
        })
    }

    /// Whether the audited prediction reached `fraction` of the oracle's
    /// TEPS (the paper's claim holds at `meets(0.9)` per graph, ≈0.95 on
    /// average).
    pub fn meets(&self, fraction: f64) -> bool {
        self.efficiency >= fraction
    }

    /// Total attributed seconds in one phase across devices.
    pub fn phase_total(&self, phase: &str) -> f64 {
        self.phases
            .iter()
            .filter(|p| p.phase == phase)
            .map(|p| p.seconds)
            .sum()
    }

    /// Every attributed second: the sum of [`Self::phases`]. It equals
    /// [`Self::total_seconds`] unless the run is an external resume (see
    /// [`decision_audit`]).
    pub fn attributed_s(&self) -> f64 {
        self.phases.iter().map(|p| p.seconds).sum()
    }
}

/// First GPU level of a placement script, if any.
fn switch_level(placements: &[crate::cross::Placement]) -> Option<u32> {
    placements.iter().position(|p| p.on_gpu()).map(|i| i as u32)
}

fn op_device(op: &str) -> &'static str {
    match op {
        "cpu-kernel" => "cpu",
        "gpu-kernel" => "gpu",
        "transfer" => "link",
        _ => "ladder",
    }
}

/// Build the audit for one recorded run.
///
/// * `profile` must describe the same traversal the run executed (same
///   graph, same source) — it drives both the oracle sweep and the
///   placement scripts.
/// * `predicted` is what the predictor chose (the run's parameters).
/// * `events` is the run's buffered trace; `report` its [`RunReport`].
/// * `prediction_overhead_s` is the measured wall time of the prediction
///   itself (pass 0.0 when the caller didn't time it).
///
/// The attribution sums the trace's leaf spans ([`TraceEvent::Kernel`],
/// [`TraceEvent::Transfer`], [`TraceEvent::Backoff`] and
/// [`TraceEvent::Checkpoint`]), failed attempts included. Every charge of
/// the simulated clock has one, so the attribution is the makespan. An
/// external resume's trace starts at the checkpoint's clock, so its
/// `total_seconds` carries a prefix the attribution never saw.
///
/// The oracle side sweeps the full 900-candidate pair grid, which costs
/// `O(900 × depth)` — trivial next to a traversal but not free; audit
/// after the run, not inside it.
#[allow(clippy::too_many_arguments)]
pub fn decision_audit(
    profile: &TraversalProfile,
    cpu: &ArchSpec,
    gpu: &ArchSpec,
    link: &Link,
    predicted: &CrossParams,
    events: &[TraceEvent],
    report: &RunReport,
    prediction_overhead_s: f64,
) -> DecisionAudit {
    let grid = cross_pair_grid();
    let oracle = best_cross(&sweep_cross_pairs(profile, cpu, gpu, link, &grid, &grid));
    let predicted_cost = cost_cross(profile, cpu, gpu, link, predicted);
    let oracle_cost = cost_cross(profile, cpu, gpu, link, &oracle.params);

    let predicted_seconds = predicted_cost.total_seconds;
    let oracle_seconds = oracle_cost.total_seconds;
    let efficiency = if predicted_seconds > 0.0 {
        oracle_seconds / predicted_seconds
    } else {
        1.0
    };

    let realized_switch_level = events.iter().find_map(|ev| match ev {
        TraceEvent::Level {
            rung: "cross",
            device: "gpu",
            level,
            ..
        } => Some(*level),
        _ => None,
    });

    // (level, device) -> attribution cell.
    fn cell<'a>(
        cells: &'a mut BTreeMap<(u32, &'static str), LevelAttribution>,
        level: u32,
        device: &'static str,
    ) -> &'a mut LevelAttribution {
        cells
            .entry((level, device))
            .or_insert_with(|| LevelAttribution {
                level,
                device: device.to_string(),
                kernel_s: 0.0,
                overhead_s: 0.0,
                work_s: 0.0,
                transfer_s: 0.0,
                backoff_s: 0.0,
                checkpoint_s: 0.0,
            })
    }
    let mut cells: BTreeMap<(u32, &'static str), LevelAttribution> = BTreeMap::new();
    let mut phases: BTreeMap<(&'static str, &'static str), f64> = BTreeMap::new();
    for ev in events {
        match ev {
            TraceEvent::Kernel {
                device,
                level,
                start_s,
                end_s,
                ..
            } => {
                let s = end_s - start_s;
                cell(&mut cells, *level, device).kernel_s += s;
                *phases.entry(("kernel", device)).or_insert(0.0) += s;
            }
            TraceEvent::KernelCost {
                device,
                level,
                overhead_s,
                work_s,
                ..
            } => {
                let cost = cell(&mut cells, *level, device);
                cost.overhead_s += overhead_s;
                cost.work_s += work_s;
            }
            TraceEvent::Transfer {
                level,
                start_s,
                end_s,
                ..
            } => {
                let s = end_s - start_s;
                cell(&mut cells, *level, "link").transfer_s += s;
                *phases.entry(("transfer", "link")).or_insert(0.0) += s;
            }
            TraceEvent::Backoff {
                op,
                level,
                start_s,
                end_s,
                ..
            } => {
                let s = end_s - start_s;
                let device = op_device(op);
                cell(&mut cells, *level, device).backoff_s += s;
                *phases.entry(("backoff", device)).or_insert(0.0) += s;
            }
            TraceEvent::Checkpoint {
                level,
                start_s,
                end_s,
                ..
            } => {
                let s = end_s - start_s;
                cell(&mut cells, *level, "ladder").checkpoint_s += s;
                *phases.entry(("checkpoint", "ladder")).or_insert(0.0) += s;
            }
            _ => {}
        }
    }

    let total_seconds = report.total_seconds;
    let prediction_overhead_fraction = if prediction_overhead_s > 0.0 {
        prediction_overhead_s / (prediction_overhead_s + total_seconds)
    } else {
        0.0
    };

    DecisionAudit {
        predicted: *predicted,
        oracle: oracle.params,
        predicted_seconds,
        oracle_seconds,
        efficiency,
        regret_seconds: predicted_seconds - oracle_seconds,
        predicted_switch_level: switch_level(&predicted_cost.placements),
        oracle_switch_level: switch_level(&oracle_cost.placements),
        realized_switch_level,
        served_rung: report.rung.label().to_string(),
        total_seconds,
        prediction_overhead_s,
        prediction_overhead_fraction,
        levels: cells.into_values().collect(),
        phases: phases
            .into_iter()
            .map(|((phase, device), seconds)| PhaseSeconds {
                phase: phase.to_string(),
                device: device.to_string(),
                seconds,
            })
            .collect(),
    }
}

/// One level of a policy-driven run, priced against the exhaustive
/// oracle's plan for the same level.
#[derive(Clone, Debug, PartialEq, Serialize, Deserialize)]
pub struct PolicyLevelRegret {
    /// Level index.
    pub level: u32,
    /// Realized simulated seconds: the level's [`TraceEvent::KernelCost`]
    /// total plus any transfer charged at this level.
    pub realized_s: f64,
    /// The oracle pair's fault-free seconds for the same level (its
    /// handoff transfer included at the level where it fires).
    pub oracle_s: f64,
    /// `realized_s - oracle_s`. Negative per-level values are real: a
    /// per-level policy is free to beat any *fixed* `(M, N)` pair on
    /// individual levels.
    pub regret_s: f64,
    /// Device the traced policy decision chose, when one was recorded.
    pub device: Option<String>,
    /// Direction label (`"td"`/`"bu"`) of the traced decision.
    pub direction: Option<String>,
    /// Feature bin the decision was drawn from.
    pub bin: Option<u32>,
    /// Whether the decision was still exploring unplayed arms.
    pub explore: Option<bool>,
}

/// The audit of one *per-level* policy run (online bandit or any forced
/// placement script) against the exhaustive fixed-pair oracle.
///
/// Where [`DecisionAudit`] re-prices a predicted `(M, N)` pair,
/// `policy_audit` compares what actually ran — level by level, from the
/// trace's [`TraceEvent::KernelCost`] / [`TraceEvent::Transfer`] spans —
/// against the best *fixed* pair's plan. Because the policy chooses per
/// level, its efficiency may legitimately exceed 1.0 once the bandit has
/// learned: the oracle here is the best member of the offline family, not
/// of the policy's own (strictly larger) decision space.
#[derive(Clone, Debug, PartialEq, Serialize, Deserialize)]
pub struct PolicyAudit {
    /// The exhaustive-sweep optimum fixed pair over the profile.
    pub oracle: CrossParams,
    /// Realized simulated seconds summed over the trace's levels.
    pub realized_seconds: f64,
    /// Fault-free simulated seconds of the oracle pair.
    pub oracle_seconds: f64,
    /// `oracle_seconds / realized_seconds` (1.0 when realized is zero).
    /// Values above 1.0 mean the per-level policy beat every fixed pair.
    pub efficiency: f64,
    /// `realized_seconds - oracle_seconds`.
    pub regret_seconds: f64,
    /// Mean per-level regret (`regret_seconds / levels`, 0 for an empty
    /// trace) — the quantity the bench's query cohorts track downward.
    pub mean_level_regret_s: f64,
    /// Traced policy decisions.
    pub decisions: u32,
    /// Traced decisions still exploring unplayed arms.
    pub explorations: u32,
    /// Per-level breakdown, ascending by level.
    pub levels: Vec<PolicyLevelRegret>,
}

impl PolicyAudit {
    /// Serialize to a JSON string.
    pub fn to_json(&self) -> String {
        serde_json::to_string(self).expect("PolicyAudit serializes")
    }

    /// Parse from JSON.
    pub fn from_json(s: &str) -> Result<Self, XbfsError> {
        serde_json::from_str(s).map_err(|e| XbfsError::InvalidArgument {
            what: format!("policy audit parse error: {e:?}"),
        })
    }
}

/// Audit a policy-driven run's trace against the exhaustive fixed-pair
/// oracle, level by level.
///
/// `profile` must describe the traversal the trace recorded; `events` is
/// the run's buffered trace (only `KernelCost`, `Transfer`, and
/// `PolicyDecision` events are read, so a fault-free cross-rung trace is
/// the intended input). Sweeps the same 900-candidate grid as
/// [`decision_audit`] — audit after the run, not inside it.
pub fn policy_audit(
    profile: &TraversalProfile,
    cpu: &ArchSpec,
    gpu: &ArchSpec,
    link: &Link,
    events: &[TraceEvent],
) -> PolicyAudit {
    let grid = cross_pair_grid();
    let oracle = best_cross(&sweep_cross_pairs(profile, cpu, gpu, link, &grid, &grid));
    let oracle_cost = cost_cross(profile, cpu, gpu, link, &oracle.params);
    let oracle_switch = switch_level(&oracle_cost.placements);

    #[derive(Default)]
    struct Realized {
        seconds: f64,
        device: Option<String>,
        direction: Option<String>,
        bin: Option<u32>,
        explore: Option<bool>,
    }
    let mut realized: BTreeMap<u32, Realized> = BTreeMap::new();
    let mut decisions = 0u32;
    let mut explorations = 0u32;
    for ev in events {
        match ev {
            TraceEvent::KernelCost { level, total_s, .. } => {
                realized.entry(*level).or_default().seconds += total_s;
            }
            TraceEvent::Transfer {
                level,
                start_s,
                end_s,
                ..
            } => {
                realized.entry(*level).or_default().seconds += end_s - start_s;
            }
            TraceEvent::PolicyDecision {
                level,
                bin,
                device,
                direction,
                explore,
                ..
            } => {
                decisions += 1;
                if *explore {
                    explorations += 1;
                }
                let r = realized.entry(*level).or_default();
                r.device = Some((*device).to_string());
                r.direction = Some(
                    match direction {
                        xbfs_engine::Direction::TopDown => "td",
                        xbfs_engine::Direction::BottomUp => "bu",
                    }
                    .to_string(),
                );
                r.bin = Some(*bin);
                r.explore = Some(*explore);
            }
            _ => {}
        }
    }

    let levels: Vec<PolicyLevelRegret> = realized
        .into_iter()
        .map(|(level, r)| {
            let mut oracle_s = oracle_cost
                .level_seconds
                .get(level as usize)
                .copied()
                .unwrap_or(0.0);
            if oracle_switch == Some(level) {
                oracle_s += oracle_cost.transfer_seconds;
            }
            PolicyLevelRegret {
                level,
                realized_s: r.seconds,
                oracle_s,
                regret_s: r.seconds - oracle_s,
                device: r.device,
                direction: r.direction,
                bin: r.bin,
                explore: r.explore,
            }
        })
        .collect();

    let realized_seconds: f64 = levels.iter().map(|l| l.realized_s).sum();
    let oracle_seconds = oracle_cost.total_seconds;
    let efficiency = if realized_seconds > 0.0 {
        oracle_seconds / realized_seconds
    } else {
        1.0
    };
    let regret_seconds = realized_seconds - oracle_seconds;
    let mean_level_regret_s = if levels.is_empty() {
        0.0
    } else {
        regret_seconds / levels.len() as f64
    };
    PolicyAudit {
        oracle: oracle.params,
        realized_seconds,
        oracle_seconds,
        efficiency,
        regret_seconds,
        mean_level_regret_s,
        decisions,
        explorations,
        levels,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::checkpoint::CheckpointPolicy;
    use crate::runtime::AdaptiveRuntime;
    use xbfs_engine::MemorySink;
    use xbfs_graph::GraphStats;

    fn audited_run(scale: u32) -> (DecisionAudit, RunReport) {
        let rt = AdaptiveRuntime::quick_trained();
        let g = xbfs_graph::rmat::rmat_csr(scale, 16);
        let stats = GraphStats::rmat(&g, 0.57, 0.19, 0.19, 0.05);
        let src = crate::training::pick_source(&g, 3).unwrap();
        let params = rt.predict_params(&stats);
        let sink = MemorySink::new();
        let run = rt
            .session(&g, &stats)
            .source(src)
            .params(params)
            .checkpoints(CheckpointPolicy::disabled())
            .sink(&sink)
            .run()
            .expect("audited run");
        let profile = xbfs_archsim::profile(&g, src);
        let audit = decision_audit(
            &profile,
            &rt.cpu,
            &rt.gpu,
            &rt.link,
            &params,
            &sink.take(),
            &run.report,
            1e-4,
        );
        (audit, run.report)
    }

    #[test]
    fn audit_prices_both_sides_and_attributes_time() {
        let (audit, report) = audited_run(11);
        // The oracle can never lose to the prediction on the same profile.
        assert!(audit.oracle_seconds <= audit.predicted_seconds + 1e-12);
        assert!(audit.efficiency > 0.0 && audit.efficiency <= 1.0 + 1e-12);
        assert!(audit.regret_seconds >= -1e-12);
        assert_eq!(audit.served_rung, "cross");
        assert_eq!(audit.total_seconds, report.total_seconds);

        // A fault-free cross run realizes exactly the predicted switch.
        assert_eq!(audit.realized_switch_level, audit.predicted_switch_level);

        // Every simulated second of the fault-free run is attributed:
        // kernel + transfer phases must reconstruct the report's total.
        let attributed = audit.attributed_s();
        assert!(
            (attributed - report.total_seconds).abs() <= 1e-9 * report.total_seconds.max(1.0),
            "attributed {attributed} vs total {}",
            report.total_seconds
        );
        // Cell totals agree with phase totals.
        let cell_total: f64 = audit.levels.iter().map(|c| c.total_s()).sum();
        assert!((cell_total - attributed).abs() <= 1e-9 * attributed.max(1.0));

        // KernelCost decomposition covers the kernel time it priced.
        let kernel_s = audit.phase_total("kernel");
        let decomposed: f64 = audit.levels.iter().map(|c| c.overhead_s + c.work_s).sum();
        assert!(
            (decomposed - kernel_s).abs() <= 1e-9 * kernel_s.max(1.0),
            "decomposed {decomposed} vs kernel {kernel_s}"
        );

        // Overhead fraction is tiny but present.
        assert!(audit.prediction_overhead_fraction > 0.0);
        assert!(audit.prediction_overhead_fraction < 0.5);
    }

    #[test]
    fn audit_round_trips_through_json() {
        let (audit, _) = audited_run(10);
        let parsed = DecisionAudit::from_json(&audit.to_json()).expect("parse back");
        assert_eq!(parsed, audit);
    }

    #[test]
    fn meets_thresholds_are_monotone() {
        let (audit, _) = audited_run(10);
        assert!(audit.meets(0.0));
        if audit.meets(0.9) {
            assert!(audit.meets(0.5));
        }
        assert!(!audit.meets(1.5));
    }

    #[test]
    fn policy_audit_reconstructs_an_offline_run_and_counts_online_decisions() {
        let rt = AdaptiveRuntime::quick_trained();
        let g = xbfs_graph::rmat::rmat_csr(10, 16);
        let stats = GraphStats::rmat(&g, 0.57, 0.19, 0.19, 0.05);
        let src = crate::training::pick_source(&g, 3).unwrap();
        let params = rt.predict_params(&stats);
        let profile = xbfs_archsim::profile(&g, src);

        // Offline run: no PolicyDecision events; the realized seconds are
        // exactly the predicted pair's fault-free cost, so the audit's
        // regret matches the classic decision audit's.
        let sink = MemorySink::new();
        rt.session(&g, &stats)
            .source(src)
            .params(params)
            .checkpoints(CheckpointPolicy::disabled())
            .sink(&sink)
            .run()
            .expect("offline run");
        let audit = policy_audit(&profile, &rt.cpu, &rt.gpu, &rt.link, &sink.take());
        assert_eq!(audit.decisions, 0);
        assert_eq!(audit.explorations, 0);
        let predicted = crate::cross::cost_cross(&profile, &rt.cpu, &rt.gpu, &rt.link, &params);
        assert!(
            (audit.realized_seconds - predicted.total_seconds).abs()
                <= 1e-9 * predicted.total_seconds.max(1.0),
            "realized {} vs predicted {}",
            audit.realized_seconds,
            predicted.total_seconds
        );
        assert!(audit.oracle_seconds <= audit.realized_seconds + 1e-12);
        let level_sum: f64 = audit.levels.iter().map(|l| l.regret_s).sum();
        assert!((level_sum - audit.regret_seconds).abs() <= 1e-9);

        // Online run: every level carries a traced decision.
        let shared = crate::policy_online::SharedPolicy::online(5);
        let cell = shared.run_cell();
        let sink = MemorySink::new();
        rt.session(&g, &stats)
            .source(src)
            .params(params)
            .checkpoints(CheckpointPolicy::disabled())
            .sink(&sink)
            .policy(&cell)
            .run()
            .expect("online run");
        let online = policy_audit(&profile, &rt.cpu, &rt.gpu, &rt.link, &sink.take());
        assert!(online.decisions > 0);
        assert_eq!(online.decisions as usize, online.levels.len());
        for l in &online.levels {
            assert!(l.device.is_some() && l.direction.is_some() && l.bin.is_some());
        }
        let parsed = PolicyAudit::from_json(&online.to_json()).expect("round trip");
        assert_eq!(parsed, online);
    }
}
