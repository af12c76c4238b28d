//! Offline analysis over recorded traces: critical-path extraction and
//! structural + timing diffs between two runs.
//!
//! The simulated clock is *serial* — every charge advances one global
//! clock — so the "critical path" of a run is the ordered sequence of leaf
//! spans (kernel attempts, transfers, retry backoffs, checkpoint captures)
//! laid end to end across the device lanes. [`critical_path`] extracts that
//! sequence, totals it per device and per span kind, and reports any
//! uncovered gap (clock charges that no leaf span describes).
//!
//! [`trace_diff`] compares two recorded runs structurally (which spans and
//! instants occurred, as a multiset of timestamp-free keys) and temporally
//! (per-phase simulated seconds). Simulated clocks are deterministic, so
//! two runs of the same configuration diff to exactly empty, and tolerance
//! bands for regression gating can be tight.

use super::TraceEvent;
use crate::policy::Direction;
use serde::{Deserialize, Serialize};
use std::collections::BTreeMap;

// `PathSegment`/`CriticalPath` borrow the engine's `&'static str` labels,
// so they serialize (for reports) but do not deserialize; the diff types
// own their strings and round-trip fully.

fn dir_label(d: Direction) -> &'static str {
    match d {
        Direction::TopDown => "td",
        Direction::BottomUp => "bu",
    }
}

/// Device lane a retry backoff charges: the device of the op being retried.
fn op_device(op: &str) -> &'static str {
    match op {
        "cpu-kernel" => "cpu",
        "gpu-kernel" => "gpu",
        "transfer" => "link",
        _ => "ladder",
    }
}

/// One leaf span on the serial simulated clock.
#[derive(Clone, Copy, Debug, PartialEq, Serialize)]
pub struct PathSegment {
    /// Device lane the span occupies ("cpu", "gpu", "link", "ladder").
    pub device: &'static str,
    /// Span kind ("kernel", "transfer", "backoff", "checkpoint").
    pub kind: &'static str,
    /// Level the span served.
    pub level: u32,
    /// Simulated clock at span start.
    pub start_s: f64,
    /// Simulated clock at span end.
    pub end_s: f64,
}

impl PathSegment {
    /// Span duration in simulated seconds.
    pub fn seconds(&self) -> f64 {
        self.end_s - self.start_s
    }
}

/// The critical path of a recorded run: every leaf span in clock order,
/// with per-device and per-kind totals.
#[derive(Clone, Debug, PartialEq, Serialize)]
pub struct CriticalPath {
    /// Leaf spans sorted by start time (stable on trace order).
    pub segments: Vec<PathSegment>,
    /// Total simulated seconds across the segments — the path length.
    pub length_s: f64,
    /// Path seconds per device lane.
    pub device_seconds: BTreeMap<&'static str, f64>,
    /// Path seconds per span kind.
    pub kind_seconds: BTreeMap<&'static str, f64>,
    /// Earliest simulated timestamp observed in the trace (0 for a fresh
    /// run; the checkpoint clock for a resumed one).
    pub start_s: f64,
    /// Latest simulated timestamp observed in the trace.
    pub end_s: f64,
    /// Clock time no leaf span covers: `(end_s - start_s) - length_s`,
    /// clamped at zero. Nonzero gaps point at unspanned charges (e.g. the
    /// state re-upload when the cross rung resumes an external checkpoint).
    pub gap_s: f64,
}

impl CriticalPath {
    /// Path seconds on one device lane (0 if the lane never appears).
    pub fn on_device(&self, device: &str) -> f64 {
        self.device_seconds.get(device).copied().unwrap_or(0.0)
    }
}

/// Extract the critical path from a recorded event list.
///
/// Only simulated-clock leaf spans contribute: [`TraceEvent::Kernel`],
/// [`TraceEvent::Transfer`], [`TraceEvent::Backoff`] and
/// [`TraceEvent::Checkpoint`]. Aggregates ([`TraceEvent::Level`], rung
/// spans) and wall-clock [`TraceEvent::EngineLevel`] records are ignored —
/// the former would double-count their own kernels, the latter live on a
/// different clock.
pub fn critical_path(events: &[TraceEvent]) -> CriticalPath {
    let mut segments: Vec<PathSegment> = Vec::new();
    let mut lo = f64::INFINITY;
    let mut hi = f64::NEG_INFINITY;
    let mut observe = |a: f64, b: f64| {
        lo = lo.min(a);
        hi = hi.max(b);
    };
    for ev in events {
        match ev {
            TraceEvent::Kernel {
                device,
                level,
                start_s,
                end_s,
                ..
            } => {
                observe(*start_s, *end_s);
                segments.push(PathSegment {
                    device,
                    kind: "kernel",
                    level: *level,
                    start_s: *start_s,
                    end_s: *end_s,
                });
            }
            TraceEvent::Transfer {
                level,
                start_s,
                end_s,
                ..
            } => {
                observe(*start_s, *end_s);
                segments.push(PathSegment {
                    device: "link",
                    kind: "transfer",
                    level: *level,
                    start_s: *start_s,
                    end_s: *end_s,
                });
            }
            TraceEvent::Backoff {
                op,
                level,
                start_s,
                end_s,
                ..
            } => {
                observe(*start_s, *end_s);
                segments.push(PathSegment {
                    device: op_device(op),
                    kind: "backoff",
                    level: *level,
                    start_s: *start_s,
                    end_s: *end_s,
                });
            }
            TraceEvent::Checkpoint {
                level,
                start_s,
                end_s,
                ..
            } => {
                observe(*start_s, *end_s);
                segments.push(PathSegment {
                    device: "ladder",
                    kind: "checkpoint",
                    level: *level,
                    start_s: *start_s,
                    end_s: *end_s,
                });
            }
            TraceEvent::RungBegin { at_s, .. }
            | TraceEvent::RungEnd { at_s, .. }
            | TraceEvent::RungSkipped { at_s, .. }
            | TraceEvent::Fault { at_s, .. }
            | TraceEvent::Breaker { at_s, .. }
            | TraceEvent::Resume { at_s, .. }
            | TraceEvent::KernelCost { at_s, .. }
            | TraceEvent::QueryAdmitted { at_s, .. }
            | TraceEvent::QueryStart { at_s, .. }
            | TraceEvent::QueryEnd { at_s, .. }
            | TraceEvent::QueryShed { at_s, .. }
            | TraceEvent::QueueDepth { at_s, .. }
            | TraceEvent::CorruptionDetected { at_s, .. }
            | TraceEvent::CorruptionRepair { at_s, .. }
            | TraceEvent::BatchBegin { at_s, .. }
            | TraceEvent::BatchLane { at_s, .. }
            | TraceEvent::BatchEnd { at_s, .. }
            | TraceEvent::PolicyDecision { at_s, .. } => observe(*at_s, *at_s),
            // Like `Level`: an aggregate over a group of lanes, not a
            // leaf span — stretch the observed window, add no segment.
            TraceEvent::BatchLevel { seconds, at_s, .. } => observe(*at_s, *at_s + *seconds),
            TraceEvent::Level { start_s, end_s, .. } => observe(*start_s, *end_s),
            TraceEvent::EngineLevel { .. } => {}
        }
    }
    segments.sort_by(|a, b| a.start_s.total_cmp(&b.start_s));

    let mut device_seconds: BTreeMap<&'static str, f64> = BTreeMap::new();
    let mut kind_seconds: BTreeMap<&'static str, f64> = BTreeMap::new();
    let mut length_s = 0.0;
    for seg in &segments {
        let d = seg.seconds();
        length_s += d;
        *device_seconds.entry(seg.device).or_insert(0.0) += d;
        *kind_seconds.entry(seg.kind).or_insert(0.0) += d;
    }
    let (start_s, end_s) = if lo.is_finite() { (lo, hi) } else { (0.0, 0.0) };
    CriticalPath {
        gap_s: ((end_s - start_s) - length_s).max(0.0),
        segments,
        length_s,
        device_seconds,
        kind_seconds,
        start_s,
        end_s,
    }
}

/// A timestamp-free structural key for one event — what happened, to which
/// level, with which outcome, but not *when*.
fn structural_key(ev: &TraceEvent) -> String {
    match ev {
        TraceEvent::RungBegin { rung, .. } => format!("rung-begin:{rung}"),
        TraceEvent::RungEnd { rung, outcome, .. } => {
            format!("rung-end:{rung}:{}", outcome.name())
        }
        TraceEvent::RungSkipped { rung, device, .. } => {
            format!("rung-skipped:{rung}:{device}")
        }
        TraceEvent::Level {
            rung,
            device,
            level,
            direction,
            frontier_vertices,
            frontier_edges,
            edges_examined,
            discovered,
            ..
        } => format!(
            "level:{rung}:{device}:{level}:{}:fv={frontier_vertices}:fe={frontier_edges}:\
             ee={edges_examined}:d={discovered}",
            dir_label(*direction)
        ),
        TraceEvent::Kernel {
            device,
            op,
            level,
            attempt,
            ok,
            ..
        } => format!("kernel:{device}:{op}:level={level}:attempt={attempt}:ok={ok}"),
        TraceEvent::Transfer {
            level,
            bytes,
            attempt,
            ok,
            ..
        } => format!("transfer:level={level}:bytes={bytes}:attempt={attempt}:ok={ok}"),
        TraceEvent::Backoff {
            op, level, retry, ..
        } => format!("backoff:{op}:level={level}:retry={retry}"),
        TraceEvent::Fault {
            op,
            kind,
            level,
            attempt,
            ..
        } => format!("fault:{op}:{kind}:level={level}:attempt={attempt}"),
        TraceEvent::Breaker {
            device,
            from,
            to,
            cause,
            ..
        } => format!("breaker:{device}:{from}->{to}:{cause}"),
        TraceEvent::Checkpoint {
            rung,
            level,
            bytes,
            spilled,
            ..
        } => format!("checkpoint:{rung}:level={level}:bytes={bytes}:spilled={spilled}"),
        TraceEvent::Resume {
            rung,
            from_level,
            translated,
            external,
            ..
        } => format!("resume:{rung}:from={from_level}:translated={translated}:external={external}"),
        TraceEvent::KernelCost {
            device,
            level,
            direction,
            bound,
            ..
        } => format!(
            "kernel-cost:{device}:level={level}:{}:{bound}",
            dir_label(*direction)
        ),
        TraceEvent::EngineLevel {
            level,
            direction,
            frontier_vertices,
            frontier_edges,
            edges_examined,
            discovered,
            ..
        } => format!(
            "engine-level:{level}:{}:fv={frontier_vertices}:fe={frontier_edges}:\
             ee={edges_examined}:d={discovered}",
            dir_label(*direction)
        ),
        TraceEvent::QueryAdmitted {
            query, queue_depth, ..
        } => format!("query-admitted:{query}:depth={queue_depth}"),
        TraceEvent::QueryStart { query, .. } => format!("query-start:{query}"),
        TraceEvent::QueryEnd {
            query,
            outcome,
            rung,
            ..
        } => format!("query-end:{query}:{outcome}:{rung}"),
        TraceEvent::QueryShed {
            query,
            reason,
            queue_depth,
            ..
        } => format!("query-shed:{query}:{reason}:depth={queue_depth}"),
        TraceEvent::QueueDepth { depth, .. } => format!("queue-depth:{depth}"),
        TraceEvent::CorruptionDetected {
            rung,
            detector,
            level,
            ..
        } => format!("corruption-detected:{rung}:{detector}:level={level}"),
        TraceEvent::CorruptionRepair {
            rung,
            action,
            to_level,
            attempt,
            ..
        } => format!("corruption-repair:{rung}:{action}:to={to_level}:attempt={attempt}"),
        TraceEvent::BatchBegin { lanes, window, .. } => {
            format!("batch-begin:lanes={lanes}:window={window}")
        }
        TraceEvent::BatchLane {
            lane,
            query,
            source,
            ..
        } => format!("batch-lane:{lane}:query={query}:source={source}"),
        TraceEvent::BatchLevel {
            device,
            level,
            direction,
            lanes,
            frontier_vertices,
            edges_examined,
            ..
        } => format!(
            "batch-level:{device}:{level}:{}:lanes={lanes}:fv={frontier_vertices}:\
             ee={edges_examined}",
            dir_label(*direction)
        ),
        TraceEvent::BatchEnd { lanes, levels, .. } => {
            format!("batch-end:lanes={lanes}:levels={levels}")
        }
        TraceEvent::PolicyDecision {
            level,
            bin,
            device,
            direction,
            explore,
            ..
        } => format!(
            "policy-decision:{device}:level={level}:bin={bin}:{}:explore={explore}",
            dir_label(*direction)
        ),
    }
}

/// The timing phase one event contributes seconds to, if any.
fn phase_of(ev: &TraceEvent) -> Option<(String, f64)> {
    match ev {
        TraceEvent::Kernel {
            device,
            start_s,
            end_s,
            ..
        } => Some((format!("kernel/{device}"), end_s - start_s)),
        TraceEvent::Transfer { start_s, end_s, .. } => {
            Some(("transfer/link".into(), end_s - start_s))
        }
        TraceEvent::Backoff {
            op, start_s, end_s, ..
        } => Some((format!("backoff/{}", op_device(op)), end_s - start_s)),
        TraceEvent::Checkpoint { start_s, end_s, .. } => {
            Some(("checkpoint/ladder".into(), end_s - start_s))
        }
        TraceEvent::EngineLevel { wall_s, .. } => Some(("engine/wall".into(), *wall_s)),
        _ => None,
    }
}

/// Simulated seconds spent in one phase, on each side of a diff.
#[derive(Clone, Debug, PartialEq, Serialize, Deserialize)]
pub struct PhaseDelta {
    /// Phase key: `kind/device` ("kernel/gpu", "transfer/link", …).
    pub phase: String,
    /// Seconds on the left (baseline) side.
    pub left_s: f64,
    /// Seconds on the right (candidate) side.
    pub right_s: f64,
}

impl PhaseDelta {
    /// Signed difference, right minus left.
    pub fn delta_s(&self) -> f64 {
        self.right_s - self.left_s
    }
}

/// Structural + timing difference between two recorded runs.
#[derive(Clone, Debug, PartialEq, Serialize, Deserialize)]
pub struct TraceDiff {
    /// Structural keys present on the right but not the left (one entry
    /// per excess occurrence), sorted.
    pub added: Vec<String>,
    /// Structural keys present on the left but not the right, sorted.
    pub removed: Vec<String>,
    /// Per-phase simulated seconds on both sides, every phase that occurs
    /// on either side, sorted by phase key.
    pub phase_deltas: Vec<PhaseDelta>,
}

impl TraceDiff {
    /// `true` when the two traces are structurally identical and every
    /// phase's seconds match *exactly* (deterministic simulated clocks make
    /// exact equality the expected outcome for identical configurations).
    pub fn is_empty(&self) -> bool {
        self.within(0.0)
    }

    /// `true` when there is no structural difference and every phase delta
    /// is within `tolerance_s` (absolute simulated seconds).
    pub fn within(&self, tolerance_s: f64) -> bool {
        self.added.is_empty()
            && self.removed.is_empty()
            && self
                .phase_deltas
                .iter()
                .all(|d| d.delta_s().abs() <= tolerance_s)
    }

    /// Human-readable one-line-per-difference rendering (empty string for
    /// an empty diff).
    pub fn render(&self) -> String {
        let mut out = String::new();
        for k in &self.removed {
            out.push_str(&format!("- {k}\n"));
        }
        for k in &self.added {
            out.push_str(&format!("+ {k}\n"));
        }
        for d in &self.phase_deltas {
            if d.delta_s() != 0.0 {
                out.push_str(&format!(
                    "~ {}: {:.9}s -> {:.9}s ({:+.3e}s)\n",
                    d.phase,
                    d.left_s,
                    d.right_s,
                    d.delta_s()
                ));
            }
        }
        out
    }
}

/// Diff two recorded runs: `left` is the baseline, `right` the candidate.
///
/// Structure is compared as a multiset of timestamp-free keys (so two
/// retries of the same kernel on each side cancel out); timing is compared
/// per phase (`kind/device`). Instants (faults, breaker flips, resumes)
/// participate structurally but carry no seconds.
pub fn trace_diff(left: &[TraceEvent], right: &[TraceEvent]) -> TraceDiff {
    let mut counts: BTreeMap<String, i64> = BTreeMap::new();
    let mut phases: BTreeMap<String, (f64, f64)> = BTreeMap::new();
    for ev in left {
        *counts.entry(structural_key(ev)).or_insert(0) -= 1;
        if let Some((phase, s)) = phase_of(ev) {
            phases.entry(phase).or_insert((0.0, 0.0)).0 += s;
        }
    }
    for ev in right {
        *counts.entry(structural_key(ev)).or_insert(0) += 1;
        if let Some((phase, s)) = phase_of(ev) {
            phases.entry(phase).or_insert((0.0, 0.0)).1 += s;
        }
    }
    let mut added = Vec::new();
    let mut removed = Vec::new();
    for (key, n) in counts {
        for _ in 0..n.abs() {
            if n > 0 {
                added.push(key.clone());
            } else {
                removed.push(key.clone());
            }
        }
    }
    let phase_deltas = phases
        .into_iter()
        .map(|(phase, (left_s, right_s))| PhaseDelta {
            phase,
            left_s,
            right_s,
        })
        .collect();
    TraceDiff {
        added,
        removed,
        phase_deltas,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn kernel(device: &'static str, level: u32, start_s: f64, end_s: f64) -> TraceEvent {
        TraceEvent::Kernel {
            device,
            op: if device == "gpu" {
                "gpu-kernel"
            } else {
                "cpu-kernel"
            },
            level,
            attempt: 0,
            start_s,
            end_s,
            ok: true,
        }
    }

    fn transfer(level: u32, start_s: f64, end_s: f64) -> TraceEvent {
        TraceEvent::Transfer {
            level,
            bytes: 512,
            attempt: 0,
            start_s,
            end_s,
            ok: true,
        }
    }

    #[test]
    fn critical_path_orders_and_totals_leaf_spans() {
        let events = vec![
            kernel("cpu", 0, 0.0, 1.0),
            transfer(1, 1.0, 1.5),
            kernel("gpu", 1, 1.5, 3.0),
            TraceEvent::Backoff {
                op: "gpu-kernel",
                level: 2,
                retry: 0,
                start_s: 3.0,
                end_s: 3.25,
            },
            kernel("gpu", 2, 3.25, 4.0),
        ];
        let cp = critical_path(&events);
        assert_eq!(cp.segments.len(), 5);
        assert!((cp.length_s - 4.0).abs() < 1e-12);
        assert!((cp.on_device("cpu") - 1.0).abs() < 1e-12);
        assert!((cp.on_device("gpu") - 2.5).abs() < 1e-12);
        assert!((cp.on_device("link") - 0.5).abs() < 1e-12);
        assert!((cp.kind_seconds["backoff"] - 0.25).abs() < 1e-12);
        assert_eq!(cp.start_s, 0.0);
        assert_eq!(cp.end_s, 4.0);
        assert!(cp.gap_s < 1e-12);
        // Segments come back in clock order.
        for pair in cp.segments.windows(2) {
            assert!(pair[0].start_s <= pair[1].start_s);
        }
    }

    #[test]
    fn critical_path_reports_uncovered_gaps() {
        // A charge between the two kernels that no span describes.
        let events = vec![kernel("cpu", 0, 0.0, 1.0), kernel("cpu", 1, 2.0, 3.0)];
        let cp = critical_path(&events);
        assert!((cp.length_s - 2.0).abs() < 1e-12);
        assert!((cp.gap_s - 1.0).abs() < 1e-12);
    }

    #[test]
    fn critical_path_of_empty_trace_is_empty() {
        let cp = critical_path(&[]);
        assert!(cp.segments.is_empty());
        assert_eq!(cp.length_s, 0.0);
        assert_eq!(cp.gap_s, 0.0);
    }

    #[test]
    fn engine_levels_do_not_join_the_simulated_path() {
        let events = vec![TraceEvent::EngineLevel {
            level: 0,
            direction: Direction::TopDown,
            frontier_vertices: 1,
            frontier_edges: 2,
            edges_examined: 2,
            discovered: 1,
            wall_s: 0.5,
        }];
        let cp = critical_path(&events);
        assert!(cp.segments.is_empty());
        assert_eq!(cp.length_s, 0.0);
    }

    #[test]
    fn identical_traces_diff_empty() {
        let events = vec![
            kernel("cpu", 0, 0.0, 1.0),
            transfer(1, 1.0, 1.5),
            TraceEvent::Fault {
                op: "transfer",
                kind: "link-stall",
                level: 1,
                attempt: 0,
                at_s: 1.0,
            },
        ];
        let d = trace_diff(&events, &events.clone());
        assert!(d.is_empty());
        assert!(d.within(0.0));
        assert_eq!(d.render(), "");
        // Phases still enumerate, with equal seconds on both sides.
        assert!(d.phase_deltas.iter().any(|p| p.phase == "kernel/cpu"));
    }

    #[test]
    fn structural_changes_are_added_and_removed() {
        let left = vec![kernel("cpu", 0, 0.0, 1.0), kernel("cpu", 1, 1.0, 2.0)];
        let right = vec![kernel("cpu", 0, 0.0, 1.0), kernel("gpu", 1, 1.0, 2.0)];
        let d = trace_diff(&left, &right);
        assert!(!d.is_empty());
        assert_eq!(d.added.len(), 1);
        assert_eq!(d.removed.len(), 1);
        assert!(d.added[0].starts_with("kernel:gpu:"), "{:?}", d.added);
        assert!(d.removed[0].starts_with("kernel:cpu:"), "{:?}", d.removed);
        assert!(d.render().contains("+ kernel:gpu:"));
    }

    #[test]
    fn timing_drift_is_a_phase_delta_within_bands() {
        let left = vec![kernel("gpu", 0, 0.0, 1.0)];
        let right = vec![kernel("gpu", 0, 0.0, 1.001)];
        let d = trace_diff(&left, &right);
        // Structurally identical (same key), timing off by 1 ms.
        assert!(d.added.is_empty() && d.removed.is_empty());
        assert!(!d.is_empty());
        assert!(!d.within(1e-4));
        assert!(d.within(1e-2));
        let gpu = d
            .phase_deltas
            .iter()
            .find(|p| p.phase == "kernel/gpu")
            .unwrap();
        assert!((gpu.delta_s() - 0.001).abs() < 1e-12);
    }

    #[test]
    fn multiset_semantics_cancel_retries() {
        // Two identical retries on each side cancel; a third on the right
        // shows up exactly once.
        let k = kernel("gpu", 3, 0.0, 1.0);
        let d = trace_diff(&[k.clone(), k.clone()], &[k.clone(), k.clone(), k.clone()]);
        assert_eq!(d.added.len(), 1);
        assert!(d.removed.is_empty());
    }
}
