//! Offline analysis over recorded traces: critical-path extraction.
//!
//! The simulated clock is *serial* — every charge advances one global
//! clock — so the "critical path" of a run is the ordered sequence of leaf
//! spans (kernel attempts, transfers, retry backoffs, checkpoint captures)
//! laid end to end across the device lanes. [`critical_path`] extracts that
//! sequence, totals it per device and per span kind, and reports any
//! uncovered gap (clock charges that no leaf span describes).

use super::TraceEvent;
use serde::Serialize;
use std::collections::BTreeMap;

// `PathSegment`/`CriticalPath` borrow the engine's `&'static str` labels,
// so they serialize (for reports) but do not deserialize.

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

#[cfg(test)]
mod tests {
    use super::*;
    use crate::policy::Direction;

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
}
