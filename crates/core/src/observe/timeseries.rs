//! Simulated-clock live telemetry: windowed time-series snapshots,
//! latency quantiles, and SLO evaluation.
//!
//! Everything in this module advances on the *simulated* service clock,
//! never wall time — a deterministic schedule produces byte-identical
//! snapshots on every replay, which is what lets CI byte-compare two
//! seeded `serve --snapshot-every` runs.
//!
//! The windows are a section of the service's one registry,
//! [`Metrics`](super::Metrics), kept when the service's
//! [`SnapshotPolicy`] is on. The fold that feeds the exposition also
//! counts into the open window, and every
//! [`SnapshotPolicy::every_seconds`] of simulated time a
//! [`WindowSnapshot`] closes. It carries time-weighted queue-depth and
//! in-flight gauges, admit/shed/complete rates, batch occupancy,
//! corruption counters, and p50/p95/p99 readouts of the window's latency
//! and queue-wait [`Histogram`]s. The run's last window closes at the
//! makespan, covering whatever span is left. An optional [`SloPolicy`]
//! layers objective targets on top; [`SloReport`] carries the verdict
//! plus a per-window burn rate (observed miss fraction over the allowed
//! miss fraction — burn > 1 means the window spends error budget faster
//! than the objective allows).

use super::Histogram;
use serde_json::{json, Value};
use xbfs_engine::XbfsError;

/// Cadence of time-series snapshots on the simulated clock. The default
/// is off (`every_seconds` 0): no window state is kept and every
/// existing output stays byte-identical.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct SnapshotPolicy {
    /// Simulated seconds per window; `0.0` (or negative) disables
    /// snapshots entirely.
    pub every_seconds: f64,
}

impl Default for SnapshotPolicy {
    fn default() -> Self {
        Self::off()
    }
}

impl SnapshotPolicy {
    /// Snapshots disabled.
    pub fn off() -> Self {
        Self { every_seconds: 0.0 }
    }

    /// A window every `every_seconds` of simulated time.
    pub fn every(every_seconds: f64) -> Self {
        Self { every_seconds }
    }

    /// Whether this policy produces any windows.
    pub fn enabled(&self) -> bool {
        self.every_seconds > 0.0 && self.every_seconds.is_finite()
    }

    /// Validate the cadence (finite, non-negative).
    pub fn validate(&self) -> Result<(), XbfsError> {
        if self.every_seconds < 0.0 || self.every_seconds.is_nan() {
            return Err(XbfsError::InvalidArgument {
                what: format!(
                    "snapshot cadence must be a non-negative number of seconds, got {}",
                    self.every_seconds
                ),
            });
        }
        Ok(())
    }
}

/// A time-weighted gauge accumulator on a monotone simulated clock.
///
/// `set(t, v)` charges the *previous* value for the elapsed interval and
/// installs `v`; `mean(end)` closes the integral at `end` and divides by
/// the observed span. This is the textbook definition of a time-weighted
/// mean: a queue that sits at depth 2 for one second and depth 0 for
/// three seconds averages 0.5, no matter how many transitions occurred.
/// The default is a gauge at 0 from time 0.
#[derive(Clone, Copy, Debug, Default)]
pub struct TimeWeighted {
    start_t: f64,
    last_t: f64,
    value: f64,
    area: f64,
    peak: f64,
}

impl TimeWeighted {
    /// A gauge starting at value 0 at time `t0`.
    pub fn new(t0: f64) -> Self {
        Self {
            start_t: t0,
            last_t: t0,
            value: 0.0,
            area: 0.0,
            peak: 0.0,
        }
    }

    /// Install `v` at time `t` (≥ the previous `t`; earlier stamps are
    /// clamped so a same-instant burst of transitions charges nothing).
    pub fn set(&mut self, t: f64, v: f64) {
        let t = t.max(self.last_t);
        self.area += self.value * (t - self.last_t);
        self.last_t = t;
        self.value = v;
        self.peak = self.peak.max(v);
    }

    /// The current gauge value.
    pub fn value(&self) -> f64 {
        self.value
    }

    /// The largest value ever installed.
    pub fn peak(&self) -> f64 {
        self.peak
    }

    /// The time-weighted mean over `[t0, end]`. An empty or inverted span
    /// returns the current value (a gauge that never had time to
    /// integrate reads as itself).
    pub fn mean(&self, end: f64) -> f64 {
        let end = end.max(self.last_t);
        let span = end - self.start_t;
        if span <= 0.0 {
            return self.value;
        }
        (self.area + self.value * (end - self.last_t)) / span
    }
}

/// Log-spaced (1–2–5 per decade) bucket upper bounds for latency and
/// queue-wait histograms, in seconds: 1 µs up to 100 s.
pub const LATENCY_BUCKETS_S: [f64; 25] = [
    1e-6, 2e-6, 5e-6, 1e-5, 2e-5, 5e-5, 1e-4, 2e-4, 5e-4, 1e-3, 2e-3, 5e-3, 1e-2, 2e-2, 5e-2, 1e-1,
    2e-1, 5e-1, 1.0, 2.0, 5.0, 1e1, 2e1, 5e1, 1e2,
];

/// The quantile readout of one window's histogram. Quantile fields are
/// `None` when the window observed nothing — an empty window has no
/// latencies, and its JSON omits the keys rather than printing a made-up
/// bucket bound.
#[derive(Clone, Copy, Debug, Default, PartialEq)]
pub struct QuantileSummary {
    /// Observations in the window.
    pub count: u64,
    /// Sum of observations, seconds.
    pub sum_s: f64,
    /// Median, per [`Histogram::quantile`].
    pub p50_s: Option<f64>,
    /// 95th percentile.
    pub p95_s: Option<f64>,
    /// 99th percentile.
    pub p99_s: Option<f64>,
}

impl QuantileSummary {
    fn to_json(self) -> Value {
        let mut fields = vec![
            ("count".to_string(), json!(self.count)),
            ("sum_s".to_string(), json!(self.sum_s)),
        ];
        if let Some(p) = self.p50_s {
            fields.push(("p50_s".to_string(), json!(p)));
        }
        if let Some(p) = self.p95_s {
            fields.push(("p95_s".to_string(), json!(p)));
        }
        if let Some(p) = self.p99_s {
            fields.push(("p99_s".to_string(), json!(p)));
        }
        Value::Object(fields)
    }
}

/// One closed telemetry window.
#[derive(Clone, Debug, Default)]
pub struct WindowSnapshot {
    /// Zero-based window index.
    pub index: u64,
    /// Window start on the simulated clock.
    pub start_s: f64,
    /// Window end (start of the next window, or the run end for the
    /// run's last window).
    pub end_s: f64,
    /// Time-weighted mean admission-queue depth over the window.
    pub queue_depth_mean: f64,
    /// Deepest the queue got during the window.
    pub queue_depth_peak: u32,
    /// Time-weighted mean of occupied slots over the window.
    pub in_flight_mean: f64,
    /// Most slots occupied at once during the window.
    pub in_flight_peak: u32,
    /// Queries admitted in the window.
    pub admitted: u64,
    /// Queries shed in the window (overload, deadline, shutdown).
    pub shed: u64,
    /// Started queries reaching a terminal outcome in the window.
    pub completed: u64,
    /// Deadline misses in the window: mid-run expiries plus queued
    /// queries shed because their deadline lapsed.
    pub deadline_missed: u64,
    /// The queued-shed portion of `deadline_missed` (queries that never
    /// started; the remainder expired mid-run and also count in
    /// `completed`).
    pub deadline_shed: u64,
    /// Completions whose latency exceeded the SLO latency objective
    /// (always 0 without an [`SloPolicy`]).
    pub latency_slo_missed: u64,
    /// Admissions per simulated second.
    pub admit_rate_hz: f64,
    /// Sheds per simulated second.
    pub shed_rate_hz: f64,
    /// Completions per simulated second.
    pub complete_rate_hz: f64,
    /// Lane-packed batches dispatched in the window.
    pub batch_dispatches: u64,
    /// Lanes carried across those dispatches (occupancy =
    /// `batch_lanes / batch_dispatches`).
    pub batch_lanes: u64,
    /// Corruption detections among the window's completions.
    pub corruption_detected: u64,
    /// Corruption repairs among the window's completions.
    pub corruption_repaired: u64,
    /// Arrival-to-completion latency quantiles over the window.
    pub latency: QuantileSummary,
    /// Queue-wait quantiles over the window's query starts.
    pub queue_wait: QuantileSummary,
}

impl WindowSnapshot {
    /// One deterministic JSON object (for the JSON-lines stream).
    pub fn to_json(&self) -> Value {
        json!({
            "kind": "window",
            "index": self.index,
            "start_s": self.start_s,
            "end_s": self.end_s,
            "queue_depth_mean": self.queue_depth_mean,
            "queue_depth_peak": self.queue_depth_peak,
            "in_flight_mean": self.in_flight_mean,
            "in_flight_peak": self.in_flight_peak,
            "admitted": self.admitted,
            "shed": self.shed,
            "completed": self.completed,
            "deadline_missed": self.deadline_missed,
            "deadline_shed": self.deadline_shed,
            "latency_slo_missed": self.latency_slo_missed,
            "admit_rate_hz": self.admit_rate_hz,
            "shed_rate_hz": self.shed_rate_hz,
            "complete_rate_hz": self.complete_rate_hz,
            "batch_dispatches": self.batch_dispatches,
            "batch_lanes": self.batch_lanes,
            "corruption_detected": self.corruption_detected,
            "corruption_repaired": self.corruption_repaired,
            "latency": self.latency.to_json(),
            "queue_wait": self.queue_wait.to_json(),
        })
    }
}

/// Service-level objectives evaluated over a telemetry run.
///
/// Both ratios are *hit* targets strictly inside `(0, 1)`: a
/// `deadline_hit_ratio` of 0.99 tolerates 1% of deadline-carrying
/// outcomes missing, and the complement `1 - target` is the error budget
/// the per-window burn rate is measured against.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct SloPolicy {
    /// Required fraction of deadline-eligible terminal queries (completions
    /// plus queued deadline sheds) that met their deadline.
    pub deadline_hit_ratio: f64,
    /// Latency objective in simulated seconds (arrival → completion).
    pub latency_objective_s: f64,
    /// Required fraction of completions at or under the latency objective.
    pub latency_hit_ratio: f64,
}

impl Default for SloPolicy {
    fn default() -> Self {
        Self {
            deadline_hit_ratio: 0.99,
            latency_objective_s: 0.05,
            latency_hit_ratio: 0.95,
        }
    }
}

impl SloPolicy {
    /// Validate the targets: ratios strictly inside `(0, 1)` (a target of
    /// exactly 1 leaves a zero error budget and an undefined burn rate),
    /// objective positive and finite.
    pub fn validate(&self) -> Result<(), XbfsError> {
        for (name, r) in [
            ("slo deadline hit ratio", self.deadline_hit_ratio),
            ("slo latency hit ratio", self.latency_hit_ratio),
        ] {
            if !(r > 0.0 && r < 1.0) {
                return Err(XbfsError::InvalidArgument {
                    what: format!("{name} must be strictly between 0 and 1, got {r}"),
                });
            }
        }
        if !(self.latency_objective_s > 0.0 && self.latency_objective_s.is_finite()) {
            return Err(XbfsError::InvalidArgument {
                what: format!(
                    "slo latency objective must be a positive number of seconds, got {}",
                    self.latency_objective_s
                ),
            });
        }
        Ok(())
    }
}

/// One window's error-budget burn under an [`SloPolicy`].
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct WindowBurn {
    /// Window index (matches [`WindowSnapshot::index`]).
    pub index: u64,
    /// Window start on the simulated clock.
    pub start_s: f64,
    /// Window end.
    pub end_s: f64,
    /// Deadline-miss fraction over the allowed miss fraction (0 when the
    /// window had no deadline-eligible outcomes).
    pub deadline_burn: f64,
    /// Latency-miss fraction over the allowed miss fraction (0 when the
    /// window had no completions).
    pub latency_burn: f64,
}

/// The SLO verdict over a whole run.
#[derive(Clone, Debug)]
pub struct SloReport {
    /// The policy evaluated.
    pub policy: SloPolicy,
    /// Deadline-eligible terminal queries (completions + queued deadline
    /// sheds).
    pub deadline_eligible: u64,
    /// Of those, deadline misses.
    pub deadline_missed: u64,
    /// `1 - missed/eligible` (1 when nothing was eligible).
    pub deadline_hit_ratio: f64,
    /// Whether the deadline objective held.
    pub deadline_met: bool,
    /// Completions measured against the latency objective.
    pub latency_eligible: u64,
    /// Of those, completions over the objective.
    pub latency_missed: u64,
    /// `1 - missed/eligible` (1 when nothing completed).
    pub latency_hit_ratio: f64,
    /// Whether the latency objective held.
    pub latency_met: bool,
    /// Both objectives held.
    pub met: bool,
    /// Per-window burn rates.
    pub windows: Vec<WindowBurn>,
}

impl SloReport {
    /// Evaluate `policy` over closed windows.
    pub fn evaluate(policy: SloPolicy, snapshots: &[WindowSnapshot]) -> Self {
        let ratio = |missed: u64, eligible: u64| {
            if eligible == 0 {
                1.0
            } else {
                1.0 - missed as f64 / eligible as f64
            }
        };
        let burn = |missed: u64, eligible: u64, target: f64| {
            if eligible == 0 {
                0.0
            } else {
                (missed as f64 / eligible as f64) / (1.0 - target)
            }
        };
        let mut deadline_eligible = 0u64;
        let mut deadline_missed = 0u64;
        let mut latency_eligible = 0u64;
        let mut latency_missed = 0u64;
        let mut windows = Vec::with_capacity(snapshots.len());
        for w in snapshots {
            // Eligible = completions + queued deadline sheds. A mid-run
            // expiry both completes and misses; a queued shed only misses.
            let eligible = w.completed + w.deadline_shed;
            deadline_eligible += eligible;
            deadline_missed += w.deadline_missed;
            latency_eligible += w.completed;
            latency_missed += w.latency_slo_missed;
            windows.push(WindowBurn {
                index: w.index,
                start_s: w.start_s,
                end_s: w.end_s,
                deadline_burn: burn(w.deadline_missed, eligible, policy.deadline_hit_ratio),
                latency_burn: burn(w.latency_slo_missed, w.completed, policy.latency_hit_ratio),
            });
        }
        let deadline_hit_ratio = ratio(deadline_missed, deadline_eligible);
        let latency_hit_ratio = ratio(latency_missed, latency_eligible);
        let deadline_met = deadline_hit_ratio >= policy.deadline_hit_ratio;
        let latency_met = latency_hit_ratio >= policy.latency_hit_ratio;
        Self {
            policy,
            deadline_eligible,
            deadline_missed,
            deadline_hit_ratio,
            deadline_met,
            latency_eligible,
            latency_missed,
            latency_hit_ratio,
            latency_met,
            met: deadline_met && latency_met,
            windows,
        }
    }

    /// One deterministic JSON object (the final JSON-lines record).
    pub fn to_json(&self) -> Value {
        let windows: Vec<Value> = self
            .windows
            .iter()
            .map(|w| {
                json!({
                    "index": w.index,
                    "start_s": w.start_s,
                    "end_s": w.end_s,
                    "deadline_burn": w.deadline_burn,
                    "latency_burn": w.latency_burn,
                })
            })
            .collect();
        json!({
            "kind": "slo",
            "policy": {
                "deadline_hit_ratio": self.policy.deadline_hit_ratio,
                "latency_objective_s": self.policy.latency_objective_s,
                "latency_hit_ratio": self.policy.latency_hit_ratio,
            },
            "deadline_eligible": self.deadline_eligible,
            "deadline_missed": self.deadline_missed,
            "deadline_hit_ratio": self.deadline_hit_ratio,
            "deadline_met": self.deadline_met,
            "latency_eligible": self.latency_eligible,
            "latency_missed": self.latency_missed,
            "latency_hit_ratio": self.latency_hit_ratio,
            "latency_met": self.latency_met,
            "met": self.met,
            "windows": windows,
        })
    }
}

/// The windowed section of [`Metrics`](super::Metrics): the open window
/// and the windows closed so far. The registry's fold arms count into the
/// open window after [`Windows::advance`] has moved its clock.
#[derive(Debug)]
pub(super) struct Windows {
    every_s: f64,
    pub(super) slo: Option<SloPolicy>,
    /// The open window's counts; [`Windows::close`] fills in the rest.
    pub(super) open: WindowSnapshot,
    pub(super) queue: TimeWeighted,
    pub(super) in_flight: TimeWeighted,
    pub(super) latency: Histogram,
    pub(super) queue_wait: Histogram,
    closed: Vec<WindowSnapshot>,
}

/// A gauge that starts at `v` at time `t`.
fn gauge(t: f64, v: f64) -> TimeWeighted {
    let mut g = TimeWeighted::new(t);
    g.set(t, v);
    g
}

impl Windows {
    /// Windows of `every_s` simulated seconds from time 0.
    pub(super) fn new(every_s: f64, slo: Option<SloPolicy>) -> Self {
        Self {
            every_s,
            slo,
            open: WindowSnapshot::default(),
            queue: TimeWeighted::default(),
            in_flight: TimeWeighted::default(),
            latency: Histogram::new(&LATENCY_BUCKETS_S),
            queue_wait: Histogram::new(&LATENCY_BUCKETS_S),
            closed: Vec::new(),
        }
    }

    /// Close every window boundary at or before `t`.
    pub(super) fn advance(&mut self, t: f64) {
        while t >= self.open.start_s + self.every_s {
            self.close(self.open.start_s + self.every_s, self.every_s);
        }
    }

    /// Close the open window at `end`, `span` seconds after it opened, and
    /// open the next one, carrying the gauges across the boundary.
    fn close(&mut self, end: f64, span: f64) {
        let rate = |n: u64| if span > 0.0 { n as f64 / span } else { 0.0 };
        let (queue, in_flight) = (self.queue.value(), self.in_flight.value());
        self.queue.set(end, queue);
        self.in_flight.set(end, in_flight);
        let w = WindowSnapshot {
            index: self.closed.len() as u64,
            end_s: end,
            queue_depth_mean: self.queue.mean(end),
            queue_depth_peak: self.queue.peak() as u32,
            in_flight_mean: self.in_flight.mean(end),
            in_flight_peak: self.in_flight.peak() as u32,
            admit_rate_hz: rate(self.open.admitted),
            shed_rate_hz: rate(self.open.shed),
            complete_rate_hz: rate(self.open.completed),
            latency: self.latency.summary(),
            queue_wait: self.queue_wait.summary(),
            ..std::mem::take(&mut self.open)
        };
        self.closed.push(w);
        self.open.start_s = end;
        self.queue = gauge(end, queue);
        self.in_flight = gauge(end, in_flight);
        self.latency = Histogram::new(&LATENCY_BUCKETS_S);
        self.queue_wait = Histogram::new(&LATENCY_BUCKETS_S);
    }

    /// Close the final partial window at `t_end`, then evaluate the SLO
    /// over every closed window.
    pub(super) fn finish(mut self, t_end: f64) -> (Vec<WindowSnapshot>, Option<SloReport>) {
        self.advance(t_end);
        let span = t_end - self.open.start_s;
        if span > 0.0 {
            self.close(t_end, span);
        }
        let slo = self.slo.map(|p| SloReport::evaluate(p, &self.closed));
        (self.closed, slo)
    }
}

/// Render windows (and the SLO verdict, when present) as a JSON-lines
/// stream: one compact object per line, windows first, the `"kind":
/// "slo"` record last. Deterministic for a given run.
pub fn timeseries_json_lines(snapshots: &[WindowSnapshot], slo: Option<&SloReport>) -> String {
    let mut out = String::new();
    for w in snapshots {
        out.push_str(&serde_json::to_string(&w.to_json()).expect("window serializes"));
        out.push('\n');
    }
    if let Some(slo) = slo {
        out.push_str(&serde_json::to_string(&slo.to_json()).expect("slo serializes"));
        out.push('\n');
    }
    out
}

/// Render an [`SloReport`] in the Prometheus text exposition format: the
/// `xbfs_slo_*` families (targets, hit ratios, per-window burn rates,
/// and the 0/1 verdict).
pub fn prometheus_slo_text(report: &SloReport) -> String {
    use super::{render_labels, write_gauge};
    let mut out = String::new();
    let scalar = |v: f64| vec![(String::new(), v)];
    let flag = |b: bool| if b { 1.0 } else { 0.0 };
    write_gauge(
        &mut out,
        "xbfs_slo_deadline_target",
        "Required deadline hit ratio.",
        &scalar(report.policy.deadline_hit_ratio),
    );
    write_gauge(
        &mut out,
        "xbfs_slo_deadline_hit_ratio",
        "Observed deadline hit ratio over the run.",
        &scalar(report.deadline_hit_ratio),
    );
    write_gauge(
        &mut out,
        "xbfs_slo_latency_objective_seconds",
        "Latency objective, simulated seconds arrival to completion.",
        &scalar(report.policy.latency_objective_s),
    );
    write_gauge(
        &mut out,
        "xbfs_slo_latency_target",
        "Required fraction of completions under the latency objective.",
        &scalar(report.policy.latency_hit_ratio),
    );
    write_gauge(
        &mut out,
        "xbfs_slo_latency_hit_ratio",
        "Observed fraction of completions under the latency objective.",
        &scalar(report.latency_hit_ratio),
    );
    let mut burns: Vec<(String, f64)> = Vec::new();
    for w in &report.windows {
        let win = w.index.to_string();
        burns.push((
            render_labels(&[("objective", "deadline"), ("window", &win)]),
            w.deadline_burn,
        ));
        burns.push((
            render_labels(&[("objective", "latency"), ("window", &win)]),
            w.latency_burn,
        ));
    }
    write_gauge(
        &mut out,
        "xbfs_slo_burn_rate",
        "Per-window error-budget burn (miss fraction over allowance).",
        &burns,
    );
    write_gauge(
        &mut out,
        "xbfs_slo_met",
        "1 when every objective held over the run, else 0.",
        &scalar(flag(report.met)),
    );
    out
}

#[cfg(test)]
mod tests {
    use super::super::Metrics;
    use super::*;
    use xbfs_engine::trace::TraceEvent;

    #[test]
    fn time_weighted_mean_matches_hand_computed_schedule() {
        // Depth 0 on [0,1), 2 on [1,3), 1 on [3,4), 0 on [4,5]:
        // area = 0·1 + 2·2 + 1·1 + 0·1 = 5 over span 5 → mean 1.0.
        let mut g = TimeWeighted::new(0.0);
        g.set(1.0, 2.0);
        g.set(3.0, 1.0);
        g.set(4.0, 0.0);
        assert_eq!(g.mean(5.0), 1.0);
        assert_eq!(g.peak(), 2.0);
        // Closing earlier weighs only the elapsed part: over [0,3] the
        // area is 0·1 + 2·2 = 4 → mean 4/3.
        let mut g = TimeWeighted::new(0.0);
        g.set(1.0, 2.0);
        assert!((g.mean(3.0) - 4.0 / 3.0).abs() < 1e-12);
        // A same-instant burst charges nothing.
        let mut g = TimeWeighted::new(0.0);
        g.set(0.0, 5.0);
        g.set(0.0, 1.0);
        g.set(2.0, 0.0);
        assert_eq!(
            g.mean(2.0),
            1.0,
            "only the last same-instant value integrates"
        );
        assert_eq!(g.peak(), 5.0, "peak still sees the burst");
        // An empty span reads the current value.
        let g = TimeWeighted::new(1.0);
        assert_eq!(g.mean(1.0), 0.0);
    }

    #[test]
    fn log_histogram_quantiles_match_hand_computed_ranks() {
        let mut h = Histogram::new(&LATENCY_BUCKETS_S);
        // Ten observations: eight at 3 ms (bucket le=0.005), one at
        // 40 ms (le=0.05), one at 300 ms (le=0.5).
        for _ in 0..8 {
            h.observe(3e-3);
        }
        h.observe(4e-2);
        h.observe(3e-1);
        assert_eq!(h.count(), 10);
        // p50: rank ceil(0.5·10)=5 → inside the first bucket → 0.005.
        assert_eq!(h.quantile(0.50), Some(5e-3));
        // p80: rank 8 → still the first bucket (cum 8 ≥ 8).
        assert_eq!(h.quantile(0.80), Some(5e-3));
        // p90: rank 9 → the 40 ms bucket.
        assert_eq!(h.quantile(0.90), Some(5e-2));
        // p99: rank ceil(9.9)=10 → the 300 ms bucket.
        assert_eq!(h.quantile(0.99), Some(5e-1));
        let s = h.summary();
        assert_eq!(s.p50_s, Some(5e-3));
        // p95: rank ceil(9.5)=10 → also the 300 ms bucket.
        assert_eq!(s.p95_s, Some(5e-1));
        assert_eq!(s.p99_s, Some(5e-1));
        assert!((s.sum_s - (8.0 * 3e-3 + 4e-2 + 3e-1)).abs() < 1e-12);
    }

    #[test]
    fn log_histogram_edges() {
        let h = Histogram::new(&LATENCY_BUCKETS_S);
        assert_eq!(h.quantile(0.5), None, "an empty histogram has no quantiles");
        assert_eq!(h.quantile(0.99), None);
        let s = h.summary();
        assert_eq!((s.p50_s, s.p95_s, s.p99_s), (None, None, None));
        let json = s.to_json();
        let obj = json.as_object().expect("summary is an object");
        assert!(
            obj.iter().all(|(k, _)| k == "count" || k == "sum_s"),
            "empty summary must omit quantile keys, got {obj:?}"
        );
        let mut h = Histogram::new(&LATENCY_BUCKETS_S);
        h.observe(1e9); // beyond the last bucket
        h.observe(2e9);
        assert_eq!(h.quantile(0.99), Some(2e9), "overflow ranks read the max");
        let mut h = Histogram::new(&LATENCY_BUCKETS_S);
        h.observe(-1.0); // below every bound → first bucket
        assert_eq!(h.quantile(0.5), Some(LATENCY_BUCKETS_S[0]));
    }

    fn admitted(query: u64, at_s: f64) -> TraceEvent {
        TraceEvent::QueryAdmitted {
            query,
            queue_depth: 0,
            at_s,
        }
    }

    fn ended(query: u64, outcome: &'static str, at_s: f64) -> TraceEvent {
        TraceEvent::QueryEnd {
            query,
            outcome,
            rung: "cross",
            at_s,
        }
    }

    #[test]
    fn registry_closes_windows_on_the_simulated_clock() {
        let mut m = Metrics::windowed(SnapshotPolicy::every(1.0), None);
        // Window 0: two admits, queue to depth 2 at t=0.5.
        m.fold(&[
            admitted(0, 0.1),
            admitted(1, 0.2),
            TraceEvent::QueueDepth {
                depth: 2,
                at_s: 0.5,
            },
            TraceEvent::QueryStart {
                query: 0,
                wait_s: 0.4,
                at_s: 0.6,
            },
            // Window 1: one completion at t=1.5, queue drains at 1.5.
            ended(0, "served", 1.5),
            TraceEvent::QueueDepth {
                depth: 0,
                at_s: 1.5,
            },
            // Partial window 2 ends at finish(2.5).
            admitted(2, 2.25),
        ]);
        let (w, slo) = m.finish(2.5);
        assert!(slo.is_none());

        assert_eq!(w.len(), 3);
        assert_eq!((w[0].start_s, w[0].end_s), (0.0, 1.0));
        assert_eq!(w[0].admitted, 2);
        assert_eq!(w[0].admit_rate_hz, 2.0);
        // Queue: 0 on [0,0.5), 2 on [0.5,1) → mean 1.0, peak 2.
        assert_eq!(w[0].queue_depth_mean, 1.0);
        assert_eq!(w[0].queue_depth_peak, 2);
        assert_eq!(w[0].queue_wait.count, 1);

        // The gauge carries across the boundary: depth 2 on [1,1.5).
        assert_eq!(w[1].queue_depth_mean, 1.0);
        assert_eq!(w[1].completed, 1);
        assert_eq!(w[1].complete_rate_hz, 1.0);
        assert_eq!(w[1].latency.count, 1);

        // The final partial window spans [2, 2.5): rate uses the real span.
        assert_eq!((w[2].start_s, w[2].end_s), (2.0, 2.5));
        assert_eq!(w[2].admitted, 1);
        assert_eq!(w[2].admit_rate_hz, 2.0);

        // A second finish closes nothing more.
        let n = m.finish(9.0).0.len();
        assert_eq!(n, 0);
    }

    #[test]
    fn disabled_policy_produces_no_windows() {
        let mut m = Metrics::windowed(SnapshotPolicy::off(), None);
        m.fold(&[admitted(0, 0.5), ended(0, "served", 1.5)]);
        let (windows, slo) = m.finish(2.0);
        assert!(windows.is_empty());
        assert!(slo.is_none());
    }

    #[test]
    fn slo_report_computes_ratios_and_burn() {
        let policy = SloPolicy {
            deadline_hit_ratio: 0.9,
            latency_objective_s: 0.01,
            latency_hit_ratio: 0.8,
        };
        let mut m = Metrics::windowed(SnapshotPolicy::every(1.0), Some(policy));
        // Window 0: four completions, one misses its deadline, one (the
        // same event) is also over the 10 ms latency objective.
        m.fold(&[
            admitted(0, 0.0),
            admitted(1, 0.0),
            admitted(2, 0.0),
            admitted(3, 0.0),
            ended(0, "served", 0.001),
            ended(1, "served", 0.002),
            ended(2, "served", 0.005),
            ended(3, "deadline-missed", 0.5),
            // Window 1: one queued deadline shed, one clean completion.
            admitted(4, 1.1),
            TraceEvent::QueryShed {
                query: 4,
                reason: "deadline",
                queue_depth: 0,
                at_s: 1.2,
            },
            admitted(5, 1.25),
            ended(5, "served", 1.254),
        ]);
        let (_, slo) = m.finish(2.0);

        let slo = slo.expect("slo configured");
        // Deadline: eligible = 4 completions + (1 completion + 1 shed) = 6,
        // missed = 2 → hit ratio 4/6.
        assert_eq!(slo.deadline_eligible, 6);
        assert_eq!(slo.deadline_missed, 2);
        assert!((slo.deadline_hit_ratio - 4.0 / 6.0).abs() < 1e-12);
        assert!(!slo.deadline_met);
        // Latency: 5 completions, 1 over objective → 0.8 ≥ 0.8 target.
        assert_eq!(slo.latency_eligible, 5);
        assert_eq!(slo.latency_missed, 1);
        assert!((slo.latency_hit_ratio - 0.8).abs() < 1e-12);
        assert!(slo.latency_met);
        assert!(!slo.met);
        // Window 0 burn: deadline 1/4 miss over 0.1 allowance = 2.5×;
        // latency 1/4 over 0.2 allowance = 1.25×.
        assert_eq!(slo.windows.len(), 2);
        assert!((slo.windows[0].deadline_burn - 2.5).abs() < 1e-12);
        assert!((slo.windows[0].latency_burn - 1.25).abs() < 1e-12);
        // Window 1: 1 shed miss over 2 eligible / 0.1 = 5×; latency clean.
        assert!((slo.windows[1].deadline_burn - 5.0).abs() < 1e-12);
        assert_eq!(slo.windows[1].latency_burn, 0.0);
    }

    #[test]
    fn slo_policy_validates_targets() {
        assert!(SloPolicy::default().validate().is_ok());
        for bad in [0.0, 1.0, -0.5, f64::NAN] {
            let p = SloPolicy {
                deadline_hit_ratio: bad,
                ..SloPolicy::default()
            };
            assert!(p.validate().is_err(), "deadline ratio {bad} must fail");
        }
        let p = SloPolicy {
            latency_objective_s: 0.0,
            ..SloPolicy::default()
        };
        assert!(p.validate().is_err());
    }

    #[test]
    fn json_lines_are_one_object_per_line_windows_then_slo() {
        let policy = SloPolicy::default();
        let mut m = Metrics::windowed(SnapshotPolicy::every(1.0), Some(policy));
        m.fold(&[admitted(0, 0.499), ended(0, "served", 0.5)]);
        let (windows, slo) = m.finish(1.5);
        let text = timeseries_json_lines(&windows, slo.as_ref());
        let lines: Vec<&str> = text.lines().collect();
        assert_eq!(lines.len(), 3);
        for (i, line) in lines.iter().enumerate() {
            let v: Value = serde_json::from_str(line).expect("line parses");
            let expected = if i < 2 { "window" } else { "slo" };
            assert_eq!(v["kind"], expected, "line {i}");
        }
        // Rendering twice is byte-identical.
        assert_eq!(text, timeseries_json_lines(&windows, slo.as_ref()));
    }

    #[test]
    fn prometheus_slo_text_renders_all_families() {
        let mut m = Metrics::windowed(
            SnapshotPolicy::every(1.0),
            Some(SloPolicy {
                deadline_hit_ratio: 0.9,
                latency_objective_s: 0.01,
                latency_hit_ratio: 0.8,
            }),
        );
        m.fold(&[
            admitted(0, 0.0),
            ended(0, "deadline-missed", 0.5),
            admitted(1, 1.499),
            ended(1, "served", 1.5),
        ]);
        let slo = m.finish(2.0).1.unwrap();
        let text = prometheus_slo_text(&slo);
        assert!(text.contains("xbfs_slo_deadline_target 0.9"));
        assert!(text.contains("xbfs_slo_deadline_hit_ratio 0.5"));
        assert!(text.contains("xbfs_slo_latency_objective_seconds 0.01"));
        assert!(text.contains("xbfs_slo_burn_rate{objective=\"deadline\",window=\"0\"} 10"));
        assert!(text.contains("xbfs_slo_burn_rate{objective=\"latency\",window=\"1\"} 0"));
        assert!(text.contains("xbfs_slo_met 0"));
    }
}
