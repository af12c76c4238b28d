//! Offline exporters that turn a recorded trace into standard formats.
//!
//! The sinks in [`xbfs_engine::trace`] deliberately do no interpretation —
//! they drop or buffer. This module consumes a buffered event list (from a
//! [`MemorySink`](xbfs_engine::trace::MemorySink)) and renders it two
//! ways:
//!
//! * [`chrome_trace_json`] — the Chrome Trace Event format, loadable in
//!   `chrome://tracing` or <https://ui.perfetto.dev>: one track per device
//!   (cpu / gpu / link), one for the recovery ladder, one for the pure
//!   engine; levels, kernel attempts, transfers, backoffs, and checkpoints
//!   as duration spans; faults, breaker flips, and resumes as instants;
//!   decomposed kernel costs as counter series.
//! * [`Metrics`] and [`prometheus_text`] — the Prometheus text exposition
//!   format: counters keyed by device, rung, and direction, plus a
//!   per-device histogram of simulated level durations. The registry
//!   accepts events as they happen, which is how the query service keeps
//!   one account of every query whether or not its trace is kept.
//!
//! Both outputs are deterministic for a given event list (stable sorts,
//! `BTreeMap`-ordered label sets), which is what lets the golden-file test
//! pin the chrome trace byte-for-byte.
//!
//! Neither builds an intermediate tree. The chrome exporter writes each
//! record straight into one text buffer, through the vendored
//! `serde_json`'s writer primitives, so its bytes are exactly what
//! `to_string_pretty` would print for the same records. It keeps a
//! `(timestamp, sequence, byte range)` key per record, sorts the keys, and
//! copies the ranges out in that order. The registry renders a label set
//! into a scratch buffer its family owns and finds the series by `&str`,
//! so only an event that opens a new series allocates a key.
//!
//! Transfers the ladder charges without a fault draw are traced too: the
//! re-upload of a device-resident checkpoint and the pullback of a
//! capture its audit refused. The transfer counters count their bytes.
//!
//! The [`timeseries`] submodule holds the registry's windowed section:
//! snapshots closed on the simulated clock, their JSON-lines stream, and
//! SLO evaluation over them.

use crate::service::QueryTrace;
use serde_json::{
    json, write_f64, write_key, write_newline, write_string, write_string_fmt, write_u64, Value,
};
use std::collections::BTreeMap;
use std::fmt;
use std::ops::Range;
use timeseries::{
    QuantileSummary, SloPolicy, SloReport, SnapshotPolicy, TimeWeighted, WindowSnapshot, Windows,
};
use xbfs_engine::trace::TraceEvent;
use xbfs_engine::Direction;

pub mod timeseries;

/// Stable lowercase label for a direction, for metric keys and span names.
fn dir_label(d: Direction) -> &'static str {
    match d {
        Direction::TopDown => "td",
        Direction::BottomUp => "bu",
    }
}

/// Thread-track id a device label renders on in the chrome trace.
fn device_tid(device: &str) -> u64 {
    match device {
        "cpu" => 1,
        "gpu" => 2,
        "link" => 3,
        _ => 0,
    }
}

/// Track id for a fault-op label (faults render on the device they hit).
fn op_tid(op: &str) -> u64 {
    match op {
        "cpu-kernel" => 1,
        "gpu-kernel" => 2,
        "transfer" => 3,
        _ => 0,
    }
}

const ENGINE_TID: u64 = 4;

fn micros(s: f64) -> f64 {
    s * 1e6
}

/// Service-track state shared across [`render_events`] calls: open
/// query spans awaiting their `QueryEnd`, and whether any service event
/// appeared at all (the `service` track's metadata is emitted only when
/// used, keeping pre-service traces byte-identical).
#[derive(Default)]
struct ServiceTrack {
    /// Open `(query, span start on the service clock, wait_s)` entries.
    open: Vec<(u64, f64, f64)>,
    seen: bool,
}

/// Thread-track id service-level events render on.
const SERVICE_TID: u64 = 5;

/// Per-query processes in the service export start at this pid.
const QUERY_PID_BASE: u64 = 10;

/// A chrome record's phase: a span (`X`) with its duration in µs, a
/// thread-scoped instant (`i`), or a counter sample (`C`).
#[derive(Clone, Copy)]
enum Ph {
    Span(f64),
    Instant,
    Counter,
}

/// One value of a chrome record's `args` object.
#[derive(Clone, Copy)]
enum Arg<'a> {
    Str(&'a str),
    Fmt(fmt::Arguments<'a>),
    U64(u64),
    F64(f64),
    Bool(bool),
}

impl From<u32> for Arg<'_> {
    fn from(v: u32) -> Self {
        Arg::U64(v.into())
    }
}

impl From<u64> for Arg<'_> {
    fn from(v: u64) -> Self {
        Arg::U64(v)
    }
}

impl From<f64> for Arg<'_> {
    fn from(v: f64) -> Self {
        Arg::F64(v)
    }
}

impl From<bool> for Arg<'_> {
    fn from(v: bool) -> Self {
        Arg::Bool(v)
    }
}

impl<'a> From<&'a str> for Arg<'a> {
    fn from(v: &'a str) -> Self {
        Arg::Str(v)
    }
}

/// One chrome record. Every event renders to this shape: `name, cat, ph,
/// ts, [dur if ph = X], pid, tid, [s: "t" if ph = i], args`; the pid comes
/// from the process the event renders under.
struct Rec<'a> {
    name: fmt::Arguments<'a>,
    cat: &'static str,
    ph: Ph,
    /// Timestamp in µs, which is also the record's sort key.
    ts: f64,
    tid: u64,
    args: &'a [(&'static str, Arg<'a>)],
}

/// Records sit at this depth of `{"traceEvents": [...]}`, their fields one
/// deeper.
const RECORD_DEPTH: usize = 2;

/// `,` and the next field `key` of an object whose fields sit at `depth`.
fn next_field(out: &mut String, depth: usize, key: &str) {
    out.push(',');
    write_newline(out, depth);
    write_key(out, key, true);
}

/// Write `args` as a pretty-printed object whose closing brace sits at
/// `depth`.
fn write_args(out: &mut String, depth: usize, args: &[(&str, Arg<'_>)]) {
    out.push('{');
    for (i, (key, value)) in args.iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        write_newline(out, depth + 1);
        write_key(out, key, true);
        match *value {
            Arg::Str(s) => write_string(out, s),
            Arg::Fmt(f) => write_string_fmt(out, f),
            Arg::U64(v) => write_u64(out, v),
            Arg::F64(v) => write_f64(out, v),
            Arg::Bool(v) => out.push_str(if v { "true" } else { "false" }),
        }
    }
    if !args.is_empty() {
        write_newline(out, depth);
    }
    out.push('}');
}

/// Write one record under process `pid`, as `to_string_pretty` would at
/// [`RECORD_DEPTH`].
fn write_record(out: &mut String, pid: u64, rec: &Rec<'_>) {
    const D: usize = RECORD_DEPTH + 1;
    out.push('{');
    write_newline(out, D);
    write_key(out, "name", true);
    write_string_fmt(out, rec.name);
    next_field(out, D, "cat");
    write_string(out, rec.cat);
    next_field(out, D, "ph");
    write_string(
        out,
        match rec.ph {
            Ph::Span(_) => "X",
            Ph::Instant => "i",
            Ph::Counter => "C",
        },
    );
    next_field(out, D, "ts");
    write_f64(out, rec.ts);
    if let Ph::Span(dur) = rec.ph {
        next_field(out, D, "dur");
        write_f64(out, dur);
    }
    next_field(out, D, "pid");
    write_u64(out, pid);
    next_field(out, D, "tid");
    write_u64(out, rec.tid);
    if let Ph::Instant = rec.ph {
        next_field(out, D, "s");
        write_string(out, "t");
    }
    next_field(out, D, "args");
    write_args(out, D, rec.args);
    write_newline(out, RECORD_DEPTH);
    out.push('}');
}

/// A chrome trace document being assembled. Metadata records go straight
/// into `out`. Every other record is written to `text` as it is rendered,
/// with its `(ts, seq)` sort key and byte range in `keys`, and
/// [`finish`](Self::finish) appends them in timestamp order.
struct TraceDoc {
    out: String,
    text: String,
    keys: Vec<(f64, usize, Range<usize>)>,
}

impl TraceDoc {
    fn new() -> Self {
        let mut out = String::from("{");
        write_newline(&mut out, 1);
        write_key(&mut out, "traceEvents", true);
        out.push('[');
        Self {
            out,
            text: String::new(),
            keys: Vec::new(),
        }
    }

    /// Write record `seq` of process `pid` and keep its sort key.
    fn record(&mut self, seq: usize, pid: u64, rec: Rec<'_>) {
        let start = self.text.len();
        write_record(&mut self.text, pid, &rec);
        self.keys.push((rec.ts, seq, start..self.text.len()));
    }

    /// The separator in front of the next element of `traceEvents`.
    fn separate(out: &mut String) {
        if !out.ends_with('[') {
            out.push(',');
        }
        write_newline(out, RECORD_DEPTH);
    }

    /// A metadata record naming process `pid`, or its thread `tid`.
    fn meta(&mut self, pid: u64, tid: Option<u64>, name: fmt::Arguments<'_>) {
        const D: usize = RECORD_DEPTH + 1;
        let out = &mut self.out;
        Self::separate(out);
        out.push('{');
        write_newline(out, D);
        write_key(out, "name", true);
        write_string(
            out,
            if tid.is_some() {
                "thread_name"
            } else {
                "process_name"
            },
        );
        next_field(out, D, "ph");
        write_string(out, "M");
        next_field(out, D, "pid");
        write_u64(out, pid);
        if let Some(tid) = tid {
            next_field(out, D, "tid");
            write_u64(out, tid);
        }
        next_field(out, D, "args");
        write_args(out, D, &[("name", Arg::Fmt(name))]);
        write_newline(out, RECORD_DEPTH);
        out.push('}');
    }

    /// Name process `pid` and its five device tracks.
    fn device_tracks(&mut self, pid: u64, name: fmt::Arguments<'_>) {
        self.meta(pid, None, name);
        for (tid, track) in DEVICE_TRACKS {
            self.meta(pid, Some(tid), format_args!("{track}"));
        }
    }

    /// Append the records sorted by timestamp (stable on event order) and
    /// close the document.
    fn finish(self) -> String {
        let Self {
            mut out,
            text,
            mut keys,
        } = self;
        keys.sort_by(|a, b| {
            a.0.partial_cmp(&b.0)
                .unwrap_or(std::cmp::Ordering::Equal)
                .then(a.1.cmp(&b.1))
        });
        out.reserve(text.len() + keys.len() * (2 + RECORD_DEPTH * 2) + 64);
        for (_, _, range) in keys {
            Self::separate(&mut out);
            out.push_str(&text[range]);
        }
        write_newline(&mut out, 1);
        out.push_str("],");
        write_newline(&mut out, 1);
        write_key(&mut out, "displayTimeUnit", true);
        write_string(&mut out, "ms");
        write_newline(&mut out, 0);
        out.push('}');
        out
    }
}

/// Render `events` as chrome trace records under process `pid`, shifting
/// timestamps by `offset_s` (how per-query clocks are placed onto the
/// service clock). `seq0` seeds the tiebreak sequence; the next free
/// sequence number is returned.
fn render_events(
    events: &[TraceEvent],
    pid: u64,
    offset_s: f64,
    seq0: usize,
    svc: &mut ServiceTrack,
    doc: &mut TraceDoc,
) -> usize {
    // The pure engine has no simulated clock; lay its levels end to end.
    let mut engine_cursor_s = 0.0;
    // Rungs never nest, so one open slot pairs RungBegin with RungEnd.
    let mut open_rung: Option<(&'static str, f64)> = None;
    let at = |s: f64| micros(offset_s + s);

    for (seq, ev) in events.iter().enumerate() {
        let seq = seq0 + seq;
        let mut push = |rec: Rec<'_>| doc.record(seq, pid, rec);
        match ev {
            TraceEvent::RungBegin { rung, at_s } => {
                open_rung = Some((rung, *at_s));
            }
            TraceEvent::RungEnd {
                rung,
                at_s,
                outcome,
            } => {
                let start_s = match open_rung.take() {
                    Some((r, s)) if r == *rung => s,
                    _ => *at_s,
                };
                push(Rec {
                    name: format_args!("rung:{rung}"),
                    cat: "rung",
                    ph: Ph::Span(micros(at_s - start_s)),
                    ts: at(start_s),
                    tid: 0,
                    args: &[("outcome", outcome.name().into())],
                });
            }
            TraceEvent::RungSkipped { rung, device, at_s } => push(Rec {
                name: format_args!("rung-skipped:{rung}"),
                cat: "rung",
                ph: Ph::Instant,
                ts: at(*at_s),
                tid: 0,
                args: &[("device", (*device).into())],
            }),
            TraceEvent::Level {
                rung,
                device,
                level,
                direction,
                frontier_vertices,
                frontier_edges,
                edges_examined,
                discovered,
                start_s,
                end_s,
            } => push(Rec {
                name: format_args!("level {level} {}", dir_label(*direction)),
                cat: "level",
                ph: Ph::Span(micros(end_s - start_s)),
                ts: at(*start_s),
                tid: device_tid(device),
                args: &[
                    ("rung", (*rung).into()),
                    ("frontier_vertices", (*frontier_vertices).into()),
                    ("frontier_edges", (*frontier_edges).into()),
                    ("edges_examined", (*edges_examined).into()),
                    ("discovered", (*discovered).into()),
                ],
            }),
            TraceEvent::Kernel {
                device,
                op,
                level,
                attempt,
                start_s,
                end_s,
                ok,
            } => push(Rec {
                name: format_args!("{op}"),
                cat: "kernel",
                ph: Ph::Span(micros(end_s - start_s)),
                ts: at(*start_s),
                tid: device_tid(device),
                args: &[
                    ("level", (*level).into()),
                    ("attempt", (*attempt).into()),
                    ("ok", (*ok).into()),
                ],
            }),
            TraceEvent::Transfer {
                level,
                bytes,
                attempt,
                start_s,
                end_s,
                ok,
            } => push(Rec {
                name: format_args!("transfer"),
                cat: "transfer",
                ph: Ph::Span(micros(end_s - start_s)),
                ts: at(*start_s),
                tid: 3,
                args: &[
                    ("level", (*level).into()),
                    ("bytes", (*bytes).into()),
                    ("attempt", (*attempt).into()),
                    ("ok", (*ok).into()),
                ],
            }),
            TraceEvent::Backoff {
                op,
                level,
                retry,
                start_s,
                end_s,
            } => push(Rec {
                name: format_args!("backoff:{op}"),
                cat: "retry",
                ph: Ph::Span(micros(end_s - start_s)),
                ts: at(*start_s),
                tid: 0,
                args: &[("level", (*level).into()), ("retry", (*retry).into())],
            }),
            TraceEvent::Fault {
                op,
                kind,
                level,
                attempt,
                at_s,
            } => push(Rec {
                name: format_args!("fault:{kind}"),
                cat: "fault",
                ph: Ph::Instant,
                ts: at(*at_s),
                tid: op_tid(op),
                args: &[
                    ("op", (*op).into()),
                    ("level", (*level).into()),
                    ("attempt", (*attempt).into()),
                ],
            }),
            TraceEvent::Breaker {
                device,
                from,
                to,
                cause,
                at_s,
            } => push(Rec {
                name: format_args!("breaker:{from}->{to}"),
                cat: "breaker",
                ph: Ph::Instant,
                ts: at(*at_s),
                tid: device_tid(device),
                args: &[("cause", (*cause).into())],
            }),
            TraceEvent::Checkpoint {
                rung,
                level,
                bytes,
                spilled,
                start_s,
                end_s,
            } => push(Rec {
                name: format_args!("checkpoint"),
                cat: "checkpoint",
                ph: Ph::Span(micros(end_s - start_s)),
                ts: at(*start_s),
                tid: 0,
                args: &[
                    ("rung", (*rung).into()),
                    ("level", (*level).into()),
                    ("bytes", (*bytes).into()),
                    ("spilled", (*spilled).into()),
                ],
            }),
            TraceEvent::Resume {
                rung,
                from_level,
                translated,
                external,
                at_s,
            } => push(Rec {
                name: format_args!("resume"),
                cat: "checkpoint",
                ph: Ph::Instant,
                ts: at(*at_s),
                tid: 0,
                args: &[
                    ("rung", (*rung).into()),
                    ("from_level", (*from_level).into()),
                    ("translated", (*translated).into()),
                    ("external", (*external).into()),
                ],
            }),
            TraceEvent::KernelCost {
                device,
                level,
                direction,
                total_s,
                overhead_s,
                work_s,
                bound,
                at_s,
            } => push(Rec {
                name: format_args!("cost:{device}"),
                cat: "cost",
                ph: Ph::Counter,
                ts: at(*at_s),
                tid: device_tid(device),
                args: &[
                    ("overhead_us", micros(*overhead_s).into()),
                    ("work_us", micros(*work_s).into()),
                    ("total_us", micros(*total_s).into()),
                    ("level", (*level).into()),
                    ("direction", dir_label(*direction).into()),
                    ("bound", (*bound).into()),
                ],
            }),
            TraceEvent::EngineLevel {
                level,
                direction,
                frontier_vertices,
                frontier_edges,
                edges_examined,
                discovered,
                wall_s,
            } => {
                let start_s = engine_cursor_s;
                engine_cursor_s += *wall_s;
                push(Rec {
                    name: format_args!("level {level} {}", dir_label(*direction)),
                    cat: "engine-level",
                    ph: Ph::Span(micros(*wall_s)),
                    ts: at(start_s),
                    tid: ENGINE_TID,
                    args: &[
                        ("frontier_vertices", (*frontier_vertices).into()),
                        ("frontier_edges", (*frontier_edges).into()),
                        ("edges_examined", (*edges_examined).into()),
                        ("discovered", (*discovered).into()),
                    ],
                });
            }
            TraceEvent::QueryAdmitted {
                query,
                queue_depth,
                at_s,
            } => {
                svc.seen = true;
                push(Rec {
                    name: format_args!("admit:{query}"),
                    cat: "service",
                    ph: Ph::Instant,
                    ts: at(*at_s),
                    tid: SERVICE_TID,
                    args: &[("queue_depth", (*queue_depth).into())],
                });
            }
            TraceEvent::QueryStart {
                query,
                wait_s,
                at_s,
            } => {
                // The span renders at QueryEnd; remember its start here.
                svc.seen = true;
                svc.open.push((*query, offset_s + *at_s, *wait_s));
            }
            TraceEvent::QueryEnd {
                query,
                outcome,
                rung,
                at_s,
            } => {
                svc.seen = true;
                let end = offset_s + *at_s;
                let (start, wait_s) = match svc.open.iter().position(|(q, _, _)| q == query) {
                    Some(i) => {
                        let (_, s, w) = svc.open.remove(i);
                        (s, w)
                    }
                    None => (end, 0.0),
                };
                push(Rec {
                    name: format_args!("query {query}"),
                    cat: "service",
                    ph: Ph::Span(micros(end - start)),
                    ts: micros(start),
                    tid: SERVICE_TID,
                    args: &[
                        ("outcome", (*outcome).into()),
                        ("rung", (*rung).into()),
                        ("wait_s", wait_s.into()),
                    ],
                });
            }
            TraceEvent::QueryShed {
                query,
                reason,
                queue_depth,
                at_s,
            } => {
                svc.seen = true;
                push(Rec {
                    name: format_args!("shed:{query}"),
                    cat: "service",
                    ph: Ph::Instant,
                    ts: at(*at_s),
                    tid: SERVICE_TID,
                    args: &[
                        ("reason", (*reason).into()),
                        ("queue_depth", (*queue_depth).into()),
                    ],
                });
            }
            TraceEvent::QueueDepth { depth, at_s } => {
                svc.seen = true;
                push(Rec {
                    name: format_args!("queue-depth"),
                    cat: "service",
                    ph: Ph::Counter,
                    ts: at(*at_s),
                    tid: SERVICE_TID,
                    args: &[("depth", (*depth).into())],
                });
            }
            TraceEvent::CorruptionDetected {
                rung,
                detector,
                level,
                at_s,
            } => push(Rec {
                name: format_args!("corruption:{detector}"),
                cat: "corruption",
                ph: Ph::Instant,
                ts: at(*at_s),
                tid: 0,
                args: &[("rung", (*rung).into()), ("level", (*level).into())],
            }),
            TraceEvent::CorruptionRepair {
                rung,
                action,
                to_level,
                attempt,
                at_s,
            } => push(Rec {
                name: format_args!("repair:{action}"),
                cat: "corruption",
                ph: Ph::Instant,
                ts: at(*at_s),
                tid: 0,
                args: &[
                    ("rung", (*rung).into()),
                    ("to_level", (*to_level).into()),
                    ("attempt", (*attempt).into()),
                ],
            }),
            TraceEvent::BatchBegin {
                lanes,
                window,
                at_s,
            } => push(Rec {
                name: format_args!("batch:{lanes}-lanes"),
                cat: "batch",
                ph: Ph::Instant,
                ts: at(*at_s),
                tid: 0,
                args: &[("lanes", (*lanes).into()), ("window", (*window).into())],
            }),
            TraceEvent::BatchLane {
                lane,
                query,
                source,
                at_s,
            } => {
                svc.seen = true;
                push(Rec {
                    name: format_args!("lane:{lane}"),
                    cat: "batch",
                    ph: Ph::Instant,
                    ts: at(*at_s),
                    tid: SERVICE_TID,
                    args: &[
                        ("lane", (*lane).into()),
                        ("query", (*query).into()),
                        ("source", (*source).into()),
                    ],
                });
            }
            TraceEvent::BatchLevel {
                device,
                level,
                direction,
                lanes,
                frontier_vertices,
                edges_examined,
                seconds,
                at_s,
            } => push(Rec {
                name: format_args!("batch round {level} {}", dir_label(*direction)),
                cat: "batch",
                ph: Ph::Span(micros(*seconds)),
                ts: at(*at_s),
                tid: device_tid(device),
                args: &[
                    ("lanes", (*lanes).into()),
                    ("frontier_vertices", (*frontier_vertices).into()),
                    ("edges_examined", (*edges_examined).into()),
                ],
            }),
            TraceEvent::BatchEnd {
                lanes,
                levels,
                at_s,
            } => push(Rec {
                name: format_args!("batch-end"),
                cat: "batch",
                ph: Ph::Instant,
                ts: at(*at_s),
                tid: 0,
                args: &[("lanes", (*lanes).into()), ("levels", (*levels).into())],
            }),
            TraceEvent::PolicyDecision {
                level,
                bin,
                device,
                direction,
                explore,
                at_s,
            } => push(Rec {
                name: format_args!("policy L{level} {}", dir_label(*direction)),
                cat: "policy",
                ph: Ph::Instant,
                ts: at(*at_s),
                tid: device_tid(device),
                args: &[
                    ("level", (*level).into()),
                    ("bin", (*bin).into()),
                    ("explore", (*explore).into()),
                ],
            }),
        }
    }
    seq0 + events.len()
}

const DEVICE_TRACKS: [(u64, &str); 5] = [
    (0, "ladder"),
    (1, "cpu"),
    (2, "gpu"),
    (3, "link"),
    (ENGINE_TID, "engine"),
];

/// Render `events` as a Chrome Trace Event JSON document.
///
/// The output is a single JSON object `{"traceEvents": [...],
/// "displayTimeUnit": "ms"}`. Metadata records name the process and the
/// five tracks (plus a sixth, `service`, only when service-level events
/// appear); every other record is sorted by timestamp (stable on the
/// original event order), so timestamps are monotone — a property the
/// golden test pins. Load the result in `chrome://tracing` or Perfetto.
pub fn chrome_trace_json(events: &[TraceEvent]) -> String {
    let mut doc = TraceDoc::new();
    let mut svc = ServiceTrack::default();
    render_events(events, 1, 0.0, 0, &mut svc, &mut doc);
    doc.device_tracks(1, format_args!("xbfs"));
    if svc.seen {
        doc.meta(1, Some(SERVICE_TID), format_args!("service"));
    }
    doc.finish()
}

/// Render a whole service run — admission events plus every buffered
/// per-query trace — as one Chrome Trace Event JSON document.
///
/// The service itself is process 1 (`xbfs-service`, one `service` track
/// with query spans, shed/admit instants, and the queue-depth counter).
/// Each query renders as its own process (`query-<id>`) with the usual
/// five device tracks, its private clock shifted onto the service clock
/// by its start time — so Perfetto shows the queries genuinely
/// overlapping in service time.
pub fn service_chrome_trace_json(service_events: &[TraceEvent], queries: &[QueryTrace]) -> String {
    let mut doc = TraceDoc::new();
    let mut svc = ServiceTrack::default();
    let mut seq = render_events(service_events, 1, 0.0, 0, &mut svc, &mut doc);
    doc.meta(1, None, format_args!("xbfs-service"));
    doc.meta(1, Some(SERVICE_TID), format_args!("service"));
    for qt in queries {
        let pid = QUERY_PID_BASE + qt.query;
        doc.device_tracks(pid, format_args!("query-{}", qt.query));
        seq = render_events(&qt.events, pid, qt.start_s, seq, &mut svc, &mut doc);
    }
    doc.finish()
}

/// A family of counters with a shared name, keyed by a rendered label set.
#[derive(Debug, Default)]
struct Counter {
    series: BTreeMap<String, f64>,
    /// The label set of the last lookup, rendered: only a new series
    /// allocates a key of its own.
    key: String,
}

impl Counter {
    fn add(&mut self, labels: &[(&str, &str)], v: f64) {
        write_labels(&mut self.key, labels);
        match self.series.get_mut(self.key.as_str()) {
            Some(sum) => *sum += v,
            None => {
                self.series.insert(self.key.clone(), v);
            }
        }
    }

    /// The series at `labels` (0 when it never counted), as a count. A
    /// report reads a few series once, not one per event, so this renders
    /// into a buffer of its own and leaves the registry shared.
    fn get(&self, labels: &[(&str, &str)]) -> u32 {
        self.series
            .get(&render_labels(labels))
            .map_or(0, |v| *v as u32)
    }

    /// The sum over every series, as a count.
    fn total(&self) -> u32 {
        self.series.values().sum::<f64>() as u32
    }
}

/// Render `labels` into `out` in place of what it held: `{k="v",…}`, or
/// nothing for an empty set. Label values are escaped per the Prometheus
/// text exposition format: backslash, double quote, and line feed must be
/// escaped; everything else passes through.
fn write_labels(out: &mut String, labels: &[(&str, &str)]) {
    out.clear();
    for (i, (k, v)) in labels.iter().enumerate() {
        out.push(if i == 0 { '{' } else { ',' });
        out.push_str(k);
        out.push_str("=\"");
        let mut start = 0;
        for (at, b) in v.bytes().enumerate() {
            let escaped = match b {
                b'\\' => "\\\\",
                b'"' => "\\\"",
                b'\n' => "\\n",
                _ => continue,
            };
            out.push_str(&v[start..at]);
            out.push_str(escaped);
            start = at + 1;
        }
        out.push_str(&v[start..]);
        out.push('"');
    }
    if !labels.is_empty() {
        out.push('}');
    }
}

pub(crate) fn render_labels(labels: &[(&str, &str)]) -> String {
    let mut out = String::new();
    write_labels(&mut out, labels);
    out
}

/// Prometheus prints integers bare and everything else in the shortest
/// round-trip form `{}` already produces for `f64`.
fn render_value(v: f64) -> String {
    if v.fract() == 0.0 && v.abs() < 1e15 {
        format!("{}", v as i64)
    } else {
        format!("{v}")
    }
}

fn write_counter(out: &mut String, name: &str, help: &str, c: &Counter) {
    if c.series.is_empty() {
        return;
    }
    out.push_str(&format!("# HELP {name} {help}\n# TYPE {name} counter\n"));
    for (labels, v) in &c.series {
        out.push_str(&format!("{name}{labels} {}\n", render_value(*v)));
    }
}

/// Histogram bucket upper bounds of the exposition's histogram families
/// (simulated level durations, service latency), seconds.
const LEVEL_BUCKETS_S: [f64; 6] = [1e-5, 1e-4, 1e-3, 1e-2, 1e-1, 1.0];

/// Observations over fixed, ascending bucket upper bounds: a count per
/// bucket (values past the last bound land in none), their sum, count and
/// maximum, and a deterministic quantile readout.
///
/// Each family picks its bounds: the exposition's histograms use six
/// decade buckets, the telemetry windows the 25 log-spaced
/// [`LATENCY_BUCKETS_S`](timeseries::LATENCY_BUCKETS_S).
#[derive(Clone, Debug)]
pub struct Histogram {
    bounds: &'static [f64],
    counts: Vec<u64>,
    count: u64,
    sum: f64,
    max: f64,
}

impl Histogram {
    /// An empty histogram over `bounds`.
    pub fn new(bounds: &'static [f64]) -> Self {
        Self {
            bounds,
            counts: vec![0; bounds.len()],
            count: 0,
            sum: 0.0,
            max: 0.0,
        }
    }

    /// Record one observation in the first bucket whose bound holds it.
    pub fn observe(&mut self, v: f64) {
        if let Some(i) = self.bounds.iter().position(|le| v <= *le) {
            self.counts[i] += 1;
        }
        self.count += 1;
        self.sum += v;
        self.max = self.max.max(v);
    }

    /// Observations recorded.
    pub fn count(&self) -> u64 {
        self.count
    }

    /// The q-quantile (q in `[0, 1]`), defined deterministically as the
    /// upper bound of the bucket holding the `ceil(q·count)`-th smallest
    /// observation — or the maximum observed value when that rank lands
    /// past the last bucket. An empty histogram has no quantiles and
    /// returns `None`: reporting a bucket bound (or 0) for a window that
    /// observed nothing would fabricate a latency where none was measured.
    pub fn quantile(&self, q: f64) -> Option<f64> {
        if self.count == 0 {
            return None;
        }
        let rank = ((q * self.count as f64).ceil() as u64).clamp(1, self.count);
        let mut cum = 0u64;
        for (le, c) in self.bounds.iter().zip(&self.counts) {
            cum += c;
            if cum >= rank {
                return Some(*le);
            }
        }
        Some(self.max)
    }

    /// The standard p50/p95/p99 readout.
    pub fn summary(&self) -> QuantileSummary {
        QuantileSummary {
            count: self.count,
            sum_s: self.sum,
            p50_s: self.quantile(0.50),
            p95_s: self.quantile(0.95),
            p99_s: self.quantile(0.99),
        }
    }
}

/// A family of histograms with a shared name, keyed by a rendered label
/// set; every series has the [`LEVEL_BUCKETS_S`] bounds.
#[derive(Debug, Default)]
struct Histograms {
    series: BTreeMap<String, Histogram>,
    /// The label set of the last lookup, rendered, as in [`Counter`].
    key: String,
}

impl Histograms {
    fn observe(&mut self, labels: &[(&str, &str)], v: f64) {
        write_labels(&mut self.key, labels);
        match self.series.get_mut(self.key.as_str()) {
            Some(series) => series.observe(v),
            None => {
                let mut series = Histogram::new(&LEVEL_BUCKETS_S);
                series.observe(v);
                self.series.insert(self.key.clone(), series);
            }
        }
    }
}

fn write_histogram(out: &mut String, name: &str, help: &str, h: &Histograms) {
    if h.series.is_empty() {
        return;
    }
    out.push_str(&format!("# HELP {name} {help}\n# TYPE {name} histogram\n"));
    for (labels, series) in &h.series {
        // Splice the `le` label into the rendered set.
        let open = |le: &str| {
            if labels.is_empty() {
                format!("{{le=\"{le}\"}}")
            } else {
                format!("{},le=\"{le}\"}}", &labels[..labels.len() - 1])
            }
        };
        let mut cum = 0u64;
        for (le, c) in series.bounds.iter().zip(&series.counts) {
            cum += c;
            out.push_str(&format!("{name}_bucket{} {cum}\n", open(&format!("{le}"))));
        }
        let count = series.count;
        out.push_str(&format!("{name}_bucket{} {count}\n", open("+Inf")));
        out.push_str(&format!(
            "{name}_sum{labels} {}\n",
            render_value(series.sum)
        ));
        out.push_str(&format!("{name}_count{labels} {count}\n"));
    }
}

/// The metric registry: every counter, gauge and histogram family,
/// accumulated by folding events into it, plus the service's telemetry
/// windows when a [`SnapshotPolicy`] is on.
///
/// It is the query service's one account. Each service event is folded
/// in as it is pushed, each dispatch's trace buffer at the dispatch's
/// completion, and a direct call records the occupied slots. The
/// service's report reads its counters, peaks, means, windows and SLO
/// verdict from here when the run ends, and the exposition counts every
/// query whichever traces were kept. [`prometheus_text`] is a registry
/// without windows folded over one slice.
///
/// The six service events (`QueryAdmitted`, `QueryShed`, `QueueDepth`,
/// `QueryStart`, `BatchLane`, `QueryEnd`) advance the window clock to
/// their `at_s` before they count. Trace events never move it: their
/// `at_s` is on a query's private clock, so their corruption counts land
/// in the window the clock is in when the trace is folded.
#[derive(Debug, Default)]
pub struct Metrics {
    levels: Counter,
    level_edges: Counter,
    level_seconds: Histograms,
    kernel_attempts: Counter,
    transfer_attempts: Counter,
    transfer_bytes: Counter,
    faults: Counter,
    backoff_seconds: Counter,
    breaker_transitions: Counter,
    checkpoints: Counter,
    checkpoint_bytes: Counter,
    resumes: Counter,
    rungs: Counter,
    rungs_skipped: Counter,
    engine_levels: Counter,
    engine_seconds: Counter,
    service_admitted: Counter,
    service_shed: Counter,
    service_queries: Counter,
    service_wait_seconds: Counter,
    service_latency: Histograms,
    /// The admission queue's depth over time (`None` until a
    /// `QueueDepth` event is folded).
    queue: Option<TimeWeighted>,
    /// Occupied slots over time, as `Metrics::in_flight` records them.
    in_flight: TimeWeighted,
    /// Admission instants of queries not yet ended or shed.
    admitted_at: BTreeMap<u64, f64>,
    windows: Option<Windows>,
    corruption_detected: Counter,
    corruption_repairs: Counter,
    batch_dispatches: Counter,
    batch_lanes: Counter,
    batch_lane_queries: Counter,
    batch_levels: Counter,
    batch_level_seconds: Counter,
    policy_decisions: Counter,
    policy_explorations: Counter,
}

impl Metrics {
    /// A registry that also closes a telemetry window every
    /// `snapshot.every_seconds` of simulated time and evaluates `slo` over
    /// them. A disabled policy keeps no windows, and an SLO needs them.
    pub(crate) fn windowed(snapshot: SnapshotPolicy, slo: Option<SloPolicy>) -> Self {
        Self {
            windows: snapshot
                .enabled()
                .then(|| Windows::new(snapshot.every_seconds, slo)),
            ..Self::default()
        }
    }

    /// The open window, its clock first advanced to `t`.
    fn window_at(&mut self, t: f64) -> Option<&mut Windows> {
        let w = self.windows.as_mut()?;
        w.advance(t);
        Some(w)
    }

    /// Record that `n` slots are occupied from `t` on.
    pub(crate) fn in_flight(&mut self, t: f64, n: u32) {
        let v = f64::from(n);
        self.in_flight.set(t, v);
        if let Some(w) = self.window_at(t) {
            w.in_flight.set(t, v);
        }
    }

    /// Close the final partial window at `end_s` and hand over the closed
    /// windows with the SLO verdict over them. A second call finds none.
    pub(crate) fn finish(&mut self, end_s: f64) -> (Vec<WindowSnapshot>, Option<SloReport>) {
        self.windows
            .take()
            .map_or((Vec::new(), None), |w| w.finish(end_s))
    }

    /// Queries admitted.
    pub(crate) fn admitted(&self) -> u32 {
        self.service_admitted.total()
    }

    /// Started queries that ended with `outcome` ("served", "degraded",
    /// "deadline-missed" or "failed").
    pub(crate) fn queries(&self, outcome: &str) -> u32 {
        self.service_queries.get(&[("outcome", outcome)])
    }

    /// Queries shed for `reason` ("overloaded", "deadline" or "shutdown").
    pub(crate) fn shed(&self, reason: &str) -> u32 {
        self.service_shed.get(&[("reason", reason)])
    }

    /// Corruption detections and repairs across every folded trace.
    pub fn corruption(&self) -> (u32, u32) {
        (
            self.corruption_detected.total(),
            self.corruption_repairs.total(),
        )
    }

    /// The admission queue's depth gauge.
    pub(crate) fn queue_gauge(&self) -> TimeWeighted {
        self.queue.unwrap_or_default()
    }

    /// The occupied-slot gauge.
    pub(crate) fn in_flight_gauge(&self) -> TimeWeighted {
        self.in_flight
    }

    /// Fold `events` into the registry, in order. A `QueryEnd` feeds the
    /// latency histograms only when its query's `QueryAdmitted` was folded
    /// before it, by this call or an earlier one; the admission instant is
    /// dropped at the query's `QueryEnd` or `QueryShed`.
    pub fn fold(&mut self, events: &[TraceEvent]) {
        for ev in events {
            match ev {
                TraceEvent::RungBegin { .. } => {}
                TraceEvent::RungEnd { rung, outcome, .. } => {
                    self.rungs
                        .add(&[("rung", rung), ("outcome", outcome.name())], 1.0);
                }
                TraceEvent::RungSkipped { rung, device, .. } => {
                    self.rungs_skipped
                        .add(&[("rung", rung), ("device", device)], 1.0);
                }
                TraceEvent::Level {
                    rung,
                    device,
                    direction,
                    edges_examined,
                    start_s,
                    end_s,
                    ..
                } => {
                    let key = [
                        ("device", *device),
                        ("rung", *rung),
                        ("direction", dir_label(*direction)),
                    ];
                    self.levels.add(&key, 1.0);
                    self.level_edges.add(&key, *edges_examined as f64);
                    self.level_seconds
                        .observe(&[("device", *device)], end_s - start_s);
                }
                TraceEvent::Kernel { device, ok, .. } => {
                    self.kernel_attempts.add(
                        &[
                            ("device", device),
                            ("ok", if *ok { "true" } else { "false" }),
                        ],
                        1.0,
                    );
                }
                TraceEvent::Transfer { bytes, ok, .. } => {
                    let ok_label = if *ok { "true" } else { "false" };
                    self.transfer_attempts.add(&[("ok", ok_label)], 1.0);
                    self.transfer_bytes.add(&[("ok", ok_label)], *bytes as f64);
                }
                TraceEvent::Backoff {
                    op, start_s, end_s, ..
                } => {
                    self.backoff_seconds.add(&[("op", op)], end_s - start_s);
                }
                TraceEvent::Fault { op, kind, .. } => {
                    self.faults.add(&[("op", op), ("kind", kind)], 1.0);
                }
                TraceEvent::Breaker { device, to, .. } => {
                    self.breaker_transitions
                        .add(&[("device", device), ("to", to)], 1.0);
                }
                TraceEvent::Checkpoint {
                    rung,
                    bytes,
                    spilled,
                    ..
                } => {
                    let key = [
                        ("rung", *rung),
                        ("spilled", if *spilled { "true" } else { "false" }),
                    ];
                    self.checkpoints.add(&key, 1.0);
                    self.checkpoint_bytes.add(&key, *bytes as f64);
                }
                TraceEvent::Resume { rung, .. } => {
                    self.resumes.add(&[("rung", rung)], 1.0);
                }
                TraceEvent::KernelCost { .. } => {}
                TraceEvent::EngineLevel {
                    direction, wall_s, ..
                } => {
                    let key = [("direction", dir_label(*direction))];
                    self.engine_levels.add(&key, 1.0);
                    self.engine_seconds.add(&key, *wall_s);
                }
                TraceEvent::QueryAdmitted { query, at_s, .. } => {
                    self.service_admitted.add(&[], 1.0);
                    self.admitted_at.insert(*query, *at_s);
                    if let Some(w) = self.window_at(*at_s) {
                        w.open.admitted += 1;
                    }
                }
                TraceEvent::QueryStart { wait_s, at_s, .. } => {
                    self.service_wait_seconds.add(&[], *wait_s);
                    if let Some(w) = self.window_at(*at_s) {
                        w.queue_wait.observe(*wait_s);
                    }
                }
                TraceEvent::QueryEnd {
                    query,
                    outcome,
                    at_s,
                    ..
                } => {
                    self.service_queries.add(&[("outcome", outcome)], 1.0);
                    let latency_s = self.admitted_at.remove(query).map(|admit_s| at_s - admit_s);
                    if let Some(latency_s) = latency_s {
                        self.service_latency
                            .observe(&[("outcome", outcome)], latency_s);
                    }
                    if let Some(w) = self.window_at(*at_s) {
                        w.open.completed += 1;
                        w.open.deadline_missed += u64::from(*outcome == "deadline-missed");
                        if let Some(latency_s) = latency_s {
                            w.latency.observe(latency_s);
                            w.open.latency_slo_missed +=
                                u64::from(w.slo.is_some_and(|p| latency_s > p.latency_objective_s));
                        }
                    }
                }
                TraceEvent::QueryShed {
                    query,
                    reason,
                    at_s,
                    ..
                } => {
                    self.service_shed.add(&[("reason", reason)], 1.0);
                    self.admitted_at.remove(query);
                    if let Some(w) = self.window_at(*at_s) {
                        w.open.shed += 1;
                        if *reason == "deadline" {
                            w.open.deadline_missed += 1;
                            w.open.deadline_shed += 1;
                        }
                    }
                }
                TraceEvent::QueueDepth { depth, at_s } => {
                    let v = f64::from(*depth);
                    self.queue.get_or_insert_default().set(*at_s, v);
                    if let Some(w) = self.window_at(*at_s) {
                        w.queue.set(*at_s, v);
                    }
                }
                TraceEvent::CorruptionDetected { rung, detector, .. } => {
                    self.corruption_detected
                        .add(&[("detector", detector), ("rung", rung)], 1.0);
                    if let Some(w) = &mut self.windows {
                        w.open.corruption_detected += 1;
                    }
                }
                TraceEvent::CorruptionRepair { rung, action, .. } => {
                    self.corruption_repairs
                        .add(&[("action", action), ("rung", rung)], 1.0);
                    if let Some(w) = &mut self.windows {
                        w.open.corruption_repaired += 1;
                    }
                }
                TraceEvent::BatchBegin { lanes, .. } => {
                    self.batch_dispatches.add(&[], 1.0);
                    self.batch_lanes.add(&[], f64::from(*lanes));
                }
                TraceEvent::BatchLane { lane, at_s, .. } => {
                    self.batch_lane_queries.add(&[], 1.0);
                    if let Some(w) = self.window_at(*at_s) {
                        w.open.batch_lanes += 1;
                        w.open.batch_dispatches += u64::from(*lane == 0);
                    }
                }
                TraceEvent::BatchLevel {
                    device,
                    direction,
                    seconds,
                    ..
                } => {
                    let key = [("device", *device), ("direction", dir_label(*direction))];
                    self.batch_levels.add(&key, 1.0);
                    self.batch_level_seconds.add(&key, *seconds);
                }
                TraceEvent::BatchEnd { .. } => {}
                TraceEvent::PolicyDecision {
                    device,
                    direction,
                    explore,
                    ..
                } => {
                    let key = [("device", *device), ("direction", dir_label(*direction))];
                    self.policy_decisions.add(&key, 1.0);
                    if *explore {
                        self.policy_explorations.add(&key, 1.0);
                    }
                }
            }
        }
    }

    /// Render the registry in the Prometheus text exposition format.
    ///
    /// Counters are keyed by device, rung, direction, outcome, or fault
    /// kind as appropriate; simulated level durations additionally feed a
    /// per-device histogram. Output order is deterministic (`BTreeMap`
    /// label ordering), so the text is diff-stable across runs of the same
    /// events. Families with no samples are left out.
    pub fn render(&self) -> String {
        let mut out = String::new();
        write_counter(
            &mut out,
            "xbfs_levels_total",
            "BFS levels executed under the simulated cost model.",
            &self.levels,
        );
        write_counter(
            &mut out,
            "xbfs_level_edges_examined_total",
            "Edges examined by simulated levels.",
            &self.level_edges,
        );
        write_histogram(
            &mut out,
            "xbfs_level_seconds",
            "Simulated duration of BFS levels, per device.",
            &self.level_seconds,
        );
        write_counter(
            &mut out,
            "xbfs_kernel_attempts_total",
            "Kernel attempts on the fault/retry path.",
            &self.kernel_attempts,
        );
        write_counter(
            &mut out,
            "xbfs_transfer_attempts_total",
            "Host-device transfer attempts across the link.",
            &self.transfer_attempts,
        );
        write_counter(
            &mut out,
            "xbfs_transfer_bytes_total",
            "Bytes moved (nominal payload) by transfer attempts.",
            &self.transfer_bytes,
        );
        write_counter(
            &mut out,
            "xbfs_faults_total",
            "Injected faults observed.",
            &self.faults,
        );
        write_counter(
            &mut out,
            "xbfs_backoff_seconds_total",
            "Simulated seconds spent in retry backoff.",
            &self.backoff_seconds,
        );
        write_counter(
            &mut out,
            "xbfs_breaker_transitions_total",
            "Circuit-breaker state transitions.",
            &self.breaker_transitions,
        );
        write_counter(
            &mut out,
            "xbfs_checkpoints_total",
            "Level-boundary checkpoints captured.",
            &self.checkpoints,
        );
        write_counter(
            &mut out,
            "xbfs_checkpoint_bytes_total",
            "Serialized bytes across captured checkpoints.",
            &self.checkpoint_bytes,
        );
        write_counter(
            &mut out,
            "xbfs_resumes_total",
            "Rungs that started from a checkpoint.",
            &self.resumes,
        );
        write_counter(
            &mut out,
            "xbfs_rungs_total",
            "Recovery-ladder rungs finished, by outcome.",
            &self.rungs,
        );
        write_counter(
            &mut out,
            "xbfs_rungs_skipped_total",
            "Rungs skipped by an open circuit breaker.",
            &self.rungs_skipped,
        );
        write_counter(
            &mut out,
            "xbfs_engine_levels_total",
            "Levels executed by the pure engine (wall-clock timed).",
            &self.engine_levels,
        );
        write_counter(
            &mut out,
            "xbfs_engine_level_seconds_total",
            "Wall-clock seconds across pure-engine levels.",
            &self.engine_seconds,
        );
        write_counter(
            &mut out,
            "xbfs_service_admitted_total",
            "Queries admitted by the service (started or queued).",
            &self.service_admitted,
        );
        write_counter(
            &mut out,
            "xbfs_service_shed_total",
            "Queries shed by admission control, by reason.",
            &self.service_shed,
        );
        write_counter(
            &mut out,
            "xbfs_service_queries_total",
            "Queries reaching a terminal state, by outcome.",
            &self.service_queries,
        );
        write_counter(
            &mut out,
            "xbfs_service_wait_seconds_total",
            "Simulated seconds queries spent queued before starting.",
            &self.service_wait_seconds,
        );
        write_histogram(
            &mut out,
            "xbfs_service_latency_seconds",
            "Admission-to-completion latency of terminal queries, by outcome.",
            &self.service_latency,
        );
        if let Some(queue) = &self.queue {
            write_gauge(
                &mut out,
                "xbfs_service_queue_depth_peak",
                "Deepest the admission queue got over the trace.",
                &[(String::new(), queue.peak())],
            );
        }
        write_counter(
            &mut out,
            "xbfs_corruption_detected_total",
            "Silent-data-corruption detections, by detector.",
            &self.corruption_detected,
        );
        write_counter(
            &mut out,
            "xbfs_corruption_repairs_total",
            "Corruption repairs the recovery ladder performed, by action.",
            &self.corruption_repairs,
        );
        write_counter(
            &mut out,
            "xbfs_batch_dispatches_total",
            "Lane-packed batch traversals dispatched.",
            &self.batch_dispatches,
        );
        write_counter(
            &mut out,
            "xbfs_batch_lanes_total",
            "Lanes (sources) carried across all batch dispatches.",
            &self.batch_lanes,
        );
        write_counter(
            &mut out,
            "xbfs_batch_lane_queries_total",
            "Service queries that rode a batch lane.",
            &self.batch_lane_queries,
        );
        write_counter(
            &mut out,
            "xbfs_batch_levels_total",
            "Lockstep batch rounds executed, by device and direction.",
            &self.batch_levels,
        );
        write_counter(
            &mut out,
            "xbfs_batch_level_seconds_total",
            "Simulated seconds charged to lockstep batch rounds.",
            &self.batch_level_seconds,
        );
        write_counter(
            &mut out,
            "xbfs_policy_decisions_total",
            "Online-policy per-level placement decisions, by device and direction.",
            &self.policy_decisions,
        );
        write_counter(
            &mut out,
            "xbfs_policy_explorations_total",
            "Online-policy decisions still exploring unplayed arms.",
            &self.policy_explorations,
        );
        out
    }
}

/// Render `events` in the Prometheus text exposition format: a fresh
/// [`Metrics`] registry folded over the slice.
pub fn prometheus_text(events: &[TraceEvent]) -> String {
    let mut metrics = Metrics::default();
    metrics.fold(events);
    metrics.render()
}

/// Render one [`TraceEvent`] as a self-describing JSON object (an
/// `"event"` discriminant plus the variant's fields, verbatim).
///
/// This is the flight-recorder post-mortem format: when a query fails,
/// the service dumps the last N events of its trace buffer through this
/// function so the artifact is greppable without the chrome-trace
/// machinery. Field names match the [`TraceEvent`] declaration, so the
/// dump doubles as documentation of what the recorder saw.
pub fn trace_event_json(ev: &TraceEvent) -> Value {
    match ev {
        TraceEvent::RungBegin { rung, at_s } => {
            json!({"event": "rung-begin", "rung": rung, "at_s": at_s})
        }
        TraceEvent::RungEnd {
            rung,
            at_s,
            outcome,
        } => {
            json!({"event": "rung-end", "rung": rung, "at_s": at_s, "outcome": outcome.name()})
        }
        TraceEvent::RungSkipped { rung, device, at_s } => {
            json!({"event": "rung-skipped", "rung": rung, "device": device, "at_s": at_s})
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
            start_s,
            end_s,
        } => json!({
            "event": "level", "rung": rung, "device": device, "level": level,
            "direction": dir_label(*direction), "frontier_vertices": frontier_vertices,
            "frontier_edges": frontier_edges, "edges_examined": edges_examined,
            "discovered": discovered, "start_s": start_s, "end_s": end_s,
        }),
        TraceEvent::Kernel {
            device,
            op,
            level,
            attempt,
            start_s,
            end_s,
            ok,
        } => json!({
            "event": "kernel", "device": device, "op": op, "level": level,
            "attempt": attempt, "start_s": start_s, "end_s": end_s, "ok": ok,
        }),
        TraceEvent::Transfer {
            level,
            bytes,
            attempt,
            start_s,
            end_s,
            ok,
        } => json!({
            "event": "transfer", "level": level, "bytes": bytes, "attempt": attempt,
            "start_s": start_s, "end_s": end_s, "ok": ok,
        }),
        TraceEvent::Backoff {
            op,
            level,
            retry,
            start_s,
            end_s,
        } => json!({
            "event": "backoff", "op": op, "level": level, "retry": retry,
            "start_s": start_s, "end_s": end_s,
        }),
        TraceEvent::Fault {
            op,
            kind,
            level,
            attempt,
            at_s,
        } => json!({
            "event": "fault", "op": op, "kind": kind, "level": level,
            "attempt": attempt, "at_s": at_s,
        }),
        TraceEvent::Breaker {
            device,
            from,
            to,
            cause,
            at_s,
        } => json!({
            "event": "breaker", "device": device, "from": from, "to": to,
            "cause": cause, "at_s": at_s,
        }),
        TraceEvent::Checkpoint {
            rung,
            level,
            bytes,
            spilled,
            start_s,
            end_s,
        } => json!({
            "event": "checkpoint", "rung": rung, "level": level, "bytes": bytes,
            "spilled": spilled, "start_s": start_s, "end_s": end_s,
        }),
        TraceEvent::Resume {
            rung,
            from_level,
            translated,
            external,
            at_s,
        } => json!({
            "event": "resume", "rung": rung, "from_level": from_level,
            "translated": translated, "external": external, "at_s": at_s,
        }),
        TraceEvent::KernelCost {
            device,
            level,
            direction,
            total_s,
            overhead_s,
            work_s,
            bound,
            at_s,
        } => json!({
            "event": "kernel-cost", "device": device, "level": level,
            "direction": dir_label(*direction), "total_s": total_s,
            "overhead_s": overhead_s, "work_s": work_s, "bound": bound, "at_s": at_s,
        }),
        TraceEvent::EngineLevel {
            level,
            direction,
            frontier_vertices,
            frontier_edges,
            edges_examined,
            discovered,
            wall_s,
        } => json!({
            "event": "engine-level", "level": level, "direction": dir_label(*direction),
            "frontier_vertices": frontier_vertices, "frontier_edges": frontier_edges,
            "edges_examined": edges_examined, "discovered": discovered, "wall_s": wall_s,
        }),
        TraceEvent::QueryAdmitted {
            query,
            queue_depth,
            at_s,
        } => json!({
            "event": "query-admitted", "query": query, "queue_depth": queue_depth,
            "at_s": at_s,
        }),
        TraceEvent::QueryStart {
            query,
            wait_s,
            at_s,
        } => {
            json!({"event": "query-start", "query": query, "wait_s": wait_s, "at_s": at_s})
        }
        TraceEvent::QueryEnd {
            query,
            outcome,
            rung,
            at_s,
        } => json!({
            "event": "query-end", "query": query, "outcome": outcome, "rung": rung,
            "at_s": at_s,
        }),
        TraceEvent::QueryShed {
            query,
            reason,
            queue_depth,
            at_s,
        } => json!({
            "event": "query-shed", "query": query, "reason": reason,
            "queue_depth": queue_depth, "at_s": at_s,
        }),
        TraceEvent::QueueDepth { depth, at_s } => {
            json!({"event": "queue-depth", "depth": depth, "at_s": at_s})
        }
        TraceEvent::CorruptionDetected {
            rung,
            detector,
            level,
            at_s,
        } => json!({
            "event": "corruption-detected", "rung": rung, "detector": detector,
            "level": level, "at_s": at_s,
        }),
        TraceEvent::CorruptionRepair {
            rung,
            action,
            to_level,
            attempt,
            at_s,
        } => json!({
            "event": "corruption-repair", "rung": rung, "action": action,
            "to_level": to_level, "attempt": attempt, "at_s": at_s,
        }),
        TraceEvent::BatchBegin {
            lanes,
            window,
            at_s,
        } => {
            json!({"event": "batch-begin", "lanes": lanes, "window": window, "at_s": at_s})
        }
        TraceEvent::BatchLane {
            lane,
            query,
            source,
            at_s,
        } => json!({
            "event": "batch-lane", "lane": lane, "query": query, "source": source,
            "at_s": at_s,
        }),
        TraceEvent::BatchLevel {
            device,
            level,
            direction,
            lanes,
            frontier_vertices,
            edges_examined,
            seconds,
            at_s,
        } => json!({
            "event": "batch-level", "device": device, "level": level,
            "direction": dir_label(*direction), "lanes": lanes,
            "frontier_vertices": frontier_vertices, "edges_examined": edges_examined,
            "seconds": seconds, "at_s": at_s,
        }),
        TraceEvent::BatchEnd {
            lanes,
            levels,
            at_s,
        } => {
            json!({"event": "batch-end", "lanes": lanes, "levels": levels, "at_s": at_s})
        }
        TraceEvent::PolicyDecision {
            level,
            bin,
            device,
            direction,
            explore,
            at_s,
        } => json!({
            "event": "policy-decision", "level": level, "bin": bin, "device": device,
            "direction": dir_label(*direction), "explore": explore, "at_s": at_s,
        }),
    }
}

pub(crate) fn write_gauge(out: &mut String, name: &str, help: &str, series: &[(String, f64)]) {
    if series.is_empty() {
        return;
    }
    out.push_str(&format!("# HELP {name} {help}\n# TYPE {name} gauge\n"));
    for (labels, v) in series {
        out.push_str(&format!("{name}{labels} {}\n", render_value(*v)));
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use xbfs_engine::trace::RungOutcome;

    fn sample_events() -> Vec<TraceEvent> {
        vec![
            TraceEvent::RungBegin {
                rung: "cross",
                at_s: 0.0,
            },
            TraceEvent::Transfer {
                level: 2,
                bytes: 4096,
                attempt: 0,
                start_s: 0.001,
                end_s: 0.0015,
                ok: true,
            },
            TraceEvent::Fault {
                op: "gpu-kernel",
                kind: "kernel-timeout",
                level: 2,
                attempt: 0,
                at_s: 0.002,
            },
            TraceEvent::Kernel {
                device: "gpu",
                op: "gpu-kernel",
                level: 2,
                attempt: 1,
                start_s: 0.0025,
                end_s: 0.004,
                ok: true,
            },
            TraceEvent::Level {
                rung: "cross",
                device: "gpu",
                level: 2,
                direction: Direction::BottomUp,
                frontier_vertices: 100,
                frontier_edges: 1000,
                edges_examined: 900,
                discovered: 80,
                start_s: 0.001,
                end_s: 0.004,
            },
            TraceEvent::Breaker {
                device: "gpu",
                from: "closed",
                to: "open",
                cause: "failure-threshold",
                at_s: 0.004,
            },
            TraceEvent::RungEnd {
                rung: "cross",
                at_s: 0.005,
                outcome: RungOutcome::Served,
            },
        ]
    }

    #[test]
    fn chrome_trace_is_valid_json_with_monotone_timestamps() {
        let text = chrome_trace_json(&sample_events());
        let doc: Value = serde_json::from_str(&text).expect("valid JSON");
        assert_eq!(doc["displayTimeUnit"], "ms");
        let evs = doc["traceEvents"].as_array().expect("traceEvents array");
        // Process + five thread metadata records lead the stream.
        assert_eq!(evs[0]["ph"], "M");
        assert_eq!(evs[0]["name"], "process_name");
        let mut last_ts = f64::NEG_INFINITY;
        let mut seen_non_meta = 0;
        for ev in evs {
            if ev["ph"] == "M" {
                continue;
            }
            seen_non_meta += 1;
            let ts = ev["ts"].as_f64().expect("ts is a number");
            assert!(ts >= last_ts, "timestamps must be monotone");
            last_ts = ts;
            if ev["ph"] == "X" {
                assert!(ev["dur"].as_f64().expect("dur") >= 0.0);
            }
        }
        assert_eq!(seen_non_meta, 6, "one record per non-RungBegin event");
    }

    #[test]
    fn chrome_trace_pairs_rung_spans() {
        let text = chrome_trace_json(&sample_events());
        let doc: Value = serde_json::from_str(&text).unwrap();
        let rung = doc["traceEvents"]
            .as_array()
            .unwrap()
            .iter()
            .find(|e| e["name"] == "rung:cross")
            .expect("rung span present");
        assert_eq!(rung["ph"], "X");
        assert_eq!(rung["ts"], 0.0);
        assert_eq!(rung["dur"], 5000.0); // 0.005 s in µs
        assert_eq!(rung["args"]["outcome"], "served");
    }

    #[test]
    fn prometheus_text_aggregates_by_labels() {
        let text = prometheus_text(&sample_events());
        assert!(
            text.contains("xbfs_levels_total{device=\"gpu\",rung=\"cross\",direction=\"bu\"} 1")
        );
        assert!(text.contains(
            "xbfs_level_edges_examined_total{device=\"gpu\",rung=\"cross\",direction=\"bu\"} 900"
        ));
        assert!(text.contains("xbfs_kernel_attempts_total{device=\"gpu\",ok=\"true\"} 1"));
        assert!(text.contains("xbfs_transfer_bytes_total{ok=\"true\"} 4096"));
        assert!(text.contains("xbfs_faults_total{op=\"gpu-kernel\",kind=\"kernel-timeout\"} 1"));
        assert!(text.contains("xbfs_breaker_transitions_total{device=\"gpu\",to=\"open\"} 1"));
        assert!(text.contains("xbfs_rungs_total{rung=\"cross\",outcome=\"served\"} 1"));
        assert!(text.contains("xbfs_level_seconds_bucket{device=\"gpu\",le=\"+Inf\"} 1"));
        assert!(text.contains("xbfs_level_seconds_count{device=\"gpu\"} 1"));
        // A 3 ms level lands in the 0.01 bucket but not the 0.001 bucket.
        assert!(text.contains("xbfs_level_seconds_bucket{device=\"gpu\",le=\"0.001\"} 0"));
        assert!(text.contains("xbfs_level_seconds_bucket{device=\"gpu\",le=\"0.01\"} 1"));
    }

    fn batch_events() -> Vec<TraceEvent> {
        vec![
            TraceEvent::BatchBegin {
                lanes: 3,
                window: 8,
                at_s: 0.0,
            },
            TraceEvent::BatchLane {
                lane: 0,
                query: 7,
                source: 42,
                at_s: 0.0,
            },
            TraceEvent::BatchLane {
                lane: 1,
                query: 9,
                source: 43,
                at_s: 0.0,
            },
            TraceEvent::BatchLevel {
                device: "cpu",
                level: 0,
                direction: Direction::TopDown,
                lanes: 3,
                frontier_vertices: 3,
                edges_examined: 48,
                seconds: 0.002,
                at_s: 0.0,
            },
            TraceEvent::BatchLevel {
                device: "gpu",
                level: 1,
                direction: Direction::BottomUp,
                lanes: 3,
                frontier_vertices: 120,
                edges_examined: 900,
                seconds: 0.001,
                at_s: 0.002,
            },
            TraceEvent::BatchEnd {
                lanes: 3,
                levels: 2,
                at_s: 0.003,
            },
        ]
    }

    #[test]
    fn prometheus_text_renders_batch_families() {
        let text = prometheus_text(&batch_events());
        assert!(text.contains("xbfs_batch_dispatches_total 1"));
        assert!(text.contains("xbfs_batch_lanes_total 3"));
        assert!(text.contains("xbfs_batch_lane_queries_total 2"));
        assert!(text.contains("xbfs_batch_levels_total{device=\"cpu\",direction=\"td\"} 1"));
        assert!(text.contains("xbfs_batch_levels_total{device=\"gpu\",direction=\"bu\"} 1"));
        assert!(
            text.contains("xbfs_batch_level_seconds_total{device=\"cpu\",direction=\"td\"} 0.002")
        );
        // No batch events → no batch families at all (scrape stability).
        let plain = prometheus_text(&sample_events());
        assert!(!plain.contains("xbfs_batch_"));
    }

    #[test]
    fn chrome_trace_renders_batch_rounds_and_lane_instants() {
        let text = chrome_trace_json(&batch_events());
        let doc: Value = serde_json::from_str(&text).expect("valid JSON");
        let evs = doc["traceEvents"].as_array().expect("traceEvents array");
        let round = evs
            .iter()
            .find(|e| e["name"] == "batch round 1 bu")
            .expect("batch round span");
        assert_eq!(round["ph"], "X");
        assert_eq!(round["tid"], 2); // gpu track
        assert_eq!(round["dur"], 1000.0); // 0.001 s in µs
        assert_eq!(round["args"]["lanes"], 3);
        let lane = evs
            .iter()
            .find(|e| e["name"] == "lane:1")
            .expect("lane instant");
        assert_eq!(lane["args"]["query"], 9);
        // Lane reconciliation rides the service track, which must now be
        // named; batch-free traces keep omitting it (golden-trace pin).
        assert!(evs
            .iter()
            .any(|e| e["ph"] == "M" && e["args"]["name"] == "service"));
        let plain = chrome_trace_json(&sample_events());
        assert!(!plain.contains("\"service\""));
    }

    /// Strict parser for the label block of one exposition sample line.
    /// Panics on anything the format forbids: unescaped quotes or
    /// newlines, dangling escapes, bad label-name characters.
    fn parse_labels(s: &str) -> Vec<(String, String)> {
        let mut labels = Vec::new();
        let mut chars = s.chars().peekable();
        loop {
            let mut key = String::new();
            while let Some(&c) = chars.peek() {
                if c == '=' {
                    break;
                }
                assert!(
                    c.is_ascii_alphanumeric() || c == '_',
                    "label name charset: {c:?}"
                );
                key.push(c);
                chars.next();
            }
            assert!(!key.is_empty(), "empty label name");
            assert_eq!(chars.next(), Some('='));
            assert_eq!(chars.next(), Some('"'));
            let mut value = String::new();
            loop {
                match chars.next().expect("unterminated label value") {
                    '\\' => match chars.next().expect("dangling escape") {
                        '\\' => value.push('\\'),
                        '"' => value.push('"'),
                        'n' => value.push('\n'),
                        other => panic!("invalid escape sequence \\{other}"),
                    },
                    '"' => break,
                    c => value.push(c),
                }
            }
            labels.push((key, value));
            match chars.next() {
                None => break,
                Some(',') => continue,
                Some(c) => panic!("unexpected {c:?} after a label"),
            }
        }
        labels
    }

    /// One parsed sample line: metric name, label pairs, value.
    type Sample = (String, Vec<(String, String)>, f64);

    /// Strict parser for the whole exposition text: every line must be a
    /// HELP/TYPE comment or a well-formed sample.
    fn parse_exposition(text: &str) -> Vec<Sample> {
        let mut samples = Vec::new();
        for line in text.lines() {
            if let Some(rest) = line.strip_prefix("# ") {
                assert!(
                    rest.starts_with("HELP ") || rest.starts_with("TYPE "),
                    "unknown comment: {line}"
                );
                continue;
            }
            assert!(!line.is_empty(), "blank line in exposition output");
            let (series, value) = line.rsplit_once(' ').expect("sample has a value");
            let value: f64 = value.parse().expect("sample value parses as f64");
            let (name, labels) = match series.split_once('{') {
                None => (series.to_string(), Vec::new()),
                Some((name, rest)) => {
                    let inner = rest.strip_suffix('}').expect("label set closes");
                    (name.to_string(), parse_labels(inner))
                }
            };
            assert!(
                !name.is_empty()
                    && name
                        .chars()
                        .all(|c| c.is_ascii_alphanumeric() || c == '_' || c == ':'),
                "metric name charset: {name}"
            );
            samples.push((name, labels, value));
        }
        samples
    }

    #[test]
    fn exposition_round_trips_through_strict_parser() {
        let text = prometheus_text(&sample_events());
        let samples = parse_exposition(&text);
        assert!(!samples.is_empty());
        // Re-rendering every parsed sample reproduces a line of the
        // original text verbatim — parse ∘ render is the identity.
        for (name, labels, value) in samples {
            let pairs: Vec<(&str, &str)> = labels
                .iter()
                .map(|(k, v)| (k.as_str(), v.as_str()))
                .collect();
            let line = format!("{name}{} {}", render_labels(&pairs), render_value(value));
            assert!(text.lines().any(|l| l == line), "missing line: {line}");
        }
    }

    #[test]
    fn hostile_label_values_escape_and_parse_back() {
        let hostile = "say \"hi\"\\path\nnext";
        let mut c = Counter::default();
        c.add(&[("op", hostile), ("plain", "ok")], 2.0);
        let mut out = String::new();
        write_counter(&mut out, "xbfs_test_total", "Escaping probe.", &c);
        // The raw control characters must not survive unescaped.
        let sample = out.lines().last().unwrap();
        assert!(!sample.contains('\n'));
        assert!(sample.contains("\\\"hi\\\""));
        assert!(sample.contains("\\\\path"));
        assert!(sample.contains("\\n"));
        // And the strict parser recovers the original value exactly.
        let samples = parse_exposition(&out);
        assert_eq!(samples.len(), 1);
        let (name, labels, value) = &samples[0];
        assert_eq!(name, "xbfs_test_total");
        assert_eq!(labels[0], ("op".to_string(), hostile.to_string()));
        assert_eq!(labels[1], ("plain".to_string(), "ok".to_string()));
        assert_eq!(*value, 2.0);
    }

    /// Admission-layer events with a hostile outcome label: two completed
    /// queries (latencies 0.004 s and 0.199 s), one shed.
    fn service_metric_events() -> Vec<TraceEvent> {
        vec![
            TraceEvent::QueryAdmitted {
                query: 1,
                queue_depth: 0,
                at_s: 0.0,
            },
            TraceEvent::QueryStart {
                query: 1,
                wait_s: 0.0,
                at_s: 0.0,
            },
            TraceEvent::QueryAdmitted {
                query: 2,
                queue_depth: 1,
                at_s: 0.001,
            },
            TraceEvent::QueueDepth {
                depth: 1,
                at_s: 0.001,
            },
            TraceEvent::QueryEnd {
                query: 1,
                outcome: "served",
                rung: "cross",
                at_s: 0.004,
            },
            TraceEvent::QueryStart {
                query: 2,
                wait_s: 0.003,
                at_s: 0.004,
            },
            TraceEvent::QueryShed {
                query: 3,
                reason: "overloaded",
                queue_depth: 1,
                at_s: 0.005,
            },
            TraceEvent::QueryEnd {
                query: 2,
                outcome: "failed \"oom\"\\gpu",
                rung: "cpu-only",
                at_s: 0.2,
            },
        ]
    }

    #[test]
    fn service_latency_exposition_round_trips_through_strict_parser() {
        let text = prometheus_text(&service_metric_events());
        let samples = parse_exposition(&text);

        // Admission-to-completion latency renders per outcome, hostile
        // label escaped on the wire and recovered by the parser.
        let buckets: Vec<&Sample> = samples
            .iter()
            .filter(|(n, _, _)| n == "xbfs_service_latency_seconds_bucket")
            .collect();
        assert!(!buckets.is_empty(), "latency histogram missing:\n{text}");
        assert!(
            buckets
                .iter()
                .any(|(_, l, _)| l.iter().any(|(k, v)| k == "outcome" && v == "served")),
            "{text}"
        );
        assert!(
            buckets.iter().any(|(_, l, _)| l
                .iter()
                .any(|(k, v)| k == "outcome" && v == "failed \"oom\"\\gpu")),
            "{text}"
        );
        // 0.004 s first lands in the 0.01 bucket; 0.199 s in the 1 bucket.
        let count_at = |outcome: &str, le: &str| {
            buckets
                .iter()
                .find(|(_, l, _)| {
                    l.iter().any(|(k, v)| k == "outcome" && v == outcome)
                        && l.iter().any(|(k, v)| k == "le" && v == le)
                })
                .map(|(_, _, v)| *v)
                .expect("bucket present")
        };
        assert_eq!(count_at("served", "0.01"), 1.0);
        assert_eq!(count_at("served", "0.001"), 0.0);
        assert_eq!(count_at("failed \"oom\"\\gpu", "0.1"), 0.0);
        assert_eq!(count_at("failed \"oom\"\\gpu", "1"), 1.0);
        assert_eq!(count_at("failed \"oom\"\\gpu", "+Inf"), 1.0);

        // Parse ∘ render is the identity over the whole exposition.
        for (name, labels, value) in &samples {
            let pairs: Vec<(&str, &str)> = labels
                .iter()
                .map(|(k, v)| (k.as_str(), v.as_str()))
                .collect();
            let line = format!("{name}{} {}", render_labels(&pairs), render_value(*value));
            assert!(text.lines().any(|l| l == line), "missing line: {line}");
        }
    }

    #[test]
    fn service_latency_buckets_are_cumulative_and_close_at_count() {
        let text = prometheus_text(&service_metric_events());
        let samples = parse_exposition(&text);
        let label_key = |labels: &[(String, String)]| {
            labels
                .iter()
                .filter(|(k, _)| k != "le")
                .map(|(k, v)| format!("{k}={v}"))
                .collect::<Vec<_>>()
                .join(",")
        };
        // Group the latency buckets per outcome and check cumulative
        // monotonicity in `le`, with the +Inf bucket equal to _count.
        let mut per_series: std::collections::BTreeMap<String, Vec<(f64, f64)>> =
            std::collections::BTreeMap::new();
        for (name, labels, value) in &samples {
            if name != "xbfs_service_latency_seconds_bucket" {
                continue;
            }
            let le = labels
                .iter()
                .find(|(k, _)| k == "le")
                .map(|(_, v)| {
                    if v == "+Inf" {
                        f64::INFINITY
                    } else {
                        v.parse().expect("le bound parses")
                    }
                })
                .expect("bucket has le");
            per_series
                .entry(label_key(labels))
                .or_default()
                .push((le, *value));
        }
        assert_eq!(per_series.len(), 2, "one series per outcome");
        for (series, mut buckets) in per_series {
            buckets.sort_by(|a, b| a.0.total_cmp(&b.0));
            assert!(
                buckets.windows(2).all(|w| w[0].1 <= w[1].1),
                "{series}: bucket counts must be cumulative"
            );
            let inf = buckets.last().expect("has +Inf");
            assert!(inf.0.is_infinite());
            let count = samples
                .iter()
                .find(|(n, l, _)| {
                    n == "xbfs_service_latency_seconds_count" && label_key(l) == series
                })
                .map(|(_, _, v)| *v)
                .expect("_count present");
            assert_eq!(inf.1, count, "{series}: +Inf bucket must equal _count");
        }
    }

    #[test]
    fn slo_exposition_round_trips_through_strict_parser() {
        use crate::observe::timeseries::{prometheus_slo_text, SloPolicy, SloReport, WindowBurn};
        let report = SloReport {
            policy: SloPolicy::default(),
            deadline_eligible: 10,
            deadline_missed: 1,
            deadline_hit_ratio: 0.9,
            deadline_met: false,
            latency_eligible: 9,
            latency_missed: 0,
            latency_hit_ratio: 1.0,
            latency_met: true,
            met: false,
            windows: vec![
                WindowBurn {
                    index: 0,
                    start_s: 0.0,
                    end_s: 0.5,
                    deadline_burn: 10.0,
                    latency_burn: 0.0,
                },
                WindowBurn {
                    index: 1,
                    start_s: 0.5,
                    end_s: 1.0,
                    deadline_burn: 0.0,
                    latency_burn: 2.0,
                },
            ],
        };
        let text = prometheus_slo_text(&report);
        let samples = parse_exposition(&text);
        let value_of = |name: &str| {
            samples
                .iter()
                .find(|(n, _, _)| n == name)
                .map(|(_, _, v)| *v)
                .unwrap_or_else(|| panic!("missing {name} in:\n{text}"))
        };
        assert_eq!(value_of("xbfs_slo_deadline_hit_ratio"), 0.9);
        assert_eq!(value_of("xbfs_slo_latency_hit_ratio"), 1.0);
        assert_eq!(value_of("xbfs_slo_met"), 0.0);
        // Burn rates carry objective + window labels, one sample each.
        let burns: Vec<&Sample> = samples
            .iter()
            .filter(|(n, _, _)| n == "xbfs_slo_burn_rate")
            .collect();
        assert_eq!(burns.len(), 4, "two windows x two objectives:\n{text}");
        assert!(burns.iter().any(|(_, l, v)| {
            l.contains(&("objective".to_string(), "deadline".to_string()))
                && l.contains(&("window".to_string(), "0".to_string()))
                && *v == 10.0
        }));
        // Parse ∘ render identity holds for the SLO families too.
        for (name, labels, value) in &samples {
            let pairs: Vec<(&str, &str)> = labels
                .iter()
                .map(|(k, v)| (k.as_str(), v.as_str()))
                .collect();
            let line = format!("{name}{} {}", render_labels(&pairs), render_value(*value));
            assert!(text.lines().any(|l| l == line), "missing line: {line}");
        }
    }

    #[test]
    fn empty_trace_renders_empty_exports() {
        let prom = prometheus_text(&[]);
        assert!(prom.is_empty());
        let chrome = chrome_trace_json(&[]);
        let doc: Value = serde_json::from_str(&chrome).unwrap();
        // Only metadata records remain.
        assert!(doc["traceEvents"]
            .as_array()
            .unwrap()
            .iter()
            .all(|e| e["ph"] == "M"));
    }
}
