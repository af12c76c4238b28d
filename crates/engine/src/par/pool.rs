//! Parallel scheduling primitives: the work-stealing [`WorkerPool`] and
//! the one-shot [`parallel_ranges`] helper.
//!
//! * [`WorkerPool`] — the scheduler behind [`super::run`] and
//!   [`super::run_multi`]: `threads - 1` helper workers are spawned once
//!   per traversal and parked between levels; each level the driver
//!   publishes a [`LevelJob`] and every worker (driver included) claims
//!   fixed-size chunks off a shared atomic cursor until the item space is
//!   drained. A hub-heavy chunk delays one worker by at most one chunk's
//!   work instead of serializing a statically assigned range.
//! * [`parallel_ranges`] / [`try_parallel_ranges`] — fork-join for
//!   one-shot jobs (the oracle sweep): split `0..n_items` into at most
//!   `threads` contiguous ranges, spawn a scoped worker per range, join.
//!
//! Panic hygiene: a worker that panics never tears down the process with
//! a bare "worker panicked". Both catch the unwind at the chunk boundary
//! and surface a typed [`XbfsError::KernelPanic`] carrying the worker's
//! original payload and the item range it was processing; the infallible
//! entry points re-panic with that same enriched message.

use std::ops::Range;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering};
use std::sync::{Arc, Condvar, Mutex, RwLock};
use std::time::Instant;

use super::multi::MultiParState;
use super::{bottomup, multi, topdown, ParState};
use crate::error::XbfsError;
use crate::trace::{TraceEvent, TraceSink};
use xbfs_graph::{AtomicBitmap, Csr, VertexId};

/// Render a caught panic payload for diagnostics, preserving the
/// worker's original message where it was a string and at least the
/// payload's type name for common typed payloads (`std::panic::panic_any`
/// with an integer, float, bool, char, or [`XbfsError`]). `dyn Any`
/// exposes only a `TypeId` for everything else, so arbitrary user types
/// degrade to an opaque-but-stable type-id rendering rather than being
/// silently collapsed.
///
/// Public because the layers above (the recovery ladder, the query
/// service) catch unwinds at their own isolation boundaries and want the
/// same enriched rendering instead of reinventing it.
pub fn payload_to_string(payload: &(dyn std::any::Any + Send)) -> String {
    if let Some(s) = payload.downcast_ref::<&'static str>() {
        return (*s).to_string();
    }
    if let Some(s) = payload.downcast_ref::<String>() {
        return s.clone();
    }
    macro_rules! try_typed {
        ($($t:ty),* $(,)?) => {
            $(
                if let Some(v) = payload.downcast_ref::<$t>() {
                    return format!(
                        "{v:?} (panic payload of type {})",
                        std::any::type_name::<$t>()
                    );
                }
            )*
        };
    }
    try_typed!(
        Box<str>,
        std::borrow::Cow<'static, str>,
        XbfsError,
        i8,
        i16,
        i32,
        i64,
        i128,
        isize,
        u8,
        u16,
        u32,
        u64,
        u128,
        usize,
        f32,
        f64,
        bool,
        char,
    );
    format!(
        "non-string panic payload of unknown type (TypeId {:?})",
        payload.type_id()
    )
}

/// Split `0..n_items` into at most `threads` contiguous ranges and apply
/// `work` to each in parallel, returning the per-range results in range
/// order.
///
/// Ranges are balanced to within one item. If `n_items == 0` no worker runs.
/// With a single range the closure runs on the calling thread (no spawn),
/// which makes `threads == 1` a true sequential baseline.
///
/// A panicking worker is reported as [`XbfsError::KernelPanic`] with the
/// worker's payload and range; every spawned worker is joined before the
/// error returns, so no work is left running.
pub fn try_parallel_ranges<T, F>(
    n_items: usize,
    threads: usize,
    work: F,
) -> Result<Vec<T>, XbfsError>
where
    T: Send,
    F: Fn(Range<usize>) -> T + Sync,
{
    if threads == 0 {
        return Err(XbfsError::InvalidArgument {
            what: "parallel_ranges needs at least one thread".to_string(),
        });
    }
    let ranges = split_ranges(n_items, threads);
    match ranges.len() {
        0 => Ok(Vec::new()),
        1 => {
            let r = ranges.into_iter().next().expect("one range");
            let span = (r.start, r.end);
            // `work` only crosses the unwind boundary on the error path,
            // where it is never touched again — safe to assert.
            catch_unwind(AssertUnwindSafe(|| work(r)))
                .map(|v| vec![v])
                .map_err(|p| XbfsError::KernelPanic {
                    payload: payload_to_string(&*p),
                    range: Some(span),
                })
        }
        _ => std::thread::scope(|s| {
            let work = &work;
            let handles: Vec<_> = ranges
                .into_iter()
                .map(|r| {
                    let span = (r.start, r.end);
                    (span, s.spawn(move || work(r)))
                })
                .collect();
            // Join every worker before reporting, so an early panic
            // cannot leave siblings running past the scope.
            let joined: Vec<_> = handles
                .into_iter()
                .map(|(span, h)| (span, h.join()))
                .collect();
            joined
                .into_iter()
                .map(|(span, res)| {
                    res.map_err(|p| XbfsError::KernelPanic {
                        payload: payload_to_string(&*p),
                        range: Some(span),
                    })
                })
                .collect()
        }),
    }
}

/// Infallible wrapper over [`try_parallel_ranges`] for kernels whose
/// workers are trusted: a worker panic re-panics here, but with the
/// worker's original payload and range in the message instead of a bare
/// join failure.
///
/// # Panics
/// Panics if `threads == 0` or any worker panics.
pub fn parallel_ranges<T, F>(n_items: usize, threads: usize, work: F) -> Vec<T>
where
    T: Send,
    F: Fn(Range<usize>) -> T + Sync,
{
    match try_parallel_ranges(n_items, threads, work) {
        Ok(v) => v,
        Err(e) => panic!("{e}"),
    }
}

/// Balanced contiguous split of `0..n_items` into at most `parts` non-empty
/// ranges.
pub(crate) fn split_ranges(n_items: usize, parts: usize) -> Vec<Range<usize>> {
    if n_items == 0 {
        return Vec::new();
    }
    let parts = parts.min(n_items);
    let base = n_items / parts;
    let extra = n_items % parts;
    let mut ranges = Vec::with_capacity(parts);
    let mut start = 0;
    for i in 0..parts {
        let len = base + usize::from(i < extra);
        ranges.push(start..start + len);
        start += len;
    }
    ranges
}

/// Frontier vertices a worker claims per cursor bump in a top-down level.
/// Small, because each vertex can hide an arbitrarily large adjacency list
/// (the R-MAT hub problem the dynamic scheduler exists to solve).
const TD_CHUNK: usize = 64;
/// Vertices a worker claims per cursor bump in a bottom-up scan. Larger:
/// most scanned vertices terminate after one or two probes, so the cursor
/// would otherwise become the bottleneck.
const BU_CHUNK: usize = 1024;
/// Frontier vertices a worker claims per cursor bump while publishing the
/// bottom-up frontier bitmap (one relaxed `fetch_or` per item).
const PUBLISH_CHUNK: usize = 4096;

/// Per-lane accumulator of a multi-source level: one source's share of a
/// worker's [`Partial`]. Field-for-field the same bookkeeping as the
/// single-source quad, so the lane-packed kernels fold the *same* stats
/// the switch heuristic reads — just 64 of them at a time.
#[derive(Clone, Debug, Default)]
pub(crate) struct LaneAccum {
    /// Vertices discovered for this lane (claimed or adopted).
    pub next: Vec<VertexId>,
    /// Edges examined on behalf of this lane.
    pub edges_examined: u64,
    /// Σ degree over `next` — this lane's share of the next `|E|cq`.
    pub next_edges: u64,
    /// Max degree over `next` — this lane's next serial critical path.
    pub next_max_degree: u64,
}

impl LaneAccum {
    /// Merge this accumulator into the per-lane merged outcome. Saturating
    /// folds: a pathological dense lane must clamp at `u64::MAX` rather
    /// than wrap and corrupt the next round's switch decision.
    pub(crate) fn merge_into(self, out: &mut LaneAccum) {
        out.next.extend_from_slice(&self.next);
        out.edges_examined = out.edges_examined.saturating_add(self.edges_examined);
        out.next_edges = out.next_edges.saturating_add(self.next_edges);
        out.next_max_degree = out.next_max_degree.max(self.next_max_degree);
    }
}

/// What one worker accumulated over the chunks it claimed in one level.
#[derive(Debug, Default)]
pub(crate) struct Partial {
    /// Vertices this worker discovered (claimed or adopted).
    pub next: Vec<VertexId>,
    /// Edges this worker examined.
    pub edges_examined: u64,
    /// Σ degree over `next` — this worker's share of the *next* frontier's
    /// `|E|cq`, folded in here so the driver never rescans the frontier.
    pub next_edges: u64,
    /// Max degree over `next` — the next level's serial critical path.
    pub next_max_degree: u64,
    /// Per-lane accumulators for lane-packed multi-source jobs; empty for
    /// single-source jobs. Sized lazily by [`Partial::ensure_lanes`].
    pub lanes: Vec<LaneAccum>,
}

impl Partial {
    /// Record a discovered vertex and fold its degree into the next
    /// frontier's stats.
    #[inline]
    pub(crate) fn discover(&mut self, v: VertexId, degree: u64) {
        self.next.push(v);
        self.next_edges = self.next_edges.saturating_add(degree);
        self.next_max_degree = self.next_max_degree.max(degree);
    }

    /// Size the per-lane accumulators for a multi-source job. Idempotent.
    #[inline]
    pub(crate) fn ensure_lanes(&mut self, lanes: usize) {
        if self.lanes.len() < lanes {
            self.lanes.resize_with(lanes, LaneAccum::default);
        }
    }

    /// [`Partial::discover`] for one lane of a multi-source job: record a
    /// vertex discovered on `lane`'s behalf and fold its degree into that
    /// lane's Σdeg / max-deg — the same per-batch stats the switch
    /// heuristic reads. Callers must have sized the lanes first.
    #[inline]
    pub(crate) fn discover_in(&mut self, lane: usize, v: VertexId, degree: u64) {
        let acc = &mut self.lanes[lane];
        acc.next.push(v);
        acc.next_edges = acc.next_edges.saturating_add(degree);
        acc.next_max_degree = acc.next_max_degree.max(degree);
    }

    pub(crate) fn merge_into(self, out: &mut StolenOutcome) {
        out.next.extend_from_slice(&self.next);
        out.edges_examined = out.edges_examined.saturating_add(self.edges_examined);
        out.next_edges = out.next_edges.saturating_add(self.next_edges);
        out.next_max_degree = out.next_max_degree.max(self.next_max_degree);
    }
}

/// Aggregated result of one work-stealing level dispatch.
#[derive(Debug, Default)]
pub(crate) struct StolenOutcome {
    /// The next frontier (unordered beyond per-worker claim order).
    pub next: Vec<VertexId>,
    /// Edges examined across all workers.
    pub edges_examined: u64,
    /// Σ degree over `next` (`|E|cq` of the next level).
    pub next_edges: u64,
    /// Max degree over `next`.
    pub next_max_degree: u64,
}

/// One level's worth of work, owned by the pool's job slot while workers
/// chew through it.
pub(crate) enum LevelJob {
    /// Publish frontier membership into the bottom-up bitmap.
    Publish {
        /// The frontier being published.
        frontier: Vec<VertexId>,
        /// The bitmap being filled (relaxed `fetch_or` publication; read
        /// only after the dispatch barrier).
        bits: AtomicBitmap,
    },
    /// Expand one top-down level over the frontier.
    TopDown {
        /// The current frontier, in driver order.
        frontier: Vec<VertexId>,
        /// Level the discovered vertices land on.
        next_level: u32,
    },
    /// Expand one bottom-up level over the whole vertex range.
    BottomUp {
        /// Frontier membership bitmap (read-only during the level).
        bits: AtomicBitmap,
        /// Level the adopted vertices land on.
        next_level: u32,
    },
    /// Publish up-to-64 per-lane frontiers into one lane-packed `u64`
    /// bitmap (one word per vertex, one bit per lane).
    MultiPublish {
        /// Per-lane frontiers, concatenated by `offsets` into one item
        /// space (empty lanes contribute nothing).
        frontiers: Vec<Vec<VertexId>>,
        /// Prefix sums over the frontier lengths (`lanes + 1` entries).
        offsets: Vec<usize>,
        /// The lane-packed words being filled (relaxed `fetch_or`
        /// publication; read only after the dispatch barrier).
        words: Arc<Vec<AtomicU64>>,
    },
    /// Expand one top-down batch level: each lane's frontier is swept in
    /// its own order (so `threads == 1` reproduces each lane's sequential
    /// parents exactly), claiming visited bits in the lane-packed words.
    MultiTopDown {
        /// Lane-packed traversal state the claims land in.
        state: Arc<MultiParState>,
        /// Per-lane frontiers, concatenated by `offsets`.
        frontiers: Vec<Vec<VertexId>>,
        /// Prefix sums over the frontier lengths (`lanes + 1` entries).
        offsets: Vec<usize>,
        /// Level the claimed vertices land on.
        next_level: u32,
    },
    /// Expand one bottom-up batch level: a single union sweep over the
    /// whole vertex range serves every active lane at once — the
    /// amortization the u64 packing exists for.
    MultiBottomUp {
        /// Lane-packed traversal state the adoptions land in.
        state: Arc<MultiParState>,
        /// Lane-packed frontier words (read-only during the level).
        words: Arc<Vec<AtomicU64>>,
        /// Mask of lanes still traversing this round.
        active: u64,
        /// Level the adopted vertices land on.
        next_level: u32,
    },
}

impl LevelJob {
    /// Size of the item space the cursor runs over.
    fn n_items(&self, csr: &Csr) -> usize {
        match self {
            LevelJob::Publish { frontier, .. } | LevelJob::TopDown { frontier, .. } => {
                frontier.len()
            }
            LevelJob::BottomUp { .. } | LevelJob::MultiBottomUp { .. } => {
                csr.num_vertices() as usize
            }
            LevelJob::MultiPublish { offsets, .. } | LevelJob::MultiTopDown { offsets, .. } => {
                *offsets.last().expect("offsets never empty")
            }
        }
    }

    /// Fixed chunk a worker claims per cursor bump.
    fn chunk(&self) -> usize {
        match self {
            LevelJob::Publish { .. } | LevelJob::MultiPublish { .. } => PUBLISH_CHUNK,
            LevelJob::TopDown { .. } | LevelJob::MultiTopDown { .. } => TD_CHUNK,
            LevelJob::BottomUp { .. } | LevelJob::MultiBottomUp { .. } => BU_CHUNK,
        }
    }

    /// `(op label, level index)` for the kernel span this job emits when
    /// traced; `None` for the publish phases (bookkeeping, not a kernel).
    fn kernel_span(&self) -> Option<(&'static str, u32)> {
        match self {
            LevelJob::Publish { .. } | LevelJob::MultiPublish { .. } => None,
            LevelJob::TopDown { next_level, .. } | LevelJob::MultiTopDown { next_level, .. } => {
                Some(("td-kernel", next_level - 1))
            }
            LevelJob::BottomUp { next_level, .. } | LevelJob::MultiBottomUp { next_level, .. } => {
                Some(("bu-kernel", next_level - 1))
            }
        }
    }
}

struct EpochState {
    epoch: u64,
    shutdown: bool,
}

/// The persistent per-traversal pool behind [`super::run`].
///
/// Created once per traversal; `threads - 1` helper workers run
/// [`WorkerPool::worker_loop`] on scoped threads for the traversal's whole
/// lifetime and park on a condvar between levels, so per-level cost is a
/// wake/notify pair instead of a spawn/join pair. With `threads == 1` no
/// worker exists and every dispatch runs inline on the caller — the true
/// sequential baseline the scaling study needs.
pub(crate) struct WorkerPool {
    threads: usize,
    /// The current job. Write-locked only by the driver between levels
    /// (after the done barrier), read-shared by workers during a level.
    job: RwLock<Option<LevelJob>>,
    /// Shared claim cursor into the current job's item space.
    cursor: AtomicUsize,
    /// Level-dispatch epoch; workers wake when it advances.
    epoch: Mutex<EpochState>,
    wake: Condvar,
    /// Helper workers finished with the current epoch.
    done: Mutex<usize>,
    all_done: Condvar,
    /// Per-worker result slots (index = worker id; slot 0 is the driver).
    partials: Vec<Mutex<Partial>>,
    /// First panic caught at a chunk boundary, as a typed error.
    panic: Mutex<Option<XbfsError>>,
    /// Traversal start, the origin for kernel-span wall timestamps.
    t0: Instant,
}

/// Wakes parked workers into shutdown when the driver leaves the scope —
/// including by unwind, so a driver-side panic cannot strand the pool.
pub(crate) struct ShutdownGuard<'a>(&'a WorkerPool);

impl Drop for ShutdownGuard<'_> {
    fn drop(&mut self) {
        let mut e = self.0.epoch.lock().expect("pool epoch lock");
        e.shutdown = true;
        self.0.wake.notify_all();
    }
}

impl WorkerPool {
    pub(crate) fn new(threads: usize) -> Self {
        assert!(threads >= 1, "need at least one thread");
        Self {
            threads,
            job: RwLock::new(None),
            cursor: AtomicUsize::new(0),
            epoch: Mutex::new(EpochState {
                epoch: 0,
                shutdown: false,
            }),
            wake: Condvar::new(),
            done: Mutex::new(0),
            all_done: Condvar::new(),
            partials: (0..threads)
                .map(|_| Mutex::new(Partial::default()))
                .collect(),
            panic: Mutex::new(None),
            t0: Instant::now(),
        }
    }

    /// Arm the shutdown-on-drop guard for the driver's scope body.
    pub(crate) fn shutdown_guard(&self) -> ShutdownGuard<'_> {
        ShutdownGuard(self)
    }

    /// Helper-worker body: park until an epoch advances, chew chunks,
    /// report done, repeat until shutdown. Never unwinds (a worker panic
    /// is recorded as a typed error and re-raised by the driver), so the
    /// enclosing `thread::scope` join cannot itself panic and the driver
    /// cannot deadlock on the done barrier.
    pub(crate) fn worker_loop(
        &self,
        csr: &Csr,
        state: &ParState,
        sink: &dyn TraceSink,
        worker: usize,
    ) {
        let mut seen = 0u64;
        loop {
            {
                let mut e = self.epoch.lock().expect("pool epoch lock");
                loop {
                    if e.shutdown {
                        return;
                    }
                    if e.epoch > seen {
                        seen = e.epoch;
                        break;
                    }
                    e = self.wake.wait(e).expect("pool epoch lock");
                }
            }
            // Belt over the per-chunk suspenders in `work`: whatever
            // happens, the done counter must advance or the driver hangs.
            if catch_unwind(AssertUnwindSafe(|| self.work(csr, state, sink, worker))).is_err() {
                self.record_panic(XbfsError::KernelPanic {
                    payload: "worker scheduling loop panicked".to_string(),
                    range: None,
                });
            }
            let mut d = self.done.lock().expect("pool done lock");
            *d += 1;
            self.all_done.notify_one();
        }
    }

    /// Publish `job`, run it to completion across every worker (the caller
    /// participates as worker 0), and return once all helpers are parked
    /// again.
    ///
    /// # Panics
    /// Re-panics with the enriched [`XbfsError::KernelPanic`] message if
    /// any worker's chunk panicked during the level.
    pub(crate) fn dispatch(
        &self,
        csr: &Csr,
        state: &ParState,
        sink: &dyn TraceSink,
        job: LevelJob,
    ) {
        *self.job.write().expect("pool job lock") = Some(job);
        self.cursor.store(0, Ordering::Relaxed);
        if self.threads > 1 {
            let mut e = self.epoch.lock().expect("pool epoch lock");
            e.epoch += 1;
            self.wake.notify_all();
            drop(e);
        }
        self.work(csr, state, sink, 0);
        if self.threads > 1 {
            let mut d = self.done.lock().expect("pool done lock");
            while *d < self.threads - 1 {
                d = self.all_done.wait(d).expect("pool done lock");
            }
            *d = 0;
        }
        if let Some(err) = self.panic.lock().expect("pool panic lock").take() {
            panic!("{err}");
        }
    }

    /// Claim chunks of the current job off the shared cursor until the
    /// item space drains, accumulating into this worker's partial slot.
    /// The first chunk panic is recorded as a typed
    /// [`XbfsError::KernelPanic`] carrying the chunk's item range. Emits
    /// one kernel span per participating worker per level when tracing is
    /// enabled, timestamped relative to the traversal start.
    fn work(&self, csr: &Csr, state: &ParState, sink: &dyn TraceSink, worker: usize) {
        let guard = self.job.read().expect("pool job lock");
        let Some(job) = guard.as_ref() else {
            return;
        };
        let n = job.n_items(csr);
        let chunk = job.chunk();
        let kernel_span = sink.enabled().then(|| job.kernel_span()).flatten();
        let started_s = kernel_span.map(|_| self.t0.elapsed().as_secs_f64());
        let mut local = Partial::default();
        let mut claimed = false;
        let mut failure = None;
        loop {
            let start = self.cursor.fetch_add(chunk, Ordering::Relaxed);
            if start >= n {
                break;
            }
            claimed = true;
            let range = start..n.min(start + chunk);
            let span = (range.start, range.end);
            let caught = catch_unwind(AssertUnwindSafe(|| match job {
                LevelJob::Publish { frontier, bits } => {
                    for &v in &frontier[range.clone()] {
                        bits.set(v);
                    }
                }
                LevelJob::TopDown {
                    frontier,
                    next_level,
                } => topdown::chunk(
                    csr,
                    &frontier[range.clone()],
                    state,
                    *next_level,
                    &mut local,
                ),
                LevelJob::BottomUp { bits, next_level } => {
                    bottomup::chunk(csr, bits, range.clone(), state, *next_level, &mut local)
                }
                LevelJob::MultiPublish {
                    frontiers,
                    offsets,
                    words,
                } => multi::publish_chunk(frontiers, offsets, words, range.clone()),
                LevelJob::MultiTopDown {
                    state: mstate,
                    frontiers,
                    offsets,
                    next_level,
                } => topdown::multi_chunk(
                    csr,
                    mstate,
                    frontiers,
                    offsets,
                    range.clone(),
                    *next_level,
                    &mut local,
                ),
                LevelJob::MultiBottomUp {
                    state: mstate,
                    words,
                    active,
                    next_level,
                } => bottomup::multi_chunk(
                    csr,
                    mstate,
                    words,
                    *active,
                    range.clone(),
                    *next_level,
                    &mut local,
                ),
            }));
            if let Err(p) = caught {
                failure = Some(XbfsError::KernelPanic {
                    payload: payload_to_string(&*p),
                    range: Some(span),
                });
                break;
            }
        }
        if claimed {
            if let (Some((op, level)), Some(started_s)) = (kernel_span, started_s) {
                sink.record(&TraceEvent::Kernel {
                    device: "cpu",
                    op,
                    level,
                    attempt: worker as u32,
                    start_s: started_s,
                    end_s: self.t0.elapsed().as_secs_f64(),
                    ok: true,
                });
            }
        }
        if let Some(err) = failure {
            self.record_panic(err);
        }
        *self.partials[worker].lock().expect("pool partial lock") = local;
    }

    fn record_panic(&self, err: XbfsError) {
        let mut slot = self.panic.lock().expect("pool panic lock");
        if slot.is_none() {
            *slot = Some(err);
        }
    }

    /// Drain every worker's partial (in worker order) into one outcome and
    /// release the job slot.
    pub(crate) fn collect(&self) -> StolenOutcome {
        let mut out = StolenOutcome::default();
        for slot in &self.partials {
            let partial = std::mem::take(&mut *slot.lock().expect("pool partial lock"));
            partial.merge_into(&mut out);
        }
        *self.job.write().expect("pool job lock") = None;
        out
    }

    /// Take the published bitmap back out of the job slot after a
    /// [`LevelJob::Publish`] dispatch.
    pub(crate) fn take_published(&self) -> AtomicBitmap {
        match self.job.write().expect("pool job lock").take() {
            Some(LevelJob::Publish { bits, .. }) => bits,
            _ => unreachable!("publish job must be in the slot"),
        }
    }

    /// Drain every worker's per-lane accumulators (in worker order, then
    /// lane order) into one merged outcome per lane and release the job
    /// slot — the multi-source sibling of [`WorkerPool::collect`].
    pub(crate) fn collect_multi(&self, lanes: usize) -> Vec<LaneAccum> {
        let mut out: Vec<LaneAccum> = vec![LaneAccum::default(); lanes];
        for slot in &self.partials {
            let partial = std::mem::take(&mut *slot.lock().expect("pool partial lock"));
            for (lane, acc) in partial.lanes.into_iter().enumerate() {
                acc.merge_into(&mut out[lane]);
            }
        }
        *self.job.write().expect("pool job lock") = None;
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::trace::NULL_SINK;

    #[test]
    fn split_covers_everything_once() {
        for n in [0usize, 1, 7, 64, 100] {
            for p in [1usize, 2, 3, 8, 200] {
                let ranges = split_ranges(n, p);
                let total: usize = ranges.iter().map(|r| r.len()).sum();
                assert_eq!(total, n, "n={n} p={p}");
                // Contiguous and ordered.
                let mut expect = 0;
                for r in &ranges {
                    assert_eq!(r.start, expect);
                    assert!(!r.is_empty());
                    expect = r.end;
                }
                // Balanced to within one item.
                if let (Some(min), Some(max)) = (
                    ranges.iter().map(|r| r.len()).min(),
                    ranges.iter().map(|r| r.len()).max(),
                ) {
                    assert!(max - min <= 1);
                }
            }
        }
    }

    #[test]
    fn parallel_sum_matches_sequential() {
        let data: Vec<u64> = (0..10_000).collect();
        let partials = parallel_ranges(data.len(), 4, |r| data[r].iter().sum::<u64>());
        assert_eq!(partials.len(), 4);
        assert_eq!(partials.iter().sum::<u64>(), 10_000 * 9_999 / 2);
    }

    #[test]
    fn empty_input_runs_nothing() {
        let results = parallel_ranges(0, 8, |_| panic!("must not run"));
        assert!(results.is_empty());
    }

    #[test]
    fn single_range_runs_inline() {
        let tid = std::thread::current().id();
        let results = parallel_ranges(5, 1, |r| {
            assert_eq!(std::thread::current().id(), tid);
            r.len()
        });
        assert_eq!(results, vec![5]);
    }

    #[test]
    fn results_preserve_range_order() {
        let results = parallel_ranges(100, 7, |r| r.start);
        let mut sorted = results.clone();
        sorted.sort_unstable();
        assert_eq!(results, sorted);
    }

    #[test]
    fn zero_threads_is_a_typed_error() {
        let r = try_parallel_ranges(10, 0, |r| r.len());
        assert!(matches!(r, Err(XbfsError::InvalidArgument { .. })));
    }

    #[test]
    fn scoped_worker_panic_carries_payload_and_range() {
        let err = try_parallel_ranges(100, 4, |r| {
            if r.contains(&60) {
                panic!("worker exploded at {}", r.start);
            }
            r.len()
        })
        .expect_err("must surface the panic");
        match &err {
            XbfsError::KernelPanic { payload, range } => {
                assert!(payload.contains("worker exploded"), "{payload}");
                let (start, end) = range.expect("range recorded");
                assert!((start..end).contains(&60), "{start}..{end}");
            }
            other => panic!("unexpected error {other:?}"),
        }
    }

    #[test]
    fn inline_worker_panic_carries_payload_and_range() {
        let err = try_parallel_ranges(5, 1, |_| -> usize { panic!("inline boom") })
            .expect_err("must surface the panic");
        match &err {
            XbfsError::KernelPanic { payload, range } => {
                assert!(payload.contains("inline boom"), "{payload}");
                assert_eq!(*range, Some((0, 5)));
            }
            other => panic!("unexpected error {other:?}"),
        }
    }

    #[test]
    fn infallible_wrapper_repanics_with_context() {
        let caught = std::panic::catch_unwind(|| {
            parallel_ranges(8, 2, |r| {
                if r.start == 0 {
                    panic!("first chunk failed");
                }
                r.len()
            })
        })
        .expect_err("must panic");
        let msg = caught.downcast_ref::<String>().cloned().unwrap_or_default();
        assert!(msg.contains("first chunk failed"), "{msg}");
        assert!(msg.contains("0..4"), "{msg}");
    }

    #[test]
    fn typed_panic_payload_preserves_value_and_type_name() {
        let err = try_parallel_ranges(10, 2, |r| {
            if r.start == 0 {
                std::panic::panic_any(42u32);
            }
            r.len()
        })
        .expect_err("must surface the panic");
        match &err {
            XbfsError::KernelPanic { payload, .. } => {
                assert!(payload.contains("42"), "{payload}");
                assert!(payload.contains("u32"), "{payload}");
            }
            other => panic!("unexpected error {other:?}"),
        }
    }

    #[test]
    fn typed_panic_payload_covers_error_and_string_types() {
        let boxed: Box<str> = "boxed boom".into();
        let err = try_parallel_ranges(4, 1, move |_| -> usize {
            std::panic::panic_any(boxed.clone())
        })
        .expect_err("must surface the panic");
        match &err {
            XbfsError::KernelPanic { payload, .. } => {
                assert!(payload.contains("boxed boom"), "{payload}");
                assert!(payload.contains("Box<str>"), "{payload}");
            }
            other => panic!("unexpected error {other:?}"),
        }

        let nested = XbfsError::InvalidArgument {
            what: "inner typed error".to_string(),
        };
        let err = try_parallel_ranges(4, 1, move |_| -> usize {
            std::panic::panic_any(nested.clone())
        })
        .expect_err("must surface the panic");
        match &err {
            XbfsError::KernelPanic { payload, .. } => {
                assert!(payload.contains("inner typed error"), "{payload}");
                assert!(payload.contains("XbfsError"), "{payload}");
            }
            other => panic!("unexpected error {other:?}"),
        }
    }

    #[test]
    fn unknown_panic_payload_keeps_a_stable_marker() {
        #[derive(Debug)]
        struct Opaque;
        let err = try_parallel_ranges(4, 1, |_| -> usize { std::panic::panic_any(Opaque) })
            .expect_err("must surface the panic");
        match &err {
            XbfsError::KernelPanic { payload, .. } => {
                assert!(payload.contains("non-string panic payload"), "{payload}");
                assert!(payload.contains("TypeId"), "{payload}");
            }
            other => panic!("unexpected error {other:?}"),
        }
    }

    #[test]
    fn pool_worker_panic_is_enriched_not_bare() {
        // A panicking chunk inside the work-stealing pool surfaces as the
        // enriched KernelPanic message, with no deadlock and no strays.
        let g = xbfs_graph::gen::star(512);
        let state = ParState::init(512, 0);
        let pool = WorkerPool::new(3);
        let caught = std::thread::scope(|s| {
            for w in 1..3 {
                let pool = &pool;
                let state = &state;
                let g = &g;
                s.spawn(move || pool.worker_loop(g, state, &NULL_SINK, w));
            }
            let _guard = pool.shutdown_guard();
            std::panic::catch_unwind(AssertUnwindSafe(|| {
                pool.dispatch(
                    &g,
                    &state,
                    &NULL_SINK,
                    LevelJob::TopDown {
                        frontier: vec![0, 1_000_000], // second vertex out of range
                        next_level: 1,
                    },
                );
            }))
        })
        .expect_err("out-of-range frontier vertex must panic");
        let msg = caught.downcast_ref::<String>().cloned().unwrap_or_default();
        assert!(msg.contains("kernel worker panicked"), "{msg}");
    }
}
