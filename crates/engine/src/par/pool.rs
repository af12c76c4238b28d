//! The work-stealing [`WorkerPool`], the scheduler behind [`super::run`]:
//! `threads - 1` helper workers are spawned once per traversal and parked
//! between levels; each level the driver publishes a [`LevelJob`] and
//! every worker (driver included) claims fixed-size chunks off a shared
//! atomic cursor until the item space is drained. A hub-heavy chunk
//! delays one worker by at most one chunk's work instead of serializing a
//! statically assigned range.
//!
//! Panic hygiene: a worker that panics never tears down the process with
//! a bare "worker panicked". The pool catches the unwind at the chunk
//! boundary and surfaces a typed [`XbfsError::KernelPanic`] carrying the
//! worker's original payload and the item range it was processing; the
//! infallible entry points re-panic with that same enriched message.

use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{Condvar, Mutex, RwLock};
use std::time::Instant;

use super::{bottomup, topdown, ParState};
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

/// What one level produced, as the kernels fold it at discovery time:
/// one worker's share or a whole merged level.
#[derive(Clone, Debug, Default)]
pub(crate) struct LevelOutcome {
    /// Vertices discovered (claimed or adopted), in discovery order.
    pub next: Vec<VertexId>,
    /// Edges examined.
    pub edges_examined: u64,
    /// Σ degree over `next` — the next level's `|E|cq`, folded in here so
    /// the driver never rescans the frontier.
    pub next_edges: u64,
    /// Max degree over `next` — the next level's serial critical path.
    pub next_max_degree: u64,
}

impl LevelOutcome {
    /// Record a discovered vertex and fold its degree into the next
    /// frontier's stats.
    #[inline]
    pub(crate) fn discover(&mut self, v: VertexId, degree: u64) {
        self.next.push(v);
        self.next_edges = self.next_edges.saturating_add(degree);
        self.next_max_degree = self.next_max_degree.max(degree);
    }

    /// Merge this share into `out`, after what `out` already holds.
    /// Saturating folds: a pathological dense frontier must clamp at
    /// `u64::MAX` rather than wrap and corrupt the next switch decision.
    pub(crate) fn merge_into(self, out: &mut LevelOutcome) {
        out.next.extend_from_slice(&self.next);
        out.edges_examined = out.edges_examined.saturating_add(self.edges_examined);
        out.next_edges = out.next_edges.saturating_add(self.next_edges);
        out.next_max_degree = out.next_max_degree.max(self.next_max_degree);
    }
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
}

impl LevelJob {
    /// Size of the item space the cursor runs over.
    fn n_items(&self, csr: &Csr) -> usize {
        match self {
            LevelJob::Publish { frontier, .. } | LevelJob::TopDown { frontier, .. } => {
                frontier.len()
            }
            LevelJob::BottomUp { .. } => csr.num_vertices() as usize,
        }
    }

    /// Fixed chunk a worker claims per cursor bump.
    fn chunk(&self) -> usize {
        match self {
            LevelJob::Publish { .. } => PUBLISH_CHUNK,
            LevelJob::TopDown { .. } => TD_CHUNK,
            LevelJob::BottomUp { .. } => BU_CHUNK,
        }
    }

    /// `(op label, level index)` for the kernel span this job emits when
    /// traced; `None` for the publish phases (bookkeeping, not a kernel).
    fn kernel_span(&self) -> Option<(&'static str, u32)> {
        match self {
            LevelJob::Publish { .. } => None,
            LevelJob::TopDown { next_level, .. } => Some(("td-kernel", next_level - 1)),
            LevelJob::BottomUp { next_level, .. } => Some(("bu-kernel", next_level - 1)),
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
    partials: Vec<Mutex<LevelOutcome>>,
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
                .map(|_| Mutex::new(LevelOutcome::default()))
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
        let mut local = LevelOutcome::default();
        let mut maps = state;
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
                    &mut maps,
                    *next_level,
                    &mut local,
                ),
                LevelJob::BottomUp { bits, next_level } => {
                    bottomup::chunk(csr, bits, range.clone(), &mut maps, *next_level, &mut local)
                }
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
    pub(crate) fn collect(&self) -> LevelOutcome {
        let mut out = LevelOutcome::default();
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
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::trace::NULL_SINK;

    /// The rendering of the payload `f` panics with.
    fn rendered_panic(f: impl FnOnce() + std::panic::UnwindSafe) -> String {
        payload_to_string(&*catch_unwind(f).expect_err("must panic"))
    }

    #[test]
    fn typed_panic_payload_preserves_value_and_type_name() {
        let payload = rendered_panic(|| std::panic::panic_any(42u32));
        assert!(payload.contains("42"), "{payload}");
        assert!(payload.contains("u32"), "{payload}");
    }

    #[test]
    fn typed_panic_payload_covers_error_and_string_types() {
        let boxed: Box<str> = "boxed boom".into();
        let payload = rendered_panic(move || std::panic::panic_any(boxed));
        assert!(payload.contains("boxed boom"), "{payload}");
        assert!(payload.contains("Box<str>"), "{payload}");

        let nested = XbfsError::InvalidArgument {
            what: "inner typed error".to_string(),
        };
        let payload = rendered_panic(move || std::panic::panic_any(nested));
        assert!(payload.contains("inner typed error"), "{payload}");
        assert!(payload.contains("XbfsError"), "{payload}");
    }

    #[test]
    fn unknown_panic_payload_keeps_a_stable_marker() {
        #[derive(Debug)]
        struct Opaque;
        let payload = rendered_panic(|| std::panic::panic_any(Opaque));
        assert!(payload.contains("non-string panic payload"), "{payload}");
        assert!(payload.contains("TypeId"), "{payload}");
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
