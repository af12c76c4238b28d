//! Multi-threaded BFS kernels.
//!
//! These are the "real hardware" kernels behind the paper's CPU numbers and
//! the Fig. 10 scaling study: CAS parent-claiming for top-down (first
//! writer wins, exactly one tree edge per vertex) and owner-computes
//! partitioning for bottom-up (each worker exclusively scans the vertices
//! of the chunks it claims, so parent writes need no CAS).
//!
//! One **work-stealing** scheduler drives the kernels ([`run`] /
//! [`run_traced`], and the lane-packed [`run_multi`]): a persistent
//! worker pool spawned once per traversal; workers claim fixed-size chunks
//! of the frontier (top-down) or vertex range (bottom-up) off a shared
//! atomic cursor, so an R-MAT hub cannot serialize a level by landing in
//! one worker's statically assigned range. EXPERIMENTS.md keeps the last
//! measurements of the static fork-join scheduler it replaced.
//!
//! Parallel runs may pick different *parents* than sequential runs (the CAS
//! race is won by an arbitrary frontier vertex) but always produce identical
//! *level maps* — the property the test suite pins down. With
//! `threads == 1` the pool degenerates to sequential execution on the
//! calling thread (chunks are claimed in order, nothing is spawned), and
//! even the parents match the sequential engine exactly.

mod bottomup;
mod multi;
mod pool;
mod topdown;

pub use multi::{run_multi, run_multi_traced, MAX_LANES};
pub use pool::{parallel_ranges, payload_to_string, try_parallel_ranges};

use crate::{
    stats::LevelRecord,
    trace::{TraceEvent, TraceSink, NULL_SINK},
    BfsOutput, Direction, SwitchContext, SwitchPolicy, Traversal, UNREACHED,
};
use std::sync::atomic::{AtomicU32, Ordering};
use xbfs_graph::{AtomicBitmap, Csr, VertexId, NO_PARENT};

/// Shared traversal state for the parallel kernels.
///
/// Parent and level maps live in atomics for the duration of the traversal
/// and are converted to a plain [`BfsOutput`] at the end.
pub(crate) struct ParState {
    source: VertexId,
    parents: Vec<AtomicU32>,
    levels: Vec<AtomicU32>,
}

impl ParState {
    fn init(num_vertices: VertexId, source: VertexId) -> Self {
        assert!(source < num_vertices, "source {source} out of range");
        let parents: Vec<AtomicU32> = (0..num_vertices)
            .map(|_| AtomicU32::new(NO_PARENT))
            .collect();
        let levels: Vec<AtomicU32> = (0..num_vertices)
            .map(|_| AtomicU32::new(UNREACHED))
            .collect();
        parents[source as usize].store(source, Ordering::Relaxed);
        levels[source as usize].store(0, Ordering::Relaxed);
        Self {
            source,
            parents,
            levels,
        }
    }

    #[inline]
    pub(crate) fn visited(&self, v: VertexId) -> bool {
        self.parents[v as usize].load(Ordering::Relaxed) != NO_PARENT
    }

    /// Claim `v` with parent `u`; `true` if this call won the race.
    #[inline]
    pub(crate) fn claim(&self, v: VertexId, u: VertexId, level: u32) -> bool {
        if self.parents[v as usize]
            .compare_exchange(NO_PARENT, u, Ordering::Relaxed, Ordering::Relaxed)
            .is_ok()
        {
            self.levels[v as usize].store(level, Ordering::Relaxed);
            true
        } else {
            false
        }
    }

    /// Uncontended adoption (bottom-up owner-computes; `v` is exclusive to
    /// the calling thread).
    #[inline]
    pub(crate) fn adopt(&self, v: VertexId, u: VertexId, level: u32) {
        debug_assert!(!self.visited(v));
        self.parents[v as usize].store(u, Ordering::Relaxed);
        self.levels[v as usize].store(level, Ordering::Relaxed);
    }

    fn into_output(self) -> BfsOutput {
        BfsOutput {
            source: self.source,
            parents: self
                .parents
                .into_iter()
                .map(AtomicU32::into_inner)
                .collect(),
            levels: self.levels.into_iter().map(AtomicU32::into_inner).collect(),
        }
    }
}

/// Thread count for tests: `XBFS_TEST_THREADS` if set to a positive
/// integer, else `default`. Lets CI run the same suite over a
/// single-thread and a multi-thread axis without duplicating tests.
pub fn env_threads(default: usize) -> usize {
    std::env::var("XBFS_TEST_THREADS")
        .ok()
        .and_then(|s| s.trim().parse::<usize>().ok())
        .filter(|&t| t >= 1)
        .unwrap_or(default)
}

/// The level-synchronous driver: it owns the switch decision and the
/// [`LevelRecord`] bookkeeping, while `exec` runs one level on the pool
/// and returns the merged outcome plus the level's `vertices_scanned`.
///
/// The next frontier's degree stats (`|E|cq`, max degree) arrive *inside*
/// each outcome — folded in by the kernels at discovery time — so the
/// switch decision costs no per-level serial rescan of the frontier.
fn drive(
    csr: &Csr,
    source: VertexId,
    policy: &mut dyn SwitchPolicy,
    sink: &dyn TraceSink,
    mut exec: impl FnMut(Vec<VertexId>, Direction, u32) -> (pool::StolenOutcome, u64),
) -> Vec<LevelRecord> {
    let n = csr.num_vertices();
    let total_edges = csr.num_directed_edges();
    let mut frontier: Vec<VertexId> = vec![source];
    // Level 0's frontier is the single source; deeper levels inherit the
    // stats the kernels folded into the previous outcome.
    let mut frontier_edges = csr.degree(source);
    let mut max_frontier_degree = frontier_edges;
    let mut unvisited_vertices = n as u64 - 1;
    let mut unvisited_edges = total_edges.saturating_sub(frontier_edges);
    let mut records: Vec<LevelRecord> = Vec::new();
    let mut level: u32 = 0;

    while !frontier.is_empty() {
        let started = sink.enabled().then(std::time::Instant::now);
        let frontier_vertices = frontier.len() as u64;
        let ctx = SwitchContext {
            level,
            frontier_vertices,
            frontier_edges,
            max_frontier_degree,
            unvisited_edges,
            total_vertices: n as u64,
            total_edges,
        };
        let direction = policy.direction(&ctx);
        let (outcome, vertices_scanned) = exec(frontier, direction, level + 1);

        let discovered = outcome.next.len() as u64;
        records.push(LevelRecord {
            level,
            frontier_vertices,
            frontier_edges,
            max_frontier_degree,
            unvisited_vertices,
            unvisited_edges,
            edges_examined: outcome.edges_examined,
            vertices_scanned,
            discovered,
            direction,
        });
        if let Some(t0) = started {
            sink.record(&TraceEvent::EngineLevel {
                level,
                direction,
                frontier_vertices,
                frontier_edges,
                edges_examined: outcome.edges_examined,
                discovered,
                wall_s: t0.elapsed().as_secs_f64(),
            });
        }

        unvisited_vertices = unvisited_vertices.saturating_sub(discovered);
        unvisited_edges = unvisited_edges.saturating_sub(outcome.next_edges);
        frontier = outcome.next;
        frontier_edges = outcome.next_edges;
        max_frontier_degree = outcome.next_max_degree;
        level += 1;
    }
    records
}

/// Run a complete work-stealing parallel traversal from `source` on
/// `threads` threads, choosing a direction per level via `policy`.
///
/// `threads - 1` helper workers are spawned once and parked between
/// levels; every level is executed by all `threads` workers (the caller
/// included) claiming chunks off a shared cursor. `threads == 1`
/// degenerates to a sequential execution on the calling thread (no
/// spawns, in-order chunk claiming) so scaling baselines measure pure
/// kernel time and even parent choices match the sequential engine.
///
/// # Panics
/// Panics if `threads == 0`, if `source` is out of range, or if a worker
/// panics mid-kernel (re-raised with the worker's payload and item range).
pub fn run(
    csr: &Csr,
    source: VertexId,
    policy: &mut dyn SwitchPolicy,
    threads: usize,
) -> Traversal {
    run_traced(csr, source, policy, threads, &NULL_SINK)
}

/// [`run`], reporting the traversal to `sink`: one
/// [`TraceEvent::EngineLevel`] per level with measured wall time (emitted
/// by the driver) and one [`TraceEvent::Kernel`] span per participating
/// worker per kernel (emitted by the workers themselves — sinks must be
/// `Sync`, which the trait already requires). With a disabled sink this
/// is exactly [`run`] plus one virtual call per level.
pub fn run_traced(
    csr: &Csr,
    source: VertexId,
    policy: &mut dyn SwitchPolicy,
    threads: usize,
    sink: &dyn TraceSink,
) -> Traversal {
    assert!(threads >= 1, "need at least one thread");
    let n = csr.num_vertices();
    let state = ParState::init(n, source);
    let worker_pool = pool::WorkerPool::new(threads);
    let records = std::thread::scope(|s| {
        // Dropped when this closure exits — normally or by unwind — so
        // parked helpers always shut down before the scope joins them.
        let _guard = worker_pool.shutdown_guard();
        for w in 1..threads {
            let (worker_pool, state) = (&worker_pool, &state);
            s.spawn(move || worker_pool.worker_loop(csr, state, sink, w));
        }
        drive(
            csr,
            source,
            policy,
            sink,
            |frontier, direction, next_level| match direction {
                Direction::TopDown => {
                    let scanned = frontier.len() as u64;
                    worker_pool.dispatch(
                        csr,
                        &state,
                        sink,
                        pool::LevelJob::TopDown {
                            frontier,
                            next_level,
                        },
                    );
                    (worker_pool.collect(), scanned)
                }
                Direction::BottomUp => {
                    // Two dispatches: publish the frontier bitmap, then
                    // scan against it. The bitmap is only read after the
                    // publish barrier, so relaxed `fetch_or` publication
                    // is safe.
                    let bits = AtomicBitmap::new(n as usize);
                    worker_pool.dispatch(
                        csr,
                        &state,
                        sink,
                        pool::LevelJob::Publish { frontier, bits },
                    );
                    let bits = worker_pool.take_published();
                    worker_pool.dispatch(
                        csr,
                        &state,
                        sink,
                        pool::LevelJob::BottomUp { bits, next_level },
                    );
                    (worker_pool.collect(), n as u64)
                }
            },
        )
    });
    Traversal {
        output: state.into_output(),
        levels: records,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::trace::MemorySink;
    use crate::{hybrid, validate, AlwaysBottomUp, AlwaysTopDown, FixedMN};
    use xbfs_graph::gen;

    fn level_maps_match(csr: &Csr, source: VertexId, threads: usize) {
        let seq = hybrid::run(csr, source, &mut FixedMN::new(14.0, 24.0));
        let par = run(csr, source, &mut FixedMN::new(14.0, 24.0), threads);
        assert_eq!(seq.output.levels, par.output.levels);
        assert_eq!(validate(csr, &par.output), Ok(()));
    }

    #[test]
    fn parallel_hybrid_matches_sequential_on_rmat() {
        let g = xbfs_graph::rmat::rmat_csr(10, 16);
        for threads in [1, 2, 4, 8] {
            level_maps_match(&g, 0, threads);
        }
    }

    #[test]
    fn parallel_records_match_sequential_hybrid_records() {
        // Not just the level maps: every LevelRecord field the sequential
        // driver computes (frontier stats, examined counts, unvisited
        // accounting) must be reproduced by the folded-stats parallel
        // driver, at any thread count.
        let g = xbfs_graph::rmat::rmat_csr(9, 16);
        let seq = hybrid::run(&g, 0, &mut FixedMN::new(14.0, 24.0));
        for threads in [1, 2, 4, 8] {
            let par = run(&g, 0, &mut FixedMN::new(14.0, 24.0), threads);
            assert_eq!(seq.levels, par.levels, "threads={threads}");
        }
    }

    #[test]
    fn parallel_topdown_validates() {
        let g = xbfs_graph::rmat::rmat_csr(9, 8);
        let t = run(&g, 5, &mut AlwaysTopDown, 4);
        assert_eq!(validate(&g, &t.output), Ok(()));
        assert!(t.levels.iter().all(|l| l.direction == Direction::TopDown));
    }

    #[test]
    fn parallel_bottomup_validates() {
        let g = xbfs_graph::rmat::rmat_csr(9, 8);
        let t = run(&g, 5, &mut AlwaysBottomUp, 4);
        assert_eq!(validate(&g, &t.output), Ok(()));
        assert!(t.levels.iter().all(|l| l.direction == Direction::BottomUp));
    }

    #[test]
    fn more_threads_than_work() {
        let g = gen::path(5);
        let t = run(&g, 0, &mut AlwaysTopDown, 16);
        assert_eq!(t.output.visited_count(), 5);
        assert_eq!(validate(&g, &t.output), Ok(()));
    }

    #[test]
    fn disconnected_graph_parallel() {
        let g = gen::two_cliques(5);
        let t = run(&g, 7, &mut FixedMN::new(14.0, 24.0), 3);
        assert_eq!(t.output.visited_count(), 5);
        assert_eq!(validate(&g, &t.output), Ok(()));
    }

    #[test]
    fn single_thread_matches_sequential_exactly() {
        // With one thread even the parent choices match the sequential
        // engine: in-order chunk claiming, no races.
        let g = xbfs_graph::rmat::rmat_csr(8, 16);
        let seq = hybrid::run(&g, 0, &mut AlwaysTopDown);
        let stealing = run(&g, 0, &mut AlwaysTopDown, 1);
        assert_eq!(seq.output, stealing.output);
        assert_eq!(seq.levels, stealing.levels);
    }

    #[test]
    #[should_panic(expected = "at least one thread")]
    fn zero_threads_rejected() {
        let g = gen::path(2);
        run(&g, 0, &mut AlwaysTopDown, 0);
    }

    #[test]
    fn traced_run_matches_untraced_and_emits_levels_and_kernel_spans() {
        let g = xbfs_graph::rmat::rmat_csr(9, 16);
        let threads = 4;
        let plain = run(&g, 0, &mut FixedMN::new(14.0, 24.0), threads);
        let sink = MemorySink::new();
        let traced = run_traced(&g, 0, &mut FixedMN::new(14.0, 24.0), threads, &sink);
        assert_eq!(traced.output.levels, plain.output.levels);
        assert_eq!(traced.levels, plain.levels);

        let events = sink.events();
        let engine_levels: Vec<_> = events
            .iter()
            .filter(|e| matches!(e, TraceEvent::EngineLevel { .. }))
            .collect();
        assert_eq!(engine_levels.len(), plain.levels.len());
        for (ev, rec) in engine_levels.iter().zip(&plain.levels) {
            if let TraceEvent::EngineLevel {
                level,
                direction,
                frontier_vertices,
                frontier_edges,
                edges_examined,
                discovered,
                wall_s,
            } = ev
            {
                assert_eq!(*level, rec.level);
                assert_eq!(*direction, rec.direction);
                assert_eq!(*frontier_vertices, rec.frontier_vertices);
                assert_eq!(*frontier_edges, rec.frontier_edges);
                assert_eq!(*edges_examined, rec.edges_examined);
                assert_eq!(*discovered, rec.discovered);
                assert!(wall_s.is_finite() && *wall_s >= 0.0);
            }
        }

        // Kernel spans: at least one per level (some worker always claims
        // work), each well-formed, never more than `threads` per level.
        let mut per_level = std::collections::BTreeMap::<u32, usize>::new();
        for ev in &events {
            if let TraceEvent::Kernel {
                device,
                op,
                level,
                attempt,
                start_s,
                end_s,
                ok,
            } = ev
            {
                assert_eq!(*device, "cpu");
                assert!(*op == "td-kernel" || *op == "bu-kernel", "{op}");
                assert!((*attempt as usize) < threads);
                assert!(*start_s >= 0.0 && *end_s >= *start_s);
                assert!(*ok);
                *per_level.entry(*level).or_default() += 1;
            }
        }
        for rec in &plain.levels {
            let spans = per_level.get(&rec.level).copied().unwrap_or(0);
            assert!(
                (1..=threads).contains(&spans),
                "level {} has {spans} kernel spans",
                rec.level
            );
        }
    }

    #[test]
    fn env_threads_defaults_and_parses() {
        // Avoid mutating the process environment (racy under the parallel
        // test runner): unset means default.
        if std::env::var("XBFS_TEST_THREADS").is_err() {
            assert_eq!(env_threads(3), 3);
        } else {
            // When CI pins the variable, it must parse to a positive count.
            assert!(env_threads(3) >= 1);
        }
    }
}
