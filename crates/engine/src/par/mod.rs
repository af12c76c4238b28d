//! The BFS level kernels and the multi-threaded drivers that run them.
//!
//! One kernel pair serves every engine: the top-down chunk kernel (the
//! paper's Algorithm 1) and the bottom-up one (Algorithm 2). They reach
//! the parent and level maps through the crate-private `TreeMaps` trait:
//! CAS parent-claiming on shared atomic maps for the pool's workers (first
//! writer wins, exactly one tree edge per vertex), plain stores on a
//! [`BfsOutput`] for the stepping engine. Bottom-up is owner-computes
//! either way: each worker exclusively scans the vertices of the chunks
//! it claims, so parent writes need no CAS.
//!
//! One **work-stealing** scheduler drives the kernels on threads ([`run`] /
//! [`run_traced`]): a persistent worker pool spawned once per traversal;
//! workers claim fixed-size chunks of the frontier (top-down) or vertex
//! range (bottom-up) off a shared atomic cursor, so an R-MAT hub cannot
//! serialize a level by landing in one worker's statically assigned range.
//! EXPERIMENTS.md keeps the last measurements of the static fork-join
//! scheduler it replaced.
//!
//! Every driver traverses one source. A batch of sources
//! (`xbfs_core::BatchSession`) steps each lane through the stepping
//! engine on its own.
//!
//! Parallel runs may pick different *parents* than sequential runs (the CAS
//! race is won by an arbitrary frontier vertex) but always produce identical
//! *level maps* — the property the test suite pins down. With
//! `threads == 1` the pool degenerates to sequential execution on the
//! calling thread (chunks are claimed in order, nothing is spawned). The
//! stepping engine ([`TraversalState::step`]) runs each level as one
//! in-order chunk on the calling thread, which is exactly what a
//! one-thread dispatch runs, so it matches a one-thread [`run`] parent for
//! parent by construction.
//!
//! [`TraversalState::step`]: crate::TraversalState::step

mod bottomup;
mod pool;
mod topdown;

pub use pool::payload_to_string;

use crate::{
    stats::LevelRecord,
    trace::{TraceEvent, TraceSink, NULL_SINK},
    BfsOutput, Direction, SwitchContext, SwitchPolicy, Traversal, UNREACHED,
};
use pool::LevelOutcome;
use std::sync::atomic::{AtomicU32, Ordering};
use xbfs_graph::{AtomicBitmap, Bitmap, Csr, VertexId, NO_PARENT};

/// The parent and level maps a level kernel writes its tree into.
///
/// `&ParState` claims with a CAS, so the pool's workers can share it;
/// [`BfsOutput`] stores plainly, for the stepping engine on one thread.
/// The kernels are generic over the two because stable Rust has no safe
/// zero-copy view of `&mut [u32]` as `&[AtomicU32]`, and converting the
/// maps once per level would add an O(V) copy to every served query.
pub(crate) trait TreeMaps {
    /// `true` if `v` has been visited.
    fn visited(&self, v: VertexId) -> bool;

    /// Claim `v` with parent `u` at `level` if it is unvisited; `true` if
    /// this call claimed it (top-down).
    fn claim(&mut self, v: VertexId, u: VertexId, level: u32) -> bool;

    /// Adopt the unvisited `v` with parent `u` at `level`. The caller owns
    /// `v` exclusively (bottom-up owner-computes), so no race is possible.
    fn adopt(&mut self, v: VertexId, u: VertexId, level: u32);
}

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

impl TreeMaps for &ParState {
    #[inline]
    fn visited(&self, v: VertexId) -> bool {
        self.parents[v as usize].load(Ordering::Relaxed) != NO_PARENT
    }

    #[inline]
    fn claim(&mut self, v: VertexId, u: VertexId, level: u32) -> bool {
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

    #[inline]
    fn adopt(&mut self, v: VertexId, u: VertexId, level: u32) {
        debug_assert!(!self.visited(v));
        self.parents[v as usize].store(u, Ordering::Relaxed);
        self.levels[v as usize].store(level, Ordering::Relaxed);
    }
}

impl TreeMaps for BfsOutput {
    #[inline]
    fn visited(&self, v: VertexId) -> bool {
        BfsOutput::visited(self, v)
    }

    #[inline]
    fn claim(&mut self, v: VertexId, u: VertexId, level: u32) -> bool {
        let fresh = !self.visited(v);
        if fresh {
            self.adopt(v, u, level);
        }
        fresh
    }

    #[inline]
    fn adopt(&mut self, v: VertexId, u: VertexId, level: u32) {
        debug_assert!(!self.visited(v));
        self.parents[v as usize] = u;
        self.levels[v as usize] = level;
    }
}

/// Run one level on the calling thread: the whole frontier (top-down) or
/// the whole vertex range (bottom-up) as one in-order chunk, which is
/// exactly what a one-thread pool dispatch runs. Returns the level's
/// outcome and its `vertices_scanned`.
pub(crate) fn level_inline(
    csr: &Csr,
    frontier: &[VertexId],
    direction: Direction,
    output: &mut BfsOutput,
    next_level: u32,
) -> (LevelOutcome, u64) {
    let mut out = LevelOutcome::default();
    let scanned = match direction {
        Direction::TopDown => {
            topdown::chunk(csr, frontier, output, next_level, &mut out);
            frontier.len() as u64
        }
        Direction::BottomUp => {
            // Filled with plain stores, then copied into the atomic
            // words the kernel reads: one word per 64 vertices.
            let n = csr.num_vertices() as usize;
            let mut bits = Bitmap::new(n);
            for &v in frontier {
                bits.set(v);
            }
            let bits = AtomicBitmap::from(&bits);
            bottomup::chunk(csr, &bits, 0..n, output, next_level, &mut out);
            n as u64
        }
    };
    (out, scanned)
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
    mut exec: impl FnMut(Vec<VertexId>, Direction, u32) -> (LevelOutcome, u64),
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
        // With one thread even the parent choices match the stepping
        // engine: in-order chunk claiming, no races. Pinned for every
        // direction script on a skewed, a long-diameter and a
        // disconnected graph.
        let rmat = xbfs_graph::rmat::rmat_csr(9, 16);
        let comps = xbfs_graph::components::connected_components(&rmat);
        let giant = comps.largest().expect("non-empty graph");
        let giant_source = comps.members(giant)[0];
        let graphs = [
            ("rmat", rmat, giant_source),
            ("road", gen::road_like(12, 16, 20, 3), 0),
            ("two-cliques", gen::two_cliques(9), 11),
        ];
        let policy = |name: &str| -> Box<dyn SwitchPolicy> {
            match name {
                "td" => Box::new(AlwaysTopDown),
                "bu" => Box::new(AlwaysBottomUp),
                _ => Box::new(FixedMN::new(14.0, 24.0)),
            }
        };
        for (graph, g, source) in &graphs {
            for name in ["td", "bu", "hybrid"] {
                let seq = hybrid::run(g, *source, policy(name).as_mut());
                let stealing = run(g, *source, policy(name).as_mut(), 1);
                assert_eq!(seq.output, stealing.output, "{graph} {name}");
                assert_eq!(seq.levels, stealing.levels, "{graph} {name}");
                assert!(seq.levels.len() > 1, "{graph} {name}: trivial run");
            }
        }
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
