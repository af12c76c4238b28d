//! Lane-packed multi-source BFS: up to 64 traversals per `u64` word.
//!
//! A batch of `k ≤ 64` sources traverses the graph in *lockstep rounds*:
//! round `r` expands level `r` of every lane whose frontier is non-empty.
//! Frontier and visited membership live in one `u64` word per vertex (bit
//! = lane), so a bottom-up round is a **single union sweep** over `|V|`
//! vertices no matter how many lanes ride it — the amortization that makes
//! a k-query burst cost ~one traversal instead of k (cf. PAPERS.md,
//! *Accelerating Direction-Optimized Breadth First Search on Hybrid
//! Architectures*). Top-down rounds sweep each lane's frontier in that
//! lane's own order, so claims stay per-lane deterministic.
//!
//! The direction decision is made **per batch round**: the driver sums the
//! lanes' frontier stats (Σ`|V|cq`, Σ`|E|cq`, max frontier degree — folded
//! in by the kernels at discovery time, per lane) into one
//! [`SwitchContext`], and the existing [`SwitchPolicy`] heuristics apply
//! unchanged. Per-lane *level maps* are direction-independent, so every
//! lane's levels match its solo run at any thread count; with
//! `threads == 1` and a direction-forcing policy even the parents match
//! the sequential engine lane for lane.

use super::pool::{LevelJob, LevelOutcome, WorkerPool};
use crate::{
    error::XbfsError,
    stats::LevelRecord,
    trace::{TraceEvent, TraceSink, NULL_SINK},
    BfsOutput, Direction, SwitchContext, SwitchPolicy, Traversal, UNREACHED,
};
use std::sync::atomic::{AtomicU32, AtomicU64, Ordering};
use std::sync::Arc;
use xbfs_graph::{Csr, VertexId, NO_PARENT};

/// Most sources one lane-packed batch can carry: the bit width of the
/// frontier/visited words.
pub const MAX_LANES: usize = 64;

/// Shared traversal state for a lane-packed batch: one visited word per
/// vertex (bit = lane) plus vertex-major parent/level slots per lane.
pub(crate) struct MultiParState {
    sources: Vec<VertexId>,
    /// Lane-packed visited words, one per vertex.
    visited: Vec<AtomicU64>,
    /// `parents[v * lanes + lane]`, vertex-major for bottom-up locality.
    parents: Vec<AtomicU32>,
    levels: Vec<AtomicU32>,
}

impl MultiParState {
    fn init(num_vertices: VertexId, sources: &[VertexId]) -> Self {
        let lanes = sources.len();
        assert!(
            (1..=MAX_LANES).contains(&lanes),
            "batch must carry 1..={MAX_LANES} sources"
        );
        let n = num_vertices as usize;
        let visited: Vec<AtomicU64> = (0..n).map(|_| AtomicU64::new(0)).collect();
        let parents: Vec<AtomicU32> = (0..n * lanes).map(|_| AtomicU32::new(NO_PARENT)).collect();
        let levels: Vec<AtomicU32> = (0..n * lanes).map(|_| AtomicU32::new(UNREACHED)).collect();
        for (lane, &s) in sources.iter().enumerate() {
            assert!(s < num_vertices, "source {s} out of range");
            visited[s as usize].fetch_or(1 << lane, Ordering::Relaxed);
            parents[s as usize * lanes + lane].store(s, Ordering::Relaxed);
            levels[s as usize * lanes + lane].store(0, Ordering::Relaxed);
        }
        Self {
            sources: sources.to_vec(),
            visited,
            parents,
            levels,
        }
    }

    /// Number of lanes (sources) in the batch.
    #[inline]
    pub(crate) fn lanes(&self) -> usize {
        self.sources.len()
    }

    /// The lane-packed visited word of `v`.
    #[inline]
    pub(crate) fn visited_word(&self, v: VertexId) -> u64 {
        self.visited[v as usize].load(Ordering::Relaxed)
    }

    /// Claim `v` for `lane` with parent `u`; `true` if this call won the
    /// race (set the lane's visited bit first).
    #[inline]
    pub(crate) fn claim(&self, v: VertexId, lane: usize, u: VertexId, level: u32) -> bool {
        let bit = 1u64 << lane;
        let prev = self.visited[v as usize].fetch_or(bit, Ordering::Relaxed);
        if prev & bit == 0 {
            let slot = v as usize * self.lanes() + lane;
            self.parents[slot].store(u, Ordering::Relaxed);
            self.levels[slot].store(level, Ordering::Relaxed);
            true
        } else {
            false
        }
    }

    /// Uncontended adoption (bottom-up owner-computes; `v` is exclusive to
    /// the calling thread during the sweep).
    #[inline]
    pub(crate) fn adopt(&self, v: VertexId, lane: usize, u: VertexId, level: u32) {
        let bit = 1u64 << lane;
        debug_assert_eq!(self.visited[v as usize].load(Ordering::Relaxed) & bit, 0);
        self.visited[v as usize].fetch_or(bit, Ordering::Relaxed);
        let slot = v as usize * self.lanes() + lane;
        self.parents[slot].store(u, Ordering::Relaxed);
        self.levels[slot].store(level, Ordering::Relaxed);
    }

    /// Unpack the vertex-major slots into one [`BfsOutput`] per lane.
    fn into_outputs(self) -> Vec<BfsOutput> {
        let lanes = self.lanes();
        let n = self.visited.len();
        let parents: Vec<u32> = self
            .parents
            .into_iter()
            .map(AtomicU32::into_inner)
            .collect();
        let levels: Vec<u32> = self.levels.into_iter().map(AtomicU32::into_inner).collect();
        self.sources
            .iter()
            .enumerate()
            .map(|(lane, &source)| BfsOutput {
                source,
                parents: (0..n).map(|v| parents[v * lanes + lane]).collect(),
                levels: (0..n).map(|v| levels[v * lanes + lane]).collect(),
            })
            .collect()
    }
}

/// Publish one cursor-claimed slice of the concatenated per-lane
/// frontiers into the lane-packed words (relaxed `fetch_or`; the words
/// are read only after the dispatch barrier).
pub(crate) fn publish_chunk(
    frontiers: &[Vec<VertexId>],
    offsets: &[usize],
    words: &[AtomicU64],
    range: std::ops::Range<usize>,
) {
    let mut idx = range.start;
    while idx < range.end {
        let lane = offsets.partition_point(|&o| o <= idx) - 1;
        let lane_end = offsets[lane + 1].min(range.end);
        let local = (idx - offsets[lane])..(lane_end - offsets[lane]);
        for &v in &frontiers[lane][local] {
            words[v as usize].fetch_or(1 << lane, Ordering::Relaxed);
        }
        idx = lane_end;
    }
}

/// Per-lane driver bookkeeping between rounds.
struct LaneDrive {
    frontier: Vec<VertexId>,
    frontier_edges: u64,
    max_frontier_degree: u64,
    unvisited_vertices: u64,
    unvisited_edges: u64,
    records: Vec<LevelRecord>,
}

/// Run a lane-packed multi-source traversal from `sources` (one lane
/// each, at most [`MAX_LANES`]) on `threads` threads, returning one
/// [`Traversal`] per lane in source order.
///
/// One direction decision is made per batch round from the *summed*
/// frontier stats, so the paper's switch heuristic applies to the batch
/// as a whole; every lane's level map still matches its solo run.
///
/// # Errors
/// [`XbfsError::InvalidArgument`] for an empty or oversized batch or zero
/// threads; [`XbfsError::BadSource`] for an out-of-range source.
pub fn run_multi(
    csr: &Csr,
    sources: &[VertexId],
    policy: &mut dyn SwitchPolicy,
    threads: usize,
) -> Result<Vec<Traversal>, XbfsError> {
    run_multi_traced(csr, sources, policy, threads, &NULL_SINK)
}

/// [`run_multi`], reporting one [`TraceEvent::EngineLevel`] per batch
/// round (aggregate frontier stats, measured wall time) plus the usual
/// per-worker kernel spans to `sink`.
pub fn run_multi_traced(
    csr: &Csr,
    sources: &[VertexId],
    policy: &mut dyn SwitchPolicy,
    threads: usize,
    sink: &dyn TraceSink,
) -> Result<Vec<Traversal>, XbfsError> {
    if threads == 0 {
        return Err(XbfsError::InvalidArgument {
            what: "multi-source run needs at least one thread".to_string(),
        });
    }
    if sources.is_empty() || sources.len() > MAX_LANES {
        return Err(XbfsError::InvalidArgument {
            what: format!(
                "batch carries {} sources; 1..={MAX_LANES} lanes fit one u64 word",
                sources.len()
            ),
        });
    }
    let n = csr.num_vertices();
    for &s in sources {
        if s >= n {
            return Err(XbfsError::BadSource {
                source: s,
                num_vertices: n,
            });
        }
    }

    let lanes = sources.len();
    let total_edges = csr.num_directed_edges();
    let state = Arc::new(MultiParState::init(n, sources));
    // The single-source state slot of the worker loop is unused by
    // lane-packed jobs (they carry their own state behind `Arc`).
    let unused = super::ParState::init(1, 0);
    let worker_pool = WorkerPool::new(threads);

    let mut drives: Vec<LaneDrive> = sources
        .iter()
        .map(|&s| {
            let deg = csr.degree(s);
            LaneDrive {
                frontier: vec![s],
                frontier_edges: deg,
                max_frontier_degree: deg,
                unvisited_vertices: n as u64 - 1,
                unvisited_edges: total_edges.saturating_sub(deg),
                records: Vec::new(),
            }
        })
        .collect();

    std::thread::scope(|s| {
        let _guard = worker_pool.shutdown_guard();
        for w in 1..threads {
            let (worker_pool, unused) = (&worker_pool, &unused);
            s.spawn(move || worker_pool.worker_loop(csr, unused, sink, w));
        }

        let mut round: u32 = 0;
        loop {
            let active: Vec<usize> = (0..lanes)
                .filter(|&l| !drives[l].frontier.is_empty())
                .collect();
            if active.is_empty() {
                break;
            }
            let started = sink.enabled().then(std::time::Instant::now);
            let frontier_vertices: u64 = active
                .iter()
                .map(|&l| drives[l].frontier.len() as u64)
                .sum();
            // Saturating fold: a pathological dense batch (64 lanes of
            // near-|E| frontiers) must clamp rather than wrap and corrupt
            // the round's switch decision.
            let frontier_edges: u64 = active
                .iter()
                .fold(0u64, |sum, &l| sum.saturating_add(drives[l].frontier_edges));
            let max_frontier_degree: u64 = active
                .iter()
                .map(|&l| drives[l].max_frontier_degree)
                .max()
                .unwrap_or(0);
            let unvisited_edges: u64 = active.iter().fold(0u64, |sum, &l| {
                sum.saturating_add(drives[l].unvisited_edges)
            });
            let ctx = SwitchContext {
                level: round,
                frontier_vertices,
                frontier_edges,
                max_frontier_degree,
                unvisited_edges,
                total_vertices: n as u64,
                total_edges,
            };
            let direction = policy.direction(&ctx);

            // Per-lane frontier sizes survive the take for the records.
            let lane_fronts: Vec<u64> = drives.iter().map(|d| d.frontier.len() as u64).collect();
            let frontiers: Vec<Vec<VertexId>> = drives
                .iter_mut()
                .map(|d| std::mem::take(&mut d.frontier))
                .collect();
            let mut offsets = Vec::with_capacity(lanes + 1);
            offsets.push(0usize);
            for f in &frontiers {
                offsets.push(offsets.last().expect("non-empty") + f.len());
            }

            let outcomes: Vec<LevelOutcome> = match direction {
                Direction::TopDown => {
                    worker_pool.dispatch(
                        csr,
                        &unused,
                        sink,
                        LevelJob::MultiTopDown {
                            state: Arc::clone(&state),
                            frontiers,
                            offsets,
                            next_level: round + 1,
                        },
                    );
                    worker_pool.collect_multi(lanes)
                }
                Direction::BottomUp => {
                    let active_mask: u64 = active.iter().fold(0u64, |m, &l| m | (1 << l));
                    let words: Arc<Vec<AtomicU64>> =
                        Arc::new((0..n as usize).map(|_| AtomicU64::new(0)).collect());
                    worker_pool.dispatch(
                        csr,
                        &unused,
                        sink,
                        LevelJob::MultiPublish {
                            frontiers,
                            offsets,
                            words: Arc::clone(&words),
                        },
                    );
                    // Release the publish job (no lane accumulators).
                    let _ = worker_pool.collect();
                    worker_pool.dispatch(
                        csr,
                        &unused,
                        sink,
                        LevelJob::MultiBottomUp {
                            state: Arc::clone(&state),
                            words,
                            active: active_mask,
                            next_level: round + 1,
                        },
                    );
                    worker_pool.collect_multi(lanes)
                }
            };

            let mut batch_examined = 0u64;
            let mut batch_discovered = 0u64;
            for (lane, outcome) in outcomes.into_iter().enumerate() {
                if lane_fronts[lane] == 0 {
                    continue;
                }
                let d = &mut drives[lane];
                let discovered = outcome.next.len() as u64;
                batch_examined += outcome.edges_examined;
                batch_discovered += discovered;
                d.records.push(LevelRecord {
                    level: round,
                    frontier_vertices: lane_fronts[lane],
                    frontier_edges: d.frontier_edges,
                    max_frontier_degree: d.max_frontier_degree,
                    unvisited_vertices: d.unvisited_vertices,
                    unvisited_edges: d.unvisited_edges,
                    edges_examined: outcome.edges_examined,
                    vertices_scanned: match direction {
                        Direction::TopDown => lane_fronts[lane],
                        Direction::BottomUp => n as u64,
                    },
                    discovered,
                    direction,
                });
                d.unvisited_vertices = d.unvisited_vertices.saturating_sub(discovered);
                d.unvisited_edges = d.unvisited_edges.saturating_sub(outcome.next_edges);
                d.frontier = outcome.next;
                d.frontier_edges = outcome.next_edges;
                d.max_frontier_degree = outcome.next_max_degree;
            }
            if let Some(t0) = started {
                sink.record(&TraceEvent::EngineLevel {
                    level: round,
                    direction,
                    frontier_vertices,
                    frontier_edges,
                    edges_examined: batch_examined,
                    discovered: batch_discovered,
                    wall_s: t0.elapsed().as_secs_f64(),
                });
            }
            round += 1;
        }
    });

    let state = Arc::try_unwrap(state)
        .ok()
        .expect("job slot released after the final round");
    Ok(state
        .into_outputs()
        .into_iter()
        .zip(drives)
        .map(|(output, d)| Traversal {
            output,
            levels: d.records,
        })
        .collect())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{hybrid, validate, AlwaysBottomUp, AlwaysTopDown, FixedMN};

    fn batch_sources(n: VertexId, k: usize) -> Vec<VertexId> {
        (0..k as VertexId).map(|i| (i * 37 + 5) % n).collect()
    }

    #[test]
    fn per_lane_level_maps_match_solo_runs_across_threads() {
        let g = xbfs_graph::rmat::rmat_csr(10, 16);
        let sources = batch_sources(g.num_vertices(), 8);
        for threads in [1, 2, 4] {
            let batch =
                run_multi(&g, &sources, &mut FixedMN::new(14.0, 24.0), threads).expect("batch");
            assert_eq!(batch.len(), sources.len());
            for (lane, t) in batch.iter().enumerate() {
                let solo = hybrid::run(&g, sources[lane], &mut FixedMN::new(14.0, 24.0));
                assert_eq!(
                    t.output.levels, solo.output.levels,
                    "lane {lane} threads {threads}"
                );
                assert_eq!(validate(&g, &t.output), Ok(()));
            }
        }
    }

    #[test]
    fn forced_topdown_single_thread_matches_sequential_exactly() {
        // With one thread and a direction-forcing policy, each lane's
        // parents AND LevelRecords are bit-identical to its solo
        // sequential run: per-lane frontier sweeps in lane order.
        let g = xbfs_graph::rmat::rmat_csr(8, 16);
        let sources = batch_sources(g.num_vertices(), 5);
        let batch = run_multi(&g, &sources, &mut AlwaysTopDown, 1).expect("batch");
        for (lane, t) in batch.iter().enumerate() {
            let solo = hybrid::run(&g, sources[lane], &mut AlwaysTopDown);
            assert_eq!(t.output, solo.output, "lane {lane}");
            assert_eq!(t.levels, solo.levels, "lane {lane}");
        }
    }

    #[test]
    fn forced_bottomup_matches_sequential_at_any_thread_count() {
        // Bottom-up adoption depends only on frontier membership and
        // adjacency order — the union sweep reproduces per-lane parents
        // even with real parallelism.
        let g = xbfs_graph::rmat::rmat_csr(8, 16);
        let sources = batch_sources(g.num_vertices(), 6);
        for threads in [1, 4] {
            let batch = run_multi(&g, &sources, &mut AlwaysBottomUp, threads).expect("batch");
            for (lane, t) in batch.iter().enumerate() {
                let solo = hybrid::run(&g, sources[lane], &mut AlwaysBottomUp);
                assert_eq!(t.output, solo.output, "lane {lane} threads {threads}");
                assert_eq!(t.levels, solo.levels, "lane {lane} threads {threads}");
            }
        }
    }

    #[test]
    fn union_bottomup_per_lane_examined_matches_solo() {
        // The union sweep's per-lane edges_examined must equal each solo
        // sweep's: a still-pending lane is charged for every probe up to
        // and including its adoption.
        let g = xbfs_graph::rmat::rmat_csr(9, 8);
        let sources = batch_sources(g.num_vertices(), 7);
        let batch = run_multi(&g, &sources, &mut AlwaysBottomUp, 4).expect("batch");
        for (lane, t) in batch.iter().enumerate() {
            let solo = hybrid::run(&g, sources[lane], &mut AlwaysBottomUp);
            let batch_examined: Vec<u64> = t.levels.iter().map(|r| r.edges_examined).collect();
            let solo_examined: Vec<u64> = solo.levels.iter().map(|r| r.edges_examined).collect();
            assert_eq!(batch_examined, solo_examined, "lane {lane}");
        }
    }

    #[test]
    fn duplicate_sources_ride_separate_lanes() {
        let g = xbfs_graph::rmat::rmat_csr(8, 8);
        let batch = run_multi(&g, &[3, 3, 3], &mut FixedMN::new(14.0, 24.0), 2).expect("batch");
        assert_eq!(batch.len(), 3);
        assert_eq!(batch[0].output.levels, batch[1].output.levels);
        assert_eq!(batch[1].output.levels, batch[2].output.levels);
    }

    #[test]
    fn lanes_finish_at_different_rounds() {
        // A path traversed from both ends and the middle: lanes complete
        // at different rounds, and each lane's record count is its own
        // eccentricity + 1.
        let g = xbfs_graph::gen::path(9);
        let batch = run_multi(&g, &[0, 4, 8], &mut AlwaysTopDown, 2).expect("batch");
        for (lane, &src) in [0u32, 4, 8].iter().enumerate() {
            let solo = hybrid::run(&g, src, &mut AlwaysTopDown);
            assert_eq!(batch[lane].output.levels, solo.output.levels);
            assert_eq!(batch[lane].levels.len(), solo.levels.len());
        }
    }

    #[test]
    fn batch_bounds_are_typed_errors() {
        let g = xbfs_graph::gen::path(4);
        assert!(matches!(
            run_multi(&g, &[], &mut AlwaysTopDown, 1),
            Err(XbfsError::InvalidArgument { .. })
        ));
        let too_many: Vec<VertexId> = (0..65).map(|i| i % 4).collect();
        assert!(matches!(
            run_multi(&g, &too_many, &mut AlwaysTopDown, 1),
            Err(XbfsError::InvalidArgument { .. })
        ));
        assert!(matches!(
            run_multi(&g, &[0, 99], &mut AlwaysTopDown, 1),
            Err(XbfsError::BadSource { .. })
        ));
        assert!(matches!(
            run_multi(&g, &[0], &mut AlwaysTopDown, 0),
            Err(XbfsError::InvalidArgument { .. })
        ));
    }

    #[test]
    fn full_64_lane_word_traverses_and_validates() {
        let g = xbfs_graph::rmat::rmat_csr(8, 8);
        let sources = batch_sources(g.num_vertices(), MAX_LANES);
        let batch = run_multi(&g, &sources, &mut FixedMN::new(14.0, 24.0), 4).expect("batch");
        assert_eq!(batch.len(), MAX_LANES);
        for t in &batch {
            assert_eq!(validate(&g, &t.output), Ok(()));
        }
    }

    #[test]
    fn traced_batch_emits_one_engine_level_per_round() {
        let g = xbfs_graph::rmat::rmat_csr(8, 16);
        let sources = batch_sources(g.num_vertices(), 4);
        let sink = crate::trace::MemorySink::new();
        let batch =
            run_multi_traced(&g, &sources, &mut FixedMN::new(14.0, 24.0), 2, &sink).expect("batch");
        let rounds = batch.iter().map(|t| t.levels.len()).max().unwrap_or(0);
        let engine_levels = sink
            .events()
            .iter()
            .filter(|e| matches!(e, TraceEvent::EngineLevel { .. }))
            .count();
        assert_eq!(engine_levels, rounds);
    }
}
