//! Parallel top-down level kernel.
//!
//! Workers examine the out-edges of frontier vertices and claim unvisited
//! targets with a CAS ([`ParState::claim`]). Exactly one claimant wins per
//! vertex, so each discovered vertex lands in exactly one worker's local
//! next-queue — concatenating the locals yields a duplicate-free next
//! frontier without any shared queue contention.
//!
//! [`chunk`] is the unit of work the work-stealing pool feeds with
//! cursor-claimed frontier chunks.

use super::multi::MultiParState;
use super::pool::Partial;
use super::ParState;
use std::ops::Range;
use xbfs_graph::{Csr, VertexId};

/// Expand one contiguous chunk of the frontier, accumulating into `out`.
///
/// Each discovered vertex's degree is folded into `out`'s next-frontier
/// stats at claim time, so the driver's switch decision needs no serial
/// rescan of the next frontier.
pub(crate) fn chunk(
    csr: &Csr,
    frontier: &[VertexId],
    state: &ParState,
    next_level: u32,
    out: &mut Partial,
) {
    for &u in frontier {
        for &v in csr.neighbors(u) {
            out.edges_examined += 1;
            if state.claim(v, u, next_level) {
                out.discover(v, csr.degree(v));
            }
        }
    }
}

/// Expand one chunk of a lane-packed multi-source top-down level.
///
/// The item space is the concatenation of every lane's frontier (prefix
/// sums in `offsets`); `range` is a cursor-claimed slice of it, possibly
/// spanning lane boundaries. Each lane's frontier is swept *in that
/// lane's own order*, so with one thread every lane reproduces its solo
/// sequential parents exactly; claims land as single bits in the shared
/// lane-packed visited words. Per-lane Σdeg / max-deg fold into the
/// partial's lane accumulators at claim time ([`Partial::discover_in`]),
/// so the per-batch switch decision needs no frontier rescan.
pub(crate) fn multi_chunk(
    csr: &Csr,
    state: &MultiParState,
    frontiers: &[Vec<VertexId>],
    offsets: &[usize],
    range: Range<usize>,
    next_level: u32,
    out: &mut Partial,
) {
    out.ensure_lanes(frontiers.len());
    let mut idx = range.start;
    while idx < range.end {
        // Last lane whose start offset is <= idx; duplicate offsets from
        // empty lanes resolve to the following non-empty lane.
        let lane = offsets.partition_point(|&o| o <= idx) - 1;
        let lane_end = offsets[lane + 1].min(range.end);
        let local = (idx - offsets[lane])..(lane_end - offsets[lane]);
        for &u in &frontiers[lane][local] {
            for &v in csr.neighbors(u) {
                out.lanes[lane].edges_examined += 1;
                if state.claim(v, lane, u, next_level) {
                    out.discover_in(lane, v, csr.degree(v));
                }
            }
        }
        idx = lane_end;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Expand `frontier` to level 1 as one chunk, the way a single worker
    /// claiming the whole frontier would.
    fn expand(g: &Csr, frontier: &[VertexId], state: &ParState) -> Partial {
        let mut out = Partial::default();
        chunk(g, frontier, state, 1, &mut out);
        out
    }

    #[test]
    fn discovers_each_vertex_once() {
        let g = xbfs_graph::gen::complete(64);
        let state = ParState::init(64, 0);
        let out = expand(&g, &[0], &state);
        let mut found = out.next.clone();
        found.sort_unstable();
        assert_eq!(found, (1..64).collect::<Vec<_>>());
        assert_eq!(out.edges_examined, 63);
    }

    #[test]
    fn examined_sums_frontier_degrees() {
        let g = xbfs_graph::rmat::rmat_csr(8, 8);
        let state = ParState::init(g.num_vertices(), 0);
        let frontier: Vec<u32> = (0..64).collect();
        let expected: u64 = frontier.iter().map(|&v| g.degree(v)).sum();
        let out = expand(&g, &frontier, &state);
        assert_eq!(out.edges_examined, expected);
    }

    #[test]
    fn claimed_vertices_not_reclaimed() {
        let g = xbfs_graph::gen::star(10);
        let state = ParState::init(10, 0);
        let first = expand(&g, &[0], &state);
        assert_eq!(first.next.len(), 9);
        // Running the same frontier again discovers nothing new.
        let second = expand(&g, &[0], &state);
        assert!(second.next.is_empty());
    }

    #[test]
    fn folds_next_frontier_degree_stats_at_claim_time() {
        let g = xbfs_graph::rmat::rmat_csr(8, 8);
        let state = ParState::init(g.num_vertices(), 0);
        let out = expand(&g, &[0], &state);
        let expected_sum: u64 = out.next.iter().map(|&v| g.degree(v)).sum();
        let expected_max: u64 = out.next.iter().map(|&v| g.degree(v)).max().unwrap_or(0);
        assert_eq!(out.next_edges, expected_sum);
        assert_eq!(out.next_max_degree, expected_max);
    }
}
