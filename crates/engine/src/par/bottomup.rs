//! The bottom-up level kernel (the paper's Algorithm 2).
//!
//! Every unvisited vertex `v` scans its neighbors until it finds one in the
//! current frontier, adopts it as parent and stops (lines 7–12 of
//! Algorithm 2). The early exit is why bottom-up wins on huge frontiers:
//! most scans stop after a handful of probes. Conversely, on a 1-vertex
//! frontier nearly every unvisited edge is examined — the paper's GPUBU
//! level-1 pathology (Table IV). The outer loop visits every vertex, so a
//! level scans all of `|V|`.
//!
//! [`chunk`] is the unit of work over a vertex range. The work-stealing
//! pool feeds it disjoint cursor-claimed ranges, which is all
//! owner-computes needs: each vertex is written by at most one worker, so
//! adoption needs plain stores, not CAS — the structural advantage the
//! paper attributes to bottom-up ("each unvisited vertex searches for one
//! vertex from the CQ as its parent", §II-A). The stepping engine feeds it
//! the whole vertex range as one chunk.

use super::pool::LevelOutcome;
use super::TreeMaps;
use std::ops::Range;
use xbfs_graph::{AtomicBitmap, Csr, VertexId};

/// Scan one contiguous vertex range, accumulating into `out`.
///
/// Each adopted vertex's degree is folded into `out`'s next-frontier
/// stats at adoption time, so the driver's switch decision needs no
/// serial rescan of the next frontier.
pub(crate) fn chunk(
    csr: &Csr,
    frontier: &AtomicBitmap,
    range: Range<usize>,
    maps: &mut impl TreeMaps,
    next_level: u32,
    out: &mut LevelOutcome,
) {
    for v in range {
        let v = v as VertexId;
        if maps.visited(v) {
            continue;
        }
        for &u in csr.neighbors(v) {
            out.edges_examined += 1;
            if frontier.get(u) {
                maps.adopt(v, u, next_level);
                out.discover(v, csr.degree(v));
                break;
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::par::ParState;

    fn frontier_of(n: usize, members: &[VertexId]) -> AtomicBitmap {
        let bm = AtomicBitmap::new(n);
        for &v in members {
            bm.set(v);
        }
        bm
    }

    /// Scan every vertex against `frontier` to level 1 as one chunk, the
    /// way a single worker claiming the whole range would.
    fn scan(g: &Csr, frontier: &AtomicBitmap, mut state: &ParState) -> LevelOutcome {
        let mut out = LevelOutcome::default();
        chunk(
            g,
            frontier,
            0..g.num_vertices() as usize,
            &mut state,
            1,
            &mut out,
        );
        out
    }

    #[test]
    fn adopts_parents_from_frontier_only() {
        let g = xbfs_graph::gen::path(6);
        let state = ParState::init(6, 0);
        let frontier = frontier_of(6, &[0]);
        let out = scan(&g, &frontier, &state);
        assert_eq!(out.next, vec![1]);
        let tree = state.into_output();
        assert!(tree.visited(1));
        assert!(!tree.visited(2));
    }

    #[test]
    fn adopts_whole_star_and_folds_degree_stats() {
        let g = xbfs_graph::gen::star(100);
        let state = ParState::init(100, 0);
        let frontier = frontier_of(100, &[0]);
        let out = scan(&g, &frontier, &state);
        assert_eq!(out.next.len(), 99);
        // Every leaf has degree 1: folded stats must agree.
        assert_eq!(out.next_edges, 99);
        assert_eq!(out.next_max_degree, 1);
    }
}
