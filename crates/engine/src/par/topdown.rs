//! The top-down level kernel (the paper's Algorithm 1).
//!
//! For every frontier vertex `u`, examine every out-edge `(u, v)` and
//! claim `v` if it is unvisited (lines 7–12 of Algorithm 1). A level
//! examines exactly the frontier's out-degree sum, `|E|cq`, which is the
//! whole point of top-down on small frontiers.
//!
//! [`chunk`] is the unit of work. The work-stealing pool feeds it
//! cursor-claimed frontier chunks and claims through the CAS of
//! [`ParState`](super::ParState): exactly one claimant wins per vertex,
//! so each discovered vertex lands in exactly one worker's local
//! next-queue. The stepping engine feeds it the whole frontier as one
//! chunk and claims with plain stores.

use super::pool::LevelOutcome;
use super::TreeMaps;
use xbfs_graph::{Csr, VertexId};

/// Expand one contiguous chunk of the frontier, accumulating into `out`.
///
/// Each discovered vertex's degree is folded into `out`'s next-frontier
/// stats at claim time, so the driver's switch decision needs no serial
/// rescan of the next frontier.
pub(crate) fn chunk(
    csr: &Csr,
    frontier: &[VertexId],
    maps: &mut impl TreeMaps,
    next_level: u32,
    out: &mut LevelOutcome,
) {
    for &u in frontier {
        for &v in csr.neighbors(u) {
            out.edges_examined += 1;
            if maps.claim(v, u, next_level) {
                out.discover(v, csr.degree(v));
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::par::ParState;

    /// Expand `frontier` to level 1 as one chunk, the way a single worker
    /// claiming the whole frontier would.
    fn expand(g: &Csr, frontier: &[VertexId], mut state: &ParState) -> LevelOutcome {
        let mut out = LevelOutcome::default();
        chunk(g, frontier, &mut state, 1, &mut out);
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
    fn folds_next_frontier_degrees_at_claim_time() {
        let g = xbfs_graph::rmat::rmat_csr(8, 8);
        let state = ParState::init(g.num_vertices(), 0);
        let out = expand(&g, &[0], &state);
        let expected_sum: u64 = out.next.iter().map(|&v| g.degree(v)).sum();
        let expected_max: u64 = out.next.iter().map(|&v| g.degree(v)).max().unwrap_or(0);
        assert_eq!(out.next_edges, expected_sum);
        assert_eq!(out.next_max_degree, expected_max);
    }
}
