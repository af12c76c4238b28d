//! Bottom-up BFS (the paper's Algorithm 2): the stepping engine with every
//! level forced bottom-up. The level kernel itself lives with its parallel
//! driver in [`par`](crate::par); see [`hybrid`] for how a level runs.

use crate::{hybrid, AlwaysBottomUp, Traversal};
use xbfs_graph::{Csr, VertexId};

/// Run a complete bottom-up traversal from `source`.
pub fn run(csr: &Csr, source: VertexId) -> Traversal {
    hybrid::run(csr, source, &mut AlwaysBottomUp)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{topdown, Direction};
    use xbfs_graph::gen;

    #[test]
    fn matches_topdown_levels_on_path() {
        let g = gen::path(7);
        let bu = run(&g, 0);
        let td = topdown::run(&g, 0);
        assert_eq!(bu.output.levels, td.output.levels);
    }

    #[test]
    fn matches_topdown_levels_on_rmat() {
        let g = xbfs_graph::rmat::rmat_csr(9, 8);
        for src in [0u32, 17, 300] {
            let bu = run(&g, src);
            let td = topdown::run(&g, src);
            assert_eq!(bu.output.levels, td.output.levels, "source {src}");
        }
    }

    #[test]
    fn first_level_examines_many_edges_on_clique() {
        // With only the source in the frontier every other vertex must probe
        // until it happens upon the source — worst case for bottom-up.
        let g = gen::complete(16);
        let t = run(&g, 0);
        let l0 = &t.levels[0];
        assert_eq!(l0.direction, Direction::BottomUp);
        assert_eq!(l0.frontier_vertices, 1);
        // Every non-source vertex probes until it hits vertex 0, which is
        // first in every sorted neighbor list → exactly 15 probes here, but
        // crucially `vertices_scanned` covers the whole graph.
        assert_eq!(l0.vertices_scanned, 16);
        assert_eq!(l0.discovered, 15);
    }

    #[test]
    fn early_exit_bounds_examined_by_unvisited_edges() {
        let g = xbfs_graph::rmat::rmat_csr(8, 16);
        let t = run(&g, 1);
        for l in &t.levels {
            assert!(
                l.edges_examined <= l.unvisited_edges,
                "level {}: examined {} > unvisited {}",
                l.level,
                l.edges_examined,
                l.unvisited_edges
            );
        }
    }

    #[test]
    fn parent_is_frontier_member() {
        let g = gen::grid(5, 5);
        let t = run(&g, 12);
        for v in 0..25u32 {
            if v == 12 || !t.output.visited(v) {
                continue;
            }
            let p = t.output.parents[v as usize];
            assert!(g.has_edge(p, v));
            assert_eq!(t.output.levels[v as usize], t.output.levels[p as usize] + 1);
        }
    }

    #[test]
    fn disconnected_stays_unreached() {
        let g = gen::two_cliques(4);
        let t = run(&g, 5);
        assert_eq!(t.output.visited_count(), 4);
        for v in 0..4 {
            assert!(!t.output.visited(v));
        }
    }
}
