//! Top-down BFS (the paper's Algorithm 1): the stepping engine with every
//! level forced top-down. The level kernel itself lives with its parallel
//! driver in [`par`](crate::par); see [`hybrid`] for how a level runs.

use crate::{hybrid, AlwaysTopDown, Traversal};
use xbfs_graph::{Csr, VertexId};

/// Run a complete top-down traversal from `source`.
pub fn run(csr: &Csr, source: VertexId) -> Traversal {
    hybrid::run(csr, source, &mut AlwaysTopDown)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{Direction, UNREACHED};
    use xbfs_graph::gen;

    #[test]
    fn path_levels_match_distance() {
        let g = gen::path(6);
        let t = run(&g, 0);
        for v in 0..6u32 {
            assert_eq!(t.output.levels[v as usize], v);
        }
        assert_eq!(t.depth(), 6); // 5 discovering levels + final empty expand
    }

    #[test]
    fn star_two_levels() {
        let g = gen::star(10);
        let t = run(&g, 0);
        assert_eq!(t.output.max_level(), 1);
        assert_eq!(t.output.visited_count(), 10);
        // Level 0 examines the hub's 9 edges.
        assert_eq!(t.levels[0].edges_examined, 9);
        assert_eq!(t.levels[0].discovered, 9);
    }

    #[test]
    fn leaf_source_in_star() {
        let g = gen::star(5);
        let t = run(&g, 3);
        assert_eq!(t.output.levels[3], 0);
        assert_eq!(t.output.levels[0], 1);
        for v in [1u32, 2, 4] {
            assert_eq!(t.output.levels[v as usize], 2);
            assert_eq!(t.output.parents[v as usize], 0);
        }
    }

    #[test]
    fn disconnected_component_unreached() {
        let g = gen::two_cliques(3);
        let t = run(&g, 0);
        for v in 0..3 {
            assert_ne!(t.output.levels[v as usize], UNREACHED);
        }
        for v in 3..6 {
            assert_eq!(t.output.levels[v as usize], UNREACHED);
        }
        assert_eq!(t.output.visited_count(), 3);
    }

    #[test]
    fn examined_equals_frontier_edges_every_level() {
        let g = xbfs_graph::rmat::rmat_csr(8, 8);
        let t = run(&g, 0);
        for l in &t.levels {
            assert_eq!(l.direction, Direction::TopDown);
            assert_eq!(l.edges_examined, l.frontier_edges);
            assert_eq!(l.vertices_scanned, l.frontier_vertices);
        }
    }

    #[test]
    fn parents_are_tree_edges() {
        let g = gen::grid(4, 4);
        let t = run(&g, 0);
        for v in 1..16u32 {
            let p = t.output.parents[v as usize];
            assert!(g.has_edge(p, v), "parent edge ({p},{v}) missing");
            assert_eq!(t.output.levels[v as usize], t.output.levels[p as usize] + 1);
        }
    }

    #[test]
    fn isolated_source() {
        let g = gen::uniform_random(4, 0, 1);
        let t = run(&g, 2);
        assert_eq!(t.output.visited_count(), 1);
        assert_eq!(t.depth(), 1); // one empty expansion of the source
        assert_eq!(t.levels[0].discovered, 0);
    }
}
