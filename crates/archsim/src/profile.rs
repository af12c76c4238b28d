//! Direction-independent traversal profiles.
//!
//! BFS level *sets* do not depend on which direction expanded each level:
//! the distance-`i` frontier is the same whether it was discovered
//! top-down or bottom-up. One profiling pass therefore determines, for
//! every level, the exact work of *both* kernels:
//!
//! * top-down examines exactly the frontier's out-edges (`|E|cq`);
//! * bottom-up scans all `|V|` visited flags and probes, for each vertex
//!   discovered at level `i+1`, its sorted adjacency up to the first
//!   level-`i` neighbor — and for each vertex still farther away, its
//!   whole adjacency (no neighbor can be in the frontier, by the triangle
//!   inequality of BFS levels).
//!
//! Any direction script — and hence any `(M, N)` policy — can then be
//! costed in O(depth), which is what makes the paper's exhaustive
//! switch-point searches (Table III, Fig. 8) cheap inside the simulator.

use serde::{Deserialize, Serialize};
use xbfs_engine::{topdown, UNREACHED};
use xbfs_graph::{Csr, VertexId};

/// Exact two-direction work measures of one BFS level.
#[derive(Clone, Copy, Debug, PartialEq, Serialize, Deserialize)]
pub struct LevelProfile {
    /// Level index (level 0 expands the source).
    pub level: u32,
    /// `|V|cq` — frontier vertices.
    pub frontier_vertices: u64,
    /// `|E|cq` — frontier out-edges; also the top-down edge examinations.
    pub frontier_edges: u64,
    /// Largest degree among frontier vertices (top-down's serial critical
    /// path).
    pub max_frontier_degree: u64,
    /// Unvisited vertices before this level runs.
    pub unvisited_vertices: u64,
    /// Out-edges of unvisited vertices before this level runs.
    pub unvisited_edges: u64,
    /// Vertices the bottom-up outer loop scans (always `|V|`).
    pub bu_vertex_scans: u64,
    /// Exact bottom-up neighbor probes at this level.
    pub bu_probes: u64,
    /// Vertices discovered by this level.
    pub discovered: u64,
}

/// The full profile of one `(graph, source)` traversal.
#[derive(Clone, Debug, PartialEq, Serialize, Deserialize)]
pub struct TraversalProfile {
    /// BFS source.
    pub source: VertexId,
    /// `|V|`.
    pub total_vertices: u64,
    /// Total *directed* edges (`2 ×` undirected).
    pub total_edges: u64,
    /// Undirected edges inside the traversed component (TEPS numerator).
    pub component_edges: u64,
    /// Per-level measures.
    pub levels: Vec<LevelProfile>,
}

impl TraversalProfile {
    /// Number of levels.
    pub fn depth(&self) -> usize {
        self.levels.len()
    }

    /// Total bottom-up probes if every level ran bottom-up.
    pub fn total_bu_probes(&self) -> u64 {
        self.levels.iter().map(|l| l.bu_probes).sum()
    }
}

/// Profile the BFS from `source` on `csr`.
///
/// Runs one real top-down traversal for the level map, then one O(V+E)
/// pass computing bottom-up probe counts.
///
/// # Examples
/// ```
/// use xbfs_archsim::{cost, profile, ArchSpec};
/// use xbfs_engine::Direction;
///
/// let g = xbfs_graph::rmat::rmat_csr(10, 16);
/// let p = profile(&g, 0);
/// // One profile prices *any* direction script in O(depth):
/// let cpu = ArchSpec::cpu_sandy_bridge();
/// let td_only = vec![Direction::TopDown; p.depth()];
/// let costs = cost::cost_script(&p, &cpu, &td_only);
/// assert_eq!(costs.len(), p.depth());
/// assert!(costs.iter().all(|c| c.seconds > 0.0));
/// ```
pub fn profile(csr: &Csr, source: VertexId) -> TraversalProfile {
    let traversal = topdown::run(csr, source);
    let levels_map = &traversal.output.levels;
    let depth = traversal.levels.len();

    // first_hit[v] = probes v performs at the level where it is discovered:
    // the 1-based position of its first neighbor one level above it.
    // suffix_deg[i] = Σ degree(v) over visited v with level ≥ i.
    let mut probes_at_discovery = vec![0u64; depth + 1];
    let mut level_degree_sum = vec![0u64; depth + 2];
    let mut unreachable_degree = 0u64;
    let mut component_directed = 0u64;
    for v in csr.vertices() {
        let lv = levels_map[v as usize];
        if lv == UNREACHED {
            unreachable_degree += csr.degree(v);
            continue;
        }
        component_directed += csr.degree(v);
        if lv == 0 {
            level_degree_sum[0] += csr.degree(v);
            continue;
        }
        level_degree_sum[(lv as usize).min(depth + 1)] += csr.degree(v);
        let target = lv - 1;
        let mut probes = 0u64;
        for &u in csr.neighbors(v) {
            probes += 1;
            if levels_map[u as usize] == target {
                break;
            }
        }
        probes_at_discovery[lv as usize] += probes;
    }

    // deg_suffix[i] = Σ degree over visited vertices with level ≥ i.
    let mut deg_suffix = vec![0u64; depth + 3];
    for i in (0..=depth + 1).rev() {
        deg_suffix[i] = deg_suffix[i + 1] + level_degree_sum[i];
    }

    let n = csr.num_vertices() as u64;
    let levels = traversal
        .levels
        .iter()
        .map(|r| {
            let i = r.level as usize;
            // Unvisited at level i but not discovered by it: level ≥ i+2,
            // plus unreachable vertices — each probes its full adjacency.
            let far = deg_suffix.get(i + 2).copied().unwrap_or(0) + unreachable_degree;
            let bu_probes = probes_at_discovery.get(i + 1).copied().unwrap_or(0) + far;
            LevelProfile {
                level: r.level,
                frontier_vertices: r.frontier_vertices,
                frontier_edges: r.frontier_edges,
                max_frontier_degree: r.max_frontier_degree,
                unvisited_vertices: r.unvisited_vertices,
                unvisited_edges: r.unvisited_edges,
                bu_vertex_scans: n,
                bu_probes,
                discovered: r.discovered,
            }
        })
        .collect();

    TraversalProfile {
        source,
        total_vertices: n,
        total_edges: csr.num_directed_edges(),
        component_edges: component_directed / 2,
        levels,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use xbfs_engine::bottomup;
    use xbfs_graph::gen;

    /// The profile's probe counts must equal what the real bottom-up kernel
    /// does when run at every level.
    fn assert_probes_match_real_bu(csr: &Csr, source: VertexId) {
        let p = profile(csr, source);
        let bu = bottomup::run(csr, source);
        assert_eq!(p.depth(), bu.levels.len(), "depth mismatch");
        for (lp, lr) in p.levels.iter().zip(&bu.levels) {
            assert_eq!(
                lp.bu_probes, lr.edges_examined,
                "level {} probe mismatch",
                lp.level
            );
            assert_eq!(lp.frontier_vertices, lr.frontier_vertices);
            assert_eq!(lp.frontier_edges, lr.frontier_edges);
            assert_eq!(lp.discovered, lr.discovered);
        }
    }

    #[test]
    fn probes_match_real_bottomup_on_path() {
        assert_probes_match_real_bu(&gen::path(9), 0);
        assert_probes_match_real_bu(&gen::path(9), 4);
    }

    #[test]
    fn probes_match_real_bottomup_on_rmat() {
        let g = xbfs_graph::rmat::rmat_csr(9, 8);
        for src in [0u32, 13, 200] {
            assert_probes_match_real_bu(&g, src);
        }
    }

    #[test]
    fn probes_match_real_bottomup_on_grid_and_tree() {
        assert_probes_match_real_bu(&gen::grid(7, 9), 0);
        assert_probes_match_real_bu(&gen::binary_tree(31), 0);
        assert_probes_match_real_bu(&gen::two_cliques(6), 2);
    }

    #[test]
    fn td_work_equals_frontier_edges() {
        let g = xbfs_graph::rmat::rmat_csr(8, 16);
        let p = profile(&g, 0);
        // Sum of frontier edges over all levels = directed edges of the
        // component (every component edge is examined once per endpoint).
        let comp_directed: u64 = 2 * p.component_edges;
        let td_edges: u64 = p.levels.iter().map(|l| l.frontier_edges).sum();
        assert_eq!(td_edges, comp_directed);
    }

    #[test]
    fn component_edges_full_vs_partial() {
        let full = profile(&gen::complete(6), 0);
        assert_eq!(full.component_edges, 15);
        let half = profile(&gen::two_cliques(4), 0);
        assert_eq!(half.component_edges, 6);
    }

    #[test]
    fn frontier_shape_small_peak_small() {
        // Figs. 1–2: the frontier must rise then fall on R-MAT graphs.
        let g = xbfs_graph::rmat::rmat_csr(12, 16);
        let p = profile(&g, 0);
        let peak = p.levels.iter().max_by_key(|l| l.frontier_vertices).unwrap();
        assert!(peak.level > 0, "peak at the source level");
        assert!(peak.level + 1 < p.depth() as u32, "peak at the last level");
        assert!(peak.frontier_vertices > 100 * p.levels[0].frontier_vertices);
    }

    #[test]
    fn bu_probes_bounded_by_unvisited_edges() {
        let g = xbfs_graph::rmat::rmat_csr(9, 16);
        let p = profile(&g, 7);
        for l in &p.levels {
            assert!(
                l.bu_probes <= l.unvisited_edges,
                "level {}: {} > {}",
                l.level,
                l.bu_probes,
                l.unvisited_edges
            );
        }
    }

    #[test]
    fn isolated_source_profile() {
        let g = gen::uniform_random(5, 0, 3);
        let p = profile(&g, 2);
        assert_eq!(p.depth(), 1);
        assert_eq!(p.component_edges, 0);
        assert_eq!(p.levels[0].frontier_edges, 0);
    }
}
