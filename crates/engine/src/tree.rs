//! BFS-tree utilities on top of [`BfsOutput`].
//!
//! The Graph 500 deliverable is a predecessor map; downstream analyses
//! (shortest paths, separation histograms, subtree accounting) all reduce
//! to walks over that map. These helpers are used by the examples and by
//! the validator tests as an independent cross-check.

use crate::{BfsOutput, UNREACHED};
use xbfs_graph::{Csr, VertexId, NO_PARENT};

/// The root-to-`v` path through the BFS tree, inclusive on both ends.
/// `None` if `v` was not reached.
pub fn path_to(out: &BfsOutput, v: VertexId) -> Option<Vec<VertexId>> {
    if out.parents[v as usize] == NO_PARENT {
        return None;
    }
    let mut path = vec![v];
    let mut cur = v;
    while cur != out.source {
        cur = out.parents[cur as usize];
        path.push(cur);
        debug_assert!(path.len() <= out.parents.len(), "parent cycle");
    }
    path.reverse();
    Some(path)
}

/// Histogram of BFS levels: `histogram[l]` = vertices at distance `l`.
pub fn level_histogram(out: &BfsOutput) -> Vec<u64> {
    let max = out.max_level();
    let mut hist = vec![0u64; max as usize + 1];
    for &l in &out.levels {
        if l != UNREACHED {
            hist[l as usize] += 1;
        }
    }
    hist
}

/// Number of tree children of each vertex (`children[v]` = vertices whose
/// parent is `v`; the source is not its own child).
pub fn child_counts(out: &BfsOutput) -> Vec<u64> {
    let mut counts = vec![0u64; out.parents.len()];
    for (v, &p) in out.parents.iter().enumerate() {
        if p != NO_PARENT && v as VertexId != out.source {
            counts[p as usize] += 1;
        }
    }
    counts
}

/// Subtree size of every vertex (itself + all tree descendants);
/// unreached vertices get 0.
pub fn subtree_sizes(out: &BfsOutput) -> Vec<u64> {
    let n = out.parents.len();
    let mut sizes = vec![0u64; n];
    // Process deepest levels first: order vertices by descending level.
    let mut order: Vec<u32> = (0..n as u32)
        .filter(|&v| out.levels[v as usize] != UNREACHED)
        .collect();
    order.sort_by_key(|&v| std::cmp::Reverse(out.levels[v as usize]));
    for v in order {
        sizes[v as usize] += 1;
        if v != out.source {
            let p = out.parents[v as usize];
            sizes[p as usize] += sizes[v as usize];
        }
    }
    sizes
}

/// First inconsistency of a *partial* BFS tree against `csr`, or `None`
/// if the prefix is sound. A partial tree assigns levels only up to some
/// frontier depth; this checks what Graph 500 validation checks — every
/// visited non-source vertex has a visited parent exactly one level
/// shallower, across a real edge — without requiring the traversal to be
/// finished. The recovery subsystem runs this over a deserialized
/// checkpoint before trusting it.
pub fn partial_tree_violation(csr: &Csr, out: &BfsOutput) -> Option<String> {
    let n = csr.num_vertices();
    if out.parents.len() != n as usize || out.levels.len() != n as usize {
        return Some(format!(
            "tree maps cover {} vertices, graph has {n}",
            out.parents.len()
        ));
    }
    if out.source >= n || out.parents[out.source as usize] != out.source {
        return Some(format!("source {} is not its own root", out.source));
    }
    for v in 0..n {
        let p = out.parents[v as usize];
        let l = out.levels[v as usize];
        if p == NO_PARENT {
            if l != UNREACHED {
                return Some(format!("vertex {v} has a level but no parent"));
            }
            continue;
        }
        if l == UNREACHED {
            return Some(format!("vertex {v} has a parent but no level"));
        }
        if v == out.source {
            continue;
        }
        if p >= n || out.parents[p as usize] == NO_PARENT {
            return Some(format!("vertex {v}: parent {p} is unvisited"));
        }
        // A corrupt parent can be marked visited without a level; the
        // unchecked `+ 1` would overflow on its `UNREACHED` sentinel.
        if out.levels[p as usize].checked_add(1) != Some(l) {
            return Some(format!(
                "vertex {v} at level {l}, parent {p} at level {}",
                out.levels[p as usize]
            ));
        }
        if !csr.has_edge(p, v) {
            return Some(format!("tree edge {p} -> {v} is not a graph edge"));
        }
    }
    None
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::topdown;
    use xbfs_graph::gen;

    #[test]
    fn path_on_a_path_graph() {
        let g = gen::path(5);
        let out = topdown::run(&g, 0).output;
        assert_eq!(path_to(&out, 4), Some(vec![0, 1, 2, 3, 4]));
        assert_eq!(path_to(&out, 0), Some(vec![0]));
    }

    #[test]
    fn unreached_has_no_path() {
        let g = gen::two_cliques(3);
        let out = topdown::run(&g, 0).output;
        assert_eq!(path_to(&out, 5), None);
    }

    #[test]
    fn path_lengths_match_levels() {
        let g = xbfs_graph::rmat::rmat_csr(9, 8);
        let src = (0..g.num_vertices()).find(|&v| g.degree(v) > 0).unwrap();
        let out = topdown::run(&g, src).output;
        for v in (0..g.num_vertices()).step_by(29) {
            if let Some(p) = path_to(&out, v) {
                assert_eq!(p.len() as u32 - 1, out.levels[v as usize]);
                assert_eq!(p[0], src);
                // Consecutive path vertices are graph neighbors.
                for w in p.windows(2) {
                    assert!(g.has_edge(w[0], w[1]));
                }
            }
        }
    }

    #[test]
    fn histogram_sums_to_visited() {
        let g = gen::binary_tree(15);
        let out = topdown::run(&g, 0).output;
        let hist = level_histogram(&out);
        assert_eq!(hist, vec![1, 2, 4, 8]);
        assert_eq!(hist.iter().sum::<u64>(), out.visited_count());
    }

    #[test]
    fn child_counts_on_star() {
        let g = gen::star(6);
        let out = topdown::run(&g, 0).output;
        let counts = child_counts(&out);
        assert_eq!(counts[0], 5);
        assert!(counts[1..].iter().all(|&c| c == 0));
    }

    #[test]
    fn subtree_sizes_on_binary_tree() {
        let g = gen::binary_tree(7);
        let out = topdown::run(&g, 0).output;
        let sizes = subtree_sizes(&out);
        assert_eq!(sizes[0], 7);
        assert_eq!(sizes[1], 3);
        assert_eq!(sizes[2], 3);
        for &leaf_size in &sizes[3..7] {
            assert_eq!(leaf_size, 1);
        }
    }

    #[test]
    fn subtree_of_source_is_component_size() {
        let g = xbfs_graph::rmat::rmat_csr(8, 8);
        let src = (0..g.num_vertices()).find(|&v| g.degree(v) > 0).unwrap();
        let out = topdown::run(&g, src).output;
        let sizes = subtree_sizes(&out);
        assert_eq!(sizes[src as usize], out.visited_count());
    }

    #[test]
    fn partial_tree_accepts_any_prefix_and_rejects_corruption() {
        let g = xbfs_graph::rmat::rmat_csr(8, 8);
        let src = (0..g.num_vertices()).find(|&v| g.degree(v) > 0).unwrap();
        let whole = topdown::run(&g, src).output;
        assert_eq!(partial_tree_violation(&g, &whole), None);

        // A prefix (everything deeper truncated) is also a sound partial
        // tree.
        let mut prefix = whole.clone();
        for v in 0..g.num_vertices() as usize {
            if prefix.levels[v] != UNREACHED && prefix.levels[v] > 1 {
                prefix.levels[v] = UNREACHED;
                prefix.parents[v] = xbfs_graph::NO_PARENT;
            }
        }
        assert_eq!(partial_tree_violation(&g, &prefix), None);

        // Corrupt a parent pointer: detected.
        let mut bad = whole.clone();
        let victim = (0..g.num_vertices())
            .find(|&v| v != src && bad.parents[v as usize] != xbfs_graph::NO_PARENT)
            .unwrap() as usize;
        bad.levels[victim] += 1;
        assert!(partial_tree_violation(&g, &bad).is_some());

        // Wrong graph: detected.
        assert!(partial_tree_violation(&gen::path(3), &whole).is_some());
    }

    #[test]
    fn parent_visited_without_a_level_is_reported_not_overflowed() {
        // Vertex 3 gains a parent but no level, and the lower-id vertex 2
        // points at it: the parent's level is the `UNREACHED` sentinel.
        let g = gen::path(6);
        let mut st = crate::TraversalState::start(&g, 0);
        let mut policy = crate::FixedMN::new(14.0, 24.0);
        st.step(&g, &mut policy);
        st.step(&g, &mut policy);
        st.output.parents[3] = 2;
        st.output.parents[2] = 3;
        assert_eq!(
            partial_tree_violation(&g, &st.output),
            Some(format!(
                "vertex 2 at level 2, parent 3 at level {UNREACHED}"
            ))
        );
    }
}
