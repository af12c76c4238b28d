//! Vertex relabeling.
//!
//! Chhugani et al. (cited in the paper's related work, §VI) showed that
//! *vertex rearrangement* — relabeling vertices so high-degree hubs get
//! small ids — improves BFS locality. Relabeling also changes bottom-up
//! probe counts (hubs appear early in sorted adjacency lists, so unvisited
//! vertices find frontier parents sooner), which the ablation benches
//! quantify against the simulator.

use crate::{Csr, EdgeList, VertexId};

/// Build the permutation that relabels vertices by descending degree
/// (`perm[old] = new`; ties broken by old id for determinism).
pub fn degree_descending_permutation(csr: &Csr) -> Vec<VertexId> {
    let mut order: Vec<VertexId> = csr.vertices().collect();
    order.sort_by_key(|&v| (std::cmp::Reverse(csr.degree(v)), v));
    let mut perm = vec![0 as VertexId; csr.num_vertices() as usize];
    for (new_id, &old_id) in order.iter().enumerate() {
        perm[old_id as usize] = new_id as VertexId;
    }
    perm
}

/// Apply a permutation (`perm[old] = new`) to a CSR, producing the
/// relabeled graph.
///
/// # Panics
/// Panics if `perm` is not a permutation of `0..num_vertices` (checked in
/// debug builds) or has the wrong length.
pub fn apply_permutation(csr: &Csr, perm: &[VertexId]) -> Csr {
    assert_eq!(
        perm.len(),
        csr.num_vertices() as usize,
        "permutation length must equal vertex count"
    );
    let mut edges =
        EdgeList::with_capacity(csr.num_vertices(), csr.num_directed_edges() as usize / 2);
    for u in csr.vertices() {
        for &v in csr.neighbors(u) {
            if u <= v {
                edges.push(perm[u as usize], perm[v as usize]);
            }
        }
    }
    Csr::from_edge_list(&edges)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::gen;

    #[test]
    fn degree_permutation_puts_hub_first() {
        let g = gen::star(8); // vertex 0 is the hub already
        let perm = degree_descending_permutation(&g);
        assert_eq!(perm[0], 0);
        // Leaves keep relative order.
        assert_eq!(perm[1], 1);
        assert_eq!(perm[7], 7);
    }

    #[test]
    fn relabeling_preserves_structure() {
        let g = crate::rmat::rmat_csr(9, 8);
        let r = apply_permutation(&g, &degree_descending_permutation(&g));
        assert_eq!(g.num_vertices(), r.num_vertices());
        assert_eq!(g.num_edges(), r.num_edges());
        // Degree multiset is invariant.
        let mut dg: Vec<u64> = g.vertices().map(|v| g.degree(v)).collect();
        let mut dr: Vec<u64> = r.vertices().map(|v| r.degree(v)).collect();
        dg.sort_unstable();
        dr.sort_unstable();
        assert_eq!(dg, dr);
        assert!(r.is_symmetric() && r.is_canonical());
    }

    #[test]
    fn relabeled_degrees_are_descending() {
        let g = crate::rmat::rmat_csr(9, 16);
        let r = apply_permutation(&g, &degree_descending_permutation(&g));
        let degs: Vec<u64> = r.vertices().map(|v| r.degree(v)).collect();
        assert!(
            degs.windows(2).all(|w| w[0] >= w[1]),
            "not sorted: {degs:?}"
        );
    }

    #[test]
    fn identity_permutation_is_noop() {
        let g = gen::grid(3, 3);
        let id: Vec<u32> = g.vertices().collect();
        assert_eq!(apply_permutation(&g, &id), g);
    }

    #[test]
    fn adjacency_is_relabeled_consistently() {
        let g = gen::path(4); // 0-1-2-3
        let perm = vec![3, 2, 1, 0]; // reverse
        let r = apply_permutation(&g, &perm);
        // Reversed path: 3-2-1-0, same structure.
        assert!(r.has_edge(3, 2) && r.has_edge(2, 1) && r.has_edge(1, 0));
        assert!(!r.has_edge(3, 0));
    }

    #[test]
    #[should_panic(expected = "permutation length")]
    fn wrong_length_rejected() {
        apply_permutation(&gen::path(3), &[0, 1]);
    }
}
