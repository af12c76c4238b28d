//! Compressed sparse row adjacency — the storage every BFS kernel traverses.

use crate::{vix, EdgeList, VertexId};

/// An undirected graph in CSR form.
///
/// `row_offsets[v]..row_offsets[v+1]` indexes into `column_indices` and holds
/// the sorted, deduplicated neighbor list of `v`. Self-loops are stripped and
/// every input edge is stored in both directions (symmetrized), mirroring the
/// Graph 500 construction pipeline the paper uses (§V-A: "CSR format to store
/// the graph").
///
/// `num_edges()` reports the number of *undirected* edges; the adjacency
/// array holds `2 * num_edges()` entries. This matches the paper's
/// `|E| = edgefactor × 2^SCALE` accounting.
///
/// Symmetry and canonical order are invariants, not conventions: the two
/// constructors establish them (`from_parts` checks untrusted input), and
/// there is deliberately no serde path around them. Graph 500 validation
/// relies on symmetry to skip unvisited rows.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Csr {
    num_vertices: VertexId,
    /// `num_vertices + 1` offsets into `column_indices`.
    row_offsets: Vec<u64>,
    /// Concatenated sorted neighbor lists.
    column_indices: Vec<VertexId>,
}

impl Csr {
    /// Build a symmetric CSR from an edge list.
    ///
    /// Duplicates (including the mirror of an already-seen edge) collapse to
    /// a single undirected edge; self-loops are dropped.
    ///
    /// # Examples
    /// ```
    /// use xbfs_graph::{Csr, EdgeList};
    ///
    /// let mut el = EdgeList::new(3);
    /// el.push(0, 1);
    /// el.push(1, 0); // mirror duplicate — collapses
    /// el.push(2, 2); // self-loop — dropped
    /// let g = Csr::from_edge_list(&el);
    /// assert_eq!(g.num_edges(), 1);
    /// assert_eq!(g.neighbors(1), &[0]);
    /// ```
    pub fn from_edge_list(edges: &EdgeList) -> Self {
        let n = edges.num_vertices();
        // Symmetrize into a scratch tuple list.
        let mut tuples: Vec<(VertexId, VertexId)> = Vec::with_capacity(edges.len() * 2);
        for (s, d) in edges.iter() {
            if s == d {
                continue;
            }
            tuples.push((s, d));
            tuples.push((d, s));
        }
        tuples.sort_unstable();
        tuples.dedup();

        let mut row_offsets = vec![0u64; n as usize + 1];
        for &(s, _) in &tuples {
            row_offsets[s as usize + 1] += 1;
        }
        for i in 0..n as usize {
            row_offsets[i + 1] += row_offsets[i];
        }
        let column_indices = tuples.iter().map(|&(_, d)| d).collect();
        Self {
            num_vertices: n,
            row_offsets,
            column_indices,
        }
    }

    /// Build directly from per-vertex sorted adjacency (used by tests/io).
    ///
    /// Returns `None` unless offsets are monotone, sized `n + 1`, end at
    /// `column_indices.len()`, every column index is in range, per-vertex
    /// lists are strictly sorted (canonical), and the adjacency is
    /// symmetric. Full validation makes this safe on untrusted input
    /// (the binary decoder feeds it arbitrary bytes).
    pub fn from_parts(
        num_vertices: VertexId,
        row_offsets: Vec<u64>,
        column_indices: Vec<VertexId>,
    ) -> Option<Self> {
        if row_offsets.len() != num_vertices as usize + 1 {
            return None;
        }
        if row_offsets.windows(2).any(|w| w[0] > w[1]) {
            return None;
        }
        if *row_offsets.last()? != column_indices.len() as u64 {
            return None;
        }
        if column_indices.iter().any(|&c| c >= num_vertices) {
            return None;
        }
        let csr = Self {
            num_vertices,
            row_offsets,
            column_indices,
        };
        if !csr.is_canonical() || !csr.is_symmetric() {
            return None;
        }
        Some(csr)
    }

    /// Number of vertices.
    #[inline]
    pub fn num_vertices(&self) -> VertexId {
        self.num_vertices
    }

    /// Number of undirected edges (half the adjacency-array length).
    #[inline]
    pub fn num_edges(&self) -> u64 {
        self.column_indices.len() as u64 / 2
    }

    /// Number of directed adjacency entries (`2 × num_edges`).
    #[inline]
    pub fn num_directed_edges(&self) -> u64 {
        self.column_indices.len() as u64
    }

    /// Degree of `v`.
    #[inline]
    pub fn degree(&self, v: VertexId) -> u64 {
        self.row_offsets[vix(v) + 1] - self.row_offsets[vix(v)]
    }

    /// Sorted neighbor slice of `v`.
    #[inline]
    pub fn neighbors(&self, v: VertexId) -> &[VertexId] {
        let lo = self.row_offsets[vix(v)] as usize;
        let hi = self.row_offsets[vix(v) + 1] as usize;
        &self.column_indices[lo..hi]
    }

    /// `true` if the undirected edge `{u, v}` exists.
    pub fn has_edge(&self, u: VertexId, v: VertexId) -> bool {
        self.neighbors(u).binary_search(&v).is_ok()
    }

    /// Iterate over vertices `0..n`.
    pub fn vertices(&self) -> impl Iterator<Item = VertexId> {
        0..self.num_vertices
    }

    /// Raw row-offset slice (for the simulator's byte accounting).
    #[inline]
    pub fn row_offsets(&self) -> &[u64] {
        &self.row_offsets
    }

    /// Raw adjacency slice.
    #[inline]
    pub fn column_indices(&self) -> &[VertexId] {
        &self.column_indices
    }

    /// Bytes the CSR arrays occupy — the "fetch all the data" cost of the
    /// paper's bottom-up level-1 analysis (§IV).
    pub fn storage_bytes(&self) -> u64 {
        (self.row_offsets.len() * std::mem::size_of::<u64>()) as u64
            + (self.column_indices.len() * std::mem::size_of::<VertexId>()) as u64
    }

    /// Check symmetry: `v ∈ adj(u) ⇔ u ∈ adj(v)`. O(E log d) — test helper.
    pub fn is_symmetric(&self) -> bool {
        self.vertices().all(|u| {
            self.neighbors(u)
                .iter()
                .all(|&v| self.neighbors(v).binary_search(&u).is_ok())
        })
    }

    /// Check per-vertex neighbor lists are strictly sorted (no dups).
    pub fn is_canonical(&self) -> bool {
        self.vertices()
            .all(|u| self.neighbors(u).windows(2).all(|w| w[0] < w[1]))
            && self.vertices().all(|u| !self.has_edge(u, u))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn triangle() -> Csr {
        let el = EdgeList::from_edges(3, vec![(0, 1), (1, 2), (2, 0)]).unwrap();
        Csr::from_edge_list(&el)
    }

    #[test]
    fn triangle_shape() {
        let g = triangle();
        assert_eq!(g.num_vertices(), 3);
        assert_eq!(g.num_edges(), 3);
        assert_eq!(g.num_directed_edges(), 6);
        for v in 0..3 {
            assert_eq!(g.degree(v), 2);
        }
        assert_eq!(g.neighbors(0), &[1, 2]);
    }

    #[test]
    fn self_loops_dropped_duplicates_collapsed() {
        let el = EdgeList::from_edges(3, vec![(0, 0), (0, 1), (1, 0), (0, 1), (2, 2)]).unwrap();
        let g = Csr::from_edge_list(&el);
        assert_eq!(g.num_edges(), 1);
        assert_eq!(g.neighbors(0), &[1]);
        assert_eq!(g.neighbors(1), &[0]);
        assert!(g.neighbors(2).is_empty());
    }

    #[test]
    fn symmetry_and_canonical_hold() {
        let g = triangle();
        assert!(g.is_symmetric());
        assert!(g.is_canonical());
    }

    #[test]
    fn has_edge_both_directions() {
        let el = EdgeList::from_edges(4, vec![(0, 3)]).unwrap();
        let g = Csr::from_edge_list(&el);
        assert!(g.has_edge(0, 3));
        assert!(g.has_edge(3, 0));
        assert!(!g.has_edge(0, 1));
    }

    #[test]
    fn from_parts_validation() {
        // Valid symmetric 0-1 edge.
        assert!(Csr::from_parts(2, vec![0, 1, 2], vec![1, 0]).is_some());
        // Wrong offset length.
        assert!(Csr::from_parts(2, vec![0, 2], vec![1, 0]).is_none());
        // Non-monotone offsets.
        assert!(Csr::from_parts(2, vec![0, 2, 1], vec![1, 0]).is_none());
        // Column out of range.
        assert!(Csr::from_parts(2, vec![0, 1, 2], vec![1, 5]).is_none());
        // Tail offset mismatch.
        assert!(Csr::from_parts(2, vec![0, 1, 1], vec![1, 0]).is_none());
        // Asymmetric adjacency (0→1 without 1→0).
        assert!(Csr::from_parts(2, vec![0, 1, 1], vec![1]).is_none());
        // Non-canonical: duplicate neighbor entries.
        assert!(Csr::from_parts(2, vec![0, 2, 4], vec![1, 1, 0, 0]).is_none());
        // Self-loop is non-canonical.
        assert!(Csr::from_parts(1, vec![0, 1], vec![0]).is_none());
    }

    #[test]
    fn isolated_vertices_have_empty_neighbors() {
        let el = EdgeList::from_edges(5, vec![(0, 1)]).unwrap();
        let g = Csr::from_edge_list(&el);
        for v in 2..5 {
            assert_eq!(g.degree(v), 0);
            assert!(g.neighbors(v).is_empty());
        }
    }

    #[test]
    fn storage_bytes_counts_arrays() {
        let g = triangle();
        // offsets: 4 * 8 bytes, columns: 6 * 4 bytes.
        assert_eq!(g.storage_bytes(), 4 * 8 + 6 * 4);
    }

    #[test]
    fn empty_graph() {
        let g = Csr::from_edge_list(&EdgeList::new(0));
        assert_eq!(g.num_vertices(), 0);
        assert_eq!(g.num_edges(), 0);
        assert!(g.is_symmetric());
    }
}
