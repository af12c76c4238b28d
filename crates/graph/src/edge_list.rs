//! Flat edge lists — the interchange format between generators and [`Csr`].
//!
//! [`Csr`]: crate::Csr

use crate::VertexId;
use serde::{Deserialize, Serialize};

/// A list of directed edges `(src, dst)` over vertices `0..num_vertices`.
///
/// Generators emit edge lists; [`Csr::from_edge_list`](crate::Csr::from_edge_list)
/// consumes them. Edge lists may contain duplicates and self-loops — the CSR
/// builder cleans them up, mirroring the Graph 500 construction pipeline
/// where the Kronecker generator emits raw tuples.
#[derive(Clone, Debug, Default, PartialEq, Eq, Serialize, Deserialize)]
pub struct EdgeList {
    num_vertices: VertexId,
    edges: Vec<(VertexId, VertexId)>,
}

impl EdgeList {
    /// Create an empty edge list over `num_vertices` vertices.
    pub fn new(num_vertices: VertexId) -> Self {
        Self {
            num_vertices,
            edges: Vec::new(),
        }
    }

    /// Create an edge list with pre-reserved capacity for `num_edges` edges.
    pub fn with_capacity(num_vertices: VertexId, num_edges: usize) -> Self {
        Self {
            num_vertices,
            edges: Vec::with_capacity(num_edges),
        }
    }

    /// Build from raw parts, validating that every endpoint is in range.
    ///
    /// Returns `None` if any edge references a vertex `>= num_vertices`.
    pub fn from_edges(num_vertices: VertexId, edges: Vec<(VertexId, VertexId)>) -> Option<Self> {
        if edges
            .iter()
            .any(|&(s, d)| s >= num_vertices || d >= num_vertices)
        {
            return None;
        }
        Some(Self {
            num_vertices,
            edges,
        })
    }

    /// Number of vertices (the id space, not the number of touched vertices).
    #[inline]
    pub fn num_vertices(&self) -> VertexId {
        self.num_vertices
    }

    /// Number of directed edge tuples currently stored (including dups).
    #[inline]
    pub fn len(&self) -> usize {
        self.edges.len()
    }

    /// `true` if no edges are stored.
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.edges.is_empty()
    }

    /// Append a directed edge.
    ///
    /// # Panics
    /// Panics if either endpoint is out of range — an out-of-range edge is a
    /// generator bug, not a recoverable condition.
    #[inline]
    pub fn push(&mut self, src: VertexId, dst: VertexId) {
        assert!(
            src < self.num_vertices && dst < self.num_vertices,
            "edge ({src}, {dst}) out of range for {} vertices",
            self.num_vertices
        );
        self.edges.push((src, dst));
    }

    /// Iterate over the stored edge tuples.
    pub fn iter(&self) -> impl Iterator<Item = (VertexId, VertexId)> + '_ {
        self.edges.iter().copied()
    }

    /// Borrow the raw edge slice.
    #[inline]
    pub fn as_slice(&self) -> &[(VertexId, VertexId)] {
        &self.edges
    }

    /// Apply a vertex permutation: every endpoint `v` becomes `perm[v]`.
    ///
    /// The Graph 500 spec shuffles vertex labels after Kronecker generation
    /// so that vertex id carries no degree information.
    ///
    /// # Panics
    /// Panics if `perm.len() != num_vertices` or `perm` is not a permutation
    /// of `0..num_vertices` (checked in debug builds only for the latter).
    pub fn permute(&mut self, perm: &[VertexId]) {
        assert_eq!(
            perm.len(),
            self.num_vertices as usize,
            "permutation length must equal vertex count"
        );
        debug_assert!({
            let mut seen = vec![false; perm.len()];
            perm.iter().all(|&p| {
                let fresh = !seen[p as usize];
                seen[p as usize] = true;
                fresh
            })
        });
        for (s, d) in &mut self.edges {
            *s = perm[*s as usize];
            *d = perm[*d as usize];
        }
    }
}

impl<'a> IntoIterator for &'a EdgeList {
    type Item = &'a (VertexId, VertexId);
    type IntoIter = std::slice::Iter<'a, (VertexId, VertexId)>;
    fn into_iter(self) -> Self::IntoIter {
        self.edges.iter()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn new_is_empty() {
        let el = EdgeList::new(4);
        assert!(el.is_empty());
        assert_eq!(el.len(), 0);
        assert_eq!(el.num_vertices(), 4);
    }

    #[test]
    fn push_and_iter_roundtrip() {
        let mut el = EdgeList::new(3);
        el.push(0, 1);
        el.push(1, 2);
        el.push(2, 0);
        let collected: Vec<_> = el.iter().collect();
        assert_eq!(collected, vec![(0, 1), (1, 2), (2, 0)]);
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn push_out_of_range_panics() {
        let mut el = EdgeList::new(2);
        el.push(0, 2);
    }

    #[test]
    fn from_edges_validates() {
        assert!(EdgeList::from_edges(2, vec![(0, 1)]).is_some());
        assert!(EdgeList::from_edges(2, vec![(0, 2)]).is_none());
    }

    #[test]
    fn permute_relabels_endpoints() {
        let mut el = EdgeList::from_edges(3, vec![(0, 1), (1, 2)]).unwrap();
        el.permute(&[2, 0, 1]);
        assert_eq!(el.as_slice(), &[(2, 0), (0, 1)]);
    }

    #[test]
    #[should_panic(expected = "permutation length")]
    fn permute_wrong_len_panics() {
        let mut el = EdgeList::new(3);
        el.permute(&[0, 1]);
    }

    #[test]
    fn duplicates_and_self_loops_are_allowed() {
        let mut el = EdgeList::new(2);
        el.push(0, 0);
        el.push(0, 1);
        el.push(0, 1);
        assert_eq!(el.len(), 3);
    }
}
