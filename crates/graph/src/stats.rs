//! Graph summary statistics.
//!
//! [`GraphStats`] carries exactly the graph half of the paper's regression
//! feature vector (Fig. 7): `|V|`, `|E|` and the R-MAT construction
//! parameters `A, B, C, D` when known. Degree-distribution helpers support
//! the generator tests and the examples.

use crate::{Csr, VertexId};
use serde::{Deserialize, Serialize};

/// Summary of one graph instance, as fed to the switch-point predictor.
#[derive(Clone, Copy, Debug, PartialEq, Serialize, Deserialize)]
pub struct GraphStats {
    /// Number of vertices.
    pub num_vertices: u64,
    /// Number of undirected edges.
    pub num_edges: u64,
    /// R-MAT quadrant probabilities if the graph came from the Kronecker
    /// generator; `0.25` each for graphs of unknown provenance (an
    /// uninformative prior — the feature still has a defined value).
    pub a: f64,
    pub b: f64,
    pub c: f64,
    pub d: f64,
}

impl GraphStats {
    /// Stats for a known R-MAT instance.
    pub fn rmat(csr: &Csr, a: f64, b: f64, c: f64, d: f64) -> Self {
        Self {
            num_vertices: csr.num_vertices() as u64,
            num_edges: csr.num_edges(),
            a,
            b,
            c,
            d,
        }
    }

    /// Stats for a graph of unknown provenance (uniform quadrant prior).
    pub fn unknown(csr: &Csr) -> Self {
        Self::rmat(csr, 0.25, 0.25, 0.25, 0.25)
    }

    /// Average degree `2|E| / |V|` (0 for the empty graph).
    pub fn average_degree(&self) -> f64 {
        if self.num_vertices == 0 {
            0.0
        } else {
            2.0 * self.num_edges as f64 / self.num_vertices as f64
        }
    }

    /// Graph 500 `edgefactor`: half the average degree.
    pub fn edgefactor(&self) -> f64 {
        self.average_degree() / 2.0
    }

    /// Graph 500 `SCALE` (log2 of the vertex count), fractional for
    /// non-power-of-two graphs.
    pub fn scale(&self) -> f64 {
        if self.num_vertices == 0 {
            0.0
        } else {
            (self.num_vertices as f64).log2()
        }
    }
}

/// Maximum degree and one vertex attaining it (`None` for empty graphs).
pub fn max_degree_vertex(csr: &Csr) -> Option<(VertexId, u64)> {
    csr.vertices()
        .map(|v| (v, csr.degree(v)))
        .max_by_key(|&(_, d)| d)
}

/// Number of isolated (degree-0) vertices.
pub fn isolated_count(csr: &Csr) -> u64 {
    csr.vertices().filter(|&v| csr.degree(v) == 0).count() as u64
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::gen;

    #[test]
    fn stats_basic_quantities() {
        let g = gen::complete(8);
        let s = GraphStats::unknown(&g);
        assert_eq!(s.num_vertices, 8);
        assert_eq!(s.num_edges, 28);
        assert!((s.average_degree() - 7.0).abs() < 1e-12);
        assert!((s.edgefactor() - 3.5).abs() < 1e-12);
        assert!((s.scale() - 3.0).abs() < 1e-12);
    }

    #[test]
    fn rmat_stats_carry_probabilities() {
        let g = crate::rmat::rmat_csr(8, 8);
        let s = GraphStats::rmat(&g, 0.57, 0.19, 0.19, 0.05);
        assert_eq!(s.a, 0.57);
        assert_eq!(s.d, 0.05);
        assert_eq!(s.num_vertices, 256);
    }

    #[test]
    fn max_degree_finds_hub() {
        let g = gen::star(16);
        let (v, d) = max_degree_vertex(&g).unwrap();
        assert_eq!(v, 0);
        assert_eq!(d, 15);
    }

    #[test]
    fn isolated_counting() {
        let g = gen::uniform_random(10, 0, 1);
        assert_eq!(isolated_count(&g), 10);
        let g = gen::path(4);
        assert_eq!(isolated_count(&g), 0);
    }

    #[test]
    fn empty_graph_stats() {
        let g = gen::path(0);
        let s = GraphStats::unknown(&g);
        assert_eq!(s.average_degree(), 0.0);
        assert_eq!(s.scale(), 0.0);
        assert!(max_degree_vertex(&g).is_none());
    }
}
