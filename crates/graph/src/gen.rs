//! Deterministic auxiliary graph generators.
//!
//! These are not part of the paper's evaluation (which is all R-MAT) but are
//! essential substrate for tests, property tests and examples: their BFS
//! level structures are known in closed form, so kernel correctness can be
//! asserted exactly.

use crate::{Csr, EdgeList, VertexId};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// Path graph `0 - 1 - 2 - … - (n-1)`. BFS from 0 puts vertex `i` in level `i`.
pub fn path(n: VertexId) -> Csr {
    let mut el = EdgeList::with_capacity(n, n.saturating_sub(1) as usize);
    for v in 1..n {
        el.push(v - 1, v);
    }
    Csr::from_edge_list(&el)
}

/// Star graph: center 0 connected to `1..n`. Two BFS levels from the center.
pub fn star(n: VertexId) -> Csr {
    let mut el = EdgeList::with_capacity(n, n.saturating_sub(1) as usize);
    for v in 1..n {
        el.push(0, v);
    }
    Csr::from_edge_list(&el)
}

/// Complete graph on `n` vertices. One BFS level from any source.
pub fn complete(n: VertexId) -> Csr {
    let m = n as usize * (n as usize).saturating_sub(1) / 2;
    let mut el = EdgeList::with_capacity(n, m);
    for u in 0..n {
        for v in (u + 1)..n {
            el.push(u, v);
        }
    }
    Csr::from_edge_list(&el)
}

/// `rows × cols` grid. BFS from corner 0 puts `(r, c)` in level `r + c`.
pub fn grid(rows: VertexId, cols: VertexId) -> Csr {
    let n = rows * cols;
    let mut el = EdgeList::new(n);
    let id = |r: VertexId, c: VertexId| r * cols + c;
    for r in 0..rows {
        for c in 0..cols {
            if c + 1 < cols {
                el.push(id(r, c), id(r, c + 1));
            }
            if r + 1 < rows {
                el.push(id(r, c), id(r + 1, c));
            }
        }
    }
    Csr::from_edge_list(&el)
}

/// Complete binary tree with `n` vertices rooted at 0.
/// BFS from 0 puts vertex `v` in level `floor(log2(v + 1))`.
pub fn binary_tree(n: VertexId) -> Csr {
    let mut el = EdgeList::new(n);
    for v in 1..n {
        el.push((v - 1) / 2, v);
    }
    Csr::from_edge_list(&el)
}

/// Erdős–Rényi G(n, m): `m` undirected edges drawn uniformly (rejecting
/// self-loops; duplicates collapse during CSR construction).
pub fn uniform_random(n: VertexId, m: u64, seed: u64) -> Csr {
    let mut rng = StdRng::seed_from_u64(seed);
    let mut el = EdgeList::with_capacity(n, m as usize);
    if n >= 2 {
        for _ in 0..m {
            let u = rng.gen_range(0..n);
            let mut v = rng.gen_range(0..n);
            while v == u {
                v = rng.gen_range(0..n);
            }
            el.push(u, v);
        }
    }
    Csr::from_edge_list(&el)
}

/// Two disjoint cliques of size `k` — a canonical disconnected graph for
/// testing that BFS leaves the far component unvisited.
pub fn two_cliques(k: VertexId) -> Csr {
    let n = 2 * k;
    let mut el = EdgeList::new(n);
    for base in [0, k] {
        for u in 0..k {
            for v in (u + 1)..k {
                el.push(base + u, base + v);
            }
        }
    }
    Csr::from_edge_list(&el)
}

/// Watts–Strogatz small world: a ring lattice (each vertex linked to `k/2`
/// neighbors per side) with each edge rewired with probability `beta`.
/// A low-skew, high-diameter family — the structural opposite of R-MAT.
pub fn watts_strogatz(n: VertexId, k: u32, beta: f64, seed: u64) -> Csr {
    assert!((0.0..=1.0).contains(&beta), "beta must be a probability");
    let mut rng = StdRng::seed_from_u64(seed);
    let half = (k / 2).max(1);
    let mut el = EdgeList::new(n);
    if n < 2 {
        return Csr::from_edge_list(&el);
    }
    for u in 0..n {
        for j in 1..=half {
            let v = (u + j) % n;
            if rng.gen_bool(beta) {
                let mut w = rng.gen_range(0..n);
                while w == u {
                    w = rng.gen_range(0..n);
                }
                el.push(u, w);
            } else {
                el.push(u, v);
            }
        }
    }
    Csr::from_edge_list(&el)
}

/// Road-network-like graph: a `rows × cols` grid (near-uniform degree ≤ 4,
/// diameter `rows + cols - 2`) plus `chords` seeded long-range edges —
/// the occasional highway shortcutting the lattice. High diameter and low
/// skew make it the structural opposite of R-MAT: BFS runs for many
/// levels with thin frontiers, which is exactly the regime where a single
/// global (M, N) switch point trained on Kronecker graphs misfires.
pub fn road_like(rows: VertexId, cols: VertexId, chords: u32, seed: u64) -> Csr {
    let n = rows * cols;
    let mut rng = StdRng::seed_from_u64(seed);
    let mut el = EdgeList::new(n);
    let id = |r: VertexId, c: VertexId| r * cols + c;
    for r in 0..rows {
        for c in 0..cols {
            if c + 1 < cols {
                el.push(id(r, c), id(r, c + 1));
            }
            if r + 1 < rows {
                el.push(id(r, c), id(r + 1, c));
            }
        }
    }
    if n >= 2 {
        for _ in 0..chords {
            let u = rng.gen_range(0..n);
            let mut v = rng.gen_range(0..n);
            while v == u {
                v = rng.gen_range(0..n);
            }
            el.push(u, v);
        }
    }
    Csr::from_edge_list(&el)
}

/// Cycle graph `0 - 1 - … - (n-1) - 0`.
/// BFS from 0 has `ceil(n / 2)` non-source levels.
pub fn cycle(n: VertexId) -> Csr {
    let mut el = EdgeList::new(n);
    for v in 1..n {
        el.push(v - 1, v);
    }
    if n > 2 {
        el.push(n - 1, 0);
    }
    Csr::from_edge_list(&el)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn path_shape() {
        let g = path(5);
        assert_eq!(g.num_edges(), 4);
        assert_eq!(g.degree(0), 1);
        assert_eq!(g.degree(2), 2);
        assert_eq!(g.degree(4), 1);
    }

    #[test]
    fn star_shape() {
        let g = star(6);
        assert_eq!(g.degree(0), 5);
        for v in 1..6 {
            assert_eq!(g.degree(v), 1);
        }
    }

    #[test]
    fn complete_shape() {
        let g = complete(5);
        assert_eq!(g.num_edges(), 10);
        for v in 0..5 {
            assert_eq!(g.degree(v), 4);
        }
    }

    #[test]
    fn grid_shape() {
        let g = grid(3, 4);
        assert_eq!(g.num_vertices(), 12);
        // Interior vertex (1,1) = id 5 has 4 neighbors; corner 0 has 2.
        assert_eq!(g.degree(5), 4);
        assert_eq!(g.degree(0), 2);
        assert_eq!(g.num_edges(), (3 * 3 + 2 * 4) as u64);
    }

    #[test]
    fn binary_tree_shape() {
        let g = binary_tree(7);
        assert_eq!(g.degree(0), 2);
        assert_eq!(g.degree(1), 3);
        assert_eq!(g.degree(6), 1);
        assert_eq!(g.num_edges(), 6);
    }

    #[test]
    fn uniform_random_deterministic_and_bounded() {
        let a = uniform_random(64, 200, 5);
        let b = uniform_random(64, 200, 5);
        assert_eq!(a, b);
        assert!(a.num_edges() <= 200);
        assert!(a.is_canonical());
    }

    #[test]
    fn two_cliques_disconnected() {
        let g = two_cliques(4);
        assert_eq!(g.num_vertices(), 8);
        assert_eq!(g.num_edges(), 12);
        // No edge crosses the cut.
        for u in 0..4u32 {
            for v in 4..8u32 {
                assert!(!g.has_edge(u, v));
            }
        }
    }

    #[test]
    fn cycle_shape() {
        let g = cycle(6);
        assert_eq!(g.num_edges(), 6);
        for v in 0..6 {
            assert_eq!(g.degree(v), 2);
        }
        // Degenerate small cycles.
        assert_eq!(cycle(2).num_edges(), 1);
        assert_eq!(cycle(1).num_edges(), 0);
    }

    #[test]
    fn watts_strogatz_unrewired_is_a_lattice() {
        let g = watts_strogatz(20, 4, 0.0, 1);
        // Every vertex links to 2 neighbors per side → degree 4.
        for v in 0..20 {
            assert_eq!(g.degree(v), 4, "vertex {v}");
        }
        assert!(g.has_edge(0, 1) && g.has_edge(0, 2) && g.has_edge(0, 19));
    }

    #[test]
    fn watts_strogatz_rewiring_changes_structure() {
        let lattice = watts_strogatz(100, 4, 0.0, 2);
        let rewired = watts_strogatz(100, 4, 0.5, 2);
        assert_ne!(lattice, rewired);
        // Low skew even after rewiring (contrast with R-MAT).
        let max = rewired.vertices().map(|v| rewired.degree(v)).max().unwrap();
        assert!(max < 15, "max degree {max}");
    }

    #[test]
    #[should_panic(expected = "probability")]
    fn watts_strogatz_rejects_bad_beta() {
        watts_strogatz(10, 2, 1.5, 0);
    }

    #[test]
    fn road_like_is_a_chorded_grid() {
        let g = road_like(16, 16, 12, 7);
        assert!(g.is_canonical());
        assert_eq!(g.num_vertices(), 256);
        // Grid edges plus at most the requested chords (duplicates and
        // existing grid edges collapse in CSR construction).
        let grid_edges = (15 * 16 + 15 * 16) as u64;
        assert!(g.num_edges() >= grid_edges);
        assert!(g.num_edges() <= grid_edges + 12);
        // Low skew: a chord adds at most a few to a degree-≤4 lattice.
        let max = g.vertices().map(|v| g.degree(v)).max().unwrap();
        assert!(max <= 8, "max degree {max}");
        // Deterministic.
        assert_eq!(g, road_like(16, 16, 12, 7));
        // No chords = plain grid.
        assert_eq!(road_like(4, 4, 0, 0), grid(4, 4));
    }

    #[test]
    fn empty_generators() {
        assert_eq!(path(0).num_vertices(), 0);
        assert_eq!(star(1).num_edges(), 0);
        assert_eq!(uniform_random(1, 10, 0).num_edges(), 0);
    }
}
