//! Parallel bottom-up level kernel.
//!
//! Owner-computes partitioning: each worker scans only the unvisited
//! vertices of the (disjoint) ranges it holds against the read-only
//! frontier bitmap. A vertex is written by at most one worker, so parent
//! adoption needs plain stores, not CAS — the structural advantage the
//! paper attributes to bottom-up ("each unvisited vertex searches for one
//! vertex from the CQ as its parent", §II-A).
//!
//! [`chunk`] is the unit of work the work-stealing pool feeds with
//! cursor-claimed vertex ranges. The ranges are disjoint, which is all
//! owner-computes needs.

use super::multi::MultiParState;
use super::pool::Partial;
use super::ParState;
use std::ops::Range;
use std::sync::atomic::{AtomicU64, Ordering};
use xbfs_graph::{AtomicBitmap, Csr, VertexId};

/// Scan one contiguous vertex range, accumulating into `out`.
///
/// Each adopted vertex's degree is folded into `out`'s next-frontier
/// stats at adoption time, so the driver's switch decision needs no
/// serial rescan of the next frontier.
pub(crate) fn chunk(
    csr: &Csr,
    frontier: &AtomicBitmap,
    range: Range<usize>,
    state: &ParState,
    next_level: u32,
    out: &mut Partial,
) {
    for v in range {
        let v = v as VertexId;
        if state.visited(v) {
            continue;
        }
        for &u in csr.neighbors(v) {
            out.edges_examined += 1;
            if frontier.get(u) {
                state.adopt(v, u, next_level);
                out.discover(v, csr.degree(v));
                break;
            }
        }
    }
}

/// Scan one contiguous vertex range of a lane-packed multi-source
/// bottom-up level: ONE union sweep serves every active lane at once.
///
/// Per vertex, `pending` holds the active lanes that have not visited it;
/// each neighbor probe charges every still-pending lane one examined edge
/// (exactly what each lane's solo sequential scan would charge), and a
/// frontier word hit adopts the vertex into every matching pending lane
/// simultaneously. Adoption depends only on frontier *membership* and
/// adjacency order — both lane-local — so per-lane parents are identical
/// to each lane's solo bottom-up sweep at any thread count.
pub(crate) fn multi_chunk(
    csr: &Csr,
    state: &MultiParState,
    frontier_words: &[AtomicU64],
    active: u64,
    range: Range<usize>,
    next_level: u32,
    out: &mut Partial,
) {
    out.ensure_lanes(state.lanes());
    for v in range {
        let v = v as VertexId;
        let mut pending = active & !state.visited_word(v);
        if pending == 0 {
            continue;
        }
        for &u in csr.neighbors(v) {
            let mut bits = pending;
            while bits != 0 {
                out.lanes[bits.trailing_zeros() as usize].edges_examined += 1;
                bits &= bits - 1;
            }
            let adopt = pending & frontier_words[u as usize].load(Ordering::Relaxed);
            if adopt != 0 {
                let degree = csr.degree(v);
                let mut bits = adopt;
                while bits != 0 {
                    let lane = bits.trailing_zeros() as usize;
                    state.adopt(v, lane, u, next_level);
                    out.discover_in(lane, v, degree);
                    bits &= bits - 1;
                }
                pending &= !adopt;
                if pending == 0 {
                    break;
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn frontier_of(n: usize, members: &[VertexId]) -> AtomicBitmap {
        let bm = AtomicBitmap::new(n);
        for &v in members {
            bm.set(v);
        }
        bm
    }

    /// Scan every vertex against `frontier` to level 1 as one chunk, the
    /// way a single worker claiming the whole range would.
    fn scan(g: &Csr, frontier: &AtomicBitmap, state: &ParState) -> Partial {
        let mut out = Partial::default();
        chunk(
            g,
            frontier,
            0..g.num_vertices() as usize,
            state,
            1,
            &mut out,
        );
        out
    }

    #[test]
    fn adopts_parents_from_frontier_only() {
        let g = xbfs_graph::gen::path(6);
        let state = ParState::init(6, 0);
        let frontier = frontier_of(6, &[0]);
        let out = scan(&g, &frontier, &state);
        assert_eq!(out.next, vec![1]);
        assert!(state.visited(1));
        assert!(!state.visited(2));
    }

    #[test]
    fn matches_sequential_kernel_results() {
        let g = xbfs_graph::rmat::rmat_csr(8, 8);
        let n = g.num_vertices();
        // Seed both states with the same two-level prefix.
        let mut seq_out = crate::BfsOutput::init(n, 0);
        let state = ParState::init(n, 0);
        let frontier = frontier_of(n as usize, &[0]);
        let (seq_next, seq_examined, _) =
            crate::bottomup::level(&g, &frontier.snapshot(), &mut seq_out, 1);
        let par = scan(&g, &frontier, &state);
        let mut par_next = par.next.clone();
        par_next.sort_unstable();
        let mut seq_sorted = seq_next.clone();
        seq_sorted.sort_unstable();
        assert_eq!(par_next, seq_sorted);
        assert_eq!(par.edges_examined, seq_examined);
    }

    #[test]
    fn adopts_whole_star_and_folds_degree_stats() {
        let g = xbfs_graph::gen::star(100);
        let state = ParState::init(100, 0);
        let frontier = frontier_of(100, &[0]);
        let out = scan(&g, &frontier, &state);
        assert_eq!(out.next.len(), 99);
        // Every leaf has degree 1: folded stats must agree.
        assert_eq!(out.next_edges, 99);
        assert_eq!(out.next_max_degree, 1);
    }
}
