//! Graph substrate for the `xbfs` workspace.
//!
//! This crate provides everything the BFS engines and the architecture
//! simulator need to talk about graphs:
//!
//! * [`EdgeList`] — a flat list of directed edges, the interchange format all
//!   generators emit.
//! * [`Csr`] — compressed sparse row adjacency, the storage format every BFS
//!   kernel traverses. Construction symmetrizes, deduplicates and strips
//!   self-loops exactly like the Graph 500 reference pipeline.
//! * [`rmat`] — the Graph 500 Kronecker (R-MAT) generator parameterized by
//!   `SCALE`, `edgefactor` and the partition probabilities `A,B,C,D`
//!   (paper defaults `0.57/0.19/0.19/0.05`).
//! * [`gen`] — deterministic auxiliary generators (uniform random, path,
//!   star, grid, binary tree, complete) used by tests and examples.
//! * [`Bitmap`] / [`AtomicBitmap`] — dense vertex sets; the atomic variant
//!   backs the bottom-up frontier, the paper's "bit-map" queue (§V-A).
//! * [`stats`] — degree distributions and per-traversal summaries that feed
//!   the regression features of the paper's Fig. 7.
//! * [`io`] — compact binary and text (de)serialization.
//!
//! All vertex indices are [`VertexId`] (`u32`): the paper's largest graph has
//! 64 M vertices, far below `u32::MAX`, and halving index width doubles the
//! effective memory bandwidth of every traversal.

pub mod bitmap;
pub mod components;
pub mod csr;
pub mod edge_list;
pub mod gen;
pub mod io;
pub mod relabel;
pub mod rmat;
pub mod stats;

pub use bitmap::{AtomicBitmap, Bitmap};
pub use csr::Csr;
pub use edge_list::EdgeList;
pub use rmat::{RmatConfig, RmatGenerator};
pub use stats::GraphStats;

/// Vertex identifier. `u32` keeps CSR arrays compact (see crate docs).
pub type VertexId = u32;

/// Sentinel meaning "no parent / unvisited" in predecessor maps.
///
/// The paper's pseudocode uses `-1`; we reserve the all-ones pattern so that
/// predecessor maps can stay `u32` and still be CAS-claimed atomically.
pub const NO_PARENT: VertexId = VertexId::MAX;

/// Convert a vertex count to `usize`, panicking on (impossible) overflow.
#[inline]
pub fn vix(v: VertexId) -> usize {
    v as usize
}
