//! BFS kernels for the `xbfs` workspace.
//!
//! The paper (You et al., ICPP'14) combines two BFS directions:
//!
//! * **top-down** ([`topdown`]) — each frontier vertex claims its unvisited
//!   neighbors as children; examines exactly the frontier's out-edges
//!   (`|E|cq`, Algorithm 1).
//! * **bottom-up** ([`bottomup`]) — each *unvisited* vertex searches the
//!   frontier for a parent, stopping at the first hit (Algorithm 2); cheap
//!   when the frontier is huge.
//!
//! The [`hybrid`] module implements Beamer-style direction-optimizing BFS
//! parameterized by a [`SwitchPolicy`] — the `(M, N)` thresholds of the
//! paper's Fig. 4: bottom-up iff `|E|cq ≥ |E|/M` or `|V|cq ≥ |V|/N`.
//!
//! Every kernel returns a [`Traversal`]: the BFS output (parent + level
//! maps, exactly the Graph 500 deliverable) plus a per-level
//! [`LevelRecord`] trace (`|V|cq`, `|E|cq`, edges examined, direction).
//! The trace is the raw material for the paper's Figs. 1–3 and the input
//! the architecture simulator replays to charge per-level costs.
//!
//! [`par`] holds the multi-threaded variants (chunked work distribution over
//! scoped threads, CAS parent-claiming, atomic bitmap frontiers)
//! used for the real-machine scaling experiments (Fig. 10). [`validate`](crate::validate::validate)
//! implements the Graph 500-style output checker, [`metrics`] the TEPS
//! accounting, and [`mod@reference`] the naive queue-based baseline the paper
//! compares against in §V-D. [`scrub`] is the mid-run counterpart of the
//! validator: an opt-in per-level invariant pass the recovery runtime uses
//! to catch silent data corruption before it reaches the caller.

pub mod bottomup;
pub mod error;
pub mod hybrid;
pub mod metrics;
pub mod par;
pub mod policy;
pub mod reference;
pub mod scrub;
pub mod stats;
pub mod stcon;
pub mod topdown;
pub mod trace;
pub mod tree;
pub mod validate;

pub use error::XbfsError;
pub use hybrid::TraversalState;
pub use par::{run_multi, run_multi_traced, MAX_LANES};
pub use policy::{AlwaysBottomUp, AlwaysTopDown, Direction, FixedMN, SwitchContext, SwitchPolicy};
pub use scrub::ScrubPolicy;
pub use stats::{LevelRecord, Traversal};
pub use trace::analysis::{
    critical_path, trace_diff, CriticalPath, PathSegment, PhaseDelta, TraceDiff,
};
pub use trace::{
    CountingSink, MemorySink, NullSink, RingSink, RungOutcome, SamplingSink, ShardedSink, TeeSink,
    TraceCounts, TraceEvent, TraceSink, NULL_SINK,
};
pub use validate::{validate, ValidationError};

use serde::{Deserialize, Serialize};
use xbfs_graph::{VertexId, NO_PARENT};

/// Level value meaning "unreachable from the source".
pub const UNREACHED: u32 = u32::MAX;

/// The Graph 500 BFS deliverable: a predecessor map and a level map.
#[derive(Clone, Debug, PartialEq, Eq, Serialize, Deserialize)]
pub struct BfsOutput {
    /// BFS source vertex.
    pub source: VertexId,
    /// `parents[v]` is the BFS-tree predecessor of `v`
    /// ([`NO_PARENT`] if unreached; the source is its own parent).
    pub parents: Vec<VertexId>,
    /// `levels[v]` is the BFS distance from the source
    /// ([`UNREACHED`] if unreachable; the source is level 0).
    pub levels: Vec<u32>,
}

impl BfsOutput {
    /// Fresh all-unvisited output with the source initialized, matching
    /// lines 1–4 of the paper's Algorithms 1 and 2.
    pub fn init(num_vertices: VertexId, source: VertexId) -> Self {
        assert!(source < num_vertices, "source {source} out of range");
        let mut parents = vec![NO_PARENT; num_vertices as usize];
        let mut levels = vec![UNREACHED; num_vertices as usize];
        parents[source as usize] = source;
        levels[source as usize] = 0;
        Self {
            source,
            parents,
            levels,
        }
    }

    /// `true` if `v` has been visited.
    #[inline]
    pub fn visited(&self, v: VertexId) -> bool {
        self.parents[v as usize] != NO_PARENT
    }

    /// Number of visited vertices (the source's connected component).
    pub fn visited_count(&self) -> u64 {
        self.parents.iter().filter(|&&p| p != NO_PARENT).count() as u64
    }

    /// Eccentricity of the source: the largest finite level.
    pub fn max_level(&self) -> u32 {
        self.levels
            .iter()
            .copied()
            .filter(|&l| l != UNREACHED)
            .max()
            .unwrap_or(0)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn init_sets_source_only() {
        let out = BfsOutput::init(4, 2);
        assert_eq!(out.parents, vec![NO_PARENT, NO_PARENT, 2, NO_PARENT]);
        assert_eq!(out.levels, vec![UNREACHED, UNREACHED, 0, UNREACHED]);
        assert!(out.visited(2));
        assert!(!out.visited(0));
        assert_eq!(out.visited_count(), 1);
        assert_eq!(out.max_level(), 0);
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn init_rejects_bad_source() {
        BfsOutput::init(3, 3);
    }
}
