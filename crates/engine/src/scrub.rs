//! Per-level invariant scrubbing — cheap mid-run detection of silent data
//! corruption.
//!
//! Graph 500 validation ([`crate::validate::validate`]) only runs after a
//! traversal finishes, so a bit flipped in the frontier or parent map at
//! level ℓ silently poisons every level after it until the end-of-run
//! check finally fails — and by then the cheapest repair point is long
//! gone. A scrub pass is the mid-run counterpart: at a level boundary it
//! re-checks the invariants a sound partial traversal must satisfy —
//!
//! * structural bookkeeping ([`TraversalState::check_against`]): map
//!   lengths and level/record counts; the frontier is exactly the
//!   vertices at distance `next_level`, each listed once — a flipped
//!   frontier bit that adds a ghost vertex or erases a real one breaks
//!   this; the unvisited counters match the maps; the records are
//!   numbered in order; and the source plus every level's discovery count
//!   plus the unvisited vertices add up to the graph — a flipped parent
//!   word that fabricates or erases a visit breaks this sum;
//! * partial BFS-tree consistency ([`tree::partial_tree_violation`]):
//!   every visited non-source vertex hangs off a visited parent exactly
//!   one level shallower, across a real edge.
//!
//! Each is one pass over the vertices.
//!
//! Scrubbing is strictly opt-in behind a [`ScrubPolicy`]; the default
//! [`ScrubPolicy::Off`] never runs a check, so the fault-free hot path is
//! untouched. The recovery ladder in `xbfs-core` treats a scrub hit as a
//! detected-corruption signal and rolls back to its last trusted
//! checkpoint instead of letting the corruption reach the caller.

use crate::{tree, TraversalState, XbfsError};
use serde::{Deserialize, Serialize};
use xbfs_graph::Csr;

/// How often the per-level invariant scrubber runs.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq, Serialize, Deserialize)]
pub enum ScrubPolicy {
    /// Never scrub (the default): zero mid-run checks, bit-identical to a
    /// runtime without the scrubber.
    #[default]
    Off,
    /// Scrub at every level boundary whose index is a positive multiple
    /// of `levels`.
    Every {
        /// Scrub cadence in levels (≥ 1).
        levels: u32,
    },
}

impl ScrubPolicy {
    /// Scrub every `levels` level boundaries.
    pub fn every(levels: u32) -> Self {
        ScrubPolicy::Every { levels }
    }

    /// Scrub at every level boundary — the tightest detection latency.
    pub fn every_level() -> Self {
        Self::every(1)
    }

    /// `true` if any scrub will ever run.
    pub fn enabled(&self) -> bool {
        matches!(self, ScrubPolicy::Every { .. })
    }

    /// Is a scrub due at the boundary *before* `level` runs?
    pub fn due(&self, level: u32) -> bool {
        match *self {
            ScrubPolicy::Off => false,
            ScrubPolicy::Every { levels } => {
                levels > 0 && level > 0 && level.is_multiple_of(levels)
            }
        }
    }

    /// Validate the cadence.
    pub fn validate(&self) -> Result<(), XbfsError> {
        match *self {
            ScrubPolicy::Every { levels: 0 } => Err(XbfsError::InvalidArgument {
                what: "scrub cadence must be >= 1 level (use ScrubPolicy::Off to disable)".into(),
            }),
            _ => Ok(()),
        }
    }
}

/// One scrub pass over a mid-traversal state: the first violated invariant
/// as a human-readable message, or `None` if the state is sound.
pub fn scrub_state(csr: &Csr, state: &TraversalState) -> Option<String> {
    if let Err(e) = state.check_against(csr) {
        return Some(match e {
            XbfsError::Checkpoint { what } => what,
            other => other.to_string(),
        });
    }
    tree::partial_tree_violation(csr, &state.output)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::FixedMN;
    use xbfs_graph::NO_PARENT;

    fn mid_state(steps: usize) -> (Csr, TraversalState) {
        let g = xbfs_graph::rmat::rmat_csr(8, 16);
        let mut st = TraversalState::start(&g, 0);
        let mut policy = FixedMN::new(14.0, 24.0);
        for _ in 0..steps {
            st.step(&g, &mut policy);
        }
        (g, st)
    }

    #[test]
    fn policy_cadence_and_validation() {
        assert!(!ScrubPolicy::Off.enabled());
        assert!(!ScrubPolicy::Off.due(4));
        let p = ScrubPolicy::every(2);
        assert!(p.enabled());
        assert!(!p.due(0));
        assert!(!p.due(1));
        assert!(p.due(2));
        assert!(p.due(4));
        assert!(ScrubPolicy::every_level().due(1));
        assert!(ScrubPolicy::Off.validate().is_ok());
        assert!(ScrubPolicy::every(1).validate().is_ok());
        assert!(ScrubPolicy::every(0).validate().is_err());
        assert_eq!(ScrubPolicy::default(), ScrubPolicy::Off);
    }

    #[test]
    fn policy_serde_round_trip() {
        for p in [ScrubPolicy::Off, ScrubPolicy::every(3)] {
            let json = serde_json::to_string(&p).expect("serializes");
            let back: ScrubPolicy = serde_json::from_str(&json).expect("parses");
            assert_eq!(back, p);
        }
    }

    #[test]
    fn clean_states_pass_at_every_pause_point() {
        for steps in 0..6 {
            let (g, st) = mid_state(steps);
            assert_eq!(scrub_state(&g, &st), None, "step {steps}");
        }
    }

    #[test]
    fn detects_a_flipped_parent_word() {
        let (g, mut st) = mid_state(2);
        let victim = st
            .output
            .parents
            .iter()
            .position(|&p| p != NO_PARENT)
            .unwrap();
        st.output.parents[victim] ^= 1 << 7;
        assert!(scrub_state(&g, &st).is_some());
    }

    #[test]
    fn detects_a_flipped_frontier_bit() {
        let (g, mut st) = mid_state(2);
        // Toggle an unvisited vertex into the frontier — the bitmap-flip
        // injection's "set" direction.
        let ghost = (0..g.num_vertices())
            .find(|&v| !st.output.visited(v))
            .expect("mid-run state has unvisited vertices");
        st.frontier.push(ghost);
        let msg = scrub_state(&g, &st).expect("detected");
        assert!(msg.contains(&ghost.to_string()), "{msg}");
    }

    #[test]
    fn detects_an_erased_frontier_vertex() {
        // The bitmap-flip injection's "clear" direction: a real frontier
        // vertex vanishes, and every vertex listed still sits at the right
        // level.
        let g = xbfs_graph::gen::grid(5, 5);
        let mut st = TraversalState::start(&g, 12);
        st.step(&g, &mut FixedMN::new(14.0, 24.0));
        assert_eq!(st.frontier.len(), 4);
        let erased = st.frontier.remove(2);
        let msg = scrub_state(&g, &st).expect("detected");
        assert!(msg.contains("the frontier holds"), "{msg}");
        assert!(st.output.visited(erased));
    }

    #[test]
    fn detects_a_parent_visited_without_a_level() {
        // The parent's level is the `UNREACHED` sentinel; the partial-tree
        // check must report it, not overflow on it.
        let g = xbfs_graph::gen::path(6);
        let mut st = TraversalState::start(&g, 0);
        let mut policy = FixedMN::new(14.0, 24.0);
        st.step(&g, &mut policy);
        st.step(&g, &mut policy);
        st.output.parents[3] = 2;
        st.output.parents[2] = 3;
        assert!(scrub_state(&g, &st).is_some());
    }

    #[test]
    fn detects_a_discovery_count_mismatch() {
        let (g, mut st) = mid_state(2);
        // Fabricate a visit that no level discovered: parent+level look
        // individually plausible but the population sum is off by one.
        let ghost = (0..g.num_vertices() as usize)
            .find(|&v| st.output.parents[v] == NO_PARENT)
            .expect("unvisited vertex exists");
        let donor = (0..g.num_vertices() as usize)
            .find(|&v| v != ghost && st.output.parents[v] != NO_PARENT)
            .expect("visited vertex exists");
        // Give the ghost the same parent/level as a real visited vertex
        // if they are adjacent; otherwise the partial-tree check fires
        // first — either way the scrub must not stay silent.
        st.output.parents[ghost] = st.output.parents[donor];
        st.output.levels[ghost] = st.output.levels[donor];
        assert!(scrub_state(&g, &st).is_some());
    }
}
