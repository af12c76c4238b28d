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
//! [`scrub_state`] checks both from scratch, one pass over the vertices
//! each. It is the *cold reporter*: its first violation is the scrub's
//! verdict and message. The recovery ladder and `xbfs-cli bfs --scrub`
//! scrub through a [`Scrubber`], which returns exactly what `scrub_state`
//! returns but spends far less on a sound state:
//!
//! * **A trust value.** A passing scrub remembers its boundary's level
//!   `k`, the source, and a wrapping sum of one term per entry at level
//!   `≤ k`. Those entries were tree-checked then, and a sound traversal
//!   never changes them. The trust is dropped whenever the state is
//!   replaced by a fresh start or a restore: its owner starts a fresh
//!   scrubber.
//! * **One fused pass.** The next scrub makes one pass over the maps. It
//!   does all of `check_against`'s counting, runs every tree check,
//!   `has_edge` included, on the entries above level `k`, and folds the
//!   entries at or below `k` into a sum that must equal the trusted one.
//!   A sound state costs one binary search per vertex discovered since
//!   the last scrub, not one per visited vertex.
//! * **The cold reporter.** When any check of the fused pass fails,
//!   `scrub_state` runs and its verdict and message are returned. So a
//!   detection, and its message, are `scrub_state`'s by construction.
//!
//! The term is a full splitmix64 finalizer of the vertex, its parent and
//! its level. A weaker term lets structured flips cancel. Take the linear
//! term `(parent << 32 | level) · (2v + 1)`: flipping bit 31 of a parent
//! word adds 2^63 to it, so two such flips add 2^64 ≡ 0 and the sum does
//! not move. A lone multiply has the same blind spot, since it carries a
//! bit only upward. The finalizer's xor-shifts carry every input bit into
//! every output bit, so a change to any old entries moves the sum unless
//! the changed terms happen to cancel, a chance of about 2^-64.
//!
//! Scrubbing is strictly opt-in behind a [`ScrubPolicy`]; the default
//! [`ScrubPolicy::Off`] never runs a check, so the fault-free hot path is
//! untouched. The recovery ladder in `xbfs-core` treats a scrub hit as a
//! detected-corruption signal and rolls back to its last trusted
//! checkpoint instead of letting the corruption reach the caller.

use crate::{tree, BfsOutput, TraversalState, XbfsError, UNREACHED};
use serde::{Deserialize, Serialize};
use xbfs_graph::{Bitmap, Csr, VertexId, NO_PARENT};

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
/// as a human-readable message, or `None` if the state is sound. This is
/// the cold reporter; [`Scrubber::scrub`] returns the same answer.
pub fn scrub_state(csr: &Csr, state: &TraversalState) -> Option<String> {
    if let Err(e) = state.check_against(csr) {
        return Some(match e {
            XbfsError::Checkpoint { what } => what,
            other => other.to_string(),
        });
    }
    tree::partial_tree_violation(csr, &state.output)
}

/// The scrub of the recovery ladder and `xbfs-cli bfs --scrub`: it returns
/// [`scrub_state`]'s answer, and carries trust from one passing scrub to
/// the next so that a sound state costs one fused pass (see the module
/// docs). A scrubber follows one traversal state: start a fresh one
/// whenever the state is replaced by a fresh start or a restore.
#[derive(Clone, Debug, Default)]
pub struct Scrubber {
    trust: Option<Trust>,
}

/// What the last passing scrub vouched for.
#[derive(Clone, Copy, Debug)]
struct Trust {
    /// The state's `next_level` then: every entry at or below it passed.
    level: u32,
    /// The traversal's source then.
    source: VertexId,
    /// Wrapping sum of [`entry_term`] over those entries.
    sum: u64,
}

impl Scrubber {
    /// Scrub `state`: the first violated invariant as [`scrub_state`]
    /// words it, or `None` if the state is sound.
    pub fn scrub(&mut self, csr: &Csr, state: &TraversalState) -> Option<String> {
        self.trust = self.fused_pass(csr, state);
        if self.trust.is_some() {
            return None;
        }
        scrub_state(csr, state)
    }

    /// Every check of [`scrub_state`] in one pass over the maps, with the
    /// entries at or below the trusted level summed instead of
    /// tree-checked. Returns the new trust if all of them hold.
    fn fused_pass(&self, csr: &Csr, st: &TraversalState) -> Option<Trust> {
        let n = csr.num_vertices();
        let out = &st.output;
        let numbered = (0u32..).zip(&st.levels).all(|(i, r)| r.level == i);
        if out.parents.len() != n as usize
            || out.levels.len() != n as usize
            || st.levels.len() != st.next_level as usize
            || st.unvisited_vertices > u64::from(n)
            || st.unvisited_edges > csr.num_directed_edges()
            || out.source >= n
            || out.parents[out.source as usize] != out.source
            || !numbered
        {
            return None;
        }
        let mut listed = Bitmap::new(n as usize);
        for &v in &st.frontier {
            if v >= n || out.levels[v as usize] != st.next_level || listed.get(v) {
                return None;
            }
            listed.set(v);
        }
        let trusted = self
            .trust
            .filter(|t| t.source == out.source && t.level <= st.next_level);
        let old_level = trusted.map(|t| t.level);
        let (mut old_sum, mut new_sum) = (0u64, 0u64);
        let (mut at_next, mut unvisited, mut unvisited_edges) = (0u64, 0u64, 0u64);
        for v in 0..n {
            let (p, l) = (out.parents[v as usize], out.levels[v as usize]);
            if p == NO_PARENT {
                unvisited += 1;
                unvisited_edges += csr.degree(v);
            } else if l == st.next_level {
                at_next += 1;
            }
            if old_level.is_some_and(|k| l <= k) {
                old_sum = old_sum.wrapping_add(entry_term(v, p, l));
            } else if !tree_entry_sound(csr, out, v, p, l) {
                return None;
            } else if l <= st.next_level {
                new_sum = new_sum.wrapping_add(entry_term(v, p, l));
            }
        }
        let mut discovered = st.levels.iter().map(|r| r.discovered);
        if trusted.is_some_and(|t| t.sum != old_sum)
            || at_next != st.frontier.len() as u64
            || unvisited != st.unvisited_vertices
            || unvisited_edges != st.unvisited_edges
            || discovered.try_fold(1 + unvisited, u64::checked_add) != Some(u64::from(n))
        {
            return None;
        }
        Some(Trust {
            level: st.next_level,
            source: out.source,
            sum: old_sum.wrapping_add(new_sum),
        })
    }
}

/// One entry's term in the trust sum: the splitmix64 output function
/// (the golden-gamma step, then the full finalizer) on the parent and
/// level, keyed by the vertex.
fn entry_term(v: VertexId, parent: VertexId, level: u32) -> u64 {
    const GAMMA: u64 = 0x9E37_79B9_7F4A_7C15;
    let mut z = (u64::from(parent) << 32 | u64::from(level)) ^ u64::from(v).wrapping_mul(GAMMA);
    z = z.wrapping_add(GAMMA);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// [`tree::partial_tree_violation`]'s check of one entry `v → p` at level
/// `l`, as a verdict only; the source's own entry is checked up front.
fn tree_entry_sound(csr: &Csr, out: &BfsOutput, v: VertexId, p: VertexId, l: u32) -> bool {
    if p == NO_PARENT {
        return l == UNREACHED;
    }
    if l == UNREACHED {
        return false;
    }
    v == out.source
        || (p < csr.num_vertices()
            && out.parents[p as usize] != NO_PARENT
            && out.levels[p as usize].checked_add(1) == Some(l)
            && csr.has_edge(p, v))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::FixedMN;
    use proptest::prelude::*;
    use proptest::test_runner::TestRng;
    use std::sync::OnceLock;
    use xbfs_graph::gen;

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
        let mut scrubber = Scrubber::default();
        for steps in 0..6 {
            let (g, st) = mid_state(steps);
            assert_eq!(scrub_state(&g, &st), None, "step {steps}");
            assert_eq!(scrubber.scrub(&g, &st), None, "step {steps}");
            assert!(scrubber.trust.is_some(), "step {steps}");
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

    /// Graphs for the differential test: R-MAT (hubs and isolated
    /// vertices), a road-like lattice, two components and the closed-form
    /// shapes.
    fn corpus() -> &'static [Csr] {
        static CORPUS: OnceLock<Vec<Csr>> = OnceLock::new();
        CORPUS.get_or_init(|| {
            vec![
                xbfs_graph::rmat::rmat_csr(8, 8),
                gen::road_like(12, 12, 8, 3),
                gen::two_cliques(5),
                gen::grid(6, 7),
                gen::path(10),
                gen::star(9),
            ]
        })
    }

    /// `(kind, vertex seed, argument)`: a parent-bit flip in an entry at or
    /// below the trusted level, the same in an entry above it, a level-bit
    /// flip, a frontier toggle, a copy of another vertex's entry, a
    /// re-parent, a bit flip in the source's own entry, and a frontier
    /// entry overwritten by another.
    type Corruption = (u8, u32, u32);

    fn corrupt(st: &mut TraversalState, trusted: u32, (kind, a, b): Corruption) {
        let n = st.output.parents.len() as u32;
        let out = &mut st.output;
        // The `a`-th visited vertex on one side of the trusted level, or
        // any vertex if that side is empty.
        let pick = |levels: &[u32], old: bool| {
            let side: Vec<usize> = (0..n as usize)
                .filter(|&v| levels[v] != UNREACHED && (levels[v] <= trusted) == old)
                .collect();
            match side.len() {
                0 => (a % n) as usize,
                len => side[a as usize % len],
            }
        };
        let (v, w) = ((a % n) as usize, (b % n) as usize);
        match kind {
            0 | 1 => {
                let v = pick(&out.levels, kind == 0);
                out.parents[v] ^= 1 << (b % 32);
            }
            2 => out.levels[v] ^= 1 << (b % 32),
            3 => match st.frontier.iter().position(|&f| f as usize == v) {
                Some(i) => {
                    st.frontier.remove(i);
                }
                None => st.frontier.push(v as VertexId),
            },
            4 => {
                out.parents[v] = out.parents[w];
                out.levels[v] = out.levels[w];
            }
            5 => out.parents[v] = w as VertexId,
            6 => {
                let s = out.source as usize;
                if b % 2 == 0 {
                    out.parents[s] ^= 1 << ((b / 2) % 32);
                } else {
                    out.levels[s] ^= 1 << ((b / 2) % 32);
                }
            }
            _ => {
                let len = st.frontier.len();
                if len > 0 {
                    st.frontier[a as usize % len] = st.frontier[b as usize % len];
                }
            }
        }
    }

    /// A corpus graph, a source seed, the levels run with a scrub after
    /// each, the levels run after the last scrub, and 1–3 corruptions.
    type Case = (usize, u32, u32, u32, Vec<Corruption>);

    fn arb_case() -> impl Strategy<Value = Case> {
        (
            0..corpus().len(),
            any::<u32>(),
            0u32..6,
            0u32..3,
            prop::collection::vec((0u8..8, any::<u32>(), any::<u32>()), 1..4),
        )
    }

    /// Run one case: scrub a clean traversal at each of its first
    /// boundaries, run on, corrupt the state, and return the incremental
    /// scrub's answer, the cold reporter's, and whether the scrubber held
    /// trust.
    fn run_case(
        (graph, source, scrubbed, unscrubbed, corruptions): Case,
    ) -> (Option<String>, Option<String>, bool) {
        let g = &corpus()[graph];
        let mut st = TraversalState::start(g, source % g.num_vertices());
        let mut policy = FixedMN::new(14.0, 24.0);
        let mut scrubber = Scrubber::default();
        for _ in 0..scrubbed {
            st.step(g, &mut policy);
            assert_eq!(scrubber.scrub(g, &st), None, "a clean state passes");
        }
        let trusted = st.next_level;
        for _ in 0..unscrubbed {
            st.step(g, &mut policy);
        }
        for c in corruptions {
            corrupt(&mut st, trusted, c);
        }
        let had_trust = scrubber.trust.is_some();
        (scrubber.scrub(g, &st), scrub_state(g, &st), had_trust)
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(1024))]

        #[test]
        fn incremental_scrub_matches_the_reporter(case in arb_case()) {
            let (incremental, cold, _) = run_case(case);
            prop_assert_eq!(incremental, cold);
        }
    }

    #[test]
    fn corruption_cases_reach_every_outcome() {
        // The differential property is only as strong as the states it
        // sees: with and without trust, some must pass and some must not.
        let mut rng = TestRng::from_name("scrub_corruption_cases_reach_every_outcome");
        let mut seen = std::collections::BTreeSet::new();
        for _ in 0..1024 {
            let (_, cold, had_trust) = run_case(arb_case().generate(&mut rng));
            seen.insert((had_trust, cold.is_some()));
        }
        assert_eq!(seen.len(), 4, "{seen:?}");
    }

    #[test]
    fn two_bit31_flips_in_trusted_parent_words_are_caught() {
        // Bit 31 of a parent word is bit 63 of `parent << 32 | level`, so
        // each flip adds 2^63 to a linear term such as
        // `(parent << 32 | level) · (2v + 1)`, and two flips cancel.
        let g = gen::road_like(12, 12, 8, 3);
        let mut st = TraversalState::start(&g, 0);
        let mut policy = FixedMN::new(14.0, 24.0);
        let mut scrubber = Scrubber::default();
        for _ in 0..4 {
            st.step(&g, &mut policy);
            assert_eq!(scrubber.scrub(&g, &st), None);
        }
        let trusted = st.next_level;
        st.step(&g, &mut policy);
        let linear = |st: &TraversalState| {
            let out = &st.output;
            (0..out.parents.len())
                .filter(|&v| out.levels[v] <= trusted)
                .fold(0u64, |sum, v| {
                    let entry = u64::from(out.parents[v]) << 32 | u64::from(out.levels[v]);
                    sum.wrapping_add(entry.wrapping_mul(2 * v as u64 + 1))
                })
        };
        let before = linear(&st);
        let victims: Vec<usize> = (0..g.num_vertices() as usize)
            .filter(|&v| v != 0 && st.output.levels[v] <= trusted)
            .take(2)
            .collect();
        assert_eq!(victims.len(), 2);
        for &v in &victims {
            st.output.parents[v] ^= 1 << 31;
        }
        assert_eq!(linear(&st), before, "a linear sum misses the pair");
        let cold = scrub_state(&g, &st);
        assert!(cold.is_some());
        assert_eq!(scrubber.scrub(&g, &st), cold);
    }
}
