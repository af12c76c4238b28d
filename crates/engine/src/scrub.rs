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
//! * **A shadow copy.** A passing scrub keeps a copy of the parent and
//!   level maps it saw, with its boundary's level, the source and the
//!   unvisited-edge count it verified. A sound traversal writes an entry
//!   once, when it discovers the vertex. The shadow is dropped whenever
//!   the state is replaced by a fresh start or a restore: its owner
//!   starts a fresh scrubber. A scrubber without a shadow starts from the
//!   shadow of a traversal that has only just left the source, so its
//!   first scrub tree-checks every visited entry and fills the shadow.
//! * **One compare pass.** The next scrub compares the live maps with the
//!   shadow in fixed 16-entry chunks, and counts the unvisited entries and
//!   the entries at `next_level` in the same branch-free pass. Only a
//!   chunk that differs is walked entry by entry. An entry that differs
//!   must have been unvisited in the shadow, and it must pass the tree
//!   check, `has_edge` included; its degree leaves the trusted
//!   unvisited-edge count. Once `check_against`'s counts hold, the changed
//!   entries are in the shadow. A sound state costs one streaming compare
//!   plus one tree check per vertex discovered since the last scrub,
//!   wherever those vertices are: they need not be the frontier.
//! * **The cold reporter.** When any check fails, `scrub_state` runs and
//!   its verdict and message are returned. So a detection, and its
//!   message, are `scrub_state`'s by construction.
//!
//! The compare pass is exact, not probabilistic. An unchanged visited
//! entry still passes the tree check: its parent was visited in the
//! shadow, and a visited shadow entry that changed fails the pass, so the
//! parent's entry is unchanged too. A changed entry is tree-checked
//! against the live maps. So every state the pass accepts is one
//! `scrub_state` accepts, whatever bits changed.
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
/// [`scrub_state`]'s answer, and keeps a shadow copy of the last state it
/// passed, so that a sound state costs one compare pass against it (see
/// the module docs). The shadow holds 8 bytes per vertex. A scrubber
/// follows one traversal state: start a fresh one whenever the state is
/// replaced by a fresh start or a restore.
#[derive(Clone, Debug, Default)]
pub struct Scrubber {
    /// The last state a scrub passed; `None` before the first scrub and
    /// after any scrub that did not pass its own checks.
    shadow: Option<Shadow>,
}

/// What the last passing scrub saw.
#[derive(Clone, Debug)]
struct Shadow {
    /// The state's `next_level` then.
    level: u32,
    /// The traversal's source then.
    source: VertexId,
    /// The out-edges of the vertices the maps then left unvisited.
    unvisited_edges: u64,
    /// The parent map then.
    parents: Vec<VertexId>,
    /// The level map then.
    levels: Vec<u32>,
}

/// Entries per chunk of the compare pass. A whole chunk is compared,
/// branch-free, before any of its entries is looked at alone.
const CHUNK: usize = 16;

impl Scrubber {
    /// Scrub `state`: the first violated invariant as [`scrub_state`]
    /// words it, or `None` if the state is sound.
    pub fn scrub(&mut self, csr: &Csr, state: &TraversalState) -> Option<String> {
        let n = csr.num_vertices() as usize;
        self.shadow = match self.shadow.take() {
            _ if !header_sound(csr, state) => None,
            Some(shadow)
                if shadow.source == state.output.source
                    && shadow.level <= state.next_level
                    && shadow.parents.len() == n =>
            {
                shadow.compare_pass(csr, state)
            }
            _ => Shadow::start(csr, state.output.source).compare_pass(csr, state),
        };
        if self.shadow.is_some() {
            return None;
        }
        scrub_state(csr, state)
    }
}

impl Shadow {
    /// The shadow of a traversal that has only just left `source`: every
    /// entry but the source's unvisited. A compare pass against it
    /// tree-checks every visited entry of the state it scrubs.
    fn start(csr: &Csr, source: VertexId) -> Shadow {
        let st = TraversalState::start(csr, source);
        Shadow {
            level: st.next_level,
            source,
            unvisited_edges: st.unvisited_edges,
            parents: st.output.parents,
            levels: st.output.levels,
        }
    }

    /// The same checks against this shadow of an earlier boundary: one
    /// branch-free compare and count per 16-entry chunk, and an entry walk
    /// only where a chunk differs. Returns the shadow updated to `st` if
    /// all of them hold.
    fn compare_pass(mut self, csr: &Csr, st: &TraversalState) -> Option<Shadow> {
        let out = &st.output;
        let next = st.next_level;
        let (mut at_next, mut unvisited, mut discovered_edges) = (0u64, 0u64, 0u64);
        let live = out
            .parents
            .chunks_exact(CHUNK)
            .zip(out.levels.chunks_exact(CHUNK));
        let kept = self
            .parents
            .chunks_exact_mut(CHUNK)
            .zip(self.levels.chunks_exact_mut(CHUNK));
        for (chunk, ((lp, ll), (sp, sl))) in live.zip(kept).enumerate() {
            let lp: &[VertexId; CHUNK] = lp.try_into().expect("an exact chunk");
            let ll: &[u32; CHUNK] = ll.try_into().expect("an exact chunk");
            let sp: &mut [VertexId; CHUNK] = sp.try_into().expect("an exact chunk");
            let sl: &mut [u32; CHUNK] = sl.try_into().expect("an exact chunk");
            let (mut differ, mut none, mut at) = (0u32, 0u32, 0u32);
            for i in 0..CHUNK {
                differ |= (lp[i] ^ sp[i]) | (ll[i] ^ sl[i]);
                none += u32::from(lp[i] == NO_PARENT);
                at += u32::from(ll[i] == next);
            }
            unvisited += u64::from(none);
            at_next += u64::from(at);
            if differ != 0 {
                let mut changed = 0u32;
                for i in 0..CHUNK {
                    changed |= u32::from(lp[i] != sp[i] || ll[i] != sl[i]) << i;
                }
                while changed != 0 {
                    let i = changed.trailing_zeros() as usize;
                    changed &= changed - 1;
                    discovered_edges += adopt(csr, out, chunk * CHUNK + i, &mut sp[i], &mut sl[i])?;
                }
            }
        }
        let tail = out.parents.len() / CHUNK * CHUNK;
        for v in tail..out.parents.len() {
            unvisited += u64::from(out.parents[v] == NO_PARENT);
            at_next += u64::from(out.levels[v] == next);
            if (out.parents[v], out.levels[v]) != (self.parents[v], self.levels[v]) {
                discovered_edges += adopt(csr, out, v, &mut self.parents[v], &mut self.levels[v])?;
            }
        }
        // The compare pass counts every entry at `next_level`, where
        // `check_against` counts only visited ones; they agree once every
        // entry passed the tree check, which rules out a level without a
        // parent.
        let unvisited_edges = self.unvisited_edges.checked_sub(discovered_edges)?;
        if !counts_sound(csr, st, at_next, unvisited, unvisited_edges) {
            return None;
        }
        self.level = next;
        self.unvisited_edges = unvisited_edges;
        Some(self)
    }
}

/// Copy live entry `v`, which differs from its shadow entry `(p, l)`,
/// into the shadow. It must have been unvisited in the shadow and must
/// pass the tree check against the live maps. Returns the degree that
/// left the unvisited set, or `None` if the change fails.
fn adopt(csr: &Csr, out: &BfsOutput, v: usize, p: &mut VertexId, l: &mut u32) -> Option<u64> {
    let live = (out.parents[v], out.levels[v]);
    let v = v as VertexId;
    if *p != NO_PARENT || !tree_entry_sound(csr, out, v, live.0, live.1) {
        return None;
    }
    (*p, *l) = live;
    Some(csr.degree(v))
}

/// `check_against`'s checks that read no map entry beyond the source's
/// and the frontier's: map lengths, counter bounds, the source's root
/// entry, record numbering, and a frontier of distinct in-range vertices
/// at `next_level`.
fn header_sound(csr: &Csr, st: &TraversalState) -> bool {
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
        return false;
    }
    let mut listed = Bitmap::new(n as usize);
    for &v in &st.frontier {
        if v >= n || out.levels[v as usize] != st.next_level || listed.get(v) {
            return false;
        }
        listed.set(v);
    }
    true
}

/// `check_against`'s counting checks, given the maps' counts: vertices
/// at `next_level`, unvisited vertices and their out-edges.
fn counts_sound(
    csr: &Csr,
    st: &TraversalState,
    at_next: u64,
    unvisited: u64,
    unvisited_edges: u64,
) -> bool {
    let mut discovered = st.levels.iter().map(|r| r.discovered);
    at_next == st.frontier.len() as u64
        && unvisited == st.unvisited_vertices
        && unvisited_edges == st.unvisited_edges
        && discovered.try_fold(1 + unvisited, u64::checked_add)
            == Some(u64::from(csr.num_vertices()))
}

/// [`tree::partial_tree_violation`]'s check of one non-source entry
/// `v → p` at level `l`, as a verdict only. The source's entry never gets
/// here: the header checks its parent, and every shadow holds its level 0.
fn tree_entry_sound(csr: &Csr, out: &BfsOutput, v: VertexId, p: VertexId, l: u32) -> bool {
    if p == NO_PARENT {
        return l == UNREACHED;
    }
    l != UNREACHED
        && p < csr.num_vertices()
        && out.parents[p as usize] != NO_PARENT
        && out.levels[p as usize].checked_add(1) == Some(l)
        && csr.has_edge(p, v)
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
            assert!(scrubber.shadow.is_some(), "step {steps}");
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
    /// re-parent, a bit flip in the source's own entry, a frontier entry
    /// overwritten by another, and a trusted entry re-parented to another
    /// neighbour one level shallower, which leaves the tree sound.
    type Corruption = (u8, u32, u32);

    fn corrupt(g: &Csr, st: &mut TraversalState, trusted: u32, (kind, a, b): Corruption) {
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
            7 => {
                let len = st.frontier.len();
                if len > 0 {
                    st.frontier[a as usize % len] = st.frontier[b as usize % len];
                }
            }
            _ => {
                let v = pick(&out.levels, true);
                if let Some(u) = other_parent(g, out, v as VertexId, b) {
                    out.parents[v] = u;
                }
            }
        }
    }

    /// The `b`-th neighbour of `v`, counted among those one level
    /// shallower than `v` other than its parent, if it has any.
    fn other_parent(g: &Csr, out: &BfsOutput, v: VertexId, b: u32) -> Option<VertexId> {
        let (p, l) = (out.parents[v as usize], out.levels[v as usize]);
        let others: Vec<VertexId> = g
            .neighbors(v)
            .iter()
            .copied()
            .filter(|&u| u != p && u != v && out.levels[u as usize].checked_add(1) == Some(l))
            .collect();
        (!others.is_empty()).then(|| others[b as usize % others.len()])
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
            prop::collection::vec((0u8..9, any::<u32>(), any::<u32>()), 1..4),
        )
    }

    /// What one case saw: the scrubber's answer on the corrupted state, the
    /// cold reporter's, whether the scrubber held a shadow, and the
    /// scrubber's answer when it scrubs the same state once more.
    struct Outcome {
        scrubbed: Option<String>,
        cold: Option<String>,
        had_shadow: bool,
        rescrubbed: Option<String>,
    }

    /// Run one case: scrub a clean traversal at each of its first
    /// boundaries, run on, corrupt the state, then scrub it twice.
    fn run_case((graph, source, scrubbed, unscrubbed, corruptions): Case) -> Outcome {
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
            corrupt(g, &mut st, trusted, c);
        }
        let had_shadow = scrubber.shadow.is_some();
        Outcome {
            scrubbed: scrubber.scrub(g, &st),
            cold: scrub_state(g, &st),
            had_shadow,
            rescrubbed: scrubber.scrub(g, &st),
        }
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(1024))]

        #[test]
        fn incremental_scrub_matches_the_reporter(case in arb_case()) {
            let outcome = run_case(case);
            prop_assert_eq!(&outcome.scrubbed, &outcome.cold);
            prop_assert_eq!(&outcome.rescrubbed, &outcome.cold);
        }
    }

    #[test]
    fn corruption_cases_reach_every_outcome() {
        // The differential property is only as strong as the states it
        // sees: with and without a shadow, some must pass and some must not.
        let mut rng = TestRng::from_name("scrub_corruption_cases_reach_every_outcome");
        let mut seen = std::collections::BTreeSet::new();
        for _ in 0..1024 {
            let outcome = run_case(arb_case().generate(&mut rng));
            seen.insert((outcome.had_shadow, outcome.cold.is_some()));
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

    #[test]
    fn scrubbing_the_same_boundary_twice_passes_and_keeps_the_shadow() {
        let g = gen::road_like(12, 12, 8, 3);
        let mut st = TraversalState::start(&g, 0);
        let mut policy = FixedMN::new(14.0, 24.0);
        let mut scrubber = Scrubber::default();
        while st.step(&g, &mut policy).is_some() {
            for pass in 0..2 {
                assert_eq!(scrubber.scrub(&g, &st), None, "level {}", st.next_level);
                let shadow = scrubber.shadow.as_ref().expect("a passing scrub keeps one");
                assert_eq!(shadow.level, st.next_level, "pass {pass}");
                assert_eq!(shadow.unvisited_edges, st.unvisited_edges, "pass {pass}");
                assert_eq!(shadow.parents, st.output.parents, "pass {pass}");
                assert_eq!(shadow.levels, st.output.levels, "pass {pass}");
            }
        }
    }

    #[test]
    fn a_reparented_trusted_entry_falls_back_to_the_reporter() {
        // Another neighbour one level shallower is as good a parent, so the
        // cold reporter accepts the state. The shadow sees a visited entry
        // change: it cannot vouch for that, so it hands over to the
        // reporter, and the next scrub starts afresh.
        let g = gen::road_like(12, 12, 8, 3);
        let mut st = TraversalState::start(&g, 0);
        let mut policy = FixedMN::new(14.0, 24.0);
        let mut scrubber = Scrubber::default();
        for _ in 0..6 {
            st.step(&g, &mut policy);
            assert_eq!(scrubber.scrub(&g, &st), None);
        }
        st.step(&g, &mut policy);
        let (v, u) = (1..g.num_vertices())
            .filter(|&v| st.output.levels[v as usize] <= 6)
            .find_map(|v| Some((v, other_parent(&g, &st.output, v, 0)?)))
            .expect("a lattice vertex with two shallower neighbours");
        st.output.parents[v as usize] = u;
        assert_eq!(scrub_state(&g, &st), None);
        assert_eq!(scrubber.scrub(&g, &st), None);
        assert!(
            scrubber.shadow.is_none(),
            "a changed visited entry is not adopted"
        );
        assert_eq!(scrubber.scrub(&g, &st), None);
        let shadow = scrubber.shadow.as_ref().expect("a full pass refills it");
        assert_eq!(shadow.parents[v as usize], u);
    }
}
