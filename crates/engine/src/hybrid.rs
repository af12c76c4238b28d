//! The direction-optimizing BFS driver.
//!
//! One loop drives every sequential engine in this crate: before each level
//! it measures the frontier (`|V|cq`, `|E|cq`), asks the [`SwitchPolicy`]
//! for a direction and runs that level through the pool's kernel pair on
//! the calling thread — top-down over the frontier queue, bottom-up
//! against a frontier bitmap built for the level (the paper's §V-A
//! storage choices). The whole frontier or vertex range runs as one
//! in-order chunk, exactly what a one-thread [`par::run`] dispatch runs,
//! so the two engines agree parent for parent. With [`AlwaysTopDown`] /
//! [`AlwaysBottomUp`] it degenerates to Algorithms 1 / 2; with a
//! [`FixedMN`](crate::FixedMN) policy it is Beamer-style combination BFS.
//!
//! [`AlwaysTopDown`]: crate::AlwaysTopDown
//! [`AlwaysBottomUp`]: crate::AlwaysBottomUp
//! [`par::run`]: crate::par::run

use crate::{
    par,
    stats::LevelRecord,
    trace::{TraceEvent, TraceSink},
    BfsOutput, SwitchContext, SwitchPolicy, Traversal,
};
use serde::{Deserialize, Serialize};
use xbfs_graph::{Bitmap, Csr, VertexId, NO_PARENT};

/// The complete mid-traversal state of the level-synchronous driver:
/// everything needed to execute the next level, and nothing tied to a
/// device. A traversal can be paused at any level boundary, serialized
/// (the recovery subsystem wraps this in a `LevelCheckpoint` for on-disk
/// spill), and resumed — on the same engine or a different one.
#[derive(Clone, Debug, PartialEq, Serialize, Deserialize)]
pub struct TraversalState {
    /// Parent and level maps filled in so far.
    pub output: BfsOutput,
    /// The current frontier: vertices at distance `next_level` from the
    /// source, in driver order (discovery order after a top-down level,
    /// ascending after a bottom-up level).
    pub frontier: Vec<VertexId>,
    /// One record per level executed so far.
    pub levels: Vec<LevelRecord>,
    /// Unvisited vertices before the next level runs.
    pub unvisited_vertices: u64,
    /// Directed out-edges of unvisited vertices before the next level runs.
    pub unvisited_edges: u64,
    /// Index of the next level to execute.
    pub next_level: u32,
}

impl TraversalState {
    /// Fresh state at level 0: the frontier is exactly the source.
    ///
    /// # Panics
    /// Panics if `source` is out of range (same contract as
    /// [`BfsOutput::init`]).
    pub fn start(csr: &Csr, source: VertexId) -> Self {
        let n = csr.num_vertices();
        Self {
            output: BfsOutput::init(n, source),
            frontier: vec![source],
            levels: Vec::new(),
            unvisited_vertices: n as u64 - 1,
            unvisited_edges: csr.num_directed_edges() - csr.degree(source),
            next_level: 0,
        }
    }

    /// `true` once the frontier is empty — no further level can run.
    pub fn is_complete(&self) -> bool {
        self.frontier.is_empty()
    }

    /// The switch features of the next level: the frontier's size, degree
    /// sum and largest degree, and the graph-wide totals. The degree sum
    /// saturates: a pathological dense frontier must clamp at `u64::MAX`
    /// rather than wrap and flip the switch decision.
    pub fn switch_context(&self, csr: &Csr) -> SwitchContext {
        let (frontier_edges, max_frontier_degree) =
            self.frontier.iter().fold((0u64, 0u64), |(sum, max), &v| {
                let d = csr.degree(v);
                (sum.saturating_add(d), max.max(d))
            });
        SwitchContext {
            level: self.next_level,
            frontier_vertices: self.frontier.len() as u64,
            frontier_edges,
            max_frontier_degree,
            unvisited_edges: self.unvisited_edges,
            total_vertices: csr.num_vertices() as u64,
            total_edges: csr.num_directed_edges(),
        }
    }

    /// Execute one level: measure the frontier, ask `policy` for a
    /// direction, run the kernel, and append the level's [`LevelRecord`].
    /// Returns the new record, or `None` if the traversal was already
    /// complete.
    pub fn step(&mut self, csr: &Csr, policy: &mut dyn SwitchPolicy) -> Option<&LevelRecord> {
        if self.frontier.is_empty() {
            return None;
        }
        let ctx = self.switch_context(csr);
        let direction = policy.direction(&ctx);
        let (outcome, vertices_scanned) = par::level_inline(
            csr,
            &self.frontier,
            direction,
            &mut self.output,
            ctx.level + 1,
        );

        let discovered = outcome.next.len() as u64;
        self.levels.push(LevelRecord {
            level: ctx.level,
            frontier_vertices: ctx.frontier_vertices,
            frontier_edges: ctx.frontier_edges,
            max_frontier_degree: ctx.max_frontier_degree,
            unvisited_vertices: self.unvisited_vertices,
            unvisited_edges: self.unvisited_edges,
            edges_examined: outcome.edges_examined,
            vertices_scanned,
            discovered,
            direction,
        });

        self.unvisited_vertices = self.unvisited_vertices.saturating_sub(discovered);
        self.unvisited_edges = self.unvisited_edges.saturating_sub(outcome.next_edges);
        self.frontier = outcome.next;
        self.next_level += 1;
        self.levels.last()
    }

    /// [`step`](Self::step), with the level's wall time measured and the
    /// level reported to `sink` as a [`TraceEvent::EngineLevel`]. When the
    /// sink is disabled this is exactly `step` plus one virtual call.
    pub fn step_traced(
        &mut self,
        csr: &Csr,
        policy: &mut dyn SwitchPolicy,
        sink: &dyn TraceSink,
    ) -> Option<&LevelRecord> {
        if !sink.enabled() {
            return self.step(csr, policy);
        }
        let started = std::time::Instant::now();
        self.step(csr, policy)?;
        let wall_s = started.elapsed().as_secs_f64();
        let rec = *self.levels.last().expect("step pushed a record");
        sink.record(&TraceEvent::EngineLevel {
            level: rec.level,
            direction: rec.direction,
            frontier_vertices: rec.frontier_vertices,
            frontier_edges: rec.frontier_edges,
            edges_examined: rec.edges_examined,
            discovered: rec.discovered,
            wall_s,
        });
        self.levels.last()
    }

    /// Finish: convert into the completed [`Traversal`].
    pub fn into_traversal(self) -> Traversal {
        Traversal {
            output: self.output,
            levels: self.levels,
        }
    }

    /// Structural consistency against `csr` — the gate a deserialized
    /// state must pass before the driver will resume from it, and the
    /// first pass of a mid-run scrub. Checks map lengths and the
    /// level/record bookkeeping, then that the frontier is exactly the set
    /// of vertices at distance `next_level` (each listed once, none
    /// missing), that the unvisited counters match the maps, that the
    /// records are numbered in order, and that the source, every level's
    /// discoveries and the unvisited vertices add up to the graph.
    pub fn check_against(&self, csr: &Csr) -> Result<(), crate::XbfsError> {
        let n = csr.num_vertices() as usize;
        let fail = |what: String| Err(crate::XbfsError::Checkpoint { what });
        if self.output.parents.len() != n || self.output.levels.len() != n {
            return fail(format!(
                "state maps cover {} vertices, graph has {n}",
                self.output.parents.len()
            ));
        }
        if self.levels.len() != self.next_level as usize {
            return fail(format!(
                "state records {} levels but claims to resume at level {}",
                self.levels.len(),
                self.next_level
            ));
        }
        if self.unvisited_vertices > n as u64 || self.unvisited_edges > csr.num_directed_edges() {
            return fail("unvisited counters exceed the graph".into());
        }
        for &v in &self.frontier {
            if v as usize >= n {
                return fail(format!("frontier vertex {v} out of range"));
            }
            if self.output.levels[v as usize] != self.next_level {
                return fail(format!(
                    "frontier vertex {v} is at level {}, expected {}",
                    self.output.levels[v as usize], self.next_level
                ));
            }
        }
        let mut listed = Bitmap::new(n);
        for &v in &self.frontier {
            if listed.get(v) {
                return fail(format!("frontier vertex {v} is listed twice"));
            }
            listed.set(v);
        }
        // One pass over the maps for every count the bookkeeping claims.
        let (mut at_next, mut unvisited, mut unvisited_edges) = (0u64, 0u64, 0u64);
        for v in 0..n {
            if self.output.parents[v] == NO_PARENT {
                unvisited += 1;
                unvisited_edges += csr.degree(v as VertexId);
            } else if self.output.levels[v] == self.next_level {
                at_next += 1;
            }
        }
        if at_next != self.frontier.len() as u64 {
            return fail(format!(
                "{at_next} vertices sit at level {}, the frontier holds {}",
                self.next_level,
                self.frontier.len()
            ));
        }
        if self.unvisited_vertices != unvisited {
            return fail(format!(
                "state counts {} unvisited vertices, the maps hold {unvisited}",
                self.unvisited_vertices
            ));
        }
        if self.unvisited_edges != unvisited_edges {
            return fail(format!(
                "state counts {} unvisited edges, the maps hold {unvisited_edges}",
                self.unvisited_edges
            ));
        }
        if let Some((i, r)) = self
            .levels
            .iter()
            .enumerate()
            .find(|&(i, r)| r.level as usize != i)
        {
            return fail(format!("record {i} is numbered level {}", r.level));
        }
        let discovered = self.levels.iter().map(|r| r.discovered);
        if discovered.clone().try_fold(1 + unvisited, u64::checked_add) != Some(n as u64) {
            return fail(format!(
                "source + {} discovered across {} level(s) + {unvisited} unvisited != {n} vertices",
                discovered.fold(0, u64::saturating_add),
                self.levels.len()
            ));
        }
        Ok(())
    }
}

/// Run a complete traversal from `source`, choosing a direction per level.
///
/// # Examples
/// ```
/// use xbfs_engine::{hybrid, validate, FixedMN};
///
/// let g = xbfs_graph::gen::grid(4, 4);
/// let t = hybrid::run(&g, 0, &mut FixedMN::new(14.0, 24.0));
/// assert_eq!(t.output.visited_count(), 16);
/// assert_eq!(t.output.max_level(), 6); // corner-to-corner Manhattan
/// assert!(validate(&g, &t.output).is_ok());
/// ```
pub fn run(csr: &Csr, source: VertexId, policy: &mut dyn SwitchPolicy) -> Traversal {
    let mut state = TraversalState::start(csr, source);
    while state.step(csr, policy).is_some() {}
    state.into_traversal()
}

/// [`run`], reporting each level to `sink` with measured wall time.
pub fn run_traced(
    csr: &Csr,
    source: VertexId,
    policy: &mut dyn SwitchPolicy,
    sink: &dyn TraceSink,
) -> Traversal {
    let mut state = TraversalState::start(csr, source);
    while state.step_traced(csr, policy, sink).is_some() {}
    state.into_traversal()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{bottomup as bu, topdown as td, Direction, FixedMN};
    use xbfs_graph::gen;

    #[test]
    fn hybrid_matches_pure_engines() {
        let g = xbfs_graph::rmat::rmat_csr(9, 16);
        let reference = td::run(&g, 0);
        let mut policy = FixedMN::new(14.0, 24.0);
        let hybrid = run(&g, 0, &mut policy);
        assert_eq!(hybrid.output.levels, reference.output.levels);
        assert_eq!(
            hybrid.output.visited_count(),
            reference.output.visited_count()
        );
    }

    #[test]
    fn hybrid_actually_switches_on_rmat() {
        let g = xbfs_graph::rmat::rmat_csr(10, 16);
        let mut policy = FixedMN::new(14.0, 24.0);
        let t = run(&g, 0, &mut policy);
        let dirs = t.direction_script();
        assert!(dirs.contains(&Direction::TopDown), "no TD level: {dirs:?}");
        assert!(dirs.contains(&Direction::BottomUp), "no BU level: {dirs:?}");
        // Early levels top-down, the peak bottom-up (the paper's Fig. 3/4).
        assert_eq!(dirs[0], Direction::TopDown);
        let peak = t.peak_level().unwrap() as usize;
        assert_eq!(dirs[peak], Direction::BottomUp);
    }

    #[test]
    fn switch_reduces_examined_edges() {
        // Combination should examine fewer edges than either pure engine on
        // a scale-free graph — that is the entire premise of the paper.
        let g = xbfs_graph::rmat::rmat_csr(11, 16);
        // No fixed vertex id is guaranteed to be non-isolated across
        // generator streams; traverse from a giant-component member.
        let comps = xbfs_graph::components::connected_components(&g);
        let giant = comps.largest().expect("non-empty graph");
        let src = comps
            .members(giant)
            .into_iter()
            .min_by_key(|&v| g.degree(v))
            .expect("giant component has members");
        let td_total = td::run(&g, src).total_edges_examined();
        let bu_total = bu::run(&g, src).total_edges_examined();
        let mut policy = FixedMN::new(14.0, 24.0);
        let hy_total = run(&g, src, &mut policy).total_edges_examined();
        assert!(hy_total < td_total, "hybrid {hy_total} vs TD {td_total}");
        assert!(hy_total < bu_total, "hybrid {hy_total} vs BU {bu_total}");
    }

    #[test]
    fn unvisited_accounting_is_consistent() {
        let g = xbfs_graph::rmat::rmat_csr(8, 8);
        let t = run(&g, 0, &mut FixedMN::new(14.0, 24.0));
        // unvisited counts decrease monotonically and start at |V| - 1.
        assert_eq!(t.levels[0].unvisited_vertices, g.num_vertices() as u64 - 1);
        for w in t.levels.windows(2) {
            assert_eq!(
                w[1].unvisited_vertices,
                w[0].unvisited_vertices - w[0].discovered
            );
            assert!(w[1].unvisited_edges <= w[0].unvisited_edges);
        }
    }

    #[test]
    fn single_vertex_graph() {
        let g = gen::path(1);
        let t = run(&g, 0, &mut FixedMN::new(10.0, 10.0));
        assert_eq!(t.output.visited_count(), 1);
        assert_eq!(t.depth(), 1);
    }

    #[test]
    fn frontier_edge_metric_matches_degree_sum() {
        let g = gen::binary_tree(15);
        let t = run(&g, 0, &mut crate::AlwaysTopDown);
        // Level 1 frontier = {1, 2}, both have degree 3 in a 15-node tree.
        assert_eq!(t.levels[1].frontier_vertices, 2);
        assert_eq!(t.levels[1].frontier_edges, 6);
    }

    #[test]
    fn stepwise_state_matches_monolithic_run() {
        let g = xbfs_graph::rmat::rmat_csr(9, 16);
        let whole = run(&g, 0, &mut FixedMN::new(14.0, 24.0));
        let mut policy = FixedMN::new(14.0, 24.0);
        let mut st = TraversalState::start(&g, 0);
        let mut steps = 0;
        while st.step(&g, &mut policy).is_some() {
            steps += 1;
        }
        assert_eq!(steps, whole.levels.len());
        let stepped = st.into_traversal();
        assert_eq!(stepped.output, whole.output);
        assert_eq!(stepped.levels, whole.levels);
    }

    #[test]
    fn state_paused_at_any_level_resumes_identically() {
        // Serialize mid-traversal, deserialize, finish: byte-identical to
        // an uninterrupted run — the property the checkpoint system needs.
        let g = xbfs_graph::rmat::rmat_csr(8, 16);
        let whole = run(&g, 0, &mut FixedMN::new(14.0, 24.0));
        for pause_at in 0..whole.levels.len() {
            let mut policy = FixedMN::new(14.0, 24.0);
            let mut st = TraversalState::start(&g, 0);
            for _ in 0..pause_at {
                st.step(&g, &mut policy);
            }
            let json = serde_json::to_string(&st).expect("state serializes");
            let mut back: TraversalState = serde_json::from_str(&json).expect("parses");
            assert_eq!(back, st);
            assert!(back.check_against(&g).is_ok());
            let mut policy = FixedMN::new(14.0, 24.0);
            while back.step(&g, &mut policy).is_some() {}
            let resumed = back.into_traversal();
            assert_eq!(resumed.output, whole.output);
            assert_eq!(resumed.levels, whole.levels);
        }
    }

    #[test]
    fn traced_run_matches_untraced_and_reports_every_level() {
        let g = xbfs_graph::rmat::rmat_csr(9, 16);
        let plain = run(&g, 0, &mut FixedMN::new(14.0, 24.0));
        let sink = crate::trace::MemorySink::new();
        let traced = run_traced(&g, 0, &mut FixedMN::new(14.0, 24.0), &sink);
        assert_eq!(traced.output, plain.output);
        assert_eq!(traced.levels, plain.levels);
        let events = sink.events();
        assert_eq!(events.len(), plain.levels.len());
        for (ev, rec) in events.iter().zip(&plain.levels) {
            match ev {
                TraceEvent::EngineLevel {
                    level,
                    direction,
                    edges_examined,
                    wall_s,
                    ..
                } => {
                    assert_eq!(*level, rec.level);
                    assert_eq!(*direction, rec.direction);
                    assert_eq!(*edges_examined, rec.edges_examined);
                    assert!(wall_s.is_finite() && *wall_s >= 0.0);
                }
                other => panic!("unexpected event {other:?}"),
            }
        }
        // A disabled sink takes the plain-step fast path.
        let t2 = run_traced(
            &g,
            0,
            &mut FixedMN::new(14.0, 24.0),
            &crate::trace::NULL_SINK,
        );
        assert_eq!(t2.output, plain.output);
    }

    #[test]
    fn check_against_rejects_corrupt_states() {
        let g = xbfs_graph::rmat::rmat_csr(7, 8);
        let mut st = TraversalState::start(&g, 0);
        st.step(&g, &mut FixedMN::new(14.0, 24.0));
        assert!(st.check_against(&g).is_ok());

        let mut bad = st.clone();
        bad.next_level = 7; // record count no longer matches
        assert!(bad.check_against(&g).is_err());

        let mut bad = st.clone();
        bad.frontier.push(g.num_vertices()); // out of range
        assert!(bad.check_against(&g).is_err());

        let mut bad = st.clone();
        if let Some(v) = bad.frontier.first().copied() {
            bad.output.levels[v as usize] = 0; // wrong distance
            assert!(bad.check_against(&g).is_err());
        }

        let smaller = gen::path(3);
        assert!(st.check_against(&smaller).is_err());

        // States every listed vertex of which looks right, but which the
        // engine cannot produce.
        let rejects = |bad: &TraversalState, needle: &str| {
            let err = bad.check_against(&g).expect_err(needle).to_string();
            assert!(err.contains(needle), "{err}");
        };
        assert!(st.frontier.len() > 1, "fixture needs a wide frontier");
        let mut bad = st.clone();
        bad.frontier.push(bad.frontier[0]); // repeated
        rejects(&bad, "listed twice");

        let mut bad = st.clone();
        bad.frontier.pop(); // erased
        rejects(&bad, "the frontier holds");

        let mut bad = st.clone();
        bad.unvisited_vertices = 0;
        rejects(&bad, "unvisited vertices");

        let mut bad = st.clone();
        bad.unvisited_edges = 0;
        rejects(&bad, "unvisited edges");

        let mut bad = st.clone();
        bad.step(&g, &mut FixedMN::new(14.0, 24.0));
        bad.levels.swap(0, 1); // numbered out of order
        rejects(&bad, "record 0 is numbered level 1");

        let mut bad = st.clone();
        bad.levels[0].discovered += 1; // discoveries no longer add up
        rejects(&bad, "discovered");

        let mut bad = st.clone();
        bad.levels[0].discovered = u64::MAX; // and must not overflow
        rejects(&bad, "discovered");
    }
}
