//! Graph 500-style BFS output validation.
//!
//! The Graph 500 specification (kernel 2 validation) requires that a claimed
//! BFS tree satisfy five properties; [`validate`] checks them all:
//!
//! 1. the source is its own parent at level 0;
//! 2. visited and unvisited are consistent between the parent and level maps;
//! 3. every tree edge `(parent[v], v)` exists in the graph;
//! 4. every tree edge spans exactly one level;
//! 5. no graph edge connects a visited vertex to an unvisited one (i.e. the
//!    traversal is complete), and no graph edge spans more than one level.
//!
//! # One pass over the visited rows
//!
//! After the length and source checks, [`validate`] decides properties 2–5
//! in a single sweep over the CSR in vertex order. Every vertex folds its
//! parent/level agreement. An unvisited vertex's row is skipped. A visited
//! vertex's row is streamed once, without early exit, folding two facts:
//! every neighbour is visited and within one level of it, and its parent
//! is among its neighbours. A non-source vertex then needs that parent
//! visited exactly one level shallower.
//!
//! Skipping unvisited rows loses nothing because every [`Csr`] is
//! symmetric (both constructors guarantee it). An edge between a visited
//! and an unvisited vertex is therefore also stored in the visited
//! vertex's row, where the sweep sees it, and `parent ∈ adj(v)` holds
//! exactly when `v ∈ adj(parent)`. Edges between two unvisited vertices
//! constrain nothing.
//!
//! The sweep only decides. When a row fails, the exact error comes from a
//! cold reporter that runs the check as two plain loops, a tree-edge loop
//! and then an edge sweep over every row. It reports the first violation
//! in that order, so the error for a given output does not depend on which
//! row the fast sweep tripped on. The reporter doubles as the test oracle
//! for the sweep.
//!
//! # Lanes
//!
//! [`validate_lanes`] decides several outputs of one graph in one pass
//! over the rows, up to eight at a time, the way a batch of traversals
//! shares its sweeps. A solo sweep costs per row rather than per edge, so
//! the row walk is paid once for the group instead of once per lane.
//!
//! A packing pass first builds one `u64` per vertex holding eight 7-bit
//! lane codes: `level + 1` for a visited vertex and 127 for an unreached
//! one. It folds each lane's parent/level agreement on the way. The row
//! pass then skips a row that no lane visited. In any other row each edge
//! costs one load of the neighbour's word and a carry-free byte test,
//! per lane, that the neighbour's code minus the row's level is 0, 1 or
//! 2. That is exactly the solo sweep's test, provided every level is at
//! most 124: a visited neighbour's code is then at most 125, and the code
//! 127 is at least 3 above any row level, so an unreached neighbour fails
//! as it should. Lanes that did not visit the row are masked out of the
//! result. After the row, the lanes' parents are looked up in it: all
//! eight in one branch-free scan of a short row, one binary search each in
//! a long one (rows are sorted). A lane that visited the row needs its
//! parent there with a code one below the row's; the parent's code comes
//! from the packed word, which the row scan has just loaded.
//!
//! The length and source checks run first, lane by lane. A lane with a
//! level above 124 cannot be packed, and the only packable lane of a group
//! gains nothing from packing; [`validate`] decides both alone. A lane the
//! pass rejects gets the reporter's error, so every lane's result is
//! exactly [`validate`]'s.

use crate::{BfsOutput, UNREACHED};
use xbfs_graph::{Csr, VertexId, NO_PARENT};

/// Why a BFS output failed validation.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum ValidationError {
    /// Map lengths do not match the graph's vertex count.
    WrongLength,
    /// The source's parent or level entry is wrong.
    BadSource,
    /// `v` has a parent but no level, or vice versa.
    VisitMismatch { v: VertexId },
    /// `parents[v]` is not a neighbor of `v`.
    PhantomTreeEdge { v: VertexId },
    /// `levels[v] != levels[parents[v]] + 1`.
    BadTreeLevel {
        /// The vertex whose tree edge spans the wrong number of levels.
        v: VertexId,
        /// `levels[v]` as claimed by the output.
        level: u32,
        /// `levels[parents[v]]` as claimed by the output
        /// ([`UNREACHED`] if the parent has no level).
        parent_level: u32,
    },
    /// A graph edge spans two levels differing by more than one.
    LevelSkip { u: VertexId, v: VertexId },
    /// A graph edge connects a visited and an unvisited vertex.
    Incomplete { u: VertexId, v: VertexId },
}

impl std::fmt::Display for ValidationError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ValidationError::WrongLength => write!(f, "map length mismatch"),
            ValidationError::BadSource => write!(f, "source entry malformed"),
            ValidationError::VisitMismatch { v } => {
                write!(f, "vertex {v}: parent/level visit disagreement")
            }
            ValidationError::PhantomTreeEdge { v } => {
                write!(f, "vertex {v}: parent is not a neighbor")
            }
            ValidationError::BadTreeLevel {
                v,
                level,
                parent_level,
            } => {
                write!(
                    f,
                    "vertex {v}: level {level} != parent level {parent_level} + 1"
                )
            }
            ValidationError::LevelSkip { u, v } => {
                write!(f, "edge ({u},{v}) spans more than one level")
            }
            ValidationError::Incomplete { u, v } => {
                write!(f, "edge ({u},{v}) connects visited and unvisited")
            }
        }
    }
}

impl std::error::Error for ValidationError {}

/// Validate `out` as a BFS of `csr` from `out.source`.
///
/// Relies on `csr` being symmetric, which both [`Csr`] constructors
/// guarantee: the single pass skips unvisited rows and looks each parent
/// up in its child's row (see the module docs). On failure the error is
/// the first violation of the tree-edge loop, then of the edge sweep, in
/// vertex order.
///
/// # Examples
/// ```
/// use xbfs_engine::{topdown, validate};
///
/// let g = xbfs_graph::gen::path(4);
/// let mut out = topdown::run(&g, 0).output;
/// assert!(validate(&g, &out).is_ok());
///
/// out.levels[3] = 9; // corrupt one level
/// assert!(validate(&g, &out).is_err());
/// ```
pub fn validate(csr: &Csr, out: &BfsOutput) -> Result<(), ValidationError> {
    entry_checks(csr, out)?;
    if visited_rows_sound(csr, out) {
        Ok(())
    } else {
        first_violation(csr, out)
    }
}

/// Validate several outputs of one graph: element `i` of the result is
/// exactly `validate(csr, outputs[i])`.
///
/// Up to eight lanes share one pass over the rows (see the module docs,
/// "Lanes"); a lane with a level above 124, or the only packable lane of
/// a group, is validated alone.
///
/// # Examples
/// ```
/// use xbfs_engine::{topdown, validate_lanes, ValidationError};
///
/// let g = xbfs_graph::gen::path(4);
/// let good = topdown::run(&g, 0).output;
/// let mut bad = topdown::run(&g, 3).output;
/// bad.levels[3] = 1; // the source must sit at level 0
/// assert_eq!(
///     validate_lanes(&g, &[&good, &bad]),
///     [Ok(()), Err(ValidationError::BadSource)]
/// );
/// ```
pub fn validate_lanes(csr: &Csr, outputs: &[&BfsOutput]) -> Vec<Result<(), ValidationError>> {
    let mut results = vec![Ok(()); outputs.len()];
    let mut packable = Vec::with_capacity(outputs.len());
    for (i, out) in outputs.iter().enumerate() {
        if packs(csr, out) {
            packable.push(i);
        } else {
            results[i] = validate(csr, out);
        }
    }
    let mut codes = Vec::new();
    for group in packable.chunks(LANES_PER_PASS) {
        if let [only] = group {
            results[*only] = validate(csr, outputs[*only]);
            continue;
        }
        let lanes: Vec<&BfsOutput> = group.iter().map(|&i| outputs[i]).collect();
        let rejected = packed_rows_sound(csr, &lanes, &mut codes);
        for (lane, &i) in group.iter().enumerate() {
            if rejected & (0x80 << (8 * lane)) != 0 {
                results[i] = first_violation(csr, outputs[i]);
            }
        }
    }
    results
}

/// Whether `out` may share a packed pass: it passes the entry checks and
/// holds no level above [`MAX_PACKED_LEVEL`].
fn packs(csr: &Csr, out: &BfsOutput) -> bool {
    entry_checks(csr, out).is_ok()
        && out
            .levels
            .iter()
            .all(|&l| l <= MAX_PACKED_LEVEL || l == UNREACHED)
}

/// The length and source checks every output passes before its rows.
fn entry_checks(csr: &Csr, out: &BfsOutput) -> Result<(), ValidationError> {
    let n = csr.num_vertices() as usize;
    if out.parents.len() != n || out.levels.len() != n {
        return Err(ValidationError::WrongLength);
    }
    let s = out.source as usize;
    if out.parents[s] != out.source || out.levels[s] != 0 {
        return Err(ValidationError::BadSource);
    }
    Ok(())
}

/// The single pass: `true` iff properties 2–5 hold. Assumes the lengths
/// were checked and `csr` is symmetric.
fn visited_rows_sound(csr: &Csr, out: &BfsOutput) -> bool {
    let offsets = csr.row_offsets();
    let columns = csr.column_indices();
    let levels = &out.levels[..];
    for (u, (&parent, &level)) in out.parents.iter().zip(levels).enumerate() {
        if (parent != NO_PARENT) != (level != UNREACHED) {
            return false;
        }
        if level == UNREACHED {
            continue;
        }
        let row = &columns[offsets[u] as usize..offsets[u + 1] as usize];
        let (near, parent_adjacent) = scan_row(levels, row, level, parent);
        // A parent found in the row is in range, and `near` already
        // requires it visited, so one level shallower is all that is left.
        let tree_edge = u == out.source as usize
            || (parent_adjacent && levels[parent as usize].wrapping_add(1) == level);
        if !(near && tree_edge) {
            return false;
        }
    }
    true
}

/// One visited row at `level`: whether every neighbour is visited and
/// within one level, and whether `parent` is among the neighbours.
#[inline]
fn scan_row(levels: &[u32], row: &[VertexId], level: u32, parent: VertexId) -> (bool, bool) {
    let wide_level = u64::from(level);
    let mut near = true;
    let mut parent_adjacent = false;
    for &v in row {
        // In u64 nothing wraps: `lv + 1 - level ∈ {0, 1, 2}` holds exactly
        // when `lv` is within one level. An unreached neighbour
        // (`UNREACHED` = `u32::MAX`) fails it as well, unless the row sits
        // at `u32::MAX - 1`.
        let lv = u64::from(levels[v as usize]);
        near &= (lv + 1).wrapping_sub(wide_level) <= 2;
        parent_adjacent |= v == parent;
    }
    if level == u32::MAX - 1 {
        // A valid tree needs a path of `u32::MAX` vertices to get here,
        // but a corrupt level map can claim it.
        near &= row.iter().all(|&v| levels[v as usize] != UNREACHED);
    }
    (near, parent_adjacent)
}

/// Lanes one packed word carries, one byte each.
const LANES_PER_PASS: usize = 8;

/// Deepest level a packed lane may hold; see the module docs, "Lanes".
const MAX_PACKED_LEVEL: u32 = 124;

/// The lane code of an unreached vertex.
const UNREACHED_CODE: u64 = 127;

/// `1` in every byte of a packed word.
const ONES: u64 = 0x0101_0101_0101_0101;

/// The high bit of every byte: one flag per lane.
const HIGH: u64 = ONES << 7;

/// [`UNREACHED_CODE`] in every byte: the word of a vertex no lane reached.
const ALL_UNREACHED: u64 = ONES * UNREACHED_CODE;

/// Rows up to this long are matched against every lane's parent in one
/// branch-free scan; longer rows are binary-searched lane by lane.
const SHORT_ROW: usize = 64;

/// The packed pass over up to eight lanes that each [`packs`]. Returns
/// the rejected lanes as the high bits of their bytes: lane `i` is
/// rejected iff [`visited_rows_sound`] fails for it. `codes` is scratch
/// space for the packed words.
fn packed_rows_sound(csr: &Csr, lanes: &[&BfsOutput], codes: &mut Vec<u64>) -> u64 {
    debug_assert!(lanes.len() <= LANES_PER_PASS);
    codes.clear();
    codes.resize(csr.num_vertices() as usize, ALL_UNREACHED);
    let mut rejected = 0;
    for (lane, out) in lanes.iter().enumerate() {
        let shift = 8 * lane;
        let mut mismatch = false;
        for ((word, &level), &parent) in codes.iter_mut().zip(&out.levels).zip(&out.parents) {
            let code = if level == UNREACHED {
                UNREACHED_CODE
            } else {
                u64::from(level) + 1
            };
            *word ^= (code ^ UNREACHED_CODE) << shift;
            mismatch |= (parent != NO_PARENT) != (level != UNREACHED);
        }
        rejected |= u64::from(mismatch) << (shift + 7);
    }

    let offsets = csr.row_offsets();
    let columns = csr.column_indices();
    for (u, &word) in codes.iter().enumerate() {
        // A visited lane's byte is nonzero here, and adding 127 sets its
        // high bit without a carry out of the byte.
        let visited = ((word ^ ALL_UNREACHED) + ONES * 0x7F) & HIGH;
        if visited == 0 {
            continue;
        }
        let row = &columns[offsets[u] as usize..offsets[u + 1] as usize];

        // A neighbour's code `a` is within one level of the row's code `c`
        // iff `s = a + 126 - c` lies in 125..=127: the high bit of `s`
        // clear and that of `s + 3` set. Unvisited lanes add 0 instead.
        // No byte sum reaches 256, so no lane carries into the next.
        let keep = (visited >> 7) * 0xFF;
        let offset = (ONES * 126 - (word & keep)) & keep;
        let mut above = 0;
        let mut reached = HIGH;
        for &v in row {
            let code = codes[v as usize];
            above |= code + offset;
            reached &= code + offset + ONES * 3;
        }
        rejected |= (above | !reached) & visited;

        let mut parents = [NO_PARENT; LANES_PER_PASS];
        let mut tree_edges = 0;
        for (lane, out) in lanes.iter().enumerate() {
            parents[lane] = out.parents[u];
            tree_edges |= u64::from(u == out.source as usize) << (8 * lane + 7);
        }
        let found = parents_in_row(row, &parents, lanes.len());
        for (lane, (&parent, found)) in parents.iter().zip(found).enumerate() {
            // The parent must be in the row, one level shallower. A parent
            // out of range is in no row, and `get` keeps it from indexing.
            let shift = 8 * lane;
            let code = (word >> shift) & 0x7F;
            let parent_code = codes
                .get(parent as usize)
                .map_or(0, |w| (w >> shift) & 0x7F);
            let tree_edge = found & (parent_code + 1 == code);
            tree_edges |= u64::from(tree_edge) << (shift + 7);
        }
        rejected |= visited & !tree_edges;
    }
    rejected
}

/// Which of the first `lanes` entries of `parents` the sorted `row` holds.
/// The other entries are [`NO_PARENT`], which no row holds.
#[inline]
fn parents_in_row(
    row: &[VertexId],
    parents: &[VertexId; LANES_PER_PASS],
    lanes: usize,
) -> [bool; LANES_PER_PASS] {
    let mut found = [false; LANES_PER_PASS];
    if row.len() <= SHORT_ROW {
        for &v in row {
            for (found, &parent) in found.iter_mut().zip(parents) {
                *found |= v == parent;
            }
        }
    } else {
        for (found, parent) in found.iter_mut().zip(&parents[..lanes]) {
            *found = row.binary_search(parent).is_ok();
        }
    }
    found
}

/// The exact reporter: the first violation, found by a tree-edge loop and
/// then an edge sweep over every row. Cold; runs only on rejected outputs.
#[cold]
fn first_violation(csr: &Csr, out: &BfsOutput) -> Result<(), ValidationError> {
    entry_checks(csr, out)?;
    let n = csr.num_vertices() as usize;

    for v in csr.vertices() {
        let vi = v as usize;
        let has_parent = out.parents[vi] != NO_PARENT;
        let has_level = out.levels[vi] != UNREACHED;
        if has_parent != has_level {
            return Err(ValidationError::VisitMismatch { v });
        }
        if v == out.source || !has_parent {
            continue;
        }
        let p = out.parents[vi];
        // A corrupted parent word can point outside the graph entirely;
        // report it as a phantom edge instead of indexing out of bounds.
        if p as usize >= n {
            return Err(ValidationError::PhantomTreeEdge { v });
        }
        if !csr.has_edge(p, v) {
            return Err(ValidationError::PhantomTreeEdge { v });
        }
        if out.levels[p as usize] == UNREACHED || out.levels[vi] != out.levels[p as usize] + 1 {
            return Err(ValidationError::BadTreeLevel {
                v,
                level: out.levels[vi],
                parent_level: out.levels[p as usize],
            });
        }
    }

    // Edge sweep: completeness and the one-level property.
    for u in csr.vertices() {
        let lu = out.levels[u as usize];
        for &v in csr.neighbors(u) {
            let lv = out.levels[v as usize];
            match (lu == UNREACHED, lv == UNREACHED) {
                (false, false) => {
                    if lu.abs_diff(lv) > 1 {
                        return Err(ValidationError::LevelSkip { u, v });
                    }
                }
                (false, true) => return Err(ValidationError::Incomplete { u, v }),
                (true, false) => return Err(ValidationError::Incomplete { u: v, v: u }),
                (true, true) => {}
            }
        }
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::topdown;
    use proptest::prelude::*;
    use proptest::test_runner::TestRng;
    use std::sync::OnceLock;
    use xbfs_graph::gen;

    fn valid_run() -> (Csr, BfsOutput) {
        let g = xbfs_graph::rmat::rmat_csr(8, 8);
        let out = topdown::run(&g, 0).output;
        (g, out)
    }

    #[test]
    fn accepts_correct_output() {
        let (g, out) = valid_run();
        assert_eq!(validate(&g, &out), Ok(()));
    }

    #[test]
    fn accepts_disconnected_graph() {
        let g = gen::two_cliques(4);
        let out = topdown::run(&g, 0).output;
        assert_eq!(validate(&g, &out), Ok(()));
    }

    #[test]
    fn rejects_wrong_length() {
        let (g, mut out) = valid_run();
        out.parents.pop();
        assert_eq!(validate(&g, &out), Err(ValidationError::WrongLength));
    }

    #[test]
    fn rejects_bad_source() {
        let (g, mut out) = valid_run();
        out.levels[out.source as usize] = 3;
        assert_eq!(validate(&g, &out), Err(ValidationError::BadSource));
    }

    #[test]
    fn rejects_visit_mismatch() {
        let (g, mut out) = valid_run();
        // Find a visited non-source vertex and erase only its level.
        let v = (0..g.num_vertices())
            .find(|&v| v != out.source && out.visited(v))
            .unwrap();
        out.levels[v as usize] = UNREACHED;
        assert_eq!(
            validate(&g, &out),
            Err(ValidationError::VisitMismatch { v })
        );
    }

    #[test]
    fn rejects_phantom_tree_edge() {
        let g = gen::path(5);
        let mut out = topdown::run(&g, 0).output;
        out.parents[4] = 0; // 0 is not adjacent to 4 on a path
        assert_eq!(
            validate(&g, &out),
            Err(ValidationError::PhantomTreeEdge { v: 4 })
        );
    }

    #[test]
    fn rejects_out_of_range_parent_without_panicking() {
        // A bit flip in the high bits of a parent word produces a vertex id
        // far outside the graph; validation must reject it, not index OOB.
        let g = gen::path(5);
        let mut out = topdown::run(&g, 0).output;
        out.parents[4] ^= 1 << 31;
        assert_eq!(
            validate(&g, &out),
            Err(ValidationError::PhantomTreeEdge { v: 4 })
        );
    }

    #[test]
    fn rejects_bad_tree_level() {
        let g = gen::path(5);
        let mut out = topdown::run(&g, 0).output;
        out.levels[4] = 2; // parent is 3 at level 3
                           // VisitMismatch won't fire (still visited); tree level check does,
                           // unless the edge sweep sees the level skip first — both are
                           // acceptable detections of the same corruption.
        let err = validate(&g, &out).unwrap_err();
        assert!(
            matches!(
                err,
                ValidationError::BadTreeLevel { v: 4, .. } | ValidationError::LevelSkip { .. }
            ),
            "unexpected error {err:?}"
        );
    }

    #[test]
    fn rejects_incomplete_traversal() {
        let g = gen::path(4);
        let mut out = topdown::run(&g, 0).output;
        // Pretend vertex 3 was never reached.
        out.parents[3] = xbfs_graph::NO_PARENT;
        out.levels[3] = UNREACHED;
        assert_eq!(
            validate(&g, &out),
            Err(ValidationError::Incomplete { u: 2, v: 3 })
        );
    }

    #[test]
    fn rejects_level_skip_via_fake_deep_tree() {
        let g = gen::complete(4);
        let mut out = topdown::run(&g, 0).output;
        // Claim 3 hangs off 2 at level 2 in a K4 (all true distances are 1).
        out.parents[3] = 2;
        out.levels[3] = 2;
        let err = validate(&g, &out).unwrap_err();
        assert!(
            matches!(
                err,
                ValidationError::BadTreeLevel { .. } | ValidationError::LevelSkip { .. }
            ),
            "unexpected error {err:?}"
        );
    }

    #[test]
    fn error_display_is_informative() {
        let e = ValidationError::Incomplete { u: 1, v: 2 };
        assert!(e.to_string().contains("(1,2)"));
        // A corrupt tree edge names the vertex AND both claimed levels, so
        // a corruption report pinpoints the flipped word without a rerun.
        let e = ValidationError::BadTreeLevel {
            v: 4,
            level: 2,
            parent_level: 3,
        };
        let msg = e.to_string();
        assert!(msg.contains("vertex 4"), "{msg}");
        assert!(msg.contains("level 2"), "{msg}");
        assert!(msg.contains("parent level 3"), "{msg}");
    }

    /// Graphs for the differential tests: R-MAT (hubs and isolated
    /// vertices), a road-like lattice, two components and the closed-form
    /// shapes.
    fn corpus() -> &'static [Csr] {
        static CORPUS: OnceLock<Vec<Csr>> = OnceLock::new();
        CORPUS.get_or_init(|| {
            vec![
                xbfs_graph::rmat::rmat_csr(8, 8),
                gen::road_like(12, 12, 8, 3),
                gen::two_cliques(5),
                gen::star(9),
                gen::path(10),
                gen::complete(6),
            ]
        })
    }

    /// `(kind, vertex seed, argument)`: parent-bit flip, level-bit flip,
    /// erase, re-parent to a random vertex, level ±1, copy another
    /// vertex's entry.
    type Corruption = (u8, u32, u32);

    fn corrupt(out: &mut BfsOutput, (kind, a, b): Corruption) {
        let n = out.parents.len() as u32;
        let v = (a % n) as usize;
        match kind {
            0 => out.parents[v] ^= 1 << (b % 32),
            1 => out.levels[v] ^= 1 << (b % 32),
            2 => {
                out.parents[v] = NO_PARENT;
                out.levels[v] = UNREACHED;
            }
            3 => out.parents[v] = b % n,
            4 if b % 2 == 0 => out.levels[v] = out.levels[v].wrapping_add(1),
            4 => out.levels[v] = out.levels[v].wrapping_sub(1),
            _ => {
                let w = (b % n) as usize;
                out.parents[v] = out.parents[w];
                out.levels[v] = out.levels[w];
            }
        }
    }

    /// A corpus graph, a source seed and 1–3 corruptions.
    fn arb_case() -> impl Strategy<Value = (usize, u32, Vec<Corruption>)> {
        (
            0..corpus().len(),
            any::<u32>(),
            prop::collection::vec((0u8..6, any::<u32>(), any::<u32>()), 1..4),
        )
    }

    /// The corrupted output of one generated case on its graph.
    fn corrupted(
        (graph, source, corruptions): (usize, u32, Vec<Corruption>),
    ) -> (&'static Csr, BfsOutput) {
        let g = &corpus()[graph];
        let mut out = topdown::run(g, source % g.num_vertices()).output;
        for c in corruptions {
            corrupt(&mut out, c);
        }
        (g, out)
    }

    /// A corpus graph and 1–12 lanes on it, so a batch can span two
    /// groups: each lane a source seed and 0–3 corruptions.
    fn arb_lanes() -> impl Strategy<Value = (usize, Vec<(u32, Vec<Corruption>)>)> {
        let lane = (
            any::<u32>(),
            prop::collection::vec((0u8..6, any::<u32>(), any::<u32>()), 0..4),
        );
        (0..corpus().len(), prop::collection::vec(lane, 1..13))
    }

    /// Each lane's result of [`validate_lanes`] must be [`validate`]'s.
    fn assert_lanes_match_validate(g: &Csr, outputs: &[BfsOutput]) {
        let lanes: Vec<&BfsOutput> = outputs.iter().collect();
        let solo: Vec<_> = outputs.iter().map(|out| validate(g, out)).collect();
        assert_eq!(validate_lanes(g, &lanes), solo);
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(1024))]

        #[test]
        fn lanes_match_solo_validation((graph, lanes) in arb_lanes()) {
            let g = &corpus()[graph];
            let outputs: Vec<BfsOutput> = lanes
                .into_iter()
                .map(|(source, corruptions)| corrupted((graph, source, corruptions)).1)
                .collect();
            let refs: Vec<&BfsOutput> = outputs.iter().collect();
            let solo: Vec<_> = refs.iter().map(|out| validate(g, out)).collect();
            prop_assert_eq!(validate_lanes(g, &refs), solo);
            // The pass itself must be exact too: a lane it rejects by
            // mistake would still get the reporter's `Ok`, only slower.
            let packable: Vec<&BfsOutput> = refs.into_iter().filter(|out| packs(g, out)).collect();
            for group in packable.chunks(LANES_PER_PASS) {
                let expected: Vec<bool> = group.iter().map(|out| !visited_rows_sound(g, out)).collect();
                prop_assert_eq!(packed_rejections(g, group), expected);
            }
        }
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(2048))]

        #[test]
        fn single_pass_matches_the_reporter(case in arb_case()) {
            let (g, out) = corrupted(case);
            let exact = first_violation(g, &out);
            prop_assert_eq!(validate(g, &out), exact);
            if exact != Err(ValidationError::BadSource) {
                prop_assert_eq!(visited_rows_sound(g, &out), exact.is_ok());
            }
        }
    }

    #[test]
    fn corruption_cases_reach_every_outcome() {
        // The differential property is only as strong as the outputs it
        // sees: its generator must reach acceptance and every error.
        let mut rng = TestRng::from_name("corruption_cases_reach_every_outcome");
        let mut seen = std::collections::BTreeSet::new();
        for _ in 0..2048 {
            let (g, out) = corrupted(arb_case().generate(&mut rng));
            seen.insert(match first_violation(g, &out) {
                Ok(()) => "ok",
                Err(ValidationError::WrongLength) => "length",
                Err(ValidationError::BadSource) => "source",
                Err(ValidationError::VisitMismatch { .. }) => "mismatch",
                Err(ValidationError::PhantomTreeEdge { .. }) => "phantom",
                Err(ValidationError::BadTreeLevel { .. }) => "tree level",
                Err(ValidationError::LevelSkip { .. }) => "skip",
                Err(ValidationError::Incomplete { .. }) => "incomplete",
            });
        }
        let expected = [
            "incomplete",
            "mismatch",
            "ok",
            "phantom",
            "skip",
            "source",
            "tree level",
        ];
        assert_eq!(seen.into_iter().collect::<Vec<_>>(), expected);
    }

    /// A pinned corner of the single pass: the reporter, `validate` and the
    /// pass's decision must all agree with the expected result.
    fn assert_pinned(g: &Csr, out: &BfsOutput, expected: Result<(), ValidationError>) {
        assert_eq!(first_violation(g, out), expected);
        assert_eq!(validate(g, out), expected);
        assert_eq!(visited_rows_sound(g, out), expected.is_ok());
    }

    #[test]
    fn source_with_an_unreached_neighbour_is_incomplete() {
        // At level 0 a u32 `level - 1` would wrap to `UNREACHED`; the
        // source row must still reject its unreached leaf.
        let g = gen::star(4);
        let mut out = topdown::run(&g, 0).output;
        out.parents[2] = NO_PARENT;
        out.levels[2] = UNREACHED;
        assert_pinned(&g, &out, Err(ValidationError::Incomplete { u: 0, v: 2 }));
    }

    #[test]
    fn level_just_below_the_sentinel_is_rejected() {
        // `u32::MAX - 1` + 1 is `UNREACHED`, so the widened compare alone
        // would accept an unreached neighbour of a row at that level.
        let levels = [u32::MAX - 2, u32::MAX - 1, UNREACHED];
        assert_eq!(scan_row(&levels, &[0], u32::MAX - 1, 0), (true, true));
        assert_eq!(scan_row(&levels, &[0, 2], u32::MAX - 1, 0), (false, true));
        assert_eq!(scan_row(&levels, &[1, 2], u32::MAX - 2, 1), (false, true));

        // Whole outputs: row 0 sits at that level, one level below its
        // parent, beside an unreached vertex. The error is the reporter's
        // first violation, at vertex 1.
        let el = xbfs_graph::EdgeList::from_edges(4, vec![(0, 1), (0, 3), (1, 2)]).unwrap();
        let g = Csr::from_edge_list(&el);
        let mut out = topdown::run(&g, 2).output;
        out.levels[0] = u32::MAX - 1;
        out.levels[1] = u32::MAX - 2;
        out.parents[3] = NO_PARENT;
        out.levels[3] = UNREACHED;
        assert_pinned(
            &g,
            &out,
            Err(ValidationError::BadTreeLevel {
                v: 1,
                level: u32::MAX - 2,
                parent_level: 0,
            }),
        );
    }

    #[test]
    fn parent_with_bit_31_flipped_is_a_phantom_edge() {
        // Out of range: never found in the row, never used as an index.
        let g = gen::path(5);
        let mut out = topdown::run(&g, 0).output;
        out.parents[2] ^= 1 << 31;
        assert_pinned(&g, &out, Err(ValidationError::PhantomTreeEdge { v: 2 }));
    }

    #[test]
    fn unreached_vertex_beside_reached_ones_names_the_reached_end_first() {
        // Vertex 0 is unreached and its only neighbour is reached. The pass
        // skips row 0 and trips on row 1; the error still names the edge
        // as the row-0 sweep met it, reached end first.
        let g = gen::path(4);
        let mut out = topdown::run(&g, 3).output;
        out.parents[0] = NO_PARENT;
        out.levels[0] = UNREACHED;
        assert_pinned(&g, &out, Err(ValidationError::Incomplete { u: 1, v: 0 }));
    }

    /// The lanes' packed pass alone: which of `outputs` it rejects, in
    /// lane order.
    fn packed_rejections(g: &Csr, outputs: &[&BfsOutput]) -> Vec<bool> {
        let rejected = packed_rows_sound(g, outputs, &mut Vec::new());
        (0..outputs.len())
            .map(|lane| rejected & (0x80 << (8 * lane)) != 0)
            .collect()
    }

    /// `out` with its vertex `v` erased from the tree.
    fn erased(mut out: BfsOutput, v: usize) -> BfsOutput {
        out.parents[v] = NO_PARENT;
        out.levels[v] = UNREACHED;
        out
    }

    #[test]
    fn level_124_packs_and_level_125_is_validated_alone() {
        // On a 125-vertex path from one end the deepest level is 124, the
        // deepest a lane may pack. The erased lane's level-123 row meets
        // an unreached neighbour.
        let g = gen::path(125);
        let clean = topdown::run(&g, 0).output;
        let cut = erased(clean.clone(), 124);
        assert_eq!(packed_rejections(&g, &[&clean, &cut]), [false, true]);
        assert_eq!(
            validate_lanes(&g, &[&clean, &cut]),
            [Ok(()), Err(ValidationError::Incomplete { u: 123, v: 124 })]
        );

        // One vertex longer, the clean lane reaches level 125 and is
        // validated alone. Its erased copy is 124 deep and packs beside a
        // lane from vertex 1; its level-124 row meets code 127, exactly 3
        // above the row's level.
        let g = gen::path(126);
        let deep = topdown::run(&g, 0).output;
        let cut = erased(deep.clone(), 125);
        let shifted = topdown::run(&g, 1).output;
        assert_eq!(deep.max_level(), 125);
        assert_eq!(packed_rejections(&g, &[&cut, &shifted]), [true, false]);
        // A corrupt lane that is still 125 deep gets `validate`'s error.
        let deep_cut = erased(deep.clone(), 124);
        assert_eq!(
            validate_lanes(&g, &[&deep, &cut, &shifted, &deep_cut]),
            [
                Ok(()),
                Err(ValidationError::Incomplete { u: 124, v: 125 }),
                Ok(()),
                Err(ValidationError::BadTreeLevel {
                    v: 125,
                    level: 125,
                    parent_level: UNREACHED,
                }),
            ]
        );
        assert_lanes_match_validate(&g, &[deep, cut, shifted, deep_cut]);
    }

    #[test]
    fn the_ninth_lane_alone_is_corrupt() {
        // Eight clean lanes fill the first group; the ninth is the only
        // lane of the second, so it is validated alone.
        let g = xbfs_graph::rmat::rmat_csr(8, 8);
        let mut outputs: Vec<BfsOutput> = (0..9)
            .map(|i| topdown::run(&g, i * 29 % g.num_vertices()).output)
            .collect();
        let v = (0..g.num_vertices())
            .find(|&v| outputs[8].levels[v as usize] == 2)
            .unwrap();
        outputs[8].parents[v as usize] = outputs[8].source;
        let lanes: Vec<&BfsOutput> = outputs.iter().collect();
        let results = validate_lanes(&g, &lanes);
        assert!(results[..8].iter().all(Result::is_ok), "{results:?}");
        assert!(results[8].is_err());
        assert_lanes_match_validate(&g, &outputs);
    }

    #[test]
    fn entry_errors_sit_beside_valid_lanes() {
        let g = gen::path(6);
        let valid = topdown::run(&g, 0).output;
        let mut short = topdown::run(&g, 2).output;
        short.levels.pop();
        let mut bad_source = topdown::run(&g, 5).output;
        bad_source.parents[5] = 4;
        let other = topdown::run(&g, 3).output;
        assert_eq!(
            validate_lanes(&g, &[&valid, &short, &bad_source, &other]),
            [
                Ok(()),
                Err(ValidationError::WrongLength),
                Err(ValidationError::BadSource),
                Ok(()),
            ]
        );
        assert!(validate_lanes(&g, &[]).is_empty());
    }

    #[test]
    fn packed_parent_with_bit_31_flipped_is_a_phantom_edge() {
        // The flipped parent is in no row, and its packed word is never read.
        let g = gen::path(5);
        let valid = topdown::run(&g, 4).output;
        let mut flipped = topdown::run(&g, 0).output;
        flipped.parents[2] ^= 1 << 31;
        assert_eq!(packed_rejections(&g, &[&valid, &flipped]), [false, true]);
        assert_eq!(
            validate_lanes(&g, &[&valid, &flipped]),
            [Ok(()), Err(ValidationError::PhantomTreeEdge { v: 2 })]
        );
    }

    #[test]
    fn a_non_source_vertex_claiming_level_0_is_rejected() {
        // On a star every leaf is one level below the source, so a leaf
        // claiming level 0 passes the near test and only its tree edge
        // fails: as its own parent it is no neighbour of itself, and under
        // the source it is not one level deeper.
        let g = gen::star(9);
        let valid = topdown::run(&g, 0).output;
        let mut own_parent = valid.clone();
        own_parent.parents[2] = 2;
        own_parent.levels[2] = 0;
        let mut flat = valid.clone();
        flat.levels[3] = 0;
        let lanes = [&valid, &own_parent, &flat];
        assert_eq!(packed_rejections(&g, &lanes), [false, true, true]);
        assert_eq!(
            validate_lanes(&g, &lanes),
            [
                Ok(()),
                Err(ValidationError::PhantomTreeEdge { v: 2 }),
                Err(ValidationError::BadTreeLevel {
                    v: 3,
                    level: 0,
                    parent_level: 0,
                }),
            ]
        );
    }
}
