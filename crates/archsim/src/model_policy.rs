//! A cost-model-driven switching policy — an extension beyond the paper.
//!
//! The paper predicts one `(M, N)` pair per traversal offline. But once a
//! calibrated cost model exists, the switch can be decided *per level, at
//! runtime, with no training at all*: estimate both directions' times from
//! observable frontier statistics and pick the cheaper one. This is the
//! spirit of Li & Becchi's adaptive GPU runtime (cited in §VI) applied to
//! the direction switch.
//!
//! Top-down cost is known exactly before the level runs (`|E|cq` and the
//! max frontier degree are observable). Bottom-up cost needs the probe
//! count, which is only known afterwards — the policy estimates it from
//! the running unvisited-edge count and the frontier density: with density
//! `p`, a still-unvisited vertex either stops at its first frontier
//! neighbor (geometric, ≈ `1/p` probes) or scans its whole adjacency.
//!
//! The estimator tracks visited totals across calls, so one instance must
//! not be reused across traversals: make a fresh instance per run.

use crate::ArchSpec;
use xbfs_engine::{Direction, SwitchContext, SwitchPolicy};

/// Chooses the direction the device's cost model predicts to be faster.
///
/// # Examples
/// ```
/// use xbfs_archsim::{ArchSpec, CostModelPolicy};
/// use xbfs_engine::{hybrid, validate, Direction};
///
/// let g = xbfs_graph::rmat::rmat_csr(12, 16);
/// let mut policy = CostModelPolicy::new(ArchSpec::gpu_k20x());
/// let t = hybrid::run(&g, 0, &mut policy);
/// assert!(validate(&g, &t.output).is_ok());
/// // On a scale-free graph the model switches directions mid-traversal.
/// let dirs = t.direction_script();
/// assert!(dirs.contains(&Direction::BottomUp));
/// ```
#[derive(Clone, Debug)]
pub struct CostModelPolicy {
    arch: ArchSpec,
    /// Σ `|E|cq` over levels already expanded ≈ directed edges incident to
    /// visited vertices.
    visited_edges: u64,
    /// Σ `|V|cq` over levels already expanded = visited vertices.
    visited_vertices: u64,
}

impl CostModelPolicy {
    /// Policy for one traversal on `arch`.
    pub fn new(arch: ArchSpec) -> Self {
        Self {
            arch,
            visited_edges: 0,
            visited_vertices: 0,
        }
    }

    /// Estimated bottom-up probes for the level described by `ctx`, given
    /// the running visited totals.
    fn estimate_bu_probes(&self, ctx: &SwitchContext) -> u64 {
        let unvisited_edges = ctx
            .total_edges
            .saturating_sub(self.visited_edges + ctx.frontier_edges);
        let unvisited_vertices = ctx
            .total_vertices
            .saturating_sub(self.visited_vertices + ctx.frontier_vertices)
            .max(1);
        let avg_unvisited_degree = unvisited_edges as f64 / unvisited_vertices as f64;
        let density = ctx.frontier_vertices as f64 / ctx.total_vertices as f64;
        if density <= 0.0 {
            return unvisited_edges;
        }
        // Expected probes per unvisited vertex: min(its degree, 1/density).
        let expected = avg_unvisited_degree.min(1.0 / density);
        (expected * unvisited_vertices as f64) as u64
    }
}

impl SwitchPolicy for CostModelPolicy {
    fn direction(&mut self, ctx: &SwitchContext) -> Direction {
        let td = self.arch.td_level_time(
            ctx.frontier_vertices,
            ctx.frontier_edges,
            ctx.max_frontier_degree,
        );
        let bu = self.arch.bu_level_time(
            ctx.total_vertices,
            self.estimate_bu_probes(ctx),
            ctx.frontier_vertices,
        );
        self.visited_edges += ctx.frontier_edges;
        self.visited_vertices += ctx.frontier_vertices;
        if bu < td {
            Direction::BottomUp
        } else {
            Direction::TopDown
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{cost, profile, ArchSpec};
    use xbfs_engine::{hybrid, validate, FixedMN};

    fn rmat() -> xbfs_graph::Csr {
        xbfs_graph::rmat::rmat_csr(14, 16)
    }

    fn non_isolated_source(g: &xbfs_graph::Csr) -> u32 {
        g.vertices().find(|&v| g.degree(v) > 0).expect("non-empty")
    }

    #[test]
    fn produces_valid_bfs() {
        let g = rmat();
        let src = non_isolated_source(&g);
        for arch in [
            ArchSpec::cpu_sandy_bridge(),
            ArchSpec::gpu_k20x(),
            ArchSpec::mic_knights_corner(),
        ] {
            let mut policy = CostModelPolicy::new(arch);
            let t = hybrid::run(&g, src, &mut policy);
            assert_eq!(validate(&g, &t.output), Ok(()));
        }
    }

    #[test]
    fn follows_the_canonical_td_bu_td_shape_on_gpu() {
        let g = rmat();
        let src = non_isolated_source(&g);
        let mut policy = CostModelPolicy::new(ArchSpec::gpu_k20x());
        let t = hybrid::run(&g, src, &mut policy);
        let dirs = t.direction_script();
        assert_eq!(dirs[0], Direction::TopDown, "{dirs:?}");
        assert!(dirs.contains(&Direction::BottomUp), "{dirs:?}");
    }

    #[test]
    fn competitive_with_the_oracle_without_training() {
        // The headline property: within 2× of the per-level oracle on every
        // device, with zero offline work (compare: the paper's regression
        // needs 140 exhaustive searches).
        let g = rmat();
        let src = non_isolated_source(&g);
        let p = profile(&g, src);
        for arch in [
            ArchSpec::cpu_sandy_bridge(),
            ArchSpec::gpu_k20x(),
            ArchSpec::mic_knights_corner(),
        ] {
            let mut policy = CostModelPolicy::new(arch.clone());
            let t = hybrid::run(&g, src, &mut policy);
            let model_time: f64 = t
                .levels
                .iter()
                .map(|r| cost::level_time_for_record(&arch, r))
                .sum();
            let oracle = cost::total_seconds(&cost::cost_script(
                &p,
                &arch,
                &cost::oracle_script(&p, &arch),
            ));
            assert!(
                model_time < 2.0 * oracle,
                "{}: model {model_time} vs oracle {oracle}",
                arch.name
            );
        }
    }

    #[test]
    fn beats_a_badly_mistuned_fixed_policy() {
        let g = rmat();
        let src = non_isolated_source(&g);
        let arch = ArchSpec::gpu_k20x();
        let mut model = CostModelPolicy::new(arch.clone());
        let t_model: f64 = hybrid::run(&g, src, &mut model)
            .levels
            .iter()
            .map(|r| cost::level_time_for_record(&arch, r))
            .sum();
        // Always-bottom-up-from-level-1: the catastrophic corner.
        let t_bad: f64 = hybrid::run(&g, src, &mut FixedMN::new(1e9, 1e9))
            .levels
            .iter()
            .map(|r| cost::level_time_for_record(&arch, r))
            .sum();
        assert!(t_model < t_bad, "model {t_model} vs mistuned {t_bad}");
    }
}
