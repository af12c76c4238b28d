//! Costing direction scripts and `(M, N)` policies against a profile.

use crate::{ArchSpec, LevelProfile, TraversalProfile};
use serde::{Deserialize, Serialize};
use xbfs_engine::{Direction, FixedMN, SwitchContext};

/// The simulated cost of one level.
#[derive(Clone, Copy, Debug, PartialEq, Serialize, Deserialize)]
pub struct LevelCost {
    /// Level index.
    pub level: u32,
    /// Direction charged.
    pub direction: Direction,
    /// Simulated seconds.
    pub seconds: f64,
}

/// Time for one level of `profile` in `direction` on `arch`.
pub fn level_time(arch: &ArchSpec, lp: &LevelProfile, direction: Direction) -> f64 {
    match direction {
        Direction::TopDown => arch.td_level_time(
            lp.frontier_vertices,
            lp.frontier_edges,
            lp.max_frontier_degree,
        ),
        Direction::BottomUp => {
            arch.bu_level_time(lp.bu_vertex_scans, lp.bu_probes, lp.frontier_vertices)
        }
    }
}

/// Time for one *executed* level record in the direction it actually ran —
/// the pricing used when replaying a real engine trace onto a device.
pub fn level_time_for_record(arch: &ArchSpec, rec: &xbfs_engine::LevelRecord) -> f64 {
    match rec.direction {
        Direction::TopDown => arch.td_level_time(
            rec.frontier_vertices,
            rec.edges_examined,
            rec.max_frontier_degree,
        ),
        Direction::BottomUp => arch.bu_level_time(
            rec.vertices_scanned,
            rec.edges_examined,
            rec.frontier_vertices,
        ),
    }
}

/// The decomposed charge for one executed level — telemetry companion to
/// [`level_time_for_record`]. `total_s` is bit-identical to the
/// undecomposed model (the clock must always be charged `total_s`, never a
/// re-summed `overhead_s + work_s`, which may differ in the last ulp).
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct LevelCostParts {
    /// Exact charged time, identical to [`level_time_for_record`].
    pub total_s: f64,
    /// The device's fixed per-level overhead.
    pub overhead_s: f64,
    /// Everything above the overhead (throughput/serial term for TD,
    /// scan + probe terms for BU).
    pub work_s: f64,
    /// Which model term bound the level: `"td-throughput"`, `"td-serial"`,
    /// or `"bu"`.
    pub bound: &'static str,
}

/// Decompose the charge for one executed level record.
pub fn level_cost_parts_for_record(
    arch: &ArchSpec,
    rec: &xbfs_engine::LevelRecord,
) -> LevelCostParts {
    let total_s = level_time_for_record(arch, rec);
    let overhead_s = arch.cost.level_overhead_s;
    let bound = match rec.direction {
        Direction::TopDown => {
            let (throughput, serial) = arch.td_level_terms(
                rec.frontier_vertices,
                rec.edges_examined,
                rec.max_frontier_degree,
            );
            if serial > throughput {
                "td-serial"
            } else {
                "td-throughput"
            }
        }
        Direction::BottomUp => "bu",
    };
    LevelCostParts {
        total_s,
        overhead_s,
        work_s: total_s - overhead_s,
        bound,
    }
}

/// Cost an explicit per-level direction script on a single device.
///
/// # Panics
/// Panics if the script is shorter than the profile.
pub fn cost_script(
    profile: &TraversalProfile,
    arch: &ArchSpec,
    script: &[Direction],
) -> Vec<LevelCost> {
    assert!(
        script.len() >= profile.levels.len(),
        "script covers {} of {} levels",
        script.len(),
        profile.levels.len()
    );
    profile
        .levels
        .iter()
        .zip(script)
        .map(|(lp, &direction)| LevelCost {
            level: lp.level,
            direction,
            seconds: level_time(arch, lp, direction),
        })
        .collect()
}

/// The per-level [`SwitchContext`] a policy sees at level `lp`.
pub fn switch_context(profile: &TraversalProfile, lp: &LevelProfile) -> SwitchContext {
    SwitchContext {
        level: lp.level,
        frontier_vertices: lp.frontier_vertices,
        frontier_edges: lp.frontier_edges,
        max_frontier_degree: lp.max_frontier_degree,
        unvisited_edges: lp.unvisited_edges,
        total_vertices: profile.total_vertices,
        total_edges: profile.total_edges,
    }
}

/// The direction script an `(M, N)` policy produces on this traversal
/// (Fig. 4 evaluated per level).
pub fn script_for_fixed_mn(profile: &TraversalProfile, mn: FixedMN) -> Vec<Direction> {
    profile
        .levels
        .iter()
        .map(|lp| {
            if mn.wants_bottom_up(&switch_context(profile, lp)) {
                Direction::BottomUp
            } else {
                Direction::TopDown
            }
        })
        .collect()
}

/// Total simulated seconds of running the combination with parameters
/// `(M, N)` on a single device.
pub fn cost_fixed_mn(profile: &TraversalProfile, arch: &ArchSpec, mn: FixedMN) -> f64 {
    let script = script_for_fixed_mn(profile, mn);
    cost_script(profile, arch, &script)
        .iter()
        .map(|c| c.seconds)
        .sum()
}

/// Total seconds of a cost vector.
pub fn total_seconds(costs: &[LevelCost]) -> f64 {
    costs.iter().map(|c| c.seconds).sum()
}

/// The per-device optimal direction script: pick the cheaper direction at
/// every level independently (valid because level sets are
/// direction-independent). This is the single-architecture oracle the
/// paper's `hybrid-oracle` baseline approximates by exhaustive `(M, N)`
/// search.
pub fn oracle_script(profile: &TraversalProfile, arch: &ArchSpec) -> Vec<Direction> {
    profile
        .levels
        .iter()
        .map(|lp| {
            let td = level_time(arch, lp, Direction::TopDown);
            let bu = level_time(arch, lp, Direction::BottomUp);
            if bu < td {
                Direction::BottomUp
            } else {
                Direction::TopDown
            }
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::profile;

    fn rmat_profile() -> TraversalProfile {
        let g = xbfs_graph::rmat::rmat_csr(12, 16);
        profile(&g, 0)
    }

    #[test]
    fn pure_td_script_costs_match_levels() {
        let p = rmat_profile();
        let cpu = ArchSpec::cpu_sandy_bridge();
        let script = vec![Direction::TopDown; p.depth()];
        let costs = cost_script(&p, &cpu, &script);
        assert_eq!(costs.len(), p.depth());
        for (c, lp) in costs.iter().zip(&p.levels) {
            let expect = cpu.td_level_time(
                lp.frontier_vertices,
                lp.frontier_edges,
                lp.max_frontier_degree,
            );
            assert_eq!(c.seconds, expect);
            assert_eq!(c.direction, Direction::TopDown);
        }
    }

    #[test]
    fn oracle_beats_pure_strategies() {
        // Needs a graph big enough that level work beats per-level launch
        // overhead on every device. A peripheral (random, non-hub) source
        // gives the canonical small→peak→small frontier; a hub source would
        // make pure bottom-up near-optimal and hide the combination's win.
        let g = xbfs_graph::rmat::rmat_csr(16, 32);
        // The generator's label permutation depends on the RNG stream, so
        // no fixed vertex id is guaranteed to land in the giant component;
        // pick the lowest-degree giant-component member instead.
        let comps = xbfs_graph::components::connected_components(&g);
        let giant = comps.largest().expect("non-empty graph");
        let src = comps
            .members(giant)
            .into_iter()
            .min_by_key(|&v| g.degree(v))
            .expect("giant component has members");
        let p = profile(&g, src);
        assert!(p.depth() > 3, "peripheral source must see a deep traversal");
        for arch in [
            ArchSpec::cpu_sandy_bridge(),
            ArchSpec::gpu_k20x(),
            ArchSpec::mic_knights_corner(),
        ] {
            let oracle = oracle_script(&p, &arch);
            let t_oracle = total_seconds(&cost_script(&p, &arch, &oracle));
            let t_td = total_seconds(&cost_script(
                &p,
                &arch,
                &vec![Direction::TopDown; p.depth()],
            ));
            let t_bu = total_seconds(&cost_script(
                &p,
                &arch,
                &vec![Direction::BottomUp; p.depth()],
            ));
            assert!(t_oracle <= t_td && t_oracle <= t_bu, "{}", arch.name);
            // On a scale-free graph the combination must genuinely win.
            assert!(t_oracle < 0.9 * t_td.min(t_bu), "{}", arch.name);
        }
    }

    #[test]
    fn oracle_is_td_then_bu_shaped_on_gpu() {
        // The canonical Table IV shape: TD on the tiny early levels, BU in
        // the middle.
        let p = rmat_profile();
        let gpu = ArchSpec::gpu_k20x();
        let script = oracle_script(&p, &gpu);
        assert_eq!(script[0], Direction::TopDown, "{script:?}");
        let peak = p
            .levels
            .iter()
            .max_by_key(|l| l.frontier_vertices)
            .unwrap()
            .level as usize;
        assert_eq!(script[peak], Direction::BottomUp, "{script:?}");
    }

    #[test]
    fn fixed_mn_cost_interpolates_pure_extremes() {
        let p = rmat_profile();
        let cpu = ArchSpec::cpu_sandy_bridge();
        // Tiny M, N → thresholds above any frontier → always TD.
        let always_td = cost_fixed_mn(&p, &cpu, FixedMN::new(1e-6, 1e-6));
        let t_td = total_seconds(&cost_script(&p, &cpu, &vec![Direction::TopDown; p.depth()]));
        assert!((always_td - t_td).abs() < 1e-12);
        // Huge M, N → thresholds below one vertex → always BU.
        let always_bu = cost_fixed_mn(&p, &cpu, FixedMN::new(1e9, 1e9));
        let t_bu = total_seconds(&cost_script(
            &p,
            &cpu,
            &vec![Direction::BottomUp; p.depth()],
        ));
        assert!((always_bu - t_bu).abs() < 1e-12);
    }

    #[test]
    fn reasonable_mn_close_to_oracle_on_cpu() {
        // Beamer's published heuristic region (M ≈ 14–15, N ≈ 24) should be
        // within a small factor of the per-level oracle.
        let p = rmat_profile();
        let cpu = ArchSpec::cpu_sandy_bridge();
        let heuristic = cost_fixed_mn(&p, &cpu, FixedMN::new(14.0, 24.0));
        let oracle = total_seconds(&cost_script(&p, &cpu, &oracle_script(&p, &cpu)));
        assert!(
            heuristic < 2.0 * oracle,
            "heuristic {heuristic} oracle {oracle}"
        );
    }

    #[test]
    #[should_panic(expected = "script covers")]
    fn short_script_rejected() {
        let p = rmat_profile();
        cost_script(&p, &ArchSpec::cpu_sandy_bridge(), &[Direction::TopDown]);
    }

    #[test]
    fn cost_parts_total_is_bit_identical_to_model() {
        // The decomposed charge must never perturb the charged clock: the
        // recovery ladder's numeric-identity contract depends on it.
        let g = xbfs_graph::rmat::rmat_csr(10, 16);
        let t = xbfs_engine::hybrid::run(&g, 0, &mut FixedMN::new(14.0, 24.0));
        for arch in [ArchSpec::cpu_sandy_bridge(), ArchSpec::gpu_k20x()] {
            for rec in &t.levels {
                let plain = level_time_for_record(&arch, rec);
                let parts = level_cost_parts_for_record(&arch, rec);
                assert_eq!(parts.total_s.to_bits(), plain.to_bits());
                match rec.direction {
                    Direction::TopDown => assert!(parts.bound.starts_with("td-")),
                    Direction::BottomUp => assert_eq!(parts.bound, "bu"),
                }
            }
        }
    }
}
