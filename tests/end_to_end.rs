//! End-to-end integration: the full paper pipeline — generate graphs,
//! train the regression offline, predict switch points online, execute the
//! cross-architecture combination, and check the result against the
//! exhaustive oracle.

use xbfs::core::{combination, oracle, training};
use xbfs::prelude::*;

fn runtime() -> AdaptiveRuntime {
    AdaptiveRuntime::quick_trained()
}

#[test]
fn adaptive_cross_run_is_valid_and_reasonable() {
    let rt = runtime();
    for (scale, ef) in [(12u32, 8u32), (13, 16), (14, 16)] {
        let g = xbfs::graph::rmat::rmat_csr(scale, ef);
        let stats = GraphStats::rmat(&g, 0.57, 0.19, 0.19, 0.05);
        let src = training::pick_source(&g, 1).unwrap();
        let run = rt.run_cross(&g, &stats, src);
        assert!(
            xbfs::engine::validate(&g, &run.traversal.output).is_ok(),
            "invalid BFS at scale {scale} ef {ef}"
        );

        // The predicted plan must be within 10x of the exhaustive oracle —
        // a catastrophe detector, not an accuracy claim (the quick
        // training set is tiny).
        let p = xbfs::archsim::profile(&g, src);
        let grid = oracle::cross_pair_grid();
        let best = oracle::best_cross(&oracle::sweep_cross_pairs(
            &p, &rt.cpu, &rt.gpu, &rt.link, &grid, &grid,
        ));
        assert!(
            run.total_seconds < 10.0 * best.seconds,
            "scale {scale} ef {ef}: predicted {} vs oracle {}",
            run.total_seconds,
            best.seconds
        );
    }
}

#[test]
fn adaptive_single_device_runs_work_on_all_platforms() {
    let rt = runtime();
    let g = xbfs::graph::rmat::rmat_csr(12, 16);
    let stats = GraphStats::rmat(&g, 0.57, 0.19, 0.19, 0.05);
    let src = training::pick_source(&g, 2).unwrap();
    let archs = [rt.cpu.clone(), rt.gpu.clone(), rt.mic.clone()];
    let mut totals = Vec::new();
    for arch in &archs {
        let mut mn = rt.predictor.predict(&stats, arch, arch);
        let run = combination::run_single(&g, src, arch, &mut mn);
        assert!(xbfs::engine::validate(&g, &run.traversal.output).is_ok());
        totals.push(run.total_seconds);
    }
    // MIC is the slowest platform in the paper and in our calibration.
    assert!(totals[2] > totals[0] && totals[2] > totals[1], "{totals:?}");
}

#[test]
fn training_set_round_trips_through_serde() {
    let ts = training::generate(
        &training::TrainingConfig::quick(),
        &training::paper_arch_pairs(),
        &Link::pcie3(),
    );
    let json = serde_json::to_string(&ts).unwrap();
    let back: training::TrainingSet = serde_json::from_str(&json).unwrap();
    // JSON float formatting may perturb the last ULP of `seconds`, so
    // compare fields rather than whole structs.
    assert_eq!(ts.labels.len(), back.labels.len());
    for (a, b) in ts.labels.iter().zip(&back.labels) {
        assert_eq!(
            (a.scale, a.edgefactor, &a.pair),
            (b.scale, b.edgefactor, &b.pair)
        );
        assert_eq!(a.best, b.best);
        assert!((a.seconds - b.seconds).abs() < 1e-12);
    }
    assert_eq!(ts.dataset_m.targets(), back.dataset_m.targets());
}

#[test]
fn predictor_round_trips_through_serde() {
    let rt = runtime();
    let json = serde_json::to_string(&rt.predictor).unwrap();
    let back: xbfs::core::SwitchPredictor = serde_json::from_str(&json).unwrap();
    let g = xbfs::graph::rmat::rmat_csr(11, 8);
    let stats = GraphStats::rmat(&g, 0.57, 0.19, 0.19, 0.05);
    let a = rt.predictor.predict(&stats, &rt.cpu, &rt.gpu);
    let b = back.predict(&stats, &rt.cpu, &rt.gpu);
    assert!((a.m - b.m).abs() < 1e-9 && (a.n - b.n).abs() < 1e-9);
}

#[test]
fn cross_run_and_cost_model_agree_end_to_end() {
    // Executing Algorithm 3 for real and pricing it on the profile must
    // give identical plans and (near-)identical times.
    let rt = runtime();
    let g = xbfs::graph::rmat::rmat_csr(13, 16);
    let stats = GraphStats::rmat(&g, 0.57, 0.19, 0.19, 0.05);
    let src = training::pick_source(&g, 3).unwrap();
    let params = rt.predict_params(&stats);

    let run = xbfs::core::cross::run_cross(&g, src, &rt.cpu, &rt.gpu, &rt.link, &params);
    let p = xbfs::archsim::profile(&g, src);
    let cost = xbfs::core::cross::cost_cross(&p, &rt.cpu, &rt.gpu, &rt.link, &params);

    assert_eq!(run.placements, cost.placements);
    assert!((run.total_seconds - cost.total_seconds).abs() < 1e-9);
}

#[test]
fn paper_pipeline_smoke_all_experiments_have_claims() {
    // Every experiment regenerates and carries at least one paper claim.
    // (The bench crate asserts each claim individually; this checks the
    // wiring of the whole suite.)
    use xbfs_bench::{run_experiment, Preset, ALL_EXPERIMENTS};
    let mut preset = Preset::scaled();
    preset.scale_shift = 8; // extra small: this is a smoke test
    for id in ALL_EXPERIMENTS {
        // fig8 trains a model; still fine at this size.
        let r = run_experiment(id, &preset).expect("known experiment");
        assert!(!r.claims.is_empty(), "{id} has no claims");
        assert!(!r.lines.is_empty(), "{id} prints nothing");
    }
}
