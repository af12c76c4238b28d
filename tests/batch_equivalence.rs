//! Property tests for multi-source batching: a k-source batch must be
//! indistinguishable, lane for lane, from k solo runs.
//!
//! Over seeded R-MAT instances, every `BatchSession` lane's parents,
//! levels, level count and examined-edge count equal the solo
//! `RunSession`'s, and every lane is Graph 500-validated. Only the shared
//! batch clock differs (it must not exceed the sum of the solo clocks).
//! Batches carry up to 16 lanes, so their validation spans two packed
//! groups; a lattice deeper than 124 levels adds the lanes that are
//! validated alone.

use proptest::prelude::*;
use proptest::test_runner::TestCaseError;
use xbfs::archsim::{ArchSpec, Link};
use xbfs::core::{BatchRun, BatchSession, CrossParams, RunSession};
use xbfs::engine::{validate, FixedMN};
use xbfs::graph::{gen, Csr, RmatConfig, RmatGenerator, VertexId};

/// Seeded R-MAT instance plus 2..=16 arbitrary in-range sources
/// (duplicates allowed — they must ride separate lanes unharmed).
fn arb_batch() -> impl Strategy<Value = (Csr, Vec<VertexId>)> {
    (5u32..9, 2u32..10, any::<u64>()).prop_flat_map(|(scale, edgefactor, seed)| {
        let g = RmatGenerator::new(RmatConfig::new(scale, edgefactor).with_seed(seed)).csr();
        let n = g.num_vertices();
        (Just(g), proptest::collection::vec(0..n, 2..17))
    })
}

/// A 100 × 60 road-like lattice: BFS from `(r, c)` runs
/// `max(r, 99 - r) + max(c, 59 - c)` levels, 80 to 158. About 60 % of
/// the sources stay within 124 levels and share packed validation
/// passes; the others are validated alone.
fn deep_lattice() -> Csr {
    gen::grid(100, 60)
}

fn platform() -> (ArchSpec, ArchSpec, Link, CrossParams) {
    (
        ArchSpec::cpu_sandy_bridge(),
        ArchSpec::gpu_k20x(),
        Link::pcie3(),
        CrossParams {
            handoff: FixedMN::new(64.0, 64.0),
            gpu: FixedMN::new(14.0, 24.0),
        },
    )
}

/// Every lane of a batch over `sources` equals its solo `RunSession`.
fn assert_lanes_match_solo(g: &Csr, sources: &[VertexId]) -> Result<BatchRun, TestCaseError> {
    let (cpu, gpu, link, params) = platform();
    let batch = BatchSession::on_platform(g, &cpu, &gpu, &link, &params)
        .sources(sources)
        .run()
        .expect("fault-free batch serves");
    prop_assert_eq!(batch.lanes.len(), sources.len());

    let mut solo_sum = 0.0f64;
    for (lane, &source) in batch.lanes.iter().zip(sources) {
        prop_assert_eq!(lane.source, source);
        let solo = RunSession::on_platform(g, &cpu, &gpu, &link, &params)
            .source(source)
            .run()
            .expect("fault-free solo serves");
        prop_assert_eq!(
            &lane.run.output.parents,
            &solo.output.parents,
            "lane {} parents diverged from solo",
            lane.lane
        );
        prop_assert_eq!(
            &lane.run.output.levels,
            &solo.output.levels,
            "lane {} levels diverged from solo",
            lane.lane
        );
        prop_assert_eq!(
            lane.run.report.levels_executed,
            solo.report.levels_executed,
            "lane {} level count diverged from solo",
            lane.lane
        );
        prop_assert_eq!(
            lane.run.report.edges_examined,
            solo.report.edges_examined,
            "lane {} examined edges diverged from solo",
            lane.lane
        );
        prop_assert_eq!(validate(g, &lane.run.output), Ok(()));
        solo_sum += solo.report.total_seconds;
    }
    // The lanes share each round's sweeps, so the batch clock never
    // exceeds the solo clocks run back to back.
    prop_assert!(
        batch.total_seconds <= solo_sum,
        "batch {} s exceeds {} s of solo runs",
        batch.total_seconds,
        solo_sum
    );
    Ok(batch)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(16))]

    #[test]
    fn batch_session_lanes_match_solo_run_sessions(
        (g, sources) in arb_batch()
    ) {
        assert_lanes_match_solo(&g, &sources)?;
    }

    #[test]
    fn deep_batch_lanes_match_solo_run_sessions(
        sources in proptest::collection::vec(0..6000u32, 2..17)
    ) {
        assert_lanes_match_solo(&deep_lattice(), &sources)?;
    }
}

#[test]
fn a_second_group_and_deep_lanes_match_solo_run_sessions() {
    // Ten sources near the centre (at most 88 levels) fill one packed
    // group of eight and a second of two; four corners (158 levels) and
    // two edge midpoints (129 levels) are validated alone. Then nine
    // shallow sources leave the ninth as the only lane of its group.
    let g = deep_lattice();
    let id = |r: u32, c: u32| r * 60 + c;
    let shallow: Vec<VertexId> = (0..10).map(|i| id(45 + i, 25 + i / 2)).collect();
    let deep = [
        id(0, 0),
        id(0, 59),
        id(99, 0),
        id(99, 59),
        id(0, 30),
        id(99, 30),
    ];
    let mixed: Vec<VertexId> = shallow.iter().chain(&deep).copied().collect();
    let batch = assert_lanes_match_solo(&g, &mixed).unwrap();
    let depths: Vec<u32> = batch
        .lanes
        .iter()
        .map(|lane| lane.run.output.max_level())
        .collect();
    assert!(depths[..10].iter().all(|&d| d <= 88), "{depths:?}");
    assert_eq!(depths[10..], [158, 158, 158, 158, 129, 129]);
    assert_lanes_match_solo(&g, &shallow[..9]).unwrap();
}
