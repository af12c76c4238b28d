//! Property tests for multi-source batching: a k-source batch must be
//! indistinguishable, lane for lane, from k solo runs.
//!
//! Over seeded R-MAT instances, every `BatchSession` lane's parents,
//! levels, level count and examined-edge count equal the solo
//! `RunSession`'s, and every lane is Graph 500-validated. Only the shared
//! batch clock differs (it must not exceed the sum of the solo clocks).

use proptest::prelude::*;
use xbfs::archsim::{ArchSpec, Link};
use xbfs::core::{BatchSession, CrossParams, RunSession};
use xbfs::engine::{validate, FixedMN};
use xbfs::graph::{Csr, RmatConfig, RmatGenerator, VertexId};

/// Seeded R-MAT instance plus 2..=8 arbitrary in-range sources
/// (duplicates allowed — they must ride separate lanes unharmed).
fn arb_batch() -> impl Strategy<Value = (Csr, Vec<VertexId>)> {
    (5u32..9, 2u32..10, any::<u64>()).prop_flat_map(|(scale, edgefactor, seed)| {
        let g = RmatGenerator::new(RmatConfig::new(scale, edgefactor).with_seed(seed)).csr();
        let n = g.num_vertices();
        (Just(g), proptest::collection::vec(0..n, 2..9))
    })
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

proptest! {
    #![proptest_config(ProptestConfig::with_cases(16))]

    #[test]
    fn batch_session_lanes_match_solo_run_sessions(
        (g, sources) in arb_batch()
    ) {
        let (cpu, gpu, link, params) = platform();
        let batch = BatchSession::on_platform(&g, &cpu, &gpu, &link, &params)
            .sources(&sources)
            .run()
            .expect("fault-free batch serves");
        prop_assert_eq!(batch.lanes.len(), sources.len());

        let mut solo_sum = 0.0f64;
        for (lane, &source) in batch.lanes.iter().zip(&sources) {
            prop_assert_eq!(lane.source, source);
            let solo = RunSession::on_platform(&g, &cpu, &gpu, &link, &params)
                .source(source)
                .run()
                .expect("fault-free solo serves");
            prop_assert_eq!(&lane.run.output.parents, &solo.output.parents,
                "lane {} parents diverged from solo", lane.lane);
            prop_assert_eq!(&lane.run.output.levels, &solo.output.levels,
                "lane {} levels diverged from solo", lane.lane);
            prop_assert_eq!(lane.run.report.levels_executed, solo.report.levels_executed,
                "lane {} level count diverged from solo", lane.lane);
            prop_assert_eq!(lane.run.report.edges_examined, solo.report.edges_examined,
                "lane {} examined edges diverged from solo", lane.lane);
            prop_assert_eq!(validate(&g, &lane.run.output), Ok(()));
            solo_sum += solo.report.total_seconds;
        }
        // The lanes share each round's sweeps, so the batch clock never
        // exceeds the solo clocks run back to back.
        prop_assert!(batch.total_seconds <= solo_sum,
            "batch {} s exceeds {} s of solo runs", batch.total_seconds, solo_sum);
    }
}
