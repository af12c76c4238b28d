//! Property tests for the work-stealing parallel engine.
//!
//! Two guarantees are pinned down here, over seeded skewed R-MAT
//! instances (the hub-heavy degree distributions the dynamic scheduler
//! exists for):
//!
//! 1. **Schedule-independence of the level map** — the work-stealing
//!    engine and the sequential hybrid engine agree on the level map at
//!    every thread count in {1, 2, 4, 8}, and
//!    the work-stealing engine reproduces the sequential driver's full
//!    per-level records (frontier stats, examined counts) despite folding
//!    the degree statistics into the kernels. Parents may differ (the CAS
//!    race is won by an arbitrary frontier vertex); levels never do.
//! 2. **Trace/record reconciliation** — a traced multi-threaded run
//!    matches its untraced twin exactly, emits one `EngineLevel` event
//!    per level that agrees span-for-span with the `LevelRecord`s, and
//!    every worker-emitted `Kernel` span is well-formed.

use proptest::prelude::*;
use xbfs::engine::{hybrid, par, validate, FixedMN, MemorySink, ShardedSink, TraceEvent};
use xbfs::graph::{Csr, RmatConfig, RmatGenerator, VertexId};

/// Seeded skewed R-MAT instance plus an arbitrary in-range source.
fn arb_rmat() -> impl Strategy<Value = (Csr, VertexId)> {
    (5u32..9, 2u32..10, any::<u64>()).prop_flat_map(|(scale, edgefactor, seed)| {
        let g = RmatGenerator::new(RmatConfig::new(scale, edgefactor).with_seed(seed)).csr();
        let n = g.num_vertices();
        (Just(g), 0..n)
    })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    #[test]
    fn work_stealing_levels_match_sequential_at_all_thread_counts(
        (g, src) in arb_rmat()
    ) {
        let seq = hybrid::run(&g, src, &mut FixedMN::new(14.0, 24.0));
        for threads in [1usize, 2, 4, 8] {
            let stealing = par::run(&g, src, &mut FixedMN::new(14.0, 24.0), threads);
            prop_assert_eq!(
                &seq.output.levels, &stealing.output.levels,
                "work-stealing vs sequential at {} threads", threads
            );
            // The folded-degree-stats driver must reproduce the
            // sequential driver's records exactly, not just its levels.
            prop_assert_eq!(&seq.levels, &stealing.levels);
            prop_assert_eq!(validate(&g, &stealing.output), Ok(()));
        }
    }

    #[test]
    fn traced_multithread_run_reconciles_with_untraced_twin(
        (g, src) in arb_rmat()
    ) {
        let threads = par::env_threads(4);
        let plain = par::run(&g, src, &mut FixedMN::new(14.0, 24.0), threads);
        let sink = MemorySink::new();
        let traced = par::run_traced(&g, src, &mut FixedMN::new(14.0, 24.0), threads, &sink);
        prop_assert_eq!(&plain.output.levels, &traced.output.levels);
        prop_assert_eq!(&plain.levels, &traced.levels);

        // EngineLevel events reconcile span-for-span with the records.
        let events = sink.events();
        let engine_levels: Vec<&TraceEvent> = events
            .iter()
            .filter(|e| matches!(e, TraceEvent::EngineLevel { .. }))
            .collect();
        prop_assert_eq!(engine_levels.len(), traced.levels.len());
        for (ev, rec) in engine_levels.iter().zip(&traced.levels) {
            if let TraceEvent::EngineLevel {
                level,
                direction,
                frontier_vertices,
                frontier_edges,
                edges_examined,
                discovered,
                wall_s,
            } = ev
            {
                prop_assert_eq!(*level, rec.level);
                prop_assert_eq!(*direction, rec.direction);
                prop_assert_eq!(*frontier_vertices, rec.frontier_vertices);
                prop_assert_eq!(*frontier_edges, rec.frontier_edges);
                prop_assert_eq!(*edges_examined, rec.edges_examined);
                prop_assert_eq!(*discovered, rec.discovered);
                prop_assert!(wall_s.is_finite() && *wall_s >= 0.0);
            }
        }

        // Worker-emitted kernel spans are well-formed: known ops, worker
        // index within range, sane timestamps, and a level that exists.
        let max_level = traced.levels.len() as u32;
        for ev in &events {
            if let TraceEvent::Kernel {
                device,
                op,
                level,
                attempt,
                start_s,
                end_s,
                ok,
            } = ev
            {
                prop_assert_eq!(*device, "cpu");
                prop_assert!(*op == "td-kernel" || *op == "bu-kernel");
                prop_assert!((*attempt as usize) < threads);
                prop_assert!(*level < max_level);
                prop_assert!(*start_s >= 0.0 && *end_s >= *start_s);
                prop_assert!(*ok);
            }
        }
    }

    #[test]
    fn sharded_sink_sees_the_same_trace_as_memory_sink(
        (g, src) in arb_rmat()
    ) {
        // Same traversal, two Sync sink implementations: the sharded
        // sink's seq-merged EngineLevel stream must equal the mutex
        // sink's (driver-emitted events are totally ordered in both).
        let threads = par::env_threads(4);
        let mem = MemorySink::new();
        let t1 = par::run_traced(&g, src, &mut FixedMN::new(14.0, 24.0), threads, &mem);
        let sharded = ShardedSink::new();
        let t2 = par::run_traced(&g, src, &mut FixedMN::new(14.0, 24.0), threads, &sharded);
        prop_assert_eq!(&t1.output.levels, &t2.output.levels);

        let strip_wall = |events: Vec<TraceEvent>| -> Vec<TraceEvent> {
            events
                .into_iter()
                .filter_map(|e| match e {
                    TraceEvent::EngineLevel {
                        level,
                        direction,
                        frontier_vertices,
                        frontier_edges,
                        edges_examined,
                        discovered,
                        ..
                    } => Some(TraceEvent::EngineLevel {
                        level,
                        direction,
                        frontier_vertices,
                        frontier_edges,
                        edges_examined,
                        discovered,
                        wall_s: 0.0,
                    }),
                    _ => None,
                })
                .collect()
        };
        prop_assert_eq!(strip_wall(mem.events()), strip_wall(sharded.events()));
    }
}
