//! Real-kernel microbenchmarks: sequential top-down, bottom-up,
//! direction-optimizing hybrid and the naive reference on one R-MAT graph.
//!
//! The host-machine counterpart of the paper's Fig. 3 / Table IV per-kernel
//! comparison: the hybrid must examine far fewer edges than either pure
//! direction and therefore run fastest. `validate` times the Graph 500
//! check of the hybrid's output on the same graph and source, so a served
//! query's traversal and validation costs read side by side.
//! `validate_8` checks the hybrid's outputs from eight sources one by one,
//! and `validate_lanes_8` checks the same eight in one lane-packed pass,
//! as a multi-lane `BatchSession` does.
//!
//! The `hardening_road128` group times the recovery ladder's per-boundary
//! guards on the road-like graph of the `hardened-road` workload. `scrub`
//! scrubs a whole traversal's boundary states with one [`Scrubber`], as
//! the ladder does with a scrub every level, apart from the traversal
//! they guard. `checkpoint_byte_size` times the cold oracle
//! `LevelCheckpoint::byte_size` on one mid-run checkpoint; the ladder
//! keeps that count running instead of calling it per capture.
//! `hardened_session` times one whole fault-free [`RunSession`] under the
//! workload's resilience configuration (a scrub every level, checksummed
//! transfers, a checkpoint every 4 levels): the traversal and its guards
//! together. `chrome_trace` renders that session's trace as a chrome
//! trace, and `metrics_fold` folds it into a fresh [`Metrics`] registry:
//! the two exports the workload pays per query.

use criterion::{criterion_group, criterion_main, Criterion};
use std::hint::black_box;
use xbfs_archsim::{fault::FaultPlan, ArchSpec, Link};
use xbfs_core::{
    checkpoint::capture_at, chrome_trace_json, CrossParams, Metrics, ResilienceConfig, RunSession,
    Rung,
};
use xbfs_engine::{
    bottomup, hybrid, reference, topdown, validate, validate_lanes, BfsOutput, FixedMN, MemorySink,
    ScrubPolicy, Scrubber, TraversalState,
};

fn bench_kernels(c: &mut Criterion) {
    let g = xbfs_graph::rmat::rmat_csr(16, 16);
    let src = xbfs_core::training::pick_source(&g, 1).unwrap();

    let mut group = c.benchmark_group("kernels_s16_ef16");
    group.sample_size(20);
    group.warm_up_time(std::time::Duration::from_millis(500));
    group.measurement_time(std::time::Duration::from_secs(3));
    group.bench_function("topdown", |b| b.iter(|| black_box(topdown::run(&g, src))));
    group.bench_function("bottomup", |b| b.iter(|| black_box(bottomup::run(&g, src))));
    group.bench_function("hybrid_m14_n24", |b| {
        b.iter(|| {
            let mut policy = FixedMN::new(14.0, 24.0);
            black_box(hybrid::run(&g, src, &mut policy))
        })
    });
    let out = hybrid::run(&g, src, &mut FixedMN::new(14.0, 24.0)).output;
    group.bench_function("validate", |b| {
        b.iter(|| black_box(validate(&g, black_box(&out))))
    });
    let outs: Vec<BfsOutput> = (1..=8)
        .map(|seed| {
            let src = xbfs_core::training::pick_source(&g, seed).unwrap();
            hybrid::run(&g, src, &mut FixedMN::new(14.0, 24.0)).output
        })
        .collect();
    let lanes: Vec<&BfsOutput> = outs.iter().collect();
    group.bench_function("validate_8", |b| {
        b.iter(|| {
            for out in &lanes {
                black_box(validate(&g, black_box(out))).unwrap();
            }
        })
    });
    group.bench_function("validate_lanes_8", |b| {
        b.iter(|| black_box(validate_lanes(&g, black_box(&lanes))))
    });
    group.bench_function("reference_fifo", |b| {
        b.iter(|| black_box(reference::run(&g, src)))
    });
    group.finish();
}

fn bench_hardening(c: &mut Criterion) {
    let g = xbfs_graph::gen::road_like(128, 128, 128, 1);
    let src = xbfs_core::training::pick_source(&g, 1).unwrap();

    // Every boundary state of one traversal, in order.
    let mut boundaries = Vec::new();
    let mut st = TraversalState::start(&g, src);
    let mut policy = FixedMN::new(14.0, 24.0);
    while st.step(&g, &mut policy).is_some() {
        boundaries.push(st.clone());
    }
    let mid = boundaries.len() as u32 / 2;
    let (cpu, gpu, link) = (
        ArchSpec::cpu_sandy_bridge(),
        ArchSpec::gpu_k20x(),
        Link::pcie3(),
    );
    let params = CrossParams {
        handoff: FixedMN::new(64.0, 64.0),
        gpu: FixedMN::new(14.0, 24.0),
    };
    let ck = capture_at(
        &g,
        src,
        &cpu,
        &gpu,
        &link,
        &params,
        &FaultPlan::none(),
        &ResilienceConfig::default_runtime(),
        Rung::CpuOnly,
        mid,
    )
    .unwrap();
    let hardened = ResilienceConfig {
        scrub: ScrubPolicy::every_level(),
        checksum_transfers: true,
        ..ResilienceConfig::default_runtime()
    };

    let mut group = c.benchmark_group("hardening_road128");
    group.sample_size(20);
    group.warm_up_time(std::time::Duration::from_millis(500));
    group.measurement_time(std::time::Duration::from_secs(3));
    group.bench_function("scrub", |b| {
        b.iter(|| {
            let mut scrubber = Scrubber::default();
            for st in &boundaries {
                black_box(scrubber.scrub(&g, black_box(st)));
            }
        })
    });
    group.bench_function("checkpoint_byte_size", |b| {
        b.iter(|| black_box(black_box(&ck).byte_size()))
    });
    group.bench_function("hardened_session", |b| {
        b.iter(|| {
            let run = RunSession::on_platform(&g, &cpu, &gpu, &link, &params)
                .source(src)
                .resilience(hardened.clone())
                .run();
            black_box(run.unwrap())
        })
    });
    let sink = MemorySink::new();
    RunSession::on_platform(&g, &cpu, &gpu, &link, &params)
        .source(src)
        .resilience(hardened.clone())
        .sink(&sink)
        .run()
        .unwrap();
    let events = sink.events();
    group.bench_function("chrome_trace", |b| {
        b.iter(|| black_box(chrome_trace_json(black_box(&events))))
    });
    group.bench_function("metrics_fold", |b| {
        b.iter(|| {
            let mut metrics = Metrics::default();
            metrics.fold(black_box(&events));
            black_box(metrics)
        })
    });
    group.finish();
}

criterion_group!(benches, bench_kernels, bench_hardening);
criterion_main!(benches);
