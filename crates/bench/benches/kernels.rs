//! Real-kernel microbenchmarks: sequential top-down, bottom-up,
//! direction-optimizing hybrid and the naive reference on one R-MAT graph.
//!
//! The host-machine counterpart of the paper's Fig. 3 / Table IV per-kernel
//! comparison: the hybrid must examine far fewer edges than either pure
//! direction and therefore run fastest. `validate` times the Graph 500
//! check of the hybrid's output on the same graph and source, so a served
//! query's traversal and validation costs read side by side.

use criterion::{criterion_group, criterion_main, Criterion};
use std::hint::black_box;
use xbfs_engine::{bottomup, hybrid, reference, topdown, validate, FixedMN};

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
    group.bench_function("reference_fifo", |b| {
        b.iter(|| black_box(reference::run(&g, src)))
    });
    group.finish();
}

criterion_group!(benches, bench_kernels);
criterion_main!(benches);
