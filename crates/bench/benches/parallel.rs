//! Real thread-scaling of the work-stealing parallel engine (the
//! host-machine counterpart of Fig. 10a). On a single-core host the
//! interesting number is the parallel-overhead delta between 1 and 2
//! threads.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use std::hint::black_box;
use xbfs_engine::{par, FixedMN};

fn bench_parallel(c: &mut Criterion) {
    let g = xbfs_graph::rmat::rmat_csr(16, 16);
    let src = xbfs_core::training::pick_source(&g, 1).unwrap();
    let max_threads = std::thread::available_parallelism().map_or(2, |n| n.get());
    let mut threads = vec![1usize, 2];
    threads.extend([4, 8].iter().copied().filter(|&t| t <= max_threads));

    let mut group = c.benchmark_group("parallel_hybrid_s16_ef16");
    group.sample_size(15);
    group.warm_up_time(std::time::Duration::from_millis(500));
    group.measurement_time(std::time::Duration::from_secs(3));
    for &t in &threads {
        group.bench_with_input(BenchmarkId::new("work-stealing", t), &t, |b, &t| {
            b.iter(|| {
                let mut policy = FixedMN::new(14.0, 24.0);
                black_box(par::run(&g, src, &mut policy, t))
            })
        });
    }
    group.finish();
}

criterion_group!(benches, bench_parallel);
criterion_main!(benches);
