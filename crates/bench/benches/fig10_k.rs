//! Figure 10 — COkNN cost vs k (CL combination, ql = 4.5 %).

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use std::hint::black_box;

use conn_bench::{Scale, Workload};
use conn_core::{ConnConfig, QueryEngine};
use conn_datasets::DEFAULT_QL;

fn bench(c: &mut Criterion) {
    let mut group = c.benchmark_group("fig10_k");
    group
        .sample_size(10)
        .warm_up_time(std::time::Duration::from_millis(500))
        .measurement_time(std::time::Duration::from_secs(2));
    let cfg = ConnConfig::default();
    let w = Workload::cl(Scale::SMOKE, DEFAULT_QL, 3, 2009);
    for k in [1usize, 3, 5, 7, 9] {
        group.bench_with_input(BenchmarkId::from_parameter(k), &k, |b, &k| {
            b.iter(|| {
                let mut engine = QueryEngine::new(cfg);
                for q in &w.queries {
                    let (res, _) = engine.coknn(&w.data_tree, &w.obstacle_tree, q, k);
                    let _ = black_box(res);
                }
            })
        });
    }
    group.finish();
}

criterion_group!(benches, bench);
criterion_main!(benches);
