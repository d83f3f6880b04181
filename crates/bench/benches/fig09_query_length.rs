//! Figure 9 — COkNN cost vs query length `ql` (CL combination, k = 5).
//!
//! The paper reports total time, NPE, NOE and |SVG| growing with `ql`.
//! Criterion measures the wall-clock query cost here; the full metric table
//! is produced by `repro fig9`.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use std::hint::black_box;

use conn_bench::{Scale, Workload};
use conn_core::{ConnConfig, QueryEngine};
use conn_datasets::DEFAULT_K;

fn bench(c: &mut Criterion) {
    let mut group = c.benchmark_group("fig09_query_length");
    group
        .sample_size(10)
        .warm_up_time(std::time::Duration::from_millis(500))
        .measurement_time(std::time::Duration::from_secs(2));
    let cfg = ConnConfig::default();
    for ql_pct in [1.5f64, 3.0, 4.5, 6.0, 7.5] {
        let w = Workload::cl(Scale::SMOKE, ql_pct / 100.0, 3, 2009);
        group.bench_with_input(BenchmarkId::from_parameter(ql_pct), &w, |b, w| {
            b.iter(|| {
                let mut engine = QueryEngine::new(cfg);
                for q in &w.queries {
                    let (res, _) = engine.coknn(&w.data_tree, &w.obstacle_tree, q, DEFAULT_K);
                    let _ = black_box(res);
                }
            })
        });
    }
    group.finish();
}

criterion_group!(benches, bench);
criterion_main!(benches);
