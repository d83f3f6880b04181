//! Batch-layer throughput: a fresh engine per query looped over a 64-query
//! mixed workload vs a single reused `QueryEngine` vs the parallel
//! `ConnService::execute_batch` path. All three produce identical results (asserted
//! before timing); the deltas isolate substrate amortization
//! (serial engine) and the worker pool (batch).

use criterion::{criterion_group, criterion_main, Criterion};
use std::hint::black_box;

use conn_bench::{conn_results_identical, Workload};
use conn_core::ConnConfig;
use conn_datasets::Combo;

const BATCH: usize = 64;

fn bench_batch_throughput(c: &mut Criterion) {
    let cfg = ConnConfig::default();
    let w = Workload::build_mixed(Combo::Ul, 2000, 2000, 0.045, BATCH, 2009);

    // correctness gate: all three execution paths agree bit-for-bit
    let serial = w.run_conn_serial(&cfg);
    let (engine, _) = w.run_conn_engine(&cfg);
    let (batch, _) = w.run_conn_parallel(&cfg, 0);
    assert!(
        conn_results_identical(&serial, &engine),
        "engine path diverged"
    );
    assert!(
        conn_results_identical(&serial, &batch),
        "batch path diverged"
    );

    let mut group = c.benchmark_group("batch_throughput");
    group.sample_size(10);
    group.bench_function("serial_one_shot_64q", |b| {
        b.iter(|| black_box(w.run_conn_serial(&cfg).len()))
    });
    group.bench_function("serial_engine_reuse_64q", |b| {
        b.iter(|| black_box(w.run_conn_engine(&cfg).0.len()))
    });
    group.bench_function("parallel_batch_64q", |b| {
        b.iter(|| black_box(w.run_conn_parallel(&cfg, 0).0.len()))
    });
    group.finish();
}

criterion_group!(benches, bench_batch_throughput);
criterion_main!(benches);
