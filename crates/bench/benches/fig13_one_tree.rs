//! Figure 13 — single unified R-tree (1T) vs two separate R-trees (2T).
//!
//! The paper finds 1T at least as fast as 2T in most settings (one tree
//! traversal instead of two, co-located points and obstacles).

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use std::hint::black_box;

use conn_bench::{Scale, Workload};
use conn_core::{ConnConfig, QueryEngine};
use conn_datasets::{Combo, DEFAULT_K, DEFAULT_QL};

fn bench(c: &mut Criterion) {
    let cfg = ConnConfig::default();
    for combo in [Combo::Cl, Combo::Ul] {
        let mut group = c.benchmark_group(format!("fig13_layout_{}", combo.label()));
        group
            .sample_size(10)
            .warm_up_time(std::time::Duration::from_millis(500))
            .measurement_time(std::time::Duration::from_secs(2));
        let w = match combo {
            Combo::Cl => Workload::cl(Scale::SMOKE, DEFAULT_QL, 3, 2009),
            _ => Workload::with_ratio(combo, Scale::SMOKE, 1.0, DEFAULT_QL, 3, 2009),
        };
        let unified = w.unified_tree();
        group.bench_with_input(BenchmarkId::new("2T", combo.label()), &w, |b, w| {
            b.iter(|| {
                let mut engine = QueryEngine::new(cfg);
                for q in &w.queries {
                    let (res, _) = engine.coknn(&w.data_tree, &w.obstacle_tree, q, DEFAULT_K);
                    let _ = black_box(res);
                }
            })
        });
        group.bench_with_input(BenchmarkId::new("1T", combo.label()), &w, |b, w| {
            b.iter(|| {
                let mut engine = QueryEngine::new(cfg);
                for q in &w.queries {
                    let (res, _) = engine.coknn_single_tree(&unified, q, DEFAULT_K);
                    let _ = black_box(res);
                }
            })
        });
        group.finish();
    }
}

criterion_group!(benches, bench);
criterion_main!(benches);
