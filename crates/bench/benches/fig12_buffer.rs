//! Figure 12 — effect of the LRU buffer size (CL and UL).
//!
//! Criterion measures CPU-side wall time, which the paper shows to be
//! buffer-insensitive; the fault counts that *do* react are reported by
//! `repro fig12`. This bench pins the expectation that enabling the buffer
//! does not slow queries down. The buffers belong to the engine, so each
//! buffer size runs its workload on one engine.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use std::hint::black_box;

use conn_bench::{Scale, Workload};
use conn_core::{ConnConfig, QueryEngine};
use conn_datasets::{Combo, DEFAULT_K, DEFAULT_QL};

fn bench(c: &mut Criterion) {
    let cfg = ConnConfig::default();
    for combo in [Combo::Cl, Combo::Ul] {
        let mut group = c.benchmark_group(format!("fig12_buffer_{}", combo.label()));
        group
            .sample_size(10)
            .warm_up_time(std::time::Duration::from_millis(500))
            .measurement_time(std::time::Duration::from_secs(2));
        let w = match combo {
            Combo::Cl => Workload::cl(Scale::SMOKE, DEFAULT_QL, 3, 2009),
            _ => Workload::with_ratio(combo, Scale::SMOKE, 1.0, DEFAULT_QL, 3, 2009),
        };
        let mut engine = QueryEngine::new(cfg);
        for bs_pct in [0.0f64, 4.0, 32.0] {
            engine.set_buffer_frac(bs_pct / 100.0, &w.data_tree, Some(&w.obstacle_tree));
            engine.clear_buffers();
            group.bench_with_input(BenchmarkId::from_parameter(bs_pct), &w, |b, w| {
                b.iter(|| {
                    for q in &w.queries {
                        let (res, _) = engine.coknn(&w.data_tree, &w.obstacle_tree, q, DEFAULT_K);
                        let _ = black_box(res);
                    }
                })
            });
        }
        group.finish();
    }
}

criterion_group!(benches, bench);
criterion_main!(benches);
