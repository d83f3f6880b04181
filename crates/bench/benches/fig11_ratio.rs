//! Figure 11 — COkNN cost vs the cardinality ratio |P|/|O| (UL and ZL).
//!
//! The paper's headline shape is a U: cost falls as the ratio grows from
//! 0.1 to ~0.5, then rises again toward 10.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use std::hint::black_box;

use conn_bench::{Scale, Workload};
use conn_core::{ConnConfig, QueryEngine};
use conn_datasets::{Combo, DEFAULT_K, DEFAULT_QL};

fn bench(c: &mut Criterion) {
    let cfg = ConnConfig::default();
    for combo in [Combo::Ul, Combo::Zl] {
        let mut group = c.benchmark_group(format!("fig11_ratio_{}", combo.label()));
        group
            .sample_size(10)
            .warm_up_time(std::time::Duration::from_millis(500))
            .measurement_time(std::time::Duration::from_secs(2));
        for ratio in [0.1f64, 0.5, 1.0, 5.0, 10.0] {
            let w = Workload::with_ratio(combo, Scale::SMOKE, ratio, DEFAULT_QL, 3, 2009);
            group.bench_with_input(BenchmarkId::from_parameter(ratio), &w, |b, w| {
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
}

criterion_group!(benches, bench);
criterion_main!(benches);
