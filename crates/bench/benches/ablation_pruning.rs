//! Ablation benches: what each pruning lemma buys, what the strict
//! refinement loop costs, and the local (IOR) visibility graph vs the
//! global one.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use std::hint::black_box;

use conn_bench::{Scale, Workload};
use conn_core::baseline::sampled_conn;
use conn_core::{ConnConfig, QueryEngine};
use conn_datasets::{Combo, DEFAULT_K, DEFAULT_QL};

fn bench_lemmas(c: &mut Criterion) {
    let mut group = c.benchmark_group("ablation_pruning");
    group
        .sample_size(10)
        .warm_up_time(std::time::Duration::from_millis(500))
        .measurement_time(std::time::Duration::from_secs(2));
    let w = Workload::with_ratio(Combo::Ul, Scale::SMOKE, 1.0, DEFAULT_QL, 3, 2009);
    let configs: [(&str, ConnConfig); 6] = [
        ("all-on", ConnConfig::default()),
        ("paper-literal", ConnConfig::paper()),
        (
            "no-lemma1",
            ConnConfig {
                use_lemma1: false,
                ..ConnConfig::default()
            },
        ),
        (
            "no-lemma6",
            ConnConfig {
                use_lemma6: false,
                ..ConnConfig::default()
            },
        ),
        (
            "no-lemma7",
            ConnConfig {
                use_lemma7: false,
                ..ConnConfig::default()
            },
        ),
        ("no-pruning", ConnConfig::no_pruning()),
    ];
    for (label, cfg) in configs {
        group.bench_with_input(BenchmarkId::from_parameter(label), &cfg, |b, cfg| {
            b.iter(|| {
                let mut engine = QueryEngine::new(*cfg);
                for q in &w.queries {
                    let (res, _) = engine.coknn(&w.data_tree, &w.obstacle_tree, q, DEFAULT_K);
                    let _ = black_box(res);
                }
            })
        });
    }
    group.finish();
}

/// Local IOR-driven processing vs the naive global-graph sampling baseline
/// the paper argues against (§1, §2.4). Tiny scale: the baseline builds the
/// full visibility graph.
fn bench_local_vs_global(c: &mut Criterion) {
    let mut group = c.benchmark_group("ablation_local_vg");
    group
        .sample_size(10)
        .warm_up_time(std::time::Duration::from_millis(500))
        .measurement_time(std::time::Duration::from_secs(3));
    let w = Workload::with_ratio(Combo::Ul, Scale(1.0 / 1024.0), 1.0, DEFAULT_QL, 2, 2009);
    let cfg = ConnConfig::default();
    group.bench_function("exact_local_conn", |b| {
        b.iter(|| {
            let mut engine = QueryEngine::new(cfg);
            for q in &w.queries {
                let (res, _) = engine.coknn(&w.data_tree, &w.obstacle_tree, q, 1);
                let _ = black_box(res);
            }
        })
    });
    group.bench_function("sampled_global_50", |b| {
        b.iter(|| {
            for q in &w.queries {
                let samples = sampled_conn(&w.points, &w.obstacles, q, 50, 1);
                black_box(samples);
            }
        })
    });
    group.finish();
}

criterion_group!(benches, bench_lemmas, bench_local_vs_global);
criterion_main!(benches);
