//! Microbenchmarks of the substrates: R*-tree build and
//! query, visibility-graph Dijkstra, visible regions, the split-point
//! solver, and the arena/SoA sight-test and adjacency kernels.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use std::hint::black_box;

use conn_core::split::{crossing_params, split};
use conn_core::ControlPoint;
use conn_datasets::{la_like, uniform_points};
use conn_geom::{batch, Interval, Point, Rect, RectLanes, Segment};
use conn_index::RStarTree;
use conn_vgraph::{visible_region, DijkstraEngine, NodeId, NodeKind, VisGraph};

fn bench_rtree(c: &mut Criterion) {
    let mut group = c.benchmark_group("rtree_micro");
    group.sample_size(10);
    let pts = uniform_points(20_000, 7, &[]);
    group.bench_function("bulk_load_20k", |b| {
        b.iter(|| {
            let t = RStarTree::bulk_load(pts.clone(), 4096);
            black_box(t.num_pages())
        })
    });
    group.bench_function("insert_2k", |b| {
        b.iter(|| {
            let mut t = RStarTree::new(4096);
            for p in pts.iter().take(2000) {
                t.insert(*p);
            }
            black_box(t.num_pages())
        })
    });
    let tree = RStarTree::bulk_load(pts.clone(), 4096);
    let q = Segment::new(Point::new(100.0, 100.0), Point::new(600.0, 450.0));
    group.bench_function("knn_100_by_segment", |b| {
        b.iter(|| black_box(tree.knn(q, 100)))
    });
    group.finish();
}

fn bench_vgraph(c: &mut Criterion) {
    let mut group = c.benchmark_group("vgraph_micro");
    group.sample_size(10);
    for n_obstacles in [100usize, 400] {
        let obstacles = la_like(n_obstacles, 5);
        group.bench_with_input(
            BenchmarkId::new("dijkstra_endpoints", n_obstacles),
            &obstacles,
            |b, obstacles| {
                b.iter(|| {
                    let mut g = VisGraph::new(50.0);
                    let s = g.add_point(Point::new(0.0, 0.0), NodeKind::Endpoint);
                    let t = g.add_point(Point::new(9999.0, 9999.0), NodeKind::Endpoint);
                    for r in obstacles {
                        g.add_obstacle(*r);
                    }
                    let mut d = DijkstraEngine::new(&g, s);
                    black_box(d.run_until_settled(&mut g, t))
                })
            },
        );
    }
    let obstacles = la_like(400, 5);
    let q = Segment::new(Point::new(2000.0, 5000.0), Point::new(2450.0, 5000.0));
    group.bench_function("visible_region_400", |b| {
        b.iter(|| black_box(visible_region(Point::new(2200.0, 5400.0), &q, &obstacles)))
    });
    group.finish();
}

fn bench_split(c: &mut Criterion) {
    let mut group = c.benchmark_group("split_micro");
    let q = Segment::new(Point::new(0.0, 0.0), Point::new(450.0, 0.0));
    let iv = Interval::new(0.0, 450.0);
    // a mix of all four paper cases
    let pairs: Vec<(ControlPoint, ControlPoint)> = (0..64)
        .map(|i| {
            let k = i as f64;
            (
                ControlPoint::new(Point::new(k * 7.0 % 450.0, 10.0 + k % 40.0), k % 13.0),
                ControlPoint::new(
                    Point::new(450.0 - k * 5.0 % 450.0, 25.0 + k % 30.0),
                    k % 7.0,
                ),
            )
        })
        .collect();
    group.bench_function("split_64_pairs", |b| {
        b.iter(|| {
            for (f, g) in &pairs {
                black_box(split(&q, f, g, iv));
            }
        })
    });
    group.bench_function("crossing_params_64_pairs", |b| {
        b.iter(|| {
            for (f, g) in &pairs {
                black_box(crossing_params(&q, f, g, &iv));
            }
        })
    });
    group.finish();
}

/// Splitmix-style hash → uniform f64 in [0, 1): deterministic candidate
/// fields without threading an RNG through the bench.
fn unit(seed: u64, i: u64) -> f64 {
    let mut z = seed
        .wrapping_add(i.wrapping_mul(0x9E37_79B9_7F4A_7C15))
        .wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z ^= z >> 27;
    z = z.wrapping_mul(0x94D0_49BB_1331_11EB);
    (z >> 11) as f64 / (1u64 << 53) as f64
}

/// `n` small rects scattered uniformly over the 1000×1000 probe window.
fn uniform_rects(n: usize) -> Vec<Rect> {
    (0..n as u64)
        .map(|i| {
            let x = unit(1, i) * 950.0;
            let y = unit(2, i) * 950.0;
            let w = 5.0 + unit(3, i) * 30.0;
            let h = 5.0 + unit(4, i) * 30.0;
            Rect::new(x, y, x + w, y + h)
        })
        .collect()
}

/// `n` rects packed into four tight clusters (the LA-like access pattern:
/// most candidates share a neighborhood, many near-duplicates).
fn clustered_rects(n: usize) -> Vec<Rect> {
    let centers = [
        (200.0, 300.0),
        (700.0, 250.0),
        (450.0, 800.0),
        (850.0, 700.0),
    ];
    (0..n as u64)
        .map(|i| {
            let (cx, cy) = centers[(i % 4) as usize];
            let x = cx + (unit(5, i) - 0.5) * 120.0;
            let y = cy + (unit(6, i) - 0.5) * 120.0;
            let w = 4.0 + unit(7, i) * 20.0;
            let h = 4.0 + unit(8, i) * 20.0;
            Rect::new(x, y, x + w, y + h)
        })
        .collect()
}

/// Scalar per-rect sight tests vs the batched SoA lane kernel, on the
/// candidate-set sizes the grid actually hands the kernel (sparse cells,
/// typical windows, worst-case dense windows).
fn bench_sight(c: &mut Criterion) {
    let mut group = c.benchmark_group("sight_micro");
    let s = Segment::new(Point::new(10.0, 20.0), Point::new(980.0, 940.0));
    for (label, make) in [
        ("uniform", uniform_rects as fn(usize) -> Vec<Rect>),
        ("clustered", clustered_rects as fn(usize) -> Vec<Rect>),
    ] {
        for n in [4usize, 32, 256] {
            let rects = make(n);
            let lanes = RectLanes::from_rects(&rects);
            let ids: Vec<u32> = (0..n as u32).collect();
            group.bench_function(BenchmarkId::new(format!("scalar_{label}"), n), |b| {
                b.iter(|| black_box(rects.iter().filter(|r| r.blocks(black_box(&s))).count()))
            });
            let mut verdicts = Vec::with_capacity(n);
            group.bench_function(BenchmarkId::new(format!("batched_{label}"), n), |b| {
                b.iter(|| {
                    batch::blocks_each(black_box(&s), &lanes, &ids, &mut verdicts);
                    black_box(verdicts.iter().filter(|&&v| v).count())
                })
            });
        }
    }
    group.finish();
}

/// The three ways an adjacency-cache build can derive one pivot's candidate
/// visibility: per-candidate grid walks (`blocks`, the pre-sweep production
/// path), per-candidate batched SoA probes over the window's rect ids
/// (`blocks_among`), and the rotational plane-sweep (`sweep_visibility`,
/// one angular pass over rects + candidates). All three return identical
/// verdicts; this group locates the candidate-count crossover that
/// `conn_vgraph::sweep::AUTO_MIN_CANDIDATES` encodes — below it the sweep's
/// event sort costs more than the walks it saves.
fn bench_sweep(c: &mut Criterion) {
    use conn_vgraph::ObstacleGrid;
    let mut group = c.benchmark_group("sweep_micro");
    group.sample_size(20);
    let n_rects = 192usize;
    for (label, make) in [
        ("uniform", uniform_rects as fn(usize) -> Vec<Rect>),
        ("clustered", clustered_rects as fn(usize) -> Vec<Rect>),
    ] {
        let rects = make(n_rects);
        let mut grid = ObstacleGrid::new(50.0);
        let ids: Vec<u32> = rects.iter().map(|r| grid.insert(*r)).collect();
        let pivot = Point::new(500.0, 500.0);
        for k in [8usize, 64, 512] {
            let cands: Vec<Point> = (0..k as u64)
                .map(|i| Point::new(unit(11, i) * 1000.0, unit(12, i) * 1000.0))
                .collect();
            group.bench_function(BenchmarkId::new(format!("walk_{label}"), k), |b| {
                b.iter(|| {
                    black_box(
                        cands
                            .iter()
                            .filter(|c| grid.blocks(black_box(pivot), **c))
                            .count(),
                    )
                })
            });
            group.bench_function(BenchmarkId::new(format!("batched_{label}"), k), |b| {
                b.iter(|| {
                    black_box(
                        cands
                            .iter()
                            .filter(|c| grid.blocks_among(black_box(pivot), **c, &ids))
                            .count(),
                    )
                })
            });
            let mut vis = Vec::with_capacity(k);
            group.bench_function(BenchmarkId::new(format!("sweep_{label}"), k), |b| {
                b.iter(|| {
                    grid.sweep_visibility(black_box(pivot), &cands, &ids, &mut vis);
                    black_box(vis.iter().filter(|&&v| v).count())
                })
            });
        }
    }
    group.finish();
}

/// CSR adjacency arena vs the legacy per-node `Vec<(u32, f64)>` layout:
/// the same warm edge lists, consumed the way the Dijkstra settle loop
/// consumes them (scan every neighbor, fold the weights).
fn bench_neighbors(c: &mut Criterion) {
    let mut group = c.benchmark_group("adjacency_micro");
    group.sample_size(20);
    let obstacles = la_like(200, 5);
    let mut g = VisGraph::new(50.0);
    g.add_point(Point::new(0.0, 0.0), NodeKind::Endpoint);
    g.add_point(Point::new(9999.0, 9999.0), NodeKind::Endpoint);
    for r in &obstacles {
        g.add_obstacle(*r);
    }
    let n = g.num_nodes();
    // warm every base cache once, and snapshot the legacy layout from it
    let legacy: Vec<Vec<(u32, f64)>> = (0..n)
        .map(|u| g.neighbors(NodeId(u as u32)).to_vec())
        .collect();
    group.bench_function(BenchmarkId::new("csr_neighbors", n), |b| {
        b.iter(|| {
            let mut acc = 0.0f64;
            for u in 0..n {
                for &(_, w) in g.neighbors(NodeId(u as u32)) {
                    acc += w;
                }
            }
            black_box(acc)
        })
    });
    group.bench_function(BenchmarkId::new("legacy_neighbors", n), |b| {
        b.iter(|| {
            let mut acc = 0.0f64;
            for adj in &legacy {
                for &(_, w) in adj {
                    acc += w;
                }
            }
            black_box(acc)
        })
    });
    group.finish();
}

criterion_group!(
    benches,
    bench_rtree,
    bench_vgraph,
    bench_split,
    bench_sight,
    bench_sweep,
    bench_neighbors
);
criterion_main!(benches);
