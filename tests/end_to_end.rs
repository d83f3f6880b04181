//! Whole-pipeline integration tests: datasets → R-trees → CONN/COkNN →
//! validation against brute force, plus the evaluation-level trends the
//! paper reports (cost grows with ql and k; |SVG| ≪ FULL; buffers cut
//! faults; 1T competitive with 2T).

use conn::baseline::brute_force_oknn;
use conn::datasets;
use conn::prelude::*;

/// One small CL-style world shared by several tests.
fn world(seed: u64, n_obs: usize, n_pts: usize) -> (Vec<DataPoint>, Vec<Rect>) {
    let obstacles = datasets::la_like(n_obs, seed);
    let raw = datasets::ca_like(n_pts, seed, &obstacles);
    (DataPoint::from_points(&raw), obstacles)
}

#[test]
fn generated_workload_answers_match_brute_force() {
    let (points, obstacles) = world(31, 250, 120);
    let queries = datasets::query_segments(4, 0.05, 99, &obstacles);
    let dt = RStarTree::bulk_load(points.clone(), DEFAULT_PAGE_SIZE);
    let ot = RStarTree::bulk_load(obstacles.clone(), DEFAULT_PAGE_SIZE);
    for q in &queries {
        let (res, stats) = QueryEngine::default().coknn(&dt, &ot, q, 3);
        res.check_cover().unwrap();
        assert!(stats.npe >= 3);
        for i in 0..=10 {
            let t = q.len() * (i as f64) / 10.0;
            let want = brute_force_oknn(&points, &obstacles, q.at(t), 3);
            let got = res.knn_at(t);
            assert_eq!(got.len(), want.len().min(3), "t = {t}");
            for ((_, gd), (_, wd)) in got.iter().zip(&want) {
                assert!((gd - wd).abs() < 1e-6, "t = {t}: {gd} vs {wd}");
            }
        }
    }
}

#[test]
fn cost_grows_with_query_length() {
    let (points, obstacles) = world(7, 400, 200);
    let dt = RStarTree::bulk_load(points, DEFAULT_PAGE_SIZE);
    let ot = RStarTree::bulk_load(obstacles.clone(), DEFAULT_PAGE_SIZE);
    let cfg = ConnConfig::default();
    let mut costs = Vec::new();
    for ql in [0.02, 0.08] {
        let queries = datasets::query_segments(6, ql, 5, &obstacles);
        let mut noe = 0u64;
        let mut npe = 0u64;
        for q in &queries {
            let (_, s) = QueryEngine::new(cfg).coknn(&dt, &ot, q, 5);
            noe += s.noe;
            npe += s.npe;
        }
        costs.push((noe, npe));
    }
    assert!(costs[1].0 > costs[0].0, "NOE must grow with ql: {costs:?}");
    assert!(
        costs[1].1 >= costs[0].1,
        "NPE must not shrink with ql: {costs:?}"
    );
}

#[test]
fn cost_grows_with_k() {
    let (points, obstacles) = world(17, 400, 200);
    let dt = RStarTree::bulk_load(points, DEFAULT_PAGE_SIZE);
    let ot = RStarTree::bulk_load(obstacles.clone(), DEFAULT_PAGE_SIZE);
    let q = datasets::query_segment(0.05, 3, &obstacles);
    let cfg = ConnConfig::default();
    let (_, s1) = QueryEngine::new(cfg).coknn(&dt, &ot, &q, 1);
    let (_, s9) = QueryEngine::new(cfg).coknn(&dt, &ot, &q, 9);
    assert!(s9.npe >= s1.npe, "{} vs {}", s9.npe, s1.npe);
    assert!(s9.noe >= s1.noe);
    assert!(s9.svg_nodes >= s1.svg_nodes);
}

#[test]
fn local_graph_is_much_smaller_than_full() {
    let (points, obstacles) = world(23, 600, 300);
    let full = 4 * obstacles.len() as u64;
    let dt = RStarTree::bulk_load(points, DEFAULT_PAGE_SIZE);
    let ot = RStarTree::bulk_load(obstacles.clone(), DEFAULT_PAGE_SIZE);
    let q = datasets::query_segment(0.045, 8, &obstacles);
    let (_, stats) = QueryEngine::default().coknn(&dt, &ot, &q, 5);
    assert!(
        stats.svg_nodes * 3 < full,
        "|SVG| = {} vs FULL = {full}: local graph not local",
        stats.svg_nodes
    );
}

#[test]
fn buffer_only_affects_faults() {
    // trees must span enough pages that a 32 % buffer holds whole levels
    let (points, obstacles) = world(3, 3000, 1500);
    let dt = RStarTree::bulk_load(points, DEFAULT_PAGE_SIZE);
    let ot = RStarTree::bulk_load(obstacles.clone(), DEFAULT_PAGE_SIZE);
    let queries = datasets::query_segments(6, 0.045, 77, &obstacles);
    let cfg = ConnConfig::default();

    // the buffers are the engine's: one engine runs the whole workload
    let mut engine = QueryEngine::new(cfg);
    let mut run = |frac: f64| -> (u64, u64) {
        engine.set_buffer_frac(frac, &dt, Some(&ot));
        engine.clear_buffers();
        let mut reads = 0;
        let mut faults = 0;
        for q in &queries {
            let (_, s) = engine.coknn(&dt, &ot, q, 5);
            reads += s.reads();
            faults += s.faults();
        }
        (reads, faults)
    };
    let (reads0, faults0) = run(0.0);
    let (reads32, faults32) = run(0.32);
    assert_eq!(reads0, reads32, "logical reads must not depend on buffer");
    assert!(
        faults32 < faults0,
        "buffer must cut faults: {faults32} vs {faults0}"
    );
}

#[test]
fn one_tree_variant_agrees_on_random_workload() {
    let (points, obstacles) = world(41, 300, 150);
    let dt = RStarTree::bulk_load(points.clone(), DEFAULT_PAGE_SIZE);
    let ot = RStarTree::bulk_load(obstacles.clone(), DEFAULT_PAGE_SIZE);
    let ut = conn::build_unified_tree(&points, &obstacles, DEFAULT_PAGE_SIZE);
    let cfg = ConnConfig::default();
    for q in datasets::query_segments(4, 0.04, 55, &obstacles) {
        let (two, _) = QueryEngine::new(cfg).coknn(&dt, &ot, &q, 5);
        let (one, _) = QueryEngine::new(cfg).coknn_single_tree(&ut, &q, 5);
        for i in 0..=12 {
            let t = q.len() * (i as f64) / 12.0;
            let (a, b) = (two.knn_at(t), one.knn_at(t));
            assert_eq!(a.len(), b.len(), "t = {t}");
            for (x, y) in a.iter().zip(&b) {
                assert!((x.1 - y.1).abs() < 1e-6, "t = {t}");
            }
        }
    }
}

#[test]
fn obstructed_distances_dominate_euclidean_everywhere() {
    let (points, obstacles) = world(59, 350, 150);
    let dt = RStarTree::bulk_load(points, DEFAULT_PAGE_SIZE);
    let ot = RStarTree::bulk_load(obstacles.clone(), DEFAULT_PAGE_SIZE);
    let q = datasets::query_segment(0.05, 8, &obstacles);
    let (res, _) = QueryEngine::default().conn(&dt, &ot, &q);
    for i in 0..=50 {
        let t = q.len() * (i as f64) / 50.0;
        if let Some((p, d)) = res.nn_at(t) {
            assert!(d + 1e-9 >= p.pos.dist(q.at(t)), "t = {t}");
        }
    }
}

#[test]
fn split_point_count_is_modest_and_result_well_formed() {
    let (points, obstacles) = world(67, 300, 400);
    let dt = RStarTree::bulk_load(points, DEFAULT_PAGE_SIZE);
    let ot = RStarTree::bulk_load(obstacles.clone(), DEFAULT_PAGE_SIZE);
    let q = datasets::query_segment(0.06, 9, &obstacles);
    let (res, stats) = QueryEngine::default().conn(&dt, &ot, &q);
    res.check_cover().unwrap();
    let segs = res.segments();
    // answers change only at split points; neighboring tuples differ
    for w in segs.windows(2) {
        assert_ne!(
            w[0].0.map(|p| p.id),
            w[1].0.map(|p| p.id),
            "unmerged neighbors"
        );
    }
    // each evaluated point's piecewise-hyperbolic function can win several
    // disjoint stretches, but the answer count stays linear in NPE
    assert!(
        segs.len() as u64 <= 4 * stats.npe + 2,
        "answer fragmentation: {} segments from {} points",
        segs.len(),
        stats.npe
    );
    assert_eq!(res.split_points().len() + 1, segs.len());
}
