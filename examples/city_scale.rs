//! City-scale run on the paper's synthetic workload: LA-like street
//! obstacles, CA-like clustered facilities, paper-default query parameters
//! (`ql = 4.5 %`, `k = 5`), comparing the two-tree and single-tree layouts
//! (paper §4.5 / Figure 13).
//!
//! ```text
//! cargo run --release --example city_scale [n_obstacles]
//! ```

use conn::datasets;
use conn::prelude::*;

fn main() {
    let n_obstacles: usize = std::env::args()
        .nth(1)
        .and_then(|s| s.parse().ok())
        .unwrap_or(2000);
    let n_points = n_obstacles / 2; // the sweet spot |P|/|O| ≈ 0.5 of Fig. 11

    eprintln!("generating {n_obstacles} street obstacles and {n_points} facilities …");
    let obstacles = datasets::la_like(n_obstacles, 42);
    let points_raw = datasets::ca_like(n_points, 42, &obstacles);
    let points = DataPoint::from_points(&points_raw);
    let queries = datasets::query_segments(5, datasets::DEFAULT_QL, 7, &obstacles);

    // The single-tree layout has no `Query` kind: it runs on a `QueryEngine`
    // directly, beside the service that answers the two-tree layout.
    let unified_tree = conn::build_unified_tree(&points, &obstacles, DEFAULT_PAGE_SIZE);
    let service = ConnService::new(Scene::new(points, obstacles));
    let mut engine = QueryEngine::default();
    let k = datasets::DEFAULT_K;

    println!(
        "{:<8} {:>10} {:>10} {:>8} {:>8} {:>8} {:>10}",
        "layout", "total(s)", "cpu(s)", "faults", "NPE", "NOE", "|SVG|"
    );
    for (qi, q) in queries.iter().enumerate() {
        let query = Query::coknn(*q, k).build().expect("valid query");
        let two = service.execute(&query).expect("2T query");
        let (res2, s2) = (two.answer.as_coknn().expect("coknn answer"), two.stats);
        let (res1, s1) = engine.coknn_single_tree(&unified_tree, q, k);
        res2.check_cover().expect("2T cover");
        res1.check_cover().expect("1T cover");
        println!(
            "q{qi} 2T   {:>10.3} {:>10.3} {:>8} {:>8} {:>8} {:>10}",
            s2.total_seconds(),
            s2.cpu.as_secs_f64(),
            s2.faults(),
            s2.npe,
            s2.noe,
            s2.svg_nodes
        );
        println!(
            "q{qi} 1T   {:>10.3} {:>10.3} {:>8} {:>8} {:>8} {:>10}",
            s1.total_seconds(),
            s1.cpu.as_secs_f64(),
            s1.faults(),
            s1.npe,
            s1.noe,
            s1.svg_nodes
        );
        // the two layouts must agree on the answers
        for i in 0..=10 {
            let t = q.len() * (i as f64) / 10.0;
            let (a, b) = (res2.knn_at(t), res1.knn_at(t));
            assert_eq!(a.len(), b.len(), "layout mismatch at t={t}");
            for (x, y) in a.iter().zip(&b) {
                assert!((x.1 - y.1).abs() < 1e-6, "distance mismatch at t={t}");
            }
        }
    }
    println!("\nboth layouts returned identical answers on all probes ✓");
}
