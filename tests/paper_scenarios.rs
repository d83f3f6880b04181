//! Scenario tests transcribing the paper's worked figures: the Figure 1
//! CNN-vs-CONN contrast, the Figure 3 control-point structure, and the
//! Figure 2 visibility-graph path.

use conn::baseline::brute_force_oknn;
use conn::prelude::*;
use conn::vgraph::{DijkstraEngine, NodeKind, VisGraph};

/// Figure 2: multiple paths exist in the visibility graph; Dijkstra picks
/// the shortest and it bends only at obstacle corners.
#[test]
fn figure2_visibility_graph_shortest_path() {
    let obstacles = [
        Rect::new(150.0, 100.0, 260.0, 190.0), // o1
        Rect::new(320.0, 60.0, 430.0, 150.0),  // o2
    ];
    let ps = Point::new(80.0, 60.0);
    let pe = Point::new(500.0, 200.0);
    let mut g = VisGraph::new(60.0);
    let s = g.add_point(ps, NodeKind::DataPoint);
    let e = g.add_point(pe, NodeKind::DataPoint);
    for r in &obstacles {
        g.add_obstacle(*r);
    }
    let mut d = DijkstraEngine::new(&g, s);
    let dist = d.run_until_settled(&mut g, e);
    assert!(dist.is_finite());
    assert!(dist > ps.dist(pe), "straight line is blocked");
    let path = d.path_to(e);
    assert!(path.len() >= 3, "path must bend at least once");
    // interior path vertices are obstacle corners
    for n in &path[1..path.len() - 1] {
        let p = g.node_pos(*n);
        assert!(
            obstacles
                .iter()
                .flat_map(|r| r.corners())
                .any(|c| c.dist(p) < 1e-9),
            "bend at non-corner {p}"
        );
    }
    // and the polyline length equals the reported distance
    let mut total = 0.0;
    for w in path.windows(2) {
        total += g.node_pos(w[0]).dist(g.node_pos(w[1]));
    }
    assert!((total - dist).abs() < 1e-9);
}

/// Figure 3's structure: a data point `p` whose view of the middle of `q`
/// is blocked; the control point list opens with `p` itself, hands over to
/// obstacle corners in the shadow, and returns to `p`.
#[test]
fn figure3_control_point_handover() {
    let q = Segment::new(Point::new(0.0, 0.0), Point::new(100.0, 0.0));
    let points = vec![DataPoint::new(0, Point::new(50.0, 60.0))];
    let obstacles = vec![Rect::new(40.0, 20.0, 60.0, 40.0)];
    let dt = RStarTree::bulk_load(points.clone(), DEFAULT_PAGE_SIZE);
    let ot = RStarTree::bulk_load(obstacles.clone(), DEFAULT_PAGE_SIZE);
    let (res, _) = QueryEngine::default().conn(&dt, &ot, &q);
    res.check_cover().unwrap();

    // ends are directly visible: obstructed == euclidean there
    for t in [0.0, 100.0] {
        let (_, d) = res.nn_at(t).unwrap();
        assert!((d - points[0].pos.dist(q.at(t))).abs() < 1e-9, "t = {t}");
    }
    // the shadowed middle routes via a corner: strictly longer, and equal to
    // the brute-force shortest path
    let (_, d_mid) = res.nn_at(50.0).unwrap();
    assert!(d_mid > points[0].pos.dist(q.at(50.0)) + 1.0);
    let want = brute_force_oknn(&points, &obstacles, q.at(50.0), 1)[0].1;
    assert!((d_mid - want).abs() < 1e-6);

    // the result holds multiple control-point tuples for the single answer
    // point (the ⟨p, cp, R⟩ decomposition of §3) …
    assert!(res.entries().len() >= 3, "{:?}", res.entries());
    // … but the user-facing answer is one tuple: p owns the whole segment
    assert_eq!(res.segments().len(), 1);
}

/// Figure 1(b): with obstacles, both the split positions and the answer
/// objects differ from the Euclidean CNN result.
#[test]
fn figure1_cnn_vs_conn() {
    let stations = vec![
        DataPoint::new(0, Point::new(60.0, 155.0)),
        DataPoint::new(1, Point::new(340.0, 150.0)),
        DataPoint::new(2, Point::new(860.0, 170.0)),
        DataPoint::new(3, Point::new(120.0, 95.0)),
        DataPoint::new(4, Point::new(540.0, 260.0)),
        DataPoint::new(5, Point::new(620.0, 120.0)),
    ];
    let obstacles = vec![
        Rect::new(40.0, 40.0, 200.0, 80.0),
        Rect::new(280.0, 60.0, 420.0, 100.0),
        Rect::new(500.0, 150.0, 580.0, 210.0),
        Rect::new(700.0, 40.0, 800.0, 120.0),
    ];
    let q = Segment::new(Point::new(0.0, 0.0), Point::new(1000.0, 0.0));
    let st = RStarTree::bulk_load(stations.clone(), DEFAULT_PAGE_SIZE);
    let ot = RStarTree::bulk_load(obstacles.clone(), DEFAULT_PAGE_SIZE);
    let empty: RStarTree<Rect> = RStarTree::bulk_load(vec![], DEFAULT_PAGE_SIZE);
    let cfg = ConnConfig::default();

    let (cnn, _) = QueryEngine::new(cfg).conn(&st, &empty, &q);
    let (conn, _) = QueryEngine::new(cfg).conn(&st, &ot, &q);

    // answer flips at S: Euclidean winner is station 3, obstructed winner 0
    assert_eq!(cnn.nn_at(0.0).unwrap().0.id, 3);
    assert_eq!(conn.nn_at(0.0).unwrap().0.id, 0);

    // split points differ
    let cnn_splits = cnn.split_points();
    let conn_splits = conn.split_points();
    assert_ne!(cnn_splits.len(), conn_splits.len());

    // CONN distances dominate CNN distances pointwise
    for i in 0..=40 {
        let t = q.len() * (i as f64) / 40.0;
        let (_, d_cnn) = cnn.nn_at(t).unwrap();
        let (_, d_conn) = conn.nn_at(t).unwrap();
        assert!(d_conn + 1e-9 >= d_cnn, "t = {t}");
    }
}

/// Running example of §4.3 (Figure 8 shape): three points, staggered
/// obstacles; verify winners at hand-picked probes via brute force.
#[test]
fn figure8_three_point_interaction() {
    let points = vec![
        DataPoint::new(0, Point::new(15.0, 45.0)), // a
        DataPoint::new(1, Point::new(50.0, 35.0)), // b
        DataPoint::new(2, Point::new(85.0, 50.0)), // c
    ];
    let obstacles = vec![
        Rect::new(8.0, 18.0, 28.0, 26.0),  // o1 under a
        Rect::new(42.0, 15.0, 58.0, 22.0), // o2 under b
        Rect::new(78.0, 20.0, 95.0, 28.0), // o3 under c
    ];
    let q = Segment::new(Point::new(0.0, 0.0), Point::new(100.0, 0.0));
    let dt = RStarTree::bulk_load(points.clone(), DEFAULT_PAGE_SIZE);
    let ot = RStarTree::bulk_load(obstacles.clone(), DEFAULT_PAGE_SIZE);
    let (res, stats) = QueryEngine::default().conn(&dt, &ot, &q);
    res.check_cover().unwrap();
    assert_eq!(stats.npe, 3, "all three points interact");
    for i in 0..=20 {
        let t = q.len() * (i as f64) / 20.0;
        let want = brute_force_oknn(&points, &obstacles, q.at(t), 1)[0];
        let (got_p, got_d) = res.nn_at(t).unwrap();
        assert!((got_d - want.1).abs() < 1e-6, "t = {t}");
        if (got_d - want.1).abs() < 1e-9 && got_p.id != want.0.id {
            continue; // tie
        }
        assert_eq!(got_p.id, want.0.id, "t = {t}");
    }
}
