//! Smoke test for the workspace surface: every public item re-exported by
//! `conn::prelude` is constructed or called at least once, so a missing or
//! renamed re-export breaks this file at compile time.

use conn::prelude::*;

/// A small scene: four stations around a wall, queried along a road.
fn scene() -> (Vec<DataPoint>, Vec<Rect>, Segment) {
    let points = vec![
        DataPoint::new(0, Point::new(100.0, 150.0)),
        DataPoint::new(1, Point::new(400.0, 120.0)),
        DataPoint::new(2, Point::new(700.0, 200.0)),
        DataPoint::new(3, Point::new(900.0, 80.0)),
    ];
    let obstacles = vec![
        Rect::new(250.0, 50.0, 330.0, 180.0),
        Rect::new(550.0, 20.0, 620.0, 140.0),
    ];
    let q = Segment::new(Point::new(0.0, 0.0), Point::new(1000.0, 0.0));
    (points, obstacles, q)
}

#[test]
fn every_prelude_item_is_usable() {
    let (points, obstacles, q) = scene();

    // Geometry primitives.
    let p = Point::new(1.0, 2.0);
    assert!(p.dist(Point::new(1.0, 2.0)) < 1e-12);
    let iv = Interval::new(0.25, 0.75);
    assert!((iv.len() - 0.5).abs() < 1e-12);
    assert!(q.len() > 999.0);
    assert!(obstacles[0].area() > 0.0);

    // Index construction via the facade re-exports.
    let data_tree = RStarTree::bulk_load(points.clone(), DEFAULT_PAGE_SIZE);
    let obs_tree = RStarTree::bulk_load(obstacles.clone(), DEFAULT_PAGE_SIZE);
    let cfg = ConnConfig::default();

    // The engine under the service: CONN / COkNN on two trees, reused.
    let mut engine = QueryEngine::new(cfg);
    let (conn_res, conn_stats): (CoknnResult, QueryStats) = engine.conn(&data_tree, &obs_tree, &q);
    assert!(!conn_res.entries().is_empty());
    assert!(conn_stats.npe >= 1);
    let (coknn_res, coknn_stats): (CoknnResult, QueryStats) =
        engine.coknn(&data_tree, &obs_tree, &q, 2);
    assert!(!coknn_res.segments().is_empty());
    let reuse: ReuseCounters = coknn_stats.reuse;
    assert_eq!(
        reuse.graph_reuses, 1,
        "the second query reuses the substrate"
    );

    // The typed front door: Scene → Query → ConnService → Response/Answer.
    let service = ConnService::new(Scene::new(points.clone(), obstacles.clone()));
    let query: Query = Query::conn(q).build().expect("valid query");
    let response: Response = service.execute(&query).expect("execution");
    let front_door: &CoknnResult = response.answer.as_conn().expect("conn answer");
    assert_eq!(front_door.segments().len(), conn_res.segments().len());
    let err: Error = Query::coknn(q, 0).build().unwrap_err();
    assert!(matches!(err, Error::InvalidQuery(_)));

    // Every other family rides the same handle, one at a time or batched.
    let traj = Trajectory::new(vec![
        Point::new(0.0, 0.0),
        Point::new(500.0, 10.0),
        Point::new(1000.0, 0.0),
    ]);
    let mix = [
        Query::onn(Point::new(500.0, 0.0), 1),
        Query::range(Point::new(500.0, 0.0), 400.0),
        Query::trajectory(traj, 1),
    ]
    .map(|b| b.build().expect("valid query"));
    let (responses, batch): (Vec<Response>, BatchStats) =
        service.execute_batch_threads(&mix, 0).expect("batch");
    assert_eq!(batch.queries, 3);
    assert_eq!(responses[0].answer.neighbors().expect("onn").len(), 1);
    let plan: &Answer = &responses[2].answer;
    assert!(!plan.as_trajectory().expect("plan").segments().is_empty());

    // Streaming sessions re-exported at the top level.
    let mut session = TrajectorySession::new(&data_tree, &obs_tree, Point::new(0.0, 0.0), 1, cfg);
    let leg = session
        .push_leg(Point::new(400.0, 20.0))
        .expect("valid leg");
    assert!(!leg.as_conn().expect("conn leg").segments().is_empty());
}

#[test]
fn facade_modules_are_reachable() {
    // The non-prelude facade surface: crate-level module re-exports.
    let rects = conn::datasets::la_like(30, 7);
    assert_eq!(rects.len(), 30);
    let pts = conn::datasets::uniform_points(20, 7, &rects);
    assert_eq!(pts.len(), 20);

    let g = conn::vgraph::VisGraph::new(100.0);
    assert_eq!(g.num_obstacles(), 0);

    let r = conn::geom::Rect::new(0.0, 0.0, 1.0, 1.0);
    assert!(conn::geom::approx_eq(r.area(), 1.0));
}
