//! Acceptance test of the unified `Scene`/`Query`/`ConnService` front
//! door: one **mixed-family** `execute_batch_threads` call covering all
//! seven families, with every answer checked bit-for-bit against `execute` and
//! against the family run directly on a fresh `QueryEngine`.

use conn::baseline::obstructed_distance;
use conn::datasets;
use conn::prelude::*;
use conn::QueryKind;

fn scene() -> Scene<'static> {
    let obstacles = datasets::la_like(60, 42);
    let points = DataPoint::from_points(&datasets::uniform_points(24, 43, &obstacles));
    Scene::new(points, obstacles)
}

/// The query answered without the service: a fresh engine, the family's
/// method called directly.
fn answer_on_fresh_engine(query: &Query, scene: &Scene<'_>) -> Answer {
    let (dt, ot) = (scene.data_tree(), scene.obstacle_tree());
    let mut engine = QueryEngine::default();
    match query.kind() {
        QueryKind::Conn { q } => Answer::Conn(engine.conn(dt, ot, q).0),
        QueryKind::Coknn { q, k } => Answer::Coknn(engine.coknn(dt, ot, q, *k).0),
        QueryKind::Onn { s, k } => Answer::Onn(engine.onn(dt, ot, *s, *k).0),
        QueryKind::Range { s, radius } => Answer::Range(engine.range(dt, ot, *s, *radius).0),
        QueryKind::Odist { a, b } => Answer::Odist(engine.obstructed_distance(ot, *a, *b).0),
        QueryKind::Route { a, b } => {
            let ((dist, path), _) = engine.obstructed_route(ot, *a, *b);
            Answer::Route { dist, path }
        }
        QueryKind::Trajectory { route, .. } => {
            let mut session =
                TrajectorySession::new(dt, ot, route.vertices()[0], 1, ConnConfig::default());
            for &v in &route.vertices()[1..] {
                session.push_leg(v).unwrap();
            }
            session.finish().unwrap().0
        }
        other => unreachable!("family {} is not in the mix", other.family()),
    }
}

/// The batch is held, bit for bit (`Debug` output covers every field of
/// every answer variant), to `execute` on the same service and to the
/// family's function called on a fresh engine. odist/route are also held,
/// by value, to the whole-field oracle, which shares no code with the
/// loader.
#[test]
fn mixed_family_batch_matches_free_functions() {
    let scene = scene();
    let service = ConnService::new(Scene::borrowing(scene.data_tree(), scene.obstacle_tree()));
    let obstacles = scene.obstacles();

    let q1 = Segment::new(Point::new(800.0, 700.0), Point::new(2300.0, 900.0));
    let q2 = Segment::new(Point::new(4000.0, 4100.0), Point::new(5200.0, 3600.0));
    let probe = Point::new(2500.0, 2500.0);
    let route = Trajectory::new(vec![
        Point::new(1000.0, 1000.0),
        Point::new(2200.0, 1300.0),
        Point::new(2400.0, 2600.0),
    ]);

    // all seven families in one batch
    let batch = vec![
        Query::conn(q1).build().unwrap(),
        Query::coknn(q2, 3).build().unwrap(),
        Query::range(probe, 900.0).build().unwrap(),
        Query::trajectory(route, 1).build().unwrap(),
        Query::onn(probe, 4).build().unwrap(),
        Query::odist(q1.a, q2.b).build().unwrap(),
        Query::route(q1.a, q2.b).build().unwrap(),
    ];

    let (responses, stats) = service.execute_batch_threads(&batch, 3).unwrap();
    assert_eq!(responses.len(), batch.len());
    assert_eq!(stats.queries, batch.len());
    assert!(stats.threads >= 1 && stats.threads <= 3);
    assert!(stats.pooled.reads() > 0, "batch must pool tree I/O");

    for (resp, query) in responses.iter().zip(&batch) {
        let family = query.kind().family();
        assert_eq!(resp.answer.family(), family);
        let batched = format!("{:?}", resp.answer);
        let executed = service.execute(query).unwrap();
        assert_eq!(batched, format!("{:?}", executed.answer), "{family}");
        let fresh = answer_on_fresh_engine(query, &scene);
        assert_eq!(batched, format!("{fresh:?}"), "{family}");

        if let QueryKind::Odist { a, b } | QueryKind::Route { a, b } = query.kind() {
            // by value, not bitwise: the oracle searches the whole field
            // blind, the service a loaded subset goal-directed, and two
            // equal-length paths may sum a few ULPs apart
            let got = resp.answer.distance().unwrap();
            let want = obstructed_distance(&obstacles, *a, *b);
            assert!(
                got == want || (got - want).abs() <= 1e-9 * want.max(1.0),
                "{family}: {got} vs {want}"
            );
        }
    }
}

#[test]
fn validation_errors_surface_before_execution() {
    let degenerate = Segment::new(Point::new(7.0, 7.0), Point::new(7.0, 7.0));
    let err = Query::conn(degenerate).build().unwrap_err();
    assert!(matches!(err, Error::InvalidQuery(_)));
    assert!(err.to_string().contains("degenerate"));
    assert!(
        Query::coknn(Segment::new(Point::new(0.0, 0.0), Point::new(1.0, 0.0)), 0)
            .build()
            .is_err()
    );
}

#[test]
fn service_owns_scene_and_sessions() {
    let service = ConnService::new(scene());
    // execute against the owned scene
    let resp = service
        .execute(
            &Query::conn(Segment::new(
                Point::new(500.0, 500.0),
                Point::new(1800.0, 700.0),
            ))
            .build()
            .unwrap(),
        )
        .unwrap();
    resp.answer.as_conn().unwrap().check_cover().unwrap();

    // a streaming session behind the same handle, pinned to its epoch
    let pin = service.pin();
    let mut session = pin.open_session(Point::new(1000.0, 1000.0), *service.config());
    let leg = session.push_leg(Point::new(2000.0, 1200.0)).unwrap();
    assert!(!leg.as_conn().unwrap().segments().is_empty());
    session.push_leg(Point::new(2100.0, 2400.0)).unwrap();
    let (plan, _) = session.finish().unwrap();
    plan.as_trajectory().unwrap().check_cover().unwrap();
}
