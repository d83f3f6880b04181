//! Acceptance test of the unified `Scene`/`Query`/`ConnService` front
//! door: one **mixed-family** `execute_batch` call covering (at least)
//! Conn, Coknn, Range, Rnn and Trajectory, with every answer checked
//! bit-for-bit against the corresponding legacy free function.

use std::sync::Arc;

use conn::datasets;
use conn::prelude::*;
use conn_core::{obstructed_closest_pair, QueryKind};

fn scene() -> Scene<'static> {
    let obstacles = datasets::la_like(60, 42);
    let points = DataPoint::from_points(&datasets::uniform_points(24, 43, &obstacles));
    Scene::new(points, obstacles)
}

fn other_set() -> Arc<RStarTree<DataPoint>> {
    let obstacles = datasets::la_like(60, 42);
    let pts: Vec<DataPoint> = datasets::uniform_points(6, 99, &obstacles)
        .iter()
        .enumerate()
        .map(|(i, p)| DataPoint::new(5000 + i as u32, *p))
        .collect();
    Arc::new(RStarTree::bulk_load(pts, DEFAULT_PAGE_SIZE))
}

#[test]
fn mixed_family_batch_matches_free_functions() {
    let scene = scene();
    let service = ConnService::new(Scene::borrowing(scene.data_tree(), scene.obstacle_tree()));
    let cfg = *service.config();
    let obstacles = scene.obstacles();
    let other = other_set();

    let q1 = Segment::new(Point::new(800.0, 700.0), Point::new(2300.0, 900.0));
    let q2 = Segment::new(Point::new(4000.0, 4100.0), Point::new(5200.0, 3600.0));
    let probe = Point::new(2500.0, 2500.0);
    let route = Trajectory::new(vec![
        Point::new(1000.0, 1000.0),
        Point::new(2200.0, 1300.0),
        Point::new(2400.0, 2600.0),
    ]);

    // the acceptance mix: Conn, Coknn, Range, Rnn, Trajectory — plus the
    // rest of the families riding along
    let batch = vec![
        Query::conn(q1).build().unwrap(),
        Query::coknn(q2, 3).build().unwrap(),
        Query::range(probe, 900.0).build().unwrap(),
        Query::rnn(probe).build().unwrap(),
        Query::trajectory(route.clone(), 1).build().unwrap(),
        Query::onn(probe, 4).build().unwrap(),
        Query::odist(q1.a, q2.b).build().unwrap(),
        Query::route(q1.a, q2.b).build().unwrap(),
        Query::closest_pair(Arc::clone(&other)).build().unwrap(),
    ];

    let (responses, stats) = service.execute_batch_threads(&batch, 3).unwrap();
    assert_eq!(responses.len(), batch.len());
    assert_eq!(stats.queries, batch.len());
    assert!(stats.threads >= 1 && stats.threads <= 3);
    assert!(stats.pooled.reads() > 0, "batch must pool tree I/O");

    let dt = scene.data_tree();
    let ot = scene.obstacle_tree();
    for (resp, query) in responses.iter().zip(&batch) {
        match (query.kind(), &resp.answer) {
            (QueryKind::Conn { q }, Answer::Conn(got)) => {
                let (want, _) = conn_search(dt, ot, q, &cfg);
                assert_eq!(got.entries().len(), want.entries().len());
                for (x, y) in got.entries().iter().zip(want.entries()) {
                    assert_eq!(x.point.map(|p| p.id), y.point.map(|p| p.id));
                    assert_eq!(x.interval.lo.to_bits(), y.interval.lo.to_bits());
                    assert_eq!(x.interval.hi.to_bits(), y.interval.hi.to_bits());
                }
            }
            (QueryKind::Coknn { q, k }, Answer::Coknn(got)) => {
                let (want, _) = coknn_search(dt, ot, q, *k, &cfg);
                assert_eq!(got.entries().len(), want.entries().len());
                for (x, y) in got.entries().iter().zip(want.entries()) {
                    assert_eq!(x.interval.lo.to_bits(), y.interval.lo.to_bits());
                    assert_eq!(x.members.len(), y.members.len());
                }
            }
            (QueryKind::Range { s, radius }, Answer::Range(got)) => {
                let (want, _) = obstructed_range_search(dt, ot, *s, *radius, &cfg);
                assert_eq!(
                    got.iter()
                        .map(|(p, d)| (p.id, d.to_bits()))
                        .collect::<Vec<_>>(),
                    want.iter()
                        .map(|(p, d)| (p.id, d.to_bits()))
                        .collect::<Vec<_>>()
                );
            }
            (QueryKind::Rnn { s }, Answer::Rnn(got)) => {
                let (want, _) = obstructed_rnn(dt, ot, *s, &cfg);
                assert_eq!(
                    got.iter()
                        .map(|(p, d)| (p.id, d.to_bits()))
                        .collect::<Vec<_>>(),
                    want.iter()
                        .map(|(p, d)| (p.id, d.to_bits()))
                        .collect::<Vec<_>>()
                );
            }
            (QueryKind::Trajectory { route, .. }, Answer::Trajectory(got)) => {
                let (want, _) = trajectory_conn_search(dt, ot, route, &cfg);
                got.check_cover().unwrap();
                assert_eq!(got.segments().len(), want.segments().len());
                for (x, y) in got.segments().iter().zip(want.segments()) {
                    assert_eq!(x.0.map(|p| p.id), y.0.map(|p| p.id));
                    assert_eq!(x.1.lo.to_bits(), y.1.lo.to_bits());
                    assert_eq!(x.1.hi.to_bits(), y.1.hi.to_bits());
                }
            }
            (QueryKind::Onn { s, k }, Answer::Onn(got)) => {
                let (want, _) = onn_search(dt, ot, *s, *k, &cfg);
                assert_eq!(
                    got.iter()
                        .map(|(p, d)| (p.id, d.to_bits()))
                        .collect::<Vec<_>>(),
                    want.iter()
                        .map(|(p, d)| (p.id, d.to_bits()))
                        .collect::<Vec<_>>()
                );
            }
            // by value, not bitwise: the free function is the whole-field
            // oracle, the service loads a subset goal-directed, and two
            // equal-length paths may sum a few ULPs apart
            (QueryKind::Odist { a, b }, Answer::Odist(got))
            | (QueryKind::Route { a, b }, Answer::Route { dist: got, .. }) => {
                let want = obstructed_distance(&obstacles, *a, *b);
                assert!(
                    *got == want || (got - want).abs() <= 1e-9 * want.max(1.0),
                    "{got} vs {want}"
                );
            }
            (QueryKind::ClosestPair { .. }, Answer::ClosestPair(got)) => {
                let (want, _) = obstructed_closest_pair(dt, &other, ot, &cfg);
                assert_eq!(
                    got.map(|(a, b, d)| (a.id, b.id, d.to_bits())),
                    want.map(|(a, b, d)| (a.id, b.id, d.to_bits()))
                );
            }
            (kind, answer) => panic!("mismatched family: {kind:?} answered {answer:?}"),
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
    let delta = session.push_leg(Point::new(2000.0, 1200.0));
    assert!(!delta.is_empty());
    session.push_leg(Point::new(2100.0, 2400.0));
    let (plan, _) = session.finish();
    plan.check_cover().unwrap();
}
