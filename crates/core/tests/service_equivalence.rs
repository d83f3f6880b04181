//! Equivalence suite for the typed front door: [`ConnService::execute`]
//! and [`ConnService::execute_batch`] must answer **byte-identically** to
//! the corresponding free-function calls, for a random *mixed-family*
//! workload, on uniform and clustered scenes, under both kernels. The one
//! exception is odist/route, whose free functions are the whole-field
//! oracle rather than a wrapper over the service: those compare by value
//! (see `common`).
//!
//! This is the service-level analogue of `engine_equivalence`: a leaked
//! config override, a worker picking up stale workspace state from a
//! different family, or a family dispatched to the wrong internals would
//! all surface as a divergence somewhere in the sequence.

mod common;

use std::sync::Arc;

use common::{check_route, close};
use conn_core::{
    coknn_search, conn_search, obstructed_closest_pair, obstructed_distance,
    obstructed_edistance_join, obstructed_range_search, obstructed_rnn, obstructed_route,
    onn_search, trajectory_conn_search, Answer, ConnConfig, ConnService, DataPoint, Query,
    Response, Scene, Trajectory,
};
use conn_datasets::ObstacleLookup;
use conn_geom::{Point, Segment};
use conn_index::RStarTree;
use proptest::prelude::*;

/// One requested query: the family selector plus enough raw parameters to
/// instantiate any family (unused ones are ignored per family).
#[derive(Debug, Clone)]
struct Spec {
    family: usize,
    a: Point,
    b: Point,
    c: Point,
    k: usize,
    radius: f64,
}

const FAMILIES: usize = 10;

fn pt() -> impl Strategy<Value = Point> {
    (0.0..10_000.0f64, 0.0..10_000.0f64).prop_map(|(x, y)| Point::new(x, y))
}

fn spec() -> impl Strategy<Value = Spec> {
    (0..FAMILIES, pt(), pt(), pt(), 1..4usize, 50.0..1500.0f64).prop_map(
        |(family, a, b, c, k, radius)| Spec {
            family,
            a,
            b,
            c,
            k,
            radius,
        },
    )
}

/// Scene layout (uniform / clustered), sizes, seed, and the query mix.
type Scenario = (bool, usize, usize, u64, Vec<Spec>);

fn scenario() -> impl Strategy<Value = Scenario> {
    (
        any::<bool>(),
        6..18usize,
        10..40usize,
        0..1000u64,
        prop::collection::vec(spec(), 3..7),
    )
}

/// The second point set the join families run against.
fn other_set(seed: u64) -> Arc<RStarTree<DataPoint>> {
    let pts: Vec<DataPoint> = (0..5)
        .map(|i| {
            DataPoint::new(
                9000 + i,
                Point::new(
                    ((seed.wrapping_mul(37).wrapping_add(i as u64 * 977)) % 10_000) as f64,
                    ((seed.wrapping_mul(53).wrapping_add(i as u64 * 613)) % 10_000) as f64,
                ),
            )
        })
        .collect();
    Arc::new(RStarTree::bulk_load(pts, 4096))
}

fn build_query(s: &Spec, other: &Arc<RStarTree<DataPoint>>) -> Option<Query> {
    let q = (s.a.dist(s.b) > 1e-9).then(|| Segment::new(s.a, s.b));
    let built = match s.family {
        0 => Query::conn(q?),
        1 => Query::coknn(q?, s.k),
        2 => Query::onn(s.a, s.k),
        3 => Query::range(s.a, s.radius),
        4 => Query::rnn(s.a),
        5 => Query::odist(s.a, s.b),
        6 => Query::route(s.a, s.b),
        7 => Query::closest_pair(Arc::clone(other)),
        8 => {
            let route = Trajectory::try_new(vec![s.a, s.b, s.c]).ok()?;
            Query::trajectory(route, 1)
        }
        _ => Query::edistance_join(Arc::clone(other), s.radius),
    };
    built.build().ok()
}

fn ids(v: &[(DataPoint, f64)]) -> Vec<(u32, u64)> {
    v.iter().map(|(p, d)| (p.id, d.to_bits())).collect()
}

/// Asserts one service answer equals the corresponding free-function
/// answer, bit for bit.
fn assert_matches_free_fn(
    resp: &Response,
    query: &Query,
    scene: &Scene<'_>,
    obstacles: &[conn_geom::Rect],
    other: &Arc<RStarTree<DataPoint>>,
    cfg: &ConnConfig,
) -> Result<(), TestCaseError> {
    let dt = scene.data_tree();
    let ot = scene.obstacle_tree();
    match (resp.answer.family(), &resp.answer) {
        ("conn", Answer::Conn(got)) => {
            let Some(conn_core::QueryKind::Conn { q }) = Some(query.kind()) else {
                unreachable!()
            };
            let (want, _) = conn_search(dt, ot, q, cfg);
            prop_assert_eq!(got.entries().len(), want.entries().len());
            for (x, y) in got.entries().iter().zip(want.entries()) {
                prop_assert_eq!(x.point.map(|p| p.id), y.point.map(|p| p.id));
                prop_assert_eq!(x.interval.lo.to_bits(), y.interval.lo.to_bits());
                prop_assert_eq!(x.interval.hi.to_bits(), y.interval.hi.to_bits());
            }
        }
        ("coknn", Answer::Coknn(got)) => {
            let conn_core::QueryKind::Coknn { q, k } = query.kind() else {
                unreachable!()
            };
            let (want, _) = coknn_search(dt, ot, q, *k, cfg);
            prop_assert_eq!(got.entries().len(), want.entries().len());
            for (x, y) in got.entries().iter().zip(want.entries()) {
                prop_assert_eq!(x.interval.lo.to_bits(), y.interval.lo.to_bits());
                prop_assert_eq!(x.members.len(), y.members.len());
                for (mx, my) in x.members.iter().zip(&y.members) {
                    prop_assert_eq!(mx.point.id, my.point.id);
                    prop_assert_eq!(mx.cp.base.to_bits(), my.cp.base.to_bits());
                }
            }
        }
        ("onn", Answer::Onn(got)) => {
            let conn_core::QueryKind::Onn { s, k } = query.kind() else {
                unreachable!()
            };
            let (want, _) = onn_search(dt, ot, *s, *k, cfg);
            prop_assert_eq!(ids(got), ids(&want));
        }
        ("range", Answer::Range(got)) => {
            let conn_core::QueryKind::Range { s, radius } = query.kind() else {
                unreachable!()
            };
            let (want, _) = obstructed_range_search(dt, ot, *s, *radius, cfg);
            prop_assert_eq!(ids(got), ids(&want));
        }
        ("rnn", Answer::Rnn(got)) => {
            let conn_core::QueryKind::Rnn { s } = query.kind() else {
                unreachable!()
            };
            let (want, _) = obstructed_rnn(dt, ot, *s, cfg);
            prop_assert_eq!(ids(got), ids(&want));
        }
        ("odist", Answer::Odist(got)) => {
            let conn_core::QueryKind::Odist { a, b } = query.kind() else {
                unreachable!()
            };
            let want = obstructed_distance(obstacles, *a, *b);
            prop_assert!(close(*got, want), "odist {got} vs oracle {want}");
        }
        ("route", Answer::Route { dist, path }) => {
            let conn_core::QueryKind::Route { a, b } = query.kind() else {
                unreachable!()
            };
            let (want_d, _) = obstructed_route(obstacles, *a, *b);
            prop_assert!(close(*dist, want_d), "route {dist} vs oracle {want_d}");
            let lookup = ObstacleLookup::build(obstacles);
            if let Err(why) = check_route(&lookup, (*a, *b), *dist, path.as_deref()) {
                prop_assert!(false, "route {a}→{b}: {why}");
            }
        }
        ("closest_pair", Answer::ClosestPair(got)) => {
            let (want, _) = obstructed_closest_pair(dt, other, ot, cfg);
            prop_assert_eq!(
                got.map(|(a, b, d)| (a.id, b.id, d.to_bits())),
                want.map(|(a, b, d)| (a.id, b.id, d.to_bits()))
            );
        }
        ("edistance_join", Answer::EDistanceJoin(got)) => {
            let conn_core::QueryKind::EDistanceJoin { e, .. } = query.kind() else {
                unreachable!()
            };
            let (want, _) = obstructed_edistance_join(dt, other, ot, *e, cfg);
            prop_assert_eq!(
                got.iter()
                    .map(|(a, b, d)| (a.id, b.id, d.to_bits()))
                    .collect::<Vec<_>>(),
                want.iter()
                    .map(|(a, b, d)| (a.id, b.id, d.to_bits()))
                    .collect::<Vec<_>>()
            );
        }
        ("trajectory", Answer::Trajectory(got)) => {
            let conn_core::QueryKind::Trajectory { route, .. } = query.kind() else {
                unreachable!()
            };
            let (want, _) = trajectory_conn_search(dt, ot, route, cfg);
            prop_assert_eq!(got.segments().len(), want.segments().len());
            for (x, y) in got.segments().iter().zip(want.segments()) {
                prop_assert_eq!(x.0.map(|p| p.id), y.0.map(|p| p.id));
                prop_assert_eq!(x.1.lo.to_bits(), y.1.lo.to_bits());
                prop_assert_eq!(x.1.hi.to_bits(), y.1.hi.to_bits());
            }
        }
        (fam, ans) => prop_assert!(false, "family {fam} answered with {ans:?}"),
    }
    Ok(())
}

fn assert_same_answer(x: &Answer, y: &Answer) -> Result<(), TestCaseError> {
    // Debug formatting covers every field of every variant (f64 Debug is
    // lossless for distinct bit patterns except -0.0/NaN payloads, which
    // the kernels never produce in answers), so it is a faithful
    // byte-equality proxy across the whole enum.
    prop_assert_eq!(format!("{x:?}"), format!("{y:?}"));
    Ok(())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(6))]

    /// `execute` answers every family byte-identically to the free
    /// functions, and `execute_batch` answers byte-identically to
    /// `execute`, across scene layouts and kernels.
    #[test]
    fn service_matches_free_functions(scn in scenario(), threads in 1..4usize) {
        let (clustered, n_pts, n_obs, seed, specs) = scn;
        let scene = if clustered {
            Scene::clustered(n_pts, n_obs, seed)
        } else {
            Scene::uniform(n_pts, n_obs, seed)
        };
        let obstacles = scene.obstacles();
        let other = other_set(seed);
        let queries: Vec<Query> = specs
            .iter()
            .filter_map(|s| build_query(s, &other))
            .collect();

        for cfg in [ConnConfig::default(), ConnConfig::baseline_kernel()] {
            let service = ConnService::with_config(
                Scene::borrowing(scene.data_tree(), scene.obstacle_tree()),
                cfg,
            );
            let mut serial: Vec<Response> = Vec::with_capacity(queries.len());
            for q in &queries {
                let resp = service.execute(q).unwrap();
                assert_matches_free_fn(&resp, q, &scene, &obstacles, &other, &cfg)?;
                serial.push(resp);
            }
            let (batch, stats) = service.execute_batch_threads(&queries, threads).unwrap();
            prop_assert_eq!(batch.len(), queries.len());
            prop_assert_eq!(stats.queries, queries.len());
            for (b, s) in batch.iter().zip(&serial) {
                assert_same_answer(&b.answer, &s.answer)?;
            }
        }
    }
}
