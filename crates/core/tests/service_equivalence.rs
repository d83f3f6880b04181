//! Equivalence suite for the typed front door, for a random *mixed-family*
//! workload over all seven families (trajectories with k = 1 and k = 2), on
//! uniform and clustered scenes, under both kernels:
//!
//! * [`ConnService::execute`] on a warm pool engine (which has served other
//!   families before) must answer **byte-identically** to a fresh
//!   [`QueryEngine`] driven directly for that one query (a trajectory: a
//!   session pushed through its vertices — `execute` runs its legs on
//!   several workers, the session runs them in order on one engine);
//! * [`ConnService::execute_batch_threads`] must answer byte-identically to
//!   `execute`;
//! * the served kernel must answer like a [`ConnConfig::baseline_kernel`]
//!   service, by value (equal-length paths may settle in different order);
//! * odist/route must agree by value with the whole-field oracle of
//!   `baseline`, which shares no code with the obstacle loader (see
//!   `common`).
//!
//! This is the service-level analogue of `engine_equivalence`: a worker
//! picking up stale workspace state from a different family, a family
//! dispatched to the wrong internals, or a kernel mode leaking between
//! services would all surface as a divergence somewhere in the sequence.

mod common;
mod fixtures;

use common::{check_route, close};
use conn_core::baseline::obstructed_route;
use conn_core::{
    answers_equivalent, Answer, ConnConfig, ConnService, DataPoint, Query, QueryEngine, QueryKind,
    Response, Scene, Trajectory, TrajectorySession,
};
use conn_datasets::ObstacleLookup;
use conn_geom::{Point, Segment};
use fixtures::paper_scene;
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

const FAMILIES: usize = 8;

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

fn build_query(s: &Spec) -> Option<Query> {
    let q = (s.a.dist(s.b) > 1e-9).then(|| Segment::new(s.a, s.b));
    let built = match s.family {
        0 => Query::conn(q?),
        1 => Query::coknn(q?, s.k),
        2 => Query::onn(s.a, s.k),
        3 => Query::range(s.a, s.radius),
        4 => Query::odist(s.a, s.b),
        5 => Query::route(s.a, s.b),
        6 => {
            let route = Trajectory::try_new(vec![s.a, s.b, s.c]).ok()?;
            Query::trajectory(route, 1)
        }
        _ => {
            // three legs around the triangle a → b → c → a
            let route = Trajectory::try_new(vec![s.a, s.b, s.c, s.a]).ok()?;
            Query::trajectory(route, 2)
        }
    };
    built.build().ok()
}

/// The query answered the way a one-shot caller would: a fresh engine,
/// the family's method called directly — no service, no pool, no dispatch.
fn answer_on_fresh_engine(query: &Query, scene: &Scene<'_>, cfg: ConnConfig) -> Answer {
    let (dt, ot) = (scene.data_tree(), scene.obstacle_tree());
    let mut engine = QueryEngine::new(cfg);
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
        QueryKind::Trajectory { route, k } => {
            let mut session = TrajectorySession::new(dt, ot, route.vertices()[0], *k, cfg);
            for &v in &route.vertices()[1..] {
                session.push_leg(v).unwrap();
            }
            session.finish().unwrap().0
        }
        other => unreachable!("family {} is not generated here", other.family()),
    }
}

/// odist/route against the whole-field oracle, by value.
fn assert_matches_oracle(
    resp: &Response,
    query: &Query,
    obstacles: &[conn_geom::Rect],
) -> Result<(), TestCaseError> {
    let (QueryKind::Odist { a, b } | QueryKind::Route { a, b }) = query.kind() else {
        return Ok(());
    };
    let (want, _) = obstructed_route(obstacles, *a, *b);
    let got = resp.answer.distance().expect("odist/route answer");
    prop_assert!(close(got, want), "{a}→{b}: {got} vs oracle {want}");
    if let Answer::Route { dist, path } = &resp.answer {
        let lookup = ObstacleLookup::build(obstacles);
        if let Err(why) = check_route(&lookup, (*a, *b), *dist, path.as_deref()) {
            prop_assert!(false, "route {a}→{b}: {why}");
        }
    }
    Ok(())
}

/// `(id, distance)` lists of two kernels: same distances, and the same
/// points except where two candidates tie.
fn assert_neighbors_equivalent(
    x: &[(DataPoint, f64)],
    y: &[(DataPoint, f64)],
) -> Result<(), TestCaseError> {
    prop_assert_eq!(x.len(), y.len());
    for (i, ((px, dx), (py, dy))) in x.iter().zip(y).enumerate() {
        prop_assert!(close(*dx, *dy), "{dx} vs {dy}");
        let tied = |v: &[(DataPoint, f64)]| {
            v.iter()
                .enumerate()
                .any(|(j, (_, d))| j != i && close(*d, *dx))
        };
        prop_assert!(px.id == py.id || tied(x) || tied(y), "{px:?} vs {py:?}");
    }
    Ok(())
}

/// Two kNN answers over one polyline of length `len`: the same kNN
/// distances at each point of a 33-step grid.
fn assert_knn_equivalent(
    len: f64,
    x: impl Fn(f64) -> Vec<(DataPoint, f64)>,
    y: impl Fn(f64) -> Vec<(DataPoint, f64)>,
) -> Result<(), TestCaseError> {
    for i in 0..=32 {
        let t = len * f64::from(i) / 32.0;
        let (kx, ky) = (x(t), y(t));
        prop_assert_eq!(kx.len(), ky.len(), "t = {}", t);
        for ((_, dx), (_, dy)) in kx.iter().zip(&ky) {
            prop_assert!((dx - dy).abs() <= 1e-6, "t = {t}: {dx} vs {dy}");
        }
    }
    Ok(())
}

/// The served kernel's answer against the reference kernel's, by value.
fn assert_kernels_equivalent(served: &Answer, reference: &Answer) -> Result<(), TestCaseError> {
    match (served, reference) {
        (Answer::Conn(_), Answer::Conn(_)) => {
            prop_assert!(answers_equivalent(served, reference, 1e-6))
        }
        (Answer::Coknn(x), Answer::Coknn(y)) => {
            assert_knn_equivalent(x.query().len(), |t| x.knn_at(t), |t| y.knn_at(t))?
        }
        (Answer::Onn(x), Answer::Onn(y)) | (Answer::Range(x), Answer::Range(y)) => {
            assert_neighbors_equivalent(x, y)?
        }
        (Answer::Odist(x), Answer::Odist(y)) => prop_assert!(close(*x, *y), "{x} vs {y}"),
        (Answer::Route { dist: x, .. }, Answer::Route { dist: y, .. }) => {
            prop_assert!(close(*x, *y), "{x} vs {y}")
        }
        (Answer::Trajectory(x), Answer::Trajectory(y)) => {
            // identities agree except within float drift of a split point,
            // where the adjacent answers tie by continuity
            let near_split = |t: f64| {
                x.segments()
                    .iter()
                    .chain(&y.segments())
                    .any(|(_, iv)| (t - iv.lo).abs() < 1e-6 || (t - iv.hi).abs() < 1e-6)
            };
            let len = x.trajectory().len();
            for i in 0..=64 {
                let t = len * f64::from(i) / 64.0;
                let same = x.nn_at(t).map(|p| p.0.id) == y.nn_at(t).map(|p| p.0.id);
                prop_assert!(same || near_split(t), "t = {t}");
            }
            assert_knn_equivalent(len, |t| x.knn_at(t), |t| y.knn_at(t))?
        }
        (x, y) => prop_assert!(false, "{} answered beside {}", x.family(), y.family()),
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

    /// `execute` answers every family byte-identically to the family's
    /// function called on a fresh `QueryEngine`, `execute_batch_threads`
    /// byte-identically to `execute`, the two kernels agree by value, and
    /// odist/route agree with the whole-field oracle, across scene layouts.
    #[test]
    fn service_matches_free_functions(scn in scenario(), threads in 1..4usize) {
        let (clustered, n_pts, n_obs, seed, specs) = scn;
        let scene = paper_scene(n_pts, n_obs, seed, clustered);
        let obstacles = scene.obstacles();
        let queries: Vec<Query> = specs.iter().filter_map(build_query).collect();

        let mut per_kernel: Vec<Vec<Response>> = Vec::new();
        for cfg in [ConnConfig::default(), ConnConfig::baseline_kernel()] {
            let service = ConnService::with_config(
                Scene::borrowing(scene.data_tree(), scene.obstacle_tree()),
                cfg,
            );
            let mut serial: Vec<Response> = Vec::with_capacity(queries.len());
            for q in &queries {
                let resp = service.execute(q).unwrap();
                assert_same_answer(&resp.answer, &answer_on_fresh_engine(q, &scene, cfg))?;
                assert_matches_oracle(&resp, q, &obstacles)?;
                serial.push(resp);
            }
            let (batch, stats) = service.execute_batch_threads(&queries, threads).unwrap();
            prop_assert_eq!(batch.len(), queries.len());
            prop_assert_eq!(stats.queries, queries.len());
            for (b, s) in batch.iter().zip(&serial) {
                assert_same_answer(&b.answer, &s.answer)?;
            }
            per_kernel.push(serial);
        }
        for (served, reference) in per_kernel[0].iter().zip(&per_kernel[1]) {
            assert_kernels_equivalent(&served.answer, &reference.answer)?;
        }
    }
}
