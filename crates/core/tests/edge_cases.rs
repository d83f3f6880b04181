//! Failure injection and degenerate-geometry tests: points on obstacle
//! boundaries, queries grazing walls, duplicates, ties, extreme k, and
//! pathological layouts.

use conn_core::baseline::brute_force_oknn;
use conn_core::{DataPoint, QueryEngine};
use conn_geom::{Point, Rect, Segment};
use conn_index::RStarTree;

fn q_h() -> Segment {
    Segment::new(Point::new(0.0, 0.0), Point::new(100.0, 0.0))
}

fn run(
    points: Vec<DataPoint>,
    obstacles: Vec<Rect>,
    q: &Segment,
    k: usize,
) -> (conn_core::CoknnResult, conn_core::QueryStats) {
    let dt = RStarTree::bulk_load(points, 4096);
    let ot = RStarTree::bulk_load(obstacles, 4096);
    QueryEngine::default().coknn(&dt, &ot, q, k)
}

#[test]
fn data_point_on_obstacle_corner() {
    // the paper allows points on obstacle boundaries
    let obstacles = vec![Rect::new(40.0, 10.0, 60.0, 30.0)];
    let points = vec![
        DataPoint::new(0, Point::new(40.0, 10.0)), // exactly a corner
        DataPoint::new(1, Point::new(60.0, 30.0)), // opposite corner
    ];
    let (res, _) = run(points.clone(), obstacles.clone(), &q_h(), 1);
    res.check_cover().unwrap();
    for i in 0..=20 {
        let t = 100.0 * (i as f64) / 20.0;
        let want = brute_force_oknn(&points, &obstacles, q_h().at(t), 1)[0].1;
        let got = res.knn_at(t)[0].1;
        assert!((got - want).abs() < 1e-6, "t = {t}: {got} vs {want}");
    }
}

#[test]
fn data_point_on_obstacle_edge() {
    let obstacles = vec![Rect::new(40.0, 10.0, 60.0, 30.0)];
    let points = vec![DataPoint::new(0, Point::new(50.0, 30.0))]; // top wall
    let (res, _) = run(points.clone(), obstacles.clone(), &q_h(), 1);
    res.check_cover().unwrap();
    // directly below, the path must round the box (the wall blocks)
    let got = res.knn_at(50.0)[0].1;
    let want = brute_force_oknn(&points, &obstacles, q_h().at(50.0), 1)[0].1;
    assert!((got - want).abs() < 1e-6);
    assert!(got > 30.0 + 1.0, "must detour, got {got}");
}

#[test]
fn query_sliding_along_a_wall() {
    // q runs exactly along the top edge of a long obstacle: touching is
    // not blocking, so everything stays visible from above
    let obstacles = vec![Rect::new(10.0, -20.0, 90.0, 0.0)];
    let points = vec![
        DataPoint::new(0, Point::new(30.0, 40.0)),
        DataPoint::new(1, Point::new(70.0, 25.0)),
    ];
    let (res, _) = run(points.clone(), obstacles, &q_h(), 1);
    res.check_cover().unwrap();
    for i in 0..=10 {
        let t = 100.0 * (i as f64) / 10.0;
        let (p, d) = res.knn_at(t)[0];
        // distances are plain euclidean: the obstacle is below the query
        assert!((d - p.pos.dist(q_h().at(t))).abs() < 1e-6, "t = {t}");
    }
}

#[test]
fn duplicate_points_tie_cleanly() {
    let points = vec![
        DataPoint::new(0, Point::new(50.0, 20.0)),
        DataPoint::new(1, Point::new(50.0, 20.0)), // exact duplicate
        DataPoint::new(2, Point::new(10.0, 60.0)),
    ];
    let (res, _) = run(points, vec![], &q_h(), 2);
    res.check_cover().unwrap();
    let ans = res.knn_at(50.0);
    assert_eq!(ans.len(), 2);
    // the two duplicates share the same distance
    assert!((ans[0].1 - ans[1].1).abs() < 1e-9);
    assert_eq!(ans[0].1, 20.0);
}

#[test]
fn k_exceeding_cardinality_returns_everything() {
    let points = vec![
        DataPoint::new(0, Point::new(10.0, 10.0)),
        DataPoint::new(1, Point::new(90.0, 10.0)),
    ];
    let (res, stats) = run(points, vec![], &q_h(), 7);
    res.check_cover().unwrap();
    assert_eq!(res.knn_at(50.0).len(), 2);
    assert_eq!(stats.npe, 2, "everything must be evaluated");
}

#[test]
fn very_short_query_segment() {
    let q = Segment::new(Point::new(50.0, 0.0), Point::new(50.1, 0.0));
    let points = vec![
        DataPoint::new(0, Point::new(40.0, 10.0)),
        DataPoint::new(1, Point::new(60.0, 10.0)),
    ];
    let dt = RStarTree::bulk_load(points, 4096);
    let ot: RStarTree<Rect> = RStarTree::bulk_load(vec![], 4096);
    let (res, _) = QueryEngine::default().conn(&dt, &ot, &q);
    res.check_cover().unwrap();
    assert!(res.nn_at(0.05).is_some());
}

#[test]
fn point_coincident_with_query_endpoint() {
    let points = vec![DataPoint::new(0, Point::new(0.0, 0.0))]; // == S
    let (res, _) = run(points, vec![], &q_h(), 1);
    res.check_cover().unwrap();
    let (p, d) = res.knn_at(0.0)[0];
    assert_eq!(p.id, 0);
    assert!(d < 1e-9);
    assert!((res.knn_at(100.0)[0].1 - 100.0).abs() < 1e-9);
}

#[test]
fn dense_obstacle_corridor() {
    // a comb of walls perpendicular to q: each data point only reachable
    // through its slot
    let mut obstacles = Vec::new();
    for i in 0..9 {
        let x = 10.0 + i as f64 * 10.0;
        obstacles.push(Rect::new(x - 1.0, 5.0, x + 1.0, 50.0));
    }
    let points = vec![
        DataPoint::new(0, Point::new(15.0, 60.0)),
        DataPoint::new(1, Point::new(55.0, 60.0)),
        DataPoint::new(2, Point::new(95.0, 60.0)),
    ];
    let (res, _) = run(points.clone(), obstacles.clone(), &q_h(), 1);
    res.check_cover().unwrap();
    for i in 0..=20 {
        let t = 100.0 * (i as f64) / 20.0;
        let want = brute_force_oknn(&points, &obstacles, q_h().at(t), 1)[0].1;
        let got = res.knn_at(t)[0].1;
        assert!((got - want).abs() < 1e-6, "t = {t}: {got} vs {want}");
    }
}

#[test]
fn all_points_behind_one_wall() {
    // every data point shares the same wall: control points concentrate on
    // the wall's two free corners
    let wall = Rect::new(20.0, 10.0, 80.0, 20.0);
    let points = vec![
        DataPoint::new(0, Point::new(30.0, 40.0)),
        DataPoint::new(1, Point::new(50.0, 35.0)),
        DataPoint::new(2, Point::new(70.0, 45.0)),
    ];
    let (res, _) = run(points.clone(), vec![wall], &q_h(), 1);
    res.check_cover().unwrap();
    for i in 0..=20 {
        let t = 100.0 * (i as f64) / 20.0;
        let want = brute_force_oknn(&points, &[wall], q_h().at(t), 1)[0].1;
        let got = res.knn_at(t)[0].1;
        assert!((got - want).abs() < 1e-6, "t = {t}");
    }
}

#[test]
fn onn_at_point_on_wall() {
    let wall = Rect::new(20.0, 10.0, 80.0, 20.0);
    let points = vec![
        DataPoint::new(0, Point::new(50.0, 40.0)),
        DataPoint::new(1, Point::new(50.0, -10.0)),
    ];
    let dt = RStarTree::bulk_load(points.clone(), 4096);
    let ot = RStarTree::bulk_load(vec![wall], 4096);
    // query location exactly on the wall's bottom edge
    let s = Point::new(50.0, 10.0);
    let (got, _) = QueryEngine::default().onn(&dt, &ot, s, 2);
    let want = brute_force_oknn(&points, &[wall], s, 2);
    assert_eq!(got.len(), want.len());
    for ((_, gd), (_, wd)) in got.iter().zip(&want) {
        assert!((gd - wd).abs() < 1e-6);
    }
}

#[test]
fn collinear_points_and_query() {
    // all points exactly on the query line
    let points = vec![
        DataPoint::new(0, Point::new(20.0, 0.0)),
        DataPoint::new(1, Point::new(50.0, 0.0)),
        DataPoint::new(2, Point::new(80.0, 0.0)),
    ];
    let (res, _) = run(points, vec![], &q_h(), 1);
    res.check_cover().unwrap();
    assert_eq!(res.knn_at(10.0)[0].0.id, 0);
    assert_eq!(res.knn_at(50.0)[0].0.id, 1);
    assert_eq!(res.knn_at(90.0)[0].0.id, 2);
    // split points at the midpoints 35 and 65
    let (_, d) = res.knn_at(35.0)[0];
    assert!((d - 15.0).abs() < 1e-6);
}

#[test]
fn obstacle_touching_query_endpoint() {
    // obstacle corner exactly at E
    let obstacles = vec![Rect::new(100.0, 0.0, 120.0, 20.0)];
    let points = vec![DataPoint::new(0, Point::new(110.0, 30.0))];
    let (res, _) = run(points.clone(), obstacles.clone(), &q_h(), 1);
    res.check_cover().unwrap();
    let got = res.knn_at(100.0)[0].1;
    let want = brute_force_oknn(&points, &obstacles, Point::new(100.0, 0.0), 1)[0].1;
    assert!((got - want).abs() < 1e-6);
}

/// Unreachable targets answer at the first load level that disconnects
/// them — obstacles only block, so `∞` over a loaded subset is final —
/// instead of loading the whole obstacle tree to be sure. A walled
/// courtyard stands in a cleared plaza inside a 10 000-obstacle field;
/// odist into it, ONN whose Euclidean-nearest candidate is enclosed, and a
/// range whose radius reaches the enclosed point all answer correctly
/// after loading a vanishing share of the field.
#[test]
fn unreachable_targets_load_a_sliver_of_the_field() {
    use conn_core::{ConnService, Query, Scene};

    let plaza = Rect::new(4800.0, 4800.0, 5200.0, 5200.0);
    let walls = [
        Rect::new(4980.0, 4980.0, 5020.0, 4985.0),
        Rect::new(4980.0, 5015.0, 5020.0, 5020.0),
        Rect::new(4980.0, 4980.0, 4985.0, 5020.0),
        Rect::new(5015.0, 4980.0, 5020.0, 5020.0),
    ];
    let mut field: Vec<Rect> = conn_datasets::la_like(10_100, 14)
        .into_iter()
        .filter(|r| !r.intersects(&plaza))
        .collect();
    assert!(field.len() >= 10_000, "field too thin: {}", field.len());
    field.extend(walls);
    let budget = field.len() as u64 / 100;

    let enclosed = DataPoint::new(0, Point::new(5000.0, 5000.0));
    let west = Point::new(4950.0, 5000.0);
    let mut points = vec![enclosed, DataPoint::new(1, Point::new(4890.0, 5000.0))];
    points.extend(
        conn_datasets::uniform_points(200, 15, &field)
            .into_iter()
            .filter(|p| !plaza.contains(*p))
            .enumerate()
            .map(|(i, p)| DataPoint::new(10 + i as u32, p)),
    );
    let service = ConnService::new(Scene::new(points, field));

    // odist into the courtyard
    let resp = service
        .execute(&Query::odist(west, enclosed.pos).build().unwrap())
        .unwrap();
    assert!(resp.answer.distance().unwrap().is_infinite());
    assert!(resp.stats.noe < budget, "odist loaded {}", resp.stats.noe);

    // ONN: the enclosed point is Euclidean-nearest (50 < 60) and unreachable
    let resp = service
        .execute(&Query::onn(west, 1).build().unwrap())
        .unwrap();
    let nn = resp.answer.neighbors().unwrap();
    assert_eq!((nn[0].0.id, nn[0].1), (1, 60.0));
    assert!(resp.stats.noe < budget, "onn loaded {}", resp.stats.noe);

    // range: the enclosed point is within the Euclidean radius, yet absent
    let resp = service
        .execute(&Query::range(west, 70.0).build().unwrap())
        .unwrap();
    let within: Vec<(u32, f64)> = resp
        .answer
        .neighbors()
        .unwrap()
        .iter()
        .map(|(p, d)| (p.id, *d))
        .collect();
    assert_eq!(within, vec![(1, 60.0)]);
    assert!(resp.stats.noe < budget, "range loaded {}", resp.stats.noe);
}

/// A segment through an obstacle's interior leaves a stretch no data point
/// can reach. It must not hold Lemma 2's bound at ∞ — which would evaluate
/// every data point and leave every control-point search unbounded — yet
/// the answer must stay exact everywhere else. Two queries on the largest
/// obstacle of a 300-obstacle field: one through it along its long axis
/// (CONN and COkNN at k = 3), one starting at its centre.
#[test]
fn a_segment_through_an_obstacle_evaluates_a_few_points() {
    let obstacles = conn_datasets::la_like(300, 21);
    let points: Vec<DataPoint> = conn_datasets::uniform_points(1_000, 22, &obstacles)
        .into_iter()
        .enumerate()
        .map(|(i, p)| DataPoint::new(i as u32, p))
        .collect();
    let area = |r: &Rect| (r.max_x - r.min_x) * (r.max_y - r.min_y);
    let o = *obstacles
        .iter()
        .max_by(|a, b| area(a).total_cmp(&area(b)))
        .unwrap();
    let c = Point::new((o.min_x + o.max_x) / 2.0, (o.min_y + o.max_y) / 2.0);
    let (w, h) = (o.max_x - o.min_x, o.max_y - o.min_y);
    // from the centre out past either end of the long axis
    let half = if w >= h {
        Point::new(w / 2.0 + 150.0, 0.0)
    } else {
        Point::new(0.0, h / 2.0 + 150.0)
    };
    let (through, from_centre) = (Segment::new(c - half, c + half), Segment::new(c, c + half));
    let dt = RStarTree::bulk_load(points.clone(), 4096);
    let ot = RStarTree::bulk_load(obstacles.clone(), 4096);
    let mut engine = QueryEngine::default();
    for q in [through, from_centre] {
        let (conn, conn_stats) = engine.conn(&dt, &ot, &q);
        let (knn, knn_stats) = engine.coknn(&dt, &ot, &q, 3);
        for stats in [conn_stats, knn_stats] {
            assert!(
                stats.npe as usize * 20 <= points.len(),
                "{q:?}: NPE {} of {}",
                stats.npe,
                points.len()
            );
        }
        conn.check_cover().unwrap();
        knn.check_cover().unwrap();
        for i in 0..=14 {
            let t = q.len() * f64::from(i) / 14.0;
            let at = q.at(t);
            let want = brute_force_oknn(&points, &obstacles, at, 3);
            if o.strictly_contains(at) {
                assert!(want.is_empty());
                assert!(
                    conn.knn_at(t).is_empty() && knn.knn_at(t).is_empty(),
                    "t = {t}"
                );
                continue;
            }
            for (got, k) in [(conn.knn_at(t), 1), (knn.knn_at(t), 3)] {
                assert_eq!(got.len(), want.len().min(k), "t = {t}, k = {k}");
                for ((_, gd), (_, wd)) in got.iter().zip(&want) {
                    assert!((gd - wd).abs() < 1e-6, "t = {t}, k = {k}: {gd} vs {wd}");
                }
            }
        }
    }
}

/// A segment that starts inside an obstacle, where the refinement loop
/// after CPLC is what keeps the answer exact. IOR loads the obstacles
/// within the data points' distances to `q`'s endpoints; the path from
/// point 0 to the middle of `q` is longer than both and bends around an
/// obstacle IOR never loaded. Without the loop, COkNN at k = 2 answers
/// 811.854 at t ≈ 30.09 where the true second distance is 812.823.
#[test]
fn a_crossing_segment_reloads_obstacles_past_its_endpoint_bounds() {
    let points: Vec<DataPoint> = [
        (700.5988798368013, 691.5321141032399),
        (1.5269465858824827, 210.3451164007385),
        (513.2464782558365, 957.8747823048373),
    ]
    .into_iter()
    .enumerate()
    .map(|(i, (x, y))| DataPoint::new(i as u32, Point::new(x, y)))
    .collect();
    let obstacles = vec![
        Rect::new(
            367.8794367457009,
            542.0604156277159,
            432.00046831010667,
            587.0205766169067,
        ),
        Rect::new(
            683.8848707186885,
            369.49679711098037,
            755.955471350426,
            389.03359937018615,
        ),
        Rect::new(
            468.5249216043312,
            513.4528169663705,
            565.563108502426,
            604.4997835938914,
        ),
        Rect::new(
            122.16297376195551,
            35.04741390827426,
            211.64425771043057,
            84.08052908088891,
        ),
        Rect::new(
            386.49591740038534,
            240.4072280145193,
            414.6305823518681,
            299.7987911364519,
        ),
        Rect::new(
            235.79148004254057,
            558.8155136044761,
            341.81778193066305,
            609.5344516524432,
        ),
    ];
    let q = Segment::new(
        Point::new(174.6701794341624, 59.07821347087827),
        Point::new(92.80390080121836, 210.26506964271596),
    );
    assert!(obstacles[3].strictly_contains(q.a));
    for k in [1, 2] {
        let (res, _) = run(points.clone(), obstacles.clone(), &q, k);
        res.check_cover().unwrap();
        for i in 0..=40 {
            let t = q.len() * f64::from(i) / 40.0;
            let want = brute_force_oknn(&points, &obstacles, q.at(t), k);
            let got = res.knn_at(t);
            assert_eq!(got.len(), want.len().min(k), "t = {t}, k = {k}");
            for ((_, gd), (_, wd)) in got.iter().zip(&want) {
                assert!((gd - wd).abs() < 1e-6, "t = {t}, k = {k}: {gd} vs {wd}");
            }
        }
    }
}
