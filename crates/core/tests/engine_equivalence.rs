//! Equivalence suite for the reusable query engine: one `QueryEngine`
//! answering a random *sequence* of CONN / COkNN / odist queries must
//! produce byte-identical results to fresh per-query state (a new engine
//! per query). Guards against stale-scratch bugs — a leaked interval,
//! a surviving obstacle, an unreset Dijkstra label would all surface as a
//! divergence somewhere in the sequence.
//!
//! The point-anchored families get their obstacles from the tree-driven
//! loader (`conn_core::odist`); one property holds them against the
//! whole-field oracle (`conn_core::baseline`), interleaved with CONN on the
//! same engine.

mod common;
mod fixtures;

use common::{check_route, close};
use conn_core::baseline::brute_force_oknn;
use conn_core::{
    answers_equivalent, Answer, CoknnResult, ConnConfig, ConnService, ControlPoint, DataPoint,
    Query, QueryEngine, QueryStats, Scene, Trajectory,
};
use conn_datasets::{la_like, uniform_points, ObstacleLookup};
use conn_geom::{Point, Rect, Segment};
use conn_index::RStarTree;
use conn_vgraph::{DijkstraEngine, Goal, NodeKind, Prep, VisGraph};
use fixtures::paper_scene;
use proptest::prelude::*;

fn pt() -> impl Strategy<Value = Point> {
    (0.0..1000.0f64, 0.0..1000.0f64).prop_map(|(x, y)| Point::new(x, y))
}

/// Disjoint rectangles (overlapping candidates are dropped while building).
fn rects() -> impl Strategy<Value = Vec<Rect>> {
    prop::collection::vec((pt(), 5.0..80.0f64, 5.0..80.0f64), 0..10).prop_map(|specs| {
        let mut out: Vec<Rect> = Vec::new();
        for (p, w, h) in specs {
            let r = Rect::new(p.x, p.y, p.x + w, p.y + h);
            if !out.iter().any(|o| o.intersects(&r)) {
                out.push(r);
            }
        }
        out
    })
}

fn points(obstacles: Vec<Rect>) -> impl Strategy<Value = (Vec<Rect>, Vec<DataPoint>)> {
    prop::collection::vec(pt(), 1..14).prop_map(move |raw| {
        let ps = raw
            .iter()
            .enumerate()
            .filter(|(_, p)| !obstacles.iter().any(|r| r.strictly_contains(**p)))
            .map(|(i, p)| DataPoint::new(i as u32, *p))
            .collect();
        (obstacles.clone(), ps)
    })
}

/// A random query sequence: each element is a segment plus the query kind
/// (k = 0 encodes a CONN query, k ≥ 1 a COkNN query with that k).
fn query_seq() -> impl Strategy<Value = Vec<(Point, Point, usize)>> {
    prop::collection::vec((pt(), pt(), 0..4usize), 1..8)
}

/// Obstacle field, data points, and a query sequence (`k = 0` ⇒ CONN).
type Scenario = (Vec<Rect>, Vec<DataPoint>, Vec<(Point, Point, usize)>);

fn scenario() -> impl Strategy<Value = Scenario> {
    rects()
        .prop_flat_map(points)
        .prop_flat_map(|(obstacles, ps)| {
            query_seq().prop_map(move |qs| (obstacles.clone(), ps.clone(), qs.clone()))
        })
}

/// A query endpoint of the loader property: a free-standing point, or a
/// place on the boundary of the free-space model, relative to obstacle
/// `i mod n` of the world it is resolved against.
#[derive(Debug, Clone, Copy)]
enum Probe {
    Free(Point),
    /// Strictly inside the obstacle.
    Inside(usize),
    /// The midpoint of its bottom edge.
    OnEdge(usize),
    /// Its top-right corner.
    OnCorner(usize),
}

impl Probe {
    fn resolve(self, obstacles: &[Rect]) -> Point {
        let rect = |i: usize| obstacles.get(i % obstacles.len().max(1)).copied();
        match self {
            Probe::Free(p) => p,
            Probe::Inside(i) => rect(i).map_or(Point::new(0.0, 0.0), |r| r.center()),
            Probe::OnEdge(i) => rect(i).map_or(Point::new(1.0, 0.0), |r| {
                Point::new(0.5 * (r.min_x + r.max_x), r.min_y)
            }),
            Probe::OnCorner(i) => {
                rect(i).map_or(Point::new(0.0, 1.0), |r| Point::new(r.max_x, r.max_y))
            }
        }
    }
}

fn probe() -> impl Strategy<Value = Probe> {
    (0..6usize, pt(), 0..64usize).prop_map(|(which, p, i)| match which {
        0 => Probe::Inside(i),
        1 => Probe::OnEdge(i),
        2 => Probe::OnCorner(i),
        _ => Probe::Free(p),
    })
}

/// A paper-style uniform or clustered scene, scaled down from the dataset
/// generators' space into `pt()`'s square.
fn paper_world(
    clustered: bool,
    n_pts: usize,
    n_obs: usize,
    seed: u64,
) -> (Vec<DataPoint>, Vec<Rect>) {
    let scene = paper_scene(n_pts, n_obs, seed, clustered);
    let ps = scene
        .data_tree()
        .iter_items()
        .map(|p| DataPoint::new(p.id, Point::new(p.pos.x / 10.0, p.pos.y / 10.0)))
        .collect();
    let obstacles = scene
        .obstacles()
        .iter()
        .map(|r| {
            Rect::new(
                r.min_x / 10.0,
                r.min_y / 10.0,
                r.max_x / 10.0,
                r.max_y / 10.0,
            )
        })
        .collect();
    (ps, obstacles)
}

/// A handful of rectangles chained so that each touches the previous one
/// along an edge (`overlap < 0.5`) or is pushed into it.
fn chained_world(
    origin: Point,
    specs: &[(f64, f64, usize, f64)],
    raw: &[Point],
) -> (Vec<DataPoint>, Vec<Rect>) {
    let mut obstacles: Vec<Rect> = Vec::new();
    for &(w, h, side, overlap) in specs {
        let r = match obstacles.last() {
            None => Rect::new(origin.x, origin.y, origin.x + w, origin.y + h),
            Some(prev) => {
                let push = if overlap < 0.5 {
                    0.0
                } else {
                    overlap * w.min(h) * 0.5
                };
                let (x, y) = match side {
                    0 => (prev.max_x - push, prev.min_y),
                    1 => (prev.min_x, prev.max_y - push),
                    2 => (prev.min_x - w + push, prev.min_y),
                    _ => (prev.min_x, prev.min_y - h + push),
                };
                Rect::new(x, y, x + w, y + h)
            }
        };
        obstacles.push(r);
    }
    let ps = raw
        .iter()
        .enumerate()
        .map(|(i, p)| DataPoint::new(i as u32, *p))
        .collect();
    (ps, obstacles)
}

/// The worlds of the loader property: uniform, clustered or chained.
fn oracle_world() -> impl Strategy<Value = (Vec<DataPoint>, Vec<Rect>)> {
    (
        0..3usize,
        (6..18usize, 10..40usize, 0..1000u64),
        pt(),
        prop::collection::vec(
            (10.0..120.0f64, 10.0..120.0f64, 0..4usize, 0.0..1.0f64),
            2..7,
        ),
        prop::collection::vec(pt(), 1..14),
    )
        .prop_map(|(which, (n_pts, n_obs, seed), origin, specs, raw)| {
            if which < 2 {
                paper_world(which == 1, n_pts, n_obs, seed)
            } else {
                chained_world(origin, &specs, &raw)
            }
        })
}

fn assert_coknn_identical(fresh: &CoknnResult, reused: &CoknnResult) -> Result<(), TestCaseError> {
    prop_assert_eq!(fresh.entries().len(), reused.entries().len());
    for (a, b) in fresh.entries().iter().zip(reused.entries()) {
        prop_assert_eq!(a.interval.lo.to_bits(), b.interval.lo.to_bits());
        prop_assert_eq!(a.interval.hi.to_bits(), b.interval.hi.to_bits());
        prop_assert_eq!(a.members.len(), b.members.len());
        for (ma, mb) in a.members.iter().zip(&b.members) {
            prop_assert_eq!(ma.point.id, mb.point.id);
            prop_assert_eq!(ma.cp.pos.x.to_bits(), mb.cp.pos.x.to_bits());
            prop_assert_eq!(ma.cp.pos.y.to_bits(), mb.cp.pos.y.to_bits());
            prop_assert_eq!(ma.cp.base.to_bits(), mb.cp.base.to_bits());
        }
    }
    Ok(())
}

/// Visibility graph over the scenario's obstacle field and data points,
/// with `src` as an endpoint node (kernel-level equivalence harness).
fn graph_from(obstacles: &[Rect], ps: &[DataPoint], src: Point) -> (VisGraph, conn_vgraph::NodeId) {
    let mut g = VisGraph::new(50.0);
    let s = g.add_point(src, NodeKind::Endpoint);
    for p in ps {
        g.add_point(p.pos, NodeKind::DataPoint);
    }
    for r in obstacles {
        g.add_obstacle(*r);
    }
    (g, s)
}

/// One row of [`fixed_scene_answers_and_work_counts`]: the answer's words
/// hash (FNV-1a) to the committed `digest`, the paper's counters
/// `(NPE, NOE, |SVG|)` and the page reads `(data, obstacle)` equal the
/// committed `paper` and `reads`, and the query's `(sight tests, sweep
/// events)` stayed at or under the committed `ceiling`.
fn assert_pinned(
    what: &str,
    answer: impl IntoIterator<Item = u64>,
    stats: &QueryStats,
    digest: u64,
    paper: (u64, u64, u64),
    reads: (u64, u64),
    ceiling: (u64, u64),
) {
    let got = answer.into_iter().fold(0xcbf2_9ce4_8422_2325_u64, |h, w| {
        (h ^ w).wrapping_mul(0x0100_0000_01b3)
    });
    let counted = (stats.npe, stats.noe, stats.svg_nodes);
    let paged = (stats.data_io.reads, stats.obstacle_io.reads);
    let work = (stats.reuse.sight_tests, stats.reuse.sweep_events);
    assert_eq!(
        got, digest,
        "{what}: digest {got:#018x}, (NPE, NOE, |SVG|) {counted:?}, reads {paged:?}, work {work:?}"
    );
    assert_eq!(
        counted, paper,
        "{what}: (NPE, NOE, |SVG|) moved, reads {paged:?}, work {work:?}"
    );
    assert_eq!(
        paged, reads,
        "{what}: page reads (data, obstacle) moved, work {work:?}"
    );
    assert!(
        work.0 <= ceiling.0 && work.1 <= ceiling.1,
        "{what}: (sight tests, sweep events) {work:?} over the ceiling {ceiling:?}"
    );
}

/// The tier-1 count gate (ROADMAP item 1d): on one fixed seeded scene — the
/// ledger's world at its smoke scale — one CONN, one COkNN, one range, one
/// odist whose path bends around several obstacles, one ONN (k = 5) and one
/// 3-leg trajectory answer bit for bit what they answered when this was
/// committed, evaluate
/// exactly the data points (NPE), load exactly the obstacles (NOE), hold
/// exactly the graph nodes (|SVG|) and read exactly the data and obstacle
/// pages they did then, and build their adjacency
/// with no more sight tests and sweep events than the committed ceilings
/// (5 % above the bitangent kernel's counts, noted beside each; a sight test
/// is one rectangle actually tested, row repair's re-tests included). All seven
/// counts are deterministic. The odist and ONN rows run the obstacle
/// loader's load–search rounds, and a round that loaded obstacles starts
/// its search cold on the grown graph. Rows tangent only where a path *leaves* a
/// corner cost 1.3–1.6× the sight tests here (and sweep, where these rows
/// stay under the sweep threshold), complete rows 1.4–1.5× those again, so
/// a change that re-admits either kind of edge fails tier-1, not only the
/// ledger. The trajectory's NPE and NOE are also the exact sums over its
/// legs run as lone CONN queries: a session is a leg loop.
#[test]
fn fixed_scene_answers_and_work_counts() {
    // coordinates snapped to 1/8 so the committed digests do not hang on
    // the last bit of the generators' `powf`
    let snap = |v: f64| (v * 8.0).round() / 8.0;
    let obstacles: Vec<Rect> = la_like(2054, 2009)
        .iter()
        .map(|r| Rect::new(snap(r.min_x), snap(r.min_y), snap(r.max_x), snap(r.max_y)))
        .collect();
    let ps: Vec<Point> = uniform_points(2054, 2010, &obstacles)
        .iter()
        .map(|p| Point::new(snap(p.x), snap(p.y)))
        .filter(|p| !obstacles.iter().any(|r| r.strictly_contains(*p)))
        .collect();
    let data_tree = RStarTree::bulk_load(DataPoint::from_points(&ps), 4096);
    let obstacle_tree = RStarTree::bulk_load(obstacles.clone(), 4096);
    // the paper's default query length, on the first free horizontal
    let q = (0..100)
        .map(|i| 5000.0 + 8.0 * f64::from(i))
        .map(|y| Segment::new(Point::new(4000.0, y), Point::new(4450.0, y)))
        .find(|q| !obstacles.iter().any(|r| r.blocks(q)))
        .expect("a free query segment");
    let cp = |c: &ControlPoint| [c.pos.x.to_bits(), c.pos.y.to_bits(), c.base.to_bits()];
    let span = |i: &conn_geom::Interval| [i.lo.to_bits(), i.hi.to_bits()];
    let mut engine = QueryEngine::default();

    let (conn, stats) = engine.conn(&data_tree, &obstacle_tree, &q);
    let words = conn.entries().iter().flat_map(|e| {
        let nn = e.members.first();
        let id = nn.map_or(u64::MAX, |m| u64::from(m.point.id));
        let at = nn.map_or([0; 3], |m| cp(&m.cp));
        [id].into_iter().chain(span(&e.interval)).chain(at)
    });
    // 4 121 sight tests, no sweep events
    assert_pinned(
        "conn",
        words,
        &stats,
        0x2d59_5660_a67b_791f,
        (8, 25, 102),
        (3, 3),
        (4_327, 0),
    );

    let (coknn, stats) = engine.coknn(&data_tree, &obstacle_tree, &q, 3);
    let words = coknn.entries().iter().flat_map(|e| {
        let members = e.members.iter();
        let members = members.flat_map(|m| [u64::from(m.point.id)].into_iter().chain(cp(&m.cp)));
        span(&e.interval).into_iter().chain(members)
    });
    // 12 812 sight tests, 139 sweep events
    assert_pinned(
        "coknn",
        words,
        &stats,
        0xfdc4_fb3b_9ff4_cead,
        (12, 42, 170),
        (3, 3),
        (13_452, 145),
    );

    let (range, stats) = engine.range(&data_tree, &obstacle_tree, q.a, 480.0);
    let words = range
        .iter()
        .flat_map(|(p, d)| [u64::from(p.id), d.to_bits()]);
    // 1 465 sight tests, no sweep events
    assert_pinned(
        "range",
        words,
        &stats,
        0x5b19_30e9_13dc_905e,
        (18, 22, 89),
        (3, 3),
        (1_538, 0),
    );

    // an odist whose shortest path bends around several obstacles: the
    // loader certifies it over more than one load–search round
    let b = Point::new(q.b.x + 300.0, q.b.y + 600.0);
    let ((d, path), stats) = engine.obstructed_route(&obstacle_tree, q.a, b);
    let path = path.expect("b is reachable");
    let mut around: Vec<usize> = path
        .iter()
        .filter_map(|v| obstacles.iter().position(|r| r.corners().contains(v)))
        .collect();
    around.sort_unstable();
    around.dedup();
    assert!(around.len() >= 2, "the path bends around {around:?}");
    let words = path.iter().flat_map(|v| [v.x.to_bits(), v.y.to_bits()]);
    // 1 518 sight tests, no sweep events
    assert_pinned(
        "odist",
        [d.to_bits()].into_iter().chain(words),
        &stats,
        0x5bb6_4f1a_4bd0_8be8,
        (0, 16, 64),
        (0, 8),
        (1_593, 0),
    );

    let (onn, stats) = engine.onn(&data_tree, &obstacle_tree, q.a, 5);
    let words = onn.iter().flat_map(|(p, d)| [u64::from(p.id), d.to_bits()]);
    // 1 664 sight tests, no sweep events
    assert_pinned(
        "onn",
        words,
        &stats,
        0x9063_47b3_ac6c_5d2d,
        (9, 17, 69),
        (3, 5),
        (1_747, 0),
    );

    // a 3-leg trajectory: `q`, then off to another horizontal and back
    // along it, every leg free
    let route = (1..200)
        .flat_map(|i| [8.0 * f64::from(i), -8.0 * f64::from(i)])
        .flat_map(|dy| [0.0, -100.0, 100.0, -200.0, 200.0].map(|dx| (dx, q.a.y + dy)))
        .map(|(dx, y)| vec![q.a, q.b, Point::new(q.b.x + dx, y), Point::new(q.a.x, y)])
        .find(|v| {
            v.windows(2).all(|w| {
                !obstacles
                    .iter()
                    .any(|r| r.blocks(&Segment::new(w[0], w[1])))
            })
        })
        .expect("a free route");
    let service = ConnService::new(Scene::borrowing(&data_tree, &obstacle_tree));
    let run = |query: Query| service.execute(&query).unwrap();
    let trajectory = run(Query::trajectory(Trajectory::new(route.clone()), 1)
        .build()
        .unwrap());
    let words = trajectory
        .answer
        .as_trajectory()
        .unwrap()
        .segments()
        .into_iter()
        .flat_map(|(p, iv)| {
            [p.map_or(u64::MAX, |p| u64::from(p.id))]
                .into_iter()
                .chain(span(&iv))
        });
    // 8 683 sight tests, no sweep events
    assert_pinned(
        "trajectory",
        words,
        &trajectory.stats,
        0xbc9b_3c1c_c6f1_e937,
        (25, 67, 274),
        (7, 9),
        (9_117, 0),
    );
    // a session is a leg loop: it evaluates exactly the points and loads
    // exactly the obstacles its legs do as lone CONN queries
    let legs = route
        .windows(2)
        .map(|w| run(Query::conn(Segment::new(w[0], w[1])).build().unwrap()).stats);
    let (npe, noe) = legs.fold((0, 0), |(npe, noe), s| (npe + s.npe, noe + s.noe));
    assert_eq!((trajectory.stats.npe, trajectory.stats.noe), (npe, noe));
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// The core guarantee: a single engine fed an arbitrary query sequence
    /// answers every query exactly as fresh state would.
    #[test]
    fn reused_engine_is_byte_identical_to_fresh_state(scn in scenario()) {
        let (obstacles, ps, queries) = scn;
        let data_tree = RStarTree::bulk_load(ps, 4096);
        let obstacle_tree = RStarTree::bulk_load(obstacles, 4096);
        let cfg = ConnConfig::default();
        let mut engine = QueryEngine::new(cfg);

        for (a, b, k) in queries {
            if a.dist(b) < 1e-9 {
                continue; // degenerate segment
            }
            let q = Segment::new(a, b);
            if k == 0 {
                let (fresh, fresh_stats) = QueryEngine::new(cfg).conn(&data_tree, &obstacle_tree, &q);
                let (reused, stats) = engine.conn(&data_tree, &obstacle_tree, &q);
                assert_coknn_identical(&fresh, &reused)?;
                // the paper's counters must agree too — they are part of
                // the reproduction's observable behavior
                prop_assert_eq!(fresh_stats.npe, stats.npe);
                prop_assert_eq!(fresh_stats.noe, stats.noe);
                prop_assert_eq!(fresh_stats.svg_nodes, stats.svg_nodes);
                prop_assert_eq!(fresh_stats.result_tuples, stats.result_tuples);
            } else {
                let (fresh, _) = QueryEngine::new(cfg).coknn(&data_tree, &obstacle_tree, &q, k);
                let (reused, _) = engine.coknn(&data_tree, &obstacle_tree, &q, k);
                assert_coknn_identical(&fresh, &reused)?;
            }
        }
    }

    /// Interleaving point-to-point odist queries between CONN queries must
    /// not leak state in either direction.
    #[test]
    fn odist_interleaving_does_not_leak(scn in scenario()) {
        let (obstacles, ps, queries) = scn;
        let data_tree = RStarTree::bulk_load(ps, 4096);
        let obstacle_tree = RStarTree::bulk_load(obstacles.clone(), 4096);
        let cfg = ConnConfig::default();
        let mut engine = QueryEngine::new(cfg);

        for (a, b, _) in queries {
            if a.dist(b) < 1e-9 {
                continue;
            }
            let q = Segment::new(a, b);
            // odist through the engine's loader vs the whole-field oracle
            // (1e-9, not bitwise — see `common::close`)
            let (d_engine, _) = engine.obstructed_distance(&obstacle_tree, a, b);
            let d_free = conn_core::baseline::obstructed_distance(&obstacles, a, b);
            prop_assert!(close(d_engine, d_free), "{d_engine} vs {d_free}");

            let (fresh, _) = QueryEngine::new(cfg).conn(&data_tree, &obstacle_tree, &q);
            let (reused, _) = engine.conn(&data_tree, &obstacle_tree, &q);
            assert_coknn_identical(&fresh, &reused)?;
        }
    }

    /// The loader's one equivalence property: odist, route, ONN and range
    /// through the engine's tree-driven loader answer what the whole-field
    /// oracle answers, on paper-style scenes and on a cluster of touching
    /// and overlapping rectangles, with endpoints on the free-space
    /// model's boundary — strictly inside an obstacle (⇒ ∞ / empty), on an
    /// edge, on a corner, `a == b` — and with CONN interleaved on the same
    /// engine (no state leaks either way).
    #[test]
    fn resolver_matches_whole_field_oracle(
        world in oracle_world(),
        probes in prop::collection::vec((probe(), probe(), 1..4usize, 50.0..1500.0f64), 2..6),
    ) {
        let (ps, obstacles) = world;
        let data_tree = RStarTree::bulk_load(ps.clone(), 4096);
        let obstacle_tree = RStarTree::bulk_load(obstacles.clone(), 4096);
        let lookup = ObstacleLookup::build(&obstacles);
        let cfg = ConnConfig::default();
        let mut engine = QueryEngine::new(cfg);

        for (pa, pb, k, radius) in probes {
            let (a, b) = (pa.resolve(&obstacles), pb.resolve(&obstacles));
            for (a, b) in [(a, b), (a, a)] {
                let want = conn_core::baseline::obstructed_distance(&obstacles, a, b);
                let (d, _) = engine.obstructed_distance(&obstacle_tree, a, b);
                prop_assert!(close(d, want), "odist {a}→{b}: {d} vs oracle {want}");
                let ((d, path), _) = engine.obstructed_route(&obstacle_tree, a, b);
                prop_assert!(close(d, want), "route {a}→{b}: {d} vs oracle {want}");
                if let Err(why) = check_route(&lookup, (a, b), d, path.as_deref()) {
                    prop_assert!(false, "route {a}→{b}: {why}");
                }
            }

            let all = brute_force_oknn(&ps, &obstacles, a, ps.len());
            let (got, _) = engine.onn(&data_tree, &obstacle_tree, a, k);
            let want = &all[..k.min(all.len())];
            prop_assert_eq!(got.len(), want.len(), "onn at {}", a);
            for ((_, gd), (_, wd)) in got.iter().zip(want) {
                prop_assert!(close(*gd, *wd), "onn at {a}: {gd} vs oracle {wd}");
            }
            let (got, _) = engine.range(&data_tree, &obstacle_tree, a, radius);
            let want: Vec<_> = all.iter().filter(|(_, d)| *d <= radius).collect();
            prop_assert_eq!(got.len(), want.len(), "range {} at {}", radius, a);
            for ((_, gd), (_, wd)) in got.iter().zip(want) {
                prop_assert!(close(*gd, *wd), "range at {a}: {gd} vs oracle {wd}");
            }

            if a.dist(b) >= 1e-9 {
                let q = Segment::new(a, b);
                let (fresh, _) = QueryEngine::new(cfg).conn(&data_tree, &obstacle_tree, &q);
                let (reused, _) = engine.conn(&data_tree, &obstacle_tree, &q);
                assert_coknn_identical(&fresh, &reused)?;
            }
        }
    }

    /// Kernel-level guarantee: A* with an expansion bound settles every
    /// node whose priority fits the bound with a distance **byte-identical**
    /// to full blind Dijkstra, and never settles a node blind Dijkstra
    /// cannot reach.
    #[test]
    fn astar_with_bound_matches_full_dijkstra(
        scn in scenario(),
        bound in 100.0..1500.0f64,
        gpt in (0.0..1000.0f64, 0.0..1000.0f64),
    ) {
        let (gx, gy) = gpt;
        let (obstacles, ps, queries) = scn;
        let (a, b, _) = queries[0];
        if a.dist(b) < 1e-9 {
            return Ok(()); // degenerate goal segment
        }
        let goals = [
            Goal::Point(Point::new(gx, gy)),
            Goal::Segment(Segment::new(a, b)),
        ];
        let (mut g, s) = graph_from(&obstacles, &ps, a);
        let mut blind = DijkstraEngine::new(&g, s);
        blind.run_all(&mut g);
        for goal in goals {
            let mut astar = DijkstraEngine::default();
            astar.prepare_directed(&g, s, goal);
            astar.set_bound(bound);
            astar.run_all(&mut g);
            for v in g.node_ids().collect::<Vec<_>>() {
                match (astar.settled_dist(v), blind.settled_dist(v)) {
                    (Some(x), Some(y)) => prop_assert_eq!(x.to_bits(), y.to_bits()),
                    (Some(_), None) => prop_assert!(false, "A* settled an unreachable node"),
                    (None, Some(y)) => prop_assert!(
                        y + goal.h(g.node_pos(v)) > bound - 1e-9,
                        "reachable node inside the bound was pruned"
                    ),
                    (None, None) => {}
                }
            }
        }
    }

    /// Replay, the one warm path: a run stopped at a random prefix —
    /// bounded or not, the way IOR hands its search to CPLC — is continued
    /// on the unchanged graph by replaying its tape, and the continuation
    /// settles exactly the sequence a cold full run under the same bound
    /// settles, bit for bit. Once the remaining obstacles are loaded the
    /// same engine starts cold, and again matches a fresh engine.
    #[test]
    fn replayed_continuation_matches_cold_start(
        scn in scenario(),
        at in 0.0..1.0f64,
        stop in 0.0..1.0f64,
        bounded in prop::bool::weighted(0.5),
        bound in 100.0..1500.0f64,
    ) {
        fn settle_all(e: &mut DijkstraEngine, g: &mut VisGraph) -> Vec<(u32, u64)> {
            std::iter::from_fn(|| e.next_settled(g))
                .map(|(v, d)| (v.0, d.to_bits()))
                .collect()
        }
        let (obstacles, ps, queries) = scn;
        let (a, b, _) = queries[0];
        if a.dist(b) < 1e-9 {
            return Ok(()); // degenerate goal segment
        }
        let goal = Goal::Segment(Segment::new(a, b));
        let bound = if bounded { bound } else { f64::INFINITY };
        let cut = ((obstacles.len() as f64) * at) as usize;
        let (mut g, s) = graph_from(&obstacles[..cut], &ps, a);

        let mut cold = DijkstraEngine::default();
        cold.prepare_directed(&g, s, goal);
        cold.set_bound(bound);
        let want = settle_all(&mut cold, &mut g);

        let mut warm = DijkstraEngine::default();
        prop_assert_eq!(warm.ensure_prepared(&g, s, goal, true), Prep::Cold);
        warm.set_bound(bound);
        let prefix = ((want.len() as f64) * stop) as usize;
        for _ in 0..prefix {
            warm.next_settled(&mut g);
        }
        prop_assert_eq!(warm.ensure_prepared(&g, s, goal, true), Prep::Replayed);
        prop_assert_eq!(settle_all(&mut warm, &mut g), want, "replay diverged");

        if obstacles.len() > cut {
            for r in &obstacles[cut..] {
                g.add_obstacle(*r);
            }
            prop_assert_eq!(warm.ensure_prepared(&g, s, goal, true), Prep::Cold);
            let mut fresh = DijkstraEngine::default();
            fresh.prepare_directed(&g, s, goal);
            let want = settle_all(&mut fresh, &mut g);
            prop_assert_eq!(settle_all(&mut warm, &mut g), want, "cold restart diverged");
        }
    }

    /// End-to-end kernel equivalence: the goal-directed + continued kernel
    /// answers every CONN query identically to the blind baseline kernel.
    #[test]
    fn kernel_modes_answer_identically(scn in scenario()) {
        let (obstacles, ps, queries) = scn;
        let data_tree = RStarTree::bulk_load(ps, 4096);
        let obstacle_tree = RStarTree::bulk_load(obstacles, 4096);
        let blind_cfg = ConnConfig::baseline_kernel();
        let goal_cfg = ConnConfig::default();
        let mut blind_engine = QueryEngine::new(blind_cfg);
        let mut goal_engine = QueryEngine::new(goal_cfg);
        for (a, b, _) in queries {
            if a.dist(b) < 1e-9 {
                continue;
            }
            let q = Segment::new(a, b);
            let (x, _) = blind_engine.conn(&data_tree, &obstacle_tree, &q);
            let (y, _) = goal_engine.conn(&data_tree, &obstacle_tree, &q);
            // value-equivalent, not bitwise: equal-length paths may settle
            // in different order across kernels, shifting split points by
            // a few ULPs (bitwise identity holds *within* a kernel — see
            // the other properties)
            let (x, y) = (Answer::Conn(x), Answer::Conn(y));
            prop_assert!(
                answers_equivalent(&x, &y, 1e-6),
                "kernels diverged on {q:?}: {x:?} vs {y:?}"
            );
        }
    }

    /// The service batch agrees with the serial reference for any workload
    /// and worker count.
    #[test]
    fn batch_is_byte_identical_to_serial(scn in scenario(), threads in 1..5usize) {
        let (obstacles, ps, queries) = scn;
        let data_tree = RStarTree::bulk_load(ps, 4096);
        let obstacle_tree = RStarTree::bulk_load(obstacles, 4096);
        let cfg = ConnConfig::default();
        let segs: Vec<Segment> = queries
            .iter()
            .filter(|(a, b, _)| a.dist(*b) >= 1e-9)
            .map(|(a, b, _)| Segment::new(*a, *b))
            .collect();
        let service = conn_core::ConnService::with_config(
            conn_core::Scene::borrowing(&data_tree, &obstacle_tree),
            cfg,
        );
        let typed: Vec<conn_core::Query> = segs
            .iter()
            .map(|q| conn_core::Query::conn(*q).build().unwrap())
            .collect();
        let (batch, stats) = service.execute_batch_threads(&typed, threads).unwrap();
        prop_assert_eq!(batch.len(), segs.len());
        prop_assert_eq!(stats.queries, segs.len());
        for (resp, q) in batch.iter().zip(&segs) {
            let (fresh, fresh_stats) = QueryEngine::new(cfg).conn(&data_tree, &obstacle_tree, q);
            assert_coknn_identical(&fresh, resp.answer.as_conn().unwrap())?;
            prop_assert_eq!(resp.stats.data_io, fresh_stats.data_io);
            prop_assert_eq!(resp.stats.obstacle_io, fresh_stats.obstacle_io);
        }
    }
}
