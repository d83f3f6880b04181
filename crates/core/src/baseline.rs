//! Reference baselines.
//!
//! * [`obstructed_distance`] / [`obstructed_path`] / [`obstructed_route`] —
//!   point-to-point obstructed distance (paper Definition 4) over the
//!   *whole* obstacle list: build every obstacle into one graph, run one
//!   blind Dijkstra. No engine, no cache, no tree and no code shared with
//!   the obstacle loader (`odist.rs`) — which is what makes them the
//!   oracle the loader is tested against. `O(n²)`-ish in the obstacle
//!   count; serving uses `Query::odist` / `Query::route`.
//! * [`brute_force_oknn`] — exact obstructed kNN at a single location by
//!   exhaustive Dijkstra over the full visibility graph. Ground truth for
//!   every correctness test.
//! * [`sampled_conn`] — the naive CONN strategy the paper's introduction
//!   rules out: sample `m` locations along `q` and run an ONN query at each.
//!   Used as the accuracy/efficiency baseline and in tests (the exact
//!   algorithm must agree with it at every sample away from split points).
//! * [`naive_conn_by_onn`] — the same naive strategy on the real machinery:
//!   one cold ONN query per sample, R-tree I/O charged per call. Quantifies
//!   how badly the per-point strategy loses against one exact CONN query.
//!
//! Nothing here is a serving path: queries run through
//! [`crate::ConnService`] (or a [`QueryEngine`] directly).

use conn_geom::{Point, Rect, Segment};
use conn_index::RStarTree;
use conn_vgraph::{DijkstraEngine, NodeId, NodeKind, VisGraph};

use crate::config::ConnConfig;
use crate::engine::QueryEngine;
use crate::stats::QueryStats;
use crate::types::DataPoint;

/// Length of the shortest obstacle-avoiding path from `a` to `b` (∞ when
/// no path exists) — the whole-field reference, see the module docs.
///
/// ```
/// use conn_core::baseline::obstructed_distance;
/// use conn_geom::{Point, Rect};
///
/// let a = Point::new(0.0, 0.0);
/// let b = Point::new(100.0, 0.0);
/// assert_eq!(obstructed_distance(&[], a, b), 100.0);
///
/// // a wall across the straight line forces a detour through (40, 30)
/// let wall = Rect::new(40.0, -10.0, 60.0, 30.0);
/// let d = obstructed_distance(&[wall], a, b);
/// assert!(d > 100.0);
/// ```
pub fn obstructed_distance(obstacles: &[Rect], a: Point, b: Point) -> f64 {
    obstructed_route(obstacles, a, b).0
}

/// The shortest obstacle-avoiding path itself (polyline through obstacle
/// corners), or `None` when unreachable.
pub fn obstructed_path(obstacles: &[Rect], a: Point, b: Point) -> Option<Vec<Point>> {
    obstructed_route(obstacles, a, b).1
}

/// Distance and path of the whole-field reference in one Dijkstra run.
pub fn obstructed_route(obstacles: &[Rect], a: Point, b: Point) -> (f64, Option<Vec<Point>>) {
    // an endpoint strictly inside an obstacle is unreachable by definition
    // (blocking is open-interior containment), `a == b` included
    if obstacles
        .iter()
        .any(|r| r.strictly_contains(a) || r.strictly_contains(b))
    {
        return (f64::INFINITY, None);
    }
    let mut g = full_graph(obstacles);
    let na = g.add_point(a, NodeKind::DataPoint);
    let nb = g.add_point(b, NodeKind::DataPoint);
    let mut dij = DijkstraEngine::new(&g, na);
    let d = dij.run_until_settled(&mut g, nb);
    let path = d
        .is_finite()
        .then(|| dij.path_to(nb).iter().map(|&n| g.node_pos(n)).collect());
    (d, path)
}

/// Exact obstructed k-nearest-neighbors of the location `s`, by full-graph
/// Dijkstra. Returns up to `k` `(point, obstructed distance)` pairs in
/// ascending distance; unreachable points are excluded.
pub fn brute_force_oknn(
    points: &[DataPoint],
    obstacles: &[Rect],
    s: Point,
    k: usize,
) -> Vec<(DataPoint, f64)> {
    let mut g = full_graph(obstacles);
    let source = g.add_point(s, NodeKind::DataPoint);
    let ids: Vec<(DataPoint, NodeId)> = points
        .iter()
        .map(|p| (*p, g.add_point(p.pos, NodeKind::DataPoint)))
        .collect();
    let mut dij = DijkstraEngine::new(&g, source);
    dij.run_all(&mut g);
    let mut out: Vec<(DataPoint, f64)> = ids
        .into_iter()
        .filter_map(|(p, n)| dij.settled_dist(n).map(|d| (p, d)))
        .filter(|(_, d)| d.is_finite())
        .collect();
    out.sort_by(|a, b| a.1.total_cmp(&b.1).then(a.0.id.cmp(&b.0.id)));
    out.truncate(k);
    out
}

/// One sample of the naive baseline: parameter, and the kNN set there.
#[derive(Debug, Clone)]
pub struct ConnSample {
    /// Sample parameter on the query segment.
    pub t: f64,
    /// The k nearest data points at `t`, ascending by obstructed distance.
    pub neighbors: Vec<(DataPoint, f64)>,
}

/// The sampling-based CONN baseline: exact OkNN at `samples` evenly spaced
/// parameters along `q` (endpoints included).
///
/// Builds the full visibility graph once and runs one Dijkstra per sample —
/// still exact per sample, but with unbounded error *between* samples,
/// which is precisely the drawback (paper §2.2) that motivates the exact
/// algorithm.
pub fn sampled_conn(
    points: &[DataPoint],
    obstacles: &[Rect],
    q: &Segment,
    samples: usize,
    k: usize,
) -> Vec<ConnSample> {
    assert!(samples >= 2, "need at least the two endpoints");
    let mut g = full_graph(obstacles);
    let ids: Vec<(DataPoint, NodeId)> = points
        .iter()
        .map(|p| (*p, g.add_point(p.pos, NodeKind::DataPoint)))
        .collect();
    let mut out = Vec::with_capacity(samples);
    for i in 0..samples {
        let t = q.len() * (i as f64) / ((samples - 1) as f64);
        let source = g.add_point(q.at(t), NodeKind::DataPoint);
        let mut dij = DijkstraEngine::new(&g, source);
        dij.run_all(&mut g);
        let mut neighbors: Vec<(DataPoint, f64)> = ids
            .iter()
            .filter_map(|(p, n)| dij.settled_dist(*n).map(|d| (*p, d)))
            .filter(|(_, d)| d.is_finite())
            .collect();
        neighbors.sort_by(|a, b| a.1.total_cmp(&b.1).then(a.0.id.cmp(&b.0.id)));
        neighbors.truncate(k);
        g.remove_node(source);
        out.push(ConnSample { t, neighbors });
    }
    out
}

/// One sample of [`naive_conn_by_onn`]: the parameter and its kNN set.
pub type OnnSample = (f64, Vec<(DataPoint, f64)>);

/// The naive CONN of §1: `samples` independent ONN queries along `q`, each
/// on a fresh [`QueryEngine`], with R-tree I/O charged per call.
pub fn naive_conn_by_onn(
    data_tree: &RStarTree<DataPoint>,
    obstacle_tree: &RStarTree<Rect>,
    q: &Segment,
    samples: usize,
    k: usize,
    cfg: &ConnConfig,
) -> (Vec<OnnSample>, QueryStats) {
    assert!(samples >= 2);
    let mut total = QueryStats::default();
    let mut out = Vec::with_capacity(samples);
    for i in 0..samples {
        let t = q.len() * (i as f64) / ((samples - 1) as f64);
        let (res, stats) = QueryEngine::new(*cfg).onn(data_tree, obstacle_tree, q.at(t), k);
        total.accumulate(&stats);
        out.push((t, res));
    }
    (out, total)
}

fn full_graph(obstacles: &[Rect]) -> VisGraph {
    let cell = obstacles
        .iter()
        .map(|r| r.width().max(r.height()))
        .fold(0.0f64, f64::max)
        .max(20.0);
    let mut g = VisGraph::new(cell);
    for r in obstacles {
        g.add_obstacle(*r);
    }
    g
}

#[cfg(test)]
mod tests {
    use super::*;

    fn pts() -> Vec<DataPoint> {
        vec![
            DataPoint::new(0, Point::new(10.0, 20.0)),
            DataPoint::new(1, Point::new(50.0, 40.0)),
            DataPoint::new(2, Point::new(90.0, 10.0)),
        ]
    }

    #[test]
    fn brute_force_free_space_is_euclid_knn() {
        let s = Point::new(0.0, 0.0);
        let got = brute_force_oknn(&pts(), &[], s, 3);
        assert_eq!(got.len(), 3);
        assert_eq!(got[0].0.id, 0);
        assert!((got[0].1 - s.dist(Point::new(10.0, 20.0))).abs() < 1e-9);
        assert!(got[0].1 <= got[1].1 && got[1].1 <= got[2].1);
    }

    #[test]
    fn obstacle_reorders_neighbors() {
        let s = Point::new(0.0, 0.0);
        // wall isolates point 0 behind a long detour
        let wall = Rect::new(-5.0, 10.0, 30.0, 15.0);
        let free = brute_force_oknn(&pts(), &[], s, 1);
        let blocked = brute_force_oknn(&pts(), &[wall], s, 1);
        assert_eq!(free[0].0.id, 0);
        assert!(blocked[0].1 >= free[0].1);
    }

    #[test]
    fn unreachable_points_are_dropped() {
        let boxed = vec![
            Rect::new(40.0, 30.0, 60.0, 35.0),
            Rect::new(40.0, 45.0, 60.0, 50.0),
            Rect::new(40.0, 30.0, 45.0, 50.0),
            Rect::new(55.0, 30.0, 60.0, 50.0),
        ];
        let inside = vec![DataPoint::new(9, Point::new(50.0, 40.0))];
        let got = brute_force_oknn(&inside, &boxed, Point::new(0.0, 0.0), 1);
        assert!(got.is_empty());
    }

    #[test]
    fn sampled_conn_spans_the_segment() {
        let q = Segment::new(Point::new(0.0, 0.0), Point::new(100.0, 0.0));
        let samples = sampled_conn(&pts(), &[], &q, 11, 2);
        assert_eq!(samples.len(), 11);
        assert_eq!(samples[0].t, 0.0);
        assert!((samples[10].t - 100.0).abs() < 1e-9);
        for s in &samples {
            assert_eq!(s.neighbors.len(), 2);
            assert!(s.neighbors[0].1 <= s.neighbors[1].1);
        }
        // the left end's NN is point 0, the right end's point 2
        assert_eq!(samples[0].neighbors[0].0.id, 0);
        assert_eq!(samples[10].neighbors[0].0.id, 2);
    }
}
