//! Obstructed range queries: all data points within obstructed distance `r`
//! of a location (one of the obstructed query types of Zhang et al., EDBT
//! 2004 — reference \[31\] — whose machinery the CONN paper generalizes).
//!
//! One settlement answers the query: the obstacles within `r` of the anchor
//! are loaded once ([`crate::odist`]), every data point within Euclidean `r`
//! (a lower bound of the obstructed distance) joins the graph as a target,
//! and one blind Dijkstra from the anchor, bounded by `r`, labels them all.
//! Targets are free points — reported, never expanded — so the search costs
//! what the obstacle corners within `r` cost, whatever the candidate count.

use conn_geom::{Point, Rect};
use conn_index::RStarTree;
use conn_vgraph::{NodeId, NodeKind};

use crate::engine::QueryEngine;
use crate::odist::Anchor;
use crate::stats::QueryStats;
use crate::types::DataPoint;

impl QueryEngine {
    /// All data points whose obstructed distance to `s` is at most
    /// `radius`, in ascending distance order.
    pub fn range(
        &mut self,
        data_tree: &RStarTree<DataPoint>,
        obstacle_tree: &RStarTree<Rect>,
        s: Point,
        radius: f64,
    ) -> (Vec<(DataPoint, f64)>, QueryStats) {
        assert!(radius >= 0.0, "negative radius");
        self.point_family(obstacle_tree, Anchor::Disc(s), |r, data_io| {
            let s_node = r.g.add_point(s, NodeKind::Endpoint);
            // every path of length <= radius out of s stays within radius
            // of it, so one load up front serves all candidates
            r.load(radius);
            // an anchor strictly inside an obstacle reaches nothing; the disc
            // holds any such obstacle (`Resolver::swallowed`, no tree query)
            if r.g.obstacles().iter().any(|o| o.strictly_contains(s)) {
                return (Vec::new(), 0, 0);
            }
            let mut targets: Vec<(DataPoint, NodeId)> = Vec::new();
            let mut points = data_tree.nearest_iter_metered(s, data_io);
            // peek, not pop: a tree node beyond the radius is never read
            while points.peek_dist().is_some_and(|lower| lower <= radius) {
                let Some((p, _)) = points.next() else { break };
                targets.push((p, r.g.add_point(p.pos, NodeKind::DataPoint)));
            }
            r.dij.prepare(r.g, s_node);
            r.dij.set_bound(radius);
            r.dij.run_all(r.g);
            // a target never settled is beyond the radius (or unreachable)
            let mut results: Vec<(DataPoint, f64)> = Vec::new();
            for &(p, node) in &targets {
                results.extend(r.dij.settled_dist(node).map(|d| (p, d)));
                r.g.remove_node(node);
            }
            // stable: equidistant points stay in candidate-stream order
            results.sort_by(|a, b| a.1.total_cmp(&b.1));
            let (npe, tuples) = (targets.len() as u64, results.len() as u64);
            (results, npe, tuples)
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::baseline::brute_force_oknn;

    fn world() -> (Vec<DataPoint>, Vec<Rect>) {
        let points = vec![
            DataPoint::new(0, Point::new(10.0, 0.0)),
            DataPoint::new(1, Point::new(30.0, 0.0)),
            DataPoint::new(2, Point::new(0.0, 45.0)),
            DataPoint::new(3, Point::new(200.0, 200.0)),
        ];
        let obstacles = vec![Rect::new(20.0, -10.0, 25.0, 10.0)];
        (points, obstacles)
    }

    #[test]
    fn range_matches_brute_force() {
        let (points, obstacles) = world();
        let dt = RStarTree::bulk_load(points.clone(), 4096);
        let ot = RStarTree::bulk_load(obstacles.clone(), 4096);
        let s = Point::new(0.0, 0.0);
        for radius in [5.0, 15.0, 40.0, 60.0, 500.0] {
            let (got, _) = QueryEngine::default().range(&dt, &ot, s, radius);
            let want: Vec<(DataPoint, f64)> = brute_force_oknn(&points, &obstacles, s, 10)
                .into_iter()
                .filter(|(_, d)| *d <= radius)
                .collect();
            assert_eq!(got.len(), want.len(), "radius {radius}");
            for ((gp, gd), (wp, wd)) in got.iter().zip(&want) {
                assert_eq!(gp.id, wp.id, "radius {radius}");
                assert!((gd - wd).abs() < 1e-6);
            }
        }
    }

    #[test]
    fn obstacle_pushes_point_out_of_range() {
        let (points, obstacles) = world();
        let dt = RStarTree::bulk_load(points.clone(), 4096);
        let empty: RStarTree<Rect> = RStarTree::bulk_load(vec![], 4096);
        let ot = RStarTree::bulk_load(obstacles, 4096);
        let s = Point::new(0.0, 0.0);
        // point 1 is 30 away euclidean; the wall forces a detour > 31
        let (free, _) = QueryEngine::default().range(&dt, &empty, s, 31.0);
        let (blocked, _) = QueryEngine::default().range(&dt, &ot, s, 31.0);
        assert!(free.iter().any(|(p, _)| p.id == 1));
        assert!(!blocked.iter().any(|(p, _)| p.id == 1));
    }

    #[test]
    fn zero_radius_finds_only_coincident_points() {
        let points = vec![
            DataPoint::new(0, Point::new(5.0, 5.0)),
            DataPoint::new(1, Point::new(6.0, 5.0)),
        ];
        let dt = RStarTree::bulk_load(points, 4096);
        let ot: RStarTree<Rect> = RStarTree::bulk_load(vec![], 4096);
        let (got, _) = QueryEngine::default().range(&dt, &ot, Point::new(5.0, 5.0), 0.0);
        assert_eq!(got.len(), 1);
        assert_eq!(got[0].0.id, 0);
    }

    /// One range op is one settlement however many candidates it has: on a
    /// warmed engine the Dijkstra is prepared once for 1 candidate and once
    /// for 50 (a search per candidate would prepare 50 times).
    #[test]
    fn one_preparation_whatever_the_candidate_count() {
        let (_, obstacles) = world();
        let ot = RStarTree::bulk_load(obstacles, 4096);
        let crowd = |n: u32| -> RStarTree<DataPoint> {
            let at = |i: u32| Point::new(-30.0 + 1.1 * i as f64, 15.0 + (i % 7) as f64);
            RStarTree::bulk_load((0..n).map(|i| DataPoint::new(i, at(i))).collect(), 4096)
        };
        let s = Point::new(0.0, 0.0);
        let mut engine = QueryEngine::default();
        let _ = engine.range(&crowd(50), &ot, s, 100.0); // warm: label capacity for the larger scene
        let (one, few) = engine.range(&crowd(1), &ot, s, 100.0);
        let (fifty, many) = engine.range(&crowd(50), &ot, s, 100.0);
        assert_eq!((one.len(), fifty.len()), (1, 50));
        assert_eq!((few.npe, many.npe), (1, 50));
        assert_eq!(few.reuse.heap_reuses, 1);
        assert_eq!(many.reuse.heap_reuses, 1);
    }

    #[test]
    fn swallowed_anchor_answers_empty_without_searching() {
        let (points, obstacles) = world();
        let dt = RStarTree::bulk_load(points, 4096);
        let ot = RStarTree::bulk_load(obstacles, 4096);
        // strictly inside the wall (20,-10)-(25,10): nothing is reachable
        let mut engine = QueryEngine::default();
        let _ = engine.range(&dt, &ot, Point::new(0.0, 0.0), 50.0); // warm
        let (got, stats) = engine.range(&dt, &ot, Point::new(22.0, 0.0), 1000.0);
        assert!(got.is_empty());
        assert_eq!(stats.npe, 0, "no candidates should be evaluated");
        assert_eq!(stats.reuse.heap_reuses, 0, "no search should be prepared");
    }

    /// Candidates on the boundary of the model: coincident with the anchor,
    /// on an obstacle corner, exactly at the radius, and inside the
    /// Euclidean radius but outside the obstructed one.
    #[test]
    fn boundary_candidates() {
        let wall = Rect::new(20.0, -10.0, 25.0, 10.0);
        let s = Point::new(0.0, 0.0);
        let corner = Point::new(20.0, 10.0);
        let points = vec![
            DataPoint::new(0, s),                     // coincident: distance 0
            DataPoint::new(1, corner),                // on the wall's corner
            DataPoint::new(2, Point::new(30.0, 0.0)), // behind the wall
            DataPoint::new(3, Point::new(20.0, 0.0)), // on the wall's near edge
        ];
        let dt = RStarTree::bulk_load(points.clone(), 4096);
        let ot = RStarTree::bulk_load(vec![wall], 4096);
        let ids = |radius: f64| -> Vec<u32> {
            let (got, _) = QueryEngine::default().range(&dt, &ot, s, radius);
            let want = brute_force_oknn(&points, &[wall], s, 10);
            let want: Vec<_> = want.into_iter().filter(|(_, d)| *d <= radius).collect();
            assert_eq!(got.len(), want.len(), "radius {radius}");
            for ((gp, gd), (wp, wd)) in got.iter().zip(&want) {
                assert_eq!(gp.id, wp.id, "radius {radius}");
                assert!((gd - wd).abs() < 1e-9, "radius {radius}");
            }
            got.iter().map(|(p, _)| p.id).collect()
        };
        assert_eq!(ids(0.0), [0]);
        assert_eq!(ids(20.0), [0, 3]);
        // the corner is reached in a straight line, at exactly |s, corner|
        assert_eq!(ids(s.dist(corner)), [0, 3, 1]);
        // 30 away by Euclid, but the detour round the corner is longer
        let detour = s.dist(corner) + 5.0 + Point::new(25.0, 10.0).dist(Point::new(30.0, 0.0));
        assert_eq!(ids(31.0), [0, 3, 1]);
        assert_eq!(ids(detour), [0, 3, 1, 2]);
    }

    #[test]
    fn results_sorted_ascending() {
        let (points, obstacles) = world();
        let dt = RStarTree::bulk_load(points, 4096);
        let ot = RStarTree::bulk_load(obstacles, 4096);
        let (got, stats) = QueryEngine::default().range(&dt, &ot, Point::new(0.0, 0.0), 1000.0);
        assert_eq!(got.len(), 4);
        for w in got.windows(2) {
            assert!(w[0].1 <= w[1].1);
        }
        assert_eq!(stats.npe, 4);
    }
}
