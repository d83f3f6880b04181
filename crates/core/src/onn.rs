//! Snapshot ONN — obstructed k-nearest-neighbor queries at a *point*
//! (Zhang et al., EDBT 2004 — reference \[31\] of the paper).
//!
//! This is the operation a naive CONN would issue at every location of `q`
//! (paper §1), and the building block of the honest sampling baseline with
//! R-tree I/O accounting ([`crate::baseline::naive_conn_by_onn`]). The
//! implementation mirrors the CONN machinery at a point: stream data points
//! by ascending `mindist(p, s)`, compute each candidate's obstructed
//! distance on the engine workspace's visibility graph, fed by the obstacle
//! loader ([`crate::odist`]) anchored at `s`, and stop once the next
//! candidate's Euclidean lower bound exceeds the current k-th best.

use conn_geom::{Point, Rect};
use conn_index::RStarTree;
use conn_vgraph::NodeKind;

use crate::engine::QueryEngine;
use crate::odist::Anchor;
use crate::stats::QueryStats;
use crate::types::DataPoint;

impl QueryEngine {
    /// Obstructed k-nearest neighbors of location `s`, with per-query
    /// metrics: up to `k` `(point, obstructed distance)` pairs in ascending
    /// distance; unreachable points never qualify.
    ///
    /// ```
    /// use conn_core::{DataPoint, QueryEngine};
    /// use conn_geom::{Point, Rect};
    /// use conn_index::RStarTree;
    ///
    /// let points = RStarTree::bulk_load(
    ///     vec![
    ///         DataPoint::new(0, Point::new(0.0, 30.0)),  // blocked by the wall
    ///         DataPoint::new(1, Point::new(35.0, 10.0)), // clear line of sight
    ///     ],
    ///     4096,
    /// );
    /// let wall = RStarTree::bulk_load(vec![Rect::new(-40.0, 10.0, 20.0, 20.0)], 4096);
    ///
    /// let (nn, _) = QueryEngine::default().onn(&points, &wall, Point::new(0.0, 0.0), 1);
    /// // point 0 is euclidean-closer (30 < ~36.4) but the wall forces a detour,
    /// // so point 1 is the obstructed NN
    /// assert_eq!(nn[0].0.id, 1);
    /// ```
    pub fn onn(
        &mut self,
        data_tree: &RStarTree<DataPoint>,
        obstacle_tree: &RStarTree<Rect>,
        s: Point,
        k: usize,
    ) -> (Vec<(DataPoint, f64)>, QueryStats) {
        assert!(k >= 1, "k must be positive");
        self.point_family(obstacle_tree, |r, data_io| {
            // An anchor strictly inside an obstacle reaches nothing: every
            // obstructed distance is ∞, the k-th bound never tightens, and
            // the candidate stream would be walked to exhaustion. The
            // answer is exactly empty — say so now.
            if r.swallowed(s) {
                return (Vec::new(), 0, 0);
            }
            let s_node = r.g.add_point(s, NodeKind::Endpoint);
            let mut results: Vec<(DataPoint, f64)> = Vec::new();
            let mut points = data_tree.nearest_iter_metered(s, data_io);
            let mut npe = 0u64;
            while let Some(lower) = points.peek_dist() {
                let kth = results.get(k - 1).map_or(f64::INFINITY, |(_, d)| *d);
                if lower > kth {
                    break;
                }
                let Some((p, _)) = points.next() else { break };
                npe += 1;
                // goal-directed from the candidate toward `s`; every path
                // ends at `s`, so one disc around it serves all candidates
                let p_node = r.g.add_point(p.pos, NodeKind::DataPoint);
                let od = r.settle(Anchor::Disc(s), p_node, s_node, s.dist(p.pos));
                r.g.remove_node(p_node);
                if od.is_finite() {
                    let at = results.partition_point(|(_, d)| *d <= od);
                    if at < k {
                        results.insert(at, (p, od));
                        results.truncate(k);
                    }
                }
            }
            let tuples = results.len() as u64;
            (results, npe, tuples)
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::baseline::{brute_force_oknn, naive_conn_by_onn};
    use crate::config::ConnConfig;

    fn world() -> (Vec<DataPoint>, Vec<Rect>) {
        let points = vec![
            DataPoint::new(0, Point::new(10.0, 20.0)),
            DataPoint::new(1, Point::new(50.0, 8.0)),
            DataPoint::new(2, Point::new(90.0, 25.0)),
            DataPoint::new(3, Point::new(45.0, 60.0)),
            DataPoint::new(4, Point::new(-20.0, -10.0)),
        ];
        let obstacles = vec![
            Rect::new(30.0, 5.0, 40.0, 30.0),
            Rect::new(60.0, 10.0, 75.0, 18.0),
            Rect::new(0.0, 30.0, 30.0, 40.0),
        ];
        (points, obstacles)
    }

    #[test]
    fn onn_matches_brute_force() {
        let (points, obstacles) = world();
        let dt = RStarTree::bulk_load(points.clone(), 4096);
        let ot = RStarTree::bulk_load(obstacles.clone(), 4096);
        for s in [
            Point::new(0.0, 0.0),
            Point::new(55.0, 22.0),
            Point::new(100.0, 0.0),
        ] {
            for k in [1usize, 3, 5] {
                let (got, stats) = QueryEngine::default().onn(&dt, &ot, s, k);
                let want = brute_force_oknn(&points, &obstacles, s, k);
                assert_eq!(got.len(), want.len(), "s={s} k={k}");
                for ((_, gd), (_, wd)) in got.iter().zip(&want) {
                    assert!((gd - wd).abs() < 1e-6, "s={s} k={k}");
                }
                assert!(stats.npe as usize <= points.len());
            }
        }
    }

    #[test]
    fn pruning_skips_far_points() {
        let mut points = vec![DataPoint::new(0, Point::new(5.0, 5.0))];
        for i in 0..100 {
            points.push(DataPoint::new(1 + i, Point::new(5000.0 + i as f64, 5000.0)));
        }
        let dt = RStarTree::bulk_load(points, 4096);
        let ot: RStarTree<Rect> = RStarTree::bulk_load(vec![], 4096);
        let (res, stats) = QueryEngine::default().onn(&dt, &ot, Point::new(0.0, 0.0), 1);
        assert_eq!(res[0].0.id, 0);
        assert!(stats.npe <= 3, "NPE {}", stats.npe);
    }

    #[test]
    fn naive_conn_by_onn_is_consistent_but_expensive() {
        let (points, obstacles) = world();
        let dt = RStarTree::bulk_load(points.clone(), 4096);
        let ot = RStarTree::bulk_load(obstacles.clone(), 4096);
        let q = conn_geom::Segment::new(Point::new(0.0, 0.0), Point::new(100.0, 0.0));
        let cfg = ConnConfig::default();
        let (samples, naive_stats) = naive_conn_by_onn(&dt, &ot, &q, 11, 1, &cfg);
        assert_eq!(samples.len(), 11);
        // agreement with the exact CONN at sample points
        let (exact, exact_stats) = QueryEngine::new(cfg).conn(&dt, &ot, &q);
        for (t, nns) in &samples {
            if let (Some((_, gd)), Some((_, wd))) = (nns.first(), exact.nn_at(*t)) {
                assert!((gd - wd).abs() < 1e-6, "t = {t}");
            }
        }
        // and the naive strategy pays way more I/O
        assert!(
            naive_stats.reads() > 3 * exact_stats.reads(),
            "naive {} vs exact {}",
            naive_stats.reads(),
            exact_stats.reads()
        );
    }

    #[test]
    fn enclosed_query_point_answers_empty() {
        let (points, obstacles) = world();
        let dt = RStarTree::bulk_load(points, 4096);
        let ot = RStarTree::bulk_load(obstacles, 4096);
        // strictly inside obstacle (30,5)-(40,30): nothing is reachable
        let (res, stats) = QueryEngine::default().onn(&dt, &ot, Point::new(35.0, 15.0), 3);
        assert!(res.is_empty());
        assert_eq!(stats.npe, 0, "no candidates should be evaluated");
    }

    #[test]
    fn unreachable_target_excluded() {
        let boxed = vec![
            Rect::new(40.0, 30.0, 60.0, 35.0),
            Rect::new(40.0, 45.0, 60.0, 50.0),
            Rect::new(40.0, 30.0, 45.0, 50.0),
            Rect::new(55.0, 30.0, 60.0, 50.0),
        ];
        let points = vec![
            DataPoint::new(0, Point::new(50.0, 40.0)), // walled in
            DataPoint::new(1, Point::new(100.0, 100.0)),
        ];
        let dt = RStarTree::bulk_load(points, 4096);
        let ot = RStarTree::bulk_load(boxed, 4096);
        let (res, _) = QueryEngine::default().onn(&dt, &ot, Point::new(0.0, 0.0), 2);
        assert_eq!(res.len(), 1);
        assert_eq!(res[0].0.id, 1);
    }
}
