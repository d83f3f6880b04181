//! Obstructed range queries: all data points within obstructed distance `r`
//! of a location (one of the obstructed query types of Zhang et al., EDBT
//! 2004 — reference \[31\] — whose machinery the CONN paper generalizes).
//!
//! Same skeleton as [`QueryEngine::onn`]: stream candidates by
//! Euclidean `mindist` (a lower bound of the obstructed distance, so the
//! stream can stop at `r`), resolve each candidate's obstructed distance on
//! the engine workspace's visibility graph — loaded once to `r` around the
//! anchor by [`crate::odist`] — and keep those within `r`.

use conn_geom::{Point, Rect};
use conn_index::RStarTree;
use conn_vgraph::NodeKind;

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
        let goal = self.config().kernel.point_goal(s);
        self.point_family(obstacle_tree, |r, data_io| {
            let s_node = r.g.add_point(s, NodeKind::Endpoint);
            // every path of length <= radius into s stays within radius of
            // it, so one load up front serves all candidates
            r.load(Anchor::Disc(s), radius);
            let mut results: Vec<(DataPoint, f64)> = Vec::new();
            let mut npe = 0u64;
            let mut points = data_tree.nearest_iter_metered(s, data_io);
            while let Some(lower) = points.peek_dist() {
                if lower > radius {
                    break; // euclidean lower bound exceeds the radius
                }
                let Some((p, _)) = points.next() else { break };
                npe += 1;
                let p_node = r.g.add_point(p.pos, NodeKind::DataPoint);
                // goal-directed toward s, with the radius as expansion
                // bound: a point whose search exhausts inside the bound
                // reports ∞ and is rejected exactly like an over-radius
                // distance
                r.dij.prepare_directed(r.g, p_node, goal);
                r.dij.set_bound(radius);
                let od = r.dij.run_until_settled(r.g, s_node);
                r.g.remove_node(p_node);
                if od <= radius {
                    let at = results.partition_point(|(_, d)| *d <= od);
                    results.insert(at, (p, od));
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
