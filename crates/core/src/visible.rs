//! Visible k-nearest-neighbor queries (Nutanong et al., DASFAA 2007 —
//! reference \[15\], discussed in the paper's §2.3).
//!
//! VkNN returns the `k` nearest data points *visible* from the query
//! location — distance is plain Euclidean, but candidates hidden behind an
//! obstacle are skipped. Because the data stream arrives in ascending
//! Euclidean distance, the answer is simply the first `k` visible
//! candidates; obstacles are loaded lazily up to the current candidate's
//! distance (any obstacle blocking the sight-line `s → p` must intersect
//! it, hence lies within `dist(s, p)` of `s`).

use conn_geom::{Point, Rect};
use conn_index::RStarTree;

use crate::engine::QueryEngine;
use crate::odist::Anchor;
use crate::stats::QueryStats;
use crate::types::DataPoint;

impl QueryEngine {
    /// The `k` nearest data points visible from `s`, in ascending Euclidean
    /// distance.
    pub fn visible_knn(
        &mut self,
        data_tree: &RStarTree<DataPoint>,
        obstacle_tree: &RStarTree<Rect>,
        s: Point,
        k: usize,
    ) -> (Vec<(DataPoint, f64)>, QueryStats) {
        assert!(k >= 1, "k must be positive");
        self.point_family(obstacle_tree, |r, data_io| {
            let mut out: Vec<(DataPoint, f64)> = Vec::with_capacity(k);
            let mut npe = 0u64;
            for (p, d) in data_tree.nearest_iter_metered(s, data_io) {
                if out.len() >= k {
                    break;
                }
                npe += 1;
                // make sure every obstacle that could block s→p is present
                r.load(Anchor::Disc(s), d);
                if r.g.visible(s, p.pos) {
                    out.push((p, d));
                }
            }
            let tuples = out.len() as u64;
            (out, npe, tuples)
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use conn_geom::Segment;

    fn world() -> (Vec<DataPoint>, Vec<Rect>) {
        let points = vec![
            DataPoint::new(0, Point::new(10.0, 0.0)), // nearest, visible
            DataPoint::new(1, Point::new(0.0, 30.0)), // hidden by the wall
            DataPoint::new(2, Point::new(40.0, 5.0)), // visible
            DataPoint::new(3, Point::new(-50.0, 0.0)), // visible, far
        ];
        let wall = Rect::new(-10.0, 10.0, 10.0, 20.0);
        (points, vec![wall])
    }

    #[test]
    fn hidden_points_are_skipped() {
        let (points, obstacles) = world();
        let dt = RStarTree::bulk_load(points.clone(), 4096);
        let ot = RStarTree::bulk_load(obstacles.clone(), 4096);
        let s = Point::new(0.0, 0.0);
        let (got, _) = QueryEngine::default().visible_knn(&dt, &ot, s, 3);
        let ids: Vec<u32> = got.iter().map(|(p, _)| p.id).collect();
        assert_eq!(ids, vec![0, 2, 3], "point 1 is behind the wall");
        // distances are euclidean and ascending
        for (p, d) in &got {
            assert!((d - p.pos.dist(s)).abs() < 1e-9);
        }
    }

    #[test]
    fn without_obstacles_vknn_is_knn() {
        let (points, _) = world();
        let dt = RStarTree::bulk_load(points.clone(), 4096);
        let empty: RStarTree<Rect> = RStarTree::bulk_load(vec![], 4096);
        let s = Point::new(0.0, 0.0);
        let (got, _) = QueryEngine::default().visible_knn(&dt, &empty, s, 4);
        let want = dt.knn(s, 4);
        assert_eq!(got.len(), want.len());
        for ((gp, _), (wp, _)) in got.iter().zip(&want) {
            assert_eq!(gp.id, wp.id);
        }
    }

    #[test]
    fn agreement_with_linear_scan() {
        let (points, obstacles) = world();
        let dt = RStarTree::bulk_load(points.clone(), 4096);
        let ot = RStarTree::bulk_load(obstacles.clone(), 4096);
        for s in [
            Point::new(5.0, 40.0),
            Point::new(-20.0, 15.0),
            Point::new(30.0, -10.0),
        ] {
            let (got, _) = QueryEngine::default().visible_knn(&dt, &ot, s, 10);
            let mut want: Vec<(DataPoint, f64)> = points
                .iter()
                .filter(|p| !obstacles.iter().any(|r| r.blocks(&Segment::new(s, p.pos))))
                .map(|p| (*p, p.pos.dist(s)))
                .collect();
            want.sort_by(|a, b| a.1.total_cmp(&b.1));
            assert_eq!(got.len(), want.len(), "s = {s}");
            for ((gp, gd), (wp, wd)) in got.iter().zip(&want) {
                assert_eq!(gp.id, wp.id, "s = {s}");
                assert!((gd - wd).abs() < 1e-9);
            }
        }
    }
}
