//! Obstructed reverse nearest neighbor — the paper's §6 closing future-work
//! item ("obstructed reverse nearest neighbor search").
//!
//! `ORNN(s)` returns every data point `p` whose obstructed NN *within the
//! data set* would be displaced by `s`: formally, `‖p, s‖ < ‖p, p′‖` for
//! all `p′ ∈ P ∖ {p}`. A facility placed at `s` would capture exactly
//! these points.
//!
//! Filter-refine scheme (both phases on the shared R-trees):
//!
//! 1. **Filter.** For each `p`, compute an *upper bound* `ub(p)` on its
//!    obstructed NN distance: the obstructed distance to its Euclidean
//!    nearest neighbor. Since `‖p, s‖ ≥ dist(p, s)`, any `p` with
//!    `dist(p, s) > ub(p)` can never be reversed to `s` and is dropped.
//! 2. **Refine.** For survivors, compare the exact `‖p, s‖` against the
//!    exact obstructed NN distance (pairwise, through the obstacle loader
//!    of [`crate::odist`] on the engine workspace's one growing graph).

use conn_geom::{Point, Rect};
use conn_index::RStarTree;

use crate::engine::QueryEngine;
use crate::stats::QueryStats;
use crate::types::DataPoint;

impl QueryEngine {
    /// All data points that would adopt a facility at `s` as their
    /// obstructed nearest neighbor, with their obstructed distances to `s`.
    /// Every pairwise distance resolves on the reused workspace's one
    /// growing graph.
    pub fn rnn(
        &mut self,
        data_tree: &RStarTree<DataPoint>,
        obstacle_tree: &RStarTree<Rect>,
        s: Point,
    ) -> (Vec<(DataPoint, f64)>, QueryStats) {
        self.point_family(obstacle_tree, |resolver, data_io| {
            let mut out: Vec<(DataPoint, f64)> = Vec::new();
            let mut npe = 0u64;

            // iterate candidates nearest-to-s first: they are the likeliest RNNs
            let candidates: Vec<DataPoint> = data_tree
                .nearest_iter_metered(s, data_io)
                .map(|(p, _)| p)
                .collect();
            for p in candidates {
                npe += 1;
                // ---- filter: ub(p) = odist(p, euclid-NN of p in P ∖ {p})
                let euclid_nn = data_tree
                    .nearest_iter_metered(p.pos, data_io)
                    .find(|(other, _)| other.id != p.id);
                let Some((nn, _)) = euclid_nn else {
                    // singleton data set: s wins by default
                    let d = resolver.resolve(p.pos, s);
                    if d.is_finite() {
                        out.push((p, d));
                    }
                    continue;
                };
                let ub = resolver.resolve(p.pos, nn.pos);
                if p.pos.dist(s) > ub {
                    continue; // s cannot beat p's best-in-set upper bound
                }
                // ---- refine: exact comparison
                let d_s = resolver.resolve(p.pos, s);
                if !d_s.is_finite() {
                    continue;
                }
                // exact obstructed NN distance of p within the set: scan
                // candidates in ascending euclidean order until the lower
                // bound passes d_s
                let mut beaten = false;
                for (other, lower) in data_tree.nearest_iter_metered(p.pos, data_io) {
                    if other.id == p.id {
                        continue;
                    }
                    if lower > d_s {
                        break; // even the euclidean lower bound exceeds s's distance
                    }
                    // ties count: s must be *strictly* closer than every other point
                    if resolver.resolve(p.pos, other.pos) <= d_s {
                        beaten = true;
                        break;
                    }
                }
                if !beaten {
                    out.push((p, d_s));
                }
            }

            out.sort_by(|a, b| a.1.total_cmp(&b.1).then(a.0.id.cmp(&b.0.id)));
            let tuples = out.len() as u64;
            (out, npe, tuples)
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::baseline::obstructed_distance;

    fn brute_rnn(points: &[DataPoint], obstacles: &[Rect], s: Point) -> Vec<u32> {
        let mut out = Vec::new();
        for p in points {
            let d_s = obstructed_distance(obstacles, p.pos, s);
            if !d_s.is_finite() {
                continue;
            }
            let best_other = points
                .iter()
                .filter(|o| o.id != p.id)
                .map(|o| obstructed_distance(obstacles, p.pos, o.pos))
                .fold(f64::INFINITY, f64::min);
            if d_s < best_other {
                out.push(p.id);
            }
        }
        out.sort_unstable();
        out
    }

    fn check(points: Vec<DataPoint>, obstacles: Vec<Rect>, s: Point) {
        let dt = RStarTree::bulk_load(points.clone(), 4096);
        let ot = RStarTree::bulk_load(obstacles.clone(), 4096);
        let (got, _) = QueryEngine::default().rnn(&dt, &ot, s);
        let mut got_ids: Vec<u32> = got.iter().map(|(p, _)| p.id).collect();
        got_ids.sort_unstable();
        let want = brute_rnn(&points, &obstacles, s);
        assert_eq!(got_ids, want, "s = {s}");
        for (p, d) in &got {
            let true_d = obstructed_distance(&obstacles, p.pos, s);
            assert!((d - true_d).abs() < 1e-6);
        }
    }

    #[test]
    fn free_space_rnn_matches_brute_force() {
        let points = vec![
            DataPoint::new(0, Point::new(10.0, 0.0)),
            DataPoint::new(1, Point::new(20.0, 0.0)),
            DataPoint::new(2, Point::new(100.0, 0.0)),
            DataPoint::new(3, Point::new(104.0, 3.0)),
        ];
        // s between the two clusters: captures nobody (cluster members are
        // mutually closer)…
        check(points.clone(), vec![], Point::new(60.0, 0.0));
        // …but s placed right next to a lone point captures it
        check(points, vec![], Point::new(9.0, 0.0));
    }

    #[test]
    fn obstacle_flips_reverse_relation() {
        // p's set-NN is across a wall; an s on p's side captures it
        let points = vec![
            DataPoint::new(0, Point::new(10.0, 40.0)),
            DataPoint::new(1, Point::new(10.0, 0.0)),
        ];
        let wall = Rect::new(-60.0, 15.0, 80.0, 25.0);
        let s = Point::new(28.0, 44.0);
        // sanity: euclid(p0, p1) = 40 < euclid(p0, s) ≈ 18.4? no: 18.4 < 40.
        // make it interesting: s slightly farther in euclid than p1 but
        // nearer in obstructed terms
        let s_far = Point::new(10.0, 85.0); // euclid 45 > 40, no wall between
        let dt = RStarTree::bulk_load(points.clone(), 4096);
        let ot = RStarTree::bulk_load(vec![wall], 4096);
        let (got, _) = QueryEngine::default().rnn(&dt, &ot, s_far);
        // p0's obstructed distance to p1 is a long detour around the wall
        let d01 = obstructed_distance(&[wall], points[0].pos, points[1].pos);
        assert!(d01 > 45.0, "wall must make the in-set NN expensive: {d01}");
        assert!(got.iter().any(|(p, _)| p.id == 0), "{got:?}");
        check(points, vec![wall], s);
    }

    #[test]
    fn randomized_agreement_with_brute_force() {
        let mut pts = Vec::new();
        for i in 0..18u32 {
            pts.push(DataPoint::new(
                i,
                Point::new((i as f64 * 53.7) % 200.0, (i as f64 * 97.3) % 200.0),
            ));
        }
        let obstacles = vec![
            Rect::new(40.0, 40.0, 70.0, 90.0),
            Rect::new(120.0, 10.0, 135.0, 150.0),
        ];
        for s in [
            Point::new(0.0, 0.0),
            Point::new(100.0, 100.0),
            Point::new(199.0, 20.0),
        ] {
            check(pts.clone(), obstacles.clone(), s);
        }
    }

    #[test]
    fn empty_and_singleton_sets() {
        let dt: RStarTree<DataPoint> = RStarTree::bulk_load(vec![], 4096);
        let ot: RStarTree<Rect> = RStarTree::bulk_load(vec![], 4096);
        let (got, _) = QueryEngine::default().rnn(&dt, &ot, Point::new(0.0, 0.0));
        assert!(got.is_empty());

        let one = vec![DataPoint::new(0, Point::new(5.0, 5.0))];
        let dt = RStarTree::bulk_load(one, 4096);
        let (got, _) = QueryEngine::default().rnn(&dt, &ot, Point::new(0.0, 0.0));
        assert_eq!(got.len(), 1, "a singleton always adopts the facility");
    }
}
