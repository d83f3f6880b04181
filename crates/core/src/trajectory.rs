//! Trajectory CONN — the first future-work item of the paper's §6:
//! "retrieving the ONN of every point on a specified moving trajectory that
//! consists of several consecutive line segments".
//!
//! A trajectory query ([`crate::Query::trajectory`]) is Algorithm 4 run
//! once per leg at the route's `k`, the legs' result lists stitched into
//! one list over cumulative arclength. The legs share nothing, so each runs
//! as an ordinary COkNN query (CONN is its `k = 1`) and the exactness
//! argument holds leg by leg. The service runs a complete route's legs in
//! order on one engine, or, for a lone `execute`, on the pool's idle
//! workers; a [`crate::TrajectorySession`] runs them one at a time as the
//! client reports them. All three run each leg as one `coknn` call and
//! share one stitch (`rlu.rs`'s `stitch`), which re-bases each leg onto
//! cumulative arclength, snaps per-leg float drift at the shared vertices,
//! and merges adjacent entries only when their members and control points
//! are equal. So every stitched entry keeps its control points, and a
//! [`TrajectoryResult`] gives distances at every `k`.
//!
//! The `trajectory_session` proptests check sessions against
//! [`crate::baseline::brute_force_oknn`] over the whole obstacle list,
//! which shares no search state with the leg loop.

#![expect(
    clippy::indexing_slicing,
    reason = "leg/vertex indices are bounded by the constructor-validated vertex count"
)]

use conn_geom::{Interval, Point, Segment};

use crate::rlu::{KnnEntry, KnnResultList};
use crate::types::DataPoint;

/// A polyline trajectory: consecutive line segments through `vertices`.
#[derive(Debug, Clone)]
pub struct Trajectory {
    vertices: Vec<Point>,
    /// cumulative arclength at each vertex (`cum[0] = 0`)
    cum: Vec<f64>,
}

impl Trajectory {
    /// Builds a trajectory; needs ≥ 2 vertices and no degenerate leg.
    /// Panics on invalid input — [`Trajectory::try_new`] is the checked
    /// variant the typed query API builds on.
    #[expect(
        clippy::panic,
        reason = "the documented panicking constructor; try_new is the checked variant"
    )]
    pub fn new(vertices: Vec<Point>) -> Self {
        Trajectory::try_new(vertices).unwrap_or_else(|e| panic!("{e}"))
    }

    /// Checked constructor: rejects fewer than 2 vertices, non-finite
    /// coordinates and degenerate (zero-length) legs with
    /// [`Error::InvalidQuery`](crate::Error::InvalidQuery).
    pub fn try_new(vertices: Vec<Point>) -> Result<Self, crate::Error> {
        if vertices.len() < 2 {
            return Err(crate::Error::invalid_query(
                "trajectory needs at least two vertices",
            ));
        }
        let mut cum = Vec::with_capacity(vertices.len());
        cum.push(0.0);
        for w in vertices.windows(2) {
            if !w[1].x.is_finite()
                || !w[1].y.is_finite()
                || !w[0].x.is_finite()
                || !w[0].y.is_finite()
            {
                return Err(crate::Error::invalid_query("non-finite trajectory vertex"));
            }
            let leg = Segment::new(w[0], w[1]);
            if leg.is_degenerate() {
                return Err(crate::Error::invalid_query("degenerate trajectory leg"));
            }
            #[expect(clippy::unwrap_used, reason = "cum is seeded with 0.0 before the loop")]
            cum.push(cum.last().unwrap() + leg.len());
        }
        Ok(Trajectory { vertices, cum })
    }

    /// The polyline vertices.
    pub fn vertices(&self) -> &[Point] {
        &self.vertices
    }

    /// Number of legs (segments).
    pub fn num_legs(&self) -> usize {
        self.vertices.len() - 1
    }

    /// Total arclength.
    #[expect(
        clippy::unwrap_used,
        reason = "cum is non-empty for every constructed trajectory"
    )]
    pub fn len(&self) -> f64 {
        *self.cum.last().unwrap()
    }

    /// Whether the trajectory has zero arclength. Derived from [`Self::len`]
    /// for the `len`/`is_empty` idiom; by construction (≥ 2 vertices, no
    /// degenerate leg) this is always `false`.
    pub fn is_empty(&self) -> bool {
        self.len() == 0.0
    }

    /// The `i`-th leg as a segment.
    pub fn leg(&self, i: usize) -> Segment {
        Segment::new(self.vertices[i], self.vertices[i + 1])
    }

    /// Cumulative arclength offset of leg `i`.
    pub fn leg_offset(&self, i: usize) -> f64 {
        self.cum[i]
    }

    /// The point at cumulative arclength `t ∈ [0, len]` (clamped; a NaN
    /// parameter maps to the start — `clamp` propagates NaN, which would
    /// otherwise send `binary_search_by` to `Err(0)` and underflow `i - 1`).
    pub fn at(&self, t: f64) -> Point {
        let t = if t.is_nan() {
            0.0
        } else {
            // `+ 0.0` normalizes -0.0, which `clamp` keeps and `total_cmp`
            // orders before cum[0] = 0.0 (the same Err(0) underflow)
            t.clamp(0.0, self.len()) + 0.0
        };
        let i = match self.cum.binary_search_by(|c| c.total_cmp(&t)) {
            Ok(i) => i.min(self.num_legs() - 1),
            Err(i) => i - 1,
        };
        let i = i.min(self.num_legs() - 1);
        self.leg(i).at(t - self.cum[i])
    }
}

/// Answer of a trajectory query at any `k`: one result list of
/// `⟨ONNS, R⟩` tuples over the trajectory's cumulative arclength, each
/// member with the control point its distance comes from. Statistics are
/// summed over the legs (each leg is one Algorithm-4 run).
///
/// ```
/// use conn_core::{ConnService, DataPoint, Query, Scene, Trajectory};
/// use conn_geom::Point;
///
/// let service = ConnService::new(Scene::new(
///     vec![
///         DataPoint::new(0, Point::new(10.0, 30.0)),
///         DataPoint::new(1, Point::new(100.0, 60.0)),
///     ],
///     vec![],
/// ));
/// let route = Trajectory::new(vec![
///     Point::new(0.0, 0.0),
///     Point::new(100.0, 0.0),
///     Point::new(100.0, 80.0),
/// ]);
///
/// let response = service.execute(&Query::trajectory(route.clone(), 1).build()?)?;
/// let plan = response.answer.as_trajectory().expect("trajectory answer");
/// plan.check_cover().unwrap();
/// let (first, d) = plan.nn_at(0.0).unwrap();
/// assert_eq!((first.id, d), (0, Point::new(0.0, 0.0).dist(first.pos)));
/// assert_eq!(plan.nn_at(route.len()).unwrap().0.id, 1);
/// # Ok::<(), conn_core::Error>(())
/// ```
#[derive(Debug, Clone)]
pub struct TrajectoryResult {
    trajectory: Trajectory,
    list: KnnResultList,
}

impl TrajectoryResult {
    pub(crate) fn new(trajectory: Trajectory, list: KnnResultList) -> Self {
        let res = TrajectoryResult { trajectory, list };
        // Sanitizer choke point: every route answer passes through this
        // constructor, so the cover audit sees all of them.
        if conn_geom::sanitize::enabled() {
            if let Err(e) = res.check_cover() {
                conn_geom::sanitize::violation("TrajectoryResult cover", &e.to_string());
            }
        }
        res
    }

    /// The route the result answers.
    pub fn trajectory(&self) -> &Trajectory {
        &self.trajectory
    }

    /// The `k` the query asked for.
    pub fn k(&self) -> usize {
        self.list.k()
    }

    /// Raw tuples at control-point granularity (R in cumulative arclength).
    pub fn entries(&self) -> &[KnnEntry] {
        self.list.entries()
    }

    /// The nearest member's `⟨p, R⟩` tuples with adjacent intervals of the
    /// same point merged (R in cumulative arclength). `None` marks
    /// intervals with no reachable data point.
    pub fn segments(&self) -> Vec<(Option<DataPoint>, Interval)> {
        self.list.segments()
    }

    /// The k nearest data points (ascending obstructed distance) at
    /// cumulative arclength `t`.
    pub fn knn_at(&self, t: f64) -> Vec<(DataPoint, f64)> {
        self.list.knn_at(t, self.trajectory.at(t))
    }

    /// The ONN at cumulative arclength `t` with its obstructed distance.
    pub fn nn_at(&self, t: f64) -> Option<(DataPoint, f64)> {
        self.list.nn_at(t, self.trajectory.at(t))
    }

    /// Split points in cumulative arclength (the nearest point changes
    /// only here).
    pub fn split_points(&self) -> Vec<f64> {
        self.list.split_points()
    }

    /// Validation: tuples cover `[0, len]` without gaps, and every tuple
    /// has strictly positive width.
    pub fn check_cover(&self) -> Result<(), crate::Error> {
        let entries = self.entries();
        if let Some(e) = entries.iter().find(|e| e.interval.hi <= e.interval.lo) {
            return Err(crate::Error::cover_violation(format!(
                "empty tuple at {}",
                e.interval.lo
            )));
        }
        self.list.check_cover()
    }
}

#[cfg(test)]
pub(crate) mod tests {
    use super::*;
    use crate::baseline::brute_force_oknn;
    use crate::{ConnService, Query, QueryStats, Scene};
    use conn_geom::Rect;
    use conn_index::RStarTree;

    fn trajectory(
        dt: &RStarTree<DataPoint>,
        ot: &RStarTree<Rect>,
        route: &Trajectory,
        k: usize,
    ) -> (TrajectoryResult, QueryStats) {
        let query = Query::trajectory(route.clone(), k).build().unwrap();
        let resp = ConnService::new(Scene::borrowing(dt, ot))
            .execute(&query)
            .unwrap();
        (resp.answer.into_trajectory().unwrap(), resp.stats)
    }

    fn l_shape() -> Trajectory {
        Trajectory::new(vec![
            Point::new(0.0, 0.0),
            Point::new(100.0, 0.0),
            Point::new(100.0, 80.0),
        ])
    }

    #[test]
    fn parameterization_across_legs() {
        let t = l_shape();
        assert_eq!(t.num_legs(), 2);
        assert_eq!(t.len(), 180.0);
        assert_eq!(t.at(0.0), Point::new(0.0, 0.0));
        assert_eq!(t.at(100.0), Point::new(100.0, 0.0));
        assert_eq!(t.at(140.0), Point::new(100.0, 40.0));
        assert_eq!(t.at(180.0), Point::new(100.0, 80.0));
        // clamping
        assert_eq!(t.at(-5.0), Point::new(0.0, 0.0));
        assert_eq!(t.at(500.0), Point::new(100.0, 80.0));
    }

    /// Regression: `at` used to underflow on NaN (`clamp` propagates NaN,
    /// `binary_search_by` answers `Err(0)`, then `i - 1` wraps) and on
    /// -0.0 (`total_cmp` orders it before `cum[0] = 0.0`).
    #[test]
    fn at_guards_non_finite_parameters() {
        let t = l_shape();
        assert_eq!(t.at(f64::NAN), Point::new(0.0, 0.0));
        assert_eq!(t.at(-0.0), Point::new(0.0, 0.0));
        assert_eq!(t.at(f64::NEG_INFINITY), Point::new(0.0, 0.0));
        assert_eq!(t.at(f64::INFINITY), Point::new(100.0, 80.0));
    }

    #[test]
    fn is_empty_is_derived_from_length() {
        let t = l_shape();
        assert!(!t.is_empty());
        assert!(t.len() > 0.0);
    }

    #[test]
    #[should_panic]
    fn rejects_single_vertex() {
        let _ = Trajectory::new(vec![Point::new(0.0, 0.0)]);
    }

    #[test]
    #[should_panic]
    fn rejects_degenerate_leg() {
        let _ = Trajectory::new(vec![
            Point::new(0.0, 0.0),
            Point::new(0.0, 0.0),
            Point::new(1.0, 1.0),
        ]);
    }

    /// The scene of the brute-force checks: three points, two obstacles.
    fn scene() -> (Vec<DataPoint>, Vec<Rect>) {
        let points = vec![
            DataPoint::new(0, Point::new(20.0, 30.0)),
            DataPoint::new(1, Point::new(80.0, -20.0)),
            DataPoint::new(2, Point::new(130.0, 50.0)),
        ];
        let obstacles = vec![
            Rect::new(40.0, 10.0, 60.0, 25.0),
            Rect::new(110.0, 20.0, 120.0, 60.0),
        ];
        (points, obstacles)
    }

    /// The route's `knn_at`, at its entry midpoints and on a 48-step grid,
    /// is brute force's `k` nearest: the same count, each distance within
    /// 1e-6 (which absorbs exact ties).
    pub(crate) fn assert_matches_brute_force(
        res: &TrajectoryResult,
        points: &[DataPoint],
        obstacles: &[Rect],
    ) {
        let traj = res.trajectory();
        let mut ts: Vec<f64> = res
            .entries()
            .iter()
            .map(|e| e.interval.midpoint())
            .collect();
        ts.extend((0..=48).map(|i| traj.len() * f64::from(i) / 48.0));
        for t in ts {
            let got = res.knn_at(t);
            let want = brute_force_oknn(points, obstacles, traj.at(t), res.k());
            assert_eq!(got.len(), want.len(), "t = {t}");
            for ((g, gd), (w, wd)) in got.iter().zip(&want) {
                assert!(
                    (gd - wd).abs() < 1e-6,
                    "t = {t}: {} ({gd}) vs {} ({wd})",
                    g.id,
                    w.id
                );
            }
        }
    }

    #[test]
    fn trajectory_conn_matches_brute_force() {
        let (points, obstacles) = scene();
        let dt = RStarTree::bulk_load(points.clone(), 4096);
        let ot = RStarTree::bulk_load(obstacles.clone(), 4096);
        let (res, stats) = trajectory(&dt, &ot, &l_shape(), 1);
        res.check_cover().unwrap();
        assert!(stats.npe >= 3, "per-leg runs accumulate NPE");
        assert_matches_brute_force(&res, &points, &obstacles);
    }

    #[test]
    fn joint_merging_collapses_same_answer() {
        // a single point: both legs answer it → one stitched tuple
        let points = vec![DataPoint::new(0, Point::new(50.0, 40.0))];
        let dt = RStarTree::bulk_load(points, 4096);
        let ot: RStarTree<Rect> = RStarTree::bulk_load(vec![], 4096);
        let (res, stats) = trajectory(&dt, &ot, &l_shape(), 1);
        assert_eq!(res.entries().len(), 1);
        assert_eq!(
            stats.result_tuples, 1,
            "a route counts its stitched entries"
        );
        assert_eq!(res.segments().len(), 1);
        assert_eq!(res.split_points().len(), 0);
    }

    /// A k = 2 route is one answer over arclength, with distances.
    #[test]
    fn trajectory_coknn_matches_brute_force() {
        let (points, obstacles) = scene();
        let dt = RStarTree::bulk_load(points.clone(), 4096);
        let ot = RStarTree::bulk_load(obstacles.clone(), 4096);
        let (res, stats) = trajectory(&dt, &ot, &l_shape(), 2);
        res.check_cover().unwrap();
        assert_eq!(res.k(), 2);
        assert!(stats.npe >= 3);
        assert_eq!(stats.result_tuples, res.entries().len() as u64);
        assert_matches_brute_force(&res, &points, &obstacles);
    }
}
