//! Trajectory CONN — the first future-work item of the paper's §6:
//! "retrieving the ONN of every point on a specified moving trajectory that
//! consists of several consecutive line segments".
//!
//! A trajectory query ([`crate::Query::trajectory`]) is Algorithm 4 run
//! once per leg, the per-leg result lists stitched into one answer
//! parameterized by cumulative arclength. The legs share nothing, so each
//! runs as an ordinary CONN/COkNN query and the exactness argument holds
//! leg by leg. The service runs a complete route's legs in order on one
//! engine, or, for a lone `execute`, on the pool's idle workers; a
//! [`crate::TrajectorySession`] runs them one at a time as the client
//! reports them. All three share one leg runner and one assembly, which
//! stitches the legs in leg order. The stitching
//! re-indexes parameters into cumulative arclength, merges equal answers
//! across the joints, and absorbs sub-`EPS` slivers produced by per-leg
//! float drift at the shared vertices.
//!
//! The `trajectory_session` proptests check sessions against
//! [`crate::baseline::brute_force_oknn`] over the whole obstacle list,
//! which shares no search state with the leg loop.

#![expect(
    clippy::indexing_slicing,
    reason = "leg/vertex indices are bounded by the constructor-validated vertex count"
)]

use conn_geom::{Interval, Point, Segment, EPS};

use crate::error::check_cover;
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

/// Answer of a trajectory CONN query: `⟨point, interval⟩` tuples over the
/// trajectory's cumulative arclength. Statistics are summed over the legs
/// (each leg is one Algorithm-4 run).
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
/// assert_eq!(plan.nn_at(0.0).unwrap().id, 0);
/// assert_eq!(plan.nn_at(route.len()).unwrap().id, 1);
/// # Ok::<(), conn_core::Error>(())
/// ```
#[derive(Debug, Clone)]
pub struct TrajectoryResult {
    trajectory: Trajectory,
    segments: Vec<(Option<DataPoint>, Interval)>,
}

impl TrajectoryResult {
    pub(crate) fn new(
        trajectory: Trajectory,
        segments: Vec<(Option<DataPoint>, Interval)>,
    ) -> Self {
        TrajectoryResult {
            trajectory,
            segments,
        }
    }

    /// The route the result answers.
    pub fn trajectory(&self) -> &Trajectory {
        &self.trajectory
    }

    /// The stitched `⟨p, R⟩` tuples (R in cumulative arclength).
    pub fn segments(&self) -> &[(Option<DataPoint>, Interval)] {
        &self.segments
    }

    /// The ONN at cumulative arclength `t` — identity only. The stitched
    /// tuples do not retain the per-leg control points, so the obstructed
    /// distance is not stored here; re-derive it with a
    /// [`crate::Query::odist`] against the trajectory point, or run a
    /// [`crate::Query::conn`] per leg when distances are needed along a
    /// whole leg.
    pub fn nn_at(&self, t: f64) -> Option<DataPoint> {
        self.segments
            .iter()
            .find(|(_, iv)| iv.contains(t))
            .and_then(|(p, _)| *p)
    }

    /// Split points in cumulative arclength (answer changes only here).
    pub fn split_points(&self) -> Vec<f64> {
        self.segments.windows(2).map(|w| w[0].1.hi).collect()
    }

    /// Validation: tuples cover `[0, len]` without gaps, and every tuple
    /// has strictly positive width — the stitcher must never emit the
    /// zero-width slivers that per-leg float drift can produce at joints.
    pub fn check_cover(&self) -> Result<(), crate::Error> {
        if let Some((_, iv)) = self.segments.iter().find(|(_, iv)| iv.hi <= iv.lo) {
            return Err(crate::Error::cover_violation(format!(
                "empty tuple at {}",
                iv.lo
            )));
        }
        check_cover(
            self.segments.iter().map(|(_, iv)| *iv),
            self.trajectory.len(),
        )
    }
}

/// Appends one leg's merged `⟨p, R⟩` tuples (leg-local parameters) onto a
/// stitched cumulative list covering `[0, end]`.
///
/// Joint hygiene lives here: every interval is re-based onto the running
/// cursor, so per-leg float drift at a shared vertex (a leg's cover ending
/// at `len ± 1e-9`) snaps instead of leaking as a gap or a zero-width
/// sliver; equal answers merge across the joint; and tuples narrower than
/// `EPS` are absorbed into a neighbor — at such a boundary the two answers
/// tie to within `EPS`, so the absorbed answer is correct there.
pub(crate) fn stitch_leg(
    out: &mut Vec<(Option<DataPoint>, Interval)>,
    leg: &[(Option<DataPoint>, Interval)],
    offset: f64,
    end: f64,
) {
    let mut cursor = offset;
    for (i, (p, iv)) in leg.iter().enumerate() {
        let hi = if i + 1 == leg.len() {
            // the leg's last tuple closes exactly at the joint — but only
            // genuine float drift may be absorbed; a leg result that
            // under-covers its segment is a kernel bug the stitcher must
            // not paper over
            debug_assert!(
                (offset + iv.hi - end).abs() <= 1e-6,
                "leg cover ends at {} instead of {} — not joint drift",
                offset + iv.hi,
                end
            );
            end
        } else {
            let raw = offset + iv.hi;
            let clamped = raw.clamp(cursor, end);
            debug_assert!(
                (raw - clamped).abs() <= 1e-6,
                "mid-leg tuple boundary {raw} re-based by more than drift to {clamped}"
            );
            clamped
        };
        push_stitched(out, *p, Interval { lo: cursor, hi });
        cursor = hi;
    }
}

fn push_stitched(out: &mut Vec<(Option<DataPoint>, Interval)>, p: Option<DataPoint>, iv: Interval) {
    let Some((last_p, last_iv)) = out.last_mut() else {
        out.push((p, iv));
        return;
    };
    if last_p.map(|x| x.id) == p.map(|x| x.id) {
        // same answer persists across the boundary: extend
        last_iv.hi = last_iv.hi.max(iv.hi);
        return;
    }
    if iv.hi - iv.lo < EPS {
        // incoming sub-EPS sliver: absorb into the previous tuple
        last_iv.hi = last_iv.hi.max(iv.hi);
        return;
    }
    if last_iv.hi - last_iv.lo < EPS {
        // the previous tuple was a (leading) sliver: hand its span to the
        // incoming tuple, re-checking the merge against the new last
        let lo = last_iv.lo;
        out.pop();
        push_stitched(out, p, Interval::new(lo, iv.hi));
        return;
    }
    out.push((p, iv));
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::baseline::{brute_force_oknn, obstructed_distance};
    use crate::{ConnService, Query, QueryStats, Scene};
    use conn_geom::Rect;
    use conn_index::RStarTree;

    fn trajectory_conn(
        dt: &RStarTree<DataPoint>,
        ot: &RStarTree<Rect>,
        route: &Trajectory,
    ) -> (TrajectoryResult, QueryStats) {
        let query = Query::trajectory(route.clone(), 1).build().unwrap();
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

    /// Regression: joint drift used to leak zero-width sliver tuples into
    /// the stitched list. The stitcher must re-base intervals onto the
    /// running cursor, absorb sub-EPS tuples, and close each leg exactly
    /// at its joint.
    #[test]
    fn stitching_absorbs_joint_slivers() {
        let pa = Some(DataPoint::new(0, Point::new(0.0, 0.0)));
        let pb = Some(DataPoint::new(1, Point::new(1.0, 0.0)));
        let mut out: Vec<(Option<DataPoint>, Interval)> = Vec::new();
        // leg 1 ends with float overshoot past its true length 100
        stitch_leg(
            &mut out,
            &[
                (pa, Interval::new(0.0, 60.0)),
                (pb, Interval::new(60.0, 100.0 + 3e-8)),
            ],
            0.0,
            100.0,
        );
        // leg 2 opens with a sub-EPS sliver of the *old* answer before
        // switching — the classic disagreement at the shared vertex
        stitch_leg(
            &mut out,
            &[
                (pb, Interval::new(0.0, 4e-8)),
                (pa, Interval::new(4e-8, 80.0)),
            ],
            100.0,
            180.0,
        );
        assert_eq!(out.len(), 3, "sliver must merge, not stand alone: {out:?}");
        let mut cursor = 0.0;
        for (_, iv) in &out {
            assert!(iv.hi > iv.lo, "empty tuple {iv:?}");
            assert_eq!(iv.lo, cursor, "gap/overlap at {cursor}");
            cursor = iv.hi;
        }
        assert_eq!(cursor, 180.0);

        // a leading sliver with a different successor hands its span over
        let mut lead: Vec<(Option<DataPoint>, Interval)> = Vec::new();
        stitch_leg(
            &mut lead,
            &[
                (pa, Interval::new(0.0, 2e-8)),
                (pb, Interval::new(2e-8, 50.0)),
            ],
            0.0,
            50.0,
        );
        assert_eq!(lead.len(), 1);
        assert_eq!(lead[0].0.map(|p| p.id), Some(1));
        assert_eq!((lead[0].1.lo, lead[0].1.hi), (0.0, 50.0));
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

    #[test]
    fn trajectory_conn_matches_brute_force() {
        let points = vec![
            DataPoint::new(0, Point::new(20.0, 30.0)),
            DataPoint::new(1, Point::new(80.0, -20.0)),
            DataPoint::new(2, Point::new(130.0, 50.0)),
        ];
        let obstacles = vec![
            Rect::new(40.0, 10.0, 60.0, 25.0),
            Rect::new(110.0, 20.0, 120.0, 60.0),
        ];
        let dt = RStarTree::bulk_load(points.clone(), 4096);
        let ot = RStarTree::bulk_load(obstacles.clone(), 4096);
        let traj = l_shape();
        let (res, stats) = trajectory_conn(&dt, &ot, &traj);
        res.check_cover().unwrap();
        assert!(stats.npe >= 3, "per-leg runs accumulate NPE");
        for i in 0..=36 {
            let t = traj.len() * (i as f64) / 36.0;
            let want = brute_force_oknn(&points, &obstacles, traj.at(t), 1);
            let got = res.nn_at(t);
            match (got, want.first()) {
                (Some(g), Some((w, wd))) => {
                    if g.id != w.id {
                        // only acceptable under a tie
                        let gd = obstructed_distance(&obstacles, g.pos, traj.at(t));
                        assert!((gd - wd).abs() < 1e-6, "t={t}: {} vs {}", g.id, w.id);
                    }
                }
                (g, w) => assert_eq!(g.is_none(), w.is_none(), "t = {t}"),
            }
        }
    }

    #[test]
    fn joint_merging_collapses_same_answer() {
        // a single point: both legs answer it → one stitched tuple
        let points = vec![DataPoint::new(0, Point::new(50.0, 40.0))];
        let dt = RStarTree::bulk_load(points, 4096);
        let ot: RStarTree<Rect> = RStarTree::bulk_load(vec![], 4096);
        let (res, _) = trajectory_conn(&dt, &ot, &l_shape());
        assert_eq!(res.segments().len(), 1);
        assert_eq!(res.split_points().len(), 0);
    }

    #[test]
    fn trajectory_coknn_per_leg_results() {
        let points = vec![
            DataPoint::new(0, Point::new(20.0, 30.0)),
            DataPoint::new(1, Point::new(80.0, -20.0)),
            DataPoint::new(2, Point::new(130.0, 50.0)),
        ];
        let dt = RStarTree::bulk_load(points, 4096);
        let ot: RStarTree<Rect> = RStarTree::bulk_load(vec![], 4096);
        let traj = l_shape();
        let query = Query::trajectory(traj, 2).build().unwrap();
        let resp = ConnService::new(Scene::borrowing(&dt, &ot))
            .execute(&query)
            .unwrap();
        let legs = resp.answer.as_trajectory_knn().unwrap();
        assert_eq!(legs.len(), 2);
        assert!(resp.stats.npe >= 3);
        for leg in legs {
            leg.check_cover().unwrap();
            assert_eq!(leg.knn_at(10.0).len(), 2);
        }
    }
}
