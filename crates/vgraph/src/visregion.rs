//! Visible region of a viewpoint over the query segment (paper Def. 2).
//!
//! Each obstacle casts a "shadow" on `q`: the set of parameters `t` whose
//! sight-line from the viewpoint crosses the obstacle's interior. The
//! visible region is `[0, len]` minus all shadows.
//!
//! Shadow boundaries can only occur where (a) the ray from the viewpoint
//! through an obstacle *corner* crosses `q`, or (b) the obstacle itself cuts
//! `q`. We collect those candidate parameters, then classify each elementary
//! interval by testing its midpoint with the robust interior-crossing
//! predicate ([`Rect::blocks`], one sight test per interval) — no fragile
//! case analysis.

#![expect(
    clippy::indexing_slicing,
    reason = "indices derive from lengths computed in the same function (enumerate, push-then-access, partition bounds)"
)]

use conn_geom::{Interval, IntervalSet, Point, Rect, Segment, EPS};

use crate::graph::VisGraph;

impl VisGraph {
    /// Visible region of `viewpoint` over `q` against the local obstacle
    /// set, as an interval set in `q`'s arclength parameter.
    pub fn visible_region(&mut self, viewpoint: Point, q: &Segment) -> IntervalSet {
        let mut candidates = self.take_vr_ids();
        let mut rects = self.take_vr_rects();
        // any blocking obstacle must touch the triangle (viewpoint, S, E);
        // the bounding box of that triangle is a safe, cheap superset
        let hull = Rect::from_segment(q).union(&Rect::from_point(viewpoint));
        self.grid_mut().candidates_in_rect(&hull, &mut candidates);
        rects.clear();
        rects.extend(candidates.iter().map(|&id| self.obstacles()[id as usize]));
        let (vr, tests) = visible_region_counted(viewpoint, q, &rects);
        self.grid_mut().add_sight_tests(tests);
        self.put_vr_scratch(candidates, rects);
        vr
    }
}

/// Visible region of `viewpoint` over `q` against an explicit obstacle list.
pub fn visible_region(viewpoint: Point, q: &Segment, obstacles: &[Rect]) -> IntervalSet {
    visible_region_counted(viewpoint, q, obstacles).0
}

/// Like [`visible_region`], also returning the number of midpoint sight
/// tests performed (the attributable unit of shadow classification work).
pub(crate) fn visible_region_counted(
    viewpoint: Point,
    q: &Segment,
    obstacles: &[Rect],
) -> (IntervalSet, u64) {
    let len = q.len();
    let mut visible = IntervalSet::single(Interval::new(0.0, len));
    let mut scratch = ShadowScratch::default();
    let mut tests = 0u64;
    for r in obstacles {
        if visible.is_empty() {
            break;
        }
        tests += shadow_of(viewpoint, q, r, &mut scratch, &mut visible);
    }
    (visible, tests)
}

/// Reused buffer of the per-obstacle shadow classification: its candidate
/// cut parameters.
#[derive(Default)]
struct ShadowScratch {
    cuts: Vec<f64>,
}

/// Subtracts the shadow of a single obstacle from `visible`; returns the
/// number of midpoint sight tests spent.
fn shadow_of(
    viewpoint: Point,
    q: &Segment,
    r: &Rect,
    scratch: &mut ShadowScratch,
    visible: &mut IntervalSet,
) -> u64 {
    let len = q.len();
    let cuts = &mut scratch.cuts;
    cuts.clear();
    cuts.push(0.0);
    cuts.push(len);
    // (a) rays viewpoint → corner
    for c in r.corners() {
        if let Some(t) = q.line_intersection_param(viewpoint, c) {
            cuts.push(t);
        }
    }
    // (b) the obstacle cutting q itself
    if let Some((t0, t1)) = r.clip_segment(q) {
        cuts.push(t0 * len);
        cuts.push(t1 * len);
    }
    cuts.sort_by(f64::total_cmp);
    // one sight test per elementary interval, at its midpoint
    let mut tests = 0u64;
    for w in cuts.windows(2) {
        let (lo, hi) = (w[0], w[1]);
        if hi - lo <= EPS {
            continue;
        }
        let mid = q.at((lo + hi) / 2.0);
        tests += 1;
        if r.blocks(&Segment::new(viewpoint, mid)) {
            visible.subtract_interval(&Interval::new(lo, hi));
        }
    }
    tests
}

#[cfg(test)]
mod tests {
    use super::*;

    fn q_horizontal() -> Segment {
        Segment::new(Point::new(0.0, 0.0), Point::new(100.0, 0.0))
    }

    #[test]
    fn no_obstacles_everything_visible() {
        let vr = visible_region(Point::new(50.0, 50.0), &q_horizontal(), &[]);
        assert_eq!(vr.intervals(), &[Interval::new(0.0, 100.0)]);
    }

    #[test]
    fn single_square_casts_one_shadow() {
        // viewpoint above; square between viewpoint and segment
        let vp = Point::new(50.0, 100.0);
        let r = Rect::new(45.0, 40.0, 55.0, 60.0);
        let vr = visible_region(vp, &q_horizontal(), &[r]);
        // the silhouette corners (widest angle from vp) are the TOP corners
        // (45,60)/(55,60); extending those rays to y = 0:
        // x = 50 ± 5 · (100 − 0)/(100 − 60) = 50 ± 12.5
        let left = 37.5;
        let right = 62.5;
        assert_eq!(vr.intervals().len(), 2);
        assert!((vr.intervals()[0].hi - left).abs() < 1e-6, "{:?}", vr);
        assert!((vr.intervals()[1].lo - right).abs() < 1e-6, "{:?}", vr);
    }

    #[test]
    fn obstacle_behind_viewpoint_casts_nothing() {
        let vp = Point::new(50.0, 50.0);
        let r = Rect::new(45.0, 80.0, 55.0, 90.0); // above the viewpoint
        let vr = visible_region(vp, &q_horizontal(), &[r]);
        assert_eq!(vr.total_len(), 100.0);
    }

    #[test]
    fn obstacle_beyond_segment_casts_nothing() {
        let vp = Point::new(50.0, 50.0);
        let r = Rect::new(45.0, -90.0, 55.0, -40.0); // below the segment
        let vr = visible_region(vp, &q_horizontal(), &[r]);
        assert_eq!(vr.total_len(), 100.0);
    }

    #[test]
    fn two_obstacles_merge_shadows() {
        let vp = Point::new(50.0, 100.0);
        let rs = [
            Rect::new(20.0, 40.0, 40.0, 60.0),
            Rect::new(60.0, 40.0, 80.0, 60.0),
        ];
        let vr = visible_region(vp, &q_horizontal(), &rs);
        // three visible islands at most: far left, centre gap, far right
        assert!(vr.intervals().len() <= 3);
        let total = vr.total_len();
        assert!(total > 0.0 && total < 100.0);
        // centre of the segment is visible through the gap
        assert!(vr.contains(50.0));
    }

    #[test]
    fn viewpoint_on_segment_sees_everything_locally() {
        let vp = Point::new(30.0, 0.0);
        let r = Rect::new(45.0, 10.0, 55.0, 20.0); // off-segment, no blocking
        let vr = visible_region(vp, &q_horizontal(), &[r]);
        assert_eq!(vr.total_len(), 100.0);
    }

    #[test]
    fn obstacle_straddling_segment_blocks_far_side() {
        // obstacle crosses q; viewpoint on the left must lose the part of q
        // strictly behind the obstacle
        let vp = Point::new(0.0, 0.0);
        let r = Rect::new(40.0, -10.0, 60.0, 10.0);
        let vr = visible_region(vp, &q_horizontal(), &[r]);
        // [0, 40] visible; (40, 60) inside obstacle → sight-line enters
        // interior; (60, 100] hidden behind
        assert!(vr.contains(20.0));
        assert!(!vr.contains(50.0));
        assert!(!vr.contains(80.0));
        assert!((vr.total_len() - 40.0).abs() < 1e-6, "{vr:?}");
    }

    #[test]
    fn shadow_matches_brute_force_sampling() {
        // compare midpoint-classified shadows to dense per-point tests
        let vp = Point::new(37.0, 77.0);
        let rs = [
            Rect::new(10.0, 20.0, 30.0, 45.0),
            Rect::new(55.0, 30.0, 70.0, 50.0),
            Rect::new(40.0, -20.0, 50.0, 5.0),
        ];
        let q = q_horizontal();
        let vr = visible_region(vp, &q, &rs);
        for i in 0..=1000 {
            let t = 100.0 * (i as f64) / 1000.0;
            let sight = Segment::new(vp, q.at(t));
            let blocked = rs.iter().any(|r| r.blocks(&sight));
            // skip points within EPS of a boundary between intervals
            let near_boundary = vr
                .intervals()
                .iter()
                .any(|iv| (t - iv.lo).abs() < 1e-3 || (t - iv.hi).abs() < 1e-3);
            if !near_boundary {
                assert_eq!(vr.contains(t), !blocked, "t = {t}");
            }
        }
    }

    #[test]
    fn graph_visible_region_uses_local_obstacles() {
        let mut g = VisGraph::new(50.0);
        let q = q_horizontal();
        g.add_obstacle(Rect::new(45.0, 40.0, 55.0, 60.0));
        let vr = g.visible_region(Point::new(50.0, 100.0), &q);
        assert!(vr.total_len() < 100.0);
        assert!(vr.contains(0.0) && vr.contains(100.0));
    }
}
