//! Control points (paper Definition 8) and the distance functions they
//! induce over the query segment.
//!
//! A control point `cp` of data point `p` over interval `R ⊆ q` satisfies:
//! the shortest path from `p` to any `s ∈ R` passes through `cp`, and `cp`
//! is visible from all of `R`. Consequently the obstructed distance
//! restricted to `R` collapses to
//!
//! ```text
//! ‖p, q(t)‖ = ‖p, cp‖ + dist(cp, q(t))
//! ```
//!
//! — a constant plus a point-to-segment Euclidean distance, i.e. one branch
//! of a hyperbola in the arclength parameter `t`. All split-point reasoning
//! operates on these functions.

use conn_geom::{Interval, Point, Segment};

/// A control point with its accumulated obstructed distance from the data
/// point it serves (`base = ‖p, cp‖`).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ControlPoint {
    /// Position of the control point (paper Def. 8: `p` itself or an
    /// obstacle vertex on the shortest path).
    pub pos: Point,
    /// Obstructed distance from the data point to this control point.
    pub base: f64,
}

impl ControlPoint {
    /// A control point at `pos` whose path back to the data point has
    /// length `base`.
    pub fn new(pos: Point, base: f64) -> Self {
        debug_assert!(base >= 0.0, "negative path length");
        ControlPoint { pos, base }
    }

    /// The control point of a directly-visible data point: itself, at cost 0.
    pub fn direct(pos: Point) -> Self {
        ControlPoint { pos, base: 0.0 }
    }

    /// `‖p, q(t)‖` under this control point.
    #[inline]
    pub fn value(&self, q: &Segment, t: f64) -> f64 {
        self.base + self.pos.dist(q.at(t))
    }

    /// Maximum of the distance function over an interval. The Euclidean
    /// part is convex in `t`, so the maximum sits at an endpoint — this is
    /// the quantity inside the paper's `RLMAX` / `CPLMAX` bounds.
    #[inline]
    pub fn max_over(&self, q: &Segment, iv: &Interval) -> f64 {
        self.value(q, iv.lo).max(self.value(q, iv.hi))
    }

    /// Two control points are interchangeable when they sit at the same
    /// place with the same accumulated cost.
    pub fn same_as(&self, other: &ControlPoint) -> bool {
        self.pos.dist(other.pos) <= conn_geom::EPS
            && (self.base - other.base).abs() <= conn_geom::EPS
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn q() -> Segment {
        Segment::new(Point::new(0.0, 0.0), Point::new(100.0, 0.0))
    }

    #[test]
    fn value_is_base_plus_euclid() {
        let cp = ControlPoint::new(Point::new(30.0, 40.0), 7.0);
        assert_eq!(cp.value(&q(), 30.0), 47.0);
        assert_eq!(cp.value(&q(), 0.0), 57.0);
    }

    #[test]
    fn direct_has_zero_base() {
        let cp = ControlPoint::direct(Point::new(10.0, 10.0));
        assert_eq!(cp.base, 0.0);
        assert_eq!(cp.value(&q(), 10.0), 10.0);
    }

    #[test]
    fn extrema_over_interval() {
        let cp = ControlPoint::new(Point::new(50.0, 30.0), 0.0);
        let iv = Interval::new(20.0, 90.0);
        // min at the projection t = 50, below both endpoints
        assert_eq!(cp.value(&q(), 50.0), 30.0);
        assert!(cp.value(&q(), 20.0) > 30.0 && cp.value(&q(), 90.0) > 30.0);
        // max at the farther endpoint: |90-50| = 40 > |20-50| = 30 → t = 90
        assert_eq!(cp.max_over(&q(), &iv), cp.value(&q(), 90.0));
        // past the projection the function rises: the max is the far end
        let iv2 = Interval::new(60.0, 90.0);
        assert_eq!(cp.max_over(&q(), &iv2), cp.value(&q(), 90.0));
    }

    #[test]
    fn max_is_really_at_an_endpoint() {
        let cp = ControlPoint::new(Point::new(37.0, 21.0), 3.0);
        let iv = Interval::new(10.0, 80.0);
        let m = cp.max_over(&q(), &iv);
        for i in 0..=50 {
            let t = 10.0 + 70.0 * (i as f64) / 50.0;
            assert!(cp.value(&q(), t) <= m + 1e-9);
        }
    }

    #[test]
    fn same_as_tolerates_eps() {
        let a = ControlPoint::new(Point::new(1.0, 1.0), 5.0);
        let b = ControlPoint::new(Point::new(1.0, 1.0 + 1e-9), 5.0 + 1e-9);
        assert!(a.same_as(&b));
        assert!(!a.same_as(&ControlPoint::new(Point::new(1.0, 2.0), 5.0)));
    }
}
