//! Query-segment workload generation.
//!
//! Paper §5.1: "The starting point and the orientation (in [0, 2π)) of the
//! query line segment are randomly generated, while its length is controlled
//! by the parameter ql" (a percentage of the space side). The query segment
//! models a movement trajectory — nobody drives through a building — so
//! segments crossing obstacle interiors are rejection-resampled. The
//! library answers crossing segments exactly — no data point reaches the
//! stretch inside an obstacle, and that stretch does not hold the search
//! open — but the *workload* avoids them.

use conn_geom::{Point, Rect, Segment};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

use crate::lookup::ObstacleLookup;
use crate::{SPACE, SPACE_SIDE};

/// Generates one query segment of length `ql_frac × SPACE_SIDE`.
pub fn query_segment(ql_frac: f64, seed: u64, obstacles: &[Rect]) -> Segment {
    query_segments(1, ql_frac, seed, obstacles)
        .pop()
        .expect("one segment")
}

/// Generates `count` query segments of length `ql_frac × SPACE_SIDE`
/// (e.g. `ql_frac = 0.045` for the paper default of 4.5 %).
///
/// Dense fields (the paper-scale LA set covers a large fraction of the
/// space) can make a full-length unblocked placement vanishingly rare, so
/// the sampler adapts: after every `SHRINK_AFTER` consecutive rejections
/// the candidate length shrinks by `SHRINK`, down to a floor of 5 % of
/// the request. The schedule depends only on the rejection count, so the
/// workload stays deterministic in the seed; sparse fields never reject
/// enough to trigger it and keep exact-length segments.
pub fn query_segments(count: usize, ql_frac: f64, seed: u64, obstacles: &[Rect]) -> Vec<Segment> {
    /// Consecutive rejections before each length-shrink step.
    const SHRINK_AFTER: usize = 500;
    /// Per-step length factor.
    const SHRINK: f64 = 0.9;
    assert!(ql_frac > 0.0 && ql_frac < 1.0, "ql out of range");
    let lookup = ObstacleLookup::build(obstacles);
    let mut rng = StdRng::seed_from_u64(seed ^ 0xA076_1D64_78BD_642F);
    let len = ql_frac * SPACE_SIDE;
    let mut out = Vec::with_capacity(count);
    let mut rejected = 0usize;
    let mut streak = 0usize;
    while out.len() < count {
        let cur_len = (len * SHRINK.powi((streak / SHRINK_AFTER) as i32)).max(len * 0.05);
        let s = Point::new(
            rng.gen_range(SPACE.min_x..SPACE.max_x),
            rng.gen_range(SPACE.min_y..SPACE.max_y),
        );
        let theta = rng.gen_range(0.0..std::f64::consts::TAU);
        let e = Point::new(s.x + cur_len * theta.cos(), s.y + cur_len * theta.sin());
        let seg = Segment::new(s, e);
        let ok = SPACE.contains(e)
            && !lookup.point_in_interior(s)
            && !lookup.point_in_interior(e)
            && !lookup.segment_blocked(&seg);
        if ok {
            out.push(seg);
            streak = 0;
        } else {
            rejected += 1;
            streak += 1;
            assert!(
                rejected < 100_000 * count.max(10),
                "query generation stalled: obstacle field too dense"
            );
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::obstacles::la_like;
    use conn_geom::EPS;

    #[test]
    fn segments_have_requested_length_and_stay_inside() {
        let qs = query_segments(50, 0.045, 3, &[]);
        assert_eq!(qs.len(), 50);
        for q in &qs {
            assert!((q.len() - 450.0).abs() < EPS);
            assert!(SPACE.contains(q.a) && SPACE.contains(q.b));
        }
    }

    #[test]
    fn segments_avoid_obstacles() {
        let obstacles = la_like(600, 21);
        let lookup = ObstacleLookup::build(&obstacles);
        for q in query_segments(40, 0.06, 4, &obstacles) {
            assert!(!lookup.segment_blocked(&q));
        }
    }

    #[test]
    fn deterministic_in_seed() {
        let a = query_segments(10, 0.03, 5, &[]);
        let b = query_segments(10, 0.03, 5, &[]);
        assert_eq!(a.len(), b.len());
        for (x, y) in a.iter().zip(&b) {
            assert_eq!(x.a, y.a);
            assert_eq!(x.b, y.b);
        }
    }

    #[test]
    fn dense_field_terminates_with_shorter_segments() {
        // A near-solid grid of blocks with 20-unit corridors: a 450-unit
        // straight placement is essentially impossible, so the adaptive
        // shrink has to kick in for generation to terminate at all.
        let mut obstacles = Vec::new();
        for gx in 0..40 {
            for gy in 0..40 {
                let x = gx as f64 * 250.0;
                let y = gy as f64 * 250.0;
                obstacles.push(Rect::new(x, y, x + 230.0, y + 230.0));
            }
        }
        let lookup = ObstacleLookup::build(&obstacles);
        let qs = query_segments(5, 0.045, 7, &obstacles);
        assert_eq!(qs.len(), 5);
        for q in &qs {
            assert!(q.len() <= 450.0 + EPS, "longer than requested: {}", q.len());
            assert!(
                q.len() >= 0.05 * 450.0 - EPS,
                "below the floor: {}",
                q.len()
            );
            assert!(!lookup.segment_blocked(q));
        }
    }

    #[test]
    fn orientations_cover_the_circle() {
        let qs = query_segments(200, 0.045, 9, &[]);
        let mut quadrants = [0usize; 4];
        for q in &qs {
            let d = q.b - q.a;
            let idx = match (d.x >= 0.0, d.y >= 0.0) {
                (true, true) => 0,
                (false, true) => 1,
                (false, false) => 2,
                (true, false) => 3,
            };
            quadrants[idx] += 1;
        }
        for c in quadrants {
            assert!(c > 20, "orientation skew: {quadrants:?}");
        }
    }
}
