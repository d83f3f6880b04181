//! Trajectory workload generation for the session layer.
//!
//! The single-query generators of [`crate::queries`] model one client
//! asking one question; [`trajectory_routes`] models clients *moving along
//! routes* — chains of connected legs with bounded turning angle, each leg
//! a CONN query segment as in the paper's trajectory extension.
//!
//! It rejection-samples against the obstacle field exactly like
//! [`crate::queries::query_segments`], and is deterministic in its seed.

use conn_geom::{Point, Rect, Segment};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

use crate::lookup::ObstacleLookup;
use crate::{SPACE, SPACE_SIDE};

/// Generates `count` polyline routes of exactly `legs` connected legs each
/// (vertex chains of `legs + 1` points), for the trajectory-session
/// workloads: every leg has length `ql_frac × SPACE_SIDE`, turns by at
/// most ±45°, and avoids obstacle interiors — the paper's convention for
/// query segments. Deterministic in `seed`.
///
/// Every returned route is complete: chains that dead-end against
/// obstacles are abandoned and resampled.
pub fn trajectory_routes(
    count: usize,
    legs: usize,
    ql_frac: f64,
    seed: u64,
    obstacles: &[Rect],
) -> Vec<Vec<Point>> {
    assert!(legs >= 1, "trajectories need at least one leg");
    assert!(ql_frac > 0.0 && ql_frac < 1.0, "ql out of range");
    let lookup = ObstacleLookup::build(obstacles);
    let mut rng = StdRng::seed_from_u64(seed ^ 0x6C62_272E_07BB_0142);
    let len = ql_frac * SPACE_SIDE;
    let mut out = Vec::with_capacity(count);
    let mut rejected = 0usize;
    while out.len() < count {
        let first = loop {
            match sample_segment(&mut rng, None, len, &lookup) {
                Some(seg) => break seg,
                None => {
                    rejected += 1;
                    assert!(
                        rejected < 200_000 * count.max(10),
                        "route generation stalled: obstacle field too dense"
                    );
                }
            }
        };
        let mut verts = vec![first.a, first.b];
        let mut heading = (first.b.y - first.a.y).atan2(first.b.x - first.a.x);
        let mut cursor = first.b;
        let mut complete = true;
        for _ in 1..legs {
            let mut placed = false;
            for attempt in 0..96 {
                // prefer gentle ±45° turns; widen toward a full U-turn when
                // the chain is stuck against an obstacle or the space
                // boundary (long routes would otherwise dead-end forever)
                let half_range = (std::f64::consts::FRAC_PI_4 * (1.0 + attempt as f64 / 16.0))
                    .min(std::f64::consts::PI);
                let turn = rng.gen_range(-half_range..half_range);
                let theta = heading + turn;
                if let Some(seg) = sample_segment(&mut rng, Some((cursor, theta)), len, &lookup) {
                    heading = theta;
                    cursor = seg.b;
                    verts.push(seg.b);
                    placed = true;
                    break;
                }
                rejected += 1;
            }
            if !placed {
                complete = false; // dead end: abandon and resample the route
                break;
            }
        }
        if complete {
            out.push(verts);
        }
    }
    out
}

/// One rejection-sampling attempt. `fixed_start` pins start point and
/// heading (trajectory legs after the first).
fn sample_segment(
    rng: &mut StdRng,
    fixed_start: Option<(Point, f64)>,
    len: f64,
    lookup: &ObstacleLookup,
) -> Option<Segment> {
    let (s, theta) = match fixed_start {
        Some((s, theta)) => (s, theta),
        None => {
            let s = Point::new(
                rng.gen_range(SPACE.min_x..SPACE.max_x),
                rng.gen_range(SPACE.min_y..SPACE.max_y),
            );
            (s, rng.gen_range(0.0..std::f64::consts::TAU))
        }
    };
    let e = Point::new(s.x + len * theta.cos(), s.y + len * theta.sin());
    let seg = Segment::new(s, e);
    let ok = SPACE.contains(s)
        && SPACE.contains(e)
        && !lookup.point_in_interior(s)
        && !lookup.point_in_interior(e)
        && !lookup.segment_blocked(&seg);
    ok.then_some(seg)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::obstacles::la_like;
    use conn_geom::EPS;

    #[test]
    fn trajectory_routes_are_complete_chains() {
        let obstacles = la_like(200, 21);
        let lookup = ObstacleLookup::build(&obstacles);
        let routes = trajectory_routes(8, 5, 0.03, 17, &obstacles);
        assert_eq!(routes.len(), 8);
        for verts in &routes {
            assert_eq!(verts.len(), 6, "5 legs = 6 vertices");
            for w in verts.windows(2) {
                let leg = conn_geom::Segment::new(w[0], w[1]);
                assert!((leg.len() - 0.03 * SPACE_SIDE).abs() < EPS);
                assert!(!lookup.segment_blocked(&leg), "leg crosses an obstacle");
            }
        }
        // deterministic
        let again = trajectory_routes(8, 5, 0.03, 17, &obstacles);
        assert_eq!(routes, again);
    }
}
