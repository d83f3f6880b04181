//! Comparators shared by the equivalence suites: how an answer of the
//! obstacle loader is held against the whole-field oracle.

use conn_datasets::ObstacleLookup;
use conn_geom::{Point, Segment};

/// Distances agree at 1e-9 relative (`∞` only with `∞`). Not bitwise: the
/// loader searches a subset of the field goal-directed, the oracle the
/// whole field blind, so two equal-length paths through different corners
/// may each be found and sum to values a few ULPs apart.
pub fn close(x: f64, y: f64) -> bool {
    (x.is_infinite() && y.is_infinite()) || (x - y).abs() <= 1e-9 * x.abs().max(y.abs()).max(1.0)
}

/// A route answer is right when it runs from `a` to `b`, no leg crosses an
/// obstacle interior and the legs sum to `dist` — *which* shortest path it
/// is does not matter (the rule the cross-kernel checks already follow).
pub fn check_route(
    lookup: &ObstacleLookup,
    (a, b): (Point, Point),
    dist: f64,
    path: Option<&[Point]>,
) -> Result<(), String> {
    let Some(path) = path else {
        return if dist.is_infinite() {
            Ok(())
        } else {
            Err(format!("finite distance {dist} without a path"))
        };
    };
    if path.first() != Some(&a) || path.last() != Some(&b) {
        return Err(format!("path {path:?} does not run from {a} to {b}"));
    }
    let mut sum = 0.0;
    for leg in path.windows(2) {
        let seg = Segment::new(leg[0], leg[1]);
        if lookup.segment_blocked(&seg) {
            return Err(format!("leg {seg:?} crosses an obstacle"));
        }
        sum += seg.len();
    }
    if !close(sum, dist) {
        return Err(format!("legs sum to {sum}, answer says {dist}"));
    }
    Ok(())
}
