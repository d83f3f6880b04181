//! Quadratic-based split-point computation (paper §3, Theorem 1, Lemma 1).
//!
//! Given two control-point distance functions over an interval of `q`,
//!
//! ```text
//! F(t) = A + dist(a, q(t))        (incumbent)
//! G(t) = B + dist(b, q(t))        (challenger)
//! ```
//!
//! their crossings satisfy `dist(a, q(t)) − dist(b, q(t)) = B − A`, the
//! paper's Equation (1). Squaring twice yields a quadratic in `t` with at
//! most two real roots (Theorem 1) — the *split points*. Because squaring
//! introduces spurious roots and the paper's Cases 1–4 depend on a
//! coordinate frame with many degenerate special cases, this implementation
//! solves the same quadratic and then (a) verifies every candidate root
//! against the unsquared equation and (b) classifies the elementary
//! sub-intervals by midpoint evaluation. The output is therefore exactly the
//! Case 1–4 partition, computed robustly.

#![expect(
    clippy::indexing_slicing,
    reason = "indices derive from lengths computed in the same function (enumerate, push-then-access, partition bounds)"
)]

use conn_geom::{solve_quadratic, Interval, Segment, EPS};

use crate::dist::ControlPoint;

/// Which function wins (is the smaller) on a sub-interval.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum Winner {
    /// The incumbent `F` keeps the sub-interval (ties favour it).
    Incumbent,
    /// The challenger `G` takes the sub-interval.
    Challenger,
}

/// Partition of `iv` into maximal sub-intervals with a constant winner.
///
/// `f` is the incumbent and wins ties. The pieces are returned in ascending
/// order and exactly cover `iv`.
#[expect(
    clippy::unwrap_used,
    reason = "out is only unwrapped in the non-empty branch of the emptiness check"
)]
pub(crate) fn split(
    q: &Segment,
    f: &ControlPoint,
    g: &ControlPoint,
    iv: Interval,
) -> Vec<(Interval, Winner)> {
    debug_assert!(!iv.is_empty());
    let mut cuts = crossing_params(q, f, g, &iv);
    cuts.push(iv.lo);
    cuts.push(iv.hi);
    cuts.sort_by(f64::total_cmp);
    cuts.dedup_by(|a, b| (*a - *b).abs() <= EPS);

    let mut out: Vec<(Interval, Winner)> = Vec::with_capacity(cuts.len());
    for w in cuts.windows(2) {
        let piece = Interval::new(w[0], w[1]);
        if piece.is_empty() {
            continue;
        }
        let mid = piece.midpoint();
        let winner = if f.value(q, mid) <= g.value(q, mid) + EPS {
            Winner::Incumbent
        } else {
            Winner::Challenger
        };
        match out.last_mut() {
            Some((prev, pw)) if *pw == winner => prev.hi = piece.hi,
            _ => out.push((piece, winner)),
        }
    }
    if out.is_empty() {
        // iv was a sliver below EPS resolution; incumbent keeps it
        out.push((iv, Winner::Incumbent));
    } else {
        // make the partition exactly cover iv
        out.first_mut().unwrap().0.lo = iv.lo;
        out.last_mut().unwrap().0.hi = iv.hi;
    }
    out
}

/// The candidate split parameters inside `iv` where `F(t) = G(t)`
/// (paper Equation 1, at most two — Theorem 1).
pub(crate) fn crossing_params(
    q: &Segment,
    f: &ControlPoint,
    g: &ControlPoint,
    iv: &Interval,
) -> Vec<f64> {
    // frame coordinates: x along q (arclength), y perpendicular
    let (ax, ay) = q.to_frame(f.pos);
    let (bx, by) = q.to_frame(g.pos);
    let d = g.base - f.base; // solve dist(a,·) − dist(b,·) = d

    // L(t) = dist²(a) − dist²(b) is linear: alpha·t + beta
    let alpha = 2.0 * (bx - ax);
    let beta = ax * ax + ay * ay - bx * bx - by * by;

    let mut candidates: Vec<f64> = Vec::with_capacity(2);
    let scale = 1.0 + iv.hi.abs().max(f.base).max(g.base);
    if d.abs() <= EPS {
        // dist(a,·) = dist(b,·): the perpendicular-bisector crossing, linear
        if alpha.abs() > EPS {
            candidates.push(-beta / alpha);
        }
    } else {
        // (L − d²)² = 4 d² · dist²(b,·)
        let c2 = alpha * alpha - 4.0 * d * d;
        let c1 = 2.0 * alpha * (beta - d * d) + 8.0 * d * d * bx;
        let c0 = (beta - d * d) * (beta - d * d) - 4.0 * d * d * (bx * bx + by * by);
        candidates.extend(solve_quadratic(c2, c1, c0));
    }

    // verify against the unsquared equation and clamp into the interval
    let tol = 1e-7 * scale;
    let mut out = Vec::with_capacity(2);
    for t in candidates {
        if !t.is_finite() || t < iv.lo - EPS || t > iv.hi + EPS {
            continue;
        }
        let t = t.clamp(iv.lo, iv.hi);
        let lhs = f.pos.dist(q.at(t)) - g.pos.dist(q.at(t));
        if (lhs - d).abs() <= tol {
            out.push(t);
        }
    }
    out
}

/// Lemma 1 fast path: the incumbent certainly wins everywhere on `iv` when
/// it wins at both endpoints **and** its control point lies no farther from
/// the query line than the challenger's.
///
/// (The perpendicular-distance condition makes `G − F` quasi-concave on the
/// line, so its minimum over the interval is at an endpoint — the paper's
/// Figure 4(b) shape argument.)
pub(crate) fn lemma1_incumbent_wins(
    q: &Segment,
    f: &ControlPoint,
    g: &ControlPoint,
    iv: &Interval,
) -> bool {
    let (_, ay) = q.to_frame(f.pos);
    let (_, by) = q.to_frame(g.pos);
    ay.abs() <= by.abs() + EPS
        && f.value(q, iv.lo) <= g.value(q, iv.lo) + EPS
        && f.value(q, iv.hi) <= g.value(q, iv.hi) + EPS
}

#[cfg(test)]
mod tests {
    use super::*;
    use conn_geom::Point;

    fn q() -> Segment {
        Segment::new(Point::new(0.0, 0.0), Point::new(100.0, 0.0))
    }

    fn check_partition(pieces: &[(Interval, Winner)], iv: &Interval) {
        assert!((pieces.first().unwrap().0.lo - iv.lo).abs() < 1e-9);
        assert!((pieces.last().unwrap().0.hi - iv.hi).abs() < 1e-9);
        for w in pieces.windows(2) {
            assert!((w[0].0.hi - w[1].0.lo).abs() < 1e-9, "gap in partition");
            assert_ne!(w[0].1, w[1].1, "unmerged adjacent pieces");
        }
    }

    /// Case 3 analogue: equal bases, symmetric points → one split at the
    /// bisector.
    #[test]
    fn single_split_at_perpendicular_bisector() {
        let f = ControlPoint::new(Point::new(20.0, 10.0), 0.0);
        let g = ControlPoint::new(Point::new(80.0, 10.0), 0.0);
        let iv = Interval::new(0.0, 100.0);
        let pieces = split(&q(), &f, &g, iv);
        check_partition(&pieces, &iv);
        assert_eq!(pieces.len(), 2);
        assert_eq!(pieces[0].1, Winner::Incumbent);
        assert_eq!(pieces[1].1, Winner::Challenger);
        assert!((pieces[0].0.hi - 50.0).abs() < 1e-6);
    }

    /// Case 2 analogue: challenger with head start loses only a middle
    /// pocket around the incumbent's projection → two split points.
    #[test]
    fn two_splits_center_pocket() {
        // incumbent very close to the line at the centre
        let f = ControlPoint::new(Point::new(50.0, 5.0), 0.0);
        // challenger far to the side but with smaller total cost at the ends
        let g = ControlPoint::new(Point::new(50.0, 40.0), -0.0);
        // give the challenger a base *discount* is impossible (bases >= 0),
        // instead pull it closer in base: f pays a detour premium
        let f = ControlPoint::new(f.pos, 20.0);
        let iv = Interval::new(0.0, 100.0);
        let pieces = split(&q(), &f, &g, iv);
        check_partition(&pieces, &iv);
        // F(50) = 25 < G(50) = 40; F(0) = 20+√(2500+25) ≈ 70.2 > G(0) ≈ 64
        assert_eq!(pieces.len(), 3);
        assert_eq!(pieces[0].1, Winner::Challenger);
        assert_eq!(pieces[1].1, Winner::Incumbent);
        assert_eq!(pieces[2].1, Winner::Challenger);
    }

    /// Case 1 analogue: challenger dominates everywhere.
    #[test]
    fn challenger_sweeps() {
        let f = ControlPoint::new(Point::new(50.0, 80.0), 100.0);
        let g = ControlPoint::new(Point::new(50.0, 10.0), 0.0);
        let iv = Interval::new(0.0, 100.0);
        let pieces = split(&q(), &f, &g, iv);
        assert_eq!(pieces.len(), 1);
        assert_eq!(pieces[0].1, Winner::Challenger);
    }

    /// Case 4 analogue: incumbent dominates everywhere; ties go incumbent.
    #[test]
    fn incumbent_holds_and_wins_ties() {
        let f = ControlPoint::new(Point::new(50.0, 10.0), 0.0);
        let g = ControlPoint::new(Point::new(50.0, 10.0), 0.0); // identical
        let iv = Interval::new(0.0, 100.0);
        let pieces = split(&q(), &f, &g, iv);
        assert_eq!(pieces.len(), 1);
        assert_eq!(pieces[0].1, Winner::Incumbent);
    }

    #[test]
    fn split_agrees_with_dense_sampling() {
        // a grid of configurations, validated pointwise
        let configs = [
            ((10.0, 5.0, 0.0), (90.0, 15.0, 0.0)),
            ((30.0, 25.0, 12.0), (60.0, 8.0, 3.0)),
            ((50.0, 1.0, 40.0), (50.0, 60.0, 0.0)),
            ((0.0, 10.0, 5.0), (100.0, 10.0, 5.0)),
            ((20.0, -30.0, 2.0), (80.0, 30.0, 2.0)), // opposite sides
        ];
        let iv = Interval::new(0.0, 100.0);
        for ((fx, fy, fb), (gx, gy, gb)) in configs {
            let f = ControlPoint::new(Point::new(fx, fy), fb);
            let g = ControlPoint::new(Point::new(gx, gy), gb);
            let pieces = split(&q(), &f, &g, iv);
            check_partition(&pieces, &iv);
            for i in 0..=200 {
                let t = 100.0 * (i as f64) / 200.0;
                let fv = f.value(&q(), t);
                let gv = g.value(&q(), t);
                if (fv - gv).abs() < 1e-4 {
                    continue; // too close to a crossing for a strict check
                }
                let piece = pieces.iter().find(|(p, _)| p.contains(t)).unwrap();
                let expect = if fv < gv {
                    Winner::Incumbent
                } else {
                    Winner::Challenger
                };
                // at piece boundaries containment is ambiguous within EPS
                let near_cut = (t - piece.0.lo).abs() < 1e-4 || (t - piece.0.hi).abs() < 1e-4;
                if !near_cut {
                    assert_eq!(piece.1, expect, "t={t} f={fv} g={gv}");
                }
            }
        }
    }

    #[test]
    fn crossing_params_match_equation() {
        let f = ControlPoint::new(Point::new(20.0, 10.0), 4.0);
        let g = ControlPoint::new(Point::new(70.0, 25.0), 1.0);
        let iv = Interval::new(0.0, 100.0);
        for t in crossing_params(&q(), &f, &g, &iv) {
            assert!((f.value(&q(), t) - g.value(&q(), t)).abs() < 1e-6);
        }
    }

    #[test]
    fn at_most_two_crossings_theorem1() {
        // randomized-ish sweep over configurations
        let mut k = 0.37_f64;
        for _ in 0..500 {
            k = (k * 997.13).fract();
            let f = ControlPoint::new(Point::new(k * 100.0, 50.0 * (k - 0.5)), k * 30.0);
            let g = ControlPoint::new(
                Point::new((1.0 - k) * 100.0, 35.0 * (0.3 - k)),
                (1.0 - k) * 20.0,
            );
            let n = crossing_params(&q(), &f, &g, &Interval::new(0.0, 100.0)).len();
            assert!(n <= 2, "got {n} crossings");
        }
    }

    #[test]
    fn lemma1_shortcut_never_contradicts_split() {
        let mut k = 0.11_f64;
        let iv = Interval::new(0.0, 100.0);
        for _ in 0..500 {
            k = (k * 613.71).fract();
            let f = ControlPoint::new(Point::new(k * 100.0, 20.0 * k), k * 10.0);
            let g = ControlPoint::new(
                Point::new(100.0 - 90.0 * k, 30.0 * k + 5.0),
                15.0 * (1.0 - k),
            );
            if lemma1_incumbent_wins(&q(), &f, &g, &iv) {
                let pieces = split(&q(), &f, &g, iv);
                assert!(
                    pieces.iter().all(|(_, w)| *w == Winner::Incumbent),
                    "lemma 1 unsound for f={f:?} g={g:?}: {pieces:?}"
                );
            }
        }
    }

    #[test]
    fn degenerate_vertical_and_parallel_configs() {
        // [u,v] vertical to q (a = 0 in the paper's frame)
        let f = ControlPoint::new(Point::new(50.0, 10.0), 0.0);
        let g = ControlPoint::new(Point::new(50.0, 30.0), 0.0);
        let iv = Interval::new(0.0, 100.0);
        let pieces = split(&q(), &f, &g, iv);
        assert_eq!(pieces.len(), 1);
        assert_eq!(pieces[0].1, Winner::Incumbent);
        // [u,v] parallel to q with equal offsets (b = c)
        let f = ControlPoint::new(Point::new(30.0, 20.0), 0.0);
        let g = ControlPoint::new(Point::new(70.0, 20.0), 0.0);
        let pieces = split(&q(), &f, &g, iv);
        check_partition(&pieces, &iv);
        assert_eq!(pieces.len(), 2);
        assert!((pieces[0].0.hi - 50.0).abs() < 1e-6);
    }
}
