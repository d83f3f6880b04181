//! Trajectory sessions against an independent reference.
//!
//! A [`TrajectorySession`] runs each leg as an ordinary COkNN query (CONN
//! at k = 1) and stitches the results the way the service does, so
//! comparing it with the service's leg loop would check the stitching
//! against itself. The reference here is `brute_force_oknn` over the whole
//! obstacle list — one complete visibility graph, no tree, no obstacle
//! stream, no warm state — at sampled points of the route. For k = 1 both
//! the legs' answers, shifted to cumulative arclength, and the stitched
//! result must agree with it: same answer identities modulo exact ties,
//! distances within 1e-6, across kernels and across uniform/clustered
//! point layouts. For k = 2 each leg's and the stitched route's two
//! nearest neighbours must. Cover invariants (gap-free, no empty tuples)
//! are asserted on every generated trajectory, which doubles as the
//! multi-leg joint regression suite. A segment cut into equal pieces and
//! stitched must hold the whole segment's entries, control points
//! included.

use conn_core::baseline::{brute_force_oknn, obstructed_distance};
use conn_core::{
    ConnConfig, DataPoint, KernelMode, QueryEngine, Trajectory, TrajectoryResult, TrajectorySession,
};
use conn_geom::{Interval, Point, Rect, Segment};
use conn_index::RStarTree;
use proptest::prelude::*;

fn pt() -> impl Strategy<Value = Point> {
    (0.0..1000.0f64, 0.0..1000.0f64).prop_map(|(x, y)| Point::new(x, y))
}

/// Disjoint rectangles (overlapping candidates are dropped while building).
fn rects() -> impl Strategy<Value = Vec<Rect>> {
    prop::collection::vec((pt(), 5.0..80.0f64, 5.0..80.0f64), 0..10).prop_map(|specs| {
        let mut out: Vec<Rect> = Vec::new();
        for (p, w, h) in specs {
            let r = Rect::new(p.x, p.y, p.x + w, p.y + h);
            if !out.iter().any(|o| o.intersects(&r)) {
                out.push(r);
            }
        }
        out
    })
}

/// Uniform or hotspot-clustered data points outside obstacle interiors.
fn points(obstacles: Vec<Rect>) -> impl Strategy<Value = (Vec<Rect>, Vec<DataPoint>)> {
    (prop::collection::vec(pt(), 2..14), 0..2u8, pt()).prop_map(move |(raw, clustered, center)| {
        let clustered = clustered == 1;
        let ps = raw
            .iter()
            .map(|p| {
                if clustered {
                    // squeeze toward a hotspot: the clustered layout of
                    // the batch workloads
                    Point::new(
                        center.x + (p.x - 500.0) * 0.12,
                        center.y + (p.y - 500.0) * 0.12,
                    )
                } else {
                    *p
                }
            })
            .filter(|p| !obstacles.iter().any(|r| r.strictly_contains(*p)))
            .enumerate()
            .map(|(i, p)| DataPoint::new(i as u32, p))
            .collect();
        (obstacles.clone(), ps)
    })
}

/// A trajectory of 3–6 legs: a start plus bounded random steps, with legs
/// shorter than the space so the workload stays local.
fn route() -> impl Strategy<Value = Vec<Point>> {
    (
        pt(),
        prop::collection::vec((-160.0..160.0f64, -160.0..160.0f64), 3..7),
    )
        .prop_map(|(start, steps)| {
            let mut verts = vec![start];
            let mut cur = start;
            for (dx, dy) in steps {
                let (dx, dy) = if dx.abs() + dy.abs() < 1.0 {
                    (7.0, 5.0) // avoid degenerate legs
                } else {
                    (dx, dy)
                };
                cur = Point::new(
                    (cur.x + dx).clamp(0.0, 1000.0),
                    (cur.y + dy).clamp(0.0, 1000.0),
                );
                if cur.dist(*verts.last().unwrap()) > 1.0 {
                    verts.push(cur);
                }
            }
            if verts.len() < 2 {
                verts.push(Point::new(start.x + 10.0, start.y + 10.0));
            }
            verts
        })
}

type Scenario = (Vec<Rect>, Vec<DataPoint>, Vec<Point>);

fn scenario() -> impl Strategy<Value = Scenario> {
    rects()
        .prop_flat_map(points)
        .prop_flat_map(|(obstacles, ps)| {
            route().prop_map(move |verts| (obstacles.clone(), ps.clone(), verts))
        })
}

/// Same answer at `t`, or a tie: both reachable with obstructed distances
/// within `1e-6` of each other.
fn answers_agree(
    obstacles: &[Rect],
    traj: &Trajectory,
    t: f64,
    a: Option<DataPoint>,
    b: Option<DataPoint>,
) -> Result<(), TestCaseError> {
    match (a, b) {
        (None, None) => {}
        (Some(x), Some(y)) => {
            if x.id != y.id {
                let q = traj.at(t);
                let dx = obstructed_distance(obstacles, x.pos, q);
                let dy = obstructed_distance(obstacles, y.pos, q);
                prop_assert!(
                    (dx - dy).abs() < 1e-6,
                    "t = {t}: {} (d = {dx}) vs {} (d = {dy})",
                    x.id,
                    y.id
                );
            }
        }
        (a, b) => prop_assert!(false, "reachability diverged at t = {t}: {a:?} vs {b:?}"),
    }
    Ok(())
}

fn check_kernel(scn: &Scenario, kernel: KernelMode) -> Result<(), TestCaseError> {
    let (obstacles, ps, verts) = scn;
    let traj = Trajectory::new(verts.clone());
    let data_tree = RStarTree::bulk_load(ps.clone(), 4096);
    let obstacle_tree = RStarTree::bulk_load(obstacles.clone(), 4096);
    let cfg = ConnConfig {
        kernel,
        ..ConnConfig::default()
    };

    let mut session = TrajectorySession::new(&data_tree, &obstacle_tree, verts[0], 1, cfg);
    let mut concat: Vec<(Option<DataPoint>, Interval)> = Vec::new();
    for (i, &v) in verts[1..].iter().enumerate() {
        let leg = session.push_leg(v).unwrap().as_conn().unwrap();
        prop_assert!(leg.check_cover().is_ok(), "{:?}", leg.check_cover());
        // each leg's tuples, shifted to cumulative arclength
        let offset = traj.leg_offset(i);
        for (p, iv) in leg.segments() {
            prop_assert!(iv.hi > iv.lo, "empty leg tuple {iv:?}");
            concat.push((p, Interval::new(iv.lo + offset, iv.hi + offset)));
        }
    }
    let (answer, _) = session.finish().unwrap();
    let streamed = answer.into_trajectory().unwrap();
    prop_assert!(
        streamed.check_cover().is_ok(),
        "{:?}",
        streamed.check_cover()
    );

    // the shifted leg answers and the stitched result both match brute
    // force at sampled parameters (tuple midpoints of both plus an even
    // grid)
    let mut ts: Vec<f64> = Vec::new();
    for (_, iv) in concat.iter().chain(&streamed.segments()) {
        ts.push(iv.midpoint());
    }
    ts.extend((0..=48).map(|i| traj.len() * i as f64 / 48.0));
    for t in ts {
        let want = brute_force_oknn(ps, obstacles, traj.at(t), 1)
            .first()
            .copied();
        let got = streamed.nn_at(t);
        answers_agree(obstacles, &traj, t, want.map(|w| w.0), got.map(|g| g.0))?;
        if let (Some((_, wd)), Some((_, gd))) = (want, got) {
            prop_assert!((gd - wd).abs() < 1e-6, "t = {t}: distance {gd} vs {wd}");
        }
        let from_legs = concat
            .iter()
            .find(|(_, iv)| iv.contains(t))
            .and_then(|(p, _)| *p);
        answers_agree(obstacles, &traj, t, want.map(|w| w.0), from_legs)?;
    }
    Ok(())
}

/// The route's `knn_at`, at its entry midpoints and on a 48-step grid, is
/// brute force's `k` nearest: the same number of reachable points, each
/// distance within 1e-6 (which absorbs exact ties).
fn route_matches_brute_force(
    res: &TrajectoryResult,
    ps: &[DataPoint],
    obstacles: &[Rect],
) -> Result<(), TestCaseError> {
    let traj = res.trajectory();
    let mut ts: Vec<f64> = res
        .entries()
        .iter()
        .map(|e| e.interval.midpoint())
        .collect();
    ts.extend((0..=48).map(|i| traj.len() * f64::from(i) / 48.0));
    for t in ts {
        let got = res.knn_at(t);
        let want = brute_force_oknn(ps, obstacles, traj.at(t), res.k());
        prop_assert_eq!(got.len(), want.len(), "route at t = {}", t);
        for ((g, gd), (w, wd)) in got.iter().zip(&want) {
            prop_assert!(
                (gd - wd).abs() < 1e-6,
                "route at t = {t}: {} (d = {gd}) vs {} (d = {wd})",
                g.id,
                w.id
            );
        }
    }
    Ok(())
}

/// A k = 2 session: every leg's two nearest neighbours, at its tuple
/// midpoints and on a 12-step grid, are brute force's — the same number of
/// reachable points, each distance within 1e-6 (which absorbs exact ties).
fn check_coknn(scn: &Scenario) -> Result<(), TestCaseError> {
    const K: usize = 2;
    let (obstacles, ps, verts) = scn;
    let traj = Trajectory::new(verts.clone());
    let data_tree = RStarTree::bulk_load(ps.clone(), 4096);
    let obstacle_tree = RStarTree::bulk_load(obstacles.clone(), 4096);
    let mut session = TrajectorySession::new(
        &data_tree,
        &obstacle_tree,
        verts[0],
        K,
        ConnConfig::default(),
    );
    for (i, &v) in verts[1..].iter().enumerate() {
        let leg = session.push_leg(v).unwrap().as_coknn().unwrap();
        prop_assert!(leg.check_cover().is_ok(), "{:?}", leg.check_cover());
        let seg = traj.leg(i);
        let mut ts: Vec<f64> = leg
            .entries()
            .iter()
            .map(|e| e.interval.midpoint())
            .collect();
        ts.extend((0..=12).map(|j| seg.len() * j as f64 / 12.0));
        for t in ts {
            let got = leg.knn_at(t);
            let want = brute_force_oknn(ps, obstacles, seg.at(t), K);
            prop_assert_eq!(got.len(), want.len(), "leg {} at t = {}", i, t);
            for ((g, gd), (w, wd)) in got.iter().zip(&want) {
                prop_assert!(
                    (gd - wd).abs() < 1e-6,
                    "leg {i} at t = {t}: {} (d = {gd}) vs {} (d = {wd})",
                    g.id,
                    w.id
                );
            }
        }
    }
    let (answer, _) = session.finish().unwrap();
    let route = answer.into_trajectory().unwrap();
    prop_assert!(route.check_cover().is_ok(), "{:?}", route.check_cover());
    route_matches_brute_force(&route, ps, obstacles)
}

/// Within 1e-9 relative.
fn close(a: f64, b: f64) -> bool {
    (a - b).abs() <= 1e-9 * a.abs().max(b.abs()).max(1.0)
}

/// The route's first leg `q`, cut into `pieces` equal pieces run in order
/// on one engine and stitched, holds the entries `q` run whole holds: the
/// same member ids and control points, interval ends within 1e-9 relative.
fn check_cut(scn: &Scenario, k: usize, pieces: u32) -> Result<(), TestCaseError> {
    let (obstacles, ps, verts) = scn;
    let q = Segment::new(verts[0], verts[1]);
    let data_tree = RStarTree::bulk_load(ps.clone(), 4096);
    let obstacle_tree = RStarTree::bulk_load(obstacles.clone(), 4096);
    let cfg = ConnConfig::default();
    let (whole, _) = QueryEngine::new(cfg).coknn(&data_tree, &obstacle_tree, &q, k);

    let mut session = TrajectorySession::new(&data_tree, &obstacle_tree, q.a, k, cfg);
    for j in 1..pieces {
        session
            .push_leg(q.at(q.len() * f64::from(j) / f64::from(pieces)))
            .unwrap();
    }
    session.push_leg(q.b).unwrap();
    let cut = session.finish().unwrap().0.into_trajectory().unwrap();

    let (a, b) = (whole.entries(), cut.entries());
    prop_assert_eq!(
        a.len(),
        b.len(),
        "k = {}, {} pieces: entry count",
        k,
        pieces
    );
    for (x, y) in a.iter().zip(b) {
        let ctx = format!("k = {k}, {pieces} pieces: {x:?} vs {y:?}");
        prop_assert!(close(x.interval.lo, y.interval.lo), "{ctx}");
        prop_assert!(close(x.interval.hi, y.interval.hi), "{ctx}");
        prop_assert_eq!(x.members.len(), y.members.len(), "{}", ctx);
        for (m, n) in x.members.iter().zip(&y.members) {
            prop_assert_eq!(m.point.id, n.point.id, "{}", ctx);
            prop_assert!(
                close(m.cp.pos.x, n.cp.pos.x)
                    && close(m.cp.pos.y, n.cp.pos.y)
                    && close(m.cp.base, n.cp.base),
                "{ctx}"
            );
        }
    }
    Ok(())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(16))]

    /// Each leg's answer, shifted and concatenated, and the stitched
    /// result are answer-equivalent to brute force — on the goal-directed
    /// kernel.
    #[test]
    fn streamed_deltas_match_batch_goal_directed(scn in scenario()) {
        check_kernel(&scn, KernelMode::GoalDirected)?;
    }

    /// The same guarantee on the blind (paper-literal traversal) kernel.
    #[test]
    fn streamed_deltas_match_batch_blind(scn in scenario()) {
        check_kernel(&scn, KernelMode::Blind)?;
    }

    /// A COkNN trajectory (k = 2), leg by leg and stitched, against brute
    /// force.
    #[test]
    fn coknn_legs_match_brute_force(scn in scenario()) {
        check_coknn(&scn)?;
    }

    /// CONN and COkNN (k = 2) over a segment cut into 2 and 4 equal pieces
    /// and stitched hold the whole segment's entries.
    #[test]
    fn cut_and_stitch_matches_whole_segment(scn in scenario()) {
        for k in [1, 2] {
            for pieces in [2, 4] {
                check_cut(&scn, k, pieces)?;
            }
        }
    }
}
