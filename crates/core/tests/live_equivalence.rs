//! Live-scene equivalence suite (the standing-query oracle): after any
//! interleaved sequence of site/obstacle insertions and removals, every
//! standing answer — kept under a certificate, tuple-patched or
//! recomputed — must be 1e-6-equivalent to a **cold rebuild** of the
//! scene's final state, for every query family, under both kernels and
//! with the rotational sweep forced on and off.
//!
//! An unsound certificate region (keeping an answer a delta actually
//! touched), a tuple patch inserting at the wrong rank, or a CONN/COkNN
//! segment kernel that stayed warm on a graph still holding an obstacle
//! that went would all surface as a divergence somewhere in the sequence —
//! the suite re-checks the whole standing set after *every* delta, not
//! just at the end.

use conn_core::{
    answers_equivalent, ConnConfig, ConnService, DataPoint, LiveScene, Query, Scene,
    StandingHandle, SweepMode, Trajectory,
};
use conn_geom::{Point, Rect, Segment};
use proptest::prelude::*;

/// One scripted mutation. Removal targets are indices resolved against the
/// live world at apply time, so removals always hit an existing item.
#[derive(Debug, Clone)]
enum Op {
    InsertSite(Point),
    RemoveSite(usize),
    InsertObstacle(Rect),
    RemoveObstacle(usize),
}

fn pt() -> impl Strategy<Value = Point> {
    (0.0..10_000.0f64, 0.0..10_000.0f64).prop_map(|(x, y)| Point::new(x, y))
}

fn rect() -> impl Strategy<Value = Rect> {
    (pt(), 20.0..400.0f64, 20.0..400.0f64)
        .prop_map(|(p, w, h)| Rect::new(p.x, p.y, p.x + w, p.y + h))
}

fn op() -> impl Strategy<Value = Op> {
    (0..4usize, pt(), rect(), 0..64usize).prop_map(|(which, p, r, i)| match which {
        0 => Op::InsertSite(p),
        1 => Op::RemoveSite(i),
        2 => Op::InsertObstacle(r),
        _ => Op::RemoveObstacle(i),
    })
}

/// Scene sizes + seed, query geometry seeds, and the mutation script.
type Scenario = ((usize, usize, u64), (Point, Point, Point), Vec<Op>);

fn scenario() -> impl Strategy<Value = Scenario> {
    (
        (6..14usize, 6..16usize, 0..1000u64),
        (pt(), pt(), pt()),
        prop::collection::vec(op(), 3..7),
    )
}

/// One standing query per family (segment families skipped when the
/// generated segment is degenerate).
fn standing_queries(a: Point, b: Point, c: Point) -> Vec<Query> {
    let mut out = Vec::new();
    if a.dist(b) > 1e-9 {
        let q = Segment::new(a, b);
        out.push(Query::conn(q).build().unwrap());
        out.push(Query::coknn(q, 2).build().unwrap());
    }
    out.push(Query::onn(a, 2).build().unwrap());
    out.push(Query::range(b, 900.0).build().unwrap());
    out.push(Query::odist(a, b).build().unwrap());
    out.push(Query::route(a, c).build().unwrap());
    if let Ok(route) = Trajectory::try_new(vec![a, b, c]) {
        out.push(Query::trajectory(route.clone(), 1).build().unwrap());
        out.push(Query::trajectory(route, 2).build().unwrap());
    }
    out
}

/// Every standing answer must match a cold service rebuilt from the live
/// world's current state.
fn assert_standing_matches_cold(
    live: &LiveScene,
    standing: &[(StandingHandle, Query)],
    cfg: ConnConfig,
    ctx: &str,
) -> Result<(), TestCaseError> {
    let cold = ConnService::with_config(Scene::new(live.points(), live.obstacles()), cfg);
    for (handle, query) in standing {
        let resident = live.service().standing(handle).expect("handle registered");
        let rebuilt = cold.execute(query).unwrap().answer;
        prop_assert!(
            answers_equivalent(&resident, &rebuilt, 1e-6),
            "{ctx}: standing {} diverged from cold rebuild:\n resident: {resident:?}\n rebuilt:  {rebuilt:?}",
            query.kind().family(),
        );
    }
    Ok(())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(4))]

    /// Interleaved mutations keep every standing family equivalent to a
    /// cold rebuild, under both kernels, with the sweep forced on and off.
    #[test]
    fn standing_answers_track_cold_rebuild(scn in scenario()) {
        let ((n_pts, n_obs, seed), (a, b, c), script) = scn;
        let mut configs = Vec::new();
        for base in [ConnConfig::default(), ConnConfig::baseline_kernel()] {
            for sweep in [SweepMode::Always, SweepMode::Never] {
                configs.push(ConnConfig { sweep, ..base });
            }
        }
        for cfg in configs {
            let mut live = LiveScene::uniform(n_pts, n_obs, seed, cfg);
            let standing: Vec<(StandingHandle, Query)> = standing_queries(a, b, c)
                .into_iter()
                .map(|q| (live.service().register(q.clone()).unwrap(), q))
                .collect();
            prop_assert_eq!(live.service().standing_count(), standing.len());
            assert_standing_matches_cold(&live, &standing, cfg, "before any delta")?;

            let mut next_id = 50_000u32;
            for (step, op) in script.iter().enumerate() {
                let published = match op {
                    Op::InsertSite(p) => {
                        next_id += 1;
                        let (_, report) = live.insert_site(DataPoint::new(next_id, *p));
                        Some(report)
                    }
                    Op::RemoveSite(i) => {
                        let pts = live.points();
                        if pts.is_empty() {
                            None
                        } else {
                            live.remove_site(pts[i % pts.len()].pos).map(|(_, r)| r)
                        }
                    }
                    Op::InsertObstacle(r) => Some(live.insert_obstacle(*r).1),
                    Op::RemoveObstacle(i) => {
                        let obs = live.obstacles();
                        if obs.is_empty() {
                            None
                        } else {
                            live.remove_obstacle(&obs[i % obs.len()]).map(|(_, r)| r)
                        }
                    }
                };
                if let Some(report) = published {
                    prop_assert_eq!(report.standing, standing.len());
                    prop_assert_eq!(
                        report.kept + report.tuple_patched + report.recomputed,
                        report.standing,
                        "patch outcomes must partition the standing set: {:?}",
                        report
                    );
                    prop_assert_eq!(report.kernel_patched, 0);
                }
                assert_standing_matches_cold(&live, &standing, cfg, &format!("after step {step} ({op:?})"))?;
            }
            prop_assert_eq!(live.service().current_epoch(), live.deltas_published());
        }
    }
}
