//! Streaming trajectory sessions — trajectory CONN / COkNN as a
//! *moving-client serving primitive* rather than a batch reproduction
//! artifact.
//!
//! A [`crate::Query::trajectory`] answers a complete polyline (its legs
//! run as independent queries, on several pool workers when the pool has
//! them idle — see [`crate::ConnService::execute_at`]). A session answers
//! it **one leg at a time**: the caller pushes the next vertex as the
//! client reports it and receives that leg's [`Answer`] (`Conn` for
//! `k = 1`, `Coknn` otherwise, a [`crate::CoknnResult`] either way),
//! parameterized along the leg; a caller that wants cumulative arclength
//! shifts it by [`crate::Trajectory::leg_offset`].
//! Each pushed leg runs as the service's trajectory path runs it, a COkNN
//! at the session's `k`, and [`TrajectorySession::finish`] stitches the
//! legs' result lists with the service's one assembly into one
//! [`crate::TrajectoryResult`] at every `k`, so a session and a
//! [`crate::Query::trajectory`] over the same vertices answer bit for bit
//! alike. The engine's reuse is every query's
//! reuse: a leg re-binds the workspace the previous leg (or query) left.
//!
//! Nothing else carries from leg to leg — no visibility graph, joint node,
//! Dijkstra labels or `RLMAX` bound seeded from the previous leg — because
//! on the ledger's four paper-scale workloads none of it paid: the warm
//! retarget of labels at a new goal never fired, a leg cost the same as that
//! leg run as a lone CONN (`session.cold_ratio` 1.03 and 1.01), and the
//! per-leg clearance check a seeded bound needs was 30 % of the
//! `continuous` workload's obstacle page reads.
//!
//! Under the concurrent serving layer, sessions are opened from a pinned
//! epoch ([`crate::SceneEpoch::open_session`], reached through a
//! [`crate::PinnedEpoch`]): the session borrows the
//! snapshot's trees, so a long-lived moving client keeps answering
//! against the world it started on even while the service publishes new
//! epochs behind it — the snapshot retires only after the session's pin
//! drops.
//!
//! ```
//! use conn_core::{ConnConfig, DataPoint, TrajectorySession};
//! use conn_geom::{Point, Rect};
//! use conn_index::RStarTree;
//!
//! let points = RStarTree::bulk_load(
//!     vec![
//!         DataPoint::new(0, Point::new(10.0, 30.0)),
//!         DataPoint::new(1, Point::new(100.0, 60.0)),
//!     ],
//!     4096,
//! );
//! let obstacles: RStarTree<Rect> = RStarTree::bulk_load(vec![], 4096);
//!
//! let start = Point::new(0.0, 0.0);
//! let mut session =
//!     TrajectorySession::new(&points, &obstacles, start, 1, ConnConfig::default());
//! // the client reports positions as it moves; each push answers its leg
//! let leg = session.push_leg(Point::new(100.0, 0.0))?.as_conn().unwrap();
//! assert_eq!(leg.segments()[0].0.unwrap().id, 0);
//! let (nearest, d) = leg.nn_at(0.0).unwrap();
//! assert_eq!((nearest.id, d), (0, start.dist(nearest.pos)));
//! // a repeated position is rejected and leaves the session as it was
//! assert!(session.push_leg(Point::new(100.0, 0.0)).is_err());
//! let leg = session.push_leg(Point::new(100.0, 80.0))?;
//! assert_eq!(leg.as_conn().unwrap().segments().last().unwrap().0.unwrap().id, 1);
//!
//! let (answer, stats) = session.finish()?;
//! answer.as_trajectory().unwrap().check_cover()?;
//! assert_eq!(stats.reuse.graph_reuses, 1, "the second leg re-bound the engine");
//! # Ok::<(), conn_core::Error>(())
//! ```

use conn_geom::{Point, Rect};
use conn_index::RStarTree;

use crate::coknn::CoknnResult;
use crate::config::ConnConfig;
use crate::engine::QueryEngine;
use crate::error::Error;
use crate::query::Answer;
use crate::service::{assemble_trajectory, Scene};
use crate::stats::QueryStats;
use crate::trajectory::Trajectory;
use crate::types::DataPoint;

/// A streaming trajectory session answering each leg with its `k` nearest
/// neighbors. See the module docs; a complete route is a
/// [`crate::Query::trajectory`], whose answer equals a session's
/// [`TrajectorySession::finish`] over the same vertices bit for bit.
pub struct TrajectorySession<'t> {
    scene: Scene<'t>,
    engine: Box<QueryEngine>,
    k: usize,
    vertices: Vec<Point>,
    legs: Vec<(CoknnResult, QueryStats)>,
    /// The last pushed leg's answer, as [`TrajectorySession::push_leg`]
    /// hands it out.
    last: Option<Answer>,
}

impl<'t> TrajectorySession<'t> {
    /// A session starting at `start`, on its own engine. The start and `k`
    /// are checked on the first push.
    pub fn new(
        data_tree: &'t RStarTree<DataPoint>,
        obstacle_tree: &'t RStarTree<Rect>,
        start: Point,
        k: usize,
        cfg: ConnConfig,
    ) -> Self {
        TrajectorySession {
            scene: Scene::borrowing(data_tree, obstacle_tree),
            engine: Box::new(QueryEngine::new(cfg)),
            k,
            vertices: vec![start],
            legs: Vec::new(),
            last: None,
        }
    }

    /// Extends the trajectory to `to` and answers the new leg. A leg
    /// [`Trajectory::try_new`] would refuse (a non-finite vertex, the
    /// start included, or a repeated position), or `k = 0`, comes back as
    /// [`Error::InvalidQuery`] and leaves the session unchanged.
    #[expect(
        clippy::unwrap_used,
        reason = "vertices starts with the session origin"
    )]
    pub fn push_leg(&mut self, to: Point) -> Result<&Answer, Error> {
        if self.k == 0 {
            return Err(Error::invalid_query(
                "trajectory session: k must be at least 1",
            ));
        }
        let from = *self.vertices.last().unwrap();
        let leg = Trajectory::try_new(vec![from, to])?.leg(0);
        let (dt, ot) = (self.scene.data_tree(), self.scene.obstacle_tree());
        let (res, stats) = self.engine.coknn(dt, ot, &leg, self.k);
        let answer = if self.k == 1 {
            Answer::Conn(res.clone())
        } else {
            Answer::Coknn(res.clone())
        };
        self.vertices.push(to);
        self.legs.push((res, stats));
        Ok(self.last.insert(answer))
    }

    /// Statistics summed over the legs answered so far.
    pub fn stats(&self) -> QueryStats {
        let mut stats = QueryStats::default();
        for (_, leg) in &self.legs {
            stats.accumulate(leg);
        }
        stats
    }

    /// Consumes the session into the trajectory's answer and stats, as a
    /// [`crate::Query::trajectory`] over the pushed vertices reports them.
    /// [`Error::InvalidQuery`] when no leg was pushed.
    pub fn finish(self) -> Result<(Answer, QueryStats), Error> {
        let route = Trajectory::try_new(self.vertices)?;
        Ok(assemble_trajectory(&route, self.k, self.legs))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::baseline::brute_force_oknn;

    fn points() -> Vec<DataPoint> {
        vec![
            DataPoint::new(0, Point::new(20.0, 30.0)),
            DataPoint::new(1, Point::new(80.0, -20.0)),
            DataPoint::new(2, Point::new(130.0, 50.0)),
            DataPoint::new(3, Point::new(60.0, 90.0)),
        ]
    }

    fn obstacles() -> Vec<Rect> {
        vec![
            Rect::new(40.0, 10.0, 60.0, 25.0),
            Rect::new(110.0, 20.0, 120.0, 60.0),
            Rect::new(30.0, 55.0, 80.0, 70.0),
        ]
    }

    fn setup() -> (RStarTree<DataPoint>, RStarTree<Rect>) {
        (
            RStarTree::bulk_load(points(), 4096),
            RStarTree::bulk_load(obstacles(), 4096),
        )
    }

    fn route() -> Vec<Point> {
        vec![
            Point::new(0.0, 0.0),
            Point::new(100.0, 0.0),
            Point::new(100.0, 80.0),
            Point::new(10.0, 80.0),
        ]
    }

    /// Every leg runs cold, as a lone CONN. Each leg's answer, at its
    /// offset, and the stitched result answer, at every tuple midpoint and
    /// on a 48-step grid, the distance brute force over the whole obstacle
    /// list answers, within 1e-6 (which absorbs exact ties).
    #[test]
    fn session_matches_cold_per_leg() {
        let (dt, ot) = setup();
        let (ps, rs) = (points(), obstacles());
        let verts = route();
        let traj = Trajectory::new(verts.clone());

        let mut session = TrajectorySession::new(&dt, &ot, verts[0], 1, ConnConfig::default());
        let mut legs = Vec::new();
        for &v in &verts[1..] {
            let leg = session.push_leg(v).unwrap().as_conn().unwrap();
            leg.check_cover().unwrap();
            legs.push(leg.clone());
        }
        let (answer, _) = session.finish().unwrap();
        let res = answer.into_trajectory().unwrap();
        res.check_cover().unwrap();

        // the leg holding `t`, asked at its own parameter
        let at = |t: f64| {
            let i = (1..traj.num_legs())
                .take_while(|&i| traj.leg_offset(i) <= t)
                .count();
            legs[i].nn_at(t - traj.leg_offset(i))
        };
        let mut ts: Vec<f64> = res.segments().iter().map(|(_, iv)| iv.midpoint()).collect();
        ts.extend((0..=48).map(|i| traj.len() * f64::from(i) / 48.0));
        for t in ts {
            let want = brute_force_oknn(&ps, &rs, traj.at(t), 1);
            for got in [res.nn_at(t), at(t)] {
                match (got, want.first()) {
                    (Some((g, gd)), Some((w, wd))) => {
                        assert!((gd - wd).abs() < 1e-6, "t = {t}: {} vs {}", g.id, w.id);
                    }
                    (g, w) => assert_eq!(g.is_none(), w.is_none(), "t = {t}"),
                }
            }
        }
    }

    #[test]
    fn coknn_session_covers_each_leg() {
        let (dt, ot) = setup();
        let verts = route();
        let mut session = TrajectorySession::new(&dt, &ot, verts[0], 2, ConnConfig::default());
        for &v in &verts[1..] {
            let res = session.push_leg(v).unwrap().as_coknn().unwrap();
            res.check_cover().unwrap();
            assert_eq!(res.knn_at(1.0).len(), 2);
        }
        let running = session.stats();
        let (answer, stats) = session.finish().unwrap();
        let route = answer.as_trajectory().unwrap();
        route.check_cover().unwrap();
        assert_eq!((route.k(), route.trajectory().num_legs()), (2, 3));
        assert_eq!(route.knn_at(route.trajectory().len() / 2.0).len(), 2);
        assert!(stats.npe >= 3);
        assert_eq!(stats.npe, running.npe);
    }

    /// Pushes `bad`, expects it refused with the session unchanged, then
    /// pushes a valid leg.
    fn rejects_then_recovers(start: Point, bad: Point, why: &str) {
        let (dt, ot) = setup();
        let mut s = TrajectorySession::new(&dt, &ot, start, 1, ConnConfig::default());
        let err = s.push_leg(bad).unwrap_err();
        assert!(err.is_invalid_query(), "{err}");
        assert!(err.reason().contains(why), "{err}");
        assert_eq!(s.stats().npe, 0, "the refused leg ran nothing");
        if start.x.is_finite() && start.y.is_finite() {
            s.push_leg(Point::new(50.0, 0.0)).unwrap();
            let (answer, _) = s.finish().unwrap();
            assert_eq!(answer.as_trajectory().unwrap().trajectory().num_legs(), 1);
        } else {
            assert!(s.finish().is_err(), "no leg was pushed");
        }
    }

    #[test]
    fn zero_length_leg_is_rejected() {
        let p = Point::new(0.0, 0.0);
        rejects_then_recovers(p, p, "degenerate trajectory leg");
    }

    #[test]
    fn non_finite_leg_is_rejected() {
        let nan = Point {
            x: f64::NAN,
            y: 1.0,
        };
        rejects_then_recovers(Point::new(0.0, 0.0), nan, "non-finite");
        rejects_then_recovers(nan, Point::new(0.0, 0.0), "non-finite");
    }

    #[test]
    fn zero_k_is_rejected() {
        let (dt, ot) = setup();
        let mut s =
            TrajectorySession::new(&dt, &ot, Point::new(0.0, 0.0), 0, ConnConfig::default());
        let err = s.push_leg(Point::new(50.0, 0.0)).unwrap_err();
        assert!(err.reason().contains("k must be at least 1"), "{err}");
    }
}
