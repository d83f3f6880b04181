//! Streaming trajectory sessions — trajectory CONN as a *moving-client
//! serving primitive* rather than a batch reproduction artifact.
//!
//! A [`crate::Query::trajectory`] answers a complete polyline (its legs
//! run as independent queries, on several pool workers when the pool has
//! them idle — see [`crate::ConnService::execute_at`]). A session
//! answers it **one leg at a time**: the caller pushes the next vertex as
//! the client reports it and receives the delta tuples of the new leg in
//! cumulative arclength. A session is a loop: each pushed leg runs as the
//! engine's ordinary [`QueryEngine::conn`] / [`QueryEngine::coknn`] —
//! Algorithm 4, exact leg by leg — and the result is stitched on
//! ([`crate::trajectory`]). The engine's reuse is every query's reuse: a
//! leg re-binds the workspace the previous leg (or query) left.
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
//! let mut session =
//!     TrajectorySession::new(&points, &obstacles, Point::new(0.0, 0.0), ConnConfig::default());
//! // the client reports positions as it moves; each push returns the new
//! // tuples in cumulative arclength
//! let delta = session.push_leg(Point::new(100.0, 0.0));
//! assert_eq!(delta.first().unwrap().0.unwrap().id, 0);
//! let delta = session.push_leg(Point::new(100.0, 80.0));
//! assert_eq!(delta.last().unwrap().0.unwrap().id, 1);
//!
//! let (result, stats) = session.finish();
//! result.check_cover().unwrap();
//! assert_eq!(stats.reuse.graph_reuses, 1, "the second leg re-bound the engine");
//! ```

use conn_geom::{Interval, Point, Rect, Segment};
use conn_index::RStarTree;

use crate::coknn::CoknnResult;
use crate::config::ConnConfig;
use crate::engine::QueryEngine;
use crate::stats::QueryStats;
use crate::trajectory::{stitch_leg, Trajectory, TrajectoryResult};
use crate::types::DataPoint;

/// Shared machinery of the CONN and COkNN sessions: trees, the session's
/// own engine, trajectory geometry, pooled stats.
struct SessionCore<'t> {
    data_tree: &'t RStarTree<DataPoint>,
    obstacle_tree: &'t RStarTree<Rect>,
    engine: Box<QueryEngine>,
    vertices: Vec<Point>,
    cum: Vec<f64>,
    stats: QueryStats,
}

impl<'t> SessionCore<'t> {
    fn new(
        data_tree: &'t RStarTree<DataPoint>,
        obstacle_tree: &'t RStarTree<Rect>,
        start: Point,
        cfg: ConnConfig,
    ) -> Self {
        assert!(
            start.x.is_finite() && start.y.is_finite(),
            "non-finite session start"
        );
        SessionCore {
            data_tree,
            obstacle_tree,
            engine: Box::new(QueryEngine::new(cfg)),
            vertices: vec![start],
            cum: vec![0.0],
            stats: QueryStats::default(),
        }
    }

    #[expect(
        clippy::unwrap_used,
        reason = "vertices starts with the session origin and only grows"
    )]
    fn position(&self) -> Point {
        *self.vertices.last().unwrap()
    }

    /// Runs the leg to `to` as one query on the session's engine and pools
    /// its stats. Returns the answer, the leg segment and its cumulative
    /// offset.
    fn run_leg<A>(
        &mut self,
        to: Point,
        query: impl FnOnce(
            &mut QueryEngine,
            &RStarTree<DataPoint>,
            &RStarTree<Rect>,
            &Segment,
        ) -> (A, QueryStats),
    ) -> (A, Segment, f64) {
        assert!(
            to.x.is_finite() && to.y.is_finite(),
            "non-finite leg vertex"
        );
        let leg = Segment::new(self.position(), to);
        assert!(!leg.is_degenerate(), "degenerate trajectory leg");
        #[expect(clippy::unwrap_used, reason = "cum starts as vec![0.0] and only grows")]
        let offset = *self.cum.last().unwrap();
        let (answer, stats) = query(&mut self.engine, self.data_tree, self.obstacle_tree, &leg);
        self.stats.accumulate(&stats);
        self.vertices.push(to);
        self.cum.push(offset + leg.len());
        (answer, leg, offset)
    }

    fn num_legs(&self) -> usize {
        self.vertices.len() - 1
    }

    fn trajectory(&self) -> Trajectory {
        assert!(
            self.num_legs() >= 1,
            "session has no legs yet — push at least one"
        );
        Trajectory::new(self.vertices.clone())
    }
}

/// A streaming trajectory CONN session (k = 1). See the module docs; a
/// complete route is a [`crate::Query::trajectory`], whose answer equals
/// a session's pushed through the same vertices bit for bit.
pub struct TrajectorySession<'t> {
    core: SessionCore<'t>,
    segments: Vec<(Option<DataPoint>, Interval)>,
}

impl<'t> TrajectorySession<'t> {
    /// A session starting at `start`, on its own engine.
    pub fn new(
        data_tree: &'t RStarTree<DataPoint>,
        obstacle_tree: &'t RStarTree<Rect>,
        start: Point,
        cfg: ConnConfig,
    ) -> Self {
        TrajectorySession {
            core: SessionCore::new(data_tree, obstacle_tree, start, cfg),
            segments: Vec::new(),
        }
    }

    /// Extends the trajectory to `to` and answers the new leg. Returns the
    /// **delta**: the `⟨p, R⟩` tuples covering `(prev_len, new_len]` in
    /// cumulative arclength. When the answer persists across the joint, the
    /// delta's first tuple starts exactly at `prev_len` and
    /// [`TrajectorySession::segments`] shows it merged with the previous
    /// tuple.
    pub fn push_leg(&mut self, to: Point) -> Vec<(Option<DataPoint>, Interval)> {
        let (res, leg, offset) = self.core.run_leg(to, |e, dt, ot, leg| e.conn(dt, ot, leg));
        let end = offset + leg.len();
        stitch_leg(&mut self.segments, &res.segments(), offset, end);

        let mut delta: Vec<(Option<DataPoint>, Interval)> = Vec::new();
        for &(p, iv) in self.segments.iter().rev() {
            if iv.hi <= offset {
                break;
            }
            delta.push((p, Interval::new(iv.lo.max(offset), iv.hi)));
        }
        delta.reverse();
        delta
    }

    /// The stitched `⟨p, R⟩` tuples over everything pushed so far.
    pub fn segments(&self) -> &[(Option<DataPoint>, Interval)] {
        &self.segments
    }

    /// The ONN at cumulative arclength `t` over the legs pushed so far.
    pub fn nn_at(&self, t: f64) -> Option<DataPoint> {
        self.segments
            .iter()
            .find(|(_, iv)| iv.contains(t))
            .and_then(|(p, _)| *p)
    }

    /// Vertices pushed so far (the start point included).
    pub fn vertices(&self) -> &[Point] {
        &self.core.vertices
    }

    /// Legs answered so far.
    pub fn num_legs(&self) -> usize {
        self.core.num_legs()
    }

    /// Cumulative arclength covered so far.
    #[expect(clippy::unwrap_used, reason = "cum starts as vec![0.0] and only grows")]
    pub fn len(&self) -> f64 {
        *self.core.cum.last().unwrap()
    }

    /// True until the first leg is pushed.
    pub fn is_empty(&self) -> bool {
        self.core.num_legs() == 0
    }

    /// Pooled statistics over the legs answered so far.
    pub fn stats(&self) -> QueryStats {
        let mut s = self.core.stats;
        s.result_tuples = self.segments.len() as u64;
        s
    }

    /// Snapshot of the stitched result as a [`TrajectoryResult`]. Panics
    /// when no leg has been pushed (a trajectory needs ≥ 2 vertices).
    pub fn result(&self) -> TrajectoryResult {
        TrajectoryResult::new(self.core.trajectory(), self.segments.clone())
    }

    /// Consumes the session into its final result and pooled stats.
    pub fn finish(self) -> (TrajectoryResult, QueryStats) {
        let stats = self.stats();
        (
            TrajectoryResult::new(self.core.trajectory(), self.segments),
            stats,
        )
    }
}

/// A streaming trajectory COkNN session: like [`TrajectorySession`] but
/// each pushed leg yields its full [`CoknnResult`] (kNN sets keep every
/// member's control points, so the per-leg structure is the honest API).
pub struct TrajectoryCoknnSession<'t> {
    core: SessionCore<'t>,
    k: usize,
    legs: Vec<CoknnResult>,
}

impl<'t> TrajectoryCoknnSession<'t> {
    /// Opens a session at `start` over borrowed trees.
    pub fn new(
        data_tree: &'t RStarTree<DataPoint>,
        obstacle_tree: &'t RStarTree<Rect>,
        start: Point,
        k: usize,
        cfg: ConnConfig,
    ) -> Self {
        assert!(k >= 1, "k must be at least 1");
        TrajectoryCoknnSession {
            core: SessionCore::new(data_tree, obstacle_tree, start, cfg),
            k,
            legs: Vec::new(),
        }
    }

    /// Extends the trajectory to `to`; returns the new leg's result.
    #[expect(clippy::unwrap_used, reason = "the leg is pushed on the line above")]
    pub fn push_leg(&mut self, to: Point) -> &CoknnResult {
        let k = self.k;
        let (res, _, _) = self
            .core
            .run_leg(to, |e, dt, ot, leg| e.coknn(dt, ot, leg, k));
        self.legs.push(res);
        self.legs.last().unwrap()
    }

    /// Per-leg results answered so far.
    pub fn legs(&self) -> &[CoknnResult] {
        &self.legs
    }

    /// The per-point neighbor count every leg answers with.
    pub fn k(&self) -> usize {
        self.k
    }

    /// Pooled statistics over the legs answered so far.
    pub fn stats(&self) -> QueryStats {
        self.core.stats
    }

    /// Consumes the session into the per-leg results and pooled stats.
    pub fn finish(self) -> (Vec<CoknnResult>, QueryStats) {
        (self.legs, self.core.stats)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::baseline::{brute_force_oknn, obstructed_distance};

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

    /// Every leg runs cold, as a lone CONN. The concatenated deltas merge
    /// into exactly the stitched segments, and both answer, at every tuple
    /// midpoint and on a 48-step grid, what brute force over the whole
    /// obstacle list answers — or a point tied with it at 1e-6.
    #[test]
    fn session_matches_cold_per_leg() {
        let (dt, ot) = setup();
        let (ps, rs) = (points(), obstacles());
        let verts = route();
        let traj = Trajectory::new(verts.clone());

        let mut session = TrajectorySession::new(&dt, &ot, verts[0], ConnConfig::default());
        let mut concat: Vec<(Option<DataPoint>, Interval)> = Vec::new();
        for &v in &verts[1..] {
            let delta = session.push_leg(v);
            // deltas chain contiguously
            assert!(
                (delta.first().unwrap().1.lo - concat.last().map_or(0.0, |x| x.1.hi)).abs() < 1e-9
            );
            concat.extend(delta);
        }
        let (res, _) = session.finish();
        res.check_cover().unwrap();

        // the concatenated deltas reproduce the stitched segments
        let mut merged: Vec<(Option<DataPoint>, Interval)> = Vec::new();
        for &(p, iv) in &concat {
            match merged.last_mut() {
                Some((lp, liv)) if lp.map(|x| x.id) == p.map(|x| x.id) => liv.hi = iv.hi,
                _ => merged.push((p, iv)),
            }
        }
        assert_eq!(merged.len(), res.segments().len());
        for ((p1, iv1), (p2, iv2)) in merged.iter().zip(res.segments()) {
            assert_eq!(p1.map(|x| x.id), p2.map(|x| x.id));
            assert!((iv1.lo - iv2.lo).abs() < 1e-9 && (iv1.hi - iv2.hi).abs() < 1e-9);
        }

        let at = |tuples: &[(Option<DataPoint>, Interval)], t: f64| {
            tuples
                .iter()
                .find(|(_, iv)| iv.contains(t))
                .and_then(|(p, _)| *p)
        };
        let mut ts: Vec<f64> = res.segments().iter().map(|(_, iv)| iv.midpoint()).collect();
        ts.extend((0..=48).map(|i| traj.len() * f64::from(i) / 48.0));
        for t in ts {
            let q = traj.at(t);
            let want = brute_force_oknn(&ps, &rs, q, 1);
            for got in [res.nn_at(t), at(&concat, t)] {
                match (got, want.first()) {
                    (Some(g), Some((w, wd))) => {
                        let gd = obstructed_distance(&rs, g.pos, q);
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
        let mut session = TrajectoryCoknnSession::new(&dt, &ot, verts[0], 2, ConnConfig::default());
        for &v in &verts[1..] {
            let res = session.push_leg(v);
            res.check_cover().unwrap();
            assert_eq!(res.knn_at(1.0).len(), 2);
        }
        let (legs, stats) = session.finish();
        assert_eq!(legs.len(), 3);
        assert!(stats.npe >= 3);
    }

    #[test]
    #[should_panic(expected = "degenerate trajectory leg")]
    fn zero_length_leg_is_rejected() {
        let (dt, ot) = setup();
        let mut s = TrajectorySession::new(&dt, &ot, Point::new(0.0, 0.0), ConnConfig::default());
        let _ = s.push_leg(Point::new(0.0, 0.0));
    }

    #[test]
    #[should_panic(expected = "non-finite leg vertex")]
    fn non_finite_leg_is_rejected() {
        let (dt, ot) = setup();
        let mut s = TrajectorySession::new(&dt, &ot, Point::new(0.0, 0.0), ConnConfig::default());
        let _ = s.push_leg(Point {
            x: f64::NAN,
            y: 1.0,
        });
    }
}
