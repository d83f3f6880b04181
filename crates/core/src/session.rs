//! Streaming trajectory sessions — trajectory CONN as a *moving-client
//! serving primitive* rather than a batch reproduction artifact.
//!
//! A [`crate::Query::trajectory`] answers a complete polyline. A session
//! answers it **one leg at a time**: the caller pushes
//! the next vertex as the client reports it, receives the delta tuples of
//! the new leg in cumulative arclength, and the session keeps one
//! [`QueryEngine`] warm across the legs:
//!
//! * the **local visibility graph persists** — obstacle loads are monotone
//!   within a session (a loaded rectangle is a real obstacle for every
//!   later leg), so the graph, its grid, and its base adjacency caches
//!   carry over; the per-leg obstacle stream
//!   ([`crate::streams::SessionStreams`]) re-orders the R-tree traversal
//!   for the new goal segment but skips everything already loaded;
//! * the **joint vertex node is shared** — each leg starts at the previous
//!   leg's end node, and old endpoint nodes stay in the graph as harmless
//!   free vertices (extra nodes never shorten a corner-optimal shortest
//!   path, so distances are unchanged);
//! * the **Dijkstra substrate warm-starts** — within a leg the PR 3
//!   replay/reseed machinery works as before, and because node additions
//!   no longer disturb the engine's shape snapshot, repeated
//!   goal-directed searches can *retarget* the retained labels when only
//!   the goal moved (see [`conn_vgraph::Prep::Retargeted`]);
//! * **per-leg `RLMAX` bounds are seeded from the previous leg's answer**
//!   — the obstructed NN distance is 1-Lipschitz along an unblocked leg,
//!   so `d(joint) + leg_len` upper-bounds the new leg's final `RLMAX`
//!   before any point is evaluated, capping the point stream and the
//!   early obstacle certification loads. Early legs thereby pre-pay
//!   obstacle loads that later legs reuse for free.
//!
//! Every leg remains an exact Algorithm-4 run: the shared state is a
//! *superset* of what a cold run would load, and the certification logic
//! only ever benefits from extra loaded obstacles. Answers are equivalent
//! to the cold-per-leg reference (identical tuples; distances and split
//! points match to float noise), which the `trajectory_session`
//! equivalence proptests enforce across kernels and layouts.
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
//! assert!(stats.reuse.graph_reuses >= 1, "the second leg ran warm");
//! ```

use std::time::Instant;

use conn_geom::{Interval, Point, Rect, Segment};
use conn_index::{IoMeter, RStarTree};
use conn_vgraph::{NodeId, NodeKind};

use crate::coknn::{CoknnResult, KnnResultList};
use crate::config::ConnConfig;
use crate::conn::{run_leg, ConnResult, ResultSink};
use crate::engine::QueryEngine;
use crate::rlu::ResultList;
use crate::stats::QueryStats;
use crate::streams::{LoadedObstacles, SessionStreams};
use crate::trajectory::{stitch_leg, Trajectory, TrajectoryResult};
use crate::types::DataPoint;

/// The engine a session runs on: its own, or one lent by a caller that
/// amortizes a single engine across many sessions (the batch workers).
enum EngineSlot<'e> {
    Owned(Box<QueryEngine>),
    Borrowed(&'e mut QueryEngine),
}

impl EngineSlot<'_> {
    fn get(&mut self) -> &mut QueryEngine {
        match self {
            EngineSlot::Owned(e) => e,
            EngineSlot::Borrowed(e) => e,
        }
    }
}

/// Shared machinery of the CONN and COkNN sessions: trees, engine,
/// session-monotone obstacle set, trajectory geometry, pooled stats.
struct SessionCore<'t, 'e> {
    data_tree: &'t RStarTree<DataPoint>,
    obstacle_tree: &'t RStarTree<Rect>,
    engine: EngineSlot<'e>,
    loaded: LoadedObstacles,
    vertices: Vec<Point>,
    cum: Vec<f64>,
    /// The previous leg's end node — the next leg's start node.
    joint_node: Option<NodeId>,
    /// Basis of the next leg's seeded `RLMAX` bound: the answer value at
    /// the current joint (the NN distance for CONN, the k-th distance for
    /// COkNN), when one exists.
    joint_bound: Option<f64>,
    stats: QueryStats,
}

impl<'t, 'e> SessionCore<'t, 'e> {
    fn new(
        data_tree: &'t RStarTree<DataPoint>,
        obstacle_tree: &'t RStarTree<Rect>,
        start: Point,
        engine: EngineSlot<'e>,
    ) -> Self {
        assert!(
            start.x.is_finite() && start.y.is_finite(),
            "non-finite session start"
        );
        SessionCore {
            data_tree,
            obstacle_tree,
            engine,
            loaded: LoadedObstacles::default(),
            vertices: vec![start],
            cum: vec![0.0],
            joint_node: None,
            joint_bound: None,
            stats: QueryStats::default(),
        }
    }

    fn position(&self) -> Point {
        // Infallible: vertices starts with the session origin and only grows.
        // lint:allow(no-panic-in-query-path)
        *self.vertices.last().unwrap()
    }

    /// Runs one leg of Algorithm 4 on the session substrate and pools the
    /// leg's stats. Returns the filled sink, the leg segment, and its
    /// cumulative offset.
    fn run_leg_sink<R: ResultSink>(
        &mut self,
        to: Point,
        make_sink: impl FnOnce(f64) -> R,
    ) -> (R, Segment, f64) {
        assert!(
            to.x.is_finite() && to.y.is_finite(),
            "non-finite leg vertex"
        );
        let leg = Segment::new(self.position(), to);
        assert!(!leg.is_degenerate(), "degenerate trajectory leg");
        // Infallible: cum starts as vec![0.0] and only grows.
        // lint:allow(no-panic-in-query-path)
        let offset = *self.cum.last().unwrap();
        let (sink, (_, e_node), stats) = warm_leg(
            self.engine.get(),
            &mut self.loaded,
            (self.data_tree, self.obstacle_tree),
            &leg,
            (self.joint_node, None),
            make_sink(leg.len()),
            self.joint_bound,
        );
        self.stats.accumulate(&stats);
        self.joint_node = Some(e_node);
        self.vertices.push(to);
        self.cum.push(offset + leg.len());
        (sink, leg, offset)
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

/// One run of Algorithm 4 over `leg` on `engine`: warm when `ends.0` names
/// the start node an earlier run left in the graph (graph, adjacency caches
/// and `loaded` are kept; the obstacle stream skips what is loaded), a clean
/// query start otherwise. `ends.1` is the end node when an earlier run left
/// that too (a standing query re-running its segment, [`crate::live`]).
/// `joint_bound` is the answer value at the leg's start when the caller
/// knows it (a session's previous leg): the basis of the seeded `RLMAX`
/// bound. Returns the sink, both endpoint nodes and the leg's stats.
pub(crate) fn warm_leg<R: ResultSink>(
    engine: &mut QueryEngine,
    loaded: &mut LoadedObstacles,
    (data_tree, obstacle_tree): (&RStarTree<DataPoint>, &RStarTree<Rect>),
    leg: &Segment,
    ends: (Option<NodeId>, Option<NodeId>),
    mut sink: R,
    joint_bound: Option<f64>,
) -> (R, (NodeId, NodeId), QueryStats) {
    // query-boundary elapsed time; the kernel loop never reads the clock
    let started = Instant::now(); // lint:allow(no-wallclock-in-kernels)
    let (cfg, ws, io) = engine.parts();
    let s_node = match ends.0 {
        Some(n) => {
            ws.begin_leg(io);
            n
        }
        None => {
            // a clean query start on (possibly reused) state
            ws.begin_query(io);
            loaded.clear();
            ws.g.add_point(leg.a, NodeKind::Endpoint)
        }
    };
    let e_node = match ends {
        (Some(_), Some(e)) => e,
        _ => ws.g.add_point(leg.b, NodeKind::Endpoint),
    };
    // Lipschitz continuation bound: along an unblocked leg the NN distance
    // moves at most 1:1 with the parameter, so the previous joint's answer
    // caps this leg's final RLMAX. Blocked legs (a trajectory cutting
    // through an obstacle) fall back to ∞ — the 1-Lipschitz argument needs
    // the straight run back to the joint. (Inside the stats window: the
    // clearance check is a real per-leg cost the session pays and the cold
    // path does not.)
    let seed_bound = match joint_bound {
        Some(d) if leg_is_clear(obstacle_tree, leg, &io.obstacle) => d + leg.len(),
        _ => f64::INFINITY,
    };
    let mut streams = SessionStreams::new(data_tree, obstacle_tree, leg, io, loaded);
    let telemetry = run_leg(
        &mut streams,
        leg,
        &cfg,
        &mut sink,
        ws,
        s_node,
        e_node,
        seed_bound,
    );
    let stats = QueryStats {
        cpu: started.elapsed(),
        npe: telemetry.npe,
        noe: telemetry.noe,
        svg_nodes: telemetry.svg_nodes,
        result_tuples: sink.tuples(),
        ..ws.finish_query(io)
    };
    (sink, (s_node, e_node), stats)
}

/// No loaded obstacle may cross the leg — the precondition of the seeded
/// bound's 1-Lipschitz argument (checked against the *full* obstacle tree,
/// not just the loaded subset, so the bound is sound unconditionally).
fn leg_is_clear(obstacle_tree: &RStarTree<Rect>, leg: &Segment, io: &IoMeter) -> bool {
    obstacle_tree
        .range_metered(&Rect::from_segment(leg), io)
        .iter()
        .all(|r| !r.blocks(leg))
}

/// A streaming trajectory CONN session (k = 1). See the module docs for
/// the reuse model; the service answers a [`crate::Query::trajectory`] by
/// replaying the complete [`Trajectory`] through one of these.
pub struct TrajectorySession<'t, 'e> {
    core: SessionCore<'t, 'e>,
    segments: Vec<(Option<DataPoint>, Interval)>,
}

impl<'t> TrajectorySession<'t, 'static> {
    /// A session starting at `start`, on its own engine.
    pub fn new(
        data_tree: &'t RStarTree<DataPoint>,
        obstacle_tree: &'t RStarTree<Rect>,
        start: Point,
        cfg: ConnConfig,
    ) -> Self {
        TrajectorySession {
            core: SessionCore::new(
                data_tree,
                obstacle_tree,
                start,
                EngineSlot::Owned(Box::new(QueryEngine::new(cfg))),
            ),
            segments: Vec::new(),
        }
    }
}

impl<'t, 'e> TrajectorySession<'t, 'e> {
    /// A session on a caller-provided engine (batch workers amortize one
    /// engine across many trajectories). The first leg rewinds the engine
    /// exactly like any new query, so no state leaks between sessions.
    pub fn with_engine(
        data_tree: &'t RStarTree<DataPoint>,
        obstacle_tree: &'t RStarTree<Rect>,
        start: Point,
        engine: &'e mut QueryEngine,
    ) -> Self {
        TrajectorySession {
            core: SessionCore::new(
                data_tree,
                obstacle_tree,
                start,
                EngineSlot::Borrowed(engine),
            ),
            segments: Vec::new(),
        }
    }

    /// Extends the trajectory to `to` and answers the new leg, keeping the
    /// engine warm. Returns the **delta**: the `⟨p, R⟩` tuples covering
    /// `(prev_len, new_len]` in cumulative arclength. When the answer
    /// persists across the joint, the delta's first tuple starts exactly
    /// at `prev_len` and [`TrajectorySession::segments`] shows it merged
    /// with the previous tuple.
    pub fn push_leg(&mut self, to: Point) -> Vec<(Option<DataPoint>, Interval)> {
        let (list, leg, offset) = self.core.run_leg_sink(to, ResultList::new);
        let res = ConnResult::new(leg, list);
        let end = offset + leg.len();
        stitch_leg(&mut self.segments, &res.segments(), offset, end);
        // next leg's seed: the NN distance at the new joint
        self.core.joint_bound = res.nn_at(leg.len()).map(|(_, d)| d);

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
    pub fn len(&self) -> f64 {
        // Infallible: cum starts as vec![0.0] and only grows.
        // lint:allow(no-panic-in-query-path)
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
/// The new leg's pruning bound is
/// seeded from the k-th distance at the joint.
pub struct TrajectoryCoknnSession<'t, 'e> {
    core: SessionCore<'t, 'e>,
    k: usize,
    legs: Vec<CoknnResult>,
}

impl<'t> TrajectoryCoknnSession<'t, 'static> {
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
            core: SessionCore::new(
                data_tree,
                obstacle_tree,
                start,
                EngineSlot::Owned(Box::new(QueryEngine::new(cfg))),
            ),
            k,
            legs: Vec::new(),
        }
    }
}

impl<'t, 'e> TrajectoryCoknnSession<'t, 'e> {
    /// See [`TrajectorySession::with_engine`].
    pub fn with_engine(
        data_tree: &'t RStarTree<DataPoint>,
        obstacle_tree: &'t RStarTree<Rect>,
        start: Point,
        k: usize,
        engine: &'e mut QueryEngine,
    ) -> Self {
        assert!(k >= 1, "k must be at least 1");
        TrajectoryCoknnSession {
            core: SessionCore::new(
                data_tree,
                obstacle_tree,
                start,
                EngineSlot::Borrowed(engine),
            ),
            k,
            legs: Vec::new(),
        }
    }

    /// Extends the trajectory to `to`; returns the new leg's result.
    pub fn push_leg(&mut self, to: Point) -> &CoknnResult {
        let k = self.k;
        let (list, leg, _) = self
            .core
            .run_leg_sink(to, |qlen| KnnResultList::new(qlen, k));
        let res = CoknnResult::new(leg, list);
        // seed basis: the k-th (worst of the k) distance at the joint —
        // only when a full k-set is reachable there
        let knn = res.knn_at(leg.len());
        self.core.joint_bound =
            (knn.len() == k).then(|| knn.iter().map(|(_, d)| *d).fold(0.0, f64::max));
        self.legs.push(res);
        // Infallible: pushed on the line above.
        // lint:allow(no-panic-in-query-path)
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
    use crate::baseline::trajectory_conn_cold;

    fn setup() -> (RStarTree<DataPoint>, RStarTree<Rect>) {
        let points = vec![
            DataPoint::new(0, Point::new(20.0, 30.0)),
            DataPoint::new(1, Point::new(80.0, -20.0)),
            DataPoint::new(2, Point::new(130.0, 50.0)),
            DataPoint::new(3, Point::new(60.0, 90.0)),
        ];
        let obstacles = vec![
            Rect::new(40.0, 10.0, 60.0, 25.0),
            Rect::new(110.0, 20.0, 120.0, 60.0),
            Rect::new(30.0, 55.0, 80.0, 70.0),
        ];
        (
            RStarTree::bulk_load(points, 4096),
            RStarTree::bulk_load(obstacles, 4096),
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

    #[test]
    fn session_matches_cold_per_leg() {
        let (dt, ot) = setup();
        let verts = route();
        let traj = Trajectory::new(verts.clone());
        let cfg = ConnConfig::default();
        let (cold, cold_stats) = trajectory_conn_cold(&dt, &ot, &traj, &cfg);

        let mut session = TrajectorySession::new(&dt, &ot, verts[0], cfg);
        let mut concat: Vec<(Option<DataPoint>, Interval)> = Vec::new();
        for &v in &verts[1..] {
            let delta = session.push_leg(v);
            // deltas chain contiguously
            assert!(
                (delta.first().unwrap().1.lo - concat.last().map_or(0.0, |x| x.1.hi)).abs() < 1e-9
            );
            concat.extend(delta);
        }
        let (res, stats) = session.finish();
        res.check_cover().unwrap();
        cold.check_cover().unwrap();
        assert!(stats.reuse.graph_reuses >= 2, "later legs must run warm");
        assert!(
            stats.noe <= cold_stats.noe,
            "a session keeps its obstacles: it may not load more than cold legs ({} > {})",
            stats.noe,
            cold_stats.noe
        );

        // same answers everywhere (ties resolved identically here)
        for i in 0..=120 {
            let t = traj.len() * (i as f64) / 120.0;
            let a = cold.nn_at(t).map(|p| p.id);
            let b = res.nn_at(t).map(|p| p.id);
            assert_eq!(a, b, "answer diverged at t = {t}");
        }
        // the concatenated deltas reproduce the stitched segments
        let mut merged: Vec<(Option<DataPoint>, Interval)> = Vec::new();
        for (p, iv) in concat {
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
