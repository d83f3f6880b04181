//! The point-anchored loader and the point-to-point resolver built on it.
//!
//! Every family loads obstacles through the one `ObstacleStream` of
//! [`crate::streams`], incrementally from the obstacle R\*-tree and bounded
//! by the current best distance, never from a flat copy of the field.
//! CONN/COkNN/trajectories anchor it at a *segment* (paper Algorithm 1);
//! everything anchored at points — odist, route, ONN and range — goes
//! through the `Resolver` here.
//!
//! ## Contract
//!
//! A resolver serves one query and one `Anchor`, fixed when it is made.
//! After `Resolver::load``(B)` the graph holds every tree obstacle `R` with
//! `anchor.dist_rect(R) ≤ B` (`affected` adds float slack):
//!
//! * `Anchor::Disc``(s)` — `mindist(s, R) ≤ B`. Every point of a path of
//!   length `≤ B` that starts or ends at `s` lies within `B` of `s`, so no
//!   unloaded obstacle can touch such a path (Lemma 3 with `q` degenerated
//!   to the point `s`). One anchor serves many targets: ONN settles every
//!   candidate on one `nearest_iter` stream.
//! * `Anchor::Ellipse``(a, b)` — `mindist(a, R) + mindist(b, R) ≤ B`. Any
//!   point `x` of an `a`–`b` path of length `≤ B` has `|ax| + |xb| ≤ B`, so
//!   again no unloaded obstacle can touch it. The sum lower-bounds itself
//!   over R-tree nodes (an MBR is no farther from either focus than its
//!   contents), so the tree streams obstacles in ascending sum directly.
//!
//! The stream opens on the first load, so a query answered without one
//! reads no obstacle page for it. A streamed obstacle the graph already
//! holds (a duplicate input rectangle) is skipped.
//!
//! `Resolver::settle` is the fix-point on top: load to `B`, search, and
//! stop when the distance `d ≤ B` — the graph then holds only real
//! obstacles (so `d` is no longer than the true distance) and every
//! obstacle that could touch a path that short (so the witness is valid):
//! `d` is exact. Otherwise `B = d` and the next round loads further.
//! `d = ∞` is final at *any* load level: obstacles only block, so endpoints
//! a subset already disconnects stay disconnected under the whole field.
//!
//! The whole-field reference the tests compare against lives in
//! [`crate::baseline`] and shares no code with this module.

use std::time::Instant;

use conn_geom::{Point, Rect};
use conn_index::{DistShape, IoMeter, RStarTree};
use conn_vgraph::{DijkstraEngine, NodeId, NodeKind, VisGraph};

use crate::config::{ConnConfig, KernelMode};
use crate::engine::QueryEngine;
use crate::stats::QueryStats;
use crate::streams::ObstacleStream;

/// Can something at lower-bound distance `lower` matter to paths of length
/// `≤ bound`? Conservative float slack: the loader must err toward loading,
/// a standing query's certificate toward recomputing.
pub(crate) fn affected(lower: f64, bound: f64) -> bool {
    lower <= bound + 1e-9 * bound.max(1.0)
}

/// What an obstacle load is anchored at (see the module docs).
#[derive(Debug, Clone, Copy)]
pub(crate) enum Anchor {
    /// Paths that start or end at one point.
    Disc(Point),
    /// Paths between two points.
    Ellipse(Point, Point),
}

impl DistShape for Anchor {
    #[inline]
    fn dist_rect(&self, r: &Rect) -> f64 {
        match *self {
            Anchor::Disc(p) => r.mindist_point(p),
            Anchor::Ellipse(a, b) => r.mindist_point(a) + r.mindist_point(b),
        }
    }
}

/// The loader and resolver over the visibility graph and Dijkstra engine
/// of one query's [`crate::engine::Workspace`] and one obstacle tree, whose
/// page reads are charged to `io`. Every load is anchored at `anchor`.
pub(crate) struct Resolver<'w> {
    pub(crate) g: &'w mut VisGraph,
    pub(crate) dij: &'w mut DijkstraEngine,
    tree: &'w RStarTree<Rect>,
    io: &'w IoMeter,
    kernel: KernelMode,
    anchor: Anchor,
    /// Opened by the first load.
    stream: Option<ObstacleStream<'w, Anchor>>,
}

impl<'w> Resolver<'w> {
    pub(crate) fn new(
        g: &'w mut VisGraph,
        dij: &'w mut DijkstraEngine,
        tree: &'w RStarTree<Rect>,
        cfg: &ConnConfig,
        io: &'w IoMeter,
        anchor: Anchor,
    ) -> Self {
        Resolver {
            g,
            dij,
            tree,
            io,
            kernel: cfg.kernel,
            anchor,
            stream: None,
        }
    }

    /// Obstacles this resolver inserted into the graph (the NOE metric).
    pub(crate) fn noe(&self) -> u64 {
        self.stream.as_ref().map_or(0, |s| s.added() as u64)
    }

    /// True when `p` lies strictly inside some tree obstacle: nothing is
    /// reachable from such a point (blocking is open-interior containment),
    /// so callers answer `∞` / empty without searching. One tree point
    /// query.
    pub(crate) fn swallowed(&self, p: Point) -> bool {
        self.tree
            .nearest_iter_metered(p, self.io)
            .take_while(|(_, d)| *d <= 0.0)
            .any(|(r, _)| r.strictly_contains(p))
    }

    /// Loads every not-yet-loaded tree obstacle within `bound` of the
    /// anchor and returns the bound the anchor is now loaded to (a previous
    /// call may already have gone further).
    pub(crate) fn load(&mut self, bound: f64) -> f64 {
        let s = self
            .stream
            .get_or_insert_with(|| ObstacleStream::new(self.tree, self.anchor, self.io, affected));
        s.load(self.g, bound);
        s.upto()
    }

    /// Exact obstructed distance from node `src` to node `dst` (`∞` when
    /// unreachable) by the load–search fix-point of the module docs,
    /// starting at `bound`. Every `src`–`dst` path must be one the anchor
    /// covers.
    pub(crate) fn settle(&mut self, src: NodeId, dst: NodeId, mut bound: f64) -> f64 {
        let goal = self.kernel.point_goal(self.g.node_pos(dst));
        loop {
            bound = self.load(bound);
            // a round that loaded obstacles starts cold; one that loaded
            // none replays the previous round's search
            self.dij
                .ensure_prepared(self.g, src, goal, self.kernel.warm_labels());
            let d = self.dij.run_until_settled(self.g, dst);
            if !d.is_finite() || affected(d, bound) {
                return d;
            }
            bound = d;
        }
    }

    /// Needs the anchor `Ellipse(a, b)`.
    fn pair(&mut self, a: Point, b: Point) -> (f64, NodeId, NodeId) {
        let na = self.g.add_point(a, NodeKind::DataPoint);
        let nb = self.g.add_point(b, NodeKind::DataPoint);
        let d = self.settle(na, nb, a.dist(b));
        (d, na, nb)
    }

    /// Obstructed distance between two points.
    pub(crate) fn resolve(&mut self, a: Point, b: Point) -> f64 {
        let (d, na, nb) = self.pair(a, b);
        self.g.remove_node(na);
        self.g.remove_node(nb);
        d
    }

    /// Obstructed distance and shortest path between two points.
    pub(crate) fn resolve_route(&mut self, a: Point, b: Point) -> (f64, Option<Vec<Point>>) {
        let (d, na, nb) = self.pair(a, b);
        let path = d.is_finite().then(|| {
            self.dij
                .path_to(nb)
                .iter()
                .map(|&n| self.g.node_pos(n))
                .collect()
        });
        self.g.remove_node(na);
        self.g.remove_node(nb);
        (d, path)
    }
}

impl QueryEngine {
    /// Runs one point-anchored family on the rewound workspace: opens the
    /// counter window, hands `body` the [`Resolver`] over `obstacle_tree`
    /// at `anchor` and the meter its point-tree traversals are charged to,
    /// and assembles the stats around what it returns — the answer, the
    /// points evaluated (NPE) and the result tuples.
    pub(crate) fn point_family<T>(
        &mut self,
        obstacle_tree: &RStarTree<Rect>,
        anchor: Anchor,
        body: impl FnOnce(&mut Resolver<'_>, &IoMeter) -> (T, u64, u64),
    ) -> (T, QueryStats) {
        #[expect(
            clippy::disallowed_methods,
            reason = "query-boundary elapsed time for QueryStats; the kernel loops never read the clock"
        )]
        let started = Instant::now();
        let (cfg, ws, io) = self.parts();
        ws.begin_query(io);
        let mut resolver = ws.resolver(obstacle_tree, &cfg, &io.obstacle, anchor);
        let (answer, npe, result_tuples) = body(&mut resolver, &io.data);
        let noe = resolver.noe();
        let stats = QueryStats {
            cpu: started.elapsed(),
            npe,
            noe,
            svg_nodes: ws.g.num_nodes() as u64,
            result_tuples,
            ..ws.finish_query(io)
        };
        (answer, stats)
    }

    /// Point-to-point obstructed distance, with the path when asked for.
    pub(crate) fn odist(
        &mut self,
        obstacle_tree: &RStarTree<Rect>,
        a: Point,
        b: Point,
        want_path: bool,
    ) -> ((f64, Option<Vec<Point>>), QueryStats) {
        self.point_family(obstacle_tree, Anchor::Ellipse(a, b), |r, _| {
            let route = if r.swallowed(a) || r.swallowed(b) {
                (f64::INFINITY, None)
            } else if want_path {
                r.resolve_route(a, b)
            } else {
                (r.resolve(a, b), None)
            };
            (route, 0, 1)
        })
    }

    /// Length of the shortest obstacle-avoiding path from `a` to `b` (`∞`
    /// when no path exists), loading only the obstacles that can matter
    /// from `obstacle_tree`.
    pub fn obstructed_distance(
        &mut self,
        obstacle_tree: &RStarTree<Rect>,
        a: Point,
        b: Point,
    ) -> (f64, QueryStats) {
        let ((d, _), stats) = self.odist(obstacle_tree, a, b, false);
        (d, stats)
    }

    /// Obstructed distance *and* path (polyline through obstacle corners;
    /// `None` when unreachable) in one search.
    pub fn obstructed_route(
        &mut self,
        obstacle_tree: &RStarTree<Rect>,
        a: Point,
        b: Point,
    ) -> ((f64, Option<Vec<Point>>), QueryStats) {
        self.odist(obstacle_tree, a, b, true)
    }

    /// The shortest obstacle-avoiding path itself.
    pub fn obstructed_path(
        &mut self,
        obstacle_tree: &RStarTree<Rect>,
        a: Point,
        b: Point,
    ) -> (Option<Vec<Point>>, QueryStats) {
        let ((_, path), stats) = self.odist(obstacle_tree, a, b, true);
        (path, stats)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::baseline;

    fn tree(obstacles: &[Rect]) -> RStarTree<Rect> {
        RStarTree::bulk_load(obstacles.to_vec(), 4096)
    }

    #[test]
    fn free_space_is_euclid() {
        let a = Point::new(0.0, 0.0);
        let b = Point::new(30.0, 40.0);
        let mut engine = QueryEngine::default();
        let ((d, path), stats) = engine.obstructed_route(&tree(&[]), a, b);
        assert_eq!(d, 50.0);
        assert_eq!(path.unwrap(), vec![a, b]);
        assert_eq!(stats.noe, 0);
    }

    /// The paper's Figure 1(b) `a`–`g` example shape: one obstacle, detour
    /// through a corner `m`.
    #[test]
    fn detour_goes_through_a_corner() {
        let o = Rect::new(40.0, -10.0, 60.0, 30.0);
        let a = Point::new(0.0, 0.0);
        let g = Point::new(100.0, 0.0);
        let mut engine = QueryEngine::default();
        let ((d, path), _) = engine.obstructed_route(&tree(&[o]), a, g);
        let via_top = a.dist(Point::new(40.0, 30.0))
            + Point::new(40.0, 30.0).dist(Point::new(60.0, 30.0))
            + Point::new(60.0, 30.0).dist(g);
        let via_bottom = a.dist(Point::new(40.0, -10.0)) + 20.0 + Point::new(60.0, -10.0).dist(g);
        assert!((d - via_top.min(via_bottom)).abs() < 1e-9);
        assert!((d - baseline::obstructed_distance(&[o], a, g)).abs() < 1e-9);
        let path = path.unwrap();
        assert!(path.len() == 4, "two corner bends expected: {path:?}");
    }

    #[test]
    fn route_combines_distance_and_path() {
        let t = tree(&[Rect::new(40.0, -10.0, 60.0, 30.0)]);
        let a = Point::new(0.0, 0.0);
        let b = Point::new(100.0, 0.0);
        let mut engine = QueryEngine::default();
        let ((d, path), stats) = engine.obstructed_route(&t, a, b);
        assert_eq!(
            d.to_bits(),
            engine.obstructed_distance(&t, a, b).0.to_bits()
        );
        assert_eq!(path, engine.obstructed_path(&t, a, b).0);
        // the stats window is the workspace's, like every other family
        assert_eq!(stats.noe, 1);
        assert!(stats.obstacle_io.reads > 0 && stats.reuse.sight_tests > 0);
    }

    #[test]
    fn unreachable_is_infinite() {
        // target boxed in by overlapping walls
        let walls = tree(&[
            Rect::new(40.0, 40.0, 60.0, 45.0),
            Rect::new(40.0, 55.0, 60.0, 60.0),
            Rect::new(40.0, 40.0, 45.0, 60.0),
            Rect::new(55.0, 40.0, 60.0, 60.0),
        ]);
        let mut engine = QueryEngine::default();
        let ((d, path), _) =
            engine.obstructed_route(&walls, Point::new(0.0, 0.0), Point::new(50.0, 50.0));
        assert!(d.is_infinite());
        assert!(path.is_none());
    }

    #[test]
    fn loads_follow_the_anchor_and_never_repeat() {
        let near = Rect::new(10.0, -5.0, 20.0, 5.0);
        let far = Rect::new(500.0, 500.0, 510.0, 510.0);
        // `near` twice: a duplicate input rectangle enters the graph once
        let t = tree(&[near, near, Rect::new(60.0, -5.0, 70.0, 5.0), far]);
        let cfg = ConnConfig::default();
        let io = crate::engine::Meters::default();
        let mut ws = crate::engine::Workspace::new(&cfg);
        ws.begin_query(&io);
        let s = Point::new(10.0, 0.0);
        let mut r = ws.resolver(&t, &cfg, &io.obstacle, Anchor::Disc(s));
        // a zero bound still loads what touches the anchor
        assert_eq!(r.load(0.0), 0.0);
        assert_eq!(r.noe(), 1);
        // a growing bound continues the open stream
        assert_eq!(r.load(15.0), 15.0);
        assert_eq!(r.noe(), 1, "nothing new within 15");
        assert_eq!(r.load(5.0), 15.0, "already loaded further");
        r.load(55.0);
        assert_eq!(r.noe(), 2);
        r.load(2000.0);
        assert_eq!(r.noe(), 3);
        assert_eq!(ws.g.num_obstacles(), 3);
    }
}
