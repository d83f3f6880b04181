//! IOR — Incremental Obstacle Retrieval (paper §4.1, Algorithm 1).
//!
//! Before a data point `p` can be evaluated, the local visibility graph must
//! contain every obstacle that can affect obstructed distances from `p` to
//! the query segment. Theorem 2 bounds those obstacles by the region between
//! the shortest paths `SP(p,S)`, `SP(p,E)` and `q`; Lemma 4 converts that to
//! "every obstacle with `mindist(o, q) ≤ max(‖p,S‖, ‖p,E‖)`". IOR therefore
//! alternates Dijkstra runs with obstacle loading until the bound stops
//! growing (Lemma 3 certifies the fix-point paths as exact).
//!
//! The graph and the obstacle stream — which owns the bound it has been
//! drained to (`streams.rs`) — are shared across all data points of one
//! query, so the obstacle R-tree is traversed at most once per query.
//!
//! An endpoint the loaded obstacles already cut off from `p` is final:
//! obstacles only block, so no further load can reconnect it, and IOR
//! returns with it unsettled (the stretches of `q` that `p` does reach are
//! CPLC's, and strict refinement certifies their values).
//!
//! Under [`crate::KernelMode::GoalDirected`] the Dijkstra runs are A*
//! searches keyed toward the query segment (`S` and `E` both lie on it, so
//! the heuristic is admissible for either target), expanding a corridor
//! between `p` and `q` instead of a full disk of radius `max(‖p,S‖,‖p,E‖)`.
//! Each retrieval round that loaded obstacles searches again from a cold
//! heap, as Algorithm 1 does; the converged search is left in the
//! workspace, and with its warm labels CPLC replays it instead of
//! re-running it.

use conn_geom::Segment;
use conn_vgraph::{DijkstraEngine, NodeId, VisGraph};

use crate::config::ConnConfig;
use crate::streams::QueryStreams;

/// Runs Algorithm 1 for the data point at `p_node`. On return the graph
/// holds every obstacle with `mindist(o, q) ≤ streams.loaded_bound()`, and
/// `dij` holds the settled endpoint distances — exact, or unsettled when
/// an endpoint is unreachable (within `cap`). `dij` is the caller's
/// reusable Dijkstra scratch (re-prepared on every retrieval round).
///
/// `cap` (∞ when the caller has no bound) prunes the retrieval itself: a
/// value of `p` can only decide the result below the caller's incumbent
/// bound, and any obstructed path from `p` to `q` shorter than `cap`
/// touches only obstacles with `mindist(o, q) < cap` (the remaining path
/// from the touch point reaches `q`). The endpoint searches therefore run
/// with `cap` as their expansion bound, and when an endpoint is bounded
/// out the loop loads exactly the `mindist ≤ cap` obstacles and stops —
/// every value `< cap` computed afterwards is as exact as with the
/// uncapped retrieval, and everything it gave up on is territory the
/// incumbent already owns.
#[expect(
    clippy::too_many_arguments,
    reason = "Algorithm 1 borrows the graph, streams and search engine separately, beside the query, its three anchor nodes, the config and the cap"
)]
pub(crate) fn ior<S: QueryStreams>(
    q: &Segment,
    g: &mut VisGraph,
    s_node: NodeId,
    e_node: NodeId,
    p_node: NodeId,
    streams: &mut S,
    dij: &mut DijkstraEngine,
    cfg: &ConnConfig,
    cap: f64,
) {
    let goal = cfg.kernel.goal(q);
    loop {
        dij.ensure_prepared(g, p_node, goal, cfg.kernel.warm_labels());
        if cap.is_finite() {
            dij.set_bound(cap);
        }
        let dist_s = dij.run_until_settled(g, s_node);
        let dist_e = dij.run_until_settled(g, e_node);
        let d_prime = dist_s.max(dist_e);
        // a bounded-out endpoint (or one walled in — indistinguishable, and
        // equally irrelevant past the cap) makes the loaded set sub-cap
        // complete; an unreachable one under no cap is final
        let bound = if d_prime.is_finite() { d_prime } else { cap };
        // revalidate the paths against whatever the load added
        if !bound.is_finite() || streams.load_obstacles_until(g, bound) == 0 {
            return;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::streams::SegmentStreams;
    use crate::types::DataPoint;
    use conn_geom::{Point, Rect};
    use conn_index::RStarTree;
    use conn_vgraph::NodeKind;

    fn q() -> Segment {
        Segment::new(Point::new(0.0, 0.0), Point::new(100.0, 0.0))
    }

    /// Endpoint distances IOR left settled (∞ when bounded out).
    struct EndpointPaths {
        dist_s: f64,
        dist_e: f64,
    }

    fn endpoint_paths(dij: &DijkstraEngine, s: NodeId, e: NodeId) -> EndpointPaths {
        let settled = |n| dij.settled_dist(n).unwrap_or(f64::INFINITY);
        EndpointPaths {
            dist_s: settled(s),
            dist_e: settled(e),
        }
    }

    fn run_ior(ppos: Point, obstacles: Vec<Rect>) -> (EndpointPaths, usize, f64) {
        let data = RStarTree::bulk_load(vec![DataPoint::new(0, ppos)], 4096);
        let obs = RStarTree::bulk_load(obstacles, 4096);
        let q = q();
        let io = crate::engine::Meters::default();
        let mut streams = SegmentStreams::new(&data, &obs, &q, &io);
        let mut g = VisGraph::new(50.0);
        let s = g.add_point(q.a, NodeKind::Endpoint);
        let e = g.add_point(q.b, NodeKind::Endpoint);
        let p = g.add_point(ppos, NodeKind::DataPoint);
        let mut dij = DijkstraEngine::default();
        let cfg = ConnConfig::default();
        ior(
            &q,
            &mut g,
            s,
            e,
            p,
            &mut streams,
            &mut dij,
            &cfg,
            f64::INFINITY,
        );
        let paths = endpoint_paths(&dij, s, e);
        (paths, streams.obstacles_loaded(), streams.loaded_bound())
    }

    #[test]
    fn free_space_loads_nothing_relevant() {
        let (paths, loaded, bound) = run_ior(Point::new(50.0, 30.0), vec![]);
        assert!((paths.dist_s - Point::new(50.0, 30.0).dist(Point::new(0.0, 0.0))).abs() < 1e-9);
        assert!((paths.dist_e - Point::new(50.0, 30.0).dist(Point::new(100.0, 0.0))).abs() < 1e-9);
        assert_eq!(loaded, 0);
        assert!(bound > 0.0);
    }

    #[test]
    fn distant_obstacles_stay_unloaded() {
        let (paths, loaded, _) = run_ior(
            Point::new(50.0, 30.0),
            vec![Rect::new(5000.0, 5000.0, 5100.0, 5100.0)],
        );
        assert!(paths.dist_s.is_finite());
        assert_eq!(loaded, 0, "far obstacle must not be retrieved");
    }

    #[test]
    fn blocking_obstacle_is_loaded_and_detour_found() {
        // wall between p and the whole segment
        let wall = Rect::new(-20.0, 15.0, 120.0, 25.0);
        let ppos = Point::new(50.0, 40.0);
        let (paths, loaded, _) = run_ior(ppos, vec![wall]);
        assert_eq!(loaded, 1);
        // detour via a wall end: (-20,15)/(120,15) corners etc.
        let direct_s = ppos.dist(Point::new(0.0, 0.0));
        assert!(paths.dist_s > direct_s + 1.0, "no detour: {}", paths.dist_s);
        // sanity: detour via left end
        let via_left = ppos.dist(Point::new(-20.0, 25.0))
            + Point::new(-20.0, 25.0).dist(Point::new(-20.0, 15.0))
            + Point::new(-20.0, 15.0).dist(Point::new(0.0, 0.0));
        assert!(paths.dist_s <= via_left + 1e-9);
    }

    /// A finite cap stops both the endpoint searches and the obstacle
    /// loading: obstacles beyond the cap's mindist stay unloaded, and a
    /// bounded-out endpoint reports ∞ instead of dragging in the world.
    #[test]
    fn capped_retrieval_stays_local() {
        let far_wall = Rect::new(-2000.0, 500.0, 2200.0, 520.0); // mindist 500
        let data = RStarTree::bulk_load(vec![DataPoint::new(0, Point::new(50.0, 30.0))], 4096);
        let obs = RStarTree::bulk_load(vec![far_wall], 4096);
        let q = q();
        let io = crate::engine::Meters::default();
        let mut streams = SegmentStreams::new(&data, &obs, &q, &io);
        let mut g = VisGraph::new(50.0);
        let s = g.add_point(q.a, NodeKind::Endpoint);
        let e = g.add_point(q.b, NodeKind::Endpoint);
        let p = g.add_point(Point::new(50.0, 30.0), NodeKind::DataPoint);
        let mut dij = DijkstraEngine::default();
        let cfg = ConnConfig::default();
        ior(&q, &mut g, s, e, p, &mut streams, &mut dij, &cfg, 200.0);
        let paths = endpoint_paths(&dij, s, e);
        // within the cap everything is exact and the far wall stays out
        assert!((paths.dist_s - Point::new(50.0, 30.0).dist(q.a)).abs() < 1e-9);
        assert_eq!(streams.obstacles_loaded(), 0);

        // a cap below the true endpoint distances bounds the search out
        // without loading past the cap either
        let p2 = g.add_point(Point::new(50.0, 2000.0), NodeKind::DataPoint);
        ior(&q, &mut g, s, e, p2, &mut streams, &mut dij, &cfg, 100.0);
        let paths = endpoint_paths(&dij, s, e);
        assert!(paths.dist_s.is_infinite() && paths.dist_e.is_infinite());
        assert_eq!(streams.obstacles_loaded(), 0, "mindist 500 > cap 100");
    }

    /// An endpoint the loaded obstacles cut off stays cut off under any
    /// superset, so IOR stops instead of widening the load: `S` sits inside
    /// the near obstacle, and the far one is never read.
    #[test]
    fn an_unreachable_endpoint_is_final() {
        let around_s = Rect::new(-10.0, -10.0, 10.0, 10.0);
        let far = Rect::new(3000.0, 3000.0, 3100.0, 3100.0);
        let (paths, loaded, bound) = run_ior(Point::new(50.0, 30.0), vec![around_s, far]);
        assert!(paths.dist_s.is_infinite() && paths.dist_e.is_finite());
        assert_eq!(loaded, 1, "only the obstacle within the first bound");
        assert!(bound < 100.0);
    }

    #[test]
    fn cascading_retrieval_until_fixpoint() {
        // first wall forces a detour whose length pulls in a second wall
        let walls = vec![
            Rect::new(30.0, 10.0, 70.0, 20.0), // near q, close mindist
            Rect::new(10.0, 30.0, 90.0, 40.0), // farther from q, blocks detour
        ];
        let ppos = Point::new(50.0, 60.0);
        let (paths, loaded, bound) = run_ior(ppos, walls);
        assert_eq!(loaded, 2, "both walls affect the shortest paths");
        assert!(paths.dist_s.is_finite() && paths.dist_e.is_finite());
        assert!(bound >= paths.dist_s.max(paths.dist_e) - 1e-9);
    }

    #[test]
    fn shared_state_avoids_reloading() {
        let data = RStarTree::bulk_load(
            vec![
                DataPoint::new(0, Point::new(50.0, 30.0)),
                DataPoint::new(1, Point::new(55.0, 28.0)),
            ],
            4096,
        );
        let obs = RStarTree::bulk_load(vec![Rect::new(40.0, 10.0, 60.0, 20.0)], 4096);
        let q = q();
        let io = crate::engine::Meters::default();
        let mut streams = SegmentStreams::new(&data, &obs, &q, &io);
        let mut g = VisGraph::new(50.0);
        let s = g.add_point(q.a, NodeKind::Endpoint);
        let e = g.add_point(q.b, NodeKind::Endpoint);
        let mut dij = DijkstraEngine::default();
        let cfg = ConnConfig::default();

        let p0 = g.add_point(Point::new(50.0, 30.0), NodeKind::DataPoint);
        ior(
            &q,
            &mut g,
            s,
            e,
            p0,
            &mut streams,
            &mut dij,
            &cfg,
            f64::INFINITY,
        );
        g.remove_node(p0);
        let bound_after_first = streams.loaded_bound();
        let loaded_after_first = streams.obstacles_loaded();

        let p1 = g.add_point(Point::new(55.0, 28.0), NodeKind::DataPoint);
        ior(
            &q,
            &mut g,
            s,
            e,
            p1,
            &mut streams,
            &mut dij,
            &cfg,
            f64::INFINITY,
        );
        g.remove_node(p1);
        // second, similar point: bound may grow slightly but nothing new to load
        assert_eq!(streams.obstacles_loaded(), loaded_after_first);
        assert!(streams.loaded_bound() >= bound_after_first);
    }
}
