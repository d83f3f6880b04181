//! CONN search (paper §4.4, Algorithm 4).
//!
//! Streams data points in ascending `mindist(p, q)` from the data R-tree;
//! for each point runs IOR (obstacle retrieval), CPLC (control points) and
//! RLU (result refinement); stops once the next point's `mindist` exceeds
//! `RLMAX` (Lemma 2). CONN is COkNN at `k = 1`: the one loop fills the one
//! result list of `rlu.rs` for every `k`, drives the single-tree variant
//! through the [`crate::streams::QueryStreams`] abstraction, and runs
//! entirely on a caller-provided [`crate::engine::Workspace`] so a reused
//! engine performs no per-query substrate allocations. The answer of
//! either is a [`crate::CoknnResult`]; CONN's is the `k = 1` list, whose
//! tuples are the paper's `⟨p, cp, R⟩`.

use conn_geom::{Segment, EPS};
use conn_vgraph::{NodeId, NodeKind};

use crate::config::ConnConfig;
use crate::cpl::cplc_bounded;
use crate::engine::Workspace;
use crate::ior::ior;
use crate::rlu::KnnResultList;
use crate::streams::QueryStreams;
use crate::types::DataPoint;

/// Loop-level telemetry (everything except R-tree I/O, which the workspace
/// window reads off the engine's meters).
#[derive(Debug, Default, Clone, Copy)]
pub(crate) struct LoopTelemetry {
    /// Data points evaluated (paper metric NPE).
    pub npe: u64,
    /// Obstacles evaluated (paper metric NOE).
    pub noe: u64,
    /// Peak visibility-graph node count (paper metric |SVG|).
    pub svg_nodes: u64,
}

/// The shared search loop of Algorithm 4 on a prepared workspace: the
/// engine's one driver has rewound it (`Workspace::begin_query`) or kept
/// the graph of a standing query's previous run (`Workspace::begin_leg`),
/// and hands over the two endpoint nodes. The graph, Dijkstra labels and VR
/// cache come from `ws`; the loading threshold is the obstacle stream's.
pub(crate) fn run_search<S: QueryStreams>(
    streams: &mut S,
    q: &Segment,
    cfg: &ConnConfig,
    list: &mut KnnResultList,
    ws: &mut Workspace,
    (s_node, e_node): (NodeId, NodeId),
) -> LoopTelemetry {
    let mut npe = 0u64;

    while let Some(dist) = streams.peek_point_dist() {
        // Lemma 2 bound: terminates the point stream, and (via
        // `cplc_bounded`) caps control-point expansion and refinement for
        // the point being evaluated — values above it can never win.
        let outer_bound = list.rlmax(q, ws.g.obstacles());
        if dist > outer_bound {
            break;
        }
        #[expect(
            clippy::expect_used,
            reason = "the peek above returned Some for this same stream"
        )]
        let (p, _) = streams.next_point().expect("peeked point");
        npe += 1;

        let p_node = ws.g.add_point(p.pos, NodeKind::DataPoint);
        ws.vr_cache.invalidate(p_node);
        ior(
            q,
            &mut ws.g,
            s_node,
            e_node,
            p_node,
            streams,
            &mut ws.dij,
            cfg,
            cfg.kernel.result_cap(outer_bound),
        );
        let cpl = refine_to_fixpoint(q, ws, p, p_node, cfg, streams, outer_bound);
        ws.g.remove_node(p_node);
        list.update_with(q, &cpl, cfg, &mut ws.rlu_scratch);
    }

    LoopTelemetry {
        npe,
        noe: streams.obstacles_loaded() as u64,
        svg_nodes: ws.g.num_nodes() as u64,
    }
}

/// CPLC for `p`, refined until every value that can win is exact: while
/// a control-point value exceeds the obstacle-loading threshold, load the
/// obstacles up to it and recompute. A value is exact once every obstacle
/// within it of `q` is loaded. The loop terminates because the threshold
/// grows monotonically and the obstacle set is finite. A stretch of `q`
/// that `p` cannot reach under the loaded obstacles stays unreached under
/// all of them (obstacles only block), so it asks for no load.
///
/// The loop is the certificate for segments that meet an obstacle
/// interior. IOR (Lemma 4) loads the obstacles within
/// `max(‖p,S‖, ‖p,E‖)` of `q`. In the paper's model `q` meets no obstacle
/// interior: a shortest path to `q(t)` can then be chosen to cross neither
/// `SP(p,S)` nor `SP(p,E)`, and since `mindist(·, q)` is convex every
/// obstacle such a path can touch lies within IOR's bound, so the loop
/// changes no answer (it may still load a few obstacles to certify a
/// value). Beyond an obstacle that `q` crosses, a path can be longer than
/// both endpoint distances and run past obstacles IOR never loaded
/// (`edge_cases.rs` pins one such scene).
///
/// `outer_bound` (the result list's Lemma 2 bound, under the served
/// kernel) caps the certification threshold: a recorded value can only
/// decide the result where it beats the incumbent, which requires it to be
/// below the bound — values above it may stay uncertified upper bounds
/// without affecting the answer, and the obstacle loads that would certify
/// them are skipped. Each re-run of CPLC follows an obstacle load, so its
/// search starts cold.
fn refine_to_fixpoint<S: QueryStreams>(
    q: &Segment,
    ws: &mut Workspace,
    p: DataPoint,
    p_node: NodeId,
    cfg: &ConnConfig,
    streams: &mut S,
    outer_bound: f64,
) -> KnnResultList {
    let cap = cfg.kernel.result_cap(outer_bound);
    loop {
        let cpl = cplc_bounded(q, ws, p, p_node, cfg, outer_bound);
        // every value that can win certified exact, or the obstacle source
        // exhausted: nothing left to learn
        let m = cpl.max_assigned_value(q).min(cap);
        if m <= streams.loaded_bound() + EPS || streams.load_obstacles_until(&mut ws.g, m) == 0 {
            return cpl;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{CoknnResult, QueryEngine, QueryStats};
    use conn_geom::{Point, Rect};
    use conn_index::RStarTree;

    fn q() -> Segment {
        Segment::new(Point::new(0.0, 0.0), Point::new(100.0, 0.0))
    }

    fn search(points: Vec<DataPoint>, obstacles: Vec<Rect>) -> (CoknnResult, QueryStats) {
        let dt = RStarTree::bulk_load(points, 4096);
        let ot = RStarTree::bulk_load(obstacles, 4096);
        QueryEngine::default().conn(&dt, &ot, &q())
    }

    #[test]
    #[cfg(feature = "sanitize-invariants")]
    fn cover_audit_fires_on_gapped_answer() {
        let q = q();
        let intact = KnnResultList::new(q.len(), 1);
        let _ = CoknnResult::new(q, intact.clone()); // full cover passes

        let mut gapped = intact;
        gapped.force_qlen_for_test(q.len() + 5.0); // entries now stop short
        assert!(
            std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
                CoknnResult::new(q, gapped)
            }))
            .is_err(),
            "cover audit must reject a gapped result list"
        );
    }

    #[test]
    fn empty_data_set_yields_unassigned_cover() {
        let (res, stats) = search(vec![], vec![]);
        res.check_cover().unwrap();
        assert_eq!(stats.npe, 0);
        assert!(res.nn_at(50.0).is_none());
        assert_eq!(res.segments().len(), 1);
        assert!(res.segments()[0].0.is_none());
    }

    #[test]
    fn single_point_free_space() {
        let p = DataPoint::new(0, Point::new(40.0, 30.0));
        let (res, stats) = search(vec![p], vec![]);
        res.check_cover().unwrap();
        assert_eq!(stats.npe, 1);
        let (nn, d) = res.nn_at(40.0).unwrap();
        assert_eq!(nn.id, 0);
        assert!((d - 30.0).abs() < 1e-9);
    }

    /// Free space: CONN must match Euclidean continuous NN (bisector split).
    #[test]
    fn two_points_free_space_bisector() {
        let a = DataPoint::new(0, Point::new(20.0, 10.0));
        let b = DataPoint::new(1, Point::new(80.0, 10.0));
        let (res, _) = search(vec![a, b], vec![]);
        let segs = res.segments();
        assert_eq!(segs.len(), 2);
        assert_eq!(segs[0].0.unwrap().id, 0);
        assert_eq!(segs[1].0.unwrap().id, 1);
        assert!((segs[0].1.hi - 50.0).abs() < 1e-6);
        assert_eq!(res.split_points().len(), 1);
    }

    /// The paper's Figure 1(b) phenomenon: an obstacle flips the winner at
    /// the segment start compared to the Euclidean answer.
    #[test]
    fn obstacle_changes_the_winner() {
        // `a` is Euclidean-closest to t=0 (30 < √(900+25) ≈ 30.4) but a long
        // wall forces it on a ~92.5 detour; `b` sits below the wall with a
        // clear sight-line.
        let a = DataPoint::new(0, Point::new(0.0, 30.0));
        let b = DataPoint::new(1, Point::new(30.0, 5.0));
        let wall = Rect::new(-40.0, 10.0, 40.0, 20.0);
        let (res, _) = search(vec![a, b], vec![wall]);
        res.check_cover().unwrap();
        let (euclid_nn, _) = {
            // sanity: a IS the euclidean NN of t=0
            let d_a = a.pos.dist(Point::new(0.0, 0.0));
            let d_b = b.pos.dist(Point::new(0.0, 0.0));
            assert!(d_a < d_b);
            (a, d_a)
        };
        let (onn, od) = res.nn_at(0.0).unwrap();
        assert_ne!(onn.id, euclid_nn.id, "obstacle must flip the winner");
        assert_eq!(onn.id, b.id);
        assert!((od - b.pos.dist(Point::new(0.0, 0.0))).abs() < 1e-9);
    }

    #[test]
    fn far_points_are_pruned_by_lemma2() {
        let mut points = vec![
            DataPoint::new(0, Point::new(50.0, 10.0)),
            DataPoint::new(1, Point::new(20.0, 15.0)),
        ];
        // a distant cloud that can never win
        for i in 0..50 {
            points.push(DataPoint::new(
                100 + i,
                Point::new(5000.0 + (i as f64) * 7.0, 5000.0),
            ));
        }
        let (res, stats) = search(points, vec![]);
        res.check_cover().unwrap();
        assert!(stats.npe <= 5, "NPE {} — pruning failed", stats.npe);
    }

    #[test]
    fn result_covers_and_is_consistent_with_entries() {
        let points = vec![
            DataPoint::new(0, Point::new(10.0, 20.0)),
            DataPoint::new(1, Point::new(50.0, 8.0)),
            DataPoint::new(2, Point::new(90.0, 25.0)),
        ];
        let obstacles = vec![
            Rect::new(30.0, 5.0, 40.0, 30.0),
            Rect::new(60.0, 10.0, 75.0, 18.0),
        ];
        let (res, stats) = search(points, obstacles);
        res.check_cover().unwrap();
        assert!(stats.noe <= 2);
        assert!(stats.svg_nodes >= 2);
        // every sampled point has an answer and matches its entry's value
        for i in 0..=20 {
            let t = 100.0 * (i as f64) / 20.0;
            let (nn, d) = res.nn_at(t).unwrap();
            assert!(d >= 0.0);
            assert!(nn.id <= 2);
        }
    }

    #[test]
    #[should_panic]
    fn degenerate_query_rejected() {
        let dt = RStarTree::bulk_load(vec![DataPoint::new(0, Point::new(1.0, 1.0))], 4096);
        let ot: RStarTree<Rect> = RStarTree::bulk_load(vec![], 4096);
        let bad = Segment::new(Point::new(5.0, 5.0), Point::new(5.0, 5.0));
        let _ = QueryEngine::default().conn(&dt, &ot, &bad);
    }
}
