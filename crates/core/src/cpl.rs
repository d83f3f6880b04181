//! The CPLC algorithm (paper §4.2, Algorithm 2).
//!
//! For a data point `p`, `CPL(p, q)` partitions the query segment into
//! intervals, each annotated with the control point governing `p`'s
//! obstructed distance there (or nothing, while no node covering the
//! interval has been found). CPL(p) is p's `k = 1` list: a
//! `KnnResultList` (`rlu.rs`) whose members are `p` under its control
//! points, so it is cut, merged and bounded by the same code as the result
//! list it is folded into. CPLC builds the list by walking the local
//! visibility graph from `p` in ascending obstructed distance (Dijkstra
//! order), offering each settled node `v` as a control-point candidate on
//! the region allowed by:
//!
//! * **Lemma 5** — `v` cannot control anywhere its Dijkstra predecessor `u`
//!   already sees (`region = VR_v − VR_u`);
//! * **Lemma 6** — within a shadow gap of `u` whose endpoints `u` does see,
//!   `v` can only control if it lies inside the triangle `(u, R.l, R.r)`;
//! * **Lemma 7** — traversal stops once `‖p, v‖` reaches `CPLMAX`, the
//!   worst value currently recorded in the list (∞ while any interval is
//!   still uncovered — footnote 5 of the paper).

#![expect(
    clippy::indexing_slicing,
    reason = "slots is resized to the graph's node count by ensure() before any access"
)]

use conn_geom::{Interval, IntervalSet, Point, Segment, EPS};
use conn_vgraph::{NodeId, VisGraph};

use crate::config::ConnConfig;
use crate::dist::ControlPoint;
use crate::engine::Workspace;
use crate::rlu::{KnnResultList, Member};
use crate::types::DataPoint;

/// Cache of visible regions keyed by node slot and obstacle count: a graph's
/// obstacle set only grows until its reset, so an unchanged count means an
/// unchanged set, and a node's region only changes when obstacles arrive. Slot-indexed so lookups on
/// the CPLC hot path are array accesses, and [`VrCache::clear`] retains the
/// slot vector's allocation for workspace reuse.
#[derive(Debug, Default)]
pub(crate) struct VrCache {
    slots: Vec<Option<(usize, IntervalSet)>>,
}

impl VrCache {
    /// Computes (or revalidates) the cached region of `node`; afterwards
    /// [`VrCache::cached`] returns it without borrowing the graph.
    pub(crate) fn ensure(&mut self, g: &mut VisGraph, node: NodeId, q: &Segment) {
        let n_obs = g.num_obstacles();
        let i = node.index();
        if i >= self.slots.len() {
            self.slots.resize_with(i + 1, || None);
        }
        match &self.slots[i] {
            Some((cached_obs, _)) if *cached_obs == n_obs => {}
            _ => {
                let vr = g.visible_region(g.node_pos(node), q);
                self.slots[i] = Some((n_obs, vr));
            }
        }
    }

    /// The region computed by the last [`VrCache::ensure`] for this node.
    /// Panics when the node was never ensured (a logic bug).
    #[expect(
        clippy::expect_used,
        reason = "every caller goes through ensure() first, which fills this slot before handing the node id out"
    )]
    pub(crate) fn cached(&self, node: NodeId) -> &IntervalSet {
        self.slots[node.index()]
            .as_ref()
            .map(|(_, vr)| vr)
            .expect("visible region not ensured")
    }

    /// Drops the entry for a node slot that is being reused.
    pub(crate) fn invalidate(&mut self, node: NodeId) {
        if let Some(slot) = self.slots.get_mut(node.index()) {
            *slot = None;
        }
    }

    /// Empties the cache (between queries of a reused workspace), keeping
    /// the slot vector's allocation.
    pub(crate) fn clear(&mut self) {
        // truncating (not overwriting) keeps the next clear proportional
        // to the slots the next query ensures, not to the largest ever
        self.slots.clear();
    }
}

/// CPLC with an outer value cap (the result list's Lemma 2 bound): the
/// control-point list of data point `p`, whose graph node is `p_node`, on
/// the workspace's graph, Dijkstra labels, VR cache and RLU scratch.
///
/// The traversal runs on the configured kernel: under
/// [`crate::KernelMode::GoalDirected`] nodes settle in ascending
/// `f(v) = d(v) + mindist(v, q)` — a lower bound on the best value `v` can
/// contribute *anywhere* on `q` — which makes the Lemma 7 cut strictly
/// sharper than the paper's `d(v) ≥ CPLMAX`. With its warm labels,
/// the search **replays** the settled prefix of the IOR run that preceded
/// it (same source, goal and graph version) instead of re-expanding it.
///
/// `outer_bound` (`RLMAX`, or the k-th bound for COkNN) caps expansion
/// *unconditionally*: a control point with `f > outer_bound` has value
/// `> outer_bound ≥` the final answer everywhere, so it can never change
/// the result. This holds
/// even while intervals are unassigned — for any parameter `t` whose true
/// value beats the bound, the last bend `c` of its true shortest path
/// satisfies `f(c) = d_loaded(c) + mindist(c, q) ≤ v_true(t) < bound`
/// (loaded distances under-approximate true ones and loaded visible
/// regions over-approximate true ones), so `c` settles and claims `t`
/// before the cap can stop the traversal. Intervals left unassigned by
/// the cap therefore carry only values the incumbent already beats; RLU
/// offers only the intervals `p` reaches, so the incumbent keeps them.
/// Values recorded above the cap may be non-tight upper bounds; every
/// value that can win stays exact.
pub(crate) fn cplc_bounded(
    q: &Segment,
    ws: &mut Workspace,
    p: DataPoint,
    p_node: NodeId,
    cfg: &ConnConfig,
    outer_bound: f64,
) -> KnnResultList {
    let Workspace {
        g,
        dij,
        vr_cache,
        rlu_scratch,
        ..
    } = ws;
    let mut cpl = KnnResultList::new(q.len(), 1);
    let goal = cfg.kernel.goal(q);
    let outer = cfg.kernel.result_cap(outer_bound);
    dij.ensure_prepared(g, p_node, goal, cfg.kernel.warm_labels());
    // The break threshold mirrors the engine's expansion bound: `CPLMAX`
    // (the list's `rlmax`, ∞ while any interval is unassigned) under the
    // outer cap, which is safe even before full cover (see the doc
    // comment). It must be checked here too because a replayed settlement
    // tape bypasses the engine's heap-side bound check.
    let cap = |cpl: &KnnResultList| cpl.rlmax(q, &[]).min(outer);
    if cfg.use_lemma7 {
        // bound the very first relaxations too (a cold run's source, or a
        // replayed run's retained heap, would otherwise relax unbounded
        // before the loop's first check)
        dij.set_bound(cap(&cpl));
    }
    while let Some((v, dv)) = dij.next_settled(g) {
        // Lemma 7 on the settle key (relaxed with mindist(v, q)
        // lower-bounded by 0 under the blind kernel, exactly the paper's
        // Algorithm 2 line 4; the goal-directed kernel uses the true
        // mindist, which the f-ordered settlement makes monotone)
        let fv = dv + goal.h(g.node_pos(v));
        if cfg.use_lemma7 && fv >= cap(&cpl) {
            break;
        }
        let pred = dij.predecessor(v);
        vr_cache.ensure(g, v, q);
        if let Some(u) = pred {
            vr_cache.ensure(g, u, q);
        }
        let vr_v = vr_cache.cached(v);
        if vr_v.is_empty() {
            continue;
        }
        let region = match pred {
            None => vr_v.clone(), // v == p itself
            Some(u) => {
                let vr_u = vr_cache.cached(u);
                let mut region = vr_v.subtract(vr_u); // Lemma 5
                if cfg.use_lemma6 {
                    region = lemma6_refine(q, g.node_pos(u), g.node_pos(v), vr_u, region);
                }
                region
            }
        };
        let member = Member {
            point: p,
            cp: ControlPoint::new(g.node_pos(v), dv),
        };
        for iv in region.intervals() {
            cpl.offer(q, member, iv, cfg, rlu_scratch);
        }
        if cfg.use_lemma7 {
            // Stop *expansion* at the evolving threshold, not just the
            // settle loop: candidates beyond it are never pushed, so their
            // sight tests are never paid. Held at the outer cap while any
            // interval is unassigned (footnote 5 applies only without an
            // outer bound — see the doc comment's safety argument).
            dij.set_bound(cap(&cpl));
        }
    }
    cpl
}

/// Lemma 6: drops candidate pieces that form a shadow *gap* of `u` (both
/// endpoints visible to `u`) when `v` lies outside the triangle
/// `(u, R.l, R.r)` — such `v` can never carry the shortest path into the
/// gap.
fn lemma6_refine(
    q: &Segment,
    u_pos: Point,
    v_pos: Point,
    vr_u: &IntervalSet,
    region: IntervalSet,
) -> IntervalSet {
    let kept: Vec<Interval> = region
        .intervals()
        .iter()
        .filter(|piece| {
            let endpoints_visible = vr_u.contains(piece.lo) && vr_u.contains(piece.hi);
            if !endpoints_visible {
                return true; // premise unmet: keep
            }
            point_in_triangle_inclusive(v_pos, u_pos, q.at(piece.lo), q.at(piece.hi))
        })
        .copied()
        .collect();
    IntervalSet::from_intervals(kept)
}

/// Inclusive (boundary counts as inside, with EPS slack) point-in-triangle.
fn point_in_triangle_inclusive(p: Point, a: Point, b: Point, c: Point) -> bool {
    let d1 = Point::orient(a, b, p);
    let d2 = Point::orient(b, c, p);
    let d3 = Point::orient(c, a, p);
    let has_neg = d1 < -EPS || d2 < -EPS || d3 < -EPS;
    let has_pos = d1 > EPS || d2 > EPS || d3 > EPS;
    !(has_neg && has_pos)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::rlu::RluScratch;
    use conn_vgraph::NodeKind;

    fn q() -> Segment {
        Segment::new(Point::new(0.0, 0.0), Point::new(100.0, 0.0))
    }

    /// A control-point list over `q()`: the k = 1 list of data point 0.
    fn new_cpl() -> KnnResultList {
        KnnResultList::new(q().len(), 1)
    }

    fn offer(cpl: &mut KnnResultList, cp: ControlPoint, region: Interval) {
        let point = DataPoint::new(0, Point::new(0.0, 0.0));
        cpl.offer(
            &q(),
            Member { point, cp },
            &region,
            &ConnConfig::default(),
            &mut RluScratch::default(),
        );
    }

    /// The distance the control point in charge at `t` induces, if any.
    fn value_at(cpl: &KnnResultList, t: f64) -> Option<f64> {
        cpl.nn_at(t, q().at(t)).map(|(_, d)| d)
    }

    /// `CPLMAX` (Lemma 7): the list's `RLMAX` at k = 1.
    fn cplmax(cpl: &KnnResultList) -> f64 {
        cpl.rlmax(&q(), &[])
    }

    #[test]
    fn new_list_is_unassigned() {
        let cpl = new_cpl();
        assert_eq!(cplmax(&cpl), f64::INFINITY);
        assert!(value_at(&cpl, 50.0).is_none());
        cpl.check_cover().unwrap();
    }

    #[test]
    fn offer_fills_unassigned_then_competes() {
        let mut cpl = new_cpl();
        let near = ControlPoint::new(Point::new(20.0, 10.0), 0.0);
        offer(&mut cpl, near, Interval::new(0.0, 100.0));
        assert!(cplmax(&cpl).is_finite());
        cpl.check_cover().unwrap();
        // a second cp closer to the right half takes it over
        let right = ControlPoint::new(Point::new(80.0, 10.0), 0.0);
        offer(&mut cpl, right, Interval::new(0.0, 100.0));
        cpl.check_cover().unwrap();
        assert_eq!(cpl.entries().len(), 2);
        let v_left = value_at(&cpl, 10.0).unwrap();
        assert!((v_left - near.value(&q(), 10.0)).abs() < 1e-9);
        let v_right = value_at(&cpl, 90.0).unwrap();
        assert!((v_right - right.value(&q(), 90.0)).abs() < 1e-9);
    }

    #[test]
    fn partial_region_offer_leaves_rest() {
        let mut cpl = new_cpl();
        let cp = ControlPoint::new(Point::new(50.0, 5.0), 0.0);
        offer(&mut cpl, cp, Interval::new(30.0, 60.0));
        cpl.check_cover().unwrap();
        assert!(value_at(&cpl, 10.0).is_none());
        assert!(value_at(&cpl, 45.0).is_some());
        assert!(value_at(&cpl, 80.0).is_none());
        assert_eq!(cplmax(&cpl), f64::INFINITY);
    }

    #[test]
    fn cplmax_is_max_endpoint_value() {
        let mut cpl = new_cpl();
        let cp = ControlPoint::new(Point::new(0.0, 30.0), 5.0);
        offer(&mut cpl, cp, Interval::new(0.0, 100.0));
        let want = 5.0 + Point::new(0.0, 30.0).dist(Point::new(100.0, 0.0));
        assert!((cplmax(&cpl) - want).abs() < 1e-9);
    }

    /// CPLC for the data point at `ppos` on a workspace whose graph holds
    /// `q()`'s endpoints and `obstacles`.
    fn cplc(ppos: Point, obstacles: &[conn_geom::Rect]) -> KnnResultList {
        let cfg = ConnConfig::default();
        let mut ws = Workspace::new(&cfg);
        let _s = ws.g.add_point(q().a, NodeKind::Endpoint);
        let _e = ws.g.add_point(q().b, NodeKind::Endpoint);
        for r in obstacles {
            ws.g.add_obstacle(*r);
        }
        let p_node = ws.g.add_point(ppos, NodeKind::DataPoint);
        let p = DataPoint::new(0, ppos);
        cplc_bounded(&q(), &mut ws, p, p_node, &cfg, f64::INFINITY)
    }

    /// CPLC on an empty obstacle field: the data point itself controls all
    /// of `q`.
    #[test]
    fn cplc_free_space() {
        let cpl = cplc(Point::new(40.0, 30.0), &[]);
        cpl.check_cover().unwrap();
        assert!(cplmax(&cpl).is_finite());
        for t in [0.0, 25.0, 70.0, 100.0] {
            let v = value_at(&cpl, t).unwrap();
            assert!((v - Point::new(40.0, 30.0).dist(q().at(t))).abs() < 1e-9);
        }
    }

    /// The paper's Figure 3 shape: an obstacle forces a detour through its
    /// corner, which becomes the control point for the shadowed part.
    #[test]
    fn cplc_single_obstacle_detour() {
        // box above the middle of q; p above the box. The sight-line from p
        // to q(0) passes above the (40,40) corner (at x = 40 it is at
        // y = 48), so the segment ends stay directly visible.
        let ppos = Point::new(50.0, 60.0);
        let cpl = cplc(ppos, &[conn_geom::Rect::new(40.0, 20.0, 60.0, 40.0)]);
        cpl.check_cover().unwrap();
        assert!(cplmax(&cpl).is_finite());
        // directly under the box, the distance must route around a side:
        // p → (40,40) → (40,20) → q(50), or the mirror path
        let v_mid = value_at(&cpl, 50.0).unwrap();
        assert!(v_mid > ppos.dist(q().at(50.0)) + 1.0);
        let around =
            ppos.dist(Point::new(40.0, 40.0)) + 20.0 + Point::new(40.0, 20.0).dist(q().at(50.0));
        assert!((v_mid - around).abs() < 1e-9, "v_mid {v_mid} vs {around}");
        // near the segment ends, p sees q directly
        let v0 = value_at(&cpl, 0.0).unwrap();
        assert!((v0 - ppos.dist(q().at(0.0))).abs() < 1e-9);
        let v100 = value_at(&cpl, 100.0).unwrap();
        assert!((v100 - ppos.dist(q().at(100.0))).abs() < 1e-9);
    }

    /// Lemma 6 refinement: conservative (keeps pieces whose premise fails).
    #[test]
    fn lemma6_keeps_non_gap_pieces() {
        let vr_u = IntervalSet::single(Interval::new(0.0, 40.0));
        let region = IntervalSet::single(Interval::new(40.0, 100.0));
        // piece endpoint 100 is not visible to u → premise unmet → kept
        let kept = lemma6_refine(
            &q(),
            Point::new(0.0, 50.0),
            Point::new(500.0, 500.0),
            &vr_u,
            region.clone(),
        );
        assert_eq!(kept, region);
    }

    #[test]
    fn lemma6_drops_outside_triangle() {
        // u sees [0,30] and [70,100]; gap [30,70] with both endpoints visible
        let vr_u =
            IntervalSet::from_intervals(vec![Interval::new(0.0, 30.0), Interval::new(70.0, 100.0)]);
        let region = IntervalSet::single(Interval::new(30.0, 70.0));
        let u = Point::new(50.0, 50.0);
        // v far outside the triangle (u, q(30), q(70))
        let kept = lemma6_refine(&q(), u, Point::new(500.0, 500.0), &vr_u, region.clone());
        assert!(kept.is_empty());
        // v inside the triangle stays
        let kept = lemma6_refine(&q(), u, Point::new(50.0, 20.0), &vr_u, region.clone());
        assert_eq!(kept, region);
    }

    #[test]
    fn triangle_inclusive_boundary() {
        let (a, b, c) = (
            Point::new(0.0, 0.0),
            Point::new(10.0, 0.0),
            Point::new(0.0, 10.0),
        );
        assert!(point_in_triangle_inclusive(Point::new(2.0, 2.0), a, b, c));
        assert!(point_in_triangle_inclusive(Point::new(5.0, 0.0), a, b, c)); // edge
        assert!(point_in_triangle_inclusive(a, a, b, c)); // vertex
        assert!(!point_in_triangle_inclusive(
            Point::new(10.0, 10.0),
            a,
            b,
            c
        ));
    }
}
