//! Control-point lists and the CPLC algorithm (paper §4.2, Algorithm 2).
//!
//! For a data point `p`, `CPL(p, q)` partitions the query segment into
//! intervals, each annotated with the control point governing `p`'s
//! obstructed distance there (or nothing, while no node covering the
//! interval has been found). CPLC builds the list by walking the local
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
use conn_vgraph::{DijkstraEngine, NodeId, VisGraph};

use crate::config::ConnConfig;
use crate::dist::ControlPoint;
use crate::split::{lemma1_incumbent_wins, split, Winner};

/// The control-point list: a sorted, disjoint cover of `[0, q.len()]`.
#[derive(Debug, Clone)]
pub(crate) struct ControlPointList {
    entries: Vec<(Option<ControlPoint>, Interval)>,
}

impl ControlPointList {
    /// A list with the whole segment uncovered.
    pub(crate) fn new(qlen: f64) -> Self {
        ControlPointList {
            entries: vec![(None, Interval::new(0.0, qlen))],
        }
    }

    /// The `(control point, interval)` tuples, ascending in parameter.
    pub(crate) fn entries(&self) -> &[(Option<ControlPoint>, Interval)] {
        &self.entries
    }

    /// Any interval still without a control point?
    pub(crate) fn has_unassigned(&self) -> bool {
        self.entries.iter().any(|(cp, _)| cp.is_none())
    }

    /// `CPLMAX` (Lemma 7): the largest endpoint value over assigned
    /// entries; ∞ while any entry is unassigned (footnote 5).
    pub(crate) fn max_value(&self, q: &Segment) -> f64 {
        let mut m = 0.0f64;
        for (cp, iv) in &self.entries {
            match cp {
                None => return f64::INFINITY,
                Some(cp) => m = m.max(cp.max_over(q, iv)),
            }
        }
        m
    }

    /// Largest endpoint value over *assigned* entries only (the strict
    /// refinement loop's reload threshold; unassigned entries are handled
    /// separately there).
    pub(crate) fn max_assigned_value(&self, q: &Segment) -> f64 {
        self.entries
            .iter()
            .filter_map(|(cp, iv)| cp.as_ref().map(|cp| cp.max_over(q, iv)))
            .fold(0.0, f64::max)
    }

    /// Offers `candidate` as control point over `region`; keeps whichever of
    /// the incumbent/candidate is closer on every sub-interval.
    pub(crate) fn offer(
        &mut self,
        q: &Segment,
        candidate: ControlPoint,
        region: &Interval,
        cfg: &ConnConfig,
    ) {
        if region.is_empty() {
            return;
        }
        let mut out: Vec<(Option<ControlPoint>, Interval)> =
            Vec::with_capacity(self.entries.len() + 2);
        for (cp, iv) in std::mem::take(&mut self.entries) {
            let Some(overlap) = iv.intersect(region) else {
                out.push((cp, iv));
                continue;
            };
            // untouched left part
            let left = Interval::new(iv.lo, overlap.lo);
            if !left.is_empty() {
                out.push((cp, left));
            }
            match cp {
                None => out.push((Some(candidate), overlap)),
                Some(incumbent) => {
                    if incumbent.same_as(&candidate)
                        || (cfg.use_lemma1
                            && lemma1_incumbent_wins(q, &incumbent, &candidate, &overlap))
                    {
                        out.push((Some(incumbent), overlap));
                    } else {
                        for (piece, winner) in split(q, &incumbent, &candidate, overlap) {
                            let w = match winner {
                                Winner::Incumbent => incumbent,
                                Winner::Challenger => candidate,
                            };
                            out.push((Some(w), piece));
                        }
                    }
                }
            }
            // untouched right part
            let right = Interval::new(overlap.hi, iv.hi);
            if !right.is_empty() {
                out.push((cp, right));
            }
        }
        self.entries = out;
        self.normalize();
    }

    /// Merges adjacent entries carrying the same control point and drops
    /// empty slivers (the cover of `[0, qlen]` is preserved).
    fn normalize(&mut self) {
        let mut out: Vec<(Option<ControlPoint>, Interval)> = Vec::with_capacity(self.entries.len());
        for (cp, iv) in std::mem::take(&mut self.entries) {
            match out.last_mut() {
                Some((prev_cp, prev_iv)) if same_opt_cp(prev_cp, &cp) => prev_iv.hi = iv.hi,
                Some((_, prev_iv)) if iv.is_empty() => prev_iv.hi = iv.hi,
                _ => {
                    if iv.is_empty() && !out.is_empty() {
                        continue;
                    }
                    out.push((cp, iv));
                }
            }
        }
        self.entries = out;
    }
}

fn same_opt_cp(a: &Option<ControlPoint>, b: &Option<ControlPoint>) -> bool {
    match (a, b) {
        (None, None) => true,
        (Some(x), Some(y)) => x.same_as(y),
        _ => false,
    }
}

/// Cache of visible regions keyed by node slot and obstacle count (a node's
/// region only changes when obstacles arrive). Slot-indexed so lookups on
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

/// CPLC with an outer value cap (the result list's Lemma 2 bound).
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
/// the cap therefore carry only values the incumbent already beats; the
/// result-list update keeps the incumbent there
/// (RLU's challenger-can't-reach arm). Values recorded above the
/// cap may be non-tight upper bounds; every value that can win stays
/// exact.
pub(crate) fn cplc_bounded(
    q: &Segment,
    g: &mut VisGraph,
    p_node: NodeId,
    cfg: &ConnConfig,
    vr_cache: &mut VrCache,
    dij: &mut DijkstraEngine,
    outer_bound: f64,
) -> ControlPointList {
    let mut cpl = ControlPointList::new(q.len());
    let goal = cfg.kernel.goal(q);
    let outer = cfg.kernel.result_cap(outer_bound);
    dij.ensure_prepared(g, p_node, goal, cfg.kernel.warm_labels());
    // The break threshold mirrors the engine's expansion bound (the outer
    // cap while any interval is unassigned, then `min(CPLMAX, outer)`); it
    // must be checked here too because a replayed settlement tape bypasses
    // the engine's heap-side bound check.
    let cap = |cpl: &ControlPointList| {
        if cpl.has_unassigned() {
            outer // safe even before full cover — see the doc comment
        } else {
            cpl.max_value(q).min(outer)
        }
    };
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
        let candidate = ControlPoint::new(g.node_pos(v), dv);
        for iv in region.intervals() {
            cpl.offer(q, candidate, iv, cfg);
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
    use conn_vgraph::NodeKind;

    impl ControlPointList {
        /// The control point in charge at parameter `t`, with the induced
        /// distance value.
        fn value_at(&self, q: &Segment, t: f64) -> Option<f64> {
            self.entries
                .iter()
                .find(|(_, iv)| iv.contains(t))
                .and_then(|(cp, _)| cp.as_ref().map(|cp| cp.value(q, t)))
        }

        /// The entries cover `q()` without gaps.
        fn check_cover(&self) -> Result<(), crate::Error> {
            crate::error::check_cover(self.entries.iter().map(|(_, iv)| *iv), q().len())
        }
    }

    fn q() -> Segment {
        Segment::new(Point::new(0.0, 0.0), Point::new(100.0, 0.0))
    }

    #[test]
    fn new_list_is_unassigned() {
        let cpl = ControlPointList::new(100.0);
        assert!(cpl.has_unassigned());
        assert_eq!(cpl.max_value(&q()), f64::INFINITY);
        assert!(cpl.value_at(&q(), 50.0).is_none());
        cpl.check_cover().unwrap();
    }

    #[test]
    fn offer_fills_unassigned_then_competes() {
        let cfg = ConnConfig::default();
        let mut cpl = ControlPointList::new(100.0);
        let near = ControlPoint::new(Point::new(20.0, 10.0), 0.0);
        cpl.offer(&q(), near, &Interval::new(0.0, 100.0), &cfg);
        assert!(!cpl.has_unassigned());
        cpl.check_cover().unwrap();
        // a second cp closer to the right half takes it over
        let right = ControlPoint::new(Point::new(80.0, 10.0), 0.0);
        cpl.offer(&q(), right, &Interval::new(0.0, 100.0), &cfg);
        cpl.check_cover().unwrap();
        assert_eq!(cpl.entries().len(), 2);
        let v_left = cpl.value_at(&q(), 10.0).unwrap();
        assert!((v_left - near.value(&q(), 10.0)).abs() < 1e-9);
        let v_right = cpl.value_at(&q(), 90.0).unwrap();
        assert!((v_right - right.value(&q(), 90.0)).abs() < 1e-9);
    }

    #[test]
    fn partial_region_offer_leaves_rest() {
        let cfg = ConnConfig::default();
        let mut cpl = ControlPointList::new(100.0);
        let cp = ControlPoint::new(Point::new(50.0, 5.0), 0.0);
        cpl.offer(&q(), cp, &Interval::new(30.0, 60.0), &cfg);
        cpl.check_cover().unwrap();
        assert!(cpl.value_at(&q(), 10.0).is_none());
        assert!(cpl.value_at(&q(), 45.0).is_some());
        assert!(cpl.value_at(&q(), 80.0).is_none());
        assert!(cpl.has_unassigned());
    }

    #[test]
    fn cplmax_is_max_endpoint_value() {
        let cfg = ConnConfig::default();
        let mut cpl = ControlPointList::new(100.0);
        let cp = ControlPoint::new(Point::new(0.0, 30.0), 5.0);
        cpl.offer(&q(), cp, &Interval::new(0.0, 100.0), &cfg);
        let want = 5.0 + Point::new(0.0, 30.0).dist(Point::new(100.0, 0.0));
        assert!((cpl.max_value(&q()) - want).abs() < 1e-9);
    }

    /// CPLC on an empty obstacle field: the data point itself controls all
    /// of `q`.
    #[test]
    fn cplc_free_space() {
        let cfg = ConnConfig::default();
        let mut g = VisGraph::new(50.0);
        let _s = g.add_point(Point::new(0.0, 0.0), NodeKind::Endpoint);
        let _e = g.add_point(Point::new(100.0, 0.0), NodeKind::Endpoint);
        let p = g.add_point(Point::new(40.0, 30.0), NodeKind::DataPoint);
        let mut cache = VrCache::default();
        let mut dij = DijkstraEngine::default();
        let cpl = cplc_bounded(&q(), &mut g, p, &cfg, &mut cache, &mut dij, f64::INFINITY);
        cpl.check_cover().unwrap();
        assert!(!cpl.has_unassigned());
        for t in [0.0, 25.0, 70.0, 100.0] {
            let v = cpl.value_at(&q(), t).unwrap();
            assert!((v - Point::new(40.0, 30.0).dist(q().at(t))).abs() < 1e-9);
        }
    }

    /// The paper's Figure 3 shape: an obstacle forces a detour through its
    /// corner, which becomes the control point for the shadowed part.
    #[test]
    fn cplc_single_obstacle_detour() {
        let cfg = ConnConfig::default();
        let mut g = VisGraph::new(50.0);
        let _s = g.add_point(Point::new(0.0, 0.0), NodeKind::Endpoint);
        let _e = g.add_point(Point::new(100.0, 0.0), NodeKind::Endpoint);
        // box above the middle of q; p above the box. The sight-line from p
        // to q(0) passes above the (40,40) corner (at x = 40 it is at
        // y = 48), so the segment ends stay directly visible.
        g.add_obstacle(conn_geom::Rect::new(40.0, 20.0, 60.0, 40.0));
        let ppos = Point::new(50.0, 60.0);
        let p = g.add_point(ppos, NodeKind::DataPoint);
        let mut cache = VrCache::default();
        let mut dij = DijkstraEngine::default();
        let cpl = cplc_bounded(&q(), &mut g, p, &cfg, &mut cache, &mut dij, f64::INFINITY);
        cpl.check_cover().unwrap();
        assert!(!cpl.has_unassigned());
        // directly under the box, the distance must route around a side:
        // p → (40,40) → (40,20) → q(50), or the mirror path
        let v_mid = cpl.value_at(&q(), 50.0).unwrap();
        assert!(v_mid > ppos.dist(q().at(50.0)) + 1.0);
        let around =
            ppos.dist(Point::new(40.0, 40.0)) + 20.0 + Point::new(40.0, 20.0).dist(q().at(50.0));
        assert!((v_mid - around).abs() < 1e-9, "v_mid {v_mid} vs {around}");
        // near the segment ends, p sees q directly
        let v0 = cpl.value_at(&q(), 0.0).unwrap();
        assert!((v0 - ppos.dist(q().at(0.0))).abs() < 1e-9);
        let v100 = cpl.value_at(&q(), 100.0).unwrap();
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
