//! Incremental shortest-path engine over the visibility graph: blind
//! Dijkstra, goal-directed A*, and warm label continuation.
//!
//! Three paper call sites drive the interface:
//!
//! * **IOR** (Alg. 1) searches from the data point until `S` and `E`
//!   settle, re-running whenever new obstacles arrive.
//! * **CPLC** (Alg. 2) consumes nodes one at a time in ascending priority
//!   and stops early via Lemma 7 — which is exactly
//!   [`DijkstraEngine::next_settled`].
//! * **odist** (Def. 4) searches point-to-point.
//!
//! ## Taut search
//!
//! A search source must be a point node (`debug_assert`ed at preparation;
//! the four call sites — CPLC, IOR, odist, range — comply), and a settled
//! node is **expanded** only when it is the source or an obstacle vertex:
//! any other point node is reported and left alone. Together with the
//! graph's bitangent rows (an edge into or out of an obstacle vertex exists
//! only along that vertex's tangent directions — see [`crate::graph`]) this
//! explores exactly the taut paths:
//!
//! * a bend at corner `u` of rectangle `A` needs obstacle interior inside a
//!   wedge `< π` at `u` with both rays free, which forces both rays — the
//!   one the path arrives along and the one it leaves along — into the
//!   closed quadrants adjacent to `A`'s;
//! * a touching or overlapping neighbour only removes further directions;
//! * a terminal is reached by an edge tangent at the *previous* vertex, and
//!   a collinear pass-through of a free point is never strictly shorter
//!   than the direct edge.
//!
//! What a label means depends on the node. A **point node's** label is its
//! obstructed distance, exactly as in the complete visibility graph: a
//! shortest path is taut at every interior vertex, so all its edges are in
//! the graph. An **obstacle vertex's** label is the length of the shortest
//! path *arriving tangentially* — at least the obstructed distance, equal to
//! it whenever some shortest path bends there (its prefix is then a shortest
//! tangent arrival), and absent when no tangent arrival exists. Every
//! consumer reads a corner's label only as the base of a path that bends at
//! the corner (CPLC's control points, a predecessor chain), so no answer
//! changes; the corners whose label rises or vanishes are the ones no
//! shortest path bends at, and they are no longer reported, expanded or
//! given a row.
//!
//! One settlement from a source therefore labels any number of point nodes
//! at the cost of the obstacle corners it expands — the one-to-many shape
//! of the obstructed range query.
//!
//! ## Kernel modes
//!
//! The engine always pops nodes in ascending `f(v) = d(v) + h(v)`, where
//! `h` is the [`Goal`] heuristic (identically `0.0` for [`Goal::None`],
//! which makes the engine a plain Dijkstra). The heuristics are Euclidean
//! lower bounds on the remaining obstructed distance (**admissible** —
//! obstructed distance dominates Euclidean distance) and satisfy
//! `|h(u) − h(v)| ≤ ‖u, v‖ ≤ w(u, v)` (**consistent**), so every popped
//! node carries its exact shortest-path distance, exactly as in blind
//! Dijkstra — the goal only changes *how many* nodes are expanded before a
//! target settles.
//!
//! A caller-supplied [`DijkstraEngine::set_bound`] turns pruning thresholds
//! (IOR's retrieval bound, CPLC's Lemma 7 `CPLMAX`, RLU's `RLMAX`) into
//! *expansion* stoppers: candidates with `f > bound` are never pushed — so
//! their sight tests in the transient overlay are never paid — and the
//! search reports exhaustion as soon as the heap minimum exceeds the
//! bound. The bound may only shrink during a run (the thresholds it mirrors
//! are monotone non-increasing); labels of pruned nodes are left untouched.
//!
//! ## Label continuation
//!
//! The engine records its settlement order. When the next consumer asks for
//! the *same* search (same source, goal, and graph version — e.g. CPLC
//! continuing exactly where IOR's converged run stopped), the settled
//! prefix **replays** from the retained label array and expansion resumes
//! from the retained heap, instead of re-running from a cold heap: the
//! continuation settles exactly the sequence a cold run would. Every
//! structural change of the graph (an obstacle or node added or removed, a
//! reset) bumps its version, so anything else — a new source or goal, a
//! grown or shrunk graph — starts cold.
//!
//! Replay is the only warm path, because it is the only one that skips
//! work: ~49 continuations per query on the ledger's `continuous`
//! workload. Restarting a search over a changed graph from the labels the
//! change left intact (*reseeding*, deleted) saved nothing — a reseeded
//! run re-popped and re-expanded every label it kept, so starting cold in
//! its place left every deterministic ledger count (sight tests, sweep
//! events, NOE, NPE, |SVG|, page reads, continuations) on all four
//! workloads equal to the last digit.
//!
//! The engine snapshots the graph version at preparation: advancing it
//! after a structural change is a logic bug and panics in debug builds.
//!
//! The engine is **reusable**: [`DijkstraEngine::prepare`] rewinds it for a
//! new run while keeping the label arrays, the heap and the relaxation
//! scratch buffer allocated. A query workspace holds one engine and
//! prepares it once per traversal instead of allocating a fresh engine per
//! run — the number of times retained capacity was reused is reported
//! through [`DijkstraEngine::reuses`].

#![expect(
    clippy::indexing_slicing,
    reason = "dist/pred/settled arrays are resized to the graph's node count on every cold preparation, and a replay requires an unchanged graph; node ids are dense and audited under sanitize-invariants"
)]

use std::cmp::Reverse;
use std::collections::BinaryHeap;

use conn_geom::{OrdF64, Point, Segment};

use crate::graph::{NodeId, NodeKind, VisGraph};

const NO_PRED: u32 = u32::MAX;

/// Heuristic target of a goal-directed search. Every variant is an
/// admissible, consistent Euclidean lower bound on the remaining obstructed
/// distance (see the module docs), so settled distances are exact in every
/// mode.
#[derive(Debug, Default, Clone, Copy, PartialEq)]
pub enum Goal {
    /// Blind Dijkstra: `h ≡ 0`.
    #[default]
    None,
    /// Point-to-point search: `h(v) = ‖v, target‖`.
    Point(Point),
    /// Search toward a query segment: `h(v) = mindist(v, segment)` — used
    /// by IOR (both endpoints lie on the segment) and CPLC (a control
    /// point's best value anywhere on `q` is `d(v) + mindist(v, q)`).
    Segment(Segment),
}

impl Goal {
    /// The heuristic value at `p`.
    #[inline]
    pub fn h(&self, p: Point) -> f64 {
        match self {
            Goal::None => 0.0,
            Goal::Point(t) => p.dist(*t),
            Goal::Segment(s) => s.dist_to_point(p),
        }
    }
}

/// How [`DijkstraEngine::ensure_prepared`] bound the engine to its search.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Prep {
    /// Fresh search: labels cleared, heap holds only the source.
    Cold,
    /// Same source, goal and graph version: the settled prefix replays from
    /// the retained labels; expansion continues from the retained heap,
    /// under the retained expansion bound if the run was bounded.
    Replayed,
}

/// Single-source shortest-path engine with incremental settlement.
#[derive(Debug, Default)]
pub struct DijkstraEngine {
    src: NodeId,
    dist: Vec<f64>,
    pred: Vec<u32>,
    settled: Vec<bool>,
    /// Keyed by `f = d + h`; `d` is read back from `dist` at pop time.
    heap: BinaryHeap<(Reverse<OrdF64>, u32)>,
    version: u64,
    goal: Goal,
    /// Expansion bound on `f`; candidates above it are never pushed.
    bound: f64,
    /// Settlement order `(node, d)` — the replay tape of a continuation.
    settle_log: Vec<(u32, f64)>,
    /// Next `settle_log` entry to replay; equals `settle_log.len()` while
    /// expanding live.
    cursor: usize,
    /// Relaxation scratch (edges of the node being settled).
    edge_scratch: Vec<(u32, f64)>,
    /// Runs whose label arrays fit in already-allocated capacity.
    reuses: u64,
    /// Warm continuations served (settled prefix replayed).
    continuations: u64,
    prepared: bool,
}

impl DijkstraEngine {
    /// Prepares a blind run from `src` against the graph's current version.
    pub fn new(g: &VisGraph, src: NodeId) -> Self {
        let mut e = DijkstraEngine::default();
        e.prepare(g, src);
        e
    }

    /// Rewinds the engine for a fresh blind run from `src`, reusing the
    /// label arrays, heap and scratch allocations of previous runs.
    pub fn prepare(&mut self, g: &VisGraph, src: NodeId) {
        self.prepare_directed(g, src, Goal::None)
    }

    /// Rewinds the engine for a fresh run from `src` toward `goal`.
    pub fn prepare_directed(&mut self, g: &VisGraph, src: NodeId, goal: Goal) {
        Self::assert_point_source(g, src);
        let n = g.capacity();
        if self.prepared && self.dist.capacity() >= n {
            self.reuses += 1;
        }
        self.prepared = true;
        self.dist.clear();
        self.dist.resize(n, f64::INFINITY);
        self.pred.clear();
        self.pred.resize(n, NO_PRED);
        self.settled.clear();
        self.settled.resize(n, false);
        self.heap.clear();
        self.settle_log.clear();
        self.cursor = 0;
        self.version = g.version();
        self.goal = goal;
        self.bound = f64::INFINITY;
        self.src = src;
        self.dist[src.index()] = 0.0;
        let f0 = goal.h(g.node_pos(src));
        self.heap.push((Reverse(OrdF64::new(f0)), src.0));
    }

    /// Warm-or-cold preparation: with the same `src`, `goal` and graph
    /// version, replays the retained search; falls back to
    /// [`Self::prepare_directed`] otherwise — a new source or goal, any
    /// structural change of the graph since, or `allow_warm` false.
    pub fn ensure_prepared(
        &mut self,
        g: &VisGraph,
        src: NodeId,
        goal: Goal,
        allow_warm: bool,
    ) -> Prep {
        if allow_warm
            && self.prepared
            && self.src == src
            && self.goal == goal
            && self.version == g.version()
        {
            // A bounded run's labels are incomplete beyond its bound, so
            // the replayed continuation *keeps* the retained bound instead
            // of resetting it — the tape and heap are exactly a bounded
            // run's state, and the consumer's own bound may only shrink it
            // further (the IOR→CPLC handoff caps both sides with the same
            // incumbent bound, so nothing is lost).
            self.reuses += 1; // replay runs on retained capacity
            self.cursor = 0;
            self.continuations += 1;
            return Prep::Replayed;
        }
        self.prepare_directed(g, src, goal);
        Prep::Cold
    }

    /// Only a point node's row is complete in every direction (see the
    /// module docs); a search rooted at an obstacle vertex would miss the
    /// paths leaving it non-tangentially.
    #[inline]
    fn assert_point_source(g: &VisGraph, src: NodeId) {
        debug_assert!(
            g.node_kind(src) != NodeKind::ObstacleVertex,
            "search source {src:?} is an obstacle vertex"
        );
    }

    /// How many [`DijkstraEngine::prepare`] calls reused retained capacity
    /// (the `heap_reuses` metric of the query engine).
    pub fn reuses(&self) -> u64 {
        self.reuses
    }

    /// Warm continuations served so far (the `label_continuations` metric).
    pub fn continuations(&self) -> u64 {
        self.continuations
    }

    /// The search's source node.
    pub fn source(&self) -> NodeId {
        self.src
    }

    /// The active heuristic.
    pub fn goal(&self) -> Goal {
        self.goal
    }

    /// Tightens the expansion bound on `f = d + h`: candidates above it are
    /// pruned before they are pushed (and before their overlay sight tests
    /// are paid), and [`Self::next_settled`] reports exhaustion once the
    /// heap minimum exceeds it. Bounds mirror monotone non-increasing
    /// pruning thresholds, so raising the bound mid-run is a logic error —
    /// the engine keeps the tighter of the two.
    pub fn set_bound(&mut self, bound: f64) {
        if bound < self.bound {
            self.bound = bound;
        }
    }

    /// The current expansion bound (∞ when unbounded).
    pub fn bound(&self) -> f64 {
        self.bound
    }

    /// Settles and returns the next node in ascending `f = d + h` order
    /// (plain ascending-distance order under [`Goal::None`]), or `None`
    /// when the part of the graph reachable within the bound is exhausted.
    /// Replays the retained settlement prefix first when the engine was
    /// warm-prepared.
    pub fn next_settled(&mut self, g: &mut VisGraph) -> Option<(NodeId, f64)> {
        debug_assert_eq!(
            self.version,
            g.version(),
            "graph changed under a running Dijkstra"
        );
        if self.cursor < self.settle_log.len() {
            let (u, d) = self.settle_log[self.cursor];
            self.cursor += 1;
            return Some((NodeId(u), d));
        }
        while let Some(&(Reverse(OrdF64(f)), u)) = self.heap.peek() {
            if f > self.bound {
                // min-key over the bound ⇒ every remaining key is too; the
                // entry stays in the heap so the answer is stable if asked
                // again
                return None;
            }
            self.heap.pop();
            let ui = u as usize;
            if self.settled[ui] {
                continue;
            }
            let d = self.dist[ui];
            if conn_geom::sanitize::enabled() {
                self.audit_settlement(g, u, d);
            }
            self.settled[ui] = true;
            self.settle_log.push((u, d));
            self.cursor = self.settle_log.len();
            if u != self.src.0 && g.node_kind(NodeId(u)) != NodeKind::ObstacleVertex {
                // a free point is never a bend: reported, not expanded
                return Some((NodeId(u), d));
            }
            // relax (edge list copied into retained scratch — no per-settle
            // allocation once the buffer has grown to the working size);
            // candidates that already settled, or that lie outside the
            // bound's ellipse, are filtered before their sight test /
            // scratch copy, since relaxing them is a no-op anyway
            let mut edges = std::mem::take(&mut self.edge_scratch);
            edges.clear();
            let settled = &self.settled;
            let goal = self.goal;
            let bound = self.bound;
            let upos = g.node_pos(NodeId(u));
            // a neighbor farther than `bound − d` can never settle within
            // the bound (h ≥ 0), so a radius-complete adjacency cache
            // suffices — and costs local-density work to build, not
            // whole-graph work
            let radius = if bound.is_finite() {
                bound - d
            } else {
                f64::INFINITY
            };
            g.neighbors_into_ranged(
                NodeId(u),
                &mut edges,
                |v, vpos| !settled[v as usize] && d + upos.dist(vpos) + goal.h(vpos) <= bound,
                radius,
            );
            for &(v, w) in &edges {
                let vi = v as usize;
                if self.settled[vi] {
                    continue;
                }
                let nd = d + w;
                if nd < self.dist[vi] {
                    let fv = nd + goal.h(g.node_pos(NodeId(v)));
                    if fv <= bound {
                        self.dist[vi] = nd;
                        self.pred[vi] = u;
                        self.heap.push((Reverse(OrdF64::new(fv)), v));
                    }
                }
            }
            self.edge_scratch = edges;
            return Some((NodeId(u), d));
        }
        None
    }

    /// Sanitizer audit of a settlement about to be recorded:
    ///
    /// * the label is a valid distance (no NaN, no negative);
    /// * **admissibility** — an obstructed distance dominates the Euclidean
    ///   one, so `d(v) ≥ ‖src, v‖` (with relative slack);
    /// * **settle-order monotonicity** — nodes pop in ascending
    ///   `f = d + h`, the property every early-exit lemma (IOR's bound,
    ///   CPLC's Lemma 7, RLU's `RLMAX`) rests on;
    /// * **taut expansion** — only the source and obstacle vertices are
    ///   ever expanded, so the node the label was relaxed from (its
    ///   predecessor) must be one of them.
    ///
    /// Runs only when the `sanitize-invariants` runtime switch is on.
    fn audit_settlement(&self, g: &VisGraph, u: u32, d: f64) {
        use conn_geom::sanitize;
        let ctx = "DijkstraEngine settle";
        sanitize::audit_distance(ctx, d);
        let p = self.pred[u as usize];
        if p != NO_PRED && p != self.src.0 && g.node_kind(NodeId(p)) != NodeKind::ObstacleVertex {
            sanitize::violation(
                ctx,
                &format!("node {u}: label relaxed from point node {p}, which is never expanded"),
            );
        }
        let pos = g.node_pos(NodeId(u));
        let straight = g.node_pos(self.src).dist(pos);
        if d + 1e-6 * straight.max(1.0) < straight {
            sanitize::violation(
                ctx,
                &format!("node {u}: label {d} below Euclidean lower bound {straight}"),
            );
        }
        let f = d + self.goal.h(pos);
        if let Some(&(pu, pd)) = self.settle_log.last() {
            let pf = pd + self.goal.h(g.node_pos(NodeId(pu)));
            if f + 1e-9 * pf.abs().max(1.0) < pf {
                sanitize::violation(
                    ctx,
                    &format!(
                        "settle order not ascending in f: node {u} f={f} after node {pu} f={pf}"
                    ),
                );
            }
        }
    }

    /// Advances until `target` settles; returns its distance (∞ if
    /// unreachable — or unreachable within the current bound).
    pub fn run_until_settled(&mut self, g: &mut VisGraph, target: NodeId) -> f64 {
        while !self.settled[target.index()] {
            if self.next_settled(g).is_none() {
                return f64::INFINITY;
            }
        }
        self.dist[target.index()]
    }

    /// Settles every node reachable within the bound.
    pub fn run_all(&mut self, g: &mut VisGraph) {
        while self.next_settled(g).is_some() {}
    }

    /// Distance of a *settled* node; `None` if not settled (yet).
    pub fn settled_dist(&self, n: NodeId) -> Option<f64> {
        self.settled[n.index()].then(|| self.dist[n.index()])
    }

    /// Predecessor on the shortest path (the `u` of paper Lemmas 5/6).
    pub fn predecessor(&self, n: NodeId) -> Option<NodeId> {
        let p = self.pred[n.index()];
        (p != NO_PRED).then_some(NodeId(p))
    }

    /// Shortest path from the source to `n` as node ids (source first).
    /// Empty when `n` is unreachable or unsettled.
    pub fn path_to(&self, n: NodeId) -> Vec<NodeId> {
        if !self.settled[n.index()] {
            return Vec::new();
        }
        let mut path = vec![n];
        let mut cur = n;
        while let Some(p) = self.predecessor(cur) {
            path.push(p);
            cur = p;
        }
        path.reverse();
        path
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use conn_geom::{Point, Rect};

    /// One obstacle between two points: the shortest path must round a
    /// corner, and its length is analytically checkable.
    #[test]
    fn detour_around_a_square() {
        let mut g = VisGraph::new(50.0);
        let s = g.add_point(Point::new(0.0, 50.0), NodeKind::Endpoint);
        let t = g.add_point(Point::new(200.0, 50.0), NodeKind::Endpoint);
        g.add_obstacle(Rect::new(90.0, 0.0, 110.0, 100.0));
        let mut d = DijkstraEngine::new(&g, s);
        let got = d.run_until_settled(&mut g, t);
        // detour via (90,100) and (110,100):
        let want = Point::new(0.0, 50.0).dist(Point::new(90.0, 100.0))
            + 20.0
            + Point::new(110.0, 100.0).dist(Point::new(200.0, 50.0));
        assert!((got - want).abs() < 1e-9, "got {got}, want {want}");
        // path passes exactly those corners
        let path: Vec<Point> = d.path_to(t).iter().map(|&n| g.node_pos(n)).collect();
        assert_eq!(path.len(), 4);
        assert_eq!(path[1], Point::new(90.0, 100.0));
        assert_eq!(path[2], Point::new(110.0, 100.0));
    }

    /// Found by a fresh proptest seed: `t` stands where `b`'s top edge
    /// crosses `a`'s left wall, one ulp to the wall's inner side — still
    /// free space to [`Rect::blocks`], which has [`EPS`](conn_geom::EPS) of
    /// slack. The shortest path comes down that wall from `a`'s top-left
    /// corner, and the tangent rule must allow it the same slack instead of
    /// reading the ulp as a step into `a`'s quadrant.
    #[test]
    fn a_wall_is_followed_to_a_point_an_ulp_inside_its_line() {
        let a = Rect::new(50.0, 0.0, 100.0, 40.0);
        let b = Rect::new(0.0, -10.0, 80.0, 10.0);
        let just_inside = f64::from_bits(50.0_f64.to_bits() + 1);
        let mut g = VisGraph::new(50.0);
        let s = g.add_point(Point::new(200.0, 200.0), NodeKind::Endpoint);
        let t = g.add_point(Point::new(just_inside, 10.0), NodeKind::Endpoint);
        g.add_obstacle(a);
        g.add_obstacle(b);
        let mut d = DijkstraEngine::new(&g, s);
        let got = d.run_until_settled(&mut g, t);
        let want = Point::new(200.0, 200.0).dist(Point::new(50.0, 40.0)) + 30.0;
        assert!((got - want).abs() < 1e-9, "got {got}, want {want}");
    }

    #[test]
    fn free_space_is_straight_line() {
        let mut g = VisGraph::new(50.0);
        let s = g.add_point(Point::new(0.0, 0.0), NodeKind::Endpoint);
        let t = g.add_point(Point::new(30.0, 40.0), NodeKind::Endpoint);
        let mut d = DijkstraEngine::new(&g, s);
        assert_eq!(d.run_until_settled(&mut g, t), 50.0);
        assert_eq!(d.path_to(t).len(), 2);
    }

    #[test]
    fn settlement_order_is_ascending() {
        let mut g = VisGraph::new(50.0);
        let s = g.add_point(Point::new(0.0, 0.0), NodeKind::Endpoint);
        for i in 1..20 {
            g.add_point(
                Point::new(i as f64 * 7.0, (i % 5) as f64 * 11.0),
                NodeKind::DataPoint,
            );
        }
        g.add_obstacle(Rect::new(40.0, -10.0, 50.0, 30.0));
        let mut d = DijkstraEngine::new(&g, s);
        let mut prev = -1.0;
        while let Some((_, dist)) = d.next_settled(&mut g) {
            assert!(dist >= prev);
            prev = dist;
        }
    }

    /// Under a goal, settlement is ascending in `f = d + h`, and every
    /// settled distance matches blind Dijkstra bit for bit.
    #[test]
    fn goal_directed_settles_in_f_order_with_exact_distances() {
        let build = || {
            let mut g = VisGraph::new(50.0);
            let s = g.add_point(Point::new(0.0, 0.0), NodeKind::Endpoint);
            for i in 1..25 {
                g.add_point(
                    Point::new((i * 37 % 200) as f64, (i * 53 % 150) as f64),
                    NodeKind::DataPoint,
                );
            }
            g.add_obstacle(Rect::new(40.0, 20.0, 70.0, 60.0));
            g.add_obstacle(Rect::new(120.0, 80.0, 160.0, 120.0));
            (g, s)
        };
        let (mut g, s) = build();
        let mut blind = DijkstraEngine::new(&g, s);
        blind.run_all(&mut g);

        let goal = Goal::Point(Point::new(190.0, 140.0));
        let (mut g2, s2) = build();
        let mut astar = DijkstraEngine::default();
        astar.prepare_directed(&g2, s2, goal);
        let mut prev_f = -1.0;
        while let Some((v, dv)) = astar.next_settled(&mut g2) {
            let f = dv + goal.h(g2.node_pos(v));
            assert!(f >= prev_f - 1e-9, "f-order violated: {f} after {prev_f}");
            prev_f = f;
            let want = blind.settled_dist(v).expect("blind settled everything");
            assert_eq!(dv.to_bits(), want.to_bits(), "distance diverged at {v:?}");
        }
    }

    #[test]
    fn prepared_engine_matches_fresh_engine() {
        let mut g = VisGraph::new(50.0);
        let s = g.add_point(Point::new(0.0, 50.0), NodeKind::Endpoint);
        let t = g.add_point(Point::new(200.0, 50.0), NodeKind::Endpoint);
        g.add_obstacle(Rect::new(90.0, 0.0, 110.0, 100.0));
        let mut fresh = DijkstraEngine::new(&g, s);
        let want = fresh.run_until_settled(&mut g, t);

        let mut reused = DijkstraEngine::default();
        for _ in 0..3 {
            reused.prepare(&g, s);
            let got = reused.run_until_settled(&mut g, t);
            assert_eq!(got.to_bits(), want.to_bits());
        }
        assert_eq!(reused.reuses(), 2, "second and third runs reuse labels");
    }

    /// The whole settlement sequence of `e`, distances as bits.
    fn settle_all(e: &mut DijkstraEngine, g: &mut VisGraph) -> Vec<(NodeId, u64)> {
        std::iter::from_fn(|| e.next_settled(g))
            .map(|(v, d)| (v, d.to_bits()))
            .collect()
    }

    /// A replayed continuation serves the identical settlement sequence the
    /// original run produced, then keeps expanding from the retained heap.
    #[test]
    fn replay_continuation_matches_original_sequence() {
        let mut g = VisGraph::new(50.0);
        let s = g.add_point(Point::new(0.0, 50.0), NodeKind::Endpoint);
        let t = g.add_point(Point::new(200.0, 50.0), NodeKind::Endpoint);
        g.add_obstacle(Rect::new(90.0, 0.0, 110.0, 100.0));
        g.add_obstacle(Rect::new(140.0, 30.0, 160.0, 130.0));
        let goal = Goal::Segment(Segment::new(Point::new(0.0, 50.0), Point::new(200.0, 50.0)));

        let mut cold = DijkstraEngine::default();
        cold.prepare_directed(&g, s, goal);
        let cold_seq = settle_all(&mut cold, &mut g);

        let mut warm = DijkstraEngine::default();
        assert_eq!(warm.ensure_prepared(&g, s, goal, true), Prep::Cold);
        // consume only a prefix (as IOR does: stop once S and E settle)
        warm.run_until_settled(&mut g, t);
        // same graph, same source, same goal → replay
        assert_eq!(warm.ensure_prepared(&g, s, goal, true), Prep::Replayed);
        assert_eq!(cold_seq, settle_all(&mut warm, &mut g));
        assert_eq!(warm.continuations(), 1);
    }

    /// A goal change starts cold, even on an engine holding a finished run
    /// from the same source over the same graph — with and without an
    /// obstacle load or removal in between — and settles exactly the
    /// sequence a fresh engine under the new goal settles, bit for bit.
    #[test]
    fn goal_change_starts_cold() {
        let mut g = VisGraph::new(50.0);
        let s = g.add_point(Point::new(0.0, 0.0), NodeKind::Endpoint);
        for i in 0..14 {
            g.add_point(
                Point::new((i * 37 % 220) as f64, (i * 19 % 130) as f64 - 30.0),
                NodeKind::DataPoint,
            );
        }
        let gone = Rect::new(50.0, -10.0, 80.0, 60.0);
        g.add_obstacle(gone);
        let goal_a = Goal::Point(Point::new(200.0, 0.0));
        let goal_b = Goal::Segment(Segment::new(Point::new(0.0, 90.0), Point::new(220.0, 90.0)));

        let mut warm = DijkstraEngine::default();
        assert_eq!(warm.ensure_prepared(&g, s, goal_a, true), Prep::Cold);
        warm.run_all(&mut g);
        for (goal, load, remove) in [
            (goal_b, None, false),
            (goal_a, Some(Rect::new(120.0, 20.0, 150.0, 110.0)), false),
            (goal_b, None, true),
        ] {
            if let Some(r) = load {
                g.add_obstacle(r);
            }
            if remove {
                g.remove_obstacle(&gone).expect("live obstacle");
            }
            assert_eq!(warm.ensure_prepared(&g, s, goal, true), Prep::Cold);
            let mut fresh = DijkstraEngine::default();
            fresh.prepare_directed(&g, s, goal);
            assert_eq!(
                settle_all(&mut warm, &mut g),
                settle_all(&mut fresh, &mut g)
            );
        }
        assert_eq!(warm.continuations(), 0);
    }

    /// A bounded run replays under its *retained* bound — within it, labels
    /// match an unbounded cold run bitwise; beyond it, the engine reports
    /// exhaustion.
    #[test]
    fn tightened_run_replays_under_retained_bound() {
        let mut g = VisGraph::new(50.0);
        let s = g.add_point(Point::new(0.0, 0.0), NodeKind::Endpoint);
        for i in 1..20 {
            g.add_point(
                Point::new((i * 41 % 260) as f64, (i * 23 % 170) as f64),
                NodeKind::DataPoint,
            );
        }
        g.add_obstacle(Rect::new(60.0, 10.0, 90.0, 100.0));
        let bound = 120.0;
        let mut warm = DijkstraEngine::default();
        assert_eq!(warm.ensure_prepared(&g, s, Goal::None, true), Prep::Cold);
        warm.set_bound(bound);
        warm.run_all(&mut g);
        assert_eq!(
            warm.ensure_prepared(&g, s, Goal::None, true),
            Prep::Replayed
        );
        assert_eq!(warm.bound(), bound, "replay keeps the retained bound");
        warm.run_all(&mut g);
        let mut cold = DijkstraEngine::default();
        cold.prepare(&g, s);
        cold.run_all(&mut g);
        for v in g.node_ids() {
            match (warm.settled_dist(v), cold.settled_dist(v)) {
                (Some(a), Some(b)) => assert_eq!(a.to_bits(), b.to_bits()),
                (None, Some(b)) => assert!(b > bound - 1e-9, "{v:?} missing below the bound"),
                (None, None) => {}
                (Some(_), None) => panic!("bounded replay settled a node cold missed"),
            }
        }
    }

    /// Every structural change of the graph starts the next search cold —
    /// an obstacle load, an endpoint or a data point added, an obstacle
    /// removed, a node removed and its slot rebound to a different point —
    /// and the cold run settles exactly the sequence a fresh engine
    /// settles, bit for bit. Straight after, with nothing changed, the same
    /// search replays.
    #[test]
    fn every_structural_change_starts_cold() {
        let goal = Goal::Point(Point::new(200.0, 0.0));
        let mut g = VisGraph::new(50.0);
        let s = g.add_point(Point::new(0.0, 0.0), NodeKind::Endpoint);
        for i in 0..12 {
            g.add_point(
                Point::new((i * 31 % 210) as f64, (i * 17 % 90) as f64 - 20.0),
                NodeKind::DataPoint,
            );
        }
        let wall = Rect::new(60.0, 20.0, 90.0, 70.0);
        g.add_obstacle(wall);
        let mut warm = DijkstraEngine::default();
        assert_eq!(warm.ensure_prepared(&g, s, goal, true), Prep::Cold);
        warm.run_all(&mut g);
        let restarts_cold = |warm: &mut DijkstraEngine, g: &mut VisGraph| {
            assert_eq!(warm.ensure_prepared(g, s, goal, true), Prep::Cold);
            let mut fresh = DijkstraEngine::default();
            fresh.prepare_directed(g, s, goal);
            let want = settle_all(&mut fresh, g);
            assert_eq!(settle_all(warm, g), want);
            assert_eq!(warm.ensure_prepared(g, s, goal, true), Prep::Replayed);
            assert_eq!(settle_all(warm, g), want);
        };
        g.add_obstacle(Rect::new(130.0, -20.0, 150.0, 55.0));
        restarts_cold(&mut warm, &mut g);
        g.add_point(Point::new(120.0, 50.0), NodeKind::Endpoint);
        restarts_cold(&mut warm, &mut g);
        let p = g.add_point(Point::new(60.0, 60.0), NodeKind::DataPoint);
        restarts_cold(&mut warm, &mut g);
        g.remove_obstacle(&wall).expect("live obstacle");
        restarts_cold(&mut warm, &mut g);
        g.remove_node(p);
        let p2 = g.add_point(Point::new(700.0, 700.0), NodeKind::DataPoint);
        assert_eq!(p2, p, "slot must be reused for the aliasing to occur");
        restarts_cold(&mut warm, &mut g);
        let d = warm.settled_dist(p2).expect("reachable");
        assert!((d - Point::new(700.0, 700.0).norm()).abs() < 1e-9);
        assert_eq!(warm.continuations(), 5);
    }

    /// A bounded run prunes expansion beyond the bound but leaves every
    /// within-bound distance bit-identical to the unbounded run.
    #[test]
    fn bounded_run_is_exact_within_the_bound() {
        let mut g = VisGraph::new(50.0);
        let s = g.add_point(Point::new(0.0, 0.0), NodeKind::Endpoint);
        for i in 1..30 {
            g.add_point(
                Point::new((i * 41 % 300) as f64, (i * 23 % 200) as f64),
                NodeKind::DataPoint,
            );
        }
        g.add_obstacle(Rect::new(50.0, 10.0, 80.0, 120.0));
        let mut full = DijkstraEngine::new(&g, s);
        full.run_all(&mut g);

        let bound = 150.0;
        let mut bounded = DijkstraEngine::new(&g, s);
        bounded.set_bound(bound);
        bounded.run_all(&mut g);
        for v in g.node_ids() {
            match (bounded.settled_dist(v), full.settled_dist(v)) {
                (Some(a), Some(b)) => assert_eq!(a.to_bits(), b.to_bits()),
                (None, Some(b)) => assert!(b > bound - 1e-9, "{v:?} wrongly pruned at {b}"),
                (None, None) => {}
                (Some(_), None) => panic!("bounded settled a node the full run missed"),
            }
        }
    }

    /// OrdF64-heap audit: unreachable nodes and zero-length edges must not
    /// corrupt the heap invariant — settlement stays ascending, coincident
    /// nodes settle at the exact same distance, walled-in nodes never
    /// settle, and no key is ever NaN (OrdF64 debug-asserts that).
    #[test]
    fn heap_invariant_survives_zero_length_edges_and_unreachable_nodes() {
        let mut g = VisGraph::new(25.0);
        let s = g.add_point(Point::new(5.0, 5.0), NodeKind::Endpoint);
        // coincident pair → zero-length edge between them
        let c1 = g.add_point(Point::new(60.0, 5.0), NodeKind::DataPoint);
        let c2 = g.add_point(Point::new(60.0, 5.0), NodeKind::DataPoint);
        // a walled-in (unreachable) node
        let jail = g.add_point(Point::new(150.0, 150.0), NodeKind::DataPoint);
        g.add_obstacle(Rect::new(140.0, 140.0, 160.0, 145.0));
        g.add_obstacle(Rect::new(140.0, 155.0, 160.0, 160.0));
        g.add_obstacle(Rect::new(140.0, 140.0, 145.0, 160.0));
        g.add_obstacle(Rect::new(155.0, 140.0, 160.0, 160.0));
        let mut d = DijkstraEngine::new(&g, s);
        let mut prev = -1.0;
        let mut settled = 0;
        while let Some((_, dist)) = d.next_settled(&mut g) {
            assert!(dist.is_finite(), "settled an unreachable node");
            assert!(dist >= prev, "heap order corrupted: {dist} after {prev}");
            prev = dist;
            settled += 1;
        }
        assert!(settled >= 3, "source + coincident pair at minimum");
        let d1 = d.settled_dist(c1).unwrap();
        let d2 = d.settled_dist(c2).unwrap();
        assert_eq!(d1.to_bits(), d2.to_bits(), "zero-length edge broke ties");
        assert_eq!(d.settled_dist(jail), None);
        assert_eq!(d.run_until_settled(&mut g, jail), f64::INFINITY);
        // the same holds under a goal (f keys instead of d keys)
        let mut a = DijkstraEngine::default();
        a.prepare_directed(&g, s, Goal::Point(Point::new(60.0, 5.0)));
        assert_eq!(a.run_until_settled(&mut g, jail), f64::INFINITY);
        assert_eq!(
            a.settled_dist(c1).unwrap().to_bits(),
            a.settled_dist(c2).unwrap().to_bits()
        );
    }

    #[test]
    fn unreachable_reports_infinity() {
        let mut g = VisGraph::new(50.0);
        let s = g.add_point(Point::new(50.0, 50.0), NodeKind::Endpoint);
        // box the source in with four overlapping walls
        g.add_obstacle(Rect::new(0.0, 0.0, 100.0, 10.0));
        g.add_obstacle(Rect::new(0.0, 90.0, 100.0, 100.0));
        g.add_obstacle(Rect::new(0.0, 0.0, 10.0, 100.0));
        g.add_obstacle(Rect::new(90.0, 0.0, 100.0, 100.0));
        let t = g.add_point(Point::new(500.0, 500.0), NodeKind::Endpoint);
        let mut d = DijkstraEngine::new(&g, s);
        assert_eq!(d.run_until_settled(&mut g, t), f64::INFINITY);
    }

    #[test]
    fn triangle_inequality_on_settled_distances() {
        let mut g = VisGraph::new(25.0);
        let s = g.add_point(Point::new(0.0, 0.0), NodeKind::Endpoint);
        g.add_obstacle(Rect::new(20.0, 10.0, 60.0, 30.0));
        g.add_obstacle(Rect::new(70.0, 40.0, 120.0, 55.0));
        g.add_obstacle(Rect::new(30.0, 60.0, 55.0, 95.0));
        let probes: Vec<NodeId> = (0..15)
            .map(|i| {
                g.add_point(
                    Point::new((i * 13 % 140) as f64, (i * 29 % 110) as f64),
                    NodeKind::DataPoint,
                )
            })
            .collect();
        let mut d = DijkstraEngine::new(&g, s);
        d.run_all(&mut g);
        for &p in &probes {
            if let Some(dp) = d.settled_dist(p) {
                // obstructed distance dominates euclidean distance
                assert!(dp + 1e-9 >= g.node_pos(p).dist(g.node_pos(s)));
            }
        }
    }

    #[test]
    #[cfg(feature = "sanitize-invariants")]
    fn settlement_audit_fires_on_inadmissible_label() {
        let mut g = VisGraph::new(50.0);
        let s = g.add_point(Point::new(0.0, 0.0), NodeKind::Endpoint);
        let t = g.add_point(Point::new(100.0, 0.0), NodeKind::Endpoint);
        let d = DijkstraEngine::new(&g, s);
        // a label of 1.0 for a node 100 away is below the Euclidean lower
        // bound — no obstructed path can be that short
        assert!(
            std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
                d.audit_settlement(&g, t.0, 1.0)
            }))
            .is_err(),
            "audit must reject an inadmissible label"
        );
        // NaN labels are rejected too
        assert!(
            std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
                d.audit_settlement(&g, t.0, f64::NAN)
            }))
            .is_err(),
            "audit must reject a NaN label"
        );
        // an honest label passes
        d.audit_settlement(&g, t.0, 100.0);
        // ... unless it was relaxed from a free point other than the source
        let mut d = d;
        let via = g.add_point(Point::new(50.0, 0.0), NodeKind::DataPoint);
        d.pred.resize(g.capacity(), NO_PRED);
        d.pred[t.index()] = via.0;
        assert!(
            std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
                d.audit_settlement(&g, t.0, 100.0)
            }))
            .is_err(),
            "audit must reject a label relaxed from an unexpanded point node"
        );
    }
}
