//! The incremental local visibility graph.
//!
//! Mirrors the paper's §4.1 usage: the graph starts with the query endpoints
//! `S`, `E`; IOR streams obstacles in (each contributing its four vertices);
//! each data point under evaluation is added, queried, and removed again.
//! The obstacle set only grows: an obstacle leaves the graph only when
//! [`VisGraph::reset`] clears it for the next query, and loaders ask
//! [`VisGraph::holds`] what it holds. Every change bumps
//! [`VisGraph::version`], and a search over the changed graph starts cold:
//! `DijkstraEngine` carries labels forward only by replaying a search on
//! the version it ran on.
//!
//! Adjacency is **symmetric** and **bitangent**: an edge `u — v` exists
//! when the two nodes see each other and the segment lies along a tangent
//! direction of every obstacle vertex among its ends. A point node (query
//! endpoint or data point — every search source and terminal) is tangent in
//! all directions. An obstacle vertex `u`, corner of rectangle `A`, is
//! tangent only along the two closed quadrants adjacent to `A`'s
//! (`dx·dy ≤ 0` in the corner's frame, axis directions included);
//! candidates elsewhere — seen from either end — are dropped before their
//! sweep event or sight test. This is the classical reduced visibility
//! graph, and every shortest path survives in it:
//!
//! * a bend at `u` needs obstacle interior inside a wedge `< π` at `u` with
//!   both rays free, which forces both rays into those two quadrants — the
//!   ray the path *leaves* along and the ray it *arrived* along alike, so
//!   an edge into `u` that is not tangent there can only end at `u`, and no
//!   search ends at an obstacle vertex;
//! * a touching or overlapping neighbour only removes further directions;
//! * a terminal is reached by an edge tangent at the *previous* vertex, and
//!   a collinear pass-through of a free point is never strictly shorter
//!   than the direct edge (so `DijkstraEngine` never expands one).
//!
//! A point node's shortest-path label is therefore unchanged. An obstacle
//! vertex's label becomes the shortest *tangent arrival* — see
//! `DijkstraEngine`'s module docs for what that means to its consumers.
//!
//! Rows are computed **lazily per node** and cached in two tiers:
//!
//! * the **base** tier — edges to stable nodes (query endpoints and obstacle
//!   vertices), cached per node and invalidated only when the stable node
//!   set changes (a new obstacle or endpoint);
//! * the **transient overlay** — edges to data points under evaluation,
//!   recomputed on every access. Transient nodes come and go once per
//!   evaluated point, and the overlay keeps that churn from invalidating the
//!   base tier: without the split, every `add_point`/`remove_node` pair
//!   would throw away *all* cached edge lists of the query.
//!
//! Dead nodes never appear in either tier. This keeps the cost of a query
//! proportional to the nodes Dijkstra actually expands, not to the full
//! `O(n²)` edge set.
//!
//! A base row is complete up to a Chebyshev **radius** (a bounded search
//! asks only for the neighbours it can still settle) and has exactly two
//! maintenance paths:
//!
//! * **repair**, when the row's radius covers the request but obstacles or
//!   endpoints arrived since it was built: the retained edges are re-tested
//!   against just the rectangles logged since (each test charged to
//!   [`VisGraph::sight_tests`]), and the stable nodes logged since are
//!   appended when visible. It runs only when its cost model
//!   (`repair_cheaper_than_rebuild`) says it beats a rebuild — a
//!   measured rule: repairing whenever the radius allowed cost the
//!   ledger's `continuous` workload 9.7 % more sight tests per op
//!   (395 604 → 434 025, seed 2009), and never repairing (every stale row
//!   rebuilt) cost it more still: at seed 2009, `fam2_mid_ms` 40.9 → 50.0
//!   (+22 %), `tail_ms` 56.9 → 72.3 (+27 %) and `ops_per_s` −13 %, and
//!   `live_churn` −8 % `ops_per_s` (2–3 alternating runs per side).
//! * **rebuild**, for everything else — a new row, a request beyond the
//!   row's radius: the row is computed afresh out to the request's radius
//!   times a small growth margin, so the next, slightly larger request is
//!   still a hit.
//!
//! Both decide candidates by one rule (`candidate`), so a current row holds
//! the same edges whichever path produced it.
//!
//! # Storage layout: CSR arena + SoA node lanes
//!
//! The graph is stored as flat parallel arrays, not per-node allocations:
//!
//! * **Nodes** are four SoA lanes (`node_pos` / `node_kind` /
//!   `node_alive` / `node_turn`) indexed by [`NodeId`]. The settle loop of
//!   a search reads the position lane per edge and the kind lane once per
//!   settled node; liveness and the corner lane stay out of its cache
//!   lines.
//! * **Base adjacency** is a CSR-style arena: one contiguous `Vec<u32>` of
//!   edge targets and a parallel `Vec<f64>` of Euclidean weights, with a
//!   small per-node `AdjMeta` record holding the node's `{start, len}`
//!   range plus its cache-coherency keys (version, completeness radius).
//!   Rebuilt and repaired ranges are appended at the arena tail; abandoned
//!   ranges are tracked as garbage and squeezed out by an occasional
//!   compaction pass, so relaxation streams over contiguous memory instead
//!   of chasing one heap allocation per node.
//! * The **transient overlay** stays a small side table (`transients`):
//!   data-point nodes come and go once per evaluated point and never enter
//!   the arena.
//!
//! Indices are `u32` on purpose: half the bytes of `usize` doubles the
//! edges per cache line.
//!
//! [`VisGraph::reset`] clears the graph for the next query while retaining
//! every allocation (node lanes, the adjacency arena, grid cells), which is
//! what makes a reused query engine perform O(1) substrate allocations per
//! batch instead of O(N).

#![expect(
    clippy::indexing_slicing,
    reason = "node ids are dense indices allocated by this module and the per-node arrays are (re)sized on every allocation; the sanitize-invariants adjacency audit cross-checks them"
)]

use conn_geom::{Point, Rect, Segment, EPS};

use crate::grid::ObstacleGrid;
use crate::sweep::SweepMode;

/// `AdjMeta::version` value marking a slot whose cache is invalid.
const STALE: u64 = u64::MAX;

/// Speculative radius growth of a bounded rebuild: a request for radius `r`
/// builds the row out to `r ×` this, so that the jitter between one
/// search's consecutive requests stays a hit. Sight tests grow with the
/// window's area, so the margin is paid quadratically.
const GROWTH_MARGIN: f64 = 1.2;

/// Handle to a graph node.
#[derive(Debug, Default, Clone, Copy, PartialEq, Eq, Hash)]
pub struct NodeId(pub u32);

impl NodeId {
    /// The node's slot index in the graph's arrays.
    #[inline]
    pub fn index(self) -> usize {
        self.0 as usize
    }
}

/// What a node represents. Decides which edges it takes part in (point
/// nodes in all directions, obstacle vertices only along their tangent
/// directions — see the module docs) and whether a search expands it
/// (`DijkstraEngine` expands its source and obstacle vertices only).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum NodeKind {
    /// A query-segment endpoint (`S` or `E`).
    Endpoint,
    /// A data point under evaluation (transient).
    DataPoint,
    /// A corner of an obstacle rectangle.
    ObstacleVertex,
}

/// Per-node metadata of the CSR adjacency arena: the node's `[start,
/// start + len)` range in the targets/weights lanes plus the
/// cache-coherency keys deciding whether that range is current.
#[derive(Debug, Clone, Copy)]
struct AdjMeta {
    version: u64,
    /// Completeness radius: the cache is guaranteed to hold every visible
    /// stable neighbor within this Euclidean distance of the node (∞ = the
    /// classical complete cache). Bounded searches ask for bounded radii,
    /// which keeps rebuild cost proportional to *local* obstacle density
    /// instead of the total graph size.
    radius: f64,
    /// First arena index of this node's edge range.
    start: u32,
    /// Number of edges in the range.
    len: u32,
}

impl Default for AdjMeta {
    fn default() -> Self {
        AdjMeta {
            version: STALE,
            radius: 0.0,
            start: 0,
            len: 0,
        }
    }
}

/// The [`VisGraph::add_obstacle`] corner order (counter-clockwise from
/// `(min, min)`) as `node_turn` signs.
const CORNER_TURNS: [f64; 4] = [1.0, -1.0, 1.0, -1.0];

/// The tangent predicate of the module docs: may a shortest path leave a
/// node with corner sign `turn` at `u` toward `v` — or, the quadrants being
/// symmetric about `u`, arrive there from `v` and bend? Point nodes
/// (`turn = 0.0`) pass everything. A direction within [`EPS`] of a wall's
/// line counts as along the wall, as it does for [`Rect::blocks`]: a node
/// an ulp to the wrong side of that line is still reached along the wall.
#[inline]
fn leaves_tangent(turn: f64, u: Point, v: Point) -> bool {
    let (dx, dy) = (v.x - u.x, v.y - u.y);
    turn * dx * dy <= 0.0 || dx.abs() <= EPS || dy.abs() <= EPS
}

/// Can `r` block a sight line that [`leaves_tangent`] admits from `u`?
/// Blocking needs a point of the line strictly inside `r`, so `r`'s open
/// interior must meet one of the two closed tangent quadrants.
#[inline]
fn meets_tangent_quadrants(turn: f64, u: Point, r: &Rect) -> bool {
    let (left, right) = (r.min_x < u.x, r.max_x > u.x);
    let (below, above) = (r.min_y < u.y, r.max_y > u.y);
    if turn > 0.0 {
        (left && above) || (right && below)
    } else if turn < 0.0 {
        (right && above) || (left && below)
    } else {
        true
    }
}

/// Local visibility graph over a growing obstacle set.
#[derive(Debug)]
pub struct VisGraph {
    /// Node positions — the hot lane every relaxation filter reads.
    node_pos: Vec<Point>,
    /// What each node represents (parallel to `node_pos`).
    node_kind: Vec<NodeKind>,
    /// Liveness per node slot (parallel to `node_pos`).
    node_alive: Vec<bool>,
    /// Which corner of its rectangle an obstacle vertex is, as the sign
    /// [`leaves_tangent`] multiplies in: `+1.0` at the `(min, min)` and
    /// `(max, max)` corners, `-1.0` at the other two, `0.0` for point nodes
    /// (parallel to `node_pos`; written by [`VisGraph::add_obstacle`]).
    node_turn: Vec<f64>,
    free: Vec<u32>,
    grid: ObstacleGrid,
    /// [`Rect::bit_key`]s of the rectangles in `grid`, for [`VisGraph::holds`].
    held: std::collections::HashSet<[u64; 4]>,
    /// Bumped by every structural change: it guards running searches, and
    /// an unchanged version is what lets `DijkstraEngine` replay one.
    version: u64,
    /// Bumped only when the *stable* node set grows (an obstacle or an
    /// endpoint added) — the key of the base adjacency tier.
    base_version: u64,
    /// Live transient ([`NodeKind::DataPoint`]) node ids — the overlay.
    transients: Vec<u32>,
    /// Per-query log of obstacle insertions `(base_version, rect)`,
    /// ascending in version: a stale base cache is repaired by testing its
    /// retained edges against only the rects newer than its version.
    rect_log: Vec<(u64, Rect)>,
    /// Per-query log of stable-node insertions `(base_version, node id)`.
    node_log: Vec<(u64, u32)>,
    /// Live stable non-corner nodes (query endpoints) — enumerated
    /// explicitly by radius-bounded cache rebuilds, since only obstacle
    /// corners are reachable through the grid.
    endpoints: Vec<u32>,
    /// Corner node ids per grid obstacle id (insertion order) — the
    /// grid-to-node mapping of radius-bounded cache rebuilds.
    rect_corners: Vec<[u32; 4]>,
    /// Scratch for grid candidate queries during bounded rebuilds.
    rect_scratch: Vec<u32>,
    /// When cache builds use the rotational plane-sweep instead of
    /// per-candidate grid walks (verdicts identical either way).
    sweep_mode: SweepMode,
    /// Scratch for cache builds: candidate node ids, their positions, and
    /// the per-candidate visibility verdicts (parallel vectors).
    cand_ids: Vec<u32>,
    cand_pos: Vec<Point>,
    cand_vis: Vec<bool>,
    /// Per-node arena ranges + cache-coherency keys.
    adj: Vec<AdjMeta>,
    /// CSR arena, target lane: edge targets of every cached range.
    adj_targets: Vec<u32>,
    /// CSR arena, weight lane (parallel to `adj_targets`).
    adj_weights: Vec<f64>,
    /// Arena entries no longer referenced by any range (rebuilds and
    /// repairs append at the tail and abandon their old range); compaction
    /// squeezes them out once they dominate.
    adj_dead: usize,
    /// Swap buffers for arena compaction (retained across compactions).
    compact_targets: Vec<u32>,
    compact_weights: Vec<f64>,
    /// Scratch for visible-region candidate gathering (ids + rects).
    vr_ids: Vec<u32>,
    vr_rects: Vec<Rect>,
    /// Lifetime count of incremental base-row repairs. Monotone across
    /// resets, like the sight-test counter.
    adj_repairs: u64,
}

impl VisGraph {
    /// Creates an empty graph; `cell` is the spatial-hash cell size for the
    /// obstacle index (≈ a few typical obstacle diameters).
    pub fn new(cell: f64) -> Self {
        VisGraph {
            node_pos: Vec::new(),
            node_kind: Vec::new(),
            node_alive: Vec::new(),
            node_turn: Vec::new(),
            free: Vec::new(),
            grid: ObstacleGrid::new(cell),
            held: Default::default(),
            version: 0,
            base_version: 0,
            transients: Vec::new(),
            rect_log: Vec::new(),
            node_log: Vec::new(),
            endpoints: Vec::new(),
            rect_corners: Vec::new(),
            rect_scratch: Vec::new(),
            sweep_mode: SweepMode::default(),
            cand_ids: Vec::new(),
            cand_pos: Vec::new(),
            cand_vis: Vec::new(),
            adj: Vec::new(),
            adj_targets: Vec::new(),
            adj_weights: Vec::new(),
            adj_dead: 0,
            compact_targets: Vec::new(),
            compact_weights: Vec::new(),
            vr_ids: Vec::new(),
            vr_rects: Vec::new(),
            adj_repairs: 0,
        }
    }

    /// Clears the graph for a fresh query while keeping every allocation:
    /// node slots, cached per-slot edge lists, and the grid's cell map all
    /// survive and are re-bound as the next query adds nodes and obstacles.
    /// Returns the number of adjacency slots whose allocations were
    /// retained (the `nodes_retained` reuse metric).
    ///
    /// Reuse contract: `reset` clears the node set, the obstacle set and
    /// all cached visibility state; it keeps heap allocations and the
    /// monotone version counters (so stale caches can never be mistaken
    /// for fresh ones).
    pub fn reset(&mut self) -> usize {
        if conn_geom::sanitize::enabled() {
            // Query boundary: the graph state the finished query computed
            // with is still intact — audit it before it is torn down.
            self.audit_adjacency();
        }
        // Only the slots this query used can hold a range or a live cache:
        // slots past them were rewound by the reset that ended *their*
        // query and not touched since. `adj` itself never shrinks, so
        // walking all of it would charge every later query for the
        // largest one this graph ever served.
        let used = &mut self.adj[..self.node_pos.len()];
        let retained = used.iter().filter(|m| m.len > 0).count();
        // the edge arena restarts empty (allocations retained); stale
        // metas must not keep ranges into the cleared arena
        for m in used {
            m.version = STALE;
            m.radius = 0.0;
            m.start = 0;
            m.len = 0;
        }
        self.node_pos.clear();
        self.node_kind.clear();
        self.node_alive.clear();
        self.node_turn.clear();
        self.free.clear();
        self.transients.clear();
        self.rect_log.clear();
        self.node_log.clear();
        self.endpoints.clear();
        self.rect_corners.clear();
        self.grid.reset();
        self.held.clear();
        self.adj_targets.clear();
        self.adj_weights.clear();
        self.adj_dead = 0;
        self.version += 1;
        self.base_version = self.version;
        retained
    }

    /// Number of live nodes — the `|SVG|` metric of the paper's Figures 9–12
    /// counts the obstacle vertices held in the local graph.
    pub fn num_nodes(&self) -> usize {
        self.node_alive.iter().filter(|&&a| a).count()
    }

    /// Total slots, including dead nodes (array sizing for Dijkstra).
    pub fn capacity(&self) -> usize {
        self.node_pos.len()
    }

    /// Number of obstacle rectangles loaded since the last reset.
    pub fn num_obstacles(&self) -> usize {
        self.grid.len()
    }

    /// True when an obstacle bit-identical to `r` was added since the last
    /// reset: loaders skip it instead of adding it twice.
    pub fn holds(&self, r: &Rect) -> bool {
        self.held.contains(&r.bit_key())
    }

    /// Monotone counter bumped by every structural change — a node added
    /// or removed, an obstacle added, a reset. A search prepared at the
    /// current version may be replayed; any other starts cold.
    pub fn version(&self) -> u64 {
        self.version
    }

    /// Position of a node (dead or alive).
    pub fn node_pos(&self, id: NodeId) -> Point {
        self.node_pos[id.index()]
    }

    /// What the node represents.
    pub fn node_kind(&self, id: NodeId) -> NodeKind {
        self.node_kind[id.index()]
    }

    /// True until the node is removed.
    pub fn is_alive(&self, id: NodeId) -> bool {
        self.node_alive[id.index()]
    }

    /// Iterates live node ids.
    pub fn node_ids(&self) -> impl Iterator<Item = NodeId> + '_ {
        self.node_alive
            .iter()
            .enumerate()
            .filter(|(_, &alive)| alive)
            .map(|(i, _)| NodeId(i as u32))
    }

    /// Lifetime count of segment-vs-rect sight tests performed on behalf of
    /// this graph, one per rectangle actually tested: grid walks, the
    /// sweep's exact probes, visible-region shadow midpoints and row
    /// repair's re-tests. Monotone across [`VisGraph::reset`] — callers
    /// diff marks per query window, like the Dijkstra reuse counters.
    pub fn sight_tests(&self) -> u64 {
        self.grid.sight_tests()
    }

    /// Lifetime count of rotational plane-sweep events processed by cache
    /// builds on behalf of this graph — the sweep's unit of work, the
    /// companion of [`VisGraph::sight_tests`]. Monotone across
    /// [`VisGraph::reset`]; callers diff marks per query window.
    pub fn sweep_events(&self) -> u64 {
        self.grid.sweep_events()
    }

    /// Lifetime count of incremental base-row repairs
    /// ([`VisGraph::neighbors_into_ranged`]'s repair path). Monotone across
    /// [`VisGraph::reset`]; callers diff marks per query window, like
    /// [`VisGraph::sight_tests`].
    pub fn adjacency_repairs(&self) -> u64 {
        self.adj_repairs
    }

    /// Sets how subsequent cache builds decide candidate visibility
    /// (plane-sweep vs per-candidate grid walks). Existing caches stay
    /// valid: edge lists are identical in every mode.
    pub fn set_sweep_mode(&mut self, mode: SweepMode) {
        self.sweep_mode = mode;
    }

    /// Adds a non-obstacle node (query endpoint or data point). Data points
    /// are *transient*: they live in the overlay tier and do not invalidate
    /// the base adjacency caches.
    pub fn add_point(&mut self, pos: Point, kind: NodeKind) -> NodeId {
        self.version += 1;
        if kind != NodeKind::DataPoint {
            self.base_version = self.version;
        }
        let id = self.push_node(pos, kind, 0.0);
        if kind == NodeKind::DataPoint {
            self.transients.push(id.0);
        } else {
            self.node_log.push((self.base_version, id.0));
            self.endpoints.push(id.0);
        }
        id
    }

    /// Removes a data point added with [`VisGraph::add_point`] once its
    /// evaluation ends. Only data points are removed: query endpoints and
    /// obstacle vertices live until [`VisGraph::reset`]. The point lives in
    /// the transient overlay, so no base row is touched.
    pub fn remove_node(&mut self, id: NodeId) {
        let i = id.index();
        debug_assert!(self.node_alive[i], "double removal of node {id:?}");
        debug_assert_eq!(
            self.node_kind[i],
            NodeKind::DataPoint,
            "only data points are removed"
        );
        self.node_alive[i] = false;
        self.free.push(id.0);
        self.version += 1;
        self.transients.retain(|&t| t != id.0);
    }

    /// Adds an obstacle: registers it in the grid and adds its four corners
    /// as permanent nodes. Returns the corner node ids.
    pub fn add_obstacle(&mut self, r: Rect) -> [NodeId; 4] {
        self.version += 1;
        self.base_version = self.version;
        self.grid.insert(r);
        self.held.insert(r.bit_key());
        self.rect_log.push((self.base_version, r));
        let corners = r.corners();
        let ids: [NodeId; 4] = std::array::from_fn(|k| {
            self.push_node(corners[k], NodeKind::ObstacleVertex, CORNER_TURNS[k])
        });
        for id in ids {
            self.node_log.push((self.base_version, id.0));
        }
        self.rect_corners.push(ids.map(|id| id.0));
        ids
    }

    fn push_node(&mut self, pos: Point, kind: NodeKind, turn: f64) -> NodeId {
        if let Some(slot) = self.free.pop() {
            let i = slot as usize;
            self.node_pos[i] = pos;
            self.node_kind[i] = kind;
            self.node_alive[i] = true;
            self.node_turn[i] = turn;
            // Mark stale and abandon the slot's old arena range.
            self.retire_range(i);
            self.adj[i].version = STALE;
            self.adj[i].radius = 0.0;
            NodeId(slot)
        } else {
            self.node_pos.push(pos);
            self.node_kind.push(kind);
            self.node_alive.push(true);
            self.node_turn.push(turn);
            let i = self.node_pos.len() - 1;
            if i < self.adj.len() {
                // slot retained across a reset (range already zeroed there)
                self.retire_range(i);
                self.adj[i].version = STALE;
                self.adj[i].radius = 0.0;
            } else {
                self.adj.push(AdjMeta::default());
            }
            NodeId(i as u32)
        }
    }

    /// Abandons a slot's arena range (if any), accounting it as garbage.
    fn retire_range(&mut self, i: usize) {
        let m = &mut self.adj[i];
        self.adj_dead += m.len as usize;
        m.start = 0;
        m.len = 0;
    }

    /// The node's row: `(neighbor, euclidean length)` for every live node
    /// within Chebyshev distance `radius` of it and visible along a
    /// bitangent segment — tangent at the node itself and at the neighbor,
    /// which a point node is in every direction (see the module docs).
    /// Appends to `out` (callers clear as needed): first the cached base
    /// edges (stable nodes), then the transient overlay. Base edges beyond
    /// `radius` may be appended too — the cache holds its own, possibly
    /// larger, radius.
    ///
    /// A bounded Dijkstra passes `bound − d(u)` as the radius (a neighbor
    /// farther away can never settle within the bound), which keeps a
    /// rebuild's cost proportional to the *local* obstacle density: the
    /// candidates come from the obstacle grid, not from every stable node
    /// of the graph. A stale row is repaired or rebuilt (the two paths of
    /// the module docs).
    ///
    /// Candidates failing `keep(id, position)` are skipped —
    /// transient-overlay candidates *before* their sight test is paid,
    /// base-tier edges before they are copied into `out`. Dijkstra passes
    /// `keep = not-yet-settled ∧ inside-the-search-ellipse`: an edge into a
    /// settled node can never relax anything, a candidate outside the
    /// current distance bound's ellipse can never settle within it, and in
    /// the CONN loop the only live transient is the (always-settled) source
    /// itself, so the overlay's per-settle grid walks vanish entirely.
    pub fn neighbors_into_ranged(
        &mut self,
        u: NodeId,
        out: &mut Vec<(u32, f64)>,
        keep: impl Fn(u32, Point) -> bool,
        radius: f64,
    ) {
        let ui = u.index();
        debug_assert!(self.node_alive[ui], "neighbors of dead node");
        let cached = self.adj[ui];
        if cached.version != self.base_version || cached.radius < radius {
            let repairable = cached.version != STALE
                && cached.radius >= radius
                && self.repair_cheaper_than_rebuild(cached.version, cached.len as usize);
            if repairable {
                self.repair_base_cache(ui);
            } else {
                let target = if radius.is_finite() {
                    (radius * GROWTH_MARGIN).max(self.grid.cell_size() * 2.0)
                } else {
                    f64::INFINITY
                };
                self.rebuild_base_cache(ui, target);
            }
            self.maybe_compact();
        }
        let m = self.adj[ui];
        let (start, end) = (m.start as usize, (m.start + m.len) as usize);
        let pos = &self.node_pos;
        out.extend(
            self.adj_targets[start..end]
                .iter()
                .zip(&self.adj_weights[start..end])
                .filter(|&(&v, _)| keep(v, pos[v as usize]))
                .map(|(&v, &w)| (v, w)),
        );
        let (upos, turn) = (self.node_pos[ui], self.node_turn[ui]);
        for ti in 0..self.transients.len() {
            let t = self.transients[ti];
            if t as usize == ui {
                continue;
            }
            debug_assert!(self.node_alive[t as usize], "dead transient tracked");
            let tpos = self.node_pos[t as usize];
            if !leaves_tangent(turn, upos, tpos) || !keep(t, tpos) {
                continue;
            }
            if !self.grid.blocks(upos, tpos) {
                out.push((t, upos.dist(tpos)));
            }
        }
    }

    /// Index of the first log entry newer than `version` (logs are
    /// ascending in version).
    fn log_start<T>(log: &[(u64, T)], version: u64) -> usize {
        log.partition_point(|&(v, _)| v <= version)
    }

    /// Cost model: repair re-tests `edges × new_rects` segment/rect pairs
    /// plus one grid walk per new node; rebuild walks the grid once per
    /// candidate node. A grid walk costs a few rect tests, so compare in
    /// rect-test units with a small factor on walks.
    fn repair_cheaper_than_rebuild(&self, version: u64, edges: usize) -> bool {
        let new_rects = self.rect_log.len() - Self::log_start(&self.rect_log, version);
        let new_nodes = self.node_log.len() - Self::log_start(&self.node_log, version);
        let candidates = self.node_pos.len().saturating_sub(self.free.len());
        const WALK_COST: usize = 4; // ≈ rect tests per grid walk
        edges * new_rects + new_nodes * WALK_COST < candidates * WALK_COST
    }

    /// Compacts the adjacency arena once abandoned ranges dominate: live
    /// ranges are copied front-to-back in slot order into retained swap
    /// buffers and every meta is rebased. Ranges keep their internal order,
    /// so repairable (stale-but-retained) caches survive compaction intact.
    fn maybe_compact(&mut self) {
        let live = self.adj_targets.len() - self.adj_dead;
        if self.adj_dead < 4096 || self.adj_dead < 2 * live {
            return;
        }
        let mut ts = std::mem::take(&mut self.compact_targets);
        let mut ws = std::mem::take(&mut self.compact_weights);
        ts.clear();
        ws.clear();
        ts.reserve(live);
        ws.reserve(live);
        for m in &mut self.adj {
            if m.len == 0 {
                m.start = 0;
                continue;
            }
            let (s, e) = (m.start as usize, (m.start + m.len) as usize);
            m.start = ts.len() as u32;
            ts.extend_from_slice(&self.adj_targets[s..e]);
            ws.extend_from_slice(&self.adj_weights[s..e]);
        }
        std::mem::swap(&mut self.adj_targets, &mut ts);
        std::mem::swap(&mut self.adj_weights, &mut ws);
        // keep the old arena buffers as the next compaction's scratch
        self.compact_targets = ts;
        self.compact_weights = ws;
        self.adj_dead = 0;
    }

    /// Incremental base-cache repair: drop retained edges blocked by rects
    /// newer than the cache, append newly logged stable nodes inside the
    /// cache's window that are visible. Every rect re-tested is charged as
    /// a sight test, like the grid walks of the appended nodes.
    ///
    /// Rebuild and repair decide candidates by the same rule
    /// ([`VisGraph::candidate`]) — a stable node is a candidate iff its
    /// Chebyshev distance from the cache's node is at most the recorded
    /// radius (**window membership**) and the segment between them is
    /// bitangent. An up-to-date cache therefore holds exactly the visible
    /// such nodes, whichever path brought it up to date.
    fn repair_base_cache(&mut self, ui: usize) {
        self.adj_repairs += 1;
        let upos = self.node_pos[ui];
        let m = self.adj[ui];
        let (start, len) = (m.start as usize, m.len as usize);
        let rect_from = Self::log_start(&self.rect_log, m.version);
        let new_start = if start + len == self.adj_targets.len() {
            start
        } else {
            // move the range to the arena tail so it can be filtered in
            // place and appended to; the old range becomes garbage
            self.adj_targets.extend_from_within(start..start + len);
            self.adj_weights.extend_from_within(start..start + len);
            self.adj_dead += len;
            self.adj_targets.len() - len
        };
        let mut w = new_start;
        let mut tests = 0;
        for r in new_start..new_start + len {
            let t = self.adj_targets[r];
            if self.edge_survives(upos, t, rect_from, &mut tests) {
                self.adj_targets[w] = t;
                self.adj_weights[w] = self.adj_weights[r];
                w += 1;
            }
        }
        self.grid.add_sight_tests(tests);
        self.adj_targets.truncate(w);
        self.adj_weights.truncate(w);
        for li in Self::log_start(&self.node_log, m.version)..self.node_log.len() {
            let (_, nid) = self.node_log[li];
            debug_assert!(self.node_alive[nid as usize], "logged stable node died");
            if let Some(vpos) = self.candidate(ui, nid, m.radius) {
                if !self.grid.blocks(upos, vpos) {
                    self.adj_targets.push(nid);
                    self.adj_weights.push(upos.dist(vpos));
                }
            }
        }
        let slot = &mut self.adj[ui];
        slot.version = self.base_version;
        slot.start = new_start as u32;
        slot.len = (self.adj_targets.len() - new_start) as u32;
    }

    /// True when a retained edge `u → target` is not blocked by any rect
    /// logged at or after `rect_from` (repair's incremental filter). Adds
    /// the rects it tested, up to the first blocker, to `tests`.
    fn edge_survives(&self, upos: Point, target: u32, rect_from: usize, tests: &mut u64) -> bool {
        if rect_from == self.rect_log.len() {
            return true;
        }
        let seg = Segment::new(upos, self.node_pos[target as usize]);
        !self.rect_log[rect_from..].iter().any(|(_, r)| {
            *tests += 1;
            r.blocks(&seg)
        })
    }

    /// The candidate rule of rebuild and repair: the position of stable
    /// node `vid` when it is live, not `ui` itself, inside the Chebyshev
    /// window `cheb ≤ radius` around `ui` (window membership; a rect can
    /// intersect a window while this corner lies outside it) and the edge
    /// is bitangent — a shortest path may leave `ui` along it and, arriving
    /// along it, bend at `vid`.
    #[inline]
    fn candidate(&self, ui: usize, vid: u32, radius: f64) -> Option<Point> {
        let vi = vid as usize;
        if vi == ui || !self.node_alive[vi] {
            return None;
        }
        let (upos, vpos) = (self.node_pos[ui], self.node_pos[vi]);
        let cheb = (vpos.x - upos.x).abs().max((vpos.y - upos.y).abs());
        (cheb <= radius
            && leaves_tangent(self.node_turn[ui], upos, vpos)
            && leaves_tangent(self.node_turn[vi], vpos, upos))
        .then_some(vpos)
    }

    /// Base-cache rebuild, complete up to `radius`: appends to the arena
    /// tail one edge per visible [`candidate`] of the window, **in
    /// candidate order** — so the CSR content is bit-identical whichever
    /// verdict path runs — and abandons the old range. Candidates come from
    /// the obstacle grid (corners of rectangles near the node) plus the
    /// endpoint list when `radius` is finite — cost proportional to the
    /// local density — and from a scan of every stable node when it is
    /// infinite.
    ///
    /// [`candidate`]: VisGraph::candidate
    fn rebuild_base_cache(&mut self, ui: usize, radius: f64) {
        self.retire_range(ui);
        let new_start = self.adj_targets.len();
        let (upos, turn) = (self.node_pos[ui], self.node_turn[ui]);
        let mut rect_ids = std::mem::take(&mut self.rect_scratch);
        let mut cand_ids = std::mem::take(&mut self.cand_ids);
        let mut cand_pos = std::mem::take(&mut self.cand_pos);
        cand_ids.clear();
        cand_pos.clear();
        if radius.is_finite() {
            let window = Rect::new(
                upos.x - radius,
                upos.y - radius,
                upos.x + radius,
                upos.y + radius,
            );
            self.grid.candidates_in_rect(&window, &mut rect_ids);
            let corners = rect_ids
                .iter()
                .flat_map(|&rid| self.rect_corners[rid as usize]);
            for vid in corners.chain(self.endpoints.iter().copied()) {
                if let Some(vpos) = self.candidate(ui, vid, radius) {
                    cand_ids.push(vid);
                    cand_pos.push(vpos);
                }
            }
        } else {
            // infinite radius: every obstacle can block, every stable node
            // is a candidate
            rect_ids.clear();
            rect_ids.extend(0..self.grid.len() as u32);
            for vid in 0..self.node_pos.len() as u32 {
                if self.node_kind[vid as usize] == NodeKind::DataPoint {
                    continue;
                }
                if let Some(vpos) = self.candidate(ui, vid, radius) {
                    cand_ids.push(vid);
                    cand_pos.push(vpos);
                }
            }
        }
        if self.sweep_mode.wants_sweep(cand_ids.len()) {
            // every candidate leaves `ui` along a tangent direction, so
            // only rectangles meeting those quadrants can block one
            rect_ids.retain(|&rid| {
                meets_tangent_quadrants(turn, upos, &self.grid.rects()[rid as usize])
            });
            let mut vis = std::mem::take(&mut self.cand_vis);
            vis.clear();
            self.grid
                .sweep_visibility(upos, &cand_pos, &rect_ids, &mut vis);
            for (j, &vid) in cand_ids.iter().enumerate() {
                if vis[j] {
                    self.adj_targets.push(vid);
                    self.adj_weights.push(upos.dist(cand_pos[j]));
                }
            }
            self.cand_vis = vis;
        } else {
            for (j, &vid) in cand_ids.iter().enumerate() {
                let vpos = cand_pos[j];
                if !self.grid.blocks(upos, vpos) {
                    self.adj_targets.push(vid);
                    self.adj_weights.push(upos.dist(vpos));
                }
            }
        }
        self.rect_scratch = rect_ids;
        self.cand_ids = cand_ids;
        self.cand_pos = cand_pos;
        let slot = &mut self.adj[ui];
        slot.version = self.base_version;
        slot.radius = radius;
        slot.start = new_start as u32;
        slot.len = (self.adj_targets.len() - new_start) as u32;
    }

    /// Grid access for visible-region computation.
    pub(crate) fn grid_mut(&mut self) -> &mut ObstacleGrid {
        &mut self.grid
    }

    /// Borrow-juggling helpers for the visible-region scratch buffers
    /// (candidate ids + their rects), so repeated visible-region calls
    /// allocate nothing.
    pub(crate) fn take_vr_ids(&mut self) -> Vec<u32> {
        std::mem::take(&mut self.vr_ids)
    }

    /// See [`VisGraph::take_vr_ids`].
    pub(crate) fn take_vr_rects(&mut self) -> Vec<Rect> {
        std::mem::take(&mut self.vr_rects)
    }

    /// Returns the visible-region scratch buffers after use.
    pub(crate) fn put_vr_scratch(&mut self, ids: Vec<u32>, rects: Vec<Rect>) {
        self.vr_ids = ids;
        self.vr_rects = rects;
    }

    /// The obstacle rectangles loaded since the last reset, in load order
    /// (ablation baselines iterate these).
    pub fn obstacles(&self) -> &[Rect] {
        self.grid.rects()
    }

    /// Sanitizer audit of every up-to-date base adjacency cache:
    ///
    /// * the corner lane agrees with the rectangle list: every corner of a
    ///   rectangle carries the sign of its position in the rectangle,
    ///   every point node carries none;
    /// * every cached edge points at a *live stable* node, with a finite
    ///   non-negative weight equal to the Euclidean distance between the
    ///   endpoints, is unblocked, and is tangent at **both** ends — at
    ///   every end that is an obstacle vertex, the segment lies along a
    ///   tangent direction re-derived here from the corner's index in the
    ///   rectangle it belongs to, not from the lane the rows were built
    ///   with;
    /// * rows are symmetric: when both endpoints hold an up-to-date cache,
    ///   an edge `u → v` inside `v`'s completeness radius must be mirrored
    ///   by `v → u`. (Caches are only *complete* up to their radius; edges
    ///   beyond the partner's radius are legitimate one-sided extras from
    ///   bounded rebuilds.)
    ///
    /// Called on [`VisGraph::reset`] (the query boundary) when the
    /// `sanitize-invariants` runtime switch is on; public so corrupted-
    /// fixture tests can invoke it directly.
    pub fn audit_adjacency(&self) {
        use conn_geom::sanitize;
        let ctx = "VisGraph adjacency";
        let fresh = |m: &AdjMeta| m.version == self.base_version && m.version != STALE;
        let range = |m: &AdjMeta| (m.start as usize, (m.start + m.len) as usize);
        // Some(true) at the (min, min) / (max, max) corners of a
        // rectangle, Some(false) at its other two, None for point nodes
        let mut on_diagonal: Vec<Option<bool>> = vec![None; self.node_pos.len()];
        for corners in &self.rect_corners {
            for (k, &c) in corners.iter().enumerate() {
                on_diagonal[c as usize] = Some(k % 2 == 0);
            }
        }
        // the two closed quadrants beside a corner's rectangle: second and
        // fourth at a diagonal corner, first and third at the others
        let tangent = |ui: usize, vi: usize| {
            let (u, v) = (self.node_pos[ui], self.node_pos[vi]);
            let (dx, dy) = (v.x - u.x, v.y - u.y);
            let along_a_wall = dx.abs() <= EPS || dy.abs() <= EPS;
            match on_diagonal[ui] {
                Some(true) => along_a_wall || dx * dy <= 0.0,
                Some(false) => along_a_wall || dx * dy >= 0.0,
                None => true,
            }
        };
        for (ui, corner) in on_diagonal.iter().enumerate() {
            let want = match corner {
                Some(true) => 1.0,
                Some(false) => -1.0,
                None => 0.0,
            };
            if self.node_alive[ui] && self.node_turn[ui] != want {
                sanitize::violation(
                    ctx,
                    &format!("node {ui} corner sign {} != {want}", self.node_turn[ui]),
                );
            }
        }
        for ui in 0..self.adj.len() {
            // Arena-structure check first: every retained range (fresh or
            // repairable) must lie inside the arena lanes.
            let (start, end) = range(&self.adj[ui]);
            if self.adj[ui].len > 0 && end > self.adj_targets.len() {
                sanitize::violation(
                    ctx,
                    &format!(
                        "slot {ui} range [{start}, {end}) escapes the arena (len {})",
                        self.adj_targets.len()
                    ),
                );
            }
            if ui >= self.node_pos.len() || !self.node_alive[ui] || !fresh(&self.adj[ui]) {
                continue;
            }
            let upos = self.node_pos[ui];
            for e in start..end {
                let v = self.adj_targets[e];
                let w = self.adj_weights[e];
                let vi = v as usize;
                if vi >= self.node_pos.len() || !self.node_alive[vi] {
                    sanitize::violation(ctx, &format!("edge {ui} -> {v} targets a dead node"));
                }
                if self.node_kind[vi] == NodeKind::DataPoint {
                    sanitize::violation(
                        ctx,
                        &format!("base cache of {ui} holds transient node {v}"),
                    );
                }
                sanitize::audit_distance(ctx, w);
                let d = upos.dist(self.node_pos[vi]);
                if (w - d).abs() > 1e-6 * d.max(1.0) {
                    sanitize::violation(
                        ctx,
                        &format!("edge {ui} -> {v} weight {w} != distance {d}"),
                    );
                }
                for (at, toward) in [(ui, vi), (vi, ui)] {
                    if !tangent(at, toward) {
                        sanitize::violation(ctx, &format!("edge {ui} -> {v} not tangent at {at}"));
                    }
                }
                let seg = Segment::new(upos, self.node_pos[vi]);
                let blocker = self.grid.rects().iter().position(|r| r.blocks(&seg));
                if let Some(gid) = blocker {
                    sanitize::violation(
                        ctx,
                        &format!("edge {ui} -> {v} blocked by obstacle {gid}"),
                    );
                }
                // Reciprocity, where the partner's cache promises coverage
                // of this distance.
                if self.node_kind[ui] != NodeKind::DataPoint && fresh(&self.adj[vi]) {
                    let (ps, pe) = range(&self.adj[vi]);
                    if d <= self.adj[vi].radius
                        && !self.adj_targets[ps..pe].iter().any(|&x| x as usize == ui)
                    {
                        sanitize::violation(
                            ctx,
                            &format!("edge {ui} -> {v} not mirrored within radius"),
                        );
                    }
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn graph() -> VisGraph {
        VisGraph::new(50.0)
    }

    /// The node's whole row.
    fn row(g: &mut VisGraph, u: NodeId) -> Vec<(u32, f64)> {
        let mut out = Vec::new();
        g.neighbors_into_ranged(u, &mut out, |_, _| true, f64::INFINITY);
        out
    }

    /// Do nodes `a` and `b` see each other past the local obstacle set
    /// (paper Def. 1)?
    fn sees(g: &mut VisGraph, a: NodeId, b: NodeId) -> bool {
        let (pa, pb) = (g.node_pos(a), g.node_pos(b));
        !g.grid.blocks(pa, pb)
    }

    #[test]
    fn empty_graph_everything_visible() {
        let mut g = graph();
        let a = g.add_point(Point::new(0.0, 0.0), NodeKind::Endpoint);
        let b = g.add_point(Point::new(100.0, 0.0), NodeKind::Endpoint);
        assert!(sees(&mut g, a, b));
        assert_eq!(row(&mut g, a), &[(b.0, 100.0)]);
    }

    #[test]
    fn obstacle_cuts_sight_line() {
        let mut g = graph();
        let a = g.add_point(Point::new(0.0, 50.0), NodeKind::Endpoint);
        let b = g.add_point(Point::new(200.0, 50.0), NodeKind::Endpoint);
        assert!(sees(&mut g, a, b));
        g.add_obstacle(Rect::new(90.0, 0.0, 110.0, 100.0));
        assert!(!sees(&mut g, a, b));
        // neighbors re-computed after version bump: a now sees the two left
        // corners of the obstacle but not b
        let ns: Vec<u32> = row(&mut g, a).iter().map(|e| e.0).collect();
        assert!(!ns.contains(&b.0));
        assert_eq!(ns.len(), 2, "two visible corners, got {ns:?}");
    }

    #[test]
    fn obstacle_vertices_become_nodes() {
        let mut g = graph();
        let corners = g.add_obstacle(Rect::new(10.0, 10.0, 20.0, 20.0));
        assert_eq!(g.num_nodes(), 4);
        for c in corners {
            assert_eq!(g.node_kind(c), NodeKind::ObstacleVertex);
        }
        // adjacent corners see each other along the wall
        assert!(sees(&mut g, corners[0], corners[1]));
        // diagonal corners are blocked by the interior
        assert!(!sees(&mut g, corners[0], corners[2]));
    }

    #[test]
    fn removal_frees_slot_and_hides_node() {
        let mut g = graph();
        let a = g.add_point(Point::new(0.0, 0.0), NodeKind::Endpoint);
        let p = g.add_point(Point::new(5.0, 5.0), NodeKind::DataPoint);
        assert_eq!(g.num_nodes(), 2);
        g.remove_node(p);
        assert_eq!(g.num_nodes(), 1);
        assert!(row(&mut g, a).is_empty());
        // slot reuse
        let p2 = g.add_point(Point::new(7.0, 7.0), NodeKind::DataPoint);
        assert_eq!(p2.0, p.0);
        assert_eq!(g.num_nodes(), 2);
        let ns = row(&mut g, a);
        assert_eq!(ns.len(), 1);
        assert!((ns[0].1 - Point::new(7.0, 7.0).dist(Point::new(0.0, 0.0))).abs() < 1e-12);
    }

    #[test]
    #[cfg(feature = "sanitize-invariants")]
    fn adjacency_audit_fires_on_corrupted_edge_weight() {
        let mut g = graph();
        let a = g.add_point(Point::new(0.0, 0.0), NodeKind::Endpoint);
        let b = g.add_point(Point::new(100.0, 0.0), NodeKind::Endpoint);
        assert_eq!(row(&mut g, a), &[(b.0, 100.0)]); // builds a's base cache
        g.audit_adjacency(); // intact graph passes

        let m = g.adj[a.0 as usize];
        assert!(m.len > 0, "fixture expects a cached edge");
        g.adj_weights[m.start as usize] += 17.0; // weight no longer the Euclidean distance
        assert!(
            std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| g.audit_adjacency())).is_err(),
            "audit must fire on a corrupted edge weight"
        );
    }

    #[test]
    #[cfg(feature = "sanitize-invariants")]
    fn adjacency_audit_fires_on_non_tangent_edge() {
        let mut g = graph();
        // seen from the rectangle's (max, max) corner, `beside` lies in a
        // quadrant next to the rectangle and `behind` in the one opposite
        // it: both visible, but no shortest path leaves the corner toward
        // `behind`
        let beside = g.add_point(Point::new(150.0, 50.0), NodeKind::Endpoint);
        let behind = g.add_point(Point::new(150.0, 150.0), NodeKind::Endpoint);
        let corner = g.add_obstacle(Rect::new(0.0, 0.0, 100.0, 100.0))[2];
        let edges: Vec<u32> = row(&mut g, corner).iter().map(|e| e.0).collect();
        assert!(edges.contains(&beside.0) && !edges.contains(&behind.0));
        g.audit_adjacency(); // intact graph passes

        let at = edges.iter().position(|&v| v == beside.0).unwrap();
        let e = g.adj[corner.index()].start as usize + at;
        g.adj_targets[e] = behind.0;
        g.adj_weights[e] = g.node_pos(corner).dist(g.node_pos(behind));
        assert!(
            std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| g.audit_adjacency())).is_err(),
            "audit must fire on a non-tangent edge in a corner's row"
        );
    }

    #[test]
    #[cfg(feature = "sanitize-invariants")]
    fn adjacency_audit_fires_on_non_tangent_arrival() {
        let mut g = graph();
        // `behind` sees three corners of the rectangle; a path arriving at
        // the (max, max) one from there cannot bend, so the row of a point
        // node — tangent in every direction at its own end — must leave
        // that corner out
        let behind = g.add_point(Point::new(150.0, 150.0), NodeKind::Endpoint);
        let corners = g.add_obstacle(Rect::new(0.0, 0.0, 100.0, 100.0));
        let edges: Vec<u32> = row(&mut g, behind).iter().map(|e| e.0).collect();
        assert!(edges.contains(&corners[1].0) && !edges.contains(&corners[2].0));
        g.audit_adjacency(); // intact graph passes

        let at = edges.iter().position(|&v| v == corners[1].0).unwrap();
        let e = g.adj[behind.index()].start as usize + at;
        g.adj_targets[e] = corners[2].0;
        g.adj_weights[e] = g.node_pos(behind).dist(g.node_pos(corners[2]));
        assert!(
            std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| g.audit_adjacency())).is_err(),
            "audit must fire on an edge that is not tangent where it arrives"
        );
    }

    #[test]
    fn reset_retains_slots_and_restarts_clean() {
        let mut g = graph();
        let a = g.add_point(Point::new(0.0, 50.0), NodeKind::Endpoint);
        let wall = Rect::new(90.0, 0.0, 110.0, 100.0);
        g.add_obstacle(wall);
        assert!(g.holds(&wall) && !g.holds(&Rect::new(90.0, 0.0, 110.0, 99.0)));
        let _ = row(&mut g, a); // populate a cache
        let v_before = g.version();
        let retained = g.reset();
        assert!(retained >= 1, "cached edge lists should be retained");
        assert_eq!(g.num_nodes(), 0);
        assert_eq!(g.num_obstacles(), 0);
        assert!(!g.holds(&wall), "a reset forgets what the graph held");
        assert!(g.version() > v_before, "version must stay monotone");
        // rebuild: slots are re-bound, stale caches are not served
        let a2 = g.add_point(Point::new(0.0, 50.0), NodeKind::Endpoint);
        let b2 = g.add_point(Point::new(200.0, 50.0), NodeKind::Endpoint);
        assert_eq!(a2.0, 0, "slot storage reused from the start");
        assert!(sees(&mut g, a2, b2));
        assert_eq!(row(&mut g, a2), &[(b2.0, 200.0)]);
    }

    /// A reset costs what the query just served used, not what the largest
    /// query this graph ever served left behind in `adj`.
    #[test]
    fn reset_touches_only_the_slots_in_use() {
        let mut g = graph();
        // a big query: 50 obstacles, 200 node slots
        for i in 0..50 {
            let x = 30.0 * i as f64;
            g.add_obstacle(Rect::new(x, 0.0, x + 10.0, 10.0));
        }
        g.reset();
        // a small one: five slots, one cached edge list
        let a = g.add_point(Point::new(0.0, 50.0), NodeKind::Endpoint);
        g.add_obstacle(Rect::new(90.0, 0.0, 110.0, 100.0));
        let _ = row(&mut g, a);
        // mark a slot only the big query ever used
        assert_eq!(g.adj[100].version, STALE, "rewound by the first reset");
        g.adj[100].radius = 7.0;
        assert_eq!(g.reset(), 1, "the small query's one cache");
        assert_eq!(g.adj[100].radius, 7.0, "reset walked past the slots in use");
        assert!(g.adj[..5].iter().all(|m| m.version == STALE && m.len == 0));
    }

    #[test]
    fn transient_points_do_not_invalidate_base_caches() {
        let mut g = graph();
        let a = g.add_point(Point::new(0.0, 50.0), NodeKind::Endpoint);
        let _b = g.add_point(Point::new(200.0, 50.0), NodeKind::Endpoint);
        g.add_obstacle(Rect::new(90.0, 0.0, 110.0, 100.0));
        let before: Vec<(u32, f64)> = row(&mut g, a);
        // transient churn must keep base edges identical and expose the
        // transient through the overlay
        let p = g.add_point(Point::new(10.0, 50.0), NodeKind::DataPoint);
        let with_p: Vec<(u32, f64)> = row(&mut g, a);
        assert!(with_p.iter().any(|e| e.0 == p.0), "overlay edge missing");
        g.remove_node(p);
        let after: Vec<(u32, f64)> = row(&mut g, a);
        assert_eq!(before, after);
        assert!(!after.iter().any(|e| e.0 == p.0));
    }

    /// A rebuild covers the request times 1.2, and at least two grid
    /// cells; a request inside the covered radius is a hit, one just
    /// outside it rebuilds. The property
    /// `radius_requests_straddling_the_growth_margin_keep_windows_correct`
    /// copies both numbers to aim its requests at the covered radius: a
    /// change to either must update it too.
    #[test]
    fn rebuild_radius_is_the_request_times_the_margin() {
        let mut g = VisGraph::new(60.0);
        let a = g.add_point(Point::new(0.0, 0.0), NodeKind::Endpoint);
        let request = |g: &mut VisGraph, radius: f64| {
            g.neighbors_into_ranged(a, &mut Vec::new(), |_, _| true, radius);
            g.adj[a.index()].radius
        };
        assert_eq!(request(&mut g, 50.0), 120.0, "floor of two cells");
        let covered = request(&mut g, 200.0);
        assert_eq!(covered, 200.0 * 1.2);
        assert_eq!(request(&mut g, covered * 0.999), covered, "a hit");
        assert_eq!(request(&mut g, covered), covered, "a hit on the boundary");
        assert_eq!(request(&mut g, covered * 1.001), covered * 1.001 * 1.2);
    }

    #[test]
    fn version_bumps_invalidate_caches() {
        let mut g = graph();
        let a = g.add_point(Point::new(0.0, 50.0), NodeKind::Endpoint);
        let b = g.add_point(Point::new(200.0, 50.0), NodeKind::Endpoint);
        assert_eq!(row(&mut g, a).len(), 1);
        let v1 = g.version();
        g.add_obstacle(Rect::new(90.0, 0.0, 110.0, 100.0));
        assert!(g.version() > v1);
        let ns: Vec<u32> = row(&mut g, a).iter().map(|e| e.0).collect();
        assert!(!ns.contains(&b.0), "stale edge survived");
    }
}
