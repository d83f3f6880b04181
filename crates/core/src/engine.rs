//! The reusable query engine and its workspace.
//!
//! The free functions ([`crate::conn_search`], [`crate::coknn_search`], …)
//! answer one query on fresh state: a new visibility graph, new Dijkstra
//! labels, a new visible-region cache. That is faithful to the paper but
//! wasteful for a server answering a stream of queries — every query pays
//! the same substrate allocations again.
//!
//! [`QueryEngine`] owns all of that per-query scratch state in a
//! [`Workspace`] behind reset-and-reuse APIs: answering N queries performs
//! O(1) substrate allocations instead of O(N). The engine is deliberately
//! `!Sync` — one engine serves one thread; the batch layer
//! ([`crate::conn_batch`]) and the persistent [`crate::EnginePool`] keep
//! one engine per worker slot (each slot mutex-owned, so the pool itself
//! is `Sync`) over the shared (immutable, `Sync`) R\*-trees.
//! [`crate::ConnService`] holds such a pool for its whole lifetime: warm
//! engines survive across queries, batches *and* epoch publishes, since
//! the reuse contract below never lets retained capacity leak answers
//! from one scene into another.
//!
//! ## Reuse contract
//!
//! Between queries, `Workspace::begin_query` **clears** all query-visible
//! state — the node set, the loaded obstacle set (graph and dedupe keys
//! together), the visible-region cache, the IOR loading threshold and all
//! Dijkstra labels — so a reused engine is *byte-identical* in its answers
//! to fresh per-query state (guarded by the `engine_equivalence` proptest
//! suite). Every family starts from that rewind, the point-anchored ones
//! included: they load what they need through [`crate::odist`] on this same
//! workspace, so no family leaves state behind that another would have to
//! detect and clear. It **keeps** heap allocations: node slots, per-slot
//! edge lists, grid cell buckets, Dijkstra label arrays and heap capacity,
//! and the result-list scratch buffers. The [`ReuseCounters`] on
//! [`QueryStats`] report how much retained capacity each query re-bound.

use std::time::Instant;

use conn_geom::{Rect, Segment};
use conn_index::RStarTree;
use conn_vgraph::{DijkstraEngine, VisGraph};

use crate::coknn::{CoknnResult, KnnResultList};
use crate::config::ConnConfig;
use crate::conn::{run_search, ConnResult, ResultSink};
use crate::cpl::VrCache;
use crate::ior::IorState;
use crate::odist::Resolver;
use crate::rlu::{ResultList, RluScratch};
use crate::single_tree::{OneTreeStreams, SpatialObject};
use crate::stats::{QueryStats, ReuseCounters};
use crate::streams::{LoadedObstacles, QueryStreams, TwoTreeStreams};
use crate::types::DataPoint;

/// All per-query scratch state, owned long-term and re-bound per query.
#[derive(Debug)]
pub struct Workspace {
    pub(crate) g: VisGraph,
    pub(crate) dij: DijkstraEngine,
    pub(crate) vr_cache: VrCache,
    pub(crate) ior_state: IorState,
    pub(crate) rlu_scratch: RluScratch,
    /// The tree obstacles `g` holds, for the point-anchored loader
    /// ([`crate::odist`]) to skip when its anchor moves within a query.
    pub(crate) loaded: LoadedObstacles,
    /// Set once the workspace has served a query (reuse is counted from the
    /// second query on).
    primed: bool,
    /// Reuse telemetry of the query in flight.
    current: ReuseCounters,
    heap_reuse_mark: u64,
    continuation_mark: u64,
    reseed_mark: u64,
    retarget_mark: u64,
    sight_mark: u64,
    sweep_mark: u64,
    invalidated_mark: u64,
    repair_mark: u64,
}

impl Default for Workspace {
    fn default() -> Self {
        Workspace::new(ConnConfig::default().vgraph_cell)
    }
}

impl Workspace {
    /// A workspace whose obstacle grid uses the given cell size.
    pub fn new(cell: f64) -> Self {
        Workspace {
            g: VisGraph::new(cell),
            dij: DijkstraEngine::default(),
            vr_cache: VrCache::default(),
            ior_state: IorState::default(),
            rlu_scratch: RluScratch::default(),
            loaded: LoadedObstacles::default(),
            primed: false,
            current: ReuseCounters::default(),
            heap_reuse_mark: 0,
            continuation_mark: 0,
            reseed_mark: 0,
            retarget_mark: 0,
            sight_mark: 0,
            sweep_mark: 0,
            invalidated_mark: 0,
            repair_mark: 0,
        }
    }

    /// Rewinds the workspace for a new query: clears all query-visible
    /// state, retains allocations, starts the reuse-counter window. The
    /// graph picks up `cfg`'s substrate tuning (cell size, sweep mode,
    /// growth margin) for the query.
    pub(crate) fn begin_query(&mut self, cfg: &ConnConfig) {
        let cell = cfg.vgraph_cell;
        self.current = ReuseCounters::default();
        if self.primed {
            self.current.graph_reuses = 1;
            self.current.nodes_retained = self.g.reset_with_cell(cell) as u64;
        } else if (self.g.grid_cell() - cell).abs() > f64::EPSILON {
            self.g = VisGraph::new(cell);
        }
        self.loaded.clear();
        cfg.tune_graph(&mut self.g);
        self.begin_window();
    }

    /// Rewinds the workspace for the next *leg* of a trajectory session:
    /// unlike [`Workspace::begin_query`] the visibility graph is kept —
    /// obstacle loads are monotone within a session, so every loaded
    /// rectangle (and every previous leg's endpoint node) stays valid. The
    /// visible-region cache and the IOR loading threshold are cleared
    /// because both are keyed to the goal segment, which changes per leg.
    pub(crate) fn begin_leg(&mut self, cfg: &ConnConfig) {
        self.current = ReuseCounters::default();
        self.current.graph_reuses = 1; // the graph survives, loaded
        self.current.nodes_retained = self.g.num_nodes() as u64;
        cfg.tune_graph(&mut self.g);
        self.begin_window();
    }

    /// Shared tail of [`Workspace::begin_query`] / [`Workspace::begin_leg`]:
    /// clears the goal-keyed caches and opens the reuse-counter window.
    /// Every query-visible `Workspace` field except the graph (which the
    /// two entry points treat differently) must be reset here.
    fn begin_window(&mut self) {
        self.primed = true;
        self.vr_cache.clear();
        self.ior_state = IorState::default();
        self.heap_reuse_mark = self.dij.reuses();
        self.continuation_mark = self.dij.continuations();
        self.reseed_mark = self.dij.reseeds();
        self.retarget_mark = self.dij.retargets();
        // the graph's sight-test and sweep-event counters are lifetime
        // counters (they survive workspace resets), so per-query
        // attribution is a window diff
        self.sight_mark = self.g.sight_tests();
        self.sweep_mark = self.g.sweep_events();
        self.invalidated_mark = self.dij.labels_invalidated();
        self.repair_mark = self.g.adjacency_repairs();
    }

    /// The point-anchored obstacle loader over this workspace (rewound by
    /// [`Workspace::begin_query`] first) and `tree`.
    pub(crate) fn resolver<'t>(
        &mut self,
        tree: &'t RStarTree<Rect>,
        cfg: &ConnConfig,
    ) -> Resolver<'_, 't> {
        Resolver::new(&mut self.g, &mut self.dij, &mut self.loaded, tree, cfg)
    }

    /// Closes the reuse-counter window of the current query.
    pub(crate) fn finish_query(&mut self) -> ReuseCounters {
        self.current.heap_reuses = self.dij.reuses() - self.heap_reuse_mark;
        self.current.label_continuations = self.dij.continuations() - self.continuation_mark;
        self.current.label_reseeds = self.dij.reseeds() - self.reseed_mark;
        self.current.label_retargets = self.dij.retargets() - self.retarget_mark;
        self.current.sight_tests = self.g.sight_tests() - self.sight_mark;
        self.current.sweep_events = self.g.sweep_events() - self.sweep_mark;
        self.current.labels_invalidated = self.dij.labels_invalidated() - self.invalidated_mark;
        self.current.adjacency_repairs = self.g.adjacency_repairs() - self.repair_mark;
        self.current
    }
}

/// A long-lived query engine: configuration plus a reusable [`Workspace`].
///
/// ```
/// use conn_core::{ConnConfig, DataPoint, QueryEngine};
/// use conn_geom::{Point, Rect, Segment};
/// use conn_index::RStarTree;
///
/// let points = RStarTree::bulk_load(
///     vec![DataPoint::new(0, Point::new(20.0, 60.0))],
///     4096,
/// );
/// let obstacles = RStarTree::bulk_load(vec![Rect::new(45.0, 30.0, 55.0, 70.0)], 4096);
/// let mut engine = QueryEngine::new(ConnConfig::default());
///
/// for x in [0.0, 10.0, 20.0] {
///     let q = Segment::new(Point::new(x, 0.0), Point::new(x + 100.0, 0.0));
///     let (result, stats) = engine.conn(&points, &obstacles, &q);
///     assert!(!result.entries().is_empty());
///     if x > 0.0 {
///         // from the second query on, the substrate is reused
///         assert_eq!(stats.reuse.graph_reuses, 1);
///     }
/// }
/// ```
#[derive(Debug)]
pub struct QueryEngine {
    cfg: ConnConfig,
    ws: Workspace,
}

impl Default for QueryEngine {
    fn default() -> Self {
        QueryEngine::new(ConnConfig::default())
    }
}

impl QueryEngine {
    /// An engine with a fresh workspace sized for `cfg`.
    pub fn new(cfg: ConnConfig) -> Self {
        QueryEngine {
            ws: Workspace::new(cfg.vgraph_cell),
            cfg,
        }
    }

    /// The configuration every query on this engine runs under.
    pub fn config(&self) -> &ConnConfig {
        &self.cfg
    }

    /// Swaps the engine's configuration for subsequent queries (the typed
    /// service applies per-query [`ConnConfig`] overrides this way). The
    /// workspace rewind at the next query start picks up the new grid cell
    /// size; retained allocations survive.
    pub fn set_config(&mut self, cfg: ConnConfig) {
        self.cfg = cfg;
    }

    /// CONN search (paper Algorithm 4) on the reused workspace. Tree I/O
    /// counters are reset at query start, exactly like
    /// [`crate::conn_search`].
    pub fn conn(
        &mut self,
        data_tree: &RStarTree<DataPoint>,
        obstacle_tree: &RStarTree<Rect>,
        q: &Segment,
    ) -> (ConnResult, QueryStats) {
        self.conn_impl(data_tree, obstacle_tree, q, true)
    }

    /// Like [`QueryEngine::conn`], but leaves the shared trees' I/O
    /// counters alone (batch workers pool tree I/O at the batch level; the
    /// returned per-query stats report zero I/O).
    pub fn conn_pooled_io(
        &mut self,
        data_tree: &RStarTree<DataPoint>,
        obstacle_tree: &RStarTree<Rect>,
        q: &Segment,
    ) -> (ConnResult, QueryStats) {
        self.conn_impl(data_tree, obstacle_tree, q, false)
    }

    /// The one shared query driver: runs Algorithm 4's loop over any
    /// stream source and result sink on the reused workspace, returning
    /// the filled sink plus assembled stats (I/O snapshots are layered on
    /// by the caller, since their source differs per tree layout).
    fn drive<S: QueryStreams, R: ResultSink>(
        &mut self,
        q: &Segment,
        mut streams: S,
        mut sink: R,
    ) -> (R, QueryStats) {
        assert!(!q.is_degenerate(), "degenerate query segment");
        // Query-boundary elapsed time for QueryStats; the kernel loop
        // below never reads the clock.
        let started = Instant::now(); // lint:allow(no-wallclock-in-kernels)
        let telemetry = run_search(&mut streams, q, &self.cfg, &mut sink, &mut self.ws);
        let stats = QueryStats {
            cpu: started.elapsed(),
            npe: telemetry.npe,
            noe: telemetry.noe,
            svg_nodes: telemetry.svg_nodes,
            result_tuples: sink.tuples(),
            reuse: self.ws.finish_query(),
            ..QueryStats::default()
        };
        (sink, stats)
    }

    fn conn_impl(
        &mut self,
        data_tree: &RStarTree<DataPoint>,
        obstacle_tree: &RStarTree<Rect>,
        q: &Segment,
        track_io: bool,
    ) -> (ConnResult, QueryStats) {
        if track_io {
            data_tree.reset_stats();
            obstacle_tree.reset_stats();
        }
        let streams = TwoTreeStreams::new(data_tree, obstacle_tree, q);
        let (list, mut stats) = self.drive(q, streams, ResultList::new(q.len()));
        if track_io {
            stats.data_io = data_tree.stats();
            stats.obstacle_io = obstacle_tree.stats();
        }
        (ConnResult::new(*q, list), stats)
    }

    /// COkNN search (paper §4.5) on the reused workspace.
    pub fn coknn(
        &mut self,
        data_tree: &RStarTree<DataPoint>,
        obstacle_tree: &RStarTree<Rect>,
        q: &Segment,
        k: usize,
    ) -> (CoknnResult, QueryStats) {
        self.coknn_impl(data_tree, obstacle_tree, q, k, true)
    }

    /// Pooled-I/O variant of [`QueryEngine::coknn`] for batch workers.
    pub fn coknn_pooled_io(
        &mut self,
        data_tree: &RStarTree<DataPoint>,
        obstacle_tree: &RStarTree<Rect>,
        q: &Segment,
        k: usize,
    ) -> (CoknnResult, QueryStats) {
        self.coknn_impl(data_tree, obstacle_tree, q, k, false)
    }

    fn coknn_impl(
        &mut self,
        data_tree: &RStarTree<DataPoint>,
        obstacle_tree: &RStarTree<Rect>,
        q: &Segment,
        k: usize,
        track_io: bool,
    ) -> (CoknnResult, QueryStats) {
        if track_io {
            data_tree.reset_stats();
            obstacle_tree.reset_stats();
        }
        let streams = TwoTreeStreams::new(data_tree, obstacle_tree, q);
        let (list, mut stats) = self.drive(q, streams, KnnResultList::new(q.len(), k));
        if track_io {
            stats.data_io = data_tree.stats();
            stats.obstacle_io = obstacle_tree.stats();
        }
        (CoknnResult::new(*q, list), stats)
    }

    /// CONN over a single unified R-tree (§4.5) on the reused workspace.
    pub fn conn_single_tree(
        &mut self,
        tree: &RStarTree<SpatialObject>,
        q: &Segment,
    ) -> (ConnResult, QueryStats) {
        tree.reset_stats();
        let streams = OneTreeStreams::new(tree, q);
        let (list, mut stats) = self.drive(q, streams, ResultList::new(q.len()));
        stats.data_io = tree.stats();
        (ConnResult::new(*q, list), stats)
    }

    /// COkNN over a single unified R-tree (§4.5) on the reused workspace.
    pub fn coknn_single_tree(
        &mut self,
        tree: &RStarTree<SpatialObject>,
        q: &Segment,
        k: usize,
    ) -> (CoknnResult, QueryStats) {
        tree.reset_stats();
        let streams = OneTreeStreams::new(tree, q);
        let (list, mut stats) = self.drive(q, streams, KnnResultList::new(q.len(), k));
        stats.data_io = tree.stats();
        (CoknnResult::new(*q, list), stats)
    }

    /// The workspace, for the family modules that drive it directly.
    pub(crate) fn workspace(&mut self) -> &mut Workspace {
        &mut self.ws
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::coknn::coknn_search;
    use crate::conn::conn_search;
    use conn_geom::Point;

    fn setup() -> (RStarTree<DataPoint>, RStarTree<Rect>, Vec<Segment>) {
        let points = vec![
            DataPoint::new(0, Point::new(10.0, 20.0)),
            DataPoint::new(1, Point::new(50.0, 8.0)),
            DataPoint::new(2, Point::new(90.0, 25.0)),
            DataPoint::new(3, Point::new(45.0, 60.0)),
        ];
        let obstacles = vec![
            Rect::new(30.0, 5.0, 40.0, 30.0),
            Rect::new(60.0, 10.0, 75.0, 18.0),
            Rect::new(20.0, 40.0, 60.0, 50.0),
        ];
        let queries = vec![
            Segment::new(Point::new(0.0, 0.0), Point::new(100.0, 0.0)),
            Segment::new(Point::new(0.0, 35.0), Point::new(100.0, 35.0)),
            Segment::new(Point::new(10.0, 70.0), Point::new(95.0, 2.0)),
        ];
        (
            RStarTree::bulk_load(points, 4096),
            RStarTree::bulk_load(obstacles, 4096),
            queries,
        )
    }

    fn assert_same_conn(a: &ConnResult, b: &ConnResult) {
        assert_eq!(a.entries().len(), b.entries().len());
        for (x, y) in a.entries().iter().zip(b.entries()) {
            assert_eq!(x.point.map(|p| p.id), y.point.map(|p| p.id));
            assert_eq!(x.interval.lo.to_bits(), y.interval.lo.to_bits());
            assert_eq!(x.interval.hi.to_bits(), y.interval.hi.to_bits());
        }
    }

    #[test]
    fn reused_engine_matches_free_functions() {
        let (dt, ot, queries) = setup();
        let cfg = ConnConfig::default();
        let mut engine = QueryEngine::new(cfg);
        for (i, q) in queries.iter().enumerate() {
            let (fresh, fresh_stats) = conn_search(&dt, &ot, q, &cfg);
            let (reused, stats) = engine.conn(&dt, &ot, q);
            assert_same_conn(&fresh, &reused);
            assert_eq!(stats.npe, fresh_stats.npe);
            assert_eq!(stats.noe, fresh_stats.noe);
            assert_eq!(stats.svg_nodes, fresh_stats.svg_nodes);
            assert_eq!(stats.reuse.graph_reuses, u64::from(i > 0));
            if i > 0 {
                assert!(stats.reuse.heap_reuses > 0, "no Dijkstra reuse recorded");
            }
        }
    }

    #[test]
    fn reused_engine_matches_coknn() {
        let (dt, ot, queries) = setup();
        let cfg = ConnConfig::default();
        let mut engine = QueryEngine::new(cfg);
        for q in &queries {
            for k in [1usize, 2, 3] {
                let (fresh, _) = coknn_search(&dt, &ot, q, k, &cfg);
                let (reused, _) = engine.coknn(&dt, &ot, q, k);
                assert_eq!(fresh.entries().len(), reused.entries().len());
                for (x, y) in fresh.entries().iter().zip(reused.entries()) {
                    assert_eq!(x.members.len(), y.members.len());
                    for (mx, my) in x.members.iter().zip(&y.members) {
                        assert_eq!(mx.point.id, my.point.id);
                        assert_eq!(mx.cp.base.to_bits(), my.cp.base.to_bits());
                    }
                    assert_eq!(x.interval.lo.to_bits(), y.interval.lo.to_bits());
                }
            }
        }
    }

    #[test]
    fn interleaved_query_kinds_stay_clean() {
        let (dt, ot, queries) = setup();
        let cfg = ConnConfig::default();
        let mut engine = QueryEngine::new(cfg);
        for q in &queries {
            let (c1, _) = engine.conn(&dt, &ot, q);
            let (d, _) = engine.obstructed_distance(&ot, q.a, q.b);
            assert!(d >= q.len() - 1e-9);
            let (k1, _) = engine.coknn(&dt, &ot, q, 2);
            let (c2, _) = conn_search(&dt, &ot, q, &cfg);
            assert_same_conn(&c1, &c2);
            k1.check_cover().unwrap();
        }
    }

    /// Satellite of the plane-sweep PR: forcing the sweep on and off must
    /// not change a single result bit, and the `sweep_events` counter must
    /// attribute the sweep's work to the query (and stay zero when off).
    #[test]
    fn sweep_mode_is_result_invariant_and_counted() {
        use conn_vgraph::SweepMode;
        let (dt, ot, queries) = setup();
        let mut on = QueryEngine::new(ConnConfig {
            sweep: SweepMode::Always,
            ..ConnConfig::default()
        });
        let mut off = QueryEngine::new(ConnConfig {
            sweep: SweepMode::Never,
            ..ConnConfig::default()
        });
        let mut on_events = 0u64;
        for q in &queries {
            let (a, sa) = on.conn(&dt, &ot, q);
            let (b, sb) = off.conn(&dt, &ot, q);
            assert_same_conn(&a, &b);
            assert_eq!(sb.reuse.sweep_events, 0, "sweep off must record no events");
            on_events += sa.reuse.sweep_events;
        }
        assert!(on_events > 0, "forced sweep recorded no events");
    }
}
