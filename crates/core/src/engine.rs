//! The reusable query engine and its workspace.
//!
//! The paper answers one query on fresh state: a new visibility graph, new
//! Dijkstra labels, a new visible-region cache. A server answering a stream
//! of queries would pay the same substrate allocations again per query.
//!
//! [`QueryEngine`] owns all of that per-query scratch state in a
//! [`Workspace`] behind reset-and-reuse APIs: answering N queries performs
//! O(1) substrate allocations instead of O(N). It is what
//! [`crate::ConnService`] runs every query on, and the direct entry point
//! for single-threaded figure and bench code and for the two families
//! without a [`crate::QueryKind`] (the single-tree layout of §4.5 and
//! [`QueryEngine::visible_knn`]). Its [`ConnConfig`] is fixed at
//! construction.
//!
//! The engine is deliberately `!Sync` — one engine serves one thread; the
//! persistent [`crate::EnginePool`] keeps one engine per worker slot (each
//! slot mutex-owned, so the pool itself is `Sync`) over the shared
//! (immutable, `Sync`) R\*-trees. The engine also owns what those trees do
//! not: the page meters (and their LRU buffers) that every tree traversal
//! of its queries is charged to, read off per query by the same counter
//! window that produces the [`ReuseCounters`]. [`crate::ConnService`] holds
//! such a pool for its whole lifetime: warm engines survive across queries,
//! batches *and* epoch publishes, since the reuse contract below never lets
//! retained capacity leak answers from one scene into another.
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
use conn_index::{IoMeter, Mbr, RStarTree, StatsSnapshot};
use conn_vgraph::{DijkstraEngine, VisGraph};

use crate::coknn::CoknnResult;
use crate::config::ConnConfig;
use crate::conn::{run_search, ConnResult};
use crate::cpl::VrCache;
use crate::ior::IorState;
use crate::odist::Resolver;
use crate::rlu::{KnnResultList, RluScratch};
use crate::single_tree::{OneTreeStreams, SpatialObject};
use crate::stats::{QueryStats, ReuseCounters};
use crate::streams::{LoadedObstacles, QueryStreams, SegmentStreams};
use crate::types::DataPoint;

/// The engine's page meters, one per tree role. They sit *beside* the
/// [`Workspace`] so that tree streams can hold them shared while a search
/// holds the workspace exclusively.
#[derive(Debug, Default)]
pub(crate) struct Meters {
    /// Point trees: the data tree, both point trees of a join, the unified
    /// tree of the single-tree layout.
    pub(crate) data: IoMeter,
    /// The obstacle tree.
    pub(crate) obstacle: IoMeter,
}

impl Meters {
    fn snapshot(&self) -> (StatsSnapshot, StatsSnapshot) {
        (self.data.snapshot(), self.obstacle.snapshot())
    }
}

/// All per-query scratch state, owned long-term and re-bound per query.
#[derive(Debug)]
pub(crate) struct Workspace {
    pub(crate) g: VisGraph,
    pub(crate) dij: DijkstraEngine,
    pub(crate) vr_cache: VrCache,
    pub(crate) ior_state: IorState,
    pub(crate) rlu_scratch: RluScratch,
    /// The tree obstacles `g` holds, for the segment stream and the
    /// point-anchored loader ([`crate::odist`]) to skip.
    pub(crate) loaded: LoadedObstacles,
    /// Set once the workspace has served a query (reuse is counted from the
    /// second query on).
    primed: bool,
    /// What the query in flight reused at its start (`graph_reuses`,
    /// `nodes_retained`).
    current: ReuseCounters,
    /// The lifetime counters and the engine's meters as they stood when
    /// the query's window opened.
    mark: ReuseCounters,
    io_mark: (StatsSnapshot, StatsSnapshot),
}

impl Workspace {
    /// A workspace whose visibility graph carries `cfg`'s substrate tuning
    /// (grid cell size, sweep mode) for every query it will serve.
    pub(crate) fn new(cfg: &ConnConfig) -> Self {
        let mut g = VisGraph::new(cfg.vgraph_cell);
        g.set_sweep_mode(cfg.sweep);
        Workspace {
            g,
            dij: DijkstraEngine::default(),
            vr_cache: VrCache::default(),
            ior_state: IorState::default(),
            rlu_scratch: RluScratch::default(),
            loaded: LoadedObstacles::default(),
            primed: false,
            current: ReuseCounters::default(),
            mark: ReuseCounters::default(),
            io_mark: Default::default(),
        }
    }

    /// Rewinds the workspace for a new query: clears all query-visible
    /// state, retains allocations, opens the counter window over the
    /// substrate and `io`.
    pub(crate) fn begin_query(&mut self, io: &Meters) {
        self.current = ReuseCounters::default();
        if self.primed {
            self.current.graph_reuses = 1;
            self.current.nodes_retained = self.g.reset() as u64;
        }
        self.loaded.clear();
        self.begin_window(io);
    }

    /// Rewinds the workspace for a standing CONN's warm re-run on the graph
    /// its segment kernel keeps ([`crate::live`]), the one caller: unlike
    /// [`Workspace::begin_query`] the visibility graph, its endpoint nodes
    /// and the loaded set are kept — the graph only ever holds real
    /// obstacles of the pinned scene (a kernel whose graph holds a removed
    /// one restarts through [`Workspace::begin_query`] instead). The
    /// visible-region cache and the IOR loading threshold are cleared like
    /// a fresh query's.
    pub(crate) fn begin_leg(&mut self, io: &Meters) {
        self.current = ReuseCounters::default();
        self.current.graph_reuses = 1; // the graph survives, loaded
        self.current.nodes_retained = self.g.num_nodes() as u64;
        self.begin_window(io);
    }

    /// Shared tail of [`Workspace::begin_query`] / [`Workspace::begin_leg`]:
    /// clears the goal-keyed caches and opens the counter window. Every
    /// query-visible `Workspace` field except the graph (which the two
    /// entry points treat differently) must be reset here.
    fn begin_window(&mut self, io: &Meters) {
        self.primed = true;
        self.vr_cache.clear();
        self.ior_state = IorState::default();
        self.mark = self.lifetime();
        self.io_mark = io.snapshot();
    }

    /// The substrate's lifetime counters (they survive workspace resets),
    /// so per-query attribution is a window diff.
    fn lifetime(&self) -> ReuseCounters {
        ReuseCounters {
            heap_reuses: self.dij.reuses(),
            label_continuations: self.dij.continuations(),
            sight_tests: self.g.sight_tests(),
            sweep_events: self.g.sweep_events(),
            adjacency_repairs: self.g.adjacency_repairs(),
            ..ReuseCounters::default()
        }
    }

    /// The point-anchored obstacle loader over this workspace (rewound by
    /// [`Workspace::begin_query`] first) and `tree`, charging `io`.
    pub(crate) fn resolver<'w>(
        &'w mut self,
        tree: &'w RStarTree<Rect>,
        cfg: &ConnConfig,
        io: &'w IoMeter,
    ) -> Resolver<'w> {
        Resolver::new(&mut self.g, &mut self.dij, &mut self.loaded, tree, cfg, io)
    }

    /// Closes the window of the current query: what the substrate counted
    /// and what `io` was charged since it opened. This is the one place a
    /// query's tree I/O enters its [`QueryStats`]; callers fill in the rest.
    pub(crate) fn finish_query(&mut self, io: &Meters) -> QueryStats {
        let mut reuse = self.lifetime().since(&self.mark);
        reuse.accumulate(&self.current);
        let (data, obstacle) = io.snapshot();
        QueryStats {
            data_io: data.since(&self.io_mark.0),
            obstacle_io: obstacle.since(&self.io_mark.1),
            reuse,
            ..QueryStats::default()
        }
    }
}

/// A long-lived query engine: a configuration fixed at construction, a
/// reusable workspace and the page meters every tree traversal of its
/// queries is charged to.
///
/// Each returned [`QueryStats`] carries exactly the tree I/O of its own
/// query — the meters are the engine's, not the trees', so engines running
/// concurrently over shared trees never see each other's reads. The meters
/// also own the LRU page buffers of Figure 12 (off by default; see
/// [`QueryEngine::set_buffer_pages`]).
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
///     assert!(stats.data_io.reads > 0 && stats.obstacle_io.reads > 0);
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
    io: Meters,
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
            ws: Workspace::new(&cfg),
            cfg,
            io: Meters::default(),
        }
    }

    /// The configuration every query on this engine runs under.
    pub fn config(&self) -> &ConnConfig {
        &self.cfg
    }

    /// Sizes the engine's LRU page buffers, in pages: `data` for the point
    /// trees' meter, `obstacle` for the obstacle tree's. 0 (the default)
    /// disables buffering: every logical read is a fault. Only the fault
    /// counts react to the buffers — Figure 12's experiment — and only
    /// queries run on *this* engine share them, so a buffered workload runs
    /// on one engine. Frames are keyed by tree identity, so a page of one
    /// tree never hits on a frame of another (another epoch, shard or join
    /// side) that happens to reuse the page id.
    pub fn set_buffer_pages(&mut self, data: usize, obstacle: usize) {
        self.io.data.set_buffer_pages(data);
        self.io.obstacle.set_buffer_pages(obstacle);
    }

    /// [`QueryEngine::set_buffer_pages`] in Figure 12's unit: `frac` of
    /// each tree's size in pages (`obstacle_tree` is `None` for the
    /// single-tree layout, whose unified tree is charged as the data tree).
    pub fn set_buffer_frac<T: Mbr + Clone>(
        &mut self,
        frac: f64,
        data_tree: &RStarTree<T>,
        obstacle_tree: Option<&RStarTree<Rect>>,
    ) {
        let pages = |n: usize| (n as f64 * frac).floor() as usize;
        self.set_buffer_pages(
            pages(data_tree.num_pages()),
            obstacle_tree.map_or(0, |t| pages(t.num_pages())),
        );
    }

    /// Drops every buffered page (capacities are kept): the next query
    /// starts cold.
    pub fn clear_buffers(&mut self) {
        self.io.data.clear_buffer();
        self.io.obstacle.clear_buffer();
    }

    /// CONN search (paper Algorithm 4) on the reused workspace: COkNN at
    /// `k = 1`.
    pub fn conn(
        &mut self,
        data_tree: &RStarTree<DataPoint>,
        obstacle_tree: &RStarTree<Rect>,
        q: &Segment,
    ) -> (ConnResult, QueryStats) {
        let (list, stats) = self.segment(data_tree, obstacle_tree, q, 1);
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
        let (list, stats) = self.segment(data_tree, obstacle_tree, q, k);
        (CoknnResult::new(*q, list), stats)
    }

    /// CONN over a single unified R-tree (§4.5) on the reused workspace;
    /// the unified tree's I/O is reported in `data_io`.
    pub fn conn_single_tree(
        &mut self,
        tree: &RStarTree<SpatialObject>,
        q: &Segment,
    ) -> (ConnResult, QueryStats) {
        let (list, stats) = self.drive(q, |io| OneTreeStreams::new(tree, q, &io.data), 1);
        (ConnResult::new(*q, list), stats)
    }

    /// COkNN over a single unified R-tree (§4.5) on the reused workspace.
    pub fn coknn_single_tree(
        &mut self,
        tree: &RStarTree<SpatialObject>,
        q: &Segment,
        k: usize,
    ) -> (CoknnResult, QueryStats) {
        let (list, stats) = self.drive(q, |io| OneTreeStreams::new(tree, q, &io.data), k);
        (CoknnResult::new(*q, list), stats)
    }

    /// [`QueryEngine::drive`] over the two trees. The segment stream dedupes
    /// against the workspace's own loaded set, lent to it for the query and
    /// emptied first, as [`Workspace::begin_query`] empties it.
    fn segment(
        &mut self,
        data_tree: &RStarTree<DataPoint>,
        obstacle_tree: &RStarTree<Rect>,
        q: &Segment,
        k: usize,
    ) -> (KnnResultList, QueryStats) {
        let mut loaded = std::mem::take(&mut self.ws.loaded);
        loaded.clear();
        let out = self.drive(
            q,
            |io| SegmentStreams::new(data_tree, obstacle_tree, q, io, &mut loaded),
            k,
        );
        self.ws.loaded = loaded;
        out
    }

    /// The one shared query driver: runs Algorithm 4's loop over any
    /// stream source (opened over the engine's meters) on the reused
    /// workspace, returning the filled `k`-list plus the query's stats.
    fn drive<'e, S: QueryStreams>(
        &'e mut self,
        q: &Segment,
        open: impl FnOnce(&'e Meters) -> S,
        k: usize,
    ) -> (KnnResultList, QueryStats) {
        assert!(!q.is_degenerate(), "degenerate query segment");
        let QueryEngine { cfg, ws, io } = self;
        let io: &'e Meters = io;
        #[expect(
            clippy::disallowed_methods,
            reason = "query-boundary elapsed time for QueryStats; the kernel loop below never reads the clock"
        )]
        let started = Instant::now();
        let mut list = KnnResultList::new(q.len(), k);
        let mut streams = open(io);
        let telemetry = run_search(&mut streams, q, cfg, &mut list, ws, io);
        let stats = QueryStats {
            cpu: started.elapsed(),
            npe: telemetry.npe,
            noe: telemetry.noe,
            svg_nodes: telemetry.svg_nodes,
            result_tuples: list.entries().len() as u64,
            ..ws.finish_query(io)
        };
        (list, stats)
    }

    /// The configuration, the workspace and the meters, for the family
    /// modules that drive them directly.
    pub(crate) fn parts(&mut self) -> (ConnConfig, &mut Workspace, &Meters) {
        (self.cfg, &mut self.ws, &self.io)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
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

    /// The reference a reused engine is held to is a fresh engine per
    /// query: bitwise the same answer, the same work and the same tree I/O.
    #[test]
    fn reused_engine_matches_free_functions() {
        let (dt, ot, queries) = setup();
        let mut engine = QueryEngine::default();
        for (i, q) in queries.iter().enumerate() {
            let (fresh, fresh_stats) = QueryEngine::default().conn(&dt, &ot, q);
            let (reused, stats) = engine.conn(&dt, &ot, q);
            assert_same_conn(&fresh, &reused);
            assert_eq!(stats.npe, fresh_stats.npe);
            assert_eq!(stats.noe, fresh_stats.noe);
            assert_eq!(stats.svg_nodes, fresh_stats.svg_nodes);
            assert_eq!(stats.data_io, fresh_stats.data_io);
            assert_eq!(stats.obstacle_io, fresh_stats.obstacle_io);
            assert_eq!(fresh_stats.reuse.graph_reuses, 0);
            assert_eq!(stats.reuse.graph_reuses, u64::from(i > 0));
            if i > 0 {
                assert!(stats.reuse.heap_reuses > 0, "no Dijkstra reuse recorded");
            }
        }
    }

    #[test]
    fn reused_engine_matches_coknn() {
        let (dt, ot, queries) = setup();
        let mut engine = QueryEngine::default();
        for q in &queries {
            for k in [1usize, 2, 3] {
                let (fresh, _) = QueryEngine::default().coknn(&dt, &ot, q, k);
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
        let mut engine = QueryEngine::default();
        for q in &queries {
            let (c1, _) = engine.conn(&dt, &ot, q);
            let (d, _) = engine.obstructed_distance(&ot, q.a, q.b);
            assert!(d >= q.len() - 1e-9);
            let (k1, _) = engine.coknn(&dt, &ot, q, 2);
            let (c2, _) = QueryEngine::default().conn(&dt, &ot, q);
            assert_same_conn(&c1, &c2);
            k1.check_cover().unwrap();
        }
    }

    /// Figure 12 on the engine-owned buffers: logical reads do not react,
    /// faults do, a cleared buffer is cold again — and a page of another
    /// tree (a fork reuses every page id) is never a hit.
    #[test]
    fn buffers_cut_faults_only_and_never_hit_across_trees() {
        let (dt, ot, queries) = setup();
        let q = &queries[0];
        let (_, unbuffered) = QueryEngine::default().conn(&dt, &ot, q);
        assert_eq!(unbuffered.faults(), unbuffered.reads());

        let mut engine = QueryEngine::default();
        engine.set_buffer_pages(16, 16);
        let (_, cold) = engine.conn(&dt, &ot, q);
        let (_, warm) = engine.conn(&dt, &ot, q);
        assert_eq!(cold.faults(), cold.reads(), "nothing buffered yet");
        assert_eq!(cold.data_io.reads, unbuffered.data_io.reads);
        assert_eq!(cold.obstacle_io.reads, unbuffered.obstacle_io.reads);
        assert_eq!(warm.reads(), cold.reads());
        assert_eq!(
            warm.faults(),
            0,
            "every page was brought in by the first run"
        );

        let (dt2, ot2) = (dt.fork(), ot.fork());
        let (_, other) = engine.conn(&dt2, &ot2, q);
        assert_eq!(
            other.faults(),
            other.reads(),
            "a fork starts cold: no frame of its twin is a hit"
        );
        let (_, back) = engine.conn(&dt, &ot, q);
        assert_eq!(back.faults(), 0, "both trees' frames fit side by side");

        engine.clear_buffers();
        let (_, cleared) = engine.conn(&dt, &ot, q);
        assert_eq!(cleared.faults(), cleared.reads());
        engine.set_buffer_pages(0, 0);
        let (_, off) = engine.conn(&dt, &ot, q);
        assert_eq!(off.faults(), off.reads());
    }

    /// The shared artifacts are shareable, the engine moves between
    /// threads but is one thread's at a time.
    #[test]
    fn trees_are_sync_and_engines_are_send() {
        fn assert_send_sync<T: Send + Sync>() {}
        fn assert_send<T: Send>() {}
        assert_send_sync::<RStarTree<DataPoint>>();
        assert_send_sync::<RStarTree<SpatialObject>>();
        assert_send::<QueryEngine>();
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
