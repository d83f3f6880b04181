//! The serving front door: [`Scene`] owns the indexed world, a
//! [`ConnService`] executes typed [`Query`] values against it.
//!
//! This is the one interface every query family is driven through — the
//! way a database exposes a single query interface over many plans:
//!
//! * [`Scene`] builds (or borrows, or shares) the data and obstacle
//!   R\*-trees;
//! * [`ConnService::execute`] answers one validated [`Query`] of *any*
//!   family on a warm engine from the service's persistent
//!   [`EnginePool`], with answers byte-identical to a fresh
//!   [`QueryEngine`]'s (the `service_equivalence` suite enforces it);
//! * the service is `Send + Sync`: independent client threads call
//!   [`ConnService::execute`] concurrently, each against the scene epoch it pins at
//!   query start ([`ConnService::pin`]), while a writer publishes whole
//!   replacement scenes ([`ConnService::publish`]) without blocking
//!   readers (`epoch.rs`);
//! * [`ConnService::execute_batch_threads`] is the one batch path: it
//!   schedules a workload of any mix of families across the same engine
//!   pool and sums the responses' stats into one [`BatchStats`];
//! * a lone [`ConnService::execute`] of a trajectory fans its legs out
//!   over the pool's workers and stitches them in leg order. Only that
//!   call fans out: it holds no pool slot, and its thread would otherwise
//!   idle. The batch path, the admission pump and standing re-runs keep
//!   every worker busy with whole queries and run a route's legs one
//!   after another on the engine they hold — a worker that holds a slot
//!   never waits on another;
//! * [`ConnService::sharded`] tiles giant scenes spatially
//!   (`shard.rs`): queries whose expansion bound fits one tile's
//!   coverage run on that shard alone, the rest fall back to the full
//!   scene (never a min-merge — see the shard module docs for why);
//! * streaming trajectory sessions hang off the pinned epoch
//!   ([`crate::SceneEpoch::open_session`]), so a session keeps its
//!   snapshot alive across legs however many epochs publish meanwhile.

use std::sync::Arc;
use std::time::Instant;

use conn_geom::{Rect, Segment};
use conn_index::{RStarTree, DEFAULT_PAGE_SIZE};

use crate::batch::BatchStats;
use crate::coknn::CoknnResult;
use crate::config::ConnConfig;
use crate::conn::ConnResult;
use crate::engine::QueryEngine;
use crate::epoch::{EpochCell, PinnedEpoch, SceneEpoch};
use crate::error::Error;
use crate::live::{PatchReport, SceneDelta, StandingHandle, StandingRegistry};
use crate::pool::EnginePool;
use crate::query::{Answer, Query, QueryKind, Response};
use crate::shard::{ShardSet, ShardSpec};
use crate::stats::{QueryStats, ReuseCounters};
use crate::trajectory::{stitch_leg, Trajectory, TrajectoryResult};
use crate::types::DataPoint;

/// One R\*-tree: owned by the scene, borrowed from the caller, or shared
/// (`Arc`) with a live-mutation front end that structurally shares
/// untouched trees across derived epochs.
#[derive(Debug)]
enum TreeSlot<'a, T> {
    Owned(RStarTree<T>),
    Borrowed(&'a RStarTree<T>),
    Shared(Arc<RStarTree<T>>),
}

impl<T> TreeSlot<'_, T> {
    fn tree(&self) -> &RStarTree<T> {
        match self {
            TreeSlot::Owned(t) => t,
            TreeSlot::Borrowed(t) => t,
            TreeSlot::Shared(t) => t,
        }
    }
}

/// The indexed world every query family runs against: the data-point and
/// obstacle R\*-trees.
///
/// Build it from raw vecs ([`Scene::new`]), borrow trees in place
/// ([`Scene::borrowing`] — zero-copy, for callers that keep the trees), or
/// share them by `Arc` ([`Scene::shared`]).
#[derive(Debug)]
pub struct Scene<'a> {
    data: TreeSlot<'a, DataPoint>,
    obstacles: TreeSlot<'a, Rect>,
}

impl Scene<'static> {
    /// Indexes `points` and `obstacles` in owned R\*-trees with the
    /// default 4 KB page size.
    pub fn new(points: Vec<DataPoint>, obstacles: Vec<Rect>) -> Self {
        Scene {
            data: TreeSlot::Owned(RStarTree::bulk_load(points, DEFAULT_PAGE_SIZE)),
            obstacles: TreeSlot::Owned(RStarTree::bulk_load(obstacles, DEFAULT_PAGE_SIZE)),
        }
    }

    /// Wraps shared trees — the cheap-derived-epoch path of
    /// [`crate::LiveScene`]: a mutation forks only the touched tree and
    /// republish shares the untouched one by `Arc`, so publication cost is
    /// proportional to what changed, not to the scene.
    pub fn shared(
        data_tree: Arc<RStarTree<DataPoint>>,
        obstacle_tree: Arc<RStarTree<Rect>>,
    ) -> Self {
        Scene {
            data: TreeSlot::Shared(data_tree),
            obstacles: TreeSlot::Shared(obstacle_tree),
        }
    }
}

impl<'a> Scene<'a> {
    /// Borrows trees in place — no copy, the scene lives as long as the
    /// borrow.
    pub fn borrowing(
        data_tree: &'a RStarTree<DataPoint>,
        obstacle_tree: &'a RStarTree<Rect>,
    ) -> Scene<'a> {
        Scene {
            data: TreeSlot::Borrowed(data_tree),
            obstacles: TreeSlot::Borrowed(obstacle_tree),
        }
    }

    /// The data-point tree.
    pub fn data_tree(&self) -> &RStarTree<DataPoint> {
        self.data.tree()
    }

    /// The obstacle tree.
    pub fn obstacle_tree(&self) -> &RStarTree<Rect> {
        self.obstacles.tree()
    }

    /// Number of data points in the scene.
    pub fn num_points(&self) -> usize {
        self.data_tree().len()
    }

    /// Number of obstacles in the scene.
    pub fn num_obstacles(&self) -> usize {
        self.obstacle_tree().len()
    }

    /// All obstacles, collected from the tree (an accessor for callers and
    /// oracles that want the flat list; no query path reads it).
    pub fn obstacles(&self) -> Vec<Rect> {
        self.obstacle_tree().iter_items().copied().collect()
    }
}

/// The unified execution handle: one typed front door for every query
/// family over epoch-published [`Scene`]s.
///
/// The service is `Send + Sync` end to end: every call pins the current
/// [`SceneEpoch`] (an `Arc` snapshot — see [`ConnService::pin`]), borrows
/// a warm engine from the persistent [`EnginePool`], and runs entirely
/// against that snapshot. Writers swap in whole replacement scenes with
/// [`ConnService::publish`]; a published-over epoch stays alive until its
/// last pinned reader drops, so mid-query publications can never tear an
/// answer. There is no interior mutability in this type beyond the
/// publication slot, the pool locks and the standing-query registry's
/// lock (clippy's `disallowed_types` keeps it that way: each lock carries
/// an `#[expect]` naming its critical section).
///
/// ```
/// use conn_core::{ConnService, DataPoint, Query, Scene};
/// use conn_geom::{Point, Rect, Segment};
///
/// let scene = Scene::new(
///     vec![
///         DataPoint::new(0, Point::new(20.0, 60.0)),
///         DataPoint::new(1, Point::new(80.0, 60.0)),
///     ],
///     vec![Rect::new(45.0, 30.0, 55.0, 70.0)],
/// );
/// let service = ConnService::new(scene);
///
/// let q = Segment::new(Point::new(0.0, 0.0), Point::new(100.0, 0.0));
/// let response = service.execute(&Query::conn(q).build()?)?;
/// let conn = response.answer.as_conn().expect("conn answer");
/// assert!(!conn.entries().is_empty());
/// assert!(response.stats.npe >= 1);
///
/// // …a mixed-family batch through the same handle:
/// let batch = vec![
///     Query::conn(q).build()?,
///     Query::coknn(q, 2).build()?,
///     Query::onn(Point::new(50.0, 0.0), 1).build()?,
///     Query::odist(Point::new(0.0, 0.0), Point::new(100.0, 0.0)).build()?,
/// ];
/// let (responses, stats) = service.execute_batch_threads(&batch, 0)?;
/// assert_eq!(responses.len(), 4);
/// assert_eq!(stats.queries, 4);
///
/// // …and a whole-scene update published under running readers:
/// let pin = service.pin();
/// let epoch = service.publish(Scene::new(
///     vec![DataPoint::new(2, Point::new(50.0, 10.0))],
///     vec![],
/// ));
/// assert_eq!(epoch, 1);
/// assert_eq!(pin.epoch(), 0); // the pinned snapshot is unaffected
/// # Ok::<(), conn_core::Error>(())
/// ```
#[derive(Debug)]
pub struct ConnService<'a> {
    cfg: ConnConfig,
    epochs: EpochCell<'a>,
    pool: EnginePool,
    shard_spec: Option<ShardSpec>,
    /// Standing queries kept resident and patched per scene delta (see
    /// [`crate::live`], which owns and justifies the registry's lock: held
    /// per registry operation, never across an epoch build).
    standing: StandingRegistry,
}

impl<'a> ConnService<'a> {
    /// A service over `scene` with the default configuration.
    pub fn new(scene: Scene<'a>) -> Self {
        ConnService::with_config(scene, ConnConfig::default())
    }

    /// A service over `scene` with an explicit [`ConnConfig`], which every
    /// query it executes runs under.
    pub fn with_config(scene: Scene<'a>, cfg: ConnConfig) -> Self {
        ConnService::build(scene, cfg, None)
    }

    /// A spatially sharded service: the scene (and every scene published
    /// later) is tiled per `spec`; point- and segment-anchored queries
    /// whose expansion bound fits one tile's coverage are answered on
    /// that shard alone ([`ReuseCounters::shard_local`]), the rest fall
    /// back to the full scene ([`ReuseCounters::shard_merges`]). Answers
    /// are equivalent to the unsharded service (proptest-pinned at 1e-6;
    /// split positions may differ by Dijkstra tie-break ULPs on the
    /// rebuilt shard trees).
    pub fn sharded(scene: Scene<'a>, cfg: ConnConfig, spec: ShardSpec) -> Self {
        ConnService::build(scene, cfg, Some(spec))
    }

    fn build(scene: Scene<'a>, cfg: ConnConfig, shard_spec: Option<ShardSpec>) -> Self {
        ConnService {
            cfg,
            epochs: EpochCell::new(scene, shard_spec),
            pool: EnginePool::new(cfg),
            shard_spec,
            standing: StandingRegistry::default(),
        }
    }

    /// Pins the currently published scene epoch: a cheap `Arc` clone
    /// every query in flight runs against. The snapshot stays fully
    /// alive — trees and shards — until the last pin drops,
    /// however many epochs publish in the meantime.
    pub fn pin(&self) -> PinnedEpoch<'a> {
        self.epochs.pin()
    }

    /// Publishes `scene` as the next epoch (sharded per the service's
    /// [`ShardSpec`] if any) and returns its number. Readers pinned to
    /// older epochs are unaffected; new pins see the new scene.
    pub fn publish(&self, scene: Scene<'a>) -> u64 {
        self.epochs.publish(scene, self.shard_spec)
    }

    /// The number of the currently published epoch (0 at construction).
    pub fn current_epoch(&self) -> u64 {
        self.epochs.current_epoch()
    }

    /// How many published-over epochs have been fully released (their
    /// last pin dropped) — the deferred-retirement ledger.
    pub fn epochs_retired(&self) -> u64 {
        self.epochs.retired()
    }

    /// Epochs still alive: the current one plus every published-over epoch
    /// a reader still pins. Balances the ledger —
    /// `epochs_live() == current_epoch() + 1 - epochs_retired()` (epoch
    /// numbering starts at 0).
    pub fn epochs_live(&self) -> u64 {
        self.epochs.live()
    }

    /// Registers a standing query: executes it once against the current
    /// epoch and keeps the result resident. Every
    /// [`ConnService::publish_delta`] then patches the resident answer —
    /// kept untouched when the delta falls outside the query's certificate
    /// region, tuple-patched when an ONN/range list can absorb a site
    /// insertion, recomputed otherwise. Read the live answer back with
    /// [`ConnService::standing`].
    pub fn register(&self, query: Query) -> Result<StandingHandle, Error> {
        let pin = self.pin();
        self.standing
            .register(&pin, &self.cfg, query, |q| self.execute_at(&pin, q))
    }

    /// The resident answer of a standing query (`None` after
    /// [`ConnService::unregister`], or for a foreign handle).
    pub fn standing(&self, handle: &StandingHandle) -> Option<Answer> {
        self.standing.answer(handle)
    }

    /// The standing-query registry, for tests that inspect its entries.
    #[cfg(test)]
    pub(crate) fn standing_registry(&self) -> &StandingRegistry {
        &self.standing
    }

    /// Number of standing queries currently resident.
    pub fn standing_count(&self) -> usize {
        self.standing.len()
    }

    /// Drops a standing query; true when the handle was resident.
    pub fn unregister(&self, handle: StandingHandle) -> bool {
        self.standing.unregister(handle)
    }

    /// Publishes `scene` as the next epoch *as a known single-mutation
    /// delta*, then patches every standing query against the new epoch
    /// (see [`ConnService::register`]). This is the live-scene publication
    /// path ([`crate::LiveScene`] drives it); compared to
    /// [`ConnService::publish`] + re-running every standing query, deltas
    /// outside a query's certificate region cost nothing.
    pub fn publish_delta(&self, scene: Scene<'a>, delta: &SceneDelta) -> (u64, PatchReport) {
        let epoch = self.epochs.publish(scene, self.shard_spec);
        let pin = self.pin();
        let cfg = self.cfg;
        // apply() returns the patch work's pooled QueryStats (with
        // `delta_publishes = 1`), which with_engine folds into the pool's
        // lifetime totals.
        let (report, _stats) = self
            .pool
            .with_engine(|engine| self.standing.apply(engine, &pin, &cfg, delta));
        (epoch, report)
    }

    /// The configuration every query of this service runs under.
    pub fn config(&self) -> &ConnConfig {
        &self.cfg
    }

    /// The tiling of this service, if it was built with
    /// [`ConnService::sharded`].
    pub fn shard_spec(&self) -> Option<&ShardSpec> {
        self.shard_spec.as_ref()
    }

    /// Lifetime reuse-counter totals across the engine pool — the
    /// race-free aggregate of every query this service has served,
    /// serial and batch (`sight_tests`, `sweep_events`, `shard_local`,
    /// …).
    pub fn reuse_totals(&self) -> ReuseCounters {
        self.pool.reuse_totals()
    }

    /// Answers one query of any family against the *current* epoch on a
    /// warm pool engine. Answers are byte-identical to a fresh
    /// [`QueryEngine`]'s. The response's stats carry exactly this
    /// query's tree I/O — page reads are charged to the meters of the
    /// engine that ran it, never to the shared trees, so concurrent
    /// executes and batches cannot disturb each other's counts.
    ///
    /// Note on empty scenes: a scene with no data points (or no
    /// obstacles) is *legal* — CONN reports an unassigned cover, the
    /// point families report empty answers. Only the emptiness a [`Query`]
    /// itself can see (the join families' `other` set) is rejected at
    /// build time.
    pub fn execute(&self, query: &Query) -> Result<Response, Error> {
        self.execute_at(&self.pin(), query)
    }

    /// [`ConnService::execute`] against an explicitly pinned epoch — the
    /// snapshot-isolation primitive: every read of this call sees `pin`'s
    /// scene, whatever publishes concurrently.
    ///
    /// A [`Query::trajectory`] runs its legs on the pool's idle workers
    /// (`EnginePool::run`, the batch path's worker loop and worker
    /// count) and stitches them in leg order, bit-identical to the serial
    /// leg loop every other path runs. Its `stats.cpu` is the sum of its
    /// legs' times, so it can exceed the call's wall time. The fan-out
    /// waits on pool slots, so a caller must not hold one: this is called
    /// only from client threads (`execute`, `register`), never from code
    /// running on a pool engine.
    pub fn execute_at(&self, pin: &PinnedEpoch<'a>, query: &Query) -> Result<Response, Error> {
        let (answer, stats) = match query.kind() {
            QueryKind::Trajectory { route, k } => {
                let legs: Vec<Segment> = (0..route.num_legs()).map(|i| route.leg(i)).collect();
                let (answers, _, per_leg) = self.pool.run(&legs, 0, |engine, leg| {
                    run_leg(engine, pin.scene(), leg, *k)
                });
                assemble_trajectory(route, *k, answers.into_iter().zip(per_leg))
            }
            _ => self
                .pool
                .with_engine(|engine| shard_dispatch(engine, pin, query)),
        };
        Ok(Response { answer, stats })
    }

    /// Answers a **mixed-family** workload across the persistent engine
    /// pool on `threads` workers (`0` = available parallelism). Responses
    /// come back in workload order, each with the same stats — tree I/O
    /// included, a join's caller-owned `other` tree too —
    /// [`ConnService::execute`] reports for that query;
    /// [`BatchStats::pooled`] is their sum. The whole batch pins one epoch
    /// up front, so every query of the batch sees the same scene whatever
    /// publishes mid-flight.
    pub fn execute_batch_threads(
        &self,
        queries: &[Query],
        threads: usize,
    ) -> Result<(Vec<Response>, BatchStats), Error> {
        let pin = self.pin();
        #[expect(
            clippy::disallowed_methods,
            reason = "batch-boundary wall time for BatchStats, not kernel-side timing"
        )]
        let started = Instant::now();
        let (answers, threads, per_query) = self.pool.run(queries, threads, |engine, q| {
            shard_dispatch(engine, &pin, q)
        });
        let stats = BatchStats::new(threads, started.elapsed(), &per_query);
        let responses = answers
            .into_iter()
            .zip(per_query)
            .map(|(answer, stats)| Response { answer, stats })
            .collect();
        Ok((responses, stats))
    }

    /// Serves queries pulled one at a time off `next` on `threads` pool
    /// workers, each against the epoch current when its worker starts it,
    /// and hands each response to `done` with its token as the query ends.
    pub(crate) fn serve<T>(
        &self,
        threads: usize,
        next: impl Fn() -> Option<(Query, T)> + Sync,
        done: impl Fn(T, Response) + Sync,
    ) {
        self.pool.serve(threads, next, |engine, (query, token)| {
            let (answer, stats) = shard_dispatch(engine, &self.pin(), &query);
            done(token, Response { answer, stats });
            stats
        });
    }
}

/// Shard-aware wrapper around [`dispatch`]: on sharded epochs, routes
/// point/segment-anchored families to their home shard and serves from it
/// when the locality certificate holds; everything else (and every
/// straddling query) runs against the full scene.
fn shard_dispatch(
    engine: &mut QueryEngine,
    epoch: &SceneEpoch<'_>,
    query: &Query,
) -> (Answer, QueryStats) {
    if let Some(shards) = epoch.shards() {
        match try_shard(engine, shards, query) {
            ShardOutcome::Served(answer, mut stats) => {
                stats.reuse.shard_local = 1;
                return (answer, *stats);
            }
            ShardOutcome::Straddles => {
                let (answer, mut stats) = dispatch(engine, epoch.scene(), query);
                stats.reuse.shard_merges = 1;
                return (answer, stats);
            }
            ShardOutcome::NotShardable => {}
        }
    }
    dispatch(engine, epoch.scene(), query)
}

/// Outcome of a shard-local attempt.
enum ShardOutcome {
    /// The certificate held: the shard answer is the full-scene answer.
    Served(Answer, Box<QueryStats>),
    /// The expansion bound straddled the coverage margin (or the shard
    /// could not bound it); the attempt is discarded and the caller runs
    /// the full scene. Discarded-attempt stats are dropped — the final
    /// [`QueryStats`] describe the run that produced the answer.
    Straddles,
    /// The family has no local expansion bound (joins, reverse NN,
    /// point-to-point distance, trajectories): always full-scene.
    NotShardable,
}

/// Runs the query on its home shard if the family supports a locality
/// certificate (see [`crate::shard`] for the soundness argument).
fn try_shard(engine: &mut QueryEngine, shards: &ShardSet, query: &Query) -> ShardOutcome {
    let anchor = match query.kind() {
        QueryKind::Conn { q } | QueryKind::Coknn { q, .. } => Rect::from_segment(q),
        QueryKind::Onn { s, .. } | QueryKind::Range { s, .. } => Rect::from_point(*s),
        _ => return ShardOutcome::NotShardable,
    };
    let Some(shard) = shards.route(&anchor) else {
        return ShardOutcome::Straddles;
    };
    let (dt, ot) = (shard.data_tree(), shard.obstacle_tree());
    // the answer on the shard, and the expansion bound it turned out to need
    let (answer, stats, dmax) = match query.kind() {
        QueryKind::Conn { q } => {
            let (res, stats) = engine.conn(dt, ot, q);
            let dmax = conn_dmax(&res, q);
            (Answer::Conn(res), stats, dmax)
        }
        QueryKind::Coknn { q, k } => {
            let (res, stats) = engine.coknn(dt, ot, q, *k);
            let dmax = coknn_dmax(&res, q, *k);
            (Answer::Coknn(res), stats, dmax)
        }
        QueryKind::Onn { s, k } => {
            let (v, stats) = engine.onn(dt, ot, *s, *k);
            let dmax = onn_dmax(&v, *k);
            (Answer::Onn(v), stats, dmax)
        }
        // The radius *is* the expansion bound, so the certificate is
        // decidable before running anything.
        QueryKind::Range { s, radius } if shard.certifies(&anchor, *radius) => {
            let (v, stats) = engine.range(dt, ot, *s, *radius);
            (Answer::Range(v), stats, Some(*radius))
        }
        _ => return ShardOutcome::Straddles,
    };
    match dmax {
        Some(dmax) if shard.certifies(&anchor, dmax) => {
            ShardOutcome::Served(answer, Box::new(stats))
        }
        _ => ShardOutcome::Straddles,
    }
}

/// Largest distance a CONN answer reports anywhere on the segment: per
/// entry, `d(t) = base + |cp − q(t)|` is convex in `t`, so the maximum
/// over the entry's interval is at an endpoint. `None` when any stretch
/// is unassigned (the shard saw no candidate — the full scene might).
pub(crate) fn conn_dmax(res: &ConnResult, q: &Segment) -> Option<f64> {
    if res.entries().is_empty() {
        return None;
    }
    let mut dmax = 0.0f64;
    for e in res.entries() {
        e.point?;
        let cp = e.cp?;
        for t in [e.interval.lo, e.interval.hi] {
            dmax = dmax.max(cp.base + cp.pos.dist(q.at(t)));
        }
    }
    Some(dmax)
}

/// Largest distance any of the k members reports anywhere on the segment
/// (`None` when any stretch has fewer than `k` members in the shard).
pub(crate) fn coknn_dmax(res: &CoknnResult, q: &Segment, k: usize) -> Option<f64> {
    if res.entries().is_empty() {
        return None;
    }
    let mut dmax = 0.0f64;
    for e in res.entries() {
        if e.members.len() < k {
            return None;
        }
        for m in &e.members {
            for t in [e.interval.lo, e.interval.hi] {
                dmax = dmax.max(m.cp.base + m.cp.pos.dist(q.at(t)));
            }
        }
    }
    Some(dmax)
}

/// The k-th ONN distance (`None` when the shard found fewer than `k`
/// reachable points).
pub(crate) fn onn_dmax(v: &[(DataPoint, f64)], k: usize) -> Option<f64> {
    if v.len() < k {
        return None;
    }
    let mut dmax = 0.0f64;
    for (_, d) in v {
        if !d.is_finite() {
            return None;
        }
        dmax = dmax.max(*d);
    }
    Some(dmax)
}

/// The one family dispatcher `execute`, the batch workers, the admission
/// pump and the standing re-runs share. Its trajectory arm runs the legs
/// in order on the engine it holds; only a lone `execute` of a trajectory
/// bypasses it to fan the legs out ([`ConnService::execute_at`]).
pub(crate) fn dispatch(
    engine: &mut QueryEngine,
    scene: &Scene<'_>,
    query: &Query,
) -> (Answer, QueryStats) {
    let dt = scene.data_tree();
    let ot = scene.obstacle_tree();
    match query.kind() {
        QueryKind::Conn { q } => {
            let (res, stats) = engine.conn(dt, ot, q);
            (Answer::Conn(res), stats)
        }
        QueryKind::Coknn { q, k } => {
            let (res, stats) = engine.coknn(dt, ot, q, *k);
            (Answer::Coknn(res), stats)
        }
        QueryKind::Onn { s, k } => {
            let (v, stats) = engine.onn(dt, ot, *s, *k);
            (Answer::Onn(v), stats)
        }
        QueryKind::Range { s, radius } => {
            let (v, stats) = engine.range(dt, ot, *s, *radius);
            (Answer::Range(v), stats)
        }
        QueryKind::Rnn { s } => {
            let (v, stats) = engine.rnn(dt, ot, *s);
            (Answer::Rnn(v), stats)
        }
        QueryKind::Odist { a, b } => {
            let ((d, _), stats) = engine.odist(ot, *a, *b, false);
            (Answer::Odist(d), stats)
        }
        QueryKind::Route { a, b } => {
            let ((dist, path), stats) = engine.odist(ot, *a, *b, true);
            (Answer::Route { dist, path }, stats)
        }
        QueryKind::EDistanceJoin { other, e } => {
            let (pairs, stats) = engine.edistance_join(dt, other, ot, *e);
            (Answer::EDistanceJoin(pairs), stats)
        }
        QueryKind::ClosestPair { other } => {
            let (best, stats) = engine.closest_pair(dt, other, ot);
            (Answer::ClosestPair(best), stats)
        }
        QueryKind::Trajectory { route, k } => {
            let legs = (0..route.num_legs()).map(|i| run_leg(engine, scene, &route.leg(i), *k));
            assemble_trajectory(route, *k, legs)
        }
    }
}

/// One trajectory leg as the query it is: CONN for `k = 1`, COkNN
/// otherwise (Algorithm 4, §6).
pub(crate) fn run_leg(
    engine: &mut QueryEngine,
    scene: &Scene<'_>,
    leg: &Segment,
    k: usize,
) -> (Answer, QueryStats) {
    let (dt, ot) = (scene.data_tree(), scene.obstacle_tree());
    if k == 1 {
        let (res, stats) = engine.conn(dt, ot, leg);
        (Answer::Conn(res), stats)
    } else {
        let (res, stats) = engine.coknn(dt, ot, leg, k);
        (Answer::Coknn(res), stats)
    }
}

/// The one way a trajectory's answer is assembled from its legs' answers
/// ([`run_leg`]), given in leg order: stats are summed leg by leg; for
/// `k = 1` the CONN tuples are stitched at each leg's cumulative offset
/// and `result_tuples` is the stitched count, for `k > 1` the COkNN
/// results are kept per leg — exactly what a [`crate::TrajectorySession`]
/// over the route finishes with.
pub(crate) fn assemble_trajectory(
    route: &Trajectory,
    k: usize,
    legs: impl IntoIterator<Item = (Answer, QueryStats)>,
) -> (Answer, QueryStats) {
    let mut stats = QueryStats::default();
    let answers: Vec<Answer> = legs
        .into_iter()
        .map(|(answer, leg_stats)| {
            stats.accumulate(&leg_stats);
            answer
        })
        .collect();
    if k > 1 {
        let legs = answers.into_iter().filter_map(Answer::into_coknn).collect();
        return (Answer::TrajectoryKnn(legs), stats);
    }
    let mut segments = Vec::new();
    for (i, res) in answers
        .into_iter()
        .filter_map(Answer::into_conn)
        .enumerate()
    {
        let (offset, end) = (route.leg_offset(i), route.leg_offset(i + 1));
        stitch_leg(&mut segments, &res.segments(), offset, end);
    }
    stats.result_tuples = segments.len() as u64;
    let result = TrajectoryResult::new(route.clone(), segments);
    (Answer::Trajectory(result), stats)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{Query, TrajectorySession};
    use conn_geom::Point;

    fn scene() -> Scene<'static> {
        Scene::new(
            vec![
                DataPoint::new(0, Point::new(10.0, 20.0)),
                DataPoint::new(1, Point::new(50.0, 8.0)),
                DataPoint::new(2, Point::new(90.0, 25.0)),
                DataPoint::new(3, Point::new(45.0, 60.0)),
            ],
            vec![
                Rect::new(30.0, 5.0, 40.0, 30.0),
                Rect::new(60.0, 10.0, 75.0, 18.0),
            ],
        )
    }

    #[test]
    fn scene_constructors_agree() {
        let s = scene();
        assert_eq!(s.num_points(), 4);
        assert_eq!(s.num_obstacles(), 2);
        assert_eq!(s.obstacles().len(), 2);
        let borrowed = Scene::borrowing(s.data_tree(), s.obstacle_tree());
        assert_eq!(borrowed.num_points(), 4);
        let shared = Scene::shared(
            Arc::new(RStarTree::bulk_load(vec![], DEFAULT_PAGE_SIZE)),
            Arc::new(RStarTree::bulk_load(s.obstacles(), DEFAULT_PAGE_SIZE)),
        );
        assert_eq!(shared.num_points(), 0);
        assert_eq!(shared.num_obstacles(), 2);
    }

    /// `execute` on a warm pool engine against a fresh [`QueryEngine`], bit
    /// for bit (`Debug` covers every field), work counters included; and
    /// against a service on the reference kernel, by value.
    #[test]
    fn execute_matches_free_functions() {
        let service = ConnService::new(scene());
        let reference = ConnService::with_config(scene(), ConnConfig::baseline_kernel());
        let pin = service.pin();
        let (dt, ot) = (pin.scene().data_tree(), pin.scene().obstacle_tree());
        let q = Segment::new(Point::new(0.0, 0.0), Point::new(100.0, 0.0));

        let conn = Query::conn(q).build().unwrap();
        let (fresh, fresh_stats) = QueryEngine::default().conn(dt, ot, &q);
        let want = format!("{:?}", Answer::Conn(fresh.clone()));
        for warm in [0, 1] {
            let resp = service.execute(&conn).unwrap();
            assert_eq!(format!("{:?}", resp.answer), want);
            assert_eq!(resp.stats.reuse.graph_reuses, warm);
            assert_eq!(resp.stats.npe, fresh_stats.npe);
            assert_eq!(resp.stats.noe, fresh_stats.noe);
        }
        let blind = reference.execute(&conn).unwrap().answer;
        assert!(blind.as_conn().unwrap().values_equivalent(&fresh, 1e-6));

        let resp = service
            .execute(&Query::coknn(q, 2).build().unwrap())
            .unwrap();
        let (fresh, _) = QueryEngine::default().coknn(dt, ot, &q, 2);
        assert_eq!(
            format!("{:?}", resp.answer),
            format!("{:?}", Answer::Coknn(fresh))
        );
    }

    /// One query of each of the ten families.
    fn every_family() -> Vec<Query> {
        let q = Segment::new(Point::new(0.0, 0.0), Point::new(100.0, 0.0));
        let other = std::sync::Arc::new(RStarTree::bulk_load(
            vec![
                DataPoint::new(100, Point::new(5.0, 50.0)),
                DataPoint::new(101, Point::new(95.0, 55.0)),
            ],
            4096,
        ));
        let route = Trajectory::new(vec![
            Point::new(0.0, 0.0),
            Point::new(60.0, 0.0),
            Point::new(60.0, 50.0),
        ]);
        let (a, b) = (Point::new(0.0, 0.0), Point::new(100.0, 0.0));
        [
            Query::conn(q),
            Query::coknn(q, 3),
            Query::onn(Point::new(50.0, 0.0), 2),
            Query::range(Point::new(50.0, 0.0), 60.0),
            Query::rnn(Point::new(20.0, 30.0)),
            Query::odist(a, b),
            Query::route(a, b),
            Query::edistance_join(std::sync::Arc::clone(&other), 80.0),
            Query::closest_pair(other),
            Query::trajectory(route, 1),
        ]
        .map(|builder| builder.build().unwrap())
        .to_vec()
    }

    fn io_of(r: &Response) -> (conn_index::StatsSnapshot, conn_index::StatsSnapshot) {
        (r.stats.data_io, r.stats.obstacle_io)
    }

    /// Every path a query can take through the service reports the same
    /// tree I/O for it — its own — and a batch's pooled I/O is the sum over
    /// its responses. (At the parent the batch and admission paths reported
    /// zero per response and read the totals off the shared trees.)
    #[test]
    fn mixed_batch_covers_every_family() {
        let service = ConnService::new(scene());
        let batch = every_family();
        let serial: Vec<Response> = batch.iter().map(|q| service.execute(q).unwrap()).collect();
        let (batched, stats) = service.execute_batch_threads(&batch, 2).unwrap();
        let admission = crate::Admission::new(crate::AdmissionConfig::default());
        let tickets: Vec<crate::Ticket> = batch
            .iter()
            .map(|q| admission.submit(q.clone()).unwrap())
            .collect();
        assert_eq!(admission.pump(&service, 2), batch.len());
        let admitted: Vec<Response> = tickets.into_iter().map(|t| t.wait().unwrap()).collect();

        assert_eq!(stats.queries, batch.len());
        let mut sum = QueryStats::default();
        for (((q, s), b), a) in batch.iter().zip(&serial).zip(&batched).zip(&admitted) {
            let family = q.kind().family();
            assert_eq!(b.answer.family(), family);
            assert!(s.stats.obstacle_io.reads > 0, "{family}: no obstacle I/O");
            if !matches!(q.kind(), QueryKind::Odist { .. } | QueryKind::Route { .. }) {
                assert!(s.stats.data_io.reads > 0, "{family}: no data I/O");
            }
            assert_eq!(s.stats.faults(), s.stats.reads(), "{family}: unbuffered");
            assert_eq!(io_of(b), io_of(s), "{family}: batch vs execute");
            assert_eq!(io_of(a), io_of(s), "{family}: admission vs execute");
            assert_eq!(
                format!("{:?}", b.answer),
                format!("{:?}", s.answer),
                "{family}: batch answer"
            );
            sum.accumulate(&b.stats);
        }
        assert_eq!(stats.pooled.data_io, sum.data_io);
        assert_eq!(stats.pooled.obstacle_io, sum.obstacle_io);
        assert_eq!(stats.pooled.npe, sum.npe);
    }

    /// A join reads the caller-owned `other` tree too; those reads are part
    /// of its `data_io` on the batch path exactly as on the serial one.
    #[test]
    fn batched_joins_count_the_other_tree() {
        let service = ConnService::new(scene());
        let joins: Vec<Query> = every_family()
            .into_iter()
            .filter(|q| {
                matches!(
                    q.kind(),
                    QueryKind::EDistanceJoin { .. } | QueryKind::ClosestPair { .. }
                )
            })
            .collect();
        assert_eq!(joins.len(), 2);
        let (batched, _) = service.execute_batch_threads(&joins, 2).unwrap();
        for (q, b) in joins.iter().zip(&batched) {
            let serial = service.execute(q).unwrap();
            assert_eq!(io_of(b), io_of(&serial));
            // a dual-tree descent reads at least both roots
            assert!(b.stats.data_io.reads >= 2, "{:?}", b.stats.data_io);
        }
    }

    /// Four clients execute one query list on one pin while a fifth
    /// batches it (nothing publishes, so the batch pins the same epoch):
    /// every response carries the single-threaded reference I/O.
    /// Counters on the shared trees could not give this; meters on the
    /// engines do by construction.
    #[test]
    #[expect(
        clippy::disallowed_methods,
        reason = "client threads stand for independent callers of one service"
    )]
    fn concurrent_clients_get_exact_per_query_io() {
        let service = ConnService::new(scene());
        let queries = every_family();
        let pin = service.pin();
        let reference: Vec<_> = queries
            .iter()
            .map(|q| io_of(&service.execute_at(&pin, q).unwrap()))
            .collect();
        let start = std::sync::Barrier::new(5);
        std::thread::scope(|scope| {
            let clients: Vec<_> = (0..4)
                .map(|_| {
                    scope.spawn(|| {
                        start.wait();
                        for _ in 0..3 {
                            for (q, want) in queries.iter().zip(&reference) {
                                let got = service.execute_at(&pin, q).unwrap();
                                assert_eq!(io_of(&got), *want, "{}", q.kind().family());
                            }
                        }
                    })
                })
                .collect();
            let batcher = scope.spawn(|| {
                start.wait();
                for _ in 0..3 {
                    let (responses, _) = service.execute_batch_threads(&queries, 2).unwrap();
                    for (r, want) in responses.iter().zip(&reference) {
                        assert_eq!(io_of(r), *want, "{}", r.answer.family());
                    }
                }
            });
            for handle in clients.into_iter().chain([batcher]) {
                handle.join().expect("client panicked");
            }
        });
    }

    /// odist/route run through the workspace window like every other
    /// family, so their stats say what the answer cost.
    #[test]
    fn odist_and_route_report_their_work() {
        let service = ConnService::new(scene());
        // the straight line crosses both obstacles
        let (a, b) = (Point::new(0.0, 15.0), Point::new(100.0, 15.0));
        for query in [Query::odist(a, b), Query::route(a, b)] {
            let resp = service.execute(&query.build().unwrap()).unwrap();
            assert!(resp.answer.distance().unwrap() > 100.0);
            let stats = resp.stats;
            assert_eq!(stats.noe, 2);
            assert!(stats.obstacle_io.reads > 0);
            assert!(stats.svg_nodes > 0 && stats.reuse.sight_tests > 0);
            assert_eq!(stats.result_tuples, 1);
        }
    }

    #[test]
    fn open_session_matches_trajectory_search() {
        let service = ConnService::new(scene());
        let pin = service.pin();
        let verts = [
            Point::new(0.0, 0.0),
            Point::new(70.0, 5.0),
            Point::new(70.0, 55.0),
        ];
        let mut session = pin.open_session(verts[0], *service.config());
        for &v in &verts[1..] {
            session.push_leg(v).unwrap();
        }
        let (answer, _) = session.finish().unwrap();
        let plan = answer.into_trajectory().unwrap();
        plan.check_cover().unwrap();
        let query = Query::trajectory(Trajectory::new(verts.to_vec()), 1)
            .build()
            .unwrap();
        let free = service
            .execute_at(&pin, &query)
            .unwrap()
            .answer
            .into_trajectory()
            .unwrap();
        assert_eq!(plan.segments().len(), free.segments().len());
        for (a, b) in plan.segments().iter().zip(free.segments()) {
            assert_eq!(a.0.map(|p| p.id), b.0.map(|p| p.id));
            assert_eq!(a.1.lo.to_bits(), b.1.lo.to_bits());
            assert_eq!(a.1.hi.to_bits(), b.1.hi.to_bits());
        }
    }

    /// The work counts the paper measures, plus the substrate's sight
    /// tests and sweep events (not the warmth-dependent reuse counters).
    fn work_of(s: &QueryStats) -> impl PartialEq + std::fmt::Debug {
        (
            (s.npe, s.noe, s.svg_nodes, s.result_tuples),
            (s.data_io, s.obstacle_io),
            (s.reuse.sight_tests, s.reuse.sweep_events),
        )
    }

    /// A lone `execute` of a trajectory runs its legs on the pool's
    /// workers; its answer is bit-identical to the batch path's serial leg
    /// loop and to a session on a fresh engine, and so is its work. For
    /// k > 1, each leg is bit-identical to that leg run as a lone COkNN,
    /// which shares no stitching with the trajectory paths. A one-leg
    /// route spawns no worker.
    #[test]
    fn trajectory_legs_fan_out_bit_identical() {
        let scene = scene();
        let (dt, ot) = (scene.data_tree(), scene.obstacle_tree());
        let route = Trajectory::new(vec![
            Point::new(0.0, 0.0),
            Point::new(50.0, 0.0),
            Point::new(100.0, 0.0),
            Point::new(100.0, 50.0),
            Point::new(0.0, 50.0),
            Point::new(0.0, 10.0),
        ]);
        let (start, rest) = (route.vertices()[0], &route.vertices()[1..]);
        for k in [1, 3] {
            let service = ConnService::new(Scene::borrowing(dt, ot));
            let query = Query::trajectory(route.clone(), k).build().unwrap();
            let fanned = service.execute(&query).unwrap();
            assert_eq!(
                service.pool.size(),
                crate::pool::pool_size(0, route.num_legs())
            );
            let (batch, _) = service
                .execute_batch_threads(std::slice::from_ref(&query), 1)
                .unwrap();
            let mut session = TrajectorySession::new(dt, ot, start, k, ConnConfig::default());
            for &v in rest {
                session.push_leg(v).unwrap();
            }
            let session = session.finish().unwrap();
            for (path, (answer, stats)) in [
                ("batch", (&batch[0].answer, batch[0].stats)),
                ("session", (&session.0, session.1)),
            ] {
                assert_eq!(
                    format!("{:?}", fanned.answer),
                    format!("{answer:?}"),
                    "k = {k}: {path} answer"
                );
                assert_eq!(
                    work_of(&fanned.stats),
                    work_of(&stats),
                    "k = {k}: {path} work"
                );
            }
            if k > 1 {
                let legs = fanned.answer.as_trajectory_knn().unwrap();
                assert_eq!(legs.len(), route.num_legs());
                for (i, leg) in legs.iter().enumerate() {
                    let lone = Query::coknn(route.leg(i), k).build().unwrap();
                    let lone = service.execute(&lone).unwrap().answer;
                    assert_eq!(
                        format!("{:?}", Answer::Coknn(leg.clone())),
                        format!("{lone:?}"),
                        "k = {k}: leg {i} against a lone COkNN"
                    );
                }
            }
        }
        let service = ConnService::new(Scene::borrowing(dt, ot));
        let one_leg = Trajectory::new(vec![Point::new(0.0, 0.0), Point::new(100.0, 0.0)]);
        let resp = service
            .execute(&Query::trajectory(one_leg, 1).build().unwrap())
            .unwrap();
        resp.answer.as_trajectory().unwrap().check_cover().unwrap();
        assert_eq!(service.pool.size(), 1);
    }

    #[test]
    fn empty_batch_is_fine() {
        let service = ConnService::new(scene());
        let (responses, stats) = service.execute_batch_threads(&[], 0).unwrap();
        assert!(responses.is_empty());
        assert_eq!(stats.queries, 0);
    }

    #[test]
    fn publish_swaps_answers_for_new_pins_only() {
        let service = ConnService::new(scene());
        let pin0 = service.pin();
        let probe = Query::onn(Point::new(10.0, 20.0), 1).build().unwrap();
        let before = service.execute_at(&pin0, &probe).unwrap();
        assert_eq!(before.answer.neighbors().unwrap()[0].0.id, 0);

        // move the world: only point 7 remains, far from the probe
        let epoch = service.publish(Scene::new(
            vec![DataPoint::new(7, Point::new(90.0, 90.0))],
            vec![],
        ));
        assert_eq!(epoch, 1);
        assert_eq!(service.current_epoch(), 1);

        // the old pin still answers from epoch 0…
        let old = service.execute_at(&pin0, &probe).unwrap();
        assert_eq!(old.answer.neighbors().unwrap()[0].0.id, 0);
        // …while fresh executes see epoch 1
        let new = service.execute(&probe).unwrap();
        assert_eq!(new.answer.neighbors().unwrap()[0].0.id, 7);

        assert_eq!(service.epochs_retired(), 0);
        drop(pin0);
        assert_eq!(service.epochs_retired(), 1);
    }

    #[test]
    fn sharded_service_certifies_local_queries_and_falls_back() {
        // points spread over [0,1000]^2, shards 2x2 with a 400 margin
        let points: Vec<DataPoint> = (0..60)
            .map(|i| {
                DataPoint::new(
                    i,
                    Point::new((i as f64 * 137.0) % 1000.0, (i as f64 * 211.0) % 1000.0),
                )
            })
            .collect();
        let obstacles = vec![
            Rect::new(200.0, 200.0, 260.0, 300.0),
            Rect::new(700.0, 600.0, 760.0, 700.0),
        ];
        let unsharded = ConnService::new(Scene::new(points.clone(), obstacles.clone()));
        let sharded = ConnService::sharded(
            Scene::new(points, obstacles),
            ConnConfig::default(),
            ShardSpec::new(2, 2, 400.0).unwrap(),
        );

        // deep-inside query (clear of the obstacles): certificate holds
        let local = Query::onn(Point::new(100.0, 450.0), 2).build().unwrap();
        let a = sharded.execute(&local).unwrap();
        assert_eq!(a.stats.reuse.shard_local, 1);
        assert_eq!(a.stats.reuse.shard_merges, 0);
        let b = unsharded.execute(&local).unwrap();
        for (x, y) in a
            .answer
            .neighbors()
            .unwrap()
            .iter()
            .zip(b.answer.neighbors().unwrap())
        {
            assert_eq!(x.0.id, y.0.id);
            assert!((x.1 - y.1).abs() <= 1e-6);
        }

        // a range query wider than the margin must fall back
        let wide = Query::range(Point::new(500.0, 500.0), 900.0)
            .build()
            .unwrap();
        let c = sharded.execute(&wide).unwrap();
        assert_eq!(c.stats.reuse.shard_local, 0);
        assert_eq!(c.stats.reuse.shard_merges, 1);
        let d = unsharded.execute(&wide).unwrap();
        assert_eq!(
            c.answer.neighbors().unwrap().len(),
            d.answer.neighbors().unwrap().len()
        );

        // non-shardable families report neither counter
        let odist = Query::odist(Point::new(0.0, 0.0), Point::new(1000.0, 1000.0))
            .build()
            .unwrap();
        let e = sharded.execute(&odist).unwrap();
        assert_eq!(e.stats.reuse.shard_local + e.stats.reuse.shard_merges, 0);
    }
}
