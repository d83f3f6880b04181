//! Live scenes: incremental mutation with incremental adjacency and
//! standing queries.
//!
//! The serving layer of [`crate::epoch`] publishes whole replacement
//! scenes: cheap to reason about, but a single inserted obstacle pays a
//! full republish *and* a full re-run of every query a client keeps
//! resident. This module closes that gap in three layers:
//!
//! * **[`LiveScene`]** owns the world behind `Arc`-shared R\*-trees and
//!   mutates it in place — [`LiveScene::insert_site`] /
//!   [`LiveScene::remove_site`] / [`LiveScene::insert_obstacle`] /
//!   [`LiveScene::remove_obstacle`] repair the touched tree by ordinary
//!   R\*-tree insert/delete surgery (forking it copy-on-write only while
//!   published epochs still share it) and publish the result as a **cheap
//!   derived epoch**: the untouched tree is shared by `Arc`, so
//!   publication cost is proportional to what changed, not to the scene.
//!
//! * **Incremental adjacency.** Each mutation is described by a
//!   [`SceneDelta`]. An inserted obstacle is loaded into a resident graph,
//!   whose cached rows are repaired against it on their next use. A graph
//!   only grows, so a removed obstacle the graph holds restarts it: the
//!   next run resets the graph, keeping its allocations, and loads afresh;
//!   a removal the graph never loaded leaves it untouched. The *labels*
//!   restart after every delta: the search starts cold on the changed
//!   graph (carrying labels across the change saved no work — see
//!   [`conn_vgraph::DijkstraEngine`]'s module docs).
//!
//! * **Standing queries.** [`crate::ConnService::register`] keeps a
//!   query's result resident; every [`crate::ConnService::publish_delta`]
//!   patches it under a kinetic-style **certificate region**: a delta
//!   whose footprint stays Euclidean-farther from the query's anchor than
//!   the answer's worst obstructed distance `dmax` cannot change the
//!   answer (obstructed ≥ Euclidean, and obstacle edits only matter to
//!   paths they touch — lengthening on insert, shortening through the
//!   footprint on removal), so the resident tuples stand untouched.
//!   Point-to-point entries (odist/route) take the shortest-path ellipse
//!   `mindist(a, R) + mindist(b, R) ≤ dist` as their region and ignore
//!   site deltas. Every entry ends a delta in one of three outcomes: **kept**,
//!   **tuple-patched** (an ONN/range tuple list absorbs a site insertion by
//!   one point-to-point distance evaluation) or **recomputed** (a re-run of
//!   that one query). The one resident engine is the segment kernel of a
//!   CONN or COkNN entry, which re-runs warm: the graph loaded by earlier
//!   runs is kept until the scene loses an obstacle it holds, which
//!   restarts it as above. The cold re-run is also the proptest oracle:
//!   `live_equivalence.rs` pins every patched answer to a cold rebuild at
//!   1e-6.

#![expect(
    clippy::disallowed_types,
    reason = "the standing-query registry's one mutex is held for one registry operation: a register, an unregister, or one delta's patch pass"
)]

use std::sync::{Arc, Mutex};
use std::time::Instant;

use conn_geom::{Point, Rect, Segment};
use conn_index::{RStarTree, DEFAULT_PAGE_SIZE};
use conn_vgraph::{NodeId, NodeKind};

use crate::coknn::CoknnResult;
use crate::config::ConnConfig;
use crate::conn::{run_leg, ConnResult};
use crate::engine::QueryEngine;
use crate::epoch::PinnedEpoch;
use crate::error::Error;
use crate::odist::affected;
use crate::query::{Answer, Query, QueryKind, Response};
use crate::rlu::KnnResultList;
use crate::service::{coknn_dmax, conn_dmax, dispatch, onn_dmax, ConnService, Scene};
use crate::stats::QueryStats;
use crate::streams::SegmentStreams;
use crate::types::DataPoint;

/// One mutation of a live scene, as published alongside its derived
/// epoch. The variants carry the mutated item so standing-query patching
/// can test certificate regions and membership without re-diffing trees.
#[derive(Debug, Clone, Copy, PartialEq)]
#[non_exhaustive]
pub enum SceneDelta {
    /// A data point was inserted.
    SiteInserted(DataPoint),
    /// A data point was removed.
    SiteRemoved(DataPoint),
    /// An obstacle was inserted.
    ObstacleInserted(Rect),
    /// An obstacle was removed.
    ObstacleRemoved(Rect),
}

impl SceneDelta {
    /// Short label of the mutation (telemetry, benchmark reports).
    pub fn kind(&self) -> &'static str {
        match self {
            SceneDelta::SiteInserted(_) => "site_inserted",
            SceneDelta::SiteRemoved(_) => "site_removed",
            SceneDelta::ObstacleInserted(_) => "obstacle_inserted",
            SceneDelta::ObstacleRemoved(_) => "obstacle_removed",
        }
    }

    /// The delta's spatial footprint (a point collapses to a degenerate
    /// rectangle) — what certificate regions are tested against.
    pub fn footprint(&self) -> Rect {
        match self {
            SceneDelta::SiteInserted(p) | SceneDelta::SiteRemoved(p) => Rect::from_point(p.pos),
            SceneDelta::ObstacleInserted(r) | SceneDelta::ObstacleRemoved(r) => *r,
        }
    }
}

/// Token for one standing query (see [`crate::ConnService::register`]).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct StandingHandle {
    id: u64,
}

impl StandingHandle {
    /// The registry id this handle names.
    pub fn id(&self) -> u64 {
        self.id
    }
}

/// What one [`crate::ConnService::publish_delta`] did to the standing
/// set. `kept`, `tuple_patched` and `recomputed` partition `standing`.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct PatchReport {
    /// Standing queries resident when the delta arrived.
    pub standing: usize,
    /// Answers kept untouched: the delta fell outside the certificate
    /// region (or removed a site the answer never mentions).
    pub kept: usize,
    /// Answers patched at the tuple level (ONN/range absorbing a site
    /// insertion by one distance evaluation).
    pub tuple_patched: usize,
    /// Always 0: a standing odist/route answer is kept or recomputed like
    /// every other family. Kept only because the ledger's
    /// `live.kernel_patched` row reads it, until the next benchmark change
    /// retires that row.
    pub kernel_patched: usize,
    /// Answers recomputed by a full re-run of that one query.
    pub recomputed: usize,
    /// Always 0: the kernels restart their searches cold after a delta
    /// instead of invalidating labels. Kept only because the ledger's
    /// `live.labels_invalidated_per_delta` row reads it, until the next
    /// benchmark change retires that row.
    pub labels_invalidated: u64,
    /// Always 0: a standing segment kernel whose graph held a removed
    /// obstacle restarts from a reset graph instead of staling rows in
    /// place. Kept only because the ledger's
    /// `live.adjacency_repairs_per_delta` row reads it, until the next
    /// benchmark change retires that row.
    pub adjacency_repairs: u64,
}

/// The kinetic certificate of one standing query: the region a delta
/// must touch to be able to change the answer.
#[derive(Debug, Clone, Copy)]
enum Certificate {
    /// Point/segment-anchored families (CONN, COkNN, ONN, range): every
    /// witness path of the answer stays within obstructed — hence
    /// Euclidean — distance `dmax` of the anchor. `dmax = None` means the
    /// answer gave no finite bound (unassigned stretches, short lists):
    /// obstacle deltas always recompute.
    Anchored { anchor: Rect, dmax: Option<f64> },
    /// Point-to-point families (odist/route): a delta only matters if its
    /// footprint meets the shortest-path ellipse
    /// `mindist(a, R) + mindist(b, R) ≤ dist`.
    Ellipse { a: Point, b: Point, dist: f64 },
    /// No certificate (reverse NN, joins, trajectories): every delta
    /// recomputes.
    Always,
}

fn certificate_for(query: &Query, answer: &Answer) -> Certificate {
    match (query.kind(), answer) {
        (QueryKind::Conn { q }, Answer::Conn(r)) => Certificate::Anchored {
            anchor: Rect::from_segment(q),
            dmax: conn_dmax(r, q),
        },
        (QueryKind::Coknn { q, k }, Answer::Coknn(r)) => Certificate::Anchored {
            anchor: Rect::from_segment(q),
            dmax: coknn_dmax(r, q, *k),
        },
        (QueryKind::Onn { s, k }, Answer::Onn(v)) => Certificate::Anchored {
            anchor: Rect::from_point(*s),
            dmax: onn_dmax(v, *k),
        },
        (QueryKind::Range { s, radius }, _) => Certificate::Anchored {
            anchor: Rect::from_point(*s),
            dmax: Some(*radius),
        },
        (QueryKind::Odist { a, b }, Answer::Odist(d)) => Certificate::Ellipse {
            a: *a,
            b: *b,
            dist: *d,
        },
        (QueryKind::Route { a, b }, Answer::Route { dist, .. }) => Certificate::Ellipse {
            a: *a,
            b: *b,
            dist: *dist,
        },
        _ => Certificate::Always,
    }
}

/// True when `answer` mentions data point `id` anywhere. Removing a point
/// the answer never mentions cannot change it: an absent point is either
/// unreachable or dominated wherever the family looked, and removals only
/// thin the candidate set. Families without a membership reading report
/// `true` (always affected).
fn answer_mentions(answer: &Answer, id: u32) -> bool {
    match answer {
        Answer::Conn(r) => r
            .entries()
            .iter()
            .any(|e| e.point.map(|p| p.id) == Some(id)),
        Answer::Coknn(r) => r
            .entries()
            .iter()
            .any(|e| e.members.iter().any(|m| m.point.id == id)),
        Answer::Onn(v) | Answer::Range(v) | Answer::Rnn(v) => v.iter().any(|(p, _)| p.id == id),
        Answer::Odist(_) | Answer::Route { .. } => false,
        _ => true,
    }
}

/// The resident segment kernel of a standing CONN/COkNN entry: an engine
/// of its own whose visibility graph outlives the re-run, so the next
/// re-run of the same segment is warm — the graph with its cached rows,
/// both endpoint nodes and the workspace's loaded set are kept, and the
/// obstacle stream skips what is loaded; the searches themselves start
/// cold, as every search over a changed graph does. An inserted obstacle
/// is simply not loaded yet, and a removed one the graph never loaded
/// does not concern it. A graph only grows, so a removed obstacle the
/// graph holds restarts the kernel ([`SegmentKernel::forget`]): its next
/// run starts from a reset graph, as a fresh query does. Whenever it runs,
/// the graph is therefore a subset of the pinned tree and a superset of
/// what a cold run loads: every loaded rectangle is real, and extra loaded
/// obstacles only ever help Algorithm 4 certify.
///
/// It stays because it measurably pays: re-running cold instead cost the
/// ledger's `live_churn` workload 9–36 % of its `ops_per_s` on four paired
/// seeds, for 6–8 % less peak RSS.
#[derive(Debug)]
struct SegmentKernel {
    engine: QueryEngine,
    ends: Option<(NodeId, NodeId)>,
}

impl SegmentKernel {
    fn new(cfg: ConnConfig) -> Self {
        SegmentKernel {
            engine: QueryEngine::new(cfg),
            ends: None,
        }
    }

    /// Algorithm 4 for the `k` nearest over `q` against the pinned scene,
    /// warm from the second run on.
    fn run(&mut self, scene: &Scene<'_>, q: &Segment, k: usize) -> (KnnResultList, QueryStats) {
        #[expect(
            clippy::disallowed_methods,
            reason = "query-boundary elapsed time; the kernel loop never reads the clock"
        )]
        let started = Instant::now();
        let (cfg, ws, io) = self.engine.parts();
        let (s_node, e_node) = match self.ends {
            Some(ends) => {
                ws.begin_leg(io);
                ends
            }
            None => {
                ws.begin_query(io);
                let s_node = ws.g.add_point(q.a, NodeKind::Endpoint);
                (s_node, ws.g.add_point(q.b, NodeKind::Endpoint))
            }
        };
        let (data_tree, obstacle_tree) = (scene.data_tree(), scene.obstacle_tree());
        // lent to the stream for the run, as `QueryEngine` lends it
        let mut loaded = std::mem::take(&mut ws.loaded);
        let mut streams = SegmentStreams::new(data_tree, obstacle_tree, q, io, &mut loaded);
        let mut list = KnnResultList::new(q.len(), k);
        let telemetry = run_leg(&mut streams, q, &cfg, &mut list, ws, s_node, e_node);
        ws.loaded = loaded;
        let stats = QueryStats {
            cpu: started.elapsed(),
            npe: telemetry.npe,
            noe: telemetry.noe,
            svg_nodes: telemetry.svg_nodes,
            result_tuples: list.entries().len() as u64,
            ..ws.finish_query(io)
        };
        self.ends = Some((s_node, e_node));
        (list, stats)
    }

    /// Follows the removal of `r` from the scene: when the graph holds it,
    /// the next run restarts from a reset graph; otherwise it stays warm.
    fn forget(&mut self, r: &Rect) {
        if self.engine.parts().1.loaded.contains(r) {
            self.ends = None;
        }
    }
}

/// One resident standing query.
#[derive(Debug)]
struct StandingEntry {
    id: u64,
    query: Query,
    answer: Answer,
    cert: Certificate,
    segment: Option<SegmentKernel>,
}

impl StandingEntry {
    /// Refreshes the certificate after the answer changed.
    fn recertify(&mut self) {
        self.cert = certificate_for(&self.query, &self.answer);
    }
}

/// What `apply` decided to do with one entry.
enum Outcome {
    Kept,
    TuplePatched,
    Recomputed,
}

/// The standing-query registry a [`ConnService`] owns. Interior-mutable
/// (one mutex, held per registry operation) so registration and patching
/// work through the service's shared reference like every other call.
#[derive(Debug, Default)]
pub(crate) struct StandingRegistry {
    inner: Mutex<RegistryInner>,
}

#[derive(Debug, Default)]
struct RegistryInner {
    next_id: u64,
    entries: Vec<StandingEntry>,
}

impl StandingRegistry {
    /// Makes `query` resident. CONN and COkNN take their first answer from
    /// the segment kernel the entry keeps, so every later re-run is warm;
    /// the other families from `execute`.
    pub(crate) fn register(
        &self,
        pin: &PinnedEpoch<'_>,
        cfg: &ConnConfig,
        query: Query,
        execute: impl FnOnce(&Query) -> Result<Response, Error>,
    ) -> Result<StandingHandle, Error> {
        let mut segment = None;
        let answer = match segment_rerun(&mut segment, &query, pin.scene(), cfg) {
            Some((answer, _)) => answer,
            None => execute(&query)?.answer,
        };
        let cert = certificate_for(&query, &answer);
        let mut inner = lock(&self.inner);
        let id = inner.next_id;
        inner.next_id += 1;
        inner.entries.push(StandingEntry {
            id,
            query,
            answer,
            cert,
            segment,
        });
        Ok(StandingHandle { id })
    }

    pub(crate) fn answer(&self, handle: &StandingHandle) -> Option<Answer> {
        let inner = lock(&self.inner);
        inner
            .entries
            .iter()
            .find(|e| e.id == handle.id)
            .map(|e| e.answer.clone())
    }

    pub(crate) fn len(&self) -> usize {
        lock(&self.inner).entries.len()
    }

    pub(crate) fn unregister(&self, handle: StandingHandle) -> bool {
        let mut inner = lock(&self.inner);
        let before = inner.entries.len();
        inner.entries.retain(|e| e.id != handle.id);
        inner.entries.len() != before
    }

    /// Patches every standing entry against the just-published epoch.
    /// Returns the report plus the pooled [`QueryStats`] of the patch work
    /// (recompute runs, with `delta_publishes` set) for the engine pool's
    /// lifetime totals.
    pub(crate) fn apply(
        &self,
        engine: &mut QueryEngine,
        pin: &PinnedEpoch<'_>,
        cfg: &ConnConfig,
        delta: &SceneDelta,
    ) -> (PatchReport, QueryStats) {
        let mut inner = lock(&self.inner);
        let mut report = PatchReport {
            standing: inner.entries.len(),
            ..PatchReport::default()
        };
        let mut pooled = QueryStats::default();
        pooled.reuse.delta_publishes = 1;
        for entry in &mut inner.entries {
            let outcome = patch_entry(entry, engine, pin, cfg, delta, &mut pooled);
            match outcome {
                Outcome::Kept => report.kept += 1,
                Outcome::TuplePatched => report.tuple_patched += 1,
                Outcome::Recomputed => report.recomputed += 1,
            }
        }
        (report, pooled)
    }
}

fn lock<T>(m: &Mutex<T>) -> std::sync::MutexGuard<'_, T> {
    m.lock().unwrap_or_else(|poisoned| poisoned.into_inner())
}

/// Decides and executes the cheapest sound repair for one entry.
fn patch_entry(
    entry: &mut StandingEntry,
    engine: &mut QueryEngine,
    pin: &PinnedEpoch<'_>,
    cfg: &ConnConfig,
    delta: &SceneDelta,
    pooled: &mut QueryStats,
) -> Outcome {
    // a resident segment graph follows every removal, kept answer or not
    if let (Some(segment), SceneDelta::ObstacleRemoved(r)) = (entry.segment.as_mut(), delta) {
        segment.forget(r);
    }
    let decision = match (entry.cert, delta) {
        (Certificate::Always, _) => Outcome::Recomputed,
        // A removed site the answer never mentions cannot change it.
        (_, SceneDelta::SiteRemoved(p)) => {
            if answer_mentions(&entry.answer, p.id) {
                Outcome::Recomputed
            } else {
                Outcome::Kept
            }
        }
        // point-to-point distance ignores data points entirely
        (Certificate::Ellipse { .. }, SceneDelta::SiteInserted(_)) => Outcome::Kept,
        (Certificate::Anchored { anchor, dmax }, SceneDelta::SiteInserted(p)) => {
            // ONN/range tuple lists absorb an insertion by one distance
            // evaluation; that patch is sound with or without a finite
            // certificate, so try the region test first only to skip work.
            let tuple_patchable = matches!(
                entry.query.kind(),
                QueryKind::Onn { .. } | QueryKind::Range { .. }
            );
            match dmax {
                Some(d) if !affected(anchor.mindist_point(p.pos), d) => Outcome::Kept,
                _ if tuple_patchable => Outcome::TuplePatched,
                _ => Outcome::Recomputed,
            }
        }
        (Certificate::Anchored { anchor, dmax }, _) => {
            let r = delta.footprint();
            match dmax {
                Some(d) if !affected(anchor.mindist_rect(&r), d) => Outcome::Kept,
                _ => Outcome::Recomputed,
            }
        }
        // An obstacle edit outside the ellipse touches no path of length
        // ≤ dist. `affected(_, ∞)` holds, so an unreachable answer re-runs
        // on every obstacle delta: a removal can open a path.
        (Certificate::Ellipse { a, b, dist }, _) => {
            let r = delta.footprint();
            if affected(r.mindist_point(a) + r.mindist_point(b), dist) {
                Outcome::Recomputed
            } else {
                Outcome::Kept
            }
        }
    };
    match decision {
        #[expect(
            clippy::unreachable,
            reason = "TuplePatched is only picked under the SiteInserted arm above"
        )]
        Outcome::TuplePatched => {
            let SceneDelta::SiteInserted(p) = delta else {
                unreachable!("tuple patch is only chosen for site insertions");
            };
            tuple_patch_insert(entry, engine, pin, *p, pooled);
            entry.recertify();
            Outcome::TuplePatched
        }
        Outcome::Recomputed => {
            let scene = pin.scene();
            let (answer, stats) = segment_rerun(&mut entry.segment, &entry.query, scene, cfg)
                .unwrap_or_else(|| dispatch(engine, scene, &entry.query));
            pooled.accumulate(&stats);
            entry.answer = answer;
            entry.recertify();
            Outcome::Recomputed
        }
        Outcome::Kept => Outcome::Kept,
    }
}

/// The full re-run of a standing CONN or COkNN query on its resident
/// segment kernel (started here when the entry has none); `None` for every
/// other family.
fn segment_rerun(
    kernel: &mut Option<SegmentKernel>,
    query: &Query,
    scene: &Scene<'_>,
    cfg: &ConnConfig,
) -> Option<(Answer, QueryStats)> {
    let (q, k) = match *query.kind() {
        QueryKind::Conn { q } => (q, 1),
        QueryKind::Coknn { q, k } => (q, k),
        _ => return None,
    };
    let kernel = kernel.get_or_insert_with(|| SegmentKernel::new(*cfg));
    let (list, stats) = kernel.run(scene, &q, k);
    let answer = match query.kind() {
        QueryKind::Conn { .. } => Answer::Conn(ConnResult::new(q, list)),
        _ => Answer::Coknn(CoknnResult::new(q, list)),
    };
    Some((answer, stats))
}

/// Absorbs a site insertion into an ONN/range tuple list: one obstructed
/// distance evaluation against the published obstacle tree, merged in
/// ascending order (ONN truncates back to `k`).
#[expect(
    clippy::unreachable,
    reason = "patch_entry routes only ONN/range here, and ONN/range queries always hold ONN/range answers"
)]
fn tuple_patch_insert(
    entry: &mut StandingEntry,
    engine: &mut QueryEngine,
    pin: &PinnedEpoch<'_>,
    p: DataPoint,
    pooled: &mut QueryStats,
) {
    let (s, cap, radius) = match entry.query.kind() {
        QueryKind::Onn { s, k } => (*s, Some(*k), f64::INFINITY),
        QueryKind::Range { s, radius } => (*s, None, *radius),
        _ => unreachable!("tuple patch is only chosen for ONN/range"),
    };
    let ((d, _), stats) = engine.odist(pin.scene().obstacle_tree(), s, p.pos, false);
    pooled.accumulate(&stats);
    let (Answer::Onn(list) | Answer::Range(list)) = &mut entry.answer else {
        unreachable!("tuple patch is only chosen for ONN/range answers");
    };
    if d.is_finite() && d <= radius * (1.0 + 1e-12) {
        let at = list.partition_point(|(_, existing)| *existing <= d);
        list.insert(at, (p, d));
        if let Some(k) = cap {
            list.truncate(k);
        }
    }
}

/// A mutable world published through a [`ConnService`] as cheap derived
/// epochs. See the module docs for the full picture.
///
/// ```
/// use conn_core::{ConnConfig, DataPoint, LiveScene, Query};
/// use conn_geom::{Point, Rect};
///
/// let mut live = LiveScene::new(
///     vec![
///         DataPoint::new(0, Point::new(20.0, 60.0)),
///         DataPoint::new(1, Point::new(80.0, 60.0)),
///     ],
///     vec![Rect::new(45.0, 30.0, 55.0, 70.0)],
///     ConnConfig::default(),
/// );
/// // a standing query stays resident and is patched per delta
/// let h = live
///     .service()
///     .register(Query::onn(Point::new(0.0, 60.0), 1).build()?)?;
/// assert_eq!(live.service().standing(&h).unwrap().neighbors().unwrap()[0].0.id, 0);
///
/// // a far-away obstacle edit keeps the answer untouched (certificate)
/// let (epoch, report) = live.insert_obstacle(Rect::new(200.0, 0.0, 210.0, 10.0));
/// assert_eq!(epoch, 1);
/// assert_eq!(report.kept, 1);
///
/// // removing the resident neighbor forces a recompute
/// let removed = live.remove_site(Point::new(20.0, 60.0)).unwrap();
/// assert_eq!(removed.1.recomputed, 1);
/// assert_eq!(live.service().standing(&h).unwrap().neighbors().unwrap()[0].0.id, 1);
/// # Ok::<(), conn_core::Error>(())
/// ```
#[derive(Debug)]
pub struct LiveScene {
    service: ConnService<'static>,
    data: Arc<RStarTree<DataPoint>>,
    obstacles: Arc<RStarTree<Rect>>,
    deltas_published: u64,
}

impl LiveScene {
    /// Indexes `points` and `obstacles` and wraps them in a service whose
    /// epoch 0 shares the trees (every later epoch shares whatever a
    /// mutation did not touch).
    pub fn new(points: Vec<DataPoint>, obstacles: Vec<Rect>, cfg: ConnConfig) -> Self {
        let data = Arc::new(RStarTree::bulk_load(points, DEFAULT_PAGE_SIZE));
        let obstacles = Arc::new(RStarTree::bulk_load(obstacles, DEFAULT_PAGE_SIZE));
        let service = ConnService::with_config(
            Scene::shared(Arc::clone(&data), Arc::clone(&obstacles)),
            cfg,
        );
        LiveScene {
            service,
            data,
            obstacles,
            deltas_published: 0,
        }
    }

    /// A paper-style live scene (LA-like obstacles, uniform points).
    pub fn uniform(n_points: usize, n_obstacles: usize, seed: u64, cfg: ConnConfig) -> Self {
        let obstacles = conn_datasets::la_like(n_obstacles, seed);
        let points = DataPoint::from_points(&conn_datasets::uniform_points(
            n_points,
            seed.wrapping_add(1),
            &obstacles,
        ));
        LiveScene::new(points, obstacles, cfg)
    }

    /// The serving front door: execute queries, register standing ones.
    pub fn service(&self) -> &ConnService<'static> {
        &self.service
    }

    /// Number of data points in the live world.
    pub fn num_points(&self) -> usize {
        self.data.len()
    }

    /// Number of obstacles in the live world.
    pub fn num_obstacles(&self) -> usize {
        self.obstacles.len()
    }

    /// The live world's points, collected (the cold-rebuild oracle input).
    pub fn points(&self) -> Vec<DataPoint> {
        self.data.iter_items().copied().collect()
    }

    /// The live world's obstacles, collected.
    pub fn obstacles(&self) -> Vec<Rect> {
        self.obstacles.iter_items().copied().collect()
    }

    /// Deltas published so far (equals the current epoch number).
    pub fn deltas_published(&self) -> u64 {
        self.deltas_published
    }

    /// Copy-on-write handle on the data tree: forks the pages only while
    /// a published epoch still shares them, then repairs in place.
    #[expect(
        clippy::expect_used,
        reason = "the fork above restored unique ownership"
    )]
    fn data_mut(&mut self) -> &mut RStarTree<DataPoint> {
        if Arc::get_mut(&mut self.data).is_none() {
            self.data = Arc::new(self.data.fork());
        }
        Arc::get_mut(&mut self.data).expect("uniquely owned after fork")
    }

    /// Copy-on-write handle on the obstacle tree.
    #[expect(
        clippy::expect_used,
        reason = "the fork above restored unique ownership"
    )]
    fn obstacles_mut(&mut self) -> &mut RStarTree<Rect> {
        if Arc::get_mut(&mut self.obstacles).is_none() {
            self.obstacles = Arc::new(self.obstacles.fork());
        }
        Arc::get_mut(&mut self.obstacles).expect("uniquely owned after fork")
    }

    fn publish(&mut self, delta: SceneDelta) -> (u64, PatchReport) {
        self.deltas_published += 1;
        let scene = Scene::shared(Arc::clone(&self.data), Arc::clone(&self.obstacles));
        self.service.publish_delta(scene, &delta)
    }

    /// Inserts a data point (in-place R\*-tree repair), publishes the
    /// derived epoch and patches the standing set.
    pub fn insert_site(&mut self, p: DataPoint) -> (u64, PatchReport) {
        self.data_mut().insert(p);
        self.publish(SceneDelta::SiteInserted(p))
    }

    /// Removes the data point at `pos` (exact coordinate match); `None`
    /// when no point sits there (nothing is published).
    pub fn remove_site(&mut self, pos: Point) -> Option<(u64, PatchReport)> {
        let removed = self.data_mut().delete_by_mbr(&Rect::from_point(pos))?;
        Some(self.publish(SceneDelta::SiteRemoved(removed)))
    }

    /// Inserts an obstacle (in-place R\*-tree repair), publishes the
    /// derived epoch and patches the standing set.
    pub fn insert_obstacle(&mut self, r: Rect) -> (u64, PatchReport) {
        self.obstacles_mut().insert(r);
        self.publish(SceneDelta::ObstacleInserted(r))
    }

    /// Removes the obstacle matching `r` (exact coordinate match); `None`
    /// when no such obstacle exists (nothing is published).
    pub fn remove_obstacle(&mut self, r: &Rect) -> Option<(u64, PatchReport)> {
        let removed = self.obstacles_mut().delete_by_mbr(r)?;
        Some(self.publish(SceneDelta::ObstacleRemoved(removed)))
    }
}

/// 1e-6-style equivalence between two answers of the same family — the
/// oracle comparator of the live-equivalence suites. Distances compare
/// within `tol` (relative above 1, absolute below); identities are
/// compared where the family pins them and ties allow either side.
pub fn answers_equivalent(a: &Answer, b: &Answer, tol: f64) -> bool {
    let close = |x: f64, y: f64| {
        (x.is_infinite() && y.is_infinite() && x.signum() == y.signum())
            || (x - y).abs() <= tol * x.abs().max(y.abs()).max(1.0)
    };
    match (a, b) {
        (Answer::Conn(x), Answer::Conn(y)) => x.values_equivalent(y, tol),
        (Answer::Coknn(x), Answer::Coknn(y)) => {
            if x.query() != y.query() || x.k() != y.k() {
                return false;
            }
            // sample the union of both covers' boundaries: within one
            // joint interval both sides are fixed member sets
            let mut ts: Vec<f64> = x
                .entries()
                .iter()
                .chain(y.entries())
                .flat_map(|e| [e.interval.lo, e.interval.hi])
                .collect();
            ts.sort_by(f64::total_cmp);
            ts.dedup();
            ts.windows(2).all(|w| {
                let &[lo, hi] = w else { return true };
                let t = 0.5 * (lo + hi);
                let (va, vb) = (x.knn_at(t), y.knn_at(t));
                va.len() == vb.len() && va.iter().zip(&vb).all(|((_, da), (_, db))| close(*da, *db))
            })
        }
        (Answer::Onn(x), Answer::Onn(y))
        | (Answer::Range(x), Answer::Range(y))
        | (Answer::Rnn(x), Answer::Rnn(y)) => {
            x.len() == y.len() && x.iter().zip(y).all(|((_, da), (_, db))| close(*da, *db))
        }
        (Answer::Odist(x), Answer::Odist(y)) => close(*x, *y),
        (Answer::Route { dist: x, .. }, Answer::Route { dist: y, .. }) => close(*x, *y),
        (Answer::EDistanceJoin(x), Answer::EDistanceJoin(y)) => {
            x.len() == y.len()
                && x.iter()
                    .zip(y)
                    .all(|((_, _, da), (_, _, db))| close(*da, *db))
        }
        (Answer::ClosestPair(x), Answer::ClosestPair(y)) => match (x, y) {
            (None, None) => true,
            (Some((_, _, da)), Some((_, _, db))) => close(*da, *db),
            _ => false,
        },
        (Answer::Trajectory(x), Answer::Trajectory(y)) => {
            x.segments().len() == y.segments().len()
                && x.segments()
                    .iter()
                    .zip(y.segments())
                    .all(|((pa, ia), (pb, ib))| {
                        pa.map(|p| p.id) == pb.map(|p| p.id)
                            && close(ia.lo, ib.lo)
                            && close(ia.hi, ib.hi)
                    })
        }
        (Answer::TrajectoryKnn(x), Answer::TrajectoryKnn(y)) => {
            x.len() == y.len()
                && x.iter().zip(y).all(|(ra, rb)| {
                    answers_equivalent(&Answer::Coknn(ra.clone()), &Answer::Coknn(rb.clone()), tol)
                })
        }
        _ => false,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::query::Query;
    use conn_geom::Segment;

    fn points() -> Vec<DataPoint> {
        vec![
            DataPoint::new(0, Point::new(10.0, 20.0)),
            DataPoint::new(1, Point::new(50.0, 8.0)),
            DataPoint::new(2, Point::new(90.0, 25.0)),
            DataPoint::new(3, Point::new(45.0, 60.0)),
        ]
    }

    fn obstacles() -> Vec<Rect> {
        vec![
            Rect::new(30.0, 5.0, 40.0, 30.0),
            Rect::new(60.0, 10.0, 75.0, 18.0),
        ]
    }

    /// Re-runs a standing query cold on a fresh service over the live
    /// world's current state — the oracle every patch must match.
    fn cold_answer(live: &LiveScene, q: &Query) -> Answer {
        let svc = ConnService::new(Scene::new(live.points(), live.obstacles()));
        svc.execute(q).unwrap().answer
    }

    #[test]
    fn mutations_publish_derived_epochs() {
        let mut live = LiveScene::new(points(), obstacles(), ConnConfig::default());
        assert_eq!(live.service().current_epoch(), 0);
        let (e1, _) = live.insert_obstacle(Rect::new(0.0, 40.0, 5.0, 45.0));
        assert_eq!(e1, 1);
        let (e2, _) = live.insert_site(DataPoint::new(7, Point::new(5.0, 5.0)));
        assert_eq!(e2, 2);
        assert_eq!(live.num_points(), 5);
        assert_eq!(live.num_obstacles(), 3);
        assert_eq!(live.deltas_published(), 2);
        // absent targets publish nothing
        assert!(live.remove_site(Point::new(999.0, 999.0)).is_none());
        assert!(live
            .remove_obstacle(&Rect::new(900.0, 900.0, 901.0, 901.0))
            .is_none());
        assert_eq!(live.service().current_epoch(), 2);
        // old epochs retire as nothing pins them
        assert_eq!(
            live.service().epochs_live() + live.service().epochs_retired(),
            3
        );
    }

    /// Each of the four deltas repairs the one tree it touches and shares
    /// the other with the epoch before it: no delta rebuilds the scene.
    #[test]
    fn deltas_share_the_untouched_tree() {
        let mut live = LiveScene::new(points(), obstacles(), ConnConfig::default());
        let site = DataPoint::new(7, Point::new(5.0, 5.0));
        let wall = Rect::new(0.0, 40.0, 5.0, 45.0);
        for step in 0..4u64 {
            let before = live.service().pin();
            let (epoch, _) = match step {
                0 => live.insert_site(site),
                1 => live.insert_obstacle(wall),
                2 => live.remove_site(site.pos).unwrap(),
                _ => live.remove_obstacle(&wall).unwrap(),
            };
            assert_eq!(epoch, step + 1);
            let after = live.service().pin();
            let (old, new) = (before.scene(), after.scene());
            let data_shared = std::ptr::eq(old.data_tree(), new.data_tree());
            let obstacles_shared = std::ptr::eq(old.obstacle_tree(), new.obstacle_tree());
            // the pin keeps the old epoch alive, so the touched tree forks
            let site_delta = step % 2 == 0;
            assert_eq!(
                (data_shared, obstacles_shared),
                (!site_delta, site_delta),
                "step {step}: the untouched tree must be shared, the touched one repaired"
            );
        }
    }

    #[test]
    fn standing_onn_patches_match_cold_reruns() {
        let mut live = LiveScene::new(points(), obstacles(), ConnConfig::default());
        let q = Query::onn(Point::new(50.0, 0.0), 2).build().unwrap();
        let h = live.service().register(q.clone()).unwrap();

        // far-away obstacle: certificate holds, answer kept
        let (_, report) = live.insert_obstacle(Rect::new(400.0, 400.0, 410.0, 410.0));
        assert_eq!(report.kept, 1, "{report:?}");
        assert!(answers_equivalent(
            &live.service().standing(&h).unwrap(),
            &cold_answer(&live, &q),
            1e-6
        ));

        // close site insertion: tuple patch, one distance evaluation
        let (_, report) = live.insert_site(DataPoint::new(8, Point::new(52.0, 2.0)));
        assert_eq!(report.tuple_patched, 1, "{report:?}");
        assert!(answers_equivalent(
            &live.service().standing(&h).unwrap(),
            &cold_answer(&live, &q),
            1e-6
        ));

        // removing a resident member: recompute
        let (_, report) = live.remove_site(Point::new(52.0, 2.0)).unwrap();
        assert_eq!(report.recomputed, 1, "{report:?}");
        assert!(answers_equivalent(
            &live.service().standing(&h).unwrap(),
            &cold_answer(&live, &q),
            1e-6
        ));

        // blocking obstacle straight through the neighborhood: recompute
        let (_, report) = live.insert_obstacle(Rect::new(44.0, -5.0, 56.0, 6.0));
        assert_eq!(report.recomputed, 1, "{report:?}");
        assert!(answers_equivalent(
            &live.service().standing(&h).unwrap(),
            &cold_answer(&live, &q),
            1e-6
        ));

        assert!(live.service().unregister(h));
        assert_eq!(live.service().standing_count(), 0);
        assert!(live.service().standing(&h).is_none());
    }

    #[test]
    fn standing_odist_is_kept_outside_its_ellipse_and_rerun_inside() {
        let mut live = LiveScene::new(points(), obstacles(), ConnConfig::default());
        let (a, b) = (Point::new(0.0, 0.0), Point::new(100.0, 0.0));
        let odist = Query::odist(a, b).build().unwrap();
        let route = Query::route(a, b).build().unwrap();
        let h = live.service().register(odist.clone()).unwrap();
        let hr = live.service().register(route.clone()).unwrap();
        let d0 = live.service().standing(&h).unwrap().distance().unwrap();
        assert!(d0 >= 100.0);

        // far obstacle: outside the ellipse, kept without a search
        let sight_tests = live.service().reuse_totals().sight_tests;
        let (_, report) = live.insert_obstacle(Rect::new(400.0, 400.0, 410.0, 410.0));
        assert_eq!(report.kept, 2, "{report:?}");
        assert_eq!(live.service().reuse_totals().sight_tests, sight_tests);

        // wall through the corridor: re-run, longer distance, same path
        let wall = Rect::new(48.0, -20.0, 52.0, 40.0);
        let (_, report) = live.insert_obstacle(wall);
        assert_eq!(report.recomputed, 2, "{report:?}");
        let d1 = live.service().standing(&h).unwrap().distance().unwrap();
        assert!(d1 > d0);
        for (hq, q) in [(&h, &odist), (&hr, &route)] {
            let got = live.service().standing(hq).unwrap();
            let want = cold_answer(&live, q);
            assert!(answers_equivalent(&got, &want, 1e-6));
            assert_eq!(got.path(), want.path());
        }

        // take it back out: re-run, d0 again
        let (_, report) = live.remove_obstacle(&wall).unwrap();
        assert_eq!(report.recomputed, 2, "{report:?}");
        let d2 = live.service().standing(&h).unwrap().distance().unwrap();
        assert!((d2 - d0).abs() <= 1e-6 * d0.max(1.0));

        // site mutations never touch a point-to-point answer
        let (_, report) = live.insert_site(DataPoint::new(9, Point::new(50.0, 1.0)));
        assert_eq!(report.kept, 2, "{report:?}");
    }

    #[test]
    fn walled_in_odist_reruns_when_a_wall_goes() {
        // target boxed in by overlapping walls
        let walls = vec![
            Rect::new(40.0, 40.0, 60.0, 45.0),
            Rect::new(40.0, 55.0, 60.0, 60.0),
            Rect::new(40.0, 40.0, 45.0, 60.0),
            Rect::new(55.0, 40.0, 60.0, 60.0),
        ];
        let mut live = LiveScene::new(points(), walls.clone(), ConnConfig::default());
        let q = Query::odist(Point::new(0.0, 0.0), Point::new(50.0, 50.0))
            .build()
            .unwrap();
        let h = live.service().register(q.clone()).unwrap();
        assert_eq!(
            live.service().standing(&h).unwrap().distance(),
            Some(f64::INFINITY)
        );

        // an unreachable answer has no finite ellipse: every obstacle
        // delta re-runs, a far one included
        let (_, report) = live.insert_obstacle(Rect::new(400.0, 400.0, 410.0, 410.0));
        assert_eq!(report.recomputed, 1, "{report:?}");
        assert_eq!(
            live.service().standing(&h).unwrap().distance(),
            Some(f64::INFINITY)
        );

        let (_, report) = live.remove_obstacle(&walls[1]).unwrap();
        assert_eq!(report.recomputed, 1, "{report:?}");
        let got = live.service().standing(&h).unwrap();
        assert!(got.distance().unwrap().is_finite(), "{got:?}");
        assert!(answers_equivalent(&got, &cold_answer(&live, &q), 1e-6));
    }

    #[test]
    fn standing_conn_certificate_skips_far_deltas() {
        let mut live = LiveScene::new(points(), obstacles(), ConnConfig::default());
        let seg = Segment::new(Point::new(0.0, 0.0), Point::new(100.0, 0.0));
        let q = Query::conn(seg).build().unwrap();
        let h = live.service().register(q.clone()).unwrap();

        let (_, report) = live.insert_obstacle(Rect::new(500.0, 500.0, 510.0, 510.0));
        assert_eq!(report.kept, 1, "{report:?}");
        let (_, report) = live.insert_site(DataPoint::new(11, Point::new(48.0, 1.0)));
        assert_eq!(report.recomputed, 1, "{report:?}");
        assert!(answers_equivalent(
            &live.service().standing(&h).unwrap(),
            &cold_answer(&live, &q),
            1e-6
        ));
    }

    /// A removal the kernel never loaded keeps it warm; one it loaded
    /// restarts it, and the restarted run is a fresh kernel's, NOE included.
    #[test]
    fn standing_segment_kernels_rerun_warm_and_follow_removals() {
        let scene = Scene::new(points(), obstacles());
        let seg = Segment::new(Point::new(0.0, 0.0), Point::new(100.0, 0.0));
        let mut kernel = SegmentKernel::new(ConnConfig::default());
        assert!(kernel.run(&scene, &seg, 1).1.noe > 0);
        let warm = |kernel: &mut SegmentKernel| {
            let (_, stats) = kernel.run(&scene, &seg, 1);
            (stats.noe, stats.reuse.graph_reuses)
        };
        assert_eq!(
            warm(&mut kernel),
            (0, 1),
            "a warm re-run loads nothing twice"
        );
        kernel.forget(&Rect::new(500.0, 500.0, 510.0, 510.0));
        assert_eq!(
            warm(&mut kernel),
            (0, 1),
            "an unloaded removal keeps it warm"
        );

        let gone = obstacles()[0];
        assert!(kernel.engine.parts().1.loaded.contains(&gone));
        kernel.forget(&gone);
        let shrunk = Scene::new(points(), obstacles()[1..].to_vec());
        let (got, restarted) = kernel.run(&shrunk, &seg, 1);
        let (want, fresh) = SegmentKernel::new(ConnConfig::default()).run(&shrunk, &seg, 1);
        assert_eq!(format!("{got:?}"), format!("{want:?}"));
        assert_eq!(restarted.noe, fresh.noe);
        assert!(restarted.noe > 0, "a restarted run loads afresh");

        // through the service: every mutation near the segment, a twin of an
        // existing obstacle included, against the cold rebuild
        let mut live = LiveScene::new(points(), obstacles(), ConnConfig::default());
        let queries = [
            Query::conn(seg).build().unwrap(),
            Query::coknn(seg, 2).build().unwrap(),
        ];
        let handles = queries.clone().map(|q| live.service().register(q).unwrap());
        let (wall, twin) = (Rect::new(48.0, -20.0, 52.0, 12.0), obstacles()[0]);
        let site = DataPoint::new(11, Point::new(48.0, 1.0));
        for step in 0..7 {
            let report = match step {
                0 => live.insert_obstacle(wall).1,
                1 => live.insert_site(site).1,
                2 => live.insert_obstacle(twin).1,
                3 | 6 => live.remove_obstacle(&twin).unwrap().1,
                4 => live.remove_obstacle(&wall).unwrap().1,
                _ => live.remove_site(site.pos).unwrap().1,
            };
            assert_eq!(report.recomputed, 2, "step {step}: {report:?}");
            for (q, h) in queries.iter().zip(&handles) {
                let got = live.service().standing(h).unwrap();
                let want = cold_answer(&live, q);
                assert!(answers_equivalent(&got, &want, 1e-9), "step {step}");
            }
        }
    }

    /// A graph only grows between restarts: 20 insert/remove cycles of an
    /// obstacle that a standing CONN's kernel loads leave the kernel's
    /// graph no larger than the scene, and the answer equal to a cold run.
    #[test]
    fn standing_kernel_graph_stays_bounded_under_churn() {
        let mut live = LiveScene::new(points(), obstacles(), ConnConfig::default());
        let q = Query::conn(Segment::new(Point::new(0.0, 0.0), Point::new(100.0, 0.0)))
            .build()
            .unwrap();
        let h = live.service().register(q.clone()).unwrap();
        let kernel_obstacles = |live: &LiveScene| -> Vec<Rect> {
            let mut inner = lock(&live.service().standing_registry().inner);
            let kernel = inner.entries[0].segment.as_mut().unwrap();
            kernel.engine.parts().1.g.obstacles().to_vec()
        };
        let wall = Rect::new(48.0, 2.0, 52.0, 12.0);
        for cycle in 0..20 {
            for insert in [true, false] {
                if insert {
                    live.insert_obstacle(wall);
                    assert!(kernel_obstacles(&live).contains(&wall), "cycle {cycle}");
                } else {
                    live.remove_obstacle(&wall).unwrap();
                }
                let held = kernel_obstacles(&live).len();
                assert!(
                    held <= live.num_obstacles(),
                    "cycle {cycle}: the kernel holds {held} obstacles, the scene {}",
                    live.num_obstacles()
                );
                let got = live.service().standing(&h).unwrap();
                assert!(answers_equivalent(&got, &cold_answer(&live, &q), 1e-9));
            }
        }
    }
}
