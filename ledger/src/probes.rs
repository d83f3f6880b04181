//! Unit-cost probes of the traced pass: direct, timed calls into one layer
//! on inputs captured from sampled ops of the workload — the NPE points and
//! NOE obstacles the query actually touched. Estimated layer time is then
//! `count x unit cost`, with counts taken from `Response.stats`. These are
//! estimates from outside; spans inside the program are a later change.

// lint:allow-file(no-wallclock-in-kernels): this is the benchmark harness, the bench layer the rule sends clocks to; it times calls into the layers from outside

use std::hint::black_box;
use std::sync::Arc;
use std::time::Instant;

use conn_core::{
    ConnService, DataPoint, Query, QueryEngine, QueryKind, QueryStats, Scene, ShardSpec,
};
use conn_geom::{batch, Point, Rect, RectLanes, Segment};
use conn_index::{DistShape, RStarTree, DEFAULT_PAGE_SIZE};
use conn_vgraph::{DijkstraEngine, NodeKind, VisGraph};

use crate::metrics::Report;
use crate::ops::{Fam, Op, World};
use crate::util::{mean, p50_p95};

/// Ops sampled per workload for the unit-cost probes.
pub const PROBE_OPS: usize = 64;
/// Obstacles of one op handed to the graph probes; a cold `run_all` builds
/// the full adjacency, which is quadratic in this.
const GRAPH_PROBE_OBSTACLES: usize = 160;

/// One op of the traced pass with what it reported.
pub struct Sampled<'a> {
    pub op: &'a Op,
    pub stats: &'a QueryStats,
}

/// `n` evenly strided picks.
pub fn stride<T>(items: &[T], n: usize) -> impl Iterator<Item = &T> {
    let step = (items.len() / n.max(1)).max(1);
    items.iter().step_by(step).take(n)
}

fn secs(f: impl FnOnce()) -> f64 {
    let t = Instant::now();
    f();
    t.elapsed().as_secs_f64()
}

/// The anchor a segment- or point-anchored op streams its trees around.
enum Shape {
    Seg(Segment),
    Pt(Point),
}

fn shape_of(q: &Query) -> Option<Shape> {
    match q.kind() {
        QueryKind::Conn { q } | QueryKind::Coknn { q, .. } => Some(Shape::Seg(*q)),
        QueryKind::Onn { s, .. } | QueryKind::Range { s, .. } => Some(Shape::Pt(*s)),
        _ => None,
    }
}

/// Pulls the op's NPE points and NOE obstacles off the trees the way the
/// kernel does (ascending mindist); returns the obstacles, the items pulled
/// and the seconds it took.
fn replay_retrieval<Q: DistShape + Copy>(
    dt: &RStarTree<DataPoint>,
    ot: &RStarTree<Rect>,
    shape: Q,
    stats: &QueryStats,
) -> (Vec<Rect>, usize, f64) {
    let t = Instant::now();
    let points = dt.nearest_iter(shape).take(stats.npe as usize).count();
    let obstacles: Vec<Rect> = ot
        .nearest_iter(shape)
        .take(stats.noe as usize)
        .map(|(r, _)| r)
        .collect();
    let s = t.elapsed().as_secs_f64();
    (black_box(obstacles), points + stats.noe as usize, s)
}

/// Mean per-query counts over the whole traced pass: the rows that come
/// straight from `Response.stats`.
pub fn stat_rows(report: &mut Report, stats: &[&QueryStats]) {
    let n = stats.len().max(1) as f64;
    let per_q = |f: &dyn Fn(&QueryStats) -> u64| stats.iter().map(|s| f(s)).sum::<u64>() as f64 / n;
    report.set_layer("index.data_reads_per_q", per_q(&|s| s.data_io.reads));
    report.set_layer("index.data_faults_per_q", per_q(&|s| s.data_io.faults));
    report.set_layer("index.obst_reads_per_q", per_q(&|s| s.obstacle_io.reads));
    report.set_layer("index.obst_faults_per_q", per_q(&|s| s.obstacle_io.faults));
    report.set_layer(
        "core.query_cost_ms_per_q",
        stats.iter().map(|s| s.total_seconds()).sum::<f64>() * 1e3 / n,
    );
    report.set_layer("vgraph.noe_per_q", per_q(&|s| s.noe));
    report.set_layer("vgraph.svg_nodes_per_q", per_q(&|s| s.svg_nodes));
    report.set_layer("vgraph.sight_tests_per_q", per_q(&|s| s.reuse.sight_tests));
    report.set_layer(
        "vgraph.sweep_events_per_q",
        per_q(&|s| s.reuse.sweep_events),
    );
    report.set_layer("core.npe_per_q", per_q(&|s| s.npe));
    report.set_layer("core.result_tuples_per_q", per_q(&|s| s.result_tuples));
    report.set_layer(
        "core.label_continuations_per_q",
        per_q(&|s| s.reuse.label_continuations),
    );
    report.set_layer(
        "core.label_reseeds_per_q",
        per_q(&|s| s.reuse.label_reseeds),
    );
    report.set_layer(
        "core.label_retargets_per_q",
        per_q(&|s| s.reuse.label_retargets),
    );
    report.set_layer("core.graph_reuses_per_q", per_q(&|s| s.reuse.graph_reuses));
}

/// Index, geometry and visibility-graph unit costs on the sampled ops, and
/// the `count x unit` estimates; then the remainder rows.
pub fn kernel_rows(
    report: &mut Report,
    service: &ConnService<'_>,
    sampled: &[Sampled<'_>],
    mean_wall_ms: f64,
    dispatch_us: f64,
) {
    let pin = service.pin();
    let (dt, ot) = (pin.scene().data_tree(), pin.scene().obstacle_tree());
    let cfg = *service.config();
    let (mut items, mut retrieval_s) = (0usize, 0.0);
    let (mut loaded, mut load_s) = (0usize, 0.0);
    let (mut nodes, mut adj_s, mut settle_s) = (0usize, 0.0, 0.0);
    let (mut rect_tests, mut sight_s) = (0usize, 0.0);
    for s in sampled {
        let Some(shape) = shape_of(&s.op.query) else {
            continue;
        };
        let (obstacles, n, secs_taken) = match shape {
            Shape::Seg(q) => replay_retrieval(dt, ot, q, s.stats),
            Shape::Pt(p) => replay_retrieval(dt, ot, p, s.stats),
        };
        items += n;
        retrieval_s += secs_taken;
        let obstacles = &obstacles[..obstacles.len().min(GRAPH_PROBE_OBSTACLES)];
        if obstacles.is_empty() {
            continue;
        }

        // a fresh graph loaded with exactly these obstacles
        let mut g = VisGraph::new(cfg.vgraph_cell);
        g.set_sweep_mode(cfg.sweep);
        load_s += secs(|| {
            for r in obstacles {
                g.add_obstacle(*r);
            }
        });
        loaded += obstacles.len();

        // cold run_all = adjacency build + settlement; warm = settlement
        let anchor = match shape {
            Shape::Seg(q) => q.a,
            Shape::Pt(p) => p,
        };
        let src = g.add_point(anchor, NodeKind::Endpoint);
        let mut dijkstra = DijkstraEngine::new(&g, src);
        let cold = secs(|| dijkstra.run_all(&mut g));
        dijkstra.prepare(&g, src);
        let warm = secs(|| dijkstra.run_all(&mut g));
        nodes += g.num_nodes();
        adj_s += (cold - warm).max(0.0);
        settle_s += warm;

        // the batched sight kernel over the same obstacles, on unblocked
        // probe segments so every rectangle is tested
        let lanes = RectLanes::from_rects(obstacles);
        let ids: Vec<u32> = (0..obstacles.len() as u32).collect();
        let probes: Vec<Segment> = match shape {
            Shape::Seg(q) => (0..16)
                .map(|i| Segment::new(q.at(q.len() * i as f64 / 17.0), q.b))
                .collect(),
            Shape::Pt(p) => vec![Segment::new(p, Point::new(p.x + 1e-3, p.y + 1e-3))],
        };
        sight_s += secs(|| {
            for probe in &probes {
                black_box(batch::blocks_any(probe, &lanes, &ids));
            }
        });
        rect_tests += probes.len() * ids.len();
    }
    let per = |total_s: f64, n: usize, scale: f64| {
        if n == 0 {
            0.0
        } else {
            total_s * scale / n as f64
        }
    };
    let nn_us = per(retrieval_s, items, 1e6);
    let load_us = per(load_s, loaded, 1e6);
    let sight_ns = per(sight_s, rect_tests, 1e9);
    report.set_layer("index.nn_us_per_item", nn_us);
    report.set_layer("vgraph.load_us_per_obstacle", load_us);
    report.set_layer("vgraph.adj_us_per_node", per(adj_s, nodes, 1e6));
    report.set_layer("vgraph.settle_us_per_label", per(settle_s, nodes, 1e6));
    report.set_layer("geom.sight_ns", sight_ns);

    let index_ms =
        (report.layer("core.npe_per_q") + report.layer("vgraph.noe_per_q")) * nn_us / 1e3;
    let load_ms = report.layer("vgraph.noe_per_q") * load_us / 1e3;
    let sight_ms = report.layer("vgraph.sight_tests_per_q") * sight_ns / 1e6;
    report.set_layer("index.ms_per_q", index_ms);
    report.set_layer("vgraph.load_ms_per_q", load_ms);
    report.set_layer("geom.sight_ms_per_q", sight_ms);
    report.set_layer("service.dispatch_us_per_q", dispatch_us);

    // what no unit-cost row explains: the kernel's own ior/cpl/rlu/split
    // work, plus the error of estimating from outside
    let attributed = index_ms + load_ms + sight_ms;
    if mean_wall_ms > 0.0 {
        report.set_layer(
            "trace.unattributed_frac",
            (mean_wall_ms - attributed - dispatch_us / 1e3) / mean_wall_ms,
        );
    }
    let direct = engine_direct_ms(service, sampled);
    if direct > 0.0 {
        report.set_layer("core.engine_direct_ms_per_q", direct);
        let sampled_share = |f: &dyn Fn(&QueryStats) -> u64, unit: f64| {
            let segs: Vec<f64> = sampled
                .iter()
                .filter(|s| matches!(s.op.fam, Fam::Conn | Fam::Coknn))
                .map(|s| f(s.stats) as f64 * unit)
                .collect();
            mean(&segs)
        };
        let explained = sampled_share(&|s| s.npe + s.noe, nn_us / 1e3)
            + sampled_share(&|s| s.noe, load_us / 1e3)
            + sampled_share(&|s| s.reuse.sight_tests, sight_ns / 1e6);
        report.set_layer("core.kernel_self_ms_per_q", direct - explained);
    }
    report.set_layer("trace.probe_ops", sampled.len() as f64);
}

/// `QueryEngine::conn` / `coknn` called directly (no service, no pool) on
/// the sampled segment ops, on one warm engine: mean ms, 0 when the sample
/// holds none.
fn engine_direct_ms(service: &ConnService<'_>, sampled: &[Sampled<'_>]) -> f64 {
    let pin = service.pin();
    let (dt, ot) = (pin.scene().data_tree(), pin.scene().obstacle_tree());
    let mut engine = QueryEngine::new(*service.config());
    let mut ms = Vec::new();
    for s in sampled {
        let t = Instant::now();
        match s.op.query.kind() {
            QueryKind::Conn { q } => drop(black_box(engine.conn(dt, ot, q))),
            QueryKind::Coknn { q, k } => drop(black_box(engine.coknn(dt, ot, q, *k))),
            _ => continue,
        }
        ms.push(t.elapsed().as_secs_f64() * 1e3);
    }
    mean(&ms)
}

/// Trajectory sessions leg by leg, against the same legs as lone CONN
/// queries.
pub fn session_rows(report: &mut Report, service: &ConnService<'_>, trajectories: &[&Op]) {
    let pin = service.pin();
    let cfg = *service.config();
    let mut leg_ms = Vec::new();
    let (mut noe, mut cold_ms) = (0u64, 0.0);
    for op in trajectories {
        let QueryKind::Trajectory { route, .. } = op.query.kind() else {
            continue;
        };
        let v = route.vertices();
        let mut session = pin.open_session(v[0], cfg);
        for &to in &v[1..] {
            let t = Instant::now();
            black_box(session.push_leg(to));
            leg_ms.push(t.elapsed().as_secs_f64() * 1e3);
        }
        noe += session.stats().noe;
        for leg in v.windows(2) {
            let lone = Query::conn(Segment::new(leg[0], leg[1]))
                .build()
                .expect("leg validates");
            let t = Instant::now();
            drop(black_box(service.execute(&lone)));
            cold_ms += t.elapsed().as_secs_f64() * 1e3;
        }
    }
    if leg_ms.is_empty() {
        return;
    }
    let warm_ms: f64 = leg_ms.iter().sum();
    report.set_layer("session.noe_per_leg", noe as f64 / leg_ms.len() as f64);
    report.set_layer("session.cold_ratio", cold_ms / warm_ms);
    report.set_layer("session.leg_p50_ms", p50_p95(&mut leg_ms).0);
}

/// The sampled CONN ops on a 2x2 sharded service against the unsharded one.
pub fn shard_rows(report: &mut Report, world: &World, service: &ConnService<'_>, ops: &[&Op]) {
    let t = Instant::now();
    let spec = ShardSpec::new(2, 2, 500.0).expect("2x2 tiling is valid");
    let sharded = ConnService::sharded(
        Scene::new(world.points.clone(), world.obstacles.clone()),
        *service.config(),
        spec,
    );
    report.set_layer("shard.build_s", t.elapsed().as_secs_f64());
    let (mut plain_s, mut shard_s, mut local) = (0.0, 0.0, 0u64);
    for op in ops {
        plain_s += secs(|| drop(black_box(service.execute(&op.query))));
        let t = Instant::now();
        if let Ok(r) = sharded.execute(&op.query) {
            local += r.stats.reuse.shard_local;
        }
        shard_s += t.elapsed().as_secs_f64();
    }
    if !ops.is_empty() && plain_s > 0.0 {
        report.set_layer("shard.exec_ratio", shard_s / plain_s);
        report.set_layer("shard.local_frac", local as f64 / ops.len() as f64);
    }
}

/// Pin and publish costs on a service of shared trees (what a live scene
/// publishes), and the epoch ledger afterwards.
pub fn epoch_rows(report: &mut Report, world: &World) {
    let data = Arc::new(RStarTree::bulk_load(
        world.points.clone(),
        DEFAULT_PAGE_SIZE,
    ));
    let obstacles = Arc::new(RStarTree::bulk_load(
        world.obstacles.clone(),
        DEFAULT_PAGE_SIZE,
    ));
    let shared = || Scene::shared(Arc::clone(&data), Arc::clone(&obstacles));
    let service = ConnService::new(shared());
    const PINS: usize = 100_000;
    let pin_s = secs(|| {
        for _ in 0..PINS {
            black_box(service.pin());
        }
    });
    const PUBLISHES: usize = 200;
    let held = service.pin();
    let mut live_max = service.epochs_live();
    let publish_s = secs(|| {
        for _ in 0..PUBLISHES {
            service.publish(shared());
            live_max = live_max.max(service.epochs_live());
        }
    });
    drop(held);
    report.set_layer("epoch.pin_ns", pin_s * 1e9 / PINS as f64);
    report.set_layer("epoch.publish_us", publish_s * 1e6 / PUBLISHES as f64);
    report.set_layer("epoch.live_max", live_max as f64);
    report.set_layer("epoch.retired", service.epochs_retired() as f64);
}

/// Serial loop against `execute_batch_threads` over the same mixed ops.
pub fn pool_rows(report: &mut Report, service: &ConnService<'_>, ops: &[&Op], threads: usize) {
    let queries: Vec<Query> = ops.iter().map(|o| o.query.clone()).collect();
    let serial_s = secs(|| {
        for q in &queries {
            drop(black_box(service.execute(q)));
        }
    });
    let batch_s = secs(|| drop(black_box(service.execute_batch_threads(&queries, threads))));
    if batch_s > 0.0 {
        report.set_layer("pool.batch_speedup", serial_s / batch_s);
    }
}
