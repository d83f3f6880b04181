//! `live_churn`: one thread over a `LiveScene` holding 24 standing queries
//! (4 each of conn / coknn / onn / range / odist / route). Each cycle is
//! `insert_obstacle -> CONN read -> insert_site -> 3 x ONN read ->
//! remove_obstacle -> CONN read -> remove_site`, every call timed on its
//! own. Half of the deltas are re-centred inside a standing query's
//! certificate region (uniform deltas are all `kept` — no patch work); all
//! of them stay clear of standing segments and anchors, of existing
//! obstacles and points, and of the cycle's own reads, so every path the
//! workload asks about stays in free space.

// lint:allow-file(no-wallclock-in-kernels): this is the benchmark harness, the bench layer the rule sends clocks to; it times calls into the layers from outside

use std::hint::black_box;
use std::time::Instant;

use conn_core::{
    answers_equivalent, ConnConfig, ConnService, DataPoint, LiveScene, PatchReport, QueryKind,
    Scene, StandingHandle,
};
use conn_datasets::{ObstacleLookup, SPACE};
use conn_geom::{Point, Rect, Segment};
use conn_index::{RStarTree, DEFAULT_PAGE_SIZE};

use crate::metrics::{Report, FAMILY_ROWS, WORKLOADS};
use crate::ops::{self, Done, Fam, Op, World};
use crate::probes;
use crate::serial::stats_of;
use crate::trace::{Tracer, NO_PARENT};
use crate::util::{mean, mid, p50_p95, percentile, sub_seed, tail, Digest, SplitMix64};
use crate::verify::{self, Verdict, CROSS_CHECK_EVERY};
use crate::Ctx;

const STANDING: usize = 24;
/// Cycles per second of budget (120 at 20 s).
const CYCLES_PER_SECOND: f64 = 6.0;
/// Two CONN reads and three ONN reads beside the four delta calls.
const READS_PER_CYCLE: usize = 5;
/// Ids of inserted sites start above every generated point id.
const FRESH_ID: u32 = 1_000_000;

/// The inputs of one cycle.
struct Cycle {
    obstacle: Rect,
    site: DataPoint,
    read_after_insert: Op,
    /// Three anchors: a 0.2 ms read needs the samples.
    onn_reads: [Op; 3],
    read_after_remove: Op,
}

/// Segment families stand on `segs`; odist and route on `pairs`, endpoints
/// that were not picked for seeing each other.
fn standing_queries(segs: &[Segment], pairs: &[Segment]) -> Vec<Op> {
    segs.iter()
        .zip(pairs)
        .enumerate()
        .map(|(i, (s, pair))| match i % 6 {
            0 => ops::conn(s),
            1 => ops::coknn(s),
            2 => ops::onn(s.a),
            3 => ops::range(s),
            4 => ops::odist(pair),
            _ => ops::route(pair),
        })
        .collect()
}

/// The rule of `repro live`: an obstacle on a standing conn/coknn segment
/// or swallowing a point anchor makes sub-queries unreachable by definition.
fn clear_of_standing(r: &Rect, standing: &[Op]) -> bool {
    standing.iter().all(|op| match op.query.kind() {
        QueryKind::Conn { q } | QueryKind::Coknn { q, .. } => r.mindist_segment(q) > 0.0,
        QueryKind::Onn { s, .. } | QueryKind::Range { s, .. } => r.mindist_point(*s) > 0.0,
        QueryKind::Odist { a, b } | QueryKind::Route { a, b } => {
            r.mindist_point(*a) > 0.0 && r.mindist_point(*b) > 0.0
        }
        _ => true,
    })
}

/// A point of the standing query's anchor: inside its certificate region
/// for any offset smaller than the answer's worst distance.
fn anchor_of(op: &Op, rng: &mut SplitMix64) -> Point {
    match op.query.kind() {
        QueryKind::Conn { q } | QueryKind::Coknn { q, .. } => q.at(rng.next_f64() * q.len()),
        QueryKind::Odist { a, b } | QueryKind::Route { a, b } => a.lerp(*b, rng.next_f64()),
        QueryKind::Onn { s, .. } | QueryKind::Range { s, .. } => *s,
        _ => Point::new(0.0, 0.0),
    }
}

fn offset(from: Point, lo: f64, hi: f64, rng: &mut SplitMix64) -> Point {
    let (radius, theta) = (
        lo + (hi - lo) * rng.next_f64(),
        std::f64::consts::TAU * rng.next_f64(),
    );
    Point::new(from.x + radius * theta.cos(), from.y + radius * theta.sin())
}

fn inside_space(r: &Rect) -> bool {
    SPACE.contains(Point::new(r.min_x, r.min_y)) && SPACE.contains(Point::new(r.max_x, r.max_y))
}

fn generate_cycles(
    world: &World,
    standing: &[Op],
    seed: u64,
    cycles: usize,
    d: &mut Digest,
) -> Vec<Cycle> {
    let lookup = ObstacleLookup::build(&world.obstacles);
    let point_tree = RStarTree::bulk_load(world.points.clone(), DEFAULT_PAGE_SIZE);
    let mut rng = SplitMix64::new(sub_seed(seed, 22));
    // as many as the scene holds, so the footprints have the scene's dimensions
    let shapes = conn_datasets::la_like(world.obstacles.len().max(4 * cycles), sub_seed(seed, 23));
    let blind_sites =
        conn_datasets::uniform_points(2 * cycles, sub_seed(seed, 24), &world.obstacles);
    let reads = ops::segments(world, 2 * cycles, sub_seed(seed, 25));
    let onn_at = conn_datasets::uniform_points(3 * cycles, sub_seed(seed, 26), &world.obstacles);
    let (mut next_shape, mut next_site) = (0usize, 0usize);

    let mut out = Vec::with_capacity(cycles);
    for i in 0..cycles {
        let (a, b) = (reads[2 * i], reads[2 * i + 1]);
        let o = [onn_at[3 * i], onn_at[3 * i + 1], onn_at[3 * i + 2]];
        let target = &standing[(i / 2) % standing.len()];
        let obstacle_ok = |r: &Rect| {
            inside_space(r)
                && !lookup.rect_intersects_any(r)
                && point_tree.range(r).is_empty()
                && clear_of_standing(r, standing)
                && r.mindist_segment(&a) > 0.0
                && r.mindist_segment(&b) > 0.0
                && o.iter().all(|p| r.mindist_point(*p) > 0.0)
        };
        // odd cycles: a paper-shaped footprint (halved until it fits the gaps
        // of the field) next to the standing query's anchor
        let mut obstacle = None;
        if i % 2 == 1 {
            let shape = shapes[next_shape % shapes.len()];
            next_shape += 1;
            'fit: for shrink in [1.0, 0.5, 0.25] {
                let (hw, hh) = (0.5 * shrink * shape.width(), 0.5 * shrink * shape.height());
                for _ in 0..12 {
                    let c = offset(anchor_of(target, &mut rng), 3.0, 25.0, &mut rng);
                    let r = Rect::new(c.x - hw, c.y - hh, c.x + hw, c.y + hh);
                    if obstacle_ok(&r) {
                        obstacle = Some(r);
                        break 'fit;
                    }
                }
            }
        }
        let obstacle = obstacle.unwrap_or_else(|| loop {
            let r = shapes[next_shape % shapes.len()];
            next_shape += 1;
            if obstacle_ok(&r) {
                break r;
            }
        });

        let site_ok = |p: Point| {
            SPACE.contains(p) && !lookup.point_in_interior(p) && obstacle.mindist_point(p) > 0.0
        };
        let mut site = None;
        if i % 2 == 1 {
            site = (0..12)
                .map(|_| offset(anchor_of(target, &mut rng), 1.0, 15.0, &mut rng))
                .find(|p| site_ok(*p));
        }
        let site = site.unwrap_or_else(|| loop {
            let p = blind_sites[next_site % blind_sites.len()];
            next_site += 1;
            if site_ok(p) {
                break p;
            }
        });

        d.f64s(&[
            obstacle.min_x,
            obstacle.min_y,
            obstacle.max_x,
            obstacle.max_y,
            site.x,
            site.y,
        ]);
        ops::digest_segments(d, &[a, b]);
        ops::digest_points(d, &o);
        out.push(Cycle {
            obstacle,
            site: DataPoint::new(FRESH_ID + i as u32, site),
            read_after_insert: ops::conn(&a),
            onn_reads: [ops::onn(o[0]), ops::onn(o[1]), ops::onn(o[2])],
            read_after_remove: ops::conn(&b),
        });
    }
    out
}

/// Generate + bulk-load + service construction + standing registration.
fn build_live(
    seed: u64,
    n: usize,
    standing: &[Op],
    register_s: &mut Vec<f64>,
) -> ((LiveScene, Vec<StandingHandle>, u64), f64, f64) {
    let t = Instant::now();
    let world = ops::generate_world(seed, n);
    let gen_s = t.elapsed().as_secs_f64();
    let t = Instant::now();
    let live = LiveScene::new(world.points, world.obstacles, ConnConfig::default());
    let bulk_s = t.elapsed().as_secs_f64();
    let t = Instant::now();
    let mut failed = 0;
    let handles = standing
        .iter()
        .filter_map(|op| {
            live.service()
                .register(op.query.clone())
                .map_err(|_| failed += 1)
                .ok()
        })
        .collect();
    register_s.push(t.elapsed().as_secs_f64());
    ((live, handles, failed), gen_s, bulk_s)
}

/// Everything the timed cycles produced.
#[derive(Default)]
struct Churn {
    write_ms: Vec<f64>,
    reads: Vec<Op>,
    read_done: Vec<Done>,
    patches: Vec<PatchReport>,
    /// Deltas that found nothing to remove, and failed inline cross-checks.
    verdict: Verdict,
}

impl Churn {
    /// Every timed call of the run, writes first.
    fn all_ms(&self) -> Vec<f64> {
        let reads = self.read_done.iter().map(|d| d.ms);
        self.write_ms.iter().copied().chain(reads).collect()
    }
}

fn run_cycles(
    live: &mut LiveScene,
    cycles: &[Cycle],
    lookup: &ObstacleLookup,
    tracer: &mut Tracer,
    check: bool,
) -> Churn {
    let mut churn = Churn::default();
    for (i, c) in cycles.iter().enumerate() {
        let id = i as u64;
        let span = tracer.begin("op.cycle", id, NO_PARENT);
        macro_rules! write {
            ($name:literal, $call:expr) => {{
                let call = tracer.begin($name, id, span);
                let t = Instant::now();
                let patched: Option<(u64, PatchReport)> = $call;
                churn.write_ms.push(t.elapsed().as_secs_f64() * 1e3);
                tracer.end(call);
                match patched {
                    Some((_, report)) => churn.patches.push(report),
                    None => churn
                        .verdict
                        .fail(format!("cycle {i}: {} found nothing", $name)),
                }
            }};
        }
        let read = |live: &LiveScene, op: &Op, churn: &mut Churn, tracer: &mut Tracer| {
            let call = tracer.begin("service.execute", id, span);
            let t = Instant::now();
            let outcome = live.service().execute(&op.query);
            let ms = t.elapsed().as_secs_f64() * 1e3;
            tracer.end(call);
            // the scene moves on, so the cross-check happens now, untimed
            if check && i % CROSS_CHECK_EVERY == 0 {
                if let Ok(r) = &outcome {
                    if let Err(e) =
                        verify::cross_check(live.service(), lookup, &op.query, &r.answer)
                    {
                        churn
                            .verdict
                            .fail(format!("cycle {i} {}: {e}", op.fam.label()));
                    }
                }
            }
            churn.reads.push(op.clone());
            churn.read_done.push(Done {
                ms,
                outcome: outcome.map_err(|e| e.to_string()),
            });
        };
        write!(
            "live.insert_obstacle",
            Some(live.insert_obstacle(c.obstacle))
        );
        read(live, &c.read_after_insert, &mut churn, tracer);
        write!("live.insert_site", Some(live.insert_site(c.site)));
        for op in &c.onn_reads {
            read(live, op, &mut churn, tracer);
        }
        write!("live.remove_obstacle", live.remove_obstacle(&c.obstacle));
        read(live, &c.read_after_remove, &mut churn, tracer);
        write!("live.remove_site", live.remove_site(c.site.pos));
        tracer.end(span);
    }
    churn
}

pub fn run(ctx: &Ctx) -> (Report, Tracer) {
    let mut report = Report::new(&WORKLOADS[3], ctx.seed);
    let mut tracer = Tracer::new(false, Instant::now(), 0);

    // inputs first (they need the obstacle field), then the timed set-ups
    let world = ops::generate_world(ctx.seed, ctx.n());
    let mut digest = Digest::default();
    world.digest(&mut digest);
    let standing_segs = ops::segments(&world, STANDING, sub_seed(ctx.seed, 21));
    let standing_pairs = ops::free_pairs(&world, STANDING, sub_seed(ctx.seed, 27));
    ops::digest_segments(&mut digest, &standing_segs);
    ops::digest_segments(&mut digest, &standing_pairs);
    let standing = standing_queries(&standing_segs, &standing_pairs);
    let cycles = generate_cycles(
        &world,
        &standing,
        ctx.seed,
        ops::scaled(CYCLES_PER_SECOND, ctx.seconds),
        &mut digest,
    );
    report.input_digest = digest.hex();

    let mut register_s = Vec::new();
    let ((mut live, handles, unregistered), cost) =
        ops::repeat_setup(|| build_live(ctx.seed, ctx.n(), &standing, &mut register_s));
    cost.record(&mut report);
    register_s.sort_by(f64::total_cmp);
    report.set_layer("live.register_s", register_s[register_s.len() / 2]);

    let lookup = ObstacleLookup::build(&world.obstacles);
    drop(live.service().execute(&cycles[0].read_after_insert.query));
    drop(live.service().execute(&cycles[0].onn_reads[0].query));

    // traced: the first half of the cycles untraced, then again with spans
    let (mut churn, untraced_mean) = if ctx.traced {
        let half = &cycles[..cycles.len().div_ceil(2)];
        let reference = run_cycles(&mut live, half, &lookup, &mut tracer, false);
        tracer.set(true);
        let churn = run_cycles(&mut live, half, &lookup, &mut tracer, true);
        tracer.set(false);
        (churn, mean(&reference.all_ms()))
    } else {
        (
            run_cycles(&mut live, &cycles, &lookup, &mut tracer, true),
            0.0,
        )
    };

    // reads: structural checks on every answer, digest of all
    let mut verdict = std::mem::take(&mut churn.verdict);
    for (i, (op, d)) in churn.reads.iter().zip(&churn.read_done).enumerate() {
        match &d.outcome {
            Ok(r) => match verify::structural(&op.query, &r.answer) {
                Ok(()) => verdict.digest(op, &r.answer),
                Err(e) => verdict.fail(format!("read {i} ({}): {e}", op.fam.label())),
            },
            Err(e) => verdict.fail(format!("read {i} ({}): {e}", op.fam.label())),
        }
    }
    // standing answers after all the patching, against a cold rebuild
    let cold = ConnService::new(Scene::new(live.points(), live.obstacles()));
    for (op, handle) in standing.iter().zip(&handles) {
        let want = cold.execute(&op.query).map(|r| r.answer);
        match (live.service().standing(handle), want) {
            (Some(got), Ok(want)) if answers_equivalent(&got, &want, 1e-6) => {
                verdict.digest(op, &got);
            }
            _ => verdict.fail(format!(
                "standing {} diverged from a cold rebuild",
                op.fam.label()
            )),
        }
    }
    verdict.failed += unregistered;
    report.attempted = (churn.write_ms.len() + churn.read_done.len() + STANDING) as u64;
    report.failed = verdict.failed;
    report.set_layer("datasets.detour_frac", verdict.detour_frac());
    report.notes = verdict.first_failures;
    report.answers = verdict.answers;

    let mut write_ms = churn.write_ms.clone();
    let mut all = churn.all_ms();
    let mean_ms = mean(&all);
    // Throughput is the median over blocks of two cycles (one blind, one
    // re-centred: 18 calls). A plain total hangs on the few standing queries
    // the re-centred deltas make recompute — one heavy COkNN among the 24
    // moved it by 30 % between seeds.
    let cycle_ms: Vec<f64> = churn
        .write_ms
        .chunks(4)
        .zip(churn.read_done.chunks(READS_PER_CYCLE))
        .map(|(w, r)| w.iter().sum::<f64>() + r.iter().map(|d| d.ms).sum::<f64>())
        .collect();
    let mut block_rates: Vec<f64> = cycle_ms
        .chunks_exact(2)
        .map(|pair| 2.0 * (4 + READS_PER_CYCLE) as f64 / ((pair[0] + pair[1]) / 1e3))
        .collect();
    if block_rates.is_empty() {
        block_rates.push(1e3 / mean_ms);
    }
    let ok_share = 1.0 - report.failed as f64 / report.attempted as f64;
    report.set(
        "ops_per_s",
        p50_p95(&mut block_rates).0 * ok_share,
        all.len(),
    );
    report.set("tail_ms", tail(&mut all), all.len());
    for (name, fam) in FAMILY_ROWS.into_iter().zip([Fam::Conn, Fam::Onn]) {
        let mut ms = crate::serial::family_ms(&churn.reads, &churn.read_done, &[fam]);
        report.set(name, mid(&mut ms), ms.len());
    }
    report.set(FAMILY_ROWS[2], mid(&mut write_ms), write_ms.len());
    let write_p50 = percentile(&write_ms, 0.50);

    if ctx.traced {
        report.set_layer("trace.overhead_frac", mean_ms / untraced_mean - 1.0);
        report.set_layer(
            "datasets.seg_len_p50",
            crate::serial::seg_len_p50(&churn.reads),
        );
        probes::stat_rows(&mut report, &stats_of(&churn.read_done));
        patch_rows(&mut report, &churn.patches);
        let deltas = &cycles[..cycles.len().min(probes::PROBE_OPS)];
        let nostanding = write_without_standing(&world, deltas);
        report.set_layer("live.write_nostanding_ms", nostanding);
        report.set_layer("live.patch_ms_per_delta", write_p50 - nostanding);
        tree_rows(&mut report, &world, deltas);
        probes::epoch_rows(&mut report, &world);
        report.set_layer("trace.probe_ops", deltas.len() as f64);
    }
    report.set("peak_rss_mb", crate::util::peak_rss_mb(), 1);
    (report, tracer)
}

fn patch_rows(report: &mut Report, patches: &[PatchReport]) {
    let sum = |f: &dyn Fn(&PatchReport) -> u64| patches.iter().map(f).sum::<u64>() as f64;
    let deltas = patches.len().max(1) as f64;
    let standing = sum(&|p| p.standing as u64).max(1.0);
    report.set_layer("live.kept_frac", sum(&|p| p.kept as u64) / standing);
    report.set_layer("live.tuple_patched", sum(&|p| p.tuple_patched as u64));
    report.set_layer("live.kernel_patched", sum(&|p| p.kernel_patched as u64));
    report.set_layer("live.recomputed", sum(&|p| p.recomputed as u64));
    report.set_layer(
        "live.labels_invalidated_per_delta",
        sum(&|p| p.labels_invalidated) / deltas,
    );
    report.set_layer(
        "live.adjacency_repairs_per_delta",
        sum(&|p| p.adjacency_repairs) / deltas,
    );
}

/// The same delta stream on a live scene nobody stands on: tree repair and
/// publication without patch work. Median ms per delta.
fn write_without_standing(world: &World, cycles: &[Cycle]) -> f64 {
    let mut live = LiveScene::new(
        world.points.clone(),
        world.obstacles.clone(),
        ConnConfig::default(),
    );
    let mut ms = Vec::with_capacity(4 * cycles.len());
    let mut timed = |f: &mut dyn FnMut(&mut LiveScene)| {
        let t = Instant::now();
        f(&mut live);
        ms.push(t.elapsed().as_secs_f64() * 1e3);
    };
    for c in cycles {
        timed(&mut |l| {
            black_box(l.insert_obstacle(c.obstacle));
        });
        timed(&mut |l| {
            black_box(l.insert_site(c.site));
        });
        timed(&mut |l| {
            black_box(l.remove_obstacle(&c.obstacle));
        });
        timed(&mut |l| {
            black_box(l.remove_site(c.site.pos));
        });
    }
    p50_p95(&mut ms).0
}

/// Direct insert / delete / fork on the paper-scale obstacle tree.
fn tree_rows(report: &mut Report, world: &World, cycles: &[Cycle]) {
    let tree = RStarTree::bulk_load(world.obstacles.clone(), DEFAULT_PAGE_SIZE);
    let mut fork_ms: Vec<f64> = (0..5)
        .map(|_| {
            let t = Instant::now();
            black_box(tree.fork());
            t.elapsed().as_secs_f64() * 1e3
        })
        .collect();
    report.set_layer("index.fork_ms", p50_p95(&mut fork_ms).0);
    let mut tree = tree;
    let t = Instant::now();
    for c in cycles {
        tree.insert(c.obstacle);
    }
    report.set_layer(
        "index.insert_us",
        t.elapsed().as_secs_f64() * 1e6 / cycles.len() as f64,
    );
    let t = Instant::now();
    for c in cycles {
        black_box(tree.delete_by_mbr(&c.obstacle));
    }
    report.set_layer(
        "index.delete_us",
        t.elapsed().as_secs_f64() * 1e6 / cycles.len() as f64,
    );
}
