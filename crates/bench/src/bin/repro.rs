//! `repro` — regenerates every table/figure series of the paper's
//! evaluation (§5) as text tables, plus the post-paper batch scenario.
//!
//! ```text
//! repro [TARGET | --target TARGET] [--scale S] [--queries N] [--seed S]
//!       [--batch] [--sanitize] [--sweep on|off|auto] [--threads T]
//!       [--out FILE.json]
//! ```
//!
//! * `TARGET` — `fig9`…`fig13`, `ablation`, `motivation`, `all`; plus
//!   `conn` (the obstructed-distance kernel benchmark: blind baseline vs
//!   goal-directed + continued, recorded in `BENCH_conn.json`), `batch`
//!   (the batch-layer comparison; `--batch` is shorthand for it), and
//!   `traj` (cold per-leg trajectory CONN vs warm `TrajectorySession`,
//!   recorded in `BENCH_traj.json`; `--queries` sets the trajectory
//!   count), and `serve` (the concurrent-serving harness: multi-client
//!   admission + coalesced batches + a live epoch publisher over a sharded
//!   service, recorded in `BENCH_serve.json`; `--threads` sets the pump's
//!   worker count).
//! * `--scale` — dataset scale relative to the paper's cardinalities
//!   (|LA| = 131,461): `smoke`/`small` (1/256), `default` (1/16), `paper`
//!   (1), or a ratio like `0.125`. The `conn` target defaults to `paper`;
//!   the figure sweeps default to `default`.
//! * `--queries` — workload size per setting (paper: 100; default here 20;
//!   the conn target defaults to 48 so p50/p99 are distinct samples, and
//!   the batch target to 64).
//! * `--threads` — batch worker-pool size (0 = available parallelism).
//! * `--out` — where the `batch` / `conn` targets write their JSON records
//!   (defaults `BENCH_batch.json` / `BENCH_conn.json`).
//! * `--sanitize` — (conn target; requires a binary built with
//!   `--features sanitize-invariants`) additionally times the kernel with
//!   the runtime invariant audits off and on, asserts the answers are
//!   identical, and records the informational `sanitize_overhead_pct` in
//!   `BENCH_conn.json`.
//! * `--sweep` — forces the rotational plane-sweep adjacency builder `on`
//!   (always) or `off` (per-candidate grid walks); `auto` (the default)
//!   lets the candidate count decide. Results are bit-identical either
//!   way; the conn target records `sweep_events` so the setting is
//!   visible in `BENCH_conn.json`.
//!
//! Absolute numbers differ from the paper (different hardware, synthetic
//! stand-ins for CA/LA, reduced scale); the *shapes* — who wins, what grows
//! with what — are the reproduction target. See EXPERIMENTS.md.

use std::time::Instant;

use conn_bench::{
    conn_results_equivalent, conn_results_identical, print_header, print_row, Scale, Workload,
};
use conn_core::{ConnConfig, SweepMode};
use conn_datasets::{Combo, DEFAULT_K, DEFAULT_QL};

struct Args {
    what: String,
    scale: Option<Scale>,
    queries: Option<usize>,
    seed: u64,
    threads: usize,
    out: Option<String>,
    sanitize: bool,
    sweep: SweepMode,
}

impl Args {
    /// Resolved scale: an explicit `--scale` wins; otherwise the conn
    /// kernel and serving targets run at paper scale (their layouts are
    /// sized for it) and the figure sweeps keep the reduced default.
    fn scale(&self) -> Scale {
        self.scale.unwrap_or(
            if self.what == "conn" || self.what == "serve" || self.what == "live" {
                Scale::PAPER
            } else {
                Scale::DEFAULT
            },
        )
    }

    fn queries(&self) -> usize {
        self.queries.unwrap_or(20)
    }

    /// The conn kernel records latency percentiles, so its default
    /// workload is large enough for p50/p99 to be distinct samples.
    fn conn_queries(&self) -> usize {
        self.queries.unwrap_or(48)
    }

    /// The batch target defaults to the acceptance workload of 64 queries.
    fn batch_queries(&self) -> usize {
        self.queries.unwrap_or(64)
    }

    /// The serve target defaults to 40 queries per client (5 families × 8
    /// segments), enough distinct latency samples for p99/p99.9.
    fn serve_queries(&self) -> usize {
        self.queries.unwrap_or(40)
    }

    /// The live target defaults to 12 standing queries (2 per certified
    /// family) patched across the delta stream.
    fn live_queries(&self) -> usize {
        self.queries.unwrap_or(12).max(1)
    }

    /// Where the selected target writes its JSON record.
    fn out(&self, default: &str) -> String {
        self.out.clone().unwrap_or_else(|| default.to_string())
    }

    /// Workload size actually used by the selected target (for the header).
    fn effective_queries(&self) -> usize {
        match self.what.as_str() {
            "batch" => self.batch_queries(),
            "conn" => self.conn_queries(),
            "serve" => self.serve_queries(),
            "live" => self.live_queries(),
            _ => self.queries(),
        }
    }
}

const KNOWN_TARGETS: [&str; 13] = [
    "all",
    "fig9",
    "fig10",
    "fig11",
    "fig12",
    "fig13",
    "ablation",
    "motivation",
    "conn",
    "batch",
    "traj",
    "serve",
    "live",
];

fn usage(problem: &str) -> ! {
    eprintln!("error: {problem}");
    eprintln!(
        "usage: repro [{} | --target T] [--scale smoke|small|default|paper|RATIO] \
         [--queries N] [--seed S] [--batch] [--sanitize] [--sweep on|off|auto] \
         [--threads T] [--out FILE.json]",
        KNOWN_TARGETS.join("|")
    );
    std::process::exit(2);
}

fn flag_value(argv: &[String], i: usize) -> &str {
    argv.get(i)
        .map(String::as_str)
        .unwrap_or_else(|| usage(&format!("{} requires a value", argv[i - 1])))
}

fn parse_args() -> Args {
    let mut what = "all".to_string();
    let mut scale: Option<Scale> = None;
    let mut queries: Option<usize> = None;
    let mut seed = 2009u64;
    let mut threads = 0usize;
    let mut out: Option<String> = None;
    let mut sanitize = false;
    let mut sweep = SweepMode::Auto;
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let mut i = 0;
    while i < argv.len() {
        match argv[i].as_str() {
            "--scale" => {
                i += 1;
                scale = Some(match flag_value(&argv, i) {
                    "smoke" | "small" => Scale::SMOKE,
                    "default" => Scale::DEFAULT,
                    "paper" => Scale::PAPER,
                    s => Scale(s.parse().unwrap_or_else(|_| {
                        usage(&format!(
                            "--scale must be smoke, small, default, paper, or a ratio (got {s:?})"
                        ))
                    })),
                });
            }
            "--queries" => {
                i += 1;
                queries = Some(flag_value(&argv, i).parse().unwrap_or_else(|_| {
                    usage(&format!("--queries must be a number (got {:?})", argv[i]))
                }));
            }
            "--seed" => {
                i += 1;
                seed = flag_value(&argv, i).parse().unwrap_or_else(|_| {
                    usage(&format!("--seed must be a number (got {:?})", argv[i]))
                });
            }
            "--threads" => {
                i += 1;
                threads = flag_value(&argv, i).parse().unwrap_or_else(|_| {
                    usage(&format!("--threads must be a number (got {:?})", argv[i]))
                });
            }
            "--out" => {
                i += 1;
                out = Some(flag_value(&argv, i).to_string());
            }
            "--target" => {
                i += 1;
                let t = flag_value(&argv, i);
                if !KNOWN_TARGETS.contains(&t) {
                    usage(&format!("unknown target {t:?}"));
                }
                what = t.to_string();
            }
            "--batch" => what = "batch".to_string(),
            "--sanitize" => sanitize = true,
            "--sweep" => {
                i += 1;
                sweep = match flag_value(&argv, i) {
                    "on" | "always" => SweepMode::Always,
                    "off" | "never" => SweepMode::Never,
                    "auto" => SweepMode::Auto,
                    s => usage(&format!("--sweep must be on, off, or auto (got {s:?})")),
                };
            }
            other if KNOWN_TARGETS.contains(&other) => what = other.to_string(),
            other => usage(&format!("unknown target {other:?}")),
        }
        i += 1;
    }
    if sanitize {
        match what.as_str() {
            // --sanitize alone implies the conn target it instruments.
            "all" => what = "conn".to_string(),
            "conn" => {}
            other => usage(&format!(
                "--sanitize applies to the conn target only (got {other:?})"
            )),
        }
        if !conn_geom::sanitize::compiled() {
            eprintln!(
                "error: --sanitize needs the invariant audits compiled in; rebuild with\n  \
                 cargo run --release -p conn-bench --features sanitize-invariants \
                 --bin repro -- conn --sanitize"
            );
            std::process::exit(2);
        }
    }
    Args {
        what,
        scale,
        queries,
        seed,
        threads,
        out,
        sanitize,
        sweep,
    }
}

fn main() {
    let args = parse_args();
    println!(
        "# CONN reproduction — scale {:.4} (|O| = {}, |P|_CA = {}), {} queries/setting, seed {}",
        args.scale().0,
        args.scale().obstacles(),
        args.scale().ca_points(),
        args.effective_queries(),
        args.seed
    );
    let all = args.what == "all";
    if all || args.what == "fig9" {
        fig9(&args);
    }
    if all || args.what == "fig10" {
        fig10(&args);
    }
    if all || args.what == "fig11" {
        fig11(&args);
    }
    if all || args.what == "fig12" {
        fig12(&args);
    }
    if all || args.what == "fig13" {
        fig13(&args);
    }
    if all || args.what == "ablation" {
        ablation(&args);
    }
    if all || args.what == "motivation" {
        motivation(&args);
    }
    // post-paper targets (not part of `all`: they measure this repo's
    // serving layer, not the paper's figures)
    if args.what == "conn" {
        conn_smoke(&args);
    }
    if args.what == "batch" {
        batch(&args);
    }
    if args.what == "traj" {
        traj(&args);
    }
    if args.what == "serve" {
        serve(&args);
    }
    if args.what == "live" {
        live(&args);
    }
}

/// `live`: the live-scene mutation benchmark — a standing-query set kept
/// resident and *patched* per [`conn_core::SceneDelta`] (surgical
/// invalidation, certificate regions) vs the republish-and-rerun baseline
/// (rebuild both trees, publish a full epoch, re-execute every query).
/// Single-obstacle deltas are the measured stream (the acceptance gate:
/// patching ≥ 2× faster); a site-delta coda exercises the tuple-patch and
/// membership paths. Every patched answer is asserted 1e-6-equivalent to
/// the rerun answer after every delta. Records `BENCH_live.json`.
fn live(args: &Args) {
    use conn_core::{
        answers_equivalent, Answer, ConnService, LiveScene, PatchReport, Query, Scene,
    };
    use conn_datasets::la_like;

    let scale = args.scale();
    let n_standing = args.live_queries();
    let cfg = ConnConfig {
        sweep: args.sweep,
        ..ConnConfig::default()
    };
    let w = Workload::cl(scale, DEFAULT_QL, n_standing, args.seed);

    // one standing query per segment, cycling through the certified
    // families (conn / coknn / onn / range / odist / route)
    let standing_queries: Vec<Query> = w
        .queries
        .iter()
        .enumerate()
        .map(|(i, seg)| {
            match i % 6 {
                0 => Query::conn(*seg),
                1 => Query::coknn(*seg, DEFAULT_K),
                2 => Query::onn(seg.a, DEFAULT_K),
                3 => Query::range(seg.a, seg.a.dist(seg.b)),
                4 => Query::odist(seg.a, seg.b),
                _ => Query::route(seg.a, seg.b),
            }
            .build()
            .expect("generated query validates")
        })
        .collect();

    // the measured delta stream: obstacle insert/remove pairs, drawn from
    // the same generator as the scene so footprints are paper-shaped.
    // Deltas that land *on* a standing query are excluded: an obstacle
    // overlapping a conn/coknn segment or swallowing a point anchor makes
    // sub-queries unreachable by definition — the paper's model keeps
    // query paths in free space, and such a delta degenerates both sides
    // of the comparison identically (nothing left to measure).
    let clear_of_standing = |r: &conn_geom::Rect| {
        w.queries.iter().enumerate().all(|(i, seg)| match i % 6 {
            0 | 1 => r.mindist_segment(seg) > 0.0,
            2 | 3 => !r.strictly_contains(seg.a),
            _ => !r.strictly_contains(seg.a) && !r.strictly_contains(seg.b),
        })
    };
    // Half the stream is drawn blind; the other half is re-centered onto
    // standing odist/route segments so the kernel-patch path (surgical
    // absorb + paths-only-shorten reseed) is exercised at every scale,
    // not only when a random rect happens to fall inside a kernel's
    // ellipse. Re-centering keeps the paper-shaped footprints.
    let kernel_segs: Vec<_> = w
        .queries
        .iter()
        .enumerate()
        .filter(|(i, _)| i % 6 >= 4)
        .map(|(_, s)| *s)
        .collect();
    // Footprints are capped at half the segment length so the forced
    // detour stays within the kernel's resident ellipse (the absorb path,
    // not the overflow-rebuild path) and the query stays tractable for
    // the rerun side — a wall dwarfing the segment measures detour
    // search, not delta repair, on both sides equally.
    let centered: Vec<conn_geom::Rect> = la_like(64, args.seed.wrapping_add(8))
        .into_iter()
        .zip(kernel_segs.iter().cycle())
        .filter_map(|(r, seg)| {
            let m = seg.at(0.5 * seg.len());
            let f = (0.4 * seg.len() / r.width().max(r.height())).min(1.0);
            let (hw, hh) = (0.5 * f * r.width(), 0.5 * f * r.height());
            let c = conn_geom::Rect::new(m.x - hw, m.y - hh, m.x + hw, m.y + hh);
            clear_of_standing(&c).then_some(c)
        })
        .take(6)
        .collect();
    let extra: Vec<conn_geom::Rect> = centered
        .iter()
        .copied()
        .chain(
            la_like(64, args.seed.wrapping_add(7))
                .into_iter()
                .filter(clear_of_standing),
        )
        .take(12)
        .collect();

    // patched side: the live scene with the standing set resident
    eprintln!(
        "live: building scene ({} points, {} obstacles), registering {} standing queries",
        w.points.len(),
        w.obstacles.len(),
        n_standing
    );
    let t_setup = Instant::now();
    let mut live = LiveScene::new(w.points.clone(), w.obstacles.clone(), cfg);
    let handles: Vec<_> = standing_queries
        .iter()
        .map(|q| live.service().register(q.clone()).expect("register"))
        .collect();
    eprintln!(
        "live: setup done in {:.1}s",
        t_setup.elapsed().as_secs_f64()
    );

    // rerun side: same initial world, republished + re-executed per delta
    let baseline = ConnService::with_config(Scene::new(w.points.clone(), w.obstacles.clone()), cfg);
    let mut base_points = w.points.clone();
    let mut base_obstacles = w.obstacles.clone();

    let mut patch_lat: Vec<f64> = Vec::new();
    let mut rerun_lat: Vec<f64> = Vec::new();
    let mut reports: Vec<PatchReport> = Vec::new();
    let mut results_equivalent = true;

    let mut check = |live: &LiveScene, rerun: &[Answer], ctx: &str| {
        for ((h, q), want) in handles.iter().zip(&standing_queries).zip(rerun) {
            let got = live.service().standing(h).expect("standing answer");
            if !answers_equivalent(&got, want, 1e-6) {
                results_equivalent = false;
                println!("DIVERGED ({ctx}): {:?}", q.kind());
            }
        }
    };

    let trace = std::env::var_os("CONN_LIVE_TRACE").is_some();
    let rerun_baseline =
        |points: &[conn_core::DataPoint], obstacles: &[conn_geom::Rect]| -> (f64, Vec<Answer>) {
            let t = Instant::now();
            baseline.publish(Scene::new(points.to_vec(), obstacles.to_vec()));
            let answers: Vec<Answer> = standing_queries
                .iter()
                .enumerate()
                .map(|(qi, q)| {
                    let tq = Instant::now();
                    if trace {
                        eprintln!("trace: rerun q{qi} {:?}", q.kind());
                    }
                    let a = baseline.execute(q).expect("baseline execute").answer;
                    if trace {
                        eprintln!(
                            "trace: rerun q{qi} done in {:.1} ms",
                            tq.elapsed().as_secs_f64() * 1e3
                        );
                    }
                    a
                })
                .collect();
            (t.elapsed().as_secs_f64(), answers)
        };

    for (i, r) in extra.iter().enumerate() {
        // insert the obstacle...
        eprintln!("live: pair {}: patching insert", i + 1);
        let t = Instant::now();
        let (_, report) = live.insert_obstacle(*r);
        patch_lat.push(t.elapsed().as_secs_f64());
        reports.push(report);
        base_obstacles.push(*r);
        eprintln!("live: pair {}: rerunning insert", i + 1);
        let (dt, answers) = rerun_baseline(&base_points, &base_obstacles);
        rerun_lat.push(dt);
        check(&live, &answers, &format!("insert #{i}"));

        // ...and take it back out (the paths-only-shorten path)
        eprintln!("live: pair {}: patching remove", i + 1);
        let t = Instant::now();
        let (_, report) = live.remove_obstacle(r).expect("just inserted");
        patch_lat.push(t.elapsed().as_secs_f64());
        reports.push(report);
        let pos = base_obstacles
            .iter()
            .rposition(|o| o == r)
            .expect("mirrored insert");
        base_obstacles.remove(pos);
        eprintln!("live: pair {}: rerunning remove", i + 1);
        let (dt, answers) = rerun_baseline(&base_points, &base_obstacles);
        rerun_lat.push(dt);
        check(&live, &answers, &format!("remove #{i}"));
        eprintln!(
            "live: delta pair {}/{} done (patch {:.1} ms + {:.1} ms, rerun {:.1} ms + {:.1} ms)",
            i + 1,
            extra.len(),
            patch_lat[patch_lat.len() - 2] * 1e3,
            patch_lat[patch_lat.len() - 1] * 1e3,
            rerun_lat[rerun_lat.len() - 2] * 1e3,
            rerun_lat[rerun_lat.len() - 1] * 1e3,
        );
    }

    // site-delta coda (unmeasured): tuple patches and membership repairs
    let coda = conn_datasets::uniform_points(4, args.seed.wrapping_add(9), &base_obstacles);
    for (i, p) in coda.iter().enumerate() {
        let dp = conn_core::DataPoint::new(900_000 + i as u32, *p);
        let (_, report) = live.insert_site(dp);
        reports.push(report);
        base_points.push(dp);
        let (_, answers) = rerun_baseline(&base_points, &base_obstacles);
        check(&live, &answers, &format!("site insert #{i}"));
    }
    for i in 0..2usize {
        let victim = base_points[(i * 7) % base_points.len()];
        if let Some((_, report)) = live.remove_site(victim.pos) {
            reports.push(report);
            let pos = base_points
                .iter()
                .position(|q| q.pos == victim.pos)
                .expect("mirrored point");
            base_points.remove(pos);
            let (_, answers) = rerun_baseline(&base_points, &base_obstacles);
            check(&live, &answers, &format!("site remove #{i}"));
        }
    }

    let pct = |lat: &mut Vec<f64>, p: f64| -> f64 {
        lat.sort_by(|x, y| x.total_cmp(y));
        if lat.is_empty() {
            return 0.0;
        }
        let idx = ((lat.len() as f64 - 1.0) * p).round() as usize;
        lat[idx] * 1e3
    };
    let deltas = patch_lat.len();
    let patch_total: f64 = patch_lat.iter().sum();
    let rerun_total: f64 = rerun_lat[..deltas].iter().sum();
    let speedup = rerun_total / patch_total.max(1e-12);
    let patch_p50 = pct(&mut patch_lat, 0.50);
    let patch_p99 = pct(&mut patch_lat, 0.99);
    let rerun_p50 = pct(&mut rerun_lat, 0.50);
    let rerun_p99 = pct(&mut rerun_lat, 0.99);

    let sum = |f: fn(&PatchReport) -> u64| -> u64 { reports.iter().map(f).sum() };
    let labels = sum(|r| r.labels_invalidated);
    let repairs = sum(|r| r.adjacency_repairs);
    let kept = sum(|r| r.kept as u64);
    let tuple_patched = sum(|r| r.tuple_patched as u64);
    let kernel_patched = sum(|r| r.kernel_patched as u64);
    let recomputed = sum(|r| r.recomputed as u64);
    let delta_publishes = live.service().reuse_totals().delta_publishes;

    println!("{:<34} {:>12}", "metric", "value");
    println!("{:<34} {:>12}", "standing queries", n_standing);
    println!("{:<34} {:>12}", "obstacle deltas (measured)", deltas);
    println!(
        "{:<34} {:>12.1}",
        "patch deltas/sec",
        deltas as f64 / patch_total
    );
    println!(
        "{:<34} {:>12.1}",
        "rerun deltas/sec",
        deltas as f64 / rerun_total
    );
    println!("{:<34} {:>11.2}x", "patch speedup vs rerun", speedup);
    println!("{:<34} {:>12.3}", "patch p50 (ms)", patch_p50);
    println!("{:<34} {:>12.3}", "patch p99 (ms)", patch_p99);
    println!("{:<34} {:>12.3}", "rerun p50 (ms)", rerun_p50);
    println!("{:<34} {:>12.3}", "rerun p99 (ms)", rerun_p99);
    println!(
        "{:<34} {:>12.1}",
        "labels invalidated / delta",
        labels as f64 / delta_publishes.max(1) as f64
    );
    println!(
        "{:<34} {:>12.1}",
        "adjacency repairs / delta",
        repairs as f64 / delta_publishes.max(1) as f64
    );
    println!(
        "{:<34} {:>12}",
        "kept / tuple / kernel / recomputed",
        format!("{kept}/{tuple_patched}/{kernel_patched}/{recomputed}")
    );
    println!("{:<34} {:>12}", "delta publishes", delta_publishes);
    println!(
        "{:<34} {:>12}",
        "results equivalent (1e-6)", results_equivalent
    );

    let json = format!(
        "{{\n  \"scale\": {},\n  \"standing\": {},\n  \"deltas\": {},\n  \
         \"patch_deltas_per_sec\": {:.2},\n  \"rerun_deltas_per_sec\": {:.2},\n  \
         \"speedup_patch_vs_rerun\": {:.4},\n  \"patch_p50_ms\": {:.4},\n  \
         \"patch_p99_ms\": {:.4},\n  \"rerun_p50_ms\": {:.4},\n  \
         \"rerun_p99_ms\": {:.4},\n  \"labels_invalidated_per_delta\": {:.2},\n  \
         \"adjacency_repairs_per_delta\": {:.2},\n  \"kept\": {},\n  \
         \"tuple_patched\": {},\n  \"kernel_patched\": {},\n  \
         \"recomputed\": {},\n  \"delta_publishes\": {},\n  \
         \"results_equivalent\": {}\n}}\n",
        scale.0,
        n_standing,
        deltas,
        deltas as f64 / patch_total,
        deltas as f64 / rerun_total,
        speedup,
        patch_p50,
        patch_p99,
        rerun_p50,
        rerun_p99,
        labels as f64 / delta_publishes.max(1) as f64,
        repairs as f64 / delta_publishes.max(1) as f64,
        kept,
        tuple_patched,
        kernel_patched,
        recomputed,
        delta_publishes,
        results_equivalent,
    );
    let out = args.out("BENCH_live.json");
    std::fs::write(&out, json).expect("write live record");
    println!("recorded {out}");
}

/// `traj`: the trajectory-session benchmark — cold per-leg execution
/// (every leg a fresh Algorithm-4 run) vs one warm `TrajectorySession`
/// per trajectory, single-threaded, answers asserted equivalent; plus an
/// informational parallel fleet line. Records `BENCH_traj.json`.
fn traj(args: &Args) {
    use conn_bench::trajectory_results_equivalent;
    use conn_core::baseline::trajectory_conn_cold;
    use conn_core::{Answer, ConnService, Query, Scene};

    let n_traj = args.queries.unwrap_or(12).max(1);
    // 8 legs of 7% of the space side each (the top of the paper's Figure 9
    // ql range): long legs are where cold per-leg execution hurts most —
    // every leg re-pays an unbounded first-point cover of a long segment
    // that the session's seeded joint bound caps.
    let legs = 8usize;
    let traj_ql = 0.07;
    println!("\n## Trajectory sessions — UL, k = 1, {n_traj} trajectories × {legs} legs (ql = 7%)");
    let w = Workload::with_ratio(Combo::Ul, args.scale(), 1.0, DEFAULT_QL, 1, args.seed);
    let routes = w.trajectories(n_traj, legs, traj_ql, args.seed.wrapping_add(7));
    let cfg = ConnConfig::default();

    let timed = |f: &dyn Fn(
        &conn_core::Trajectory,
    ) -> (conn_core::TrajectoryResult, conn_core::QueryStats)|
     -> (
        f64,
        f64,
        f64,
        Vec<conn_core::TrajectoryResult>,
        conn_core::QueryStats,
    ) {
        let mut lat = Vec::with_capacity(routes.len());
        let mut results = Vec::with_capacity(routes.len());
        let mut pooled = conn_core::QueryStats::default();
        let t0 = Instant::now();
        for traj in &routes {
            let tq = Instant::now();
            let (res, stats) = f(traj);
            lat.push(tq.elapsed().as_secs_f64());
            res.check_cover().expect("trajectory cover");
            pooled.accumulate(&stats);
            results.push(res);
        }
        let wall = t0.elapsed().as_secs_f64();
        lat.sort_by(f64::total_cmp);
        let pct = |p: f64| lat[((lat.len() - 1) as f64 * p) as usize];
        (wall, pct(0.50), pct(0.99), results, pooled)
    };

    let service = ConnService::with_config(Scene::borrowing(&w.data_tree, &w.obstacle_tree), cfg);
    let (cold_wall, cold_p50, cold_p99, cold_results, cold_stats) =
        timed(&|t| trajectory_conn_cold(&w.data_tree, &w.obstacle_tree, t, &cfg));
    let (sess_wall, sess_p50, sess_p99, sess_results, sess_stats) = timed(&|t| {
        let query = Query::trajectory(t.clone(), 1)
            .build()
            .expect("valid route");
        let resp = service.execute(&query).expect("trajectory query");
        let plan = resp.answer.into_trajectory().expect("trajectory answer");
        (plan, resp.stats)
    });

    for (i, (a, b)) in cold_results.iter().zip(&sess_results).enumerate() {
        assert!(
            trajectory_results_equivalent(a, b),
            "session diverged from cold per-leg on trajectory {i}"
        );
    }
    let speedup = cold_wall / sess_wall;

    // informational: the same routes as one parallel service batch
    let fleet_queries: Vec<Query> = routes
        .iter()
        .map(|t| {
            Query::trajectory(t.clone(), 1)
                .build()
                .expect("valid route")
        })
        .collect();
    let (fleet_responses, fleet) = service
        .execute_batch_threads(&fleet_queries, args.threads)
        .expect("fleet batch");
    for (a, b) in cold_results.iter().zip(&fleet_responses) {
        let Answer::Trajectory(b) = &b.answer else {
            panic!("trajectory query answered as {}", b.answer.family());
        };
        assert!(trajectory_results_equivalent(a, b), "fleet path diverged");
    }

    println!(
        "{:<28} {:>10} {:>10} {:>10} {:>9}",
        "path", "wall(s)", "p50(ms)", "p99(ms)", "speedup"
    );
    let row = |label: &str, wall: f64, p50: f64, p99: f64| {
        println!(
            "{label:<28} {:>10.3} {:>10.3} {:>10.3} {:>8.2}x",
            wall,
            p50 * 1e3,
            p99 * 1e3,
            cold_wall / wall
        );
    };
    row("cold per-leg", cold_wall, cold_p50, cold_p99);
    row("session (warm legs)", sess_wall, sess_p50, sess_p99);
    row(
        &format!("fleet batch ({} threads)", fleet.threads),
        fleet.wall.as_secs_f64(),
        fleet.p50_s,
        fleet.p99_s,
    );
    println!(
        "obstacle loads: {} cold vs {} session (dedup across legs); \
         session reuse: {} warm legs, {} Dijkstra reuses, {} continuations, {} reseeds",
        cold_stats.noe,
        sess_stats.noe,
        sess_stats.reuse.graph_reuses,
        sess_stats.reuse.heap_reuses,
        sess_stats.reuse.label_continuations,
        sess_stats.reuse.label_reseeds,
    );

    let json = format!(
        "{{\n  \"scale\": {},\n  \"trajectories\": {},\n  \"legs\": {},\n  \
         \"cold_wall_s\": {:.6},\n  \"cold_p50_ms\": {:.4},\n  \"cold_p99_ms\": {:.4},\n  \
         \"session_wall_s\": {:.6},\n  \"session_p50_ms\": {:.4},\n  \
         \"session_p99_ms\": {:.4},\n  \"speedup_session_vs_cold\": {:.4},\n  \
         \"fleet_wall_s\": {:.6},\n  \"fleet_threads\": {},\n  \
         \"noe_cold\": {},\n  \"noe_session\": {},\n  \"results_equivalent\": true\n}}\n",
        args.scale().0,
        n_traj,
        legs,
        cold_wall,
        cold_p50 * 1e3,
        cold_p99 * 1e3,
        sess_wall,
        sess_p50 * 1e3,
        sess_p99 * 1e3,
        speedup,
        fleet.wall.as_secs_f64(),
        fleet.threads,
        cold_stats.noe,
        sess_stats.noe,
    );
    let out = args.out("BENCH_traj.json");
    std::fs::write(&out, json).expect("write trajectory record");
    println!("recorded {out}");
}

/// `conn`: the CONN kernel benchmark (also the CI smoke target) — builds a
/// UL workload, answers every query twice (pre-PR baseline kernel: blind
/// Dijkstra / cold heaps, then the goal-directed + continued kernel),
/// asserts bit-identical results, prints averages, and records the wall
/// clock, latency percentiles and speedup in `BENCH_conn.json` so the perf
/// trajectory is visible per PR.
fn conn_smoke(args: &Args) {
    use conn_core::QueryEngine;
    assert!(
        args.conn_queries() >= 1,
        "the conn target needs at least one query (got --queries 0)"
    );
    println!("\n## CONN kernel — UL, k = 1, ql = 4.5%");
    let w = Workload::with_ratio(
        Combo::Ul,
        args.scale(),
        1.0,
        DEFAULT_QL,
        args.conn_queries(),
        args.seed,
    );

    // one timed pass over the workload on a reused engine
    let run = |cfg: &ConnConfig| {
        let mut engine = QueryEngine::new(*cfg);
        let mut acc = conn_core::QueryStats::default();
        let mut results = Vec::with_capacity(w.queries.len());
        let mut lat = Vec::with_capacity(w.queries.len());
        let t0 = Instant::now();
        for q in &w.queries {
            let tq = Instant::now();
            let (res, stats) = engine.conn(&w.data_tree, &w.obstacle_tree, q);
            lat.push(tq.elapsed().as_secs_f64());
            res.check_cover().expect("result must cover the segment");
            acc.accumulate(&stats);
            results.push(res);
        }
        let wall = t0.elapsed().as_secs_f64();
        lat.sort_by(f64::total_cmp);
        let pct = |p: f64| lat[((lat.len() - 1) as f64 * p) as usize];
        (wall, pct(0.50), pct(0.99), acc, results)
    };

    // With --sanitize the headline walls stay comparable to unsanitized
    // runs: audits are switched off for them and measured separately below.
    if args.sanitize {
        conn_geom::sanitize::set_enabled(false);
    }
    // --sweep applies to both kernels so the recorded speedup isolates the
    // goal-directed machinery, not the adjacency builder.
    let tune = |mut cfg: ConnConfig| {
        cfg.sweep = args.sweep;
        cfg
    };
    let (base_wall, base_p50, base_p99, _, base_results) =
        run(&tune(ConnConfig::baseline_kernel()));
    let (goal_wall, goal_p50, goal_p99, acc, goal_results) = run(&tune(ConnConfig::default()));
    assert!(
        conn_results_equivalent(&base_results, &goal_results),
        "goal-directed kernel diverged from the blind baseline"
    );
    let speedup = base_wall / goal_wall;

    print_header("queries");
    print_row(
        &format!("{}", w.queries.len()),
        &acc.averaged(w.queries.len() as u64),
        w.full_vg_vertices(),
    );
    println!(
        "{:<26} {:>10} {:>10} {:>10} {:>9}",
        "kernel", "wall(s)", "p50(ms)", "p99(ms)", "speedup"
    );
    println!(
        "{:<26} {:>10.3} {:>10.3} {:>10.3} {:>8.2}x",
        "blind (baseline)",
        base_wall,
        base_p50 * 1e3,
        base_p99 * 1e3,
        1.0
    );
    println!(
        "{:<26} {:>10.3} {:>10.3} {:>10.3} {:>8.2}x",
        "goal-directed + continued",
        goal_wall,
        goal_p50 * 1e3,
        goal_p99 * 1e3,
        speedup
    );
    println!(
        "reuse: {} graph reuses, {} node slots retained, {} Dijkstra reuses, \
         {} label continuations, {} label reseeds",
        acc.reuse.graph_reuses,
        acc.reuse.nodes_retained,
        acc.reuse.heap_reuses,
        acc.reuse.label_continuations,
        acc.reuse.label_reseeds
    );
    println!(
        "substrate: {} sight tests ({:.0} per query), {} sweep events ({:.0} per query)",
        acc.reuse.sight_tests,
        acc.reuse.sight_tests as f64 / w.queries.len().max(1) as f64,
        acc.reuse.sweep_events,
        acc.reuse.sweep_events as f64 / w.queries.len().max(1) as f64
    );

    // --sanitize: time the production kernel with audits off vs on (same
    // binary, runtime switch), best-of-3 minima on both sides of the ratio,
    // and require byte-identical answers.
    let sanitize_overhead_pct = if args.sanitize {
        let best = |on: bool| {
            conn_geom::sanitize::set_enabled(on);
            let mut wall = f64::INFINITY;
            let mut results = Vec::new();
            for _ in 0..3 {
                let (w, _, _, _, r) = run(&tune(ConnConfig::default()));
                wall = wall.min(w);
                results = r;
            }
            (wall, results)
        };
        let (off_wall, off_results) = best(false);
        let (on_wall, on_results) = best(true);
        conn_geom::sanitize::set_enabled(true);
        assert!(
            conn_results_identical(&off_results, &on_results),
            "sanitized run diverged from the unsanitized run"
        );
        let pct = (on_wall / off_wall - 1.0) * 100.0;
        println!(
            "sanitize-invariants: audits off {:.3}s vs on {:.3}s — overhead {:+.2}% \
             (informational), answers identical",
            off_wall, on_wall, pct
        );
        format!("{pct:.4}")
    } else {
        "null".to_string()
    };

    let n = w.queries.len();
    let json = format!(
        "{{\n  \"scale\": {},\n  \"queries\": {},\n  \"wall_s\": {:.6},\n  \
         \"latency_p50_ms\": {:.4},\n  \"latency_p99_ms\": {:.4},\n  \
         \"baseline_wall_s\": {:.6},\n  \"baseline_p50_ms\": {:.4},\n  \
         \"baseline_p99_ms\": {:.4},\n  \"speedup_vs_baseline_kernel\": {:.4},\n  \
         \"throughput_qps\": {:.2},\n  \"label_continuations\": {},\n  \
         \"label_reseeds\": {},\n  \"sight_tests\": {},\n  \
         \"sight_tests_per_query\": {:.1},\n  \"sweep_events\": {},\n  \
         \"sweep_events_per_query\": {:.1},\n  \"sanitize_overhead_pct\": {},\n  \
         \"results_equivalent\": true\n}}\n",
        args.scale().0,
        n,
        goal_wall,
        goal_p50 * 1e3,
        goal_p99 * 1e3,
        base_wall,
        base_p50 * 1e3,
        base_p99 * 1e3,
        speedup,
        n as f64 / goal_wall,
        acc.reuse.label_continuations,
        acc.reuse.label_reseeds,
        acc.reuse.sight_tests,
        acc.reuse.sight_tests as f64 / n.max(1) as f64,
        acc.reuse.sweep_events,
        acc.reuse.sweep_events as f64 / n.max(1) as f64,
        sanitize_overhead_pct,
    );
    let out = args.out("BENCH_conn.json");
    std::fs::write(&out, json).expect("write conn kernel record");
    println!("recorded {out}");
}

/// `batch`: the batch-layer comparison — one-shot loop (a fresh engine per
/// query) vs serial engine reuse vs the parallel
/// `ConnService::execute_batch` path, on a mixed workload. Asserts
/// identical results across all three paths and records the numbers as
/// JSON.
fn batch(args: &Args) {
    let n_queries = args.batch_queries();
    println!("\n## Batch layer — mixed workload (uniform + clustered + trajectory), k = 1");
    let w = Workload::build_mixed(
        Combo::Ul,
        args.scale().obstacles(),
        args.scale().obstacles(),
        DEFAULT_QL,
        n_queries,
        args.seed,
    );
    let cfg = ConnConfig::default();

    let t0 = Instant::now();
    let serial = w.run_conn_serial(&cfg);
    let serial_s = t0.elapsed().as_secs_f64();

    let t1 = Instant::now();
    let (engine_results, engine_pooled) = w.run_conn_engine(&cfg);
    let engine_s = t1.elapsed().as_secs_f64();

    let (batch_results, stats) = w.run_conn_parallel(&cfg, args.threads);
    let batch_s = stats.wall.as_secs_f64();

    assert!(
        conn_results_identical(&serial, &engine_results),
        "engine path diverged from the one-shot loop"
    );
    assert!(
        conn_results_identical(&serial, &batch_results),
        "batch path diverged from the one-shot loop"
    );

    println!(
        "{:<26} {:>10} {:>12} {:>9}",
        "path", "total(s)", "qps", "speedup"
    );
    let row = |label: &str, secs: f64| {
        println!(
            "{label:<26} {:>10.3} {:>12.1} {:>8.2}x",
            secs,
            n_queries as f64 / secs,
            serial_s / secs
        );
    };
    row("one-shot loop", serial_s);
    row("serial engine reuse", engine_s);
    row(
        &format!("service batch ({} threads)", stats.threads),
        batch_s,
    );
    println!(
        "latency: mean {:.3} ms, p50 {:.3} ms, p99 {:.3} ms",
        stats.mean_s * 1e3,
        stats.p50_s * 1e3,
        stats.p99_s * 1e3
    );
    println!(
        "reuse: {} graph reuses, {} node slots retained, {} Dijkstra reuses",
        stats.pooled.reuse.graph_reuses,
        stats.pooled.reuse.nodes_retained,
        stats.pooled.reuse.heap_reuses
    );
    println!(
        "engine-path reuse check: {} graph reuses over {} queries",
        engine_pooled.reuse.graph_reuses, n_queries
    );

    let json = format!(
        "{{\n  \"scale\": {},\n  \"queries\": {},\n  \"threads\": {},\n  \
         \"serial_one_shot_s\": {:.6},\n  \"serial_engine_s\": {:.6},\n  \
         \"batch_s\": {:.6},\n  \"speedup_engine\": {:.4},\n  \
         \"speedup_batch\": {:.4},\n  \"throughput_qps\": {:.2},\n  \
         \"latency_mean_ms\": {:.4},\n  \"latency_p50_ms\": {:.4},\n  \
         \"latency_p99_ms\": {:.4},\n  \"graph_reuses\": {},\n  \
         \"nodes_retained\": {},\n  \"heap_reuses\": {}\n}}\n",
        args.scale().0,
        n_queries,
        stats.threads,
        serial_s,
        engine_s,
        batch_s,
        serial_s / engine_s,
        serial_s / batch_s,
        stats.throughput_qps,
        stats.mean_s * 1e3,
        stats.p50_s * 1e3,
        stats.p99_s * 1e3,
        stats.pooled.reuse.graph_reuses,
        stats.pooled.reuse.nodes_retained,
        stats.pooled.reuse.heap_reuses,
    );
    let out = args.out("BENCH_batch.json");
    std::fs::write(&out, json).expect("write batch record");
    println!("recorded {out}");
}

/// 1e-6 equivalence between a sharded-service answer and the unsharded
/// single-engine reference for the families the serve workload uses.
/// A certified shard answer may differ from the full-scene answer by
/// rebuilt-tree ULPs (tie-break order on the shard's bulk-loaded trees),
/// never more; range membership may flip only for radius-boundary points.
fn serve_answers_equivalent(
    query: &conn_core::Query,
    a: &conn_core::Answer,
    b: &conn_core::Answer,
) -> bool {
    use conn_core::{Answer, QueryKind};
    const TOL: f64 = 1e-6;
    match (query.kind(), a, b) {
        (QueryKind::Conn { .. }, Answer::Conn(x), Answer::Conn(y)) => x.values_equivalent(y, TOL),
        (QueryKind::Coknn { q, .. }, Answer::Coknn(x), Answer::Coknn(y)) => (0..=8).all(|i| {
            let t = q.len() * i as f64 / 8.0;
            let (vx, vy) = (x.knn_at(t), y.knn_at(t));
            vx.len() == vy.len() && vx.iter().zip(&vy).all(|(p, r)| (p.1 - r.1).abs() <= TOL)
        }),
        (QueryKind::Onn { .. }, Answer::Onn(x), Answer::Onn(y)) => {
            x.len() == y.len() && x.iter().zip(y).all(|(p, r)| (p.1 - r.1).abs() <= TOL)
        }
        (QueryKind::Range { radius, .. }, Answer::Range(x), Answer::Range(y)) => {
            [(x, y), (y, x)].iter().all(|(only, other)| {
                only.iter().all(|(p, d)| {
                    other
                        .iter()
                        .any(|(op, od)| op.id == p.id && (od - d).abs() <= TOL)
                        || (d - radius).abs() <= TOL
                })
            })
        }
        (QueryKind::Odist { .. }, Answer::Odist(x), Answer::Odist(y)) => {
            (x.is_infinite() && y.is_infinite()) || (x - y).abs() <= TOL
        }
        _ => false,
    }
}

fn serve(args: &Args) {
    use conn_core::{Admission, AdmissionConfig, ConnService, Query, Scene, ShardSpec};
    use conn_datasets::SPACE_SIDE;
    use std::sync::atomic::{AtomicBool, Ordering};

    let n_queries = args.serve_queries();
    let clients = 4usize;
    let workers = if args.threads == 0 {
        std::thread::available_parallelism()
            .map(|n| n.get())
            .unwrap_or(1)
    } else {
        args.threads
    };
    println!(
        "\n## Serving layer — {clients} clients × {n_queries} mixed queries, \
         {workers} pump worker(s), live epoch publisher"
    );

    let w = Workload::with_ratio(
        Combo::Ul,
        args.scale(),
        1.0,
        DEFAULT_QL,
        n_queries,
        args.seed,
    );
    let cfg = ConnConfig::default();

    // mixed-family typed workload derived from the CONN segments:
    // conn / coknn / onn / range / odist round-robin
    let typed: Vec<Query> = w
        .queries
        .iter()
        .enumerate()
        .map(|(i, q)| {
            match i % 5 {
                0 => Query::conn(*q).build(),
                1 => Query::coknn(*q, DEFAULT_K).build(),
                2 => Query::onn(q.a, DEFAULT_K).build(),
                3 => Query::range(q.a, q.len()).build(),
                _ => Query::odist(q.a, q.b).build(),
            }
            .expect("workload query is valid")
        })
        .collect();

    // serial baseline: an unsharded service driven by a plain execute loop
    // (one query in flight at a time); best-of-3 walls
    let reference = ConnService::with_config(Scene::borrowing(&w.data_tree, &w.obstacle_tree), cfg);
    let t0 = Instant::now();
    let serial: Vec<conn_core::Response> = typed
        .iter()
        .map(|q| reference.execute(q).expect("serial execute"))
        .collect();
    let mut serial_s = t0.elapsed().as_secs_f64();
    for _ in 0..2 {
        let t = Instant::now();
        for q in &typed {
            let _ = reference.execute(q).expect("serial execute");
        }
        serial_s = serial_s.min(t.elapsed().as_secs_f64());
    }
    let serial_qps = typed.len() as f64 / serial_s;

    // the serving side: a sharded service behind the admission front door,
    // with a writer republishing the world as fresh epochs mid-run
    let serving = ConnService::sharded(
        Scene::borrowing(&w.data_tree, &w.obstacle_tree),
        cfg,
        ShardSpec::new(2, 2, 0.2 * SPACE_SIDE).expect("shard spec"),
    );
    let admission = Admission::new(AdmissionConfig {
        max_pending: 1024,
        coalesce: 32,
    });
    let total = (clients * typed.len()) as u64;

    // one full multi-client round: every client submits its whole sweep
    // (a deep queue so coalescing sees real batches) while one pump thread
    // drains it; with `live_writer`, a writer concurrently republishes the
    // world as fresh epochs (bounded at 3 publishes — each is a full shard
    // retiling over |O| obstacles, which would otherwise dominate the
    // measured wall on one core). Returns (wall_s, served, publishes).
    let run_concurrent = |live_writer: bool| -> (f64, u64, u64) {
        let served_before = admission.served();
        let target = admission.served() + admission.rejected() + total;
        let done = AtomicBool::new(false);
        let t1 = Instant::now();
        let mut wall = 0.0f64;
        let mut publishes = 0u64;
        std::thread::scope(|scope| {
            let done_ref = &done;
            let serving_ref = &serving;
            let w_ref = &w;
            let writer = scope.spawn(move || {
                let mut published = 0u64;
                while live_writer && published < 3 && !done_ref.load(Ordering::Relaxed) {
                    serving_ref.publish(Scene::borrowing(&w_ref.data_tree, &w_ref.obstacle_tree));
                    published += 1;
                    std::thread::sleep(std::time::Duration::from_millis(500));
                }
                published
            });
            for _ in 0..clients {
                let admission = &admission;
                let typed = &typed;
                scope.spawn(move || {
                    let tickets: Vec<_> =
                        typed.iter().map(|q| admission.submit(q.clone())).collect();
                    for t in tickets.into_iter().flatten() {
                        let _ = t.wait();
                    }
                });
            }
            let admission = &admission;
            let pump = scope.spawn(move || {
                while admission.served() + admission.rejected() < target {
                    if admission.pump(serving_ref, workers) == 0 {
                        std::thread::yield_now();
                    }
                }
                done_ref.store(true, Ordering::Relaxed);
                t1.elapsed().as_secs_f64()
            });
            wall = pump.join().expect("pump thread");
            publishes = writer.join().expect("writer thread");
        });
        (wall, admission.served() - served_before, publishes)
    };

    // warmup — one unmeasured sweep so the pump's pooled engines are warm
    // before either measured phase (the serial baseline warmed its own)
    {
        let tickets: Vec<_> = typed.iter().map(|q| admission.submit(q.clone())).collect();
        while admission.pending() > 0 {
            admission.pump(&serving, workers);
        }
        for t in tickets.into_iter().flatten() {
            let _ = t.wait();
        }
        let _ = admission.take_latencies();
    }

    // phase A — writes quiesced: the serving stack's own concurrency cost
    let (quiesced_wall, quiesced_served, _) = run_concurrent(false);
    let qps_quiesced = quiesced_served as f64 / quiesced_wall;
    let _ = admission.take_latencies();

    // phase B — live writer: the same round under epoch churn; the
    // latency tails recorded in the JSON come from this round
    let (serve_wall, served, writer_publishes) = run_concurrent(true);
    let qps_sustained = served as f64 / serve_wall;

    let mut lat = admission.take_latencies();
    lat.sort_by(|x, y| x.total_cmp(y));
    let pct = |p: f64| -> f64 {
        if lat.is_empty() {
            return 0.0;
        }
        let idx = ((lat.len() as f64 - 1.0) * p).round() as usize;
        lat[idx] * 1e3
    };
    let (p50_ms, p99_ms, p999_ms) = (pct(0.50), pct(0.99), pct(0.999));

    // correctness phase, writes quiesced: the sharded service (on its
    // latest epoch — same borrowed world) must answer equivalently to the
    // serial single-engine reference
    let mut results_equivalent = true;
    for (q, want) in typed.iter().zip(&serial) {
        let got = serving.execute(q).expect("sharded execute");
        if !serve_answers_equivalent(q, &got.answer, &want.answer) {
            results_equivalent = false;
            println!("DIVERGED: {:?}", q.kind());
        }
    }
    let totals = serving.reuse_totals();

    println!("{:<34} {:>12}", "metric", "value");
    println!("{:<34} {:>12.1}", "serial execute loop qps", serial_qps);
    println!("{:<34} {:>12.1}", "quiesced qps (4 clients)", qps_quiesced);
    println!(
        "{:<34} {:>12.1}",
        "sustained qps (4 clients + writer)", qps_sustained
    );
    println!(
        "{:<34} {:>11.2}x",
        "speedup vs serial",
        qps_sustained / serial_qps
    );
    println!("{:<34} {:>12.3}", "p50 latency (ms)", p50_ms);
    println!("{:<34} {:>12.3}", "p99 latency (ms)", p99_ms);
    println!("{:<34} {:>12.3}", "p99.9 latency (ms)", p999_ms);
    println!(
        "{:<34} {:>12}",
        "epochs published mid-run", writer_publishes
    );
    println!("{:<34} {:>12}", "coalesced batches", admission.batches());
    println!(
        "{:<34} {:>12}",
        "rejected (backpressure)",
        admission.rejected()
    );
    println!(
        "{:<34} {:>12}",
        "shard-certified answers", totals.shard_local
    );
    println!("{:<34} {:>12}", "full-scene fallbacks", totals.shard_merges);
    println!(
        "{:<34} {:>12}",
        "results equivalent (1e-6)", results_equivalent
    );
    let cpus = std::thread::available_parallelism()
        .map(|n| n.get())
        .unwrap_or(1);
    println!(
        "note: {cpus} CPU(s) visible — the concurrent/serial ratio is \
         cpu-bound; on one core it measures serving-stack overhead, not \
         parallel speedup"
    );

    let json = format!(
        "{{\n  \"scale\": {},\n  \"queries\": {},\n  \"clients\": {},\n  \
         \"workers\": {},\n  \"writer_publishes\": {},\n  \
         \"qps_sustained\": {:.2},\n  \"qps_quiesced\": {:.2},\n  \
         \"serial_qps\": {:.2},\n  \
         \"speedup_vs_serial\": {:.4},\n  \"p50_ms\": {:.4},\n  \
         \"p99_ms\": {:.4},\n  \"p999_ms\": {:.4},\n  \"rejected\": {},\n  \
         \"coalesced_batches\": {},\n  \"shard_local\": {},\n  \
         \"shard_merges\": {},\n  \"results_equivalent\": {}\n}}\n",
        args.scale().0,
        n_queries,
        clients,
        workers,
        writer_publishes,
        qps_sustained,
        qps_quiesced,
        serial_qps,
        qps_sustained / serial_qps,
        p50_ms,
        p99_ms,
        p999_ms,
        admission.rejected(),
        admission.batches(),
        totals.shard_local,
        totals.shard_merges,
        results_equivalent,
    );
    let out = args.out("BENCH_serve.json");
    std::fs::write(&out, json).expect("write serve record");
    println!("recorded {out}");
}

/// The paper's §1 motivation: a naive CONN built from m snapshot ONN
/// queries vs one exact CONN query (same R-trees, same I/O accounting).
fn motivation(args: &Args) {
    use conn_core::baseline::naive_conn_by_onn;
    use conn_core::{ConnService, Query, Scene};
    println!("\n## Motivation — naive m-point ONN sampling vs one exact CONN (UL, k = 1)");
    let scale = Scale(args.scale().0.min(1.0 / 64.0)); // the naive side is slow
    let w = Workload::with_ratio(
        Combo::Ul,
        scale,
        1.0,
        DEFAULT_QL,
        args.queries().min(5),
        args.seed,
    );
    let cfg = ConnConfig::default();
    println!(
        "{:<16} {:>10} {:>9} {:>9} {:>9}",
        "strategy", "total(s)", "cpu(s)", "reads", "faults"
    );
    let service = ConnService::with_config(Scene::borrowing(&w.data_tree, &w.obstacle_tree), cfg);
    let mut exact = conn_core::QueryStats::default();
    for q in &w.queries {
        let query = Query::conn(*q)
            .build()
            .expect("workload segments are valid");
        exact.accumulate(&service.execute(&query).expect("conn query").stats);
    }
    let e = exact.averaged(w.queries.len() as u64);
    println!(
        "{:<16} {:>10.3} {:>9.3} {:>9.1} {:>9.1}",
        "exact CONN", e.total_s, e.cpu_s, e.reads, e.faults
    );
    for m in [10usize, 50] {
        let mut naive = conn_core::QueryStats::default();
        for q in &w.queries {
            let (_, s) = naive_conn_by_onn(&w.data_tree, &w.obstacle_tree, q, m, 1, &cfg);
            naive.accumulate(&s);
        }
        let n = naive.averaged(w.queries.len() as u64);
        println!(
            "{:<16} {:>10.3} {:>9.3} {:>9.1} {:>9.1}",
            format!("naive m={m}"),
            n.total_s,
            n.cpu_s,
            n.reads,
            n.faults
        );
    }
    println!("(naive sampling is also *inexact between samples*; the exact");
    println!(" algorithm reports every split point — see paper §1/§2.2)");
}

/// Figure 9: performance vs query length (CL, k = 5).
fn fig9(args: &Args) {
    println!("\n## Figure 9 — COkNN vs query length ql (CL, k = 5)");
    print_header("ql (% side)");
    let cfg = ConnConfig::default();
    for ql_pct in [1.5, 3.0, 4.5, 6.0, 7.5] {
        let w = Workload::cl(args.scale(), ql_pct / 100.0, args.queries(), args.seed);
        let avg = w.run_two_tree(DEFAULT_K, &cfg, 0.0, 0);
        print_row(&format!("{ql_pct}"), &avg, w.full_vg_vertices());
    }
}

/// Figure 10: performance vs k (CL, ql = 4.5 %).
fn fig10(args: &Args) {
    println!("\n## Figure 10 — COkNN vs k (CL, ql = 4.5%)");
    print_header("k");
    let cfg = ConnConfig::default();
    let w = Workload::cl(args.scale(), DEFAULT_QL, args.queries(), args.seed);
    for k in [1usize, 3, 5, 7, 9] {
        let avg = w.run_two_tree(k, &cfg, 0.0, 0);
        print_row(&format!("{k}"), &avg, w.full_vg_vertices());
    }
}

/// Figure 11: performance vs |P|/|O| (UL and ZL, k = 5, ql = 4.5 %).
fn fig11(args: &Args) {
    let cfg = ConnConfig::default();
    for combo in [Combo::Ul, Combo::Zl] {
        println!(
            "\n## Figure 11 — COkNN vs |P|/|O| ({}, k = 5, ql = 4.5%)",
            combo.label()
        );
        print_header("|P|/|O|");
        for ratio in [0.1, 0.2, 0.5, 1.0, 2.0, 5.0, 10.0] {
            let w = Workload::with_ratio(
                combo,
                args.scale(),
                ratio,
                DEFAULT_QL,
                args.queries(),
                args.seed,
            );
            let avg = w.run_two_tree(DEFAULT_K, &cfg, 0.0, 0);
            print_row(&format!("{ratio}"), &avg, w.full_vg_vertices());
        }
    }
}

/// Figure 12: performance vs LRU buffer size (CL and UL, k = 5, ql = 4.5 %).
fn fig12(args: &Args) {
    let cfg = ConnConfig::default();
    let warmup = args.queries() / 2; // paper: first 50 of 100 warm the buffer
    for combo in [Combo::Cl, Combo::Ul] {
        println!(
            "\n## Figure 12 — COkNN vs buffer size ({}, k = 5, ql = 4.5%)",
            combo.label()
        );
        print_header("buffer (%)");
        let w = match combo {
            Combo::Cl => Workload::cl(args.scale(), DEFAULT_QL, args.queries(), args.seed),
            _ => Workload::with_ratio(
                combo,
                args.scale(),
                1.0,
                DEFAULT_QL,
                args.queries(),
                args.seed,
            ),
        };
        for bs_pct in [0.0, 1.0, 2.0, 4.0, 8.0, 16.0, 32.0] {
            let avg = w.run_two_tree(DEFAULT_K, &cfg, bs_pct / 100.0, warmup);
            print_row(&format!("{bs_pct}"), &avg, w.full_vg_vertices());
        }
    }
}

/// Figure 13: one unified R-tree (1T) vs two R-trees (2T), across ql, k and
/// |P|/|O|.
fn fig13(args: &Args) {
    let cfg = ConnConfig::default();

    println!("\n## Figure 13(a,b) — 1T vs 2T across ql (CL and UL, k = 5)");
    for combo in [Combo::Cl, Combo::Ul] {
        println!("-- {} --", combo.label());
        println!(
            "{:<14} {:>12} {:>12}",
            "ql (% side)", "2T total(s)", "1T total(s)"
        );
        for ql_pct in [1.5, 3.0, 4.5, 6.0, 7.5] {
            let w = match combo {
                Combo::Cl => Workload::cl(args.scale(), ql_pct / 100.0, args.queries(), args.seed),
                _ => Workload::with_ratio(
                    combo,
                    args.scale(),
                    1.0,
                    ql_pct / 100.0,
                    args.queries(),
                    args.seed,
                ),
            };
            let two = w.run_two_tree(DEFAULT_K, &cfg, 0.0, 0);
            let one = w.run_one_tree(DEFAULT_K, &cfg, 0.0, 0);
            println!("{:<14} {:>12.3} {:>12.3}", ql_pct, two.total_s, one.total_s);
        }
    }

    println!("\n## Figure 13(c,d) — 1T vs 2T across k (CL and UL, ql = 4.5%)");
    for combo in [Combo::Cl, Combo::Ul] {
        println!("-- {} --", combo.label());
        println!("{:<14} {:>12} {:>12}", "k", "2T total(s)", "1T total(s)");
        let w = match combo {
            Combo::Cl => Workload::cl(args.scale(), DEFAULT_QL, args.queries(), args.seed),
            _ => Workload::with_ratio(
                combo,
                args.scale(),
                1.0,
                DEFAULT_QL,
                args.queries(),
                args.seed,
            ),
        };
        for k in [1usize, 3, 5, 7, 9] {
            let two = w.run_two_tree(k, &cfg, 0.0, 0);
            let one = w.run_one_tree(k, &cfg, 0.0, 0);
            println!("{:<14} {:>12.3} {:>12.3}", k, two.total_s, one.total_s);
        }
    }

    println!("\n## Figure 13(e,f) — 1T vs 2T across |P|/|O| (UL and ZL, k = 5, ql = 4.5%)");
    for combo in [Combo::Ul, Combo::Zl] {
        println!("-- {} --", combo.label());
        println!(
            "{:<14} {:>12} {:>12}",
            "|P|/|O|", "2T total(s)", "1T total(s)"
        );
        for ratio in [0.1, 0.2, 0.5, 1.0, 2.0, 5.0, 10.0] {
            let w = Workload::with_ratio(
                combo,
                args.scale(),
                ratio,
                DEFAULT_QL,
                args.queries(),
                args.seed,
            );
            let two = w.run_two_tree(DEFAULT_K, &cfg, 0.0, 0);
            let one = w.run_one_tree(DEFAULT_K, &cfg, 0.0, 0);
            println!("{:<14} {:>12.3} {:>12.3}", ratio, two.total_s, one.total_s);
        }
    }
}

/// Ablation: what each pruning lemma and the strict refinement loop cost
/// or buy, one switch off at a time against the all-on default.
fn ablation(args: &Args) {
    println!("\n## Ablation — pruning lemmas & strict mode (UL, k = 5, ql = 4.5%)");
    let w = Workload::with_ratio(
        Combo::Ul,
        args.scale(),
        1.0,
        DEFAULT_QL,
        args.queries(),
        args.seed,
    );
    print_header("config");
    let configs: [(&str, ConnConfig); 5] = [
        ("all-on", ConnConfig::default()),
        ("paper(literal)", ConnConfig::paper()),
        (
            "no-lemma1",
            ConnConfig {
                use_lemma1: false,
                ..ConnConfig::default()
            },
        ),
        (
            "no-lemma6",
            ConnConfig {
                use_lemma6: false,
                ..ConnConfig::default()
            },
        ),
        (
            "no-lemma7",
            ConnConfig {
                use_lemma7: false,
                ..ConnConfig::default()
            },
        ),
    ];
    for (label, cfg) in configs {
        let avg = w.run_two_tree(DEFAULT_K, &cfg, 0.0, 0);
        print_row(label, &avg, w.full_vg_vertices());
    }
}
