//! The generated world and op lists: every input is derived from `--seed`,
//! and every input is folded into the workload's drift digest.

// lint:allow-file(no-wallclock-in-kernels): this is the benchmark harness, the bench layer the rule sends clocks to; it times calls into the layers from outside

use std::time::Instant;

use conn_core::{ConnService, DataPoint, Query, Response, Scene, Trajectory};
use conn_datasets::{ObstacleLookup, SPACE, SPACE_SIDE};
use conn_geom::{Point, Rect, Segment};

use crate::metrics::Report;
use crate::util::{mean, sub_seed, Digest, SplitMix64};

/// Cardinality of the paper's LA obstacle set and of the uniform point set
/// laid over it (the UL combination at paper scale).
pub const PAPER_N: usize = 131_461;
pub const DEFAULT_K: usize = 5;
/// Requested CONN/COkNN query length (the paper's 4.5 %); at paper density
/// the generator shrinks it — `datasets.seg_len_p50` reports what was got.
pub const QL: f64 = 0.045;
pub const TRAJ_LEGS: usize = 8;
pub const TRAJ_QL: f64 = 0.01;

/// How many times a run builds its world from scratch; `setup_s` is the
/// median.
pub const SETUPS: usize = 3;

#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub enum Fam {
    Conn,
    Coknn,
    Traj,
    Onn,
    Range,
    Odist,
    Route,
}

impl Fam {
    pub fn label(self) -> &'static str {
        match self {
            Fam::Conn => "conn",
            Fam::Coknn => "coknn",
            Fam::Traj => "traj",
            Fam::Onn => "onn",
            Fam::Range => "range",
            Fam::Odist => "odist",
            Fam::Route => "route",
        }
    }

    pub fn span_name(self) -> &'static str {
        match self {
            Fam::Conn => "op.conn",
            Fam::Coknn => "op.coknn",
            Fam::Traj => "op.traj",
            Fam::Onn => "op.onn",
            Fam::Range => "op.range",
            Fam::Odist => "op.odist",
            Fam::Route => "op.route",
        }
    }
}

#[derive(Debug, Clone)]
pub struct Op {
    pub fam: Fam,
    pub query: Query,
}

/// One executed op: harness wall and what came back.
#[derive(Debug)]
pub struct Done {
    pub ms: f64,
    pub outcome: Result<Response, String>,
}

pub fn mean_ms(done: &[Done]) -> f64 {
    mean(&done.iter().map(|d| d.ms).collect::<Vec<_>>())
}

pub struct World {
    pub obstacles: Vec<Rect>,
    pub points: Vec<DataPoint>,
}

pub fn generate_world(seed: u64, n: usize) -> World {
    let obstacles = conn_datasets::la_like(n, seed);
    let points = DataPoint::from_points(&conn_datasets::uniform_points(
        n,
        seed.wrapping_add(1),
        &obstacles,
    ));
    World { obstacles, points }
}

impl World {
    pub fn digest(&self, d: &mut Digest) {
        for r in &self.obstacles {
            d.f64s(&[r.min_x, r.min_y, r.max_x, r.max_y]);
        }
        for p in &self.points {
            d.word(u64::from(p.id));
            d.f64s(&[p.pos.x, p.pos.y]);
        }
    }
}

/// Median set-up cost over [`SETUPS`] from-scratch builds.
#[derive(Debug, Default, Clone, Copy)]
pub struct SetupCost {
    pub total_s: f64,
    pub gen_s: f64,
    pub bulk_s: f64,
}

impl SetupCost {
    pub fn record(&self, report: &mut Report) {
        report.set("setup_s", self.total_s, SETUPS);
        report.set_layer("datasets.gen_s", self.gen_s);
        report.set_layer("index.bulk_s", self.bulk_s);
    }
}

fn median(mut xs: Vec<f64>) -> f64 {
    xs.sort_by(f64::total_cmp);
    xs[xs.len() / 2]
}

/// Builds the world [`SETUPS`] times with `build` (which returns its own
/// generator and bulk-load seconds) and keeps the last product.
pub fn repeat_setup<T>(mut build: impl FnMut() -> (T, f64, f64)) -> (T, SetupCost) {
    let mut totals = Vec::new();
    let mut gens = Vec::new();
    let mut bulks = Vec::new();
    let mut last = None;
    for _ in 0..SETUPS {
        drop(last.take());
        let t = Instant::now();
        let (product, gen_s, bulk_s) = build();
        totals.push(t.elapsed().as_secs_f64());
        gens.push(gen_s);
        bulks.push(bulk_s);
        last = Some(product);
    }
    let cost = SetupCost {
        total_s: median(totals),
        gen_s: median(gens),
        bulk_s: median(bulks),
    };
    (last.expect("SETUPS >= 1"), cost)
}

/// Generate + bulk-load + service construction: the set-up of the three
/// workloads that serve a frozen scene.
pub fn build_service(seed: u64, n: usize) -> ((World, ConnService<'static>), f64, f64) {
    let t = Instant::now();
    let world = generate_world(seed, n);
    let gen_s = t.elapsed().as_secs_f64();
    let t = Instant::now();
    let scene = Scene::new(world.points.clone(), world.obstacles.clone());
    let bulk_s = t.elapsed().as_secs_f64();
    ((world, ConnService::new(scene)), gen_s, bulk_s)
}

pub fn scaled(per_second: f64, seconds: f64) -> usize {
    ((per_second * seconds).round() as usize).max(1)
}

/// Spreads `counts[f]` items of each family evenly over one sequence: at
/// every step the family furthest behind its share goes next (ties to the
/// lower index), so every prefix stays mixed in proportion.
pub fn interleave(counts: &[usize]) -> Vec<usize> {
    let total: usize = counts.iter().sum();
    let mut emitted = vec![0usize; counts.len()];
    let mut out = Vec::with_capacity(total);
    for step in 1..=total {
        let pick = (0..counts.len())
            .filter(|&f| emitted[f] < counts[f])
            .max_by(|&a, &b| {
                let deficit = |f: usize| (counts[f] * step) as i64 - (emitted[f] * total) as i64;
                deficit(a).cmp(&deficit(b)).then(b.cmp(&a))
            })
            .expect("total counts the remaining items");
        emitted[pick] += 1;
        out.push(pick);
    }
    out
}

/// Shrink steps of `query_segments` kept at paper density: 450 x 0.9^k for
/// k = 6, 7, 8, i.e. 239, 215 and 194 units around the realised median.
const LENGTH_STEPS: [i32; 3] = [6, 7, 8];

/// `count` query segments with `ql` 4.5 % requested. In a dense field the
/// generator shrinks a segment by 0.9 per 500 rejections, so realised
/// lengths are a lottery over a ladder of steps, and latency follows length
/// (correlation 0.75 in log space). To keep the seed from re-drawing that
/// lottery, the three central steps are kept in exactly equal shares,
/// round-robin, so every prefix is balanced too. A sparse field (smoke
/// scale) never shrinks and is taken as it comes.
pub fn segments(world: &World, count: usize, seed: u64) -> Vec<Segment> {
    let step_of = |s: &Segment| ((s.len() / (QL * SPACE_SIDE)).ln() / 0.9f64.ln()).round() as i32;
    let mut buckets: [Vec<Segment>; 3] = Default::default();
    let quota = count.div_ceil(3);
    for round in 0.. {
        // the ladder is the generator's; should it move, fail loudly (the
        // input digest would refuse the run next) rather than draw forever
        assert!(
            round < 40,
            "query_segments no longer yields the 239/215/194-unit steps"
        );
        let batch = if round == 0 {
            2 * count
        } else {
            count.div_ceil(2)
        }
        .max(16);
        let drawn = conn_datasets::query_segments(
            batch,
            QL,
            sub_seed(seed, 0x5E6 + round),
            &world.obstacles,
        );
        if round == 0 && drawn.iter().filter(|s| step_of(s) == 0).count() * 2 >= drawn.len() {
            return drawn.into_iter().take(count).collect();
        }
        for s in drawn {
            if let Some(b) = LENGTH_STEPS.iter().position(|&k| k == step_of(&s)) {
                if buckets[b].len() < quota {
                    buckets[b].push(s);
                }
            }
        }
        if buckets.iter().all(|b| b.len() == quota) {
            break;
        }
    }
    (0..count).map(|i| buckets[i % 3][i / 3]).collect()
}

/// Distance between odist/route endpoints: 0.6 % of the space side at paper
/// cardinality (about two obstacle spacings), scaled with the spacing so the
/// sparser smoke scene stays in the same regime.
pub fn p2p_len(world: &World) -> f64 {
    0.006 * SPACE_SIDE * (PAPER_N as f64 / world.obstacles.len().max(1) as f64).sqrt()
}

/// Endpoints for `count` odist/route ops: pairs of free points
/// [`p2p_len`] apart that do **not** see each other — uniform start, uniform
/// direction, kept when both ends are outside every obstacle, exactly one
/// obstacle crosses the line between them, and there is a way around it past
/// one of its corners. Every answer bends around that obstacle;
/// `datasets.detour_frac` reports the share that did.
///
/// Why this narrowly: what an odist costs is decided by how much stands in
/// the way. At paper density it is 0.15 s when nothing does (all of it
/// priming the field), about 0.39 s across one obstacle (0.33 s when one
/// corner gets past it, 0.53 s when not), 0.70 s across two and a second
/// beyond that (README). Left to the seed, that lottery moved a family's
/// typical latency by 30 % from seed to seed; the class kept here is the
/// commonest one at this distance and varies by a quarter of its mean.
pub fn free_pairs(world: &World, count: usize, seed: u64) -> Vec<Segment> {
    let len = p2p_len(world);
    let lookup = ObstacleLookup::build(&world.obstacles);
    let clear = |from: Point, to: Point| !lookup.segment_blocked(&Segment::new(from, to));
    let mut rng = SplitMix64::new(seed);
    let mut pairs = Vec::with_capacity(count);
    let mut draws = 0usize;
    while pairs.len() < count {
        draws += 1;
        assert!(
            draws < 1_000 * count.max(100),
            "no free pairs with one obstacle between them: field too sparse or too dense"
        );
        let a = Point::new(
            SPACE.min_x + SPACE.width() * rng.next_f64(),
            SPACE.min_y + SPACE.height() * rng.next_f64(),
        );
        let theta = std::f64::consts::TAU * rng.next_f64();
        let b = Point::new(a.x + len * theta.cos(), a.y + len * theta.sin());
        if !SPACE.contains(b) || lookup.point_in_interior(a) || lookup.point_in_interior(b) {
            continue;
        }
        let seg = Segment::new(a, b);
        let bb = Rect::from_segment(&seg);
        let mut across = world
            .obstacles
            .iter()
            .filter(|r| r.intersects(&bb) && r.blocks(&seg));
        if let (Some(only), None) = (across.next(), across.next()) {
            if only.corners().iter().any(|&c| clear(a, c) && clear(c, b)) {
                pairs.push(seg);
            }
        }
    }
    pairs
}

pub fn digest_segments(d: &mut Digest, segs: &[Segment]) {
    for s in segs {
        d.f64s(&[s.a.x, s.a.y, s.b.x, s.b.y]);
    }
}

pub fn digest_points(d: &mut Digest, pts: &[Point]) {
    for p in pts {
        d.f64s(&[p.x, p.y]);
    }
}

fn build(q: conn_core::QueryBuilder) -> Query {
    q.build().expect("generated query validates")
}

pub fn conn(s: &Segment) -> Op {
    Op {
        fam: Fam::Conn,
        query: build(Query::conn(*s)),
    }
}

pub fn coknn(s: &Segment) -> Op {
    Op {
        fam: Fam::Coknn,
        query: build(Query::coknn(*s, DEFAULT_K)),
    }
}

pub fn onn(p: Point) -> Op {
    Op {
        fam: Fam::Onn,
        query: build(Query::onn(p, DEFAULT_K)),
    }
}

pub fn range(s: &Segment) -> Op {
    Op {
        fam: Fam::Range,
        query: build(Query::range(s.a, s.len())),
    }
}

pub fn odist(s: &Segment) -> Op {
    Op {
        fam: Fam::Odist,
        query: build(Query::odist(s.a, s.b)),
    }
}

pub fn route(s: &Segment) -> Op {
    Op {
        fam: Fam::Route,
        query: build(Query::route(s.a, s.b)),
    }
}

/// `continuous`: per round 6 CONN + 4 COkNN + 5 trajectory queries,
/// interleaved; 2 rounds per second of budget (240/160/200 at 20 s). COkNN
/// has the widest latency distribution of the three, so it gets more than
/// its share of the paper's attention in samples.
pub fn continuous_ops(world: &World, seed: u64, seconds: f64, d: &mut Digest) -> Vec<Op> {
    let rounds = scaled(2.0, seconds);
    let counts = [6 * rounds, 4 * rounds, 5 * rounds];
    let segs = segments(world, counts[0] + counts[1], sub_seed(seed, 1));
    let routes = conn_datasets::trajectory_routes(
        counts[2],
        TRAJ_LEGS,
        TRAJ_QL,
        sub_seed(seed, 2),
        &world.obstacles,
    );
    digest_segments(d, &segs);
    for r in &routes {
        digest_points(d, r);
    }
    let (conn_segs, coknn_segs) = segs.split_at(counts[0]);
    let mut next = [0usize; 3];
    interleave(&counts)
        .into_iter()
        .map(|f| {
            let i = next[f];
            next[f] += 1;
            match f {
                0 => conn(&conn_segs[i]),
                1 => coknn(&coknn_segs[i]),
                _ => Op {
                    fam: Fam::Traj,
                    query: build(Query::trajectory(Trajectory::new(routes[i].clone()), 1)),
                },
            }
        })
        .collect()
}

/// `point_families`: per second of budget 20 ONN + 4 range + 1.2 odist +
/// 1.2 route (400/80/24/24 at 20 s), round-robin interleaved. An odist or
/// route around one obstacle costs 0.4 s, so the 48 of them are 80 % of the
/// run's wall.
pub fn point_family_ops(world: &World, seed: u64, seconds: f64, d: &mut Digest) -> Vec<Op> {
    let counts = [
        scaled(20.0, seconds),
        scaled(4.0, seconds),
        scaled(1.2, seconds),
        scaled(1.2, seconds),
    ];
    let anchors = conn_datasets::uniform_points(counts[0], sub_seed(seed, 3), &world.obstacles);
    let range_segs = segments(world, counts[1], sub_seed(seed, 4));
    let pairs = free_pairs(world, counts[2] + counts[3], sub_seed(seed, 5));
    digest_points(d, &anchors);
    digest_segments(d, &range_segs);
    digest_segments(d, &pairs);
    let (odist_segs, route_segs) = pairs.split_at(counts[2]);
    let mut next = [0usize; 4];
    interleave(&counts)
        .into_iter()
        .map(|f| {
            let i = next[f];
            next[f] += 1;
            match f {
                0 => onn(anchors[i]),
                1 => range(&range_segs[i]),
                2 => odist(&odist_segs[i]),
                _ => route(&route_segs[i]),
            }
        })
        .collect()
}

/// `serve_mix`'s family mix by count, per block of 20 ops: conn 35 %,
/// coknn 10 %, onn 25 %, range 10 %, odist 15 %, route 5 %. Every block holds
/// the exact shares in the same evenly spread order ([`interleave`]): the
/// odist and route ops are 80 % of the work, and where the seed shuffled
/// them, which of them met in one batch moved throughput by 18 %.
pub const MIX_BLOCK: [usize; 6] = [7, 2, 5, 2, 3, 1];

pub fn mixed_ops(world: &World, seed: u64, count: usize, tag: u64, d: &mut Digest) -> Vec<Op> {
    let blocks = count.div_ceil(20);
    // each family draws what it needs: a segment (conn, coknn, range), an
    // anchor (onn) or a pair of endpoints (odist, route)
    let segs = segments(
        world,
        blocks * (MIX_BLOCK[0] + MIX_BLOCK[1] + MIX_BLOCK[3]),
        sub_seed(seed, tag),
    );
    let anchors = conn_datasets::uniform_points(
        blocks * MIX_BLOCK[2],
        sub_seed(seed, tag ^ 0x0F),
        &world.obstacles,
    );
    let pairs = free_pairs(
        world,
        blocks * (MIX_BLOCK[4] + MIX_BLOCK[5]),
        sub_seed(seed, tag ^ 0xF0),
    );
    digest_segments(d, &segs);
    digest_points(d, &anchors);
    digest_segments(d, &pairs);
    let (mut segs, mut anchors, mut pairs) = (segs.iter(), anchors.iter(), pairs.iter());
    let mut seg = || segs.next().expect("a segment per conn, coknn and range op");
    let mut pair = || pairs.next().expect("a pair per odist and route op");
    let order = interleave(&MIX_BLOCK);
    let mut ops = Vec::with_capacity(blocks * 20);
    for _ in 0..blocks {
        for &f in &order {
            ops.push(match f {
                0 => conn(seg()),
                1 => coknn(seg()),
                2 => onn(*anchors.next().expect("an anchor per onn op")),
                3 => range(seg()),
                4 => odist(pair()),
                _ => route(pair()),
            });
        }
    }
    ops.truncate(count);
    ops
}

/// Seeded Poisson arrivals given their number: `count` due times in seconds
/// from phase start over `duration` (exponential gaps rescaled to fill the
/// phase — the order statistics of a Poisson process conditioned on its
/// count, so the offered load is the same for every seed).
pub fn poisson_schedule(seed: u64, count: usize, duration: f64) -> Vec<f64> {
    let mut rng = SplitMix64::new(seed);
    let mut t = 0.0;
    let mut due: Vec<f64> = (0..=count)
        .map(|_| {
            t += -(1.0 - rng.next_f64()).ln();
            t
        })
        .collect();
    let end = due.pop().expect("count + 1 gaps were drawn");
    for d in &mut due {
        *d *= duration / end;
    }
    due
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn poisson_schedule_is_deterministic_in_the_seed_and_exponential() {
        let a = poisson_schedule(9, 500, 50.0);
        assert_eq!(a, poisson_schedule(9, 500, 50.0));
        assert_ne!(a, poisson_schedule(10, 500, 50.0));
        assert_eq!(a.len(), 500);
        assert!(a.windows(2).all(|w| w[0] < w[1]));
        assert!(a[0] > 0.0 && a[499] < 50.0);
        // exponential gaps: about 1 - 1/e of them are below the mean gap
        let short = a.windows(2).filter(|w| w[1] - w[0] < 0.1).count();
        assert!((270..360).contains(&short), "{short} gaps below the mean");
    }

    #[test]
    fn interleave_keeps_every_prefix_in_proportion() {
        let seq = interleave(&[3, 1, 2]);
        assert_eq!(seq.len(), 6);
        for (f, want) in [3usize, 1, 2].into_iter().enumerate() {
            assert_eq!(seq.iter().filter(|&&x| x == f).count(), want);
        }
        let long = interleave(&[400, 120, 40, 40]);
        for window in long.chunks(30) {
            assert_eq!(window.iter().filter(|&&x| x == 0).count(), 20);
            assert!(window.iter().filter(|&&x| x == 2).count() == 2);
        }
    }

    #[test]
    fn paper_density_segments_come_in_equal_thirds_of_the_central_steps() {
        let world = generate_world(2009, PAPER_N);
        let segs = segments(&world, 9, 77);
        assert_eq!(segs.len(), 9);
        let mut by_len = [0usize; 3];
        for (i, s) in segs.iter().enumerate() {
            let step = [239.15, 215.23, 193.71]
                .iter()
                .position(|l| (s.len() - l).abs() < 0.01)
                .unwrap_or_else(|| panic!("length {} is off the ladder", s.len()));
            assert_eq!(step, i % 3, "round-robin over the steps");
            by_len[step] += 1;
        }
        assert_eq!(by_len, [3, 3, 3]);
        // a sparse field never shrinks and is taken as it comes
        let sparse = generate_world(2009, PAPER_N / 64);
        assert!(segments(&sparse, 5, 77)
            .iter()
            .all(|s| (s.len() - 450.0).abs() < 1e-6));

        // odist/route endpoints: free, 60 units apart, not in sight
        let lookup = ObstacleLookup::build(&world.obstacles);
        let pairs = free_pairs(&world, 12, 78);
        assert_eq!(pairs.len(), 12);
        for p in &pairs {
            assert!((p.len() - 60.0).abs() < 1e-9, "{}", p.len());
            assert!(!lookup.point_in_interior(p.a) && !lookup.point_in_interior(p.b));
            assert!(lookup.segment_blocked(p), "{p:?} see each other");
            let across = world.obstacles.iter().filter(|r| r.blocks(p)).count();
            assert_eq!(across, 1);
        }
        assert_ne!(pairs, free_pairs(&world, 12, 79));
    }

    /// The point of [`free_pairs`]: every route has to bend around an
    /// obstacle, so the route cross-check sees more than one leg and
    /// `odist >= Euclid` is not an equality.
    #[test]
    fn routes_between_free_pairs_go_around_an_obstacle() {
        let ((world, service), ..) = build_service(2009, PAPER_N / 64);
        let pairs = free_pairs(&world, 16, 5);
        let mut bent = 0;
        for p in &pairs {
            let answer = service.execute(&route(p).query).expect("route").answer;
            let conn_core::Answer::Route {
                dist,
                path: Some(path),
            } = answer
            else {
                panic!("free endpoints are reachable: {answer:?}");
            };
            assert!(dist > p.len() * (1.0 + 1e-9), "{dist} is the straight line");
            bent += usize::from(path.len() >= 3);
        }
        assert_eq!(
            bent,
            pairs.len(),
            "every path has a vertex between its ends"
        );
    }

    #[test]
    fn mixed_ops_hold_the_declared_shares_per_block() {
        let world = generate_world(5, 300);
        let mut d = Digest::default();
        let ops = mixed_ops(&world, 5, 40, 7, &mut d);
        assert_eq!(ops.len(), 40);
        for (f, fam) in [
            Fam::Conn,
            Fam::Coknn,
            Fam::Onn,
            Fam::Range,
            Fam::Odist,
            Fam::Route,
        ]
        .into_iter()
        .enumerate()
        {
            let n = ops.iter().filter(|o| o.fam == fam).count();
            assert_eq!(n, 2 * MIX_BLOCK[f], "{}", fam.label());
        }
        let mut d2 = Digest::default();
        mixed_ops(&world, 5, 40, 7, &mut d2);
        assert_eq!(d.hex(), d2.hex());
    }
}
