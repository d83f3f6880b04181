//! The two closed-loop, one-client workloads: `continuous` and
//! `point_families`. One thread calls `ConnService::execute` op after op.

// lint:allow-file(no-wallclock-in-kernels): this is the benchmark harness, the bench layer the rule sends clocks to; it times calls into the layers from outside

use std::time::{Duration, Instant};

use conn_core::{ConnService, QueryStats};
use conn_datasets::ObstacleLookup;

use crate::metrics::{Report, FAMILY_ROWS, WORKLOADS};
use crate::ops::{self, Done, Fam, Op, World};
use crate::probes::{self, Sampled, PROBE_OPS};
use crate::trace::{Tracer, NO_PARENT};
use crate::util::{mean, mid, p50_p95, tail, Digest};
use crate::verify;
use crate::Ctx;

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Which {
    Continuous,
    PointFamilies,
}

/// Executes `ops` in order, each timed on its own; stops early (the rest is
/// not attempted) only past `deadline`, the guard against a run-away run.
pub fn execute_all(
    service: &ConnService<'_>,
    ops: &[Op],
    tracer: &mut Tracer,
    deadline: Instant,
) -> Vec<Done> {
    let mut done = Vec::with_capacity(ops.len());
    for (i, op) in ops.iter().enumerate() {
        if Instant::now() > deadline {
            break;
        }
        let span = tracer.begin(op.fam.span_name(), i as u64, NO_PARENT);
        let call = tracer.begin("service.execute", i as u64, span);
        let t = Instant::now();
        let outcome = service.execute(&op.query);
        let ms = t.elapsed().as_secs_f64() * 1e3;
        tracer.end(call);
        tracer.end(span);
        done.push(Done {
            ms,
            outcome: outcome.map_err(|e| e.to_string()),
        });
    }
    done
}

/// One untimed op of each family, taken from the tail of the list, so lazy
/// set-up (engine slots, the epoch's flat obstacle field) is paid before
/// the timed window.
pub fn warm_up(service: &ConnService<'_>, ops: &[Op]) {
    let mut seen = Vec::new();
    for op in ops.iter().rev() {
        if !seen.contains(&op.fam) {
            seen.push(op.fam);
            drop(service.execute(&op.query));
        }
    }
}

pub fn family_ms(ops: &[Op], done: &[Done], fams: &[Fam]) -> Vec<f64> {
    ops.iter()
        .zip(done)
        .filter(|(op, _)| fams.contains(&op.fam))
        .map(|(_, d)| d.ms)
        .collect()
}

/// The end-to-end rows every serial workload shares.
pub fn serial_rows(report: &mut Report, ops: &[Op], done: &[Done], fams: [&[Fam]; 3]) {
    let mut all: Vec<f64> = done.iter().map(|d| d.ms).collect();
    let busy_s = all.iter().sum::<f64>() / 1e3;
    let ok = report.attempted - report.failed;
    report.set("ops_per_s", ok as f64 / busy_s, done.len());
    report.set("tail_ms", tail(&mut all), all.len());
    for (name, fams) in FAMILY_ROWS.into_iter().zip(fams) {
        let mut ms = family_ms(ops, done, fams);
        report.set(name, mid(&mut ms), ms.len());
    }
}

pub fn stats_of(done: &[Done]) -> Vec<&QueryStats> {
    done.iter()
        .filter_map(|d| d.outcome.as_ref().ok())
        .map(|r| &r.stats)
        .collect()
}

/// Mean harness wall minus the engine's own clocked time: what `execute`
/// spends outside the kernel (pin, pool checkout, response assembly).
pub fn dispatch_us(done: &[Done]) -> f64 {
    let outside: Vec<f64> = done
        .iter()
        .filter_map(|d| Some(d.ms * 1e3 - d.outcome.as_ref().ok()?.stats.cpu.as_secs_f64() * 1e6))
        .collect();
    mean(&outside)
}

pub fn seg_len_p50(ops: &[Op]) -> f64 {
    use conn_core::QueryKind::{Coknn, Conn, Odist, Range, Route};
    let mut lens: Vec<f64> = ops
        .iter()
        .filter_map(|op| match op.query.kind() {
            Conn { q } | Coknn { q, .. } => Some(q.len()),
            Range { radius, .. } => Some(*radius),
            Odist { a, b } | Route { a, b } => Some(a.dist(*b)),
            _ => None,
        })
        .collect();
    p50_p95(&mut lens).0
}

pub fn run(ctx: &Ctx, which: Which) -> (Report, Tracer) {
    let spec = match which {
        Which::Continuous => &WORKLOADS[0],
        Which::PointFamilies => &WORKLOADS[1],
    };
    let mut report = Report::new(spec, ctx.seed);
    let mut tracer = Tracer::new(false, Instant::now(), 0);

    let ((world, service), cost) = ops::repeat_setup(|| ops::build_service(ctx.seed, ctx.n()));
    cost.record(&mut report);

    let mut digest = Digest::default();
    world.digest(&mut digest);
    let all_ops = match which {
        Which::Continuous => ops::continuous_ops(&world, ctx.seed, ctx.seconds, &mut digest),
        Which::PointFamilies => ops::point_family_ops(&world, ctx.seed, ctx.seconds, &mut digest),
    };
    report.input_digest = digest.hex();
    warm_up(&service, &all_ops);

    // Untraced: the whole list, once. Traced: the first half untraced, then
    // the same half again with spans on; the two means give the overhead.
    let deadline = Instant::now() + Duration::from_secs_f64(ctx.seconds * 2.5 + 5.0);
    let (ops, done, untraced_mean) = if ctx.traced {
        let half = &all_ops[..all_ops.len().div_ceil(2)];
        let reference = execute_all(&service, half, &mut tracer, deadline);
        tracer.set(true);
        let done = execute_all(&service, half, &mut tracer, deadline);
        tracer.set(false);
        (&half[..done.len()], done, ops::mean_ms(&reference))
    } else {
        let done = execute_all(&service, &all_ops, &mut tracer, deadline);
        (&all_ops[..done.len()], done, 0.0)
    };

    let lookup = ObstacleLookup::build(&world.obstacles);
    let verdict = verify::verify_all(&service, &lookup, ops, &done);
    report.attempted = done.len() as u64;
    report.failed = verdict.failed;
    report.set_layer("datasets.detour_frac", verdict.detour_frac());
    report.notes = verdict.first_failures;
    report.answers = verdict.answers;

    let fams: [&[Fam]; 3] = match which {
        Which::Continuous => [&[Fam::Conn], &[Fam::Coknn], &[Fam::Traj]],
        Which::PointFamilies => [&[Fam::Onn], &[Fam::Range], &[Fam::Odist, Fam::Route]],
    };
    serial_rows(&mut report, ops, &done, fams);

    if ctx.traced {
        layer_rows(
            &mut report,
            &world,
            &service,
            ops,
            &done,
            untraced_mean,
            which,
        );
    }
    report.set("peak_rss_mb", crate::util::peak_rss_mb(), 1);
    (report, tracer)
}

fn layer_rows(
    report: &mut Report,
    world: &World,
    service: &ConnService<'_>,
    ops: &[Op],
    done: &[Done],
    untraced_mean_ms: f64,
    which: Which,
) {
    let traced_mean_ms = ops::mean_ms(done);
    if untraced_mean_ms > 0.0 {
        report.set_layer(
            "trace.overhead_frac",
            traced_mean_ms / untraced_mean_ms - 1.0,
        );
    }
    report.set_layer("datasets.seg_len_p50", seg_len_p50(ops));
    probes::stat_rows(report, &stats_of(done));

    let pairs: Vec<(&Op, &Done)> = ops
        .iter()
        .zip(done)
        .filter(|(_, d)| d.outcome.is_ok())
        .collect();
    let sampled: Vec<Sampled<'_>> = probes::stride(&pairs, PROBE_OPS)
        .map(|(op, d)| Sampled {
            op,
            stats: &d.outcome.as_ref().expect("filtered to ok").stats,
        })
        .collect();
    probes::kernel_rows(report, service, &sampled, traced_mean_ms, dispatch_us(done));
    if which == Which::Continuous {
        let trajectories: Vec<&Op> = sampled
            .iter()
            .map(|s| s.op)
            .filter(|op| op.fam == Fam::Traj)
            .take(8)
            .collect();
        probes::session_rows(report, service, &trajectories);
        let conn_ops: Vec<&Op> = ops
            .iter()
            .filter(|op| op.fam == Fam::Conn)
            .take(96)
            .collect();
        probes::shard_rows(report, world, service, &conn_ops);
    }
}
