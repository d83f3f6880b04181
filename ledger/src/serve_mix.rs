//! `serve_mix`: the six-family mix through `Admission::submit` and one pump
//! thread calling `pump(service, nproc)` on an unsharded service.
//!
//! Phase S is a closed loop (`4 x nproc` clients, each submitting its next
//! op when the previous one completes): saturation throughput, latency at
//! saturation, and per-family service time inside the pump's workers — the
//! bounded end-to-end rows. Phases R1 and R2 are open loops: seeded Poisson
//! arrivals at a fixed rate, the generator sleeping to each due time, a
//! collector stamping completions, and **latency measured from the due
//! time** — so a stall charges every request it delays. They run in the
//! traced pass only and feed the `admission.*` rows, which carry no bound:
//! **open-loop latency is measured but not guarded.** An odist or route op
//! costs 0.4 s and the mix saturates two cores at 12 req/s, so a run affords
//! some 75 arrivals per phase, and every from-due statistic of that (mean,
//! interquartile mean, any percentile, per family or overall) moved by 35 to
//! 80 % between seeds; the largest bound a metric may carry is 25 %.
//!
//! The generator, collector and clients only sleep or block; the pump's
//! `nproc` workers are the only busy threads.

// lint:allow-file(no-wallclock-in-kernels): this is the benchmark harness, the bench layer the rule sends clocks to; it times calls into the layers from outside
// lint:allow-file(no-thread-spawn-outside-pool): the serving harness's pump, client and collector threads, as in crates/bench; they only submit, sleep or block

use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use std::sync::mpsc;
use std::time::{Duration, Instant};

use conn_core::{Admission, AdmissionConfig, ConnService, Ticket};
use conn_datasets::ObstacleLookup;

use crate::metrics::{Report, FAMILY_ROWS, WORKLOADS};
use crate::ops::{self, Done, Fam, Op};
use crate::probes;
use crate::serial::{stats_of, warm_up};
use crate::trace::{Tracer, NO_PARENT};
use crate::util::{mid, p50_p95, percentile, sub_seed, Digest};
use crate::verify;
use crate::Ctx;

/// Arrival rates of the two open-loop phases, requests per second: about a
/// third and two thirds of the mix's saturation rate on the 2-core reference
/// box (about 12/s).
const R1_RATE: f64 = 4.0;
const R2_RATE: f64 = 8.0;
/// Closed-loop ops per second of budget (300 at 20 s, about 19 s of wall).
const S_OPS_PER_SECOND: f64 = 15.0;
const CLIENTS_PER_CORE: usize = 4;
const MIX_BLOCK_OPS: usize = 20;
/// No blocking wait in the harness is unbounded: an op not done by then is
/// a failure and the run goes on.
const OP_DEADLINE: Duration = Duration::from_secs(30);
const POLL: Duration = Duration::from_micros(100);
/// The latency limit `admission.max_rate_ok` holds a rate to.
const P95_LIMIT_MS: f64 = 1000.0;

fn wait_for(ticket: &Ticket) -> Result<conn_core::Response, String> {
    let give_up = Instant::now() + OP_DEADLINE;
    loop {
        if let Some(result) = ticket.try_take() {
            return result.map_err(|e| e.to_string());
        }
        if Instant::now() > give_up {
            return Err("timed out after 30 s".to_string());
        }
        std::thread::sleep(POLL);
    }
}

/// Runs `body` beside one pump thread draining `admission`; returns the
/// body's result and the pump's spans.
fn with_pump<R>(
    admission: &Admission,
    service: &ConnService<'_>,
    zero: Instant,
    traced: bool,
    body: impl FnOnce() -> R,
) -> (R, Tracer) {
    let stop = AtomicBool::new(false);
    std::thread::scope(|scope| {
        let pump = scope.spawn(|| {
            let mut tracer = Tracer::new(traced, zero, 1);
            let mut batch = 0u64;
            while !stop.load(Ordering::SeqCst) || admission.pending() > 0 {
                let start = Instant::now();
                if admission.pump(service, crate::nproc()) == 0 {
                    std::thread::sleep(POLL);
                } else {
                    tracer.record("admission.pump", batch, start, Instant::now());
                    batch += 1;
                }
            }
            tracer
        });
        let result = body();
        stop.store(true, Ordering::SeqCst);
        (result, pump.join().expect("pump thread panicked"))
    })
}

/// Phase S: closed-loop clients share one cursor into `ops`; enough of them
/// ([`CLIENTS_PER_CORE`] per core) that the one-pump queue never runs dry —
/// `nproc` clients measured batch-pairing luck, not saturation. Returns
/// per-op results (latency submit -> done) and the phase wall.
fn closed_loop(
    admission: &Admission,
    ops: &[Op],
    zero: Instant,
    traced: bool,
) -> (Vec<Done>, f64, Tracer) {
    let cursor = AtomicUsize::new(0);
    let started = Instant::now();
    let mut per_client: Vec<(Vec<(usize, Done)>, Tracer)> = std::thread::scope(|scope| {
        let clients: Vec<_> = (0..CLIENTS_PER_CORE * crate::nproc())
            .map(|c| {
                let cursor = &cursor;
                scope.spawn(move || {
                    let mut tracer = Tracer::new(traced, zero, 2 + c as u64);
                    let mut mine = Vec::new();
                    loop {
                        let i = cursor.fetch_add(1, Ordering::Relaxed);
                        let Some(op) = ops.get(i) else { break };
                        let id = i as u64;
                        let span = tracer.begin(op.fam.span_name(), id, NO_PARENT);
                        let t = Instant::now();
                        let submit = tracer.begin("admission.submit", id, span);
                        let ticket = admission.submit(op.query.clone());
                        tracer.end(submit);
                        let wait = tracer.begin("ticket.wait", id, span);
                        let outcome = ticket.map_err(|e| e.to_string()).and_then(|t| wait_for(&t));
                        tracer.end(wait);
                        let ms = t.elapsed().as_secs_f64() * 1e3;
                        tracer.end(span);
                        mine.push((i, Done { ms, outcome }));
                    }
                    (mine, tracer)
                })
            })
            .collect();
        clients
            .into_iter()
            .map(|c| c.join().expect("client thread panicked"))
            .collect()
    });
    let wall_s = started.elapsed().as_secs_f64();
    let mut tracer = Tracer::new(traced, zero, 0);
    let mut indexed = Vec::new();
    for (mine, t) in per_client.drain(..) {
        indexed.extend(mine);
        tracer.absorb(t);
    }
    indexed.sort_by_key(|(i, _)| *i);
    (
        indexed.into_iter().map(|(_, d)| d).collect(),
        wall_s,
        tracer,
    )
}

/// What one open-loop phase measured.
struct OpenLoop {
    /// Per op, latency from its due time.
    done: Vec<Done>,
    /// How late the generator submitted each op, ms.
    lag_ms: Vec<f64>,
    /// Queue depth when the last arrival had been submitted.
    backlog_end: usize,
    batch_size_mean: f64,
    tracer: Tracer,
}

/// One open-loop phase: this thread is the generator, a second one the
/// collector.
fn open_loop(
    admission: &Admission,
    ops: &[Op],
    due_s: &[f64],
    zero: Instant,
    traced: bool,
    first_op_id: u64,
) -> OpenLoop {
    let (served0, batches0) = (admission.served(), admission.batches());
    let (tx, rx) = mpsc::channel::<(usize, Result<Ticket, String>, Instant)>();
    let phase_start = Instant::now();
    let (collected, lag_ms, backlog_end) = std::thread::scope(|scope| {
        let collector = scope.spawn(move || {
            let mut tracer = Tracer::new(traced, zero, 1000 + first_op_id);
            let mut open: Vec<(usize, Ticket, Instant)> = Vec::new();
            let mut done: Vec<(usize, Done)> = Vec::new();
            let mut finish = |i: usize, due: Instant, outcome, tracer: &mut Tracer| {
                let now = Instant::now();
                tracer.record(ops[i].fam.span_name(), first_op_id + i as u64, due, now);
                let ms = now.saturating_duration_since(due).as_secs_f64() * 1e3;
                done.push((i, Done { ms, outcome }));
            };
            let mut generating = true;
            while generating || !open.is_empty() {
                loop {
                    match rx.try_recv() {
                        Ok((i, Ok(ticket), due)) => open.push((i, ticket, due)),
                        Ok((i, Err(e), due)) => finish(i, due, Err(e), &mut tracer),
                        Err(mpsc::TryRecvError::Empty) => break,
                        Err(mpsc::TryRecvError::Disconnected) => {
                            generating = false;
                            break;
                        }
                    }
                }
                open.retain(|(i, ticket, due)| match ticket.try_take() {
                    Some(result) => {
                        finish(*i, *due, result.map_err(|e| e.to_string()), &mut tracer);
                        false
                    }
                    None if due.elapsed() > OP_DEADLINE => {
                        finish(
                            *i,
                            *due,
                            Err("timed out after 30 s".to_string()),
                            &mut tracer,
                        );
                        false
                    }
                    None => true,
                });
                std::thread::sleep(POLL);
            }
            (done, tracer)
        });

        let mut lag_ms = Vec::with_capacity(ops.len());
        for (i, (op, due_s)) in ops.iter().zip(due_s).enumerate() {
            let due = phase_start + Duration::from_secs_f64(*due_s);
            if let Some(ahead) = due.checked_duration_since(Instant::now()) {
                std::thread::sleep(ahead);
            }
            lag_ms.push(due.elapsed().as_secs_f64() * 1e3);
            let ticket = admission
                .submit(op.query.clone())
                .map_err(|e| e.to_string());
            if tx.send((i, ticket, due)).is_err() {
                break;
            }
        }
        let backlog_end = admission.pending();
        drop(tx);
        let collected = collector.join().expect("collector thread panicked");
        (collected, lag_ms, backlog_end)
    });
    let (mut indexed, tracer) = collected;
    indexed.sort_by_key(|(i, _)| *i);
    let batches = admission.batches() - batches0;
    OpenLoop {
        done: indexed.into_iter().map(|(_, d)| d).collect(),
        lag_ms,
        backlog_end,
        batch_size_mean: (admission.served() - served0) as f64 / batches.max(1) as f64,
        tracer,
    }
}

pub fn run(ctx: &Ctx) -> (Report, Tracer) {
    let mut report = Report::new(&WORKLOADS[2], ctx.seed);
    let zero = Instant::now();

    let ((world, service), cost) = ops::repeat_setup(|| ops::build_service(ctx.seed, ctx.n()));
    cost.record(&mut report);

    // Untraced: phase S alone, the whole budget. Traced: the first quarter
    // of S twice (spans off, then on), then R1 over half the budget and R2
    // over 30 %. Both passes generate all of it, so one digest covers both.
    let mut digest = Digest::default();
    world.digest(&mut digest);
    let mut s_ops = ops::mixed_ops(
        &world,
        ctx.seed,
        ops::scaled(S_OPS_PER_SECOND, ctx.seconds),
        11,
        &mut digest,
    );
    let phase = |rate: f64, share: f64, tag: u64, digest: &mut Digest| {
        let count = (rate * ctx.seconds * share).round() as usize;
        let due = ops::poisson_schedule(sub_seed(ctx.seed, tag), count, ctx.seconds * share);
        digest.f64s(&due);
        (
            ops::mixed_ops(&world, ctx.seed, due.len(), tag + 1, digest),
            due,
        )
    };
    let (r1_ops, r1_due) = phase(R1_RATE, 0.5, 12, &mut digest);
    let (r2_ops, r2_due) = phase(R2_RATE, 0.3, 14, &mut digest);
    report.input_digest = digest.hex();
    if ctx.traced {
        s_ops.truncate(s_ops.len().div_ceil(4));
    }
    warm_up(&service, &s_ops);

    let admission = Admission::new(AdmissionConfig::default());
    let coalesce = AdmissionConfig::default().coalesce;
    let mut tracer = Tracer::new(ctx.traced, zero, 0);
    let r1_id = s_ops.len() as u64;
    let r2_id = r1_id + r1_ops.len() as u64;
    let ((s_ref, s, open), pump_spans) = with_pump(&admission, &service, zero, ctx.traced, || {
        // traced pass: the same closed loop once without spans, for overhead
        let s_ref = ctx
            .traced
            .then(|| closed_loop(&admission, &s_ops, zero, false));
        let s = closed_loop(&admission, &s_ops, zero, ctx.traced);
        let open = ctx.traced.then(|| {
            (
                open_loop(&admission, &r1_ops, &r1_due, zero, true, r1_id),
                open_loop(&admission, &r2_ops, &r2_due, zero, true, r2_id),
            )
        });
        (s_ref, s, open)
    });
    let (s_done, s_wall, s_spans) = s;
    tracer.absorb(pump_spans);
    tracer.absorb(s_spans);

    // correctness, outside every timed window
    let lookup = ObstacleLookup::build(&world.obstacles);
    let mut phases: Vec<(&[Op], &[Done])> = vec![(&s_ops, &s_done)];
    if let Some((r1, r2)) = &open {
        phases.push((&r1_ops, &r1.done));
        phases.push((&r2_ops, &r2.done));
    }
    let (mut p2p, mut detours) = (0, 0);
    for (ops, done) in &phases {
        let verdict = verify::verify_all(&service, &lookup, ops, done);
        report.attempted += done.len() as u64;
        report.failed += verdict.failed;
        report.notes.extend(verdict.first_failures);
        p2p += verdict.p2p;
        detours += verdict.detours;
        for (fam, (count, sum)) in verdict.answers {
            let slot = report.answers.entry(fam).or_insert((0, 0.0));
            slot.0 += count;
            slot.1 += sum;
        }
    }
    report.set_layer("datasets.detour_frac", detours as f64 / p2p.max(1) as f64);

    let s_ok = s_done.iter().filter(|d| d.outcome.is_ok()).count();
    report.set("ops_per_s", s_ok as f64 / s_wall, s_done.len());
    // The tail at saturation: per block of 20 consecutive ops (one mix block)
    // the p90 of submit -> done, then the median over the blocks, so that one
    // straggling batch spoils one block and not the figure.
    let mut block_p90: Vec<f64> = s_done
        .chunks_exact(MIX_BLOCK_OPS)
        .map(|block| {
            let mut ms: Vec<f64> = block.iter().map(|d| d.ms).collect();
            ms.sort_by(f64::total_cmp);
            percentile(&ms, 0.90)
        })
        .collect();
    if block_p90.is_empty() {
        block_p90 = s_done.iter().map(|d| d.ms).collect();
    }
    report.set("tail_ms", p50_p95(&mut block_p90).0, s_done.len());
    // Every ticket of a batch is fulfilled when its slowest op ends, so at
    // saturation all families wait alike; the family rows are the op's own
    // clocked time inside the pump's workers: what the serving path (pool
    // checkout, pooled I/O, a second worker contending for memory) makes of
    // a family's cost.
    let rows: [(&'static str, &[Fam]); 3] = [
        (FAMILY_ROWS[0], &[Fam::Conn]),
        (FAMILY_ROWS[1], &[Fam::Onn]),
        (FAMILY_ROWS[2], &[Fam::Odist, Fam::Route]),
    ];
    for (name, fams) in rows {
        let mut ms: Vec<f64> = s_ops
            .iter()
            .zip(&s_done)
            .filter(|(op, _)| fams.contains(&op.fam))
            .filter_map(|(_, d)| Some(d.outcome.as_ref().ok()?.stats.cpu.as_secs_f64() * 1e3))
            .collect();
        report.set(name, mid(&mut ms), ms.len());
    }

    if let Some((r1, r2)) = open {
        let mut due_ms: Vec<f64> = r1.done.iter().map(|d| d.ms).collect();
        due_ms.sort_by(f64::total_cmp);
        report.set_layer("datasets.seg_len_p50", crate::serial::seg_len_p50(&r1_ops));
        probes::stat_rows(&mut report, &stats_of(&r1.done));
        report.set_layer("admission.due_p50_ms", percentile(&due_ms, 0.50));
        report.set_layer("admission.due_p95_ms", percentile(&due_ms, 0.95));
        // queue wait: latency from due minus the op's own clocked service time
        let mut wait: Vec<f64> = r1
            .done
            .iter()
            .filter_map(|d| Some(d.ms - d.outcome.as_ref().ok()?.stats.cpu.as_secs_f64() * 1e3))
            .collect();
        let (wait_p50, wait_p95) = p50_p95(&mut wait);
        report.set_layer("admission.wait_p50_ms", wait_p50);
        report.set_layer("admission.wait_p95_ms", wait_p95);
        report.set_layer("admission.batch_size_mean", r1.batch_size_mean);
        report.set_layer("admission.rejected", admission.rejected() as f64);
        let mut hi: Vec<f64> = r2.done.iter().map(|d| d.ms).collect();
        let (hi_p50, hi_p95) = p50_p95(&mut hi);
        report.set_layer("admission.hi_rate_p50_ms", hi_p50);
        report.set_layer("admission.hi_rate_p95_ms", hi_p95);
        report.set_layer("admission.backlog_end_hi", r2.backlog_end as f64);
        let keeps_up = |backlog: usize, p95: f64| backlog <= coalesce && p95 <= P95_LIMIT_MS;
        let max_rate_ok = if !keeps_up(r1.backlog_end, percentile(&due_ms, 0.95)) {
            0.0
        } else if keeps_up(r2.backlog_end, hi_p95) {
            R2_RATE
        } else {
            R1_RATE
        };
        report.set_layer("admission.max_rate_ok", max_rate_ok);
        let mut lag: Vec<f64> = r1.lag_ms.iter().chain(&r2.lag_ms).copied().collect();
        lag.sort_by(f64::total_cmp);
        report.set_layer("admission.gen_lag_p95_ms", percentile(&lag, 0.95));
        if let Some((reference, ..)) = s_ref {
            report.set_layer(
                "trace.overhead_frac",
                ops::mean_ms(&s_done) / ops::mean_ms(&reference) - 1.0,
            );
        }
        let sample: Vec<&Op> = probes::stride(&r1_ops, probes::PROBE_OPS).collect();
        probes::pool_rows(&mut report, &service, &sample, crate::nproc());
        probes::epoch_rows(&mut report, &world);
        report.set_layer("trace.probe_ops", sample.len() as f64);
        tracer.absorb(r1.tracer);
        tracer.absorb(r2.tracer);
    }
    report.set("peak_rss_mb", crate::util::peak_rss_mb(), 1);
    (report, tracer)
}
