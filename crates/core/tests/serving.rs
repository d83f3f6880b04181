//! Concurrent-serving suite for the epoch/shard/pool/admission stack.
//!
//! Pins the three serving contracts end to end:
//!
//! * **Snapshot isolation** — a reader pinned to epoch N returns answers
//!   byte-identical to a serial run against epoch N while later epochs
//!   publish mid-query;
//! * **Race-free pooling** — reuse counters aggregated by the persistent
//!   engine pool equal the per-query sums even under concurrent batches;
//! * **Shard equivalence** — a sharded service answers equivalently
//!   (1e-6) to the unsharded single-engine reference over random
//!   mixed-family workloads, whichever path (certified shard or full
//!   fallback) each query takes.

#![expect(
    clippy::disallowed_methods,
    reason = "these tests spawn client threads: independent callers of one service, admission queue or pool"
)]

mod fixtures;

use std::sync::atomic::{AtomicBool, Ordering};

use conn_core::{
    answers_equivalent, Admission, AdmissionConfig, ConnConfig, ConnService, EnginePool,
    PinnedEpoch, Query, ReuseCounters, Scene, SceneEpoch, ShardSpec, Ticket,
};
use conn_geom::{Point, Segment};
use fixtures::paper_scene;
use proptest::prelude::*;

/// The whole serving surface must be shareable across threads; these are
/// compile-time assertions (the test body is trivially true once it
/// compiles).
#[test]
fn serving_layer_is_send_sync() {
    fn assert_send_sync<T: Send + Sync>() {}
    assert_send_sync::<ConnService<'static>>();
    assert_send_sync::<Scene<'static>>();
    assert_send_sync::<SceneEpoch<'static>>();
    assert_send_sync::<PinnedEpoch<'static>>();
    assert_send_sync::<EnginePool>();
    assert_send_sync::<Admission>();
    assert_send_sync::<Ticket>();
}

/// A deterministic mixed-family probe set over the generated scenes.
fn probes() -> Vec<Query> {
    let mut out = Vec::new();
    for i in 0..6u64 {
        let x = (i as f64 * 1371.0) % 9000.0;
        let y = (i as f64 * 2113.0) % 9000.0;
        let seg = Segment::new(Point::new(x, y), Point::new(x + 800.0, y + 120.0));
        out.push(Query::conn(seg).build().unwrap());
        out.push(Query::coknn(seg, 2).build().unwrap());
        out.push(Query::onn(Point::new(x, y), 2).build().unwrap());
        out.push(Query::range(Point::new(x, y), 1500.0).build().unwrap());
        out.push(
            Query::odist(Point::new(x, y), Point::new(y, x))
                .build()
                .unwrap(),
        );
    }
    out
}

/// Satellite: a reader pinned to epoch N must return answers
/// byte-identical to a serial run against epoch N while epochs N+1, N+2, …
/// publish mid-query.
#[test]
fn pinned_reader_is_isolated_from_concurrent_publishes() {
    let queries = probes();
    // serial reference over an identically constructed scene
    let reference = ConnService::new(paper_scene(40, 25, 7, false));
    let expected: Vec<String> = queries
        .iter()
        .map(|q| format!("{:?}", reference.execute(q).unwrap().answer))
        .collect();

    let service = ConnService::new(paper_scene(40, 25, 7, false));
    let pin0 = service.pin();
    let done = AtomicBool::new(false);
    std::thread::scope(|scope| {
        let publisher = scope.spawn(|| {
            let mut published = 0u64;
            while !done.load(Ordering::Relaxed) {
                // publish a different world every iteration
                published = service.publish(paper_scene(10, 8, 1000 + published, false));
            }
            published
        });

        // the reader holds its pin across the whole sweep, three times over
        for _ in 0..3 {
            for (q, want) in queries.iter().zip(&expected) {
                let resp = service.execute_at(&pin0, q).unwrap();
                assert_eq!(
                    &format!("{:?}", resp.answer),
                    want,
                    "pinned reader saw a torn scene"
                );
            }
        }
        done.store(true, Ordering::Relaxed);
        let published = publisher.join().unwrap();
        assert!(published >= 1, "publisher never got an epoch in");
        assert_eq!(service.current_epoch(), published);
        // epoch 0 is still pinned: every *other* published-over epoch has
        // retired, epoch 0 has not
        assert_eq!(service.epochs_retired(), published.saturating_sub(1));
        // the live ledger balances: pinned epoch 0 + the current epoch
        assert_eq!(service.epochs_live(), 2);
    });
    assert_eq!(pin0.epoch(), 0);
    drop(pin0);
    assert!(service.epochs_retired() >= 1);
    assert_eq!(service.epochs_live(), 1, "only the current epoch remains");
}

/// Satellite: per-worker counter pooling. Two batches racing on the same
/// service must aggregate exactly the per-query counter sums — no lost
/// increments on sweep_events / sight_tests.
#[test]
fn pool_counters_aggregate_across_concurrent_batches() {
    let service = ConnService::new(paper_scene(30, 20, 11, false));
    let queries = probes();
    let mut expected = ReuseCounters::default();
    std::thread::scope(|scope| {
        let a = scope.spawn(|| service.execute_batch_threads(&queries, 2).unwrap());
        let b = scope.spawn(|| service.execute_batch_threads(&queries, 2).unwrap());
        for handle in [a, b] {
            let (responses, _) = handle.join().unwrap();
            for r in &responses {
                expected.accumulate(&r.stats.reuse);
            }
        }
    });
    assert!(expected.sight_tests > 0, "probe set exercised no kernels");
    assert_eq!(
        service.reuse_totals(),
        expected,
        "pool totals lost increments under concurrent batches"
    );
}

/// Concurrent admission: clients on several threads submit single queries,
/// a pump thread's workers pull them off the queue one at a time and
/// fulfil each ticket when its query ends; every ticket must
/// resolve to the same answer a direct execute gives — on the unsharded and
/// the sharded service alike, while a writer keeps re-publishing an
/// identically built scene (so every epoch has the same answers and a
/// ticket served across a publication still has to match).
#[test]
fn admission_serves_concurrent_clients() {
    let scene = || paper_scene(25, 15, 3, false);
    let services = [
        ConnService::new(scene()),
        ConnService::sharded(
            scene(),
            ConnConfig::default(),
            ShardSpec::new(2, 2, 2500.0).unwrap(),
        ),
    ];
    for service in &services {
        let admission = Admission::new(AdmissionConfig {
            max_pending: 256,
            coalesce: 8,
        });
        let queries = probes();
        let total = (queries.len() * 3) as u64;
        // clients report divergences instead of panicking mid-run: a
        // client that stopped submitting would leave the pump spinning
        let diverged: Vec<String> = std::thread::scope(|scope| {
            let admission = &admission;
            let queries = &queries;
            let clients: Vec<_> = (0..3)
                .map(|_| {
                    scope.spawn(move || {
                        let mut diverged = Vec::new();
                        for q in queries {
                            let ticket = admission.submit(q.clone()).unwrap();
                            let got = format!("{:?}", ticket.wait().unwrap().answer);
                            let want = format!("{:?}", service.execute(q).unwrap().answer);
                            if got != want {
                                diverged.push(format!("{:?}: {got} != {want}", q.kind()));
                            }
                        }
                        diverged
                    })
                })
                .collect();
            scope.spawn(move || {
                while admission.served() < total {
                    if admission.pump(service, 2) == 0 {
                        std::thread::yield_now();
                    }
                }
            });
            scope.spawn(move || {
                while admission.served() < total {
                    service.publish(scene());
                    std::thread::yield_now();
                }
            });
            clients
                .into_iter()
                .flat_map(|client| client.join().unwrap())
                .collect()
        });
        assert!(
            diverged.is_empty(),
            "queued answers diverged from direct execute: {diverged:#?}"
        );
        assert_eq!(admission.served(), total);
        assert_eq!(admission.pending(), 0);
        assert!(
            admission.batches() <= total,
            "an empty pump call was counted"
        );
        assert!(service.current_epoch() >= 1, "the writer never published");
    }
}

/// Scene layout for the shard proptest: points + a few obstacles over
/// [0, 10000]^2, the same inputs for the sharded and unsharded service.
fn shard_scene(seed: u64, n: usize) -> Scene<'static> {
    paper_scene(n, 18, seed, false)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(12))]

    /// Tentpole invariant: sharded answers are equivalent (1e-6) to the
    /// unsharded single-engine reference — whichever path each query took.
    #[test]
    fn sharded_matches_unsharded(
        seed in 0..500u64,
        n in 15..40usize,
        qx in 0.0..9000.0f64,
        qy in 0.0..9000.0f64,
        k in 1..4usize,
        radius in 200.0..6000.0f64,
    ) {
        let unsharded = ConnService::new(shard_scene(seed, n));
        let sharded = ConnService::sharded(
            shard_scene(seed, n),
            ConnConfig::default(),
            ShardSpec::new(2, 2, 2500.0).unwrap(),
        );
        let seg = Segment::new(Point::new(qx, qy), Point::new(qx + 600.0, qy + 90.0));

        // CONN: value-equivalent result lists
        let q = Query::conn(seg).build().unwrap();
        let a = sharded.execute(&q).unwrap();
        let b = unsharded.execute(&q).unwrap();
        prop_assert!(
            answers_equivalent(&a.answer, &b.answer, 1e-6),
            "CONN diverged (shard_local={}, shard_merges={})",
            a.stats.reuse.shard_local,
            a.stats.reuse.shard_merges
        );

        // COkNN: same k-set distances on a parameter grid
        let q = Query::coknn(seg, k).build().unwrap();
        let a = sharded.execute(&q).unwrap();
        let b = unsharded.execute(&q).unwrap();
        let (ra, rb) = (a.answer.as_coknn().unwrap(), b.answer.as_coknn().unwrap());
        for i in 0..=8 {
            let t = seg.len() * i as f64 / 8.0;
            let (va, vb) = (ra.knn_at(t), rb.knn_at(t));
            prop_assert_eq!(va.len(), vb.len(), "COkNN member count diverged at t={}", t);
            for (x, y) in va.iter().zip(&vb) {
                prop_assert!((x.1 - y.1).abs() <= 1e-6, "COkNN distance diverged at t={}", t);
            }
        }

        // ONN: same sorted distance profile
        let q = Query::onn(Point::new(qx, qy), k).build().unwrap();
        let a = sharded.execute(&q).unwrap();
        let b = unsharded.execute(&q).unwrap();
        let (va, vb) = (a.answer.neighbors().unwrap(), b.answer.neighbors().unwrap());
        prop_assert_eq!(va.len(), vb.len());
        for (x, y) in va.iter().zip(vb) {
            prop_assert!((x.1 - y.1).abs() <= 1e-6, "ONN distance diverged");
        }

        // Range: membership may only differ by boundary-ULP points
        let q = Query::range(Point::new(qx, qy), radius).build().unwrap();
        let a = sharded.execute(&q).unwrap();
        let b = unsharded.execute(&q).unwrap();
        let (va, vb) = (a.answer.neighbors().unwrap(), b.answer.neighbors().unwrap());
        for (only, other) in [(va, vb), (vb, va)] {
            for (p, d) in only {
                if !other.iter().any(|(op, _)| op.id == p.id) {
                    prop_assert!(
                        (d - radius).abs() <= 1e-6,
                        "non-boundary range member {} missing from the other answer",
                        p.id
                    );
                }
            }
        }
    }
}
